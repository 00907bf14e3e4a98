"""Grid and sampled-function value types."""

import numpy as np
import pytest

from gaussherm.grid import GridSpec, SampledFunction, norm_sq, trapezoid


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 64)
    with pytest.raises(ValueError):
        GridSpec(-2.0, 64)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GridSpec(bad, 64)
    with pytest.raises(ValueError):
        GridSpec(8.0, 8)  # below the minimum point count
    with pytest.raises(ValueError):
        GridSpec(8.0, 65)  # odd
    with pytest.raises(ValueError, match="finite spacing 2L/N, got 1.7976931348623157e"):
        GridSpec(np.finfo(float).max, 4096)  # 2L overflows
    assert GridSpec(np.finfo(float).max / 2, 4096).spacing < np.inf


def test_grid_geometry():
    g = GridSpec(8.0, 32)
    assert g.spacing == 0.5
    xs = g.xs
    assert xs[0] == -8.0
    assert xs[-1] == 7.5  # right endpoint excluded
    assert xs[len(xs) // 2] == 0.0  # the origin is a grid point


def test_sampled_function_validation():
    g = GridSpec(8.0, 32)
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(31))
    bad = np.zeros(32)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        SampledFunction(g, bad)


def test_trapezoid_and_norm():
    g = GridSpec(16.0, 2048)
    f = SampledFunction(g, np.exp(-0.5 * g.xs ** 2))
    # integral of e^{-x^2} dx/sqrt(2 pi) = 2^{-1/2}
    assert norm_sq(f) == pytest.approx(2 ** -0.5, rel=1e-12)
    vals = np.ones(11)
    assert trapezoid(vals, 0.1) == pytest.approx(1.0, rel=1e-14)
