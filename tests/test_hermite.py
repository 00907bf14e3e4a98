"""Hermite basis: normalization pins, recurrence stability, quadrature,
Fourier transforms, Mehler's identity."""

import math

import numpy as np
import pytest

from gaussherm.errors import BandLimitError, EdgeDecayError
from gaussherm.grid import GridSpec, SampledFunction, norm_sq, sample
from gaussherm.hermite import (
    HermiteExpansion,
    analyze,
    band_limit,
    fourier_expansion,
    fourier_sampled,
    fourier_sampled_direct,
    hermite_phi,
    hermite_phi_all,
    mehler_closed_form,
    mehler_partial_sum,
    synthesize,
    unit_expansion,
)


def phi2_explicit(x):
    # oracle: degree-2 Hermite polynomial H_2 = 4x^2 - 2, normalized by
    # 2**0.25 / sqrt(2^2 2!)
    return 2.0 ** 0.25 * (4 * x * x - 2) * np.exp(-0.5 * x * x) / math.sqrt(8.0)


def test_phi0_at_zero_pin():
    assert hermite_phi(0, [0.0])[0] == pytest.approx(2.0 ** 0.25, abs=1e-14)


def test_phi1_odd():
    assert hermite_phi(1, [0.0])[0] == 0.0


def test_phi2_against_explicit_polynomial():
    xs = np.linspace(-4, 4, 17)
    assert hermite_phi(2, xs) == pytest.approx(phi2_explicit(xs), abs=1e-14)


def test_phi_against_mpmath_closed_form():
    """2^{1/4} (2^k k!)^{-1/2} H_k(x) e^{-x^2/2} at 50 digits, including the
    classically forbidden region |x| > sqrt(2k+1)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    xs = [0.0, 0.37, -1.3, 2.9, -5.5, 8.25, -11.0, 13.7, -18.0, 24.5, -30.0]
    table = hermite_phi_all(81, xs)
    for k in (0, 1, 5, 40, 81):
        single = hermite_phi(k, xs)
        for j, x in enumerate(xs):
            xm = mp.mpf(x)
            expected = float(
                mp.mpf(2) ** mp.mpf("0.25") / mp.sqrt(mp.mpf(2) ** k * mp.factorial(k))
                * mp.hermite(k, xm) * mp.exp(-xm * xm / 2)
            )
            if abs(expected) < np.finfo(float).tiny:
                assert table[k, j] == 0.0 and single[j] == 0.0
            else:
                assert abs(table[k, j] - expected) <= 1e-12 * abs(expected)
                assert abs(single[j] - expected) <= 1e-12 * abs(expected)


def test_recurrence_against_extended_precision():
    """Same recurrence in mpmath at 40 digits, k <= 200, |x| <= 10."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = [0.0, 0.5, -1.0, 2.7, -5.0, 10.0, -10.0]
    kmax = 200
    vals = hermite_phi_all(kmax, xs)
    for j, x in enumerate(xs):
        xm = mp.mpf(x)
        p_prev = mp.mpf(2) ** mp.mpf("0.25") * mp.e ** (-xm * xm / 2)
        p = mp.sqrt(2) * xm * p_prev
        ref = {0: p_prev, 1: p}
        for k in range(1, kmax):
            p, p_prev = xm * mp.sqrt(mp.mpf(2) / (k + 1)) * p - mp.sqrt(mp.mpf(k) / (k + 1)) * p_prev, p
            ref[k + 1] = p
        for k in (0, 1, 2, 5, 10, 50, 100, 200):
            expected = float(ref[k])
            if expected == 0.0:
                assert vals[k, j] == 0.0
            else:
                assert abs(vals[k, j] - expected) <= 1e-10 * abs(expected)


def test_underflow_flushes_to_exact_zero():
    vals = hermite_phi(0, [50.0])
    assert vals[0] == 0.0


def test_orthonormality_on_default_grid(grid):
    table = hermite_phi_all(40, grid.xs)
    w = np.full(grid.num_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    gram = (table * w) @ table.T / math.sqrt(2 * math.pi)
    assert np.max(np.abs(gram - np.eye(41))) < 1e-10


@pytest.mark.parametrize("k,expected", [(0, 2.0 ** -0.25), (2, 0.0)])
def test_analyze_gaussian_oracle(grid, k, expected):
    # oracle: e^{-x^2/2} = 2^{-1/4} phi_0 exactly (Gaussian integral)
    f = sample(lambda xs: np.exp(-0.5 * xs ** 2), grid)
    assert analyze(f, k).coeffs[k] == pytest.approx(expected, abs=1e-10)


def test_analyze_band_limit(grid):
    f = sample(lambda xs: np.exp(-0.5 * xs ** 2), grid)
    analyze(f, band_limit(grid))
    with pytest.raises(BandLimitError):
        analyze(f, band_limit(grid) + 1)


def test_analyze_parseval(grid):
    f0 = sample(lambda xs: hermite_phi(0, xs), grid)
    e = analyze(f0, 30)
    assert e.norm_sq() == pytest.approx(1.0, abs=1e-10)
    zero = analyze(SampledFunction(grid, np.zeros(grid.num_points)), 10)
    assert np.all(zero.coeffs == 0)


def test_parseval_inequality_for_generic_function(grid, rng):
    f = sample(lambda xs: (np.tanh(xs) + 0.3) * np.exp(-0.4 * xs ** 2), grid)
    e = analyze(f, 60)
    assert e.norm_sq() <= norm_sq(f) + 1e-10


def test_synthesize_unit_is_phi(grid):
    f = synthesize(unit_expansion(5), grid)
    assert f.values == pytest.approx(hermite_phi(5, grid.xs).astype(complex), abs=1e-14)


def test_analyze_synthesize_round_trip(grid, rng):
    coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
    e = HermiteExpansion(coeffs)
    back = analyze(synthesize(e, grid), 24)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-10


def test_synthesize_gaussian_closed_form(grid):
    from gaussherm.gaussians import gaussian, hermite_coeffs

    g = gaussian(0.5)
    f = synthesize(hermite_coeffs(g, 70), grid)
    assert np.max(np.abs(f.values - g(grid.xs))) < 1e-8


def test_fourier_expansion_phases():
    e = fourier_expansion(unit_expansion(1, 4))
    assert e.coeffs[1] == pytest.approx(-1j)
    e0 = unit_expansion(0, 4)
    assert np.all(fourier_expansion(e0).coeffs == e0.coeffs)


def test_fourier_expansion_fourth_power_identity(rng):
    e = HermiteExpansion(rng.normal(size=17) + 1j * rng.normal(size=17))
    out = e
    for _ in range(4):
        out = fourier_expansion(out)
    assert np.max(np.abs(out.coeffs - e.coeffs)) == 0.0


def test_fourier_sampled_gaussian_selfdual(grid):
    f = sample(lambda xs: np.exp(-0.5 * xs ** 2), grid)
    assert np.max(np.abs(fourier_sampled(f).values - f.values)) < 1e-8


def test_fourier_sampled_width_two_oracle(grid):
    # oracle: Gaussian integral, e^{-x^2} -> 2^{-1/2} e^{-xi^2/4}
    f = sample(lambda xs: np.exp(-xs ** 2), grid)
    target = 2 ** -0.5 * np.exp(-grid.xs ** 2 / 4)
    assert np.max(np.abs(fourier_sampled(f).values - target)) < 1e-8


def test_fourier_sampled_phi1_eigenfunction(grid):
    f = sample(lambda xs: hermite_phi(1, xs), grid)
    assert np.max(np.abs(fourier_sampled(f).values - (-1j) * f.values)) < 1e-8


def test_fourier_sampled_matches_direct_reference():
    g = GridSpec(12.0, 256)
    f = sample(lambda xs: np.exp(-0.5 * xs ** 2) * (1 + 0.3 * xs + 0.2j * xs ** 2), g)
    a = fourier_sampled(f).values
    b = fourier_sampled_direct(f).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_fourier_sampled_fourth_power_identity(grid):
    f = sample(lambda xs: np.exp(-0.4 * xs ** 2) * (1 + xs), grid)
    out = f
    for _ in range(4):
        out = fourier_sampled(out)
    assert np.max(np.abs(out.values - f.values)) < 1e-8


def test_fourier_commutes_with_analyze(grid):
    f = sample(lambda xs: np.exp(-0.45 * xs ** 2) * (1 + 0.5 * xs), grid)
    via_sampled = analyze(fourier_sampled(f), 40).coeffs
    via_expansion = fourier_expansion(analyze(f, 40)).coeffs
    assert np.max(np.abs(via_sampled - via_expansion)) < 1e-8


def test_fourier_sampled_rejects_undecayed_edges():
    g = GridSpec(4.0, 64)
    f = sample(lambda xs: np.exp(-0.05 * xs ** 2), g)
    with pytest.raises(EdgeDecayError):
        fourier_sampled(f)


def test_mehler_closed_form_values():
    assert mehler_closed_form(0.0, 0.5) == pytest.approx(math.sqrt(2) / math.sqrt(0.75), rel=1e-14)
    x = 1.3
    assert mehler_closed_form(x, 0.0) == pytest.approx(math.sqrt(2) * math.exp(-x * x), rel=1e-14)
    assert mehler_closed_form(x, 0.0) == pytest.approx(hermite_phi(0, [x])[0] ** 2, rel=1e-13)


def test_mehler_partial_sum_converges():
    assert mehler_partial_sum(1.0, 0.3, 60) == pytest.approx(
        mehler_closed_form(1.0, 0.3), abs=1e-10
    )


def test_mehler_domain_error():
    with pytest.raises(ValueError):
        mehler_closed_form(0.0, 1.0)
    with pytest.raises(ValueError):
        mehler_partial_sum(0.0, -1.2, 10)


@pytest.mark.parametrize("w", [-0.3, 0.3, 0.5, 0.9])
def test_mehler_sup_error_decreases_in_kmax(grid, w):
    xs = grid.xs[:: 16]
    table = hermite_phi_all(260, xs)
    rhs = np.array([mehler_closed_form(float(x), w) for x in xs])
    kmaxes = [50, 100, 150, 200, 250]
    errs = []
    for kmax in kmaxes:
        lhs = (table[: kmax + 1] ** 2 * (w ** np.arange(kmax + 1))[:, None]).sum(axis=0)
        errs.append(np.max(np.abs(lhs - rhs)))
    assert all(e1 >= e2 or e1 < 1e-13 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8
