"""Uniform symmetric grids and sampled complex functions.

All quadrature in the package runs against the measure dm = dx/sqrt(2*pi),
on a uniform grid x_j = -L + j*(2L/N), j = 0..N-1 (the right endpoint +L is
excluded; integrands are expected to have decayed there anyway).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


class GridSpec(namedtuple("GridSpec", "half_width num_points")):
    """Uniform symmetric grid on [-L, L) with an even number of points.

    Equal and hashable by value, so a cache keyed on a grid finds it again
    from a fresh ``GridSpec`` of the same numbers.

    Parameters
    ----------
    half_width : float
        Finite L > 0, in x-units.
    num_points : int
        Even, at least 16.  Spacing is h = 2L/N and x = 0 is the point
        with index N/2.
    """

    __slots__ = ()

    def __new__(cls, half_width: float = 16.0, num_points: int = 4096):
        if not 0 < half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {half_width}")
        if half_width > np.finfo(float).max / 2:  # 2L overflows
            raise ValueError(f"half_width must give a finite spacing 2L/N, got {half_width}")
        if num_points < 16 or num_points % 2 != 0:
            raise ValueError(
                f"num_points must be even and >= 16, got {num_points}"
            )
        return super().__new__(cls, half_width, num_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.num_points

    @property
    def xs(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.num_points)


DEFAULT_GRID = GridSpec()


class SampledFunction:
    """Complex values of a function on a :class:`GridSpec`; immutable."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (grid.num_points,):
            raise ValueError(
                f"values has shape {vals.shape}, grid has {grid.num_points} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # a copy or an unpickled one is built, not assigned to
        return SampledFunction, (self.grid, self.values)


def trapezoid(values: np.ndarray, spacing: float):
    """Trapezoid rule on uniformly spaced samples (spectrally accurate for
    smooth integrands that decay at both ends); inf past the double range,
    without a warning."""
    with np.errstate(over="ignore"):
        return spacing * (values.sum() - 0.5 * (values[0] + values[-1]))


def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    w = np.full(n, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def norm_sq(f: SampledFunction) -> float:
    """Squared L^2(dm) norm by quadrature."""
    return float(trapezoid(np.abs(f.values) ** 2, f.grid.spacing).real) / SQRT_2PI
