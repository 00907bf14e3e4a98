"""Hermite functions normalized for the measure dm = dx/sqrt(2*pi).

The basis used everywhere in this package is

    phi_k(x) = 2**0.25 * (2**k k!)**-0.5 * H_k(x) * exp(-x**2/2),

which is orthonormal in L^2(dm).  Two pins fix the normalization: the
Mehler sum of squares at w = 0 gives phi_0(0) = 2**0.25, and the Bargmann
transform sends phi_k to w**k / sqrt(2**k k!).  Equivalently phi_k is
(2*pi)**0.25 times the unit-L^2(dx) Hermite function.

The Fourier convention is fhat(xi) = (2*pi)**-0.5 * integral f(x) e^{-i xi x} dx,
under which phi_k_hat = (-i)**k phi_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import czt

from .errors import BandLimitError, EdgeDecayError
from .grid import DEFAULT_GRID, SQRT_2PI, GridSpec, SampledFunction, trapezoid_weights

#: phi_0(0), pinned by Mehler's formula at w = 0.
PHI0_AT_ZERO = 2.0 ** 0.25

#: Fraction of the grid half-width the classical turning point sqrt(2k+1)
#: may occupy before quadrature coefficients are refused.
BAND_LIMIT_FRACTION = 0.8

#: Relative edge magnitude above which a sampled function is considered
#: non-decayed (Fourier transforms of such samples would alias).
EDGE_DECAY_REL = 1e-8

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class HermiteExpansion:
    """Finite vector of Hermite coefficients <f, phi_k> in dm-normalization.

    ``convention`` is a fixed marker so that coefficient vectors produced
    under a different normalization cannot be mixed in silently.
    """

    coeffs: np.ndarray = field(repr=False)
    convention: str = "dm"

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def unit_expansion(k: int, length: int | None = None) -> HermiteExpansion:
    """Expansion of phi_k itself (a unit vector at index k)."""
    n = (k + 1) if length is None else length
    c = np.zeros(n, dtype=complex)
    c[k] = 1.0
    return HermiteExpansion(c)


def _flush_subnormal(arr: np.ndarray) -> np.ndarray:
    arr[np.abs(arr) < _TINY] = 0.0
    return arr


def hermite_phi_all(kmax: int, xs) -> np.ndarray:
    """Evaluate phi_0..phi_kmax on a batch of points.

    Uses the three-term recurrence

        phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x),

    which is stable upward: in the classically forbidden region the values
    grow monotonically toward the turning point, so early rounding does not
    amplify relative to the current value.  Values below the smallest normal
    double are flushed to exact zero.

    Returns an array of shape (kmax+1, len(xs)).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty((kmax + 1, xs.size))
    p_prev = PHI0_AT_ZERO * np.exp(-0.5 * xs * xs)
    out[0] = p_prev
    if kmax >= 1:
        p = np.sqrt(2.0) * xs * p_prev
        out[1] = p
        for k in range(1, kmax):
            p, p_prev = xs * np.sqrt(2.0 / (k + 1)) * p - np.sqrt(k / (k + 1)) * p_prev, p
            out[k + 1] = p
    return _flush_subnormal(out)


def hermite_phi(k: int, xs) -> np.ndarray:
    """Evaluate the k-th dm-normalized Hermite function at the given points
    (row k of :func:`hermite_phi_all`)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return hermite_phi_all(k, xs)[k]


def band_limit(grid: GridSpec) -> int:
    """Largest k whose classical turning point sqrt(2k+1) fits inside
    BAND_LIMIT_FRACTION of the grid half-width."""
    return int(((BAND_LIMIT_FRACTION * grid.half_width) ** 2 - 1.0) // 2)


def _check_band_limit(grid: GridSpec, k: int):
    kmax = band_limit(grid)
    if k > kmax:
        raise BandLimitError(
            f"k={k} exceeds the grid band limit {kmax} "
            f"(turning point sqrt(2k+1) > {BAND_LIMIT_FRACTION}*L)"
        )


def analyze(f: SampledFunction, kmax: int) -> HermiteExpansion:
    """Hermite coefficients <f, phi_k> for k = 0..kmax, by quadrature."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    _check_band_limit(f.grid, kmax)
    w = trapezoid_weights(f.grid.num_points, f.grid.spacing)
    phi = hermite_phi_all(kmax, f.grid.xs)
    coeffs = phi @ (f.values * w) / SQRT_2PI
    return HermiteExpansion(coeffs)


def synthesize(e: HermiteExpansion, grid: GridSpec = DEFAULT_GRID) -> SampledFunction:
    """Pointwise sum_k coeffs[k] * phi_k(x) on the grid."""
    phi = hermite_phi_all(len(e) - 1, grid.xs)
    return SampledFunction(grid, e.coeffs @ phi)


def fourier_expansion(e: HermiteExpansion) -> HermiteExpansion:
    """Fourier transform in coefficient space: coeffs[k] -> (-i)**k coeffs[k]."""
    k = np.arange(len(e))
    return HermiteExpansion(e.coeffs * (-1j) ** (k % 4))


def _check_edge_decay(values: np.ndarray, what: str):
    m = float(np.max(np.abs(values)))
    if m == 0.0:
        return
    edge = float(max(np.max(np.abs(values[:2])), np.max(np.abs(values[-2:]))))
    if edge > EDGE_DECAY_REL * m:
        raise EdgeDecayError(
            f"{what} has not decayed at the grid edges "
            f"(edge/max = {edge / m:.3e} > {EDGE_DECAY_REL:.0e}); widen the grid"
        )


def fourier_sampled(f: SampledFunction) -> SampledFunction:
    """Unitary Fourier transform fhat(xi) = (2*pi)**-0.5 integral f e^{-i xi x} dx,
    evaluated on the same grid.

    The output frequencies coincide with the input grid rather than the FFT
    grid 2*pi/(N h), so the discretized integral is evaluated with a chirp-z
    transform (Bluestein) instead of a plain FFT.  Requires f to have decayed
    at the grid edges.
    """
    _check_edge_decay(f.values, "input of fourier_sampled")
    grid = f.grid
    h = grid.spacing
    x0 = -grid.half_width
    n = grid.num_points
    # fhat(xi_m) = h/sqrt(2 pi) e^{-i x0 xi_m} sum_j [f_j e^{-i j h x0}] e^{-i j m h^2}
    g = f.values * np.exp(-1j * h * x0 * np.arange(n))
    spiral = czt(g, m=n, w=np.exp(-1j * h * h), a=1.0 + 0.0j)
    vals = (h / SQRT_2PI) * np.exp(-1j * x0 * grid.xs) * spiral
    return SampledFunction(grid, vals)


def fourier_sampled_direct(f: SampledFunction) -> SampledFunction:
    """O(N^2) reference implementation of :func:`fourier_sampled` (same grid,
    same trapezoid-free Riemann sum); kept as an independent cross-check."""
    _check_edge_decay(f.values, "input of fourier_sampled_direct")
    xs = f.grid.xs
    kernel = np.exp(-1j * np.outer(xs, xs))
    vals = (f.grid.spacing / SQRT_2PI) * (kernel @ f.values)
    return SampledFunction(f.grid, vals)


def mehler_closed_form(x: float, w: float) -> float:
    """Closed form of sum_k phi_k(x)**2 w**k for |w| < 1:

        sqrt(2) * (1 - w**2)**-0.5 * exp(-((1-w)/(1+w)) * x**2).
    """
    if not abs(w) < 1.0:
        raise ValueError(f"|w| must be < 1, got w={w}")
    return float(np.sqrt(2.0) / np.sqrt(1.0 - w * w) * np.exp(-(1.0 - w) / (1.0 + w) * x * x))


def mehler_partial_sum(x: float, w: float, kmax: int) -> float:
    """Partial sum sum_{k<=kmax} phi_k(x)**2 w**k of the Mehler identity."""
    if not abs(w) < 1.0:
        raise ValueError(f"|w| must be < 1, got w={w}")
    phi = hermite_phi_all(kmax, [x])[:, 0]
    return float(np.sum(phi * phi * w ** np.arange(kmax + 1)))
