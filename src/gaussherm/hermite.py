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

import functools
import math
import sys

import numpy as np

from .errors import BandLimitError, EdgeDecayError, NumericalDomainError
from .grid import SQRT_2PI, GridSpec, SampledFunction, trapezoid_weights

#: phi_0(0), pinned by Mehler's formula at w = 0.
PHI0_AT_ZERO = 2.0 ** 0.25

#: Fraction of the grid half-width the classical turning point sqrt(2k+1)
#: may occupy before quadrature coefficients are refused.
BAND_LIMIT_FRACTION = 0.8

#: Relative edge magnitude above which a sampled function is considered
#: non-decayed (Fourier transforms of such samples would alias).
EDGE_DECAY_REL = 1e-8

_TINY = np.finfo(float).tiny


class HermiteExpansion:
    """Finite vector of Hermite coefficients <f, phi_k> in dm-normalization;
    immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # a copy or an unpickled one is built, not assigned to
        return HermiteExpansion, (self.coeffs,)

    def __len__(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        """sum_k |c_k|^2, inf past the double range.  Where the squares
        overflow, they are summed over the coefficients scaled by a power of
        two, so a sum in range is still found, and nothing warns."""
        c = self.coeffs
        with np.errstate(over="ignore"):
            total = float(np.sum(np.abs(c) ** 2))
            if total == math.inf:
                shift = math.frexp(float(np.max(np.maximum(np.abs(c.real), np.abs(c.imag)))))[1]
                scaled = np.ldexp(c.real, -shift) + 1j * np.ldexp(c.imag, -shift)
                total = float(np.ldexp(np.sum(np.abs(scaled) ** 2), 2 * shift))
        return total


def unit_expansion(k: int) -> HermiteExpansion:
    """Expansion of phi_k itself (a unit vector at index k)."""
    c = np.zeros(k + 1, dtype=complex)
    c[k] = 1.0
    return HermiteExpansion(c)


def hermite_phi_all(kmax: int, xs) -> np.ndarray:
    """Evaluate phi_0..phi_kmax on a batch of points.

    Uses the three-term recurrence

        phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x),

    which is stable upward: in the classically forbidden region the values
    grow monotonically toward the turning point, so early rounding does not
    amplify relative to the current value.  Values below the smallest normal
    double are flushed to exact zero, after the recurrence: a flushed row can
    feed a later row that is normal.  Each row is formed in place, so the
    rows phi_0..phi_k of a larger build equal a build to kmax = k bit for bit.

    Returns an array of shape (kmax+1, len(xs)).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty((kmax + 1, xs.size))
    spare = np.empty(xs.size)
    with np.errstate(over="ignore"):  # x**2/2 past the double range: phi_0 = e^{-inf} = 0
        np.multiply(xs, -0.5, out=out[0])
        out[0] *= xs
    np.exp(out[0], out=out[0])
    out[0] *= PHI0_AT_ZERO
    # each row is formed in place, in the order of x*sqrt(2/(k+1))*phi_k - sqrt(k/(k+1))*phi_{k-1}
    for k in range(kmax):
        row = out[k + 1]
        np.multiply(xs, np.sqrt(2.0 / (k + 1)), out=row)
        row *= out[k]
        if k:
            np.multiply(out[k - 1], np.sqrt(k / (k + 1)), out=spare)
            row -= spare
    tiny = np.empty(xs.size, dtype=bool)
    for row in out:  # row by row: no full-size temporary
        np.less(np.abs(row, out=spare), _TINY, out=tiny)
        np.copyto(row, 0.0, where=tiny)
    return out


def band_limit(grid: GridSpec) -> int:
    """Largest k whose classical turning point sqrt(2k+1) fits inside
    BAND_LIMIT_FRACTION of the grid half-width."""
    try:
        square = (BAND_LIMIT_FRACTION * grid.half_width) ** 2
    except OverflowError:  # past L ~ 1.68e154: the largest finite double stands in
        square = sys.float_info.max
    return int((square - 1.0) // 2)


def _check_band_limit(grid: GridSpec, k: int):
    kmax = band_limit(grid)
    if k > kmax:
        raise BandLimitError(
            f"k={k} exceeds the grid band limit {kmax} "
            f"(turning point sqrt(2k+1) > {BAND_LIMIT_FRACTION}*L)"
        )


#: Largest basis :func:`grid_basis` builds, in bytes (256 MiB): rows past it
#: are refused (``NumericalDomainError``) before anything is allocated.  The
#: default grid's whole band holds 82 x 4096 doubles (2.6 MiB).
BASIS_BYTES_CAP = 2 ** 28


#: Bytes up to which :func:`grid_basis` builds a grid's whole band on a miss
#: (4 MiB; the default grid's band is 82 x 4096 doubles, 2.6 MiB), so later
#: calls on that grid only read it; a larger band is built only to the kmax
#: asked for, as a whole band would hold up to the 256 MiB budget.
_BAND_BUILD_BYTES = 4 * 2 ** 20


#: (grid, rows) of :func:`grid_basis`.  Rows handed out are never written
#: again, so a caller holding rows of an older basis still reads them.
_GRID_BASIS: tuple[GridSpec, np.ndarray] | None = None


def grid_basis(grid: GridSpec, kmax: int) -> np.ndarray:
    """Read-only rows phi_0..phi_kmax on ``grid.xs``, shape (kmax+1, N);
    refused past the grid's band limit (``BandLimitError``) and past
    ``BASIS_BYTES_CAP`` bytes (``NumericalDomainError``).

    One basis is cached: that of the last grid asked for.  When another grid
    or more rows than it holds are asked for, it is let go, and the new one
    is built in one :func:`hermite_phi_all` call: the grid's whole band where
    that fits ``_BAND_BUILD_BYTES``, else rows phi_0..phi_kmax.
    """
    global _GRID_BASIS
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    _check_band_limit(grid, kmax)
    size = (kmax + 1) * grid.num_points * 8
    if size > BASIS_BYTES_CAP:
        raise NumericalDomainError(
            f"a Hermite basis of {kmax + 1} rows x N={grid.num_points} points needs "
            f"{math.ceil(size / 2 ** 20)} MiB, past the {BASIS_BYTES_CAP // 2 ** 20} MiB budget")
    cached = _GRID_BASIS
    if cached is None or cached[0] != grid or kmax >= len(cached[1]):
        cached = _GRID_BASIS = None  # let the old basis go before the new one is made
        band = band_limit(grid)
        top = band if (band + 1) * grid.num_points * 8 <= _BAND_BUILD_BYTES else kmax
        phi = hermite_phi_all(top, grid.xs)
        phi.flags.writeable = False
        cached = _GRID_BASIS = (grid, phi)
    return cached[1][: kmax + 1]


def analyze(f: SampledFunction, kmax: int) -> HermiteExpansion:
    """Hermite coefficients <f, phi_k> for k = 0..kmax, by quadrature."""
    phi = grid_basis(f.grid, kmax)
    v = f.values * trapezoid_weights(f.grid.num_points, f.grid.spacing)
    # two real products: a mixed-dtype ``@`` would first copy the basis to complex
    return HermiteExpansion((v.real @ phi.T + 1j * (v.imag @ phi.T)) / SQRT_2PI)


def fourier_expansion(e: HermiteExpansion) -> HermiteExpansion:
    """Fourier transform in coefficient space: coeffs[k] -> (-i)**k coeffs[k]."""
    k = np.arange(len(e))
    return HermiteExpansion(e.coeffs * (-1j) ** (k % 4))


def phase_ramp(theta, n: int) -> np.ndarray:
    """e^{i theta j} for j = 0..n-1, for each angle in the array ``theta``;
    shape theta.shape + (n,).

    Built as the outer product of two tables of about sqrt(n) complex
    exponentials, e^{i theta q m} and e^{i theta r} with j = q m + r, so an
    n-point ramp costs 2 sqrt(n) exponentials and n products instead of n
    exponentials.  Each coarse angle theta (q m) is rounded once, as theta j
    is in the direct ``np.exp(1j * theta * j)``, and the product adds about
    one rounding.  Against a long-double reference, over the angles this
    package takes ramps of, its mean and max errors are 0.92x and 0.96x
    those of the direct form; where theta j is exact in double (a dyadic
    theta) the direct form is correctly rounded, and the table's largest
    error, about 2 ulp, is 2.5-3x the direct one.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    q = max(1, math.isqrt(n - 1) + 1)  # q * q >= n
    m = -(-n // q)
    coarse = np.exp(1j * theta * (q * np.arange(m)))
    fine = np.exp(1j * theta * np.arange(q))
    ramp = coarse[..., :, None] * fine[..., None, :]
    return ramp.reshape(theta.shape[:-1] + (m * q,))[..., :n]


@functools.lru_cache(maxsize=1)
def _chirp_z_plan(grid: GridSpec) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(FFT size, kernel FFT, pre ramp, post ramp), read-only: the part of
    :func:`fourier_rows`' chirp-z that depends on the grid alone, one
    N-point ramp on each side of the convolution, held for the last grid
    asked for (256 KB on the default grid).  Each row takes one chirp-z
    through it, its error relative to that row's peak."""
    h = grid.spacing
    x0 = -grid.half_width
    n = grid.num_points
    if 2.0 * x0 * x0 == math.inf:
        raise NumericalDomainError(f"the chirp-z phases of the sampled Fourier transform reach "
                                   f"2L^2, past the double range at L={-x0:g}")
    # fhat(xi_m) = h/sqrt(2 pi) e^{-i x0^2} e^{-i m h x0}
    #             * sum_j [f_j e^{-i j h x0}] e^{-i j m h^2}
    # for m = 0..N-1, with xi_m = x0 + m h
    j = np.arange(n)
    chirp = np.exp(-0.5j * h * h * (j * j))
    size = 1 << (2 * n - 1).bit_length()  # >= 2N - 1: N inputs, N outputs
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp.conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    kernel_fft = np.fft.fft(kernel)
    pre = phase_ramp(-h * x0, n) * chirp
    post = (h / SQRT_2PI) * np.exp(-1j * x0 * x0) * pre
    for arr in (kernel_fft, pre, post):
        arr.flags.writeable = False
    return size, kernel_fft, pre, post


def check_decayed(rows: np.ndarray) -> None:
    """Refuse rows of samples, shape (F, N), undecayed for :func:`fourier_rows`: an EdgeDecayError
    names the first with an edge sample (two per end) above EDGE_DECAY_REL times its peak."""
    peaks = np.abs(rows).max(axis=1)
    edges = np.maximum(np.abs(rows[:, :2]).max(axis=1), np.abs(rows[:, -2:]).max(axis=1))
    undecayed = np.flatnonzero(edges > EDGE_DECAY_REL * peaks)
    if undecayed.size:
        i = undecayed[0]
        raise EdgeDecayError(
            f"input row {i} of the sampled Fourier transform has not decayed at the grid edges "
            f"(edge/max = {edges[i] / peaks[i]:.3e} > {EDGE_DECAY_REL:.0e}); widen the grid"
        )


def fourier_rows(values, grid: GridSpec) -> np.ndarray:
    """Unitary Fourier transform fhat(xi) = (2*pi)**-0.5 integral f e^{-i xi x} dx
    of each row of samples on ``grid``, evaluated on the same grid; shape
    (F, N) for F rows.

    The output frequencies coincide with the input grid rather than the FFT
    grid 2*pi/(N h), so the discretized integral is a chirp-z transform
    (Rabiner, Schafer and Rader 1969), evaluated as one FFT convolution after
    Bluestein's (1970) split jm = (j^2 + m^2 - (m-j)^2)/2.  The chirp, the
    FFT of the convolution kernel and the phase ramp before and after it
    (:func:`phase_ramp`) are built once per grid, and those of the last grid
    asked for are held (:func:`_chirp_z_plan`), so a call on that grid only
    transforms.  Each row, real or complex, is one complex sequence of one
    chirp-z, and all rows go through it as one batch.  Each row is scaled by
    a power of two to unit peak first and back after (both exact), so a row
    far smaller or larger than the others keeps its own accuracy: the error
    is relative to that row's peak.  Requires every row to have decayed at
    the grid edges (:func:`check_decayed`), and phases x xi up to 2 L^2 in
    the double range (:class:`NumericalDomainError` past L ~ 9.5e153).
    """
    rows = np.atleast_2d(values)
    check_decayed(rows)
    n = grid.num_points
    size, kernel_fft, pre, post = _chirp_z_plan(grid)
    exps = np.frexp(np.abs(rows).max(axis=1))[1][:, None]
    z = np.zeros((len(rows), size), dtype=complex)
    np.ldexp(rows.real, -exps, out=z.real[:, :n])
    np.ldexp(rows.imag, -exps, out=z.imag[:, :n])
    z[:, :n] *= pre
    np.fft.fft(z, axis=1, out=z)
    z *= kernel_fft
    np.fft.ifft(z, axis=1, out=z)
    out = z[:, :n] * post
    np.ldexp(out.real, exps, out=out.real)
    np.ldexp(out.imag, exps, out=out.imag)
    return out


def fourier_sampled(f: SampledFunction) -> SampledFunction:
    """Unitary Fourier transform of f on its own grid: :func:`fourier_rows`
    for the single row f."""
    return SampledFunction(f.grid, fourier_rows(f.values, f.grid)[0])
