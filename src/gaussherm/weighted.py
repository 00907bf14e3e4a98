"""Weighted two-sided norms and the confinement-implies-decay machinery.

The square of the weighted norm averages the e^{a x^2}-weighted energies of
a function and of its Fourier transform,

    ||f||_a^2 = ( integral |f|^2 e^{a x^2} dm + integral |fhat|^2 e^{a xi^2} dm ) / 2.

Hermite functions have these norms in closed form (their generating
function is an elementary product), and a lower bound on ||phi_k||_a turns
a uniform-in-time norm bound on an oscillator flow into geometric decay of
the initial data's Hermite coefficients, k^{alpha/2} mu^{k/2} with
mu = (1-a)/(1+a).  Pushed to the self-dual limit this forces the initial
state to be a finite Hermite combination, i.e. a Gaussian.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .decay import check_weight
from .errors import NumericalDomainError
from .grid import SQRT_2PI, GridSpec
from .hermite import HermiteExpansion

LOG2 = math.log(2.0)

#: A weighted integrand whose edge values exceed this fraction of its peak
#: is treated as numerically outside the weighted class.  Swept over phi_n
#: (n <= 40, a in [0.2, 0.8] by 0.005) on the (L, N) = (16, 4096), (12, 4096)
#: and (16, 2048) grids against the closed form: every row accepted at this
#: guard is within 8.9e-9, while 715 of the 727 rows with edge/peak in
#: (1e-5, 1e-3] are off by more than 1e-6 (up to 1.2e-4).
WEIGHTED_EDGE_REL = 1e-7


#: Bytes of weighted samples per block of :func:`weighted_energy_rows`, so
#: each block's passes run in cache.
_ENERGY_BLOCK_BYTES = 256 * 1024


def weighted_energy_rows(values: np.ndarray, grid: GridSpec, a: float) -> np.ndarray:
    """Time-side quadrature of integral |f|^2 e^{a x^2} dm for each row of
    samples on ``grid`` (trapezoid rule); nan for a row whose weighted
    integrand has not decayed at the grid edges (edge/peak above
    ``WEIGHTED_EDGE_REL``), and for one whose weighted samples are not all
    finite doubles (e^{a x^2} overflows past |x| = sqrt(709/a)).

    The rows run in blocks of at most 256 KB of weighted samples; every
    value is a function of its own row alone, so the result is the same,
    bit for bit, as one block's.  For phi_n this is ||phi_n||_a^2 itself,
    since |phi_n hat| = |phi_n|.
    """
    rows = np.atleast_2d(values)
    with np.errstate(over="ignore"):
        weight = np.exp(a * grid.xs * grid.xs)
    step = max(1, _ENERGY_BLOCK_BYTES // (8 * grid.num_points))
    return np.concatenate([
        _weighted_energy_block(rows[i:i + step], weight, grid.spacing)
        for i in range(0, max(rows.shape[0], 1), step)
    ])


def _weighted_energy_block(rows: np.ndarray, weight: np.ndarray, h: float) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):  # 0 * inf, inf / inf: refused below
        weighted = np.abs(rows) ** 2 * weight
        peak = weighted.max(axis=1)
        edge = np.maximum.reduce([weighted[:, 0], weighted[:, 1], weighted[:, -2], weighted[:, -1]])
        ratio = np.where(peak > 0.0, edge / peak, 0.0)
        integral = h * (weighted.sum(axis=1) - 0.5 * (weighted[:, 0] + weighted[:, -1]))
    refused = (ratio > WEIGHTED_EDGE_REL) | ~np.isfinite(integral)
    return np.where(refused, math.nan, integral / SQRT_2PI)


def scaled_gram_columns(kmax: int, a: float):
    """Columns k = 0..kmax of H_jk = G_jk mu^{(j+k)/2}, j = 0..kmax, where

        G_jk = integral phi_j phi_k e^{a x^2} dm,   mu = (1-a)/(1+a).

    The ladder operators give G_00 = (1-a)^{-1/2} and

        sqrt(k+1) (1-a) G_{j,k+1} = sqrt(j) G_{j-1,k} + a sqrt(k) G_{j,k-1},

    which after the rescaling reads (1+a) sqrt(k+1) H_{j,k+1} =
    sqrt(j) H_{j-1,k} + a sqrt(k) H_{j,k-1}.  Column 0 is row 0 (G is
    symmetric), from the same relation at j = 0.  Every term is
    non-negative, so nothing cancels; entries with j - k odd vanish; and
    the rescaled entries stay below sqrt(H_jj H_kk), which is bounded, where
    G itself grows like mu^{-k}.  Returns an iterator over the columns, each
    a fresh array; only two are live at a time.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    check_weight(a)
    return _gram_columns(kmax, a)


def _gram_columns(kmax: int, a: float):
    root = np.sqrt(np.arange(kmax + 1, dtype=float))
    a_root = a * root  # a sqrt(k), rounded as the scalar product a * root[k] is
    scale = 1.0 / ((1.0 + a) * root[1:])  # 1 / ((1+a) sqrt(k+1)), k = 0..kmax-1
    col = np.zeros(kmax + 1)
    col[0] = (1.0 - a) ** -0.5
    for k in range(1, kmax, 2):
        col[k + 1] = a_root[k] * scale[k] * col[k - 1]
    prev = np.zeros(kmax + 1)
    spare = np.empty(kmax)  # sqrt(j) H_{j-1,k}, j = 1..kmax, reused by every column
    yield col
    for k in range(kmax):
        nxt = np.multiply(prev, a_root[k])  # the column's one fresh array
        nxt[1:] += np.multiply(root[1:], col[:-1], out=spare)
        nxt *= scale[k]
        prev, col = col, nxt
        yield col


def expansion_weighted_norm_sq(e: HermiteExpansion, a: float) -> float:
    """Exact ||f||_a^2 of the finite expansion f = sum_k c_k phi_k:

        ( c* G c + chat* G chat ) / 2,   chat_k = (-i)^k c_k,

    with the Gram matrix G of :func:`scaled_gram_columns`.  The two sides
    cancel the entries with j - k = 2 mod 4, leaving the sum of
    conj(c_j) c_k G_jk over j = k mod 4.  Runs column by column in O(K)
    memory, with c_k mu^{-k/2} scaled by the power of two nearest its
    largest modulus, so that nothing overflows before the norm itself does;
    past the double range the value is inf.  A single nonzero coefficient takes
    :func:`phi_weighted_norm_sq` directly.
    """
    check_weight(a)
    c = e.coeffs
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        return 0.0
    if nonzero.size == 1:
        k = int(nonzero[0])
        m = float(abs(c[k]))
        return m * m * phi_weighted_norm_sq(k, a)
    kmax = int(nonzero[-1])
    c = c[: kmax + 1]
    k = np.arange(kmax + 1)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(c)) - 0.5 * k * math.log((1.0 - a) / (1.0 + a))
    shift = round(float(log_abs.max()) / LOG2)  # scale by 2^-shift, exactly
    d = np.exp(log_abs - shift * LOG2) * np.exp(1j * np.angle(c))
    # Re(conj(d_j) d_k) = re_j re_k + im_j im_k, summed over j = k mod 4
    parts = [np.where(k % 4 == r, [d.real, d.imag], 0.0) for r in range(4)]
    sums = np.array([
        parts[kk % 4] @ col for kk, col in enumerate(scaled_gram_columns(kmax, a))
    ])
    terms = d.real * sums[:, 0] + d.imag * sums[:, 1]
    try:
        return math.ldexp(math.fsum(terms), 2 * shift)
    except OverflowError:
        return math.inf


#: Q_0..Q_{size-1} by the product recurrence.  Grown by replacement, never
#: written in place, so a caller holding the old table still reads correct
#: values.
_CENTRAL_BINOMIAL_TABLE = np.ones(1)


def _central_binomial_table(nmax: int) -> np.ndarray:
    global _CENTRAL_BINOMIAL_TABLE
    if nmax >= _CENTRAL_BINOMIAL_TABLE.size:
        k = np.arange(1.0, max(nmax + 1, 2 * _CENTRAL_BINOMIAL_TABLE.size))
        table = np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))
        table.flags.writeable = False
        _CENTRAL_BINOMIAL_TABLE = table
    return _CENTRAL_BINOMIAL_TABLE


def central_binomial(n):
    """Q_n = 2^{-2n} (2n)! / (n!)^2, the normalized central binomial weight
    (the Wallis ratio (2n-1)!!/(2n)!!, ~ (pi n)^{-1/2}; Q_0 = 1, Q_1 = 1/2,
    Q_2 = 3/8), for an integer n >= 0 or an array of them (ints or
    integer-valued floats); other n are refused with ``ValueError``.

    Read from a table of the recurrence Q_n = Q_{n-1} (2n-1)/(2n), one
    ``cumprod`` grown to the largest n asked for: within 1.8e-15 relative
    of exact for n <= 400, where differences of ``gammaln`` values lose
    up to 1.2e-12.
    """
    x = np.asarray(n)
    with np.errstate(invalid="ignore"):
        k = x.astype(np.intp)
    if k.min(initial=0) < 0 or (k != x).any():
        raise ValueError(f"n must be integers >= 0, got {n}")
    return _central_binomial_table(int(k.max(initial=0)))[k]


def log_central_binomial(n) -> np.ndarray:
    """log Q_n (see :func:`central_binomial`)."""
    return np.log(central_binomial(n))


def _norm_sums(nmax: int, mu: float) -> np.ndarray:
    """S_n = sum_j Q_{n-j} Q_j mu^j for n = 0..nmax, entries 0..nmax of the
    convolution of Q with Q mu^j.  For mu in (0, 1] every term lies in
    [0, 1] and Q_n <= S_n <= 1 (at mu = 1 the sum is identically 1), so
    nothing overflows or cancels."""
    q = central_binomial(np.arange(nmax + 1))
    return np.convolve(q, q * mu ** np.arange(nmax + 1))[: nmax + 1]


def _indices(n) -> np.ndarray:
    """n as an array, refused if any entry is negative."""
    idx = np.asarray(n)
    if np.any(idx < 0):
        raise ValueError(f"n must be >= 0, got {n}")
    return idx


def _scaled(log_values: np.ndarray, n) -> np.ndarray | float:
    """e^log_values, inf past the double range; a float for a scalar n."""
    with np.errstate(over="ignore"):
        values = np.exp(log_values)
    return float(values) if np.ndim(n) == 0 else values


def phi_weighted_norm_sq(n, a: float):
    """Closed form of ||phi_n||_a^2 for an int or an integer array n:

        (1-a)**-0.5 * mu**-n * S_n,   S_n = sum_j Q_{n-j} Q_j mu^j,

    with mu = (1-a)/(1+a) and Q the normalized central binomial weights.
    For an array, S_0..S_max(n) come from one convolution (:func:`_norm_sums`);
    for a single n, S_n alone is one O(n) sum.  Each lies in
    [Q_n, 1]; only the factor mu**-n grows, so it is applied last, in log
    scale, and gives inf past the double range.
    """
    idx = _indices(n)
    check_weight(a)
    mu = (1.0 - a) / (1.0 + a)
    if idx.ndim == 0:  # S_n alone: the one entry of full overlap, O(n)
        q = central_binomial(np.arange(int(idx) + 1))
        sums = np.convolve(q, q * mu ** np.arange(int(idx) + 1), "valid")[0]
    else:
        sums = _norm_sums(int(idx.max(initial=0)), mu)[idx]
    return _scaled(np.log(sums) - idx * math.log(mu) - 0.5 * math.log1p(-a), n)


def central_binomial_convolution(n):
    """sum_k Q_k Q_{n-k}, the mu -> 1 limit of the norm sum, for an int or an
    integer array n; identically 1 (the coefficients of (1-w)**-0.5 squared
    convolve to those of (1-w)**-1)."""
    idx = _indices(n)
    sums = _norm_sums(int(idx.max(initial=0)), 1.0)[idx]
    return float(sums) if np.ndim(n) == 0 else sums


def phi_weighted_norm_lower(n, a: float):
    """Single-term lower bound (1-a)**-0.5 * Q_n * mu^{-n} for an int or an
    integer array n (every term of S_n is nonnegative, so keeping j = 0
    alone is a lower bound)."""
    idx = _indices(n)
    check_weight(a)
    mu = (1.0 - a) / (1.0 + a)
    return _scaled(
        -0.5 * math.log1p(-a) + log_central_binomial(idx) - idx * math.log(mu), n
    )


def generating_function_check(a: float, w: float, nmax: int) -> tuple[float, float]:
    """(partial sum, closed form) of sum_k ||phi_k||_a^2 w^k for |w| < mu:

        closed form = (1-a)**-0.5 (1-w)**-0.5 (1-w/mu)**-0.5.

    The partial sum is (1-a)**-0.5 sum_k S_k (w/mu)^k, whose terms are
    bounded by |w/mu|^k < 1.
    """
    check_weight(a)
    mu = (1.0 - a) / (1.0 + a)
    if not abs(w) < mu:
        raise NumericalDomainError(
            f"|w| must be below the convergence radius mu={mu:.6f}, got w={w}"
        )
    ratio = (w / mu) ** np.arange(nmax + 1)
    lhs = (1.0 - a) ** -0.5 * float(np.sum(_norm_sums(nmax, mu) * ratio))
    rhs = ((1.0 - a) * (1.0 - w) * (1.0 - w / mu)) ** -0.5
    return lhs, float(rhs)


class CentralBinomialCertificate(NamedTuple):
    """Explicit constant B with Q_n >= B * n^{-beta/2} for every n >= 1.

    Construction: take delta, a hair below the positive root of
    log(1-x) + beta x, so log(1-x) >= -beta x on [0, delta]; pick m
    so 1/(2k) <= delta for k > m, set D = sum_{k<=m} log(1 - 1/(2k)); then
    log Q_n >= D - (beta/2) log(n/m) for n >= m, giving the proof constant
    b_proof = e^D m^{beta/2}.  The proof constant only covers n >= m, so the
    certified constant is b = min(b_proof, min_{n<=m} Q_n n^{beta/2}); the
    construction then covers every n, and ``n_checked`` direct checks are
    run on top (in log scale, slack 1e-12).
    """

    beta: float
    delta: float
    m: int
    log_offset: float
    b_proof: float
    b: float
    n_checked: int


def _certificate_delta(beta: float) -> float:
    """The largest double delta in [0, 1) with log(1-delta) + beta delta >= 0.

    The function is concave and vanishes at 0 with slope beta - 1 > 0, so
    the set where it is non-negative is [0, delta*], delta* its unique
    positive root; checking the endpoint certifies the whole interval.
    Bisection keeps lo admissible and hi not, until they are adjacent
    doubles."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if math.log1p(-mid) + beta * mid >= 0.0:
            lo = mid
        else:
            hi = mid


def central_binomial_certificate(beta: float) -> CentralBinomialCertificate:
    """Build and validate the polynomial lower bound on Q_n for beta > 1,
    directly checked for n <= 10_000.

    beta <= 1 is refused: Q_n ~ (pi n)^{-1/2}, so n^{-beta/2} with
    beta <= 1 eventually outruns Q_n and no constant exists.
    """
    if not beta > 1.0:
        raise NumericalDomainError(
            f"the bound Q_n >= B n^(-beta/2) requires beta > 1, got {beta}"
        )
    delta = _certificate_delta(beta)
    m = max(1, math.ceil(1.0 / (2.0 * delta) - 1.0))
    assert 1.0 / (2.0 * (m + 1)) <= delta
    ks = np.arange(1, m + 1, dtype=float)
    log_offset = float(np.sum(np.log1p(-1.0 / (2.0 * ks))))
    b_proof = math.exp(log_offset + 0.5 * beta * math.log(m))
    n_small = np.arange(1, m + 1, dtype=float)
    direct = np.exp(log_central_binomial(n_small) + 0.5 * beta * np.log(n_small))
    b = min(b_proof, float(direct.min()))
    n_check = 10_000
    n = np.arange(1, n_check + 1, dtype=float)
    lhs = log_central_binomial(n) + 0.5 * beta * np.log(n)
    if not np.all(lhs >= math.log(b) - 1e-12):
        raise RuntimeError("certificate validation failed (unreachable)")
    return CentralBinomialCertificate(
        beta=beta,
        delta=delta,
        m=m,
        log_offset=log_offset,
        b_proof=b_proof,
        b=b,
        n_checked=n_check,
    )


def log_confined_coeff_bound(k, a: float, big_c: float, alpha: float,
                             cert: CentralBinomialCertificate):
    """Natural log of the coefficient bound from a uniform-in-time weighted
    norm bound C:

        |<psi_0, phi_k>| <= (C / sqrt(B_{2 alpha})) (1-a)^{1/4} k^{alpha/2} mu^{k/2},

    for one index k >= 1 (a float) or an integer array of them (an array).
    This is the constant the derivation actually produces; the commonly
    quoted form omits the (1-a)^{1/4} factor and is larger by
    (1-a)^{-1/4}.  Requires a certificate built at beta = 2*alpha."""
    k = np.asarray(k)
    if k.min(initial=1) < 1:
        raise ValueError(f"the bound is stated for k >= 1, got {k.min()}")
    check_weight(a)
    if alpha <= 0.5:
        raise NumericalDomainError(f"alpha must exceed 1/2, got {alpha}")
    if abs(cert.beta - 2.0 * alpha) > 1e-12:
        raise ValueError(
            f"certificate built for beta={cert.beta}, need beta = 2*alpha = {2 * alpha}"
        )
    mu = (1.0 - a) / (1.0 + a)
    log_bound = (
        math.log(big_c)
        - 0.5 * math.log(cert.b)
        + 0.5 * alpha * np.log(k)
        + 0.5 * k * math.log(mu)
        + 0.25 * math.log1p(-a)
    )
    return float(log_bound) if np.ndim(k) == 0 else log_bound


def selfdual_norm_bound(b: float) -> float:
    """2**-0.25 (1-b)**-0.25: an upper bound for ||f||_b when |f| and |fhat|
    are both dominated by exp(-x^2/2) with constant 1; the pure Gaussian
    attains it with equality."""
    if not 0.0 < b < 1.0:
        raise NumericalDomainError(f"b must be in (0,1), got {b}")
    return 2.0 ** -0.25 * (1.0 - b) ** -0.25


class WeakConfinementParams(namedtuple("WeakConfinementParams", "n_factor k_const beta a b")):
    """Hypothetical uniform bound ||psi_t||_{tanh beta} <= K ||psi_0||_{tanh(N beta)}.

    N and K are caller-supplied; a = tanh(beta) and b = tanh(N beta) are the
    derived envelope parameters (0 < a < b < 1).
    """

    __slots__ = ()

    def __new__(cls, n_factor: float, k_const: float, beta: float):
        if not n_factor > 1.0:
            raise ValueError(f"N must exceed 1, got {n_factor}")
        if not k_const > 0:
            raise ValueError(f"K must be positive, got {k_const}")
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return super().__new__(cls, n_factor, k_const, beta, math.tanh(beta),
                               math.tanh(n_factor * beta))

    def __getnewargs__(self):  # a copy or an unpickled one is built from N, K, beta
        return self[:3]


def weak_confinement_chain(
    p: WeakConfinementParams, k: int, cert: CentralBinomialCertificate
) -> float:
    """The end of the chain: (K k / A) e^{beta ((N-1)/2 - k)}.

    Assembled from the self-dual norm bound at b = tanh(N beta), the
    hypothetical uniform bound K, and the coefficient bound at a = tanh(beta)
    instantiated with k^{alpha/2} = k (alpha = 2, so the certificate must
    carry beta = 4).  As beta grows the bound tends to 0 exactly when
    k > (N-1)/2: only finitely many Hermite coefficients survive.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if abs(cert.beta - 4.0) > 1e-12:
        raise ValueError(
            f"the chain instantiates alpha = 2, so the certificate needs beta = 4, "
            f"got {cert.beta}"
        )
    a_const = math.sqrt(cert.b)
    return (
        p.k_const * k / a_const
        * math.exp(p.beta * (0.5 * (p.n_factor - 1.0) - k))
    )


def weak_confinement_chain_exact(
    p: WeakConfinementParams, k: int, cert: CentralBinomialCertificate
) -> float:
    """The same chain before the final exponential simplification:

        (K (1-b)^{-1/4} / A) (1-a)^{1/4} k mu^{k/2},   mu = (1-a)/(1+a).

    Always below :func:`weak_confinement_chain` (the simplification uses
    (1-a)/(1-b) <= e^{2 (N-1) beta}).  Evaluated in log scale: for large
    N*beta, 1 - tanh(N*beta) underflows, but log(1 - tanh x) =
    log 2 - 2x - log1p(e^{-2x}) stays finite."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if abs(cert.beta - 4.0) > 1e-12:
        raise ValueError("certificate needs beta = 4; see weak_confinement_chain")

    def log_one_minus_tanh(x: float) -> float:
        return LOG2 - 2.0 * x - math.log1p(math.exp(-2.0 * x))

    log_a1 = log_one_minus_tanh(p.beta)
    log_b1 = log_one_minus_tanh(p.n_factor * p.beta)
    # mu = (1 - tanh beta)/(1 + tanh beta) = e^{-2 beta} exactly
    return math.exp(
        math.log(p.k_const)
        + math.log(k)
        - 0.5 * math.log(cert.b)
        + 0.25 * (log_a1 - log_b1)
        - p.beta * k
    )
