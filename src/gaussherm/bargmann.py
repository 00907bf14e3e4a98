"""The Bargmann transform as a numerical object, and the growth estimates
it satisfies on Hardy-class members.

U maps L^2(dm) isometrically onto the Fock space of entire functions with

    Uf(w) = e^{-w^2/4} / (2**0.25 * pi**0.5) * integral e^{xw} e^{-x^2/2} f(x) dx,

sending phi_k to w^k / sqrt(2^k k!), so Hermite coefficients become Taylor
coefficients.  :func:`bargmann_exact` evaluates Uf from the input's own form
(a Gaussian's closed form or an expansion's Taylor polynomial); the grid
quadrature :func:`bargmann_row_sets` is kept as an independent check, and
:func:`reflection_row_sets` checks U(fhat)(w) = Uf(-iw) with the adjoint of
the sampled Fourier transform: one chirp-z of each quadrature kernel of w
(:func:`hermite.fourier_rows`), its error relative to that kernel's peak.
For a member of the envelope class with parameter a the two one-sided
hypotheses bound |Uf| by Gaussians of |w| whose exponents depend on arg w;
a Phragmen-Lindelof argument applied to exp(i sqrt(mu) w^2/4) Uf
interpolates them inside the sector [theta0, theta1], and Cauchy's formula
on an optimized non-circular contour turns the resulting growth bound into
coefficient decay.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .decay import check_weight
from .errors import EdgeDecayError, NumericalDomainError
from .gaussians import GeneralizedGaussian, bargmann_gaussian
from .grid import GridSpec, trapezoid_weights
from .hermite import EDGE_DECAY_REL, HermiteExpansion, check_decayed, fourier_rows, phase_ramp
from .special import gammaln

LOG2 = math.log(2.0)
_BARGMANN_PREF = 1.0 / (2.0 ** 0.25 * math.pi ** 0.5)


def bargmann_row_sets(row_sets, grid: GridSpec, w) -> list[np.ndarray]:
    """Quadrature evaluation of Uf at the points w for each row of each set
    of samples on ``grid``: one (F, W) array per set of F rows, for W points.

    The kernel (:func:`_kernel`) is built once per call and shared by the
    sets, each set's integrals one product with it (:func:`_integrals`).
    :class:`EdgeDecayError` names the row of the first set whose integrand
    e^{xw - x^2/2} f(x) has not decayed at the grid edges for some w.
    """
    sets = [np.atleast_2d(values) for values in row_sets]
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    return _integrals(sets, _kernel(grid, w_arr, sets), w_arr)


def _kernel(grid: GridSpec, w_arr: np.ndarray, guarded=()) -> np.ndarray:
    """The kernel e^{xw - x^2/2} on ``grid``, trapezoid weights folded in,
    shape (W, N), after the edge guard of each set of rows in ``guarded``:
    its modulus e^{x Re w - x^2/2} takes one real exponential, which the
    guard reuses, and its phase e^{ix Im w} a :func:`hermite.phase_ramp`."""
    xs = grid.xs
    mag = np.exp(np.outer(w_arr.real, xs) - 0.5 * xs * xs)
    _check_edge_decay(guarded, mag, w_arr)
    mag *= trapezoid_weights(grid.num_points, grid.spacing)
    # e^{i x_j Im w} = e^{i x_0 Im w} e^{i h Im w j}
    kernel = phase_ramp(grid.spacing * w_arr.imag, grid.num_points)
    kernel *= mag
    kernel *= np.exp(1j * xs[0] * w_arr.imag)[:, None]
    return kernel


def _integrals(sets: list, kernel: np.ndarray, w_arr: np.ndarray) -> list[np.ndarray]:
    """The prefactor e^{-w^2/4} / (2^{1/4} sqrt(pi)) times each set's product
    with ``kernel``, two real products for a set of real rows."""
    pref = _BARGMANN_PREF * np.exp(-0.25 * w_arr * w_arr)
    return [pref * (rows @ kernel.T if np.iscomplexobj(rows)
                    else rows @ kernel.real.T + 1j * (rows @ kernel.imag.T))
            for rows in sets]


def _check_edge_decay(sets: list, mag: np.ndarray, w_arr: np.ndarray) -> None:
    """The edge guard of the integrands, each set's rows times ``mag`` (W, N)
    at each w.  A peak is bounded below by its value at the row's largest
    |sample|; only the (row, w) pairs whose edges that does not clear are
    scanned in full."""
    for rows in sets:
        moduli = np.abs(rows)
        edges = [0, 1, -2, -1]
        edge = (moduli[:, None, edges] * mag[:, edges]).max(axis=2)
        top = moduli.argmax(axis=1)
        peak = mag[:, top].T * moduli[np.arange(len(rows)), top][:, None]  # <= the peak
        unclear = edge > EDGE_DECAY_REL * peak
        for i in np.flatnonzero(unclear.any(axis=1)):
            peak[i, unclear[i]] = (mag[unclear[i]] * moduli[i]).max(axis=1)
        bad = (peak > 0) & (edge > EDGE_DECAY_REL * peak)
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise EdgeDecayError(f"Bargmann integrand of input row {i} not decayed at grid edges "
                                 f"for w={w_arr[bad[i]][:3]}; reduce |Re w| or widen the grid")


def reflection_row_sets(row_sets, grid: GridSpec, w_list) -> list[np.ndarray]:
    """max over the points w of |U(fhat)(w) - Uf(-i w)| for each row of each
    set of samples on ``grid``: one (F,) array per set of F rows.

    The reflection identity U(fhat)(w) = Uf(-iw) holds exactly for the
    transform pair; the returned deviation is pure quadrature noise.  The
    sampled fhat = F f (:func:`hermite.fourier_rows`) has a symmetric matrix,
    F_mj = h/sqrt(2 pi) e^{-i x_m x_j}, so U(fhat)(w)'s quadrature K_w.(F f)
    is (F K_w).f: one transform of the W kernels serves every row.  The rows
    (:func:`hermite.check_decayed`, the transform's own refusal), the kernels
    (refused by that check too, which then names the index of w) and the
    integrands f (F K_w) must decay; Uf(-iw) is :func:`bargmann_row_sets`.
    """
    sets = [np.atleast_2d(values) for values in row_sets]
    w_arr = np.atleast_1d(np.asarray(w_list, dtype=complex))
    for rows in sets:
        check_decayed(rows)
    transformed = fourier_rows(_kernel(grid, w_arr), grid)
    _check_edge_decay(sets, np.abs(transformed), w_arr)
    lhs = _integrals(sets, transformed, w_arr)
    rhs = bargmann_row_sets(sets, grid, -1j * w_arr)
    return [np.max(np.abs(u - v), axis=1) for u, v in zip(lhs, rhs)]


def log_fock_norm(n):
    """log sqrt(2^n n!), the log of the Fock-space norm of w^n."""
    return 0.5 * (n * LOG2 + gammaln(n + 1))


def log_taylor_coeffs(e: HermiteExpansion) -> np.ndarray:
    """log|c_n| of the Taylor coefficients c_n = <f, phi_n> / sqrt(2^n n!)
    of Uf, from the Hermite coefficients of f; -inf marks an exactly
    vanishing coefficient.  Kept in log scale because the sqrt(2^n n!)
    division underflows double precision long before desk-scale n runs out."""
    n = np.arange(len(e))
    mags = np.abs(e.coeffs)
    with np.errstate(divide="ignore"):
        return np.where(mags > 0, np.log(mags) - log_fock_norm(n), -np.inf)


#: A Taylor-polynomial value of Uf is refused once cond * K * eps exceeds this.
TAYLOR_COND_TOL = 1e-10


def bargmann_exact(state: GeneralizedGaussian | HermiteExpansion, w) -> np.ndarray:
    """Uf at the points w from the input's own form, no grid involved.

    A Gaussian uses its closed form P e^{lam w^2} (:func:`gaussians.bargmann_gaussian`).
    An expansion sum_k <f, phi_k> phi_k uses the polynomial sum_k t_k(w) with
    t_k = <f, phi_k> w^k / sqrt(2^k k!), each term's modulus taken in log
    scale and scaled by the point's largest term, so no term over- or
    underflows on its own.  Its rounding error is at most about
    cond * K * eps relative, with cond = sum|t_k| / |sum t_k| and K the
    number of terms; a point where that exceeds :data:`TAYLOR_COND_TOL` is
    refused with :class:`NumericalDomainError` naming w, and so is a value
    past the double range on either route.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(state, GeneralizedGaussian):
            values = bargmann_gaussian(state)(w_arr)
        else:
            values = _taylor_polynomial(state, w_arr)
    bad = ~np.isfinite(values)
    if bad.any():
        raise NumericalDomainError(
            f"Uf at w={complex(w_arr[bad][0])} is past the double range"
        )
    return values


def _taylor_polynomial(e: HermiteExpansion, w: np.ndarray) -> np.ndarray:
    """sum_k t_k(w) of :func:`bargmann_exact`, refusing ill-conditioned points.

    Each point factors out e^{g_j}, the basis part |w^j| / sqrt(2^j j!) of
    its largest term t_j, so every scaled term c_k e^{g_k - g_j} e^{ik arg w}
    stays below |c_j| in modulus, and at w = 0 the sum is c_0 exactly."""
    c = e.coeffs
    k = np.arange(c.size)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(w))[:, None]
        log_c = np.log(np.abs(c))
    # g_k = log|w^k| - log sqrt(2^k k!), with k log|w| = 0 at k = 0 also where
    # w = 0; -inf where c_k = 0, so a vanishing term joins neither the peak nor the sum
    g = np.where(c != 0, np.where(k == 0, 0.0, k * log_w) - log_fock_norm(k), -np.inf)
    g_peak = np.take_along_axis(g, np.argmax(log_c + g, axis=1)[:, None], axis=1)
    g_peak = np.where(np.isfinite(g_peak), g_peak, 0.0)  # every term vanishes: Uf = 0
    terms = c * np.exp(g - g_peak + 1j * k * np.angle(w)[:, None])
    total = terms.sum(axis=1)
    abs_sum = np.abs(terms).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(abs_sum > 0, abs_sum / np.abs(total), 1.0)
    bad = cond * c.size * np.finfo(float).eps > TAYLOR_COND_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalDomainError(
            f"the Taylor sum of Uf at w={complex(w[i])} cancels (cond {cond[i]:.3g} "
            f"with {c.size} terms, past the {TAYLOR_COND_TOL:g} rounding tolerance)"
        )
    return np.exp(g_peak[:, 0]) * total


class SectorParams(namedtuple("SectorParams", "a big_c mu theta0 theta1")):
    """Geometry of the Phragmen-Lindelof sector for envelope parameter a.

    mu = (1-a)/(1+a); theta0 = arctan(sqrt(mu)) (equivalently half the
    arctangent of 2 sqrt(mu)/(1-mu)) and theta1 = pi/2 - theta0, so the
    sector opening theta1 - theta0 stays below pi/2 and the principle
    applies to the order-2 auxiliary function.  Built from a and C; mu and
    the angles are derived.
    """

    __slots__ = ()

    def __new__(cls, a: float, big_c: float = 1.0):
        check_weight(a)
        if not big_c > 0:
            raise ValueError(f"C must be positive, got {big_c}")
        mu = (1.0 - a) / (1.0 + a)
        theta0 = _theta0(mu)
        return super().__new__(cls, a, big_c, mu, theta0, 0.5 * math.pi - theta0)

    def __getnewargs__(self):  # a copy or an unpickled one is built from a and C
        return self[:2]


def _theta0(mu: float) -> float:
    return 0.5 * math.atan2(2.0 * math.sqrt(mu), 1.0 - mu)


def _ray_prefactor(s: SectorParams) -> float:
    return s.big_c * math.sqrt(2.0 * math.pi / (1.0 + s.a))


def quadrant_bound(s: SectorParams, w):
    """Everywhere-valid growth bound C sqrt(2 pi/(1+a)) exp(sqrt(mu) |w|^2 / 4)
    at one complex point w (a float) or an array of them (an array); inf
    past the double range."""
    w_arr = np.asarray(w, dtype=complex)
    r2 = np.hypot(w_arr.real, w_arr.imag) ** 2
    with np.errstate(over="ignore"):
        bound = _ray_prefactor(s) * np.exp(math.sqrt(s.mu) * r2 / 4.0)
    return float(bound) if np.ndim(w) == 0 else bound


def sector_bound(s: SectorParams, w):
    """Interpolated bound C sqrt(2 pi/(1+a)) exp(sqrt(mu) sin(2 theta) r^2/4),
    w and the result as in :func:`quadrant_bound`.  Valid once arg w, folded
    into [0, pi/2] by the eightfold symmetry of the bounds, lies in
    [theta0, theta1]; nan where it does not (:func:`quadrant_bound` holds
    there).  With tan theta0 = sqrt(mu), that is
    min(|Re w|, |Im w|) >= sqrt(mu) max(|Re w|, |Im w|), decided from the
    two moduli alone (w = 0 is outside), so w, its conjugate, -w and iw get
    one verdict; a point within 1e-12 relative of an edge counts as inside.
    The exponent is taken as sqrt(mu) |Re w Im w| / 2, which
    sin(2 theta) r^2 / 4 equals, so no angle's rounding enters it."""
    w_arr = np.asarray(w, dtype=complex)
    re, im = np.abs(w_arr.real), np.abs(w_arr.imag)
    sqrt_mu = math.sqrt(s.mu)
    with np.errstate(over="ignore"):
        bound = _ray_prefactor(s) * np.exp(sqrt_mu * np.abs(w_arr.real * w_arr.imag) / 2.0)
    far = np.maximum(re, im)
    inside = (np.minimum(re, im) >= sqrt_mu * (1.0 - 1e-12) * far) & (far > 0)
    bound = np.where(inside, bound, math.nan)
    return float(bound) if np.ndim(w) == 0 else bound


#: Contour rule: Gauss-Legendre nodes per sub-interval, halvings toward each end.
_GL_NODES, _GRADING_DEPTH = 20, 16


@functools.cache
def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for both contour integrals, built on first use:
    Gauss-Legendre on sub-intervals halving toward both ends, to resolve I's peak
    at theta0 (relative width ~1/n), J's peak at pi/4 (~1/sqrt(n)) and the
    arclength's near-kink at t ~ mu.  Depth 10 already matches mpmath to n = 1e5."""
    x = np.cos(math.pi * (np.arange(_GL_NODES) + 0.75) / (_GL_NODES + 0.5))
    for _ in range(5):  # Newton on P_m, m = _GL_NODES, by its three-term recurrence
        p0, p1 = 1.0, x
        for k in range(2, _GL_NODES + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = _GL_NODES * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    inner = 0.5 ** np.arange(_GRADING_DEPTH, 1, -1)
    edges = np.concatenate(([0.0], inner, [0.5], 1.0 - inner[::-1], [1.0]))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (1.0 + x)).ravel()
    weights = (half * 2.0 / ((1.0 - x * x) * dp * dp)).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


#: Indices per block of :func:`_power_sums`: a (256, 640) array is 1.3 MB.
_CONTOUR_BLOCK = 256


def _power_sums(exponents: np.ndarray, log_base: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j base_j**e for each e in exponents, a block of rows at a
    time, so a long table never forms one (len(exponents), nodes) array.
    Each row is summed on its own (not by a matrix product, whose rounding
    depends on how many rows it holds), so an index's value does not depend
    on the others asked for with it."""
    starts = range(0, max(exponents.size, 1), _CONTOUR_BLOCK)  # no exponents: one empty block
    return np.concatenate([
        (np.exp(exponents[i:i + _CONTOUR_BLOCK, None] * log_base) * weights).sum(axis=1)
        for i in starts
    ])


def _contour_logs(n: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log I, log J and the log coefficient bound (C = 1) of the optimized
    contour for each index in the array n, as arrays of its shape.

    The bound comes from Cauchy's formula on gamma_n(t) = r_n(t) e^{it}.  On
    [0, theta0) the radius equalizes the time-side hypothesis bound and on
    [theta0, pi/4] the sector bound, both at exponent (n+1)/2; it extends to
    all angles by reflection about pi/4 and (pi/2)-periodicity, winding once
    around the origin.  I and J are the two angular integrals (the first
    branch integrand includes the exact arclength factor
    sqrt(mu^2 + (1-mu^2) sin^2 t)); the bound is

        (4/pi) sqrt(2 pi/(1+a)) e^{(n+1)/2} (2n+2)^{-n/2} (I + J),

    all three in log scale because both I and the bound underflow long
    before large-n studies finish.  Both integrals run over the shared
    :func:`_graded_rule` nodes as (indices, nodes) arrays, each base raised
    to its exponent as exp(half * log(base)), so a table of indices is one
    pass, not a loop."""
    if n.min(initial=2) < 2:
        raise NumericalDomainError(f"the contour bound needs n >= 2, got {n.min()}")
    if not 0.0 < mu < 1.0:
        raise NumericalDomainError(f"mu must be in (0,1), got {mu}")
    n = n.astype(float)
    a = (1.0 - mu) / (1.0 + mu)
    theta0 = _theta0(mu)
    nodes, weights = _graded_rule()
    half = 0.5 * (n - 2.0)
    # First branch: peel off u(theta0) = 2 mu/(1+mu), so the integrand stays in [0, sqrt(mu)].
    u0 = 2.0 * mu / (1.0 + mu)
    sin2 = np.sin(theta0 * nodes) ** 2
    arc = np.sqrt(mu * mu + (1.0 - mu * mu) * sin2)
    f_i = _power_sums(half, np.log((mu + (1.0 - mu) * sin2) / u0), weights * arc)
    log_i = half * math.log(u0) + np.log(theta0 * f_i)
    # Second branch in d = pi/4 - t on [0, pi/4 - theta0]: nothing cancels near pi/4 or mu = 1.
    d_len = 0.5 * math.atan2(1.0 - mu, 2.0 * math.sqrt(mu))
    f_j = _power_sums(half, np.log(np.cos(2.0 * d_len * nodes)), weights)
    log_j = 0.25 * n * math.log(mu) + np.log(d_len * f_j)
    log_bound = (
        math.log(4.0 / math.pi)
        + 0.5 * (math.log(2.0 * math.pi) - math.log1p(a))
        + 0.5 * (n + 1.0)
        - 0.5 * n * np.log(2.0 * n + 2.0)
        + np.logaddexp(log_i, log_j)
    )
    return log_i, log_j, log_bound


def optimal_contour(n: int, mu: float) -> tuple[float, float, float]:
    """log I, log J and the log coefficient bound (C = 1) of the optimized
    contour at one index n >= 2 (:func:`_contour_logs`)."""
    return tuple(float(v[0]) for v in _contour_logs(np.array([n]), mu))


def log_contour_coeff_bound(n, a: float, big_c: float = 1.0):
    """Natural log of the contour-based bound on the Taylor coefficient |c_n|
    of a member with constant C (:func:`_contour_logs`' bound scaled by C),
    for one index n >= 2 (a float, :func:`optimal_contour`'s) or an array of
    them (an array, from one pass over the contour rule)."""
    check_weight(a)
    mu = (1.0 - a) / (1.0 + a)
    if np.ndim(n) == 0:
        return math.log(big_c) + optimal_contour(n, mu)[2]
    return math.log(big_c) + _contour_logs(np.atleast_1d(n), mu)[2]
