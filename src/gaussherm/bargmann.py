"""The Bargmann transform as a numerical object, and the growth estimates
it satisfies on Hardy-class members.

U maps L^2(dm) isometrically onto the Fock space of entire functions with

    Uf(w) = e^{-w^2/4} / (2**0.25 * pi**0.5) * integral e^{xw} e^{-x^2/2} f(x) dx,

sending phi_k to w^k / sqrt(2^k k!), so Hermite coefficients become Taylor
coefficients.  For a member of the envelope class with parameter a the two
one-sided hypotheses bound |Uf| by Gaussians of |w| whose exponents depend
on arg w; a Phragmen-Lindelof argument applied to exp(i sqrt(mu) w^2/4) Uf
interpolates them inside the sector [theta0, theta1], and Cauchy's formula
on circles or on an optimized non-circular contour turns the resulting
growth bound into coefficient decay.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decay import check_weight
from .errors import EdgeDecayError, NumericalDomainError
from .grid import GridSpec, SampledFunction, trapezoid_weights
from .hermite import EDGE_DECAY_REL, HermiteExpansion, fourier_rows
from .special import gammaln

LOG2 = math.log(2.0)
_BARGMANN_PREF = 1.0 / (2.0 ** 0.25 * math.pi ** 0.5)


def bargmann_rows(values, grid: GridSpec, w) -> np.ndarray:
    """Quadrature evaluation of Uf at the points w for each row of samples
    on ``grid``; shape (F, W) for F rows and W points.

    The kernel e^{xw - x^2/2}, with the trapezoid weights folded in, is
    built once per call as a (W, N) array, and the integrals are one
    product with it.  Raises :class:`EdgeDecayError` naming the row when the
    integrand e^{xw - x^2/2} f(x) of some row has not decayed at the grid
    edges for some requested w (large |Re w| pushes the Gaussian factor's
    peak toward the boundary).  The guard runs one row at a time, so no
    (F, W, N) array is formed.
    """
    rows = np.atleast_2d(values)
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    xs = grid.xs
    kernel = np.exp(np.outer(w_arr, xs) - 0.5 * xs * xs)
    mag = np.abs(kernel)
    for i, row in enumerate(rows):
        mags = mag * np.abs(row)
        peak = mags.max(axis=1)
        edge = np.maximum(mags[:, :2].max(axis=1), mags[:, -2:].max(axis=1))
        bad = (peak > 0) & (edge > EDGE_DECAY_REL * peak)
        if bad.any():
            raise EdgeDecayError(
                f"Bargmann integrand of input row {i} not decayed at grid edges for "
                f"w={w_arr[bad][:3]}; reduce |Re w| or widen the grid"
            )
    kernel *= trapezoid_weights(grid.num_points, grid.spacing)
    return _BARGMANN_PREF * np.exp(-0.25 * w_arr * w_arr) * (rows @ kernel.T)


def bargmann_numeric(f: SampledFunction, w):
    """Uf at one complex point (a complex) or many (an array): row 0 of
    :func:`bargmann_rows` for the single row f."""
    out = bargmann_rows(f.values, f.grid, w)[0]
    return complex(out[0]) if np.ndim(w) == 0 else out


def reflection_rows(values, grid: GridSpec, w_list) -> np.ndarray:
    """max over the points w of |U(fhat)(w) - Uf(-i w)| for each row of
    samples on ``grid``, shape (F,).

    The reflection identity U(fhat)(w) = Uf(-iw) holds exactly for the
    transform pair; the returned deviation is pure quadrature noise.
    """
    w_arr = np.asarray(w_list, dtype=complex)
    lhs = bargmann_rows(fourier_rows(values, grid), grid, w_arr)
    rhs = bargmann_rows(values, grid, -1j * w_arr)
    return np.max(np.abs(lhs - rhs), axis=1)


def reflection_check(f: SampledFunction, w_list) -> float:
    """:func:`reflection_rows` for the single row f."""
    return float(reflection_rows(f.values, f.grid, w_list)[0])


def log_taylor_coeffs(e: HermiteExpansion) -> np.ndarray:
    """log|c_n| of the Taylor coefficients c_n = <f, phi_n> / sqrt(2^n n!)
    of Uf, from the Hermite coefficients of f; -inf marks an exactly
    vanishing coefficient.  Kept in log scale because the sqrt(2^n n!)
    division underflows double precision long before desk-scale n runs out."""
    n = np.arange(len(e))
    mags = np.abs(e.coeffs)
    with np.errstate(divide="ignore"):
        return np.where(mags > 0, np.log(mags) - 0.5 * (n * LOG2 + gammaln(n + 1)), -np.inf)


@dataclass(frozen=True)
class SectorParams:
    """Geometry of the Phragmen-Lindelof sector for envelope parameter a.

    mu = (1-a)/(1+a); theta0 = arctan(sqrt(mu)) (equivalently half the
    arctangent of 2 sqrt(mu)/(1-mu)) and theta1 = pi/2 - theta0, so the
    sector opening theta1 - theta0 stays below pi/2 and the principle
    applies to the order-2 auxiliary function.  Built from a and C; mu and
    the angles are derived.
    """

    a: float
    big_c: float = 1.0
    mu: float = field(init=False)
    theta0: float = field(init=False)
    theta1: float = field(init=False)

    def __post_init__(self):
        check_weight(self.a)
        if not self.big_c > 0:
            raise ValueError(f"C must be positive, got {self.big_c}")
        mu = (1.0 - self.a) / (1.0 + self.a)
        theta0 = _theta0(mu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "theta1", 0.5 * math.pi - theta0)


def _theta0(mu: float) -> float:
    return 0.5 * math.atan2(2.0 * math.sqrt(mu), 1.0 - mu)


def sector_params(a: float, big_c: float = 1.0) -> SectorParams:
    """Build the sector geometry for envelope parameter a in (0,1)."""
    return SectorParams(a, big_c)


def _ray_prefactor(s: SectorParams) -> float:
    return s.big_c * math.sqrt(2.0 * math.pi / (1.0 + s.a))


def quadrant_bound(s: SectorParams, w: complex) -> float:
    """Everywhere-valid growth bound C sqrt(2 pi/(1+a)) exp(sqrt(mu) |w|^2 / 4)."""
    return _ray_prefactor(s) * math.exp(math.sqrt(s.mu) * abs(complex(w)) ** 2 / 4.0)


def _fold_angle(w: complex) -> float:
    """Reduce arg w to [0, pi/2] using the eightfold symmetry of the bounds."""
    th = cmath.phase(complex(w)) % math.pi
    return math.pi - th if th > 0.5 * math.pi else th


def sector_bound(s: SectorParams, w: complex) -> float:
    """Interpolated bound C sqrt(2 pi/(1+a)) exp(sqrt(mu) sin(2 theta) r^2/4),
    valid once arg w (folded into [0, pi/2]) lies in [theta0, theta1]."""
    th = _fold_angle(w)
    if not s.theta0 <= th <= s.theta1:
        raise NumericalDomainError(
            f"arg w folds to {th:.6f}, outside the sector "
            f"[{s.theta0:.6f}, {s.theta1:.6f}]; use quadrant_bound there"
        )
    r2 = abs(complex(w)) ** 2
    return _ray_prefactor(s) * math.exp(math.sqrt(s.mu) * math.sin(2.0 * th) * r2 / 4.0)


def log_cauchy_coeff_bound(s: SectorParams, n: int) -> float:
    """Natural log of :func:`cauchy_coeff_bound`."""
    if n < 1:
        raise NumericalDomainError(f"the optimized Cauchy bound needs n >= 1, got {n}")
    return (
        math.log(_ray_prefactor(s))
        + 0.5 * n * (1.0 + 0.5 * math.log(s.mu) - math.log(2.0 * n))
    )


def cauchy_coeff_bound(s: SectorParams, n: int) -> float:
    """Cauchy estimate on circles, optimized over the radius:

        |c_n| <= C sqrt(2 pi/(1+a)) (e sqrt(mu) / (2n))**(n/2).
    """
    return math.exp(log_cauchy_coeff_bound(s, n))


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


@dataclass(frozen=True)
class ContourBound:
    """Coefficient bound from the Cauchy formula on the optimized contour
    gamma_n(t) = r_n(t) e^{it}.

    On [0, theta0) the radius equalizes the time-side hypothesis bound and
    on [theta0, pi/4] the sector bound, both at exponent (n+1)/2; the radius
    extends to all angles by reflection about pi/4 and (pi/2)-periodicity,
    winding once around the origin.  I and J are the two angular integrals
    (the first branch integrand includes the exact arclength factor
    sqrt(mu^2 + (1-mu^2) sin^2 t)); the bound is

        (4/pi) sqrt(2 pi/(1+a)) e^{(n+1)/2} (2n+2)^{-n/2} (I + J),

    everything also exposed in log scale because both I and the bound
    underflow long before large-n studies finish.
    """

    n: int
    mu: float
    theta0: float
    radius: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    log_i: float
    log_j: float
    log_bound: float

    @property
    def i_value(self) -> float:
        return math.exp(self.log_i)

    @property
    def j_value(self) -> float:
        return math.exp(self.log_j)

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound)


def optimal_contour(n: int, mu: float) -> ContourBound:
    """Construct the optimized contour and its coefficient bound (C = 1)."""
    if n < 2:
        raise NumericalDomainError(f"the contour bound needs n >= 2, got {n}")
    if not 0.0 < mu < 1.0:
        raise NumericalDomainError(f"mu must be in (0,1), got {mu}")
    a = (1.0 - mu) / (1.0 + mu)
    theta0 = _theta0(mu)
    sqrt_mu = math.sqrt(mu)

    def radius(t):
        s = np.mod(t, 0.5 * math.pi)
        s = np.where(s > 0.25 * math.pi, 0.5 * math.pi - s, s)
        denom = np.where(s < theta0, mu + (1.0 - mu) * np.sin(s) ** 2, sqrt_mu * np.sin(2.0 * s))
        return np.sqrt((2.0 * n + 2.0) / denom)

    nodes, weights = _graded_rule()
    half = 0.5 * (n - 2.0)
    # First branch: peel off u(theta0) = 2 mu/(1+mu), so the integrand stays in [0, sqrt(mu)].
    u0 = 2.0 * mu / (1.0 + mu)
    sin2 = np.sin(theta0 * nodes) ** 2
    f_i = ((mu + (1.0 - mu) * sin2) / u0) ** half * np.sqrt(mu * mu + (1.0 - mu * mu) * sin2)
    log_i = half * math.log(u0) + math.log(theta0 * (weights * f_i).sum())
    # Second branch in d = pi/4 - t on [0, pi/4 - theta0]: nothing cancels near pi/4 or mu = 1.
    d_len = 0.5 * math.atan2(1.0 - mu, 2.0 * sqrt_mu)
    f_j = np.cos(2.0 * d_len * nodes) ** half
    log_j = 0.25 * n * math.log(mu) + math.log(d_len * (weights * f_j).sum())

    log_bound = (
        math.log(4.0 / math.pi)
        + 0.5 * (math.log(2.0 * math.pi) - math.log1p(a))
        + 0.5 * (n + 1.0)
        - 0.5 * n * math.log(2.0 * n + 2.0)
        + np.logaddexp(log_i, log_j)
    )
    return ContourBound(
        n=n, mu=mu, theta0=theta0, radius=radius,
        log_i=float(log_i), log_j=float(log_j), log_bound=float(log_bound),
    )


def log_contour_coeff_bound(n: int, a: float, big_c: float = 1.0) -> float:
    """Natural log of :func:`contour_coeff_bound`."""
    check_weight(a)
    mu = (1.0 - a) / (1.0 + a)
    return math.log(big_c) + optimal_contour(n, mu).log_bound


def contour_coeff_bound(n: int, a: float, big_c: float = 1.0) -> float:
    """Contour-based bound on |c_n| for a member with constant C; tighter
    than the circle estimate by a factor ~ n^{-1/2} mu^{n/4} / mu^{n/2}...
    exposed alongside :func:`cauchy_coeff_bound` for comparison."""
    return math.exp(log_contour_coeff_bound(n, a, big_c))


def log_contour_i_closed_bound(n: int, mu: float) -> float:
    """Closed-form majorant of the first-branch integral:
    theta0 (1+mu)/(2 sqrt(mu)) * (2 mu/(1+mu))**(n/2)."""
    return (
        math.log(_theta0(mu) * (1.0 + mu) / (2.0 * math.sqrt(mu)))
        + 0.5 * n * math.log(2.0 * mu / (1.0 + mu))
    )


def log_contour_j_gamma_bound(n: int, mu: float) -> float:
    """Exact closed form of the second branch extended to [0, pi/4]:
    (sqrt(pi)/4) Gamma(n/4)/Gamma((n+2)/4) mu**(n/4); an upper bound for J."""
    return (
        0.5 * math.log(math.pi)
        - math.log(4.0)
        + gammaln(n / 4.0)
        - gammaln((n + 2.0) / 4.0)
        + 0.25 * n * math.log(mu)
    )
