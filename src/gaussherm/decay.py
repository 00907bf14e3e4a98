"""Decay of Hermite coefficients for Gaussian-envelope classes.

A function f lies in the Hardy class with parameter a if |f(x)| and its
Fourier transform are both dominated by a multiple of exp(-a x^2 / 2).
Membership is equivalent to geometric decay of the Hermite coefficients,
with rate governed by mu = (1-a)/(1+a); this module houses the explicit
coefficient bound, the rate classification, grid-based envelope scans, and
empirical rate extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import FitError
from .grid import SampledFunction, norm_sq
from .hermite import HermiteExpansion, analyze, fourier_sampled, hermite_phi_all

#: Coefficient magnitudes below this are treated as numerical zeros in fits.
NOISE_FLOOR = 1e-250

#: Fraction of the grid (each side) inspected by the divergence heuristic.
DIVERGENCE_WINDOW = 0.10


@dataclass(frozen=True)
class EnvelopeReport:
    """Result of comparing |f| against C * exp(-a x^2 / 2) on a grid.

    ``constant`` is the supremum of |f(x)| exp(a x^2 / 2) over the grid;
    when ``divergent`` is set the weighted values were still growing at the
    grid edge and the constant is only a lower estimate.
    """

    a: float
    constant: float
    argmax_x: float
    divergent: bool


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit log|c_k| ~ log_prefactor - alpha_hat*k - power_hat*log(k)."""

    alpha_hat: float
    power_hat: float
    log_prefactor: float
    residual: float
    k_range: tuple[int, int]


@dataclass(frozen=True)
class RateParams:
    """Envelope parameter a, endpoint rate alpha with tanh(2*alpha) = a, and
    the geometric ratio mu = exp(-4*alpha) = (1-a)/(1+a)."""

    a: float
    alpha: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must be in (0,1), got {self.a}")
        ref = (1.0 - self.a) / (1.0 + self.a)
        if abs(self.mu - ref) > 1e-13 * max(ref, 1e-300):
            raise ValueError("mu inconsistent with a (expected (1-a)/(1+a))")

    @classmethod
    def from_a(cls, a: float) -> "RateParams":
        return cls(a=a, alpha=0.5 * math.atanh(a), mu=(1.0 - a) / (1.0 + a))

    @classmethod
    def from_alpha(cls, alpha: float) -> "RateParams":
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return cls(a=math.tanh(2.0 * alpha), alpha=alpha, mu=math.exp(-4.0 * alpha))


def log_hardy_coeff_bound(k: int, a: float, big_c: float) -> float:
    """Natural log of :func:`hardy_coeff_bound` (safe for large k)."""
    if k < 1:
        raise ValueError(f"the coefficient bound is stated for k >= 1, got k={k}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0,1), got {a}")
    if not big_c > 0:
        raise ValueError(f"C must be positive, got {big_c}")
    mu = (1.0 - a) / (1.0 + a)
    return (
        math.log(big_c)
        + 0.5 * (math.log(2.0 * math.pi) - math.log1p(a))
        + 0.5 * gammaln(k + 1)
        + 0.5 * k * (1.0 - math.log(k))
        + 0.25 * k * math.log(mu)
    )


def hardy_coeff_bound(k: int, a: float, big_c: float) -> float:
    """Explicit coefficient bound for a Hardy-class member with constant C:

        |<f, phi_k>| <= C * sqrt(2 pi k! / (1+a)) * (e/k)**(k/2) * mu**(k/4),

    with mu = (1-a)/(1+a), valid for k = 1, 2, ...  (k = 0 is unconstrained).
    Underflows to 0.0 for very large k; use the log version to compare there.
    """
    return math.exp(log_hardy_coeff_bound(k, a, big_c))


def rate_regime(a: float, alpha: float) -> str:
    """Classify the decay claim <f, phi_k> = O(e^{-alpha k}) for f in the
    class with parameter a: "applies" when tanh(2 alpha) < a, "endpoint"
    when tanh(2 alpha) = a (within 1e-12), "fails" otherwise."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0,1), got {a}")
    t = math.tanh(2.0 * alpha)
    if abs(t - a) <= 1e-12:
        return "endpoint"
    return "applies" if t < a else "fails"


def endpoint_ratio_sup(e: HermiteExpansion, alpha: float) -> float:
    """sup over k >= 1 of |coeffs[k]| * k**(1/4) * e^{alpha k}.

    Boundedness of this quantity over the computed range is the checkable
    surrogate for the endpoint decay statement; for the extremal chirp it is
    also bounded away from zero on even k (the rate is sharp)."""
    mags = np.abs(e.coeffs[1:])
    if mags.size == 0:
        return 0.0
    k = np.arange(1, len(e), dtype=float)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(mags > 0, np.log(mags) + 0.25 * np.log(k) + alpha * k, -np.inf)
    top = np.max(log_ratio)
    return float(np.exp(top)) if np.isfinite(top) else 0.0


def _side_divergent(weighted: np.ndarray) -> bool:
    """True when the values are increasing outward over the window.

    Exact zeros (underflowed function values) satisfy any bound and are
    dropped.  Growth must be essentially monotone and exceed a factor
    1 + 1e-8 across the window, so flat weighted profiles (exact envelope
    matches) are not flagged on rounding noise."""
    w = weighted[weighted > 0.0]
    if w.size < 3:
        return False
    if not w[-1] > w[0] * (1.0 + 1e-8):
        return False
    return bool(np.all(w[1:] >= w[:-1] * (1.0 - 1e-10)))


def envelope_scan(f: SampledFunction, a: float) -> EnvelopeReport:
    """Best constant in |f(x)| <= C exp(-a x^2/2) measured on the grid.

    The constant is max_j |f(x_j)| e^{a x_j^2/2}; ties within 1e-12 relative
    are resolved toward the smallest |x|.  The report is flagged divergent
    when the weighted values increase over the outer 10% of the grid on
    either side.
    """
    xs = f.grid.xs
    weighted = np.abs(f.values) * np.exp(0.5 * a * xs * xs)
    top = float(np.max(weighted))
    if top == 0.0:
        return EnvelopeReport(a=a, constant=0.0, argmax_x=0.0, divergent=False)
    near = np.nonzero(weighted >= top * (1.0 - 1e-12))[0]
    argmax_x = float(xs[near[np.argmin(np.abs(xs[near]))]])
    n_win = max(3, int(DIVERGENCE_WINDOW * f.grid.num_points))
    divergent = _side_divergent(weighted[-n_win:]) or _side_divergent(weighted[:n_win][::-1])
    return EnvelopeReport(a=a, constant=top, argmax_x=argmax_x, divergent=divergent)


def decay_fit(e: HermiteExpansion, k_range: tuple[int, int]) -> DecayFit:
    """Fit log|coeffs[k]| ~ log c - alpha*k - p*log k over usable indices.

    Indices of a parity whose coefficients all sit below the noise floor
    (even/odd symmetry makes the log undefined there) are excluded; at least
    6 usable indices of the surviving parity are required.
    """
    k_lo, k_hi = k_range
    k_hi = min(k_hi, len(e) - 1)
    if k_lo < 1 or k_hi < k_lo:
        raise FitError(f"empty or invalid index range {k_range}")
    ks = np.arange(k_lo, k_hi + 1)
    mags = np.abs(e.coeffs[ks])
    usable = mags > NOISE_FLOOR
    even_ok = usable & (ks % 2 == 0)
    odd_ok = usable & (ks % 2 == 1)
    if not even_ok.any() and not odd_ok.any():
        raise FitError("no coefficients above the noise floor in the range")
    pick = even_ok if even_ok.sum() >= odd_ok.sum() else odd_ok
    ks_fit = ks[pick]
    if ks_fit.size < 6:
        raise FitError(
            f"need at least 6 usable same-parity indices, got {ks_fit.size}"
        )
    y = np.log(mags[pick])
    kf = ks_fit.astype(float)
    design = np.column_stack([np.ones_like(kf), -kf, -np.log(kf)])
    params, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ params - y) ** 2)))
    return DecayFit(
        alpha_hat=float(params[1]),
        power_hat=float(params[2]),
        log_prefactor=float(params[0]),
        residual=resid,
        k_range=(int(ks_fit[0]), int(ks_fit[-1])),
    )


@dataclass(frozen=True)
class HardyReport:
    """Verdict of the grid-based trichotomy check at parameter a."""

    a: float
    member: bool
    constant: float
    time_report: EnvelopeReport
    frequency_report: EnvelopeReport
    ground_state_residual: float | None  # only computed for members at a >= 1


def hardy_classify(f: SampledFunction, a: float) -> HardyReport:
    """Scan f and its Fourier transform against the envelope exp(-a x^2/2).

    For members at a >= 1 the L^2(dm) distance to the ground-state line,
    ||f - <f, phi_0> phi_0||, is reported as well: at the self-dual threshold
    a = 1 the class collapses to multiples of the Gaussian, so the residual
    must vanish for true members.  The k = 0 coefficient itself is never
    bounded by the decay estimates (they start at k = 1), which is why it is
    reported separately instead of folded into a bound.

    Near a = 1 the frequency-side constant is noise-limited: the weight
    amplifies the sampled transform's ~1e-16 tail noise, so rely on the
    membership verdict and the residual there, not on the reported sup.
    """
    t_rep = envelope_scan(f, a)
    f_rep = envelope_scan(fourier_sampled(f), a)
    member = not (t_rep.divergent or f_rep.divergent)
    residual = None
    if member and a >= 1.0:
        c0 = analyze(f, 0).coeffs[0]
        diff = SampledFunction(f.grid, f.values - c0 * hermite_phi_all(0, f.grid.xs)[0])
        residual = math.sqrt(max(norm_sq(diff), 0.0))
    return HardyReport(
        a=a,
        member=member,
        constant=max(t_rep.constant, f_rep.constant),
        time_report=t_rep,
        frequency_report=f_rep,
        ground_state_residual=residual,
    )
