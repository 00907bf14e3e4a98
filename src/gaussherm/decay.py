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

from .errors import FitError, NumericalDomainError
from .grid import SampledFunction, norm_sq
from .hermite import HermiteExpansion, analyze, fourier_sampled, hermite_phi_all
from .special import gammaln

#: Coefficient magnitudes below this are treated as numerical zeros in fits.
NOISE_FLOOR = 1e-250

#: Fraction of the grid (each side) inspected by the divergence heuristic.
DIVERGENCE_WINDOW = 0.10


@dataclass(frozen=True)
class EnvelopeReport:
    """Result of comparing |f| against C * exp(-a x^2 / 2).

    ``constant`` is the supremum of |f(x)| exp(a x^2 / 2) (closed-form, or
    the largest sample), attained at ``argmax_x``; when ``divergent`` is set
    the weighted modulus is unbounded and the constant is only a lower
    estimate (its value at x = 0, or at the grid edge for a grid scan).
    """

    a: float
    constant: float
    argmax_x: float
    divergent: bool


@dataclass(frozen=True)
class Membership:
    """Two-sided envelope verdict at parameter a: f is a member when neither
    |f| nor |fhat| diverges against exp(-a x^2/2), and the class constant is
    then the larger of the two one-sided constants (None for a non-member)."""

    time_report: EnvelopeReport
    frequency_report: EnvelopeReport

    @property
    def member(self) -> bool:
        return not (self.time_report.divergent or self.frequency_report.divergent)

    @property
    def constant(self) -> float | None:
        if not self.member:
            return None
        return max(self.time_report.constant, self.frequency_report.constant)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit log|c_k| ~ log_prefactor - alpha_hat*k - power_hat*log(k)."""

    alpha_hat: float
    power_hat: float
    log_prefactor: float
    residual: float
    k_range: tuple[int, int]


def check_weight(a: float) -> None:
    """Refuse (``NumericalDomainError``) a weight outside (0,1), where the
    coefficient bounds, the closed forms and the Gram recurrence hold."""
    if not 0.0 < a < 1.0:
        raise NumericalDomainError(f"a must be in (0,1), got {a}")


def log_hardy_coeff_bound(k, a: float, big_c: float):
    """Natural log of :func:`hardy_coeff_bound` (safe for large k), for one
    index k (a float) or an integer array of them (an array)."""
    k = np.asarray(k)
    if k.min(initial=1) < 1:
        raise ValueError(f"the coefficient bound is stated for k >= 1, got k={k.min()}")
    check_weight(a)
    if not big_c > 0:
        raise ValueError(f"C must be positive, got {big_c}")
    mu = (1.0 - a) / (1.0 + a)
    log_bound = (
        math.log(big_c)
        + 0.5 * (math.log(2.0 * math.pi) - math.log1p(a))
        + 0.5 * gammaln(k + 1)
        + 0.5 * k * (1.0 - np.log(k))
        + 0.25 * k * math.log(mu)
    )
    return float(log_bound) if np.ndim(k) == 0 else log_bound


def hardy_coeff_bound(k, a: float, big_c: float):
    """Explicit coefficient bound for a Hardy-class member with constant C:

        |<f, phi_k>| <= C * sqrt(2 pi k! / (1+a)) * (e/k)**(k/2) * mu**(k/4),

    with mu = (1-a)/(1+a), valid for k = 1, 2, ...  (k = 0 is unconstrained);
    k and the result as in :func:`log_hardy_coeff_bound`.  Underflows to 0.0
    for very large k; use the log version to compare there.
    """
    bound = np.exp(log_hardy_coeff_bound(k, a, big_c))
    return float(bound) if np.ndim(k) == 0 else bound


def rate_regime(a: float, alpha: float) -> str:
    """Classify the decay claim <f, phi_k> = O(e^{-alpha k}) for f in the
    class with parameter a: "applies" when tanh(2 alpha) < a, "endpoint"
    when tanh(2 alpha) = a (within 1e-12), "fails" otherwise."""
    check_weight(a)
    t = math.tanh(2.0 * alpha)
    if abs(t - a) <= 1e-12:
        return "endpoint"
    return "applies" if t < a else "fails"


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


def sample_peak(samples: np.ndarray, xs: np.ndarray, squared: bool = False):
    """The largest sample, and the x nearest 0 of the samples within 1e-12
    relative of it (the first such x of two mirrored ones); of squared
    moduli, the samples within (1 - 1e-12)^2 of the largest.  A row of
    samples gives floats, a 2-D array gives one of each per row (last axis).
    """
    top = np.max(samples, axis=-1)
    keep = (1.0 - 1e-12) ** 2 if squared else 1.0 - 1e-12
    near = samples >= (top * keep)[..., None]
    x = xs[np.where(near, np.abs(xs), np.inf).argmin(axis=-1)]
    return (float(top), float(x)) if samples.ndim == 1 else (top, x)


def envelope_scan(f: SampledFunction, a: float) -> EnvelopeReport:
    """Best constant in |f(x)| <= C exp(-a x^2/2) measured on the grid.

    The constant is max_j |f(x_j)| e^{a x_j^2/2}; ties within 1e-12 relative
    are resolved toward the smallest |x|.  The report is flagged divergent
    when the weighted values increase over the outer 10% of the grid on
    either side.  This is the sampled Hardy oracle, and :func:`hardy_classify`
    (verify's ``hardy_threshold``) is its only reader: the CLI takes an
    expansion's envelope from its own form (``oscillator.flow_envelopes``).
    """
    xs = f.grid.xs
    weighted = np.abs(f.values) * np.exp(0.5 * a * xs * xs)
    top, argmax_x = sample_peak(weighted, xs)
    if top == 0.0:
        return EnvelopeReport(a=a, constant=0.0, argmax_x=0.0, divergent=False)
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
    idx = ks_fit.astype(float)
    design = np.column_stack([np.ones_like(idx), -idx, -np.log(idx)])
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
class HardyReport(Membership):
    """Verdict of the grid-based trichotomy check at parameter a."""

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
    sides = Membership(envelope_scan(f, a), envelope_scan(fourier_sampled(f), a))
    residual = None
    if sides.member and a >= 1.0:
        c0 = analyze(f, 0).coeffs[0]
        diff = SampledFunction(f.grid, f.values - c0 * hermite_phi_all(0, f.grid.xs)[0])
        residual = math.sqrt(max(norm_sq(diff), 0.0))
    return HardyReport(sides.time_report, sides.frequency_report, residual)
