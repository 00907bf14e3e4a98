"""Decay of Hermite coefficients for Gaussian-envelope classes.

A function f lies in the Hardy class with parameter a if |f(x)| and its
Fourier transform are both dominated by a multiple of exp(-a x^2 / 2).
Membership is equivalent to geometric decay of the Hermite coefficients,
with rate governed by mu = (1-a)/(1+a); this module houses the explicit
coefficient bound (in log scale) and the grid-based envelope scans and
classifier that verify uses as its sampled oracle.  That the endpoint rate
is sharp is read from closed forms (``verify``), not fitted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalDomainError
from .grid import SampledFunction, norm_sq
from .hermite import analyze, fourier_sampled, grid_basis
from .special import gammaln

#: Fraction of the grid (each side) inspected by the divergence heuristic.
DIVERGENCE_WINDOW = 0.10


class EnvelopeReport(NamedTuple):
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


class Membership(NamedTuple):
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


def check_weight(a: float) -> None:
    """Refuse (``NumericalDomainError``) a weight outside (0,1), where the
    coefficient bounds, the closed forms and the Gram recurrence hold."""
    if not 0.0 < a < 1.0:
        raise NumericalDomainError(f"a must be in (0,1), got {a}")


def log_hardy_coeff_bound(k, a: float, big_c: float):
    """Natural log of the explicit coefficient bound for a Hardy-class member
    with constant C:

        |<f, phi_k>| <= C * sqrt(2 pi k! / (1+a)) * (e/k)**(k/2) * mu**(k/4),

    with mu = (1-a)/(1+a), valid for k = 1, 2, ...  (k = 0 is unconstrained),
    for one index k (a float) or an integer array of them (an array).  In
    log scale because the bound underflows double precision for large k."""
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
    modulus = np.abs(f.values)
    with np.errstate(over="ignore", invalid="ignore"):  # the weight is inf past |x| ~ 37.7 at a = 1
        weighted = modulus * np.exp(0.5 * a * xs * xs)
    weighted[modulus == 0.0] = 0.0  # a zero sample weighs 0, not 0 * inf
    top, argmax_x = sample_peak(weighted, xs)
    if top == 0.0:
        return EnvelopeReport(a=a, constant=0.0, argmax_x=0.0, divergent=False)
    n_win = max(3, int(DIVERGENCE_WINDOW * f.grid.num_points))
    divergent = _side_divergent(weighted[-n_win:]) or _side_divergent(weighted[:n_win][::-1])
    return EnvelopeReport(a=a, constant=top, argmax_x=argmax_x, divergent=divergent)


class HardyReport(NamedTuple):
    """Verdict of the grid-based trichotomy check at parameter a: a
    :class:`Membership`'s two sides, verdict and constant, and the residual."""

    time_report: EnvelopeReport
    frequency_report: EnvelopeReport
    ground_state_residual: float | None  # only computed for members at a >= 1

    member = Membership.member
    constant = Membership.constant


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
        diff = SampledFunction(f.grid, f.values - c0 * grid_basis(f.grid, 0)[0])
        residual = math.sqrt(max(norm_sq(diff), 0.0))
    return HardyReport(sides.time_report, sides.frequency_report, residual)
