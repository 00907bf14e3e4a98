"""Closed-form algebra on generalized Gaussians A * exp(-b x^2 / 2).

With Re b > 0 this family is closed under the Fourier transform, the
Bargmann transform, and the harmonic-oscillator flow, and every example
worked in this package (pure Gaussians, boundary chirps, rotating squeezed
states) lives in it.  All branch choices are principal; Re b > 0 keeps b
and 1 + b in the right half-plane, where the principal square root is
continuous.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from .decay import EnvelopeReport, Membership
from .errors import NumericalDomainError
from .grid import DEFAULT_GRID, GridSpec, SampledFunction
from .hermite import HermiteExpansion
from .weighted import log_central_binomial


class GeneralizedGaussian(namedtuple("GeneralizedGaussian", "amplitude width")):
    """A * exp(-b x^2 / 2) with complex amplitude A and width b, Re b > 0."""

    __slots__ = ()

    def __new__(cls, amplitude: complex, width: complex):
        if not complex(width).real > 0:
            raise ValueError(f"Re(width) must be positive, got {width}")
        return super().__new__(cls, complex(amplitude), complex(width))

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.amplitude * np.exp(-0.5 * self.width * xs * xs)

    def sample(self, grid: GridSpec = DEFAULT_GRID) -> SampledFunction:
        return SampledFunction(grid, self(grid.xs))


class BargmannGaussian(namedtuple("BargmannGaussian", "prefactor quad_coeff")):
    """Entire function P * exp(lam * w^2), the Bargmann image of a Gaussian.

    |4 lam| < 1 holds exactly when the preimage is integrable (Re b > 0);
    it is what makes the Taylor coefficients those of an L^2 function.
    """

    __slots__ = ()

    def __new__(cls, prefactor: complex, quad_coeff: complex):
        if not abs(4.0 * complex(quad_coeff)) < 1.0:
            raise ValueError(
                f"|4*quad_coeff| must be < 1, got {abs(4 * quad_coeff)}"
            )
        return super().__new__(cls, complex(prefactor), complex(quad_coeff))

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return self.prefactor * np.exp(self.quad_coeff * w * w)


def gaussian(a: float | complex) -> GeneralizedGaussian:
    """The unit-amplitude Gaussian exp(-a x^2 / 2)."""
    return GeneralizedGaussian(1.0, a)


def boundary_chirp(alpha: float) -> GeneralizedGaussian:
    """The chirped Gaussian exp((-a + i sqrt(1-a^2)) x^2 / 2), a = tanh(2 alpha).

    Its modulus and the modulus of its Fourier transform both equal
    exp(-a x^2 / 2), so it sits on the boundary of the envelope class, and
    its Hermite coefficients realize the endpoint decay rate e^{-alpha k}
    up to the k^{-1/4} factor (the endpoint bound is sharp on it).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    a = math.tanh(2.0 * alpha)
    return GeneralizedGaussian(1.0, complex(a, -math.sqrt(1.0 - a * a)))


def squeezed_state(beta: float) -> GeneralizedGaussian:
    """Initial state of the rotating squeezed Gaussian with parameter beta.

    With r = e^{-2 beta} the state is e^{i pi/8} (1 + i r)^{-1/2}
    exp(-((1 - i r)/(1 + i r)) x^2 / 2): its modulus matches the envelope
    exp(-tanh(2 beta) x^2 / 2) exactly, while a quarter-period into the
    oscillator flow the modulus widens to the envelope of parameter
    tanh(beta).  It is the extremal example for the confinement bounds.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    r = math.exp(-2.0 * beta)
    b = (1.0 - 1j * r) / (1.0 + 1j * r)
    amp = cmath.exp(1j * math.pi / 8.0) / cmath.sqrt(1.0 + 1j * r)
    return GeneralizedGaussian(amp, b)


def _fourier(amp: complex, width: complex) -> tuple[complex, complex]:
    """:func:`fourier_gaussian` on the amplitude and width: (A b**-0.5, 1/b)."""
    inv = 1.0 / width
    if not inv.real > 0:
        raise NumericalDomainError(
            f"the Fourier transform of the Gaussian of width b={width} has width "
            f"1/b={inv}, whose real part rounds to 0: Re b is too small for double precision")
    return amp / cmath.sqrt(width), inv


def fourier_gaussian(g: GeneralizedGaussian) -> GeneralizedGaussian:
    """Exact Fourier transform: (A, b) -> (A * b**-0.5, 1/b); refused
    (``NumericalDomainError``) where Re 1/b rounds to 0, as it can for a tiny Re b."""
    return GeneralizedGaussian(*_fourier(g.amplitude, g.width))


def bargmann_gaussian(g: GeneralizedGaussian) -> BargmannGaussian:
    """Exact Bargmann transform of a Gaussian:

        P = 2**0.25 * A * (1+b)**-0.5,   lam = (1-b) / (4(1+b)) = z / 4;

    refused (``NumericalDomainError``) where |z| rounds to 1, as it does
    once 1 - |z|^2 = 4 Re b / |1+b|^2 is below double precision."""
    b = g.width
    z = moebius_ratio(g)
    if not abs(z) < 1.0:
        raise NumericalDomainError(
            f"the Bargmann transform of the Gaussian of width b={b} has ratio "
            f"z=(1-b)/(1+b)={z}, whose modulus rounds to 1: Re b is too small "
            f"against |1+b|^2 for double precision")
    pref = 2.0 ** 0.25 * g.amplitude / cmath.sqrt(1.0 + b)
    return BargmannGaussian(pref, (1.0 - b) / (4.0 * (1.0 + b)))


def moebius_ratio(g: GeneralizedGaussian) -> complex:
    """z = (1-b)/(1+b), the coefficient ratio parameter; |z| < 1 iff Re b > 0."""
    return (1.0 - g.width) / (1.0 + g.width)


def hermite_coeffs(g: GeneralizedGaussian, kmax: int) -> HermiteExpansion:
    """Closed-form Hermite coefficients of a generalized Gaussian.

    With z = (1-b)/(1+b) and P the Bargmann prefactor,

        <g, phi_{2m}> = P * z**m * sqrt((2m)!) / (2**m m!) = P * z**m * sqrt(Q_m),

    and odd coefficients vanish.  Q_m is the normalized central binomial
    weight of :func:`weighted.central_binomial` (<= 1, so the result never
    exceeds |P|); the magnitude is assembled in log scale, since z**m
    underflows long before Q_m does.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    z = moebius_ratio(g)
    pref = bargmann_gaussian(g).prefactor
    m = np.arange(kmax // 2 + 1)
    if z == 0:
        even = np.zeros(m.size, dtype=complex)
        even[0] = pref
    else:
        log_mag = math.log(abs(pref)) + m * math.log(abs(z)) + 0.5 * log_central_binomial(m)
        phase = cmath.phase(pref) + m * cmath.phase(z)
        even = np.exp(log_mag) * np.exp(1j * phase)
    coeffs = np.zeros(kmax + 1, dtype=complex)
    coeffs[:: 2] = even[: coeffs[::2].size]
    return HermiteExpansion(coeffs)


def _envelope_report(amp: complex, width: complex, a: float) -> EnvelopeReport:
    """Best constant in |A e^{-b x^2/2}| <= C exp(-a x^2/2), in closed form.

    For Re b >= a the supremum of |A| exp((a - Re b) x^2 / 2) is |A|,
    attained at x = 0; for Re b < a the weighted modulus grows without
    bound and the report is flagged divergent (|A| is then only the x = 0
    value, a lower estimate).  Exact boundary members (Re b = a, e.g. the
    boundary chirp) are classified with a 1e-12 relative tolerance so that
    one-ulp rounding in constructing b cannot flip the verdict.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return EnvelopeReport(a, abs(amp), 0.0, width.real < a * (1.0 - 1e-12))


def _membership(amp: complex, width: complex, a: float) -> Membership:
    """:func:`envelope_membership` on the amplitude and width: the time side
    and the Fourier side (A b**-0.5, 1/b), each by :func:`_envelope_report`."""
    return Membership(_envelope_report(amp, width, a),
                      _envelope_report(*_fourier(amp, width), a))


def envelope_membership(g: GeneralizedGaussian, a: float) -> Membership:
    """Check |g| and |g_hat| against exp(-a x^2/2), both in closed form."""
    return _membership(g.amplitude, g.width, a)


def _energy(amp: complex, width: complex, a: float = 0.0) -> float:
    """:func:`gaussian_energy` on the amplitude and width."""
    amp, root = abs(amp), math.sqrt(2.0 * (width.real - a))
    try:
        return amp ** 2 / root
    except OverflowError:
        return amp * (amp / root)


def gaussian_energy(g: GeneralizedGaussian, a: float = 0.0) -> float:
    """The integral of |g|^2 e^{a x^2} dm, |A|^2 (2(Re b - a))**-0.5 (at a = 0
    the squared norm), for Re b > a; inf past the double range.  Where |A|^2
    alone is past it, |A| is divided out first, so a finite value is not lost."""
    return _energy(g.amplitude, g.width, a)


def weighted_norm_sq_gaussian(g: GeneralizedGaussian, a: float) -> float:
    """Closed-form squared weighted norm of a Gaussian,

        ||g||_a^2 = ( |A|^2 (2(Re b - a))**-0.5 + |A_hat|^2 (2(Re 1/b - a))**-0.5 ) / 2,

    infinite when either weighted integral diverges (Re b <= a or
    Re 1/b <= a), and inf past the double range."""
    sides = (g, fourier_gaussian(g))
    if any(side.width.real <= a for side in sides):
        return math.inf
    return 0.5 * (gaussian_energy(sides[0], a) + gaussian_energy(sides[1], a))
