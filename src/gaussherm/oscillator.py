"""Harmonic-oscillator Schrodinger flow in spectral form, plus confinement.

The evolution solves (1/i) d psi/dt = H psi with H = -d^2/dx^2 + x^2, i.e.
psi_t = e^{itH} psi_0, so Hermite coefficients pick up phases e^{i(2n+1)t}
(note the + sign; many references evolve with e^{-itH}).  Generalized
Gaussians stay Gaussian under the flow: the Moebius parameter
z = (1-b)/(1+b) simply rotates, z(t) = z e^{4it}.

Confinement: a state whose initial data sits inside a tight Gaussian
envelope stays inside a slightly wider envelope for all time, with an
explicit constant assembled from the coefficient decay and the Mehler sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .decay import envelope_scan
from .errors import AliasingError
from .gaussians import GeneralizedGaussian, fourier_gaussian
from .grid import DEFAULT_GRID, GridSpec, SampledFunction
from .hermite import HermiteExpansion, fourier_expansion, hermite_phi_all


def evolve_expansion(e: HermiteExpansion, t: float) -> HermiteExpansion:
    """Spectral flow: coeffs[n] -> e^{i(2n+1)t} coeffs[n]."""
    n = np.arange(len(e))
    return HermiteExpansion(e.coeffs * np.exp(1j * (2 * n + 1) * t))


def evolve_gaussian(g: GeneralizedGaussian, t: float) -> GeneralizedGaussian:
    """Closed-form flow of a generalized Gaussian.

    With z = (1-b)/(1+b): z(t) = z e^{4it}, b(t) = (1-z(t))/(1+z(t)), and
    A(t) = A e^{it} sqrt((1+b(t))/(1+b)).  The square root follows the
    branch continuously from its principal value at t = 0 by stepping t in
    increments below pi/8 and picking the root nearest the previous one
    (here the path (1+b(t))/(1+b) never meets the cut, so the walk agrees
    with the principal branch throughout; the stepping keeps that a checked
    fact rather than an assumption).
    """
    b0 = g.width
    z0 = (1.0 - b0) / (1.0 + b0)

    def b_at(s: float) -> complex:
        zs = z0 * cmath.exp(4j * s)
        return (1.0 - zs) / (1.0 + zs)

    steps = max(1, math.ceil(abs(t) / (math.pi / 16.0)))
    root_prev = 1.0 + 0.0j
    for j in range(1, steps + 1):
        s = t * j / steps
        val = cmath.sqrt((1.0 + b_at(s)) / (1.0 + b0))
        if abs(-val - root_prev) < abs(val - root_prev):
            val = -val
        root_prev = val
    amp = g.amplitude * cmath.exp(1j * t) * root_prev
    return GeneralizedGaussian(amp, b_at(t))


def fourier_time_shift_check(e: HermiteExpansion, t: float) -> float:
    """Deviation in the identity  F(psi_t) = e^{i pi/4} psi_{t - pi/4}.

    The modulus version |psihat_t| = |psi_{t-pi/4}| is what confinement
    uses; the global phase e^{i pi/4} makes it an exact coefficient-level
    identity ((-i)^n e^{i(2n+1)t} = e^{i pi/4} e^{i(2n+1)(t-pi/4)}), which
    is what is checked here.
    """
    lhs = fourier_expansion(evolve_expansion(e, t)).coeffs
    rhs = cmath.exp(0.25j * math.pi) * evolve_expansion(e, t - 0.25 * math.pi).coeffs
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class ConfinementParams:
    """Parameters of the confinement constant: 0 < gamma < gamma' < beta."""

    beta: float
    gamma: float
    gamma_prime: float
    r: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.gamma < self.gamma_prime < self.beta:
            raise ValueError(
                "need 0 < gamma < gamma_prime < beta, got "
                f"gamma={self.gamma}, gamma_prime={self.gamma_prime}, beta={self.beta}"
            )
        object.__setattr__(self, "r", self.gamma / self.gamma_prime)


def confinement_constant(
    p: ConfinementParams, coeff_bound: float, sharp: bool = False
) -> float:
    """Envelope constant in |psi_t(x)| <= const * exp(-(tanh gamma / 2) x^2)
    for coefficients bounded by coeff_bound * e^{-gamma' k}.

    The Cauchy-Schwarz split gives the geometric factor
    (1 - e^{-2(gamma'-gamma)})^{-1/2} times the Mehler sum evaluated in
    closed form, (sum e^{-2 gamma n} phi_n(x)^2)^{1/2} =
    2**0.25 (1 - e^{-4 gamma})**-0.25 e^{-(tanh gamma/2) x^2}.  By default
    the geometric factor is returned without the square root (the looser,
    traditional constant); pass sharp=True for the exact split.
    """
    if coeff_bound < 0:
        raise ValueError("coeff_bound must be nonnegative")
    gap = 1.0 - math.exp(-2.0 * (p.gamma_prime - p.gamma))
    first = gap ** -0.5 if sharp else 1.0 / gap
    mehler = 2.0 ** 0.25 * (1.0 - math.exp(-4.0 * p.gamma)) ** -0.25
    return coeff_bound * first * mehler


@dataclass(frozen=True)
class ConfinementReport:
    """Per-time envelope constants of a flow and their supremum.

    ``attained_ts`` lists every scanned time whose two-sided constant comes
    within 1e-9 relative of the supremum (the sup is typically attained at
    several symmetry-related times); ``worst_t`` is the first of them in
    scan order.
    """

    gamma: float
    a: float
    ts: np.ndarray = field(repr=False)
    psi_constants: np.ndarray = field(repr=False)
    fourier_constants: np.ndarray = field(repr=False)
    sup_constant: float
    worst_t: float
    attained_ts: np.ndarray = field(repr=False)
    divergent: bool
    first_divergent_t: float | None


def default_t_grid(size: int = 64) -> np.ndarray:
    """Uniform times on [0, pi/2): the Gaussian flow's envelope constants
    have period pi/2, so one quarter period sees everything."""
    if size < 1:
        raise ValueError("t grid size must be positive")
    return np.arange(size) * (0.5 * math.pi / size)


def flow_sides(psi0: HermiteExpansion | GeneralizedGaussian, ts, grid: GridSpec = DEFAULT_GRID):
    """Yield (samples of psi_t, samples of its Fourier transform) for each t.

    A Gaussian is sampled in closed form.  An expansion's basis is built
    once; each side is then ``coeffs @ phi`` of the evolved (and, for the
    frequency side, (-i)^k-rotated) coefficients, one time at a time.
    """
    if isinstance(psi0, GeneralizedGaussian):
        for t in ts:
            gt = evolve_gaussian(psi0, float(t))
            yield gt.sample(grid), fourier_gaussian(gt).sample(grid)
        return
    phi = hermite_phi_all(len(psi0) - 1, grid.xs).astype(complex)
    for t in ts:
        et = evolve_expansion(psi0, float(t))
        yield (SampledFunction(grid, et.coeffs @ phi),
               SampledFunction(grid, fourier_expansion(et).coeffs @ phi))


def confinement_check(
    psi0: HermiteExpansion | GeneralizedGaussian,
    beta: float,
    gamma: float,
    t_grid=None,
    grid: GridSpec = DEFAULT_GRID,
) -> ConfinementReport:
    """Scan the flow of psi0 over a time grid against the envelope of
    parameter a = tanh(gamma), on both the time and frequency sides.

    ``beta`` documents the class of the initial data (|psi_0| inside the
    envelope of tanh(2 beta)); the scan itself does not require gamma < beta
    and will simply report divergence when the envelope is too tight.
    """
    if gamma <= 0 or beta <= 0:
        raise ValueError("beta and gamma must be positive")
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    a = math.tanh(gamma)
    psi_c = np.empty(ts.size)
    four_c = np.empty(ts.size)
    divergent = False
    first_bad = None
    for i, (t, (side_p, side_f)) in enumerate(zip(ts, flow_sides(psi0, ts, grid))):
        rep_p = envelope_scan(side_p, a)
        rep_f = envelope_scan(side_f, a)
        psi_c[i] = rep_p.constant
        four_c[i] = rep_f.constant
        if (rep_p.divergent or rep_f.divergent) and not divergent:
            divergent = True
            first_bad = float(t)
    both = np.maximum(psi_c, four_c)
    sup = float(np.max(both))
    attained = ts[both >= sup * (1.0 - 1e-9)]
    return ConfinementReport(
        gamma=gamma,
        a=a,
        ts=ts,
        psi_constants=psi_c,
        fourier_constants=four_c,
        sup_constant=sup,
        worst_t=float(attained[0]),
        attained_ts=attained,
        divergent=divergent,
        first_divergent_t=first_bad,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Evidence record for the sharp-confinement question at gamma = beta."""

    report: ConfinementReport
    refined_sup: float
    sup_change: float
    stable: bool


def sharp_confinement_probe(
    psi0: HermiteExpansion | GeneralizedGaussian,
    beta: float,
    t_grid=None,
    grid: GridSpec = DEFAULT_GRID,
    stability_tol: float = 1e-6,
) -> ProbeReport:
    """Probe whether the flow stays in the envelope class of tanh(beta)
    itself (the borderline case the two-sided scan cannot decide in
    general).  Runs the scan, refines the time grid twofold, and reports
    whether the supremum moved; numerical evidence only, never a proof.
    """
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    base = confinement_check(psi0, beta, beta, ts, grid)
    fine = np.sort(np.concatenate([ts, ts + 0.5 * np.diff(np.concatenate([ts, [ts[0] + 0.5 * math.pi]]))]))
    refined = confinement_check(psi0, beta, beta, fine, grid)
    change = abs(refined.sup_constant - base.sup_constant)
    return ProbeReport(
        report=base,
        refined_sup=refined.sup_constant,
        sup_change=change,
        stable=change < stability_tol * max(base.sup_constant, 1.0),
    )


def time_average_projection(
    e: HermiteExpansion, n: int, num_samples: int
) -> HermiteExpansion:
    """Trapezoid average (1/2 pi) integral_0^{2 pi} psi_t e^{-i n t} dt,
    computed from uniform time samples of the spectral flow.

    The integrand is a trigonometric polynomial with frequencies
    2k + 1 - n, |k| < len(e), so the uniform average is exact once
    num_samples clears the Nyquist order; the projection then isolates the
    eigencomponent <f, phi_k> phi_k at k = (n-1)/2 for odd positive n and
    vanishes identically for even or negative n.
    """
    needed = 2 * (2 * len(e) + 1)
    if num_samples <= needed:
        raise AliasingError(
            f"num_samples={num_samples} too small for {len(e)} coefficients "
            f"(need > {needed})"
        )
    ts = 2.0 * math.pi * np.arange(num_samples) / num_samples
    k = np.arange(len(e))
    # rows: time samples; columns: coefficient index
    phases = np.exp(1j * np.outer(ts, 2 * k + 1 - n))
    avg = phases.mean(axis=0) * e.coeffs
    return HermiteExpansion(avg)
