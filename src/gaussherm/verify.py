"""Self-verification suite: every analytic statement the package implements,
checked end to end at desk scale.

Each criterion function returns a :class:`CriterionResult` whose ``measured``
value is the worst deviation normalized by its tolerance (so the pass
condition is uniformly measured <= 1), with the raw numbers spelled out in
``detail``.  The functions are deterministic: fixed sample points, fixed
seeds, no wall-clock anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import bargmann as bg
from . import decay as dc
from . import gaussians as ga
from . import oscillator as osc
from . import weighted as wt
from .grid import DEFAULT_GRID, GridSpec, SampledFunction
from .hermite import HermiteExpansion, analyze, hermite_phi_all


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str


@dataclass(frozen=True)
class VerifyConfig:
    grid: GridSpec = DEFAULT_GRID
    wide_grid: GridSpec = GridSpec(24.0, 6144)
    kmax: int = 60
    t_grid_size: int = 64


def _result(name: str, parts: list[tuple[str, float]], detail: str) -> CriterionResult:
    measured = max(v for _, v in parts)
    worst = max(parts, key=lambda p: p[1])[0]
    return CriterionResult(
        name=name,
        passed=bool(np.isfinite(measured) and measured <= 1.0),
        measured=float(measured),
        threshold=1.0,
        detail=f"worst part: {worst}; {detail}",
    )


def _log_target_uphi(k: int) -> float:
    return 0.5 * (k * math.log(2.0) + gammaln(k + 1))


def criterion_normalization_pins(cfg: VerifyConfig) -> CriterionResult:
    """phi_0(0) = 2**0.25 to 1e-12 and U(phi_k)(w) = w^k/sqrt(2^k k!) to
    1e-8 relative at ten points on the ring |w| = 3, k <= 20."""
    pin_dev = abs(float(hermite_phi_all(0, [0.0])[0, 0]) - 2.0 ** 0.25)
    ws = 3.0 * np.exp(2j * math.pi * np.arange(10) / 10)
    worst_rel = 0.0
    for k, phi_k in enumerate(hermite_phi_all(20, cfg.grid.xs)):
        num = bg.bargmann_numeric(SampledFunction(cfg.grid, phi_k), ws)
        target = ws ** k / math.exp(_log_target_uphi(k))
        worst_rel = max(worst_rel, float(np.max(np.abs(num - target) / np.abs(target))))
    return _result(
        "normalization_pins",
        [("phi0_pin", pin_dev / 1e-12), ("bargmann_pin", worst_rel / 1e-8)],
        f"|phi0(0)-2^0.25|={pin_dev:.3e} (tol 1e-12); "
        f"max rel dev of U(phi_k) on |w|=3 ring={worst_rel:.3e} (tol 1e-8)",
    )


_REFLECTION_WS = np.array(
    [0.5, -1.2, 2.0, 1 + 1j, -0.7 + 1.3j, 2j, 1.5 - 0.5j, -1 - 1j], dtype=complex
)


def criterion_reflection_identity(cfg: VerifyConfig) -> CriterionResult:
    """U(fhat)(w) = Uf(-iw) to 1e-8 for phi_k (k <= 20), the Gaussian of
    width 0.5, and boundary chirps."""
    worst = 0.0
    for phi_k in hermite_phi_all(20, cfg.grid.xs):
        worst = max(worst, bg.reflection_check(SampledFunction(cfg.grid, phi_k), _REFLECTION_WS))
    worst = max(worst, bg.reflection_check(ga.gaussian(0.5).sample(cfg.grid), _REFLECTION_WS))
    for alpha in (0.2, 0.27465, 0.5):
        f = ga.boundary_chirp(alpha).sample(cfg.grid)
        worst = max(worst, bg.reflection_check(f, _REFLECTION_WS))
    return _result(
        "reflection_identity",
        [("max_deviation", worst / 1e-8)],
        f"max |U(fhat)(w) - Uf(-iw)| = {worst:.3e} (tol 1e-8)",
    )


def _membership_family():
    """The Gaussian test family with its measured class constants."""
    out = []
    for a in (0.3, 0.5, 0.8):
        g = ga.gaussian(a)
        out.append((f"gaussian(a={a})", g, a, ga.envelope_membership(g, a).constant))
    for alpha in (0.2, 0.27465, 0.5):
        g = ga.boundary_chirp(alpha)
        a = math.tanh(2 * alpha)
        out.append((f"chirp(alpha={alpha})", g, a, ga.envelope_membership(g, a).constant))
    return out


def criterion_coeff_bound_dominance(cfg: VerifyConfig) -> CriterionResult:
    """|<f, phi_k>| <= hardy_coeff_bound(k, a, C) for 1 <= k <= 60, zero
    violations, over Gaussians and boundary chirps with measured C."""
    worst_ratio = 0.0
    for label, g, a, big_c in _membership_family():
        coeffs = ga.hermite_coeffs(g, cfg.kmax).coeffs
        for k in range(1, cfg.kmax + 1):
            ck = abs(coeffs[k])
            if ck == 0.0:
                continue
            ratio = math.exp(math.log(ck) - dc.log_hardy_coeff_bound(k, a, big_c))
            worst_ratio = max(worst_ratio, ratio)
    return _result(
        "coeff_bound_dominance",
        [("max_coeff_over_bound", worst_ratio)],
        f"max |coeff|/bound over the family = {worst_ratio:.4f} (must be <= 1)",
    )


def criterion_endpoint_sharpness(cfg: VerifyConfig) -> CriterionResult:
    """For the chirp at alpha = 0.27465: |<f, phi_2m>| (2m)^{1/4} e^{2 alpha m}
    stays in an interval of ratio < 3 over m <= 50, and the decay fit recovers
    alpha to 1e-3 and the power 1/4 to 0.05."""
    alpha = 0.27465
    e = ga.hermite_coeffs(ga.boundary_chirp(alpha), 100)
    m = np.arange(1, 51)
    seq = np.abs(e.coeffs[2 * m]) * (2 * m) ** 0.25 * np.exp(2 * alpha * m)
    ratio = float(seq.max() / seq.min())
    fit = dc.decay_fit(e, (4, 100))
    dev_a = abs(fit.alpha_hat - alpha)
    dev_p = abs(fit.power_hat - 0.25)
    return _result(
        "endpoint_sharpness",
        [("interval_ratio", ratio / 3.0), ("alpha_fit", dev_a / 1e-3), ("power_fit", dev_p / 0.05)],
        f"interval [{seq.min():.5f}, {seq.max():.5f}] ratio {ratio:.4f} (<3); "
        f"alpha_hat dev {dev_a:.2e} (tol 1e-3); power_hat dev {dev_p:.3f} (tol 0.05)",
    )


def criterion_contour_machinery(cfg: VerifyConfig) -> CriterionResult:
    """Contour-radius continuity at theta0 to 1e-12; I/J < 0.1 at n = 200
    (mu = 1/3) and decreasing over n in {10, 50, 200}; the contour bound
    dominates the exact Taylor magnitudes of the chirp for n <= 100."""
    mu = 1.0 / 3.0
    theta0 = bg.sector_params((1 - mu) / (1 + mu)).theta0
    d1 = mu + (1 - mu) * math.sin(theta0) ** 2
    d2 = math.sqrt(mu) * math.sin(2 * theta0)
    cont_dev = abs(d1 - d2) / d1
    ij = {n: math.exp(bg.optimal_contour(n, mu).log_i - bg.optimal_contour(n, mu).log_j)
          for n in (10, 50, 200)}
    decreasing = ij[10] > ij[50] > ij[200]
    alpha = 0.27465
    a = math.tanh(2 * alpha)
    tay = bg.expansion_to_taylor(ga.hermite_coeffs(ga.boundary_chirp(alpha), 100))
    worst_ratio = 0.0
    for n in range(2, 101):
        margin = tay.log_mag[n] - bg.log_contour_coeff_bound(n, a, 1.0)
        worst_ratio = max(worst_ratio, math.exp(margin))
    return _result(
        "contour_machinery",
        [
            ("branch_continuity", cont_dev / 1e-12),
            ("ij_ratio_at_200", ij[200] / 0.1),
            ("ij_decreasing", 0.0 if decreasing else 2.0),
            ("bound_dominance", worst_ratio),
        ],
        f"continuity dev {cont_dev:.2e} (tol 1e-12); I/J = "
        f"{ij[10]:.3e}/{ij[50]:.3e}/{ij[200]:.3e} at n=10/50/200 (200-value tol 0.1); "
        f"max |c_n|/bound = {worst_ratio:.4f}",
    )


def criterion_oscillator_evolution(cfg: VerifyConfig) -> CriterionResult:
    """Spectral and closed-form Gaussian flows agree to 1e-8 (k <= 60, four
    times); unitarity to 1e-10; psi_{t+pi} = -psi_t to 1e-12; the Fourier
    time-shift identity to 1e-10."""
    sq = ga.squeezed_state(0.5)
    flow_dev = 0.0
    for t in (0.1, math.pi / 8, 1.0, 3.0):
        lhs = ga.hermite_coeffs(osc.evolve_gaussian(sq, t), cfg.kmax).coeffs
        rhs = osc.evolve_expansion(ga.hermite_coeffs(sq, cfg.kmax), t).coeffs
        flow_dev = max(flow_dev, float(np.max(np.abs(lhs - rhs))))
    lhs = analyze(osc.evolve_gaussian(sq, 1.0).sample(cfg.grid), cfg.kmax).coeffs
    rhs = osc.evolve_expansion(analyze(sq.sample(cfg.grid), cfg.kmax), 1.0).coeffs
    flow_dev = max(flow_dev, float(np.max(np.abs(lhs - rhs))))
    rng = np.random.default_rng(2024)
    e = HermiteExpansion(rng.normal(size=20) + 1j * rng.normal(size=20))
    unit_dev = abs(osc.evolve_expansion(e, 2.7).norm_sq() - e.norm_sq()) / e.norm_sq()
    anti_dev = 0.0
    for t in (0.0, 0.7, 2.9):
        d = np.max(
            np.abs(osc.evolve_expansion(e, t + math.pi).coeffs + osc.evolve_expansion(e, t).coeffs)
        )
        anti_dev = max(anti_dev, float(d) / float(np.max(np.abs(e.coeffs))))
    shift_dev = max(
        osc.fourier_time_shift_check(e, t) for t in (0.0, 0.83, math.pi / 8, 2.0)
    )
    return _result(
        "oscillator_evolution",
        [
            ("flow_agreement", flow_dev / 1e-8),
            ("unitarity", unit_dev / 1e-10),
            ("pi_antiperiodicity", anti_dev / 1e-12),
            ("fourier_time_shift", shift_dev / 1e-10),
        ],
        f"flow dev {flow_dev:.2e} (1e-8); unitarity {unit_dev:.2e} (1e-10); "
        f"antiperiodicity {anti_dev:.2e} (1e-12); time shift {shift_dev:.2e} (1e-10)",
    )


def criterion_confinement(cfg: VerifyConfig) -> CriterionResult:
    """Squeezed state at beta = 0.5: at gamma = beta the two-sided scan's sup
    equals (1-r)^{-1/2} to 1e-8 and is attained within 1e-3 of t = -pi/8
    (mod pi/2), where the time-side constant equals (1+r)^{-1/2} to 1e-8;
    at gamma = 0.45 the sup is dominated by the assembled confinement
    constant with measured coefficient decay."""
    beta = 0.5
    r = math.exp(-2 * beta)
    sq = ga.squeezed_state(beta)
    ts = osc.default_t_grid(cfg.t_grid_size)
    rep = osc.confinement_check(sq, beta, beta, ts, cfg.grid)
    t_star = 3 * math.pi / 8  # -pi/8 mod pi/2
    dist = float(np.min(np.abs(rep.attained_ts - t_star)))
    sup_dev = abs(rep.sup_constant - (1 - r) ** -0.5)
    i_star = int(np.argmin(np.abs(rep.ts - t_star)))
    psi_dev = abs(rep.psi_constants[i_star] - (1 + r) ** -0.5)
    divergence = rep.divergent
    gamma, gamma_p = 0.45, 0.475
    rep2 = osc.confinement_check(sq, beta, gamma, ts, cfg.grid)
    coeffs = ga.hermite_coeffs(sq, 80).coeffs
    k = np.arange(81)
    nz = np.abs(coeffs) > 0
    m_const = float(np.max(np.abs(coeffs[nz]) * np.exp(gamma_p * k[nz])))
    params = osc.ConfinementParams(beta, gamma, gamma_p)
    c_paper = osc.confinement_constant(params, m_const)
    c_sharp = osc.confinement_constant(params, m_const, sharp=True)
    return _result(
        "confinement",
        [
            ("no_divergence", 2.0 if divergence else 0.0),
            ("attained_near_minus_pi_8", dist / 1e-3),
            ("sup_closed_form", sup_dev / 1e-8),
            ("psi_constant_at_minus_pi_8", psi_dev / 1e-8),
            ("dominated_by_constant", rep2.sup_constant / c_sharp),
        ],
        f"sup {rep.sup_constant:.8f} vs (1-r)^-1/2 dev {sup_dev:.2e}; attained dist to "
        f"3pi/8: {dist:.2e}; psi-side at 3pi/8 vs (1+r)^-1/2 dev {psi_dev:.2e}; "
        f"gamma=0.45 sup {rep2.sup_constant:.4f} <= sharp {c_sharp:.4f} <= loose {c_paper:.4f}",
    )


def criterion_weighted_norm_identities(cfg: VerifyConfig) -> CriterionResult:
    """Closed-form ||phi_n||_a^2 equals the two-sided quadrature to 1e-6
    (n <= 30, a in {0.2, 0.5, 0.8}); the generating function matches its
    partial sums to 1e-8; the mu -> 1 collapse gives exactly 1."""
    worst_rel = 0.0
    phis = hermite_phi_all(30, cfg.wide_grid.xs)
    for a in (0.2, 0.5, 0.8):
        for n, phi_n in enumerate(phis):
            quad = wt.weighted_norm_sq(SampledFunction(cfg.wide_grid, phi_n), a, kmax=n)
            closed = wt.phi_weighted_norm_sq(n, a)
            worst_rel = max(worst_rel, abs(quad - closed) / closed)
    gf_dev = 0.0
    for a, w in ((0.5, 0.25), (0.2, 0.5)):
        lhs, rhs = wt.generating_function_check(a, w, 400)
        gf_dev = max(gf_dev, abs(lhs - rhs))
    conv_dev = max(abs(wt.central_binomial_convolution(n) - 1.0) for n in range(31))
    return _result(
        "weighted_norm_identities",
        [
            ("closed_vs_quadrature", worst_rel / 1e-6),
            ("generating_function", gf_dev / 1e-8),
            ("mu_to_1_collapse", conv_dev / 1e-12),
        ],
        f"max rel dev closed vs quadrature {worst_rel:.2e} (1e-6); generating-function "
        f"dev {gf_dev:.2e} (1e-8); collapse dev {conv_dev:.2e} (1e-12)",
    )


def criterion_factorial_certificate(cfg: VerifyConfig) -> CriterionResult:
    """The beta = 1.1 certificate validates Q_n n^{0.55} >= B for n <= 1e4,
    and Q(1e4) sqrt(pi 1e4) sits in [0.99, 1.01]."""
    cert = wt.central_binomial_certificate(1.1)
    n = np.arange(1, cert.n_checked + 1, dtype=float)
    margins = wt.log_central_binomial(n) + 0.55 * np.log(n) - math.log(cert.b)
    min_margin = float(margins.min())
    wallis = float(wt.central_binomial(10_000) * math.sqrt(math.pi * 10_000))
    return _result(
        "factorial_certificate",
        [
            ("certificate_margin", 0.0 if min_margin >= -1e-12 else 2.0),
            ("wallis_sanity", abs(wallis - 1.0) / 0.01),
        ],
        f"B = {cert.b:.6f} (proof constant {cert.b_proof:.6f}, m = {cert.m}); min log "
        f"margin over n<=1e4: {min_margin:.3e}; Q(1e4) sqrt(pi 1e4) = {wallis:.6f}",
    )


def criterion_uniform_norm_coeff_bound(cfg: VerifyConfig) -> CriterionResult:
    """With the squeezed state at beta = 0.5 and a = tanh(0.45): the bound
    from C = max_t ||psi_t||_a dominates |<psi_0, phi_k>| for k <= 60, and
    the fitted coefficient rate matches the sharp value beta to 1e-3."""
    beta = 0.5
    sq = ga.squeezed_state(beta)
    a = math.tanh(0.45)
    cert = wt.central_binomial_certificate(2.0)
    ts = osc.default_t_grid(cfg.t_grid_size)
    big_c = max(
        wt.weighted_norm(osc.evolve_gaussian(sq, float(t)).sample(cfg.grid), a, kmax=80)
        for t in ts
    )
    coeffs = ga.hermite_coeffs(sq, cfg.kmax).coeffs
    worst_ratio = 0.0
    for k in range(1, cfg.kmax + 1):
        ck = abs(coeffs[k])
        if ck == 0.0:
            continue
        ratio = ck / wt.confined_coeff_bound(k, a, big_c, 1.0, cert)
        worst_ratio = max(worst_ratio, ratio)
    fit = dc.decay_fit(ga.hermite_coeffs(sq, 100), (6, 100))
    rate_dev = abs(fit.alpha_hat - beta)
    return _result(
        "uniform_norm_coeff_bound",
        [("bound_dominance", worst_ratio), ("rate_sharpness", rate_dev / 1e-3)],
        f"C = {big_c:.6f}; max |coeff|/bound = {worst_ratio:.4f}; fitted rate "
        f"{fit.alpha_hat:.6f} vs beta = {beta} (dev {rate_dev:.2e}, tol 1e-3)",
    )


def criterion_hardy_threshold(cfg: VerifyConfig) -> CriterionResult:
    """At the self-dual parameter a = 1: the Gaussian classifies as a member
    with ground-state residual < 1e-8, phi_2 is rejected by divergence, and
    the coefficient bound decreases toward 0 as a -> 1."""
    rep = dc.hardy_classify(ga.gaussian(1.0).sample(cfg.grid), 1.0)
    residual = rep.ground_state_residual if rep.member else math.inf
    f2 = SampledFunction(cfg.grid, hermite_phi_all(2, cfg.grid.xs)[2])
    rep2 = dc.hardy_classify(f2, 1.0)
    monotone = True
    for k in (1, 2, 5, 10, 20):
        b = [dc.hardy_coeff_bound(k, av, 1.0) for av in (0.9, 0.99, 0.999)]
        monotone = monotone and b[0] > b[1] > b[2]
    return _result(
        "hardy_threshold",
        [
            ("gaussian_member", 0.0 if rep.member else 2.0),
            ("ground_state_residual", float(residual) / 1e-8),
            ("phi2_divergence", 0.0 if not rep2.member else 2.0),
            ("bound_vanishes", 0.0 if monotone else 2.0),
        ],
        f"g_1 member: {rep.member}, residual {residual:.2e} (1e-8); phi_2 rejected: "
        f"{not rep2.member}; bound decreasing at a = 0.9/0.99/0.999: {monotone}",
    )


ALL_CRITERIA = (
    criterion_normalization_pins,
    criterion_reflection_identity,
    criterion_coeff_bound_dominance,
    criterion_endpoint_sharpness,
    criterion_contour_machinery,
    criterion_oscillator_evolution,
    criterion_confinement,
    criterion_weighted_norm_identities,
    criterion_factorial_certificate,
    criterion_uniform_norm_coeff_bound,
    criterion_hardy_threshold,
)


def run_all(cfg: VerifyConfig | None = None) -> list[CriterionResult]:
    """Run every criterion and return the results in fixed order.

    A criterion that raises (for example because a degraded grid breaks a
    quadrature precondition) is recorded as a failure, not a crash: the
    suite always reports all criteria.
    """
    cfg = cfg or VerifyConfig()
    out = []
    for fn in ALL_CRITERIA:
        name = fn.__name__.removeprefix("criterion_")
        try:
            out.append(fn(cfg))
        except Exception as exc:  # noqa: BLE001 - report, never abort the suite
            out.append(
                CriterionResult(
                    name=name,
                    passed=False,
                    measured=math.inf,
                    threshold=1.0,
                    detail=f"raised {type(exc).__name__}: {exc}",
                )
            )
    return out
