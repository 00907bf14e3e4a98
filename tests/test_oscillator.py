"""Spectral oscillator flow, Gaussian closed-form flow, confinement, and
time-average projections."""

import cmath
import math

import numpy as np
import pytest

from gaussherm.errors import AliasingError
from gaussherm.gaussians import (
    GeneralizedGaussian,
    fourier_gaussian,
    hermite_coeffs,
    squeezed_state,
)
from gaussherm.hermite import (
    HermiteExpansion,
    analyze,
    fourier_expansion,
    synthesize,
    unit_expansion,
)
from gaussherm.oscillator import (
    ConfinementParams,
    confinement_check,
    confinement_constant,
    default_t_grid,
    evolve_expansion,
    evolve_gaussian,
    flow_sides,
    fourier_time_shift_check,
    sharp_confinement_probe,
    time_average_projection,
)

BETA = 0.5
R = math.exp(-2 * BETA)


def test_evolve_expansion_quarter_period_phase():
    e = evolve_expansion(unit_expansion(0), math.pi / 2)
    assert e.coeffs[0] == pytest.approx(1j, abs=1e-15)


def test_evolve_expansion_periodicity(rng):
    e = HermiteExpansion(rng.normal(size=30) + 1j * rng.normal(size=30))
    for t in (0.0, 0.7, 2.9):
        anti = evolve_expansion(e, t + math.pi).coeffs + evolve_expansion(e, t).coeffs
        assert np.max(np.abs(anti)) < 1e-12
        full = evolve_expansion(e, t + 2 * math.pi).coeffs - evolve_expansion(e, t).coeffs
        assert np.max(np.abs(full)) < 1e-12


def test_evolve_expansion_unitary(rng):
    e = HermiteExpansion(rng.normal(size=50) + 1j * rng.normal(size=50))
    for t in (0.1, 1.0, 5.0):
        assert evolve_expansion(e, t).norm_sq() == pytest.approx(e.norm_sq(), rel=1e-13)


def test_evolve_gaussian_ground_state_fixed_point():
    g = GeneralizedGaussian(2 ** 0.25, 1.0)
    out = evolve_gaussian(g, 0.9)
    assert out.width == pytest.approx(1.0, rel=1e-14)
    assert out.amplitude / g.amplitude == pytest.approx(cmath.exp(0.9j), rel=1e-13)


def test_evolve_gaussian_squeezed_envelope_cycle():
    sq = squeezed_state(BETA)
    at_m8 = evolve_gaussian(sq, -math.pi / 8)
    assert at_m8.width.real == pytest.approx(math.tanh(BETA), rel=1e-12)
    assert abs(at_m8.width.imag) < 1e-13
    assert abs(at_m8.amplitude) == pytest.approx((1 + R) ** -0.5, rel=1e-12)
    at_p8 = evolve_gaussian(sq, math.pi / 8)
    assert at_p8.width.real == pytest.approx(1 / math.tanh(BETA), rel=1e-12)
    assert abs(at_p8.amplitude) == pytest.approx((1 - R) ** -0.5, rel=1e-12)


@pytest.mark.parametrize("t", [0.1, math.pi / 8, 1.0, 3.0])
def test_flow_oracle_agreement_closed_form(t):
    """Moebius flow + branch-tracked amplitude vs pure spectral phases."""
    sq = squeezed_state(BETA)
    lhs = hermite_coeffs(evolve_gaussian(sq, t), 60).coeffs
    rhs = evolve_expansion(hermite_coeffs(sq, 60), t).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_flow_oracle_agreement_quadrature(grid):
    t = 1.0
    sq = squeezed_state(BETA)
    lhs = analyze(evolve_gaussian(sq, t).sample(grid), 60).coeffs
    rhs = evolve_expansion(analyze(sq.sample(grid), 60), t).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_flow_preserves_width_positivity_long_times():
    g = GeneralizedGaussian(1.0, 0.05 + 0.8j)
    for t in np.linspace(-7, 7, 29):
        assert evolve_gaussian(g, float(t)).width.real > 0


def test_fourier_time_shift_identity(rng):
    e = HermiteExpansion(rng.normal(size=20) + 1j * rng.normal(size=20))
    for t in (0.0, 0.83, 2.0):
        assert fourier_time_shift_check(e, t) < 1e-12


def test_fourier_time_shift_gaussian_cross_check(grid):
    """|F(psi_t)| = |psi_{t-pi/4}| via the closed-form Gaussian routes."""
    sq = squeezed_state(BETA)
    for t in (0.2, 1.1):
        hat = fourier_gaussian(evolve_gaussian(sq, t))
        shifted = evolve_gaussian(sq, t - math.pi / 4)
        xs = grid.xs[:: 256]
        assert np.abs(hat(xs)) == pytest.approx(np.abs(shifted(xs)), rel=1e-10)


def test_envelope_constant_periodicity():
    sq = squeezed_state(BETA)
    for t in (0.13, 0.9):
        c1 = abs(evolve_gaussian(sq, t).amplitude)
        c2 = abs(evolve_gaussian(sq, t + math.pi / 2).amplitude)
        assert c1 == pytest.approx(c2, rel=1e-12)


def test_confinement_params_validation():
    with pytest.raises(ValueError):
        ConfinementParams(0.5, 0.5, 0.45)
    with pytest.raises(ValueError):
        ConfinementParams(0.5, 0.3, 0.6)
    p = ConfinementParams(0.5, 0.3, 0.4)
    assert p.r == pytest.approx(0.75)


def test_confinement_constant_values():
    p = ConfinementParams(1.0, 0.5, 0.75)
    loose = confinement_constant(p, 1.0)
    geometric = 1 / (1 - math.exp(-0.5))
    mehler = 2 ** 0.25 * (1 - math.exp(-2.0)) ** -0.25
    assert loose == pytest.approx(geometric * mehler, rel=1e-13)
    sharp = confinement_constant(p, 1.0, sharp=True)
    assert sharp == pytest.approx(math.sqrt(geometric) * mehler, rel=1e-13)
    assert sharp < loose
    # large-gap limit: the geometric factor tends to 1
    wide = ConfinementParams(60.0, 0.5, 50.0)
    assert confinement_constant(wide, 1.0) == pytest.approx(mehler, rel=1e-8)


def test_flow_sides_expansion_matches_synthesis(grid, rng):
    e = HermiteExpansion(rng.normal(size=12) + 1j * rng.normal(size=12))
    ts = default_t_grid(8)
    sides = list(flow_sides(e, ts, grid))
    assert len(sides) == ts.size
    for t, (side_p, side_f) in zip(ts, sides):
        et = evolve_expansion(e, float(t))
        assert np.array_equal(side_p.values, synthesize(et, grid).values)
        assert np.array_equal(side_f.values, synthesize(fourier_expansion(et), grid).values)


def test_flow_sides_gaussian_is_closed_form(grid):
    sq = squeezed_state(BETA)
    ts = [0.0, 0.4, 2.1]
    sides = list(flow_sides(sq, ts, grid))
    assert len(sides) == len(ts)
    for t, (side_p, side_f) in zip(ts, sides):
        gt = evolve_gaussian(sq, t)
        assert np.array_equal(side_p.values, gt.sample(grid).values)
        assert np.array_equal(side_f.values, fourier_gaussian(gt).sample(grid).values)


def test_confinement_check_ground_state(grid):
    state = GeneralizedGaussian(2 ** 0.25, 1.0)
    rep = confinement_check(state, 1.0, 0.9, default_t_grid(16), grid)
    assert not rep.divergent
    assert rep.psi_constants == pytest.approx(np.full(16, 2 ** 0.25), rel=1e-12)


def test_confinement_check_squeezed_at_gamma_beta(grid):
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, BETA, default_t_grid(64), grid)
    assert not rep.divergent
    assert rep.sup_constant == pytest.approx((1 - R) ** -0.5, rel=1e-10)
    t_star = 3 * math.pi / 8  # -pi/8 mod pi/2
    assert np.min(np.abs(rep.attained_ts - t_star)) < 1e-9
    i_star = int(np.argmin(np.abs(rep.ts - t_star)))
    assert rep.psi_constants[i_star] == pytest.approx((1 + R) ** -0.5, rel=1e-10)


def test_confinement_check_expansion_rep_agrees(grid):
    ts = default_t_grid(8)
    g_state = squeezed_state(BETA)
    e_state = hermite_coeffs(squeezed_state(BETA), 70)
    rep_g = confinement_check(g_state, BETA, 0.45, ts, grid)
    rep_e = confinement_check(e_state, BETA, 0.45, ts, grid)
    assert rep_e.psi_constants == pytest.approx(rep_g.psi_constants, rel=1e-8)


def test_confinement_check_divergence_reported(grid):
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, 0.6, default_t_grid(16), grid)
    assert rep.divergent
    assert rep.first_divergent_t is not None


def test_confinement_dominated_by_assembled_constant(grid):
    gamma, gamma_p = 0.45, 0.475
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, gamma, default_t_grid(32), grid)
    coeffs = hermite_coeffs(squeezed_state(BETA), 80).coeffs
    k = np.arange(81)
    nz = np.abs(coeffs) > 0
    m_const = float(np.max(np.abs(coeffs[nz]) * np.exp(gamma_p * k[nz])))
    p = ConfinementParams(BETA, gamma, gamma_p)
    assert rep.sup_constant <= confinement_constant(p, m_const, sharp=True)
    assert rep.sup_constant <= confinement_constant(p, m_const)


def test_sharp_confinement_probe_stable(grid):
    state = squeezed_state(BETA)
    probe = sharp_confinement_probe(state, BETA, default_t_grid(32), grid)
    assert probe.stable
    assert probe.sup_change < 1e-6
    assert probe.report.sup_constant == pytest.approx((1 - R) ** -0.5, rel=1e-9)


def test_time_average_projection_even_and_negative_vanish(rng):
    e = HermiteExpansion(rng.normal(size=9) + 1j * rng.normal(size=9))
    for n in (2, 0, -3, -8):
        out = time_average_projection(e, n, 200)
        assert np.max(np.abs(out.coeffs)) < 1e-12


def test_time_average_projection_picks_single_component(rng):
    e = HermiteExpansion(rng.normal(size=9) + 1j * rng.normal(size=9))
    for n, k in ((1, 0), (7, 3), (17, 8)):
        out = time_average_projection(e, n, 200)
        assert out.coeffs[k] == pytest.approx(e.coeffs[k], rel=1e-12)
        rest = np.delete(out.coeffs, k)
        assert np.max(np.abs(rest)) < 1e-12


def test_time_average_projection_aliasing_guard(rng):
    e = HermiteExpansion(rng.normal(size=9))
    with pytest.raises(AliasingError):
        time_average_projection(e, 1, 2 * (2 * 9 + 1))
