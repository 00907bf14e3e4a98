"""Spectral oscillator flow, Gaussian closed-form flow, and confinement."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from gaussherm import oscillator
from gaussherm.decay import sample_peak
from gaussherm.errors import NumericalDomainError
from gaussherm.gaussians import (
    GeneralizedGaussian,
    boundary_chirp,
    envelope_membership,
    fourier_gaussian,
    gaussian_energy,
    hermite_coeffs,
    squeezed_state,
)
from gaussherm.grid import DEFAULT_GRID, GridSpec
from gaussherm.hermite import (
    BASIS_BYTES_CAP,
    HermiteExpansion,
    analyze,
    band_limit,
    fourier_expansion,
    grid_basis,
    hermite_phi_all,
    unit_expansion,
)
from gaussherm.oscillator import (
    ConfinementParams,
    confinement_check,
    confinement_constant,
    default_t_grid,
    evolve_expansion,
    evolve_gaussian,
    flow_envelopes,
    fourier_time_shift_check,
    _expansion_grid,
    _log_dilation,
)

BETA = 0.5
R = math.exp(-2 * BETA)


def _dot_real(c, m):
    """c @ m for complex c and real m, as two real products."""
    return c.real @ m + 1j * (c.imag @ m)


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


def test_flow_refuses_a_time_whose_phase_overflows():
    """2t (Gaussian) or (2K+1)t (expansion up to index K) past the double
    range is refused, naming t; the largest phases that fit still run."""
    g, e = GeneralizedGaussian(1.0, 0.5), unit_expansion(3)
    for t in (1e308, -1e308):
        with pytest.raises(NumericalDomainError, match="e\\+308"):
            evolve_gaussian(g, t)
        with pytest.raises(NumericalDomainError, match="7t"):
            evolve_expansion(e, t)
    assert evolve_gaussian(g, 8e307).width.real > 0
    assert evolve_expansion(e, 2.5e307).norm_sq() == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(NumericalDomainError):
        evolve_expansion(e, 2.6e307)


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


@pytest.mark.parametrize("t", [0.1, math.pi / 8, 1.0, 3.0, 1e3, -1e3])
def test_flow_oracle_agreement_closed_form(t):
    """Moebius flow + principal-root amplitude vs pure spectral phases."""
    sq = squeezed_state(BETA)
    lhs = hermite_coeffs(evolve_gaussian(sq, t), 60).coeffs
    rhs = evolve_expansion(hermite_coeffs(sq, 60), t).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("g", [
    squeezed_state(BETA),
    boundary_chirp(0.27465),
    boundary_chirp(1e-3),
    GeneralizedGaussian(0.7 - 0.2j, 0.3 + 1.1j),
], ids=["squeezed", "chirp", "wide-chirp", "complex-width"])
def test_flow_keeps_coefficient_moduli_at_long_times(g):
    """The flow only rotates coefficient phases; the closed form takes no
    longer at t = 1e300 than at t = 1, and returns the width at t = 0."""
    assert evolve_gaussian(g, 0.0).width == g.width
    ref = np.abs(hermite_coeffs(g, 60).coeffs)
    for t in (1e3, -1e4, 1e12, 1e300):
        got = np.abs(hermite_coeffs(evolve_gaussian(g, t), 60).coeffs)
        assert np.max(np.abs(got - ref)) < 1e-10


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


def test_flow_envelopes_gaussian_is_closed_form():
    sq = squeezed_state(BETA)
    ts = [0.0, 0.4, 2.1, 1e12]
    rows = list(flow_envelopes(sq, ts, 0.45))
    assert len(rows) == len(ts)
    norm0 = hermite_coeffs(sq, 200).norm_sq()  # the flow is unitary
    for t, (norm, mem) in zip(ts, rows):
        assert mem == envelope_membership(evolve_gaussian(sq, t), 0.45)
        assert norm == pytest.approx(norm0, rel=1e-12)
    assert rows[0][1] == envelope_membership(sq, 0.45)  # the flow at t = 0 is g itself


def _gaussian_family():
    """Squeezed states, chirps and seeded Gaussians A e^{-b x^2/2}."""
    rng = np.random.default_rng(31)
    out = [squeezed_state(beta) for beta in (0.2, 0.5, 0.854728)]
    out += [boundary_chirp(alpha) for alpha in (0.15, 0.27465, 0.7)]
    for _ in range(6):
        amp = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        out.append(GeneralizedGaussian(amp, complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0))))
    return out


@pytest.mark.parametrize("size", [1, 7, 32, 64])
@pytest.mark.parametrize("as_list", [False, True], ids=["int", "list"])
def test_flow_envelopes_gaussian_rows_are_the_evolved_gaussians(size, as_list):
    """Each row of a Gaussian's flow, formed from A and b without building
    a Gaussian per time, equals the membership and energy of the Gaussian
    that evolve_gaussian builds, exactly, on the t grid given as its size
    and as its times."""
    ts = default_t_grid(size)
    for g in _gaussian_family():
        for a in (0.1, 0.45, 0.9):
            rows = list(flow_envelopes(g, list(ts) if as_list else size, a))
            assert len(rows) == size
            for t, (norm, mem) in zip(ts, rows):
                gt = evolve_gaussian(g, float(t))
                assert mem == envelope_membership(gt, a)
                assert norm == gaussian_energy(gt)


def _mp_weighted(coeffs, a, x, mp):
    """|sum_k c_k phi_k(x)| e^{a x^2/2} in mpmath, by the three-term
    recurrence (stable upward, and nothing underflows at mpmath's range)."""
    x = mp.mpf(x)
    p_prev, p = mp.mpf(0), mp.mpf(2) ** 0.25 * mp.exp(-x * x / 2)
    total = mp.mpc(coeffs[0]) * p
    for k in range(1, len(coeffs)):
        p, p_prev = x * mp.sqrt(mp.mpf(2) / k) * p - mp.sqrt(mp.mpf(k - 1) / k) * p_prev, p
        total += mp.mpc(coeffs[k]) * p
    return abs(total) * mp.exp(mp.mpf(a) * x * x / 2)


def _dilated_samples(coeffs, a, ys):
    """|f(g y)| e^{a (g y)^2/2} at the points ys from the dilation matrix,
    g = (1-a)^{-1/2}."""
    k = len(coeffs) - 1
    return np.abs((coeffs @ np.exp(_log_dilation(k, a))) @ hermite_phi_all(k, ys))


def _mp_sup(coeffs, a, grid):
    """sup over x of |f(x)| e^{a x^2/2}, and where: golden-section
    maximisation in mpmath between the neighbours of every local maximum of
    the dilated samples within 1e-3 of their largest (the sup is within
    O(h^2) of the samples, so no other peak can hold it); of two mirrored
    peaks of equal samples, the one at x < 0."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    s, n = _dilated_samples(coeffs, a, grid.xs), grid.num_points
    g, inv_phi = 1 / math.sqrt(1 - a), (math.sqrt(5) - 1) / 2
    best = (mp.mpf(0), 0.0)
    for j in np.flatnonzero(s >= s.max() * (1 - 1e-3)):
        if not s[j] >= s[max(j - 1, 0)] or not s[j] >= s[min(j + 1, n - 1)]:
            continue
        if j > n // 2 and s[n - j] == s[j]:
            continue
        lo, hi = mp.mpf(g * grid.xs[max(j - 1, 0)]), mp.mpf(g * grid.xs[min(j + 1, n - 1)])
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        fc, fd = _mp_weighted(coeffs, a, c, mp), _mp_weighted(coeffs, a, d, mp)
        for _ in range(40):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - inv_phi * (hi - lo)
                fc = _mp_weighted(coeffs, a, c, mp)
            else:
                lo, c, fc = c, d, fd
                d = lo + inv_phi * (hi - lo)
                fd = _mp_weighted(coeffs, a, d, mp)
        best = max(best, (fc, float(c)), (fd, float(d)))
    return float(best[0]), best[1]


def _assert_is_the_sup(report, coeffs, a):
    """The constant falls short of the mpmath sup by at most 1e-3 relative
    (the samples' spacing) and exceeds it by at most 1e-12 (rounding), at
    an argmax within one dilated grid step of a maximiser (or its mirror),
    on the grid of the expansion's degree."""
    grid = _expansion_grid(len(coeffs) - 1)
    sup, x_star = _mp_sup(coeffs, a, grid)
    assert sup * (1 - 1e-3) <= report.constant <= sup * (1 + 1e-12)
    assert abs(abs(report.argmax_x) - abs(x_star)) <= grid.spacing / math.sqrt(1 - a)
    assert not report.divergent


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 0.99])
def test_dilation_matrix_matches_mpmath(a):
    """f(x) e^{a x^2/2} = sum_m (c @ M)_m phi_m(x/g), g = (1-a)^{-1/2}: at
    every 64th point y_j of the grid of the expansion's degree, against
    mpmath at x = g y_j, to 1e-12 of the largest sample, for phi_k (k <= 120)
    and four seeded expansions."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(20261019)
    cases = [unit_expansion(k).coeffs for k in (0, 1, 2, 3, 20, 40, 81, 100, 120)]
    cases += [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (5, 30, 82, 121)]
    g = 1 / math.sqrt(1 - a)
    for coeffs in cases:
        ys = _expansion_grid(len(coeffs) - 1).xs[::64]
        got = _dilated_samples(coeffs, a, ys)
        ref = np.array([float(_mp_weighted(coeffs, a, g * y, mp)) for y in ys])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref), len(coeffs)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 0.99])
def test_expansion_constant_is_the_sup(a):
    """Both sides of phi_k (k in {3, 20, 40, 81, 100, 120}) and of four
    seeded expansions, against an mpmath maximisation of the weighted
    modulus; past the default grid's band limit (81) on the grid of the
    expansion's degree."""
    rng = np.random.default_rng(20261020)
    cases = [unit_expansion(k) for k in (3, 20, 40, 81, 100, 120)]
    cases += [HermiteExpansion(rng.normal(size=n) + 1j * rng.normal(size=n))
              for n in (5, 30, 82, 121)]
    for e in cases:
        (_, mem), = flow_envelopes(e, [0.0], a)
        assert mem.member
        _assert_is_the_sup(mem.time_report, e.coeffs, a)
        _assert_is_the_sup(mem.frequency_report, fourier_expansion(e).coeffs, a)


def test_flow_envelopes_expansion_scans_the_sides(rng):
    e = HermiteExpansion(rng.normal(size=12) + 1j * rng.normal(size=12))
    ts = default_t_grid(4)
    rows = list(flow_envelopes(e, ts, 0.3))
    for t, (norm, mem) in zip(ts, rows):
        assert norm == e.norm_sq()  # the flow is unitary
        et = evolve_expansion(e, float(t))
        _assert_is_the_sup(mem.time_report, et.coeffs, 0.3)
        _assert_is_the_sup(mem.frequency_report, fourier_expansion(et).coeffs, 0.3)


def test_expansion_grid_reaches_every_admitted_k():
    """For every K whose basis the 256 MiB budget admits, the grid of K is
    the default grid's spacing widened to the least half-width whose band
    limit reaches K (the default grid itself up to 81), and its (K+1) x N
    basis is larger than the (K+1) x (K+1) dilation matrix, so the basis
    check refuses first.  Only GridSpecs are made."""
    k = 0
    while (k + 1) * _expansion_grid(k).num_points * 8 <= BASIS_BYTES_CAP:
        grid = _expansion_grid(k)
        assert band_limit(grid) >= k and (k + 1) ** 2 < (k + 1) * grid.num_points
        assert grid.spacing == DEFAULT_GRID.spacing and grid.num_points >= 4096
        if k <= band_limit(DEFAULT_GRID):
            assert grid == DEFAULT_GRID
        else:
            n = grid.num_points - 2
            assert band_limit(GridSpec(n * grid.spacing / 2, n)) < k
        k += 1
    assert k == 1765


def _per_time_sides(e, ts, a):
    """Each t on its own, as the flow was taken before its times ran in
    blocks: evolve, transform, two real products per side through the
    dilation and the basis, and the peak of the complex moduli.  Yields
    ((constant, argmax_x), (constant, argmax_x), divergent, weighted moduli
    of both sides) per t."""
    c, top = e.coeffs, np.flatnonzero(e.coeffs)
    grid = _expansion_grid(len(c) - 1)
    if a >= 1.0 or not top.size:
        phi, xs, shift, w = hermite_phi_all(len(c) - 1, [0.0]), np.zeros(1), 0, None
        divergent = bool(top.size) and (a > 1.0 or bool(top[-1]))
    else:
        phi, xs, divergent = grid_basis(grid, len(c) - 1), grid.xs / math.sqrt(1 - a), False
        log_w = _log_dilation(len(c) - 1, a)
        with np.errstate(divide="ignore"):
            log_w += np.log(np.abs(c))[:, None]
        shift = int(np.max(log_w) // math.log(2.0))
        w = np.exp(log_w - shift * math.log(2.0))
        e = HermiteExpansion(np.exp(1j * np.angle(c)))
    for t in ts:
        et = evolve_expansion(e, float(t))
        sides = (et.coeffs, fourier_expansion(et).coeffs)
        sides = sides if w is None else [_dot_real(d, w) for d in sides]
        moduli = [np.abs(_dot_real(d, phi)) for d in sides]
        peaks = [sample_peak(m, xs) for m in moduli]
        yield [(math.ldexp(p, shift), x) for p, x in peaks], divergent, moduli, xs


def _assert_same_side(report, expected, moduli, xs):
    """Constants within 2e-15 relative; the same argmax_x unless the two
    samples tie to rounding at the 1e-12 tie tolerance."""
    constant, x = expected
    assert abs(report.constant - constant) <= 2e-15 * constant
    if report.argmax_x != x:
        top, there = moduli.max(), moduli[np.flatnonzero(xs == report.argmax_x)[0]]
        assert abs(there - top * (1 - 1e-12)) <= 4e-15 * top


@pytest.mark.parametrize("a", [0.3, 0.9, 0.99, 1.0, 1.5])
def test_blocked_flow_matches_the_per_time_flow(a, monkeypatch):
    """The blocked product gives the per-time flow's constants to 2e-15
    relative, its argmax_x (but at exact ties), its divergence and, through
    ``confinement_check``, its attaining times: K in {0, 1, 5, 40, the
    default grid's band limit, 120}; 1, 7 and 64 times as lists, and 64 as
    the grid's size, whose rows t < pi/4 are formed (the rest are their sides
    swapped, :func:`test_half_table_is_the_first_half_swapped`); block-1 and
    block+1 times with blocks of 8 times; an unsorted list with negative
    times."""
    rng = np.random.default_rng(20261021)
    times = [(None, default_t_grid(n)) for n in (1, 7, 64)] + [(None, 64)]
    times += [(8, default_t_grid(n)) for n in (7, 9)]
    times.append((None, np.array([1.3, -0.2, 5.0, -7.1, 0.0, 0.7, -2.5])))
    for kmax in (0, 1, 5, 40, band_limit(DEFAULT_GRID), 120):
        c = (rng.normal(size=kmax + 1) + 1j * rng.normal(size=kmax + 1)) * 0.9 ** np.arange(kmax + 1)
        e = HermiteExpansion(c)
        for block, ts in times:
            if block is not None:
                monkeypatch.setattr(oscillator, "_FLOW_TIMES", block)
            rows = list(flow_envelopes(e, ts, a))
            monkeypatch.undo()
            grid = default_t_grid(ts) if isinstance(ts, int) else ts
            formed = len(grid) // 2 if isinstance(ts, int) else len(grid)
            assert len(rows) == len(grid)
            for (norm, mem), (sides, divergent, moduli, xs) in zip(
                    rows[:formed], _per_time_sides(e, grid[:formed], a)):
                assert norm == e.norm_sq()
                reports = (mem.time_report, mem.frequency_report)
                for report, expected, m in zip(reports, sides, moduli):
                    _assert_same_side(report, expected, m, xs)
                    assert report.divergent is divergent
            if a < 1:
                gamma = math.atanh(a)
                rep = confinement_check(e, 1.0, gamma, ts)
                both = np.array([max(p[0] for p in sides)
                                 for sides, *_ in _per_time_sides(e, grid, rep.a)])
                assert not rep.divergent
                assert np.array_equal(rep.attained_ts, grid[both >= both.max() * (1 - 1e-9)])


def _mirrored_peak(rows, edge, xs):
    """``sample_peak`` of squared moduli read at -x on a grid-like xs
    (xs[N-i] = -xs[i]): sample i is row sample N-i, and sample 0, whose
    mirror is not on the grid, is ``edge``."""
    return sample_peak(np.concatenate([edge[:, None], rows[:, :0:-1]], axis=1), xs, squared=True)


@pytest.mark.parametrize("cols", [1, 2, 3, 5, 8, 13, 40])
def test_streamed_peak_keeps_the_sample_peak_rule(cols):
    """Column blocks give sample_peak's top and argmax_x bit for bit, and
    with the edge column the odd rows' top and argmax_x read at -x: exact
    mirrored ties (the first, negative, x wins, on the samples read at -x
    too), a near tie inside (1 - 1e-12)^2 at a smaller |x| than the top, one
    just outside it at a smaller |x| still, a flat row, a zero row, random
    rows, an odd row whose top is at x_0 = -L (which its mirror does not
    read) and one whose top is the edge column (read at x_0).  The real parts
    are the rows themselves, in pairs, and the imaginary parts 0, so the
    squared moduli are phi^2."""
    rng = np.random.default_rng(20261019)
    n = 40
    xs = np.arange(n) - n / 2.0  # a grid's points: x_0 = -20 has no mirror
    by_distance = rng.random((3, n // 2 + 1))
    symmetric = by_distance[:, np.abs(np.arange(n) - n // 2)]  # phi(x) = phi(-x)
    phi = np.vstack([symmetric, np.zeros(n), np.ones(n), np.zeros(n), rng.random((4, n))])
    phi[3, [3, 30, 20]] = [1.0, 1.0 - 0.5e-12, 1.0 - 2e-12]  # top, inside, outside
    phi[7, 0] = 2.0  # the odd row's top at -L
    edge = rng.random(len(phi) // 2)
    edge[4] = 9.0  # odd row 9 read at -x: its top is the edge column (squared moduli)
    eye = np.eye(len(phi))
    parts = np.stack([eye[0::2], eye[1::2], 0 * eye[0::2], 0 * eye[1::2]], axis=1)
    parts = parts.reshape(-1, len(phi))
    want_tops, want_x = sample_peak(phi * phi, xs, squared=True)
    tops, xmax = oscillator._streamed_peak(parts, phi, xs, cols)
    assert np.array_equal(tops, want_tops) and np.array_equal(xmax, want_x)
    tops, xmax, mtops, mx = oscillator._streamed_peak(parts, phi, xs, cols, edge)
    assert np.array_equal(tops, want_tops) and np.array_equal(xmax, want_x)
    want_mtops, want_mx = _mirrored_peak((phi * phi)[1::2], edge, xs)
    assert np.array_equal(mtops, want_mtops) and np.array_equal(mx, want_mx)
    assert xmax[3] == 10.0 and xmax[4] == xmax[5] == 0.0 and xmax[7] == -20.0
    assert np.all(xmax[:3] <= 0) and mx[0] <= 0  # the ties at -x and x: -x
    assert mtops[3] < 4.0 and mx[3] != 20.0  # -L is not read at -x
    assert mtops[4] == 9.0 and mx[4] == -20.0  # the edge column is


def _frequency_at(e, t, a, monkeypatch):
    """One time's frequency-side squared moduli, on the grid of the degree
    (x = 0 at a >= 1) and at -xs[0], from the rows ``flow_envelopes(e, [t],
    a)`` forms; the grid's points scaled by the dilation, and 2^shift, the
    factor of the constants over the square roots of the moduli."""
    seen, moduli_sq = [], oscillator._moduli_sq
    monkeypatch.setattr(oscillator, "_moduli_sq",
                        lambda parts, phi: seen.append(parts) or moduli_sq(parts, phi))
    (_, mem), = flow_envelopes(e, [t], a)
    monkeypatch.undo()
    kmax = len(e) - 1
    if a >= 1.0 or not e.coeffs.any():
        phi, xs = hermite_phi_all(kmax, [0.0]), np.zeros(1)
    else:
        grid = _expansion_grid(kmax)
        phi, xs = grid_basis(grid, kmax), grid.xs / math.sqrt(1 - a)
    parity = (-1.0) ** np.arange(kmax + 1)
    sq = moduli_sq(seen[0], phi)[1:]
    edge = moduli_sq(seen[0], phi[:, :1] * parity[:, None])[1]
    report = mem.frequency_report
    scale = report.constant / math.sqrt(sq.max()) if sq.max() > 0 else 1.0
    return sq, edge, xs, scale


def _one_parity(rng, kmax: int, decay: float = 1.0) -> HermiteExpansion:
    """A seeded expansion of degree kmax whose nonzero coefficients sit at
    the indices of kmax's parity, times decay^k: phi_k(-x) = (-1)^k phi_k(x),
    so its |psi_t| and |psihat_t| are even in x at every t, and mirrored
    samples tie exactly, as they do for phi_kmax alone."""
    k = np.arange(kmax % 2, kmax + 1, 2)
    c = np.zeros(kmax + 1, dtype=complex)
    c[k] = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * decay ** k
    return HermiteExpansion(c)


#: Seeded expansions of one parity at K in {3, 40, 81, 300} and three
#: seeded dense expansions.
def _half_table_cases():
    rng = np.random.default_rng(20261025)
    cases = [_one_parity(rng, k, 0.95) for k in (3, 40, 81, 300)]
    return cases + [HermiteExpansion((rng.normal(size=n) + 1j * rng.normal(size=n))
                                     * 0.95 ** np.arange(n)) for n in (12, 64, 301)]


@pytest.mark.parametrize("a", [0.3, 0.9, 1.5])
def test_half_table_is_the_first_half_swapped(a, monkeypatch):
    """On ``default_t_grid(T)``, T even, each row t_j < pi/4 is the flow at
    t_j alone, ``flow_envelopes(e, [t_j], a)``, bit for bit.  Row j + T/2 is
    row j with its sides swapped, bit for bit: its frequency report is row
    j's time report, and its time report is row j's frequency samples read
    at -x, sample_peak's tie rule on the mirrored x and the column at -xs[0]
    included.  Every constant is within 1e-12 relative of the flow at that
    time alone.  The |psi_t| of an expansion of one parity is even in x, so
    mirrored samples tie and the negative x wins on both sides.  T in {2, 8,
    32, 64, 200}."""
    for i, e in enumerate(_half_table_cases()):
        alone = {}
        for size in (2, 8, 32, 64, 200):
            ts = default_t_grid(size)
            rows = list(flow_envelopes(e, size, a))
            assert len(rows) == size
            for j, (norm, mem) in enumerate(rows[:size // 2]):
                (n1, mem1), = flow_envelopes(e, [ts[j]], a)
                assert norm == n1 and mem == mem1
                (_, later), = flow_envelopes(e, [ts[j + size // 2]], a)
                _, swapped = rows[j + size // 2]
                assert swapped.frequency_report == mem.time_report
                if ts[j] not in alone:
                    sq, edge, xs, scale = _frequency_at(e, ts[j], a, monkeypatch)
                    top, x = _mirrored_peak(sq, edge, xs)
                    alone[ts[j]] = (float(np.sqrt(top[0])) * scale, x[0])
                assert swapped.time_report.constant == alone[ts[j]][0]
                assert swapped.time_report.argmax_x == alone[ts[j]][1]
                assert swapped.time_report.divergent is mem.frequency_report.divergent
                for r, want in ((swapped.time_report, later.time_report),
                                (swapped.frequency_report, later.frequency_report)):
                    assert abs(r.constant - want.constant) <= 1e-12 * want.constant
                if a < 1 and i < 4:
                    assert swapped.time_report.argmax_x <= 0
                    assert swapped.frequency_report.argmax_x <= 0


@pytest.mark.parametrize("size", [1, 3, 7, 65])
def test_odd_grids_form_every_time(size):
    """An odd T, T = 1 among them, forms every row: the grid's size gives the
    rows of its times as a list, bit for bit."""
    for e in _half_table_cases()[:1] + _half_table_cases()[4:6]:
        for a in (0.3, 1.5):
            assert (list(flow_envelopes(e, size, a))
                    == list(flow_envelopes(e, default_t_grid(size), a)))


@pytest.mark.parametrize("a", [0.3, 0.9, 1.5])
def test_streamed_flow_keeps_the_sample_peak_rule(a, monkeypatch):
    """Blocks of up to 64 formed times with the basis streamed in column
    blocks give each formed row's top and argmax_x bit for bit as
    ``decay.sample_peak`` on its full row of squared moduli, formed from the
    same products, and on an even grid its frequency row's read at -x as
    sample_peak gives them on the mirrored row: seeded expansions of one
    parity at K in {3, 40, 70, 81}, whose |psi_t| is even in x so mirrored x
    tie exactly (the first, negative, x wins), seeded dense expansions, and
    K = 120 on its wider grid; T in {1, 8, 63, 64, 65, 200} (1, 4, 63, 32, 65
    and 100 formed times).  At a >= 1 (the degree rule) the grid is x = 0 and
    the one-pass rule itself runs."""
    rng = np.random.default_rng(20261019)
    phis = [_one_parity(rng, k) for k in (3, 40, 70, 81)]
    cases = phis + [HermiteExpansion(rng.normal(size=n) + 1j * rng.normal(size=n))
                    for n in (12, 60)]
    cases.append(HermiteExpansion((rng.normal(size=121) + 1j * rng.normal(size=121))
                                  * 0.97 ** np.arange(121)))
    streamed = []
    real_streamed_peak = oscillator._streamed_peak

    def checked(parts, phi, xs, cols, edge=None):
        out = real_streamed_peak(parts, phi, xs, cols, edge)
        rows = np.hstack([oscillator._moduli_sq(parts, phi[:, s:s + cols])
                          for s in range(0, len(xs), cols)])
        want = sample_peak(rows, xs, squared=True)
        if edge is not None:
            want += _mirrored_peak(rows[1::2], edge, xs)
        assert len(out) == len(want)
        assert all(np.array_equal(got, w) for got, w in zip(out, want))
        streamed.append((len(out[0]) // 2, edge is not None))
        return out

    monkeypatch.setattr(oscillator, "_streamed_peak", checked)
    for i, e in enumerate(cases):
        for size in (1, 8, 63, 64, 65, 200):
            rows = list(flow_envelopes(e, size, a))
            assert len(rows) == size
            if a < 1 and i < len(phis):
                assert all(r.argmax_x <= 0 for _, mem in rows
                           for r in (mem.time_report, mem.frequency_report))
    if a < 1:  # every T past 1 streams, and T = 1 on the grid wider than the default
        assert max(streamed) == (64, True) and (1, False) in streamed
        assert (63, False) in streamed and (36, True) in streamed  # 200: 64 + 36 formed
    else:
        assert not streamed


def test_degree_rule_blocks_stay_small_past_the_basis_budget():
    """At a >= 1 the grid is the one point x = 0, so K is not bounded by the
    basis budget: at K = 20000 a block holds the few times whose rows fit
    ``_FLOW_ROW_BYTES``, not 64 (41 MB of rows), and each time of a seeded
    dense expansion reads as it does alone."""
    rng = np.random.default_rng(20261029)
    e = HermiteExpansion(rng.normal(size=20001) + 1j * rng.normal(size=20001))
    ts = default_t_grid(64)
    tracemalloc.start()
    try:
        rows = list(flow_envelopes(e, ts, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * oscillator._FLOW_ROW_BYTES
    for t, (_, mem) in zip(ts[:3], rows):
        (_, alone), = flow_envelopes(e, [t], 1.5)
        assert mem == alone and not mem.member


@pytest.mark.parametrize("a", [0.3, 0.9, 1.5])
def test_single_term_flow_is_its_t0_row_at_every_time(a):
    """An expansion with at most one nonzero coefficient is stationary in
    modulus: every row ``flow_envelopes`` yields, on ``default_t_grid(T)``
    for T in {1, 7, 64, 200} and on an unsorted list with negative times, is
    the row of ``ts = [0.0]``, ==.  phi_k for k in {0, 1, 3, 40, 81, 300},
    (2 - 3i) phi_5 in a vector of 12, and the zero expansion.  A time whose
    phase overflows is still refused before any row is yielded."""
    cases = [unit_expansion(k) for k in (0, 1, 3, 40, 81, 300)]
    cases += [HermiteExpansion(np.where(np.arange(12) == 5, 2.0 - 3.0j, 0.0)),
              HermiteExpansion(np.zeros(4))]
    times = [1, 7, 64, 200, np.array([1.3, -0.2, 5.0, -7.1, 0.0, 0.7, -2.5])]
    for e in cases:
        (want,) = flow_envelopes(e, [0.0], a)
        for ts in times:
            rows = list(flow_envelopes(e, ts, a))
            assert len(rows) == (ts if isinstance(ts, int) else len(ts))
            assert all(row == want for row in rows)
        for bad in ([0.0, 1e308, 2.0], [0.0, math.inf]):
            if len(e) > 1 or bad[1] == math.inf:  # (2K + 1) 1e308 overflows for K >= 1
                with pytest.raises(NumericalDomainError, match="out of range"):
                    next(flow_envelopes(e, bad, a))


def test_expansion_past_a_equal_1_and_zero_expansion():
    """Past a = 1 no nonzero expansion is a member; the zero expansion is a
    member at every a, with constant 0."""
    (_, mem), = flow_envelopes(unit_expansion(0), [0.0], 1.5)
    assert not mem.member
    for a in (0.5, 1.0, 1.5):
        (_, mem), = flow_envelopes(HermiteExpansion(np.zeros(4)), [0.0], a)
        assert mem.member and mem.constant == 0.0


def test_confinement_check_ground_state():
    state = GeneralizedGaussian(2 ** 0.25, 1.0)
    rep = confinement_check(state, 1.0, 0.9, default_t_grid(16))
    assert not rep.divergent
    assert rep.psi_constants == pytest.approx(np.full(16, 2 ** 0.25), rel=1e-12)


def test_confinement_check_squeezed_at_gamma_beta():
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, BETA, default_t_grid(64))
    assert not rep.divergent
    assert rep.sup_constant == pytest.approx((1 - R) ** -0.5, rel=1e-10)
    t_star = 3 * math.pi / 8  # -pi/8 mod pi/2
    assert np.min(np.abs(rep.attained_ts - t_star)) < 1e-9
    i_star = int(np.argmin(np.abs(rep.ts - t_star)))
    assert rep.psi_constants[i_star] == pytest.approx((1 + R) ** -0.5, rel=1e-10)


def test_confinement_check_expansion_rep_agrees():
    ts = default_t_grid(8)
    g_state = squeezed_state(BETA)
    e_state = hermite_coeffs(squeezed_state(BETA), 70)
    rep_g = confinement_check(g_state, BETA, 0.45, ts)
    rep_e = confinement_check(e_state, BETA, 0.45, ts)
    assert rep_e.psi_constants == pytest.approx(rep_g.psi_constants, rel=1e-8)


def test_confinement_check_divergence_reported():
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, 0.6, default_t_grid(16))
    assert rep.divergent
    assert rep.first_divergent_t is not None


def test_confinement_dominated_by_assembled_constant():
    gamma, gamma_p = 0.45, 0.475
    state = squeezed_state(BETA)
    rep = confinement_check(state, BETA, gamma, default_t_grid(32))
    coeffs = hermite_coeffs(squeezed_state(BETA), 80).coeffs
    k = np.arange(81)
    nz = np.abs(coeffs) > 0
    m_const = float(np.max(np.abs(coeffs[nz]) * np.exp(gamma_p * k[nz])))
    p = ConfinementParams(BETA, gamma, gamma_p)
    assert rep.sup_constant <= confinement_constant(p, m_const, sharp=True)
    assert rep.sup_constant <= confinement_constant(p, m_const)


def _closed_form_sides(g, rotation):
    """Time and frequency constants and Re b(t), Re 1/b(t) of a Gaussian's
    flow at the times whose e^{4it} is ``rotation``, from z(t) = z e^{4it}."""
    z = (1 - g.width) / (1 + g.width)
    zt = z * rotation
    plus = (1 + zt.real) ** 2 + zt.imag ** 2  # |1 + z(t)|^2
    minus = (1 - zt.real) ** 2 + zt.imag ** 2
    scale, span = abs(g.amplitude) * abs(1 + z) ** 0.5, 1 - abs(z) ** 2
    return scale * plus ** -0.25, scale * minus ** -0.25, (span / plus, span / minus)


def test_gaussian_flow_extremes_match_a_dense_scan():
    """200 seeded Gaussians, half inside and half outside the class (tanh
    gamma up to 2% off the flow's least width (1-r)/(1+r)), against 200,000
    times on [0, pi/2): no scanned constant exceeds the sup (beyond the
    scan's own rounding, 1e-14), every reported attaining time reaches it to
    1e-12 (the uniform scan itself falls short by O(step^2), up to 2e-8 at
    r = 0.95), the first divergent time is within one step of the scan's,
    and the verdict is (1-r)/(1+r) < tanh gamma.  The scan's formula is
    anchored to evolve_gaussian at five times per draw."""
    rng = np.random.default_rng(20261015)
    ts = default_t_grid(200_000)
    step, rotation = ts[1], np.exp(4j * ts)
    for i in range(200):
        r = rng.uniform(0.01, 0.95)
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        g = GeneralizedGaussian(complex(*rng.normal(size=2)), (1 - z) / (1 + z))
        least = (1 - r) / (1 + r)
        a = least * (rng.uniform(0.98, 0.9999) if i % 2 else rng.uniform(1.0001, 1.02))
        rep = confinement_check(g, 1.0, math.atanh(a), default_t_grid(4))
        psi_c, four_c, (re_b, re_inv_b) = _closed_form_sides(g, rotation)
        for j in range(0, ts.size, 40_000):
            mem = envelope_membership(evolve_gaussian(g, ts[j]), rep.a)
            assert psi_c[j] == pytest.approx(mem.time_report.constant, rel=1e-12)
            assert four_c[j] == pytest.approx(mem.frequency_report.constant, rel=1e-12)
        assert np.max(np.maximum(psi_c, four_c)) <= rep.sup_constant * (1 + 1e-14)
        p, f, _ = _closed_form_sides(g, np.exp(4j * rep.attained_ts))
        assert np.min(np.maximum(p, f)) >= rep.sup_constant * (1 - 1e-12)
        assert rep.worst_t == rep.attained_ts[0] and np.all(np.diff(rep.attained_ts) > 0)
        assert 0 <= rep.attained_ts[0] and rep.attained_ts[-1] < math.pi / 2
        assert rep.divergent == (least < rep.a)
        bad = (re_b < rep.a) | (re_inv_b < rep.a)
        assert bad.any() == rep.divergent
        if rep.divergent:
            assert abs(rep.first_divergent_t - ts[np.argmax(bad)]) <= step
        else:
            assert rep.first_divergent_t is None
