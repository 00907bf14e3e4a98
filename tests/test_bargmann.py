"""Bargmann transform numerics and the growth/coefficient estimates."""

import cmath
import math

import numpy as np
import pytest

import gaussherm.bargmann as bargmann
from gaussherm import verify
from gaussherm.bargmann import (
    SectorParams,
    bargmann_exact,
    bargmann_row_sets,
    log_contour_coeff_bound,
    log_taylor_coeffs,
    optimal_contour,
    quadrant_bound,
    reflection_row_sets,
    sector_bound,
)
from gaussherm.decay import log_hardy_coeff_bound
from gaussherm.errors import EdgeDecayError, NumericalDomainError
from gaussherm.gaussians import (
    GeneralizedGaussian,
    boundary_chirp,
    gaussian,
    hermite_coeffs,
    squeezed_state,
)
from gaussherm.grid import GridSpec
from gaussherm.hermite import (
    EDGE_DECAY_REL,
    HermiteExpansion,
    fourier_rows,
    grid_basis,
    hermite_phi_all,
    unit_expansion,
)
from gaussherm.weighted import (
    central_binomial_convolution,
    log_confined_coeff_bound,
)

ALPHA = 0.27465  # tanh(2 alpha) = 0.5, mu = 1/3 up to 4e-6


def uphi_target(k, w):
    return w ** k / math.exp(0.5 * (k * math.log(2) + math.lgamma(k + 1)))


def test_bargmann_numeric_phi2(grid):
    w = 1.5 + 0.5j
    got = bargmann_row_sets([hermite_phi_all(2, grid.xs)[2]], grid, w)[0][0, 0]
    assert got == pytest.approx(uphi_target(2, w), rel=1e-8)


def test_bargmann_numeric_phi1_at_zero(grid):
    assert abs(bargmann_row_sets([hermite_phi_all(1, grid.xs)[1]], grid, 0.0)[0][0, 0]) < 1e-12


def test_bargmann_numeric_gaussian_constant(grid):
    ws = [0.3, 2.0 + 1.0j, -2.5j]
    got = bargmann_row_sets([gaussian(1.0).sample(grid).values], grid, ws)[0][0]
    assert got == pytest.approx([2 ** -0.25] * 3, rel=1e-10)


def test_bargmann_numeric_rejects_large_real_w():
    grid = GridSpec(8.0, 256)
    with pytest.raises(EdgeDecayError):
        bargmann_row_sets([np.exp(-0.01 * grid.xs ** 2)], grid, 9.0)


WS = np.array([0.5, -1.2, 2.0, 1 + 1j, -0.7 + 1.3j, 2j, 1.5 - 0.5j, -1 - 1j])


def bargmann_direct(values, grid, w):
    """Reference for bargmann_row_sets: one function at a time, the trapezoid
    sum of its own integrand e^{xw - x^2/2} f(x)."""
    xs, h = grid.xs, grid.spacing
    integrand = np.exp(np.outer(w, xs) - 0.5 * xs * xs) * values
    integral = h * (integrand.sum(axis=1) - 0.5 * (integrand[:, 0] + integrand[:, -1]))
    return np.exp(-0.25 * w * w) * integral / (2 ** 0.25 * math.pi ** 0.5)


def test_bargmann_rows_match_per_row_evaluation(grid):
    """A stack through one kernel equals each row alone, to 1e-14 of the
    row's peak: the largest integral of |e^{-w^2/4} e^{xw - x^2/2} f(x)|
    over the points w, the size of the terms the quadrature sums (for
    phi_20 on |w| = 3 it is 1800 times |U phi_20| itself)."""
    ws = np.concatenate([3.0 * np.exp(2j * math.pi * np.arange(10) / 10), WS])
    rows = [*hermite_phi_all(20, grid.xs), gaussian(0.5).sample(grid).values,
            boundary_chirp(ALPHA).sample(grid).values]
    stacked = bargmann_row_sets([rows], grid, ws)[0]
    assert stacked.shape == (len(rows), ws.size)
    for row, got in zip(rows, stacked):
        peak = np.max(np.abs(bargmann_direct(np.abs(row), grid, ws.real))
                      * np.exp(0.25 * (ws.real ** 2 - (ws * ws).real)))
        alone = bargmann_row_sets([row], grid, ws)[0][0]
        assert np.max(np.abs(got - alone)) <= 1e-14 * peak
        assert np.max(np.abs(got - bargmann_direct(row, grid, ws))) <= 1e-14 * peak


def test_bargmann_rows_names_the_undecayed_row(grid):
    xs = grid.xs
    rows = [*hermite_phi_all(2, xs), np.exp(0.5 * xs ** 2)]  # e^{x^2/2}: a flat integrand
    bargmann_row_sets([rows[:3]], grid, WS)
    with pytest.raises(EdgeDecayError, match="input row 3 "):
        bargmann_row_sets([rows], grid, WS)


def test_bargmann_rows_real_rows_match_per_row_evaluation(grid):
    """Real rows take the kernel's real and imaginary parts in two real
    products; they match the direct sum at the bound of the complex stack."""
    ws = np.concatenate([3.0 * np.exp(2j * math.pi * np.arange(10) / 10), WS, -1j * WS])
    rows = hermite_phi_all(20, grid.xs)
    stacked = bargmann_row_sets([rows], grid, ws)[0]
    for row, got in zip(rows, stacked):
        peak = np.max(np.abs(bargmann_direct(np.abs(row), grid, ws.real))
                      * np.exp(0.25 * (ws.real ** 2 - (ws * ws).real)))
        assert np.max(np.abs(got - bargmann_direct(row, grid, ws))) <= 1e-14 * peak


def reference_guard(rows, grid, w):
    """The edge guard one row at a time, on the modulus of the complex
    kernel: (first undecayed row, its first three undecayed w), or None."""
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    xs = grid.xs
    mag = np.abs(np.exp(np.outer(w_arr, xs) - 0.5 * xs * xs))
    for i, row in enumerate(rows):
        mags = mag * np.abs(row)
        peak = mags.max(axis=1)
        edge = np.maximum(mags[:, :2].max(axis=1), mags[:, -2:].max(axis=1))
        bad = (peak > 0) & (edge > EDGE_DECAY_REL * peak)
        if bad.any():
            return i, w_arr[bad][:3]
    return None


def test_bargmann_rows_guard_names_what_the_per_row_guard_names(grid):
    """A stack whose middle row, e^{0.3 x^2}, is undecayed for 2.6 < |Re w| <
    10.2: the gathered edges and row-by-row peaks name the row and the first
    three w that the per-row guard names, and pass the stack without it."""
    xs = grid.xs
    ws = np.array([0.5, 3.0 + 1j, -1.0, -4.0 - 2j, 2j, 5.0, -6.5 + 0.5j, 1.5, 9.0])
    rows = [*hermite_phi_all(1, xs), np.exp(0.3 * xs ** 2), *hermite_phi_all(3, xs)[2:]]
    assert reference_guard(rows[:2] + rows[3:], grid, ws) is None
    bargmann_row_sets([rows[:2] + rows[3:]], grid, ws)
    i, named = reference_guard(rows, grid, ws)
    assert i == 2 and named.size == 3
    with pytest.raises(EdgeDecayError) as info:
        bargmann_row_sets([rows], grid, ws)
    assert f"input row {i} not decayed at grid edges for w={named};" in str(info.value)


def full_scan_guard(rows, grid, w):
    """The edge guard with the integrand's peak of every (row, w) pair taken
    over the whole grid: the (row, w) mask of undecayed pairs."""
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    xs = grid.xs
    mag = np.exp(np.outer(w_arr.real, xs) - 0.5 * xs * xs)
    edge = (np.abs(rows[:, None, [0, 1, -2, -1]]) * mag[:, [0, 1, -2, -1]]).max(axis=2)
    peak = np.array([(mag * np.abs(row)).max(axis=1) for row in rows])
    return (peak > 0) & (edge > EDGE_DECAY_REL * peak)


@pytest.mark.parametrize("half_width, n", [(8.0, 256), (16.0, 4096)])
def test_edge_guard_refuses_where_the_full_scan_does(half_width, n):
    """Re w from -40 to 40: the guard that scans only the pairs its lower
    bound (the integrand at the row's largest |sample|) does not clear raises
    exactly where the full scan finds an undecayed pair, naming the same row
    and w, for each row alone and for the stack.  The rows peak at the centre,
    off it and near the edge; one is zero and one has not decayed."""
    grid = GridSpec(half_width, n)
    xs = grid.xs
    rows = np.array([*hermite_phi_all(3, xs), np.exp(-0.01 * xs ** 2),
                     np.exp(-(xs - 0.4 * half_width) ** 2) * (1 + 0.5j),
                     np.exp(-0.5 * (xs + 0.9 * half_width) ** 2), np.zeros(n),
                     np.exp(0.3 * xs ** 2 - 0.3 * half_width ** 2)])
    ws = np.linspace(-40.0, 40.0, 161) + 1j * np.resize([0.0, 2.5, -7.0], 161)
    bad = full_scan_guard(rows, grid, ws)
    top = np.abs(rows).argmax(axis=1)
    mag = np.exp(np.outer(ws.real, xs) - 0.5 * xs * xs)
    bound = (mag[:, top] * np.abs(rows[np.arange(len(rows)), top])).T
    edge = (np.abs(rows[:, None, [0, 1, -2, -1]]) * mag[:, [0, 1, -2, -1]]).max(axis=2)
    unclear = edge > EDGE_DECAY_REL * bound
    assert bad.any() and (unclear & ~bad).any() and (~unclear).any()  # every branch runs
    for i, row in enumerate(rows):
        for j, w in enumerate(ws):
            if bad[i, j]:
                with pytest.raises(EdgeDecayError, match="input row 0 "):
                    bargmann_row_sets([row], grid, w)
            else:
                bargmann_row_sets([row], grid, w)
    first = int(np.argmax(bad.any(axis=1)))
    with pytest.raises(EdgeDecayError) as info:
        bargmann_row_sets([rows], grid, ws)
    assert f"input row {first} not decayed at grid edges for w={ws[bad[first]][:3]};" in str(info.value)
    clear = ~bad.any(axis=0)
    assert bargmann_row_sets([rows], grid, ws[clear])[0].shape == (len(rows), clear.sum())


def _row_sets(grid):
    """Real rows, complex rows and a single 1-D row: the three dtype and
    shape routes of a set."""
    xs = grid.xs
    return [hermite_phi_all(6, xs),
            [gaussian(0.5).sample(grid).values, boundary_chirp(ALPHA).sample(grid).values],
            np.exp(-0.3 * xs ** 2) * (1 - 0.5j * xs)]


def test_bargmann_row_sets_equal_the_per_set_calls_bit_for_bit(grid):
    """Sets of rows that share one kernel give what each set gives on its
    own, bit for bit, whatever their dtypes."""
    ws = np.concatenate([3.0 * np.exp(2j * math.pi * np.arange(10) / 10), WS])
    sets = _row_sets(grid)
    shared = bargmann_row_sets(sets, grid, ws)
    assert len(shared) == len(sets)
    for rows, got in zip(sets, shared):
        want = bargmann_row_sets([rows], grid, ws)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_reflection_row_sets_equal_the_per_set_calls_bit_for_bit(grid):
    sets = _row_sets(grid)
    shared = reflection_row_sets(sets, grid, WS)
    assert len(shared) == len(sets)
    for rows, got in zip(sets, shared):
        want = reflection_row_sets([rows], grid, WS)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_row_sets_name_the_undecayed_row_the_per_set_call_names(grid):
    """An undecayed row in the second set raises the EdgeDecayError that set
    raises on its own, naming the same row and w."""
    xs = grid.xs
    good = hermite_phi_all(2, xs)
    bad = [*hermite_phi_all(1, xs), np.exp(0.3 * xs ** 2), gaussian(0.5).sample(grid).values]
    ws = np.array([0.5, 3.0 + 1j, 5.0, -6.5 + 0.5j])
    with pytest.raises(EdgeDecayError) as alone:
        bargmann_row_sets([bad], grid, ws)
    with pytest.raises(EdgeDecayError) as shared:
        bargmann_row_sets([good, bad], grid, ws)
    assert "input row 2 " in str(alone.value)
    assert str(shared.value) == str(alone.value)


#: The grids verify-all is run on: the default, --grid-L 10, --grid-L 12 and --grid-N 2048.
VERIFY_GRIDS = [GridSpec(16.0, 4096), GridSpec(10.0, 4096), GridSpec(12.0, 4096),
                GridSpec(16.0, 2048)]


def _reference_reflection_row_sets(row_sets, grid, w):
    """The row-side formula: U(fhat)(w) from each set's own transformed rows
    (one ``fourier_rows`` call per set), beside Uf(-iw); the U(fhat) values
    and the deviations."""
    lhs = bargmann_row_sets([fourier_rows(rows, grid) for rows in row_sets], grid, w)
    rhs = bargmann_row_sets(row_sets, grid, -1j * np.asarray(w))
    return lhs, [np.max(np.abs(u - v), axis=1) for u, v in zip(lhs, rhs)]


def _verify_row_sets(grid):
    """reflection_identity's two sets: phi_0..phi_20, then the Gaussian of
    width 0.5 and the three boundary chirps."""
    others = [gaussian(0.5)] + [boundary_chirp(alpha) for alpha in (0.2, 0.27465, 0.5)]
    return [grid_basis(grid, 20), np.array([g.sample(grid).values for g in others])]


@pytest.mark.parametrize("grid_", VERIFY_GRIDS, ids=["default", "L10", "L12", "N2048"])
def test_reflection_row_sets_agree_with_the_row_side_formula(grid_):
    """On verify's rows and points, the kernel-side U(fhat) matches the
    row-side one to 1e-14 of its largest value, and the deviations agree to
    1e-14 absolute."""
    sets, ws = _verify_row_sets(grid_), verify._REFLECTION_WS
    want_u, want = _reference_reflection_row_sets(sets, grid_, ws)
    got_u = bargmann._integrals(sets, fourier_rows(bargmann._kernel(grid_, ws), grid_), ws)
    for got_set, want_set in zip(got_u, want_u):
        assert np.max(np.abs(got_set - want_set)) <= 1e-14 * np.max(np.abs(want_set))
    for got_dev, want_dev in zip(reflection_row_sets(sets, grid_, ws), want):
        assert got_dev.shape == want_dev.shape
        assert np.max(np.abs(got_dev - want_dev)) <= 1e-14


def test_reflection_row_sets_transform_the_kernels_once(grid, monkeypatch):
    """One ``fourier_rows`` call per ``reflection_row_sets`` call, on the W
    kernel rows, whatever the number of sets."""
    transformed = []

    def counted(values, grid_):
        transformed.append(np.shape(values))
        return fourier_rows(values, grid_)

    monkeypatch.setattr(bargmann, "fourier_rows", counted)
    for count in (1, 2, 3):
        reflection_row_sets(_row_sets(grid)[:count], grid, WS)
    assert transformed == [(len(WS), grid.num_points)] * 3


def test_reflection_row_sets_name_the_undecayed_row_as_the_transform_does(grid):
    """An undecayed row in the second set raises the EdgeDecayError text
    that set raises on its own, which is what the transform of that set
    raises (the refusal of the row-side formula)."""
    xs = grid.xs
    good = hermite_phi_all(2, xs)
    bad = [*hermite_phi_all(1, xs), np.exp(-0.01 * xs ** 2), gaussian(0.5).sample(grid).values]
    messages = []
    for call in (lambda: reflection_row_sets([bad], grid, WS),
                 lambda: reflection_row_sets([good, bad], grid, WS),
                 lambda: fourier_rows(np.array(bad), grid)):
        with pytest.raises(EdgeDecayError) as err:
            call()
        messages.append(str(err.value))
    assert messages[0].startswith("input row 2 of the sampled Fourier transform has not decayed")
    assert messages[0] == messages[1] == messages[2]


def test_reflection_row_sets_refuse_an_undecayed_kernel_by_the_index_of_w(grid):
    """A point w with Re w = 11, 5 from the edge of L = 16, has a kernel that
    has not decayed there; the transform's check refuses it as row 1."""
    with pytest.raises(EdgeDecayError, match="^input row 1 of the sampled Fourier transform"):
        reflection_row_sets([hermite_phi_all(0, grid.xs)], grid, [0.5, 11.0])


def test_reflection_row_sets_guard_the_transformed_integrand(grid):
    """A row that passes the transform's edge check but whose integrand with
    the transformed kernel of w = 14i peaks near the grid edge is refused,
    naming the row and w."""
    row = np.exp(-0.08 * grid.xs ** 2)  # its edge samples are 1.3e-9 of its peak
    with pytest.raises(EdgeDecayError, match=r"input row 0 not decayed at grid edges for w=\[0\.\+14\.j\]"):
        reflection_row_sets([row], grid, [14j])


@pytest.mark.parametrize("k", [0, 1, 5, 12, 20])
def test_reflection_identity_hermite(grid, k):
    assert reflection_row_sets([hermite_phi_all(k, grid.xs)[k]], grid, WS)[0][0] < 1e-8


def test_reflection_identity_gaussian_and_chirp(grid):
    rows = [gaussian(0.5).sample(grid).values, boundary_chirp(ALPHA).sample(grid).values]
    assert np.all(reflection_row_sets([rows], grid, WS)[0] < 1e-8)


def test_reflection_identity_random_band_limited(grid, rng):
    values = (rng.normal(size=12) + 1j * rng.normal(size=12)) @ hermite_phi_all(11, grid.xs)
    assert reflection_row_sets([values], grid, WS)[0][0] < 1e-6


def test_reflection_rows_hold_for_every_row(grid):
    rows = [*hermite_phi_all(5, grid.xs), gaussian(0.5).sample(grid).values]
    deviations = reflection_row_sets([rows], grid, WS)[0]
    assert deviations.shape == (len(rows),)
    assert np.all(deviations < 1e-8)


def test_taylor_round_trip_and_markers():
    e = hermite_coeffs(gaussian(0.5 + 0.25j), 40)
    log_c = log_taylor_coeffs(e)
    assert np.isneginf(log_c[1])  # odd coefficients are exact zeros
    log_scale = [0.5 * (n * math.log(2) + math.lgamma(n + 1)) for n in range(len(e))]
    back = np.exp(log_c + log_scale)  # |<f, phi_n>| = |c_n| sqrt(2^n n!)
    assert np.max(np.abs(back - np.abs(e.coeffs))) < 1e-15


def test_taylor_unit_values():
    assert math.exp(log_taylor_coeffs(HermiteExpansion([1.0]))[0]) == pytest.approx(1.0)
    log_c = log_taylor_coeffs(HermiteExpansion([0, 0, 0, 1.0]))
    assert math.exp(log_c[3]) == pytest.approx(1 / math.sqrt(48), rel=1e-14)


def test_sector_params_spot_value():
    s = SectorParams(0.5)
    assert s.mu == pytest.approx(1 / 3, rel=1e-14)
    assert s.theta0 == pytest.approx(math.pi / 6, rel=1e-13)
    assert s.theta1 == pytest.approx(math.pi / 2 - math.pi / 6, rel=1e-13)


@pytest.mark.parametrize("a", np.linspace(0.01, 0.99, 21))
def test_sector_params_invariants(a):
    s = SectorParams(float(a))
    assert 0 < s.theta0 < math.pi / 4 < s.theta1 < math.pi / 2
    assert s.theta0 + s.theta1 == pytest.approx(math.pi / 2, rel=1e-14)
    assert s.theta1 - s.theta0 < math.pi / 2
    # equivalent closed form of the sector opening angle
    assert s.theta0 == pytest.approx(math.atan(math.sqrt(s.mu)), rel=1e-12)


def test_sector_params_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(NumericalDomainError):
            SectorParams(bad)


def test_quadrant_bound_values():
    s = SectorParams(0.5)
    assert quadrant_bound(s, 0.0) == pytest.approx(math.sqrt(2 * math.pi / 1.5), rel=1e-14)
    expected = math.sqrt(2 * math.pi / 1.5) * math.exp(math.sqrt(1 / 3))
    assert quadrant_bound(s, 2.0) == pytest.approx(expected, rel=1e-14)


def test_sector_bound_at_diagonal_matches_quadrant():
    s = SectorParams(0.5)
    w = 2.0 * cmath.exp(1j * math.pi / 4)
    assert sector_bound(s, w) == pytest.approx(quadrant_bound(s, w), rel=1e-14)


def test_sector_bound_matches_hypothesis_on_boundary_ray():
    # at theta0: mu + (1-mu) sin^2(theta0) = sqrt(mu) sin(2 theta0) = 2mu/(1+mu)
    s = SectorParams(0.37)
    w = 1.7 * cmath.exp(1j * s.theta0)
    # the time-side hypothesis bound C sqrt(2 pi/(1+a)) e^{(mu + (1-mu) sin^2 theta) r^2/4}
    hyp_time = math.sqrt(2 * math.pi / (1 + s.a)) * math.exp(
        (s.mu + (1 - s.mu) * math.sin(s.theta0) ** 2) * abs(w) ** 2 / 4
    )
    assert sector_bound(s, w) == pytest.approx(hyp_time, rel=1e-12)
    assert s.mu + (1 - s.mu) * math.sin(s.theta0) ** 2 == pytest.approx(
        2 * s.mu / (1 + s.mu), rel=1e-13
    )


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_sector_bound_is_nan_exactly_outside_the_folded_sector(a):
    """arg w folded into [0, pi/2] (mod pi, then reflected about pi/2) decides:
    inside [theta0, theta1] the bound is finite, outside it is nan.  The
    angles sit 1e-3 off the sector's edges (pi/6 and pi/3 at a = 0.5), where
    the folded angle's rounding would decide."""
    s = SectorParams(a)
    th = np.linspace(-math.pi, math.pi, 720, endpoint=False) + 1e-3
    ws = 2.0 * np.exp(1j * th)
    folded = [abs(math.pi / 2 - abs(math.pi / 2 - cmath.phase(w) % math.pi)) for w in ws]
    inside = np.array([s.theta0 <= f <= s.theta1 for f in folded])
    assert 0 < inside.sum() < inside.size
    values = sector_bound(s, ws)
    assert np.array_equal(np.isnan(values), ~inside)
    assert np.all(np.isfinite(values[inside]))
    assert math.isnan(sector_bound(s, 2.0))  # folds to angle 0 < theta0
    assert math.isnan(sector_bound(s, 0.0))
    assert math.isnan(sector_bound(s, -2j))  # folds to pi/2 > theta1


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_sector_verdict_is_the_same_for_mirror_images(a):
    """w, its conjugate, -w and iw, built exactly from the same two moduli,
    get one verdict, also on the sector's edges, where arg w as rounded folds
    to either side of theta0 or theta1; a point within 1e-12 relative of an
    edge is inside, one 1e-9 off it outside."""
    s = SectorParams(a)
    rng = np.random.default_rng(20261019)
    edges = np.array([s.theta0, s.theta1]) + 0.5 * math.pi * np.arange(4)[:, None]
    th = np.concatenate([rng.uniform(0, 2 * math.pi, 400), edges.ravel()])
    ws = rng.uniform(0.1, 30.0, th.size) * np.exp(1j * th)
    turned = np.empty_like(ws)
    turned.real, turned.imag = -ws.imag, ws.real  # iw
    outside = np.isnan(sector_bound(s, ws))
    for image in (ws.conj(), -ws, turned):
        assert np.array_equal(np.isnan(sector_bound(s, image)), outside)
    assert not outside[-8:].any()  # the edges as rounded
    assert 0 < outside.sum() < 400
    off = 2.0 * np.exp(1j * np.array([s.theta0 * (1 - 1e-9), s.theta1 * (1 + 1e-9)]))
    assert np.isnan(sector_bound(s, off)).all()


def test_growth_bounds_are_inf_past_the_double_range():
    """On the diagonal both exponents are sqrt(mu) |w|^2 / 4, past e^709.78
    beyond |w| = 70.1 at a = 0.5; the overflow neither warns nor raises."""
    s = SectorParams(0.5)
    diagonal = cmath.exp(1j * math.pi / 4)
    with np.errstate(over="raise"):
        assert quadrant_bound(s, 100.0) == math.inf
        assert sector_bound(s, 100.0 * diagonal) == math.inf
        assert math.isfinite(quadrant_bound(s, 70.0 * diagonal))
        assert math.isfinite(sector_bound(s, 70.0 * diagonal))
        # e^231 is finite; C e^231 is not
        assert quadrant_bound(SectorParams(0.5, 1e300), 40.0) == math.inf


def test_bounds_dominate_transform_on_gaussian_family(grid, rng):
    from gaussherm.gaussians import envelope_membership

    for g, a in [(gaussian(0.5), 0.5), (boundary_chirp(ALPHA), math.tanh(2 * ALPHA))]:
        big_c = envelope_membership(g, a).constant
        s = SectorParams(a, big_c)
        ws = 5.0 * np.sqrt(rng.random(200)) * np.exp(2j * math.pi * rng.random(200))
        vals = bargmann_row_sets([g.sample(grid).values], grid, ws)[0][0]
        for w, v in zip(ws, vals):
            assert abs(v) <= quadrant_bound(s, w) * (1 + 1e-9)
            sb = sector_bound(s, w)
            if math.isnan(sb):  # outside the sector: no sector bound
                continue
            assert abs(v) <= sb * (1 + 1e-9)


def _contour_logs_mpmath(n, mu):
    """log I and log J of the optimized contour at 30 digits.

    I is integrated normalized by u(theta0)**half (mpmath's error estimate
    is absolute), with breakpoints at the integrands' features: I's peak at
    theta0, of width ~2 sqrt(mu)/((1-mu) n); the arclength factor's
    near-kink at t = mu; J's peak at pi/4, of width ~1/sqrt(n).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        m = mp.mpf(mu)
        half = mp.mpf(n - 2) / 2
        theta0 = mp.atan(mp.sqrt(m))
        u0 = 2 * m / (1 + m)
        width = 2 * mp.sqrt(m) / ((1 - m) * n)
        inner = {theta0 - c * width for c in (1, 4, 16, 64)} | {m}
        pts_i = [mp.mpf(0), *sorted(p for p in inner if 0 < p < theta0), theta0]
        inner = {mp.pi / 4 - c / mp.sqrt(n) for c in (1, 4, 16)}
        pts_j = [theta0, *sorted(p for p in inner if theta0 < p), mp.pi / 4]

        def integrand_i(t):
            s2 = mp.sin(t) ** 2
            return ((m + (1 - m) * s2) / u0) ** half * mp.sqrt(m * m + (1 - m * m) * s2)

        i_val, i_err = mp.quad(integrand_i, pts_i, error=True)
        j_val, j_err = mp.quad(lambda t: mp.sin(2 * t) ** half, pts_j, error=True)
        assert i_err < 1e-20 * i_val and j_err < 1e-20 * j_val
        return (
            float(half * mp.log(u0) + mp.log(i_val)),
            float(n * mp.log(m) / 4 + mp.log(j_val)),
        )


@pytest.mark.parametrize("mu", [1e-3, 1 / 3, 0.9, 0.999])
@pytest.mark.parametrize("n", [2, 3, 10, 317, 10**4])
def test_contour_integrals_against_mpmath(n, mu):
    ref_i, ref_j = _contour_logs_mpmath(n, mu)
    log_i, log_j, _ = optimal_contour(n, mu)
    # 1e-12 absolute on the logs, plus one ulp: at n = 10^4 the logs reach
    # ~3e4 in magnitude, where a double cannot come closer than ~3.6e-12
    assert abs(log_i - ref_i) <= 1e-12 + math.ulp(ref_i)
    assert abs(log_j - ref_j) <= 1e-12 + math.ulp(ref_j)


def test_contour_domain_errors():
    with pytest.raises(NumericalDomainError):
        optimal_contour(1, 0.5)
    with pytest.raises(NumericalDomainError):
        optimal_contour(5, 1.2)


def log_contour_i_closed_bound(n: int, mu: float) -> float:
    """Closed-form majorant of the first-branch integral:
    theta0 (1+mu)/(2 sqrt(mu)) * (2 mu/(1+mu))**(n/2), tan theta0 = sqrt(mu)."""
    theta0 = math.atan(math.sqrt(mu))
    return (
        math.log(theta0 * (1.0 + mu) / (2.0 * math.sqrt(mu)))
        + 0.5 * n * math.log(2.0 * mu / (1.0 + mu))
    )


def log_contour_j_gamma_bound(n: int, mu: float) -> float:
    """Exact closed form of the second branch extended to [0, pi/4]:
    (sqrt(pi)/4) Gamma(n/4)/Gamma((n+2)/4) mu**(n/4); an upper bound for J."""
    return (
        0.5 * math.log(math.pi)
        - math.log(4.0)
        + math.lgamma(n / 4.0)
        - math.lgamma((n + 2.0) / 4.0)
        + 0.25 * n * math.log(mu)
    )


@pytest.mark.parametrize("n", [2, 10, 50, 200])
def test_contour_integral_closed_bounds(n):
    mu = 1 / 3
    log_i, log_j, _ = optimal_contour(n, mu)
    assert log_i <= log_contour_i_closed_bound(n, mu) + 1e-12
    assert log_j <= log_contour_j_gamma_bound(n, mu) + 1e-12


def test_contour_i_is_small_compared_to_j():
    mu = 1 / 3
    contours = [optimal_contour(n, mu) for n in (10, 50, 200)]
    ij = [math.exp(log_i - log_j) for log_i, log_j, _ in contours]
    assert ij[0] > ij[1] > ij[2]
    assert ij[2] < 0.1


def test_contour_bound_dominates_chirp_taylor_coeffs():
    a = math.tanh(2 * ALPHA)
    log_c = log_taylor_coeffs(hermite_coeffs(boundary_chirp(ALPHA), 100))
    for n in range(2, 101):
        assert log_c[n] <= log_contour_coeff_bound(n, a, 1.0)


def test_contour_bound_beats_cauchy_for_large_n():
    """The contour bound lies below Cauchy's estimate on circles optimized
    over the radius, C sqrt(2 pi/(1+a)) (e sqrt(mu) / (2n))**(n/2), which it
    improves by a factor ~ n^{-1/2}."""
    a = math.tanh(2 * ALPHA)
    mu = (1 - a) / (1 + a)
    for n in (20, 50, 100):
        log_circle = 0.5 * math.log(2 * math.pi / (1 + a)) + 0.5 * n * math.log(
            math.e * math.sqrt(mu) / (2 * n))
        assert log_contour_coeff_bound(n, a, 1.0) < log_circle


EPS = np.finfo(float).eps


def _ring(r, count=8):
    return r * np.exp(2j * math.pi * np.arange(count) / count)


def test_bargmann_exact_phi_k_against_mpmath():
    # U(phi_k)(w) = w^k / sqrt(2^k k!) at the double w, in 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 3.0, 5.0):
        ws = _ring(r)
        for k in range(82):
            got = bargmann_exact(unit_expansion(k), ws)
            for w, u in zip(ws, got):
                ref = mp.mpc(w.real, w.imag) ** k / mp.sqrt(mp.mpf(2) ** k * mp.factorial(k))
                worst = max(worst, float(abs(mp.mpc(u.real, u.imag) - ref) / abs(ref)))
    assert worst <= 1e-13


@pytest.mark.parametrize("g", [
    GeneralizedGaussian(1.3 - 0.4j, 0.5 + 0.3j), boundary_chirp(ALPHA), squeezed_state(0.5),
], ids=["gaussian", "chirp", "squeezed"])
def test_bargmann_exact_gaussians_against_mpmath_integral(g):
    # the defining integral e^{-w^2/4} / (2^0.25 pi^0.5) * int e^{xw - x^2/2} g(x) dx,
    # by mpmath quadrature: independent of the closed form P e^{lam w^2}
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    amp, b = mp.mpc(g.amplitude.real, g.amplitude.imag), mp.mpc(g.width.real, g.width.imag)
    ws = np.concatenate([_ring(1.0, 4), _ring(3.0, 4) * cmath.exp(0.3j)])
    got = bargmann_exact(g, ws)
    for w, u in zip(ws, got):
        wm = mp.mpc(w.real, w.imag)
        integral = mp.quad(lambda x: mp.exp(x * wm - (1 + b) * x * x / 2), [-mp.inf, 0, mp.inf])
        ref = amp * mp.exp(-wm * wm / 4) / (mp.mpf(2) ** 0.25 * mp.sqrt(mp.pi)) * integral
        # exp(lam w^2) carries the rounding of its exponent: a few eps * |lam w^2|
        lam = (1 - g.width) / (4 * (1 + g.width))
        tol = 8 * EPS * (1 + abs(lam * w * w))
        assert float(abs(mp.mpc(u.real, u.imag) - ref) / abs(ref)) <= tol


@pytest.mark.parametrize("length", [5, 20, 40])
def test_bargmann_exact_expansions_within_their_condition(length, rng):
    # a seeded random expansion: every point within cond * K * eps of the
    # 50-digit Taylor sum, with cond = sum|t_k| / |sum t_k| taken in mpmath too
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
    ws = np.concatenate([_ring(r) * cmath.exp(0.1j) for r in (0.5, 1.0, 2.0, 4.0)])
    got = bargmann_exact(HermiteExpansion(coeffs), ws)
    for w, u in zip(ws, got):
        wm = mp.mpc(w.real, w.imag)
        terms = [mp.mpc(c.real, c.imag) * wm ** k / mp.sqrt(mp.mpf(2) ** k * mp.factorial(k))
                 for k, c in enumerate(coeffs)]
        ref = mp.fsum(terms)
        cond = float(mp.fsum(abs(t) for t in terms) / abs(ref))
        assert float(abs(mp.mpc(u.real, u.imag) - ref) / abs(ref)) <= cond * length * EPS


def test_bargmann_exact_matches_the_quadrature(grid):
    ws = _ring(2.0, 6) * cmath.exp(0.2j)
    for state in (squeezed_state(0.5), hermite_coeffs(gaussian(0.7 - 0.2j), 40)):
        if isinstance(state, GeneralizedGaussian):
            values = state.sample(grid).values
        else:
            values = state.coeffs @ hermite_phi_all(len(state) - 1, grid.xs)
        exact = bargmann_exact(state, ws)
        quad = bargmann_row_sets([values], grid, ws)[0][0]
        assert np.max(np.abs(quad - exact) / np.abs(exact)) < 1e-12


def test_bargmann_exact_at_the_origin():
    # Uf(0) = c_0 exactly: no 0 * log 0 in the polynomial
    e = HermiteExpansion([0.3 + 0.1j, 2.0, -1.0j])
    assert bargmann_exact(e, 0.0)[0] == 0.3 + 0.1j
    assert bargmann_exact(unit_expansion(3), [0.0, -0.0])[0] == 0.0


def test_bargmann_exact_refuses_cancellation_and_overflow():
    # hermite_coeffs of a Gaussian at |w| = 8: the terms cancel to ~1e-7 of
    # their sum, so cond * K * eps passes the tolerance and the point is named
    e = hermite_coeffs(gaussian(0.5), 80)
    bargmann_exact(e, _ring(1.0))  # no cancellation on |w| = 1
    with pytest.raises(NumericalDomainError, match=r"w=\(.*8j\).*cancels"):
        bargmann_exact(e, _ring(8.0))
    with pytest.raises(NumericalDomainError, match=r"w=\(1000\+0j\).*double range"):
        bargmann_exact(gaussian(0.5), 1000.0)
    with pytest.raises(NumericalDomainError, match="double range"):
        bargmann_exact(unit_expansion(2), 1e200)


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_vectorised_contour_bound_matches_optimal_contour(a):
    mu = (1 - a) / (1 + a)
    n = np.arange(2, 201)
    column = log_contour_coeff_bound(n, a, 1.0)
    one_by_one = np.array([optimal_contour(int(k), mu)[2] for k in n])
    assert np.max(np.abs(column - one_by_one) / np.abs(one_by_one)) <= 1e-13
    assert isinstance(log_contour_coeff_bound(7, a), float)
    assert log_contour_coeff_bound(7, a) == pytest.approx(column[5], rel=1e-13)


_A, _C = 0.5, 1.3  # mu = 1/3
_RING = 3.0 * np.exp(2j * np.pi * np.arange(16) / 16)
_KS = np.arange(1, 61)


def _cert():
    from gaussherm.weighted import central_binomial_certificate

    return central_binomial_certificate(2.0)


def _ref_log_hardy(mp, k):
    return (mp.log(_C) + mp.log(2 * mp.pi * mp.factorial(k) / (1 + mp.mpf(_A))) / 2
            + mp.mpf(k) / 2 * (1 - mp.log(k)) + mp.mpf(k) / 4 * mp.log(mp.mpf(1) / 3))


def _ref_log_confined(mp, k):
    return (mp.log(_C) - mp.log(_cert().b) / 2 + mp.log(k) / 2
            + mp.mpf(k) / 2 * mp.log(mp.mpf(1) / 3) + mp.log(1 - mp.mpf(_A)) / 4)


def _ref_log_contour(mp, n):
    log_i, log_j = _contour_logs_mpmath(n, 1 / 3)
    return (mp.log(_C) + mp.log(4 / mp.pi) + mp.log(2 * mp.pi / (1 + mp.mpf(_A))) / 2
            + mp.mpf(n + 1) / 2 - mp.mpf(n) / 2 * mp.log(2 * n + 2)
            + mp.log(mp.exp(log_i) + mp.exp(log_j)))


def _ref_growth(mp, w, sector):
    """C sqrt(2 pi/(1+a)) e^{sqrt(mu) s |w|^2/4}, s = 1 (quadrant) or, in the
    sector [pi/6, pi/3] of a = 0.5, sin(2 theta) of the folded angle (nan
    outside it)."""
    s = 1
    if sector:
        th = cmath.phase(w) % math.pi
        th = math.pi - th if th > math.pi / 2 else th
        if not math.pi / 6 <= th <= math.pi / 3:
            return math.nan
        s = mp.sin(2 * mp.mpf(th))
    return (_C * mp.sqrt(2 * mp.pi / (1 + mp.mpf(_A)))
            * mp.exp(mp.sqrt(mp.mpf(1) / 3) * s * mp.mpf(abs(w)) ** 2 / 4))


def _ref_convolution(mp, n):
    """sum_j Q_j Q_{n-j} in exact rationals: 1."""
    from fractions import Fraction

    q = [Fraction(math.comb(2 * j, j), 4 ** j) for j in range(n + 1)]
    return sum(q[j] * q[n - j] for j in range(n + 1))


_BOUND_FORMS = {
    "log_hardy_coeff_bound": (lambda x: log_hardy_coeff_bound(x, _A, _C), _KS, _ref_log_hardy),
    "log_confined_coeff_bound": (lambda x: log_confined_coeff_bound(x, _A, _C, 1.0, _cert()),
                                 _KS, _ref_log_confined),
    "log_contour_coeff_bound": (lambda x: log_contour_coeff_bound(x, _A, _C),
                                np.array([2, 3, 10, 40]), _ref_log_contour),
    "quadrant_bound": (lambda x: quadrant_bound(SectorParams(_A, _C), x), _RING,
                       lambda mp, w: _ref_growth(mp, w, False)),
    "sector_bound": (lambda x: sector_bound(SectorParams(_A, _C), x), _RING,
                     lambda mp, w: _ref_growth(mp, w, True)),
    "central_binomial_convolution": (central_binomial_convolution, np.arange(41),
                                     _ref_convolution),
}


@pytest.mark.parametrize("name", sorted(_BOUND_FORMS))
def test_bound_array_form_is_its_scalar_form_and_matches_a_reference(name):
    """Each bound takes an index or point array: element for element it
    equals the call on each scalar, which returns a float, and both match
    an mpmath (or exact) reference to 1e-13."""
    mp = pytest.importorskip("mpmath")
    fn, xs, reference = _BOUND_FORMS[name]
    column = fn(xs)
    scalars = [fn(x.item()) for x in xs]
    assert isinstance(column, np.ndarray) and column.shape == xs.shape
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(column, scalars, equal_nan=True)
    ref = np.array([float(reference(mp, x.item())) for x in xs])
    assert np.array_equal(np.isnan(column), np.isnan(ref))
    keep = ~np.isnan(ref)
    assert np.all(np.abs(column[keep] - ref[keep]) <= 1e-13 * np.maximum(np.abs(ref[keep]), 1.0))
