"""Weighted norms, the generating function, the factorial certificate, and
the confinement-implies-decay bounds."""

import math
import tracemalloc

import numpy as np
import pytest

import gaussherm.weighted as weighted_module
from gaussherm.errors import NumericalDomainError
from gaussherm.gaussians import (
    gaussian,
    hermite_coeffs,
    squeezed_state,
    weighted_norm_sq_gaussian,
)
from gaussherm.grid import DEFAULT_GRID, SQRT_2PI, GridSpec, SampledFunction
from gaussherm.hermite import (
    HermiteExpansion,
    fourier_sampled,
    hermite_phi_all,
    unit_expansion,
)
from gaussherm.oscillator import _log_dilation, default_t_grid, evolve_gaussian
from gaussherm.weighted import (
    WEIGHTED_EDGE_REL,
    WeakConfinementParams,
    central_binomial,
    central_binomial_certificate,
    central_binomial_convolution,
    expansion_weighted_norm_sq,
    generating_function_check,
    log_confined_coeff_bound,
    phi_weighted_norm_lower,
    phi_weighted_norm_sq,
    selfdual_norm_bound,
    weak_confinement_chain,
    weak_confinement_chain_exact,
    weighted_energy_rows,
)


def two_sided_quadrature(f, a):
    """Sampled ||f||_a^2: the time-side quadrature of f and of its sampled
    transform on the same grid, averaged (nan where either is refused)."""
    return 0.5 * sum(weighted_energy_rows(s.values, s.grid, a)[0] for s in (f, fourier_sampled(f)))


def test_phi_weighted_norm_ground_state():
    # oracle: Gaussian integral, ||phi_0||_a^2 = (1-a)^{-1/2}
    assert phi_weighted_norm_sq(0, 0.5) == pytest.approx(2 ** 0.5, rel=1e-14)
    assert phi_weighted_norm_sq(0, 0.84) == pytest.approx((1 - 0.84) ** -0.5, rel=1e-13)


def test_phi_weighted_norm_first_excited():
    # oracle: moment integral, ||phi_1||_a^2 = (1-a)^{-3/2}
    assert phi_weighted_norm_sq(1, 0.5) == pytest.approx(2 * math.sqrt(2), rel=1e-14)
    assert phi_weighted_norm_sq(1, 0.5) == pytest.approx(0.5 ** -1.5, rel=1e-14)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_phi_weighted_norm_against_mpmath_sum(a):
    """The closed-form sum at 50 digits with exact central binomials, n <= 200,
    for each n alone and for all of them in one array call.

    The package takes Q_n from the product recurrence (within 1.8e-15) and
    applies mu^{-n} as e^{-n log mu} with an exponent up to ~440 here, whose
    ulp is 5.7e-14, so a few such ulps is the attainable relative error
    (measured: 3.5e-14; 5.3e-13 when Q_n came from lgamma differences)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    central = [mp.binomial(2 * k, k) for k in range(201)]
    am = mp.mpf(a)
    inv_mu = (1 + am) / (1 - am)
    ns = [*range(31), 50, 81, 100, 137, 150, 183, 199, 200]
    batch = phi_weighted_norm_sq(np.array(ns), a)
    for n, value in zip(ns, batch):
        total = mp.fsum(central[k] * central[n - k] * inv_mu ** k for k in range(n + 1))
        expected = total / (mp.mpf(4) ** n * mp.sqrt(1 - am))
        assert abs(phi_weighted_norm_sq(n, a) - expected) <= 1e-13 * expected
        assert abs(value - expected) <= 1e-13 * expected


def test_phi_weighted_norm_domain():
    with pytest.raises(NumericalDomainError):
        phi_weighted_norm_sq(3, 0.0)
    with pytest.raises(NumericalDomainError):
        phi_weighted_norm_sq(3, 1.0)
    for f in (phi_weighted_norm_sq, phi_weighted_norm_lower):
        with pytest.raises(ValueError):
            f(-1, 0.5)
        with pytest.raises(ValueError):
            f(np.array([0, 2, -1]), 0.5)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.9])
def test_phi_norm_array_call_matches_scalar_calls(a):
    """One array call gives each n's value; a scalar n gives a float."""
    n = np.arange(61)
    for f in (phi_weighted_norm_sq, phi_weighted_norm_lower):
        assert type(f(7, a)) is float
        assert type(f(np.int64(7), a)) is float
        batch = f(n, a)
        assert batch.shape == (61,)
        assert batch == pytest.approx([f(k, a) for k in range(61)], rel=1e-15)


@pytest.mark.parametrize("a", [0.001, 0.2, 0.5, 0.9, 0.999])
def test_phi_norm_of_one_index_is_the_table_entry(a):
    """A single n sums S_n alone, in O(n); it agrees with the table's entry
    for n <= 400.  The two sums of S_n may differ in their last bit, and
    e^x, x <= 709, turns that into at most 709 ulp-of-1 relative."""
    table = phi_weighted_norm_sq(np.arange(401), a)
    assert [phi_weighted_norm_sq(n, a) for n in range(401)] == pytest.approx(table, rel=2e-13)


def test_weighted_norm_sq_phi1_quadrature(wide_grid):
    # |phi_1 hat| = |phi_1|, so the time side alone is the two-sided norm
    phi1 = hermite_phi_all(1, wide_grid.xs)[1]
    assert weighted_energy_rows(phi1, wide_grid, 0.5)[0] == pytest.approx(
        2 * math.sqrt(2), rel=1e-10
    )


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [0, 3, 12, 30])
def test_closed_norm_matches_quadrature(wide_grid, a, n):
    quad = weighted_energy_rows(hermite_phi_all(n, wide_grid.xs)[n], wide_grid, a)[0]
    assert quad == pytest.approx(phi_weighted_norm_sq(n, a), rel=1e-10)


def test_sampled_and_expansion_routes_agree(grid):
    """Dual route: for mild weights the sampled transform (two-sided
    quadrature) and the Gram form give the same norm, for single Hermite
    functions and for complex combinations whose indices meet in every
    residue mod 4 (where the two sides add or cancel)."""
    rng = np.random.default_rng(7)
    mixed = HermiteExpansion(rng.normal(size=9) + 1j * rng.normal(size=9))
    for a in (0.1, 0.2):
        for n in (0, 1, 4, 8):
            f = SampledFunction(grid, hermite_phi_all(n, grid.xs)[n])
            assert two_sided_quadrature(f, a) == pytest.approx(
                expansion_weighted_norm_sq(unit_expansion(n), a), rel=1e-9
            )
        f = SampledFunction(grid, mixed.coeffs @ hermite_phi_all(len(mixed) - 1, grid.xs))
        assert two_sided_quadrature(f, a) == pytest.approx(
            expansion_weighted_norm_sq(mixed, a), rel=1e-9
        )


def one_block_energy(values, grid, a):
    """weighted_energy_rows' quadrature and edge guard over all rows at once."""
    weighted = np.abs(np.atleast_2d(values)) ** 2 * np.exp(a * grid.xs * grid.xs)
    peak = weighted.max(axis=1)
    edge = np.maximum.reduce([weighted[:, 0], weighted[:, 1], weighted[:, -2], weighted[:, -1]])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(peak > 0.0, edge / peak, 0.0)
    h = grid.spacing
    integral = h * (weighted.sum(axis=1) - 0.5 * (weighted[:, 0] + weighted[:, -1]))
    return np.where(ratio > WEIGHTED_EDGE_REL, math.nan, integral / SQRT_2PI)


@pytest.mark.parametrize("grid_name", ["grid", "wide_grid"])
def test_weighted_energy_row_blocks_are_bit_identical(request, grid_name):
    """Row blocks of at most 256 KB give exactly the one-block values, nan
    rows included, for stacks just under, at and just over one block, at one
    weight and at three in one call."""
    g = request.getfixturevalue(grid_name)
    step = weighted_module._BLOCK_BYTES // (8 * g.num_points)
    rows = hermite_phi_all(30, g.xs)[np.random.default_rng(5).permutation(31)]
    nan_rows = 0
    for count in (1, step - 1, step, step + 1, 31):
        three = weighted_energy_rows(rows[:count], g, (0.2, 0.5, 0.9))
        assert three.shape == (3, count)
        for a, got_three in zip((0.2, 0.5, 0.9), three):
            expected = one_block_energy(rows[:count], g, a)
            got = weighted_energy_rows(rows[:count], g, a)
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(got_three, expected, equal_nan=True)
            nan_rows += int(np.isnan(got).sum())
    assert nan_rows > 0


@pytest.mark.parametrize("grid_spec", [(16, 4096), (12, 4096), (16, 2048), (24, 6144), (60, 16384)])
def test_weighted_energy_rows_of_several_weights_are_the_one_weight_calls(grid_spec):
    """Each row of a call at several weights is, bit for bit and nan rows
    included, the call at that weight alone, whichever weights share it."""
    g = GridSpec(float(grid_spec[0]), grid_spec[1])
    rows = hermite_phi_all(40, g.xs)
    weights = np.round(np.arange(0.2, 0.901, 0.05), 2)
    singles = np.array([weighted_energy_rows(rows, g, a) for a in weights])
    assert np.array_equal(weighted_energy_rows(rows, g, weights), singles, equal_nan=True)
    some = weighted_energy_rows(rows, g, weights[::-3])
    assert np.array_equal(some, singles[::-3], equal_nan=True)
    assert np.isnan(singles).any()  # every row on L = 60, where e^{a x^2} overflows at the edges


def test_weighted_edge_guard_scans_the_rows_its_peak_bound_does_not_clear(grid):
    """The guard bounds a weighted row's peak below by its value at the
    row's largest |sample|.  A row whose bound does not clear its edges is
    scanned in full: accepted where its true peak clears them, refused where
    it does not, as over the whole row at once (``one_block_energy``)."""
    a, xs = 0.5, grid.xs
    # |f| peaks at x = 0, where the bound is 1; the bump's |f|^2 e^{a x^2}
    # peaks near x = 10.7 at 1e-6 e^{42.7} and falls to about 1e-6 at x -> 16
    bump = np.exp(-0.5 * xs * xs) + 1e-3 * np.exp(-(xs - 8.0) ** 2)
    edged = bump.copy()
    edged[-1] = 1e-24  # weighted 1e-48 e^{128}, 1e-5 of the true peak
    rows = np.array([bump, edged])
    square = np.abs(rows) ** 2
    weighted = square * np.exp(a * xs * xs)
    edge = weighted[:, [0, 1, -2, -1]].max(axis=1)
    bound = square.max(axis=1) * np.exp(a * xs[square.argmax(axis=1)] ** 2)
    assert np.all(edge > WEIGHTED_EDGE_REL * bound)  # neither row's bound clears
    assert edge[0] <= WEIGHTED_EDGE_REL * weighted[0].max()  # the first row's peak does
    assert edge[1] > WEIGHTED_EDGE_REL * weighted[1].max()  # the second row's does not
    got = weighted_energy_rows(rows, grid, a)
    assert np.isfinite(got[0]) and np.isnan(got[1])
    assert np.array_equal(got, one_block_energy(rows, grid, a), equal_nan=True)
    assert np.array_equal(weighted_energy_rows(rows, grid, [0.3, a])[1], got, equal_nan=True)


def test_weighted_norm_rejects_nonmember(grid):
    g = gaussian(0.5)
    assert np.isnan(weighted_energy_rows(g.sample(grid).values, grid, 0.7)[0])
    assert weighted_norm_sq_gaussian(g, 0.7) == math.inf


def gram_columns(kmax, a, dtype=float):
    """Columns k = 0..kmax of H_jk = G_jk mu^{(j+k)/2}, j = 0..kmax, of the
    Gram matrix G_jk = integral phi_j phi_k e^{a x^2} dm, mu = (1-a)/(1+a),
    by the ladder recurrence: G_00 = (1-a)^{-1/2} and

        (1+a) sqrt(k+1) H_{j,k+1} = sqrt(j) H_{j-1,k} + a sqrt(k) H_{j,k-1},

    column 0 being row 0 (G is symmetric).  Every term is non-negative, so
    nothing cancels.  The oracle of the weighted norm, which the package
    forms from the weighted dilation instead; in ``dtype`` (np.longdouble
    for an oracle finer than the double route it checks).  Each column is a
    fresh array."""
    a = dtype(a)
    root = np.sqrt(np.arange(kmax + 1, dtype=dtype))
    a_root = a * root
    scale = 1 / ((1 + a) * root[1:])
    col = np.zeros(kmax + 1, dtype)
    col[0] = (1 - a) ** dtype(-0.5)
    for k in range(1, kmax, 2):
        col[k + 1] = a_root[k] * scale[k] * col[k - 1]
    prev = np.zeros(kmax + 1, dtype)
    spare = np.empty(kmax, dtype)
    yield col
    for k in range(kmax):
        nxt = np.multiply(prev, a_root[k])
        nxt[1:] += np.multiply(root[1:], col[:-1], out=spare)
        nxt *= scale[k]
        prev, col = col, nxt
        yield col


def gram_norm_sq(e, a):
    """||f||_a^2 = (c* G c + chat* G chat)/2 from :func:`gram_columns`, in
    doubles, each c_k mu^{-k/2} scaled by one power of two: the sum of
    conj(c_j) c_k G_jk over j = k mod 4, as the package formed it before the
    weighted dilation, bit for bit."""
    c = e.coeffs
    kmax = int(np.flatnonzero(c)[-1])
    c = c[: kmax + 1]
    k = np.arange(kmax + 1)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(c)) - 0.5 * k * math.log((1.0 - a) / (1.0 + a))
    shift = round(float(log_abs.max()) / math.log(2.0))
    d = np.exp(log_abs - shift * math.log(2.0)) * np.exp(1j * np.angle(c))
    parts = [np.where(k % 4 == r, [d.real, d.imag], 0.0) for r in range(4)]
    sums = np.array([parts[kk % 4] @ col for kk, col in enumerate(gram_columns(kmax, a))])
    return math.ldexp(math.fsum(d.real * sums[:, 0] + d.imag * sums[:, 1]), 2 * shift)


def extended_gram_norm_sq(c, a):
    """The same sum of conj(c_j) c_k G_jk over j = k mod 4, unscaled, in the
    platform's extended precision (64-bit mantissa on x86-64): it drifts by
    about 1e-19 per column where the double loop drifts by 1e-16, 1.3e-13 at
    K = 1764."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the extended oracle needs a long double wider than a double")
    c = np.asarray(c, dtype=complex)
    kmax = len(c) - 1
    a = np.longdouble(a)
    k = np.arange(kmax + 1)
    scale = ((1 - a) / (1 + a)) ** (-k / np.longdouble(2))
    d = [np.asarray(c.real, np.longdouble) * scale, np.asarray(c.imag, np.longdouble) * scale]
    total = np.longdouble(0)
    for j, col in enumerate(gram_columns(kmax, a, np.longdouble)):
        same = k % 4 == j % 4
        total += sum(dj[j] * np.sum(dj[same] * col[same]) for dj in d)
    return float(total)


def _gram_matrix(kmax, a):
    """G_jk from the scaled columns H_jk = G_jk mu^{(j+k)/2}."""
    mu = (1 - a) / (1 + a)
    h = np.array(list(gram_columns(kmax, a))).T
    j = np.arange(kmax + 1)
    return h * mu ** (-0.5 * (j[:, None] + j[None, :]))


def _reference_gram_columns(kmax, a):
    """The ladder recurrence as it was first written, with two fresh arrays
    per column: the reference for the leaner loop of the oracle."""
    root = np.sqrt(np.arange(kmax + 1, dtype=float))
    scale = 1.0 / ((1.0 + a) * root[1:])
    col = np.zeros(kmax + 1)
    col[0] = (1.0 - a) ** -0.5
    for k in range(1, kmax, 2):
        col[k + 1] = a * root[k] * scale[k] * col[k - 1]
    prev = np.zeros(kmax + 1)
    yield col
    for k in range(kmax):
        nxt = a * root[k] * prev
        nxt[1:] += root[1:] * col[:-1]
        nxt *= scale[k]
        prev, col = col, nxt
        yield col


@pytest.mark.parametrize("a", [0.2, math.tanh(0.45), 0.8])
@pytest.mark.parametrize("kmax", [0, 1, 2, 30, 300])
def test_gram_columns_equal_the_reference_loop_bit_for_bit(kmax, a):
    """The oracle's loop that forms each column in one fresh array (a sqrt(k)
    precomputed, sqrt(j) H_{j-1,k} in a reused scratch) gives the columns of
    the reference loop bit for bit, each column its own array."""
    got = list(gram_columns(kmax, a))
    want = list(_reference_gram_columns(kmax, a))
    assert len(got) == len(want) == kmax + 1
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert len({id(g) for g in got}) == len(got)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_gram_entries_against_mpmath_generating_function(a):
    """Off-diagonal G_jk of the oracle at 50 digits from the generating function
    sum_jk G_jk s^j t^k / sqrt(j! k!) = (1-a)^{-1/2} exp(al s^2 + al t^2 + be s t),
    al = a/(2(1-a)), be = 1/(1-a): a finite sum of positive terms, independent
    of the ladder recurrence (measured worst: 5.6e-15 relative)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    am = mp.mpf(a)
    al, be, mu = am / (2 * (1 - am)), 1 / (1 - am), (1 - am) / (1 + am)
    h = np.array(list(gram_columns(120, a))).T
    indices = sorted({*range(0, 121, 7), 1, 2, 3, 119, 120})
    for j in indices:
        for k in indices:
            if (j - k) % 2:
                assert h[j, k] == 0.0
                continue
            total = mp.fsum(
                be ** m / mp.factorial(m)
                * al ** ((j - m) // 2) / mp.factorial((j - m) // 2)
                * al ** ((k - m) // 2) / mp.factorial((k - m) // 2)
                for m in range(j % 2, min(j, k) + 1, 2)
            )
            g = total * mp.sqrt(mp.factorial(j) * mp.factorial(k) / (1 - am))
            expected = g * mu ** (mp.mpf(j + k) / 2)
            assert abs(h[j, k] - expected) <= 1e-13 * expected


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_gram_diagonal_symmetry_and_quadrature(wide_grid, a):
    g = _gram_matrix(40, a)
    assert np.allclose(g, g.T, rtol=1e-14, atol=0.0)
    closed = np.array([phi_weighted_norm_sq(n, a) for n in range(41)])
    assert np.max(np.abs(np.diag(g) - closed) / closed) < 1e-12
    phis = hermite_phi_all(20, wide_grid.xs)
    weight = np.exp(a * wide_grid.xs ** 2) * wide_grid.spacing / math.sqrt(2 * math.pi)
    quad = (phis * weight) @ phis.T
    scale = np.sqrt(np.outer(np.diag(quad), np.diag(quad)))
    assert np.max(np.abs(quad - g[:21, :21]) / scale) < 1e-12


def seeded_expansion(kmax, seed=None):
    rng = np.random.default_rng(kmax if seed is None else seed)
    return HermiteExpansion(rng.normal(size=kmax + 1) + 1j * rng.normal(size=kmax + 1))


@pytest.mark.parametrize("kmax, a", [
    (10, 0.3), (40, 0.5), (81, 0.2), (120, 0.6), (300, math.tanh(0.45)), (800, 0.3),
    (1764, 0.05),
])
def test_dilation_norm_matches_the_ladder_oracle(kmax, a):
    """The weighted dilation's norm of a seeded dense complex expansion is
    the Gram form of the extended-precision ladder oracle to 1e-13 relative
    (measured worst: 4.0e-15, at K = 1764; the double ladder itself is
    1.3e-13 off there)."""
    e = seeded_expansion(kmax)
    want = extended_gram_norm_sq(e.coeffs, a)
    assert abs(expansion_weighted_norm_sq(e, a) - want) <= 1e-13 * want


@pytest.mark.parametrize("parity", [0, 1])
def test_dilation_norm_of_one_parity_class(parity):
    """An even-only or odd-only expansion, whose other class the route skips,
    and one whose nonzero indices lie in one residue mod 4."""
    c = seeded_expansion(121, seed=parity).coeffs
    c[1 - parity::2] = 0.0
    for coeffs in (c, np.where(np.arange(122) % 4 == parity, c, 0.0)):
        want = extended_gram_norm_sq(coeffs, 0.4)
        assert abs(expansion_weighted_norm_sq(HermiteExpansion(coeffs), 0.4) - want) <= 1e-13 * want


def test_dilation_rows_are_the_flow_operator():
    """The energies g ||x M||^2 of rows x are those of the flow's dense M
    (``oscillator._log_dilation``); for the unit rows they are the closed
    form of ||phi_n||_a^2, the Gram diagonal."""
    rows = np.vstack([np.eye(41), np.random.default_rng(3).normal(size=(3, 41))])
    for a in (0.2, 0.5, 0.8):
        dense = (rows @ np.exp(_log_dilation(40, a))) ** 2
        want = (1 - a) ** -0.5 * dense.sum(axis=1)
        got = weighted_module._dilation_energies(rows, a)
        assert got == pytest.approx(want, rel=1e-12)
        assert got[:41] == pytest.approx(phi_weighted_norm_sq(np.arange(41), a), rel=1e-13)


def test_dilation_norm_past_one_column_per_block(monkeypatch):
    """A block smaller than one column of the live classes (128 doubles,
    against 2 x 151 for K = 300 dense and 151 for its even part) runs one
    column at a time until the columns shrink to fit, and still meets the
    ladder oracle: the shape K ~ 32768 takes with the real block."""
    monkeypatch.setattr(weighted_module, "_BLOCK_BYTES", 1024)
    c = seeded_expansion(300).coeffs
    for coeffs in (c, np.where(np.arange(301) % 2 == 0, c, 0.0)):
        want = extended_gram_norm_sq(coeffs, 0.3)
        assert abs(expansion_weighted_norm_sq(HermiteExpansion(coeffs), 0.3) - want) <= 1e-13 * want


def test_dilation_norm_memory_stays_within_one_block():
    """At K = 8000 the route holds one column block of ``_BLOCK_BYTES``
    besides O(K) vectors, where one parity class formed whole takes 128 MB:
    its tracemalloc peak stays below the block plus 32 doubles a coefficient
    (measured: 2.0 MiB; the Gram route read 2.3 MiB)."""
    e = seeded_expansion(8000)
    tracemalloc.start()
    try:
        value = expansion_weighted_norm_sq(e, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak <= weighted_module._BLOCK_BYTES + 32 * 8 * 8001


def test_gram_form_of_squeezed_state_equals_closed_form():
    """The oracle's Gram form of 161 coefficients meets the closed form
    exactly; the dilation route, which rounds otherwise, within the one ulp
    it measures (it reads ...423)."""
    sq = squeezed_state(0.878998)
    closed = weighted_norm_sq_gaussian(sq, 0.561826)
    assert closed == 1.1297319581455425
    e = hermite_coeffs(sq, 160)
    assert gram_norm_sq(e, 0.561826) == closed
    assert abs(expansion_weighted_norm_sq(e, 0.561826) - closed) <= math.ulp(closed)


def test_gram_form_single_term_and_zero():
    assert expansion_weighted_norm_sq(unit_expansion(74), 0.33275) == phi_weighted_norm_sq(
        74, 0.33275
    )
    e = HermiteExpansion([0.0, 0.0, 3.0 - 4.0j])
    assert expansion_weighted_norm_sq(e, 0.4) == 25.0 * phi_weighted_norm_sq(2, 0.4)
    assert expansion_weighted_norm_sq(HermiteExpansion([0.0, 0.0]), 0.4) == 0.0


def test_gram_form_domain():
    for a in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(NumericalDomainError):
            expansion_weighted_norm_sq(HermiteExpansion([1.0, 1.0]), a)


def test_norms_past_the_double_range_are_inf():
    # mu = 1/19 at a = 0.9: mu^-300 is past 1e308
    assert phi_weighted_norm_sq(300, 0.9) == math.inf
    assert phi_weighted_norm_lower(300, 0.9) == math.inf
    assert expansion_weighted_norm_sq(HermiteExpansion(np.ones(301)), 0.9) == math.inf
    # large coefficients on a short expansion: the scaling keeps the finite value
    e = HermiteExpansion([1e150, 1e150j, 1e150])
    ref = expansion_weighted_norm_sq(HermiteExpansion([1.0, 1j, 1.0]), 0.5)
    assert expansion_weighted_norm_sq(e, 0.5) == pytest.approx(1e300 * ref, rel=1e-13)
    # and the small ones, whose squares underflow
    e = HermiteExpansion([1e-150, 1e-150j, 1e-150])
    assert expansion_weighted_norm_sq(e, 0.5) == pytest.approx(1e-300 * ref, rel=1e-13)


def test_weighted_edge_guard_is_right_or_refused():
    """On the L = 12 grid every accepted row is within 1e-6 of the closed
    form; the refused ones are nan."""
    grid = GridSpec(12.0, 4096)
    phis = hermite_phi_all(40, grid.xs)
    for a in (0.2, 0.5, 0.7, 0.8):
        quad = weighted_energy_rows(phis, grid, a)
        closed = np.array([phi_weighted_norm_sq(n, a) for n in range(41)])
        ok = ~np.isnan(quad)
        assert ok[0]
        assert np.all(np.abs(quad[ok] - closed[ok]) <= 1e-6 * closed[ok])
    assert np.isnan(weighted_energy_rows(phis, grid, 0.7)[19])


def test_unweighted_limit_is_orthonormality():
    """As a -> 0 the closed form collapses to 1 for every n (convolution
    identity of central binomial weights)."""
    for n in range(31):
        assert central_binomial_convolution(n) == pytest.approx(1.0, abs=1e-12)
    assert phi_weighted_norm_sq(7, 1e-12) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("n", [0, 1, 7, 20])
def test_zero_weight_norm_is_plain_l2(grid, n):
    f = SampledFunction(grid, hermite_phi_all(n, grid.xs)[n])
    assert two_sided_quadrature(f, 0.0) == pytest.approx(1.0, rel=1e-10)
    assert weighted_energy_rows(f.values, grid, 0.0)[0] == pytest.approx(1.0, rel=1e-10)


def test_norm_monotone_in_weight(grid):
    weights = (0.05, 0.2, 0.4, 0.6)
    phi2 = hermite_phi_all(2, grid.xs)[2]
    mixed = HermiteExpansion([1.0, 0.5j, -0.25, 0.0, 0.1 + 0.1j])
    for values in (
        [weighted_energy_rows(phi2, grid, a)[0] for a in weights],
        [expansion_weighted_norm_sq(mixed, a) for a in weights],
    ):
        assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))


def test_generating_function_spot_value():
    lhs, rhs = generating_function_check(0.5, 0.25, 200)
    expected = math.sqrt(2) * 0.75 ** -0.5 * 0.25 ** -0.5
    assert rhs == pytest.approx(expected, rel=1e-14)
    assert abs(lhs - rhs) < 1e-10


def test_generating_function_more_points():
    for a, w, nmax in ((0.2, 0.5, 400), (0.2, -0.3, 300), (0.5, 0.25, 400)):
        lhs, rhs = generating_function_check(a, w, nmax)
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("a, w, nmax", [(0.5, 0.25, 400), (0.2, 0.5, 400), (0.2, -0.3, 300)])
def test_generating_function_against_mpmath_partial_sum(a, w, nmax):
    """The partial sum (1-a)^{-1/2} sum_k S_k (w/mu)^k at 50 digits with exact
    central binomials (measured worst: 1.4e-16 relative)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    am, wm = mp.mpf(a), mp.mpf(w)
    mu = (1 - am) / (1 + am)
    q = [mp.binomial(2 * k, k) / mp.mpf(4) ** k for k in range(nmax + 1)]
    total = mp.fsum(
        mp.fsum(q[n - j] * q[j] * mu ** j for j in range(n + 1)) * (wm / mu) ** n
        for n in range(nmax + 1)
    )
    expected = total / mp.sqrt(1 - am)
    assert abs(generating_function_check(a, w, nmax)[0] - expected) <= 1e-14 * abs(expected)


def test_generating_function_w_zero():
    lhs, rhs = generating_function_check(0.3, 0.0, 10)
    assert lhs == pytest.approx(phi_weighted_norm_sq(0, 0.3), rel=1e-14)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_generating_function_radius_guard():
    with pytest.raises(NumericalDomainError):
        generating_function_check(0.5, 0.4, 100)  # mu = 1/3 < 0.4


def test_central_binomial_values():
    assert central_binomial(0) == pytest.approx(1.0, rel=1e-14)
    assert central_binomial(1) == pytest.approx(0.5, rel=1e-14)
    assert central_binomial(2) == pytest.approx(0.375, rel=1e-14)


def test_central_binomial_against_mpmath():
    """Q_n, n <= 400, against exact central binomials at 30 digits: the
    product recurrence is within 1.8e-15 relative (measured), where
    differences of lgamma values were off by up to 1.2e-12."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    n = np.arange(401)
    batch = central_binomial(n)
    assert np.array_equal(central_binomial(n.astype(float)), batch)
    for k in n:
        exact = mp.binomial(2 * int(k), int(k)) / mp.mpf(4) ** int(k)
        assert abs(batch[k] - exact) <= 1e-14 * exact
        assert central_binomial(int(k)) == batch[k]


def test_central_binomial_refuses_non_integers():
    for n in (-1, 1.5, np.array([0, 2, -3]), np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            central_binomial(n)


def test_lower_bound_below_closed_norm():
    # the retained k = n term dominates up to a constant: the full sum is
    # asymptotically (1-mu)^{-1/2} times it, so the ratio tends to
    # sqrt(1-mu), strictly between 0 and 1
    for a in (0.2, 0.5, 0.8):
        mu = (1 - a) / (1 + a)
        for n in (1, 5, 20, 50):
            lo = phi_weighted_norm_lower(n, a)
            hi = phi_weighted_norm_sq(n, a)
            assert lo <= hi * (1 + 1e-12)
        assert phi_weighted_norm_lower(50, a) / phi_weighted_norm_sq(50, a) == pytest.approx(
            math.sqrt(1 - mu), rel=0.02
        )


def test_certificate_construction_and_validation():
    cert = central_binomial_certificate(1.1)
    assert cert.m == 2
    assert cert.b_proof == pytest.approx(0.375 * 2 ** 0.55, rel=1e-12)
    assert cert.b == pytest.approx(0.5, rel=1e-12)  # Q_1 caps the proof constant
    n = np.arange(1, 10_001, dtype=float)
    from gaussherm.weighted import log_central_binomial

    margins = log_central_binomial(n) + 0.55 * np.log(n) - math.log(cert.b)
    assert margins.min() >= -1e-12


@pytest.mark.parametrize("beta, delta, m", [(1.1, 0.176134, 2), (2.0, 0.796812, 1),
                                             (4.0, 0.980173, 1)])
def test_certificate_delta_is_the_root(beta, delta, m):
    """delta sits a hair below the positive root of log(1-x) + beta x (30
    digits), on the admissible side."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    root = mp.findroot(lambda x: mp.log(1 - x) + beta * x, (delta - 0.01, delta + 0.01),
                       solver="illinois")
    cert = central_binomial_certificate(beta)
    assert abs(cert.delta - root) <= 1e-9 * root
    assert math.log1p(-cert.delta) + beta * cert.delta >= 0.0
    assert round(cert.delta, 6) == delta
    assert cert.m == m


def test_certificate_rejects_beta_at_most_one():
    with pytest.raises(NumericalDomainError):
        central_binomial_certificate(1.0)
    with pytest.raises(NumericalDomainError):
        central_binomial_certificate(0.7)
    with pytest.raises(NumericalDomainError):
        central_binomial_certificate(math.nan)


def test_certificate_beta_two_is_tight_at_n1():
    cert = central_binomial_certificate(2.0)
    assert cert.b == pytest.approx(0.5, rel=1e-12)  # Q_1 * 1 = 1/2, equality


def test_wallis_asymptotics():
    for n, tol in ((1000, 0.01), (10_000, 0.01)):
        val = float(central_binomial(n) * math.sqrt(math.pi * n))
        assert abs(val - 1.0) < tol


def test_confined_coeff_bound_requires_matching_certificate():
    cert = central_binomial_certificate(2.0)
    with pytest.raises(ValueError):
        log_confined_coeff_bound(3, 0.4, 1.0, 1.5, cert)  # needs beta = 3
    with pytest.raises(NumericalDomainError):
        log_confined_coeff_bound(3, 0.4, 1.0, 0.4, cert)  # alpha <= 1/2


def test_confined_coeff_bound_spot_value():
    cert = central_binomial_certificate(2.0)
    a, c = 0.4, 1.3
    mu = (1 - a) / (1 + a)
    expected = c / math.sqrt(cert.b) * (1 - a) ** 0.25 * mu ** 0.5
    assert math.exp(log_confined_coeff_bound(1, a, c, 1.0, cert)) == pytest.approx(expected, rel=1e-13)


def test_confined_coeff_bound_dominates_squeezed_flow(grid):
    beta = 0.5
    sq = squeezed_state(beta)
    a = math.tanh(0.45)
    cert = central_binomial_certificate(2.0)
    ts = default_t_grid(64)
    big_c = math.sqrt(max(
        weighted_norm_sq_gaussian(evolve_gaussian(sq, float(t)), a) for t in ts
    ))
    coeffs = hermite_coeffs(sq, 60).coeffs
    for k in range(1, 61):
        ck = abs(coeffs[k])
        if ck:
            assert math.log(ck) <= log_confined_coeff_bound(k, a, big_c, 1.0, cert)


def test_selfdual_norm_bound_values():
    assert selfdual_norm_bound(0.5) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(NumericalDomainError):
        selfdual_norm_bound(1.0)


def test_selfdual_norm_bound_gaussian_attains_equality():
    g1 = gaussian(1.0)
    for b in np.arange(0.1, 0.95, 0.1):
        nb = math.sqrt(weighted_norm_sq_gaussian(g1, float(b)))
        bound = selfdual_norm_bound(float(b))
        assert nb <= bound * (1 + 1e-9)
        # g_1 is phi_0 / 2^(1/4): the Gram form's single-term route
        e = HermiteExpansion([2.0 ** -0.25])
        assert expansion_weighted_norm_sq(e, float(b)) == pytest.approx(nb * nb, rel=1e-14)
    assert math.sqrt(weighted_norm_sq_gaussian(g1, 0.5)) == pytest.approx(1.0, rel=1e-14)
    # the sampled two-sided quadrature agrees where its edge guard admits it
    assert math.sqrt(two_sided_quadrature(g1.sample(DEFAULT_GRID), 0.2)) == pytest.approx(
        math.sqrt(weighted_norm_sq_gaussian(g1, 0.2)), rel=1e-10
    )


def test_weak_confinement_params_validation():
    with pytest.raises(ValueError):
        WeakConfinementParams(1.0, 1.0, 0.5)
    p = WeakConfinementParams(3.0, 2.0, 0.5)
    assert 0 < p.a < p.b < 1


def test_weak_confinement_chain_limit_behavior():
    cert = central_binomial_certificate(4.0)
    # N = 3: (N-1)/2 = 1, so k >= 2 is forced to zero as beta grows
    values_k2 = [
        weak_confinement_chain(WeakConfinementParams(3.0, 1.0, b), 2, cert)
        for b in (1.0, 5.0, 10.0, 20.0)
    ]
    assert all(v1 > v2 for v1, v2 in zip(values_k2, values_k2[1:]))
    assert values_k2[-1] < 1e-8
    values_k1 = [
        weak_confinement_chain(WeakConfinementParams(3.0, 1.0, b), 1, cert)
        for b in (1.0, 5.0, 10.0, 20.0)
    ]
    assert values_k1[0] == values_k1[-1]  # exponent vanishes at k = (N-1)/2


def test_weak_confinement_chain_exact_below_simplified():
    cert = central_binomial_certificate(4.0)
    for beta in (0.5, 2.0, 8.0):
        p = WeakConfinementParams(2.5, 1.7, beta)
        for k in (1, 2, 5):
            exact = weak_confinement_chain_exact(p, k, cert)
            simplified = weak_confinement_chain(p, k, cert)
            assert exact <= simplified * (1 + 1e-12)


def test_weak_confinement_chain_requires_beta4_certificate():
    cert = central_binomial_certificate(2.0)
    with pytest.raises(ValueError):
        weak_confinement_chain(WeakConfinementParams(3.0, 1.0, 1.0), 1, cert)
