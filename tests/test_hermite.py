"""Hermite basis: normalization pins, recurrence stability, quadrature,
Fourier transforms, Mehler's identity."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import gaussherm.hermite as hermite
import gaussherm.verify as verify
from gaussherm.errors import BandLimitError, EdgeDecayError, NumericalDomainError
from gaussherm.grid import SQRT_2PI, GridSpec, SampledFunction, norm_sq, trapezoid_weights
from gaussherm.hermite import (
    HermiteExpansion,
    analyze,
    band_limit,
    fourier_expansion,
    fourier_rows,
    fourier_sampled,
    grid_basis,
    hermite_phi_all,
    unit_expansion,
)


def synthesize(e, grid):
    """Reference synthesis: sum_k c_k phi_k on the grid, over the grid's
    cached basis rows (refused past the grid's band limit, as they are)."""
    return SampledFunction(grid, e.coeffs @ grid_basis(grid, len(e) - 1))


def mehler_closed_form(x, w):
    """Mehler's closed form of sum_k phi_k(x)**2 w**k for |w| < 1:
    sqrt(2) (1 - w**2)**-0.5 exp(-((1-w)/(1+w)) x**2)."""
    return math.sqrt(2.0) / math.sqrt(1.0 - w * w) * math.exp(-(1.0 - w) / (1.0 + w) * x * x)


def phi2_explicit(x):
    # oracle: degree-2 Hermite polynomial H_2 = 4x^2 - 2, normalized by
    # 2**0.25 / sqrt(2^2 2!)
    return 2.0 ** 0.25 * (4 * x * x - 2) * np.exp(-0.5 * x * x) / math.sqrt(8.0)


def test_phi0_at_zero_pin():
    assert hermite_phi_all(0, [0.0])[0, 0] == pytest.approx(2.0 ** 0.25, abs=1e-14)


def test_phi1_odd():
    assert hermite_phi_all(1, [0.0])[1, 0] == 0.0


def test_phi2_against_explicit_polynomial():
    xs = np.linspace(-4, 4, 17)
    assert hermite_phi_all(2, xs)[2] == pytest.approx(phi2_explicit(xs), abs=1e-14)


def test_phi_against_mpmath_closed_form():
    """2^{1/4} (2^k k!)^{-1/2} H_k(x) e^{-x^2/2} at 50 digits, including the
    classically forbidden region |x| > sqrt(2k+1)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    xs = [0.0, 0.37, -1.3, 2.9, -5.5, 8.25, -11.0, 13.7, -18.0, 24.5, -30.0]
    table = hermite_phi_all(81, xs)
    for k in (0, 1, 5, 40, 81):
        for j, x in enumerate(xs):
            xm = mp.mpf(x)
            expected = float(
                mp.mpf(2) ** mp.mpf("0.25") / mp.sqrt(mp.mpf(2) ** k * mp.factorial(k))
                * mp.hermite(k, xm) * mp.exp(-xm * xm / 2)
            )
            if abs(expected) < np.finfo(float).tiny:
                assert table[k, j] == 0.0
            else:
                assert abs(table[k, j] - expected) <= 1e-12 * abs(expected)


def test_recurrence_against_extended_precision():
    """Same recurrence in mpmath at 40 digits, k <= 200, |x| <= 10."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = [0.0, 0.5, -1.0, 2.7, -5.0, 10.0, -10.0]
    kmax = 200
    vals = hermite_phi_all(kmax, xs)
    for j, x in enumerate(xs):
        xm = mp.mpf(x)
        p_prev = mp.mpf(2) ** mp.mpf("0.25") * mp.e ** (-xm * xm / 2)
        p = mp.sqrt(2) * xm * p_prev
        ref = {0: p_prev, 1: p}
        for k in range(1, kmax):
            p, p_prev = xm * mp.sqrt(mp.mpf(2) / (k + 1)) * p - mp.sqrt(mp.mpf(k) / (k + 1)) * p_prev, p
            ref[k + 1] = p
        for k in (0, 1, 2, 5, 10, 50, 100, 200):
            expected = float(ref[k])
            if expected == 0.0:
                assert vals[k, j] == 0.0
            else:
                assert abs(vals[k, j] - expected) <= 1e-10 * abs(expected)


def test_underflow_flushes_to_exact_zero():
    vals = hermite_phi_all(0, [50.0])[0]
    assert vals[0] == 0.0


def test_orthonormality_on_default_grid(grid):
    table = hermite_phi_all(40, grid.xs)
    w = np.full(grid.num_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    gram = (table * w) @ table.T / math.sqrt(2 * math.pi)
    assert np.max(np.abs(gram - np.eye(41))) < 1e-10


def _count_builds(monkeypatch):
    """Record the kmax of every basis build, every :func:`hermite_phi_all`
    call, :func:`grid_basis`'s among them."""
    build = hermite.hermite_phi_all
    builds = []

    def counting(kmax, xs):
        builds.append(kmax)
        return build(kmax, xs)

    monkeypatch.setattr(hermite, "hermite_phi_all", counting)
    return builds


@pytest.fixture()
def counted_builds(monkeypatch):
    """Empty the grid-basis cache and record the kmax of every basis build."""
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    return _count_builds(monkeypatch)


def test_grid_basis_rows_match_a_fresh_build(grid, counted_builds):
    grid_basis(grid, 40)
    for k in (0, 17, 40, 60, band_limit(grid)):
        assert np.array_equal(grid_basis(grid, k), hermite_phi_all(k, grid.xs))
    # the default grid's band fits 4 MiB: the first call builds all of it
    assert counted_builds == [band_limit(grid)]


def test_grid_basis_extends_its_rows_bit_for_bit(grid, counted_builds):
    """kmax 20 -> 60 -> 70 -> 81 on the default grid, with a switch to a
    40-wide grid (kmax 3 -> 50) between 60 and 70: every basis equals a fresh
    ``hermite_phi_all(kmax, xs)`` bit for bit.  The default grid's band fits
    4 MiB, so each visit builds all of it once; the wide grid's band does
    not, so it is built to the kmax asked for and built again for more rows.
    On the wide grid phi_2 and phi_3 are flushed to 0 at points where phi_50
    is normal, so the recurrence must run on the rows before the flush."""
    assert (band_limit(grid) + 1) * grid.num_points * 8 <= hermite._BAND_BUILD_BYTES
    wide = GridSpec(40.0, 2048)
    assert (band_limit(wide) + 1) * wide.num_points * 8 > hermite._BAND_BUILD_BYTES
    steps = [(grid, 20), (grid, 60), (wide, 3), (wide, 50), (grid, 70), (grid, band_limit(grid))]
    fresh = [hermite_phi_all(k, g.xs) for g, k in steps]
    assert np.any((fresh[3][2] == 0.0) & (fresh[3][3] == 0.0)
                  & (np.abs(fresh[3][50]) >= np.finfo(float).tiny))
    del counted_builds[:]
    for (g, k), want in zip(steps, fresh):
        assert np.array_equal(grid_basis(g, k), want)
    assert counted_builds == [band_limit(grid), 3, 50, band_limit(grid)]


def test_grid_basis_is_read_only(grid):
    phi = grid_basis(grid, 10)
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0
    with pytest.raises(ValueError):
        phi[3] *= 2.0


def test_grid_basis_holds_one_grid(grid, counted_builds):
    other = GridSpec(12.0, 2048)
    grid_basis(grid, 30)
    grid_basis(other, 20)
    cached_grid, rows = hermite._GRID_BASIS
    assert cached_grid == other and len(rows) == band_limit(other) + 1
    grid_basis(grid, 10)  # the first grid was evicted: built again
    assert counted_builds == [band_limit(grid), band_limit(other), band_limit(grid)]
    assert hermite._GRID_BASIS[0] == grid


def test_grid_basis_past_band_limit_builds_nothing(grid, counted_builds):
    grid_basis(grid, 5)
    cached = hermite._GRID_BASIS
    with pytest.raises(BandLimitError):
        grid_basis(grid, band_limit(grid) + 1)
    assert counted_builds == [band_limit(grid)]
    assert hermite._GRID_BASIS is cached


def _traced_peak(first, then) -> tuple[int, int]:
    """(bytes of the basis ``then()`` returns, tracemalloc's peak over
    ``first()`` and then ``then()``), nothing of ``first()`` held."""
    tracemalloc.start()
    try:
        first()
        nbytes = then().nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return nbytes, peak


def test_grid_basis_rebuild_holds_one_basis(grid, monkeypatch):
    """A rebuild for another grid lets the cached basis go before it builds
    and flushes subnormals row by row: the traced peak stays near one basis."""
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    other = GridSpec(14.0, 4096)  # 63 rows, 0.77x the default grid's 82
    nbytes, peak = _traced_peak(lambda: grid_basis(other, band_limit(other)),
                                lambda: grid_basis(grid, band_limit(grid)))
    assert peak < 1.5 * nbytes


def test_grid_basis_rebuild_for_more_rows_holds_one_basis(monkeypatch):
    """On a grid whose band is past 4 MiB, a rebuild for more rows lets the
    basis of fewer rows go before it builds: the traced peak stays near the
    new basis (holding both would read 1.75x it)."""
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    wide = GridSpec(40.0, 2048)  # a band of 512 rows, 8 MiB
    assert (band_limit(wide) + 1) * wide.num_points * 8 > hermite._BAND_BUILD_BYTES
    builds = _count_builds(monkeypatch)
    nbytes, peak = _traced_peak(lambda: grid_basis(wide, 300), lambda: grid_basis(wide, 400))
    assert builds == [300, 400] and nbytes == 401 * wide.num_points * 8
    assert peak < 1.5 * nbytes


def test_real_basis_products_match_complex_cast(grid):
    """analyze against the product with a complex copy of the basis it
    replaced."""
    k = 50
    xs = grid.xs
    phi_c = hermite_phi_all(k, xs).astype(complex)
    f = SampledFunction(grid, (1.0 + 0.5j * xs - 0.2 * xs ** 3) * np.exp(-(0.4 - 0.3j) * xs ** 2))
    w = trapezoid_weights(grid.num_points, grid.spacing)
    old = phi_c @ (f.values * w) / SQRT_2PI
    assert np.max(np.abs(analyze(f, k).coeffs - old)) <= 1e-14 * np.max(np.abs(old))


@pytest.mark.parametrize("k,expected", [(0, 2.0 ** -0.25), (2, 0.0)])
def test_analyze_gaussian_oracle(grid, k, expected):
    # oracle: e^{-x^2/2} = 2^{-1/4} phi_0 exactly (Gaussian integral)
    f = SampledFunction(grid, np.exp(-0.5 * grid.xs ** 2))
    assert analyze(f, k).coeffs[k] == pytest.approx(expected, abs=1e-10)


def test_analyze_band_limit(grid):
    f = SampledFunction(grid, np.exp(-0.5 * grid.xs ** 2))
    analyze(f, band_limit(grid))
    with pytest.raises(BandLimitError):
        analyze(f, band_limit(grid) + 1)


def test_synthesize_band_limit(grid):
    # phi_k past the band limit runs off the grid (||phi_200||^2 reads 0.587
    # on the default grid), so synthesis is refused like analysis
    kmax = band_limit(grid)
    assert norm_sq(synthesize(unit_expansion(kmax), grid)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(BandLimitError):
        synthesize(unit_expansion(kmax + 1), grid)
    with pytest.raises(BandLimitError):
        synthesize(HermiteExpansion([1.0] + [0.0] * (kmax + 1)), grid)


def test_analyze_parseval(grid):
    f0 = SampledFunction(grid, hermite_phi_all(0, grid.xs)[0])
    e = analyze(f0, 30)
    assert e.norm_sq() == pytest.approx(1.0, abs=1e-10)
    zero = analyze(SampledFunction(grid, np.zeros(grid.num_points)), 10)
    assert np.all(zero.coeffs == 0)


def test_parseval_inequality_for_generic_function(grid, rng):
    f = SampledFunction(grid, (np.tanh(grid.xs) + 0.3) * np.exp(-0.4 * grid.xs ** 2))
    e = analyze(f, 60)
    assert e.norm_sq() <= norm_sq(f) + 1e-10


def test_synthesize_unit_is_phi(grid):
    f = synthesize(unit_expansion(5), grid)
    assert f.values == pytest.approx(hermite_phi_all(5, grid.xs)[5].astype(complex), abs=1e-14)


def test_analyze_synthesize_round_trip(grid, rng):
    coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
    e = HermiteExpansion(coeffs)
    back = analyze(synthesize(e, grid), 24)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-10


def test_synthesize_gaussian_closed_form(grid):
    from gaussherm.gaussians import gaussian, hermite_coeffs

    g = gaussian(0.5)
    f = synthesize(hermite_coeffs(g, 70), grid)
    assert np.max(np.abs(f.values - g(grid.xs))) < 1e-8


def test_fourier_expansion_phases():
    e = fourier_expansion(HermiteExpansion([0.0, 1.0, 0.0, 0.0]))
    assert e.coeffs[1] == pytest.approx(-1j)
    e0 = HermiteExpansion([1.0, 0.0, 0.0, 0.0])
    assert np.all(fourier_expansion(e0).coeffs == e0.coeffs)


def test_fourier_expansion_fourth_power_identity(rng):
    e = HermiteExpansion(rng.normal(size=17) + 1j * rng.normal(size=17))
    out = e
    for _ in range(4):
        out = fourier_expansion(out)
    assert np.max(np.abs(out.coeffs - e.coeffs)) == 0.0


def test_fourier_sampled_gaussian_selfdual(grid):
    f = SampledFunction(grid, np.exp(-0.5 * grid.xs ** 2))
    assert np.max(np.abs(fourier_sampled(f).values - f.values)) < 1e-8


def test_fourier_sampled_width_two_oracle(grid):
    # oracle: Gaussian integral, e^{-x^2} -> 2^{-1/2} e^{-xi^2/4}
    f = SampledFunction(grid, np.exp(-grid.xs ** 2))
    target = 2 ** -0.5 * np.exp(-grid.xs ** 2 / 4)
    assert np.max(np.abs(fourier_sampled(f).values - target)) < 1e-8


def test_fourier_sampled_phi1_eigenfunction(grid):
    f = SampledFunction(grid, hermite_phi_all(1, grid.xs)[1])
    assert np.max(np.abs(fourier_sampled(f).values - (-1j) * f.values)) < 1e-8


def fourier_sampled_direct(values, grid):
    """O(N^2) reference for fourier_sampled: the Riemann sum
    h/sqrt(2 pi) sum_j f(x_j) e^{-i xi x_j} at every grid point xi, taken
    over row blocks of the kernel to bound memory.  ``values`` is (N, M):
    one column per input."""
    xs = grid.xs
    out = np.empty(values.shape, dtype=complex)
    for lo in range(0, xs.size, 512):
        out[lo:lo + 512] = np.exp(-1j * np.outer(xs[lo:lo + 512], xs)) @ values
    return (grid.spacing / SQRT_2PI) * out


def test_fourier_sampled_matches_direct_reference():
    g = GridSpec(12.0, 256)
    f = SampledFunction(g, np.exp(-0.5 * g.xs ** 2) * (1 + 0.3 * g.xs + 0.2j * g.xs ** 2))
    a = fourier_sampled(f).values
    b = fourier_sampled_direct(f.values[:, None], g)[:, 0]
    assert np.max(np.abs(a - b)) < 1e-12


DIRECT_GRIDS = [GridSpec(16.0, 4096), GridSpec(16.0, 2048), GridSpec(12.0, 4096),
                GridSpec(24.0, 6144)]
DIRECT_GRID_IDS = ["default", "N2048", "L12", "wide"]


@functools.cache
def _direct_case(grid_):
    """Inputs on ``grid_`` and their O(N^2) transforms, one column each: five
    Gaussians (real and complex widths), a complex polynomial times a
    Gaussian, then phi_0..phi_20.  Cached, so the N^2 exponentials run once
    per grid."""
    xs = grid_.xs
    widths = [0.3, 1.0, 2.5, 0.7 + 0.4j, 2.0 - 0.5j]
    inputs = [np.exp(-0.5 * b * xs ** 2) for b in widths]
    inputs.append(np.exp(-0.3 * xs ** 2) * (1 + xs - 0.3j * xs ** 3))
    inputs += list(hermite_phi_all(20, xs))
    return inputs, fourier_sampled_direct(np.stack(inputs, axis=1), grid_)


def _assert_rows_match_direct(got, ref_columns):
    for row, ref in zip(got, ref_columns.T):
        assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid_", DIRECT_GRIDS, ids=DIRECT_GRID_IDS)
def test_fourier_sampled_matches_direct_sum(grid_):
    inputs, ref = _direct_case(grid_)
    inputs, ref = inputs[:6], ref[:, :6]
    stacked = fourier_rows(np.stack(inputs), grid_)
    assert stacked.shape == (len(inputs), grid_.num_points)
    for i, values in enumerate(inputs):
        got = fourier_sampled(SampledFunction(grid_, values)).values
        assert np.max(np.abs(got - ref[:, i])) <= 1e-14 * np.max(np.abs(ref[:, i]))
        assert np.max(np.abs(stacked[i] - ref[:, i])) <= 1e-14 * np.max(np.abs(ref[:, i]))


@pytest.mark.parametrize("grid_", DIRECT_GRIDS, ids=DIRECT_GRID_IDS)
def test_fourier_rows_paired_parts_match_direct_sum(grid_):
    """Real rows take the complex rows' path, each row one chirp-z scaled to
    its own peak: stacks of 1, 2, 3 and 21 real rows, a stack mixing real
    and complex rows with a row 1e-30 smaller than the others, and a
    complex-typed row whose imaginary part is zero all match the direct sum
    at 1e-14 of each row's peak."""
    inputs, ref = _direct_case(grid_)
    phis = np.stack(inputs[6:])
    for count in (1, 2, 3, 21):
        got = fourier_rows(phis[:count], grid_)
        assert got.shape == (count, grid_.num_points)
        _assert_rows_match_direct(got, ref[:, 6:6 + count])
    picks = [0, 3, 11, 5, 8]  # real Gaussian, complex Gaussian, phi_5, complex, phi_2
    mixed = np.stack([inputs[i] for i in picks]).astype(complex)
    mixed[2] *= 1e-30
    ref_mixed = ref[:, picks].copy()
    ref_mixed[:, 2] *= 1e-30
    _assert_rows_match_direct(fourier_rows(mixed, grid_), ref_mixed)
    zero_imag = inputs[13].astype(complex)  # phi_7
    _assert_rows_match_direct(fourier_rows(zero_imag, grid_), ref[:, 13:14])
    zeros = fourier_rows(np.zeros((2, grid_.num_points), dtype=complex), grid_)
    assert zeros.shape == (2, grid_.num_points) and not zeros.any()  # no part to transform


def _scaling_rows(grid_):
    """A real row, a complex row whose imaginary part is 2^-12 of its real
    part's scale, and an all-zero row; every part below 2^-20 of its row's
    peak is set to zero, so the rows times 2^-1000 stay normal doubles."""
    xs = grid_.xs
    real = np.exp(-0.5 * xs ** 2) * (1 + xs)
    mixed = np.exp(-0.4 * xs ** 2) + 1j * 2.0 ** -12 * np.sin(3 * xs) * np.exp(-0.5 * xs ** 2)
    rows = np.stack([real, mixed, np.zeros_like(xs)])
    for part in (rows.real, rows.imag):
        part[np.abs(part) < 2.0 ** -20 * np.abs(rows).max(axis=1, keepdims=True)] = 0.0
    return rows


@pytest.mark.parametrize("grid_", DIRECT_GRIDS, ids=DIRECT_GRID_IDS)
def test_fourier_rows_scale_each_row_to_its_own_peak(grid_):
    """Each row is scaled to unit peak by a power of two before the chirp-z
    and back after, so rows times 2^1000 or 2^-1000 transform to exactly
    2^1000 or 2^-1000 times their transforms at every normal double, real
    rows and complex ones, with nothing overflowing, turning nan or warning."""
    tiny = np.finfo(float).tiny
    rows = _scaling_rows(grid_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack in (rows.real, rows):
            base = fourier_rows(stack, grid_)
            for e in (1000, -1000):
                scaled = stack * 2.0 ** e
                assert np.array_equal(scaled * 2.0 ** -e, stack)  # no sample was rounded
                got = fourier_rows(scaled, grid_)
                for part, base_part in ((got.real, base.real), (got.imag, base.imag)):
                    want = np.ldexp(base_part, e)
                    normal = np.abs(want) >= tiny
                    assert np.array_equal(part[normal], want[normal])
                    assert np.all(np.abs(part[~normal]) < tiny)
                assert not got[2].any()


#: The grids verify-all is run on: the default, --grid-L 10, --grid-L 12 and --grid-N 2048.
VERIFY_GRIDS = [GridSpec(16.0, 4096), GridSpec(10.0, 4096), GridSpec(12.0, 4096),
                GridSpec(16.0, 2048)]
VERIFY_GRID_IDS = ["default", "L10", "L12", "N2048"]


@pytest.mark.parametrize("grid_", VERIFY_GRIDS, ids=VERIFY_GRID_IDS)
def test_fourier_rows_is_a_symmetric_bilinear_form(grid_):
    """sum g (F f) = sum f (F g) to 1e-14 relative for seeded complex rows f
    and g: the matrix of the same-grid transform is symmetric, which lets
    ``bargmann.reflection_row_sets`` transform its kernels, not its rows."""
    rng = np.random.default_rng(3301)
    coeffs = rng.normal(size=(2, 4, 13)) + 1j * rng.normal(size=(2, 4, 13))
    f, g = coeffs @ hermite_phi_all(12, grid_.xs)
    lhs = np.sum(g * fourier_rows(f, grid_), axis=1)
    rhs = np.sum(f * fourier_rows(g, grid_), axis=1)
    assert np.all(np.abs(lhs - rhs) <= 1e-14 * np.abs(lhs))


def test_fourier_rows_refuse_a_grid_past_the_chirp_phases():
    """Past L ~ 9.5e153 the chirp's phases, up to 2 L^2, leave the double
    range: a grid there is refused before anything warns."""
    huge = GridSpec(1e154, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDomainError, match=r"reach 2L\^2, past the double range at L=1e\+154"):
            fourier_rows(np.exp(-0.5 * huge.xs ** 2), huge)


def _plan_stacks(grid_):
    """A real stack (phi_0..phi_20), a complex one (two complex-width
    Gaussians) and a complex-typed one mixing both kinds of row."""
    xs = grid_.xs
    real = hermite_phi_all(20, xs)
    cplx = np.stack([np.exp(-0.5 * b * xs ** 2) for b in (0.7 + 0.4j, 2.0 - 0.5j)])
    return real, cplx, np.vstack([real[:3], cplx, real[7:8]])


@pytest.mark.parametrize("grid_", DIRECT_GRIDS, ids=DIRECT_GRID_IDS)
def test_chirp_z_plan_matches_a_fresh_plan(grid_):
    """fourier_rows on grid_, on another grid, then on grid_ again (a held
    plan, a replaced one and a rebuilt one) equals, bit for bit, the same
    calls with the plan dropped before each."""
    other = DIRECT_GRIDS[(DIRECT_GRIDS.index(grid_) + 1) % len(DIRECT_GRIDS)]
    calls = [(g, stack) for g in (grid_, other, grid_) for stack in _plan_stacks(g)]
    hermite._chirp_z_plan.cache_clear()
    held = [fourier_rows(stack, g) for g, stack in calls]
    assert hermite._chirp_z_plan.cache_info()[:2] == (6, 3)  # (hits, misses)
    for (g, stack), got in zip(calls, held):
        hermite._chirp_z_plan.cache_clear()
        assert np.array_equal(got, fourier_rows(stack, g))


def test_chirp_z_plan_holds_one_grid_read_only(grid, monkeypatch):
    build = hermite.phase_ramp
    built = []

    def counting(theta, n):
        built.append(n)
        return build(theta, n)

    monkeypatch.setattr(hermite, "phase_ramp", counting)
    plan = hermite._chirp_z_plan
    plan.cache_clear()
    other = GridSpec(12.0, 2048)
    f = np.exp(-0.5 * grid.xs ** 2)
    fourier_rows(f, grid)
    fourier_sampled(SampledFunction(grid, f))
    assert plan.cache_info()[:2] == (1, 1)
    size, *arrays = plan(grid)
    assert size == 8192
    assert sum(a.nbytes for a in arrays) == (8192 + 4096 + 4096) * 16  # 256 KB
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
    fourier_rows(np.exp(-0.5 * other.xs ** 2), other)
    assert plan.cache_info()[1:] == (2, 1, 1)  # (misses, maxsize, currsize)
    fourier_rows(f, grid)  # the first grid's plan was let go, so it is built again
    assert built == [4096, 2048, 4096]
    assert plan.cache_info()[:2] == (2, 3)


def test_phase_ramp_matches_the_direct_exponential():
    """Over the angles the package takes ramps of (each grid's Fourier ramp
    h L, and h Im w for verify's Bargmann points), the two-table ramp's mean
    and max errors against a long-double reference stay within 2x those of
    np.exp(1j * theta * j)."""
    ws = np.concatenate([3.0 * np.exp(2j * math.pi * np.arange(10) / 10),
                         verify._REFLECTION_WS, -1j * verify._REFLECTION_WS])
    cases = []
    for g in DIRECT_GRIDS:
        cases.append((g.spacing * g.half_width, g.num_points + 1))
        cases += [(g.spacing * w.imag, g.num_points) for w in ws]
    ramp_err, direct_err = [], []
    for theta, n in cases:
        j = np.arange(n)
        exact = np.exp(1j * np.longdouble(theta) * j.astype(np.longdouble))
        ramp = hermite.phase_ramp(theta, n)
        assert ramp.shape == (n,)
        ramp_err.append(np.abs(ramp - exact).astype(float))  # |exact| = 1
        direct_err.append(np.abs(np.exp(1j * theta * j) - exact).astype(float))
    ramp_err, direct_err = np.concatenate(ramp_err), np.concatenate(direct_err)
    assert ramp_err.mean() <= 2.0 * direct_err.mean()
    assert ramp_err.max() <= 2.0 * direct_err.max()


def test_phase_ramp_rows_equal_single_angles():
    thetas = np.array([[0.0, 0.125], [-0.0234375, 1.7]])
    ramps = hermite.phase_ramp(thetas, 50)
    assert ramps.shape == (2, 2, 50)
    for i, j in np.ndindex(2, 2):
        assert np.array_equal(ramps[i, j], hermite.phase_ramp(thetas[i, j], 50))
    assert np.all(ramps[0, 0] == 1.0)


def test_fourier_sampled_fourth_power_identity(grid):
    f = SampledFunction(grid, np.exp(-0.4 * grid.xs ** 2) * (1 + grid.xs))
    out = f
    for _ in range(4):
        out = fourier_sampled(out)
    assert np.max(np.abs(out.values - f.values)) < 1e-8


def test_fourier_commutes_with_analyze(grid):
    f = SampledFunction(grid, np.exp(-0.45 * grid.xs ** 2) * (1 + 0.5 * grid.xs))
    via_sampled = analyze(fourier_sampled(f), 40).coeffs
    via_expansion = fourier_expansion(analyze(f, 40)).coeffs
    assert np.max(np.abs(via_sampled - via_expansion)) < 1e-8


def test_fourier_sampled_rejects_undecayed_edges():
    g = GridSpec(4.0, 64)
    f = SampledFunction(g, np.exp(-0.05 * g.xs ** 2))
    with pytest.raises(EdgeDecayError):
        fourier_sampled(f)


def test_fourier_rows_names_the_undecayed_row(grid):
    xs = grid.xs
    rows = [np.exp(-0.5 * b * xs ** 2) for b in (0.5, 1.0, 2.0)]
    rows.append(np.exp(-0.01 * xs ** 2))  # edge/max = e^{-2.56}
    fourier_rows(rows[:3], grid)
    with pytest.raises(EdgeDecayError, match="input row 3 "):
        fourier_rows(rows, grid)


def test_fourier_rows_names_the_first_undecayed_row(grid):
    """Of several undecayed rows, real and complex, the first is named with
    its own edge/max (its largest of the two outermost samples at each end
    over its peak)."""
    xs = grid.xs
    rows = np.stack([np.exp(-0.5 * xs ** 2), np.exp(-0.02 * xs ** 2),
                     np.exp(-(0.01 + 0.5j) * xs ** 2)])
    for stack, first in ((rows, 1), (rows[2:], 0)):
        row = np.abs(stack[first])
        edge = row[[0, 1, -2, -1]].max() / row.max()
        with pytest.raises(EdgeDecayError) as info:
            fourier_rows(stack, grid)
        assert str(info.value) == (
            f"input row {first} of the sampled Fourier transform has not decayed at the grid "
            f"edges (edge/max = {edge:.3e} > 1e-08); widen the grid")


def test_mehler_closed_form_values():
    assert mehler_closed_form(0.0, 0.5) == pytest.approx(math.sqrt(2) / math.sqrt(0.75), rel=1e-14)
    x = 1.3
    assert mehler_closed_form(x, 0.0) == pytest.approx(math.sqrt(2) * math.exp(-x * x), rel=1e-14)
    assert mehler_closed_form(x, 0.0) == pytest.approx(hermite_phi_all(0, [x])[0, 0] ** 2, rel=1e-13)


def test_mehler_partial_sum_converges():
    phi = hermite_phi_all(60, [1.0])[:, 0]
    partial = float(np.sum(phi * phi * 0.3 ** np.arange(61)))
    assert partial == pytest.approx(mehler_closed_form(1.0, 0.3), abs=1e-10)


@pytest.mark.parametrize("w", [-0.3, 0.3, 0.5, 0.9])
def test_mehler_sup_error_decreases_in_kmax(grid, w):
    xs = grid.xs[:: 16]
    table = hermite_phi_all(260, xs)
    rhs = np.array([mehler_closed_form(float(x), w) for x in xs])
    kmaxes = [50, 100, 150, 200, 250]
    errs = []
    for kmax in kmaxes:
        lhs = (table[: kmax + 1] ** 2 * (w ** np.arange(kmax + 1))[:, None]).sum(axis=0)
        errs.append(np.max(np.abs(lhs - rhs)))
    assert all(e1 >= e2 or e1 < 1e-13 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8
