"""The coefficient bound, envelope scans, and the threshold classifier."""

import math

import numpy as np
import pytest

from gaussherm.decay import (
    EnvelopeReport,
    Membership,
    envelope_scan,
    hardy_classify,
    log_hardy_coeff_bound,
    sample_peak,
)
from gaussherm.bargmann import SectorParams, log_contour_coeff_bound
from gaussherm.errors import NumericalDomainError
from gaussherm.gaussians import (
    bargmann_gaussian,
    boundary_chirp,
    envelope_membership,
    gaussian,
    hermite_coeffs,
    moebius_ratio,
    squeezed_state,
)
from gaussherm.grid import SampledFunction
from gaussherm.hermite import hermite_phi_all
from gaussherm.weighted import (
    central_binomial,
    central_binomial_certificate,
    log_confined_coeff_bound,
    phi_weighted_norm_sq,
)

ALPHA = 0.27465


def test_hardy_coeff_bound_spot_value():
    expected = math.sqrt(2 * math.pi / 1.5) * math.sqrt(math.e) * (1 / 3) ** 0.25
    assert math.exp(log_hardy_coeff_bound(1, 0.5, 1.0)) == pytest.approx(expected, rel=1e-13)


def test_hardy_coeff_bound_domain():
    with pytest.raises(ValueError):
        log_hardy_coeff_bound(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        log_hardy_coeff_bound(3, 1.2, 1.0)
    with pytest.raises(ValueError):
        log_hardy_coeff_bound(3, 0.5, -1.0)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_bound_dominates_gaussian_coefficients(a):
    g = gaussian(a)
    big_c = envelope_membership(g, a).constant
    coeffs = hermite_coeffs(g, 60).coeffs
    for k in range(1, 61):
        ck = abs(coeffs[k])
        if ck:
            assert math.log(ck) <= log_hardy_coeff_bound(k, a, big_c)


@pytest.mark.parametrize("alpha", [0.2, ALPHA, 0.5])
def test_bound_dominates_chirp_coefficients(alpha):
    g = boundary_chirp(alpha)
    a = math.tanh(2 * alpha)
    big_c = envelope_membership(g, a).constant
    coeffs = hermite_coeffs(g, 60).coeffs
    for k in range(1, 61):
        ck = abs(coeffs[k])
        if ck:
            assert math.log(ck) <= log_hardy_coeff_bound(k, a, big_c)


def test_endpoint_ratio_sharp_for_chirp_decaying_for_interior():
    e = hermite_coeffs(boundary_chirp(ALPHA), 100)
    m = np.arange(1, 51)
    comp = np.abs(e.coeffs[2 * m]) * (2 * m) ** 0.25 * np.exp(2 * ALPHA * m)
    assert comp.max() < 2 * comp.min()  # bounded above: the endpoint rate holds
    assert comp.min() > 0.5  # bounded away from zero: the rate is attained
    a = math.tanh(2 * ALPHA)
    eg = hermite_coeffs(gaussian(a), 120)
    k = 118
    tail = abs(eg.coeffs[k]) * k ** 0.25 * math.exp(ALPHA * k)
    assert tail < 1e-8  # strictly-inside member decays below the endpoint rate


@pytest.mark.parametrize("g, rate", [
    (boundary_chirp(ALPHA), ALPHA),
    (squeezed_state(0.5), 0.5),
    (gaussian(0.5), -0.5 * math.log(1 / 3)),  # the ratio law: mu^{k/2}
], ids=["chirp", "squeezed", "gaussian"])
def test_closed_form_rate_is_exact_and_wallis_brackets_the_power(g, rate):
    """|<g, phi_2m>| = |P| |z|^m sqrt(Q_m): the rate -log|z|/2 is the
    planted one to 1e-15, and s_m = |c_2m| (2m)^{1/4} e^{2 rate m} / |P|
    lies strictly inside Wallis' bracket for every m <= 400."""
    z = moebius_ratio(g)
    assert abs(-0.5 * math.log(abs(z)) - rate) <= 1e-15
    p = abs(bargmann_gaussian(g).prefactor)
    c = np.abs(hermite_coeffs(g, 800).coeffs)
    assert not c[1::2].any()
    m = np.arange(1, 401)
    s = c[2 * m] * (2 * m) ** 0.25 * np.exp(2 * rate * m) / p
    q = central_binomial(m)
    assert np.all(1 / np.sqrt(np.pi * (m + 0.5)) < q) and np.all(q < 1 / np.sqrt(np.pi * (m + 0.25)))
    assert np.all(s > (2 * m / (np.pi * (m + 0.5))) ** 0.25)
    assert np.all(s < (2 * m / (np.pi * (m + 0.25))) ** 0.25)


def test_envelope_scan_equality_case(grid):
    rep = envelope_scan(gaussian(0.5).sample(grid), 0.5)
    assert rep.constant == pytest.approx(1.0, rel=1e-12)
    assert rep.argmax_x == 0.0  # ties resolve toward the smallest |x|
    assert not rep.divergent


def test_sample_peak_on_rows_equals_each_row(grid):
    """A 2-D call gives each row's 1-D result, bit for bit: the largest
    sample, and the x nearest 0 of those within 1e-12 relative of it (of
    two mirrored ones, the first).  On squared moduli the tolerance is
    squared, so the same samples tie."""
    rng = np.random.default_rng(20261019)
    xs = grid.xs
    mid = len(xs) // 2  # xs[mid] = 0, xs[mid - j] = -xs[mid + j]
    rows = rng.uniform(0.0, 1.0, size=(7, len(xs)))
    rows[1, [mid - 40, mid + 40]] = 2.0  # an exact mirrored tie: the x < 0 one
    rows[2, [mid + 300, mid - 10]] = 2.0, 2.0 * (1.0 - 0.8e-12)  # within 1e-12: nearer 0 wins
    rows[3, [mid + 300, mid - 10]] = 2.0, 2.0 * (1.0 - 2e-12)  # outside it: the largest wins
    rows[4, [mid - 5, mid + 5, mid - 700]] = 3.0  # three ties
    rows[5] = 0.0  # all tie: x = 0
    tops, xmax = sample_peak(rows, xs)
    for r, row in enumerate(rows):
        assert (tops[r], xmax[r]) == sample_peak(row, xs)
        assert type(sample_peak(row, xs)[0]) is float
    assert xmax[1:6].tolist() == [xs[mid - 40], xs[mid - 10], xs[mid + 300], xs[mid - 5], 0.0]
    sq_tops, sq_xmax = sample_peak(rows ** 2, xs, squared=True)
    assert np.array_equal(sq_xmax, xmax)
    assert np.array_equal(sq_tops, tops ** 2)
    for r, row in enumerate(rows ** 2):
        assert (sq_tops[r], sq_xmax[r]) == sample_peak(row, xs, squared=True)


def test_envelope_scan_divergent(grid):
    assert envelope_scan(gaussian(0.5).sample(grid), 0.7).divergent


def test_envelope_scan_hermite_member(grid):
    rep = envelope_scan(SampledFunction(grid, hermite_phi_all(3, grid.xs)[3]), 0.9)
    assert not rep.divergent
    assert rep.constant > 0


def test_envelope_scan_zero_function(grid):
    rep = envelope_scan(SampledFunction(grid, np.zeros_like(grid.xs)), 0.5)
    assert rep.constant == 0.0 and not rep.divergent


def test_envelope_monotone_in_class_parameter(grid):
    """Membership at a2 implies membership at a1 < a2, with a constant
    that can only shrink as the envelope loosens."""
    f = SampledFunction(grid, hermite_phi_all(4, grid.xs)[4])
    reports = [envelope_scan(f, a) for a in (0.2, 0.5, 0.7, 0.9)]
    assert all(not r.divergent for r in reports)
    consts = [r.constant for r in reports]
    assert all(c1 <= c2 * (1 + 1e-12) for c1, c2 in zip(consts, consts[1:]))


@pytest.mark.parametrize("time_div, freq_div", [(True, False), (False, True), (False, False)],
                         ids=["time-divergent", "frequency-divergent", "member"])
def test_membership_rule(time_div, freq_div):
    """member iff neither side diverges; C is then the larger side, else None."""
    mem = Membership(EnvelopeReport(0.4, 1.5, 0.0, time_div),
                     EnvelopeReport(0.4, 2.5, 0.0, freq_div))
    assert mem.member is not (time_div or freq_div)
    assert mem.constant == (2.5 if mem.member else None)


@pytest.mark.parametrize("site", [
    lambda a: log_hardy_coeff_bound(3, a, 1.0),
    lambda a: SectorParams(a),
    lambda a: log_contour_coeff_bound(3, a),
    lambda a: phi_weighted_norm_sq(2, a),
    lambda a: log_confined_coeff_bound(3, a, 1.0, 1.0, central_binomial_certificate(2.0)),
], ids=["log_hardy_coeff_bound", "sector_params",
        "log_contour_coeff_bound", "phi_weighted_norm_sq", "log_confined_coeff_bound"])
@pytest.mark.parametrize("a", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_weight_outside_unit_interval_is_one_refusal(site, a):
    with pytest.raises(NumericalDomainError, match=r"a must be in \(0,1\)"):
        site(a)


def test_hardy_classify_gaussian_at_threshold(grid):
    rep = hardy_classify(gaussian(1.0).sample(grid), 1.0)
    assert rep.member
    assert rep.ground_state_residual < 1e-8
    # the time side is scanned on exact samples, so its constant is clean;
    # the frequency side rides on the sampled transform, whose 1e-16-level
    # tail noise the weight e^{x^2/2} blows up, so it is not asserted here
    assert rep.time_report.constant == pytest.approx(1.0, rel=1e-10)


def test_hardy_classify_phi2_at_threshold(grid):
    f = SampledFunction(grid, hermite_phi_all(2, grid.xs)[2])
    rep = hardy_classify(f, 1.0)
    assert not rep.member
    assert rep.constant is None  # a non-member has no class constant
    assert rep.ground_state_residual is None


def test_hardy_classify_phi2_below_threshold(grid):
    f = SampledFunction(grid, hermite_phi_all(2, grid.xs)[2])
    rep = hardy_classify(f, 0.9)
    assert rep.member
    assert rep.constant > 0
    assert rep.ground_state_residual is None  # only reported at a >= 1


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_bound_vanishes_at_selfdual_limit(k):
    values = [log_hardy_coeff_bound(k, a, 1.0) for a in (0.9, 0.99, 0.999)]
    assert values[0] > values[1] > values[2]
