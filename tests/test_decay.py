"""Coefficient bounds, envelope scans, rate fits, and the threshold classifier."""

import math

import numpy as np
import pytest

from gaussherm.decay import (
    EnvelopeReport,
    Membership,
    decay_fit,
    envelope_scan,
    hardy_classify,
    hardy_coeff_bound,
    log_hardy_coeff_bound,
    rate_regime,
    sample_peak,
)
from gaussherm.bargmann import SectorParams, log_contour_coeff_bound
from gaussherm.errors import FitError, NumericalDomainError
from gaussherm.gaussians import boundary_chirp, envelope_membership, gaussian, hermite_coeffs
from gaussherm.grid import sample
from gaussherm.hermite import HermiteExpansion, hermite_phi, unit_expansion
from gaussherm.weighted import phi_weighted_norm_sq

ALPHA = 0.27465


def test_hardy_coeff_bound_spot_value():
    expected = math.sqrt(2 * math.pi / 1.5) * math.sqrt(math.e) * (1 / 3) ** 0.25
    assert hardy_coeff_bound(1, 0.5, 1.0) == pytest.approx(expected, rel=1e-13)


def test_hardy_coeff_bound_domain():
    with pytest.raises(ValueError):
        hardy_coeff_bound(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        hardy_coeff_bound(3, 1.2, 1.0)
    with pytest.raises(ValueError):
        hardy_coeff_bound(3, 0.5, -1.0)


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


def test_rate_regime_classification():
    assert rate_regime(0.5, 0.2) == "applies"  # tanh(0.4) = 0.3799 < 0.5
    assert rate_regime(math.tanh(0.6), 0.3) == "endpoint"
    assert rate_regime(0.3, 0.5) == "fails"  # tanh(1) = 0.7616 > 0.3


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
    rep = envelope_scan(sample(lambda xs: hermite_phi(3, xs), grid), 0.9)
    assert not rep.divergent
    assert rep.constant > 0


def test_envelope_scan_zero_function(grid):
    rep = envelope_scan(sample(lambda xs: np.zeros_like(xs), grid), 0.5)
    assert rep.constant == 0.0 and not rep.divergent


def test_envelope_monotone_in_class_parameter(grid):
    """Membership at a2 implies membership at a1 < a2, with a constant
    that can only shrink as the envelope loosens."""
    f = sample(lambda xs: hermite_phi(4, xs), grid)
    reports = [envelope_scan(f, a) for a in (0.2, 0.5, 0.7, 0.9)]
    assert all(not r.divergent for r in reports)
    consts = [r.constant for r in reports]
    assert all(c1 <= c2 * (1 + 1e-12) for c1, c2 in zip(consts, consts[1:]))


def test_decay_fit_recovers_planted_rates():
    k = np.arange(1, 90)
    coeffs = np.zeros(90, dtype=complex)
    coeffs[1:] = 2.7 * k ** -0.6 * np.exp(-0.31 * k)
    fit = decay_fit(HermiteExpansion(coeffs), (1, 89))
    assert abs(fit.alpha_hat - 0.31) < 1e-6
    assert abs(fit.power_hat - 0.6) < 1e-6
    assert abs(math.exp(fit.log_prefactor) - 2.7) < 1e-6
    assert fit.residual < 1e-10


def test_decay_fit_chirp_endpoint_asymptotics():
    e = hermite_coeffs(boundary_chirp(ALPHA), 100)
    fit = decay_fit(e, (4, 100))
    assert abs(fit.alpha_hat - ALPHA) < 1e-3
    assert abs(fit.power_hat - 0.25) < 0.05
    assert fit.k_range[0] % 2 == 0  # auto-detected even parity


def test_decay_fit_gaussian_matches_ratio_law():
    a = 0.5
    e = hermite_coeffs(gaussian(a), 120)
    fit = decay_fit(e, (10, 120))
    expected = -0.5 * math.log((1 - a) / (1 + a))
    assert abs(fit.alpha_hat - expected) < 1e-3


def test_decay_fit_errors():
    with pytest.raises(FitError):
        decay_fit(unit_expansion(0, 10), (1, 9))
    with pytest.raises(FitError):
        decay_fit(hermite_coeffs(gaussian(0.5), 40), (2, 8))  # < 6 usable evens


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
    lambda a: rate_regime(a, 0.1),
    lambda a: SectorParams(a),
    lambda a: log_contour_coeff_bound(3, a),
    lambda a: phi_weighted_norm_sq(2, a),
], ids=["log_hardy_coeff_bound", "rate_regime", "sector_params",
        "log_contour_coeff_bound", "phi_weighted_norm_sq"])
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
    f = sample(lambda xs: hermite_phi(2, xs), grid)
    rep = hardy_classify(f, 1.0)
    assert not rep.member
    assert rep.constant is None  # a non-member has no class constant
    assert rep.ground_state_residual is None


def test_hardy_classify_phi2_below_threshold(grid):
    f = sample(lambda xs: hermite_phi(2, xs), grid)
    rep = hardy_classify(f, 0.9)
    assert rep.member
    assert rep.constant > 0
    assert rep.ground_state_residual is None  # only reported at a >= 1


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_bound_vanishes_at_selfdual_limit(k):
    values = [hardy_coeff_bound(k, a, 1.0) for a in (0.9, 0.99, 0.999)]
    assert values[0] > values[1] > values[2]
