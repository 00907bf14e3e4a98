"""Closed-form Gaussian algebra against quadrature and integral oracles."""

import cmath
import math

import numpy as np
import pytest

from gaussherm.gaussians import (
    BargmannGaussian,
    GeneralizedGaussian,
    bargmann_gaussian,
    boundary_chirp,
    envelope_membership,
    fourier_gaussian,
    gaussian,
    hermite_coeffs,
    moebius_ratio,
    squeezed_state,
    weighted_norm_sq_gaussian,
)
from gaussherm.hermite import analyze, fourier_sampled


WIDTHS = [1.0, 0.5, 2.0, 0.5 + 0.5j, 0.5 - 0.5j]


def test_width_must_have_positive_real_part():
    with pytest.raises(ValueError):
        GeneralizedGaussian(1.0, -0.2)
    with pytest.raises(ValueError):
        GeneralizedGaussian(1.0, 1j)


def test_bargmann_gaussian_invariant():
    with pytest.raises(ValueError):
        BargmannGaussian(1.0, 0.3)


def test_fourier_gaussian_selfdual():
    out = fourier_gaussian(gaussian(1.0))
    assert out.amplitude == pytest.approx(1.0)
    assert out.width == pytest.approx(1.0)


def test_fourier_gaussian_width_two():
    out = fourier_gaussian(gaussian(2.0))
    assert out.amplitude == pytest.approx(2 ** -0.5, rel=1e-14)
    assert out.width == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("b", WIDTHS)
def test_fourier_gaussian_matches_quadrature(grid, b):
    g = GeneralizedGaussian(1.3 - 0.2j, b)
    hat = fourier_gaussian(g)
    numeric = fourier_sampled(g.sample(grid)).values
    assert np.max(np.abs(numeric - hat(grid.xs))) < 1e-8


def test_fourier_side_of_chirp_is_gaussian_envelope():
    """The chirp's transform has |fhat| = exp(-a xi^2/2): Re(1/b) = a."""
    alpha = 0.27465
    a = math.tanh(2 * alpha)
    hat = fourier_gaussian(boundary_chirp(alpha))
    assert hat.width.real == pytest.approx(a, rel=1e-12)
    assert abs(hat.amplitude) == pytest.approx(1.0, rel=1e-12)


def test_bargmann_gaussian_ground_state_pin():
    bp = bargmann_gaussian(GeneralizedGaussian(2 ** 0.25, 1.0))
    assert bp.prefactor == pytest.approx(1.0, rel=1e-14)
    assert bp.quad_coeff == 0.0


def test_bargmann_gaussian_examples():
    assert bargmann_gaussian(gaussian(1.0)).prefactor == pytest.approx(2 ** -0.25, rel=1e-14)
    assert bargmann_gaussian(gaussian(0.5)).quad_coeff == pytest.approx(1 / 12, rel=1e-14)


@pytest.mark.parametrize("b", WIDTHS)
def test_bargmann_gaussian_matches_numeric(grid, b):
    from gaussherm.bargmann import bargmann_row_sets

    g = GeneralizedGaussian(0.8 + 0.1j, b)
    closed = bargmann_gaussian(g)
    rng = np.random.default_rng(5)
    ws = 3.0 * (rng.random(20) * np.exp(2j * math.pi * rng.random(20)))
    numeric = bargmann_row_sets([g.sample(grid).values], grid, ws)[0][0]
    assert np.max(np.abs(numeric - closed(ws)) / np.abs(closed(ws))) < 1e-8


def test_hermite_coeffs_selfdual_width():
    e = hermite_coeffs(GeneralizedGaussian(1.7, 1.0), 8)
    assert e.coeffs[0] == pytest.approx(1.7 * 2 ** -0.25, rel=1e-14)
    assert np.all(e.coeffs[1:] == 0)


def test_hermite_coeffs_k2_spot_value():
    # formula arithmetic: 2^{1/4} (1.5)^{-1/2} (1/3) sqrt(2)/2
    e = hermite_coeffs(gaussian(0.5), 4)
    expected = 2 ** 0.25 * 1.5 ** -0.5 * (1 / 3) * math.sqrt(2) / 2
    assert e.coeffs[2] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("b", WIDTHS + [cmath.exp(-1j * math.acos(0.5))])
def test_hermite_coeffs_match_quadrature(grid, b):
    g = GeneralizedGaussian(1.0, b)
    closed = hermite_coeffs(g, 60).coeffs
    quad = analyze(g.sample(grid), 60).coeffs
    mask = np.abs(closed) > 1e-12
    # float64 quadrature carries an absolute cancellation floor ~1e-16,
    # so the relative comparison needs an absolute escape hatch
    assert np.all(
        np.abs(closed[mask] - quad[mask]) <= 1e-8 * np.abs(closed[mask]) + 1e-14
    )


@pytest.mark.parametrize("g", [
    gaussian(0.5),
    GeneralizedGaussian(0.7 - 0.2j, 1.3 + 0.4j),
    boundary_chirp(0.27465),
    squeezed_state(0.5),
], ids=["gaussian", "complex-gaussian", "chirp", "squeezed"])
def test_hermite_coeffs_against_mpmath_bargmann_taylor(g):
    """<g, phi_k> = sqrt(2^k k!) [w^k] P e^{lam w^2}, the Taylor coefficient of
    the Bargmann image, at 50 digits for k <= 150 (measured: <= 8.4e-14)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    coeffs = hermite_coeffs(g, 150).coeffs
    assert np.all(coeffs[1::2] == 0)
    b = mp.mpc(g.width)
    pref = mp.mpf(2) ** mp.mpf("0.25") * mp.mpc(g.amplitude) / mp.sqrt(1 + b)
    lam = (1 - b) / (4 * (1 + b))
    for m in range(76):
        k = 2 * m
        expected = mp.sqrt(mp.mpf(2) ** k * mp.factorial(k)) * pref * lam ** m / mp.factorial(m)
        assert abs(mp.mpc(coeffs[k]) - expected) <= 1e-12 * abs(expected)


def test_coeff_ratio_law_exact():
    g = GeneralizedGaussian(1.0, 0.5 + 0.25j)
    c = hermite_coeffs(g, 16).coeffs
    z = moebius_ratio(g)
    for m in (0, 1, 2, 5):
        ratio = z * math.sqrt((2 * m + 1) * (2 * m + 2)) / (2 * (m + 1))
        assert c[2 * m + 2] / c[2 * m] == pytest.approx(ratio, rel=1e-13)


def test_chirp_coefficient_magnitudes_realize_endpoint_rate():
    alpha = 0.27465
    e = hermite_coeffs(boundary_chirp(alpha), 80)
    m = np.arange(2, 41)
    mags = np.abs(e.coeffs[2 * m])
    # |<f, phi_2m>| ~ const (2m)^{-1/4} e^{-2 alpha m}: the compensated
    # sequence stays within fixed positive bounds
    comp = mags * (2 * m) ** 0.25 * np.exp(2 * alpha * m)
    assert comp.min() > 0.5
    assert comp.max() / comp.min() < 1.5


def test_envelope_constant_equality_case():
    rep = envelope_membership(gaussian(0.5), 0.5).time_report
    assert rep.constant == 1.0
    assert not rep.divergent


def test_envelope_constant_divergent():
    rep = envelope_membership(gaussian(0.3), 0.5).time_report
    assert rep.divergent


def test_envelope_constant_squeezed_initial_data():
    beta = 0.7
    r = math.exp(-2 * beta)
    rep = envelope_membership(squeezed_state(beta), math.tanh(2 * beta)).time_report
    assert rep.constant == pytest.approx((1 + r * r) ** -0.25, rel=1e-12)
    assert not rep.divergent


def test_envelope_membership_cases():
    assert envelope_membership(gaussian(1.0), 1.0).constant == pytest.approx(1.0)
    assert not envelope_membership(gaussian(0.5), 0.7).member
    alpha = 0.2
    mem = envelope_membership(boundary_chirp(alpha), math.tanh(2 * alpha))
    assert mem.member
    assert mem.constant == pytest.approx(1.0, rel=1e-12)


def test_gaussian_weighted_norm_closed_form(grid):
    from gaussherm.hermite import fourier_sampled
    from gaussherm.weighted import weighted_energy_rows

    g = GeneralizedGaussian(1.1, 0.9)
    closed = weighted_norm_sq_gaussian(g, 0.2)
    f = g.sample(grid)
    quad = 0.5 * sum(weighted_energy_rows(s.values, grid, 0.2)[0] for s in (f, fourier_sampled(f)))
    assert quad == pytest.approx(closed, rel=1e-10)
    assert weighted_norm_sq_gaussian(gaussian(0.5), 0.6) == math.inf
