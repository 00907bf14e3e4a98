#!/usr/bin/env python3
"""Weighted two-sided norms and decay from confinement, run in reverse.

||f||_a^2 averages the e^{a x^2}-weighted energies of f and fhat.  Hermite
functions have these norms in closed form through an elementary generating
function; a certified lower bound Q_n >= B n^{-beta/2} on central binomial
weights turns uniform-in-time norm bounds on an oscillator flow into
geometric coefficient decay, and in the self-dual limit forces Gaussians.
"""

import math

from gaussherm import (
    DEFAULT_GRID,
    WeakConfinementParams,
    central_binomial,
    central_binomial_certificate,
    expansion_weighted_norm_sq,
    gaussian,
    generating_function_check,
    hermite_coeffs,
    hermite_phi_all,
    phi_weighted_norm_lower,
    phi_weighted_norm_sq,
    selfdual_norm_bound,
    squeezed_state,
    weak_confinement_chain,
    weighted_energy_rows,
    weighted_norm_sq_gaussian,
)
from gaussherm.oscillator import default_t_grid, evolve_gaussian
from gaussherm.weighted import log_confined_coeff_bound

a = 0.5
quad = weighted_energy_rows(hermite_phi_all(10, DEFAULT_GRID.xs), DEFAULT_GRID, a)
print(f"weighted norms at a = {a} (quadrature: time side alone, as |phi_n hat| = |phi_n|):")
print("   n   closed form      quadrature       single-term lower bound")
for n in (0, 1, 4, 10):
    print(f"  {n:2d}   {phi_weighted_norm_sq(n, a):14.8f}  {quad[n]:14.8f}"
          f"  {phi_weighted_norm_lower(n, a):14.8f}")

lhs, rhs = generating_function_check(a, 0.25, 200)
print(f"\ngenerating function sum_k ||phi_k||_a^2 w^k at w = 0.25:")
print(f"  partial sum (200 terms) = {lhs:.12f}")
print(f"  closed form             = {rhs:.12f}")

print(f"\ncentral binomial weights Q_n = 2^-2n (2n)!/(n!)^2:")
print(f"  Q_1 = {float(central_binomial(1)):.4f}, Q_2 = {float(central_binomial(2)):.4f}, "
      f"Q_10000 sqrt(pi 10^4) = {float(central_binomial(10**4))*math.sqrt(math.pi*1e4):.6f}")
cert = central_binomial_certificate(1.1)
print(f"  certificate at beta = 1.1: delta = {cert.delta:.5f}, m = {cert.m}, "
      f"B = {cert.b:.4f} (proof constant {cert.b_proof:.4f}),")
print(f"  validated Q_n n^0.55 >= B for n <= {cert.n_checked}")

beta = 0.5
sq = squeezed_state(beta)
a = math.tanh(0.45)
cert2 = central_binomial_certificate(2.0)
big_c = math.sqrt(max(
    weighted_norm_sq_gaussian(evolve_gaussian(sq, float(t)), a) for t in default_t_grid(64)
))
print(f"\nuniform-in-time norm of the squeezed flow at a = tanh(0.45): C = {big_c:.6f}")
gram = expansion_weighted_norm_sq(hermite_coeffs(sq, 300), a)
print(f"  ||psi_0||_a^2: closed form {weighted_norm_sq_gaussian(sq, a):.12f}, "
      f"Gram form of 300 coefficients {gram:.12f}")
coeffs = hermite_coeffs(sq, 40).coeffs
print("   k   |<psi_0, phi_k>|   bound (C/A) (1-a)^1/4 k^1/2 mu^{k/2}")
for k in (2, 8, 16, 32):
    print(f"  {k:2d}   {abs(coeffs[k]):14.6e}    "
          f"{math.exp(log_confined_coeff_bound(k, a, big_c, 1.0, cert2)):14.6e}")

print("\nself-dual members saturate ||f||_b <= 2^-1/4 (1-b)^-1/4:")
for b in (0.2, 0.5, 0.8):
    nb = math.sqrt(weighted_norm_sq_gaussian(gaussian(1.0), b))
    print(f"  b = {b}: ||g_1||_b = {nb:.8f}, bound = {selfdual_norm_bound(b):.8f}")

cert4 = central_binomial_certificate(4.0)
print("\nweak-confinement chain (K k / A) e^{beta((N-1)/2 - k)} at N = 3, K = 1:")
print("  beta      k=1          k=2          k=3")
for bw in (1.0, 5.0, 20.0):
    row = [weak_confinement_chain(WeakConfinementParams(3.0, 1.0, bw), k, cert4)
           for k in (1, 2, 3)]
    print(f"  {bw:4.0f}   {row[0]:.4e}   {row[1]:.4e}   {row[2]:.4e}")
print("as beta grows, every k > (N-1)/2 = 1 is forced to zero: only finitely many")
print("Hermite modes survive, and a finite Hermite combination in the self-dual")
print("class must already be a Gaussian.")
