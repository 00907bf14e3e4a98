#!/usr/bin/env python3
"""Exponential decay of Hermite coefficients in a Gaussian-envelope class.

A function with |f| and |fhat| both under C e^{-a x^2/2} has
|<f, phi_k>| <= C sqrt(2 pi k!/(1+a)) (e/k)^{k/2} mu^{k/4}, mu = (1-a)/(1+a),
i.e. geometric decay at rate mu^{1/4} per index.  The boundary chirp
exp((-a + i sqrt(1-a^2)) x^2/2) realizes the endpoint rate exactly (up to
k^{-1/4}): its coefficients are the closed form P z^m sqrt(Q_m) at k = 2m,
with |z| = e^{-2 alpha}.
"""

import math

import numpy as np

from gaussherm import (
    bargmann_gaussian,
    boundary_chirp,
    central_binomial,
    envelope_membership,
    hermite_coeffs,
)
from gaussherm.decay import log_hardy_coeff_bound
from gaussherm.gaussians import moebius_ratio

alpha = 0.27465  # tanh(2 alpha) = 0.5, so mu = 1/3 and the rate is e^-alpha
a = math.tanh(2 * alpha)
chirp = boundary_chirp(alpha)
mem = envelope_membership(chirp, a)
print(f"boundary chirp at alpha = {alpha}: a = tanh(2 alpha) = {a:.6f}")
print(f"membership constant C = {mem.constant:.6f} (both sides sit exactly on the envelope)")

e = hermite_coeffs(chirp, 60)
print("\n  k    |<f,phi_k>|      bound(k, a, C)    bound/|coeff|")
for k in (2, 6, 12, 24, 40, 60):
    ck = abs(e.coeffs[k])
    bk = math.exp(log_hardy_coeff_bound(k, a, mem.constant))
    print(f"{k:4d}   {ck:12.6e}   {bk:14.6e}   {bk/ck:10.2f}")

# the closed form |<f, phi_2m>| = |P| |z|^m sqrt(Q_m): the rate is -log|z|/2
z = moebius_ratio(chirp)
p = abs(bargmann_gaussian(chirp).prefactor)
print(f"\nclosed form: |P| = {p:.6f}, |z| = {abs(z):.12f} = sqrt(mu)")
print(f"rate -log|z|/2 = {-0.5 * math.log(abs(z)):.15f} (planted {alpha})")

# s_m = |c_2m| (2m)^{1/4} e^{2 alpha m} / |P| = (2m)^{1/4} sqrt(Q_m), and Wallis'
# bracket 1/sqrt(pi(m+1/2)) < Q_m < 1/sqrt(pi(m+1/4)) holds it in a band of
# ratio at most 1.5^{1/4} around (2/pi)^{1/4}: the endpoint rate is attained,
# with the power k^{-1/4}, not just bounded
m = np.arange(1, 51)
s = np.abs(hermite_coeffs(chirp, 100).coeffs[2 * m]) * (2 * m) ** 0.25 * np.exp(2 * alpha * m) / p
print("\n   m    Wallis low    s_m           Wallis high")
for mi in (1, 2, 5, 10, 50):
    low = (2 * mi / (math.pi * (mi + 0.5))) ** 0.25
    high = (2 * mi / (math.pi * (mi + 0.25))) ** 0.25
    print(f"  {mi:2d}   {low:.8f}    {s[mi - 1]:.8f}    {high:.8f}")
print(f"(2/pi)^(1/4) = {(2 / math.pi) ** 0.25:.8f}; (2m)^(1/4) sqrt(Q_50) = "
      f"{100 ** 0.25 * math.sqrt(float(central_binomial(50))):.8f}")
