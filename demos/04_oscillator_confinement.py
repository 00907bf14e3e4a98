#!/usr/bin/env python3
"""Confinement of harmonic-oscillator evolutions.

The flow of psi under (1/i) d psi/dt = (-d^2/dx^2 + x^2) psi multiplies
Hermite coefficients by e^{i(2n+1)t}, so coefficient decay is conserved and
states inside a Gaussian envelope stay inside a slightly wider one forever.
The rotating squeezed state shows the bound is tight: its modulus breathes
between the envelope of tanh(2 beta) and the wider one of tanh(beta),
touching the wide envelope exactly at t = -pi/8 (mod pi/2).
"""

import math

import numpy as np

from gaussherm import (
    ConfinementParams,
    confinement_check,
    confinement_constant,
    evolve_gaussian,
    hermite_coeffs,
    sharp_confinement_probe,
    squeezed_state,
)
from gaussherm.oscillator import default_t_grid

beta = 0.5
r = math.exp(-2 * beta)
sq = squeezed_state(beta)
print(f"squeezed state at beta = {beta} (r = e^-2beta = {r:.6f})")
print(f"|psi_0| envelope: exp(-tanh(2 beta) x^2/2) with constant "
      f"{abs(sq.amplitude):.6f} = (1+r^2)^-1/4")

print("\nthe width parameter Re b(t) breathes with period pi/2:")
for t in (-math.pi / 8, 0.0, math.pi / 8):
    bt = evolve_gaussian(sq, t).width
    print(f"  t = {t:+.4f}: Re b = {bt.real:.6f}"
          f"   (tanh beta = {math.tanh(beta):.6f}, coth beta = {1/math.tanh(beta):.6f})")

report = confinement_check(sq, beta, beta, default_t_grid(64))
print(f"\ntwo-sided envelope scan at gamma = beta (the borderline class):")
print(f"  sup over t of the envelope constant: {report.sup_constant:.8f}"
      f"   ((1-r)^-1/2 = {(1-r)**-0.5:.8f})")
print(f"  attained at t = {[f'{t:.5f}' for t in report.attained_ts]}"
      f"   (pi/8 = {math.pi/8:.5f}, 3pi/8 = {3*math.pi/8:.5f})")
i_star = int(np.argmin(np.abs(report.ts - 3 * math.pi / 8)))
print(f"  time-side constant at t = 3pi/8 (= -pi/8 mod pi/2): "
      f"{report.psi_constants[i_star]:.8f}   ((1+r)^-1/2 = {(1+r)**-0.5:.8f})")

probe = sharp_confinement_probe(sq, beta)
print(f"  refining the t grid twofold moves the sup by {probe.sup_change:.2e}"
      f" -> stable: {probe.stable}")

# the provable regime needs gamma < beta; its constant is assembled from
# the measured coefficient decay and the closed-form Mehler sum
gamma, gamma_p = 0.45, 0.475
rep = confinement_check(sq, beta, gamma, default_t_grid(64))
coeffs = hermite_coeffs(sq, 80).coeffs
k = np.arange(81)
nz = np.abs(coeffs) > 0
m_const = float(np.max(np.abs(coeffs[nz]) * np.exp(gamma_p * k[nz])))
params = ConfinementParams(beta, gamma, gamma_p)
print(f"\nconfinement at gamma = {gamma} < beta:")
print(f"  measured coefficient constant M (|c_k| <= M e^-gamma' k): {m_const:.6f}")
print(f"  measured sup of envelope constants:  {rep.sup_constant:.6f}")
print(f"  assembled bound, sharp split:        "
      f"{confinement_constant(params, m_const, sharp=True):.6f}")
print(f"  assembled bound, traditional split:  "
      f"{confinement_constant(params, m_const):.6f}")

rep_bad = confinement_check(sq, beta, 0.6, default_t_grid(64))
print(f"\ngamma = 0.6 > beta: divergence detected at t = {rep_bad.first_divergent_t:.5f}"
      f" (the envelope of tanh(0.6) is too tight for this flow)")
