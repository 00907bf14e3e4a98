#!/usr/bin/env python3
"""Tour of the dm-normalized Hermite basis.

The basis phi_k is orthonormal for the measure dm = dx/sqrt(2*pi), which
pins phi_0(0) = 2**0.25 via Mehler's formula.  This script evaluates the
basis, checks orthonormality by quadrature, round-trips a function through
analyze/synthesize, and watches the Mehler partial sums converge.
"""

import numpy as np

from gaussherm import (
    DEFAULT_GRID,
    analyze,
    hermite_phi,
    hermite_phi_all,
    mehler_closed_form,
    mehler_partial_sum,
    sample,
    synthesize,
)

print("=" * 64)
print("Hermite basis in the dm = dx/sqrt(2 pi) normalization")
print("=" * 64)

print(f"\nphi_0(0) = {hermite_phi(0, [0.0])[0]:.12f}   (2^0.25 = {2**0.25:.12f})")
print(f"phi_1(0) = {hermite_phi(1, [0.0])[0]:.1f}              (odd function)")

# orthonormality on the default grid [-16, 16) with 4096 points
grid = DEFAULT_GRID
table = hermite_phi_all(40, grid.xs)
w = np.full(grid.num_points, grid.spacing)
w[0] *= 0.5
w[-1] *= 0.5
gram = (table * w) @ table.T / np.sqrt(2 * np.pi)
print(f"\nmax |<phi_j, phi_k> - delta_jk| over j,k <= 40: "
      f"{np.max(np.abs(gram - np.eye(41))):.3e}")

# the plain Gaussian is 2^{-1/4} phi_0 exactly
g1 = sample(lambda xs: np.exp(-0.5 * xs**2), grid)
print(f"<e^(-x^2/2), phi_0> = {analyze(g1, 0).coeffs[0].real:.12f}"
      f"   (2^-0.25 = {2**-0.25:.12f})")

# analyze / synthesize round trip on a generic smooth function
f = sample(lambda xs: (1 + 0.5 * xs) * np.exp(-0.4 * xs**2), grid)
e = analyze(f, 50)
back = synthesize(e, grid)
print(f"analyze->synthesize max pointwise error (50 modes): "
      f"{np.max(np.abs(back.values - f.values)):.3e}")

# Mehler's identity: sum_k phi_k(x)^2 w^k has an elementary closed form
print("\nMehler partial sums at x = 1, w = 0.5:")
target = mehler_closed_form(1.0, 0.5)
for kmax in (5, 10, 20, 40, 80):
    err = abs(mehler_partial_sum(1.0, 0.5, kmax) - target)
    print(f"  kmax = {kmax:3d}: |partial - closed| = {err:.3e}")
print(f"  closed form value: {target:.10f}")
