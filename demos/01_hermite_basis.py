#!/usr/bin/env python3
"""Tour of the dm-normalized Hermite basis.

The basis phi_k is orthonormal for the measure dm = dx/sqrt(2*pi), which
pins phi_0(0) = 2**0.25 via Mehler's formula.  This script evaluates the
basis, checks orthonormality by quadrature, and round-trips a function
through its Hermite coefficients and back to the grid.
"""

import numpy as np

from gaussherm import (
    DEFAULT_GRID,
    SampledFunction,
    analyze,
    hermite_phi_all,
)

print("=" * 64)
print("Hermite basis in the dm = dx/sqrt(2 pi) normalization")
print("=" * 64)

phi_at_zero = hermite_phi_all(1, [0.0])[:, 0]
print(f"\nphi_0(0) = {phi_at_zero[0]:.12f}   (2^0.25 = {2**0.25:.12f})")
print(f"phi_1(0) = {phi_at_zero[1]:.1f}              (odd function)")

# orthonormality on the default grid [-16, 16) with 4096 points
grid = DEFAULT_GRID
xs = grid.xs
table = hermite_phi_all(50, xs)
w = np.full(grid.num_points, grid.spacing)
w[0] *= 0.5
w[-1] *= 0.5
gram = (table[:41] * w) @ table[:41].T / np.sqrt(2 * np.pi)
print(f"\nmax |<phi_j, phi_k> - delta_jk| over j,k <= 40: "
      f"{np.max(np.abs(gram - np.eye(41))):.3e}")

# the plain Gaussian is 2^{-1/4} phi_0 exactly
g1 = SampledFunction(grid, np.exp(-0.5 * xs**2))
print(f"<e^(-x^2/2), phi_0> = {analyze(g1, 0).coeffs[0].real:.12f}"
      f"   (2^-0.25 = {2**-0.25:.12f})")

# round trip on a generic smooth function: coefficients, then the sum of
# the basis rows they weight
f = SampledFunction(grid, (1 + 0.5 * xs) * np.exp(-0.4 * xs**2))
back = analyze(f, 50).coeffs @ table
print(f"analyze -> sum_k c_k phi_k max pointwise error (50 modes): "
      f"{np.max(np.abs(back - f.values)):.3e}")
