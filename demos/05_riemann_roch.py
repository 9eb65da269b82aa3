"""Riemann-Roch dimensions: closed formulas against the linear-algebra oracle.

The oracle models L(D) with forms h of degree N over a covering monomial
M = X^alpha Y^beta Z^gamma of degree N, subject to vanishing conditions at
P1, P2 and P3; no formula is trusted until the oracle reproduces it.
"""

import numpy as np

from tripoint import (ThreePointDivisor, basis_L_oracle, builtin_curves,
                      canonical_divisor, dim_L_oracle, dim_mP_formula)

c16 = builtin_curves()["q16-n4"]
n, g = c16.n, c16.genus

print(f"ell(m*P1) on q16-n4 for m = 1..{2 * g - 2}:")
for m in range(1, 2 * g - 1):
    got = dim_L_oracle(c16, ThreePointDivisor(m, 0, 0))
    want = dim_mP_formula(n, m)
    marker = "" if got == want else "  <-- MISMATCH"
    print(f"  m={m:2d}: oracle {got}, formula {want}{marker}")

W = canonical_divisor(n)
print(f"\ncanonical divisor {W.coeffs()}: ell = {dim_L_oracle(c16, W)} "
      f"(genus is {g})")

# explicit bases: functions h / M with h a form of the same degree as M
space = basis_L_oracle(c16, ThreePointDivisor(5, 0, 0))
alpha, beta, gamma = space.denominator
print(f"\nbasis of L(5*P1): dimension {space.dimension}, "
      f"denominator M = X^{alpha}Y^{beta}Z^{gamma}")
for row in space.basis:
    terms = [f"{int(c)}*X^{e1}Y^{e2}Z^{e3}"
             for (e1, e2, e3), c in zip(space.monomials, row) if c]
    print("  h =", " + ".join(terms))

# the Riemann-Roch identity on random divisors
rng = np.random.default_rng(0)
fails = 0
for _ in range(25):
    D = ThreePointDivisor(*(int(v) for v in rng.integers(-2 * g, 2 * g, 3)))
    lhs = dim_L_oracle(c16, D) - dim_L_oracle(c16, W - D)
    fails += lhs != D.degree + 1 - g
print(f"\nRiemann-Roch identity on 25 random divisors: {25 - fails}/25 exact")
