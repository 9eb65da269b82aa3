"""Weierstrass gaps at the three distinguished points, and the Kim maps.

The gap sequence is the same at P1, P2, P3: (i-1)(n-1)+j for
1 <= i <= j <= n-1.  The Kim map beta sends a gap at one point to a gap at
the next, certified by an explicit monomial witness; beta^3 = identity.
"""

from tripoint import (builtin_curves, gaps_closed_form, gaps_oracle,
                      kim_image, kim_map, semigroup_generators)

for n in (3, 4, 5):
    print(f"n={n}: gaps {gaps_closed_form(n)}")
    print(f"     semigroup generated by {semigroup_generators(n)}")

# independent confirmation through Riemann-Roch dimensions
klein = builtin_curves()["q8-n3"]
for point in ("P1", "P2", "P3"):
    print(f"oracle gaps at {point} on q8-n3: {gaps_oracle(klein, point)}")

# the Kim map for n = 4, with witnesses: x^u y^v has pole divisor
# exactly gap * source + image * target
print("\nKim map P1 -> P2 at n = 4:")
for a, b, (u, v) in kim_map(4, ("P1", "P2")):
    print(f"  {a} -> {b}   witness x^{u} y^{v}")

# beta^3 = id, and the fixed points exist only for n = 2 mod 3
for n in (4, 5, 8):
    gaps = gaps_closed_form(n)
    cube_ok = all(kim_image(n, kim_image(n, kim_image(n, a))) == a
                  for a in gaps)
    fixed = [a for a in gaps if kim_image(n, a) == a]
    print(f"n={n}: beta^3 = id: {cube_ok}, fixed gaps: {fixed}")
