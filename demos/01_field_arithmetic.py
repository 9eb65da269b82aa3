"""Exact arithmetic in GF(p^k): scalars, vectors, and embeddings.

Elements are integer codes 0..q-1 (base-p digit vectors of polynomial
coefficients, low degree first); all arithmetic is table driven and exact.
"""

from tripoint import embed, make_field

f16 = make_field(2, 4)
print(f"GF(16) with modulus {f16.modulus} (x^4 + x^3 + 1)")
a, b = 6, 11
print(f"  a = {f16!r}[{a}], b = {f16!r}[{b}]")
print(f"  a + b = {f16.add(a, b)}, a * b = {f16.mul(a, b)}")
a_inv = f16.inv(a)
print(f"  a^-1 = {a_inv}, check a * a^-1 = {f16.mul(a, a_inv)}")
print(f"  a^15 = {f16.pow(a, 15)} (multiplicative order divides q - 1)")

# vector arithmetic works on whole numpy arrays of codes
xs = f16.array(range(1, 16))
inv = f16.vinv(xs)
print(f"  all 15 nonzero elements invert: {(f16.vmul(xs, inv) == 1).all()}")

f27 = make_field(3, 3)
print(f"\nGF(27): 2 * 14 = {f27.mul(2, 14)}, 14^26 = {f27.pow(14, 26)}")

# GF(4) sits inside GF(16); embed maps codes and is a ring homomorphism
f4 = make_field(2, 2)
img = [embed(f4, c, f16) for c in range(4)]
print(f"\nGF(4) -> GF(16) embedding of codes 0..3: {img}")
x, y = 2, 3
lhs = embed(f4, f4.mul(x, y), f16)
rhs = f16.mul(embed(f4, x, f16), embed(f4, y, f16))
print(f"  multiplicative: embed(x*y) == embed(x)*embed(y): {lhs == rhs}")
