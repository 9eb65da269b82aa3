"""The curve family XY^n + YZ^n + ZX^n + XYZ*G and its rational points.

Every member passes through P1 = (1:0:0), P2 = (0:1:0), P3 = (0:0:1) and
has genus n(n-1)/2.  Point enumeration, the smoothness certificate, and
the full 18-point validation report.
"""

import math

from tripoint import CurveSpec, builtin_curves, make_field, validate_curve

curves = builtin_curves()
for name in ("q8-n3", "q16-n4", "q27-n4", "q49-n5-record"):
    curve = curves[name]
    pts = curve.rational_points()
    q, g = curve.field.q, curve.genus
    hasse_weil = q + 1 + 2 * g * math.isqrt(q)
    print(f"{name}: n={curve.n}, genus {g}, {len(pts)} points "
          f"(Hasse-Weil allows {hasse_weil})")

# the record curve is within 4 of the Hasse-Weil ceiling over GF(49)
record = curves["q49-n5-record"]
print(f"\nfirst five points of {record!r}:")
for x, y, z in record.rational_points()[:5]:
    print(f"  ({x}:{y}:{z})")

# validation: on-curve checks, gradient checks, chart expansions,
# tangent-line intersection orders
report = validate_curve(curves["q8-n3"])
print(f"\nvalidate_curve(q8-n3): {sum(r.passed for r in report)}/{len(report)}"
      " checks pass")

# smoothness is certified over the algebraic closure: F, F_X, F_Y, F_Z have
# no common zero iff their monomial multiples span every form of degree 3n - 1
print("\nsmooth (Macaulay rank certificate):")
for name in ("q8-n3", "q16-n4", "q49-n5-record"):
    print(f"  {name}: {curves[name].is_smooth()}")

# a deliberately bad member: G = X + Y + Z over GF(2) is singular at (1:1:1)
bad = CurveSpec(make_field(2), 3,
                {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
print(f"  G = X + Y + Z over GF(2): {bad.is_smooth()}")
