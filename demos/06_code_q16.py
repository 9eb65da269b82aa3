"""A [37, 29] differential code over GF(16) with certified distance 6.

The two-point divisor G comes from a box of pure gaps; the box improves the
Goppa floor deg(G) - (2g-2) = 3 to 6.  Exhaustive 5-column independence
certifies d >= 6, and a weight-6 codeword shows d = 6 exactly.
"""

from tripoint import (build_COmega, builtin_curves, evaluation_points,
                      low_weight_search, predict_pair_params,
                      verify_distance_floor)

c16 = builtin_curves()["q16-n4"]
spec = predict_pair_params(4, 2, 1)
print(f"design (i, j) = (2, 1): G = {spec.G.coeffs()}, boxes {spec.boxes}")
print(f"  Goppa floor {spec.goppa_distance}, "
      f"pure-gap floor {spec.designed_distance}")

pts = evaluation_points(c16, spec.G)
print(f"\nevaluation set: {len(pts)} of the 39 rational points "
      "(P1, P2 removed)")

report = build_COmega(c16, pts, spec.G, boxes=spec.boxes)
print(f"code parameters [{report.length}, {report.dimension}]")

ok, witness, checked = verify_distance_floor(c16.field, report.parity_check,
                                             5)
print(f"\nall 5-column subsets independent: {ok} "
      f"({checked} subsets checked) => d >= 6")

best_w, word = low_weight_search(c16.field, report.parity_check, trials=50)
print(f"lightest codeword found: weight {best_w} => d = 6 exactly")

ok6, witness6, _ = verify_distance_floor(c16.field, report.parity_check, 6,
                                         budget=3_000_000)
print(f"6-column check fails as it must: dependent columns {witness6}")
