"""The 115-point curve over GF(49) and its ladder of seven [m, m-18] codes.

The n = 5 member with a carefully chosen G has 115 rational points.  Its
(i, j) = (3, 1) two-point design yields codes [113, 95] down to [107, 89],
each with pure-gap distance floor 12 (the Goppa floor is only 9).

Searching the coefficient space over a small field shows how members with
many points are found in the first place.
"""

from tripoint import (build_COmega, builtin_curves, curve_search,
                      design, evaluation_points, make_field)

record = builtin_curves()["q49-n5-record"]
pts = record.rational_points()
print(f"record curve: {record!r}")
print(f"  {len(pts)} rational points over GF(49), genus {record.genus}")

spec = design(5, (3, 1))
print(f"\ndesign (3, 1): G = {spec.G.coeffs()}, "
      f"floors Goppa {spec.goppa_distance} / pure-gap "
      f"{spec.designed_distance}")

print("\nthe ladder (shorten by dropping evaluation points):")
for length in range(113, 106, -1):
    D = evaluation_points(record, spec.G, length=length)
    report = build_COmega(record, D, spec.G, boxes=spec.boxes)
    print(f"  [{report.length}, {report.dimension}] d >= "
          f"{report.pure_gap_bound}")

# the search tool that finds such members: exhaustive over GF(2), n = 3
print("\nexhaustive search over GF(2), n = 3 (8 members):")
for hit in curve_search(make_field(2), 3):
    g = hit["curve"].g_coeffs
    tag = f"{len(hit['points'])} points" if hit["smooth"] else "SINGULAR"
    print(f"  G terms {sorted(g) if g else '0'}: {tag}")
