"""The ten acceptance criteria, one test each.

Every check is exact integer equality (tolerance zero); each test records a
single machine-greppable verdict line, echoed after the run by the terminal
summary hook in conftest so `pytest -v` output always carries the ten lines.
"""

import numpy as np

from tripoint.catalog import RECORD_LENGTHS
from tripoint.codes import (build_COmega, carvalho_torres_bound,
                            evaluation_points, hermitian_maximal_count,
                            design, hurwitz_count, verify_distance_floor)
from tripoint.curves import rational_points_raw
from tripoint.fields import make_field
from tripoint.claims import dimension_claims
from tripoint.riemann_roch import (ThreePointDivisor, canonical_divisor,
                                   dim_L_oracle)
from tripoint.weierstrass import (CYCLIC_PAIRS, gaps_closed_form, gaps_oracle,
                                  kim_image, pure_gap_oracle, pure_gaps,
                                  pure_gaps_pair_via_homma_kim)

POINTS = ("P1", "P2", "P3")

VERDICTS: list = []


def _verdict(num: int, label: str, problems: list):
    ok = not problems
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {num}: {problems[:10]}"


def test_01_gap_sequences(klein, c16):
    problems = []
    for curve, want in ((klein, (1, 2, 4)), (c16, (1, 2, 3, 5, 6, 9))):
        if gaps_closed_form(curve.n) != want:
            problems.append(f"closed form n={curve.n}")
        for point in POINTS:
            got = gaps_oracle(curve, point)
            if got != want:
                problems.append(f"n={curve.n} {point}: {got}")
    _verdict(1, "gap sequences, oracle = closed form", problems)


def test_02_pure_gap_pairs(klein, c16):
    # the same pair set at each cyclic pair, the transposed set reversed
    problems = []
    for curve, count in ((klein, 2), (c16, 10)):
        n, g = curve.n, curve.genus
        tuples = [r.tuple_ for r in pure_gaps(n, 2)]
        if len(tuples) != count or count != (g - 1) * g // 3:
            problems.append(f"count n={n}")
        if pure_gaps_pair_via_homma_kim(n) != tuples:
            problems.append(f"inversion description n={n}")
        sweeps = [(pair, tuples) for pair in CYCLIC_PAIRS]
        sweeps.append((("P2", "P1"), sorted((b, a) for a, b in tuples)))
        for pair, want in sweeps:
            swept = [(a, b)
                     for a in range(1, 2 * g) for b in range(1, 2 * g)
                     if pure_gap_oracle(curve, (a, b), pair=pair)]
            if swept != want:
                problems.append(f"oracle sweep n={n} {pair}: {swept}")
    _verdict(2, "pure gap pairs, three-way set equality", problems)


def test_03_pure_gap_triples(klein, c16):
    problems = []
    for n, count in ((3, 1), (4, 11), (5, 57)):
        g = n * (n - 1) // 2
        if len(pure_gaps(n, 3)) != count or \
                count != (g - 1) * g * (2 * g - 1) // 30:
            problems.append(f"count n={n}")
    for curve in (klein, c16):
        for rec in pure_gaps(curve.n, 3):
            d = rec.params["d"]
            want = (d + 1) * (d + 2) // 2
            if not pure_gap_oracle(curve, rec.tuple_):
                problems.append(f"not pure: {rec.tuple_}")
            lo = dim_L_oracle(curve, ThreePointDivisor(*rec.tuple_))
            hi = dim_L_oracle(
                curve, ThreePointDivisor(*(v - 1 for v in rec.tuple_)))
            if not lo == hi == want:
                problems.append(f"dims at {rec.tuple_}: {lo}, {hi} != {want}")
    _verdict(3, "pure gap triples, counts and dimensions", problems)


def test_04_dimension_sweep(klein, c16, record):
    problems = [f"{claim.family} n={curve.n} {claim.label}"
                for curve in (klein, c16, record)
                for claim in dimension_claims(curve.n)
                if dim_L_oracle(curve, claim.divisor) != claim.dimension]
    _verdict(4, "dimension formulas vs oracle, n in {3,4,5}", problems)


def test_05_riemann_roch_identity(klein, c16, record):
    problems = []
    for curve in (klein, c16, record):
        g = curve.genus
        W = canonical_divisor(curve.n)
        rng = np.random.default_rng(2026)
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(-2 * g, 2 * g + 1, 3))
            D = ThreePointDivisor(a, b, c)
            lhs = dim_L_oracle(curve, D) - dim_L_oracle(curve, W - D)
            if lhs != D.degree + 1 - g:
                problems.append(f"n={curve.n} D={D.coeffs()}")
    _verdict(5, "Riemann-Roch identity, 50 random divisors per curve",
             problems)


def test_06_q16_code_row(c16):
    problems = []
    if len(c16.rational_points()) != 39:
        problems.append("point count")
    spec = design(4, (2, 1))
    pts = evaluation_points(c16, spec.G)
    report = build_COmega(c16, pts, spec.G, boxes=spec.boxes)
    if (report.length, report.dimension) != (37, 29):
        problems.append(f"[{report.length}, {report.dimension}]")
    if spec.designed_distance != 6:
        problems.append("designed distance")
    ok, witness, checked = verify_distance_floor(c16.field,
                                                 report.parity_check, 5)
    if not ok or checked != 435897:
        problems.append(f"certification: ok={ok} checked={checked}")
    _verdict(6, "q=16 row: 39 points, [37,29], floor 6 certified", problems)


def test_07_q27_code_row(c27):
    problems = []
    if len(c27.rational_points()) != 59:
        problems.append("point count")
    spec = design(4, (2, 1))
    pts = evaluation_points(c27, spec.G)
    report = build_COmega(c27, pts, spec.G, boxes=spec.boxes)
    if (report.length, report.dimension) != (57, 49):
        problems.append(f"[{report.length}, {report.dimension}]")
    bound = carvalho_torres_bound(spec.G.degree, c27.genus, spec.boxes)
    if bound != 6 or spec.designed_distance != 6:
        problems.append(f"bound {bound}")
    _verdict(7, "q=27 row: 59 points, [57,49], bound 6", problems)


def test_08_record_ladder(record):
    problems = []
    if len(record.rational_points()) != 115:
        problems.append("point count")
    spec = design(5, (3, 1))
    if spec.designed_distance != 12:
        problems.append("floor")
    want_pairs = [(m, m - 18) for m in RECORD_LENGTHS]   # ell(G) = 18
    got_pairs = []
    for length in RECORD_LENGTHS:
        pts = evaluation_points(record, spec.G, length=length)
        report = build_COmega(record, pts, spec.G, boxes=spec.boxes)
        got_pairs.append((report.length, report.dimension))
    if got_pairs != want_pairs:
        problems.append(f"ladder {got_pairs}")
    _verdict(8, "record curve: 115 points, ladder [113,95]..[107,89], "
                "floor 12", problems)


def test_09_point_count_crosschecks(klein):
    problems = []
    if hurwitz_count(2) != 24 or len(klein.rational_points()) != 24:
        problems.append("Hurwitz count over GF(8)")
    hermitian = {(1, 2, 0): 1, (0, 1, 2): 1, (2, 0, 1): 1}
    count = len(rational_points_raw(make_field(2, 6), hermitian))
    if hermitian_maximal_count(2) != 81 or count != 81:
        problems.append(f"Hermitian-type count {count}")
    _verdict(9, "counting formulas vs enumeration", problems)


def test_10_structural_properties(klein, c16):
    problems = []
    for n in range(3, 13):
        gaps = gaps_closed_form(n)
        image = sorted(kim_image(n, a) for a in gaps)
        if image != list(gaps):
            problems.append(f"kim bijection n={n}")
        if any(kim_image(n, kim_image(n, kim_image(n, a))) != a
               for a in gaps):
            problems.append(f"kim cube n={n}")
    for n in range(3, 11):
        for rec in pure_gaps(n, 3):
            if any(v % (n - 1) == 0 for v in rec.tuple_):
                problems.append(f"divisible coordinate {rec.tuple_}")
    for curve in (klein, c16):
        g = curve.genus
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(-2 * g, 2 * g + 1, 3))
            D = ThreePointDivisor(a, b, c)
            base = dim_L_oracle(curve, D, memo=False)
            if any(dim_L_oracle(curve, D, n_extra=x, memo=False) != base
                   for x in (1, 2)):
                problems.append(f"N-stability n={curve.n} D={D.coeffs()}")
    _verdict(10, "Kim structure, triple divisibility, N-stability", problems)
