"""Invariant suites: every closed form in the package checked against an
independent computation.

Each suite returns a list of CheckResult records.  `default_verify_report
(n_max)` runs every suite on check_curve(n) for each n up to n_max, the
pure-gap oracle sweeps always among them, and returns the payload of the
CLI `verify` command: one row per check, tagged with its suite's section,
and a verdict that fails the command (exit code 2) when any check fails.  The
suites are deliberately redundant with the unit tests: they are the
product surface for a user who wants to re-certify the mathematics on
their own machine, possibly for larger n.
"""

from __future__ import annotations

import numpy as np

from .catalog import builtin_curves
from .claims import FAMILIES, dimension_claims
from .curves import (FUNDAMENTAL_POINTS, CheckResult, CurveError, CurveSpec,
                     eval_terms)
from .fields import TABLE_LIMIT, Field, FieldError, embed, make_field
from .riemann_roch import (ThreePointDivisor, canonical_divisor, dim_L_oracle,
                           order_of_form)
from .series import POINT_IDS, SeriesError, monomial_orders, solve_chart
from .weierstrass import (gaps_closed_form, gaps_oracle, kim_image, kim_map,
                          pure_gap_count_pair, pure_gap_count_triple,
                          pure_gap_oracle, pure_gap_problems, pure_gaps,
                          pure_gaps_pair_via_homma_kim, semigroup_generators,
                          CYCLIC_PAIRS)


def validate_curve(spec: CurveSpec) -> list:
    """Structural checks at the three fundamental points.

    Verifies that each Pi lies on the curve, that the gradient there is
    nonzero, that the chart equations have a solution w(t) to precision
    2n + 4, and that the coordinate lines cut the curve with the tangency
    pattern the family promises (order n along the tangent, order 1 at the
    next point, order 0 at the third).  Returns a list of CheckResult.
    """
    n = spec.n
    prec = 2 * n + 4
    results = []
    pts = dict(zip(POINT_IDS, FUNDAMENTAL_POINTS))
    for pid, pt in pts.items():
        value = eval_terms(spec.field, spec.F_terms, pt)
        results.append(CheckResult(f"{pid} on curve", value == 0,
                                   "F({}:{}:{}) = {}".format(*pt, value)))
    parts = spec.partials()
    for pid, pt in pts.items():
        grad = tuple(eval_terms(spec.field, d, pt) for d in parts.values())
        results.append(CheckResult(
            f"gradient nonzero at {pid}", any(grad), f"grad = {grad}"))
    # tangent-line intersection orders as monomial_orders states them, each
    # line from the point it is tangent at
    lines = (("Z", (0, 0, 1)), ("X", (1, 0, 0)), ("Y", (0, 1, 0)))
    solved = set()
    for pid in POINT_IDS:
        try:
            solve_chart(spec.field, spec.chart_poly(pid), prec)
            solved.add(pid)
            results.append(CheckResult(f"chart expansion at {pid}", True,
                                       f"precision {prec}"))
        except SeriesError as exc:
            results.append(CheckResult(f"chart expansion at {pid}", False, str(exc)))
    for k, (line, e) in enumerate(lines):
        orders = monomial_orders(n, e)
        for p in range(k, k + 3):
            pid, want = POINT_IDS[p % 3], orders[p % 3]
            if pid not in solved:
                continue
            got = order_of_form(spec, pid, {e: 1}, 1)
            results.append(CheckResult(
                f"order of {line}=0 at {pid}", got == want,
                f"expected {want}, got {got}"))
    return results


def field_axiom_suite(field: Field) -> list:
    """Commutativity/identity/inverses exhaustively on pairs, associativity
    and distributivity on random triples.

    The inverse and Frobenius checks run on the table-free scalar path, so a
    structurally broken field (reducible modulus) produces failing checks
    with concrete witness codes instead of a crash deeper in table setup.
    """
    rng = np.random.default_rng(0)
    triples = 1000
    q = field.q
    out = []
    bad_inv = [a for a in range(1, q)
               if field.mul(a, field.pow(a, q - 2)) != 1]
    out.append(CheckResult(
        f"{field!r} multiplicative inverse (scalar, exhaustive)", not bad_inv,
        f"codes without inverse: {bad_inv[:6]}"))
    # Frobenius x -> x^p fixes exactly the prime subfield
    frob_fixed = [a for a in range(q) if field.pow(a, field.p) == a]
    out.append(CheckResult(
        f"{field!r} Frobenius fixed field", frob_fixed == list(range(field.p)),
        f"{len(frob_fixed)} fixed points"))
    try:
        codes = np.arange(q, dtype=np.int64)
        A = np.repeat(codes, q)
        B = np.tile(codes, q)
        out.append(CheckResult(
            f"{field!r} add commutes",
            bool(np.all(field.vadd(A, B) == field.vadd(B, A)))))
        out.append(CheckResult(
            f"{field!r} mul commutes",
            bool(np.all(field.vmul(A, B) == field.vmul(B, A)))))
        out.append(CheckResult(
            f"{field!r} identities", bool(np.all(field.vadd(codes, 0) == codes)
                                          and np.all(field.vmul(codes, 1) == codes))))
        out.append(CheckResult(
            f"{field!r} additive inverse",
            bool(np.all(field.vadd(codes, field.vneg(codes)) == 0))))
        nz = codes[1:]
        out.append(CheckResult(
            f"{field!r} multiplicative inverse (tables)",
            bool(np.all(field.vmul(nz, field.vinv(nz)) == 1))))
        a, b, c = (rng.integers(0, q, triples) for _ in range(3))
        ok_assoc = bool(np.all(field.vmul(field.vmul(a, b), c)
                               == field.vmul(a, field.vmul(b, c))))
        ok_dist = bool(np.all(field.vmul(a, field.vadd(b, c))
                              == field.vadd(field.vmul(a, b), field.vmul(a, c))))
        out.append(CheckResult(f"{field!r} associativity ({triples} triples)",
                               ok_assoc))
        out.append(CheckResult(f"{field!r} distributivity ({triples} triples)",
                               ok_dist))
    except FieldError as exc:
        out.append(CheckResult(f"{field!r} bulk table arithmetic", False,
                               str(exc)))
    return out


def gap_suite(curve: CurveSpec) -> list:
    """Closed-form gaps == oracle gaps at all three points; semigroup
    generators reproduce the complement."""
    n = curve.n
    out = []
    formula = gaps_closed_form(n)
    for point in ("P1", "P2", "P3"):
        got = gaps_oracle(curve, point)
        out.append(CheckResult(
            f"gaps at {point} (n={n})", got == formula,
            f"oracle {got}, formula {formula}"))
    g = curve.genus
    gens = semigroup_generators(n)
    reach = [False] * (2 * g + 1)
    reach[0] = True
    for s in gens:
        for v in range(s, 2 * g + 1):
            reach[v] = reach[v] or reach[v - s]
    complement = tuple(m for m in range(1, 2 * g) if not reach[m])
    out.append(CheckResult(
        f"semigroup generators (n={n})", complement == formula,
        f"complement of <{gens}> is {complement}"))
    return out


def kim_suite() -> list:
    """Bijectivity, beta^3 = id, and the divisibility characterization,
    n = 3..VERIFY_N_MAX."""
    out = []
    for n in range(3, VERIFY_N_MAX + 1):
        gaps = gaps_closed_form(n)
        img = [kim_image(n, a) for a in gaps]
        ok_bij = sorted(img) == list(gaps)
        ok_cube = all(kim_image(n, kim_image(n, kim_image(n, a))) == a
                      for a in gaps)
        out.append(CheckResult(f"kim map bijection + cube (n={n})",
                               ok_bij and ok_cube))
        # beta(a) = a forces i = n - j and 2j = n - 1 + i, so j = (2n-1)/3:
        # a single fixed gap when n = 2 mod 3, none otherwise
        fixed = [a for a in gaps if kim_image(n, a) == a]
        if (2 * n - 1) % 3 == 0:
            j = (2 * n - 1) // 3
            expected = [(n - j - 1) * (n - 1) + j]
        else:
            expected = []
        out.append(CheckResult(f"kim fixed points (n={n})", fixed == expected,
                               f"{fixed}"))
    for pair in CYCLIC_PAIRS:
        try:
            kim_map(VERIFY_N_MAX, pair)  # witness check is internal
            out.append(CheckResult(f"kim witnesses {pair}", True))
        except AssertionError as exc:
            out.append(CheckResult(f"kim witnesses {pair}", False, str(exc)))
    return out


def pure_gap_suite(curve: CurveSpec) -> list:
    """Pair/triple parametrizations vs counts, the inversion description,
    full oracle sweeps over the gap box at every cyclic pair and one
    reversed pair, and each record's predicted dimension."""
    n = curve.n
    g = curve.genus
    out = []
    pairs = pure_gaps(n, 2)
    tuples = [r.tuple_ for r in pairs]
    out.append(CheckResult(
        f"pair count (n={n})", len(set(tuples)) == len(tuples) == pure_gap_count_pair(n),
        f"{len(tuples)} records"))
    out.append(CheckResult(
        f"pair inversion description (n={n})",
        tuples == pure_gaps_pair_via_homma_kim(n)))
    trips = pure_gaps(n, 3)
    tt = [r.tuple_ for r in trips]
    out.append(CheckResult(
        f"triple count (n={n})", len(set(tt)) == len(tt) == pure_gap_count_triple(n),
        f"{len(tt)} records"))
    out.append(CheckResult(
        f"no triple coordinate divisible by n-1 (n={n})",
        all(v % (n - 1) for r in trips for v in r.tuple_)))
    # the pair set is the same at each cyclic pair, transposed reversed
    box = range(1, 2 * g)
    detail = None
    for pair in (*CYCLIC_PAIRS, ("P2", "P1")):
        want = (tuples if pair in CYCLIC_PAIRS
                else sorted((b, a) for a, b in tuples))
        found = [(a, b) for a in box for b in box
                 if pure_gap_oracle(curve, (a, b), pair)]
        if found != want:
            detail = f"at {pair}: oracle found {len(found)}"
            break
    out.append(CheckResult(
        f"pair oracle sweep (n={n})", detail is None,
        detail or f"oracle found {len(found)}"))
    want = {r.tuple_ for r in trips}
    gaps = set(gaps_closed_form(n))
    found3 = {(a, b, c) for a in gaps for b in gaps for c in gaps
              if pure_gap_oracle(curve, (a, b, c))}
    out.append(CheckResult(
        f"triple oracle sweep (n={n})", found3 == want,
        f"oracle found {len(found3)}"))
    bad = [p for r in trips for p in pure_gap_problems(curve, r)]
    out.append(CheckResult(f"triple predicted dimensions (n={n})",
                           not bad, "; ".join(bad[:3])))
    bad = [f"at {pair}: {p}" for pair in CYCLIC_PAIRS for r in pairs
           for p in pure_gap_problems(curve, r, pair)]
    out.append(CheckResult(f"pair predicted dimensions (n={n})",
                           not bad, "; ".join(bad[:3])))
    return out


def dimension_suite(curve: CurveSpec) -> list:
    """Every closed-form dimension claim vs the oracle, one check per family."""
    n = curve.n
    bad = {family: [] for family in FAMILIES}
    for claim in dimension_claims(n):
        if dim_L_oracle(curve, claim.divisor) != claim.dimension:
            bad[claim.family].append(claim.label)
    titles = {"mP": "m*P", "MdNd": "Md/Nd"}
    return [CheckResult(f"dim {titles.get(family, family)} sweep (n={n})",
                        not bad[family], f"bad: {bad[family][:4]}")
            for family in FAMILIES]


def riemann_roch_suite(curve: CurveSpec, divisors: int = 50) -> list:
    """The exact Riemann-Roch identity and oracle N-stability on random
    three-point divisors; the stability check also compares the memo's
    reduced answer with the unreduced one."""
    g = curve.genus
    n = curve.n
    rng = np.random.default_rng(0)
    W = canonical_divisor(n)
    out = []
    ok_w = (W.degree == 2 * g - 2 and dim_L_oracle(curve, W) == g)
    out.append(CheckResult(f"canonical divisor (n={n})", ok_w,
                           f"deg {W.degree}, ell {dim_L_oracle(curve, W)}"))
    bad = []
    for _ in range(divisors):
        D = ThreePointDivisor(*(int(v) for v in rng.integers(-2 * g, 2 * g + 1, 3)))
        lhs = dim_L_oracle(curve, D) - dim_L_oracle(curve, W - D)
        if lhs != D.degree + 1 - g:
            bad.append(D)
    out.append(CheckResult(
        f"Riemann-Roch identity on {divisors} random divisors (n={n})",
        not bad, f"bad: {bad[:3]}"))
    bad = []
    for _ in range(divisors):
        D = ThreePointDivisor(*(int(v) for v in rng.integers(-2 * g, 2 * g + 1, 3)))
        base = dim_L_oracle(curve, D, memo=False)
        if dim_L_oracle(curve, D) != base or any(
                dim_L_oracle(curve, D, n_extra=x, memo=False) != base
                for x in (1, 2)):
            bad.append(D)
    out.append(CheckResult(
        f"oracle stability under larger form degree (n={n})", not bad,
        f"bad: {bad[:3]}"))
    # monotonicity: 0 <= ell(D + P) - ell(D) <= 1
    bad = []
    for _ in range(20):
        D = ThreePointDivisor(*(int(v) for v in rng.integers(-g, g + 1, 3)))
        base = dim_L_oracle(curve, D)
        for step in (ThreePointDivisor(1, 0, 0), ThreePointDivisor(0, 1, 0),
                     ThreePointDivisor(0, 0, 1)):
            up = dim_L_oracle(curve, D + step)
            if not base <= up <= base + 1:
                bad.append((D, step))
    out.append(CheckResult(f"ell monotonicity (n={n})", not bad, f"bad: {bad[:3]}"))
    return out


def curve_suite(curve: CurveSpec) -> list:
    """The structural checks, the smoothness certificate, and the base
    points inside the points over the quadratic extension."""
    out = list(validate_curve(curve))
    D = 3 * curve.n - 1
    out.append(CheckResult(
        "smooth: Macaulay matrix of F, F_X, F_Y, F_Z has full rank",
        curve.is_smooth(), f"degree {D}, {(D + 1) * (D + 2) // 2} columns"))
    base = set(curve.rational_points())
    if curve.field.q ** 2 <= TABLE_LIMIT:
        big = curve.extension(2)
        lift = {tuple(embed(curve.field, c, big.field) for c in p)
                for p in base}
        ext = set(big.rational_points())
        out.append(CheckResult(
            "rational points embed into the quadratic extension",
            lift <= ext, f"{len(base)} -> {len(ext)} points"))
    return out


# `verify` reaches n = 3..VERIFY_N_MAX, on the bundled curve VERIFY_CURVES
# names or else on the G = 0 member over GF(8)
VERIFY_N_MAX = 8
VERIFY_CURVES = {3: "q8-n3", 4: "q16-n4", 5: "q49-n5-record"}


def check_curve(n: int) -> CurveSpec:
    """The curve of every check at n, `verify`'s and the CLI `--check`
    flags'; a singular G = 0 member over GF(8) raises CurveError."""
    if n in VERIFY_CURVES:
        return builtin_curves()[VERIFY_CURVES[n]]
    curve = CurveSpec(make_field(2, 3), n)
    if not curve.is_smooth():
        raise CurveError(
            f"no bundled curve with n = {n} and the G = 0 member over "
            f"GF(8) is singular; pass --curve")
    return curve


def default_verify_report(n_max: int) -> dict:
    """The standard bundle run by the CLI `verify` command: the field and
    Kim suites, then every curve suite, pure-gap oracle sweeps included, on
    check_curve(n) for each n from 3 to n_max.

    Returns {"passed", "checks", "rows"}, one row {"section", "name",
    "passed", "detail"} per check in the order the suites ran."""
    rows = []

    def run(section, suite, *args, **kwargs):
        # a suite that raises becomes one failed check, not an aborted report
        try:
            results = suite(*args, **kwargs)
        except Exception as exc:
            results = [CheckResult(f"{section} suite raised", False,
                                   f"{type(exc).__name__}: {exc}")]
        rows.extend({"section": section, "name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results)

    run("fields", lambda: (field_axiom_suite(make_field(2, 4))
                           + field_axiom_suite(make_field(3, 3))
                           + field_axiom_suite(make_field(7, 2))))
    run("kim", kim_suite)
    for n in range(3, n_max + 1):
        curve = check_curve(n)
        tag = f"n{n}"
        run(f"curve-{tag}", curve_suite, curve)
        run(f"gaps-{tag}", gap_suite, curve)
        run(f"dims-{tag}", dimension_suite, curve)
        run(f"pure-gaps-{tag}", pure_gap_suite, curve)
        run(f"riemann-roch-{tag}", riemann_roch_suite, curve,
            divisors=25 if n >= 5 else 50)
    return {"passed": all(row["passed"] for row in rows),
            "checks": len(rows), "rows": rows}
