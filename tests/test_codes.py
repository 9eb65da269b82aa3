import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from test_riemann_roch import _divisor_constraint_ok

from tripoint import codes, linalg
from tripoint.cli import main
from tripoint.codes import (BudgetError, CodesError, build_CL, build_COmega,
                            carvalho_torres_bound, curve_search,
                            evaluation_points, goppa_bound,
                            hermitian_maximal_count, hurwitz_count,
                            low_weight_search, predict_pair_params,
                            predict_triple_params, verify_distance_floor)
from tripoint.curves import FUNDAMENTAL_POINTS, CurveSpec, eval_terms
from tripoint.fields import make_field
from tripoint.riemann_roch import (ThreePointDivisor, basis_L_oracle,
                                   dim_L_oracle, order_of_form)
from tripoint.weierstrass import pure_gaps_pair, pure_gaps_triple


def _fmm(field, A, B):
    """Naive field matmul for independent cross-checks."""
    out = field.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = field.add(acc, field.mul(int(A[i, k]), int(B[k, j])))
            out[i, j] = acc
    return out


def test_bound_formulas():
    assert goppa_bound(13, 6) == 3
    assert carvalho_torres_bound(13, 6, (((5, 5)), (2, 3))) == 6
    assert carvalho_torres_bound(10, 6, ()) == goppa_bound(10, 6)
    with pytest.raises(CodesError):
        carvalho_torres_bound(13, 6, ((5, 4),))


def test_predict_pair_values():
    spec = predict_pair_params(4, 2, 1)
    assert spec.G.coeffs() == (9, 4, 0)
    assert spec.boxes == ((5, 5), (2, 3))
    assert spec.designed_distance == 6
    assert spec.goppa_distance == 3
    assert spec.hypotheses_met        # 2(i+j) = 6 >= n+2 = 6
    assert not predict_pair_params(4, 2, 1, m=10).hypotheses_met
    assert predict_pair_params(4, 2, 1, m=37).hypotheses_met

    rec = predict_pair_params(5, 3, 1)
    assert rec.G.coeffs() == (21, 6, 0)
    assert rec.boxes == ((11, 11), (3, 4))
    assert rec.designed_distance == 12
    assert rec.goppa_distance == 9

    with pytest.raises(CodesError):
        predict_pair_params(4, 2, 2)   # i + j > n - 1
    with pytest.raises(CodesError):
        predict_pair_params(4, 0, 1)


def test_predict_pair_box_is_pure(c16, record):
    for n in (4, 5):
        pure = {r.tuple_ for r in pure_gaps_pair(n)}
        for i in range(1, n - 1):
            for j in range(1, n - i):
                spec = predict_pair_params(n, i, j)
                (a1, b1), (a2, b2) = spec.boxes
                for t in itertools.product(range(a1, b1 + 1),
                                           range(a2, b2 + 1)):
                    assert t in pure


def test_predict_triple_values():
    spec = predict_triple_params(5, 1, 0, 0)
    assert spec.boxes == ((1, 2), (6, 7), (2, 3))
    assert spec.G.coeffs() == (2, 12, 4)
    g = 10
    assert spec.goppa_distance == 18 - (2 * g - 2)
    assert spec.designed_distance == spec.goppa_distance + 6
    assert not spec.hypotheses_met    # 9d = 9 <= (n-2)^2 = 9
    assert predict_triple_params(5, 1, 1, 0).hypotheses_met
    with pytest.raises(CodesError):
        predict_triple_params(5, 1, 1, 1)   # d > n - 3


def test_predict_triple_box_is_pure():
    for n in (4, 5, 6):
        pure = {r.tuple_ for r in pure_gaps_triple(n)}
        for i in range(0, n - 2):
            for j in range(0, n - 2 - i):
                for k in range(0, n - 2 - i - j):
                    spec = predict_triple_params(n, i, j, k)
                    ranges = [range(lo, hi + 1) for lo, hi in spec.boxes]
                    for t in itertools.product(*ranges):
                        assert t in pure


def test_evaluation_points(c16):
    G = ThreePointDivisor(9, 4, 0)
    pts = evaluation_points(c16, G)
    assert len(pts) == 37              # 39 points minus P1, P2; P3 stays
    p1, p2, p3 = FUNDAMENTAL_POINTS
    assert p3 in pts and p1 not in pts and p2 not in pts
    with_pole = evaluation_points(c16, ThreePointDivisor(2, 2, 1))
    assert len(with_pole) == 36 and p3 not in with_pole
    assert len(evaluation_points(c16, G, length=20)) == 20
    with pytest.raises(CodesError):
        evaluation_points(c16, G, length=38)
    with pytest.raises(CodesError):
        evaluation_points(c16, G, length=-3)
    assert evaluation_points(c16, G, length=0) == []


def test_build_CL_validation(c16):
    G = ThreePointDivisor(9, 4, 0)
    p1, _, p3 = FUNDAMENTAL_POINTS
    with pytest.raises(CodesError):
        build_CL(c16, [p1], G)    # P1 lies on Z = 0
    with pytest.raises(CodesError):
        build_CL(c16, [p3], ThreePointDivisor(2, 2, 1))  # pole at P3
    f = c16.field
    off = next((1, y, 1) for y in range(f.q)
               if eval_terms(f, c16.F_terms, (1, y, 1)) != 0)
    with pytest.raises(CodesError):
        build_CL(c16, [off], G)
    # only normalised code triples of the field are points: not a scaled
    # copy of a curve point, a code out of range, (0, 0, 0) or a pair
    on = next(p for p in c16.rational_points() if p[0] == 1 and p[2] != 0)
    for bad in (tuple(f.mul(2, v) for v in on), (1, f.q, 1), (0, 0, 0),
                (1, 1)):
        with pytest.raises(CodesError, match="bad evaluation point"):
            build_CL(c16, [bad], G)


def test_build_CL_values_match_scalar_evaluation(klein, c16, c27):
    # E[r, i] = h_r(p_i) / M(p_i), with h_r and M evaluated one point at a
    # time by eval_terms and divided with scalar Field arithmetic.  At P3
    # both vanish when M has an X or a Y; there the value c is the one
    # with ord_P3(h_r - c*M) > ord_P3(M).  GF(27) catches sign errors,
    # which characteristic 2 cannot show
    for curve in (klein, c16, c27):
        f = curve.field
        p3 = FUNDAMENTAL_POINTS[2]
        cases = [predict_pair_params(4, 2, 1).G,    # the design (2, 1)
                 predict_pair_params(4, 1, 2).G,    # (1, 2): M = X^2 Z^2
                 ThreePointDivisor(12, 5, -3),       # G.c < 0: P3 is used
                 ThreePointDivisor(4, 3, -1),        # on q8-n3, M = Z^3
                 ThreePointDivisor(4, 3, 5)]         # M is not a power of Z
        for G in cases:
            pts = evaluation_points(curve, G)
            assert (p3 in pts) == (G.c <= 0)
            E, rr = build_CL(curve, pts, G)
            assert E.shape == (rr.dimension, len(pts))
            N = sum(rr.denominator)
            M = {rr.denominator: 1}
            ord_M = order_of_form(curve, "P3", M, N)
            for r, row in enumerate(rr.basis):
                h = {e: int(c) for e, c in zip(rr.monomials, row) if c}
                for p, got in zip(pts, E[r]):
                    if p != p3:
                        assert int(got) == f.div(eval_terms(f, h, p),
                                                 eval_terms(f, M, p))
                        continue
                    rest = dict(h)
                    rest[rr.denominator] = f.sub(h.get(rr.denominator, 0),
                                                 int(got))
                    o = order_of_form(curve, "P3", rest, N)
                    assert o is None or o > ord_M, (curve, G, r)


# SHA-256 of json.dumps(parity_check.tolist()) for pair designs whose
# covering monomial of G is not a power of Z; recorded when basis_L_oracle
# still covered G.c <= 0 by Z^gamma, so the row space must not have moved
_PINNED_PARITY = {
    ("q16-n4", (1, 1)): ((1, 37), "a545a71ae741a7f9e12fd73852921d7a"
                                  "eca4112c7cedea458c490d2c0f656b42"),
    ("q16-n4", (1, 2)): ((6, 37), "7c448962b8f92aa18d46f187742a58bf"
                                  "1a74a87a9391222851da3f4927fd2e80"),
    ("q8-n5", (1, 3)): ((14, 22), "1bd25bf5083cb5bddc05947e9c929a76"
                                  "1e8a0b66d0f2230889a7056ae3e97bcd"),
    ("q8-n5", (2, 2)): ((16, 22), "821c53a4a0423a6956b6d5b4ce3a7fb1"
                                  "d9f1957cc08c7f53dcb6442c258f826b"),
}


def test_parity_check_pinned_where_cover_has_x_or_y(c16):
    curves = {"q16-n4": c16, "q8-n5": CurveSpec(make_field(2, 3), 5)}
    for (name, design), (shape, digest) in _PINNED_PARITY.items():
        curve = curves[name]
        spec = predict_pair_params(curve.n, *design)
        H = build_COmega(curve, evaluation_points(curve, spec.G),
                         spec.G).parity_check
        got = hashlib.sha256(json.dumps(H.tolist()).encode()).hexdigest()
        assert (H.shape, got) == (shape, digest), (name, design)


def _box_designs(n):
    pairs = [(i, j) for i in range(1, n) for j in range(1, n - i)]
    triples = [(i, j, k) for i in range(n - 2) for j in range(n - 2 - i)
               for k in range(n - 2 - i - j)]
    return ([predict_pair_params(n, *d) for d in pairs]
            + [predict_triple_params(n, *d) for d in triples])


@pytest.mark.parametrize("name, n", [("q8-n3", 3), ("q16-n4", 4),
                                     ("q27-n4", 4)])
def test_every_box_design_builds(name, n, klein, c16, c27):
    # hypotheses met or not: the dual code exists and H G^T = 0
    curve = {"q8-n3": klein, "q16-n4": c16, "q27-n4": c27}[name]
    specs = _box_designs(n)
    assert len(specs) == {3: 2, 4: 7}[n]
    for spec in specs:
        pts = evaluation_points(curve, spec.G)
        rep = build_COmega(curve, pts, spec.G, boxes=spec.boxes)
        assert rep.parity_check.shape[1] == len(pts) == rep.length
        assert rep.generator.shape == (rep.dimension, rep.length)
        assert not _fmm(curve.field, rep.parity_check,
                        np.ascontiguousarray(rep.generator.T)).any(), spec


@pytest.mark.parametrize("design, cover", [((1, 5), (9, 0, 1)),
                                           ((1, 6), (10, 0, 2)),
                                           ((2, 5), (8, 0, 4))])
def test_n8_designs_build(design, cover, tmp_path, capsys):
    # a pure power of Z would cover these G with forms of degree 67-82,
    # beyond DEGREE_CAP; the smallest cover has degree 10 or 12
    curve = CurveSpec(make_field(2, 3), 8)
    spec = predict_pair_params(8, *design)
    space = basis_L_oracle(curve, spec.G)
    assert space.dimension == dim_L_oracle(curve, spec.G)
    assert space.denominator == cover
    assert _divisor_constraint_ok(curve, space)
    rep = build_COmega(curve, evaluation_points(curve, spec.G), spec.G)
    assert not _fmm(curve.field, rep.parity_check,
                    np.ascontiguousarray(rep.generator.T)).any()
    path = tmp_path / "q8-n8.json"
    path.write_text(json.dumps(curve.to_json()))
    assert main(["code", "--curve", str(path),
                 "--design", ",".join(map(str, design))]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["length"] == \
        rep.length


def test_q16_code_report(c16):
    spec = predict_pair_params(4, 2, 1)
    pts = evaluation_points(c16, spec.G)
    rep = build_COmega(c16, pts, spec.G, boxes=spec.boxes)
    assert (rep.length, rep.dimension) == (37, 29)
    assert rep.goppa_bound == 3 and rep.pure_gap_bound == 6
    # duality: every generator row is orthogonal to every parity row
    prod = _fmm(c16.field, rep.parity_check,
                np.ascontiguousarray(rep.generator.T))
    assert not prod.any()
    assert rep.generator.shape == (29, 37)
    assert linalg.rank(c16.field, rep.generator) == 29
    js = rep.to_json()
    assert js["length"] == 37 and len(js["parity_check"]) == 8


def test_q16_distance_certification(c16):
    spec = predict_pair_params(4, 2, 1)
    pts = evaluation_points(c16, spec.G)
    rep = build_COmega(c16, pts, spec.G, boxes=spec.boxes)
    ok, witness, checked = verify_distance_floor(c16.field, rep.parity_check, 5)
    assert ok and witness is None and checked == 435897
    # the true distance is exactly 6: some 6 columns must be dependent
    ok6, witness6, checked6 = verify_distance_floor(
        c16.field, rep.parity_check, 6, budget=3_000_000)
    assert not ok6 and witness6 == [0, 1, 3, 7, 12, 27]
    # checked counts the subsets up to and including the witness
    assert checked6 == 1 + next(
        k for k, s in enumerate(itertools.combinations(range(37), 6))
        if list(s) == witness6)
    sub = rep.parity_check[:, witness6]
    assert linalg.rank(c16.field, sub) < 6
    # and the searcher exhibits a weight-6 word, closing the gap
    best_w, word = low_weight_search(c16.field, rep.parity_check, trials=40)
    assert best_w == 6
    assert int((word != 0).sum()) == 6
    assert not _fmm(c16.field, rep.parity_check, word[:, None]).any()


def test_verify_distance_floor_edges():
    f = make_field(2)
    H = f.array([[1, 0, 1], [0, 1, 1]])
    ok, _, _ = verify_distance_floor(f, H, 2)
    assert ok
    ok3, witness, checked = verify_distance_floor(f, H, 3)
    assert not ok3 and witness == [0, 1, 2] and checked == 1
    with pytest.raises(CodesError):
        verify_distance_floor(f, H, 4)
    with pytest.raises(BudgetError):
        verify_distance_floor(f, H, 2, budget=2)


def _first_dependent_brute(field, H, w):
    """Lex-first w-subset of columns with rank below w, and its 1-based
    position among all w-subsets, by one rank call per subset."""
    m = H.shape[1]
    for k, s in enumerate(itertools.combinations(range(m), w)):
        if linalg.rank(field, H[:, list(s)]) < w:
            return list(s), k + 1
    return None, math.comb(m, w)


def _planted(field, rng, rows, m, plant):
    H = rng.integers(0, field.q, (rows, m)).astype(np.int16)
    a, b = sorted(rng.choice(m, 2, replace=False))
    scale = field.array(int(rng.integers(1, field.q)))
    if plant == "zero":
        H[:, b] = 0
    elif plant == "parallel":
        H[:, b] = field.vmul(scale, H[:, a])
    elif plant == "prefix":
        # columns 0, 1, 2 dependent: every subset starting there fails
        H[:, 2] = field.vadd(H[:, 0], field.vmul(scale, H[:, 1]))
    return H


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2),
                                  (2, 4)])
def test_verify_distance_floor_matches_brute_force(p, k):
    f = make_field(p, k)
    rng = np.random.default_rng(p ** k)
    for trial in range(16):
        rows = int(rng.integers(1, 6))
        m = int(rng.integers(rows + 2, 10))
        H = _planted(f, rng, rows, m, ("none", "zero", "parallel",
                                      "prefix")[trial % 4])
        for w in range(1, rows + 2):
            ok, witness, checked = verify_distance_floor(f, H, w)
            want, want_checked = _first_dependent_brute(f, H, w)
            assert (ok, witness, checked) == (want is None, want,
                                              want_checked), (H, w)


def _lexsort_words(monkeypatch):
    """Word counts of the multiword keys _column_keys ranks with lexsort."""
    words, lexsort = [], np.lexsort

    def spy(keys):
        words.append(len(keys))
        return lexsort(keys)
    monkeypatch.setattr(np, "lexsort", spy)
    return words


def test_verify_distance_floor_multiword_keys(monkeypatch):
    # 27 rows over GF(7) need two int64 words per column (22 digits fit in
    # one), and so does the residual of 25 rows at the last level of w = 3;
    # the last column repeats column 1 with the two words' parts scaled
    # differently, so the parts are parallel one by one while the whole
    # columns are not
    f = make_field(7)
    rng = np.random.default_rng(5)
    H = rng.integers(0, 7, (27, 7)).astype(np.int16)
    H[:, 6] = np.concatenate([f.vmul(f.array(2), H[:22, 1]),
                              f.vmul(f.array(3), H[22:, 1])])
    words = _lexsort_words(monkeypatch)
    for w in (2, 3):
        assert verify_distance_floor(f, H, w) == (True, None,
                                                 math.comb(7, w))
        assert words and set(words) == {2}, w
        words.clear()
    H[:, 4] = f.vmul(f.array(5), H[:, 2])
    assert verify_distance_floor(f, H, 2) == (False, [2, 4], 6 + 5 + 1 + 1)
    H[:, 3] = 0
    assert verify_distance_floor(f, H, 3)[:2] == (False, [0, 1, 3])
    assert words and set(words) == {2}


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (3, 2), (2, 4)])
def test_verify_distance_floor_across_group_chunks(p, k, monkeypatch):
    # The last two prefix levels are tested in stacked calls of grandchild
    # groups merged up to _GROUP_CELLS.  At 1 cell every group is its own
    # call, at 200 and 1000 several groups share one; the answers must not
    # move.
    f = make_field(p, k)
    rng = np.random.default_rng(100 * p + k)
    cases = []
    for trial in range(12):
        rows = int(rng.integers(4, 8))
        m = int(rng.integers(rows + 3, 15))
        H = _planted(f, rng, rows, m, ("none", "zero", "parallel",
                                      "prefix")[trial % 4])
        cases += [(H, w) for w in range(4, min(rows, 6) + 1)]
    # a zero child of the root at 4: its witness [4, 5, 6, 7] loses to an
    # earlier grandchild, at the latest (0, 1) with the zero residual 4
    H = f.array(rng.integers(0, f.q, (5, 11)))
    H[:, 4] = 0
    cases.append((H, 4))
    # columns 8 and 10 parallel: a pair after j in every grandchild
    H = f.array(rng.integers(0, f.q, (6, 12)))
    H[:, 10] = f.vmul(f.array(f.q - 1), H[:, 8])
    cases += [(H, 4), (H, 5)]
    # columns 0 and 1 parallel: the zero child of the node [0] wins at once
    H = f.array(rng.integers(0, f.q, (6, 10)))
    H[:, 1] = H[:, 0]
    cases += [(H, 5), (H, 6)]
    # {1, 2, 4, 6} and {0, 3, 5, 7} dependent: in one stacked call the bad
    # grandchild (1, 2) comes before (0, 3), which is the first one
    H = f.array(rng.integers(0, f.q, (6, 10)))
    H[:, 6] = f.vadd(f.vadd(H[:, 1], H[:, 2]), H[:, 4])
    H[:, 7] = f.vadd(f.vadd(H[:, 0], H[:, 3]), H[:, 5])
    cases.append((H, 4))
    for H, w in cases:
        want, want_checked = _first_dependent_brute(f, H, w)
        for cells in (1, 200, 1000):
            monkeypatch.setattr(codes, "_GROUP_CELLS", cells)
            assert verify_distance_floor(f, H, w) == (
                want is None, want, want_checked), (H, w, cells)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_verify_distance_floor_pivot_rows(p, k, monkeypatch):
    # Each elimination drops its pivot row, the last nonzero entry of the
    # own column.  H with exactly w rows leaves a 2-row last level; an own
    # column whose only nonzero entry is in the first or in the last row
    # pivots there; a column in the span of d earlier ones is a zero own
    # column at level d of any prefix that holds those d.  Random H over a
    # small field has an early witness, so the other cases start from a
    # spread H, in which any m - 1 of the m = w + 4 columns are
    # independent, and the walk goes deep.
    f = make_field(p, k)
    rng = np.random.default_rng(10 * p + k)

    def nonzero():
        return int(rng.integers(1, f.q))

    def spread(rows):
        # [I | 1] under a random invertible row transform
        A = f.array(rng.integers(0, f.q, (rows, rows)))
        while linalg.rank(f, A) < rows:
            A = f.array(rng.integers(0, f.q, (rows, rows)))
        return linalg.matmul(f, A, f.array(np.hstack(
            [np.eye(rows, dtype=int), np.ones((rows, 1), dtype=int)])))

    cases = []
    for w in range(3, 7):
        m = w + 4
        cases += [f.array(rng.integers(0, f.q, (w, m))), spread(m - 1)]
        for H in (f.array(rng.integers(0, f.q, (w, m))), spread(m - 1)):
            H[:, 1] = 0
            H[0, 1] = nonzero()
            H[:, 3] = 0
            H[-1, 3] = nonzero()
            cases.append(H)
        for d in range(w - 1):
            H = spread(m - 1)
            t = int(rng.integers(d + 1, m))
            H[:, t] = 0
            for c in rng.choice(t, d, replace=False):
                H[:, t] = f.vadd(H[:, t], f.vmul(f.array(nonzero()),
                                                 H[:, int(c)]))
            cases.append(H)
    for H in cases:
        w = H.shape[1] - 4
        want, want_checked = _first_dependent_brute(f, H, w)
        for cells in (1, 200, 1000):
            monkeypatch.setattr(codes, "_GROUP_CELLS", cells)
            assert verify_distance_floor(f, H, w) == (
                want is None, want, want_checked), (H, w, cells)


def test_certification_keys_see_only_live_rows(c16, monkeypatch):
    # q16-n4 at w = 5: H has 8 rows, and the three prefix columns of every
    # last-level test have dropped three pivot rows, so each key call sees 5
    spec = predict_pair_params(4, 2, 1)
    rep = build_COmega(c16, evaluation_points(c16, spec.G), spec.G)
    assert rep.parity_check.shape == (8, 37)
    rows, keys = [], codes._column_keys

    def spy(T, S):
        rows.append(S.shape[1])
        return keys(T, S)
    monkeypatch.setattr(codes, "_column_keys", spy)
    assert verify_distance_floor(c16.field, rep.parity_check, 5) == (
        True, None, 435_897)
    assert rows and set(rows) == {5}


def test_verify_distance_floor_multiword_keys_across_group_chunks(
        monkeypatch):
    # 27 rows over GF(7): two key words per column, ranked per stack, so a
    # key is only meaningful inside the call that made it.  The last level
    # keeps 25 rows at w = 4 and 24 at w = 5, still two words.
    f = make_field(7)
    rng = np.random.default_rng(11)
    H = rng.integers(0, 7, (27, 10)).astype(np.int16)
    H[:, 9] = np.concatenate([f.vmul(f.array(2), H[:22, 1]),
                              f.vmul(f.array(3), H[22:, 1])])
    cases = [(H.copy(), 4), (H.copy(), 5)]
    # columns 2, 5, 7, 8 dependent
    H[:, 8] = f.vadd(f.vadd(H[:, 2], f.vmul(f.array(4), H[:, 5])), H[:, 7])
    cases += [(H.copy(), 4), (H.copy(), 5)]
    words = _lexsort_words(monkeypatch)
    for H, w in cases:
        want, want_checked = _first_dependent_brute(f, H, w)
        for cells in (1, 300, 3000):
            monkeypatch.setattr(codes, "_GROUP_CELLS", cells)
            words.clear()
            assert verify_distance_floor(f, H, w) == (
                want is None, want, want_checked), (w, cells)
            assert words and set(words) == {2}, (w, cells)


def test_verify_distance_floor_fewer_rows_than_w():
    # w columns in fewer than w dimensions are dependent, however large
    # C(m, w) is: the answer comes before the budget test
    f = make_field(2, 4)
    H = f.array(np.random.default_rng(3).integers(0, 16, (8, 37)))
    assert verify_distance_floor(f, H, 9, budget=1) == (
        False, list(range(9)), 1)
    with pytest.raises(BudgetError):
        verify_distance_floor(f, H, 8, budget=1)


def test_certification_memory_stays_bounded(c27):
    # q27-n4 at w = 5 (4,187,106 subsets): the stacked calls are bounded
    # in cells, so numpy's buffers, which tracemalloc sees, stay small
    import tracemalloc
    spec = predict_pair_params(4, 2, 1)
    rep = build_COmega(c27, evaluation_points(c27, spec.G), spec.G,
                       boxes=spec.boxes)
    c27.field.tables()
    tracemalloc.start()
    try:
        assert verify_distance_floor(c27.field, rep.parity_check, 5) == (
            True, None, 4_187_106)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 736,695 bytes (the depth-first last level took 526,262);
    # the bound leaves about 2x headroom
    assert peak < 1_500_000, peak


def test_record_code_floor_four(record):
    # 18 x 113 over GF(49): 49^18 > 2^63, so each column takes two key words
    spec = predict_pair_params(5, 3, 1)
    pts = evaluation_points(record, spec.G, length=113)
    rep = build_COmega(record, pts, spec.G, boxes=spec.boxes)
    assert (rep.length, rep.dimension, rep.pure_gap_bound) == (113, 95, 12)
    assert verify_distance_floor(record.field, rep.parity_check, 4) == (
        True, None, 6_438_740)


def test_dimension_identity_note(klein):
    # deg G >= length: rank identity not checkable, report says so
    G = ThreePointDivisor(30, 0, 0)
    pts = evaluation_points(klein, G)
    rep = build_COmega(klein, pts, G)
    assert any("not checkable" in note for note in rep.notes)


def test_curve_search_exhaustive():
    f2 = make_field(2)
    results = list(curve_search(f2, 3))
    assert len(results) == 8           # 2^3 linear G over GF(2)
    by_g = {tuple(sorted(r["curve"].g_coeffs)): r for r in results}
    # G = X + Y + Z, singular at (1:1:1), is the one singular member
    assert [g for g, r in by_g.items() if not r["smooth"]] == [
        ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
    counts = {len(r["points"]) for r in results}
    filtered = list(curve_search(f2, 3, predicate=lambda c: c == max(counts)))
    assert all(len(r["points"]) == max(counts) for r in filtered)
    # 32^6 members need sample=; the call itself refuses, before any member
    with pytest.raises(CodesError):
        curve_search(make_field(2, 5), 4)


@pytest.mark.parametrize("q, n, singular, members",
                         ((3, 4, 138, 729), (2, 5, 224, 1024)))
def test_curve_search_family_smoothness(q, n, singular, members):
    # exhaustive families; over GF(q) alone only 99 and 128 of the singular
    # members have a rational singular point
    hits = list(curve_search(make_field(q), n))
    assert len(hits) == members
    assert sum(not hit["smooth"] for hit in hits) == singular


def test_curve_search_sampled():
    f = make_field(2, 5)
    results = list(curve_search(f, 4, sample=5, seed=3))
    assert len(results) == 5
    for r in results:
        assert r["curve"].n == 4
        assert all(len(p) == 3 for p in r["points"])


def test_counting_formulas():
    assert [hurwitz_count(q) for q in (2, 3, 4)] == [24, 55, 108]
    assert hermitian_maximal_count(2) == 81
    assert hermitian_maximal_count(3) == 892


def _record_code(record, length=113):
    """C_Omega of the design (3, 1) on the record curve, truncated to
    length points: the [113, 95] code and the rest of the ladder."""
    spec = predict_pair_params(5, 3, 1)
    pts = evaluation_points(record, spec.G, length=length)
    return build_COmega(record, pts, spec.G, boxes=spec.boxes)


def test_record_code_search_pinned(record):
    # the [113, 95] record code over GF(49): a fixed seed finds a fixed word
    rep = _record_code(record)
    best_w, word = low_weight_search(record.field, rep.parity_check,
                                     trials=10, seed=2021)
    want = {10: 27, 15: 34, 34: 33, 43: 26, 51: 3, 55: 1, 57: 48, 64: 21,
            65: 2, 69: 29, 71: 3, 78: 18, 80: 20, 84: 10, 102: 23, 103: 3}
    assert best_w == 16
    assert word.shape == (113,) and word.dtype == rep.generator.dtype
    assert {int(i): int(word[i]) for i in np.nonzero(word)[0]} == want
    assert not _fmm(record.field, rep.parity_check, word[:, None]).any()


def _primal_search(field, gen, trials, seed):
    """The information-set search on the generator itself: rref of every
    column permutation of gen, lightest row first in permuted order.  It is
    the reference for low_weight_search on the code's parity check."""
    gen = np.asarray(gen)
    m = gen.shape[1]
    rng = np.random.default_rng(seed)
    best_w, best_word = None, None
    for _ in range(trials):
        perm = rng.permutation(m)
        R, pivots = linalg.rref(field, gen[:, perm])
        R = R[:len(pivots)]
        weights = (R != 0).sum(axis=1)
        pos = int(np.argmin(weights))
        wgt = int(weights[pos])
        if best_w is None or wgt < best_w:
            inv = np.empty(m, dtype=np.int64)
            inv[perm] = np.arange(m)
            best_w, best_word = wgt, R[pos][inv].copy()
    return best_w, best_word


def _same_search(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3),
                                  (3, 2), (7, 2)])
def test_low_weight_search_matches_primal_reference(p, k):
    field = make_field(p, k)
    rng = np.random.default_rng(10 * p + k)
    for rows, m in ((3, 12), (9, 12), (5, 5), (1, 7), (7, 9), (14, 20)):
        for shape in ("random", "zero columns", "rank deficient"):
            gen = rng.integers(0, field.q, (rows, m)).astype(np.int16)
            if shape == "zero columns":
                gen[:, rng.choice(m, m // 3, replace=False)] = 0
            elif shape == "rank deficient" and rows > 1:
                # a zero row, a repeated row and a scaled row
                gen[-1] = 0
                gen[0] = gen[rows // 2]
                gen[1] = field.vmul(field.array(rows % (field.q - 1) + 1),
                                    gen[0])
            seed = int(rng.integers(1 << 16))
            H = linalg.nullspace(field, gen)
            _same_search(low_weight_search(field, H, trials=6, seed=seed),
                         _primal_search(field, gen, 6, seed))


def test_low_weight_search_matches_primal_reference_record(record):
    rep = _record_code(record)
    for seed in (0, 7, 113):
        _same_search(low_weight_search(record.field, rep.parity_check,
                                       trials=20, seed=seed),
                     _primal_search(record.field, rep.generator, 20, seed))


def test_low_weight_search_zero_code():
    f = make_field(2)
    # r = m: H = I checks the zero code
    assert low_weight_search(f, np.eye(5, dtype=np.int16)) == (None, None)
    assert low_weight_search(f, f.zeros((0, 0))) == (None, None)
    # r = 0: the full space has weight-1 words, and the search still runs
    w, word = low_weight_search(f, f.zeros((0, 3)), trials=3)
    assert w == 1 and word.tolist() == [0, 0, 1]
    _same_search((w, word),
                 _primal_search(f, np.eye(3, dtype=np.int16), 3, 0))


def test_low_weight_search_dependent_rows(record):
    # H with dependent rows: the full-width fallback still finds fewer than
    # r pivots, and the search refuses instead of building a wrong word
    f = make_field(7)
    scaled = f.array([[1, 2, 3, 4], [3, 6, 2, 5]])   # row 2 = 3 * row 1
    for bad in (scaled, f.zeros((3, 3)), f.array([[1, 0], [0, 1], [1, 1]])):
        with pytest.raises(CodesError, match="rows of H are dependent"):
            low_weight_search(f, bad, trials=4)
    # the record check with its first row repeated
    H = _record_code(record).parity_check
    with pytest.raises(CodesError, match="the 19 rows of H are dependent"):
        low_weight_search(record.field, np.concatenate([H, H[:1]]),
                          trials=2)


def test_low_weight_search_across_chunks(record, monkeypatch):
    rep = _record_code(record)
    # three trials per panel stack: 20 trials end in a short chunk
    monkeypatch.setattr(codes, "_CHUNK_CELLS", 3 * rep.parity_check.size)
    for seed in (0, 7, 113):
        _same_search(low_weight_search(record.field, rep.parity_check,
                                       trials=20, seed=seed),
                     _primal_search(record.field, rep.generator, 20, seed))


@pytest.mark.parametrize("trials_per_chunk", [1, 2, 5])
def test_low_weight_search_ties_across_chunks(trials_per_chunk, monkeypatch):
    f = make_field(7)
    # one word up to scaling, of weight 6: every trial ties, and each trial
    # scales it to 1 at its first column in perm order, so the word tells
    # which trial won; the first one must
    gen = f.array([[1, 2, 3, 4, 5, 6]])
    H = linalg.nullspace(f, gen)
    first = low_weight_search(f, H, trials=1, seed=4)
    # random codes: ties inside a trial and between trials
    rng = np.random.default_rng(9)
    gens = [f.array(rng.integers(0, 3, (rows, 9))) for rows in (2, 4, 7)]
    want = [_primal_search(f, g, 11, 5) for g in gens]
    monkeypatch.setattr(codes, "_CHUNK_CELLS", trials_per_chunk * H.size)
    got = low_weight_search(f, H, trials=7, seed=4)
    assert got[0] == 6
    _same_search(got, first)
    _same_search(got, _primal_search(f, gen, 7, 4))
    for g, w in zip(gens, want):
        H = linalg.nullspace(f, g)
        monkeypatch.setattr(codes, "_CHUNK_CELLS", trials_per_chunk * H.size)
        _same_search(low_weight_search(f, H, trials=11, seed=5), w)


def test_low_weight_search_full_rank_and_no_trials(monkeypatch):
    f = make_field(3)
    gen = np.eye(4, dtype=np.int16)
    # H has 0 rows and 0 cells: one trial per chunk, no division by zero
    monkeypatch.setattr(codes, "_CHUNK_CELLS", 1)
    _same_search(low_weight_search(f, f.zeros((0, 4)), trials=5, seed=2),
                 _primal_search(f, gen, 5, 2))
    assert low_weight_search(f, f.array([[1, 2, 0]]), trials=0) == (None,
                                                                     None)


def _counting_transforms(monkeypatch):
    """Patch linalg.rref_transform to record the shape of every stack it
    reduces, and linalg.rref to record any call at all."""
    shapes, transform, rref = [], linalg.rref_transform, linalg.rref

    def counted(field, stack):
        shapes.append(np.shape(stack))
        return transform(field, stack)

    def spied(field, mat):
        shapes.append(("rref", np.shape(mat)))
        return rref(field, mat)

    monkeypatch.setattr(linalg, "rref_transform", counted)
    monkeypatch.setattr(linalg, "rref", spied)
    return shapes


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 4), (7, 2)])
def test_low_weight_search_short_panels(p, k, monkeypatch):
    # parity checks with zero and repeated columns: a panel of r + 2
    # columns often has rank < r, and its trial is redone at full width
    f = make_field(p, k)
    rng = np.random.default_rng(7 * p + k)
    m = 14
    for shape in ("zero columns", "repeated columns"):
        H = f.array(rng.integers(0, f.q, (4, m)))
        if shape == "zero columns":
            H[:, rng.choice(m, 7, replace=False)] = 0
        else:
            # every column a multiple of one of the first four
            for j in range(4, m):
                H[:, j] = f.vmul(f.array(int(rng.integers(1, f.q))),
                                 H[:, j % 4])
        R, pivots = linalg.rref(f, H)
        H = R[:len(pivots)]
        r = H.shape[0]
        gen = linalg.nullspace(f, H)
        for seed in (1, 2):
            want = _primal_search(f, gen, 30, seed)
            # the trials whose first r + 2 columns, reversed, have rank < r
            draw = np.random.default_rng(seed)
            short = sum(linalg.rank(f, H[:, draw.permutation(m)[::-1][:r + 2]])
                        < r for _ in range(30))
            shapes = _counting_transforms(monkeypatch)
            got = low_weight_search(f, H, trials=30, seed=seed)
            monkeypatch.undo()
            _same_search(got, want)
            # one panel call for the chunk, then one full-width call for
            # its short trials only; no rref at all
            assert short and shapes == [(30, r, r + 2), (short, r, m)], shapes


# (weight, SHA-256 of the word's bytes) of a 200-trial search with seed =
# length on each record-ladder code, recorded before the panel reduction
_LADDER_SEARCH = {
    113: (14, "2b95eae93257ed463d4a2ffa266f86e3ccd048de715eddd00ef1b2902a4f438f"),
    112: (14, "8e22c1dd993d276841bf0e8276b1fb94fb035ba44c4956d346950970181ae519"),
    111: (15, "88f05a43ee4915ca6e6f7e845802aefcce19177fd17ac73ca89b8609a77d50c6"),
    110: (15, "ea975a3e2eb0f33e5e6bde681a61ca2a1b22788039f7dce4a3322db1eae6e442"),
    109: (15, "41fa21d2a14b9d39e82d2b5443c2bff7287c6cf5111d9a3886412acb2bd6f332"),
    108: (14, "54164481ea899db3d2f4b174d4e3fbd0d40b07c2a59ab7180298f21779fe3420"),
    107: (15, "23d3c95ec17f084703dbf84e6d9a844812906555d8ab73cdd786c8241fdea6c6"),
}


def test_low_weight_search_ladder_pinned(record):
    for length, (weight, sha) in _LADDER_SEARCH.items():
        H = _record_code(record, length).parity_check
        best_w, word = low_weight_search(record.field, H, trials=200,
                                         seed=length)
        assert word.dtype == np.int16
        assert (best_w, hashlib.sha256(word.tobytes()).hexdigest()) == (
            weight, sha), length


def test_low_weight_search_panel_width(record, monkeypatch):
    # the 200 trials of the record code are one chunk, one panel of r + 2
    # columns each: its first r + 2 columns hold all r pivots, so nothing
    # is redone
    H = _record_code(record).parity_check
    r = H.shape[0]
    shapes = _counting_transforms(monkeypatch)
    low_weight_search(record.field, H, trials=200, seed=3)
    assert shapes == [(200, r, r + 2)], shapes
