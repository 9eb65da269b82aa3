"""Evaluation (differential) codes on the curve family, with distance floors
improved by pure gap boxes.

C_L(D, G) is the evaluation code of L(G) at the points of D; the object of
interest is its dual C_Omega(D, G).  Designed minimum distance:

    Goppa floor:     deg G - (2g - 2)
    pure-gap floor:  deg G - (2g - 2) + sum_s (beta_s - alpha_s + 1)

where G is framed by a box of pure gap tuples: G = sum (alpha_s + beta_s - 1) P_s
with every integer tuple in prod [alpha_s, beta_s] a pure gap.  The designed
G divisors for this family come from one function, design(n, params, m):
it reads the box of a pair or a triple from tripoint.weierstrass.pure_gap_box
and reports the theorems' hypotheses, which for a length m include m.

verify_distance_floor turns a floor into a certificate: it proves that
every w-subset of parity-check columns is independent, hence d >= w + 1,
or returns the lexicographically first dependent subset (the support of a
low-weight codeword).  Subsets sharing a (w-2)-column prefix P are tested
together: H is reduced modulo span(P) once, and P + {a, b} is dependent
exactly when residual columns a and b are zero or parallel, which one sort
of exact normalised column keys detects.  Each elimination drops the pivot
row it zeroes, so the residual of P has |P| fewer rows than H: an 8-row H
at w = 5 leaves 5 rows for the keys.  The last two prefix columns are
not walked one node at a time: a (w-4)-column node tests all of its
(w-2)-column grandchildren in a few stacked calls, grouped by their last
column, so that each group carries only the columns after it.

low_weight_search bounds the distance from above with random information
sets, read from the code's parity check H.  Each trial wants the systematic
generator of one column order; it row-reduces the (n-k)-row parity check in
the reversed order instead of the k-row generator.  By matroid duality the
dual's first information set in reversed order is the complement of the
code's first one in forward order, so both reductions give the same words.
The r-row parity check H is not reduced at full width.  The trials go in
chunks whose product has a bounded number of cells.  In each chunk one
stacked Gauss-Jordan exchange (linalg.rref_transform) inverts a panel per
trial in place, the first r + 2 columns of its order, which yields the
trial's transform E.  One field product E H (linalg.matmul, a BLAS
product over base-p digits) then gives every trial's reduced parity
check.  A trial whose panel has rank < r inverts its panel again at full
width.  A tie inside a trial goes to the first column in its order, and a
tie between trials to the first trial, so the words do not depend on the
chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from . import linalg
from .curves import (FUNDAMENTAL_POINTS, CurveSpec, _eval_form,
                     monomials_of_degree)
from .fields import Field
# dim_L_oracle is unused here; benchmarks/tracing.py patches it on this module
from .riemann_roch import (ThreePointDivisor, _expansions, basis_L_oracle,
                           dim_L_oracle)
from .series import monomial_orders
from .weierstrass import pure_gap_box

__all__ = [
    "CodesError", "BudgetError", "CodeSpec", "CodeReport",
    "build_CL", "build_COmega", "design",
    "carvalho_torres_bound", "goppa_bound", "verify_distance_floor",
    "low_weight_search", "curve_search", "hurwitz_count",
    "hermitian_maximal_count", "evaluation_points",
]


class CodesError(ValueError):
    """Invalid code construction request."""


class BudgetError(RuntimeError):
    """A combinatorial certification would exceed the allowed budget."""


# the default budget of a certification: at most this many column subsets
DEFAULT_BUDGET = 10_000_000


def goppa_bound(deg_G: int, genus: int) -> int:
    return deg_G - (2 * genus - 2)


def carvalho_torres_bound(deg_G: int, genus: int, boxes) -> int:
    """Goppa floor improved by the pure-gap box [alpha_s, beta_s] framing G."""
    extra = 0
    for alpha, beta in boxes:
        if beta < alpha:
            raise CodesError(f"empty box [{alpha}, {beta}]")
        extra += beta - alpha + 1
    return deg_G - (2 * genus - 2) + extra


# ---------------------------------------------------------------------------
# designed parameters from pure-gap corner boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    """A design: G framed by the pure-gap box of params, a pair (i, j) on
    P1 and P2 or a triple (i, j, k) on all fundamental points."""
    n: int
    params: tuple
    G: ThreePointDivisor
    boxes: tuple            # ((alpha_s, beta_s), ...) per point
    designed_distance: int  # pure-gap floor
    goppa_distance: int
    hypotheses_met: bool


def design(n: int, params: tuple, m: int | None = None) -> CodeSpec:
    """G = sum (alpha_s + beta_s - 1) P_s over the box [alpha_s, beta_s] of
    pure_gap_box(n, params), its two floors and the theorems' hypotheses.

    The hypotheses are reported, not enforced.  A pair needs
    2(i + j) >= n + 2, and length m >= 2n^2 - 4n - 2 when m is given.  A
    triple needs (2n - 1)d > (n - 2)^2, d = i + j + k, which makes the
    floor exceed the Goppa floor by the full 3(n - d - 2), and length
    m > deg G when m is given.  Params outside pure_gap_params(n, .) or
    with an empty box raise CodesError.
    """
    params = tuple(params)
    try:
        boxes = pure_gap_box(n, params)
    except ValueError as exc:
        raise CodesError(str(exc)) from None
    d = sum(params)
    if any(hi < lo for lo, hi in boxes):
        raise CodesError(f"empty pure-gap box for n = {n}: want a sum "
                         f"<= {d - 1}, got {params}")
    G = ThreePointDivisor(*(lo + hi - 1 for lo, hi in boxes))
    genus = n * (n - 1) // 2
    if len(params) == 2:
        met = 2 * d >= n + 2 and (m is None or m >= 2 * n * n - 4 * n - 2)
    else:
        met = (2 * n - 1) * d > (n - 2) ** 2 and (m is None or m > G.degree)
    return CodeSpec(
        n=n, params=params, G=G, boxes=boxes,
        designed_distance=carvalho_torres_bound(G.degree, genus, boxes),
        goppa_distance=goppa_bound(G.degree, genus), hypotheses_met=met)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def evaluation_points(curve: CurveSpec, G: ThreePointDivisor,
                      length: int | None = None) -> list:
    """Canonical evaluation divisor: all rational points minus P1 and P2,
    keeping P3 only when no basis function can have a pole there.

    Points are normalised code triples in sorted order; a requested length
    keeps the first `length` of them.
    """
    drop = FUNDAMENTAL_POINTS[:3 if G.c > 0 else 2]
    out = [p for p in curve.rational_points() if p not in drop]
    if length is not None:
        if length < 0:
            raise CodesError(f"length must be >= 0, got {length}")
        if length > len(out):
            raise CodesError(f"only {len(out)} usable points, wanted {length}")
        out = out[:length]
    return out


def build_CL(curve: CurveSpec, points: list, G: ThreePointDivisor):
    """Evaluation matrix of L(G) at the given points (rows = basis).

    Each point is a tuple (x, y, z) of the field's codes whose first
    nonzero entry is 1, as `CurveSpec.rational_points` gives them.  Points
    must avoid P1 and P2 (both lie on Z = 0) and may include P3 only when
    G.c <= 0, so that each basis function h / M is defined at every point.
    The standard monomials and M are evaluated in one product: a table of
    each coordinate's powers at every point is indexed by the exponent
    arrays, and V = X^a * Y^b * Z^c is two Field.vmul calls; then
    E = basis * V / M.  At P3 a monomial's value is the coefficient of
    t^ord_P3(M) (series.monomial_orders) in its chart expansion there.
    """
    field = curve.field
    rr = basis_L_oracle(curve, G)
    p1, p2, p3 = FUNDAMENTAL_POINTS
    for p in points:
        if not (isinstance(p, tuple) and len(p) == 3
                and all(isinstance(v, int) and 0 <= v < field.q for v in p)
                and next((v for v in p if v), 0) == 1):
            raise CodesError(f"bad evaluation point {p!r}: want a code "
                             "triple whose first nonzero entry is 1")
        if p in (p1, p2):
            raise CodesError(f"cannot evaluate at {p!r}: it lies on Z = 0")
        if p == p3 and G.c > 0:
            raise CodesError("cannot evaluate at P3: basis functions may "
                             "have a pole there (G has positive P3 part)")
    m = len(points)
    coords = field.array(points).reshape(m, 3).T
    off = np.nonzero(_eval_form(field, curve.F_terms, *coords))[0]
    if off.size:
        raise CodesError(f"{points[int(off[0])]!r} is not on the curve")
    # the denominator M may be non-standard, so it is one more row
    monos = [*rr.monomials, rr.denominator]
    exps = np.array(monos)
    # powers[e, axis, i]: coordinate axis of point i to the e (v^0 = 1)
    powers = [np.ones_like(coords), coords]
    while len(powers) <= exps.max():
        powers.append(field.vmul(powers[-1], coords))
    powers = np.stack(powers)
    V = field.vmul(field.vmul(powers[exps[:, 0], 0], powers[exps[:, 1], 1]),
                   powers[exps[:, 2], 2])
    if p3 in points:
        ord_p3 = monomial_orders(curve.n, rr.denominator)[2]
        V[:, [p == p3 for p in points]] = _expansions(
            curve, "P3", sum(rr.denominator), monos, ord_p3 + 1)[-1:].T
    denom = V[-1]
    if np.any(denom == 0):
        raise CodesError("zero denominator at an evaluation point")

    E = linalg.matmul(field, rr.basis, V[:-1])
    return field.vmul(E, field.vinv(denom)), rr


@dataclass
class CodeReport:
    """Everything measured about one C_Omega(D, G) construction."""
    field_json: dict
    curve_json: dict
    G: tuple
    length: int
    dimension: int
    goppa_bound: int
    pure_gap_bound: int | None
    verified_floor: int | None          # largest w+1 proven by subset checks
    floor_witness: list | None          # dependent column set if one was found
    weight_upper: int | None            # smallest codeword weight observed
    parity_check: np.ndarray = dc_field(repr=False)
    generator: np.ndarray = dc_field(repr=False)
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "field": self.field_json,
            "curve": self.curve_json,
            "G": list(self.G),
            "length": self.length,
            "dimension": self.dimension,
            "goppa_bound": self.goppa_bound,
            "pure_gap_bound": self.pure_gap_bound,
            "verified_floor": self.verified_floor,
            "floor_witness": self.floor_witness,
            "weight_upper": self.weight_upper,
            "parity_check": self.parity_check.tolist(),
            "generator": self.generator.tolist(),
            "notes": list(self.notes),
        }


def build_COmega(curve: CurveSpec, points: list, G: ThreePointDivisor,
                 boxes=None) -> CodeReport:
    """The differential code C_Omega(D, G) = dual of C_L(D, G).

    The evaluation matrix is row-reduced once.  The nonzero rows of its
    rref are the parity-check matrix, and the generator is read from the
    same reduced form (linalg.reduced_nullspace), whose pivots it shares.
    The dimension m - rank is cross-checked against the
    index-of-specialty identity when deg(G - D) < 0:
    dim = i(G - D) - i(G) = m - ell(G), an AssertionError if they differ.
    """
    E, rr = build_CL(curve, points, G)
    field = curve.field
    R, pivots = linalg.rref(field, E)
    H = R[:len(pivots)]
    m = E.shape[1]
    k = m - H.shape[0]
    notes = []
    if G.degree < m:
        expect = m - rr.dimension
        if k != expect:
            raise AssertionError(
                f"dimension {k} disagrees with index-of-specialty value {expect}")
    else:
        notes.append("deg G >= length: dimension identity not checkable")
    gen = linalg.reduced_nullspace(field, R, pivots)
    genus = curve.genus
    if k == 0:
        notes.append("zero code: no nonzero word, so no distance bound applies")
    return CodeReport(
        field_json=field.to_json(), curve_json=curve.to_json(),
        G=G.coeffs(), length=m, dimension=k,
        goppa_bound=goppa_bound(G.degree, genus) if k else None,
        pure_gap_bound=(carvalho_torres_bound(G.degree, genus, boxes)
                        if boxes and k else None),
        verified_floor=None, floor_witness=None, weight_upper=None,
        parity_check=H, generator=gen, notes=tuple(notes))


# ---------------------------------------------------------------------------
# distance certification and search
# ---------------------------------------------------------------------------

def _lex_rank(subset, m: int) -> int:
    """Position of a sorted subset in the lexicographic order of
    itertools.combinations(range(m), len(subset))."""
    w = len(subset)
    # minus the subsets after it: its first i elements, then w - i above c
    return math.comb(m, w) - 1 - sum(math.comb(m - 1 - c, w - i)
                                     for i, c in enumerate(subset))


def _eliminate(field: Field, S: np.ndarray, own: np.ndarray):
    """Residual of each matrix S[b] of a stack modulo its own column own[b],
    without the pivot row.

    S is (B, rows, cols), or (1, rows, cols) for one matrix shared by all
    B = len(own) members.  The column is eliminated at its last nonzero
    row p, which cancels itself and is dropped; the rows below p are zero
    in the own column and stay as they are.  Row r < rows - 1 of the
    residual is S[b, r] - (S[b, r, o] / S[b, p, o]) S[b, p], except that
    row p holds the last row S[b, rows - 1] when p is above it.  Dropping
    a zero row and reordering rows keep every column's zeroness and every
    pair's parallelism, which is all the callers read.  Returns the
    (B, rows - 1, cols) stack and a mask of the members whose own column
    is zero.  Their residual is S[b] without its last row, and no caller
    reads it: walk stops at the first zero child, grandchildren tests only
    the children before it, and _first_bad answers (o + 1, o + 2) for it.
    """
    B, rows = len(own), S.shape[1]
    b = np.arange(B)
    S = np.broadcast_to(S, (B, rows, S.shape[2]))
    C = S[b, :, own]
    piv = rows - 1 - np.argmax(C[:, ::-1] != 0, axis=1)
    lead = C[b, piv]
    # C[b, r] / lead[b] for r < rows - 1
    factors = field.vmul(field.vinv(lead)[:, None], C[:, :-1])
    res = field.tables().submul(S[:, :-1], factors[:, :, None],
                                S[b, piv][:, None, :])
    high = np.nonzero(piv < rows - 1)[0]
    res[high, piv[high]] = S[high, -1]
    return res, lead == 0


def _column_keys(field: Field, S: np.ndarray) -> np.ndarray:
    """Exact keys for the columns of each (rows, cols) matrix in a stack:
    0 for a zero column, and equal positive keys for parallel columns.

    Each whole column is scaled so its first nonzero entry is 1 and then
    packed base q into int64 words.  A column that needs several words gets
    its key from its rank among the distinct word tuples of the stack.
    """
    # first nonzero entry of each column, one row at a time from the top
    # (an argmax along the strided row axis takes about 3x as long)
    lead = S[:, 0]
    for row in S.swapaxes(0, 1)[1:]:
        lead = np.where(lead == 0, row, lead)
    S = field.vmul(field.vinv(lead)[:, None, :], S)
    B, rows, cols = S.shape
    per = 1                        # base-q digits per int64 word
    while field.q ** (per + 1) < 1 << 63:
        per += 1
    place = np.power(field.q, np.arange(per), dtype=np.int64)
    words = np.stack([np.matmul(place[:rows - lo], S[:, lo:lo + per])
                      for lo in range(0, rows, per)], axis=-1)
    words = words.reshape(B * cols, -1)
    if words.shape[1] == 1:
        return words.reshape(B, cols)
    order = np.lexsort(words.T[::-1])
    srt = words[order]
    # the all-zero tuple, when present, sorts first and keeps key 0
    prev = np.vstack([np.zeros_like(srt[:1]), srt[:-1]])
    fresh = np.any(srt != prev, axis=1)
    keys = np.empty(B * cols, dtype=np.int64)
    keys[order] = np.cumsum(fresh)
    return keys.reshape(B, cols)


def _first_pair(keys: np.ndarray, start: int):
    """Lexicographically first (a, b), start <= a < b, whose columns are
    dependent: a zero key or two equal keys."""
    for a in range(start, len(keys) - 1):
        if keys[a] == 0:
            return a, a + 1
        rest = keys[a + 1:]
        hit = np.nonzero((rest == 0) | (rest == keys[a]))[0]
        if hit.size:
            return a, a + 1 + int(hit[0])
    return None


def _first_bad(field: Field, S: np.ndarray, own: np.ndarray):
    """The last prefix level for a stack: the first member b, in stack
    order, whose own column own[b] and two later columns x < y of S[b] are
    dependent.  Returns (b, x, y) with the lexicographically first such
    pair, or None.

    After eliminating the own column, the triple is dependent exactly when
    one residual column is zero or the two are parallel.  A zero own
    column makes every triple dependent, so its first one wins.
    """
    res, zero = _eliminate(field, S, own)
    keys = _column_keys(field, res)
    col = np.arange(keys.shape[1])
    # columns up to the own one get distinct negative keys: never a pair
    keys = np.where(col <= own[:, None], -1 - col, keys)
    ordered = np.sort(keys, axis=1)
    bad = (zero | (keys == 0).any(axis=1)
           | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if not bad.any():
        return None
    b = int(np.argmax(bad))
    o = int(own[b])
    if zero[b]:
        return b, o + 1, o + 2
    return (b, *_first_pair(keys[b], o + 1))


def _first_dependent(field: Field, H: np.ndarray, w: int):
    """Lexicographically first dependent w-subset of H's columns, or None."""
    m = H.shape[1]
    if w == 1:
        zero = np.nonzero(~H.any(axis=0))[0]
        return [int(zero[0])] if zero.size else None
    if w == 2:
        pair = _first_pair(_column_keys(field, H[None])[0], 0)
        return list(pair) if pair else None
    if w == 3:
        hit = _first_bad(field, H[None], np.arange(m - 2))
        return list(hit) if hit else None

    def grandchildren(res, zero, base, prefix):
        # the node prefix (depth w - 4) has children residuals res; the
        # grandchild (i, j) is prefix + [c_i, c_j], its residual res[i]
        # modulo column j.  Group j holds the i < j; it needs only the
        # columns from j on, and consecutive groups share one test.
        width = res.shape[2]
        found, limit = None, len(zero)
        if zero.any():
            # a zero child i0 comes after every grandchild with i < i0
            limit = int(np.argmax(zero))
            found = prefix + list(range(base + limit, base + limit + 4))
        lo = 1
        while lo <= width - 3 and limit:
            per = res.shape[1] * (width - lo)   # cells of one member
            hi, members = lo, min(lo, limit)
            while (hi < width - 3
                   and (members + min(hi + 1, limit)) * per <= _GROUP_CELLS):
                hi += 1
                members += min(hi, limit)
            # members in lexicographic (i, j) order
            i, j = np.nonzero(np.arange(limit)[:, None]
                              < np.arange(lo, hi + 1)[None, :])
            j += lo
            hit = _first_bad(field, res[i, :, lo:], j - lo)
            if hit:
                b, a, c = hit
                # every later grandchild that comes first has i < i[b]
                limit = int(i[b])
                found = prefix + [base + limit, base + int(j[b]),
                                  base + lo + a, base + lo + c]
            lo = hi + 1
        return found

    def walk(R, base, prefix):
        # R holds columns base..m-1 of H modulo span(prefix); the children
        # are prefix + [c] for the c that leave room for w - d - 1 more
        d = len(prefix)
        count = m - (w - d) + 1 - base
        res, zero = _eliminate(field, R[None], np.arange(count))
        if d == w - 4:
            return grandchildren(res, zero, base, prefix)
        for i in range(count):
            if zero[i]:
                return prefix + list(range(base + i, base + i + w - d))
            found = walk(res[i, :, i + 1:], base + i + 1, prefix + [base + i])
            if found:
                return found
        return None

    return walk(H, 0, [])


def verify_distance_floor(field: Field, H: np.ndarray, w: int, *,
                          budget: int = DEFAULT_BUDGET):
    """Prove (exactly) that every w columns of H are independent.

    Success certifies minimum distance >= w + 1 for the code with parity
    check H.  Returns (ok, witness, checked).  On success checked is
    C(m, w); on failure witness is the lexicographically first dependent
    column subset and checked is its lexicographic rank + 1, the number of
    subsets up to and including it.  Raises BudgetError when C(m, w)
    exceeds the budget.

    When H has fewer than w rows, every w-subset is dependent, and the
    first one is returned without a budget test.

    The subsets are not eliminated one by one.  The prefixes are walked
    depth first in lexicographic order, and each tree node eliminates one
    pivot column from its parent's residual, so a prefix P is reduced once
    for all of its extensions.  For an independent (w-2)-column P with
    residual R (H modulo span(P)), P + {a, b} is dependent exactly when
    R[:, a] or R[:, b] is zero or the two are parallel: the elimination is
    a linear map whose kernel is span(P).  Each pivot row cancels itself
    and is dropped (_eliminate), so R has |P| fewer rows than H; dropping
    a zero row keeps every column's zeroness and every pair's parallelism.
    Parallel columns share one key once each column is scaled to a
    leading 1, so a stack of prefixes is tested with one sort.

    The walk stops at the (w-4)-column nodes (w >= 4).  Such a node P has
    children P + {c_i} with residuals R_i; its grandchild (i, j) is
    P + {c_i, c_j}, with residual R_i modulo column j.  Grandchild group j
    (every i < j) keeps only the columns from j on, and consecutive groups
    share one stacked test up to _GROUP_CELLS cells.  The node then
    reports its lexicographically first bad (i, j): a bad grandchild
    (i, j) rules out every later i, and a zero child i0 (P + {c_i0}
    dependent) comes after every grandchild with i < i0, so only those are
    tested.  A node is always finished, so an early exit costs at most one
    node more than a walk to the exact witness.
    """
    H = np.asarray(H)
    m = H.shape[1]
    if w < 1 or w > m:
        raise CodesError(f"w = {w} out of range for length {m}")
    if H.shape[0] < w:
        # w vectors in fewer than w dimensions: the first subset is dependent
        return False, list(range(w)), 1
    total = math.comb(m, w)
    if total > budget:
        raise BudgetError(
            f"C({m}, {w}) = {total} subset checks exceed the budget {budget}")
    witness = _first_dependent(field, H, w)
    if witness is None:
        return True, None, total
    return False, witness, _lex_rank(witness, m) + 1


# cells of one stacked last-level test of certification: consecutive
# grandchild groups of a prefix node are merged up to this many (a group
# larger than this is tested alone)
_GROUP_CELLS = 1 << 15
# trials per chunk of low_weight_search: each chunk's product has at most
# this many cells, about 257 trials of the 18 x 113 record check
_CHUNK_CELLS = 1 << 19
# columns of a trial's panel beyond the r pivots it needs: at slack 0, 118
# of 5,600 trials on the record ladder had a short panel; at 2, none did
_PANEL_SLACK = 2


def low_weight_search(field: Field, H: np.ndarray, trials: int = 200,
                      seed: int = 0):
    """Random information-set search for low-weight codewords of the code
    whose parity check is H.

    Returns (best_weight, best_word), or (None, None) for a zero code
    (H square of full rank) or no trials.  Any weight found is an upper
    bound for the true minimum distance.  The r rows of H must be
    independent: a trial that finds fewer than r pivots at full width
    raises CodesError.

    Each trial draws a column order perm and takes the rows of the
    systematic generator R = rref(gen[:, perm]), for any gen spanning the
    code: the row with pivot i has a 1 at i, zeros at the other pivots,
    and the fewest nonzeros wins (the first in perm order on a tie).  R is
    found from H, which has r = n - k rows instead of k.  The pivots of R
    are the lexicographically first information set I in perm order; with
    distinct weights the minimum basis of a matroid is unique, and its
    complement is the maximum basis of the dual.  So J = complement of I
    is the first information set of the dual code in reversed perm order:
    the pivots of S = rref(H[:, perm[::-1]]), which depends only on the
    row space of H.  A codeword c with c_I = e_i satisfies S c = 0, so
    c_J = -S[:, i] (the column of S at i), and the row of R at pivot i has
    weight 1 + nnz(S[:, i]).  Rows are compared in perm order, so the tie
    rule is the one of R: inside a trial the highest column of S wins,
    which is the first in perm order.

    S is not reduced at full width.  The first r + _PANEL_SLACK columns of
    the reversed order hold all r pivots in almost every trial, and then
    E, the inverse of the panel's pivot columns, gives S = E H[:, order]:
    rref is unique, and E is fixed by the pivots.  linalg.rref_transform
    inverts every panel of a chunk in place, in one stacked Gauss-Jordan
    exchange, and it also gives the pivot mask.  A trial whose panel has
    rank < r inverts its panel again at full width.
    S = linalg.matmul(E, H) is then one field product for all trials of a
    chunk, in H's own column order, and the column weights are permuted by
    each trial's order.

    The permutations are drawn one trial after another, and the trials are
    handled in chunks whose product has about _CHUNK_CELLS cells, so memory
    stays bounded for any number of trials.  Across trials the first one
    with a strictly smaller weight wins, and only the winner's word is
    built.
    """
    H = np.asarray(H)
    r, m = H.shape
    if r == m and linalg.rank(field, H) == r:
        return None, None
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_CELLS // max(1, H.size))
    width = min(m, r + _PANEL_SLACK)
    best_w, best_word = None, None
    for start in range(0, trials, chunk):
        orders = np.array([rng.permutation(m)[::-1]
                           for _ in range(min(chunk, trials - start))])
        E, P = linalg.rref_transform(
            field, H[:, orders[:, :width]].swapaxes(0, 1))
        short = P.sum(axis=1) < r
        P = np.pad(P, ((0, 0), (0, m - width)))
        if short.any():
            E[short], P[short] = linalg.rref_transform(
                field, H[:, orders[short]].swapaxes(0, 1))
            if (P[short].sum(axis=1) < r).any():
                raise CodesError(f"the {r} rows of H are dependent")
        S = linalg.matmul(field, E, H)
        # H has independent rows, so every row of S has a pivot and the
        # non-pivots are the information set; reversed, the first minimum
        # of each trial is its highest column
        nnz = np.take_along_axis((S != 0).sum(axis=1), orders, axis=1)
        weights = np.where(P, m + 1, 1 + nnz)[:, ::-1]
        pos = m - 1 - weights.argmin(axis=1)
        wgts = weights.min(axis=1)
        b = int(wgts.argmin())
        if best_w is None or wgts[b] < best_w:
            order, J = orders[b], P[b].nonzero()[0]
            col = order[pos[b]]
            word = field.zeros(m)
            word[col] = 1
            word[order[J]] = field.vneg(S[b, :, col])
            best_w, best_word = int(wgts[b]), word
    return best_w, best_word


def curve_search(field: Field, n: int, *, min_points: int | None = None,
                 sample: int | None = None, seed: int = 0):
    """Iterate members of the family over `field`, counting points.

    Returns an iterator of dicts {curve, points, smooth}, the last from
    `CurveSpec.is_smooth`.  When the G-coefficient space q^(#monomials) is
    at most 4096 the sweep is exhaustive (and deterministic); otherwise
    `sample` random coefficient draws are made with the given seed, and
    without `sample` the call itself raises.  Only members with at least
    `min_points` rational points are yielded, every member without it.
    """
    monos = monomials_of_degree(n - 2)
    space = field.q ** len(monos)
    if space <= 4096:
        # base-q digits of 0, 1, ..., space - 1, least significant first
        source = (digits[::-1] for digits in
                  product(range(field.q), repeat=len(monos)))
    elif sample is None:
        raise CodesError(f"coefficient space {space} is too large to "
                         f"exhaust (more than 4096 members); draw a sample")
    else:
        rng = np.random.default_rng(seed)
        source = (list(map(int, rng.integers(0, field.q, len(monos))))
                  for _ in range(sample))

    def members():
        for digits in source:
            curve = CurveSpec(field, n,
                              {e: c for e, c in zip(monos, digits) if c})
            pts = curve.rational_points()
            if min_points is None or len(pts) >= min_points:
                yield {"curve": curve, "points": pts,
                       "smooth": curve.is_smooth()}
    return members()


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def hurwitz_count(q: int) -> int:
    """Rational points of the G = 0 member with n = q + 1 over GF(q^3)."""
    eps = (q + 1) % 3
    return 2 * q ** 3 + 1 + (1 - eps) * (q * q + q + 1)


def hermitian_maximal_count(q: int) -> int:
    """Rational points of the n = q member (a maximal curve) over GF(q^6)."""
    return q ** 6 + q ** 5 - q ** 4 + 1
