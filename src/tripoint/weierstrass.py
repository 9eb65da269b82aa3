"""Gap sequences, Kim maps and pure gaps at the three fundamental points.

Everything in here comes in two flavors: closed-form combinatorics in the
parameter n alone (gaps_closed_form, kim_map, pure_gaps, ...) and
field-level oracles that recompute the same objects from Riemann-Roch
dimensions of an actual curve (gaps_oracle, pure_gap_oracle).  A gap
sequence is the increasing tuple of its gaps, and a Kim map the tuple of
its (gap, image, witness) entries.  pure_gap_oracle is the one flatness
test, ell(sum a_i P_i) = ell(sum (a_i - 1) P_i) at one, two or three
points; a gap is a pure gap at one point, so gaps_oracle reads it too, and
pure_gap_problems is the one per-record check of a pure gap against the
oracle.  The test suite pins the two flavors against each other.

The theorems' parameter ranges are stated once, in _BOX_RANGES (a pair
(i, j) at two points, a triple (i, j, k) at P1, P2, P3), and
pure_gap_params walks them.  The boxes of pure gaps are stated once, in
pure_gap_box, and ell on each box once, in pure_gap_dimension: ell is
constant from the corner below the box (lo - 1) up to its top corner
(hi).  pure_gaps lists the tuples of the boxes, tripoint.codes.design
frames its G by one box, and the M_d, N_d and S_d + e claims of
tripoint.claims are their corners.

Gap bookkeeping at a point P:  m is a gap iff ell(mP) = ell((m-1)P).  For
this family the gap set at each fundamental point is

    { (i-1)(n-1) + j : 1 <= i <= j <= n-1 },

and the semigroup is generated by s(n-1)+1 for s = 1..n.  The Kim map of an
ordered pair (P, Q) sends a gap a at P to the smallest b with (a, b) a gap
pair at (P, Q); here it is the same bijection beta for all three cyclic
pairs (P1,P2), (P2,P3), (P3,P1), acting on index pairs as
(i, j) -> (n-j, n-1+i-j), and beta^3 = id.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .curves import CurveSpec
from .riemann_roch import ThreePointDivisor, Sd_divisor, dim_L_oracle, dim_Sd
from .series import POINT_IDS, monomial_orders

__all__ = [
    "PureGapRecord",
    "gaps_closed_form", "semigroup_generators", "gaps_oracle",
    "kim_map", "kim_image", "gap_index",
    "pure_gaps", "pure_gaps_pair_via_homma_kim",
    "pure_gap_params", "pure_gap_box", "pure_gap_dimension",
    "pure_gap_count_pair", "pure_gap_count_triple",
    "pure_gap_oracle", "pure_gap_problems", "CYCLIC_PAIRS",
]

CYCLIC_PAIRS = (("P1", "P2"), ("P2", "P3"), ("P3", "P1"))


def _divisor(points, coeffs: tuple) -> ThreePointDivisor:
    """sum coeffs[k] * points[k], where points None means the first
    len(coeffs) of P1, P2, P3: the one map from point names to axes."""
    points = POINT_IDS[:len(coeffs)] if points is None else tuple(points)
    if (len(points) != len(coeffs) or len(set(points)) != len(points)
            or not set(points) <= set(POINT_IDS)):
        raise ValueError(f"want {len(coeffs)} distinct points from "
                         f"{POINT_IDS}, got {points}")
    v = [0, 0, 0]
    for point, c in zip(points, coeffs):
        v[POINT_IDS.index(point)] = c
    return ThreePointDivisor(*v)


def gaps_closed_form(n: int) -> tuple:
    """The gap sequence by formula, the same at each fundamental point: the
    increasing tuple of the g = n(n-1)/2 gaps."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return tuple((i - 1) * (n - 1) + j
                 for i in range(1, n) for j in range(i, n))


def gap_index(n: int, a: int) -> tuple:
    """The unique (i, j), 1 <= i <= j <= n-1, with a = (i-1)(n-1) + j."""
    i, j = divmod(a - 1, n - 1)
    i, j = i + 1, j + 1
    if not (1 <= i <= j <= n - 1):
        raise ValueError(f"{a} is not a gap for n = {n}")
    return i, j


def semigroup_generators(n: int) -> tuple:
    """Generators s(n-1)+1, s = 1..n, of the common Weierstrass semigroup."""
    return tuple(s * (n - 1) + 1 for s in range(1, n + 1))


def gaps_oracle(curve: CurveSpec, point: str) -> tuple:
    """The gap sequence at a point recomputed by the oracle, as the
    increasing tuple of its gaps: the m <= 2g-1 that are pure gaps at the
    one point, ell(m*P) = ell((m-1)*P)."""
    return tuple(m for m in range(1, 2 * curve.genus)
                 if pure_gap_oracle(curve, (m,), (point,)))


# ---------------------------------------------------------------------------
# Kim maps
# ---------------------------------------------------------------------------

def kim_image(n: int, a: int) -> int:
    """beta(a) for a gap a: (i, j) -> (n-j, n-1+i-j) in index coordinates."""
    i, j = gap_index(n, a)
    return (n - j - 1) * (n - 1) + (n - 1 + i - j)


def _witness_monomial(pair: tuple, n: int, a: int) -> tuple:
    """(u, v) with div_infinity(x^u y^v) = a * source + beta(a) * target.

    The (P1, P2) witness x^(j+1-n) y^(n-1+i-j), (i, j) the index of a,
    carried along CYCLIC_PAIRS by the automorphism X -> Y -> Z -> X, which
    takes P1 to P2 to P3 and x^u y^v to x^(-u-v) y^u.
    """
    i, j = gap_index(n, a)
    u, v = -(n - j - 1), n - j + i - 1
    for _ in range(CYCLIC_PAIRS.index(pair)):
        u, v = -u - v, u
    return u, v


def kim_map(n: int, pair: tuple) -> tuple:
    """The Kim map of a cyclic ordered pair of fundamental points, as the
    tuple of (gap, image, (u, v)) entries in increasing gap order.

    The witness (u, v) gives the monomial x^u y^v whose pole divisor is
    gap*source + image*target; it certifies image as an upper bound for
    the Kim map value.  Every witness's pole divisor is checked here
    (AssertionError if one is wrong), and a pair that is not one of
    CYCLIC_PAIRS is a ValueError.
    """
    pair = tuple(pair)
    if pair not in CYCLIC_PAIRS:
        raise ValueError(f"pair must be one of {CYCLIC_PAIRS}")
    rows = []
    for a in gaps_closed_form(n):
        b = kim_image(n, a)
        u, v = _witness_monomial(pair, n, a)
        vals = monomial_orders(n, (u, v, -u - v))
        pole = tuple(-min(val, 0) for val in vals)
        expect = _divisor(pair, (a, b)).coeffs()
        if pole != expect:
            raise AssertionError(
                f"witness x^{u} y^{v} has pole {pole}, wanted {expect}")
        rows.append((a, b, (u, v)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# pure gaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureGapRecord:
    """One pure gap tuple with its parametrization and predicted dimension."""
    tuple_: tuple
    params: dict = dc_field(compare=False)
    predicted_dimension: int = dc_field(compare=False, default=0)


# (low, top) of the theorems' parameters at 2 or 3 points: every entry is
# >= low and the entries sum to <= top
_BOX_RANGES = {2: lambda n: (1, n - 1), 3: lambda n: (0, n - 2)}


def _box_range(n: int, points: int) -> tuple:
    if points not in _BOX_RANGES:
        raise ValueError(f"want 2 or 3 points, got {points}")
    return _BOX_RANGES[points](n)


def _box_kind(n: int, params: tuple) -> int:
    """2 for a pair, 3 for a triple; ValueError outside _BOX_RANGES."""
    low, top = _box_range(n, len(params))
    if min(params) < low or sum(params) > top:
        raise ValueError(f"want entries >= {low} with sum <= {top} for "
                         f"n = {n}, got {params}")
    return len(params)


def pure_gap_params(n: int, points: int) -> tuple:
    """Every parameter tuple pure_gap_box(n, .) accepts at 2 or 3 points,
    in lexicographic order.  The triples with d = n - 2 are included;
    their boxes are empty."""
    low, top = _box_range(n, points)
    return tuple(p for p in product(range(low, top + 1), repeat=points)
                 if sum(p) <= top)


def pure_gap_box(n: int, params: tuple) -> tuple:
    """The box of pure gaps of a pair (i, j) or a triple (i, j, k):
    ((lo, hi), ...) per point, every integer tuple of the box a pure gap.

        pair, i, j >= 1, d = i + j <= n - 1:
            ((i-1)n + 1, in - i - j) and ((j-1)n + i, jn - j)
        triple, i, j, k >= 0, d = i + j + k <= n - 2:
            lo = S_d + 1 = (kn + j + 1, in + k + 1, jn + i + 1),
            hi = lo + n - 3 - d (at d = n - 2 the box is empty, hi = S_d)

    Parameters outside these ranges raise ValueError.
    """
    if _box_kind(n, params) == 2:
        i, j = params
        return (((i - 1) * n + 1, i * n - i - j), ((j - 1) * n + i, j * n - j))
    span = n - 3 - sum(params)
    return tuple((s + 1, s + 1 + span) for s in Sd_divisor(n, *params).coeffs())


def pure_gap_dimension(n: int, params: tuple) -> int:
    """ell on the box pure_gap_box(n, params), from lo - 1 up to hi: a pair
    gives (d-1)(d-2)/2 + i, a triple ell(S_d), S_d = lo - 1.  The ranges
    are pure_gap_box's."""
    if _box_kind(n, params) == 2:
        d = sum(params)
        return (d - 1) * (d - 2) // 2 + params[0]
    return dim_Sd(n, *params)


def pure_gaps(n: int, points: int) -> list:
    """All pure gap pairs (points = 2) or triples (points = 3), sorted by
    tuple: one record per tuple of each box pure_gap_box(n, params), params
    in pure_gap_params(n, points), with the offsets from the low corner as
    r, s[, t] and ell on the box, pure_gap_dimension(n, params).

    The pair set is the same at each cyclic ordered pair (P1,P2), (P2,P3),
    (P3,P1); a reversed pair sees the transposed set.  The triples sit at
    (P1, P2, P3), and no coordinate of one is divisible by n - 1.
    """
    out = []
    for params in pure_gap_params(n, points):
        box = pure_gap_box(n, params)
        dimension = pure_gap_dimension(n, params)
        named = {**dict(zip("ijk", params)), "d": sum(params)}
        for off in product(*(range(hi - lo + 1) for lo, hi in box)):
            out.append(PureGapRecord(
                tuple_=tuple(lo + o for (lo, _), o in zip(box, off)),
                params={**named, **dict(zip("rst", off))},
                predicted_dimension=dimension))
    out.sort(key=lambda rec: rec.tuple_)
    return out


def pure_gap_count_pair(n: int) -> int:
    g = n * (n - 1) // 2
    return (g - 1) * g // 3


def pure_gaps_pair_via_homma_kim(n: int) -> list:
    """Pure gap pairs from the inversion description of the Kim map.

    With gaps sorted as n_1 < ... < n_g at the source and m_1 < ... < m_g at
    the target, and sigma defined by beta(n_i) = m_sigma(i), the pure gap
    pairs are exactly (n_i, m_sigma(j)) over the inversions i < j,
    sigma(i) > sigma(j).
    """
    gaps = gaps_closed_form(n)
    pos = {a: idx for idx, a in enumerate(gaps, start=1)}
    sigma = {i: pos[kim_image(n, a)] for i, a in enumerate(gaps, start=1)}
    g = len(gaps)
    pairs = []
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            if sigma[i] > sigma[j]:
                pairs.append((gaps[i - 1], gaps[sigma[j] - 1]))
    return sorted(pairs)


def pure_gap_count_triple(n: int) -> int:
    g = n * (n - 1) // 2
    return (g - 1) * g * (2 * g - 1) // 30


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def pure_gap_oracle(curve: CurveSpec, tuple_: tuple,
                    points: tuple | None = None) -> bool:
    """Is the tuple a pure gap, i.e. does ell stay flat one step down in
    every coordinate simultaneously?

    ell(sum a_i P_i) == ell(sum (a_i - 1) P_i) characterizes pure gaps
    (Carvalho-Torres); at one point it is the gap test.  The tuple has one,
    two or three entries at `points`, by default the first that many of
    (P1, P2, P3); any other length or a bad point name is a ValueError.
    """
    if len(tuple_) not in (1, 2, 3):
        raise ValueError("tuple must have length 1, 2 or 3")
    D = _divisor(points, tuple_)
    step = _divisor(points, (1,) * len(tuple_))
    return dim_L_oracle(curve, D) == dim_L_oracle(curve, D - step)


def pure_gap_problems(curve: CurveSpec, rec: PureGapRecord,
                      points: tuple | None = None) -> list:
    """What the oracle finds wrong with one pure-gap record, [] if nothing:
    the tuple must be pure at `points` (as in pure_gap_oracle) and ell of
    its divisor must be the predicted dimension."""
    bad = []
    if not pure_gap_oracle(curve, rec.tuple_, points):
        bad.append(f"oracle rejects {rec.tuple_}")
    if dim_L_oracle(curve, _divisor(points, rec.tuple_)) != rec.predicted_dimension:
        bad.append(f"dimension mismatch at {rec.tuple_}")
    return bad
