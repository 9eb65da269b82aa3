"""Evaluation (differential) codes on the curve family, with distance floors
improved by pure gap boxes.

C_L(D, G) is the evaluation code of L(G) at the points of D; the object of
interest is its dual C_Omega(D, G).  Designed minimum distance:

    Goppa floor:     deg G - (2g - 2)
    pure-gap floor:  deg G - (2g - 2) + sum_s (beta_s - alpha_s + 1)

where G is framed by a box of pure gap tuples: G = sum (alpha_s + beta_s - 1) P_s
with every integer tuple in prod [alpha_s, beta_s] a pure gap.  The designed
G divisors for this family come from the corner parametrizations in
predict_pair_params / predict_triple_params.

verify_distance_floor turns a floor into a certificate: it checks every
w-subset of parity-check columns for independence by batched exact
elimination, which proves d >= w + 1 (and yields an explicit low-weight
codeword support on failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations, islice

import numpy as np

from . import linalg
from .curves import CurveSpec, ProjectivePoint, eval_terms
from .fields import Field
from .riemann_roch import ThreePointDivisor, RRSpace, basis_L_oracle, dim_L_oracle

__all__ = [
    "CodesError", "BudgetError", "CodeSpecPair", "CodeSpecTriple", "CodeReport",
    "build_CL", "build_COmega", "predict_pair_params", "predict_triple_params",
    "carvalho_torres_bound", "goppa_bound", "verify_distance_floor",
    "low_weight_search", "curve_search", "hurwitz_count",
    "hermitian_maximal_count", "evaluation_points",
]


class CodesError(ValueError):
    """Invalid code construction request."""


class BudgetError(RuntimeError):
    """A combinatorial certification would exceed the allowed budget."""


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
class CodeSpecPair:
    """Two-point design: G supported on P1, P2 framed by a pure-gap box."""
    n: int
    i: int
    j: int
    G: ThreePointDivisor
    boxes: tuple            # ((alpha1, beta1), (alpha2, beta2))
    designed_distance: int  # pure-gap floor
    goppa_distance: int
    hypotheses_met: bool


@dataclass(frozen=True)
class CodeSpecTriple:
    """Three-point design: G supported on all fundamental points."""
    n: int
    i: int
    j: int
    k: int
    G: ThreePointDivisor
    boxes: tuple
    designed_distance: int
    goppa_distance: int
    hypotheses_met: bool


def predict_pair_params(n: int, i: int, j: int, m: int | None = None) -> CodeSpecPair:
    """Corner box (alpha, beta) pairs and the induced G, bounds.

        alpha = ((i-1)n + 1, (j-1)n + i)    beta = (in - i - j, jn - j)

    Every integer pair in the box is a pure gap, G = (alpha+beta-1) paired
    with (P1, P2).  The positivity hypotheses (2(i+j) >= n + 2, and length
    m >= 2n^2 - 4n - 2 when m is given) are reported, not enforced.
    """
    if i < 1 or j < 1 or i + j > n - 1:
        raise CodesError(f"need i, j >= 1 with i + j <= n - 1, got {(i, j)}")
    a1, a2 = (i - 1) * n + 1, (j - 1) * n + i
    b1, b2 = i * n - i - j, j * n - j
    if b1 < a1 or b2 < a2:
        raise CodesError(f"degenerate box for (n, i, j) = {(n, i, j)}")
    G = ThreePointDivisor(a1 + b1 - 1, a2 + b2 - 1, 0)
    genus = n * (n - 1) // 2
    hyp = 2 * (i + j) >= n + 2 and (m is None or m >= 2 * n * n - 4 * n - 2)
    return CodeSpecPair(
        n=n, i=i, j=j, G=G, boxes=((a1, b1), (a2, b2)),
        designed_distance=carvalho_torres_bound(G.degree, genus,
                                                ((a1, b1), (a2, b2))),
        goppa_distance=goppa_bound(G.degree, genus),
        hypotheses_met=hyp)


def predict_triple_params(n: int, i: int, j: int, k: int,
                          m: int | None = None) -> CodeSpecTriple:
    """Corner boxes for the three-point design.

        n_s = (kn + j + 1, in + k + 1, jn + i + 1),  p_s = n_s + (n - d - 3)

    with d = i + j + k <= n - 3; G = sum (n_s + p_s - 1) P_s.  The
    hypothesis d > (n-2)^2 / (2n-1) makes the floor exceed the Goppa floor
    by the full 3(n - d - 2).
    """
    d = i + j + k
    if min(i, j, k) < 0 or d > n - 3:
        raise CodesError(f"need i, j, k >= 0 with i+j+k <= n - 3, got {(i, j, k)}")
    lows = (k * n + j + 1, i * n + k + 1, j * n + i + 1)
    gap = n - d - 3
    highs = tuple(v + gap for v in lows)
    G = ThreePointDivisor(*(lo + hi - 1 for lo, hi in zip(lows, highs)))
    genus = n * (n - 1) // 2
    hyp = (2 * n - 1) * d > (n - 2) ** 2 and (m is None or m > G.degree)
    return CodeSpecTriple(
        n=n, i=i, j=j, k=k, G=G, boxes=tuple(zip(lows, highs)),
        designed_distance=carvalho_torres_bound(G.degree, genus,
                                                tuple(zip(lows, highs))),
        goppa_distance=goppa_bound(G.degree, genus),
        hypotheses_met=hyp)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def evaluation_points(curve: CurveSpec, G: ThreePointDivisor,
                      length: int | None = None) -> list:
    """Canonical evaluation divisor: all rational points minus P1 and P2,
    keeping P3 only when no basis function can have a pole there.

    Points come in canonical order; a requested length keeps the first
    `length` of them.
    """
    pts = curve.rational_points()
    fund = curve.fundamental_points()
    drop = {fund[0].coords, fund[1].coords}
    if G.c > 0:
        drop.add(fund[2].coords)
    out = [p for p in pts if p.coords not in drop]
    if length is not None:
        if length > len(out):
            raise CodesError(f"only {len(out)} usable points, wanted {length}")
        out = out[:length]
    return out


def build_CL(curve: CurveSpec, points: list, G: ThreePointDivisor):
    """Evaluation matrix of L(G) at the given points (rows = basis).

    Points must avoid P1 and P2 (both lie on Z = 0) and may include P3
    only when G.c <= 0: the basis denominator M is then a power of Z, so
    each basis function h / M is defined at every point.
    """
    field = curve.field
    rr = basis_L_oracle(curve, G)
    fund = curve.fundamental_points()
    p1, p2, p3 = (p.coords for p in fund)
    coords = []
    for p in points:
        if not isinstance(p, ProjectivePoint) or p.field != field:
            raise CodesError(f"bad evaluation point {p!r}")
        if p.coords in (p1, p2):
            raise CodesError(f"cannot evaluate at {p!r}: it lies on Z = 0")
        if p.coords == p3 and G.c > 0:
            raise CodesError("cannot evaluate at P3: basis functions may "
                             "have a pole there (G has positive P3 part)")
        coords.append(p.coords)
    m = len(coords)
    if m == 0:
        return field.zeros((rr.dimension, 0)), rr

    N = sum(rr.denominator)
    # coordinate power tables, high enough for the basis forms and for F
    top = max(N, curve.degree)
    pows = []
    for arr in field.array(coords).T:
        tab = field.zeros((top + 1, m))
        tab[0] = 1
        for e in range(1, top + 1):
            tab[e] = field.vmul(tab[e - 1], arr)
        pows.append(tab)

    def values(e):
        return field.vmul(field.vmul(pows[0][e[0]], pows[1][e[1]]),
                          pows[2][e[2]])

    on_F = field.zeros(m)
    for e, c in curve.F_terms.items():
        on_F = field.vadd(on_F, field.vmul(c, values(e)))
    off = np.nonzero(on_F)[0]
    if off.size:
        raise CodesError(f"{points[int(off[0])]!r} is not on the curve")
    V = np.array([values(e) for e in rr.monomials])
    # the denominator M is itself one of the degree-N monomials
    denom = V[rr.monomials.index(rr.denominator)]
    if np.any(denom == 0):
        raise CodesError("zero denominator at an evaluation point")
    scale = field.vinv(denom)

    E = field.zeros((rr.dimension, m))
    for r in range(rr.dimension):
        acc = field.zeros(m)
        brow = rr.basis[r]
        for col in np.nonzero(brow)[0]:
            acc = field.vadd(acc, field.vmul(field.array(int(brow[col])),
                                             V[col]))
        E[r] = field.vmul(acc, scale)
    return E, rr


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
            "parity_check": [[int(v) for v in row] for row in self.parity_check],
            "generator": [[int(v) for v in row] for row in self.generator],
            "notes": list(self.notes),
        }


def build_COmega(curve: CurveSpec, points: list, G: ThreePointDivisor,
                 boxes=None) -> CodeReport:
    """The differential code C_Omega(D, G) = dual of C_L(D, G).

    The parity-check matrix is a full-rank reduction of the evaluation
    matrix; the dimension m - rank is cross-checked against the
    index-of-specialty identity when deg(G - D) < 0:
    dim = i(G - D) - i(G) = m - ell(G).
    """
    E, rr = build_CL(curve, points, G)
    field = curve.field
    H = linalg.row_space_basis(field, E)
    m = E.shape[1]
    k = m - H.shape[0]
    notes = []
    if G.degree < m:
        expect = m - rr.dimension
        if k != expect:
            raise CodesError(
                f"dimension {k} disagrees with index-of-specialty value {expect}")
    else:
        notes.append("deg G >= length: dimension identity not checkable")
    gen = linalg.nullspace(field, H)
    genus = curve.genus
    return CodeReport(
        field_json=field.to_json(), curve_json=curve.to_json(),
        G=G.coeffs(), length=m, dimension=k,
        goppa_bound=goppa_bound(G.degree, genus),
        pure_gap_bound=(carvalho_torres_bound(G.degree, genus, boxes)
                        if boxes else None),
        verified_floor=None, floor_witness=None, weight_upper=None,
        parity_check=H, generator=gen, notes=tuple(notes))


# ---------------------------------------------------------------------------
# distance certification and search
# ---------------------------------------------------------------------------

def _batch_full_rank(field: Field, mats: np.ndarray) -> np.ndarray:
    """Boolean array: does each (rows x w) matrix in the batch have rank w."""
    M = mats.copy()
    B, rows, w = M.shape
    ok = np.ones(B, dtype=bool)
    if rows < w:
        return np.zeros(B, dtype=bool)
    idx = np.arange(B)
    for col in range(w):
        sub = M[:, col:, col]
        nzmask = sub != 0
        piv = np.argmax(nzmask, axis=1)
        ok &= np.take_along_axis(nzmask, piv[:, None], axis=1)[:, 0]
        if not ok.any():
            return ok
        prow = col + piv
        tmp = M[idx, prow].copy()
        M[idx, prow] = M[:, col]
        M[:, col] = tmp
        pv = M[:, col, col].copy()
        pv[pv == 0] = 1  # failed batches: keep elimination well defined
        M[:, col] = field.vmul(field.vinv(pv)[:, None], M[:, col])
        if col + 1 < rows:
            factors = M[:, col + 1:, col]
            M[:, col + 1:] = field.vsub(
                M[:, col + 1:],
                field.vmul(factors[:, :, None], M[:, col][:, None, :]))
    return ok


def verify_distance_floor(field: Field, H: np.ndarray, w: int, *,
                          budget: int = 10_000_000, chunk: int = 1 << 15):
    """Prove (exactly) that every w columns of H are independent.

    Success certifies minimum distance >= w + 1 for the code with parity
    check H.  Returns (ok, witness, checked): on failure, witness is a
    dependent column index list.  Raises BudgetError when C(m, w) exceeds
    the budget.
    """
    H = np.asarray(H)
    m = H.shape[1]
    if w < 1 or w > m:
        raise CodesError(f"w = {w} out of range for length {m}")
    total = math.comb(m, w)
    if total > budget:
        raise BudgetError(
            f"C({m}, {w}) = {total} subset checks exceed the budget {budget}")
    it = combinations(range(m), w)
    checked = 0
    while True:
        block = list(islice(it, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        mats = np.ascontiguousarray(np.moveaxis(H[:, idx], 1, 0))
        ok = _batch_full_rank(field, mats)
        checked += len(block)
        if not ok.all():
            bad = int(np.nonzero(~ok)[0][0])
            return False, list(block[bad]), checked
    return True, None, checked


def low_weight_search(field: Field, gen: np.ndarray, trials: int = 200,
                      seed: int = 0):
    """Random information-set search for low-weight codewords.

    Returns (best_weight, best_word).  Any weight found is an upper bound
    for the true minimum distance.  gen must be a generator matrix.
    """
    gen = np.asarray(gen)
    k, m = gen.shape
    if k == 0:
        return None, None
    rng = np.random.default_rng(seed)
    best_w, best_word = None, None
    for _ in range(trials):
        perm = rng.permutation(m)
        R = linalg.row_space_basis(field, gen[:, perm])
        weights = (R != 0).sum(axis=1)
        pos = int(np.argmin(weights))
        wgt = int(weights[pos])
        if best_w is None or wgt < best_w:
            inv = np.empty(m, dtype=np.int64)
            inv[perm] = np.arange(m)
            best_w, best_word = wgt, R[pos][inv].copy()
    return best_w, best_word


def curve_search(field: Field, n: int, *, predicate=None, probe_ext: int = 1,
                 sample: int | None = None, seed: int = 0,
                 exhaustive_limit: int = 4096):
    """Iterate members of the family over `field`, counting points.

    Yields dicts {curve, points, singular}.  When the G-coefficient space
    q^(#monomials) is at most exhaustive_limit the sweep is exhaustive (and
    deterministic); otherwise `sample` random coefficient draws are made
    with the given seed.  predicate filters on the point count.
    """
    monos = [(e1, e2, n - 2 - e1 - e2)
             for e1 in range(n - 1) for e2 in range(n - 1 - e1)]
    space = field.q ** len(monos)
    if space <= exhaustive_limit:
        def draws():
            for code in range(space):
                digits = []
                c = code
                for _ in monos:
                    digits.append(c % field.q)
                    c //= field.q
                yield digits
        source = draws()
    else:
        if sample is None:
            raise CodesError(
                f"coefficient space {space} too large for exhaustion; "
                f"pass sample=")
        rng = np.random.default_rng(seed)
        source = (list(map(int, rng.integers(0, field.q, len(monos))))
                  for _ in range(sample))
    for digits in source:
        g = {e: c for e, c in zip(monos, digits) if c}
        curve = CurveSpec(field, n, g)
        pts = curve.rational_points()
        if predicate is not None and not predicate(len(pts)):
            continue
        singular = curve.smoothness_probe(probe_ext)
        yield {"curve": curve, "points": pts, "singular": singular}


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
