"""The plane curve family X*Y^n + Y*Z^n + Z*X^n + X*Y*Z*G(X,Y,Z) = 0.

G is zero or homogeneous of degree n-2, n >= 3, so the curve has degree
n+1 and (when smooth) genus n(n-1)/2.  The three fundamental points

    P1 = (1:0:0)   P2 = (0:1:0)   P3 = (0:0:1)

always lie on the curve, the tangent there is a coordinate line, and that
line meets the curve only in fundamental points (Z=0 cuts n*P1 + P2, X=0
cuts n*P2 + P3, Y=0 cuts n*P3 + P1).  Every member of the family is
automatically nonsingular at the three fundamental points; smoothness
elsewhere is decided exactly by `CurveSpec.is_smooth`, a rank certificate
over the algebraic closure.

Polynomials are dicts mapping exponent triples (e1, e2, e3) to coefficient
codes of the base field.  A point is a tuple (x, y, z) of codes whose first
nonzero entry is 1; tuples compare and sort as the points do, and
`FUNDAMENTAL_POINTS` holds P1, P2, P3 in this form over every field.

Rational points come from one table-driven sweep, `rational_points_raw`,
over the disjoint charts (0:0:1), (0:1:z) and (1:y:z): every point of a
chart already has its leading 1, and the charts and their rows are walked
in lexicographic order, so the points come out normalised and sorted.  Its
form is evaluated by `_eval_forms`, which `codes.build_CL` also uses at the
evaluation points.  `eval_terms` is the scalar evaluator: `validate_curve`
and the tests read it, and it is the only one that runs on fields above
`fields.TABLE_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import CODE_DTYPE, Field, embed, make_field
from .series import _CHART_EXPS

__all__ = [
    "CurveError", "FUNDAMENTAL_POINTS", "CurveSpec", "rational_points_raw",
    "CheckResult", "monomials_of_degree",
]


class CurveError(ValueError):
    """Invalid curve data or a failed structural requirement."""


# P1, P2, P3 as normalised code triples; the same over every field
FUNDAMENTAL_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class CurveSpec:
    """One member of the family over a fixed finite field."""

    def __init__(self, field: Field, n: int, g_coeffs: dict | None = None):
        if not isinstance(n, int) or n < 3:
            raise CurveError(f"n must be an integer >= 3, got {n!r}")
        self.field = field
        self.n = n
        coeffs = {}
        for e, c in (g_coeffs or {}).items():
            e = tuple(int(v) for v in e)
            if len(e) != 3 or min(e) < 0 or sum(e) != n - 2:
                raise CurveError(
                    f"G monomial {e} is not of homogeneous degree n-2 = {n - 2}")
            code = field.check_code(c)
            if code:
                coeffs[e] = code
        self.g_coeffs = coeffs
        # F = X Y^n + Y Z^n + Z X^n + X Y Z * G
        terms = {(1, n, 0): 1, (0, 1, n): 1, (n, 0, 1): 1}
        for e, c in coeffs.items():
            key = (e[0] + 1, e[1] + 1, e[2] + 1)
            terms[key] = field.add(terms.get(key, 0), c)
        self.F_terms = {e: c for e, c in terms.items() if c}
        self._cache: dict = {}

    # -- basic invariants ---------------------------------------------------

    @property
    def genus(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def degree(self) -> int:
        return self.n + 1

    def __eq__(self, other):
        return (isinstance(other, CurveSpec) and self.field == other.field
                and self.n == other.n and self.g_coeffs == other.g_coeffs)

    def __hash__(self):
        return hash((self.field, self.n, tuple(sorted(self.g_coeffs.items()))))

    def __repr__(self):
        gs = "0" if not self.g_coeffs else f"{len(self.g_coeffs)} terms"
        return f"CurveSpec(n={self.n}, {self.field!r}, G: {gs})"

    # -- polynomial views -----------------------------------------------------

    def partials(self) -> dict:
        """Formal partial derivative polynomials dF/dX, dF/dY, dF/dZ."""
        out = {}
        for axis, name in enumerate(("X", "Y", "Z")):
            d: dict = {}
            for e, c in self.F_terms.items():
                if e[axis] == 0:
                    continue
                cc = self.field.mul(self.field.from_int(e[axis]), c)
                if cc == 0:
                    continue
                key = tuple(v - 1 if i == axis else v for i, v in enumerate(e))
                d[key] = self.field.add(d.get(key, 0), cc)
            out[name] = d
        return out

    def chart_poly(self, point_id: str) -> dict:
        """Affine chart equation at a fundamental point as (t_exp, w_exp) -> code."""
        key = ("chart", point_id)
        if key not in self._cache:
            exps = _CHART_EXPS[point_id]
            poly: dict = {}
            for e, c in self.F_terms.items():
                te = exps(e)
                poly[te] = self.field.add(poly.get(te, 0), c)
            self._cache[key] = {e: c for e, c in poly.items() if c}
        return self._cache[key]

    # -- extensions ---------------------------------------------------------------

    def extension(self, m: int) -> "CurveSpec":
        """The same curve viewed over GF(q^m)."""
        if m == 1:
            return self
        big = make_field(self.field.p, self.field.k * m)
        g = {e: embed(self.field, c, big) for e, c in self.g_coeffs.items()}
        return CurveSpec(big, self.n, g)

    # -- point enumeration ------------------------------------------------------

    def rational_points(self) -> list:
        """All points over the base field as sorted code triples; the points
        over GF(q^m) are `extension(m).rational_points()`.

        The three fundamental points are always present.  The sweep runs
        once per curve object; every call returns a fresh list.
        """
        if "points" not in self._cache:
            pts = rational_points_raw(self.field, self.F_terms)
            if not set(FUNDAMENTAL_POINTS) <= set(pts):
                raise CurveError("fundamental points missing from sweep")
            self._cache["points"] = pts
        return list(self._cache["points"])

    # -- smoothness -------------------------------------------------------------

    def is_smooth(self) -> bool:
        """Whether the curve is nonsingular over the algebraic closure.

        F, F_X, F_Y, F_Z have no common projective zero iff their monomial
        multiples span every form of degree D = 3n - 1, Lazard's bound
        d1 + d2 + d3 - 2 for degrees n + 1, n, n (Macaulay 1916; Lazard,
        EUROCAL 1983).  So the curve is smooth iff that Macaulay matrix has
        rank C(D + 2, 2); its rank over GF(q) is its rank over the closure.
        """
        D = 3 * self.n - 1
        cols = (D + 1) * (D + 2) // 2
        blocks = []
        for form in (self.F_terms, *self.partials().values()):
            E = np.array(list(form))
            S = np.array(monomials_of_degree(D - int(E[0].sum())))
            a, b = (S[:, None, :2] + E[:, :2]).transpose(2, 0, 1)
            block = self.field.zeros((len(S), cols))
            # the column of X^a Y^b Z^c is its place in monomials_of_degree(D)
            block[np.arange(len(S))[:, None],
                  a * (D + 1) - a * (a - 1) // 2 + b] = list(form.values())
            blocks.append(block)
        return linalg.rank(self.field, np.concatenate(blocks)) == cols

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "g_coeffs": [[list(e), c] for e, c in sorted(self.g_coeffs.items())],
        }

    @staticmethod
    def from_json(data: dict) -> "CurveSpec":
        field = Field.from_json(data["field"])
        g = {tuple(e): int(c) for e, c in data.get("g_coeffs", [])}
        return CurveSpec(field, int(data["n"]), g)


def eval_terms(field: Field, terms: dict, coords: tuple) -> int:
    """Scalar evaluation of a polynomial dict at a coordinate triple."""
    acc = 0
    for e, c in terms.items():
        v = c
        for coord, exp in zip(coords, e):
            if exp:
                v = field.mul(v, field.pow(coord, exp))
        acc = field.add(acc, v)
    return acc


# ---------------------------------------------------------------------------
# vectorized evaluation and the zero sweep
# ---------------------------------------------------------------------------

def _eval_forms(field: Field, forms, X, Y, Z):
    """Yield the value of each form at broadcastable code arrays X, Y, Z.

    A form is a dict (e1, e2, e3) -> code.  v^0 is 1, also at v = 0.
    Coordinate powers are computed once and shared by all the forms.
    """
    coords = [field.array(v) for v in (X, Y, Z)]
    shape = np.broadcast_shapes(*(v.shape for v in coords))
    pows = [[field.array(1), v] for v in coords]

    def power(axis, e):
        tab = pows[axis]
        while len(tab) <= e:
            tab.append(field.vmul(tab[-1], coords[axis]))
        return tab[e]

    for terms in forms:
        acc = field.zeros(shape)
        for e, c in terms.items():
            # smallest factors first: the product grows to full size last
            term = field.array(c)
            for f in sorted((power(axis, k) for axis, k in enumerate(e) if k),
                            key=np.size):
                term = field.vmul(term, f)
            acc = field.vadd(acc, term)
        yield acc


def rational_points_raw(field: Field, F_terms: dict) -> list:
    """All projective zeros of the form given by F_terms, as sorted
    (x, y, z) code tuples with a leading 1.

    Works for any homogeneous form (used directly for the n = 2 counting
    cross-checks that CurveSpec's n >= 3 domain excludes).  The charts
    (0:0:1), (0:1:z) and (1:y:z) are disjoint, cover P^2 and hold only
    normalised points; swept in that order, the last in row chunks of about
    _SWEEP_CELLS cells in increasing y, their zeros come out in
    lexicographic order, so nothing is rescaled or sorted afterwards.
    """
    codes = np.arange(field.q, dtype=CODE_DTYPE)
    chunk = max(1, _SWEEP_CELLS // field.q)
    found = [field.zeros((0, 3))]

    def sweep(X, Y, Z):
        mask = next(_eval_forms(field, [F_terms], X, Y, Z)) == 0
        if mask.any():
            found.append(np.stack([np.broadcast_to(v, mask.shape)[mask]
                                   for v in (X, Y, Z)], axis=1))

    sweep(0, 0, 1)
    sweep(0, 1, codes)
    for lo in range(0, field.q, chunk):
        sweep(1, codes[lo:lo + chunk, None], codes[None, :])
    return list(map(tuple, np.concatenate(found).tolist()))


# grid cells of one chunk of the zero sweep.  Each product and sum over a
# chunk gathers through an 8-byte intp index per cell, so the chunk bounds
# the sweep's memory: 2^16 cells keep every index under 1 MB.
_SWEEP_CELLS = 1 << 16


def monomials_of_degree(N: int) -> list:
    """Canonical (lexicographic) ordering of exponent triples of degree N."""
    return [(e1, e2, N - e1 - e2)
            for e1 in range(N + 1) for e2 in range(N - e1 + 1)]
