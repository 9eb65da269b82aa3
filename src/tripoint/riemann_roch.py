"""Riemann-Roch spaces for divisors supported on the three fundamental points.

The oracle computes ell(D) for D = a*P1 + b*P2 + c*P3 without any
dimension formula, by exact linear algebra over the base field:

0.  Reduce D to its (degree, class).  Multiplying by x^u y^v maps L(D)
    onto L(D - u*div x - v*div y), with div x = (-n, n-1, 1) and
    div y = (-(n-1), -1, n).  The class (a - (n-1)b) mod n^2 - n + 1
    vanishes on both (-n - (n-1)^2 = -(n^2 - n + 1) and
    -(n-1) + (n-1) = 0), and the two span a sublattice of index
    n^2 - n + 1 in the degree-0 divisors, so the degree-d divisors fall
    into n^2 - n + 1 classes with one ell each.  The memo holds one ell
    per (d, class), computed on `_representative`: D minus the rounded
    div x, div y coordinates of D - (d/3)(P1 + P2 + P3), whose cover
    degree stays within 2 of ceil(d/(n+1)) for n = 3..8 and
    0 <= d <= 2g - 2.  `memo=False` (and `n_extra`) skips the reduction
    and runs steps 1-3 on D itself: the unreduced reference.

1.  Cover D by a monomial.  M = X^alpha Y^beta Z^gamma has zero divisor
    series.monomial_orders(n, (alpha, beta, gamma)), read off the lines
    X, Y, Z = 0.  The oracle takes the M of smallest degree N whose zero
    divisor dominates D, ties broken by the smallest (alpha, beta, gamma).

2.  Model L(D) with forms h of degree N: h/M lies in L(D) exactly when
    ord_Pk(h) >= ord_Pk(M) - D_k at P1, P2 and P3 (vanishing orders along
    the curve branch).  Every f in L(D) arises this way, because f*M is a
    section of O_C(N) and smooth plane curves are projectively normal: all
    such sections are cut by degree-N forms.  So any covering N works, and
    a larger one (`n_extra`) gives an independent cross-check.

3.  Count modulo F.  F's leading monomial in lex order (X > Y > Z) is
    X^n Z with coefficient 1, so {F} is a Groebner basis and the degree-N
    monomials not divisible by X^n Z (the standard monomials) are a basis
    of the degree-N forms modulo F (Macaulay's basis theorem).  Forms are
    written over the standard monomials only.  Each vanishing condition is
    one coefficient of the expansion of h along a branch, linear in the
    form coefficients, so

        ell(D) = #standard monomials - rank of conditions,

    and the null space of the conditions is a basis of L(D).

In the chart at a point (series._CHART_EXPS) a monomial restricts to
t^i * w(t)^j, a shifted row of the powers of the chart coordinate w.  The
powers come from one order-by-order recurrence (series.chart_powers) and are
cached per point (`_chart_powers`).  `_expansions` is the one expansion
path: condition rows, the order of a single form (`order_of_form`), and h/M
at P3 when D.c <= 0: the coefficient of t^ord_P3(M) in h's expansion over
that in M's (`codes.build_CL`).

The module also hosts the m*P, shifted-pair and S_d formulas; the M_d, N_d
and S_d + e families are the pure-gap box corners (weierstrass.pure_gap_box).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .curves import CurveSpec
# solve_chart is unused here; benchmarks/tracing.py patches it on this module
from .series import (_CHART_EXPS, POINT_IDS, chart_powers, monomial_orders,
                     solve_chart)

__all__ = [
    "ThreePointDivisor", "RRSpace", "OracleError",
    "dim_L_oracle", "basis_L_oracle", "canonical_divisor",
    "dim_mP_formula", "dim_shifted_formula", "shifted_divisor",
    "dim_Sd", "Sd_divisor",
    "monomials_of_degree", "order_of_form",
]

DEGREE_CAP = 60


class OracleError(RuntimeError):
    """The oracle cannot handle the requested divisor (degree cap, ...)."""


@dataclass(frozen=True)
class ThreePointDivisor:
    """a*P1 + b*P2 + c*P3 with integer (possibly negative) coefficients."""
    a: int = 0
    b: int = 0
    c: int = 0

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c

    def coeffs(self) -> tuple:
        return (self.a, self.b, self.c)

    def __add__(self, other: "ThreePointDivisor") -> "ThreePointDivisor":
        return ThreePointDivisor(self.a + other.a, self.b + other.b,
                                 self.c + other.c)

    def __sub__(self, other: "ThreePointDivisor") -> "ThreePointDivisor":
        return ThreePointDivisor(self.a - other.a, self.b - other.b,
                                 self.c - other.c)

    def __neg__(self) -> "ThreePointDivisor":
        return ThreePointDivisor(-self.a, -self.b, -self.c)

    def scaled(self, m: int) -> "ThreePointDivisor":
        return ThreePointDivisor(m * self.a, m * self.b, m * self.c)

    def __repr__(self):
        return f"{self.a}*P1 + {self.b}*P2 + {self.c}*P3"


def canonical_divisor(n: int) -> ThreePointDivisor:
    """A canonical divisor: the curve section cut by Z^(n-2), of degree
    (n-2)(n+1) = 2g - 2."""
    return ThreePointDivisor(*monomial_orders(n, (0, 0, n - 2)))


def divisor_of_x(n: int) -> ThreePointDivisor:
    return ThreePointDivisor(*monomial_orders(n, (1, 0, -1)))


def divisor_of_y(n: int) -> ThreePointDivisor:
    return ThreePointDivisor(*monomial_orders(n, (0, 1, -1)))


@dataclass
class RRSpace:
    """An explicit Riemann-Roch space L(D).

    Basis functions are h / (X^alpha Y^beta Z^gamma) with (alpha, beta,
    gamma) = `denominator` and h the form of degree alpha + beta + gamma
    whose coefficients (over `monomials`, the standard monomials of that
    degree: none divisible by X^n Z) are stored per basis row.
    """
    divisor: ThreePointDivisor
    dimension: int
    denominator: tuple
    monomials: list
    basis: np.ndarray  # shape (dimension, len(monomials))

    def to_json(self) -> dict:
        return {
            "divisor": list(self.divisor.coeffs()),
            "dimension": self.dimension,
            "denominator": list(self.denominator),
            "monomials": [list(e) for e in self.monomials],
            "basis": self.basis.tolist(),
        }


def monomials_of_degree(N: int) -> list:
    """Canonical (lexicographic) ordering of exponent triples of degree N."""
    return [(e1, e2, N - e1 - e2)
            for e1 in range(N + 1) for e2 in range(N - e1 + 1)]


# ---------------------------------------------------------------------------
# cached chart-power expansions
# ---------------------------------------------------------------------------

def _chart_powers(curve: CurveSpec, point_id: str, maxdeg: int, prec: int):
    """Matrix whose row j <= maxdeg holds the first `prec` coefficients of
    w(t)^j, w the solved chart coordinate at the point (series.chart_powers).

    Cached per curve and point; a cache that is too small grows
    geometrically, which keeps long dimension sweeps cheap.
    """
    mat = curve._cache.get(("powers", point_id))
    if mat is None or mat.shape[0] <= maxdeg or mat.shape[1] < prec:
        if mat is not None:
            maxdeg = max(maxdeg, mat.shape[0] + 3)
            prec = max(prec, (mat.shape[1] * 3) // 2)
        mat = chart_powers(curve.field, curve.chart_poly(point_id), maxdeg,
                           prec)
        curve._cache[("powers", point_id)] = mat
    return mat


def _expansions(curve: CurveSpec, point_id: str, N: int, monos: list,
                length: int) -> np.ndarray:
    """Coefficients 0..length-1 of the expansion at the point of each
    degree-N monomial, one column per monomial: the monomial restricts to
    t^i * w^j, which is row j of the power cache shifted down by i."""
    out = curve.field.zeros((length, len(monos)))
    if not length:      # a fresh power cache needs at least one coefficient
        return out
    powers = _chart_powers(curve, point_id, N, length)
    for col, (i, j) in enumerate(map(_CHART_EXPS[point_id], monos)):
        if i < length:
            out[i:, col] = powers[j, :length - i]
    return out


def order_of_form(curve: CurveSpec, point_id: str, form: dict,
                  degree: int) -> int | None:
    """Vanishing order at P1, P2 or P3 of a form restricted to the curve.

    form maps (e1, e2, e3) -> coefficient code, each key of total degree
    `degree`; the order is the first nonzero coefficient of
    sum(c * t^i * w^j).  By Bezout a form not divisible by F meets the
    curve in (n+1)*degree points, so that many coefficients decide it;
    None means the form vanishes on the curve.
    """
    if point_id not in POINT_IDS:
        raise ValueError(f"unknown point id {point_id!r}")
    for e in form:
        if sum(e) != degree:
            raise ValueError(f"monomial {e} does not have degree {degree}")
    field = curve.field
    length = (curve.n + 1) * degree + 1
    rows = _expansions(curve, point_id, degree, list(form), length)
    coeffs = field.array(list(form.values())).reshape(-1, 1)
    nz = np.flatnonzero(linalg.matmul(field, rows, coeffs))
    return int(nz[0]) if nz.size else None


def _covering_exponents(n: int, D: ThreePointDivisor) -> tuple:
    """(alpha, beta, gamma) of the covering monomial of D: the smallest
    degree first, then the smallest triple."""
    a, b, c = D.coeffs()
    N = -(-(max(a, 0) + max(b, 0) + max(c, 0)) // (n + 1))
    while True:
        for alpha in range(N + 1):
            # P3 bounds beta below; P1, P2 and gamma >= 0 bound it above
            beta = max(0, -(-(c - alpha) // n))
            gamma = N - alpha - beta
            z1, z2, _ = monomial_orders(n, (alpha, beta, gamma))
            if gamma >= 0 and z1 >= a and z2 >= b:
                return alpha, beta, gamma
        N += 1


def _condition_matrix(curve: CurveSpec, D: ThreePointDivisor, n_extra: int):
    """Covering exponents, stacked vanishing conditions and the standard
    monomials of degree N (those not divisible by X^n Z).

    Block k holds coefficients 0..tau_k-1, tau_k = ord_Pk(M) - D_k, of the
    expansion at P_k of each standard monomial (`_expansions`).
    """
    n = curve.n
    alpha, beta, gamma = _covering_exponents(n, D)
    gamma += n_extra
    N = alpha + beta + gamma
    if N > DEGREE_CAP:
        raise OracleError(
            f"form degree {N} for {D!r} exceeds the cap {DEGREE_CAP}")
    zeros = monomial_orders(n, (alpha, beta, gamma))
    monos = [e for e in monomials_of_degree(N) if e[0] < n or e[2] == 0]
    A = np.concatenate([_expansions(curve, pid, N, monos, max(z - d, 0))
                        for pid, z, d in zip(POINT_IDS, zeros, D.coeffs())])
    return (alpha, beta, gamma), A, monos


def _class_of(n: int, D: ThreePointDivisor) -> int:
    """(a - (n-1)b) mod N, N = n^2 - n + 1: zero on div x and div y."""
    return (D.a - (n - 1) * D.b) % (n * n - n + 1)


def _representative(n: int, D: ThreePointDivisor) -> ThreePointDivisor:
    """The member of D's (degree, class) that the memo computes ell on.

    D - (d/3)(P1 + P2 + P3) = s*div x + t*div y with 3N*s and 3N*t the
    integers below (N the determinant of div x, div y on the P1, P2
    coefficients); subtracting the rounded (s, t) lands on the same divisor
    from every member of the class, since a member's (s, t) differ by
    integers.
    """
    N = n * n - n + 1
    a, b, d = D.a, D.b, D.degree
    s3 = 3 * ((n - 1) * b - a) - (n - 2) * d
    t3 = (2 * n - 1) * d - 3 * ((n - 1) * a + n * b)
    u, v = ((2 * w + 3 * N) // (6 * N) for w in (s3, t3))
    return D - divisor_of_x(n).scaled(u) - divisor_of_y(n).scaled(v)


def _ell(curve: CurveSpec, D: ThreePointDivisor, n_extra: int) -> int:
    """Standard monomials minus the rank of D's own conditions (steps 1-3)."""
    _, A, monos = _condition_matrix(curve, D, n_extra)
    return len(monos) - linalg.rank(curve.field, A)


def dim_L_oracle(curve: CurveSpec, D: ThreePointDivisor, *, n_extra: int = 0,
                 memo: bool = True) -> int:
    """ell(D) by exact linear algebra.  See the module docstring.

    The memo answers one (degree, class) from one representative (step 0).
    memo=False or n_extra > 0 builds the conditions of D itself; n_extra
    multiplies the covering monomial by Z^n_extra, and the answer must not
    change.
    """
    if D.degree < 0:
        return 0
    if not memo or n_extra:
        return _ell(curve, D, n_extra)
    table = curve._cache.setdefault("ell", {})
    key = (D.degree, _class_of(curve.n, D))
    if key not in table:
        table[key] = _ell(curve, _representative(curve.n, D), 0)
    return table[key]


def basis_L_oracle(curve: CurveSpec, D: ThreePointDivisor) -> RRSpace:
    """Explicit basis of L(D): the null space of the vanishing conditions
    over the standard monomials, so the functions h/M of its rows are a
    basis of L(D).  M is the covering monomial that dim_L_oracle uses for
    the same D.
    """
    exps, A, monos = _condition_matrix(curve, D, 0)
    basis = linalg.nullspace(curve.field, A)
    return RRSpace(divisor=D, dimension=len(basis), denominator=exps,
                   monomials=monos, basis=basis)


# ---------------------------------------------------------------------------
# closed-form dimension families (valid for 1 <= m <= 2g-2)
# ---------------------------------------------------------------------------

def _split_m(n: int, m: int):
    g2 = n * (n - 1) - 2  # 2g - 2
    if not 1 <= m <= g2:
        raise ValueError(f"m = {m} outside the proven range [1, {g2}]")
    return divmod(m, n - 1)  # m = d*(n-1) + r with 0 <= r <= n-2


def dim_mP_formula(n: int, m: int) -> int:
    """ell(m * Pk), the same at each of the three fundamental points."""
    d, r = _split_m(n, m)
    return (d * d - d + 2) // 2 + min(r, d)


SHIFT_VARIANTS = ("P2-P1", "P3-P2", "P1-P3")


def dim_shifted_formula(n: int, m: int) -> int:
    """ell(m*P - d*Q), the same for each cyclically shifted pair (P, Q)
    among (P2, P1), (P3, P2), (P1, P3); d is the quotient in
    m = d(n-1) + r."""
    d, r = _split_m(n, m)
    return (d - 1) * (d - 2) // 2 + min(r, d)


def shifted_divisor(n: int, m: int, variant: str) -> ThreePointDivisor:
    """m*P - d*Q for a variant "P-Q": (-d, m, 0), the P2-P1 divisor,
    rotated right by the variant's index in SHIFT_VARIANTS."""
    if variant not in SHIFT_VARIANTS:
        raise ValueError(f"variant must be one of {SHIFT_VARIANTS}")
    d, _ = _split_m(n, m)
    k = SHIFT_VARIANTS.index(variant)
    v = (-d, m, 0)
    return ThreePointDivisor(*v[3 - k:], *v[:3 - k])


def dim_Sd(n: int, i: int, j: int, k: int) -> int:
    """ell of the symmetric divisor S_d ~ d*(n*P1 + P2), d = i+j+k."""
    d = i + j + k
    if d < 0:
        return 0
    if d <= n - 2:
        return (d + 2) * (d + 1) // 2
    return (n + 1) * d - n * (n - 1) // 2 + 1


def Sd_divisor(n: int, i: int, j: int, k: int) -> ThreePointDivisor:
    return ThreePointDivisor(k * n + j, i * n + k, j * n + i)
