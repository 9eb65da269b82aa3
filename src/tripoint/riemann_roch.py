"""Riemann-Roch spaces for divisors supported on the three fundamental points.

The oracle computes ell(D) for D = a*P1 + b*P2 + c*P3 without any closed
form, by exact linear algebra over the base field:

1.  Cover D by a monomial.  X = 0 cuts the curve in n*P2 + P3, Y = 0 in
    n*P3 + P1 and Z = 0 in n*P1 + P2, so M = X^alpha Y^beta Z^gamma has
    zero divisor (beta + n*gamma, n*alpha + gamma, n*beta + alpha).  The
    oracle takes the M of smallest degree N whose zero divisor dominates D,
    ties broken by the smallest (alpha, beta, gamma).

2.  Model L(D) with forms h of degree N: h/M lies in L(D) exactly when
    ord_Pk(h) >= ord_Pk(M) - D_k at P1, P2 and P3 (vanishing orders along
    the curve branch).  Every f in L(D) arises this way, because f*M is a
    section of O_C(N) and smooth plane curves are projectively normal: all
    such sections are cut by degree-N forms.  So any covering N works, and
    a larger one (`n_extra`) gives an independent cross-check.

3.  Count.  Each vanishing condition is one coefficient of the Newton
    expansion of h along a branch, linear in the form coefficients.  Forms
    divisible by the curve equation F are exactly the kernel of h -> h/M:

        ell(D) = (#monomials - rank of conditions) - C(N-n+1, 2).

In the chart at a point (series._CHART_EXPS) a monomial restricts to
t^i * w(t)^j, so condition rows are shifted slices of cached powers of the
solved chart coordinate w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .curves import CurveSpec
from .series import _CHART_EXPS, POINT_IDS, conv_trunc, solve_chart

__all__ = [
    "ThreePointDivisor", "RRSpace", "OracleError",
    "dim_L_oracle", "basis_L_oracle", "canonical_divisor",
    "dim_mP_formula", "dim_shifted_formula", "shifted_divisor",
    "dim_Md_Nd", "Md_divisor", "Nd_divisor",
    "dim_Sd", "Sd_divisor", "dim_Sd_plus_e",
    "monomials_of_degree",
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
    """A canonical divisor: the curve section cut by Z^(n-2).

    Z = 0 cuts n*P1 + P2 and deg = (n-2)(n+1) = 2g - 2.
    """
    return ThreePointDivisor((n - 2) * n, n - 2, 0)


def divisor_of_x(n: int) -> ThreePointDivisor:
    return ThreePointDivisor(-n, n - 1, 1)


def divisor_of_y(n: int) -> ThreePointDivisor:
    return ThreePointDivisor(-(n - 1), -1, n)


@dataclass
class RRSpace:
    """An explicit Riemann-Roch space L(D).

    Basis functions are h / (X^alpha Y^beta Z^gamma) with (alpha, beta,
    gamma) = `denominator` and h the form of degree alpha + beta + gamma
    whose coefficients (over `monomials`) are stored per basis row.
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
            "basis": [[int(c) for c in row] for row in self.basis],
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
    w(t)^j, w the solved chart coordinate at the point.

    Cached per curve and point; a cache that is too small grows
    geometrically, which keeps long dimension sweeps cheap.
    """
    mat = curve._cache.get(("powers", point_id))
    if mat is None or mat.shape[0] <= maxdeg or mat.shape[1] < prec:
        if mat is not None:
            maxdeg = max(maxdeg, mat.shape[0] + 3)
            prec = max(prec, (mat.shape[1] * 3) // 2)
        field = curve.field
        w = solve_chart(field, curve.chart_poly(point_id), prec)
        mat = field.zeros((maxdeg + 1, prec))
        mat[0, 0] = 1
        for j in range(1, maxdeg + 1):
            mat[j] = conv_trunc(field, mat[j - 1], w, prec)
        curve._cache[("powers", point_id)] = mat
    return mat


def _covering_exponents(n: int, D: ThreePointDivisor, z_only: bool) -> tuple:
    """(alpha, beta, gamma) of the covering monomial of D.

    The smallest degree first, then the smallest triple; with z_only the
    monomial is a power of Z, which does not vanish at P3 (needs D.c <= 0).
    """
    a, b, c = D.coeffs()
    if z_only:
        return 0, 0, max(0, -(-a // n), b)
    N = -(-(max(a, 0) + max(b, 0) + max(c, 0)) // (n + 1))
    while True:
        for alpha in range(N + 1):
            # P3 bounds beta below; P1, P2 and gamma >= 0 bound it above
            beta = max(0, -(-(c - alpha) // n))
            gamma = N - alpha - beta
            if gamma >= 0 and beta + n * gamma >= a and n * alpha + gamma >= b:
                return alpha, beta, gamma
        N += 1


def _condition_matrix(curve: CurveSpec, D: ThreePointDivisor, n_extra: int,
                      degree_cap: int, z_only: bool = False):
    """Covering exponents, stacked vanishing conditions and the monomials.

    Block k holds coefficients 0..tau_k-1, tau_k = ord_Pk(M) - D_k, of the
    expansion at P_k of each degree-N monomial t^i * w^j: row j of the
    power cache shifted by i.
    """
    n = curve.n
    alpha, beta, gamma = _covering_exponents(n, D, z_only)
    gamma += n_extra
    N = alpha + beta + gamma
    if N > degree_cap:
        raise OracleError(
            f"form degree {N} for {D!r} exceeds the cap {degree_cap}")
    zeros = (beta + n * gamma, n * alpha + gamma, n * beta + alpha)
    taus = [max(z - d, 0) for z, d in zip(zeros, D.coeffs())]
    monos = monomials_of_degree(N)
    A = curve.field.zeros((sum(taus), len(monos)))
    row0 = 0
    for pid, tau in zip(POINT_IDS, taus):
        if tau == 0:
            continue
        powers = _chart_powers(curve, pid, N, tau)
        exps = _CHART_EXPS[pid]
        for col, e in enumerate(monos):
            i, j = exps(e)
            if i < tau:
                A[row0 + i: row0 + tau, col] = powers[j, :tau - i]
        row0 += tau
    return (alpha, beta, gamma), A, monos


def dim_L_oracle(curve: CurveSpec, D: ThreePointDivisor, *, n_extra: int = 0,
                 degree_cap: int = DEGREE_CAP, memo: bool = True) -> int:
    """ell(D) by exact linear algebra.  See the module docstring.

    n_extra multiplies the covering monomial by Z^n_extra; the answer must
    not change.
    """
    if D.degree < 0:
        return 0
    key = D.coeffs()
    if memo and n_extra == 0:
        got = curve._cache.setdefault("ell", {}).get(key)
        if got is not None:
            return got
    exps, A, monos = _condition_matrix(curve, D, n_extra, degree_cap)
    N = sum(exps)
    dim = (len(monos) - linalg.rank(curve.field, A)
           - math.comb(max(N - curve.n + 1, 0), 2))
    if dim < 0:
        raise OracleError(f"negative dimension computed for {D!r}")
    if memo and n_extra == 0:
        curve._cache["ell"][key] = dim
    return dim


def basis_L_oracle(curve: CurveSpec, D: ThreePointDivisor, *,
                   degree_cap: int = DEGREE_CAP) -> RRSpace:
    """Explicit basis of L(D): forms modulo multiples of the curve equation.

    The returned rows span a complement of F * (degree N-n-1 forms) inside
    the solution space of the vanishing conditions, so the corresponding
    functions h/M are a basis of L(D).  When D.c <= 0 the denominator M is
    a power of Z, so every basis function is defined at P3.
    """
    field = curve.field
    exps, A, monos = _condition_matrix(curve, D, 0, degree_cap,
                                       z_only=D.c <= 0)
    N = sum(exps)
    n = curve.n
    null = linalg.nullspace(field, A)
    col_of = {e: i for i, e in enumerate(monos)}
    inc = linalg.IncrementalBasis(field, len(monos))
    for mu in monomials_of_degree(N - n - 1):
        row = field.zeros(len(monos))
        for e, c in curve.F_terms.items():
            row[col_of[(e[0] + mu[0], e[1] + mu[1], e[2] + mu[2])]] = c
        if not inc.add(row):
            raise OracleError("multiples of the curve equation are dependent")
    basis_rows = [row for row in null if inc.add(row)]
    expect = len(null) - math.comb(max(N - n + 1, 0), 2)
    if len(basis_rows) != expect:
        raise OracleError("quotient basis size mismatch")
    basis = np.array(basis_rows, dtype=null.dtype) if basis_rows else \
        field.zeros((0, len(monos)))
    return RRSpace(divisor=D, dimension=len(basis_rows), denominator=exps,
                   monomials=monos, basis=basis)


# ---------------------------------------------------------------------------
# closed-form dimension families (valid for 1 <= m <= 2g-2)
# ---------------------------------------------------------------------------

def _split_m(n: int, m: int):
    g2 = n * (n - 1) - 2  # 2g - 2
    if not 1 <= m <= g2:
        raise ValueError(f"m = {m} outside the proven range [1, {g2}]")
    return divmod(m, n - 1)  # m = d*(n-1) + r with 0 <= r <= n-2


def dim_mP_formula(n: int, m: int, point: int = 1) -> int:
    """ell(m * Pk), the same at each of the three fundamental points."""
    if point not in (1, 2, 3):
        raise ValueError(f"point must be 1, 2 or 3, got {point}")
    d, r = _split_m(n, m)
    return (d * d - d + 2) // 2 + min(r, d)


SHIFT_VARIANTS = ("P2-P1", "P3-P2", "P1-P3")


def dim_shifted_formula(n: int, m: int, variant: str) -> int:
    """ell(m*P - d*Q) for the cyclically shifted pairs.

    variant picks (P, Q) among (P2, P1), (P3, P2), (P1, P3); d is the
    quotient in m = d(n-1) + r.  The value is variant independent.
    """
    if variant not in SHIFT_VARIANTS:
        raise ValueError(f"variant must be one of {SHIFT_VARIANTS}")
    d, r = _split_m(n, m)
    return (d - 1) * (d - 2) // 2 + min(r, d)


def shifted_divisor(n: int, m: int, variant: str) -> ThreePointDivisor:
    d, _ = _split_m(n, m)
    if variant == "P2-P1":
        return ThreePointDivisor(-d, m, 0)
    if variant == "P3-P2":
        return ThreePointDivisor(0, -d, m)
    if variant == "P1-P3":
        return ThreePointDivisor(m, 0, -d)
    raise ValueError(f"variant must be one of {SHIFT_VARIANTS}")


def _check_ij(n: int, i: int, j: int):
    if i < 1 or j < 1 or not 2 <= i + j <= n - 1:
        raise ValueError(f"need i, j >= 1 with 2 <= i+j <= n-1, got {(i, j)}")


def dim_Md_Nd(n: int, i: int, j: int) -> int:
    """Common dimension of the two-point families M_d and N_d below."""
    _check_ij(n, i, j)
    d = i + j
    return (d - 1) * (d - 2) // 2 + i


def Md_divisor(n: int, i: int, j: int) -> ThreePointDivisor:
    _check_ij(n, i, j)
    return ThreePointDivisor(i * n - (i + j), j * (n - 1), 0)


def Nd_divisor(n: int, i: int, j: int) -> ThreePointDivisor:
    _check_ij(n, i, j)
    return ThreePointDivisor((i - 1) * n, (j - 1) * n + i - 1, 0)


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


def dim_Sd_plus_e(n: int, i: int, j: int, k: int, e: int) -> int:
    """ell(S_d + e*(P1+P2+P3)) in the balanced case d + e = n - 2."""
    d = i + j + k
    if d + e != n - 2 or d < 0:
        raise ValueError(f"need d + e = n - 2 with d >= 0, got d={d}, e={e}")
    return (d + 2) * (d + 1) // 2
