"""Chart equations of the curve at its three fundamental points.

In the affine chart at each fundamental point (see _CHART_EXPS) the curve
equation has the shape

    w + t^n + t*w^n + t*w*(...) = 0

so dP/dw(0,0) = 1.  solve_chart finds the branch w(t) = -t^n + higher order
by Newton iteration with doubling precision and never needs a pivot
choice.  Coefficient arrays are plain numpy vectors of field codes, low
order first; conv_trunc and series_inverse are the truncated product and
inverse on them.  Riemann-Roch and vanishing orders are built on these in
riemann_roch.py.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

__all__ = ["SeriesError", "POINT_IDS", "conv_trunc", "series_inverse",
           "solve_chart", "monomial_valuations"]

POINT_IDS = ("P1", "P2", "P3")

# chart data per distinguished point: which projective coordinate is
# normalized to 1, and which exponent pair (t-exp, w-exp) a monomial
# X^e1 Y^e2 Z^e3 picks up in that chart.
#   P1: t = Y/X, w = Z/X      P2: t = Z/Y, w = X/Y      P3: t = X/Z, w = Y/Z
_CHART_EXPS = {
    "P1": lambda e: (e[1], e[2]),
    "P2": lambda e: (e[2], e[0]),
    "P3": lambda e: (e[0], e[1]),
}


class SeriesError(ValueError):
    """Bad series operation (non-unit inverse, unsolvable chart, ...)."""


def conv_trunc(field: Field, a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """First `length` coefficients of the product of coefficient arrays."""
    out = field.zeros(length)
    la = min(len(a), length)
    for i in range(la):
        ai = int(a[i])
        if ai == 0:
            continue
        seg = min(len(b), length - i)
        if seg <= 0:
            break
        out[i:i + seg] = field.vadd(out[i:i + seg],
                                    field.vmul(field.array(ai), b[:seg]))
    return out


def series_inverse(field: Field, a: np.ndarray, length: int) -> np.ndarray:
    """Coefficients of 1/a to the given length; a[0] must be nonzero."""
    if len(a) == 0 or int(a[0]) == 0:
        raise SeriesError("cannot invert a series with zero constant term")
    x = field.zeros(1)
    x[0] = field.inv(int(a[0]))
    m = 1
    two = field.from_int(2)
    while m < length:
        m = min(2 * m, length)
        e = conv_trunc(field, a[:m], x, m)
        t = field.vneg(e)
        t[0] = field.add(int(t[0]), two)
        x = conv_trunc(field, x, t, m)
    return x[:length]


# ---------------------------------------------------------------------------
# chart solving
# ---------------------------------------------------------------------------

def solve_chart(field: Field, chart_poly: dict, precision: int) -> np.ndarray:
    """Solve P(t, w) = 0 for w(t) with w(0) = 0, coefficient of w equal 1.

    chart_poly maps (t_exp, w_exp) -> code.  Returns the coefficient array of
    w to the requested precision and verifies the residual vanishes.
    """
    if chart_poly.get((0, 1), 0) != 1:
        raise SeriesError("chart equation is not monic in w at the origin")
    max_w = max(e[1] for e in chart_poly)
    # A[j] = coefficient polynomial of w^j, as a dense array in t
    A = []
    for j in range(max_w + 1):
        terms = {e[0]: c for e, c in chart_poly.items() if e[1] == j}
        arr = field.zeros(precision)
        for texp, c in terms.items():
            if texp < precision:
                arr[texp] = field.add(int(arr[texp]), c)
        A.append(arr)

    def eval_poly(coeffs, w, length):
        res = coeffs[-1][:length].copy()
        for j in range(len(coeffs) - 2, -1, -1):
            res = conv_trunc(field, res, w, length)
            res = field.vadd(res, coeffs[j][:length])
        return res

    # derivative coefficients dP/dw: Aw[j] = (j+1) * A[j+1]
    Aw = [field.vmul(field.array(field.from_int(j + 1)), A[j + 1])
          for j in range(max_w)]

    w = field.zeros(precision)
    m = 1
    while m < precision:
        m = min(2 * m, precision)
        pw = eval_poly(Aw, w[:m], m)
        res = eval_poly(A, w[:m], m)
        corr = conv_trunc(field, res, series_inverse(field, pw, m), m)
        w[:m] = field.vsub(w[:m], corr)
    residual = eval_poly(A, w, precision)
    if np.any(residual):
        raise SeriesError("Newton iteration failed to kill the residual")
    return w


def monomial_valuations(n: int, u: int, v: int) -> tuple:
    """Valuations of x^u y^v at (P1, P2, P3) for the degree-(n+1) family.

    Derived from div(x) = -n P1 + (n-1) P2 + P3 and
    div(y) = -(n-1) P1 - P2 + n P3; the three valuations always sum to 0.
    """
    return (-u * n - v * (n - 1), u * (n - 1) - v, u + v * n)
