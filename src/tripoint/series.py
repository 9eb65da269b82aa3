"""Chart equations of the curve at its three fundamental points.

In the affine chart at each fundamental point (see _CHART_EXPS) the curve
equation has the shape

    w + t^n + t*w^n + t*w*(...) = 0

so every term but w itself carries a power of t.  Write W_j[k] for the t^k
coefficient of w(t)^j and c_ab for the coefficient of t^a w^b.  The t^k
coefficient of the equation and the product w^j = w * w^(j-1) give

    w_k = W_1[k] = -sum c_ab * W_b[k - a]        over the terms with a >= 1,
    W_j[k] = sum_{i=1..k} w_i * W_(j-1)[k - i]   for j >= 2,

so column k of the powers comes from the columns before it, row 1 first.
chart_powers fills the powers of the branch w(t) = -t^n + higher order
order by order with this recurrence and never needs a pivot choice.
Coefficient arrays are numpy arrays of field codes, low order first.
Riemann-Roch and vanishing orders are built on these in riemann_roch.py.
monomial_orders is the one table of the orders of X, Y and Z at the three
points; every divisor of a monomial is read from it.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

__all__ = ["SeriesError", "POINT_IDS", "chart_powers", "solve_chart",
           "monomial_orders"]

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
    """Unsolvable chart equation."""


# ---------------------------------------------------------------------------
# chart solving
# ---------------------------------------------------------------------------

def chart_powers(field: Field, chart_poly: dict, degree: int,
                 precision: int) -> np.ndarray:
    """Matrix whose row j <= degree holds the first `precision` coefficients
    of w(t)^j, w(t) with w(0) = 0 the solution of P(t, w) = 0.

    chart_poly maps (t_exp, w_exp) -> code.  The coefficient of w must be 1
    and every other term must have t-exponent >= 1 (see the module
    docstring); the residual P(t, w) mod t^precision is checked to vanish.
    """
    if chart_poly.get((0, 1)) != 1:
        raise SeriesError("chart equation is not monic in w at the origin")
    flat = sorted(e for e in chart_poly if e[0] < 1 and e != (0, 1))
    if flat:
        raise SeriesError(f"chart terms {flat} have t-exponent 0")
    T = field.tables()
    a, b = np.array(list(chart_poly), dtype=np.intp).T
    c = field.array(list(chart_poly.values()))
    rest = a >= 1
    ra, rb, rnc = a[rest], b[rest], T.neg(c[rest])
    rows = max(degree, int(b.max()))
    # column shift + k holds t^k; the zero columns in front of it are the
    # t^(k - a) with k < a
    shift = int(a.max())
    W = field.zeros((rows + 1, shift + precision))
    if precision:
        W[0, shift] = 1
    for col in range(shift + 1, shift + precision):
        W[1, col] = T.sum(T.mul(rnc, W[rb, col - ra]), 0)
        W[2:, col] = T.sum(T.mul(W[1, shift + 1:col + 1],
                                 W[1:rows, shift:col][:, ::-1]), 1)
    cols = np.arange(shift, shift + precision) - a[:, None]
    if T.sum(T.mul(c[:, None], W[b[:, None], cols]), 0).any():
        raise SeriesError("the chart recurrence left a residual")
    return W[:degree + 1, shift:].copy()


def solve_chart(field: Field, chart_poly: dict, precision: int) -> np.ndarray:
    """Coefficients of the solution w(t) of P(t, w) = 0 with w(0) = 0, to
    the given precision: row 1 of `chart_powers`."""
    return chart_powers(field, chart_poly, 1, precision)[1]


def monomial_orders(n: int, e: tuple) -> tuple:
    """Orders at (P1, P2, P3) of X^e1 Y^e2 Z^e3, exponents of any sign:
    X = 0 cuts the curve in n*P2 + P3, Y = 0 in n*P3 + P1, Z = 0 in
    n*P1 + P2."""
    e1, e2, e3 = e
    return (e2 + n * e3, n * e1 + e3, e1 + n * e2)
