import numpy as np
import pytest

from tripoint.fields import make_field
from tripoint.riemann_roch import _chart_powers, order_of_form
from tripoint.series import (SeriesError, conv_trunc, monomial_valuations,
                             series_inverse, solve_chart)

F8 = make_field(2, 3)
POINTS = ("P1", "P2", "P3")


def _form_product(field, f, g):
    out = {}
    for e, a in f.items():
        for h, b in g.items():
            key = tuple(x + y for x, y in zip(e, h))
            out[key] = field.add(out.get(key, 0), field.mul(a, b))
    return {e: c for e, c in out.items() if c}


def _random_form(rng, field, d):
    form = {(e1, e2, d - e1 - e2): int(rng.integers(1, field.q))
            for e1 in range(d + 1) for e2 in range(d - e1 + 1)
            if rng.random() < 0.4}
    return form or {(0, 0, d): 1}


def _valuation(curve, point, u, v):
    # x^u y^v = X^u Y^v / Z^(u+v) as a quotient of two monomials of one degree
    pos, neg = (lambda s: max(s, 0)), (lambda s: max(-s, 0))
    num = (pos(u), pos(v), neg(u + v))
    den = (neg(u), neg(v), pos(u + v))
    return (order_of_form(curve, point, {num: 1}, sum(num))
            - order_of_form(curve, point, {den: 1}, sum(den)))


def test_series_basics():
    a = F8.array([1, 2, 3])
    b = F8.array([4, 5])
    full = conv_trunc(F8, a, b, 8)
    assert len(full) == 8 and not full[4:].any()
    assert list(conv_trunc(F8, a, b, 2)) == list(full[:2])
    with pytest.raises(SeriesError):
        series_inverse(F8, F8.array([0, 1, 1]), 6)
    with pytest.raises(SeriesError):
        series_inverse(F8, F8.zeros(0), 6)


def test_series_ring_ops():
    # (1 + t) * (1 + t)^-1 = 1, whatever the characteristic
    for field in (F8, make_field(7), make_field(3, 2)):
        one_plus_t = field.array([1, 1])
        inv = series_inverse(field, one_plus_t, 12)
        prod = conv_trunc(field, one_plus_t, inv, 12)
        assert prod[0] == 1 and not prod[1:].any()


def test_valuation_additivity(klein, c16):
    # ord(f * g) = ord(f) + ord(g) for forms that do not vanish on the curve
    rng = np.random.default_rng(0)
    for curve in (klein, c16):
        field = curve.field
        for _ in range(8):
            df, dg = (int(d) for d in rng.integers(1, 4, 2))
            f, g = _random_form(rng, field, df), _random_form(rng, field, dg)
            fg = _form_product(field, f, g)
            for point in POINTS:
                a = order_of_form(curve, point, f, df)
                b = order_of_form(curve, point, g, dg)
                assert order_of_form(curve, point, fg, df + dg) == a + b


def test_pow(klein, c16):
    # row j of the power matrix is w^j, and w = -t^n + O(t^(n+1))
    for curve in (klein, c16):
        n = curve.n
        for point in POINTS:
            rows = _chart_powers(curve, point, 5, 40)
            assert rows[0, 0] == 1 and not rows[0, 1:40].any()
            for j in range(1, 6):
                assert list(rows[j, :40]) == list(
                    conv_trunc(curve.field, rows[j - 1], rows[1], 40))
                assert np.flatnonzero(rows[j, :40])[0] == n * j


def test_monomial_valuations_closed_form():
    for n in (3, 4, 5, 9):
        assert monomial_valuations(n, 1, 0) == (-n, n - 1, 1)
        assert monomial_valuations(n, 0, 1) == (-(n - 1), -1, n)
        assert monomial_valuations(n, 0, 0) == (0, 0, 0)
        # div_infinity(x * y^(n-1)) = (n(n-1)+1) P1
        assert monomial_valuations(n, 1, n - 1)[0] == -(n * (n - 1) + 1)
        rng = np.random.default_rng(n)
        for _ in range(25):
            u, v = (int(w) for w in rng.integers(-3 * n, 3 * n + 1, 2))
            assert sum(monomial_valuations(n, u, v)) == 0


def test_order_of_form_xy_valuations(klein, c16, record):
    for curve in (klein, c16, record):
        n = curve.n
        want = {"P1": (-n, -(n - 1)), "P2": (n - 1, -1), "P3": (1, n)}
        for point, xy in want.items():
            assert (_valuation(curve, point, 1, 0),
                    _valuation(curve, point, 0, 1)) == xy


def test_solve_chart_klein_branch(klein):
    # at P3 the chart equation is w + t^3 + t w^3 = 0, so w = -t^3 + O(t^5);
    # over GF(8) the sign disappears
    w = solve_chart(klein.field, klein.chart_poly("P3"), 12)
    assert list(w[:5]) == [0, 0, 0, 1, 0]
    with pytest.raises(ValueError):
        order_of_form(klein, "P7", {(1, 0, 0): 1}, 1)


def test_monomial_valuations_match_series(klein, c16, record):
    rng = np.random.default_rng(7)
    for curve in (klein, c16, record):
        n = curve.n
        for _ in range(6):
            u, v = (int(w) for w in rng.integers(-3 * n, 3 * n + 1, 2))
            got = tuple(_valuation(curve, point, u, v) for point in POINTS)
            assert got == monomial_valuations(n, u, v)


def test_order_of_form_lines(klein, c16, record):
    # Z cuts n P1 + P2, X cuts n P2 + P3, Y cuts n P3 + P1
    for curve in (klein, c16, record):
        n = curve.n
        lines = {
            (0, 0, 1): {"P1": n, "P2": 1, "P3": 0},   # Z
            (1, 0, 0): {"P1": 0, "P2": n, "P3": 1},   # X
            (0, 1, 0): {"P1": 1, "P2": 0, "P3": n},   # Y
        }
        for mono, want in lines.items():
            for point, order in want.items():
                assert order_of_form(curve, point, {mono: 1}, 1) == order


def test_order_of_form_z_powers(klein, c16, record):
    for curve in (klein, c16, record):
        n = curve.n
        for N in (2, 3, 4):
            want = {"P1": N * n, "P2": N, "P3": 0}
            for point, order in want.items():
                got = order_of_form(curve, point, {(0, 0, N): 1}, N)
                assert got == order


def test_order_of_form_curve_multiple(klein, c16, record):
    # F and its multiples restrict to zero on the curve
    for curve in (klein, c16, record):
        deg = curve.n + 1
        times_x = {(e[0] + 1, e[1], e[2]): c for e, c in curve.F_terms.items()}
        for point in POINTS:
            assert order_of_form(curve, point, curve.F_terms, deg) is None
            assert order_of_form(curve, point, times_x, deg + 1) is None
