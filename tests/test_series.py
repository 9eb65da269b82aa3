import hashlib

import numpy as np
import pytest

from tripoint.catalog import builtin_curves
from tripoint.curves import CurveSpec
from tripoint.fields import make_field
from tripoint.riemann_roch import _chart_powers, order_of_form
from tripoint.series import (SeriesError, chart_powers, monomial_orders,
                             solve_chart)

F8 = make_field(2, 3)
POINTS = ("P1", "P2", "P3")

# SHA-256 of the int64 bytes of _chart_powers(curve, point, 25, 130), the
# 26 x 130 power matrix, as the Newton-iteration solver built it
_POWERS_SHA256 = {
    "q27-n4": ("afad2150d1f5e8c366bc9810c05df42e39a9af7e3e3f9c5ea0fe0c908eba1f1c",
               "89597ac7c62f019523df13cbeff33d6ed15df598ed4909bc1723d5dc88e26b7c",
               "af71bfd13fc02ba17b69b69fad883658b987acfd936e1a45a81258ac5e8e70fc"),
    "q16-n4": ("4dc1bf7f45222042a0b2682c2017aa8c3380aef040d9086bf7d00686c51396cf",
               "1772e802b1a5d74df435815c7a92c3f485893482009f206bc58bb4d423f15391",
               "4f395a7626f4148725a7a855e67c112e436da50eca9927e09309d8938dc63a9f"),
    "q128-n4": ("68a34f28f94c6a632acb06ead18d35e42ba19b4a83eb43e19024fad3070e67c1",
                "c15df600a72ccc7efde57ab39e8caa6e886dd3f0432537ada9d3309932cd6a92",
                "14202cab113c31558435e002455244e54dc87dd663610a361785138c59e29604"),
    "q81-n4": ("3a664f9dcd85eb802bae71c9eab56e289fc40d03d806aded679be870bb861d62",
               "4b5fffd7a309f2d2992c6b3a27ccb618ca5025d0768a9be37bb40ac602bf7f48",
               "4aa17942edc8e761833729ad5763da57dff5eba479fff07d24efeda34bd6ebd4"),
    "q49-n4": ("9ccf3ea6d1368e817493c578c4499f9f87f5a435521831c22f3f0618f6862ac6",
               "732ea9b7d4ad06c4155f82f7b0bacd775872ff8cc5215b1abb52912c2a245180",
               "6a7ba45f4ebd0ecadb6cb2a17a80de7ac1cb4913a191555c57f147ca1f5230d8"),
    "q49-n5-record": (
        "c8b118f692fd5ffba92a2f74835f65e56baf11bdb87018f6189e28ecc675a640",
        "f996a124bda451d5a04c7246b7736732c302e13740323b415a2de25e6d0e3d7c",
        "873fdfef0cdb184f2067eb647e5539f3215cf5135549df60a73925858ee36f4c"),
    # G = 0 is symmetric under the cyclic shift of X, Y, Z
    "q8-n3": ("c088ba9935b12e66c46d9b653e79186ed5b92e4eeec057c8dcd46cc171e07f4f",)
    * 3,
    "q8-n6": ("299226968187d7e7daaae4969fd4c65fb518ea302008d082fed25cb1989813c9",)
    * 3,
    "q8-n7": ("7f05fe56d79091e4e2be9896648b7bbc69794c137e236cb83355742b29df3a32",)
    * 3,
    "q8-n8": ("785f26d3a65ab8952bdb0bb62fcb95eea600a61c36ada81b753932a55069f77f",)
    * 3,
}


def _scalar_product(field, a, b, length):
    """First `length` coefficients of a * b by the schoolbook double loop."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        for j, y in enumerate(b[:length - i]):
            out[i + j] = field.add(out[i + j], field.mul(int(x), int(y)))
    return out


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
                assert list(rows[j, :40]) == _scalar_product(
                    curve.field, rows[j - 1], rows[1], 40)
                assert np.flatnonzero(rows[j, :40])[0] == n * j


def test_chart_powers_pinned():
    # fresh curves, so every matrix is built at exactly this size
    curves = builtin_curves()
    for n in (6, 7, 8):
        curves[f"q8-n{n}"] = CurveSpec(F8, n)
    assert set(curves) == set(_POWERS_SHA256)
    for name, curve in curves.items():
        for point, want in zip(POINTS, _POWERS_SHA256[name]):
            mat = _chart_powers(curve, point, 25, 130)
            assert mat.shape == (26, 130)
            got = hashlib.sha256(mat.astype(np.int64).tobytes()).hexdigest()
            assert got == want, (name, point)


def test_chart_powers_match_scalar_reference():
    # row j = row j-1 * row 1 and row 1 solves the chart equation, for the
    # family's charts with random G and for random charts of the same shape
    rng = np.random.default_rng(14)
    length = 24
    for p, k in ((7, 1), (2, 3), (2, 4), (3, 3), (7, 2)):
        field = make_field(p, k)
        polys = []
        for n in (3, 4, 5):
            G = {(e1, e2, n - 2 - e1 - e2): int(rng.integers(field.q))
                 for e1 in range(n - 1) for e2 in range(n - 1 - e1)}
            curve = CurveSpec(field, n, G)
            polys += [curve.chart_poly(point) for point in POINTS]
        for _ in range(3):
            poly = {(int(rng.integers(1, 4)), int(rng.integers(0, 7))):
                    int(rng.integers(1, field.q)) for _ in range(4)}
            polys.append({**poly, (0, 1): 1})
        for poly in polys:
            rows = chart_powers(field, poly, 6, length)
            assert rows.shape == (7, length)
            assert list(rows[0]) == [1] + [0] * (length - 1)
            for j in range(2, 7):
                assert list(rows[j]) == _scalar_product(
                    field, rows[j - 1], rows[1], length), (poly, j)
            residual = [0] * length
            for (a, b), c in poly.items():
                for t in range(a, length):
                    residual[t] = field.add(
                        residual[t], field.mul(c, int(rows[b, t - a])))
            assert not any(residual), poly
            assert list(solve_chart(field, poly, length)) == list(rows[1])


def test_chart_powers_refuses_unsolvable_charts():
    chart = {(0, 1): 1, (3, 0): 1, (1, 3): 1}
    for field in (F8, make_field(7)):
        with pytest.raises(SeriesError, match="not monic"):
            chart_powers(field, {**chart, (0, 1): 2}, 3, 10)
        with pytest.raises(SeriesError, match="t-exponent 0"):
            chart_powers(field, {**chart, (0, 2): 1}, 3, 10)
        with pytest.raises(SeriesError, match="not monic"):
            solve_chart(field, {(3, 0): 1, (1, 3): 1}, 10)


def _xy_orders(n, u, v):
    """monomial_orders of x^u y^v = X^u Y^v Z^-(u+v)."""
    return monomial_orders(n, (u, v, -u - v))


def test_monomial_orders_closed_form():
    for n in (3, 4, 5, 9):
        assert _xy_orders(n, 1, 0) == (-n, n - 1, 1)
        assert _xy_orders(n, 0, 1) == (-(n - 1), -1, n)
        assert _xy_orders(n, 0, 0) == (0, 0, 0)
        # div_infinity(x * y^(n-1)) = (n(n-1)+1) P1
        assert _xy_orders(n, 1, n - 1)[0] == -(n * (n - 1) + 1)
        rng = np.random.default_rng(n)
        for _ in range(25):
            u, v = (int(w) for w in rng.integers(-3 * n, 3 * n + 1, 2))
            assert sum(_xy_orders(n, u, v)) == 0


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


def test_monomial_orders_match_series(klein, c16, record):
    rng = np.random.default_rng(7)
    for curve in (klein, c16, record):
        n = curve.n
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):   # the rows X, Y, Z
            got = tuple(order_of_form(curve, point, {e: 1}, 1)
                        for point in POINTS)
            assert got == monomial_orders(n, e)
        for _ in range(6):
            u, v = (int(w) for w in rng.integers(-3 * n, 3 * n + 1, 2))
            got = tuple(_valuation(curve, point, u, v) for point in POINTS)
            assert got == _xy_orders(n, u, v)


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
