import functools
import itertools

import numpy as np
import pytest

from tripoint.catalog import REFERENCE_ROWS, builtin_curves
from tripoint.curves import (_SWEEP_CELLS, FUNDAMENTAL_POINTS, CurveError,
                             CurveSpec, eval_terms, rational_points_raw)
from tripoint.fields import embed, make_field
from tripoint.verification import validate_curve


def test_genus():
    f8 = make_field(2, 3)
    assert CurveSpec(f8, 3).genus == 3
    assert CurveSpec(f8, 4).genus == 6
    assert CurveSpec(f8, 5).genus == 10


def test_spec_validation():
    f8 = make_field(2, 3)
    with pytest.raises(CurveError):
        CurveSpec(f8, 2)
    with pytest.raises(CurveError):
        CurveSpec(f8, 4, {(1, 0, 0): 1})   # key sums to 1, need n-2 = 2
    # zero coefficients are dropped, G = 0 allowed
    assert CurveSpec(f8, 4, {(2, 0, 0): 0}).g_coeffs == {}


def test_point_normalization(c27):
    # odd characteristic, where scaling by -1 is not the identity: every
    # point has a leading 1, and the q - 1 scalings of the points are
    # pairwise distinct, so no point is a scaled copy of another
    f = c27.field
    pts = rational_points_raw(f, c27.F_terms)
    assert all(next(v for v in p if v) == 1 for p in pts)
    scaled = {tuple(f.mul(s, v) for v in p)
              for p in pts for s in range(1, f.q)}
    assert len(scaled) == len(pts) * (f.q - 1)


def test_eval_terms_F():
    # the Klein member over the prime field: F(1,1,1) = 3 = 1 in GF(2)
    f2 = make_field(2)
    c = CurveSpec(f2, 3)
    for pt in FUNDAMENTAL_POINTS:
        assert eval_terms(f2, c.F_terms, pt) == 0
    assert eval_terms(f2, c.F_terms, (1, 1, 1)) == 1


def test_point_counts(klein, c16, c27, record):
    assert len(klein.rational_points()) == 24
    assert len(c16.rational_points()) == 39
    assert len(c27.rational_points()) == 59
    assert len(record.rational_points()) == 115


def test_points_sorted_and_on_curve(c16):
    pts = c16.rational_points()
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert eval_terms(c16.field, c16.F_terms, p) == 0
    assert set(FUNDAMENTAL_POINTS) <= set(pts)
    # the sweep is memoised, but each call hands out its own list
    pts.clear()
    assert len(c16.rational_points()) == 39


def test_cyclic_symmetry_for_invariant_G(klein):
    # G = 0: (X:Y:Z) -> (Y:Z:X) maps the curve to itself
    field = klein.field
    pts = set(klein.rational_points())

    def normalised(p):
        inv = field.inv(next(v for v in p if v))
        return tuple(field.mul(v, inv) for v in p)

    assert {normalised((y, z, x)) for x, y, z in pts} == pts


def test_hasse_weil_sanity(klein, c16, c27, record):
    for curve in (klein, c16, c27, record):
        q = curve.field.q
        bound = q + 1 + 2 * curve.genus * np.sqrt(q)
        assert len(curve.rational_points()) <= int(np.ceil(bound))


def test_extension_points_contain_base(klein):
    big = klein.extension(2)
    base_lifted = set()
    for p in klein.rational_points():
        base_lifted.add(tuple(embed(klein.field, c, big.field) for c in p))
    ext_pts = set(big.rational_points())
    assert base_lifted <= ext_pts
    assert len(ext_pts) >= len(base_lifted)


def test_is_smooth_certifies_smooth_curves():
    # every bundled curve, and G = 0 over GF(8) for n = 3..8
    for curve in builtin_curves().values():
        assert curve.is_smooth(), curve
    for n in range(3, 9):
        assert CurveSpec(make_field(2, 3), n).is_smooth(), n


def _ones(*monomials):
    return dict.fromkeys(monomials, 1)


# singular members whose singular points lie only over GF(81) (q = 3) and
# GF(128) (q = 2): a sweep of F and its partials over GF(q^m) finds none
# for m <= 3 and m <= 6 respectively
_FAR_SINGULAR = (
    (3, 4, {(0, 1, 1): 1, (0, 2, 0): 1, (1, 0, 1): 2, (1, 1, 0): 1}),
    (3, 4, {(0, 0, 2): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2}),
    (3, 4, {(0, 1, 1): 2, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 0): 1}),
    (2, 5, _ones((0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0), (1, 1, 1),
                 (2, 1, 0))),
    (2, 5, _ones((0, 0, 3), (0, 2, 1), (1, 0, 2), (1, 1, 1), (2, 0, 1),
                 (3, 0, 0))),
    (2, 5, _ones((0, 3, 0), (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 1, 0),
                 (3, 0, 0))),
)


def test_is_smooth_flags_singular_members():
    # G = X + Y + Z over GF(2): singular at the rational point (1:1:1)
    assert not CurveSpec(make_field(2), 3,
                         _ones((1, 0, 0), (0, 1, 0), (0, 0, 1))).is_smooth()
    # G = 0 where p divides n^2 - n + 1
    for p, k, n in ((7, 1, 3), (13, 1, 4), (7, 2, 5)):
        assert (n * n - n + 1) % p == 0
        assert not CurveSpec(make_field(p, k), n).is_smooth(), (p, k, n)
    for q, n, g in _FAR_SINGULAR:
        assert not CurveSpec(make_field(q), n, g).is_smooth(), g


def test_validate_curve_reference(klein, c16):
    for curve in (klein, c16):
        results = validate_curve(curve)
        assert len(results) == 18
        assert all(r.passed for r in results)


def test_validate_curve_g_equals_x():
    # n = 3, G = X over GF(2): a legitimate family member; every check holds
    c = CurveSpec(make_field(2), 3, {(1, 0, 0): 1})
    assert all(r.passed for r in validate_curve(c))


def test_json_roundtrip(c27):
    data = c27.to_json()
    back = CurveSpec.from_json(data)
    assert back == c27
    assert back.genus == c27.genus


def test_raw_sweep_matches_curve_enumeration(klein):
    raw = rational_points_raw(klein.field, klein.F_terms)
    assert raw == klein.rational_points()


@pytest.mark.parametrize("row", [r for r in REFERENCE_ROWS
                                 if r.name in ("q27-n4", "q49-n4", "q81-n4")],
                         ids=lambda r: r.name)
def test_chunked_sweep_matches_one_chunk(monkeypatch, row):
    # the whole grid fits one default chunk here; chunks of 1 row, and of
    # 4 rows with a ragged last chunk (27, 49 and 81 are not multiples of 4)
    curve = row.curve()
    q = curve.field.q
    assert _SWEEP_CELLS >= q * q
    whole = rational_points_raw(curve.field, curve.F_terms)
    assert len(whole) == row.expected_points
    for rows in (1, 4):
        monkeypatch.setattr("tripoint.curves._SWEEP_CELLS", rows * q + q - 1)
        assert rational_points_raw(curve.field, curve.F_terms) == whole


class _MemoArith:
    """The scalar add/mul/pow of a Field, memoised so a full scan stays cheap."""

    def __init__(self, field):
        self.add = functools.cache(field.add)
        self.mul = functools.cache(field.mul)
        self.pow = functools.cache(field.pow)


_arith = functools.cache(_MemoArith)


def _vanish(field, polys, point):
    return all(eval_terms(_arith(field), t, point) == 0 for t in polys)


def _scalar_zeros(field, polys):
    """Reference sweep: every normalised point of P^2 (q^2 + q + 1 of them)
    where all the forms vanish, tested one point at a time with eval_terms."""
    q = field.q
    every = ([(0, 0, 1)] + [(0, 1, z) for z in range(q)]
             + [(1, y, z) for y in range(q) for z in range(q)])
    return [p for p in every if _vanish(field, polys, p)]


def _random_member(field, n, rng):
    monos = [e for e in itertools.product(range(n - 1), repeat=3)
             if sum(e) == n - 2]
    return CurveSpec(field, n, {e: int(rng.integers(field.q)) for e in monos})


def test_sweeps_match_scalar_scan():
    rng = np.random.default_rng(2024)
    refuted = 0
    for p, k in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        field = make_field(p, k)
        curves = [_random_member(field, n, rng) for n in (3, 4)]
        if p == 2:
            # G = X + Y + Z: singular at (1:1:1) in characteristic 2
            curves.append(CurveSpec(field, 3, {(1, 0, 0): 1, (0, 1, 0): 1,
                                               (0, 0, 1): 1}))
        for curve in curves:
            singular = False
            for m in (1, 2):
                cur = curve.extension(m)
                zeros = _scalar_zeros(cur.field, [cur.F_terms])
                got = rational_points_raw(cur.field, cur.F_terms)
                assert got == zeros, curve
                parts = list(cur.partials().values())
                singular |= any(_vanish(cur.field, parts, pt) for pt in zeros)
            # a singular point found by the sweep refutes smoothness
            assert not (singular and curve.is_smooth()), curve
            refuted += singular
        # forms outside the family: no Z-free term, so the whole line Z = 0
        # is a zero; and a form that is nonzero at (1:0:0)
        a, b = (int(v) for v in rng.integers(1, field.q, 2))
        for form in ({(2, 0, 1): 1, (1, 1, 1): a, (0, 0, 3): b},
                     {(3, 0, 0): 1, (0, 3, 0): a, (0, 0, 3): b,
                      (1, 1, 1): 1}):
            got = rational_points_raw(field, form)
            assert got == _scalar_zeros(field, [form])
    assert refuted
