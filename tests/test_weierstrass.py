import itertools

import pytest

from tripoint.weierstrass import (gap_index, gaps_closed_form, gaps_oracle,
                                  kim_image, kim_map, pure_gap_count_pair,
                                  pure_gap_count_triple, pure_gap_box,
                                  pure_gap_oracle, pure_gap_params,
                                  pure_gaps, pure_gaps_pair_via_homma_kim,
                                  semigroup_generators)

POINTS = ("P1", "P2", "P3")
CYCLIC = (("P1", "P2"), ("P2", "P3"), ("P3", "P1"))


def test_gap_sets_closed_form():
    assert gaps_closed_form(3) == (1, 2, 4)
    assert gaps_closed_form(4) == (1, 2, 3, 5, 6, 9)
    assert gaps_closed_form(5) == (1, 2, 3, 4, 6, 7, 8, 11, 12, 16)
    for n in range(3, 10):
        gaps = gaps_closed_form(n)
        g = len(gaps)
        assert g == n * (n - 1) // 2
        assert list(gaps) == sorted(set(gaps))   # increasing
        assert max(gaps) == 2 * g - 2 + 1 - (n - 2)  # (n-1)^2


def test_gap_index_roundtrip():
    for n in range(3, 9):
        for a in gaps_closed_form(n):
            i, j = gap_index(n, a)
            assert 1 <= i <= j <= n - 1
            assert (i - 1) * (n - 1) + j == a
    for bad in (0, 3, 5, 6):   # nongaps for n = 3
        with pytest.raises(ValueError):
            gap_index(3, bad)


def test_semigroup_complement_is_gap_set():
    for n in range(3, 8):
        gens = semigroup_generators(n)
        assert gens == tuple(s * (n - 1) + 1 for s in range(1, n + 1))
        g = n * (n - 1) // 2
        reach = {0}
        for v in range(1, 2 * g + 1):
            if any(v - s in reach for s in gens if v >= s):
                reach.add(v)
        complement = set(range(1, 2 * g + 1)) - reach
        assert complement == set(gaps_closed_form(n))


def test_gaps_oracle_matches(klein, c16, record):
    for curve in (klein, c16, record):
        want = gaps_closed_form(curve.n)
        for point in POINTS:
            assert gaps_oracle(curve, point) == want
    for bad in ("P4", "p1", ""):
        with pytest.raises(ValueError):
            gaps_oracle(klein, bad)


def test_kim_bijection_and_cube():
    for n in range(3, 13):
        gaps = gaps_closed_form(n)
        image = [kim_image(n, a) for a in gaps]
        assert sorted(image) == list(gaps)   # bijection on the gap set
        for a in gaps:
            assert kim_image(n, kim_image(n, kim_image(n, a))) == a


def test_kim_fixed_points():
    # beta(a) = a forces j = (2n-1)/3 and i = n-j: one fixed gap when
    # n = 2 mod 3, none otherwise
    for n in range(3, 13):
        fixed = [a for a in gaps_closed_form(n) if kim_image(n, a) == a]
        if n % 3 == 2:
            j = (2 * n - 1) // 3
            assert fixed == [(n - j - 1) * (n - 1) + j]
        else:
            assert fixed == []
    assert kim_image(5, 7) == 7
    assert kim_image(8, 19) == 19


def test_kim_map_witness_tables():
    # the constructor checks every witness pole divisor; run all pairs
    for n in (3, 4, 5, 6):
        for pair in CYCLIC:
            assert [(a, b) for a, b, _ in kim_map(n, pair)] == [
                (a, kim_image(n, a)) for a in gaps_closed_form(n)]
    with pytest.raises(ValueError):
        kim_map(4, ("P1", "P3"))


def test_pure_gap_pair_counts():
    assert [r.tuple_ for r in pure_gaps(3, 2)] == [(1, 1), (1, 2)]
    assert len(pure_gaps(4, 2)) == 10
    for n in range(3, 11):
        assert len(pure_gaps(n, 2)) == pure_gap_count_pair(n)
        # distinct tuples: the parametrization never collides
        assert len({r.tuple_ for r in pure_gaps(n, 2)}) == \
            pure_gap_count_pair(n)


def test_pair_set_matches_inversion_description():
    for n in range(3, 11):
        via_kim = pure_gaps_pair_via_homma_kim(n)
        assert via_kim == [r.tuple_ for r in pure_gaps(n, 2)]


def test_pure_gap_triple_counts():
    assert [r.tuple_ for r in pure_gaps(3, 3)] == [(1, 1, 1)]
    assert len(pure_gaps(4, 3)) == 11
    assert len(pure_gaps(5, 3)) == 57
    for n in range(3, 11):
        recs = pure_gaps(n, 3)
        assert len(recs) == pure_gap_count_triple(n)
        for r in recs:
            assert all(c % (n - 1) != 0 for c in r.tuple_)


def test_pure_gap_params_walk_the_box_domain():
    # the walk is every tuple of the cube [-1, n]^points that pure_gap_box
    # accepts, in lexicographic order
    for n in range(3, 9):
        for points in (2, 3):
            accepted = []
            for params in itertools.product(range(-1, n + 1), repeat=points):
                try:
                    pure_gap_box(n, params)
                except ValueError:
                    continue
                accepted.append(params)
            assert list(pure_gap_params(n, points)) == accepted, (n, points)
    for points in (1, 4):
        with pytest.raises(ValueError):
            pure_gap_params(5, points)


def test_pure_pair_oracle_cyclic_pairs(klein):
    # the same integer pairs are pure at each cyclic ordered pair; a
    # reversed pair gets the transposed set
    records = pure_gaps(3, 2)
    for pair in CYCLIC:
        for rec in records:
            assert pure_gap_oracle(klein, rec.tuple_, pair)
    assert not pure_gap_oracle(klein, (1, 2), ("P1", "P3"))
    assert pure_gap_oracle(klein, (2, 1), ("P1", "P3"))
    assert not pure_gap_oracle(klein, (2, 2), ("P1", "P2"))
    assert not pure_gap_oracle(klein, (4, 4), ("P1", "P2"))
    # one entry is the gap test at one point: 1 is a gap for n = 3, 3 not
    assert pure_gap_oracle(klein, (1,))
    assert not pure_gap_oracle(klein, (3,))
    # a repeated, unknown or missing point name, or a pair given with a
    # triple, is an error, never an answer about some other divisor
    for tuple_, pair in (((1, 2), ("P1", "P1")), ((1, 2), ("P1", "P4")),
                         ((1, 2), ("P1",)), ((1, 2), ("P1", "P2", "P3")),
                         ((1, 1, 1), ("P1", "P2")), ((), None),
                         ((1, 1, 1, 1), None)):
        with pytest.raises(ValueError):
            pure_gap_oracle(klein, tuple_, pair)


def test_pure_pair_dimensions(klein, c16):
    from tripoint.riemann_roch import ThreePointDivisor, dim_L_oracle
    for curve in (klein, c16):
        for rec in pure_gaps(curve.n, 2):
            a, b = rec.tuple_
            got = dim_L_oracle(curve, ThreePointDivisor(a, b, 0))
            assert got == rec.predicted_dimension
            assert dim_L_oracle(
                curve, ThreePointDivisor(a - 1, b - 1, 0)) == got


def test_pure_triple_oracle(klein, c16):
    assert pure_gap_oracle(klein, (1, 1, 1))
    assert not pure_gap_oracle(klein, (2, 2, 2))
    for rec in pure_gaps(4, 3):
        assert pure_gap_oracle(c16, rec.tuple_)


def test_one_point_pure_gap_is_flatness(klein, c16, record):
    # at one point the pure-gap test is ell(mP) = ell((m-1)P), for every m
    # from -1 to 2g + 1, negative degrees and nongaps included
    from tripoint.riemann_roch import ThreePointDivisor, dim_L_oracle
    for curve in (klein, c16, record):
        for k, point in enumerate(POINTS):
            def ell(m):
                return dim_L_oracle(curve, ThreePointDivisor(
                    *(m if i == k else 0 for i in range(3))))
            for m in range(-1, 2 * curve.genus + 2):
                assert pure_gap_oracle(curve, (m,), (point,)) == \
                    (ell(m) == ell(m - 1)), (curve, point, m)
