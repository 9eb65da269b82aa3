import numpy as np
import pytest

from tripoint.riemann_roch import (DEGREE_CAP, Md_divisor, Nd_divisor,
                                   OracleError, SHIFT_VARIANTS, Sd_divisor,
                                   ThreePointDivisor, basis_L_oracle,
                                   canonical_divisor, dim_L_oracle, dim_Md_Nd,
                                   dim_mP_formula, dim_Sd, dim_Sd_plus_e,
                                   dim_shifted_formula, divisor_of_x,
                                   divisor_of_y, shifted_divisor)
from tripoint.series import OrderBound, expand_at, order_of_form

P1, P2, P3 = (ThreePointDivisor(1, 0, 0), ThreePointDivisor(0, 1, 0),
              ThreePointDivisor(0, 0, 1))


def test_divisor_arithmetic():
    D = ThreePointDivisor(3, -1, 2)
    assert D.degree == 4
    assert (D + P2).coeffs() == (3, 0, 2)
    assert (D - D).coeffs() == (0, 0, 0)
    assert (-D).coeffs() == (-3, 1, -2)
    assert D.scaled(2).degree == 8


def test_canonical_divisor():
    assert canonical_divisor(3).coeffs() == (3, 1, 0)
    assert canonical_divisor(4).coeffs() == (8, 2, 0)
    assert canonical_divisor(5).coeffs() == (15, 3, 0)
    for n in range(3, 9):
        assert canonical_divisor(n).degree == n * (n - 1) - 2


def test_formula_examples():
    assert dim_mP_formula(4, 3) == 1
    assert dim_mP_formula(4, 5) == 2
    assert dim_mP_formula(5, 10) == 4
    assert dim_shifted_formula(4, 3, "P2-P1") == 0
    assert dim_shifted_formula(4, 8, "P2-P1") == 2
    assert dim_shifted_formula(5, 9, "P3-P2") == 1
    assert dim_Md_Nd(4, 1, 1) == 1
    assert dim_Md_Nd(4, 2, 1) == 3
    assert dim_Md_Nd(5, 2, 2) == 5
    assert dim_Sd(4, -1, 0, 0) == 0
    assert dim_Sd(4, 1, 1, 0) == 6
    assert dim_Sd(4, 1, 1, 1) == 10   # d = n-1 switches to (n+1)d - g + 1
    assert dim_Sd_plus_e(4, 0, 0, 0, 2) == 1
    assert dim_Sd_plus_e(4, 1, 1, 0, 0) == 6
    assert dim_Sd_plus_e(5, 1, 0, 0, 2) == 3


def test_formula_range_checks():
    with pytest.raises(ValueError):
        dim_mP_formula(4, 0)
    with pytest.raises(ValueError):
        dim_mP_formula(4, 11)   # 2g-2 = 10 is the last proven value
    with pytest.raises(ValueError):
        dim_mP_formula(4, 3, point=4)
    with pytest.raises(ValueError):
        dim_shifted_formula(4, 3, "P1-P2")
    with pytest.raises(ValueError):
        dim_Md_Nd(4, 1, 3)   # i + j = n not allowed
    with pytest.raises(ValueError):
        dim_Md_Nd(4, 0, 2)
    with pytest.raises(ValueError):
        dim_Sd_plus_e(4, 1, 0, 0, 0)   # d + e != n - 2


def test_oracle_base_cases(klein):
    assert dim_L_oracle(klein, ThreePointDivisor(0, 0, 0)) == 1
    assert dim_L_oracle(klein, ThreePointDivisor(2, -1, -2)) == 0
    assert dim_L_oracle(klein, ThreePointDivisor(-1, 0, 0)) == 0


def test_oracle_canonical_dimension(klein, c16, c27, record):
    for curve in (klein, c16, c27, record):
        W = canonical_divisor(curve.n)
        assert dim_L_oracle(curve, W) == curve.genus


def test_oracle_principal_divisors(klein, c16):
    # div(x) and div(y) are principal, so l = 1; same for their negatives
    for curve in (klein, c16):
        for D in (divisor_of_x(curve.n), divisor_of_y(curve.n)):
            assert D.degree == 0
            assert dim_L_oracle(curve, D) == 1
            assert dim_L_oracle(curve, -D) == 1


def test_oracle_spec_values(c16):
    assert dim_L_oracle(c16, ThreePointDivisor(3, 0, 0)) == 1
    assert dim_L_oracle(c16, ThreePointDivisor(5, 0, 0)) == 2
    assert dim_L_oracle(c16, ThreePointDivisor(0, 4, 0)) == 2


def test_oracle_matches_formulas_n3(klein):
    n = 3
    for m in range(1, 5):
        want = dim_mP_formula(n, m)
        for k, point in enumerate((P1, P2, P3), start=1):
            assert dim_L_oracle(klein, point.scaled(m)) == want
            assert dim_mP_formula(n, m, k) == want
        for variant in SHIFT_VARIANTS:
            D = shifted_divisor(n, m, variant)
            assert dim_L_oracle(klein, D) == dim_shifted_formula(n, m, variant)
    assert dim_L_oracle(klein, Md_divisor(n, 1, 1)) == dim_Md_Nd(n, 1, 1)
    assert dim_L_oracle(klein, Nd_divisor(n, 1, 1)) == dim_Md_Nd(n, 1, 1)


def test_oracle_matches_Sd(klein):
    n = 3
    for i in range(-2, 3):
        for j in range(-2, 3):
            for k in range(-2, 3):
                if not -2 <= i + j + k <= n:
                    continue
                D = Sd_divisor(n, i, j, k)
                assert dim_L_oracle(klein, D) == dim_Sd(n, i, j, k), (i, j, k)


def test_riemann_roch_identity_sample(klein):
    rng = np.random.default_rng(7)
    W = canonical_divisor(klein.n)
    g = klein.genus
    for _ in range(12):
        a, b, c = (int(v) for v in rng.integers(-2 * g, 2 * g + 1, size=3))
        D = ThreePointDivisor(a, b, c)
        lhs = dim_L_oracle(klein, D) - dim_L_oracle(klein, W - D)
        assert lhs == D.degree + 1 - g


def test_riemann_roch_identity_record(record):
    # includes divisors with a large negative P3 part, such as
    # 13P1 + 7P2 - 20P3, and their complements K - D
    rng = np.random.default_rng(1)
    W = canonical_divisor(record.n)
    g = record.genus
    divisors = [ThreePointDivisor(13, 7, -20)] + [
        ThreePointDivisor(*(int(v) for v in rng.integers(-2 * g, 2 * g + 1, 3)))
        for _ in range(25)]
    for D in divisors:
        lhs = dim_L_oracle(record, D) - dim_L_oracle(record, W - D)
        assert lhs == D.degree + 1 - g, D


def test_degree_cap(klein):
    with pytest.raises(OracleError):
        dim_L_oracle(klein, ThreePointDivisor(300, 0, 0))
    assert dim_L_oracle(klein, ThreePointDivisor(300, 0, 0),
                        degree_cap=110) == 300 + 1 - klein.genus


def test_memoization(klein):
    D = ThreePointDivisor(2, 2, 1)
    val = dim_L_oracle(klein, D)
    assert klein._cache["ell"][D.coeffs()] == val
    key2 = ThreePointDivisor(1, 1, 1)
    dim_L_oracle(klein, key2, memo=False)
    # memo=False computes without touching the cache entry for that divisor
    dim_L_oracle(klein, key2, n_extra=1)
    assert dim_L_oracle(klein, key2) == dim_L_oracle(klein, key2, n_extra=2)


def _divisor_constraint_ok(curve, space):
    """div(h) - div(M) + D >= 0 at P1, P2, P3; M the stored denominator."""
    n = curve.n
    N = sum(space.denominator)
    prec = max(2 * n, N * n + 2 * curve.genus + 8)
    locals_ = {p: expand_at(curve, p, prec) for p in ("P1", "P2", "P3")}
    ordM = [order_of_form(curve, locals_[pid], {space.denominator: 1}, N)
            for pid in ("P1", "P2", "P3")]
    for row in space.basis:
        form = {e: int(c) for e, c in zip(space.monomials, row) if c}
        assert form, "zero basis row"
        for idx, pid in enumerate(("P1", "P2", "P3")):
            o = order_of_form(curve, locals_[pid], form, N)
            if isinstance(o, OrderBound):
                o = o.at_least
            if o - ordM[idx] < -space.divisor.coeffs()[idx]:
                return False
    return True


def test_basis_oracle(klein, c16):
    trivial = basis_L_oracle(klein, ThreePointDivisor(0, 0, 0))
    assert trivial.dimension == 1
    negative = basis_L_oracle(klein, ThreePointDivisor(-2, 0, 1))
    assert negative.dimension == 0 and len(negative.basis) == 0

    cases = [(klein, ThreePointDivisor(3, 1, 0)),      # canonical, dim g = 3
             (klein, ThreePointDivisor(2, 3, -1)),
             (c16, ThreePointDivisor(5, 0, 0)),        # dim 2, spans {1, x}
             (c16, ThreePointDivisor(0, 4, 0)),        # dim 2, spans {1, y/x}
             (c16, ThreePointDivisor(4, 3, 5))]        # pole at P3, dim 7
    for curve, D in cases:
        space = basis_L_oracle(curve, D)
        assert space.dimension == dim_L_oracle(curve, D)
        assert len(space.basis) == space.dimension
        assert _divisor_constraint_ok(curve, space)
    js = space.to_json()
    assert js["dimension"] == space.dimension
    assert len(js["basis"]) == space.dimension
