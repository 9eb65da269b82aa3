from math import comb

import numpy as np
import pytest

from tripoint import linalg
from tripoint.claims import FAMILIES, dimension_claims
from tripoint.curves import CurveSpec
from tripoint.fields import make_field
from tripoint.riemann_roch import (DEGREE_CAP, POINT_IDS, OracleError,
                                   SHIFT_VARIANTS, Sd_divisor,
                                   ThreePointDivisor, basis_L_oracle,
                                   canonical_divisor, dim_L_oracle,
                                   dim_mP_formula, dim_Sd,
                                   dim_shifted_formula, divisor_of_x,
                                   divisor_of_y, monomials_of_degree,
                                   order_of_form, shifted_divisor,
                                   _class_of, _covering_exponents,
                                   _expansions, _representative)
from tripoint.series import monomial_orders
from tripoint.weierstrass import pure_gap_box, pure_gap_dimension, pure_gaps

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
    assert dim_shifted_formula(4, 3) == 0
    assert dim_shifted_formula(4, 8) == 2
    assert dim_shifted_formula(5, 9) == 1
    assert pure_gap_dimension(4, (1, 1)) == 1
    assert pure_gap_dimension(4, (2, 1)) == 3
    assert pure_gap_dimension(5, (2, 2)) == 5
    assert dim_Sd(4, -1, 0, 0) == 0
    assert dim_Sd(4, 1, 1, 0) == 6
    assert dim_Sd(4, 1, 1, 1) == 10   # d = n-1 switches to (n+1)d - g + 1
    assert pure_gap_dimension(4, (0, 0, 0)) == 1
    assert pure_gap_dimension(4, (1, 1, 0)) == 6
    assert pure_gap_dimension(5, (1, 0, 0)) == 3


def test_formula_range_checks():
    with pytest.raises(ValueError):
        dim_mP_formula(4, 0)
    with pytest.raises(ValueError):
        dim_mP_formula(4, 11)   # 2g-2 = 10 is the last proven value
    with pytest.raises(ValueError):
        pure_gap_dimension(4, (1,))   # neither a pair nor a triple
    # a pair needs i, j >= 1 and i + j <= n - 1; a triple entries >= 0 and
    # d <= n - 2 (the empty box of the S_d + e claims at d = n - 2)
    for params in ((3, 3), (0, 0), (0, 2), (2, 2), (-1, 0, 0), (1, 1, 1),
                   (3, 0, 0)):
        for formula in (pure_gap_box, pure_gap_dimension):
            with pytest.raises(ValueError):
                formula(4, params)


def test_dimension_claims_ranges():
    # each family spans the widest range any check uses
    for n in (3, 4, 5):
        claims = dimension_claims(n)
        assert tuple(dict.fromkeys(c.family for c in claims)) == FAMILIES
        g = n * (n - 1) // 2
        mp = [c for c in claims if c.family == "mP"]
        assert len(mp) == 3 * (2 * g - 2)
        span = range(-2, n + 3)
        sd = [c.params for c in claims if c.family == "Sd"]
        assert sd == sorted(sd, key=lambda t: (sum(t), t[0], t[1]))
        assert set(sd) == {(i, j, k) for i in span for j in span for k in span
                           if -2 <= i + j + k <= n}
        if n == 4:
            assert len(sd) == 254
        # a subset keeps FAMILIES order, whatever order it is asked in
        assert dimension_claims(n, ("Sd+e", "mP")) == \
            [c for c in claims if c.family in ("mP", "Sd+e")]


def test_box_corner_claims_match_reference_formulas():
    # the M_d, N_d and S_d + e claims and the pure-gap record dimensions,
    # against the divisor and dimension formulas written out by hand
    for n in range(3, 11):
        want = []
        for i in range(1, n):
            for j in range(1, n - i):
                d = i + j
                dim = (d - 1) * (d - 2) // 2 + i
                want += [("MdNd", f"M({i},{j})",
                          (i * n - (i + j), j * (n - 1), 0), dim, ("M", i, j)),
                         ("MdNd", f"N({i},{j})",
                          ((i - 1) * n, (j - 1) * n + i - 1, 0), dim,
                          ("N", i, j))]
        for d in range(0, n - 1):
            e = n - 2 - d
            for i in range(0, d + 1):
                for j in range(0, d - i + 1):
                    k = d - i - j
                    want.append(("Sd+e", f"S({i},{j},{k})+{e}",
                                 (k * n + j + e, i * n + k + e, j * n + i + e),
                                 (d + 1) * (d + 2) // 2, (i, j, k, e)))
        got = [(c.family, c.label, c.divisor.coeffs(), c.dimension, c.params)
               for c in dimension_claims(n, ("MdNd", "Sd+e"))]
        assert got == want
        for rec in pure_gaps(n, 2):
            d, i = rec.params["d"], rec.params["i"]
            assert rec.predicted_dimension == (d - 1) * (d - 2) // 2 + i
        for rec in pure_gaps(n, 3):
            d = rec.params["d"]
            assert rec.predicted_dimension == (d + 1) * (d + 2) // 2


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
        for point in (P1, P2, P3):
            assert dim_L_oracle(klein, point.scaled(m)) == want
        for variant in SHIFT_VARIANTS:
            D = shifted_divisor(n, m, variant)
            assert dim_L_oracle(klein, D) == dim_shifted_formula(n, m)
    for claim in dimension_claims(n, ("MdNd",)):
        assert dim_L_oracle(klein, claim.divisor) == claim.dimension


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


def test_memoization(klein):
    # one entry per (degree, class), class = (a - (n-1)b) mod n^2 - n + 1
    D = ThreePointDivisor(2, 2, 1)
    val = dim_L_oracle(klein, D)
    assert klein._cache["ell"][(5, (2 - 2 * 2) % 7)] == val
    entries = len(klein._cache["ell"])
    moved = D + divisor_of_x(3).scaled(2) - divisor_of_y(3)
    assert dim_L_oracle(klein, moved) == val
    assert len(klein._cache["ell"]) == entries
    key2 = ThreePointDivisor(1, 1, 1)
    dim_L_oracle(klein, key2, memo=False)
    # memo=False computes without touching the cache entry for that divisor
    dim_L_oracle(klein, key2, n_extra=1)
    assert dim_L_oracle(klein, key2) == dim_L_oracle(klein, key2, n_extra=2)


def _member(n, d, cls):
    """The unreduced member (a, d - a, 0) of class cls in degree d."""
    N = n * n - n + 1
    a = next(a for a in range(N) if (a - (n - 1) * (d - a) - cls) % N == 0)
    return ThreePointDivisor(a, d - a, 0)


def test_reduced_memo_matches_unreduced(klein, c16, record):
    # every (degree, class) with 0 <= d <= 2g - 2: the memo answer, from
    # the class representative, against the conditions of a member itself
    for curve in (klein, c16, record):
        n, g = curve.n, curve.genus
        for d in range(2 * g - 1):
            for cls in range(n * n - n + 1):
                D = _member(n, d, cls)
                assert dim_L_oracle(curve, D) == \
                    dim_L_oracle(curve, D, memo=False), (curve, D)


def test_representative_is_a_class_function():
    # the representative depends on (n, d, class) only, and its cover
    # degree exceeds ceil(d / (n+1)) by at most 2 (measured: 1 at n = 3,
    # 2 at n = 4..8)
    shifts = ((1, 0), (0, 1), (-3, 2), (5, -7), (-11, -4))
    for n in range(3, 9):
        divx, divy = divisor_of_x(n), divisor_of_y(n)
        for d in range(n * (n - 1) - 1):
            for cls in range(n * n - n + 1):
                D = _member(n, d, cls)
                R = _representative(n, D)
                assert (R.degree, _class_of(n, R)) == (d, cls)
                for u, v in shifts:
                    moved = D + divx.scaled(u) + divy.scaled(v)
                    assert _representative(n, moved) == R, (n, D, u, v)
                excess = sum(_covering_exponents(n, R)) - -(-d // (n + 1))
                assert excess <= 2, (n, D, R)


def test_reduction_reaches_past_degree_cap(c16):
    # low-degree divisors with large coefficients: their own covers need
    # form degree 100 and 68, above DEGREE_CAP, their representatives do not
    W = canonical_divisor(c16.n)
    g = c16.genus
    for D, want in ((ThreePointDivisor(400, -390, 0), 5),
                    (ThreePointDivisor(-300, 150, 155), 2)):
        assert dim_L_oracle(c16, D) == want
        assert dim_L_oracle(c16, D) - dim_L_oracle(c16, W - D) == \
            D.degree + 1 - g
        with pytest.raises(OracleError):
            dim_L_oracle(c16, D, memo=False)


def _divisor_constraint_ok(curve, space):
    """div(h) - div(M) + D >= 0 at P1, P2, P3; M the stored denominator."""
    N = sum(space.denominator)
    ordM = [order_of_form(curve, pid, {space.denominator: 1}, N)
            for pid in ("P1", "P2", "P3")]
    for row in space.basis:
        form = {e: int(c) for e, c in zip(space.monomials, row) if c}
        assert form, "zero basis row"
        for idx, pid in enumerate(("P1", "P2", "P3")):
            o = order_of_form(curve, pid, form, N)
            assert o is not None, "basis form vanishes on the curve"
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


# ---------------------------------------------------------------------------
# forms modulo the curve equation: standard monomials against the quotient
# of all degree-N forms by the multiples of F
# ---------------------------------------------------------------------------

def _seeded_divisors(curve, count, seed):
    rng = np.random.default_rng(seed)
    g = curve.genus
    return [ThreePointDivisor(*(int(v) for v in rng.integers(-g, 2 * g + 1, 3)))
            for _ in range(count)]


def _all_forms_count(curve, D, n_extra):
    """ell(D) over every degree-N monomial, F-multiples subtracted:
    C(N+2, 2) - rank(conditions) - C(N-n+1, 2)."""
    n = curve.n
    alpha, beta, gamma = _covering_exponents(n, D)
    gamma += n_extra
    N = alpha + beta + gamma
    zeros = monomial_orders(n, (alpha, beta, gamma))
    monos = monomials_of_degree(N)
    A = np.concatenate([_expansions(curve, pid, N, monos, max(z - d, 0))
                        for pid, z, d in zip(POINT_IDS, zeros, D.coeffs())])
    return (comb(N + 2, 2) - linalg.rank(curve.field, A)
            - comb(max(N - n + 1, 0), 2))


def _quotient_curves(klein, c16, c27, record):
    gf8 = make_field(2, 3)
    return [klein, c16, c27, record] + [CurveSpec(gf8, n) for n in (6, 7, 8)]


def test_standard_monomials_match_all_forms_count(klein, c16, c27, record):
    for seed, curve in enumerate(_quotient_curves(klein, c16, c27, record)):
        for D in _seeded_divisors(curve, 12, seed):
            if D.degree < 0:
                continue
            for n_extra in (0, 1, 2):
                assert dim_L_oracle(curve, D, n_extra=n_extra, memo=False) \
                    == _all_forms_count(curve, D, n_extra), (curve, D, n_extra)


def test_basis_is_over_standard_monomials(klein, c16, c27, record):
    checked = 0
    for seed, curve in enumerate(_quotient_curves(klein, c16, c27, record)):
        n = curve.n
        for D in _seeded_divisors(curve, 8, seed):
            space = basis_L_oracle(curve, D)
            N = sum(space.denominator)
            quotient = comb(max(N - n + 1, 0), 2)
            assert len(space.monomials) == comb(N + 2, 2) - quotient
            assert not any(e[0] >= n and e[2] >= 1 for e in space.monomials)
            # independent modulo F: stacked with every F-multiple of degree
            # N, the basis adds exactly its own dimension to the rank
            full = monomials_of_degree(N)
            col = {e: i for i, e in enumerate(full)}
            rows = curve.field.zeros((space.dimension + quotient, len(full)))
            rows[:space.dimension, [col[e] for e in space.monomials]] = \
                space.basis
            for r, mu in enumerate(monomials_of_degree(N - n - 1),
                                   space.dimension):
                for e, c in curve.F_terms.items():
                    rows[r, col[(e[0] + mu[0], e[1] + mu[1], e[2] + mu[2])]] = c
            assert linalg.rank(curve.field, rows) == \
                space.dimension + quotient, (curve, D)
            checked += quotient > 0
    assert checked
