import pickle
import tracemalloc

import numpy as np
import pytest

from tripoint.fields import (CODE_DTYPE, Field, FieldError, default_modulus,
                             embed, is_irreducible, make_field)


def test_construction_and_defaults():
    assert make_field(2, 4).q == 16
    assert make_field(3, 3).q == 27
    # low-degree-first lexicographic choice
    assert make_field(2, 3).modulus == (1, 0, 1, 1)        # 1 + x^2 + x^3
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    with pytest.raises(FieldError):
        make_field(4)
    with pytest.raises(FieldError):
        make_field(6, 1)
    with pytest.raises(FieldError):
        make_field(2, 0)


def test_explicit_modulus():
    # x^2 + 1 over GF(7): -1 is a non-residue mod 7, so irreducible
    f = make_field(7, 2, (1, 0, 1))
    assert f.q == 49
    # x^2 + 1 over GF(5) factors as (x+2)(x+3)
    with pytest.raises(FieldError):
        make_field(5, 2, (1, 0, 1))
    with pytest.raises(FieldError):
        make_field(2, 3, (1, 1))     # wrong degree
    with pytest.raises(FieldError):
        make_field(2, 3, (1, 1, 1, 2))  # not monic after reduction


def test_validation_messages_and_cache():
    # make_field and Field check the same way, with the same messages
    for args, text in (((4,), "characteristic must be prime, got 4"),
                       ((2.0, 1), "characteristic must be prime, got 2.0"),
                       ((2, 0), "extension degree must be a positive int, "
                                "got 0"),
                       ((2, 3, (1, 1)), "modulus must be monic of degree 3, "
                                        "got (1, 1)"),
                       ((5, 2, (1, 0, 1)), "modulus (1, 0, 1) is reducible "
                                           "over GF(5)")):
        for build in (make_field, Field):
            with pytest.raises(FieldError) as info:
                build(*args)
            assert str(info.value) == text, (build, args)
    # one cached object per (p, k, modulus), the modulus reduced mod p
    f = make_field(3, 3)
    assert make_field(3, 3) is f and Field.from_json(f.to_json()) is f
    assert make_field(3, 3, [c + 3 for c in f.modulus]) is f
    assert make_field(7, 2, (8, 0, 1)) is make_field(7, 2, (1, 0, 1))


def test_irreducibility_small_cases():
    assert is_irreducible((1, 1, 1), 2)        # x^2+x+1
    assert not is_irreducible((1, 0, 1), 2)    # x^2+1 = (x+1)^2
    assert not is_irreducible((0, 0, 1), 2)    # x^2
    assert is_irreducible((1, 2, 0, 1), 3)


def test_prime_field_arithmetic():
    f7 = make_field(7)
    assert f7.mul(3, 5) == 1
    assert f7.add(4, 5) == 2
    assert f7.inv(3) == 5
    with pytest.raises(FieldError):
        f7.inv(0)


def test_multiplicative_order():
    f = make_field(2, 4)
    for a in range(1, 16):
        assert f.pow(a, 15) == 1


def _agrees(got, scalar, *operands):
    """got holds the scalar op applied to each element of the broadcast
    operands, in the code dtype and the broadcast shape."""
    ops = np.broadcast_arrays(*operands)
    want = [scalar(*xs) for xs in zip(*(x.ravel().tolist() for x in ops))]
    assert got.dtype == CODE_DTYPE and got.shape == ops[0].shape
    assert got.ravel().tolist() == want


def test_scalar_vs_vector_agreement():
    # every operand shape the callers use, on int16 codes: 0-d by vector in
    # both orders, column by row and a 3-D stack.  From GF(729) on, code * q
    # overflows int16, so an index formed in the code dtype reads wrong cells
    rng = np.random.default_rng(3)
    for (p, k) in ((2, 4), (3, 2), (7, 1), (5, 2), (3, 6), (3, 7), (2, 12)):
        f = make_field(p, k)
        a, b = (f.array(rng.integers(0, f.q, 300)) for _ in range(2))
        s = f.array(rng.integers(1, f.q))
        stack = a[:60].reshape(3, 4, 5)
        for x, y in ((a, b), (s, a), (a, s), (a[:20, None], b[None, 20:40]),
                     (stack, b[:15].reshape(3, 1, 5))):
            _agrees(f.vadd(x, y), f.add, x, y)
            _agrees(f.vmul(x, y), f.mul, x, y)
        for x in (a, stack):
            _agrees(f.vneg(x), f.neg, x)
            nz = np.where(x == 0, f.array(1), x)
            _agrees(f.vinv(nz), f.inv, nz)


def _check_tables(f, a, b):
    """Every table entry at the index pairs (a, b) against scalar Field
    arithmetic, and the dtypes of every table."""
    T = f.tables()
    for name in ("MUL", "NMUL", "NEG", "INV", "EXP"):
        assert getattr(T, name).dtype == CODE_DTYPE, name
    assert T.LOG.dtype == np.int64
    assert T.MUL.shape == T.NMUL.shape == (f.q, f.q)
    assert T.NEG.shape == T.INV.shape == (f.q,)
    if f.p == 2:
        assert T.ADD is None
    else:
        assert T.ADD.dtype == CODE_DTYPE and T.ADD.shape == (f.q, f.q)
    add = f.vadd(a, b)
    mul, nmul = T.MUL[a, b], T.NMUL[a, b]
    for x, y, s, m, nm in zip(a.tolist(), b.tolist(), add.tolist(),
                              mul.tolist(), nmul.tolist()):
        assert s == f.add(x, y)
        assert m == f.mul(x, y)
        assert nm == f.neg(f.mul(x, y))
    for x in sorted(set(a.tolist())):
        assert T.NEG[x] == f.neg(x)
        if x:
            assert T.INV[x] == f.inv(x)
            assert T.EXP[T.LOG[x]] == x
    assert T.INV[0] == 0


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2), (11, 1), (2, 4), (5, 2),
                                  (3, 3), (2, 5), (7, 2), (2, 6), (3, 4)])
def test_tables_match_scalar_arithmetic(p, k):
    f = make_field(p, k)
    q = f.q
    a, b = np.divmod(np.arange(q * q), q)
    _check_tables(f, a, b)


@pytest.mark.parametrize("p, k", [(3, 6), (7, 4)])
def test_large_tables_match_scalar_arithmetic_sampled(p, k):
    f = make_field(p, k)
    rng = np.random.default_rng(p)
    a = np.concatenate([[0, 1, f.q - 1], rng.integers(0, f.q, 1500)])
    b = np.concatenate([[f.q - 1, 0, 1], rng.integers(0, f.q, 1500)])
    _check_tables(f, a, b)


def test_table_build_memory_is_bounded():
    # GF(2401): the four q x q int16 tables are 11.5 MB each; a build that
    # formed q x q x k int64 digit sums would peak above 350 MB
    f = Field(7, 4)
    f._find_generator()
    tracemalloc.start()
    try:
        f.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2 ** 20


def test_scalar_code_arithmetic():
    f = make_field(2, 4)
    a, b = 7, 9
    assert f.add(a, b) == f.sub(a, b) == 7 ^ 9
    assert f.mul(a, f.pow(a, -1)) == 1
    assert f.sub(a, a) == 0
    assert f.div(a, a) == 1
    assert f.pow(a, 15) == 1
    assert f.digits(a) == (1, 1, 1, 0)
    with pytest.raises(FieldError):
        f.div(1, 0)
    with pytest.raises(FieldError):
        f.inv(0)


def test_embed_is_ring_hom():
    f8 = make_field(2, 3)
    f64 = make_field(2, 6)
    img = {a: embed(f8, a, f64) for a in range(8)}
    assert img[0] == 0 and img[1] == 1
    assert len(set(img.values())) == 8  # injective
    for a in range(8):
        for b in range(8):
            assert img[f8.add(a, b)] == f64.add(img[a], img[b])
            assert img[f8.mul(a, b)] == f64.mul(img[a], img[b])


def test_embed_rejects_non_extension():
    f8 = make_field(2, 3)
    f16 = make_field(2, 4)
    with pytest.raises(FieldError):
        embed(f8, 3, f16)     # 8 does not divide into 16 as q^m
    f27 = make_field(3, 3)
    with pytest.raises(FieldError):
        embed(f8, 3, f27)
    with pytest.raises(FieldError):
        embed(f8, 8, make_field(2, 6))  # not a code of GF(8)


def test_embed_chain():
    f2 = make_field(2)
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for a in range(2):
        via = embed(f4, embed(f2, a, f4), f16)
        straight = embed(f2, a, f16)
        assert via == straight
    # GF(4) -> GF(16): multiplicativity over all 16 pairs
    img = {a: embed(f4, a, f16) for a in range(4)}
    for a in range(4):
        for b in range(4):
            assert img[f4.mul(a, b)] == f16.mul(img[a], img[b])


def test_serialization_roundtrip():
    f = make_field(3, 3)
    assert Field.from_json(f.to_json()) == f
    assert pickle.loads(pickle.dumps(f)) == f
    # equal (p, k, modulus) means interchangeable arithmetic
    other = Field(3, 3)
    assert other == f and hash(other) == hash(f)
    assert other.mul(13, 17) == f.mul(13, 17)


def test_table_limit_guard():
    f = make_field(2, 13)  # q = 8192 over the table limit
    assert f.mul(5000, 6000) == f.mul(6000, 5000)  # scalars still work
    with pytest.raises(FieldError):
        f.vmul(np.array([1]), np.array([2]))


def test_from_int_reduction():
    f = make_field(7, 2)
    assert f.from_int(10) == 3
    assert f.from_int(-1) == 6


@pytest.mark.parametrize("p, k", [(2, 4), (7, 2), (3, 7), (2, 12)])
def test_submul_matches_table_lookup(p, k):
    # q = 3^7 and 2^12 (TABLE_LIMIT): c*q and a*q overflow the int16 codes,
    # so the flat indices must be formed in intp
    f = make_field(p, k)
    T = f.tables()
    q = f.q
    rng = np.random.default_rng(q)

    def codes(*shape):
        x = rng.integers(0, q, shape)
        x.flat[:2] = q - 1, 0                  # the largest code, and zero
        return x.astype(CODE_DTYPE)

    def lookup(a, c, b):                       # the 2-D table lookup
        t = T.MUL[c, b] if T.char2 else T.NEG[T.MUL[c, b]]
        return np.bitwise_xor(a, t) if T.char2 else T.ADD[a, t]

    cases = (
        (codes(7), CODE_DTYPE(q - 1), codes(7)),          # scalar c
        (codes(4, 7), codes(4, 1), codes(7)),             # column c
        (codes(3, 4, 7), codes(3, 4, 1), codes(3, 1, 7)),  # 3-D stack
        (codes(1, 4, 7), codes(3, 4, 1), codes(3, 1, 7)),  # broadcast a
    )
    for a, c, b in cases:
        want = lookup(a, c, b)
        got = T.submul(a, c, b)
        assert got.dtype == CODE_DTYPE and got.shape == want.shape
        assert np.array_equal(got, want)
        # and entry by entry against scalar arithmetic
        for x, y, z, g in zip(*(np.broadcast_to(v, want.shape).ravel()
                                 for v in (a, c, b, got))):
            assert int(g) == f.sub(int(x), f.mul(int(y), int(z)))


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 3), (3, 3), (7, 2),
                                  (3, 7), (2, 12)])
def test_table_sum_matches_scalar_fold(p, k):
    f = make_field(p, k)
    T = f.tables()
    rng = np.random.default_rng(f.q)
    x = rng.integers(0, f.q, (6, 40))
    x[0] = f.q - 1                      # long runs of the largest code
    x = x.astype(CODE_DTYPE)
    for axis in (0, 1, -1):
        got = T.sum(x, axis)
        want = [0] * len(got)
        for i, line in enumerate(np.moveaxis(x, axis, -1).tolist()):
            for v in line:
                want[i] = f.add(want[i], v)
        assert got.dtype == CODE_DTYPE and got.tolist() == want, axis
    # an empty axis sums to zero
    empty = f.zeros((3, 0))
    assert T.sum(empty, 1).tolist() == [0, 0, 0]
    assert T.sum(empty, 0).shape == (0,)
