import pickle

import numpy as np
import pytest

from tripoint.fields import (Field, FieldError, default_modulus, embed,
                             is_irreducible, make_field)


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


def test_scalar_vs_vector_agreement():
    rng = np.random.default_rng(3)
    for (p, k) in ((2, 4), (3, 2), (7, 1), (5, 2)):
        f = make_field(p, k)
        a = rng.integers(0, f.q, 300)
        b = rng.integers(0, f.q, 300)
        assert all(f.vadd(a, b)[i] == f.add(int(a[i]), int(b[i]))
                   for i in range(300))
        assert all(f.vmul(a, b)[i] == f.mul(int(a[i]), int(b[i]))
                   for i in range(300))
        nz = a.copy()
        nz[nz == 0] = 1
        assert all(f.vinv(nz)[i] == f.inv(int(nz[i])) for i in range(300))


def test_element_wrapper():
    f = make_field(2, 4)
    a = f.element(7)
    b = f.element(9)
    assert (a + b).code == 7 ^ 9
    assert (a * a ** -1).code == 1
    assert a - a == f.zero
    assert (a / a) == f.one
    assert a ** 15 == f.one
    assert a.coeffs == (1, 1, 1, 0)
    with pytest.raises(FieldError):
        f.element(1) / f.zero
    g27 = make_field(3, 3)
    with pytest.raises(FieldError):
        a + g27.element(1)


def test_embed_is_ring_hom():
    f8 = make_field(2, 3)
    f64 = make_field(2, 6)
    img = {a: embed(f8.element(a), f64) for a in range(8)}
    assert img[0].code == 0 and img[1].code == 1
    assert len({e.code for e in img.values()}) == 8  # injective
    for a in range(8):
        for b in range(8):
            assert img[f8.add(a, b)].code == f64.add(img[a].code, img[b].code)
            assert img[f8.mul(a, b)].code == f64.mul(img[a].code, img[b].code)


def test_embed_rejects_non_extension():
    f8 = make_field(2, 3)
    f16 = make_field(2, 4)
    with pytest.raises(FieldError):
        embed(f8.element(3), f16)     # 8 does not divide into 16 as q^m
    f27 = make_field(3, 3)
    with pytest.raises(FieldError):
        embed(f8.element(3), f27)


def test_embed_chain():
    f2 = make_field(2)
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for a in range(2):
        via = embed(embed(f2.element(a), f4), f16)
        straight = embed(f2.element(a), f16)
        assert via == straight
    # GF(4) -> GF(16): multiplicativity over all 16 pairs
    img = {a: embed(f4.element(a), f16).code for a in range(4)}
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
