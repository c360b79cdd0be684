import itertools

import pytest

from affgeo import (FieldError, elem, elements, embed, field_new,
                    field_of_order)


def test_prime_field_basics():
    F2 = field_new(2)
    assert [x.val for x in elements(F2)] == [0, 1]
    one = elem(F2, 1)
    assert (one + one).val == 0


def test_f8_modulus_is_x3_x_1():
    # verified irreducible over F_2 by the trial-division oracle below
    F8 = field_new(2, 3)
    assert F8.modulus == (1, 1, 0, 1)


def bruteforce_irreducible(coeffs, p):
    """Independent check: no root-free factorization by trial division."""
    e = len(coeffs) - 1
    for d in range(1, e):
        for lower in itertools.product(range(p), repeat=d):
            den = list(lower) + [1]
            num = list(coeffs)
            for i in range(len(num) - 1, d - 1, -1):
                c = num[i]
                if c:
                    for j in range(d + 1):
                        num[i - d + j] = (num[i - d + j] - c * den[j]) % p
            if not any(num[:d]):
                return False
    return True


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_shipped_moduli_are_irreducible(p, e):
    assert bruteforce_irreducible(field_new(p, e).modulus, p)


def test_field_new_errors():
    with pytest.raises(FieldError):
        field_new(4, 1)
    with pytest.raises(FieldError):
        field_new(2, 0)
    with pytest.raises(FieldError):
        field_new(2, 10)  # 1024 > limit


def test_field_new_deterministic():
    assert field_new(3, 3).modulus == field_new(3, 3).modulus


@pytest.mark.parametrize("p", [2, 7])
def test_field_new_one_instance_per_field(p):
    K = field_new(p)
    assert field_new(p, 1) is K
    assert field_new(p, e=1) is K
    assert field_new(p=p) is K
    assert field_of_order(p) is K


def test_f8_arithmetic_examples():
    F8 = field_new(2, 3)
    alpha = elem(F8, (0, 1, 0))
    # alpha * alpha^2 reduces to alpha + 1
    assert (alpha * alpha * alpha).coeffs == (1, 1, 0)
    # alpha has multiplicative order 7, so inv(alpha) = alpha^6
    assert min(n for n in range(1, 8) if (alpha ** n).val == 1) == 7
    assert alpha.inv() == alpha ** 6
    with pytest.raises(FieldError):
        elem(F8, 0).inv()


def test_mismatched_specs_rejected():
    a = elem(field_new(2), 1)
    b = elem(field_new(3), 1)
    with pytest.raises(FieldError):
        a + b


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, e):
    F = field_new(p, e)
    q = F.order
    els = range(q)
    assert len(set(elements(F))) == q
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, q - 1) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            if q <= 16:
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)


def test_largest_supported_field():
    F = field_new(2, 9)
    assert F.order == 512
    assert all(F.pow(x, 511) == 1 for x in range(1, 512))


def test_field_of_order():
    assert field_of_order(9).e == 2
    with pytest.raises(FieldError):
        field_of_order(6)


def test_embedding_prime_into_f8():
    F2, F8 = field_new(2), field_new(2, 3)
    emb = embed(F2, F8)
    assert emb(elem(F2, 0)).val == 0
    assert emb(elem(F2, 1)).val == 1


def test_embedding_f4_into_f16_is_homomorphism():
    F4, F16 = field_new(2, 2), field_new(2, 4)
    emb = embed(F4, F16)
    for x in elements(F4):
        for y in elements(F4):
            assert emb(x * y) == emb(x) * emb(y)
            assert emb(x + y) == emb(x) + emb(y)
    # generator keeps multiplicative order q - 1
    gen = next(x for x in elements(F4)
               if x.val and min(n for n in range(1, 4) if (x ** n).val == 1) == 3)
    img = emb(gen)
    assert min(n for n in range(1, 16) if (img ** n).val == 1) == 3


def test_embedding_degree_must_divide():
    with pytest.raises(FieldError):
        embed(field_new(2, 2), field_new(2, 3))
    with pytest.raises(FieldError):
        embed(field_new(2), field_new(3))


def test_vector_view_roundtrip():
    F2, F8 = field_new(2), field_new(2, 3)
    emb = embed(F2, F8)
    assert emb.m == 3
    for x in elements(F8):
        assert emb.from_vector(emb.to_vector(x)) == x


def test_serialization_digits():
    F8 = field_new(2, 3)
    assert elem(F8, (1, 1, 0)).digits() == "110"
    assert F8.parse_digits("110") == F8.encode((1, 1, 0))
    F3 = field_new(3)
    assert elem(F3, 2).digits() == "2"
