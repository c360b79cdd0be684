import itertools
import pickle
import random

import pytest

from affgeo import FieldError, embed, field_new, field_of_order
from affgeo.flatspace import rref_rows
from affgeo.galois import ORDER_LIMIT, FieldSpec, _is_prime, _least_irreducible


def test_prime_field_basics():
    F2 = field_new(2)
    assert F2.encodings_lex() == (0, 1)
    assert F2.add(1, 1) == 0


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
    alpha = F8.encode((0, 1, 0))
    # alpha * alpha^2 reduces to alpha + 1
    assert F8.decode(F8.mul(F8.mul(alpha, alpha), alpha)) == (1, 1, 0)
    # alpha has multiplicative order 7, so inv(alpha) = alpha^6
    assert min(n for n in range(1, 8) if F8.pow(alpha, n) == 1) == 7
    assert F8.inv(alpha) == F8.pow(alpha, 6)
    with pytest.raises(FieldError):
        F8.inv(0)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, e):
    F = field_new(p, e)
    q = F.order
    els = range(q)
    assert sorted(F.encodings_lex()) == list(els)
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
    assert emb.m == 3
    assert emb.map_enc(0) == 0
    assert emb.map_enc(1) == 1


def test_embedding_f4_into_f16_is_homomorphism():
    F4, F16 = field_new(2, 2), field_new(2, 4)
    emb = embed(F4, F16)
    f = emb.map_enc
    for x in F4.encodings_lex():
        for y in F4.encodings_lex():
            assert f(F4.mul(x, y)) == F16.mul(f(x), f(y))
            assert f(F4.add(x, y)) == F16.add(f(x), f(y))
    # generator keeps multiplicative order q - 1
    gen = next(x for x in F4.encodings_lex()
               if x and min(n for n in range(1, 4) if F4.pow(x, n) == 1) == 3)
    img = f(gen)
    assert min(n for n in range(1, 16) if F16.pow(img, n) == 1) == 3


def test_embedding_degree_must_divide():
    with pytest.raises(FieldError):
        embed(field_new(2, 2), field_new(2, 3))
    with pytest.raises(FieldError):
        embed(field_new(2), field_new(3))


def test_serialization_digits():
    F8 = field_new(2, 3)
    assert F8.digits(F8.encode((1, 1, 0))) == "110"
    assert F8.parse_digits("110") == F8.encode((1, 1, 0))
    F3 = field_new(3)
    assert F3.digits(2) == "2"


# --- differential oracle: the direct polynomial-multiplication fill ------------

def oracle_poly_mul(a, b, modulus, p):
    """Schoolbook product of coefficient tuples, reduced by the monic modulus."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, e - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(e):
            prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    return tuple(prod[:e])


def oracle_ops(K):
    """add/mul/neg on encodings, computed from coefficient tuples."""
    p, e = K.p, K.e
    coeff = [tuple((v // p ** i) % p for i in range(e)) for v in range(K.order)]
    enc = {c: v for v, c in enumerate(coeff)}

    def add(a, b):
        return enc[tuple((x + y) % p for x, y in zip(coeff[a], coeff[b]))]

    def mul(a, b):
        return enc[oracle_poly_mul(coeff[a], coeff[b], K.modulus, p)]

    def neg(a):
        return enc[tuple((-c) % p for c in coeff[a])]

    return add, mul, neg


ORACLE_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11) for e in range(2, 8)
                 if p ** e <= 128]


@pytest.mark.parametrize("p,e", ORACLE_FIELDS + [(2, 1), (3, 1), (127, 1)])
def test_tables_match_polynomial_oracle(p, e):
    K = field_new(p, e)
    q = K.order
    add, mul, neg = oracle_ops(K)
    assert K._add == [[add(a, b) for b in range(q)] for a in range(q)]
    mul_table = [[mul(a, b) for b in range(q)] for a in range(q)]
    assert K._mul == mul_table
    assert K._neg == [neg(a) for a in range(q)]
    assert K._inv == [0] + [mul_table[a].index(1) for a in range(1, q)]


@pytest.mark.parametrize("p,e", [(2, 9), (7, 3), (19, 2)])
def test_tables_match_polynomial_oracle_sampled(p, e):
    K = field_new(p, e)
    q = K.order
    add, mul, neg = oracle_ops(K)
    rng = random.Random(f"oracle-{p}-{e}")
    for _ in range(4096):
        a, b = rng.randrange(q), rng.randrange(q)
        assert K.add(a, b) == add(a, b)
        assert K.mul(a, b) == mul(a, b)
    assert [K.neg(a) for a in range(q)] == [neg(a) for a in range(q)]
    assert all(mul(a, K.inv(a)) == 1 for a in range(1, q))
    assert K.encodings_lex() == tuple(sorted(range(q), key=lambda v: tuple(
        (v // p ** i) % p for i in range(e))))


@pytest.mark.parametrize("p,e", [(2, 9), (19, 2), (7, 3)])
def test_table_cells_share_one_int_per_value(p, e):
    K = field_new(p, e)
    one = {}  # value -> the first object seen for it
    cells = [x for table in (K._add, K._mul) for row in table for x in row]
    assert all(one.setdefault(x, x) is x for x in cells + K._neg + K._inv)
    assert sorted(one) == list(range(K.order))


# --- table-free scalar methods against the lazily built q x q tables ----------

ALL_FIELDS = [(p, e) for p in range(2, ORDER_LIMIT + 1) if _is_prime(p)
              for e in range(1, 10) if p ** e <= ORDER_LIMIT]


def fresh_field(p, e):
    """A FieldSpec outside field_new's cache, so no other test built its tables."""
    return FieldSpec(p, e, _least_irreducible(p, e))


def table_pow(K, a, n):
    """a^n by square-and-multiply over the _mul table; n < 0 through _inv."""
    if n < 0:
        a, n = K._inv[a], -n
    result = 1
    while n:
        if n & 1:
            result = K._mul[result][a]
        a = K._mul[a][a]
        n >>= 1
    return result


def scalar_ops(K, pairs, elements, exponents):
    return ([(K.add(a, b), K.sub(a, b), K.mul(a, b)) for a, b in pairs]
            + [(K.neg(a), K.inv(a) if a else None) for a in elements]
            + [K.pow(a, n) for a in elements for n in exponents if a or n >= 0])


def table_ops(K, pairs, elements, exponents):
    add, mul, neg = K._add, K._mul, K._neg
    return ([(add[a][b], add[a][neg[b]], mul[a][b]) for a, b in pairs]
            + [(neg[a], K._inv[a] if a else None) for a in elements]
            + [table_pow(K, a, n) for a in elements for n in exponents if a or n >= 0])


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_scalar_ops_match_tables_in_either_access_order(p, e):
    q = p ** e
    if q <= 32:
        elements = list(range(q))
        pairs = list(itertools.product(elements, repeat=2))
    else:
        rng = random.Random(f"scalar-{p}-{e}")
        elements = sorted({0, 1, q - 1} | {rng.randrange(q) for _ in range(40)})
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
        pairs += [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
    exponents = (0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 5, -1, -2, 1 - q, -q - 3)
    scalar_first, tables_first = fresh_field(p, e), fresh_field(p, e)
    scalar = scalar_ops(scalar_first, pairs, elements, exponents)
    assert not {"_add", "_mul"} & vars(scalar_first).keys()  # no table was built
    assert table_ops(scalar_first, pairs, elements, exponents) == scalar
    tables = table_ops(tables_first, pairs, elements, exponents)
    assert scalar_ops(tables_first, pairs, elements, exponents) == tables == scalar
    for K in (scalar_first, tables_first):  # each table built once, then a plain attribute
        assert vars(K)["_add"] is K._add and vars(K)["_mul"] is K._mul
    for K in (scalar_first, tables_first):
        assert K.pow(0, 0) == 1 and K.pow(0, 1) == 0 and K.pow(0, q) == 0
        assert all(K.mul(a, K.pow(a, -1)) == 1 for a in elements if a)
        for call in (lambda: K.inv(0), lambda: K.pow(0, -1), lambda: K.pow(0, -q)):
            with pytest.raises(FieldError, match="^inversion of zero$"):
                call()


def oracle_primitive_powers(K):
    """Encodings of the powers of the least element of order q - 1, walked
    by schoolbook products of coefficient tuples."""
    q, p, e = K.order, K.p, K.e
    coeff = [tuple((v // p ** i) % p for i in range(e)) for v in range(q)]
    enc = {c: v for v, c in enumerate(coeff)}
    for g in range(1, q):
        powers, x = [1], coeff[g]
        while x != coeff[1]:
            powers.append(enc[x])
            x = oracle_poly_mul(x, coeff[g], K.modulus, p)
        if len(powers) == q - 1:
            return powers


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_exp_log_are_powers_of_the_least_primitive_element(p, e):
    K = field_new(p, e)
    assert K.exp == oracle_primitive_powers(K)
    assert K.exp2 == K.exp * 2
    assert [K.log[v] for v in K.exp] == list(range(K.order - 1))


def test_field_pickled_before_its_tables_builds_equal_tables():
    K = fresh_field(19, 2)
    clone = pickle.loads(pickle.dumps(K))
    assert clone == K and not {"_add", "_mul"} & vars(clone).keys()
    assert clone._mul == K._mul and clone._add == K._add
    assert (clone.exp, clone.log, clone._neg, clone._inv) == (K.exp, K.log, K._neg, K._inv)


# --- coordinate map oracle: the per-call matrix product over F_p ---------------

def oracle_to_vector_enc(emb):
    """to_vector_enc as one matrix product per call: the F_p-coordinates of
    a big-field element under the inverse of the matrix whose columns are
    the basis {embed(x^i) * beta^j}, regrouped into m subfield encodings."""
    sub, sup = emb.sub, emb.sup
    p, e, E = sup.p, sub.e, sup.e
    cols = [sup.decode(sup.mul(emb.map_enc(p ** i), bp))
            for bp in emb.beta_pows for i in range(e)]
    aug = [[cols[c][r] for c in range(E)] + [int(i == r) for i in range(E)]
           for r in range(E)]
    rows, pivots = rref_rows(field_new(p), aug, E)
    assert len(pivots) == E
    coord_inv = [row[E:] for row in rows]

    def to_vector_enc(a):
        target = sup.decode(a)
        flat = [sum(r * t for r, t in zip(row, target)) % p for row in coord_inv]
        return tuple(sub.encode(flat[j * e:(j + 1) * e]) for j in range(emb.m))

    return to_vector_enc


EMBEDDINGS = [(p, e, m) for p in (2, 3, 5, 7, 11, 13, 17, 19) for e in range(1, 10)
              for m in range(1, 10) if p ** (e * m) <= 512 and (e * m > 1 or p <= 3)]


@pytest.mark.parametrize("p,e,m", EMBEDDINGS)
def test_to_vector_enc_matches_matrix_product(p, e, m):
    emb = embed(field_new(p, e), field_new(p, e * m))
    oracle = oracle_to_vector_enc(emb)
    for a in range(emb.sup.order):
        assert emb.to_vector_enc(a) == oracle(a)
        assert emb.from_vector_enc(emb.to_vector_enc(a)) == a


# --- digit tables: same strings and same accepted spellings as the parser ------

@pytest.mark.parametrize("p,e", ORACLE_FIELDS + [(19, 2), (2, 9)])
def test_digit_tables_match_formula(p, e):
    K = field_new(p, e)
    sep = "" if p <= 10 else ","
    for v in range(K.order):
        s = sep.join(str(c) for c in K.decode(v))
        assert K.digits(v) == s
        assert K.parse_digits(s) == v


# --- packing: a vector as one int of fixed-width digits -----------------------

@pytest.mark.parametrize("p,e", ORACLE_FIELDS + [(19, 2), (2, 9)])
def test_pack_round_trips_and_keeps_tuple_order(p, e):
    K = field_new(p, e)
    q, w = K.order, (K.order - 1).bit_length()
    rng = random.Random(f"pack-{p}-{e}")
    for d in (1, 2, 3):
        vectors = sorted({(0,) * d, (q - 1,) * d} | {
            tuple(rng.randrange(q) for _ in range(d)) for _ in range(300)})
        packed = [K.pack(v) for v in vectors]
        assert [K.unpack(x, d) for x in packed] == vectors
        assert packed == sorted(set(packed))  # injective, and int order is tuple order
        u, v = vectors[1], vectors[-2]
        assert K.pack(u + v) == K.pack(u) << w * d | K.pack(v)  # chained vectors
        if p == 2:  # packed vectors over F_{2^e} add by ^
            assert K.pack([K.add(a, b) for a, b in zip(u, v)]) == K.pack(u) ^ K.pack(v)
    assert K.pack((1, 0)) == 1 << w and K.unpack(1, 3) == (0, 0, 1)


def test_parse_digits_other_spellings():
    F361, F5 = field_new(19, 2), field_new(5)
    assert F361.parse_digits("+1,03") == F361.encode((1, 3))
    assert F361.parse_digits("1_0,3") == F361.encode((10, 3))
    assert F361.parse_digits("٣,1") == F361.encode((3, 1))  # Arabic-Indic 3
    assert F5.parse_digits("٣") == 3
    for bad in ("+", "19,0", "", ",1", "1,", "1,2,3"):
        with pytest.raises(FieldError):
            F361.parse_digits(bad)
    for bad in ("+", "5", ""):
        with pytest.raises(FieldError):
            F5.parse_digits(bad)
