"""Exact arithmetic in small finite fields F_{p^e}.

Elements are stored as integers in [0, p^e) encoding polynomial-basis
coordinates: the value sum(c_i * p^i) encodes the element with
coefficients (c_0, ..., c_{e-1}), constant term first.  Building a
FieldSpec costs O(q): its exp/log, neg and inv tables.  The q x q add and
mul tables that the row kernels index are built on first use, so a field
that only does scalar arithmetic (the big field of a poly code) never
builds them.  Fields are capped at ORDER_LIMIT elements; this is a
desk-scale library, not a crypto one.

The modulus for (p, e) is the lexicographically least monic irreducible
polynomial of degree e over F_p (ordered by the coefficient tuple,
constant term first), found by trial division.  Same (p, e) always
yields the same field.

The tables are log/antilog tables (Lidl & Niederreiter, *Finite Fields*,
ch. 9).  The least primitive element g, by encoding, is the least
candidate with g^((q-1)/r) != 1 for each prime r | q-1 (square-and-
multiply), and its powers are walked once, multiplying the int encodings
digit by digit (over F_2 carry-less on bits): q - 2 products plus a few
per candidate, not the q^2 of a direct fill.  The scalar methods need only
these: a*b = exp[log a + log b], a^n = exp[n log a mod (q-1)],
a^-1 = exp[-log a], -a = exp[log a + log(-1)], and addition is digitwise
mod p (a ^ b for p = 2).  Each mul row is one itemgetter gather of log
from a slice of the doubled exp list; the add row of a + c*p^k (a < p^k)
is the row of a with each p^(k+1)-block rotated left by c*p^k (for p = 2,
its two halves swapped), starting from the identity row.  So every row is
built by C-level gathers and slices, no cell by Python bytecode, and
every cell of every table is one of q shared int objects.  The modulus
fixes every product, so the tables, and so every block file, do not
depend on how they are computed.  The digit strings of all q elements
and their inverse map are tables too, so writing and reading a block
file costs one lookup per coordinate.
pack/unpack are the library's one packing of a vector into an int,
shared by the subflat keys, the point index and decode.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from itertools import chain
from operator import getitem, itemgetter

ORDER_LIMIT = 512


class FieldError(ValueError):
    """Bad field parameters or invalid field operation."""


class Record:
    """Base of the immutable value types: fields named in _fields, else in
    __slots__, defaults in _defaults, checks in __post_init__.  Instances
    compare and hash as the tuple of their field values, and only within
    one class."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = vars(cls).get("_fields") or tuple(
            n for n in cls.__slots__ if not n.startswith("__"))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or kwargs.keys() & names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes {names}, got {args} {kwargs}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_divmod_deg(num, den, p):
    """Remainder of polynomial division over F_p; inputs are lists, leading coeff of den nonzero."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by X
    for d in range(1, e // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            den = list(lower) + [1]
            rem = _poly_divmod_deg(coeffs, den, p)
            if not any(rem):
                return False
    return True


def _least_irreducible(p: int, e: int) -> tuple:
    """Least monic irreducible of degree e over F_p, ordered
    lexicographically on (c_{e-1}, ..., c_0); picks the usual low-weight
    polynomials (X^3+X+1 for F_8, X^4+X+1 for F_16, ...)."""
    for lower in itertools.product(range(p), repeat=e):
        coeffs = tuple(reversed(lower)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial found for p={p}, e={e}")  # unreachable


class _OnFirstRead:
    """A method run on the first read of its name, its result then set as
    a plain instance attribute (of a Record too) that later reads find first.
    Unlike functools.cached_property it sets through object.__setattr__, not
    __dict__: on CPython 3.11 touching __dict__ makes every later attribute
    read of the instance several times slower."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


class FieldSpec:
    """The field F_{p^e} with a fixed irreducible modulus.

    Obtain instances through field_new(); direct construction skips the
    instance cache but is otherwise equivalent.
    """

    def __init__(self, p: int, e: int, modulus: tuple):
        self.p = p
        self.e = e
        self.order = q = p ** e
        self.modulus = modulus
        self._coeffs = [cs[::-1] for cs in itertools.product(range(p), repeat=e)]
        self._lex = tuple(sorted(range(q), key=self._coeffs.__getitem__))
        self._digits = [("" if p <= 10 else ",").join(map(str, cs)) for cs in self._coeffs]
        self._by_digits = {s: v for v, s in enumerate(self._digits)}
        self._hash = hash((p, e, modulus))
        self._width = (q - 1).bit_length()  # bits per packed digit
        vals = list(range(q))
        self.exp = exp = [*map(vals.__getitem__, self._primitive_powers())]  # vals' ints
        self.log = log = [0] * q  # log[0] is a placeholder
        for i, v in enumerate(exp):
            log[v] = i
        self.exp2 = exp2 = exp + exp  # exp2[i + j] needs no reduction mod q - 1
        self._inv = [0] + [exp[-la] for la in log[1:]]
        half = 0 if p == 2 else (q - 1) // 2  # log(-1)
        self._neg = [0] + [exp2[la + half] for la in log[1:]]

    @_OnFirstRead
    def _mul(self) -> list:
        """The q x q product table: cell [a][b] is exp2[log a + log b]."""
        q, exp2 = self.order, self.exp2
        gather = itemgetter(*self.log)  # q >= 2 indices give a tuple, never a scalar
        rows = [[0] * q]
        for la in self.log[1:]:
            row = list(gather(exp2[la:la + q - 1]))  # the product by exp[la]
            row[0] = 0
            rows.append(row)
        return rows

    @_OnFirstRead
    def _add(self) -> list:
        """The q x q sum table, built by block rotations of the identity row."""
        p, q = self.p, self.order
        add, n = [[0, *sorted(self.exp)]], 1  # exp's ints, not new ones
        while n < q:  # row s + a (s = c*n, a < n): row a, each p*n-block rotated left by s
            w = p * n
            add += [list(chain.from_iterable(r[i + s:i + w] + r[i:i + s]
                                             for i in range(0, q, w)))
                    for s in range(n, w, n) for r in add[:n]]
            n = w
        return add

    def _primitive_powers(self) -> list:
        """Encodings of g^0, ..., g^(q-2) for the least primitive element g:
        the least g with g^((q-1)/r) != 1 for each prime r | q-1 (none below
        p if e > 1).  Encodings multiply as ints, digit by digit: over F_2
        carry-less, over odd p by base-p digits.  For odd p and e > 1 the walk
        sums c * X^i * g over the digits c = x_i on byte lanes, then a translate."""
        q, e, p, mod = self.order, self.e, self.p, self.modulus
        exps = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
        if p == 2:  # bit i of an encoding is its X^i coefficient
            m = self.encode(mod)

            def mul(x, y):  # carry-less, reduced by m: a shift and <= 2 XORs per bit of y
                prod = 0
                while y:
                    if y & 1:
                        prod ^= x
                    y >>= 1
                    x <<= 1
                    if x >> e:
                        x ^= m
                return prod
        else:  # base-p digit i of an encoding is its X^i coefficient
            digits, low, pw = self._coeffs, [-c % p for c in mod[:-1]], [p ** i for i in range(e)]

            def mul(x, y):  # digit products, then each X^k, k >= e, as X^(k-e) * low
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(digits[x]):
                    for j, b in enumerate(digits[y], i):
                        prod[j] += a * b
                for k in range(2 * e - 2, e - 1, -1):
                    for j, c in enumerate(low, k - e):
                        prod[j] += prod[k] * c
                return sum(c % p * w for c, w in zip(prod, pw))

        def power(x, k):  # square-and-multiply
            y = x
            for bit in bin(k)[3:]:
                y = mul(y, y)
                if bit == "1":
                    y = mul(y, x)
            return y

        g = next(g for g in range(p if e > 1 else 1, q) if all(power(g, k) != 1 for k in exps))
        if p == 2 or e == 1:
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = mul(x, g)  # g second: the carry-less product loops over its few bits
            return powers
        cols = [[int.from_bytes(bytes(digits[mul(c * w, g)]), "little") for c in range(p)]
                for w in pw]
        red, lanes = bytes(v % p for v in range(256)), [bytes(digits[g])]  # lane sums < e * p
        for _ in range(q - 3):
            lanes.append(sum(map(getitem, cols, lanes[-1])).to_bytes(e, "little").translate(red))
        return [1, *map(dict(zip(map(bytes, digits), range(q))).__getitem__, lanes)]

    # --- encoding helpers -------------------------------------------------

    def decode(self, val: int) -> tuple:
        """Integer encoding -> coefficient tuple (constant first)."""
        return self._coeffs[val]

    def encode(self, coeffs) -> int:
        p = self.p
        return sum(c * p ** i for i, c in enumerate(coeffs))

    # --- arithmetic on encodings -----------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        s, k = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            s += (x + y) % p * k
            k *= p
        return s

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        return self.exp2[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise FieldError("inversion of zero")
            return 0 if n else 1
        return self.exp[self.log[a] * n % (self.order - 1)]

    def pack(self, v) -> int:
        """The encodings of v as fixed-width digits of one int, most
        significant first, so int order is tuple order; over p = 2 packed
        vectors add by ^.  Chained vectors pack alike."""
        x, w = 0, self._width
        for c in v:
            x = x << w | c
        return x

    def unpack(self, x: int, d: int) -> tuple:
        """The d-vector in the low digits of x."""
        w, mask = self._width, (1 << self._width) - 1
        return tuple([x >> s & mask for s in range(w * (d - 1), -1, -w)])

    def encodings_lex(self) -> tuple:
        """All encodings ordered lexicographically by coefficient tuple."""
        return self._lex

    def digits(self, val: int) -> str:
        """Serialize an element: e base-p digits, constant first."""
        return self._digits[val]

    def parse_digits(self, s: str) -> int:
        v = self._by_digits.get(s)
        if v is not None:
            return v
        try:  # other spellings int() accepts, such as "+1,03" or "1_0,3"
            cs = tuple(int(tok) for tok in (s if self.p <= 10 else s.split(",")))
        except ValueError:
            cs = ()
        if len(cs) != self.e or any(not 0 <= c < self.p for c in cs):
            raise FieldError(f"bad element serialization {s!r} for F_{self.p}^{self.e}")
        return self.encode(cs)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e})"


def field_new(p: int, e: int = 1) -> FieldSpec:
    """The field F_{p^e} with the built-in deterministic modulus; one
    instance per (p, e), so field_new(p) is field_new(p, e=1)."""
    return _field_new(p, e)


@lru_cache(maxsize=None)
def _field_new(p: int, e: int) -> FieldSpec:
    if not _is_prime(p):
        raise FieldError(f"p={p} is not prime")
    if e < 1:
        raise FieldError(f"extension degree e={e} must be >= 1")
    if p ** e > ORDER_LIMIT:
        raise FieldError(f"field order {p}^{e} exceeds limit {ORDER_LIMIT}")
    return FieldSpec(p, e, _least_irreducible(p, e))


def field_of_order(q: int) -> FieldSpec:
    """Field of order q = p^e; errors when q is not a prime power."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise FieldError(f"{q} is not a prime power")
            return field_new(p, e)
    raise FieldError(f"{q} is not a prime power")


class Embedding:
    """Injective homomorphism F_{q} -> F_{q^m}, plus the vector-space view.

    The image field is an F_q-vector space of dimension m with fixed
    basis {1, beta, ..., beta^(m-1)}, where beta is the canonical
    generator (the residue of X) of the big field.  from_vector_enc sums
    coordinate times basis element; __init__ applies it, by F_q-linearity
    at one field add per vector, to all q^m vectors and inverts the
    result, so to_vector_enc is one lookup in a table of q^m tuples.
    """

    def __init__(self, sub: FieldSpec, sup: FieldSpec):
        if sub.p != sup.p:
            raise FieldError("incompatible characteristic")
        if sup.e % sub.e != 0:
            raise FieldError(f"{sub.e} does not divide {sup.e}: no embedding")
        self.sub = sub
        self.sup = sup
        self.m = sup.e // sub.e
        self._root = self._find_root()
        # images of the sub polynomial basis 1, x, x^2, ...
        self._sub_basis_img = [sup.pow(self._root, i) for i in range(sub.e)]
        beta = sup.p if sup.e > 1 else 1  # encoding of X (or of 1 in a prime field)
        self.beta = beta
        self.beta_pows = [sup.pow(beta, j) for j in range(self.m)]
        images = [0]  # from_vector_enc of each vector, in itertools.product order
        for bp in reversed(self.beta_pows):  # the last coordinate varies fastest
            steps = [sup.mul(self.map_enc(c), bp) for c in range(sub.order)]
            images = [sup.add(s, x) for s in steps for x in images]
        vectors = itertools.product(range(sub.order), repeat=self.m)
        self._vectors = [v for _, v in sorted(zip(images, vectors))]

    def _find_root(self) -> int:
        """Smallest root (by encoding) of the subfield modulus inside sup."""
        sub, sup = self.sub, self.sup
        mod_coeffs = sub.modulus
        for cand in range(sup.order):
            acc = 0
            power = 1
            for c in mod_coeffs:
                if c:
                    acc = sup.add(acc, sup.mul(c % sup.p, power))
                power = sup.mul(power, cand)
            if acc == 0:
                return cand
        raise FieldError("modulus has no root in the extension")  # unreachable

    def map_enc(self, a: int) -> int:
        """Embed a subfield encoding into the big field."""
        cs = self.sub.decode(a)
        acc = 0
        for c, img in zip(cs, self._sub_basis_img):
            if c:
                acc = self.sup.add(acc, self.sup.mul(c, img))
        return acc

    def to_vector_enc(self, a: int) -> tuple:
        """Big-field encoding -> tuple of m subfield encodings (beta-basis coords)."""
        return self._vectors[a]

    def from_vector_enc(self, coords) -> int:
        acc = 0
        for c, bp in zip(coords, self.beta_pows):
            if c:
                acc = self.sup.add(acc, self.sup.mul(self.map_enc(c), bp))
        return acc


def embed(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    return Embedding(sub, sup)
