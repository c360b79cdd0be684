"""Subspaces and affine flats over F_q in canonical form.

A point is a tuple of field-element encodings (see galois.FieldSpec), or
over F_2 a FieldSpec.pack int.  A LinearSubspace stores a reduced
row-echelon basis, an AffineFlat a canonical coset representative plus a
direction subspace.  Both are immutable galois.Record values (with
hand-written __init__, __eq__ and __hash__, as they are built by the
thousand), and canonical forms make equal flats compare and hash equal,
which everything downstream (dedup, design verification, decoding)
relies on.  aff_closure closes packed points into a PackedFlat.

Geometries are coordinatized: AG(d, q) on the vectors of F_q^d and
PG(d, q) on the subspaces of F_q^(d+1).  A GeometrySpec carries the
matroid rank n of the whole geometry: affine rank n means ambient
dimension n-1, projective rank n means underlying vector dimension n.
"""

from __future__ import annotations

import itertools
from math import prod

from .galois import FieldSpec, Record

ENUMERATION_GUARD = 10 ** 7


class GeometryError(ValueError):
    """Invalid flat/geometry operation."""


class GuardExceeded(GeometryError):
    """Requested enumeration is larger than the documented guard."""


def check_guard(n: int, what: str = "flats"):
    """Raise GuardExceeded when n items exceed ENUMERATION_GUARD."""
    if n > ENUMERATION_GUARD:  # str() refuses ints of more than 4300 digits
        size = n if n.bit_length() <= 4096 else f"more than 2^{n.bit_length() - 1}"
        raise GuardExceeded(f"{size} {what} exceed the guard of {ENUMERATION_GUARD}")


# --- raw row operations (tuples of encodings) ------------------------------

def vec_add(K: FieldSpec, u, v):
    add = K._add
    return tuple([add[a][b] for a, b in zip(u, v)])


def vec_sub(K: FieldSpec, u, v):
    add, neg = K._add, K._neg
    return tuple([add[a][neg[b]] for a, b in zip(u, v)])


def rref_rows(K: FieldSpec, rows, d):
    """Reduced row echelon form on the first d columns; returns (rows,
    pivots) as tuples.  Each row is reduced by the rows so far, by table
    rows; a new pivot is scaled to 1 and cleared from the earlier rows, and
    the rows are sorted by pivot at the end.  Rows with no pivot go."""
    pivots, out = [], []
    for v in rows:
        v = reduce_vector(K, out, pivots, v)
        if (lead := next(filter(None, v), 0)) and (c := v.index(lead)) < d:
            if lead != 1:
                v = tuple(map(K._mul[K._inv[lead]].__getitem__, v))
            out = [reduce_vector(K, (v,), (c,), r) for r in out] + [v]
            pivots.append(c)
    pivots, out = zip(*sorted(zip(pivots, out))) if out else ((), ())
    return out, pivots


def reduce_vector(K: FieldSpec, rows, pivots, v):
    """Reduce v modulo the RREF rows; result is zero iff v is in the row space."""
    add, mul, neg = K._add, K._mul, K._neg
    v = tuple(v)
    for row, c in zip(rows, pivots):
        if v[c]:
            mc = mul[neg[v[c]]]
            v = tuple([add[x][mc[y]] for x, y in zip(v, row)])
    return v


def combine(K: FieldSpec, start, coeffs, rows):
    """start + sum(c_i * rows_i), one table multiply-add per nonzero c_i."""
    add, mul = K._add, K._mul
    v = tuple(start)
    for c, row in zip(coeffs, rows):
        if c:
            mc = mul[c]
            v = tuple([add[a][mc[b]] for a, b in zip(v, row)])
    return v


# --- core types -------------------------------------------------------------

class LinearSubspace(Record):
    """A subspace of F_q^d, stored as its unique RREF basis."""

    __slots__ = ("spec", "d", "rows", "pivots")  # rows: coordinate tuples, RREF

    def __init__(self, spec: FieldSpec, d: int, rows: tuple, pivots: tuple):
        put = object.__setattr__
        put(self, "spec", spec)
        put(self, "d", d)
        put(self, "rows", rows)
        put(self, "pivots", pivots)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.spec, self.d, self.rows, self.pivots)
                == (other.spec, other.d, other.rows, other.pivots))

    def __hash__(self):
        return hash((self.spec, self.d, self.rows, self.pivots))

    @classmethod
    def from_rows(cls, spec: FieldSpec, d: int, rows) -> "LinearSubspace":
        if d < 1:
            raise GeometryError("ambient dimension must be >= 1")
        rr, piv = rref_rows(spec, rows, d)
        return cls(spec, d, rr, piv)

    @classmethod
    def zero(cls, spec: FieldSpec, d: int) -> "LinearSubspace":
        return cls(spec, d, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v) -> bool:
        return not any(reduce_vector(self.spec, self.rows, self.pivots, v))

    def contains(self, other: "LinearSubspace") -> bool:
        if (self.spec, self.d) != (other.spec, other.d):
            raise GeometryError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def vectors(self):
        """All q^dim vectors of the subspace, deterministic order."""
        K, zero = self.spec, (0,) * self.d
        return [combine(K, zero, coeffs, self.rows)
                for coeffs in itertools.product(K.encodings_lex(), repeat=self.dim)]

    def sort_key(self):
        return (len(self.rows), self.pivots, self.rows)

    def __repr__(self):
        return f"LinearSubspace(dim={self.dim} of F^{self.d})"


class AffineFlat(Record):
    """A coset of a subspace of F_q^d, or the empty flat (rep=None).

    The representative is canonical: its entries at the direction's
    pivot columns are zero, so equal cosets compare equal.
    """

    __slots__ = ("spec", "d", "rep", "dir")  # rep None encodes the empty flat

    def __init__(self, spec: FieldSpec, d: int, rep: tuple | None,
                 dir: LinearSubspace | None):
        put = object.__setattr__
        put(self, "spec", spec)
        put(self, "d", d)
        put(self, "rep", rep)
        put(self, "dir", dir)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.spec, self.d, self.rep, self.dir)
                == (other.spec, other.d, other.rep, other.dir))

    def __hash__(self):
        return hash((self.spec, self.d, self.rep, self.dir))

    @classmethod
    def empty(cls, spec: FieldSpec, d: int) -> "AffineFlat":
        return cls(spec, d, None, None)

    @classmethod
    def coset(cls, rep, dir: LinearSubspace) -> "AffineFlat":
        canon = reduce_vector(dir.spec, dir.rows, dir.pivots, rep)
        return cls(dir.spec, dir.d, canon, dir)

    @property
    def is_empty(self) -> bool:
        return self.rep is None

    @property
    def rank(self) -> int:
        return 0 if self.is_empty else self.dir.dim + 1

    def contains_vector(self, v) -> bool:
        if self.is_empty:
            return False
        return not any(reduce_vector(self.spec, self.dir.rows, self.dir.pivots,
                                     vec_sub(self.spec, v, self.rep)))

    def contains(self, other: "AffineFlat") -> bool:
        if (self.spec, self.d) != (other.spec, other.d):
            raise GeometryError("ambient mismatch")
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return (all(self.dir.contains_vector(r) for r in other.dir.rows)
                and self.contains_vector(other.rep))

    def points(self):
        """All q^(rank-1) points of the coset."""
        if self.is_empty:
            return []
        K, rows = self.spec, self.dir.rows
        return [combine(K, self.rep, coeffs, rows)
                for coeffs in itertools.product(K.encodings_lex(), repeat=len(rows))]

    def sort_key(self):
        if self.rep is None:
            return (0, (), (), ())
        D = self.dir
        return (len(D.rows) + 1, D.pivots, self.rep, D.rows)

    def __repr__(self):
        if self.is_empty:
            return "AffineFlat(empty)"
        return f"AffineFlat(rank={self.rank} of AG^{self.d})"


class PackedFlat(Record):
    """A nonempty flat of F_2^d as FieldSpec.pack ints, as aff_closure gives
    for packed points: RREF rows, high to low, whose leading bits are their
    pivots, and a rep reduced by them."""

    __slots__ = ("spec", "d", "rep", "rows")

    def __init__(self, spec: FieldSpec, d: int, rep: int, rows: tuple):
        put = object.__setattr__
        put(self, "spec", spec)
        put(self, "d", d)
        put(self, "rep", rep)
        put(self, "rows", rows)

    @property
    def rank(self) -> int:
        return len(self.rows) + 1

    def unpack(self) -> AffineFlat:
        """The same flat with tuple coordinates."""
        K, d, rows = self.spec, self.d, self.rows
        return AffineFlat(K, d, K.unpack(self.rep, d), LinearSubspace(
            K, d, tuple([K.unpack(r, d) for r in rows]), tuple([d - r.bit_length() for r in rows])))


class GeometrySpec(Record):
    """AG or PG over a fixed field, identified by total matroid rank n."""

    __slots__ = ("kind", "field", "rank")  # kind: 'affine' | 'projective'

    def __post_init__(self):
        if self.kind not in ("affine", "projective"):
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.rank < 1:
            raise GeometryError("geometry rank must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.rank - 1 if self.kind == "affine" else self.rank

    @property
    def q(self) -> int:
        return self.field.order


def affine_geometry(field: FieldSpec, rank: int) -> GeometrySpec:
    return GeometrySpec("affine", field, rank)


def projective_geometry(field: FieldSpec, rank: int) -> GeometrySpec:
    return GeometrySpec("projective", field, rank)


# --- operations -------------------------------------------------------------

def lin_meet(U: LinearSubspace, V: LinearSubspace) -> LinearSubspace:
    """Intersection of subspaces (Zassenhaus block elimination)."""
    if (U.spec, U.d) != (V.spec, V.d):
        raise GeometryError("ambient mismatch")
    K, d = U.spec, U.d
    stacked = [r + r for r in U.rows] + [r + (0,) * d for r in V.rows]
    rr, _ = rref_rows(K, stacked, 2 * d)
    meet_rows = [row[d:] for row in rr if not any(row[:d])]
    return LinearSubspace.from_rows(K, d, meet_rows)


def lin_join(U: LinearSubspace, V: LinearSubspace) -> LinearSubspace:
    if (U.spec, U.d) != (V.spec, V.d):
        raise GeometryError("ambient mismatch")
    return LinearSubspace.from_rows(U.spec, U.d, list(U.rows) + list(V.rows))


def xor_reduce(v: int, rows) -> int:
    """A packed vector over F_2 reduced by packed RREF rows, whose leading
    bits are their pivots: each v = min(v, v ^ row) clears the pivot of row
    from v, in any row order.  Zero iff v is in the rows' span."""
    for row in rows:
        v = min(v, v ^ row)
    return v


def aff_closure(points, spec: FieldSpec, d: int | None = None) -> AffineFlat | PackedFlat:
    """Smallest coset containing the given nonempty point set: tuples of
    encodings over spec, whose flat is made directly from the rref_rows of
    their distinct differences from the first point.  With spec F_2 and d
    given, the points are FieldSpec.pack ints of F_2^d, and their closure,
    a PackedFlat, is an XOR basis of those differences, in RREF."""
    if not points:
        raise GeometryError("affine closure of an empty set is undefined")
    base = points[0]
    if d is None:
        subs = [spec._add[spec._neg[c]] for c in base]  # row i maps x_i to x_i - base_i
        rows, pivots = rref_rows(spec, {tuple(map(list.__getitem__, subs, p)) for p in points[1:]},
                                 len(base))
        return AffineFlat(spec, len(base), reduce_vector(spec, rows, pivots, base),
                          LinearSubspace(spec, len(base), rows, pivots))
    if spec.order != 2:
        raise GeometryError("packed points add by ^ only over F_2")
    basis = []
    for p in points[1:]:
        if v := xor_reduce(p ^ base, basis):  # a new pivot: clear it from the rows
            basis = [min(row, row ^ v) for row in basis] + [v]
    basis.sort(reverse=True)  # leading bits high to low: pivots left to right
    return PackedFlat(spec, d, xor_reduce(base, basis), tuple(basis))


def aff_meet(E: AffineFlat, F: AffineFlat) -> AffineFlat:
    """Intersection of cosets; the empty flat when disjoint."""
    if (E.spec, E.d) != (F.spec, F.d):
        raise GeometryError("ambient mismatch")
    if E.is_empty or F.is_empty:
        return AffineFlat.empty(E.spec, E.d)
    K, d = E.spec, E.d
    diff = vec_sub(K, F.rep, E.rep)
    gens = list(E.dir.rows) + [tuple(map(K.neg, r)) for r in F.dir.rows]
    if not gens:
        return E if diff == (0,) * d else AffineFlat.empty(K, d)
    # coefficients c with sum(c_i * gens_i) == diff: eliminate [gens | I] on
    # the first d columns, and diff + 0^n reduces to -c in the identity half
    n = len(gens)
    rows, pivots = rref_rows(K, [g + tuple(1 if j == i else 0 for j in range(n))
                                 for i, g in enumerate(gens)], d)
    t = reduce_vector(K, rows, pivots, diff + (0,) * n)
    if any(t[:d]):
        return AffineFlat.empty(K, d)
    coeffs = [K.neg(x) for x in t[d:]]
    point = combine(K, E.rep, coeffs, E.dir.rows)  # E's share of coeffs
    return AffineFlat.coset(point, lin_meet(E.dir, F.dir))


def aff_join(E: AffineFlat, F: AffineFlat) -> AffineFlat:
    """Smallest coset containing both (the lattice join)."""
    if (E.spec, E.d) != (F.spec, F.d):
        raise GeometryError("ambient mismatch")
    if E.is_empty:
        return F
    if F.is_empty:
        return E
    K, d = E.spec, E.d
    rows = list(E.dir.rows) + list(F.dir.rows) + [vec_sub(K, F.rep, E.rep)]
    return AffineFlat.coset(E.rep, LinearSubspace.from_rows(K, d, rows))


def parallel(E: AffineFlat, F: AffineFlat) -> bool:
    """True iff the cosets share their direction subspace."""
    if E.is_empty or F.is_empty:
        raise GeometryError("parallelism is defined for nonempty flats")
    return E.dir == F.dir


def flat_rank(f, g: GeometrySpec) -> int:
    """Matroid rank of a flat within its geometry."""
    if g.kind == "affine":
        if (not isinstance(f, (AffineFlat, PackedFlat)) or f.d != g.ambient_dim
                or f.spec is not g.field and f.spec != g.field):
            raise GeometryError("flat does not belong to this affine geometry")
        return f.rank
    if (not isinstance(f, LinearSubspace) or f.d != g.ambient_dim
            or f.spec is not g.field and f.spec != g.field):
        raise GeometryError("flat does not belong to this projective geometry")
    return f.dim


def count_points(g: GeometrySpec) -> int:
    q, n = g.q, g.rank
    if g.kind == "projective":
        return (q ** n - 1) // (q - 1)
    return q ** (n - 1)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (k - i) - 1 for i in range(k))
    return num // den


def count_flats(g: GeometrySpec, r: int) -> int:
    """Number of rank-r flats, by closed form."""
    if r < 0 or r > g.rank:
        raise GeometryError(f"rank {r} out of range for geometry of rank {g.rank}")
    q = g.q
    if g.kind == "projective":
        return gaussian_binomial(g.rank, r, q)
    if r == 0:
        return 1
    d, t = g.ambient_dim, r - 1
    return q ** (d - t) * gaussian_binomial(d, t, q)


def enumerate_subspaces(spec: FieldSpec, d: int, k: int):
    """All k-dim subspaces of F_q^d as RREF bases, pivot-pattern order."""
    if k == 0:
        yield LinearSubspace.zero(spec, d)
        return
    lex = spec.encodings_lex()
    for pivots in itertools.combinations(range(d), k):
        pivset = set(pivots)
        free = [(i, j) for i in range(k) for j in range(d)
                if j > pivots[i] and j not in pivset]
        for assignment in itertools.product(lex, repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free, assignment):
                rows[i][j] = val
            yield LinearSubspace(spec, d, tuple(tuple(r) for r in rows), pivots)


def enumerate_flats(g: GeometrySpec, r: int):
    """All rank-r flats of the geometry, each once, deterministic order."""
    return list(iter_flats(g, r))


def iter_flats(g: GeometrySpec, r: int):
    """enumerate_flats(g, r) one at a time, the guard checked on the call."""
    check_guard(count_flats(g, r))
    K = g.field
    d = g.ambient_dim
    if g.kind == "projective":
        return enumerate_subspaces(K, d, r)
    if r == 0:
        return iter([AffineFlat.empty(K, d)])
    return (AffineFlat(K, d, rep, U) for U in enumerate_subspaces(K, d, r - 1)
            for rep in coset_reps(d, U.pivots, K.encodings_lex()))


def coset_reps(d: int, pivots, values):
    """The canonical rep of every coset of a subspace of F_q^d with these
    pivots, once: zero on the pivots, values elsewhere, in the order of one
    product over the columns (sort_key order for values in int order)."""
    return itertools.product(*[(0,) if j in pivots else values for j in range(d)])


def enumerate_points(g: GeometrySpec):
    """Ground points: vectors for AG, normalized nonzero vectors for PG."""
    K = g.field
    d = g.ambient_dim
    lex = K.encodings_lex()
    if g.kind == "affine":
        return [tuple(v) for v in itertools.product(lex, repeat=d)]
    pts = []
    for lead in range(d):
        for tail in itertools.product(lex, repeat=d - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    return pts


def normalize_projective_point(K: FieldSpec, v):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next((c for c in v if c), None)
    if lead is None:
        raise GeometryError("zero vector is not a projective point")
    if lead == 1:
        return tuple(v)
    il = K.inv(lead)
    return tuple(K.mul(il, c) for c in v)


def projective_completion(E: AffineFlat) -> LinearSubspace:
    """Embed a nonempty affine flat into PG via x -> (1 : x)."""
    if E.is_empty:
        raise GeometryError("the empty flat has no projective completion")
    rows = [(1,) + E.rep] + [(0,) + r for r in E.dir.rows]
    return LinearSubspace.from_rows(E.spec, E.d + 1, rows)


def hyperplane_restriction(S: LinearSubspace) -> AffineFlat:
    """Inverse of projective_completion; empty if S lies in x0 = 0."""
    if S.dim == 0 or S.pivots[0] != 0:
        return AffineFlat.empty(S.spec, S.d - 1)
    rep = S.rows[0][1:]
    dir_rows = [r[1:] for r in S.rows[1:]]
    dir = LinearSubspace.from_rows(S.spec, S.d - 1, dir_rows)
    return AffineFlat.coset(rep, dir)
