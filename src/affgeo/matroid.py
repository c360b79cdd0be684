"""Matroids as rank oracles: axiom checkers, closure, flats, PMD typing.

Ground sets are tuples of hashable elements with a fixed order; subsets
are frozensets at the API and bitmasks inside the exhaustive checkers.
All checkers are exhaustive and therefore guarded by a maximum ground
size (EXHAUSTIVE_LIMIT elements, i.e. 2^12 subsets).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import flatspace
from .galois import FieldSpec, Record
from .flatspace import GeometrySpec, aff_closure

EXHAUSTIVE_LIMIT = 12


class MatroidError(ValueError):
    pass


class NotAPmd(MatroidError):
    """Two flats of equal rank with different cardinalities."""

    def __init__(self, rank, flat_a, flat_b):
        self.rank = rank
        self.witness = (flat_a, flat_b)
        super().__init__(
            f"rank-{rank} flats of sizes {len(flat_a)} and {len(flat_b)}")


class CheckReport(Record):
    __slots__ = ("ok", "detail", "witness")
    _defaults = {"detail": "", "witness": ()}


class PmdType(Record):
    """Flat cardinalities (f_0, ..., f_r) of a perfect matroid design."""

    __slots__ = ("f",)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.f, self.f[1:])):
            raise MatroidError(f"PMD type must be strictly increasing: {self.f}")


class MatroidOracle:
    """A matroid given by its ground set and rank function.

    rank_fn takes a frozenset of ground elements.  Results are memoized;
    the oracle contract is a pure function, so this is invisible.
    """

    def __init__(self, ground, rank_fn, name="matroid"):
        self.ground = tuple(ground)
        self._rank_fn = rank_fn
        self.name = name
        self._cache = {}

    def rank(self, X) -> int:
        key = frozenset(X)
        r = self._cache.get(key)
        if r is None:
            r = self._cache[key] = self._rank_fn(key)
        return r

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground)

    def __repr__(self):
        return f"MatroidOracle({self.name}, |S|={len(self.ground)})"


# --- shipped instances -------------------------------------------------------

def free_matroid(n: int) -> MatroidOracle:
    return MatroidOracle(range(n), len, name=f"free({n})")


def graphic_matroid(vertices, edges) -> MatroidOracle:
    """Ground set = edges; rank(X) = |V| - #components of (V, X)."""
    verts = tuple(vertices)
    edges = tuple(tuple(e) for e in edges)

    def rank(X):
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        comps = len(verts)
        for (u, v) in X:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return len(verts) - comps

    return MatroidOracle(edges, rank, name="graphic")


def vector_matroid(field: FieldSpec, dim: int) -> MatroidOracle:
    """Ground set = all vectors of F_q^dim; rank = linear rank."""
    count = field.order ** dim
    if count > 4096:
        raise MatroidError(f"vector matroid ground set of {count} exceeds guard")
    g = flatspace.affine_geometry(field, dim + 1)
    ground = flatspace.enumerate_points(g)

    def rank(X):
        rows, _ = flatspace.rref_rows(field, list(X), dim)
        return len(rows)

    return MatroidOracle(ground, rank, name=f"vector(F_{field.order}^{dim})")


def geometry_matroid(g: GeometrySpec) -> MatroidOracle:
    """Points of AG/PG with rank = flat rank of the closure."""
    npts = flatspace.count_points(g)
    if npts > 4096:
        raise MatroidError(f"geometry with {npts} points exceeds guard")
    ground = flatspace.enumerate_points(g)
    K, d = g.field, g.ambient_dim

    if g.kind == "affine":
        def rank(X):
            if not X:
                return 0
            pts = sorted(X)
            return aff_closure(pts, K).rank
    else:
        def rank(X):
            rows, _ = flatspace.rref_rows(K, list(X), d)
            return len(rows)

    return MatroidOracle(ground, rank, name=f"geometry({g.kind},n={g.rank},q={g.q})")


# --- closure and axiom checks ------------------------------------------------

def closure(m: MatroidOracle, X) -> frozenset:
    X = frozenset(X)
    r = m.rank(X)
    return frozenset(x for x in m.ground if x in X or m.rank(X | {x}) == r)


def independent(m: MatroidOracle, X) -> bool:
    X = frozenset(X)
    return m.rank(X) == len(X)


def _check_ground(m: MatroidOracle, what: str):
    if len(m.ground) > EXHAUSTIVE_LIMIT:
        raise MatroidError(
            f"{what} is exhaustive; ground set of {len(m.ground)} exceeds "
            f"{EXHAUSTIVE_LIMIT}")


def _subsets(ground):
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            yield frozenset(combo)


def rank_axioms_check(m: MatroidOracle) -> CheckReport:
    """Bounds, monotonicity and (local, equivalent) submodularity, exhaustively."""
    _check_ground(m, "rank_axioms_check")
    ground = m.ground
    for X in _subsets(ground):
        rX = m.rank(X)
        if not 0 <= rX <= len(X):
            return CheckReport(False, f"0 <= r(X) <= |X| fails: r={rX}", (X,))
        rest = [x for x in ground if x not in X]
        singles = {}
        for x in rest:
            rx = m.rank(X | {x})
            singles[x] = rx
            if rx < rX:
                return CheckReport(False, "monotonicity fails", (X, x))
        for x, y in itertools.combinations(rest, 2):
            rxy = m.rank(X | {x, y})
            if rxy + rX > singles[x] + singles[y]:
                return CheckReport(False, "submodularity fails", (X, x, y))
    return CheckReport(True, "rank axioms hold")


def exchange_check(m: MatroidOracle) -> CheckReport:
    """Closure exchange property over all flats, exhaustively."""
    _check_ground(m, "exchange_check")
    for E in flats(m):
        rest = [x for x in m.ground if x not in E]
        for x in rest:
            clx = closure(m, E | {x})
            for y in rest:
                if y == x or y not in clx:
                    continue
                if x not in closure(m, E | {y}):
                    return CheckReport(False, "exchange property fails", (E, x, y))
    return CheckReport(True, "exchange property holds")


# --- lattice of flats --------------------------------------------------------

def flats(m: MatroidOracle):
    """All flats, ordered by (rank, elements)."""
    _check_ground(m, "flat enumeration")
    seen = {closure(m, X) for X in _subsets(m.ground)}
    return sorted(seen, key=lambda E: (m.rank(E), sorted(map(repr, E))))


class FlatsLattice:
    """The lattice of flats of a small matroid."""

    def __init__(self, m: MatroidOracle):
        self.matroid = m
        self.flats = flats(m)

    def __len__(self):
        return len(self.flats)

    def meet(self, E, F) -> frozenset:
        return frozenset(E) & frozenset(F)

    def join(self, E, F) -> frozenset:
        return closure(self.matroid, frozenset(E) | frozenset(F))

    def rank(self, E) -> int:
        return self.matroid.rank(E)

    def atoms(self):
        bottom_rank = self.matroid.rank(self.flats[0])
        return [E for E in self.flats if self.matroid.rank(E) == bottom_rank + 1]

    def by_rank(self):
        out = {}
        for E in self.flats:
            out.setdefault(self.matroid.rank(E), []).append(E)
        return out


def flats_lattice(m: MatroidOracle) -> FlatsLattice:
    return FlatsLattice(m)


def lattice_distance(m: MatroidOracle, E, F) -> int:
    """d(E, F) = 2 r(E v F) - r(E) - r(F) on flats."""
    j = closure(m, frozenset(E) | frozenset(F))
    return 2 * m.rank(j) - m.rank(E) - m.rank(F)


def lattice_distance_prime(m: MatroidOracle, E, F) -> int:
    """d'(E, F) = r(E v F) - min(r(E), r(F)) on flats."""
    j = closure(m, frozenset(E) | frozenset(F))
    return m.rank(j) - min(m.rank(E), m.rank(F))


# --- PMD typing ---------------------------------------------------------------

def pmd_type(m: MatroidOracle) -> PmdType:
    """Flat cardinalities by rank; raises NotAPmd with a witness pair."""
    groups = flats_lattice(m).by_rank()
    f = []
    for r in sorted(groups):
        sizes = {len(E) for E in groups[r]}
        if len(sizes) > 1:
            by_size = sorted(groups[r], key=len)
            raise NotAPmd(r, by_size[0], by_size[-1])
        f.append(sizes.pop())
    return PmdType(tuple(f))


def geometrize_type(t: PmdType) -> PmdType:
    """f'_i = (f_i - f_0) / (f_1 - f_0): loops deleted, parallels merged."""
    f = t.f
    if len(f) < 2 or f[1] <= f[0]:
        raise MatroidError("degenerate PMD type cannot be geometrized")
    unit = f[1] - f[0]
    out = []
    for fi in f:
        v = Fraction(fi - f[0], unit)
        if v.denominator != 1:
            raise MatroidError(f"non-integral geometrization at f_i={fi}")
        out.append(int(v))
    return PmdType(tuple(out))


def geometry_pmd_type(g: GeometrySpec) -> PmdType:
    """Closed-form PMD type of AG/PG of rank n."""
    q, n = g.q, g.rank
    if g.kind == "affine":
        return PmdType((0,) + tuple(q ** (i - 1) for i in range(1, n + 1)))
    return PmdType(tuple((q ** i - 1) // (q - 1) for i in range(n + 1)))
