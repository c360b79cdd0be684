"""Design verification in AG/PG, the lambda_s reduction, and the
classical-design expansions.

A FlatFamily is a geometry plus a deduplicated list of equal-rank flats
(blocks); an affine one is held as columns (dirs, dir_of, reps), which
every reader indexes, and makes its block objects only when asked.
verify_design counts, for every rank-t flat of the geometry, how many
blocks contain it, by tallying packed int keys (FlatKeys) of the blocks'
rank-t subflats, one group at a time: a subflat of a block with direction
D has a lift of a subspace of D as direction, so (entry of dirs, subflat
shape) pairs are grouped by that lift, and a group tallies the cosets of
one direction and is dropped.  subflats() gives the same subflats as
objects; the tests tally those as the oracle.  There is one packing,
FieldSpec.pack: tally keys, point_blocks and dirs_through key vectors by it.

All counts are exact integers; lambda_s is an exact Fraction.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, deque
from functools import cache

from . import flatspace
from .flatspace import (AffineFlat, GeometrySpec, LinearSubspace, combine,
                        count_flats, enumerate_flats, flat_rank)
from .galois import Record, _OnFirstRead


class DesignError(ValueError):
    pass


_spec, _d, _dir, _rep = map(operator.attrgetter, ("spec", "d", "dir", "rep"))


class FlatFamily(Record):
    """A uniform-rank family of flats in one geometry (design, code, spread).

    An affine family is held as columns: dirs, its distinct directions in
    order of first appearance, and per block dir_of, its index into dirs,
    and reps, its canonical rep; block_at maps, per entry, rep -> block
    index.  The fields, ==, hash, repr and pickle stay (geometry, blocks);
    blocks, the AffineFlats, is made from the columns on first read.
    from_columns takes columns; AffineFlats of one field (by identity, by
    value only if several objects) and d are put in columns.  One check on
    the columns: reps distinct per entry, one rank over the entries.
    Others (projective, empty, mixed) keep blocks, checked one at a time,
    and () as columns.  Errors come as a per-block check raises them: a
    duplicate, then a foreign block, then ranks.
    """

    # __dict__ holds blocks and the cached indexes; weakly referenceable
    __slots__ = ("geometry", "dirs", "dir_of", "reps", "block_at", "_rank", "__dict__",
                 "__weakref__")
    _fields = ("geometry", "blocks")

    def __post_init__(self):
        blocks, merged = self.blocks, {}  # merged: dir -> its index in dirs
        if (set(map(type, blocks)) != {AffineFlat} or len(set(map(_d, blocks))) > 1
                or len(set(map(id, map(_spec, blocks)))) > 1 and len(set(map(_spec, blocks))) > 1):
            return self._check(None, None, (), (), (), blocks)
        dir_of = tuple([merged.setdefault(D, len(merged)) for D in map(_dir, blocks)])
        self._check(blocks[0].spec, blocks[0].d, tuple(merged), dir_of, tuple(map(_rep, blocks)))

    @classmethod
    def from_columns(cls, g: GeometrySpec, dirs, dir_of, reps) -> "FlatFamily":
        """The affine family of blocks reps[i] + dirs[dir_of[i]] (distinct dirs over
        g, reps zero on their pivots)."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "geometry", g)
        fam._check(g.field, g.ambient_dim, tuple(dirs), tuple(dir_of), tuple(reps))
        return fam

    def _check(self, K, d, dirs, dir_of, reps, blocks=()):
        """Sets the columns of blocks over K^d, or () if blocks are given."""
        at = tuple({} for _ in dirs)  # per entry of dirs: rep -> index of its block
        deque(map(dict.__setitem__, map(at.__getitem__, dir_of), reps, range(len(reps))), 0)
        if sum(map(len, at)) != len(reps) or len(set(blocks)) != len(blocks):
            raise DesignError("blocks must be pairwise distinct")
        if reps:  # of one K and d: all or none are foreign
            flat_rank(AffineFlat.empty(K, d), self.geometry)
        ranks = ({flat_rank(b, self.geometry) for b in blocks}
                 | {len(D.rows) + 1 if D else 0 for D in dirs})
        if len(ranks) > 1:
            raise DesignError(f"blocks have mixed ranks {sorted(ranks)}")
        for name, value in zip(("dirs", "dir_of", "reps", "block_at", "_rank"),
                               (dirs, dir_of, reps, at, next(iter(ranks), None))):
            object.__setattr__(self, name, value)

    @_OnFirstRead
    def blocks(self) -> tuple:
        K, d = self.geometry.field, self.geometry.ambient_dim
        return tuple(map(AffineFlat, itertools.repeat(K), itertools.repeat(d), self.reps,
                         map(self.dirs.__getitem__, self.dir_of)))

    @property
    def block_rank(self) -> int:
        if self._rank is None:
            raise DesignError("empty family has no block rank")
        return self._rank

    @_OnFirstRead
    def point_blocks(self) -> dict:
        """Point -> indices of the blocks through it (affine families), built
        from the columns on first use (see codes.decode): keys are
        FieldSpec.pack ints, in the order of points(), and lists are
        ascending.  Over F_{2^e} a point is the packed rep ^ an offset; over
        odd p one itemgetter per digit gathers all a block's points from the
        rep's row of FlatKeys.rows (a lone index twice, to give a tuple)."""
        keys, index = FlatKeys(self.geometry, 1), {}
        if self.geometry.field.p == 2:
            rep, offsets = cache(keys.rep), keys.offsets(self)
            for i, r, o in zip(itertools.count(), self.reps, map(offsets.__getitem__, self.dir_of)):
                if o:  # not the empty flat
                    r = rep(r)
                    for x in o:
                        index.setdefault(r ^ x, []).append(i)
            return index
        entries = [(len(vs), [operator.itemgetter(*(col * 2 if len(vs) == 1 else col))
                              for col in zip(*vs)])
                   for vs in (D.vectors() if D else [] for D in self.dirs)]
        for i, r, (m, gathers) in zip(itertools.count(), self.reps,
                                      map(entries.__getitem__, self.dir_of)):
            points = itertools.repeat(0, m)  # m sums, not 2 for a lone vector
            for gather, row, c in zip(gathers, keys.rows, r or ()):
                points = map(operator.add, points, gather(row[c]))
            for x in points:
                index.setdefault(x, []).append(i)
        return index

    @_OnFirstRead
    def dirs_through(self) -> dict:
        """Packed vector with leading 1 -> indices of the entries of dirs holding it."""
        index, pack = {}, self.geometry.field.pack
        for j, D in enumerate(self.dirs):
            for v in D.vectors() if D else ():
                if next(filter(None, v), 0) == 1:
                    index.setdefault(pack(v), []).append(j)
        return index

    def __len__(self):
        return len(self.dir_of or self.blocks)


class DesignParams(Record):
    __slots__ = ("t", "k", "n", "lam", "q")

    def __post_init__(self):
        if not 1 <= self.t <= self.k <= self.n:
            raise DesignError(f"need 1 <= t <= k <= n, got {self}")


class ClassicalDesign(Record):
    """A classical design on points 0..v-1 with uniform block size."""

    __slots__ = ("point_count", "blocks")  # blocks: frozensets of indices

    def __post_init__(self):
        sizes, points = set(map(len, self.blocks)), frozenset().union(*self.blocks)
        if len(sizes) > 1:
            raise DesignError(f"non-uniform classical block sizes {sorted(sizes)}")
        if points and not 0 <= min(points) <= max(points) < self.point_count:
            raise DesignError("block index out of range")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0


class VerifyResult(Record):
    __slots__ = ("ok", "lam", "witness", "counts")
    _defaults = {"lam": None, "witness": None, "counts": ()}

    def __bool__(self):
        return self.ok


# --- subflat enumeration ------------------------------------------------------

def subflat_shapes(g: GeometrySpec, k: int, t: int) -> list:
    """The per-level part of subflats() for rank-k blocks, computed once:
    (S, cs) for each subspace S in block coordinates (dim t in PG, t-1 in
    AG) and the coset coefficient tuples cs, zero on S's pivots ([()] in PG)."""
    K = g.field
    if g.kind == "projective":
        return [(S, [()]) for S in flatspace.enumerate_subspaces(K, k, t)]
    if t == 0:
        return []
    lex = K.encodings_lex()
    return [(S, list(flatspace.coset_reps(k - 1, S.pivots, lex)))
            for S in flatspace.enumerate_subspaces(K, k - 1, t - 1)]


def subflats(block, t: int, g: GeometrySpec, shapes=None):
    """All rank-t flats in block; shapes is subflat_shapes(g, k, t).  A coset
    rep + c*dir is canonical as rep is zero on dir's pivots and c on S's.
    FlatKeys.groups gives their keys, per block in this order (parts)."""
    if shapes is None:
        shapes = subflat_shapes(g, flat_rank(block, g), t)
    if g.kind == "projective":
        return [_lift(S, block) for S, _ in shapes]
    K, d, D = block.spec, block.d, block.dir
    if t == 0:
        return [AffineFlat.empty(K, d)]
    out = []
    for S, cs in shapes:
        T = _lift(S, D)
        out += [AffineFlat(K, d, rep, T)
                for rep in sorted(combine(K, block.rep, c, D.rows) for c in cs)]
    return out


def _lift(S: LinearSubspace, basis: LinearSubspace) -> LinearSubspace:
    """S, in coordinates over basis.rows, in F_q^d.  Both are RREF, so the
    lifted rows are too, with pivots basis.pivots[i] for S's pivots i."""
    zero = (0,) * basis.d
    rows = tuple(combine(basis.spec, zero, row, basis.rows) for row in S.rows)
    return LinearSubspace(basis.spec, basis.d, rows,
                          tuple(basis.pivots[i] for i in S.pivots))


class FlatKeys:
    """Canonical int keys of the rank-t flats of g, for the subflat tally.

    A vector packs by FieldSpec.pack into fixed-width digits, most
    significant first, so int order is tuple order.  A subspace's key is
    its packed RREF rows; an affine flat's key puts its direction's packed
    rows, G, above its packed rep, bits wide (a subspace's G is its key, and
    bits 0).  Both parts are canonical, so equal flats have equal keys.
    """

    def __init__(self, g: GeometrySpec, t: int):
        K = g.field
        self.g, self.t = g, t
        self.bits = K._width * g.ambient_dim if g.kind == "affine" else 0
        self.pack = K.pack
        self.unpack = lambda x: K.unpack(x, g.ambient_dim)
        # add(rep(v), offset(o)) packs v + o, chosen once per field: over F_{2^e}
        # by one ^; over odd p an offset is d rows of the add table (rows), row i
        # that of o_i shifted to digit i, and v + o packs as the sum of v's cells
        if K.p == 2:
            self.rep, self.offset, self.add = K.pack, K.pack, operator.xor
            return
        w, d, getrow = K._width, g.ambient_dim, list.__getitem__
        self.rows = [[[x << s for x in row] for row in K._add] for s in range(w * (d - 1), -1, -w)]
        self.rep, self.offset = tuple, lambda v: list(map(getrow, self.rows, v))
        self.add = lambda r, o: sum(map(getrow, o, r))

    def key(self, f) -> int:
        """The key of a rank-t flat of g."""
        if self.g.kind == "projective":
            return self.pack(itertools.chain(*f.rows))
        return 0 if f.is_empty else self.pack(itertools.chain(*f.dir.rows, f.rep))

    def flat(self, key: int):
        """The rank-t flat of g with this key."""
        K, d = self.g.field, self.g.ambient_dim
        vectors = [self.unpack(key >> K._width * d * i) for i in reversed(range(self.t))]
        if self.g.kind == "projective":
            return LinearSubspace.from_rows(K, d, vectors)
        if self.t == 0:
            return AffineFlat.empty(K, d)
        *rows, rep = vectors  # an affine key packs t-1 rows, then the rep
        return AffineFlat(K, d, rep, LinearSubspace.from_rows(K, d, rows))

    def offsets(self, fam: FlatFamily) -> list:
        """Each entry of fam.dirs as its vectors, each an offset ([] for None,
        the empty flat's): a block's points are add(rep(b.rep), o) for each o
        of its entry."""
        return [[self.offset(v) for v in D.vectors()] if D else [] for D in fam.dirs]

    def groups(self, fam: FlatFamily) -> dict:
        """fam's rank-t subflats (t >= 1) by the high part G of their keys: G ->
        [(reps, offsets)], a pair per entry of fam.dirs (block, in PG) and shape,
        keys G << bits | add(r, o).  Sets self.reps, per entry its blocks' packed
        reps (0 in PG), and self.parts, per entry (G, offsets) by subflats()."""
        g, K = self.g, self.g.field
        zero, shapes = (0,) * g.ambient_dim, subflat_shapes(g, fam.block_rank, self.t)
        self.reps = [[self.rep(zero)]] * len(fam) if not fam.dir_of else [[] for _ in fam.dirs]
        deque(map(list.append, map(self.reps.__getitem__, fam.dir_of),
                  map(cache(self.rep), fam.reps)), 0)
        self.parts = [[(self.pack(itertools.chain(*_lift(S, D).rows)),
                        [self.offset(combine(K, zero, c, D.rows)) for c in cs])
                       for S, cs in shapes] for D in fam.dirs or fam.blocks]
        groups = {}
        for reps, part in zip(self.reps, self.parts):
            for G, offsets in part:
                groups.setdefault(G, []).append((reps, offsets))
        return groups

    def tally(self, pairs) -> Counter:
        """How often each add(r, o) occurs in a group's pairs (reps, offsets)."""
        tally = Counter()
        for reps, offsets in pairs:
            for o in offsets:
                tally.update(map(self.add, reps, itertools.repeat(o)))
        return tally


# --- verification -------------------------------------------------------------

def verify_design(fam: FlatFamily, t: int) -> VerifyResult:
    """Common containment count lambda over all rank-t flats, or a witness."""
    g = fam.geometry
    if not len(fam):
        raise DesignError("cannot verify an empty family")
    k = fam.block_rank
    if not 0 <= t <= k:
        raise DesignError(f"t={t} is outside [0, block rank {k}]")
    if t == 0:  # the one rank-0 flat lies in every block
        return VerifyResult(True, lam=len(fam))
    keys = FlatKeys(g, t)
    groups, tally = keys.groups(fam), cache(lambda G: keys.tally(groups.get(G, ())))
    J, reps = fam.dir_of or range(len(fam)), list(map(iter, keys.reps))
    res = _judge(map(keys.tally, groups.values()), count_flats(g, t),
                 lambda: map(keys.key, flatspace.iter_flats(g, t)),
                 lambda key: tally(key >> keys.bits)[key % (1 << keys.bits)],
                 (key for j, r in zip(J, map(next, map(reps.__getitem__, J)))
                  for G, offsets in keys.parts[j]
                  for key in sorted([G << keys.bits | keys.add(r, o) for o in offsets])))
    return res if res.witness is None else VerifyResult(
        res.ok, res.lam, keys.flat(res.witness), res.counts)


def _judge(tallies, total: int, everything, count, blockwise) -> VerifyResult:
    """lambda when the tallies, Counters of disjoint keys, count all `total`
    equally often.  Else the witness is the first key of everything() that
    count(key) finds uncovered, else the first key of blockwise counted least."""
    covered, values = 0, set()
    for tally in tallies:
        covered += len(tally)
        values.update(tally.values())
    if len(values) == 1 and covered == total:
        return VerifyResult(True, lam=values.pop())
    lo, walk = (0, everything()) if covered < total else (min(values), blockwise)
    witness = next(key for key in walk if count(key) == lo)
    return VerifyResult(False, witness=witness, counts=(lo, max(values, default=0)))


def lambda_s(p: DesignParams, typ, s: int):
    """Derived index: lambda * prod_{i=s}^{t-1} (f_n - f_i) / (f_k - f_i), a
    Fraction, for the f of typ, a matroid.PmdType."""
    from fractions import Fraction
    if not 0 <= s <= p.t:
        raise DesignError(f"s={s} out of range [0, {p.t}]")
    f = typ.f
    if len(f) < p.n + 1:
        raise DesignError("PMD type too short for design parameters")
    val = Fraction(p.lam)
    for i in range(s, p.t):
        val *= Fraction(f[p.n] - f[i], f[p.k] - f[i])
    return val


def complete_design(g: GeometrySpec, k: int) -> FlatFamily:
    """All rank-k flats; trivially a t-design for every t <= k."""
    return FlatFamily(g, tuple(enumerate_flats(g, k)))


# --- point indexing and classical expansion ------------------------------------

def point_index(g: GeometrySpec):
    """Ground points of AG/PG in serialization order, with index lookup."""
    pts = sorted(flatspace.enumerate_points(g),
                 key=lambda v: tuple(g.field.decode(c) for c in v))
    return pts, {p: i for i, p in enumerate(pts)}


def expand_subspace_design(fam: FlatFamily) -> ClassicalDesign:
    """Blocks become their projective point sets (sizes [k]_q)."""
    g = fam.geometry
    if g.kind != "projective":
        raise DesignError("expand_subspace_design needs a projective family")
    _, index = point_index(g)
    K = g.field
    blocks = []
    for b in fam.blocks:
        pts = {flatspace.normalize_projective_point(K, v)
               for v in b.vectors() if any(v)}
        blocks.append(frozenset(index[p] for p in pts))
    return ClassicalDesign(len(index), tuple(blocks))


def expand_affine_design(fam: FlatFamily, t: int) -> ClassicalDesign:
    """Blocks become their point sets (sizes q^(k-1)).

    Valid for t = 2 always, and t = 3 when q = 2 (three points of an
    F_2 space are never collinear, so point triples and planes agree).
    """
    g = fam.geometry
    if g.kind != "affine":
        raise DesignError("expand_affine_design needs an affine family")
    if not (t == 2 or (t == 3 and g.q == 2)):
        raise DesignError(f"unsupported expansion: t={t}, q={g.q}")
    pts, _ = point_index(g)
    index = dict(zip(map(g.field.pack, pts), range(len(pts))))  # by packed point
    keys = FlatKeys(g, 1)
    rep, add, offsets = cache(keys.rep), keys.add, keys.offsets(fam)
    blocks = []
    for r, o in zip(fam.reps, map(offsets.__getitem__, fam.dir_of)):
        r = o and rep(r)  # the empty flat has no points
        blocks.append(frozenset([index[add(r, x)] for x in o]))
    return ClassicalDesign(len(pts), tuple(blocks))


def verify_classical(design: ClassicalDesign, t: int) -> VerifyResult:
    """Brute-force coverage count of all t-subsets of the point set."""
    tally = Counter()
    for b in design.blocks:
        for combo in itertools.combinations(sorted(b), t):
            tally[combo] += 1
    v = design.point_count
    return _judge([tally], math.comb(v, t), lambda: itertools.combinations(range(v), t),
                  tally.__getitem__, tally)


def ev11_compose(fam: FlatFamily) -> ClassicalDesign:
    """2-(n,k,lam) subspace design over F_2 -> classical 3-(2^n, 2^k, lam)."""
    g = fam.geometry
    if g.kind != "projective":
        raise DesignError("ev11_compose needs a projective family")
    if g.q != 2:
        raise DesignError("ev11_compose requires q = 2")
    from .construct import translate_closure
    if not fam.blocks:
        return ClassicalDesign(flatspace.count_points(
            flatspace.affine_geometry(g.field, g.rank + 1)), ())
    return expand_affine_design(translate_closure(fam), 3)


# --- parallel-class analysis ----------------------------------------------------

def parallel_classes(fam: FlatFamily) -> int:
    """Number of distinct direction subspaces among the blocks."""
    if fam.geometry.kind != "affine":
        raise DesignError("parallel classes are an affine notion")
    if not len(fam):
        raise DesignError("empty family")
    return len(fam.dirs)


def is_skew(fam: FlatFamily) -> bool:
    """True iff no two blocks are parallel (every direction occurs once)."""
    return parallel_classes(fam) == len(fam)
