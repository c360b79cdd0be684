"""Design verification in AG/PG, the lambda_s reduction, and the
classical-design expansions.

A FlatFamily is a geometry plus a deduplicated list of equal-rank flats
(blocks); an affine one is held as columns (dirs, dir_of, reps), which
every reader indexes, and makes its block objects only when asked.
verify_design counts, for every rank-t flat of the geometry, how many
blocks contain it, by enumerating each block's rank-t subflats and
tallying, which is linear in the blocks rather than in all (t-flat, block)
pairs.  The tally counts packed int keys (FlatKeys), not flat objects: a
block's subflat keys are FlatKeys.add of its rep and offsets made once per
entry of dirs.  subflats() gives the same subflats as objects; the tests
tally those as the oracle.  There is one packing, FieldSpec.pack: the
tally keys, FlatFamily.point_blocks and FlatFamily.dirs_through all key
vectors by it.

All counts are exact integers; lambda_s is an exact Fraction.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, deque
from functools import cache, cached_property

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

    @cached_property
    def point_blocks(self) -> dict:
        """Point -> indices of the blocks through it (affine families), built
        from the columns on first use, which in decode is a received point:
        keys are FieldSpec.pack ints, in the order of points(), and lists are
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

    @cached_property
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
    AG) and, in AG, the coset coefficient tuples cs, zero on S's pivots."""
    K = g.field
    if g.kind == "projective":
        return [(S, ()) for S in flatspace.enumerate_subspaces(K, k, t)]
    if t == 0:
        return []
    lex = K.encodings_lex()
    return [(S, list(flatspace.coset_reps(k - 1, S.pivots, lex)))
            for S in flatspace.enumerate_subspaces(K, k - 1, t - 1)]


def subflats(block, t: int, g: GeometrySpec, shapes=None):
    """All rank-t flats in block; shapes is subflat_shapes(g, k, t).  A coset
    rep + c*dir is canonical as rep is zero on dir's pivots and c on S's.
    FlatKeys.subflats gives their keys, in this order."""
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
    rows above its packed rep.  Both parts are canonical, so equal flats
    have equal keys.
    """

    def __init__(self, g: GeometrySpec, t: int):
        K = g.field
        self.g, self.t = g, t
        self.bits = K._width * g.ambient_dim
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
        vectors = [self.unpack(key >> self.bits * i) for i in reversed(range(self.t))]
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

    def subflats(self, fam: FlatFamily):
        """Per block of fam, the keys of its rank-t subflats in subflats() order.

        Each entry D of fam.dirs has its lifted shapes packed and its coset
        offsets c*D.rows made once; a block adds its rep to the offsets of
        its entry, fam.dirs[fam.dir_of[i]], by FlatKeys.add.
        """
        g, t = self.g, self.t
        shapes = subflat_shapes(g, fam.block_rank, t)
        if g.kind == "projective":
            for B in fam.blocks:
                yield [self.pack(itertools.chain(*_lift(S, B).rows)) for S, _ in shapes]
            return
        if t == 0:
            for _ in range(len(fam)):
                yield [0]
            return
        K, zero, bits = g.field, (0,) * g.ambient_dim, self.bits
        rep, add, parts = cache(self.rep), self.add, [None] * len(fam.dirs)
        for r, j in zip(fam.reps, fam.dir_of):
            if (dir_parts := parts[j]) is None:  # on first use: the meet rank may stop early
                D = fam.dirs[j]
                dir_parts = parts[j] = [(self.pack(itertools.chain(*_lift(S, D).rows)) << bits,
                                         [self.offset(combine(K, zero, c, D.rows)) for c in cs])
                                        for S, cs in shapes]
            r, keys = rep(r), []
            for dir_key, offsets in dir_parts:
                keys += sorted([dir_key | add(r, o) for o in offsets])
            yield keys


# --- verification -------------------------------------------------------------

def verify_design(fam: FlatFamily, t: int) -> VerifyResult:
    """Common containment count lambda over all rank-t flats, or a witness."""
    g = fam.geometry
    if not len(fam):
        raise DesignError("cannot verify an empty family")
    k = fam.block_rank
    if not 0 <= t <= k:
        raise DesignError(f"t={t} is outside [0, block rank {k}]")
    keys = FlatKeys(g, t)
    tally = Counter(itertools.chain.from_iterable(keys.subflats(fam)))
    res = _judge(tally, count_flats(g, t),
                 lambda: map(keys.key, flatspace.iter_flats(g, t)))
    return res if res.witness is None else VerifyResult(
        res.ok, res.lam, keys.flat(res.witness), res.counts)


def _judge(tally: Counter, total: int, everything) -> VerifyResult:
    """lambda when all `total` keys are counted equally often, else a witness.

    everything() lists every key; it is walked only when some key is
    uncovered, and the first uncovered one is the witness.
    """
    values = set(tally.values())
    if len(values) == 1 and len(tally) == total:
        return VerifyResult(True, lam=values.pop())
    if len(tally) < total:
        observed = max(values) if values else 0
        for key in everything():
            if key not in tally:
                return VerifyResult(False, witness=key, counts=(0, observed))
    lo, hi = min(values), max(values)
    wit = next(key for key, c in tally.items() if c == lo)
    return VerifyResult(False, witness=wit, counts=(lo, hi))


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
    return _judge(tally, math.comb(v, t),
                  lambda: itertools.combinations(range(v), t))


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
