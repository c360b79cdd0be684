"""Distances and deletion-correction predicates on flats.

subspace_distance is the projective (Grassmannian) metric; d_wedge is
its affine analog via meets, which fails the triangle inequality --
metric_violation_witness produces the standard two-parallel-planes
configuration.  The decoder finds block indices by direction, or a point's
in the point index on many directions: a received subflat of rank >= t
identifies its block uniquely in a partial S(t, k, n).  The largest
pairwise meet rank m, which fixes the correction radius k - m - 1, comes
from a collision tally of the blocks' subflats, by the packed int keys
of design.FlatKeys, one subflat direction at a time (FlatKeys.groups):
its cost is the number of rank-(m+1) subflats of the blocks, against b^2
pairwise meets, in the memory of one direction's cosets.
"""

from __future__ import annotations

import functools

from . import design, flatspace
from .design import FlatFamily
from .flatspace import (AffineFlat, GeometryError, GeometrySpec,
                        LinearSubspace, PackedFlat, aff_meet, lin_meet)
from .galois import _OnFirstRead


@functools.total_ordering
class _Infinity:
    """Exact +infinity for discrepancies: above every number, equal only to itself."""

    def __gt__(self, other):
        return other is not self

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


class DecodeError(Exception):
    pass


class Erasure(DecodeError):
    """No block contains the received flat."""


class Ambiguity(DecodeError):
    """Several blocks contain the received flat (possible only below rank t):
    Ambiguity(candidates), or from decode the ascending indices of fam's
    blocks, whose candidates are made from fam's columns on first read."""

    def __init__(self, candidates=(), fam=None, indices=()):
        self.family, self.indices = fam, tuple(indices)
        if fam is None:
            self.candidates = tuple(candidates)
        super().__init__(f"{len(self.indices or self.candidates)} candidate blocks")

    @_OnFirstRead
    def candidates(self) -> tuple:
        return tuple([_block(self.family, i) for i in self.indices])


def subspace_distance(E: LinearSubspace, F: LinearSubspace) -> int:
    """dim E + dim F - 2 dim(E ^ F); the subspace-code metric."""
    return E.dim + F.dim - 2 * lin_meet(E, F).dim


def d_wedge(E: AffineFlat, F: AffineFlat) -> int:
    """r(E) + r(F) - 2 r(E ^ F) on affine flats; NOT a metric."""
    return E.rank + F.rank - 2 * aff_meet(E, F).rank


def metric_violation_witness(g: GeometrySpec):
    """(E, T, F) with d_wedge(E, F) > d_wedge(E, T) + d_wedge(T, F).

    E, F are parallel planes and T a plane meeting each in a line.
    """
    if g.kind != "affine" or g.rank < 4:
        raise GeometryError("witness needs an affine geometry of rank >= 4")
    K, d = g.field, g.ambient_dim
    e = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    plane01 = LinearSubspace.from_rows(K, d, [e[0], e[1]])
    plane02 = LinearSubspace.from_rows(K, d, [e[0], e[2]])
    E = AffineFlat.coset((0,) * d, plane01)
    F = AffineFlat.coset(e[2], plane01)
    T = AffineFlat.coset((0,) * d, plane02)
    return E, T, F


def max_pairwise_meet_rank(fam: FlatFamily) -> int:
    """Largest rank of a meet of two distinct blocks (0 for a singleton).

    Ascending collision tally: a meet of flats is a flat, so the meet
    rank is at least r exactly when some rank-r flat lies in two blocks.
    Level r = 1, 2, ..., k-1 tallies the packed keys of the blocks' rank-r
    subflats one group (subflat direction) at a time, design.FlatKeys.groups,
    and stops at the first group with a key counted twice (a block's own
    subflats are distinct); the answer is r-1 for the first level with no
    repeat, or k-1.  Cost: the rank-(m+1) subflats of all blocks, against
    b^2 meets for a pairwise scan, in the memory of one group's tally: at
    most q^(d-r+1) keys, the cosets of one direction.
    """
    if len(fam) < 2:
        return 0
    g, k = fam.geometry, fam.block_rank
    for r in range(1, k):
        keys = design.FlatKeys(g, r)
        if all(max(tally.values()) == 1 for tally in map(keys.tally, keys.groups(fam).values())):
            return r - 1
    return k - 1


def is_partial_steiner(fam: FlatFamily, t: int) -> bool:
    """True iff all pairwise meets have rank < t."""
    return max_pairwise_meet_rank(fam) < t


def deletion_discrepancy(E, F):
    """r(E) - r(F) when F is contained in E, infinity otherwise."""
    if not E.contains(F):
        return INFINITY
    if isinstance(E, AffineFlat):
        return E.rank - F.rank
    return E.dim - F.dim


def tau(E, Ep, g: GeometrySpec) -> int:
    """k - r(E ^ E') - 1: deletions survivable against this competitor."""
    meet = aff_meet(E, Ep) if g.kind == "affine" else lin_meet(E, Ep)
    return flatspace.flat_rank(E, g) - flatspace.flat_rank(meet, g) - 1


def correction_radius(fam: FlatFamily) -> int:
    """min pairwise tau = k - m - 1 for meet rank m; a singleton gets k - 1."""
    if not len(fam):
        raise GeometryError("empty family has no correction radius")
    return fam.block_rank - max_pairwise_meet_rank(fam) - 1


def _block(fam: FlatFamily, i: int):
    """Block i of fam, made from the columns of an affine family."""
    if not fam.dir_of:
        return fam.blocks[i]
    g = fam.geometry
    return AffineFlat(g.field, g.ambient_dim, fam.reps[i], fam.dirs[fam.dir_of[i]])


def decode(fam: FlatFamily, received):
    """The unique block containing the received flat, made from the columns.

    Each lookup gives the ascending indices of the blocks holding the flat.
    In each entry of fam.dirs holding all its RREF rows (fam.dirs_through;
    every entry for a point), its rep reduced by that direction is looked up
    in fam.block_at.  A point goes to fam.point_blocks instead, built on
    first use, unless the family has fewer directions than a block has
    points: len(fam.dirs) < q^(k-1).  A projective family is scanned.  A
    PackedFlat over F_2 (what aff_closure gives for packed points) has its
    rows and rep packed already.  Raises Erasure when no block contains
    it and Ambiguity, with the indices, when several do (possible only when
    the received rank is below the Steiner t).
    """
    g = fam.geometry
    affine, packed = g.kind == "affine", isinstance(received, PackedFlat)
    if affine and not (packed or isinstance(received, AffineFlat)):
        raise GeometryError("received flat must be affine for an affine code")
    rank = flatspace.flat_rank(received, g)
    if rank < 1:
        raise GeometryError("received flat must have rank >= 1")
    K, dirs, at = g.field, fam.dirs, fam.block_at
    if not affine:
        found = [i for i, b in enumerate(fam.blocks) if b.contains(received)]
    elif rank == 1 and not (len(fam) and len(dirs) * g.q < g.q ** fam.block_rank):
        found = fam.point_blocks.get(received.rep if packed else K.pack(received.rep), ())
    else:
        rows = received.rows if packed else [K.pack(row) for row in received.dir.rows]
        js = fam.dirs_through.get(rows[0], ()) if rows else range(len(dirs))
        if len(rows) > 1:
            js = set(js).intersection(*[fam.dirs_through.get(x, ()) for x in rows[1:]])
        rep = K.unpack(received.rep, g.ambient_dim) if packed else received.rep
        found = sorted([i for j in js if (i := at[j].get(flatspace.reduce_vector(
            K, dirs[j].rows, dirs[j].pivots, rep), -1)) >= 0])
    if not found:
        raise Erasure("no block contains the received flat")
    if len(found) > 1:
        raise Ambiguity(fam=fam, indices=found)
    return _block(fam, found[0])
