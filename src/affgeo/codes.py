"""Distances and deletion-correction predicates on flats.

subspace_distance is the projective (Grassmannian) metric; d_wedge is
its affine analog via meets, which fails the triangle inequality --
metric_violation_witness produces the standard two-parallel-planes
configuration.  The decoder is containment-based: a received subflat of
rank >= t identifies its block uniquely in a partial S(t, k, n).
"""

from __future__ import annotations

import math

from . import flatspace
from .design import FlatFamily
from .flatspace import (AffineFlat, GeometryError, GeometrySpec,
                        LinearSubspace, aff_meet, lin_meet)

INFINITY = math.inf


class DecodeError(Exception):
    pass


class Erasure(DecodeError):
    """No block contains the received flat."""


class Ambiguity(DecodeError):
    """Several blocks contain the received flat (possible only below rank t)."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"{len(self.candidates)} candidate blocks")


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


def _meet_rank(a, b, affine: bool) -> int:
    if affine:
        return aff_meet(a, b).rank
    return lin_meet(a, b).dim


def max_pairwise_meet_rank(fam: FlatFamily) -> int:
    """Largest rank of a meet of two distinct blocks (0 for a singleton)."""
    blocks = fam.blocks
    if len(blocks) < 2:
        return 0
    g = fam.geometry
    affine = g.kind == "affine"
    q = g.q
    if affine and q ** g.ambient_dim <= 1 << 20:
        # intersection of cosets is a coset, so its size is a power of q
        sets = [frozenset(b.points()) for b in blocks]
        best = 0
        for i in range(len(sets)):
            si = sets[i]
            for j in range(i + 1, len(sets)):
                n = len(si & sets[j])
                if n:
                    r = round(math.log(n, q)) + 1
                    if r > best:
                        best = r
        return best
    best = 0
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            r = _meet_rank(blocks[i], blocks[j], affine)
            if r > best:
                best = r
    return best


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
    affine = g.kind == "affine"
    k = flatspace.flat_rank(E, g)
    return k - _meet_rank(E, Ep, affine) - 1


def tau_bruteforce(E, Ep, g: GeometrySpec) -> int:
    """min over all flats F of max(Delta(E,F), Delta(E',F)) - 1.

    Exhaustive oracle for the closed form above; desk scale only.
    """
    best = INFINITY
    for r in range(g.rank + 1):
        for F in flatspace.enumerate_flats(g, r):
            v = max(deletion_discrepancy(E, F), deletion_discrepancy(Ep, F))
            if v < best:
                best = v
    return int(best) - 1


def correction_radius(fam: FlatFamily) -> int:
    """min pairwise tau; a singleton family gets k - 1 by convention."""
    if not fam.blocks:
        raise GeometryError("empty family has no correction radius")
    k = fam.block_rank
    if len(fam.blocks) == 1:
        return k - 1
    return k - max_pairwise_meet_rank(fam) - 1


class _PointIndex:
    """Point -> blocks map to prune containment scans in small ambients."""

    def __init__(self, fam: FlatFamily):
        self.index = {}
        for b in fam.blocks:
            for p in b.points():
                self.index.setdefault(p, []).append(b)

    def candidates(self, received: AffineFlat):
        return self.index.get(received.rep, ())


_decode_indexes: dict = {}


def decode(fam: FlatFamily, received):
    """The unique block containing the received flat.

    Raises Erasure when no block contains it and Ambiguity when several
    do (possible only when the received rank is below the Steiner t).
    """
    g = fam.geometry
    affine = g.kind == "affine"
    if affine and not isinstance(received, AffineFlat):
        raise GeometryError("received flat must be affine for an affine code")
    rank = flatspace.flat_rank(received, g)
    if rank < 1:
        raise GeometryError("received flat must have rank >= 1")
    if affine and g.q ** g.ambient_dim <= 1 << 20:
        idx = _decode_indexes.get(fam)
        if idx is None:
            idx = _decode_indexes[fam] = _PointIndex(fam)
        pool = idx.candidates(received)
    else:
        pool = fam.blocks
    hits = [b for b in pool if b.contains(received)]
    if not hits:
        raise Erasure("no block contains the received flat")
    if len(hits) > 1:
        raise Ambiguity(hits)
    return hits[0]
