"""Constructions: Desarguesian spreads, translation closure and its
inverse, the affine Steiner family, and graph codes of affine
polynomials.

The spread realizes F_q^n as an n/k-dimensional space over F_{q^k}
through the subfield embedding and takes the one-dimensional
F_{q^k}-subspaces, each expanded back to a k-dimensional F_q-subspace
via the basis {1, beta, ..., beta^(k-1)}.  Both affine constructions
are translate closures: the Steiner family of a spread, the polynomial
code of its graph directions; neither builds a block object or sorts one.
"""

from __future__ import annotations

import functools
import itertools

from . import flatspace
from .design import FlatFamily
from .flatspace import (AffineFlat, LinearSubspace, affine_geometry,
                        projective_geometry)
from .galois import embed, field_new, field_of_order


class ConstructError(ValueError):
    pass


def desarguesian_spread(n: int, k: int, q: int) -> FlatFamily:
    """Projective S(1, k, n): a partition of PG into rank-k subspaces."""
    if k < 1 or n % k != 0:
        raise ConstructError(f"spread needs k >= 1 and k | n, got k={k}, n={n}")
    F = field_of_order(q)
    flatspace.check_guard((q ** n - 1) // (q ** k - 1), "blocks")
    K = field_new(F.p, F.e * k)
    emb = embed(F, K)
    m = n // k
    big = projective_geometry(K, m)
    blocks = []
    basis = [emb.beta_pows[j] for j in range(k)]  # 1, beta, ..., beta^(k-1)
    for u in flatspace.enumerate_points(big):
        rows = []
        for b in basis:
            w = tuple(K.mul(b, c) for c in u)
            row = []
            for c in w:
                row.extend(emb.to_vector_enc(c))
            rows.append(tuple(row))
        blocks.append(LinearSubspace.from_rows(F, n, rows))
    blocks.sort(key=LinearSubspace.sort_key)
    return FlatFamily(projective_geometry(F, n), tuple(blocks))


def translate_closure(B: FlatFamily) -> FlatFamily:
    """All cosets {v + U | U in B, v in V}, as columns in sort_key order:
    blocks sorted and grouped by pivots share their canonical reps, taken in
    integer order as sort_key compares them, so no coset is sorted.  The
    FlatFamily check of the result still rejects duplicate cosets."""
    g = B.geometry
    if g.kind != "projective":
        raise ConstructError("translate_closure expects linear (projective) blocks")
    flatspace.check_guard(sum(g.q ** (g.rank - U.dim) for U in B.blocks), "blocks")
    dirs = sorted(B.blocks, key=LinearSubspace.sort_key)
    dir_of, reps = [], []
    for pivots, group in itertools.groupby(range(len(dirs)), key=lambda j: dirs[j].pivots):
        js, rs = list(group), list(flatspace.coset_reps(g.rank, pivots, range(g.q)))
        dir_of += js * len(rs)  # each rep is a coset of each of the group in turn
        reps += itertools.chain.from_iterable(itertools.repeat(r, len(js)) for r in rs)
    return FlatFamily.from_columns(affine_geometry(g.field, g.rank + 1), dirs, dir_of, reps)


def through_zero(D: FlatFamily) -> FlatFamily:
    """Blocks containing the origin, reinterpreted as linear subspaces."""
    g = D.geometry
    if g.kind != "affine":
        raise ConstructError("through_zero expects an affine family")
    zero = (0,) * g.ambient_dim
    blocks = sorted((D.dirs[j] for j, rep in zip(D.dir_of, D.reps) if rep == zero),
                    key=LinearSubspace.sort_key)
    return FlatFamily(projective_geometry(g.field, g.rank - 1), tuple(blocks))


def affine_steiner(k: int, ell: int, q: int) -> FlatFamily:
    """Affine Steiner system S(2, k+1, k*ell + 1) from a spread."""
    if k < 1 or ell < 1:
        raise ConstructError("need k >= 1 and ell >= 1")
    n = k * ell  # the spread's (q^n - 1)/(q^k - 1) blocks, q^(n-k) cosets each
    field_of_order(q)  # a prime power, so q^k - 1 > 0
    flatspace.check_guard((q ** n - 1) // (q ** k - 1) * q ** (n - k), "blocks")
    return translate_closure(desarguesian_spread(n, k, q))


def affine_poly_code(q: int, m: int, ell: int, t: int,
                     U: AffineFlat | None = None) -> FlatFamily:
    """Graphs of affine polynomials a + sum f_i X^(q^i), i < t-1, on U.

    U is an F_q-affine subspace of F_{q^m} of dimension ell, given in
    beta-basis coordinates (ambient F_q^m); default is the span of
    {1, beta, ..., beta^(ell-1)}.  Blocks live in AG of rank
    ell + m + 1: the first ell coordinates locate x within U, the last
    m hold g(x) in beta-basis coordinates.  On U = x0 + <u_i>, the graph
    of a + f is (0, a + f(x0)) + {(c, f(sum c_i u_i))}, a coset of f's graph
    direction, and as a runs over F_{q^m} so does a + f(x0): the blocks are
    all cosets of the q^(m(t-1)) graph directions (their translate_closure),
    so U's rep does not change the family.
    """
    if t < 1:
        raise ConstructError("need t >= 1")
    if not t - 1 <= ell <= m:
        raise ConstructError(f"need t-1 <= ell <= m, got ell={ell}, m={m}, t={t}")
    F = field_of_order(q)
    L = field_new(F.p, F.e * m)
    flatspace.check_guard(L.order ** t, "blocks")
    emb = embed(F, L)
    if U is None:
        rows = [tuple(1 if j == i else 0 for j in range(m)) for i in range(ell)]
        U = AffineFlat.coset((0,) * m, LinearSubspace.from_rows(F, m, rows))
    if U.is_empty or U.d != m or U.spec != F:
        raise ConstructError("U must be a nonempty affine flat in F_q^m coordinates")
    if U.dir.dim != ell:
        raise ConstructError(f"U has dimension {U.dir.dim}, expected {ell}")
    # f's graph direction has rows (e_i, f(u_i)), f(u) = sum f_j u^(q^j), for
    # the rows u_i of U's direction; the q-powers of each u are taken once
    pows = [[L.pow(emb.from_vector_enc(r), q ** j) for j in range(t - 1)] for r in U.dir.rows]
    units = [tuple(1 if j == i else 0 for j in range(ell)) for i in range(ell)]
    graphs = []
    for f in itertools.product(range(L.order), repeat=t - 1):
        rows = [e + emb.to_vector_enc(functools.reduce(L.add, map(L.mul, f, up), 0))
                for e, up in zip(units, pows)]
        graphs.append(LinearSubspace.from_rows(F, ell + m, rows))
    return translate_closure(FlatFamily(projective_geometry(F, ell + m), tuple(graphs)))
