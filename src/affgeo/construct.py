"""Constructions: Desarguesian spreads, translation closure and its
inverse, the affine Steiner family, and graph codes of affine
polynomials.

The spread realizes F_q^n as an n/k-dimensional space over F_{q^k}
through the subfield embedding and takes the one-dimensional
F_{q^k}-subspaces, each expanded back to a k-dimensional F_q-subspace
via the basis {1, beta, ..., beta^(k-1)}.
"""

from __future__ import annotations

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
    m hold g(x) in beta-basis coordinates.
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

    d = ell + m
    geom = affine_geometry(F, d + 1)
    x0 = emb.from_vector_enc(U.rep)
    dirs = [emb.from_vector_enc(r) for r in U.dir.rows]
    # q-power images of the direction vectors and of the base point
    x0_pows = [L.pow(x0, q ** i) for i in range(max(t - 1, 1))]
    dir_pows = [[L.pow(u, q ** i) for i in range(max(t - 1, 1))] for u in dirs]

    lenc = list(range(L.order))
    blocks = []
    zero_l = (0,) * ell
    for f in itertools.product(lenc, repeat=t - 1):
        # linear part: graph direction rows depend on f only
        rows = []
        for i, u in enumerate(dirs):
            img = 0
            for fc, up in zip(f, dir_pows[i]):
                if fc:
                    img = L.add(img, L.mul(fc, up))
            e_i = tuple(1 if j == i else 0 for j in range(ell))
            rows.append(e_i + emb.to_vector_enc(img))
        dir_sub = LinearSubspace.from_rows(F, d, rows)
        f_at_x0 = 0
        for fc, xp in zip(f, x0_pows):
            if fc:
                f_at_x0 = L.add(f_at_x0, L.mul(fc, xp))
        for a in lenc:
            g_x0 = L.add(a, f_at_x0)
            rep = zero_l + emb.to_vector_enc(g_x0)
            blocks.append(AffineFlat.coset(rep, dir_sub))
    blocks.sort(key=AffineFlat.sort_key)
    fam = FlatFamily(geom, tuple(blocks))
    if len(fam) != L.order ** t:
        raise ConstructError("distinct polynomials produced coinciding blocks")
    return fam
