import itertools

import pytest

from affgeo import (AffineFlat, ConstructError, FlatFamily, GuardExceeded,
                    LinearSubspace, affine_geometry, affine_poly_code,
                    affine_steiner, desarguesian_spread, embed, enumerate_subspaces,
                    field_new, field_of_order, is_skew, lin_meet,
                    max_pairwise_meet_rank, parallel_classes,
                    projective_geometry, through_zero, translate_closure,
                    verify_design)
from affgeo import construct, flatspace
from affgeo.blockfile import render
from affgeo.flatspace import iter_flats
from affgeo.galois import FieldSpec, _least_irreducible
from canonical_order import canonical

F2 = field_new(2)


def old_cosets(U):
    """Every coset of U by the per-coset loop that flatspace.cosets replaced:
    canonical reps in rep-lex order of the encodings."""
    K, d = U.spec, U.d
    nonpivot = [j for j in range(d) if j not in U.pivots]
    for values in itertools.product(K.encodings_lex(), repeat=len(nonpivot)):
        rep = [0] * d
        for j, val in zip(nonpivot, values):
            rep[j] = val
        yield AffineFlat(K, d, tuple(rep), U)


def closure_oracle(B):
    """The translation closure as a sort of all cosets by sort_key."""
    return sorted((f for U in B.blocks for f in old_cosets(U)),
                  key=lambda f: f.sort_key())


@pytest.mark.parametrize("n,k,q", [(4, 2, 2), (6, 2, 2), (6, 3, 2), (8, 2, 2),
                                   (4, 2, 3), (6, 3, 3), (4, 2, 4), (4, 2, 5),
                                   (4, 2, 8), (4, 2, 9)])
def test_translate_closure_builds_sort_key_order(n, k, q):
    B = desarguesian_spread(n, k, q)
    assert list(translate_closure(B).blocks) == closure_oracle(B)


def test_translate_closure_order_of_an_unsorted_family():
    """Not a spread, not sorted, and several pivot groups of several blocks."""
    F4 = field_new(2, 2)
    planes = list(enumerate_subspaces(F4, 4, 2))[::37][::-1]
    assert planes != sorted(planes, key=lambda U: U.sort_key())
    groups = [len(list(g)) for _, g in itertools.groupby(
        sorted(planes, key=lambda U: U.sort_key()), key=lambda U: U.pivots)]
    assert len(groups) > 2 and max(groups) > 1
    B = FlatFamily(projective_geometry(F4, 4), tuple(planes))
    closed = translate_closure(B)
    assert list(closed.blocks) == closure_oracle(B)
    assert len(closed) == len(planes) * 16


@pytest.mark.parametrize("q,n,r", [(4, 3, 2), (4, 4, 3), (9, 3, 2)])
def test_iter_flats_keeps_encodings_lex_order(q, n, r):
    K = field_new(*{4: (2, 2), 9: (3, 2)}[q])
    g = affine_geometry(K, n)
    flats = list(iter_flats(g, r))
    assert flats == [f for U in enumerate_subspaces(K, n - 1, r - 1)
                     for f in old_cosets(U)]
    # encodings_lex is not integer order here, so neither is this
    assert flats != sorted(flats, key=lambda f: f.sort_key())


def test_spread_partitions_pg():
    fam = desarguesian_spread(4, 2, 2)  # 5 lines partitioning PG(3, 2)
    assert fam.geometry.kind == "projective" and fam.geometry.rank == 4
    assert len(fam) == 5
    assert all(b.dim == 2 for b in fam.blocks)
    seen = set()
    for b in fam.blocks:
        pts = {v for v in b.vectors() if any(v)}
        assert not (pts & seen)
        seen |= pts
    assert len(seen) == 15
    # pairwise trivial intersection
    assert max_pairwise_meet_rank(fam) == 0


def test_spread_counts():
    fam = desarguesian_spread(6, 3, 2)  # (2^6-1)/(2^3-1) = 9 blocks
    assert len(fam) == 9
    fam = desarguesian_spread(4, 2, 3)  # (81-1)/(9-1) = 10 blocks
    assert len(fam) == 10


def test_spread_requires_divisibility():
    with pytest.raises(ConstructError):
        desarguesian_spread(5, 2, 2)


def test_translate_closure_counts_and_roundtrip():
    spread = desarguesian_spread(4, 2, 2)
    closed = translate_closure(spread)
    # each rank-2 subspace contributes q^(n-k) distinct cosets
    assert len(closed) == 5 * 4
    assert closed.geometry.kind == "affine"
    back = through_zero(closed)
    assert back == canonical(spread)


def test_through_zero_picks_exactly_subspaces():
    spread = desarguesian_spread(6, 2, 2)
    closed = translate_closure(spread)
    zero = (0,) * 6
    expected = sum(1 for b in closed.blocks if b.contains_vector(zero))
    assert len(through_zero(closed)) == expected == len(spread)


def test_affine_steiner_degenerate_k1():
    fam = affine_steiner(1, 3, 2)  # blocks are all 2-point lines of AG(3, 2)
    assert fam.geometry.kind == "affine"
    assert len(fam) == 28
    res = verify_design(fam, 2)
    assert res.ok and res.lam == 1


def test_affine_steiner_s234():
    fam = affine_steiner(2, 2, 2)  # S(2, 4, 16) in AG(4, 2)
    assert len(fam) == 20
    res = verify_design(fam, 2)
    assert res.ok and res.lam == 1


def test_affine_steiner_f7():
    fam = affine_steiner(1, 2, 7)  # all lines of AG(2, 7): trivial spread
    res = verify_design(fam, 2)
    assert res.ok and res.lam == 1
    assert len(fam) == 56


def test_affine_steiner_parallelism():
    fam = affine_steiner(2, 2, 2)
    # translate closure keeps whole parallel classes: 5 directions, 4 cosets
    assert parallel_classes(fam) == 5
    assert not is_skew(fam)


def test_poly_code_block_count_and_shape():
    fam = affine_poly_code(2, 2, 2, 2)  # q=2, m=2, ell=2, t=2: 16 blocks
    assert len(fam) == 16
    assert fam.geometry.ambient_dim == 4
    assert all(b.rank == 3 for b in fam.blocks)  # graphs over a 2-dim domain
    assert max_pairwise_meet_rank(fam) <= 1


def test_poly_code_meet_bound_t2():
    fam = affine_poly_code(2, 3, 2, 2)  # 64 blocks in AG(5, 2)
    assert len(fam) == 64
    # graphs of distinct degree-(q^(t-2)) maps agree on < q^(t-1) points
    assert max_pairwise_meet_rank(fam) <= 1


def test_poly_code_custom_domain():
    rows = [(1, 0, 0), (0, 1, 0)]
    U = AffineFlat.coset((0, 0, 1), LinearSubspace.from_rows(F2, 3, rows))
    fam = affine_poly_code(2, 3, 2, 2, U=U)
    assert len(fam) == 64
    assert all(b.rank == 3 for b in fam.blocks)


@pytest.mark.parametrize("q,m", [(2, 9), (19, 2)])
def test_poly_code_builds_no_table_of_the_big_field(monkeypatch, q, m):
    built = []

    def fresh_field(p, e):  # outside field_new's cache, so no other test built its tables
        built.append(FieldSpec(p, e, _least_irreducible(p, e)))
        return built[-1]

    monkeypatch.setattr(construct, "field_new", fresh_field)
    fam = affine_poly_code(q, m, 1, 1)
    (L,) = built
    assert L.order == q ** m and len(fam) == q ** m
    assert not {"_add", "_mul"} & vars(L).keys()
    monkeypatch.undo()
    assert fam.blocks == affine_poly_code(q, m, 1, 1).blocks


def reference_poly_code(q: int, m: int, ell: int, t: int,
                        U: AffineFlat | None = None) -> FlatFamily:
    """The per-block builder that affine_poly_code replaced: one AffineFlat
    per (f, a), its rep at a + f(x0), sorted by sort_key and regrouped."""
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


F3 = field_new(3)
NONZERO_REP_DOMAINS = {  # (q, m, ell, t) -> a U whose rep is not 0
    (2, 3, 2, 3): AffineFlat.coset((1, 1, 1), LinearSubspace.from_rows(F2, 3, [(1, 1, 0), (0, 1, 1)])),
    (3, 3, 2, 2): AffineFlat.coset((2, 1, 0), LinearSubspace.from_rows(F3, 3, [(1, 2, 0), (0, 1, 1)])),
    (3, 3, 1, 2): AffineFlat.coset((0, 0, 2), LinearSubspace.from_rows(F3, 3, [(0, 1, 2)])),
}


@pytest.mark.parametrize("q,m,ell,t,U", [
    *[(q, m, ell, t, None) for q, m, ell, t in [
        (2, 2, 2, 2), (2, 3, 3, 3), (3, 2, 2, 2), (3, 2, 2, 3), (3, 2, 0, 1), (2, 1, 1, 2),
        (5, 2, 2, 2), (4, 2, 1, 2), (9, 2, 1, 2), (16, 2, 1, 1), (19, 2, 1, 1), (2, 9, 1, 1)]],
    *[(*args, U) for args, U in NONZERO_REP_DOMAINS.items()],
])
def test_poly_code_is_the_per_block_builder(q, m, ell, t, U):
    """The translate closure of the graph directions is the family the
    per-block builder made: the same ordered blocks, columns and file."""
    fam, ref = affine_poly_code(q, m, ell, t, U=U), reference_poly_code(q, m, ell, t, U=U)
    assert fam.blocks == ref.blocks
    assert (fam.dirs, fam.dir_of, fam.reps) == (ref.dirs, ref.dir_of, ref.reps)
    assert render(fam) == render(ref)


@pytest.mark.parametrize("args,U", NONZERO_REP_DOMAINS.items())
def test_poly_code_ignores_the_rep_of_its_domain(args, U):
    zero = AffineFlat.coset((0,) * U.d, U.dir)
    assert affine_poly_code(*args, U=U) == affine_poly_code(*args, U=zero)


def test_poly_code_guard_before_any_graph_direction(monkeypatch):
    calls = []
    from_rows = LinearSubspace.from_rows.__func__
    monkeypatch.setattr(LinearSubspace, "from_rows",
                        classmethod(lambda cls, *a: calls.append(a) or from_rows(cls, *a)))
    with pytest.raises(GuardExceeded):  # 512^3 blocks
        affine_poly_code(2, 9, 3, 3)
    assert calls == []
    affine_poly_code(2, 3, 2, 2)  # the counter counts: U's direction and 8 graphs
    assert len(calls) == 9


def test_poly_code_param_validation():
    with pytest.raises(ConstructError):
        affine_poly_code(2, 3, 4, 2)  # ell > m
    with pytest.raises(ConstructError):
        affine_poly_code(2, 3, 1, 3)  # ell < t - 1
    with pytest.raises(ConstructError):
        affine_poly_code(2, 3, 2, 0)


def test_translate_closure_guard_before_building():
    g = projective_geometry(F2, 30)
    line = LinearSubspace.from_rows(F2, 30, [(1,) + (0,) * 29])
    with pytest.raises(GuardExceeded):  # 2^29 cosets of one line
        translate_closure(FlatFamily(g, (line,)))
