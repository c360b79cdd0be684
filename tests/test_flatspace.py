import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affgeo import (AffineFlat, GeometryError, GuardExceeded, LinearSubspace,
                    aff_closure, aff_join, aff_meet,
                    affine_geometry, count_flats, count_points,
                    enumerate_flats, enumerate_points, enumerate_subspaces,
                    field_new, flat_rank, gaussian_binomial,
                    hyperplane_restriction, lin_join, lin_meet,
                    normalize_projective_point, parallel,
                    projective_completion, projective_geometry)
from affgeo.flatspace import rref_rows

F2 = field_new(2)
F3 = field_new(3)


def sub(spec, d, *rows):
    return LinearSubspace.from_rows(spec, d, rows)


def test_rref_canonical_form():
    # two generating sets of the same plane give the identical object
    a = sub(F2, 3, (1, 1, 0), (0, 1, 1))
    b = sub(F2, 3, (1, 0, 1), (1, 1, 0))
    assert a == b and hash(a) == hash(b)
    assert a.dim == 2


def test_rref_idempotent_and_membership():
    U = sub(F3, 3, (1, 2, 0), (2, 1, 1), (0, 0, 0))
    assert U.dim == 2
    assert LinearSubspace.from_rows(F3, 3, U.rows) == U
    assert LinearSubspace.from_rows(F3, 3, [(2, 1, 1), (1, 2, 0)]) == U
    vecs = U.vectors()
    assert len(vecs) == 9 and len(set(vecs)) == 9
    assert all(U.contains_vector(v) for v in vecs)
    assert not U.contains_vector((1, 0, 0))


def test_lin_meet_join_agree_with_bruteforce():
    spaces = [
        sub(F2, 4, (1, 0, 0, 0), (0, 1, 0, 0)),
        sub(F2, 4, (0, 1, 1, 0), (0, 0, 1, 1)),
        sub(F2, 4, (1, 1, 1, 1), (1, 0, 1, 0)),
    ]
    for U, V in itertools.product(spaces, repeat=2):
        M = lin_meet(U, V)
        assert set(M.vectors()) == set(U.vectors()) & set(V.vectors())
        J = lin_join(U, V)
        assert J.dim + M.dim == U.dim + V.dim  # modular law for subspaces
        assert J.contains(U) and J.contains(V)


def test_affine_flat_canonical_representative():
    dirU = sub(F2, 3, (1, 0, 0))
    # reps differing by a direction vector give the same flat
    f1 = AffineFlat.coset((1, 1, 0), dirU)
    f2 = AffineFlat.coset((0, 1, 0), dirU)
    assert f1 == f2 and hash(f1) == hash(f2)
    # canonical rep is zero on the pivot columns of the direction
    assert f1.rep[0] == 0


def test_empty_flat():
    e = AffineFlat.empty(F2, 3)
    assert e.is_empty and e.rank == 0
    assert list(e.points()) == []
    p = aff_closure([(1, 0, 0)], F2)
    q = aff_closure([(0, 1, 0)], F2)
    assert aff_meet(p, q) == e


def test_aff_meet_matches_pointwise_intersection():
    g = affine_geometry(F2, 4)  # AG(3, 2)
    flats = []
    for r in range(1, 5):
        flats.extend(enumerate_flats(g, r))
    for E, F in itertools.islice(itertools.product(flats, repeat=2), 0, None, 7):
        M = aff_meet(E, F)
        assert set(M.points()) == set(E.points()) & set(F.points())


def test_aff_join_is_closure_of_union():
    E = aff_closure([(1, 0, 0)], F2)
    F = AffineFlat.coset((0, 1, 0), sub(F2, 3, (0, 0, 1)))
    J = aff_join(E, F)
    assert J == aff_closure(E.points() + F.points(), F2)
    assert J.rank == 3


def test_parallel():
    dirU = sub(F2, 3, (1, 0, 0))
    a = AffineFlat.coset((0, 0, 0), dirU)
    b = AffineFlat.coset((0, 1, 0), dirU)
    assert parallel(a, b) and a != b
    c = AffineFlat.coset((0, 0, 0), sub(F2, 3, (0, 1, 0)))
    assert not parallel(a, c)
    with pytest.raises(GeometryError):
        parallel(a, AffineFlat.empty(F2, 3))


def test_geometry_counts_ag32():
    g = affine_geometry(F2, 4)  # AG(3, 2): points, lines, planes, whole space
    assert count_points(g) == 8
    assert [count_flats(g, r) for r in range(5)] == [1, 8, 28, 14, 1]
    assert len(enumerate_flats(g, 2)) == 28
    assert len(enumerate_flats(g, 3)) == 14


def test_geometry_counts_pg32():
    g = projective_geometry(F2, 4)  # PG(3, 2)
    assert count_points(g) == 15
    assert [count_flats(g, r) for r in range(5)] == [1, 15, 35, 15, 1]
    assert len(enumerate_flats(g, 2)) == 35


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 7) == 57
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 4, 2) == 0


def test_enumerate_subspaces_count():
    assert sum(1 for _ in enumerate_subspaces(F2, 4, 2)) == 35
    assert sum(1 for _ in enumerate_subspaces(F3, 3, 1)) == 13


def test_enumerate_ag27_lines():
    F7 = field_new(7)
    g = affine_geometry(F7, 3)  # AG(2, 7)
    assert count_flats(g, 2) == 56
    lines = enumerate_flats(g, 2)
    assert len(lines) == 56 and len(set(lines)) == 56
    assert all(len(ell.points()) == 7 for ell in lines)


def test_enumeration_guard():
    F5 = field_new(5)
    with pytest.raises(GuardExceeded):
        enumerate_flats(affine_geometry(F5, 13), 6)


def test_flat_rank_conventions():
    ag = affine_geometry(F2, 4)
    pg = projective_geometry(F2, 4)
    pt = aff_closure([(1, 1, 0)], F2)
    assert flat_rank(pt, ag) == 1
    with pytest.raises(GeometryError):
        flat_rank(pt, affine_geometry(F2, 3))  # wrong ambient dimension
    assert flat_rank(sub(F2, 4, (1, 0, 0, 0)), pg) == 1
    assert flat_rank(sub(F2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), pg) == 2


def test_projective_normalization():
    assert normalize_projective_point(F3, (0, 2, 1)) == (0, 1, 2)
    with pytest.raises(GeometryError):
        normalize_projective_point(F3, (0, 0, 0))


def test_enumerate_points():
    assert len(enumerate_points(affine_geometry(F3, 3))) == 9
    pg_pts = enumerate_points(projective_geometry(F3, 3))
    assert len(pg_pts) == 13
    assert all(p == normalize_projective_point(F3, p) for p in pg_pts)


def test_completion_restriction_roundtrip():
    g = affine_geometry(F2, 4)
    for r in range(1, 5):
        for E in enumerate_flats(g, r):
            S = projective_completion(E)
            assert S.dim == E.rank
            assert hyperplane_restriction(S) == E


def test_restriction_of_hyperplane_at_infinity_is_empty():
    S = sub(F2, 3, (0, 1, 0), (0, 0, 1))  # contained in x0 = 0
    assert hyperplane_restriction(S).is_empty


@st.composite
def flats_f2_3(draw):
    pts = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        min_size=1, max_size=4))
    return aff_closure(pts, F2)


@settings(max_examples=60, deadline=None)
@given(flats_f2_3(), flats_f2_3())
def test_canonical_equality_iff_same_point_set(E, F):
    assert (E == F) == (set(E.points()) == set(F.points()))
    if E == F:
        assert hash(E) == hash(F)


@settings(max_examples=60, deadline=None)
@given(flats_f2_3(), flats_f2_3())
def test_semimodular_inequality_af(E, F):
    assert aff_meet(E, F).rank + aff_join(E, F).rank <= E.rank + F.rank


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=8))))
def test_packed_aff_closure_matches_tuple_closure(case):
    # the XOR-basis closure on FieldSpec.pack ints against the tuple row kernel
    d, pts = case
    packed, flat = aff_closure([F2.pack(p) for p in pts], F2, d), aff_closure(pts, F2)
    assert packed.unpack() == flat and packed.rank == flat.rank


def rref_by_columns(K, rows, d):
    """The oracle for rref_rows: column-by-column Gauss-Jordan elimination
    on the first d columns (the kernel rref_rows replaced)."""
    add, mul, neg = K._add, K._mul, K._neg
    work, pivots, r = [list(row) for row in rows], [], 0
    for col in range(d):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        if work[r][col] != 1:
            work[r] = [mul[K._inv[work[r][col]]][x] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                mc = mul[neg[work[i][col]]]
                work[i] = [add[x][mc[y]] for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(map(tuple, work[:r])), tuple(pivots)


ODD_FIELDS = {"F3": field_new(3), "F4": field_new(2, 2), "F5": field_new(5),
              "F9": field_new(3, 2)}


def _random_vectors(K, rng, n, width):
    """n vectors of F_q^width, some repeated and some zero."""
    out = []
    for _ in range(n):
        pick = rng.random()
        if out and pick < 0.25:
            out.append(rng.choice(out))
        else:
            out.append(tuple(0 if pick > 0.9 else rng.randrange(K.order) for _ in range(width)))
    return out


@pytest.mark.parametrize("K", [F2, *ODD_FIELDS.values()], ids=["F2", *ODD_FIELDS])
def test_rref_rows_matches_column_elimination(K):
    rng = random.Random(K.order)
    for _ in range(400):
        d, extra = rng.randint(1, 5), rng.choice((0, 0, 2))
        rows = _random_vectors(K, rng, rng.randint(0, 6), d + extra)
        got, want = rref_rows(K, rows, d), rref_by_columns(K, rows, d)
        if extra:  # eliminated on the first d columns only: the rest is not canonical
            got, want = [(tuple(r[:d] for r in x[0]), x[1]) for x in (got, want)]
        assert got == want, (rows, d)


@pytest.mark.parametrize("K", ODD_FIELDS.values(), ids=ODD_FIELDS.keys())
def test_odd_aff_closure_matches_from_rows_path(K):
    """The q > 2 closure against coset(base, from_rows(differences)), the
    path it replaced, with the column-elimination kernel: 1-6 points of
    F_q^d, d <= 4, duplicates included; equal flats, equal rows and pivots."""
    rng = random.Random(K.order * 7)
    for _ in range(300):
        d = rng.randint(1, 4)
        pts = _random_vectors(K, rng, rng.randint(1, 6), d)
        diffs = {tuple(K.sub(x, y) for x, y in zip(p, pts[0])) for p in pts[1:]}
        want = AffineFlat.coset(pts[0], LinearSubspace(K, d, *rref_by_columns(K, diffs, d)))
        got = aff_closure(pts, K)
        assert got == want and got.rank == want.rank, pts
        assert (got.dir.rows, got.dir.pivots) == (want.dir.rows, want.dir.pivots), pts
        assert got.points() and set(pts) <= set(got.points())


def test_packed_aff_closure_needs_f2():
    with pytest.raises(GeometryError):
        aff_closure([0, 1], F3, 2)
    with pytest.raises(GeometryError):
        aff_closure([], F2, 2)
