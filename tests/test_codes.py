import gc
import itertools
import random
import weakref

import pytest

from affgeo import (AffineFlat, Ambiguity, Erasure, FlatFamily, GeometrySpec,
                    LinearSubspace, aff_closure, aff_meet,
                    affine_geometry, affine_poly_code, affine_steiner,
                    complete_design, correction_radius, d_wedge, decode,
                    deletion_discrepancy, desarguesian_spread,
                    enumerate_flats, field_new, is_partial_steiner, lin_meet,
                    max_pairwise_meet_rank, metric_violation_witness,
                    projective_geometry, subspace_distance, tau)
from affgeo import flatspace
from affgeo.codes import INFINITY
from affgeo.design import subflats

F2 = field_new(2)


def sub(spec, d, *rows):
    return LinearSubspace.from_rows(spec, d, rows)


def test_subspace_distance_is_metric_on_pg32():
    subs = enumerate_flats(projective_geometry(F2, 4), 2)
    sample = subs[::3]
    for E in sample:
        assert subspace_distance(E, E) == 0
        for F in sample:
            assert subspace_distance(E, F) == subspace_distance(F, E)
            for T in sample[::2]:
                assert (subspace_distance(E, F)
                        <= subspace_distance(E, T) + subspace_distance(T, F))


def test_subspace_distance_values():
    a = sub(F2, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    b = sub(F2, 4, (1, 0, 0, 0), (0, 0, 1, 0))
    c = sub(F2, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert subspace_distance(a, b) == 2
    assert subspace_distance(a, c) == 4


def test_d_wedge_violates_triangle_inequality():
    g = affine_geometry(F2, 4)
    E, T, F = metric_violation_witness(g)
    lhs = d_wedge(E, F)
    rhs = d_wedge(E, T) + d_wedge(T, F)
    assert lhs == 6 and rhs == 4
    assert lhs > rhs


def test_deletion_discrepancy():
    line = aff_closure([(0, 0, 0), (1, 0, 0)], F2)
    pt = aff_closure([(0, 0, 0)], F2)
    out = aff_closure([(0, 1, 0)], F2)
    assert deletion_discrepancy(line, pt) == 1
    assert deletion_discrepancy(line, line) == 0
    assert deletion_discrepancy(line, out) == INFINITY


def test_infinity_is_exact():
    """No float enters the tau decision; the sentinel still tops every int."""
    assert not isinstance(INFINITY, float)
    assert all(n < INFINITY and not INFINITY <= n for n in (0, 7, 10 ** 400))
    assert max(3, INFINITY) is INFINITY and not INFINITY < INFINITY


def tau_bruteforce(E, Ep, g: GeometrySpec) -> int:
    """min over all flats F of max(Delta(E,F), Delta(E',F)) - 1.

    Exhaustive oracle for the closed form in codes.tau; desk scale only.
    """
    best = INFINITY
    for r in range(g.rank + 1):
        for F in flatspace.enumerate_flats(g, r):
            v = max(deletion_discrepancy(E, F), deletion_discrepancy(Ep, F))
            if v < best:
                best = v
    return int(best) - 1


def test_tau_matches_bruteforce_on_ag22():
    g = affine_geometry(F2, 3)
    lines = enumerate_flats(g, 2)
    for E, Ep in itertools.combinations(lines, 2):
        assert tau(E, Ep, g) == tau_bruteforce(E, Ep, g)


def test_partial_steiner_and_radius():
    fam = affine_steiner(2, 2, 2)  # S(2, 4, 16): blocks rank 3
    assert max_pairwise_meet_rank(fam) == 1
    assert is_partial_steiner(fam, 2)
    assert not is_partial_steiner(fam, 1)
    assert correction_radius(fam) == 1


def test_singleton_radius_convention():
    g = affine_geometry(F2, 4)
    fam = FlatFamily(g, (enumerate_flats(g, 3)[0],))
    assert correction_radius(fam) == 2
    assert max_pairwise_meet_rank(fam) == 0


def test_decode_success_erasure_ambiguity():
    fam = affine_steiner(2, 2, 2)
    g = fam.geometry
    block = fam.blocks[0]
    pts = block.points()
    # a line inside the block decodes uniquely (radius 1: one deletion)
    line = aff_closure(pts[:2], F2)
    assert decode(fam, line) == block
    # the whole block decodes to itself
    assert decode(fam, block) == block
    # a single point is ambiguous: it lies on lambda_1 = 5 blocks
    with pytest.raises(Ambiguity) as exc:
        decode(fam, aff_closure(pts[:1], F2))
    assert len(exc.value.candidates) == 5
    assert block in exc.value.candidates
    # a flat contained in no block is an erasure
    non_block_plane = next(
        f for f in enumerate_flats(g, 3) if f not in set(fam.blocks))
    with pytest.raises(Erasure):
        decode(fam, non_block_plane)


def test_decode_all_lines_of_all_blocks():
    fam = affine_steiner(2, 2, 2)
    for block in fam.blocks:
        for line in subflats(block, 2, fam.geometry):
            assert decode(fam, line) == block


def _packed(flat):
    """The closure over F_2 of flat's rep and rep + each row, as packed ints."""
    K, d = flat.spec, flat.d
    rep = K.pack(flat.rep)
    return aff_closure([rep] + [rep ^ K.pack(row) for row in flat.dir.rows], K, d)


def _outcome(fam, received):
    try:
        return decode(fam, received)
    except Ambiguity as exc:
        return exc.candidates
    except Erasure:
        return Erasure


def test_decode_packed_flat_as_its_unpacked_flat():
    fam = affine_steiner(2, 2, 2)
    for flat in [*enumerate_flats(fam.geometry, 1), *enumerate_flats(fam.geometry, 2),
                 *enumerate_flats(fam.geometry, 3)]:
        assert _outcome(fam, _packed(flat)) == _outcome(fam, flat)
    # AG(21, 2) is too large for the point index: decode scans the blocks
    g = affine_geometry(F2, 22)
    planes = [AffineFlat.coset(v, LinearSubspace.from_rows(F2, 21, rows)) for v, rows in [
        ((1,) * 21, [(1,) + (0,) * 20, (0, 1) + (0,) * 19]),
        ((0,) * 21, [(1,) + (0,) * 20, (0,) * 20 + (1,)])]]
    fam = FlatFamily(g, tuple(planes))
    line = aff_closure([planes[1].rep, planes[1].dir.rows[0]], F2)
    erased = aff_closure([(0, 1) + (0,) * 19], F2)
    assert _outcome(fam, erased) is Erasure
    for flat in [*planes, line, erased]:
        assert _outcome(fam, _packed(flat)) == _outcome(fam, flat)


def pairwise_meet_rank(fam):
    """Oracle for the collision tally: the largest meet rank over all pairs."""
    affine = fam.geometry.kind == "affine"
    return max((aff_meet(a, b).rank if affine else lin_meet(a, b).dim
                for a, b in itertools.combinations(fam.blocks, 2)), default=0)


AG32 = affine_geometry(F2, 4)
AG32_PLANES = enumerate_flats(AG32, 3)
AG33 = affine_geometry(field_new(3), 4)

MEET_RANK_FAMILIES = {
    "ag32-lines": lambda: complete_design(AG32, 2),
    "ag32-planes": lambda: complete_design(AG32, 3),
    "pg32-spread": lambda: desarguesian_spread(4, 2, 2),
    "s237": lambda: affine_steiner(2, 3, 2),
    "poly-q3": lambda: affine_poly_code(3, 2, 2, 2),
    "singleton": lambda: FlatFamily(AG32, AG32_PLANES[:1]),
    "two-parallel-planes": lambda: FlatFamily(AG32, tuple(
        p for p in AG32_PLANES if p.dir == AG32_PLANES[0].dir)),
    "two-meeting-planes": lambda: FlatFamily(AG32, (
        AG32_PLANES[0],
        next(p for p in AG32_PLANES if aff_meet(AG32_PLANES[0], p).rank == 2))),
}


@pytest.mark.parametrize("make", MEET_RANK_FAMILIES.values(),
                         ids=MEET_RANK_FAMILIES.keys())
def test_meet_rank_tally_matches_pairwise_scan(make):
    fam = make()
    m = pairwise_meet_rank(fam)
    assert max_pairwise_meet_rank(fam) == m
    assert correction_radius(fam) == fam.block_rank - m - 1


def test_decoded_family_is_not_kept_alive():
    # a family no other test builds, so no equal family is cached elsewhere
    s5 = affine_steiner(2, 2, 2)
    fam = FlatFamily(s5.geometry, s5.blocks[:7])
    block = fam.blocks[0]
    line = subflats(block, 2, fam.geometry)[0]
    assert decode(fam, line) == block
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None


DECODE_ORACLE_FAMILIES = {  # family, ranks with an ambiguous / an erased flat
    "ag32-planes": (lambda: complete_design(AG32, 3), {1, 2}, set()),  # 3 planes per line
    "s237": (lambda: affine_steiner(2, 3, 2), {1}, {3}),
    "s2-f4": (lambda: affine_steiner(2, 2, 4), {1}, {3}),
    # odd q: F_3 digits pack 2 bits wide and add by table rows, not by ^
    "poly-q3": (lambda: affine_poly_code(3, 2, 2, 2), {1}, {2, 3}),
    # odd q, and a vector lies in 4 of the 13 directions: 4 planes per line
    "ag33-planes": (lambda: complete_design(AG33, 3), {1, 2}, set()),
}


def decode_outcome(decoder, fam, flat):
    """(returned block, exception type, candidates) of one decode."""
    try:
        return decoder(fam, flat), None, ()
    except (Ambiguity, Erasure) as exc:
        return None, type(exc), getattr(exc, "candidates", ())


@pytest.mark.parametrize("make, ambiguous_ranks, erased_ranks",
                         DECODE_ORACLE_FAMILIES.values(), ids=DECODE_ORACLE_FAMILIES.keys())
def test_decode_matches_linear_contains_scan_on_every_flat(make, ambiguous_ranks,
                                                           erased_ranks):
    fam = make()
    # A block holds a flat only if it holds the flat's points, so testing
    # the point sets first skips contains() calls, not hits of the scan.
    point_sets = [frozenset(b.points()) for b in fam.blocks]

    def linear_scan(fam, flat):
        pts = frozenset(flat.points())
        hits = [b for b, on in zip(fam.blocks, point_sets)
                if pts <= on and b.contains(flat)]
        if not hits:
            raise Erasure("no block contains the received flat")
        if len(hits) > 1:
            raise Ambiguity(hits)
        return hits[0]

    seen = set()
    for r in range(1, fam.block_rank + 1):
        for flat in enumerate_flats(fam.geometry, r):
            got = decode_outcome(decode, fam, flat)
            assert got == decode_outcome(linear_scan, fam, flat), (r, flat)
            seen.add((r, got[1]))
    assert {r for r, exc in seen if exc is Ambiguity} == ambiguous_ranks
    assert (fam.block_rank, None) in seen
    # every line lies in a block (two Steiner S(2,3,n), all planes of AG(3,2)),
    # so with the ambiguous ranks above each line of s237 and s2-f4 decodes;
    # the poly code's lines of no block are erased
    assert {r for r, exc in seen if exc is Erasure} == erased_ranks


@pytest.mark.parametrize("make", [
    lambda: complete_design(AG32, 3),
    lambda: complete_design(AG33, 3),
    lambda: affine_steiner(2, 2, 2),
    lambda: affine_poly_code(3, 2, 2, 2),
], ids=["ag32-planes", "ag33-planes", "s235", "poly-q3"])
def test_decode_by_direction_matches_linear_scan(make):
    """Every flat of rank >= 2, as an AffineFlat and over F_2 also as a
    PackedFlat, decodes as a scan of fam.blocks does: the same block, or
    the same Ambiguity candidates in the order of fam.blocks, which here
    is not the order of fam.dirs.  No point index is built on the way."""
    fam = make()
    fam = FlatFamily(fam.geometry, tuple(random.Random(5).sample(fam.blocks, len(fam.blocks))))

    def scan(fam, flat):
        hits = [b for b in fam.blocks if b.contains(flat)]
        if not hits:
            raise Erasure("no block contains the received flat")
        if len(hits) > 1:
            raise Ambiguity(hits)
        return hits[0]

    outcomes = set()
    for r in range(2, fam.block_rank + 1):
        for flat in enumerate_flats(fam.geometry, r):
            want = decode_outcome(scan, fam, flat)
            assert decode_outcome(decode, fam, flat) == want, flat
            if fam.geometry.q == 2:
                assert decode_outcome(decode, fam, _packed(flat)) == want, flat
            outcomes.add(want[1])
    assert "point_blocks" not in vars(fam)
    assert outcomes == {None, Ambiguity} or outcomes >= {None, Erasure}


def _big_field_family():
    """Twelve planes of AG(6, 16), q^d = 2^24 > 2^20: three directions, four
    cosets each, one through the origin, so the origin lies on three."""
    K, rng = field_new(2, 4), random.Random(16)
    dirs = []
    while len(dirs) < 3:
        D = LinearSubspace.from_rows(K, 6, [tuple(rng.randrange(16) for _ in range(6))
                                            for _ in range(2)])
        if D.dim == 2 and D not in dirs:
            dirs.append(D)
    reps = [(0,) * 6] + [tuple(rng.randrange(16) for _ in range(6)) for _ in range(3)]
    return FlatFamily(affine_geometry(K, 7), tuple(
        AffineFlat.coset(r, D) for D in dirs for r in reps))


# family, whether points go to the point index (len(dirs) >= q^(k-1)), every
# point of the geometry or not; the poly codes partition the points
DECODE_LOOKUP_FAMILIES = {
    "s237": (lambda: affine_steiner(2, 3, 2), True, True),
    "q3-s235": (lambda: affine_steiner(2, 2, 3), True, True),
    "poly-q19": (lambda: affine_poly_code(19, 2, 1, 1), False, True),
    "poly-f16": (lambda: affine_poly_code(16, 2, 1, 1), False, True),
    "ag6-f16-planes": (_big_field_family, False, False),
}


def _random_flat(K, d, rng, r, inside=None):
    """A random rank-r flat of AG(d, q), or of the block inside."""
    while True:
        pts = (rng.sample(inside.points(), r) if inside else
               [tuple(rng.randrange(K.order) for _ in range(d)) for _ in range(r)])
        if (flat := aff_closure(pts, K)).rank == r:
            return flat


@pytest.mark.parametrize("make, by_index, every_point", DECODE_LOOKUP_FAMILIES.values(),
                         ids=DECODE_LOOKUP_FAMILIES.keys())
def test_decode_lookups_match_object_scan(make, by_index, every_point):
    """decode, on a family held as columns, against the object scan
    [b for b in fam.blocks if b.contains(x)]: the same block, exception type
    and Ambiguity candidates, in order, for every point (of the geometry, or
    of the blocks and some more) and random flats of each rank 1..k, also
    as PackedFlats over F_2.  Points are looked up by the fixed rule, and
    neither lookup builds the block tuple."""
    fam = make()
    g, K, d, k = fam.geometry, fam.geometry.field, fam.geometry.ambient_dim, fam.block_rank
    code = FlatFamily.from_columns(g, fam.dirs, fam.dir_of, fam.reps)
    rng = random.Random(19)

    def scan(_, flat):
        hits = [b for b in fam.blocks if b.contains(flat)]
        if not hits:
            raise Erasure("no block contains the received flat")
        if len(hits) > 1:
            raise Ambiguity(hits)
        return hits[0]

    on = {}  # point -> the blocks through it, in order: the scan for a point
    for b in fam.blocks:
        for x in b.points():
            on.setdefault(x, []).append(b)
    points = (flatspace.enumerate_points(g) if every_point else
              list(on) + [tuple(rng.randrange(K.order) for _ in range(d)) for _ in range(50)])
    outcomes = set()
    for x in points:
        hits, got = on.get(x, []), decode_outcome(decode, code, aff_closure([x], K))
        assert got == ((hits[0], None, ()) if len(hits) == 1 else
                       (None, Ambiguity if hits else Erasure, tuple(hits) if hits else ())), x
        outcomes.add(got[1])
    flats = [_random_flat(K, d, rng, r, inside) for r in range(1, k + 1)
             for inside in [None] * 20 + rng.choices(fam.blocks, k=20)]
    for flat in flats:
        want = decode_outcome(scan, fam, flat)
        assert decode_outcome(decode, code, flat) == want, flat
        if g.q == 2:
            assert decode_outcome(decode, code, _packed(flat)) == want, flat
        outcomes.add(want[1])
    assert outcomes == {None, Erasure} | ({Ambiguity} if max_pairwise_meet_rank(fam) else set())
    assert ("point_blocks" in vars(code)) == by_index
    assert "blocks" not in vars(code)
