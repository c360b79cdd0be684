"""The grouped, keyed subflat tally against the object tally it replaced.

verify_design and max_pairwise_meet_rank count packed int keys
(design.FlatKeys), one group of subflat directions at a time.  The oracles
below tally the AffineFlat / LinearSubspace objects of design.subflats()
in one Counter instead, and judge it by the witness rule on its own, so
every result, witness included, must come out the same.
"""

import gc
import itertools
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affgeo import (AffineFlat, FlatFamily, GuardExceeded, LinearSubspace,
                    affine_geometry, affine_poly_code, affine_steiner,
                    complete_design, desarguesian_spread, field_new,
                    max_pairwise_meet_rank, projective_geometry, verify_design)
from affgeo import flatspace
from affgeo.design import FlatKeys, VerifyResult, subflat_shapes, subflats
from affgeo.flatspace import count_flats, enumerate_flats, enumerate_points, iter_flats
from affgeo.galois import field_of_order


def object_judge(tally, total, everything):
    """lambda when one Counter counts all `total` keys equally often; else the
    first key of everything() it lacks, else the first key counted least in
    its own order (that of first appearance, block by block)."""
    values = set(tally.values())
    if len(values) == 1 and len(tally) == total:
        return VerifyResult(True, lam=values.pop())
    if len(tally) < total:
        witness = next(key for key in everything() if key not in tally)
        return VerifyResult(False, witness=witness, counts=(0, max(values, default=0)))
    lo = min(values)
    witness = next(key for key, c in tally.items() if c == lo)
    return VerifyResult(False, witness=witness, counts=(lo, max(values)))


def object_verify(fam, t):
    """verify_design as one Counter of subflats() objects, by object_judge."""
    g = fam.geometry
    shapes = subflat_shapes(g, fam.block_rank, t)
    tally = Counter()
    for b in fam.blocks:
        tally.update(subflats(b, t, g, shapes))
    return object_judge(tally, count_flats(g, t), lambda: enumerate_flats(g, t))


def object_meet_rank(fam):
    """The ascending collision tally on subflats() objects."""
    if len(fam.blocks) < 2:
        return 0
    g, k = fam.geometry, fam.block_rank
    for r in range(1, k):
        shapes = subflat_shapes(g, k, r)
        flats = [f for b in fam.blocks for f in subflats(b, r, g, shapes)]
        if len(set(flats)) == len(flats):
            return r - 1
    return k - 1


FAMILIES = {
    "s237": lambda: affine_steiner(2, 3, 2),          # S(2,3,7) over F_2
    "s2-f4": lambda: affine_steiner(2, 2, 4),         # S(2,3,5) over F_4
    "s2-f3": lambda: affine_steiner(2, 2, 3),         # S(2,3,5) over F_3
    "poly-q3": lambda: affine_poly_code(3, 2, 2, 2),
    "poly-q19": lambda: affine_poly_code(19, 2, 1, 1),
    "pg32-spread": lambda: desarguesian_spread(4, 2, 2),
    "pg32-lines": lambda: complete_design(projective_geometry(field_new(2), 4), 2),
}


@cache
def family(name):
    return FAMILIES[name]()


def variants(fam):
    """The family, one block dropped, and that in reverse block order."""
    mid = len(fam.blocks) // 2
    drop = fam.blocks[:mid] + fam.blocks[mid + 1:]
    return {"full": fam, "drop": FlatFamily(fam.geometry, drop),
            "drop-reversed": FlatFamily(fam.geometry, drop[::-1])}


def outcome(res):
    """ok, uncovered witness or least-covered witness."""
    return "ok" if res.ok else "uncovered" if res.counts[0] == 0 else "uneven"


@pytest.mark.parametrize("name", list(FAMILIES))
def test_keyed_verify_matches_object_tally(name):
    seen = set()
    for variant, fam in variants(family(name)).items():
        for t in range(fam.block_rank + 1):
            if name == "poly-q19" and t == 2 and variant != "full":
                continue  # each walks all 137,541 lines of AG(3,19), as "full" does
            res = verify_design(fam, t)
            assert res == object_verify(fam, t), t
            seen.add(outcome(res))
    assert "ok" in seen and "uncovered" in seen


def test_keyed_verify_finds_least_covered_witnesses():
    # every point lies on a block of a subset of all PG(3,2) lines, unevenly
    lines = family("pg32-lines")
    for fam in (FlatFamily(lines.geometry, lines.blocks[:-1]),
                FlatFamily(lines.geometry, lines.blocks[-2::-1])):
        res = verify_design(fam, 1)
        assert outcome(res) == "uneven"
        assert res == object_verify(fam, 1)


def test_failing_verify_stops_its_walk_at_the_list_walks_witness(monkeypatch):
    full = family("poly-q19")
    fam = FlatFamily(full.geometry, full.blocks[:5])
    g, keys = fam.geometry, FlatKeys(fam.geometry, 2)
    tally = Counter(keys.key(f) for b in fam.blocks for f in subflats(b, 2, g))
    listed = [keys.key(f) for f in enumerate_flats(g, 2)]  # 137,541 lines
    expected = object_judge(tally, len(listed), lambda: listed)
    walked, iter_flats = [], flatspace.iter_flats
    monkeypatch.setattr(flatspace, "iter_flats",
                        lambda g, t: (walked.append(f) or f for f in iter_flats(g, t)))
    res = verify_design(fam, 2)
    assert outcome(res) == "uncovered"
    assert res == VerifyResult(False, None, keys.flat(expected.witness), expected.counts)
    assert len(walked) == listed.index(expected.witness) + 1
    assert walked[-1] == res.witness


def test_failing_verify_over_the_guard_raises_before_its_walk():
    K = field_new(19)
    line = AffineFlat.coset((0,) * 6, LinearSubspace.from_rows(K, 6, [(1, 0, 0, 0, 0, 0)]))
    fam = FlatFamily(affine_geometry(K, 7), (line,))  # 19^6 points, above the guard
    with pytest.raises(GuardExceeded):
        verify_design(fam, 1)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_keyed_meet_rank_matches_object_tally(name):
    for fam in variants(family(name)).values():
        assert max_pairwise_meet_rank(fam) == object_meet_rank(fam)


SUBSET_FAMILIES = [n for n in FAMILIES if n != "poly-q19"]  # q=19 has its own test


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_keyed_tally_matches_object_tally_on_random_subsets(data):
    full = family(data.draw(st.sampled_from(SUBSET_FAMILIES), label="family"))
    picks = data.draw(st.lists(st.integers(0, len(full.blocks) - 1), min_size=1,
                               max_size=24, unique=True), label="blocks")
    fam = FlatFamily(full.geometry, tuple(full.blocks[i] for i in picks))
    for t in range(1, fam.block_rank + 1):
        assert verify_design(fam, t) == object_verify(fam, t), t
    assert max_pairwise_meet_rank(fam) == object_meet_rank(fam)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 360), min_size=1, max_size=40, unique=True))
def test_keyed_tally_matches_object_tally_on_random_q19_subsets(picks):
    # t=1 only: at t=2 each example would walk all lines of AG(3,19) twice
    full = family("poly-q19")
    fam = FlatFamily(full.geometry, tuple(full.blocks[i] for i in picks))
    assert verify_design(fam, 1) == object_verify(fam, 1)
    assert max_pairwise_meet_rank(fam) == object_meet_rank(fam)


@pytest.mark.parametrize("q, d", [(2, 6), (4, 3), (8, 3), (3, 4), (9, 3), (19, 3)])
def test_packing_round_trips_and_keeps_tuple_order(q, d):
    K = field_of_order(q)
    keys = FlatKeys(affine_geometry(K, d + 1), 1)
    vectors = enumerate_points(affine_geometry(K, d + 1))
    packed = [keys.pack(v) for v in vectors]
    assert [keys.unpack(x) for x in packed] == vectors
    assert len(set(packed)) == len(vectors)
    assert [keys.unpack(x) for x in sorted(packed)] == sorted(vectors)


@pytest.mark.parametrize("g", [affine_geometry(field_new(2), 4),
                               affine_geometry(field_new(3), 3),
                               affine_geometry(field_new(2, 2), 3),
                               projective_geometry(field_new(2), 4),
                               projective_geometry(field_new(3), 3)],
                         ids=["AG(3,2)", "AG(2,3)", "AG(2,4)", "PG(3,2)", "PG(2,3)"])
def test_every_flat_round_trips_through_its_key(g):
    for t in range(g.rank + 1):
        keys = FlatKeys(g, t)
        flats = enumerate_flats(g, t)
        packed = [keys.key(f) for f in flats]
        assert len(set(packed)) == len(flats)
        assert [keys.flat(x) for x in packed] == flats


def test_subflat_keys_are_the_keys_of_subflats():
    # the grouped walk against the keys of subflats() objects: the groups'
    # tallies, put together, are the object tally, each group holds one G
    # (in AG at most the q^(d-t+1) cosets of one direction), and each
    # block's keys come from its entry's parts in subflats() order
    for name in ("s2-f4", "s2-f3", "pg32-lines", "s237"):
        fam = family(name)
        g = fam.geometry
        zero = (0,) * g.ambient_dim
        for t in range(1, fam.block_rank + 1):
            keys = FlatKeys(g, t)
            objects = [[keys.key(f) for f in subflats(b, t, g)] for b in fam.blocks]
            grouped = Counter()
            for G, pairs in keys.groups(fam).items():
                tally = keys.tally(pairs)
                if g.kind == "affine":
                    assert len(tally) <= g.q ** (g.ambient_dim - t + 1)
                assert not grouped.keys() & {G << keys.bits | x for x in tally}
                grouped.update({G << keys.bits | x: n for x, n in tally.items()})
            assert grouped == Counter(itertools.chain(*objects)), t
            if g.kind == "affine":
                assert keys.reps == [[keys.rep(b.rep) for b in fam.blocks if b.dir == D]
                                     for D in fam.dirs]
            entries = fam.dir_of or range(len(fam))
            assert [[key for G, offsets in keys.parts[j] for key in sorted(
                G << keys.bits | keys.add(keys.rep(b.rep if g.kind == "affine" else zero), o)
                for o in offsets)] for j, b in zip(entries, fam.blocks)] == objects, t


def no_class_and_extra_planes():
    """S(2,3,7) without one parallel class, so the lines of its direction
    form no group at all, and with three planes from outside it put in the
    middle and in front, so every line is covered, some of them twice."""
    fam = family("s237")
    g, blocks = fam.geometry, fam.blocks
    D, mid, have = blocks[len(blocks) // 2].dir, len(blocks) // 2, set(blocks)
    extra = tuple(itertools.islice((f for f in iter_flats(g, 3) if f not in have), 3))
    return {"no-class": FlatFamily(g, tuple(b for b in blocks if b.dir != D)),
            "extra": FlatFamily(g, blocks[:mid] + extra + blocks[mid:]),
            "extra-first": FlatFamily(g, extra + blocks)}


@pytest.mark.parametrize("variant", ["no-class", "extra", "extra-first"])
def test_failing_families_match_object_tally(variant):
    fam = no_class_and_extra_planes()[variant]
    outcomes = []
    for t in range(fam.block_rank + 1):
        res = verify_design(fam, t)
        assert res == object_verify(fam, t), t
        outcomes.append(outcome(res))
    assert outcomes == (["ok", "ok", "uncovered", "uncovered"] if variant == "no-class"
                        else ["ok", "uneven", "uneven", "uncovered"])
    assert max_pairwise_meet_rank(fam) == object_meet_rank(fam)
    if variant == "no-class":  # the witness's direction has no group at all
        keys = FlatKeys(fam.geometry, 2)
        assert keys.key(verify_design(fam, 2).witness) >> keys.bits not in keys.groups(fam)


def test_tally_peaks_within_half_a_mib_above_the_family_on_s239():
    tracemalloc.start()
    try:
        fam = affine_steiner(2, 4, 2)  # S(2,3,9): 5440 planes of AG(8,2)
        for run in (lambda: verify_design(fam, 2), lambda: max_pairwise_meet_rank(fam)):
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            assert tracemalloc.get_traced_memory()[1] - live <= 2 ** 19
    finally:
        tracemalloc.stop()
