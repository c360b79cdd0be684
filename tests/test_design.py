from fractions import Fraction

import pytest

from affgeo import (ClassicalDesign, DesignError, DesignParams, FlatFamily,
                    affine_geometry, affine_poly_code, affine_steiner,
                    complete_design,
                    ev11_compose, expand_affine_design,
                    expand_subspace_design, field_new, geometry_pmd_type,
                    is_skew, lambda_s, parallel_classes, projective_geometry,
                    verify_classical, verify_design)
from affgeo.flatspace import AffineFlat, enumerate_flats

F2 = field_new(2)


def test_flat_family_invariants():
    g = affine_geometry(F2, 4)
    lines = enumerate_flats(g, 2)
    with pytest.raises(DesignError):
        FlatFamily(g, (lines[0], lines[0]))  # duplicate
    with pytest.raises(DesignError):
        FlatFamily(g, (lines[0], enumerate_flats(g, 3)[0]))  # mixed ranks
    fam = FlatFamily(g, tuple(lines))
    assert len(fam) == 28 and fam.block_rank == 2
    assert fam.sorted().blocks == tuple(
        sorted(fam.blocks, key=lambda b: b.sort_key()))


def test_complete_design_is_design_for_all_t():
    g = affine_geometry(F2, 4)
    fam = complete_design(g, 3)  # all 14 planes of AG(3, 2)
    assert len(fam) == 14
    for t, lam in ((1, 7), (2, 3), (3, 1)):
        res = verify_design(fam, t)
        assert res.ok and res.lam == lam


def test_complete_projective_design():
    g = projective_geometry(F2, 4)  # PG(3, 2)
    fam = complete_design(g, 2)  # all 35 lines
    res = verify_design(fam, 1)
    assert res.ok and res.lam == 7


def test_verify_design_failure_witness():
    g = affine_geometry(F2, 4)
    lines = enumerate_flats(g, 2)
    fam = FlatFamily(g, tuple(lines[:27]))  # drop one line
    res = verify_design(fam, 2)
    assert not res.ok
    assert res.counts == (0, 1)
    assert res.witness == lines[27]


def test_verify_t_above_block_rank_rejected():
    g = affine_geometry(F2, 4)
    fam = complete_design(g, 2)
    with pytest.raises(DesignError):
        verify_design(fam, 3)


def test_lambda_s_steiner_triple():
    # the affine Steiner system S(2, 4, 64): 2-(64, 4, 1) over AG(6, 2) planes
    p = DesignParams(t=2, k=3, n=7, lam=1, q=2)
    typ = geometry_pmd_type(affine_geometry(F2, 7))
    assert lambda_s(p, typ, 2) == 1
    assert lambda_s(p, typ, 1) == Fraction(21)
    assert lambda_s(p, typ, 0) == Fraction(336)


def test_lambda_s_range_checked():
    p = DesignParams(t=2, k=3, n=7, lam=1, q=2)
    typ = geometry_pmd_type(affine_geometry(F2, 7))
    with pytest.raises(DesignError):
        lambda_s(p, typ, 3)


def test_expand_affine_sq8():
    # planes of AG(3, 2) -> the Steiner quadruple system SQS(8)
    fam = complete_design(affine_geometry(F2, 4), 3)
    cd = expand_affine_design(fam, 3)
    assert cd.point_count == 8 and len(cd.blocks) == 14
    assert cd.block_size == 4
    res = verify_classical(cd, 3)
    assert res.ok and res.lam == 1


def test_expand_affine_t2():
    fam = affine_steiner(2, 3, 2)  # S(2, 4, 64)
    cd = expand_affine_design(fam, 2)
    assert cd.point_count == 64 and cd.block_size == 4
    res = verify_classical(cd, 2)
    assert res.ok and res.lam == 1


def test_expand_affine_rejects_bad_combo():
    fam = complete_design(affine_geometry(field_new(3), 3), 2)
    with pytest.raises(DesignError):
        expand_affine_design(fam, 3)  # t = 3 needs q = 2


def test_expand_subspace_fano():
    fam = complete_design(projective_geometry(F2, 3), 2)
    cd = expand_subspace_design(fam)
    assert cd.point_count == 7 and len(cd.blocks) == 7 and cd.block_size == 3
    res = verify_classical(cd, 2)
    assert res.ok and res.lam == 1


def test_expand_subspace_pg32_lines():
    fam = complete_design(projective_geometry(F2, 4), 2)
    cd = expand_subspace_design(fam)
    assert cd.point_count == 15 and cd.block_size == 3
    res = verify_classical(cd, 2)
    assert res.ok and res.lam == 1


def test_verify_classical_failure():
    cd = ClassicalDesign(4, (frozenset({0, 1}), frozenset({1, 2})))
    res = verify_classical(cd, 2)
    assert not res.ok and res.counts[0] == 0


def test_ev11_planes_of_pg32_give_sqs16():
    fam = complete_design(projective_geometry(F2, 4), 3)  # 15 planes
    cd = ev11_compose(fam)
    assert cd.point_count == 16 and cd.block_size == 8
    res = verify_classical(cd, 3)
    assert res.ok and res.lam == 3


def test_ev11_rejects_odd_field():
    fam = complete_design(projective_geometry(field_new(3), 3), 2)
    with pytest.raises(DesignError):
        ev11_compose(fam)


def test_parallel_classes_and_skew():
    g = affine_geometry(F2, 3)  # AG(2, 2)
    fam = complete_design(g, 2)  # all 6 lines
    assert parallel_classes(fam) == 3
    assert not is_skew(fam)
    one_per_dir = {}
    for b in fam.blocks:
        one_per_dir.setdefault(b.dir, b)
    skew = FlatFamily(g, tuple(one_per_dir.values()))
    assert is_skew(skew)


def test_verify_classical_uneven_witness_has_least_count():
    # dropping one block leaves its 4 points in 4 blocks, the rest in 5
    cd = expand_affine_design(affine_steiner(2, 2, 2), 2)
    uneven = ClassicalDesign(cd.point_count, cd.blocks[:-1])
    res = verify_classical(uneven, 1)
    assert not res.ok and res.counts == (4, 5)
    assert sum(res.witness[0] in b for b in uneven.blocks) == 4


# --- differential oracle: a direct (rank-t flat x block) containment count ------

def point_set(f):
    """The vectors of a flat; F lies in B exactly when its set is a subset of B's."""
    return frozenset(f.points() if isinstance(f, AffineFlat) else f.vectors())


def oracle_counts(fam, t):
    """Every rank-t flat, in enumeration order, and how many blocks contain it."""
    flats = enumerate_flats(fam.geometry, t)
    blocks = [point_set(b) for b in fam.blocks]
    sets = {f: point_set(f) for f in flats}
    return flats, {f: sum(sets[f] <= b for b in blocks) for f in flats}


def _oracle_families():
    F3 = field_new(3)
    fams = {"AG(3,2)": complete_design(affine_geometry(F2, 4), 3),      # planes
            "PG(3,2)": complete_design(projective_geometry(F2, 4), 2),  # lines
            "AG(2,3)": complete_design(affine_geometry(F3, 3), 2),      # lines
            "S(2,3,7)": affine_steiner(2, 3, 2)}
    for name, fam in list(fams.items()):
        mid = len(fam.blocks) // 2
        fams[name + "-drop"] = FlatFamily(fam.geometry,
                                          fam.blocks[:mid] + fam.blocks[mid + 1:])
    return fams


ORACLE_FAMILIES = _oracle_families()


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_verify_design_matches_containment_count(name, t):
    fam = ORACLE_FAMILIES[name]
    flats, count = oracle_counts(fam, t)
    lo, hi = min(count.values()), max(count.values())
    res = verify_design(fam, t)
    if lo == hi:
        assert res.ok and res.lam == lo and res.witness is None and res.counts == ()
        return
    assert not res.ok and res.lam is None
    assert res.counts == (lo, hi)
    if lo == 0:  # the first uncovered flat in enumeration order
        assert res.witness == next(f for f in flats if count[f] == 0)
    else:  # a least-covered flat, first met in block order
        assert count[res.witness] == lo
        first = next(b for b in map(point_set, fam.blocks)
                     if any(count[f] == lo and point_set(f) <= b for f in flats))
        assert point_set(res.witness) <= first


@pytest.mark.parametrize("make", [
    lambda: affine_steiner(2, 3, 2),
    lambda: affine_poly_code(3, 2, 2, 2),
    lambda: complete_design(affine_geometry(field_new(2, 2), 4), 2),
], ids=["S(2,3,7)", "poly-q3", "lines-AG(3,4)"])
def test_point_blocks_matches_points(make):
    """The shared-offset index equals one built from each block's points(),
    each point keyed by its FieldSpec.pack int."""
    fam = make()
    pack, oracle = fam.geometry.field.pack, {}
    for b in fam.blocks:
        for p in b.points():
            oracle.setdefault(pack(p), []).append(b)
    assert fam.point_blocks == oracle
    assert list(fam.point_blocks) == list(oracle)  # same first-seen order
