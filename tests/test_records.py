"""The immutable value types (galois.Record subclasses) behave as the frozen
dataclasses they replaced: equality and hash on the field tuple within one
class, no assignment, keyword construction with defaults, pickle and deepcopy
round trips, and the same repr."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from affgeo.design import (ClassicalDesign, DesignError, DesignParams,
                           FlatFamily, VerifyResult)
from affgeo.flatspace import AffineFlat, GeometrySpec, LinearSubspace, affine_geometry
from affgeo.galois import field_new
from affgeo.matroid import CheckReport, PmdType
from affgeo.netsim import NetworkConfig, TrialStats

F3 = field_new(3)
G = affine_geometry(F3, 3)
U = LinearSubspace.from_rows(F3, 2, [(1, 2)])
A = AffineFlat.coset((0, 1), U)

# instance, its fields in order, and its repr from when the types were frozen
# dataclasses
RECORDS = {
    "LinearSubspace": (U, dict(spec=F3, d=2, rows=((1, 2),), pivots=(0,)),
                       "LinearSubspace(dim=1 of F^2)"),
    "AffineFlat": (A, dict(spec=F3, d=2, rep=(0, 1), dir=U), "AffineFlat(rank=2 of AG^2)"),
    "AffineFlat-empty": (AffineFlat.empty(F3, 2), dict(spec=F3, d=2, rep=None, dir=None),
                         "AffineFlat(empty)"),
    "GeometrySpec": (G, dict(kind="affine", field=F3, rank=3),
                     "GeometrySpec(kind='affine', field=FieldSpec(p=3, e=1), rank=3)"),
    "FlatFamily": (FlatFamily(G, (A,)), dict(geometry=G, blocks=(A,)),
                   "FlatFamily(geometry=GeometrySpec(kind='affine', "
                   "field=FieldSpec(p=3, e=1), rank=3), "
                   "blocks=(AffineFlat(rank=2 of AG^2),))"),
    "DesignParams": (DesignParams(2, 3, 7, 1, 2), dict(t=2, k=3, n=7, lam=1, q=2),
                     "DesignParams(t=2, k=3, n=7, lam=1, q=2)"),
    "ClassicalDesign": (ClassicalDesign(3, (frozenset({0, 1}),)),
                        dict(point_count=3, blocks=(frozenset({0, 1}),)),
                        "ClassicalDesign(point_count=3, blocks=(frozenset({0, 1}),))"),
    "VerifyResult": (VerifyResult(True, lam=1), dict(ok=True, lam=1, witness=None, counts=()),
                     "VerifyResult(ok=True, lam=1, witness=None, counts=())"),
    "VerifyResult-witness": (VerifyResult(False, witness=A, counts=(0, 1)),
                             dict(ok=False, lam=None, witness=A, counts=(0, 1)),
                             "VerifyResult(ok=False, lam=None, "
                             "witness=AffineFlat(rank=2 of AG^2), counts=(0, 1))"),
    "NetworkConfig": (NetworkConfig(drop_prob=Fraction(1, 10)),
                      dict(layers=1, width=4, indegree=2, drop_prob=Fraction(1, 10),
                           sink_indegree=4),
                      "NetworkConfig(layers=1, width=4, indegree=2, "
                      "drop_prob=Fraction(1, 10), sink_indegree=4)"),
    "TrialStats": (TrialStats(5, 3, 1, 1, Fraction(7, 5), 0),
                   dict(trials=5, successes=3, ambiguities=1, erasures=1,
                        mean_received_rank=Fraction(7, 5), seed=0),
                   "TrialStats(trials=5, successes=3, ambiguities=1, erasures=1, "
                   "mean_received_rank=Fraction(7, 5), seed=0)"),
    "CheckReport": (CheckReport(False, "x", (1,)), dict(ok=False, detail="x", witness=(1,)),
                    "CheckReport(ok=False, detail='x', witness=(1,))"),
    "PmdType": (PmdType((1, 2, 4)), dict(f=(1, 2, 4)), "PmdType(f=(1, 2, 4))"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_equal_and_hashed_as_the_field_tuple(name):
    obj, fields, _ = RECORDS[name]
    values = tuple(fields.values())
    for twin in (type(obj)(*values), type(obj)(**fields)):
        assert twin == obj and not twin != obj and twin is not obj
        assert hash(twin) == hash(obj) == hash(values)
    assert obj != values and obj != object()


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    obj, fields, _ = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 0
    assert type(obj)(**fields) == obj


@pytest.mark.parametrize("name", list(RECORDS))
def test_pickle_and_deepcopy_round_trip(name):
    obj, _, _ = RECORDS[name]
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(clone) is type(obj) and clone == obj and hash(clone) == hash(obj)


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_as_before(name):
    obj, _, text = RECORDS[name]
    assert repr(obj) == text


def test_never_equal_across_classes():
    # same spec, d and rep: only the class tells these apart
    sub = LinearSubspace(F3, 2, (0, 1), U)
    flat = AffineFlat(F3, 2, (0, 1), U)
    assert sub != flat and flat != sub
    assert CheckReport("affine", F3, 3) != G


def test_keyword_construction_and_defaults():
    assert NetworkConfig(drop_prob=Fraction(1, 3)).width == 4
    assert NetworkConfig(drop_prob="1/3").drop_prob == Fraction(1, 3)
    assert NetworkConfig() == NetworkConfig(1, 4, 2, Fraction(0), 4)
    assert NetworkConfig(2, sink_indegree=1) == NetworkConfig(2, 4, 2, 0, 1)
    assert VerifyResult(True, lam=1) == VerifyResult(True, 1, None, ())
    assert CheckReport(True) == CheckReport(ok=True, detail="", witness=())
    assert DesignParams(t=2, k=3, n=7, lam=1, q=2) == RECORDS["DesignParams"][0]
    assert AffineFlat(spec=F3, d=2, rep=(0, 1), dir=U) == A
    with pytest.raises(TypeError):
        VerifyResult()  # ok has no default
    with pytest.raises(TypeError):
        VerifyResult(True, lam=1, ok=True)  # ok given twice
    with pytest.raises(TypeError):
        VerifyResult(True, colour=1)
    with pytest.raises(TypeError):
        PmdType((1, 2), (3,))


def test_post_init_validation_still_runs():
    with pytest.raises(DesignError, match=r"got DesignParams\(t=3, k=2, n=7, lam=1, q=2\)"):
        DesignParams(3, 2, 7, 1, 2)
    with pytest.raises(ValueError):
        NetworkConfig(drop_prob=2)
    with pytest.raises(ValueError):
        GeometrySpec("hyperbolic", F3, 3)
    with pytest.raises(DesignError):
        FlatFamily(G, (A, A))


def test_flat_family_caches_point_blocks_and_is_weakly_referenced():
    fam = FlatFamily(G, (A,))
    index = fam.point_blocks
    assert fam.point_blocks is index
    assert sorted(index) == sorted(map(F3.pack, A.points()))
    assert pickle.loads(pickle.dumps(fam)).point_blocks == index
    ref = weakref.ref(fam)
    del fam, index
    gc.collect()
    assert ref() is None
