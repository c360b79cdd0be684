"""`import affgeo` is lazy and each CLI subcommand loads only its layers,
while every public name of the package stays what it was."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import affgeo

SRC = Path(__file__).resolve().parents[1] / "src"

# The package's exports, module by module, as they were when
# affgeo/__init__ imported all seven modules eagerly, less the names that
# only tests used, which were removed since (CHANGES.md lists them).
EXPORTS = {
    "galois": ["FieldError", "FieldSpec", "embed", "field_new", "field_of_order"],
    "flatspace": ["AffineFlat", "GeometryError", "GeometrySpec",
                  "GuardExceeded", "LinearSubspace",
                  "affine_geometry", "aff_closure", "aff_join", "aff_meet",
                  "count_flats", "count_points", "enumerate_flats",
                  "enumerate_points", "enumerate_subspaces", "flat_rank",
                  "gaussian_binomial", "hyperplane_restriction", "lin_join",
                  "lin_meet", "normalize_projective_point", "parallel",
                  "projective_completion", "projective_geometry"],
    "matroid": ["MatroidOracle", "NotAPmd", "PmdType", "closure",
                "exchange_check", "flats_lattice", "free_matroid",
                "geometrize_type", "geometry_matroid", "geometry_pmd_type",
                "graphic_matroid", "independent", "lattice_distance",
                "lattice_distance_prime", "pmd_type", "rank_axioms_check",
                "vector_matroid"],
    "design": ["ClassicalDesign", "DesignError", "DesignParams", "FlatFamily",
               "complete_design", "ev11_compose", "expand_affine_design",
               "expand_subspace_design", "is_skew", "lambda_s",
               "parallel_classes", "verify_classical", "verify_design"],
    "construct": ["ConstructError", "affine_poly_code", "affine_steiner",
                  "desarguesian_spread", "through_zero", "translate_closure"],
    "codes": ["Ambiguity", "DecodeError", "Erasure", "correction_radius",
              "d_wedge", "decode", "deletion_discrepancy",
              "is_partial_steiner", "max_pairwise_meet_rank",
              "metric_violation_witness", "subspace_distance", "tau"],
    "netsim": ["NetworkConfig", "SplitMix64", "TrialStats", "propagate",
               "run_trials", "trial_rng"],
}

# Runs `affgeo.cli.main(argv)` if argv is given, then prints the names in
# sys.modules as a JSON list on the last line of stdout.
PROBE = """
import json, sys
import affgeo.cli
if sys.argv[1:] and affgeo.cli.main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print(json.dumps(sorted(sys.modules)))
"""

# Each of these adds milliseconds to every start and no command needs it:
# dataclasses and the inspect it imports; argparse and the gettext and
# locale it imports; typing; pathlib.
UNNEEDED = {"dataclasses", "inspect", "argparse", "gettext", "locale", "typing", "pathlib"}


def _modules(code, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded_after(*argv, cwd, bare):
    """The affgeo modules loaded by `affgeo argv`; asserts on the way that it
    loads none of UNNEEDED beyond the modules `bare` of a bare interpreter,
    which holds what site loads."""
    loaded = _modules(PROBE, *argv, cwd=cwd)
    assert not (loaded - bare) & UNNEEDED, argv
    return {m.removeprefix("affgeo.") for m in loaded if m.split(".")[0] == "affgeo"}


def test_each_command_loads_only_its_layers(tmp_path):
    bare = _modules("import json, sys; print(json.dumps(sorted(sys.modules)))", cwd=tmp_path)
    assert _loaded_after(cwd=tmp_path, bare=bare) == {"affgeo", "cli"}
    built = _loaded_after("construct", "affine-steiner", "--q", "2", "--k", "1",
                          "--l", "2", "--out", "s.blocks", cwd=tmp_path, bare=bare)
    assert {"construct", "blockfile"} <= built
    assert not built & {"matroid", "codes", "netsim"}
    verified = _loaded_after("verify", "s.blocks", "--t", "2", cwd=tmp_path, bare=bare)
    assert "design" in verified
    assert not verified & {"matroid", "codes", "netsim", "construct"}
    analyzed = _loaded_after("analyze", "s.blocks", cwd=tmp_path, bare=bare)
    assert "codes" in analyzed
    assert not analyzed & {"matroid", "netsim", "construct"}
    expanded = _loaded_after("expand", "s.blocks", "--mode", "affine-2",
                             "--out", "s.txt", cwd=tmp_path, bare=bare)
    assert "design" in expanded
    assert not expanded & {"matroid", "codes", "netsim"}
    simulated = _loaded_after("simulate", "s.blocks", "--trials", "2",
                              "--forced-deletions", "1", cwd=tmp_path, bare=bare)
    assert "netsim" in simulated
    assert not simulated & {"matroid", "construct"}
    simulated = _loaded_after("simulate", "s.blocks", "--trials", "2", "--layers", "2",
                              "--drop-prob", "1/3", cwd=tmp_path, bare=bare)
    assert "netsim" in simulated


def test_public_api_unchanged():
    expected = [name for names in EXPORTS.values() for name in names]
    assert affgeo.__all__ == expected
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"affgeo.{module}")
        for name in names:
            assert getattr(affgeo, name) is getattr(mod, name), name
    assert set(expected) <= set(dir(affgeo))
    with pytest.raises(AttributeError):
        affgeo.no_such_name
    from affgeo import blockfile, cli, codes
    assert (blockfile.__name__, cli.__name__, codes.__name__) == (
        "affgeo.blockfile", "affgeo.cli", "affgeo.codes")


def test_public_function_annotations_resolve():
    # the names an annotation gives must exist where typing looks them up
    for name in affgeo.__all__:
        if inspect.isfunction(fn := getattr(affgeo, name)):
            typing.get_type_hints(fn)
