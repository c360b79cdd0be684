"""Designs and small-intersection codes in affine and projective
geometry over small finite fields, with a deletion-channel network
coding simulator.

`import affgeo` imports no submodule: the first access to a public name
imports the one module that defines it (PEP 562).
"""

_EXPORTS = {
    "galois": "FieldError FieldSpec embed field_new field_of_order",
    "flatspace": ("AffineFlat GeometryError GeometrySpec GuardExceeded "
                  "LinearSubspace affine_geometry aff_closure aff_join aff_meet "
                  "count_flats count_points enumerate_flats enumerate_points "
                  "enumerate_subspaces flat_rank gaussian_binomial "
                  "hyperplane_restriction lin_join lin_meet "
                  "normalize_projective_point parallel projective_completion "
                  "projective_geometry"),
    "matroid": ("MatroidOracle NotAPmd PmdType closure exchange_check "
                "flats_lattice free_matroid geometrize_type geometry_matroid "
                "geometry_pmd_type graphic_matroid independent lattice_distance "
                "lattice_distance_prime pmd_type rank_axioms_check "
                "vector_matroid"),
    "design": ("ClassicalDesign DesignError DesignParams FlatFamily "
               "complete_design ev11_compose expand_affine_design "
               "expand_subspace_design is_skew lambda_s parallel_classes "
               "verify_classical verify_design"),
    "construct": ("ConstructError affine_poly_code affine_steiner "
                  "desarguesian_spread through_zero translate_closure"),
    "codes": ("Ambiguity DecodeError Erasure correction_radius d_wedge decode "
              "deletion_discrepancy is_partial_steiner max_pairwise_meet_rank "
              "metric_violation_witness subspace_distance tau"),
    "netsim": "NetworkConfig SplitMix64 TrialStats propagate run_trials trial_rng",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that exports `name`, keep the value, return it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
