"""Exact-arithmetic toolkit for rational blow-down constructions.

Homology lattices of blown-up projective planes, chain plumbing
configurations and their dual intersection forms, symbolic symplectic
classes with certified cone positivity, and topological-invariant
bookkeeping through the surgery.
"""

from blowdown.cone import (
    ConeSystem,
    DualCoords,
    PositivityResult,
    SymplecticClass,
    blowdown_pairing,
    certify_positive,
    pair_dual,
    restrict,
    symplectic_class,
    symplectic_cone,
)
from blowdown.invariants import (
    ManifoldInvariants,
    SwRecord,
    blow_up_invariants,
    blowup_basic_classes,
    homeo_type,
    kotschick_bound,
    rational_blowdown,
    rational_surface_invariants,
    sw_dimension,
    wall_crossing_delta,
)
from blowdown.lattice import (
    Ambient,
    HomologyClass,
    blow_up,
    is_characteristic,
    light_cone_sign,
    pair,
    standard_classes,
)
from blowdown.plumbing import (
    Configuration,
    E6TildeFiber,
    PlumbingGraph,
    make_cp,
    make_e6_tilde,
    verify_embedding,
)
from blowdown.ratmath import (
    Constraint,
    LinearForm,
    Matrix,
)
from blowdown.reports import (
    Report,
    Scenario,
    builtin_scenario,
    builtin_scenario_text,
    parse_scenario_text,
    run_main1,
    run_main2,
    run_main3,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "ConeSystem",
    "Configuration",
    "Constraint",
    "DualCoords",
    "E6TildeFiber",
    "HomologyClass",
    "LinearForm",
    "ManifoldInvariants",
    "Matrix",
    "PlumbingGraph",
    "PositivityResult",
    "Report",
    "Scenario",
    "SwRecord",
    "SymplecticClass",
    "blow_up",
    "blow_up_invariants",
    "blowdown_pairing",
    "blowup_basic_classes",
    "builtin_scenario",
    "builtin_scenario_text",
    "certify_positive",
    "homeo_type",
    "is_characteristic",
    "kotschick_bound",
    "light_cone_sign",
    "make_cp",
    "make_e6_tilde",
    "pair",
    "pair_dual",
    "parse_scenario_text",
    "rational_blowdown",
    "rational_surface_invariants",
    "restrict",
    "run_main1",
    "run_main2",
    "run_main3",
    "run_scenario",
    "standard_classes",
    "sw_dimension",
    "symplectic_class",
    "symplectic_cone",
    "verify_embedding",
    "wall_crossing_delta",
]
