"""Desk-scale toolkit for planar two-state problems of isentropic gas
dynamics: exact wave-pattern classification, fan-subsolution feasibility with
machine-checkable certificates, and auxiliary-state constructions gluing a
subsolution wedge to a classical wave."""

from .certificate import Certificate, CertEntry
from .eos import GasLaw, internal_energy, pressure, pressure_derivative, sound_speed
from .errors import (
    BracketError,
    ConstructionError,
    CriterionError,
    DegenerateShockError,
    DivergenceError,
    DomainError,
    EulerFanError,
    InvariantError,
    NumericError,
)
from .oracles import (
    DEFAULT_SEED,
    lemma2_f,
    lemma2_gap,
    lemma3_gaps,
    run_suite,
)
from .riemann import (
    CaseId,
    RiemannProblem,
    StandardSolution,
    Wave,
    classify,
    near_boundaries,
    rotate_180,
    solve_standard,
    verify_standard,
)
from .subsolution import (
    FanSubsolution,
    ReducedSubsolution,
    admissibility_bracket,
    check_reduced,
    discriminant,
    extract_deltas,
    lift_to_full,
    reduced_from,
    reduced_residuals,
    search_feasible,
    v12_star,
    verify_full,
)
from .wavecurves import (
    State,
    lambda1,
    lambda3,
    pure_shock_speed,
    rarefaction_integral,
    shock_bracket,
)
from .wedge import (
    WedgeConstruction,
    build_s,
    build_sr,
    fan_geometry,
    verify_construction,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CaseId",
    "CertEntry",
    "Certificate",
    "ConstructionError",
    "CriterionError",
    "DEFAULT_SEED",
    "DegenerateShockError",
    "DivergenceError",
    "DomainError",
    "EulerFanError",
    "FanSubsolution",
    "GasLaw",
    "InvariantError",
    "NumericError",
    "ReducedSubsolution",
    "RiemannProblem",
    "StandardSolution",
    "State",
    "Wave",
    "WedgeConstruction",
    "admissibility_bracket",
    "build_s",
    "build_sr",
    "check_reduced",
    "classify",
    "discriminant",
    "extract_deltas",
    "fan_geometry",
    "internal_energy",
    "lambda1",
    "lambda3",
    "lemma2_f",
    "lemma2_gap",
    "lemma3_gaps",
    "lift_to_full",
    "near_boundaries",
    "pressure",
    "pressure_derivative",
    "pure_shock_speed",
    "rarefaction_integral",
    "reduced_from",
    "reduced_residuals",
    "rotate_180",
    "run_suite",
    "search_feasible",
    "shock_bracket",
    "solve_standard",
    "sound_speed",
    "v12_star",
    "verify_construction",
    "verify_full",
    "verify_standard",
]
