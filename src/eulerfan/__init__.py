"""Desk-scale toolkit for planar two-state problems of isentropic gas
dynamics: exact wave-pattern classification, fan-subsolution feasibility with
machine-checkable certificates, and auxiliary-state constructions gluing a
subsolution wedge to a classical wave.

Each export is loaded from its submodule on first access, together with
the rest of that submodule's exports, so ``import eulerfan`` loads none of
them, and a caller that only classifies never loads the search, the
constructions or the lemma suite."""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "certificate": ("CertEntry", "Certificate"),
    "eos": ("GasLaw", "internal_energy", "pressure", "pressure_derivative", "sound_speed"),
    "errors": (
        "BracketError",
        "ConstructionError",
        "CriterionError",
        "DEFAULT_SEED",
        "DegenerateShockError",
        "DivergenceError",
        "DomainError",
        "EulerFanError",
        "InvariantError",
        "NumericError",
    ),
    "oracles": ("admissibility_bracket", "lemma2_f", "lemma2_gap", "lemma3_gaps", "run_suite"),
    "riemann": (
        "CaseId",
        "RiemannProblem",
        "StandardSolution",
        "Wave",
        "classify",
        "near_boundaries",
        "rotate_180",
        "solve_standard",
        "verify_standard",
    ),
    "subsolution": (
        "FanSubsolution",
        "ReducedSubsolution",
        "check_reduced",
        "discriminant",
        "extract_deltas",
        "lift_to_full",
        "reduced_from",
        "reduced_residuals",
        "search_feasible",
        "v12_star",
        "verify_full",
    ),
    "wavecurves": ("State", "lambda1", "lambda3", "pure_shock_speed", "rarefaction_integral", "shock_bracket"),
    "wedge": ("WedgeConstruction", "build_s", "build_sr", "fan_geometry", "verify_construction"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _bind(module: str, namespace: dict) -> None:
    """Import submodule ``module`` and bind each of its exports in
    ``namespace``, keeping any name already bound there: the benchmark's
    tracer rebinds names on eulerfan.cli before a mode binds them."""
    source = importlib.import_module("." + module, __name__)
    for name in _EXPORTS[module]:
        namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """The export ``name``, bound here with the rest of its submodule's."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name], globals())
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
