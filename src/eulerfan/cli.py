"""Command-line front end: JSON problem descriptions in, certificates and
geometry tables out, with deterministic byte-identical artifacts."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from . import oracles
from .certificate import Certificate
from .eos import GasLaw
from .errors import ConstructionError, DomainError, EulerFanError, NumericError, is_number, to_float
from .riemann import (
    EQUATION_TOL,
    RAREFACTION,
    STRICT_TOL,
    CaseId,
    RiemannProblem,
    StandardSolution,
    classify,
    near_boundaries,
    rotate_180,
    solve_standard,
    verify_standard,
)
from .subsolution import (
    FanSubsolution,
    check_reduced,
    extract_deltas,
    lift_to_full,
    reduced_from,
    search_feasible,
    verify_full,
)
from .wavecurves import State
from .wedge import WedgeConstruction, build_s, build_sr, fan_geometry, verify_construction

MODES = ("classify", "standard", "subsolution", "wedge", "lemmas")

# Exit codes: 0 all requested certificates pass; 1 malformed/unsupported
# input; 2 subsolution search certified empty; 3 numeric failure.
STATUS_OK = 0
STATUS_INPUT = 1
STATUS_NOT_FOUND = 2
STATUS_NUMERIC = 3


class SpecError(Exception):
    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        self.message = message
        super().__init__(f"{fieldname}: {message}")


@dataclass
class RunResult:
    status: int
    artifacts: dict[str, str] = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# serialization (floats render as shortest round-trippable decimals; NaN,
# which only appears as the undefined vacuum velocity, maps to null)


def _f(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def state_dict(s: State) -> dict:
    return {"rho": _f(s.rho), "v1": _f(s.v1), "v2": _f(s.v2)}


def problem_dict(p: RiemannProblem) -> dict:
    return {"law": asdict(p.law), "left": state_dict(p.left), "right": state_dict(p.right)}


def solution_dict(s: StandardSolution) -> dict:
    return {
        "case": s.case.value,
        "middle": state_dict(s.middle) if s.middle is not None else None,
        "waves": [asdict(w) for w in s.waves],
    }


def subsolution_dict(f: FanSubsolution) -> dict:
    return {
        "rho1": f.rho1,
        "v11": f.v11,
        "v12": f.v12,
        "u11": f.u11,
        "u12": f.u12,
        "C1": f.c1,
        "mu0": f.mu0,
        "mu1": f.mu1,
    }


def construction_dict(w: WedgeConstruction) -> dict:
    return {
        "u2": state_dict(w.u2),
        "problem_tilde": problem_dict(w.problem_tilde),
        "problem_wedge": problem_dict(w.problem_wedge),
        "subsolution": subsolution_dict(w.sub),
        "right_wave": solution_dict(w.right_wave),
        "mu2": w.mu2,
        "glue_margin": w.glue_margin,
        "perturbation": w.perturbation,
    }


def dumps(obj) -> str:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # for these acyclic documents: an inf or NaN
        raise NumericError(f"non-finite number in the output: {exc}") from exc
    return text + "\n"


def certificate_to_json(c: Certificate) -> str:
    return dumps(c.to_dict())


def certificate_from_json(text: str) -> Certificate:
    return Certificate.from_dict(json.loads(text))


def emit_geometry(w: WedgeConstruction, t_samples: list[float]) -> str:
    """CSV table of fan breakpoints, one row per (time, breakpoint).

    Breakpoints are strictly increasing within each time sample; the shock
    line contributes a single breakpoint between its nondegenerate
    neighbours.
    """
    if not t_samples:
        raise DomainError("t_samples must be nonempty")
    lines = ["t,breakpoint,left_region,right_region"]
    for t in t_samples:
        regions = [r for r in fan_geometry(w, t) if r[1] != r[2]]
        for (label_a, _, hi), (label_b, _, _) in zip(regions, regions[1:]):
            lines.append(f"{t!r},{hi!r},{label_a},{label_b}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input parsing


def _get_number(doc: dict, name: str, path: str, *, positive=False, minimum=None):
    if name not in doc:
        raise SpecError(f"{path}.{name}", "missing required field")
    value = doc[name]
    if not is_number(value):
        raise SpecError(f"{path}.{name}", f"expected a number, got {value!r}")
    value = to_float(value)  # NaN for a JSON integer beyond the largest float
    if not math.isfinite(value):
        raise SpecError(f"{path}.{name}", "must be finite")
    if positive and not value > 0.0:
        raise SpecError(f"{path}.{name}", f"must be positive, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(f"{path}.{name}", f"must be >= {minimum}, got {value!r}")
    return value


def _get_int(fieldname: str, value, minimum: int) -> int:
    """An integral number (7 or 7.0) of at least ``minimum``, as an int."""
    if not is_number(value) or isinstance(value, float) and not value.is_integer():
        raise SpecError(fieldname, f"expected an integer, got {value!r}")
    if value < minimum:
        raise SpecError(fieldname, f"must be >= {minimum}, got {value!r}")
    return int(value)


# The sections of an input document and the fields each one reads; seed and
# samples are numbers.  Every mode rejects any other key and a section that
# is not an object, so a misspelled name is an input error instead of a
# silent default, and one document serves every mode.
_SECTIONS = {
    "law": ("K", "gamma"),
    "left": ("rho", "v1", "v2"),
    "right": ("rho", "v1", "v2"),
    "search": ("scan_points", "grid"),
    "perturbation": ("initial", "max_halvings"),
}


def _check_keys(doc) -> None:
    if not isinstance(doc, dict):
        raise SpecError("<input>", "top-level document must be a JSON object")
    for name, section in doc.items():
        if name in ("seed", "samples"):
            continue
        if name not in _SECTIONS:
            raise SpecError(name, "unknown section")
        if not isinstance(section, dict):
            raise SpecError(name, f"expected an object, got {section!r}")
        for key in section:
            if key not in _SECTIONS[name]:
                raise SpecError(f"{name}.{key}", "unknown field")


def _get_section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise SpecError(name, "missing required section")
    section = doc[name]
    if not isinstance(section, dict):
        raise SpecError(name, f"expected an object, got {section!r}")
    return section


def parse_problem(doc: dict) -> RiemannProblem:
    law_doc = _get_section(doc, "law")
    law = GasLaw(
        K=_get_number(law_doc, "K", "law", positive=True),
        gamma=_get_number(law_doc, "gamma", "law", minimum=1.0),
    )
    states = {}
    for side in ("left", "right"):
        side_doc = _get_section(doc, side)
        states[side] = State(
            rho=_get_number(side_doc, "rho", side, positive=True),
            v1=_get_number(side_doc, "v1", side),
            v2=_get_number(side_doc, "v2", side),
        )
    if states["left"].v1 != states["right"].v1:
        raise SpecError("right.v1", "tangential velocities must match left.v1")
    return RiemannProblem(law, states["left"], states["right"])


def load_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError("<input>", str(exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("<input>", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter's int digit limit
        raise SpecError("<input>", str(exc)) from exc
    return doc


def _search_options(doc: dict, tol_strict: float) -> dict:
    opts = {"tol_strict": tol_strict}
    search_doc = doc.get("search", {})
    for name, minimum in (("scan_points", 1), ("grid", 2)):
        if name in search_doc:
            opts[name] = _get_int(f"search.{name}", search_doc[name], minimum)
    return opts


def _perturbation_options(doc: dict) -> dict:
    opts = {}
    pert_doc = doc.get("perturbation", {})
    if "initial" in pert_doc:
        opts["initial_fraction"] = _get_number(pert_doc, "initial", "perturbation", positive=True)
    if "max_halvings" in pert_doc:
        opts["max_halvings"] = _get_int("perturbation.max_halvings", pert_doc["max_halvings"], 0)
    return opts


# ---------------------------------------------------------------------------
# mode handlers


def _run_classify(p: RiemannProblem) -> RunResult:
    case = classify(p)
    report = {
        "case": case.value,
        "near_boundaries": list(near_boundaries(p)),
        "vacuum_possible": not p.law.isothermal,
    }
    return RunResult(
        STATUS_OK,
        {"classification.json": dumps(report)},
        [f"case: {case.value}"],
    )


def _run_standard(p: RiemannProblem, tol_eq, tol_strict) -> RunResult:
    solution = solve_standard(p)
    certificate = verify_standard(p, solution, tol_eq=tol_eq, tol_strict=tol_strict)
    status = STATUS_OK if certificate.overall else STATUS_NUMERIC
    return RunResult(
        status,
        {
            "standard_solution.json": dumps(solution_dict(solution)),
            "standard_certificate.json": certificate_to_json(certificate),
        },
        [
            f"case: {solution.case.value}",
            f"certificate: {'PASS' if certificate.overall else 'FAIL'} "
            f"({len(certificate.entries)} entries)",
        ],
    )


def _run_subsolution(p: RiemannProblem, doc, tol_eq, tol_strict) -> RunResult:
    found = search_feasible(p, **_search_options(doc, tol_strict))
    if found is None:
        return RunResult(
            STATUS_NOT_FOUND,
            {"subsolution_search.json": dumps({"found": False})},
            ["search: no feasible pair (certified not found by this search)"],
        )
    rho1, delta2 = found
    reduced = reduced_from(p, rho1, delta2)
    full = lift_to_full(p, reduced)
    reduced_cert = check_reduced(p, rho1, delta2, tol_strict=tol_strict)
    full_cert = verify_full(p, full, tol_eq=tol_eq, tol_strict=tol_strict)
    ok = reduced_cert.overall and full_cert.overall
    return RunResult(
        STATUS_OK if ok else STATUS_NUMERIC,
        {
            "subsolution_search.json": dumps(
                {
                    "found": True,
                    "rho1": rho1,
                    "delta2": delta2,
                    "reduced": asdict(reduced),
                    "full": subsolution_dict(full),
                }
            ),
            "reduced_certificate.json": certificate_to_json(reduced_cert),
            "full_certificate.json": certificate_to_json(full_cert),
        },
        [
            f"search: feasible pair rho1={rho1!r} delta2={delta2!r}",
            f"reduced certificate: {'PASS' if reduced_cert.overall else 'FAIL'}",
            f"full certificate: {'PASS' if full_cert.overall else 'FAIL'}",
        ],
    )


def _run_wedge(p: RiemannProblem, doc, tol_eq, tol_strict) -> RunResult:
    case = classify(p)
    rotated = False
    working = p
    if case is CaseId.R1S3 or (case is CaseId.SINGLE_S and p.left.rho > p.right.rho):
        working = rotate_180(p)
        rotated = True
        case = classify(working)
    pert = _perturbation_options(doc)
    search = _search_options(doc, tol_strict)
    if case is CaseId.S1R3:
        construction = build_sr(working, **pert, **search)
    elif case is CaseId.SINGLE_S:
        construction = build_s(working, **pert, **search)
    else:
        raise SpecError(
            "<input>",
            f"wedge mode needs shock+rarefaction or single-shock data, got {case.value}",
        )
    tols = {"tol_eq": tol_eq, "tol_strict": tol_strict}
    glue_cert = verify_construction(working, construction, **tols)
    full_cert = verify_full(construction.problem_tilde, construction.sub, **tols)
    d1, d2 = extract_deltas(construction.sub)
    reduced_cert = check_reduced(
        construction.problem_tilde, construction.sub.rho1, d2, tol_strict=tol_strict
    )
    right_cert = verify_standard(construction.problem_wedge, construction.right_wave, **tols)
    ok = all(c.overall for c in (glue_cert, full_cert, reduced_cert, right_cert))
    artifacts = {
        "wedge_construction.json": dumps(
            {
                "rotated": rotated,
                "input": problem_dict(p),
                "working": problem_dict(working),
                "construction": construction_dict(construction),
            }
        ),
        "wedge_certificates.json": dumps(
            {
                "glue": glue_cert.to_dict(),
                "subsolution_full": full_cert.to_dict(),
                "subsolution_reduced": reduced_cert.to_dict(),
                "right_wave": right_cert.to_dict(),
            }
        ),
        "wedge_geometry.csv": emit_geometry(construction, [1.0]),
    }
    return RunResult(
        STATUS_OK if ok else STATUS_NUMERIC,
        artifacts,
        [
            f"construction: {'rotated ' if rotated else ''}"
            f"{'shock+rarefaction' if construction.right_wave.waves[0].kind == RAREFACTION else 'single-shock'} branch",
            f"glue margin: {construction.glue_margin!r}",
            f"certificates: {'PASS' if ok else 'FAIL'}",
        ],
    )


def _run_lemmas(doc, seed, samples) -> RunResult:
    # a command-line value takes precedence over the document's field
    seed = _get_int("seed", doc.get("seed", oracles.DEFAULT_SEED) if seed is None else seed, 0)
    samples = _get_int("samples", doc.get("samples", 10000) if samples is None else samples, 1)
    summary = oracles.run_suite(n_samples=samples, seed=seed)
    status = STATUS_OK if summary["overall"] else STATUS_NUMERIC
    return RunResult(
        status,
        {"lemma_report.json": dumps(summary)},
        [
            f"lemma suite: {'PASS' if summary['overall'] else 'FAIL'} "
            f"(seed={seed}, samples={samples})"
        ],
    )


def run(
    mode: str,
    doc: dict,
    *,
    tol_eq: float | None = None,
    tol_strict: float | None = None,
    seed: int | None = None,
    samples: int | None = None,
) -> RunResult:
    """Execute one CLI mode on a parsed input document; a tolerance left
    as None takes the library default.  A key outside _SECTIONS is an input
    error in every mode."""
    if mode not in MODES:
        raise SpecError("--mode", f"unknown mode {mode!r}")
    _check_keys(doc)
    for name, tol in (("--tol-eq", tol_eq), ("--tol-strict", tol_strict)):
        if tol is not None and not 0.0 < to_float(tol) < math.inf:
            raise SpecError(name, f"must be finite and positive, got {tol!r:.40}")
    if mode == "lemmas":
        return _run_lemmas(doc, seed, samples)
    tol_eq = EQUATION_TOL if tol_eq is None else tol_eq
    tol_strict = STRICT_TOL if tol_strict is None else tol_strict
    p = parse_problem(doc)
    if mode == "classify":
        return _run_classify(p)
    if mode == "standard":
        return _run_standard(p, tol_eq, tol_strict)
    if mode == "subsolution":
        return _run_subsolution(p, doc, tol_eq, tol_strict)
    return _run_wedge(p, doc, tol_eq, tol_strict)


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors on the malformed-input status: its own
    status 2 is this tool's "search certified empty"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(STATUS_INPUT, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="eulerfan",
        description="Classify planar two-state flow problems, search for fan "
        "subsolutions, build auxiliary-state constructions, and emit "
        "machine-checkable certificates.",
    )
    parser.add_argument("--input", help="path to a JSON problem description")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--tol-eq", type=float, default=None, help="equation residual tolerance (relative)")
    parser.add_argument("--tol-strict", type=float, default=None, help="strict margin tolerance (relative)")
    parser.add_argument("--seed", type=int, default=None, help="sample seed (lemmas mode)")
    parser.add_argument("--samples", type=int, default=None, help="sample count (lemmas mode)")
    parser.add_argument("--out", default=None, help="directory for output artifacts")
    args = parser.parse_args(argv)

    try:
        if args.mode != "lemmas" and args.input is None:
            raise SpecError("--input", f"mode {args.mode!r} requires an input file")
        doc = load_input(args.input) if args.input else {}
        result = run(
            args.mode,
            doc,
            tol_eq=args.tol_eq,
            tol_strict=args.tol_strict,
            seed=args.seed,
            samples=args.samples,
        )
    except SpecError as exc:
        print(f"input error at {exc.fieldname}: {exc.message}", file=sys.stderr)
        return STATUS_INPUT
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return STATUS_INPUT
    except ConstructionError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        for attempt in exc.attempts:
            print(f"  attempt s={attempt['s']!r}: {attempt['failure']}", file=sys.stderr)
        return STATUS_NUMERIC
    except EulerFanError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return STATUS_NUMERIC

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, content in result.artifacts.items():
                with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
                    handle.write(content)
        except OSError as exc:
            print(f"input error at --out: {exc}", file=sys.stderr)
            return STATUS_INPUT
    for line in result.summary:
        print(line)
    if args.out:
        for name in result.artifacts:
            print(f"wrote: {os.path.join(args.out, name)}")
    print(f"status: {result.status}")
    return result.status


def entry() -> None:
    sys.exit(main())
