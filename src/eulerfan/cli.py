"""Command-line front end: JSON problem descriptions in, certificates and
geometry tables out, with deterministic byte-identical artifacts."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _escape

from . import _HOME, _bind
from .certificate import Certificate
from .eos import GasLaw
from .errors import DEFAULT_SAMPLES, DEFAULT_SEED, SEARCH_SIZES, ConstructionError, DomainError, EulerFanError, NumericError
from .errors import Record, require_count, require_finite, require_positive
from .riemann import (
    EQUATION_TOL,
    RAREFACTION,
    STRICT_TOL,
    CaseId,
    RiemannProblem,
    classify,
    near_boundaries,
    rotate_180,
    solve_standard,
    verify_standard,
)
from .wavecurves import State


def __getattr__(name: str):
    """An export of the package, bound here as the mode that calls it would
    bind it: the search and the constructions are bound by the first mode
    that runs them, so classify and standard runs never load them."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name], globals())
    return globals()[name]


MODES = ("classify", "standard", "subsolution", "wedge", "lemmas")

# Exit codes: 0 all requested certificates pass; 1 malformed/unsupported
# input; 2 subsolution search certified empty; 3 numeric failure.
STATUS_OK = 0
STATUS_INPUT = 1
STATUS_NOT_FOUND = 2
STATUS_NUMERIC = 3


class SpecError(DomainError):
    """Malformed input, with the document field or flag it is at."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        self.message = message
        super().__init__(f"{fieldname}: {message}")


# A mode's exit status, its artifacts (file name -> text) and its summary
# lines; a named tuple, which compares as a tuple.
RunResult = namedtuple("RunResult", "status artifacts summary")


# ---------------------------------------------------------------------------
# serialization (floats render as shortest round-trippable decimals)

# Artifact keys that differ from the field names: the wedge's fan
# subsolution, and the kinetic bound spelled as in the paper.
_RENAMED = {"sub": "subsolution", "c1": "C1"}


def result_dict(x):
    """JSON-ready data of a mode's result, a problem, solution, subsolution or
    construction: a Record becomes a dict of its fields (renamed by
    _RENAMED), a tuple a list, a CaseId its value, and anything else stays as
    it is; certificates are written by Certificate.to_dict.  A NaN inside a
    State (the vacuum's undefined middle velocity) becomes None; another NaN
    is kept, so that dumps refuses it."""
    if type(x) is float:  # most leaves: skip the type tests below
        return x
    if isinstance(x, Record):
        vacuum_nan = type(x) is State
        out = {}
        for name in x._fields:
            value = getattr(x, name)
            out[_RENAMED.get(name, name)] = None if vacuum_nan and value != value else result_dict(value)
        return out
    if type(x) is tuple:
        return [result_dict(v) for v in x]
    if isinstance(x, CaseId):
        return x.value
    return x


# The names callers convert problems and constructions by; the wedge mode
# uses them too, since the benchmark's tracer times construction_dict.
problem_dict = construction_dict = result_dict


def dumps(obj) -> str:
    """The artifact text of ``obj``: the bytes of ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False) + "\\n"``, written here because json's
    indented path runs its pure-Python encoder.

    Values of the exact types dict, list, tuple, str, float, int, bool and
    None are written, and keys must be str instances; any other value, a
    subclass of one of these types included, is a TypeError.  An inf or NaN
    at any depth is a NumericError."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(x, newline: str, emit) -> None:
    """Emit ``x``, whose nested lines start with ``newline`` (a newline and
    the current indent).  Floats come first: they are most of the leaves."""
    t = type(x)
    if t is float:
        if not -math.inf < x < math.inf:
            raise NumericError(f"non-finite number in the output: {x!r}")
        emit(repr(x))
    elif t is dict:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            emit(sep)
            emit(_escape(key))  # a TypeError for a key that is not a str
            emit(": ")
            _write(x[key], inner, emit)
            sep = "," + inner
        emit(newline + "}" if x else "{}")
    elif t is str:
        emit(_escape(x))
    elif t is list or t is tuple:
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            emit(sep)
            _write(value, inner, emit)
            sep = "," + inner
        emit(newline + "]" if x else "[]")
    elif x is True:
        emit("true")
    elif x is False:
        emit("false")
    elif x is None:
        emit("null")
    elif t is int:
        emit(repr(x))
    else:
        raise TypeError(f"{t.__name__} is not an artifact type")


def certificate_to_json(c: Certificate) -> str:
    return dumps(c.to_dict())


def certificate_from_json(text: str) -> Certificate:
    """The certificate of ``text``; DomainError for text or data it refuses."""
    return Certificate.from_dict(decode_json(text))


def emit_geometry(w) -> str:
    """CSV table of the fan breakpoints at t = 1 of a WedgeConstruction, one
    row per breakpoint.

    Breakpoints are strictly increasing; the shock line contributes a single
    breakpoint between its nondegenerate neighbours.  Other times scale
    them: see fan_geometry.
    """
    _bind("wedge", globals())
    regions = [r for r in fan_geometry(w, 1.0) if r[1] != r[2]]
    lines = ["t,breakpoint,left_region,right_region"]
    for (label_a, _, hi), (label_b, _, _) in zip(regions, regions[1:]):
        lines.append(f"1.0,{hi!r},{label_a},{label_b}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input parsing


# The rule of each value: the errors check that decides it, with its bounds.
_STATE = {"rho": (require_positive,), "v1": (require_finite,), "v2": (require_finite,)}

# The sections of an input document, each with the rule of each of its
# fields.  Every mode checks the whole document against this table, so a
# misspelled name or a bad value is an input error instead of a silent
# default, whichever fields the mode reads, and one document serves every
# mode.
_SCHEMA = {
    "law": {"K": (require_positive,), "gamma": (require_finite, 1.0)},
    "left": _STATE,
    "right": _STATE,
    "search": {name: (require_count, *bounds) for name, bounds in SEARCH_SIZES.items()},
    "perturbation": {"initial": (require_positive,), "max_halvings": (require_count, 0)},
}


def _check_field(fieldname: str, value, rule):
    """What the rule's check returns for ``value``, or SpecError naming
    ``fieldname``.  JSON may write a count as an integral float such as 7.0,
    so a count rule takes one as its int."""
    check, *bounds = rule
    if check is require_count and type(value) is float and value.is_integer():
        value = int(value)
    try:
        return check(fieldname, value, *bounds)
    except DomainError as exc:
        raise SpecError(fieldname, str(exc).removeprefix(fieldname + " ")) from None


def check_document(doc) -> dict:
    """A copy of an input document with every key and value checked against
    _SCHEMA; SpecError at the first that breaks it.  Sections stay optional
    here: parse_problem requires the ones a problem needs."""
    if not isinstance(doc, dict):
        raise SpecError("<input>", "top-level document must be a JSON object")
    checked = {}
    for name, section in doc.items():
        if name not in _SCHEMA:
            raise SpecError(name, "unknown section")
        rules = _SCHEMA[name]
        if not isinstance(section, dict):
            raise SpecError(name, f"expected an object, got {section!r}")
        checked[name] = {}
        for key, value in section.items():
            if key not in rules:
                raise SpecError(f"{name}.{key}", "unknown field")
            checked[name][key] = _check_field(f"{name}.{key}", value, rules[key])
    return checked


def parse_problem(doc: dict) -> RiemannProblem:
    """The problem of a document checked by check_document: the law and
    both sides are required, with every field."""
    for name in ("law", "left", "right"):
        if name not in doc:
            raise SpecError(name, "missing required section")
        for key in _SCHEMA[name]:
            if key not in doc[name]:
                raise SpecError(f"{name}.{key}", "missing required field")
    law, left, right = GasLaw(**doc["law"]), State(**doc["left"]), State(**doc["right"])
    if left.v1 != right.v1:
        raise SpecError("right.v1", "tangential velocities must match left.v1")
    return RiemannProblem(law, left, right)


def _unique_keys(pairs: list) -> dict:
    """A JSON object of the input, or SpecError if it repeats a key: json
    itself would keep the last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecError("<input>", f"repeated key {key!r}")
        obj[key] = value
    return obj


def decode_json(text: str):
    """The JSON value of ``text``, the one reader of input documents and
    certificates.  SpecError at ``<input>`` for text that is not JSON, an
    object that repeats a key, an integer literal longer than the
    interpreter's int digit limit, or nesting too deep to decode."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except SpecError:
        raise
    except json.JSONDecodeError as exc:
        raise SpecError("<input>", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SpecError("<input>", str(exc)) from exc


def load_input(path: str):
    """decode_json of the file at ``path``; SpecError at ``<input>`` also
    for a file that cannot be read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("<input>", str(exc)) from exc
    return decode_json(text)


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
            "standard_solution.json": dumps(result_dict(solution)),
            "standard_certificate.json": certificate_to_json(certificate),
        },
        [
            f"case: {solution.case.value}",
            f"certificate: {'PASS' if certificate.overall else 'FAIL'} "
            f"({len(certificate.entries)} entries)",
        ],
    )


def _run_subsolution(p: RiemannProblem, doc, tol_eq, tol_strict) -> RunResult:
    _bind("subsolution", globals())
    found = search_feasible(p, tol_strict=tol_strict, **doc.get("search", {}))
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
                {"found": True, "rho1": rho1, "delta2": delta2,
                 "reduced": result_dict(reduced), "full": result_dict(full)}
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
    _bind("subsolution", globals())
    _bind("wedge", globals())
    # S1R3 data has rho- < rho+, and so does a single 1-shock; R1S3 and
    # a single 3-shock have the opposite order, and turn into those
    rotated = p.left.rho > p.right.rho
    working = rotate_180(p) if rotated else p
    case = classify(working)
    options = dict(doc.get("search", {}), tol_strict=tol_strict)
    for key, value in doc.get("perturbation", {}).items():
        options["initial_fraction" if key == "initial" else key] = value
    if case is CaseId.S1R3:
        construction = build_sr(working, **options)
    elif case is CaseId.SINGLE_S:
        construction = build_s(working, **options)
    else:
        raise SpecError(
            "<input>",
            f"wedge mode needs shock+rarefaction or single-shock data, got {case.value}",
        )
    tols = {"tol_eq": tol_eq, "tol_strict": tol_strict}
    tilde, sub = construction.problem_tilde, construction.sub
    certificates = {
        "glue": verify_construction(working, construction, tol_strict=tol_strict),
        "subsolution_full": verify_full(tilde, sub, **tols),
        "subsolution_reduced": check_reduced(tilde, sub.rho1, extract_deltas(sub)[1], tol_strict=tol_strict),
        "right_wave": verify_standard(construction.problem_wedge, construction.right_wave, **tols),
    }
    ok = all(c.overall for c in certificates.values())
    artifacts = {
        "wedge_construction.json": dumps(
            {"rotated": rotated, "input": problem_dict(p), "working": problem_dict(working),
             "construction": construction_dict(construction)}
        ),
        "wedge_certificates.json": dumps({name: c.to_dict() for name, c in certificates.items()}),
        "wedge_geometry.csv": emit_geometry(construction),
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


def _run_lemmas(seed, samples) -> RunResult:
    from . import oracles  # the lemma suite, loaded by this mode only

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
    tol_eq: float = EQUATION_TOL,
    tol_strict: float = STRICT_TOL,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> RunResult:
    """Execute one CLI mode on a parsed input document.

    Every mode checks the whole document against _SCHEMA, and every flag
    value, before it runs, so a bad key or value is an input error whether
    or not the mode reads it."""
    if mode not in MODES:
        raise SpecError("--mode", f"unknown mode {mode!r}")
    doc = check_document(doc)
    tol_eq, tol_strict, seed, samples = (
        _check_field(flag, value, rule)
        for flag, value, rule in (
            ("--tol-eq", tol_eq, (require_positive,)),
            ("--tol-strict", tol_strict, (require_positive,)),
            ("--seed", seed, (require_count, 0)),
            ("--samples", samples, (require_count, 1)),
        )
    )
    if mode == "lemmas":
        return _run_lemmas(seed, samples)
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
    parser.add_argument("--tol-eq", type=float, default=EQUATION_TOL, help="equation residual tolerance (relative)")
    parser.add_argument("--tol-strict", type=float, default=STRICT_TOL, help="strict margin tolerance (relative)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sample seed (lemmas mode)")
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="sample count (lemmas mode)")
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
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
                for name, content in result.artifacts.items():
                    with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
                        handle.write(content)
            except OSError as exc:
                raise SpecError("--out", str(exc)) from exc
    except DomainError as exc:
        where = f" at {exc.fieldname}" if isinstance(exc, SpecError) else ""
        print(f"input error{where}: {getattr(exc, 'message', exc)}", file=sys.stderr)
        return STATUS_INPUT
    except ConstructionError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        for attempt in exc.attempts:
            print(f"  attempt s={attempt['s']!r}: {attempt['failure']}", file=sys.stderr)
        return STATUS_NUMERIC
    except EulerFanError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return STATUS_NUMERIC

    for line in result.summary:
        print(line)
    if args.out:
        for name in result.artifacts:
            print(f"wrote: {os.path.join(args.out, name)}")
    print(f"status: {result.status}")
    return result.status


def entry() -> None:
    """The ``eulerfan`` console script: ``main`` on the command line, its
    status as the process's exit status.

    This process runs one problem and ends, so once ``main`` is done, by a
    return, argparse's ``SystemExit`` (``--help``, a usage error) or an
    exception, ``gc.freeze()`` moves every live object to the collector's
    permanent generation, and interpreter finalization's cyclic-GC passes
    have nothing left to walk. Nothing is lost by it: ``main`` has closed
    its artifact files by then, and finalization still flushes stdout and
    stderr and runs the atexit handlers, as ``os._exit`` would not.
    ``main`` and ``run``, the in-process API, leave the collector as they
    found it."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()
