"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every suite is seeded and deterministic; the wedge batches are serialized to
JSON and hashed so the determinism criterion can re-run them byte for byte.
"""

import functools
import hashlib

import numpy as np

from eulerfan import (
    CaseId,
    check_reduced,
    classify,
    extract_deltas,
    lift_to_full,
    pure_shock_speed,
    reduced_from,
    reduced_residuals,
    run_suite,
    search_feasible,
    solve_standard,
    verify_construction,
    verify_full,
    verify_standard,
)
from eulerfan import GasLaw, RiemannProblem, State
from eulerfan.cli import STATUS_OK, construction_dict, dumps, run
from eulerfan.wedge import build_sr
import batches
from generators import problem_for_case, random_case5

SEVEN_CASES = (
    CaseId.R1R3_VACUUM,
    CaseId.R1R3,
    CaseId.SINGLE_R,
    CaseId.R1S3,
    CaseId.S1R3,
    CaseId.SINGLE_S,
    CaseId.S1S3,
)
MIDDLE_CASES = (CaseId.R1R3, CaseId.R1S3, CaseId.S1R3, CaseId.S1S3)
SHOCK_CASES = (CaseId.R1S3, CaseId.S1R3, CaseId.S1S3)

# Full sha256 of the criterion 6/7 batch streams (batches.BATCHES): any
# change to a number or a byte of the serialized bundles changes these.
PINNED_SR = "11e48864110371f015ba8b435426dd32b1cf5ddf5e7e96dca4ae23ac138fb7b0"
PINNED_S = "93b1ca5f36372b44f7bd179cf17fe8d0c3349f9ce062e4cd51098d7c9b3a3c63"

NO_SUBSOLUTION = RiemannProblem(
    GasLaw(K=1.0, gamma=1.0), State(1.0, 0.0, 0.0), State(4.0, 0.0, 1.0)
)


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def test_criterion_1_classification_coverage():
    rng = np.random.default_rng(101)
    misclassified = 0
    worst_middle = 0.0
    for case in SEVEN_CASES:
        for _ in range(100):
            p, rho_m = problem_for_case(case, rng)
            if classify(p) is not case:
                misclassified += 1
                continue
            if case in MIDDLE_CASES:
                solved = solve_standard(p).middle.rho
                worst_middle = max(worst_middle, abs(solved - rho_m) / rho_m)
            elif case is CaseId.R1R3_VACUUM:
                assert solve_standard(p).middle.rho == 0.0
    _report(
        1,
        "classification coverage",
        misclassified == 0 and worst_middle <= 1e-9,
        f"misclassified={misclassified}/700, worst middle error={worst_middle:.2e}",
    )


def test_criterion_2_jump_certificates_and_corruption():
    rng = np.random.default_rng(102)
    all_pass = True
    for case in SEVEN_CASES:
        for _ in range(100):
            p, _ = problem_for_case(case, rng)
            s = solve_standard(p)
            if not verify_standard(p, s).overall:
                all_pass = False
    flipped = 0
    for k in range(100):
        case = SHOCK_CASES[k % len(SHOCK_CASES)]
        p, _ = problem_for_case(case, rng)
        s = solve_standard(p)
        bad = s._replace(middle=s.middle._replace(rho=(1.0 + 1e-3) * s.middle.rho))
        cert = verify_standard(p, bad)
        if any(
            not e.passed and (".mass" in e.label or ".momentum" in e.label)
            for e in cert.entries
        ):
            flipped += 1
    _report(
        2,
        "jump/entropy certificates",
        all_pass and flipped >= 99,
        f"corruption flips={flipped}/100",
    )


def test_criterion_3_closed_form_consistency():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        p, _ = random_case5(rng)
        t = rng.uniform(1e-6, 1.0 - 1e-6)
        rho1 = p.left.rho + t * (p.right.rho - p.left.rho)
        r = reduced_from(p, rho1, 1.0)
        for _, lhs, rhs in reduced_residuals(p, r):
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    _report(3, "closed-form consistency", worst <= 1e-10, f"worst residual={worst:.2e}")


def test_criterion_4_formulation_equivalence():
    rng = np.random.default_rng(104)
    found = 0
    ok = True
    worst_extract = 0.0
    for _ in range(200):
        p, _ = random_case5(rng, profile="tight")
        result = search_feasible(p)
        if result is None:
            continue
        found += 1
        rho1, delta2 = result
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        cert = verify_full(p, full)
        if len(cert.entries) != 11 or not cert.overall:
            ok = False
        d1, d2 = extract_deltas(full)
        worst_extract = max(worst_extract, abs(d1 - r.delta1), abs(d2 - r.delta2))
        if not check_reduced(p, rho1, d2).overall:
            ok = False
    _report(
        4,
        "formulation equivalence",
        ok and found > 0 and worst_extract <= 1e-12,
        f"feasible={found}/200, worst extraction={worst_extract:.2e}",
    )


def test_criterion_5_lemma_suites():
    summary = run_suite(n_samples=10000)
    gaps = {k: v["min_gap"] for k, v in summary["lemmas"].items()}
    _report(
        5,
        "lemma suites",
        summary["overall"],
        f"min gaps={ {k: float(f'{v:.3e}') for k, v in gaps.items()} }, "
        f"f grid min={summary['f_grid']['min_value']:.3e}",
    )


def _sr_passes(p, w, glue):
    labels = ("speeds.mu0-before-mu1", "speeds.mu1-before-mu2")
    return w.sub.rho1 < solve_standard(p).middle.rho and all(glue.entry(label).passed for label in labels)


def _s_passes(p, w, glue):
    return w.mu2 == pure_shock_speed(w.u2, p.right) and glue.entry("aux-shock-weaker-than-rarefaction").passed


# each batch's checks beyond a positive glue margin and passing certificates
PASSES = {"wedge-sr": _sr_passes, "wedge-s": _s_passes}


def _bundles(name, constructions):
    """The failures of the batch's (problem, construction) pairs, where a
    construction may be the exception its build raised, and the sha256 of
    their serialized bundles."""
    hasher = hashlib.sha256()
    failures = []
    for i, (p, w) in enumerate(constructions):
        if isinstance(w, Exception):  # construction must never fail here
            failures.append(f"{i}: {type(w).__name__}")
            continue
        glue = verify_construction(p, w)
        full = verify_full(w.problem_tilde, w.sub)
        right = verify_standard(w.problem_wedge, w.right_wave)
        bundle = {
            "construction": construction_dict(w),
            "glue": glue.to_dict(),
            "subsolution_full": full.to_dict(),
            "right_wave": right.to_dict(),
        }
        hasher.update(dumps(bundle).encode())
        if not (w.glue_margin > 0.0 and glue.overall and full.overall and right.overall and PASSES[name](p, w, glue)):
            failures.append(f"{i}: certificate")
    return failures, hasher.hexdigest()


@functools.cache
def _recorded(name):
    return _bundles(name, ((draw.problem, draw.construction) for draw in batches.record(name)))


def _rebuilt(name):
    """The digest of the batch built again, with no recorder."""
    _, _, build = batches.BATCHES[name]
    return _bundles(name, ((p, batches.construct(build, p)) for p in batches.problems(name)))[1]


def test_criterion_6_wedge_shock_rarefaction():
    failures, _ = _recorded("wedge-sr")
    # a sample of the same pipeline through the CLI entry point
    seed, _, _ = batches.BATCHES["wedge-sr"]
    rng = np.random.default_rng(seed + 1)
    status_ok = True
    for _ in range(3):
        p, _ = random_case5(rng)
        doc = {
            "law": {"K": p.law.K, "gamma": p.law.gamma},
            "left": {"rho": p.left.rho, "v1": p.left.v1, "v2": p.left.v2},
            "right": {"rho": p.right.rho, "v1": p.right.v1, "v2": p.right.v2},
        }
        if run("wedge", doc).status != STATUS_OK:
            status_ok = False
    _report(
        6,
        "wedge construction, shock+rarefaction data",
        not failures and status_ok,
        f"failures={len(failures)}/500" + (f" first: {failures[0]}" if failures else ""),
    )


def test_criterion_7_wedge_single_shock():
    failures, _ = _recorded("wedge-s")
    _report(
        7,
        "wedge construction, single-shock data",
        not failures,
        f"failures={len(failures)}/500" + (f" first: {failures[0]}" if failures else ""),
    )


def test_criterion_8_determinism():
    # the recorded batches, and both built again without the recorders
    first_sr, first_s = _recorded("wedge-sr")[1], _recorded("wedge-s")[1]
    again_sr, again_s = _rebuilt("wedge-sr"), _rebuilt("wedge-s")
    _report(
        8,
        "determinism of certificate artifacts",
        first_sr == again_sr == PINNED_SR and first_s == again_s == PINNED_S,
        f"sha256 sr={first_sr[:12]}.., s={first_s[:12]}..",
    )


def test_criterion_9_negative_control():
    empty = search_feasible(NO_SUBSOLUTION) is None
    try:
        w = build_sr(NO_SUBSOLUTION)
        built = (
            w.glue_margin > 0.0
            and verify_construction(NO_SUBSOLUTION, w).overall
            and verify_full(w.problem_tilde, w.sub).overall
        )
    except Exception:
        built = False
    _report(
        9,
        "negative control (no direct subsolution, wedge still builds)",
        empty and built,
        "data: K=1 gamma=1 rho=(1,4) v2=(0,1)",
    )
