"""Input pools and per-item work of the benchmark's four workloads.

Every pool is generated by ``tests/generators.py`` from a data seed; the
library only ever receives the generated ``RiemannProblem`` values (or, for
``cli``, JSON files written from them).  Each item runs its layer calls and
then checks its own outputs, so a timed item is a completed *and* checked
item.  Layer functions are called through their module attributes
(``wedge.build_sr``, ``riemann.classify``...) so the tracer's rebinding sees
the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import eulerfan.cli as cli
import eulerfan.riemann as riemann
import eulerfan.subsolution as subsolution
import eulerfan.wedge as wedge
from eulerfan import CaseId, GasLaw, RiemannProblem, State, pure_shock_speed
from generators import problem_for_case, random_case5, random_case6_one_shock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Acceptance criteria 6-8 run 500 problems per branch; the golden digests are
# pinned over exactly that batch.
BATCH = 500
DEFAULT_DATA_SEEDS = {"wedge-sr": 601, "wedge-s": 602, "classical": 101}
CLASSICAL_PER_CASE = 100
# criterion 1's case order, then the constant case it leaves out
CLASSICAL_CASES = (
    CaseId.R1R3_VACUUM,
    CaseId.R1R3,
    CaseId.SINGLE_R,
    CaseId.R1S3,
    CaseId.S1R3,
    CaseId.SINGLE_S,
    CaseId.S1S3,
    CaseId.CONSTANT,
)
MIDDLE_CASES = (CaseId.R1R3, CaseId.R1S3, CaseId.S1R3, CaseId.S1S3)

# acceptance criterion 9: no direct subsolution, yet the wedge builds
NO_SUBSOLUTION = RiemannProblem(
    GasLaw(K=1.0, gamma=1.0), State(1.0, 0.0, 0.0), State(4.0, 0.0, 1.0)
)

# ``python -m eulerfan.cli`` only imports the module (it has no __main__
# guard) and exits 0, so the CLI is always started through its entry point.
LAUNCH = "from eulerfan.cli import entry; entry()"

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def halvings(perturbation: float, initial_fraction: float = 0.5) -> int:
    """Halvings of the perturbation schedule behind a returned fraction."""
    return round(math.log2(initial_fraction / perturbation))


# ---------------------------------------------------------------------------
# wedge-sr / wedge-s: build_sr / build_s plus criterion 6's certificate bundle


def wedge_pool(workload: str, data_seed: int) -> list[RiemannProblem]:
    rng = np.random.default_rng(data_seed)
    if workload == "wedge-sr":
        return [random_case5(rng)[0] for _ in range(BATCH)]
    return [random_case6_one_shock(rng) for _ in range(BATCH)]


def wedge_bundle(p: RiemannProblem, w) -> tuple[bytes, tuple]:
    """Criterion 6's JSON bundle of one construction, and its certificates."""
    glue = wedge.verify_construction(p, w)
    full = subsolution.verify_full(w.problem_tilde, w.sub)
    right = riemann.verify_standard(w.problem_wedge, w.right_wave)
    blob = cli.dumps(
        {
            "construction": cli.construction_dict(w),
            "glue": glue.to_dict(),
            "subsolution_full": full.to_dict(),
            "right_wave": right.to_dict(),
        }
    )
    return blob.encode(), (glue, full, right)


def wedge_sr_item(p: RiemannProblem):
    """(bundle bytes, perturbation, checks passed) for one shock+rarefaction item."""
    w = wedge.build_sr(p)
    blob, (glue, full, right) = wedge_bundle(p, w)
    rho_m = riemann.solve_standard(p).middle.rho
    ok = (
        w.glue_margin > 0.0
        and w.sub.rho1 < rho_m
        and glue.overall
        and full.overall
        and right.overall
        and glue.entry("speeds.mu0-before-mu1").passed
        and glue.entry("speeds.mu1-before-mu2").passed
    )
    return blob, w.perturbation, ok


def wedge_s_item(p: RiemannProblem):
    """(bundle bytes, perturbation, checks passed) for one single-shock item."""
    w = wedge.build_s(p)
    blob, (glue, full, right) = wedge_bundle(p, w)
    ok = (
        w.glue_margin > 0.0
        and w.mu2 == pure_shock_speed(w.u2, p.right)
        and glue.overall
        and full.overall
        and right.overall
        and glue.entry("aux-shock-weaker-than-rarefaction").passed
    )
    return blob, w.perturbation, ok


# ---------------------------------------------------------------------------
# classical: classify + solve_standard + verify_standard over all eight cases


def classical_pool(data_seed: int) -> list[tuple]:
    """Sweeps of eight problems, one per case.

    The problems are criterion 1's draws (case by case, 100 each, the
    constant case last); sweep j takes the j-th problem of every case.  Cheap
    patterns (constant, single waves, vacuum) cost a fifth of the two-wave
    ones, so a per-problem median would sit on the gap between the two
    clusters; a sweep gives every latency sample the same case mix.
    """
    rng = np.random.default_rng(data_seed)
    by_case = [
        [(case, *problem_for_case(case, rng)) for _ in range(CLASSICAL_PER_CASE)]
        for case in CLASSICAL_CASES
    ]
    return list(zip(*by_case))


def classical_item(sweep) -> list[tuple[tuple, bool]]:
    """(output record, checks passed) per problem: criterion 1's and 2's checks."""
    results = []
    for case, p, rho_m in sweep:
        found = riemann.classify(p)
        solution = riemann.solve_standard(p)
        certificate = riemann.verify_standard(p, solution)
        ok = found is case and certificate.overall
        if case in MIDDLE_CASES:
            ok = ok and abs(solution.middle.rho - rho_m) <= 1e-9 * rho_m
        elif case is CaseId.R1R3_VACUUM:
            ok = ok and solution.middle.rho == 0.0
        middle = None if solution.middle is None else solution.middle.rho
        results.append(((found.value, middle, certificate.overall), ok))
    return results


# ---------------------------------------------------------------------------
# cli: one-shot invocations of the entry point over a fixed input set


@dataclass(frozen=True)
class CliCase:
    name: str
    mode: str
    doc: dict | None  # None: the mode takes no input file
    status: int
    artifacts: tuple[str, ...]


def cli_cases() -> list[CliCase]:
    """The fixed input set: every mode, both subsolution outcomes and the
    wedge's rotation, and one malformed input.  Nine of the fourteen
    invocations cost little beyond interpreter start and ``import eulerfan``,
    so the median invocation is one of them and the tail one of the wedges.

    Single-shock data in ``subsolution`` mode is left out on purpose: the
    search rejects its zero discriminant and the CLI exits 3 ("requires a
    positive discriminant"); whether that should be the exit-2 "certified
    empty" outcome is an open question, and the benchmark does not pin it.
    """
    rng = np.random.default_rng(101)
    r1r3, _ = problem_for_case(CaseId.R1R3, rng)
    s1s3, _ = problem_for_case(CaseId.S1S3, rng)
    vacuum, _ = problem_for_case(CaseId.R1R3_VACUUM, rng)
    r1s3, _ = problem_for_case(CaseId.R1S3, rng)
    single_r, _ = problem_for_case(CaseId.SINGLE_R, rng)
    # criterion 4's data; its sixth draw is the first the search finds feasible
    tight = np.random.default_rng(104)
    feasible = [random_case5(tight, profile="tight")[0] for _ in range(6)][-1]
    sr, _ = random_case5(np.random.default_rng(601))
    single = random_case6_one_shock(np.random.default_rng(602))
    doc = cli.problem_dict
    bad = doc(s1s3)
    bad["law"]["gamma"] = 0.5
    wedge_out = ("wedge_certificates.json", "wedge_construction.json", "wedge_geometry.csv")
    sub_out = ("full_certificate.json", "reduced_certificate.json", "subsolution_search.json")
    std_out = ("standard_certificate.json", "standard_solution.json")
    return [
        CliCase("classify-r1r3", "classify", doc(r1r3), 0, ("classification.json",)),
        CliCase("classify-single-shock", "classify", doc(single), 0, ("classification.json",)),
        CliCase("standard-s1s3", "standard", doc(s1s3), 0, std_out),
        CliCase("standard-s1r3", "standard", doc(sr), 0, std_out),
        CliCase("standard-single-r", "standard", doc(single_r), 0, std_out),
        CliCase("standard-vacuum", "standard", doc(vacuum), 0, std_out),
        CliCase("subsolution-found", "subsolution", doc(feasible), 0, sub_out),
        CliCase("subsolution-empty", "subsolution", doc(NO_SUBSOLUTION), 2, ("subsolution_search.json",)),
        CliCase("wedge-sr", "wedge", doc(sr), 0, wedge_out),
        CliCase("wedge-rotated", "wedge", doc(r1s3), 0, wedge_out),
        CliCase("wedge-s", "wedge", doc(single), 0, wedge_out),
        CliCase("wedge-no-direct-subsolution", "wedge", doc(NO_SUBSOLUTION), 0, wedge_out),
        CliCase("lemmas", "lemmas", None, 0, ("lemma_report.json",)),
        CliCase("input-error", "standard", bad, 1, ()),
    ]


def write_cli_inputs(cases: list[CliCase], workdir: Path) -> dict[str, Path]:
    folder = workdir / "cli-inputs"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for case in cases:
        if case.doc is not None:
            path = folder / f"{case.name}.json"
            path.write_text(json.dumps(case.doc, sort_keys=True), encoding="utf-8")
            paths[case.name] = path
    return paths


def cli_argv(case: CliCase, inputs: dict[str, Path], out: Path) -> list[str]:
    argv = ["--mode", case.mode, "--out", str(out)]
    if case.name in inputs:
        argv += ["--input", str(inputs[case.name])]
    return argv


def collect_artifacts(out: Path) -> dict[str, str]:
    """sha256 of every file the invocation left in its output directory."""
    if not out.is_dir():
        return {}
    return {
        entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
        for entry in sorted(out.iterdir())
    }


def cli_failures(case: CliCase, status: int, artifacts: dict[str, str], pinned: dict | None) -> list[str]:
    """Why one invocation failed: exit code, artifact set, or pinned bytes."""
    problems = []
    if status != case.status:
        problems.append(f"exit {status}, expected {case.status}")
    missing = sorted(set(case.artifacts) - set(artifacts))
    extra = sorted(set(artifacts) - set(case.artifacts))
    if missing:
        problems.append(f"missing {missing}")
    if extra:
        problems.append(f"unexpected {extra}")
    if pinned is not None:
        changed = sorted(n for n in case.artifacts if n in artifacts and artifacts[n] != pinned.get(n))
        if changed:
            problems.append(f"bytes differ from golden: {changed}")
    return problems


def child_env(*extra: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports eulerfan from SRC."""
    env = dict(os.environ)
    paths = [*map(str, extra), str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def run_cli_subprocess(argv: list[str], launch: str = LAUNCH) -> tuple[int, float]:
    """Run the CLI in a fresh interpreter; (exit code, peak RSS in MiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", launch, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, wait_status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli_in_process(argv: list[str]) -> int:
    """``cli.main`` in this interpreter, with its summary lines discarded."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        stdout, stderr = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = sink
        try:
            return cli.main(argv)
        finally:
            sys.stdout, sys.stderr = stdout, stderr


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_inputs(workload: str, data_seed: int | None, workdir: Path):
    """The workload's generated input pool (and, for cli, its input files)."""
    if workload in ("wedge-sr", "wedge-s"):
        return wedge_pool(workload, data_seed)
    if workload == "classical":
        return classical_pool(data_seed)
    cases = cli_cases()
    return cases, write_cli_inputs(cases, workdir)
