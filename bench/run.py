"""eulerfan benchmark: four workloads, end-to-end metrics, traced layer breakdown.

Run from the root of a checkout:

    python3 bench/run.py --workload wedge-sr --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the traced
layer breakdown instead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable summary.  See bench/README.md for the workloads, the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from clock import INTERPRETER, PROCESS, ScaledClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# The ladder stops at p95, so a 500-problem wedge pool keeps 25 samples
# beyond its tail rather than one noisy order statistic, and classical's tens
# of thousands of sub-millisecond sweeps are not read at p99.99, where only
# host interruptions live.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_MIN_BEYOND = 10
# Per-item samples of one untraced run at the seed commit: 500-problem wedge
# pools in one pass, about 24000 classical sweeps, six passes over the 14 cli
# invocations.  The tail percentile of each workload is picked once, from
# these counts, so it does not change when the program gets faster and runs
# more passes (cli at eight passes would otherwise be read at p90, a different
# invocation of the 14, and compared with the parent's p75).
BASELINE_SAMPLES = {"wedge-sr": 500, "wedge-s": 500, "classical": 24000, "cli": 84}
# whole pool passes per traced-run phase; fixed, so counters repeat exactly
TRACE_PASSES = {"wedge-sr": 1, "wedge-s": 1, "classical": 10, "cli": 3}
CLI_MODES = ("classify", "standard", "subsolution", "wedge", "lemmas")

# A fresh interpreter times importing eulerfan and building the inputs.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
import workloads
seed = None if sys.argv[2] == "-" else int(sys.argv[2])
workloads.build_inputs(sys.argv[1], seed, workloads.Path(sys.argv[3]))
print(time.perf_counter() - start)
"""


def add_repo_paths() -> None:
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ---------------------------------------------------------------------------
# statistics


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))  # q * n / 100 is inexact in binary


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above its rank."""
    r = rank(len(sorted_values), q)
    return sorted_values[r - 1], len(sorted_values) - r


def tail_q(n: int) -> float:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of ``n``
    samples beyond it; 100 (the maximum) if none has."""
    for q in reversed(TAIL_LADDER):
        if n - rank(n, q) >= TAIL_MIN_BEYOND:
            return q
    return 100.0


TAIL_Q = {workload: tail_q(n) for workload, n in BASELINE_SAMPLES.items()}


def tail_percentile(workload: str, values: list[float]) -> tuple[float, float, int]:
    """(q, value, samples beyond) at the workload's fixed tail percentile."""
    q = TAIL_Q[workload]
    value, beyond = percentile(sorted(values), q)
    return q, value, beyond


# ---------------------------------------------------------------------------
# per-workload runners: run(i) does and checks item i, recording failures


class Failures:
    """Failure count plus the first few reasons, for the summary."""

    def __init__(self):
        self.count = 0
        self.reasons: list[str] = []

    def add(self, reason: str, problems: int = 1) -> None:
        self.count += problems
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class WedgeRunner:
    problems_per_item = 1

    def __init__(self, wl, workload, pool, golden):
        self.item = wl.wedge_sr_item if workload == "wedge-sr" else wl.wedge_s_item
        self.wl = wl
        self.pool = pool
        self.golden = golden
        self.blobs: list[bytes | None] = [None] * len(pool)
        self.perturbations: list[float | None] = [None] * len(pool)

    def run(self, i: int, failures: Failures) -> None:
        try:
            blob, perturbation, ok = self.item(self.pool[i])
        except Exception as exc:  # a raising item is a failed item
            failures.add(f"item {i}: {type(exc).__name__}: {exc}")
            return
        if self.blobs[i] is not None and self.blobs[i] != blob:
            ok, why = False, "bundle bytes changed between passes"
        elif self.golden is not None and self.wl.short_digest(blob) != self.golden["items"][i]:
            ok, why = False, "bundle bytes differ from golden"
        else:
            why = "certificate"
        self.blobs[i], self.perturbations[i] = blob, perturbation
        if not ok:
            failures.add(f"item {i}: {why}")

    def halvings(self) -> int:
        return sum(self.wl.halvings(s) for s in self.perturbations if s is not None)

    def outputs(self) -> str:
        """sha256 of the bundle stream in pool order (criterion 8's bytes)."""
        hasher = hashlib.sha256()
        for blob in self.blobs:
            hasher.update(blob or b"")
        return hasher.hexdigest()

    def finish(self, failures: Failures) -> None:
        if self.golden is not None and None not in self.blobs:
            if self.outputs() != self.golden["sha256"]:
                failures.add("bundle stream digest differs from golden")


class ClassicalRunner:
    def __init__(self, wl, pool):
        self.problems_per_item = len(pool[0])
        self.wl = wl
        self.pool = pool
        self.records: list = [None] * len(pool)

    def run(self, i: int, failures: Failures) -> None:
        sweep = self.pool[i]
        try:
            results = self.wl.classical_item(sweep)
        except Exception as exc:
            failures.add(f"sweep {i}: {type(exc).__name__}: {exc}", len(sweep))
            return
        records = [record for record, _ in results]
        previous = self.records[i] or records
        for (case, _, _), (record, ok), before in zip(sweep, results, previous):
            if not ok:
                failures.add(f"sweep {i}, {case.value}: check")
            elif record != before:
                failures.add(f"sweep {i}, {case.value}: output changed between passes")
        self.records[i] = records

    def outputs(self) -> str:
        return hashlib.sha256(repr(self.records).encode()).hexdigest()

    def finish(self, failures: Failures) -> None:
        pass


class CliRunner:
    """One CLI invocation per item, in a fresh interpreter or in-process."""

    problems_per_item = 1

    def __init__(self, wl, cases, inputs, golden, *, in_process=False):
        self.wl = wl
        self.cases = cases
        self.inputs = inputs
        self.golden = golden
        self.in_process = in_process
        self.artifacts: list = [None] * len(cases)
        self.artifact_bytes = 0
        self.peak_rss_mb = 0.0

    def run(self, i: int, failures: Failures) -> None:
        case = self.cases[i]
        out = self.wl.fresh_dir(WORKDIR / "cli-out" / case.name)
        argv = self.wl.cli_argv(case, self.inputs, out)
        if self.in_process:
            status = self.wl.run_cli_in_process(argv)
        else:
            status, rss = self.wl.run_cli_subprocess(argv)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        artifacts = self.wl.collect_artifacts(out)
        if out.is_dir():
            self.artifact_bytes += sum(f.stat().st_size for f in out.iterdir())
        shutil.rmtree(out, ignore_errors=True)
        problems = self.wl.cli_failures(case, status, artifacts, self.golden.get(case.name))
        self.artifacts[i] = artifacts
        if problems:
            failures.add(f"{case.name}: {'; '.join(problems)}")

    def outputs(self) -> str:
        return hashlib.sha256(json.dumps(self.artifacts, sort_keys=True).encode()).hexdigest()

    def finish(self, failures: Failures) -> None:
        pass


@dataclass
class Timing:
    """Per-item and total seconds of a closed loop, scaled to the nominal
    machine speed (see clock.py), with the raw wall-clock values beside."""

    latencies: list[float]
    elapsed: float
    raw_latencies: list[float]
    raw_elapsed: float


def closed_loop(runner, order, failures, *, seconds=None, passes=None, tracer=None, reference=INTERPRETER) -> Timing:
    """One client, no threads: items back to back in ``order``, in whole
    passes over the pool so every run times the same mix.  Runs ``passes``
    passes, or the number of passes whose end is nearest to ``seconds`` of
    scaled time (at least one), so the pass count does not follow the
    host's speed."""
    clock = ScaledClock(reference)
    raw, segments = [], []
    done = 0
    while True:
        for i in order:
            if tracer is not None:
                tracer.item = i
            clock.tick()
            t0 = perf_counter()
            runner.run(i, failures)
            raw.append(perf_counter() - t0)
            segments.append(clock.segment)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        else:
            so_far = clock.scaled_so_far()
            if abs(so_far - seconds) <= abs(so_far * (done + 1) / done - seconds):
                break
    clock.close()
    scaled = [clock.scaled(t, s) for t, s in zip(raw, segments)]
    return Timing(scaled, clock.scaled_total(), raw, clock.raw_total())


# ---------------------------------------------------------------------------
# set-up


def setup_seconds(wl, workload: str, data_seed: int | None) -> list[float]:
    """Set-up time measured SETUP_REPEATS times, each in a fresh interpreter,
    each scaled by the PROCESS reference samples taken before and after it."""
    samples = []
    before = PROCESS.measure()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, workload, "-" if data_seed is None else str(data_seed), str(WORKDIR)],
            cwd=ROOT,
            env=wl.child_env(BENCH, TESTS),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            check=True,
        )
        after = PROCESS.measure()
        samples.append(PROCESS.scale(float(done.stdout.split()[-1]), before, after))
        before = after
    return samples


def import_ms(wl) -> float:
    """A fresh interpreter's ``import eulerfan`` minus a bare interpreter, ms."""
    bare, loaded = [], []
    env = wl.child_env()
    for _ in range(IMPORT_REPEATS):
        for code, sink in (("pass", bare), ("import eulerfan", loaded)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True)
            sink.append(perf_counter() - t0)
    return 1e3 * (statistics.median(loaded) - statistics.median(bare))


# ---------------------------------------------------------------------------
# the two kinds of run


def make_runner(wl, workload, inputs, golden, *, in_process=False):
    if workload in ("wedge-sr", "wedge-s"):
        return WedgeRunner(wl, workload, inputs, golden)
    if workload == "classical":
        return ClassicalRunner(wl, inputs)
    cases, files = inputs
    return CliRunner(wl, cases, files, golden, in_process=in_process)


def golden_for(wl, workload: str, data_seed: int | None):
    """Pinned outputs, or None where only the certificates are checked."""
    if workload == "classical":
        return None
    if workload == "cli":
        return wl.load_golden()["cli"]
    if data_seed != wl.DEFAULT_DATA_SEEDS[workload]:
        return None
    return wl.load_golden()[workload]


def measure(wl, workload, inputs, golden, order, seconds, data_seed):
    """Untraced run: the end-to-end metrics."""
    failures = Failures()
    runner = make_runner(wl, workload, inputs, golden)
    reference = PROCESS if workload == "cli" else INTERPRETER
    timing = closed_loop(runner, order, failures, seconds=seconds, reference=reference)
    runner.finish(failures)
    setup = setup_seconds(wl, workload, data_seed)
    items = len(timing.latencies)
    attempted = items * runner.problems_per_item
    q, tail, beyond = tail_percentile(workload, timing.latencies)
    rss = runner.peak_rss_mb if workload == "cli" else wl.peak_rss_self_mb()
    _, raw_tail, _ = tail_percentile(workload, timing.raw_latencies)
    summary = [
        f"{workload}: {attempted} problems in {items} items, "
        f"{timing.elapsed:.2f} s at nominal speed ({timing.raw_elapsed:.2f} s wall), "
        f"{attempted / timing.elapsed:.2f} problems/s",
        f"latency p50 {1e3 * statistics.median(timing.latencies):.3f} ms, "
        f"tail p{q:g} {1e3 * tail:.3f} ms ({beyond} of {items} samples beyond it); "
        f"wall clock p50 {1e3 * statistics.median(timing.raw_latencies):.3f} ms, "
        f"p{q:g} {1e3 * raw_tail:.3f} ms",
        f"fail_ratio {failures.count}/{attempted}; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setup)
        + " s",
        f"outputs sha256 {runner.outputs()}",
    ]
    metrics = {
        "problems_per_s": (attempted / timing.elapsed, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(timing.latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "success_ratio": ((attempted - failures.count) / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return attempted, failures, [], metrics, summary


def layer_metrics(tracer, untraced_s, traced_s, items, runner, cli_run, import_cost):
    from tracer import SEARCH

    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    hits, misses = calls[SEARCH + ".hit"], calls[SEARCH + ".miss"]
    searches = hits + misses
    metrics = {
        "trace.problems": (items, "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "wedge.construct.calls": (calls["wedge.construct"], "count"),
        "wedge.construct.self_s": (self_s["wedge.construct"], "s"),
        "wedge.halvings": (counts["wedge.halvings"], "count"),
        "wedge.verify_construction_s": (self_s["wedge.verify_construction"], "s"),
        "subsolution.search.calls": (searches, "count"),
        "subsolution.search.hits": (hits, "count"),
        "subsolution.search.hit_ratio": (hits / searches if searches else 0.0, "ratio"),
        "subsolution.search.hit_s": (self_s[SEARCH + ".hit"], "s"),
        "subsolution.search.miss_s": (self_s[SEARCH + ".miss"], "s"),
        "subsolution.rho1_candidates": (counts["subsolution.rho1_candidates"], "count"),
        "subsolution.lift_s": (self_s["subsolution.reduced_from"] + self_s["subsolution.lift_to_full"], "s"),
        "subsolution.verify_full_s": (self_s["subsolution.verify_full"], "s"),
        "riemann.classify.calls": (calls["riemann.classify"], "count"),
        "riemann.classify_s": (self_s["riemann.classify"], "s"),
        "riemann.solve_standard.calls": (calls["riemann.solve_standard"], "count"),
        "riemann.solve_standard_s": (self_s["riemann.solve_standard"], "s"),
        "riemann.verify_standard_s": (self_s["riemann.verify_standard"], "s"),
        "wavecurves.calls.riemann": (counts["wavecurves.calls.riemann"], "count"),
        "wavecurves.calls.subsolution": (counts["wavecurves.calls.subsolution"], "count"),
        "wavecurves.calls.wedge": (counts["wavecurves.calls.wedge"], "count"),
        "certificate.serialize_s": (self_s["certificate.serialize"], "s"),
        "cli.artifact_bytes": (getattr(runner, "artifact_bytes", 0), "bytes"),
        "cli.import_ms": (import_cost, "ms"),
        "oracles.run_suite_s": (self_s["oracles.run_suite"], "s"),
    }
    for mode in CLI_MODES:
        metrics[f"cli.run_ms.{mode}"] = (1e3 * statistics.median(cli_run[mode]) if cli_run.get(mode) else 0.0, "ms")
    return metrics


def deterministic_counters(tracer) -> dict:
    return dict(tracer.counts) | {f"calls.{k}": v for k, v in tracer.span_counts().items()}


def trace(wl, workload, inputs, golden, order, trace_path):
    """Traced run: one untraced phase, then two traced phases over the same
    items; the per-layer metrics come from the first traced phase."""
    from tracer import SEARCH, Tracer

    passes = TRACE_PASSES[workload]
    failures = Failures()
    # times only cli.run, for cli.run_ms.<mode> without tracing overhead
    cli_timer = Tracer(only=frozenset({"cli.run"})) if workload == "cli" else None
    untraced = make_runner(wl, workload, inputs, golden, in_process=True)
    with cli_timer or contextlib.nullcontext():
        plain = closed_loop(untraced, order, failures, passes=passes, tracer=cli_timer)
    untraced.finish(failures)

    phases = []
    for _ in range(2):
        runner = make_runner(wl, workload, inputs, golden, in_process=True)
        with Tracer() as tracer:
            timing = closed_loop(runner, order, failures, passes=passes, tracer=tracer)
        runner.finish(failures)
        phases.append((runner, tracer, timing.elapsed))
    (runner_a, tracer_a, traced_a), (runner_b, tracer_b, _) = phases

    calls = tracer_a.span_counts()
    problems = []
    if deterministic_counters(tracer_a) != deterministic_counters(tracer_b):
        problems.append("deterministic counters differ between the two traced phases")
    if not untraced.outputs() == runner_a.outputs() == runner_b.outputs():
        problems.append("traced outputs differ from the untraced outputs")
    if workload in ("wedge-sr", "wedge-s"):
        # Each construction ends with the one search that found a pair, and
        # each search that found none costs one halving of the untraced
        # run's perturbations (a halving may also have another cause).
        if calls["wedge.construct"] != len(plain.latencies):
            problems.append("wedge.construct.calls differs from the items run")
        if calls[SEARCH + ".hit"] != calls["wedge.construct"]:
            problems.append("subsolution.search.hits differs from wedge.construct.calls")
        if calls[SEARCH + ".miss"] > untraced.halvings() * passes:
            problems.append("search misses exceed the halvings of the untraced perturbations")

    cli_run = {}
    if cli_timer is not None:
        for item, seconds in cli_timer.durations("cli.run"):
            cli_run.setdefault(inputs[0][item].mode, []).append(seconds)
    import_cost = import_ms(wl) if workload == "cli" else 0.0
    items = len(plain.latencies) * untraced.problems_per_item
    metrics = layer_metrics(tracer_a, plain.elapsed, traced_a, items, runner_a, cli_run, import_cost)
    tracer_a.write(trace_path)

    construct_s = sum(d for _, d in tracer_a.durations("wedge.construct"))
    miss_s = metrics["subsolution.search.miss_s"][0]
    summary = [
        f"{workload} traced: {items} problems per phase, untraced {plain.elapsed:.2f} s, traced {traced_a:.2f} s at nominal speed",
        f"spans written to {trace_path.relative_to(ROOT)} ({len(tracer_a.spans)} spans)",
    ]
    if workload in ("wedge-sr", "wedge-s"):
        # every search of a wedge workload runs inside a construction
        summary.append(
            f"search misses: {calls['subsolution.search.miss']} calls, {miss_s:.3f} s self time = "
            f"{100 * miss_s / construct_s:.1f}% of {construct_s:.3f} s in "
            f"{calls['wedge.construct']} constructions"
        )
    return 3 * items, failures, problems, metrics, summary


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("wedge-sr", "wedge-s", "classical", "cli"))
    parser.add_argument("--seed", type=int, default=0, help="orders the input pool")
    parser.add_argument("--seconds", type=float, default=16.0, help="timed length of an untraced run, in scaled seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seed",
        type=int,
        default=None,
        help="generator seed of the input pool (default: the acceptance seed; "
        "golden digests are only checked there)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulerfan" / "__init__.py").is_file() or not (TESTS / "generators.py").is_file():
        print(f"bench: {ROOT} holds no src/eulerfan package or tests/generators.py", file=sys.stderr)
        return 2
    add_repo_paths()
    import workloads as wl

    if args.workload == "cli" and args.data_seed is not None:
        print("bench: the cli workload has a fixed input set and takes no --data-seed", file=sys.stderr)
        return 2
    data_seed = wl.DEFAULT_DATA_SEEDS.get(args.workload) if args.data_seed is None else args.data_seed
    # one CPU for this process and the interpreters it starts, so a reference
    # sample and the work it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORKDIR.mkdir(exist_ok=True)
    inputs = wl.build_inputs(args.workload, data_seed, WORKDIR)
    pool_size = len(inputs[0]) if args.workload == "cli" else len(inputs)
    order = list(range(pool_size))
    random.Random(args.seed).shuffle(order)
    golden = golden_for(wl, args.workload, data_seed)

    if args.trace:
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result = trace(wl, args.workload, inputs, golden, order, trace_path)
    else:
        result = measure(wl, args.workload, inputs, golden, order, args.seconds, data_seed)
    attempted, failures, problems, metrics, summary = result

    for line in summary:
        print(line)
    for reason in failures.reasons + problems:
        print(f"FAIL {reason}")
    print(
        json.dumps(
            {
                "correct": failures.count == 0 and not problems,
                "attempted": attempted,
                "failed": failures.count,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
