"""Tests of the benchmark's own helpers and failure accounting.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys

import pytest

import run

run.add_repo_paths()

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import eulerfan.riemann as riemann  # noqa: E402
import eulerfan.wedge as wedge  # noqa: E402


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "n, q",
    [
        (200, 95.0),  # exactly ten beyond p95
        (199, 90.0),  # p95 would leave nine
        (20, 50.0),
        (100000, 95.0),  # the ladder stops at p95
        (84, 75.0),  # six cli passes: p90 would leave eight
        (3, 100.0),  # none has ten beyond: the maximum
    ],
)
def test_tail_q_picks_highest_with_ten_beyond(n, q):
    assert run.tail_q(n) == q
    if q < 100.0:
        assert n - run.rank(n, q) >= run.TAIL_MIN_BEYOND


def test_tail_percentile_is_fixed_per_workload():
    assert run.TAIL_Q == {"wedge-sr": 95.0, "wedge-s": 95.0, "classical": 95.0, "cli": 75.0}
    values = [float(v) for v in range(500, 0, -1)]
    assert run.tail_percentile("wedge-sr", values) == (95.0, 475.0, 25)


def test_cli_tail_does_not_follow_the_pass_count():
    """A faster program runs eight cli passes instead of six; the tail is
    still read at p75, the same invocation of the 14."""
    per_pass = [float(v) for v in range(1, 15)]
    for passes in (6, 8):
        q, value, beyond = run.tail_percentile("cli", per_pass * passes)
        assert (q, value) == (75.0, 11.0)
        assert beyond >= run.TAIL_MIN_BEYOND
    assert run.tail_q(8 * 14) == 90.0  # what a count-based pick would read


def test_halvings_from_perturbation():
    assert wl.halvings(0.5) == 0
    assert wl.halvings(0.5 * 2.0**-13) == 13


def _wedge_runner(golden, item=None):
    pool = wl.wedge_pool("wedge-sr", wl.DEFAULT_DATA_SEEDS["wedge-sr"])
    runner = run.WedgeRunner(wl, "wedge-sr", pool, golden)
    if item is not None:
        runner.item = item
    return runner


def test_golden_item_passes_and_corrupted_bundle_byte_fails():
    golden = wl.load_golden()["wedge-sr"]
    clean = run.Failures()
    _wedge_runner(golden).run(0, clean)
    assert clean.count == 0

    def corrupted(p):
        blob, perturbation, ok = wl.wedge_sr_item(p)
        return blob[:100] + bytes([blob[100] ^ 1]) + blob[101:], perturbation, ok

    failures = run.Failures()
    _wedge_runner(golden, corrupted).run(0, failures)
    assert failures.count == 1
    assert "golden" in failures.reasons[0]


def test_corrupted_stream_fails_the_stream_digest():
    golden = dict(wl.load_golden()["wedge-sr"])
    golden["items"] = [None] * wl.BATCH
    runner = _wedge_runner(None)
    runner.blobs = [b"x"] * wl.BATCH
    runner.golden = golden
    failures = run.Failures()
    runner.finish(failures)
    assert failures.count == 1


def test_raising_item_is_a_failure():
    def raises(p):
        raise wl.cli.EulerFanError("boom")

    failures = run.Failures()
    _wedge_runner(None, raises).run(0, failures)
    assert failures.count == 1


def _cli_runner(tmp_path, cases, **kwargs):
    files = wl.write_cli_inputs(cases, tmp_path)
    return run.CliRunner(wl, cases, files, wl.load_golden()["cli"], **kwargs)


def _case(name):
    return next(c for c in wl.cli_cases() if c.name == name)


def test_cli_pinned_case_passes_and_wrong_exit_code_fails(tmp_path):
    good = _case("subsolution-empty")
    wrong = wl.CliCase(good.name, good.mode, good.doc, 0, good.artifacts)
    runner = _cli_runner(tmp_path, [good, wrong], in_process=True)
    failures = run.Failures()
    runner.run(0, failures)
    assert failures.count == 0
    runner.run(1, failures)
    assert failures.count == 1
    assert "exit 2, expected 0" in failures.reasons[0]


def test_cli_missing_artifact_fails():
    case = _case("wedge-sr")
    present = {name: "0" for name in case.artifacts[1:]}
    problems = wl.cli_failures(case, 0, present, None)
    assert problems == [f"missing ['{case.artifacts[0]}']"]


def test_silent_module_run_is_caught(tmp_path):
    """``python -m eulerfan.cli`` exits 0 without running; only the missing
    artifacts reveal it."""
    case = _case("classify-r1r3")
    files = wl.write_cli_inputs([case], tmp_path)
    out = tmp_path / "out"
    launch = "import runpy; runpy.run_module('eulerfan.cli', run_name='__main__')"
    status, _ = wl.run_cli_subprocess(wl.cli_argv(case, files, out), launch=launch)
    assert status == 0
    assert wl.cli_failures(case, status, wl.collect_artifacts(out), None) == [
        "missing ['classification.json']"
    ]
    status, _ = wl.run_cli_subprocess(wl.cli_argv(case, files, out))
    assert wl.cli_failures(case, status, wl.collect_artifacts(out), None) == []


def test_other_data_seeds_skip_the_golden_gate():
    assert run.golden_for(wl, "wedge-sr", 601) is not None
    assert run.golden_for(wl, "wedge-sr", 603) is None
    assert run.golden_for(wl, "wedge-s", 602) is not None


def test_tracer_restores_bindings_and_counts_repeat():
    originals = (wedge.build_sr, riemann.classify, wl.subsolution.v12_star)
    pool = wl.wedge_pool("wedge-sr", wl.DEFAULT_DATA_SEEDS["wedge-sr"])[:3]
    counters = []
    for _ in range(2):
        with Tracer() as tracer:
            for i, p in enumerate(pool):
                tracer.item = i
                wl.wedge_sr_item(p)
        counters.append(run.deterministic_counters(tracer))
        assert tracer.counts["wedge.halvings"] > 0
        assert all(span[4] in (0, 1, 2) for span in tracer.spans)
    assert counters[0] == counters[1]
    assert (wedge.build_sr, riemann.classify, wl.subsolution.v12_star) == originals


def _small_trace(tmp_path):
    pool = wl.wedge_pool("wedge-sr", wl.DEFAULT_DATA_SEEDS["wedge-sr"])[:3]
    return run.trace(wl, "wedge-sr", pool, None, [0, 1, 2], tmp_path / "trace.jsonl")


def test_traced_counters_agree_with_untraced_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)  # the summary names the trace file relative to ROOT
    _, failures, problems, metrics, _ = _small_trace(tmp_path)
    assert failures.count == 0 and problems == []
    assert metrics["subsolution.search.hits"][0] == metrics["wedge.construct.calls"][0] == 3

    # untraced perturbations that imply fewer halvings than the searches missed
    monkeypatch.setattr(run.WedgeRunner, "halvings", lambda self: 0)
    _, _, problems, _, _ = _small_trace(tmp_path)
    assert problems == ["search misses exceed the halvings of the untraced perturbations"]


def test_layer_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = run.layer_metrics(Tracer(), 1.0, 1.0, 1, None, {}, 0.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0)]
    assert dict(tracer.self_times()) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_checkout_without_sources_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "classical"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
