"""Recompute bench/golden.json: the outputs the benchmark pins.

    python3 bench/pin_golden.py

Run it only at a commit whose outputs are the accepted behaviour; the file it
writes is what every later run is compared against.  It pins, per wedge
workload, the sha256 of the bundle stream of the acceptance batch (the bytes
acceptance criterion 8 hashes) and a 16-hex-digit digest per item, and, per
cli input, the sha256 of every artifact.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.add_repo_paths()
    import workloads as wl

    run.WORKDIR.mkdir(exist_ok=True)
    failures = run.Failures()
    golden = {}
    for workload in ("wedge-sr", "wedge-s"):
        seed = wl.DEFAULT_DATA_SEEDS[workload]
        runner = run.WedgeRunner(wl, workload, wl.wedge_pool(workload, seed), None)
        for i in range(wl.BATCH):
            runner.run(i, failures)
        golden[workload] = {
            "data_seed": seed,
            "sha256": runner.outputs(),
            "items": [wl.short_digest(blob) for blob in runner.blobs],
        }
    cases, files = wl.build_inputs("cli", None, run.WORKDIR)
    runner = run.CliRunner(wl, cases, files, {})
    for i in range(len(cases)):
        runner.run(i, failures)
    golden["cli"] = {case.name: artifacts for case, artifacts in zip(cases, runner.artifacts)}
    if failures.count:
        print("\n".join(failures.reasons), file=sys.stderr)
        return 1
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wedge-sr {golden['wedge-sr']['sha256']}\nwedge-s {golden['wedge-s']['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
