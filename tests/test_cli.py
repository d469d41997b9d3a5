import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eulerfan import (
    Certificate,
    CriterionError,
    EulerFanError,
    FanSubsolution,
    GasLaw,
    NumericError,
    RiemannProblem,
    State,
    Wave,
    discriminant,
    rotate_180,
    search_feasible,
    solve_standard,
    verify_standard,
)
from eulerfan.cli import (
    MODES,
    STATUS_INPUT,
    STATUS_NOT_FOUND,
    STATUS_NUMERIC,
    STATUS_OK,
    RunResult,
    certificate_from_json,
    certificate_to_json,
    SpecError,
    check_document,
    dumps,
    main,
    parse_problem,
    problem_dict,
    result_dict,
    run,
)
from eulerfan.subsolution import GRID_MAX
from eulerfan.wedge import build_s
from generators import random_case5, random_case6_one_shock

CASE6_DOC = {
    "law": {"K": 1.0, "gamma": 1.0},
    "left": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
    "right": {"rho": 4.0, "v1": 0.0, "v2": -1.5},
}

SUBSOLUTION_DOC = dict(CASE6_DOC, right={"rho": 4.0, "v1": 0.0, "v2": -1.0})

NO_SUBSOLUTION_DOC = {
    "law": {"K": 1.0, "gamma": 1.0},
    "left": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
    "right": {"rho": 4.0, "v1": 0.0, "v2": 1.0},
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestModes:
    def test_classify_single_shock(self, tmp_path, capsys):
        path = write_doc(tmp_path, CASE6_DOC)
        out = tmp_path / "out"
        status = main(["--mode", "classify", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        report = json.loads((out / "classification.json").read_text())
        assert report["case"] == "SingleS"
        assert "case: SingleS" in capsys.readouterr().out

    def test_classify_reports_vacuum_impossible_for_isothermal(self, tmp_path):
        path = write_doc(tmp_path, CASE6_DOC)
        out = tmp_path / "out"
        main(["--mode", "classify", "--input", path, "--out", str(out)])
        report = json.loads((out / "classification.json").read_text())
        assert report["vacuum_possible"] is False

    def test_standard_mode(self, tmp_path):
        path = write_doc(tmp_path, CASE6_DOC)
        out = tmp_path / "out"
        status = main(["--mode", "standard", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        cert = json.loads((out / "standard_certificate.json").read_text())
        assert cert["overall"] is True
        solution = json.loads((out / "standard_solution.json").read_text())
        assert solution["case"] == "SingleS"
        assert solution["waves"][0]["speeds"] == [-2.0]

    def test_wedge_mode_single_shock(self, tmp_path):
        path = write_doc(tmp_path, CASE6_DOC)
        out = tmp_path / "out"
        status = main(["--mode", "wedge", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        bundle = json.loads((out / "wedge_certificates.json").read_text())
        assert all(
            bundle[name]["overall"]
            for name in ("glue", "subsolution_full", "subsolution_reduced", "right_wave")
        )
        rows = (out / "wedge_geometry.csv").read_text().splitlines()
        assert rows[0] == "t,breakpoint,left_region,right_region"
        breakpoints = [float(r.split(",")[1]) for r in rows[1:]]
        assert breakpoints == sorted(breakpoints)
        assert len(breakpoints) == len(set(breakpoints))

    def test_wedge_mode_rotates_three_shock(self, tmp_path):
        doc = {
            "law": {"K": 1.0, "gamma": 1.0},
            "left": {"rho": 4.0, "v1": 0.0, "v2": 1.5},
            "right": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
        }
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        status = main(["--mode", "wedge", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        construction = json.loads((out / "wedge_construction.json").read_text())
        assert construction["rotated"] is True

    def test_wedge_mode_rejects_smooth_data(self, tmp_path):
        doc = {
            "law": {"K": 0.5, "gamma": 2.0},
            "left": {"rho": 1.0, "v1": 0.0, "v2": -1.0},
            "right": {"rho": 1.0, "v1": 0.0, "v2": 1.0},
        }
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "wedge", "--input", path]) == STATUS_INPUT

    def test_subsolution_mode_found(self, tmp_path):
        doc = dict(CASE6_DOC, right={"rho": 4.0, "v1": 0.0, "v2": -1.0})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        status = main(["--mode", "subsolution", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        search = json.loads((out / "subsolution_search.json").read_text())
        assert search["found"] is True
        assert json.loads((out / "full_certificate.json").read_text())["overall"]

    def test_search_section_sizes_the_search(self, tmp_path):
        doc = dict(
            CASE6_DOC,
            right={"rho": 4.0, "v1": 0.0, "v2": -1.0},
            search={"scan_points": 3, "grid": 7},
        )
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        status = main(["--mode", "subsolution", "--input", path, "--out", str(out)])
        assert status == STATUS_OK
        search = json.loads((out / "subsolution_search.json").read_text())
        p = parse_problem(check_document(doc))
        expected = search_feasible(p, scan_points=3, grid=7)
        assert (search["rho1"], search["delta2"]) == expected
        # the small search takes another pair than the default one
        assert expected != search_feasible(p)

    def test_subsolution_mode_certified_empty(self, tmp_path):
        path = write_doc(tmp_path, NO_SUBSOLUTION_DOC)
        out = tmp_path / "out"
        status = main(["--mode", "subsolution", "--input", path, "--out", str(out)])
        assert status == STATUS_NOT_FOUND
        search = json.loads((out / "subsolution_search.json").read_text())
        assert search == {"found": False}

    def test_subsolution_mode_rejects_wrong_density_order(self, tmp_path, capsys):
        # the found case turned half a turn: this mode does not rotate, and
        # an empty search would read as a certified miss (exit 2)
        p = rotate_180(parse_problem(check_document(SUBSOLUTION_DOC)))
        assert p.left.rho > p.right.rho and discriminant(p) == 5.0
        path = write_doc(tmp_path, problem_dict(p))
        out = tmp_path / "out"
        status = main(["--mode", "subsolution", "--input", path, "--out", str(out)])
        assert status == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: the search needs rho- < rho+")
        assert not out.exists()

    def test_spent_schedule_lists_every_attempt(self, tmp_path, capsys):
        # random_case5 seed 2, draw 21 (test_wedge's known schedule
        # exhaustion) on a two-attempt schedule that starts at s = 1/4
        rng = np.random.default_rng(2)
        for _ in range(22):
            p, _ = random_case5(rng)
        doc = dict(problem_dict(p), perturbation={"initial": 0.25, "max_halvings": 1})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--mode", "wedge", "--input", path, "--out", str(out)]) == STATUS_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numeric failure: construction failed after 2 attempts",
            "  attempt s=0.25: no-feasible-pair",
            "  attempt s=0.125: no-feasible-pair",
        ]
        assert not out.exists()

    def test_lemmas_mode(self, tmp_path):
        out = tmp_path / "out"
        status = main(["--mode", "lemmas", "--samples", "300", "--seed", "7", "--out", str(out)])
        assert status == STATUS_OK
        report = json.loads((out / "lemma_report.json").read_text())
        assert report["seed"] == 7 and report["overall"]

    def test_tolerance_flags_tighten_certificates(self, tmp_path):
        # a bisected middle state leaves ~1e-16 jump residuals; an absurdly
        # tight equation tolerance must flip the certificate and the status
        doc = dict(CASE6_DOC, right={"rho": 4.0, "v1": 0.0, "v2": -1.0})
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "standard", "--input", path]) == STATUS_OK
        assert (
            main(["--mode", "standard", "--input", path, "--tol-eq", "1e-30"])
            == STATUS_NUMERIC
        )

    def test_numeric_failure_status(self, tmp_path):
        doc = {
            "law": {"K": 1.0, "gamma": 1.0},
            "left": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
            "right": {"rho": 1.0, "v1": 0.0, "v2": 150.0},
        }
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "standard", "--input", path]) == STATUS_NUMERIC

    @pytest.mark.parametrize(
        "law, rho, mode",
        [
            # pressure(1e200) overflows a float: NumericError in every mode
            ({"K": 1.0, "gamma": 3.0}, (1e200, 4e200), "classify"),
            ({"K": 1.0, "gamma": 3.0}, (1e200, 4e200), "standard"),
            ({"K": 1.0, "gamma": 3.0}, (1e200, 4e200), "subsolution"),
            ({"K": 1.0, "gamma": 3.0}, (1e200, 4e200), "wedge"),
            # the certificate of this solution holds an inf, which JSON cannot write
            ({"K": 1.0, "gamma": 500.0}, (1.0, 4.0), "standard"),
            # p(4) is about 1e301, so the search's entropy margins overflow:
            # a numeric failure, not a certified empty search or a spent schedule
            ({"K": 1.0, "gamma": 500.0}, (1.0, 4.0), "subsolution"),
            ({"K": 1.0, "gamma": 500.0}, (1.0, 4.0), "wedge"),
        ],
        ids=["overflow-classify", "overflow-standard", "overflow-subsolution",
             "overflow-wedge", "inf-in-certificate", "inf-margins-subsolution",
             "inf-margins-wedge"],
    )
    def test_overflow_is_a_numeric_failure(self, tmp_path, capsys, law, rho, mode):
        doc = {
            "law": law,
            "left": {"rho": rho[0], "v1": 0.0, "v2": 0.0},
            "right": {"rho": rho[1], "v1": 0.0, "v2": -1.5},
        }
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--mode", mode, "--input", path, "--out", str(out)]) == STATUS_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "law, rho, v2, mode",
        [
            # near_boundaries: the shock bracket's density product underflows
            ({"K": 1.0, "gamma": 1.4}, (5e-324, 1e-323), (0.0, -1e-300), "classify"),
            ({"K": 1.0, "gamma": 1.4}, (5e-324, 1e-323), (0.0, -1e-300), "standard"),
            # the bracket is NaN, and inf: classify read S1R3, and SingleS
            ({"K": 1.0, "gamma": 1.0}, (1e200, 4e200), (0.0, -1e10), "classify"),
            ({"K": 1.0, "gamma": 1.0}, (1e200, 1e-200), (0.0, 0.0), "classify"),
            # rho1**2*(rl - rr)**2 underflows in the search's delta1
            ({"K": 1e300, "gamma": 1.4}, (1e-160, 4e-160), (0.0, 0.0), "subsolution"),
        ],
        ids=["product-underflow-classify", "product-underflow-standard",
             "nan-bracket-classify", "inf-bracket-classify", "delta1-divisor-subsolution"],
    )
    def test_kernel_limits_are_a_numeric_failure(self, tmp_path, capsys, law, rho, v2, mode):
        doc = {
            "law": law,
            "left": {"rho": rho[0], "v1": 0.0, "v2": v2[0]},
            "right": {"rho": rho[1], "v1": 0.0, "v2": v2[1]},
        }
        path = write_doc(tmp_path, doc)
        assert main(["--mode", mode, "--input", path]) == STATUS_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert re.match(r"numeric failure: arithmetic (over|under)flow", lines[0]), lines[0]

    def test_velocity_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        # the discriminant squares the velocity jump: 1e160**2 overflows
        doc = {
            "law": {"K": 1.0, "gamma": 1.4},
            "left": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
            "right": {"rho": 4.0, "v1": 0.0, "v2": 1e160},
        }
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "subsolution", "--input", path]) == STATUS_NUMERIC
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: arithmetic overflow")

    def test_density_ratio_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        # rho+/rho- is inf: the search reported a certified empty result
        # (exit 2) without evaluating a point
        doc = {
            "law": {"K": 1e-200, "gamma": 1.4},
            "left": {"rho": 1e-150, "v1": 0.0, "v2": 0.0},
            "right": {"rho": 1e159, "v1": 0.0, "v2": 5.6e-68},
        }
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "subsolution", "--input", path]) == STATUS_NUMERIC
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numeric failure: arithmetic overflow: the density ratio 1e+159/1e-150"]


class TestValidation:
    @pytest.mark.parametrize(
        "digits, field",
        [(401, "law.K"), (5001, "<input>")],
        ids=["beyond-float", "beyond-int-digit-limit"],
    )
    def test_huge_json_integer(self, tmp_path, capsys, digits, field):
        # 1 and 400 zeros overflows float(); 5001 digits exceed the
        # interpreter's int digit limit already in json.loads
        path = tmp_path / "problem.json"
        law = '"law": {"K": 1' + "0" * (digits - 1) + ', "gamma": 1.0}'
        sides = json.dumps({k: CASE6_DOC[k] for k in ("left", "right")})[1:-1]
        path.write_text("{" + law + ", " + sides + "}")
        assert main(["--mode", "classify", "--input", str(path)]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"input error at {field}")

    def test_negative_density(self, tmp_path):
        doc = dict(CASE6_DOC, left={"rho": -1.0, "v1": 0.0, "v2": 0.0})
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "classify", "--input", path]) == STATUS_INPUT

    def test_missing_field(self, tmp_path):
        doc = {"law": {"K": 1.0}, "left": CASE6_DOC["left"], "right": CASE6_DOC["right"]}
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "classify", "--input", path]) == STATUS_INPUT

    def test_mismatched_tangential_velocity(self, tmp_path):
        doc = dict(CASE6_DOC, right={"rho": 4.0, "v1": 0.5, "v2": -1.5})
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "classify", "--input", path]) == STATUS_INPUT

    @pytest.mark.parametrize(
        "mode, doc, field",
        [
            ("classify", dict(CASE6_DOC, law={"K": "1", "gamma": 1.0}), "law.K"),
            ("classify", dict(CASE6_DOC, law={"K": math.inf, "gamma": 1.0}), "law.K"),
            ("classify", dict(CASE6_DOC, law={"K": 1.0, "gamma": 0.5}), "law.gamma"),
            ("classify", {"law": CASE6_DOC["law"], "left": CASE6_DOC["left"]}, "right"),
            ("classify", dict(CASE6_DOC, left=[1.0, 0.0, 0.0]), "left"),
            ("classify", [CASE6_DOC], "<input>"),
            ("subsolution", dict(SUBSOLUTION_DOC, search=[64, 128]), "search"),
            ("wedge", dict(CASE6_DOC, perturbation=0.5), "perturbation"),
            ("wedge", dict(CASE6_DOC, perturbation={"initial": -0.5}), "perturbation.initial"),
            # unknown keys: each ran with the defaults and exited 0
            ("subsolution", dict(SUBSOLUTION_DOC, serach={"scan_points": 0}), "serach"),
            ("standard", dict(CASE6_DOC, tolerances={"tol_eq": "nonsense", "tol_strict": -5}),
             "tolerances"),
            ("classify", dict(CASE6_DOC, law={"K": 1.0, "gama": 1.0}), "law.gama"),
            ("subsolution", dict(SUBSOLUTION_DOC, search={"scan_point": 0}), "search.scan_point"),
            ("lemmas", {"seeds": 3}, "seeds"),
        ],
        ids=["not-a-number", "not-finite", "below-minimum", "missing-section",
             "section-not-an-object", "document-not-an-object", "search-not-an-object",
             "perturbation-not-an-object", "initial-not-positive", "misspelled-section",
             "tolerances-section", "misspelled-law-field", "misspelled-search-field",
             "lemmas-misspelled-key"],
    )
    def test_bad_field_names_it(self, tmp_path, capsys, mode, doc, field):
        # json.dumps writes an infinite K as the non-standard Infinity,
        # which json.loads reads back
        path = write_doc(tmp_path, doc)
        assert main(["--mode", mode, "--input", path]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"input error at {field}:")

    @pytest.mark.parametrize(
        "mode, doc, flags, field",
        [
            ("classify", dict(CASE6_DOC, search={"grid": 0}), [], "search.grid"),
            ("standard", dict(CASE6_DOC, seed="abc"), [], "seed"),
            ("lemmas", {"law": {"K": -1}}, [], "law.K"),
            ("subsolution", dict(SUBSOLUTION_DOC, perturbation={"max_halvings": -5}), [],
             "perturbation.max_halvings"),
            ("classify", CASE6_DOC, ["--samples", "0"], "--samples"),
        ],
        ids=["classify-grid", "standard-seed", "lemmas-law", "subsolution-max-halvings",
             "classify-samples-flag"],
    )
    def test_bad_value_in_an_unread_field(self, tmp_path, capsys, mode, doc, flags, field):
        # each ran and exited 0: only the modes that read a value checked it
        path = write_doc(tmp_path, doc)
        assert main(["--mode", mode, "--input", path, *flags]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"input error at {field}:")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("grid", [GRID_MAX + 1, 1e9])
    def test_grid_above_the_maximum(self, tmp_path, capsys, mode, grid):
        # every mode accepted it, and the search would build and walk a grid
        # of that many points: about 24 MiB at 2e5, tens of GB at 1e9
        path = write_doc(tmp_path, dict(SUBSOLUTION_DOC, search={"grid": grid}))
        assert main(["--mode", mode, "--input", path]) == STATUS_INPUT
        assert capsys.readouterr().err.startswith(
            f"input error at search.grid: must be <= {GRID_MAX}, got "
        )

    def test_every_mode_reads_one_document(self, tmp_path):
        doc = dict(
            SUBSOLUTION_DOC,
            search={"scan_points": 64, "grid": 128},
            perturbation={"initial": 0.5, "max_halvings": 40},
            seed=7,
            samples=300,
        )
        path = write_doc(tmp_path, doc)
        for mode in ("classify", "standard", "subsolution", "wedge", "lemmas"):
            assert main(["--mode", mode, "--input", path]) == STATUS_OK, mode

    @pytest.mark.parametrize("name", ["tol_eq", "tol_strict"])
    @pytest.mark.parametrize("value", [True, "1e-9", 10**400], ids=["True", "string", "huge-int"])
    def test_run_rejects_a_tolerance_that_is_not_a_number(self, name, value):
        # run took True as 1.0 for tol_strict, and leaked a TypeError for a
        # string and an OverflowError for an int beyond the floats
        with pytest.raises(SpecError, match="--tol-"):
            run("standard", CASE6_DOC, **{name: value})

    @pytest.mark.parametrize("mode", ["classify", "lemmas"])
    def test_run_rejects_a_document_that_is_not_an_object(self, mode):
        # lemmas mode raised AttributeError from doc.get
        with pytest.raises(SpecError, match="<input>"):
            run(mode, [CASE6_DOC])

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, under):
        # os.makedirs raised FileExistsError or NotADirectoryError
        path = write_doc(tmp_path, CASE6_DOC)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "out" if under else blocker
        assert main(["--mode", "classify", "--input", path, "--out", str(out)]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error at --out:")
        assert blocker.read_text() == "kept"

    def test_unreadable_input(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["--mode", "classify", "--input", path]) == STATUS_INPUT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error at <input>:")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--mode", "classify", "--input", str(path)]) == STATUS_INPUT

    def test_missing_input(self):
        assert main(["--mode", "classify"]) == STATUS_INPUT

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["--mode", "lemmas", "--samples", "0"], None),
            (["--mode", "lemmas", "--samples", "-3"], None),
            (["--mode", "lemmas", "--seed", "-1"], None),
            (["--mode", "lemmas"], {"samples": "abc"}),
            (["--mode", "lemmas"], {"seed": 1.5}),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"scan_points": 2.5})),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"grid": 7.9})),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"grid": True})),
            (["--mode", "wedge"], dict(CASE6_DOC, perturbation={"max_halvings": -1})),
        ],
        ids=["samples-0", "samples-negative", "seed-negative", "samples-string",
             "seed-fraction", "scan-points-fraction", "grid-fraction", "grid-bool",
             "max-halvings-negative"],
    )
    def test_bad_integer_field(self, tmp_path, capsys, argv, doc):
        if doc is not None:
            argv = argv + ["--input", write_doc(tmp_path, doc)]
        assert main(argv) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error")

    @pytest.mark.parametrize("flag", ["--tol-eq", "--tol-strict"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance(self, tmp_path, capsys, flag, value):
        path = write_doc(tmp_path, CASE6_DOC)
        assert main(["--mode", "standard", "--input", path, flag, value]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"input error at {flag}")

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "lemmas", "--seed", "abc"], ["--mode", "bogus"], ["--input", "x.json"]],
        ids=["seed-not-an-int", "unknown-mode", "no-mode"],
    )
    def test_usage_error_is_an_input_error(self, capsys, argv):
        # argparse's own status 2 would read as "search certified empty"
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == STATUS_INPUT
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_integral_float_is_an_integer(self, tmp_path):
        path = write_doc(tmp_path, {"samples": 300.0, "seed": 7.0})
        out = tmp_path / "out"
        assert main(["--mode", "lemmas", "--input", path, "--out", str(out)]) == STATUS_OK
        report = json.loads((out / "lemma_report.json").read_text())
        assert (report["samples"], report["seed"]) == (300, 7)


@pytest.mark.parametrize("positive", [True, False], ids=["rounded-up", "rounded-down"])
def test_single_shock_subsolution_exits_3(tmp_path, capsys, positive):
    # the discriminant of single-shock data is zero up to rounding, whatever
    # its sign: the search is refused either way (exit 3), never run
    rng = np.random.default_rng(0)
    p = next(q for q in iter(lambda: random_case6_one_shock(rng), None)
             if (discriminant(q) > 0.0) is positive)
    path = write_doc(tmp_path, problem_dict(p))
    assert main(["--mode", "subsolution", "--input", path]) == STATUS_NUMERIC
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numeric failure: the search requires a positive discriminant")


def _sweep_document(rng):
    """A document whose numbers mix magnitudes log-uniform over 1e-320 to
    1e308 with moderate ones, with small search and schedule sizes."""

    def magnitude():
        if rng.random() < 0.5:
            return float(10.0 ** rng.uniform(-320.0, 308.0))
        return float(rng.uniform(0.1, 10.0))

    def velocity():
        return magnitude() * float(rng.choice([-1.0, 1.0]))

    gamma = [1.0, 1.4, 3.0, float(1.0 + 10.0 ** rng.uniform(-15.0, 3.0))][rng.integers(4)]
    v1 = velocity()
    return {
        "law": {"K": magnitude(), "gamma": gamma},
        "left": {"rho": magnitude(), "v1": v1, "v2": velocity()},
        "right": {"rho": magnitude(), "v1": v1, "v2": velocity()},
        "search": {"scan_points": 8, "grid": 8},
        "perturbation": {"max_halvings": 3},
    }


def test_no_traceback_at_any_scale():
    # every mode gives a result or a typed error: a shock bracket's density
    # product and the closed forms' divisors underflowed to 0 and raised
    # ZeroDivisionError
    rng = np.random.default_rng(20171)
    for _ in range(300):
        doc = _sweep_document(rng)
        for mode in ("classify", "standard", "subsolution", "wedge"):
            try:
                result = run(mode, doc)
            except EulerFanError:  # SpecError is one too
                continue
            except Exception as exc:
                pytest.fail(f"{mode} on {doc}: {exc!r}")
            assert isinstance(result, RunResult)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(language):
    return re.search(rf"```{language}\n(.*?)```", README.read_text(), re.S).group(1)


def test_readme_examples_run():
    doc = json.loads(_readme_block("json"))
    for mode in ("classify", "standard", "wedge"):
        assert run(mode, doc).status == STATUS_OK, mode
    # single-shock data: the search is refused, never run
    with pytest.raises(CriterionError):
        run("subsolution", doc)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_readme_block("python"), {})
    glue_margin, overall = printed.getvalue().split()
    assert float(glue_margin) > 0.0 and overall == "True"


class TestDeterminismAndRoundTrip:
    def test_artifacts_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, CASE6_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--mode", "wedge", "--input", path, "--out", str(out1)]) == STATUS_OK
        assert main(["--mode", "wedge", "--input", path, "--out", str(out2)]) == STATUS_OK
        for name in ("wedge_construction.json", "wedge_certificates.json", "wedge_geometry.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_certificate_round_trip_bit_exact(self):
        p = RiemannProblem(GasLaw(1.0, 1.4), State(1.0, 0.25, 0.0), State(3.0, 0.25, -1.1))
        cert = verify_standard(p, solve_standard(p))
        restored = certificate_from_json(certificate_to_json(cert))
        assert isinstance(restored, Certificate)
        assert restored == cert
        for original, back in zip(cert.entries, restored.entries):
            assert original.value == back.value
            assert original.tolerance == back.tolerance


class TestArtifactData:
    """The rules by which results become artifact data."""

    def test_vacuum_middle_velocity_is_null(self):
        # the vacuum's middle velocity is undefined (NaN), and JSON has no NaN
        doc = dict(CASE6_DOC, law={"K": 1.0, "gamma": 1.4},
                   left={"rho": 1.0, "v1": 0.0, "v2": -10.0},
                   right={"rho": 1.0, "v1": 0.0, "v2": 10.0})
        result = run("standard", doc)
        assert result.status == STATUS_OK
        solution = json.loads(result.artifacts["standard_solution.json"])
        assert solution["case"] == "R1R3Vacuum"
        assert solution["middle"] == {"rho": 0.0, "v1": 0.0, "v2": None}

    def test_nan_outside_a_state_is_refused(self):
        # only a State maps NaN to null; elsewhere dumps refuses it
        sub = result_dict(FanSubsolution(2.0, 0.0, math.nan, 0.0, 0.0, 1.0, -1.0, 1.0))
        wave = result_dict(Wave(1, "shock", (math.nan,)))
        assert math.isnan(sub["v12"]) and math.isnan(wave["speeds"][0])
        for data in (sub, wave):
            with pytest.raises(NumericError, match="non-finite"):
                dumps(data)

    def test_subsolution_kinetic_bound_is_C1(self):
        result = run("subsolution", SUBSOLUTION_DOC)
        assert result.status == STATUS_OK
        full = json.loads(result.artifacts["subsolution_search.json"])["full"]
        assert "C1" in full and "c1" not in full

    def test_wedge_construction_keys(self):
        result = run("wedge", CASE6_DOC)
        assert result.status == STATUS_OK
        construction = json.loads(result.artifacts["wedge_construction.json"])["construction"]
        assert "subsolution" in construction and "sub" not in construction
        assert construction["right_wave"]["case"] == "SingleS"
        assert construction["right_wave"]["waves"][0]["speeds"] == [construction["mu2"]]

    def test_construction_becomes_plain_json_types(self):
        # json.dumps writes a tuple as a list and a CaseId, a str enum, as
        # its value anyway, so only the converted types show these rules
        data = result_dict(build_s(parse_problem(check_document(CASE6_DOC))))

        def types(x):
            yield type(x)
            for child in x.values() if isinstance(x, dict) else x if isinstance(x, list) else ():
                yield from types(child)

        assert set(types(data)) <= {dict, list, str, float, int, bool, type(None)}
        assert data["right_wave"]["case"] == "SingleS"


# Runs in a fresh interpreter, so no other test has imported numpy there.
IMPORT_GUARD = """
import sys
import eulerfan, eulerfan.cli
assert "numpy" not in sys.modules, "import eulerfan loaded numpy"
try:
    eulerfan.run_suite(seed=-1)
except eulerfan.DomainError:
    pass
assert "numpy" not in sys.modules, "run_suite imported numpy before checking its input"
status = eulerfan.cli.main(["--mode", "lemmas", "--samples", "300", "--seed", "7", "--out", sys.argv[1]])
print(status, "numpy" in sys.modules)
"""


def test_numpy_stays_off_the_import_path(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(out)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    # the lemmas mode still runs, and only it loads numpy
    assert done.stdout.split()[-2:] == [str(STATUS_OK), "True"]
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["seed"] == 7 and report["samples"] == 300 and report["overall"]
