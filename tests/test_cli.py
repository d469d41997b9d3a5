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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerfan import (
    CaseId,
    Certificate,
    CriterionError,
    DomainError,
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
    decode_json,
    dumps,
    load_input,
    main,
    parse_problem,
    problem_dict,
    result_dict,
    run,
)
from eulerfan import cli, oracles
from eulerfan.certificate import strict
from eulerfan.errors import GRID_MAX
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


# The members of a valid S1R3 document, as JSON text.
LAW = '"law": {"K": 1.0, "gamma": 1.4}'
LEFT = '"left": {"rho": 1.0, "v1": 0.0, "v2": 0.0}'
RIGHT = '"right": {"rho": 4.0, "v1": 0.0, "v2": -1.0}'


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

    def test_wedge_attempts_use_the_strict_tolerance(self, tmp_path, capsys):
        # seed-601 draw 6: the attempts were decided at 1e-12, and the
        # construction they returned failed its full certificate at 1e-6
        rng = np.random.default_rng(601)
        for _ in range(7):
            p, _ = random_case5(rng)
        path = write_doc(tmp_path, problem_dict(p))
        assert main(["--mode", "wedge", "--input", path, "--tol-strict", "1e-6"]) == STATUS_OK
        assert "certificates: PASS" in capsys.readouterr().out

    def test_overflowing_velocity_jump(self, tmp_path, capsys):
        # dv = inf was classified as Constant, and exited 0
        doc = dict(CASE6_DOC, left={"rho": 1.0, "v1": 0.0, "v2": -1e308},
                   right={"rho": 1.0, "v1": 0.0, "v2": 1e308})
        path = write_doc(tmp_path, doc)
        assert main(["--mode", "classify", "--input", path]) == STATUS_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: arithmetic overflow: the velocity jump")

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
        # two rarefactions 1e-3 below the vacuum threshold of gamma = 1.01:
        # the middle density, about 1e-1060, lies below the floats
        doc = {
            "law": {"K": 1.0, "gamma": 1.01},
            "left": {"rho": 1.0, "v1": 0.0, "v2": 0.0},
            "right": {"rho": 1.0, "v1": 0.0, "v2": 401.994},
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
            ("standard", dict(CASE6_DOC, search={"scan_points": "abc"}), [], "search.scan_points"),
            ("lemmas", {"law": {"K": -1}}, [], "law.K"),
            ("subsolution", dict(SUBSOLUTION_DOC, perturbation={"max_halvings": -5}), [],
             "perturbation.max_halvings"),
            ("classify", CASE6_DOC, ["--samples", "0"], "--samples"),
        ],
        ids=["classify-grid", "standard-scan-points", "lemmas-law", "subsolution-max-halvings",
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
        )
        path = write_doc(tmp_path, doc)
        for mode in ("classify", "standard", "subsolution", "wedge"):
            assert main(["--mode", mode, "--input", path]) == STATUS_OK, mode
        assert main(["--mode", "lemmas", "--input", path, "--seed", "7", "--samples", "300"]) == STATUS_OK

    @pytest.mark.parametrize("key, value", [("seed", 7), ("samples", 300)])
    def test_seed_and_samples_are_flags_only(self, tmp_path, capsys, key, value):
        # lemmas mode read them from the document too, below the flags
        path = write_doc(tmp_path, {key: value})
        assert main(["--mode", "lemmas", "--input", path]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"input error at {key}: unknown section"]

    @pytest.mark.parametrize("name", ["tol_eq", "tol_strict"])
    @pytest.mark.parametrize("value", [True, "1e-9", 10**400], ids=["True", "string", "huge-int"])
    def test_run_rejects_a_tolerance_that_is_not_a_number(self, name, value):
        # run took True as 1.0 for tol_strict, and leaked a TypeError for a
        # string and an OverflowError for an int beyond the floats
        with pytest.raises(SpecError, match="--tol-"):
            run("standard", CASE6_DOC, **{name: value})

    def test_run_rejects_an_unknown_mode(self):
        # main's argparse choices guard it; run checks on its own
        with pytest.raises(SpecError, match="--mode: unknown mode 'bogus'"):
            run("bogus", {})

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

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 200_000], ids=["not-utf-8", "nested-too-deep"])
    def test_undecodable_input(self, tmp_path, capsys, data):
        # a UnicodeDecodeError from the read, and a RecursionError from
        # json.loads, each ended in a traceback
        path = tmp_path / "problem.json"
        path.write_bytes(data)
        assert main(["--mode", "classify", "--input", str(path)]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error at <input>:")
        with pytest.raises(DomainError):
            certificate_from_json(data.decode("utf-8", "replace"))

    @pytest.mark.parametrize(
        "members, key",
        [
            (['"law": {"K": 1.0, "gamma": 0.5, "gamma": 1.4}', LEFT, RIGHT], "gamma"),
            (['"law": {"K": 1.0, "gamma": 1.4, "gamma": 0.5}', LEFT, RIGHT], "gamma"),
            ([LAW, LEFT, '"left": {"rho": 2.0, "v1": 0.0, "v2": 0.0}', RIGHT], "left"),
        ],
        ids=["invalid-value-first", "invalid-value-last", "section"],
    )
    def test_repeated_key(self, tmp_path, capsys, members, key):
        # json.loads kept the last value: the first document classified as
        # S1R3 and exited 0, the second exited 1, the third lost a section
        path = tmp_path / "problem.json"
        path.write_text("{" + ", ".join(members) + "}")
        with pytest.raises(SpecError, match=f"repeated key '{key}'"):
            load_input(str(path))
        assert main(["--mode", "classify", "--input", str(path)]) == STATUS_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"input error at <input>: repeated key '{key}'"]

    def test_a_key_may_recur_in_different_objects(self, tmp_path):
        path = write_doc(tmp_path, CASE6_DOC)
        assert load_input(path) == CASE6_DOC

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["--mode", "lemmas", "--samples", "0"], None),
            (["--mode", "lemmas", "--samples", "-3"], None),
            (["--mode", "lemmas", "--seed", "-1"], None),
            (["--mode", "wedge"], dict(CASE6_DOC, perturbation={"max_halvings": "abc"})),
            (["--mode", "lemmas"], {"perturbation": {"max_halvings": 1.5}}),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"scan_points": 2.5})),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"grid": 7.9})),
            (["--mode", "subsolution"], dict(CASE6_DOC, search={"grid": True})),
            (["--mode", "wedge"], dict(CASE6_DOC, perturbation={"max_halvings": -1})),
        ],
        ids=["samples-0", "samples-negative", "seed-negative", "max-halvings-string",
             "max-halvings-fraction", "scan-points-fraction", "grid-fraction", "grid-bool",
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

    def test_integral_float_is_an_integer(self):
        sizes = {"search": {"scan_points": 8, "grid": 16}, "perturbation": {"max_halvings": 3}}
        floats = {"search": {"scan_points": 8.0, "grid": 16.0}, "perturbation": {"max_halvings": 3.0}}
        checked = check_document(floats)
        assert checked == sizes
        assert all(type(v) is int for section in checked.values() for v in section.values())
        for mode in ("subsolution", "wedge"):
            assert run(mode, dict(SUBSOLUTION_DOC, **floats)) == run(mode, dict(SUBSOLUTION_DOC, **sizes))


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


SIZED_DOC = dict(SUBSOLUTION_DOC, search={"scan_points": 8, "grid": 8}, perturbation={"max_halvings": 3})

# SIZED_DOC as (key, value) pairs, each section's value a list of pairs
# too, so that any one member can be written twice.
DOC_PAIRS = [(name, list(section.items())) for name, section in SIZED_DOC.items()]


def _object_text(pairs):
    members = (f"{json.dumps(k)}: {_object_text(v) if isinstance(v, list) else json.dumps(v)}" for k, v in pairs)
    return "{" + ", ".join(members) + "}"


def _repeated_key_texts():
    """The valid document's text with one member, a section or one of its
    fields, written twice in a row."""
    texts = []
    for i, (name, fields) in enumerate(DOC_PAIRS):
        texts.append(_object_text(DOC_PAIRS[: i + 1] + DOC_PAIRS[i:]))
        for j in range(len(fields)):
            section = (name, fields[: j + 1] + fields[j:])
            texts.append(_object_text(DOC_PAIRS[:i] + [section] + DOC_PAIRS[i + 1 :]))
    return texts


VALID_TEXT = _object_text(DOC_PAIRS).encode()

input_bytes = st.one_of(
    st.binary(max_size=300),
    st.integers(0, len(VALID_TEXT) - 1).map(lambda i: VALID_TEXT[:i] + VALID_TEXT[i + 1 :]),
    st.sampled_from(_repeated_key_texts()).map(str.encode),
    st.integers(1, 200_000).map(lambda n: b"[" * n),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=input_bytes)
def test_no_traceback_on_any_input_bytes(tmp_path, data):
    # undecodable bytes and deep nesting ended in a traceback
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(["--mode", "classify", "--input", str(path)])
    assert status in (STATUS_OK, STATUS_INPUT, STATUS_NOT_FOUND, STATUS_NUMERIC)
    try:
        certificate_from_json(data.decode("utf-8", "replace"))
    except DomainError:
        pass


def test_every_repeated_key_is_refused():
    assert decode_json(VALID_TEXT.decode()) == SIZED_DOC
    texts = _repeated_key_texts()
    assert len(texts) == 16  # five sections and eleven fields
    for text in texts:
        with pytest.raises(SpecError, match="repeated key"):
            decode_json(text)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, language):
    """The first ``language`` code block of the README's ``heading`` section."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run():
    doc = json.loads(_readme_block("## Command line", "json"))
    for mode in ("classify", "standard", "wedge"):
        assert run(mode, doc).status == STATUS_OK, mode
    # single-shock data: the search is refused, never run
    with pytest.raises(CriterionError):
        run("subsolution", doc)


def test_readme_library_example_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_readme_block("## Library example", "python"), {})
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


def reference_dumps(x):
    """The artifact bytes as json.dumps writes them."""
    return json.dumps(x, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Strings with every character class an escape treats apart: quotes,
# backslashes, control characters, non-ASCII and lone surrogates.
json_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
        st.integers(0xD800, 0xDFFF).map(chr),
    )
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, sys.float_info.max]),
    json_text,
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=30,
)


class TestWriter:
    """dumps writes the bytes of json.dumps with the artifact options."""

    @settings(deadline=None)
    @given(json_documents)
    def test_matches_json_dumps(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("doc", [{}, [], (), "", {"a": []}, [{}, ()], {"z": {"y": {}}}])
    def test_empty_containers(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "place",
        [lambda v: v, lambda v: {"a": v}, lambda v: [1.0, v], lambda v: (v,),
         lambda v: {"a": [{"b": (0.5, v)}]}],
        ids=["top", "in-dict", "in-list", "in-tuple", "deep"],
    )
    def test_non_finite_is_a_numeric_error(self, value, place):
        with pytest.raises(NumericError, match="non-finite"):
            dumps(place(value))

    class FloatSubclass(float):
        pass

    @pytest.mark.parametrize(
        "doc",
        [{1.0}, object(), np.float64(1.5), FloatSubclass(0.5), CaseId.S1R3, {1: 2.0},
         {"a": [{None: 0}]}, [{"b": {1.0}}]],
        ids=["set", "object", "numpy-float", "float-subclass", "str-enum", "int-key",
             "nested-none-key", "nested-set"],
    )
    def test_other_types_are_a_type_error(self, doc):
        # json.dumps wrote float and str subclasses and coerced int, float,
        # bool and None keys; no artifact holds one
        with pytest.raises(TypeError):
            dumps(doc)


class TestCertificateFromJson:
    """A loaded certificate recomputes its verdicts and checks its fields."""

    @staticmethod
    def failing():
        return Certificate((strict("margin", -1.0, 1e-9), strict("other", 2.0, 1e-9)))

    def test_failing_certificate_loads_as_failing(self):
        cert = self.failing()
        restored = certificate_from_json(certificate_to_json(cert))
        assert restored == cert and not restored.overall

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d["entries"][0].update(passed=True), "recorded passed=True"),
            (lambda d: d["entries"][1].update(passed=False), "recorded passed=False"),
            (lambda d: d.update(overall=True), "recorded overall=True"),
        ],
        ids=["failing-entry-marked-passed", "passing-entry-marked-failed", "overall"],
    )
    def test_recorded_verdict_must_agree(self, edit, match):
        # the first case loaded with overall == True
        d = self.failing().to_dict()
        edit(d)
        with pytest.raises(DomainError, match=match):
            certificate_from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d["entries"][0].update(kind="bogus"), "unknown certificate entry kind 'bogus'"),
            *[(lambda d, k=k: d["entries"][0].pop(k), f"missing field '{k}'")
              for k in ("label", "kind", "value", "tolerance", "passed")],
            (lambda d: d.pop("entries"), "missing field 'entries'"),
            (lambda d: d.pop("overall"), "missing field 'overall'"),
            (lambda d: d["entries"][0].update(value="-1.0"), "field 'value' must be float"),
            (lambda d: d["entries"][0].update(tolerance=None), "field 'tolerance' must be float"),
            (lambda d: d["entries"][0].update(passed=0), "field 'passed' must be bool"),
            (lambda d: d["entries"][0].update(label=7), "field 'label' must be str"),
            (lambda d: d.update(entries={}), "field 'entries' must be list"),
            (lambda d: d.update(overall="false"), "field 'overall' must be bool"),
            (lambda d: d["entries"].append([]), "certificate entry 2: expected an object"),
            # every writer gives rel_tol * scale_of(...), finite and positive,
            # and dumps refuses a non-finite value; each loaded as passing
            (lambda d: (d["entries"][0].update(value=-5.0, tolerance=-10.0, passed=True), d.update(overall=True)),
             "certificate entry 0: value -5.0 must be finite, tolerance -10.0 finite and positive"),
            (lambda d: (d["entries"][0].update(kind="equation-residual", tolerance=math.inf, passed=True),
                        d.update(overall=True)),
             "tolerance inf finite and positive"),
            (lambda d: (d["entries"][0].update(value=math.inf, passed=True), d.update(overall=True)),
             "value inf must be finite"),
        ],
        ids=["unknown-kind", "no-label", "no-kind", "no-value", "no-tolerance", "no-passed",
             "no-entries", "no-overall", "value-str", "tolerance-null", "passed-int",
             "label-int", "entries-object", "overall-str", "entry-list", "negative-tolerance",
             "infinite-tolerance", "infinite-value"],
    )
    def test_malformed_certificate_is_a_domain_error(self, edit, match):
        # an unknown kind loaded silently, a missing field was a KeyError
        d = self.failing().to_dict()
        edit(d)
        with pytest.raises(DomainError, match=match):
            certificate_from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{", "line 1 column 2"),
            ("1" * 5000, "digits"),
            ('{"entries": [], "overall": false, "overall": true}', "repeated key 'overall'"),
            ("[" * 200_000, "recursion"),
        ],
        ids=["not-json", "long-integer", "repeated-key", "nested-too-deep"],
    )
    def test_unreadable_text_is_a_domain_error(self, text, match):
        # a JSONDecodeError, a bare ValueError, a certificate that kept the
        # last "overall", and a RecursionError
        with pytest.raises(DomainError, match=match):
            certificate_from_json(text)

    @pytest.mark.parametrize("text", ["[]", "null", "1.5"])
    def test_document_not_an_object(self, text):
        # a top-level list was a TypeError
        with pytest.raises(DomainError, match="certificate: expected an object"):
            certificate_from_json(text)


# One run of every mode, each certificate artifact kind included, and a
# standard certificate failed by a tight --tol-eq.
ARTIFACT_RUNS = [
    (["--mode", "classify"], CASE6_DOC),
    (["--mode", "standard"], CASE6_DOC),
    (["--mode", "standard", "--tol-eq", "1e-30"], SUBSOLUTION_DOC),
    (["--mode", "subsolution"], SUBSOLUTION_DOC),
    (["--mode", "subsolution"], NO_SUBSOLUTION_DOC),
    (["--mode", "wedge"], CASE6_DOC),
    (["--mode", "wedge"], SUBSOLUTION_DOC),
    (["--mode", "lemmas", "--samples", "300"], None),
]


def test_artifacts_round_trip(tmp_path):
    certificates = 0
    for i, (argv, doc) in enumerate(ARTIFACT_RUNS):
        out = tmp_path / str(i)
        flags = ["--input", write_doc(tmp_path, doc)] if doc else []
        assert main([*argv, *flags, "--out", str(out)]) in (STATUS_OK, STATUS_NOT_FOUND, STATUS_NUMERIC)
        for path in sorted(out.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            data = json.loads(text)
            assert dumps(data) == text, path.name
            if path.name.endswith("_certificate.json"):
                found = {"": data}
            elif path.name == "wedge_certificates.json":
                found = data
            else:
                continue
            for recorded in found.values():
                # every number bit for bit, and each recomputed verdict
                assert Certificate.from_dict(recorded).to_dict() == recorded
                certificates += 1
    # standard x2, reduced, full, and four per wedge run
    assert certificates == 12


# Runs in a fresh interpreter, so no other test has imported numpy there.  A
# None entry in sys.modules makes every `import numpy` raise ImportError, so
# the whole package, the lemmas mode included, must run without it.
IMPORT_GUARD = """
import sys
sys.modules["numpy"] = None
loaded = lambda: sys.modules.get("numpy") is not None
import eulerfan, eulerfan.cli
assert not loaded(), "import eulerfan loaded numpy"
try:
    eulerfan.run_suite(seed=-1)
except eulerfan.DomainError:
    pass
assert not loaded(), "run_suite imported numpy before checking its input"
status = eulerfan.cli.main(["--mode", "lemmas", "--samples", "300", "--seed", "7", "--out", sys.argv[1]])
print(status, loaded())
"""


def run_fresh(script, *args, flags=()):
    """``script`` run by a fresh interpreter, started with ``flags``, that
    imports eulerfan from this checkout's sources, with its exit status
    checked."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_numpy_stays_off_the_import_path(tmp_path):
    out = tmp_path / "out"
    done = run_fresh(IMPORT_GUARD, str(out))
    # the lemmas mode runs too, and loads no numpy
    assert done.stdout.split()[-2:] == [str(STATUS_OK), "False"]
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["seed"] == 7 and report["samples"] == 300 and report["overall"]


# Runs cli.main on each argument list of argv[1] (JSON) in a fresh
# interpreter, and prints the eulerfan submodules loaded after `import
# eulerfan`, then the status and the submodules loaded after each run.
LOAD_PROBE = """
import contextlib, io, json, sys
loaded = lambda: sorted(name for name in sys.modules if name.startswith("eulerfan."))
import eulerfan
seen = [loaded()]
import eulerfan.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([eulerfan.cli.main(argv), loaded()])
print(json.dumps(seen))
"""

# What `import eulerfan.cli` loads; classify, standard and input errors load
# nothing more
CLI_CORE = ["eulerfan." + name for name in ("certificate", "cli", "eos", "errors", "riemann", "wavecurves")]


def probe_loads(*argvs):
    return json.loads(run_fresh(LOAD_PROBE, json.dumps(argvs)).stdout)


# Prints whether typing is loaded after `import eulerfan.cli`, then after a
# run of the argument list of argv[1] (JSON).  Run under -S: site imports
# typing on its own, and without it the CLI never should, since typing costs
# every CLI run about 3 ms (a typing.NamedTuple would import it).
TYPING_PROBE = """
import contextlib, io, json, sys
import eulerfan.cli
seen = ["typing" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    seen.append([eulerfan.cli.main(json.loads(sys.argv[1])), "typing" in sys.modules])
print(json.dumps(seen))
"""


def test_the_cli_loads_no_typing(tmp_path):
    argv = ["--mode", "standard", "--input", write_doc(tmp_path, CASE6_DOC), "--out", str(tmp_path / "out")]
    seen = json.loads(run_fresh(TYPING_PROBE, json.dumps(argv), flags=["-S"]).stdout)
    assert seen == [False, [STATUS_OK, False]]


# Prints the modules of RECORD_COSTS loaded after `import eulerfan.cli`, then
# after each run of the argument lists of argv[1] (JSON).  dataclasses
# imports inspect, and with it ast, dis and tokenize: several ms of every
# CLI run, which the value types, built on errors.Record, do without.
RECORD_COSTS = ("dataclasses", "inspect")
RECORD_PROBE = f"""
import contextlib, io, json, sys
import eulerfan.cli
loaded = lambda: [name for name in {RECORD_COSTS!r} if name in sys.modules]
seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([eulerfan.cli.main(argv), loaded()])
print(json.dumps(seen))
"""


def test_the_cli_loads_no_dataclasses(tmp_path):
    path = write_doc(tmp_path, SUBSOLUTION_DOC)
    argvs = [["--mode", mode, "--input", path, "--samples", "100", "--out", str(tmp_path / mode)] for mode in MODES]
    seen = json.loads(run_fresh(RECORD_PROBE, json.dumps(argvs), flags=["-S"]).stdout)
    assert seen == [[], *([STATUS_OK, []] for _ in MODES)]


def test_cheap_modes_load_neither_the_search_nor_the_suite(tmp_path):
    path, bad = write_doc(tmp_path, CASE6_DOC), write_doc(tmp_path, dict(CASE6_DOC, serach={}), "bad.json")
    seen = probe_loads(
        ["--mode", "classify", "--input", path],
        ["--mode", "standard", "--input", path],
        ["--mode", "wedge", "--input", bad],
        ["--mode", "subsolution"],
        ["--mode", "lemmas", "--samples", "0"],
    )
    assert seen == [[], *([status, CLI_CORE] for status in (STATUS_OK, STATUS_OK, 1, 1, 1))]


# The submodules each other mode loads beyond CLI_CORE: neither the search
# nor the suite needs the constructions
MODE_LOADS = {"subsolution": ["subsolution"], "wedge": ["subsolution", "wedge"], "lemmas": ["oracles"]}


@pytest.mark.parametrize("mode", MODE_LOADS)
def test_each_mode_loads_only_what_it_runs(tmp_path, mode):
    argv = ["--mode", mode, "--input", write_doc(tmp_path, SUBSOLUTION_DOC), "--samples", "100"]
    loads = sorted(CLI_CORE + ["eulerfan." + name for name in MODE_LOADS[mode]])
    assert probe_loads(argv)[-1] == [STATUS_OK, loads]


def test_modes_call_the_names_bound_on_the_cli(monkeypatch):
    # the benchmark's tracer rebinds these names on eulerfan.cli (and
    # run_suite on oracles), before or after a mode first binds them, and
    # times whatever the mode then calls
    for name in ("search_feasible", "build_sr", "verify_full"):
        monkeypatch.delitem(vars(cli), name, raising=False)
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((cli, "search_feasible"), (cli, "build_sr"), (oracles, "run_suite")):
        counting(owner, name)
    for mode in ("subsolution", "wedge", "lemmas"):
        assert run(mode, SUBSOLUTION_DOC, samples=100).status == STATUS_OK
    assert calls == ["search_feasible", "build_sr", "run_suite"]
    # the mode bound the name that was not rebound
    assert "verify_full" in vars(cli)
