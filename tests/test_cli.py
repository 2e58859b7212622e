from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from emaxbr import EstimatorKind, bootstrap_bands, estimators, fit
from emaxbr.cli import _read_data, main

TURANDOT_CSV = """dose,n,events
0,67,2
7.5,63,8
22.5,71,12
75,68,11
225,64,4
"""

CLEAN_CSV = """dose,n,events
0,200,21
7.5,200,69
22.5,200,113
75,200,136
225,200,155
"""

SEPARATED_CSV = """dose,n,events
0,4,0
1,4,0
2,4,4
4,4,4
8,4,4
"""


@pytest.fixture
def turandot_path(tmp_path):
    p = tmp_path / "turandot.csv"
    p.write_text(TURANDOT_CSV)
    return str(p)


@pytest.fixture
def clean_path(tmp_path):
    p = tmp_path / "clean.csv"
    p.write_text(CLEAN_CSV)
    return str(p)


@pytest.fixture
def separated_path(tmp_path):
    p = tmp_path / "separated.csv"
    p.write_text(SEPARATED_CSV)
    return str(p)


def _run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestFitCommand:
    def test_clean_data_all_estimators_exit_zero(self, clean_path, capsys):
        code, out = _run(["fit", "--data", clean_path], capsys)
        assert code == 0
        report = json.loads(out)
        assert [f["estimator"] for f in report["fits"]] == [
            "mle",
            "coxsnell",
            "firth",
            "mple",
        ]
        for block in report["fits"]:
            assert block["status"] == "Converged"
            assert set(block["estimate"]) == {"e0", "emax", "log_ed50"}
            assert set(block["ci"]) == {"e0", "emax", "log_ed50"}
            assert block["ed50"] == pytest.approx(
                np.exp(block["estimate"]["log_ed50"])
            )

    def test_hard_dataset_mixed_statuses(self, turandot_path, capsys):
        # This 5-arm dataset destabilizes the unpenalized fits but not the
        # penalized ones; the exit code reports the worst outcome.
        code, out = _run(["fit", "--data", turandot_path], capsys)
        assert code == 2
        by_est = {f["estimator"]: f for f in json.loads(out)["fits"]}
        assert by_est["mle"]["status"] == "Unstable"
        assert by_est["coxsnell"]["status"] == "Unstable"
        assert by_est["firth"]["status"] == "Converged"
        assert by_est["mple"]["status"] == "Converged"

    def test_all_report_matches_single_estimator_runs(self, turandot_path, capsys):
        _, out = _run(["fit", "--data", turandot_path, "--estimator", "all"], capsys)
        together = json.loads(out)["fits"]
        alone = []
        for name in ("mle", "coxsnell", "firth", "mple"):
            _, out = _run(["fit", "--data", turandot_path, "--estimator", name], capsys)
            alone.extend(json.loads(out)["fits"])
        assert together == alone

    def test_single_estimator_exit_reflects_it_alone(self, turandot_path, capsys):
        code, _ = _run(["fit", "--data", turandot_path, "--estimator", "mple"], capsys)
        assert code == 0
        code, _ = _run(["fit", "--data", turandot_path, "--estimator", "mle"], capsys)
        assert code == 2

    def test_failed_fit_exit_three(self, separated_path, capsys):
        code, out = _run(
            ["fit", "--data", separated_path, "--estimator", "mle"], capsys
        )
        assert code == 3
        block = json.loads(out)["fits"][0]
        assert block["status"] == "FailedToEstimate"
        assert "estimate" not in block

    def test_level_changes_ci_width_by_quantile_ratio(self, clean_path, capsys):
        _, out95 = _run(["fit", "--data", clean_path, "--estimator", "mple"], capsys)
        _, out90 = _run(
            ["fit", "--data", clean_path, "--estimator", "mple", "--level", "0.90"],
            capsys,
        )
        ci95 = json.loads(out95)["fits"][0]["ci"]["emax"]
        ci90 = json.loads(out90)["fits"][0]["ci"]["emax"]
        ratio = (ci95[1] - ci95[0]) / (ci90[1] - ci90[0])
        assert ratio == pytest.approx(1.959963984540054 / 1.6448536269514722, abs=1e-3)

    def test_csv_format(self, clean_path, capsys):
        code, out = _run(
            ["fit", "--data", clean_path, "--estimator", "mple", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "estimator,status,parameter,estimate,std_err,ci_lower,ci_upper"
        assert len(lines) == 4

    def test_out_file(self, clean_path, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out = _run(
            ["fit", "--data", clean_path, "--estimator", "mple", "--out", str(dest)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["fits"][0]["estimator"] == "mple"

    def test_bootstrap_block(self, clean_path, capsys):
        code, out = _run(
            [
                "fit",
                "--data",
                clean_path,
                "--estimator",
                "mple",
                "--boot",
                "100",
                "--seed",
                "11",
                "--doses",
                "0,50",
            ],
            capsys,
        )
        assert code == 0
        boot = json.loads(out)["bootstrap"]
        assert boot["n_boot"] == 100 and boot["seed"] == 11
        bands = boot["bands"]["mple"]
        assert [b["dose"] for b in bands] == [0.0, 50.0]
        for b in bands:
            assert 0.0 <= b["lower"] <= b["point"] <= b["upper"] <= 1.0

    def test_bootstrap_reuses_the_point_fit(self, clean_path, capsys, monkeypatch):
        monkeypatch.setenv("EMAXBR_THREADS", "1")
        solved = []
        solve = estimators._solve_mple
        monkeypatch.setattr(
            estimators, "_solve_mple", lambda works: solved.append(len(works)) or solve(works)
        )
        code, out = _run(
            ["fit", "--data", clean_path, "--estimator", "mple", "--boot", "100", "--seed", "4"],
            capsys,
        )
        assert code == 0
        # One point fit shared by the report and the bands, then one batched
        # solve per chunk of refits (100 refits: two chunks of 50).
        assert solved == [1, 50, 50]
        monkeypatch.setattr(estimators, "_solve_mple", solve)

        data = _read_data(clean_path, "aggregated")
        point = fit(EstimatorKind.MPLE, data)
        bands = bootstrap_bands(data, EstimatorKind.MPLE, data.doses, n_boot=100, seed=4)
        report = json.loads(out)
        assert report["fits"][0]["estimate"] == dict(
            zip(("e0", "emax", "log_ed50"), map(float, point.params.as_array()))
        )
        assert report["bootstrap"]["bands"]["mple"] == [
            {"dose": b.dose, "point": b.point, "lower": b.lower, "upper": b.upper} for b in bands
        ]

    def test_bootstrap_reuses_the_firth_point_fit(self, turandot_path, capsys, monkeypatch):
        monkeypatch.setenv("EMAXBR_THREADS", "1")
        searches = []
        solve = estimators._solve_firth
        monkeypatch.setattr(
            estimators, "_solve_firth", lambda works: searches.append(len(works)) or solve(works)
        )
        code, out = _run(
            ["fit", "--data", turandot_path, "--estimator", "firth", "--boot", "100", "--seed", "4"],
            capsys,
        )
        # One Firth search shared by the report and the bands, then 100 refits
        # in two blocks of 50.
        assert searches == [1, 50, 50]
        monkeypatch.setattr(estimators, "_solve_firth", solve)

        data = _read_data(turandot_path, "aggregated")
        point = fit(EstimatorKind.Firth, data)
        bands = bootstrap_bands(data, EstimatorKind.Firth, data.doses, n_boot=100, seed=4)
        report = json.loads(out)
        assert report["fits"][0]["estimate"] == dict(
            zip(("e0", "emax", "log_ed50"), map(float, point.params.as_array()))
        )
        assert report["fits"][0]["iterations"] == point.iterations
        assert report["bootstrap"]["bands"]["firth"] == [
            {"dose": b.dose, "point": b.point, "lower": b.lower, "upper": b.upper} for b in bands
        ]
        assert code == 0

    def test_bootstrap_failure_reported_inline(self, separated_path, capsys):
        code, out = _run(
            ["fit", "--data", separated_path, "--estimator", "mle", "--boot", "100"],
            capsys,
        )
        assert code == 3
        assert "error" in json.loads(out)["bootstrap"]["bands"]["mle"]

    def test_subject_layout_round_trip(self, clean_path, tmp_path, capsys):
        rows = ["dose,y"]
        import csv as _csv
        import io as _io

        reader = _csv.DictReader(_io.StringIO(CLEAN_CSV))
        for row in reader:
            n, ev = int(row["n"]), int(row["events"])
            rows += [f"{row['dose']},1"] * ev + [f"{row['dose']},0"] * (n - ev)
        subj = tmp_path / "subjects.csv"
        subj.write_text("\n".join(rows) + "\n")
        _, out_subj = _run(
            ["fit", "--data", str(subj), "--layout", "subject", "--estimator", "mple"],
            capsys,
        )
        _, out_agg = _run(["fit", "--data", clean_path, "--estimator", "mple"], capsys)
        assert json.loads(out_subj)["fits"] == json.loads(out_agg)["fits"]

    def test_deterministic_output(self, clean_path, capsys):
        _, a = _run(["fit", "--data", clean_path], capsys)
        _, b = _run(["fit", "--data", clean_path], capsys)
        assert a == b


class TestDiagnoseCommand:
    def test_clean_data_exit_zero(self, clean_path, capsys):
        code, out = _run(["diagnose", "--data", clean_path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["separation"] == "None"
        assert report["shape"] in {
            "ConcaveIncreasing",
            "ConvexIncreasing",
            "NonMonotone",
            "Flat",
        }
        assert len(report["per_arm"]) == 5

    def test_separated_data_exit_two(self, separated_path, capsys):
        code, out = _run(["diagnose", "--data", separated_path], capsys)
        assert code == 2
        assert json.loads(out)["separation"] == "Complete"

    def test_two_arm_shape_note(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        p.write_text("dose,n,events\n0,10,2\n10,10,6\n")
        code, out = _run(["diagnose", "--data", str(p)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["shape"] is None
        assert "shape_note" in report


class TestSimulateCommand:
    def _study_json(self, tmp_path, **overrides):
        raw = {
            "doses": [0.0, 7.5, 22.5, 75.0, 225.0],
            "n_total": 250,
            "truth": {"e0": -2.197, "emax": 3.583, "log_ed50": 2.0149030205422647},
            "n_reps": 5,
            "estimators": ["mple"],
            "seed": 1,
        }
        raw.update(overrides)
        p = tmp_path / "study.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_simulate_writes_metrics_csv(self, tmp_path, capsys):
        code, out = _run(["simulate", self._study_json(tmp_path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("estimator,parameter,")
        assert len(lines) == 1 + 3  # one estimator x three parameters

    def test_simulate_audit_file(self, tmp_path, capsys):
        audit = tmp_path / "audit.csv"
        code, _ = _run(
            ["simulate", self._study_json(tmp_path), "--audit", str(audit)], capsys
        )
        assert code == 0
        lines = audit.read_text().splitlines()
        assert lines[0].startswith("rep,estimator,status,")
        assert len(lines) == 1 + 5

    def test_simulate_deterministic(self, tmp_path, capsys):
        path = self._study_json(tmp_path)
        _, a = _run(["simulate", path], capsys)
        _, b = _run(["simulate", path], capsys)
        assert a == b

    def test_shape_condition(self, tmp_path, capsys):
        path = self._study_json(
            tmp_path,
            doses=[0.0, 50.0, 150.0],
            n_total=210,
            truth={"e0": -2.197, "emax": 2.197, "log_ed50": float(np.log(25.0))},
            shape_condition={"shape": "ConcaveIncreasing", "n_keep": 5},
        )
        code, out = _run(["simulate", path], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("estimator,parameter,")

    def test_invalid_study_exit_64(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"doses": [0, 10]}))
        assert main(["simulate", str(p)]) == 64

    def test_bad_shape_condition_exit_64(self, tmp_path, capsys):
        path = self._study_json(tmp_path, shape_condition={"shape": "Sinusoid"})
        assert main(["simulate", path]) == 64


class TestUsageErrors:
    def test_missing_file(self):
        assert main(["fit", "--data", "/nonexistent/file.csv"]) == 64

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dosage,count,hits\n0,10,2\n10,10,6\n")
        assert main(["fit", "--data", str(p)]) == 64

    def test_malformed_row_line_numbered(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("dose,n,events\n0,10,2\n10,ten,6\n")
        assert main(["fit", "--data", str(p)]) == 64
        assert "line 3" in capsys.readouterr().err

    def test_bad_level(self, clean_path):
        assert main(["fit", "--data", clean_path, "--level", "1.5"]) == 64

    def test_unknown_estimator_rejected(self, clean_path):
        assert main(["fit", "--data", clean_path, "--estimator", "ridge"]) == 64

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 64

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["fit", "--data", str(p)]) == 64


class TestEntryPoint:
    def test_installed_script_runs(self, clean_path):
        proc = subprocess.run(
            [sys.executable, "-m", "emaxbr.cli", "fit", "--data", clean_path,
             "--estimator", "mple"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["fits"][0]["status"] == "Converged"
