"""Smoke self-test of the benchmark: metric names, output checks, trace integrity.

Runs in seconds: ``--smoke`` shrinks every op (2-replicate study cells, one
bootstrap refit per analysis).  Run with
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import emaxbr  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path, *args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "0", "--smoke", "--out-dir", str(tmp_path), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "workload, trace, section",
    [("study-main", "0", "end_to_end"), ("trial-boot", "1", "per_layer")],
)
def test_result_line_reports_every_metric(tmp_path, workload, trace, section):
    proc = _run(tmp_path, "--workload", workload, "--seed", "7", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"


def test_spec_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench_workloads.WORKLOADS)


def test_fails_without_package_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(
        tmp_path, "--workload", "study-main", "--seed", "1", "--trace", "0",
        cwd=bare, script=bare / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def study_op():
    ops = bench_workloads.StudyOps(bench_workloads.WORKLOADS["study-main"], 3, smoke=True)
    return ops, ops.run(0)


def _tamper(result, estimator, **changes):
    metrics = result.output
    audit = tuple(
        dataclasses.replace(r, **changes) if r.rep == 0 and r.estimator == estimator else r
        for r in metrics.audit
    )
    return dataclasses.replace(result, output=dataclasses.replace(metrics, audit=audit))


def test_study_checks_pass_and_catch_wrong_outputs(study_op):
    ops, result = study_op
    assert ops.check(result) == {}
    converged = {r.estimator: r for r in result.output.audit if r.rep == 0 and r.status == "Converged"}
    assert {"mle", "coxsnell", "mple"} <= set(converged)
    moved = _tamper(result, "mple", e0=converged["mple"].e0 + 0.05)
    assert "estimating-equation residual" in ops.check(moved)[0]
    moved = _tamper(result, "coxsnell", emax=converged["coxsnell"].emax + 1e-3)
    assert "base_mle - bias" in ops.check(moved)[0]
    moved = _tamper(result, "mle", se_e0=2.0 * converged["mle"].se_e0)
    assert "standard errors" in ops.check(moved)[0]


def test_study_warm_up_is_a_small_repeatable_cell():
    ops = bench_workloads.StudyOps(bench_workloads.WORKLOADS["study-main"], 3)
    first, again = ops.attempt(0, warm=True), ops.attempt(0, warm=True)
    assert first.error is None and first.units == bench_workloads.WARM_REPS < ops.reps
    assert first.digest == again.digest


def test_an_op_that_raises_is_a_failed_op(study_op, monkeypatch):
    ops, _ = study_op

    def broken(study):
        raise FloatingPointError("injected")

    monkeypatch.setattr(emaxbr, "run_study", broken)
    result = ops.attempt(0)
    assert result.work == 0 and result.units == ops.reps
    assert "injected" in result.error


def test_trial_check_catches_wrong_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("EMAXBR_THREADS", "1")
    ops = bench_workloads.TrialOps(bench_workloads.WORKLOADS["trial-boot"], 3, tmp_path, smoke=True)
    ops.write_inputs()
    result = ops.run(0)
    assert ops.check(result) == {}
    code, report = result.output
    wrong = dataclasses.replace(result, output=(3 if code != 3 else 0, report))
    assert "exit code" in ops.check(wrong)[0]


def test_tracer_restores_bindings_and_integrity_catches_a_missed_binding(study_op):
    ops, _ = study_op
    originals = (emaxbr.simharness.fit, emaxbr.estimators._FITTERS[emaxbr.EstimatorKind.MLE])

    tracer = bench_trace.Tracer(emaxbr)
    tracer.install()
    try:
        assert emaxbr.simharness.fit is not originals[0]
        tracer.op = 0
        ops.run(0)
    finally:
        tracer.uninstall()
    assert (emaxbr.simharness.fit, emaxbr.estimators._FITTERS[emaxbr.EstimatorKind.MLE]) == originals
    _, counts = bench_trace.layer_metrics(tracer, ops.root_span)
    assert bench_trace.integrity_error(counts, 1, ops.fits_per_op) is None

    blind = bench_trace.Tracer(emaxbr)
    blind.install()
    try:
        emaxbr.simharness.fit = originals[0]  # a binding the tracer did not reach
        blind.op = 0
        ops.run(0)
    finally:
        blind.uninstall()
    assert emaxbr.simharness.fit is originals[0]
    _, counts = bench_trace.layer_metrics(blind, ops.root_span)
    assert "trace integrity" in bench_trace.integrity_error(counts, 1, ops.fits_per_op)
