"""Workloads, their inputs, and the output checks of the emaxbr benchmark.

Every workload uses the paper's five-arm design with ``n_total = 200``.
The benchmark seed determines every input: the study seed of each
``run_study`` cell, and the trial datasets and bootstrap seeds of the CLI
analyses.  The program receives only those inputs, through its public API
(``emaxbr.run_study``) or its command line (``emaxbr.cli.main``).

An op is one ``run_study`` call on a cell of ``chunk_reps`` replicates
(study workloads) or one ``emaxbr fit --boot`` analysis (trial-boot).
Output checks run outside the timed region.  They use the public
estimating equations, ``cox_snell_bias`` and ``covariance``; they never
pin the estimates themselves.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import emaxbr
from emaxbr import cli

DOSES = (0.0, 7.5, 22.5, 75.0, 225.0)
N_TOTAL = 200
MAIN_TRUTH = (-2.197, 3.583, math.log(7.5))
FAR_TRUTH = (-2.197, 2.197, math.log(250.0))

# Residual allowed in a Converged fit's estimating equation: the solvers'
# own fallback acceptance level, far above the ~1e-6 they reach.
EQUATION_TOL = 1e-4
# Relative agreement of reported standard errors with ``covariance``.
SE_RTOL = 1e-4
# Cox-Snell must equal base_mle - cox_snell_bias(base_mle) to rounding.
COX_SNELL_RTOL = 1e-9

_EXIT_BY_STATUS = {"Converged": 0, "Unstable": 2, "FailedToEstimate": 3}
_KIND = {k.value: k for k in emaxbr.EstimatorKind}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    truth: tuple[float, float, float]
    estimators: tuple[str, ...]
    threads: int
    chunk_reps: int = 0  # replicates per run_study call (study workloads)
    n_boot: int = 0  # bootstrap refits per analysis (trial-boot)

    @property
    def is_study(self) -> bool:
        return self.n_boot == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-main",
            MAIN_TRUTH,
            ("mle", "coxsnell", "firth", "mple"),
            threads=1,
            chunk_reps=100,
        ),
        Workload(
            "study-far-ed50",
            FAR_TRUTH,
            ("mle", "firth", "mple"),
            threads=1,
            chunk_reps=30,
        ),
        Workload(
            "trial-boot",
            MAIN_TRUTH,
            ("mple",),
            threads=2,
            n_boot=200,
        ),
    )
}

SMOKE_CHUNK_REPS = 2
SMOKE_N_BOOT = 1
# Replicates of a study's warm-up cell, which also serves the determinism check.
WARM_REPS = 4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _study(w: Workload, seed: int, reps: int) -> emaxbr.SimStudy:
    return emaxbr.SimStudy(
        doses=DOSES,
        n_total=N_TOTAL,
        truth=emaxbr.EmaxParams(*w.truth),
        n_reps=reps,
        estimators=tuple(_KIND[k] for k in w.estimators),
        seed=seed,
    )


@dataclass
class OpResult:
    index: int
    wall_s: float
    digest: str
    work: int  # replicates (study) or bootstrap refits (trial)
    units: int  # checked units: replicates (study) or 1 analysis (trial)
    output: object  # SimMetrics (study) or (exit code, report dict) (trial)
    error: str | None = None  # set when the op raised


class _Ops:
    units_per_op: int

    def run(self, index: int, warm: bool = False) -> OpResult:
        raise NotImplementedError

    def attempt(self, index: int, warm: bool = False) -> OpResult:
        """Run one op; an op that raises is a failed op, not a benchmark crash.

        ``warm`` asks for the op's warm-up form: a small cell for a study,
        the op itself for an analysis.
        """
        t0 = time.perf_counter()
        try:
            return self.run(index, warm)
        except Exception as exc:  # noqa: BLE001 - the failure is counted and reported
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            return OpResult(index, wall, "", 0, self.units_per_op, None, f"op {index} raised {exc!r}")


class StudyOps(_Ops):
    """Ops of a study workload: one ``run_study`` call per op."""

    root_span = "simharness.run_study"

    def __init__(self, w: Workload, seed: int, smoke: bool = False):
        self.workload = w
        self.reps = SMOKE_CHUNK_REPS if smoke else w.chunk_reps
        # Cell i uses study seed seed*100000 + i, so every cell has its own data.
        self.base = seed * 100_000
        self.fits_per_op = self.reps * len(w.estimators)
        self.units_per_op = self.reps

    def inputs(self, index: int) -> emaxbr.SimStudy:
        return _study(self.workload, self.base + index, self.reps)

    def run(self, index: int, warm: bool = False) -> OpResult:
        study = self.inputs(index)
        if warm:
            study = _study(self.workload, study.seed, min(WARM_REPS, self.reps))
        t0 = time.perf_counter()
        metrics = emaxbr.run_study(study)
        wall = time.perf_counter() - t0
        return OpResult(index, wall, self.fingerprint(metrics), study.n_reps, study.n_reps, metrics)

    @staticmethod
    def fingerprint(metrics) -> str:
        return sha256(emaxbr.emit_table(metrics, "csv") + emaxbr.audit_csv(metrics))

    def check(self, result: OpResult) -> dict[int, str]:
        """Map each replicate whose outputs fail a check to the reason."""
        study = self.inputs(result.index)
        rows_by_rep: dict[int, dict] = {}
        for row in result.output.audit:
            rows_by_rep.setdefault(row.rep, {})[row.estimator] = row
        failures = {}
        for rep in range(study.n_reps):
            rows = rows_by_rep.get(rep, {})
            if sorted(rows) != sorted(self.workload.estimators):
                failures[rep] = f"cell {result.index} rep {rep}: estimators {sorted(rows)}"
                continue
            data = emaxbr.generate_dataset(study, rep)
            for kind, row in rows.items():
                problem = _check_row(kind, row, rows, data)
                if problem:
                    failures[rep] = f"cell {result.index} rep {rep} {kind}: {problem}"
                    break
        return failures


def _params(row) -> emaxbr.EmaxParams:
    return emaxbr.EmaxParams(row.e0, row.emax, row.log_ed50)


def _check_row(kind: str, row, rows: dict, data) -> str | None:
    if row.status != "Converged":
        return None
    params = _params(row)
    if kind == "coxsnell":
        if "mle" not in rows:
            return None
        base = _params(rows["mle"])
        expected = base.as_array() - emaxbr.cox_snell_bias(base, data)
        if not np.allclose(params.as_array(), expected, rtol=COX_SNELL_RTOL, atol=COX_SNELL_RTOL):
            return f"estimate {params.as_array()} != base_mle - bias {expected}"
        cov_kind, cov_at = _KIND["mle"], base
    else:
        problem = check_equation(kind, params, data)
        if problem:
            return problem
        cov_kind, cov_at = _KIND[kind], params
    se = np.array([row.se_e0, row.se_emax, row.se_log_ed50], dtype=float)
    return check_covariance(cov_kind, cov_at, data, se)


def check_equation(kind: str, params, data) -> str | None:
    """A Converged MLE, Firth or MPLE fit solves its own estimating equation."""
    equation = {
        "mle": emaxbr.score,
        "firth": emaxbr.firth_modified_score,
        "mple": emaxbr.penalized_score,
    }[kind]
    try:
        resid = float(np.max(np.abs(equation(params, data))))
    except np.linalg.LinAlgError as exc:
        return f"estimating equation undefined: {exc}"
    if not resid <= EQUATION_TOL:
        return f"estimating-equation residual {resid:.3g} > {EQUATION_TOL:g}"
    return None


def check_covariance(kind, params, data, se: np.ndarray) -> str | None:
    """The covariance is finite, symmetric positive-definite and matches the SEs."""
    try:
        cov = emaxbr.covariance(kind, params, data)
    except np.linalg.LinAlgError as exc:
        return f"covariance undefined: {exc}"
    if not np.all(np.isfinite(cov)):
        return "covariance not finite"
    if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12 * float(np.max(np.abs(cov)))):
        return "covariance not symmetric"
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return "covariance not positive-definite"
    if not np.allclose(np.sqrt(np.diag(cov)), se, rtol=SE_RTOL, atol=0.0):
        return f"standard errors {se} do not match covariance"
    return None


class TrialOps(_Ops):
    """Ops of trial-boot: one ``emaxbr fit --boot`` analysis per op."""

    root_span = "cli.main"

    def __init__(self, w: Workload, seed: int, workdir: Path, smoke: bool = False):
        self.workload = w
        self.n_boot = SMOKE_N_BOOT if smoke else w.n_boot
        # cmd_fit's point fit, then bootstrap_bands' point fit and refits.
        self.fits_per_op = 2 + self.n_boot
        self.units_per_op = 1
        self.base = seed * 100_000
        self.workdir = workdir
        self.pool_size = 64
        # Trial datasets are replicates of a study cell at the main truth.
        self.source = _study(w, self.base, self.pool_size)

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i in range(self.pool_size):
            data = emaxbr.generate_dataset(self.source, i)
            lines = ["dose,n,events"] + [
                f"{float(d)!r},{int(n)},{int(e)}" for d, n, e in zip(data.doses, data.n, data.events)
            ]
            self._csv(i).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _csv(self, index: int) -> Path:
        return self.workdir / f"trial-{index % self.pool_size}.csv"

    def argv(self, index: int, out: Path) -> list[str]:
        return [
            "fit",
            "--data", str(self._csv(index)),
            "--estimator", self.workload.estimators[0],
            "--boot", str(self.n_boot),
            "--seed", str(self.base + index),
            "--out", str(out),
        ]

    def run(self, index: int, warm: bool = False) -> OpResult:
        out = self.workdir / f"report-{index}.json"
        argv = self.argv(index, out)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        report = json.loads(text) if text else None
        return OpResult(index, wall, sha256(text), self.n_boot, self.units_per_op, (code, report))

    def check(self, result: OpResult) -> dict[int, str]:
        """Map the analysis (unit 0) to the reason when its outputs fail a check."""
        return {0: problem} if (problem := self._problem(result)) else {}

    def _problem(self, result: OpResult) -> str | None:
        code, report = result.output
        where = f"analysis {result.index}"
        if report is None:
            return f"{where}: exit code {code} and no report"
        worst = max((_EXIT_BY_STATUS.get(f["status"], -1) for f in report["fits"]), default=-1)
        if code != worst:
            return f"{where}: exit code {code}, worst status implies {worst}"
        data = emaxbr.generate_dataset(self.source, result.index % self.pool_size)
        for block in report["fits"]:
            if block["status"] != "Converged":
                continue
            params = emaxbr.EmaxParams(*(block["estimate"][p] for p in ("e0", "emax", "log_ed50")))
            se = np.array([block["std_err"][p] for p in ("e0", "emax", "log_ed50")])
            problem = check_equation(block["estimator"], params, data) or check_covariance(
                _KIND[block["estimator"]], params, data, se
            )
            if problem:
                return f"{where} {block['estimator']}: {problem}"
        boot = report.get("bootstrap", {})
        if boot.get("n_boot") != self.n_boot or boot.get("seed") != self.base + result.index:
            return f"{where}: bootstrap block does not echo n_boot and seed"
        bands_by_kind = boot.get("bands", {})
        if sorted(bands_by_kind) != sorted(self.workload.estimators):
            return f"{where}: bands for {sorted(bands_by_kind)}"
        for kind, bands in bands_by_kind.items():
            if not isinstance(bands, list) or len(bands) != len(DOSES):
                return f"{where} {kind}: bands missing ({bands})"
            for b in bands:
                if not (0.0 <= b["lower"] <= b["point"] <= b["upper"] <= 1.0):
                    return f"{where} {kind}: band {b} violates lower <= point <= upper"
        return None


def make_ops(w: Workload, seed: int, workdir: Path, smoke: bool = False):
    if w.is_study:
        return StudyOps(w, seed, smoke)
    return TrialOps(w, seed, workdir, smoke)


def set_threads(n: int) -> None:
    """Worker count for emaxbr's process pools (read at each call)."""
    os.environ["EMAXBR_THREADS"] = str(n)
