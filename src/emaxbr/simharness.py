"""Seeded Monte Carlo harness: data generation, replication, aggregation.

A :class:`SimStudy` pins a dose design, truth, replicate count, estimator
set, and seed.  Replicate ``r`` draws its data from the stream keyed by
``(seed, r)``, so every dataset — and hence every downstream fit and
metric — is fully determined by the study definition, independent of how
many workers execute the replicates.

Metrics follow the NA-exclusion convention: replicates where an estimator
fails contribute nothing to that estimator's cells, and unstable fits are
likewise excluded from the parameter summaries (they are tallied in the
instability percentage instead), so each cell reports its own ``n_used``.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import expit

from ._pool import map_chunks
from .diagnostics import Shape, classify_shape
from .estimators import (
    EstimatorKind,
    FitStatus,
    SolverConfig,
    StatusReason,
    fit,
    shared_work,
)
from .model import EmaxParams, ObservationSet

__all__ = [
    "SimStudy",
    "CellMetrics",
    "SimMetrics",
    "AuditRow",
    "AuditLog",
    "ShapeUnreachable",
    "generate_dataset",
    "run_study",
    "run_shape_conditioned_study",
    "emit_table",
    "load_study",
]

_PARAMS = ("e0", "emax", "log_ed50")
_Z95 = 1.959963984540054

AUDIT_COLUMNS = (
    "rep",
    "estimator",
    "status",
    "e0",
    "emax",
    "log_ed50",
    "se_e0",
    "se_emax",
    "se_log_ed50",
    "iterations",
)


class ShapeUnreachable(RuntimeError):
    """Raised when the target shape is (practically) never generated."""


@dataclass(frozen=True)
class SimStudy:
    """One simulation cell: design, truth, size, estimators, seed."""

    doses: tuple[float, ...]
    n_total: int
    truth: EmaxParams
    n_reps: int
    estimators: tuple[EstimatorKind, ...]
    seed: int
    solver: SolverConfig = SolverConfig()

    def __post_init__(self) -> None:
        doses = tuple(float(d) for d in self.doses)
        if len(doses) < 2:
            raise ValueError("doses: need at least two arms")
        if self.n_total < len(doses):
            raise ValueError("n_total: must be at least the number of arms")
        if self.n_reps < 1:
            raise ValueError("n_reps: must be at least 1")
        if not self.estimators:
            raise ValueError("estimators: at least one required")
        object.__setattr__(self, "doses", doses)
        object.__setattr__(self, "estimators", tuple(self.estimators))

    def arm_sizes(self) -> np.ndarray:
        """Even allocation; any remainder goes to the lowest doses first."""
        m = len(self.doses)
        base, rem = divmod(self.n_total, m)
        sizes = np.full(m, base, dtype=int)
        sizes[:rem] += 1
        return sizes


@dataclass(frozen=True)
class CellMetrics:
    """Summary of one (estimator, parameter) cell over used replicates."""

    mean_estimate: float
    mbe: float
    mse: float
    mean_se: float
    coverage: float
    mean_ci_length: float
    n_used: int


@dataclass(frozen=True, slots=True)
class AuditRow:
    """One (replicate, estimator) line of the audit log.

    Slotted: a study holds one row per fit, so rows carry no per-instance dict.
    """

    rep: int
    estimator: str
    status: str
    e0: float | None
    emax: float | None
    log_ed50: float | None
    se_e0: float | None
    se_emax: float | None
    se_log_ed50: float | None
    iterations: int


def _status_text(status: FitStatus, reason: StatusReason) -> str:
    """An audit row's status: ``"<status>"`` or ``"<status>:<reason>"``."""
    return status.value if reason is StatusReason.NONE else f"{status.value}:{reason.value}"


# Every status an audit row can carry; an audit log stores its index here.
_STATUS_TEXTS = tuple(_status_text(s, r) for s in FitStatus for r in StatusReason)
_STATUS_CODES = {text: code for code, text in enumerate(_STATUS_TEXTS)}
_CONVERGED = _STATUS_CODES[FitStatus.Converged.value]
# The FitStatus of each status code, as an index into FitStatus.
_STATUS_FAMILY = np.arange(len(_STATUS_TEXTS)) // len(StatusReason)
_KINDS = tuple(k.value for k in EstimatorKind)


class AuditLog(Sequence):
    """The audit rows of a study, stored as columns.

    A read-only sequence whose items are :class:`AuditRow`, with Python
    floats and ``None`` for missing values, as if the rows were stored one
    by one.  Per row it keeps the replicate index, the estimator and the
    status as small integer codes, the estimate and the standard errors as
    float64 triples (NaN where missing; a reported value is never NaN) and
    the iteration count, so a study's log takes a few dozen bytes per row.
    Logs compare equal when their rows are equal, and pickle as arrays.
    """

    __slots__ = ("rep", "estimator", "status", "est", "se", "iterations")

    def __init__(self, rep, estimator, status, est, se, iterations):
        self.rep = np.asarray(rep, dtype=np.int32)
        self.estimator = np.asarray(estimator, dtype=np.int8)
        self.status = np.asarray(status, dtype=np.int8)
        self.est = np.asarray(est, dtype=float).reshape(-1, 3)
        self.se = np.asarray(se, dtype=float).reshape(-1, 3)
        self.iterations = np.asarray(iterations, dtype=np.int32)

    @classmethod
    def from_rows(cls, rows: Iterable[AuditRow]) -> "AuditLog":
        rows = list(rows)
        return cls(
            [r.rep for r in rows],
            [_KINDS.index(r.estimator) for r in rows],
            [_STATUS_CODES[r.status] for r in rows],
            [[_nan(r.e0), _nan(r.emax), _nan(r.log_ed50)] for r in rows],
            [[_nan(r.se_e0), _nan(r.se_emax), _nan(r.se_log_ed50)] for r in rows],
            [r.iterations for r in rows],
        )

    @classmethod
    def concat(cls, logs: Sequence["AuditLog"]) -> "AuditLog":
        return cls(*(np.concatenate([getattr(g, f) for g in logs]) for f in cls.__slots__))

    def __len__(self) -> int:
        return len(self.rep)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AuditLog(*(getattr(self, f)[i] for f in self.__slots__))
        est, se = self.est[i].tolist(), self.se[i].tolist()
        return AuditRow(
            int(self.rep[i]),
            _KINDS[self.estimator[i]],
            _STATUS_TEXTS[self.status[i]],
            *(None if v != v else v for v in est + se),
            int(self.iterations[i]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AuditLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
            for f in self.__slots__
        )

    __hash__ = None


def _nan(v: float | None) -> float:
    return np.nan if v is None else v


@dataclass(frozen=True)
class SimMetrics:
    """Aggregated study output.

    ``cells`` maps ``(estimator_name, parameter_name)`` to
    :class:`CellMetrics`; ``fail_pct`` / ``unstable_pct`` map estimator
    names to percentages over all replicates.  ``audit`` holds one row per
    (replicate, estimator) for external scrutiny, as an :class:`AuditLog`;
    any other sequence of :class:`AuditRow` given here is converted to one.
    """

    cells: dict[tuple[str, str], CellMetrics]
    fail_pct: dict[str, float]
    unstable_pct: dict[str, float]
    n_reps: int
    audit: AuditLog = field(repr=False, default=())
    acceptance_rate: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.audit, AuditLog):
            object.__setattr__(self, "audit", AuditLog.from_rows(self.audit))


def generate_dataset(study: SimStudy, rep_index: int) -> ObservationSet:
    """Draw one replicate dataset from the stream keyed by (seed, rep).

    Arm event totals are drawn binomially at the truth-implied success
    probabilities — the sufficient-statistic equivalent of per-subject
    Bernoulli draws.
    """
    doses = np.asarray(study.doses, dtype=float)
    t = study.truth
    pi = expit(t.e0 + t.emax * doses / (np.exp(t.phi) + doses))
    rng = np.random.default_rng([study.seed, rep_index])
    events = rng.binomial(study.arm_sizes(), pi).astype(float)
    return ObservationSet(doses, study.arm_sizes().astype(float), events)


def _fit_reps(study: SimStudy, reps) -> AuditLog:
    """Audit log of replicates ``reps``, drawn and fitted in one shared-work block."""
    datasets = [generate_dataset(study, r) for r in reps]
    with shared_work(datasets, study.solver):
        fits = [
            (rep, kind, fit(kind, data, study.solver))
            for rep, data in zip(reps, datasets)
            for kind in study.estimators
        ]
    missing = (np.nan,) * 3
    return AuditLog(
        [rep for rep, _, _ in fits],
        [_KINDS.index(kind.value) for _, kind, _ in fits],
        [_STATUS_CODES[_status_text(r.status, r.status_reason)] for _, _, r in fits],
        [missing if res.params is None else res.params.as_array() for _, _, res in fits],
        [missing if res.std_errors is None else res.std_errors for _, _, res in fits],
        [res.iterations for _, _, res in fits],
    )


def _aggregate(
    study: SimStudy,
    audit: AuditLog,
    acceptance_rate: float | None = None,
    n_reps: int | None = None,
) -> SimMetrics:
    n_reps = n_reps if n_reps is not None else study.n_reps
    truth = study.truth.as_array()
    family = _STATUS_FAMILY[audit.status]
    failed = list(FitStatus).index(FitStatus.FailedToEstimate)
    unstable = list(FitStatus).index(FitStatus.Unstable)
    cells: dict[tuple[str, str], CellMetrics] = {}
    fail_pct: dict[str, float] = {}
    unstable_pct: dict[str, float] = {}
    for kind in study.estimators:
        name = kind.value
        mine = audit.estimator == _KINDS.index(name)
        fail_pct[name] = 100.0 * int(np.count_nonzero(mine & (family == failed))) / n_reps
        unstable_pct[name] = 100.0 * int(np.count_nonzero(mine & (family == unstable))) / n_reps
        used = mine & (audit.status == _CONVERGED)
        n_used = int(np.count_nonzero(used))
        est, se = audit.est[used], audit.se[used]
        for j, pname in enumerate(_PARAMS):
            if n_used == 0:
                cells[(name, pname)] = CellMetrics(
                    np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, 0
                )
                continue
            e, s = est[:, j], se[:, j]
            covered = np.abs(e - truth[j]) <= _Z95 * s
            cells[(name, pname)] = CellMetrics(
                mean_estimate=float(e.mean()),
                mbe=float((e - truth[j]).mean()),
                mse=float(((e - truth[j]) ** 2).mean()),
                mean_se=float(s.mean()),
                coverage=float(covered.mean()),
                mean_ci_length=float((2.0 * _Z95 * s).mean()),
                n_used=n_used,
            )
    return SimMetrics(
        cells=cells,
        fail_pct=fail_pct,
        unstable_pct=unstable_pct,
        n_reps=n_reps,
        audit=audit,
        acceptance_rate=acceptance_rate,
    )


def run_study(study: SimStudy) -> SimMetrics:
    """Fit every estimator on every replicate and aggregate.

    The replicates are cut into contiguous chunks of at most 64, and into
    at least one chunk per worker.  A chunk draws its datasets and fits
    them inside one :func:`~emaxbr.estimators.shared_work` block, which
    solves their start grids in one batch; each (replicate, estimator) is
    one :func:`~emaxbr.estimators.fit` call.  Chunks may fan out over
    ``EMAXBR_THREADS`` processes; results are reassembled in replicate
    order before aggregation, so the output is byte-identical for any
    worker count, and to fitting the replicates one by one.
    """
    logs = map_chunks(partial(_fit_reps, study), range(study.n_reps))
    return _aggregate(study, AuditLog.concat(logs))


def run_shape_conditioned_study(
    study: SimStudy, target_shape: Shape, n_keep: int
) -> SimMetrics:
    """Rejection-sample datasets matching ``target_shape``, then aggregate.

    Draw index ``r`` advances through the study's replicate streams until
    ``n_keep`` datasets classify as the target shape; the kept replicate
    indices are then fitted and aggregated exactly as in :func:`run_study`,
    in chunks that redraw their datasets from the same streams, with the
    acceptance rate recorded.  If fewer than one in 10^4 of the first 10^5
    draws match, the shape is declared unreachable.
    """
    if len(study.doses) != 3:
        raise ValueError("shape-conditioned studies require a 3-arm design")
    kept: list[int] = []
    r = 0
    while len(kept) < n_keep:
        if r >= 100_000 and len(kept) / r < 1e-4:
            raise ShapeUnreachable(
                f"acceptance rate {len(kept)}/{r} below 1e-4 for {target_shape}"
            )
        if classify_shape(generate_dataset(study, r)) is target_shape:
            kept.append(r)
        r += 1
    audit = AuditLog.concat(map_chunks(partial(_fit_reps, study), kept))
    return _aggregate(study, audit, acceptance_rate=len(kept) / r, n_reps=n_keep)


_TABLE_COLUMNS = (
    "estimator",
    "parameter",
    "Estimate",
    "MBE",
    "MSE",
    "Est.SE",
    "CP",
    "Est.Length",
    "n_used",
    "fail_pct",
    "unstable_pct",
)


def emit_table(metrics: SimMetrics, format: str = "csv") -> str:
    """Render metrics as CSV or aligned text with the standard column order.

    CSV floats use ``repr`` so a re-parse reproduces the in-memory values
    exactly.
    """
    rows = []
    for (est, pname), cell in metrics.cells.items():
        rows.append(
            [
                est,
                pname,
                cell.mean_estimate,
                cell.mbe,
                cell.mse,
                cell.mean_se,
                cell.coverage,
                cell.mean_ci_length,
                cell.n_used,
                metrics.fail_pct[est],
                metrics.unstable_pct[est],
            ]
        )
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(v) for v in row])
        return buf.getvalue()
    if format == "text":
        widths = [max(len(str(c)), 12) for c in _TABLE_COLUMNS]
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(_TABLE_COLUMNS, widths))]
        for row in rows:
            cells = [
                v if isinstance(v, str) else (f"{v:.4f}" if isinstance(v, float) else str(v))
                for v in row
            ]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {format!r}")


def parse_table(text: str) -> dict[tuple[str, str], CellMetrics]:
    """Inverse of the CSV rendering of :func:`emit_table` (cells only)."""
    reader = csv.DictReader(io.StringIO(text))
    cells = {}
    for row in reader:
        cells[(row["estimator"], row["parameter"])] = CellMetrics(
            mean_estimate=float(row["Estimate"]),
            mbe=float(row["MBE"]),
            mse=float(row["MSE"]),
            mean_se=float(row["Est.SE"]),
            coverage=float(row["CP"]),
            mean_ci_length=float(row["Est.Length"]),
            n_used=int(row["n_used"]),
        )
    return cells


def audit_csv(metrics: SimMetrics) -> str:
    """Render the per-replicate audit log as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AUDIT_COLUMNS)
    for r in metrics.audit:
        writer.writerow(
            [
                r.rep,
                r.estimator,
                r.status,
                *("" if v is None else repr(v) for v in (
                    r.e0,
                    r.emax,
                    r.log_ed50,
                    r.se_e0,
                    r.se_emax,
                    r.se_log_ed50,
                )),
                r.iterations,
            ]
        )
    return buf.getvalue()


_KIND_NAMES = {k.value: k for k in EstimatorKind}


def load_study(source) -> tuple[SimStudy, dict]:
    """Load a study definition from JSON (path, file object, or dict).

    Returns the study plus the raw option dict (which may carry harness
    extensions such as ``shape_condition``).  Validation errors name the
    offending key.
    """
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    required = ("doses", "n_total", "truth", "n_reps", "estimators", "seed")
    for key in required:
        if key not in raw:
            raise ValueError(f"study definition missing required key: {key}")
    truth_raw = raw["truth"]
    for key in ("e0", "emax", "log_ed50"):
        if key not in truth_raw:
            raise ValueError(f"truth missing required key: {key}")
    truth = EmaxParams(
        float(truth_raw["e0"]), float(truth_raw["emax"]), float(truth_raw["log_ed50"])
    )
    names = raw["estimators"]
    if isinstance(names, str):
        names = [names]
    kinds = []
    for name in names:
        if name not in _KIND_NAMES:
            raise ValueError(f"estimators: unknown estimator {name!r}")
        kinds.append(_KIND_NAMES[name])
    solver_raw = dict(raw.get("solver", {}))
    allowed = set(SolverConfig.__dataclass_fields__)
    for key in solver_raw:
        if key not in allowed:
            raise ValueError(f"solver: unknown option {key!r}")
    solver = SolverConfig(**solver_raw)
    try:
        study = SimStudy(
            doses=tuple(float(d) for d in raw["doses"]),
            n_total=int(raw["n_total"]),
            truth=truth,
            n_reps=int(raw["n_reps"]),
            estimators=tuple(kinds),
            seed=int(raw["seed"]),
            solver=solver,
        )
    except ValueError as exc:
        raise ValueError(f"study definition invalid: {exc}") from exc
    return study, raw
