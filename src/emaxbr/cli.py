"""Command-line front end: ``fit``, ``diagnose``, and ``simulate``.

Input data are CSV files with a mandatory header row: subject layout has
columns ``dose,y`` (one row per subject, binary ``y``); aggregated layout
has ``dose,n,events`` (one row per arm).  Reports are JSON or CSV, written
to stdout or ``--out``; the content is deterministic (no timestamps).

Exit codes: ``fit`` returns 0 when every requested estimator converges, 2
if any is unstable, 3 if any fails outright; ``diagnose`` returns 0 on
no separation and 2 otherwise; ``simulate`` returns 0 on any completed
study; usage or parse problems return 64.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

import numpy as np

from .diagnostics import classify_shape, detect_separation, InsufficientArms
from .estimators import EstimatorKind, FitStatus, SolverConfig, fit, shared_work
from .inference import TooManyFailures, bootstrap_bands, wald_ci
from .model import ObservationSet
from .simharness import Shape, audit_csv, emit_table, load_study, run_shape_conditioned_study, run_study

__all__ = ["main", "cmd_fit", "cmd_diagnose", "cmd_simulate"]

EXIT_OK = 0
EXIT_UNSTABLE = 2
EXIT_FAILED = 3
EXIT_USAGE = 64

_PARAMS = ("e0", "emax", "log_ed50")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _read_data(path: str, layout: str) -> ObservationSet:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{path}: empty file")
            cols = [c.strip() for c in reader.fieldnames]
            expected = ["dose", "y"] if layout == "subject" else ["dose", "n", "events"]
            if cols != expected:
                raise UsageError(
                    f"{path}: line 1: expected header {','.join(expected)} "
                    f"for layout {layout!r}, got {','.join(cols)}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                try:
                    rows.append([float(row[c]) for c in expected])
                except (TypeError, ValueError, KeyError):
                    raise UsageError(f"{path}: line {lineno}: malformed row {row}")
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}")
    if not rows:
        raise UsageError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    try:
        if layout == "subject":
            return ObservationSet.from_subjects(arr[:, 0], arr[:, 1])
        order = np.argsort(arr[:, 0])
        arr = arr[order]
        return ObservationSet(arr[:, 0], arr[:, 1], arr[:, 2])
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def _solver_from_args(args) -> SolverConfig:
    config = SolverConfig()
    overrides = {}
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iter"] = args.max_iter
    if getattr(args, "grad_tol", None) is not None:
        overrides["grad_tol"] = args.grad_tol
    return replace(config, **overrides) if overrides else config


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _kinds(selector: str) -> list[EstimatorKind]:
    if selector == "all":
        return [EstimatorKind.MLE, EstimatorKind.CoxSnell, EstimatorKind.Firth, EstimatorKind.MPLE]
    return [{k.value: k for k in EstimatorKind}[selector]]


def _bootstrap_block(args, data: ObservationSet, kinds, config: SolverConfig) -> dict:
    dose_grid = (
        [float(v) for v in args.doses.split(",")]
        if args.doses
        else [float(d) for d in data.doses]
    )
    bands_block = {"n_boot": args.boot, "seed": args.seed, "method": "percentile", "bands": {}}
    for kind in kinds:
        try:
            bands = bootstrap_bands(
                data, kind, dose_grid, n_boot=args.boot, seed=args.seed,
                config=config, level=args.level,
            )
        except TooManyFailures as exc:
            bands_block["bands"][kind.value] = {"error": str(exc)}
            continue
        bands_block["bands"][kind.value] = [
            {"dose": b.dose, "point": b.point, "lower": b.lower, "upper": b.upper}
            for b in bands
        ]
    return bands_block


def cmd_fit(args) -> int:
    data = _read_data(args.data, args.layout)
    config = _solver_from_args(args)
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must be in (0, 1), got {args.level}")
    report: dict = {
        "data": {
            "per_arm": [
                {"dose": float(d), "n": int(n), "events": int(e), "proportion": float(e / n)}
                for d, n, e in zip(data.doses, data.n, data.events)
            ],
        },
        "diagnostics": {
            "separation": detect_separation(data).value,
        },
        "fits": [],
        "level": args.level,
    }
    try:
        report["diagnostics"]["shape"] = classify_shape(data).value
    except InsufficientArms as exc:
        report["diagnostics"]["shape"] = None
        report["diagnostics"]["shape_note"] = str(exc)

    kinds = _kinds(args.estimator)
    # One block: bootstrap_bands' point fits reuse these.
    with shared_work([data], config):
        results = [fit(kind, data, config) for kind in kinds]
        if args.boot is not None:
            report["bootstrap"] = _bootstrap_block(args, data, kinds, config)

    worst = EXIT_OK
    for kind, res in zip(kinds, results):
        block: dict = {
            "estimator": kind.value,
            "status": res.status.value,
            "status_reason": res.status_reason.value,
            "iterations": res.iterations,
        }
        if res.params is not None:
            est = res.params.as_array()
            block["estimate"] = dict(zip(_PARAMS, map(float, est)))
            block["ed50"] = res.params.ed50()
            if res.std_errors is not None:
                block["std_err"] = dict(zip(_PARAMS, map(float, res.std_errors)))
                cis = {}
                for name, e, s in zip(_PARAMS, est, res.std_errors):
                    interval = wald_ci(float(e), float(s), args.level)
                    cis[name] = [interval.lower, interval.upper]
                block["ci"] = cis
        report["fits"].append(block)
        if res.status is FitStatus.FailedToEstimate:
            worst = max(worst, EXIT_FAILED)
        elif res.status is FitStatus.Unstable:
            worst = max(worst, EXIT_UNSTABLE)

    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["estimator", "status", "parameter", "estimate", "std_err", "ci_lower", "ci_upper"]
        )
        for block in report["fits"]:
            for name in _PARAMS:
                est = block.get("estimate", {}).get(name, "")
                se = block.get("std_err", {}).get(name, "")
                ci = block.get("ci", {}).get(name, ["", ""])
                writer.writerow([block["estimator"], block["status"], name, est, se, ci[0], ci[1]])
        _emit(buf.getvalue(), args.out)
    return worst


def cmd_diagnose(args) -> int:
    data = _read_data(args.data, args.layout)
    separation = detect_separation(data)
    report = {
        "separation": separation.value,
        "per_arm": [
            {"dose": float(d), "n": int(n), "events": int(e), "proportion": float(e / n)}
            for d, n, e in zip(data.doses, data.n, data.events)
        ],
    }
    try:
        report["shape"] = classify_shape(data).value
    except InsufficientArms as exc:
        report["shape"] = None
        report["shape_note"] = str(exc)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if separation.value == "None" else EXIT_UNSTABLE


def cmd_simulate(args) -> int:
    try:
        study, raw = load_study(args.study)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"{args.study}: {exc}")
    condition = raw.get("shape_condition")
    if condition:
        try:
            target = Shape(condition["shape"])
        except (KeyError, ValueError, TypeError):
            raise UsageError("shape_condition: requires a valid 'shape' key")
        n_keep = int(condition.get("n_keep", study.n_reps))
        metrics = run_shape_conditioned_study(study, target, n_keep)
    else:
        metrics = run_study(study)
    _emit(emit_table(metrics, "csv"), args.out)
    if args.audit is not None:
        with open(args.audit, "w", encoding="utf-8") as fh:
            fh.write(audit_csv(metrics))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="emaxbr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one or all estimators to a dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--layout", choices=("subject", "aggregated"), default="aggregated")
    p_fit.add_argument(
        "--estimator", choices=("mle", "coxsnell", "firth", "mple", "all"), default="all"
    )
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--boot", type=int, default=None, metavar="N")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--doses", default=None, help="comma-separated dose grid for bands")
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--format", choices=("json", "csv"), default="json")
    p_fit.add_argument("--max-iter", type=int, default=None)
    p_fit.add_argument("--grad-tol", type=float, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_diag = sub.add_parser("diagnose", help="separation and shape diagnostics")
    p_diag.add_argument("--data", required=True)
    p_diag.add_argument("--layout", choices=("subject", "aggregated"), default="aggregated")
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a study definition JSON")
    p_sim.add_argument("study")
    p_sim.add_argument("--out", default=None, help="metrics CSV path (default stdout)")
    p_sim.add_argument("--audit", default=None, help="per-replicate audit CSV path")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"emaxbr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
