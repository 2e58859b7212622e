"""Per-fit benchmark of the emaxbr solvers; writes ``BENCH_fit.json``.

Measures, against the emaxbr sources under ``--src``:

* the cost per solver iterate of the exact MPLE curvature and of the
  exact Firth Jacobian, in microseconds per call, at the MPLE fit of the
  bundled golden dataset, each timed from the iterate's held point
  (``_point``, ``_penalized_jacobian_at`` and ``_modified_jacobian_at``,
  which both the tensor-form and the per-arm sources define);
* milliseconds per fit of each estimator, each fit standalone (outside
  ``shared_work``), on the golden dataset and on replicate 0 of the
  far-ED50 study (truth ``(-2.197, 2.197, log 250)``, n = 200, seed 3);
* replicates per second of one 100-replicate study cell at the main truth
  with all four estimators and one worker;
* microseconds per dataset of ``starting_values`` on the first 64
  replicates of that cell, each dataset alone, and in one 64-dataset batch
  (``batch_starting_values``; sources without it run the 64 datasets one
  by one);
* microseconds per dataset of the MLE and of the MPLE ascent on those 64
  datasets from their start points, each dataset alone and all 64 in one
  batch (the private ``_solve_mle``/``_solve_mple``; sources whose solvers
  take one memo run the 64 datasets one by one);
* microseconds per dataset of the Firth root search and of the Cox-Snell
  bias step on those 64 datasets, given memos that already hold their MPLE
  and MLE fits, each dataset alone and all 64 in one batch
  (``_solve_firth``/``_solve_cox_snell``, likewise);
* kilobytes a 100-replicate ``run_study`` result keeps allocated
  (tracemalloc), the study cell's output that a caller holds;
* milliseconds per ``bootstrap_bands`` call of the MPLE with 200 refits on
  replicate 0 of that cell, with one worker;
* seconds and peak resident megabytes of a fresh ``python -c "import
  emaxbr"`` process (median of 5).

Every figure is the median over ``--repeats`` runs.  Results go into the
``--out`` JSON under ``--label``; other labels already in the file are
kept, so one file holds a before and an after.  Run both from the same
machine, one after the other::

    python scripts/bench_fit.py --src /path/to/parent/src --label parent
    python scripts/bench_fit.py --src src --label change
"""

from __future__ import annotations

import os

# One BLAS thread, as in the study workers, before NumPy loads; one worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EMAXBR_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import inspect
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

DOSES = (0.0, 7.5, 22.5, 75.0, 225.0)
MAIN_TRUTH = (-2.197, 3.583, float(np.log(7.5)))
FAR_TRUTH = (-2.197, 2.197, float(np.log(250.0)))


def _per_call(fn, min_seconds: float) -> float:
    """Seconds per call of ``fn``, over at least ``min_seconds`` of calls."""
    calls, t0 = 0, time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls


def _jacobian_calls(emaxbr, data):
    """Per-iterate Jacobian calls of both solvers at the golden MPLE point."""
    est = emaxbr.estimators
    tens = emaxbr.deriv_tensors(emaxbr.fit_mple(data).params, data)
    pt = est._point(tens, data, np.linalg.pinv)
    return {
        "penalized": lambda: est._penalized_jacobian_at(pt, data),
        "firth": lambda: est._modified_jacobian_at(pt, data),
    }


def _solve_calls(emaxbr, datasets):
    """Each estimator's solve of ``datasets``, alone and as one batch.

    The MLE and the MPLE run from the memos' starts; Firth and Cox-Snell
    from memos that already hold the MPLE and MLE fits they build on.
    """
    est = emaxbr.estimators
    config = emaxbr.SolverConfig()
    starts = emaxbr.batch_starting_values(datasets)

    def memos(*kinds):
        works = [est._DatasetWork(d, config, s) for d, s in zip(datasets, starts)]
        for w in works:
            for kind in kinds:
                w.fit(kind)
        return works

    solved = {
        "firth": memos(emaxbr.EstimatorKind.MPLE),
        "coxsnell": memos(emaxbr.EstimatorKind.MLE),
    }
    calls = {}
    for kind, solve in (
        ("mle", est._solve_mle),
        ("mple", est._solve_mple),
        ("firth", est._solve_firth),
        ("coxsnell", est._solve_cox_snell),
    ):
        fresh = (lambda works=solved[kind]: works) if kind in solved else memos
        if "works" in inspect.signature(solve).parameters:
            calls[f"{kind}_alone"] = lambda solve=solve, fresh=fresh: [solve([w]) for w in fresh()]
            calls[f"{kind}_batch64"] = lambda solve=solve, fresh=fresh: solve(fresh())
        else:
            calls[f"{kind}_alone"] = lambda solve=solve, fresh=fresh: [solve(w) for w in fresh()]
            calls[f"{kind}_batch64"] = calls[f"{kind}_alone"]
    return calls


def _retained_kb(emaxbr, study) -> float:
    """Kilobytes still allocated for a ``run_study(study)`` result once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        result = emaxbr.run_study(study)
        gc.collect()
        kb = tracemalloc.get_traced_memory()[0] / 1024.0
    finally:
        tracemalloc.stop()
    del result
    return kb


def _import_probe(src: Path, repeats: int = 5) -> dict:
    """Median wall seconds and peak RSS (MB) of fresh ``import emaxbr`` processes."""
    code = "import resource, emaxbr; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    secs, rss = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        secs.append(time.perf_counter() - t0)
        rss.append(int(out.stdout) / 1024.0)
    return {"import_s": statistics.median(secs), "import_rss_mb": statistics.median(rss)}


def measure(emaxbr, repeats: int) -> dict:
    golden = emaxbr.ObservationSet(
        np.array(DOSES),
        np.array([67.0, 63.0, 71.0, 68.0, 64.0]),
        np.array([2.0, 8.0, 12.0, 11.0, 4.0]),
    )
    kinds = list(emaxbr.EstimatorKind)
    far_study = emaxbr.SimStudy(
        doses=DOSES,
        n_total=200,
        truth=emaxbr.EmaxParams(*FAR_TRUTH),
        n_reps=1,
        estimators=tuple(kinds),
        seed=3,
    )
    far = emaxbr.generate_dataset(far_study, 0)
    cell = emaxbr.SimStudy(
        doses=DOSES,
        n_total=200,
        truth=emaxbr.EmaxParams(*MAIN_TRUTH),
        n_reps=100,
        estimators=tuple(kinds),
        seed=4_100_000,
    )

    starts = [emaxbr.generate_dataset(cell, r) for r in range(64)]
    batch = getattr(emaxbr, "batch_starting_values", None) or (
        lambda datasets: [emaxbr.starting_values(d) for d in datasets]
    )
    start_calls = {
        "alone": lambda: [emaxbr.starting_values(d) for d in starts],
        "batch64": lambda: batch(starts),
    }

    solve_calls = _solve_calls(emaxbr, starts)
    solve_us = {name: [] for name in solve_calls}
    jac_calls = _jacobian_calls(emaxbr, golden)
    jac = {name: [] for name in jac_calls}
    fits = {(ds, k.value): [] for ds in ("golden", "far_ed50") for k in kinds}
    start_us = {name: [] for name in start_calls}
    rates, boot_ms = [], []
    emaxbr.run_study(cell)  # warm-up: imports, allocator and caches
    result_kb = _retained_kb(emaxbr, cell)
    for _ in range(repeats):
        for name, fn in jac_calls.items():
            jac[name].append(1e6 * _per_call(fn, 0.2))
        for ds, data in (("golden", golden), ("far_ed50", far)):
            for kind in kinds:
                per = _per_call(lambda: emaxbr.fit(kind, data), 0.3)
                fits[(ds, kind.value)].append(1e3 * per)
        for name, fn in start_calls.items():
            start_us[name].append(1e6 * _per_call(fn, 0.3) / len(starts))
        for name, fn in solve_calls.items():
            solve_us[name].append(1e6 * _per_call(fn, 0.3) / len(starts))
        t0 = time.perf_counter()
        emaxbr.run_study(cell)
        rates.append(cell.n_reps / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        emaxbr.bootstrap_bands(starts[0], emaxbr.EstimatorKind.MPLE, DOSES, n_boot=200)
        boot_ms.append(1e3 * (time.perf_counter() - t0))

    return {
        "jacobian_us_per_call": {k: statistics.median(v) for k, v in jac.items()},
        "fit_ms": {
            ds: {k.value: statistics.median(fits[(ds, k.value)]) for k in kinds}
            for ds in ("golden", "far_ed50")
        },
        "study_cell_reps_per_s": statistics.median(rates),
        "starting_values_us_per_dataset": {
            k: statistics.median(v) for k, v in start_us.items()
        },
        **{
            f"{kind}_us_per_dataset": {
                k.split("_")[1]: statistics.median(v)
                for k, v in solve_us.items()
                if k.startswith(f"{kind}_")
            }
            for kind in ("mle", "mple", "firth", "coxsnell")
        },
        "study_result_kb": result_kb,
        "bootstrap_mple_200_ms": statistics.median(boot_ms),
        **_import_probe(Path(emaxbr.__file__).resolve().parent.parent),
        "repeats": repeats,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path("src"), help="emaxbr source tree")
    ap.add_argument("--label", required=True, help="key for this run, e.g. parent or change")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", type=Path, default=Path("BENCH_fit.json"))
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "emaxbr" / "__init__.py").is_file():
        sys.exit(f"bench_fit: no emaxbr sources under {src}")
    sys.path.insert(0, str(src))
    import emaxbr

    if Path(emaxbr.__file__).resolve().parent != (src / "emaxbr").resolve():
        sys.exit(f"bench_fit: imported emaxbr from {emaxbr.__file__}, not {src}")
    result = measure(emaxbr, args.repeats)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc[args.label] = result
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: result}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
