"""emaxbr benchmark: study-cell throughput, CLI analysis latency, per-layer tracing.

Run from the repository root::

    python3 perfbench/run.py --workload study-main --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's ops for ``--seconds`` with tracing off and
prints the end-to-end metrics; ``--trace 1`` runs each op untraced and then
traced, for ``--seconds``, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the environment, the determinism digests and any
check failures.  ``--smoke`` shrinks every op so that a run takes seconds.

The benchmark imports ``emaxbr`` from ``src/`` of the checkout it sits in
and exits with an error when that source tree is missing.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy loads; pool children inherit this,
# so N emaxbr workers use N threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def load_package():
    """Import emaxbr from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "emaxbr" / "__init__.py").is_file():
        sys.exit(f"perfbench: emaxbr sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import emaxbr

    if Path(emaxbr.__file__).resolve().parent != (SRC / "emaxbr").resolve():
        sys.exit(f"perfbench: imported emaxbr from {emaxbr.__file__}, not {SRC}")
    return emaxbr


def environment(load_1m: float) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = (
            f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
        )
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "loadavg_1m_at_start": load_1m,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny ops, for the self-test")
    p.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def measure_setup(args, n: int) -> list[float]:
    """Wall time of fresh processes that import emaxbr and generate the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--out-dir", args.out_dir,
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_for(ops, seconds: float) -> list:
    """Closed loop: run ops back to back until ``seconds`` have passed (at least one)."""
    results = []
    t_start = time.perf_counter()
    while True:
        results.append(ops.attempt(len(results)))
        if time.perf_counter() - t_start >= seconds:
            return results


def fail_op(failures: dict, result, message: str) -> None:
    """Count every unit of an op as failed."""
    for unit in range(result.units):
        failures.setdefault((result.index, unit), message)


def check_all(ops, results) -> dict[tuple[int, int], str]:
    """Failed units, keyed by (op index, unit), with the reason."""
    failures: dict[tuple[int, int], str] = {}
    for r in results:
        if r.error:
            fail_op(failures, r, r.error)
        else:
            failures.update(((r.index, unit), msg) for unit, msg in ops.check(r).items())
    return failures


def with_units(values: dict[str, float], section: str) -> dict:
    units = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def untraced_metrics(args, w, ops, bw):
    bw.set_threads(w.threads)
    warm = ops.attempt(0, warm=True)
    results = run_for(ops, args.seconds)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # RUSAGE_CHILDREN gives the largest waited-for child (here only pool
    # workers); forked workers share pages with us, so this is an upper bound.
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pool_kb = w.threads * child_kb if w.threads > 1 else 0
    failures = check_all(ops, results)
    # Determinism: the warm-up op runs again on the same inputs.
    again = ops.attempt(0, warm=True) if w.is_study else results[0]
    if warm.digest != again.digest:
        fail_op(failures, results[0], "digest differs when the warm-up op is run again")
    # Probes run after the RSS reading: they are children too.
    setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    walls = [r.wall_s for r in results]
    metrics = {
        "reps_per_s": sum(r.work for r in results) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": (self_kb + pool_kb) / 1024.0,
    }
    report = {
        "analysis_s": {"p50": statistics.median(walls), "samples": len(walls), "unit": "s"},
        "op_wall_s": walls,
        "setup_s_samples": setup,
        "digests": [r.digest for r in results],
    }
    return with_units(metrics, "end_to_end"), report, results, failures


def traced_metrics(args, w, ops, bw, bt, emaxbr):
    """Run each op untraced, then (trial-boot) on the pool, then traced.

    Running the passes of one op back to back keeps slow drift in machine
    speed out of the overhead and pool-efficiency ratios.  Spans are only
    collected in-process, so the untraced reference and the traced pass
    use one worker.
    """
    bw.set_threads(1)
    ops.attempt(0, warm=True)
    tracer = bt.Tracer(emaxbr)
    passes = {"untraced": [], "parallel": [], "traced": []}
    t_start = time.perf_counter()
    while not passes["untraced"] or time.perf_counter() - t_start < args.seconds:
        index = len(passes["untraced"])
        passes["untraced"].append(ops.attempt(index))
        if w.threads > 1:
            bw.set_threads(w.threads)
            passes["parallel"].append(ops.attempt(index))
            bw.set_threads(1)
        tracer.op = index
        tracer.install()
        try:
            passes["traced"].append(ops.attempt(index))
        finally:
            tracer.uninstall()
    untraced = passes.pop("untraced")
    failures = check_all(ops, untraced)
    for name, results in passes.items():
        for a, b in zip(untraced, results):
            if a.digest != b.digest:
                fail_op(failures, a, f"digest differs in the {name} pass")

    metrics, counts = bt.layer_metrics(tracer, ops.root_span)
    message = bt.integrity_error(counts, len(untraced), ops.fits_per_op)
    if message:
        print(f"perfbench: {message}", file=sys.stderr)
        for r in untraced:
            fail_op(failures, r, message)
    walls = {name: sum(r.wall_s for r in results) for name, results in passes.items()}
    walls["untraced"] = sum(r.wall_s for r in untraced)
    metrics["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    metrics["inference.pool_efficiency"] = (
        walls["untraced"] / (w.threads * walls["parallel"]) if passes["parallel"] else 0.0
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{w.name}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)
    report = {"walls_s": walls, "trace_counts": counts, "spans_file": str(spans_path)}
    return with_units(metrics, "per_layer"), report, untraced, failures


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    args = parse_args(argv)
    emaxbr = load_package()
    import bench_trace as bt
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(bw.WORKLOADS)}")
    w = bw.WORKLOADS[args.workload]
    workdir = Path(args.out_dir) / f"{w.name}-{args.seed}-{os.getpid()}"
    ops = bw.make_ops(w, args.seed, workdir, args.smoke)
    try:
        if not w.is_study:
            ops.write_inputs()
        if args.setup_probe:
            return 0
        if args.trace:
            metrics, report, results, failures = traced_metrics(args, w, ops, bw, bt, emaxbr)
        else:
            metrics, report, results, failures = untraced_metrics(args, w, ops, bw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.units for r in results)
    failed = len(failures)
    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "op_error_frac": failed / attempted,
        "check_failures": sorted(failures.values())[:20],
        "environment": environment(load_1m),
        **report,
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
