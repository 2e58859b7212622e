"""Digests of emaxbr's deterministic outputs, for checking a refactor.

Prints one sha256 per artifact, computed against the emaxbr sources under
``--src``:

* ``study-main-<i>``: ``emit_table`` + ``audit_csv`` of the study-main
  cell ``i`` for ``i`` in 0-4 (n = 200, main truth, all four estimators,
  100 replicates, study seed ``4100000 + i``);
* ``far-ed50``: the same for a 40-replicate cell at the far-ED50 truth
  ``(-2.197, 2.197, log 250)`` (seed 3);
* ``shape-conditioned``: the same for a 130-dataset
  ``run_shape_conditioned_study`` (3 arms, concave-increasing target);
* ``bands-<kind>``: ``bootstrap_bands`` of each estimator on the bundled
  TURANDOT aggregate, 200 refits, seed 0;
* ``cli-<name>``: exit code and JSON report of ``emaxbr fit --boot 100``
  on the TURANDOT aggregate and on two simulated trials.

The worker count is read from ``EMAXBR_THREADS`` as usual.  A refactor
that claims identical results must print identical digests before and
after, at each worker count::

    EMAXBR_THREADS=1 python scripts/equivalence.py --src /path/to/parent/src
    EMAXBR_THREADS=1 python scripts/equivalence.py --src src

A refactor that reorders floating-point operations changes digests; then
``--compare`` says by how much.  It runs the artifacts of both source trees
(the other one in a child process), marks each digest ``same`` or
``differs``, and for each study artifact compares the audit rows
(replicate, estimator) of the two runs: the number of status changes, the
largest estimate difference over rows that are not ED50 bound hits on
either side, the largest relative difference of a standard error, and the
iteration total of each estimator on each side::

    EMAXBR_THREADS=1 python scripts/equivalence.py --src src --compare /path/to/parent/src
"""

from __future__ import annotations

import os

# One BLAS thread, as in the study workers, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DOSES = (0.0, 7.5, 22.5, 75.0, 225.0)
MAIN_TRUTH = (-2.197, 3.583, float(np.log(7.5)))
FAR_TRUTH = (-2.197, 2.197, float(np.log(250.0)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _study_digest(emaxbr, metrics) -> str:
    return _sha(emaxbr.emit_table(metrics, "csv") + emaxbr.audit_csv(metrics))


def _write_csv(path: Path, data) -> Path:
    lines = ["dose,n,events"] + [
        f"{float(d)!r},{int(n)},{int(e)}" for d, n, e in zip(data.doses, data.n, data.events)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def digests(emaxbr, src: Path, dump: Path | None = None):
    """Yield ``(name, sha256)`` for every artifact, in a fixed order.

    With ``dump``, each study artifact's audit CSV is also written there as
    ``<name>.csv``.
    """
    kinds = tuple(emaxbr.EstimatorKind)

    def audited(name, metrics):
        if dump is not None:
            (dump / f"{name}.csv").write_text(emaxbr.audit_csv(metrics), encoding="utf-8")
        return name, _study_digest(emaxbr, metrics)

    def study(truth, n_reps, seed, doses=DOSES, n_total=200):
        return emaxbr.SimStudy(
            doses=doses,
            n_total=n_total,
            truth=emaxbr.EmaxParams(*truth),
            n_reps=n_reps,
            estimators=kinds,
            seed=seed,
        )

    for i in range(5):
        yield audited(f"study-main-{i}", emaxbr.run_study(study(MAIN_TRUTH, 100, 4_100_000 + i)))
    yield audited("far-ed50", emaxbr.run_study(study(FAR_TRUTH, 40, 3)))

    shaped = study((-2.197, 2.197, float(np.log(25.0))), 1, 23, doses=(0.0, 50.0, 150.0))
    metrics = emaxbr.run_shape_conditioned_study(shaped, emaxbr.Shape.ConcaveIncreasing, 130)
    name, digest = audited("shape-conditioned", metrics)
    yield name, digest + f" rate={metrics.acceptance_rate!r}"

    turandot = src / "emaxbr" / "data" / "turandot_aggregate.csv"
    rows = np.loadtxt(turandot, delimiter=",", skiprows=1)
    data = emaxbr.ObservationSet(rows[:, 0], rows[:, 1], rows[:, 2])
    for kind in kinds:
        try:
            bands = emaxbr.bootstrap_bands(data, kind, DOSES, n_boot=200, seed=0)
            text = repr(bands)
        except emaxbr.TooManyFailures as exc:
            text = f"{type(exc).__name__}: {exc}"
        yield f"bands-{kind.value}", _sha(text)

    trials = study(MAIN_TRUTH, 2, 7, n_total=100)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = {"turandot": turandot}
        for r in range(trials.n_reps):
            inputs[f"sim{r}"] = _write_csv(tmp / f"sim{r}.csv", emaxbr.generate_dataset(trials, r))
        for name, path in inputs.items():
            out = tmp / f"{name}.json"
            argv = ["fit", "--data", str(path), "--boot", "100", "--seed", "5", "--out", str(out)]
            code = emaxbr.cli.main(argv)
            yield f"cli-{name}", _sha(f"{code}\n" + out.read_text(encoding="utf-8"))


def _audit_rows(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        return {(row["rep"], row["estimator"]): row for row in csv.DictReader(fh)}


def compare_audits(ours: Path, theirs: Path) -> str:
    """One line on how the audit rows of ``ours`` differ from those of ``theirs``."""
    a, b = _audit_rows(ours), _audit_rows(theirs)
    if a.keys() != b.keys():
        return "rows differ"
    changed, d_est, d_se, iters = 0, 0.0, 0.0, {}
    for key, x in a.items():
        y = b[key]
        ours_it, theirs_it = iters.get(key[1], (0, 0))
        iters[key[1]] = (ours_it + int(x["iterations"]), theirs_it + int(y["iterations"]))
        if x["status"] != y["status"]:
            changed += 1
            continue
        if "bound hit" not in x["status"] and x["e0"]:
            for col in ("e0", "emax", "log_ed50"):
                d_est = max(d_est, abs(float(x[col]) - float(y[col])))
        for col in ("se_e0", "se_emax", "se_log_ed50"):
            if x[col] and y[col]:
                d_se = max(d_se, abs(float(x[col]) - float(y[col])) / abs(float(y[col])))
    totals = " ".join(f"{k} {o}/{t}" for k, (o, t) in iters.items())
    return (
        f"status changes {changed}; max |d estimate| off bound hits {d_est:.3g}; "
        f"max rel d SE {d_se:.3g}; iterations (this/other) {totals}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path("src"), help="emaxbr source tree")
    ap.add_argument("--compare", type=Path, help="another emaxbr source tree to compare with")
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "emaxbr" / "__init__.py").is_file():
        sys.exit(f"equivalence: no emaxbr sources under {src}")
    if args.compare is None:
        return _print_digests(src, args.dump)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "this", Path(tmp) / "other"
        ours.mkdir()
        theirs.mkdir()
        other = subprocess.run(
            [sys.executable, __file__, "--src", str(args.compare), "--dump", str(theirs)],
            capture_output=True, text=True, check=True,
        ).stdout
        other_digests = dict(line.split(" ", 1) for line in other.splitlines()[1:])
        print(other.splitlines()[0], flush=True)
        for name, digest in _digests_of(src, ours):
            same = "same" if other_digests.get(name) == digest else "differs"
            print(f"{name} {digest} {same}", flush=True)
            if (ours / f"{name}.csv").is_file():
                print(f"  {compare_audits(ours / f'{name}.csv', theirs / f'{name}.csv')}")
    return 0


def _digests_of(src: Path, dump: Path | None):
    sys.path.insert(0, str(src))
    import emaxbr
    import emaxbr.cli

    if Path(emaxbr.__file__).resolve().parent != (src / "emaxbr").resolve():
        sys.exit(f"equivalence: imported emaxbr from {emaxbr.__file__}, not {src}")
    return digests(emaxbr, src, dump)


def _print_digests(src: Path, dump: Path | None) -> int:
    print(f"# EMAXBR_THREADS={os.environ.get('EMAXBR_THREADS', '')}", flush=True)
    for name, digest in _digests_of(src, dump):
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
