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
"""

from __future__ import annotations

import os

# One BLAS thread, as in the study workers, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
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


def digests(emaxbr, src: Path):
    """Yield ``(name, sha256)`` for every artifact, in a fixed order."""
    kinds = tuple(emaxbr.EstimatorKind)

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
        metrics = emaxbr.run_study(study(MAIN_TRUTH, 100, 4_100_000 + i))
        yield f"study-main-{i}", _study_digest(emaxbr, metrics)
    yield "far-ed50", _study_digest(emaxbr, emaxbr.run_study(study(FAR_TRUTH, 40, 3)))

    shaped = study((-2.197, 2.197, float(np.log(25.0))), 1, 23, doses=(0.0, 50.0, 150.0))
    metrics = emaxbr.run_shape_conditioned_study(shaped, emaxbr.Shape.ConcaveIncreasing, 130)
    yield "shape-conditioned", _study_digest(emaxbr, metrics) + f" rate={metrics.acceptance_rate!r}"

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path("src"), help="emaxbr source tree")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "emaxbr" / "__init__.py").is_file():
        sys.exit(f"equivalence: no emaxbr sources under {src}")
    sys.path.insert(0, str(src))
    import emaxbr
    import emaxbr.cli

    if Path(emaxbr.__file__).resolve().parent != (src / "emaxbr").resolve():
        sys.exit(f"equivalence: imported emaxbr from {emaxbr.__file__}, not {src}")
    print(f"# EMAXBR_THREADS={os.environ.get('EMAXBR_THREADS', '')}", flush=True)
    for name, digest in digests(emaxbr, src):
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
