"""Chunked fan-out against a one-dataset-at-a-time oracle.

``run_study``, ``run_shape_conditioned_study`` and ``bootstrap_bands`` cut
their datasets into chunks of at most 64, at least one per worker, and
solve each chunk's start grids in one batch.  Their output must equal a
plain loop that fits one dataset at a time, at chunk boundaries (63, 64, 65
datasets) and at any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from emaxbr import (
    EmaxParams,
    EstimatorKind,
    FitStatus,
    ObservationSet,
    Shape,
    SimStudy,
    StatusReason,
    audit_csv,
    bootstrap_bands,
    classify_shape,
    emit_table,
    fit,
    generate_dataset,
    predict_prob,
    run_shape_conditioned_study,
    run_study,
    shared_work,
)
from emaxbr._pool import chunks

TRUTH = EmaxParams(-2.197, 3.583, np.log(7.5))
DOSES5 = (0.0, 7.5, 22.5, 75.0, 225.0)
SIZES = (1, 63, 64, 65, 130)


@pytest.fixture(params=["1", "2"], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    monkeypatch.setenv("EMAXBR_THREADS", request.param)


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("n_items", [0, *SIZES, 100, 200])
def test_chunks_cover_items_and_feed_every_worker(n_items, n_workers, monkeypatch):
    monkeypatch.setenv("EMAXBR_THREADS", str(n_workers))
    parts = chunks(n_items)
    assert [i for part in parts for i in part] == list(range(n_items))
    assert len(parts) == max(-(-n_items // 64), min(n_items, n_workers))
    sizes = [len(part) for part in parts]
    assert all(size >= 1 for size in sizes) and max(sizes, default=0) <= 64
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


def _study(n_reps: int, **overrides) -> SimStudy:
    kwargs = dict(
        doses=DOSES5,
        n_total=120,
        truth=TRUTH,
        n_reps=n_reps,
        estimators=tuple(EstimatorKind),
        seed=23,
    )
    kwargs.update(overrides)
    return SimStudy(**kwargs)


def _assert_rows_match_loop(study: SimStudy, audit, kept: list[tuple[int, ObservationSet]]):
    """``audit`` equals fitting each kept dataset alone inside ``shared_work``."""
    assert len(audit) == len(kept) * len(study.estimators)
    rows = iter(audit)
    for rep, data in kept:
        with shared_work([data], study.solver):
            results = [fit(kind, data, study.solver) for kind in study.estimators]
        for kind, res in zip(study.estimators, results):
            row = next(rows)
            status = res.status.value
            if res.status_reason is not StatusReason.NONE:
                status += f":{res.status_reason.value}"
            est = (None,) * 3 if res.params is None else tuple(res.params.as_array())
            se = (None,) * 3 if res.std_errors is None else tuple(res.std_errors)
            assert (row.rep, row.estimator, row.status) == (rep, kind.value, status)
            assert (row.e0, row.emax, row.log_ed50) == est
            assert (row.se_e0, row.se_emax, row.se_log_ed50) == se
            assert row.iterations == res.iterations


@pytest.fixture(scope="module")
def serial_studies():
    return {n: run_study(_study(n)) for n in SIZES}


@pytest.mark.parametrize("n_reps", SIZES)
def test_run_study_equals_replicate_loop(n_reps, workers, serial_studies):
    study = _study(n_reps)
    metrics = run_study(study)
    kept = [(r, generate_dataset(study, r)) for r in range(n_reps)]
    _assert_rows_match_loop(study, metrics.audit, kept)
    assert emit_table(metrics) == emit_table(serial_studies[n_reps])
    assert audit_csv(metrics) == audit_csv(serial_studies[n_reps])


@pytest.mark.parametrize("n_keep", SIZES)
def test_shape_conditioned_study_equals_replicate_loop(n_keep, workers):
    study = _study(
        1,
        doses=(0.0, 50.0, 150.0),
        truth=EmaxParams(-2.197, 2.197, np.log(25.0)),
        estimators=(EstimatorKind.MLE, EstimatorKind.CoxSnell, EstimatorKind.MPLE),
    )
    metrics = run_shape_conditioned_study(study, Shape.ConcaveIncreasing, n_keep)
    kept, r = [], 0
    while len(kept) < n_keep:
        data = generate_dataset(study, r)
        if classify_shape(data) is Shape.ConcaveIncreasing:
            kept.append((r, data))
        r += 1
    assert metrics.acceptance_rate == n_keep / r
    _assert_rows_match_loop(study, metrics.audit, kept)


def _refit_loop_bands(data, kind, n_boot, seed, level=0.95):
    """Bands from refitting each resample alone, one ``fit`` call per refit."""
    doses = np.asarray(DOSES5)
    draws = []
    for r in range(n_boot):
        rng = np.random.default_rng([seed, r])
        events = rng.binomial(data.n.astype(int), data.proportions).astype(float)
        res = fit(kind, ObservationSet(data.doses, data.n, events))
        if res.status is not FitStatus.FailedToEstimate and res.params is not None:
            draws.append(predict_prob(res.params, doses))
    alpha = (1.0 - level) / 2.0
    lo = np.percentile(np.vstack(draws), 100.0 * alpha, axis=0)
    hi = np.percentile(np.vstack(draws), 100.0 * (1.0 - alpha), axis=0)
    return lo, hi


@pytest.mark.parametrize("n_boot", [100, 200])
@pytest.mark.parametrize("kind", [EstimatorKind.MLE, EstimatorKind.MPLE])
def test_bootstrap_bands_equal_refit_loop(kind, n_boot, workers):
    data = generate_dataset(_study(1), 0)
    bands = bootstrap_bands(data, kind, DOSES5, n_boot=n_boot, seed=8)
    point = predict_prob(fit(kind, data).params, np.asarray(DOSES5))
    lo, hi = _refit_loop_bands(data, kind, n_boot, seed=8)
    np.testing.assert_array_equal([b.point for b in bands], point)
    np.testing.assert_array_equal([b.lower for b in bands], np.minimum(lo, point))
    np.testing.assert_array_equal([b.upper for b in bands], np.maximum(hi, point))
