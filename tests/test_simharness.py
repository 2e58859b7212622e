from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from emaxbr import (
    AUDIT_COLUMNS,
    AuditLog,
    EmaxParams,
    EstimatorKind,
    FitStatus,
    ObservationSet,
    Shape,
    ShapeUnreachable,
    SimStudy,
    SolverConfig,
    audit_csv,
    emit_table,
    fit_mle,
    fit_quadratic_logit,
    generate_dataset,
    load_study,
    log_likelihood,
    parse_table,
    predict_prob,
    run_shape_conditioned_study,
    run_study,
)

TRUTH = EmaxParams(-2.197, 3.583, np.log(7.5))
DOSES5 = (0.0, 7.5, 22.5, 75.0, 225.0)


def _study(**overrides) -> SimStudy:
    kwargs = dict(
        doses=DOSES5,
        n_total=250,
        truth=TRUTH,
        n_reps=20,
        estimators=(EstimatorKind.MLE, EstimatorKind.MPLE),
        seed=7,
    )
    kwargs.update(overrides)
    return SimStudy(**kwargs)


class TestSimStudy:
    def test_even_allocation(self):
        assert list(_study(n_total=250).arm_sizes()) == [50] * 5

    def test_remainder_goes_to_lowest_doses(self):
        assert list(_study(n_total=253).arm_sizes()) == [51, 51, 51, 50, 50]

    def test_validation(self):
        with pytest.raises(ValueError):
            _study(doses=(0.0,))
        with pytest.raises(ValueError):
            _study(n_total=3)
        with pytest.raises(ValueError):
            _study(n_reps=0)
        with pytest.raises(ValueError):
            _study(estimators=())


class TestGenerateDataset:
    def test_deterministic_per_replicate(self):
        s = _study()
        a = generate_dataset(s, 3)
        b = generate_dataset(s, 3)
        np.testing.assert_array_equal(a.events, b.events)

    def test_replicates_are_independent_streams(self):
        s = _study()
        ev = {r: tuple(generate_dataset(s, r).events) for r in range(10)}
        assert len(set(ev.values())) > 1

    def test_seed_changes_stream(self):
        a = generate_dataset(_study(seed=1), 0)
        b = generate_dataset(_study(seed=2), 0)
        assert not np.array_equal(a.events, b.events)

    def test_long_run_event_rate_matches_truth(self):
        # One giant replicate: the placebo arm's empirical event rate has
        # binomial standard error ~0.0002 at this size, so a 0.001 window is
        # a five-sigma check of the generator's success probability.
        s = _study(n_total=10_000_000, n_reps=1)
        d = generate_dataset(s, 0)
        p0 = predict_prob(TRUTH, 0.0)
        assert d.events[0] / d.n[0] == pytest.approx(p0, abs=1e-3)
        assert p0 == pytest.approx(0.1, abs=2e-4)


@pytest.fixture(scope="module")
def metrics():
    return run_study(_study())


@pytest.fixture(scope="module")
def small_metrics():
    return run_study(_study(n_reps=5))


class TestRunStudy:
    def test_cell_and_audit_layout(self, metrics):
        assert set(metrics.cells) == {
            (e, p)
            for e in ("mle", "mple")
            for p in ("e0", "emax", "log_ed50")
        }
        assert len(metrics.audit) == 20 * 2
        assert metrics.n_reps == 20

    def test_cells_use_converged_reps_only(self, metrics):
        by_est = {}
        for row in metrics.audit:
            by_est.setdefault(row.estimator, []).append(row)
        for est, rows in by_est.items():
            n_conv = sum(r.status == "Converged" for r in rows)
            for p in ("e0", "emax", "log_ed50"):
                assert metrics.cells[(est, p)].n_used == n_conv

    def test_percentages_over_all_reps(self, metrics):
        for est in ("mle", "mple"):
            rows = [r for r in metrics.audit if r.estimator == est]
            n_fail = sum(r.status.startswith("FailedToEstimate") for r in rows)
            n_unst = sum(r.status.startswith("Unstable") for r in rows)
            assert metrics.fail_pct[est] == pytest.approx(100.0 * n_fail / 20)
            assert metrics.unstable_pct[est] == pytest.approx(100.0 * n_unst / 20)

    def test_cell_recomputable_from_audit(self, metrics):
        truth = TRUTH.as_array()
        rows = [
            r for r in metrics.audit if r.estimator == "mple" and r.status == "Converged"
        ]
        e = np.array([r.emax for r in rows])
        s = np.array([r.se_emax for r in rows])
        cell = metrics.cells[("mple", "emax")]
        assert cell.mean_estimate == pytest.approx(e.mean(), rel=1e-12)
        assert cell.mbe == pytest.approx((e - truth[1]).mean(), rel=1e-10)
        assert cell.mse == pytest.approx(((e - truth[1]) ** 2).mean(), rel=1e-12)
        assert cell.mean_se == pytest.approx(s.mean(), rel=1e-12)
        z = 1.959963984540054
        assert cell.coverage == pytest.approx(
            np.mean(np.abs(e - truth[1]) <= z * s)
        )
        assert cell.mean_ci_length == pytest.approx(2.0 * z * s.mean(), rel=1e-12)

    def test_parallel_execution_is_byte_identical(self, metrics, monkeypatch):
        monkeypatch.setenv("EMAXBR_THREADS", "4")
        other = run_study(_study())
        assert emit_table(other) == emit_table(metrics)
        assert audit_csv(other) == audit_csv(metrics)


class TestTables:
    def test_csv_round_trip_is_exact(self, small_metrics):
        cells = parse_table(emit_table(small_metrics, format="csv"))
        assert cells == small_metrics.cells

    def test_csv_header(self, small_metrics):
        header = emit_table(small_metrics).splitlines()[0]
        assert header == (
            "estimator,parameter,Estimate,MBE,MSE,Est.SE,CP,Est.Length,"
            "n_used,fail_pct,unstable_pct"
        )

    def test_text_format_alignment(self, small_metrics):
        lines = emit_table(small_metrics, format="text").splitlines()
        assert len(lines) == 1 + len(small_metrics.cells)
        assert lines[0].startswith("estimator")

    def test_unknown_format_rejected(self, small_metrics):
        with pytest.raises(ValueError):
            emit_table(small_metrics, format="yaml")

    def test_audit_rows_are_slotted_and_pickle(self, small_metrics):
        rows = small_metrics.audit
        assert not hasattr(rows[0], "__dict__")
        assert pickle.loads(pickle.dumps(rows)) == rows

    def test_audit_log_rows_hold_python_values(self, small_metrics):
        log = small_metrics.audit
        rows = list(log)
        assert AuditLog.from_rows(rows) == log
        assert log[1:3] == AuditLog.from_rows(rows[1:3])
        # A missing value stays None, and a float is a Python float, whose repr
        # the audit CSV writes (np.float64 prints differently).
        for row in rows:
            for v in (row.e0, row.emax, row.log_ed50, row.se_e0, row.se_emax, row.se_log_ed50):
                assert v is None or type(v) is float
            assert type(row.rep) is int and type(row.iterations) is int
        replaced = dataclasses.replace(small_metrics, audit=tuple(rows))
        assert replaced.audit == log

    def test_audit_csv_layout(self, small_metrics):
        lines = audit_csv(small_metrics).splitlines()
        assert lines[0] == ",".join(AUDIT_COLUMNS)
        assert len(lines) == 1 + len(small_metrics.audit)


class TestShapeConditioned:
    def test_acceptance_high_for_typical_shape(self):
        # A steep concave truth makes concave samples the overwhelmingly
        # common draw, so rejection sampling accepts nearly everything.
        study = SimStudy(
            doses=(0.0, 50.0, 150.0),
            n_total=210,
            truth=EmaxParams(-2.197, 2.197, np.log(25.0)),
            n_reps=30,
            estimators=(EstimatorKind.MPLE,),
            seed=5,
        )
        m = run_shape_conditioned_study(study, Shape.ConcaveIncreasing, n_keep=30)
        assert m.acceptance_rate is not None and m.acceptance_rate > 0.5
        assert m.n_reps == 30
        assert len(m.audit) == 30

    def test_kept_reps_all_match_shape(self):
        study = SimStudy(
            doses=(0.0, 50.0, 150.0),
            n_total=210,
            truth=EmaxParams(-2.197, 2.197, np.log(25.0)),
            n_reps=10,
            estimators=(EstimatorKind.MPLE,),
            seed=5,
        )
        m = run_shape_conditioned_study(study, Shape.ConvexIncreasing, n_keep=10)
        from emaxbr import classify_shape

        for row in m.audit:
            data = generate_dataset(study, row.rep)
            assert classify_shape(data) is Shape.ConvexIncreasing

    def test_requires_three_arms(self):
        with pytest.raises(ValueError):
            run_shape_conditioned_study(_study(), Shape.ConcaveIncreasing, n_keep=1)

    def test_unreachable_shape_raises(self):
        # A huge trial on a strongly increasing truth essentially never
        # produces a flat-looking non-monotone decreasing pattern.
        study = SimStudy(
            doses=(0.0, 50.0, 150.0),
            n_total=90_000,
            truth=EmaxParams(-2.197, 2.197, np.log(25.0)),
            n_reps=1,
            estimators=(EstimatorKind.MPLE,),
            seed=5,
        )
        with pytest.raises(ShapeUnreachable):
            run_shape_conditioned_study(study, Shape.NonMonotone, n_keep=1)


class TestQuadraticLogit:
    def test_recovers_exact_quadratic(self):
        # Proportions generated exactly from a quadratic logit are recovered
        # along with the interior vertex.
        d = np.array([0.0, 20.0, 40.0, 60.0, 80.0])
        b_true = np.array([-2.0, 0.12, -0.0015])  # vertex at d = 40
        lin = b_true[0] + b_true[1] * d + b_true[2] * d**2
        n = 100_000
        from scipy.special import expit as sigmoid

        events = np.round(sigmoid(lin) * n)
        data = ObservationSet(d, np.full(5, float(n)), events)
        res = fit_quadratic_logit(data)
        assert res.status is FitStatus.Converged
        np.testing.assert_allclose(res.coefs, b_true, rtol=1e-3)
        assert res.peak_dose == pytest.approx(40.0, abs=0.5)

    def test_no_peak_reported_for_convex_fit(self):
        d = np.array([0.0, 20.0, 40.0, 60.0, 80.0])
        b_true = np.array([-3.0, -0.01, 0.0008])
        lin = b_true[0] + b_true[1] * d + b_true[2] * d**2
        n = 100_000
        from scipy.special import expit as sigmoid

        events = np.round(sigmoid(lin) * n)
        data = ObservationSet(d, np.full(5, float(n)), events)
        res = fit_quadratic_logit(data)
        assert res.status is FitStatus.Converged
        assert res.coefs[2] > 0
        assert res.peak_dose is None

    def test_fit_quality_close_to_emax_on_concave_data(self):
        # On data drawn from a saturating dose-response curve the quadratic
        # is a sensitivity model; its log-likelihood should come close to
        # the saturating model's own maximum.
        rng = np.random.default_rng(9)
        doses = np.array(DOSES5)
        events = rng.binomial(200, predict_prob(TRUTH, doses)).astype(float)
        data = ObservationSet(doses, np.full(5, 200.0), events)
        quad = fit_quadratic_logit(data)
        emax_fit = fit_mle(data)
        assert quad.status is FitStatus.Converged

        from scipy.special import log_expit

        x = np.column_stack([np.ones_like(doses), doses, doses**2])
        lin = x @ quad.coefs
        ll_quad = float(
            np.sum(
                data.events * log_expit(lin) + (data.n - data.events) * log_expit(-lin)
            )
        )
        ll_emax = log_likelihood(emax_fit.params, data)
        assert abs(ll_quad - ll_emax) <= 0.1 * abs(ll_emax)

    def test_fails_on_separated_data(self):
        data = ObservationSet(
            np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            np.full(5, 4.0),
            np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
        )
        res = fit_quadratic_logit(data)
        assert res.status is FitStatus.FailedToEstimate
        assert res.coefs is None

    def test_requires_three_doses(self):
        data = ObservationSet(np.array([0.0, 5.0]), np.array([5.0, 5.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_quadratic_logit(data)


class TestLoadStudy:
    def _raw(self):
        return {
            "doses": [0.0, 7.5, 22.5, 75.0, 225.0],
            "n_total": 250,
            "truth": {"e0": -2.197, "emax": 3.583, "log_ed50": 2.0149030205422647},
            "n_reps": 10,
            "estimators": ["mle", "mple"],
            "seed": 1,
        }

    def test_load_from_dict(self):
        study, raw = load_study(self._raw())
        assert study.n_total == 250
        assert study.estimators == (EstimatorKind.MLE, EstimatorKind.MPLE)
        assert raw == self._raw()

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(self._raw()))
        study, _ = load_study(str(path))
        assert study.seed == 1

    def test_missing_key_named(self):
        raw = self._raw()
        del raw["n_total"]
        with pytest.raises(ValueError, match="n_total"):
            load_study(raw)

    def test_bad_estimator_named(self):
        raw = self._raw()
        raw["estimators"] = ["mle", "ridge"]
        with pytest.raises(ValueError, match="ridge"):
            load_study(raw)

    def test_bad_solver_option_named(self):
        raw = self._raw()
        raw["solver"] = {"learning_rate": 0.1}
        with pytest.raises(ValueError, match="learning_rate"):
            load_study(raw)

    def test_missing_truth_component_named(self):
        raw = self._raw()
        del raw["truth"]["emax"]
        with pytest.raises(ValueError, match="emax"):
            load_study(raw)

    def test_solver_options_applied(self):
        raw = self._raw()
        raw["solver"] = {"max_iter": 500}
        study, _ = load_study(raw)
        assert study.solver == SolverConfig(max_iter=500)

    def test_bundled_study_definition_loads(self):
        from importlib.resources import files

        src = files("emaxbr").joinpath("data/table2_n200.json")
        study, _ = load_study(json.loads(src.read_text()))
        assert study.n_reps == 1000
        assert study.truth.e0 == pytest.approx(-2.197)
