from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm

from emaxbr import (
    EmaxParams,
    EstimatorKind,
    InvalidLevel,
    ObservationSet,
    PointFitFailed,
    TooManyFailures,
    bootstrap_bands,
    covariance,
    expected_information,
    fit,
    fit_mle,
    predict_prob,
    wald_ci,
)


def _simulate(truth, doses, n_per_arm, seed):
    doses = np.asarray(doses, dtype=float)
    pi = predict_prob(truth, doses)
    rng = np.random.default_rng(seed)
    events = rng.binomial(n_per_arm, pi).astype(float)
    return ObservationSet(doses, np.full(len(doses), float(n_per_arm)), events)


TRUTH = EmaxParams(-2.197, 3.583, np.log(7.5))
DOSES5 = (0.0, 7.5, 22.5, 75.0, 225.0)

SEPARATED = ObservationSet(
    np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
    np.full(5, 4.0),
    np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
)


class TestWaldCI:
    def test_worked_example(self):
        ci = wald_ci(0.480, 1.856, 0.95)
        assert ci.lower == pytest.approx(-3.159, abs=2e-3)
        assert ci.upper == pytest.approx(4.119, abs=2e-3)

    def test_half_width_at_level_half(self):
        ci = wald_ci(0.0, 2.0, 0.5)
        assert ci.upper == pytest.approx(0.67448975 * 2.0, rel=1e-6)
        assert ci.lower == pytest.approx(-ci.upper, rel=1e-12)

    def test_symmetric_about_estimate(self):
        ci = wald_ci(1.3, 0.4)
        assert ci.upper - ci.estimate == pytest.approx(ci.estimate - ci.lower)
        assert ci.width == pytest.approx(ci.upper - ci.lower)

    def test_width_grows_with_level(self):
        w = [wald_ci(0.0, 1.0, lv).width for lv in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_level(self, level):
        with pytest.raises(InvalidLevel):
            wald_ci(0.0, 1.0, level)

    def test_invalid_se(self):
        with pytest.raises(ValueError):
            wald_ci(0.0, 0.0)

    @given(st.floats(1e-6, 1.0 - 1e-6, exclude_max=True))
    def test_quantile_is_the_normal_ppf(self, level):
        z = norm.ppf(0.5 + level / 2.0)
        ci = wald_ci(0.0, 1.0, level)
        assert (ci.lower, ci.upper) == (float(-z), float(z))


class TestCovariance:
    def test_matches_fit_result(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        for kind in EstimatorKind:
            res = fit(kind, d)
            # The bias-corrected estimator reports uncertainty at the
            # uncorrected maximum, so evaluate there.
            at = res.base_mle if kind is EstimatorKind.CoxSnell else res.params
            np.testing.assert_allclose(
                covariance(kind, at, d), res.covariance, rtol=1e-10
            )

    def test_shrinks_with_replication(self):
        # Four-fold replication should shrink the covariance by roughly 1/4.
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        d4 = ObservationSet(d.doses, 4.0 * d.n, 4.0 * d.events)
        p = fit_mle(d).params
        c1 = covariance(EstimatorKind.MLE, p, d)
        c4 = covariance(EstimatorKind.MLE, p, d4)
        np.testing.assert_allclose(np.diag(c4), np.diag(c1) / 4.0, rtol=0.1)

    def test_mle_close_to_inverse_information_on_large_sample(self):
        d = _simulate(TRUTH, DOSES5, 4000, seed=11)
        p = fit_mle(d).params
        np.testing.assert_allclose(
            covariance(EstimatorKind.MLE, p, d),
            np.linalg.inv(expected_information(p, d)),
            rtol=0.15,
        )

    def test_symmetric_positive_definite(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        for kind in EstimatorKind:
            c = covariance(kind, fit(kind, d).params, d)
            np.testing.assert_allclose(c, c.T, rtol=1e-10)
            assert np.all(np.linalg.eigvalsh(c) > 0)


@pytest.fixture(scope="module")
def data():
    return _simulate(TRUTH, DOSES5, 200, seed=5)


class TestBootstrapBands:
    def test_deterministic_given_seed(self, data):
        a = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, seed=42)
        b = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, seed=42)
        for x, y in zip(a, b):
            assert x == y

    def test_different_seeds_differ(self, data):
        a = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, seed=1)
        b = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, seed=2)
        assert any(x.lower != y.lower or x.upper != y.upper for x, y in zip(a, b))

    def test_bands_contain_point_estimate(self, data):
        for band in bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, seed=7):
            assert band.lower <= band.point <= band.upper
            assert 0.0 <= band.lower <= band.upper <= 1.0

    def test_levels_nest(self, data):
        wide = bootstrap_bands(
            data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=9, level=0.95
        )
        narrow = bootstrap_bands(
            data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=9, level=0.5
        )
        for w, n in zip(wide, narrow):
            assert w.lower <= n.lower and n.upper <= w.upper

    def test_single_replicate_smoke_mode(self, data):
        bands = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=1, seed=0)
        assert len(bands) == len(DOSES5)
        for band in bands:
            assert band.n_boot == 1

    @pytest.mark.parametrize("n_boot", [0, 2, 50, 99])
    def test_rejects_undersized_boot(self, data, n_boot):
        with pytest.raises(ValueError):
            bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=n_boot)

    def test_rejects_bad_level(self, data):
        with pytest.raises(InvalidLevel):
            bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=100, level=1.0)

    def test_too_many_failures_on_separated_data_with_mle(self):
        # The MLE cannot be estimated on completely separated data, so the
        # point fit (and essentially every refit) fails.
        with pytest.raises(TooManyFailures):
            bootstrap_bands(SEPARATED, EstimatorKind.MLE, (0.0, 4.0), n_boot=100)

    def test_failed_point_fit_is_named_in_the_error(self):
        with pytest.raises(PointFitFailed) as info:
            bootstrap_bands(SEPARATED, EstimatorKind.MLE, (0.0, 4.0), n_boot=100)
        assert isinstance(info.value, TooManyFailures)
        assert info.value.n_failed == 0
        assert info.value.n_boot == 100
        message = str(info.value)
        assert message.startswith("point fit of the mle estimator failed to estimate (")
        assert "no bootstrap refits were run" in message
        assert "100 of 100" not in message

    def test_malformed_thread_count_runs_serially(self, data, monkeypatch):
        serial = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=3)
        monkeypatch.setenv("EMAXBR_THREADS", "abc")
        assert bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=3) == serial

    def test_mple_succeeds_on_separated_data(self):
        bands = bootstrap_bands(SEPARATED, EstimatorKind.MPLE, (0.0, 4.0), n_boot=100)
        assert len(bands) == 2

    def test_parallel_matches_serial(self, data, monkeypatch):
        serial = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=3)
        monkeypatch.setenv("EMAXBR_THREADS", "4")
        parallel = bootstrap_bands(data, EstimatorKind.MPLE, DOSES5, n_boot=200, seed=3)
        for a, b in zip(serial, parallel):
            assert a == b
