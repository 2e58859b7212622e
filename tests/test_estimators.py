from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

from emaxbr import (
    EmaxParams,
    EstimatorKind,
    FitStatus,
    ObservationSet,
    SolverConfig,
    StatusReason,
    cox_snell_bias,
    cumulant_bundle,
    batch_starting_values,
    deriv_tensors,
    expected_information,
    firth_modified_score,
    fit,
    fit_all,
    fit_cox_snell,
    fit_firth,
    fit_mle,
    fit_mple,
    fit_quadratic_logit,
    hessian,
    invert_information,
    log_likelihood,
    penalized_hessian,
    penalized_loglik,
    penalized_score,
    predict_prob,
    score,
    shared_work,
    starting_values,
)

from emaxbr import estimators
from conftest import random_dataset, random_params, well_conditioned_point
from test_cumulants import _richardson_slice, _second_order_from
from test_start_grid import ALL_N, ALL_ZERO, SEPARATED, datasets


def _simulate(truth: EmaxParams, doses, n_per_arm: int, seed: int) -> ObservationSet:
    doses = np.asarray(doses, dtype=float)
    pi = predict_prob(truth, doses)
    rng = np.random.default_rng(seed)
    events = rng.binomial(n_per_arm, pi).astype(float)
    return ObservationSet(doses, np.full(len(doses), float(n_per_arm)), events)


TRUTH = EmaxParams(-2.197, 3.583, np.log(7.5))
DOSES5 = (0.0, 7.5, 22.5, 75.0, 225.0)


class TestSolverConfig:
    def test_defaults(self):
        c = SolverConfig()
        assert c.grad_tol == 1e-6
        assert c.max_iter == 2000
        assert c.ed50_upper_mult == 10.0
        assert c.ed50_lower_mult == 0.02
        assert c.rel_se_threshold == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": 0.0},
            {"max_iter": 0},
            {"ed50_upper_mult": -1.0},
            {"rel_se_threshold": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStartingValues:
    def test_intercept_start_is_adjusted_logit_of_lowest_arm(self):
        d = ObservationSet(
            np.array([0.0, 10.0, 40.0]), np.array([10.0] * 3), np.array([0.0, 3.0, 8.0])
        )
        start = starting_values(d)
        # The grid search may move e0 during the two-parameter refit, but
        # for all-zero lowest arm the profile keeps a strongly negative e0.
        assert start.e0 < 0
        assert np.isfinite(start.as_array()).all()

    def test_start_likelihood_beats_naive_center(self, rng):
        for _ in range(10):
            d = random_dataset(rng)
            start = starting_values(d)
            naive = EmaxParams(0.0, 0.0, np.log(d.dmax()))
            assert log_likelihood(start, d) >= log_likelihood(naive, d) - 1e-9

    def test_deterministic(self, rng):
        d = random_dataset(rng)
        a = starting_values(d).as_array()
        b = starting_values(d).as_array()
        np.testing.assert_array_equal(a, b)


class TestFitMLE:
    def test_recovers_truth_on_large_sample(self):
        d = _simulate(TRUTH, DOSES5, 4000, seed=11)
        res = fit_mle(d)
        assert res.status is FitStatus.Converged
        np.testing.assert_allclose(res.params.as_array(), TRUTH.as_array(), atol=0.2)

    def test_score_vanishes_at_optimum(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        res = fit_mle(d)
        assert res.status is FitStatus.Converged
        assert np.max(np.abs(score(res.params, d))) < 1e-4

    def test_loglik_not_improvable_locally(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        res = fit_mle(d)
        base = log_likelihood(res.params, d)
        rng = np.random.default_rng(0)
        for _ in range(40):
            pert = res.params.as_array() + rng.normal(scale=1e-3, size=3)
            assert log_likelihood(EmaxParams.from_array(pert), d) <= base + 1e-9

    def test_fails_on_complete_separation(self):
        d = ObservationSet(
            np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            np.full(5, 4.0),
            np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
        )
        res = fit_mle(d)
        assert res.status is FitStatus.FailedToEstimate
        assert res.params is None

    def test_covariance_positive_definite_when_converged(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        res = fit_mle(d)
        assert np.all(np.linalg.eigvalsh(res.covariance) > 0)
        np.testing.assert_allclose(
            res.std_errors, np.sqrt(np.diag(res.covariance)), rtol=1e-12
        )


class TestCoxSnell:
    def test_bias_shrinks_with_replication(self, rng):
        # First-order bias is O(1/n): quadrupling every arm divides it by 4.
        for _ in range(10):
            p = random_params(rng)
            d = random_dataset(rng)
            d4 = ObservationSet(d.doses, 4.0 * d.n, 4.0 * d.events)
            np.testing.assert_allclose(
                cox_snell_bias(p, d4), cox_snell_bias(p, d) / 4.0, rtol=1e-10
            )

    def test_bias_matches_explicit_contraction(self, rng):
        p = random_params(rng)
        d = random_dataset(rng)
        inv = np.linalg.inv(expected_information(p, d))
        b = cumulant_bundle(p, d)
        target = np.zeros(3)
        for s in range(3):
            for r in range(3):
                for j in range(3):
                    for l in range(3):
                        target[s] += (
                            inv[s, r] * inv[j, l] * (0.5 * b.k3[r, j, l] + b.k2_1[r, j, l])
                        )
        np.testing.assert_allclose(cox_snell_bias(p, d), target, rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bias_is_minus_inverse_information_times_firth_adjustment(self, seed):
        # Firth (1993): the modified score's adjustment A gives b = -I^{-1} A.
        p, d = well_conditioned_point(seed)
        adjustment = firth_modified_score(p, d) - score(p, d)
        target = -np.linalg.inv(expected_information(p, d)) @ adjustment
        np.testing.assert_allclose(cox_snell_bias(p, d), target, rtol=1e-8, atol=1e-12)

    def test_corrected_estimate_is_mle_minus_bias(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        mle = fit_mle(d)
        cs = fit_cox_snell(d)
        assert cs.base_mle == mle.params
        np.testing.assert_allclose(
            cs.params.as_array(),
            mle.params.as_array() - cox_snell_bias(mle.params, d),
            rtol=1e-10,
        )

    def test_inherits_mle_covariance(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        np.testing.assert_array_equal(fit_cox_snell(d).covariance, fit_mle(d).covariance)

    def test_propagates_mle_failure(self):
        d = ObservationSet(
            np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            np.full(5, 4.0),
            np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
        )
        res = fit_cox_snell(d)
        assert res.status is FitStatus.FailedToEstimate
        assert res.kind is EstimatorKind.CoxSnell


class TestFirth:
    def test_modified_score_vanishes_at_root(self):
        d = _simulate(TRUTH, DOSES5, 40, seed=3)
        res = fit_firth(d)
        assert res.status is FitStatus.Converged
        assert np.max(np.abs(firth_modified_score(res.params, d))) < 1e-5

    def test_finite_on_separated_data(self):
        d = ObservationSet(
            np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            np.full(5, 4.0),
            np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
        )
        res = fit_firth(d)
        assert res.params is not None
        assert np.isfinite(res.params.as_array()).all()

    def test_large_ed50_plateau_root_is_pooled_intercept_fit(self):
        # When the root escapes to huge ED50, the model degenerates to an
        # intercept-only fit whose bias-reduced solution is the pooled
        # half-corrected empirical logit with zero slope.
        d = ObservationSet(
            np.array([0.0, 1.27, 2.54, 5.08, 10.15]),
            np.array([9.0, 6.0, 7.0, 8.0, 5.0]),
            np.array([0.0, 0.0, 7.0, 8.0, 5.0]),
        )
        res = fit_firth(d)
        assert res.status is FitStatus.Unstable
        assert res.status_reason is StatusReason.BOUND_HIT
        pooled = np.log((d.events.sum() + 0.5) / (d.n.sum() - d.events.sum() + 0.5))
        assert res.params.e0 == pytest.approx(pooled, abs=1e-4)
        assert res.params.emax == pytest.approx(0.0, abs=1e-4)

    def test_deterministic(self):
        d = _simulate(TRUTH, DOSES5, 10, seed=17)
        a = fit_firth(d)
        b = fit_firth(d)
        assert a.status == b.status
        np.testing.assert_array_equal(a.params.as_array(), b.params.as_array())


class TestMPLE:
    def test_penalized_score_is_gradient_of_penalized_loglik(self, rng):
        for _ in range(20):
            p = random_params(rng)
            d = random_dataset(rng)
            g = penalized_score(p, d)
            theta = p.as_array()
            fd = np.zeros(3)
            for i in range(3):
                h = 1e-6 * max(1.0, abs(theta[i]))
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    penalized_loglik(EmaxParams.from_array(up), d)
                    - penalized_loglik(EmaxParams.from_array(dn), d)
                ) / (2.0 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-5)

    def test_penalty_equals_half_logdet_information(self, rng):
        p = random_params(rng)
        d = random_dataset(rng)
        _, logdet = np.linalg.slogdet(expected_information(p, d))
        assert penalized_loglik(p, d) == pytest.approx(
            log_likelihood(p, d) + 0.5 * logdet, rel=1e-12
        )

    def test_gradient_vanishes_at_optimum(self):
        d = _simulate(TRUTH, DOSES5, 40, seed=3)
        res = fit_mple(d)
        assert res.status is FitStatus.Converged
        assert np.max(np.abs(penalized_score(res.params, d))) < 1e-4

    def test_optimum_is_local_max(self):
        d = _simulate(TRUTH, DOSES5, 40, seed=3)
        res = fit_mple(d)
        base = penalized_loglik(res.params, d)
        rng = np.random.default_rng(1)
        for _ in range(40):
            pert = res.params.as_array() + rng.normal(scale=1e-3, size=3)
            assert penalized_loglik(EmaxParams.from_array(pert), d) <= base + 1e-9

    def test_converges_on_separated_data(self):
        d = ObservationSet(
            np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            np.full(5, 4.0),
            np.array([0.0, 0.0, 4.0, 4.0, 4.0]),
        )
        res = fit_mple(d)
        assert res.status is FitStatus.Converged
        probs = predict_prob(res.params, d.doses)
        assert np.all((probs > 0) & (probs < 1))

    def test_handles_zero_event_control_arm(self):
        # A one-sided event pattern creates a curved ridge in the penalized
        # surface; the ascent must still terminate quickly.
        d = ObservationSet(
            np.array(DOSES5),
            np.full(5, 40.0),
            np.array([0.0, 9.0, 25.0, 26.0, 31.0]),
        )
        res = fit_mple(d)
        assert res.status is FitStatus.Converged
        assert res.iterations <= 40


def _fd_jacobian(func, params: EmaxParams) -> np.ndarray:
    """``J[s, t] = d func_s / d theta_t`` by fourth-order differences."""
    return np.stack([_richardson_slice(func, params, t) for t in range(3)], axis=-1)


def _firth_jacobian(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    pt = estimators._point(deriv_tensors(params, data), data, invert_information)
    return estimators._modified_jacobian_at(pt, data)


def _tensor_jacobians(params: EmaxParams, data: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """Penalized and modified-score Jacobians in tensor form (Kosmidis & Firth 2009).

    Both scores are ``U_s + 0.5 tr(I^{-1} adj_s)``, with ``adj = dI`` for the
    MPLE and ``adj = P + kappa_{rj,l}`` for Firth, so
    ``J[s,t] = H_st + 0.5 [sum I^{-1}_jr d_adj[r,j,s,t] - tr(I^{-1} dI_t I^{-1} adj_s)]``.
    """
    inv = np.linalg.inv(expected_information(params, data))
    b = cumulant_bundle(params, data)
    d2I, dB = _second_order_from(deriv_tensors(params, data), data)
    inv_di = np.einsum("ab,bct->act", inv, b.dI)

    def jacobian(adj: np.ndarray, d_adj: np.ndarray) -> np.ndarray:
        inv_adj = np.einsum("ab,bcs->acs", inv, adj)
        return hessian(params, data) + 0.5 * (
            np.einsum("jr,rjst->st", inv, d_adj) - np.einsum("abt,bas->st", inv_di, inv_adj)
        )

    return jacobian(b.dI, d2I), jacobian(b.p + b.k2_1, dB)


class TestJacobians:
    """The exact Jacobians the MPLE ascent and the Firth root use."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_penalized_hessian_is_jacobian_of_penalized_score(self, seed):
        p, d = well_conditioned_point(seed)
        fd = _fd_jacobian(lambda q: penalized_score(q, d), p)
        np.testing.assert_allclose(penalized_hessian(p, d), fd, rtol=1e-6, atol=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_firth_jacobian_is_jacobian_of_modified_score(self, seed):
        p, d = well_conditioned_point(seed)
        fd = _fd_jacobian(lambda q: firth_modified_score(q, d), p)
        np.testing.assert_allclose(_firth_jacobian(p, d), fd, rtol=1e-6, atol=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_per_arm_jacobians_match_tensor_form(self, seed):
        p, d = well_conditioned_point(seed)
        penalized, modified = _tensor_jacobians(p, d)
        np.testing.assert_allclose(penalized_hessian(p, d), penalized, rtol=1e-10)
        np.testing.assert_allclose(_firth_jacobian(p, d), modified, rtol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_penalized_hessian_is_symmetric(self, seed):
        jac = penalized_hessian(*well_conditioned_point(seed))
        np.testing.assert_allclose(jac, jac.T, rtol=1e-10, atol=1e-10 * np.max(np.abs(jac)))


class TestClassification:
    def test_bound_hit_reported_as_unstable(self):
        d = ObservationSet(
            np.array([0.0, 1.27, 2.54, 5.08, 10.15]),
            np.array([9.0, 6.0, 7.0, 8.0, 5.0]),
            np.array([0.0, 0.0, 7.0, 8.0, 5.0]),
        )
        res = fit_firth(d)
        assert res.status is FitStatus.Unstable
        assert res.status_reason is StatusReason.BOUND_HIT
        ed50 = res.params.ed50()
        assert ed50 > 10.0 * d.dmax() or ed50 < 0.02 * d.dmin_positive()

    def test_relative_se_threshold_drives_instability(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        strict = SolverConfig(rel_se_threshold=1e-3)
        res = fit_mle(d, strict)
        assert res.status is FitStatus.Unstable
        assert res.status_reason is StatusReason.RELATIVE_SE_EXCEEDED

    def test_converged_results_carry_everything(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        for kind in EstimatorKind:
            res = fit(kind, d)
            assert res.status is FitStatus.Converged
            assert res.params is not None
            assert res.covariance is not None
            assert res.std_errors is not None
            assert res.status_reason is StatusReason.NONE

    def test_dispatch_matches_direct_calls(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        direct = {
            EstimatorKind.MLE: fit_mle,
            EstimatorKind.CoxSnell: fit_cox_snell,
            EstimatorKind.Firth: fit_firth,
            EstimatorKind.MPLE: fit_mple,
        }
        for kind, fn in direct.items():
            np.testing.assert_array_equal(
                fit(kind, d).params.as_array(), fn(d).params.as_array()
            )


def _assert_same_fit(a, b) -> None:
    assert (a.kind, a.status, a.status_reason, a.iterations) == (
        b.kind,
        b.status,
        b.status_reason,
        b.iterations,
    )
    assert a.params == b.params
    assert a.base_mle == b.base_mle
    for x, y in ((a.covariance, b.covariance), (a.std_errors, b.std_errors)):
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)


def _quadratic(center: np.ndarray, curv: np.ndarray):
    """``value``, ``derivs`` and ``diverged`` of ``-0.5 (x - center)' curv (x - center)``."""

    def value(x):
        r = x - center
        return -0.5 * float(r @ curv @ r)

    def derivs(x):
        return -curv @ (x - center), -curv

    return value, derivs, _never


def _never(theta):
    return False


def _indefinite():
    """``f = -(x^2 - 1)^2 - y^2 - z^2``, with positive curvature in x near x = 0."""

    def value(p):
        return -((p[0] ** 2 - 1.0) ** 2) - p[1] ** 2 - p[2] ** 2

    def derivs(p):
        g = np.array([-4.0 * p[0] * (p[0] ** 2 - 1.0), -2.0 * p[1], -2.0 * p[2]])
        return g, np.diag([4.0 - 12.0 * p[0] ** 2, -2.0, -2.0])

    return value, derivs, _never


def _unbounded():
    return (
        lambda p: float(p.sum()),
        lambda p: (np.ones(3), np.zeros((3, 3))),
        lambda p: np.max(np.abs(p)) > 50.0,
    )


def _nan_derivs(bad: str):
    value, derivs, _ = _quadratic(np.ones(3), np.eye(3))

    def nan_derivs(x):
        g, h = derivs(x)
        return (np.full(3, np.nan), h) if bad == "gradient" else (g, np.full((3, 3), np.nan))

    return value, nan_derivs, _never


def _ascend_rows(objectives, starts, config):
    """``_ascend`` on a stack of rows, row ``r`` maximizing ``objectives[r]``.

    Each objective is a ``(value, derivs, diverged)`` triple of one point.
    """
    def value(theta, idx):
        return np.array([objectives[r][0](x) for r, x in zip(idx, theta)])

    def derivs(theta, idx):
        pairs = [objectives[r][1](x) for r, x in zip(idx, theta)]
        return np.array([g for g, _ in pairs]), np.array([h for _, h in pairs])

    def diverged(theta, idx):
        return np.array([objectives[r][2](x) for r, x in zip(idx, theta)], dtype=bool)

    return estimators._ascend(np.array(starts, dtype=float), value, derivs, diverged, config)


def _ascend_one(objective, start, config=SolverConfig()):
    run = _ascend_rows([objective], [start], config)
    return run.theta[0], run.hessian[0], int(run.iterations[0]), run.reasons[0]


class TestAscend:
    def test_concave_quadratic_converges(self):
        center = np.array([1.0, -2.0, 0.5])
        curv = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        theta, _, iterations, reason = _ascend_one(_quadratic(center, curv), np.zeros(3))
        assert reason is StatusReason.NONE
        np.testing.assert_allclose(theta, center, atol=1e-10)
        assert iterations == 2  # one Newton step, then the gradient test

    def test_indefinite_start_still_ascends(self):
        objective = _indefinite()
        start = np.array([0.1, 1.0, 0.0])
        assert np.linalg.eigvalsh(objective[1](start)[1]).max() > 0
        theta, _, _, reason = _ascend_one(objective, start)
        assert reason is StatusReason.NONE
        np.testing.assert_allclose(theta, [1.0, 0.0, 0.0], atol=1e-6)

    def test_unbounded_objective_ends_non_finite_through_diverged(self):
        theta, _, _, reason = _ascend_one(_unbounded(), np.zeros(3))
        assert reason is StatusReason.NON_FINITE
        assert np.max(np.abs(theta)) > 50.0

    @pytest.mark.parametrize("bad", ["gradient", "hessian"])
    def test_nan_derivatives_are_non_finite(self, bad):
        _, _, _, reason = _ascend_one(_nan_derivs(bad), np.zeros(3))
        assert reason is StatusReason.NON_FINITE

    def test_iteration_cap_is_non_convergence(self):
        objective = _quadratic(np.full(3, 100.0), np.eye(3))
        _, _, iterations, reason = _ascend_one(objective, np.zeros(3), SolverConfig(max_iter=1))
        assert reason is StatusReason.NON_CONVERGENCE
        assert iterations == 1

    def test_each_row_of_a_mixed_batch_ends_as_it_does_alone(self):
        curv = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        cases = [
            (_quadratic(np.array([1.0, -2.0, 0.5]), curv), [0.0, 0.0, 0.0], StatusReason.NONE),
            (_indefinite(), [0.1, 1.0, 0.0], StatusReason.NONE),
            (_unbounded(), [0.0, 0.0, 1.0], StatusReason.NON_FINITE),
            (_nan_derivs("gradient"), [0.0, 1.0, 0.0], StatusReason.NON_FINITE),
            (_nan_derivs("hessian"), [1.0, 0.0, 0.0], StatusReason.NON_FINITE),
            # About 350 capped steps from the start: cut by the iteration cap.
            (
                _quadratic(np.full(3, 1000.0), np.eye(3)),
                [0.0, 0.0, 2.0],
                StatusReason.NON_CONVERGENCE,
            ),
        ]
        config = SolverConfig(max_iter=100)
        run = _ascend_rows([c[0] for c in cases], [c[1] for c in cases], config)
        assert run.reasons == [c[2] for c in cases]
        assert run.iterations[-1] == 100
        for r, (objective, start, _) in enumerate(cases):
            theta, hess, iterations, reason = _ascend_one(objective, start, config)
            np.testing.assert_array_equal(run.theta[r], theta)
            np.testing.assert_array_equal(run.hessian[r], hess)
            assert (run.iterations[r], run.reasons[r]) == (iterations, reason)


def _quadratic_logit_score(res, data: ObservationSet) -> np.ndarray:
    """The quadratic-logit score on the dose scale the fit ascends on."""
    d = data.doses / max(1.0, data.doses.max())
    x = np.column_stack([np.ones_like(d), d, d**2])
    lin = np.column_stack([np.ones_like(d), data.doses, data.doses**2]) @ res.coefs
    return x.T @ (data.events - data.n * expit(lin))


@given(datasets())
@example(SEPARATED)
@example(ALL_ZERO)
@example(ALL_N)
@settings(max_examples=60, deadline=None)
def test_ascent_results_solve_their_estimating_equation(data):
    fits = [
        (fit_mle(data), lambda r: score(r.params, data)),
        (fit_mple(data), lambda r: penalized_score(r.params, data)),
    ]
    if len(data.doses) >= 3:
        fits.append((fit_quadratic_logit(data), lambda r: _quadratic_logit_score(r, data)))
    for res, equation in fits:
        if res.status is FitStatus.Converged:
            assert np.max(np.abs(equation(res))) <= 1e-4
        elif res.status is FitStatus.FailedToEstimate:
            assert getattr(res, "params", None) is None and getattr(res, "coefs", None) is None
            assert res.covariance is None


class TestFitAll:
    @given(datasets())
    @example(SEPARATED)
    @example(ALL_ZERO)
    @example(ALL_N)
    @settings(max_examples=30, deadline=None)
    def test_each_result_equals_a_standalone_fit(self, data):
        # A short iteration cap keeps Firth's multi-start search brief on the
        # degenerate arms; the results must agree under any configuration.
        config = SolverConfig(max_iter=100)
        kinds = list(EstimatorKind)
        for kind, shared in zip(kinds, fit_all(data, kinds, config)):
            _assert_same_fit(shared, fit(kind, data, config))

    def test_failure_paths_are_covered(self):
        # MLE and Cox-Snell fail on separated data while the MPLE (Firth's
        # lead start) still converges; the shared results must carry that.
        mle, cs, _, mple = fit_all(SEPARATED, list(EstimatorKind))
        assert mle.status is FitStatus.FailedToEstimate
        assert cs.status is FitStatus.FailedToEstimate
        assert mple.params is not None

    def test_order_and_duplicates_follow_kinds(self):
        d = _simulate(TRUTH, DOSES5, 200, seed=5)
        kinds = [EstimatorKind.MPLE, EstimatorKind.Firth, EstimatorKind.MPLE]
        results = fit_all(d, kinds)
        assert [r.kind for r in results] == kinds
        _assert_same_fit(results[0], results[2])

    def test_shared_work_runs_once(self, monkeypatch):
        calls = {"start": 0, "batch": 0, "mle": 0, "mple": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(estimators, "starting_values", counting("start", starting_values))
        monkeypatch.setattr(
            estimators, "batch_starting_values", counting("batch", batch_starting_values)
        )
        monkeypatch.setattr(estimators, "_solve_mle", counting("mle", estimators._solve_mle))
        monkeypatch.setattr(estimators, "_solve_mple", counting("mple", estimators._solve_mple))
        d = _simulate(TRUTH, DOSES5, 50, seed=5)
        fit_all(d, list(EstimatorKind))
        assert calls == {"start": 0, "batch": 1, "mle": 1, "mple": 1}

        batch = [_simulate(TRUTH, DOSES5, 50, seed=s) for s in range(3)]
        with shared_work(batch):
            for data in batch:
                for kind in EstimatorKind:
                    fit(kind, data)
        # One batched MLE and one batched MPLE solve for the whole block.
        assert calls == {"start": 0, "batch": 2, "mle": 2, "mple": 2}

    def test_memo_ends_with_the_call(self):
        d = _simulate(TRUTH, DOSES5, 50, seed=5)
        with shared_work([d]):
            assert estimators._ACTIVE_WORK.get() is not None
        assert estimators._ACTIVE_WORK.get() is None
        fit_all(d, [EstimatorKind.MLE])
        assert estimators._ACTIVE_WORK.get() is None
        with pytest.raises(KeyError):
            fit_all(d, [EstimatorKind.MLE, "not-a-kind"])
        assert estimators._ACTIVE_WORK.get() is None


# A short iteration cap keeps Firth's multi-start search brief on degenerate
# arms; shared and standalone fits must agree under any configuration.
_SHORT = SolverConfig(max_iter=100)


@st.composite
def equal_arm_batches(draw) -> list[ObservationSet]:
    """1-20 drawn datasets of one arm count, plus the fixed degenerate ones of that count."""
    m = draw(st.integers(2, 6))
    drawn = draw(st.lists(datasets(arms=m), min_size=1, max_size=20))
    return drawn + [d for d in (SEPARATED, ALL_ZERO, ALL_N) if len(d.doses) == m]


class TestSharedWork:
    @given(equal_arm_batches(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_every_fit_in_a_batch_block_equals_a_standalone_fit(self, batch, random):
        alone = {(id(d), k): fit(k, d, _SHORT) for d in batch for k in EstimatorKind}
        for order in (batch, random.sample(batch, len(batch))):
            with shared_work(order, _SHORT):
                for d in order:
                    for kind in EstimatorKind:
                        _assert_same_fit(fit(kind, d, _SHORT), alone[(id(d), kind)])

    def test_other_datasets_and_configs_get_a_fresh_memo(self, monkeypatch):
        inside = _simulate(TRUTH, DOSES5, 50, seed=5)
        outside = _simulate(TRUTH, DOSES5, 50, seed=6)
        twin = ObservationSet(inside.doses, inside.n, inside.events)
        other = SolverConfig(max_iter=300)
        cases = [(outside, _SHORT), (twin, _SHORT), (inside, other)]
        alone = [[fit(k, d, c) for k in EstimatorKind] for d, c in cases]
        fresh = []
        monkeypatch.setattr(
            estimators, "starting_values", lambda d: fresh.append(d) or starting_values(d)
        )
        with shared_work([inside], _SHORT):
            for i, kind in enumerate(EstimatorKind):
                fit(kind, inside, _SHORT)
                for (d, c), results in zip(cases, alone):
                    _assert_same_fit(fit(kind, d, c), results[i])
        # Every fit but those of the block's own memo starts a fresh memo.
        assert len(fresh) == 3 * len(EstimatorKind)
        assert sum(d is inside for d in fresh) == len(EstimatorKind)

    def test_unequal_arm_counts_raise_on_entry(self):
        with pytest.raises(ValueError, match="arm counts"):
            with shared_work([SEPARATED, ALL_ZERO]):
                pytest.fail("the block body ran")
        assert estimators._ACTIVE_WORK.get() is None
