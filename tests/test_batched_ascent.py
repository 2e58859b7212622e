"""The replicate-batched ascent against the one-point loop it replaced.

``_scalar_ascend`` is that loop, kept here as the oracle: modified Newton on
one point with the eigenvalue floor, the step cap of 5, up to 40 Armijo
halvings and the stop on ``max|g|``.  The MLE and MPLE it drives take their
value, gradient and Hessian from the public one-point functions (the MPLE
with the pseudo-inverse point, as the solver does).  A batched fit must end
with the oracle's stop reason and, off ED50 bound hits, within 1e-8 of its
estimate; summation order differs between the two, so bits may not.

Within the package every row of a batch is computed by itself, so a
dataset's MLE and MPLE are bit for bit the same in any ``shared_work``
block, whatever else it holds and in whatever order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import expit, log_expit

from emaxbr import (
    EmaxParams,
    EstimatorKind,
    FitStatus,
    ObservationSet,
    SolverConfig,
    StatusReason,
    deriv_tensors,
    estimators,
    fit,
    fit_quadratic_logit,
    hessian,
    log_likelihood,
    penalized_loglik,
    score,
    shared_work,
    starting_values,
)
from test_estimators import _assert_same_fit
from test_start_grid import ALL_N, ALL_ZERO, SEPARATED, TWO_ARM, datasets

TOL = 1e-8
FIXED = (SEPARATED, ALL_ZERO, ALL_N, TWO_ARM)


def _scalar_ascend(theta0, value, derivs, diverged, config):
    """``(theta, iterations, reason)`` of the one-point ascent loop."""
    theta = theta0
    f, state = value(theta)
    g, hess = derivs(state)
    it = 0
    while it < config.max_iter:
        it += 1
        if not all(np.isfinite(v).all() for v in (theta, g, hess)):
            return theta, it, StatusReason.NON_FINITE
        if np.max(np.abs(g)) <= config.grad_tol:
            return theta, it, StatusReason.NONE
        if diverged(theta):
            return theta, it, StatusReason.NON_FINITE
        eigval, eigvec = np.linalg.eigh(hess)
        floor = -1e-8 * max(1.0, float(np.max(np.abs(eigval))))
        step = -eigvec @ ((eigvec.T @ g) / np.minimum(eigval, floor))
        norm = float(np.linalg.norm(step))
        if norm > 5.0:
            step *= 5.0 / norm
        lam = 1.0
        for _ in range(40):
            cand = theta + lam * step
            fc, cand_state = value(cand)
            if np.isfinite(fc) and fc > f + 1e-4 * lam * float(step @ g):
                break
            lam /= 2.0
        else:
            stalled = np.max(np.abs(g)) <= 1e-4
            return theta, it, StatusReason.NONE if stalled else StatusReason.NON_CONVERGENCE
        theta, f, state = cand, fc, cand_state
        g, hess = derivs(state)
    return theta, it, StatusReason.NON_CONVERGENCE


def _oracle_mle(data: ObservationSet, config: SolverConfig):
    def value(theta):
        return log_likelihood(EmaxParams.from_array(theta), data), EmaxParams.from_array(theta)

    def derivs(p):
        return score(p, data), hessian(p, data)

    def diverged(theta):
        return abs(theta[0]) > 20.0 or abs(theta[1]) > 20.0

    return _scalar_ascend(starting_values(data).as_array(), value, derivs, diverged, config)


def _oracle_mple(data: ObservationSet, config: SolverConfig):
    def value(theta):
        return penalized_loglik(EmaxParams.from_array(theta), data), EmaxParams.from_array(theta)

    def derivs(p):
        pt = estimators._point(deriv_tensors(p, data), data, np.linalg.pinv)
        return estimators._penalized_score_at(pt, data), estimators._penalized_jacobian_at(pt, data)

    start = starting_values(data).as_array()
    return _scalar_ascend(start, value, derivs, lambda theta: False, config)


def _oracle_quadratic_logit(data: ObservationSet, config: SolverConfig):
    scale = max(1.0, data.doses.max())
    d = data.doses / scale
    x = np.column_stack([np.ones_like(d), d, d**2])

    def value(b):
        lin = x @ b
        ll = data.events * log_expit(lin) + (data.n - data.events) * log_expit(-lin)
        return float(np.sum(ll)), b

    def derivs(b):
        pi = expit(x @ b)
        w = data.n * pi * (1.0 - pi)
        return x.T @ (data.events - data.n * pi), -(x.T @ (w[:, None] * x))

    def diverged(b):
        return np.max(np.abs(x @ b)) > 30.0

    theta, it, reason = _scalar_ascend(np.zeros(3), value, derivs, diverged, config)
    return np.array([1.0, 1.0 / scale, 1.0 / scale**2]) * theta, it, reason


_ASCENT_FAILURES = (StatusReason.NON_FINITE, StatusReason.NON_CONVERGENCE)


def _check_against_oracle(res, estimate, oracle) -> None:
    theta, _, reason = oracle
    if reason is not StatusReason.NONE:
        assert res.status is FitStatus.FailedToEstimate
        assert res.status_reason is reason
        return
    assert res.status_reason not in _ASCENT_FAILURES
    if estimate is not None and res.status_reason is not StatusReason.BOUND_HIT:
        np.testing.assert_allclose(estimate, theta, rtol=0.0, atol=TOL)


def _check_fits_against_oracle(data: ObservationSet, config: SolverConfig) -> None:
    for kind, oracle in ((EstimatorKind.MLE, _oracle_mle), (EstimatorKind.MPLE, _oracle_mple)):
        res = fit(kind, data, config)
        est = None if res.params is None else res.params.as_array()
        _check_against_oracle(res, est, oracle(data, config))
    if len(data.doses) >= 3:
        res = fit_quadratic_logit(data, config)
        _check_against_oracle(res, res.coefs, _oracle_quadratic_logit(data, config))


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_fits_match_the_scalar_loop(data):
    _check_fits_against_oracle(data, SolverConfig())


def test_fixed_datasets_match_the_scalar_loop():
    for data in FIXED:
        _check_fits_against_oracle(data, SolverConfig())


@given(st.lists(datasets(), min_size=1, max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_batched_fits_equal_lone_fits(drawn, random):
    pool = [*drawn, *FIXED]
    kinds = (EstimatorKind.MLE, EstimatorKind.MPLE)
    lone = {(id(d), k): fit(k, d) for d in pool for k in kinds}
    by_arms: dict[int, list[ObservationSet]] = {}
    for d in pool:
        by_arms.setdefault(len(d.doses), []).append(d)
    for group in by_arms.values():
        shuffled = random.sample(group, len(group))
        subset = random.sample(group, random.randint(1, len(group)))
        for block in (group, shuffled, subset):
            with shared_work(block):
                for d in block:
                    for kind in kinds:
                        _assert_same_fit(fit(kind, d), lone[(id(d), kind)])
