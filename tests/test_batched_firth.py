"""The replicate-batched Firth root search against the one-dataset loop it replaced.

``_scalar_firth`` is that loop, kept here as the oracle: Levenberg-Marquardt
on one dataset from each start in turn (the MPLE, the grid start, two
closed-form boundary limits, five ED50 displacements of the MPLE), each start
with the budget ``max(50, max_iter - iterations so far)``.  It evaluates the
modified score with the one-point tensors and a lone ``pinv``.  A batched
Firth fit must end with the oracle's stop reason and iteration total and,
off ED50 bound hits, within 1e-8 of its root.  The Cox-Snell fit must be
the MLE minus :func:`cox_snell_bias` there.

Within the package every row of a batch is computed by itself, so a
dataset's Firth and Cox-Snell fits are bit for bit the same in any
``shared_work`` block, whatever else it holds and in whatever order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emaxbr import (
    EmaxParams,
    EstimatorKind,
    FitStatus,
    ObservationSet,
    SimStudy,
    SolverConfig,
    StatusReason,
    cox_snell_bias,
    deriv_tensors,
    estimators,
    fit,
    generate_dataset,
    shared_work,
    starting_values,
)
from test_estimators import _assert_same_fit
from test_start_grid import ALL_N, ALL_ZERO, SEPARATED, TWO_ARM, datasets

TOL = 1e-8
DOSES5 = np.array([0.0, 7.5, 22.5, 75.0, 225.0])
# Five arms without an event: the root search runs through several starts.
ALL_ZERO5 = ObservationSet(DOSES5, np.full(5, 40.0), np.zeros(5))
FIXED = (SEPARATED, ALL_ZERO, ALL_N, TWO_ARM, ALL_ZERO5)


def _firth_point(theta, data):
    if not np.all(np.isfinite(theta)):
        return np.full(3, np.nan), None
    try:
        pt = estimators._point(
            deriv_tensors(EmaxParams.from_array(theta), data), data, np.linalg.pinv
        )
    except np.linalg.LinAlgError:
        return np.full(3, np.nan), None
    return estimators._modified_score_at(pt, data), pt


def _lm_root(data, theta0, max_iter, grad_tol):
    """``(theta, point, iterations, converged)`` of one start's damped search."""
    theta = theta0.copy()
    fx, pt = _firth_point(theta, data)
    if not np.all(np.isfinite(fx)):
        return theta, pt, 0, False
    norm = float(np.linalg.norm(fx))
    mu = 0.0
    it = 0
    while it < max_iter:
        it += 1
        if np.max(np.abs(fx)) <= grad_tol:
            return theta, pt, it, True
        jac = estimators._modified_jacobian_at(pt, data)
        for _ in range(40):
            try:
                step = np.linalg.solve(jac.T @ jac + mu * np.eye(3), -jac.T @ fx)
            except np.linalg.LinAlgError:
                mu = max(mu * 10.0, 1e-8)
                continue
            cand = theta + np.clip(step, -2.0, 2.0)
            fc, cand_pt = _firth_point(cand, data)
            if np.all(np.isfinite(fc)) and np.linalg.norm(fc) < norm:
                break
            mu = max(mu * 10.0, 1e-8)
        else:
            return theta, pt, it, False
        mu /= 3.0
        theta, fx, pt, norm = cand, fc, cand_pt, float(np.linalg.norm(fc))
    return theta, pt, max_iter, False


def _adjusted_logit(k, n):
    return float(np.log((k + 0.5) / (n - k + 0.5)))


def _firth_starts(data, lead, grid):
    d2, dmax = data.dmin_positive(), data.dmax()
    pos = data.doses > 0
    e0_pool = _adjusted_logit(data.events.sum(), data.n.sum())
    e0_ctl = _adjusted_logit(data.events[~pos].sum(), data.n[~pos].sum())
    e_trt = _adjusted_logit(data.events[pos].sum(), data.n[pos].sum())
    starts = [
        lead,
        grid,
        np.array([e0_pool, 0.0, np.log(dmax) + 20.0]),
        np.array([e0_ctl, e_trt - e0_ctl, np.log(d2) - 20.0]),
    ]
    for phi in np.linspace(np.log(0.1 * d2), np.log(5.0 * dmax), 5):
        alt = lead.copy()
        alt[2] = phi
        starts.append(alt)
    return starts


def _scalar_firth(data, config):
    """``(theta, iterations, converged, starts used)`` of the one-dataset search."""
    grid = starting_values(data).as_array()
    mple = fit(EstimatorKind.MPLE, data, config)
    lead = grid if mple.params is None else mple.params.as_array()
    total = 0
    for k, theta0 in enumerate(_firth_starts(data, lead, grid)):
        budget = max(50, config.max_iter - total)
        theta, _, it, ok = _lm_root(data, theta0, budget, config.grad_tol)
        total += it
        if ok:
            return theta, total, True, k + 1
    return None, total, False, k + 1


def _check_against_oracle(data, config=SolverConfig()):
    res = fit(EstimatorKind.Firth, data, config)
    theta, iterations, converged, used = _scalar_firth(data, config)
    assert res.iterations == iterations
    if not converged:
        assert res.status is FitStatus.FailedToEstimate
        assert res.status_reason is StatusReason.NON_CONVERGENCE
    else:
        assert res.status is not FitStatus.FailedToEstimate
        if res.status_reason is not StatusReason.BOUND_HIT:
            np.testing.assert_allclose(res.params.as_array(), theta, rtol=0.0, atol=TOL)

    mle, cs = fit(EstimatorKind.MLE, data, config), fit(EstimatorKind.CoxSnell, data, config)
    if mle.params is None:
        assert (cs.status, cs.status_reason) == (mle.status, mle.status_reason)
    elif cs.params is not None and cs.status_reason is not StatusReason.BOUND_HIT:
        try:
            want = mle.params.as_array() - cox_snell_bias(mle.params, data)
        except np.linalg.LinAlgError:
            return used
        np.testing.assert_allclose(cs.params.as_array(), want, rtol=1e-10, atol=TOL)
        assert cs.base_mle == mle.params
    return used


@given(datasets())
@settings(max_examples=30, deadline=None)
def test_fits_match_the_scalar_loop(data):
    _check_against_oracle(data)


@pytest.mark.parametrize("data", FIXED, ids=["separated", "all-zero", "all-n", "two-arm", "zero5"])
def test_fixed_datasets_match_the_scalar_loop(data):
    _check_against_oracle(data)


def test_start_hand_off_while_other_rows_iterate():
    # Fast main-truth rows converge from the MPLE in a few iterations while the
    # all-zero row fails start after start; each fit is still its lone fit.
    study = SimStudy(
        doses=tuple(DOSES5),
        n_total=200,
        truth=EmaxParams(-2.197, 3.583, np.log(7.5)),
        n_reps=1,
        estimators=(EstimatorKind.Firth,),
        seed=41,
    )
    fast = [generate_dataset(study, r) for r in range(12)]
    assert _check_against_oracle(ALL_ZERO5) > 2
    lone = {id(d): fit(EstimatorKind.Firth, d) for d in [*fast, ALL_ZERO5]}
    assert lone[id(ALL_ZERO5)].iterations > 5 * max(lone[id(d)].iterations for d in fast)
    block = [*fast[:6], ALL_ZERO5, *fast[6:]]
    with shared_work(block):
        for d in block:
            _assert_same_fit(fit(EstimatorKind.Firth, d), lone[id(d)])


@given(st.lists(datasets(), min_size=1, max_size=8), st.randoms(use_true_random=False))
@settings(max_examples=6, deadline=None)
def test_batched_fits_equal_lone_fits(drawn, random):
    pool = [*drawn, *FIXED]
    kinds = (EstimatorKind.CoxSnell, EstimatorKind.Firth)
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


def _singular_stack(rng, n_rows, bad):
    a = rng.normal(size=(n_rows, 3, 3))
    a[bad[0]] = 0.0
    a[bad[1]] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    a[bad[2], 0, 0] = np.nan
    return a, rng.normal(size=(n_rows, 3, 1))


@pytest.mark.parametrize("name", ["solve", "inv", "pinv"])
def test_rowwise_equals_per_row_calls(name):
    rng = np.random.default_rng(5)
    n_rows, bad = 200, [7, 100, 193]
    a, b = _singular_stack(rng, n_rows, bad)
    func = getattr(np.linalg, name)
    args = (a, b) if name == "solve" else (a,)
    got, raised = estimators._rowwise(func, *args)
    for r in range(n_rows):
        try:
            want = func(*(x[r : r + 1] for x in args))[0]
        except np.linalg.LinAlgError:
            assert raised[r]
            assert np.isnan(got[r]).all()
            continue
        assert not raised[r]
        np.testing.assert_array_equal(got[r], want)
    assert raised.any()
