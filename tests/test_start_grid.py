"""The batched start grid against the per-grid-point loop it replaced.

``_scalar_grid`` is that loop, kept here as the oracle: for each of the 21
log-ED50 grid points it runs damped two-parameter IRLS on the covariate
``dose / (ED50 + dose)`` and records why the point stopped.  The batch
makes the same BLAS and LAPACK calls per grid point and matches the loop
bit for bit with the reference NumPy build; the tests ask for 1e-6.

The grids of many datasets batch the same way: a dataset's start from
``batch_starting_values`` must be bit for bit its lone ``starting_values``,
whatever the rest of the batch holds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit, log_expit

from emaxbr import (
    EmaxParams,
    ObservationSet,
    batch_starting_values,
    log_likelihood,
    starting_values,
)
from emaxbr.estimators import _grid_batch, _rowwise

TOL = 1e-6
# Grid points whose profiled log-likelihoods lie this close are near-ties:
# which of them wins is decided by rounding, in the oracle as in the batch.
TIE = 1e-4


def _scalar_grid(data: ObservationSet):
    """Per-point ``(phi, e0, emax)``, log-likelihood and stop reason of the old loop."""
    d = data.doses
    e0_0 = float(np.log((data.events[0] + 0.5) / (data.n[0] - data.events[0] + 0.5)))
    points, lls, reasons = [], [], []
    for phi in np.linspace(np.log(0.1 * data.dmin_positive()), np.log(5.0 * data.dmax()), 21):
        u = d / (np.exp(phi) + d)
        x = np.column_stack([np.ones_like(u), u])
        ab = np.array([e0_0, 0.0])

        def ll2(coefs: np.ndarray) -> float:
            lin = x @ coefs
            return float(
                np.sum(data.events * log_expit(lin) + (data.n - data.events) * log_expit(-lin))
            )

        f2 = ll2(ab)
        reason = "iteration cap"
        for _ in range(25):
            pi = expit(x @ ab)
            wt = data.n * pi * (1.0 - pi)
            grad2 = x.T @ (data.events - data.n * pi)
            hess2 = x.T @ (wt[:, None] * x)
            try:
                step = np.linalg.solve(hess2, grad2)
            except np.linalg.LinAlgError:
                reason = "singular"
                break
            lam = 1.0
            for _ in range(20):
                cand = ab + lam * step
                fc = ll2(cand)
                if np.isfinite(fc) and fc >= f2:
                    ab, f2 = cand, fc
                    break
                lam /= 2.0
            else:
                reason = "line search failed"
                break
            if np.max(np.abs(lam * step)) < 1e-8:
                reason = "small step"
                break
        a, b = np.clip(ab, -20.0, 20.0)
        points.append((a, b, phi))
        lls.append(log_likelihood(EmaxParams(a, b, phi), data))
        reasons.append(reason)
    return np.array(points), np.array(lls), reasons


def _check_against_oracle(data: ObservationSet) -> list[str]:
    points, lls, reasons = _scalar_grid(data)
    phi, _, ab, _, _ = _grid_batch([data])
    phi = phi[0]
    np.testing.assert_array_equal(phi, points[:, 2])
    np.testing.assert_allclose(ab, points[:, :2], rtol=0.0, atol=TOL)

    start = starting_values(data).as_array()
    best = int(np.argmax(lls))
    near = np.flatnonzero(lls >= lls[best] - TIE)
    if len(near) == 1:
        np.testing.assert_allclose(start, points[best], rtol=0.0, atol=TOL)
    else:
        won = int(np.flatnonzero(phi == start[2])[0])
        assert won in near
        np.testing.assert_allclose(start, points[won], rtol=0.0, atol=TOL)
    return reasons


@st.composite
def datasets(draw, arms: int | None = None) -> ObservationSet:
    """2-6 arms (or ``arms``); events free, separated either way, all zero, or all ``n``."""
    m = draw(st.integers(2, 6)) if arms is None else arms
    positive = draw(st.lists(st.integers(1, 300), min_size=m - 1, max_size=m - 1, unique=True))
    doses = np.r_[0.0, np.sort(positive)].astype(float)
    n = np.array(draw(st.lists(st.integers(1, 60), min_size=m, max_size=m)), dtype=float)
    pattern = draw(st.sampled_from(["free", "rising", "falling", "zero", "full"]))
    if pattern == "free":
        events = np.array([draw(st.integers(0, int(k))) for k in n], dtype=float)
    elif pattern in ("rising", "falling"):
        cut = draw(st.integers(1, m - 1))
        low = np.arange(m) < cut
        events = np.where(low if pattern == "falling" else ~low, n, 0.0)
    else:
        events = np.zeros(m) if pattern == "zero" else n.copy()
    return ObservationSet(doses, n, events)


SEPARATED = ObservationSet(
    np.array([0.0, 1.0, 2.0, 4.0, 8.0]), np.full(5, 4.0), np.array([0.0, 0.0, 4.0, 4.0, 4.0])
)
ALL_ZERO = ObservationSet(np.array([0.0, 10.0, 40.0]), np.full(3, 10.0), np.zeros(3))
ALL_N = ObservationSet(np.array([0.0, 10.0, 40.0]), np.full(3, 10.0), np.full(3, 10.0))
TWO_ARM = ObservationSet(np.array([0.0, 50.0]), np.array([20.0, 20.0]), np.array([3.0, 11.0]))
SINGULAR = ObservationSet(np.array([0.0, 10.0, 40.0]), np.full(3, 10.0), np.array([0.0, 10.0, 10.0]))
LINE_SEARCH = ObservationSet(
    np.array([0.0, 20.0, 50.0]), np.array([3.0, 4.0, 3.0]), np.array([3.0, 0.0, 1.0])
)


@pytest.mark.parametrize(
    "data, reason", [(SINGULAR, "singular"), (LINE_SEARCH, "line search failed")]
)
def test_examples_reach_each_stop_rule(data, reason):
    assert reason in _check_against_oracle(data)


@given(datasets())
@example(SINGULAR)
@example(LINE_SEARCH)
@settings(max_examples=150, deadline=None)
def test_batched_grid_matches_scalar_loop(data):
    _check_against_oracle(data)


# Flat profiles (2 arms, all-zero or all-n arms) tie every grid point to the
# last bits, so their start shows any change in summation order.
FIXED = (SEPARATED, ALL_ZERO, ALL_N, TWO_ARM, SINGULAR, LINE_SEARCH)


@given(st.lists(datasets(), min_size=1, max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_batched_start_equals_lone_start(drawn, random):
    pool = [*drawn, *FIXED]
    lone = {id(d): starting_values(d) for d in pool}
    by_arms: dict[int, list[ObservationSet]] = {}
    for d in pool:
        by_arms.setdefault(len(d.doses), []).append(d)
    for group in by_arms.values():
        shuffled = random.sample(group, len(group))
        subset = random.sample(group, random.randint(1, len(group)))
        for batch in (group, shuffled, subset):
            starts = batch_starting_values(batch)
            assert len(starts) == len(batch)
            for d, start in zip(batch, starts):
                assert start == lone[id(d)]


def test_batch_needs_equal_arm_counts():
    with pytest.raises(ValueError, match="arm counts"):
        batch_starting_values([SEPARATED, ALL_ZERO])
    assert batch_starting_values([]) == []


def test_solve_rows_bisects_around_singular_systems(monkeypatch):
    rng = np.random.default_rng(0)
    n_rows = 1000
    h = rng.normal(size=(n_rows, 2, 2))
    g = rng.normal(size=(n_rows, 2))
    singular = [3, 500, 997]
    h[singular] = [[1.0, 2.0], [2.0, 4.0]]
    h[500] = 0.0
    want = np.full(g.shape, np.nan)
    for k in range(n_rows):
        try:
            want[k] = np.linalg.solve(h[k], g[k])
        except np.linalg.LinAlgError:
            assert k in singular

    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    got, raised = _rowwise(np.linalg.solve, h, g[:, :, None])
    got = got[:, :, 0]
    np.testing.assert_array_equal(got, want)
    assert np.isnan(got[singular]).all()
    assert raised.nonzero()[0].tolist() == singular
    # Each singular row fails one stack per bisection level, and each failed
    # stack costs two more calls.
    assert len(calls) <= 1 + 2 * len(singular) * math.ceil(math.log2(n_rows))
    calls.clear()
    _rowwise(np.linalg.solve, np.delete(h, singular, axis=0), np.delete(g, singular, axis=0)[:, :, None])
    assert calls == [n_rows - len(singular)]
