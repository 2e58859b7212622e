from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume
from scipy.special import expit
from scipy.stats import binom

from emaxbr import EmaxParams, ObservationSet, expected_information


def random_params(rng: np.random.Generator) -> EmaxParams:
    """A well-conditioned random parameter point for derivative oracles."""
    return EmaxParams(
        e0=float(rng.uniform(-3.0, 3.0)),
        emax=float(rng.uniform(-4.0, 4.0)),
        phi=float(rng.uniform(np.log(1.0), np.log(100.0))),
    )


def random_dataset(rng: np.random.Generator, n_arms: int | None = None) -> ObservationSet:
    """A random multi-arm dataset with mixed (non-degenerate) outcomes."""
    m = n_arms or int(rng.integers(3, 7))
    doses = np.sort(rng.uniform(1.0, 300.0, size=m - 1))
    doses = np.r_[0.0, doses]
    n = rng.integers(10, 60, size=m).astype(float)
    events = np.array([rng.integers(1, int(k)) for k in n], dtype=float)
    return ObservationSet(doses, n, events)


def well_conditioned_point(seed: int, max_cond: float = 1e4) -> tuple[EmaxParams, ObservationSet]:
    """A random parameter point and dataset whose expected information is well conditioned.

    The derivative oracles compare analytic Jacobians with a Richardson
    difference at a fixed step h = 1e-3, whose truncation error grows with
    the condition number of the information; they draw points with
    ``cond(I) < max_cond`` so that error stays below their tolerance.
    """
    rng = np.random.default_rng(seed)
    params, data = random_params(rng), random_dataset(rng)
    assume(np.linalg.cond(expected_information(params, data)) < max_cond)
    return params, data


def enumerate_outcomes(data: ObservationSet, params: EmaxParams):
    """Yield (probability, ObservationSet) over every possible event vector.

    Exact expectation support for small designs: the outcome distribution is
    a product of per-arm binomials at the model probabilities.
    """
    doses = data.doses
    pis = expit(params.e0 + params.emax * doses / (np.exp(params.phi) + doses))
    ranges = [range(int(k) + 1) for k in data.n]
    for combo in itertools.product(*ranges):
        prob = 1.0
        for k, n_i, pi in zip(combo, data.n, pis):
            prob *= binom.pmf(k, int(n_i), pi)
        yield prob, ObservationSet(doses, data.n, np.array(combo, dtype=float))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260824)


@pytest.fixture(scope="session")
def turandot() -> ObservationSet:
    return ObservationSet(
        np.array([0.0, 7.5, 22.5, 75.0, 225.0]),
        np.array([67.0, 63.0, 71.0, 68.0, 64.0]),
        np.array([2.0, 8.0, 12.0, 11.0, 4.0]),
    )
