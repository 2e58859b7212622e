"""Covariance matrices, Wald intervals, and bootstrap probability bands.

Wald intervals use the exact standard-normal quantile.  Bootstrap bands
resample subjects with replacement within each dose arm (arm sizes are part
of the trial design and stay fixed), refit the chosen estimator per
replicate, and take percentile bands of the fitted response probability at
the requested doses.  Replicate streams are keyed by ``(seed, r)``, so the
bands are deterministic regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from ._pool import map_chunks
from .estimators import (
    EstimatorKind,
    FitStatus,
    SingularInformation,
    SolverConfig,
    StatusReason,
    fit,
    penalized_hessian,
    shared_work,
)
from .model import EmaxParams, ObservationSet, hessian, invert_information, predict_prob

__all__ = [
    "WaldInterval",
    "BootstrapBand",
    "InvalidLevel",
    "TooManyFailures",
    "PointFitFailed",
    "covariance",
    "wald_ci",
    "bootstrap_bands",
]


class InvalidLevel(ValueError):
    """Raised when a confidence level is outside the open interval (0, 1)."""


class TooManyFailures(RuntimeError):
    """Raised when over half of the bootstrap refits fail to estimate."""

    def __init__(self, n_failed: int, n_boot: int):
        self.n_failed = n_failed
        self.n_boot = n_boot
        super().__init__(
            f"{n_failed} of {n_boot} bootstrap refits failed to estimate; "
            "bands withheld"
        )


class PointFitFailed(TooManyFailures):
    """Raised when the point fit on the original data fails; no refit runs."""

    def __init__(self, kind: EstimatorKind, reason: StatusReason, n_boot: int):
        self.kind = kind
        self.reason = reason
        self.n_failed = 0
        self.n_boot = n_boot
        RuntimeError.__init__(
            self,
            f"point fit of the {kind.value} estimator failed to estimate "
            f"({reason.value}); no bootstrap refits were run, bands withheld",
        )


@dataclass(frozen=True)
class WaldInterval:
    """Symmetric normal-approximation interval for one parameter."""

    estimate: float
    std_err: float
    lower: float
    upper: float
    level: float = 0.95

    def __post_init__(self) -> None:
        if self.std_err <= 0:
            raise ValueError("std_err must be positive")
        if not self.lower < self.upper:
            raise ValueError("interval must have positive width")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BootstrapBand:
    """Percentile band for the response probability at one dose."""

    dose: float
    point: float
    lower: float
    upper: float
    n_boot: int
    seed: int

    def __post_init__(self) -> None:
        if self.dose < 0:
            raise ValueError("dose must be nonnegative")
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError("band bounds must satisfy 0 <= lower <= upper <= 1")


def covariance(kind: EstimatorKind, params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Estimator-appropriate 3x3 covariance at the supplied parameter point.

    MLE, Cox-Snell, and Firth use the inverse negative log-likelihood
    Hessian.  The MPLE uses the inverse of the observed information of the
    penalized log-likelihood, the negative of the exact
    :func:`~emaxbr.estimators.penalized_hessian`.

    Raises
    ------
    SingularInformation
        If the relevant information matrix is not invertible.
    """
    if kind is EstimatorKind.MPLE:
        return invert_information(-penalized_hessian(params, data))
    return invert_information(-hessian(params, data))


def wald_ci(estimate: float, se: float, level: float = 0.95) -> WaldInterval:
    """Normal-approximation interval ``estimate ± z_{alpha/2} * se``."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    if se <= 0:
        raise ValueError("se must be positive")
    z = ndtri(0.5 + level / 2.0)  # the standard-normal quantile
    return WaldInterval(
        estimate=float(estimate),
        std_err=float(se),
        lower=float(estimate - z * se),
        upper=float(estimate + z * se),
        level=float(level),
    )


def _resample(data: ObservationSet, rng: np.random.Generator) -> ObservationSet:
    """Arm-stratified resample: per arm, redraw events as Binomial(n, p̂_arm).

    Resampling ``n`` subjects with replacement within an arm of observed
    event proportion ``p̂`` makes the resampled event count exactly
    Binomial(n, p̂), so the arm totals are drawn directly.
    """
    events = rng.binomial(data.n.astype(int), data.proportions)
    return ObservationSet(data.doses, data.n, events.astype(float))


def _boot_chunk(data, kind, doses, seed, config, reps) -> list[np.ndarray | None]:
    """Fitted probabilities of refits ``reps`` (None where a refit fails).

    The resamples are refitted inside one shared-work block, which solves
    their start grids in one batch.
    """
    samples = [_resample(data, np.random.default_rng([seed, r])) for r in reps]
    out = []
    with shared_work(samples, config):
        for sample in samples:
            res = fit(kind, sample, config)
            if res.status is FitStatus.FailedToEstimate or res.params is None:
                out.append(None)
            else:
                out.append(np.asarray(predict_prob(res.params, doses)))
    return out


def bootstrap_bands(
    data: ObservationSet,
    kind: EstimatorKind,
    doses,
    n_boot: int = 5000,
    seed: int = 0,
    config: SolverConfig = SolverConfig(),
    level: float = 0.95,
) -> list[BootstrapBand]:
    """Percentile bootstrap bands of the fitted probability at each dose.

    Failed refits are dropped and counted; if more than half fail the bands
    are withheld via :class:`TooManyFailures`.  A failed point fit raises
    its subclass :class:`PointFitFailed` before any refit runs.  Replicate
    ``r`` draws from the stream keyed by ``(seed, r)``; results are
    collected into a fixed order before the percentiles, so any execution
    schedule yields identical bands.

    The point fit is one :func:`~emaxbr.estimators.fit` call; made inside
    a :func:`~emaxbr.estimators.shared_work` block that holds ``data``, it
    reuses the block's fit.  The refits are cut into contiguous chunks of
    at most 64, and into at least one chunk per worker.  A chunk draws its
    resamples and refits each one with a single ``fit`` call inside one
    ``shared_work`` block, which solves their start grids in one batch; the
    fits are those of a refit-by-refit loop.  Chunks fan out over
    ``EMAXBR_THREADS`` processes from 200 refits on, and run serially below.
    """
    if n_boot < 100 and n_boot != 1:
        raise ValueError("n_boot must be at least 100 (or exactly 1 for smoke use)")
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    doses = np.asarray(list(doses), dtype=float)
    point_fit = fit(kind, data, config)
    if point_fit.params is None:
        raise PointFitFailed(kind, point_fit.status_reason, n_boot)
    point = np.asarray(predict_prob(point_fit.params, doses))

    chunk = partial(_boot_chunk, data, kind, doses, seed, config)
    parts = map_chunks(chunk, range(n_boot), serial=n_boot < 200)

    kept = [r for part in parts for r in part if r is not None]
    n_failed = n_boot - len(kept)
    if n_failed > 0.5 * n_boot:
        raise TooManyFailures(n_failed, n_boot)
    draws = np.vstack(kept)
    alpha = (1.0 - level) / 2.0
    lo = np.percentile(draws, 100.0 * alpha, axis=0)
    hi = np.percentile(draws, 100.0 * (1.0 - alpha), axis=0)
    return [
        BootstrapBand(
            dose=float(d),
            point=float(p),
            lower=float(min(l, p)),
            upper=float(max(u, p)),
            n_boot=n_boot,
            seed=seed,
        )
        for d, p, l, u in zip(doses, point, lo, hi)
    ]
