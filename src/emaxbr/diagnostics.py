"""Data and fit diagnostics: separation, sample shape, and stability.

Separation detection exploits the single-covariate structure of the model:
the linear predictor is monotone in dose for a fixed sign of the slope, so
a scan over dose thresholds (in both directions) is an exact test.

Shape classification follows secant slopes of the observed arm proportions
anchored at the lowest dose: with three arms, the sample curve is concave
increasing when the proportions increase and the near secant is steeper
than the far one, convex increasing when the near secant is shallower, and
non-monotone otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult, FitStatus, SolverConfig, instability_rules
from .model import ObservationSet

__all__ = [
    "Separation",
    "Shape",
    "DiagnosticReport",
    "InsufficientArms",
    "detect_separation",
    "classify_shape",
    "stability_report",
]


class Separation(enum.Enum):
    NONE = "None"
    Quasi = "Quasi"
    Complete = "Complete"


class Shape(enum.Enum):
    ConcaveIncreasing = "ConcaveIncreasing"
    ConvexIncreasing = "ConvexIncreasing"
    NonMonotone = "NonMonotone"
    Flat = "Flat"


class InsufficientArms(ValueError):
    """Raised when shape classification is requested with fewer than 3 arms."""


@dataclass(frozen=True)
class DiagnosticReport:
    """Separation, shape, per-arm summary, and human-readable warnings."""

    separation: Separation
    shape: Shape | None
    per_arm: tuple[tuple[float, int, int, float], ...]
    flags: tuple[str, ...] = field(default_factory=tuple)


def detect_separation(data: ObservationSet) -> Separation:
    """Classify separation by an exact threshold scan over dose cuts.

    Complete: some cut splits the subjects into all-nonevents on one side
    and all-events on the other (either direction).  Quasi: a cut perfectly
    predicts on one side while the boundary arm is tied (mixed); this
    includes any single arm that is all-events or all-nonevents while other
    arms are mixed.  None otherwise.  Invariant to subject permutation by
    construction (only arm totals enter).
    """
    n, ev = data.n, data.events
    m = len(n)
    all0 = ev == 0
    all1 = ev == n
    if np.all(all0) or np.all(all1):
        # Degenerate constant outcome: every cut predicts perfectly.
        return Separation.Complete
    for direction_ev, direction_non in ((all1, all0), (all0, all1)):
        # Cut after arm k: arms <= k all non-events, arms > k all events
        # (and the mirrored direction).
        for k in range(m - 1):
            if np.all(direction_non[: k + 1]) and np.all(direction_ev[k + 1 :]):
                return Separation.Complete
    if np.any(all0) or np.any(all1):
        # Some arm is perfectly predicted while the full split fails only
        # through ties on mixed arms: quasi-complete separation.
        return Separation.Quasi
    return Separation.NONE


def classify_shape(data: ObservationSet) -> Shape:
    """Classify the observed dose-response sample curve.

    Three arms, proportions ``(p1, p2, p3)`` at doses ``(D1, D2, D3)`` with
    secants ``m1 = (p2-p1)/(D2-D1)`` and ``m2 = (p3-p1)/(D3-D1)``:

    * ConcaveIncreasing when ``p1 < p2 < p3`` and ``m1 > m2``;
    * ConvexIncreasing when ``m1 < m2``;
    * NonMonotone otherwise (the increasing-concave conjunction fails
      without the convex alternative holding).

    With more than three arms: NonMonotone if the proportions are not
    nondecreasing; otherwise concave/convex by the sign pattern of
    consecutive differences of secant slopes anchored at the lowest dose.
    A near-constant profile (range below ``1/sqrt(total n)``) is Flat.
    Invariant to rescaling all doses by a positive constant.
    """
    if len(data.doses) < 3:
        raise InsufficientArms("shape classification requires at least 3 arms")
    p = data.proportions
    d = data.doses
    if len(d) == 3:
        m1 = (p[1] - p[0]) / (d[1] - d[0])
        m2 = (p[2] - p[0]) / (d[2] - d[0])
        if p[0] < p[1] < p[2] and m1 > m2:
            return Shape.ConcaveIncreasing
        if m1 < m2:
            return Shape.ConvexIncreasing
        return Shape.NonMonotone
    if p.max() - p.min() < 1.0 / np.sqrt(data.n_total):
        return Shape.Flat
    if np.any(np.diff(p) < 0):
        return Shape.NonMonotone
    secants = (p[1:] - p[0]) / (d[1:] - d[0])
    diffs = np.diff(secants)
    if np.all(diffs <= 0):
        return Shape.ConcaveIncreasing
    if np.all(diffs >= 0):
        return Shape.ConvexIncreasing
    return Shape.NonMonotone


def stability_report(
    fit: FitResult, data: ObservationSet, config: SolverConfig = SolverConfig()
) -> DiagnosticReport:
    """Re-evaluate the instability rules on a fit and attach data context.

    Rules: (i) the ED50 estimate escapes the plausible dose window
    (``> upper_mult * D_max`` or ``< lower_mult * D_min_pos``); (ii) a
    standard error is undefined (non-positive-definite covariance) or a
    relative standard error exceeds the threshold.  The rules are the ones
    the estimators classify with, so a fit the estimator marked Unstable is
    flagged here for the same reason.
    """
    if fit.params is None:
        raise ValueError("stability_report requires a fit that carries params")
    flags = [text for _, text in instability_rules(fit.params, fit.std_errors, data, config)]
    if fit.status is FitStatus.Unstable and not flags:
        flags.append(f"estimator flagged instability: {fit.status_reason.value}")
    try:
        shape = classify_shape(data)
    except InsufficientArms:
        shape = None
        flags.append("fewer than 3 arms: shape not classified")
    per_arm = tuple(
        (float(d), int(n), int(e), float(e / n))
        for d, n, e in zip(data.doses, data.n, data.events)
    )
    return DiagnosticReport(
        separation=detect_separation(data),
        shape=shape,
        per_arm=per_arm,
        flags=tuple(flags),
    )
