"""Three-parameter binary Emax model on the logit scale.

The response probability at dose ``d`` is ``expit(e0 + emax * d / (ed50 + d))``.
Everything here works in the log-ED50 parameterization ``phi = log(ed50)``,
which keeps ED50 positive by construction and matches the reporting scale
used throughout the package.

The module provides the model function, its derivative tensors with respect
to ``(e0, emax, phi)`` up to third order, and the standard likelihood
quantities assembled from them: log-likelihood, score, Hessian, and expected
Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, log_expit

__all__ = [
    "EmaxParams",
    "ObservationSet",
    "DerivTensors",
    "eta",
    "predict_prob",
    "deriv_tensors",
    "stacked_deriv_tensors",
    "log_likelihood",
    "score",
    "hessian",
    "expected_information",
    "log_likelihood_from",
    "score_from",
    "hessian_from",
    "information_from",
    "arm_sum",
    "SingularInformation",
    "invert_information",
]

# Reciprocal-condition cutoff for declaring an information matrix singular.
_SINGULAR_RCOND = 1e-12


class SingularInformation(np.linalg.LinAlgError):
    """Raised when an information matrix is not invertible at tolerance."""


@dataclass(frozen=True)
class EmaxParams:
    """Parameter triple ``(e0, emax, phi)`` with ``phi = log(ed50)``.

    Parameters
    ----------
    e0 : float
        Logit-scale placebo effect (linear predictor at dose 0).
    emax : float
        Logit-scale asymptotic incremental effect at infinite dose.
    phi : float
        Natural logarithm of ED50, the dose giving half of ``emax``.
    """

    e0: float
    emax: float
    phi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.e0) and np.isfinite(self.emax) and np.isfinite(self.phi)):
            raise ValueError("all parameters must be finite")

    def ed50(self) -> float:
        """Return ED50 on the dose scale (always positive; inf if phi is huge)."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.e0, self.emax, self.phi], dtype=float)

    @classmethod
    def from_array(cls, theta: np.ndarray) -> "EmaxParams":
        e0, emax, phi = (float(v) for v in np.asarray(theta, dtype=float))
        return cls(e0, emax, phi)


@dataclass(frozen=True)
class ObservationSet:
    """Binary dose-response data, stored in aggregated per-arm form.

    The canonical representation is one row per distinct dose level with a
    group size and an event count.  Subject-level records can be ingested via
    :meth:`from_subjects` and recovered via :meth:`to_subjects`; both views
    yield identical likelihood quantities.

    Parameters
    ----------
    doses : ndarray
        Sorted distinct dose levels, all nonnegative.
    n : ndarray
        Positive group size per dose level.
    events : ndarray
        Event count per dose level, each in ``[0, n]``.
    """

    doses: np.ndarray
    n: np.ndarray
    events: np.ndarray

    def __post_init__(self) -> None:
        doses = np.asarray(self.doses, dtype=float)
        n = np.asarray(self.n, dtype=float)
        events = np.asarray(self.events, dtype=float)
        if doses.ndim != 1 or doses.shape != n.shape or doses.shape != events.shape:
            raise ValueError("doses, n, events must be 1-d arrays of equal length")
        if len(np.unique(doses)) != len(doses) or np.any(np.diff(doses) <= 0):
            raise ValueError("doses must be strictly increasing distinct levels")
        if np.any(doses < 0):
            raise ValueError("doses must be nonnegative")
        if len(doses) < 2:
            raise ValueError("need at least two distinct dose levels")
        if np.any(n <= 0) or np.any(n != np.round(n)):
            raise ValueError("group sizes must be positive integers")
        if np.any(events < 0) or np.any(events > n) or np.any(events != np.round(events)):
            raise ValueError("event counts must be integers in [0, n]")
        object.__setattr__(self, "doses", doses)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "events", events)

    @classmethod
    def from_subjects(cls, dose: np.ndarray, y: np.ndarray) -> "ObservationSet":
        """Aggregate subject-level records ``(dose_i, y_i)`` into arm counts."""
        dose = np.asarray(dose, dtype=float)
        y = np.asarray(y, dtype=float)
        if dose.shape != y.shape or dose.ndim != 1:
            raise ValueError("dose and y must be 1-d arrays of equal length")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must be binary")
        levels = np.unique(dose)
        n = np.array([np.sum(dose == d) for d in levels], dtype=float)
        events = np.array([np.sum(y[dose == d]) for d in levels], dtype=float)
        return cls(levels, n, events)

    def to_subjects(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand arm counts back to subject-level ``(dose, y)`` arrays."""
        dose = np.repeat(self.doses, self.n.astype(int))
        y = np.concatenate(
            [
                np.r_[np.ones(int(e)), np.zeros(int(m) - int(e))]
                for e, m in zip(self.events, self.n)
            ]
        )
        return dose, y

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    @property
    def proportions(self) -> np.ndarray:
        return self.events / self.n

    def dmax(self) -> float:
        return float(self.doses[-1])

    def dmin_positive(self) -> float:
        pos = self.doses[self.doses > 0]
        if len(pos) == 0:
            raise ValueError("no positive dose level present")
        return float(pos[0])


@dataclass(frozen=True)
class DerivTensors:
    """Per-arm derivatives of the linear predictor and fitted probabilities.

    Attributes
    ----------
    g : ndarray, shape (M, 3)
        Gradient of eta with respect to ``(e0, emax, phi)``.
    h : ndarray, shape (M, 3, 3)
        Symmetric second-derivative matrices.
    t : ndarray, shape (M, 3, 3, 3)
        Symmetric third-derivative tensors.
    pi : ndarray, shape (M,)
        Fitted probabilities, strictly inside (0, 1) for finite parameters.
    eta : ndarray, shape (M,)
        Linear predictor values.
    """

    g: np.ndarray
    h: np.ndarray
    t: np.ndarray
    pi: np.ndarray
    eta: np.ndarray = field(repr=False)


def eta(params: EmaxParams, dose: float | np.ndarray) -> float | np.ndarray:
    """Linear predictor ``e0 + emax * dose / (ed50 + dose)``.

    Exactly ``e0`` at dose 0, approaching ``e0 + emax`` as dose grows.
    """
    dose = np.asarray(dose, dtype=float)
    # exp(phi) overflows to inf past phi ~ 709, where dose / inf = 0 is the
    # limit, and underflows to 0 below phi ~ -745, where dose 0 gives 0 / 0.
    with np.errstate(over="ignore", invalid="ignore"):
        u = dose / (np.exp(params.phi) + dose)
    out = params.e0 + params.emax * np.where(dose == 0.0, 0.0, u)
    return float(out) if out.ndim == 0 else out


def predict_prob(params: EmaxParams, dose: float | np.ndarray) -> float | np.ndarray:
    """Response probability ``expit(eta)`` at the given dose(s)."""
    out = expit(eta(params, dose))
    return float(out) if np.ndim(out) == 0 else out


def deriv_tensors(params: EmaxParams, data: ObservationSet) -> DerivTensors:
    """Analytic derivative tensors of eta in the log-ED50 parameterization.

    With ``u = d/(ed50+d)`` and ``s = ed50/(ed50+d)`` (so ``u + s = 1``), the
    nonzero slots are::

        g = (1, u, -emax*u*s)
        h[emax,phi] = -u*s          h[phi,phi] = emax*u*s*(s-u)
        t[emax,phi,phi] = u*s*(s-u)
        t[phi,phi,phi]  = emax*u*s*(4*u*s - u**2 - s**2)

    All entries are finite for finite parameters; everything vanishes at
    dose 0 except the leading 1 in ``g``.
    """
    return _tensors(params.e0, params.emax, params.phi, data.doses)


def stacked_deriv_tensors(theta: np.ndarray, doses: np.ndarray) -> DerivTensors:
    """:func:`deriv_tensors` of ``R`` points at once.

    Row ``r`` of ``theta`` (shape ``(R, 3)``) is evaluated on the doses in
    row ``r`` of ``doses`` (shape ``(R, M)``), and every field gains a
    leading axis of length ``R``.  The arithmetic is elementwise, so each
    row is bit for bit what :func:`deriv_tensors` gives that point alone.
    """
    return _tensors(theta[:, :1], theta[:, 1:2], theta[:, 2:], doses)


def _tensors(e0, emax, phi, d: np.ndarray) -> DerivTensors:
    # Far-field evaluations (|phi| huge) overflow by design; the resulting
    # non-finite entries are rejected by the solvers' line searches.
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(phi)
        u = d / (c + d)
        s = c / (c + d)
    et = e0 + emax * u
    pi = expit(et)
    g = np.zeros(u.shape + (3,))
    h = np.zeros(u.shape + (3, 3))
    t = np.zeros(u.shape + (3, 3, 3))
    g[..., 0] = 1.0
    g[..., 1] = u
    g[..., 2] = -emax * u * s
    h[..., 1, 2] = h[..., 2, 1] = -u * s
    h[..., 2, 2] = emax * u * s * (s - u)
    t[..., 1, 2, 2] = t[..., 2, 1, 2] = t[..., 2, 2, 1] = u * s * (s - u)
    t[..., 2, 2, 2] = emax * u * s * (4.0 * u * s - u**2 - s**2)
    return DerivTensors(g=g, h=h, t=t, pi=pi, eta=et)


def log_likelihood(params: EmaxParams, data: ObservationSet) -> float:
    """Bernoulli log-likelihood, evaluated stably via ``log_expit``."""
    return log_likelihood_from(deriv_tensors(params, data), data)


def score(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Score vector ``U_s = sum_i (y_i - pi_i) g_{i,s}``."""
    return score_from(deriv_tensors(params, data), data)


def hessian(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Observed-likelihood Hessian.

    ``H_{rj} = sum_i [-pi(1-pi) g_r g_j + (y - pi) h_{rj}]`` aggregated over
    arms with binomial weights.
    """
    return hessian_from(deriv_tensors(params, data), data)


def expected_information(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Expected Fisher information ``I = sum_i pi(1-pi) g_i g_i^T``.

    Positive semidefinite and independent of the observed events.
    """
    return information_from(deriv_tensors(params, data), data)


def invert_information(a: np.ndarray) -> np.ndarray:
    """Invert a symmetric information matrix, raising SingularInformation when degenerate.

    A matrix is degenerate when it has a non-finite entry or its condition
    number exceeds ``1e12``.
    """
    if not np.all(np.isfinite(a)):
        raise SingularInformation("non-finite matrix")
    if np.linalg.cond(a) > 1.0 / _SINGULAR_RCOND:
        raise SingularInformation("reciprocal condition below tolerance")
    return np.linalg.inv(a)


# The from-tensors forms below take the tensors of :func:`deriv_tensors`, so
# a caller that needs several of these quantities at one point evaluates
# ``deriv_tensors`` once; each public form above is one of them.  They also
# take the stacked tensors of :func:`stacked_deriv_tensors`, with ``data``
# any object whose ``n`` and ``events`` arrays carry the same leading axis;
# every sum then runs along one row's own arms, so each row's result does
# not depend on the other rows.

def arm_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_i weights_i x_i`` over the arm axis, the axis after the leading ones.

    ``weights`` has shape ``(..., M)`` and ``x`` shape ``(..., M, *rest)``;
    the result has shape ``(..., *rest)``.  One matrix product per leading
    index.
    """
    lead = weights.shape
    out = weights[..., None, :] @ x.reshape(lead + (-1,))
    return out.reshape(lead[:-1] + x.shape[len(lead):])


def log_likelihood_from(tens: DerivTensors, data: ObservationSet) -> float | np.ndarray:
    """:func:`log_likelihood` from the tensors at the point (one per row if stacked)."""
    out = (
        data.events * log_expit(tens.eta) + (data.n - data.events) * log_expit(-tens.eta)
    ).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def score_from(tens: DerivTensors, data: ObservationSet) -> np.ndarray:
    """:func:`score` from the tensors at the point."""
    return arm_sum(data.events - data.n * tens.pi, tens.g)


def hessian_from(tens: DerivTensors, data: ObservationSet) -> np.ndarray:
    """:func:`hessian` from the tensors at the point."""
    resid = data.events - data.n * tens.pi
    return arm_sum(resid, tens.h) - information_from(tens, data)


def information_from(tens: DerivTensors, data: ObservationSet) -> np.ndarray:
    """:func:`expected_information` from the tensors at the point."""
    w = data.n * tens.pi * (1.0 - tens.pi)
    return np.swapaxes(tens.g, -1, -2) @ (w[..., None] * tens.g)
