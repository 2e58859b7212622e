"""The four fitting procedures for the binary Emax model.

* ``fit_mle``       — ascent on the log-likelihood.
* ``fit_cox_snell`` — analytic first-order bias subtraction after the MLE.
* ``fit_firth``     — root-finding on the modified score equations (which
  are not the gradient of any objective, so the solve is a globalized
  Levenberg-Marquardt root-finder rather than an ascent).
* ``fit_mple``      — ascent on the penalized log-likelihood whose penalty
  is half the log-determinant of the expected information.

All four share deterministic starting values, iteration control via
:class:`SolverConfig`, and a common convergence / instability taxonomy.

One ascent core
---------------
The MLE, the MPLE and the quadratic-logit sensitivity fit
(:func:`fit_quadratic_logit`) maximize an objective through one
modified-Newton core, :func:`_ascend`, which runs many objectives side by
side: row ``r`` of its stack is one dataset's ascent.  The Hessian's
eigenvalues are floored just below zero so every step ascends, the step
norm is capped, an Armijo line search halves the step, and the ascent stops
on the max-abs gradient; each rule applies per row, with per-row masks for
the rows still ascending and still searching a line.  Each objective
supplies its stacked value, gradient and Hessian (from
:func:`~emaxbr.model.stacked_deriv_tensors`, the per-arm quantities below,
and stacked ``pinv``, ``slogdet`` and ``eigh``) and its own test for
running off to infinity; the MPLE has none, because the Jeffreys penalty
keeps its maximizer finite.  The quadratic-logit fit is a stack of one.

Every operation acts row by row: stacked matrix products and LAPACK calls,
and sums along a row's own arms.  A row's result therefore does not depend
on the rest of the stack, so a dataset's fit is bit for bit the same in any
batch, in any order.

Shared per-dataset work
-----------------------
The estimators overlap: Cox-Snell corrects the MLE, Firth's root search
leads with the MPLE, and every solver starts from :func:`starting_values`.
Each fit draws on a per-dataset memo that holds the start point and, once
solved, one fit per estimator.  A fit made outside a :func:`shared_work`
block gets a fresh memo, a block of one.  ``shared_work(datasets)`` solves
the start grids of all its datasets in one batch and keeps one memo per
dataset until the block ends.  The first request for an estimator on any
dataset of the block solves that estimator for every dataset of the block
in one batch and fills every memo: the MLE and the MPLE in one batched
ascent, Firth in one stacked root search (:func:`_lm_root`), Cox-Snell in
one stacked bias step at the block's MLEs, and the instability taxonomy is
applied to all of a batch's estimates in one pass.  A repeated request
returns the memo's fit.  Each estimator still passes through one
:func:`fit` call, and every result is the one a lone ``fit`` call returns.
:func:`fit_all`, the study harness, the bootstrap and the command line all
fit through such blocks.

The start grid is solved as one batch, and so are the grids of many
datasets: :func:`batch_starting_values` stacks ``R x 21`` rows, each with
its own arm sizes, events and covariate, and runs their two-parameter
logistic fits side by side, each row with its own step halving and
stopping rules.  Every operation acts row by row, with the BLAS and LAPACK
calls of the per-point loop that the batch replaced, so each start is bit
for bit the one its dataset gets alone (:func:`starting_values` is the
one-dataset case).  The estimating equations evaluate the derivative
tensors once per call and derive the score, the information and the
per-arm quantities below from them.

Per-arm estimating equations
----------------------------
Firth's modified score, the Jeffreys-penalized score and the Cox-Snell bias
are one adjustment seen three ways, each a sum over dose arms of
``a_i = I^{-1} g_i``, the leverage ``lev_i = g_i' a_i`` and
``trh_i = tr(I^{-1} h_i)`` (Firth 1993, Biometrika 80:27; Kosmidis & Firth
2009, Biometrika 96:793); see :class:`_Point`.  The exact Jacobians
differentiate those per-arm scalars, with
``dI^{-1}/dtheta_t = -I^{-1} dI_t I^{-1}``, so no second-order cumulant
tensor is formed.  The solvers do not use :mod:`emaxbr.cumulants`, which
stays the public reference API for the cumulant tensors.  The MPLE ascent
takes its curvature, and its covariance, from the exact penalized Hessian;
the Firth root-finder takes each accepted point's residual and Jacobian
from one tensor pass.

One root search
---------------
Firth's modified score admits no objective, so its solve is a multi-start
Levenberg-Marquardt root search, :func:`_lm_root`, which like the ascent
runs many datasets side by side: each row keeps its own damping, its own
iteration budget and its own place in its start list, moving on to its next
start within the same run, and start lists past the first two starts are
built only for the rows that reach them.  Stacked LAPACK calls that can
raise for one row (the damped solve, ``inv``, ``pinv``) go through
:func:`_rowwise`, which gives such a row its lone outcome while the rest of
the stack still makes one call.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit, log_expit

from .model import (
    DerivTensors,
    EmaxParams,
    ObservationSet,
    SingularInformation,
    arm_sum,
    deriv_tensors,
    hessian_from,
    information_from,
    invert_information,
    log_likelihood_from,
    score_from,
    stacked_deriv_tensors,
)

__all__ = [
    "EstimatorKind",
    "SolverConfig",
    "FitStatus",
    "StatusReason",
    "FitResult",
    "instability_rules",
    "starting_values",
    "batch_starting_values",
    "fit_mle",
    "cox_snell_bias",
    "fit_cox_snell",
    "firth_modified_score",
    "fit_firth",
    "penalized_loglik",
    "penalized_score",
    "penalized_hessian",
    "fit_mple",
    "QuadraticLogitFit",
    "fit_quadratic_logit",
    "fit",
    "fit_all",
    "shared_work",
    "SingularInformation",
]

# Logit-scale magnitude beyond which iterates are treated as numerically
# divergent: fitted arm probabilities are within ~2e-9 of 0/1 there, so the
# likelihood surface carries no usable information.
_DIVERGENCE_BOUND = 20.0


class EstimatorKind(enum.Enum):
    MLE = "mle"
    CoxSnell = "coxsnell"
    Firth = "firth"
    MPLE = "mple"


class FitStatus(enum.Enum):
    Converged = "Converged"
    Unstable = "Unstable"
    FailedToEstimate = "FailedToEstimate"


class StatusReason(enum.Enum):
    NONE = "ok"
    NON_CONVERGENCE = "non-convergence"
    NON_FINITE = "non-finite drift"
    SINGULAR_INFORMATION = "singular information"
    BOUND_HIT = "ED50 bound hit"
    UNDEFINED_SE = "undefined standard error"
    RELATIVE_SE_EXCEEDED = "relative standard error exceeded"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration control and instability thresholds.

    Attributes
    ----------
    grad_tol : float
        Stationarity tolerance on the max-abs estimating equation.
    max_iter : int
        Iteration cap for every solver.
    ed50_upper_mult, ed50_lower_mult : float
        Instability bounds: an estimate is unstable when
        ``ed50 > upper_mult * D_max`` or ``ed50 < lower_mult * D_min_pos``.
    rel_se_threshold : float
        Instability bound on ``se / |estimate|`` per parameter.
    """

    grad_tol: float = 1e-6
    max_iter: int = 2000
    ed50_upper_mult: float = 10.0
    ed50_lower_mult: float = 0.02
    rel_se_threshold: float = 5.0

    def __post_init__(self) -> None:
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.ed50_upper_mult <= 0 or self.ed50_lower_mult <= 0:
            raise ValueError("ED50 bound multipliers must be positive")
        if self.rel_se_threshold <= 0:
            raise ValueError("rel_se_threshold must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one estimator on one dataset.

    ``status`` is ``Converged`` only when the estimate is finite, satisfies
    its estimating equation, and has a positive-definite covariance that
    passes the stability thresholds; ``Unstable`` keeps the estimate but
    flags it; ``FailedToEstimate`` carries no usable estimate.
    """

    kind: EstimatorKind
    status: FitStatus
    status_reason: StatusReason
    iterations: int
    params: EmaxParams | None = None
    covariance: np.ndarray | None = field(default=None, repr=False)
    std_errors: np.ndarray | None = None
    base_mle: EmaxParams | None = None

    def __post_init__(self) -> None:
        if self.status is FitStatus.Converged:
            if self.params is None or self.covariance is None:
                raise ValueError("Converged results must carry params and covariance")
        if self.status is FitStatus.Unstable and self.params is None:
            raise ValueError("Unstable results must carry params")


def instability_rules(
    params: EmaxParams, se: np.ndarray | None, data: ObservationSet, config: SolverConfig
) -> list[tuple[StatusReason, str]]:
    """The instability rules an estimate breaks, in order of precedence.

    Each entry is a ``(reason, description)`` pair.  The rules, in order:
    the ED50 estimate escapes ``[lower_mult * D_min_pos, upper_mult * D_max]``
    (compared on the log scale); a standard error is undefined (``se`` is
    None); a relative standard error ``se / |estimate|`` exceeds the
    threshold (one entry per parameter).  An empty list means the estimate
    is stable.  The estimators classify their fits by the first entry, and
    :func:`emaxbr.diagnostics.stability_report` lists every description.
    """
    lo, hi = _ed50_bounds(data.doses, config)
    se_or_nan = np.full(3, np.nan) if se is None else se
    bound, rel = _rules(params.as_array(), se_or_nan, data.doses, config)
    found = []
    if bound:
        text = f"ED50 bound hit: estimate {params.ed50():.4g} outside [{lo:.4g}, {hi:.4g}]"
        found.append((StatusReason.BOUND_HIT, text))
    if se is None:
        return found + [(StatusReason.UNDEFINED_SE, "undefined standard error")]
    limit = config.rel_se_threshold
    for name, r in zip(("e0", "emax", "log_ed50"), rel):
        if r > limit:
            text = f"relative standard error exceeded for {name}: {r:.3g} > {limit:g}"
            found.append((StatusReason.RELATIVE_SE_EXCEEDED, text))
    return found


def _ed50_bounds(doses: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ED50 bounds ``(lo, hi)`` of the datasets whose arms are the last axis of ``doses``."""
    dmin_pos = np.where(doses > 0, doses, np.inf).min(axis=-1)
    return config.ed50_lower_mult * dmin_pos, config.ed50_upper_mult * doses[..., -1]


def _rules(
    theta: np.ndarray, se: np.ndarray, doses: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each ED50 estimate is out of bounds, and each relative standard error.

    Acts on the last axis of every argument, so on one estimate or a stack
    of them; a NaN standard error (undefined) gives a NaN relative one.
    """
    lo, hi = _ed50_bounds(doses, config)
    phi = theta[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (phi > np.log(hi)) | (phi < np.log(lo)), se / np.abs(theta)


def _classify(
    kind: EstimatorKind,
    works: Sequence[_DatasetWork],
    reasons: Sequence[StatusReason],
    iterations: np.ndarray,
    theta: np.ndarray,
    cov: np.ndarray,
    has_cov: np.ndarray | None = None,
    base_mle: Sequence[EmaxParams | None] | None = None,
) -> list[FitResult]:
    """Each memo's fit, with the shared instability taxonomy applied in one pass.

    Row ``r`` belongs to the dataset of ``works[r]``.  Where ``reasons[r]``
    is not ``NONE`` the fit failed for that reason.  Otherwise ``theta[r]``
    is a finite estimate with covariance ``cov[r]`` (absent where
    ``has_cov[r]`` is False).  The standard errors and the rules are
    evaluated for all rows at once; :func:`instability_rules` names the
    first broken rule only for the rows that break one.
    """
    out: list[FitResult | None] = [None] * len(works)
    ok = []
    for r, reason in enumerate(reasons):
        if reason is StatusReason.NONE:
            ok.append(r)
        else:
            out[r] = _failed(kind, reason, int(iterations[r]))
    if not ok:
        return out
    config = works[0].config
    theta, cov = theta[ok], cov[ok]
    has_cov = np.ones(len(ok), dtype=bool) if has_cov is None else has_cov[ok]
    diag = np.diagonal(cov, axis1=1, axis2=2)
    with np.errstate(invalid="ignore"):
        defined = has_cov & np.isfinite(diag).all(axis=1) & (diag > 0).all(axis=1)
        se = np.sqrt(np.where(defined[:, None], diag, np.nan))
    bound, rel = _rules(theta, se, np.stack([works[r].data.doses for r in ok]), config)
    stable = ~bound & defined & ~(rel > config.rel_se_threshold).any(axis=1)
    for j, r in enumerate(ok):
        params = EmaxParams.from_array(theta[j])
        row_se = se[j] if defined[j] else None
        reason = StatusReason.NONE
        if not stable[j]:
            reason = instability_rules(params, row_se, works[r].data, config)[0][0]
        out[r] = FitResult(
            kind=kind,
            status=FitStatus.Converged if stable[j] else FitStatus.Unstable,
            status_reason=reason,
            iterations=int(iterations[r]),
            params=params,
            covariance=cov[j] if has_cov[j] and reason is not StatusReason.UNDEFINED_SE else None,
            std_errors=row_se,
            base_mle=None if base_mle is None else base_mle[r],
        )
    return out


def _failed(kind: EstimatorKind, reason: StatusReason, iterations: int) -> FitResult:
    return FitResult(kind, FitStatus.FailedToEstimate, reason, iterations)


def _rowwise(func, *args) -> tuple[np.ndarray, np.ndarray]:
    """``func(*args)`` on stacked rows, and the rows on which it raised ``LinAlgError``.

    ``func`` is a stacked LAPACK call such as ``np.linalg.solve``, ``inv``
    or ``pinv``: it maps the leading axis of its arguments row by row, and
    its result has the shape of its last argument.  A stack on which it
    raises is bisected until each raising row stands alone, so every other
    row still gets the LAPACK call of one stacked call (a stack of N rows
    with k such rows costs about ``2 k log2(N)`` calls), and each row gets
    its lone outcome: its result, or NaN and a set flag where the lone call
    raises.
    """
    try:
        return func(*args), np.zeros(len(args[0]), dtype=bool)
    except np.linalg.LinAlgError:
        if len(args[0]) == 1:
            return np.full(args[-1].shape, np.nan), np.ones(1, dtype=bool)
        mid = len(args[0]) // 2
        lo = _rowwise(func, *(a[:mid] for a in args))
        hi = _rowwise(func, *(a[mid:] for a in args))
        return np.concatenate([lo[0], hi[0]]), np.concatenate([lo[1], hi[1]])


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose the last two axes."""
    return np.swapaxes(x, -1, -2)


class _Point(NamedTuple):
    """Per-arm quantities at one point, with ``I^{-1}`` the (pseudo-)inverse information.

    With the weights ``w = n pi (1-pi)`` and ``w3 = w (1-2 pi)``, the Firth
    adjustment is ``0.5 sum_i (w3 lev_i + w trh_i) g_i``, the penalized one
    ``0.5 sum_i w3 lev_i g_i + sum_i w ha_i`` and the Cox-Snell bias is
    ``-I^{-1}`` times the Firth adjustment.  Built from stacked tensors,
    every field carries their leading axis, and so does everything derived
    from a point below.
    """

    tens: DerivTensors
    inv: np.ndarray
    w: np.ndarray
    w3: np.ndarray
    a: np.ndarray  # rows I^{-1} g_i
    lev: np.ndarray  # g_i' I^{-1} g_i
    trh: np.ndarray  # tr(I^{-1} h_i)
    ha: np.ndarray  # rows h_i a_i


def _point(tens: DerivTensors, data: ObservationSet, invert) -> _Point:
    inv = invert(information_from(tens, data))
    g, h = tens.g, tens.h
    w = data.n * tens.pi * (1.0 - tens.pi)
    a = g @ inv
    lev = (g * a).sum(axis=-1)
    m = g.shape[-2]
    trh = (h.reshape(g.shape[:-2] + (m, 1, 9)) @ inv.reshape(inv.shape[:-2] + (1, 9, 1)))
    ha = (h @ a[..., None])[..., 0]
    return _Point(tens, inv, w, w * (1.0 - 2.0 * tens.pi), a, lev, trh[..., 0, 0], ha)


def _leverage_jacobian(pt: _Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobian of ``0.5 sum_i w3 lev_i g_i``, with ``d_info[t] = dI_t`` and ``dI_t a_i``.

    ``dI_t = sum_i [w3 g_t g g' + w (h[:, t] g' + g h[:, t]')]``,
    ``d lev_i / dtheta_t = 2 (h_i a_i)_t - a_i' dI_t a_i`` and ``w3`` has the
    eta-derivative ``w (1 - 6 pi + 6 pi^2)``.  ``d_info_a[i, r, t] = (dI_t a_i)_r``.
    """
    g, h, pi = pt.tens.g, pt.tens.h, pt.tens.pi
    lead = g.shape[:-1]  # (..., M)
    gg = (g[..., :, None] * g[..., None, :]).reshape(lead + (9,))
    # Products over the arms, indexed (t, r, j) after the reshape.
    ggg = (_t(pt.w3[..., None] * gg) @ g).reshape(lead[:-1] + (3, 3, 3))
    hg = (_t(pt.w[..., None] * h.reshape(lead + (9,))) @ g).reshape(lead[:-1] + (3, 3, 3))
    hg = np.swapaxes(hg, -3, -2)
    d_info = ggg + hg + _t(hg)
    d_info_a = _t((pt.a @ _t(d_info.reshape(lead[:-1] + (9, 3)))).reshape(lead + (3, 3)))
    dlev = 2.0 * pt.ha - (pt.a[..., None, :] @ d_info_a)[..., 0, :]
    w2 = pt.w * (1.0 - 6.0 * pi * (1.0 - pi))
    d_w3_lev = (w2 * pt.lev)[..., None] * g + pt.w3[..., None] * dlev
    jac = 0.5 * (_t(g) @ d_w3_lev + arm_sum(pt.w3 * pt.lev, h))
    return jac, d_info, d_info_a


# ---------------------------------------------------------------------------
# shared per-dataset work
# ---------------------------------------------------------------------------

class _DatasetWork:
    """Memo of the work the estimators share on one dataset.

    Holds the start point, given when the memo is built, and one fit per
    estimator, each solved on first request.  ``block`` lists the memos
    whose fits are solved together: the first request for an estimator on
    any of them solves it for every memo of the block that lacks it, in one
    batch.  Every fitter obtains a memo through :func:`_work`.
    """

    def __init__(self, data: ObservationSet, config: SolverConfig, start: EmaxParams):
        self.data = data
        self.config = config
        self.start = start.as_array()
        self.block = [self]
        self.fits: dict[EstimatorKind, FitResult] = {}

    def fit(self, kind: EstimatorKind) -> FitResult:
        if kind not in self.fits:
            todo = [w for w in self.block if kind not in w.fits]
            solve = {
                EstimatorKind.MLE: _solve_mle,
                EstimatorKind.CoxSnell: _solve_cox_snell,
                EstimatorKind.Firth: _solve_firth,
                EstimatorKind.MPLE: _solve_mple,
            }[kind]
            for work, res in zip(todo, solve(todo)):
                work.fits[kind] = res
        return self.fits[kind]


class _Rows(NamedTuple):
    """The arms of several datasets with equal arm counts, one row each."""

    doses: np.ndarray
    n: np.ndarray
    events: np.ndarray


class _Stack:
    """The stacked arms of the datasets of a batched solve."""

    def __init__(self, datasets: Sequence[ObservationSet]):
        self.rows = _Rows(*(np.stack([getattr(d, f) for d in datasets]) for f in _Rows._fields))

    def take(self, idx: np.ndarray) -> _Rows:
        return _Rows(*(x[idx] for x in self.rows))

    def tensors(self, theta: np.ndarray, idx: np.ndarray) -> tuple[DerivTensors, _Rows]:
        """Tensors of rows ``idx`` at their points ``theta``, and those rows."""
        rows = self.take(idx)
        return stacked_deriv_tensors(theta, rows.doses), rows


# The memos of the enclosing shared_work block by dataset identity, if any;
# reset when the block ends.  A memo holds its dataset, so no id is reused.
_ACTIVE_WORK: ContextVar[dict[int, _DatasetWork] | None] = ContextVar(
    "_ACTIVE_WORK", default=None
)


def _work(data: ObservationSet, config: SolverConfig) -> _DatasetWork:
    """The enclosing ``shared_work`` memo of this dataset and config, else a fresh one."""
    work = (_ACTIVE_WORK.get() or {}).get(id(data))
    if work is not None and work.config == config:
        return work
    return _DatasetWork(data, config, starting_values(data))


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------

_GRID_POINTS = 21
_GRID_MAX_ITER = 25
_GRID_HALVINGS = 20
_GRID_STEP_TOL = 1e-8


def _loglik_rows(lin: np.ndarray, n: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log-likelihood of each row of linear predictors (one column per arm)."""
    return (y * log_expit(lin) + (n - y) * log_expit(-lin)).sum(axis=1)


def starting_values(data: ObservationSet) -> EmaxParams:
    """Deterministic starting triple from a profiled grid over log ED50.

    ``e0`` starts at the continuity-corrected empirical logit of the lowest
    arm.  For each of 21 candidate ``phi`` values spanning
    ``log(0.1 * D_2)`` to ``log(5 * D_max)``, a damped two-parameter
    logistic solve on the covariate ``dose / (exp(phi) + dose)`` refits
    ``(e0, emax)``, and the best profiled log-likelihood wins.  Intercept
    and slope are clipped to the divergence bound so degenerate grid points
    cannot poison downstream solvers.

    This is the one-dataset case of :func:`batch_starting_values`: the 21
    solves run as one batch (see :func:`_grid_batch`).
    """
    return batch_starting_values([data])[0]


def batch_starting_values(datasets: Sequence[ObservationSet]) -> list[EmaxParams]:
    """:func:`starting_values` of each dataset, with all their grids solved as one batch.

    The datasets must have the same number of arms; doses, arm sizes and
    events may differ.  Each start is bit for bit the one
    ``starting_values`` gives the dataset alone, whatever else the batch
    holds and in whatever order.
    """
    if not datasets:
        return []
    phi, u, ab, n, y = _grid_batch(datasets)
    # Scored as log_likelihood scores a parameter triple: e0 + emax * u.
    ll = _loglik_rows(ab[:, :1] + ab[:, 1:] * u, n, y).reshape(phi.shape)
    best = np.arange(len(phi)), np.argmax(ll, axis=1)
    chosen = ab.reshape(*phi.shape, 2)[best]
    return [EmaxParams(float(a), float(b), float(p)) for (a, b), p in zip(chosen, phi[best])]


def _grid_batch(datasets: Sequence[ObservationSet]) -> tuple[np.ndarray, ...]:
    """The start grids of ``R`` datasets as ``R x 21`` stacked rows.

    Returns ``phi`` of shape ``(R, 21)``, and per row (dataset-major) the
    covariates ``u``, the clipped ``(e0, emax)`` fit and the row's arm sizes
    ``n`` and events ``y``.  Each row takes Newton (IRLS) steps with step
    halving until its 2x2 system is singular, its line search fails, its
    step falls below 1e-8, or it has taken 25 steps.  Each NumPy call
    serves every row still iterating, and every operation acts row by row:
    stacked ``@`` and ``np.linalg.solve`` make, per row, the BLAS and LAPACK
    calls that a lone grid point's fit would make, and sums run along a
    row's arms.  So a row's result does not depend on the other rows.
    """
    if len({len(d.doses) for d in datasets}) != 1:
        raise ValueError("batched starting values need datasets with equal arm counts")
    doses = np.stack([d.doses for d in datasets])
    n_arm = np.stack([d.n for d in datasets])
    y_arm = np.stack([d.events for d in datasets])
    e0_0 = np.log((y_arm[:, 0] + 0.5) / (n_arm[:, 0] - y_arm[:, 0] + 0.5))
    lo = np.log(0.1 * np.array([d.dmin_positive() for d in datasets]))
    hi = np.log(5.0 * np.array([d.dmax() for d in datasets]))
    phi = np.linspace(lo, hi, _GRID_POINTS, axis=1)
    rows = phi.size
    u = (doses[:, None, :] / (np.exp(phi)[:, :, None] + doses[:, None, :])).reshape(rows, -1)
    n = np.repeat(n_arm, _GRID_POINTS, axis=0)
    y = np.repeat(y_arm, _GRID_POINTS, axis=0)
    design = np.stack([np.ones_like(u), u], axis=-1)  # (row, arm, coefficient)
    ab = np.zeros((rows, 2))
    ab[:, 0] = np.repeat(e0_0, _GRID_POINTS)
    f = _loglik_rows((design @ ab[:, :, None])[:, :, 0], n, y)
    live = np.arange(rows)
    # Rows that run off to infinity or hit a singular system drop out below.
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(_GRID_MAX_ITER):
            if live.size == 0:
                break
            x, abl, nl, yl = design[live], ab[live], n[live], y[live]
            pi = expit((x @ abl[:, :, None])[:, :, 0])
            wt = nl * pi * (1.0 - pi)
            xt = x.transpose(0, 2, 1)
            step = _rowwise(
                np.linalg.solve, xt @ (wt[:, :, None] * x), xt @ (yl - nl * pi)[:, :, None]
            )[0][:, :, 0]
            solvable = np.isfinite(step).all(axis=1)
            lam = np.ones(live.size)
            searching = solvable.copy()
            for _ in range(_GRID_HALVINGS):
                sel = searching.nonzero()[0]
                if sel.size == 0:
                    break
                cand = abl[sel] + lam[sel, None] * step[sel]
                fc = _loglik_rows((x[sel] @ cand[:, :, None])[:, :, 0], nl[sel], yl[sel])
                ok = np.isfinite(fc) & (fc >= f[live[sel]])
                took = sel[ok]
                abl[took] = cand[ok]
                f[live[took]] = fc[ok]
                searching[took] = False
                lam[sel[~ok]] /= 2.0
            ab[live] = abl
            accepted = solvable & ~searching
            moving = np.abs(lam[:, None] * step).max(axis=1) >= _GRID_STEP_TOL
            live = live[accepted & moving]
    return phi, u, np.clip(ab, -_DIVERGENCE_BOUND, _DIVERGENCE_BOUND), n, y


# ---------------------------------------------------------------------------
# ascent core
# ---------------------------------------------------------------------------

class _Ascent(NamedTuple):
    """Where :func:`_ascend` stopped, one row per objective.

    ``reasons[r]`` is ``NONE`` where row ``r`` stopped at a maximizer;
    ``hessian[r]`` is the Hessian at ``theta[r]``.
    """

    theta: np.ndarray
    hessian: np.ndarray
    iterations: np.ndarray
    reasons: list[StatusReason]


def _ascend(theta0: np.ndarray, value, derivs, diverged, config: SolverConfig) -> _Ascent:
    """Maximize ``R`` objectives side by side by modified-Newton ascent.

    Row ``r`` of ``theta0`` (shape ``(R, p)``) starts the ascent of objective
    ``r``.  The callbacks act on stacks of rows: ``value(theta, idx)`` gives
    the objective values of rows ``idx`` at the points ``theta`` (a
    non-finite value marks a point out of bounds); ``derivs(theta, idx) ->
    (gradient, Hessian)`` is called only at accepted points;
    ``diverged(theta, idx)`` flags the rows running off to infinity.

    Each row follows the rules of a lone ascent, with its own masks for
    still ascending and still searching a line.  Each iterate floors the
    Hessian's eigenvalues at ``-1e-8 * max(1, |lambda|_max)``, so the step
    ascends even where the curvature is indefinite, caps the step norm at
    5, and halves the step up to 40 times until the Armijo condition with
    constant 1e-4 holds.  A row stops at a maximizer when ``max|g| <=
    grad_tol``, or when its line search fails with ``max|g| <= 1e-4``; it
    ends ``NON_CONVERGENCE`` when its line search fails otherwise or after
    ``max_iter`` iterates, and ``NON_FINITE`` when ``diverged`` holds or its
    point, gradient or Hessian is not finite.

    Every operation acts row by row (stacked ``@`` and LAPACK calls, sums
    along a row's own entries), and the callbacks must too, so a row's
    result does not depend on the other rows.
    """
    theta = np.array(theta0, dtype=float)
    every = np.arange(len(theta))
    f = value(theta, every)
    g, hess = derivs(theta, every)
    iterations = np.full(len(theta), config.max_iter)
    reasons = [StatusReason.NON_CONVERGENCE] * len(theta)

    def stop(idx, reason, it):
        if idx.size:
            iterations[idx] = it
            for r in idx:
                reasons[r] = reason

    live = every
    it = 0
    # Comparisons with NaN are False, which the rules below rely on.
    with np.errstate(invalid="ignore"):
        while live.size and it < config.max_iter:
            it += 1
            gl = g[live]
            finite = (
                np.isfinite(theta[live]).all(axis=1)
                & np.isfinite(gl).all(axis=1)
                & np.isfinite(hess[live]).all(axis=(1, 2))
            )
            gmax = np.abs(gl).max(axis=1)
            done = finite & (gmax <= config.grad_tol)
            bad = ~finite
            check = finite & ~done
            bad[check] = diverged(theta[live[check]], live[check])
            stop(live[done], StatusReason.NONE, it)
            stop(live[bad], StatusReason.NON_FINITE, it)
            keep = ~(done | bad)
            live, gl, gmax = live[keep], gl[keep], gmax[keep]
            if not live.size:
                break
            eigval, eigvec = np.linalg.eigh(hess[live])
            floor = -1e-8 * np.maximum(1.0, np.abs(eigval).max(axis=1))
            coef = (_t(eigvec) @ gl[:, :, None])[:, :, 0] / np.minimum(eigval, floor[:, None])
            step = (-eigvec @ coef[:, :, None])[:, :, 0]
            norm = np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0])
            long = norm > 5.0
            step[long] *= (5.0 / norm[long])[:, None]
            slope = (step[:, None, :] @ gl[:, :, None])[:, 0, 0]
            lam = np.ones(live.size)
            searching = np.ones(live.size, dtype=bool)
            for _ in range(40):
                sel = searching.nonzero()[0]
                if not sel.size:
                    break
                cand = theta[live[sel]] + lam[sel, None] * step[sel]
                fc = value(cand, live[sel])
                ok = np.isfinite(fc) & (fc > f[live[sel]] + 1e-4 * lam[sel] * slope[sel])
                took = live[sel[ok]]
                theta[took], f[took] = cand[ok], fc[ok]
                searching[sel[ok]] = False
                lam[sel[~ok]] /= 2.0
            stalled = searching & (gmax <= 1e-4)
            stop(live[stalled], StatusReason.NONE, it)
            stop(live[searching & ~stalled], StatusReason.NON_CONVERGENCE, it)
            live = live[~searching]
            if live.size:
                g[live], hess[live] = derivs(theta[live], live)
    return _Ascent(theta, hess, iterations, reasons)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def fit_mle(data: ObservationSet, config: SolverConfig = SolverConfig()) -> FitResult:
    """Maximum likelihood through the shared ascent core (see the module docstring).

    Iterates drifting past the divergence bound on ``|e0|`` or ``|emax|``
    (logit magnitudes at which arm probabilities are numerically 0/1) are
    declared failures, as is a singular final curvature.  The covariance
    is the inverse of the negative Hessian at the maximizer.  Inside a
    :func:`shared_work` block the MLE of every dataset of the block is
    solved in one batched ascent on the first request.
    """
    return _work(data, config).fit(EstimatorKind.MLE)


def _solve_mle(works: Sequence[_DatasetWork]) -> list[FitResult]:
    """The MLE of each memo's dataset, all solved in one batched ascent."""
    stack = _Stack([w.data for w in works])

    def value(theta, idx):
        return log_likelihood_from(*stack.tensors(theta, idx))

    def derivs(theta, idx):
        tens, rows = stack.tensors(theta, idx)
        return score_from(tens, rows), hessian_from(tens, rows)

    def diverged(theta, idx):
        return (np.abs(theta[:, :2]) > _DIVERGENCE_BOUND).any(axis=1)

    run = _ascend(np.stack([w.start for w in works]), value, derivs, diverged, works[0].config)
    reasons = list(run.reasons)
    cov = np.full_like(run.hessian, np.nan)
    for r in np.flatnonzero([reason is StatusReason.NONE for reason in reasons]):
        try:
            cov[r] = invert_information(-run.hessian[r])
        except SingularInformation:
            reasons[r] = StatusReason.SINGULAR_INFORMATION
    return _classify(EstimatorKind.MLE, works, reasons, run.iterations, run.theta, cov)


# ---------------------------------------------------------------------------
# Cox-Snell correction
# ---------------------------------------------------------------------------

def _bias_at(pt: _Point) -> np.ndarray:
    return -(pt.inv @ _firth_adjustment(pt)[..., None])[..., 0]


def cox_snell_bias(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """First-order bias ``B_s = sum I^{-1}[s,r] I^{-1}[j,l] (k3/2 + k2_1)[r,j,l]``.

    ``I^{-1}`` here is the inverse of the expected information (the inverse
    negative-information entries carry the cumulant signs already).  Since
    ``k3 = -(dI + k2_1)``, this is ``-I^{-1} A`` with ``A`` the adjustment
    of Firth's modified score (Firth 1993, Biometrika 80:27), and that is
    how it is computed.  Scales as O(1/n) in the total sample size.
    """
    return _bias_at(_point(deriv_tensors(params, data), data, invert_information))


def fit_cox_snell(data: ObservationSet, config: SolverConfig = SolverConfig()) -> FitResult:
    """Bias-corrected MLE: fit, subtract the analytic bias, reclassify.

    MLE failures propagate verbatim; a singular information at the MLE is
    ``SINGULAR_INFORMATION`` and a non-finite corrected point
    ``NON_FINITE``.  The covariance is inherited from the
    maximum-likelihood fit: the corrected point is not a stationary point of
    the likelihood, so the local Hessian there is not a valid curvature
    estimate (and is frequently indefinite when the correction is large).
    Inside a :func:`shared_work` block the first request corrects the MLE
    of every dataset of the block in one stacked bias step.
    """
    return _work(data, config).fit(EstimatorKind.CoxSnell)


def _solve_cox_snell(works: Sequence[_DatasetWork]) -> list[FitResult]:
    """The Cox-Snell fit of each memo's dataset: one stacked bias step at their MLEs."""
    bases = [w.fit(EstimatorKind.MLE) for w in works]
    ok = [r for r, base in enumerate(bases) if base.params is not None]
    reasons = [base.status_reason if base.params is None else StatusReason.NONE for base in bases]
    theta = np.full((len(works), 3), np.nan)
    cov = np.full((len(works), 3, 3), np.nan)
    has_cov = np.array([base.covariance is not None for base in bases])
    if ok:
        mle = np.stack([bases[r].params.as_array() for r in ok])
        tens, rows = _Stack([works[r].data for r in ok]).tensors(mle, np.arange(len(ok)))
        inv, singular = _rowwise(np.linalg.inv, information_from(tens, rows))
        theta[ok] = mle - _bias_at(_point(tens, rows, lambda info: inv))
        for j, r in enumerate(ok):
            if singular[j]:
                reasons[r] = StatusReason.SINGULAR_INFORMATION
            elif not np.isfinite(theta[r]).all():
                reasons[r] = StatusReason.NON_FINITE
            elif has_cov[r]:
                cov[r] = bases[r].covariance
    iterations = np.array([base.iterations for base in bases])
    return _classify(
        EstimatorKind.CoxSnell,
        works,
        reasons,
        iterations,
        theta,
        cov,
        has_cov=has_cov,
        base_mle=[base.params for base in bases],
    )


# ---------------------------------------------------------------------------
# Firth modified score
# ---------------------------------------------------------------------------

def _firth_adjustment(pt: _Point) -> np.ndarray:
    return 0.5 * arm_sum(pt.w3 * pt.lev + pt.w * pt.trh, pt.tens.g)


def _modified_score_at(pt: _Point, data: ObservationSet) -> np.ndarray:
    return score_from(pt.tens, data) + _firth_adjustment(pt)


def _modified_jacobian_at(pt: _Point, data: ObservationSet) -> np.ndarray:
    """Exact Jacobian ``J[s, t]`` of :func:`_modified_score_at` in ``theta_t``.

    Adds to the leverage part the derivative of ``0.5 sum_i w trh_i g_i``, where
    ``d trh_i / dtheta_t = tr(I^{-1} t_i[:, :, t]) - tr(I^{-1} dI_t I^{-1} h_i)``.
    """
    g, h, t = pt.tens.g, pt.tens.h, pt.tens.t
    lead = g.shape[:-1]  # (..., M)
    lev_jac, d_info, _ = _leverage_jacobian(pt)
    inv = pt.inv[..., None, :, :]
    inv_t = (pt.inv.reshape(lead[:-1] + (1, 1, 9)) @ t.reshape(lead + (9, 3)))[..., 0, :]
    inv_di_inv = (inv @ d_info @ inv).reshape(lead[:-1] + (3, 9))
    dtrh = inv_t - h.reshape(lead + (9,)) @ _t(inv_di_inv)
    d_w_trh = (pt.w3 * pt.trh)[..., None] * g + pt.w[..., None] * dtrh
    return (
        hessian_from(pt.tens, data)
        + lev_jac
        + 0.5 * (_t(g) @ d_w_trh + arm_sum(pt.w * pt.trh, h))
    )


def firth_modified_score(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Modified score ``U_s + 0.5 * tr(I^{-1} (P_s + kappa_{..,s}))``."""
    return _modified_score_at(_point(deriv_tensors(params, data), data, invert_information), data)


# The root search tries up to this many starts per dataset (see _firth_starts).
_FIRTH_STARTS = 9


def _firth_starts(rows: _Rows, lead: np.ndarray) -> np.ndarray:
    """Starts 2-8 of the modified-score search of each row, shape ``(K, 7, 3)``.

    The search leads with the penalized-likelihood maximizer ``lead`` (it
    is typically within a few steps of the modified-score root), then the
    profiled grid start.  The starts built here follow: two closed-form
    boundary limits, the pooled intercept-only fit (the exact root limit as
    ED50 grows without bound) and the control-versus-pooled-treated
    two-group fit (the limit as ED50 shrinks to zero), each on
    continuity-corrected logits; then a ladder of five ED50 displacements of
    the leading start, spanning ``log(0.1 * D_min_pos)`` to ``log(5 * D_max)``.
    """

    def logit(events, n):
        return np.log((events + 0.5) / (n - events + 0.5))

    pos = rows.doses > 0
    d2, dmax = np.where(pos, rows.doses, np.inf).min(axis=1), rows.doses[:, -1]
    e0_ctl = logit((rows.events * ~pos).sum(axis=1), (rows.n * ~pos).sum(axis=1))
    e_trt = logit((rows.events * pos).sum(axis=1), (rows.n * pos).sum(axis=1))
    e0_pool = logit(rows.events.sum(axis=1), rows.n.sum(axis=1))
    out = np.repeat(lead[:, None, :], 7, axis=1)
    out[:, 0] = np.stack([e0_pool, np.zeros_like(dmax), np.log(dmax) + 20.0], axis=1)
    out[:, 1] = np.stack([e0_ctl, e_trt - e0_ctl, np.log(d2) - 20.0], axis=1)
    out[:, 2:, 2] = np.linspace(np.log(0.1 * d2), np.log(5.0 * dmax), 5, axis=1)
    return out


def _take(pt: _Point, idx) -> _Point:
    """Rows ``idx`` of a stacked point."""
    tens = DerivTensors(**{k: v[idx] for k, v in vars(pt.tens).items()})
    return _Point(tens, *(x[idx] for x in pt[1:]))


def _put(dst: _Point, idx, src: _Point) -> None:
    """Write the rows of ``src`` into rows ``idx`` of ``dst``."""
    for k, v in vars(src.tens).items():
        getattr(dst.tens, k)[idx] = v
    for x, y in zip(dst[1:], src[1:]):
        x[idx] = y


class _Roots(NamedTuple):
    """Where :func:`_lm_root` stopped, one row per dataset.

    ``point[r]`` is the stacked point at ``theta[r]``; ``iterations[r]``
    counts the iterations of every start row ``r`` tried.
    """

    theta: np.ndarray
    point: _Point
    iterations: np.ndarray
    converged: np.ndarray


def _lm_root(stack: _Stack, lead: np.ndarray, grid: np.ndarray, config: SolverConfig) -> _Roots:
    """Multi-start damped least-squares root search on the modified score, row by row.

    Row ``r`` seeks a root for the dataset in row ``r`` of ``stack``, trying
    in turn the starts ``lead[r]``, ``grid[r]`` and those of
    :func:`_firth_starts`, which are built only for the rows that reach
    them.  Each start runs Levenberg-Marquardt: an iteration solves ``(J^T J
    + mu I) step = -J^T F`` with the exact Jacobian at the current point,
    clips the step componentwise to [-2, 2] and accepts only a finite,
    norm-reducing candidate (the equations admit no objective, so the
    residual norm is the only merit function), multiplying ``mu`` by 10 (at
    least to 1e-8) after each of up to 40 rejected tries and dividing it by
    3 after an acceptance.  A start converges when ``max|F| <= grad_tol``;
    it fails when its residual is not finite there, when a damping search
    fails, or after ``max(50, max_iter - iterations so far)`` iterations, and
    the row then moves on to its next start within the same run.  The point
    of an accepted candidate supplies both its residual and its Jacobian.

    Each NumPy call serves every row still searching, with per-row masks for
    the rows still iterating and still damping; stacked LAPACK calls go
    through :func:`_rowwise`, and sums run along a row's own arms.  So each
    row follows the start sequence of its lone search exactly, and its
    result does not depend on the other rows.
    """

    # Row sets are sorted, so a set as large as the stack is the whole stack.
    def arms(idx):
        return stack.rows if idx.size == n_rows else stack.take(idx)

    def residual(theta, idx):
        rows = arms(idx)
        pt = _point(
            stacked_deriv_tensors(theta, rows.doses),
            rows,
            lambda info: _rowwise(np.linalg.pinv, info)[0],
        )
        return _modified_score_at(pt, rows), pt

    def norm_of(f):
        # sqrt(f . f) per row: the BLAS dot of np.linalg.norm on one vector.
        return np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])

    n_rows = len(lead)
    starts = np.full((n_rows, _FIRTH_STARTS, 3), np.nan)
    starts[:, 0], starts[:, 1] = lead, grid
    listed = np.zeros(n_rows, dtype=bool)  # rows whose starts 2- are built
    start = np.zeros(n_rows, dtype=int)
    it = np.zeros(n_rows, dtype=int)  # iterations of the current start
    total = np.zeros(n_rows, dtype=int)  # iterations of the finished starts
    budget = np.full(n_rows, max(50, config.max_iter))
    mu = np.zeros(n_rows)
    converged = np.zeros(n_rows, dtype=bool)
    theta = starts[:, 0].copy()
    fx, pt = residual(theta, np.arange(n_rows))
    norm = norm_of(fx)

    def next_start(idx):
        """Move rows ``idx`` past their failed start; return those now iterating."""
        ready = [np.zeros(0, dtype=int)]
        while idx.size:
            total[idx] += it[idx]
            it[idx] = 0
            start[idx] += 1
            idx = idx[start[idx] < _FIRTH_STARTS]
            build = idx[(start[idx] >= 2) & ~listed[idx]]
            if build.size:
                starts[build, 2:] = _firth_starts(stack.take(build), lead[build])
                listed[build] = True
            theta[idx] = starts[idx, start[idx]]
            fx[idx], new = residual(theta[idx], idx)
            _put(pt, idx, new)
            norm[idx] = norm_of(fx[idx])
            mu[idx] = 0.0
            budget[idx] = np.maximum(50, config.max_iter - total[idx])
            finite = np.isfinite(fx[idx]).all(axis=1)
            ready.append(idx[finite])
            idx = idx[~finite]
        return np.concatenate(ready)

    finite = np.isfinite(fx).all(axis=1)
    live = np.sort(np.concatenate([finite.nonzero()[0], next_start((~finite).nonzero()[0])]))
    eye = np.eye(3)
    while live.size:
        it[live] += 1
        done = np.abs(fx[live]).max(axis=1) <= config.grad_tol
        converged[live[done]] = True
        total[live[done]] += it[live[done]]
        live = live[~done]
        if not live.size:
            break
        jac = _modified_jacobian_at(pt if live.size == n_rows else _take(pt, live), arms(live))
        jtj, jtf = _t(jac) @ jac, -_t(jac) @ fx[live][:, :, None]
        mu_try = mu[live]
        searching = np.ones(live.size, dtype=bool)
        for _ in range(40):
            sel = searching.nonzero()[0]
            if not sel.size:
                break
            step, _ = _rowwise(np.linalg.solve, jtj[sel] + mu_try[sel, None, None] * eye, jtf[sel])
            cand = theta[live[sel]] + np.clip(step[:, :, 0], -2.0, 2.0)
            fc = np.full(cand.shape, np.nan)
            evaluated = np.isfinite(cand).all(axis=1)
            if evaluated.any():
                fc[evaluated], cand_pt = residual(cand[evaluated], live[sel[evaluated]])
            cand_norm = norm_of(fc)
            ok = np.isfinite(fc).all(axis=1) & (cand_norm < norm[live[sel]])
            took = live[sel[ok]]
            theta[took], fx[took], norm[took] = cand[ok], fc[ok], cand_norm[ok]
            if took.size:
                _put(pt, took, cand_pt if ok.all() else _take(cand_pt, ok[evaluated]))
            searching[sel[ok]] = False
            mu_try[sel[~ok]] = np.maximum(mu_try[sel[~ok]] * 10.0, 1e-8)
        mu[live[~searching]] = mu_try[~searching] / 3.0
        stop = searching | (it[live] >= budget[live])
        if stop.any():
            live = np.sort(np.concatenate([live[~stop], next_start(live[stop])]))
    return _Roots(theta, pt, total, converged)


def fit_firth(data: ObservationSet, config: SolverConfig = SolverConfig()) -> FitResult:
    """Solve the modified score equations and classify the root.

    Multi-start Levenberg-Marquardt root-finding (:func:`_lm_root`) with the
    exact Jacobian of the modified score and trust clamping, led by the
    MPLE; covariance from the inverse negative Hessian at the root, taken
    from the derivative tensors the root-finder already holds there.  Roots
    in the degenerate far field (huge or tiny ED50) are genuine solutions
    of the estimating equations and surface as ``Unstable`` bound hits
    rather than failures.  Inside a :func:`shared_work` block the first
    request solves the Firth fit of every dataset of the block in one
    stacked run, whose start lists are built only for the datasets that get
    past their first two starts.
    """
    return _work(data, config).fit(EstimatorKind.Firth)


def _solve_firth(works: Sequence[_DatasetWork]) -> list[FitResult]:
    """The Firth fit of each memo's dataset, all roots sought in one stacked run."""
    mples = [w.fit(EstimatorKind.MPLE) for w in works]
    lead = np.stack(
        [w.start if m.params is None else m.params.as_array() for w, m in zip(works, mples)]
    )
    stack = _Stack([w.data for w in works])
    run = _lm_root(stack, lead, np.stack([w.start for w in works]), works[0].config)
    cov, singular = _rowwise(np.linalg.inv, -hessian_from(run.point.tens, stack.rows))
    reasons = [StatusReason.NONE if c else StatusReason.NON_CONVERGENCE for c in run.converged]
    return _classify(
        EstimatorKind.Firth, works, reasons, run.iterations, run.theta, cov, has_cov=~singular
    )


# ---------------------------------------------------------------------------
# Jeffreys-prior MPLE
# ---------------------------------------------------------------------------

def _penalized_loglik_from(tens: DerivTensors, data: ObservationSet) -> float | np.ndarray:
    sign, logdet = np.linalg.slogdet(information_from(tens, data))
    with np.errstate(invalid="ignore"):
        out = np.where(sign <= 0, -np.inf, log_likelihood_from(tens, data) + 0.5 * logdet)
    return float(out) if out.ndim == 0 else out


def penalized_loglik(params: EmaxParams, data: ObservationSet) -> float:
    """Log-likelihood plus half the log-determinant of the information.

    Returns ``-inf`` as a sentinel wherever the information determinant is
    not positive (e.g. rank-deficient designs), which the ascent treats as
    out of bounds.
    """
    return _penalized_loglik_from(deriv_tensors(params, data), data)


def _penalized_score_at(pt: _Point, data: ObservationSet) -> np.ndarray:
    return (
        score_from(pt.tens, data)
        + arm_sum(0.5 * (pt.w3 * pt.lev), pt.tens.g)
        + arm_sum(pt.w, pt.ha)
    )


def _penalized_jacobian_at(pt: _Point, data: ObservationSet) -> np.ndarray:
    """Exact Jacobian ``J[s, t]`` of :func:`_penalized_score_at` in ``theta_t``.

    Adds to the leverage part the derivative of ``sum_i w h_i a_i``, where
    ``d (h_i a_i)_s / dtheta_t = t_i[s, :, t] a_i + h_i[s] I^{-1} (h_i[:, t] - dI_t a_i)``.
    """
    g, h, w = pt.tens.g, pt.tens.h, pt.w
    lev_jac, _, d_info_a = _leverage_jacobian(pt)
    da = pt.inv[..., None, :, :] @ (h - d_info_a)
    # t is symmetric, so t_i[s, :, t] a_i = (t_i[s, t, :] a_i).
    ta = (pt.tens.t @ pt.a[..., None, :, None])[..., 0]
    return (
        hessian_from(pt.tens, data)
        + lev_jac
        + _t(pt.ha) @ (pt.w3[..., None] * g)
        + arm_sum(w, ta)
        + arm_sum(w, h @ da)
    )


def penalized_score(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Exact gradient of the penalized log-likelihood.

    ``U_s + 0.5 * tr(I^{-1} dI/dtheta_s)`` — the half matches the square
    root in the penalty.  Its Jacobian is :func:`penalized_hessian`.
    """
    return _penalized_score_at(_point(deriv_tensors(params, data), data, invert_information), data)


def penalized_hessian(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Exact Hessian of the penalized log-likelihood (Jacobian of :func:`penalized_score`).

    ``H_st + 0.5 * [tr(I^{-1} d2I/dtheta_s dtheta_t) - tr(I^{-1} dI_t I^{-1} dI_s)]``,
    symmetric up to rounding; computed in per-arm form.  Raises
    :class:`SingularInformation` where the expected information is not
    invertible.
    """
    return _penalized_jacobian_at(
        _point(deriv_tensors(params, data), data, invert_information), data
    )


def fit_mple(data: ObservationSet, config: SolverConfig = SolverConfig()) -> FitResult:
    """Maximize the Jeffreys-penalized likelihood through the shared ascent core.

    The core's eigenvalue floor on the exact penalized Hessian keeps every
    step an ascent direction, which keeps progress brisk along the curved
    ridges that one-sided event patterns create.  No divergence test
    applies: the penalty keeps the maximizer finite.  Covariance is the
    exact inverse of the negative penalized Hessian at the maximizer.
    Inside a :func:`shared_work` block the MPLE of every dataset of the
    block is solved in one batched ascent on the first request.
    """
    return _work(data, config).fit(EstimatorKind.MPLE)


def _solve_mple(works: Sequence[_DatasetWork]) -> list[FitResult]:
    """The MPLE of each memo's dataset, all solved in one batched ascent."""
    stack = _Stack([w.data for w in works])

    def value(theta, idx):
        return _penalized_loglik_from(*stack.tensors(theta, idx))

    def derivs(theta, idx):
        tens, rows = stack.tensors(theta, idx)
        pt = _point(tens, rows, np.linalg.pinv)
        return _penalized_score_at(pt, rows), _penalized_jacobian_at(pt, rows)

    def diverged(theta, idx):
        return np.zeros(len(theta), dtype=bool)

    run = _ascend(np.stack([w.start for w in works]), value, derivs, diverged, works[0].config)
    cov, singular = _rowwise(np.linalg.inv, -run.hessian)
    return _classify(
        EstimatorKind.MPLE, works, run.reasons, run.iterations, run.theta, cov, has_cov=~singular
    )


# ---------------------------------------------------------------------------
# quadratic-logit sensitivity fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticLogitFit:
    """Logistic fit with linear predictor ``b0 + b1 d + b2 d^2``.

    ``peak_dose`` is the vertex ``-b1 / (2 b2)``, reported only when the
    fitted curvature is negative (a genuine interior maximum).
    """

    status: FitStatus
    status_reason: StatusReason
    coefs: np.ndarray | None
    covariance: np.ndarray | None
    peak_dose: float | None
    iterations: int


def fit_quadratic_logit(
    data: ObservationSet, config: SolverConfig = SolverConfig()
) -> QuadraticLogitFit:
    """Maximum-likelihood quadratic-logit fit on ``(1, d, d^2)``.

    A sensitivity model for non-monotone samples.  The fit runs through the
    shared ascent core (as a batch of one) from zero coefficients, on doses
    scaled to at most 1, and shares the failure taxonomy of the main
    estimators: a linear predictor beyond 30 in magnitude, where separation
    drives the coefficients, is reported as FailedToEstimate.
    """
    if len(data.doses) < 3:
        raise ValueError("need at least 3 distinct doses")
    d = data.doses
    scale = max(1.0, d.max())
    x = np.column_stack([np.ones_like(d), d / scale, (d / scale) ** 2])

    def value(b, idx):
        return _loglik_rows(b @ x.T, data.n, data.events)

    def derivs(b, idx):
        pi = expit(b @ x.T)
        w = data.n * pi * (1.0 - pi)
        return (data.events - data.n * pi) @ x, -(x.T @ (w[:, :, None] * x))

    def diverged(b, idx):
        return np.abs(b @ x.T).max(axis=1) > 30.0

    run = _ascend(np.zeros((1, 3)), value, derivs, diverged, config)
    reason, iterations = run.reasons[0], int(run.iterations[0])
    if reason is StatusReason.NONE:
        cov_scaled, singular = _rowwise(np.linalg.inv, -run.hessian)
        if singular[0]:
            reason = StatusReason.SINGULAR_INFORMATION
    if reason is not StatusReason.NONE:
        return QuadraticLogitFit(FitStatus.FailedToEstimate, reason, None, None, None, iterations)
    # Undo the dose rescaling used for conditioning.
    s = np.diag([1.0, 1.0 / scale, 1.0 / scale**2])
    coefs = s @ run.theta[0]
    peak = float(-coefs[1] / (2.0 * coefs[2])) if coefs[2] < 0 else None
    return QuadraticLogitFit(
        FitStatus.Converged, StatusReason.NONE, coefs, s @ cov_scaled[0] @ s, peak, iterations
    )


_FITTERS = {
    EstimatorKind.MLE: fit_mle,
    EstimatorKind.CoxSnell: fit_cox_snell,
    EstimatorKind.Firth: fit_firth,
    EstimatorKind.MPLE: fit_mple,
}


def fit(
    kind: EstimatorKind,
    data: ObservationSet,
    config: SolverConfig = SolverConfig(),
) -> FitResult:
    """Dispatch to the fitter for ``kind``."""
    return _FITTERS[kind](data, config)


@contextmanager
def shared_work(datasets: Sequence[ObservationSet], config: SolverConfig = SolverConfig()):
    """Let the fits of ``datasets`` made inside the block share their common work.

    On entry the start grids of all ``datasets`` are solved in one
    :func:`batch_starting_values` call, so they must have equal arm counts
    (else ``ValueError``).  Inside the block, fits of one of these very
    dataset objects under an equal ``config`` compute its start point and
    each estimator's fit at most once, and the first request for the MLE or
    the MPLE of any of them solves that estimator for all of them in one
    batched ascent (see the module docstring); any other fit gets a fresh
    memo.  Every result is bit for bit the one a fit made outside the block
    returns.  The memos are dropped when the block ends.
    """
    starts = batch_starting_values(datasets)
    block = [_DatasetWork(d, config, start) for d, start in zip(datasets, starts)]
    for work in block:
        work.block = block
    token = _ACTIVE_WORK.set({id(w.data): w for w in block})
    try:
        yield
    finally:
        _ACTIVE_WORK.reset(token)


def fit_all(
    data: ObservationSet,
    kinds: Iterable[EstimatorKind],
    config: SolverConfig = SolverConfig(),
) -> list[FitResult]:
    """Fit each estimator in ``kinds`` to one dataset, sharing the common work.

    Returns one result per entry of ``kinds``, in order, each equal to what
    ``fit(kind, data, config)`` returns.  Every entry goes through one
    :func:`fit` call inside ``shared_work([data], config)``.
    """
    with shared_work([data], config):
        return [fit(kind, data, config) for kind in kinds]
