"""Higher-order likelihood cumulants for the binary Emax model.

These dense ``3 x 3 x 3`` tensors define the analytic bias correction and
the modified-score adjustment:

* ``kappa_rjl``  — expected third derivatives of the log-likelihood,
* ``kappa_rj_l`` — mixed cumulants ``E[H_rj U_l]``,
* ``p_tensor``   — third-central-moment contractions ``E[U U^T U_s]``,
* ``info_derivative`` — analytic ``dI/dtheta_s``.

All four are assembled from the generic binary-logit identities applied to
the eta-derivative tensors, with binomial weights ``w = n pi (1-pi)`` and
skewness weights ``w (1-2 pi)`` per arm.

This module is the public reference API for the cumulants; the solvers do
not use it.  :mod:`emaxbr.estimators` builds the modified score, the
penalized score, the Cox-Snell bias and their Jacobians from per-arm
quantities (``I^{-1} g_i``, the leverages ``g_i' I^{-1} g_i`` and
``tr(I^{-1} h_i)``), which are the same sums contracted with ``I^{-1}``
first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EmaxParams, ObservationSet, deriv_tensors

__all__ = [
    "CumulantBundle",
    "cumulant_bundle",
    "kappa_rjl",
    "kappa_rj_l",
    "p_tensor",
    "info_derivative",
]


@dataclass(frozen=True)
class CumulantBundle:
    """All four cumulant tensors evaluated at one parameter point.

    Attributes
    ----------
    k3 : ndarray, shape (3, 3, 3)
        ``kappa_rjl``; fully symmetric in all three indices.
    k2_1 : ndarray, shape (3, 3, 3)
        ``kappa_rj_l``; symmetric in the first two indices.
    p : ndarray, shape (3, 3, 3)
        ``P_s`` stacked over the last index; symmetric matrix slots.
    dI : ndarray, shape (3, 3, 3)
        ``dI/dtheta_s`` stacked over the last index; each slice symmetric.
    """

    k3: np.ndarray
    k2_1: np.ndarray
    p: np.ndarray
    dI: np.ndarray


def cumulant_bundle(params: EmaxParams, data: ObservationSet) -> CumulantBundle:
    """Compute all four cumulant tensors in one pass.

    Using per-arm weights ``w = n pi (1-pi)`` and ``w3 = w (1-2 pi)``:

    * ``k3[r,j,l]   = sum_i [-w3 g_r g_j g_l - w (h_rl g_j + g_r h_jl + h_rj g_l)]``
    * ``k2_1[r,j,l] = sum_i w h_rj g_l``
    * ``p[r,j,s]    = sum_i w3 g_r g_j g_s``
    * ``dI[r,j,s]   = sum_i [w3 g_s g_r g_j + w (h_rs g_j + g_r h_js)]``

    The expectation over responses kills all terms involving the residual
    times the third-order eta tensor, so only ``g`` and ``h`` appear.
    """
    tens = deriv_tensors(params, data)
    g, h = tens.g, tens.h
    w = data.n * tens.pi * (1.0 - tens.pi)
    w3 = w * (1.0 - 2.0 * tens.pi)
    ggg = np.einsum("i,ir,ij,il->rjl", w3, g, g, g)
    hg = np.einsum("i,irj,il->rjl", w, h, g)
    hg_rl_j = np.einsum("i,irl,ij->rjl", w, h, g)
    gh_r_jl = np.einsum("i,ir,ijl->rjl", w, g, h)
    k3 = -ggg - hg_rl_j - gh_r_jl - hg
    dI = ggg + hg_rl_j + gh_r_jl
    return CumulantBundle(k3=k3, k2_1=hg, p=ggg, dI=dI)


def kappa_rjl(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Expected third log-likelihood derivatives ``E[d^3 l / dtheta^3]``."""
    return cumulant_bundle(params, data).k3


def kappa_rj_l(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Mixed cumulants ``kappa_{rj,l} = E[H_rj U_l] = sum_i w h_rj g_l``."""
    return cumulant_bundle(params, data).k2_1


def p_tensor(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Third-moment tensor ``(P_s)_{rj} = E[(U U^T U_s)_{rj}]``.

    The Bernoulli third central moment is ``pi (1-pi) (1-2 pi)``, so each
    entry is ``sum_i n pi (1-pi) (1-2 pi) g_r g_j g_s``.
    """
    return cumulant_bundle(params, data).p


def info_derivative(params: EmaxParams, data: ObservationSet) -> np.ndarray:
    """Analytic derivative of the expected information, stacked over ``s``.

    Satisfies the exchanged-index decomposition
    ``dI[r,j,s] = p[r,j,s] + k2_1[r,s,j] + k2_1[j,s,r]`` and the contraction
    identity ``dI_s = -k3_s - k2_1_s`` (both verified in the test suite).
    """
    return cumulant_bundle(params, data).dI
