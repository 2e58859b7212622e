"""Higher-order likelihood cumulants for the binary Emax model.

These dense ``3 x 3 x 3`` tensors are the raw material for the analytic
bias correction and the modified-score adjustment:

* ``kappa_rjl``  — expected third derivatives of the log-likelihood,
* ``kappa_rj_l`` — mixed cumulants ``E[H_rj U_l]``,
* ``p_tensor``   — third-central-moment contractions ``E[U U^T U_s]``,
* ``info_derivative`` — analytic ``dI/dtheta_s``.

All four are assembled from the generic binary-logit identities applied to
the eta-derivative tensors, with binomial weights ``w = n pi (1-pi)`` and
skewness weights ``w (1-2 pi)`` per arm.  The derivatives of ``dI`` and of
``p + kappa_rj_l``, which the exact solver Jacobians need, come from the same
tensors (``_second_order_from``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DerivTensors, EmaxParams, ObservationSet, deriv_tensors

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
    return _bundle_from(deriv_tensors(params, data), data)


def _weights(tens: DerivTensors, data: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm ``w = n pi (1-pi)`` and its eta-derivative ``w (1-2 pi)``."""
    w = data.n * tens.pi * (1.0 - tens.pi)
    return w, w * (1.0 - 2.0 * tens.pi)


def _bundle_from(tens: DerivTensors, data: ObservationSet) -> CumulantBundle:
    """:func:`cumulant_bundle` from derivative tensors the caller already holds."""
    g, h = tens.g, tens.h
    w, w3 = _weights(tens, data)
    ggg = np.einsum("i,ir,ij,il->rjl", w3, g, g, g)
    hg = np.einsum("i,irj,il->rjl", w, h, g)
    hg_rl_j = np.einsum("i,irl,ij->rjl", w, h, g)
    gh_r_jl = np.einsum("i,ir,ijl->rjl", w, g, h)
    k3 = -ggg - hg_rl_j - gh_r_jl - hg
    dI = ggg + hg_rl_j + gh_r_jl
    return CumulantBundle(k3=k3, k2_1=hg, p=ggg, dI=dI)


def _second_order_from(
    tens: DerivTensors, data: ObservationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives ``d2I[r,j,s,t] = d dI[r,j,s] / dtheta_t`` and ``dB[r,j,s,t]``.

    ``B = p + k2_1`` is the modified-score adjustment tensor.  Differentiating
    the weights once more gives ``w2 = w (1 - 6 pi + 6 pi^2)``; with
    ``w1 = w (1-2 pi)`` and sums over arms:

    * ``d2I = sum_i [w2 g_r g_j g_s g_t
      + w1 (h_st g_r g_j + h_rt g_j g_s + h_jt g_r g_s + h_rs g_j g_t + h_js g_r g_t)
      + w (t_rst g_j + g_r t_jst + h_rs h_jt + h_rt h_js)]``
    * ``dB  = sum_i [w2 g_r g_j g_s g_t
      + w1 (h_rt g_j g_s + h_jt g_r g_s + h_st g_r g_j + h_rj g_s g_t)
      + w (t_rjt g_s + h_rj h_st)]``

    These are the ingredients of the exact Jacobians of the penalized and
    modified scores.
    """
    g, h, t = tens.g, tens.h, tens.t
    w, w1 = _weights(tens, data)
    w2 = w * (1.0 - 6.0 * tens.pi * (1.0 - tens.pi))
    # Every term is an index permutation of one of four arm sums; each
    # transpose below is marked with the term it yields at [r, j, s, t].
    hgg = np.einsum("i,iab,ic,id->abcd", w1, h, g, g)  # h_ab g_c g_d
    tg = np.einsum("i,iabc,id->abcd", w, t, g)  # t_abc g_d
    hh = np.einsum("i,iab,icd->abcd", w, h, h)  # h_ab h_cd
    shared = (
        np.einsum("i,ir,ij,is,it->rjst", w2, g, g, g, g)
        + hgg.transpose(2, 3, 0, 1)  # h_st g_r g_j
        + hgg.transpose(0, 2, 3, 1)  # h_rt g_j g_s
        + hgg.transpose(2, 0, 3, 1)  # h_jt g_r g_s
    )
    d2I = (
        shared
        + hgg.transpose(0, 2, 1, 3)  # h_rs g_j g_t
        + hgg.transpose(2, 0, 1, 3)  # h_js g_r g_t
        + tg.transpose(0, 3, 1, 2)  # t_rst g_j
        + tg.transpose(3, 0, 1, 2)  # g_r t_jst
        + hh.transpose(0, 2, 1, 3)  # h_rs h_jt
        + hh.transpose(0, 2, 3, 1)  # h_rt h_js
    )
    dB = shared + hgg + tg.transpose(0, 1, 3, 2) + hh  # ... + h_rj g_s g_t + t_rjt g_s + h_rj h_st
    return d2I, dB


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
