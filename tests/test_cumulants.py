from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emaxbr import (
    DerivTensors,
    EmaxParams,
    ObservationSet,
    cumulant_bundle,
    deriv_tensors,
    expected_information,
    hessian,
    info_derivative,
    kappa_rj_l,
    kappa_rjl,
    p_tensor,
    score,
)

from conftest import enumerate_outcomes, random_dataset, random_params, well_conditioned_point

SMALL_DESIGNS = [
    # (params, dataset) with total n <= 12: exact enumeration is feasible
    (
        EmaxParams(-1.0, 2.0, np.log(3.0)),
        ObservationSet(np.array([0.0, 2.0, 9.0]), np.array([4.0, 4.0, 4.0]), np.array([1.0, 2.0, 3.0])),
    ),
    (
        EmaxParams(0.5, -1.5, np.log(10.0)),
        ObservationSet(np.array([0.0, 8.0]), np.array([6.0, 6.0]), np.array([3.0, 2.0])),
    ),
    (
        EmaxParams(-2.0, 3.0, np.log(1.5)),
        ObservationSet(np.array([0.0, 1.0, 4.0, 16.0]), np.array([3.0, 3.0, 3.0, 3.0]), np.array([1.0, 1.0, 2.0, 2.0])),
    ),
    (
        EmaxParams(1.0, 1.0, np.log(5.0)),
        ObservationSet(np.array([0.0, 5.0]), np.array([5.0, 7.0]), np.array([2.0, 4.0])),
    ),
]


def _second_order_from(tens: DerivTensors, data: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-form oracle: ``d2I[r,j,s,t] = d dI[r,j,s] / dtheta_t`` and ``dB[r,j,s,t]``.

    ``B = p + k2_1`` is the modified-score adjustment tensor.  Differentiating
    the weights once more gives ``w2 = w (1 - 6 pi + 6 pi^2)``; with
    ``w1 = w (1-2 pi)`` and sums over arms:

    * ``d2I = sum_i [w2 g_r g_j g_s g_t
      + w1 (h_st g_r g_j + h_rt g_j g_s + h_jt g_r g_s + h_rs g_j g_t + h_js g_r g_t)
      + w (t_rst g_j + g_r t_jst + h_rs h_jt + h_rt h_js)]``
    * ``dB  = sum_i [w2 g_r g_j g_s g_t
      + w1 (h_rt g_j g_s + h_jt g_r g_s + h_st g_r g_j + h_rj g_s g_t)
      + w (t_rjt g_s + h_rj h_st)]``

    The estimators build their Jacobians from per-arm quantities instead;
    these tensors are the reference those are checked against.
    """
    g, h, t = tens.g, tens.h, tens.t
    w = data.n * tens.pi * (1.0 - tens.pi)
    w1 = w * (1.0 - 2.0 * tens.pi)
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


def _richardson_slice(func, params: EmaxParams, s: int, h: float = 1e-3) -> np.ndarray:
    """Fourth-order finite-difference derivative of a matrix function."""
    theta = params.as_array()

    def diff(step: float) -> np.ndarray:
        up, dn = theta.copy(), theta.copy()
        up[s] += step
        dn[s] -= step
        return (func(EmaxParams.from_array(up)) - func(EmaxParams.from_array(dn))) / (
            2.0 * step
        )

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


class TestExactEnumeration:
    """Exact-expectation oracles on every small design (total n <= 12)."""

    @pytest.mark.parametrize("params,data", SMALL_DESIGNS)
    def test_third_cumulant_is_expected_third_derivative(self, params, data):
        # E[d^3 l] = d/dtheta_l of the outcome-weighted expected Hessian
        # (weights held fixed), evaluated by fourth-order differences.
        outcomes = list(enumerate_outcomes(data, params))

        def expected_hessian(p: EmaxParams) -> np.ndarray:
            return sum(prob * hessian(p, out) for prob, out in outcomes)

        k3 = kappa_rjl(params, data)
        for s in range(3):
            np.testing.assert_allclose(
                k3[:, :, s],
                _richardson_slice(expected_hessian, params, s),
                rtol=1e-9,
                atol=1e-9,
            )

    @pytest.mark.parametrize("params,data", SMALL_DESIGNS)
    def test_mixed_cumulant_is_expected_hessian_score_product(self, params, data):
        target = np.zeros((3, 3, 3))
        for prob, out in enumerate_outcomes(data, params):
            h = hessian(params, out)
            u = score(params, out)
            target += prob * np.einsum("rj,l->rjl", h, u)
        np.testing.assert_allclose(kappa_rj_l(params, data), target, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("params,data", SMALL_DESIGNS)
    def test_p_tensor_is_expected_score_triple_product(self, params, data):
        target = np.zeros((3, 3, 3))
        for prob, out in enumerate_outcomes(data, params):
            u = score(params, out)
            target += prob * np.einsum("r,j,l->rjl", u, u, u)
        np.testing.assert_allclose(p_tensor(params, data), target, rtol=1e-10, atol=1e-10)


class TestInfoDerivative:
    def test_matches_finite_difference_information(self, rng):
        for _ in range(20):
            params = random_params(rng)
            data = random_dataset(rng)
            dI = info_derivative(params, data)
            for s in range(3):
                fd = _richardson_slice(
                    lambda p: expected_information(p, data), params, s
                )
                np.testing.assert_allclose(dI[:, :, s], fd, rtol=1e-8, atol=1e-8)

    def test_index_exchange_decomposition(self, rng):
        for _ in range(20):
            params = random_params(rng)
            data = random_dataset(rng)
            b = cumulant_bundle(params, data)
            # recon[r, j, s] = p[r, j, s] + k2_1[r, s, j] + k2_1[j, s, r]
            recon = (
                b.p
                + np.transpose(b.k2_1, (0, 2, 1))
                + np.transpose(b.k2_1, (2, 0, 1))
            )
            np.testing.assert_allclose(b.dI, recon, rtol=1e-12, atol=1e-12)

    def test_contraction_identity(self, rng):
        for _ in range(20):
            params = random_params(rng)
            data = random_dataset(rng)
            b = cumulant_bundle(params, data)
            np.testing.assert_allclose(b.dI, -(b.k3 + b.k2_1), rtol=1e-12, atol=1e-12)


class TestSecondOrder:
    """``d2I`` and ``dB`` against differences of the first-order tensors."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_d2I_is_derivative_of_info_derivative(self, seed):
        params, data = well_conditioned_point(seed)
        d2I, _ = _second_order_from(deriv_tensors(params, data), data)
        for t in range(3):
            fd = _richardson_slice(lambda p: info_derivative(p, data), params, t)
            np.testing.assert_allclose(d2I[..., t], fd, rtol=1e-8, atol=1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_dB_is_derivative_of_modified_score_tensor(self, seed):
        params, data = well_conditioned_point(seed)
        _, dB = _second_order_from(deriv_tensors(params, data), data)
        for t in range(3):
            fd = _richardson_slice(
                lambda p: p_tensor(p, data) + kappa_rj_l(p, data), params, t
            )
            np.testing.assert_allclose(dB[..., t], fd, rtol=1e-8, atol=1e-8)


class TestSymmetryAndScaling:
    def test_symmetries(self, rng):
        for _ in range(10):
            b = cumulant_bundle(random_params(rng), random_dataset(rng))
            for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
                np.testing.assert_allclose(b.k3, np.transpose(b.k3, perm), atol=1e-12)
                np.testing.assert_allclose(b.p, np.transpose(b.p, perm), atol=1e-12)
            np.testing.assert_allclose(b.k2_1, np.transpose(b.k2_1, (1, 0, 2)), atol=1e-12)
            np.testing.assert_allclose(b.dI, np.transpose(b.dI, (1, 0, 2)), atol=1e-12)

    def test_linear_in_replication(self, rng):
        params = random_params(rng)
        data = random_dataset(rng)
        data3 = ObservationSet(data.doses, 3.0 * data.n, 3.0 * data.events)
        b1 = cumulant_bundle(params, data)
        b3 = cumulant_bundle(params, data3)
        for a, b in ((b1.k3, b3.k3), (b1.k2_1, b3.k2_1), (b1.p, b3.p), (b1.dI, b3.dI)):
            np.testing.assert_allclose(3.0 * a, b, rtol=1e-12)
