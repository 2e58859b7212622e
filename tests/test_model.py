from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from emaxbr import (
    EmaxParams,
    ObservationSet,
    deriv_tensors,
    eta,
    expected_information,
    hessian,
    log_likelihood,
    predict_prob,
    score,
)

from conftest import enumerate_outcomes, random_dataset, random_params


class TestEmaxParams:
    def test_round_trip_array(self):
        p = EmaxParams(-2.0, 3.5, 1.7)
        assert EmaxParams.from_array(p.as_array()) == p

    def test_ed50_is_exp_phi(self):
        assert EmaxParams(0.0, 1.0, np.log(25.0)).ed50() == pytest.approx(25.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmaxParams(np.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            EmaxParams(0.0, np.inf, 0.0)


class TestObservationSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationSet(np.array([0.0, 0.0]), np.array([5.0, 5.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ObservationSet(np.array([0.0, 10.0]), np.array([5.0, 5.0]), np.array([6.0, 1.0]))
        with pytest.raises(ValueError):
            ObservationSet(np.array([-1.0, 10.0]), np.array([5.0, 5.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ObservationSet(np.array([0.0, 10.0]), np.array([5.0, 0.0]), np.array([1.0, 0.0]))

    def test_subject_round_trip(self):
        d = ObservationSet(
            np.array([0.0, 10.0, 50.0]), np.array([4.0, 3.0, 5.0]), np.array([1.0, 0.0, 5.0])
        )
        dose, y = d.to_subjects()
        back = ObservationSet.from_subjects(dose, y)
        np.testing.assert_array_equal(back.doses, d.doses)
        np.testing.assert_array_equal(back.n, d.n)
        np.testing.assert_array_equal(back.events, d.events)

    def test_from_subjects_is_order_invariant(self, rng):
        d = random_dataset(rng)
        dose, y = d.to_subjects()
        perm = rng.permutation(len(dose))
        back = ObservationSet.from_subjects(dose[perm], y[perm])
        np.testing.assert_array_equal(back.events, d.events)

    def test_extremes(self):
        d = ObservationSet(np.array([0.0, 5.0, 20.0]), np.array([3.0] * 3), np.array([1.0] * 3))
        assert d.dmax() == 20.0
        assert d.dmin_positive() == 5.0
        assert d.n_total == 9


class TestEta:
    def test_dose_zero_gives_e0(self):
        p = EmaxParams(-1.3, 2.0, np.log(10.0))
        assert eta(p, 0.0) == pytest.approx(-1.3)

    def test_saturates_at_e0_plus_emax(self):
        p = EmaxParams(-1.3, 2.0, np.log(10.0))
        assert eta(p, 1e12) == pytest.approx(0.7, abs=1e-6)

    def test_half_effect_at_ed50(self):
        p = EmaxParams(0.0, 2.0, np.log(40.0))
        assert eta(p, 40.0) == pytest.approx(1.0)

    def test_huge_log_ed50_is_silent_and_flat(self):
        doses = np.array([0.0, 7.5, 225.0, 1e6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                predict_prob(EmaxParams(-1.0, 2.0, 1e3), doses), np.full(4, expit(-1.0))
            )

    def test_tiny_log_ed50_is_silent_and_e0_at_dose_zero(self):
        # exp(phi) underflows to 0 here, so dose 0 is 0 / 0 before the limit.
        p = EmaxParams(-1.0, 2.0, -800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(eta(p, np.array([0.0, 1.0])), [-1.0, 1.0])
            np.testing.assert_array_equal(predict_prob(p, [0.0, 1.0]), expit([-1.0, 1.0]))
            assert eta(p, 0.0) == -1.0

    def test_predict_prob_in_unit_interval(self, rng):
        for _ in range(20):
            p = random_params(rng)
            probs = predict_prob(p, np.array([0.0, 1.0, 50.0, 1e4]))
            assert np.all((probs > 0) & (probs < 1))


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[i] += h * max(1.0, abs(x[i]))
        dn[i] -= h * max(1.0, abs(x[i]))
        g[i] = (f(up) - f(dn)) / (2.0 * h * max(1.0, abs(x[i])))
    return g


class TestDerivTensors:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            p = random_params(rng)
            d = random_dataset(rng)
            tens = deriv_tensors(p, d)
            for i, dose in enumerate(d.doses):
                g_fd = _fd_grad(
                    lambda th: eta(EmaxParams.from_array(th), dose), p.as_array()
                )
                np.testing.assert_allclose(tens.g[i], g_fd, rtol=1e-6, atol=1e-8)

    def test_hessian_slices_match_finite_differences(self, rng):
        for _ in range(10):
            p = random_params(rng)
            d = random_dataset(rng)
            tens = deriv_tensors(p, d)
            for i, dose in enumerate(d.doses):
                for r in range(3):
                    h_fd = _fd_grad(
                        lambda th: deriv_tensors(
                            EmaxParams.from_array(th), d
                        ).g[i, r],
                        p.as_array(),
                    )
                    np.testing.assert_allclose(tens.h[i, r], h_fd, rtol=2e-5, atol=1e-7)

    def test_third_order_matches_finite_differences(self, rng):
        for _ in range(5):
            p = random_params(rng)
            d = random_dataset(rng)
            tens = deriv_tensors(p, d)
            for i in range(len(d.doses)):
                for r in range(3):
                    for j in range(3):
                        t_fd = _fd_grad(
                            lambda th: deriv_tensors(
                                EmaxParams.from_array(th), d
                            ).h[i, r, j],
                            p.as_array(),
                            h=1e-5,
                        )
                        np.testing.assert_allclose(
                            tens.t[i, r, j], t_fd, rtol=5e-4, atol=1e-6
                        )

    def test_symmetry(self, rng):
        p = random_params(rng)
        d = random_dataset(rng)
        tens = deriv_tensors(p, d)
        np.testing.assert_array_equal(tens.h, np.swapaxes(tens.h, 1, 2))
        for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)):
            np.testing.assert_array_equal(tens.t, np.transpose(tens.t, perm))


class TestLikelihoodQuantities:
    def test_score_matches_finite_difference_loglik(self, rng):
        for _ in range(20):
            p = random_params(rng)
            d = random_dataset(rng)
            g_fd = _fd_grad(
                lambda th: log_likelihood(EmaxParams.from_array(th), d), p.as_array()
            )
            np.testing.assert_allclose(score(p, d), g_fd, rtol=1e-6, atol=1e-6)

    def test_hessian_matches_finite_difference_score(self, rng):
        for _ in range(10):
            p = random_params(rng)
            d = random_dataset(rng)
            h_fd = np.column_stack(
                [
                    _fd_grad(
                        lambda th: score(EmaxParams.from_array(th), d)[r], p.as_array()
                    )
                    for r in range(3)
                ]
            ).T
            np.testing.assert_allclose(hessian(p, d), h_fd, rtol=1e-5, atol=1e-5)

    def test_loglik_nonpositive(self, rng):
        for _ in range(10):
            assert log_likelihood(random_params(rng), random_dataset(rng)) <= 0.0

    def test_information_is_minus_expected_hessian(self, rng):
        p = EmaxParams(-1.0, 2.0, np.log(3.0))
        d = ObservationSet(np.array([0.0, 2.0, 9.0]), np.array([4.0, 4.0, 4.0]), np.array([1.0, 2.0, 3.0]))
        expected_h = np.zeros((3, 3))
        total_prob = 0.0
        for prob, outcome in enumerate_outcomes(d, p):
            expected_h += prob * hessian(p, outcome)
            total_prob += prob
        assert total_prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(-expected_h, expected_information(p, d), rtol=1e-10)

    def test_information_psd_and_symmetric(self, rng):
        for _ in range(10):
            info = expected_information(random_params(rng), random_dataset(rng))
            np.testing.assert_allclose(info, info.T, rtol=1e-12)
            assert np.all(np.linalg.eigvalsh(info) > -1e-10)

    def test_score_zero_mean_exact(self):
        p = EmaxParams(-0.5, 1.5, np.log(4.0))
        d = ObservationSet(np.array([0.0, 3.0, 12.0]), np.array([3.0, 3.0, 3.0]), np.array([1.0, 1.0, 1.0]))
        mean_u = np.zeros(3)
        for prob, outcome in enumerate_outcomes(d, p):
            mean_u += prob * score(p, outcome)
        np.testing.assert_allclose(mean_u, 0.0, atol=1e-12)

    def test_information_scales_with_replication(self, rng):
        p = random_params(rng)
        d = random_dataset(rng)
        d4 = ObservationSet(d.doses, 4.0 * d.n, 4.0 * d.events)
        np.testing.assert_allclose(
            expected_information(p, d4), 4.0 * expected_information(p, d), rtol=1e-12
        )


@given(
    e0=st.floats(-4, 4),
    emax=st.floats(-5, 5),
    phi=st.floats(-1, 5),
    scale=st.floats(0.1, 10),
)
@settings(max_examples=50, deadline=None)
def test_dose_scale_and_phi_shift_equivalence(e0, emax, phi, scale):
    """Rescaling doses by c while shifting phi by log(c) leaves eta invariant."""
    doses = np.array([0.0, 4.0, 20.0, 100.0])
    a = eta(EmaxParams(e0, emax, phi), doses)
    b = eta(EmaxParams(e0, emax, phi + np.log(scale)), doses * scale)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
