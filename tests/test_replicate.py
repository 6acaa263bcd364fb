import numpy as np
import pytest

from corrcascades import ModelParams, SoftMaxMark, make_recovery_model
from corrcascades.replicate import expected_event_rate


class TestRecoveryModel:
    def test_default_alpha_scale_unchanged_at_fifty_users(self):
        a = make_recovery_model(np.random.default_rng(0), n_users=50)
        b = make_recovery_model(np.random.default_rng(0), n_users=50, alpha_high=0.01)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_default_stays_subcritical_at_two_hundred_users(self):
        params = make_recovery_model(np.random.default_rng(0), n_users=200)
        rate = expected_event_rate(params)
        assert np.isfinite(rate)
        # at least the baseline rate, at most baseline / (1 - 0.5)
        assert params.mu.sum() <= rate <= 2.0 * params.mu.sum()


class TestExpectedEventRate:
    def test_poisson_rate(self):
        params = ModelParams(np.full((2, 3), 0.1), np.zeros((2, 2)), SoftMaxMark(1.0))
        assert expected_event_rate(params) == pytest.approx(0.6)

    def test_supercritical_rejected(self):
        # the fixed alpha scale that N=200 used to get: spectral radius ~ 1
        params = make_recovery_model(np.random.default_rng(0), n_users=200, alpha_high=0.01)
        with pytest.raises(ValueError, match="supercritical"):
            expected_event_rate(params)
        with pytest.raises(ValueError, match="supercritical"):
            expected_event_rate(
                ModelParams(np.full((1, 1), 0.1), np.full((1, 1), 1.0), SoftMaxMark(1.0))
            )
