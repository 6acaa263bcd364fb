import numpy as np
import pytest

from corrcascades import FitConfig, ModelParams, SoftMaxMark, make_recovery_model, run_recovery
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


class TestRunRecovery:
    def test_generates_and_fits_at_the_configured_beta(self):
        # the log is generated and fitted at the config's beta, not at a default of its own
        result = run_recovery(
            seed=1, n_users=3, n_products=2, train_events=60, test_events=20,
            fit_config=FitConfig(beta=2.0, n_workers=1),
        )
        assert result.true_params.mark == SoftMaxMark(2.0)
        assert [r.fraction for r in result.rows] == [k / 10 for k in range(1, 11)]
        assert all(np.isfinite(r.mse) for r in result.rows)
