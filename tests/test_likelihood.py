import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrcascades import (
    EventLog,
    InfeasibleLikelihoodError,
    LinearMark,
    ModelParams,
    SoftMaxMark,
    build_all_features,
    total_nll,
    window_nll,
)

from corrcascades.likelihood import BLOCK, _block_starts, _block_sweep, _event_loglik, _window_tendencies
from corrcascades.fitting import _TINY, _eval_features, _hessian_core, _hessian_factor, _ridge_step
from corrcascades.metrics import avg_pred_loglik, held_out_score
from corrcascades.model import decayed_counts

from conftest import (
    brute_counts,
    brute_hessian,
    brute_intensity,
    brute_mark_density,
    brute_tendency,
    brute_total_nll,
    brute_window_nll,
    random_log,
    random_params,
    tied_log,
    user_nll,
    user_nll_gradient,
)


def _sum_user_nll(log, params):
    """Whole-log NLL through the per-user feature path (soft-max marks)."""
    features = build_all_features(log)
    return sum(
        user_nll(features[u], np.concatenate([params.alpha[:, u], params.mu[u]]), params.mark.beta)
        for u in range(log.n_users)
    )


class TestLogSumExp:
    """The soft-max event term beta * g_p - log sum_q exp(beta * g_q), which
    `_event_loglik` evaluates overflow-safe, plus log lambda."""

    def test_singleton(self):
        # one product: the mark term vanishes and only log lambda is left
        ll = _event_loglik(np.array([[0.7]]), np.array([0]), SoftMaxMark(3.0))[0]
        assert ll == pytest.approx(math.log(0.7), rel=1e-14)

    def test_pair_no_overflow(self):
        ll = _event_loglik(np.array([[1000.0, 1000.0]]), np.array([1]), SoftMaxMark(1.0))[0]
        assert ll == pytest.approx(math.log(2000.0) - math.log(2), rel=1e-14)

    def test_hand_value(self):
        # log(1 + 2 + 3) + 3 - log(e + e^2 + e^3)
        ll = _event_loglik(np.array([[1.0, 2.0, 3.0]]), np.array([2]), SoftMaxMark(1.0))[0]
        assert ll == pytest.approx(math.log(6.0) + 3.0 - 3.407606, abs=1e-6)

    def test_huge_inputs(self):
        ll = _event_loglik(np.array([[1e300, 1e300]]), np.array([0]), SoftMaxMark(1.0))[0]
        assert math.isfinite(ll)

    def test_large_baselines_match_rescan(self):
        # mu near 1000 with beta = 1: a naive exp(beta * g) overflows
        rng = np.random.default_rng(83)
        for _ in range(10):
            log = random_log(rng, max_events=20)
            params = random_params(rng, log.n_users, log.n_products)
            params = ModelParams(params.mu + 1000.0, params.alpha, SoftMaxMark(1.0))
            brute = brute_total_nll(log, params, use_quad=False)
            assert window_nll(log, params, 0.0, log.horizon) == pytest.approx(brute, rel=1e-10)
            assert _sum_user_nll(log, params) == pytest.approx(brute, rel=1e-10)


def _single_event_setup():
    log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
    return build_all_features(log)[0], np.array([0.1, 0.5])


class TestUserNll:
    def test_single_event_hand_value(self):
        features, theta = _single_event_setup()
        expected = -(math.log(0.5) - (1.0 + 0.1 * (1 - math.exp(-1))))
        assert user_nll(features, theta, beta=1.0) == pytest.approx(expected, rel=1e-12)

    def test_single_product_beta_terms_cancel(self):
        # with M = 1 the value is the plain unmarked Hawkes NLL for any beta
        rng = np.random.default_rng(31)
        log = random_log(rng, n_users=2, n_products=1, max_events=15)
        theta = np.concatenate([rng.uniform(0.01, 0.3, 2), rng.uniform(0.2, 1.0, 1)])
        features = build_all_features(log)[0]
        values = {beta: user_nll(features, theta, beta) for beta in (0.1, 1.0, 50.0)}
        base = values[1.0]
        for v in values.values():
            assert v == pytest.approx(base, rel=1e-12)

    def test_zero_params_with_events_infeasible(self):
        features, _ = _single_event_setup()
        with pytest.raises(InfeasibleLikelihoodError):
            user_nll(features, np.zeros(2), beta=1.0)

    def test_features_cache_matches_rescan(self):
        # oracle equivalence: cached features vs from-scratch rescans
        rng = np.random.default_rng(37)
        for _ in range(20):
            log = random_log(rng, max_events=20)
            params = random_params(rng, log.n_users, log.n_products)
            total_cached = _sum_user_nll(log, params)
            total_brute = brute_total_nll(log, params, use_quad=False)
            assert total_cached == pytest.approx(total_brute, rel=1e-10)


class TestTotalNll:
    def test_empty_log_is_survival_only(self):
        rng = np.random.default_rng(41)
        params = random_params(rng, 3, 2)
        log = EventLog([], 4.0, 3, 2)
        assert total_nll(log, params) == pytest.approx(4.0 * params.mu.sum(), rel=1e-12)

    def test_silent_user_adds_compensator(self):
        mu = np.array([[0.5], [0.3]])
        alpha = np.zeros((2, 2))
        alpha[0, 0] = 0.1
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        log = EventLog([(1.0, 0, 0)], 2.0, 2, 1)
        one_user = -(math.log(0.5) - (1.0 + 0.1 * (1 - math.exp(-1))))
        assert total_nll(log, params) == pytest.approx(one_user + 0.6, rel=1e-12)

    def test_decomposes_into_user_terms(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            per_user = _sum_user_nll(log, params)
            assert total_nll(log, params) == pytest.approx(per_user, rel=1e-12)
            # independent path through the windowed evaluator
            assert window_nll(log, params, 0.0, log.horizon) == pytest.approx(
                total_nll(log, params), rel=1e-10
            )

    def test_likelihood_factorization_single_stream(self):
        # one user, one product: exp(-NLL) equals the product of interevent
        # densities times the final survival factor
        rng = np.random.default_rng(47)
        log = random_log(rng, n_users=1, n_products=1, max_events=12)
        params = random_params(rng, 1, 1, alpha_high=0.4)
        mu, a = params.mu[0, 0], params.alpha[0, 0]

        def lam(t):
            mask = log.times < t
            return mu + (a * np.exp(-(t - log.times[mask]))).sum()

        def integral(t0, t1):
            mask = log.times < t1
            ts = log.times[mask]
            return mu * (t1 - t0) + a * float(
                (np.exp(-np.maximum(t0 - ts, 0)) - np.exp(-(t1 - ts))).sum()
            )

        log_lik = 0.0
        prev = 0.0
        for t in log.times:
            log_lik += math.log(lam(float(t))) - integral(prev, float(t))
            prev = float(t)
        log_lik -= integral(prev, log.horizon)
        assert math.exp(-total_nll(log, params)) == pytest.approx(
            math.exp(log_lik), rel=1e-8
        )


class TestGradient:
    @staticmethod
    def _fd_gradient(features, theta, beta, step=1e-6):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += step
            lo[i] = max(lo[i] - step, 1e-12)
            f_hi = user_nll(features, hi, beta)
            f_lo = user_nll(features, lo, beta)
            grad[i] = (f_hi - f_lo) / (hi[i] - lo[i])
        return grad

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(50):
            log = random_log(rng)
            if len(log) == 0:
                continue
            beta = float(rng.uniform(0.3, 3.0))
            theta = np.concatenate(
                [rng.uniform(0.05, 0.4, log.n_users), rng.uniform(0.1, 1.0, log.n_products)]
            )
            features = build_all_features(log)[int(rng.integers(log.n_users))]
            analytic = user_nll_gradient(features, theta, beta)
            numeric = self._fd_gradient(features, theta, beta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
            checked += 1
        assert checked >= 30

    def test_single_product_mark_terms_cancel(self):
        rng = np.random.default_rng(59)
        log = random_log(rng, n_users=2, n_products=1, max_events=10)
        theta = np.concatenate([rng.uniform(0.05, 0.2, 2), [0.5]])
        features = build_all_features(log)[0]
        grad = user_nll_gradient(features, theta, beta=1.0)
        # d/d mu = -sum 1/lambda + T regardless of beta
        g = np.einsum("j,jiq->i", theta[:2], features.jac[:2]) + theta[2]
        expected_mu = -np.sum(1.0 / g) + log.horizon if len(g) else log.horizon
        assert grad[-1] == pytest.approx(expected_mu, rel=1e-10)
        grad2 = user_nll_gradient(features, theta, beta=7.0)
        np.testing.assert_allclose(grad, grad2, rtol=1e-10)

    def test_silent_user_zero_alpha_pure_compensator(self):
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        theta = np.array([1e-9, 1e-9, 0.2, 0.3])
        grad = user_nll_gradient(build_all_features(log)[1], theta, beta=1.0)
        np.testing.assert_allclose(grad[2:], 3.0, rtol=1e-12)


class TestHessian:
    @staticmethod
    def _tied_log(rng):
        # times on a coarse grid, so several events share a time stamp
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        horizon = float(rng.uniform(2.0, 8.0))
        k = int(rng.integers(1, 30))
        times = np.sort(np.floor(rng.uniform(0.0, horizon, k)))
        return EventLog(zip(times, rng.integers(0, n, k), rng.integers(0, m, k)), horizon, n, m)

    def test_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(67)
        step = 1e-6
        checked = 0
        for _ in range(40):
            log = self._tied_log(rng)
            n, m = log.n_users, log.n_products
            user = int(rng.integers(n))
            features = build_all_features(log)[user]
            if features.n_events == 0:
                continue
            beta = float(rng.uniform(0.3, 3.0))
            theta = np.concatenate(
                [rng.uniform(0.05, 0.4, n), rng.uniform(0.1, 1.0, m)]
            )
            _, f, lam = _eval_features(features, theta, SoftMaxMark(beta))
            x = _hessian_factor(features.jac, _hessian_core(beta, f, lam))
            assert x.shape == (n + m, features.n_events * (m + 1))
            hess = x @ x.T
            numeric = np.zeros_like(hess)
            for i in range(n + m):
                hi, lo = theta.copy(), theta.copy()
                hi[i] += step
                lo[i] -= step
                numeric[:, i] = (
                    user_nll_gradient(features, hi, beta)
                    - user_nll_gradient(features, lo, beta)
                ) / (2 * step)
            scale = np.abs(numeric).max()
            assert np.abs(hess - numeric).max() <= 1e-6 * scale
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(hess).min() >= -1e-12 * scale
            checked += 1
        assert checked >= 25

    def test_row_norms_and_row_subsets_of_the_factor(self):
        # every user of each log, silent ones included; the solver reads the
        # diagonal as the squared row norms of the factor of the active rows
        # off the bound, and steps on the factor of the free rows, so both
        # come from the factor of a row subset, which must be those rows of
        # the full factor
        rng = np.random.default_rng(71)
        eps = np.finfo(float).eps
        checked = silent = 0
        for _ in range(40):
            log = self._tied_log(rng)
            n, m = log.n_users, log.n_products
            theta = np.concatenate([rng.uniform(0.05, 0.4, n), rng.uniform(0.1, 1.0, m)])
            beta = float(rng.uniform(0.3, 3.0))
            for features in build_all_features(log).values():
                _, f, lam = _eval_features(features, theta, SoftMaxMark(beta))
                core = _hessian_core(beta, f, lam)
                x = _hessian_factor(features.jac, core)
                diagonal = np.einsum("ij,ij->i", x, x)
                np.testing.assert_allclose(diagonal, np.diag(x @ x.T), rtol=1e-12, atol=0)
                live = features.jac.reshape(n + m, -1).any(axis=1)
                assert np.all(diagonal[live] > 0) and not diagonal[~live].any()
                if features.n_events == 0:  # a silent user has no curvature at all
                    assert x.shape == (n + m, 0) and not live.any()
                # each entry is a dot product of length M, exact to M ulps of
                # the same product on absolute values; a one-row subset goes
                # through BLAS's vector product, whose rounding may differ
                # from the matrix product's in the last bit
                magnitude = _hessian_factor(np.abs(features.jac), np.abs(core))
                half = rng.random(n + m) < 0.5
                one = np.arange(n + m) == rng.integers(n + m)
                for rows in (half, np.zeros(n + m, dtype=bool), one, np.ones(n + m, dtype=bool)):
                    part = _hessian_factor(features.jac[rows], core)
                    assert part.shape == (rows.sum(), features.n_events * (m + 1))
                    assert np.all(np.abs(part - x[rows]) <= 2 * m * eps * magnitude[rows])
                    np.testing.assert_allclose(
                        np.einsum("ij,ij->i", part, part), diagonal[rows], rtol=1e-12, atol=0
                    )
                checked += 1
                silent += features.n_events == 0
        assert checked >= 100 and silent >= 5

    def test_event_space_step_matches_direct_solve(self):
        # free blocks with more rows than factor columns, |F| > K(M+1), take
        # the Woodbury step; it must equal the direct ridge solve
        rng = np.random.default_rng(73)
        checked = silent = 0
        for _ in range(300):
            log = self._tied_log(rng)
            n, m = log.n_users, log.n_products
            theta = np.concatenate([rng.uniform(0.05, 0.4, n), rng.uniform(0.1, 1.0, m)])
            beta = float(rng.uniform(0.3, 3.0))
            for features in build_all_features(log).values():
                cols = features.n_events * (m + 1)
                if cols >= n + m:
                    continue
                _, f, lam = _eval_features(features, theta, SoftMaxMark(beta))
                free = np.zeros(n + m, dtype=bool)
                free[rng.choice(n + m, int(rng.integers(cols + 1, n + m + 1)), replace=False)] = True
                x = _hessian_factor(features.jac[free], _hessian_core(beta, f, lam))
                grad = rng.normal(size=free.sum())
                ridge = 0.3 * np.linalg.norm(grad) / np.linalg.norm(theta)
                step = _ridge_step(x, grad, ridge)
                direct = np.linalg.solve(x @ x.T + ridge * np.eye(free.sum()), -grad)
                assert np.linalg.norm(step - direct) <= 1e-9 * np.linalg.norm(direct)
                checked += 1
                silent += features.n_events == 0
        assert checked - silent >= 80 and silent >= 20

    def test_silent_user_has_zero_curvature(self):
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        features = build_all_features(log)[1]
        _, f, lam = _eval_features(features, np.array([0.1, 0.2, 0.3, 0.4]), SoftMaxMark(1.0))
        x = _hessian_factor(features.jac, _hessian_core(1.0, f, lam))
        assert not (x @ x.T).any()


class TestHessianMatchesRescan:
    """The factor's Gram X X^T against the event-by-event Hessian of
    `brute_hessian`, for M = 1..7 and beta across the CLI's default grid,
    0.01 to 100, on logs with tied times, a user with one event and a
    silent user (K = 0)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 7), log_beta=st.floats(-2.0, 2.0))
    def test_gram_matches_rescan(self, seed, m, log_beta):
        rng = np.random.default_rng(seed)
        beta = 10.0**log_beta
        n, k = int(rng.integers(3, 6)), int(rng.integers(1, 20))
        # zero steps tie events; user n - 2 has exactly one event, user n - 1 none
        times = np.cumsum(rng.choice([0.0, 0.0, 0.5, 1.0], size=k + 1))
        users = np.insert(rng.integers(0, n - 2, k), int(rng.integers(k + 1)), n - 2)
        log = EventLog.from_arrays(times, users, rng.integers(0, m, k + 1), times[-1] + 1.0, n, m)
        theta = np.concatenate([rng.uniform(0.0, 0.4, n), rng.uniform(0.05, 1.0, m)])
        for user, features in build_all_features(log).items():
            _, f, lam = _eval_features(features, theta, SoftMaxMark(beta))
            x = _hessian_factor(features.jac, _hessian_core(beta, f, lam))
            assert x.shape == (n + m, features.n_events * (m + 1))
            oracle = brute_hessian(log, user, theta, beta)
            assert np.abs(x @ x.T - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert features.n_events == 0 and x.shape == (n + m, 0)


class TestConvexity:
    def test_chord_inequality(self):
        rng = np.random.default_rng(61)
        log = random_log(rng, n_users=3, n_products=2, max_events=20)
        beta = 1.0
        n, m = log.n_users, log.n_products
        features = build_all_features(log)[0]
        for _ in range(200):
            a = rng.uniform(0.01, 1.0, n + m)
            b = rng.uniform(0.01, 1.0, n + m)
            for w in (0.25, 0.5, 0.75):
                mid = w * a + (1 - w) * b
                f_mid = user_nll(features, mid, beta)
                f_a = user_nll(features, a, beta)
                f_b = user_nll(features, b, beta)
                assert f_mid <= w * f_a + (1 - w) * f_b + 1e-9


class TestWindowNll:
    def test_additive_over_adjacent_windows(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            log = random_log(rng, max_events=25)
            params = random_params(rng, log.n_users, log.n_products)
            t1 = log.horizon * 0.4
            whole = window_nll(log, params, 0.0, log.horizon)
            split = window_nll(log, params, 0.0, t1) + window_nll(log, params, t1, log.horizon)
            assert split == pytest.approx(whole, abs=1e-9)

    def test_linear_mark_supported(self):
        rng = np.random.default_rng(71)
        log = random_log(rng, max_events=15)
        params = random_params(rng, log.n_users, log.n_products, beta=None)
        assert math.isfinite(window_nll(log, params, 0.0, log.horizon))

    def test_linear_mark_matches_rescan(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            log = random_log(rng, max_events=20)
            params = random_params(rng, log.n_users, log.n_products, beta=None)
            assert window_nll(log, params, 0.0, log.horizon) == pytest.approx(
                brute_total_nll(log, params), rel=1e-10
            )

    def test_linear_zero_mark_density_infeasible(self):
        # product 1 has no baseline and no excitation at the first event
        params = ModelParams(np.array([[0.5, 0.0]]), np.zeros((1, 1)), LinearMark())
        log = EventLog([(1.0, 0, 1)], 2.0, 1, 2)
        with pytest.raises(InfeasibleLikelihoodError):
            window_nll(log, params, 0.0, 2.0)

    def test_first_event_must_split_at_t_start(self):
        log = EventLog([(1.0, 0, 0), (2.0, 0, 0), (2.0, 0, 0), (3.0, 0, 0)], 4.0, 1, 1)
        params = ModelParams(np.array([[0.5]]), np.array([[0.3]]), SoftMaxMark(1.0))
        # the default starts after the run at t_start
        assert window_nll(log, params, 2.0, 4.0) == window_nll(log, params, 2.0, 4.0, first_event=3)
        for first in (0, 4, 5):
            with pytest.raises(ValueError, match="first_event"):
                window_nll(log, params, 2.0, 4.0, first_event=first)

    def test_dimension_mismatch_rejected(self):
        # unchecked, 3 x 2 parameters scored this 2 x 1 log (as 7.946)
        log = EventLog([(0.5, 0, 0), (1.0, 1, 0)], 2.0, 2, 1)
        params = random_params(np.random.default_rng(89), 3, 2)
        with pytest.raises(ValueError, match="products"):
            window_nll(log, params, 0.0, 2.0)

    def test_bad_window_rejected(self):
        log = EventLog([], 2.0, 1, 1)
        params = ModelParams(np.array([[0.5]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        with pytest.raises(ValueError):
            window_nll(log, params, 1.5, 1.0)


class TestTiedLogsProperty:
    """Ties, and gaps long enough that every decayed count underflows to 0."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_path_matches_rescan(self, seed):
        rng = np.random.default_rng(seed)
        log = tied_log(rng)
        soft = random_params(rng, log.n_users, log.n_products, beta=float(rng.uniform(0.3, 3.0)))
        linear = ModelParams(soft.mu, soft.alpha, LinearMark())
        brute_soft = brute_total_nll(log, soft, use_quad=False)
        assert _sum_user_nll(log, soft) == pytest.approx(brute_soft, rel=1e-10)
        assert total_nll(log, soft) == pytest.approx(brute_soft, rel=1e-10)
        assert total_nll(log, linear) == pytest.approx(
            brute_total_nll(log, linear, use_quad=False), rel=1e-10
        )
        # events at a split time belong to the earlier window, at t = 0 too,
        # so every tied time and 0 are clean splits
        tied = log.times[:-1][np.diff(log.times) == 0]
        for params in (soft, linear):
            whole = total_nll(log, params)
            for t in np.unique(np.append(tied, 0.0)):
                split = window_nll(log, params, 0.0, t, first_event=0) + window_nll(
                    log, params, t, log.horizon
                )
                assert split == pytest.approx(whole, rel=1e-10)


class TestBlockedWindowProperty:
    """Logs long enough that scoring crosses several blocks, with tie runs
    that straddle block boundaries, checked against rescans of each window."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # a split at event 175 of 176: the difference of two prefix NLLs of
    # about 1.4e5 cancels to 0.017, 1.1e-11 off the window's own rescan
    @example(seed=13732)
    def test_windows_match_rescan_differences(self, seed):
        rng = np.random.default_rng(seed)
        log = tied_log(rng, max_events=400, min_events=150)
        assert len(log) > 2 * BLOCK
        soft = random_params(rng, log.n_users, log.n_products, beta=float(rng.uniform(0.3, 3.0)))
        linear = ModelParams(soft.mu, soft.alpha, LinearMark())
        times = log.times
        # a split inside a tie run, and a window inside a gap of 800
        inside = np.flatnonzero(np.diff(times) == 0) + 1
        gap = np.flatnonzero(np.diff(times) == 800.0)
        assert inside.size and gap.size
        split = int(rng.choice(inside))
        t_gap = float(times[int(rng.choice(gap))])

        for params in (soft, linear):
            whole = brute_total_nll(log, params, use_quad=False)
            assert total_nll(log, params) == pytest.approx(whole, rel=1e-10)
            t_split = float(times[split])
            expected = brute_window_nll(log, params, t_split, log.horizon, first_event=split)
            got = window_nll(log, params, t_split, log.horizon, first_event=split)
            assert got == pytest.approx(expected, rel=1e-10)
            g = _window_tendencies(log, params, split, len(log))
            for i in rng.choice(np.arange(split, len(log)), size=20):
                u = log.users[i]
                brute = [brute_tendency(log, params, u, q, times[i]) for q in range(log.n_products)]
                np.testing.assert_allclose(g[i - split], brute, rtol=1e-10)
            # no event falls in (t_a, t_b]; the history before it still counts
            t_a, t_b = t_gap + 0.5, t_gap + 300.0
            expected = brute_window_nll(log, params, t_a, t_b)
            assert window_nll(log, params, t_a, t_b) == pytest.approx(expected, rel=1e-10)


    def test_blocks_bounded_and_on_run_starts(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            # short tie runs and a few of up to 3 * BLOCK events, in random order
            sizes = np.concatenate([
                rng.integers(1, 4, size=int(rng.integers(1, 300))),
                rng.integers(BLOCK - 2, 3 * BLOCK, size=int(rng.integers(0, 4))),
            ])  # fmt: skip
            rng.shuffle(sizes)
            times = np.repeat(np.arange(float(sizes.size)), sizes)
            lo = int(np.searchsorted(times, times[int(rng.integers(0, times.size))], side="left"))
            starts = _block_starts(times, lo, times.size)
            assert starts[0] == lo
            for s, e in zip(starts, starts[1:] + [times.size]):
                assert s < e and (s == 0 or times[s - 1] < times[s])
                assert e - s < 2 * BLOCK or times[s] == times[e - 1]

    def test_long_tie_run_matches_rescan(self):
        # a run of 5 * BLOCK tied events, scored whole and from inside it
        rng = np.random.default_rng(127)
        before, after = np.sort(rng.uniform(0.0, 3.0, 40)), np.sort(rng.uniform(3.5, 5.5, 90))
        times = np.concatenate([before, np.full(5 * BLOCK, 3.5), after])
        n, m = 3, 2
        users, products = rng.integers(0, n, times.size), rng.integers(0, m, times.size)
        log = EventLog.from_arrays(times, users, products, 6.0, n, m)
        soft = random_params(rng, n, m, beta=1.5)
        for params in (soft, ModelParams(soft.mu, soft.alpha, LinearMark())):
            whole = brute_total_nll(log, params, use_quad=False)
            assert total_nll(log, params) == pytest.approx(whole, rel=1e-10)
            split = 40 + 2 * BLOCK + 7
            head = EventLog.from_arrays(times[:split], log.users[:split], log.products[:split], 3.5, n, m)
            expected = whole - brute_total_nll(head, params, use_quad=False)
            assert window_nll(log, params, 3.5, 6.0, first_event=split) == pytest.approx(expected, rel=1e-10)


def _brute_window(log, params, first, last, t_start, t_end):
    """NLL of the events [first, last) plus the compensator over
    [t_start, t_end], rescanning the whole history at every event."""
    event_ll = 0.0
    for i in range(first, last):
        t, u, p = float(log.times[i]), int(log.users[i]), int(log.products[i])
        event_ll += math.log(brute_intensity(log, params, u, t) * brute_mark_density(log, params, u, t)[p])
    comp = params.mu_user.sum() * (t_end - t_start)
    for t, u in zip(log.times.tolist(), log.users.tolist()):
        if t < t_end:
            comp += params.alpha[u].sum() * (math.exp(-max(t_start - t, 0.0)) - math.exp(-(t_end - t)))
    return comp - event_ll


class TestUnderflowHorizonWindows:
    """Gaps that straddle the kernel's underflow horizon, 746 time units
    (`model._UNDERFLOW`), beyond which the history is skipped, with tie runs
    at the window starts, scored against rescans."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_window_matches_rescan(self, seed):
        rng = np.random.default_rng(seed)
        log = tied_log(rng, max_events=30, gaps=(0.0, 0.0, 0.5, 744.5, 745.5, 746.5), min_events=2)
        soft = random_params(rng, log.n_users, log.n_products, beta=float(rng.uniform(0.3, 3.0)))
        linear = ModelParams(soft.mu, soft.alpha, LinearMark())
        times, k = log.times, len(log)

        def part(a, b, horizon):
            return EventLog.from_arrays(
                times[a:b], log.users[a:b], log.products[a:b], horizon, log.n_users, log.n_products
            )

        runs = np.flatnonzero(np.diff(times, prepend=-1.0) > 0)  # tie-run starts
        for params in (soft, linear):
            for first in runs[1:].tolist():
                t = float(times[first])
                stop = int(np.searchsorted(times, t, side="right"))
                # events at t belong to the window that ends at t
                expected = _brute_window(log, params, stop, k, t, log.horizon)
                assert window_nll(log, params, t, log.horizon) == pytest.approx(expected, rel=1e-10)
                expected = _brute_window(log, params, first, k, t, log.horizon) / (k - first)
                assert held_out_score(log, t, params) == pytest.approx(expected, rel=1e-10)
                # a split inside the tie run puts events at t in both logs
                for split in {first, (first + stop) // 2}:
                    expected = _brute_window(log, params, split, k, t, log.horizon) / (k - split)
                    got = avg_pred_loglik(part(0, split, t), part(split, k, log.horizon), params)
                    assert got == pytest.approx(expected, rel=1e-10)
                # the window (t - 0.25, t], after a gap of 0.5 or one that straddles the horizon
                first_a = int(np.searchsorted(times, t - 0.25, side="right"))
                expected = _brute_window(log, params, first_a, stop, t - 0.25, t)
                assert window_nll(log, params, t - 0.25, t) == pytest.approx(expected, rel=1e-10)


class TestBlockSweepDirection:
    """With alpha[j, u] > 0 only for j < u, a transposed index in the block
    sweep reads influence where there is none."""

    def test_excitation_and_kernel_match_rescan(self):
        rng = np.random.default_rng(41)
        n, m, k = 2 * BLOCK + 3, 2, 3 * BLOCK
        times = np.sort(rng.uniform(0.0, 20.0, k))
        times[70:74] = times[70]  # a tie run
        users, products = rng.integers(0, n, k), rng.integers(0, m, k)
        log = EventLog.from_arrays(times, users, products, 21.0, n, m)
        alpha = np.triu(rng.uniform(0.05, 0.3, (n, n)), 1)
        params = ModelParams(rng.uniform(0.1, 0.5, (n, m)), alpha, SoftMaxMark(1.0))
        lo = 40
        b = decayed_counts(log, times[lo], 0, lo)
        for s, e, excite, kernel in _block_sweep(alpha, b, times[lo], times, users, products, lo, k):
            for i in range(s, e):
                u, t = users[i], times[i]
                # every event before the block, rescanned
                weights = alpha[users[:s], u] * np.exp(-(t - times[:s]))
                from_before = np.bincount(products[:s], weights, minlength=m)
                np.testing.assert_allclose(excite[i - s], from_before, rtol=1e-10, atol=0.0)
                within = alpha[users[s:e], u] * np.exp(-(t - times[s:e])) * (times[s:e] < t)
                np.testing.assert_allclose(kernel[i - s], within, rtol=1e-14, atol=0.0)
                tendency = params.mu[u] + excite[i - s] + kernel[i - s] @ np.eye(m)[products[s:e]]
                brute = [brute_tendency(log, params, u, q, t) for q in range(m)]
                np.testing.assert_allclose(tendency, brute, rtol=1e-10)


class TestEventFeatures:
    def test_snapshots_match_rescan(self):
        # B(t_i)[j, q] = sum over events (t, j, q) with t < t_i of exp(-(t_i - t))
        rng = np.random.default_rng(73)
        for _ in range(10):
            log = tied_log(rng)
            feats = build_all_features(log)
            for u in range(log.n_users):
                f = feats[u]
                assert f.jac.shape == (log.n_users + log.n_products, f.n_events, log.n_products)
                np.testing.assert_array_equal(f.products, log.products[log.users == u])
                for i, t_i in enumerate(log.times[log.users == u]):
                    expected = np.zeros((log.n_users, log.n_products))
                    for t, j, q in zip(log.times, log.users, log.products):
                        if t < t_i:
                            expected[j, q] += math.exp(-(t_i - t))
                    np.testing.assert_allclose(f.jac[: log.n_users, i], expected, rtol=1e-10, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_users_match_rescan(self, seed):
        # user 0 has more than 2 * BLOCK events, tied across every block
        # boundary; gaps of 800 decay every count to 0, the first event is
        # at t = 0 and user n - 1 has no events
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        own = int(rng.integers(2 * BLOCK + 1, 3 * BLOCK))
        users = rng.permutation(np.concatenate([np.zeros(own, int), rng.integers(0, n - 1, BLOCK)]))
        gaps = rng.choice([0.0, 0.0, 0.5, 1.0, 800.0], size=users.size)
        gaps[0] = 0.0
        first = np.flatnonzero(users == 0)
        for r in range(BLOCK, first.size, BLOCK):
            gaps[first[r - 1] + 1 : first[r] + 1] = 0.0
        times = np.cumsum(gaps)
        log = EventLog.from_arrays(times, users, rng.integers(0, m, users.size), times[-1] + 1.0, n, m)
        feats = build_all_features(log)
        assert feats[n - 1].jac.shape == (n + m, 0, m)
        for u in range(n):
            for i, t_i in enumerate(times[users == u]):
                expected = brute_counts(log, t_i)
                np.testing.assert_allclose(feats[u].jac[:n, i], expected, rtol=1e-10, atol=0.0)

    def test_block_of_tied_events_carries(self):
        # user 0's second block holds only events tied with the first
        # block's last, so it sees no log event and only carries its counts
        times = np.concatenate([[0.0], np.arange(1.0, BLOCK + 1.0), [BLOCK, BLOCK]])
        users = np.concatenate([[1], np.zeros(BLOCK + 2, int)])
        log = EventLog.from_arrays(times, users, np.zeros(times.size, int), BLOCK + 1.0, 2, 1)
        snapshots = build_all_features(log)[0].jac[:2]
        for i, t_i in enumerate(times[1:]):
            np.testing.assert_allclose(snapshots[:, i, :], brute_counts(log, t_i), rtol=1e-10, atol=0.0)

    def test_counts_below_tiny_dropped(self):
        # gaps of a few hundred put counts between 1e-313 and 1e-87: those
        # below _TINY are dropped, so no snapshot entry is subnormal.  The
        # first log carries a count of exp(-400) into user 0's second
        # block, whose event comes 330 later
        carried = [(0.0, 1, 0)] + [(200.0, 0, 0)] * (BLOCK - 1) + [(400.0, 0, 0), (730.0, 0, 0)]
        logs = [EventLog(carried, 731.0, 2, 1)]
        rng = np.random.default_rng(83)
        gaps = (0.0, 1.0, 200.0, 360.0, 500.0, 720.0)
        logs += [tied_log(rng, max_events=2 * BLOCK, gaps=gaps, min_events=BLOCK + 10) for _ in range(20)]
        dropped = 0
        for log in logs:
            feats = build_all_features(log)
            for u in range(log.n_users):
                snapshots = feats[u].jac[: log.n_users]
                assert np.all((snapshots == 0) | (snapshots >= np.finfo(float).tiny))
                for i, t_i in enumerate(log.times[log.users == u]):
                    expected = brute_counts(log, t_i)
                    got = snapshots[:, i, :]
                    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=len(log) * _TINY)
                    large = expected >= 1e-140
                    np.testing.assert_allclose(got[large], expected[large], rtol=1e-10)
                    dropped += int(np.any((got == 0) & (expected > 0)))
        assert dropped >= 5

    def test_snapshot_excludes_simultaneous_events(self):
        log = EventLog([(1.0, 0, 0), (1.0, 1, 0)], 2.0, 2, 1)
        feats = build_all_features(log)
        # the tied event by user 0 must not appear in user 1's snapshot
        assert feats[1].jac[:2, 0].sum() == 0.0

    def test_packed_layout(self):
        # a silent user's gradient is its compensator slope: the sources'
        # excitation integrals, then the horizon once per product
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        grad = user_nll_gradient(build_all_features(log)[1], theta, beta=1.0)
        np.testing.assert_allclose(grad, [1.0 - math.exp(-2.0), 0.0, 3.0, 3.0], rtol=1e-15)

    def test_identity_rows_and_compensator_slope(self):
        # jac[N:, i, :] is the identity for every event, and the slope is
        # [excite; T 1] with excite[j] summed over source j's events before T
        rng = np.random.default_rng(131)
        for _ in range(10):
            log = tied_log(rng)
            n, m = log.n_users, log.n_products
            excite = np.zeros(n)
            for t, j in zip(log.times, log.users):
                if t < log.horizon:
                    excite[j] += 1.0 - math.exp(-(log.horizon - t))
            slope = np.concatenate([excite, np.full(m, log.horizon)])
            for f in build_all_features(log).values():
                for i in range(f.n_events):
                    np.testing.assert_array_equal(f.jac[n:, i], np.eye(m))
                np.testing.assert_allclose(f.slope, slope, rtol=1e-12, atol=0.0)
