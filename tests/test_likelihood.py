import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcascades import (
    EventLog,
    InfeasibleLikelihoodError,
    LinearMark,
    ModelParams,
    SoftMaxMark,
    UserParams,
    build_all_features,
    total_nll,
    user_nll,
    user_nll_gradient,
    window_nll,
)

from corrcascades.likelihood import (
    BLOCK,
    _block_starts,
    _eval_features,
    _event_loglik,
    _hessian_from_eval,
    _window_tendencies,
)

from conftest import brute_tendency, brute_total_nll, random_log, random_params, tied_log


def _theta(vec, n):
    """UserParams from a packed [alpha_col | mu_row] vector."""
    return UserParams(vec[:n], vec[n:])


def _sum_user_nll(log, params):
    """Whole-log NLL through the per-user feature path (soft-max marks)."""
    features = build_all_features(log)
    return sum(
        user_nll(features[u], UserParams(params.alpha[:, u], params.mu[u]), params.mark.beta)
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
    theta = UserParams(np.array([0.1]), np.array([0.5]))
    return build_all_features(log)[0], theta


class TestUserNll:
    def test_single_event_hand_value(self):
        features, theta = _single_event_setup()
        expected = -(math.log(0.5) - (1.0 + 0.1 * (1 - math.exp(-1))))
        assert user_nll(features, theta, beta=1.0) == pytest.approx(expected, rel=1e-12)

    def test_single_product_beta_terms_cancel(self):
        # with M = 1 the value is the plain unmarked Hawkes NLL for any beta
        rng = np.random.default_rng(31)
        log = random_log(rng, n_users=2, n_products=1, max_events=15)
        theta = UserParams(rng.uniform(0.01, 0.3, 2), rng.uniform(0.2, 1.0, 1))
        features = build_all_features(log)[0]
        values = {beta: user_nll(features, theta, beta) for beta in (0.1, 1.0, 50.0)}
        base = values[1.0]
        for v in values.values():
            assert v == pytest.approx(base, rel=1e-12)

    def test_zero_params_with_events_infeasible(self):
        features, _ = _single_event_setup()
        theta = UserParams(np.array([0.0]), np.array([0.0]))
        with pytest.raises(InfeasibleLikelihoodError):
            user_nll(features, theta, beta=1.0)

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
        packed = np.concatenate([theta.alpha_col, theta.mu_row])
        n = features.n_users
        grad = np.zeros_like(packed)
        for i in range(packed.size):
            hi, lo = packed.copy(), packed.copy()
            hi[i] += step
            lo[i] = max(lo[i] - step, 1e-12)
            f_hi = user_nll(features, _theta(hi, n), beta)
            f_lo = user_nll(features, _theta(lo, n), beta)
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
            theta = UserParams(
                rng.uniform(0.05, 0.4, log.n_users), rng.uniform(0.1, 1.0, log.n_products)
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
        theta = UserParams(rng.uniform(0.05, 0.2, 2), np.array([0.5]))
        features = build_all_features(log)[0]
        grad = user_nll_gradient(features, theta, beta=1.0)
        # d/d mu = -sum 1/lambda + T regardless of beta
        g = np.einsum("j,jiq->i", theta.alpha_col, features.snapshots) + theta.mu_row.sum()
        expected_mu = -np.sum(1.0 / g) + log.horizon if len(g) else log.horizon
        assert grad[-1] == pytest.approx(expected_mu, rel=1e-10)
        grad2 = user_nll_gradient(features, theta, beta=7.0)
        np.testing.assert_allclose(grad, grad2, rtol=1e-10)

    def test_silent_user_zero_alpha_pure_compensator(self):
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        theta = UserParams(np.zeros(2) + 1e-9, np.array([0.2, 0.3]))
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
            _, f, lam = _eval_features(features, theta[:n], theta[n:], beta)
            x = _hessian_from_eval(features, beta, f, lam)
            assert x.shape == (n + m, features.n_events * (m + 1))
            hess = x @ x.T
            numeric = np.zeros_like(hess)
            for i in range(n + m):
                hi, lo = theta.copy(), theta.copy()
                hi[i] += step
                lo[i] -= step
                numeric[:, i] = (
                    user_nll_gradient(features, _theta(hi, n), beta)
                    - user_nll_gradient(features, _theta(lo, n), beta)
                ) / (2 * step)
            scale = np.abs(numeric).max()
            assert np.abs(hess - numeric).max() <= 1e-6 * scale
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(hess).min() >= -1e-12 * scale
            checked += 1
        assert checked >= 25

    def test_silent_user_has_zero_curvature(self):
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        features = build_all_features(log)[1]
        _, f, lam = _eval_features(features, np.array([0.1, 0.2]), np.array([0.3, 0.4]), 1.0)
        x = _hessian_from_eval(features, 1.0, f, lam)
        assert not (x @ x.T).any()


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
                f_mid = user_nll(features, _theta(mid, n), beta)
                f_a = user_nll(features, _theta(a, n), beta)
                f_b = user_nll(features, _theta(b, n), beta)
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
    that straddle block boundaries, checked against rescans of the prefix."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
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

        def brute_prefix(stop, t, params):
            """NLL of the first `stop` events on [0, t], by rescanning."""
            prefix = EventLog.from_arrays(
                times[:stop], log.users[:stop], log.products[:stop], t, log.n_users, log.n_products
            )
            return brute_total_nll(prefix, params, use_quad=False)

        for params in (soft, linear):
            whole = brute_prefix(len(log), log.horizon, params)
            assert total_nll(log, params) == pytest.approx(whole, rel=1e-10)
            t_split = float(times[split])
            expected = whole - brute_prefix(split, t_split, params)
            got = window_nll(log, params, t_split, log.horizon, first_event=split)
            assert got == pytest.approx(expected, rel=1e-10)
            g = _window_tendencies(log, params, split, len(log))
            for i in rng.choice(np.arange(split, len(log)), size=20):
                u = log.users[i]
                brute = [brute_tendency(log, params, u, q, times[i]) for q in range(log.n_products)]
                np.testing.assert_allclose(g[i - split], brute, rtol=1e-10)
            # no event falls in (t_a, t_b]; the history before it still counts
            t_a, t_b = t_gap + 0.5, t_gap + 300.0
            stop = int(np.searchsorted(times, t_a, side="right"))
            expected = brute_prefix(stop, t_b, params) - brute_prefix(stop, t_a, params)
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


class TestEventFeatures:
    def test_snapshots_match_rescan(self):
        # B(t_i)[j, q] = sum over events (t, j, q) with t < t_i of exp(-(t_i - t))
        rng = np.random.default_rng(73)
        for _ in range(10):
            log = tied_log(rng)
            feats = build_all_features(log)
            for u in range(log.n_users):
                f = feats[u]
                assert f.snapshots.shape == (log.n_users, f.n_events, log.n_products)
                np.testing.assert_array_equal(f.products, log.products[log.users == u])
                for i, t_i in enumerate(log.times[log.users == u]):
                    expected = np.zeros((log.n_users, log.n_products))
                    for t, j, q in zip(log.times, log.users, log.products):
                        if t < t_i:
                            expected[j, q] += math.exp(-(t_i - t))
                    np.testing.assert_allclose(f.snapshots[:, i, :], expected, rtol=1e-10, atol=1e-12)

    def test_snapshot_excludes_simultaneous_events(self):
        log = EventLog([(1.0, 0, 0), (1.0, 1, 0)], 2.0, 2, 1)
        feats = build_all_features(log)
        # the tied event by user 0 must not appear in user 1's snapshot
        assert feats[1].snapshots[:, 0, :].sum() == 0.0

    def test_packed_layout(self):
        # a silent user's gradient is its compensator slope: the sources'
        # excitation integrals, then the horizon once per product
        log = EventLog([(1.0, 0, 0)], 3.0, 2, 2)
        theta = UserParams(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        grad = user_nll_gradient(build_all_features(log)[1], theta, beta=1.0)
        np.testing.assert_allclose(grad, [1.0 - math.exp(-2.0), 0.0, 3.0, 3.0], rtol=1e-15)
