import math

import numpy as np
import pytest
from scipy import stats

from corrcascades import EventLog, LinearMark, ModelParams, SoftMaxMark
from corrcascades.metrics import binned_intensity, market_share, rescaled_interevent_times
from corrcascades.model import decayed_counts, tie_groups
from corrcascades.simulate import (
    Scenario,
    SimConfig,
    SubcriticalityWarning,
    _initial_state,
    run_scenario,
    simulate,
)

from conftest import brute_simulate, random_params, tied_log



def poisson_model(rate=2.0):
    return ModelParams(np.array([[rate]]), np.zeros((1, 1)), SoftMaxMark(1.0))


class TestSimulate:
    def test_deterministic_same_seed(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 3, 2)
        a = simulate(params, SimConfig(horizon=20.0, seed=5))
        b = simulate(params, SimConfig(horizon=20.0, seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 3, 2)
        a = simulate(params, SimConfig(horizon=20.0, seed=5))
        b = simulate(params, SimConfig(horizon=20.0, seed=6))
        assert a != b

    def test_zero_baseline_produces_nothing(self):
        params = ModelParams(np.zeros((2, 2)), np.zeros((2, 2)), SoftMaxMark(1.0))
        log = simulate(params, SimConfig(horizon=50.0, seed=0))
        assert len(log) == 0

    def test_poisson_mean_count(self):
        # alpha = 0 reduces to a Poisson process of rate mu * T
        params = poisson_model(rate=2.0)
        counts = [
            len(simulate(params, SimConfig(horizon=50.0, seed=s))) for s in range(200)
        ]
        mean = np.mean(counts)
        se = math.sqrt(100.0 / 200)  # Var = rate * T for a Poisson count
        assert abs(mean - 100.0) <= 3 * se

    def test_poisson_times_uniform(self):
        params = poisson_model(rate=5.0)
        log = simulate(params, SimConfig(horizon=200.0, seed=3))
        _, p_value = stats.kstest(log.times / 200.0, "uniform")
        assert p_value > 0.01

    def test_hawkes_mean_count_matches_branching(self):
        # E[N(T)] ~ T * 1' (I - A')^{-1} mu_user for a stationary cascade
        mu = np.array([[0.3], [0.2]])
        alpha = np.array([[0.2, 0.3], [0.1, 0.25]])
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        rate = float(np.linalg.solve(np.eye(2) - alpha.T, mu.sum(axis=1)).sum())
        horizon = 100.0
        counts = [
            len(simulate(params, SimConfig(horizon=horizon, seed=s))) for s in range(100)
        ]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - rate * horizon) <= 4 * se + 0.05 * rate * horizon

    def test_supercritical_warns(self):
        mu = np.full((2, 1), 0.1)
        alpha = np.full((2, 2), 0.6)  # column sums 1.2
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        with pytest.warns(SubcriticalityWarning):
            simulate(params, SimConfig(horizon=0.1, seed=0))

    def test_event_cap_truncates_with_warning(self):
        params = poisson_model(rate=10.0)
        with pytest.warns(RuntimeWarning, match="cap"):
            log = simulate(params, SimConfig(horizon=100.0, seed=1, max_events=20))
        assert len(log) == 20

    def test_initial_history_excites(self):
        # a seed event plus strong self-excitation must raise early activity
        mu = np.array([[1e-4]])
        alpha = np.array([[0.9]])
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        history = EventLog([(0.0, 0, 0)], 0.0, 1, 1)
        with_seed = [
            len(simulate(params, SimConfig(horizon=5.0, seed=s, initial_history=history)))
            for s in range(100)
        ]
        without = [
            len(simulate(params, SimConfig(horizon=5.0, seed=s))) for s in range(100)
        ]
        assert np.mean(with_seed) > np.mean(without) + 0.5

    def test_history_not_included_in_output(self):
        history = EventLog([(0.0, 0, 0)], 0.0, 1, 1)
        params = poisson_model(rate=0.5)
        log = simulate(params, SimConfig(horizon=10.0, seed=2, initial_history=history))
        assert np.all(log.times > 0.0)

    def test_history_dimensions_must_match(self):
        # unchecked, a history cell (0, 2) under M = 2 would land in cell (1, 0)
        params = random_params(np.random.default_rng(4), 2, 2)
        scenario = Scenario(switch_time=1.0, boosted_product=0)
        for n, m in ((2, 3), (3, 2), (1, 2), (2, 1)):
            history = EventLog([(0.5, 0, m - 1)], 1.0, n, m)
            config = SimConfig(horizon=2.0, seed=0, initial_history=history)
            with pytest.raises(ValueError, match="products"):
                simulate(params, config)
            with pytest.raises(ValueError, match="products"):
                run_scenario(params, scenario, config)

    def test_time_rescaling_gives_unit_exponentials(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 3, 2, mu_high=0.5, alpha_high=0.2)
        log = simulate(params, SimConfig(horizon=300.0, seed=11))
        gaps = rescaled_interevent_times(log, params)
        assert gaps.size == len(log)
        _, p_value = stats.kstest(gaps, "expon")
        assert p_value > 0.01

    def test_rescaled_gaps_match_compensator_rescan(self):
        # each gap is the rise of the pooled compensator
        # Lambda(t) = mu_total * t + sum_{t_j < t} r_{u_j} (1 - exp(-(t - t_j)))
        # with r_u = sum_v alpha[u, v], rescanned over every earlier event
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(30):
            log = tied_log(rng, gaps=(0.0, 0.0, 0.5, 1.0))
            params = random_params(rng, log.n_users, log.n_products)
            r = params.alpha.sum(axis=1)

            def comp(t):
                mask = log.times < t
                return params.mu.sum() * t + float(
                    r[log.users[mask]] @ (1.0 - np.exp(-(t - log.times[mask])))
                )

            rises = np.diff([0.0] + [comp(float(t)) for t in log.times])
            np.testing.assert_allclose(
                rescaled_interevent_times(log, params), rises, rtol=1e-10, atol=0.0
            )
            checked += int(np.any(np.diff(log.times) == 0))
        assert checked >= 10

    def test_non_finite_horizon_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(horizon=bad, seed=0)

    def test_mark_marginal_single_user(self):
        # constant tendencies: products are iid soft-max draws
        mu = np.array([[0.3, 0.1]])
        params = ModelParams(mu, np.zeros((1, 1)), SoftMaxMark(1.0))
        log = simulate(params, SimConfig(horizon=3000.0, seed=13))
        probs = np.exp(mu[0]) / np.exp(mu[0]).sum()
        freq = (log.products == 0).mean()
        se = math.sqrt(probs[0] * probs[1] / len(log))
        assert abs(freq - probs[0]) <= 4 * se

    def test_linear_and_softmax_marks_differ(self):
        rng = np.random.default_rng(15)
        params_soft = random_params(rng, 2, 2, beta=100.0, alpha_high=0.4)
        params_lin = ModelParams(params_soft.mu, params_soft.alpha, LinearMark())
        a = simulate(params_soft, SimConfig(horizon=100.0, seed=17))
        b = simulate(params_lin, SimConfig(horizon=100.0, seed=17))
        assert a != b


class TestRunScenario:
    def _base(self, seed=0):
        rng = np.random.default_rng(seed)
        return random_params(rng, 3, 3, mu_high=0.4, alpha_high=0.2)

    def test_noop_reproduces_simulate(self):
        params = self._base()
        scenario = Scenario(
            switch_time=10.0,
            boosted_product=1,
            boost_factor=1.0,
            pre_switch_mark=params.mark,
            post_switch_mark=params.mark,
        )
        config = SimConfig(horizon=30.0, seed=21)
        result = run_scenario(params, scenario, config)
        assert result.log == simulate(params, config)

    def test_pre_switch_events_identical_across_post_marks(self):
        params = self._base(1)
        config = SimConfig(horizon=40.0, seed=23)
        logs = []
        for post in (SoftMaxMark(0.1), SoftMaxMark(100.0), LinearMark()):
            scenario = Scenario(switch_time=20.0, boosted_product=2, post_switch_mark=post)
            logs.append(run_scenario(params, scenario, config).log)
        for log in logs[1:]:
            pre_a = logs[0].before(20.0)
            pre_b = log.before(20.0)
            assert pre_a == pre_b

    def test_n_pre_switch_events(self):
        params = self._base(2)
        config = SimConfig(horizon=40.0, seed=25)
        result = run_scenario(params, Scenario(switch_time=20.0, boosted_product=0), config)
        assert result.n_pre_switch_events == int((result.log.times < 20.0).sum())

    def test_boost_raises_boosted_share(self):
        params = self._base(3)
        shares_pre, shares_post = [], []
        for seed in range(30):
            result = run_scenario(
                params,
                Scenario(switch_time=25.0, boosted_product=1, boost_factor=4.0),
                SimConfig(horizon=50.0, seed=seed),
            )
            log = result.log
            pre = log.products[log.times < 25.0]
            post = log.products[log.times >= 25.0]
            if pre.size and post.size:
                shares_pre.append((pre == 1).mean())
                shares_post.append((post == 1).mean())
        assert np.mean(shares_post) > np.mean(shares_pre) + 0.05

    def test_non_finite_scenario_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Scenario(switch_time=bad, boosted_product=0)
            with pytest.raises(ValueError, match="finite"):
                Scenario(switch_time=1.0, boosted_product=0, boost_factor=bad)

    def test_switch_time_validated(self):
        params = self._base(4)
        with pytest.raises(ValueError):
            run_scenario(
                params, Scenario(switch_time=60.0, boosted_product=0), SimConfig(50.0, 0)
            )

    def test_boosted_product_validated(self):
        params = self._base(5)
        with pytest.raises(IndexError):
            run_scenario(
                params, Scenario(switch_time=10.0, boosted_product=7), SimConfig(50.0, 0)
            )


def oracle_case(rng, with_history):
    """A random soft-max or linear-mark model, optionally with a tied history
    whose gaps of 800 decay every earlier count to exactly 0."""
    history = tied_log(rng) if with_history else None
    n = history.n_users if with_history else int(rng.integers(1, 5))
    m = history.n_products if with_history else int(rng.integers(1, 4))
    beta = float(rng.choice([0.5, 2.0, 8.0])) if rng.uniform() < 0.7 else None
    params = random_params(rng, n, m, beta=beta, mu_high=0.5, alpha_high=0.25)
    start = float(history.times[-1]) if with_history and len(history) else 0.0
    return params, history, start


def assert_same_events(log, events):
    """Users and products exactly, times to rel 1e-12."""
    assert len(log) == len(events)
    if events:
        times, users, products = (np.array(c) for c in zip(*events))
        np.testing.assert_array_equal(log.users, users)
        np.testing.assert_array_equal(log.products, products)
        np.testing.assert_allclose(log.times, times, rtol=1e-12, atol=0.0)


class TestThinningOracle:
    """`simulate` and `run_scenario` against thinning by full history rescans."""

    def test_simulate_matches_rescan(self):
        rng = np.random.default_rng(101)
        total = 0
        for case in range(24):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            horizon = start + float(rng.uniform(5.0, 15.0))
            config = SimConfig(horizon=horizon, seed=case, initial_history=history)
            events, exhausted, _ = brute_simulate([(horizon, params)], case, history)
            assert not exhausted
            assert_same_events(simulate(params, config), events)
            total += len(events)
        assert total > 200

    def test_run_scenario_matches_rescan(self):
        rng = np.random.default_rng(103)
        carried = 0
        cases = 24
        for case in range(cases):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            switch = start + float(rng.uniform(2.0, 8.0))
            horizon = switch + float(rng.uniform(2.0, 8.0))
            boost = float(rng.choice([0.5, 1.0, 3.0]))
            post_mark = [SoftMaxMark(0.3), SoftMaxMark(4.0), LinearMark()][case % 3]
            boosted_mu = params.mu.copy()
            boosted_mu[:, case % params.n_products] *= boost
            segments = [
                (switch, params),
                (horizon, ModelParams(boosted_mu, params.alpha, post_mark)),
            ]
            scenario = Scenario(
                switch_time=switch,
                boosted_product=case % params.n_products,
                boost_factor=boost,
                post_switch_mark=post_mark,
            )
            config = SimConfig(horizon=horizon, seed=case, initial_history=history)
            events, _, n_carried = brute_simulate(segments, case, history)
            result = run_scenario(params, scenario, config)
            assert_same_events(result.log, events)
            assert result.n_pre_switch_events == sum(t < switch for t, _, _ in events)
            carried += n_carried
        # both branches at the switch: proposals kept and proposals redrawn
        assert 0 < carried < cases

    def test_event_cap_matches_rescan(self):
        rng = np.random.default_rng(107)
        for case in range(6):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            horizon = start + 2000.0
            cap = int(rng.integers(1, 40))
            events, exhausted, _ = brute_simulate([(horizon, params)], case, history, cap)
            assert exhausted and len(events) == cap
            config = SimConfig(horizon=horizon, seed=case, initial_history=history, max_events=cap)
            with pytest.warns(RuntimeWarning, match="cap"):
                assert_same_events(simulate(params, config), events)
            switch = start + 1.0
            segments = [(switch, params), (horizon, params)]
            events, exhausted, _ = brute_simulate(segments, case, history, cap)
            result = run_scenario(
                params, Scenario(switch_time=switch, boosted_product=0, boost_factor=1.0), config
            )
            assert result.cap_exhausted and exhausted
            assert_same_events(result.log, events)

    def test_initial_state_matches_tie_sweep(self):
        rng = np.random.default_rng(109)
        zeroed = 0
        for _ in range(200):
            log = tied_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            swept = np.zeros((log.n_users, log.n_products))
            prev = 0
            for lo, _, swept in tie_groups(log):
                # the closed form, whole and carried from the previous run's start
                t = log.times[lo]
                np.testing.assert_allclose(decayed_counts(log, t, 0, lo), swept, rtol=1e-12, atol=0.0)
                carried = decayed_counts(log, log.times[prev], 0, prev) * math.exp(-(t - log.times[prev]))
                carried += decayed_counts(log, t, prev, lo)
                np.testing.assert_allclose(carried, swept, rtol=1e-12, atol=0.0)
                prev = lo
            b, start = _initial_state(params, log)
            assert start == (log.times[-1] if len(log) else 0.0)
            np.testing.assert_allclose(b, swept, rtol=1e-12, atol=0.0)
            zeroed += int(np.any((log.times < start - 700.0)))
        assert zeroed >= 20
        b, start = _initial_state(params, None)
        assert start == 0.0 and not b.any()


class TestMarketShare:
    def test_hand_example(self):
        log = EventLog([(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 1)], 4.0, 1, 2)
        series = market_share(log, [0.5, 1.5, 2.5, 3.5])
        s0, s1 = series[0].values, series[1].values
        assert np.isnan(s0[0]) and np.isnan(s1[0])
        np.testing.assert_allclose(s0[1:], [1.0, 0.5, 1.0 / 3.0], rtol=1e-12)
        np.testing.assert_allclose(s1[1:], [0.0, 0.5, 2.0 / 3.0], rtol=1e-12)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(31)
        params = random_params(rng, 2, 3)
        log = simulate(params, SimConfig(horizon=30.0, seed=33))
        grid = np.linspace(1.0, 30.0, 10)
        series = market_share(log, grid)
        total = np.sum([s.values for s in series], axis=0)
        defined = ~np.isnan(total)
        np.testing.assert_allclose(total[defined], 1.0, rtol=1e-12)


class TestBinnedIntensity:
    def test_hand_example(self):
        log = EventLog([(0.5, 0, 0), (1.5, 0, 0), (1.6, 0, 1)], 2.0, 1, 2)
        series = binned_intensity(log, 1.0)
        np.testing.assert_allclose(series.grid, [0.5, 1.5])
        np.testing.assert_allclose(series.values, [1.0, 2.0])

    def test_partial_last_bin_true_width(self):
        log = EventLog([(2.25, 0, 0)], 2.5, 1, 1)
        series = binned_intensity(log, 1.0)
        # last bin spans [2, 2.5] so one event counts as intensity 2
        assert series.values[-1] == pytest.approx(2.0)

    def test_by_product_partitions_pooled(self):
        rng = np.random.default_rng(35)
        params = random_params(rng, 2, 3)
        log = simulate(params, SimConfig(horizon=25.0, seed=37))
        pooled = binned_intensity(log, 2.0)
        per_product = binned_intensity(log, 2.0, by_product=True)
        total = np.sum([s.values for s in per_product], axis=0)
        np.testing.assert_array_equal(total, pooled.values)

    def test_tiny_horizon_single_bin(self):
        log = EventLog([(0.1, 0, 0)], 0.5, 1, 1)
        series = binned_intensity(log, 1.0)
        assert series.grid.size == 1
        assert series.values[0] == pytest.approx(2.0)

    def test_bad_width_rejected(self):
        log = EventLog([], 1.0, 1, 1)
        with pytest.raises(ValueError):
            binned_intensity(log, 0.0)
