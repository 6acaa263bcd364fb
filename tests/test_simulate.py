import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from corrcascades import EventLog, LinearMark, ModelParams, SoftMaxMark
from corrcascades.likelihood import BLOCK
from corrcascades.model import decayed_counts
from corrcascades.metrics import _bin_edges, binned_intensity, market_share
from corrcascades.simulate import (
    _POISSON_LAM_MAX,
    SimConfig,
    SubcriticalityWarning,
    _initial_state,
    _softmax_products,
    run_scenario,
    simulate,
)

from conftest import (
    brute_counts,
    brute_intensity,
    brute_mark_density,
    brute_simulate,
    brute_tendency,
    random_params,
    rescaled_interevent_times,
    tied_log,
)

def poisson_model(rate=2.0):
    return ModelParams(np.array([[rate]]), np.zeros((1, 1)), SoftMaxMark(1.0))


def boosted(params, product, factor, mark):
    """`params` with one product's baselines scaled by `factor`, under `mark`."""
    mu = params.mu.copy()
    mu[:, product] *= factor
    return ModelParams(mu, params.alpha, mark)


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

    def test_warning_is_sufficient_not_necessary(self):
        # a column sum of 1.5 fails the cheap check, but alpha is nilpotent
        # (spectral radius 0), so the process is stationary at rate 0.7:
        # 0.2 per user from baselines plus 1.5 children of each user-0 event
        from corrcascades.replicate import expected_event_rate

        params = ModelParams(np.full((2, 2), 0.1), np.array([[0.0, 1.5], [0.0, 0.0]]), SoftMaxMark(1.0))
        assert expected_event_rate(params) == pytest.approx(0.7, rel=1e-12)
        with pytest.warns(SubcriticalityWarning, match="1.500 >= 1"):
            log = simulate(params, SimConfig(horizon=1000.0, seed=0))
        # the count's variance is 1.75 T: 0.2 T (1.5 + 2.5^2) + 0.2 T; 4 sd is 167
        assert abs(len(log) - 700.0) <= 4 * math.sqrt(1.75 * 1000.0)

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

    def test_sampling_starts_at_the_history_horizon(self):
        # the history shows (1, 50] to be empty: nothing is drawn there
        params = ModelParams(np.full((2, 2), 0.2), np.full((2, 2), 0.25), SoftMaxMark(1.0))
        history = EventLog([(1.0, 0, 0)], 50.0, 2, 2)
        for seed in range(3):
            config = SimConfig(horizon=60.0, seed=seed, initial_history=history)
            for log in (simulate(params, config), run_scenario(params, params, 55.0, config)):
                assert len(log) > 0 and log.times[0] > 50.0

    def test_history_not_included_in_output(self):
        history = EventLog([(0.0, 0, 0)], 0.0, 1, 1)
        params = poisson_model(rate=0.5)
        log = simulate(params, SimConfig(horizon=10.0, seed=2, initial_history=history))
        assert np.all(log.times > 0.0)

    def test_history_dimensions_must_match(self):
        # unchecked, a history cell (0, 2) under M = 2 would land in cell (1, 0)
        params = random_params(np.random.default_rng(4), 2, 2)
        for n, m in ((2, 3), (3, 2), (1, 2), (2, 1)):
            history = EventLog([(0.5, 0, m - 1)], 1.0, n, m)
            config = SimConfig(horizon=2.0, seed=0, initial_history=history)
            with pytest.raises(ValueError, match="products"):
                simulate(params, config)
            with pytest.raises(ValueError, match="products"):
                run_scenario(params, params, 1.0, config)

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

    def test_negative_seed_rejected(self):
        # numpy's generators refuse it too, but without naming the seed
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(horizon=1.0, seed=-1)

    def test_zero_event_cap_rejected(self):
        with pytest.raises(ValueError, match="max_events must be positive"):
            SimConfig(horizon=1.0, seed=0, max_events=0)

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

    def test_pre_switch_events_match_simulate(self):
        # the events at or before the switch are exactly those of `simulate`
        # under the pre-switch mark up to the switch, also when the cap binds
        rng = np.random.default_rng(0)
        for case in range(8):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            pre, post = [(LinearMark(), SoftMaxMark(2.0)), (SoftMaxMark(2.0), LinearMark())][case // 2 % 2]
            switch = start + 10.0
            before = ModelParams(params.mu, params.alpha, pre)
            after = boosted(params, 0, 3.0, post)
            cap = 10_000_000 if case < 4 else 4  # binding in the first pass or the second
            config = SimConfig(horizon=switch + 10.0, seed=case, initial_history=history, max_events=cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = simulate(before, replace(config, horizon=switch))
            if case < 4:
                log = run_scenario(before, after, switch, config)
            else:
                with pytest.warns(RuntimeWarning, match=f"event cap {cap} exhausted"):
                    log = run_scenario(before, after, switch, config)
            head = log.times <= switch
            assert len(expected) > 0
            if case < 4:
                assert head.sum() < len(log)
            else:
                assert len(log) == cap
            np.testing.assert_array_equal(log.times[head], expected.times)
            np.testing.assert_array_equal(log.users[head], expected.users)
            np.testing.assert_array_equal(log.products[head], expected.products)

    def test_pre_switch_events_identical_across_post_marks(self):
        params = self._base(1)
        config = SimConfig(horizon=40.0, seed=23)
        logs = []
        for post in (SoftMaxMark(0.1), SoftMaxMark(100.0), LinearMark()):
            logs.append(run_scenario(params, boosted(params, 2, 2.0, post), 20.0, config))
        for log in logs[1:]:
            pre_a = logs[0].before(20.0)
            pre_b = log.before(20.0)
            assert pre_a == pre_b

    def test_boost_raises_boosted_share(self):
        params = self._base(3)
        shares_pre, shares_post = [], []
        after = boosted(params, 1, 4.0, params.mark)
        for seed in range(30):
            log = run_scenario(params, after, 25.0, SimConfig(horizon=50.0, seed=seed))
            pre = log.products[log.times < 25.0]
            post = log.products[log.times >= 25.0]
            if pre.size and post.size:
                shares_pre.append((pre == 1).mean())
                shares_post.append((post == 1).mean())
        assert np.mean(shares_post) > np.mean(shares_pre) + 0.05

    def test_non_finite_scenario_rejected(self):
        # NaN passes no comparison, so `0 < switch_time < horizon` refuses it
        params = self._base(6)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="switch_time"):
                run_scenario(params, params, bad, SimConfig(50.0, 0))

    def test_switch_time_validated(self):
        params = self._base(4)
        with pytest.raises(ValueError):
            run_scenario(params, params, 60.0, SimConfig(50.0, 0))

    def test_after_of_other_dimensions_rejected(self):
        params = self._base(5)
        for n, m in ((3, 2), (3, 4), (2, 3), (4, 3)):
            other = random_params(np.random.default_rng(n * 10 + m), n, m)
            for before, after in ((params, other), (other, params)):
                with pytest.raises(ValueError, match="users"):
                    run_scenario(before, after, 10.0, SimConfig(50.0, 0))

    def test_cap_in_either_pass_keeps_earliest_with_warning(self):
        # a cap that binds before the switch keeps only first-pass events,
        # those of `simulate` under `before` up to the switch; one that
        # binds only after it keeps the uncapped first pass whole
        params = self._base(7)
        after = boosted(params, 0, 3.0, LinearMark())
        config = SimConfig(horizon=40.0, seed=29)
        full = run_scenario(params, after, 20.0, config)
        n_pre = int(np.count_nonzero(full.times <= 20.0))
        assert 2 < n_pre < len(full) - 2
        for cap in (n_pre - 2, n_pre + 2):
            with pytest.warns(RuntimeWarning, match=f"event cap {cap} exhausted"):
                log = run_scenario(params, after, 20.0, replace(config, max_events=cap))
            assert len(log) == cap and log.horizon == 40.0
            if cap < n_pre:
                with pytest.warns(RuntimeWarning, match=f"event cap {cap} exhausted"):
                    first = simulate(params, SimConfig(horizon=20.0, seed=29, max_events=cap))
                assert log == first.with_horizon(40.0)
            else:
                assert log.before(20.0) == full.before(20.0)
                assert np.all(log.times[n_pre:] > 20.0)

    def test_supercritical_after_warns(self):
        params = self._base(8)
        after = ModelParams(params.mu, np.full((3, 3), 0.6), params.mark)  # column sums 1.8
        with pytest.warns(SubcriticalityWarning, match="1.800 >= 1"):
            run_scenario(params, after, 0.05, SimConfig(horizon=0.1, seed=0))


def oracle_case(rng, with_history):
    """A random soft-max or linear-mark model, optionally with a tied history
    whose gaps of 800 decay every earlier count to exactly 0."""
    history = tied_log(rng) if with_history else None
    n = history.n_users if with_history else int(rng.integers(1, 5))
    m = history.n_products if with_history else int(rng.integers(1, 4))
    beta = float(rng.choice([0.5, 2.0, 8.0])) if rng.uniform() < 0.7 else None
    params = random_params(rng, n, m, beta=beta, mu_high=0.5, alpha_high=0.25)
    start = history.horizon if with_history else 0.0
    return params, history, start


def law_cases(seed, n_cases, span):
    """`oracle_case` models sampled over `span` time units after their start.

    Even cases run `simulate`; odd cases run `run_scenario` with a boost and
    a post-switch mark at mid-window, of the other mark family in every
    other scenario.  Cases 2 and 3 of every four absorb a tied history.
    Yields (log, record, segments, start): the record is the history
    followed by the log, and segments are the (end_time, params) the log
    was drawn under.
    """
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        params, history, start = oracle_case(rng, with_history=case % 4 >= 2)
        horizon = start + span
        config = SimConfig(horizon=horizon, seed=case, initial_history=history)
        if case % 2 == 0:
            segments = [(horizon, params)]
            log = simulate(params, config)
        else:
            switch = start + span / 2
            product = case % params.n_products
            boost = float(rng.choice([0.5, 1.0, 3.0]))
            other = LinearMark() if isinstance(params.mark, SoftMaxMark) else SoftMaxMark(4.0)
            post = [other, SoftMaxMark(0.3), other, LinearMark()][case // 2 % 4]
            after = boosted(params, product, boost, post)
            segments = [(switch, params), (horizon, after)]
            log = run_scenario(params, after, switch, config)
        # ties and events on the horizon have probability 0
        assert np.all(np.diff(log.times) > 0) and np.all(log.times < horizon)
        yield log, whole_record(history, log), segments, start


def whole_record(history, log):
    """The history's events followed by the generated ones, for rescans."""
    if history is None:
        return log
    return EventLog.from_arrays(
        np.concatenate([history.times, log.times]),
        np.concatenate([history.users, log.users]),
        np.concatenate([history.products, log.products]),
        max(log.horizon, history.horizon),
        log.n_users,
        log.n_products,
    )


def params_at(segments, t):
    """The parameters of the segment that time t falls in."""
    return next((params for end, params in segments if t < end), segments[-1][1])


def assert_count_means_agree(segments, history, sample, runs):
    """Per-(user, product) event counts of `sample(seed)` and of
    `brute_simulate` on the same segments, over `runs` seeds each, agree
    within 4 standard errors in every cell and in total.  Returns the mean
    event count per run."""
    params = segments[0][1]
    n, m = params.n_users, params.n_products

    def cells(users, products):
        flat = np.asarray(users, dtype=int) * m + np.asarray(products, dtype=int)
        return np.bincount(flat, minlength=n * m)

    ours = np.array([cells(log.users, log.products) for log in map(sample, range(runs))])
    theirs = []
    for seed in range(runs):
        events, _, _ = brute_simulate(segments, 10_000 + seed, history)
        theirs.append(cells([u for _, u, _ in events], [p for _, _, p in events]))
    theirs = np.array(theirs)
    ours, theirs = np.column_stack([ours, ours.sum(axis=1)]), np.column_stack([theirs, theirs.sum(axis=1)])
    se = np.sqrt((ours.var(axis=0, ddof=1) + theirs.var(axis=0, ddof=1)) / runs)
    assert np.all(np.abs(ours.mean(axis=0) - theirs.mean(axis=0)) <= 4 * se)
    return float(ours[:, -1].mean())


class TestThinningOracle:
    """The law of `simulate` and `run_scenario` against full history rescans
    and against `brute_simulate`, which thins by rescanning."""

    def test_compensator_gaps_are_unit_exponential(self):
        # time rescaling: each user's compensator increments between its
        # events are iid Exp(1), the compensator integrating `brute_intensity`
        gaps, families, histories = [], set(), 0
        for log, record, segments, start in law_cases(113, 32, 40.0):
            knots = np.unique(np.concatenate([[start], log.times, [end for end, _ in segments]]))
            knots = knots[knots <= log.horizon]
            for u in range(log.n_users):
                pieces = [
                    quad(
                        lambda s: brute_intensity(record, params_at(segments, 0.5 * (a + b)), u, s),
                        a, b, epsabs=1e-10, epsrel=1e-10,
                    )[0]
                    for a, b in zip(knots[:-1], knots[1:])
                ]
                comp = np.concatenate([[0.0], np.cumsum(pieces)])
                at = np.searchsorted(knots, np.append(start, log.times[log.users == u]))
                gaps.extend(np.diff(comp[at]))
            families.add(type(segments[0][1].mark))
            histories += record.times.size > log.times.size
        assert families == {SoftMaxMark, LinearMark} and histories >= 6
        assert len(gaps) > 1500
        assert stats.kstest(gaps, "expon").pvalue > 0.01

    def test_mark_pit_is_uniform(self):
        # randomized PIT of each product under the rescanned mark density,
        # one KS test per mark family
        pit_rng = np.random.default_rng(127)
        pits = {SoftMaxMark: [], LinearMark: []}
        for log, record, segments, _ in law_cases(131, 96, 40.0):
            for t, u, p in zip(log.times.tolist(), log.users.tolist(), log.products.tolist()):
                params = params_at(segments, t)
                f = brute_mark_density(record, params, u, t)
                pits[type(params.mark)].append(f[:p].sum() + pit_rng.uniform() * f[p])
        for family in pits.values():
            assert len(family) > 2000
            assert stats.kstest(family, "uniform").pvalue > 0.01

    def test_sharp_softmax_picks_rescanned_argmax(self):
        # at beta = 1000 a tendency lead of 0.04 leaves the other products
        # under exp(-40): the product must be the argmax of the rescanned
        # tendencies, history and earlier draws included
        rng = np.random.default_rng(151)
        checked = 0
        for case in range(16):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            sharp = ModelParams(params.mu, params.alpha, SoftMaxMark(1000.0))
            horizon = start + 60.0
            config = SimConfig(horizon=horizon, seed=case, initial_history=history)
            if case % 4 < 2:
                segments = [(horizon, sharp)]
                log = simulate(sharp, config)
            else:
                after = boosted(sharp, 0, 2.0, sharp.mark)
                segments = [(start + 30.0, sharp), (horizon, after)]
                log = run_scenario(sharp, after, start + 30.0, config)
            record = whole_record(history, log)
            for t, u, p in zip(log.times.tolist(), log.users.tolist(), log.products.tolist()):
                seg = params_at(segments, t)
                g = np.array([brute_tendency(record, seg, u, q, t) for q in range(log.n_products)])
                top = np.sort(g)[-2:] if g.size > 1 else np.array([-np.inf, g[0]])
                if top[1] - top[0] > 0.04:
                    assert p == int(np.argmax(g))
                    checked += 1
        assert checked > 1000

    def test_count_means_match_rescan(self):
        rng = np.random.default_rng(137)
        families = set()
        for case in range(4):
            params, history, start = oracle_case(rng, with_history=case >= 2)
            while params.n_products < 2:
                params, history, start = oracle_case(rng, with_history=case >= 2)
            horizon = start + 6.0
            config = SimConfig(horizon=horizon, seed=0, initial_history=history)
            if case % 2 == 0:
                segments = [(horizon, params)]

                def sample(seed):
                    return simulate(params, replace(config, seed=seed))
            else:
                # soft-max then linear marks, and the reverse after a history
                pre, post = [(SoftMaxMark(4.0), LinearMark()), (LinearMark(), SoftMaxMark(4.0))][case // 2]
                before = ModelParams(params.mu, params.alpha, pre)
                after = boosted(params, 0, 3.0, post)
                segments = [(start + 3.0, before), (horizon, after)]

                def sample(seed):
                    return run_scenario(before, after, start + 3.0, replace(config, seed=seed))
            assert assert_count_means_agree(segments, history, sample, 200) > 3
            families.update(type(p.mark) for _, p in segments)
        assert families == {SoftMaxMark, LinearMark}

    def test_post_switch_counts_carry_the_first_pass(self):
        # a near-critical model (branching ratio 0.9) and a post-switch
        # window of one time unit: most post-switch events descend from
        # first-pass events, so the count over (s, horizon] matches the
        # compensator rescanned over the whole record only if the second
        # pass absorbed the first pass's events
        n, m, switch, horizon = 2, 2, 30.0, 31.0
        before = ModelParams(np.full((n, m), 0.1), np.full((n, n), 0.45), LinearMark())
        after = boosted(before, 0, 1.5, SoftMaxMark(2.0))
        boosted_total = after.mu.sum()
        row_sums = before.alpha.sum(axis=1)
        count = carried = comp = 0.0
        for seed in range(300):
            log = run_scenario(before, after, switch, SimConfig(horizon=horizon, seed=seed))
            reach = row_sums[log.users] * (
                np.exp(-np.maximum(switch - log.times, 0.0)) - np.exp(-(horizon - log.times))
            )
            count += np.count_nonzero(log.times > switch)
            carried += reach[log.times <= switch].sum()
            comp += (horizon - switch) * boosted_total + reach.sum()
        assert carried > 0.5 * comp
        assert abs(count - comp) <= 4.0 * math.sqrt(comp), (count, comp)

    def test_history_after_switch_is_all_post_switch(self):
        # a history that ends after `switch_time` leaves the whole window to
        # the boosted baselines and the post-switch mark
        rng = np.random.default_rng(157)
        families = set()
        for case in range(2):
            params, history, start = oracle_case(rng, with_history=True)
            while start <= 0.0 or params.n_products < 2:
                params, history, start = oracle_case(rng, with_history=True)
            pre, post = [(SoftMaxMark(4.0), LinearMark()), (LinearMark(), SoftMaxMark(4.0))][case]
            before = ModelParams(params.mu, params.alpha, pre)
            after = boosted(params, 0, 3.0, post)
            horizon = start + 6.0
            config = SimConfig(horizon=horizon, seed=0, initial_history=history)

            def sample(seed):
                log = run_scenario(before, after, start / 2, replace(config, seed=seed))
                assert not np.any(log.times < start / 2)
                return log

            segments = [(horizon, after)]
            assert assert_count_means_agree(segments, history, sample, 200) > 3
            families.add(type(post))
        assert families == {SoftMaxMark, LinearMark}

    def test_history_children_match_rescan(self):
        # a quiet baseline and a window of one time unit after a history
        # whose horizon is its last event, so most events descend from the
        # absorbed history
        rng = np.random.default_rng(149)
        for _ in range(2):
            params, history, start = oracle_case(rng, with_history=True)
            while len(history) < 5 or start > history.times[-1]:
                params, history, start = oracle_case(rng, with_history=True)
            for mark in (SoftMaxMark(8.0), LinearMark()):
                quiet = ModelParams(0.05 * params.mu, params.alpha, mark)
                config = SimConfig(horizon=start + 1.0, seed=0, initial_history=history)
                events = assert_count_means_agree(
                    [(config.horizon, quiet)], history,
                    lambda seed: simulate(quiet, replace(config, seed=seed)), 1000,
                )
                assert events > 0.25

    def test_initial_state_matches_rescan(self):
        # the history decayed to its horizon, events at the horizon included
        rng = np.random.default_rng(109)
        zeroed = 0
        for _ in range(200):
            log = tied_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            b, start = _initial_state(params, log)
            assert start == log.horizon
            np.testing.assert_allclose(b, brute_counts(log, start, inclusive=True), rtol=1e-12, atol=0.0)
            zeroed += int(np.any((log.times < start - 700.0)))
        assert zeroed >= 20
        b, start = _initial_state(params, None)
        assert start == 0.0 and not b.any()


def inverse_cdf(weights, v):
    """The least p with v * sum(weights) < cumsum(weights)[p], else the last
    positive weight; and whether v lies within 1e-12 (relative to the
    total) of a boundary of the cumulative weights."""
    cum = np.cumsum(weights)
    x = v * cum[-1]
    above = np.flatnonzero(x < cum)
    p = int(above[0]) if above.size else int(np.flatnonzero(weights > 0)[-1])
    return p, bool(np.any(np.abs(cum - x) <= 1e-12 * cum[-1]))


class TestProductDraw:
    """`_softmax_products` with fixed uniforms against the sequential
    inverse-CDF draw on rescanned tendencies (`brute_tendency`), event by
    event."""

    @pytest.mark.parametrize("beta", [1.0, 1000.0])
    @pytest.mark.parametrize("marks", ["softmax", "softmax-softmax"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_draw(self, marks, beta, seed):
        rng = np.random.default_rng(seed)
        history = tied_log(rng) if rng.uniform() < 0.6 else None
        n = history.n_users if history is not None else int(rng.integers(1, 5))
        m = history.n_products if history is not None else int(rng.integers(1, 4))
        params = random_params(rng, n, m, beta=beta, mu_high=0.2, alpha_high=0.4)
        b, start = _initial_state(params, history)

        # more than two blocks; zero gaps tie events, and one constructed run
        # of tied events sits inside a block (sometimes a run longer than one)
        k = int(rng.integers(2 * BLOCK + 1, 4 * BLOCK))
        times = start + 0.01 + np.cumsum(rng.choice([0.0, 0.0, 0.01, 0.05, 0.2, 1.0], size=k))
        run = int(rng.integers(3, BLOCK // 2)) if rng.uniform() < 0.7 else BLOCK + 5
        at = int(rng.integers(0, k - run))
        times[at : at + run] = times[at]
        users = rng.integers(0, n, size=k)
        v = rng.random(k)

        # one `_softmax_products` call per regime: a second regime, with
        # boosted baselines, starts after the tie run of the middle event
        # and absorbs the first through the decayed counts there, as
        # `run_scenario` does
        boosted = params.mu.copy()
        boosted[:, 0] *= 2.0
        regimes = [params, ModelParams(boosted, params.alpha, params.mark)][: len(marks.split("-"))]
        split = int(np.searchsorted(times, times[k // 2], side="right")) if len(regimes) > 1 else k

        def draw(regime, counts, t0, lo, hi):
            return _softmax_products(
                beta, regime.mu, params.alpha, counts, t0, times[lo:hi], users[lo:hi], v[lo:hi]
            )

        got = draw(regimes[0], b, start, 0, split)
        if len(regimes) > 1:
            switch = float(times[split - 1])
            head = EventLog.from_arrays(times[:split], users[:split], got, switch, n, m)
            carried = b * math.exp(-(switch - start)) + decayed_counts(head, switch, 0, split)
            got = np.concatenate([got, draw(regimes[1], carried, switch, split, k)])

        record = whole_record(history, EventLog.from_arrays(times, users, got, float(times[-1]) + 1.0, n, m))
        mismatches = 0
        for i, (t, u) in enumerate(zip(times.tolist(), users.tolist())):
            seg = regimes[int(i >= split)]
            g = np.array([brute_tendency(record, seg, u, q, t) for q in range(m)])
            expected, near = inverse_cdf(np.exp(beta * (g - g.max())), v[i])
            if got[i] != expected:
                assert near, f"event {i}: drew {got[i]}, sequential draw {expected}"
                mismatches += 1
        assert mismatches <= 0.01 * k


class TestLinearProducts:
    """Under a linear mark every event carries its cluster root's product.
    Where each user is reached only from roots of one product, that
    product is the only one its events can carry."""

    @pytest.mark.parametrize("cap", [None, 40])
    def test_each_user_carries_its_roots_product(self, cap):
        m = 3
        # users 0-2 are sources with a baseline on one product each, users
        # 3-5 history users without baselines, and users 6-17 followers
        # without baselines, each excited only by itself and one leader
        own = np.array([0, 1, 2, 1, 2, 0])
        leader = np.tile(np.arange(6), 2)
        allowed = np.concatenate([own, own[leader]])
        n = allowed.size
        followers = np.arange(6, n)
        mu = np.zeros((n, m))
        mu[np.arange(3), own[:3]] = 0.5
        # the events whose clusters can only have history roots
        sourced = np.concatenate([[3, 4, 5], followers[leader >= 3]])
        events = from_history = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            alpha = np.zeros((n, n))
            alpha[np.arange(6), np.arange(6)] = rng.uniform(0.0, 0.3, 6)
            alpha[leader, followers] = rng.uniform(0.2, 0.5, n - 6)
            alpha[followers, followers] = rng.uniform(0.1, 0.4, n - 6)
            params = ModelParams(mu, alpha, LinearMark())
            hist_users = rng.integers(0, 6, size=30)
            hist_times = np.sort(rng.uniform(15.0, 20.0, size=30))
            history = EventLog.from_arrays(hist_times, hist_users, allowed[hist_users], 20.0, n, m)
            config = SimConfig(horizon=60.0, seed=seed, initial_history=history)
            if cap is None:
                log = simulate(params, config)
            else:
                with pytest.warns(RuntimeWarning, match="event cap"):
                    log = simulate(params, replace(config, max_events=cap))
                assert len(log) == cap
            np.testing.assert_array_equal(log.products, allowed[log.users])
            events += len(log)
            from_history += int(np.isin(log.users, sourced).sum())
        assert events >= 20 * (cap or 60) and from_history >= 20


class TestSamplerEdges:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_windows_after_tied_histories(self, seed):
        # histories whose gaps of 800 underflow every earlier count, then
        # windows whose soft-max draws span many blocks
        rng = np.random.default_rng(seed)
        history = tied_log(rng)
        beta = float(rng.choice([0.5, 8.0])) if rng.uniform() < 0.7 else None
        params = random_params(
            rng, history.n_users, history.n_products, beta=beta, mu_high=0.1, alpha_high=0.2
        )
        start = history.horizon
        horizon = start + float(rng.uniform(1000.0, 1500.0))
        config = SimConfig(horizon=horizon, seed=seed, initial_history=history)
        after = boosted(params, 0, 2.0, SoftMaxMark(2.0))
        for log in (simulate(params, config), run_scenario(params, after, start + 500.0, config)):
            assert len(log) > 0
            assert np.all(np.diff(log.times) >= 0)
            assert log.times[0] > start and log.times[-1] <= horizon

    def test_supercritical_cap_ends_quickly(self):
        params = ModelParams(np.full((2, 2), 0.5), np.full((2, 2), 3.0), SoftMaxMark(1.0))
        config = SimConfig(horizon=1000.0, seed=3, max_events=20)
        began = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = simulate(params, config)
            scenario_log = run_scenario(params, boosted(params, 1, 2.0, params.mark), 500.0, config)
        assert time.perf_counter() - began < 5.0
        assert len(log) == 20 and len(scenario_log) == 20
        assert {type(w.message) for w in caught} == {SubcriticalityWarning, RuntimeWarning}
        # one cap warning from each sampler
        assert sum("cap 20 exhausted" in str(w.message) for w in caught) == 2

    def test_cap_binds_beyond_the_poisson_range(self):
        # numpy draws no Poisson count above about 9.2e18: a horizon whose
        # immigrant mass is beyond that still keeps the `max_events`
        # earliest events, with the cap warning
        params = ModelParams(np.full((2, 2), 0.1), np.zeros((2, 2)), LinearMark())
        gaps = []
        for seed in range(20):
            with pytest.warns(RuntimeWarning, match="event cap 50 exhausted"):
                log = simulate(params, SimConfig(horizon=1e20, seed=seed, max_events=50))
            assert len(log) == 50 and log.horizon == 1e20
            gaps.append(np.diff(log.times, prepend=0.0))
        # the kept immigrants are the first arrivals at the total rate 0.4
        assert stats.kstest(0.4 * np.concatenate(gaps), "expon").pvalue > 1e-3
        with pytest.warns(RuntimeWarning, match="event cap 5 exhausted"):
            assert len(simulate(params, SimConfig(horizon=1e20, seed=0, max_events=5))) == 5

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_cap_binds_either_side_of_the_poisson_limit(self, side):
        # an immigrant mass a hair below the limit is still a Poisson count,
        # one a hair above it the first arrivals; both keep the cap's events
        params = ModelParams(np.full((2, 2), 0.1), np.zeros((2, 2)), LinearMark())
        horizon = _POISSON_LAM_MAX / 0.4 * (1.0 + side * 1e-9)
        assert (0.4 * horizon <= _POISSON_LAM_MAX) == (side < 0)
        with pytest.warns(RuntimeWarning, match="event cap 7 exhausted"):
            log = simulate(params, SimConfig(horizon=horizon, seed=1, max_events=7))
        assert len(log) == 7 and np.all(np.diff(log.times) >= 0) and log.times[-1] < horizon

    def test_cap_binds_with_offspring_beyond_the_poisson_range(self):
        # influence adds each kept immigrant's cascade, still cut at the cap
        params = ModelParams(np.full((2, 2), 0.1), np.full((2, 2), 0.2), SoftMaxMark(1.0))
        with pytest.warns(RuntimeWarning, match="event cap 30 exhausted"):
            log = simulate(params, SimConfig(horizon=1e20, seed=4, max_events=30))
        assert len(log) == 30 and log.horizon == 1e20
        assert np.all(np.diff(log.times) >= 0) and log.times[0] > 0.0
        # 30 events at rate at least 0.4 span far less than the horizon
        assert log.times[-1] < 1e4

    def test_cap_at_or_above_count_keeps_log(self):
        # an unused cap changes nothing, and does not warn
        rng = np.random.default_rng(139)
        for case in range(8):
            params, history, start = oracle_case(rng, with_history=case % 2 == 1)
            config = SimConfig(horizon=start + 20.0, seed=case, initial_history=history)
            after = boosted(params, 0, 2.0, LinearMark())
            full = simulate(params, config)
            full_scenario = run_scenario(params, after, start + 10.0, config)
            assert len(full) > 0
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for cap in (len(full), len(full) + 1):
                    assert simulate(params, replace(config, max_events=cap)) == full
                for cap in (len(full_scenario), len(full_scenario) + 1):
                    assert run_scenario(params, after, start + 10.0, replace(config, max_events=cap)) == full_scenario


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
        assert [s.label for s in series] == ["product_0", "product_1"]
        for s in series:
            np.testing.assert_allclose(s.grid, [0.5, 1.5])
        np.testing.assert_allclose(series[0].values, [1.0, 1.0])
        np.testing.assert_allclose(series[1].values, [0.0, 1.0])

    def test_partial_last_bin_true_width(self):
        log = EventLog([(2.25, 0, 0)], 2.5, 1, 1)
        (series,) = binned_intensity(log, 1.0)
        # last bin spans [2, 2.5] so one event counts as intensity 2
        assert series.values[-1] == pytest.approx(2.0)

    def test_per_product_series_partition_the_pooled_histogram(self):
        # a width of 2 divides every count exactly, so the sum is exact
        rng = np.random.default_rng(35)
        params = random_params(rng, 2, 3)
        log = simulate(params, SimConfig(horizon=25.0, seed=37))
        per_product = binned_intensity(log, 2.0)
        edges = _bin_edges(log.horizon, 2.0)
        pooled = np.histogram(log.times, bins=edges)[0] / np.diff(edges)
        total = np.sum([s.values for s in per_product], axis=0)
        np.testing.assert_array_equal(total, pooled)

    def test_tiny_horizon_single_bin(self):
        log = EventLog([(0.1, 0, 0)], 0.5, 1, 1)
        (series,) = binned_intensity(log, 1.0)
        assert series.grid.size == 1
        assert series.values[0] == pytest.approx(2.0)

    def test_bad_width_rejected(self):
        log = EventLog([], 1.0, 1, 1)
        with pytest.raises(ValueError):
            binned_intensity(log, 0.0)
