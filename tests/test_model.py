import math

import numpy as np
import pytest

from corrcascades import (
    DecayState,
    Event,
    EventLog,
    LinearMark,
    ModelParams,
    SoftMaxMark,
    UndefinedMarkError,
    compensator,
    decay_state_advance_and_absorb,
    decay_state_init,
    mark_density,
    mark_density_from_tendencies,
    tendency,
    tendency_vector,
    total_intensity,
)
from corrcascades.model import tie_groups

from conftest import brute_tendency, quad_compensator, random_log, random_params, tied_log


class TestDecayState:
    def test_init_zero(self):
        state = decay_state_init(2, 3)
        assert state.b.shape == (2, 3)
        assert np.all(state.b == 0)
        assert state.current_time == 0.0

    def test_init_single_cell(self):
        assert decay_state_init(1, 1).b.shape == (1, 1)

    def test_init_paper_dimensions(self):
        state = decay_state_init(50, 5)
        assert state.b.shape == (50, 5)

    def test_init_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            decay_state_init(0, 3)
        with pytest.raises(ValueError):
            decay_state_init(3, 0)

    def test_absorb_first_event(self):
        state = decay_state_init(2, 2)
        decay_state_advance_and_absorb(state, Event(1.0, 0, 0))
        assert state.b[0, 0] == 1.0
        assert state.b.sum() == 1.0
        assert state.current_time == 1.0

    def test_advance_decays_exponentially(self):
        state = decay_state_init(2, 2)
        state.absorb(Event(1.0, 0, 0))
        state.absorb(Event(2.0, 1, 0))
        assert state.b[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert state.b[1, 0] == 1.0

    def test_simultaneous_events_no_decay(self):
        state = decay_state_init(1, 1)
        state.absorb(Event(1.0, 0, 0))
        state.absorb(Event(1.0, 0, 0))
        assert state.b[0, 0] == 2.0

    def test_time_regression_rejected(self):
        state = decay_state_init(1, 1)
        state.absorb(Event(1.0, 0, 0))
        with pytest.raises(ValueError):
            state.advance(0.5)

    def test_b_total_consistency(self):
        rng = np.random.default_rng(7)
        state = decay_state_init(3, 2)
        for t in np.sort(rng.uniform(0, 5, size=20)):
            state.absorb(Event(float(t), int(rng.integers(3)), int(rng.integers(2))))
        np.testing.assert_allclose(state.b_total, state.b.sum(axis=1), atol=1e-12)

    def test_advance_scales_all_entries(self):
        state = decay_state_init(2, 2)
        state.absorb(Event(1.0, 0, 1))
        state.absorb(Event(1.0, 1, 0))
        before = state.b.copy()
        state.advance(3.5)
        np.testing.assert_allclose(state.b, before * math.exp(-2.5), rtol=1e-14)


class TestTieGroups:
    def test_runs_and_state_match_rescan(self):
        # at each yield the state holds exactly the events strictly before
        # the run's time, decayed to it; the exhausted sweep holds them all
        rng = np.random.default_rng(29)
        for _ in range(30):
            log = tied_log(rng)
            state = DecayState(log.n_users, log.n_products)
            runs = []
            for lo, hi in tie_groups(log, state):
                t = log.times[lo]
                assert np.all(log.times[lo:hi] == t)
                assert state.current_time == t
                expected = np.zeros((log.n_users, log.n_products))
                mask = log.times < t
                np.add.at(
                    expected,
                    (log.users[mask], log.products[mask]),
                    np.exp(-(t - log.times[mask])),
                )
                np.testing.assert_allclose(state.b, expected, rtol=1e-12, atol=1e-300)
                runs.append((lo, hi))
            starts = [i for i in range(len(log)) if i == 0 or log.times[i] != log.times[i - 1]]
            assert runs == list(zip(starts, starts[1:] + [len(log)]))
            assert state.b.sum() == pytest.approx(
                np.exp(-(state.current_time - log.times)).sum(), rel=1e-12
            )


class TestTendency:
    def test_empty_history_is_baseline(self):
        params = random_params(np.random.default_rng(0), 2, 2)
        state = decay_state_init(2, 2)
        assert tendency(state, params, 0, 1) == params.mu[0, 1]

    def test_hand_value(self):
        # one event by user 1 on product 0, exactly one time unit ago
        mu = np.array([[0.5, 0.2], [0.1, 0.1]])
        alpha = np.zeros((2, 2))
        alpha[1, 0] = 0.1
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        state = decay_state_init(2, 2)
        state.absorb(Event(1.0, 1, 0))
        state.advance(2.0)
        assert tendency(state, params, 0, 0) == pytest.approx(0.5 + 0.1 * math.exp(-1), abs=1e-9)

    def test_zero_alpha_ignores_history(self):
        rng = np.random.default_rng(3)
        params = ModelParams(rng.uniform(0.1, 1, (3, 2)), np.zeros((3, 3)), SoftMaxMark(1.0))
        state = decay_state_init(3, 2)
        for t in [0.5, 1.0, 1.5]:
            state.absorb(Event(t, 0, 0))
        state.advance(2.0)
        for u in range(3):
            for p in range(2):
                assert tendency(state, params, u, p) == params.mu[u, p]

    def test_index_out_of_range(self):
        params = random_params(np.random.default_rng(0), 2, 2)
        state = decay_state_init(2, 2)
        with pytest.raises(IndexError):
            tendency(state, params, 2, 0)
        with pytest.raises(IndexError):
            tendency(state, params, 0, 5)

    def test_matches_brute_force_rescan(self):
        # sufficient-statistic correctness on randomized logs
        rng = np.random.default_rng(11)
        for _ in range(25):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            state = decay_state_init(log.n_users, log.n_products)
            t_eval = log.horizon
            for ev in log:
                state.absorb(ev)
            state.advance(t_eval)
            for u in range(log.n_users):
                for p in range(log.n_products):
                    expected = brute_tendency(log, params, u, p, t_eval)
                    got = tendency(state, params, u, p)
                    assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestTotalIntensity:
    def test_empty_history(self):
        params = random_params(np.random.default_rng(1), 3, 2)
        state = decay_state_init(3, 2)
        assert total_intensity(state, params, 1) == pytest.approx(params.mu_user[1], rel=1e-14)

    def test_single_product_equals_tendency(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 2, 1)
        state = decay_state_init(2, 1)
        state.absorb(Event(0.3, 1, 0))
        state.advance(1.0)
        assert total_intensity(state, params, 0) == tendency(state, params, 0, 0)

    def test_hand_value_two_products(self):
        mu = np.array([[0.5, 0.2], [0.1, 0.1]])
        alpha = np.zeros((2, 2))
        alpha[1, 0] = 0.1
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        state = decay_state_init(2, 2)
        state.absorb(Event(1.0, 1, 0))
        state.advance(2.0)
        assert total_intensity(state, params, 0) == pytest.approx(0.7 + 0.1 * math.exp(-1), abs=1e-9)

    def test_additivity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            state = decay_state_init(log.n_users, log.n_products)
            for ev in log:
                state.absorb(ev)
            state.advance(log.horizon)
            for u in range(log.n_users):
                parts = sum(tendency_vector(state, params, u))
                assert total_intensity(state, params, u) == parts


class TestMarkDensity:
    def test_equal_tendencies_uniform(self):
        for beta in [0.01, 1.0, 50.0]:
            d = mark_density_from_tendencies(np.array([0.4, 0.4, 0.4]), SoftMaxMark(beta))
            np.testing.assert_allclose(d, 1 / 3, atol=1e-12)

    def test_softmax_hand_value(self):
        d = mark_density_from_tendencies(np.array([1.0, 2.0]), SoftMaxMark(1.0))
        np.testing.assert_allclose(d, [0.268941, 0.731059], atol=1e-6)

    def test_linear_hand_value(self):
        d = mark_density_from_tendencies(np.array([1.0, 3.0]), LinearMark())
        np.testing.assert_allclose(d, [0.25, 0.75], atol=1e-14)

    def test_linear_all_zero_raises(self):
        with pytest.raises(UndefinedMarkError):
            mark_density_from_tendencies(np.zeros(3), LinearMark())

    def test_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.uniform(0, 5, size=rng.integers(1, 6))
            beta = float(rng.uniform(0.01, 100))
            assert mark_density_from_tendencies(g, SoftMaxMark(beta)).sum() == pytest.approx(1.0, abs=1e-12)
            if g.sum() > 0:
                assert mark_density_from_tendencies(g, LinearMark()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_beta_concentrates_on_argmax(self):
        g = np.array([0.3, 0.9, 0.5])
        d = mark_density_from_tendencies(g, SoftMaxMark(1e3))
        assert d[1] > 1 - 1e-6

    def test_small_beta_approaches_uniform(self):
        g = np.array([0.3, 0.9, 0.5])
        d = mark_density_from_tendencies(g, SoftMaxMark(1e-6))
        np.testing.assert_allclose(d, 1 / 3, atol=1e-6)

    def test_no_overflow_huge_tendencies(self):
        d = mark_density_from_tendencies(np.array([1000.0, 1001.0]), SoftMaxMark(1.0))
        assert np.all(np.isfinite(d))

    def test_linear_mark_intensity_identity(self):
        # under the linear mark, per-product intensity equals the tendency
        rng = np.random.default_rng(13)
        for _ in range(10):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products, beta=None)
            state = decay_state_init(log.n_users, log.n_products)
            for ev in log:
                state.absorb(ev)
            state.advance(log.horizon)
            for u in range(log.n_users):
                lam = total_intensity(state, params, u)
                d = mark_density(state, params, u)
                for p in range(log.n_products):
                    assert lam * d[p] == pytest.approx(
                        tendency(state, params, u, p), rel=1e-12
                    )


class TestCompensator:
    def test_constant_intensity(self):
        params = ModelParams(np.array([[0.5]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        log = EventLog([], 5.0, 1, 1)
        assert compensator(log, params, 0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_single_event_hand_value(self):
        params = ModelParams(np.array([[0.5]]), np.array([[0.1]]), SoftMaxMark(1.0))
        log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        expected = 1.0 + 0.1 * (1 - math.exp(-1))
        assert compensator(log, params, 0, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_alpha_linear_in_time(self):
        rng = np.random.default_rng(17)
        log = random_log(rng, n_users=3, n_products=2)
        params = ModelParams(rng.uniform(0.1, 1, (3, 2)), np.zeros((3, 3)), SoftMaxMark(1.0))
        for u in range(3):
            assert compensator(log, params, u, log.horizon) == params.mu_user[u] * log.horizon

    def test_matches_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            log = random_log(rng, max_events=15)
            params = random_params(rng, log.n_users, log.n_products)
            for u in range(log.n_users):
                expected = quad_compensator(log, params, u, log.horizon, tol=1e-10)
                assert compensator(log, params, u, log.horizon) == pytest.approx(expected, abs=1e-6)

    def test_t_end_beyond_horizon_rejected(self):
        params = ModelParams(np.array([[0.5]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        log = EventLog([], 5.0, 1, 1)
        with pytest.raises(ValueError):
            compensator(log, params, 0, 6.0)


class TestDomainTypes:
    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            EventLog([(2.0, 0, 0), (1.0, 0, 0)], 5.0, 1, 1)

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            EventLog([(6.0, 0, 0)], 5.0, 1, 1)

    def test_non_finite_times_and_horizon_rejected(self):
        # NaN passes every ordering check, and a NaN time stalls tie grouping
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                EventLog([(1.0, 0, 0), (bad, 0, 0)], 5.0, 1, 1)
            with pytest.raises(ValueError, match="finite"):
                EventLog([(1.0, 0, 0)], bad, 1, 1)

    def test_from_arrays_matches_rows(self):
        rng = np.random.default_rng(31)
        log = random_log(rng, max_events=20)
        times = np.array(log.times)
        built = EventLog.from_arrays(
            times, log.users, log.products, log.horizon, log.n_users, log.n_products
        )
        assert built == log
        times[:] = 0.0  # the log keeps its own copy
        assert built == log
        with pytest.raises(ValueError, match="sorted"):
            EventLog.from_arrays([2.0, 1.0], [0, 0], [0, 0], 5.0, 1, 1)
        with pytest.raises(ValueError, match="equal-length"):
            EventLog.from_arrays([1.0, 2.0], [0], [0, 0], 5.0, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            EventLog.from_arrays([1.0, float("nan")], [0, 0], [0, 0], 5.0, 1, 1)

    def test_ids_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EventLog([(1.0, 1, 0)], 5.0, 1, 1)
        with pytest.raises(ValueError):
            EventLog([(1.0, 0, 2)], 5.0, 1, 2)

    def test_restrictions_are_pure_filters(self):
        rng = np.random.default_rng(23)
        log = random_log(rng, n_users=3, n_products=2, max_events=20)
        du = log.restrict_user(1)
        assert np.all(du.users == 1)
        dq = log.restrict_product(0)
        assert np.all(dq.products == 0)
        s = log.horizon / 2
        ds = log.before(s)
        assert np.all(ds.times < s)
        # order preserved
        assert np.all(np.diff(du.times) >= 0)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(np.array([[-0.1]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        with pytest.raises(ValueError):
            ModelParams(np.array([[0.1]]), np.array([[-0.5]]), SoftMaxMark(1.0))

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            SoftMaxMark(0.0)
        with pytest.raises(ValueError):
            SoftMaxMark(float("inf"))
