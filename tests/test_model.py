import math

import numpy as np
import pytest

from corrcascades import (
    EventLog,
    LinearMark,
    ModelParams,
    SimConfig,
    SoftMaxMark,
    build_all_features,
    simulate,
    window_nll,
)
from corrcascades.data import concat_logs
from corrcascades.likelihood import InfeasibleLikelihoodError, _event_loglik
from corrcascades.model import _UNDERFLOW, decayed_counts

from conftest import (
    brute_counts,
    brute_intensity,
    brute_tendency,
    brute_total_nll,
    random_log,
    random_params,
    tied_log,
    user_eval,
)


def _theta(params, user):
    """User u's packed parameters [alpha[:, u] | mu[u]]."""
    return np.concatenate([params.alpha[:, user], params.mu[user]])


def _tendencies(log, params, user):
    """The K x M tendency matrix g_u(t_i) = D_i^T theta at user u's events,
    off its stacked event Jacobian as the likelihood computes it."""
    jac = build_all_features(log)[user].jac
    nm, k, m = jac.shape
    return (_theta(params, user) @ jac.reshape(nm, k * m)).reshape(k, m)


class TestDecayState:
    """The decayed counts B(t), one N x M array: in closed form at one time
    (`decayed_counts`) and at a user's event times (the feature snapshots)."""

    def test_init_zero(self):
        log = EventLog([(1.0, 0, 0)], 2.0, 2, 3)
        b = decayed_counts(log, 1.0, 0, 0)
        assert b.shape == (2, 3) and b.dtype == float
        assert np.all(b == 0)
        np.testing.assert_array_equal(build_all_features(log)[0].jac[:2, 0], b)

    def test_init_single_cell(self):
        assert decayed_counts(EventLog([(0.0, 0, 0)], 1.0, 1, 1), 0.0, 0, 1).shape == (1, 1)

    def test_init_paper_dimensions(self):
        log = EventLog([(0.5, 7, 4)], 1.0, 50, 5)
        assert decayed_counts(log, 0.5, 0, 1).shape == (50, 5)
        assert build_all_features(log)[7].jac.shape == (55, 1, 5)

    def test_init_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            EventLog([], 1.0, 0, 3)
        with pytest.raises(ValueError):
            EventLog([], 1.0, 3, 0)

    def test_absorb_first_event(self):
        b = decayed_counts(EventLog([(1.0, 0, 0)], 2.0, 2, 2), 1.0, 0, 1)
        assert b[0, 0] == 1.0
        assert b.sum() == 1.0

    def test_advance_decays_exponentially(self):
        log = EventLog([(1.0, 0, 0), (2.0, 1, 0)], 3.0, 2, 2)
        b = decayed_counts(log, 2.0, 0, 2)
        assert b[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert b[1, 0] == 1.0

    def test_simultaneous_events_no_decay(self):
        assert decayed_counts(EventLog([(1.0, 0, 0), (1.0, 0, 0)], 2.0, 1, 1), 1.0, 0, 2)[0, 0] == 2.0

    def test_advance_scales_all_entries(self):
        # the snapshot at user 0's second event holds the first two events
        # and not the third, tied with the second
        log = EventLog([(1.0, 0, 1), (1.0, 1, 0), (3.5, 0, 0), (3.5, 1, 1)], 4.0, 2, 2)
        before = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            build_all_features(log)[0].jac[:2, 1], before * math.exp(-2.5), rtol=1e-14
        )

    def test_closed_form_matches_rescan(self):
        # at each tie-run start the counts hold exactly the events strictly
        # before it, whole or carried from the previous run start; at the
        # last event they hold the whole log
        rng = np.random.default_rng(29)
        for _ in range(200):
            log = tied_log(rng)
            times = log.times
            starts = [i for i in range(len(log)) if i == 0 or times[i] != times[i - 1]]
            prev = 0
            for lo in starts:
                t = times[lo]
                expected = brute_counts(log, t)
                np.testing.assert_allclose(decayed_counts(log, t, 0, lo), expected, rtol=1e-12, atol=0.0)
                carried = decayed_counts(log, times[prev], 0, prev) * math.exp(-(t - times[prev]))
                carried += decayed_counts(log, t, prev, lo)
                np.testing.assert_allclose(carried, expected, rtol=1e-12, atol=0.0)
                prev = lo
            if len(log):
                np.testing.assert_allclose(
                    decayed_counts(log, times[-1], 0, len(log)),
                    brute_counts(log, times[-1], inclusive=True),
                    rtol=1e-12,
                    atol=0.0,
                )


class TestUnderflowHorizon:
    """Events more than _UNDERFLOW = 746 time units before a time add
    exp(-(t - t_i)) = 0.0 exactly, and the counts skip them."""

    GAPS = (0.0, 0.0, 0.5, 2.0, 744.5, 745.5, 746.0, 746.5)  # tie runs, and gaps straddling it

    def test_horizon_is_past_the_last_subnormal(self):
        assert _UNDERFLOW == 746
        assert np.exp(-745.0) > 0.0
        assert not np.exp(-np.linspace(746.0, 800.0, 10_001)).any()

    def test_skip_equals_a_full_bincount_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            log = tied_log(rng, max_events=40, gaps=self.GAPS, min_events=1)
            n, m = log.n_users, log.n_products
            times = log.times
            offsets = [0.0, 0.5, 744.5, 745.5, 746.0, 746.5]
            for t in np.unique(np.add.outer(times, offsets)):
                for lo, hi in [(0, int(np.searchsorted(times, t, side="right"))), (1, len(log) - 1)]:
                    if lo > hi or (hi and times[hi - 1] > t):
                        continue
                    weights = np.exp(-(t - times[lo:hi]))
                    cells = log.users[lo:hi] * m + log.products[lo:hi]
                    full = np.bincount(cells, weights, minlength=n * m).astype(float).reshape(n, m)
                    np.testing.assert_array_equal(decayed_counts(log, t, lo, hi), full)

    def test_sampling_sees_only_the_last_746_time_units_of_history(self):
        rng = np.random.default_rng(37)
        for case in range(6):
            log = tied_log(rng, max_events=60, gaps=self.GAPS, min_events=60)
            params = random_params(rng, log.n_users, log.n_products, alpha_high=0.2)  # subcritical
            horizon = float(log.times[-1]) + float(rng.choice([0.5, 1.0, 3.0]))
            keep = log.times >= horizon - 746.0
            assert 0 < keep.sum() < len(log)
            whole = log.with_horizon(horizon)
            recent = EventLog.from_arrays(
                log.times[keep], log.users[keep], log.products[keep], horizon, log.n_users, log.n_products
            )
            sampled = [
                simulate(params, SimConfig(horizon=horizon + 20.0, seed=case, initial_history=h))
                for h in (whole, recent)
            ]
            for field in ("times", "users", "products"):
                np.testing.assert_array_equal(getattr(sampled[0], field), getattr(sampled[1], field))
            assert sampled[0].horizon == sampled[1].horizon == horizon + 20.0


class TestTendency:
    """g_u^p(t_i) at a user's event times, as the per-user likelihood sees them."""

    def test_empty_history_is_baseline(self):
        params = random_params(np.random.default_rng(0), 2, 2)
        log = EventLog([(1.0, 0, 1)], 2.0, 2, 2)
        np.testing.assert_array_equal(_tendencies(log, params, 0), params.mu[:1])

    def test_hand_value(self):
        # one event by user 1 on product 0, exactly one time unit earlier
        mu = np.array([[0.5, 0.2], [0.1, 0.1]])
        alpha = np.zeros((2, 2))
        alpha[1, 0] = 0.1
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        log = EventLog([(1.0, 1, 0), (2.0, 0, 1)], 3.0, 2, 2)
        assert _tendencies(log, params, 0)[0, 0] == pytest.approx(0.5 + 0.1 * math.exp(-1), abs=1e-9)

    def test_zero_alpha_ignores_history(self):
        rng = np.random.default_rng(3)
        params = ModelParams(rng.uniform(0.1, 1, (3, 2)), np.zeros((3, 3)), SoftMaxMark(1.0))
        log = EventLog([(0.5, 0, 0), (1.0, 0, 0), (1.5, 0, 0), (2.0, 1, 1), (2.0, 2, 0)], 3.0, 3, 2)
        for u in range(3):
            g = _tendencies(log, params, u)
            np.testing.assert_array_equal(g, np.broadcast_to(params.mu[u], g.shape))

    def test_index_out_of_range(self):
        # a user or product beyond the parameters' is refused, not indexed
        params = random_params(np.random.default_rng(0), 2, 2)
        for n, m in ((3, 2), (2, 3)):
            log = EventLog([(1.0, n - 1, m - 1)], 2.0, n, m)
            with pytest.raises(ValueError, match="products"):
                window_nll(log, params, 0.0, 2.0)

    def test_matches_brute_force_rescan(self):
        # sufficient-statistic correctness on randomized logs
        rng = np.random.default_rng(11)
        for _ in range(25):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            for u in range(log.n_users):
                g = _tendencies(log, params, u)
                for i, t in enumerate(log.times[log.users == u]):
                    for p in range(log.n_products):
                        expected = brute_tendency(log, params, u, p, float(t))
                        assert g[i, p] == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestTotalIntensity:
    """lambda_u(t_i) = sum_p g_u^p(t_i) at a user's event times."""

    @staticmethod
    def _intensities(log, params, user):
        return user_eval(build_all_features(log)[user], _theta(params, user), params.mark.beta)[2]

    def test_empty_history(self):
        params = random_params(np.random.default_rng(1), 3, 2)
        log = EventLog([(1.0, 1, 0)], 2.0, 3, 2)
        assert self._intensities(log, params, 1)[0] == pytest.approx(params.mu_user[1], rel=1e-14)

    def test_single_product_equals_tendency(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 2, 1)
        log = EventLog([(0.3, 1, 0), (1.0, 0, 0)], 2.0, 2, 1)
        assert self._intensities(log, params, 0)[0] == _tendencies(log, params, 0)[0, 0]

    def test_hand_value_two_products(self):
        mu = np.array([[0.5, 0.2], [0.1, 0.1]])
        alpha = np.zeros((2, 2))
        alpha[1, 0] = 0.1
        params = ModelParams(mu, alpha, SoftMaxMark(1.0))
        log = EventLog([(1.0, 1, 0), (2.0, 0, 0)], 3.0, 2, 2)
        assert self._intensities(log, params, 0)[0] == pytest.approx(0.7 + 0.1 * math.exp(-1), abs=1e-9)

    def test_additivity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products)
            for u in range(log.n_users):
                if not np.any(log.users == u):
                    continue
                lam = self._intensities(log, params, u)
                np.testing.assert_array_equal(lam, _tendencies(log, params, u).sum(axis=1))
                brute = [brute_intensity(log, params, u, float(t)) for t in log.times[log.users == u]]
                np.testing.assert_allclose(lam, brute, rtol=1e-10)


def _mark_density(g, mark):
    """The mark probabilities f(p) at one tendency vector g, read off the
    likelihood: scored with product p, an event's term in `_event_loglik`
    is log lambda + log f(p)."""
    g = np.asarray(g, dtype=float)[None, :]
    terms = [_event_loglik(g, np.array([p]), mark) for p in range(g.shape[1])]
    return np.array([math.exp(loglik - math.log(lam[0])) for loglik, lam, _ in terms])


class TestMarkDensity:
    """Mark probabilities as the likelihood scores them (`_event_loglik`)."""

    def test_equal_tendencies_uniform(self):
        for mark in (SoftMaxMark(0.01), SoftMaxMark(1.0), SoftMaxMark(50.0), LinearMark()):
            np.testing.assert_allclose(_mark_density([0.4, 0.4, 0.4], mark), 1 / 3, rtol=1e-12)

    def test_softmax_hand_value(self):
        d = _mark_density([1.0, 2.0], SoftMaxMark(1.0))
        np.testing.assert_allclose(d, [0.268941, 0.731059], atol=1e-6)

    def test_linear_hand_value(self):
        np.testing.assert_allclose(_mark_density([1.0, 3.0], LinearMark()), [0.25, 0.75], rtol=1e-14)

    def test_linear_all_zero_raises(self):
        # a linear mark gives a product of zero tendency zero probability
        with pytest.raises(InfeasibleLikelihoodError, match="mark density"):
            _event_loglik(np.array([[1.0, 0.0, 2.0]]), np.array([1]), LinearMark())
        with pytest.raises(InfeasibleLikelihoodError, match="intensity"):
            _event_loglik(np.zeros((1, 3)), np.array([0]), LinearMark())

    def test_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.uniform(0, 5, size=rng.integers(1, 6))
            beta = float(rng.uniform(0.01, 100))
            assert _mark_density(g, SoftMaxMark(beta)).sum() == pytest.approx(1.0, abs=1e-12)
            assert _mark_density(g, LinearMark()).sum() == pytest.approx(1.0, abs=1e-12)
            f = _event_loglik(g[None, :], np.array([0]), SoftMaxMark(beta))[2]
            assert f.sum() == pytest.approx(1.0, abs=1e-12)

    def test_softmax_shift_invariant(self):
        # adding a constant to every tendency leaves the soft-max probabilities
        rng = np.random.default_rng(10)
        for _ in range(50):
            g = rng.uniform(0, 5, size=rng.integers(1, 6))
            mark = SoftMaxMark(float(rng.uniform(0.01, 100)))
            base = _mark_density(g, mark)
            for shift in (0.5, 3.0, 250.0):
                np.testing.assert_allclose(_mark_density(g + shift, mark), base, rtol=1e-9)

    def test_large_beta_concentrates_on_argmax(self):
        d = _mark_density([0.3, 0.9, 0.5], SoftMaxMark(1e3))
        assert np.all(np.isfinite(d)) and d[1] > 1 - 1e-6

    def test_small_beta_approaches_uniform(self):
        d = _mark_density([0.3, 0.9, 0.5], SoftMaxMark(1e-6))
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(d, 1 / 3, atol=1e-6)

    def test_no_overflow_huge_tendencies(self):
        d = _mark_density([1000.0, 1001.0], SoftMaxMark(1.0))
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(d, [1 / (1 + math.e), math.e / (1 + math.e)], rtol=1e-12)

    def test_linear_mark_intensity_identity(self):
        # under the linear mark, per-product intensity equals the tendency
        rng = np.random.default_rng(13)
        for _ in range(10):
            log = random_log(rng)
            params = random_params(rng, log.n_users, log.n_products, beta=None)
            for u in range(log.n_users):
                for g in _tendencies(log, params, u):
                    np.testing.assert_allclose(g.sum() * _mark_density(g, params.mark), g, rtol=1e-12)


class TestCompensator:
    """The closed-form compensator, read off windows that hold no event."""

    def test_constant_intensity(self):
        params = ModelParams(np.array([[0.5]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        log = EventLog([], 5.0, 1, 1)
        assert window_nll(log, params, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_single_event_hand_value(self):
        # the event at t = 1 belongs to the window ending there
        params = ModelParams(np.array([[0.5]]), np.array([[0.1]]), SoftMaxMark(1.0))
        log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        expected = 0.5 + 0.1 * (1 - math.exp(-1))
        assert window_nll(log, params, 1.0, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_alpha_linear_in_time(self):
        rng = np.random.default_rng(17)
        log = random_log(rng, n_users=3, n_products=2)
        params = ModelParams(rng.uniform(0.1, 1, (3, 2)), np.zeros((3, 3)), SoftMaxMark(1.0))
        t_last = float(log.times[-1]) if len(log) else 0.0
        expected = (log.horizon - t_last) * params.mu_user.sum()
        assert window_nll(log, params, t_last, log.horizon) == expected

    def test_matches_quadrature(self):
        # the whole-log NLL with its survival term integrated numerically
        rng = np.random.default_rng(19)
        for _ in range(8):
            log = random_log(rng, max_events=15)
            params = random_params(rng, log.n_users, log.n_products)
            expected = brute_total_nll(log, params, use_quad=True)
            assert window_nll(log, params, 0.0, log.horizon) == pytest.approx(expected, abs=1e-6)

    def test_t_end_beyond_horizon_rejected(self):
        params = ModelParams(np.array([[0.5]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        log = EventLog([], 5.0, 1, 1)
        with pytest.raises(ValueError):
            window_nll(log, params, 0.0, 6.0)


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

    def test_negative_horizon_or_time_rejected(self):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            EventLog([], -1.0, 1, 1)
        with pytest.raises(ValueError, match="event times must be nonnegative"):
            EventLog([(-0.5, 0, 0), (1.0, 0, 0)], 5.0, 1, 1)

    def test_concat_refuses_other_dimensions_or_overlap(self):
        head = EventLog([(2.0, 0, 0)], 3.0, 1, 1)
        with pytest.raises(ValueError, match="mismatched dimensions"):
            concat_logs(head, EventLog([(4.0, 0, 0)], 5.0, 2, 1))
        with pytest.raises(ValueError, match="mismatched dimensions"):
            concat_logs(head, EventLog([(4.0, 0, 0)], 5.0, 1, 2))
        # a tail that starts before the head ends is an unsorted log
        with pytest.raises(ValueError, match="sorted"):
            concat_logs(head, EventLog([(1.0, 0, 0)], 5.0, 1, 1))

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

    def test_fractional_or_boolean_counts_rejected(self):
        # 2.5 users passed the check of user 2's id, then were truncated to 2
        for n_users, n_products in ((2.5, 1), (True, 1), (3, np.True_), (float("nan"), 1), (math.inf, 1)):
            with pytest.raises(ValueError, match="integers >= 1"):
                EventLog([(0.1, 2, 0)], 1.0, n_users, n_products)
        log = EventLog([(0.1, 2, 0)], 1.0, 3.0, np.int64(1))
        assert (log.n_users, log.n_products) == (3, 1)
        assert decayed_counts(log, 0.5, 0, 1).shape == (3, 1)

    def test_ids_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EventLog([(1.0, 1, 0)], 5.0, 1, 1)
        with pytest.raises(ValueError):
            EventLog([(1.0, 0, 2)], 5.0, 1, 2)

    def test_restrictions_are_pure_filters(self):
        rng = np.random.default_rng(23)
        log = random_log(rng, n_users=3, n_products=2, max_events=20)
        s = log.horizon / 2
        ds = log.before(s)
        keep = log.times < s
        np.testing.assert_array_equal(ds.times, log.times[keep])
        np.testing.assert_array_equal(ds.users, log.users[keep])
        np.testing.assert_array_equal(ds.products, log.products[keep])
        assert ds.horizon == log.horizon

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(np.array([[-0.1]]), np.zeros((1, 1)), SoftMaxMark(1.0))
        with pytest.raises(ValueError):
            ModelParams(np.array([[0.1]]), np.array([[-0.5]]), SoftMaxMark(1.0))

    def test_misshapen_or_non_finite_params_rejected(self):
        with pytest.raises(ValueError, match="mu must be an N x M matrix"):
            ModelParams(np.array([0.1, 0.2]), np.zeros((2, 2)), SoftMaxMark(1.0))
        for alpha in (np.zeros((2, 3)), np.zeros((1, 1)), np.zeros(4)):
            with pytest.raises(ValueError, match="alpha must be N x N"):
                ModelParams(np.full((2, 1), 0.1), alpha, SoftMaxMark(1.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(np.array([[bad]]), np.zeros((1, 1)), SoftMaxMark(1.0))
            with pytest.raises(ValueError, match="finite"):
                ModelParams(np.array([[0.1]]), np.array([[bad]]), SoftMaxMark(1.0))

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            SoftMaxMark(0.0)
        with pytest.raises(ValueError):
            SoftMaxMark(float("inf"))
        for flag in (True, np.True_):
            with pytest.raises(TypeError, match="bool"):
                SoftMaxMark(flag)

    def test_unknown_mark_rejected(self):
        # every consumer scored any mark but a SoftMaxMark as linear
        for mark in ("softmax", None, 1.0, LinearMark):
            with pytest.raises(TypeError, match="SoftMaxMark or a LinearMark"):
                ModelParams(np.full((1, 1), 0.1), np.zeros((1, 1)), mark)
