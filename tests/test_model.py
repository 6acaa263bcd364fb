import math

import numpy as np
import pytest

from corrcascades import (
    EventLog,
    LinearMark,
    ModelParams,
    SoftMaxMark,
    UndefinedMarkError,
    build_all_features,
    mark_density_from_tendencies,
    window_nll,
)
from corrcascades.likelihood import _eval_features, _tendency_matrix
from corrcascades.model import tie_groups

from conftest import brute_intensity, brute_tendency, brute_total_nll, random_log, random_params, tied_log


def _sweep(log):
    """(run time, copy of the decayed counts) at every run, and the counts
    once the sweep has absorbed the whole log."""
    seen, b = [], None
    for lo, _, b in tie_groups(log):
        seen.append((float(log.times[lo]), b.copy()))
    return seen, b


def _tendencies(log, params, user):
    """The K x M tendency matrix g_u(t_i) at user u's events, off its features."""
    return _tendency_matrix(build_all_features(log)[user], params.alpha[:, user], params.mu[user])


class TestDecayState:
    """The decayed counts B(t) that `tie_groups` yields, one N x M array."""

    def test_init_zero(self):
        seen, _ = _sweep(EventLog([(1.0, 0, 0)], 2.0, 2, 3))
        b = seen[0][1]
        assert b.shape == (2, 3)
        assert np.all(b == 0)

    def test_init_single_cell(self):
        assert _sweep(EventLog([(0.0, 0, 0)], 1.0, 1, 1))[1].shape == (1, 1)

    def test_init_paper_dimensions(self):
        assert _sweep(EventLog([(0.5, 7, 4)], 1.0, 50, 5))[1].shape == (50, 5)

    def test_init_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            EventLog([], 1.0, 0, 3)
        with pytest.raises(ValueError):
            EventLog([], 1.0, 3, 0)

    def test_absorb_first_event(self):
        _, b = _sweep(EventLog([(1.0, 0, 0)], 2.0, 2, 2))
        assert b[0, 0] == 1.0
        assert b.sum() == 1.0

    def test_advance_decays_exponentially(self):
        _, b = _sweep(EventLog([(1.0, 0, 0), (2.0, 1, 0)], 3.0, 2, 2))
        assert b[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert b[1, 0] == 1.0

    def test_simultaneous_events_no_decay(self):
        _, b = _sweep(EventLog([(1.0, 0, 0), (1.0, 0, 0)], 2.0, 1, 1))
        assert b[0, 0] == 2.0

    def test_advance_scales_all_entries(self):
        seen, _ = _sweep(EventLog([(1.0, 0, 1), (1.0, 1, 0), (3.5, 0, 0)], 4.0, 2, 2))
        before = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert seen[1][0] == 3.5
        np.testing.assert_allclose(seen[1][1], before * math.exp(-2.5), rtol=1e-14)


class TestTieGroups:
    def test_runs_and_state_match_rescan(self):
        # at each yield the counts hold exactly the events strictly before
        # the run's time, decayed to it; the exhausted sweep holds them all
        rng = np.random.default_rng(29)
        for _ in range(30):
            log = tied_log(rng)
            runs = []
            b = None
            for lo, hi, b in tie_groups(log):
                t = log.times[lo]
                assert np.all(log.times[lo:hi] == t)
                expected = np.zeros((log.n_users, log.n_products))
                mask = log.times < t
                np.add.at(
                    expected,
                    (log.users[mask], log.products[mask]),
                    np.exp(-(t - log.times[mask])),
                )
                np.testing.assert_allclose(b, expected, rtol=1e-12, atol=1e-300)
                runs.append((lo, hi))
            starts = [i for i in range(len(log)) if i == 0 or log.times[i] != log.times[i - 1]]
            assert runs == list(zip(starts, starts[1:] + [len(log)]))
            if len(log):
                assert b.sum() == pytest.approx(
                    np.exp(-(log.times[-1] - log.times)).sum(), rel=1e-12
                )


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
        return _eval_features(
            build_all_features(log)[user], params.alpha[:, user], params.mu[user], params.mark.beta
        )[2]

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
            for u in range(log.n_users):
                for g in _tendencies(log, params, u):
                    d = mark_density_from_tendencies(g, params.mark)
                    np.testing.assert_allclose(g.sum() * d, g, rtol=1e-12)


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

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            SoftMaxMark(0.0)
        with pytest.raises(ValueError):
            SoftMaxMark(float("inf"))
