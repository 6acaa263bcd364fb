import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcascades import EventLog, UserParams, build_all_features, user_nll, user_nll_gradient
from corrcascades.fitting import FitConfig, cross_validate_beta, fit_all, fit_user
from corrcascades.model import SoftMaxMark
from corrcascades.simulate import SimConfig, simulate

from conftest import brute_total_nll, random_log, random_params



def _features(log, user):
    return build_all_features(log)[user]


def _packed(theta):
    return np.concatenate([theta.alpha_col, theta.mu_row])


def poisson_log(rng, rate, horizon):
    n = rng.poisson(rate * horizon)
    times = np.sort(rng.uniform(0, horizon, n))
    return EventLog([(t, 0, 0) for t in times], horizon, 1, 1)


class TestFitUser:
    def test_poisson_mle(self):
        rng = np.random.default_rng(0)
        log = poisson_log(rng, rate=2.0, horizon=100.0)
        theta, entry = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        assert theta.mu_row[0] == pytest.approx(len(log) / 100.0, rel=0.05)
        assert entry.nll > 0

    def test_empty_user_driven_to_floor(self):
        log = EventLog([], 5.0, 2, 2)
        theta, _ = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        assert np.all(_packed(theta) == 0.0)

    def test_infeasible_init_reinitializes(self):
        # extreme starts (an intensity near underflow, a compensator in the
        # thousands) must reach the same optimum as the default start
        rng = np.random.default_rng(37)
        for _ in range(5):
            log = random_log(rng, n_users=3, n_products=2, max_events=25)
            user = int(rng.integers(log.n_users))
            _, ref = fit_user(_features(log, user), user, FitConfig(beta=1.0))
            for init in (1e-300, 1e3):
                _, entry = fit_user(_features(log, user), user, FitConfig(beta=1.0, init_value=init))
                assert entry.converged
                assert entry.nll == pytest.approx(ref.nll, abs=1e-8)

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            log = random_log(rng, max_events=20)
            theta, entry = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
            assert np.all(_packed(theta) >= 0)
            assert np.isfinite(user_nll(_features(log, 0), theta, 1.0))
            assert np.isfinite(entry.nll)

    def test_monotone_outer_stages(self):
        # capping the step count replays the solve step by step
        rng = np.random.default_rng(5)
        features = _features(random_log(rng, n_users=2, n_products=2, max_events=25), 0)
        prev_nll = np.inf
        for cap in range(0, 40):
            theta, entry = fit_user(features, 0, FitConfig(beta=1.0, inner_max_iter=cap))
            nll = user_nll(features, theta, 1.0)
            assert nll <= prev_nll
            prev_nll = nll
            if entry.outer_iterations <= cap:  # stopped before the cap
                break
        assert cap >= 2
        assert entry.converged

    def test_projected_gradient_certificate(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            log = random_log(rng, n_users=3, n_products=2, max_events=25)
            user = int(rng.integers(log.n_users))
            features = _features(log, user)
            theta, entry = fit_user(features, user, FitConfig(beta=1.0))
            grad = user_nll_gradient(features, theta, 1.0)
            packed = _packed(theta)
            # components pinned near zero only count if they push outward
            pinned = packed <= 1e-6
            projected = grad.copy()
            projected[pinned] = np.minimum(grad[pinned], 0.0)
            assert np.linalg.norm(projected) <= 1e-4 or np.linalg.norm(projected) <= 1e-3

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(11)
        log = random_log(rng, n_users=2, n_products=2, max_events=25)
        features = _features(log, 0)
        theta, entry = fit_user(features, 0, FitConfig(beta=1.0))
        best = user_nll(features, theta, 1.0)
        for _ in range(50):
            cand = UserParams(
                rng.uniform(1e-4, 0.5, log.n_users), rng.uniform(1e-4, 1.0, log.n_products)
            )
            assert best <= user_nll(features, cand, 1.0) + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.3, 1.0, 5.0]))
    def test_property_beats_random_feasible_points(self, seed, beta):
        rng = np.random.default_rng(seed)
        log = random_log(rng, max_events=20)
        user = int(rng.integers(log.n_users))
        n, m = log.n_users, log.n_products
        features = _features(log, user)
        theta, entry = fit_user(features, user, FitConfig(beta=beta))
        assert entry.converged
        best = user_nll(features, theta, beta)
        for _ in range(200):
            cand = UserParams(rng.uniform(1e-4, 1.0, n), rng.uniform(1e-4, 1.0, m))
            assert best <= user_nll(features, cand, beta) + 1e-9

    def test_rejects_non_finite_config(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FitConfig(beta=bad)
            with pytest.raises(ValueError, match="finite"):
                FitConfig(init_value=bad)


    def test_zero_horizon_with_events_refused(self):
        # with no compensator the NLL is unbounded below: no MLE exists
        log = EventLog([(0.0, 0, 0), (0.0, 0, 1)], 0.0, 1, 2)
        with pytest.raises(ValueError, match="horizon 0"):
            fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        with pytest.raises(ValueError, match="horizon 0"):
            fit_all(log, FitConfig(beta=1.0))
        # a user with no events still has the all-zero minimizer
        theta, entry = fit_user(_features(EventLog([(0.0, 0, 0)], 0.0, 2, 1), 1), 1, FitConfig(beta=1.0))
        assert entry.converged and not _packed(theta).any()


class TestFitAll:
    def test_single_user_matches_fit_user(self):
        rng = np.random.default_rng(13)
        log = random_log(rng, n_users=1, n_products=2, max_events=20)
        params, report = fit_all(log, FitConfig(beta=1.0))
        theta, _ = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        np.testing.assert_array_equal(params.mu[0], theta.mu_row)
        np.testing.assert_array_equal(params.alpha[:, 0], theta.alpha_col)

    def test_parallel_equals_sequential(self):
        rng = np.random.default_rng(17)
        log = random_log(rng, n_users=3, n_products=2, max_events=30)
        seq, _ = fit_all(log, FitConfig(beta=1.0, n_workers=1))
        par, _ = fit_all(log, FitConfig(beta=1.0, n_workers=2))
        np.testing.assert_array_equal(seq.mu, par.mu)
        np.testing.assert_array_equal(seq.alpha, par.alpha)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(19)
        log = random_log(rng, n_users=2, n_products=2, max_events=20)
        a, ra = fit_all(log, FitConfig(beta=1.0))
        b, rb = fit_all(log, FitConfig(beta=1.0))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert [e.nll for e in ra.entries] == [e.nll for e in rb.entries]

    def test_report_schema(self):
        rng = np.random.default_rng(23)
        log = random_log(rng, n_users=2, n_products=1, max_events=10)
        _, report = fit_all(log, FitConfig(beta=1.0))
        assert len(report.entries) == 2
        for e in report.entries:
            assert e.outer_iterations >= 1
            assert e.wall_time >= 0
            assert isinstance(e.converged, bool)


class TestCrossValidateBeta:
    def test_singleton_grid_short_circuits(self):
        log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        beta, scores = cross_validate_beta(log, [1.0], 0.2)
        assert beta == 1.0

    def test_degenerate_split_rejected(self):
        log = EventLog([(1.9, 0, 0)], 2.0, 1, 1)
        with pytest.raises(ValueError):
            cross_validate_beta(log, [0.5, 1.0], 0.5)  # empty head

    def test_bad_holdout_rejected(self):
        log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        with pytest.raises(ValueError):
            cross_validate_beta(log, [1.0, 2.0], 0.0)

    def test_tail_events_at_split_scored(self):
        # t_split = 5 falls on a run of tied events: they are tail events,
        # counted in the per-event mean and scored in the tail window
        rng = np.random.default_rng(31)
        params = random_params(rng, 2, 2, mu_high=0.6, alpha_high=0.3)
        sim = simulate(params, SimConfig(horizon=10.0, seed=3))
        rows = sorted(list(zip(sim.times.tolist(), sim.users.tolist(), sim.products.tolist()))
                      + [(5.0, 0, 1), (5.0, 1, 0)])
        log = EventLog(rows, 10.0, 2, 2)
        config = FitConfig(n_workers=1)
        _, scores = cross_validate_beta(log, [0.5, 2.0], 0.5, config)
        head = log.before(5.0).with_horizon(5.0)
        n_tail = int((log.times >= 5.0).sum())
        assert np.all(np.bincount(head.users, minlength=2) > 0)
        for beta, score in scores:
            fitted, _ = fit_all(head, FitConfig(beta=beta, n_workers=1))
            tail_nll = brute_total_nll(log, fitted, use_quad=False) - brute_total_nll(
                head, fitted, use_quad=False
            )
            assert score == pytest.approx(tail_nll / n_tail, rel=1e-9)

    @staticmethod
    def _cv_picks(gen_beta, trials=5):
        rng = np.random.default_rng(29)
        picks = []
        for trial in range(trials):
            params = random_params(rng, 3, 2, beta=gen_beta, mu_high=0.25, alpha_high=0.28)
            log = simulate(params, SimConfig(horizon=150.0, seed=100 + trial))
            if len(log) < 30:
                continue
            beta, _ = cross_validate_beta(log, [0.05, 1.0, 20.0], 0.2)
            picks.append(beta)
        return picks

    def test_selects_sharp_marks_when_generated_sharp(self):
        # beta near 1 is weakly identified (rescaling theta nearly absorbs
        # it), but sharp marks leave a signature rescaling cannot fake
        picks = self._cv_picks(20.0)
        assert len(picks) == 5
        assert sum(p == 20.0 for p in picks) >= 4

    def test_rejects_sharp_marks_when_generated_flat(self):
        picks = self._cv_picks(0.05)
        assert len(picks) == 5
        assert sum(p != 20.0 for p in picks) >= 4
