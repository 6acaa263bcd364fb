import contextlib
import dataclasses
import functools
import itertools
import math
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrcascades import (
    EventLog,
    InfeasibleLikelihoodError,
    build_all_features,
    window_nll,
)
from corrcascades import _workers, fitting
from corrcascades.fitting import FitConfig, _compensator_slope, _user_features, cross_validate_beta, fit_all, fit_user
from corrcascades.likelihood import BLOCK
from corrcascades.metrics import avg_pred_loglik, held_out_score
from corrcascades.model import ModelParams, SoftMaxMark
from corrcascades.replicate import expected_event_rate, make_recovery_model
from corrcascades.simulate import SimConfig, simulate

from conftest import (
    brute_simulate,
    brute_total_nll,
    random_log,
    random_params,
    tied_log,
    user_nll,
    user_nll_gradient,
)



def _features(log, user):
    return build_all_features(log)[user]


def _kkt_residual(features, theta, beta):
    """The natural KKT residual norm |theta - max(theta - grad, 0)| of one
    user's NLL over theta >= 0, from the analytic gradient."""
    residual = theta - np.maximum(theta - user_nll_gradient(features, theta, beta), 0.0)
    return math.sqrt(residual @ residual)


def lbfgsb_nll(features, beta):
    """One user's minimal NLL over theta >= 0 by scipy's L-BFGS-B, an
    independent reference for the projected-Newton fit."""
    from scipy.optimize import minimize

    def objective(theta):
        theta = np.maximum(theta, 0.0)  # its line search may step a hair past the bound
        try:
            return user_nll(features, theta, beta), user_nll_gradient(features, theta, beta)
        except InfeasibleLikelihoodError:  # a zero intensity, which L-BFGS-B may try
            return np.inf, np.zeros_like(theta)

    n, m = features.n_users, features.n_products
    start = np.concatenate([np.full(n, 0.01), np.bincount(features.products, minlength=m) / features.horizon])
    best = minimize(
        objective, start, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * (n + m),
        options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 2000},
    )
    return best.fun


@contextlib.contextmanager
def _start_influence_at(value):
    """Start the fit's influence coordinates at `value` instead of 0, those
    that no event's Jacobian row sees excepted; baselines keep their
    per-product rates."""
    newton = fitting._projected_newton

    def start_elsewhere(features, theta, config):
        n = features.n_users
        theta = theta.copy()
        theta[:n] = np.where(features.flat[:n].any(axis=1), value, 0.0)
        return newton(features, theta, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_projected_newton", start_elsewhere)
        yield


@functools.cache
def retry_log(seed):
    """A `make_recovery_model` log on which some users converge only through
    the retry of a failed line search with the clipped coordinates pinned."""
    params = make_recovery_model(np.random.default_rng(seed), 30, 5, 0.3, mu_high=1e-4)
    return simulate(params, SimConfig(horizon=3000 / expected_event_rate(params), seed=seed))


def poisson_log(rng, rate, horizon):
    n = rng.poisson(rate * horizon)
    times = np.sort(rng.uniform(0, horizon, n))
    return EventLog([(t, 0, 0) for t in times], horizon, 1, 1)


class TestFitUser:
    def test_poisson_mle(self):
        rng = np.random.default_rng(0)
        log = poisson_log(rng, rate=2.0, horizon=100.0)
        theta, entry = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        assert theta[1] == pytest.approx(len(log) / 100.0, rel=0.05)
        assert entry.nll > 0

    def test_empty_user_driven_to_floor(self):
        log = EventLog([], 5.0, 2, 2)
        theta, _ = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        assert np.all(theta == 0.0)

    def test_infeasible_init_reinitializes(self):
        # extreme starts (an intensity near underflow, a compensator in the
        # thousands) must reach the same optimum as the default start
        rng = np.random.default_rng(37)
        for _ in range(5):
            log = random_log(rng, n_users=3, n_products=2, max_events=25)
            user = int(rng.integers(log.n_users))
            _, ref = fit_user(_features(log, user), user, FitConfig(beta=1.0))
            for init in (1e-300, 1e3):
                with _start_influence_at(init):
                    _, entry = fit_user(_features(log, user), user, FitConfig(beta=1.0))
                assert entry.converged
                assert entry.nll == pytest.approx(ref.nll, abs=1e-8)

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            log = random_log(rng, max_events=20)
            theta, entry = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
            assert np.all(theta >= 0)
            assert np.isfinite(user_nll(_features(log, 0), theta, 1.0))
            assert np.isfinite(entry.nll)

    def test_monotone_outer_stages(self, monkeypatch):
        # capping the step count replays the solve step by step
        rng = np.random.default_rng(5)
        features = _features(random_log(rng, n_users=2, n_products=2, max_events=25), 0)
        prev_nll = np.inf
        for cap in range(0, 40):
            monkeypatch.setattr(fitting, "_MAX_STEPS", cap)
            theta, entry = fit_user(features, 0, FitConfig(beta=1.0))
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
            # the certificate is the returned point's KKT residual, recomputed here
            norm = _kkt_residual(features, theta, 1.0)
            assert entry.converged
            assert entry.nll == user_nll(features, theta, 1.0)
            assert entry.grad_norm == norm
            assert norm <= 1e-4

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(11)
        log = random_log(rng, n_users=2, n_products=2, max_events=25)
        features = _features(log, 0)
        theta, entry = fit_user(features, 0, FitConfig(beta=1.0))
        best = user_nll(features, theta, 1.0)
        for _ in range(50):
            cand = np.concatenate([rng.uniform(1e-4, 0.5, log.n_users), rng.uniform(1e-4, 1.0, log.n_products)])
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
            cand = np.concatenate([rng.uniform(1e-4, 1.0, n), rng.uniform(1e-4, 1.0, m)])
            assert best <= user_nll(features, cand, beta) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.3, 1.0, 5.0]))
    @example(seed=1544, beta=1.0)  # L-BFGS-B steps a hair below the bound here
    @example(seed=1573, beta=1.0)
    def test_property_converged_users_reach_lbfgsb_optimum(self, seed, beta):
        # every user reaches its certificate and sits at the optimum that
        # L-BFGS-B finds from its own start, on spread and on tied event times
        rng = np.random.default_rng(seed)
        for log in (random_log(rng, max_events=40), tied_log(rng, max_events=40)):
            if log.horizon == 0:  # with events no MLE exists; without, nothing to fit
                continue
            features = build_all_features(log)
            _, report = fit_all(log, FitConfig(beta=beta))
            assert report.all_converged, report.entries
            for entry in report.entries:
                best = lbfgsb_nll(features[entry.user], beta)
                assert entry.nll <= best + 1e-9 * max(1.0, abs(entry.nll)), (entry, best)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.3, 1.0, 5.0]))
    def test_property_start_at_zero_reaches_same_optimum(self, seed, beta):
        # the default start puts influence at 0, on the bound; it must reach
        # the optimum that a start inside the feasible set reaches
        rng = np.random.default_rng(seed)
        log = random_log(rng, max_events=40)
        _, zero = fit_all(log, FitConfig(beta=beta))
        with _start_influence_at(0.01):
            _, inside = fit_all(log, FitConfig(beta=beta))
        assert zero.all_converged and inside.all_converged
        for a, b in zip(zero.entries, inside.entries):
            assert abs(a.nll - b.nll) <= 1e-9 * max(1.0, abs(b.nll)), (a, b)

    def test_rejects_bad_counts_in_config(self):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="n_workers"):
                FitConfig(n_workers=workers)

    def test_config_holds_beta_and_workers_only(self):
        # the step cap and the hold-out share are the solver's constants
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["beta", "n_workers"]
        assert (fitting._MAX_STEPS, fitting._HOLDOUT) == (500, 0.2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: FitConfig(inner_max_iter=3),
            lambda: cross_validate_beta(EventLog([(1.0, 0, 0)], 2.0, 1, 1), [1.0], holdout_fraction=0.5),
        ],
        ids=["inner_max_iter", "holdout_fraction"],
    )
    def test_retired_settings_refused(self, call):
        # a caller that still sets the step cap or the hold-out share is told
        # so, instead of fitting under the constants it meant to override
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    def test_step_cap_of_zero_returns_the_start(self, monkeypatch):
        # the cap counts Newton steps: with none allowed the fit is the start,
        # influence 0 and baselines at the per-product event rate, checked once
        monkeypatch.setattr(fitting, "_MAX_STEPS", 0)
        log = EventLog([(1.0, 0, 0), (2.0, 1, 1), (3.0, 0, 1), (3.5, 0, 0)], 4.0, 2, 2)
        features = _features(log, 0)
        theta, entry = fit_user(features, 0, FitConfig(beta=1.0))
        assert theta.tolist() == [0.0, 0.0, 2 / 4.0, 1 / 4.0]
        assert (entry.outer_iterations, entry.inner_iterations) == (1, 1)
        assert not entry.converged
        assert entry.nll == user_nll(features, theta, 1.0)

    def test_rejects_non_finite_config(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FitConfig(beta=bad)


    def test_zero_horizon_with_events_refused(self):
        # with no compensator the NLL is unbounded below: no MLE exists.  A
        # worker's exception reaches the caller with its type and message,
        # and no worker outlives the failed fit
        log = EventLog([(0.0, 0, 0), (0.0, 0, 1), (0.0, 1, 1)], 0.0, 2, 2)
        with pytest.raises(ValueError, match="horizon 0"):
            fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        raised = []
        for workers in (1, 2):
            with pytest.raises(ValueError, match="horizon 0") as caught:
                fit_all(log, FitConfig(beta=1.0, n_workers=workers))
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        # a user with no events still has the all-zero minimizer
        theta, entry = fit_user(_features(EventLog([(0.0, 0, 0)], 0.0, 2, 1), 1), 1, FitConfig(beta=1.0))
        assert entry.converged and not theta.any()


class TestEveryUserCertified:
    """Every user reaches its KKT certificate, baselines near 0 included."""

    @pytest.mark.parametrize("seed", [69, 91])
    def test_tied_logs_with_small_baselines(self, seed):
        rng = np.random.default_rng(seed)
        random_log(rng, max_events=40)  # the draw these seeds were found after
        log = tied_log(rng, max_events=40)
        for beta in (0.3, 1.0, 3.0):
            _, report = fit_all(log, FitConfig(beta=beta))
            assert report.all_converged, (beta, report.entries)

    def test_recovery_model_with_tiny_baselines(self):
        params = make_recovery_model(np.random.default_rng(5), 20, 3, mu_high=5e-4)
        log = simulate(params, SimConfig(horizon=3000 / expected_event_rate(params), seed=5))
        _, report = fit_all(log, FitConfig(beta=1.0))
        assert len(report.entries) == 20 and report.all_converged

    @pytest.mark.parametrize("seed, user", [(12, 15), (13, 7)])
    def test_failed_line_search_retried_with_clipped_coordinates_pinned(self, seed, user):
        # these users reach a step whose line search finds no decrease; only
        # the retry, with the coordinates the full step clipped pinned at the
        # bound, gets them past it (tried once, they stop at KKT residuals
        # of 1.88 and 2.82)
        log = retry_log(seed)
        work = np.empty(BLOCK * log.n_users * log.n_products)
        features = _user_features(log, user, _compensator_slope(log), work)
        _, entry = fit_user(features, user, FitConfig(beta=0.3))
        assert entry.converged, entry


class TestOneObjectivePath:
    """The solver reads its per-user constants (`EventFeatures.flat` and
    `observed`) once, and scores and differentiates through
    the same `_eval_features` and `_gradient_from_eval` as the test helpers
    `user_nll` and `user_nll_gradient`, so what it reports is theirs bit for bit."""

    @staticmethod
    def _logs(rng, n_products):
        # random logs in which user 3 of 4 stays silent (K = 0)
        for _ in range(8):
            base = random_log(rng, n_users=4, n_products=n_products, max_events=40)
            users = np.where(base.users == 3, 0, base.users)
            yield EventLog.from_arrays(base.times, users, base.products, base.horizon, 4, n_products)

    @pytest.mark.parametrize("n_products", [1, 5])
    def test_reported_nll_and_gradient_are_the_public_ones(self, monkeypatch, n_products):
        solves = []
        newton = fitting._projected_newton

        def spy(features, theta, config):
            out = newton(features, theta, config)
            solves.append(out[2])
            return out

        monkeypatch.setattr(fitting, "_projected_newton", spy)
        rng = np.random.default_rng(89 + n_products)
        checked = silent = 0
        for log in self._logs(rng, n_products):
            beta = float(rng.uniform(0.3, 3.0))
            for user, features in build_all_features(log).items():
                theta, entry = fit_user(features, user, FitConfig(beta=beta))
                # the solver's residual is the one at the point it returns
                residual = _kkt_residual(features, theta, beta)
                assert entry.nll == user_nll(features, theta, beta)
                assert solves.pop() == entry.grad_norm == residual
                assert residual <= 1e-4
                checked += 1
                silent += features.n_events == 0
        assert checked == 32 and silent >= 8

    def test_coordinates_no_event_sees_end_at_zero(self):
        # a coordinate whose Jacobian row is 0 at every event enters the NLL
        # only through the compensator, linearly with a nonnegative slope,
        # so its minimizer is exactly 0
        rng = np.random.default_rng(97)
        unseen = 0
        for m in range(1, 8):
            for log in self._logs(rng, m):
                for user, features in build_all_features(log).items():
                    theta, _ = fit_user(features, user, FitConfig())
                    no_event = ~(features.jac != 0).any(axis=(1, 2))
                    assert not theta[no_event].any()
                    unseen += no_event.sum()
        assert unseen > 0


class TestDefaultWorkerCount:
    def test_counts_the_affinity_mask(self, monkeypatch):
        # a fit pinned to one core starts one worker on a many-core host
        monkeypatch.delenv(_workers.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _workers.default_worker_count() == 1

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delenv(_workers.WORKERS_ENV_VAR, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _workers.default_worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _workers.default_worker_count() == 1

    def test_variable_overrides_the_mask(self, monkeypatch):
        monkeypatch.setenv(_workers.WORKERS_ENV_VAR, "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers.default_worker_count() == 3


class TestFitAll:
    def test_single_user_matches_fit_user(self):
        rng = np.random.default_rng(13)
        log = random_log(rng, n_users=1, n_products=2, max_events=20)
        params, report = fit_all(log, FitConfig(beta=1.0))
        theta, _ = fit_user(_features(log, 0), 0, FitConfig(beta=1.0))
        np.testing.assert_array_equal(params.mu[0], theta[1:])
        np.testing.assert_array_equal(params.alpha[:, 0], theta[:1])

    def test_every_user_matches_fit_user_at_any_worker_count(self):
        # each share reuses one Jacobian buffer, sized for its largest user
        # and sliced per user: every user's fit equals one on fresh features,
        # whichever share the user falls in and wherever in it
        rng = np.random.default_rng(31)
        times = np.cumsum(rng.choice((0.0, 0.0, 0.3, 1.0), size=90))
        users = rng.choice(4, size=90, p=[0.45, 0.3, 0.15, 0.1])  # user 4 of 5 stays silent
        log = EventLog.from_arrays(times, users, rng.integers(0, 3, 90), times[-1] + 0.5, 5, 3)
        counts = np.bincount(log.users, minlength=5)
        assert counts[4] == 0 and len(set(counts[:4].tolist())) == 4 and (np.diff(log.times) == 0).any()
        config = FitConfig(beta=1.0)
        fresh = [fit_user(build_all_features(log)[u], u, config) for u in range(5)]
        for workers in (1, 2, 3):
            params, report = fit_all(log, dataclasses.replace(config, n_workers=workers))
            for u, (theta, entry) in enumerate(fresh):
                np.testing.assert_array_equal(np.concatenate([params.alpha[:, u], params.mu[u]]), theta)
                assert report.entries[u].nll == entry.nll

    def test_parallel_equals_sequential(self, monkeypatch):
        # worker counts that do not divide N, a user with no events, and
        # more workers than users: every strided share lands in user order,
        # through forked workers and through the shares run one after
        # another where fork is unsafe, and no worker outlives the fit
        rng = np.random.default_rng(17)
        base = random_log(rng, n_users=5, n_products=2, max_events=40)
        users = np.where(base.users == 2, 0, base.users)  # user 2 stays silent
        silent = EventLog.from_arrays(base.times, users, base.products, base.horizon, 5, 2)
        assert len(silent) > 5
        small = random_log(rng, n_users=2, n_products=2, max_events=20)
        for log, counts in ((silent, (2, 3, 4)), (small, (4,))):
            seq, seq_report = fit_all(log, FitConfig(beta=1.0, n_workers=1))
            for fork, workers in itertools.product((_workers.FORK_SAFE, False), counts):
                monkeypatch.setattr(_workers, "FORK_SAFE", fork)
                par, par_report = fit_all(log, FitConfig(beta=1.0, n_workers=workers))
                np.testing.assert_array_equal(seq.mu, par.mu)
                np.testing.assert_array_equal(seq.alpha, par.alpha)
                assert [(e.user, e.nll) for e in par_report.entries] == [
                    (e.user, e.nll) for e in seq_report.entries
                ]

    def test_shares_run_in_the_caller_where_fork_is_unsafe(self, monkeypatch):
        # no fork and no process pool: the three shares run one after another
        def no_fork():
            raise AssertionError("forked")

        log = random_log(np.random.default_rng(31), n_users=5, n_products=2, max_events=40)
        seq, seq_report = fit_all(log, FitConfig(beta=1.0, n_workers=1))
        monkeypatch.setattr(_workers, "FORK_SAFE", False)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)  # importing it raises
        par, par_report = fit_all(log, FitConfig(beta=1.0, n_workers=3))
        np.testing.assert_array_equal(seq.mu, par.mu)
        np.testing.assert_array_equal(seq.alpha, par.alpha)
        assert [(e.user, e.nll) for e in par_report.entries] == [(e.user, e.nll) for e in seq_report.entries]

    @pytest.mark.skipif(not _workers.FORK_SAFE, reason="the shares run in the caller here")
    def test_worker_without_result_is_named_and_reaped(self, monkeypatch):
        # share 1 dies without sending a result while share 2 is still
        # busy: once the caller has fitted share 0 itself, the fit names
        # worker 1 and kills worker 2
        fit_users = fitting._fit_users

        def dying(log, users, config):
            if users.start == 1:
                os._exit(3)
            if users.start == 2:
                time.sleep(30.0)
            return fit_users(log, users, config)

        monkeypatch.setattr(fitting, "_fit_users", dying)
        log = random_log(np.random.default_rng(29), n_users=4, n_products=2, max_events=30)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker 1 ended without a result \(exit code 3\)"):
            fit_all(log, FitConfig(beta=1.0, n_workers=3))
        assert time.monotonic() - start < 10.0

    @pytest.mark.parametrize("beta", [0.3, 1.0, 3.0, 100.0])
    @pytest.mark.parametrize("seed", [12, 13, None], ids=["retry-12", "retry-13", "silent-tied"])
    def test_fit_jobs_issue_no_warning(self, seed, beta):
        # a forked worker's warning prints from that worker, under the filters
        # it inherited, and never reaches the caller's records; that is
        # harmless only while no fit job warns.  The error filter fails the
        # fit on the first warning of any share, forked or not
        if seed is None:
            rng = np.random.default_rng(7)
            times = np.cumsum(rng.choice((0.0, 0.0, 0.5, 1.0, 800.0), size=60))
            users = rng.integers(0, 3, 60)  # user 3 of 4 stays silent
            log = EventLog.from_arrays(times, users, rng.integers(0, 2, 60), times[-1] + 0.5, 4, 2)
            assert (np.diff(log.times) == 0).any() and not (log.users == 3).any()
        else:
            log = retry_log(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = fit_all(log, FitConfig(beta, n_workers=2))
        assert report.all_converged

    def test_sequential_fit_holds_one_users_features(self):
        # users are streamed through the map, so the traced peak is one
        # user's working set (its stacked event Jacobian and the Hessian
        # factor of the free rows), not every user's features at once.
        # Measured: peak 0.84 MB, 7.2 times the largest user's 117 kB of
        # snapshots, against 5.18 MB for all 60 users (6.0 MB peak before
        # streaming, 9.9 times with a second per-user copy of the Jacobian in
        # the solver, 8.85 times with the factor built for every row and its
        # free rows copied out)
        rng = np.random.default_rng(3)
        n, m, k = 60, 3, 3600
        log = EventLog.from_arrays(
            np.sort(rng.uniform(0.0, 40.0, k)), rng.integers(0, n, k), rng.integers(0, m, k), 40.0, n, m
        )
        sizes = [f.jac[:n].nbytes for f in build_all_features(log).values()]
        tracemalloc.start()
        try:
            fit_all(log, FitConfig(beta=1.0, n_workers=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8.5 * max(sizes)
        assert bound < sum(sizes) / 3
        assert peak < bound, (peak, max(sizes), sum(sizes))

    def test_few_events_per_user_match_lbfgsb(self, monkeypatch):
        # N >> K: a user's free block can hold more coordinates than its
        # Hessian factor has columns, K(M+1), and then the step is taken in
        # event space; every fit must still reach L-BFGS-B's optimum
        rng = np.random.default_rng(41)
        n, m, horizon = 120, 2, 10.0
        users = np.repeat(np.arange(n), rng.integers(2, 7, n))
        times = rng.uniform(0.0, horizon, users.size)
        order = np.argsort(times)
        log = EventLog.from_arrays(times[order], users[order], rng.integers(0, m, users.size), horizon, n, m)
        shapes = []

        def spy(x, grad, ridge, step=fitting._ridge_step):
            shapes.append(x.shape)
            return step(x, grad, ridge)

        monkeypatch.setattr(fitting, "_ridge_step", spy)
        _, report = fit_all(log, FitConfig(beta=1.0, n_workers=1))
        assert sum(rows > cols for rows, cols in shapes) >= n
        features = build_all_features(log)
        for entry in report.entries:
            assert entry.converged
            assert entry.nll <= lbfgsb_nll(features[entry.user], 1.0) + 1e-9 * abs(entry.nll), entry

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


def reference_log(params, horizon, seed):
    """A log drawn by `brute_simulate`, whose random stream is frozen, so the
    fitter's tests keep their data whatever stream the library's sampler
    draws."""
    events, _, _ = brute_simulate([(horizon, params)], seed)
    return EventLog(events, horizon, params.n_users, params.n_products)


class TestCrossValidateBeta:
    def test_singleton_grid_short_circuits(self):
        log = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        beta, scores = cross_validate_beta(log, [1.0])
        assert beta == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="beta grid must be nonempty"):
            cross_validate_beta(EventLog([(1.0, 0, 0)], 2.0, 1, 1), [])

    def test_degenerate_split_rejected(self):
        log = EventLog([(1.9, 0, 0)], 2.0, 1, 1)
        with pytest.raises(ValueError):
            cross_validate_beta(log, [0.5, 1.0])  # empty head

    def test_tail_events_at_split_scored(self):
        # t_split = 0.8 T = 8 falls on a run of tied events: they are tail
        # events, counted in the per-event mean and scored in the tail window
        rng = np.random.default_rng(31)
        params = random_params(rng, 2, 2, mu_high=0.6, alpha_high=0.3)
        sim = reference_log(params, 10.0, seed=3)
        rows = sorted(list(zip(sim.times.tolist(), sim.users.tolist(), sim.products.tolist()))
                      + [(8.0, 0, 1), (8.0, 1, 0)])
        log = EventLog(rows, 10.0, 2, 2)
        config = FitConfig(n_workers=1)
        _, scores = cross_validate_beta(log, [0.5, 2.0], config)
        head = log.before(8.0).with_horizon(8.0)
        n_tail = int((log.times >= 8.0).sum())
        assert log.times[len(head)] == 8.0
        assert np.all(np.bincount(head.users, minlength=2) > 0)
        for beta, score in scores:
            fitted, _ = fit_all(head, FitConfig(beta=beta, n_workers=1))
            tail_nll = brute_total_nll(log, fitted, use_quad=False) - brute_total_nll(
                head, fitted, use_quad=False
            )
            assert score == pytest.approx(tail_nll / n_tail, rel=1e-9)
            # the window score of the tail from its first event, bit for bit
            assert score == window_nll(log, fitted, 8.0, 10.0, first_event=len(head)) / n_tail
            # and the score of the same split held as two logs
            tail = EventLog.from_arrays(log.times[len(head):], log.users[len(head):],
                                        log.products[len(head):], 10.0, 2, 2)
            assert held_out_score(log, 8.0, fitted) == score == avg_pred_loglik(head, tail, fitted)
        # user 1 has no baseline and no influencer: its tail event scores inf
        silent = ModelParams(np.array([[0.5, 0.5], [0.0, 0.0]]), np.zeros((2, 2)), SoftMaxMark(1.0))
        assert held_out_score(EventLog([(1.0, 0, 0), (6.0, 1, 1)], 10.0, 2, 2), 5.0, silent) == np.inf
        with pytest.raises(ValueError, match="no held-out events"):
            held_out_score(log, 9.99, fitted)

    def test_user_without_head_events_scores_inf(self):
        # the head [0, 8) holds no event of user 1, whose fit is then exactly
        # 0, so its tail events have zero likelihood under every beta
        log = EventLog([(1.0, 0, 0), (2.0, 0, 1), (7.0, 0, 0), (8.5, 1, 1), (9.0, 1, 0)], 10.0, 2, 2)
        beta, scores = cross_validate_beta(log, [0.5, 2.0], FitConfig(n_workers=1))
        assert scores == [(0.5, np.inf), (2.0, np.inf)]
        assert beta == 0.5

    def test_holdout_share_sets_the_split(self, monkeypatch):
        # user 1's events at 6 and 7 fall in the head [0, 8) of the default
        # split, and in the tail once the share is 0.5
        log = EventLog(
            [(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 0), (6.0, 1, 1), (7.0, 1, 0), (8.5, 1, 1), (9.0, 0, 0)],
            10.0, 2, 2,
        )
        config = FitConfig(n_workers=1)
        _, scores = cross_validate_beta(log, [0.5, 2.0], config)
        head = log.before(8.0).with_horizon(8.0)
        for beta, score in scores:
            fitted, _ = fit_all(head, FitConfig(beta=beta, n_workers=1))
            assert np.isfinite(score) and score == held_out_score(log, 8.0, fitted)
        monkeypatch.setattr(fitting, "_HOLDOUT", 0.5)
        assert cross_validate_beta(log, [0.5, 2.0], config) == (0.5, [(0.5, np.inf), (2.0, np.inf)])

    @staticmethod
    def _cv_picks(gen_beta, trials=5):
        rng = np.random.default_rng(29)
        picks = []
        for trial in range(trials):
            params = random_params(rng, 3, 2, beta=gen_beta, mu_high=0.25, alpha_high=0.28)
            log = reference_log(params, 150.0, seed=100 + trial)
            if len(log) < 30:
                continue
            beta, _ = cross_validate_beta(log, [0.05, 1.0, 20.0])
            picks.append(beta)
        return picks

    def test_selects_sharp_marks_when_generated_sharp(self):
        # beta near 1 is weakly identified (rescaling theta nearly absorbs
        # it), but sharp marks leave a signature rescaling cannot fake
        picks = self._cv_picks(20.0)
        assert len(picks) == 5
        assert sum(p == 20.0 for p in picks) >= 4

    def test_rejects_sharp_marks_when_generated_flat(self):
        # beta 20 wins on about 20% of flat-generated logs (81 of 400 trials
        # of this kind on other seeds); at that rate more than 23 of 60 such
        # picks has probability 3.8e-4
        picks = self._cv_picks(0.05, trials=60)
        assert len(picks) == 60
        assert sum(p == 20.0 for p in picks) <= 23
