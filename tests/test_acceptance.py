"""End-to-end acceptance suite.

Each test prints one summary line; run pytest with -s to see them for
passing tests.  The heavy recovery study (criterion 4) runs at full scale
and dominates the suite's runtime.
"""

import time

import numpy as np
import pytest
from scipy import stats

from corrcascades import (
    EventLog,
    LinearMark,
    ModelParams,
    SoftMaxMark,
    UserParams,
    build_all_features,
    total_nll,
    user_nll,
    user_nll_gradient,
)
from corrcascades.fitting import FitConfig, fit_all
from corrcascades.io import write_event_log, write_params
from corrcascades.metrics import avg_pred_loglik, pearson
from corrcascades.replicate import (
    make_incentivization_model,
    run_incentivization,
    run_recovery,
)
from corrcascades.simulate import (
    Scenario,
    SimConfig,
    binned_intensity,
    rescaled_interevent_times,
    run_scenario,
    simulate,
)

from conftest import brute_total_nll, random_log, random_params


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_likelihood_matches_brute_force():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 50:
        log = random_log(rng, max_events=30)
        params = random_params(rng, log.n_users, log.n_products)
        fast = total_nll(log, params)
        brute = brute_total_nll(log, params, use_quad=False)
        rel = abs(fast - brute) / max(abs(brute), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10, f"log {checked}: relative error {rel:.2e}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("criterion 1", f"50 logs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    step = 1e-6
    worst = 0.0
    checked = 0
    while checked < 50:
        log = random_log(rng, max_events=30)
        if len(log) == 0:
            continue
        beta = float(rng.uniform(0.3, 3.0))
        theta = UserParams(
            rng.uniform(0.05, 0.4, log.n_users), rng.uniform(0.1, 1.0, log.n_products)
        )
        n = log.n_users
        features = build_all_features(log)[int(rng.integers(n))]
        analytic = user_nll_gradient(features, theta, beta)
        packed = np.concatenate([theta.alpha_col, theta.mu_row])
        for i in range(packed.size):
            hi, lo = packed.copy(), packed.copy()
            hi[i] += step
            lo[i] -= step
            f_hi = user_nll(features, UserParams(hi[:n], hi[n:]), beta)
            f_lo = user_nll(features, UserParams(lo[:n], lo[n:]), beta)
            numeric = (f_hi - f_lo) / (2 * step)
            rel = abs(analytic[i] - numeric) / max(abs(numeric), 1e-4)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"log {checked} coord {i}: rel err {rel:.2e}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("criterion 2", f"50 logs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_convexity_chords():
    rng = np.random.default_rng(103)
    violations = 0
    total = 0
    for _ in range(5):
        log = random_log(rng, max_events=25)
        n, m = log.n_users, log.n_products
        beta = float(rng.uniform(0.3, 3.0))
        features = build_all_features(log)[int(rng.integers(n))]
        for _ in range(200):
            a = rng.uniform(0.01, 1.0, n + m)
            b = rng.uniform(0.01, 1.0, n + m)
            w = float(rng.uniform(0.1, 0.9))
            mid = w * a + (1 - w) * b
            f_mid = user_nll(features, UserParams(mid[:n], mid[n:]), beta)
            f_a = user_nll(features, UserParams(a[:n], a[n:]), beta)
            f_b = user_nll(features, UserParams(b[:n], b[n:]), beta)
            total += 1
            if f_mid > w * f_a + (1 - w) * f_b + 1e-9:
                violations += 1
    assert violations == 0, f"{violations} of {total} chords violated convexity"
    _report("criterion 3", f"{total} chords, zero violations")


def test_criterion_4_parameter_recovery_trend():
    start = time.perf_counter()
    result = run_recovery(seed=0, fit_config=FitConfig(n_workers=1))
    rows = result.rows
    assert len(rows) == 10
    mse_10, mse_100 = rows[0].mse, rows[-1].mse
    assert mse_100 <= 0.5 * mse_10, (
        f"MSE at 100% ({mse_100:.3e}) not half of 10% ({mse_10:.3e})"
    )
    scores = [r.avg_pred_loglik for r in rows]
    violations = sum(1 for a, b in zip(scores, scores[1:]) if b > a)
    assert violations <= 2, f"{violations} of 9 adjacent pairs non-decreasing: {scores}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 1800.0, f"took {elapsed:.0f}s"
    _report(
        "criterion 4",
        f"mse {mse_10:.2e}->{mse_100:.2e}, loglik violations {violations}/9, {elapsed:.0f}s",
    )


def test_criterion_5_incentivization_scenario():
    ok_a = ok_b = ok_c = 0
    seeds = range(10)
    for seed in seeds:
        result = run_incentivization(seed=seed)
        runs = {r.label: r for r in result.runs}
        boosted = result.boosted_product
        sw = result.switch_time
        n_products = result.params.n_products

        def post_counts(label):
            log = runs[label].result.log
            post = log.products[log.times >= sw]
            return np.array([(post == p).sum() for p in range(n_products)], dtype=float)

        # (a) sharp competition: the boosted product dominates post-switch
        counts = post_counts("correlated_beta100")
        shares = counts / counts.sum()
        ok_a += all(shares[boosted] > shares[p] for p in range(n_products) if p != boosted)

        # (b) weak competition spreads intensity far more evenly
        def ratio(label):
            c = post_counts(label)
            return c.max() / max(c.min(), 1.0)

        ok_b += ratio("correlated_beta0.1") < ratio("correlated_beta100")

        # (c) the independent model leaves non-boosted products untouched;
        # every correlated model shifts at least one of them
        pvals = {}
        for label in runs:
            ps = []
            for p in range(n_products):
                if p == boosted:
                    continue
                curve = runs[label].intensity[p]
                pre = curve.values[curve.grid < sw]
                post = curve.values[curve.grid >= sw]
                _, pv = stats.mannwhitneyu(pre, post)
                ps.append(pv)
            pvals[label] = ps
        indep_ok = all(pv > 0.01 for pv in pvals["independent"])
        corr_ok = all(
            min(pvals[label]) < 0.01 for label in pvals if label != "independent"
        )
        ok_c += indep_ok and corr_ok
    assert ok_a >= 9, f"(a) held in only {ok_a}/10 seeds"
    assert ok_b >= 9, f"(b) held in only {ok_b}/10 seeds"
    assert ok_c >= 9, f"(c) held in only {ok_c}/10 seeds"
    _report("criterion 5", f"(a) {ok_a}/10, (b) {ok_b}/10, (c) {ok_c}/10 seeds")


def test_criterion_6_sampler_validity():
    # time-rescaling: pooled compensator gaps are Exponential(1)
    rng = np.random.default_rng(106)
    mu = rng.uniform(0.1, 0.3, (10, 2))
    alpha = rng.uniform(0.0, 0.05, (10, 10))
    params = ModelParams(mu, alpha, SoftMaxMark(1.0))
    rate = float(np.linalg.solve(np.eye(10) - alpha.T, mu.sum(axis=1)).sum())
    log = simulate(params, SimConfig(horizon=5200.0 / rate, seed=206))
    assert len(log) >= 5000
    gaps = rescaled_interevent_times(log, params)
    _, p_value = stats.kstest(gaps, "expon")
    assert p_value > 0.01, f"KS p-value {p_value:.4f}"

    # Poisson reduction: mean count over 1,000 seeds within 3 standard errors
    poisson = ModelParams(np.array([[2.0]]), np.zeros((1, 1)), SoftMaxMark(1.0))
    counts = [len(simulate(poisson, SimConfig(horizon=10.0, seed=s))) for s in range(1000)]
    mean = float(np.mean(counts))
    se = np.sqrt(20.0 / 1000)
    assert abs(mean - 20.0) <= 3 * se, f"mean {mean:.3f} vs 20 +- {3 * se:.3f}"
    _report(
        "criterion 6",
        f"KS p={p_value:.3f} on {len(gaps)} gaps; Poisson mean {mean:.3f} (3SE {3 * se:.3f})",
    )


def test_criterion_7_determinism_and_parallel_equivalence(tmp_path):
    rng = np.random.default_rng(107)
    params = random_params(rng, 4, 2, mu_high=0.5, alpha_high=0.2)

    paths = [tmp_path / "log_a.csv", tmp_path / "log_b.csv"]
    for path in paths:
        write_event_log(simulate(params, SimConfig(horizon=40.0, seed=7)), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    log = simulate(params, SimConfig(horizon=40.0, seed=7))
    seq, _ = fit_all(log, FitConfig(beta=1.0, n_workers=1))
    seq2, _ = fit_all(log, FitConfig(beta=1.0, n_workers=1))
    par, _ = fit_all(log, FitConfig(beta=1.0, n_workers=2))
    np.testing.assert_array_equal(seq.mu, seq2.mu)
    np.testing.assert_array_equal(seq.alpha, seq2.alpha)
    np.testing.assert_array_equal(seq.mu, par.mu)
    np.testing.assert_array_equal(seq.alpha, par.alpha)

    fit_paths = [tmp_path / "fit_a.json", tmp_path / "fit_b.json"]
    write_params(seq, fit_paths[0])
    write_params(seq2, fit_paths[1])
    assert fit_paths[0].read_bytes() == fit_paths[1].read_bytes()
    _report("criterion 7", "byte-identical logs and parameter files; parallel == sequential")


def test_criterion_8_self_consistency_beats_shuffled_controls():
    # real-data figures are not reproducible at desk scale, so the stand-in
    # oracle checks that generated streams and parameters from the true
    # model outscore shuffled controls on both metrics
    wins_pearson = wins_loglik = 0
    n, m = 30, 3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = make_incentivization_model(rng, n_users=n, n_products=m)
        scenario = Scenario(
            switch_time=30.0,
            boosted_product=2,
            boost_factor=2.0,
            pre_switch_mark=LinearMark(),
            post_switch_mark=SoftMaxMark(100.0),
        )
        real = run_scenario(params, scenario, SimConfig(horizon=60.0, seed=seed)).log
        gen = run_scenario(params, scenario, SimConfig(horizon=60.0, seed=seed + 1000)).log
        perm = np.array([1, 2, 0])
        shuffled_stream = EventLog(
            zip(gen.times, gen.users, perm[gen.products]), 60.0, n, m
        )

        def curve_score(stream):
            r = binned_intensity(real, 2.0, by_product=True)
            s = binned_intensity(stream, 2.0, by_product=True)
            return float(np.mean([pearson(r[p], s[p]) for p in range(m)]))

        wins_pearson += curve_score(gen) > curve_score(shuffled_stream)

        boosted_mu = params.mu.copy()
        boosted_mu[:, 2] *= 2.0
        true_post = ModelParams(boosted_mu, params.alpha, SoftMaxMark(100.0))
        shuffled_post = ModelParams(
            boosted_mu[rng.permutation(n)],
            rng.permutation(params.alpha.ravel()).reshape(n, n),
            SoftMaxMark(100.0),
        )
        train = real.before(45.0).with_horizon(45.0)
        mask = real.times >= 45.0
        test = EventLog(
            zip(real.times[mask], real.users[mask], real.products[mask]), 60.0, n, m
        )
        wins_loglik += avg_pred_loglik(train, test, true_post) < avg_pred_loglik(
            train, test, shuffled_post
        )
    assert wins_pearson >= 8, f"pearson wins {wins_pearson}/10"
    assert wins_loglik >= 8, f"loglik wins {wins_loglik}/10"
    _report("criterion 8", f"pearson {wins_pearson}/10, loglik {wins_loglik}/10 seeds")
