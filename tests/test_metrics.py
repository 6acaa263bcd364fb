import math

import numpy as np
import pytest

from corrcascades import EventLog, ModelParams, SoftMaxMark, window_nll
from corrcascades.data import concat_logs
from corrcascades.metrics import (
    CurveScoreRow,
    CurveSeries,
    avg_pred_loglik,
    _pooled,
    binned_intensity,
    check_held_out,
    compare_models,
    inv_l1,
    param_mae,
    param_mse,
    pearson,
)
from corrcascades.simulate import SimConfig, simulate

from conftest import brute_total_nll, random_params, tied_log


def single_entry_params(alpha_val, mu_val):
    return ModelParams(np.array([[mu_val]]), np.array([[alpha_val]]), SoftMaxMark(1.0))


class TestParamErrors:
    def test_mse_hand_value(self):
        # one alpha entry off by 0.1 over two parameters total
        est = single_entry_params(0.3, 0.5)
        true = single_entry_params(0.2, 0.5)
        assert param_mse(est, true) == pytest.approx(0.005, rel=1e-12)

    def test_mse_zero_for_identical(self):
        p = single_entry_params(0.2, 0.5)
        assert param_mse(p, p) == 0.0

    def test_mae_hand_value(self):
        est = single_entry_params(0.3, 0.5)
        true = single_entry_params(0.2, 0.5)
        # |0.1| / 0.2 averaged with an exact mu entry
        assert param_mae(est, true) == pytest.approx(0.25, rel=1e-12)

    def test_mae_floors_zero_truth(self):
        est = single_entry_params(1e-6, 0.5)
        true = single_entry_params(0.0, 0.5)
        assert param_mae(est, true) == pytest.approx(0.5, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            param_mse(random_params(rng, 2, 2), random_params(rng, 3, 2))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = random_params(rng, 3, 2)
        b = random_params(rng, 3, 2)
        assert param_mse(a, b) == param_mse(b, a)


class TestAvgPredLoglik:
    def test_matches_window_nll(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 2, 2, mu_high=0.5, alpha_high=0.2)
        log = simulate(params, SimConfig(horizon=40.0, seed=5))
        split = 30.0
        train = log.before(split).with_horizon(split)
        tail_mask = log.times >= split
        test = EventLog(
            zip(log.times[tail_mask], log.users[tail_mask], log.products[tail_mask]),
            40.0,
            2,
            2,
        )
        expected = window_nll(log, params, split, 40.0) / len(test)
        assert avg_pred_loglik(train, test, params) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def _brute_score(train, test, params):
        combined = concat_logs(train, test)
        nll = brute_total_nll(combined, params, use_quad=False)
        return (nll - brute_total_nll(train, params, use_quad=False)) / len(test)

    def test_event_at_train_horizon_scored(self):
        params = ModelParams(
            np.array([[0.3, 0.1], [0.2, 0.4]]), np.array([[0.2, 0.5], [0.1, 0.3]]), SoftMaxMark(1.0)
        )
        train = EventLog([(0.5, 0, 0), (1.2, 1, 1)], 2.0, 2, 2)
        at = EventLog([(2.0, 1, 0), (2.7, 0, 1)], 4.0, 2, 2)
        later = EventLog([(2.0 + 1e-9, 1, 0), (2.7, 0, 1)], 4.0, 2, 2)
        score = avg_pred_loglik(train, at, params)
        assert score == pytest.approx(self._brute_score(train, at, params), rel=1e-9)
        # the score is continuous as the event moves off the boundary
        assert score == pytest.approx(avg_pred_loglik(train, later, params), rel=1e-7)

    def test_train_horizon_zero(self):
        # the train's time-0 events are history, not test events
        params = ModelParams(np.array([[0.3, 0.1], [0.2, 0.4]]), np.full((2, 2), 0.2), SoftMaxMark(2.0))
        train = EventLog([(0.0, 0, 0), (0.0, 1, 1)], 0.0, 2, 2)
        test = EventLog([(0.0, 1, 0), (0.4, 0, 0), (1.5, 1, 1)], 3.0, 2, 2)
        score = avg_pred_loglik(train, test, params)
        assert score == pytest.approx(self._brute_score(train, test, params), rel=1e-9)

    def test_split_inside_tied_run_matches_rescan(self):
        # split every tied log between two events that share a time, and
        # at time 0: the scores add the test events and nothing else
        rng = np.random.default_rng(113)
        checked = at_zero = 0
        for _ in range(150):
            log = tied_log(rng, gaps=(0.0, 0.0, 0.5, 1.0))
            ties = np.flatnonzero(np.diff(log.times) == 0) + 1
            if ties.size == 0:
                continue
            beta = float(rng.uniform(0.3, 3.0)) if rng.uniform() < 0.5 else None
            params = random_params(rng, log.n_users, log.n_products, beta=beta)
            k = int(rng.choice(ties))
            t = float(log.times[k])
            keep = slice(0, k), slice(k, len(log))
            train, test = (
                EventLog.from_arrays(
                    log.times[w], log.users[w], log.products[w], h, log.n_users, log.n_products
                )
                for w, h in zip(keep, (t, log.horizon))
            )
            score = avg_pred_loglik(train, test, params)
            assert score == pytest.approx(self._brute_score(train, test, params), rel=1e-9)
            checked += 1
            at_zero += t == 0.0
        assert checked >= 50 and at_zero >= 5

    def test_empty_test_rejected(self):
        train = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        test = EventLog([], 4.0, 1, 1)
        with pytest.raises(ValueError):
            avg_pred_loglik(train, test, single_entry_params(0.1, 0.5))

    def test_overlapping_test_rejected(self):
        train = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        test = EventLog([(1.5, 0, 0)], 4.0, 1, 1)
        with pytest.raises(ValueError):
            avg_pred_loglik(train, test, single_entry_params(0.1, 0.5))

    def test_logs_of_other_dimensions_rejected(self):
        train = EventLog([(1.0, 0, 0)], 2.0, 1, 1)
        for test in (EventLog([(3.0, 0, 0)], 4.0, 2, 1), EventLog([(3.0, 0, 0)], 4.0, 1, 2)):
            with pytest.raises(ValueError, match="mismatched dimensions"):
                check_held_out(train, test, single_entry_params(0.1, 0.5))


class TestCurveSeries:
    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            CurveSeries(grid=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CurveSeries(grid=[0.0, 1.0], values=[1.0])


class TestPearson:
    def test_hand_value(self):
        a = CurveSeries(grid=[0.0, 1.0, 2.0], values=[1.0, 2.0, 3.0])
        b = CurveSeries(grid=[0.0, 1.0, 2.0], values=[1.0, 2.0, 4.0])
        assert pearson(a, b) == pytest.approx(0.981981, abs=1e-6)

    def test_affine_relation_is_one(self):
        g = np.linspace(0, 5, 8)
        a = CurveSeries(grid=g, values=np.sin(g))
        b = CurveSeries(grid=g, values=3.0 * np.sin(g) - 2.0)
        assert pearson(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_nan_points_dropped_pairwise(self):
        g = [0.0, 1.0, 2.0, 3.0]
        a = CurveSeries(grid=g, values=[np.nan, 2.0, 3.0, 4.0])
        b = CurveSeries(grid=g, values=[1.0, 4.0, 6.0, np.nan])
        assert pearson(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_constant_curve_is_nan(self):
        g = [0.0, 1.0, 2.0]
        a = CurveSeries(grid=g, values=[1.0, 1.0, 1.0])
        b = CurveSeries(grid=g, values=[1.0, 2.0, 3.0])
        assert math.isnan(pearson(a, b))

    def test_too_few_shared_points_is_nan(self):
        g = [0.0, 1.0]
        a = CurveSeries(grid=g, values=[1.0, np.nan])
        b = CurveSeries(grid=g, values=[1.0, 2.0])
        assert math.isnan(pearson(a, b))

    def test_grid_mismatch_rejected(self):
        a = CurveSeries(grid=[0.0, 1.0], values=[1.0, 2.0])
        b = CurveSeries(grid=[0.0, 2.0], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            pearson(a, b)


class TestInvL1:
    def test_identical_curves_score_one(self):
        a = CurveSeries(grid=[0.0, 1.0, 2.0], values=[1.0, 5.0, 3.0])
        assert inv_l1(a, a) == 1.0

    def test_hand_value(self):
        a = CurveSeries(grid=[0.0, 1.0], values=[5.0, 5.0])
        b = CurveSeries(grid=[0.0, 1.0], values=[0.0, 0.0])
        # l1 distance 5 + 5 with unit widths: score 1 / 11
        assert inv_l1(a, b) == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_symmetric(self):
        g = np.linspace(0, 3, 6)
        rng = np.random.default_rng(7)
        a = CurveSeries(grid=g, values=rng.uniform(0, 2, 6))
        b = CurveSeries(grid=g, values=rng.uniform(0, 2, 6))
        assert inv_l1(a, b) == inv_l1(b, a)

    def test_monotone_in_distance(self):
        g = [0.0, 1.0, 2.0]
        a = CurveSeries(grid=g, values=[1.0, 1.0, 1.0])
        near = CurveSeries(grid=g, values=[1.1, 1.1, 1.1])
        far = CurveSeries(grid=g, values=[3.0, 3.0, 3.0])
        assert inv_l1(a, near) > inv_l1(a, far)

    def test_grid_mismatch_rejected(self):
        a = CurveSeries(grid=[0.0, 1.0], values=[1.0, 2.0])
        for grid in ([0.0, 2.0], [0.0, 1.0, 2.0]):
            with pytest.raises(ValueError, match="same grid"):
                inv_l1(a, CurveSeries(grid=grid, values=np.ones(len(grid))))

    def test_empty_and_one_point_grids(self):
        # no points: no distance; one point: a unit width
        assert inv_l1(CurveSeries(grid=[], values=[]), CurveSeries(grid=[], values=[])) == 1.0
        a = CurveSeries(grid=[3.0], values=[1.0])
        assert inv_l1(a, CurveSeries(grid=[3.0], values=[4.0])) == 1.0 / 4.0


class TestCompareModels:
    def _log(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 2, 2, mu_high=0.6, alpha_high=0.2)
        return simulate(params, SimConfig(horizon=30.0, seed=seed))

    def test_self_comparison_is_perfect(self):
        log = self._log(11)
        rows = compare_models(log, [("self", log)], bin_width=3.0)
        assert len(rows) == log.n_products + 1
        for row in rows:
            assert row.inv_l1 == 1.0
            assert row.n_events_real == row.n_events_generated
            if not math.isnan(row.pearson):
                assert row.pearson == pytest.approx(1.0, rel=1e-12)

    def test_row_layout(self):
        real = self._log(13)
        gen = self._log(14)
        rows = compare_models(real, [("a", gen), ("b", real)], bin_width=5.0)
        assert [r.model for r in rows] == ["a"] * 3 + ["b"] * 3
        assert [r.product for r in rows] == [0, 1, None, 0, 1, None]
        pooled = rows[2]
        assert pooled.n_events_real == len(real)
        assert pooled.n_events_generated == len(gen)

    def test_pooled_rows_match_a_second_histogram(self):
        # the pooled curve is the sum of the per-product ones, bit for bit
        # what a second `binned_intensity` call histograms again; a width of
        # 7 leaves a partial last bin
        rng = np.random.default_rng(16)
        params = random_params(rng, 3, 3, mu_high=0.6, alpha_high=0.2)
        real, gen = (simulate(params, SimConfig(horizon=30.0, seed=seed)) for seed in (16, 17))
        rows = compare_models(real, [("gen", gen)], bin_width=7.0)
        real_pooled, gen_pooled = (_pooled(binned_intensity(log, 7.0)) for log in (real, gen))
        assert repr(rows[-1]) == repr(
            CurveScoreRow(
                "gen", None, pearson(real_pooled, gen_pooled), inv_l1(real_pooled, gen_pooled), len(real), len(gen)
            )
        )

    def test_frame_mismatch_rejected(self):
        real = self._log(15)
        other = EventLog([], real.horizon, real.n_users, real.n_products + 1)
        with pytest.raises(ValueError):
            compare_models(real, [("bad", other)], bin_width=5.0)
