import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrcascades

from corrcascades import EventLog, LinearMark, ModelParams, SoftMaxMark
from corrcascades.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from corrcascades import _workers
from corrcascades.fitting import FitConfig, fit_all
from corrcascades import io as io_module
from corrcascades.io import (
    FileFormatError,
    _read_event_log_lines,
    read_event_log,
    read_params,
    write_curves_csv,
    write_event_log,
    write_params,
)
from corrcascades.metrics import CurveSeries, avg_pred_loglik
from corrcascades.simulate import SimConfig, simulate

from conftest import random_params


def _run_cli(*argv):
    """Run the CLI in a child process that must finish within 60 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "corrcascades.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestEventLogIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = random_params(rng, 3, 2)
        log = simulate(params, SimConfig(horizon=20.0, seed=1))
        path = tmp_path / "events.csv"
        write_event_log(log, path)
        assert read_event_log(path) == log

    def test_empty_log_round_trip(self, tmp_path):
        log = EventLog([], 5.0, 2, 3)
        path = tmp_path / "empty.csv"
        write_event_log(log, path)
        back = read_event_log(path)
        assert back == log
        assert back.n_users == 2 and back.n_products == 3

    def test_unsorted_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# n_users=1 n_products=1 horizon=5.0\n"
            "time,user,product\n"
            "2.0,0,0\n"
            "1.0,0,0\n"
        )
        with pytest.raises(FileFormatError, match="line 4"):
            read_event_log(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,user,product\n1.0,0,0\n")
        with pytest.raises(FileFormatError, match="n_users"):
            read_event_log(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# n_users=1 n_products=1 horizon=5.0\ntime,user,product\n1.0,0\n"
        )
        with pytest.raises(FileFormatError, match="3 fields"):
            read_event_log(path)

    def test_out_of_range_user_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# n_users=1 n_products=1 horizon=5.0\ntime,user,product\n1.0,4,0\n"
        )
        with pytest.raises(FileFormatError):
            read_event_log(path)


_SIDECAR = "# n_users=3 n_products=2 horizon=19.5\n"
_HEADER = "time,user,product\n"
# name, file text, whether the line reader accepts it
_PARSER_CORPUS = [
    ("bad_header", _SIDECAR + "time,user,prod\n1.0,0,1\n", False),
    ("two_fields", _SIDECAR + _HEADER + "1.0,0,1\n2.0,1\n", False),
    ("non_numeric", _SIDECAR + _HEADER + "1.0,0,1\nabc,1,1\n", False),
    ("float_user_id", _SIDECAR + _HEADER + "1.0,1.0,1\n", False),
    ("underscore_time", _SIDECAR + _HEADER + "1.0,0,1\n1_0,2,0\n", True),
    ("nan_time", _SIDECAR + _HEADER + "1.0,0,1\nnan,1,0\n2.0,0,0\n", False),
    ("unsorted", _SIDECAR + _HEADER + "2.0,0,1\n1.0,1,0\n", False),
    ("user_out_of_range", _SIDECAR + _HEADER + "1.0,3,0\n", False),
    ("user_beyond_int64", _SIDECAR + _HEADER + "1.0,99999999999999999999,0\n", False),
    ("blank_lines", _SIDECAR + _HEADER + "1.0,0,1\n\n   \n2.0,1,0\n\n", True),
    ("mid_file_comment", _SIDECAR + _HEADER + "1.0,0,1\n# a note\n2.0,1,0\n", True),
    ("late_sidecar_override", _SIDECAR + _HEADER + "1.0,0,1\n# horizon=0.5 n_users=7\n", False),
    ("missing_sidecar", _HEADER + "1.0,0,1\n", False),
    ("empty", _SIDECAR + _HEADER, True),
    ("empty_with_blank_lines", _SIDECAR + _HEADER + "\n  \n", True),
]


class TestEventLogParser:
    """The one-call parse gives the line reader's log or its error, exactly."""

    @pytest.mark.parametrize("name,text,ok", _PARSER_CORPUS, ids=[c[0] for c in _PARSER_CORPUS])
    def test_same_log_or_error_as_line_reader(self, tmp_path, capsys, name, text, ok):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if ok:
                assert read_event_log(path) == _read_event_log_lines(path)
                return
            with pytest.raises(FileFormatError) as expected:
                _read_event_log_lines(path)
            with pytest.raises(FileFormatError) as got:
                read_event_log(path)
        assert str(got.value) == str(expected.value)
        code = main([
            "fit", "--events", str(path), "--beta", "1.0",
            "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
        ])  # fmt: skip
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    def test_sidecar_key_set_twice_names_line_and_key(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text(_SIDECAR + _HEADER + "1.0,0,1\n# horizon=0.5 n_users=7\n")
        with pytest.raises(FileFormatError, match=r"line 4: sidecar key 'horizon' set a second time"):
            read_event_log(path)

    def test_written_log_takes_one_call(self, tmp_path, monkeypatch):
        log = EventLog([(0.5, 0, 1), (0.5, 2, 0), (3.25, 1, 1)], 9.5, 3, 2)
        path = tmp_path / "events.csv"
        write_event_log(log, path)

        def refuse(path):
            raise AssertionError("fell back to the line reader")

        monkeypatch.setattr(io_module, "_read_event_log_lines", refuse)
        assert read_event_log(path) == log

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1e300, allow_subnormal=True), max_size=40),
        n_users=st.integers(1, 4),
        data=st.data(),
    )
    def test_round_trip_bit_exact_property(self, tmp_path_factory, times, n_users, data):
        times = np.sort(np.array(times, dtype=float))
        k = times.size
        users = data.draw(st.lists(st.integers(0, n_users - 1), min_size=k, max_size=k))
        products = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        horizon = data.draw(st.floats(float(times[-1]) if k else 0.0, 1e300))
        log = EventLog.from_arrays(times, users, products, horizon, n_users, 3)
        path = tmp_path_factory.mktemp("round_trip") / "events.csv"
        write_event_log(log, path)
        back = read_event_log(path)
        assert back == log
        np.testing.assert_array_equal(back.times.view(np.uint64), log.times.view(np.uint64))
        assert back.horizon.hex() == log.horizon.hex()


class TestParamsIO:
    def test_softmax_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        params = random_params(rng, 4, 3, beta=2.5)
        path = tmp_path / "params.json"
        write_params(params, path)
        back = read_params(path)
        np.testing.assert_array_equal(back.mu, params.mu)
        np.testing.assert_array_equal(back.alpha, params.alpha)
        assert isinstance(back.mark, SoftMaxMark) and back.mark.beta == 2.5

    def test_awkward_doubles_round_trip_bit_exact(self, tmp_path):
        # subnormal, smallest normal, near-max and inexact decimals; the
        # compact document is one line that json.loads still reads
        values = np.array([5e-324, 2.2250738585072014e-308, 1e308, 0.1 + 0.2, 1 / 3])
        params = ModelParams(values.reshape(5, 1), np.roll(np.tile(values, (5, 1)), 2), SoftMaxMark(0.1 + 0.2))
        path = tmp_path / "params.json"
        write_params(params, path)
        text = path.read_text()
        assert text.count("\n") == 1
        doc = json.loads(text)
        assert doc["mu"] == values.tolist() and doc["mark_model"]["beta"] == 0.1 + 0.2
        back = read_params(path)
        assert back.mu.tobytes() == params.mu.tobytes()
        assert back.alpha.tobytes() == params.alpha.tobytes()
        assert back.mark.beta == 0.1 + 0.2

    def test_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 2, beta=None)
        path = tmp_path / "params.json"
        write_params(params, path)
        assert isinstance(read_params(path).mark, LinearMark)

    def test_unknown_mark_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        doc = {
            "n_users": 1,
            "n_products": 1,
            "mark_model": {"type": "mystery"},
            "mu": [0.5],
            "alpha": [0.1],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            read_params(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_params(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"n_users": 1}))
        with pytest.raises(FileFormatError):
            read_params(path)


class TestCurvesCSV:
    def test_layout_and_nan_blank(self, tmp_path):
        series = CurveSeries(grid=[1.0, 2.0], values=[0.5, np.nan], label="product_0")
        path = tmp_path / "curves.csv"
        write_curves_csv({"modelA": [series]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "series,time,value"
        assert lines[1] == "modelA/product_0,1.0,0.5"
        assert lines[2] == "modelA/product_0,2.0,"


def _write_model(tmp_path, n=3, m=2, seed=7, beta=1.0):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n, m, beta=beta, mu_high=0.5, alpha_high=0.2)
    path = tmp_path / "params.json"
    write_params(params, path)
    return params, path


# a valid 1 x 1 soft-max model document
_UNIT_DOC = {
    "n_users": 1, "n_products": 1, "mark_model": {"type": "softmax", "beta": 1.0},
    "mu": [0.5], "alpha": [0.1],
}


class TestCliSimulate:
    def test_writes_log_and_exits_zero(self, tmp_path, capsys):
        _, params_path = _write_model(tmp_path)
        out = tmp_path / "events.csv"
        code = main(
            ["simulate", "--params", str(params_path), "--horizon", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        log = read_event_log(out)
        assert log.horizon == 20.0
        assert "wrote" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, tmp_path):
        _, params_path = _write_model(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--params", str(params_path), "--horizon", "15", "--seed", "9"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_params_file_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--params", str(tmp_path / "nope.json"), "--horizon", "5", "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_USAGE

    def test_nan_horizon_is_usage_error_not_hang(self, tmp_path):
        # NaN passes `horizon <= 0`; unchecked, the sampler ran to the event cap
        _, params_path = _write_model(tmp_path)
        proc = _run_cli(
            "simulate", "--params", str(params_path), "--horizon", "nan",
            "--out", str(tmp_path / "events.csv"),
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "finite" in proc.stderr

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_negative_seed_refused_before_reading(self, tmp_path, capsys):
        # was numpy's "expected non-negative integer", which names no flag;
        # the parameter file does not exist, so the seed is refused first
        out = tmp_path / "events.csv"
        code = main(
            ["simulate", "--params", str(tmp_path / "nope.json"), "--horizon", "5", "--seed", "-1", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: argument --seed: must be a nonnegative integer, got '-1'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda doc: [doc],
            lambda doc: dict(doc, mark_model="softmax"),
            lambda doc: dict(doc, mark_model={"type": "softmax", "beta": None}),
            # each document below used to read as a valid model or exit 2
            lambda doc: dict(doc, n_users=doc["n_users"] + 0.9),
            lambda doc: dict(_UNIT_DOC, n_products=True),
            lambda doc: dict(doc, mark_model={"type": "softmax", "beta": True}),
            lambda doc: dict(doc, mark_model={"type": "softmax", "beta": "1.0"}),
            lambda doc: dict(doc, mark_model={"type": "softmax", "beta": 10**400}),
            lambda doc: dict(
                _UNIT_DOC, n_users=1.9, n_products=True, mark_model={"type": "softmax", "beta": True}
            ),
        ],
        ids=[
            "top_level_array", "mark_model_string", "null_beta", "fractional_n_users",
            "boolean_n_products", "boolean_beta", "string_beta", "oversized_beta",
            "fractional_and_boolean",
        ],
    )
    def test_malformed_params_is_usage_error(self, tmp_path, malformed):
        _, params_path = _write_model(tmp_path)
        params_path.write_text(json.dumps(malformed(json.loads(params_path.read_text()))))
        proc = _run_cli(
            "simulate", "--params", str(params_path), "--horizon", "5",
            "--out", str(tmp_path / "events.csv"),
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestCliFit:
    def test_fixed_beta_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        params, params_path = _write_model(tmp_path, seed=11)
        log = simulate(params, SimConfig(horizon=40.0, seed=13))
        events = tmp_path / "events.csv"
        write_event_log(log, events)
        out_params = tmp_path / "fit.json"
        out_report = tmp_path / "report.csv"
        code = main(
            [
                "fit", "--events", str(events), "--beta", "1.0",
                "--out-params", str(out_params), "--out-report", str(out_report),
            ]
        )
        assert code == EXIT_OK
        fitted = read_params(out_params)
        assert fitted.mu.shape == params.mu.shape
        report_lines = out_report.read_text().splitlines()
        assert report_lines[0].startswith("user,nll")
        assert len([l for l in report_lines if not l.startswith("#")]) == 1 + log.n_users

    def test_unconverged_users_are_counted_with_the_cap(self, tmp_path, monkeypatch, capsys):
        # one Newton step leaves the four active users short of the KKT
        # certificate, while a fifth, silent user is solved at its start: the
        # fit still succeeds, and the warning counts the report's unconverged
        # rows and those among them that the cap stopped
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        params, _ = _write_model(tmp_path, n=4, seed=11)
        log = simulate(params, SimConfig(horizon=40.0, seed=13))
        events = tmp_path / "events.csv"
        write_event_log(EventLog.from_arrays(log.times, log.users, log.products, log.horizon, 5, 2), events)
        out_report = tmp_path / "report.csv"
        code = main(
            [
                "fit", "--events", str(events), "--beta", "1.0", "--inner-max-iter", "1",
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(out_report),
            ]
        )
        assert code == EXIT_OK
        rows = [l.split(",") for l in out_report.read_text().splitlines()[1:] if not l.startswith("#")]
        bad = [r for r in rows if r[4] == "False"]
        capped = [r for r in bad if int(r[2]) > 1]
        assert len(rows) == 5 and rows[4][4] == "True" and capped
        expected = f"warning: {len(bad)} of 5 users did not converge, {len(capped)} of them stopped at the --inner-max-iter cap of 1\n"
        assert capsys.readouterr().err == expected

    def test_beta_grid_selection_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        params, _ = _write_model(tmp_path, n=2, m=2, seed=17)
        log = simulate(params, SimConfig(horizon=60.0, seed=19))
        events = tmp_path / "events.csv"
        write_event_log(log, events)
        out_report = tmp_path / "report.csv"
        code = main(
            [
                "fit", "--events", str(events), "--beta-grid", "0.5,2.0",
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(out_report),
            ]
        )
        assert code == EXIT_OK
        assert "# chosen_beta=" in out_report.read_text()

    def test_beta_grid_survives_user_without_head_events(self, tmp_path, monkeypatch):
        # the default hold-out leaves user 1 without head events: its fit is
        # exactly 0 and every beta scores inf, so the first grid entry stays
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        log = EventLog([(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 0), (8.0, 1, 1), (9.0, 1, 0)], 10.0, 2, 2)
        events = tmp_path / "events.csv"
        write_event_log(log, events)
        out_report = tmp_path / "report.csv"
        code = main(
            [
                "fit", "--events", str(events), "--beta-grid", "0.5,2",
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(out_report),
            ]
        )
        assert code == EXIT_OK
        lines = out_report.read_text().splitlines()
        assert "# beta=0.5 score=inf" in lines and "# beta=2.0 score=inf" in lines
        assert "# chosen_beta=0.5" in lines

    # "0" and "-2" were read as one worker without a word
    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2"])
    def test_bad_worker_count_names_the_variable(self, tmp_path, monkeypatch, capsys, raw):
        message = "must be an integer" if raw in ("abc", "1.5") else "must be at least 1"
        monkeypatch.setenv("CORRCASCADES_WORKERS", raw)
        events = tmp_path / "events.csv"
        write_event_log(EventLog([(1.0, 0, 0)], 2.0, 1, 1), events)
        code = main(
            [
                "fit", "--events", str(events), "--beta", "1.0",
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: CORRCASCADES_WORKERS {message}, got {raw!r}\n"
        assert not (tmp_path / "fit.json").exists()
        # evaluate runs on the same workers, and refuses the same values
        # before it reads a file
        code = main(
            [
                "evaluate", "--train", str(events), "--test", str(tmp_path / "test.csv"),
                "--params", str(tmp_path / "p.json"), "--out", str(tmp_path / "metrics.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: CORRCASCADES_WORKERS {message}, got {raw!r}\n"

    def test_default_start_is_the_library_default(self, tmp_path, monkeypatch):
        # the CLI fits from FitConfig's own start
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        params, _ = _write_model(tmp_path, seed=23)
        log = simulate(params, SimConfig(horizon=40.0, seed=29))
        events = tmp_path / "events.csv"
        write_event_log(log, events)
        out_params = tmp_path / "fit.json"
        code = main(
            [
                "fit", "--events", str(events), "--beta", "1.5",
                "--out-params", str(out_params), "--out-report", str(tmp_path / "report.csv"),
            ]
        )
        assert code == EXIT_OK
        fitted, _ = fit_all(read_event_log(events), FitConfig(beta=1.5))
        write_params(fitted, tmp_path / "library.json")
        assert out_params.read_bytes() == (tmp_path / "library.json").read_bytes()

    @pytest.mark.parametrize(
        "option, message",
        [
            # a negative step cap wrote the start as the fit and exited 0
            (["--beta", "1.0", "--inner-max-iter", "-3"], "argument --inner-max-iter: must be a nonnegative integer, got '-3'"),
            # an empty grid was cross-validated as the default grid, and
            # then refused only after the log was read
            (["--beta-grid", ""], "argument --beta-grid: must be a nonempty comma-separated list of betas, got ''"),
            # the start of the influence coordinates is not an option
            (["--beta", "1.0", "--init-value", "0.01"], "unrecognized arguments: --init-value 0.01"),
            # a hold-out share outside (0, 1) was ignored with a fixed beta, exit 0
            (["--beta", "1.0", "--holdout", "7"], "argument --holdout: must fall inside (0, 1), got '7'"),
            (["--beta-grid", "0.5,2", "--holdout", "0"], "argument --holdout: must fall inside (0, 1), got '0'"),
            (["--beta-grid", "0.5,2", "--holdout", "1"], "argument --holdout: must fall inside (0, 1), got '1'"),
            (["--beta", "1.0", "--holdout", "nan"], "argument --holdout: must fall inside (0, 1), got 'nan'"),
            (["--beta", "1.0", "--inner-max-iter", "2.5"], "argument --inner-max-iter: must be a nonnegative integer, got '2.5'"),
            (["--beta", "-1"], "argument --beta: must be positive and finite, got '-1'"),
            (["--beta", "0"], "argument --beta: must be positive and finite, got '0'"),
            (["--beta", "inf"], "argument --beta: must be positive and finite, got 'inf'"),
            (["--beta", "nan"], "argument --beta: must be positive and finite, got 'nan'"),
            # a bad grid entry was found only after the entries before it were fitted
            (["--beta-grid", "1,-2"], "argument --beta-grid: must be positive and finite, got '-2'"),
            (["--beta-grid", "1,abc"], "argument --beta-grid: must be positive and finite, got 'abc'"),
            (["--beta-grid", "1,,2"], "argument --beta-grid: must be positive and finite, got ''"),
            (["--beta-grid", "0.5,1e400"], "argument --beta-grid: must be positive and finite, got '1e400'"),
        ],
    )
    def test_bad_solver_option_is_usage_error(self, tmp_path, monkeypatch, capsys, option, message):
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        events = tmp_path / "events.csv"
        write_event_log(EventLog([(1.0, 0, 0), (3.0, 0, 0)], 4.0, 1, 1), events)
        code = main(
            [
                "fit", "--events", str(events), *option,
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "option",
        [["--beta", "1.0", "--inner-max-iter", "-3"], ["--beta", "-1"], ["--beta-grid", "1,-2"], ["--beta-grid", ""]],
    )
    def test_bad_solver_option_refused_before_reading(self, tmp_path, capsys, option):
        # the events file does not exist, so the flag must be refused first
        code = main(
            [
                "fit", "--events", str(tmp_path / "nope.csv"), *option,
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: argument {option[-2]}: must be")

    def test_nan_time_is_usage_error_not_hang(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "# n_users=2 n_products=1 horizon=5.0\n"
            "time,user,product\n"
            "1.0,0,0\n"
            "nan,1,0\n"
            "2.0,0,0\n"
        )
        proc = _run_cli(
            "fit", "--events", str(events), "--beta", "1.0",
            "--out-params", str(tmp_path / "fit.json"),
            "--out-report", str(tmp_path / "report.csv"),
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "finite" in proc.stderr

    def test_zero_horizon_with_events_is_usage_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "# n_users=1 n_products=2 horizon=0.0\n"
            "time,user,product\n"
            "0.0,0,0\n"
            "0.0,0,1\n"
        )
        proc = _run_cli(
            "fit", "--events", str(events), "--beta", "1.0",
            "--out-params", str(tmp_path / "fit.json"),
            "--out-report", str(tmp_path / "report.csv"),
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "horizon 0" in proc.stderr
        assert not (tmp_path / "fit.json").exists()

    def test_beta_and_grid_mutually_exclusive(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--events", "x.csv", "--beta", "1.0", "--beta-grid", "1,2",
                "--out-params", "p.json", "--out-report", "r.csv",
            ]
        )
        assert code == EXIT_USAGE


class TestConsoleEntry:
    """`python -m corrcascades.cli` runs `run`, which ends the process by
    `os._exit` with `main`'s code once stdout and stderr are flushed."""

    def _fit(self, tmp_path, workers):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        # stdout block-buffered, so the printed line shows that `run` flushed it
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(Path(corrcascades.__file__).parents[1]), CORRCASCADES_WORKERS=workers)
        proc = subprocess.run(
            [
                sys.executable, "-m", "corrcascades.cli", "fit", "--events", str(tmp_path / "events.csv"),
                "--beta-grid", "0.5,2", "--out-params", str(out / "fit.json"), "--out-report", str(out / "report.csv"),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        assert proc.returncode == EXIT_OK, proc.stderr
        # printed once, though the workers forked with the first line in the buffer
        selected, wrote = proc.stdout.splitlines()
        assert selected.startswith("cross-validation selected beta=")
        assert wrote == f"wrote parameters to {out / 'fit.json'}"
        # every column of the report but the last, the user's wall time
        report = [line.rsplit(",", 1)[0] for line in (out / "report.csv").read_text().splitlines()]
        return (out / "fit.json").read_bytes(), report

    def test_two_worker_fit_writes_the_one_worker_files(self, tmp_path):
        # a cross-validated fit: the workers fork once per grid entry, then
        # once for the chosen beta
        params, _ = _write_model(tmp_path, n=5, seed=37)
        write_event_log(simulate(params, SimConfig(horizon=40.0, seed=39)), tmp_path / "events.csv")
        assert self._fit(tmp_path, "2") == self._fit(tmp_path, "1")

    def test_usage_error_exits_one(self, tmp_path):
        proc = _run_cli(
            "fit", "--events", str(tmp_path / "nope.csv"), "--beta-grid", "",
            "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
        )  # fmt: skip
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == (
            "error: argument --beta-grid: must be a nonempty comma-separated list of betas, got ''\n"
        )


def _each_worker_count(monkeypatch):
    """Set CORRCASCADES_WORKERS to 1, then to 2, for the CLI runs of each pass."""
    for workers in ("1", "2"):
        monkeypatch.setenv("CORRCASCADES_WORKERS", workers)
        yield workers


class TestCliEvaluate:
    def _train_test_files(self, tmp_path, params, horizon=30.0, split=20.0, seed=23):
        log = simulate(params, SimConfig(horizon=horizon, seed=seed))
        train = log.before(split).with_horizon(split)
        mask = log.times >= split
        test = EventLog(
            zip(log.times[mask], log.users[mask], log.products[mask]),
            horizon,
            log.n_users,
            log.n_products,
        )
        train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
        write_event_log(train, train_path)
        write_event_log(test, test_path)
        return train_path, test_path

    def test_end_to_end_metrics_file(self, tmp_path):
        params, params_path = _write_model(tmp_path, seed=29)
        train_path, test_path = self._train_test_files(tmp_path, params)
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "evaluate", "--train", str(train_path), "--test", str(test_path),
                "--params", str(params_path), "--bins", "10", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,product,value"
        assert any(l.startswith("avg_pred_loglik,all,") for l in lines)
        assert any(l.startswith("pearson,all,") for l in lines)

    def test_nonpositive_bins_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # rejected before any file is read: none of these paths exists; so
        # is a negative seed, which used to fail in numpy after scoring
        for _, (flag, value) in itertools.product(
            _each_worker_count(monkeypatch), (("--bins", "0"), ("--bins", "-3"), ("--seed", "-1"))
        ):
            code = main(
                [
                    "evaluate", "--train", str(tmp_path / "train.csv"),
                    "--test", str(tmp_path / "test.csv"), "--params", str(tmp_path / "p.json"),
                    flag, value, "--out", str(tmp_path / "metrics.csv"),
                ]
            )
            assert code == EXIT_USAGE
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_params_of_other_dimensions_rejected_before_simulating(self, tmp_path, monkeypatch, capsys):
        # smaller parameters used to die in an IndexError; larger ones
        # simulated the whole window before compare_models refused it
        params, _ = _write_model(tmp_path, seed=37)
        train_path, test_path = self._train_test_files(tmp_path, params)

        def no_simulation(*args, **kwargs):
            (tmp_path / "simulated").touch()  # seen from here when a forked worker calls it
            raise AssertionError("simulate was called")

        def slow_score(*args):
            time.sleep(0.2)  # time for a sampler started alongside to reach simulate
            return avg_pred_loglik(*args)

        monkeypatch.setattr("corrcascades.cli.simulate", no_simulation)
        monkeypatch.setattr("corrcascades.cli.avg_pred_loglik", slow_score)
        for _, (n, m) in itertools.product(_each_worker_count(monkeypatch), ((2, 2), (4, 2), (3, 1), (3, 3))):
            other_dir = tmp_path / f"{n}x{m}"
            other_dir.mkdir(exist_ok=True)
            _, other_path = _write_model(other_dir, n=n, m=m)
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(test_path),
                    "--params", str(other_path), "--out", str(tmp_path / "metrics.csv"),
                ]
            )
            assert code == EXIT_USAGE
            assert "products" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "simulated").exists()

    def test_test_window_before_train_horizon_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # the test log's first event falls inside the training window
        params, params_path = _write_model(tmp_path, seed=33)
        train_path, _ = self._train_test_files(tmp_path, params)
        (tmp_path / "early").mkdir()
        _, early_path = self._train_test_files(tmp_path / "early", params, split=10.0)
        out = tmp_path / "metrics.csv"
        for _ in _each_worker_count(monkeypatch):
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(early_path),
                    "--params", str(params_path), "--out", str(out),
                ]
            )
            assert code == EXIT_USAGE
            assert "train horizon" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_model_is_numerical_failure(self, tmp_path, monkeypatch):
        params, _ = _write_model(tmp_path, seed=31)
        train_path, test_path = self._train_test_files(tmp_path, params)
        zero = ModelParams(
            np.zeros_like(params.mu), np.zeros_like(params.alpha), SoftMaxMark(1.0)
        )
        zero_path = tmp_path / "zero.json"
        write_params(zero, zero_path)
        argv = [
            "evaluate", "--train", str(train_path), "--test", str(test_path),
            "--params", str(zero_path), "--out", str(tmp_path / "metrics.csv"),
        ]  # fmt: skip
        for _ in _each_worker_count(monkeypatch):
            assert main(argv) == EXIT_NUMERICAL
            # and the same code and one stderr line through the console entry
            proc = _run_cli(*argv)
            assert (proc.returncode, proc.stdout) == (EXIT_NUMERICAL, "")
            assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_one_and_two_workers_write_the_same_metrics(self, tmp_path, monkeypatch):
        params, params_path = _write_model(tmp_path, n=5, m=3, seed=43)
        train_path, test_path = self._train_test_files(tmp_path, params, horizon=60.0, split=40.0)
        written = []
        for workers in _each_worker_count(monkeypatch):
            out = tmp_path / f"metrics{workers}.csv"
            argv = [
                "evaluate", "--train", str(train_path), "--test", str(test_path),
                "--params", str(params_path), "--bins", "12", "--seed", "5", "--out", str(out),
            ]  # fmt: skip
            assert main(argv) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") == 2 + 4 * 4  # the score, then 4 rows for each product and all

    def test_malformed_train_and_test_report_the_train_file(self, tmp_path, monkeypatch, capsys):
        # the test file is read while the train file is parsed, but the
        # train file's error is the one reported, as a one-worker run does
        params, params_path = _write_model(tmp_path, seed=47)
        train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
        train_path.write_text("time,user,product\n1.0,0,zero\n")
        test_path.write_text("time,user,product\nnever,0,0\n")
        reports = []
        for _ in _each_worker_count(monkeypatch):
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(test_path),
                    "--params", str(params_path), "--out", str(tmp_path / "metrics.csv"),
                ]
            )
            reports.append((code, capsys.readouterr().err))
        assert reports[0] == reports[1]
        assert reports[0][0] == EXIT_USAGE and str(train_path) in reports[0][1], reports[0]
        assert not (tmp_path / "metrics.csv").exists()


class TestCliReplicate:
    def test_recovery_writes_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        outdir = tmp_path / "rec"
        code = main(
            [
                "replicate-synthetic", "recovery", "--seed", "1", "--outdir", str(outdir),
                "--n-users", "3", "--n-products", "2",
                "--train-events", "60", "--test-events", "12",
            ]
        )
        assert code == EXIT_OK
        lines = (outdir / "recovery.csv").read_text().splitlines()
        assert lines[0].startswith("fraction,")
        assert len(lines) == 11  # header + ten training fractions

    def test_recovery_survives_zero_intensity_test_events(self, tmp_path, monkeypatch):
        # a short train prefix can leave a user without events, whose fitted
        # intensity is then exactly 0 at its test events: that row scores inf
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        infeasible = 0
        for seed in range(20):
            outdir = tmp_path / f"rec{seed}"
            code = main(
                [
                    "replicate-synthetic", "recovery", "--seed", str(seed), "--outdir", str(outdir),
                    "--n-users", "3", "--n-products", "2",
                    "--train-events", "60", "--test-events", "12",
                ]
            )
            assert code == EXIT_OK, f"seed {seed}"
            lines = (outdir / "recovery.csv").read_text().splitlines()
            assert len(lines) == 11
            scores = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
            assert all(s == math.inf or math.isfinite(s) for s in scores)
            infeasible += math.inf in scores
        assert infeasible > 0

    def test_incentivization_writes_curves(self, tmp_path):
        outdir = tmp_path / "inc"
        code = main(
            [
                "replicate-synthetic", "incentivization", "--seed", "2",
                "--outdir", str(outdir), "--n-users", "10",
                "--horizon", "30", "--switch-time", "15", "--bins", "3",
            ]
        )
        assert code == EXIT_OK
        labels = ["independent", "correlated_beta0.1", "correlated_beta1", "correlated_beta100"]
        for label in labels:
            assert (outdir / f"intensity_{label}.csv").exists()
            assert (outdir / f"market_share_{label}.csv").exists()
            assert (outdir / f"events_{label}.csv").exists()


    def test_incentivization_files_repeat_byte_for_byte(self, tmp_path):
        argv = [
            "replicate-synthetic", "incentivization", "--seed", "4", "--n-users", "8",
            "--horizon", "30", "--switch-time", "15", "--bins", "3",
        ]
        for name in ("a", "b"):
            assert main(argv + ["--outdir", str(tmp_path / name)]) == EXIT_OK
        files = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert len(files) == 12 and files == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_incentivization_rejects_other_product_counts(self, tmp_path, capsys):
        # the experiment's baselines sit at three fixed product centres, so
        # incentivization has no --n-products flag at all
        for count in ("2", "3", "4"):
            outdir = tmp_path / f"inc{count}"
            code = main(
                [
                    "replicate-synthetic", "incentivization", "--outdir", str(outdir),
                    "--n-products", count, "--n-users", "5", "--horizon", "30", "--switch-time", "15",
                ]
            )
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: unrecognized arguments: --n-products {count}\n"
            assert not outdir.exists()

    @pytest.mark.parametrize(
        "figure, flags",
        [
            # each was accepted and ignored, exit 0
            ("recovery", ["--horizon", "-5", "--switch-time", "99", "--bins", "0"]),
            ("incentivization", ["--train-events", "-3", "--test-events", "0"]),
        ],
    )
    def test_figures_refuse_each_others_flags(self, tmp_path, capsys, figure, flags):
        code, err = self._refused(tmp_path, capsys, figure, "--n-users", "3", *flags)
        assert (code, err) == (EXIT_USAGE, f"error: unrecognized arguments: {' '.join(flags)}\n")

    @pytest.mark.parametrize("figure", ["recovery", "incentivization"])
    def test_negative_seed_refused_before_outdir(self, tmp_path, capsys, figure):
        # was numpy's "expected non-negative integer" after the outdir was made
        code, err = self._refused(tmp_path, capsys, figure, "--seed", "-1")
        assert (code, err) == (EXIT_USAGE, "error: argument --seed: must be a nonnegative integer, got '-1'\n")

    @staticmethod
    def _refused(tmp_path, capsys, figure, *flags):
        outdir = tmp_path / "out"
        code = main(["replicate-synthetic", figure, "--outdir", str(outdir), *flags])
        assert not outdir.exists()
        return code, capsys.readouterr().err

    def test_recovery_refuses_zero_users_or_products(self, tmp_path, capsys):
        # each was a division by zero (the model's alpha scale, the event
        # rate), exit 2
        for flag in ("--n-users", "--n-products"):
            code, err = self._refused(tmp_path, capsys, "recovery", flag, "0")
            assert (code, err) == (EXIT_USAGE, f"error: {flag} must be a positive integer\n")

    def test_incentivization_refuses_zero_bin_width(self, tmp_path, capsys):
        # was a division by zero in the binned curves, exit 2
        code, err = self._refused(
            tmp_path, capsys, "incentivization", "--bins", "0", "--n-users", "5",
            "--horizon", "30", "--switch-time", "15",
        )
        assert (code, err) == (EXIT_USAGE, "error: --bins must be a positive bin width\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            # inf was "Maximum allowed size exceeded" from the curve grid
            (["--horizon", "inf"], "--horizon must be positive and finite"),
            # nan was "arange: cannot compute length"
            (["--horizon", "nan"], "--horizon must be positive and finite"),
            (["--horizon", "-5"], "--horizon must be positive and finite"),
            (["--horizon", "0"], "--horizon must be positive and finite"),
            (["--horizon", "30", "--switch-time", "30"], "--switch-time must fall inside (0, --horizon)"),
            (["--horizon", "30", "--switch-time", "0"], "--switch-time must fall inside (0, --horizon)"),
            (["--horizon", "30", "--switch-time", "-5"], "--switch-time must fall inside (0, --horizon)"),
            (["--horizon", "30", "--switch-time", "nan"], "--switch-time must fall inside (0, --horizon)"),
            (["--horizon", "30", "--switch-time", "inf"], "--switch-time must fall inside (0, --horizon)"),
        ],
    )
    def test_incentivization_refuses_bad_horizon_or_switch(self, tmp_path, capsys, flags, message):
        # refused before the output directory is made
        code, err = self._refused(tmp_path, capsys, "incentivization", "--n-users", "5", *flags)
        assert (code, err) == (EXIT_USAGE, f"error: {message}\n")

    def test_recovery_refuses_zero_train_events(self, tmp_path, capsys):
        # was exit 0 with ten rows of zero-event fits scored inf
        code, err = self._refused(
            tmp_path, capsys, "recovery", "--train-events", "0", "--n-users", "3", "--n-products", "2",
            "--test-events", "12",
        )
        assert (code, err) == (EXIT_USAGE, "error: --train-events must be a positive integer\n")

def test_fit_and_evaluate_never_import_numpy_ma(tmp_path):
    # numpy.ma costs about 13 ms and 1.35 MB to import, and np.unique pulls it
    # in; simulate and the incentivization run (a linear-mark pass, then a
    # soft-max one) share the scorer's blocks (`_block_starts`) through the
    # soft-max draw.  The process pool costs about 15 ms to import: a
    # one-worker fit must not load it, and where the workers are forked
    # neither must a two-worker fit, nor multiprocessing
    params, params_path = _write_model(tmp_path, seed=41)
    log = simulate(params, SimConfig(horizon=30.0, seed=43))
    train = log.before(20.0).with_horizon(20.0)
    mask = log.times >= 20.0
    test = EventLog.from_arrays(
        log.times[mask], log.users[mask], log.products[mask], 30.0, log.n_users, log.n_products
    )
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("events", "train", "test")}
    for name, part in (("events", log), ("train", train), ("test", test)):
        write_event_log(part, paths[name])
    fit = [
        "fit", "--events", paths["events"], "--beta", "1.0",
        "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
    ]
    evaluate = [
        "evaluate", "--train", paths["train"], "--test", paths["test"],
        "--params", str(params_path), "--bins", "10", "--out", str(tmp_path / "metrics.csv"),
    ]
    sim = [
        "simulate", "--params", str(params_path), "--horizon", "60", "--seed", "3",
        "--out", str(tmp_path / "sim.csv"),
    ]
    incentivization = [
        "replicate-synthetic", "incentivization", "--seed", "2", "--outdir", str(tmp_path / "inc"),
        "--n-users", "5", "--horizon", "30", "--switch-time", "15", "--bins", "3",
    ]
    code = (
        "import sys; from corrcascades.cli import main; "
        f"codes = [main(cmd) for cmd in {[fit, evaluate, sim, incentivization]!r}]; "
        "print(codes, 'numpy.ma' in sys.modules, 'concurrent.futures.process' in sys.modules, "
        "'multiprocessing' in sys.modules)"
    )
    for workers in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]), CORRCASCADES_WORKERS=workers
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        if workers == "1" or _workers.FORK_SAFE:
            assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False False False", workers
        else:
            assert proc.stdout.splitlines()[-1].startswith("[0, 0, 0, 0] False"), workers


def test_cli_imports_without_scipy():
    # scipy is a test-only dependency: no module the CLI loads may import it
    env = dict(os.environ, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]))
    code = "import sys; sys.modules['scipy'] = None; import corrcascades.cli"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
