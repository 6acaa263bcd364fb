import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrcascades

from corrcascades import EventLog, LinearMark, ModelParams, SoftMaxMark
from corrcascades.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, _build_parser, main
from corrcascades import fitting
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


def _run_cli(*argv, preexec_fn=None):
    """Run the CLI in a child process that must finish within 60 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "corrcascades.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=preexec_fn,
    )


def _cap_address_space():
    """Cap this process's address space at 1 GiB where the platform lets
    it, so a child that grows an array element by element fails instead
    of filling the host's memory."""
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    except (ImportError, OSError, ValueError):
        pass


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


# a valid 1 x 1 soft-max model document
_UNIT_DOC = {
    "n_users": 1, "n_products": 1, "mark_model": {"type": "softmax", "beta": 1.0},
    "mu": [0.5], "alpha": [0.1],
}


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(_UNIT_DOC, n_users=True), "n_users must be a JSON integer, not True"),
            (dict(_UNIT_DOC, n_users="1"), "n_users must be a JSON integer, not '1'"),
            (dict(_UNIT_DOC, mark_model="softmax"), "mark_model must be a JSON object, not 'softmax'"),
            ([_UNIT_DOC], "expected a JSON object at the top level"),
        ],
        ids=["bool_users", "string_users", "string_mark", "top_level_list"],
    )
    def test_non_json_types_rejected_by_name(self, tmp_path, doc, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_params(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"n_users": 1}))
        with pytest.raises(FileFormatError):
            read_params(path)

    def test_flat_and_nested_arrays_read_alike(self, tmp_path):
        rng = np.random.default_rng(11)
        params = random_params(rng, 2, 3)
        path = tmp_path / "params.json"
        write_params(params, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, mu=params.mu.tolist(), alpha=params.alpha.tolist())))
        back = read_params(path)
        assert back.mu.tobytes() == params.mu.tobytes()
        assert back.alpha.tobytes() == params.alpha.tobytes()

    @pytest.mark.parametrize(
        "key, value, shape",
        [
            # N = 2 users and M = 3 products: a 3 x 2 mu has N M entries
            ("mu", [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], (3, 2)),
            ("mu", [[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]], (1, 2, 3)),
            ("mu", [0.1] * 5, (5,)),
            ("alpha", [[0.1], [0.2], [0.3], [0.4]], (4, 1)),
            ("alpha", [[0.1, 0.2, 0.3, 0.4]], (1, 4)),
        ],
    )
    def test_misshapen_array_rejected_by_name(self, tmp_path, capsys, key, value, shape):
        path = tmp_path / "params.json"
        doc = {
            "n_users": 2, "n_products": 3, "mark_model": {"type": "linear"},
            "mu": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], "alpha": [0.1, 0.2, 0.3, 0.4],
        }
        path.write_text(json.dumps(dict(doc, **{key: value})))
        rows, cols = (2, 3) if key == "mu" else (2, 2)
        message = f"{path}: {key} must hold {rows * cols} numbers or {rows} rows of {cols}, not shape {shape}"
        with pytest.raises(FileFormatError) as err:
            read_params(path)
        assert str(err.value) == message
        out = tmp_path / "events.csv"
        code = main(["simulate", "--params", str(path), "--horizon", "5", "--out", str(out)])
        assert (code, capsys.readouterr().err) == (EXIT_USAGE, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [[[0.1, 0.2, 0.3], [0.4, 0.5]], [0.1, 0.2, 0.3, 0.4, 0.5, "x"]])
    def test_ragged_or_non_number_array_rejected_by_name(self, tmp_path, value):
        path = tmp_path / "params.json"
        doc = {"n_users": 2, "n_products": 3, "mark_model": {"type": "linear"}, "mu": value, "alpha": [0.1] * 4}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: mu: "):
            read_params(path)


class TestCurvesCSV:
    def test_layout_and_nan_blank(self, tmp_path):
        series = CurveSeries(grid=[1.0, 2.0], values=[0.5, np.nan], label="product_0")
        path = tmp_path / "curves.csv"
        write_curves_csv("modelA", [series], path)
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


def _model_doc_without(key):
    """`_UNIT_DOC` with `key` ("n_users" or "n_products") set to 0 and
    arrays of the shapes that implies."""
    return dict(_UNIT_DOC, mu=[], alpha=[] if key == "n_users" else [0.1], **{key: 0})


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

    def test_event_cap_binds_at_any_horizon(self, tmp_path, capsys):
        # numpy draws no Poisson count for this horizon's immigrants, and the cap still binds
        _, params_path = _write_model(tmp_path)
        out = tmp_path / "events.csv"
        argv = ["simulate", "--params", str(params_path), "--horizon", "1e300", "--max-events", "10"]
        with pytest.warns(RuntimeWarning, match="event cap 10 exhausted"):
            assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert len(read_event_log(out)) == 10
        assert capsys.readouterr().out.startswith("wrote 10 events")

    def test_missing_params_file_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--params", str(tmp_path / "nope.json"), "--horizon", "5", "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_USAGE

    def test_bad_horizon_or_event_cap_refused_before_params_are_read(self, tmp_path, capsys, monkeypatch):
        # the missing parameter file was reported first; with a real one a
        # NaN horizon was refused after it was read, naming no flag
        out = tmp_path / "events.csv"
        base = ["simulate", "--params", str(tmp_path / "missing.json"), "--out", str(out)]
        code = main([*base, "--horizon", "-1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: argument --horizon: must be positive and finite, got '-1'\n"
        _, params_path = _write_model(tmp_path)
        monkeypatch.setattr("corrcascades.cli.read_params", None)  # a read would fail with a TypeError
        for flags, message in (
            (["--horizon", "nan"], "argument --horizon: must be positive and finite, got 'nan'"),
            (["--horizon", "5", "--max-events", "0"], "argument --max-events: must be a positive integer, got '0'"),
        ):
            code = main(["simulate", "--params", str(params_path), "--out", str(out), *flags])
            assert (code, capsys.readouterr().err) == (EXIT_USAGE, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_users", "n_products"])
    def test_model_without_users_or_products_is_refused(self, tmp_path, capsys, key):
        # read as a model, then numpy's "attempt to get argmax of an empty sequence"
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(_model_doc_without(key)))
        out = tmp_path / "events.csv"
        code = main(["simulate", "--params", str(params_path), "--horizon", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {params_path}: {key} must be at least 1, not 0\n"
        assert not out.exists()

    def test_directory_for_a_file_is_usage_error(self, tmp_path):
        # an IsADirectoryError, like any OSError, ends in one error line
        _, params_path = _write_model(tmp_path)
        for params, out in ((tmp_path, tmp_path / "events.csv"), (params_path, tmp_path)):
            proc = _run_cli("simulate", "--params", str(params), "--horizon", "5", "--out", str(out))
            assert proc.returncode == EXIT_USAGE
            assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert not (tmp_path / "events.csv").exists()

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
        # a fixed beta is the one-entry grid: listed unscored, and no
        # cross-validation is claimed
        assert [l for l in report_lines if l.startswith("#")] == ["# beta=1.0 score=nan", "# chosen_beta=1.0"]
        assert capsys.readouterr().out == f"wrote parameters to {out_params}\n"

    def test_fixed_beta_is_the_one_entry_grid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        params, _ = _write_model(tmp_path, seed=11)
        write_event_log(simulate(params, SimConfig(horizon=40.0, seed=13)), tmp_path / "events.csv")
        outputs = []
        for option in (["--beta", "1.0"], ["--beta-grid", "1.0"]):
            out = tmp_path / option[0].lstrip("-")
            out.mkdir()
            code = main(
                [
                    "fit", "--events", str(tmp_path / "events.csv"), *option,
                    "--out-params", str(out / "fit.json"), "--out-report", str(out / "report.csv"),
                ]
            )
            assert code == EXIT_OK
            assert capsys.readouterr().out == f"wrote parameters to {out / 'fit.json'}\n"
            # every column of the report but the last, the user's wall time
            report = [line.rsplit(",", 1)[0] for line in (out / "report.csv").read_text().splitlines()]
            outputs.append(((out / "fit.json").read_bytes(), report))
        assert outputs[0] == outputs[1]

    def test_unconverged_users_are_counted_with_the_cap(self, tmp_path, monkeypatch, capsys):
        # one Newton step leaves the four active users short of the KKT
        # certificate, while a fifth, silent user is solved at its start: the
        # fit still succeeds, and the warning counts the report's unconverged
        # rows and those among them that the cap stopped
        monkeypatch.setenv("CORRCASCADES_WORKERS", "1")
        monkeypatch.setattr(fitting, "_MAX_STEPS", 1)
        params, _ = _write_model(tmp_path, n=4, seed=11)
        log = simulate(params, SimConfig(horizon=40.0, seed=13))
        events = tmp_path / "events.csv"
        write_event_log(EventLog.from_arrays(log.times, log.users, log.products, log.horizon, 5, 2), events)
        out_report = tmp_path / "report.csv"
        code = main(
            [
                "fit", "--events", str(events), "--beta", "1.0",
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(out_report),
            ]
        )
        assert code == EXIT_OK
        rows = [l.split(",") for l in out_report.read_text().splitlines()[1:] if not l.startswith("#")]
        bad = [r for r in rows if r[4] == "False"]
        capped = [r for r in bad if int(r[2]) > 1]
        assert len(rows) == 5 and rows[4][4] == "True" and capped
        expected = (
            f"warning: {len(bad)} of 5 users did not converge, "
            f"{len(capped)} of them stopped at the solver's step cap of 1 (fitting._MAX_STEPS)\n"
        )
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
        # evaluate starts no worker, so it reads no count: its first
        # refusal is the missing test log
        code = main(
            [
                "evaluate", "--train", str(events), "--test", str(tmp_path / "test.csv"),
                "--params", str(tmp_path / "p.json"), "--out", str(tmp_path / "metrics.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(tmp_path / 'test.csv')!r}\n"
        )

    def test_bad_worker_count_refused_before_the_log_is_read(self, tmp_path, monkeypatch, capsys):
        # the missing log was reported first, and a real one was parsed
        # whole before the refusal
        monkeypatch.setenv("CORRCASCADES_WORKERS", "abc")
        argv = ["--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv")]
        expected = (EXIT_USAGE, "error: CORRCASCADES_WORKERS must be an integer, got 'abc'\n")
        assert (main(["fit", "--events", str(tmp_path / "missing.csv"), *argv]), capsys.readouterr().err) == expected
        events = tmp_path / "events.csv"
        write_event_log(EventLog([(1.0, 0, 0)], 2.0, 1, 1), events)
        monkeypatch.setattr("corrcascades.cli.read_event_log", None)  # a read would fail with a TypeError
        assert (main(["fit", "--events", str(events), *argv]), capsys.readouterr().err) == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["events.csv"]

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
            # an empty grid was cross-validated as the default grid, and
            # then refused only after the log was read
            (["--beta-grid", ""], "argument --beta-grid: must be a nonempty comma-separated list of betas, got ''"),
            # the start of the influence coordinates is not an option
            (["--beta", "1.0", "--init-value", "0.01"], "unrecognized arguments: --init-value 0.01"),
            # nor are the step cap and the hold-out share (fitting._MAX_STEPS, fitting._HOLDOUT)
            (["--beta", "1.0", "--inner-max-iter", "1"], "unrecognized arguments: --inner-max-iter 1"),
            (["--beta-grid", "0.5,2", "--holdout", "0.3"], "unrecognized arguments: --holdout 0.3"),
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
        [["--beta", "-1"], ["--beta-grid", "1,-2"], ["--beta-grid", ""]],
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

    @pytest.mark.parametrize("option", [["--inner-max-iter", "1"], ["--holdout", "0.3"]])
    def test_retired_solver_flag_refused_before_reading(self, tmp_path, capsys, option):
        # the step cap and the hold-out share are fitting._MAX_STEPS and
        # fitting._HOLDOUT: a flag that sets either stops the run before the
        # missing events file is read
        code = main(
            [
                "fit", "--events", str(tmp_path / "nope.csv"), "--beta-grid", "0.5,2", *option,
                "--out-params", str(tmp_path / "fit.json"), "--out-report", str(tmp_path / "report.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(option)}\n"
        assert list(tmp_path.iterdir()) == []

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
    @pytest.mark.parametrize("flag", ["--train", "--test", "--params"])
    def test_directory_for_an_input_is_usage_error(self, tmp_path, monkeypatch, flag):
        # every input is read before anything is scored
        params, params_path = _write_model(tmp_path, seed=29)
        train_path, test_path = self._train_test_files(tmp_path, params)
        paths = {"--train": str(train_path), "--test": str(test_path), "--params": str(params_path)}
        paths[flag] = str(tmp_path)
        for _ in _each_worker_count(monkeypatch):
            proc = _run_cli("evaluate", *itertools.chain(*paths.items()), "--out", str(tmp_path / "metrics.csv"))
            assert proc.returncode == EXIT_USAGE
            assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert not (tmp_path / "metrics.csv").exists()

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
        # the score, then the test log's event count per product and in all
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
        train, test = read_event_log(train_path), read_event_log(test_path)
        counts = [int((test.products == p).sum()) for p in range(test.n_products)]
        assert min(counts) > 0
        assert out.read_text().splitlines() == [
            "metric,product,value",
            f"avg_pred_loglik,all,{avg_pred_loglik(train, test, read_params(params_path))!r}",
            *(f"n_events_real,{p},{count}" for p, count in enumerate(counts)),
            f"n_events_real,all,{len(test)}",
        ]

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
            (tmp_path / "simulated").touch()
            raise AssertionError("simulate was called")

        monkeypatch.setattr("corrcascades.cli.simulate", no_simulation)
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

    def test_test_horizon_at_the_train_horizon_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # every test event at the train horizon leaves no window to bin:
        # the refusal was "bin_width must be positive", after scoring
        params, params_path = _write_model(tmp_path, seed=33)
        train_path, _ = self._train_test_files(tmp_path, params)
        test_path = tmp_path / "at_horizon.csv"
        write_event_log(EventLog([(20.0, 0, 0)], 20.0, params.n_users, params.n_products), test_path)
        out = tmp_path / "metrics.csv"
        for _ in _each_worker_count(monkeypatch):
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(test_path),
                    "--params", str(params_path), "--out", str(out),
                ]
            )
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == "error: the test horizon 20.0 must be after the train horizon 20.0\n"
            assert not out.exists()

    @pytest.mark.parametrize("key", ["n_users", "n_products"])
    def test_model_without_users_or_products_is_refused(self, tmp_path, monkeypatch, capsys, key):
        params, _ = _write_model(tmp_path, seed=33)
        train_path, test_path = self._train_test_files(tmp_path, params)
        params_path = tmp_path / "empty.json"
        params_path.write_text(json.dumps(_model_doc_without(key)))
        out = tmp_path / "metrics.csv"
        for _ in _each_worker_count(monkeypatch):
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(test_path),
                    "--params", str(params_path), "--out", str(out),
                ]
            )
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {params_path}: {key} must be at least 1, not 0\n"
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

    def test_supercritical_model_is_scored_without_sampling(self, tmp_path, monkeypatch):
        # scoring a supercritical model samples nothing, so nothing warns of it
        params, _ = _write_model(tmp_path, seed=53)
        train_path, test_path = self._train_test_files(tmp_path, params)
        supercritical = ModelParams(params.mu, np.full_like(params.alpha, 0.5), params.mark)
        params_path = tmp_path / "supercritical.json"
        write_params(supercritical, params_path)
        out = tmp_path / "metrics.csv"
        # every sampling path draws through _sample: a call would fail with a TypeError
        monkeypatch.setattr(sys.modules["corrcascades.simulate"], "_sample", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "evaluate", "--train", str(train_path), "--test", str(test_path),
                    "--params", str(params_path), "--out", str(out),
                ]
            )  # fmt: skip
        assert (code, caught) == (EXIT_OK, [])
        score = avg_pred_loglik(read_event_log(train_path), read_event_log(test_path), supercritical)
        assert out.read_text().splitlines()[1] == f"avg_pred_loglik,all,{score!r}"

    def test_one_and_two_workers_write_the_same_metrics(self, tmp_path, monkeypatch):
        # and so does every --seed and --bins, which are ignored
        params, params_path = _write_model(tmp_path, n=5, m=3, seed=43)
        train_path, test_path = self._train_test_files(tmp_path, params, horizon=60.0, split=40.0)
        written = set()
        for workers, seed, bins in itertools.product(_each_worker_count(monkeypatch), ("0", "5"), ("12", "100")):
            out = tmp_path / f"metrics{workers}-{seed}-{bins}.csv"
            argv = [
                "evaluate", "--train", str(train_path), "--test", str(test_path),
                "--params", str(params_path), "--bins", bins, "--seed", seed, "--out", str(out),
            ]  # fmt: skip
            assert main(argv) == EXIT_OK
            written.add(out.read_bytes())
        assert len(written) == 1
        assert written.pop().count(b"\n") == 2 + 3 + 1  # header, score, then a count for each product and all

    def test_malformed_train_and_test_report_the_train_file(self, tmp_path, monkeypatch, capsys):
        # the train file is read first, at any worker count
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

    def test_two_workers_fork_nothing(self, tmp_path, monkeypatch):
        # the score is the one stage, and it runs in the calling process
        params, params_path = _write_model(tmp_path, seed=29)
        train_path, test_path = self._train_test_files(tmp_path, params)
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setenv("CORRCASCADES_WORKERS", "2")
        code = main(
            [
                "evaluate", "--train", str(train_path), "--test", str(test_path),
                "--params", str(params_path), "--out", str(tmp_path / "metrics.csv"),
            ]
        )  # fmt: skip
        assert (code, forks) == (EXIT_OK, [])

    def test_bin_count_past_memory_allocates_nothing(self, tmp_path):
        # 10**17 bin edges of 8 bytes are past any process's address space;
        # --bins is ignored, so the run ends well within the cap
        params, params_path = _write_model(tmp_path, seed=29)
        train_path, test_path = self._train_test_files(tmp_path, params)
        out = tmp_path / "metrics.csv"
        proc = _run_cli(
            "evaluate", "--train", str(train_path), "--test", str(test_path), "--params", str(params_path),
            "--bins", str(10**17), "--out", str(out), preexec_fn=_cap_address_space,
        )  # fmt: skip
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.endswith(f"; wrote metrics to {out}\n")


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
                "--horizon", "30", "--switch-time", "15", "--bin-width", "3",
            ]
        )
        assert code == EXIT_OK
        labels = ["independent", "correlated_beta0.1", "correlated_beta1", "correlated_beta100"]
        for label in labels:
            assert (outdir / f"intensity_{label}.csv").exists()
            assert (outdir / f"market_share_{label}.csv").exists()
            assert (outdir / f"events_{label}.csv").exists()


    @pytest.mark.parametrize("horizon, switch, width", [("20", "10", "3"), ("30", "15", "4"), ("1", "0.5", "0.7")])
    def test_incentivization_curves_end_at_the_horizon(self, tmp_path, horizon, switch, width):
        # a bin width that does not divide the horizon ends in a partial bin
        # and must not carry the share grid past the horizon
        outdir = tmp_path / "inc"
        argv = [
            "replicate-synthetic", "incentivization", "--seed", "3", "--n-users", "8",
            "--horizon", horizon, "--switch-time", switch, "--bin-width", width, "--outdir", str(outdir),
        ]
        assert main(argv) == EXIT_OK
        curves = [*outdir.glob("intensity_*.csv"), *outdir.glob("market_share_*.csv")]
        assert len(curves) == 8
        for path in curves:
            times = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
            assert max(times) <= float(horizon), path.name
            if path.name.startswith("market_share_"):
                assert times[-1] == float(horizon), path.name

    def test_incentivization_files_repeat_byte_for_byte(self, tmp_path):
        argv = [
            "replicate-synthetic", "incentivization", "--seed", "4", "--n-users", "8",
            "--horizon", "30", "--switch-time", "15", "--bin-width", "3",
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
            ("recovery", ["--horizon", "-5", "--switch-time", "99", "--bin-width", "0"]),
            ("incentivization", ["--train-events", "-3", "--test-events", "0"]),
            # a bin count is evaluate's; incentivization takes a --bin-width
            ("incentivization", ["--bins", "3"]),
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

    def test_bad_worker_count_refused_before_outdir(self, tmp_path, monkeypatch, capsys):
        # exit 1, but the output directory was left behind, empty
        monkeypatch.setenv("CORRCASCADES_WORKERS", "abc")
        code, err = self._refused(tmp_path, capsys, "recovery", "--n-users", "3")
        assert (code, err) == (EXIT_USAGE, "error: CORRCASCADES_WORKERS must be an integer, got 'abc'\n")

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
            assert (code, err) == (EXIT_USAGE, f"error: argument {flag}: must be a positive integer, got '0'\n")

    def test_bin_width_past_memory_fails_at_once(self, tmp_path):
        # 3e17 edges: the curve grid is built before any model is sampled
        outdir = tmp_path / "inc"
        proc = _run_cli(
            "replicate-synthetic", "incentivization", "--outdir", str(outdir), "--n-users", "5",
            "--horizon", "30", "--switch-time", "15", "--bin-width", "1e-16", preexec_fn=_cap_address_space,
        )  # fmt: skip
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, ""), proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate ") and proc.stderr.count("\n") == 1
        assert list(outdir.iterdir()) == []

    def test_incentivization_refuses_zero_bin_width(self, tmp_path, capsys):
        # was a division by zero in the binned curves, exit 2
        code, err = self._refused(
            tmp_path, capsys, "incentivization", "--bin-width", "0", "--n-users", "5",
            "--horizon", "30", "--switch-time", "15",
        )
        assert (code, err) == (EXIT_USAGE, "error: argument --bin-width: must be positive and finite, got '0'\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            # inf was "Maximum allowed size exceeded" from the curve grid
            (["--horizon", "inf"], "--horizon: must be positive and finite, got 'inf'"),
            # nan was "arange: cannot compute length"
            (["--horizon", "nan"], "--horizon: must be positive and finite, got 'nan'"),
            (["--horizon", "-5"], "--horizon: must be positive and finite, got '-5'"),
            (["--horizon", "0"], "--horizon: must be positive and finite, got '0'"),
            (["--horizon", "30", "--switch-time", "30"], "--switch-time must fall inside (0, --horizon)"),
            (["--horizon", "30", "--switch-time", "0"], "--switch-time: must be positive and finite, got '0'"),
            (["--horizon", "30", "--switch-time", "-5"], "--switch-time: must be positive and finite, got '-5'"),
            (["--horizon", "30", "--switch-time", "nan"], "--switch-time: must be positive and finite, got 'nan'"),
            (["--horizon", "30", "--switch-time", "inf"], "--switch-time: must be positive and finite, got 'inf'"),
        ],
    )
    def test_incentivization_refuses_bad_horizon_or_switch(self, tmp_path, capsys, flags, message):
        # refused before the output directory is made: a flag's own rule by
        # its type, in argparse's "argument --FLAG: ..." form, and the rule
        # that spans both flags after parsing
        code, err = self._refused(tmp_path, capsys, "incentivization", "--n-users", "5", *flags)
        cross_flag = message == "--switch-time must fall inside (0, --horizon)"
        assert (code, err) == (EXIT_USAGE, f"error: {'' if cross_flag else 'argument '}{message}\n")

    def test_recovery_refuses_zero_train_events(self, tmp_path, capsys):
        # was exit 0 with ten rows of zero-event fits scored inf
        code, err = self._refused(
            tmp_path, capsys, "recovery", "--train-events", "0", "--n-users", "3", "--n-products", "2",
            "--test-events", "12",
        )
        assert (code, err) == (EXIT_USAGE, "error: argument --train-events: must be a positive integer, got '0'\n")

def test_fit_and_evaluate_never_import_numpy_ma(tmp_path):
    # numpy.ma costs about 13 ms and 1.35 MB to import, and np.unique pulls it
    # in; simulate and the incentivization run (a linear-mark pass, then a
    # soft-max one) share the scorer's blocks (`_block_starts`) through the
    # soft-max draw.  A process pool costs about 15 ms to import: no fit
    # loads it, nor multiprocessing, whatever its worker count
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
        "--n-users", "5", "--horizon", "30", "--switch-time", "15", "--bin-width", "3",
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
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False False False", workers


def test_cli_imports_without_scipy():
    # scipy is a test-only dependency: no module the CLI loads may import it
    env = dict(os.environ, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]))
    code = "import sys; sys.modules['scipy'] = None; import corrcascades.cli"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _options(parser, path=()):
    """(command path, action) of every option of every command and figure."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, (*path, name))
        elif action.option_strings:
            yield path, action


_OPTIONS = list(_options(_build_parser()))
_NUMERIC_OPTIONS = [(path, action) for path, action in _OPTIONS if action.type is not None]


class TestEveryFlagTyped:
    """Each numeric flag's rule is its argparse type, so a bad value is
    refused as "argument --FLAG: ..." before any input is read."""

    def test_no_option_is_a_bare_int_or_float(self):
        commands = {path for path, _ in _OPTIONS}
        assert {("simulate",), ("fit",), ("evaluate",)} < commands
        assert {("replicate-synthetic", "recovery"), ("replicate-synthetic", "incentivization")} < commands
        bare = [(path, action.option_strings) for path, action in _OPTIONS if action.type in (int, float)]
        assert bare == []

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize(
        "path, action", _NUMERIC_OPTIONS, ids=[" ".join((*path, a.option_strings[0])) for path, a in _NUMERIC_OPTIONS]
    )
    def test_bad_value_refused_before_any_input(self, tmp_path, capsys, path, action, value):
        argv = list(path)
        for other in (other for other_path, other in _OPTIONS if other_path == path and other.required):
            # every input path is missing; a required number takes a good value
            argv += [other.option_strings[0], "1" if other.type else str(tmp_path / "missing" / other.dest)]
        flag = action.option_strings[0]
        assert main([*argv, flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
        assert list(tmp_path.iterdir()) == []
