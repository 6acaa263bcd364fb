"""Smoke test of the benchmark runner: every workload, its output checks
and its traced run, at sizes that finish in seconds.

    PYTHONPATH=src python -m pytest bench/test_bench_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_metric(workload, trace, kind):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _bench("--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_seeded():
    def draw(seed):
        rng = np.random.default_rng(seed)
        mu, alpha, mark = gen.recovery_model(rng, 6, 2)
        return gen.thin(mu, alpha, mark, 200, rng)

    first, again, other = draw(5), draw(5), draw(6)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    assert np.all(np.diff(first[0]) > 0)


@pytest.fixture()
def fit_case(tmp_path):
    wl = run.SMOKE["fit"]
    inputs = run.make_inputs("fit", "smoke", wl, 3)
    ex = run.run_child(run.cli_args(wl, inputs, tmp_path, 3), tmp_path / "cli.log")
    assert ex.returncode == 0
    return run.Checker(wl, inputs), tmp_path


def test_fit_check_accepts_cli_output(fit_case):
    checker, work = fit_case
    assert checker.check(work) > 0


def test_fit_check_rejects_unconverged_user(fit_case):
    checker, work = fit_case
    report = work / "report.csv"
    report.write_text(report.read_text().replace(",True,", ",False,", 1))
    with pytest.raises(run.CheckFailed, match="not converged"):
        checker.check(work)


def test_fit_check_rejects_fit_worse_than_truth(fit_case):
    checker, work = fit_case
    shutil.copy(checker.inputs / "params.json", work / "fit.json")
    doc = json.loads((work / "fit.json").read_text())
    doc["mu"] = [2.0 * x for x in doc["mu"]]
    (work / "fit.json").write_text(json.dumps(doc))
    with pytest.raises(run.CheckFailed, match="exceeds"):
        checker.check(work)


def test_evaluate_check_rejects_wrong_score(tmp_path):
    wl = run.SMOKE["evaluate"]
    inputs = run.make_inputs("evaluate", "smoke", wl, 3)
    assert run.run_child(run.cli_args(wl, inputs, tmp_path, 3), tmp_path / "cli.log").returncode == 0
    checker = run.Checker(wl, inputs)
    assert checker.check(tmp_path) > 0
    metrics = tmp_path / "metrics.csv"
    lines = metrics.read_text().splitlines()
    score = float(lines[1].split(",")[2])
    lines[1] = f"avg_pred_loglik,all,{score * (1 + 1e-6)!r}"
    metrics.write_text("\n".join(lines) + "\n")
    with pytest.raises(run.CheckFailed, match="avg_pred_loglik"):
        checker.check(tmp_path)
