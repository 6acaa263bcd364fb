"""Benchmark runner for the corrcascades CLI.

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload's inputs are made
by `gen.py` from the seed and cached under `bench/.out/inputs/`, so input
generation counts in no metric.  With `--trace 0` the runner times the
real CLI (`python -m corrcascades.cli ...` with `PYTHONPATH=src`) in fresh
child processes, checks every output, and reports the end-to-end metrics.
With `--trace 1` it alternates untraced CLI runs with runs of `traced.py`,
which calls the same public functions in the same order inside spans, and
reports the per-layer metrics.  Times are rescaled for the host's speed,
which `HostSpeed` follows while each child runs.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The full record (environment, raw samples, spans) goes to
`bench/.out/results/`.  `--size smoke` runs the same pipelines at tiny sizes,
for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # the runner's own numpy, before import
import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKERS = 2  # the benchmark host's core count; fixed so every commit runs alike
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "CORRCASCADES_WORKERS": str(WORKERS),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPS = 7
CLI_TIMEOUT_S = 75.0  # a traced round runs two children; a run must end within 180 s
BETA = 1.0
BINS = 100
REL_TOL = 1e-9
PROBE_EVENTS = 400  # one host-speed probe: about 8 ms of CPU on the benchmark host
PROBE_PERIOD_S = 0.2  # per core
PROBE_NOMINAL_S = 0.008


@dataclass(frozen=True)
class Workload:
    command: str  # "fit" or "evaluate"
    model: str  # "recovery" or "incentivization"
    n_users: int
    n_products: int
    n_events: int  # fit: the whole log; evaluate: the train window
    n_test: int = 0  # evaluate: the test window
    datasets: int = 1  # input sets per seed; CLI runs cycle through them


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.  The
# fit time varies by about 10% between logs of one model size (the solver's
# iteration count does), so `fit` runs take the median over four logs per seed.
WORKLOADS = {
    "fit": Workload("fit", "recovery", 50, 5, 5_000, datasets=4),
    "fit-wide": Workload("fit", "recovery", 200, 5, 5_000),
    "evaluate": Workload("evaluate", "recovery", 200, 5, 100_000, 25_000),
    "evaluate-linear": Workload("evaluate", "incentivization", 50, 3, 100_000, 25_000),
}
# the same pipelines at sizes that run in seconds, for the smoke test
SMOKE = {
    "fit": Workload("fit", "recovery", 8, 3, 300, datasets=4),
    "fit-wide": Workload("fit", "recovery", 24, 3, 300),
    "evaluate": Workload("evaluate", "recovery", 24, 3, 1_000, 300),
    "evaluate-linear": Workload("evaluate", "incentivization", 10, 3, 1_000, 300),
}
# seeds input streams by position: add new workloads at the end
WORKLOAD_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


class CheckFailed(Exception):
    """A CLI output that is missing, malformed or wrong."""


# ---------------------------------------------------------------- inputs


def make_inputs(name: str, size: str, wl: Workload, seed: int, index: int = 0) -> Path:
    """Generate (or reuse) input set `index` of the workload for this seed."""
    folder = OUT / "inputs" / f"{name}-{size}-seed{seed}-{index}"
    if (folder / "meta.json").is_file():
        return folder
    param_rng, event_rng = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence([WORKLOAD_TAGS[name], seed, index]).spawn(2)
    )
    if wl.model == "recovery":
        mu, alpha, mark = gen.recovery_model(param_rng, wl.n_users, wl.n_products, BETA)
    else:
        mu, alpha, mark = gen.incentivization_model(param_rng, wl.n_users, wl.n_products)
    n_total = wl.n_events + wl.n_test
    times, users, products = gen.thin(mu, alpha, mark, n_total + 1, event_rng)
    tmp = folder.with_name(folder.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    gen.write_params(tmp / "params.json", mu, alpha, mark)
    dims = (wl.n_users, wl.n_products)
    if wl.command == "fit":
        horizon = gen.split_horizon(times, n_total)
        gen.write_event_log(tmp / "events.csv", times[:n_total], users[:n_total], products[:n_total], horizon, *dims)
        horizons = [horizon]
    else:
        k = wl.n_events
        t_train = gen.split_horizon(times, k)
        t_test = gen.split_horizon(times, n_total)
        gen.write_event_log(tmp / "train.csv", times[:k], users[:k], products[:k], t_train, *dims)
        window = slice(k, n_total)
        gen.write_event_log(tmp / "test.csv", times[window], users[window], products[window], t_test, *dims)
        horizons = [t_train, t_test]
    meta = {
        "workload": name,
        "size": size,
        "seed": seed,
        "index": index,
        **asdict(wl),
        "horizons": horizons,
        "stationary_rate": gen.stationary_rate(mu, alpha),
    }
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    shutil.rmtree(folder, ignore_errors=True)
    tmp.rename(folder)
    return folder


def cli_args(wl: Workload, inputs: Path, work: Path, seed: int) -> list[str]:
    head = [sys.executable, "-m", "corrcascades.cli"]
    if wl.command == "fit":
        return head + [
            "fit", "--events", str(inputs / "events.csv"), "--beta", repr(BETA),
            "--out-params", str(work / "fit.json"), "--out-report", str(work / "report.csv"),
        ]  # fmt: skip
    return head + [
        "evaluate", "--train", str(inputs / "train.csv"), "--test", str(inputs / "test.csv"),
        "--params", str(inputs / "params.json"), "--bins", str(BINS), "--seed", str(seed),
        "--out", str(work / "metrics.csv"),
    ]  # fmt: skip


# ------------------------------------------------------------- processes


@dataclass
class Exit:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system of the process and its reaped children
    peak_rss_mb: float  # largest ru_maxrss of the process or any reaped child


def run_child(args: list[str], log_path: Path, timeout: float = CLI_TIMEOUT_S) -> Exit:
    """Run one child process in its own process group and account for it.

    `os.wait4` reports the child's resource use together with every
    descendant it waited for, such as process-pool workers.
    """
    env = {**os.environ, **CHILD_ENV}
    with log_path.open("w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the group may outlive the run
    return Exit(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure_setup(work: Path) -> list[float]:
    """Wall time of a fresh interpreter importing corrcascades.cli, SETUP_REPS times.

    One discarded warm-up run first compiles the sources to bytecode, as
    any installed copy would already have done.
    """
    probe = "import corrcascades.cli, sys; sys.stdout.write(corrcascades.cli.__file__)"
    args = [sys.executable, "-c", probe]
    log = work / "setup.log"
    samples = []
    for rep in range(SETUP_REPS + 1):
        ex = run_child(args, log, timeout=20.0)
        where = Path(log.read_text().strip() or ".").resolve()
        if ex.returncode != 0 or SRC.resolve() not in where.parents:
            raise SystemExit(f"cannot import corrcascades.cli from {SRC}: see {log}")
        if rep:
            samples.append(ex.wall_s)
    return samples


# ----------------------------------------------------------------- checks


class Checker:
    """Validates CLI outputs; identical output bytes are checked once."""

    def __init__(self, wl: Workload, inputs: Path):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from corrcascades import avg_pred_loglik, total_nll
        from corrcascades.io import read_event_log, read_params

        self.wl = wl
        self.inputs = inputs
        self._read_log, self._read_params = read_event_log, read_params
        self._total_nll, self._avg_pred_loglik = total_nll, avg_pred_loglik
        self._seen: dict[str, float] = {}
        self._reference = None

    def check(self, work: Path) -> float:
        """Return the run's NLL (`fit_nll`), or raise CheckFailed."""
        names = ("fit.json", "report.csv") if self.wl.command == "fit" else ("metrics.csv",)
        try:
            blobs = [(work / n).read_bytes() for n in names]
        except FileNotFoundError as exc:
            raise CheckFailed(f"missing output: {exc.filename}") from None
        key = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        if key not in self._seen:
            try:
                self._seen[key] = self._check_fit(work) if self.wl.command == "fit" else self._check_evaluate(work)
            except (ValueError, IndexError) as exc:  # unparsable output or infeasible parameters
                raise CheckFailed(f"malformed output: {exc}") from None
        return self._seen[key]

    def _check_fit(self, work: Path) -> float:
        doc = json.loads((work / "fit.json").read_text())
        fitted = self._read_params(work / "fit.json")
        if doc.get("n_users") != self.wl.n_users:
            raise CheckFailed("fit.json has the wrong number of users")
        rows = [
            line.split(",")
            for line in (work / "report.csv").read_text().splitlines()[1:]
            if line and not line.startswith("#")
        ]
        if len(rows) != self.wl.n_users:
            raise CheckFailed(f"report has {len(rows)} rows, expected {self.wl.n_users}")
        unconverged = [r[0] for r in rows if r[4] != "True"]
        if unconverged:
            raise CheckFailed(f"users not converged: {unconverged[:10]}")
        if self._reference is None:
            log = self._read_log(self.inputs / "events.csv")
            self._reference = (log, self._total_nll(log, self._read_params(self.inputs / "params.json")))
        log, truth_nll = self._reference
        nll = self._total_nll(log, fitted)
        # the MLE minimizes the NLL over a set that contains the truth
        if not nll <= truth_nll:
            raise CheckFailed(f"fitted NLL {nll!r} exceeds the generating model's {truth_nll!r}")
        return nll

    def _check_evaluate(self, work: Path) -> float:
        values = {}
        for line in (work / "metrics.csv").read_text().splitlines()[1:]:
            metric, product, value = line.split(",")
            if not math.isfinite(float(value)):
                raise CheckFailed(f"non-finite {metric} for product {product}")
            values[(metric, product)] = float(value)
        if self._reference is None:
            train = self._read_log(self.inputs / "train.csv")
            test = self._read_log(self.inputs / "test.csv")
            params = self._read_params(self.inputs / "params.json")
            self._reference = (len(test), self._avg_pred_loglik(train, test, params))
        n_test, expected = self._reference
        score = values.get(("avg_pred_loglik", "all"))
        if score is None or not math.isclose(score, expected, rel_tol=REL_TOL, abs_tol=0.0):
            raise CheckFailed(f"avg_pred_loglik {score!r} differs from in-process {expected!r}")
        if values.get(("n_events_real", "all")) != n_test:
            raise CheckFailed("n_events_real does not match the test log")
        return score * n_test


# ------------------------------------------------------------ statistics


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def environment(seed: int, wl: Workload, inputs: list[Path]) -> dict:
    import scipy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "child_env": CHILD_ENV,
        "seed": seed,
        "sizes": {
            "n_users": wl.n_users,
            "n_products": wl.n_products,
            "n_events": wl.n_events,
            "n_test_events": wl.n_test,
            "datasets": wl.datasets,
            "horizons": [json.loads((d / "meta.json").read_text())["horizons"] for d in inputs],
        },
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _tree_digest(folder: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(folder.rglob("*.py")):
        digest.update(str(path.relative_to(folder)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------ runs


class Window:
    """Measurement window of a run: at least one round, then more while they fit.

    A round starts only if the window is still open and, judged by the
    previous round, it would end within a quarter of the window past its
    end, which bounds the run length when one round is long.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.round_start = time.perf_counter()
        self.rounds = 0

    def another(self) -> bool:
        now = time.perf_counter()
        elapsed, last = now - self.start, now - self.round_start
        self.round_start = now
        self.rounds += 1
        return self.rounds == 1 or (elapsed < self.seconds and elapsed + last <= 1.25 * self.seconds)


class HostSpeed:
    """Follows the host's speed while a child process runs.

    The benchmark host is a shared VM whose cores slow down by up to about
    1.5x for seconds to minutes at a time, each core on its own.  While a
    child runs, one thread per core, pinned to it, repeats a short probe
    every PROBE_PERIOD_S and records the probe's thread CPU time, which
    grows when the core is slower but not when the thread waits.  The probe
    is the input generator's thinning on a fixed small model: Python and
    small numpy calls, like the CLI, and no code under test.  A time
    measured during the child is rescaled by PROBE_NOMINAL_S over the
    median probe, to a host on which one probe takes PROBE_NOMINAL_S.
    """

    def __init__(self):
        self._model = gen.recovery_model(np.random.default_rng(0), 50, 5)
        self._cores = sorted(os.sched_getaffinity(0))
        self.probes: list[float] = []
        self._probe()  # warm-up

    def _probe(self) -> float:
        start = time.thread_time()
        gen.thin(*self._model, PROBE_EVENTS, np.random.default_rng(1))
        return time.thread_time() - start

    def measure(self, fn, *args):
        """Return fn(*args) and the host-speed factor while it ran."""
        probes: list[float] = []
        stop = threading.Event()

        def probe_core(core: int):
            os.sched_setaffinity(0, {core})  # on Linux, pins only this thread
            while not stop.wait(PROBE_PERIOD_S):
                probes.append(self._probe())

        threads = [threading.Thread(target=probe_core, args=(c,), daemon=True) for c in self._cores]
        for thread in threads:
            thread.start()
        try:
            result = fn(*args)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        if not probes:
            probes.append(self._probe())
        self.probes.extend(probes)
        return result, PROBE_NOMINAL_S / statistics.median(probes)


def run_untraced(wl, checkers, work, seed, seconds) -> tuple[dict, int, int, dict]:
    speed = HostSpeed()
    setup, setup_factor = speed.measure(measure_setup, work)
    raw = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "host_factor": []}
    nlls, failures = [], []
    attempted = 0
    window = Window(seconds)
    while window.another():
        checker = checkers[(window.rounds - 1) % len(checkers)]
        ok, ex, factor, nll, why = invoke_cli(wl, checker, work, seed, speed)
        attempted += 1
        if ok:
            raw["wall_s"].append(ex.wall_s)
            raw["cpu_s"].append(ex.cpu_s)
            raw["peak_rss_mb"].append(ex.peak_rss_mb)
            raw["host_factor"].append(factor)
            nlls.append(nll)
        else:
            failures.append(why)
    if not raw["wall_s"]:
        return {}, attempted, len(failures), {"failures": failures}
    normalized = {
        "wall_s": [w * f for w, f in zip(raw["wall_s"], raw["host_factor"])],
        "cpu_s": [c * f for c, f in zip(raw["cpu_s"], raw["host_factor"])],
        "setup_s": [s * setup_factor for s in setup],
    }
    wall = statistics.median(normalized["wall_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(normalized["cpu_s"]), "s"),
        "events_per_s": ((wl.n_events + wl.n_test) / wall, "events/s"),
        "setup_s": (statistics.median(normalized["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(raw["peak_rss_mb"]), "MB"),
        "fit_nll": (statistics.median(nlls), "nats"),
    }
    detail = {
        "raw": {**raw, "setup_s": setup, "setup_host_factor": setup_factor, "fit_nll": nlls},
        "probes_s": speed.probes,
        "summary": {
            **{f"raw.{k}": summary(v) for k, v in {**raw, "setup_s": setup}.items()},
            **{k: summary(v) for k, v in normalized.items()},
        },
        "failed_ops": len(failures) / attempted,
        "failures": failures,
    }
    return metrics, attempted, len(failures), detail


def invoke_cli(wl, checker, work, seed, speed):
    """One checked CLI run on the checker's inputs: (ok, Exit, host factor, nll, reason)."""
    _clear_outputs(work)
    ex, factor = speed.measure(run_child, cli_args(wl, checker.inputs, work, seed), work / "cli.log")
    if ex.returncode != 0:
        return False, ex, factor, None, f"exit code {ex.returncode}: {_tail(work / 'cli.log')}"
    try:
        return True, ex, factor, checker.check(work), ""
    except CheckFailed as exc:
        return False, ex, factor, None, str(exc)


def _clear_outputs(work: Path) -> None:
    for stale in [*work.glob("*.csv"), work / "fit.json", work / "spans.json"]:
        stale.unlink(missing_ok=True)


def _tail(path: Path, n: int = 400) -> str:
    return path.read_text()[-n:] if path.is_file() else ""


def run_traced(wl, checkers, work, seed, seconds) -> tuple[dict, int, int, dict]:
    """Alternate untraced CLI runs with traced runs; per-layer medians.

    Times are rescaled by the host-speed factor measured while they ran, as
    the end-to-end times are.
    """
    import traced

    speed = HostSpeed()
    walls, layers, traces, failures = [], [], [], []
    attempted = 0
    window = Window(seconds)
    while window.another():
        checker = checkers[(window.rounds - 1) % len(checkers)]
        ok, ex, factor, _, why = invoke_cli(wl, checker, work, seed, speed)
        attempted += 1
        if ok:
            walls.append(ex.wall_s * factor)
        else:
            failures.append(why)
        _clear_outputs(work)
        spans_path = work / "spans.json"
        args = [sys.executable, str(BENCH / "traced.py"), wl.command, str(checker.inputs), str(work), str(seed)]
        ex, factor = speed.measure(run_child, args, work / "traced.log")
        attempted += 1
        try:
            if ex.returncode != 0:
                raise CheckFailed(f"traced run exit code {ex.returncode}: {_tail(work / 'traced.log')}")
            checker.check(work)
            record = json.loads(spans_path.read_text())
        except (CheckFailed, OSError, ValueError) as exc:
            failures.append(str(exc))
        else:
            layers.append(_rescale(traced.layer_metrics(record, ex.wall_s), factor))
            by_span = traced.self_times(record["spans"])
            traces.append({"total_s": ex.wall_s, "host_factor": factor, "by_span": by_span, **record})
    if not layers or not walls:
        return {}, attempted, len(failures), {"failures": failures}
    metrics = {}
    for name in layers[0]:
        unit = layers[0][name][1]
        metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    untraced = statistics.median(walls)
    metrics["trace.overhead_s"] = (metrics["trace.total_s"][0] - untraced, "s")
    metrics["host.probe_s"] = (statistics.median(speed.probes), "s")
    detail = {
        "untraced_wall_s": summary(walls),
        "probes_s": speed.probes,
        "traces": traces,
        "failed_ops": len(failures) / attempted,
        "failures": failures,
    }
    return metrics, attempted, len(failures), detail


def _rescale(metrics: dict, factor: float) -> dict:
    """Apply a host-speed factor to every time and rate in {name: (value, unit)}."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit == "s":
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "corrcascades" / "cli.py").is_file():
        print(f"error: no corrcascades sources under {SRC}", file=sys.stderr)
        return 2
    wl = (WORKLOADS if args.size == "full" else SMOKE)[args.workload]
    checkers = [Checker(wl, make_inputs(args.workload, args.size, wl, args.seed, i)) for i in range(wl.datasets)]
    work = OUT / "work" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, detail = runner(wl, checkers, work, args.seed, args.seconds)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, wl, [c.inputs for c in checkers]),
        **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("traces", "raw", "probes_s")}))
    if not metrics:
        print(f"error: every run failed: {detail['failures'][:3]}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
