"""Traced run of one CLI command, for the per-layer metrics.

    PYTHONPATH=src python bench/traced.py fit|evaluate INPUTS WORK SEED

Calls the public functions that `corrcascades fit --beta 1.0` or
`corrcascades evaluate` call, in the same order, and writes the same output
files.  Each call is timed from outside inside a span (name, start, end,
parent).  Calls the library makes internally are spanned by wrapping the
module attribute the caller looks up, so nothing under `src/` changes.
Spans stay in memory and are written to WORK/spans.json at the end, with
the counters read off the call results.  Work done only to measure (sizes
of features and pickled pool tasks) runs in `bench.*` spans.
"""

from __future__ import annotations

import json
import pickle
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BETA = 1.0
BINS = 100
TAIL_MIN_BEYOND = 10  # samples a tail percentile needs beyond it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter() - self.origin, None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter() - self.origin


def wrap(tracer: Tracer, module, attr: str, span_name: str, keep: dict | None = None) -> None:
    """Span every call of `module.attr`; optionally keep the last result."""
    fn = getattr(module, attr)

    def traced_call(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if keep is not None:
            keep[span_name] = result
        return result

    setattr(module, attr, traced_call)


def array_bytes(obj, seen: set | None = None, depth: int = 0) -> int:
    """Computed bytes of the distinct numpy arrays reachable from `obj`."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 4:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
        children = [getattr(obj, s, None) for s in slots] + list(getattr(obj, "__dict__", {}).values())
    return sum(array_bytes(c, seen, depth + 1) for c in children)


def run_fit(tracer: Tracer, inputs: Path, work: Path, counters: dict) -> None:
    import corrcascades.cli  # noqa: F401  the CLI imports every module first
    from corrcascades import fitting
    from corrcascades.fitting import FitConfig, default_worker_count, fit_all
    from corrcascades.io import read_event_log, write_params

    kept: dict = {}
    wrap(tracer, fitting, "build_all_features", "likelihood.build_all_features", kept)
    with tracer.span("io.read_event_log"):
        log = read_event_log(inputs / "events.csv")
    config = FitConfig(beta=BETA, n_workers=default_worker_count())
    with tracer.span("fitting.fit_all"):
        params, report = fit_all(log, config)
    with tracer.span("io.write_params"):
        write_params(params, work / "fit.json")
    with (work / "report.csv").open("w", newline="") as fh:
        fh.write("user,nll,outer_iterations,inner_iterations,converged,grad_norm,wall_time\n")
        for e in report.entries:
            fh.write(
                f"{e.user},{e.nll!r},{e.outer_iterations},{e.inner_iterations},"
                f"{e.converged},{e.grad_norm!r},{e.wall_time:.3f}\n"
            )
        fh.write(f"# chosen_beta={BETA!r}\n")
    with tracer.span("bench.features_accounting"):
        features = kept.pop("likelihood.build_all_features", None)
        counters["features_bytes"] = array_bytes(features)
        if config.n_workers > 1 and isinstance(features, dict):
            # fit_all pickles one (features, user, config) task per user
            counters["pool_transfer_bytes"] = sum(len(pickle.dumps((f, u, config))) for u, f in features.items())
        else:
            counters["pool_transfer_bytes"] = 0
        del features
    counters["workers"] = config.n_workers
    counters["users"] = [
        [e.wall_time, e.inner_iterations, e.outer_iterations, bool(e.converged)] for e in report.entries
    ]


def run_evaluate(tracer: Tracer, inputs: Path, work: Path, seed: int, counters: dict) -> None:
    import corrcascades.cli  # noqa: F401  the CLI imports every module first
    from corrcascades import metrics
    from corrcascades.data import EventLog
    from corrcascades.io import read_event_log, read_params
    from corrcascades.metrics import avg_pred_loglik, compare_models
    from corrcascades.simulate import SimConfig, simulate

    wrap(tracer, metrics, "concat_logs", "data.concat_logs")
    wrap(tracer, metrics, "window_nll", "likelihood.window_nll")
    with tracer.span("io.read_event_log"):
        train = read_event_log(inputs / "train.csv")
    with tracer.span("io.read_event_log"):
        test = read_event_log(inputs / "test.csv")
    with tracer.span("io.read_params"):
        params = read_params(inputs / "params.json")
    with tracer.span("metrics.avg_pred_loglik"):
        score = avg_pred_loglik(train, test, params)
    sim_config = SimConfig(horizon=test.horizon, seed=seed, initial_history=train)
    with tracer.span("simulate.simulate"):
        generated = simulate(params, sim_config)

    def shift(log, t_start):
        mask = log.times >= t_start
        return EventLog(
            zip(log.times[mask] - t_start, log.users[mask], log.products[mask]),
            log.horizon - t_start,
            log.n_users,
            log.n_products,
        )

    real_w = shift(test, train.horizon)
    gen_w = shift(generated, train.horizon)
    with tracer.span("metrics.compare_models"):
        rows = compare_models(real_w, [("model", gen_w)], (test.horizon - train.horizon) / BINS)
    with (work / "metrics.csv").open("w", newline="") as fh:
        fh.write("metric,product,value\n")
        fh.write(f"avg_pred_loglik,all,{score!r}\n")
        for r in rows:
            tag = "all" if r.product is None else str(r.product)
            fh.write(f"pearson,{tag},{r.pearson!r}\n")
            fh.write(f"inv_l1,{tag},{r.inv_l1!r}\n")
            fh.write(f"n_events_real,{tag},{r.n_events_real}\n")
            fh.write(f"n_events_generated,{tag},{r.n_events_generated}\n")
    counters["history_events"] = len(train)
    counters["events_generated"] = len(generated)
    counters["cap_exhausted"] = int(len(generated) >= sim_config.max_events)


# ------------------------------------------------ metrics, in the parent

SPAN_METRICS = {
    "io.read_event_log": "io.read_event_log_s",
    "io.read_params": "io.read_params_s",
    "io.write_params": "io.write_params_s",
    "data.concat_logs": "data.concat_logs_s",
    "likelihood.build_all_features": "likelihood.build_all_features_s",
    "likelihood.window_nll": "likelihood.window_nll_s",
    "fitting.fit_all": "fitting.fit_all_s",
    "metrics.avg_pred_loglik": "metrics.avg_pred_loglik_s",
    "metrics.compare_models": "metrics.compare_models_s",
    "simulate.simulate": "simulate.simulate_s",
}


def self_times(spans: list) -> dict:
    """Per span name: total duration and self time (minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
        entry["calls"] += 1
    return out


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    for q in TAIL_CANDIDATES:
        if round(n * (100.0 - q) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def layer_metrics(record: dict, total_s: float) -> dict:
    """Per-layer metrics {name: (value, unit)} of one traced run lasting total_s."""
    spans, counters = record["spans"], record["counters"]
    times = self_times(spans)
    out = {metric: (times.get(span, {}).get("total_s", 0.0), "s") for span, metric in SPAN_METRICS.items()}
    users = counters.get("users", [])
    walls = [u[0] for u in users]
    q = tail_percentile(len(walls)) if walls else 0.0
    fit_all_s = out["fitting.fit_all_s"][0]
    per_worker = sum(walls) / counters["workers"] if walls else 0.0
    generated = counters.get("events_generated", 0)
    sim_s = out["simulate.simulate_s"][0]
    top_level = sum(end - start for _, start, end, parent in spans if parent is None)
    out.update(
        {
            "likelihood.features_bytes": (counters.get("features_bytes", 0), "bytes"),
            "fitting.fit_user_s.p50": (statistics.median(walls) if walls else 0.0, "s"),
            "fitting.fit_user_s.tail": (float(np.percentile(walls, q)) if walls else 0.0, "s"),
            "fitting.fit_user_s.tail_pct": (q, "%"),
            "fitting.fit_user_s.sum": (sum(walls), "s"),
            "fitting.inner_iterations": (sum(u[1] for u in users), "count"),
            "fitting.outer_iterations": (sum(u[2] for u in users), "count"),
            "fitting.users_unconverged": (sum(not u[3] for u in users), "count"),
            "fitting.pool_transfer_bytes": (counters.get("pool_transfer_bytes", 0), "bytes"),
            "fitting.pool_overhead_s": (
                fit_all_s - out["likelihood.build_all_features_s"][0] - per_worker if walls else 0.0,
                "s",
            ),
            "simulate.history_events": (counters.get("history_events", 0), "count"),
            "simulate.events_generated": (generated, "count"),
            "simulate.events_per_s": (generated / sim_s if sim_s else 0.0, "events/s"),
            "simulate.cap_exhausted": (counters.get("cap_exhausted", 0), "count"),
            "cli.other_s": (total_s - top_level, "s"),
            "trace.total_s": (total_s, "s"),
        }
    )
    return out


def main(argv: list[str]) -> int:
    command, inputs, work, seed = argv[0], Path(argv[1]), Path(argv[2]), int(argv[3])
    tracer = Tracer()
    counters: dict = {}
    if command == "fit":
        run_fit(tracer, inputs, work, counters)
    else:
        run_evaluate(tracer, inputs, work, seed, counters)
    (work / "spans.json").write_text(json.dumps({"spans": tracer.spans, "counters": counters}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
