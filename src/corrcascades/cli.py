"""Command-line entry points: simulate, fit, evaluate, replicate-synthetic.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure.
`fit` maps users and `evaluate` overlaps its stages over
`default_worker_count()` processes (`_workers.run_jobs`): `evaluate` parses
the train log while the test log and the parameters are read, then, once
the inputs pass every check of the scorer and the sampler, scores the test
window while a stream is sampled and compared with it.  Errors rank as in a
one-worker run, which does the same work in that order.
`main` returns the code; `run`, the console entry, ends the process with it
by `os._exit`, skipping interpreter teardown, about 20 ms of freeing
modules and objects that the process is about to give back anyway.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._workers import default_worker_count, run_jobs
from .data import EventLog
from .fitting import FitConfig, cross_validate_beta, fit_all
from .io import FileFormatError, read_event_log, read_params, write_curves_csv, write_event_log, write_params
from .likelihood import InfeasibleLikelihoodError
from .metrics import avg_pred_loglik, check_held_out, compare_models
from .model import ModelParams
from .replicate import run_incentivization, run_recovery
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _nonnegative_int(text: str) -> int:
    """A --seed value (numpy's generators take nonnegative integers only) or
    an --inner-max-iter value (0 returns the start)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _beta(text: str) -> float:
    """A --beta value or one --beta-grid entry: the soft-max sharpness,
    positive and finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _beta_grid(text: str) -> list[float]:
    """A --beta-grid value: one or more comma-separated betas."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty comma-separated list of betas, got ''")
    return [_beta(entry) for entry in text.split(",")]


def _holdout(text: str) -> float:
    """A --holdout value: the tail's share of the log, inside (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must fall inside (0, 1), got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="corrcascades")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample an event log from a parameter file")
    p_sim.add_argument("--params", required=True)
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--max-events", type=int, default=10_000_000)
    p_sim.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit parameters to an event log")
    p_fit.add_argument("--events", required=True)
    group = p_fit.add_mutually_exclusive_group()
    group.add_argument("--beta", type=_beta)
    group.add_argument("--beta-grid", type=_beta_grid, help="comma-separated betas for cross-validation")
    p_fit.add_argument("--holdout", type=_holdout, default=0.2)
    p_fit.add_argument(
        "--inner-max-iter",
        type=_nonnegative_int,
        default=500,
        help="cap on each user's projected-Newton steps",
    )
    p_fit.add_argument("--out-params", required=True)
    p_fit.add_argument("--out-report", required=True)

    p_eval = sub.add_parser("evaluate", help="score a fitted model on a held-out window")
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--params", required=True)
    p_eval.add_argument("--bins", type=int, default=100)
    p_eval.add_argument("--seed", type=_nonnegative_int, default=0)
    p_eval.add_argument("--out", required=True)

    p_rep = sub.add_parser("replicate-synthetic", help="run a synthetic experiment pipeline")
    figures = p_rep.add_subparsers(dest="figure", required=True)
    p_recovery = figures.add_parser("recovery", help="parameter recovery over growing training fractions")
    p_inc = figures.add_parser("incentivization", help="market shares after a mid-run baseline boost")
    for p_figure in (p_recovery, p_inc):
        p_figure.add_argument("--seed", type=_nonnegative_int, default=0)
        p_figure.add_argument("--outdir", required=True)
        p_figure.add_argument("--n-users", type=int, default=50)
    p_recovery.add_argument("--n-products", type=int, default=5)
    p_recovery.add_argument("--train-events", type=int, default=20_000)
    p_recovery.add_argument("--test-events", type=int, default=2_000)
    p_inc.add_argument("--horizon", type=float, default=200.0)
    p_inc.add_argument("--switch-time", type=float, default=100.0)
    p_inc.add_argument("--bins", type=float, default=2.0, help="bin width for the curves")
    return parser


def _cmd_simulate(args) -> int:
    params = read_params(args.params)
    log = simulate(
        params,
        SimConfig(horizon=args.horizon, seed=args.seed, max_events=args.max_events),
    )
    write_event_log(log, args.out)
    print(f"wrote {len(log)} events to {args.out}")
    for p in range(log.n_products):
        print(f"product {p}: {int((log.products == p).sum())} events")
    return EXIT_OK


_DEFAULT_BETA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def _cmd_fit(args) -> int:
    log = read_event_log(args.events)
    config = FitConfig(beta=1.0, inner_max_iter=args.inner_max_iter, n_workers=default_worker_count())
    if args.beta is not None:
        beta = args.beta
        scores = None
    else:
        grid = _DEFAULT_BETA_GRID if args.beta_grid is None else args.beta_grid
        beta, scores = cross_validate_beta(log, grid, args.holdout, config)
        print(f"cross-validation selected beta={beta:g}")
    params, report = fit_all(log, replace(config, beta=beta))
    write_params(params, args.out_params)
    with Path(args.out_report).open("w", newline="") as fh:
        fh.write("user,nll,outer_iterations,inner_iterations,converged,grad_norm,wall_time\n")
        for e in report.entries:
            fh.write(
                f"{e.user},{e.nll!r},{e.outer_iterations},{e.inner_iterations},"
                f"{e.converged},{e.grad_norm!r},{e.wall_time:.3f}\n"
            )
        if scores is not None:
            for b, s in scores:
                fh.write(f"# beta={b!r} score={s!r}\n")
        fh.write(f"# chosen_beta={beta!r}\n")
    n_bad = sum(not e.converged for e in report.entries)
    if n_bad:
        # a solve that reached the cap counted one more gradient, its last check
        n_capped = sum(not e.converged and e.outer_iterations > config.inner_max_iter for e in report.entries)
        print(
            f"warning: {n_bad} of {len(report.entries)} users did not converge, "
            f"{n_capped} of them stopped at the --inner-max-iter cap of {config.inner_max_iter}",
            file=sys.stderr,
        )
    print(f"wrote parameters to {args.out_params}")
    return EXIT_OK


def _shift_to_window(log: EventLog, t_start: float) -> EventLog:
    mask = log.times >= t_start
    return EventLog.from_arrays(
        log.times[mask] - t_start, log.users[mask], log.products[mask],
        log.horizon - t_start, log.n_users, log.n_products,
    )


def _sample_and_compare(train: EventLog, test: EventLog, params: ModelParams, seed: int, bins: int) -> list:
    """Curve scores of one stream sampled after `train` against `test`,
    both shifted to start at the train horizon."""
    generated = simulate(params, SimConfig(horizon=test.horizon, seed=seed, initial_history=train))
    bin_width = (test.horizon - train.horizon) / bins
    real_w = _shift_to_window(test, train.horizon)
    gen_w = _shift_to_window(generated, train.horizon)
    return compare_models(real_w, [("model", gen_w)], bin_width)


def _cmd_evaluate(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be a positive integer")
    workers = default_worker_count()
    # two rounds of jobs that run at once on two workers, each listed in
    # the order one worker runs them, which is the order their errors rank in
    train, (test, params) = run_jobs(
        [lambda: read_event_log(args.train), lambda: (read_event_log(args.test), read_params(args.params))],
        workers,
    )
    check_held_out(train, test, params)  # so no refused input is scored or sampled
    score, rows = run_jobs(
        [
            lambda: avg_pred_loglik(train, test, params),
            lambda: _sample_and_compare(train, test, params, args.seed, args.bins),
        ],
        workers,
    )
    with Path(args.out).open("w", newline="") as fh:
        fh.write("metric,product,value\n")
        fh.write(f"avg_pred_loglik,all,{score!r}\n")
        for r in rows:
            tag = "all" if r.product is None else str(r.product)
            fh.write(f"pearson,{tag},{r.pearson!r}\n")
            fh.write(f"inv_l1,{tag},{r.inv_l1!r}\n")
            fh.write(f"n_events_real,{tag},{r.n_events_real}\n")
            fh.write(f"n_events_generated,{tag},{r.n_events_generated}\n")
    print(f"avg_pred_loglik={score:.6f}; wrote metrics to {args.out}")
    return EXIT_OK


def _cmd_replicate(args) -> int:
    counts = {"--n-users": args.n_users}
    if args.figure == "recovery":
        counts.update(
            {"--n-products": args.n_products, "--train-events": args.train_events, "--test-events": args.test_events}
        )
    for flag, value in counts.items():
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer")
    if args.figure == "incentivization":
        if not (math.isfinite(args.bins) and args.bins > 0):
            raise UsageError("--bins must be a positive bin width")
        if not (math.isfinite(args.horizon) and args.horizon > 0):
            raise UsageError("--horizon must be positive and finite")
        if not 0 < args.switch_time < args.horizon:
            raise UsageError("--switch-time must fall inside (0, --horizon)")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.figure == "recovery":
        result = run_recovery(
            seed=args.seed,
            n_users=args.n_users,
            n_products=args.n_products,
            train_events=args.train_events,
            test_events=args.test_events,
            fit_config=FitConfig(n_workers=default_worker_count()),
        )
        path = outdir / "recovery.csv"
        with path.open("w", newline="") as fh:
            fh.write(
                "fraction,events_per_user,n_train_events,mse,mae,mse_alpha,mae_alpha,avg_pred_loglik\n"
            )
            for r in result.rows:
                fh.write(
                    f"{r.fraction!r},{r.events_per_user!r},{r.n_train_events},"
                    f"{r.mse!r},{r.mae!r},{r.mse_alpha!r},{r.mae_alpha!r},{r.avg_pred_loglik!r}\n"
                )
        print(f"wrote {path}")
    else:
        result = run_incentivization(
            seed=args.seed,
            n_users=args.n_users,
            horizon=args.horizon,
            switch_time=args.switch_time,
            bin_width=args.bins,
        )
        for run in result.runs:
            write_curves_csv({run.label: run.intensity}, outdir / f"intensity_{run.label}.csv")
            write_curves_csv({run.label: run.share}, outdir / f"market_share_{run.label}.csv")
            write_event_log(run.log, outdir / f"events_{run.label}.csv")
        print(f"wrote {2 * len(result.runs)} curve files to {outdir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_replicate(args)
    except (InfeasibleLikelihoodError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileFormatError, FileNotFoundError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The console entry (`corrcascades`, `python -m corrcascades.cli`):
    `main` on the command line, then flush stdout and stderr and end the
    process by `os._exit`.  Every file a command writes is closed when it
    returns.  A flush that fails (a closed stdout pipe) leaves the exit to
    the interpreter, which reports the failure as it would without this."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
