"""Command-line entry points: simulate, fit, evaluate, replicate-synthetic.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure.
Each flag's rule is its argparse type (`_checked`), so a bad value is
refused before any input is read, and a command that uses workers reads
`CORRCASCADES_WORKERS` before its first file read or directory; only the
rule that spans two flags, incentivization's `--switch-time` below
`--horizon`, is checked after parsing.  The library keeps its own checks
for its callers.
`fit` maps users over `default_worker_count()` processes
(`_workers.run_jobs`).  `evaluate` reads its inputs, refuses what the
scorer would refuse, then scores the test window in the calling process;
it reads no worker count and starts no process.  Importing the package
sets one BLAS thread per process (`_workers`).
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

from . import fitting
from ._workers import default_worker_count
from .fitting import FitConfig, cross_validate_beta, fit_all
from .io import FileFormatError, read_event_log, read_params, write_curves_csv, write_event_log, write_params
from .likelihood import InfeasibleLikelihoodError
from .metrics import avg_pred_loglik, check_held_out
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


def _checked(parse, ok, want: str):
    """An argparse type: `parse` the text and keep the value if `ok` holds
    for it, else refuse the text as `must <want>, got '<text>'`."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must {want}, got {text!r}")

    return check


# a --seed: numpy's generators take nonnegative integers only.  `fit` takes
# no step cap or hold-out share, which are the constants
# `fitting._MAX_STEPS` = 500 Newton steps and `fitting._HOLDOUT` = 0.2
_nonnegative_int = _checked(int, lambda value: value >= 0, "be a nonnegative integer")
_positive_int = _checked(int, lambda value: value >= 1, "be a positive integer")
_positive = _checked(float, lambda value: 0 < value < math.inf, "be positive and finite")


def _beta_grid(text: str) -> list[float]:
    """A --beta-grid value: one or more comma-separated betas."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty comma-separated list of betas, got ''")
    return [_positive(entry) for entry in text.split(",")]


def _build_parser() -> _Parser:
    parser = _Parser(prog="corrcascades")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample an event log from a parameter file")
    p_sim.set_defaults(handler=_cmd_simulate)
    p_sim.add_argument("--params", required=True)
    p_sim.add_argument("--horizon", type=_positive, required=True)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--max-events", type=_positive_int, default=10_000_000)
    p_sim.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit parameters to an event log")
    p_fit.set_defaults(handler=_cmd_fit)
    p_fit.add_argument("--events", required=True)
    group = p_fit.add_mutually_exclusive_group()
    group.add_argument("--beta", type=_positive)
    group.add_argument(
        "--beta-grid",
        type=_beta_grid,
        default="0.01,0.1,1,10,100",
        help="comma-separated betas for cross-validation (default %(default)s)",
    )
    p_fit.add_argument("--out-params", required=True)
    p_fit.add_argument("--out-report", required=True)

    p_eval = sub.add_parser("evaluate", help="score a fitted model on a held-out window")
    p_eval.set_defaults(handler=_cmd_evaluate)
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--params", required=True)
    # still checked, so a script that passes them keeps working
    p_eval.add_argument("--bins", type=_positive_int, default=100, help="deprecated and ignored")
    p_eval.add_argument("--seed", type=_nonnegative_int, default=0, help="deprecated and ignored")
    p_eval.add_argument("--out", required=True)

    p_rep = sub.add_parser("replicate-synthetic", help="run a synthetic experiment pipeline")
    figures = p_rep.add_subparsers(dest="figure", required=True)
    p_recovery = figures.add_parser("recovery", help="parameter recovery over growing training fractions")
    p_recovery.set_defaults(handler=_cmd_recovery)
    p_inc = figures.add_parser("incentivization", help="market shares after a mid-run baseline boost")
    p_inc.set_defaults(handler=_cmd_incentivization)
    for p_figure in (p_recovery, p_inc):
        p_figure.add_argument("--seed", type=_nonnegative_int, default=0)
        p_figure.add_argument("--outdir", required=True)
        p_figure.add_argument("--n-users", type=_positive_int, default=50)
    p_recovery.add_argument("--n-products", type=_positive_int, default=5)
    p_recovery.add_argument("--train-events", type=_positive_int, default=20_000)
    p_recovery.add_argument("--test-events", type=_positive_int, default=2_000)
    p_inc.add_argument("--horizon", type=_positive, default=200.0)
    p_inc.add_argument("--switch-time", type=_positive, default=100.0, help="must be below --horizon")
    p_inc.add_argument("--bin-width", type=_positive, default=2.0, help="bin width in time units for the curves")
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


def _cmd_fit(args) -> int:
    config = FitConfig(n_workers=default_worker_count())
    log = read_event_log(args.events)
    # a fixed beta is the one-entry grid, which cross_validate_beta returns unscored
    beta, scores = cross_validate_beta(log, args.beta_grid if args.beta is None else [args.beta], config)
    if len(scores) > 1:
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
        for b, s in scores:
            fh.write(f"# beta={b!r} score={s!r}\n")
        fh.write(f"# chosen_beta={beta!r}\n")
    n_bad = sum(not e.converged for e in report.entries)
    if n_bad:
        # a solve that reached the cap counted one more gradient, its last check
        n_capped = sum(not e.converged and e.outer_iterations > fitting._MAX_STEPS for e in report.entries)
        print(
            f"warning: {n_bad} of {len(report.entries)} users did not converge, "
            f"{n_capped} of them stopped at the solver's step cap of {fitting._MAX_STEPS} (fitting._MAX_STEPS)",
            file=sys.stderr,
        )
    print(f"wrote parameters to {args.out_params}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    train = read_event_log(args.train)
    test = read_event_log(args.test)
    params = read_params(args.params)
    # every refusal comes before any input is scored
    check_held_out(train, test, params)
    if not test.horizon > train.horizon:  # an empty window
        raise ValueError(f"the test horizon {test.horizon!r} must be after the train horizon {train.horizon!r}")
    score = avg_pred_loglik(train, test, params)
    counts = np.bincount(test.products, minlength=test.n_products).tolist()
    with Path(args.out).open("w", newline="") as fh:
        fh.write("metric,product,value\n")
        fh.write(f"avg_pred_loglik,all,{score!r}\n")
        for p, count in [*enumerate(counts), ("all", len(test))]:
            fh.write(f"n_events_real,{p},{count}\n")
    print(f"avg_pred_loglik={score:.6f}; wrote metrics to {args.out}")
    return EXIT_OK


def _cmd_recovery(args) -> int:
    config = FitConfig(n_workers=default_worker_count())  # read before the outdir is made
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_recovery(
        seed=args.seed,
        n_users=args.n_users,
        n_products=args.n_products,
        train_events=args.train_events,
        test_events=args.test_events,
        fit_config=config,
    )
    path = outdir / "recovery.csv"
    with path.open("w", newline="") as fh:
        fh.write("fraction,events_per_user,n_train_events,mse,mae,mse_alpha,mae_alpha,avg_pred_loglik\n")
        for r in result.rows:
            fh.write(
                f"{r.fraction!r},{r.events_per_user!r},{r.n_train_events},"
                f"{r.mse!r},{r.mae!r},{r.mse_alpha!r},{r.mae_alpha!r},{r.avg_pred_loglik!r}\n"
            )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_incentivization(args) -> int:
    if not args.switch_time < args.horizon:
        raise UsageError("--switch-time must fall inside (0, --horizon)")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_incentivization(
        seed=args.seed,
        n_users=args.n_users,
        horizon=args.horizon,
        switch_time=args.switch_time,
        bin_width=args.bin_width,
    )
    for run in result.runs:
        write_curves_csv(run.label, run.intensity, outdir / f"intensity_{run.label}.csv")
        write_curves_csv(run.label, run.share, outdir / f"market_share_{run.label}.csv")
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
        return args.handler(args)
    except (InfeasibleLikelihoodError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileFormatError, MemoryError, OSError, UsageError, ValueError) as exc:
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
