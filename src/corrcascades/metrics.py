"""Evaluation criteria: parameter-recovery errors, held-out predictive
likelihood, event-stream summaries (market share, binned intensity,
rescaled interevent times), and curve-agreement scores between streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventLog, concat_logs
from .likelihood import InfeasibleLikelihoodError, window_nll
from .model import ModelParams, check_dimensions


@dataclass(frozen=True)
class CurveSeries:
    """A binned time series; NaN values mark undefined points."""

    grid: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise ValueError("grid and values must be equal-length vectors")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass
class CurveScoreRow:
    """Agreement of one generated stream with the real one, per product or pooled."""

    model: str
    product: int | None  # None = pooled over all products
    pearson: float
    inv_l1: float
    n_events_real: int
    n_events_generated: int


def _check_shapes(est: ModelParams, true: ModelParams) -> None:
    if est.mu.shape != true.mu.shape or est.alpha.shape != true.alpha.shape:
        raise ValueError("parameter shapes do not match")


def param_mse(est: ModelParams, true: ModelParams) -> float:
    """Mean squared error over all N*N + N*M parameter entries."""
    _check_shapes(est, true)
    sq = np.concatenate([(est.alpha - true.alpha).ravel(), (est.mu - true.mu).ravel()]) ** 2
    return float(sq.mean())


def _relative_error(est: np.ndarray, true: np.ndarray) -> float:
    """Mean of |est - true| / max(true, 1e-6): the floor guards near-zero truths."""
    return float((np.abs(est - true) / np.maximum(true, 1e-6)).mean())


def param_mae(est: ModelParams, true: ModelParams) -> float:
    """Mean relative error over all N*N + N*M parameter entries (`_relative_error`)."""
    _check_shapes(est, true)
    return _relative_error(
        np.concatenate([est.alpha.ravel(), est.mu.ravel()]),
        np.concatenate([true.alpha.ravel(), true.mu.ravel()]),
    )


def check_held_out(train: EventLog, test: EventLog, params: ModelParams) -> None:
    """Raise ValueError unless `test` is nonempty, starts at or after the
    train horizon and has the users and products of `train` and `params`:
    every input that `avg_pred_loglik` refuses before scoring."""
    if len(test) == 0:
        raise ValueError("test log must be nonempty")
    if test.times[0] < train.horizon:
        raise ValueError("test events must start at the train horizon")
    if (train.n_users, train.n_products) != (test.n_users, test.n_products):
        raise ValueError("logs have mismatched dimensions")
    check_dimensions(train, params)


def avg_pred_loglik(train: EventLog, test: EventLog, params: ModelParams) -> float:
    """Per-event NLL of the test events conditioned on the train history.

    Scores exactly the test log's events, those at the train horizon
    included, and the compensator over [train.horizon, test.horizon].
    Refuses what `check_held_out` refuses.
    """
    check_held_out(train, test, params)
    combined = concat_logs(train, test)
    nll = window_nll(combined, params, train.horizon, test.horizon, first_event=len(train))
    return nll / len(test)


def held_out_score(log: EventLog, t_split: float, params: ModelParams) -> float:
    """Per-event NLL of the events of `log` from t_split on, those at t_split
    included, given every event before them; inf when `params` give one of
    them zero intensity or zero mark probability.

    This is `avg_pred_loglik` of the log split at t_split, computed on the
    log as it stands.  A fit of the events before t_split can leave a user
    without events; it then sets that user's baselines and influence to
    exactly 0, and the held-out likelihood of any later event of that user
    is 0.  Raises ValueError when no event falls at or after t_split.
    """
    first = int(np.searchsorted(log.times, t_split, side="left"))
    if first == len(log):
        raise ValueError("no held-out events at or after t_split")
    try:
        return window_nll(log, params, t_split, log.horizon, first_event=first) / (len(log) - first)
    except InfeasibleLikelihoodError:
        return float("inf")


def pearson(a: CurveSeries, b: CurveSeries) -> float:
    """Sample Pearson correlation over pairwise-present grid points.

    NaN when fewer than two shared points or either side has zero variance.
    """
    if not np.array_equal(a.grid, b.grid):
        raise ValueError("curves must share the same grid")
    mask = ~(np.isnan(a.values) | np.isnan(b.values))
    x, y = a.values[mask], b.values[mask]
    if x.size < 2:
        return float("nan")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def inv_l1(a: CurveSeries, b: CurveSeries) -> float:
    """1 / (1 + Riemann l1 distance); 1 for identical curves."""
    if not np.array_equal(a.grid, b.grid):
        raise ValueError("curves must share the same grid")
    grid = a.grid
    if grid.size == 0:
        return 1.0
    widths = np.empty_like(grid)
    if grid.size > 1:
        widths[1:] = np.diff(grid)
        widths[0] = widths[1]
    else:
        widths[0] = 1.0
    diff = np.abs(a.values - b.values)
    mask = ~np.isnan(diff)
    return float(1.0 / (1.0 + (diff[mask] * widths[mask]).sum()))


def market_share(log: EventLog, grid) -> list:
    """Cumulative per-product share N^p(0, t] / sum_q N^q(0, t] on a time grid.

    NaN wherever no event has happened yet.  Returns one CurveSeries per
    product.
    """
    grid = np.asarray(grid, dtype=float)
    total = np.searchsorted(log.times, grid, side="right").astype(float)
    out = []
    for p in range(log.n_products):
        t_p = log.times[log.products == p]
        counts = np.searchsorted(t_p, grid, side="right").astype(float)
        values = np.where(total > 0, counts / np.maximum(total, 1.0), np.nan)
        out.append(CurveSeries(grid=grid, values=values, label=f"product_{p}"))
    return out


def _bin_edges(horizon: float, bin_width: float) -> np.ndarray:
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_full = int(math.floor(horizon / bin_width + 1e-12))
    edges = [i * bin_width for i in range(n_full + 1)]
    if edges[-1] < horizon:
        edges.append(horizon)
    if len(edges) < 2:
        edges = [0.0, horizon]
    return np.asarray(edges)


def binned_intensity(log: EventLog, bin_width: float, by_product: bool = False):
    """Event counts per bin divided by bin width (the empirical intensity).

    The last partial bin is normalized by its true width.  With
    `by_product`, returns one CurveSeries per product whose values sum to
    the pooled series exactly.
    """
    edges = _bin_edges(log.horizon, bin_width)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    per_product = []
    for p in range(log.n_products):
        counts, _ = np.histogram(log.times[log.products == p], bins=edges)
        per_product.append(
            CurveSeries(grid=centers, values=counts / widths, label=f"product_{p}")
        )
    if by_product:
        return per_product
    total = np.sum([s.values for s in per_product], axis=0)
    return CurveSeries(grid=centers, values=total, label="all_products")


def rescaled_interevent_times(log: EventLog, params: ModelParams) -> np.ndarray:
    """Integral of the total intensity over each interevent gap of the pooled log.

    Under the generating model these are iid Exponential(1) by the random
    time-change theorem.  The excitation of the total intensity is one
    scalar S(t) = sum_i r_{u_i} exp(-(t - t_i)) over past events, where
    r_u = sum_v alpha[u, v] is the event user's total outgoing influence.
    """
    mu_total = float(params.mu_user.sum())
    jumps = params.alpha.sum(axis=1)[log.users].tolist()
    gaps = []
    excite = 0.0
    prev = 0.0
    for t, r in zip(log.times.tolist(), jumps):
        decay = math.exp(-(t - prev))
        gaps.append(mu_total * (t - prev) + excite * (1.0 - decay))
        excite = excite * decay + r
        prev = t
    return np.asarray(gaps)


def compare_models(
    real_test: EventLog,
    generated: list[tuple[str, EventLog]],
    bin_width: float,
) -> list[CurveScoreRow]:
    """Score each generated stream against the real one, per product and pooled."""
    real_per_product = binned_intensity(real_test, bin_width, by_product=True)
    real_pooled = binned_intensity(real_test, bin_width)
    rows = []
    for label, gen in generated:
        if (
            gen.horizon != real_test.horizon
            or gen.n_users != real_test.n_users
            or gen.n_products != real_test.n_products
        ):
            raise ValueError(f"generated log '{label}' does not match the real log's frame")
        gen_per_product = binned_intensity(gen, bin_width, by_product=True)
        gen_pooled = binned_intensity(gen, bin_width)
        for p in range(real_test.n_products):
            rows.append(
                CurveScoreRow(
                    model=label,
                    product=p,
                    pearson=pearson(real_per_product[p], gen_per_product[p]),
                    inv_l1=inv_l1(real_per_product[p], gen_per_product[p]),
                    n_events_real=int((real_test.products == p).sum()),
                    n_events_generated=int((gen.products == p).sum()),
                )
            )
        rows.append(
            CurveScoreRow(
                model=label,
                product=None,
                pearson=pearson(real_pooled, gen_pooled),
                inv_l1=inv_l1(real_pooled, gen_pooled),
                n_events_real=len(real_test),
                n_events_generated=len(gen),
            )
        )
    return rows
