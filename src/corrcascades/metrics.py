"""Evaluation criteria: parameter-recovery errors, held-out predictive
likelihood, and curve-agreement scores between event streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventLog, concat_logs
from .likelihood import window_nll
from .model import ModelParams


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


def param_mae(est: ModelParams, true: ModelParams, floor: float = 1e-6) -> float:
    """Mean relative error, denominators floored to guard near-zero truths."""
    _check_shapes(est, true)
    if floor <= 0:
        raise ValueError("floor must be positive")
    diff = np.abs(
        np.concatenate([(est.alpha - true.alpha).ravel(), (est.mu - true.mu).ravel()])
    )
    denom = np.maximum(
        np.concatenate([true.alpha.ravel(), true.mu.ravel()]), floor
    )
    return float((diff / denom).mean())


def avg_pred_loglik(train: EventLog, test: EventLog, params: ModelParams) -> float:
    """Per-event NLL of the test events conditioned on the train history.

    Scores exactly the test log's events, those at the train horizon
    included, and the compensator over [train.horizon, test.horizon].
    """
    if len(test) == 0:
        raise ValueError("test log must be nonempty")
    if test.times.size and test.times[0] < train.horizon:
        raise ValueError("test events must start at the train horizon")
    combined = concat_logs(train, test)
    nll = window_nll(combined, params, train.horizon, test.horizon, first_event=len(train))
    return nll / len(test)


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


def compare_models(
    real_test: EventLog,
    generated: list[tuple[str, EventLog]],
    bin_width: float,
) -> list[CurveScoreRow]:
    """Score each generated stream against the real one, per product and pooled."""
    from .simulate import binned_intensity

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
