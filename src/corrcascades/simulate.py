"""Exact sampling by the branching representation, with an optional regime switch.

Under the unit-rate exponential kernel the process is a forest of clusters
(Hawkes & Oakes 1974; Møller & Rasmussen 2005).  Immigrants arrive at the
baseline rates mu_u^p, each as user u with product p.  An event of user u at
time t has Poisson(r_u) children, r_u = sum_v alpha[u, v], each at t + Exp(1)
and of user v with probability alpha[u, v] / r_u.  The absorbed history acts
through its decayed counts B: its children arrive at the rate
sum_j r_j B_j exp(-(t - start)), from cell (j, q) with weight r_j B_j^q.
`_cluster` draws one whole generation at a time, truncated to the horizon,
in a few numpy calls.

The intensity lambda_u = sum_p g_u^p does not depend on past products.  A
linear mark picks p with probability g_u^p / lambda_u, the share of the
rate from product p, so a linear-mark cluster carries its root's product
through the generations, and `_cluster` hands it down.  A soft-max mark
needs the tendencies g_u(t) at every event, which come in the window
scorer's blocks (`likelihood._block_sweep`); `_softmax_products` redraws
each block's products as the fixed point of a few vectorized draws.

`_sample_regimes` runs a list of regimes, each one `ModelParams` up to an
end time, on one random stream.  The counts B at a time summarize
everything before it, so each regime starts from the counts the last one
ends with: `simulate` is one regime, and `run_scenario`, the
incentivization experiment's baseline boost and mark change, is two.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .data import EventLog, concat_logs
from .likelihood import _block_sweep
from .model import (
    ModelParams,
    SoftMaxMark,
    branching_column_sums,
    check_dimensions,
    decayed_counts,
)


class SubcriticalityWarning(UserWarning):
    """Some user's total incoming influence is >= 1, so the cheap sufficient
    check for stationarity fails: the cascade may explode, or may not (the
    spectral radius of alpha decides)."""


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    seed: int
    initial_history: EventLog | None = None
    max_events: int = 10_000_000

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("max_events", self.max_events)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        # NaN passes every comparison, so finiteness is checked explicitly
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _check_subcritical(params: ModelParams) -> None:
    rho = branching_column_sums(params).max() if params.n_users else 0.0
    if rho >= 1.0:
        warnings.warn(
            f"max incoming influence {rho:.3f} >= 1: simulation may not be stationary",
            SubcriticalityWarning,
            stacklevel=3,
        )


# the largest rate numpy's Poisson draws accept
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def _row_picker(weights: np.ndarray):
    """Vectorized categorical draws from the rows of a nonnegative matrix.

    `pick(rows, v)` returns, for each row index and uniform v in [0, 1), a
    column with probability weights[row, col] / row sum.  The normalized
    cumulative rows, each offset by its row index, form one nondecreasing
    array, so all draws are one `searchsorted`; a draw that rounding pushes
    past its row's end is clamped to the row's last positive column.
    """
    n, m = weights.shape
    cum = weights.cumsum(axis=1)
    total = cum[:, -1:]
    cum = np.divide(cum, total, out=np.ones_like(cum), where=total > 0)
    flat = (cum + np.arange(n)[:, None]).ravel()
    last = m - 1 - np.argmax(weights[:, ::-1] > 0, axis=1)

    def pick(rows, v):
        cols = np.searchsorted(flat, rows + v, side="right") - rows * m
        return np.minimum(cols, last[rows])

    return pick


def _keep_earliest(times, users, products, lo, cap):
    """The `cap` earliest events, in their order, and how many precede `lo`.

    A descendant is never earlier than its ancestors, and a stable sort
    ranks a tied parent first, so every kept event's ancestors are kept.
    """
    keep = np.zeros(times.size, dtype=bool)
    keep[np.argsort(times, kind="stable")[:cap]] = True
    return times[keep], users[keep], products[keep], int(keep[:lo].sum())


def _cluster(mu, alpha, b, start, horizon, rng, cap: int):
    """Times, users and linear-mark products of the events on (start, horizon].

    An immigrant draws its user and product together from the cells of
    `mu`; a child of history cell (j, q) carries q, and every offspring
    its parent's product.  Returns the events sorted by time, and whether
    events beyond the `cap` earliest were dropped.
    """
    m = b.shape[1]
    r = alpha.sum(axis=1)
    target = _row_picker(alpha)

    # immigrants: a Poisson count in integrated-baseline time, of which
    # only the first `cap` order statistics are drawn
    rate = mu.sum(axis=1).sum()
    mass = rate * max(horizon - start, 0.0)
    if mass <= _POISSON_LAM_MAX:
        n_imm = int(rng.poisson(mass))
        k = min(n_imm, cap)
        head = rng.standard_exponential(k).cumsum()
        x = head * (mass / ((head[-1] if k else 0.0) + rng.standard_gamma(n_imm + 1 - k)))
        np.minimum(x, np.nextafter(mass, 0.0), out=x)  # rounding must not reach the end
    else:  # past numpy's Poisson range: the first cap + 1 unit-rate arrivals, exactly
        x = rng.standard_exponential(cap + 1).cumsum()
        n_imm = int(np.searchsorted(x, mass))  # cap + 1 when the cap binds
        k = min(n_imm, cap)
        x = x[:k]
    imm_times = start + x / rate
    imm_cells = _row_picker(mu.reshape(1, -1))(np.zeros(k, dtype=np.int64), rng.random(k))

    # children of the history, sourced by cell (j, q) with weight r_j B_j^q
    w = (r[:, None] * b).ravel()
    reach = -math.expm1(-max(horizon - start, 0.0))
    n_hist = int(rng.poisson(w.sum() * reach))
    cells = _row_picker(w[None, :])(np.zeros(n_hist, dtype=np.int64), rng.random(n_hist))
    hist_times = start - np.log1p(-rng.random(n_hist) * reach)
    hist_users = target(cells // m, rng.random(n_hist))

    times = np.clip(
        np.concatenate([imm_times, hist_times]), np.nextafter(start, np.inf), horizon
    )
    users = np.concatenate([imm_cells // m, hist_users])
    products = np.concatenate([imm_cells, cells]) % m
    exhausted = n_imm > cap
    lo = 0  # the newest generation is [lo, times.size)
    while True:
        if times.size > cap:
            times, users, products, lo = _keep_earliest(times, users, products, lo, cap)
            exhausted = True
        reach = -np.expm1(times[lo:] - horizon)
        parents = np.repeat(np.arange(lo, times.size), rng.poisson(r[users[lo:]] * reach))
        if parents.size == 0:
            break
        delays = -np.log1p(-rng.random(parents.size) * reach[parents - lo])
        child_times = np.minimum(times[parents] + delays, horizon)
        child_users = target(users[parents], rng.random(parents.size))
        lo = times.size
        times = np.concatenate([times, child_times])
        users = np.concatenate([users, child_users])
        products = np.concatenate([products, products[parents]])

    order = np.argsort(times, kind="stable")
    return times[order], users[order], products[order], exhausted


def _softmax_draw(g: np.ndarray, beta: float, v: np.ndarray) -> np.ndarray:
    """Inverse-CDF soft-max draws, one per column of the M x L tendencies g.

    Column i draws the least p with v_i * sum(w) < cumsum(w)[p] for the
    weights w = exp(beta (g_i - max g_i)); a draw that rounding pushes
    past the total is clamped to the last positive weight, as in
    `_row_picker`.  Products run down the columns because reductions over
    a few long rows cost a fraction of those over many short ones.
    """
    m = g.shape[0]
    w = np.exp(beta * (g - g.max(axis=0)))
    cum = w.cumsum(axis=0)
    picks = (cum <= v * cum[-1]).sum(axis=0)
    if picks.max() == m:
        picks = np.minimum(picks, m - 1 - np.argmax(w[::-1] > 0, axis=0))
    return picks


def _softmax_products(beta, mu, alpha, b, start, times, users, v) -> np.ndarray:
    """Soft-max products of the events from `_cluster` under baselines mu.

    The uniform v[i] decides event i's product.  The events go in the
    blocks of `likelihood._block_sweep`, the window scorer's own, and each
    block's products are found by fixed-point passes: the first draws from
    the baselines and the carried counts alone, and each later one adds
    the kernel term of the current guess, until no product changes.  An
    event depends only on earlier events of its block, so the fixed point
    is the sequential draw, reached in at most block length + 1 passes.
    """
    products = np.zeros(times.size, dtype=np.int64)
    onehot = np.eye(mu.shape[1])
    for s, e, excite, kernel in _block_sweep(alpha, b, start, times, users, products, 0, times.size):
        block = products[s:e]
        g = (mu[users[s:e]] + excite).T.copy()
        block[:] = _softmax_draw(g, beta, v[s:e])
        if kernel is None:
            continue  # one tie run: no event of the block sees another
        for _ in range(e - s):
            guess = _softmax_draw(g + onehot[:, block] @ kernel.T, beta, v[s:e])
            if np.array_equal(guess, block):
                break
            block[:] = guess
    return products


def _sample_regimes(regimes: list[tuple[ModelParams, float]], config: SimConfig) -> EventLog:
    """The events on (start, horizon] under each (params, end) regime in turn.

    start is 0, or the horizon of `config.initial_history`, whose events
    enter through their decayed counts B there (ValueError unless it has
    the parameters' users and products).  Each regime draws
    (start, max(end, start)] with what is left of the event cap, then
    decays B to that end, adds the new events and hands both on.  The log
    ends at `config.horizon`; a binding cap warns once.
    """
    first = regimes[0][0]
    history = config.initial_history
    b, start = np.zeros(first.mu.shape), 0.0
    if history is not None:
        check_dimensions(history, first)
        b, start = decayed_counts(history, history.horizon, 0, len(history)), history.horizon
    rng = np.random.default_rng(config.seed)
    log, exhausted = EventLog([], start, *b.shape), False
    for params, end in regimes:
        end = max(end, start)
        cap = config.max_events - len(log)
        times, users, products, capped = _cluster(params.mu, params.alpha, b, start, end, rng, cap)
        if isinstance(params.mark, SoftMaxMark):
            v = rng.random(times.size)
            products = _softmax_products(params.mark.beta, params.mu, params.alpha, b, start, times, users, v)
        part = EventLog.from_arrays(times, users, products, end, *b.shape)
        b = b * math.exp(-(end - start)) + decayed_counts(part, end, 0, len(part))
        log, exhausted, start = concat_logs(log, part), exhausted or capped, end
    log = log.with_horizon(config.horizon)
    if exhausted:
        warnings.warn(
            f"event cap {config.max_events} exhausted at t={log.times[-1]:.3f}; log is partial",
            RuntimeWarning,
            stacklevel=3,
        )
    return log


def simulate(params: ModelParams, config: SimConfig) -> EventLog:
    """Sample the process on [0, horizon]; returns only newly generated events.

    With `initial_history` set, its events are absorbed at their recorded
    times first and generation starts at the history's horizon.  The
    history must have the parameters' users and products (ValueError
    otherwise).  When the process has more than `max_events` events, the
    earliest `max_events` are kept, with a RuntimeWarning.
    """
    _check_subcritical(params)
    return _sample_regimes([(params, config.horizon)], config)


def run_scenario(before: ModelParams, after: ModelParams, switch_time: float, config: SimConfig) -> EventLog:
    """Sample under `before` up to `switch_time` and under `after` from then on.

    The two parameter sets must have the same users and products
    (ValueError otherwise); the incentivization experiment's `after` has
    boosted baselines and another mark.  They are two regimes of
    `_sample_regimes`: the first covers (start, s] under `before`, where
    start is as in `simulate` and s is the later of `switch_time` and
    start, and draws exactly what `simulate(before, ...)` draws with
    `horizon=switch_time` and the same seed; the second covers
    (s, horizon] under `after`.  As in `simulate`, a binding event cap
    keeps the earliest `max_events` events, with a RuntimeWarning.
    """
    if not 0 < switch_time < config.horizon:
        raise ValueError("switch_time must fall inside (0, horizon)")
    if after.mu.shape != before.mu.shape:
        raise ValueError(
            f"after has {after.n_users} users and {after.n_products} products, before has "
            f"{before.n_users} and {before.n_products}"
        )
    _check_subcritical(before)
    if after.alpha is not before.alpha:
        _check_subcritical(after)
    return _sample_regimes([(before, switch_time), (after, config.horizon)], config)
