"""Exact log-likelihood of a log's time window, for both mark models.

The NLL is a compensator minus a sum of event terms log lambda + log f,
whatever the mark model.  `_event_loglik` scores an event-by-product
tendency matrix for both mark models, for a time window (`window_nll`);
its soft-max term (`_softmax_loglik`) also scores a group of users'
cached features (`fitting`), one sum per user.  A window's
tendencies come in blocks of events (`_window_tendencies`): the history
before the window is absorbed in closed form (`model.decayed_counts`),
and within a block the events see each other through one kernel matrix.
That block step (`_block_sweep`) is shared with the sampler's soft-max
draw, so scoring and sampling follow one tie rule.
"""

from __future__ import annotations

import math

import numpy as np

from .data import EventLog
from .model import _UNDERFLOW, MarkModel, ModelParams, SoftMaxMark, check_dimensions, decayed_counts


class InfeasibleLikelihoodError(ValueError):
    """Zero (or negative) intensity / mark density at an observed event."""


BLOCK = 64  # events per block of `_window_tendencies` and `fitting._user_snapshots`


def _kernel_mass(log: EventLog, t_start: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """The source of every event before t_end and its kernel mass in the
    window [t_start, t_end], exp(-max(t_start - t, 0)) - exp(-(t_end - t)),
    leaving out the events before t_start - _UNDERFLOW: both of their terms
    are exactly 0.0 (`model._UNDERFLOW`), and so is their mass."""
    lo, hi = np.searchsorted(log.times, [t_start - _UNDERFLOW, t_end], side="left")
    ts = log.times[lo:hi]
    return log.users[lo:hi], np.exp(-np.maximum(t_start - ts, 0.0)) - np.exp(-(t_end - ts))


def _observed_cells(products: np.ndarray, n_products: int) -> np.ndarray:
    """Flat index i M + products[i] of each event's observed cell in a K x M
    event-by-product matrix."""
    return np.arange(products.size) * n_products + products


def _event_loglik(
    g: np.ndarray, observed: np.ndarray, mark: MarkModel
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Sum over events of log lambda + log f(product), the intensities, and
    the soft-max mark probabilities (None under linear marks).

    Row i of the K x M matrix g holds the tendencies at event i, whose
    observed cell is g.flat[observed[i]] (`_observed_cells`).  Under linear
    marks f = g_p / lambda, so the event term is log g_p.
    """
    lam = g.sum(axis=1)
    if (lam <= 0).any():
        raise InfeasibleLikelihoodError("zero intensity at an observed event")
    if isinstance(mark, SoftMaxMark):
        loglik, f = _softmax_loglik(g, lam, observed, mark.beta)
        return float(loglik), lam, f
    g_obs = g.take(observed)
    if (g_obs <= 0).any():
        raise InfeasibleLikelihoodError("zero mark density at an observed event")
    return float(np.log(g_obs).sum()), lam, None


def _softmax_loglik(
    g: np.ndarray, lam: np.ndarray, observed: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the events axis of log lambda + log f(product) under
    soft-max marks of sharpness beta, and the mark probabilities f.

    g is (..., K, M) and lam (..., K) its positive intensities; observed
    indexes each event's observed cell in g's flat layout, so the sums are
    one per leading index (a float array of shape g.shape[:-2]).
    log f_p = beta (g_p - gmax) - log norm, so the event term takes one log
    per event, of lam / norm.
    """
    gmax = g.max(axis=-1)
    expz = np.exp(beta * (g - gmax[..., None]))
    norm = expz.sum(axis=-1)
    g_obs = g.take(observed).reshape(lam.shape)
    loglik = np.log(lam / norm).sum(axis=-1) + beta * (g_obs.sum(axis=-1) - gmax.sum(axis=-1))
    return loglik, expz / norm[..., None]


def _block_starts(times: np.ndarray, lo: int, last: int) -> list[int]:
    """Starts of the scoring blocks of the events [lo, last), each a tie-run start.

    `lo` and `last` must fall between tie runs.  A block starts on the tie
    run of every BLOCK-th event, and a run longer than BLOCK also ends its
    block, so every block holds fewer than 2 * BLOCK events or one tie run.
    """
    grid = times[lo:last:BLOCK]
    left = np.searchsorted(times, grid, side="left")
    right = np.searchsorted(times, grid, side="right")
    long_run_ends = right[(right - left > BLOCK) & (right < last)]
    return sorted({*left.tolist(), *long_run_ends.tolist()})  # np.unique would import numpy.ma


def _block_sweep(alpha, b, t_b, times, users, products, lo, last):
    """The blocks of `_block_starts` over the events [lo, last), each with
    the excitation of every event before it.

    `b` holds the decayed counts at time t_b <= times[lo] of the events
    before `lo`.  Yields (s, e, excite, kernel) for each block [s, e):
    excite[i] = exp(-(t_i - t_b)) alpha[:, u_i]^T B_b, with B_b the counts
    of every event before the block at t_b, the given time for the first
    block and the block's first time after it; and kernel[i, k] =
    alpha[u_k, u_i] exp(-(t_i - t_k)) for t_k < t_i, else 0, so tied events
    never see each other (None for a block of one tie run).  The block's
    tendencies are mu[u] + excite + kernel @ onehot(products[s:e]).  B_b is
    carried on with products[s:e] as they stand when the generator resumes,
    so a caller may draw them in between.

    Each block gathers its events' incoming influence once, as rows
    alpha^T[u_i] of one contiguous copy of alpha^T, which both terms read:
    a column gather of alpha strides through memory for every element.
    That copy is N^2 floats of transient memory per call, to revisit with
    a sparse influence support (ROADMAP item 8).
    """
    m = b.shape[1]
    alpha_t = np.ascontiguousarray(alpha.T)
    starts = _block_starts(times, lo, last)
    for s, e in zip(starts, starts[1:] + [last]):
        t, u = times[s:e], users[s:e]
        rows = alpha_t[u]  # rows[i, j] = alpha[j, u_i]
        excite = np.exp(-(t - t_b))[:, None] * (rows @ b)
        kernel = None
        if t[-1] > t[0]:
            dt = t[:, None] - t
            kernel = np.exp(-np.abs(dt))  # |dt| cannot overflow; dt <= 0 is zeroed
            kernel[dt <= 0] = 0.0
            kernel *= rows[:, u]
        yield s, e, excite, kernel
        if e < last:
            carried = np.bincount(u * m + products[s:e], np.exp(-(times[e] - t)), minlength=b.size)
            b = b * math.exp(-(times[e] - t_b)) + carried.reshape(b.shape)
            t_b = times[e]


def _window_tendencies(log: EventLog, params: ModelParams, first: int, last: int) -> np.ndarray:
    """Tendencies g (last - first, M) at the events [first, last), whole history seen.

    `last` must fall between tie runs.  The history before the tie run of
    event `first` is absorbed in closed form, then the events from that
    run's start on are scored in the blocks of `_block_sweep`, which the
    sampler's soft-max draw shares.
    """
    m = params.n_products
    if first == last:
        return np.empty((0, m))
    times, users, products = log.times, log.users, log.products
    lo = int(np.searchsorted(times, times[first], side="left"))
    b = decayed_counts(log, times[lo], 0, lo)
    onehot = np.eye(m)
    g = np.empty((last - lo, m))
    for s, e, excite, kernel in _block_sweep(params.alpha, b, times[lo], times, users, products, lo, last):
        g[s - lo : e - lo] = params.mu[users[s:e]] + excite
        if kernel is not None:
            g[s - lo : e - lo] += kernel @ onehot[products[s:e]]
    return g[first - lo :]


def window_nll(
    log: EventLog, params: ModelParams, t_start: float, t_end: float, first_event: int | None = None
) -> float:
    """NLL of the events in (t_start, t_end] with full preceding history.

    Events exactly at t_start belong to the earlier window, at t_start = 0
    too, so adjacent windows add up exactly to the whole-log NLL.
    `first_event` instead scores the events from that index on: 0 for the
    whole log with its time-0 events, or a split that falls inside the
    events at t_start (a train log and a test log both holding events at
    the train horizon).  The events before it must be at or before t_start
    and those from it on at or after t_start.
    Supports both mark models.  Raises ValueError unless the log has the
    parameters' users and products.  The history before the window costs
    one vectorized pass, and each scored event O(BLOCK * (N + M)).
    """
    check_dimensions(log, params)
    if not 0 <= t_start <= t_end <= log.horizon:
        raise ValueError("window must satisfy 0 <= t_start <= t_end <= horizon")
    times = log.times
    last = int(np.searchsorted(times, t_end, side="right"))
    if first_event is None:
        first = int(np.searchsorted(times, t_start, side="right"))
    else:
        first = first_event
        if not (
            0 <= first <= last
            and (first == 0 or times[first - 1] <= t_start)
            and (first == len(times) or times[first] >= t_start)
        ):
            raise ValueError("first_event must split the log at t_start")
    g = _window_tendencies(log, params, first, last)
    event_ll = _event_loglik(g, _observed_cells(log.products[first:last], log.n_products), params.mark)[0]
    # compensator over [t_start, t_end], summed over all users
    comp = (t_end - t_start) * params.mu_user.sum()
    sources, mass = _kernel_mass(log, t_start, t_end)
    comp += float(params.alpha.sum(axis=1)[sources] @ mass)
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll)


def total_nll(log: EventLog, params: ModelParams) -> float:
    """NLL of the whole log under either mark model."""
    return window_nll(log, params, 0.0, log.horizon, first_event=0)
