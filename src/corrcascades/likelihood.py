"""Exact log-likelihood, its per-user decomposition, gradient and Hessian.

The NLL is a compensator minus a sum of event terms log lambda + log f,
whatever the mark model.  `_event_loglik` scores an event-by-product
tendency matrix for both mark models, for a time window (`window_nll`)
and for one user's cached features alike.  A window's tendencies come in
blocks of events (`_window_tendencies`): the history before the window
is absorbed in closed form (`model.decayed_counts`), and within a block
the events see each other through one kernel matrix.  The features come
from the tie-aware sweep (`model.tie_groups`), which yields the decayed
counts every event sees.

The likelihood of a log factorizes over users, so fitting works on one
user's parameters at a time, packed as [alpha_col | mu_row].  Per-user
evaluations (`user_nll`, `user_nll_gradient`) run off that user's
decayed-count features, built for every user in one sweep
(`build_all_features`), so solver iterations never rescan the event
history.  Both derivatives come from the event Jacobian
D_i = dg(t_i)/dtheta = [B(t_i); I]: the gradient is one product of the
snapshots with per-event weights, and the Hessian is returned as a factor
X with Hessian X X^T, of which the solver forms only the free block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventLog
from .model import MarkModel, ModelParams, SoftMaxMark, check_dimensions, decayed_counts, tie_groups


class InfeasibleLikelihoodError(ValueError):
    """Zero (or negative) intensity / mark density at an observed event."""


@dataclass(frozen=True)
class UserParams:
    """One user's parameters: incoming influence column and baseline row."""

    alpha_col: np.ndarray  # (N,) influence of every source on this user
    mu_row: np.ndarray  # (M,) per-product baseline

    def __post_init__(self):
        a = np.asarray(self.alpha_col, dtype=float)
        m = np.asarray(self.mu_row, dtype=float)
        if a.ndim != 1 or m.ndim != 1:
            raise ValueError("alpha_col and mu_row must be vectors")
        if np.any(a < 0) or np.any(m < 0):
            raise ValueError("parameters must be nonnegative")
        object.__setattr__(self, "alpha_col", a)
        object.__setattr__(self, "mu_row", m)


@dataclass(slots=True, eq=False)
class EventFeatures:
    """Decayed-count snapshots at one user's event times.

    snapshots[:, i, :] is the N x M matrix B(t_i) of decayed counts strictly
    before the user's i-th event time t_i (ties at t_i excluded), products[i]
    is that event's product, and excite_integrals[j] = sum over events of
    source j before T of (1 - exp(-(T - t_i))), the source-j slice of the
    compensator.  With the event Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I],
    these four fields give the NLL, its gradient and its Hessian factor.
    """

    snapshots: np.ndarray  # (N, K, M)
    products: np.ndarray  # (K,)
    excite_integrals: np.ndarray  # (N,)
    horizon: float

    @property
    def n_users(self) -> int:
        return self.snapshots.shape[0]

    @property
    def n_events(self) -> int:
        return self.products.size

    @property
    def n_products(self) -> int:
        return self.snapshots.shape[2]


def build_all_features(log: EventLog) -> dict[int, EventFeatures]:
    """One sweep over the log producing every user's EventFeatures."""
    n, m = log.n_users, log.n_products
    users = log.users.tolist()
    snapshots = [np.empty((n, k, m)) for k in np.bincount(log.users, minlength=n).tolist()]
    filled = [0] * n
    for lo, hi, b in tie_groups(log):
        for i in range(lo, hi):
            u = users[i]
            snapshots[u][:, filled[u], :] = b
            filled[u] += 1
    excite = np.zeros(n)
    past = log.times < log.horizon
    np.add.at(excite, log.users[past], 1.0 - np.exp(-(log.horizon - log.times[past])))
    return {
        u: EventFeatures(snapshots[u], log.products[log.users == u], excite, log.horizon)
        for u in range(n)
    }


def _event_loglik(
    g: np.ndarray, products: np.ndarray, mark: MarkModel
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Sum over events of log lambda + log f(product), the intensities, and
    the soft-max mark probabilities (None under linear marks).

    Row i of the K x M matrix g holds the tendencies at event i, whose
    product is products[i].  Under linear marks f = g_p / lambda, so the
    event term is log g_p.
    """
    lam = g.sum(axis=1)
    if np.any(lam <= 0):
        raise InfeasibleLikelihoodError("zero intensity at an observed event")
    g_obs = g[np.arange(products.size), products]
    if isinstance(mark, SoftMaxMark):
        z = mark.beta * g
        zmax = z.max(axis=1)
        expz = np.exp(z - zmax[:, None])
        norm = expz.sum(axis=1)
        lse = zmax + np.log(norm)
        loglik = float(np.log(lam).sum() + mark.beta * g_obs.sum() - lse.sum())
        return loglik, lam, expz / norm[:, None]
    if np.any(g_obs <= 0):
        raise InfeasibleLikelihoodError("zero mark density at an observed event")
    return float(np.log(g_obs).sum()), lam, None


def _eval_features(features, alpha_col, mu_row, beta):
    """(nll, soft-max mark probabilities f, intensities lam) of one user's events."""
    n, k, m = features.snapshots.shape
    comp = features.horizon * mu_row.sum() + alpha_col @ features.excite_integrals
    g = mu_row + (alpha_col @ features.snapshots.reshape(n, k * m)).reshape(k, m)
    event_ll, lam, f = _event_loglik(g, features.products, SoftMaxMark(beta))
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll), f, lam


def _gradient_from_eval(features, beta, f, lam):
    """Gradient of the per-user NLL given the cached evaluation of f and lam.

    The event terms of the NLL have gradient -sum_i D_i w_i, with event
    weights w_i = 1/lambda_i 1 + beta (e_{p_i} - f_i), so the gradient is
    the compensator slope minus one product of the snapshots with w (and
    minus w summed over events for the baselines).
    """
    n, k, m = features.snapshots.shape
    w = -beta * f
    w[np.arange(k), features.products] += beta
    w += (1.0 / lam)[:, None]
    grad_alpha = features.excite_integrals - features.snapshots.reshape(n, k * m) @ w.ravel()
    return np.concatenate([grad_alpha, features.horizon - w.sum(axis=0)])


def _hessian_from_eval(features, beta, f, lam):
    """Factor X of the exact per-user NLL Hessian X X^T, given f and lam.

    Only the -log lambda and log-sum-exp terms are curved, so the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T.
    As f_i sums to 1, diag(f_i) - f_i f_i^T = S_i S_i^T with
    S_i = (I - f_i 1^T) diag(sqrt f_i), so the Hessian is X X^T for the
    (N+M) x K(M+1) matrix X whose columns for event i are beta D_i S_i and
    D_i 1 / lambda_i.  The solver forms only the block of X X^T it needs.
    """
    snapshots = features.snapshots
    n, k, m = snapshots.shape
    x = np.empty((n + m, k, m + 1))
    mean_b = np.einsum("jiq,iq->ji", snapshots, f)  # (N, K): B(t_i) f_i
    np.subtract(snapshots, mean_b[:, :, None], out=x[:n, :, :m])
    x[n:, :, :m] = np.eye(m)[:, None, :] - f.T[:, :, None]
    x[:, :, :m] *= beta * np.sqrt(f)
    x[:n, :, m] = snapshots.sum(axis=2) / lam
    x[n:, :, m] = 1.0 / lam
    return x.reshape(n + m, k * (m + 1))


def user_nll(features: EventFeatures, theta_u: UserParams, beta: float) -> float:
    """Negative log-likelihood of one user's events under soft-max marks."""
    return _eval_features(features, theta_u.alpha_col, theta_u.mu_row, beta)[0]


def user_nll_gradient(features: EventFeatures, theta_u: UserParams, beta: float) -> np.ndarray:
    """Analytic gradient of `user_nll` in the packed [alpha_col | mu_row] layout."""
    _, g, lam = _eval_features(features, theta_u.alpha_col, theta_u.mu_row, beta)
    return _gradient_from_eval(features, beta, g, lam)


BLOCK = 64  # events per block of `_window_tendencies`


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


def _window_tendencies(log: EventLog, params: ModelParams, first: int, last: int) -> np.ndarray:
    """Tendencies g (last - first, M) at the events [first, last), whole history seen.

    `last` must fall between tie runs.  The history before the tie run of
    event `first` is absorbed in closed form, then the events from that
    run's start on are scored in the blocks of `_block_starts`.  An event
    sees the block's start counts B_b decayed to its time, plus the earlier
    events of its own block through the kernel exp(-(t_i - t_k)) on
    t_k < t_i only, so tied events never see each other.  B_b is then
    carried to the next block's start.
    """
    m = params.n_products
    if first == last:
        return np.empty((0, m))
    times, users, products = log.times, log.users, log.products
    lo = int(np.searchsorted(times, times[first], side="left"))
    starts = _block_starts(times, lo, last)
    b = decayed_counts(log, times[lo], 0, lo)
    onehot = np.eye(m)
    g = np.empty((last - lo, m))
    for s, e in zip(starts, starts[1:] + [last]):
        t, u = times[s:e], users[s:e]
        g[s - lo : e - lo] = params.mu[u] + np.exp(-(t - t[0]))[:, None] * (params.alpha[:, u].T @ b)
        if t[-1] > t[0]:  # not one tie run, whose events see none of each other
            dt = t[:, None] - t
            # kernel[i, k] = alpha[u_k, u_i] exp(-(t_i - t_k)) for t_k < t_i, else 0
            kernel = np.exp(-dt, out=np.zeros_like(dt), where=dt > 0) * params.alpha[u, u[:, None]]
            g[s - lo : e - lo] += kernel @ onehot[products[s:e]]
        if e < last:
            b = b * math.exp(-(times[e] - t[0])) + decayed_counts(log, times[e], s, e)
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
    times, users = log.times, log.users
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
    event_ll = _event_loglik(g, log.products[first:last], params.mark)[0]
    # compensator over [t_start, t_end], summed over all users
    comp = (t_end - t_start) * params.mu_user.sum()
    mask = times < t_end
    ts = times[mask]
    row_sums = params.alpha.sum(axis=1)[users[mask]]
    comp += float(row_sums @ (np.exp(-np.maximum(t_start - ts, 0.0)) - np.exp(-(t_end - ts))))
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll)


def total_nll(log: EventLog, params: ModelParams) -> float:
    """NLL of the whole log under either mark model."""
    return window_nll(log, params, 0.0, log.horizon, first_event=0)
