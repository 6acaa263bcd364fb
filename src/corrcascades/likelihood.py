"""Exact log-likelihood, its per-user decomposition, gradient and Hessian.

The NLL is a compensator minus a sum of event terms log lambda + log f,
whatever the mark model.  One tie-aware sweep (`model.tie_groups`) yields
the decayed counts every event sees, and `_event_loglik` scores the
resulting event-by-product tendency matrix for both mark models, for a
time window (`window_nll`) and for one user's cached features alike.

The likelihood of a log factorizes over users, so fitting works on one
user's parameters at a time, packed as [alpha_col | mu_row].  Per-user
evaluations (`user_nll`, `user_nll_gradient`) run off that user's
decayed-count features, built for every user in one sweep
(`build_all_features`), so solver iterations never rescan the event
history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventLog
from .model import MarkModel, ModelParams, SoftMaxMark, check_dimensions, tie_groups


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


class EventFeatures:
    """Decayed-count snapshots at one user's event times.

    snapshots[:, i, :] is the N x M matrix B(t_i) of decayed counts strictly
    before the user's i-th event time t_i (ties at t_i excluded), and
    `b_flat` views the snapshots as one N x (K*M) matrix.  b_totals[i] holds
    the per-source row sums of B(t_i), and excite_integrals[j] = sum over
    events of source j before T of (1 - exp(-(T - t_i))), the source-j
    slice of the compensator.  No slot views another, so pickling writes
    each array once.
    """

    __slots__ = (
        "snapshots",
        "b_totals",
        "products",
        "excite_integrals",
        "horizon",
        "n_users",
        "n_products",
        "_b_observed",
        "_product_counts",
    )

    def __init__(self, snapshots, products, excite_integrals, horizon):
        self.snapshots = snapshots
        self.n_users, k, self.n_products = snapshots.shape
        self.products = products
        self.excite_integrals = excite_integrals
        self.horizon = horizon
        # theta-independent aggregates reused every solver iteration
        self.b_totals = np.ascontiguousarray(snapshots.sum(axis=2).T)
        self._b_observed = snapshots[:, np.arange(k), products].sum(axis=1)
        self._product_counts = np.bincount(products, minlength=self.n_products).astype(float)

    @property
    def n_events(self) -> int:
        return self.products.size

    @property
    def b_flat(self) -> np.ndarray:
        """The snapshots as an N x (K*M) matrix (a view)."""
        return self.snapshots.reshape(self.n_users, self.n_events * self.n_products)


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


def _tendency_matrix(features: EventFeatures, alpha_col: np.ndarray, mu_row: np.ndarray) -> np.ndarray:
    """g_u^q(t_i) for every event i (rows) and product q (columns)."""
    k, m = features.n_events, features.n_products
    return mu_row[None, :] + (alpha_col @ features.b_flat).reshape(k, m)


def _event_loglik(g: np.ndarray, products: np.ndarray, mark: MarkModel) -> tuple[float, np.ndarray]:
    """Sum over events of log lambda + log f(product), and the intensities.

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
        lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
        return float(np.log(lam).sum() + mark.beta * g_obs.sum() - lse.sum()), lam
    if np.any(g_obs <= 0):
        raise InfeasibleLikelihoodError("zero mark density at an observed event")
    return float(np.log(g_obs).sum()), lam


def _eval_features(features, alpha_col, mu_row, beta):
    """(nll, tendency matrix g, intensities lam); g/lam are None for empty logs."""
    comp = features.horizon * mu_row.sum() + alpha_col @ features.excite_integrals
    if features.n_events == 0:
        return float(comp), None, None
    g = _tendency_matrix(features, alpha_col, mu_row)
    event_ll, lam = _event_loglik(g, features.products, SoftMaxMark(beta))
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll), g, lam


def _mark_probabilities(beta, g):
    """Soft-max mark probabilities f = softmax(beta * g) of every event (rows)."""
    z = beta * g
    z = z - z.max(axis=1, keepdims=True)
    f = np.exp(z)
    f /= f.sum(axis=1, keepdims=True)
    return f


def _gradient_from_eval(features, beta, g, lam):
    """Gradient of the per-user NLL given the cached evaluation of g and lam."""
    m = features.n_products
    grad_alpha = features.excite_integrals.copy()
    grad_mu = np.full(m, features.horizon)
    if features.n_events:
        f = _mark_probabilities(beta, g)
        inv_lam = 1.0 / lam
        grad_mu += -inv_lam.sum() - beta * features._product_counts + beta * f.sum(axis=0)
        grad_alpha += (
            -inv_lam @ features.b_totals
            - beta * features._b_observed
            + beta * (features.b_flat @ f.ravel())
        )
    return np.concatenate([grad_alpha, grad_mu])


def _hessian_from_eval(features, beta, g, lam):
    """Exact per-user NLL Hessian given the cached evaluation of g and lam.

    Only the -log lambda and log-sum-exp terms are curved.  With the event
    Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I] ((N+M) x M), the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T,
    with f_i the soft-max mark probabilities at event i.  As f_i sums to 1,
    diag(f_i) - f_i f_i^T = S_i S_i^T with S_i = (I - f_i 1^T) diag(sqrt f_i),
    so the Hessian is the Gram matrix X X^T of the (N+M) x K(M+1) matrix X
    whose columns for event i are beta D_i S_i and D_i 1 / lambda_i, and
    one symmetric product (BLAS syrk) builds it.
    """
    n, m, k = features.n_users, features.n_products, features.n_events
    if k == 0:
        return np.zeros((n + m, n + m))
    f = _mark_probabilities(beta, g)
    scale = beta * np.sqrt(f)
    x = np.empty((n + m, k, m + 1))
    mean_b = np.einsum("jiq,iq->ji", features.snapshots, f)  # (N, K): B(t_i) f_i
    np.subtract(features.snapshots, mean_b[:, :, None], out=x[:n, :, :m])
    x[n:, :, :m] = np.eye(m)[:, None, :] - f.T[:, :, None]
    x[:, :, :m] *= scale
    x[:n, :, m] = features.b_totals.T / lam
    x[n:, :, m] = 1.0 / lam
    x = x.reshape(n + m, k * (m + 1))
    return x @ x.T


def user_nll(features: EventFeatures, theta_u: UserParams, beta: float) -> float:
    """Negative log-likelihood of one user's events under soft-max marks."""
    return _eval_features(features, theta_u.alpha_col, theta_u.mu_row, beta)[0]


def user_nll_gradient(features: EventFeatures, theta_u: UserParams, beta: float) -> np.ndarray:
    """Analytic gradient of `user_nll` in the packed [alpha_col | mu_row] layout."""
    _, g, lam = _eval_features(features, theta_u.alpha_col, theta_u.mu_row, beta)
    return _gradient_from_eval(features, beta, g, lam)


def window_nll(
    log: EventLog, params: ModelParams, t_start: float, t_end: float, first_event: int | None = None
) -> float:
    """NLL of the events in (t_start, t_end] with full preceding history.

    Events exactly at t_start belong to the earlier window except at
    t_start = 0, so adjacent windows add up exactly to the whole-log NLL.
    `first_event` instead scores the events from that index on, for a split
    that falls inside the events at t_start (a train log and a test log
    both holding events at the train horizon): the events before it must be
    at or before t_start and those from it on at or after t_start.
    Supports both mark models.  Raises ValueError unless the log has the
    parameters' users and products.
    """
    check_dimensions(log, params)
    if not 0 <= t_start <= t_end <= log.horizon:
        raise ValueError("window must satisfy 0 <= t_start <= t_end <= horizon")
    times, users = log.times, log.users
    last = int(np.searchsorted(times, t_end, side="right"))
    if first_event is None:
        first = 0 if t_start == 0.0 else int(np.searchsorted(times, t_start, side="right"))
    else:
        first = first_event
        if not (
            0 <= first <= last
            and (first == 0 or times[first - 1] <= t_start)
            and (first == len(times) or times[first] >= t_start)
        ):
            raise ValueError("first_event must split the log at t_start")
    # last falls between tie runs; first may fall inside the run at t_start
    g = np.empty((last - first, params.n_products))
    for lo, hi, b in tie_groups(log):
        if lo >= last:
            break
        if hi > first:
            lo = max(lo, first)
            us = users[lo:hi]
            g[lo - first : hi - first] = params.mu[us] + params.alpha[:, us].T @ b
    event_ll, _ = _event_loglik(g, log.products[first:last], params.mark)
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
    return window_nll(log, params, 0.0, log.horizon)
