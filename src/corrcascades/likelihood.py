"""Exact log-likelihood, its per-user decomposition, and the analytic gradient.

The likelihood of a log factorizes over users, so fitting works on one
user's packed parameter vector [alpha_col | mu_row] at a time.  Per-user
evaluations run off cached decayed-count features so solver iterations never
rescan the event history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EventLog
from .model import (
    DecayState,
    LinearMark,
    ModelParams,
    SoftMaxMark,
)


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

    def pack(self) -> np.ndarray:
        return np.concatenate([self.alpha_col, self.mu_row])

    @staticmethod
    def unpack(vec: np.ndarray, n_users: int, n_products: int) -> "UserParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n_users + n_products,):
            raise ValueError("packed vector has wrong length")
        return UserParams(vec[:n_users], vec[n_users:])


class EventFeatures:
    """Decayed-count snapshots at one user's event times.

    b_mats[i] is the full N x M matrix B(t_i) of decayed counts strictly
    before t_i (ties at t_i excluded), b_totals its per-source row sums, and
    excite_integrals[j] = sum over events of source j before T of
    (1 - exp(-(T - t_i))), the source-j slice of the compensator.
    """

    __slots__ = (
        "b_mats",
        "b_totals",
        "products",
        "excite_integrals",
        "horizon",
        "n_users",
        "n_products",
        "_b_flat",
        "_b_observed",
        "_product_counts",
    )

    def __init__(self, b_mats, b_totals, products, excite_integrals, horizon, n_users, n_products):
        self.b_mats = b_mats
        self.b_totals = b_totals
        self.products = products
        self.excite_integrals = excite_integrals
        self.horizon = horizon
        self.n_users = n_users
        self.n_products = n_products
        # theta-independent aggregates reused every solver iteration
        k = products.size
        self._b_flat = np.ascontiguousarray(b_mats.transpose(1, 0, 2).reshape(n_users, k * n_products))
        if k:
            self._b_observed = b_mats[np.arange(k), :, products].sum(axis=0)
        else:
            self._b_observed = np.zeros(n_users)
        self._product_counts = np.bincount(products, minlength=n_products).astype(float)

    @property
    def n_events(self) -> int:
        return self.products.size


def build_all_features(log: EventLog) -> dict[int, EventFeatures]:
    """One pass over the log producing every user's EventFeatures."""
    n, m = log.n_users, log.n_products
    state = DecayState(n, m)
    snaps: dict[int, list] = {u: [] for u in range(n)}
    times, users, products = log.times, log.users, log.products
    k = len(log)
    i = 0
    while i < k:
        t = times[i]
        j = i
        while j < k and times[j] == t:
            j += 1
        state.advance(float(t))
        # intensities at t see only history strictly before t, so snapshot
        # every tied event before absorbing any of them
        for idx in range(i, j):
            snaps[int(users[idx])].append((state.b.copy(), int(products[idx])))
        for idx in range(i, j):
            state.b[users[idx], products[idx]] += 1.0
        i = j
    excite = np.zeros(n)
    past = times < log.horizon
    np.add.at(excite, users[past], 1.0 - np.exp(-(log.horizon - times[past])))
    out = {}
    for u in range(n):
        entries = snaps[u]
        if entries:
            b_mats = np.stack([b for b, _ in entries])
            prods = np.array([p for _, p in entries], dtype=np.int64)
        else:
            b_mats = np.zeros((0, n, m))
            prods = np.empty(0, dtype=np.int64)
        out[u] = EventFeatures(
            b_mats, b_mats.sum(axis=2), prods, excite, log.horizon, n, m
        )
    return out


def build_features(log: EventLog, user: int) -> EventFeatures:
    """EventFeatures for a single user."""
    return build_all_features(log)[user]


def log_sum_exp(values) -> float:
    """Overflow-safe log of the sum of exponentials of a nonempty vector."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def _tendency_matrix(features: EventFeatures, alpha_col: np.ndarray, mu_row: np.ndarray) -> np.ndarray:
    """g_u^q(t_i) for every event i (rows) and product q (columns)."""
    k, m = features.n_events, features.n_products
    return mu_row[None, :] + (alpha_col @ features._b_flat).reshape(k, m)


def _eval_features(features, alpha_col, mu_row, beta):
    """(nll, tendency matrix g, intensities lam); g/lam are None for empty logs."""
    comp = features.horizon * mu_row.sum() + alpha_col @ features.excite_integrals
    if features.n_events == 0:
        return float(comp), None, None
    g = _tendency_matrix(features, alpha_col, mu_row)
    lam = g.sum(axis=1)
    if np.any(lam <= 0):
        raise InfeasibleLikelihoodError("zero intensity at an observed event")
    z = beta * g
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    idx = np.arange(features.n_events)
    ll = (
        np.log(lam).sum()
        - comp
        + beta * g[idx, features.products].sum()
        - lse.sum()
    )
    if not math.isfinite(ll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(-ll), g, lam


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
            + beta * (features._b_flat @ f.ravel())
        )
    return np.concatenate([grad_alpha, grad_mu])


def _hessian_from_eval(features, beta, g, lam):
    """Exact per-user NLL Hessian given the cached evaluation of g and lam.

    Only the -log lambda and log-sum-exp terms are curved.  With the event
    Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I] ((N+M) x M), the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T,
    with f_i the soft-max mark probabilities at event i.
    """
    n, m, k = features.n_users, features.n_products, features.n_events
    hess = np.zeros((n + m, n + m))
    if k == 0:
        return hess
    f = _mark_probabilities(beta, g)
    w = 1.0 / lam**2
    b_tot = features.b_totals
    # bf[j, i*M + q] = B(t_i)[j, q] f_i[q]
    bf = features._b_flat * f.ravel()
    bf_3d = bf.reshape(n, k, m)
    mean_b = bf_3d.sum(axis=2).T  # (K, N): B(t_i) f_i
    h_aa = (b_tot.T * w) @ b_tot + beta**2 * (bf @ features._b_flat.T - mean_b.T @ mean_b)
    h_am = (w @ b_tot)[:, None] + beta**2 * (bf_3d.sum(axis=1) - mean_b.T @ f)
    h_mm = w.sum() + beta**2 * (np.diag(f.sum(axis=0)) - f.T @ f)
    hess[:n, :n] = h_aa
    hess[:n, n:] = h_am
    hess[n:, :n] = h_am.T
    hess[n:, n:] = h_mm
    return hess


def nll_from_features(
    features: EventFeatures, alpha_col: np.ndarray, mu_row: np.ndarray, beta: float
) -> float:
    """Negative per-user log-likelihood from cached features."""
    return _eval_features(features, alpha_col, mu_row, beta)[0]


def nll_gradient_from_features(
    features: EventFeatures, alpha_col: np.ndarray, mu_row: np.ndarray, beta: float
) -> np.ndarray:
    """Gradient of the per-user NLL in the packed [alpha_col | mu_row] layout."""
    _, g, lam = _eval_features(features, alpha_col, mu_row, beta)
    return _gradient_from_eval(features, beta, g, lam)


def user_nll(
    log: EventLog,
    user: int,
    theta_u: UserParams,
    beta: float,
    features: EventFeatures | None = None,
) -> float:
    """Negative log-likelihood of one user's events under soft-max marks."""
    if features is None:
        features = build_features(log, user)
    return nll_from_features(features, theta_u.alpha_col, theta_u.mu_row, beta)


def user_nll_gradient(
    log: EventLog,
    user: int,
    theta_u: UserParams,
    beta: float,
    features: EventFeatures | None = None,
) -> np.ndarray:
    """Analytic gradient of `user_nll` in the packed layout."""
    if features is None:
        features = build_features(log, user)
    return nll_gradient_from_features(features, theta_u.alpha_col, theta_u.mu_row, beta)


def window_nll(log: EventLog, params: ModelParams, t_start: float, t_end: float) -> float:
    """NLL of the events in (t_start, t_end] with full preceding history.

    Events exactly at t_start belong to the earlier window except at
    t_start = 0, so adjacent windows add up exactly to the whole-log NLL.
    Supports both mark models.
    """
    if not 0 <= t_start <= t_end <= log.horizon:
        raise ValueError("window must satisfy 0 <= t_start <= t_end <= horizon")
    softmax = isinstance(params.mark, SoftMaxMark)
    beta = params.mark.beta if softmax else None
    state = DecayState(params.n_users, params.n_products)
    times, users, products = log.times, log.users, log.products
    k = len(log)
    event_ll = 0.0
    i = 0
    while i < k:
        t = float(times[i])
        if t > t_end:
            break
        j = i
        while j < k and times[j] == times[i]:
            j += 1
        state.advance(t)
        in_window = t <= t_end and (t > t_start or (t_start == 0.0 and t >= 0.0))
        if in_window:
            for idx in range(i, j):
                u = int(users[idx])
                p = int(products[idx])
                g = params.mu[u] + params.alpha[:, u] @ state.b
                lam = g.sum()
                if lam <= 0:
                    raise InfeasibleLikelihoodError("zero intensity at an observed event")
                if softmax:
                    z = beta * g
                    log_f = z[p] - log_sum_exp(z)
                else:
                    if g[p] <= 0:
                        raise InfeasibleLikelihoodError("zero mark density at an observed event")
                    log_f = math.log(g[p]) - math.log(lam)
                event_ll += math.log(lam) + log_f
        for idx in range(i, j):
            state.b[users[idx], products[idx]] += 1.0
        i = j
    # compensator over [t_start, t_end], summed over all users
    comp = (t_end - t_start) * params.mu_user.sum()
    mask = times < t_end
    if np.any(mask):
        ts = times[mask]
        row_sums = params.alpha.sum(axis=1)[users[mask]]
        comp += float(
            row_sums @ (np.exp(-np.maximum(t_start - ts, 0.0)) - np.exp(-(t_end - ts)))
        )
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll)


def total_nll(log: EventLog, params: ModelParams) -> float:
    """NLL of the whole log; sum of the per-user terms under soft-max marks."""
    if isinstance(params.mark, LinearMark):
        return window_nll(log, params, 0.0, log.horizon)
    features = build_all_features(log)
    beta = params.mark.beta
    total = 0.0
    for u in range(params.n_users):
        total += nll_from_features(features[u], params.alpha[:, u], params.mu[u], beta)
    return total
