"""Model parameters, mark models and the tie-aware event sweep.

All history dependence flows through the exponentially decayed event counts
B(t), the sufficient statistics of the likelihood: any tendency
g_u^p(t) = mu_u^p + sum_j alpha[j, u] B_j^p(t) costs O(N) given them,
however many events came before.  `tie_groups` sweeps them event run by
event run; `decayed_counts` gives them at one time in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .data import EventLog


class UndefinedMarkError(ValueError):
    """Linear mark requested for a user whose every tendency is zero."""


@dataclass(frozen=True)
class SoftMaxMark:
    """Soft-max mark: product probability proportional to exp(beta * tendency)."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")


@dataclass(frozen=True)
class LinearMark:
    """Linear mark: product probability proportional to the tendency itself."""


MarkModel = Union[SoftMaxMark, LinearMark]


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: baselines mu (N x M), influence alpha (N x N), mark model.

    alpha[j, u] is the influence of source user j on target user u.
    """

    mu: np.ndarray
    alpha: np.ndarray
    mark: MarkModel

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if mu.ndim != 2:
            raise ValueError("mu must be an N x M matrix")
        n = mu.shape[0]
        if alpha.shape != (n, n):
            raise ValueError("alpha must be N x N with N matching mu")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(alpha))):
            raise ValueError("parameters must be finite")
        if np.any(mu < 0) or np.any(alpha < 0):
            raise ValueError("parameters must be nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_users(self) -> int:
        return self.mu.shape[0]

    @property
    def n_products(self) -> int:
        return self.mu.shape[1]

    @property
    def mu_user(self) -> np.ndarray:
        """Per-user scalar baseline: mu_u = sum_p mu_u^p."""
        return self.mu.sum(axis=1)


def tie_groups(log: EventLog) -> Iterator[tuple[int, int, np.ndarray]]:
    """Sweep `log` in runs of tied events with their decayed counts.

    For each run of events [lo, hi) that share one time t, yields
    (lo, hi, b), where b[j, q] = sum over events (t_i, j, q) strictly
    before t of exp(-(t - t_i)) is the history every intensity at t sees.
    b is one N x M array that the sweep owns and updates in place when
    resumed (decayed only when time advances, then one count per event of
    the run), so a caller that keeps it copies it.  After an exhausted
    sweep, b holds the whole log decayed to its last event time.
    """
    b = np.zeros((log.n_users, log.n_products))
    times, users, products = log.times.tolist(), log.users.tolist(), log.products.tolist()
    starts = np.flatnonzero(np.diff(log.times, prepend=-np.inf)).tolist()
    t_prev = 0.0
    for lo, hi in zip(starts, starts[1:] + [len(times)]):
        t = times[lo]
        if t > t_prev:
            b *= math.exp(-(t - t_prev))
            t_prev = t
        yield lo, hi, b
        for i in range(lo, hi):
            b[users[i], products[i]] += 1.0


def decayed_counts(log: EventLog, t: float, lo: int, hi: int) -> np.ndarray:
    """Decayed counts at time t of the events [lo, hi) of `log`, in closed form.

    Returns the N x M array B with B[j, q] = sum over those events
    (t_i, j, q) of exp(-(t - t_i)), one weighted count per cell.  None of
    the events may be later than t.
    """
    n, m = log.n_users, log.n_products
    cells = log.users[lo:hi] * m + log.products[lo:hi]
    weights = np.exp(-(t - log.times[lo:hi]))
    return np.bincount(cells, weights=weights, minlength=n * m).reshape(n, m)


def check_dimensions(log: EventLog, params: ModelParams) -> None:
    """Raise ValueError unless `log` has the users and products of `params`."""
    if (log.n_users, log.n_products) != (params.n_users, params.n_products):
        raise ValueError(
            f"log has {log.n_users} users and {log.n_products} products, parameters have "
            f"{params.n_users} and {params.n_products}"
        )


def mark_density_from_tendencies(g: np.ndarray, mark: MarkModel) -> np.ndarray:
    """Mark probabilities for a given tendency vector."""
    g = np.asarray(g, dtype=float)
    if isinstance(mark, SoftMaxMark):
        z = mark.beta * g
        z = z - z.max()
        w = np.exp(z)
        return w / w.sum()
    total = g.sum()
    if total <= 0:
        raise UndefinedMarkError("linear mark undefined: all tendencies are zero")
    return g / total


def branching_column_sums(params: ModelParams) -> np.ndarray:
    """Per-target total incoming influence sum_j alpha[j, u].

    The unit-rate exponential kernel integrates to 1, so these are the
    column sums of the branching matrix; max >= 1 means supercritical.
    """
    return params.alpha.sum(axis=0)
