"""Model parameters, mark models and the decayed event counts.

All history dependence flows through the exponentially decayed event counts
B(t), the sufficient statistics of the likelihood: any tendency
g_u^p(t) = mu_u^p + sum_j alpha[j, u] B_j^p(t) costs O(N) given them,
however many events came before.  `decayed_counts` gives them at one time
in closed form; `fitting._user_snapshots` gives them at every event
time of one user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import EventLog


@dataclass(frozen=True)
class SoftMaxMark:
    """Soft-max mark: product probability proportional to exp(beta * tendency)."""

    beta: float

    def __post_init__(self):
        if isinstance(self.beta, (bool, np.bool_)):
            raise TypeError("beta must be a number, not a bool")
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
        # every consumer scores a mark that is not a SoftMaxMark as linear
        if not isinstance(self.mark, (SoftMaxMark, LinearMark)):
            raise TypeError(f"mark must be a SoftMaxMark or a LinearMark, not {self.mark!r}")
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


# exp(-x) rounds to exactly 0.0 once it is below half the smallest subnormal,
# for x above -log(5e-324) + log 2, about 745.13; the next integer leaves a
# margin far wider than any rounding of x = t - t_i below times of 2**52
_UNDERFLOW = math.ceil(math.log(2.0) - math.log(math.ulp(0.0)))  # 746


def decayed_counts(log: EventLog, t: float, lo: int, hi: int) -> np.ndarray:
    """Decayed counts at time t of the events [lo, hi) of `log`, in closed form.

    Returns the N x M array B with B[j, q] = sum over those events
    (t_i, j, q) of exp(-(t - t_i)), one weighted count per cell.  None of
    the events may be later than t.  Events before t - _UNDERFLOW are
    skipped: their weights are exactly 0.0, and they are the earliest, so
    each cell's sum of the rest is the same to the bit.
    """
    n, m = log.n_users, log.n_products
    lo += int(np.searchsorted(log.times[lo:hi], t - _UNDERFLOW, side="left"))
    cells = log.users[lo:hi] * m + log.products[lo:hi]
    weights = np.exp(-(t - log.times[lo:hi]))
    counts = np.bincount(cells, weights=weights, minlength=n * m)  # integers when lo == hi
    return counts.astype(float, copy=False).reshape(n, m)


def check_dimensions(log: EventLog, params: ModelParams) -> None:
    """Raise ValueError unless `log` has the users and products of `params`."""
    if (log.n_users, log.n_products) != (params.n_users, params.n_products):
        raise ValueError(
            f"log has {log.n_users} users and {log.n_products} products, parameters have "
            f"{params.n_users} and {params.n_products}"
        )


def branching_column_sums(params: ModelParams) -> np.ndarray:
    """Per-target total incoming influence sum_j alpha[j, u].

    The unit-rate exponential kernel integrates to 1, so these are the
    column sums of the branching matrix.  Their maximum bounds its spectral
    radius from above, so a maximum below 1 is sufficient for a stationary
    process but not necessary: alpha = [[0, 1.5], [0, 0]] has a column sum
    of 1.5 and spectral radius 0.
    """
    return params.alpha.sum(axis=0)
