"""Intensity engine: tendencies, total intensity, mark densities, compensator.

All history dependence flows through exponentially decayed event counts
maintained in a :class:`DecayState`, so evaluating any intensity is O(N*M)
regardless of how many events have been absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .data import Event, EventLog


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


class DecayState:
    """Exponentially decayed event counts B_j^q(t), the sufficient statistics.

    b[j, q] = sum over absorbed events (t_i, j, q) of exp(-(t - t_i)).
    Advancing time by delta multiplies every entry by exp(-delta); absorbing
    an event adds 1 to its (user, product) cell.  Single-writer cursor.
    """

    __slots__ = ("b", "current_time")

    def __init__(self, n_users: int, n_products: int):
        if n_users < 1 or n_products < 1:
            raise ValueError("dimensions must be >= 1")
        self.b = np.zeros((n_users, n_products), dtype=float)
        self.current_time = 0.0

    @property
    def b_total(self) -> np.ndarray:
        """Per-source totals B_j(t) = sum_q B_j^q(t)."""
        return self.b.sum(axis=1)

    def advance(self, time: float) -> None:
        """Decay all sufficient statistics forward to `time` (no event)."""
        if time < self.current_time:
            raise ValueError("cannot move the decay state backwards in time")
        if time > self.current_time:
            self.b *= math.exp(-(time - self.current_time))
            self.current_time = time

    def absorb(self, event: Event) -> None:
        """Advance to the event's time, then count it into the state."""
        self.advance(event.time)
        self.b[event.user, event.product] += 1.0

    def copy(self) -> "DecayState":
        out = DecayState(self.b.shape[0], self.b.shape[1])
        out.b = self.b.copy()
        out.current_time = self.current_time
        return out


def tie_groups(log: EventLog, state: DecayState) -> Iterator[tuple[int, int]]:
    """Sweep `log` in runs of tied events, driving `state` along.

    For each run of events [lo, hi) that share one time, advances `state`
    to that time and yields (lo, hi) while it holds only strictly earlier
    events, which is the history every intensity at that time sees; when
    resumed, absorbs the whole run.  An exhausted sweep has absorbed the log.
    """
    times, users, products = log.times.tolist(), log.users.tolist(), log.products.tolist()
    starts = np.flatnonzero(np.diff(log.times, prepend=-np.inf)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(times)]):
        state.advance(times[lo])
        yield lo, hi
        for i in range(lo, hi):
            state.b[users[i], products[i]] += 1.0


def decay_state_init(n_users: int, n_products: int) -> DecayState:
    """Fresh all-zero state at time 0."""
    return DecayState(n_users, n_products)


def decay_state_advance_and_absorb(state: DecayState, event: Event) -> DecayState:
    """Absorb one event in place and return the state (fluent helper)."""
    state.absorb(event)
    return state


def tendency(state: DecayState, params: ModelParams, user: int, product: int) -> float:
    """g_u^p(t) = mu_u^p + sum_j alpha[j, u] * B_j^p(t) at t = state.current_time.

    The state must hold only history strictly before the evaluation time.
    """
    if not (0 <= user < params.n_users and 0 <= product < params.n_products):
        raise IndexError("user or product out of range")
    return float(params.mu[user, product] + params.alpha[:, user] @ state.b[:, product])


def tendency_vector(state: DecayState, params: ModelParams, user: int) -> np.ndarray:
    """All M tendencies of one user, each computed exactly as `tendency`."""
    return np.array(
        [tendency(state, params, user, p) for p in range(params.n_products)]
    )


def total_intensity(state: DecayState, params: ModelParams, user: int) -> float:
    """lambda_u(t) = sum_p g_u^p(t)."""
    return float(tendency_vector(state, params, user).sum())


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


def mark_density(state: DecayState, params: ModelParams, user: int) -> np.ndarray:
    """Probability that user u's next event at the current time carries each product."""
    return mark_density_from_tendencies(tendency_vector(state, params, user), params.mark)


def compensator(log: EventLog, params: ModelParams, user: int, t_end: float) -> float:
    """Integral of lambda_u over [0, t_end], in closed form.

    mu_u * t_end + sum over events strictly before t_end of
    alpha[u_i, u] * (1 - exp(-(t_end - t_i))).
    """
    if not 0 <= user < params.n_users:
        raise IndexError("user out of range")
    if t_end > log.horizon:
        raise ValueError("t_end exceeds the log horizon")
    mask = log.times < t_end
    excite = params.alpha[log.users[mask], user] @ (1.0 - np.exp(-(t_end - log.times[mask])))
    return float(params.mu_user[user] * t_end + excite)


def branching_column_sums(params: ModelParams) -> np.ndarray:
    """Per-target total incoming influence sum_j alpha[j, u].

    The unit-rate exponential kernel integrates to 1, so these are the
    column sums of the branching matrix; max >= 1 means supercritical.
    """
    return params.alpha.sum(axis=0)
