"""Exact sampling by Ogata thinning and the incentivization scenario.

The dominating rate is refreshed at every proposal from the current total
intensity, which is a valid bound because every intensity only decays
between events under the exponential kernel.  That total is the baseline
plus one scalar excitation S, decayed by exp(-delta) and raised by the
event user's outgoing influence (the recursion of
`metrics.rescaled_interevent_times`), so a rejected proposal costs O(1).  Each
accepted event costs O(N*M): the per-target excitations it draws the user
and the product from are decayed once and updated in place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import EventLog
from .model import (
    MarkModel,
    ModelParams,
    SoftMaxMark,
    branching_column_sums,
    check_dimensions,
    decayed_counts,
)


class SubcriticalityWarning(UserWarning):
    """Some user's total incoming influence is >= 1: the cascade may explode."""


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    seed: int
    initial_history: EventLog | None = None
    max_events: int = 10_000_000

    def __post_init__(self):
        # NaN passes every comparison, so finiteness is checked explicitly
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")


@dataclass(frozen=True)
class Scenario:
    """Mid-run incentivization: boost one product's baselines, swap marks."""

    switch_time: float
    boosted_product: int
    boost_factor: float = 2.0
    pre_switch_mark: MarkModel = None
    post_switch_mark: MarkModel = None

    def __post_init__(self):
        for name in ("switch_time", "boost_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class ScenarioResult:
    log: EventLog
    switch_time: float
    boosted_product: int
    n_pre_switch_events: int
    cap_exhausted: bool = False


def _check_subcritical(params: ModelParams) -> None:
    rho = branching_column_sums(params).max() if params.n_users else 0.0
    if rho >= 1.0:
        warnings.warn(
            f"max incoming influence {rho:.3f} >= 1: simulation may not be stationary",
            SubcriticalityWarning,
            stacklevel=3,
        )


def _thinning_schedule(schedule, alpha, b, start, rng, events: list, cap: int) -> bool:
    """Run Ogata thinning over consecutive (end_time, mu, mark) segments.

    `b` holds the decayed counts B(start) of the history.  Thinning reads
    them only through G = alpha^T B (G[u, q] is user u's excitation toward
    product q), E = G 1 and S = 1^T E, the total excitation.  S is a float
    kept current at every proposal; G and E are decayed lazily, when an
    event is accepted.  An in-flight proposal is carried across a segment
    boundary whenever the bound under the new baselines does not exceed the
    bound it was drawn against; a no-op boundary therefore consumes exactly
    the same random stream as an unsegmented run.  Returns True if the
    event cap was exhausted before the final horizon.
    """
    row_sums = alpha.sum(axis=1)
    jumps = row_sums.tolist()  # S rises by sum_v alpha[u, v] at an event of u
    excite = float(row_sums @ b.sum(axis=1))
    # rows 0..M-1 hold G^T, row M holds E, so one product decays both
    ge = np.empty((b.shape[1] + 1, b.shape[0]))
    ge[:-1] = b.T @ alpha
    ge[-1] = ge[:-1].sum(axis=0)
    g, e = ge[:-1], ge[-1]
    last_user = b.shape[0] - 1
    uniform = rng.random  # the same doubles as rng.uniform(), drawn faster
    s = g_time = start
    pending = None
    for seg_end, mu, mark in schedule:
        mu_user = mu.sum(axis=1)
        mu_total = float(mu_user.sum())
        last_product = mu.shape[1] - 1
        beta = mark.beta if isinstance(mark, SoftMaxMark) else None
        if pending is not None and mu_total + excite > pending[1]:
            pending = None
        while True:
            if pending is None:
                lam_bar = mu_total + excite
                if lam_bar <= 0.0:
                    s = seg_end
                    break
                t_prop = s + rng.exponential(1.0 / lam_bar)
            else:
                t_prop, lam_bar = pending
                pending = None
            if t_prop >= seg_end:
                excite *= math.exp(-(seg_end - s))
                s = seg_end
                pending = (t_prop, lam_bar)
                break
            excite *= math.exp(-(t_prop - s))
            s = t_prop
            if uniform() * lam_bar <= mu_total + excite:
                ge *= math.exp(-(s - g_time))
                g_time = s
                cum = (mu_user + e).cumsum()
                u = min(int(cum.searchsorted(uniform() * cum[-1], side="right")), last_user)
                # the mark weights: exp(beta * tendency) rescaled, or the tendencies
                row = mu[u] + g[:, u]
                if beta is not None:
                    row = beta * row
                    row = np.exp(row - row.max())
                cum = row.cumsum()
                p = min(int(cum.searchsorted(uniform() * cum[-1], side="right")), last_product)
                g[p] += alpha[u]
                e += alpha[u]
                excite += jumps[u]
                events.append((s, u, p))
                if len(events) >= cap:
                    return True
    return False


def _initial_state(params: ModelParams, history: EventLog | None) -> tuple[np.ndarray, float]:
    """Decayed counts B at the end of `history`, and that time (0 without one).

    B[j, q] = sum over history events (t_i, j, q) of exp(-(t_last - t_i)),
    from `model.decayed_counts`.  Raises ValueError unless
    the history has the parameters' users and products.
    """
    n, m = params.n_users, params.n_products
    if history is not None:
        check_dimensions(history, params)
    if history is None or len(history) == 0:
        return np.zeros((n, m)), 0.0
    t_last = float(history.times[-1])
    return decayed_counts(history, t_last, 0, len(history)), t_last


def simulate(params: ModelParams, config: SimConfig) -> EventLog:
    """Sample the process on [0, horizon]; returns only newly generated events.

    With `initial_history` set, its events are absorbed at their recorded
    times first and generation starts from the later of 0 and the last
    history time.  The history must have the parameters' users and
    products (ValueError otherwise).
    """
    _check_subcritical(params)
    b, start = _initial_state(params, config.initial_history)
    rng = np.random.default_rng(config.seed)
    events: list = []
    exhausted = _thinning_schedule(
        [(config.horizon, params.mu, params.mark)],
        params.alpha, b, start, rng, events, config.max_events,
    )
    if exhausted:
        warnings.warn(
            f"event cap {config.max_events} exhausted at t={events[-1][0]:.3f}; log is partial",
            RuntimeWarning,
            stacklevel=2,
        )
    return EventLog(events, config.horizon, params.n_users, params.n_products)


def run_scenario(params: ModelParams, scenario: Scenario, config: SimConfig) -> ScenarioResult:
    """Simulate with a mid-run baseline boost and mark-model switch.

    The decay state and the random stream both carry across the switch, so a
    no-op scenario (boost 1, identical marks) reproduces `simulate` exactly.
    """
    if not 0 < scenario.switch_time < config.horizon:
        raise ValueError("switch_time must fall inside (0, horizon)")
    if not 0 <= scenario.boosted_product < params.n_products:
        raise IndexError("boosted product out of range")
    pre_mark = scenario.pre_switch_mark if scenario.pre_switch_mark is not None else params.mark
    post_mark = scenario.post_switch_mark if scenario.post_switch_mark is not None else params.mark
    boosted_mu = params.mu.copy()
    boosted_mu[:, scenario.boosted_product] *= scenario.boost_factor
    _check_subcritical(params)

    b, start = _initial_state(params, config.initial_history)
    rng = np.random.default_rng(config.seed)
    events: list = []
    exhausted = _thinning_schedule(
        [(scenario.switch_time, params.mu, pre_mark), (config.horizon, boosted_mu, post_mark)],
        params.alpha, b, start, rng, events, config.max_events,
    )
    n_pre = sum(1 for t, _, _ in events if t < scenario.switch_time)
    log = EventLog(events, config.horizon, params.n_users, params.n_products)
    return ScenarioResult(
        log=log,
        switch_time=scenario.switch_time,
        boosted_product=scenario.boosted_product,
        n_pre_switch_events=n_pre,
        cap_exhausted=exhausted,
    )
