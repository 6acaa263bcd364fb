"""Constrained MLE per user by projected Newton on theta >= 0.

Each user's problem (minimize the per-user NLL over theta >= 0) is convex
and independent of every other user's, so the full fit is a map over users
that may run in parallel with bit-identical results to a sequential run.
A user's problem has only N + M dimensions, so every iteration builds and
solves with the exact Hessian (Bertsekas 1982, "Projected Newton methods
for optimization problems with simple constraints").
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EventLog
from .likelihood import (
    EventFeatures,
    InfeasibleLikelihoodError,
    UserParams,
    _eval_features,
    _gradient_from_eval,
    _hessian_from_eval,
    build_all_features,
    user_nll,
    user_nll_gradient,
    window_nll,
)
from .model import ModelParams, SoftMaxMark

WORKERS_ENV_VAR = "CORRCASCADES_WORKERS"


@dataclass(frozen=True)
class FitConfig:
    """Projected-Newton solver controls.

    `beta` is the soft-max mark sharpness, `inner_max_iter` caps each
    user's Newton steps, and `n_workers` sets the processes `fit_all` maps
    users over.  Influence coordinates start at `init_value`; baselines
    start at the user's per-product event rate.
    """

    beta: float = 1.0
    inner_max_iter: int = 500
    init_value: float = 0.01
    n_workers: int = 1

    def __post_init__(self):
        for name in ("beta", "init_value"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class UserFitEntry:
    """One user's solve: `outer_iterations` counts projected-Newton
    iterations (gradient evaluations, the final optimality check included)
    and `inner_iterations` objective evaluations (line-search trials
    included)."""

    user: int
    nll: float
    outer_iterations: int
    inner_iterations: int
    converged: bool
    grad_norm: float
    wall_time: float


@dataclass
class FitReport:
    entries: list[UserFitEntry] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(e.converged for e in self.entries)


# Bertsekas's epsilon: coordinates within this distance of the bound whose
# gradient pushes outward take a diagonal step instead of a Newton step
_ACTIVE_EPS = 1e-3
# a user's solve stops once its projected gradient norm is this small
_GRAD_TOL = 1e-7
# backtracking factor and Armijo fraction of the line search
_LS_SHRINK = 0.5
_LS_DECREASE = 1e-4
# ridge = _RIDGE * |grad_F| / |theta| on the free Hessian block (see _projected_newton)
_RIDGE = 0.3
_MAX_BACKTRACKS = 60


def _projected_newton(features, theta, live, config):
    """Projected Newton (Bertsekas 1982) on theta >= 0 over the `live` coordinates.

    Each iteration splits the live coordinates into Bertsekas's
    epsilon-active set (within epsilon of the bound, gradient pushing
    outward), which takes a diagonally scaled gradient step, and the free
    set, which takes a Newton step on the exact Hessian block.  With fewer
    events than dimensions that block is singular and the NLL is linear
    along its null space.  A ridge proportional to the gradient norm (Li,
    Fukushima, Qi and Yamashita 2004), divided by |theta| to carry Hessian
    units, keeps such steps near the size of theta and vanishes at the
    optimum, where Newton's fast local convergence returns.  The step
    backtracks along the projection arc max(theta + s * d, 0) under
    Bertsekas's Armijo rule, so the objective never rises.

    Stops when the projected gradient norm reaches `_GRAD_TOL`, when
    the predicted decrease falls below the objective's floating-point
    resolution, when the line search finds no decrease, or after
    `inner_max_iter` steps.  Returns (theta, iterations, evaluations):
    iterations counts gradient evaluations, the final check included.
    """
    beta = config.beta
    n = features.n_users
    # the start is feasible by construction; a likelihood that overflows
    # there (an absurd init_value) raises instead of reading as +inf
    value, g, lam = _eval_features(features, theta[:n], theta[n:], beta)
    iterations, evals = 0, 1
    while True:
        iterations += 1
        grad = _gradient_from_eval(features, beta, g, lam)
        grad[~live] = 0.0
        gap = float(np.linalg.norm(theta - np.maximum(theta - grad, 0.0)))
        if gap <= _GRAD_TOL or iterations > config.inner_max_iter:
            break
        active = live & (theta <= min(_ACTIVE_EPS, gap)) & (grad > 0)
        free = live & ~active
        hess = _hessian_from_eval(features, beta, g, lam)
        direction = np.zeros_like(theta)
        direction[active] = -grad[active] / np.diag(hess)[active]
        if free.any():
            g_free = grad[free]
            ridge = _RIDGE * np.linalg.norm(g_free) / np.linalg.norm(theta)
            h_free = hess[np.ix_(free, free)]
            h_free[np.diag_indices(g_free.size)] += ridge
            direction[free] = -np.linalg.solve(h_free, g_free)
        slope = float(grad[free] @ direction[free])

        def predicted(cand, step):
            # Armijo's reference decrease: linear on the free set, the
            # actual move on the active set
            return step * slope + float(grad[active] @ (cand - theta)[active])

        cand = np.maximum(theta + direction, 0.0)
        if -predicted(cand, 1.0) <= 8.0 * math.ulp(value):
            break
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            evals += 1
            try:
                cand_value, cand_g, cand_lam = _eval_features(features, cand[:n], cand[n:], beta)
            except InfeasibleLikelihoodError:  # a nonpositive intensity: +inf
                cand_value = np.inf
            if cand_value < value + _LS_DECREASE * predicted(cand, step):
                break
            step *= _LS_SHRINK
            cand = np.maximum(theta + step * direction, 0.0)
        else:
            break
        theta, value, g, lam = cand, cand_value, cand_g, cand_lam
    return theta, iterations, evals


def fit_user(features: EventFeatures, user: int, config: FitConfig) -> tuple[UserParams, UserFitEntry]:
    """Projected-Newton MLE of one user's parameters over theta >= 0.

    `features` are the user's (see `build_all_features`) and `user` labels
    the report entry.  Raises ValueError when the user has events but the
    horizon is 0: with no compensator the NLL is unbounded below and has no
    minimizer.
    """
    if features.horizon == 0 and features.n_events:
        raise ValueError("a log with events at horizon 0 has no maximum-likelihood estimate")
    start = time.perf_counter()
    n, m = features.n_users, features.n_products
    # a source that fired before none of this user's events enters the NLL
    # only through its compensator slice, linearly with a nonnegative slope,
    # so its minimizer is exactly 0; with no events at all the same holds
    # for every baseline
    live = np.concatenate(
        [features.b_totals.sum(axis=0) > 0, np.full(m, features.n_events > 0)]
    )
    theta = np.where(live, config.init_value, 0.0)
    if features.horizon > 0:
        # baselines start at the per-product event rate, where the
        # intensities and their curvature stay finite for any init_value
        theta[n:] = features._product_counts / features.horizon
    theta, iterations, evals = _projected_newton(features, theta, live, config)

    params = UserParams(theta[:n], theta[n:])
    nll = user_nll(features, params, config.beta)
    # KKT certificate: at coordinates pinned to the constraint floor only an
    # outward (negative) NLL gradient counts as unfinished business
    grad = user_nll_gradient(features, params, config.beta)
    pinned = theta <= 1e-6
    grad[pinned] = np.minimum(grad[pinned], 0.0)
    proj_norm = float(np.linalg.norm(grad))
    converged = proj_norm <= 1e-4 * max(1.0, abs(float(nll)))
    entry = UserFitEntry(
        user=user,
        nll=float(nll),
        outer_iterations=iterations,
        inner_iterations=evals,
        converged=converged,
        grad_norm=proj_norm,
        wall_time=time.perf_counter() - start,
    )
    return params, entry


def default_worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def fit_all(log: EventLog, config: FitConfig) -> tuple[ModelParams, FitReport]:
    """Fit every user; parallel execution matches sequential bit for bit."""
    features = build_all_features(log)
    n, m = log.n_users, log.n_products
    tasks = ([features[u] for u in range(n)], range(n), [config] * n)
    if config.n_workers > 1:
        with ProcessPoolExecutor(max_workers=config.n_workers) as pool:
            results = list(pool.map(fit_user, *tasks))
    else:
        results = list(map(fit_user, *tasks))
    mu = np.zeros((n, m))
    alpha = np.zeros((n, n))
    report = FitReport()
    for u, (params_u, entry) in enumerate(results):
        alpha[:, u] = params_u.alpha_col
        mu[u] = params_u.mu_row
        report.entries.append(entry)
    return ModelParams(mu, alpha, SoftMaxMark(config.beta)), report


def cross_validate_beta(
    log: EventLog,
    grid,
    holdout_fraction: float,
    config: FitConfig | None = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick beta by held-out predictive likelihood on the trailing time window.

    Fits on [0, (1 - holdout) * T) and scores the per-event NLL of the tail
    conditioned on the full head history.  Lowest score wins; ties go to the
    earlier grid entry.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be nonempty")
    if not 0 < holdout_fraction < 1:
        raise ValueError("holdout_fraction must be in (0, 1)")
    if config is None:
        config = FitConfig()
    if len(grid) == 1:
        return float(grid[0]), [(float(grid[0]), np.nan)]
    t_split = log.horizon * (1.0 - holdout_fraction)
    n_head = int(np.searchsorted(log.times, t_split, side="left"))
    n_tail = len(log) - n_head
    if n_head == 0 or n_tail == 0:
        raise ValueError("degenerate split: empty train head or test tail")
    head = log.before(t_split).with_horizon(t_split)
    scores = []
    best_beta, best_score = None, np.inf
    for beta in grid:
        params, _ = fit_all(head, replace(config, beta=float(beta)))
        # the tail starts at event n_head, so tail events at t_split are scored
        score = window_nll(log, params, t_split, log.horizon, first_event=n_head) / n_tail
        scores.append((float(beta), float(score)))
        if score < best_score:
            best_beta, best_score = float(beta), float(score)
    return best_beta, scores
