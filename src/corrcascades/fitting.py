"""Constrained MLE per user by projected Newton on theta >= 0.

Each user's problem (minimize the per-user NLL over theta >= 0) is convex
and independent of every other user's, so the full fit is a map over users
that may run in parallel with bit-identical results to a sequential run.
The map streams the users: each of W strided shares builds one user's
features at a time from the event log, fits that user and drops them, so
no feature array is pickled to a worker and no process holds more than one
user's features.  The shares go to `_workers.run_jobs`: the caller fits
share 0 itself and forked children fit the others at once, each process
pinned to its own CPU.  The children inherit the log, so nothing is pickled
in, and send their fitted parameters back through a pipe.  Where fork is
unsafe or missing (Windows, macOS) `run_jobs` fits the shares one after
another in the caller.  A user's parameters are the packed vector
theta = [alpha_col | mu_row], and its features are the stacked event
Jacobian that the objective, the gradient and the Hessian all read.  Every
iteration sends the coordinates at the bound to 0 and steps the others
with the exact Hessian (Bertsekas 1982, "Projected Newton methods for
optimization problems with simple constraints"), of which it forms only
the factor of the free rows, from one set of per-event factors, solved in
whichever of coordinate space and event space is smaller.  Influence
starts at 0, so a source whose gradient points to the bound stays pinned
from the first iteration instead of widening the early free blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import _workers
from ._workers import default_worker_count  # noqa: F401  bench/traced.py imports it from here
from .data import EventLog
from .likelihood import (
    BLOCK,
    EventFeatures,
    InfeasibleLikelihoodError,
    _compensator_slope,
    _eval_features,
    _gradient_from_eval,
    _hessian_core,
    _hessian_factor,
    _user_features,
)
from .likelihood import build_all_features  # noqa: F401  bench/traced.py wraps fitting.build_all_features
from .metrics import held_out_score
from .model import ModelParams, SoftMaxMark

@dataclass(frozen=True)
class FitConfig:
    """What a fit is set by besides its data: the soft-max mark sharpness
    `beta` and the `n_workers` processes `fit_all` maps users over.  The
    solver owns the rest: each user takes at most `_MAX_STEPS` = 500 Newton
    steps, and `cross_validate_beta` holds out the last `_HOLDOUT` = 0.2 of
    the time window."""

    beta: float = 1.0
    n_workers: int = 1

    def __post_init__(self):
        SoftMaxMark(self.beta)  # raises unless beta is positive and finite
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")


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


# a user's solve stops once its KKT residual norm is this small, or after
# this many Newton steps, a safety bound far above what a solve needs
_GRAD_TOL = 1e-7
_MAX_STEPS = 500
_HOLDOUT = 0.2  # the trailing share of the time window `cross_validate_beta` scores
# backtracking factor and Armijo fraction of the line search
_LS_SHRINK = 0.5
_LS_DECREASE = 1e-4
# ridge = _RIDGE * |grad_F| / |theta| on the free Hessian block (see _projected_newton)
_RIDGE = 0.3
_MAX_BACKTRACKS = 60


def _ridge_step(x, grad, ridge):
    """The ridge Newton step d = -(X X^T + ridge I)^{-1} grad for a Hessian
    block with factor X (rows x columns), ridge > 0.

    With more rows than columns the step is taken in the column (event)
    space by Woodbury, d = -(grad - X (ridge I + X^T X)^{-1} X^T grad) / ridge,
    so no rows x rows array is formed; otherwise the block is solved
    directly.
    """
    rows, cols = x.shape
    if rows > cols:
        gram = x.T @ x
        gram.flat[:: cols + 1] += ridge
        return -(grad - x @ np.linalg.solve(gram, x.T @ grad)) / ridge
    hess = x @ x.T
    hess.flat[:: rows + 1] += ridge
    return -np.linalg.solve(hess, grad)


def _projected_newton(features, theta, config):
    """Projected Newton (Bertsekas 1982) on theta >= 0, with one step rule.

    A coordinate is at the bound when its gradient points outward and
    setting it to 0 changes the NLL by less than the NLL's resolution,
    grad * theta <= 8 ulp(NLL), the resolution of the stop test below; it
    steps to 0.  A coordinate that no event sees has gradient equal to its
    compensator slope, which is >= 0, so at 0 it is at the bound or takes
    no step.  Every other coordinate is in the free set F and takes a
    Newton step on the exact Hessian block X_F X_F^T, whose factor is one
    batched product of the free rows of the event Jacobian with the
    per-event factors L_i (`_hessian_core`, `_hessian_factor`), formed once
    per iteration.  With fewer events than dimensions that block is
    singular and the NLL is linear along its null space.  A ridge
    proportional to the gradient norm (Li, Fukushima, Qi and Yamashita
    2004), divided by |theta| to carry Hessian units, keeps such steps near
    the size of theta and vanishes at the optimum, where Newton's fast
    local convergence returns.  When |F| exceeds the K(M+1) columns of X_F
    the ridge step is solved in event space by Woodbury (`_ridge_step`), so
    no |F| x |F| array is formed.  The step backtracks along the projection
    arc max(theta + s * d, 0) under Armijo's rule on the slope grad . d, so
    the objective never rises.  When no trial step decreases the NLL, the
    coordinates that the full step clipped against an outward gradient
    join the bound and the iteration is solved once more.

    Stops when the norm of the natural KKT residual theta - max(theta -
    grad, 0) reaches `_GRAD_TOL`, when the predicted decrease -grad . d
    falls below the NLL's resolution, when the line search finds no
    decrease and the retry adds no coordinate to the bound or fails too, or
    after `_MAX_STEPS` steps.  Returns (theta, nll, residual,
    iterations, evaluations): the NLL at theta and that residual norm
    there, which every exit computes at the returned point; iterations
    counts gradient evaluations, the final check included.
    """
    beta, mark = config.beta, SoftMaxMark(config.beta)
    value, f, lam = _eval_features(features, theta, mark)
    iterations, evals = 0, 1
    while True:
        iterations += 1
        grad = _gradient_from_eval(features, beta, f, lam)
        residual = theta - np.maximum(theta - grad, 0.0)
        residual_norm = math.sqrt(residual @ residual)
        if residual_norm <= _GRAD_TOL or iterations > _MAX_STEPS:
            break
        resolution = 8.0 * math.ulp(value)
        at_bound = (grad > 0) & (grad * theta <= resolution)
        core = _hessian_core(beta, f, lam)
        accepted = None
        for _retry in range(2):
            free = (~at_bound).nonzero()[0]
            direction = np.where(at_bound, -theta, 0.0)
            g_free = grad[free]
            if g_free.any():  # a zero free gradient takes no step, and a zero ridge no Woodbury
                ridge = _RIDGE * math.sqrt(g_free @ g_free) / math.sqrt(theta @ theta)
                direction[free] = _ridge_step(_hessian_factor(features.jac[free], core), g_free, ridge)
            slope = float(grad @ direction)
            if -slope <= resolution:
                break
            step = 1.0
            for _ in range(_MAX_BACKTRACKS):
                cand = np.maximum(theta + step * direction, 0.0)
                evals += 1
                try:
                    cand_value, cand_f, cand_lam = _eval_features(features, cand, mark)
                except InfeasibleLikelihoodError:  # a nonpositive intensity: +inf
                    cand_value = np.inf
                if cand_value < value + _LS_DECREASE * step * slope:
                    accepted = cand, cand_value, cand_f, cand_lam
                    break
                step *= _LS_SHRINK
            if accepted is not None:
                break
            # retry with the coordinates the full step clipped against an
            # outward gradient at the bound
            clipped = (theta + direction < 0) & (grad > 0)
            if not clipped.any():
                break
            at_bound |= clipped
        if accepted is None:
            break
        theta, value, f, lam = accepted
    return theta, value, residual_norm, iterations, evals


def fit_user(features: EventFeatures, user: int, config: FitConfig) -> tuple[np.ndarray, UserFitEntry]:
    """Projected-Newton MLE of one user's packed parameters over theta >= 0.

    `features` are the user's (see `build_all_features`) and `user` labels
    the report entry.  Returns theta = [alpha_col | mu_row], of length
    N + M, and the entry, whose KKT certificate is the solver's residual
    norm |theta - max(theta - grad, 0)| at theta (`grad_norm`, zero exactly
    at the optimum over theta >= 0); `converged` holds when it is at most
    1e-4 * max(1, |nll|).  Raises ValueError when the user has events but
    the horizon is 0: with no compensator the NLL is unbounded below and
    has no minimizer.
    """
    if features.horizon == 0 and features.n_events:
        raise ValueError("a log with events at horizon 0 has no maximum-likelihood estimate")
    start = time.perf_counter()
    n, m = features.n_users, features.n_products
    # influence starts at 0 and baselines at the per-product event rate
    theta = np.zeros(n + m)
    if features.horizon > 0:
        theta[n:] = np.bincount(features.products, minlength=m) / features.horizon
    theta, nll, residual_norm, iterations, evals = _projected_newton(features, theta, config)
    entry = UserFitEntry(
        user=user,
        nll=nll,
        outer_iterations=iterations,
        inner_iterations=evals,
        converged=residual_norm <= 1e-4 * max(1.0, abs(nll)),
        grad_norm=residual_norm,
        wall_time=time.perf_counter() - start,
    )
    return theta, entry


def _fit_users(log: EventLog, users: range, config: FitConfig) -> list[tuple[np.ndarray, UserFitEntry]]:
    """`fit_user` over `users`, each user's features built from the log just
    before its fit and dropped after it.  The compensator slope, the
    snapshot work buffer and one Jacobian buffer, sized for the largest of
    these users, are made once, so no user's Jacobian is freed and faulted
    in again."""
    n, m = log.n_users, log.n_products
    slope = _compensator_slope(log)
    work = np.empty(BLOCK * n * m)
    k_max = int(np.bincount(log.users, minlength=n)[users].max(initial=0))
    jac_buffer = np.empty((n + m) * k_max * m)
    return [fit_user(_user_features(log, u, slope, work, jac_buffer), u, config) for u in users]


def fit_all(log: EventLog, config: FitConfig) -> tuple[ModelParams, FitReport]:
    """Fit every user; parallel execution matches sequential bit for bit.

    Features are built per user inside the map and never pickled: the W =
    min(n_workers, N) strided shares fit users w, w + W, ... from the log,
    each through `_workers.run_jobs`, and their results are interleaved
    back into user order.
    """
    n = log.n_users
    shares = min(config.n_workers, n)
    jobs = [partial(_fit_users, log, range(w, n, shares), config) for w in range(shares)]
    results = [None] * n
    for w, chunk in enumerate(_workers.run_jobs(jobs, shares)):
        results[w::shares] = chunk
    theta = np.array([theta_u for theta_u, _ in results])  # row u: [alpha[:, u] | mu[u]]
    report = FitReport([entry for _, entry in results])
    return ModelParams(theta[:, n:].copy(), theta[:, :n].T.copy(), SoftMaxMark(config.beta)), report


def cross_validate_beta(
    log: EventLog, grid, config: FitConfig = FitConfig()
) -> tuple[float, list[tuple[float, float]]]:
    """Pick beta by held-out predictive likelihood on the trailing time window.

    Holds out the trailing `_HOLDOUT` = 0.2 of the window: fits each beta
    on [0, 0.8 T), at most `_MAX_STEPS` = 500 Newton steps per user, and
    scores, on the whole log, the per-event NLL of the events from the split
    on given every event before them (`metrics.held_out_score`), inf when a
    fit gives a tail event zero likelihood.  Lowest score wins; ties, and a
    grid that scores inf throughout, go to the earlier grid entry.  A
    one-entry grid is returned with score nan, and nothing is fitted.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be nonempty")
    if len(grid) == 1:
        return float(grid[0]), [(float(grid[0]), np.nan)]
    t_split = log.horizon * (1.0 - _HOLDOUT)
    n_head = int(np.searchsorted(log.times, t_split, side="left"))
    if n_head == 0 or n_head == len(log):
        raise ValueError("degenerate split: empty train head or test tail")
    head = log.before(t_split).with_horizon(t_split)
    scores = []
    for beta in grid:
        params, _ = fit_all(head, replace(config, beta=float(beta)))
        scores.append((float(beta), held_out_score(log, t_split, params)))
    return min(scores, key=lambda entry: entry[1])[0], scores
