"""Constrained MLE per user by projected Newton on theta >= 0.

The likelihood of a log factorizes over users, so the fit works on one
user's parameters at a time, the packed vector theta = [alpha_col | mu_row]
of length N + M.  A user's features are one array, the stacked event
Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I], with the decayed-count
snapshots B written into its first N rows (`_user_features`), plus the
compensator slope.  The snapshots come in blocks of the user's events
(`_user_snapshots`): each event's share of the log is absorbed in closed
form and one decay matrix sums the shares.  The NLL is theta . slope minus
the event terms (`likelihood._event_loglik`) of the tendencies
g_i = D_i^T theta, so an evaluation (`_eval_features`,
`_gradient_from_eval`) never rescans the event history.  The gradient is
the slope minus one product of the Jacobian with per-event weights.  The
Hessian comes as a factor X with Hessian X X^T: event i's columns of X are
D_i L_i, with L_i an M x (M+1) factor formed once per evaluation for every
event (`_hessian_core`), so the rows of X for any subset of coordinates
are one batched product of those rows of the Jacobian (`_hessian_factor`).

Each user's problem (minimize the per-user NLL over theta >= 0) is convex
and independent of every other user's, so the full fit is a map over users
that may run in parallel with bit-identical results to a sequential run.
The map streams the users: each of W strided shares builds one user's
features at a time from the event log, fits that user and drops them, so
no feature array is pickled to a worker and no process holds more than one
user's features (`build_all_features` gives every user's at once).  The
shares go to `_workers.run_jobs`: the caller fits share 0 itself and forked
children fit the others at once, each process pinned to its own CPU.  The
children inherit the log, so nothing is pickled in, and send their fitted
parameters back through a pipe.  Where fork is unsafe or missing (Windows,
macOS) `run_jobs` fits the shares one after another in the caller.  Every
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
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import _workers
from ._workers import default_worker_count  # noqa: F401  bench/traced.py imports it from here
from .data import EventLog
from .likelihood import BLOCK, InfeasibleLikelihoodError, _event_loglik, _kernel_mass, _observed_cells
from .metrics import held_out_score
from .model import ModelParams, SoftMaxMark


@dataclass(slots=True, eq=False)
class EventFeatures:
    """One user's stacked event Jacobian and compensator slope.

    jac[:, i, :] is the event Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I]
    of the user's i-th event, for theta = [alpha_col | mu_row]: jac[:N] holds
    the N x M decayed counts B(t_i) strictly before t_i (ties at t_i
    excluded) and jac[N:] the M x M identity.  products[i] is that event's
    product.  slope = [excite; T 1] is the compensator's gradient, where
    excite[j] = sum over events of source j before T of 1 - exp(-(T - t)).
    The NLL is theta . slope minus the event terms of g_i = D_i^T theta.

    Two constants every evaluation reads are formed once, from jac and
    products: `flat`, the (N+M, K M) view of jac, and `observed`, the flat
    index of each event's observed cell in a K x M matrix
    (`_observed_cells`).
    """

    jac: np.ndarray  # (N+M, K, M)
    products: np.ndarray  # (K,)
    slope: np.ndarray  # (N+M,)
    horizon: float
    flat: np.ndarray = field(init=False, repr=False)  # (N+M, K M)
    observed: np.ndarray = field(init=False, repr=False)  # (K,)

    def __post_init__(self):
        nm, k, m = self.jac.shape
        self.flat = self.jac.reshape(nm, k * m)
        self.observed = _observed_cells(self.products, m)

    @property
    def n_users(self) -> int:
        return self.jac.shape[0] - self.jac.shape[2]

    @property
    def n_events(self) -> int:
        return self.products.size

    @property
    def n_products(self) -> int:
        return self.jac.shape[2]


# about 1.5e-154: products of factors at least this large are normal
# doubles, and subnormal operands make a matrix product 10-100 times slower
_TINY = math.sqrt(np.finfo(float).tiny)


def build_all_features(log: EventLog) -> dict[int, EventFeatures]:
    """Every user's EventFeatures, each built from the log alone (`_user_features`).

    `fit_all` does not call this: it builds one user's features at a time
    inside its map and drops them after the user's fit.
    """
    slope = _compensator_slope(log)
    work = np.empty(BLOCK * log.n_users * log.n_products)
    return {u: _user_features(log, u, slope, work) for u in range(log.n_users)}


def _compensator_slope(log: EventLog) -> np.ndarray:
    """The (N+M,) compensator slope [excite; T 1] every user's features share:
    excite[j] is the kernel mass over [0, T] of source j's events (`_kernel_mass`)."""
    slope = np.full(log.n_users + log.n_products, log.horizon)
    slope[: log.n_users] = np.bincount(*_kernel_mass(log, 0.0, log.horizon), minlength=log.n_users)
    return slope


def _user_features(
    log: EventLog, user: int, slope: np.ndarray, work: np.ndarray, out: np.ndarray | None = None
) -> EventFeatures:
    """One user's EventFeatures from the log, the shared compensator slope
    and a work buffer of BLOCK N M floats (see `_user_snapshots`).

    The snapshots are written straight into the Jacobian's first N rows.
    Callers reuse one work buffer for every user: a fresh one per block is
    above malloc's mmap threshold on fit-wide, and its page faults cost
    15 ms.  The Jacobian is a view of `out`, of at least (N+M) K M floats,
    when given, so a caller that drops each user's features before the next
    can reuse one buffer for all of them; otherwise it is a fresh array.
    """
    n, m = log.n_users, log.n_products
    own = np.flatnonzero(log.users == user)
    size = (n + m) * own.size * m
    jac = (np.empty(size) if out is None else out[:size]).reshape(n + m, own.size, m)
    _user_snapshots(log, log.times[own], jac[:n], work)
    jac[n:] = np.eye(m)[:, None, :]
    return EventFeatures(jac, log.products[own], slope, log.horizon)


def _user_snapshots(log: EventLog, s: np.ndarray, snapshots: np.ndarray, work: np.ndarray) -> None:
    """Write into `snapshots` the (N, K, M) decayed counts B(s_j) at one
    user's sorted event times s; `work`, of BLOCK N M floats, holds each
    block's product.

    With c_j the number of log events strictly before s_j (so tied events
    stay excluded), c_0 = 0, and D_j the events [c_{j-1}, c_j) decayed to
    s_j, B(s_j) = sum_{j' <= j} exp(-(s_j - s_j')) D_j'.  The events are
    taken in blocks of at most BLOCK.  One bincount over (event, source,
    product) cells gives the D of a block, with weights exp(t_k - s_j) <= 1,
    and its row 0, the previous block's last snapshot, which column 0 of
    the decay matrix carries in.  That matrix is lower triangular by index,
    so that a tied event (whose D is 0) repeats the snapshot before it, and
    one matrix product gives the block's snapshots.  Weights (the carried
    counts among them) and decay factors below _TINY are dropped, so each
    count is exact to within _TINY per event.  Beyond the output, memory
    is O(BLOCK^2 + BLOCK N M) plus the log events of one block.
    """
    n, m, k = log.n_users, log.n_products, s.size
    c = np.searchsorted(log.times, s, side="left")
    last, t_last = np.zeros(n * m), 0.0
    for a in range(0, k, BLOCK):
        sb, cb = s[a : a + BLOCK], c[a : a + BLOCK]
        kb, ev = sb.size, slice(c[a - 1] if a else 0, cb[-1])
        row = np.repeat(np.arange(1, kb + 1), np.diff(cb, prepend=ev.start))
        cells = np.concatenate([np.arange(n * m), (row * n + log.users[ev]) * m + log.products[ev]])
        weights = np.concatenate([last, np.exp(log.times[ev] - sb[row - 1])])
        weights[weights < _TINY] = 0.0
        d = np.bincount(cells, weights, minlength=(kb + 1) * n * m).reshape(kb + 1, n * m)
        decay = np.tril(np.exp(-np.abs(sb[:, None] - np.concatenate([[t_last], sb]))), 1)
        decay[decay < _TINY] = 0.0
        block = np.matmul(decay, d, out=work[: kb * n * m].reshape(kb, n * m))
        snapshots[:, a : a + kb] = block.reshape(kb, n, m).transpose(1, 0, 2)
        last, t_last = block[-1].copy(), sb[-1]


def _eval_features(features, theta, mark):
    """(nll, soft-max mark probabilities f, intensities lam) of one user's
    events at the packed parameters theta, under the soft-max `mark`."""
    g = (theta @ features.flat).reshape(features.jac.shape[1:])
    event_ll, lam, f = _event_loglik(g, features.observed, mark)
    nll = theta @ features.slope - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll), f, lam


def _gradient_from_eval(features, beta, f, lam):
    """Gradient of the per-user NLL given the cached evaluation of f and lam.

    The event terms of the NLL have gradient -sum_i D_i w_i, with event
    weights w_i = 1/lambda_i 1 + beta (e_{p_i} - f_i), so the gradient is
    the compensator slope minus one product of the Jacobian with w.
    """
    w = -beta * f  # a new contiguous array, so its ravel is a view
    w.ravel()[features.observed] += beta
    w += (1.0 / lam)[:, None]
    return features.slope - features.flat @ w.ravel()


def _hessian_core(beta, f, lam):
    """The (K, M, M+1) per-event factors L_i of the per-user NLL Hessian,
    given f and lam: event i's columns of the Hessian factor are D_i L_i.

    Only the -log lambda and log-sum-exp terms are curved, so the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T.
    As f_i sums to 1, diag(f_i) - f_i f_i^T = S_i S_i^T with
    S_i = (I - f_i 1^T) diag(sqrt f_i), so the Hessian is X X^T for the
    (N+M) x K(M+1) matrix X whose columns for event i are D_i L_i, with
    L_i = [beta S_i | 1 / lambda_i].
    """
    k, m = f.shape
    root = np.sqrt(f)
    core = np.empty((k, m, m + 1))
    np.multiply(f[:, :, None], -beta * root[:, None, :], out=core[:, :, :m])
    core.reshape(k, m * (m + 1))[:, :: m + 2] += beta * root  # the diagonal of each beta S_i
    core[:, :, m] = (1.0 / lam)[:, None]
    return core


def _hessian_factor(jac, core):
    """Rows of the Hessian factor X (`_hessian_core`) for the rows of `jac`
    given, any subset of the stacked Jacobian's: one batched product
    D_i L_i over the events, written straight into X's (rows, K, M+1) layout."""
    rows, k, m = jac.shape
    x = np.empty((rows, k, m + 1))
    np.matmul(jac.transpose(1, 0, 2), core, out=x.transpose(1, 0, 2))
    return x.reshape(rows, k * (m + 1))


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
        if isinstance(self.n_workers, bool) or not isinstance(self.n_workers, numbers.Integral):
            raise TypeError(f"n_workers must be an integer, not {self.n_workers!r}")
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
    for w, chunk in enumerate(_workers.run_jobs(jobs)):
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
