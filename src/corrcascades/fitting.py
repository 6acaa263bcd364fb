"""Constrained MLE per user by projected Newton on theta >= 0.

The likelihood of a log factorizes over users, so the fit works on one
user's parameters at a time, the packed vector theta = [alpha_col | mu_row]
of length N + M.  A user's features are one array, the stacked event
Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I], with the decayed-count
snapshots B written into its first N rows (`_user_jacobian`), plus the
compensator slope.  The snapshots come in blocks of the user's events
(`_user_snapshots`): each event's share of the log is absorbed in closed
form and one decay matrix sums the shares.  The NLL is theta . slope minus
the soft-max event terms of the tendencies g_i = D_i^T theta, so an
evaluation never rescans the event history.  The gradient is the slope
minus one product of the Jacobian with per-event weights.  The Hessian
comes as a factor X with Hessian X X^T: event i's columns of X are
D_i L_i, with L_i an M x (M+1) factor formed once per evaluation for every
event (`_hessian_core`), so the rows of X for any subset of coordinates
are one batched product of those rows of the Jacobian (`_hessian_factor`).

Each user's problem (minimize the per-user NLL over theta >= 0) is convex
and independent of every other user's, so the full fit is a map over users
that may run in parallel with bit-identical results to a sequential run.
The users are solved in lockstep groups (`_groups`): sorted by event count
and cut so that a group's Jacobians, stacked and zero-padded to its largest
event count, fit `_GROUP_BYTES`.  The solver advances a whole group per
call (`_projected_newton`): one batched evaluation (`_eval_group`),
gradient (`_group_gradient`) and set of per-event factors per iteration,
while each user keeps its own step, line search, stop tests and free-block
direction.  The groups depend on the log alone, and each group computes the
same bits in any process.  The map streams the groups: each of W shares,
dealt whole groups balanced by padded bytes (`_shares`), builds one group's
features at a time from the event log into one reused Jacobian buffer, fits
that group and drops it, so no feature array is pickled to a worker and no
process holds more than one group's features (`build_all_features` gives
every user's at once).  The shares go to `_workers.run_jobs`: the caller
fits share 0 itself and forked children fit the others at once, each
process pinned to its own CPU.  The children inherit the log, so nothing is
pickled in, and send their fitted parameters back through a pipe.  Where
fork is unsafe or missing (Windows, macOS) `run_jobs` fits the shares one
after another in the caller.  Every iteration sends the coordinates at the
bound to 0 and steps the others with the exact Hessian (Bertsekas 1982,
"Projected Newton methods for optimization problems with simple
constraints"), of which it forms only the factor of the free rows, from one
set of per-event factors, solved in whichever of coordinate space and event
space is smaller.  Influence starts at 0, so a source whose gradient points
to the bound stays pinned from the first iteration instead of widening the
early free blocks.
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
from .likelihood import BLOCK, InfeasibleLikelihoodError, _kernel_mass, _observed_cells, _softmax_loglik
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
    The solver reads it as a group of one (`_Group.of`).
    """

    jac: np.ndarray  # (N+M, K, M)
    products: np.ndarray  # (K,)
    slope: np.ndarray  # (N+M,)
    horizon: float

    @property
    def n_users(self) -> int:
        return self.jac.shape[0] - self.jac.shape[2]

    @property
    def n_events(self) -> int:
        return self.products.size

    @property
    def n_products(self) -> int:
        return self.jac.shape[2]


@dataclass(slots=True, eq=False)
class _Group:
    """The features of G users stacked for the solver, zero-padded to the
    group's largest event count K (`_Group.stack`).

    jac[g, :, :counts[g]] is user g's stacked event Jacobian
    (`EventFeatures.jac`) and jac[g, :, counts[g]:] is 0; products[g] holds
    its events' products, padded with product 0.  The compensator slope is
    the log's, which every user shares.  `observed` is the flat
    index of each event's observed cell in a G x K x M array
    (`_observed_cells` over the G K events), and `pad` is M at the padding
    events and 0 at the others: added to the intensities, it makes each
    padding event's intensity M, its soft-max normalizer, so its event term
    is log 1 = 0 and its gradient weight finite, and its zero Jacobian adds
    nothing to the gradient.  `group[a:b]` is the users a..b-1 as views of
    these arrays, so a subset of a group costs no copy of its Jacobian.
    """

    jac: np.ndarray  # (G, N+M, K, M)
    products: np.ndarray  # (G, K)
    counts: np.ndarray  # (G,)
    slope: np.ndarray  # (N+M,)
    observed: np.ndarray  # (G K,)
    pad: np.ndarray  # (G, K)

    @classmethod
    def stack(cls, jac: np.ndarray, products: np.ndarray, counts: np.ndarray, slope: np.ndarray) -> _Group:
        """The group of the users whose Jacobians, zero-padded, are `jac`,
        with `products` (G, K) their events' products, zero-padded, and
        `counts` their event counts."""
        k, m = jac.shape[2:]
        pad = np.where(np.arange(k) < counts[:, None], 0.0, float(m))
        return cls(jac, products, counts, slope, _observed_cells(products.ravel(), m), pad)

    @classmethod
    def of(cls, features: EventFeatures) -> _Group:
        """One user's features as a group of one, sharing their arrays."""
        return cls.stack(features.jac[None], features.products[None], np.array([features.n_events]), features.slope)

    def __getitem__(self, users: slice) -> _Group:
        a, b = users.start, users.stop
        k, m = self.jac.shape[2:]
        observed = self.observed[a * k : b * k] - a * k * m
        return _Group(self.jac[a:b], self.products[a:b], self.counts[a:b], self.slope, observed, self.pad[a:b])

    @property
    def flat(self) -> np.ndarray:
        """The (G, N+M, K M) view of jac."""
        size, nm, k, m = self.jac.shape
        return self.jac.reshape(size, nm, k * m)


# about 1.5e-154: products of factors at least this large are normal
# doubles, and subnormal operands make a matrix product 10-100 times slower
_TINY = math.sqrt(np.finfo(float).tiny)

# the zero-padded stacked Jacobian of one group of users (`_groups`) fits
# in this many bytes, unless the group is one user larger than that.  On
# fit-wide 4 MiB solves 6% faster, but cuts fit's 50 users into 3 groups,
# which no 2 shares split evenly
_GROUP_BYTES = 2 << 20


def build_all_features(log: EventLog) -> dict[int, EventFeatures]:
    """Every user's EventFeatures, each built from the log alone (`_user_features`).

    `fit_all` does not call this: it builds one group of users' features
    at a time inside its map and drops them after the group's fit.
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


def _user_features(log: EventLog, user: int, slope: np.ndarray, work: np.ndarray) -> EventFeatures:
    """One user's EventFeatures from the log, the shared compensator slope
    and a work buffer of BLOCK N M floats (`_user_jacobian`)."""
    n, m = log.n_users, log.n_products
    own = np.flatnonzero(log.users == user)
    jac = np.empty((n + m, own.size, m))
    _user_jacobian(log, own, jac, work)
    return EventFeatures(jac, log.products[own], slope, log.horizon)


def _user_jacobian(log: EventLog, own: np.ndarray, jac: np.ndarray, work: np.ndarray) -> None:
    """Write the stacked event Jacobian of one user's events `own` (indices
    into the log, in time order) into the first own.size columns of `jac`,
    (N+M, K', M) with K' >= own.size, and zeros into the rest.

    The snapshots go straight into the first N rows (`_user_snapshots`).
    Callers reuse one work buffer, of BLOCK N M floats, for every user: a
    fresh one per block is above malloc's mmap threshold on fit-wide, and
    its page faults cost 15 ms.
    """
    n, m, k = log.n_users, log.n_products, own.size
    _user_snapshots(log, log.times[own], jac[:n, :k], work)
    jac[n:, :k] = np.eye(m)[:, None, :]
    jac[:, k:] = 0.0


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


def _eval_group(group, theta, mark):
    """(nll, soft-max mark probabilities f, intensities lam) of each user of
    `group` at its row of the packed parameters theta (G, N+M), under the
    soft-max `mark`: nll (G,), f (G, K, M) and lam (G, K).

    A user's nll is inf when one of its events has intensity <= 0 (such a
    user's lam reads 1 there), and padding events have lam = M (`_Group`).
    """
    size, _, k, m = group.jac.shape
    g = np.matmul(theta[:, None, :], group.flat).reshape(size, k, m)
    lam = g.sum(axis=2)
    lam += group.pad
    feasible = lam.min(axis=1, initial=np.inf) > 0
    infeasible = not feasible.all()
    if infeasible:
        lam[lam <= 0] = 1.0
    event_ll, f = _softmax_loglik(g, lam, group.observed, mark.beta)
    nll = theta @ group.slope - event_ll
    if infeasible:
        nll[~feasible] = np.inf
    return nll, f, lam


def _group_gradient(group, beta, f, lam):
    """The (G, N+M) gradients of the per-user NLLs given the cached
    evaluation of f and lam (`_eval_group`).

    The event terms of a user's NLL have gradient -sum_i D_i w_i, with event
    weights w_i = 1/lambda_i 1 + beta (e_{p_i} - f_i), so the gradient is
    the compensator slope minus one product of the Jacobian with w.
    """
    size, _, k, m = group.jac.shape
    w = -beta * f  # a new contiguous array, so its ravel is a view
    w.ravel()[group.observed] += beta
    w += (1.0 / lam)[:, :, None]
    return group.slope - np.matmul(group.flat, w.reshape(size, k * m, 1))[:, :, 0]


def _hessian_core(beta, f, lam):
    """The (..., K, M, M+1) per-event factors L_i of the per-user NLL
    Hessian, given f (..., K, M) and lam (..., K): event i's columns of the
    Hessian factor are D_i L_i.

    Only the -log lambda and log-sum-exp terms are curved, so the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T.
    As f_i sums to 1, diag(f_i) - f_i f_i^T = S_i S_i^T with
    S_i = (I - f_i 1^T) diag(sqrt f_i), so the Hessian is X X^T for the
    (N+M) x K(M+1) matrix X whose columns for event i are D_i L_i, with
    L_i = [beta S_i | 1 / lambda_i].
    """
    m = f.shape[-1]
    root = np.sqrt(f)
    core = np.empty((*f.shape, m + 1))
    np.multiply(f[..., None], -beta * root[..., None, :], out=core[..., :m])
    core.reshape(-1, m * (m + 1))[:, :: m + 2] += beta * root.reshape(-1, m)  # the diagonal of each beta S_i
    core[..., m] = (1.0 / lam)[..., None]
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
    included).  The users of a group are solved together, so `wall_time`
    is the group's solve time divided by its users: the entries' wall
    times still sum to the time spent solving."""

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


def _free_step(jac, core, grad, theta, at_bound, direction):
    """Write into `direction` one user's ridge Newton step on the Hessian
    block of its coordinates off the bound (`_projected_newton`); `jac` and
    `core` are the user's event Jacobian and per-event factors."""
    free = (~at_bound).nonzero()[0]
    g_free = grad[free]
    if g_free.any():  # a zero free gradient takes no step, and a zero ridge no Woodbury
        ridge = _RIDGE * math.sqrt(g_free @ g_free) / math.sqrt(theta @ theta)
        direction[free] = _ridge_step(_hessian_factor(jac[free], core), g_free, ridge)


def _span(mask):
    """The slice from the first to past the last True entry of `mask`."""
    on = mask.nonzero()[0]
    return slice(int(on[0]), int(on[-1]) + 1)


def _projected_newton(group, theta, config):
    """Projected Newton (Bertsekas 1982) on theta >= 0 for every user of a
    group at once, with one step rule.

    Each user's iteration is its own; the group only shares the array
    operations.  Each iteration makes one evaluation of the gradients, KKT
    residuals, step-rule masks and per-event Hessian factors of the users
    still iterating, and each round of the line search one evaluation of
    the users still searching, over the contiguous users that span them
    (views of the group, `_Group`).  Masks keep every user's own step
    length, Armijo test, retry, step cap, stop tests and counts.

    A coordinate is at the bound when its gradient points outward and
    setting it to 0 changes the NLL by less than the NLL's resolution,
    grad * theta <= 8 ulp(NLL), the resolution of the stop test below; it
    steps to 0.  A coordinate that no event sees has gradient equal to its
    compensator slope, which is >= 0, so at 0 it is at the bound or takes
    no step.  Every other coordinate is in the free set F and takes a
    Newton step on the exact Hessian block X_F X_F^T, whose factor is one
    batched product of the free rows of the user's event Jacobian with the
    per-event factors L_i (`_hessian_core`, `_hessian_factor`), formed once
    per iteration (`_free_step`).  With fewer events than dimensions that
    block is singular and the NLL is linear along its null space.  A ridge
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

    A user stops when the norm of its natural KKT residual theta -
    max(theta - grad, 0) reaches `_GRAD_TOL`, when the predicted decrease
    -grad . d falls below the NLL's resolution, when the line search finds
    no decrease and the retry adds no coordinate to the bound or fails too,
    or after `_MAX_STEPS` steps.  Returns per-user arrays (theta, nll,
    residual, iterations, evaluations): the NLL at theta and that residual
    norm there, which every exit computes at the returned point;
    iterations counts gradient evaluations, the final check included.
    """
    beta, mark = config.beta, SoftMaxMark(config.beta)
    value, f, lam = _eval_group(group, theta, mark)
    if not np.isfinite(value).all():
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    size = theta.shape[0]
    iterations = np.zeros(size, dtype=int)
    evals = np.ones(size, dtype=int)
    residual_norm = np.zeros(size)
    live = np.ones(size, dtype=bool)
    while live.any():
        users = _span(live)
        # views: a user cleared in `here` stops in `live`
        part, here, th = group[users], live[users], theta[users]
        iterations[users] += here
        grad = _group_gradient(part, beta, f[users], lam[users])
        residual = th - np.maximum(th - grad, 0.0)
        norm = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        np.copyto(residual_norm[users], norm, where=here)
        here &= (norm > _GRAD_TOL) & (iterations[users] <= _MAX_STEPS)
        if not here.any():
            continue
        resolution = 8.0 * np.spacing(np.abs(value[users]))
        at_bound = (grad > 0) & (grad * th <= resolution[:, None])
        core = _hessian_core(beta, f[users], lam[users])
        counts = part.counts.tolist()
        direction = np.where(at_bound, -th, 0.0)

        def solve(i):
            k = counts[i]
            _free_step(part.jac[i, :, :k], core[i, :k], grad[i], th[i], at_bound[i], direction[i])

        for i in here.nonzero()[0].tolist():
            solve(i)
        slope = np.einsum("ij,ij->i", grad, direction)
        here &= -slope > resolution
        # the line search, in rounds over the span of the users still searching;
        # th keeps its rows until a user accepts a step and leaves the search
        searching = here.copy()
        step = np.ones(len(th))
        backtracks = np.zeros(len(th), dtype=int)
        retried = np.zeros(len(th), dtype=bool)
        while searching.any():
            trial = _span(searching)
            cand = np.maximum(th[trial] + step[trial, None] * direction[trial], 0.0)
            cand_value, cand_f, cand_lam = _eval_group(part[trial], cand, mark)
            now = searching[trial]
            evals[users][trial] += now
            accept = now & (cand_value < value[users][trial] + _LS_DECREASE * step[trial] * slope[trial])
            if accept.any():
                rows = users.start + trial.start + accept.nonzero()[0]
                theta[rows], value[rows], f[rows], lam[rows] = (
                    cand[accept], cand_value[accept], cand_f[accept], cand_lam[accept]
                )
                now &= ~accept
            step[searching] *= _LS_SHRINK
            backtracks[searching] += 1
            for i in (backtracks == _MAX_BACKTRACKS).nonzero()[0].tolist():
                # retry with the coordinates the full step clipped against an
                # outward gradient at the bound
                clipped = (th[i] + direction[i] < 0) & (grad[i] > 0)
                backtracks[i], step[i] = 0, 1.0
                if not retried[i] and clipped.any():
                    retried[i] = True
                    at_bound[i] |= clipped
                    direction[i] = np.where(at_bound[i], -th[i], 0.0)
                    solve(i)
                    slope[i] = grad[i] @ direction[i]
                    if -slope[i] > resolution[i]:
                        continue
                searching[i] = here[i] = False
    return theta, value, residual_norm, iterations, evals


def _fit_group(group: _Group, users, horizon: float, config: FitConfig):
    """Fit every user of `group`, labelled `users`, from the start: influence
    0 and baselines at the per-product event rate.  Returns (theta
    (G, N+M), the users' report entries).  Raises ValueError when a user
    has events but the horizon is 0: with no compensator the NLL is
    unbounded below and has no minimizer."""
    if horizon == 0 and group.counts.any():
        raise ValueError("a log with events at horizon 0 has no maximum-likelihood estimate")
    start = time.perf_counter()
    size, nm, _, m = group.jac.shape
    n = nm - m
    theta = np.zeros((size, nm))
    if horizon > 0:
        cells = (np.arange(size)[:, None] * m + group.products)[group.pad == 0]
        theta[:, n:] = np.bincount(cells, minlength=size * m).reshape(size, m) / horizon
    theta, nll, residual_norm, iterations, evals = _projected_newton(group, theta, config)
    share = (time.perf_counter() - start) / size
    entries = [
        UserFitEntry(
            user=int(users[g]),
            nll=float(nll[g]),
            outer_iterations=int(iterations[g]),
            inner_iterations=int(evals[g]),
            converged=bool(residual_norm[g] <= 1e-4 * max(1.0, abs(nll[g]))),
            grad_norm=float(residual_norm[g]),
            wall_time=share,
        )
        for g in range(size)
    ]
    return theta, entries


def fit_user(features: EventFeatures, user: int, config: FitConfig) -> tuple[np.ndarray, UserFitEntry]:
    """Projected-Newton MLE of one user's packed parameters over theta >= 0,
    solved as a group of one.

    `features` are the user's (see `build_all_features`) and `user` labels
    the report entry.  Returns theta = [alpha_col | mu_row], of length
    N + M, and the entry, whose KKT certificate is the solver's residual
    norm |theta - max(theta - grad, 0)| at theta (`grad_norm`, zero exactly
    at the optimum over theta >= 0); `converged` holds when it is at most
    1e-4 * max(1, |nll|).  Raises ValueError when the user has events but
    the horizon is 0: with no compensator the NLL is unbounded below and
    has no minimizer.
    """
    theta, entries = _fit_group(_Group.of(features), [user], features.horizon, config)
    return theta[0], entries[0]


def _groups(log: EventLog) -> list[np.ndarray]:
    """The log's users sorted by event count (ties by id), cut into
    consecutive groups whose zero-padded stacked Jacobian, users x (N+M) x
    largest event count x M doubles, fits `_GROUP_BYTES`; a user larger
    than that is a group of one.  The groups depend on the log alone, so a
    user is solved in the same group, to the same bits, at any worker
    count."""
    n, m = log.n_users, log.n_products
    counts = np.bincount(log.users, minlength=n)
    order = np.argsort(counts, kind="stable")
    per_event = (n + m) * m * 8  # bytes per user per padded event
    groups, first = [], 0
    for j, user in enumerate(order.tolist()):
        if j > first and (j + 1 - first) * int(counts[user]) * per_event > _GROUP_BYTES:
            groups.append(order[first:j])
            first = j
    groups.append(order[first:])
    return groups


def _shares(log: EventLog, n_workers: int) -> list[list[np.ndarray]]:
    """`_groups` dealt to min(n_workers, groups) shares, balanced by padded
    bytes: largest first, each to the least-loaded share, the first of
    equals on ties."""
    counts = np.bincount(log.users, minlength=log.n_users)
    groups = _groups(log)
    size = [len(g) * int(counts[g].max()) for g in groups]
    shares = [[] for _ in range(min(n_workers, len(groups)))]
    load = [0] * len(shares)
    for i in sorted(range(len(groups)), key=lambda i: -size[i]):
        w = load.index(min(load))
        shares[w].append(groups[i])
        load[w] += size[i]
    return shares


def _fit_users(log: EventLog, groups: list[np.ndarray], config: FitConfig) -> list[tuple[np.ndarray, UserFitEntry]]:
    """`_fit_group` over `groups`, each group's features built from the log
    just before its fit and dropped after it.  The compensator slope, the
    snapshot work buffer and one Jacobian buffer, sized for the largest of
    these groups, are made once, so no group's Jacobian is freed and
    faulted in again."""
    n, m = log.n_users, log.n_products
    slope = _compensator_slope(log)
    work = np.empty(BLOCK * n * m)
    counts = np.bincount(log.users, minlength=n)
    ends = np.cumsum(counts)
    by_user = np.argsort(log.users, kind="stable")  # each user's events in time order
    width = [int(counts[g].max()) for g in groups]
    buffer = np.empty(max(len(g) * k for g, k in zip(groups, width)) * (n + m) * m)
    results = []
    for users, k in zip(groups, width):
        jac = buffer[: len(users) * (n + m) * k * m].reshape(len(users), n + m, k, m)
        products = np.zeros((len(users), k), dtype=log.products.dtype)
        for slot, user in enumerate(users.tolist()):
            own = by_user[ends[user] - counts[user] : ends[user]]
            _user_jacobian(log, own, jac[slot], work)
            products[slot, : own.size] = log.products[own]
        group = _Group.stack(jac, products, counts[users], slope)
        theta, entries = _fit_group(group, users, log.horizon, config)
        results.extend(zip(theta, entries))
    return results


def fit_all(log: EventLog, config: FitConfig) -> tuple[ModelParams, FitReport]:
    """Fit every user; parallel execution matches sequential bit for bit.

    Features are built per group inside the map and never pickled: the
    users' groups (`_groups`), dealt to min(n_workers, groups) shares
    balanced by bytes (`_shares`), are fitted from the log through
    `_workers.run_jobs`, and their results are put back into user order.
    """
    n = log.n_users
    jobs = [partial(_fit_users, log, groups, config) for groups in _shares(log, config.n_workers)]
    theta = np.empty((n, n + log.n_products))  # row u: [alpha[:, u] | mu[u]]
    entries = [None] * n
    for chunk in _workers.run_jobs(jobs):
        for theta_u, entry in chunk:
            theta[entry.user], entries[entry.user] = theta_u, entry
    report = FitReport(entries)
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
