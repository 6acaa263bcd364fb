"""Exact log-likelihood, its per-user decomposition, gradient and Hessian.

The NLL is a compensator minus a sum of event terms log lambda + log f,
whatever the mark model.  `_event_loglik` scores an event-by-product
tendency matrix for both mark models, for a time window (`window_nll`)
and for one user's cached features alike.  A window's tendencies come in
blocks of events (`_window_tendencies`): the history before the window
is absorbed in closed form (`model.decayed_counts`), and within a block
the events see each other through one kernel matrix.  That block step
(`_block_sweep`) is shared with the sampler's soft-max draw, so scoring
and sampling follow one tie rule.  A user's features
come in blocks of its events in the same way (`_user_snapshots`): each
event's share of the log is absorbed in closed form and one decay matrix
sums the shares.

The likelihood of a log factorizes over users, so fitting works on one
user's parameters at a time, the packed vector theta = [alpha_col | mu_row]
of length N + M.  A user's features are one array, the stacked event
Jacobian D_i = dg(t_i)/dtheta = [B(t_i); I], with the decayed-count
snapshots B written into its first N rows (`_user_features`), plus the
compensator slope.  The NLL is theta . slope minus the event terms of the
tendencies g_i = D_i^T theta, so per-user evaluations (`user_nll`,
`user_nll_gradient`) never rescan the event history.  The fit builds the
features per user inside its map and never pickles them;
`build_all_features` gives every user's at once.  The gradient is the
slope minus one product of the Jacobian with per-event weights.  The
Hessian comes as a factor X with Hessian X X^T, built for the rows the
solver asks for (`_hessian_from_eval`), and as its diagonal in closed form
for the same kind of row subset (`_hessian_diagonal`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import EventLog
from .model import MarkModel, ModelParams, SoftMaxMark, check_dimensions, decayed_counts


class InfeasibleLikelihoodError(ValueError):
    """Zero (or negative) intensity / mark density at an observed event."""


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

    Three constants every evaluation reads are formed once, from jac and
    products: `flat`, the (N+M, K M) view of jac; `observed`, the flat
    index of each event's observed cell in a K x M matrix
    (`_observed_cells`); and `jac_sum`, the (N+M, K) sums D_i 1 over
    products, taken as M - 1 in-order adds.  For M < 8 these equal
    jac.sum(axis=2) bit for bit; from M = 8 on numpy sums pairwise, so
    their last bits can differ.
    """

    jac: np.ndarray  # (N+M, K, M)
    products: np.ndarray  # (K,)
    slope: np.ndarray  # (N+M,)
    horizon: float
    flat: np.ndarray = field(init=False, repr=False)  # (N+M, K M)
    observed: np.ndarray = field(init=False, repr=False)  # (K,)
    jac_sum: np.ndarray = field(init=False, repr=False)  # (N+M, K)

    def __post_init__(self):
        nm, k, m = self.jac.shape
        self.flat = self.jac.reshape(nm, k * m)
        self.observed = _observed_cells(self.products, m)
        self.jac_sum = self.jac[:, :, 0].copy()
        for q in range(1, m):
            self.jac_sum += self.jac[:, :, q]

    @property
    def n_users(self) -> int:
        return self.jac.shape[0] - self.jac.shape[2]

    @property
    def n_events(self) -> int:
        return self.products.size

    @property
    def n_products(self) -> int:
        return self.jac.shape[2]


BLOCK = 64  # events per block of `_window_tendencies` and `_user_snapshots`
# about 1.5e-154: products of factors at least this large are normal
# doubles, and subnormal operands make a matrix product 10-100 times slower
_TINY = math.sqrt(np.finfo(float).tiny)


def build_all_features(log: EventLog) -> dict[int, EventFeatures]:
    """Every user's EventFeatures, each built from the log alone (`_user_features`).

    `fitting.fit_all` does not call this: it builds one user's features at
    a time inside its map and drops them after the user's fit.
    """
    slope = _compensator_slope(log)
    work = np.empty(BLOCK * log.n_users * log.n_products)
    return {u: _user_features(log, u, slope, work) for u in range(log.n_users)}


def _kernel_mass(log: EventLog, t_start: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """The source of every event before t_end and its kernel mass in the
    window [t_start, t_end], exp(-max(t_start - t, 0)) - exp(-(t_end - t))."""
    past = log.times < t_end
    ts = log.times[past]
    return log.users[past], np.exp(-np.maximum(t_start - ts, 0.0)) - np.exp(-(t_end - ts))


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


def _observed_cells(products: np.ndarray, n_products: int) -> np.ndarray:
    """Flat index i M + products[i] of each event's observed cell in a K x M
    event-by-product matrix."""
    return np.arange(products.size) * n_products + products


def _event_loglik(
    g: np.ndarray, observed: np.ndarray, mark: MarkModel
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Sum over events of log lambda + log f(product), the intensities, and
    the soft-max mark probabilities (None under linear marks).

    Row i of the K x M matrix g holds the tendencies at event i, whose
    observed cell is g.flat[observed[i]] (`_observed_cells`).  Under linear
    marks f = g_p / lambda, so the event term is log g_p.
    """
    lam = g.sum(axis=1)
    if (lam <= 0).any():
        raise InfeasibleLikelihoodError("zero intensity at an observed event")
    g_obs = g.take(observed)
    if isinstance(mark, SoftMaxMark):
        z = mark.beta * g
        zmax = z.max(axis=1)
        expz = np.exp(z - zmax[:, None])
        norm = expz.sum(axis=1)
        lse = zmax + np.log(norm)
        loglik = float(np.log(lam).sum() + mark.beta * g_obs.sum() - lse.sum())
        return loglik, lam, expz / norm[:, None]
    if (g_obs <= 0).any():
        raise InfeasibleLikelihoodError("zero mark density at an observed event")
    return float(np.log(g_obs).sum()), lam, None


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


def _hessian_from_eval(jac, jac_sum, beta, f, lam):
    """Factor X of the exact per-user NLL Hessian X X^T, given f and lam.

    Only the -log lambda and log-sum-exp terms are curved, so the Hessian is
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2
        + beta^2 sum_i D_i (diag(f_i) - f_i f_i^T) D_i^T.
    As f_i sums to 1, diag(f_i) - f_i f_i^T = S_i S_i^T with
    S_i = (I - f_i 1^T) diag(sqrt f_i), so the Hessian is X X^T for the
    (N+M) x K(M+1) matrix X whose columns for event i are
    beta D_i S_i = beta (D_i - D_i f_i 1^T) diag(sqrt f_i) and
    D_i 1 / lambda_i.  `jac` is the features' stacked Jacobian and `jac_sum`
    its (N+M, K) sum over products, D_i 1 (`EventFeatures.jac_sum`); any
    subset of their rows gives the matching rows of X, and the solver
    passes only its free rows.
    The subtract and multiply run on a contiguous array copied into X: on
    X's strided columns numpy buffers them, at 1.6 times the time.
    """
    nm, k, m = jac.shape
    x = np.empty((nm, k, m + 1))
    scaled = jac - np.einsum("jiq,iq->ji", jac, f)[:, :, None]
    scaled *= beta * np.sqrt(f)
    x[:, :, :m] = scaled
    np.divide(jac_sum, lam, out=x[:, :, m])
    return x.reshape(nm, k * (m + 1))


def _hessian_diagonal(jac, jac_sum, beta, f, lam):
    """Diagonal of the Hessian X X^T of `_hessian_from_eval`, in closed form
    without X, for the rows j of `jac` and `jac_sum` (any subset):
    H_jj = sum_i (D_i 1)_j^2 / lambda_i^2
        + beta^2 sum_i (sum_q f_iq D_ijq^2 - (D_i f_i)_j^2).

    The beta^2 part is a sum of soft-max variances, so it is >= 0 but can
    cancel to a negative rounding error; it is clamped at 0.  The first term
    is > 0 on every row the events see.
    """
    jac_f = np.einsum("jiq,iq->ji", jac, f)
    spread = np.einsum("jiq,jiq,iq->j", jac, jac, f) - np.einsum("ji,ji->j", jac_f, jac_f)
    curve = jac_sum / lam
    return np.einsum("ji,ji->j", curve, curve) + beta**2 * np.maximum(spread, 0.0)


def _checked_theta(features: EventFeatures, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != features.slope.shape:
        raise ValueError(f"theta must be a vector of length N + M = {features.slope.size}")
    if np.any(theta < 0):
        raise ValueError("parameters must be nonnegative")
    return theta


def user_nll(features: EventFeatures, theta, beta: float) -> float:
    """Negative log-likelihood of one user's events under soft-max marks, at
    the packed parameters theta = [alpha_col | mu_row]."""
    return _eval_features(features, _checked_theta(features, theta), SoftMaxMark(beta))[0]


def user_nll_gradient(features: EventFeatures, theta, beta: float) -> np.ndarray:
    """Analytic gradient of `user_nll` in the packed [alpha_col | mu_row] layout."""
    _, f, lam = _eval_features(features, _checked_theta(features, theta), SoftMaxMark(beta))
    return _gradient_from_eval(features, beta, f, lam)


def _block_starts(times: np.ndarray, lo: int, last: int) -> list[int]:
    """Starts of the scoring blocks of the events [lo, last), each a tie-run start.

    `lo` and `last` must fall between tie runs.  A block starts on the tie
    run of every BLOCK-th event, and a run longer than BLOCK also ends its
    block, so every block holds fewer than 2 * BLOCK events or one tie run.
    """
    grid = times[lo:last:BLOCK]
    left = np.searchsorted(times, grid, side="left")
    right = np.searchsorted(times, grid, side="right")
    long_run_ends = right[(right - left > BLOCK) & (right < last)]
    return sorted({*left.tolist(), *long_run_ends.tolist()})  # np.unique would import numpy.ma


def _block_sweep(alpha, b, t_b, times, users, products, lo, last):
    """The blocks of `_block_starts` over the events [lo, last), each with
    the excitation of every event before it.

    `b` holds the decayed counts at time t_b <= times[lo] of the events
    before `lo`.  Yields (s, e, excite, kernel) for each block [s, e):
    excite[i] = exp(-(t_i - t_b)) alpha[:, u_i]^T B_b, with B_b the counts
    of every event before the block at t_b, the given time for the first
    block and the block's first time after it; and kernel[i, k] =
    alpha[u_k, u_i] exp(-(t_i - t_k)) for t_k < t_i, else 0, so tied events
    never see each other (None for a block of one tie run).  The block's
    tendencies are mu[u] + excite + kernel @ onehot(products[s:e]).  B_b is
    carried on with products[s:e] as they stand when the generator resumes,
    so a caller may draw them in between.
    """
    m = b.shape[1]
    starts = _block_starts(times, lo, last)
    for s, e in zip(starts, starts[1:] + [last]):
        t, u = times[s:e], users[s:e]
        excite = np.exp(-(t - t_b))[:, None] * (alpha[:, u].T @ b)
        kernel = None
        if t[-1] > t[0]:
            dt = t[:, None] - t
            # alpha[u][:, u] is alpha[u_k, u_i] at [k, i], half the cost of one 2-d gather
            kernel = np.exp(-dt, out=np.zeros_like(dt), where=dt > 0) * alpha[u][:, u].T
        yield s, e, excite, kernel
        if e < last:
            carried = np.bincount(u * m + products[s:e], np.exp(-(times[e] - t)), minlength=b.size)
            b = b * math.exp(-(times[e] - t_b)) + carried.reshape(b.shape)
            t_b = times[e]


def _window_tendencies(log: EventLog, params: ModelParams, first: int, last: int) -> np.ndarray:
    """Tendencies g (last - first, M) at the events [first, last), whole history seen.

    `last` must fall between tie runs.  The history before the tie run of
    event `first` is absorbed in closed form, then the events from that
    run's start on are scored in the blocks of `_block_sweep`, which the
    sampler's soft-max draw shares.
    """
    m = params.n_products
    if first == last:
        return np.empty((0, m))
    times, users, products = log.times, log.users, log.products
    lo = int(np.searchsorted(times, times[first], side="left"))
    b = decayed_counts(log, times[lo], 0, lo)
    onehot = np.eye(m)
    g = np.empty((last - lo, m))
    for s, e, excite, kernel in _block_sweep(params.alpha, b, times[lo], times, users, products, lo, last):
        g[s - lo : e - lo] = params.mu[users[s:e]] + excite
        if kernel is not None:
            g[s - lo : e - lo] += kernel @ onehot[products[s:e]]
    return g[first - lo :]


def window_nll(
    log: EventLog, params: ModelParams, t_start: float, t_end: float, first_event: int | None = None
) -> float:
    """NLL of the events in (t_start, t_end] with full preceding history.

    Events exactly at t_start belong to the earlier window, at t_start = 0
    too, so adjacent windows add up exactly to the whole-log NLL.
    `first_event` instead scores the events from that index on: 0 for the
    whole log with its time-0 events, or a split that falls inside the
    events at t_start (a train log and a test log both holding events at
    the train horizon).  The events before it must be at or before t_start
    and those from it on at or after t_start.
    Supports both mark models.  Raises ValueError unless the log has the
    parameters' users and products.  The history before the window costs
    one vectorized pass, and each scored event O(BLOCK * (N + M)).
    """
    check_dimensions(log, params)
    if not 0 <= t_start <= t_end <= log.horizon:
        raise ValueError("window must satisfy 0 <= t_start <= t_end <= horizon")
    times = log.times
    last = int(np.searchsorted(times, t_end, side="right"))
    if first_event is None:
        first = int(np.searchsorted(times, t_start, side="right"))
    else:
        first = first_event
        if not (
            0 <= first <= last
            and (first == 0 or times[first - 1] <= t_start)
            and (first == len(times) or times[first] >= t_start)
        ):
            raise ValueError("first_event must split the log at t_start")
    g = _window_tendencies(log, params, first, last)
    event_ll = _event_loglik(g, _observed_cells(log.products[first:last], log.n_products), params.mark)[0]
    # compensator over [t_start, t_end], summed over all users
    comp = (t_end - t_start) * params.mu_user.sum()
    sources, mass = _kernel_mass(log, t_start, t_end)
    comp += float(params.alpha.sum(axis=1)[sources] @ mass)
    nll = comp - event_ll
    if not math.isfinite(nll):
        raise InfeasibleLikelihoodError("nonfinite likelihood")
    return float(nll)


def total_nll(log: EventLog, params: ModelParams) -> float:
    """NLL of the whole log under either mark model."""
    return window_nll(log, params, 0.0, log.horizon, first_event=0)
