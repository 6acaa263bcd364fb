"""Shared generators and slow reference implementations used as oracles.

Every reference here rescans the raw event history and never touches the
decayed-count machinery, so agreement is evidence rather than tautology.
Two kinds of helper are exceptions.  `user_nll` and `user_nll_gradient` are
thin wrappers over the fit's private per-user objective, not oracles: tests
check them against the references here.  `rescaled_interevent_times` sums
the pooled compensator in one recursive pass, and a test checks it against
a rescan.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from corrcascades import EventLog, LinearMark, ModelParams, SoftMaxMark
from corrcascades.fitting import _eval_features, _gradient_from_eval


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail any test that leaves a child process of this one running or
    unreaped, such as a fork worker that a failed map did not kill."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def random_log(rng, n_users=None, n_products=None, max_events=30, horizon=None):
    n = n_users if n_users is not None else int(rng.integers(1, 6))
    m = n_products if n_products is not None else int(rng.integers(1, 4))
    k = int(rng.integers(0, max_events + 1))
    t = horizon if horizon is not None else float(rng.uniform(2.0, 10.0))
    times = np.sort(rng.uniform(0.0, t, size=k))
    users = rng.integers(0, n, size=k)
    products = rng.integers(0, m, size=k)
    return EventLog(zip(times, users, products), t, n, m)


def tied_log(rng, max_events=25, gaps=(0.0, 0.0, 0.5, 1.0, 800.0), min_events=0):
    """Random log whose times step through `gaps`: a zero step ties two
    events, and a step of 800 decays every earlier count to exactly 0."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    k = int(rng.integers(min_events, max_events + 1))
    times = np.cumsum(rng.choice(gaps, size=k))
    horizon = float(times[-1] if k else 0.0) + float(rng.choice([0.0, 0.5, 800.0]))
    return EventLog(zip(times, rng.integers(0, n, k), rng.integers(0, m, k)), horizon, n, m)


def random_params(rng, n_users, n_products, beta=1.0, mu_high=0.8, alpha_high=0.3):
    mu = rng.uniform(0.05, mu_high, size=(n_users, n_products))
    alpha = rng.uniform(0.0, alpha_high, size=(n_users, n_users))
    mark = SoftMaxMark(beta) if beta is not None else LinearMark()
    return ModelParams(mu, alpha, mark)


def user_nll(features, theta, beta):
    """One user's soft-max NLL at the packed theta = [alpha_col | mu_row]."""
    return _eval_features(features, np.asarray(theta, float), SoftMaxMark(beta))[0]


def user_nll_gradient(features, theta, beta):
    """The analytic gradient of `user_nll` in the same packed layout."""
    _, f, lam = _eval_features(features, np.asarray(theta, float), SoftMaxMark(beta))
    return _gradient_from_eval(features, beta, f, lam)


def rescaled_interevent_times(log, params):
    """Integral of the total intensity over each interevent gap of the pooled log.

    Under the generating model these are iid Exponential(1) by the random
    time-change theorem.  The excitation of the total intensity is one
    scalar S(t) = sum_i r_{u_i} exp(-(t - t_i)) over past events, where
    r_u = sum_v alpha[u, v] is the event user's total outgoing influence.
    """
    mu_total = float(params.mu_user.sum())
    jumps = params.alpha.sum(axis=1)[log.users].tolist()
    gaps = []
    excite = 0.0
    prev = 0.0
    for t, r in zip(log.times.tolist(), jumps):
        decay = math.exp(-(t - prev))
        gaps.append(mu_total * (t - prev) + excite * (1.0 - decay))
        excite = excite * decay + r
        prev = t
    return np.asarray(gaps)


def brute_counts(log, t, inclusive=False):
    """The N x M decayed counts at t by a full rescan: sum over events
    (t_i, j, q) strictly before t (at or before t if `inclusive`) of
    exp(-(t - t_i)) in cell (j, q)."""
    counts = np.zeros((log.n_users, log.n_products))
    for t_i, j, q in zip(log.times.tolist(), log.users.tolist(), log.products.tolist()):
        if t_i < t or (inclusive and t_i == t):
            counts[j, q] += np.exp(-(t - t_i))
    return counts


def brute_tendency(log, params, user, product, t):
    """g_u^p(t) by a full rescan over events strictly before t."""
    mask = (log.times < t) & (log.products == product)
    return float(
        params.mu[user, product]
        + (params.alpha[log.users[mask], user] * np.exp(-(t - log.times[mask]))).sum()
    )


def brute_intensity(log, params, user, t):
    mask = log.times < t
    return float(
        params.mu_user[user]
        + (params.alpha[log.users[mask], user] * np.exp(-(t - log.times[mask]))).sum()
    )


def brute_mark_density(log, params, user, t):
    g = np.array(
        [brute_tendency(log, params, user, p, t) for p in range(params.n_products)]
    )
    if isinstance(params.mark, SoftMaxMark):
        z = params.mark.beta * g
        w = np.exp(z - z.max())
        return w / w.sum()
    return g / g.sum()


def brute_hessian(log, user, theta, beta):
    """The soft-max per-user NLL Hessian in packed [alpha_col | mu_row]
    coordinates, by an explicit loop over the user's events:
    sum_i (D_i 1)(D_i 1)^T / lambda_i^2 + beta^2 D_i (diag f_i - f_i f_i^T) D_i^T,
    with each event Jacobian D_i = [B(t_i); I] rescanned (`brute_counts`)."""
    n, m = log.n_users, log.n_products
    hess = np.zeros((n + m, n + m))
    for t in log.times[log.users == user].tolist():
        d = np.vstack([brute_counts(log, t), np.eye(m)])
        g = d.T @ theta
        lam = g.sum()
        w = np.exp(beta * (g - g.max()))
        f = w / w.sum()
        # diag f - f f^T, with 1 - f_p summed over the other products: at
        # large beta, 1 - f_p cancels to a few ulps of its own size
        spread = -np.outer(f, f)
        spread[np.diag_indices(m)] = f * np.array([np.delete(w, p).sum() for p in range(m)]) / w.sum()
        total = d.sum(axis=1)
        hess += np.outer(total, total) / lam**2 + beta**2 * d @ spread @ d.T
    return hess


def quad_compensator(log, params, user, t_end, tol=1e-10):
    """Integral of the intensity by adaptive quadrature between event times."""
    knots = np.concatenate([[0.0], log.times[log.times < t_end], [t_end]])
    knots = np.unique(knots)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = quad(
            lambda s: brute_intensity(log, params, user, s), a, b,
            epsabs=tol, epsrel=tol, limit=200,
        )
        total += val
    return total


def brute_total_nll(log, params, use_quad=True):
    """Whole-log NLL from the likelihood product: rescanned intensities and
    mark densities at each event, survival term by quadrature."""
    event_ll = 0.0
    for t, u, p in zip(log.times, log.users, log.products):
        lam = brute_intensity(log, params, int(u), float(t))
        f = brute_mark_density(log, params, int(u), float(t))[int(p)]
        event_ll += np.log(lam) + np.log(f)
    comp = 0.0
    for u in range(params.n_users):
        if use_quad:
            comp += quad_compensator(log, params, u, log.horizon)
        else:
            mask = log.times < log.horizon
            comp += params.mu_user[u] * log.horizon + float(
                (params.alpha[log.users[mask], u] * (1 - np.exp(-(log.horizon - log.times[mask])))).sum()
            )
    return comp - event_ll


def brute_window_nll(log, params, t_start, t_end, first_event=None):
    """NLL of the events in (t_start, t_end] (from index `first_event` on,
    if given) with full preceding history, by rescanning: each scored
    event's log intensity and log mark density, and the compensator over
    the window alone, so no term of the history before it cancels."""
    times = log.times
    last = int(np.searchsorted(times, t_end, side="right"))
    first = int(np.searchsorted(times, t_start, side="right")) if first_event is None else first_event
    event_ll = 0.0
    for t, u, p in zip(times[first:last].tolist(), log.users[first:last].tolist(), log.products[first:last].tolist()):
        event_ll += math.log(brute_intensity(log, params, u, t))
        event_ll += math.log(brute_mark_density(log, params, u, t)[p])
    past = times < t_end
    # the kernel exp(-(s - t_i)) integrated over s in [max(t_i, t_start), t_end]
    mass = np.exp(-np.maximum(t_start - times[past], 0.0)) - np.exp(-(t_end - times[past]))
    comp = params.mu_user.sum() * (t_end - t_start) + float(params.alpha.sum(axis=1)[log.users[past]] @ mass)
    return comp - event_ll


def brute_simulate(segments, seed, history=None, max_events=10**9):
    """Ogata thinning over consecutive (end_time, params) segments, rescanning
    the raw event history at every proposal.

    Generation starts at the history's horizon (0 without history).  The
    bound is the total intensity just after the current time, events at it
    included; the accept test, user draw and mark draw use `brute_intensity`
    and `brute_mark_density`.  The rng is drawn per proposal (exponential,
    accept, user, mark), and a proposal that overshoots a segment is
    carried into the next one when the next segment's bound does not exceed
    the bound it was drawn against.  This shares no code and no random
    stream with `simulate`, so the two agree in law only.  Returns (events,
    exhausted, n_carried).
    """
    first = segments[0][1]
    n, m = first.n_users, first.n_products
    past = list(zip(history.times, history.users, history.products)) if history is not None else []
    frame = max(segments[-1][0], history.horizon if history is not None else 0.0)
    s = history.horizon if history is not None else 0.0
    rng = np.random.default_rng(seed)
    events, n_carried, pending = [], 0, None

    def bound(log, params, t):
        mask = log.times <= t
        jumps = params.alpha.sum(axis=1)[log.users[mask]]
        return float(params.mu.sum() + (jumps * np.exp(-(t - log.times[mask]))).sum())

    for seg_end, params in segments:
        log = EventLog(past + events, frame, n, m)
        if pending is not None:
            if bound(log, params, s) <= pending[1]:
                n_carried += 1
            else:
                pending = None
        while True:
            if pending is None:
                lam_bar = bound(log, params, s)
                if lam_bar <= 0.0:
                    s = seg_end
                    break
                t_prop = s + rng.exponential(1.0 / lam_bar)
            else:
                t_prop, lam_bar = pending
                pending = None
            if t_prop >= seg_end:
                s, pending = seg_end, (t_prop, lam_bar)
                break
            s = t_prop
            lam = np.array([brute_intensity(log, params, u, s) for u in range(n)])
            if rng.uniform() * lam_bar <= lam.sum():
                cum = np.cumsum(lam)
                u = min(int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right")), n - 1)
                f = brute_mark_density(log, params, u, s)
                p = min(int(np.searchsorted(np.cumsum(f), rng.uniform(), side="right")), m - 1)
                events.append((s, u, p))
                if len(events) >= max_events:
                    return events, True, n_carried
                log = EventLog(past + events, frame, n, m)
    return events, False, n_carried
