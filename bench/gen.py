"""Seeded benchmark inputs, generated without the code under test.

The parameter draws, the Ogata thinning and the file writers here are
frozen copies of the documented model and file formats, written apart from
`corrcascades`.  A change to the library's sampler or its random stream
therefore cannot change the logs that the parent and the change are
benchmarked on.

Influence is drawn as U(0, 0.5 / N), which keeps the branching ratio near
0.25 at every N.  The library's `make_recovery_model` default of
U(0, 0.01) equals this at N=50 but is supercritical at N=200: there
`expected_event_rate` comes out negative (about -34870) and
`replicate-synthetic recovery --n-users 200` stops with "horizon must be
positive".
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RENORMALIZE_AFTER = 30.0  # time units between rescalings of the lazy decay


def recovery_model(rng, n_users: int, n_products: int, beta: float = 1.0):
    """Dense model: mu ~ U(0, 0.1), alpha ~ U(0, 0.5 / N), soft-max marks."""
    mu = rng.uniform(0.0, 0.1, size=(n_users, n_products))
    alpha = rng.uniform(0.0, 0.5 / n_users, size=(n_users, n_users))
    return mu, alpha, {"type": "softmax", "beta": float(beta)}


def incentivization_model(rng, n_users: int, n_products: int = 3):
    """Bernoulli(0.1) network with U(0, 0.1) weights, linear marks, and
    baselines within 0.02 of fixed per-product centers."""
    centers = np.array([0.2, 0.5, 0.3, 0.4, 0.1, 0.6][:n_products])
    edges = rng.uniform(size=(n_users, n_users)) < 0.1
    alpha = rng.uniform(0.0, 0.1, size=(n_users, n_users)) * edges
    mu = np.clip(centers + rng.uniform(-0.02, 0.02, size=(n_users, n_products)), 0.0, None)
    return mu, alpha, {"type": "linear"}


def stationary_rate(mu: np.ndarray, alpha: np.ndarray) -> float:
    """Total stationary event rate: sum of m solving m = mu_u + alpha^T m."""
    n = alpha.shape[0]
    if np.abs(np.linalg.eigvals(alpha)).max() >= 1.0:
        raise ValueError("supercritical model: spectral radius of alpha >= 1")
    return float(np.linalg.solve(np.eye(n) - alpha.T, mu.sum(axis=1)).sum())


def _pick(weights, x: float) -> int:
    """Index i with cumsum(weights)[i-1] <= x * sum(weights) < cumsum(weights)[i]."""
    x *= sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def _mark_weights(g: list, mark: dict) -> list:
    if mark["type"] == "softmax":
        top = max(g)
        return [math.exp(mark["beta"] * (x - top)) for x in g]
    return g


def thin(mu, alpha, mark, n_events: int, rng):
    """Ogata thinning until `n_events` events; returns (times, users, products).

    The excitation of every (target, product) pair decays by one common
    factor, so it is stored relative to a reference time and decayed
    lazily; the dominating rate is the current total intensity, which only
    decays between events.
    """
    n, m = mu.shape
    mu_user = mu.sum(axis=1)
    mu_total = float(mu_user.sum())
    mu_rows = mu.tolist()
    row_sums = alpha.sum(axis=1).tolist()
    # expected run length is n_events / rate; 20x that means something is wrong
    t_max = 20.0 * n_events / stationary_rate(mu, alpha)
    excite = np.zeros((n, m))  # sum_j alpha[j, u] B_j^p(t) * exp(t - t_ref)
    excite_user = np.zeros(n)  # excite summed over products
    excite_total = 0.0
    t = t_ref = 0.0
    times = np.empty(n_events)
    users = np.empty(n_events, dtype=np.int64)
    products = np.empty(n_events, dtype=np.int64)
    k = 0
    while k < n_events:
        draws = rng.random(4096).tolist()
        for i in range(0, len(draws), 4):
            lam_bar = mu_total + excite_total * math.exp(t_ref - t)
            t -= math.log1p(-draws[i]) / lam_bar
            if t > t_max:
                raise RuntimeError("thinning ran past its time limit")
            scale = math.exp(t_ref - t)
            if draws[i + 1] * lam_bar > mu_total + excite_total * scale:
                continue
            cum = np.cumsum(mu_user + excite_user * scale)
            u = min(int(np.searchsorted(cum, draws[i + 2] * cum[-1], side="right")), n - 1)
            g = [a + b * scale for a, b in zip(mu_rows[u], excite[u].tolist())]
            p = _pick(_mark_weights(g, mark), draws[i + 3])
            times[k], users[k], products[k] = t, u, p
            k += 1
            if k == n_events:
                break
            step = alpha[u] / scale
            excite[:, p] += step
            excite_user += step
            excite_total += row_sums[u] / scale
            if t - t_ref > RENORMALIZE_AFTER:
                excite *= scale
                excite_user *= scale
                excite_total = float(excite_user.sum())
                t_ref = t
    return times, users, products


def write_event_log(path, times, users, products, horizon: float, n_users: int, n_products: int):
    """Event log CSV: sidecar header, column header, one `repr` row per event."""
    rows = "".join(f"{t!r},{u},{p}\n" for t, u, p in zip(times.tolist(), users.tolist(), products.tolist()))
    Path(path).write_text(
        f"# n_users={n_users} n_products={n_products} horizon={float(horizon)!r}\n"
        "time,user,product\n" + rows
    )


def write_params(path, mu: np.ndarray, alpha: np.ndarray, mark: dict):
    """Parameter JSON: dimensions, mark model, row-major mu and alpha."""
    doc = {
        "n_users": int(mu.shape[0]),
        "n_products": int(mu.shape[1]),
        "mark_model": mark,
        "mu": mu.ravel().tolist(),
        "alpha": alpha.ravel().tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def split_horizon(times: np.ndarray, k: int) -> float:
    """A horizon that keeps exactly the first k events: midway to event k+1."""
    return 0.5 * (float(times[k - 1]) + float(times[k]))
