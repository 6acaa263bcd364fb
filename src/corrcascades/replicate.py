"""Synthetic experiment pipelines: parameter recovery over growing training
fractions, and the mid-run incentivization experiment comparing the
independent (linear-mark) model against soft-max models of varying
competitiveness, each a `run_scenario` switch from the linear-mark model to
boosted baselines under its own mark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EventLog
from .fitting import FitConfig, fit_all
from .metrics import _bin_edges, _relative_error, binned_intensity, held_out_score, market_share, param_mae, param_mse
from .model import LinearMark, ModelParams, SoftMaxMark
from .simulate import SimConfig, run_scenario, simulate


def make_recovery_model(
    rng: np.random.Generator,
    n_users: int = 50,
    n_products: int = 5,
    beta: float = 1.0,
    mu_high: float = 0.1,
    alpha_high: float | None = None,
) -> ModelParams:
    """Random dense model: mu ~ U(0, 0.1), alpha ~ U(0, 0.5 / n_users).

    The default alpha scale keeps the expected branching ratio near 0.25
    at every N (at N=50 it is 0.01); a fixed scale turns supercritical as
    N grows.
    """
    if alpha_high is None:
        alpha_high = 0.5 / n_users
    mu = rng.uniform(0.0, mu_high, size=(n_users, n_products))
    alpha = rng.uniform(0.0, alpha_high, size=(n_users, n_users))
    return ModelParams(mu, alpha, SoftMaxMark(beta))


def expected_event_rate(params: ModelParams) -> float:
    """Stationary total event rate: solve m = mu_u + alpha^T m, sum over users.

    Raises ValueError for a supercritical model (spectral radius of alpha
    at least 1), which has no stationary rate.
    """
    n = params.n_users
    radius = float(np.abs(np.linalg.eigvals(params.alpha)).max())
    if radius >= 1.0:
        raise ValueError(f"supercritical model: spectral radius of alpha is {radius:.4g} >= 1")
    m = np.linalg.solve(np.eye(n) - params.alpha.T, params.mu_user)
    return float(m.sum())


@dataclass
class RecoveryRow:
    fraction: float
    events_per_user: float
    n_train_events: int
    mse: float
    mae: float
    mse_alpha: float
    mae_alpha: float
    avg_pred_loglik: float


@dataclass
class RecoveryResult:
    true_params: ModelParams
    rows: list[RecoveryRow]


_N_FRACTIONS = 10  # the recovery study fits on the first 1/10, 2/10, ..., 10/10 of the train window


def run_recovery(
    seed: int = 0,
    n_users: int = 50,
    n_products: int = 5,
    train_events: int = 20_000,
    test_events: int = 2_000,
    fit_config: FitConfig = FitConfig(),
) -> RecoveryResult:
    """Simulate one dataset, then fit on growing prefixes of the train window.

    The log is generated and fitted at `fit_config.beta`.  The horizon is
    tuned from the stationary rate so the train window holds about
    `train_events` events and the tail about `test_events`; every fit is
    scored on that tail (`held_out_score`).
    """
    rng = np.random.default_rng(seed)
    true_params = make_recovery_model(rng, n_users, n_products, fit_config.beta)
    rate = expected_event_rate(true_params)
    t_train = train_events / rate
    t_total = (train_events + test_events) / rate
    log = simulate(true_params, SimConfig(horizon=t_total, seed=seed))

    rows = []
    for k in range(1, _N_FRACTIONS + 1):
        frac = k / _N_FRACTIONS
        t_frac = frac * t_train
        train_f = log.before(t_frac).with_horizon(t_frac)
        est, _ = fit_all(train_f, fit_config)
        rows.append(
            RecoveryRow(
                fraction=frac,
                events_per_user=len(train_f) / n_users,
                n_train_events=len(train_f),
                mse=param_mse(est, true_params),
                mae=param_mae(est, true_params),
                mse_alpha=float(((est.alpha - true_params.alpha) ** 2).mean()),
                mae_alpha=_relative_error(est.alpha, true_params.alpha),
                avg_pred_loglik=held_out_score(log, t_train, est),
            )
        )
    return RecoveryResult(true_params=true_params, rows=rows)


def make_incentivization_model(rng: np.random.Generator, n_users: int = 50) -> ModelParams:
    """Sparse random influence network with per-product baselines near fixed centers.

    Influence weights are U(0, 0.1) on Bernoulli(0.1) edges; a dense
    U(0, 0.1) network at this size would be supercritical under the
    unit-rate kernel.  There are three products, whose baselines are their
    centers 0.2, 0.5 and 0.3 plus U(-0.02, 0.02) noise.
    """
    edges = rng.uniform(size=(n_users, n_users)) < 0.1
    alpha = rng.uniform(0.0, 0.1, size=(n_users, n_users)) * edges
    centers = np.array([0.2, 0.5, 0.3])
    noise = rng.uniform(-0.02, 0.02, size=(n_users, centers.size))
    mu = np.clip(centers + noise, 0.0, None)
    return ModelParams(mu, alpha, LinearMark())


@dataclass
class IncentivizationRun:
    label: str
    log: EventLog
    intensity: list  # per-product CurveSeries
    share: list  # per-product CurveSeries


@dataclass
class IncentivizationResult:
    params: ModelParams
    switch_time: float
    boosted_product: int
    runs: list[IncentivizationRun]


def run_incentivization(
    seed: int = 0,
    n_users: int = 50,
    horizon: float = 200.0,
    switch_time: float = 100.0,
    bin_width: float = 2.0,
) -> IncentivizationResult:
    """Run the 4-model scenario: Linear plus SoftMax at beta 0.1, 1 and 100.

    Before `switch_time` every model is the linear-mark model of
    `make_incentivization_model`; from then on product 2's baselines are
    doubled and each model has its own mark.  All models share the seed,
    so their histories before the switch are identical event for event.
    """
    boosted_product = 2
    rng = np.random.default_rng(seed)
    params = make_incentivization_model(rng, n_users)
    boosted_mu = params.mu.copy()
    boosted_mu[:, boosted_product] *= 2.0
    marks = [("independent", LinearMark())] + [
        (f"correlated_beta{beta:g}", SoftMaxMark(beta)) for beta in (0.1, 1.0, 100.0)
    ]
    grid = _bin_edges(horizon, bin_width)[1:]  # the intensity bins' right edges
    runs = []
    for label, mark in marks:
        after = ModelParams(boosted_mu, params.alpha, mark)
        log = run_scenario(params, after, switch_time, SimConfig(horizon=horizon, seed=seed))
        runs.append(
            IncentivizationRun(
                label=label,
                log=log,
                intensity=binned_intensity(log, bin_width),
                share=market_share(log, grid),
            )
        )
    return IncentivizationResult(
        params=params,
        switch_time=switch_time,
        boosted_product=boosted_product,
        runs=runs,
    )
