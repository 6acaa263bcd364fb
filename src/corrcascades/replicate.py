"""Synthetic experiment pipelines: parameter recovery over growing training
fractions, and the mid-run incentivization scenario comparing the
independent (linear-mark) model against soft-max models of varying
competitiveness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import EventLog
from .fitting import FitConfig, fit_all
from .metrics import avg_pred_loglik, param_mae, param_mse
from .model import LinearMark, ModelParams, SoftMaxMark
from .simulate import Scenario, ScenarioResult, SimConfig, binned_intensity, market_share, run_scenario, simulate


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
    train: EventLog
    test: EventLog


def run_recovery(
    seed: int = 0,
    n_users: int = 50,
    n_products: int = 5,
    beta: float = 1.0,
    train_events: int = 20_000,
    test_events: int = 2_000,
    n_fractions: int = 10,
    fit_config: FitConfig | None = None,
) -> RecoveryResult:
    """Simulate one dataset, then fit on growing prefixes of the train window.

    The horizon is tuned from the stationary rate so the train window holds
    about `train_events` events and the tail about `test_events`.
    """
    rng = np.random.default_rng(seed)
    true_params = make_recovery_model(rng, n_users, n_products, beta)
    rate = expected_event_rate(true_params)
    t_train = train_events / rate
    t_total = (train_events + test_events) / rate
    log = simulate(true_params, SimConfig(horizon=t_total, seed=seed))
    train = log.before(t_train).with_horizon(t_train)
    test_mask = log.times >= t_train
    test = EventLog.from_arrays(
        log.times[test_mask], log.users[test_mask], log.products[test_mask], t_total, n_users, n_products
    )
    if fit_config is None:
        fit_config = FitConfig(beta=beta)
    else:
        fit_config = replace(fit_config, beta=beta)

    rows = []
    for k in range(1, n_fractions + 1):
        frac = k / n_fractions
        t_frac = frac * t_train
        train_f = train.before(t_frac).with_horizon(t_frac)
        est, _ = fit_all(train_f, fit_config)
        rows.append(
            RecoveryRow(
                fraction=frac,
                events_per_user=len(train_f) / n_users,
                n_train_events=len(train_f),
                mse=param_mse(est, true_params),
                mae=param_mae(est, true_params),
                mse_alpha=float(((est.alpha - true_params.alpha) ** 2).mean()),
                mae_alpha=float(
                    (
                        np.abs(est.alpha - true_params.alpha)
                        / np.maximum(true_params.alpha, 1e-6)
                    ).mean()
                ),
                avg_pred_loglik=avg_pred_loglik(train, test, est),
            )
        )
    return RecoveryResult(true_params=true_params, rows=rows, train=train, test=test)


def make_incentivization_model(
    rng: np.random.Generator,
    n_users: int = 50,
    n_products: int = 3,
    edge_prob: float = 0.1,
    alpha_high: float = 0.1,
    mu_centers=(0.2, 0.5, 0.3),
    mu_noise: float = 0.02,
) -> ModelParams:
    """Sparse random influence network with per-product baselines near fixed centers.

    Influence weights are U(0, 0.1) on Bernoulli(edge_prob) edges; a dense
    U(0, 0.1) network at this size would be supercritical under the
    unit-rate kernel.
    """
    edges = rng.uniform(size=(n_users, n_users)) < edge_prob
    alpha = rng.uniform(0.0, alpha_high, size=(n_users, n_users)) * edges
    centers = np.asarray(mu_centers, dtype=float)
    if centers.size != n_products:
        raise ValueError("mu_centers must have one entry per product")
    mu = np.clip(
        centers[None, :] + rng.uniform(-mu_noise, mu_noise, size=(n_users, n_products)),
        0.0,
        None,
    )
    return ModelParams(mu, alpha, LinearMark())


@dataclass
class IncentivizationRun:
    label: str
    result: ScenarioResult
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
    n_products: int = 3,
    horizon: float = 200.0,
    switch_time: float = 100.0,
    boosted_product: int = 2,
    boost_factor: float = 2.0,
    betas=(0.1, 1.0, 100.0),
    bin_width: float = 2.0,
) -> IncentivizationResult:
    """Run the 4-model scenario: Linear plus SoftMax at each beta.

    All models share the same parameters and seed; the pre-switch phase is
    always the linear-mark model, so their histories before the switch are
    identical event for event.
    """
    rng = np.random.default_rng(seed)
    params = make_incentivization_model(rng, n_users, n_products)
    marks = [("independent", LinearMark())] + [
        (f"correlated_beta{beta:g}", SoftMaxMark(beta)) for beta in betas
    ]
    grid = np.arange(bin_width, horizon + bin_width / 2, bin_width)
    runs = []
    for label, mark in marks:
        scenario = Scenario(
            switch_time=switch_time,
            boosted_product=boosted_product,
            boost_factor=boost_factor,
            pre_switch_mark=LinearMark(),
            post_switch_mark=mark,
        )
        result = run_scenario(params, scenario, SimConfig(horizon=horizon, seed=seed))
        runs.append(
            IncentivizationRun(
                label=label,
                result=result,
                intensity=binned_intensity(result.log, bin_width, by_product=True),
                share=market_share(result.log, grid),
            )
        )
    return IncentivizationResult(
        params=params,
        switch_time=switch_time,
        boosted_product=boosted_product,
        runs=runs,
    )
