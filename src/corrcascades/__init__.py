"""Marked multivariate Hawkes toolkit for competing/cooperating adoption
cascades: simulation by thinning, per-user convex MLE by projected Newton on
theta >= 0 with the exact Hessian, and evaluation metrics."""

from .data import EventLog, concat_logs
from .fitting import FitConfig, FitReport, UserFitEntry, cross_validate_beta, fit_all, fit_user
from .likelihood import (
    EventFeatures,
    InfeasibleLikelihoodError,
    UserParams,
    build_all_features,
    total_nll,
    user_nll,
    user_nll_gradient,
    window_nll,
)
from .metrics import (
    CurveScoreRow,
    CurveSeries,
    avg_pred_loglik,
    compare_models,
    inv_l1,
    param_mae,
    param_mse,
    pearson,
)
from .model import (
    LinearMark,
    ModelParams,
    SoftMaxMark,
    UndefinedMarkError,
    mark_density_from_tendencies,
)
from .replicate import (
    IncentivizationResult,
    IncentivizationRun,
    RecoveryResult,
    RecoveryRow,
    make_incentivization_model,
    make_recovery_model,
    run_incentivization,
    run_recovery,
)
from .simulate import (
    Scenario,
    ScenarioResult,
    SimConfig,
    SubcriticalityWarning,
    binned_intensity,
    market_share,
    rescaled_interevent_times,
    run_scenario,
    simulate,
)

__version__ = "0.1.0"
