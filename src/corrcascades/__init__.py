"""Marked multivariate Hawkes toolkit for competing/cooperating adoption
cascades: simulation by the branching representation, per-user convex MLE by
projected Newton on theta >= 0 with the exact Hessian, and evaluation
metrics."""

# first: it sets one BLAS thread per process before numpy is loaded
from . import _workers  # noqa: F401
from .data import EventLog, concat_logs
from .fitting import (
    EventFeatures,
    FitConfig,
    FitReport,
    UserFitEntry,
    build_all_features,
    cross_validate_beta,
    fit_all,
    fit_user,
)
from .likelihood import InfeasibleLikelihoodError, total_nll, window_nll
from .metrics import (
    CurveScoreRow,
    CurveSeries,
    avg_pred_loglik,
    binned_intensity,
    compare_models,
    inv_l1,
    market_share,
    param_mae,
    param_mse,
    pearson,
)
from .model import LinearMark, ModelParams, SoftMaxMark
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
from .simulate import SimConfig, SubcriticalityWarning, run_scenario, simulate

__version__ = "0.1.0"
