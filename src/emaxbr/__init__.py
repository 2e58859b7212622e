"""Bias-reduced estimation for the binary-outcome Emax dose-response model.

Public API re-exports: model primitives, the four estimators, inference
helpers, diagnostics, and the simulation harness.
"""

from __future__ import annotations

from .model import (
    EmaxParams,
    ObservationSet,
    DerivTensors,
    eta,
    predict_prob,
    deriv_tensors,
    log_likelihood,
    score,
    hessian,
    expected_information,
    SingularInformation,
    invert_information,
)
from .cumulants import (
    CumulantBundle,
    cumulant_bundle,
    kappa_rjl,
    kappa_rj_l,
    p_tensor,
    info_derivative,
)
from .estimators import (
    EstimatorKind,
    SolverConfig,
    FitStatus,
    StatusReason,
    FitResult,
    starting_values,
    batch_starting_values,
    fit_mle,
    cox_snell_bias,
    fit_cox_snell,
    firth_modified_score,
    fit_firth,
    penalized_loglik,
    penalized_score,
    penalized_hessian,
    fit_mple,
    QuadraticLogitFit,
    fit_quadratic_logit,
    fit,
    fit_all,
    shared_work,
)
from .inference import (
    WaldInterval,
    BootstrapBand,
    InvalidLevel,
    TooManyFailures,
    PointFitFailed,
    covariance,
    wald_ci,
    bootstrap_bands,
)
from .diagnostics import (
    Separation,
    Shape,
    DiagnosticReport,
    InsufficientArms,
    detect_separation,
    classify_shape,
    stability_report,
)
from .simharness import (
    AUDIT_COLUMNS,
    AuditRow,
    AuditLog,
    CellMetrics,
    SimStudy,
    SimMetrics,
    ShapeUnreachable,
    generate_dataset,
    run_study,
    run_shape_conditioned_study,
    emit_table,
    parse_table,
    audit_csv,
    load_study,
)

__version__ = "0.1.0"
