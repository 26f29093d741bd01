"""Discrete-time cause-specific hazard estimation for loan pools.

Estimates default and prepayment hazards from left-truncated, right-censored
observations, tests credit-risk convergence between APR bands via CI overlap,
and prices loans (risk-adjusted lifetime returns, refinance savings, recovery
curves).  A built-in simulation study validates the estimator against its
asymptotic theory.
"""

__version__ = "0.1.0"

from .convergence import (
    ConvergenceResult,
    Decision,
    Rule,
    TransitionMatrix,
    convergence_point,
    overlap_test,
    transition_matrix,
)
from .errors import (
    CshazardError,
    EmptyResultError,
    IncompatibleInputsError,
    NumericalError,
    SchemaError,
    UnknownKeyError,
)
from .estimator import (
    HazardCurve,
    estimate_csh,
    interpolate_zero_defaults,
    normal_quantile,
)
from .ingest import (
    FilterPolicy,
    LoanTape,
    ObservationTable,
    RiskBand,
    build_observations,
    classify_risk_band,
    filter_loans,
)
from .montecarlo import SimConfig, StudyReport, run_study, simulate_cohort
from .recovery import (
    GammaKernelFit,
    RecoveryFitError,
    RecoveryPoints,
    fit_gamma_kernel,
    recovery_at,
    recovery_points,
    smooth,
)
from .riskmodel import (
    Cause,
    CompetingRisksDistribution,
    TruncationLaw,
    all_cause_hazard,
    cause_specific_hazard,
    conditional_event_probs,
    survival,
)
from .actuarial import (
    AmortizationSchedule,
    SavingsEstimate,
    annualize,
    balance_at,
    lifetime_return,
    monthly_payment,
    refinance_savings,
    remaining_payments,
    returns_table,
    savings_from_apr,
)

__all__ = [
    "__version__",
    "Cause",
    "CompetingRisksDistribution",
    "TruncationLaw",
    "all_cause_hazard",
    "cause_specific_hazard",
    "conditional_event_probs",
    "survival",
    "RiskBand",
    "LoanTape",
    "ObservationTable",
    "FilterPolicy",
    "classify_risk_band",
    "filter_loans",
    "build_observations",
    "HazardCurve",
    "estimate_csh",
    "interpolate_zero_defaults",
    "normal_quantile",
    "Decision",
    "Rule",
    "ConvergenceResult",
    "TransitionMatrix",
    "overlap_test",
    "convergence_point",
    "transition_matrix",
    "AmortizationSchedule",
    "SavingsEstimate",
    "monthly_payment",
    "balance_at",
    "annualize",
    "lifetime_return",
    "returns_table",
    "remaining_payments",
    "refinance_savings",
    "savings_from_apr",
    "RecoveryPoints",
    "GammaKernelFit",
    "RecoveryFitError",
    "recovery_points",
    "smooth",
    "fit_gamma_kernel",
    "recovery_at",
    "SimConfig",
    "StudyReport",
    "run_study",
    "simulate_cohort",
    "CshazardError",
    "SchemaError",
    "EmptyResultError",
    "UnknownKeyError",
    "IncompatibleInputsError",
    "NumericalError",
]
