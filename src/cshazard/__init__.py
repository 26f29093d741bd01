"""Discrete-time cause-specific hazard estimation for loan pools.

Estimates default and prepayment hazards from left-truncated, right-censored
observations, tests credit-risk convergence between APR bands via CI overlap,
and prices loans (risk-adjusted lifetime returns, refinance savings, recovery
curves).  A built-in simulation study validates the estimator against its
asymptotic theory.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the modules it uses.
"""
from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "riskmodel": "Cause CompetingRisksDistribution TruncationLaw all_cause_hazard "
                 "cause_specific_hazard conditional_event_probs survival",
    "ingest": "RiskBand LoanTape ObservationTable FilterPolicy classify_risk_band "
              "filter_loans build_observations",
    "estimator": "HazardCurve estimate_csh interpolate_zero_defaults normal_quantile",
    "convergence": "Decision Rule ConvergenceResult TransitionMatrix overlap_test "
                   "convergence_point transition_matrix",
    "actuarial": "AmortizationSchedule SavingsEstimate monthly_payment balance_at annualize "
                 "lifetime_return returns_table remaining_payments refinance_savings "
                 "savings_from_apr",
    "recovery": "RecoveryPoints GammaKernelFit RecoveryFitError recovery_points smooth "
                "fit_gamma_kernel recovery_at",
    "montecarlo": "SimConfig StudyReport run_study simulate_cohort",
    "errors": "CshazardError SchemaError EmptyResultError UnknownKeyError "
              "IncompatibleInputsError NumericalError",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
