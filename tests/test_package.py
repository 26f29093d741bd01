"""The package surface, and the boundary between the loan-tape rules and the CSV layer.

`cshazard` imports each public name from its module on first use, so a
process loads only the modules it runs.  The names and their order are
pinned here, as are the modules that define them.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cshazard

SRC = Path(__file__).resolve().parents[1] / "src"

# Each public name, by the module that defines it, in the order of `__all__`.
PUBLIC = {
    "riskmodel": ["Cause", "CompetingRisksDistribution", "TruncationLaw", "all_cause_hazard",
                  "cause_specific_hazard", "conditional_event_probs", "survival"],
    "ingest": ["RiskBand", "LoanTape", "ObservationTable", "FilterPolicy", "classify_risk_band",
               "filter_loans", "build_observations"],
    "estimator": ["HazardCurve", "estimate_csh", "interpolate_zero_defaults", "normal_quantile"],
    "convergence": ["Decision", "Rule", "ConvergenceResult", "TransitionMatrix", "overlap_test",
                    "convergence_point", "transition_matrix"],
    "actuarial": ["AmortizationSchedule", "SavingsEstimate", "monthly_payment", "balance_at",
                  "annualize", "lifetime_return", "returns_table", "remaining_payments",
                  "refinance_savings", "savings_from_apr"],
    "recovery": ["RecoveryPoints", "GammaKernelFit", "RecoveryFitError", "recovery_points",
                 "smooth", "fit_gamma_kernel", "recovery_at"],
    "montecarlo": ["SimConfig", "StudyReport", "run_study", "simulate_cohort"],
    "errors": ["CshazardError", "SchemaError", "EmptyResultError", "UnknownKeyError",
               "IncompatibleInputsError", "NumericalError"],
}


def test_all_names_each_public_object_of_its_module():
    names = [name for module in PUBLIC.values() for name in module]
    assert cshazard.__all__ == ["__version__", *names] and len(cshazard.__all__) == 53
    star = {}
    exec("from cshazard import *", star)
    for module, owned in PUBLIC.items():
        home = importlib.import_module(f"cshazard.{module}")
        for name in owned:
            assert star[name] is getattr(cshazard, name) is getattr(home, name), name
    assert star["__version__"] == cshazard.__version__
    assert set(cshazard.__all__) <= set(dir(cshazard))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cshazard' has no attribute 'no_such_name'"):
        cshazard.no_such_name
    with pytest.raises(ImportError):
        exec("from cshazard import no_such_name", {})


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, cshazard; print(sorted(m for m in sys.modules if m.startswith('cshazard.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "[]"


def private_reads_of_ingest(path: Path) -> list[str]:
    """Each `from .ingest import _x` (or `from cshazard.ingest ...`) and each
    `ingest._x` in a module, as 'module:line: name'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "ingest") or node.module == "cshazard.ingest"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "ingest":
            names = [node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.startswith("_")]
    return found


def test_only_ingest_reads_its_private_names():
    """The CSV layer lives in `_csvio`; no module reaches into ingest's private names."""
    modules = sorted((SRC / "cshazard").glob("*.py"))
    assert any(path.name == "cli.py" for path in modules)
    assert [hit for path in modules if path.name != "ingest.py"
            for hit in private_reads_of_ingest(path)] == []
