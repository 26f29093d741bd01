"""CI-overlap testing between risk bands and the convergence matrix.

Two bands are compared age by age: overlapping confidence intervals fail to
reject the hypothesis that the underlying hazards are equal.  The
convergence point is the earlier of (1) the first age at or after the
minimum test age that starts a run of consecutive fail-to-reject decisions,
and (2) the first age from which both estimated hazards are zero through the
end of the shared grid.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from ._csvio import _write_csv
from .errors import UnknownKeyError
from .estimator import HazardCurve, check_shared_grid

__all__ = [
    "Decision",
    "Rule",
    "ConvergenceResult",
    "TransitionMatrix",
    "overlap_test",
    "convergence_point",
    "transition_matrix",
    "write_matrix_csv",
    "write_trace_csv",
]

DEFAULT_MIN_TEST_AGE = 10
DEFAULT_RUN_LENGTH = 2


class Decision(Enum):
    REJECT = "reject"
    FAIL_TO_REJECT = "fail_to_reject"
    UNDEFINED = "undefined"


class Rule(Enum):
    OVERLAP_RUN = "overlap_run"
    BOTH_ZERO = "both_zero"
    NONE = "none"


_BY_CODE = np.array([Decision.REJECT, Decision.FAIL_TO_REJECT, Decision.UNDEFINED], object)


def _decisions(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Each age's Decision from the two intervals' bounds: undefined where a
    bound is NaN, else closed-interval overlap (touching endpoints too) fails
    to reject."""
    undefined = np.isnan(lo_a) | np.isnan(hi_a) | np.isnan(lo_b) | np.isnan(hi_b)
    return _BY_CODE[np.where(undefined, 2, (lo_a <= hi_b) & (lo_b <= hi_a))]


def overlap_test(ci_a: tuple[float, float], ci_b: tuple[float, float]) -> Decision:
    """Closed-interval overlap check: touching endpoints fail to reject."""
    decision = _decisions(*ci_a, *ci_b)
    if decision is Decision.UNDEFINED:
        raise ValueError("overlap_test requires defined intervals")
    return decision


@dataclass(frozen=True)
class ConvergenceResult:
    band_a: str
    band_b: str
    ages: np.ndarray
    decisions: tuple
    convergence_month: int | None
    rule_fired: Rule


def _check_test_rules(min_test_age: int, run_length: int) -> None:
    if min_test_age < 1:
        raise ValueError(f"min_test_age must be >= 1, got {min_test_age}")
    if run_length < 1:
        raise ValueError(f"run_length must be >= 1, got {run_length}")


def convergence_point(curve_a: HazardCurve, curve_b: HazardCurve,
                      min_test_age: int = DEFAULT_MIN_TEST_AGE,
                      run_length: int = DEFAULT_RUN_LENGTH) -> ConvergenceResult:
    """Locate the convergence month for two hazard curves on a shared grid.

    Undefined decisions (either CI missing) break an overlap run; trailing
    all-zero hazards are handled by the second rule instead.  Identical
    curves converge at min_test_age.
    """
    _check_test_rules(min_test_age, run_length)
    ages = check_shared_grid(curve_a, curve_b)
    decisions = _decisions(curve_a.ci_lo, curve_a.ci_hi, curve_b.ci_lo, curve_b.ci_hi)

    # A run starts at i when ages i .. i + run_length - 1 all fail to reject
    # and step by one; cumulative sums count both over every window at once.
    fails = np.cumsum(np.append(0, decisions == Decision.FAIL_TO_REJECT))
    steps = np.cumsum(np.append(0, np.diff(ages) == 1))
    start = np.arange(max(ages.size - run_length + 1, 0))
    runs = np.flatnonzero((ages[start] >= min_test_age)
                          & (fails[start + run_length] - fails[start] == run_length)
                          & (steps[start + run_length - 1] - steps[start] == run_length - 1))
    run_month = int(ages[runs[0]]) if runs.size else None

    # The both-zero tail follows the last age where either hazard is not zero;
    # its first age, moved up to min_test_age, counts while it is on the grid.
    live = np.flatnonzero((curve_a.hazard != 0.0) | (curve_b.hazard != 0.0))
    tail = ages[live[-1] + 1:] if live.size else ages
    zero_month = max(int(tail[0]), min_test_age) if tail.size else None
    if zero_month is not None and zero_month > ages[-1]:
        zero_month = None

    month = None
    rule = Rule.NONE
    if run_month is not None and (zero_month is None or run_month <= zero_month):
        month, rule = run_month, Rule.OVERLAP_RUN
    elif zero_month is not None:
        month, rule = zero_month, Rule.BOTH_ZERO
    return ConvergenceResult(
        band_a=curve_a.band, band_b=curve_b.band, ages=ages,
        decisions=tuple(decisions), convergence_month=month, rule_fired=rule,
    )


@dataclass(frozen=True)
class TransitionMatrix:
    """Upper-triangular convergence months over an ordered band list."""

    bands: tuple
    months: tuple  # months[i][j] for j >= i; None when no rule fired
    rules: tuple
    min_test_age: int
    run_length: int

    def month(self, band_a: str, band_b: str):
        i = self.bands.index(band_a)
        j = self.bands.index(band_b)
        if i > j:
            i, j = j, i
        return self.months[i][j - i]

    def to_json(self) -> str:
        entries = []
        for i, a in enumerate(self.bands):
            for off, month in enumerate(self.months[i]):
                entries.append({
                    "band_a": a,
                    "band_b": self.bands[i + off],
                    "month": month,
                    "rule": self.rules[i][off].value,
                })
        doc = {
            "bands": list(self.bands),
            "min_test_age": self.min_test_age,
            "run_length": self.run_length,
            "entries": entries,
        }
        return json.dumps(doc, indent=2)


def transition_matrix(curves: dict, min_test_age: int = DEFAULT_MIN_TEST_AGE,
                      run_length: int = DEFAULT_RUN_LENGTH,
                      band_order: list | None = None
                      ) -> tuple[TransitionMatrix, list[ConvergenceResult]]:
    """Pairwise convergence months for a set of per-band default-hazard curves.

    curves maps band label to HazardCurve.  The diagonal is min_test_age by
    definition.  Returns the matrix plus the per-pair results for tracing,
    which name each pair by its labels in `curves`.
    """
    _check_test_rules(min_test_age, run_length)
    if band_order is None:
        band_order = list(curves.keys())
    if len(band_order) < 2:
        raise ValueError("transition matrix needs at least two bands")
    missing = [b for b in band_order if b not in curves]
    if missing:
        raise UnknownKeyError(f"no hazard curve for band(s): {', '.join(map(str, missing))}")
    months = []
    rules = []
    results = []
    for i, a in enumerate(band_order):
        row_m = [min_test_age]
        row_r = [Rule.OVERLAP_RUN]
        for b in band_order[i + 1:]:
            res = replace(convergence_point(curves[a], curves[b], min_test_age, run_length),
                          band_a=a, band_b=b)
            results.append(res)
            row_m.append(res.convergence_month)
            row_r.append(res.rule_fired)
        months.append(tuple(row_m))
        rules.append(tuple(row_r))
    return (
        TransitionMatrix(
            bands=tuple(band_order), months=tuple(months), rules=tuple(rules),
            min_test_age=min_test_age, run_length=run_length,
        ),
        results,
    )


def write_matrix_csv(path: str | Path, matrix: TransitionMatrix) -> None:
    """Write the matrix in display layout: bands on both axes, upper triangle filled."""
    rows = [[band, *[""] * i, *matrix.months[i]] for i, band in enumerate(matrix.bands)]
    _write_csv(path, ["band", *matrix.bands], list(zip(*rows)))


def write_trace_csv(path: str | Path, results) -> None:
    rows = [(res.band_a, res.band_b, age, decision.value) for res in results
            for age, decision in zip(res.ages.astype(np.int64).tolist(), res.decisions)]
    _write_csv(path, ["band_a", "band_b", "age", "decision"], list(zip(*rows)))
