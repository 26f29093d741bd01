"""CI-overlap testing between risk bands and the convergence matrix.

Two bands are compared age by age: overlapping confidence intervals fail to
reject the hypothesis that the underlying hazards are equal.  The
convergence point is the earlier of (1) the first age at or after the
minimum test age that starts a run of consecutive fail-to-reject decisions,
and (2) the first age from which both estimated hazards are zero through the
end of the shared grid.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

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


def overlap_test(ci_a: tuple[float, float], ci_b: tuple[float, float]) -> Decision:
    """Closed-interval overlap check: touching endpoints fail to reject."""
    a_lo, a_hi = ci_a
    b_lo, b_hi = ci_b
    for v in (a_lo, a_hi, b_lo, b_hi):
        if v != v:  # NaN
            raise ValueError("overlap_test requires defined intervals")
    if a_lo <= b_hi and b_lo <= a_hi:
        return Decision.FAIL_TO_REJECT
    return Decision.REJECT


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


def _age_decisions(curve_a: HazardCurve, curve_b: HazardCurve) -> list[Decision]:
    out = []
    for i in range(curve_a.ages.size):
        bounds = (curve_a.ci_lo[i], curve_a.ci_hi[i],
                  curve_b.ci_lo[i], curve_b.ci_hi[i])
        if any(v != v for v in bounds):
            out.append(Decision.UNDEFINED)
        else:
            out.append(overlap_test((bounds[0], bounds[1]), (bounds[2], bounds[3])))
    return out


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
    decisions = _age_decisions(curve_a, curve_b)

    run_month = None
    for i in range(len(decisions)):
        age = int(ages[i])
        if age < min_test_age:
            continue
        if i + run_length > len(decisions):
            break
        window = decisions[i:i + run_length]
        consecutive = all(int(ages[i + k]) == age + k for k in range(run_length))
        if consecutive and all(d is Decision.FAIL_TO_REJECT for d in window):
            run_month = age
            break

    zero_month = None
    both_zero = (curve_a.hazard == 0.0) & (curve_b.hazard == 0.0)
    if both_zero.size and both_zero[-1]:
        i = both_zero.size - 1
        while i > 0 and both_zero[i - 1]:
            i -= 1
        candidate = max(int(ages[i]), min_test_age)
        if candidate <= int(ages[-1]):
            zero_month = candidate

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
    definition.  Returns the matrix plus the per-pair results for tracing.
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
            res = convergence_point(curves[a], curves[b], min_test_age, run_length)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", *matrix.bands])
        for i, band in enumerate(matrix.bands):
            row = [""] * i + [
                "" if m is None else m for m in matrix.months[i]
            ]
            writer.writerow([band, *row])


def write_trace_csv(path: str | Path, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band_a", "band_b", "age", "decision"])
        for res in results:
            for i in range(res.ages.size):
                writer.writerow([res.band_a, res.band_b, int(res.ages[i]),
                                 res.decisions[i].value])
