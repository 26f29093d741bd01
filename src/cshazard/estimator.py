"""Cause-specific hazard estimation from truncated, censored observations.

For each age x the estimator divides the number of observed exits at x by the
cause of interest by the number of loans at risk at x (entry <= x <= exit).
Left truncation and right censoring cancel out of this ratio, so it estimates
the underlying cause-specific hazard directly.  Asymptotic variances come
from the delta method on the (event fraction, at-risk fraction) pair, and
confidence intervals are built on the log scale so the lower bound stays
positive.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from ._csvio import _Columns, _parse_float, _write_csv
from .errors import IncompatibleInputsError, SchemaError
from .riskmodel import Cause

if TYPE_CHECKING:
    from .ingest import ObservationTable

__all__ = [
    "HazardCurve",
    "estimate_csh",
    "asymptotic_variance",
    "check_theta",
    "confidence_interval",
    "interpolate_zero_defaults",
    "normal_quantile",
    "observations_to_arrays",
    "curve_from_counts",
    "read_curve_csv",
    "write_curve_csv",
    "DEFAULT_WINDOW",
]

DEFAULT_THETA = 0.05
# Conservative reporting window for pool data; estimates outside it are
# available behind the full-range flag.
DEFAULT_WINDOW = (10, 55)

# The per-age arrays of a HazardCurve, all of one length.
_ROW_FIELDS = ("ages", "events", "at_risk", "hazard", "variance", "ci_lo", "ci_hi",
               "interpolated")


@dataclass(frozen=True)
class HazardCurve:
    """Per-age hazard estimates with counts, variances, and CI bounds.

    Rows exist only for ages with a positive at-risk count; "no information"
    is absence, not a zero.  variance/ci entries are NaN where undefined
    (zero events, or values carried in by interpolation).
    """

    band: str
    cause: Cause | None  # None means all-cause (pooled events)
    n: int
    ages: np.ndarray
    events: np.ndarray
    at_risk: np.ndarray
    hazard: np.ndarray
    variance: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    interpolated: np.ndarray
    theta: float = DEFAULT_THETA

    def __post_init__(self) -> None:
        if len({getattr(self, name).shape[0] for name in _ROW_FIELDS}) != 1:
            raise ValueError("curve arrays must share one length")
        if np.any(self.events > self.at_risk):
            raise ValueError("event_count cannot exceed at_risk")
        if np.any((self.hazard < 0) | (self.hazard > 1)):
            raise ValueError("hazard estimates must lie in [0, 1]")

    def row(self, age: int) -> dict:
        idx = np.nonzero(self.ages == age)[0]
        if idx.size == 0:
            raise KeyError(f"age {age} not present in curve")
        i = int(idx[0])
        return {
            "age": int(self.ages[i]),
            "events": int(self.events[i]),
            "at_risk": int(self.at_risk[i]),
            "hazard": float(self.hazard[i]),
            "variance": float(self.variance[i]),
            "ci_lo": float(self.ci_lo[i]),
            "ci_hi": float(self.ci_hi[i]),
            "interpolated": bool(self.interpolated[i]),
        }

    def hazard_at(self, age: int) -> float:
        return self.row(age)["hazard"]

    def take(self, index) -> "HazardCurve":
        """The rows selected by a boolean mask or an index array."""
        return replace(self, **{name: getattr(self, name)[index] for name in _ROW_FIELDS})

    def restrict(self, lo: int, hi: int) -> "HazardCurve":
        """Slice the curve to ages within [lo, hi]."""
        return self.take((self.ages >= lo) & (self.ages <= hi))


# ---------------------------------------------------------------------------
# Standard normal quantile (rational approximation, then one Halley step).
# Peter Acklam's coefficients; raw relative error < 1.15e-9, well inside the
# 1.5e-7 budget, and the erfc-based polish brings it near machine precision.

_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def check_theta(theta: float, name: str = "theta") -> None:
    """Reject a two-sided CI error rate outside (0, 1), or one so small that
    the quantile argument 1 - theta/2 rounds to 1."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {theta}")
    if 1.0 - theta / 2.0 == 1.0:
        raise ValueError(f"{name} {theta} is so small that 1 - theta/2 rounds to 1")


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # One Halley refinement against the exact CDF.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# Counting and curve construction


def observations_to_arrays(observations: ObservationTable):
    """(entry, exit_age, event, is_default): the arrays the kernels consume."""
    return (observations.entry_age, observations.exit_age, observations.event,
            observations.cause == Cause.DEFAULT.value)


def _variance(events: np.ndarray, at_risk: np.ndarray) -> np.ndarray:
    """Delta-method variance of the hazard estimate per age: e(a - e)/a^3."""
    return events * (at_risk - events) / at_risk.astype(np.float64) ** 3


def _log_ci(hazard, events, at_risk, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale bounds hazard*exp(+-z*sqrt(1/e - 1/a)), the upper one capped at 1.

    Rows with zero events, or with events == at_risk, get no usable interval
    here; each caller masks them by its own rule.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        se_log = np.sqrt((at_risk - events) / (at_risk * events.astype(np.float64)))
        return hazard * np.exp(-z * se_log), np.minimum(hazard * np.exp(z * se_log), 1.0)


def curve_from_counts(band: str, cause: Cause | None, n: int, ages, events,
                      at_risk, theta: float = DEFAULT_THETA) -> HazardCurve:
    """Assemble a HazardCurve from raw per-age counts.

    Ages with zero at-risk count are dropped.  Variance and CI formulas:
    var = e(a-e)/a^3 and log-scale bounds hazard*exp(+-z*sqrt(1/e - 1/a)),
    with the upper bound capped at 1 (the cap can bind in small samples;
    the bound is below 1 asymptotically).  theta must pass check_theta.
    """
    check_theta(theta)
    ages = np.asarray(ages, dtype=np.int64)
    events = np.asarray(events, dtype=np.int64)
    at_risk = np.asarray(at_risk, dtype=np.int64)
    keep = at_risk > 0
    ages, events, at_risk = ages[keep], events[keep], at_risk[keep]
    hazard = events / at_risk
    ci_lo, ci_hi = _log_ci(hazard, events, at_risk, normal_quantile(1.0 - theta / 2.0))
    undefined = events == 0
    ci_lo[undefined] = np.nan
    ci_hi[undefined] = np.nan
    saturated = (events == at_risk) & ~undefined
    ci_lo[saturated] = hazard[saturated]
    ci_hi[saturated] = hazard[saturated]
    return HazardCurve(
        band=band, cause=cause, n=n, ages=ages, events=events, at_risk=at_risk,
        hazard=hazard, variance=_variance(events, at_risk), ci_lo=ci_lo, ci_hi=ci_hi,
        interpolated=np.zeros(ages.shape, np.bool_), theta=theta,
    )


def estimate_csh(observations: ObservationTable, cause: Cause | None,
                 age_range: tuple[int, int] | None = None,
                 band: str = "", theta: float = DEFAULT_THETA) -> HazardCurve:
    """Estimate the cause-specific hazard curve from observations.

    cause selects which exits count as events (None pools both causes into an
    all-cause curve).  age_range limits the grid; the default spans age 1
    through the largest exit age.
    """
    if len(observations) == 0:
        raise ValueError("empty observation set")
    entry, exit_age, event, is_default = observations_to_arrays(observations)
    if age_range is None:
        age_range = (1, int(exit_age.max()))
    lo, hi = age_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid age range [{lo}, {hi}]")
    last = int(exit_age.max())  # no one is at risk past the last exit
    lo, hi = min(lo, last + 1), min(hi, last)
    at_risk, ev_d, ev_p = _kernels.count_exits(entry, exit_age, event, is_default, lo, hi)
    if cause is Cause.DEFAULT:
        events = ev_d
    elif cause is Cause.PREPAY:
        events = ev_p
    else:
        events = ev_d + ev_p
    ages = np.arange(lo, hi + 1)
    return curve_from_counts(band, cause, len(observations), ages, events,
                             at_risk, theta=theta)


def asymptotic_variance(curve: HazardCurve) -> np.ndarray:
    """Per-age variance of the hazard estimate.

    In fraction form this is f(U - f)/(n U^3) with f and U the event and
    at-risk fractions; the sample size cancels, leaving e(a - e)/a^3.
    """
    if np.any(curve.at_risk <= 0):
        raise ValueError("at_risk must be positive at every curve row")
    return _variance(curve.events, curve.at_risk)


def confidence_interval(curve: HazardCurve, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale CI bounds at significance theta for each curve row.

    Rows with zero events have no defined interval (NaN); saturated rows
    (events == at_risk) collapse to the point estimate.
    """
    rebuilt = curve_from_counts(curve.band, curve.cause, curve.n, curve.ages,
                                curve.events, curve.at_risk, theta=theta)
    return rebuilt.ci_lo, rebuilt.ci_hi


def interpolate_zero_defaults(curve: HazardCurve) -> HazardCurve:
    """Fill zero-event ages with a constant hazard carried from a neighbor.

    Zero-event rows take the most recent preceding positive hazard; a leading
    run of zeros takes the first positive hazard that follows.  Filled rows
    are flagged and their variance/CI stay undefined rather than being
    fabricated.
    """
    positive = curve.events > 0
    if not positive.any():
        raise ValueError("cannot interpolate an all-zero curve")
    # Each row's source is the last positive row up to it, or the first one.
    source = np.maximum.accumulate(np.where(positive, np.arange(positive.size),
                                            np.argmax(positive)))
    return replace(curve, hazard=curve.hazard[source],
                   interpolated=curve.interpolated | ~positive)


# ---------------------------------------------------------------------------
# Curve CSV round trip

_CURVE_COLUMNS = ["band", "cause", "age", "events", "at_risk", "hazard",
                  "var", "ci_lo", "ci_hi", "interpolated"]


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def write_curve_csv(path: str | Path, curve: HazardCurve) -> None:
    cause_label = curve.cause.label if curve.cause is not None else "all"
    ints = [column.astype(np.int64).tolist() for column in
            (curve.ages, curve.events, curve.at_risk, curve.interpolated)]
    floats = [column.astype(np.float64).tolist() for column in
              (curve.hazard, curve.variance, curve.ci_lo, curve.ci_hi)]
    _write_csv(path, _CURVE_COLUMNS, [
        [curve.band] * curve.ages.size, [cause_label] * curve.ages.size, *ints[:3],
        list(map(repr, floats[0])), *([_fmt(v) for v in column] for column in floats[1:]),
        ints[3]])


def _whole_cell(raw: str) -> int:
    """An age, count or flag cell: empty reads 0, else an integral number below 1e18."""
    value = _parse_float(raw) if raw.strip() else 0.0
    if not (value.is_integer() and abs(value) < 1e18):
        raise ValueError(f"{raw!r} is not a whole number below 1e18")
    return int(value)


def _cause_cell(raw: str) -> str:
    """A curve's cause cell as written, once it reads `all` or a cause label."""
    if raw != "all":
        Cause.from_label(raw)
    return raw


def read_curve_csv(path: str | Path) -> HazardCurve:
    """Read one curve: every row is complete and carries the first row's band
    and cause, ages strictly increase, and numeric cells are numbers or empty
    (whole numbers below 1e18 in the count, age and flag columns).  Each row has
    age >= 1, 0 <= events <= at_risk, at_risk >= 1 and a hazard in [0, 1].
    The first row breaking a rule is a SchemaError located by file and line."""
    cols = _Columns.read(path, _CURVE_COLUMNS)
    if cols.rows == 0:
        raise SchemaError(f"{cols.where}: curve file has no rows")
    ages, events, at_risk = cols.numbers(("age", "events", "at_risk"), _whole_cell, np.int64)
    hazard, variance, ci_lo, ci_hi = cols.numbers(("hazard", "var", "ci_lo", "ci_hi"),
                                                  _parse_float, np.float64)
    interpolated, = cols.numbers(("interpolated",), _whole_cell, np.bool_)
    band = cols.labels("band", str, object)
    cause = cols.labels("cause", _cause_cell, object)
    cell = cols.cell
    cols.check_rows((
        (ages < 1, lambda i: f"age {cell('age', i)} is below 1"),
        (events < 0, lambda i: f"events {cell('events', i)} is negative"),
        (at_risk < 1, lambda i: f"at_risk {cell('at_risk', i)} is below 1"),
        (events > at_risk, lambda i: f"events {cell('events', i)} exceed "
                                     f"at_risk {cell('at_risk', i)}"),
        (~((hazard >= 0.0) & (hazard <= 1.0)),
         lambda i: f"hazard {cell('hazard', i)!r} is not a number in [0, 1]"),
        ((band != band[0]) | (cause != cause[0]),
         lambda i: f"band/cause {band[i]}/{cause[i]} differs from the first row's "
                   f"{band[0]}/{cause[0]}"),
        (np.append(False, ages[1:] <= ages[:-1]),
         lambda i: f"age {cell('age', i)} does not follow age {cell('age', i - 1)}; "
                   f"ages must increase"),
    ))
    return HazardCurve(
        band=band[0], cause=None if cause[0] == "all" else Cause.from_label(cause[0]),
        n=0, ages=ages, events=events, at_risk=at_risk, hazard=hazard, variance=variance,
        ci_lo=ci_lo, ci_hi=ci_hi, interpolated=interpolated,
    )


def check_shared_grid(curve_a: HazardCurve, curve_b: HazardCurve) -> np.ndarray:
    """Return the common age grid or raise when the grids differ."""
    if curve_a.ages.shape != curve_b.ages.shape or np.any(curve_a.ages != curve_b.ages):
        raise IncompatibleInputsError(
            "hazard curves are defined on different age grids")
    return curve_a.ages


def align_grids(curves: dict) -> dict:
    """Restrict every curve to the ages present in all of them.

    Curves estimated from different bands can disagree on which ages carry a
    positive at-risk count (those rows are absent, not zero).  Cross-band
    comparisons need one shared grid, so each curve is cut down to the
    intersection.  Raises when the intersection is empty.
    """
    if not curves:
        raise ValueError("no curves to align")
    # A curve's ages are distinct. Saying so also skips np.unique, whose first
    # call imports numpy.ma (numpy 2.4), about 2 MB of peak RSS.
    common = functools.reduce(functools.partial(np.intersect1d, assume_unique=True),
                              [curve.ages for curve in curves.values()])
    if common.size == 0:
        raise IncompatibleInputsError("hazard curves share no common ages")
    return {label: curve.take(np.isin(curve.ages, common)) for label, curve in curves.items()}
