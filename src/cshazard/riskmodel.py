"""Discrete lifetime distributions with two competing termination causes.

A loan lifetime X takes integer month values on [min_age, max_age] and ends
by exactly one of two causes: default (cause 1) or prepayment (cause 2).
The distribution is stored exactly as a per-age pmf plus the conditional
probability that an event at age x is a default.  Hazards, cause-specific
hazards, survival, and conditional event-probability tables are derived
quantities computed on demand.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Cause",
    "CompetingRisksDistribution",
    "TruncationLaw",
    "all_cause_hazard",
    "survival",
    "cause_specific_hazard",
    "conditional_event_probs",
]

_SUM_TOL = 1e-9


class Cause(Enum):
    """Terminal state of a loan: default (1) or prepayment (2)."""

    DEFAULT = 1
    PREPAY = 2

    @property
    def label(self) -> str:
        return "default" if self is Cause.DEFAULT else "prepay"

    @classmethod
    def from_label(cls, label: str) -> "Cause":
        key = label.strip().lower()
        if key in ("default", "1"):
            return cls.DEFAULT
        if key in ("prepay", "prepayment", "2"):
            return cls.PREPAY
        raise ValueError(f"unknown cause label: {label!r}")


@dataclass(frozen=True)
class CompetingRisksDistribution:
    """Ground-truth lifetime law with a per-age cause split.

    pmf[i] is Pr(X = min_age + i); cause1_share[i] is the probability that an
    event at that age is a default.  Entries are kept exactly as given;
    rounded display values are never stored.
    """

    min_age: int
    max_age: int
    pmf: tuple[float, ...]
    cause1_share: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.max_age - self.min_age + 1
        if self.max_age < self.min_age:
            raise ValueError("max_age must be >= min_age")
        if len(self.pmf) != n or len(self.cause1_share) != n:
            raise ValueError("pmf and cause1_share must cover [min_age, max_age]")
        # NaN passes both `p < 0` and the sum test, so finiteness needs its own check
        if any(not (math.isfinite(p) and p >= 0) for p in self.pmf):
            raise ValueError("pmf entries must be finite and nonnegative")
        if abs(sum(self.pmf) - 1.0) > _SUM_TOL:
            raise ValueError("pmf must sum to 1")
        if any(not 0.0 <= s <= 1.0 for s in self.cause1_share):
            raise ValueError("cause1_share entries must lie in [0, 1]")

    @property
    def ages(self) -> np.ndarray:
        return np.arange(self.min_age, self.max_age + 1)

    def index(self, x: int) -> int:
        if not self.min_age <= x <= self.max_age:
            raise ValueError(f"age {x} outside [{self.min_age}, {self.max_age}]")
        return x - self.min_age

    def prob(self, x: int) -> float:
        """Pr(X = x)."""
        return self.pmf[self.index(x)]

    def to_json(self) -> str:
        doc = {
            "min_age": self.min_age,
            "max_age": self.max_age,
            "pmf": list(self.pmf),
            "cause1_share": list(self.cause1_share),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CompetingRisksDistribution":
        doc = json.loads(text)
        return cls(
            min_age=int(doc["min_age"]),
            max_age=int(doc["max_age"]),
            pmf=tuple(float(p) for p in doc["pmf"]),
            cause1_share=tuple(float(s) for s in doc["cause1_share"]),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CompetingRisksDistribution":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class TruncationLaw:
    """Observation scheme: entry age Y uniform on {lo..hi}, censor at C = Y + offset."""

    lo: int
    hi: int
    censor_offset: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise ValueError("lo must be >= 1")
        if self.hi < self.lo:
            raise ValueError("hi must be >= lo")
        if self.censor_offset < 1:
            raise ValueError("censor_offset must be >= 1")

    @property
    def support(self) -> range:
        return range(self.lo, self.hi + 1)

    def prob(self, y: int) -> float:
        """Pr(Y = y)."""
        if self.lo <= y <= self.hi:
            return 1.0 / (self.hi - self.lo + 1)
        return 0.0


def survival(dist: CompetingRisksDistribution, x: int) -> float:
    """Pr(X >= x) for x in [min_age, max_age + 1].

    Computed as the tail sum of the pmf; survival(min_age) = 1 and
    survival(max_age + 1) = 0 up to float roundoff.
    """
    if not dist.min_age <= x <= dist.max_age + 1:
        raise ValueError(f"age {x} outside [{dist.min_age}, {dist.max_age + 1}]")
    return float(sum(dist.pmf[x - dist.min_age :]))


def all_cause_hazard(dist: CompetingRisksDistribution, x: int) -> float:
    """Pr(X = x | X >= x)."""
    s = survival(dist, x)
    if s <= 0.0:
        raise ValueError(f"zero survival mass at age {x}")
    return dist.prob(x) / s


def cause_specific_hazard(dist: CompetingRisksDistribution, x: int, cause: Cause) -> float:
    """Pr(X = x, terminal cause = cause | X >= x)."""
    share = dist.cause1_share[dist.index(x)]
    if cause is Cause.PREPAY:
        share = 1.0 - share
    s = survival(dist, x)
    if s <= 0.0:
        raise ValueError(f"zero survival mass at age {x}")
    return dist.prob(x) * share / s


def conditional_event_probs(
    dist: CompetingRisksDistribution, x: int
) -> tuple[np.ndarray, np.ndarray]:
    """Table of Pr(X = j, cause = i | X >= x) for j = x..max_age.

    Returns (ages, probs) where probs has shape (len(ages), 2) with column 0
    the default cause and column 1 prepayment.  Each row j is built as the
    cause-specific hazard at j times the probability of surviving every age
    in [x, j); the full table sums to 1.
    """
    s = survival(dist, x)
    if s <= 0.0:
        raise ValueError(f"zero survival mass at age {x}")
    ages = np.arange(x, dist.max_age + 1)
    probs = np.zeros((ages.size, 2))
    alive = 1.0
    for row, j in enumerate(ages):
        lam1 = cause_specific_hazard(dist, j, Cause.DEFAULT)
        lam2 = cause_specific_hazard(dist, j, Cause.PREPAY)
        probs[row, 0] = lam1 * alive
        probs[row, 1] = lam2 * alive
        alive *= 1.0 - (lam1 + lam2)
    return ages, probs
