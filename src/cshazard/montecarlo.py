"""Simulation study validating the estimator against its asymptotic theory.

Cohorts are drawn from a known competing-risks distribution under uniform
entry ages and a fixed censoring offset; draws whose entry age exceeds the
lifetime are discarded (not re-drawn), so the retained fraction estimates the
probability of clearing truncation.  Each replicate is estimated with the
production estimator, and the report compares empirical means, variances,
and CI coverage against the analytic truncated quantities, which are
computed in closed form.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .estimator import _log_ci, check_theta, normal_quantile
from .ingest import ObservationTable, _write_csv
from .riskmodel import Cause, CompetingRisksDistribution, TruncationLaw, survival

__all__ = [
    "SimConfig",
    "StudyReport",
    "benchmark_distribution",
    "benchmark_truncation",
    "simulate_cohort",
    "run_study",
    "truncated_alpha",
    "observed_event_fraction",
    "observed_at_risk_fraction",
    "truncated_hazard",
    "analytic_variance",
]


def benchmark_distribution() -> CompetingRisksDistribution:
    """Built-in ten-month validation distribution with a known cause split."""
    return CompetingRisksDistribution(
        min_age=1,
        max_age=10,
        pmf=(0.04, 0.06, 0.10, 0.14, 0.09, 0.06, 0.14, 0.18, 0.07, 0.12),
        cause1_share=(0.66, 0.20, 0.45, 0.87, 0.20, 0.81, 0.05, 0.78, 0.25, 0.42),
    )


def benchmark_truncation() -> TruncationLaw:
    """Entry uniform on months 1..5 with a five-month observation window."""
    return TruncationLaw(lo=1, hi=5, censor_offset=5)


@dataclass(frozen=True)
class SimConfig:
    dist: CompetingRisksDistribution
    trunc: TruncationLaw
    n: int
    replicates: int
    seed: int
    theta: float = 0.05

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("cohort size must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_theta(self.theta)


# ---------------------------------------------------------------------------
# Analytic truncated quantities (closed-form summation over the entry law)


def truncated_alpha(dist: CompetingRisksDistribution, trunc: TruncationLaw) -> float:
    """Probability a drawn lifetime clears truncation: sum_y Pr(Y=y) Pr(X>=y).

    Pr(X >= y) is 1 below the law's first age and 0 past its last.
    """
    return sum(trunc.prob(y) * survival(dist, min(max(y, dist.min_age), dist.max_age + 1))
               for y in trunc.support)


def _retention(dist: CompetingRisksDistribution, trunc: TruncationLaw) -> float:
    """truncated_alpha, the divisor of every analytic fraction, rejected where it is 0."""
    alpha = truncated_alpha(dist, trunc)
    if alpha <= 0:
        last = dist.min_age + max(i for i, p in enumerate(dist.pmf) if p > 0)
        raise ValueError(f"entry window {trunc.lo}..{trunc.hi} lies past the law's last age "
                         f"with mass, {last}: no lifetime clears truncation")
    return alpha


def _entry_window_prob(trunc: TruncationLaw, x: int) -> float:
    """Pr(Y <= x <= Y + offset) under the entry law."""
    lo = max(trunc.lo, x - trunc.censor_offset)
    hi = min(trunc.hi, x)
    if hi < lo:
        return 0.0
    return (hi - lo + 1) * trunc.prob(lo)


def _event_fraction(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                    x: int, cause: Cause, alpha: float) -> float:
    share = dist.cause1_share[dist.index(x)]
    if cause is Cause.PREPAY:
        share = 1.0 - share
    return dist.prob(x) * share * _entry_window_prob(trunc, x) / alpha


def _at_risk_fraction(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                      x: int, alpha: float) -> float:
    return _entry_window_prob(trunc, x) * survival(dist, x) / alpha


def _hazard_and_variance(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                         x: int, cause: Cause, n_observed: float,
                         alpha: float) -> tuple[float, float]:
    """(f/U, f(U-f)/(n U^3)) at x, given the retention probability alpha."""
    f = _event_fraction(dist, trunc, x, cause, alpha)
    u = _at_risk_fraction(dist, trunc, x, alpha)
    if u <= 0:
        raise ValueError(f"no at-risk mass at age {x} under this truncation law")
    return f / u, f * (u - f) / (n_observed * u**3)


def observed_event_fraction(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                            x: int, cause: Cause) -> float:
    """Expected fraction of retained loans observed exiting at x by `cause`.

    The joint event mass factorizes into the unconditional event probability
    times the probability the observation window straddles x, normalized by
    the retention probability.
    """
    return _event_fraction(dist, trunc, x, cause, _retention(dist, trunc))


def observed_at_risk_fraction(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                              x: int) -> float:
    """Expected fraction of retained loans at risk at age x."""
    return _at_risk_fraction(dist, trunc, x, _retention(dist, trunc))


def truncated_hazard(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                     x: int, cause: Cause) -> float:
    """Cause-specific hazard under truncation; equals the unconditional one."""
    return _hazard_and_variance(dist, trunc, x, cause, 1.0, _retention(dist, trunc))[0]


def analytic_variance(dist: CompetingRisksDistribution, trunc: TruncationLaw,
                      x: int, cause: Cause, n_observed: float) -> float:
    """Asymptotic variance of the hazard estimate: f(U-f)/(n U^3).

    n_observed is the number of observations the estimator actually sees,
    i.e. the retained count.  When a study draws n and discards truncated
    lifetimes, pass n times the retention probability.
    """
    return _hazard_and_variance(dist, trunc, x, cause, n_observed,
                                _retention(dist, trunc))[1]


# ---------------------------------------------------------------------------
# Simulation


def _uniforms(config: SimConfig, replicate_index: int):
    """One replicate's three uniform streams: entry, lifetime and cause."""
    if replicate_index < 0:
        raise ValueError("replicate_index must be >= 0")
    seq = np.random.SeedSequence(entropy=config.seed,
                                 spawn_key=(replicate_index,))
    rng = np.random.default_rng(seq)
    return rng.random(config.n), rng.random(config.n), rng.random(config.n)


def _law_arrays(dist: CompetingRisksDistribution):
    """(cdf, default share) per age, as the kernels take them."""
    return (np.cumsum(np.asarray(dist.pmf, dtype=np.float64)),
            np.asarray(dist.cause1_share, dtype=np.float64))


def simulate_cohort(config: SimConfig, replicate_index: int) -> ObservationTable:
    """One replicate's retained observations (no loan ids, no band)."""
    entry, exit_age, event, is_default = _kernels.assemble_cohort(
        *_uniforms(config, replicate_index), *_law_arrays(config.dist),
        config.trunc.lo, config.trunc.hi, config.dist.min_age,
        config.trunc.censor_offset,
    )
    cause = np.where(is_default, Cause.DEFAULT.value, Cause.PREPAY.value)
    return ObservationTable(
        loan_id=np.full(entry.size, "", dtype=object), band=np.full(entry.size, -1),
        entry_age=entry, exit_age=exit_age, event=event, cause=np.where(event, cause, 0),
    )


@dataclass(frozen=True)
class StudyReport:
    """Aggregated estimator behavior across replicates.

    Arrays are indexed [age, cause] with cause 0 = default, 1 = prepay.
    Coverage is the fraction of replicates whose CI (where defined) contains
    the analytic truncated hazard; NaN where no replicate had a defined CI.
    """

    ages: np.ndarray
    lam_true: np.ndarray
    lam_mean: np.ndarray
    emp_var: np.ndarray
    asym_var: np.ndarray
    coverage: np.ndarray
    ci_defined: np.ndarray
    estimates: np.ndarray  # [replicate, age, cause]; NaN where no one was at risk
    alpha_true: float
    alpha_hat: float
    n: int
    replicates: int
    seed: int
    theta: float

    @property
    def truncation_fraction(self) -> float:
        return 1.0 - self.alpha_hat

    @property
    def var_ratio(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.emp_var / self.asym_var

    def to_dict(self) -> dict:
        def grid(arr):
            return [[None if np.isnan(v) else float(v) for v in row] for row in arr]

        return {
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "theta": self.theta,
            "alpha_true": self.alpha_true,
            "alpha_hat": self.alpha_hat,
            "truncation_fraction": self.truncation_fraction,
            "ages": [int(a) for a in self.ages],
            "causes": ["default", "prepay"],
            "lam_true": grid(self.lam_true),
            "lam_mean": grid(self.lam_mean),
            "emp_var": grid(self.emp_var),
            "asym_var": grid(self.asym_var),
            "var_ratio": grid(self.var_ratio),
            "coverage": grid(self.coverage),
            "ci_defined": [[int(v) for v in row] for row in self.ci_defined],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write_csv(self, path: str | Path) -> None:
        """Per-age rows suitable for plotting estimate-vs-truth comparisons."""
        ages = np.asarray(self.ages, np.int64)  # each age takes a default and a prepay row
        _write_csv(path, ["age", "cause", "lam_true", "lam_mean", "emp_var",
                          "asym_var", "var_ratio", "coverage", "ci_defined"], [
            np.repeat(ages, 2).tolist(), ["default", "prepay"] * ages.size,
            *(["" if v != v else repr(v) for v in np.asarray(arr, np.float64).ravel().tolist()]
              for arr in (self.lam_true, self.lam_mean, self.emp_var, self.asym_var,
                          self.var_ratio, self.coverage)),
            np.asarray(self.ci_defined, np.int64).ravel().tolist()])


# Replicates are counted and scored in blocks of about this many (replicate, age)
# rows, and of at most this many (replicate, occupied code) pairs, so the tally
# and the interval pass hold a bounded set of temporaries however long the law.
_SCORE_BLOCK_ROWS = 1 << 12


def run_study(config: SimConfig) -> StudyReport:
    """Run the full replicate loop and aggregate against analytic truth.

    Every draw lands in one (entry offset, lifetime index, cause) cell, and
    every cell gives one observation or none, so a replicate is counted from
    its histogram over the cells rather than from its individual draws, and
    a block of replicates from one tally of their occupied cells.
    """
    dist, trunc = config.dist, config.trunc
    ages = np.arange(dist.min_age, dist.max_age + 1)
    n_ages = ages.size
    r = config.replicates

    alpha = _retention(dist, trunc)
    n_observed = config.n * alpha
    lam_true = np.empty((n_ages, 2))
    asym = np.empty((n_ages, 2))
    for ai, x in enumerate(ages):
        for ci, cause in enumerate((Cause.DEFAULT, Cause.PREPAY)):
            lam_true[ai, ci], asym[ai, ci] = _hazard_and_variance(
                dist, trunc, int(x), cause, n_observed, alpha)

    # cell codes as `draw_cells` gives them; offsets past the last age share the last row
    offset_codes = _kernels.offset_codes(trunc.lo, trunc.hi, dist.min_age, n_ages)
    offsets = offset_codes.size
    entry = np.repeat(trunc.lo + np.arange(offsets), 2 * n_ages)
    keep, exit_age, event = _kernels.truncate_censor(entry, np.tile(np.repeat(ages, 2), offsets),
                                                     trunc.censor_offset)
    is_default = np.tile([False, True], offsets * n_ages)
    n_codes = entry.size
    cdf, share = _law_arrays(dist)
    table = _kernels.guide_table(cdf)
    z = normal_quantile(1.0 - config.theta / 2.0)

    estimates = np.empty((r, n_ages, 2))
    defined_counts = np.zeros((n_ages, 2), dtype=np.int64)
    covered_counts = np.zeros((n_ages, 2), dtype=np.int64)
    kept = np.empty(r, dtype=np.int64)
    # a replicate occupies at most min(n, live codes) codes
    block = min(r, max(1, _SCORE_BLOCK_ROWS // max(n_ages, min(config.n, int(keep.sum())))))
    for first in range(0, r, block):
        stop = min(first + block, r)
        codes, counts = [], []
        for rep in range(first, stop):
            hist = np.bincount(_kernels.draw_cells(*_uniforms(config, rep), cdf, table, share,
                                                   trunc.hi - trunc.lo + 1, offset_codes),
                               minlength=n_codes)
            sel = ((hist > 0) & keep).nonzero()[0]  # the occupied live codes
            codes.append(sel)
            counts.append(hist[sel])
        # every replicate's (code, count) pairs, counted at once by replicate
        group = np.repeat(np.arange(stop - first), [sel.size for sel in codes])
        codes, counts = np.concatenate(codes), np.concatenate(counts)
        kept[first:stop] = np.bincount(group, counts, minlength=stop - first)
        ar, ev_d, ev_p = _kernels.count_exits(
            entry[codes], exit_age[codes], event[codes], is_default[codes],
            int(ages[0]), int(ages[-1]), weights=counts, groups=group, n_groups=stop - first)
        ar, ev = ar[:, :, None], np.stack((ev_d, ev_p), axis=2)  # ar broadcasts over causes

        with np.errstate(invalid="ignore"):
            estimates[first:stop] = np.where(ar > 0, ev / ar, np.nan)
        # zero-event and saturated rows have no usable interval: undefined
        defined = (ev > 0) & (ev < ar)
        lo, hi = _log_ci(estimates[first:stop], ev, ar, z)
        defined_counts += defined.sum(axis=0)
        covered_counts += (defined & (lo <= lam_true) & (lam_true <= hi)).sum(axis=0)

    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lam_mean = np.nanmean(estimates, axis=0)
        emp_var = np.nanvar(estimates, axis=0, ddof=1) if r > 1 else np.full(
            (n_ages, 2), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        coverage = np.where(defined_counts > 0, covered_counts / defined_counts, np.nan)

    return StudyReport(
        ages=ages, lam_true=lam_true, lam_mean=lam_mean, emp_var=emp_var,
        asym_var=asym, coverage=coverage, ci_defined=defined_counts,
        estimates=estimates,
        alpha_true=alpha,
        alpha_hat=float((kept / config.n).mean()),
        n=config.n, replicates=config.replicates, seed=config.seed,
        theta=config.theta,
    )
