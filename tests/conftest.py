"""Shared fixtures and curve constructions for the test suite."""
from __future__ import annotations

import csv

import numpy as np
import pytest

from cshazard import montecarlo as mc
from cshazard.estimator import HazardCurve
from cshazard.ingest import ObservedLoan, RiskBand
from cshazard.riskmodel import Cause


@pytest.fixture(scope="session")
def bench_dist():
    return mc.benchmark_distribution()


@pytest.fixture(scope="session")
def bench_trunc():
    return mc.benchmark_truncation()


@pytest.fixture(scope="session")
def small_study(bench_dist, bench_trunc):
    """A cheap study for structural checks; the acceptance test runs the big one."""
    config = mc.SimConfig(dist=bench_dist, trunc=bench_trunc, n=2000,
                          replicates=60, seed=11)
    return mc.run_study(config)


def make_obs(loan_id, entry, exit_age, cause, band=RiskBand.NEAR_PRIME):
    """Observation record shorthand; cause None means censored."""
    return ObservedLoan(
        loan_id=str(loan_id), band=band, entry_age=entry, exit_age=exit_age,
        observed_event=cause is not None, cause=cause,
    )


LOAN_COLUMNS = ("loan_id", "apr_pct", "original_amount", "original_term",
                "loan_age_at_entry", "has_coborrower", "income_verification",
                "subvention", "vehicle_condition", "initial_status", "recovered_amount")
# A near-prime loan that every default FilterPolicy criterion keeps.
CONFORMING_LOAN = {"apr_pct": 12.5, "original_amount": 20000, "original_term": 72,
                   "loan_age_at_entry": 5, "has_coborrower": "false",
                   "income_verification": "stated_not_verified", "subvention": "false",
                   "vehicle_condition": "used", "initial_status": "current",
                   "recovered_amount": 0}


def write_tape(directory, loans, histories):
    """Write a loan tape as the two CSVs that `load_loan_data` reads.

    `loans` maps each loan_id to the fields in which it differs from
    CONFORMING_LOAN; `histories` maps a loan_id to its (balance, payment,
    principal) cells by trust month, None standing for an empty cell.
    Returns the two paths.
    """
    loans_path, payments_path = directory / "loans.csv", directory / "payments.csv"
    with open(loans_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOAN_COLUMNS)
        for loan_id, changes in loans.items():
            fields = {**CONFORMING_LOAN, "loan_id": loan_id, **changes}
            writer.writerow([fields[name] for name in LOAN_COLUMNS])
    with open(payments_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["loan_id", "trust_month", "balance", "payment", "principal"])
        for loan_id, columns in histories.items():
            for month, cells in enumerate(zip(*columns), start=1):
                writer.writerow([loan_id, month, *cells])
    return loans_path, payments_path


@pytest.fixture
def four_loan_cohort():
    """Everyone enters at age 1; one default and one prepay at 2, censors at 3."""
    return [
        make_obs("a", 1, 2, Cause.DEFAULT),
        make_obs("b", 1, 2, Cause.PREPAY),
        make_obs("c", 1, 3, None),
        make_obs("d", 1, 3, None),
    ]


def curve_with_cis(band, ages, ci_lo, ci_hi, hazard=None, events=None,
                   at_risk=None, cause=Cause.DEFAULT, theta=0.05):
    """Build a HazardCurve with prescribed interval bounds.

    Convergence logic only reads ages, hazards, and the CI columns, so the
    count columns just need to satisfy the dataclass invariants.
    """
    ages = np.asarray(ages, dtype=np.int64)
    n = ages.size
    ci_lo = np.asarray(ci_lo, dtype=np.float64)
    ci_hi = np.asarray(ci_hi, dtype=np.float64)
    if hazard is None:
        hazard = (ci_lo + ci_hi) / 2.0
    hazard = np.asarray(hazard, dtype=np.float64)
    if events is None:
        events = np.full(n, 3.0)
    if at_risk is None:
        at_risk = np.full(n, 100.0)
    return HazardCurve(
        band=band, cause=cause, n=500, ages=ages,
        events=np.asarray(events, dtype=np.float64),
        at_risk=np.asarray(at_risk, dtype=np.float64),
        hazard=hazard, variance=np.full(n, 1e-5),
        ci_lo=ci_lo, ci_hi=ci_hi,
        interpolated=np.zeros(n, dtype=bool), theta=theta,
    )


def staged_curve(band, onset, centre, ages=None):
    """Curve whose CI sits in a private window before `onset`, then drops
    into the shared [0.010, 0.020] window from `onset` onward."""
    if ages is None:
        ages = np.arange(1, 41)
    ages = np.asarray(ages, dtype=np.int64)
    lo = np.where(ages < onset, centre - 0.02, 0.010)
    hi = np.where(ages < onset, centre + 0.02, 0.020)
    return curve_with_cis(band, ages, lo, hi)


STAGED_ONSETS = [10, 13, 17, 22, 28]
STAGED_CENTRES = [0.05, 0.20, 0.35, 0.50, 0.65]


def staged_band_set():
    """Five bands whose pairwise convergence month is max(onset_i, onset_j)."""
    curves = {}
    order = []
    for i, (onset, centre) in enumerate(zip(STAGED_ONSETS, STAGED_CENTRES)):
        label = f"b{i}"
        curves[label] = staged_curve(label, onset, centre)
        order.append(label)
    return curves, order


def hump_observations(seed=7, sigma=0.01, per_age=1):
    """Noisy recovery hump: gamma-like shape scaled to peak 0.42 at age 12.

    Ages 1..20 with `per_age` draws per age.  Returns (pairs, truth) where
    truth is the noiseless curve on the age grid.
    """
    rng = np.random.default_rng(seed)
    ages = np.arange(1, 21)
    shape = ages ** 2.0 * np.exp(-ages / 6.0)
    truth = 0.42 * shape / shape.max()
    pairs = []
    for age, mu in zip(ages, truth):
        for _ in range(per_age):
            pairs.append((int(age), float(np.clip(mu + rng.normal(0.0, sigma), 0.0, 1.0))))
    return pairs, truth
