"""Acceptance gate: nine checks, one test and one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are stated inline next to each assertion; nothing here is
allowed to loosen without a matching note in the project decision log.
"""
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import hump_observations, observation_table, staged_band_set, STAGED_ONSETS
from oracles import enumerate_truncated, life_table, path_enumeration_rho
from test_ingest import GOLDEN, hist
from cshazard.actuarial import AmortizationSchedule, lifetime_return, savings_from_apr
from cshazard.convergence import Decision, convergence_point, overlap_test, transition_matrix
from cshazard.estimator import estimate_csh
from cshazard.ingest import determine_outcome
from cshazard.montecarlo import (
    SimConfig,
    benchmark_distribution,
    benchmark_truncation,
    observed_at_risk_fraction,
    observed_event_fraction,
    run_study,
    truncated_alpha,
    truncated_hazard,
)
from cshazard.recovery import fit_gamma_kernel, recovery_points, smooth
from cshazard.riskmodel import Cause

CAUSES = (Cause.DEFAULT, Cause.PREPAY)


def verdict(number, text):
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_01_simulation_study():
    # benchmark preset, n=10,000, r=1,000, seed 7; four sub-checks plus runtime
    config = SimConfig(dist=benchmark_distribution(), trunc=benchmark_truncation(),
                       n=10_000, replicates=1_000, seed=7)
    start = time.perf_counter()
    report = run_study(config)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0

    # (a) retained fraction
    assert abs(report.alpha_hat - 0.864) <= 0.010

    # (b) replicate mean within three Monte-Carlo SEs at ages 1..9, both causes
    se = np.sqrt(report.emp_var[:9] / config.replicates)
    gap = np.abs(report.lam_mean[:9] - report.lam_true[:9])
    assert np.all(se > 0)
    assert np.max(gap / se) <= 3.0

    # (c) empirical CI coverage wherever the interval was ever defined
    defined = report.ci_defined > 0
    cov = report.coverage[defined]
    assert np.all((cov >= 0.935) & (cov <= 0.965))

    # (d) variance ratio on cells with event mass f >= 0.01
    f = np.array([[observed_event_fraction(config.dist, config.trunc, x, c)
                   for c in CAUSES] for x in range(1, 11)])
    ratio = report.var_ratio[f >= 0.01]
    assert np.all((ratio >= 0.8) & (ratio <= 1.2))

    verdict(1, f"n=10000 r=1000 seed=7 in {elapsed:.1f}s; "
               f"alpha_hat={report.alpha_hat:.4f}, "
               f"max|mean-true|/se={np.max(gap / se):.2f}, "
               f"coverage [{cov.min():.3f}, {cov.max():.3f}], "
               f"var ratio [{ratio.min():.3f}, {ratio.max():.3f}]")


def test_criterion_02_enumeration_equivalence():
    # factorized truncated quantities vs exhaustive (lifetime, entry) sums
    dist, trunc = benchmark_distribution(), benchmark_truncation()
    worst = 0.0
    for x in range(1, 11):
        for cause in CAUSES:
            f_enum, u_enum, alpha_enum = enumerate_truncated(dist, trunc, x, cause)
            worst = max(
                worst,
                abs(observed_event_fraction(dist, trunc, x, cause) - f_enum),
                abs(observed_at_risk_fraction(dist, trunc, x) - u_enum),
                abs(truncated_hazard(dist, trunc, x, cause) - f_enum / u_enum),
                abs(truncated_alpha(dist, trunc) - alpha_enum),
            )
    assert worst <= 1e-12
    verdict(2, f"all ages x both causes agree; worst gap {worst:.2e}")


def test_criterion_03_certainty_returns_contract_rate():
    # with no hazards the solved lifetime return is the contract rate
    balances = (100.0, 7485.0, 30000.0)
    rates = (0.001, 0.005, 0.01, 0.0186)
    terms = (12, 36, 72)
    start = time.perf_counter()
    combos = 0
    worst = 0.0
    for principal, rate, term in itertools.product(balances, rates, terms):
        schedule = AmortizationSchedule.build(principal, rate, term)
        for month in range(1, term + 1, max(1, term // 9)):
            rho = lifetime_return(schedule, None, None, None, month)
            worst = max(worst, abs(rho - rate))
            combos += 1
    elapsed = time.perf_counter() - start
    assert combos >= 200
    assert worst <= 1e-10
    assert elapsed <= 5.0
    verdict(3, f"{combos} (B, r, term, month) combos in {elapsed:.2f}s; "
               f"worst |rho - r| = {worst:.2e}")


def test_criterion_04_toy_epv_oracle():
    # three-month loans vs brute-force enumeration over every outcome path
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(60):
        principal = float(rng.uniform(50, 5000))
        rate = float(rng.uniform(0.001, 0.02))
        schedule = AmortizationSchedule.build(principal, rate, 3)
        lam1 = {j: float(rng.uniform(0, 0.3)) for j in (1, 2, 3)}
        lam2 = {j: float(rng.uniform(0, 0.3)) for j in (1, 2)}
        rec = {j: float(rng.uniform(0, 0.8)) for j in (1, 2, 3)}
        month = int(rng.integers(1, 4))
        rho = lifetime_return(schedule, lam1.get, lambda j: lam2.get(j, 0.0),
                              lambda age: rec.get(age, 0.0), month)
        want = path_enumeration_rho(schedule, lam1, lam2, rec, month)
        worst = max(worst, abs(rho - want))
    assert worst <= 1e-10
    verdict(4, f"60 seeded toy loans; worst |rho - enumerated| = {worst:.2e}")


def test_criterion_05_refinance_savings_rows():
    first = savings_from_apr(7485.0, 360.0, 22.37, 3.59)
    second = savings_from_apr(10985.0, 359.0, 22.46, 17.97)
    assert first.monthly_saving == pytest.approx(61.0, abs=3.0)
    assert second.monthly_saving == pytest.approx(16.0, abs=3.0)
    verdict(5, f"monthly savings {first.monthly_saving:.2f} (target 61±3) "
               f"and {second.monthly_saving:.2f} (target 16±3)")


def dyadic_fixtures():
    """Cohorts whose per-age counts make the float hazard sum exact."""
    four = observation_table([
        ("a", 1, 2, Cause.DEFAULT),
        ("b", 1, 2, Cause.PREPAY),
        ("c", 1, 3, None),
        ("d", 1, 3, None),
    ])
    eight = observation_table(
        [(f"d{i}", 1, 1, Cause.DEFAULT) for i in range(2)]
        + [(f"p{i}", 1, 1, Cause.PREPAY) for i in range(2)]
        + [(f"c{i}", 1, 2, None) for i in range(4)]
    )
    return [four, eight]


def random_cohort(rng, n):
    obs = []
    for i in range(n):
        entry = int(rng.integers(1, 4))
        exit_age = entry + int(rng.integers(0, 8))
        kind = rng.choice(["d", "p", "c"])
        cause = {"d": Cause.DEFAULT, "p": Cause.PREPAY, "c": None}[kind]
        obs.append((i, entry, exit_age, cause))
    return observation_table(obs)


def test_criterion_06_estimator_identities():
    # additivity, float-exact on the worked-example fixtures
    for cohort in dyadic_fixtures():
        d = estimate_csh(cohort, Cause.DEFAULT)
        p = estimate_csh(cohort, Cause.PREPAY)
        pooled = estimate_csh(cohort, None)
        assert np.array_equal(d.hazard + p.hazard, pooled.hazard)

    # 100 random small cohorts: shared denominators, integer count additivity,
    # the exact rational identity, and bit-exact life-table agreement
    rng = np.random.default_rng(6)
    cohorts = 0
    while cohorts < 100:
        cohort = random_cohort(rng, int(rng.integers(3, 51)))
        cohorts += 1
        d = estimate_csh(cohort, Cause.DEFAULT, age_range=(1, 12))
        p = estimate_csh(cohort, Cause.PREPAY, age_range=(1, 12))
        pooled = estimate_csh(cohort, None, age_range=(1, 12))
        assert np.array_equal(d.at_risk, pooled.at_risk)
        assert np.array_equal(d.events + p.events, pooled.events)
        for i in range(d.ages.size):
            a = int(d.at_risk[i])
            assert Fraction(int(d.events[i]), a) + Fraction(int(p.events[i]), a) \
                == Fraction(int(pooled.events[i]), a)
        for cause in (Cause.DEFAULT, Cause.PREPAY, None):
            curve = estimate_csh(cohort, cause, age_range=(1, 12))
            table = life_table(cohort, cause, 1, 12)
            for x in range(1, 13):
                at_risk, events, hazard = table[x]
                if at_risk == 0:
                    assert x not in curve.ages
                    continue
                row = curve.row(x)
                assert (row["at_risk"], row["events"]) == (at_risk, events)
                assert row["hazard"] == hazard
    verdict(6, f"additivity exact on fixtures and {cohorts} random cohorts; "
               f"life table matched bit for bit")


def test_criterion_07_convergence_rules():
    curves, order = staged_band_set()
    matrix, _ = transition_matrix(curves, band_order=order)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            want = 10 if i == j else max(STAGED_ONSETS[i], STAGED_ONSETS[j])
            assert matrix.month(a, b) == want
            assert matrix.month(a, b) == matrix.month(b, a)
    # identical curves converge at the minimum test age
    solo = convergence_point(curves["b3"], curves["b3"])
    assert solo.convergence_month == 10
    # closed-interval convention: touching endpoints count as overlap
    assert overlap_test((0.10, 0.20), (0.20, 0.30)) is Decision.FAIL_TO_REJECT
    assert overlap_test((0.10, 0.19), (0.20, 0.30)) is Decision.REJECT
    verdict(7, "staggered-onset matrix exact, diagonal 10, symmetric, "
               "touching intervals fail to reject")


def test_criterion_08_outcome_goldens():
    assert len(GOLDEN) >= 12
    for name, balance, payment, principal, kind, month in GOLDEN:
        outcome = determine_outcome(hist(balance, payment, principal))
        assert (outcome.kind, outcome.event_month) == (kind, month), name
    verdict(8, f"{len(GOLDEN)} hand-traced payment fixtures classified exactly")


def test_criterion_09_recovery_fit():
    ages = np.arange(1.0, 31.0)
    true_c, true_k, true_theta = 0.1, 3.0, 6.0
    values = true_c * ages ** (true_k - 1.0) * np.exp(-ages / true_theta)
    fit = fit_gamma_kernel(ages, values)
    rel = max(abs(fit.c - true_c) / true_c, abs(fit.k - true_k) / true_k,
              abs(fit.theta - true_theta) / true_theta)
    assert rel <= 1e-3

    pairs, _ = hump_observations()
    points = recovery_points(pairs)
    hump_fit = fit_gamma_kernel(points.ages, smooth(points))
    assert abs(hump_fit.peak_age - 12.0) <= 3.0
    verdict(9, f"known kernel recovered to {rel:.2e} relative; "
               f"hump peak at {hump_fit.peak_age:.2f} (target 12±3)")
