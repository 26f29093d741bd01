"""Hazard estimation: counts, variance, intervals, interpolation, grids."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import observation_table
from oracles import life_table, z_quantile

from cshazard.errors import IncompatibleInputsError, SchemaError
from cshazard.estimator import (
    DEFAULT_WINDOW,
    align_grids,
    asymptotic_variance,
    check_shared_grid,
    confidence_interval,
    curve_from_counts,
    estimate_csh,
    interpolate_zero_defaults,
    normal_quantile,
    read_curve_csv,
    write_curve_csv,
)
from cshazard.riskmodel import Cause

# frozen from the closed-form CI derivation: e=10, a=50, theta=0.05,
# z = 1.9599639845400538 (scipy norm.ppf), se_log = sqrt(0.08),
# bounds = 0.2 * exp(-+z*se) evaluated in float64
CI_LO_FROZEN = 0.11488778125918318
CI_HI_FROZEN = 0.34816583244619614


def test_hand_counted_four_loan_cohort(four_loan_cohort):
    curve_d = estimate_csh(four_loan_cohort, Cause.DEFAULT)
    row = curve_d.row(2)
    assert row["at_risk"] == 4
    assert row["events"] == 1
    assert row["hazard"] == 0.25
    curve_p = estimate_csh(four_loan_cohort, Cause.PREPAY)
    assert curve_p.hazard_at(2) == 0.25


def test_no_events_means_zero_hazard(four_loan_cohort):
    censored_only = observation_table([(i, 1, 3, None) for i in range(5)])
    curve = estimate_csh(censored_only, Cause.DEFAULT)
    assert np.all(curve.hazard == 0.0)
    assert np.all(np.isnan(curve.ci_lo))


def test_variance_formula_spot_value():
    # fractions f=0.10, U=0.50 at n=100 are counts e=10, a=50
    curve = curve_from_counts("x", Cause.DEFAULT, 100, [5], [10], [50])
    assert curve.variance[0] == pytest.approx(0.0032, abs=1e-18)
    assert asymptotic_variance(curve)[0] == pytest.approx(0.0032, abs=1e-18)


def test_variance_degenerate_rows():
    saturated = curve_from_counts("x", None, 10, [1], [10], [10])
    assert saturated.variance[0] == 0.0
    assert saturated.ci_lo[0] == saturated.ci_hi[0] == 1.0
    empty = curve_from_counts("x", None, 10, [1], [0], [10])
    assert empty.variance[0] == 0.0
    assert np.isnan(empty.ci_lo[0]) and np.isnan(empty.ci_hi[0])


def test_confidence_interval_frozen_values():
    curve = curve_from_counts("x", Cause.DEFAULT, 100, [5], [10], [50], theta=0.05)
    assert curve.ci_lo[0] == pytest.approx(CI_LO_FROZEN, abs=1e-12)
    assert curve.ci_hi[0] == pytest.approx(CI_HI_FROZEN, abs=1e-12)
    assert round(float(curve.ci_lo[0]), 4) == 0.1149
    assert round(float(curve.ci_hi[0]), 4) == 0.3482
    lo, hi = confidence_interval(curve, 0.05)
    assert lo[0] == curve.ci_lo[0] and hi[0] == curve.ci_hi[0]


def test_confidence_interval_brackets_the_estimate():
    curve = curve_from_counts("x", None, 200, [1, 2, 3], [3, 7, 50], [80, 90, 100])
    inside = (curve.events > 0) & (curve.events < curve.at_risk)
    assert np.all(curve.ci_lo[inside] < curve.hazard[inside])
    assert np.all(curve.hazard[inside] < curve.ci_hi[inside])
    assert np.all(curve.ci_lo[inside] > 0) and np.all(curve.ci_hi[inside] < 1)


def test_interval_collapses_as_theta_approaches_one():
    curve = curve_from_counts("x", None, 100, [1], [10], [50])
    lo, hi = confidence_interval(curve, 1.0 - 1e-12)
    assert lo[0] == pytest.approx(0.2, abs=1e-9)
    assert hi[0] == pytest.approx(0.2, abs=1e-9)
    with pytest.raises(ValueError):
        confidence_interval(curve, 0.0)
    with pytest.raises(ValueError):
        confidence_interval(curve, 1.0)


def test_quantile_against_scipy():
    from scipy import stats

    for theta in (0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-6):
        mine = normal_quantile(1.0 - theta / 2.0)
        assert mine == pytest.approx(z_quantile(theta), abs=1e-10)
    for p in (1e-12, 1e-6, 0.3, 0.5, 0.97, 0.9999):
        assert normal_quantile(p) == pytest.approx(float(stats.norm.ppf(p)), abs=1e-12)
    # the far upper tail computes 1 - p inside erfc and cannot stay at machine
    # precision, but remains far inside the documented 1.5e-7 budget
    for p in (1.0 - 1e-9, 1.0 - 1e-12):
        assert normal_quantile(p) == pytest.approx(float(stats.norm.ppf(p)), abs=2e-8)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_zero_at_risk_ages_are_absent(four_loan_cohort):
    curve = estimate_csh(four_loan_cohort, Cause.DEFAULT, age_range=(1, 6))
    assert curve.ages.tolist() == [1, 2, 3]  # nobody at risk past age 3
    with pytest.raises(KeyError):
        curve.row(5)


def test_estimate_rejects_bad_inputs(four_loan_cohort):
    with pytest.raises(ValueError):
        estimate_csh(observation_table([]), Cause.DEFAULT)
    with pytest.raises(ValueError):
        estimate_csh(four_loan_cohort, Cause.DEFAULT, age_range=(0, 5))
    with pytest.raises(ValueError):
        estimate_csh(four_loan_cohort, Cause.DEFAULT, age_range=(4, 2))


def test_interpolation_carry_rules():
    curve = curve_from_counts("x", None, 100, [1, 2, 3], [2, 0, 3], [100, 100, 100])
    filled = interpolate_zero_defaults(curve)
    assert filled.hazard.tolist() == [0.02, 0.02, 0.03]
    assert filled.interpolated.tolist() == [False, True, False]
    assert np.isnan(filled.ci_lo[1])  # no fabricated interval

    leading = curve_from_counts("x", None, 100, [1, 2], [0, 5], [100, 100])
    filled = interpolate_zero_defaults(leading)
    assert filled.hazard.tolist() == [0.05, 0.05]
    assert filled.interpolated.tolist() == [True, False]

    untouched = curve_from_counts("x", None, 100, [1, 2], [4, 5], [100, 100])
    same = interpolate_zero_defaults(untouched)
    assert same.hazard.tolist() == untouched.hazard.tolist()
    assert not same.interpolated.any()

    all_zero = curve_from_counts("x", None, 100, [1, 2], [0, 0], [100, 100])
    with pytest.raises(ValueError):
        interpolate_zero_defaults(all_zero)


def test_default_window_restrict():
    ages = np.arange(1, 73)
    curve = curve_from_counts("x", None, 500, ages, np.ones_like(ages),
                              np.full_like(ages, 400))
    lo, hi = DEFAULT_WINDOW
    windowed = curve.restrict(lo, hi)
    assert windowed.ages[0] == 10 and windowed.ages[-1] == 55
    assert windowed.ages.size == 46


def random_cohort(rng, n):
    obs = []
    for i in range(n):
        entry = int(rng.integers(1, 4))
        exit_age = entry + int(rng.integers(0, 8))
        kind = rng.choice(["d", "p", "c"])
        cause = {"d": Cause.DEFAULT, "p": Cause.PREPAY, "c": None}[kind]
        obs.append((i, entry, exit_age, cause))
    return observation_table(obs)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_life_table_equivalence_random_cohorts(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        cohort = random_cohort(rng, int(rng.integers(3, 51)))
        for cause in (Cause.DEFAULT, Cause.PREPAY, None):
            curve = estimate_csh(cohort, cause, age_range=(1, 12))
            table = life_table(cohort, cause, 1, 12)
            for x in range(1, 13):
                at_risk, events, hazard = table[x]
                if at_risk == 0:
                    assert x not in curve.ages
                    continue
                row = curve.row(x)
                assert row["at_risk"] == at_risk
                assert row["events"] == events
                assert row["hazard"] == hazard  # same division, bit for bit


@st.composite
def cohorts_and_windows(draw):
    """A small cohort and an estimation window that may start after some
    exits or end before some entries."""
    n = draw(st.integers(1, 30))
    obs = []
    for i in range(n):
        entry = draw(st.integers(1, 15))
        exit_age = entry + draw(st.integers(0, 10))
        cause = draw(st.sampled_from([Cause.DEFAULT, Cause.PREPAY, None]))
        obs.append((i, entry, exit_age, cause))
    lo = draw(st.integers(1, 28))
    hi = lo + draw(st.integers(0, 12))
    return observation_table(obs), lo, hi


@settings(max_examples=200, deadline=None)
@given(cohorts_and_windows(), st.sampled_from([Cause.DEFAULT, Cause.PREPAY, None]))
def test_estimate_matches_life_table_on_random_windows(cohort_window, cause):
    cohort, lo, hi = cohort_window
    curve = estimate_csh(cohort, cause, age_range=(lo, hi))
    table = life_table(cohort, cause, lo, hi)
    expected = [(x, *table[x]) for x in range(lo, hi + 1) if table[x][0] > 0]
    got = list(zip(curve.ages.tolist(), curve.at_risk.tolist(), curve.events.tolist(),
                   curve.hazard.tolist()))
    assert got == expected  # same ages, counts and division, bit for bit


def test_theta_must_leave_a_quantile_argument_below_one():
    for theta in (0.0, 1.0, float("nan"), 1e-20, 1e-16):
        with pytest.raises(ValueError, match="theta"):
            curve_from_counts("x", Cause.DEFAULT, 10, [1], [1], [5], theta=theta)
    # the smallest theta whose 1 - theta/2 is still below 1 keeps finite bounds
    curve = curve_from_counts("x", Cause.DEFAULT, 10, [1], [1], [5], theta=2.3e-16)
    assert 0.0 < curve.ci_lo[0] < curve.hazard[0] < curve.ci_hi[0] == 1.0


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_cause_additivity_exact(seed):
    rng = np.random.default_rng(seed)
    cohort = random_cohort(rng, 40)
    d = estimate_csh(cohort, Cause.DEFAULT)
    p = estimate_csh(cohort, Cause.PREPAY)
    pooled = estimate_csh(cohort, None)
    assert np.array_equal(d.ages, p.ages) and np.array_equal(d.ages, pooled.ages)
    assert np.array_equal(d.at_risk, pooled.at_risk)  # same denominators
    assert np.array_equal(d.events + p.events, pooled.events)  # integer identity
    for i in range(pooled.ages.size):
        lhs = Fraction(int(d.events[i]), int(d.at_risk[i])) + \
            Fraction(int(p.events[i]), int(p.at_risk[i]))
        rhs = Fraction(int(pooled.events[i]), int(pooled.at_risk[i]))
        assert lhs == rhs  # exact in rational arithmetic
    float_gap = np.abs(d.hazard + p.hazard - pooled.hazard)
    assert np.all(float_gap <= np.spacing(pooled.hazard))  # within 1 ulp


def test_curve_csv_round_trip(tmp_path, four_loan_cohort):
    curve = estimate_csh(four_loan_cohort, Cause.DEFAULT, band="subprime")
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    back = read_curve_csv(path)
    assert back.band == curve.band
    assert back.cause is curve.cause
    # n is not part of the export schema, so the reader cannot recover it
    for name in ("ages", "events", "at_risk", "hazard", "variance",
                 "ci_lo", "ci_hi", "interpolated"):
        np.testing.assert_array_equal(getattr(back, name), getattr(curve, name),
                                      err_msg=name)


CURVE_HEADER = "band,cause,age,events,at_risk,hazard,var,ci_lo,ci_hi,interpolated"


@pytest.mark.parametrize("rows,line,message", [
    (["prime,default,1", "prime,default,2", "near_prime,prepay,3"], 4,
     "band/cause near_prime/prepay differs from the first row's prime/default"),
    (["prime,default,1", "prime,prepay,2"], 3,
     "band/cause prime/prepay differs from the first row's prime/default"),
    (["prime,default,1", "prime,default,2", "prime,default,2"], 4,
     "age 2 does not follow age 2"),
    (["prime,default,2", "prime,default,1"], 3, "age 1 does not follow age 2"),
    (["prime,default,1", "prime,default"], 3, "row has fewer than 10 fields"),
    (["prime,default,1", "prime,default,2,-3,-1,0.1,,,,0"], 3, "events -3 is negative"),
    (["prime,default,1,0,0,0.0,,,,0"], 2, "at_risk 0 is below 1"),
    (["prime,default,1", "prime,default,2,10,9,0.1,,,,0"], 3, "events 10 exceed at_risk 9"),
    (["prime,default,1", "prime,default,2,1,9,,,,,0"], 3,
     "hazard '' is not a number in [0, 1]"),
    (["prime,default,1,1,9,nan,,,,0"], 2, "hazard 'nan' is not a number in [0, 1]"),
    (["prime,default,1,1,9,1.5,,,,0"], 2, "hazard '1.5' is not a number in [0, 1]"),
])
def test_curve_csv_rows_must_share_a_label_and_increase_in_age(tmp_path, rows, line, message):
    # a row given as band, cause and age gets valid counts and hazard appended
    path = tmp_path / "curve.csv"
    path.write_text("\n".join([CURVE_HEADER, *(r if r.count(",") == 9 else r + ",1,9,0.1,,,,0"
                                                for r in rows)]) + "\n")
    with pytest.raises(SchemaError) as info:
        read_curve_csv(path)
    assert str(info.value).startswith(f"{path}:{line}: {message}")


def test_shared_grid_checks(four_loan_cohort):
    full = estimate_csh(four_loan_cohort, Cause.DEFAULT)
    clipped = full.restrict(2, 3)
    with pytest.raises(IncompatibleInputsError):
        check_shared_grid(full, clipped)
    assert check_shared_grid(full, full).tolist() == full.ages.tolist()


def test_align_grids_intersects():
    a = curve_from_counts("a", None, 50, [1, 2, 3, 4], [1, 1, 1, 1], [9, 9, 9, 9])
    b = curve_from_counts("b", None, 50, [2, 3, 4, 5], [1, 1, 1, 1], [9, 9, 9, 9])
    aligned = align_grids({"a": a, "b": b})
    assert aligned["a"].ages.tolist() == [2, 3, 4]
    assert aligned["b"].ages.tolist() == [2, 3, 4]
    check_shared_grid(aligned["a"], aligned["b"])
    c = curve_from_counts("c", None, 50, [9], [1], [9])
    with pytest.raises(IncompatibleInputsError):
        align_grids({"a": a, "c": c})


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400), st.integers(0, 400), st.integers(0, 400))
def test_counts_to_curve_invariants(at_risk, e1, e2):
    # two cause curves on one denominator always pool exactly
    e1 = min(e1, at_risk)
    e2 = min(e2, at_risk - e1)
    d = curve_from_counts("x", Cause.DEFAULT, 500, [4], [e1], [at_risk])
    p = curve_from_counts("x", Cause.PREPAY, 500, [4], [e2], [at_risk])
    pooled = curve_from_counts("x", None, 500, [4], [e1 + e2], [at_risk])
    assert Fraction(e1, at_risk) + Fraction(e2, at_risk) == Fraction(e1 + e2, at_risk)
    gap = abs(float(d.hazard[0]) + float(p.hazard[0]) - float(pooled.hazard[0]))
    assert gap <= np.spacing(pooled.hazard[0])
    if 0 < e1 < at_risk:
        assert 0.0 < d.ci_lo[0] < d.hazard[0] < d.ci_hi[0] <= 1.0
