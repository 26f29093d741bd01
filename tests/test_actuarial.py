"""Amortization, risk-adjusted returns, refinance savings, LTV paths."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import amortize, enumerate_paths, path_enumeration_rho, path_epv, plain_bisect

from cshazard import actuarial
from cshazard.actuarial import (
    AmortizationSchedule,
    annualize,
    balance_at,
    effective_monthly_rate,
    event_probabilities,
    hazard_lookup,
    lifetime_return,
    ltv_trajectory,
    monthly_payment,
    nominal_monthly_rate,
    one_month_return,
    refinance_savings,
    remaining_payments,
    returns_table,
    savings_from_apr,
)
from cshazard.errors import NumericalError
from cshazard.estimator import curve_from_counts

# 3-month toy loan lifetime return at entry, frozen from the brute-force
# path-enumeration oracle (B=100, r=0.02, term=3, lam01=0.1 at ages 1-2,
# recovery 0.4 of principal everywhere)
TOY_RHO_MONTH1 = -0.0262699512471339


def test_payment_formula():
    assert monthly_payment(100, 0.01, 12) == pytest.approx(8.884878867834167, abs=1e-12)
    assert round(monthly_payment(100, 0.01, 12), 4) == 8.8849
    assert monthly_payment(100, 0.0, 10) == 10.0
    with pytest.raises(ValueError):
        monthly_payment(0, 0.01, 12)
    with pytest.raises(ValueError):
        monthly_payment(100, 0.01, 0)
    with pytest.raises(ValueError):
        monthly_payment(100, -0.01, 12)


@pytest.mark.parametrize("principal,rate,term", [
    (100.0, 0.01, 12),
    (100.0, 0.2265 / 12, 72),
    (7485.0, 0.2237 / 12, 27),
    (5000.0, 0.0, 50),
])
def test_payment_and_balances_match_recursion_oracle(principal, rate, term):
    payment, balances = amortize(principal, rate, term)
    assert monthly_payment(principal, rate, term) == pytest.approx(payment, abs=1e-7)
    schedule = AmortizationSchedule.build(principal, rate, term)
    np.testing.assert_allclose(schedule.balances, balances, atol=1e-6)
    assert schedule.balance(0) == principal
    assert abs(schedule.balance(term)) < 0.01
    diffs = np.diff(schedule.balances)
    assert np.all(diffs < 0)  # strictly decreasing while amortizing


def test_balance_closed_form_spot_value():
    # the closed form B(1+r)^x - P((1+r)^x - 1)/r at B=100, r=0.01, psi=12, x=6
    assert round(balance_at(100, 0.01, 12, 6), 4) == 51.4921
    assert balance_at(100, 0.01, 12, 0) == 100.0
    with pytest.raises(ValueError):
        balance_at(100, 0.01, 12, 13)
    with pytest.raises(ValueError):
        balance_at(100, 0.01, 12, -1)


def test_one_month_return_examples():
    assert one_month_return(0.0, 100, 95, 7, 40) == pytest.approx(0.02, abs=1e-12)
    assert one_month_return(1.0, 100, 95, 7, 50) == pytest.approx(-0.50, abs=1e-12)
    # EPV numerator 0.05*40 + 0.95*(95+7) = 98.9
    assert one_month_return(0.05, 100, 95, 7, 40) == pytest.approx(-0.011, abs=1e-12)
    with pytest.raises(ValueError):
        one_month_return(0.05, 0, 95, 7, 40)
    with pytest.raises(ValueError):
        one_month_return(1.5, 100, 95, 7, 40)


def test_one_month_return_decreasing_in_default_probability():
    values = [one_month_return(lam, 100, 95, 7, 40)
              for lam in np.linspace(0, 1, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # recovery equal to the survival cash flow makes lambda irrelevant
    flat = {one_month_return(lam, 100, 95, 7, 102.0) for lam in (0.0, 0.3, 1.0)}
    assert len({round(v, 12) for v in flat}) == 1


def test_annualize():
    assert annualize(0.0) == 0.0
    assert round(annualize(0.01), 6) == 0.126825
    assert round(annualize(-0.5), 6) == -0.999756
    assert annualize(-0.5) == pytest.approx(0.5**12 - 1.0, abs=1e-15)
    with pytest.raises(ValueError):
        annualize(-1.0)


def test_event_probabilities_close_out():
    lam1 = {1: 0.1, 2: 0.2, 3: 0.05}
    p_def, p_pre = event_probabilities(lam1.get, lambda j: 0.0, 1, 3)
    assert p_def.sum() + p_pre.sum() == pytest.approx(1.0, abs=1e-15)
    assert p_def[0] == pytest.approx(0.1, abs=1e-15)
    assert p_def[1] == pytest.approx(0.9 * 0.2, abs=1e-15)
    # final month: everything left beyond the default goes to the payoff path
    assert p_pre[2] == pytest.approx(0.9 * 0.8 * 0.95, abs=1e-15)
    with pytest.raises(ValueError):
        event_probabilities(lambda j: 1.2, lambda j: 0.0, 1, 3)
    with pytest.raises(ValueError):
        event_probabilities(lambda j: 0.7, lambda j: 0.7, 1, 3)


def test_certain_schedule_returns_contract_rate():
    # no payment uncertainty: zero hazards, repayment certain at the term
    for rate in (0.001, 0.01, 0.018):
        for term in (12, 36, 72):
            schedule = AmortizationSchedule.build(1000.0, rate, term)
            for month in (1, term // 2, term):
                rho = lifetime_return(schedule, None, None, None, max(month, 1))
                assert rho == pytest.approx(rate, abs=1e-10)


def test_immediate_certain_payoff_returns_contract_rate():
    schedule = AmortizationSchedule.build(500.0, 0.015, 24)
    rho = lifetime_return(schedule, None, lambda j: 1.0 if j == 6 else 0.0,
                          None, 6)
    assert rho == pytest.approx(0.015, abs=1e-10)


def test_toy_loan_matches_path_enumeration():
    schedule = AmortizationSchedule.build(100.0, 0.02, 3)
    lam1 = {1: 0.1, 2: 0.1}
    lam1_fn = lambda j: lam1.get(j, 0.0)  # noqa: E731
    recovery = {j: 0.4 for j in range(1, 4)}
    for month in (1, 2, 3):
        rho = lifetime_return(schedule, lam1_fn, None, lambda age: 0.4, month)
        want = path_enumeration_rho(schedule, lam1, {}, recovery, month)
        assert rho == pytest.approx(want, abs=1e-10)
    month1 = lifetime_return(schedule, lam1_fn, None, lambda age: 0.4, 1)
    assert month1 == pytest.approx(TOY_RHO_MONTH1, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_randomized_toys_match_enumeration(seed):
    rng = np.random.default_rng(seed)
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
    assert rho == pytest.approx(want, abs=1e-10)


def test_lifetime_return_epv_reconstruction():
    # recompute the EPV at the solved rate with the oracle's path expansion
    schedule = AmortizationSchedule.build(100.0, 0.02, 3)
    lam1 = {1: 0.1, 2: 0.1}
    rec = {j: 0.4 for j in range(1, 4)}
    rho = lifetime_return(schedule, lambda j: lam1.get(j, 0.0), None,
                          lambda age: 0.4, 1)
    price = schedule.balance(0)
    paths = enumerate_paths(schedule, lam1, {}, rec, 1)
    assert path_epv(paths, rho) == pytest.approx(price, abs=1e-8 * price)


def test_lifetime_return_input_checks():
    schedule = AmortizationSchedule.build(100.0, 0.02, 12)
    with pytest.raises(ValueError):
        lifetime_return(schedule, None, None, None, 0)
    with pytest.raises(ValueError):
        lifetime_return(schedule, None, None, None, 13)
    with pytest.raises(NumericalError):
        # recovery 50x the principal cannot be priced inside the bracket
        lifetime_return(schedule, lambda j: 0.9, None, lambda age: 50.0, 1)


@pytest.mark.parametrize("principal,rate,term", [
    (math.nan, 0.01, 12), (math.inf, 0.01, 12), (0.0, 0.01, 12),
    (100.0, math.nan, 12), (100.0, math.inf, 12), (100.0, -0.01, 12),
    (100.0, 0.01, 0), (100.0, 0.01, 12.5),
])
def test_schedule_rejects_bad_contract(principal, rate, term):
    with pytest.raises(ValueError):
        AmortizationSchedule.build(principal, rate, term)


def test_nan_epv_is_a_numerical_error():
    schedule = AmortizationSchedule.build(100.0, 0.02, 12)
    with pytest.raises(NumericalError, match="not a number"):
        lifetime_return(schedule, lambda j: 0.1, None, lambda age: math.nan, 1)


def random_loan(rng, term):
    """A schedule and per-age default, prepay and recovery maps, some hazards zero.

    Recovery is a fraction of principal below the balance outstanding at
    default, so every valuation month has a root inside the bracket.
    """
    schedule = AmortizationSchedule.build(float(rng.uniform(50, 5000)),
                                          float(rng.uniform(0.0, 0.03)), term)
    ages = range(1, term + 1)

    def hazards():
        return {j: 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 0.3)) for j in ages}

    rec = {j: float(rng.uniform(0, 0.8)) * schedule.balance(j - 1) / schedule.principal
           for j in ages}
    return schedule, hazards(), hazards(), rec


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24))
def test_returns_table_rows_are_lifetime_returns(seed, term):
    rng = np.random.default_rng(seed)
    schedule, lam1, lam2, rec = random_loan(rng, term)
    table = returns_table(schedule, lam1.get, lam2.get, rec.get)
    assert table.shape == (term,)
    for month in range(1, term + 1):
        assert table[month - 1] == lifetime_return(schedule, lam1.get, lam2.get, rec.get, month)
    for month in {1, (term + 1) // 2, term}:
        want = path_enumeration_rho(schedule, lam1, lam2, rec, month)
        assert table[month - 1] == pytest.approx(want, abs=1e-10)


def test_returns_table_blocks_repeat_single_month_solves():
    # 100 months span three solve blocks and share dot products between
    # months 32 apart; each row must still be the one-month solve, bit for bit
    curve = curve_from_counts("x", None, 100, np.arange(1, 61),
                              np.arange(60) % 7, np.full(60, 400))
    schedule = AmortizationSchedule.build(15000.0, 0.011, 100)
    table = returns_table(schedule, curve, lambda j: 0.01, lambda age: 0.35)
    singles = [lifetime_return(schedule, curve, lambda j: 0.01, lambda age: 0.35, month)
               for month in range(1, 101)]
    assert table.tolist() == singles


def test_long_term_without_recovery_stays_finite():
    # at the bracket end (1 - 0.99)^-360 overflows; with zero recovery that
    # must still read as an EPV above the price, not as a NaN
    schedule = AmortizationSchedule.build(20000.0, 0.005, 360)
    table = returns_table(schedule, lambda j: 0.002, lambda j: 0.01, None)
    assert np.isfinite(table).all()
    assert table[0] == lifetime_return(schedule, lambda j: 0.002, lambda j: 0.01, None, 1)


def plain_table(schedule, default_hazard, prepay_hazard, recovery):
    """returns_table with oracles.plain_bisect, which evaluates every midpoint."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(actuarial, "_bisect", plain_bisect)
        return returns_table(schedule, default_hazard, prepay_hazard, recovery)


def replay_loan(rng, term, scenario):
    """A schedule with default and prepay hazard maps and a recovery map.

    random: hazards, some zero, and recovery up to the balance at default;
    zero: no hazards and a zero or random contract rate; full: recovery of
    the whole balance at default; low and high: default nearly certain every
    month, recovering 1-3% or 250-299% of the balance, so roots lie near
    the bracket ends -0.99 and 2.0; negative: a small negative recovery,
    whose rows the replay does not trust and evaluates at every midpoint.
    Above 154 months the EPV overflows to +inf at -0.99.
    """
    rate = 0.0 if scenario == "zero" and rng.random() < 0.5 else float(rng.uniform(0, 0.4 / 12))
    schedule = AmortizationSchedule.build(float(rng.uniform(50, 50000)), rate, term)
    ages = range(1, term + 1)
    share = {j: schedule.balance(j - 1) / schedule.principal for j in ages}

    def hazards(top):
        return {j: 0.0 if rng.random() < 0.2 else float(rng.uniform(0, top)) for j in ages}

    if scenario in ("low", "high"):
        lam1 = {j: 1.0 if rng.random() < 0.3 else float(rng.uniform(0.95, 1.0)) for j in ages}
        lo, hi = (0.0101, 0.03) if scenario == "low" else (2.5, 2.99)
        return schedule, lam1, {}, {j: float(rng.uniform(lo, hi)) * share[j] for j in ages}
    if scenario == "zero":
        return schedule, {}, {}, {}
    lam1, lam2 = hazards(0.1), hazards(0.1)
    if scenario == "full":
        return schedule, lam1, lam2, share
    if scenario == "negative":
        return schedule, lam1, lam2, {j: -0.02 * share[j] for j in ages}
    return schedule, lam1, lam2, {j: float(rng.uniform(0, 1)) * share[j] for j in ages}


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 360),
       st.sampled_from(["random", "zero", "full", "low", "high", "negative"]))
@example(11, 360, "random")
@example(12, 360, "zero")
@example(13, 360, "full")
@example(14, 200, "low")
@example(15, 360, "high")
@example(16, 120, "negative")
def test_returns_table_replays_plain_bisection_bit_for_bit(seed, term, scenario):
    if scenario == "negative":
        term = min(term, 120)  # longer, the negative recovery overflows to NaN at -0.99
    schedule, lam1, lam2, rec = replay_loan(np.random.default_rng(seed), term, scenario)
    hazards = (lambda j: lam1.get(j, 0.0), lambda j: lam2.get(j, 0.0),
               lambda age: rec.get(age, 0.0))
    assert same_bits(returns_table(schedule, *hazards), plain_table(schedule, *hazards))


@pytest.mark.parametrize("case,message", [
    ("late NaN recovery", "not a number"),
    ("negative recovery overflowing", "not a number"),
    ("default certain at month 1", "not bracketed"),
])
def test_returns_table_errors_match_plain_bisection(case, message):
    schedule = AmortizationSchedule.build(20000.0, 0.01, 360)
    if case == "late NaN recovery":
        loan = (lambda j: 0.004, lambda j: 0.01, lambda age: math.nan if age == 340 else 0.3)
    elif case == "negative recovery overflowing":
        loan = (lambda j: 0.004, lambda j: 0.01, lambda age: -0.5)
    else:
        loan = (lambda j: 1.0 if j == 1 else 0.0, None, None)
    with pytest.raises(NumericalError, match=message) as plain:
        plain_table(schedule, *loan)
    with pytest.raises(NumericalError) as replayed:
        returns_table(schedule, *loan)
    assert str(replayed.value) == str(plain.value)


def test_returns_table_evaluates_the_epv_near_roots_only(monkeypatch):
    # hazards shaped like the price-long benchmark's bands; every exact EPV
    # evaluation in actuarial (gap) checks its result with np.isnan once
    ages = np.arange(1, 73)
    hump = 0.3 + 0.7 * (ages / 12.0) * np.exp(1.0 - ages / 12.0)
    ramp = 0.5 + 0.5 * np.minimum(ages, 36) / 36.0
    at_risk = np.full(72, 4000)
    default = curve_from_counts("x", None, 4000, ages, np.rint(24 * hump), at_risk)
    prepay = curve_from_counts("x", None, 4000, ages, np.rint(76 * ramp), at_risk)
    schedule = AmortizationSchedule.build(20000.0, 0.126 / 12, 360)

    def recovery(age):
        return 0.06 * age ** 1.4 * math.exp(-age / 10.0)

    want = plain_table(schedule, default, prepay, recovery)
    evaluations = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def isnan(self, x):
            evaluations.append(1)
            return np.isnan(x)

    monkeypatch.setattr(actuarial, "np", CountingNumpy())
    got = returns_table(schedule, default, prepay, recovery)
    assert same_bits(got, want)
    blocks = -(-360 // 48)
    assert len(evaluations) <= 30 * blocks  # the plain bisection makes 52 per block


def test_remaining_payments_examples():
    assert remaining_payments(7485, 360, 0.2237 / 12) == 27
    assert remaining_payments(100, 10, 0.0) == 10
    # exact annuity inversion: B constructed from 12 payments of 360 at 1%
    balance = 360 * (1.0 - 1.01**-12) / 0.01
    assert remaining_payments(balance, 360, 0.01) == 12
    with pytest.raises(ValueError):
        remaining_payments(1000, 5, 0.01)  # payment below interest
    with pytest.raises(ValueError):
        remaining_payments(0, 100, 0.01)
    for args, named in (((1000, -5, 0.0), "payment"), ((1000, 0, 0.0), "payment"),
                        ((1000, math.nan, 0.01), "payment"),
                        ((1000, math.inf, 0.01), "payment"),
                        ((math.inf, 100, 0.01), "balance"),
                        ((math.nan, 100, 0.01), "balance"),
                        ((1000, 100, math.nan), "rate"), ((1000, 100, -0.01), "rate")):
        with pytest.raises(ValueError, match=rf"^{named} must be finite"):
            remaining_payments(*args)
    with pytest.raises(ValueError, match="payment 1e-320 is too small"):
        remaining_payments(1000, 1e-320, 0.0)  # 1000 / 1e-320 overflows


def test_refinance_savings_formula_contract():
    # the plain monthly-rate variant chains remaining_payments and
    # monthly_payment literally; frozen values pin that composition
    est = refinance_savings(7485, 360, 0.2237 / 12, 0.0359 / 12)
    assert est.remaining_payments == 27
    assert est.new_payment == pytest.approx(
        monthly_payment(7485, 0.0359 / 12, 27), abs=1e-12)
    assert est.monthly_saving == pytest.approx(71.0165, abs=5e-4)
    assert est.monthly_saving == pytest.approx(
        est.old_payment - est.new_payment, abs=1e-12)
    assert est.total_saving == pytest.approx(
        est.monthly_saving * est.remaining_payments, abs=1e-9)
    second = refinance_savings(10985, 359, 0.2246 / 12, 0.1797 / 12)
    assert second.remaining_payments == 46
    assert second.monthly_saving == pytest.approx(26.8611, abs=5e-4)


def test_savings_from_apr_table_rows():
    # APR quoting (count at the effective old rate, replacement payment at
    # the nominal new rate) is what lands inside the published bands
    row54 = savings_from_apr(7485, 360, 22.37, 3.59)
    assert abs(row54.monthly_saving - 61) <= 3
    assert row54.remaining_payments == 26
    assert row54.monthly_saving == pytest.approx(60.3437, abs=5e-4)
    row36 = savings_from_apr(10985, 359, 22.46, 17.97)
    assert abs(row36.monthly_saving - 16) <= 3
    assert row36.remaining_payments == 44
    assert row36.monthly_saving == pytest.approx(16.3238, abs=5e-4)
    with pytest.raises(ValueError):
        savings_from_apr(7485, 360, 3.59, 22.37)


def test_savings_positive_and_continuous():
    base = 0.015
    for gap in (1e-6, 1e-4, 1e-2):
        est = refinance_savings(5000, 120, base, base - gap)
        assert est.monthly_saving > 0
    # continuity needs an old payment that amortizes in a whole number of
    # months, otherwise the rounded-up count re-spreads the balance and
    # leaves a discrete gap even at epsilon rate difference
    exact_payment = monthly_payment(5000, base, 66)
    assert remaining_payments(5000, exact_payment, base) == 66
    tiny = refinance_savings(5000, exact_payment, base, base - 1e-9)
    assert 0 < tiny.monthly_saving < 1e-4
    with pytest.raises(ValueError):
        refinance_savings(5000, 120, base, base)


def test_discounted_total_savings():
    est = refinance_savings(5000, 120, 0.015, 0.005, discount_rate=0.01)
    n, monthly = est.remaining_payments, est.monthly_saving
    want = monthly * (1.0 - 1.01**-n) / 0.01
    assert est.total_saving == pytest.approx(want, abs=1e-9)
    undiscounted = refinance_savings(5000, 120, 0.015, 0.005, discount_rate=0.0)
    assert undiscounted.total_saving == pytest.approx(monthly * n, abs=1e-9)
    assert est.total_saving < undiscounted.total_saving
    for bad in (-1.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="discount_rate"):
            refinance_savings(5000, 120, 0.015, 0.005, discount_rate=bad)
        with pytest.raises(ValueError, match="discount_rate"):
            savings_from_apr(7485, 360, 22.37, 3.59, discount_rate=bad)


def test_ltv_trajectory():
    schedule = AmortizationSchedule.build(100.0, 0.2265 / 12, 72)
    ltv = ltv_trajectory(schedule, 100.0, 0.31)
    assert ltv[0] == pytest.approx(1.0, abs=1e-12)
    want_36 = schedule.balance(36) / (100.0 * 0.69**3)
    assert ltv[36] == pytest.approx(want_36, abs=1e-12)
    flat = ltv_trajectory(schedule, 100.0, 0.0)
    np.testing.assert_allclose(flat, schedule.balances / 100.0, atol=1e-15)
    assert np.all(np.diff(flat) < 0)
    with pytest.raises(ValueError):
        ltv_trajectory(schedule, 0.0, 0.31)
    with pytest.raises(ValueError):
        ltv_trajectory(schedule, 100.0, 1.0)


def test_hazard_lookup_tail_extension():
    curve = curve_from_counts("x", None, 100, [5, 6, 8], [1, 2, 3],
                              [100, 100, 100])
    fn = hazard_lookup(curve)
    assert fn(5) == 0.01
    assert fn(6) == 0.02
    assert fn(7) == 0.02   # interior gap carries the previous value
    assert fn(8) == 0.03
    assert fn(60) == 0.03  # constant right tail
    assert fn(1) == 0.01   # constant left tail
    assert hazard_lookup(None)(17) == 0.0


def test_rate_conversions():
    assert nominal_monthly_rate(12.0) == pytest.approx(0.01, abs=1e-15)
    eff = effective_monthly_rate(12.0)
    assert (1 + eff) ** 12 == pytest.approx(1.12, abs=1e-12)
    assert eff < nominal_monthly_rate(12.0)  # compounding makes it smaller
