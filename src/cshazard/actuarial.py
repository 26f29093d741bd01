"""Amortization math, risk-adjusted returns, refinance savings, and LTV.

Monthly-rate space throughout: a contract at annual percentage rate APR pays
interest at the nominal monthly rate APR/1200 on the declining balance.  The
lifetime risk-adjusted return treats the loan as a two-path asset at every
future month (default with recovery, or continue/prepay) and solves for the
discount rate that equates the expected present value of the remaining cash
flows to the balance entering the valuation month.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimator import HazardCurve

__all__ = [
    "AmortizationSchedule",
    "SavingsEstimate",
    "monthly_payment",
    "balance_at",
    "one_month_return",
    "annualize",
    "lifetime_return",
    "remaining_payments",
    "refinance_savings",
    "savings_from_apr",
    "ltv_trajectory",
    "nominal_monthly_rate",
    "effective_monthly_rate",
    "hazard_lookup",
]

_BRACKET = (-0.99, 2.0)
_CEIL_GUARD = 1e-9


def monthly_payment(principal: float, rate: float, term: int) -> float:
    """Level payment amortizing `principal` over `term` months at monthly `rate`."""
    if principal <= 0:
        raise ValueError("principal must be positive")
    if term < 1:
        raise ValueError("term must be >= 1")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    if rate == 0:
        return principal / term
    return principal * rate / (1.0 - (1.0 + rate) ** -term)


def balance_at(principal: float, rate: float, term: int, month: int) -> float:
    """Outstanding balance after `month` payments; zero at the full term."""
    if not 0 <= month <= term:
        raise ValueError(f"month {month} outside [0, {term}]")
    payment = monthly_payment(principal, rate, term)
    if rate == 0:
        return principal - payment * month
    growth = (1.0 + rate) ** month
    return principal * growth - payment * (growth - 1.0) / rate


@dataclass(frozen=True)
class AmortizationSchedule:
    """Contract path: principal, monthly rate, term, payment, balances B_0..B_term."""

    principal: float
    rate: float
    term: int
    payment: float
    balances: np.ndarray

    @classmethod
    def build(cls, principal: float, rate: float, term: int) -> "AmortizationSchedule":
        payment = monthly_payment(principal, rate, term)
        balances = np.array([balance_at(principal, rate, term, m)
                             for m in range(term + 1)])
        return cls(principal=principal, rate=rate, term=term,
                   payment=payment, balances=balances)

    def balance(self, month: int) -> float:
        if not 0 <= month <= self.term:
            raise ValueError(f"month {month} outside [0, {self.term}]")
        return float(self.balances[month])


def one_month_return(lam01: float, balance: float, next_balance: float,
                     payment: float, recovery_value: float) -> float:
    """Single-period return of the two-path asset priced at `balance`.

    With default probability lam01 the holder receives `recovery_value` next
    month; otherwise the scheduled payment plus the surviving balance.  All
    cash amounts are currency.
    """
    if balance <= 0:
        raise ValueError("balance must be positive")
    if not 0.0 <= lam01 <= 1.0:
        raise ValueError("default probability must lie in [0, 1]")
    expected = lam01 * recovery_value + (1.0 - lam01) * (next_balance + payment)
    return expected / balance - 1.0


def annualize(monthly_rate: float) -> float:
    """Geometric compounding of a monthly rate to an annual one."""
    if monthly_rate <= -1.0:
        raise ValueError("monthly rate must exceed -1")
    return (1.0 + monthly_rate) ** 12 - 1.0


def hazard_lookup(curve: HazardCurve | None):
    """Build an age -> hazard callable from a curve.

    Ages beyond the last curve row carry the last value forward (constant
    tail); ages before the first row carry the first value back.  A missing
    curve means hazard zero everywhere.
    """
    if curve is None:
        return lambda age: 0.0
    ages = curve.ages
    hazard = curve.hazard

    def lookup(age: int) -> float:
        if age <= int(ages[0]):
            return float(hazard[0])
        if age >= int(ages[-1]):
            return float(hazard[-1])
        idx = np.searchsorted(ages, age)
        if int(ages[idx]) == age:
            return float(hazard[idx])
        # interior gap in the grid: carry the previous value forward
        return float(hazard[idx - 1])

    return lookup


def _as_hazard_fn(source):
    if source is None:
        return lambda age: 0.0
    if isinstance(source, HazardCurve):
        return hazard_lookup(source)
    if callable(source):
        return source
    raise TypeError("hazard source must be a HazardCurve, callable, or None")


def event_probabilities(default_hazard, prepay_hazard, start: int, term: int):
    """Per-month probabilities of defaulting/prepaying at each j in [start, term].

    Row j is the cause hazard at j times the probability of surviving ages
    [start, j).  The final month is closed out: whatever survival mass is
    left beyond the default hazard goes to the prepay path, whose cash flow
    is exactly the scheduled final payment.  Columns sum to 1.
    """
    lam1_fn = _as_hazard_fn(default_hazard)
    lam2_fn = _as_hazard_fn(prepay_hazard)
    m = term - start + 1
    p_def = np.zeros(m)
    p_pre = np.zeros(m)
    alive = 1.0
    for i, j in enumerate(range(start, term + 1)):
        lam1 = float(lam1_fn(j))
        lam2 = float(lam2_fn(j))
        if not (0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0 and lam1 + lam2 <= 1.0 + 1e-12):
            raise ValueError(f"invalid hazards at age {j}: {lam1}, {lam2}")
        if j == term:
            lam2 = 1.0 - lam1
        p_def[i] = lam1 * alive
        p_pre[i] = lam2 * alive
        alive *= 1.0 - (lam1 + lam2)
    total = p_def.sum() + p_pre.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"event probabilities sum to {total}, not 1")
    return p_def, p_pre


def lifetime_return(schedule: AmortizationSchedule, default_hazard, prepay_hazard,
                    recovery, month: int) -> float:
    """Monthly rate equating the remaining cash flows' EPV to the entering balance.

    The asset is priced at the balance after month-1 payments.  For each
    future month j the default path pays the scheduled payment through j-1
    and then the recovery value (recovery fraction of original principal at
    default age j); the prepay path pays through j-1 and then the surviving
    balance plus the final scheduled payment.  recovery is a callable
    age -> fraction of original principal (None means zero).  Root-solving is
    bisection on the monotone EPV.
    """
    if not 1 <= month <= schedule.term:
        raise ValueError(f"month {month} outside [1, {schedule.term}]")
    price = schedule.balance(month - 1)
    if price <= 0:
        raise ValueError("entering balance must be positive")
    p_def, p_pre = event_probabilities(default_hazard, prepay_hazard,
                                       month, schedule.term)
    rec_fn = recovery if recovery is not None else (lambda age: 0.0)
    steps = np.arange(1, schedule.term - month + 2)  # discount step of month j
    rec_values = np.array([float(rec_fn(j)) * schedule.principal
                           for j in range(month, schedule.term + 1)])
    bal_values = schedule.balances[month:schedule.term + 1]
    payment = schedule.payment

    def epv(rho: float) -> float:
        disc = (1.0 + rho) ** -steps.astype(np.float64)
        annuity = np.concatenate(([0.0], np.cumsum(disc)[:-1]))
        path_def = payment * annuity + rec_values * disc
        path_pre = payment * annuity + (bal_values + payment) * disc
        return float(p_def @ path_def + p_pre @ path_pre)

    lo, hi = _BRACKET
    g_lo = epv(lo) - price
    g_hi = epv(hi) - price
    if g_lo < 0 or g_hi > 0:
        raise NumericalError(
            f"EPV root not bracketed on [{lo}, {hi}]: g({lo})={g_lo:.3g}, g({hi})={g_hi:.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = epv(mid) - price
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    rho = 0.5 * (lo + hi)
    if abs(epv(rho) - price) > 1e-8 * price:
        raise NumericalError("EPV reconstruction failed at the solved rate")
    return rho


def remaining_payments(balance: float, payment: float, rate: float) -> int:
    """Number of payments needed to clear `balance`, final fraction rounded up."""
    if balance <= 0:
        raise ValueError("balance must be positive")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    if rate == 0:
        raw = balance / payment
    else:
        if payment <= balance * rate:
            raise ValueError("payment does not cover interest; loan never amortizes")
        raw = -math.log(1.0 - balance * rate / payment) / math.log1p(rate)
    return math.ceil(raw - _CEIL_GUARD)


@dataclass(frozen=True)
class SavingsEstimate:
    """Refinance comparison over the remaining payment count."""

    old_payment: float
    new_payment: float
    monthly_saving: float
    total_saving: float
    remaining_payments: int


def _savings(old_payment: float, new_payment: float, n: int,
             discount_rate: float | None) -> SavingsEstimate:
    """The estimate for n payments; total_saving is discounted when a nonzero rate is given."""
    monthly = old_payment - new_payment
    if not discount_rate:
        total = monthly * n
    elif math.isfinite(discount_rate) and discount_rate > -1.0:
        total = monthly * (1.0 - (1.0 + discount_rate) ** -n) / discount_rate
    else:
        raise ValueError(f"discount_rate must be finite and above -1, got {discount_rate}")
    return SavingsEstimate(
        old_payment=old_payment, new_payment=new_payment,
        monthly_saving=monthly, total_saving=total, remaining_payments=n,
    )


def refinance_savings(balance: float, old_payment: float, old_rate: float,
                      new_rate: float, discount_rate: float | None = None
                      ) -> SavingsEstimate:
    """Savings from re-amortizing `balance` at `new_rate` over the remaining count.

    Rates are per month.  total_saving is the undiscounted monthly saving
    times the payment count; pass discount_rate for a present-value variant.
    """
    if new_rate >= old_rate:
        raise ValueError("refinance rate must be below the current rate")
    n = remaining_payments(balance, old_payment, old_rate)
    return _savings(old_payment, monthly_payment(balance, new_rate, n), n, discount_rate)


def nominal_monthly_rate(apr_pct: float) -> float:
    """Contract accrual rate: APR percent divided by 1200."""
    return apr_pct / 100.0 / 12.0


def effective_monthly_rate(apr_pct: float) -> float:
    """Monthly rate compounding to the annual APR: (1 + APR)^(1/12) - 1."""
    return (1.0 + apr_pct / 100.0) ** (1.0 / 12.0) - 1.0


def savings_from_apr(balance: float, old_payment: float, old_apr_pct: float,
                     new_apr_pct: float, discount_rate: float | None = None
                     ) -> SavingsEstimate:
    """Refinance savings quoted from annual percentage rates.

    The remaining payment count solves the annuity inversion at the effective
    monthly equivalent of the old APR; the replacement payment is quoted at
    the nominal monthly new rate (APR/12), the rate a contract actually
    accrues at.  Mixing the two is what reproduces observed quote sheets.
    """
    if new_apr_pct >= old_apr_pct:
        raise ValueError("refinance APR must be below the current APR")
    n = remaining_payments(balance, old_payment, effective_monthly_rate(old_apr_pct))
    new_payment = monthly_payment(balance, nominal_monthly_rate(new_apr_pct), n)
    return _savings(old_payment, new_payment, n, discount_rate)


def ltv_trajectory(schedule: AmortizationSchedule, initial_value: float,
                   annual_depreciation: float) -> np.ndarray:
    """Outstanding balance over depreciated collateral value for x = 0..term."""
    if initial_value <= 0:
        raise ValueError("initial_value must be positive")
    if not 0.0 <= annual_depreciation < 1.0:
        raise ValueError("annual_depreciation must lie in [0, 1)")
    months = np.arange(schedule.term + 1)
    value = initial_value * (1.0 - annual_depreciation) ** (months / 12.0)
    return schedule.balances / value
