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
from .riskmodel import _event_rows

__all__ = [
    "AmortizationSchedule",
    "SavingsEstimate",
    "monthly_payment",
    "balance_at",
    "one_month_return",
    "annualize",
    "lifetime_return",
    "returns_table",
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
    if not (math.isfinite(principal) and principal > 0):
        raise ValueError(f"principal must be finite and positive, got {principal}")
    if not isinstance(term, (int, np.integer)) or term < 1:
        raise ValueError(f"term must be an integer >= 1, got {term!r}")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if rate == 0:
        return principal / term
    if 1.0 + rate == 1.0:  # (1 + rate) ** -term rounds to 1; log1p keeps the rate
        return principal * (rate / -math.expm1(-term * math.log1p(rate)))
    return principal * rate / (1.0 - (1.0 + rate) ** -term)


def balance_at(principal: float, rate: float, term: int, month: int) -> float:
    """Outstanding balance after `month` payments; zero at the full term."""
    if not 0 <= month <= term:
        raise ValueError(f"month {month} outside [0, {term}]")
    payment = monthly_payment(principal, rate, term)
    if rate == 0:
        return principal - payment * month
    if 1.0 + rate == 1.0:  # the present value of the payments still due
        return payment * (-math.expm1(-((term - month) * math.log1p(rate))) / rate)
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
    """Build an age -> hazard callable from a curve (None means hazard zero)."""
    return lambda age: float(_by_age(curve, np.array([age]))[0])


def _by_age(source, ages: np.ndarray) -> np.ndarray:
    """A HazardCurve, an age -> value callable, or None (zero) at each age.

    A curve gives the row of the latest grid age <= age, and its first row
    before the grid starts.
    """
    if source is None:
        return np.zeros(ages.size)
    if isinstance(source, HazardCurve):
        row = np.searchsorted(source.ages, ages, side="right") - 1
        return source.hazard[np.clip(row, 0, source.ages.size - 1)]
    return np.array([float(source(j)) for j in ages.tolist()])


def _hazards(default_hazard, prepay_hazard, ages: np.ndarray):
    """Both hazards at consecutive ages up to the term, checked, with the final
    month closed out: the mass left beyond default prepays the final payment."""
    lam1, lam2 = _by_age(default_hazard, ages), _by_age(prepay_hazard, ages)
    bad = ~((lam1 >= 0.0) & (lam1 <= 1.0) & (lam2 >= 0.0) & (lam2 <= 1.0)
            & (lam1 + lam2 <= 1.0 + 1e-12))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"invalid hazards at age {ages[i]}: {lam1[i]}, {lam2[i]}")
    lam2[-1] = 1.0 - lam1[-1]
    return lam1, lam2


def event_probabilities(default_hazard, prepay_hazard, start: int, term: int):
    """Probabilities of defaulting and of prepaying at each age in [start, term]."""
    ages = np.arange(start, term + 1)
    live = np.ones((1, ages.size), dtype=bool)
    return tuple(_event_rows(*_hazards(default_hazard, prepay_hazard, ages), live)[:, 0])


def lifetime_return(schedule: AmortizationSchedule, default_hazard, prepay_hazard,
                    recovery, month: int) -> float:
    """Monthly rate equating the remaining cash flows' EPV to the entering balance.

    The asset is priced at the balance after month-1 payments.  For each
    future month j the default path pays the scheduled payment through j-1
    and then the recovery value (recovery fraction of original principal at
    default age j); the prepay path pays through j-1 and then the surviving
    balance plus the final scheduled payment.  A hazard is a HazardCurve,
    an age -> hazard callable, or None (zero); recovery is a callable
    age -> fraction of original principal (None means zero).

    The rate is the one a bisection on (-0.99, 2.0) finds when it evaluates
    the EPV at every midpoint, down to an interval below 1e-14.  A Newton
    estimate of the root settles the midpoints far from it; only those near
    it evaluate the EPV, by the same arithmetic, so the rate keeps its bits.
    """
    if not 1 <= month <= schedule.term:
        raise ValueError(f"month {month} outside [1, {schedule.term}]")
    return float(_solve(schedule, default_hazard, prepay_hazard, recovery, month, month)[0])


def returns_table(schedule: AmortizationSchedule, default_hazard, prepay_hazard,
                  recovery) -> np.ndarray:
    """lifetime_return of every valuation month 1..term, solved together."""
    return _solve(schedule, default_hazard, prepay_hazard, recovery, 1, schedule.term)


_BLOCK = 48  # valuation months solved together; about 2 MB of work arrays at T=360
# OpenBLAS dot kernels accumulate in lanes over blocks of 16 or 32 elements,
# so leading zeros in a multiple of 32 leave a dot's bits unchanged (the
# tests compare every table row with the month solved alone).
_DOT_ALIGN = 32
# The widest replay distance a row may have; _estimate_roots gives each row
# its own, and a row whose distance is wider evaluates at every step.
_MARGIN = 1e-12
_NEWTON_STEPS = 8


def _solve(schedule, default_hazard, prepay_hazard, recovery, first: int, last: int):
    """Monthly rates of valuation months first..last."""
    price = schedule.balances[first - 1:last]
    if np.any(price <= 0):
        raise ValueError("entering balance must be positive")
    ages = np.arange(first, schedule.term + 1)
    lam1, lam2 = _hazards(default_hazard, prepay_hazard, ages)
    # the final cash flow of the default path (recovery) and of the prepay path
    cash = np.stack([_by_age(recovery, ages) * schedule.principal,
                     schedule.balances[first:] + schedule.payment])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.concatenate([
            _bisect(lam1[b:], lam2[b:], cash[:, b:], schedule.payment, price[b:b + _BLOCK])
            for b in range(0, price.size, _BLOCK)])


def _bisect(lam1, lam2, cash, payment, price) -> np.ndarray:
    """Bisection for consecutive valuation months, one per row.

    Columns run from the first row's month to the term, so row r starts r
    columns in.  Each row repeats the one-month solve bit for bit: its dots
    start at column r mod 32 and it stops once its own hi - lo < 1e-14.

    The midpoints are those of a bisection that calls gap() on every row
    at every step, but most rows at most steps need not call it.  A few
    Newton steps first estimate each row's root and its own replay distance
    (_estimate_roots), which give the row's near interval.  A midpoint
    outside it takes its side from the estimate, which is the side gap()
    would give there.  A step where some active row's midpoint is inside,
    or where an active row's estimate is not trusted (its interval is the
    whole line), calls gap() on the rows from the first to the last such
    row; a far row inside that range takes gap()'s sign, which is the
    estimate's side.  Columns before the range's first row, rounded down to
    a multiple of 32, are dead in every row of the range, so gap() skips
    them: each dot starts a multiple of 32 columns later than in the full
    block, over leading zeros only, and keeps its bits.

    The bracket ends are evaluated, for the "not bracketed" check, unless
    both lie outside every row's near interval: then g(-0.99) > 0 > g(2.0)
    on every row, and the ends are two more far points.  A NaN input leaves
    its row untrusted, so that block still evaluates the ends and raises as
    the plain bisection does.
    """
    rows, width = price.size, lam1.size
    dead = np.arange(width) < np.arange(rows)[:, None]
    exponent = np.arange(rows)[:, None] - np.arange(width) - 1.0  # minus the discount step
    probs = _event_rows(lam1, lam2, ~dead)
    # 0 * inf where the discount factors overflow must count as 0, so zero
    # cash flows and zero-probability terms are set to exactly 0
    no_cash, idle = (cash == 0.0)[:, None, :], probs == 0.0
    disc, annuity = np.zeros((2, rows, width))
    paths = np.empty((2, rows, width))
    dots = np.empty((2, rows, 1, 1))

    def gap(rho, first=0, stop=rows):
        """EPV minus price of rows first..stop-1; +inf where the discount factors overflow."""
        r, c0 = slice(first, stop), first - first % _DOT_ALIGN
        d, an, p = disc[r, c0:], annuity[r, c0:], paths[:, r, c0:]
        # no where= here: numpy's masked power can fall back to libm pow and change bits
        np.power((1.0 + rho)[:, None], exponent[r, c0:], out=d)
        np.copyto(d, 0.0, where=dead[r, c0:])
        np.cumsum(d[:, :-1], axis=1, out=an[:, 1:])
        np.multiply(cash[:, None, c0:], d, out=p)
        np.copyto(p, 0.0, where=no_cash[:, :, c0:])
        np.add(p, payment * an, out=p)
        np.copyto(p, 0.0, where=idle[:, r, c0:])
        for k in range(first, min(stop, first + _DOT_ALIGN)):
            c, same = c0 + k % _DOT_ALIGN, slice(k, stop, _DOT_ALIGN)
            np.matmul(probs[:, same, None, c:], paths[:, same, c:, None], out=dots[:, same])
        g = dots[0, r, 0, 0] + dots[1, r, 0, 0] - price[r]
        if np.isnan(g).any():
            raise NumericalError("EPV is not a number; check the schedule and recovery")
        return g

    lower, upper = _estimate_roots(probs, cash, payment, price, exponent, ~dead)
    (a, b), active = _BRACKET, np.ones(rows, dtype=bool)
    lo, hi = np.full(rows, a), np.full(rows, b)
    if not np.all((a < lower) & (upper < b)):
        g_lo, g_hi = gap(lo), gap(hi)
        if np.any((g_lo < 0) | (g_hi > 0)):
            r = int(np.argmax((g_lo < 0) | (g_hi > 0)))
            raise NumericalError(
                f"EPV root not bracketed on [{a}, {b}]: g({a})={g_lo[r]:.3g}, g({b})={g_hi[r]:.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = mid < lower  # a far row's side
        near = ((lower <= mid) & (mid <= upper) & active).nonzero()[0]
        if near.size:
            first, stop = int(near[0]), int(near[-1]) + 1
            np.greater(gap(mid[first:stop], first, stop), 0.0, out=above[first:stop])
        np.copyto(lo, mid, where=active & above)
        np.copyto(hi, mid, where=active & ~above)
        active &= hi - lo >= 1e-14
        if not active.any():
            break
    rho = 0.5 * (lo + hi)
    if not np.all(np.abs(gap(rho)) <= 1e-8 * price):
        raise NumericalError("EPV reconstruction failed at the solved rate")
    return rho


def _estimate_roots(probs, cash, payment, price, exponent, live):
    """The rates within each row's replay distance of its Newton root estimate.

    Returns (lower, upper) per row: (-inf, inf) where the replay may not
    trust the estimate, so that every midpoint of such a row is near.

    EPV(rho) = sum_j weight[r, j] * (1 + rho) ** exponent[r, j], where a
    column's weight is its default and prepay cash flows plus the payment
    that every event after it receives.  Newton runs on y = log(1 + rho).
    When no weight is negative, log EPV is convex and decreasing in y, so
    the first step (from y = 0) and every later one stay at or below the
    root, and after a step of size s the error is O(s^2).  The steps go on
    until none is above 2**-51, a step at the rounding level, so the last
    one adds at most 2**-50 * (1 + rho) to the replay distance below.

    Why the replay gets every side right for a trusted row.  Its cash flows
    and probabilities are nonnegative, so EPV is a sum of w_k (1 + rho)^-k
    with w_k >= 0 and k >= 1: f = EPV - price is convex and decreasing, with
    slope -D * price / (1 + rho*) at its root rho*, D >= 1 the duration
    there.  gap() sums nonnegative terms in at most 2n + 16 roundings (the
    power, the cumsum and dot over the row's n live columns, and the
    products and adds between them).  So it returns EPV * (1 + t) - price
    with |t| <= g = (2n + 16) u, u = 2**-53 (8e-14 at n = 360), the forward
    error bound of a sum of nonnegative terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, sec. 4.2), evaluated
    at fl(1 + rho), within u * (1 + rho) of 1 + rho.  Left of rho*, f lies
    above its tangent at rho*; right of it, |f| grows while EPV falls.  So
    gap() has the sign of rho* - rho once |rho - rho*| exceeds
    band = (g / D + u) * (1 + rho*), to first order in g and the distance.
    This estimate sums the same terms in another order under the same
    bound, so it lies within band + |s| * (1 + rho) of rho*, s its last
    step.  A midpoint farther than the row's replay distance
    margin = 2 * (2 * band + |s| * (1 + rho)) from the estimate is
    therefore outside the band, with half the distance as a cushion; the
    near interval (rho - margin, rho + margin), rounded, only widens.  The
    bracket ends are midpoints like any other: outside the interval, gap()
    is positive at -0.99 and negative at 2.0.  The band is at most 2.4e-13
    at n = 360 (D = 1, rho* = 2); on the price-long benchmark's seed-11
    rows (D from 1 to 53 months) the margin runs from 2.9e-15 to 1.2e-14.
    A row whose margin exceeds _MARGIN is not trusted, so the first-order
    terms stay small.  Underflow adds at most 2**-1074 a term, far below
    margin * price / 3 (margin >= 12 u (1 + rho)) for any price above
    1e-280.

    A trusted row also cannot hide a NaN that evaluating every midpoint
    would raise: with no negative term there is no inf - inf, and zero terms
    are set to exactly 0, so its gap is NaN only from a NaN input, which
    makes its estimate NaN and the row untrusted.  An untrusted row (a
    negative cash flow or probability, an EPV that overflows or underflows,
    no convergence) calls gap() at every step while it is active, and its
    last midpoint is the rate of the final check.
    """
    total = probs.sum(axis=0)
    later = np.zeros_like(total)  # probability of an event after the column
    later[:, :-1] = np.cumsum(total[:, :0:-1], axis=1)[:, ::-1]
    weight = np.where(live, probs[0] * cash[0] + probs[1] * cash[1] + payment * later, 0.0)
    timed = weight * -exponent
    epv = weight.sum(axis=1)
    y = np.log(epv / price) / (timed.sum(axis=1) / epv)  # the step from y = 0
    y = np.maximum(y, math.log1p(_BRACKET[0]))
    for _ in range(_NEWTON_STEPS):
        scale = np.power(np.exp(y)[:, None], exponent)
        epv = np.einsum("ij,ij->i", weight, scale)
        duration = np.einsum("ij,ij->i", timed, scale) / epv
        step = np.log(epv / price) / duration
        y += step
        if not np.any(np.abs(step) > 2.0 ** -51):
            break
    rho = np.expm1(y)
    n = live.sum(axis=1)
    band = ((2 * n + 16) / duration + 1.0) * 2.0 ** -53 * (1.0 + rho)
    margin = 2 * (2 * band + np.abs(step) * (1.0 + rho))
    nonnegative = ~((probs < 0).any(axis=0) | ((cash < 0).any(axis=0) & live)).any(axis=1)
    trusted = (nonnegative & (price > 1e-280) & (_BRACKET[0] < rho) & (rho < _BRACKET[1])
               & (margin <= _MARGIN))
    return np.where(trusted, rho - margin, -np.inf), np.where(trusted, rho + margin, np.inf)


def remaining_payments(balance: float, payment: float, rate: float) -> int:
    """Number of payments needed to clear `balance`, final fraction rounded up."""
    if not (math.isfinite(balance) and balance > 0):
        raise ValueError(f"balance must be finite and positive, got {balance}")
    if not (math.isfinite(payment) and payment > 0):
        raise ValueError(f"payment must be finite and positive, got {payment}")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if rate == 0:
        raw = balance / payment
    else:
        if payment <= balance * rate:
            raise ValueError("payment does not cover interest; loan never amortizes")
        raw = -math.log(1.0 - balance * rate / payment) / math.log1p(rate)
    if not math.isfinite(raw):
        raise ValueError(f"payment {payment} is too small to count the payments "
                         f"that clear balance {balance}")
    return max(1, math.ceil(raw - _CEIL_GUARD))  # a positive balance takes a payment


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
    for name, apr in (("old_apr_pct", old_apr_pct), ("new_apr_pct", new_apr_pct)):
        if not (math.isfinite(apr) and apr >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {apr}")
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
