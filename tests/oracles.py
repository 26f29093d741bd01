"""Independent reference implementations used to pin expected values.

Everything here recomputes a quantity the package also produces, but by a
different route: brute-force counting, exhaustive enumeration over joint
supports, or generic scipy root finders.  Tests compare the two routes so
an algebra slip in the library cannot silently agree with itself.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact
from fractions import Fraction
from functools import reduce

import numpy as np
from scipy import optimize, stats

from cshazard import actuarial, ingest, riskmodel
from cshazard.errors import NumericalError
from cshazard.montecarlo import simulate_cohort
from cshazard.riskmodel import Cause


def z_quantile(theta: float) -> float:
    """Two-sided normal quantile via scipy, for checking the hand-rolled one."""
    return float(stats.norm.ppf(1.0 - theta / 2.0))


# ---------------------------------------------------------------------------
# life table by explicit counting


def _rows(observations):
    """(entry_age, exit_age, event, cause code) per observation, as Python scalars."""
    return zip(observations.entry_age.tolist(), observations.exit_age.tolist(),
               observations.event.tolist(), observations.cause.tolist())


def life_table(observations, cause, lo: int, hi: int):
    """Occurrence/exposure ratios by looping over every (loan, age) pair.

    Returns {age: (at_risk, events, hazard_or_None)} with hazard None when
    nobody is at risk.  cause None pools both causes.
    """
    rows = list(_rows(observations))
    table = {}
    for x in range(lo, hi + 1):
        at_risk = 0
        events = 0
        for entry_age, exit_age, event, code in rows:
            if entry_age <= x <= exit_age:
                at_risk += 1
            if event and exit_age == x:
                if cause is None or code == cause.value:
                    events += 1
        hazard = events / at_risk if at_risk > 0 else None
        table[x] = (at_risk, events, hazard)
    return table


# ---------------------------------------------------------------------------
# loan outcome by a per-loan Decimal scan


def decimal_outcome(balance, payment, principal, pad=Decimal("10")):
    """(integrity_ok, kind, event_month) for one payment history, month by month.

    Amounts are Decimals (balance None where unreported).  integrity_ok is
    False when the outcome is undeterminable: the first balance is missing,
    or principal paid falls short of it while the last balance is missing;
    kind and month are then None.  Otherwise the principal test (paid + pad
    covers the first balance) gives "repaid" at the first zero balance or
    the last month; else the first run of three zero payments gives
    "defaulted" at its first month; else "censored" at the last month.
    """
    first = balance[0]
    if first is None:
        return False, None, None
    paid = sum(principal, Decimal(0))
    if paid < first and balance[-1] is None:
        return False, None, None
    months = len(balance)
    if paid + pad >= first:
        zero_months = [m for m, b in enumerate(balance, start=1) if b is not None and b == 0]
        return True, "repaid", zero_months[0] if zero_months else months
    for m in range(1, months - 1):
        if payment[m - 1] == payment[m] == payment[m + 1] == 0:
            return True, "defaulted", m
    return True, "censored", months


# ---------------------------------------------------------------------------
# truncated quantities by exhaustive (lifetime, entry) enumeration


def enumerate_truncated(dist, trunc, x: int, cause):
    """(event fraction, at-risk fraction, retention) without the factorized shortcut.

    Sums the joint law of (X, Y) directly: every lifetime in the support
    against every entry age, applying the observation window y <= x <= y + c
    and the retention condition X >= Y literally.
    """
    alpha = 0.0
    f = 0.0
    u = 0.0
    for y in trunc.support:
        py = trunc.prob(y)
        for xi in range(dist.min_age, dist.max_age + 1):
            px = dist.prob(xi)
            if xi < y:
                continue  # truncated away
            alpha += py * px
            in_window = y <= x <= y + trunc.censor_offset
            if in_window and xi >= x:
                u += py * px
            if in_window and xi == x:
                share = dist.cause1_share[dist.index(xi)]
                if cause is Cause.PREPAY:
                    share = 1.0 - share
                f += py * px * share
    return f / alpha, u / alpha, alpha


# ---------------------------------------------------------------------------
# cohort assembly by a per-draw loop


def loop_assemble_cohort(u_entry, u_life, u_cause, cdf, cause1_share,
                         entry_lo, entry_hi, min_age, censor_offset):
    """The simulation kernel's observations, one draw at a time.

    The lifetime index is found by a linear scan for the first cumulative
    mass strictly above the draw (the last age catches everything beyond);
    a draw whose entry age exceeds its lifetime is dropped.  Returns
    (entry, exit, event, is_default) as int64 and bool arrays.
    """
    span = entry_hi - entry_lo + 1
    k = len(cdf)
    rows = []
    for u_y, u_x, u_c in zip(u_entry, u_life, u_cause):
        y = entry_lo + min(int(u_y * span), span - 1)
        idx = 0
        while idx < k - 1 and u_x >= cdf[idx]:
            idx += 1
        x = min_age + idx
        if y > x:
            continue
        censor = y + censor_offset
        rows.append((y, min(x, censor), x <= censor, u_c < cause1_share[idx]))
    entry, exit_age, event, is_default = zip(*rows) if rows else ((),) * 4
    return (np.array(entry, dtype=np.int64), np.array(exit_age, dtype=np.int64),
            np.array(event, dtype=np.bool_), np.array(is_default, dtype=np.bool_))


def searchsorted_cells(u_entry, u_life, u_cause, cdf, cause1_share, span, fold):
    """Cell codes (entry offset * n + lifetime index) * 2 + is_default, n = cdf.size,
    with a binary search per draw.

    The entry offset is int(u * span) clamped to span - 1, and every offset
    past `fold` counts as `fold`.  The lifetime index is
    `np.searchsorted(cdf, u, side="right")` capped at the last index: the
    first cumulative mass strictly above the draw.  This is the lookup the
    guide table in `_kernels.draw_cells` replaced.
    """
    offset = np.minimum(np.minimum((u_entry * span).astype(np.int64), span - 1), fold)
    idx = np.minimum(np.searchsorted(cdf, u_life, side="right"), cdf.size - 1)
    return (offset * cdf.size + idx) * 2 + (u_cause < cause1_share[idx])


# ---------------------------------------------------------------------------
# simulation-study counts from each replicate's observations


def loop_study_counts(config):
    """Every replicate's (kept, at_risk, events) by looping over observations.

    Each replicate's cohort comes from `simulate_cohort`; every retained
    observation adds one to at_risk at each age of the law from its entry
    through its exit, and an observed exit adds one event at its exit age
    under its cause.  Returns kept (r,), at_risk (r, ages) and events
    (r, ages, 2) with cause 0 = default, 1 = prepay, all int64.
    """
    lo, hi = config.dist.min_age, config.dist.max_age
    width = hi - lo + 1
    r = config.replicates
    kept = np.zeros(r, dtype=np.int64)
    at_risk = np.zeros((r, width), dtype=np.int64)
    events = np.zeros((r, width, 2), dtype=np.int64)
    for rep in range(r):
        for entry_age, exit_age, event, code in _rows(simulate_cohort(config, rep)):
            kept[rep] += 1
            for x in range(max(entry_age, lo), min(exit_age, hi) + 1):
                at_risk[rep, x - lo] += 1
            if event and lo <= exit_age <= hi:
                events[rep, exit_age - lo, 0 if code == Cause.DEFAULT.value else 1] += 1
    return kept, at_risk, events


# ---------------------------------------------------------------------------
# convergence months by checking every age pair in plain loops


def _brute_pair(curve_a, curve_b, min_test_age, run_length):
    """(month or None, rule name, decision names by age) for two curves on one
    age grid."""
    ages = [int(a) for a in curve_a.ages]
    n = len(ages)
    decisions = []
    for k in range(n):
        a_lo, a_hi = float(curve_a.ci_lo[k]), float(curve_a.ci_hi[k])
        b_lo, b_hi = float(curve_b.ci_lo[k]), float(curve_b.ci_hi[k])
        if any(math.isnan(v) for v in (a_lo, a_hi, b_lo, b_hi)):
            decisions.append("undefined")
        elif a_lo <= b_hi and b_lo <= a_hi:  # closed intervals: touching overlaps
            decisions.append("fail_to_reject")
        else:
            decisions.append("reject")
    run_month = None
    for k in range(n):
        if ages[k] < min_test_age or k + run_length > n:
            continue
        if all(ages[k + t] == ages[k] + t and decisions[k + t] == "fail_to_reject"
               for t in range(run_length)):
            run_month = ages[k]
            break
    zero_month = None
    for k in range(n):
        if all(curve_a.hazard[t] == 0.0 and curve_b.hazard[t] == 0.0 for t in range(k, n)):
            if max(ages[k], min_test_age) <= ages[-1]:
                zero_month = max(ages[k], min_test_age)
            break
    if run_month is not None and (zero_month is None or run_month <= zero_month):
        return run_month, "overlap_run", decisions
    if zero_month is not None:
        return zero_month, "both_zero", decisions
    return None, "none", decisions


def brute_transition_matrix(curves, band_order, min_test_age, run_length):
    """Upper-triangular (months, rule names) rows, one band pair at a time,
    and each pair's decision names by age, pairs in row order.

    For each pair every age is decided by the closed-interval overlap rule
    (undefined where any bound is NaN); the convergence month is the earlier
    of the first age >= min_test_age starting run_length consecutive ages
    that all fail to reject, and the start of the both-zero hazard tail
    (moved up to min_test_age), with the overlap run winning a tie.  The
    diagonal is min_test_age under the overlap rule.
    """
    months, rules, decisions = [], [], []
    for i, a in enumerate(band_order):
        row_m, row_r = [min_test_age], ["overlap_run"]
        for b in band_order[i + 1:]:
            month, rule, pair = _brute_pair(curves[a], curves[b], min_test_age, run_length)
            row_m.append(month)
            row_r.append(rule)
            decisions.append(pair)
        months.append(row_m)
        rules.append(row_r)
    return months, rules, decisions


# ---------------------------------------------------------------------------
# curve helpers row by row


def loop_interpolate(events, hazard, interpolated):
    """(hazard, interpolated flags): each zero-event row takes the hazard of
    the last positive row before it, or of the first positive row when none
    precedes it, and is flagged."""
    hazard, flags = list(hazard), list(interpolated)
    first = next(i for i, e in enumerate(events) if e > 0)
    last = first
    for i, e in enumerate(events):
        if e > 0:
            last = i
        else:
            hazard[i] = hazard[last]
            flags[i] = True
    return hazard, flags


def loop_common_ages(grids):
    """The ages present in every grid, in increasing order."""
    return [age for age in sorted(set(grids[0])) if all(age in grid for grid in grids[1:])]


# ---------------------------------------------------------------------------
# amortization by recursion plus a scipy solve for the payment


def amortize(principal: float, rate: float, term: int):
    """(payment, balances) with the payment found numerically.

    The payment is whatever makes the month-by-month recursion
    B_j = B_{j-1} * (1 + r) - P land on zero at the term; no annuity
    formula is used anywhere.
    """

    def terminal(p: float) -> float:
        b = principal
        for _ in range(term):
            b = b * (1.0 + rate) - p
        return b

    if rate == 0.0:
        payment = principal / term
    else:
        payment = optimize.brentq(terminal, principal * rate,
                                  principal * (1.0 + rate), xtol=1e-13)
    balances = [principal]
    b = principal
    for _ in range(term):
        b = b * (1.0 + rate) - payment
        balances.append(b)
    return payment, np.array(balances)


# ---------------------------------------------------------------------------
# lifetime return by explicit path enumeration


def enumerate_paths(schedule, lam1_map, lam2_map, recovery_map, month: int):
    """All (probability, cash flow list) outcome paths from `month` onward.

    lam1_map/lam2_map/recovery_map are dicts age -> value (missing age means
    zero); the final month's leftover survival mass settles as a payoff.
    """
    term = schedule.term
    payment = schedule.payment
    paths = []
    alive = 1.0
    for j in range(month, term + 1):
        lam1 = lam1_map.get(j, 0.0)
        lam2 = lam2_map.get(j, 0.0)
        if j == term:
            lam2 = 1.0 - lam1
        steps = j - month  # payments received before the exit settles
        default_cash = [payment] * steps + [recovery_map.get(j, 0.0) * schedule.principal]
        prepay_cash = [payment] * steps + [schedule.balance(j) + payment]
        paths.append((alive * lam1, default_cash))
        paths.append((alive * lam2, prepay_cash))
        alive *= 1.0 - lam1 - lam2
    return paths


def path_epv(paths, rho: float) -> float:
    """Expected present value of enumerated paths at monthly rate rho."""
    total = 0.0
    for prob, cash in paths:
        pv = 0.0
        for step, amount in enumerate(cash, start=1):
            pv += amount / (1.0 + rho) ** step
        total += prob * pv
    return total


def path_enumeration_rho(schedule, lam1_map, lam2_map, recovery_map, month: int,
                         bracket=(-0.9, 1.5)) -> float:
    """Solve for the rate equating path-by-path expected PV to the price.

    Paths are enumerated one exit age at a time with plain Python floats;
    the root comes from scipy's brentq rather than bisection.
    """
    price = schedule.balance(month - 1)
    paths = enumerate_paths(schedule, lam1_map, lam2_map, recovery_map, month)
    return optimize.brentq(lambda rho: path_epv(paths, rho) - price,
                           bracket[0], bracket[1], xtol=1e-14)


# ---------------------------------------------------------------------------
# lifetime returns by a bisection that evaluates every midpoint


def plain_bisect(lam1, lam2, cash, payment, price) -> np.ndarray:
    """Bisection that calls gap() at every midpoint: actuarial._bisect before its replay.

    Columns run from the first row's month to the term, so row r starts r
    columns in.  Each row repeats the one-month solve bit for bit: its dots
    start at column r mod 32 and it stops once its own hi - lo < 1e-14.
    """
    rows, width = price.size, lam1.size
    dead = np.arange(width) < np.arange(rows)[:, None]
    exponent = np.arange(rows)[:, None] - np.arange(width) - 1.0  # minus the discount step
    probs = riskmodel._event_rows(lam1, lam2, ~dead)
    # 0 * inf where the discount factors overflow must count as 0, so zero
    # cash flows and zero-probability terms are set to exactly 0
    no_cash, idle = (cash == 0.0)[:, None, :], probs == 0.0
    disc, annuity = np.zeros((2, rows, width))
    paths = np.empty((2, rows, width))
    dots = np.empty((2, rows, 1, 1))

    def gap(rho):
        """EPV minus price per row; +inf where the discount factors overflow."""
        # no where= here: numpy's masked power can fall back to libm pow and change bits
        np.power((1.0 + rho)[:, None], exponent, out=disc)
        np.copyto(disc, 0.0, where=dead)
        np.cumsum(disc[:, :-1], axis=1, out=annuity[:, 1:])
        np.multiply(cash[:, None, :], disc, out=paths)
        np.copyto(paths, 0.0, where=no_cash)
        np.add(paths, payment * annuity, out=paths)
        np.copyto(paths, 0.0, where=idle)
        for c in range(min(rows, actuarial._DOT_ALIGN)):
            r = slice(c, None, actuarial._DOT_ALIGN)
            np.matmul(probs[:, r, None, c:], paths[:, r, c:, None], out=dots[:, r])
        g = dots[0, :, 0, 0] + dots[1, :, 0, 0] - price
        if np.isnan(g).any():
            raise NumericalError("EPV is not a number; check the schedule and recovery")
        return g

    (a, b), active = actuarial._BRACKET, np.ones(rows, dtype=bool)
    lo, hi = np.full(rows, a), np.full(rows, b)
    g_lo, g_hi = gap(lo), gap(hi)
    if np.any((g_lo < 0) | (g_hi > 0)):
        r = int(np.argmax((g_lo < 0) | (g_hi > 0)))
        raise NumericalError(
            f"EPV root not bracketed on [{a}, {b}]: g({a})={g_lo[r]:.3g}, g({b})={g_hi[r]:.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = gap(mid) > 0
        lo = np.where(active & above, mid, lo)
        hi = np.where(active & ~above, mid, hi)
        active &= hi - lo >= 1e-14
        if not active.any():
            break
    rho = 0.5 * (lo + hi)
    if not np.all(np.abs(gap(rho)) <= 1e-8 * price):
        raise NumericalError("EPV reconstruction failed at the solved rate")
    return rho


# ---------------------------------------------------------------------------
# plain numeric cells by a per-character pass


def plain_cells(buf, start, end, point):
    """(values, plain) of numeric cells, reading one character position per pass.

    A plain cell is an optional sign and 1..12 digits; with `point`, at most
    one '.' may sit among them with at most two digits after it, and the
    value is in hundredths.  Cells that are not plain read 0.  This is the
    column-at-once loop the word-at-a-time `_csvio._parse_plain` replaced.
    """
    minus, plus, dot_byte, zero, nine = b"-+.09"
    width, max_digits = 14, 12  # sign, 12 digits and a point
    n = start.size
    value = np.zeros(n, np.int64)
    plain = np.ones(n, np.bool_)
    if n == 0:
        return value, plain
    length = end - start
    digits = np.zeros(n, np.int64)
    after_point = np.full(n, -1, np.int64)  # digits after the point; -1: no point yet
    negative = np.zeros(n, np.bool_)
    last = buf.size - 1
    for k in range(int(min(length.max(), width))):
        inside = k < length
        c = buf[np.minimum(start + k, last)]
        digit = inside & (c >= zero) & (c <= nine)
        value = np.where(digit, value * 10 + (c.astype(np.int64) - zero), value)
        digits += digit
        after_point += digit & (after_point >= 0)
        dot = inside & (c == dot_byte)
        plain &= ~(dot & ((after_point >= 0) | (not point)))
        after_point[dot] = 0
        sign = inside & ((c == minus) | (c == plus)) if k == 0 else False
        negative |= sign & (c == minus)
        plain &= ~inside | digit | dot | sign
    plain &= (length <= width) & (digits >= 1) & (digits <= max_digits)
    if point:
        plain &= after_point <= 2
        value *= 10 ** np.clip(2 - after_point, 0, 2)
    value = np.where(plain, np.where(negative, -value, value), 0)
    return value, plain


# ---------------------------------------------------------------------------
# segment outcomes from per-row money columns, by row-length masks and reductions


# Far more digits than any sum of the amounts the tests draw needs, so every
# sum is exact (an inexact one raises).
EXACT = Context(prec=1000, traps=[Inexact])


@dataclass(frozen=True)
class RowPayments:
    """Payment rows grouped by loan, every money column kept per row: the
    payments as `ingest` held them before it folded each block into a flag
    byte per row and two sums per loan.

    Segment k is rows start[k] : start[k] + months[k], in month order.
    Missing balances read as zero and are flagged in `balance_missing`.  The
    three money columns hold Decimals.
    """

    start: np.ndarray
    months: np.ndarray
    balance: np.ndarray
    balance_missing: np.ndarray
    payment: np.ndarray
    principal: np.ndarray

    def paid(self) -> np.ndarray:
        """Total principal paid per segment, summed exactly."""
        return np.array([reduce(EXACT.add, self.principal[s:s + m], Decimal(0))
                         for s, m in zip(self.start.tolist(), self.months.tolist())], object)

    def integrity_ok(self) -> np.ndarray:
        """Per segment: whether the outcome can be determined (see `ingest._Payments`)."""
        first = self.start
        last = self.start + self.months - 1
        short = self.paid() < self.balance[first]
        return ~self.balance_missing[first] & ~(short & self.balance_missing[last])


def row_payments(histories) -> RowPayments:
    """The `RowPayments` of loan histories, each (balances, payments,
    principals) in month order as Decimals, a balance None where missing."""
    months = np.array([len(history[0]) for history in histories], np.int64)
    columns = [np.array([amount for history in histories for amount in history[k]], object)
               for k in range(3)]
    missing = np.array([amount is None for amount in columns[0]], np.bool_)
    columns[0][missing] = Decimal(0)
    return RowPayments(np.cumsum(months) - months, months, columns[0], missing, *columns[1:])


def reduceat_outcomes(payments, pad):
    """(outcome code, trust month) per segment of a `RowPayments`.

    The rules of `ingest._Payments.outcomes`, computed as it did before it
    searched the rows that hold a zero: row-length index arrays, each row's
    segment end, and a minimum over each segment by `np.minimum.reduceat`.
    The pad is a Decimal, an integer, or a float read by its repr.
    """
    balance, start = payments.balance, payments.start
    if not isinstance(pad, Decimal):
        pad = Decimal(pad if isinstance(pad, int) else repr(pad))
    n = balance.size
    if start.size == 0:
        return np.zeros(0, np.int8), np.zeros(0, np.int64)
    row = np.arange(n)
    end = (start + payments.months)[np.repeat(np.arange(start.size), payments.months)]
    zero_balance = ~payments.balance_missing & (balance == 0)
    first_zero = np.minimum.reduceat(np.where(zero_balance, row, n), start)
    zero = payments.payment == 0
    run = np.zeros(n, np.bool_)
    run[:-2] = zero[:-2] & zero[1:-1] & zero[2:]
    run &= row + 3 <= end  # all three months inside the loan's own history
    first_run = np.minimum.reduceat(np.where(run, row, n), start)
    repaid = np.array([EXACT.add(paid, pad) >= first for paid, first in
                       zip(payments.paid(), balance[start])], np.bool_)
    defaulted = ~repaid & (first_run < n)
    code = np.where(repaid, Cause.PREPAY.value,
                    np.where(defaulted, Cause.DEFAULT.value, ingest._CENSORED)).astype(np.int8)
    month = np.where(repaid & (first_zero < n), first_zero - start + 1,
                     np.where(defaulted, first_run - start + 1, payments.months))
    return code, month


# ---------------------------------------------------------------------------
# gamma-kernel fit by scipy's Nelder-Mead, one restart at a time


def scipy_restarts(ages, values, restarts: int, budget: int, seed: int = 0):
    """(per-restart OptimizeResults, best fit, any converged) by scipy's minimize.

    This is the loop `recovery.fit_gamma_kernel` ran before its restarts
    moved in lockstep: the seed point, then one 3-vector perturbation per
    further restart from the seeded stream, and one `minimize(...,
    method="Nelder-Mead", adaptive=True)` per start on a one-point objective.
    Floating-point warnings are silenced for the whole run, scipy's own
    arithmetic included, since only the values are compared.  The fit
    reports the clipped parameters that the objective scored.
    """
    from cshazard.recovery import GammaKernelFit, _seed_point

    x = np.asarray(ages, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)

    def objective(log_params):
        c, k, theta = np.exp(np.clip(log_params, -50.0, 50.0))
        resid = y - c * x ** (k - 1.0) * np.exp(-x / theta)
        if not np.all(np.isfinite(resid)):
            return 1e300
        return float(resid @ resid)

    seed_point = _seed_point(x, y)
    rng = np.random.default_rng(seed)
    starts = [seed_point]
    for _ in range(restarts - 1):
        starts.append(seed_point + rng.normal(scale=0.5, size=3))
    results = []
    with np.errstate(all="ignore"):
        for start in starts:
            results.append(optimize.minimize(
                objective, start, method="Nelder-Mead",
                options={"maxfev": budget // restarts, "xatol": 1e-12,
                         "fatol": 1e-16, "adaptive": True}))
    best_fun, idx = min((res.fun, i) for i, res in enumerate(results))
    c, k, theta = np.exp(np.clip(results[idx].x, -50.0, 50.0))
    fit = GammaKernelFit(c=float(c), k=float(k), theta=float(theta), residual=float(best_fun))
    return results, fit, any(bool(res.success) for res in results)


# ---------------------------------------------------------------------------
# CSV files as the csv module writes them


def csv_bytes(header, rows) -> bytes:
    """A header and rows as `csv.writer` writes them in the excel dialect, UTF-8."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# a column's cells parsed one row at a time


def row_by_row(cells, rule, column):
    """A column's cells (bytes) decoded and parsed one row at a time, in row
    order, as `_Columns.ints` and `money` read the cells their byte parse
    left before every reader shared one routine.

    Returns (values, None), or (None, (row, message)) at the first cell that
    is not UTF-8 or that `rule` rejects.  A rule's ValueError holds the
    message's text after the column's name, its own separator included.
    """
    values = []
    for row, cell in enumerate(cells):
        try:
            text = cell.decode("utf-8")
        except UnicodeDecodeError as exc:
            return None, (row, f"column {column!r}: byte 0x{cell[exc.start]:02x} "
                               f"at position {exc.start} is not UTF-8")
        try:
            values.append(rule(text))
        except ValueError as exc:
            return None, (row, f"column {column!r}{exc}")
    return values, None


def _grammar(text: str) -> bool:
    """Whether a numeric cell avoids '_' and non-ASCII characters, which
    int, float and Decimal accept and the CSV number grammar does not."""
    return "_" not in text and text.isascii()


def int_rule(text: str) -> int:
    """An int64 cell."""
    try:
        value = int(text.strip()) if _grammar(text) else None
    except ValueError:
        value = None
    if value is None:
        raise ValueError(f" has non-integer value {text!r}")
    if not -2**63 <= value < 2**63:
        raise ValueError(f" value {text!r} is out of range")
    return value


def money_rule(allow_missing: bool):
    """The rule of a money cell: its exact Decimal, or None for an empty or
    NA cell (any case, padded too) where `allow_missing`."""
    def rule(text: str):
        key = text.strip()
        if key == "" or key.upper() == "NA":
            if allow_missing:
                return None
            raise ValueError(" is missing a value")
        try:
            amount = Decimal(key) if _grammar(key) else None
        except ArithmeticError:
            amount = None
        if amount is None:
            raise ValueError(f" has non-numeric value {text!r}")
        if not amount.is_finite():
            raise ValueError(f" has non-finite value {text!r}")
        return amount
    return rule


def whole_cents(amount: Decimal) -> int | None:
    """An amount in cents when that is a whole number below 10**12 in size, else None."""
    cents = Fraction(amount) * 100
    return int(cents) if cents.denominator == 1 and abs(cents) < 10**12 else None


def apr_rule(text: str) -> float:
    """An APR percentage: a finite float >= 0 (-0.0 keeps its sign)."""
    try:
        apr = float(text) if _grammar(text) else None
    except ValueError:
        apr = None
    if apr is None:
        raise ValueError(f": non-numeric value {text!r}")
    if not 0.0 <= apr < math.inf:
        raise ValueError(f": value {text!r} is not a finite APR >= 0")
    return apr


def parse_rule(parse):
    """The rule of a label parser: its ValueError follows the column's name and ': '."""
    def rule(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f": {exc}") from None
    return rule
