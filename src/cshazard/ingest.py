"""Loan-level CSV ingestion: band assignment, filtering, outcome detection.

The normalized input is two CSV files.  The static file carries one row per
loan (origination fields plus the total recovered amount); the long file
carries one row per loan-month with balance, payment, and principal.  The
pipeline classifies each loan into an APR risk band, applies the eligibility
filter, determines the outcome from the payment vectors, and emits one
observation per retained loan in loan-age coordinates.

Ingest is columnar.  Both files load into a `LoanTape`, the one form in
which loans are held: column arrays, and payments folded as they are read
into a flag byte per row, sorted by (loan, trust month) so each loan's
history is one contiguous segment, and a first balance and principal paid
per loan.  The eligibility, integrity and outcome rules run once over all
segments as array operations, and the result is an `ObservationTable` of
parallel arrays, the one form in which observations pass between layers.
Files are read and written through the CSV layer, `_csvio`.

Monetary fields are exact.  Every amount is held in int64 cents: a plain
decimal cell with at most two fraction digits is read straight from its
bytes, and any other cell is parsed with `Decimal`.  The rare cell that is
not a whole number of cents below `_csvio._CENTS_LIMIT` is kept as an exact
`Decimal` for its own loan only, whose principal paid is summed in `_EXACT`:
every sum is exact, or a SchemaError naming the loan.  Outcome
classification (zero-payment runs, principal-vs-balance comparisons) thus
never depends on binary float representation or on the order of the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_FLOOR, Context, Decimal, Inexact, MAX_EMAX, MIN_EMIN, Overflow
from enum import Enum
from functools import reduce
from numbers import Integral
from pathlib import Path

import numpy as np

from . import _csvio
from ._csvio import (_FALSE, _TRUE, _Columns, _Vocabulary, _first_problem, _group, _id_text,
                     _line_at, _parse_bool, _stacked, _write_csv)
from .errors import SchemaError
from .riskmodel import Cause

__all__ = [
    "RiskBand",
    "LoanTape",
    "ObservationTable",
    "FilterPolicy",
    "classify_risk_band",
    "filter_loans",
    "build_observations",
    "load_loan_data",
    "read_observations_csv",
    "write_observations_csv",
]

DEFAULT_PAD = Decimal("10")


class RiskBand(Enum):
    """APR-defined borrower tier, ordered from least to most risky."""

    SUPER_PRIME = 0
    PRIME = 1
    NEAR_PRIME = 2
    SUBPRIME = 3
    DEEP_SUBPRIME = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "RiskBand":
        key = label.strip().lower().replace("-", "_").replace(" ", "_")
        for band in cls:
            if key == band.label:
                return band
        raise ValueError(f"unknown risk band: {label!r}")

# Left-closed APR boundaries: [0,5) super-prime, [5,10) prime, [10,15)
# near-prime, [15,20) subprime, [20,inf) deep subprime.
_BAND_EDGES = np.array([5.0, 10.0, 15.0, 20.0])


def _band_codes(apr_pct):
    """RiskBand values of APR percentages (boundaries belong upward)."""
    return np.searchsorted(_BAND_EDGES, apr_pct, side="right")


def classify_risk_band(apr_pct: float) -> RiskBand:
    """Map an APR percentage to its risk band (boundaries belong upward)."""
    if apr_pct < 0:
        raise ValueError(f"negative APR: {apr_pct}")
    return RiskBand(int(_band_codes(apr_pct)))


# Outcomes are coded by the Cause value of their exit; 0 is censored.
_CENSORED = 0


def _row_checks(entry_age, exit_age, event, cause) -> tuple:
    """The observation row invariants as (mask, message) rules."""
    return ((entry_age < 1, "entry_age must be >= 1"),
            (entry_age > exit_age, "entry_age must be <= exit_age"),
            (event & (cause == _CENSORED), "observed events must carry a cause"),
            (~event & (cause != _CENSORED), "censored observations must not carry a cause"))


_OBS_DTYPES = {"loan_id": object, "band": np.int8, "entry_age": np.int64,
               "exit_age": np.int64, "event": np.bool_, "cause": np.int8}


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Observations as parallel arrays: what ingest, estimator and CLI pass on.

    `band` holds RiskBand values (-1: none) and `cause` holds Cause values
    (0: censored).  The columns share one length and every row meets the
    invariants of `_row_checks`.
    """

    loan_id: np.ndarray
    band: np.ndarray
    entry_age: np.ndarray
    exit_age: np.ndarray
    event: np.ndarray
    cause: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _OBS_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in _OBS_DTYPES}) != 1:
            raise ValueError("observation columns must share one length")
        problem = _first_problem(_row_checks(self.entry_age, self.exit_age, self.event,
                                             self.cause))
        if problem is not None:
            raise ValueError(problem[1])

    def __len__(self) -> int:
        return self.entry_age.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _OBS_DTYPES)

    def take(self, index) -> "ObservationTable":
        """The rows selected by a boolean mask or an index array."""
        return ObservationTable(**{name: getattr(self, name)[index] for name in _OBS_DTYPES})


@dataclass(frozen=True)
class FilterPolicy:
    """Eligibility criteria applied by filter_loans.

    Defaults follow the pool-comparability rules: single borrower, income
    stated but not verified, no subvention, used vehicle, not already
    repossessed at entry, younger than 18 months at entry, 72/73-month term.
    """

    income_verification: str = "stated_not_verified"
    vehicle_condition: str = "used"
    excluded_initial_status: tuple = ("repossessed",)
    max_entry_age: int = 18  # exclusive
    allowed_terms: tuple = (72, 73)


# ---------------------------------------------------------------------------
# Money: int64 cents, and exact Decimals in currency units where cents cannot hold them.

# The significant digits of a Decimal sum, and the context every one is made
# in: a sum that would be rounded, or pass the exponent limit of Python's
# default context, raises instead.
_DIGITS = 40
_EXACT = Context(prec=_DIGITS, Emax=999999, Emin=-999999, traps=[Inexact, Overflow])


def _decimal(value) -> Decimal:
    """The pad given as a Decimal, an integer or a float (read by its repr), as a finite Decimal."""
    if isinstance(value, Integral):
        value = Decimal(int(value))
    elif not isinstance(value, Decimal):
        value = Decimal(repr(float(value)))
    if not value.is_finite():
        raise ValueError(f"non-finite amount: {value}")
    return value


def _floor_cents(amount: Decimal) -> int:
    """floor(100 * amount), or the int64 limit of its sign from 10**17 on:
    for whole cents n in int64, n <= 100 * amount exactly when n <= this."""
    if amount and amount.adjusted() > 16:
        return int(np.iinfo(np.int64).max) * (-1 if amount.is_signed() else 1)
    return int(amount.quantize(Decimal("0.01"), ROUND_FLOOR, Context(prec=_DIGITS)).scaleb(2))


def _covers(paid: Decimal, pad: Decimal, balance: Decimal) -> bool:
    """Whether paid + pad >= balance, exactly, with no sum spanning the places
    between a cent and a 1E+999999 balance.  Of the terms paid, pad and
    -balance by size (adjusted exponent), the largest outweighs both others
    when two places lie between it and the next; else those two are summed
    exactly in two digits more than either holds, and compared with the third.
    """
    terms = sorted((t for t in (paid, pad, balance.copy_negate()) if t), key=Decimal.adjusted)
    if len(terms) == 3:
        low, mid, high = terms
        if high.adjusted() >= mid.adjusted() + 2:
            return high > 0
        digits = max(len(mid.as_tuple().digits), len(high.as_tuple().digits)) + 2
        context = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
        terms = [low, context.add(mid, high)]
    return not terms or terms[-1] >= terms[0].copy_negate()


# ---------------------------------------------------------------------------
# Payment segments and the outcome rules

_ZERO_BALANCE, _ZERO_PAYMENT, _NO_BALANCE = 1, 2, 4  # the flag bits of a payment row


@dataclass(frozen=True)
class _Payments:
    """Payment rows folded by loan: segment k is rows start[k] : start[k] + months[k].

    Segments are contiguous, in increasing order, and cover every row; within
    a segment rows run through trust months 1..months[k].  A row keeps one
    byte of `flags`: a zero balance that is not missing, a zero payment, a
    missing balance.  A segment keeps its first balance (zero when missing)
    and the principal it paid, in int64 cents.  A loan holding a balance or
    principal cell that cents cannot hold keeps both as exact Decimals in
    `exact`, by segment, and its int64 entries are not read.
    """

    start: np.ndarray
    months: np.ndarray
    flags: np.ndarray
    first_balance: np.ndarray
    paid: np.ndarray
    exact: dict

    def covered(self, pad: Decimal) -> np.ndarray:
        """Per segment: whether principal paid plus `pad` covers the first
        balance, exactly.  In cents the pad enters as floor(100 * pad)
        (`_floor_cents`); a loan in `exact` compares its Decimals (`_covers`)."""
        covered = self.first_balance - self.paid <= _floor_cents(pad)
        for k, (balance, paid) in self.exact.items():
            covered[k] = _covers(paid, pad, balance)
        return covered

    def integrity_ok(self) -> np.ndarray:
        """Per segment: whether the outcome can be determined.

        It cannot when the first balance is missing, or when the principal
        paid falls short of the first balance while the last balance is
        missing.
        """
        first = self.flags[self.start] & _NO_BALANCE
        last = self.flags[self.start + self.months - 1] & _NO_BALANCE
        return (first == 0) & (self.covered(Decimal(0)) | (last == 0))

    def outcomes(self, pad: Decimal) -> tuple[np.ndarray, np.ndarray]:
        """Per segment: (outcome code, 1-based trust month of the event).

        The principal test runs first: if total principal plus the pad covers
        the first-month balance, the loan is repaid at the first zero-balance
        month (falling back to the last month when no balance ever reads
        zero).  Otherwise three consecutive zero payments mark a default at
        the first of the three.  Anything else is censored at the last trust
        month.  A segment whose first balance is missing has no outcome;
        callers drop such loans first (see `integrity_ok`).

        The first zero balance and the first run of three zero payments are
        found among the rows that hold one (`_first_at`), so no temporary
        but a few bytes a row is as long as the payment rows.
        """
        start, flags = self.start, self.flags
        if start.size == 0:
            return np.zeros(0, np.int8), np.zeros(0, np.int64)
        end = start + self.months
        first_zero = _first_at(np.flatnonzero(flags & _ZERO_BALANCE), start, end)
        run = flags[:-2] & flags[1:-1]
        run &= flags[2:]
        run &= _ZERO_PAYMENT
        # A run is the segment's only when all three months lie inside it; a
        # later run in the same segment ends later still, so the first decides.
        first_run = _first_at(np.flatnonzero(run), start, end)
        del run
        repaid = self.covered(_decimal(pad))
        defaulted = ~repaid & (first_run + 3 <= end)
        code = np.where(repaid, Cause.PREPAY.value,
                        np.where(defaulted, Cause.DEFAULT.value, _CENSORED)).astype(np.int8)
        month = np.where(repaid & (first_zero < end), first_zero - start + 1,
                         np.where(defaulted, first_run - start + 1, self.months))
        return code, month


def _first_at(rows: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per segment start[k] : end[k], the first of the sorted `rows` at or after
    its start; `end[-1]` (past every segment) when no row follows the start."""
    return np.append(rows, end[-1])[np.searchsorted(rows, start)]


def _observation_ages(loan_age_at_entry, event_month):
    """(entry_age, exit_age) of a loan entering at loan_age_at_entry.

    Entry age is one-based: a loan entering the pool at loan age a is first
    observable at age a + 1, and an event in trust month m happens at loan
    age a + m.
    """
    return loan_age_at_entry + 1, loan_age_at_entry + event_month


# ---------------------------------------------------------------------------
# The loan tape


_LOAN_FIELDS = ("loan_id", "apr_pct", "original_amount", "original_term",
                "loan_age_at_entry", "has_coborrower", "income_verification",
                "subvention", "vehicle_condition", "initial_status", "recovered_amount")


@dataclass(frozen=True, eq=False)
class LoanTape:
    """A loan tape in columns: one entry per loan plus the payment segments.

    `segment[i]` is the payment segment of loan i, or -1 when the payment
    file has no rows for it.  `original_amount` and `recovered_amount` are
    int64 cents; an amount that cents cannot hold reads its sign there, and
    its exact Decimal in `exact` under (loan id, column).  `line[i]` is
    loan i's line in the loans file `where`, for locating an error about
    the loan.
    """

    loan_id: np.ndarray
    apr_pct: np.ndarray
    original_amount: np.ndarray
    original_term: np.ndarray
    loan_age_at_entry: np.ndarray
    has_coborrower: np.ndarray
    income_verification: np.ndarray
    subvention: np.ndarray
    vehicle_condition: np.ndarray
    initial_status: np.ndarray
    recovered_amount: np.ndarray
    segment: np.ndarray
    payments: _Payments
    where: str
    line: np.ndarray
    exact: dict

    def __len__(self) -> int:
        return self.loan_id.size

    def take(self, index) -> "LoanTape":
        """The loans selected by a boolean mask or an index array."""
        return replace(self, segment=self.segment[index], line=self.line[index],
                       **{name: getattr(self, name)[index] for name in _LOAN_FIELDS})


def _eligible(tape: LoanTape, policy: FilterPolicy) -> np.ndarray:
    keep = (~tape.has_coborrower
            & (tape.income_verification == policy.income_verification)
            & ~tape.subvention
            & (tape.vehicle_condition == policy.vehicle_condition)
            & ~np.isin(tape.initial_status, list(policy.excluded_initial_status))
            & (tape.loan_age_at_entry < policy.max_entry_age)
            & np.isin(tape.original_term, list(policy.allowed_terms)))
    has_history = tape.segment >= 0
    keep[has_history] &= tape.payments.integrity_ok()[tape.segment[has_history]]
    return keep


def filter_loans(tape: LoanTape, policy: FilterPolicy = FilterPolicy()) -> LoanTape:
    """The loans passing every eligibility and integrity criterion.

    The integrity check drops loans whose outcome cannot be determined: total
    principal paid falls short of the first-month balance while the final
    month's balance is missing (and loans whose first balance is itself
    missing).  An empty result is allowed.
    """
    return tape.take(_eligible(tape, policy))


def build_observations(tape: LoanTape, policy: FilterPolicy = FilterPolicy(),
                       pad: Decimal = DEFAULT_PAD) -> ObservationTable:
    """Filter, classify, and convert a tape's loans into observations.

    `pad` (a Decimal, an integer or a float read by its repr) is added to the
    principal paid in the repayment test.  Output is ordered by loan_id so
    parallel upstream processing cannot change the result.
    """
    kept = filter_loans(tape, policy)
    orphan = kept.segment < 0
    if orphan.any():
        i = np.argmax(orphan)
        raise SchemaError(f"{kept.where}:{kept.line[i]}: loan {kept.loan_id[i]} "
                          f"has no payment history")
    code, month = kept.payments.outcomes(pad)
    code, month = code[kept.segment], month[kept.segment]
    entry_age, exit_age = _observation_ages(kept.loan_age_at_entry, month)
    table = ObservationTable(loan_id=kept.loan_id, band=_band_codes(kept.apr_pct),
                             entry_age=entry_age, exit_age=exit_age,
                             event=code != _CENSORED, cause=code)
    return table.take(np.argsort(table.loan_id, kind="stable"))


# ---------------------------------------------------------------------------
# The loan tape and observation files (read and written by `_csvio`)

_PAYMENT_COLUMNS = ["loan_id", "trust_month", "balance", "payment", "principal"]
_OBS_COLUMNS = ["loan_id", "band", "entry_age", "exit_age", "event", "cause"]

# Trust months are held as int32 while every one fits.
_INT32 = np.iinfo(np.int32)
# The payments file is read this many bytes at a time (`_Columns.blocks`).
_READ_BYTES = 1 << 19


def _read_payments(path: str | Path, loans: np.ndarray = np.zeros((1, 0), np.uint64)
                   ) -> tuple[_Payments, np.ndarray, np.ndarray]:
    """(payments, key of each segment's loan id, segment of each id keyed
    in `loans` (-1: no payment rows)): the long file folded into payment
    segments, and the loans file's ids (`_Columns.ids` keys) joined to them.

    The file is read `_READ_BYTES` at a time (`_Columns.blocks`) and each
    block is folded as it is read (`_put_block`), so no money column
    outlives its block.  The per-row loan keys (int32), trust months (int32
    while every month fits) and
    flags are allotted once, for the rows that the share of the file read so
    far predicts and 1/16 more, grown in place only when a block overruns
    them (doubled where the share is not known: a pipe, a quoted file) and
    trimmed in place after the last block.  Order and contiguity are checked
    in one pass after the last block, so a bad cell anywhere is reported
    before a month gap; only a file that fails the pass is sorted and checked
    again.  The gap's line comes from the (row, line) pairs kept from the
    blocks' jumps.

    A block's loans are numbered by its own codes, counted on from the last
    block's, in the per-row keys and the block's sums.  After the last block
    all blocks' ids and the loans file's are grouped once (`_group`), which
    numbers the segments by first row.  Sums are exact, so their order does
    not matter; the Decimal ones are made per loan (`_exact_amounts`).
    """
    out = {"key": np.empty(0, np.int32), "month": np.empty(0, np.int32),
           "flags": np.empty(0, np.uint8)}  # a block may widen trust months to int64
    parts, jump_rows, jump_lines = [], [], []  # parts: what `_put_block` returns
    rows = codes = 0
    for cols, share in _Columns.blocks(path, _PAYMENT_COLUMNS, _READ_BYTES):
        end = rows + cols.rows
        if end > out["key"].size:  # room for the rows the share read predicts, and 1/16 more
            size = max(end, int(end / share * 17 / 16) if share else 2 * end)
            for column in out.values():
                column.resize(size, refcheck=False)
        parts.append(_put_block(cols, out, slice(rows, end), codes))
        codes += parts[-1][0].shape[1]
        row, line = cols.jumps[0], cols.jumps[2]
        new = np.append(True, np.diff(line - row) != 0)  # the jumps that move the line on
        ahead = row[new] < 0  # the header's: kept as row 0's, which the last block's rows precede
        jump_rows.append(row[new] + ahead + rows)
        jump_lines.append(line[new] + ahead)
        rows = end
        del cols  # freed before the next block is read
    for column in out.values():
        column.resize(rows, refcheck=False)
    key, month, flags = out.values()
    keys, first_balance, paid, balances, cells = zip(*parts)
    del parts
    keys = _stacked([*keys, loans])  # each block's keys freed here
    number, first = _group(keys)
    segments = int(number[:codes].max(initial=-1)) + 1  # the ids with payment rows come first
    ids = keys[:, first[:segments]]
    del keys
    sums = []
    for blocks in (first_balance, paid):
        sums.append(np.zeros(segments, np.int64))
        np.add.at(sums[-1], number[:codes], np.concatenate(blocks))
    exact = _exact_amounts(path, ids, *sums, *(
        [(int(number[k]), amount) for block in odd for k, amount in block]
        for odd in (balances, cells)))
    step = _csvio._PARSE_ROWS
    for at in range(0, key.size, step):  # in place, a block at a time
        key[at:at + step] = number[key[at:at + step]]
    months = np.bincount(key, minlength=segments)
    start = np.cumsum(months) - months
    order = None  # the file row of each sorted row, when the file is not sorted
    at = _first_gap(key, month, start)
    if at is not None:
        order = np.lexsort((month, key))
        key, month = key[order], month[order]
        at = _first_gap(key, month, start)
    if at is not None:
        k = int(key[at])
        line = _line_at(np.concatenate(jump_rows), np.concatenate(jump_lines),
                        at if order is None else order[at])
        raise SchemaError(f"{path}:{line}: loan {_id_text(ids[:, k])} trust_month values are "
                          f"not a contiguous 1..{months[k]} sequence")
    loan_segment = number[codes:]
    loan_segment[loan_segment >= segments] = -1
    return (_Payments(start, months, flags if order is None else flags[order], *sums, exact),
            ids, loan_segment)


def _put_block(cols: _Columns, out: dict, rows: slice, codes: int) -> tuple:
    """Fold one block: its rows' keys, trust months and flags into `rows` of
    `out`.  A loan is keyed by its code in the block (`_Columns.ids`) plus
    `codes`.  Returns the key of each code's id, the first balance and the
    principal paid of each code in cents, and (loan key, Decimal) of each
    first balance and each principal cell that cents cannot hold."""
    code, _, keys, _ = cols.ids("loan_id")
    out["key"][rows] = code + codes
    months = cols.ints("trust_month")
    if out["month"].dtype == np.int32 and months.size and (
            months.min() < _INT32.min or months.max() > _INT32.max):
        out["month"] = out["month"].astype(np.int64)
    out["month"][rows] = months
    balance, missing, exact = cols.money("balance", allow_missing=True)
    flags = out["flags"][rows]
    flags[:] = np.where(missing, _NO_BALANCE, (balance == 0) * _ZERO_BALANCE)
    first = months == 1
    first_balance = np.zeros(keys.shape[1], np.int64)
    first_balance[code[first]] = balance[first]
    balances = [(codes + int(code[i]), amount) for i, amount in exact.items() if first[i]]
    del balance, missing
    flags[cols.money("payment")[0] == 0] |= _ZERO_PAYMENT
    principal, _, exact = cols.money("principal")
    principal[list(exact)] = 0  # summed as Decimals
    paid = np.zeros(keys.shape[1], np.int64)
    np.add.at(paid, code, principal)
    return (keys, first_balance, paid, balances,
            [(codes + int(code[i]), amount) for i, amount in exact.items()])


def _exact_amounts(path, ids: np.ndarray, first_balance: np.ndarray, paid: np.ndarray,
                   balances: list, cells: list) -> dict:
    """{segment: (first balance, principal paid)} as Decimals of each loan
    with a first balance or principal cell that cents cannot hold
    ((segment, Decimal) pairs in `balances` and `cells`).  The principal
    paid is its Decimal cells, the largest first, then its cents, summed in
    `_EXACT`, so a sum past the exponent limit or `_DIGITS` digits is a
    SchemaError decided in one order, whatever the order of the rows."""
    balances, by_loan, exact = dict(balances), {}, {}
    for k, amount in sorted(cells, key=lambda cell: (cell[0], -cell[1].adjusted(), cell[1])):
        by_loan.setdefault(k, []).append(amount)
    for k in sorted(balances.keys() | by_loan.keys()):
        first, cents = (Decimal(int(c)).scaleb(-2, _EXACT) for c in (first_balance[k], paid[k]))
        try:
            total = reduce(_EXACT.add, [*by_loan.get(k, ()), cents], Decimal(0))
        except Inexact as exc:  # an Overflow is Inexact too
            past = ("sums past the decimal exponent limit" if isinstance(exc, Overflow)
                    else f"needs more than {_DIGITS} digits to sum exactly")
            raise SchemaError(f"{path}: loan {_id_text(ids[:, k])!r}: column 'principal' "
                              f"{past}") from None
        exact[k] = (balances.get(k, first), total)
    return exact


def _first_gap(key: np.ndarray, month: np.ndarray, start: np.ndarray) -> int | None:
    """The first row, `_PARSE_ROWS` rows at a time, that lies before its key's
    segment (segment k starts at row start[k]) or whose month is not its
    1-based place there; None if none.

    With no such row, the rows of keys k and up lie at or past start[k] and
    are just as many as those places, so every key's rows fill its segment,
    in months 1, 2, ...: one pass proves both order and contiguity.
    """
    step = _csvio._PARSE_ROWS
    for at in range(0, key.size, step):
        block = slice(at, at + step)
        keys = key[block]
        place = np.arange(at + 1, at + 1 + keys.size) - start[keys]
        wrong = np.flatnonzero((month[block] != place) | (place < 1))
        if wrong.size:
            return at + int(wrong[0])
    return None


def load_loan_data(loans_path: str | Path, payments_path: str | Path) -> LoanTape:
    """Read the static and long CSVs into a LoanTape."""
    cols = _Columns.read(loans_path, _LOAN_FIELDS)
    code, first, keys, bounds = cols.ids("loan_id")
    loan_id = np.array(cols.texts("loan_id", first, bounds), dtype=object)[code]
    owner = first[code]  # the first row with the row's id
    original_amount, _, exact = cols.money("original_amount")
    recovered_amount, _, exact_recovered = cols.money("recovered_amount")
    loan_age_at_entry = cols.ints("loan_age_at_entry")
    cols.check_rows(((owner < np.arange(cols.rows),
                      lambda i: f"loan_id {loan_id[i]!r} repeats line {cols.line_of(owner[i])}"),
                     (original_amount <= 0, "column 'original_amount' must be positive"),
                     (loan_age_at_entry < 0, "column 'loan_age_at_entry' must be >= 0")))
    columns = dict(
        loan_id=loan_id,
        apr_pct=cols.aprs("apr_pct"),
        original_amount=original_amount,
        original_term=cols.ints("original_term"),
        loan_age_at_entry=loan_age_at_entry,
        has_coborrower=cols.labels("has_coborrower", _parse_bool, np.bool_, _BOOLS),
        income_verification=cols.labels("income_verification", str.strip, object),
        subvention=cols.labels("subvention", _parse_bool, np.bool_, _BOOLS),
        vehicle_condition=cols.labels("vehicle_condition", str.strip, object),
        initial_status=cols.labels("initial_status", str.strip, object),
        recovered_amount=recovered_amount,
        where=cols.where,
        line=cols.line,
        exact={**{(loan_id[i], "original_amount"): amount for i, amount in exact.items()},
               **{(loan_id[i], "recovered_amount"): amount
                  for i, amount in exact_recovered.items()}},
    )
    del cols  # the loans file's buffer is not held while the payments file is read
    payments, _, segment = _read_payments(payments_path, keys)
    return LoanTape(**columns, segment=segment[code], payments=payments)


# Labels by code; index -1 (no band) and 0 (censored) give "".
_BAND_LABEL_OF = np.array([b.label for b in RiskBand] + [""], dtype=object)
_CAUSE_LABEL_OF = np.array(["", Cause.DEFAULT.label, Cause.PREPAY.label], dtype=object)



def write_observations_csv(path: str | Path, table: ObservationTable) -> None:
    _write_csv(path, _OBS_COLUMNS, [
        table.loan_id.tolist(), _BAND_LABEL_OF[table.band].tolist(),
        table.entry_age.tolist(), table.exit_age.tolist(),
        np.where(table.event, "1", "0").tolist(), _CAUSE_LABEL_OF[table.cause].tolist()])


def _band_code(raw: str) -> int:
    return RiskBand.from_label(raw).value if raw.strip() else -1


def _cause_code(raw: str) -> int:
    return Cause.from_label(raw).value if raw.strip() else _CENSORED


# The labels written, and the lowercase booleans read: their cells are read
# without a parse (`_Columns.labels`).
_BOOLS = _Vocabulary(sorted(_TRUE | _FALSE), _parse_bool, np.bool_)
_CAUSES = _Vocabulary(list(_CAUSE_LABEL_OF), _cause_code, np.int8)
_BANDS = _Vocabulary(list(_BAND_LABEL_OF), _band_code, np.int8)


def read_observations_csv(path: str | Path, loan_ids: bool = True) -> ObservationTable:
    """Read an observation table.  With `loan_ids` false the loan_id column
    must still be present, but its cells are not read: every id is empty."""
    cols = _Columns.read(path, _OBS_COLUMNS)
    columns = dict(
        event=cols.labels("event", _parse_bool, np.bool_, _BOOLS),
        cause=cols.labels("cause", _cause_code, np.int8, _CAUSES),
        band=cols.labels("band", _band_code, np.int8, _BANDS),
        entry_age=cols.ints("entry_age"),
        exit_age=cols.ints("exit_age"),
        loan_id=(cols.labels("loan_id", str.strip, object) if loan_ids
                 else np.array([""], object).repeat(cols.rows)),
    )
    cols.check_rows(_row_checks(columns["entry_age"], columns["exit_age"],
                                columns["event"], columns["cause"]))
    return ObservationTable(**columns)
