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

Monetary fields are exact: a plain decimal cell with at most two fraction
digits is read straight into integer cents, any other cell is parsed with
`Decimal`, and when some balance or principal cell is not a whole number of
cents the per-loan sums hold `Decimal` objects instead of cents.  Outcome
classification (zero-payment runs, principal-vs-balance comparisons) thus
never depends on binary float representation.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation, Overflow, localcontext
from enum import Enum
from numbers import Integral
from pathlib import Path

import numpy as np

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


def _first_problem(checks) -> tuple[int, str] | None:
    """(first offending row, message) over (mask, message) rules, or None.

    The earliest row breaking any rule wins, and of the rules it breaks the
    first listed.  A message may be a function of the row.
    """
    found = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if not found:
        return None
    row, k = min(found)
    message = checks[k][1]
    return row, message(row) if callable(message) else message


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
# Money: int64 cents, or Decimal objects (dtype object) in currency units.

# Whole-cent amounts at or above this many cents are kept as Decimal, so the
# sum of a payment history can never overflow int64.
_CENTS_LIMIT = 10**12


def _decimal(value) -> Decimal:
    """The pad given as a Decimal, an integer or a float (read by its repr), as a finite Decimal."""
    if isinstance(value, Integral):
        value = Decimal(int(value))
    elif not isinstance(value, Decimal):
        value = Decimal(repr(float(value)))
    if not value.is_finite():
        raise ValueError(f"non-finite amount: {value}")
    return value


def _cents_of(value: Decimal) -> int | None:
    """The amount in whole cents, or None when cents cannot hold it exactly.

    Decided on the digits in integers, not in the decimal context, so no
    amount is rounded to the context's precision or overflows its exponent.
    """
    sign, digits, exponent = value.as_tuple()
    if not any(digits):
        return 0
    if value.adjusted() > 12:  # at least 10**13 units, past any cents kept
        return None
    shift = exponent + 2  # the power of ten of the last digit, in cents
    whole = max(len(digits) + min(shift, 0), 0)  # the digits above a cent
    if any(digits[whole:]):
        return None
    cents = int("".join(map(str, digits[:whole]))) * 10 ** max(shift, 0)
    return None if cents >= _CENTS_LIMIT else -cents if sign else cents


def _as_decimals(column: np.ndarray) -> np.ndarray:
    """A money column as Decimal objects in currency units."""
    if column.dtype == object:
        return column
    out = np.empty(column.size, dtype=object)
    out[:] = [Decimal(c).scaleb(-2) for c in column.tolist()]
    return out


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
    and the principal it paid: cents, or Decimals when some balance or
    principal cell is not whole cents.  A Decimal `paid` is summed in file
    order from the loan's first row, so it is `np.add.reduceat` over the
    segment's rows in month order when the file is sorted, and equals it in
    any order whenever no partial sum needs more than 28 significant digits
    (the decimal context's precision): every sum is then exact.
    """

    start: np.ndarray
    months: np.ndarray
    flags: np.ndarray
    first_balance: np.ndarray
    paid: np.ndarray

    def integrity_ok(self) -> np.ndarray:
        """Per segment: whether the outcome can be determined.

        It cannot when the first balance is missing, or when the principal
        paid falls short of the first balance while the last balance is
        missing.
        """
        first = self.flags[self.start] & _NO_BALANCE
        last = self.flags[self.start + self.months - 1] & _NO_BALANCE
        short = self.paid < self.first_balance
        return (first == 0) & ~(short & (last != 0))

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
        paid, first_balance, pad = self.paid, self.first_balance, _decimal(pad)
        if paid.dtype != object:  # cents, unless the pad is not whole cents
            if _cents_of(pad) is None:
                paid, first_balance = _as_decimals(paid), _as_decimals(first_balance)
            else:
                pad = _cents_of(pad)
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
        repaid = paid + pad >= first_balance
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
    money columns (int64 cents or Decimal objects).  `line[i]` is loan i's
    line in the loans file `where`, for locating an error about the loan.
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
# CSV input/output

_PAYMENT_COLUMNS = ["loan_id", "trust_month", "balance", "payment", "principal"]
_OBS_COLUMNS = ["loan_id", "band", "entry_age", "exit_age", "event", "cause"]

_TRUE = {"true", "1", "yes", "y", "t"}
_FALSE = {"false", "0", "no", "n", "f"}

_COMMA, _NEWLINE, _CR, _MINUS, _PLUS, _POINT, _ZERO, _N, _A = b",\n\r-+.0NA"
# Trust months are held as int32 while every one fits.
_INT32 = np.iinfo(np.int32)
# A plain cell holds at most this many digits.
_PLAIN_DIGITS = 12


def _parse_bool(raw: str) -> bool:
    key = raw.strip().lower()
    if key in _TRUE:
        return True
    if key in _FALSE:
        return False
    raise ValueError(f"non-boolean value {raw!r}")


def _foreign(text: str) -> bool:
    """Whether a numeric cell holds a '_' or a non-ASCII character.

    int, float and Decimal read '_' as a digit separator and accept
    non-ASCII digits; the CSV number grammar has neither.
    """
    return "_" in text or not text.isascii()


def _parse_float(raw: str) -> float:
    """A number cell; an empty cell reads NaN."""
    try:
        if _foreign(raw):
            raise ValueError
        return float(raw) if raw.strip() else np.nan
    except ValueError:
        raise ValueError(f"{raw!r} is not a valid number") from None


# A read file is followed by this many spare bytes: room for a closing
# newline, and for an 8-byte word read at any offset inside the file.
_SPARE = 9
# Block sizes of the separator scan (file bytes) and of the numeric parse
# and the separator compaction (cells or separators): each block's
# temporaries fit in a core's L2 cache, so no pass makes a temporary as long
# as the file or the column.
_SCAN_BYTES = 1 << 18
_PARSE_ROWS = 1 << 15
# The payments file is read this many bytes at a time (`_Columns.blocks`).
_READ_BYTES = 1 << 19
# Separator offsets are int32 in a buffer smaller than this, int64 in a larger one.
_INT32_BYTES = 1 << 31
# _BYTE_MASK[b] keeps the low b bytes of a little-endian word.
_BYTE_MASK = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _each_byte(byte: int) -> np.uint64:
    """The word holding `byte` in each of its eight bytes."""
    return np.uint64(byte * 0x0101010101010101)


_ZEROS = _each_byte(_ZERO)
_HIGH_NIBBLES, _LOW_NIBBLES = _each_byte(0xF0), _each_byte(0x0F)


def _words(buf: np.ndarray) -> np.ndarray:
    """The unaligned little-endian word starting at each byte of `buf` but the last 7."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _word_before(words: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per row, the eight bytes before offset `stop` as one little-endian word.

    The byte just before `stop` is the word's high byte, so a cell ending
    there is right-aligned.  A word that would start before the buffer is
    read from its start and shifted into place, NUL bytes shifted in.
    """
    at = stop - 8
    if at.size and at.min() < 0:
        return words[np.maximum(at, 0)] << (8 * np.clip(-at, 0, 7)).astype(np.uint64)
    return words[at]


def _keep_last(word: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """`word` with all but its last (highest) `keep` bytes set to '0', in place."""
    change = word ^ _ZEROS
    change &= _BYTE_MASK.take(8 - keep, mode="clip")
    word ^= change
    return word


def _all_digits(word: np.ndarray) -> np.ndarray:
    """Whether all eight bytes of each word are ASCII digits.

    Lemire's `is_made_of_eight_digits_fast`: a byte is a digit exactly when
    its high nibble, and that of the byte plus 6, are both 3.  A carry out
    of a byte needs a high nibble of F there, which already fails the test.
    """
    high = (word + _each_byte(0x06)) & _HIGH_NIBBLES
    high >>= np.uint64(4)
    high |= word & _HIGH_NIBBLES
    return high == _each_byte(0x33)


def _digits_value(word: np.ndarray) -> np.ndarray:
    """The number written by eight ASCII digits, the first in the low byte,
    computed in place.

    Lemire's three multiply-mask-shift steps join adjacent digits into
    pairs, the pairs into fours and the fours into the eight-digit value.
    """
    word &= _LOW_NIBBLES
    word *= np.uint64(10 << 8 | 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 << 16 | 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10000 << 32 | 1)
    word >>= np.uint64(32)
    return word.view(np.int64)


def _point_code(word: np.ndarray) -> np.ndarray:
    """Per word, which of its last three bytes hold a '.': bit k for byte 5 + k.

    Warren's exact zero-byte test (Hacker's Delight, 2nd ed., section 6-1)
    on the bytes xor '.', which sets the high bit of each zero byte and no
    other; one multiply gathers the three high bits into bits 21..23.
    """
    top = word >> np.uint64(40)
    top ^= np.uint64(_POINT * 0x010101)
    low = np.uint64(0x7F7F7F)
    found = top & low
    found += low
    found |= top
    found |= low
    found = ~found  # the high bit of each byte that was a '.'; garbage above bit 23
    found *= np.uint64(1 | 1 << 7 | 1 << 14)
    found >>= np.uint64(21)
    found &= np.uint64(7)
    return found.view(np.int64)


# By point code (see `_point_code`): the bytes up to and with the point, each
# of which takes the byte below it ('0' below the first), so the digits close
# up over the point; the cents of one unit of the word's value; the power of
# ten of a second word's digits.  A code of two or three points squeezes
# nothing, so its points fail the digit check.
_SQUEEZE = np.array([0, (1 << 48) - 1, (1 << 56) - 1, 0, (1 << 64) - 1, 0, 0, 0], np.uint64)
_CENTS = np.array([100, 1, 10, 0, 100, 0, 0, 0], np.int64)
_LEAD = np.array([10**8, 10**7, 10**7, 0, 10**7, 0, 0, 0], np.int64)


def _parse_plain(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                 point: bool, unsigned: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Read plain numeric cells straight from the bytes.

    A plain cell is an optional sign and 1..12 digits; with `point`, at most
    one '.' may sit among them with at most two digits after it, and the
    value is returned in hundredths (cents).  With `unsigned`, a cell with a
    minus sign is not plain, so its caller's parse keeps the sign of -0.
    Returns (values, plain); cells that are not plain read 0 and are left
    to the caller.

    Each cell reads the word that ends at its end, which holds the whole of
    a cell of up to eight bytes, its sign too.  The bytes before the digits
    are set to '0', which stands for leading zeros.  A plain cell holds its
    point among its last three bytes: found there (`_point_code`), it is
    squeezed out and the digits close up over it.  A check of all eight
    bytes and three multiply-mask-shift steps give the value (Lemire,
    "Number Parsing at a Gigabyte per Second", 2021).  Only a cell of more
    than eight bytes reads its sign from `buf`, and only one of more than
    eight bytes after the sign reads its leading digits from a second word
    (the word before).  Integer cells (no `point`) take the same steps but
    the squeeze, so any point leaves them not plain.  Every byte of the cell is checked
    (sign, digits, point), so a cell is plain exactly when it matches the
    grammar.  Every step makes temporaries as long as `start`, so
    `_Columns` passes one block of `_PARSE_ROWS` cells at a time.
    """
    words = _words(buf)
    length = end - start
    word = _word_before(words, end)
    # the cell's first byte: its place in the word, or in `buf` past eight bytes
    first = word >> (8 * (8 - np.clip(length, 1, 8))).astype(np.uint64)
    first &= np.uint64(0xFF)
    far = np.flatnonzero(length > 8)
    first[far] = buf[start[far]]
    minus = first == _MINUS
    body = length - (minus | (first == _PLUS))  # the bytes after the sign
    del first
    _keep_last(word, body)
    if point:
        code = _point_code(word)
        squeeze = (word << np.uint64(8)) | np.uint64(_ZERO)
        squeeze ^= word
        squeeze &= _SQUEEZE[code]
        word ^= squeeze
        del squeeze
        digits = body - (code != 0)
    else:
        digits = body
    plain = _all_digits(word)
    plain &= (digits >= 1) & (digits <= _PLAIN_DIGITS)
    if unsigned:
        plain &= ~minus
    value = _digits_value(word)
    long = np.flatnonzero(body > 8)
    if long.size:  # their leading digits take a second word
        lead = _keep_last(_word_before(words, end[long] - 8), body[long] - 8)
        plain[long] &= _all_digits(lead)
        value[long] += _digits_value(lead) * (_LEAD[code[long]] if point else 10**8)
    if point:
        value *= _CENTS[code]
    np.negative(value, out=value, where=minus)
    value *= plain
    return value, plain


def _fill(fh, lead: bytes, size: int | None, total: int) -> tuple[bytearray, int, int, bool]:
    """(data, held, got, eof): `lead`, then up to `size` bytes read from `fh`
    (None: the rest of the file, whose size is `total`), then _SPARE NUL
    bytes.  `held` counts the bytes before the spare ones, `got` those read;
    eof: the file is done."""
    whole = size is None
    if whole:  # one byte more than the file: a full read means a pipe or a grown file
        size = total + 1
    data = bytearray(len(lead) + size + _SPARE)
    data[:len(lead)] = lead
    got = 0
    with memoryview(data) as view:
        while got < size:  # a read may stop short of `size` before the end of the file
            n = fh.readinto(view[len(lead) + got:len(lead) + size])
            if not n:
                break
            got += n
    if whole and got == size:
        del data[len(lead) + got:]
        rest = fh.read()
        data += rest
        got += len(rest)
        data += bytes(_SPARE)
    else:
        del data[len(lead) + got + _SPARE:]
    return data, len(lead) + got, got, whole or got < size


class _Rest(io.RawIOBase):
    """Bytes already read from a binary file, then the rest of the file."""

    def __init__(self, head, fh) -> None:
        super().__init__()
        self.head, self.fh = memoryview(head), fh

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if not self.head:
            return self.fh.readinto(b)
        n = min(len(b), len(self.head))
        b[:n] = self.head[:n]
        self.head = self.head[n:] if n < len(self.head) else b""  # frees the buffer once read
        return n


def _changes(keys: np.ndarray) -> np.ndarray:
    """Per column of `keys`: whether it differs from the column before (the first: True)."""
    change = np.empty(keys.shape[1], np.bool_)
    change[0] = True
    (keys[:, 1:] != keys[:, :-1]).any(axis=0, out=change[1:])
    return change


def _cell_keys(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The key of each cell start[k]:end[k] of `buf`, one column per cell: its
    length, then its bytes eight at a time as little-endian words with the
    bytes past the cell masked off.  Keys are exact, so no hash and no
    collision check are needed.  Built `_PARSE_ROWS` cells at a time, so the
    keys are the only temporary as long as the column."""
    length = end - start
    offset = np.arange(0, int(length.max(initial=0)), 8)[:, None]  # of each word in its cell
    words = _words(buf)
    keys = np.empty((offset.size + 1, length.size), np.uint64)
    keys[0] = length
    for at in range(0, length.size, _PARSE_ROWS):
        block = slice(at, at + _PARSE_ROWS)
        # bytes past the cell are masked off below
        keys[1:, block] = words[np.minimum(start[block] + offset, words.size - 1)]
        keys[1:, block] &= _BYTE_MASK.take(length[block] - offset, mode="clip")
    return keys


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(code per cell, first cell of each code, codes in key order) of cells
    by their keys (`_cell_keys`).

    Cells share a code exactly when their keys are equal; codes count up in
    order of first cell.  Runs of equal adjacent cells collapse to their
    first cell before the rest are sorted, length first: the order of
    `_records`.
    """
    cells = keys.shape[1]
    if cells == 0:
        return (np.zeros(0, np.int64),) * 3
    runs = np.flatnonzero(_changes(keys))
    keys = keys[:, runs]
    order = np.lexsort(keys[::-1])  # stable: a group's earliest run sorts first
    new = _changes(keys[:, order])
    lead = order[new]  # the earliest run of each group
    is_lead = np.zeros(runs.size, np.bool_)
    is_lead[lead] = True
    code_of_group = (np.cumsum(is_lead) - 1)[lead]  # numbered by first cell
    run_code = np.empty(runs.size, np.int64)
    run_code[order] = code_of_group[np.cumsum(new) - 1]
    return np.repeat(run_code, np.diff(np.append(runs, cells))), runs[is_lead], code_of_group


# The ASCII bytes that `str.strip` removes, and the high bit of each byte of a word.
_SPACE = np.zeros(256, np.bool_)
_SPACE[list(b" \t\n\v\f\r\x1c\x1d\x1e\x1f")] = True
_HIGH_BITS = _each_byte(0x80)


def _trimmed(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) of cells without the ASCII whitespace `str.strip` removes at either edge."""
    start, end = start.astype(np.int64), end.astype(np.int64)  # copies: `end` may view a grid
    for bound, step, edge in ((start, 1, 0), (end, -1, -1)):
        at = np.arange(bound.size)
        while at.size:  # once per byte trimmed, over the cells still trimmed
            at = at[_SPACE[buf[bound[at] + edge]] & (start[at] < end[at])]
            bound[at] += step
    return start, end


def _records(keys: np.ndarray) -> np.ndarray:
    """Cell keys (`_cell_keys`) as fixed-width byte strings, whose byte order
    is the order of `_group`: each word big-endian, the length first."""
    return np.ascontiguousarray(keys.T, dtype=">u8").view(f"S{8 * keys.shape[0]}").ravel()


def _widened(records: np.ndarray, size: int) -> np.ndarray:
    """Records of at least `size` bytes: zero words appended, which keep their order."""
    if records.itemsize >= size:
        return records
    out = np.zeros((records.size, size), np.uint8)
    out[:, :records.itemsize] = records.view(np.uint8).reshape(records.size, records.itemsize)
    return out.view(f"S{size}").ravel()


class _IdTable:
    """Distinct ids, each with a number: their records (`_records` of the
    stripped cells), sorted, so the ids of a block are found by one search
    in sorted order, and new ones are inserted where they sort."""

    def __init__(self) -> None:
        self.records, self.number = np.zeros(0, "S8"), np.zeros(0, np.int64)

    def __len__(self) -> int:
        return self.number.size

    def _search(self, records: np.ndarray, order: np.ndarray):
        """(sorted records, their place in the table, whether they are there);
        `order` sorts `records`.  The table's records are widened first when
        `records` are wider."""
        size = max(records.itemsize, self.records.itemsize)
        self.records, query = _widened(self.records, size), _widened(records, size)[order]
        at = np.searchsorted(self.records, query)
        known = at < len(self)
        known[known] = self.records[at[known]] == query[known]
        return query, at, known

    def find(self, records: np.ndarray, order: np.ndarray) -> np.ndarray:
        """The number of each record, -1 for one not in the table."""
        _, at, known = self._search(records, order)
        number = np.full(records.size, -1, np.int64)
        number[order[known]] = self.number[at[known]]
        return number

    def add(self, records: np.ndarray, order: np.ndarray) -> np.ndarray:
        """The number of each record: distinct records not in the table are
        added, numbered on from the last."""
        query, at, known = self._search(records, order)
        number = np.empty(records.size, np.int64)
        number[order[known]] = self.number[at[known]]
        new = order[~known]
        number[new] = np.arange(len(self), len(self) + new.size)
        if new.size:
            self.records = np.insert(self.records, at[~known], query[~known])
            self.number = np.insert(self.number, at[~known], number[new])
        return number

    def name(self, number: int) -> str:
        """The id numbered `number`."""
        record = self.records.view(np.uint8).reshape(len(self), -1)[self.number == number][0]
        size = int.from_bytes(record[:8].tobytes(), "big")
        return record[8:].reshape(-1, 8)[:, ::-1].tobytes()[:size].decode("utf-8")


class _Vocabulary:
    """The labels a cell parser is mostly given, and the value it reads from each.

    A cell spells a label when it has the label's length and bytes.  No two
    labels share their length and first byte, so those two pick the one
    label a cell may spell (`slot`, in which the last label stands for
    none), and the cell's words are compared with that label's.
    """

    def __init__(self, labels, parse, dtype) -> None:
        cells = [label.encode("utf-8") for label in labels]
        none = len(cells)
        self.length = np.array([len(cell) for cell in cells] + [-1])
        width = max(1, -(-self.length.max() // 8))
        self.words = np.frombuffer(b"".join(cell.ljust(8 * width, b"\0") for cell in cells)
                                   + bytes(8 * width), "<u8").reshape(-1, width).T.copy()
        self.masks = _BYTE_MASK.take(self.length - 8 * np.arange(width)[:, None], mode="clip")
        self.slot = np.full((self.length.max() + 2, 256), none)  # by length (past: none), first byte
        for k, cell in enumerate(cells):
            at = (len(cell), cell[0] if cell else slice(None))
            if (self.slot[at] != none).any():
                raise ValueError(f"labels share a length and first byte: {labels[k]!r}")
            self.slot[at] = k
        self.slot = self.slot.ravel()
        # the value of no label is never taken: a cell that spells none is parsed
        self.values = np.array([parse(label) for label in labels] + [parse(labels[0])], dtype)

    def match(self, buf: np.ndarray, start: np.ndarray, end: np.ndarray):
        """(value, whether it spells a label) of each cell start[k]:end[k] of `buf`."""
        words, length = _words(buf), end - start
        word = words[start]  # a cell starts before the spare bytes: no word runs past them
        at = np.minimum(length, self.slot.size // 256 - 1) * 256
        at += (word & np.uint64(0xFF)).view(np.int64)
        at = self.slot[at]
        spelt = self.length[at] == length
        for j in range(self.words.shape[0]):
            if j:
                word = words[np.minimum(start + 8 * j, words.size - 1)]
            word &= self.masks[j][at]
            spelt &= word == self.words[j][at]
        return self.values[at], spelt


def _wanted_columns(where: str, header: list, required) -> list[int]:
    """The header position of each required column (a repeated name: the last)."""
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{where}: missing required column(s) {', '.join(missing)}")
    position = {name: j for j, name in enumerate(header)}
    return [position[name] for name in required]


def _not_utf8(loc: str, column, exc: UnicodeDecodeError) -> SchemaError:
    """The error for a cell that is not UTF-8; `column` is a name or a field number."""
    return SchemaError(f"{loc}: column {column!r}: byte 0x{exc.object[exc.start]:02x} "
                       f"at position {exc.start} is not UTF-8")


def _header_names(loc: str, fields: list[bytes]) -> list[str]:
    """The header's fields decoded; one that is not UTF-8 is a SchemaError at `loc`."""
    names = []
    for j, raw in enumerate(fields):
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise _not_utf8(loc, j + 1, exc) from None
    return names


def _separators(data: bytearray) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """(buffer, separator offsets, lines, CRs before a newline, CRs) of file
    bytes ending in a newline and the spare bytes.

    Commas and newlines are found `_SCAN_BYTES` at a time through reused
    masks, in two passes: the first only counts them and the CRs (Langdale
    and Lemire's mask scan), a CR that ends one block carried into the
    next, so the second writes each block's offsets straight into one array.
    """
    buf = np.frombuffer(data, np.uint8)  # the spare bytes are NUL: no separator
    newline = np.empty(min(_SCAN_BYTES, buf.size), np.bool_)
    comma, cr = np.empty_like(newline), np.empty_like(newline)
    lines = crlf = crs = count = 0
    carry = False  # whether the block before ended in a CR
    for at in range(0, buf.size, _SCAN_BYTES):
        block = buf[at:at + _SCAN_BYTES]
        n = block.size
        ends, back = np.equal(block, _NEWLINE, out=newline[:n]), np.equal(block, _CR, out=cr[:n])
        lines, crs = lines + np.count_nonzero(ends), crs + np.count_nonzero(back)
        count += np.count_nonzero(np.equal(block, _COMMA, out=comma[:n]))
        pairs = np.logical_and(back[:-1], ends[1:], out=comma[:n - 1])
        crlf += np.count_nonzero(pairs) + (carry and ends[0])
        carry = bool(back[-1])
    count += lines
    found, k = np.empty(count, np.int32 if buf.size < _INT32_BYTES else np.int64), 0
    for at in range(0, buf.size, _SCAN_BYTES):
        block = buf[at:at + _SCAN_BYTES]
        separator = np.equal(block, _NEWLINE, out=newline[:block.size])
        separator |= np.equal(block, _COMMA, out=comma[:block.size])
        piece = np.flatnonzero(separator)
        np.add(piece, at, out=found[k:k + piece.size], casting="unsafe")
        k += piece.size
    return buf, found, lines, crlf, crs


def _compact(where: str, buf: np.ndarray, found: np.ndarray, width: int,
             line: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid, jumps) of a file whose lines do not all hold the header's `width` fields.

    Walking `_PARSE_ROWS` separators at a time, each row keeps those after
    its first `width` fields and a blank line none; they move to the front
    of `found`, which the grid views.  A row after a long row or a blank
    line takes a jump.  `line` is the file line of the header's line.
    """
    kept, field = 0, 0  # separators kept; the next one's field number
    last, last_kept, jumps = -1, False, []  # the separator before the next; was it kept
    for at in range(0, found.size, _PARSE_ROWS):
        sep = found[at:at + _PARSE_ROWS]
        newline = buf[sep] == _NEWLINE
        before = np.append(last, sep[:-1])
        gap = sep - before
        index = np.arange(sep.size)
        position = index - np.maximum.accumulate(  # from the first separator of its line
            np.append(-field, np.where(newline[:-1], index[1:], -field)))
        on_line = line + np.cumsum(newline) - newline
        blank = newline & (position == 0) & ((gap == 1) | (gap == 2) & (buf[sep - 1] == _CR))
        short = np.flatnonzero(newline & (position < width - 1) & ~blank)
        if short.size:  # a row may carry extra trailing fields (ignored), never fewer
            k = short[0]
            raise SchemaError(f"{where}:{on_line[k]}: expected {width} fields, "
                              f"found {position[k] + 1}")
        keep = (position < width) & ~blank
        jump = np.flatnonzero(keep & (position == 0) & ~np.append(last_kept, keep[:-1]))
        row = (kept + np.cumsum(keep)[jump] - 1) // width - 1
        jumps.append(np.stack([row, before[jump] + 1, on_line[jump]]))
        field = 0 if newline[-1] else int(position[-1]) + 1
        line, last, last_kept = line + int(newline.sum()), int(sep[-1]), bool(keep[-1])
        moved = sep[keep]
        found[kept:kept + moved.size] = moved
        kept += moved.size
    return found[:kept].reshape(-1, width), np.concatenate(jumps, axis=1)


def _line_at(jump_row: np.ndarray, jump_line: np.ndarray, rows):
    """The file line of one row or of each of an index array: rows after a
    jump (sorted by row) take the lines after its own."""
    k = np.searchsorted(jump_row, rows, side="right") - 1
    return jump_line[k] + (rows - jump_row[k])


class _Columns:
    """The cells of a CSV file's required columns, as byte offsets into one buffer.

    A `_Columns` holds a whole file (`read`) or one block of its lines
    (`blocks`, through which the payments file is read, so that only one
    block's bytes and separators are held at a time).  Every file and block
    is held alike: the buffer (the file and `_SPARE` bytes), a grid of
    separator offsets (int32 below `_INT32_BYTES` of buffer, int64 above)
    and a jump table.  grid[0] holds the header's separators and
    grid[i + 1, j] the one after field j of row i, so cell j of row i runs
    from just past grid[i + 1, j - 1] (for j = 0, the last of grid row i) to
    grid[i + 1, j]; a cell that ends its file line ends at a CR before the
    newline (`cr`: 1 or 0 when every row's line has or lacks one, None when
    each row is tested).  Row i starts after grid row i, on the line after
    row i - 1's, unless a jump says otherwise: `jumps` holds (row, first
    byte, line) for the header (row -1: line 1, or in a later block the
    line before the block) and each row after a long row (whose last grid
    separator is the comma after the header's last field) or after skipped
    blank lines, and for every row of a quoted file (a quoted cell may hold
    line breaks).  A
    sparse table is the simplest exception: a file whose lines all hold the
    header's fields needs no entry and a lookup is one searchsorted, where a
    start or a line per row would cost 8 bytes a row on a file with one
    blank line.  Bounds and lines are derived for the rows asked.  Only
    files holding a quote go through `csv.reader` (from the first block
    holding one), whose per-cell strings took over twice the time and memory
    of the byte scan (see BENCH_columnar_ingest.json).
    """

    def __init__(self, where: str, required, buf: np.ndarray, columns, grid: np.ndarray,
                 jumps: np.ndarray, cr: int | None = None) -> None:
        self.where, self.column = where, dict(zip(required, columns))
        self.buf, self.grid, self.jumps, self.cr = buf, grid, jumps, cr
        self.rows = grid.shape[0] - 1

    @classmethod
    def read(cls, path: str | Path, required) -> "_Columns":
        """The whole file as one block (`blocks` with no size limit)."""
        (block, _), = cls.blocks(path, required, None)
        return block

    @classmethod
    def blocks(cls, path: str | Path, required, size: int | None):
        """Yield (block, share): the file's rows as `_Columns` of whole lines,
        read `size` bytes at a time (None: the whole file as one block), and
        the share of the file's bytes read so far (0 when it is not known:
        the size of a pipe, or the bytes behind rows laid out by csv).  An
        empty file is one empty block, whose header misses every column.

        Each block is cut after the last line end read (a CR ends a line
        unless a newline follows it); a line longer than `size` is read on,
        twice as many bytes each time, until it ends.  Blocks after the first stand a line of the header's
        width in for the header, so each is laid out like a whole file, and
        carry their file lines in their jumps: every `file:line` is the same
        whatever the block size.  From the first block holding a quote on,
        the rest of the file goes through `_read_quoted`.
        """
        where = str(path)
        with open(path, "rb") as fh:
            total = os.fstat(fh.fileno()).st_size
            header, head, pending, done, read = None, b"", b"", 0, 0  # done: file lines laid out
            step = size  # doubled while no line end is found, so a long line costs linear time
            while True:
                data, held, got, eof = _fill(fh, head + pending, step, total)
                read += got
                if eof and held == len(head) and header is not None:
                    return
                if data.find(b'"', len(head), held) >= 0:
                    rest = _Rest(memoryview(data)[len(head):held], fh)
                    del data
                    yield from cls._read_quoted(where, required, header, done, rest,
                                                None if size is None else _PARSE_ROWS)
                    return
                cut = held if eof else max(data.rfind(b"\n", len(head), held),
                                           data.rfind(b"\r", len(head), held - 1)) + 1
                if cut == 0 and not eof:  # no line ends yet
                    pending = bytes(data[len(head):held])
                    step *= 2
                    continue
                step = size
                if cut < held:  # the bytes after the cut start the next block
                    pending = bytes(data[cut:held])
                    del data[cut:]
                    data += bytes(_SPARE)
                else:
                    pending = b""
                shift = done - 1 if head else 0  # file line minus buffer line
                block, header, lines = cls._plain(where, required, data, cut, header, shift)
                yield block, (read - len(pending)) / total if total else 0.0
                del block, data  # freed before the next block is read
                if eof:
                    return
                done = shift + lines
                head = b"x" + b"," * (len(header) - 1) + b"\n"

    @classmethod
    def _plain(cls, where: str, required, data: bytearray, size: int, header,
               shift: int) -> tuple["_Columns", list, int]:
        """(block, header names, lines) of unquoted lines: every comma and newline
        in one pass (`_separators`), reshaped into the grid when every line
        holds the header's fields, else compacted.  The buffer's first line is
        the header (read when `header` is None) and its line b is file line
        b + `shift`."""
        if size == 0 or data[size - 1] != _NEWLINE:
            data[size] = _NEWLINE
            size += 1
        buf, found, lines, crlf, crs = _separators(data)
        if crs != crlf:  # a bare CR ends a line too
            data = data[:size].replace(b"\r\n", b"\n").replace(b"\r", b"\n") + bytes(_SPARE)
            buf, found, lines, crlf, crs = _separators(data)
        if header is None:
            header = _header_names(f"{where}:1",
                                   data[:data.index(b"\n")].rstrip(b"\r").split(b","))
        columns = _wanted_columns(where, header, required)
        if len(header) > 1 and found.size == lines * len(header):
            grid = found.reshape(lines, -1)
            # The last column holds every newline exactly when each line has the header's fields.
            if (buf[grid[:, -1]] == _NEWLINE).all():
                jumps = np.array([[-1], [0], [1 + shift]])
                crlf -= buf[grid[0, -1] - 1] == _CR  # now the rows' CR-LF line ends
                cr = 1 if crlf == lines - 1 else 0 if crlf == 0 else None
                return cls(where, required, buf, columns, grid, jumps, cr), header, lines
        grid, jumps = _compact(where, buf, found, len(header), 1 + shift)
        return cls(where, required, buf, columns, grid, jumps), header, lines

    @classmethod
    def _read_quoted(cls, where: str, required, header, done: int, rest: _Rest,
                     rows: int | None):
        """Yield (block, share) of `rest`, the file from line `done` + 1 on, read
        through the csv module `rows` rows at a time (None: all at once); the
        share of the file read is not known (0) until the last block (1).

        The text escapes each byte that is not UTF-8 as a surrogate, and each
        cell goes back to its own bytes, so such a cell is reported where it
        is decoded, as in an unquoted file.  The header is read first when
        `header` is None.  Each wanted cell is laid out followed by a comma,
        so none ends a file line: a quoted cell that ends in CR keeps it.
        No cell's bytes outlive its block.
        """
        reader = csv.reader(io.TextIOWrapper(io.BufferedReader(rest), "utf-8",
                                             "surrogateescape", newline=""))
        if header is None:
            names = [name.encode("utf-8", "surrogateescape") for name in next(reader, [])]
            header = _header_names(f"{where}:{reader.line_num}", names)
        wanted = _wanted_columns(where, header, required)
        # The line of the header (or of the row before the first), then of each row.
        parts, line = [], [done + reader.line_num]
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise SchemaError(f"{where}:{done + reader.line_num}: expected {len(header)} "
                                  f"fields, found {len(row)}")
            parts.extend(row[j].encode("utf-8", "surrogateescape") for j in wanted)
            line.append(done + reader.line_num)
            if len(line) - 1 == rows:
                yield cls._laid_out(where, required, parts, line, len(wanted)), 0.0
                parts, line = [], line[-1:]
        yield cls._laid_out(where, required, parts, line, len(wanted)), 1.0

    @classmethod
    def _laid_out(cls, where: str, required, parts: list, line: list, width: int) -> "_Columns":
        """The block of the wanted cells `parts` of rows on lines line[1:], `width` a row."""
        buf = np.frombuffer(b",".join(parts) + b"," + bytes(_SPARE), np.uint8)
        size = np.fromiter(map(len, parts), np.int64, len(parts))
        ends = np.append(np.full(width, -1), np.cumsum(size + 1) - 1)  # row 0 starts at 0
        grid = ends.astype(np.int32 if buf.size < _INT32_BYTES else np.int64).reshape(len(line), -1)
        return cls(where, required, buf, range(width), grid,  # a jump for every row
                   np.stack([np.arange(-1, len(line) - 1), np.append(0, grid[:-1, -1] + 1), line]))

    def _jump(self, rows) -> np.ndarray:
        """The (row, first byte, line) columns of the last jump at or before each of `rows`."""
        return self.jumps[:, np.searchsorted(self.jumps[0], rows, side="right") - 1]

    def _field(self, name: str, rows=slice(None)):
        """(start, end) of a column's cells in `rows`: a slice, an index array or one row."""
        j, grid, buf = self.column[name], self.grid, self.buf
        end = grid[1:, j][rows]
        if j + 1 == grid.shape[1] and self.cr != 0:  # a cell ending its line ends at a CR before it
            end = end - (self.cr or (buf[end] == _NEWLINE) & (buf[end - 1] == _CR))
        start = (grid[1:, j - 1] if j else grid[:-1, -1])[rows] + 1
        if j == 0 and self.jumps.shape[1] > 1:  # some row jumps
            at = np.arange(*rows.indices(self.rows)) if isinstance(rows, slice) else rows
            jump_row, jump_start, _ = self._jump(at)
            start = np.where(jump_row == at, jump_start, start)
        return start, end

    def line_of(self, rows):
        """The file line of one row or of each of an index array."""
        return _line_at(self.jumps[0], self.jumps[2], rows)

    @property
    def line(self) -> np.ndarray:
        return self.line_of(np.arange(self.rows))

    def loc(self, i: int) -> str:
        return f"{self.where}:{self.line_of(i)}"

    def check_rows(self, checks) -> None:
        """A SchemaError at the first row breaking a rule (see `_first_problem`)."""
        problem = _first_problem(checks)
        if problem is not None:
            raise SchemaError(f"{self.loc(problem[0])}: {problem[1]}")

    def cell(self, name: str, i: int) -> str:
        start, end = self._field(name, i)
        try:
            return self.buf[start:end].tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(self.loc(i), name, exc) from None

    def codes(self, name: str, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(code per row, first row of each code) of a column's `rows` (a slice
        or an index array): rows share a code exactly when their cells hold
        the same bytes (see `_group`)."""
        code, first, _ = _group(_cell_keys(self.buf, *self._field(name, rows)))
        return code, first if isinstance(rows, slice) else rows[first]

    def texts(self, name: str, rows: np.ndarray, bounds=None) -> list[str]:
        """The cells of the given rows as strings, decoded in one batch; a cell
        that is not UTF-8 is a SchemaError at the first such row in `rows`.
        `bounds` gives (start, end) of other bytes to decode in place of each
        cell (a UnicodeDecodeError if one is not UTF-8)."""
        if rows.size == 0:
            return []
        start, end = self._field(name, rows) if bounds is None else bounds
        size = end - start + 1  # each cell and the separator after it
        stop = np.cumsum(size)
        gathered = self.buf[np.arange(stop[-1]) + np.repeat(start - (stop - size), size)]
        gathered[stop - 1] = _NEWLINE
        try:
            texts = gathered.tobytes().decode("utf-8").split("\n")
        except UnicodeDecodeError:  # decoded cell by cell below, to name the row
            texts = []
        if len(texts) == rows.size + 1:  # else a quoted cell holds a line break
            texts.pop()
            return texts
        if bounds is None:
            return [self.cell(name, i) for i in rows.tolist()]
        return [self.buf[s:e].tobytes().decode("utf-8") for s, e in zip(start.tolist(), end.tolist())]

    def labels(self, name: str, parse, dtype, known: _Vocabulary | None = None) -> np.ndarray:
        """Parse each distinct cell once, in order of its first row.  A ValueError
        becomes a SchemaError at the earliest row holding a cell `parse` rejects.

        A cell that spells a label of `known` (a `_Vocabulary` of `parse`)
        takes its value from there; only the other rows are parsed.
        """
        if known is None:
            return self._parsed(name, parse, dtype, slice(None))
        values, spelt = known.match(self.buf, *self._field(name))
        rows = np.flatnonzero(~spelt)
        if rows.size:
            values[rows] = self._parsed(name, parse, dtype, rows)
        return values

    def _parsed(self, name: str, parse, dtype, rows) -> np.ndarray:
        """`parse` of each of `rows` (a slice or an index array), as `labels` reads them."""
        code, first = self.codes(name, rows)
        return self._each(name, parse, dtype, first)[code]

    def _each(self, name: str, parse, dtype, rows: np.ndarray) -> np.ndarray:
        """`parse` of each of `rows`, decoded in one batch (`texts`) and parsed
        in order: a ValueError is a SchemaError at its row."""
        values = []
        for i, raw in zip(rows.tolist(), self.texts(name, rows)):
            try:
                values.append(parse(raw))
            except ValueError as exc:
                raise SchemaError(f"{self.loc(i)}: column {name!r}: {exc}") from None
        return np.fromiter(values, dtype, len(values))

    def numbers(self, names, parse, dtype) -> np.ndarray:
        """`labels` of each named column, as the rows of one array, with no cell
        grouped (for small files of mostly distinct cells): a plain integer
        cell without a minus sign reads its value, which is `parse`'s, and
        the rest are decoded in one batch and parsed in column and row order.
        A failure is found again column by column (`_each`), so every error
        and its row are those of `labels`."""
        start, end = (np.concatenate(bounds) for bounds in zip(*map(self._field, names)))
        values, plain = _parse_plain(self.buf, start, end, False, True)
        values, rows = values.astype(dtype), np.flatnonzero(~plain)
        try:
            texts = self.texts(names[0], rows, (start[rows], end[rows]))
            values[rows] = np.fromiter(map(parse, texts), dtype, rows.size)
        except ValueError:  # a UnicodeDecodeError too
            for k, name in enumerate(names):
                mine = rows[(rows >= k * self.rows) & (rows < (k + 1) * self.rows)]
                values[mine] = self._each(name, parse, dtype, mine - k * self.rows)
        return values.reshape(len(names), self.rows)

    def ids(self, name: str):
        """(code per row, first row of each code, codes in record order, the
        record of each code (`_records`), (start, end) of each code's id).

        Rows share a code exactly when their cells match after `str.strip`.
        Rows are grouped by their bytes (`_group`), and each distinct cell is
        stripped: ASCII whitespace on the bytes, and a cell holding a
        non-ASCII byte as text, so such a cell that is not UTF-8 is a
        SchemaError at its first row.  Only when some cell was stripped are
        the stripped cells grouped again.
        """
        start, end = self._field(name)
        keys = _cell_keys(self.buf, start, end)
        code, first, order = _group(keys)
        keys = keys[:, first]
        start, end = start[first], end[first]
        strip_start, strip_end = _trimmed(self.buf, start, end)
        wide = np.flatnonzero((keys[1:] & _HIGH_BITS).any(axis=0))
        for k, raw in zip(wide.tolist(), self.texts(name, first[wide])):
            text = raw.strip()
            strip_start[k] = start[k] + len(raw[:raw.find(text)].encode("utf-8"))
            strip_end[k] = strip_start[k] + len(text.encode("utf-8"))
        if (strip_start != start).any() or (strip_end != end).any():
            keys = _cell_keys(self.buf, strip_start, strip_end)
            stripped, lead, order = _group(keys)
            code, first, keys = stripped[code], first[lead], keys[:, lead]
            strip_start, strip_end = strip_start[lead], strip_end[lead]
        return code, first, order, _records(keys), (strip_start, strip_end)

    def _parse(self, name: str, point: bool,
               unsigned: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """`_parse_plain` of a column, one block of `_PARSE_ROWS` rows at a time:
        each block's bounds are derived and parsed while they are in cache."""
        values = np.empty(self.rows, np.int64)
        plain = np.empty(self.rows, np.bool_)
        for at in range(0, self.rows, _PARSE_ROWS):
            block = slice(at, at + _PARSE_ROWS)
            values[block], plain[block] = _parse_plain(self.buf, *self._field(name, block), point,
                                                       unsigned)
        return values, plain

    def ints(self, name: str) -> np.ndarray:
        values, plain = self._parse(name, point=False)
        for i in np.flatnonzero(~plain).tolist():
            raw = self.cell(name, i)
            try:
                if _foreign(raw):
                    raise ValueError
                values[i] = int(raw.strip())
            except ValueError:
                raise SchemaError(f"{self.loc(i)}: column {name!r} has non-integer "
                                  f"value {raw!r}") from None
            except OverflowError:
                raise SchemaError(f"{self.loc(i)}: column {name!r} value {raw!r} "
                                  f"is out of range") from None
        return values

    def aprs(self, name: str) -> np.ndarray:
        """APR percentages: a plain cell (`_parse_plain`) without a minus sign
        reads its cents over 100.0, which is exactly `float` of it (both are
        exact doubles, and division rounds correctly); any other cell goes
        through `labels` with `_parse_apr`, so -0 keeps its sign and every
        error its text and row."""
        cents, plain = self._parse(name, point=True, unsigned=True)
        values = cents / 100.0
        rows = np.flatnonzero(~plain)
        if rows.size:
            values[rows] = self._parsed(name, _parse_apr, np.float64, rows)
        return values

    def money(self, name: str, allow_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(amounts, missing): cents, or Decimals when some cell is not whole cents.

        Empty and NA cells are missing (read as 0) where `allow_missing`,
        and a SchemaError otherwise; so are non-numeric and non-finite cells.
        """
        values, plain = self._parse(name, point=True)
        rows = np.flatnonzero(~plain)  # a missing cell is never plain
        missing = np.zeros(self.rows, np.bool_)
        if allow_missing:  # the spare bytes past the file hold start + 1 inside the buffer
            start, end = self._field(name, rows)
            missing[rows] = (end == start) | ((end - start == 2) & (self.buf[start] == _N)
                                              & (self.buf[start + 1] == _A))
            rows = rows[~missing[rows]]
        odd = {}
        for i in rows.tolist():
            raw = self.cell(name, i)
            text = raw.strip()
            if text == "" or text.upper() == "NA":
                if not allow_missing:
                    raise SchemaError(f"{self.loc(i)}: column {name!r} is missing a value")
                missing[i] = True
                continue
            try:
                if _foreign(text):
                    raise InvalidOperation
                amount = Decimal(text)
            except InvalidOperation:
                raise SchemaError(f"{self.loc(i)}: column {name!r} has non-numeric "
                                  f"value {raw!r}") from None
            if not amount.is_finite():
                raise SchemaError(f"{self.loc(i)}: column {name!r} has non-finite "
                                  f"value {raw!r}")
            cents = _cents_of(amount)
            if cents is None:
                odd[i] = amount
            else:
                values[i] = cents
        if odd:
            values = _as_decimals(values)
            values[list(odd)] = list(odd.values())
        return values, missing


def _parse_apr(raw: str) -> float:
    try:
        if _foreign(raw):
            raise ValueError
        apr = float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r}") from None
    if not 0.0 <= apr < float("inf"):
        raise ValueError(f"value {raw!r} is not a finite APR >= 0")
    return apr


def _read_payments(path: str | Path, ids: _IdTable | None = None) -> tuple[_Payments, _IdTable]:
    """The long file folded into payment segments, and `ids` (the loans
    file's ids, or none) with the file's ids added, all numbered by segment
    (-1: an id with no payment rows).

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

    Each block's ids are looked up in `ids` and numbered on there (see
    `_put_block`), so a file whose ids the loans file holds inserts none.
    Those numbers stand for the loans in the per-row keys and the per-loan
    sums until the last block, when segments are numbered by first row.
    """
    ids = _IdTable() if ids is None else ids
    seen, met = np.zeros(len(ids), np.bool_), []  # per id number; the numbers met, by first row
    out = {"key": np.empty(0, np.int32), "month": np.empty(0, np.int32),
           "flags": np.empty(0, np.uint8)}  # a block may widen trust months to int64
    sums = {"first_balance": np.zeros(0, np.int64), "paid": np.zeros(0, np.int64)}
    jump_rows, jump_lines = [], []
    rows = 0
    for cols, share in _Columns.blocks(path, _PAYMENT_COLUMNS, _READ_BYTES):
        end = rows + cols.rows
        if end > out["key"].size:  # room for the rows the share read predicts, and 1/16 more
            size = max(end, int(end / share * 17 / 16) if share else 2 * end)
            for column in out.values():
                column.resize(size, refcheck=False)
        met.append(_put_block(cols, out, slice(rows, end), sums, ids, seen))
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
    met = np.concatenate([np.zeros(0, np.int64), *met])
    segment = np.full(len(ids), -1, np.int32)
    segment[met] = np.arange(met.size)
    ids.number = segment[ids.number]
    for at in range(0, key.size, _PARSE_ROWS):  # in place, a block at a time
        key[at:at + _PARSE_ROWS] = segment[key[at:at + _PARSE_ROWS]]
    months = np.bincount(key, minlength=met.size)
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
        raise SchemaError(f"{path}:{line}: loan {ids.name(k)} trust_month values are not a "
                          f"contiguous 1..{months[k]} sequence")
    return _Payments(start, months, flags if order is None else flags[order],
                     sums["first_balance"][met], sums["paid"][met]), ids


def _put_block(cols: _Columns, out: dict, rows: slice, sums: dict, ids: _IdTable,
               seen: np.ndarray) -> np.ndarray:
    """Fold one block: its rows' keys, trust months and flags into `rows` of
    `out`, each loan's first balance and principal (in file order from its
    first row) into `sums`.  Loan keys are the numbers of `ids`, new ids
    numbered on by first row; returns the numbers of the loans first met
    here (marked in `seen`), by first row.  A Decimal principal sum past
    the exponent limit is a SchemaError naming its loan."""
    code, id_first, order, records, _ = cols.ids("loan_id")
    number = ids.add(records, order)
    key = out["key"][rows] = number[code]
    months = cols.ints("trust_month")
    if out["month"].dtype == np.int32 and months.size and (
            months.min() < _INT32.min or months.max() > _INT32.max):
        out["month"] = out["month"].astype(np.int64)
    out["month"][rows] = months
    if len(ids) > seen.size:  # room for the ids new to the table
        seen.resize(max(len(ids), 2 * seen.size), refcheck=False)
    for column in sums.values():
        if column.size < seen.size:
            column.resize(seen.size, refcheck=False)
    balance, missing = cols.money("balance", allow_missing=True)
    flags = out["flags"][rows]
    flags[:] = np.where(missing, _NO_BALANCE, (balance == 0) * _ZERO_BALANCE)
    first = np.flatnonzero(months == 1)
    first_balance = balance[first]
    del balance, missing
    flags[cols.money("payment")[0] == 0] |= _ZERO_PAYMENT
    principal = cols.money("principal")[0]
    if object in (first_balance.dtype, principal.dtype):  # the sums are Decimals from here on
        sums.update({name: _as_decimals(column) for name, column in sums.items()})
    if sums["paid"].dtype == object:
        first_balance, principal = _as_decimals(first_balance), _as_decimals(principal)
    sums["first_balance"][key[first]] = first_balance
    new = ~seen[number]
    seen[number[new]] = True
    lead = id_first[new]  # each new loan's first row
    later = np.delete(np.arange(key.size), lead)
    sums["paid"][key[lead]] = principal[lead]  # a Decimal sum starts unrounded
    with localcontext() as context:  # a Decimal sum past the exponent limit reads Infinity
        context.clear_flags()
        context.traps[Overflow] = False
        np.add.at(sums["paid"], key[later], principal[later])
    if context.flags[Overflow]:
        i = next(i for i in later.tolist() if not sums["paid"][key[i]].is_finite())
        raise SchemaError(f"{cols.where}: loan {cols.cell('loan_id', i)!r}: column 'principal' "
                          f"sums past the decimal exponent limit")
    return number[new]


def _first_gap(key: np.ndarray, month: np.ndarray, start: np.ndarray) -> int | None:
    """The first row, `_PARSE_ROWS` rows at a time, that lies before its key's
    segment (segment k starts at row start[k]) or whose month is not its
    1-based place there; None if none.

    With no such row, the rows of keys k and up lie at or past start[k] and
    are just as many as those places, so every key's rows fill its segment,
    in months 1, 2, ...: one pass proves both order and contiguity.
    """
    for at in range(0, key.size, _PARSE_ROWS):
        block = slice(at, at + _PARSE_ROWS)
        keys = key[block]
        place = np.arange(at + 1, at + 1 + keys.size) - start[keys]
        wrong = np.flatnonzero((month[block] != place) | (place < 1))
        if wrong.size:
            return at + int(wrong[0])
    return None


def load_loan_data(loans_path: str | Path, payments_path: str | Path) -> LoanTape:
    """Read the static and long CSVs into a LoanTape."""
    cols = _Columns.read(loans_path, _LOAN_FIELDS)
    code, first, order, records, bounds = cols.ids("loan_id")
    ids = _IdTable()
    ids.add(records, order)
    loan_id = np.array(cols.texts("loan_id", first, bounds), dtype=object)[code]
    owner = first[code]  # the first row with the row's id
    original_amount, _ = cols.money("original_amount")
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
        recovered_amount=cols.money("recovered_amount")[0],
        where=cols.where,
        line=cols.line,
    )
    del cols  # the loans file's buffer is not held while the payments file is read
    payments, ids = _read_payments(payments_path, ids)
    segment = ids.find(records, order)[code]
    return LoanTape(**columns, segment=segment, payments=payments)


# Labels by code; index -1 (no band) and 0 (censored) give "".
_BAND_LABEL_OF = np.array([b.label for b in RiskBand] + [""], dtype=object)
_CAUSE_LABEL_OF = np.array(["", Cause.DEFAULT.label, Cause.PREPAY.label], dtype=object)


_QUOTE_IF = (",", '"', "\r", "\n")  # a cell holding one of these is quoted


def _csv_cells(cells, lone: bool) -> list:
    """Cells as `csv.writer` writes them in the excel dialect: None as '',
    another non-text cell as its str, and a cell holding a comma, a quote,
    CR or LF (or, when it is its row's only cell (`lone`), an empty one)
    quoted with its quotes doubled.  One join tests a whole column."""
    cells = list(cells)
    try:
        text = "".join(cells)
    except TypeError:
        cells = ["" if cell is None else str(cell) for cell in cells]
        text = "".join(cells)
    if not any(c in text for c in _QUOTE_IF) and not (lone and "" in cells):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(c in cell for c in _QUOTE_IF)
            or lone and not cell else cell for cell in cells]


def _write_csv(path: str | Path, header, columns) -> None:
    """Write a header row and the rows of `columns` (one sequence of cells
    per field) with the bytes of `csv.writer` in the excel dialect: cells
    joined by ',' (see `_csv_cells`), each row ended by CRLF, UTF-8."""
    lone = len(header) == 1
    rows = zip(*(_csv_cells(column, lone) for column in columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(_csv_cells(header, lone)), *map(",".join, rows), ""]))


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
