"""Loan-level CSV ingestion: band assignment, filtering, outcome detection.

The normalized input is two CSV files.  The static file carries one row per
loan (origination fields plus the total recovered amount); the long file
carries one row per loan-month with balance, payment, and principal.  The
pipeline classifies each loan into an APR risk band, applies the eligibility
filter, determines the outcome from the payment vectors, and emits one
observation per retained loan in loan-age coordinates.

Ingest is columnar.  Both files load into a `LoanTape`, the one form in
which loans are held: column arrays whose payment rows are sorted by (loan,
trust month), so each loan's history is one contiguous segment.  The
eligibility, integrity and outcome rules run once over all segments as
array operations, and the result is an `ObservationTable` of parallel
arrays, the one form in which observations pass between layers.

Monetary fields are exact: a plain decimal cell with at most two fraction
digits is read straight into integer cents, any other cell is parsed with
`Decimal`, and when some payment cell is not a whole number of cents the
tape's payment columns hold `Decimal` objects instead of cents.  Outcome
classification (zero-payment runs, principal-vs-balance comparisons) thus
never depends on binary float representation.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from enum import Enum
from itertools import repeat
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
        return _BAND_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "RiskBand":
        key = label.strip().lower().replace("-", "_").replace(" ", "_")
        for band, name in _BAND_LABELS.items():
            if key == name:
                return band
        raise ValueError(f"unknown risk band: {label!r}")


_BAND_LABELS = {
    RiskBand.SUPER_PRIME: "super_prime",
    RiskBand.PRIME: "prime",
    RiskBand.NEAR_PRIME: "near_prime",
    RiskBand.SUBPRIME: "subprime",
    RiskBand.DEEP_SUBPRIME: "deep_subprime",
}

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
    """The amount in whole cents, or None when cents cannot hold it exactly."""
    cents = value.scaleb(2)
    if cents != cents.to_integral_value() or abs(cents) >= _CENTS_LIMIT:
        return None
    return int(cents)


def _as_decimals(column: np.ndarray) -> np.ndarray:
    """A money column as Decimal objects in currency units."""
    if column.dtype == object:
        return column
    out = np.empty(column.size, dtype=object)
    out[:] = [Decimal(c).scaleb(-2) for c in column.tolist()]
    return out


# ---------------------------------------------------------------------------
# Payment segments and the outcome rules


@dataclass(frozen=True)
class _Payments:
    """Payment rows grouped by loan: segment k is rows start[k] : start[k] + months[k].

    Segments are contiguous, in increasing order, and cover every row; within
    a segment rows run through trust months 1..months[k].  Missing balances
    read as zero and are flagged in `balance_missing`.  The three money
    columns share one representation (all cents or all Decimal).
    """

    start: np.ndarray
    months: np.ndarray
    balance: np.ndarray
    balance_missing: np.ndarray
    payment: np.ndarray
    principal: np.ndarray

    def _paid(self, principal) -> np.ndarray:
        """Total principal paid per segment."""
        if self.start.size == 0:
            return principal[:0]
        return np.add.reduceat(principal, self.start)

    def integrity_ok(self) -> np.ndarray:
        """Per segment: whether the outcome can be determined.

        It cannot when the first balance is missing, or when the principal
        paid falls short of the first balance while the last balance is
        missing.
        """
        first = self.start
        last = self.start + self.months - 1
        short = self._paid(self.principal) < self.balance[first]
        return ~self.balance_missing[first] & ~(short & self.balance_missing[last])

    def outcomes(self, pad: Decimal) -> tuple[np.ndarray, np.ndarray]:
        """Per segment: (outcome code, 1-based trust month of the event).

        The principal test runs first: if total principal plus the pad covers
        the first-month balance, the loan is repaid at the first zero-balance
        month (falling back to the last month when no balance ever reads
        zero).  Otherwise three consecutive zero payments mark a default at
        the first of the three.  Anything else is censored at the last trust
        month.  A segment whose first balance is missing has no outcome;
        callers drop such loans first (see `integrity_ok`).
        """
        balance, principal = self.balance, self.principal
        pad = _decimal(pad)
        if balance.dtype != object:
            pad_cents = _cents_of(pad)
            if pad_cents is None:
                balance, principal = _as_decimals(balance), _as_decimals(principal)
            else:
                pad = pad_cents
        n, start = balance.size, self.start
        if start.size == 0:
            return np.zeros(0, np.int8), np.zeros(0, np.int64)
        row = np.arange(n)
        end = (start + self.months)[np.repeat(np.arange(start.size), self.months)]
        zero_balance = ~self.balance_missing & (balance == 0)
        first_zero = np.minimum.reduceat(np.where(zero_balance, row, n), start)
        zero = self.payment == 0
        run = np.zeros(n, np.bool_)
        run[:-2] = zero[:-2] & zero[1:-1] & zero[2:]
        run &= row + 3 <= end  # all three months inside the loan's own history
        first_run = np.minimum.reduceat(np.where(run, row, n), start)
        repaid = self._paid(principal) + pad >= balance[start]
        defaulted = ~repaid & (first_run < n)
        code = np.where(repaid, Cause.PREPAY.value,
                        np.where(defaulted, Cause.DEFAULT.value, _CENSORED)).astype(np.int8)
        month = np.where(repaid & (first_zero < n), first_zero - start + 1,
                         np.where(defaulted, first_run - start + 1, self.months))
        return code, month


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
    money columns (int64 cents or Decimal objects).
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

    def __len__(self) -> int:
        return self.loan_id.size

    def take(self, index) -> "LoanTape":
        """The loans selected by a boolean mask or an index array."""
        return replace(self, segment=self.segment[index],
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
        raise SchemaError(f"loan {kept.loan_id[np.argmax(orphan)]} has no payment history")
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

_COMMA, _NEWLINE, _CR, _MINUS, _PLUS, _POINT, _ZERO, _NINE, _N, _A = b",\n\r-+.09NA"
# A plain cell has at most this many characters: sign, 12 digits, point.
_PLAIN_WIDTH = 14
_PLAIN_DIGITS = 12


def _parse_bool(raw: str) -> bool:
    key = raw.strip().lower()
    if key in _TRUE:
        return True
    if key in _FALSE:
        return False
    raise ValueError(f"non-boolean value {raw!r}")


def _parse_float(raw: str) -> float:
    """A number cell; an empty cell reads NaN."""
    try:
        return float(raw) if raw.strip() else np.nan
    except ValueError:
        raise ValueError(f"{raw!r} is not a valid number") from None


def _parse_plain(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                 point: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read plain numeric cells straight from the bytes, all cells at once.

    A plain cell is an optional sign and 1..12 digits; with `point`, at most
    one '.' may sit among them with at most two digits after it, and the
    value is returned in hundredths (cents).  Returns (values, plain); cells
    that are not plain read 0 and are left to the caller.
    """
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
    for k in range(int(min(length.max(), _PLAIN_WIDTH))):
        inside = k < length
        c = buf[np.minimum(start + k, last)]
        digit = inside & (c >= _ZERO) & (c <= _NINE)
        value = np.where(digit, value * 10 + (c.astype(np.int64) - _ZERO), value)
        digits += digit
        after_point += digit & (after_point >= 0)
        dot = inside & (c == _POINT)
        plain &= ~(dot & ((after_point >= 0) | (not point)))
        after_point[dot] = 0
        sign = inside & ((c == _MINUS) | (c == _PLUS)) if k == 0 else False
        negative |= sign & (c == _MINUS)
        plain &= ~inside | digit | dot | sign
    plain &= (length <= _PLAIN_WIDTH) & (digits >= 1) & (digits <= _PLAIN_DIGITS)
    if point:
        plain &= after_point <= 2
        value *= 10 ** np.clip(2 - after_point, 0, 2)
    value = np.where(plain, np.where(negative, -value, value), 0)
    return value, plain


# A read file is followed by this many spare bytes: room for a closing
# newline, and for an 8-byte word read at any offset inside the file.
_SPARE = 9
# _BYTE_MASK[b] keeps the low b bytes of a little-endian word.
_BYTE_MASK = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _read_padded(path: str | Path) -> tuple[bytearray, int]:
    """(the file's bytes followed by _SPARE NUL bytes, the file's size), read once."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + _SPARE)
        size = fh.readinto(data)
        if size == len(data):  # not a regular file, or it grew: read the rest
            data += fh.read()
            size = len(data)
            data += bytes(_SPARE)
    return data, size


def _changes(keys: np.ndarray) -> np.ndarray:
    """Per column of `keys`: whether it differs from the column before (the first: True)."""
    change = np.empty(keys.shape[1], np.bool_)
    change[0] = True
    (keys[:, 1:] != keys[:, :-1]).any(axis=0, out=change[1:])
    return change


def _wanted_columns(where: str, header: list, required) -> list[int]:
    """The header position of each required column (a repeated name: the last)."""
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{where}: missing required column(s) {', '.join(missing)}")
    position = {name: j for j, name in enumerate(header)}
    return [position[name] for name in required]


def _check_widths(where: str, width: int, found, lines) -> None:
    """Rows may carry extra trailing fields (ignored), never fewer than the header."""
    short = np.flatnonzero(np.asarray(found) < width)
    if short.size:
        k = short[0]
        raise SchemaError(f"{where}:{lines[k]}: expected {width} fields, found {found[k]}")


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


class _Columns:
    """The cells of a CSV file's required columns, as byte offsets into one buffer.

    Cell k of row i is buf[cells[0, k, i] : cells[1, k, i]]; the byte after
    it is a separator, and the buffer ends in `_SPARE` bytes past the file.
    Numbers parse straight from the bytes, a whole column at once.  Text
    columns go through `codes`, which groups rows by their cell's bytes
    without a Python object per row, so each distinct cell is decoded and
    parsed once.  Only files holding a quote go through `csv.reader`: on a
    470k-row payment file its per-cell strings took over twice the time and
    memory of the byte scan (see BENCH_columnar_ingest.json).
    """

    def __init__(self, where: str, required, buf: np.ndarray, cells: np.ndarray,
                 line: np.ndarray) -> None:
        self.where = where
        self.index = {name: k for k, name in enumerate(required)}
        self.buf, self.cells, self.line = buf, cells, line
        self.rows = line.size

    @classmethod
    def read(cls, path: str | Path, required) -> "_Columns":
        where = str(path)
        data, size = _read_padded(path)
        if b'"' in data:  # bytes that are not UTF-8 reach the buffer (see _read_quoted)
            return cls._read_quoted(where, data[:size].decode("utf-8", "surrogateescape"),
                                    required)
        if data.count(b"\r") != data.count(b"\r\n"):  # a bare CR ends a line too
            data = data[:size].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            size = len(data)
            data += bytes(_SPARE)
        if size == 0 or data[size - 1] != _NEWLINE:
            data[size] = _NEWLINE
            size += 1
        header = _header_names(f"{where}:1", data[:data.index(b"\n")].rstrip(b"\r").split(b","))
        wanted = _wanted_columns(where, header, required)
        buf = np.frombuffer(data, np.uint8)  # the spare bytes are NUL: no separator
        ends = np.flatnonzero(buf == _NEWLINE)
        begins = ends[:-1] + 1
        ends = ends[1:] - (buf[ends[1:] - 1] == _CR)  # a CRLF line ends at its CR
        lines = np.flatnonzero(ends > begins)  # blank lines are skipped, as csv readers do
        begins, ends = begins[lines], ends[lines]
        commas = np.append(np.flatnonzero(buf == _COMMA), size)
        first = np.searchsorted(commas, begins)  # the row's first comma
        found = np.searchsorted(commas, ends) - first + 1
        _check_widths(where, len(header), found, lines + 2)
        cells = np.empty((2, len(wanted), lines.size), np.int64)
        for k, j in enumerate(wanted):
            cells[0, k] = begins if j == 0 else commas[first + j - 1] + 1
            cells[1, k] = np.where(j + 1 < found, commas[first + j], ends)
        return cls(where, required, buf, cells, lines + 2)

    @classmethod
    def _read_quoted(cls, where: str, text: str, required) -> "_Columns":
        """Files with quoted fields go through the csv module.

        `text` escapes each byte that is not UTF-8 as a surrogate, and each
        cell goes back to its own bytes, so such a cell is reported where
        it is decoded, as in an unquoted file.
        """
        reader = csv.reader(io.StringIO(text, newline=""))
        header = [name.encode("utf-8", "surrogateescape") for name in next(reader, [])]
        header = _header_names(f"{where}:{reader.line_num}", header)
        wanted = _wanted_columns(where, header, required)
        parts, lines = [], []
        for row in reader:
            if not row:
                continue
            _check_widths(where, len(header), [len(row)], [reader.line_num])
            parts.extend(row[j].encode("utf-8", "surrogateescape") for j in wanted)
            lines.append(reader.line_num)
        # Laid out like an unquoted file: every cell is followed by one separator.
        size = np.fromiter(map(len, parts), np.int64, len(parts))
        ends = (np.cumsum(size + 1) - 1).reshape(len(lines), len(wanted)).T
        cells = np.stack([ends - size.reshape(len(lines), len(wanted)).T, ends])
        buf = np.frombuffer(b"\n".join(parts) + b"\n" + bytes(_SPARE), np.uint8)
        return cls(where, required, buf, cells, np.array(lines, dtype=np.int64))

    def _field(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        k = self.index[name]
        return self.cells[0, k], self.cells[1, k]

    def loc(self, i: int) -> str:
        return f"{self.where}:{self.line[i]}"

    def check_rows(self, checks) -> None:
        """A SchemaError at the first row breaking a rule (see `_first_problem`)."""
        problem = _first_problem(checks)
        if problem is not None:
            raise SchemaError(f"{self.loc(problem[0])}: {problem[1]}")

    def cell(self, name: str, i: int) -> str:
        start, end = self._field(name)
        try:
            return self.buf[start[i]:end[i]].tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(self.loc(i), name, exc) from None

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(code per row, first row of each code) of a column.

        Rows share a code exactly when their cells hold the same bytes; codes
        count up in order of first row.  A cell's key is its length and its
        bytes, read eight at a time through an unaligned little-endian word
        view with the bytes past the cell masked off.  Keys are exact, so no
        hash and no collision check are needed.  Runs of equal adjacent rows
        collapse to their first row before the rest are sorted.
        """
        start, end = self._field(name)
        if self.rows == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        length = end - start
        offset = np.arange(0, int(length.max()), 8)[:, None]  # of each word in its cell
        words = np.ndarray((self.buf.size - 7,), "<u8", self.buf, strides=(1,))
        keys = np.empty((offset.size + 1, self.rows), np.uint64)
        keys[0] = length
        keys[1:] = words[np.minimum(start + offset, words.size - 1)]  # past the cell: masked
        keys[1:] &= _BYTE_MASK.take(length - offset, mode="clip")
        head = _changes(keys)
        runs = np.flatnonzero(head)
        keys = keys[:, runs]
        order = np.lexsort(keys)  # stable: a group's earliest run sorts first
        new = _changes(keys[:, order])
        lead = order[new]  # the earliest run of each group
        is_lead = np.zeros(runs.size, np.bool_)
        is_lead[lead] = True
        code_of_group = (np.cumsum(is_lead) - 1)[lead]  # numbered by first row
        run_code = np.empty(runs.size, np.int64)
        run_code[order] = code_of_group[np.cumsum(new) - 1]
        return np.repeat(run_code, np.diff(np.append(runs, self.rows))), runs[is_lead]

    def texts(self, name: str, rows: np.ndarray) -> list[str]:
        """The cells of the given rows as strings, decoded in one batch.

        A cell that is not UTF-8 is a SchemaError at the first such row in
        `rows`.
        """
        if rows.size == 0:
            return []
        start, end = (column[rows] for column in self._field(name))
        size = end - start + 1  # each cell and the separator after it
        stop = np.cumsum(size)
        gathered = self.buf[np.arange(stop[-1]) + np.repeat(start - (stop - size), size)]
        gathered[stop - 1] = _NEWLINE
        try:
            texts = gathered.tobytes().decode("utf-8").split("\n")
        except UnicodeDecodeError:  # decoded cell by cell below, to name the row
            texts = []
        if len(texts) != rows.size + 1:  # or a quoted cell holds a line break
            return [self.cell(name, i) for i in rows.tolist()]
        texts.pop()
        return texts

    def labels(self, name: str, parse, dtype) -> np.ndarray:
        """Parse each distinct cell once, in order of its first row.

        A ValueError becomes a SchemaError located at the cell's first row,
        which is the earliest row holding a cell `parse` rejects.
        """
        code, first = self.codes(name)
        values = []
        for i, raw in zip(first.tolist(), self.texts(name, first)):
            try:
                values.append(parse(raw))
            except ValueError as exc:
                raise SchemaError(f"{self.loc(i)}: column {name!r}: {exc}") from None
        return np.fromiter(values, dtype, len(values))[code]

    def ids(self, name: str) -> tuple[np.ndarray, dict[str, int]]:
        """(key per row, {stripped cell: key}): keys count up by first row.

        Cells that differ only in surrounding space share a key.
        """
        code, first = self.codes(name)
        key_of: dict[str, int] = {}
        merged = np.fromiter((key_of.setdefault(raw.strip(), len(key_of))
                              for raw in self.texts(name, first)), np.int64, first.size)
        return merged[code], key_of

    def ints(self, name: str) -> np.ndarray:
        values, plain = _parse_plain(self.buf, *self._field(name), point=False)
        for i in np.flatnonzero(~plain).tolist():
            raw = self.cell(name, i)
            try:
                values[i] = int(raw.strip())
            except ValueError:
                raise SchemaError(f"{self.loc(i)}: column {name!r} has non-integer "
                                  f"value {raw!r}") from None
            except OverflowError:
                raise SchemaError(f"{self.loc(i)}: column {name!r} value {raw!r} "
                                  f"is out of range") from None
        return values

    def money(self, name: str, allow_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(amounts, missing): cents, or Decimals when some cell is not whole cents.

        Empty and NA cells are missing (read as 0) where `allow_missing`,
        and a SchemaError otherwise; so are non-numeric and non-finite cells.
        """
        start, end = self._field(name)
        values, plain = _parse_plain(self.buf, start, end, point=True)
        missing = np.zeros(self.rows, np.bool_)
        if allow_missing:
            last = max(self.buf.size - 1, 0)
            missing = (end == start) | ((end - start == 2)
                                        & (self.buf[np.minimum(start, last)] == _N)
                                        & (self.buf[np.minimum(start + 1, last)] == _A))
        odd = {}
        for i in np.flatnonzero(~plain & ~missing).tolist():
            raw = self.cell(name, i)
            text = raw.strip()
            if text == "" or text.upper() == "NA":
                if not allow_missing:
                    raise SchemaError(f"{self.loc(i)}: column {name!r} is missing a value")
                missing[i] = True
                continue
            try:
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
            for i, amount in odd.items():
                values[i] = amount
        return values, missing


def _parse_apr(raw: str) -> float:
    try:
        apr = float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r}") from None
    if not 0.0 <= apr < float("inf"):
        raise ValueError(f"value {raw!r} is not a finite APR >= 0")
    return apr


def _read_payments(path: str | Path) -> tuple[_Payments, dict[str, int]]:
    """The long file as payment segments, plus the segment of each loan_id."""
    cols = _Columns.read(path, _PAYMENT_COLUMNS)
    code, segment_of = cols.ids("loan_id")
    month = cols.ints("trust_month")
    balance, missing = cols.money("balance", allow_missing=True)
    payment, _ = cols.money("payment")
    principal, _ = cols.money("principal")
    in_order = (code[1:] > code[:-1]) | ((code[1:] == code[:-1]) & (month[1:] > month[:-1]))
    if not in_order.all():
        order = np.lexsort((month, code))
        code, month, balance, missing, payment, principal = (
            a[order] for a in (code, month, balance, missing, payment, principal))
    months = np.bincount(code, minlength=len(segment_of))
    if any(col.dtype == object for col in (balance, payment, principal)):
        balance, payment, principal = map(_as_decimals, (balance, payment, principal))
    payments = _Payments(np.cumsum(months) - months, months, balance, missing, payment, principal)
    expected = np.arange(code.size) - payments.start[code] + 1
    wrong = month != expected
    if wrong.any():
        k = int(code[np.argmax(wrong)])
        loan_id = next(key for key, seg in segment_of.items() if seg == k)
        raise SchemaError(f"{cols.where}: loan {loan_id} trust_month values are not "
                          f"a contiguous 1..{months[k]} sequence")
    return payments, segment_of


def load_loan_data(loans_path: str | Path, payments_path: str | Path) -> LoanTape:
    """Read the static and long CSVs into a LoanTape."""
    cols = _Columns.read(loans_path, _LOAN_FIELDS)
    key, key_of = cols.ids("loan_id")
    loan_id = np.array(list(key_of), dtype=object)[key]
    owner = np.unique(key, return_index=True)[1][key]  # the first row with the row's id
    original_amount, _ = cols.money("original_amount")
    loan_age_at_entry = cols.ints("loan_age_at_entry")
    cols.check_rows(((owner < np.arange(cols.rows),
                      lambda i: f"loan_id {loan_id[i]!r} repeats line {cols.line[owner[i]]}"),
                     (original_amount <= 0, "column 'original_amount' must be positive"),
                     (loan_age_at_entry < 0, "column 'loan_age_at_entry' must be >= 0")))
    columns = dict(
        loan_id=loan_id,
        apr_pct=cols.labels("apr_pct", _parse_apr, np.float64),
        original_amount=original_amount,
        original_term=cols.ints("original_term"),
        loan_age_at_entry=loan_age_at_entry,
        has_coborrower=cols.labels("has_coborrower", _parse_bool, np.bool_),
        income_verification=cols.labels("income_verification", str.strip, object),
        subvention=cols.labels("subvention", _parse_bool, np.bool_),
        vehicle_condition=cols.labels("vehicle_condition", str.strip, object),
        initial_status=cols.labels("initial_status", str.strip, object),
        recovered_amount=cols.money("recovered_amount")[0],
    )
    payments, segment_of = _read_payments(payments_path)
    segment = np.fromiter(map(segment_of.get, loan_id, repeat(-1)), np.int64, loan_id.size)
    return LoanTape(**columns, segment=segment, payments=payments)


# Labels by code; index -1 (no band) and 0 (censored) give "".
_BAND_LABEL_OF = np.array([b.label for b in RiskBand] + [""], dtype=object)
_CAUSE_LABEL_OF = np.array(["", Cause.DEFAULT.label, Cause.PREPAY.label], dtype=object)


def write_observations_csv(path: str | Path, table: ObservationTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_OBS_COLUMNS)
        writer.writerows(zip(
            table.loan_id.tolist(), _BAND_LABEL_OF[table.band].tolist(),
            table.entry_age.tolist(), table.exit_age.tolist(),
            table.event.astype(np.int8).tolist(), _CAUSE_LABEL_OF[table.cause].tolist(),
        ))


def _band_code(raw: str) -> int:
    return RiskBand.from_label(raw).value if raw.strip() else -1


def _cause_code(raw: str) -> int:
    return Cause.from_label(raw).value if raw.strip() else _CENSORED


def read_observations_csv(path: str | Path, loan_ids: bool = True) -> ObservationTable:
    """Read an observation table.  With `loan_ids` false the loan_id column
    must still be present, but its cells are not read: every id is empty."""
    cols = _Columns.read(path, _OBS_COLUMNS)
    columns = dict(
        event=cols.labels("event", _parse_bool, np.bool_),
        cause=cols.labels("cause", _cause_code, np.int8),
        band=cols.labels("band", _band_code, np.int8),
        entry_age=cols.ints("entry_age"),
        exit_age=cols.ints("exit_age"),
        loan_id=(cols.labels("loan_id", str.strip, object) if loan_ids
                 else np.full(cols.rows, "", dtype=object)),
    )
    cols.check_rows(_row_checks(columns["entry_age"], columns["exit_age"],
                                columns["event"], columns["cause"]))
    return ObservationTable(**columns)
