"""The CSV layer: files read as byte offsets, cells parsed in array passes,
and one writer with the bytes of `csv.writer`.

A file is read whole or in blocks of lines into one buffer and a grid of
separator offsets (`_Columns`); a file holding a quote is read through the
csv module from its first block holding one.  Cells are read on demand, a
column at a time: integers and money straight from their bytes, labels from
a table of known cells (`_Vocabulary`), ids grouped by their bytes, and any
other cell decoded in one batch and parsed once per distinct cell.  Every
error names its file line.  The loan-tape rules that use this layer are in
`ingest`.
"""
from __future__ import annotations

import csv
import io
import os
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .errors import SchemaError


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


# Whole-cent amounts at or above this many cents are kept as Decimal, so the
# sum of a payment history can never overflow int64.
_CENTS_LIMIT = 10**12


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


_TRUE = {"true", "1", "yes", "y", "t"}
_FALSE = {"false", "0", "no", "n", "f"}

_COMMA, _NEWLINE, _CR, _MINUS, _PLUS, _POINT, _ZERO, _N, _A = b",\n\r-+.0NA"
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


class _Rejected(ValueError):
    """A cell's error worded to follow its column's name ("column 'x' has ..."),
    where any other parse error follows "column 'x': "."""


def _parse_int(raw: str) -> int:
    """An int64 cell."""
    try:
        if _foreign(raw):
            raise ValueError
        value = int(raw.strip())
    except ValueError:
        raise _Rejected(f"has non-integer value {raw!r}") from None
    if not -2**63 <= value < 2**63:
        raise _Rejected(f"value {raw!r} is out of range")
    return value


def _parse_money(raw: str, allow_missing: bool) -> Decimal | None:
    """A finite amount, exactly; an empty or NA cell is None where `allow_missing`."""
    text = raw.strip()
    if text == "" or text.upper() == "NA":
        if not allow_missing:
            raise _Rejected("is missing a value")
        return None
    try:
        if _foreign(text):
            raise InvalidOperation
        amount = Decimal(text)
    except InvalidOperation:
        raise _Rejected(f"has non-numeric value {raw!r}") from None
    if not amount.is_finite():
        raise _Rejected(f"has non-finite value {raw!r}")
    return amount


# A read file is followed by this many spare bytes: room for a closing
# newline, and for an 8-byte word read at any offset inside the file.
_SPARE = 9
# Block sizes of the separator scan (file bytes) and of the numeric parse
# and the separator compaction (cells or separators): each block's
# temporaries fit in a core's L2 cache, so no pass makes a temporary as long
# as the file or the column.
_SCAN_BYTES = 1 << 18
_PARSE_ROWS = 1 << 15
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


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code per cell, first cell of each code) of cells by their keys
    (`_cell_keys`, or several cells' keys side by side: `_stacked`).

    Cells share a code exactly when their keys are equal; codes count up in
    order of first cell.  Runs of equal adjacent cells collapse to their
    first cell before the rest are sorted.
    """
    cells = keys.shape[1]
    if cells == 0:
        return (np.zeros(0, np.int64),) * 2
    runs = np.flatnonzero(_changes(keys))
    if runs.size < cells:
        keys = keys[:, runs]
    order = np.lexsort(keys[::-1])  # stable: a group's earliest run sorts first
    new = _changes(keys[:, order])
    lead = order[new]  # the earliest run of each group
    is_lead = np.zeros(runs.size, np.bool_)
    is_lead[lead] = True
    code_of_group = (np.cumsum(is_lead) - 1)[lead]  # numbered by first cell
    run_code = np.empty(runs.size, np.int64)
    run_code[order] = code_of_group[np.cumsum(new) - 1]
    return np.repeat(run_code, np.diff(np.append(runs, cells))), runs[is_lead]


def _stacked(keys: list) -> np.ndarray:
    """Key matrices (`_cell_keys`) side by side, the shorter ones padded with
    zero words, so the keys of equal cells stay equal."""
    height = max(k.shape[0] for k in keys)
    return np.concatenate([np.pad(k, ((0, height - k.shape[0]), (0, 0))) for k in keys], axis=1)


def _id_text(key: np.ndarray) -> str:
    """The cell whose key (`_cell_keys`, a column) is `key`."""
    return key[1:].astype("<u8").tobytes()[:int(key[0])].decode("utf-8")


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
        reader = csv.reader(io.TextIOWrapper(io.BufferedReader(rest), "utf-8", "surrogateescape",
                                             newline=""))
        try:  # a cell past the csv module's field limit is reported at its line
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
                    raise SchemaError(f"{where}:{done + reader.line_num}: expected "
                                      f"{len(header)} fields, found {len(row)}")
                parts.extend(row[j].encode("utf-8", "surrogateescape") for j in wanted)
                line.append(done + reader.line_num)
                if len(line) - 1 == rows:
                    yield cls._laid_out(where, required, parts, line, len(wanted)), 0.0
                    parts, line = [], line[-1:]
        except csv.Error as exc:
            raise SchemaError(f"{where}:{done + reader.line_num}: {exc}") from None
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
        code, first = _group(_cell_keys(self.buf, *self._field(name, rows)))
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
        """Parse each distinct cell once, in order of its first row (`_fill`):
        the first cell that is not UTF-8 or that `parse` rejects is a
        SchemaError at its row.  A cell that spells a label of `known` (a
        `_Vocabulary` of `parse`) takes its value from there; only the other
        rows are parsed."""
        if known is None:
            return self._fill(name, np.empty(self.rows, dtype), np.arange(self.rows), parse)
        values, spelt = known.match(self.buf, *self._field(name))
        return self._fill(name, values, np.flatnonzero(~spelt), parse)

    def numbers(self, names, parse, dtype) -> np.ndarray:
        """`labels` of each named column, as the rows of one array, with no cell
        grouped (for small files of mostly distinct cells): a plain integer
        cell without a minus sign reads its value, which is `parse`'s, and
        the rest go through `_parse_cells` in column and row order."""
        start, end = (np.concatenate(bounds) for bounds in zip(*map(self._field, names)))
        values, plain = _parse_plain(self.buf, start, end, False, True)
        values, rows = values.astype(dtype), np.flatnonzero(~plain)
        values[rows] = self._parse_cells(names, rows, parse, dtype, start[rows], end[rows])
        return values.reshape(len(names), self.rows)

    def _parse_cells(self, names, cells: np.ndarray, parse, dtype, start, end) -> np.ndarray:
        """`parse` of each of `cells`, bytes start[k]:end[k], decoded in one
        batch (`texts`) and parsed in order: cell r + k * rows is row r of
        column names[k].  The first cell that is not UTF-8 or that `parse`
        rejects (a ValueError) is a SchemaError at its row."""
        try:
            return np.fromiter(map(parse, self.texts(names[0], cells, (start, end))), dtype,
                               cells.size)
        except ValueError:  # a UnicodeDecodeError too: found again cell by cell
            pass
        values = []
        for i, s, e in zip(cells.tolist(), start.tolist(), end.tolist()):
            try:
                values.append(parse(self.buf[s:e].tobytes().decode("utf-8")))
            except ValueError as exc:
                loc, name = self.loc(i % self.rows), names[i // self.rows]
                if isinstance(exc, UnicodeDecodeError):
                    raise _not_utf8(loc, name, exc) from None
                said = " " if isinstance(exc, _Rejected) else ": "
                raise SchemaError(f"{loc}: column {name!r}{said}{exc}") from None
        return np.fromiter(values, dtype, len(values))

    def _distinct(self, name: str, rows: np.ndarray, parse, dtype,
                  bounds=None) -> tuple[np.ndarray, np.ndarray]:
        """(value of each distinct cell, code per row) of a column's `rows`:
        rows are grouped by their bytes (`_group`, with (start, end) `bounds`
        where given) and the first row of each code goes through
        `_parse_cells`, so the first bad cell is found in row order."""
        start, end = self._field(name, rows) if bounds is None else bounds
        code, first = _group(_cell_keys(self.buf, start, end))
        return self._parse_cells((name,), rows[first], parse, dtype, start[first], end[first]), code

    def _fill(self, name: str, values: np.ndarray, rows: np.ndarray, parse) -> np.ndarray:
        """`values` with each of `rows` set to `parse` of its cell (`_distinct`)."""
        if rows.size:
            distinct, code = self._distinct(name, rows, parse, values.dtype)
            values[rows] = distinct[code]
        return values

    def ids(self, name: str):
        """(code per row, first row of each code, the key of each code's id
        (`_cell_keys`), (start, end) of each code's id).

        Rows share a code exactly when their cells match after `str.strip`.
        Rows are grouped by their bytes (`_group`), and each distinct cell is
        stripped: ASCII whitespace on the bytes, and a cell holding a
        non-ASCII byte as text, so such a cell that is not UTF-8 is a
        SchemaError at its first row.  Only when some cell was stripped are
        the stripped cells grouped again.
        """
        start, end = self._field(name)
        keys = _cell_keys(self.buf, start, end)
        code, first = _group(keys)
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
            stripped, lead = _group(keys)
            code, first, keys = stripped[code], first[lead], keys[:, lead]
            strip_start, strip_end = strip_start[lead], strip_end[lead]
        return code, first, keys, (strip_start, strip_end)

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
        return self._fill(name, values, np.flatnonzero(~plain), _parse_int)

    def aprs(self, name: str) -> np.ndarray:
        """APR percentages: a plain cell (`_parse_plain`) without a minus sign
        reads its cents over 100.0, which is exactly `float` of it (both are
        exact doubles, and division rounds correctly); any other cell goes
        through `_parse_apr`, so -0 keeps its sign and every error its text
        and row."""
        cents, plain = self._parse(name, point=True, unsigned=True)
        return self._fill(name, cents / 100.0, np.flatnonzero(~plain), _parse_apr)

    def money(self, name: str, allow_missing: bool = False) -> tuple[np.ndarray, np.ndarray, dict]:
        """(cents, missing, exact): amounts in int64 cents, and by row the
        exact Decimal of each cell that is not a whole number of cents below
        `_CENTS_LIMIT`.  Such a row reads its amount's sign in cents, so it
        reads nonzero and of the right sign.

        Empty and NA cells are missing (read as 0) where `allow_missing`,
        and a SchemaError otherwise; so are non-numeric and non-finite cells.
        The byte parse reads plain cells, a byte test the empty and NA ones,
        and `_parse_money` each distinct other cell (`_distinct`).
        """
        values, plain = self._parse(name, point=True)
        plain &= np.abs(values) < _CENTS_LIMIT  # a plain cell may hold 12 whole digits
        rows = np.flatnonzero(~plain)  # a missing cell is never plain
        missing = np.zeros(self.rows, np.bool_)
        if not rows.size:
            return values, missing, {}
        start, end = self._field(name, rows)
        if allow_missing:  # the spare bytes past the file hold start + 1 inside the buffer
            gone = (end == start) | ((end - start == 2) & (self.buf[start] == _N)
                                     & (self.buf[start + 1] == _A))
            missing[rows[gone]] = True
            rows, start, end = rows[~gone], start[~gone], end[~gone]
        amounts, code = self._distinct(name, rows, lambda raw: _parse_money(raw, allow_missing),
                                       object, (start, end))
        cents, absent, kept = (np.zeros(amounts.size, dtype) for dtype in (np.int64, bool, bool))
        for k, amount in enumerate(amounts.tolist()):
            if amount is None:
                absent[k] = True
                continue
            whole = _cents_of(amount)
            kept[k] = whole is None
            cents[k] = (-1 if amount.is_signed() else 1) if whole is None else whole
        values[rows], missing[rows] = cents[code], absent[code]
        at = np.flatnonzero(kept[code])
        return values, missing, dict(zip(rows[at].tolist(), amounts[code[at]].tolist()))


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

