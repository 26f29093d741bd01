"""Loan ingestion: outcome classification, filters, banding, CSV round trips.

The golden fixtures below are hand-traced: for each payment-vector triple the
expected outcome and trust month were worked out on paper from the
classification rules (principal test first, then the three-consecutive-zeros
scan, else censored at the last month).  They run through the CSV path every
tape takes: `load_loan_data`, then `build_observations`.
"""
from __future__ import annotations

import ast
import contextlib
import csv
import math
import os
import re
import tempfile
import time
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import observation_table, staged_curve, write_tape
from oracles import (apr_rule, decimal_outcome, int_rule, money_rule, parse_rule, plain_cells,
                     reduceat_outcomes, row_by_row, row_payments, whole_cents)

from cshazard import _csvio, cli, ingest
from cshazard._csvio import _Columns, _parse_plain, _SPARE
from cshazard.cli import _read_recovery_observations
from cshazard.errors import SchemaError
from cshazard.estimator import read_curve_csv, write_curve_csv
from cshazard.ingest import (
    DEFAULT_PAD,
    FilterPolicy,
    ObservationTable,
    RiskBand,
    build_observations,
    classify_risk_band,
    filter_loans,
    load_loan_data,
    read_observations_csv,
    write_observations_csv,
)
from cshazard.riskmodel import Cause


def money(v):
    return None if v is None else Decimal(str(v))


def currency(cents, exact=()):
    """Amounts in currency units: cents become Decimals of two places, and an
    index in `exact` takes the Decimal kept there."""
    return [exact[k] if k in exact else Decimal(c).scaleb(-2) for k, c in enumerate(cents.tolist())]


def amounts(money):
    """The amounts of a `_Columns.money` read, in currency units."""
    cents, _, exact = money
    return currency(cents, exact)


def payment_rows(path):
    """A payments file's rows as (balance or None, payment, principal) in
    currency units, read by `_Columns.money`, in order of loan and month."""
    cols = _Columns.read(path, ingest._PAYMENT_COLUMNS)
    balance = cols.money("balance", allow_missing=True)
    payment, principal = (amounts(cols.money(name)) for name in ("payment", "principal"))
    balance = [None if gone else b for b, gone in zip(amounts(balance), balance[1].tolist())]
    found = list(zip(balance, payment, principal))
    keys = [(loan_id.strip(), month) for loan_id, month in zip(
        cols.texts("loan_id", np.arange(cols.rows)), cols.ints("trust_month").tolist())]
    return [found[i] for i in sorted(range(cols.rows), key=keys.__getitem__)]


def folded(payments):
    """(flags, first balances, principal paid) of a `_Payments`, each amount
    as the repr of its currency units, so a Decimal's exponent counts."""
    return (payments.flags.tolist(), *(
        list(map(repr, currency(column, {k: pair[j] for k, pair in payments.exact.items()})))
        for j, column in enumerate((payments.first_balance, payments.paid))))


def rows(balance, payment, principal):
    """The payment rows `payment_rows` reads back for one loan's history."""
    return [tuple(map(money, cells)) for cells in zip(balance, payment, principal)]


def outcomes(directory, loans, histories, pad=DEFAULT_PAD):
    """(cause or None, entry_age, exit_age) of each loan's observation, by loan_id.

    `loans` maps a loan_id to its loan_age_at_entry; the tape is written
    with `write_tape`, loaded and turned into observations.
    """
    tape = load_loan_data(*write_tape(
        directory, {loan_id: {"loan_age_at_entry": age} for loan_id, age in loans.items()},
        histories))
    obs = build_observations(tape, pad=pad)
    return {loan_id: (Cause(cause) if cause else None, entry, exit_age)
            for loan_id, cause, entry, exit_age in zip(
                obs.loan_id.tolist(), obs.cause.tolist(), obs.entry_age.tolist(),
                obs.exit_age.tolist())}


REPAID = ([300, 200, 100, 0], [110, 110, 110, 0], [100, 100, 100, 0])
# The flag bits of a payment row: zero balance, zero payment, no balance.
ZB, ZP, NB = ingest._ZERO_BALANCE, ingest._ZERO_PAYMENT, ingest._NO_BALANCE
# REPAID folded: its flags, first balance and principal paid.
REPAID_FOLDED = ([0, 0, 0, ZB | ZP], ["Decimal('300.00')"], ["Decimal('300.00')"])


# ---------------------------------------------------------------------------
# outcome classification golden fixtures (hand-traced)

GOLDEN = [
    # (id, loan_age_at_entry, balance, payment, principal, cause (None: censored), month)
    ("repaid-first-zero-balance", 0,
     [300, 200, 100, 0], [110, 110, 110, 0], [100, 100, 100, 0],
     Cause.PREPAY, 4),
    ("default-run-after-first-payment", 1,
     [500, 500, 500, 500, 500], [110, 0, 0, 0, 110], [10, 0, 0, 0, 10],
     Cause.DEFAULT, 2),
    ("censored-alternating-zeros", 2,
     [500, 500, 500, 500, 500], [110, 0, 110, 0, 110], [10, 0, 10, 0, 10],
     None, 5),
    ("pad-tie-counts-as-repaid", 3,  # 90 paid + 10 pad == 100 first balance
     [100, 50, 10], [40, 40, 10], [40, 40, 10],
     Cause.PREPAY, 3),
    ("one-cent-short-of-pad-tie", 4,  # 89.99 + 10 = 99.99 < 100
     [100, 60, 20], [30, 30, "29.99"], [30, 30, "29.99"],
     None, 3),
    ("principal-test-beats-zero-run", 5,  # repaid in full, then three zero months
     [100, 0, 0, 0], [100, 0, 0, 0], [100, 0, 0, 0],
     Cause.PREPAY, 2),
    ("default-from-month-one", 6,
     [500, 500, 500, 500], [0, 0, 0, 120], [0, 0, 0, 20],
     Cause.DEFAULT, 1),
    ("broken-pair-then-full-run", 7,  # zeros at 1,2 reset by month 3; run is 4..6
     [400, 400, 400, 400, 400, 400], [0, 0, 50, 0, 0, 0], [0, 0, 5, 0, 0, 0],
     Cause.DEFAULT, 4),
    ("two-zeros-never-three", 8,
     [400, 400, 400], [0, 0, 50], [0, 0, 5],
     None, 3),
    ("run-at-the-tail", 9,
     [400, 400, 400, 400], [50, 0, 0, 0], [5, 0, 0, 0],
     Cause.DEFAULT, 2),
    ("missing-mid-balance-skipped", 10,  # month 2 balance unreported
     [200, None, 0], [150, 60, 0], [150, 50, 0],
     Cause.PREPAY, 3),
    ("repaid-without-zero-balance", 11,  # falls back to the last month
     [200, 100, 5], [100, 100, 10], [100, 95, 5],
     Cause.PREPAY, 3),
    ("long-run-marks-its-first-month", 12,
     [500, 500, 500, 500, 500], [100, 0, 0, 0, 0], [10, 0, 0, 0, 0],
     Cause.DEFAULT, 2),
    ("single-month-censored", 13,
     [400], [50], [5],
     None, 1),
]


def golden_outcomes(directory, pad=DEFAULT_PAD):
    """`outcomes` of one tape holding every golden as a loan."""
    return outcomes(directory, {name: age for name, age, *_ in GOLDEN},
                    {name: (b, p, q) for name, _, b, p, q, _, _ in GOLDEN}, pad)


# (cause, entry_age, exit_age) of each golden: entry at a + 1, exit at a + month.
GOLDEN_EXPECTED = {name: (cause, age + 1, age + month)
                   for name, age, _, _, _, cause, month in GOLDEN}


@pytest.fixture(scope="module")
def classified_goldens(tmp_path_factory):
    return golden_outcomes(tmp_path_factory.mktemp("goldens"))


@pytest.mark.parametrize("name", [g[0] for g in GOLDEN])
def test_outcome_golden_fixtures(classified_goldens, name):
    assert classified_goldens[name] == GOLDEN_EXPECTED[name]


def test_pad_is_configurable(tmp_path):
    # the pad-tie fixture flips to censored when the pad is removed
    zero_pad = golden_outcomes(tmp_path, pad=Decimal("0"))
    assert zero_pad["pad-tie-counts-as-repaid"] == (None, 4, 6)
    # and the one-cent-short fixture flips to repaid with a penny more pad
    bigger_pad = golden_outcomes(tmp_path, pad=Decimal("10.01"))
    assert bigger_pad["one-cent-short-of-pad-tie"] == (Cause.PREPAY, 5, 7)


def test_outcome_is_total_over_goldens(classified_goldens):
    assert len(classified_goldens) == len(GOLDEN)
    causes = {cause for cause, _, _ in classified_goldens.values()}
    assert causes == {Cause.PREPAY, Cause.DEFAULT, None}


@pytest.mark.parametrize("number", [int, float], ids=["int", "float"])
def test_amounts_given_as_numbers_match_decimals(tmp_path, classified_goldens, number):
    # an int or a float pad is the Decimal of its value (a float read by its repr)
    assert golden_outcomes(tmp_path, pad=number(10)) == classified_goldens
    loans, histories = {"sums": 0}, {"sums": (["10.3"], ["0.3"], ["0.1"])}
    if number is int:
        # 0.1 + 10 is short of 10.3, 0.1 + 11 is not
        assert outcomes(tmp_path, loans, histories, pad=10) == {"sums": (None, 1, 1)}
        assert outcomes(tmp_path, loans, histories, pad=11) == {"sums": (Cause.PREPAY, 1, 1)}
        return
    # 0.1 + 10.2 falls short of 10.3 in binary, not as amounts
    assert outcomes(tmp_path, loans, histories, pad=10.2) == {"sums": (Cause.PREPAY, 1, 1)}
    with pytest.raises(ValueError, match="non-finite amount"):
        outcomes(tmp_path, loans, histories, pad=float("nan"))


# ---------------------------------------------------------------------------
# risk bands


def test_band_spot_values():
    assert classify_risk_band(22.65) is RiskBand.DEEP_SUBPRIME
    assert classify_risk_band(3.59) is RiskBand.SUPER_PRIME
    assert classify_risk_band(5.0) is RiskBand.PRIME  # boundary belongs upward
    assert classify_risk_band(10.0) is RiskBand.NEAR_PRIME
    assert classify_risk_band(15.0) is RiskBand.SUBPRIME
    assert classify_risk_band(20.0) is RiskBand.DEEP_SUBPRIME
    assert classify_risk_band(0.0) is RiskBand.SUPER_PRIME


def test_band_monotone_and_total():
    prev = -1
    for cents in range(0, 3000):
        band = classify_risk_band(cents / 100.0)
        assert band.value >= prev
        prev = band.value
    with pytest.raises(ValueError):
        classify_risk_band(-0.01)


def test_band_labels_round_trip():
    for band in RiskBand:
        assert RiskBand.from_label(band.label) is band
    assert RiskBand.from_label("Deep Subprime") is RiskBand.DEEP_SUBPRIME
    with pytest.raises(ValueError):
        RiskBand.from_label("platinum")


# ---------------------------------------------------------------------------
# filtering


# loan_id: (fields changed from a conforming loan, kept by the default policy)
FILTER_CASES = {
    "base": ({}, True),
    "coborrower": ({"has_coborrower": "true"}, False),
    "verified": ({"income_verification": "verified"}, False),
    "subvented": ({"subvention": "true"}, False),
    "new": ({"vehicle_condition": "new"}, False),
    "repossessed": ({"initial_status": "repossessed"}, False),
    "age17": ({"loan_age_at_entry": 17}, True),
    "age18": ({"loan_age_at_entry": 18}, False),  # the entry-age bound is exclusive
    "term71": ({"original_term": 71}, False),
    "term73": ({"original_term": 73}, True),
    "term74": ({"original_term": 74}, False),
}


def test_filter_excludes_each_dimension(tmp_path):
    loans = {loan_id: changes for loan_id, (changes, _) in FILTER_CASES.items()}
    tape = load_loan_data(*write_tape(tmp_path, loans,
                                      dict.fromkeys(loans, ([100], [50], [50]))))
    kept = filter_loans(tape)
    assert kept.loan_id.tolist() == [k for k, (_, ok) in FILTER_CASES.items() if ok]
    assert kept.loan_age_at_entry.tolist() == [5, 17, 5]
    assert build_observations(tape).loan_id.tolist() == ["age17", "base", "term73"]


def test_filter_integrity_rules(tmp_path):
    histories = {
        # outcome indeterminable: principal short of first balance AND last balance missing
        "murky": ([500, None], [50, 50], [5, 5]),
        # same shortfall but the final balance is reported: kept
        "clear": ([500, 400], [50, 50], [5, 5]),
        # missing first balance: dropped
        "blind": ([None, 400], [50, 50], [5, 5]),
        # final balance missing, but the principal paid covers the first: kept
        "paid": ([100, None], [50, 50], [50, 50]),
    }
    loans = dict.fromkeys([*histories, "orphan"], {})
    kept = filter_loans(load_loan_data(*write_tape(tmp_path, loans, histories)))
    # a loan without payment rows passes the filter; build_observations rejects it
    assert kept.loan_id.tolist() == ["clear", "paid", "orphan"]
    assert kept.segment.tolist() == [1, 3, -1]


def test_filter_policy_overrides(tmp_path):
    loans = {"used": {}, "new": {"vehicle_condition": "new"},
             "verified": {"income_verification": "verified"},
             "repossessed": {"initial_status": "repossessed"},
             "late": {"loan_age_at_entry": 20}, "short": {"original_term": 60}}
    tape = load_loan_data(*write_tape(tmp_path, loans, dict.fromkeys(loans, ([100], [50], [50]))))
    for policy, kept in [
        (FilterPolicy(), ["used"]),
        (FilterPolicy(vehicle_condition="new"), ["new"]),
        (FilterPolicy(income_verification="verified"), ["verified"]),
        (FilterPolicy(excluded_initial_status=()), ["used", "repossessed"]),
        (FilterPolicy(max_entry_age=21), ["used", "late"]),
        (FilterPolicy(allowed_terms=(60,)), ["short"]),
    ]:
        assert filter_loans(tape, policy).loan_id.tolist() == kept


# ---------------------------------------------------------------------------
# coordinate mapping


def test_observation_index_arithmetic(tmp_path):
    loans = {"late": {"loan_age_at_entry": 6}, "new": {"loan_age_at_entry": 0},
             "quick": {"loan_age_at_entry": 0}}
    histories = {
        "late": ([500] * 12, [50] * 9 + [0] * 3, [5] * 9 + [0] * 3),  # default in month 10
        "new": ([500] * 52, [50] * 52, [5] * 52),  # censored after 52 months
        "quick": ([500], [500], [500]),  # repaid in month 1
    }
    obs = build_observations(load_loan_data(*write_tape(tmp_path, loans, histories)))
    assert obs == observation_table([("late", 7, 16, Cause.DEFAULT), ("new", 1, 52, None),
                                     ("quick", 1, 1, Cause.PREPAY)])


def test_observation_invariants():
    valid = dict(loan_id=["a", "b"], band=[1, -1], entry_age=[1, 3], exit_age=[4, 3],
                 event=[True, False], cause=[Cause.DEFAULT.value, 0])
    assert len(ObservationTable(**valid)) == 2
    for column, values, message in [
        ("entry_age", [1, 4], "entry_age must be <= exit_age"),
        ("entry_age", [0, 3], "entry_age must be >= 1"),
        ("cause", [0, 0], "observed events must carry a cause"),
        ("cause", [1, Cause.PREPAY.value], "censored observations must not carry a cause"),
        ("band", [1], "observation columns must share one length"),
    ]:
        with pytest.raises(ValueError, match=message):
            ObservationTable(**{**valid, column: values})


def test_build_observations_sorted_and_strict(tmp_path):
    histories = {"B": REPAID, "A": ([400], [50], [5])}
    obs = build_observations(load_loan_data(*write_tape(tmp_path, dict.fromkeys(histories, {}),
                                                        histories)))
    assert obs.loan_id.tolist() == ["A", "B"]
    tape = load_loan_data(*write_tape(tmp_path, {"B": {}, "C": {}}, {"B": REPAID}))
    with pytest.raises(SchemaError, match="loan C has no payment history"):
        build_observations(tape)


def test_missing_history_is_located_at_the_loan_line(tmp_path):
    """Only an eligible loan needs a history: the error names its loans.csv line."""
    loans = {"new": {"vehicle_condition": "new"}, "B": {}, "C": {}, "D": {}}
    tape = load_loan_data(*write_tape(tmp_path, loans, {"B": REPAID}))
    assert filter_loans(tape).loan_id.tolist() == ["B", "C", "D"]  # "new" has none either
    with pytest.raises(SchemaError, match=r"^\S*loans\.csv:4: loan C has no payment history$"):
        build_observations(tape)
    assert build_observations(tape.take([0, 1])).loan_id.tolist() == ["B"]


# ---------------------------------------------------------------------------
# CSV round trips


def test_loan_csv_round_trip(tmp_path):
    histories = {"L1": REPAID, "L2": ([500, None, 500], [110, 0, 110], [10, 0, 10])}
    back = load_loan_data(*write_tape(
        tmp_path, {"L1": {"apr_pct": 22.65, "original_amount": "20000.05"},
                   "L2": {"apr_pct": 3.59, "recovered_amount": "1234.5"}}, histories))
    assert build_observations(back) == observation_table([
        ("L1", 6, 9, Cause.PREPAY, RiskBand.DEEP_SUBPRIME),
        ("L2", 6, 8, None, RiskBand.SUPER_PRIME)])
    assert back.original_amount.tolist() == [2000005, 2000000]  # exact cents
    assert back.recovered_amount.tolist() == [0, 123450]
    assert back.exact == {}
    assert payment_rows(tmp_path / "payments.csv") == rows(*histories["L1"]) + rows(
        *histories["L2"])
    assert folded(back.payments) == ([0, 0, 0, ZB | ZP, 0, NB | ZP, 0],
                                     ["Decimal('300.00')", "Decimal('500.00')"],
                                     ["Decimal('300.00')", "Decimal('20.00')"])


def test_loan_amounts_that_cents_cannot_hold_keep_their_sign_and_exact_value(tmp_path):
    back = load_loan_data(*write_tape(
        tmp_path, {"L1": {"original_amount": "20000.005"},
                   "L2": {"recovered_amount": "-0.001", "original_amount": "1E+20"}},
        {"L1": REPAID, "L2": REPAID}))
    assert back.original_amount.tolist() == [1, 1] and back.recovered_amount.tolist() == [0, -1]
    assert back.exact == {("L1", "original_amount"): Decimal("20000.005"),
                          ("L2", "original_amount"): Decimal("1E+20"),
                          ("L2", "recovered_amount"): Decimal("-0.001")}
    with pytest.raises(SchemaError, match=r"loans\.csv:2: column 'original_amount' must be "
                                          r"positive$"):
        load_loan_data(*write_tape(tmp_path, {"L1": {"original_amount": "-0.001"}}, {}))


def test_observation_csv_round_trip(tmp_path):
    obs = observation_table([("a", 7, 16, Cause.DEFAULT, RiskBand.SUBPRIME),
                             ("b", 1, 52, None, None)])
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    assert read_observations_csv(path) == obs


def test_observation_csv_without_loan_ids(tmp_path):
    obs = observation_table([("a", 7, 16, Cause.DEFAULT, RiskBand.SUBPRIME),
                             ("b", 1, 52, None, None)])
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    path.write_bytes(path.read_bytes().replace(b"\na,", b"\n\xff,"))  # not UTF-8
    with pytest.raises(SchemaError, match="obs.csv:2: column 'loan_id': byte 0xff at position 0"):
        read_observations_csv(path)
    back = read_observations_csv(path, loan_ids=False)
    assert back.loan_id.tolist() == ["", ""]
    assert back == ObservationTable(**{**{name: getattr(obs, name) for name in (
        "band", "entry_age", "exit_age", "event", "cause")}, "loan_id": ["", ""]})
    path.write_text("band,entry_age,exit_age,event,cause\nprime,1,2,0,\n")
    with pytest.raises(SchemaError, match="missing required column"):
        read_observations_csv(path, loan_ids=False)


def test_observation_csv_schema_errors(tmp_path):
    bad = tmp_path / "obs.csv"
    bad.write_text("loan_id,band,entry_age\nx,prime,1\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_observations_csv(bad)
    worse = tmp_path / "obs2.csv"
    worse.write_text(
        "loan_id,band,entry_age,exit_age,event,cause\nx,prime,one,2,1,default\n",
        encoding="utf-8")
    with pytest.raises(SchemaError):
        read_observations_csv(worse)


# ---------------------------------------------------------------------------
# columnar ingest against the per-loan Decimal oracle


def render(amount, style):
    """One money cell in a chosen spelling; every spelling is the same Decimal."""
    if style == "exponent":
        return format(amount, "E")
    if style == "mils":
        return format(amount.quantize(Decimal("0.001")), "f")
    return format(amount, "f")


@st.composite
def loan_histories(draw):
    """Small tapes whose histories hit zero runs, pad ties, gaps and odd spellings."""
    loans = []
    for i in range(draw(st.integers(1, 6))):
        months = draw(st.integers(1, 7))
        first = draw(st.sampled_from([0, 1000, 4000, 5000, 10000]) | st.integers(0, 12000))
        mils = st.sampled_from([0, 0, 0, 1000, 2000, 5000]) | st.integers(0, 6000)
        principal = [draw(mils) for _ in range(months)]
        payment = [p if draw(st.booleans()) else draw(mils) for p in principal]
        balance = [first * 10] + [draw(st.sampled_from([0, 1000]) | mils) for _ in range(months - 1)]
        if draw(st.booleans()):  # add a mil here and there: not whole cents
            principal[draw(st.integers(0, months - 1))] += draw(st.integers(1, 9))
        values = [[None if draw(st.integers(0, 5)) == 0 else Decimal(b).scaleb(-3)
                   for b in balance],
                  [Decimal(p).scaleb(-3) for p in payment],
                  [Decimal(p).scaleb(-3) for p in principal]]
        cells = [["" if v is None and draw(st.booleans()) else "NA" if v is None
                  else render(v, draw(st.sampled_from(["plain", "exponent", "mils"])))
                  for v in column] for column in values]
        loans.append((f"L{i:02d}", draw(st.integers(0, 17)), values, cells))
    return loans


@settings(max_examples=80, deadline=None)
@given(loan_histories(), st.sampled_from([Decimal("10"), Decimal("0"), Decimal("10.005")]))
def test_segment_classifier_matches_decimal_oracle(loans, pad):
    expected = []
    for loan_id, age, (bal, pmt, prc), _ in loans:
        ok, kind, month = decimal_outcome(bal, pmt, prc, pad)
        if ok:
            cause = {"defaulted": Cause.DEFAULT, "repaid": Cause.PREPAY}.get(kind)
            expected.append((loan_id, age + 1, age + month, cause, RiskBand.NEAR_PRIME))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        tape = load_loan_data(*write_tape(
            directory, {loan_id: {"loan_age_at_entry": age} for loan_id, age, _, _ in loans},
            {loan_id: cells for loan_id, _, _, cells in loans}))
        assert build_observations(tape, pad=pad) == observation_table(expected)


# Principal cells drawn for the folded read: cents, zeros, and mils.
CENTS = st.sampled_from([0, 0, 0, 500, 1000]) | st.integers(0, 2000)
# 30 significant digits: a sum with other amounts needs more than 28, and
# fewer than `ingest._DIGITS`.
LONG_PRINCIPAL = Decimal("1234567890123456789012345.67891")


@st.composite
def payment_files(draw):
    """Loan histories of 1-6 loans of 1-5 months as Decimals (a balance None
    where missing), and the order of the file's rows: month order, or
    shuffled.  A principal cell may hold 30 significant digits.

    Zero balances and zero payments are common, so they fall on a
    segment's first and last rows and zero runs straddle segment edges or
    end exactly at a segment's end.  Amounts are cents, or some hold mils.
    """
    histories = []
    for _ in range(draw(st.integers(1, 6))):
        months = draw(st.integers(1, 5))
        balance, principal = (draw(st.lists(CENTS, min_size=months, max_size=months))
                              for _ in range(2))
        payment = draw(st.lists(st.sampled_from([0, 0, 0, 11000]), min_size=months,
                                max_size=months))
        histories.append([[Decimal(c).scaleb(-2) for c in column]
                          for column in (balance, payment, principal)])
    if draw(st.booleans()):  # mils here and there: not whole cents
        for _ in range(draw(st.integers(1, 3))):
            history = draw(st.sampled_from(histories))
            column = history[draw(st.integers(0, 2))]
            column[draw(st.integers(0, len(column) - 1))] += Decimal("0.001")
    for history in histories:
        history[0] = [None if draw(st.integers(0, 5)) == 0 else b for b in history[0]]
    rows = [(k, m) for k, history in enumerate(histories) for m in range(len(history[0]))]
    if draw(st.booleans()):
        history = draw(st.sampled_from(histories))
        history[2][draw(st.integers(0, len(history[2]) - 1))] = LONG_PRINCIPAL
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return histories, rows


@settings(max_examples=200, deadline=None)
@given(payment_files(), st.data())
def test_segment_outcomes_match_the_reduceat_oracle(files, data):
    """The payments folded as they are read, at any block size and in any
    row order, give the outcomes, integrity and exact sums of the per-row
    oracle on the same rows, for every pad."""
    histories, rows = files
    lines = ["loan_id,trust_month,balance,payment,principal"]
    for k, m in rows:
        balance, payment, principal = (history[m] for history in histories[k])
        lines.append(f"L{k},{m + 1},{'NA' if balance is None else balance},{payment},{principal}")
    data_bytes = ("\n".join(lines) + "\n").encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payments.csv"
        path.write_bytes(data_bytes)
        size = data.draw(st.integers(1, len(data_bytes) + 1), label="block size")
        with tiny_blocks(), mock.patch.object(ingest, "_READ_BYTES", size):
            payments, ids, _ = ingest._read_payments(path)
    order = [int(loan_id[1:]) for loan_id in id_names(ids)]  # loans by first row in the file
    oracle = row_payments([histories[k] for k in order])
    assert payments.start.tolist() == oracle.start.tolist()
    assert payments.months.tolist() == oracle.months.tolist()
    assert payments.integrity_ok().tolist() == oracle.integrity_ok().tolist()
    for pad in (Decimal("10"), Decimal("0"), Decimal("10.005"), 7, 0.5):
        code, month = payments.outcomes(pad)
        expected_code, expected_month = reduceat_outcomes(oracle, pad)
        assert code.dtype == expected_code.dtype and month.dtype == expected_month.dtype
        assert code.tolist() == expected_code.tolist(), pad
        assert month.tolist() == expected_month.tolist(), pad
    assert folded(payments)[2] == list(map(repr, oracle.paid()))  # exponent and all


def test_money_cells_keep_exact_values(tmp_path):
    cells = (["100.00", "1.5E+1", "", " NA "], ["5", "0.005", "0", "1"],
             ["90.00", "+.50", "0.001", "0"])
    loans, payments = write_tape(tmp_path, {"L1": {}}, {"L1": cells})
    assert payment_rows(payments) == [(Decimal("100"), Decimal("5"), Decimal("90")),
                                      (Decimal("15"), Decimal("0.005"), Decimal("0.5")),
                                      (None, Decimal("0"), Decimal("0.001")),
                                      (None, Decimal("1"), Decimal("0"))]
    back = load_loan_data(loans, payments)
    assert list(back.payments.exact) == [0]  # a mil is not whole cents
    assert folded(back.payments) == ([0, 0, NB | ZP, NB], ["Decimal('100.00')"],
                                     ["Decimal('90.501')"])


def test_a_balance_a_hair_above_whole_cents_is_not_rounded_to_them(tmp_path):
    # 30 significant digits, two more than Python's default decimal context keeps
    balance = "1.00000000000000000000000000001"
    # 1.00 paid falls short of the balance: censored, not repaid
    assert outcomes(tmp_path, {"L1": 0}, {"L1": ([balance], ["1"], ["1.00"])},
                    pad=Decimal(0)) == {"L1": (None, 1, 1)}
    assert payment_rows(tmp_path / "payments.csv") == [(Decimal(balance), Decimal("1"),
                                                        Decimal("1"))]


def test_a_money_cell_past_the_context_exponent_is_read_exactly(tmp_path):
    loans, payments = write_tape(tmp_path, {"L1": {}}, {"L1": (["1E+999999", "5"], ["1", "1"],
                                                               ["1", "1E+999999"])})
    assert payment_rows(payments) == [(Decimal("1E+999999"), Decimal("1"), Decimal("1")),
                                      (Decimal("5"), Decimal("1"), Decimal("1E+999999"))]
    # 1 + 1E+999999 needs a million digits
    with pytest.raises(SchemaError, match=r"payments\.csv: loan 'L1': column 'principal' needs "
                                          r"more than 40 digits to sum exactly$"):
        load_loan_data(loans, payments)
    payments.write_text(payments.read_text().replace(",1E+999999\n", ",2\n"))
    assert folded(load_loan_data(loans, payments).payments)[1:] == (["Decimal('1E+999999')"],
                                                                    ["Decimal('3.00')"])


def test_a_principal_sum_past_the_digits_of_the_context_names_its_loan(tmp_path):
    """A sum that needs more than `_DIGITS` significant digits is an error,
    whatever the order of its rows; one that needs exactly that many is exact."""
    assert ingest._DIGITS == 40
    wide = "9" * 38 + ".99"  # 40 digits
    for principal, exact in [([wide, "0.02"], None), (["0.02", wide], None),
                             ([wide, "-0.01"], "9" * 38 + ".98"), (["1E+38", "0.001"], None),
                             (["1E+36", "0.001"], "1" + "0" * 36 + ".001")]:
        loans, payments = write_tape(tmp_path, {"L0": {}, "L1": {}},
                                     {"L0": (["5"], ["5"], ["5"]),
                                      "L1": (["100"] * 2, ["10"] * 2, principal)})
        if exact is None:
            with pytest.raises(SchemaError, match=r"payments\.csv: loan 'L1': column 'principal' "
                                                  r"needs more than 40 digits to sum exactly$"):
                load_loan_data(loans, payments)
        else:
            assert load_loan_data(loans, payments).payments.exact[1][1] == Decimal(exact)


# Amounts of up to 45 digits over 120 places, zeros among them.
AMOUNTS = st.builds(lambda sign, digits, exponent: Decimal((sign, tuple(digits), exponent)),
                    st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=45),
                    st.integers(-60, 60))


@st.composite
def cover_cases(draw):
    """(paid, pad, balance), the balance often paid + pad itself or a hair off it."""
    paid, pad, balance = (draw(AMOUNTS) for _ in range(3))
    if draw(st.booleans()):
        wide = Context(prec=500)
        balance = wide.add(wide.add(paid, pad), draw(st.sampled_from(
            [Decimal(0), Decimal("1E-70"), Decimal("-1E-70"), balance])))
    return paid, pad, balance


@settings(max_examples=300, deadline=None)
@given(cover_cases())
def test_the_exact_comparisons_match_fractions(case):
    """The repayment test on Decimals, and the pad as cents, are exact."""
    paid, pad, balance = case
    assert ingest._covers(paid, pad, balance) == (Fraction(paid) + Fraction(pad)
                                                  >= Fraction(balance))
    limit = np.iinfo(np.int64).max
    cents = math.floor(Fraction(pad) * 100) if abs(pad) < 10**17 else limit * (-1) ** (pad < 0)
    assert ingest._floor_cents(pad) == cents


NON_FINITE_CELLS = ["nan", "inf", "-Infinity", "sNaN"]


@pytest.mark.parametrize("cell", NON_FINITE_CELLS)
def test_non_finite_money_is_located_schema_error(tmp_path, cell):
    paths = write_tape(tmp_path, {"L1": {}}, {"L1": (["100", "50"], ["10", "10"], ["10", cell])})
    with pytest.raises(SchemaError, match=r"payments\.csv:3: column 'principal' has "
                                          r"non-finite value"):
        load_loan_data(*paths)


def test_reader_handles_quotes_crlf_and_blank_lines(tmp_path):
    paths = write_tape(tmp_path, {"L,1": {}}, {"L,1": REPAID})  # the id needs quoting
    assert '"L,1"' in paths[0].read_text()
    assert build_observations(load_loan_data(*paths)) == observation_table(
        [("L,1", 6, 9, Cause.PREPAY)])

    loans, payments = write_tape(tmp_path, {"L1": {}}, {"L1": REPAID})
    text = payments.read_text()
    for messy in (text.replace("\n", "\r\n\r\n", 2), text.replace("\n", "\r")):
        payments.write_text(messy, newline="")  # CRLF and blank lines, then bare CR
        assert payment_rows(payments) == rows(*REPAID)
        assert folded(load_loan_data(loans, payments).payments) == REPAID_FOLDED

    # Curve and recoveries files take the same reader and read the same.
    curve = tmp_path / "curve.csv"
    write_curve_csv(curve, staged_curve("prime", 10, 0.05, ages=range(1, 6)))
    recoveries = tmp_path / "recoveries.csv"
    recoveries.write_text("age,recovery\n3,0.5\n5,0.25\n3,0.125\n")
    for quote in ("", '"'):
        write_curve_csv(tmp_path / "back.csv", read_curve_csv(messy_copy(curve, quote)))
        assert (tmp_path / "back.csv").read_bytes() == curve.read_bytes()
        assert (_read_recovery_observations(messy_copy(recoveries, quote))
                == [(3, 0.5), (5, 0.25), (3, 0.125)])


def messy_copy(path, quote):
    """The CSV with CRLF line ends, a blank line, an extra trailing column, and
    its first data cell wrapped in `quote`."""
    head, first, *rest = path.read_text().splitlines()
    first = quote + first.replace(",", quote + ",", 1)
    lines = [head + ",note", first + ",x", "", *(row + ",y" for row in rest)]
    messy = path.with_suffix(".messy")
    messy.write_text("\r\n".join(lines) + "\r\n", newline="")
    return messy


def test_csv_module_reads_only_inside_the_columnar_reader():
    """Every CSV input goes through `_csvio`; csv reads only its quoted files."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            reads = (isinstance(child, ast.Attribute) and child.attr in ("reader", "DictReader")
                     and isinstance(child.value, ast.Name) and child.value.id == "csv")
            if reads or (isinstance(child, ast.ImportFrom) and child.module == "csv"):
                found.append(f"{module}:{'.'.join(scope)}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, module, scope + [child.name] if named else scope)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cshazard").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    assert found == ["_csvio.py:_Columns._read_quoted"]


def test_reader_ignores_extra_fields_and_rejects_short_rows(tmp_path):
    loans, payments = write_tape(tmp_path, {"L1": {}}, {})
    expected = rows([300, 200], [110, 110], [100, 100])
    payments.write_text("loan_id,trust_month,balance,payment,principal\n"
                        "L1,1,300,110,100,extra,\nL1,2,200,110,100\n", encoding="utf-8")
    folds = ([0, 0], ["Decimal('300.00')"], ["Decimal('200.00')"])
    assert payment_rows(payments) == expected  # extra fields are ignored
    assert folded(load_loan_data(loans, payments).payments) == folds
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("principal,note,trust_month,payment,balance,loan_id\n"
                         "100,x,2,110,200,L1\n100,y,1,110,300,L1\n", encoding="utf-8")
    assert payment_rows(reordered) == expected
    assert folded(load_loan_data(loans, reordered).payments) == folds
    payments.write_text(payments.read_text().replace("L1,2,200,110,100", "L1,2,200,110"))
    with pytest.raises(SchemaError, match=r"payments\.csv:3: expected 5 fields, found 4"):
        load_loan_data(loans, payments)
    payments.write_text(payments.read_text().replace("extra", '"quoted"'))
    with pytest.raises(SchemaError, match=r"payments\.csv:3: expected 5 fields, found 4"):
        load_loan_data(loans, payments)


@pytest.mark.parametrize("row, message", [
    ("x,prime,5,4,0,", "entry_age must be <= exit_age"),
    ("x,prime,0,4,0,", "entry_age must be >= 1"),
    ("x,prime,-4,0,1,default", "entry_age must be >= 1"),
    ("x,prime,1,4,1,lapsed", "unknown cause label"),
    ("x,platinum,1,4,0,", "unknown risk band"),
    ("x,prime,1,4,1,", "observed events must carry a cause"),
])
def test_observation_row_errors_carry_location(tmp_path, row, message):
    path = tmp_path / "obs.csv"
    path.write_text("loan_id,band,entry_age,exit_age,event,cause\n"
                    f"ok,prime,1,2,0,\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"obs\.csv:3: .*{message}"):
        read_observations_csv(path)


def loan_case_id(value):
    """A case's id: the APR and amount cells of its loan, then the message."""
    if isinstance(value, dict):
        return f"{value.get('apr_pct', '12.5')}-{value.get('original_amount', '20000')}"
    return None


LOAN_ERRORS = [
    ({"apr_pct": "nan"}, "column 'apr_pct': value 'nan' is not a finite APR >= 0"),
    ({"apr_pct": "-1.5"}, "column 'apr_pct': value '-1.5' is not a finite APR >= 0"),
    ({"original_amount": "0"}, "column 'original_amount' must be positive"),
    ({"loan_age_at_entry": "-3"}, "column 'loan_age_at_entry' must be >= 0"),
    ({"apr_pct": "1_2.5"}, "column 'apr_pct': non-numeric value '1_2.5'"),
    ({"apr_pct": "\u0661\u0662"}, "column 'apr_pct': non-numeric value '\u0661\u0662'"),
    ({"original_amount": "2_000"}, "column 'original_amount' has non-numeric value '2_000'"),
    ({"loan_age_at_entry": "1_0"}, "column 'loan_age_at_entry' has non-integer value '1_0'"),
]


# APR cells outside the plain grammar, or with a minus sign, and what they read.
ODD_APRS = ["1e1", " 7.5", "7.125", "nan", "-5", "\u0663", "-0", "-0.00", "+0", "7.5 "]


@st.composite
def apr_cell(draw):
    """A plain APR cell (1-12 digits, at most 2 after a point, an optional
    sign) or one of ODD_APRS."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ODD_APRS))
    decimals = draw(st.integers(0, 2))
    digits = draw(st.text("0123456789", min_size=max(1, decimals), max_size=12))
    whole, fraction = digits[:len(digits) - decimals], digits[len(digits) - decimals:]
    point = "." if decimals or draw(st.booleans()) else ""
    return draw(st.sampled_from(["", "+", "-"])) + whole + point + fraction


@settings(max_examples=300, deadline=None)
@given(st.lists(apr_cell(), min_size=1, max_size=20))
def test_aprs_read_bit_for_bit_like_the_per_cell_parse(cells):
    """Each APR equals `_parse_apr` of its cell to the bit (-0 keeps its
    sign), and the first bad cell gives its error at its line, as when
    every distinct cell is parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "aprs.csv"
        path.write_text("n,apr_pct\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(cells)),
                        encoding="utf-8")
        cols = _Columns.read(path, ["apr_pct"])
        parsed = labels_outcome(lambda: cols.labels("apr_pct", _csvio._parse_apr, np.float64))
        assert labels_outcome(lambda: cols.aprs("apr_pct")) == parsed
        if not isinstance(parsed, str):
            want = np.array([_csvio._parse_apr(cell) for cell in cells])
            assert cols.aprs("apr_pct").view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("changes, message", LOAN_ERRORS, ids=loan_case_id)
def test_loan_attribute_errors_carry_location(tmp_path, changes, message):
    paths = write_tape(tmp_path, {"L1": changes}, {"L1": (["100"], ["10"], ["10"])})
    with pytest.raises(SchemaError, match=rf"loans\.csv:2: {re.escape(message)}"):
        load_loan_data(*paths)


# ---------------------------------------------------------------------------
# text columns: one decode per distinct cell


def oracle_codes(texts):
    """(code per row, first row of each code) from a dict of the cells as str."""
    code_of = {}
    codes = [code_of.setdefault(text, len(code_of)) for text in texts]
    return codes, [texts.index(text) for text in code_of]


def rejects_bang(raw):
    """A label parser that rejects every cell holding a '!'."""
    if "!" in raw:
        raise ValueError(f"bad cell {raw!r}")
    return raw.strip().upper()


_CHARS = st.sampled_from(list("abAB0 !\0") + ["é", "€", "𝄞"])


@st.composite
def text_column(draw):
    """The cells of a text column: a few distinct cells, repeated and in runs.

    Cells have 0-20 characters (more bytes where they are multi-byte), so
    they cross the 8- and 16-byte word edges, and may end in NUL bytes, which
    only a cell's length tells apart from the masked bytes past it.  Most are
    a base cell with one character changed, which share every byte but one
    with it, or with padding added.
    """
    size = draw(st.integers(0, 20))
    base = draw(st.text(_CHARS, min_size=size, max_size=size))
    where = st.sampled_from([7, 8, 15, 16]) | st.integers(0, size)
    changed = [base[:i] + char + base[i + 1:]
               for i, char in draw(st.lists(st.tuples(where, _CHARS), max_size=4))]
    padded = [" " * left + base + " " * right
              for left, right in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                               max_size=2))]
    other = draw(st.lists(st.text(_CHARS, max_size=20), max_size=2))
    pool = list(dict.fromkeys([base, *changed, *padded, *other]))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))


TEXT_FILES = given(text_column(), st.booleans(), st.booleans())


@settings(max_examples=150, deadline=None)
@TEXT_FILES
def test_codes_and_labels_match_a_per_row_oracle(texts, quoted, final_newline):
    check_codes_and_labels(texts, quoted, final_newline)


def check_codes_and_labels(texts, quoted, final_newline):
    if quoted:  # quoting lets a cell hold a separator and a line break
        texts = [text.replace("0", ",\n") for text in texts]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            quoting = csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL
            csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(
                [("n", "cell"), *enumerate(texts)])
        if not final_newline:  # the last cell ends the file
            path.write_bytes(path.read_bytes()[:-1])
        cols = _Columns.read(path, ["n", "cell"])
        codes, first = cols.codes("cell")
        assert (codes.tolist(), first.tolist()) == oracle_codes(texts)
        bad = [row for row, text in enumerate(texts) if "!" in text]
        if bad:
            with pytest.raises(SchemaError) as caught:
                cols.labels("cell", rejects_bang, object)
            line = 1 + sum(1 + text.count("\n") for text in texts[:bad[0] + 1])  # its last
            assert str(caught.value).startswith(f"{path}:{line}: column 'cell': "
                                                f"bad cell {texts[bad[0]]!r}")
        else:
            assert cols.labels("cell", rejects_bang, object).tolist() == [
                rejects_bang(text) for text in texts]


# Per label column: its parser and vocabulary, the labels written, and cells
# that are no label: spellings the parser also reads, unknown labels, a byte
# that is not UTF-8, and cells that share a label's length and first byte.
VOCABULARY_COLUMNS = {
    "event": (_csvio._parse_bool, np.bool_, ingest._BOOLS, ["0", "1"],
              ["TRUE", "t", "no", "2", " 1", "\udcff", "", "11", "0\0"]),
    "cause": (ingest._cause_code, np.int8, ingest._CAUSES, ["default", "prepay", ""],
              ["PREPAYMENT", "2", "1", " default", "lapsed", "prepax", "defaulT", "\udcff"]),
    "band": (ingest._band_code, np.int8, ingest._BANDS, [b.label for b in RiskBand] + [""],
             ["Prime", " near-prime ", "Deep Subprime", "platinum", "deep_subprimE",
              "deep_subprime_", "near_primx", "s", "\udcff"]),
    "has_coborrower": (_csvio._parse_bool, np.bool_, ingest._BOOLS,
                       sorted(_csvio._TRUE | _csvio._FALSE),
                       ["TRUE", "No", " y", "maybe", "", "fals", "f\0", "\udcff"]),
}


def labels_outcome(read):
    """The values `read()` gives as a list, or the text of its SchemaError."""
    try:
        return read().tolist()
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_vocabulary_reads_match_the_per_row_parse(data, tiny, quoted):
    """Label columns read through their vocabulary give the table, or the
    first error's text and file:line, of parsing each distinct cell."""
    rows = data.draw(st.integers(0, 25), label="rows")
    mostly = {name: st.sampled_from(labels) | st.sampled_from(labels + others)
              for name, (_, _, _, labels, others) in VOCABULARY_COLUMNS.items()}
    cells = {name: data.draw(st.lists(cell, min_size=rows, max_size=rows), label=name)
             for name, cell in mostly.items()}
    quote = '"' if quoted else ""  # a quoted file's cells are laid out by csv
    text = "\n".join([",".join(cells)] + [",".join(quote + cell + quote for cell in row)
                                          for row in zip(*cells.values())])
    with tempfile.TemporaryDirectory() as tmp, tiny_blocks() if tiny else contextlib.nullcontext():
        path = Path(tmp) / "labels.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape") + b"\n")
        cols = _Columns.read(path, list(cells))
        for name, (parse, dtype, known, _, _) in VOCABULARY_COLUMNS.items():
            parsed = labels_outcome(lambda: cols.labels(name, parse, dtype))
            assert labels_outcome(lambda: cols.labels(name, parse, dtype, known)) == parsed
            if rows == 0:
                assert cols.labels(name, parse, dtype, known).dtype == dtype


def test_reader_reads_a_pipe(tmp_path):
    obs = observation_table([("a", 7, 16, Cause.DEFAULT, RiskBand.SUBPRIME),
                             ("b", 1, 52, None, None)])
    write_observations_csv(tmp_path / "obs.csv", obs)
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        with open(write_end, "wb") as writer:
            writer.write((tmp_path / "obs.csv").read_bytes())
        assert read_observations_csv(f"/dev/fd/{read_end}") == obs


def test_payment_ids_merge_however_the_rows_are_laid_out(tmp_path):
    histories = {"L1": REPAID, "L2": ([500, 480, 460], [110, 110, 110], [20, 20, 20])}
    tidy = load_loan_data(*write_tape(tmp_path, {"L1": {}, "L2": {}}, histories))
    rows_of = {loan_id: [",".join(map(str, (loan_id, month, *cells)))
                         for month, cells in enumerate(zip(*history), start=1)]
               for loan_id, history in histories.items()}
    l1, l2 = rows_of["L1"], rows_of["L2"]
    messy = tmp_path / "messy.csv"
    messy.write_text("\n".join(["loan_id,trust_month,balance,payment,principal",
                                l1[2], l2[1], l1[0], l2[2], " L1 " + l1[3][2:], l2[0],
                                l1[1]]) + "\n", encoding="utf-8")
    back = load_loan_data(tmp_path / "loans.csv", messy)
    assert back.payments.start.tolist() == tidy.payments.start.tolist() == [0, 4]
    assert back.segment.tolist() == tidy.segment.tolist() == [0, 1]
    assert payment_rows(messy) == payment_rows(tmp_path / "payments.csv")
    assert folded(back.payments) == folded(tidy.payments) == (
        REPAID_FOLDED[0] + [0, 0, 0], REPAID_FOLDED[1] + ["Decimal('500.00')"],
        REPAID_FOLDED[2] + ["Decimal('60.00')"])
    assert build_observations(back) == build_observations(tidy)


def id_names(ids):
    """The loan ids of `_read_payments` by segment: by first row in the payments file."""
    return [_csvio._id_text(ids[:, k]) for k in range(ids.shape[1])]


def test_ids_match_after_stripping_whitespace_as_str_strip(tmp_path):
    """Ids padded with tabs, NBSP and other whitespace that `str.strip`
    removes share one loan and one segment, in both files and in blocks."""
    loans, payments = write_tape(tmp_path, {"L1": {}, "\tL2 ": {}, "\u00a0L3": {}}, {})
    payments.write_text("loan_id,trust_month,balance,payment,principal\n" + "".join(
        f"{loan_id},{month},10,10,10\n" for loan_id, month in [
            ("L1\t", 1), (" L1", 2), ("L2", 1), ("\u00a0L2\u3000", 2), ("\x1cL3\u00a0", 1),
            ("\tL3\t", 2)]), encoding="utf-8")
    for blocks in (contextlib.nullcontext(), tiny_blocks()):
        with blocks:
            tape = load_loan_data(loans, payments)
        assert tape.loan_id.tolist() == ["L1", "L2", "L3"]
        assert tape.segment.tolist() == [0, 1, 2]
        assert tape.payments.months.tolist() == [2, 2, 2]


_ID_CHARS = st.sampled_from(list("LAB09-") + ["\0", "\u00e9", "\u20ac"])
_PADDING = st.text(st.sampled_from([" ", "\t", "\u00a0", "\x1c", "\u3000", "\x85"]), max_size=2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(_ID_CHARS, max_size=17), min_size=1, max_size=6, unique=True),
       st.data())
def test_loan_ids_join_like_a_dict_of_stripped_strings(bases, data):
    """Segments are numbered by first row in the payments file and loans
    joined to them, as a dict of `str.strip`ped ids numbers them, at any
    block size: ids cross the 8- and 16-byte word edges and hold NUL,
    non-ASCII bytes and padding."""
    bases = list(dict.fromkeys(base.strip() for base in bases))
    padded = st.builds(lambda left, k, right: (left + bases[k] + right, k), _PADDING,
                       st.integers(0, len(bases) - 1), _PADDING)
    rows = data.draw(st.lists(padded, min_size=1, max_size=12), label="payment ids")
    loans = data.draw(st.lists(padded, max_size=6, unique_by=lambda cell: cell[1]), label="loans")
    months, lines = {}, []  # the rows of each id so far; the file's lines
    for cell, k in rows:
        months[k] = months.get(k, 0) + 1
        lines.append(f"{cell},{months[k]},10,10,10")
    with tempfile.TemporaryDirectory() as tmp:
        loans_path, payments_path = write_tape(Path(tmp), {cell: {} for cell, _ in loans}, {})
        data_bytes = ("loan_id,trust_month,balance,payment,principal\n" + "\n".join(lines)
                      + "\n").encode("utf-8")
        payments_path.write_bytes(data_bytes)
        size = data.draw(st.integers(1, len(data_bytes) + 1), label="block size")
        with tiny_blocks(), mock.patch.object(ingest, "_READ_BYTES", size):
            payments, ids, _ = ingest._read_payments(payments_path)
            tape = load_loan_data(loans_path, payments_path)
    segment_of = {}
    for _, k in rows:
        segment_of.setdefault(bases[k], len(segment_of))
    assert id_names(ids) == list(segment_of)
    assert payments.months.tolist() == [months[bases.index(b)] for b in segment_of]
    assert tape.loan_id.tolist() == [bases[k] for _, k in loans]
    assert tape.segment.tolist() == [segment_of.get(bases[k], -1) for _, k in loans]


def payments_file(path, rows):
    """A payments CSV of (loan_id, trust_month) rows, every amount 10."""
    path.write_text("loan_id,trust_month,balance,payment,principal\n" + "".join(
        f"{loan_id},{month},10,10,10\n" for loan_id, month in rows), encoding="utf-8")


def test_trust_month_gap_is_located_at_its_first_row(tmp_path):
    loans, payments = write_tape(tmp_path, {"L1": {}, "L2": {}}, {})
    payments_file(payments, [("L1", 1), ("L1", 2), ("L1", 4), ("L2", 1)])
    with pytest.raises(SchemaError, match=r"payments\.csv:4: loan L1 trust_month values are "
                                          r"not a contiguous 1\.\.3 sequence$"):
        load_loan_data(loans, payments)
    payments_file(payments, [("L1", 1), ("L1", 2**32 + 2), ("L2", 1)])  # 2 in 32 bits
    with pytest.raises(SchemaError, match=r"payments\.csv:3: loan L1 trust_month values are "
                                          r"not a contiguous 1\.\.2 sequence$"):
        load_loan_data(loans, payments)


def test_trust_month_gap_in_an_unsorted_file_is_located_at_its_own_line(tmp_path):
    loans, payments = write_tape(tmp_path, {"L1": {}, "L2": {}}, {})
    payments_file(payments, [("L2", 1), ("L1", 4), ("L2", 2), ("L1", 1), ("L1", 2)])
    with pytest.raises(SchemaError, match=r"payments\.csv:3: loan L1 trust_month values are "
                                          r"not a contiguous 1\.\.3 sequence$"):
        load_loan_data(loans, payments)
    payments_file(payments, [("L2", 1), ("L1", 1), ("L2", 1)])  # a repeated month
    with pytest.raises(SchemaError, match=r"payments\.csv:4: loan L2 trust_month values are "
                                          r"not a contiguous 1\.\.2 sequence$"):
        load_loan_data(loans, payments)
    # each month is its row's place counted from its segment's start, but rows
    # 2 and 3 lie outside their segments (L1: rows 1-2, L2: row 3)
    payments_file(payments, [("L1", 1), ("L2", 0), ("L1", 3)])
    with pytest.raises(SchemaError, match=r"payments\.csv:4: loan L1 trust_month values are "
                                          r"not a contiguous 1\.\.2 sequence$"):
        load_loan_data(loans, payments)


def test_text_columns_decode_one_string_per_distinct_cell(tmp_path, monkeypatch):
    """Label columns that hold only canonical labels decode nothing; other
    labels, and the text columns, decode one string per distinct cell."""
    asked = []
    original = _Columns.texts

    def recording(self, name, *rows):
        distinct = len({self.cell(name, i) for i in range(self.rows)})
        asked.append((name, len(rows[0]) if rows else self.rows, distinct))
        return original(self, name, *rows)

    monkeypatch.setattr(_Columns, "texts", recording)
    history = ([10000 - 10 * m for m in range(200)], [60] * 200, [10] * 200)
    load_loan_data(*write_tape(tmp_path, {"L1": {}}, {"L1": history}))
    obs = observation_table([(f"o{i}", 1, 2 + i % 7, (Cause.DEFAULT, None)[i % 2],
                              RiskBand.PRIME) for i in range(200)])
    write_observations_csv(tmp_path / "obs.csv", obs)
    assert read_observations_csv(tmp_path / "obs.csv") == obs
    labels = {"band", "cause", "event", "has_coborrower", "subvention"}
    assert {name for name, _, _ in asked} >= {"loan_id", "income_verification"}
    assert not {name for name, _, _ in asked} & labels, asked
    assert all(rows <= distinct for _, rows, distinct in asked), asked
    asked.clear()
    lines = (tmp_path / "obs.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    (tmp_path / "odd.csv").write_text("\n".join([lines[0]] + [",".join(
        [loan_id, "Prime", entry, exit_, {"0": "False", "1": "True"}[event], cause.upper()])
        for loan_id, _, entry, exit_, event, cause in rows]) + "\n", encoding="utf-8")
    assert read_observations_csv(tmp_path / "odd.csv") == obs
    assert {name for name, _, _ in asked} >= {"band", "cause", "event"}
    assert all(rows <= distinct for _, rows, distinct in asked), asked


# ---------------------------------------------------------------------------
# numeric cells: one word per eight digits, checked against the per-character pass


# Digits weigh most; the rest are the bytes the grammar turns on ('.', signs),
# the neighbours of '0'..'9', and bytes that int() or Decimal() would read.
_NUMBER_BYTES = st.sampled_from(list(b"0123456789" * 3 + b".-+/:_ NA") + [0x00, 0xC3, 0xA9, 0xFF])


@st.composite
def numeric_cell(draw):
    """A cell of 0-16 bytes: free bytes, or a sign, digits and 0-2 points anywhere."""
    if draw(st.booleans()):
        return bytes(draw(st.lists(_NUMBER_BYTES, max_size=16)))
    cell = draw(st.sampled_from([b"", b"-", b"+"])) + draw(
        st.text("0123456789", max_size=14)).encode()  # 9-12 digits take a second word
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(cell)))
        cell = cell[:at] + b"." + cell[at:]
    return cell


def assert_parses_like_the_oracle(buf, start, end):
    for point in (True, False):
        values, plain = _parse_plain(buf, start, end, point)
        want_values, want_plain = plain_cells(buf, start, end, point)
        assert plain.tolist() == want_plain.tolist()
        assert values.tolist() == want_values.tolist()


@settings(max_examples=400, deadline=None)
@given(st.lists(numeric_cell(), min_size=1, max_size=30))
def test_word_parse_matches_the_per_character_oracle(cells):
    """The first cell starts the buffer and the last ends just before the spare bytes."""
    buf = np.frombuffer(b",".join(cells) + bytes(_SPARE), np.uint8)
    size = np.array([len(cell) for cell in cells], dtype=np.int64)
    end = np.cumsum(size + 1) - 1
    assert_parses_like_the_oracle(buf, end - size, end)


READ_CELLS = given(st.lists(numeric_cell(), min_size=1, max_size=12), st.booleans(),
                   st.booleans(), st.booleans())


def check_read_cells(cells, quoted, crlf, final_newline):
    """Cells as `_Columns.read` lays them out; a quoted file's buffer starts with a cell.

    Each cell is found whole and row by row, and parses like the oracle both
    in one call and as `_Columns` parses a column, block by block.
    """
    newline = b"\r\n" if crlf else b"\n"
    quote = b'"' if quoted else b""
    text = newline.join([b"n,v"] + [b"%d,%s%s%s" % (i, quote, cell, quote)
                                    for i, cell in enumerate(cells)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        path.write_bytes(text + newline if final_newline else text)
        cols = _Columns.read(path, ["v", "n"])
    start, end = cols._field("v")
    assert [cols.buf[s:e].tobytes() for s, e in zip(start, end)] == cells
    assert [cols.buf[slice(*cols._field("v", i))].tobytes() for i in range(cols.rows)] == cells
    assert_parses_like_the_oracle(cols.buf, start, end)
    for point in (True, False):
        values, plain = cols._parse("v", point)
        want_values, want_plain = plain_cells(cols.buf, start, end, point)
        assert (values.tolist(), plain.tolist()) == (want_values.tolist(), want_plain.tolist())


@settings(max_examples=100, deadline=None)
@READ_CELLS
def test_word_parse_of_read_files_matches_the_oracle(cells, quoted, crlf, final_newline):
    check_read_cells(cells, quoted, crlf, final_newline)


def test_parse_reads_signs_long_integers_and_short_fractions():
    cells = [b"-1.5", b"+.5", b"5.", b"123456789012", b"-99999999.99", b"1234567890.12",
             b"12345678901.2", b"0", b"12345678", b"-12345678", b"+1234567", b"1234567.8",
             b"123456.78", b"-123456.78", b"1234567.", b"1.2.3", b"1234567890123", b"+", b".",
             b"", b"NA", b"1_0", b"1 ", b"/", b":"]
    buf = np.frombuffer(b",".join(cells) + bytes(_SPARE), np.uint8)
    size = np.array([len(cell) for cell in cells], dtype=np.int64)
    end = np.cumsum(size + 1) - 1
    values, plain = _parse_plain(buf, end - size, end, point=True)
    assert values[plain].tolist() == [-150, 50, 500, 12345678901200, -9999999999, 123456789012,
                                      1234567890120, 0, 1234567800, -1234567800, 123456700,
                                      123456780, 12345678, -12345678, 123456700]
    assert plain.tolist() == [True] * 15 + [False] * 10


ROWS = [[b"L1", b"1", b"300.00", b"110"], [b"L1", b"2", b"", b"110.5"],
        [b"L2", b"1", b"NA", b"-7"], [b"L2", b"2", b"0", b"12"]]


def oracle_fields(data: bytes):
    """(file line, fields) of each data row: lines end at LF, CRLF or a lone CR,
    and blank lines are skipped."""
    lines = re.split(rb"\r\n|\r|\n", data)
    return [(number, line.split(b",")) for number, line in enumerate(lines, start=1)
            if line][1:]


def offsets_dtype():
    """The grid dtype of a small file: int32, unless `_INT32_BYTES` is patched down."""
    return np.int32 if _csvio._INT32_BYTES == 1 << 31 else np.int64


def layout(ends, blank=False, extra=False, short=False):
    """ROWS under the header `a,b,c,d`, each line ended by the next of `ends`."""
    rows = [list(row) for row in ROWS]
    if extra:
        rows[1] += [b"x", b""]
    if short:
        rows[2] = rows[2][:3]
    lines = [b"a,b,c,d"] + [b",".join(row) for row in rows]
    if blank:
        lines[2:2] = [b""]
        lines.append(b"")
    return b"".join(line + ends[k % len(ends)] for k, line in enumerate(lines))


LINE_ENDS = pytest.mark.parametrize(
    "ends", [[b"\n"], [b"\r\n"], [b"\r"], [b"\n", b"\r\n", b"\r"]],
    ids=["lf", "crlf", "cr", "mixed"])
BLANK = pytest.mark.parametrize("blank", [False, True], ids=["", "blank"])
EXTRA = pytest.mark.parametrize("extra", [False, True], ids=["", "extra"])


@LINE_ENDS
@BLANK
@EXTRA
def test_reader_finds_the_same_cells_whichever_path_it_takes(tmp_path, ends, blank, extra):
    data = layout(ends, blank, extra)
    path = tmp_path / "rows.csv"
    path.write_bytes(data)
    cols = _Columns.read(path, ["d", "b", "c", "a"])
    assert cols.grid.dtype == offsets_dtype()
    # rows that do not follow the row before take jumps; the header always has one
    assert (cols.jumps.shape[1] > 1) == (blank or extra)
    want = oracle_fields(data)
    assert cols.line.tolist() == [number for number, _ in want]
    for j, name in enumerate("abcd"):
        start, end = cols._field(name)
        assert [cols.buf[s:e].tobytes() for s, e in zip(start, end)] == [
            fields[j] for _, fields in want]
    assert cols.money("c", allow_missing=True)[1].tolist() == [False, True, True, False]
    assert cols.money("d")[0].tolist() == [11000, 11050, -700, 1200]


@LINE_ENDS
@BLANK
def test_reader_locates_a_short_row_whichever_path_it_takes(tmp_path, ends, blank):
    data = layout(ends, blank, short=True)
    path = tmp_path / "rows.csv"
    path.write_bytes(data)
    line = oracle_fields(data)[2][0]
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}:{line}: "
                                          r"expected 4 fields, found 3$"):
        _Columns.read(path, ["a", "b"])


def test_reader_takes_no_grid_from_rows_whose_separators_only_add_up(tmp_path):
    """A long row and a short row hold as many separators as two full rows, and
    in a one-column file a blank line holds as many as a row."""
    path = tmp_path / "rows.csv"
    path.write_bytes(b"a,b\n1,2,3\n4\n")
    with pytest.raises(SchemaError, match=r"rows\.csv:3: expected 2 fields, found 1$"):
        _Columns.read(path, ["a", "b"])
    path.write_bytes(b"a\n1\n\n2\n")
    cols = _Columns.read(path, ["a"])
    assert cols.line.tolist() == [2, 4]
    assert cols.ints("a").tolist() == [1, 2]


DIGIT_GROUP_ERRORS = [
    ("trust_month", "\u0662", "column 'trust_month' has non-integer value '\u0662'"),
    ("trust_month", "1_0", "column 'trust_month' has non-integer value '1_0'"),
    ("balance", "1_000", "column 'balance' has non-numeric value '1_000'"),
    ("payment", "\uff15", "column 'payment' has non-numeric value '\uff15'"),
    ("principal", "1_0.5", "column 'principal' has non-numeric value '1_0.5'"),
]


@pytest.mark.parametrize("column, cell, message", DIGIT_GROUP_ERRORS)
def test_numeric_cells_reject_digit_groups_and_non_ascii_digits(tmp_path, column, cell,
                                                                 message):
    row = {"loan_id": "L1", "trust_month": "1", "balance": "100", "payment": "10",
           "principal": "10"}
    loans, payments = write_tape(tmp_path, {"L1": {}}, {})
    payments.write_text(",".join(row) + "\n" + ",".join({**row, column: cell}.values())
                        + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"payments\.csv:2: {re.escape(message)}$"):
        load_loan_data(loans, payments)


# ---------------------------------------------------------------------------
# cache-sized blocks: the separator scan and the numeric parse cross block edges


@contextlib.contextmanager
def tiny_blocks():
    """Payments read 16 bytes at a time, scan blocks of 16 bytes and parse
    blocks of 3 rows, so small files cross many block edges."""
    with mock.patch.object(ingest, "_READ_BYTES", 16), \
            mock.patch.multiple(_csvio, _SCAN_BYTES=16, _PARSE_ROWS=3):
        yield


@pytest.mark.parametrize("blocks", [contextlib.nullcontext, tiny_blocks])
def test_a_quoted_cell_past_the_csv_field_limit_is_a_schema_error(tmp_path, blocks):
    # the limit (131,072 characters) is process-wide state, so it is left as it is
    recoveries = tmp_path / "recoveries.csv"
    recoveries.write_text('age,recovery\n"' + "1" * 200_000 + '",0.5\n')
    loans, payments = write_tape(tmp_path, {"L1": {}}, {"L1": ([100], [10], [5])})
    with open(payments, "a") as fh:
        fh.write('"' + "L" * 140_000 + '",2,90,10,10\n')
    with blocks():
        with pytest.raises(SchemaError, match=r"recoveries\.csv:2: field larger than field limit"):
            _read_recovery_observations(recoveries)
        with pytest.raises(SchemaError, match=r"payments\.csv:3: field larger than field limit"):
            load_loan_data(loans, payments)


@settings(max_examples=100, deadline=None)
@READ_CELLS
def test_word_parse_of_read_files_matches_the_oracle_in_tiny_blocks(cells, quoted, crlf,
                                                                     final_newline):
    with tiny_blocks():
        check_read_cells(cells, quoted, crlf, final_newline)


@settings(max_examples=150, deadline=None)
@TEXT_FILES
def test_codes_and_labels_match_a_per_row_oracle_in_tiny_blocks(texts, quoted, final_newline):
    with tiny_blocks():
        check_codes_and_labels(texts, quoted, final_newline)


@LINE_ENDS
@BLANK
@EXTRA
def test_reader_finds_the_same_cells_in_tiny_blocks(tmp_path, ends, blank, extra):
    with tiny_blocks():
        test_reader_finds_the_same_cells_whichever_path_it_takes(tmp_path, ends, blank, extra)


@LINE_ENDS
@BLANK
def test_reader_locates_a_short_row_in_tiny_blocks(tmp_path, ends, blank):
    with tiny_blocks():
        test_reader_locates_a_short_row_whichever_path_it_takes(tmp_path, ends, blank)


def test_cell_errors_are_located_alike_in_tiny_blocks(tmp_path):
    with tiny_blocks():
        for k, (changes, message) in enumerate(LOAN_ERRORS):
            (tmp_path / f"loan{k}").mkdir()
            test_loan_attribute_errors_carry_location(tmp_path / f"loan{k}", changes, message)
        for k, cell in enumerate(NON_FINITE_CELLS):
            (tmp_path / f"money{k}").mkdir()
            test_non_finite_money_is_located_schema_error(tmp_path / f"money{k}", cell)
        for k, (column, cell, message) in enumerate(DIGIT_GROUP_ERRORS):
            (tmp_path / f"digits{k}").mkdir()
            test_numeric_cells_reject_digit_groups_and_non_ascii_digits(
                tmp_path / f"digits{k}", column, cell, message)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["", "no-final-newline"])
def test_every_separator_and_crlf_pair_may_straddle_a_scan_block(tmp_path, newline,
                                                                  final_newline):
    """The header's first name grows a byte at a time, so across 16 shifts every
    comma, newline and CR-LF pair of the rows below it falls on each side of a
    16-byte block edge; `d` is the last field, which ends at a line's CR."""
    path = tmp_path / "rows.csv"
    for shift in range(16):
        lines = [b"e" * (shift + 1) + b",a,b,c,d"] + [b"," + b",".join(row) for row in ROWS]
        data = newline.join(lines) + (newline if final_newline else b"")
        path.write_bytes(data)
        with tiny_blocks():
            cols = _Columns.read(path, ["a", "b", "c", "d"])
            assert cols.grid.dtype == offsets_dtype() and cols.jumps.shape == (3, 1)
            assert cols.line.tolist() == [2, 3, 4, 5]
            for j, name in enumerate("abcd"):
                start, end = cols._field(name)
                assert [cols.buf[s:e].tobytes() for s, e in zip(start, end)] == [
                    row[j] for row in ROWS]
                assert [cols.cell(name, i) for i in range(4)] == [row[j].decode() for row in ROWS]
            assert cols.money("c", allow_missing=True)[1].tolist() == [False, True, True, False]
            assert cols.money("d")[0].tolist() == [11000, 11050, -700, 1200]


@pytest.mark.parametrize("row", [0, 2, 3, 5, 6], ids=lambda row: f"row{row}")
def test_cells_at_parse_block_edges_parse_and_are_located(tmp_path, row):
    """With 3-row parse blocks, rows 0, 3 and 6 start a block and rows 2 and 5
    end one; row 6 is also the last row of the file."""
    path = tmp_path / "cells.csv"

    def write(cells):
        path.write_text("n,v\n" + "".join(f"{n},{v}\n" for n, v in cells), encoding="utf-8")

    cells = [(str(i), f"{i}.25") for i in range(7)]
    cells[row] = ("-123456789012", "1.005")  # plain, but two words; not plain: Decimal
    write(cells)
    with tiny_blocks():
        cols = _Columns.read(path, ["n", "v"])
        assert cols.ints("n").tolist() == [-123456789012 if i == row else i for i in range(7)]
        assert amounts(cols.money("v")) == [
            Decimal("1.005") if i == row else Decimal(f"{i}.25") for i in range(7)]
        for column, bad, message in [(0, "4x", "column 'n' has non-integer value '4x'"),
                                     (1, "4x", "column 'v' has non-numeric value '4x'")]:
            broken = list(cells)
            broken[row] = (bad, cells[row][1]) if column == 0 else (cells[row][0], bad)
            write(broken)
            cols = _Columns.read(path, ["n", "v"])
            with pytest.raises(SchemaError, match=rf"cells\.csv:{row + 2}: {message}$"):
                cols.ints("n") if column == 0 else cols.money("v")


SHAPES = pytest.mark.parametrize("shape", ["blank", "long", "quoted"])


def shaped_rows(shift, newline, final_newline, shape):
    """(file bytes, line of each row) of the straddle test's file, with a blank
    line after row 0 and at the end, two extra fields in row 1, or row 2's `a`
    cell quoted."""
    rows = [[b""] + row for row in ROWS]
    if shape == "long":
        rows[1] += [b"x", b""]
    if shape == "quoted":
        rows[2][1] = b'"' + rows[2][1] + b'"'
    lines = [b"e" * (shift + 1) + b",a,b,c,d"] + [b",".join(row) for row in rows]
    if shape == "blank":
        lines[2:2] = [b""]
        lines.append(b"")
    data = newline.join(lines) + (newline if final_newline else b"")
    return data, [2, 4, 5, 6] if shape == "blank" else [2, 3, 4, 5]


@SHAPES
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["", "no-final-newline"])
def test_rows_after_blank_lines_long_rows_or_quotes_may_straddle_a_scan_block(
        tmp_path, shape, newline, final_newline):
    """The straddle test above on the two other layouts: rows that take jumps
    (after a blank line or a long row) and a quoted file."""
    path = tmp_path / "rows.csv"
    for shift in range(16):
        data, lines = shaped_rows(shift, newline, final_newline, shape)
        path.write_bytes(data)
        with tiny_blocks():
            cols = _Columns.read(path, ["a", "b", "c", "d"])
            assert cols.grid.dtype == offsets_dtype() and cols.jumps.shape[1] > 1
            assert cols.line.tolist() == lines
            for j, name in enumerate("abcd"):
                start, end = cols._field(name)
                assert [cols.buf[s:e].tobytes() for s, e in zip(start, end)] == [
                    row[j] for row in ROWS]
                assert [cols.cell(name, i) for i in range(4)] == [row[j].decode() for row in ROWS]
                assert cols.texts(name, np.arange(4)) == [row[j].decode() for row in ROWS]
            assert cols.money("c", allow_missing=True)[1].tolist() == [False, True, True, False]
            assert cols.money("d")[0].tolist() == [11000, 11050, -700, 1200]


@SHAPES
@pytest.mark.parametrize("row", [0, 2, 3, 5, 6], ids=lambda row: f"row{row}")
def test_cells_at_parse_block_edges_after_blank_lines_long_rows_or_quotes(tmp_path, row,
                                                                          shape):
    """The parse-block test above with a blank line before every row, every row
    long, or every `v` cell quoted."""
    path = tmp_path / "cells.csv"
    line = 3 + 2 * row if shape == "blank" else row + 2
    text = {"blank": "\n{},{}\n", "long": "{},{},x\n", "quoted": '{},"{}"\n'}[shape]

    def write(cells):
        path.write_text("n,v\n" + "".join(text.format(*cell) for cell in cells),
                        encoding="utf-8")

    cells = [(str(i), f"{i}.25") for i in range(7)]
    cells[row] = ("-123456789012", "1.005")
    write(cells)
    with tiny_blocks():
        cols = _Columns.read(path, ["n", "v"])
        assert cols.ints("n").tolist() == [-123456789012 if i == row else i for i in range(7)]
        assert amounts(cols.money("v")) == [
            Decimal("1.005") if i == row else Decimal(f"{i}.25") for i in range(7)]
        assert cols.line_of(row) == line
        for column, message in [(0, "column 'n' has non-integer value '4x'"),
                                (1, "column 'v' has non-numeric value '4x'")]:
            broken = list(cells)
            broken[row] = ("4x", cells[row][1]) if column == 0 else (cells[row][0], "4x")
            write(broken)
            cols = _Columns.read(path, ["n", "v"])
            with pytest.raises(SchemaError, match=rf"cells\.csv:{line}: {message}$"):
                cols.ints("n") if column == 0 else cols.money("v")


# ---------------------------------------------------------------------------
# the payments file read in blocks: every cut between lines reads alike


STREAM_ROWS = [["L1", "1", "300.00", "110", "100"], ["L1", "2", "", "110.5", "100"],
               ["L1", "3", "0", "0", "100"], ["L2", "1", "250", "0", "0"],
               ["L2", "2", "250", "0", "0"], ["L2", "3", "NA", "0", "0"],
               ["L3", "1", "90.255", "45", "45"]]  # mils: balances turn Decimal in the last block


def stream_file(rows, shape) -> bytes:
    """Payments bytes of `rows`: LF, CRLF or bare-CR line ends, blank lines
    (after the header, mid-file and at the end), long rows, or a quoted cell
    on the next-to-last row, so it first appears in a later block."""
    lines = [",".join(ingest._PAYMENT_COLUMNS)] + [",".join(row) for row in rows]
    if shape == "blank":
        lines[1:1] = [""]
        lines[5:5] = ["", ""]
        lines.append("")
    if shape == "long":
        lines[1] += ",x"
        lines[4] += ",y,"
    if shape == "quote":
        lines[-2] = '"' + lines[-2].replace(",", '",', 1)
    newline = {"crlf": "\r\n", "cr": "\r"}.get(shape, "\n")
    return (newline.join(lines) + newline).encode("utf-8", "surrogateescape")


STREAM_SHAPES = ["lf", "crlf", "cr", "blank", "long", "quote"]


def changed(row, column, cell, rows=STREAM_ROWS):
    """A copy of `rows` with one cell changed; a cell of None cuts the row short there."""
    rows = [list(r) for r in rows]
    rows[row][column:] = [] if cell is None else [cell, *rows[row][column + 1:]]
    return rows


STREAM_ERRORS = {  # the rows, and the error they give without its location
    "gap": (changed(2, 1, "4"),
            r"loan L1 trust_month values are not a contiguous 1\.\.3 sequence"),
    "unsorted gap": (changed(6, 1, "4", [STREAM_ROWS[k] for k in (3, 0, 6, 4, 1, 5, 2)]),
                     r"loan L1 trust_month values are not a contiguous 1\.\.3 sequence"),
    "money": (changed(4, 3, "x1"), r"column 'payment' has non-numeric value 'x1'"),
    "short": (changed(4, 4, None), r"expected 5 fields, found 4"),
    "utf8": (changed(6, 0, "L\udcff3"), r"column 'loan_id': byte 0xff at position 1 is not UTF-8"),
}


def read_payments_in_blocks(path, size, loans=None):
    """`_read_payments` reading `size` bytes at a time (`loans`: the ids of a
    loans file to join): (payments, loan ids, segment of each loan) or the
    error text."""
    with mock.patch.object(ingest, "_READ_BYTES", size):
        try:
            return ingest._read_payments(path, *([] if loans is None else [loans]))
        except SchemaError as exc:
            return str(exc)


def same_payments(a, b) -> bool:
    """Whether two `_Payments` are the same, their exact amounts by repr."""
    return repr(a.exact) == repr(b.exact) and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tolist() == getattr(b, name).tolist()
        for name in ("start", "months", "flags", "first_balance", "paid"))


def same_read(a, b) -> bool:
    """Whether two `read_payments_in_blocks` results are the same."""
    return same_payments(a[0], b[0]) and id_names(a[1]) == id_names(b[1]) and (
        a[2].tolist() == b[2].tolist())


@pytest.mark.parametrize("shape", STREAM_SHAPES)
def test_payments_read_alike_at_every_block_size(tmp_path, shape):
    """Blocks of every size from one byte (less than a line) up to the whole
    file give the same payments and loan keys as one block."""
    path = tmp_path / "payments.csv"
    data = stream_file(STREAM_ROWS, shape)
    path.write_bytes(data)
    whole = read_payments_in_blocks(path, len(data) + 1)
    assert id_names(whole[1]) == ["L1", "L2", "L3"] and whole[0].months.tolist() == [3, 3, 1]
    balance = _Columns.read(path, ingest._PAYMENT_COLUMNS).money("balance", allow_missing=True)
    assert [str(v) for v in amounts(balance)] == [
        "300.00", "0.00", "0.00", "250.00", "250.00", "0.00", "90.255"]
    # Only L3, whose balance is not whole cents, keeps Decimals.
    assert list(whole[0].exact) == [2]
    assert folded(whole[0]) == ([0, NB, ZB | ZP, ZP, ZP, NB | ZP, 0],
                                ["Decimal('300.00')", "Decimal('250.00')", "Decimal('90.255')"],
                                ["Decimal('300.00')", "Decimal('0.00')", "Decimal('45.00')"])
    for size in range(1, len(data) + 1):
        assert same_read(read_payments_in_blocks(path, size), whole), size


@pytest.mark.parametrize("shape", STREAM_SHAPES)
@pytest.mark.parametrize("error", list(STREAM_ERRORS))
def test_payment_errors_read_alike_at_every_block_size(tmp_path, shape, error):
    """A month gap (in a sorted and an unsorted file), a bad money cell, a
    short row and a non-UTF-8 id in the last block give the same located
    error at every block size."""
    rows, message = STREAM_ERRORS[error]
    path = tmp_path / "payments.csv"
    data = stream_file(rows, shape)
    path.write_bytes(data)
    whole = read_payments_in_blocks(path, len(data) + 1)
    assert re.fullmatch(rf"{re.escape(str(path))}:\d+: {message}", whole), whole
    for size in range(1, len(data) + 1):
        assert read_payments_in_blocks(path, size) == whole, size


def test_payment_error_lines_follow_blank_lines_and_line_ends(tmp_path):
    """The lines those errors name: the row's own line in each layout."""
    path = tmp_path / "payments.csv"
    for shape, line in [("lf", 6), ("cr", 6), ("blank", 9), ("long", 6), ("quote", 6)]:
        path.write_bytes(stream_file(STREAM_ERRORS["money"][0], shape))
        assert read_payments_in_blocks(path, 8).startswith(f"{path}:{line}: "), shape
    path.write_bytes(stream_file(STREAM_ERRORS["unsorted gap"][0], "blank"))
    assert read_payments_in_blocks(path, 8).startswith(f"{path}:11: loan L1 ")


def test_payments_read_through_a_pipe_load_the_same_tape(tmp_path):
    """A pipe has no size to read ahead of: its blocks grow the columns as they come."""
    loans, payments = write_tape(tmp_path, {"L1": {}, "L2": {}, "L3": {}}, {})
    for shape in ("lf", "quote"):
        payments.write_bytes(stream_file(STREAM_ROWS, shape))
        tidy = load_loan_data(loans, payments)
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader, tiny_blocks():
            with open(write_end, "wb") as writer:
                writer.write(payments.read_bytes())
            piped = load_loan_data(loans, f"/dev/fd/{read_end}")
        assert same_payments(piped.payments, tidy.payments)
        assert piped.segment.tolist() == tidy.segment.tolist() == [0, 1, 2]
        assert build_observations(piped) == build_observations(tidy)


# Far past the decimal context's exponent limit, either way.
EXTREME_CELLS = ["1E+999999999", "-1E+999999999", "1E-999999999"]
EXTREME_CASES = [("alternating", None, 2)] + [
    (column, cell, 2 if column == "principal" else 0)
    for column in ("balance", "payment", "principal") for cell in EXTREME_CELLS]


@pytest.mark.parametrize("blocks", [contextlib.nullcontext, tiny_blocks], ids=["whole", "tiny"])
@pytest.mark.parametrize("column, cell, code", EXTREME_CASES)
def test_extreme_money_cells_end_in_a_located_exit_within_seconds(tmp_path, capsys, blocks,
                                                                  column, cell, code):
    """Amounts whose exact sum or comparison would span a million places or
    more: a principal alternating 1E+999999 and 0.01 over 2,000 rows, and one
    extreme cell in a loan's first month.  Only a principal sum can fail, and
    its error names the loan."""
    if cell is None:
        history = (["100"] * 2000, ["10"] * 2000, ["1E+999999", "0.01"] * 1000)
    else:
        history = [["300", "200", "100"], ["110", "110", "0"], ["100", "100", "0"]]
        history[("balance", "payment", "principal").index(column)][0] = cell
    loans, payments = write_tape(tmp_path, {"L0": {}, "L1": {}},
                                 {"L0": (["5"], ["5"], ["5"]), "L1": history})
    began = time.perf_counter()
    with blocks():
        rc = cli.main(["ingest", str(loans), str(payments), "--output-dir", str(tmp_path / "out")])
    assert time.perf_counter() - began < 5.0
    assert rc == code
    if code:
        limit = ("needs more than 40 digits to sum exactly" if cell == "1E-999999999"
                 else "sums past the decimal exponent limit")  # 1000 times 1E+999999 too
        assert capsys.readouterr().err == (f"error: {payments}: loan 'L1': column 'principal' "
                                           f"{limit}\n")


def merge_tape(directory, shape, extra=""):
    """A tape whose payments file holds 30 ids that its loans file lacks
    besides the loans' 10 ("absent"), or whose loans file is filtered ahead
    of its payments file to every other one of 40 ids ("filtered").  Loans
    have one to three months, their rows interleaved, and ids are padded
    with whitespace in some rows.  `extra` is appended to the payments file.
    Returns (loans, payments, payment ids by first row)."""
    ids = [f"X{i:02d}" for i in range(40)]
    loans = ids[:10] if shape == "absent" else ids[::2]
    order = ids[::3] + ids[1::3] + ids[2::3]  # first rows out of id order
    rows = [(loan_id, month) for month in (1, 2, 3) for k, loan_id in enumerate(order)
            if month <= 1 + k % 3]
    loans_path, payments = write_tape(directory, dict.fromkeys(loans, {}), {})
    pads = [(" ", ""), ("", " "), ("\t", "")]
    payments.write_text("loan_id,trust_month,balance,payment,principal\n" + "".join(
        f"{pads[m % 3][0]}{loan_id}{pads[m % 3][1]},{m},{200 - 100 * m},10,100\n"
        for loan_id, m in rows) + extra, encoding="utf-8")
    return loans_path, payments, order


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["absent", "filtered"]), st.data())
def test_ids_merge_alike_at_random_block_sizes(shape, data):
    """Payment ids that the loans file lacks, or a loans file filtered ahead
    of its payments file: a read at any block size gives the payments,
    segment numbers, first-row order and observations of one whole read."""
    with tempfile.TemporaryDirectory() as tmp:
        loans, payments, order = merge_tape(Path(tmp), shape)
        keys = _Columns.read(loans, ingest._LOAN_FIELDS).ids("loan_id")[2]
        size = payments.stat().st_size + 1
        whole, tape = read_payments_in_blocks(payments, size, keys), load_loan_data(loans, payments)
        size = data.draw(st.integers(1, size), label="block size")
        with tiny_blocks(), mock.patch.object(ingest, "_READ_BYTES", size):
            read = read_payments_in_blocks(payments, size, keys)
            blocks = load_loan_data(loans, payments)
    assert id_names(whole[1]) == order
    assert whole[2].tolist() == tape.segment.tolist() == [order.index(i) for i in tape.loan_id]
    assert whole[0].months.tolist() == [1 + k % 3 for k in range(40)]
    assert same_read(read, whole)
    assert same_payments(blocks.payments, tape.payments)
    assert blocks.segment.tolist() == tape.segment.tolist()
    assert build_observations(blocks) == build_observations(tape)


@pytest.mark.parametrize("blocks", [contextlib.nullcontext, tiny_blocks], ids=["whole", "tiny"])
@pytest.mark.parametrize("shape", ["absent", "filtered"])
def test_merge_errors_name_the_stripped_id(tmp_path, blocks, shape):
    """A trust-month gap and a principal sum past the exponent limit, of a
    padded id that the loans file lacks, name it stripped."""
    for extra, message in [("\tX41 ,1,10,10,10\n X41,3,10,10,10\n",
                            r":\d+: loan X41 trust_month values are not a contiguous 1\.\.2 "
                            r"sequence"),
                           (" X41,1,10,10,9E+999999\nX41\t,2,10,10,9E+999999\n",
                            r": loan 'X41': column 'principal' sums past the decimal exponent "
                            r"limit")]:
        loans, payments, _ = merge_tape(tmp_path, shape, extra)
        with blocks(), pytest.raises(SchemaError, match=rf"payments\.csv{message}$"):
            load_loan_data(loans, payments)


def test_a_bad_cell_is_reported_before_a_month_gap(tmp_path):
    """Trust months are checked once every block is read, so a bad cell on a
    later line wins over an earlier month gap."""
    loans, payments = write_tape(tmp_path, {"L1": {}, "L2": {}}, {})
    payments.write_text("loan_id,trust_month,balance,payment,principal\nL1,1,10,10,10\n"
                        "L1,3,10,10,10\nL2,1,10,x,10\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"payments\.csv:4: column 'payment' has "
                                          r"non-numeric value 'x'$"):
        load_loan_data(loans, payments)


def bounded_reads(limit=64):
    """`_fill` that fails past `limit` reads, so a read loop that never ends fails instead."""
    fill, calls = _csvio._fill, []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= limit, "the file is read without end"
        return fill(*args)
    return mock.patch.object(_csvio, "_fill", counted)


@pytest.mark.parametrize("empty", ["loans", "payments"])
def test_an_empty_file_misses_every_required_column(tmp_path, empty):
    """An empty file or pipe is one empty block, read whole or in blocks of
    any size: its header misses every required column."""
    loans, payments = write_tape(tmp_path, {"L1": {}}, {})
    path = {"loans": loans, "payments": payments}[empty]
    required = {"loans": ingest._LOAN_FIELDS, "payments": ingest._PAYMENT_COLUMNS}[empty]
    path.write_bytes(b"")
    missing = rf"{empty}\.csv: missing required column\(s\) loan_id, "
    for size in (None, 1, 16, ingest._READ_BYTES):
        with bounded_reads(), pytest.raises(SchemaError, match=missing):
            list(_csvio._Columns.blocks(path, required, size))
    with bounded_reads(), pytest.raises(SchemaError, match=missing):
        load_loan_data(loans, payments)
    with tiny_blocks(), bounded_reads(), pytest.raises(SchemaError, match=missing):
        load_loan_data(loans, payments)
    read_end, write_end = os.pipe()
    os.close(write_end)
    with open(read_end, "rb"), bounded_reads(), pytest.raises(
            SchemaError, match=rf"/dev/fd/{read_end}: missing required column\(s\) loan_id, "):
        list(_csvio._Columns.blocks(f"/dev/fd/{read_end}", required, 16))


def test_a_line_longer_than_the_block_is_read_in_doubling_steps(tmp_path):
    """A line with no end is read on in reads that double, so the reads (and
    the bytes copied) grow with the log of its length, not the length."""
    path = tmp_path / "payments.csv"
    path.write_bytes(b"x" * (1 << 16))
    with bounded_reads(limit=14), pytest.raises(SchemaError, match="missing required column"):
        list(_csvio._Columns.blocks(path, ingest._PAYMENT_COLUMNS, 16))


def int64_offsets():
    """Offsets held as int64 whatever the buffer's size, as in a buffer of 2 GiB or more."""
    return mock.patch.object(_csvio, "_INT32_BYTES", 0)


@LINE_ENDS
@BLANK
@EXTRA
def test_reader_finds_the_same_cells_with_int64_offsets(tmp_path, ends, blank, extra):
    with int64_offsets():
        test_reader_finds_the_same_cells_whichever_path_it_takes(tmp_path, ends, blank, extra)


@LINE_ENDS
@BLANK
def test_reader_locates_a_short_row_with_int64_offsets(tmp_path, ends, blank):
    with int64_offsets():
        test_reader_locates_a_short_row_whichever_path_it_takes(tmp_path, ends, blank)


@pytest.mark.parametrize("shape", ["grid", "blank", "long", "quoted"])
def test_block_edges_read_alike_with_int64_offsets(tmp_path, shape):
    with int64_offsets():
        for k, (newline, final_newline) in enumerate([(b"\n", True), (b"\r\n", False)]):
            (tmp_path / f"scan{k}").mkdir()
            if shape == "grid":
                test_every_separator_and_crlf_pair_may_straddle_a_scan_block(
                    tmp_path / f"scan{k}", newline, final_newline)
            else:
                test_rows_after_blank_lines_long_rows_or_quotes_may_straddle_a_scan_block(
                    tmp_path / f"scan{k}", shape, newline, final_newline)
        for row in (0, 2, 3, 5, 6):
            (tmp_path / f"parse{row}").mkdir()
            if shape == "grid":
                test_cells_at_parse_block_edges_parse_and_are_located(tmp_path / f"parse{row}", row)
            else:
                test_cells_at_parse_block_edges_after_blank_lines_long_rows_or_quotes(
                    tmp_path / f"parse{row}", row, shape)


def test_cell_errors_are_located_alike_with_int64_offsets(tmp_path):
    with int64_offsets():
        test_cell_errors_are_located_alike_in_tiny_blocks(tmp_path)


def test_only_a_cell_that_ends_its_file_line_loses_a_closing_cr(tmp_path):
    """A CRLF line's last cell ends at its CR; a quoted cell that ends in CR keeps
    it, and so does a long row's last wanted cell, which ends at a comma."""
    path = tmp_path / "cr.csv"
    path.write_bytes(b'a,b\r\n"x\r","y\r"\r\n1,2\r\n')
    cols = _Columns.read(path, ["b", "a"])
    assert [cols.cell("b", i) for i in range(2)] == ["y\r", "2"]
    assert cols.texts("a", np.arange(2)) == ["x\r", "1"]
    path.write_bytes(b"a,b\r\nx,y\r\n1,2,z\r\n")
    cols = _Columns.read(path, ["b"])
    assert cols.texts("b", np.arange(2)) == ["y", "2"]
    assert cols.jumps.shape == (3, 1)  # the long row is the last: no row follows it


def test_cells_that_are_not_plain_derive_only_their_own_bounds(tmp_path, monkeypatch):
    """Money, ints, cell, loc and texts derive the bounds of the rows they ask
    for: a column of cells none of which is plain costs a bounded number of
    derived bounds per row, not a whole column per cell."""
    rows = 500
    path = tmp_path / "odd.csv"
    path.write_text("id,v,n\n" + "".join(f"L{i % 7},1.005,+{i}x\n" for i in range(rows)),
                    encoding="utf-8")
    cols = _Columns.read(path, ["id", "v", "n"])
    derived = []
    field = _Columns._field

    def counting(self, name, rows=slice(None)):
        start, end = field(self, name, rows)
        derived.append(np.size(start))
        return start, end

    monkeypatch.setattr(_Columns, "_field", counting)
    assert amounts(cols.money("v", allow_missing=True)) == [Decimal("1.005")] * rows
    assert sum(derived) <= 3 * rows
    derived.clear()
    assert cols.texts("id", np.arange(0, rows, 50)).count("L0") == 2
    assert cols.loc(rows - 1).endswith(f"odd.csv:{rows + 1}")
    assert sum(derived) == rows // 50
    with pytest.raises(SchemaError, match=r"odd\.csv:2: column 'n' has non-integer value '\+0x'"):
        cols.ints("n")


def peak_of_load(loans, payments) -> int:
    """The tracemalloc peak of one `load_loan_data`, in bytes."""
    tracemalloc.start()
    try:
        load_loan_data(loans, payments)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def guard_tape(directory):
    """A tape of 2,000 loans and 50,000 payment rows: (loans, payments, payments size)."""
    months = 25
    history = ([f"{20000 - 500 * m}.{m:02d}" for m in range(months)], ["512.34"] * months,
               [f"{480 + m}.5" for m in range(months)])
    loans = {f"L{i:06d}": {} for i in range(2000)}
    paths = write_tape(directory, loans, dict.fromkeys(loans, history))
    size = paths[1].stat().st_size
    assert 50000 * 30 < size < 50000 * 50  # about 50k rows of about 40 bytes
    return (*paths, size)


def test_ingest_peak_memory_stays_a_small_multiple_of_the_payments_file(tmp_path):
    """On the guard tape, the traced peak of `load_loan_data` stays below 2.8
    times the payments file's size.  With each 512 KiB block folded into a
    flag byte per row and two sums per loan it peaks at 2.29 times, which
    leaves 0.5 for numpy and allocator versions; three money columns per
    row peaked at 3.10 times, the whole file's buffer and int32 separator
    grid at 4.40 times, an int64 grid at 5.42 times, and a cell table beside
    the grid with whole-column parses at 7.15 times (see CHANGES.md)."""
    loans, payments, size = guard_tape(tmp_path)
    assert peak_of_load(loans, payments) < 2.8 * size


@pytest.mark.parametrize("shape, bound", [("blank", 2.8), ("long", 2.8), ("quoted", 16.0),
                                          ("mils", 2.5), ("padded", 2.5)])
def test_ingest_peak_memory_holds_on_blank_lines_long_rows_and_quotes(tmp_path, shape, bound):
    """The guard tape with a trailing blank line or one long row peaks like the
    plain tape (2.29 times; 3.09 with three money columns per row, 4.40 read
    whole, 6.71 while such files kept a table of every cell).  With one
    quoted cell the file goes through `csv.reader`, whose string per cell
    peaks at 14.3 times when the strings are laid out 2^15 rows at a time
    (27.5 times for the whole file at once, 32.5 with the cell table); the
    bound leaves 1.7 for csv, numpy and allocator versions.  One principal
    of mils on the first row is kept as a Decimal for its own loan only:
    1.98 times, as the plain tape (numpy 2.4), and the bound leaves 0.5.
    While it turned every loan's sums into Decimals, and each later block's
    principal with them, it peaked at 3.38 times, and with every row's
    three money cells as Decimals at 12.78 times.  With every trust_month
    and money cell padded by a space, each distinct padded cell parsed once,
    it peaks at 2.06 times (2.02 while padded cells were parsed row by row),
    and the bound leaves 0.44."""
    loans, payments, size = guard_tape(tmp_path)
    text = payments.read_bytes()
    if shape == "blank":
        text += b"\n"
    elif shape == "mils":
        text = text.replace(b",480.5\n", b",480.505\n", 1)
    elif shape == "padded":  # every trust_month and money cell
        header, rows = text.split(b"\n", 1)
        text = header + b"\n" + rows.replace(b",", b", ")
    else:
        header, first, rest = text.split(b"\n", 2)
        first = first + b",extra" if shape == "long" else b'"' + first.replace(b",", b'",', 1)
        text = b"\n".join([header, first, rest])
    payments.write_bytes(text)
    assert peak_of_load(loans, payments) < bound * size


def test_build_observations_peak_stays_a_few_bytes_per_payment_row(tmp_path):
    """On the guard tape, the traced peak of `build_observations` above the
    tape it is given stays below 8.0 bytes per payment row: 6.52 measured
    (mostly the per-loan columns, at 25 rows a loan, and a few one-byte
    masks), which leaves 1.5 for numpy and allocator versions.  Outcomes
    from three per-row money columns peaked at 6.85, and with row-length
    int64 index arrays at 32.0.  One int64 temporary as long as the payment
    rows would add 8."""
    loans, payments, _ = guard_tape(tmp_path)
    tape = load_loan_data(loans, payments)
    tracemalloc.start()
    try:
        build_observations(tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 50000  # the guard tape's payment rows


def test_loaded_payments_hold_a_byte_per_row_and_a_few_per_loan(tmp_path):
    """What the load holds of the payments file: one flag byte per row, and
    per loan its segment's start and length, first balance and principal
    paid (8 bytes each), so no per-row money column can come back.  A loan
    holding an amount that cents cannot hold adds one entry of two Decimals,
    and no column holds objects."""
    loans, payments, _ = guard_tape(tmp_path)
    for shape in ("cents", "mils"):
        if shape == "mils":  # the first loan's first principal is not whole cents
            payments.write_bytes(payments.read_bytes().replace(b",480.5\n", b",480.505\n", 1))
        held = load_loan_data(loans, payments).payments
        columns = [getattr(held, name) for name in held.__dataclass_fields__ if name != "exact"]
        assert held.first_balance.dtype == held.paid.dtype == np.int64
        assert all(column.dtype != object for column in columns)
        assert list(held.exact) == ([0] if shape == "mils" else [])
        assert all(isinstance(amount, Decimal) for pair in held.exact.values() for amount in pair)
        assert sum(column.nbytes for column in columns) <= 50000 + 32 * 2000, shape


# ---------------------------------------------------------------------------
# the separator scan against a bytes oracle


def scan_oracle(data: bytes):
    """(separator offsets, lines, CR-LF pairs, CRs) of `data`, by bytes methods."""
    return ([k for k, byte in enumerate(data) if byte in b",\n"], data.count(b"\n"),
            data.count(b"\r\n"), data.count(b"\r"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"bc", b",", b"\r", b"\n", b"\r\n"]), max_size=40)
       .map(b"".join))
@example(b"a,b\r\nc,d\r\n")  # CR-LF pairs, split across blocks at some scan size
@example(b"a,b\rc,d\r\n,\r")  # bare CRs, one at the end of the file
@example(b"x,y\r\nz,w")  # no final newline
@example(b"\r")
@example(b"")
def test_separator_scan_matches_a_bytes_oracle_at_every_scan_size(data):
    """Lines, CRs before a newline, CRs and separator offsets: an undercount
    would still read every file right, through the bare-CR rewrite."""
    for size in range(1, 33):
        with mock.patch.object(_csvio, "_SCAN_BYTES", size):
            _, found, lines, crlf, crs = _csvio._separators(bytearray(data + bytes(_SPARE)))
        assert (found.tolist(), lines, crlf, crs) == scan_oracle(data), size


@pytest.mark.parametrize("final_newline", [True, False], ids=["", "no-final-newline"])
def test_a_crlf_file_never_takes_the_bare_cr_rewrite(tmp_path, final_newline):
    """Each block is scanned once unless a bare CR is rewritten, so a CR-LF
    file makes one `_separators` call per block at every scan size."""
    path = tmp_path / "rows.csv"
    lines = [b"e,a,b,c,d"] + [b"," + b",".join(row) for row in ROWS]
    path.write_bytes(b"\r\n".join(lines) + (b"\r\n" if final_newline else b""))
    for size in range(1, 33):
        with mock.patch.object(_csvio, "_SCAN_BYTES", size), \
                mock.patch.object(_csvio, "_separators", wraps=_csvio._separators) as scan:
            cols = _Columns.read(path, ["a", "b", "c", "d"])
            assert scan.call_count == 1 and cols.cr == (1 if final_newline else None)
            assert [cols.cell("d", i) for i in range(4)] == [row[3].decode() for row in ROWS]
            blocks = list(_Columns.blocks(path, ["a", "b", "c", "d"], 16))
            assert scan.call_count == 1 + len(blocks) > 2
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r", 1))  # the header ends in a bare CR
    with mock.patch.object(_csvio, "_separators", wraps=_csvio._separators) as scan:
        _Columns.read(path, ["a", "b", "c", "d"])
        assert scan.call_count == 2


# ---------------------------------------------------------------------------
# `numbers` reads as `labels` does, without grouping

# Cells in a numeric column: plain, read by the parse, or rejected by it.
NUMBER_CELLS = ["7", "-7", "+7", "007", "0", "-0", "123456789012", "1234567890123", "1e3",
                " 7 ", "7.0", "nan", "inf", "-inf", "", "1_0", "٧", b"\xff7", "x"]


def parse_outcome(read):
    """The arrays `read()` returns, or the text of the SchemaError it raises."""
    try:
        return [np.asarray(values) for values in read()]
    except SchemaError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        assert np.array_equal(np.signbit(a), np.signbit(b)) if a.dtype.kind == "f" else True


def with_cells(path, cells):
    """`path` with cell (row, column) of its data rows replaced by each text or bytes."""
    lines = [line.split(b",") for line in path.read_bytes().splitlines()]
    for (row, column), cell in cells.items():
        lines[row + 1][column] = cell if isinstance(cell, bytes) else cell.encode("utf-8")
    changed = path.with_suffix(".changed")
    changed.write_bytes(b"\r\n".join(b",".join(line) for line in lines) + b"\r\n")
    return changed


CURVE_GROUPS = [(("age", "events", "at_risk"), None, np.int64),
                (("hazard", "var", "ci_lo", "ci_hi"), _csvio._parse_float, np.float64),
                (("interpolated",), None, np.bool_)]


@pytest.mark.parametrize("cell", NUMBER_CELLS, ids=repr)
def test_numbers_read_curve_and_recovery_cells_as_labels_does(tmp_path, cell):
    """Each cell in each numeric column of a curve file, alone and with a
    later column rejecting an earlier row, and in the recoveries file: the
    values (NaN and the sign of zero too) or the first error, with its
    file:line, of `numbers` equal those of `labels` over the same columns."""
    from cshazard.estimator import _CURVE_COLUMNS, _whole_cell
    curve = tmp_path / "curve.csv"
    write_curve_csv(curve, staged_curve("prime", 3, 0.05, ages=range(1, 6)))
    recoveries = tmp_path / "recoveries.csv"
    recoveries.write_text("age,recovery\n3,0.5\n5,0.25\n3,0.125\n")
    cases = [(recoveries, ["age", "recovery"], (("recovery",), _csvio._parse_float, float),
              {(row, 1): cell}) for row in (0, 2)]
    for names, parse, dtype in CURVE_GROUPS:
        for name in names:
            column = _CURVE_COLUMNS.index(name)
            for changes in ({(2, column): cell}, {(3, column): cell, (1, 9): "2x"},
                            {(4, column): cell, (0, 3): "x"}):
                cases.append((curve, _CURVE_COLUMNS, (names, parse or _whole_cell, dtype),
                              changes))
    for blocks in (contextlib.nullcontext(), tiny_blocks()):
        with blocks:
            for path, required, (names, parse, dtype), changes in cases:
                cols = _Columns.read(with_cells(path, changes), required)
                want = parse_outcome(lambda: [cols.labels(name, parse, dtype) for name in names])
                assert_same_outcome(parse_outcome(lambda: cols.numbers(names, parse, dtype)), want)
                if path == curve:  # the whole read, group after group, as before
                    want = parse_outcome(lambda: [cols.labels(name, p or _whole_cell, d)
                                                  for ns, p, d in CURVE_GROUPS for name in ns])
                    got = parse_outcome(lambda: [row for ns, p, d in CURVE_GROUPS
                                                 for row in cols.numbers(ns, p or _whole_cell, d)])
                    assert_same_outcome(got, want)


# ---------------------------------------------------------------------------
# one routine for the cells the byte parsers leave, checked row by row


# Cells of every kind a numeric reader meets: plain, padded, signed, mils,
# exponents, empty and NA, digit groups, non-ASCII, not UTF-8, out of range.
READER_CELLS = [b"7", b"-7", b"+7", b"-0", b"12.34", b"-0.00", b" 12", b"12 ", b" 3.5 ", b"1.005",
                b"-2.125", b"1e3", b"2.5E-1", b"", b"NA", b" NA", b"na", b"1_0",
                "٣".encode(), "é".encode(), b"\xff", b"4\xe9", b"99999999999999999999",
                b"-9223372036854775808", b"9223372036854775808", b"nan", b"-inf", b"x",
                b"1234567890123"]


@st.composite
def reader_cell(draw):
    """One of READER_CELLS, or a plain number of 1-12 digits, signed or not,
    with 0-2 digits after a point."""
    if draw(st.booleans()):
        return draw(st.sampled_from(READER_CELLS))
    digits = draw(st.text("0123456789", min_size=1, max_size=12))
    point = draw(st.integers(0, min(2, len(digits) - 1)))
    cell = digits[:len(digits) - point] + ("." + digits[len(digits) - point:] if point else "")
    return (draw(st.sampled_from(["", "-", "+"])) + cell).encode()


def oracle_outcome(path, found):
    """The values of a `row_by_row` result, or its error as a reader words it."""
    values, error = found
    return values if error is None else f"{path}:{error[0] + 2}: {error[1]}"


def read_outcome(read):
    """What `read()` returns, or the text of its SchemaError."""
    try:
        return read()
    except SchemaError as exc:
        return str(exc)


def money_outcome(path, cells, allow_missing):
    """(cents, missing, exact amounts' reprs by row) of a money column by
    the row-by-row oracle, or its error's text."""
    amounts = oracle_outcome(path, row_by_row(cells, money_rule(allow_missing), "x"))
    if isinstance(amounts, str):
        return amounts
    cents = [0 if a is None else whole_cents(a) for a in amounts]
    exact = {k: repr(a) for k, a in enumerate(amounts) if a is not None and cents[k] is None}
    cents = [(-1 if amounts[k].is_signed() else 1) if k in exact else c
             for k, c in enumerate(cents)]
    return cents, [a is None for a in amounts], exact


def float_bits(values):
    return np.asarray(values, np.float64).view(np.int64).tolist()


def check_readers_against_the_oracle(path, rows):
    xs, ys = [x for x, _ in rows], [y for _, y in rows]
    cols = _Columns.read(path, ["x", "y"])
    assert read_outcome(lambda: cols.ints("x").tolist()) == oracle_outcome(
        path, row_by_row(xs, int_rule, "x"))
    for allow_missing in (False, True):
        got = read_outcome(lambda: cols.money("x", allow_missing))
        if not isinstance(got, str):
            cents, missing, exact = got
            got = cents.tolist(), missing.tolist(), {k: repr(a) for k, a in exact.items()}
        assert got == money_outcome(path, xs, allow_missing)
    want = oracle_outcome(path, row_by_row(xs, apr_rule, "x"))
    assert read_outcome(lambda: float_bits(cols.aprs("x"))) == (
        want if isinstance(want, str) else float_bits(want))
    parse = parse_rule(_csvio._parse_float)
    want = oracle_outcome(path, row_by_row(xs, parse, "x"))
    assert read_outcome(lambda: float_bits(cols.labels("x", _csvio._parse_float, np.float64))) \
        == (want if isinstance(want, str) else float_bits(want))
    want = want if isinstance(want, str) else oracle_outcome(path, row_by_row(ys, parse, "y"))
    if not isinstance(want, str):
        want = float_bits(oracle_outcome(path, row_by_row(xs, parse, "x")) + want)
    assert read_outcome(lambda: float_bits(
        cols.numbers(("x", "y"), _csvio._parse_float, np.float64).ravel())) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(reader_cell(), reader_cell()), min_size=1, max_size=12), st.booleans())
def test_every_reader_matches_the_row_by_row_oracle(rows, tiny):
    """ints, money (cents, missing flags and exact amounts), aprs, labels and
    numbers give the oracle's values, or its first error's file:line and
    text, whether the file is read whole or in tiny blocks."""
    with tempfile.TemporaryDirectory() as tmp, tiny_blocks() if tiny else contextlib.nullcontext():
        path = Path(tmp) / "cells.csv"
        path.write_bytes(b"n,x,y\n" + b"".join(b"%d,%s,%s\n" % (i, x, y)
                                               for i, (x, y) in enumerate(rows)))
        check_readers_against_the_oracle(path, rows)


def test_every_reader_reports_the_first_bad_cell_in_row_order(tmp_path):
    """A cell the parse rejects at line 3 is reported before a cell that is
    not UTF-8 at line 5, by every reader."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n1,x\n4x,y\n3,z\n\xff,w\n")
    cols = _Columns.read(path, ["a", "b"])
    reads = [("column 'a' has non-integer value '4x'", lambda: cols.ints("a")),
             ("column 'a' has non-numeric value '4x'", lambda: cols.money("a")),
             ("column 'a' has non-numeric value '4x'", lambda: cols.money("a", True)),
             ("column 'a': non-numeric value '4x'", lambda: cols.aprs("a")),
             ("column 'a': '4x' is not a valid number",
              lambda: cols.labels("a", _csvio._parse_float, float)),
             ("column 'a': '4x' is not a valid number",
              lambda: cols.numbers(("a",), _csvio._parse_float, float))]
    for message, read in reads:
        assert read_outcome(read) == f"{path}:3: {message}"


def test_padded_trust_months_parse_once_per_distinct_cell(tmp_path, monkeypatch):
    """A block whose padded trust months hold d distinct cells calls the int
    parse d times, however many rows hold them."""
    months, loans = 30, 40
    path = tmp_path / "payments.csv"
    payments_file(path, [(f"L{loan}", f" {month}" if loan % 2 else month)
                         for loan in range(loans) for month in range(1, months + 1)])
    calls = []
    parse = _csvio._parse_int
    monkeypatch.setattr(_csvio, "_parse_int", lambda raw: calls.append(raw) or parse(raw))
    cols = _Columns.read(path, ingest._PAYMENT_COLUMNS)
    assert cols.ints("trust_month").tolist() == list(range(1, months + 1)) * loans
    assert sorted(calls) == sorted(f" {month}" for month in range(1, months + 1))
