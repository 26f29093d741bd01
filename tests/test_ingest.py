"""Loan ingestion: outcome classification, filters, banding, CSV round trips.

The golden fixtures below are hand-traced: for each payment-vector triple the
expected outcome and trust month were worked out on paper from the
classification rules (principal test first, then the three-consecutive-zeros
scan, else censored at the last month).  They run through the CSV path every
tape takes: `load_loan_data`, then `build_observations`.
"""
from __future__ import annotations

import ast
import csv
import os
import re
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import observation_table, staged_curve, write_tape
from oracles import decimal_outcome

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
    _Columns,
    write_observations_csv,
)
from cshazard.riskmodel import Cause


def money(v):
    return None if v is None else Decimal(str(v))


def payment_rows(tape):
    """The tape's payment rows as (balance or None, payment, principal) in currency units."""
    p = tape.payments
    balance, payment, principal = (
        [c if isinstance(c, Decimal) else Decimal(c).scaleb(-2) for c in column.tolist()]
        for column in (p.balance, p.payment, p.principal))
    balance = [None if gone else b for b, gone in zip(balance, p.balance_missing.tolist())]
    return list(zip(balance, payment, principal))


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
    assert payment_rows(back) == rows(*histories["L1"]) + rows(*histories["L2"])


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


def test_money_cells_keep_exact_values(tmp_path):
    cells = (["100.00", "1.5E+1", ""], ["5", "0.005", "0"], ["90.00", "+.50", "0.001"])
    back = load_loan_data(*write_tape(tmp_path, {"L1": {}}, {"L1": cells}))
    assert back.payments.payment.dtype == object  # a mil is not whole cents
    assert payment_rows(back) == [(Decimal("100"), Decimal("5"), Decimal("90")),
                                  (Decimal("15"), Decimal("0.005"), Decimal("0.5")),
                                  (None, Decimal("0"), Decimal("0.001"))]


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "sNaN"])
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
    payments.write_text(text.replace("\n", "\r\n\r\n", 2), newline="")
    assert payment_rows(load_loan_data(loans, payments)) == rows(*REPAID)
    payments.write_text(text.replace("\n", "\r"), newline="")
    assert payment_rows(load_loan_data(loans, payments)) == rows(*REPAID)

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
    """Every CSV input goes through `_Columns`; csv reads only its quoted files."""
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
    assert found == ["ingest.py:_Columns._read_quoted"]


def test_reader_ignores_extra_fields_and_rejects_short_rows(tmp_path):
    loans, payments = write_tape(tmp_path, {"L1": {}}, {})
    expected = rows([300, 200], [110, 110], [100, 100])
    payments.write_text("loan_id,trust_month,balance,payment,principal\n"
                        "L1,1,300,110,100,extra,\nL1,2,200,110,100\n", encoding="utf-8")
    assert payment_rows(load_loan_data(loans, payments)) == expected  # extra fields are ignored
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("principal,note,trust_month,payment,balance,loan_id\n"
                         "100,x,2,110,200,L1\n100,y,1,110,300,L1\n", encoding="utf-8")
    assert payment_rows(load_loan_data(loans, reordered)) == expected
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


@pytest.mark.parametrize("changes, message", [
    ({"apr_pct": "nan"}, "column 'apr_pct': value 'nan' is not a finite APR >= 0"),
    ({"apr_pct": "-1.5"}, "column 'apr_pct': value '-1.5' is not a finite APR >= 0"),
    ({"original_amount": "0"}, "column 'original_amount' must be positive"),
    ({"loan_age_at_entry": "-3"}, "column 'loan_age_at_entry' must be >= 0"),
], ids=loan_case_id)
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


@settings(max_examples=150, deadline=None)
@given(text_column(), st.booleans(), st.booleans())
def test_codes_and_labels_match_a_per_row_oracle(texts, quoted, final_newline):
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
    assert payment_rows(back) == payment_rows(tidy)
    assert build_observations(back) == build_observations(tidy)


def test_text_columns_decode_one_string_per_distinct_cell(tmp_path, monkeypatch):
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
    assert {name for name, _, _ in asked} >= {"loan_id", "band", "cause", "event"}
    assert all(rows <= distinct for _, rows, distinct in asked), asked
