"""Loan ingestion: outcome classification, filters, banding, CSV round trips.

The golden fixtures below are hand-traced: for each payment-vector triple the
expected outcome kind and trust month were worked out on paper from the
classification rules (principal test first, then the three-consecutive-zeros
scan, else censored at the last month).
"""
from __future__ import annotations

import re
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_tape
from oracles import decimal_outcome

from cshazard.errors import SchemaError
from cshazard.ingest import (
    FilterPolicy,
    LoanOutcome,
    ObservedLoan,
    OutcomeKind,
    PaymentHistory,
    RiskBand,
    build_observations,
    classify_risk_band,
    determine_outcome,
    filter_loans,
    load_loan_data,
    read_observations_csv,
    write_observations_csv,
)
from cshazard.riskmodel import Cause


def money(v):
    return None if v is None else Decimal(str(v))


def hist(balance, payment, principal):
    return PaymentHistory(
        balance=tuple(money(v) for v in balance),
        payment=tuple(money(v) for v in payment),
        principal=tuple(money(v) for v in principal),
    )


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


REPAID = ([300, 200, 100, 0], [110, 110, 110, 0], [100, 100, 100, 0])


# ---------------------------------------------------------------------------
# outcome classification golden fixtures (hand-traced)

GOLDEN = [
    # (id, balance, payment, principal, kind, month)
    ("repaid-first-zero-balance",
     [300, 200, 100, 0], [110, 110, 110, 0], [100, 100, 100, 0],
     OutcomeKind.REPAID, 4),
    ("default-run-after-first-payment",
     [500, 500, 500, 500, 500], [110, 0, 0, 0, 110], [10, 0, 0, 0, 10],
     OutcomeKind.DEFAULTED, 2),
    ("censored-alternating-zeros",
     [500, 500, 500, 500, 500], [110, 0, 110, 0, 110], [10, 0, 10, 0, 10],
     OutcomeKind.CENSORED, 5),
    ("pad-tie-counts-as-repaid",  # 90 paid + 10 pad == 100 first balance
     [100, 50, 10], [40, 40, 10], [40, 40, 10],
     OutcomeKind.REPAID, 3),
    ("one-cent-short-of-pad-tie",  # 89.99 + 10 = 99.99 < 100
     [100, 60, 20], [30, 30, "29.99"], [30, 30, "29.99"],
     OutcomeKind.CENSORED, 3),
    ("principal-test-beats-zero-run",  # repaid in full, then three zero months
     [100, 0, 0, 0], [100, 0, 0, 0], [100, 0, 0, 0],
     OutcomeKind.REPAID, 2),
    ("default-from-month-one",
     [500, 500, 500, 500], [0, 0, 0, 120], [0, 0, 0, 20],
     OutcomeKind.DEFAULTED, 1),
    ("broken-pair-then-full-run",  # zeros at 1,2 reset by month 3; run is 4..6
     [400, 400, 400, 400, 400, 400], [0, 0, 50, 0, 0, 0], [0, 0, 5, 0, 0, 0],
     OutcomeKind.DEFAULTED, 4),
    ("two-zeros-never-three",
     [400, 400, 400], [0, 0, 50], [0, 0, 5],
     OutcomeKind.CENSORED, 3),
    ("run-at-the-tail",
     [400, 400, 400, 400], [50, 0, 0, 0], [5, 0, 0, 0],
     OutcomeKind.DEFAULTED, 2),
    ("missing-mid-balance-skipped",  # month 2 balance unreported
     [200, None, 0], [150, 60, 0], [150, 50, 0],
     OutcomeKind.REPAID, 3),
    ("repaid-without-zero-balance",  # falls back to the last month
     [200, 100, 5], [100, 100, 10], [100, 95, 5],
     OutcomeKind.REPAID, 3),
    ("long-run-marks-its-first-month",
     [500, 500, 500, 500, 500], [100, 0, 0, 0, 0], [10, 0, 0, 0, 0],
     OutcomeKind.DEFAULTED, 2),
    ("single-month-censored",
     [400], [50], [5],
     OutcomeKind.CENSORED, 1),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_outcome_golden_fixtures(case):
    _, balance, payment, principal, kind, month = case
    outcome = determine_outcome(hist(balance, payment, principal))
    assert outcome.kind is kind
    assert outcome.event_month == month


def test_pad_is_configurable():
    # the pad-tie fixture flips to censored when the pad is removed
    h = hist([100, 50, 10], [40, 40, 10], [40, 40, 10])
    zero_pad = determine_outcome(h, pad=Decimal("0"))
    assert zero_pad.kind is OutcomeKind.CENSORED
    # and the one-cent-short fixture flips to repaid with a penny more pad
    h2 = hist([100, 60, 20], [30, 30, "29.99"], [30, 30, "29.99"])
    bigger_pad = determine_outcome(h2, pad=Decimal("10.01"))
    assert bigger_pad.kind is OutcomeKind.REPAID


def test_outcome_is_total_over_goldens():
    kinds = {determine_outcome(hist(b, p, q)).kind for _, b, p, q, _, _ in GOLDEN}
    assert kinds == {OutcomeKind.REPAID, OutcomeKind.DEFAULTED, OutcomeKind.CENSORED}


@pytest.mark.parametrize("number", [int, float], ids=["int", "float"])
def test_amounts_given_as_numbers_match_decimals(number):
    for _, balance, payment, principal, kind, month in GOLDEN:
        as_numbers = PaymentHistory(
            balance=tuple(None if v is None else number(Decimal(str(v))) for v in balance),
            payment=tuple(number(Decimal(str(v))) for v in payment),
            principal=tuple(number(Decimal(str(v))) for v in principal))
        if number is int and as_numbers != hist(balance, payment, principal):
            continue  # a fraction that int() cuts off
        assert determine_outcome(as_numbers) == LoanOutcome(kind, month)
        assert determine_outcome(as_numbers, pad=number(10)) == LoanOutcome(kind, month)
    # 0.1 + 0.2 falls short of 0.3 in binary, not as amounts
    sums = PaymentHistory(balance=(10.3,), payment=(0.3,), principal=(0.1,))
    assert determine_outcome(sums, pad=10.2).kind is OutcomeKind.REPAID
    with pytest.raises(ValueError, match="non-finite amount"):
        determine_outcome(PaymentHistory(balance=(500,), payment=(50,),
                                         principal=(float("nan"),)))


def test_outcome_requires_first_balance():
    with pytest.raises(ValueError):
        determine_outcome(hist([None, 100], [50, 50], [5, 5]))


def test_history_validation():
    with pytest.raises(ValueError):
        PaymentHistory(balance=(), payment=(), principal=())
    with pytest.raises(ValueError):
        hist([100, 100], [50], [5, 5])


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
    assert [o.loan_id for o in build_observations(tape)] == ["age17", "base", "term73"]


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
    obs = {o.loan_id: o for o in build_observations(
        load_loan_data(*write_tape(tmp_path, loans, histories)))}
    assert (obs["late"].entry_age, obs["late"].exit_age) == (7, 16)
    assert obs["late"].observed_event and obs["late"].cause is Cause.DEFAULT
    assert (obs["new"].entry_age, obs["new"].exit_age) == (1, 52)
    assert not obs["new"].observed_event and obs["new"].cause is None
    assert obs["quick"].entry_age == obs["quick"].exit_age == 1
    assert obs["quick"].cause is Cause.PREPAY


def test_observation_invariants():
    with pytest.raises(ValueError):
        ObservedLoan(entry_age=5, exit_age=4, observed_event=False)
    with pytest.raises(ValueError):
        ObservedLoan(entry_age=1, exit_age=4, observed_event=True, cause=None)
    with pytest.raises(ValueError):
        ObservedLoan(entry_age=1, exit_age=4, observed_event=False, cause=Cause.DEFAULT)


def test_build_observations_sorted_and_strict(tmp_path):
    histories = {"B": REPAID, "A": ([400], [50], [5])}
    obs = build_observations(load_loan_data(*write_tape(tmp_path, dict.fromkeys(histories, {}),
                                                        histories)))
    assert [o.loan_id for o in obs] == ["A", "B"]
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
    assert list(build_observations(back)) == [
        ObservedLoan(entry_age=6, exit_age=9, observed_event=True, cause=Cause.PREPAY,
                     loan_id="L1", band=RiskBand.DEEP_SUBPRIME),
        ObservedLoan(entry_age=6, exit_age=8, observed_event=False, cause=None,
                     loan_id="L2", band=RiskBand.SUPER_PRIME)]
    assert back.original_amount.tolist() == [2000005, 2000000]  # exact cents
    assert back.recovered_amount.tolist() == [0, 123450]
    assert payment_rows(back) == rows(*histories["L1"]) + rows(*histories["L2"])


def test_observation_csv_round_trip(tmp_path):
    obs = [
        ObservedLoan(entry_age=7, exit_age=16, observed_event=True,
                     cause=Cause.DEFAULT, loan_id="a", band=RiskBand.SUBPRIME),
        ObservedLoan(entry_age=1, exit_age=52, observed_event=False,
                     cause=None, loan_id="b", band=None),
    ]
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    assert list(read_observations_csv(path)) == obs


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
            assert determine_outcome(PaymentHistory(tuple(bal), tuple(pmt), tuple(prc)),
                                     pad=pad) == LoanOutcome(OutcomeKind(kind), month)
            cause = {"defaulted": Cause.DEFAULT, "repaid": Cause.PREPAY}.get(kind)
            expected.append(ObservedLoan(entry_age=age + 1, exit_age=age + month,
                                         observed_event=cause is not None, cause=cause,
                                         loan_id=loan_id, band=RiskBand.NEAR_PRIME))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        tape = load_loan_data(*write_tape(
            directory, {loan_id: {"loan_age_at_entry": age} for loan_id, age, _, _ in loans},
            {loan_id: cells for loan_id, _, _, cells in loans}))
        assert list(build_observations(tape, pad=pad)) == expected


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
    assert list(build_observations(load_loan_data(*paths))) == [
        ObservedLoan(entry_age=6, exit_age=9, observed_event=True, cause=Cause.PREPAY,
                     loan_id="L,1", band=RiskBand.NEAR_PRIME)]

    loans, payments = write_tape(tmp_path, {"L1": {}}, {"L1": REPAID})
    text = payments.read_text()
    payments.write_text(text.replace("\n", "\r\n\r\n", 2), newline="")
    assert payment_rows(load_loan_data(loans, payments)) == rows(*REPAID)
    payments.write_text(text.replace("\n", "\r"), newline="")
    assert payment_rows(load_loan_data(loans, payments)) == rows(*REPAID)


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


@pytest.mark.parametrize("apr, amount, message", [
    ("nan", "20000", "column 'apr_pct': value 'nan' is not a finite APR >= 0"),
    ("-1.5", "20000", "column 'apr_pct': value '-1.5' is not a finite APR >= 0"),
    ("12.5", "0", "column 'original_amount' must be positive"),
])
def test_loan_attribute_errors_carry_location(tmp_path, apr, amount, message):
    paths = write_tape(tmp_path, {"L1": {"apr_pct": apr, "original_amount": amount}},
                       {"L1": (["100"], ["10"], ["10"])})
    with pytest.raises(SchemaError, match=rf"loans\.csv:2: {re.escape(message)}"):
        load_loan_data(*paths)
