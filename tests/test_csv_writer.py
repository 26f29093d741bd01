"""Every CSV the program writes has the bytes `csv.writer` writes.

Each site that writes a CSV is fed drawn data, and its file is compared
byte for byte with `oracles.csv_bytes` of the rows that site wrote through
`csv.writer`: text cells with commas, quotes, CR and LF, empty and
edge-space cells, non-ASCII text, and negative and huge integers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_bytes

from cshazard import actuarial, cli, convergence, ingest, montecarlo, recovery
from cshazard.estimator import HazardCurve, write_curve_csv
from cshazard.ingest import ObservationTable, RiskBand, write_observations_csv
from cshazard.riskmodel import Cause

TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "a", "Z", "0", "-", "é", "中",
                                " ", "\x00"]), max_size=6) | st.text(max_size=4)
BIG = st.integers(-2**63, 2**63 - 1)
CELL = TEXT | st.integers() | st.integers(-10**30, 10**30) | st.none() | st.floats() | st.booleans()
FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def written(write) -> bytes:
    """The bytes `write(path)` leaves at a fresh path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(TEXT, min_size=width, max_size=width),
    st.lists(st.lists(CELL, min_size=width, max_size=width), max_size=6))))
def test_write_csv_writes_the_bytes_of_csv_writer(table):
    header, rows = table
    assert written(lambda path: ingest._write_csv(path, header, list(zip(*rows)))) == csv_bytes(
        header, rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, st.integers(-1, 4), st.integers(1, 2**40), st.integers(0, 2**40),
                          st.sampled_from([None, Cause.DEFAULT, Cause.PREPAY])), max_size=8))
def test_observations_file_is_csv_writer_bytes(rows):
    table = ObservationTable(
        loan_id=np.array([r[0] for r in rows], dtype=object), band=[r[1] for r in rows],
        entry_age=[r[2] for r in rows], exit_age=[r[2] + r[3] for r in rows],
        event=[r[4] is not None for r in rows], cause=[0 if r[4] is None else r[4].value for r in rows])
    band = [b.label for b in RiskBand] + [""]
    want = csv_bytes(ingest._OBS_COLUMNS, [
        (r[0], band[r[1]], r[2], r[2] + r[3], int(r[4] is not None), "" if r[4] is None else r[4].label)
        for r in rows])
    assert written(lambda path: write_observations_csv(path, table)) == want


@settings(max_examples=60, deadline=None)
@given(TEXT, st.sampled_from([None, Cause.DEFAULT, Cause.PREPAY]),
       st.lists(st.tuples(BIG, st.integers(0, 2**62), st.integers(0, 2**62),
                          st.floats(0.0, 1.0), FLOAT, FLOAT, FLOAT, st.booleans()), max_size=6))
def test_curve_file_is_csv_writer_bytes(band, cause, rows):
    column = [np.array([r[k] for r in rows]) for k in range(8)]
    curve = HazardCurve(band=band, cause=cause, n=0, ages=column[0].astype(np.int64),
                        events=column[1].astype(np.int64),
                        at_risk=(column[1] + column[2]).astype(np.int64),
                        hazard=column[3].astype(np.float64), variance=column[4].astype(np.float64),
                        ci_lo=column[5].astype(np.float64), ci_hi=column[6].astype(np.float64),
                        interpolated=column[7].astype(np.bool_))

    def fmt(v):
        return "" if math.isnan(v) else repr(float(v))
    want = csv_bytes(
        ["band", "cause", "age", "events", "at_risk", "hazard", "var", "ci_lo", "ci_hi",
         "interpolated"],
        [[band, "all" if cause is None else cause.label, r[0], r[1], r[1] + r[2], repr(float(r[3])),
          fmt(r[4]), fmt(r[5]), fmt(r[6]), int(r[7])] for r in rows])
    assert written(lambda path: write_curve_csv(path, curve)) == want


MONTH = st.none() | BIG


@settings(max_examples=60, deadline=None)
@given(st.lists(TEXT, max_size=4).flatmap(lambda bands: st.tuples(st.just(bands), st.tuples(
    *(st.tuples(*[MONTH] * (len(bands) - i)) for i in range(len(bands)))))))
def test_matrix_file_is_csv_writer_bytes(drawn):
    bands, months = drawn
    rules = tuple(tuple(convergence.Rule.NONE for _ in row) for row in months)
    matrix = convergence.TransitionMatrix(bands=tuple(bands), months=months, rules=rules,
                                          min_test_age=1, run_length=1)
    want = csv_bytes(["band", *bands], [
        [band, *[""] * i, *("" if m is None else m for m in months[i])]
        for i, band in enumerate(bands)])
    assert written(lambda path: convergence.write_matrix_csv(path, matrix)) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT, st.lists(st.tuples(BIG, st.sampled_from(
    list(convergence.Decision))), max_size=4)), max_size=3))
def test_trace_file_is_csv_writer_bytes(drawn):
    results = [convergence.ConvergenceResult(
        band_a=a, band_b=b, ages=np.array([r[0] for r in rows], dtype=np.int64),
        decisions=tuple(r[1] for r in rows), convergence_month=None,
        rule_fired=convergence.Rule.NONE) for a, b, rows in drawn]
    want = csv_bytes(["band_a", "band_b", "age", "decision"], [
        [a, b, age, decision.value] for a, b, rows in drawn for age, decision in rows])
    assert written(lambda path: convergence.write_trace_csv(path, results)) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(BIG, min_size=n, max_size=n),
    st.lists(st.lists(FLOAT, min_size=2 * n, max_size=2 * n), min_size=6, max_size=6),
    st.lists(st.integers(0, 2**62), min_size=2 * n, max_size=2 * n))))
def test_study_file_is_csv_writer_bytes(drawn):
    with np.errstate(over="ignore"):  # var_ratio of drawn variances may overflow
        check_study_file(*drawn)


def check_study_file(ages, grids, defined):
    n = len(ages)
    arrays = [np.array(g, dtype=np.float64).reshape(n, 2) for g in grids]
    report = montecarlo.StudyReport(
        ages=np.array(ages, dtype=np.int64), lam_true=arrays[0], lam_mean=arrays[1],
        emp_var=arrays[2], asym_var=arrays[3], coverage=arrays[4],
        ci_defined=np.array(defined, dtype=np.int64).reshape(n, 2),
        estimates=np.zeros((1, n, 2)), alpha_true=0.5, alpha_hat=0.5, n=1, replicates=1,
        seed=1, theta=0.05)
    ratio = report.var_ratio
    rows = []
    for ai, age in enumerate(report.ages):
        for ci, cause in enumerate(("default", "prepay")):
            row = [int(age), cause]
            for arr in (report.lam_true, report.lam_mean, report.emp_var, report.asym_var,
                        ratio, report.coverage):
                v = arr[ai, ci]
                row.append("" if np.isnan(v) else repr(float(v)))
            rows.append(row + [int(report.ci_defined[ai, ci])])
    want = csv_bytes(["age", "cause", "lam_true", "lam_mean", "emp_var", "asym_var",
                      "var_ratio", "coverage", "ci_defined"], rows)
    assert written(report.write_csv) == want


POSITIVE = st.floats(1e-3, 1e3)
APR = st.just(0.0) | st.floats(0.01, 40.0)  # a tiny positive APR fails `monthly_payment`


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**6), FLOAT, FLOAT), max_size=6),
       POSITIVE, POSITIVE, POSITIVE)
def test_recovery_file_is_csv_writer_bytes(rows, c, k, theta):
    points = recovery.RecoveryPoints(ages=np.array([r[0] for r in rows], dtype=np.int64),
                                     mean=np.array([r[1] for r in rows], dtype=np.float64),
                                     count=np.ones(len(rows), dtype=np.int64))
    smoothed = np.array([r[2] for r in rows], dtype=np.float64)
    fit = recovery.GammaKernelFit(c=c, k=k, theta=theta, residual=0.0)
    want = csv_bytes(["age", "raw_mean", "smoothed", "fitted"], [
        [r[0], repr(float(r[1])), repr(float(r[2])), repr(recovery.recovery_at(fit, r[0]))]
        for r in rows])
    assert written(lambda path: recovery.write_recovery_csv(path, points, smoothed, fit)) == want


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=25, deadline=None)
@given(st.floats(100.0, 1e7), APR, st.integers(1, 60), st.floats(0.0, 1.0))
def test_returns_file_is_csv_writer_bytes(balance, apr, term, rate):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli(["returns", "--balance", repr(balance), "--apr", repr(apr), "--term",
                        str(term), "--recovery-rate", repr(rate), "--output-dir", tmp,
                        "-o", "r.csv"]) == 0
        got = (Path(tmp) / "r.csv").read_bytes()
    schedule = actuarial.AmortizationSchedule.build(
        balance, actuarial.nominal_monthly_rate(apr), term)
    rates = actuarial.returns_table(schedule, None, None, lambda age: rate).tolist()
    assert got == csv_bytes(["age", "price", "monthly_return", "annual_return"], [
        [x, f"{schedule.balance(x - 1):.2f}", repr(rho), repr(actuarial.annualize(rho))]
        for x, rho in enumerate(rates, start=1)])


@settings(max_examples=25, deadline=None)
@given(st.floats(100.0, 1e7), st.floats(10.0, 1e5), APR, APR)
def test_savings_file_is_csv_writer_bytes(balance, payment, old_apr, new_apr):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["savings", "--balance", repr(balance), "--payment", repr(payment), "--old-apr",
                repr(old_apr), "--new-apr", repr(new_apr), "--output-dir", tmp, "--format"]
        if run_cli([*argv, "json"]) != 0:
            return  # an input the calculation rejects writes no file either way
        doc = json.loads((Path(tmp) / "savings.json").read_text())
        assert run_cli([*argv, "csv"]) == 0
        assert (Path(tmp) / "savings.csv").read_bytes() == csv_bytes(list(doc), [list(doc.values())])
