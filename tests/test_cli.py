"""End-to-end command-line pipeline: files in, files + manifests out."""
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import cshazard
from conftest import (curve_with_cis, hump_observations, observation_table, staged_curve,
                      write_tape)
from cshazard import cli, ingest
from cshazard.actuarial import (
    AmortizationSchedule,
    annualize,
    hazard_lookup,
    lifetime_return,
    monthly_payment,
    nominal_monthly_rate,
    returns_table,
)
from cshazard.estimator import read_curve_csv, write_curve_csv
from cshazard.ingest import ObservationTable, RiskBand, write_observations_csv
from cshazard.montecarlo import (
    SimConfig,
    benchmark_distribution,
    benchmark_truncation,
    simulate_cohort,
)
from cshazard.recovery import GammaKernelFit, fit_to_json, recovery_at
from cshazard.riskmodel import Cause


def write_portfolio(tmp, **changes):
    """Six usable loans in two bands plus one knocked out by the filter.

    `changes` sets loan fields on every loan.
    """
    histories = {"repaid": ([300, 200, 100, 0], [110, 110, 110, 0], [100, 100, 100, 0]),
                 "default": ([500] * 5, [110, 0, 0, 0, 0], [10, 0, 0, 0, 0]),
                 "censored": ([500, 480, 460], [110, 110, 110], [20, 20, 20])}
    loans, payments = {}, {}
    for i, (apr, band) in enumerate([(22.5, "ds"), (5.0, "pr")]):
        for kind, history in histories.items():
            loans[f"{band}-{kind}-{i}"] = {"apr_pct": apr, **changes}
            payments[f"{band}-{kind}-{i}"] = history
    loans["excluded"] = {"apr_pct": 9.0, "has_coborrower": "true", **changes}
    payments["excluded"] = histories["censored"]
    return write_tape(tmp, loans, payments)


def four_loan_observations(tmp):
    obs = observation_table([
        ("a", 1, 2, Cause.DEFAULT),
        ("b", 1, 2, Cause.PREPAY),
        ("c", 1, 3, None),
        ("d", 1, 3, None),
    ])
    path = tmp / "observations.csv"
    write_observations_csv(path, obs)
    return path


def read_manifest(output_path):
    return json.loads(
        output_path.with_name(output_path.name + ".manifest.json").read_text())


# ---------------------------------------------------------------- ingest

def test_ingest_produces_observations_and_manifest(tmp_path):
    loans, payments = write_portfolio(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["ingest", str(loans), str(payments),
                   "--output-dir", str(out)])
    assert rc == 0
    obs_path = out / "observations.csv"
    lines = obs_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 6  # the coborrower loan is filtered out
    manifest = read_manifest(obs_path)
    assert manifest["command"] == "ingest"
    assert manifest["version"] == cshazard.__version__
    digest = hashlib.sha256(obs_path.read_bytes()).hexdigest()
    assert manifest["outputs"]["observations.csv"] == digest


def test_ingest_all_filtered_is_empty_result(tmp_path):
    loans, payments = write_portfolio(tmp_path, has_coborrower="true")
    rc = cli.main(["ingest", str(loans), str(payments),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3


def test_ingest_missing_column_is_schema_error(tmp_path, capsys):
    (tmp_path / "loans.csv").write_text("loan_id,apr_pct\nL1,12.5\n")
    (tmp_path / "payments.csv").write_text(
        "loan_id,month,balance,payment,principal\nL1,1,100,10,5\n")
    rc = cli.main(["ingest", str(tmp_path / "loans.csv"),
                   str(tmp_path / "payments.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "column" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_ingest_non_finite_principal_is_located_schema_error(tmp_path, capsys, cell):
    loans, payments = write_portfolio(tmp_path)
    lines = payments.read_text().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:-1] + [cell])
    payments.write_text("\n".join(lines) + "\n")
    rc = cli.main(["ingest", str(loans), str(payments),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"payments.csv:3: column 'principal' has non-finite value '{cell}'" \
        in capsys.readouterr().err


def test_ingest_rejects_a_repeated_loan_id(tmp_path, capsys):
    loans, payments = write_portfolio(tmp_path)
    lines = loans.read_text().splitlines()
    first_id = lines[1].split(",")[0]
    lines.insert(4, " " + lines[1])  # the same loan again, padded, at line 5
    loans.write_text("\n".join(lines) + "\n")
    rc = cli.main(["ingest", str(loans), str(payments),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"loans.csv:5: loan_id {first_id!r} repeats line 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "observations.csv").exists()


@pytest.mark.parametrize("quoted", [False, True])
def test_ingest_locates_a_cell_that_is_not_utf8(tmp_path, capsys, quoted):
    # a quote anywhere sends the file through the csv module, which decodes it whole
    loans, payments = write_portfolio(tmp_path)
    lines = loans.read_bytes().split(b"\n")
    cell = b'"\xffL9"' if quoted else b"\xffL9"
    lines[3] = cell + lines[3][lines[3].index(b","):]
    loans.write_bytes(b"\n".join(lines))
    rc = cli.main(["ingest", str(loans), str(payments), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert ("loans.csv:4: column 'loan_id': byte 0xff at position 0 is not UTF-8"
            in capsys.readouterr().err)


@pytest.mark.parametrize("quoted", [False, True])
def test_ingest_locates_a_header_that_is_not_utf8(tmp_path, capsys, quoted):
    loans, payments = write_portfolio(tmp_path)
    data = payments.read_bytes().replace(b"trust_month", b"trust\xe9month", 1)
    payments.write_bytes(data.replace(b"loan_id", b'"loan_id"', 1) if quoted else data)
    rc = cli.main(["ingest", str(loans), str(payments), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert ("payments.csv:1: column 2: byte 0xe9 at position 5 is not UTF-8"
            in capsys.readouterr().err)


def test_ingest_locates_a_money_cell_that_is_not_utf8(tmp_path, capsys):
    loans, payments = write_portfolio(tmp_path)
    lines = payments.read_bytes().split(b"\n")
    fields = lines[2].split(b",")
    lines[2] = b",".join(fields[:2] + [b"1\xe90"] + fields[3:])
    payments.write_bytes(b"\n".join(lines))
    rc = cli.main(["ingest", str(loans), str(payments), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert ("payments.csv:3: column 'balance': byte 0xe9 at position 1 is not UTF-8"
            in capsys.readouterr().err)


def test_ingest_filters_each_loan_once(tmp_path, monkeypatch):
    calls = []
    original = ingest.filter_loans

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ingest, "filter_loans", counting)
    loans, payments = write_portfolio(tmp_path)
    assert cli.main(["ingest", str(loans), str(payments),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------- estimate

def test_estimate_matches_hand_count(tmp_path):
    obs = four_loan_observations(tmp_path)
    rc = cli.main(["estimate", str(obs), "--cause", "default",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    curve = read_curve_csv(tmp_path / "out" / "curve.csv")
    assert curve.hazard_at(2) == 0.25  # 1 default among 4 at risk
    manifest = read_manifest(tmp_path / "out" / "curve.csv")
    assert manifest["parameters"]["theta"] == 0.05


def test_estimate_band_restriction_and_unknown_band(tmp_path):
    obs = four_loan_observations(tmp_path)
    rc = cli.main(["estimate", str(obs), "--band", "Prime",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 4  # fixtures all sit in Near Prime
    rc = cli.main(["estimate", str(obs), "--band", "No Such Band",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 4


def test_estimate_theta_widens_interval(tmp_path):
    obs = four_loan_observations(tmp_path)
    for theta, name in ((0.05, "a"), (0.20, "b")):
        rc = cli.main(["estimate", str(obs), "--theta", str(theta),
                       "--out", f"{name}.csv",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 0
    wide = read_curve_csv(tmp_path / "out" / "a.csv").row(2)
    narrow = read_curve_csv(tmp_path / "out" / "b.csv").row(2)
    assert wide["ci_lo"] < narrow["ci_lo"] < narrow["ci_hi"] < wide["ci_hi"]


def test_estimate_interpolate_flag(tmp_path):
    obs = observation_table([
        ("a", 1, 1, Cause.DEFAULT),
        ("b", 1, 2, Cause.PREPAY),
        ("c", 1, 3, Cause.DEFAULT),
        ("d", 1, 4, None),
        ("e", 1, 4, None),
        ("f", 1, 4, None),
    ])
    path = tmp_path / "observations.csv"
    write_observations_csv(path, obs)
    for flags, name in (([], "plain.csv"), (["--interpolate"], "filled.csv")):
        rc = cli.main(["estimate", str(path), *flags, "--out", name,
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 0
    plain = read_curve_csv(tmp_path / "out" / "plain.csv")
    filled = read_curve_csv(tmp_path / "out" / "filled.csv")
    assert plain.hazard_at(2) == 0.0
    assert filled.hazard_at(2) == plain.hazard_at(1)  # carried forward


def test_estimate_unreadable_observations(tmp_path):
    bad = tmp_path / "observations.csv"
    bad.write_text("shape,color\ncircle,red\n")
    rc = cli.main(["estimate", str(bad), "--output-dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("row, message", [
    ("e,near_prime,5,4,0,", "entry_age must be <= exit_age"),
    ("e,near_prime,1,4,1,lapsed", "unknown cause label: 'lapsed'"),
    ("e,platinum,1,4,0,", "unknown risk band: 'platinum'"),
])
def test_estimate_row_errors_carry_location(tmp_path, capsys, row, message):
    path = four_loan_observations(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    rc = cli.main(["estimate", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"observations.csv:6: " in err and message in err


def test_estimate_and_converge_leave_loan_id_cells_unread(tmp_path):
    rows = [(f"{band.label}-{i}", 1, 2 + i % 3, (Cause.DEFAULT, Cause.PREPAY, None)[i % 3], band)
            for band in (RiskBand.PRIME, RiskBand.SUBPRIME) for i in range(9)]
    write_observations_csv(tmp_path / "ids.csv", observation_table(rows))
    raw = (tmp_path / "ids.csv").read_bytes()
    (tmp_path / "bytes.csv").write_bytes(raw.replace(b"\nprime-", b"\n\xff-"))  # not UTF-8
    outputs = {}
    for name in ("ids", "bytes"):
        out = tmp_path / name
        for command in (["estimate", "--band", "prime"], ["converge"]):
            assert cli.main([command[0], str(tmp_path / f"{name}.csv"), *command[1:],
                             "--output-dir", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                         if not p.name.endswith(".manifest.json")}
    assert set(outputs["ids"]) == {"curve.csv", "matrix.csv", "trace.csv"}
    assert outputs["bytes"] == outputs["ids"]


def test_estimate_rejects_theta_outside_unit_interval(tmp_path):
    obs = four_loan_observations(tmp_path)
    rc = cli.main(["estimate", str(obs), "--theta", "1.5",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out" / "curve.csv").exists()


def test_estimate_window_beyond_the_data_is_empty_result(tmp_path):
    obs = four_loan_observations(tmp_path)
    rc = cli.main(["estimate", str(obs), "--window", "200:300",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert not (tmp_path / "out" / "curve.csv").exists()


def test_a_huge_window_writes_the_bytes_of_one_ending_at_the_last_exit(tmp_path):
    # no one is at risk past the last exit age, so nothing is counted past it
    assert cli.main(["ingest", *map(str, write_portfolio(tmp_path)),
                     "--output-dir", str(tmp_path)]) == 0
    obs = tmp_path / "observations.csv"
    with open(obs, newline="", encoding="utf-8") as fh:
        last = max(int(row["exit_age"]) for row in csv.DictReader(fh))
    for command, huge in (("estimate", "1:10000000000"), ("converge", "1:3000000000")):
        written = []
        for window in (huge, f"1:{last}"):
            out = tmp_path / command / window.replace(":", "-")
            assert cli.main([command, str(obs), "--window", window,
                             "--output-dir", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if not p.name.endswith(".manifest.json")})
        assert written[0] == written[1]
    past = "99999999999999999999:99999999999999999999"  # wholly past the data, beyond int64
    for command in ("estimate", "converge"):
        rc = cli.main([command, str(obs), "--window", past, "--output-dir", str(tmp_path / "p")])
        assert rc == 3


# ---------------------------------------------------------------- converge

def write_staged_pair(tmp):
    for name, onset, centre in (("b0", 10, 0.05), ("b2", 17, 0.35)):
        write_curve_csv(tmp / f"{name}.csv", staged_curve(name, onset, centre))
    return tmp / "b0.csv", tmp / "b2.csv"


def test_converge_curve_mode(tmp_path):
    a, b = write_staged_pair(tmp_path)
    rc = cli.main(["converge", str(a), str(b), "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "matrix.json").read_text())
    months = {(e["band_a"], e["band_b"]): e["month"] for e in doc["entries"]}
    assert months[("b0", "b0")] == 10  # every curve overlaps itself
    assert months[("b2", "b2")] == 10
    assert months[("b0", "b2")] == 17  # disjoint until the later onset
    assert (tmp_path / "out" / "trace.csv").exists()
    manifest = read_manifest(tmp_path / "out" / "matrix.json")
    assert set(manifest["outputs"]) == {"matrix.json", "trace.csv"}


@pytest.mark.parametrize("theta", ["1.5", "0", "nan"])
def test_theta_outside_unit_interval_exits_2(tmp_path, capsys, theta):
    a, b = write_staged_pair(tmp_path)
    runs = {"matrix.json": ["converge", str(a), str(b), "--format", "json"],
            "study.json": ["simulate", "--n", "400", "--r", "3", "--format", "json"]}
    for out, argv in runs.items():
        rc = cli.main(argv + ["--theta", theta, "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "--theta must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out" / out).exists()


def test_theta_whose_half_vanishes_beside_one_exits_2(tmp_path, capsys):
    runs = {"curve.csv": ["estimate", str(four_loan_observations(tmp_path))],
            "study.csv": ["simulate", "--n", "10", "--r", "1"]}
    for out, argv in runs.items():
        rc = cli.main(argv + ["--theta", "1e-20", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error: --theta 1e-20 is so small" in capsys.readouterr().err
        assert not (tmp_path / "out" / out).exists()


def test_converge_outputs_are_byte_stable(tmp_path):
    a, b = write_staged_pair(tmp_path)
    blobs = []
    for d in ("one", "two"):
        rc = cli.main(["converge", str(a), str(b), "--format", "json",
                       "--output-dir", str(tmp_path / d)])
        assert rc == 0
        blobs.append((tmp_path / d / "matrix.json").read_bytes()
                     + (tmp_path / d / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_converge_reads_quoted_curves_as_unquoted_ones(tmp_path):
    # every cell quoted, the header too, as csv.writer(quoting=QUOTE_ALL) writes them
    plain = write_staged_pair(tmp_path)
    (tmp_path / "quoted").mkdir()
    quoted = [tmp_path / "quoted" / path.name for path in plain]
    for path, copy in zip(plain, quoted):
        with open(path, newline="", encoding="utf-8") as src, \
                open(copy, "w", newline="", encoding="utf-8") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
    assert quoted[0].read_text().startswith('"band","cause"')
    outputs = []
    for name, pair in (("plain", plain), ("quoted", quoted)):
        assert cli.main(["converge", *map(str, pair), "--output-dir", str(tmp_path / name)]) == 0
        outputs.append([(tmp_path / name / out).read_bytes() for out in ("matrix.csv", "trace.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag,message", [
    ("--theta=0.3", "--theta applies only to converge on an observations CSV"),
    ("--window=200:300", "--window applies only to converge on an observations CSV"),
    ("--bands=x,y", "--bands applies only to converge on an observations CSV"),
    ("--run=0", "run_length must be >= 1, got 0"),
    ("--run=-3", "run_length must be >= 1, got -3"),
    ("--min-age=0", "min_test_age must be >= 1, got 0"),
    ("--min-age=-5", "min_test_age must be >= 1, got -5"),
])
def test_converge_curve_mode_usage_errors(tmp_path, capsys, flag, message):
    a, b = write_staged_pair(tmp_path)
    rc = cli.main(["converge", str(a), str(b), flag, "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out" / "matrix.csv").exists()


def test_converge_observations_mode(tmp_path):
    import numpy as np
    cfg = SimConfig(dist=benchmark_distribution(), trunc=benchmark_truncation(),
                    n=1500, replicates=2, seed=3)
    cohorts = [(band, simulate_cohort(cfg, rep))
               for rep, band in ((0, RiskBand.DEEP_SUBPRIME), (1, RiskBand.PRIME))]
    obs = ObservationTable(
        loan_id=[f"{band.name}-{i}" for band, cohort in cohorts for i in range(len(cohort))],
        band=np.concatenate([np.full(len(cohort), band.value) for band, cohort in cohorts]),
        **{name: np.concatenate([getattr(cohort, name) for _, cohort in cohorts])
           for name in ("entry_age", "exit_age", "event", "cause")})
    path = tmp_path / "observations.csv"
    write_observations_csv(path, obs)
    rc = cli.main(["converge", str(path), "--bands", "Deep Subprime,Prime",
                   "--min-age", "3", "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "matrix.json").read_text())
    months = {(e["band_a"], e["band_b"]): e["month"] for e in doc["entries"]}
    # both bands draw from one distribution, so the CIs overlap immediately
    assert months[("deep_subprime", "prime")] == 3
    assert doc["min_test_age"] == 3
    rc = cli.main(["converge", str(path), "--window", "200:300",
                   "--output-dir", str(tmp_path / "beyond")])
    assert rc == 3
    assert not (tmp_path / "beyond" / "matrix.csv").exists()


def test_converge_rejects_curves_that_share_a_label(tmp_path, capsys):
    # labels are the band, then band:stem; a third prime.csv of band prime has none left
    paths = []
    for d, centre in (("a", 0.05), ("b", 0.30), ("c", 0.50)):
        (tmp_path / d).mkdir()
        paths.append(tmp_path / d / "prime.csv")
        write_curve_csv(paths[-1], staged_curve("prime", 10, centre))
    rc = cli.main(["converge", *map(str, paths), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {paths[1]} and {paths[2]} both take the "
                                       f"curve label 'prime:prime'\n")
    assert not (tmp_path / "out" / "matrix.csv").exists()


def test_converge_trace_names_bands_as_the_matrix_does(tmp_path):
    for name, onset, centre in (("x", 10, 0.05), ("y", 17, 0.35)):
        write_curve_csv(tmp_path / f"{name}.csv", staged_curve("", onset, centre))
    rc = cli.main(["converge", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    with open(tmp_path / "out" / "matrix.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["band", "x", "y"]
    with open(tmp_path / "out" / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    assert len(trace) == 40
    assert {(row["band_a"], row["band_b"]) for row in trace} == {("x", "y")}


def test_converge_mismatched_grids(tmp_path):
    import numpy as np
    write_curve_csv(tmp_path / "a.csv", staged_curve("a", 10, 0.05))
    write_curve_csv(tmp_path / "b.csv",
                    staged_curve("b", 50, 0.20, ages=np.arange(41, 80)))
    rc = cli.main(["converge", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 5


def test_converge_locates_a_curve_header_that_is_not_utf8(tmp_path, capsys):
    first, second = write_staged_pair(tmp_path)
    first.write_bytes(first.read_bytes().replace(b"var", b"v\xe9r", 1))
    rc = cli.main(["converge", str(first), str(second), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "b0.csv:1: column 7: byte 0xe9 at position 1 is not UTF-8" in capsys.readouterr().err


def test_converge_rejects_unrecognized_header(tmp_path):
    (tmp_path / "junk.csv").write_text("shape,color\ncircle,red\n")
    rc = cli.main(["converge", str(tmp_path / "junk.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2


# ---------------------------------------------------------------- returns

def test_returns_certain_schedule_yields_contract_rate(tmp_path):
    rc = cli.main(["returns", "--balance", "100", "--apr", "12",
                   "--term", "12", "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "returns.csv").read_text().strip().splitlines()
    assert lines[0] == "age,price,monthly_return,annual_return"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[1] == "100.00"
    assert float(first[2]) == pytest.approx(0.01, abs=1e-10)
    assert float(first[3]) == pytest.approx(annualize(0.01), abs=1e-10)


def test_returns_with_hazards_matches_library(tmp_path):
    import numpy as np
    ages = np.arange(1, 13)
    d_curve = curve_with_cis("pool", ages, np.full(12, 0.001),
                             np.full(12, 0.003), hazard=np.full(12, 0.02))
    p_curve = curve_with_cis("pool", ages, np.full(12, 0.001),
                             np.full(12, 0.003), hazard=np.full(12, 0.03),
                             cause=Cause.PREPAY)
    write_curve_csv(tmp_path / "d.csv", d_curve)
    write_curve_csv(tmp_path / "p.csv", p_curve)
    fit = GammaKernelFit(c=0.05, k=3.0, theta=3.0, residual=0.0)
    (tmp_path / "fit.json").write_text(fit_to_json(fit))
    rc = cli.main(["returns", "--balance", "100", "--apr", "12", "--term", "12",
                   "--default-curve", str(tmp_path / "d.csv"),
                   "--prepay-curve", str(tmp_path / "p.csv"),
                   "--recovery-fit", str(tmp_path / "fit.json"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    row4 = (tmp_path / "out" / "returns.csv").read_text().strip().splitlines()[4]
    got = float(row4.split(",")[2])
    schedule = AmortizationSchedule.build(100.0, nominal_monthly_rate(12.0), 12)
    want = lifetime_return(schedule,
                           hazard_lookup(read_curve_csv(tmp_path / "d.csv")),
                           hazard_lookup(read_curve_csv(tmp_path / "p.csv")),
                           lambda age: recovery_at(fit, age), 4)
    assert got == want  # CSV stores repr, so the round trip is exact
    assert want < 0.01  # risk with partial recovery costs return


@pytest.mark.parametrize("doc, message", [
    ('{"c": NaN, "k": 3, "theta": 3}', "'c' must be a finite positive number, not nan"),
    ('{"k": 3, "theta": 3}', "missing key(s) c"),
    ("[0.05, 3, 3]", "expected a JSON object, found list"),
    ('{"c": 0.05, "k": 0, "theta": 3}', "'k' must be a finite positive number, not 0.0"),
    ('{"c": 0.05, "k": 3, "theta": -Infinity}',
     "'theta' must be a finite positive number, not -inf"),
    ('{"c": "0.05", "k": 3, "theta": 3}', "'c' must be a number, not '0.05'"),
    ('{"c": 1%s, "k": 3, "theta": 3}' % ("0" * 400), "'c' must be a finite positive number, "
                                                     "not inf"),
    ('{"c": 0.05, "k": 3,', "not valid JSON"),
])
def test_returns_rejects_a_bad_recovery_fit(tmp_path, capsys, doc, message):
    fit = tmp_path / "fit.json"
    fit.write_text(doc)
    rc = cli.main(["returns", "--balance", "20000", "--apr", "12", "--term", "36",
                   "--recovery-fit", str(fit), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {fit}: {message}")
    assert not (tmp_path / "out" / "returns.csv").exists()


@pytest.mark.parametrize("doc, recovery", [
    # the kernel is above 1 from age 2 on, and its power overflows from age 6 on
    ('{"c": 0.05, "k": 400, "theta": 3}',
     lambda age: 0.05 * math.exp(-1 / 3) if age == 1 else 1.0),
    # c * age overflows where exp(-age / theta) is 0, and inf * 0 is NaN: the kernel is ~0
    ('{"c": 1e308, "k": 2, "theta": 1e-3}', lambda age: 0.0),
], ids=["power-overflows", "inf-times-zero"])
def test_returns_with_a_recovery_fit_past_float_range(tmp_path, doc, recovery):
    import numpy as np
    ages = np.arange(1, 37)
    write_curve_csv(tmp_path / "d.csv", curve_with_cis("pool", ages, np.full(36, 0.001),
                                                       np.full(36, 0.003),
                                                       hazard=np.full(36, 0.02)))
    (tmp_path / "fit.json").write_text(doc)
    rc = cli.main(["returns", "--balance", "20000", "--apr", "12", "--term", "36",
                   "--default-curve", str(tmp_path / "d.csv"),
                   "--recovery-fit", str(tmp_path / "fit.json"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "returns.csv").read_text().strip().splitlines()[1:]
    schedule = AmortizationSchedule.build(20000.0, nominal_monthly_rate(12.0), 36)
    want = returns_table(schedule, read_curve_csv(tmp_path / "d.csv"), None, recovery)
    assert [float(row.split(",")[2]) for row in rows] == want.tolist()
    assert np.isfinite(want).all()


@pytest.mark.parametrize("flag", ["--apr=nan", "--apr=inf", "--balance=inf",
                                  "--balance=0", "--term=0"])
def test_returns_rejects_bad_schedule_inputs(tmp_path, capsys, flag):
    argv = {"--balance": "20000", "--apr": "6.5", "--term": "12"}
    argv.update([flag.split("=")])
    rc = cli.main(["returns", *[f"{k}={v}" for k, v in argv.items()],
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "returns.csv").exists()


@pytest.mark.parametrize("column,cell", [("hazard", "x"), ("age", "two"), ("var", "?"),
                                         ("at_risk", "nan"), ("events", "inf"),
                                         ("age", "1.9"), ("events", "2.7"),
                                         ("at_risk", "10.5"), ("interpolated", "0.4"),
                                         ("age", "1e19"), ("at_risk", "-1e300")])
def test_returns_locates_a_non_numeric_curve_cell(tmp_path, capsys, column, cell):
    row = {"band": "pool", "cause": "default", "age": "2", "events": "1", "at_risk": "10",
           "hazard": "0.1", "var": "", "ci_lo": "", "ci_hi": "", "interpolated": "0"}
    row[column] = cell
    first = "pool,default,1,1,10,0.1,,,,0"
    (tmp_path / "bad.csv").write_text(",".join(row) + "\n" + first + "\n"
                                      + ",".join(row.values()) + "\n")
    rc = cli.main(["returns", "--balance", "100", "--apr", "12", "--term", "12",
                   "--default-curve", str(tmp_path / "bad.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'bad.csv'}:3: ")
    assert f"column {column!r}" in err and repr(cell) in err
    assert not (tmp_path / "out" / "returns.csv").exists()


def test_returns_locates_an_unknown_curve_cause(tmp_path, capsys):
    (tmp_path / "c.csv").write_text("band,cause,age,events,at_risk,hazard,var,ci_lo,ci_hi,"
                                    "interpolated\npool,lapsed,1,1,10,0.1,,,,0\n")
    rc = cli.main(["returns", "--balance", "100", "--apr", "12", "--term", "12",
                   "--default-curve", str(tmp_path / "c.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'c.csv'}:2: column 'cause': "
                                       f"unknown cause label: 'lapsed'\n")


def test_returns_long_zero_hazard_term_is_quiet_and_exact(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["returns", "--balance", "20000", "--apr", "6.5", "--term", "360",
                       "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "returns.csv", newline="") as fh:
        rates = [float(row["monthly_return"]) for row in csv.DictReader(fh)]
    assert len(rates) == 360
    assert max(abs(r - 6.5 / 1200) for r in rates) <= 1e-10


def exact_payment(principal, rate, term):
    """The annuity payment principal * r / (1 - (1 + r) ** -term) in exact rationals."""
    r = Fraction(rate)
    return Fraction(principal) * r / (1 - (1 + r) ** -term)


def assert_tiny_rate_schedule(principal, rate, term):
    """Where 1 + rate rounds to 1: the payment to 1e-12 of the exact annuity, and
    balances that never increase and end at exactly 0."""
    assert 1.0 + rate == 1.0
    schedule = AmortizationSchedule.build(principal, rate, term)
    exact = exact_payment(principal, rate, term)
    assert abs(Fraction(schedule.payment) - exact) <= exact * Fraction(1e-12)
    balances = schedule.balances.tolist()
    assert all(later <= earlier for earlier, later in zip(balances, balances[1:]))
    assert balances[-1] == 0.0 and math.copysign(1.0, balances[-1]) == 1.0
    return schedule


def test_returns_at_an_apr_where_one_plus_rate_rounds_to_one(tmp_path):
    rc = cli.main(["returns", "--balance", "20000", "--apr", "1e-13", "--term", "360",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    schedule = assert_tiny_rate_schedule(20000.0, nominal_monthly_rate(1e-13), 360)
    with open(tmp_path / "out" / "returns.csv", newline="") as fh:
        prices = [row["price"] for row in csv.DictReader(fh)]
    assert prices == [f"{b:.2f}" for b in schedule.balances[:-1].tolist()]
    assert prices[0] == "20000.00" and prices[-1] == "55.56"


def test_savings_at_a_new_apr_where_one_plus_rate_rounds_to_one(tmp_path):
    rc = cli.main(["savings", "--balance", "20000", "--payment", "500", "--old-apr", "12",
                   "--new-apr", "1e-300", "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "savings.json").read_text())
    n = doc["remaining_payments"]
    rate = nominal_monthly_rate(1e-300)
    schedule = assert_tiny_rate_schedule(20000.0, rate, n)
    assert doc["new_payment"] == round(schedule.payment, 2) == round(20000 / n, 2)
    assert schedule.payment == monthly_payment(20000.0, rate, n)


def exit_recipe(code, tmp):
    """CLI arguments of a run that ends with one exit code the README documents."""
    import numpy as np
    if code == 0:
        return ["returns", "--balance", "100", "--apr", "12", "--term", "12"]
    if code == 2:  # unrecognized input header
        (tmp / "junk.csv").write_text("shape,color\ncircle,red\n")
        return ["converge", str(tmp / "junk.csv")]
    if code == 3:  # nothing at risk in the window
        return ["estimate", str(four_loan_observations(tmp)), "--window", "200:300"]
    if code == 4:
        return ["estimate", str(four_loan_observations(tmp)), "--band", "No Such Band"]
    if code == 5:  # curves on disjoint age grids
        write_curve_csv(tmp / "a.csv", staged_curve("a", 10, 0.05))
        write_curve_csv(tmp / "b.csv", staged_curve("b", 50, 0.2, ages=np.arange(41, 80)))
        return ["converge", str(tmp / "a.csv"), str(tmp / "b.csv")]
    # code 6: a full recovery after a 90% default hazard cannot be priced in the bracket
    ages = np.arange(1, 13)
    write_curve_csv(tmp / "d.csv", curve_with_cis("pool", ages, np.full(12, 0.8),
                                                  np.full(12, 1.0), hazard=np.full(12, 0.9)))
    return ["returns", "--balance", "100", "--apr", "24", "--term", "12",
            "--recovery-rate", "1", "--default-curve", str(tmp / "d.csv")]


@pytest.mark.parametrize("code", [0, 2, 3, 4, 5, 6])
def test_each_documented_exit_code(tmp_path, capsys, code):
    rc = cli.main([*exit_recipe(code, tmp_path), "--output-dir", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else err.startswith("error: ")
    if code == 6:
        assert "EPV root not bracketed" in err


def with_payment_cell(tmp, rows, column, cell):
    """write_portfolio's tape with the payments cell of one row, or of each of
    several, replaced: (loans, payments)."""
    loans, payments = write_portfolio(tmp)
    lines = payments.read_text().splitlines()
    for row in (rows,) if isinstance(rows, int) else rows:
        fields = lines[row].split(",")
        fields[["loan_id", "trust_month", "balance", "payment", "principal"].index(column)] = cell
        lines[row] = ",".join(fields)
    payments.write_text("\n".join(lines) + "\n")
    return [str(loans), str(payments)]


def error_path_recipe(case, tmp):
    """CLI arguments of a run that takes one documented error path."""
    if case == "empty-payment":
        return ["ingest", *with_payment_cell(tmp, 2, "payment", "")]
    if case == "huge-trust-month":
        return ["ingest", *with_payment_cell(tmp, 2, "trust_month", "1" * 20)]
    if case == "principal-sum-overflow":  # two months of the first loan
        return ["ingest", *with_payment_cell(tmp, (1, 2), "principal", "9E+999999")]
    if case == "lone-principal-overflow":  # a loan's only principal cell
        return ["ingest", *map(str, write_tape(tmp, {"L1": {}},
                                               {"L1": ([100], [10], ["1E+1000000"])}))]
    if case == "non-boolean-flag":
        return ["ingest", *map(str, write_portfolio(tmp, has_coborrower="maybe"))]
    if case == "dash-window":
        return ["estimate", str(four_loan_observations(tmp)), "--window", "5-9"]
    if case == "one-band":
        return ["converge", str(four_loan_observations(tmp))]
    if case == "curve-and-observations":
        write_curve_csv(tmp / "a.csv", staged_curve("a", 10, 0.05))
        return ["converge", str(tmp / "a.csv"), str(four_loan_observations(tmp))]
    if case == "recovery-rate":
        return ["returns", "--balance", "100", "--apr", "12", "--term", "12",
                "--recovery-rate", "1.5"]
    # header-only curve
    write_curve_csv(tmp / "a.csv", staged_curve("a", 10, 0.05))
    (tmp / "empty.csv").write_text((tmp / "a.csv").read_text().splitlines()[0] + "\n")
    return ["returns", "--balance", "100", "--apr", "12", "--term", "12",
            "--default-curve", str(tmp / "empty.csv")]


@pytest.mark.parametrize("case, code, message", [
    ("empty-payment", 2, "payments.csv:3: column 'payment' is missing a value"),
    ("huge-trust-month", 2, f"payments.csv:3: column 'trust_month' value '{'1' * 20}' "
                            f"is out of range"),
    ("principal-sum-overflow", 2, "payments.csv: loan 'ds-repaid-0': column 'principal' "
                                  "sums past the decimal exponent limit"),
    ("lone-principal-overflow", 2, "payments.csv: loan 'L1': column 'principal' sums past "
                                   "the decimal exponent limit"),
    ("non-boolean-flag", 2, "loans.csv:2: column 'has_coborrower': non-boolean value 'maybe'"),
    ("dash-window", 2, "window must be LO:HI or 'full', got '5-9'"),
    ("one-band", 3, "need at least two bands to compare"),
    ("curve-and-observations", 2, "converge expects either two or more curve CSVs or a "
                                  "single observations CSV"),
    ("recovery-rate", 2, "recovery rate must lie in [0, 1]"),
    ("header-only-curve", 2, "empty.csv: curve file has no rows"),
])
def test_documented_error_paths(tmp_path, capsys, case, code, message):
    rc = cli.main([*error_path_recipe(case, tmp_path), "--output-dir", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_ingest_reads_a_money_cell_past_the_decimal_exponent(tmp_path):
    rc = cli.main(["ingest", *map(str, write_portfolio(tmp_path)),
                   "--output-dir", str(tmp_path / "plain")])
    assert rc == 0
    # the first balance of the first censored loan; it stays censored
    out = tmp_path / "huge"
    rc = cli.main(["ingest", *with_payment_cell(tmp_path, 10, "balance", "1E+999999"),
                   "--output-dir", str(out)])
    assert rc == 0
    assert (out / "observations.csv").read_bytes() == \
        (tmp_path / "plain" / "observations.csv").read_bytes()


def test_ingest_keeps_a_principal_sum_that_rounds_back_into_range(tmp_path):
    # the first cell alone rounds past the exponent limit, the loan's sum does not
    histories = {"L1": ([100, 100], [10, 10], ["9" * 31 + "E+999969", "-5E+999999"])}
    rc = cli.main(["ingest", *map(str, write_tape(tmp_path, {"L1": {}}, histories)),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0


def test_estimate_of_all_causes(tmp_path):
    rc = cli.main(["estimate", str(four_loan_observations(tmp_path)), "--cause", "all",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    curve = read_curve_csv(tmp_path / "out" / "curve.csv")
    assert curve.cause is None
    assert curve.events.tolist() == [0, 2, 0] and curve.at_risk.tolist() == [4, 4, 2]


# ---------------------------------------------------------------- savings

def test_savings_json_output(tmp_path):
    rc = cli.main(["savings", "--balance", "7485", "--payment", "360",
                   "--old-apr", "22.37", "--new-apr", "3.59",
                   "--format", "json", "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "savings.json").read_text())
    assert doc["monthly_saving"] == pytest.approx(60.34, abs=0.005)
    assert doc["remaining_payments"] == 26
    assert doc["old_payment"] == 360.0


def test_savings_csv_output(tmp_path):
    rc = cli.main(["savings", "--balance", "10985", "--payment", "359",
                   "--old-apr", "22.46", "--new-apr", "17.97",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    header, row = (tmp_path / "out" / "savings.csv").read_text().strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["monthly_saving"]) == pytest.approx(16.32, abs=0.005)
    assert values["remaining_payments"] == "44"


def test_savings_with_one_payment_left(tmp_path):
    # the payment clears the balance at once: one remaining payment, not an invalid term
    rc = cli.main(["savings", "--balance", "20000", "--payment", "1e308",
                   "--old-apr", "1e308", "--new-apr", "5", "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "savings.json").read_text())
    assert doc["remaining_payments"] == 1
    assert doc["new_payment"] == pytest.approx(20000 * (1 + 5 / 1200), abs=0.005)


def test_savings_rejects_rate_increase(tmp_path):
    rc = cli.main(["savings", "--balance", "7485", "--payment", "360",
                   "--old-apr", "3.59", "--new-apr", "22.37",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("rate", ["-1", "-2", "nan", "inf"])
def test_savings_rejects_bad_discount_rate(tmp_path, capsys, rate):
    rc = cli.main(["savings", "--balance", "7485", "--payment", "360",
                   "--old-apr", "22.37", "--new-apr", "3.59",
                   f"--discount-rate={rate}",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "discount_rate" in capsys.readouterr().err
    assert not (tmp_path / "out" / "savings.csv").exists()


@pytest.mark.parametrize("flags, named", [
    (["--payment", "0", "--old-apr", "0", "--new-apr", "-1"], "new_apr_pct must be finite"),
    (["--payment", "0", "--old-apr", "5", "--new-apr", "3"], "payment must be finite"),
    (["--payment", "-5", "--old-apr", "5", "--new-apr", "3"], "payment must be finite"),
    (["--payment", "nan", "--old-apr", "22.37", "--new-apr", "3.59"], "got nan"),
    (["--payment", "inf", "--old-apr", "22.37", "--new-apr", "3.59"], "got inf"),
    (["--payment", "360", "--old-apr", "nan", "--new-apr", "3.59"], "old_apr_pct"),
    (["--payment", "360", "--old-apr", "inf", "--new-apr", "3.59"], "old_apr_pct"),
    (["--payment", "360", "--old-apr", "22.37", "--new-apr=-inf"], "new_apr_pct"),
    (["--payment", "360", "--old-apr", "-150", "--new-apr", "-200"], "old_apr_pct"),
])
def test_savings_rejects_bad_inputs(tmp_path, capsys, flags, named):
    rc = cli.main(["savings", "--balance", "1000", *flags,
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out" / "savings.csv").exists()


# ---------------------------------------------------------------- recovery

def write_recoveries_csv(path):
    pairs, _ = hump_observations()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("age,recovery\n")
        for age, pct in pairs:
            fh.write(f"{age},{pct}\n")


def test_recovery_command(tmp_path):
    src = tmp_path / "recoveries.csv"
    write_recoveries_csv(src)
    rc = cli.main(["recovery", str(src), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    fit = json.loads((tmp_path / "out" / "recovery_fit.json").read_text())
    assert abs(fit["peak_age"] - 12.0) <= 3.0
    curve_lines = (tmp_path / "out" / "recovery_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "age,raw_mean,smoothed,fitted"
    assert len(curve_lines) == 1 + 20
    manifest = read_manifest(tmp_path / "out" / "recovery_curve.csv")
    assert set(manifest["outputs"]) == {"recovery_curve.csv", "recovery_fit.json"}
    assert manifest["seed"] == 7  # the global default


def test_recovery_outputs_are_byte_stable(tmp_path):
    src = tmp_path / "recoveries.csv"
    write_recoveries_csv(src)
    blobs = []
    for d in ("one", "two"):
        rc = cli.main(["recovery", str(src), "--output-dir", str(tmp_path / d)])
        assert rc == 0
        blobs.append((tmp_path / d / "recovery_fit.json").read_bytes()
                     + (tmp_path / d / "recovery_curve.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_recovery_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("age,amount\n3,0.5\n")
    assert cli.main(["recovery", str(bad),
                     "--output-dir", str(tmp_path / "out")]) == 2
    bad.write_text("age,recovery\n3,0.5\n\nx,0.4\n")
    assert cli.main(["recovery", str(bad),
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert "bad.csv:4: column 'age' has non-integer value 'x'" in capsys.readouterr().err
    for row, message in (("5,x", "column 'recovery': 'x' is not a valid number"),
                         ("5,0.2_5", "column 'recovery': '0.2_5' is not a valid number"),
                         ("2_0,0.4", "column 'age' has non-integer value '2_0'"),
                         ("5,nan", "recovery 'nan' is not a number in [0, 1.5]"),
                         ("5,inf", "recovery 'inf' is not a number in [0, 1.5]"),
                         ("5,", "recovery '' is not a number in [0, 1.5]"),
                         ("5,2.0", "recovery '2.0' is not a number in [0, 1.5]"),
                         ("5,-0.1", "recovery '-0.1' is not a number in [0, 1.5]"),
                         ("0,0.4", "age 0 is below 1"),
                         ("-2,0.4", "age -2 is below 1")):
        write_recoveries_csv(bad)
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(f"{row}\n")
        assert cli.main(["recovery", str(bad),
                         "--output-dir", str(tmp_path / "out")]) == 2
        assert f"bad.csv:22: {message}" in capsys.readouterr().err
    write_recoveries_csv(bad)
    for name, value in (("restarts", "0"), ("restarts", "-1"), ("budget", "0")):
        assert cli.main(["recovery", str(bad), f"--{name}={value}",
                         "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"
    assert not (tmp_path / "out" / "recovery_fit.json").exists()
    empty = tmp_path / "empty.csv"
    empty.write_text("age,recovery\n")
    assert cli.main(["recovery", str(empty),
                     "--output-dir", str(tmp_path / "out")]) == 3


def test_recovery_budget_below_restarts(tmp_path, capsys):
    src = tmp_path / "recoveries.csv"
    write_recoveries_csv(src)
    assert cli.main(["recovery", str(src), "--budget", "3", "--restarts", "5",
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: budget must be >= restarts, got budget 3 and restarts 5\n")
    assert not (tmp_path / "out" / "recovery_fit.json").exists()


@pytest.mark.parametrize("command", ["recovery", "simulate"])
def test_a_negative_seed_names_itself(tmp_path, capsys, command):
    src = tmp_path / "recoveries.csv"
    write_recoveries_csv(src)
    args = [str(src)] if command == "recovery" else ["--n", "50", "--r", "2"]
    assert cli.main([command, *args, "--seed", "-1", "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


# ---------------------------------------------------------------- simulate

def test_simulate_benchmark_json(tmp_path):
    rc = cli.main(["simulate", "--n", "400", "--r", "3", "--seed", "5",
                   "--format", "json", "--output-dir", str(tmp_path / "out")])
    assert rc == 0

    def strict(name):
        raise AssertionError(f"study.json holds {name}, which is not JSON")

    doc = json.loads((tmp_path / "out" / "study.json").read_text(), parse_constant=strict)
    assert doc["alpha_true"] == pytest.approx(0.864, abs=1e-12)
    assert doc["lam_true"][7][0] == pytest.approx(0.3794594594594595, abs=1e-12)
    assert doc["n"] == 400 and doc["replicates"] == 3 and doc["seed"] == 5
    manifest = read_manifest(tmp_path / "out" / "study.json")
    assert manifest["parameters"]["preset"] == "benchmark"


def test_simulate_csv_and_byte_stability(tmp_path):
    blobs = []
    for d in ("one", "two"):
        rc = cli.main(["simulate", "--n", "400", "--r", "3", "--seed", "5",
                       "--output-dir", str(tmp_path / d)])
        assert rc == 0
        blobs.append((tmp_path / d / "study.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0].decode().strip().splitlines()) == 1 + 10 * 2


def test_simulate_custom_distribution(tmp_path):
    from cshazard.riskmodel import CompetingRisksDistribution
    dist = CompetingRisksDistribution(min_age=1, max_age=3,
                                      pmf=(0.3, 0.3, 0.4),
                                      cause1_share=(0.5, 0.5, 0.5))
    (tmp_path / "dist.json").write_text(dist.to_json())
    rc = cli.main(["simulate", "--dist", str(tmp_path / "dist.json"),
                   "--entry-lo", "1", "--entry-hi", "2", "--tau", "2",
                   "--n", "200", "--r", "2", "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "study.json").read_text())
    assert doc["ages"] == [1, 2, 3]


def test_simulate_rejects_a_non_finite_pmf(tmp_path, capsys):
    (tmp_path / "dist.json").write_text('{"min_age": 1, "max_age": 3, "pmf": [NaN, 0.5, 0.5], '
                                        '"cause1_share": [0.5, 0.5, 0.5]}')
    rc = cli.main(["simulate", "--dist", str(tmp_path / "dist.json"),
                   "--entry-lo", "1", "--entry-hi", "2", "--tau", "2",
                   "--n", "100", "--r", "3", "--format", "json",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: pmf entries must be finite and nonnegative")
    assert not (tmp_path / "out" / "study.json").exists()


def test_simulate_entry_flags_apply_to_the_preset(tmp_path):
    (tmp_path / "bench.json").write_text(benchmark_distribution().to_json())
    window = ["--entry-hi", "3", "--tau", "7", "--n", "300", "--r", "2"]
    for name, law in (("preset", []), ("dist", ["--dist", str(tmp_path / "bench.json")])):
        assert cli.main(["simulate", *law, *window,
                         "--output-dir", str(tmp_path / name)]) == 0
    preset, dist = (tmp_path / name / "study.csv" for name in ("preset", "dist"))
    assert preset.read_bytes() == dist.read_bytes()
    manifest = read_manifest(preset)
    assert manifest["inputs"] == [] and manifest["seed"] == 7
    assert manifest["parameters"] == {"preset": "benchmark", "n": 300, "r": 2, "theta": 0.05,
                                      "entry_lo": 1, "entry_hi": 3, "tau": 7, "format": "csv"}
    manifest = read_manifest(dist)
    assert manifest["inputs"] == [str(tmp_path / "bench.json")]
    assert manifest["parameters"]["preset"] is None


def test_simulate_entry_window_below_the_first_age(tmp_path):
    from cshazard.riskmodel import CompetingRisksDistribution
    dist = CompetingRisksDistribution(min_age=3, max_age=8,
                                      pmf=(0.1, 0.2, 0.3, 0.1, 0.2, 0.1),
                                      cause1_share=(0.5, 0.4, 0.3, 0.6, 0.5, 0.5))
    (tmp_path / "dist.json").write_text(dist.to_json())
    for hi in (3, 5):
        out = tmp_path / f"hi{hi}"
        rc = cli.main(["simulate", "--dist", str(tmp_path / "dist.json"), "--entry-lo", "1",
                       "--entry-hi", str(hi), "--tau", "5", "--n", "300", "--r", "2",
                       "--format", "json", "--output-dir", str(out)])
        assert rc == 0
        brute = sum(dist.prob(x) for y in range(1, hi + 1)
                    for x in range(3, 9) if x >= y) / hi
        doc = json.loads((out / "study.json").read_text())
        assert doc["alpha_true"] == pytest.approx(brute, rel=1e-12)
    assert brute == pytest.approx(0.92)  # entries at 4 and 5 lose the early exits


def test_simulate_entry_window_far_past_the_last_age(tmp_path):
    # an entry past the law's last age keeps no lifetime, whatever the window's width
    rc = cli.main(["simulate", "--n", "100", "--r", "2", "--entry-hi", "1000000000",
                   "--tau", "5", "--format", "json", "--output-dir", str(tmp_path)])
    assert rc == 0
    dist, lo = benchmark_distribution(), benchmark_truncation().lo
    pmf = [Fraction(p) for p in dist.pmf]
    exact = sum(sum(pmf[max(y, dist.min_age) - dist.min_age:])
                for y in range(lo, dist.max_age + 1)) / (10**9 - lo + 1)
    alpha = Fraction(json.loads((tmp_path / "study.json").read_text())["alpha_true"])
    assert abs(alpha - exact) <= exact * Fraction(1, 10**12)


def test_simulate_entry_window_past_the_last_age(tmp_path, capsys):
    (tmp_path / "bench.json").write_text(benchmark_distribution().to_json())
    rc = cli.main(["simulate", "--dist", str(tmp_path / "bench.json"), "--entry-lo", "20",
                   "--entry-hi", "30", "--tau", "5", "--n", "100", "--r", "3",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: entry window 20..30 lies past the law's last age with mass, 10: "
        "no lifetime clears truncation\n")
    assert not (tmp_path / "out" / "study.csv").exists()


def test_simulate_unknown_preset(tmp_path):
    rc = cli.main(["simulate", "--preset", "no-such-preset",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 4


# ---------------------------------------------------------------- flags and manifests

BASE_ARGV = {
    "ingest": ["ingest", "loans.csv", "payments.csv"],
    "estimate": ["estimate", "observations.csv"],
    "converge": ["converge", "a.csv", "b.csv"],
    "returns": ["returns", "--balance", "100", "--apr", "12", "--term", "12"],
    "savings": ["savings", "--balance", "7485", "--payment", "360",
                "--old-apr", "22.37", "--new-apr", "3.59"],
    "recovery": ["recovery", "recoveries.csv"],
    "simulate": ["simulate"],
}
FLAG_VALUE = {"--seed": "3", "--theta": "0.1", "--format": "json"}


@pytest.mark.parametrize("command,extra", [
    *((c, [flag, FLAG_VALUE[flag]]) for c, flags in (
        ("ingest", ("--seed", "--theta", "--format")),
        ("estimate", ("--seed", "--format")),
        ("converge", ("--seed",)),
        ("returns", ("--seed", "--theta", "--format")),
        ("savings", ("--seed", "--theta")),
        ("recovery", ("--theta", "--format"))) for flag in flags),
    ("returns", ["--recovery-fit", "fit.json", "--recovery-rate", "0.3"]),
    ("simulate", ["--preset", "benchmark", "--dist", "dist.json"]),
])
def test_flags_a_subcommand_would_ignore_are_usage_errors(capsys, command, extra):
    cli.build_parser().parse_args(BASE_ARGV[command])
    with pytest.raises(SystemExit) as info:
        cli.main([*BASE_ARGV[command], *extra])
    assert info.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert ": error: " in message and extra[0] in message


def test_manifests_record_the_parsed_arguments(tmp_path):
    a, b = write_staged_pair(tmp_path)
    fit = GammaKernelFit(c=0.05, k=3.0, theta=3.0, residual=0.0)
    (tmp_path / "fit.json").write_text(fit_to_json(fit))
    runs = [
        (["converge", str(a), str(b), "--run", "3"], "matrix.csv",
         [str(a), str(b)],
         {"min_age": 10, "run": 3, "bands": "", "window": "full", "theta": 0.05,
          "format": "csv"}),
        (["returns", "--balance", "100", "--apr", "12", "--term", "12",
          "--default-curve", str(a), "--recovery-fit", str(tmp_path / "fit.json")],
         "returns.csv", [str(a), str(tmp_path / "fit.json")],
         {"balance": 100.0, "apr": 12.0, "term": 12, "recovery_rate": None,
          "out": "returns.csv"}),
        (BASE_ARGV["savings"] + ["--format", "json"], "savings.json", [],
         {"balance": 7485.0, "payment": 360.0, "old_apr": 22.37, "new_apr": 3.59,
          "discount_rate": None, "format": "json"}),
    ]
    for argv, output, inputs, parameters in runs:
        assert cli.main([*argv, "--output-dir", str(tmp_path / argv[0])]) == 0
        manifest = read_manifest(tmp_path / argv[0] / output)
        assert manifest["command"] == argv[0]
        assert (manifest["inputs"], manifest["seed"]) == (inputs, None)
        assert manifest["parameters"] == parameters


# ---------------------------------------------------------------- entry point

def test_console_script_reports_version():
    # run the installed `cshazard` script where there is one; in a source
    # tree, call the target that pyproject.toml declares for it the way the
    # generated script does
    script = shutil.which("cshazard")
    if script is not None:
        cmd = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["cshazard"]
        module, func = target.split(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {func}; sys.exit({func}())"]
    out = subprocess.run([*cmd, "--version"],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == f"cshazard {cshazard.__version__}"


COLD_START = """
import sys
import cshazard
from cshazard import cli
cli.build_parser()
out = sys.argv[1]
assert cli.main(["savings", "--balance", "7485", "--payment", "360",
                 "--old-apr", "22.37", "--new-apr", "3.59", "--output-dir", out]) == 0
assert cli.main(["simulate", "--n", "200", "--r", "2", "--output-dir", out]) == 0
assert cli.main(["returns", "--balance", "20000", "--apr", "9", "--term", "72",
                 "--output-dir", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted({"cshazard.ingest", "cshazard.convergence"} & set(sys.modules)))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # scipy.optimize is most of the import time of the package, and only
    # the recovery fit needs it; every other subcommand must run without it.
    # Nor do savings, simulate and returns load the loan-tape rules or the
    # convergence test: the CLI imports a subcommand's modules when it runs.
    src = Path(__file__).parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert all((tmp_path / name).exists() for name in ("savings.csv", "study.csv", "returns.csv"))


RECOVERY_COLD = """
import sys
from cshazard import cli
assert cli.main(["recovery", sys.argv[1], "--output-dir", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_recovery_fit_loads_no_scipy(tmp_path):
    # the gamma-kernel fit runs its own Nelder-Mead: scipy serves only the tests
    src = tmp_path / "recoveries.csv"
    write_recoveries_csv(src)
    out = subprocess.run([sys.executable, "-c", RECOVERY_COLD, str(src), str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "recovery_fit.json").exists()


PIPELINE_COLD = """
import sys
from cshazard import cli
loans, payments, out = sys.argv[1:]
obs = out + "/observations.csv"
for argv in (["ingest", loans, payments], ["estimate", obs], ["converge", obs]):
    assert cli.main([*argv, "--output-dir", out]) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_tape_pipeline_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 2 MB of peak memory, and np.unique, among others,
    # imports it on first use: ingest, estimate and converge must not need it
    from test_golden import load_tape_module
    tape = load_tape_module().generate(tmp_path, 11, n_loans=500)
    out = subprocess.run([sys.executable, "-c", PIPELINE_COLD, str(tape.loans),
                          str(tape.payments), str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


SIMULATE_COLD = """
import sys
from cshazard import cli
for fmt in ("csv", "json"):
    assert cli.main(["simulate", "--n", "2000", "--r", "20", "--format", fmt,
                     "--output-dir", sys.argv[1]]) == 0, fmt
print("numpy.ma" in sys.modules)
"""


def test_simulate_never_imports_numpy_ma(tmp_path):
    # the study's peak memory sits close to its import floor; numpy.ma would add about 2 MB
    out = subprocess.run([sys.executable, "-c", SIMULATE_COLD, str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    assert all((tmp_path / "out" / name).exists() for name in ("study.csv", "study.json"))


def test_module_entry_point_runs(tmp_path):
    out = subprocess.run([sys.executable, "-m", "cshazard.cli", "savings",
                          "--balance", "7485", "--payment", "360",
                          "--old-apr", "22.37", "--new-apr", "3.59",
                          "--output-dir", str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert (tmp_path / "savings.csv").exists()
