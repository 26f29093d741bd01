"""End-to-end ingest against a synthetic tape whose outcomes are known.

The tape generator of the benchmark (`perfbench/tape.py`, numpy and csv
only) writes `loans.csv`, `payments.csv` and a `truth.csv` with every loan's
drawn outcome kind and event month.  `cshazard ingest` must turn the tape
into exactly the observation rows that truth implies: eligibility and
integrity drops, the three-zeros default rule, the principal-plus-pad
repayment rule and the loan-age translation, all at once.
"""
import csv
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from cshazard import cli

TAPE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tape.py"


@pytest.fixture(scope="module")
def tape_module():
    spec = importlib.util.spec_from_file_location("perfbench_tape", TAPE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_ingest_reproduces_the_tape_truth(tmp_path, tape_module, seed):
    check_ingest(tmp_path, tape_module, tape_module.generate(tmp_path / "tape", seed,
                                                             n_loans=2000))


def test_ingest_reproduces_the_tape_truth_from_shuffled_payments(tmp_path, tape_module):
    """The payment rows in a random order, written back by the csv module:
    ingest sorts each loan's months itself and finds the same outcomes."""
    tape = tape_module.generate(tmp_path / "tape", 3, n_loans=2000)
    with open(tape.payments, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    assert shuffled != rows
    with open(tape.payments, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *shuffled])
    check_ingest(tmp_path, tape_module, tape)


def check_ingest(tmp_path, tape_module, tape):
    """`cshazard ingest` of the tape writes the observation rows its truth implies."""
    out = tmp_path / "out"
    assert cli.main(["ingest", str(tape.loans), str(tape.payments),
                     "--output-dir", str(out)]) == 0
    with open(out / "observations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["loan_id", "band", "entry_age", "exit_age", "event", "cause"]
    expected = tape_module.expected_observations(tape.truth)
    assert len(expected) > 1500
    assert rows[1:] == expected
