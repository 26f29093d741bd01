"""Overlap testing and the convergence transition matrix."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STAGED_ONSETS, curve_with_cis, staged_band_set, staged_curve
from oracles import brute_transition_matrix

from cshazard.convergence import (
    ConvergenceResult,
    Decision,
    Rule,
    convergence_point,
    overlap_test,
    transition_matrix,
    write_matrix_csv,
    write_trace_csv,
)
from cshazard.errors import IncompatibleInputsError, UnknownKeyError


def test_overlap_decisions():
    assert overlap_test((0.01, 0.02), (0.015, 0.03)) is Decision.FAIL_TO_REJECT
    assert overlap_test((0.01, 0.02), (0.025, 0.03)) is Decision.REJECT
    # touching endpoints: closed-interval convention favors the null
    assert overlap_test((0.01, 0.02), (0.02, 0.03)) is Decision.FAIL_TO_REJECT
    assert overlap_test((0.02, 0.03), (0.01, 0.02)) is Decision.FAIL_TO_REJECT
    with pytest.raises(ValueError):
        overlap_test((float("nan"), 0.02), (0.01, 0.02))


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.floats(0, 1, allow_nan=False) for _ in range(4)]))
def test_overlap_symmetry_and_nesting(vals):
    a = (min(vals[0], vals[1]), max(vals[0], vals[1]))
    b = (min(vals[2], vals[3]), max(vals[2], vals[3]))
    assert overlap_test(a, b) is overlap_test(b, a)
    # widening both intervals can only move Reject toward FailToReject
    wide_a = (a[0] - 0.1, a[1] + 0.1)
    wide_b = (b[0] - 0.1, b[1] + 0.1)
    if overlap_test(a, b) is Decision.FAIL_TO_REJECT:
        assert overlap_test(wide_a, wide_b) is Decision.FAIL_TO_REJECT


def test_identical_curves_converge_at_min_test_age():
    curve = staged_curve("x", onset=15, centre=0.3)
    res = convergence_point(curve, curve)
    assert res.convergence_month == 10
    assert res.rule_fired is Rule.OVERLAP_RUN
    assert all(d is Decision.FAIL_TO_REJECT for d in res.decisions)


def test_two_band_switch_at_42():
    ages = np.arange(10, 56)
    a = curve_with_cis("subprime", ages, np.full(ages.size, 0.10),
                       np.full(ages.size, 0.14))
    b_lo = np.where(ages < 42, 0.20, 0.11)
    b_hi = np.where(ages < 42, 0.24, 0.13)
    b = curve_with_cis("prime", ages, b_lo, b_hi)
    res = convergence_point(a, b)
    assert res.convergence_month == 42
    assert res.rule_fired is Rule.OVERLAP_RUN
    first_ftr = next(i for i, d in enumerate(res.decisions)
                     if d is Decision.FAIL_TO_REJECT)
    assert int(res.ages[first_ftr]) == 42


def test_both_zero_tail_rule():
    ages = np.arange(10, 41)
    zero_tail = ages >= 30
    def build(label, lo_val, hi_val):
        lo = np.where(zero_tail, np.nan, lo_val)
        hi = np.where(zero_tail, np.nan, hi_val)
        hazard = np.where(zero_tail, 0.0, (lo_val + hi_val) / 2)
        return curve_with_cis(label, ages, lo, hi, hazard=hazard,
                              events=np.where(zero_tail, 0.0, 3.0))
    a = build("a", 0.10, 0.12)
    b = build("b", 0.30, 0.32)  # disjoint from a wherever defined
    res = convergence_point(a, b)
    assert res.convergence_month == 30
    assert res.rule_fired is Rule.BOTH_ZERO
    assert res.decisions[ages.tolist().index(30)] is Decision.UNDEFINED


def test_both_zero_clamps_to_min_test_age():
    ages = np.arange(1, 21)
    hazard = np.zeros(ages.size)
    lo = np.full(ages.size, np.nan)
    hi = np.full(ages.size, np.nan)
    a = curve_with_cis("a", ages, lo, hi, hazard=hazard, events=np.zeros(ages.size))
    res = convergence_point(a, a)
    assert res.convergence_month == 10  # zeros start at age 1, clamped up
    assert res.rule_fired is Rule.BOTH_ZERO


def test_undefined_breaks_a_run():
    ages = np.arange(10, 16)
    lo = np.full(ages.size, 0.10)
    hi = np.full(ages.size, 0.20)
    a = curve_with_cis("a", ages, lo, hi)
    b_lo, b_hi = lo.copy(), hi.copy()
    b_lo[1] = np.nan  # age 11 interval missing on one side
    b_hi[1] = np.nan
    b = curve_with_cis("b", ages, b_lo, b_hi, hazard=np.full(ages.size, 0.15))
    res = convergence_point(a, b)
    assert res.decisions[1] is Decision.UNDEFINED
    # would have been a run at 10-11; the gap postpones it to 12-13
    assert res.convergence_month == 12
    assert res.rule_fired is Rule.OVERLAP_RUN


def test_earlier_rule_wins():
    # overlap run fires at 10; a zero tail from 30 would fire later
    ages = np.arange(10, 41)
    tail = ages >= 30
    lo = np.where(tail, np.nan, 0.10)
    hi = np.where(tail, np.nan, 0.20)
    hazard = np.where(tail, 0.0, 0.15)
    a = curve_with_cis("a", ages, lo, hi, hazard=hazard,
                       events=np.where(tail, 0.0, 3.0))
    res = convergence_point(a, a)
    assert res.convergence_month == 10
    assert res.rule_fired is Rule.OVERLAP_RUN


def test_no_rule_fires():
    ages = np.arange(10, 30)
    a = curve_with_cis("a", ages, np.full(ages.size, 0.10), np.full(ages.size, 0.12))
    b = curve_with_cis("b", ages, np.full(ages.size, 0.30), np.full(ages.size, 0.32))
    res = convergence_point(a, b)
    assert res.convergence_month is None
    assert res.rule_fired is Rule.NONE


def test_symmetry_of_convergence_point():
    curves, order = staged_band_set()
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            ab = convergence_point(curves[a], curves[b])
            ba = convergence_point(curves[b], curves[a])
            assert ab.convergence_month == ba.convergence_month
            assert ab.rule_fired is ba.rule_fired


def test_grid_mismatch_raises():
    a = staged_curve("a", 15, 0.3)
    b = staged_curve("b", 15, 0.3, ages=np.arange(2, 42))
    with pytest.raises(IncompatibleInputsError):
        convergence_point(a, b)


def test_staggered_onset_matrix_reproduced_exactly():
    curves, order = staged_band_set()
    matrix, results = transition_matrix(curves, band_order=order)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            got = matrix.month(a, b)
            want = 10 if i == j else max(STAGED_ONSETS[i], STAGED_ONSETS[j])
            assert got == want, (a, b)
    assert len(results) == 10  # 5 choose 2 pairs
    assert matrix.bands == tuple(order)


def test_matrix_rejects_bad_inputs():
    curves, order = staged_band_set()
    with pytest.raises(UnknownKeyError):
        transition_matrix(curves, band_order=order + ["mystery"])
    with pytest.raises(ValueError):
        transition_matrix({"only": curves["b0"]})


def test_matrix_none_entries_survive_export(tmp_path):
    ages = np.arange(10, 30)
    a = curve_with_cis("a", ages, np.full(ages.size, 0.10), np.full(ages.size, 0.12))
    b = curve_with_cis("b", ages, np.full(ages.size, 0.30), np.full(ages.size, 0.32))
    matrix, results = transition_matrix({"a": a, "b": b})
    assert matrix.month("a", "b") is None
    doc = json.loads(matrix.to_json())
    off_diag = [e for e in doc["entries"] if e["band_a"] != e["band_b"]]
    assert off_diag[0]["month"] is None
    assert off_diag[0]["rule"] == "none"

    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, matrix)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["band", "a", "b"]
    assert rows[1] == ["a", "10", ""]  # none renders as empty cell
    assert rows[2] == ["b", "", "10"]


def test_matrix_json_layout():
    curves, order = staged_band_set()
    matrix, _ = transition_matrix(curves, band_order=order)
    doc = json.loads(matrix.to_json())
    assert doc["bands"] == order
    assert doc["min_test_age"] == 10
    assert doc["run_length"] == 2
    assert len(doc["entries"]) == 15  # upper triangle with diagonal
    by_pair = {(e["band_a"], e["band_b"]): e["month"] for e in doc["entries"]}
    assert by_pair[("b0", "b0")] == 10
    assert by_pair[("b1", "b3")] == 22


def test_trace_export(tmp_path):
    curves, order = staged_band_set()
    _, results = transition_matrix(curves, band_order=order)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, results)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["band_a", "band_b", "age", "decision"]
    assert len(rows) == 1 + 10 * 40  # 10 pairs, 40 ages each
    decisions = {r[3] for r in rows[1:]}
    assert decisions <= {"reject", "fail_to_reject", "undefined"}


def test_custom_run_length_and_min_age():
    # run of 3 needed: pair overlaps at 20,21 only, then again 25-27
    ages = np.arange(10, 31)
    a = curve_with_cis("a", ages, np.full(ages.size, 0.10), np.full(ages.size, 0.12))
    windows = ((ages >= 20) & (ages <= 21)) | ((ages >= 25) & (ages <= 27))
    b_lo = np.where(windows, 0.11, 0.30)
    b_hi = np.where(windows, 0.13, 0.32)
    b = curve_with_cis("b", ages, b_lo, b_hi)
    assert convergence_point(a, b, run_length=2).convergence_month == 20
    assert convergence_point(a, b, run_length=3).convergence_month == 25
    assert convergence_point(a, b, min_test_age=21, run_length=2).convergence_month == 25
    assert convergence_point(a, b, min_test_age=28).convergence_month is None


def test_run_length_below_one_is_rejected():
    curves, _ = staged_band_set()
    for bad, message in [({"run_length": 0}, "run_length must be >= 1"),
                         ({"run_length": -3}, "run_length must be >= 1"),
                         ({"min_test_age": 0}, "min_test_age must be >= 1"),
                         ({"min_test_age": -5}, "min_test_age must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            convergence_point(curves["b0"], curves["b1"], **bad)
        with pytest.raises(ValueError, match=message):
            transition_matrix(curves, **bad)
    # a run of one: the first age from min_test_age whose intervals overlap
    assert convergence_point(curves["b0"], curves["b1"], run_length=1).convergence_month == 13


BOUNDS = [float("nan"), 0.0, 0.1, 0.2, 0.3]  # coarse, so endpoints often touch


@st.composite
def curve_sets(draw):
    """Two to four curves on one random grid (gaps allowed), with undefined
    bounds, zero hazards and a both-zero tail drawn often."""
    ages = np.array(sorted(draw(st.sets(st.integers(1, 16), min_size=1, max_size=10))))
    tail = draw(st.integers(0, ages.size))
    curves = {}
    for b in range(draw(st.integers(2, 4))):
        lo = draw(st.lists(st.sampled_from(BOUNDS), min_size=ages.size, max_size=ages.size))
        hi = draw(st.lists(st.sampled_from(BOUNDS), min_size=ages.size, max_size=ages.size))
        hazard = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.2]),
                                        min_size=ages.size, max_size=ages.size)))
        hazard[ages.size - tail:] = 0.0
        curves[f"b{b}"] = curve_with_cis(f"b{b}", ages, lo, hi, hazard=hazard)
    return curves


@settings(max_examples=150, deadline=None)
@given(curve_sets(), st.integers(1, 18), st.integers(1, 3), st.randoms())
def test_transition_matrix_matches_brute_force(curves, min_test_age, run_length, rnd):
    order = list(curves)
    rnd.shuffle(order)
    matrix, _ = transition_matrix(curves, min_test_age, run_length, band_order=order)
    months, rules = brute_transition_matrix(curves, order, min_test_age, run_length)
    assert [list(row) for row in matrix.months] == months
    assert [[rule.value for rule in row] for row in matrix.rules] == rules
