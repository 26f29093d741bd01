"""Distribution layer: survival, hazards, cause splits, serialization."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshazard.riskmodel import (
    CompetingRisksDistribution,
    Cause,
    TruncationLaw,
    all_cause_hazard,
    cause_specific_hazard,
    conditional_event_probs,
    survival,
)


def test_survival_is_the_pmf_tail_sum(bench_dist):
    assert survival(bench_dist, 1) == pytest.approx(1.0, abs=1e-15)
    assert survival(bench_dist, 4) == pytest.approx(0.80, abs=1e-15)
    assert survival(bench_dist, 10) == pytest.approx(0.12, abs=1e-15)
    for x in bench_dist.ages:
        tail = sum(bench_dist.prob(j) for j in range(x, bench_dist.max_age + 1))
        assert survival(bench_dist, int(x)) == pytest.approx(tail, abs=1e-15)


def test_survival_monotone_nonincreasing(bench_dist):
    values = [survival(bench_dist, int(x)) for x in bench_dist.ages]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_hazard_matches_ratio_definition(bench_dist):
    # age 8: pmf 0.18, tail 0.18 + 0.07 + 0.12 = 0.37, default share 0.78
    lam = all_cause_hazard(bench_dist, 8)
    assert lam == pytest.approx(0.18 / 0.37, abs=1e-15)
    lam1 = cause_specific_hazard(bench_dist, 8, Cause.DEFAULT)
    lam2 = cause_specific_hazard(bench_dist, 8, Cause.PREPAY)
    assert lam1 == pytest.approx(0.3794594594594595, abs=1e-15)
    assert lam2 == pytest.approx((0.18 / 0.37) * 0.22, abs=1e-15)


def test_last_age_hazard_is_one(bench_dist):
    assert all_cause_hazard(bench_dist, bench_dist.max_age) == pytest.approx(1.0, abs=1e-12)


def test_cause_additivity_every_age(bench_dist):
    for x in bench_dist.ages:
        lam1 = cause_specific_hazard(bench_dist, int(x), Cause.DEFAULT)
        lam2 = cause_specific_hazard(bench_dist, int(x), Cause.PREPAY)
        assert lam1 + lam2 == pytest.approx(all_cause_hazard(bench_dist, int(x)), abs=1e-15)


def test_conditional_event_probs_at_entry(bench_dist):
    ages, probs = conditional_event_probs(bench_dist, 1)
    assert ages[0] == 1
    # unconditional at x=1: pmf * share and pmf * (1 - share)
    assert probs[0, 0] == pytest.approx(0.0264, abs=1e-15)
    assert probs[0, 1] == pytest.approx(0.0136, abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("start", [1, 4, 9])
def test_conditional_event_probs_against_direct_ratio(bench_dist, start):
    # row j should equal pmf(j) * share_i(j) / survival(start)
    ages, probs = conditional_event_probs(bench_dist, start)
    s = survival(bench_dist, start)
    for row, j in enumerate(ages):
        share = bench_dist.cause1_share[bench_dist.index(int(j))]
        expect_d = bench_dist.prob(int(j)) * share / s
        expect_p = bench_dist.prob(int(j)) * (1.0 - share) / s
        assert probs[row, 0] == pytest.approx(expect_d, abs=1e-12)
        assert probs[row, 1] == pytest.approx(expect_p, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        CompetingRisksDistribution(1, 2, (0.5, 0.6), (0.5, 0.5))  # sums to 1.1
    with pytest.raises(ValueError):
        CompetingRisksDistribution(1, 2, (-0.1, 1.1), (0.5, 0.5))
    with pytest.raises(ValueError):
        CompetingRisksDistribution(1, 2, (0.5, 0.5), (0.5, 1.5))
    with pytest.raises(ValueError):
        CompetingRisksDistribution(3, 2, (1.0,), (1.0,))
    with pytest.raises(ValueError):
        CompetingRisksDistribution(1, 3, (0.5, 0.5), (0.5, 0.5))  # wrong length
    # NaN passes both the sign and the sum tests, so it needs its own
    with pytest.raises(ValueError, match="finite and nonnegative"):
        CompetingRisksDistribution(1, 3, (float("nan"), 0.5, 0.5), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        CompetingRisksDistribution.from_json('{"min_age": 1, "max_age": 3, "pmf": [NaN, 0.5, 0.5],'
                                             ' "cause1_share": [0.5, 0.5, 0.5]}')
    with pytest.raises(ValueError, match="finite and nonnegative"):
        CompetingRisksDistribution(1, 2, (float("inf"), 0.5), (0.5, 0.5))


def test_age_index_bounds(bench_dist):
    with pytest.raises(ValueError):
        bench_dist.index(0)
    with pytest.raises(ValueError):
        bench_dist.index(11)


def test_truncation_law_basics(bench_trunc):
    assert list(bench_trunc.support) == [1, 2, 3, 4, 5]
    assert bench_trunc.prob(3) == pytest.approx(0.2, abs=1e-15)
    assert bench_trunc.prob(0) == 0.0
    assert bench_trunc.prob(6) == 0.0
    with pytest.raises(ValueError):
        TruncationLaw(lo=0, hi=5, censor_offset=5)
    with pytest.raises(ValueError):
        TruncationLaw(lo=3, hi=2, censor_offset=5)
    with pytest.raises(ValueError):
        TruncationLaw(lo=1, hi=5, censor_offset=0)


def test_distribution_json_round_trip(bench_dist):
    clone = CompetingRisksDistribution.from_json(bench_dist.to_json())
    assert clone == bench_dist
    assert clone.pmf == bench_dist.pmf  # exact, not approximate


def test_cause_labels():
    assert Cause.from_label("default") is Cause.DEFAULT
    assert Cause.from_label(" Prepayment ") is Cause.PREPAY
    assert Cause.from_label("1") is Cause.DEFAULT
    assert Cause.from_label("2") is Cause.PREPAY
    assert Cause.DEFAULT.label == "default"
    with pytest.raises(ValueError):
        Cause.from_label("chargeoff")


def random_distributions():
    weights = st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=2, max_size=12)
    shares = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=12)
    return st.tuples(weights, shares, st.integers(1, 6)).map(_build_distribution)


def _build_distribution(args):
    weights, shares, min_age = args
    m = min(len(weights), len(shares))
    weights, shares = weights[:m], shares[:m]
    total = sum(weights)
    return CompetingRisksDistribution(
        min_age=min_age, max_age=min_age + m - 1,
        pmf=tuple(w / total for w in weights),
        cause1_share=tuple(shares),
    )


@settings(max_examples=60, deadline=None)
@given(random_distributions())
def test_random_distribution_invariants(dist):
    prev = np.inf
    for x in dist.ages:
        x = int(x)
        s = survival(dist, x)
        assert 0.0 < s <= prev + 1e-15
        prev = s
        lam = all_cause_hazard(dist, x)
        assert -1e-15 <= lam <= 1.0 + 1e-12
        lam1 = cause_specific_hazard(dist, x, Cause.DEFAULT)
        lam2 = cause_specific_hazard(dist, x, Cause.PREPAY)
        assert lam1 + lam2 == pytest.approx(lam, abs=1e-12)
    ages, probs = conditional_event_probs(dist, dist.min_age)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
