"""The numpy kernels against pure-Python loops: outputs must be identical."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import loop_assemble_cohort, searchsorted_cells

from cshazard import _kernels
from cshazard.montecarlo import benchmark_distribution


def bench_arrays():
    dist = benchmark_distribution()
    cdf = np.cumsum(np.asarray(dist.pmf))
    share = np.asarray(dist.cause1_share)
    return cdf, share


def random_draws(rng, n):
    return rng.random(n), rng.random(n), rng.random(n)


def random_cohort(rng, n):
    """Raw observation arrays with entries/exits straddling the count window."""
    entry = rng.integers(1, 8, size=n)
    exit_age = entry + rng.integers(0, 9, size=n)
    event = rng.random(n) < 0.7
    is_default = rng.random(n) < 0.4
    return entry, exit_age, event, is_default


def naive_counts(entry, exit_age, event, is_default, age_lo, age_hi):
    width = age_hi - age_lo + 1
    at_risk = np.zeros(width, dtype=np.int64)
    ev_d = np.zeros(width, dtype=np.int64)
    ev_p = np.zeros(width, dtype=np.int64)
    for j in range(len(entry)):
        for x in range(age_lo, age_hi + 1):
            if entry[j] <= x <= exit_age[j]:
                at_risk[x - age_lo] += 1
        if event[j] and age_lo <= exit_age[j] <= age_hi:
            if is_default[j]:
                ev_d[exit_age[j] - age_lo] += 1
            else:
                ev_p[exit_age[j] - age_lo] += 1
    return at_risk, ev_d, ev_p


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_assemble_cohort_paths_agree(seed):
    cdf, share = bench_arrays()
    rng = np.random.default_rng(seed)
    u_entry, u_life, u_cause = random_draws(rng, 5000)
    got = _kernels.assemble_cohort(u_entry, u_life, u_cause, cdf, share, 1, 5, 1, 5)
    want = loop_assemble_cohort(u_entry, u_life, u_cause, cdf, share, 1, 5, 1, 5)
    for left, right in zip(got, want):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == right.dtype


def test_assemble_cohort_agrees_on_cdf_ties():
    # a draw landing exactly on a cumulative boundary belongs to the next age
    cdf, share = bench_arrays()
    u_life = np.concatenate([cdf[:-1], [0.0, 1.0 - 1e-16]])
    n = u_life.size
    half = np.full(n, 0.5)
    zeros = np.zeros(n)
    got = _kernels.assemble_cohort(zeros, u_life, half, cdf, share, 1, 5, 1, 5)
    want = loop_assemble_cohort(zeros, u_life, half, cdf, share, 1, 5, 1, 5)
    for left, right in zip(got, want):
        np.testing.assert_array_equal(left, right)
    # entry is forced to 1, so every draw is retained; boundary draw cdf[i]
    # maps to age i + 2 under the strict-exceedance rule
    exits = got[1]
    assert exits[0] == 2  # u = cdf[0] -> second age
    assert exits[-2] == 1  # u = 0 -> first age
    assert exits[-1] == 6  # u near 1 -> censored at entry + offset


@st.composite
def lifetime_cdfs(draw):
    """Cumulative masses as `np.cumsum` of a pmf gives them.

    Masses span twelve orders of magnitude, so one guide bin can hold many
    cumulative values; zero-mass ages repeat a value, and the last value may
    sit 1e-9 above or below 1, as rounding can leave it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 400))
    pmf = rng.random(k) * 10.0 ** -rng.integers(0, 12, k)
    pmf[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    pmf[rng.integers(k)] += 0.5  # some mass somewhere
    end = draw(st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9]))
    return np.cumsum(pmf / pmf.sum() * end)


@settings(max_examples=150, deadline=None)
@given(lifetime_cdfs(), st.integers(0, 2**32 - 1))
@example(bench_arrays()[0], 0)
@example(np.cumsum([0.0, 0.0, 1.0, 0.0]), 1)  # zero mass before and after the only age
@example(np.array([1.0 - 1e-9]), 2)  # one age that cannot catch a draw near 1
def test_guide_table_lookup_matches_searchsorted(cdf, seed):
    k = cdf.size
    guide = _kernels.guide_table(cdf)
    m = guide.size
    assert m >= 4 * k and m < 8 * k and m & (m - 1) == 0  # the smallest power of two >= 4k
    bins = np.arange(m) / m
    np.testing.assert_array_equal(
        guide, np.minimum(np.searchsorted(cdf, bins, side="right"), k - 1))

    rng = np.random.default_rng(seed)
    u_life = np.concatenate([
        rng.random(2000), [0.0, np.nextafter(1.0, 0.0)], bins, cdf,
        np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), np.nextafter(bins[1:], 0.0)])
    u_life = u_life[u_life < 1.0]  # uniform draws lie in [0, 1)
    u_entry, u_cause = rng.random(u_life.size), rng.random(u_life.size)
    share = rng.random(k)
    got = _kernels.draw_cells(u_entry, u_life, u_cause, cdf, guide, share, 7)
    want = searchsorted_cells(u_entry, u_life, u_cause, cdf, share, 7)
    for left, right in zip(got, want):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == right.dtype


@pytest.mark.parametrize("seed,n,lo,hi", [
    pytest.param(30, 800, 3, 8, id="30"), pytest.param(31, 800, 3, 8, id="31"),
    pytest.param(10, 4000, 2, 9, id="10"), pytest.param(11, 4000, 2, 9, id="11"),
    pytest.param(12, 4000, 2, 9, id="12"),
])
def test_count_exits_matches_naive_loop(seed, n, lo, hi):
    rng = np.random.default_rng(seed)
    entry, exit_age, event, is_default = random_cohort(rng, n)
    got = _kernels.count_exits(entry, exit_age, event, is_default, lo, hi)
    want = naive_counts(entry, exit_age, event, is_default, lo, hi)
    for left, right in zip(got, want):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == np.int64


def test_count_exits_window_edges():
    # entries below the window, exits beyond it, and single-age spells
    entry = np.array([1, 1, 5, 9, 4], dtype=np.int64)
    exit_age = np.array([2, 10, 5, 9, 3], dtype=np.int64)
    event = np.array([True, True, True, True, False])
    is_default = np.array([True, False, True, False, True])
    at_risk, ev_d, ev_p = _kernels.count_exits(entry, exit_age, event,
                                               is_default, 3, 8)
    want = naive_counts(entry, exit_age, event, is_default, 3, 8)
    np.testing.assert_array_equal(at_risk, want[0])
    np.testing.assert_array_equal(ev_d, want[1])
    np.testing.assert_array_equal(ev_p, want[2])
    # the exit at 10 lies past the window: at risk through 8, never an event
    assert ev_p.sum() == 0
    assert ev_d.tolist() == [0, 0, 1, 0, 0, 0]  # single-age spell at 5


def test_retention_and_censoring_invariants():
    cdf, share = bench_arrays()
    rng = np.random.default_rng(42)
    u_entry, u_life, u_cause = random_draws(rng, 20000)
    entry, exit_age, event, is_default = _kernels.assemble_cohort(
        u_entry, u_life, u_cause, cdf, share, 1, 5, 1, 5)
    assert entry.size < 20000  # truncation discards, never re-draws
    assert np.all(entry >= 1) and np.all(entry <= 5)
    assert np.all(exit_age >= entry)
    assert np.all(exit_age[event] <= entry[event] + 5)
    assert np.all(exit_age[~event] == entry[~event] + 5)
    # retained fraction near the analytic clearing probability
    assert abs(entry.size / 20000 - 0.864) < 0.01


@pytest.mark.parametrize("seed", [20, 21])
def test_weighted_count_exits_equals_repeated_rows(seed):
    # a row with weight w counts as w identical observations; weight 0 drops it
    rng = np.random.default_rng(seed)
    entry, exit_age, event, is_default = random_cohort(rng, 300)
    weights = rng.integers(0, 6, size=300)
    got = _kernels.count_exits(entry, exit_age, event, is_default, 3, 8, weights=weights)
    want = naive_counts(*(np.repeat(a, weights) for a in
                          (entry, exit_age, event, is_default)), 3, 8)
    for left, right in zip(got, want):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == np.int64


@st.composite
def grouped_cohorts(draw):
    """Weighted rows in groups, some groups empty; entries and exits straddle the window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(1, 6))
    hi = lo + draw(st.integers(0, 8))
    n, n_groups = draw(st.integers(0, 80)), draw(st.integers(1, 6))
    entry = rng.integers(lo - 3, hi + 4, size=n)
    exit_age = entry + rng.integers(0, 10, size=n)
    event, is_default = rng.random(n) < 0.7, rng.random(n) < 0.4
    weights = rng.integers(0, 6, size=n) * (rng.random(n) < draw(st.sampled_from([0.0, 0.8])))
    named = rng.choice(n_groups, size=draw(st.integers(1, n_groups)), replace=False)
    return entry, exit_age, event, is_default, lo, hi, weights, rng.choice(named, size=n), n_groups


def _cohort(entry, exit_age, event, is_default, lo, hi, weights, groups, n_groups):
    """One cohort as `grouped_cohorts` draws it, from lists."""
    return (np.array(entry, dtype=np.int64), np.array(exit_age, dtype=np.int64),
            np.array(event, dtype=bool), np.array(is_default, dtype=bool), lo, hi,
            np.array(weights, dtype=np.int64), np.array(groups, dtype=np.int64), n_groups)


@settings(max_examples=200, deadline=None)
@given(grouped_cohorts())
@example(_cohort([], [], [], [], 2, 5, [], [], 3))  # no rows: every group empty
# a single group; an exit before the window and an entry after it
@example(_cohort([1, 2, 9], [1, 7, 12], [True, True, True], [True, False, True], 3, 6,
                 [2, 1, 3], [0, 0, 0], 1))
# zero weights only, and groups 1 and 3 empty
@example(_cohort([3, 4, 4], [5, 4, 8], [True, True, False], [False, True, True], 3, 6,
                 [0, 0, 0], [2, 0, 2], 4))
def test_grouped_count_exits_equals_one_weighted_call_per_group(cohort):
    entry, exit_age, event, is_default, lo, hi, weights, groups, n_groups = cohort
    got = _kernels.count_exits(entry, exit_age, event, is_default, lo, hi,
                               weights=weights, groups=groups, n_groups=n_groups)
    for table in got:
        assert table.dtype == np.int64 and table.shape == (n_groups, hi - lo + 1)
    for g in range(n_groups):
        rows = groups == g
        want = _kernels.count_exits(entry[rows], exit_age[rows], event[rows], is_default[rows],
                                    lo, hi, weights=weights[rows])
        for table, one in zip(got, want):
            assert one.dtype == np.int64
            np.testing.assert_array_equal(table[g], one)
