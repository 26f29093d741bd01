"""Simulation study: analytic truncated quantities and the replicate engine."""
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_dist, bench_trunc, small_study  # noqa: F401  (fixtures)
from oracles import enumerate_truncated, loop_study_counts, searchsorted_cells
from cshazard import _kernels, montecarlo
from cshazard.estimator import _log_ci, normal_quantile
from cshazard.montecarlo import (
    SimConfig,
    StudyReport,
    analytic_variance,
    benchmark_distribution,
    benchmark_truncation,
    observed_at_risk_fraction,
    observed_event_fraction,
    run_study,
    simulate_cohort,
    truncated_alpha,
    truncated_hazard,
)
from cshazard.riskmodel import (
    Cause,
    CompetingRisksDistribution,
    TruncationLaw,
    all_cause_hazard,
)

CAUSES = (Cause.DEFAULT, Cause.PREPAY)


def test_benchmark_preset_constants(bench_dist, bench_trunc):
    assert bench_dist.min_age == 1 and bench_dist.max_age == 10
    assert bench_dist.pmf == (0.04, 0.06, 0.10, 0.14, 0.09, 0.06, 0.14, 0.18, 0.07, 0.12)
    assert bench_dist.cause1_share == (0.66, 0.20, 0.45, 0.87, 0.20, 0.81, 0.05, 0.78, 0.25, 0.42)
    assert (bench_trunc.lo, bench_trunc.hi, bench_trunc.censor_offset) == (1, 5, 5)


def test_truncated_alpha_frozen(bench_dist, bench_trunc):
    alpha = truncated_alpha(bench_dist, bench_trunc)
    assert alpha == pytest.approx(0.864, abs=1e-12)
    _, _, alpha_enum = enumerate_truncated(bench_dist, bench_trunc, 1, Cause.DEFAULT)
    assert alpha == pytest.approx(alpha_enum, abs=1e-12)


def test_factorized_quantities_match_enumeration(bench_dist, bench_trunc):
    # closed-form f, U, and hazard against the exhaustive double loop over
    # every (lifetime, entry) pair, at every age and for both causes
    for x in range(1, 11):
        for cause in CAUSES:
            f_enum, u_enum, _ = enumerate_truncated(bench_dist, bench_trunc, x, cause)
            f = observed_event_fraction(bench_dist, bench_trunc, x, cause)
            u = observed_at_risk_fraction(bench_dist, bench_trunc, x)
            assert f == pytest.approx(f_enum, abs=1e-12)
            assert u == pytest.approx(u_enum, abs=1e-12)
            assert truncated_hazard(bench_dist, bench_trunc, x, cause) == \
                pytest.approx(f_enum / u_enum, abs=1e-12)


def test_truncation_leaves_hazard_unbiased(bench_dist, bench_trunc):
    # the entry law cancels in the ratio, so the truncated hazard equals the
    # unconditional cause-specific hazard
    for x in range(1, 11):
        share = bench_dist.cause1_share[bench_dist.index(x)]
        for cause, s in zip(CAUSES, (share, 1.0 - share)):
            assert truncated_hazard(bench_dist, bench_trunc, x, cause) == \
                pytest.approx(all_cause_hazard(bench_dist, x) * s, abs=1e-12)
    assert truncated_hazard(bench_dist, bench_trunc, 8, Cause.DEFAULT) == \
        pytest.approx(0.3794594594594595, abs=1e-15)


def test_no_window_mass_raises(bench_dist):
    narrow = TruncationLaw(lo=2, hi=3, censor_offset=1)
    # ages 2..4 can be straddled by an entry window, 1 and 6 cannot
    assert observed_at_risk_fraction(bench_dist, narrow, 3) > 0
    with pytest.raises(ValueError):
        truncated_hazard(bench_dist, narrow, 1, Cause.DEFAULT)
    with pytest.raises(ValueError):
        analytic_variance(bench_dist, narrow, 6, Cause.DEFAULT, 100.0)


def test_entry_window_past_the_last_age_with_mass_raises(bench_dist):
    # no lifetime clears truncation: every analytic fraction would divide by zero
    past = TruncationLaw(lo=11, hi=30, censor_offset=5)
    assert truncated_alpha(bench_dist, past) == 0.0
    message = r"^entry window 11\.\.30 lies past the law's last age with mass, 10: "
    for call in (lambda: truncated_hazard(bench_dist, past, 10, Cause.DEFAULT),
                 lambda: analytic_variance(bench_dist, past, 10, Cause.PREPAY, 100.0),
                 lambda: observed_event_fraction(bench_dist, past, 10, Cause.DEFAULT),
                 lambda: observed_at_risk_fraction(bench_dist, past, 10),
                 lambda: run_study(SimConfig(dist=bench_dist, trunc=past, n=10, replicates=2,
                                             seed=1))):
        with pytest.raises(ValueError, match=message):
            call()
    # a law whose mass ends before its last age: the message names the last age with mass
    early = CompetingRisksDistribution(1, 4, (0.5, 0.5, 0.0, 0.0), (0.5,) * 4)
    with pytest.raises(ValueError, match=r"^entry window 3\.\.5 .* with mass, 2: "):
        truncated_hazard(early, TruncationLaw(lo=3, hi=5, censor_offset=2), 3, Cause.DEFAULT)


def test_analytic_variance_formula(bench_dist, bench_trunc):
    f, u, alpha = enumerate_truncated(bench_dist, bench_trunc, 8, Cause.DEFAULT)
    n_obs = 1000 * alpha
    expect = f * (u - f) / (n_obs * u**3)
    assert analytic_variance(bench_dist, bench_trunc, 8, Cause.DEFAULT, n_obs) == \
        pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- simulation

def test_simulate_cohort_is_seed_deterministic(bench_dist, bench_trunc):
    cfg = SimConfig(dist=bench_dist, trunc=bench_trunc, n=500, replicates=4, seed=13)
    a = simulate_cohort(cfg, 2)
    b = simulate_cohort(cfg, 2)
    assert a == b
    assert simulate_cohort(cfg, 3) != a
    with pytest.raises(ValueError):
        simulate_cohort(cfg, -1)


def test_simulated_records_are_consistent(bench_dist, bench_trunc):
    cfg = SimConfig(dist=bench_dist, trunc=bench_trunc, n=2000, replicates=1, seed=5)
    cohort = simulate_cohort(cfg, 0)
    assert 0 < len(cohort) < 2000  # some draws fail truncation
    entry, exit_age, event, cause = cohort.entry_age, cohort.exit_age, cohort.event, cohort.cause
    assert np.all((1 <= entry) & (entry <= 5))
    assert np.all(exit_age >= entry)
    assert np.all(np.isin(cause[event], [c.value for c in CAUSES]))
    assert np.all(exit_age[event] <= np.minimum(10, entry[event] + 5))
    assert np.all(cause[~event] == 0)
    assert np.all(exit_age[~event] == entry[~event] + 5)
    assert event.any() and not event.all()


def test_config_validation(bench_dist, bench_trunc):
    with pytest.raises(ValueError):
        SimConfig(dist=bench_dist, trunc=bench_trunc, n=0, replicates=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dist=bench_dist, trunc=bench_trunc, n=10, replicates=0, seed=0)
    for theta in (1.5, 1e-20):
        with pytest.raises(ValueError, match="theta"):
            SimConfig(dist=bench_dist, trunc=bench_trunc, n=10, replicates=1, seed=0,
                      theta=theta)


@pytest.mark.parametrize("lo,hi", [(1, 3), (1, 5), (2, 9), (4, 12)])
def test_truncated_alpha_matches_enumeration_beyond_the_support(lo, hi):
    # entries below the first age keep every lifetime; entries past the last keep none
    dist = CompetingRisksDistribution(3, 8, (0.1, 0.2, 0.3, 0.1, 0.2, 0.1),
                                      (0.5, 0.4, 0.3, 0.6, 0.5, 0.5))
    trunc = TruncationLaw(lo, hi, 5)
    brute = enumerate_truncated(dist, trunc, 5, Cause.DEFAULT)[2]
    assert truncated_alpha(dist, trunc) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------- study report

def test_report_shapes(small_study):
    rep = small_study
    assert rep.ages.tolist() == list(range(1, 11))
    for arr in (rep.lam_true, rep.lam_mean, rep.emp_var, rep.asym_var,
                rep.coverage, rep.ci_defined):
        assert arr.shape == (10, 2)
    assert rep.estimates.shape == (rep.replicates, 10, 2)
    assert rep.ci_defined.dtype.kind in "iu"
    assert rep.ci_defined.max() <= rep.replicates
    assert rep.truncation_fraction == pytest.approx(1.0 - rep.alpha_hat)


def test_retained_fraction_tracks_alpha(small_study):
    assert small_study.alpha_true == pytest.approx(0.864, abs=1e-12)
    assert abs(small_study.alpha_hat - 0.864) < 0.02


def test_replicate_means_track_analytic_hazards(small_study):
    rep = small_study
    # every age 1..9, both causes: the replicate mean sits within three
    # Monte-Carlo standard errors of the closed-form truncated hazard
    se = np.sqrt(rep.emp_var[:9] / rep.replicates)
    gap = np.abs(rep.lam_mean[:9] - rep.lam_true[:9])
    assert np.all(np.isfinite(se)) and np.all(se > 0)
    assert np.nanmax(gap / se) < 3.0


def test_variance_ratio_and_coverage(small_study, bench_dist, bench_trunc):
    rep = small_study
    f = np.array([[observed_event_fraction(bench_dist, bench_trunc, x, c)
                   for c in CAUSES] for x in range(1, 11)])
    informative = f >= 0.01
    ratio = rep.var_ratio[informative]
    # 60 replicates put wide noise on a variance ratio; the bound is loose
    # here and tightened to [0.8, 1.2] in the thousand-replicate run
    assert ratio.min() > 0.5 and ratio.max() < 1.5
    well_defined = rep.ci_defined >= 30
    cov = rep.coverage[well_defined]
    assert np.nanmin(cov) > 0.85 and np.nanmax(cov) <= 1.0


def test_run_study_reproducible(bench_dist, bench_trunc):
    cfg = SimConfig(dist=bench_dist, trunc=bench_trunc, n=300, replicates=8, seed=21)
    a = run_study(cfg)
    b = run_study(cfg)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert a.alpha_hat == b.alpha_hat


def test_estimates_tighten_with_cohort_size(bench_dist, bench_trunc):
    # mean absolute error at interior ages shrinks roughly like sqrt(n)
    mads = {}
    for n in (1000, 10000):
        rep = run_study(SimConfig(dist=bench_dist, trunc=bench_trunc,
                                  n=n, replicates=40, seed=19))
        err = np.abs(rep.estimates - rep.lam_true[None, :, :])
        mads[n] = np.nanmean(err[:, 1:9, :])
    assert mads[1000] / mads[10000] > 2.0


# ---------------------------------------------------------------- exports

def test_to_dict_and_json(small_study):
    doc = small_study.to_dict()
    assert doc["causes"] == ["default", "prepay"]
    assert doc["ages"] == list(range(1, 11))
    assert doc["alpha_true"] == pytest.approx(0.864)
    assert doc["truncation_fraction"] == pytest.approx(1.0 - doc["alpha_hat"])
    assert json.loads(small_study.to_json()) == doc


def test_json_turns_nan_into_null(bench_dist, bench_trunc):
    # a single replicate leaves the empirical variance undefined everywhere
    rep = run_study(SimConfig(dist=bench_dist, trunc=bench_trunc,
                              n=400, replicates=1, seed=3))
    doc = rep.to_dict()
    assert all(v is None for row in doc["emp_var"] for v in row)
    assert "NaN" not in rep.to_json()


def test_write_csv(small_study, tmp_path):
    out = tmp_path / "study.csv"
    small_study.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("age,cause,lam_true,lam_mean,emp_var,asym_var,"
                        "var_ratio,coverage,ci_defined")
    assert len(lines) == 1 + 10 * 2
    row8 = lines[1 + 7 * 2].split(",")  # age 8, default
    assert row8[0] == "8" and row8[1] == "default"
    assert float(row8[2]) == pytest.approx(0.3794594594594595, abs=1e-15)
    assert int(row8[8]) <= small_study.replicates


def test_write_csv_blank_for_undefined(bench_dist, bench_trunc, tmp_path):
    rep = run_study(SimConfig(dist=bench_dist, trunc=bench_trunc,
                              n=400, replicates=1, seed=3))
    out = tmp_path / "one.csv"
    rep.write_csv(out)
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[4] == ""  # emp_var column is blank, not NaN


# ---------------------------------------------------------------- against the loop oracle

@st.composite
def study_configs(draw):
    """Random laws in run_study's domain: every age has at-risk mass.

    That needs the entry window to start at or below the first age, to
    reach within the censoring offset of the last age, and positive mass at
    the last age.
    """
    k = draw(st.integers(1, 40))
    min_age = draw(st.integers(1, 6))
    max_age = min_age + k - 1
    lo = draw(st.integers(1, min_age))
    hi = min_age + draw(st.integers(0, 45))
    offset = draw(st.integers(max(1, max_age - hi), max(1, max_age - hi) + 12))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                            min_size=k - 1, max_size=k - 1))
    weights = np.array([*weights, draw(st.floats(0.01, 1.0))])
    shares = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                           min_size=k, max_size=k))
    dist = CompetingRisksDistribution(min_age, max_age, tuple((weights / weights.sum()).tolist()),
                                      tuple(shares))
    return SimConfig(dist=dist, trunc=TruncationLaw(lo, hi, offset),
                     n=draw(st.integers(1, 300)), replicates=draw(st.integers(1, 5)),
                     seed=draw(st.integers(0, 2**32)),
                     # below about 1e-16, 1 - theta/2 rounds to 1 and has no quantile
                     theta=draw(st.floats(1e-9, 1.0, exclude_max=True)))


def _forty_age_config(n, r):
    dist = CompetingRisksDistribution(1, 40, (1 / 40,) * 40, (0.5,) * 40)
    return SimConfig(dist=dist, trunc=TruncationLaw(1, 3, 38), n=n, replicates=r, seed=5)


def _window_past_last_age():
    dist = CompetingRisksDistribution(2, 6, (0.1, 0.2, 0.3, 0.2, 0.2), (0.3, 0.9, 0.5, 0.1, 0.6))
    return SimConfig(dist=dist, trunc=TruncationLaw(2, 40, 3), n=200, replicates=3, seed=9)


@settings(max_examples=60, deadline=None)
# replicates are scored in blocks of block_rows // max(ages, min(n, codes)): 1 << 12 gives
# one block here
@given(study_configs(), st.sampled_from([1, 30, 1 << 12]))
@example(_window_past_last_age(), 1 << 12)  # most entry offsets lie above the last age
@example(_forty_age_config(1, 1), 1 << 12)  # one draw, one replicate: most ages have nobody at risk
@example(_forty_age_config(3, 5), 80)  # blocks of two replicates, the last one short
# blocks of two replicates that keep 1, 0 | 0 draws: each block ends in an empty replicate
@example(dataclasses.replace(_window_past_last_age(), n=2, seed=20), 10)
def test_run_study_matches_loop_counts(config, block_rows):
    seen = []
    count_exits = _kernels.count_exits

    def recording(*args, weights, groups, n_groups, **kwargs):
        tables = count_exits(*args, weights=weights, groups=groups, n_groups=n_groups, **kwargs)
        seen.append((np.bincount(groups, weights, minlength=n_groups), *tables))
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "count_exits", recording)
        mp.setattr(montecarlo, "_SCORE_BLOCK_ROWS", block_rows)
        report = run_study(config)
    kept, at_risk, events = loop_study_counts(config)
    # one call per block of replicates: equal blocks, the last one no longer
    sizes = [len(call[0]) for call in seen]
    assert sum(sizes) == config.replicates
    assert all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]
    got_kept, got_risk, got_d, got_p = (np.concatenate(tables) for tables in zip(*seen))
    for rep in range(config.replicates):
        assert got_kept[rep] == kept[rep]
        np.testing.assert_array_equal(got_risk[rep], at_risk[rep])
        np.testing.assert_array_equal(got_d[rep], events[rep, :, 0])
        np.testing.assert_array_equal(got_p[rep], events[rep, :, 1])

    # the report from those counts, replicate by replicate and cause by cause
    z = normal_quantile(1.0 - config.theta / 2.0)
    r, n_ages = at_risk.shape
    estimates = np.full((r, n_ages, 2), np.nan)
    defined = np.zeros((n_ages, 2), dtype=np.int64)
    covered = np.zeros((n_ages, 2), dtype=np.int64)
    for rep in range(r):
        for c in range(2):
            ev, ar = events[rep, :, c], at_risk[rep]
            lam = np.array([e / a if a > 0 else np.nan for e, a in zip(ev.tolist(), ar.tolist())])
            estimates[rep, :, c] = lam
            lo, hi = _log_ci(lam, ev, ar, z)
            for ai in range(n_ages):
                if 0 < ev[ai] < ar[ai]:
                    defined[ai, c] += 1
                    covered[ai, c] += lo[ai] <= report.lam_true[ai, c] <= hi[ai]
    np.testing.assert_array_equal(report.estimates, estimates)  # NaN where nobody at risk
    np.testing.assert_array_equal(report.ci_defined, defined)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.testing.assert_array_equal(report.coverage,
                                      np.where(defined > 0, covered / defined, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ages with no estimate at all
        np.testing.assert_array_equal(report.lam_mean, np.nanmean(estimates, axis=0))
        if r > 1:
            np.testing.assert_array_equal(report.emp_var, np.nanvar(estimates, axis=0, ddof=1))
        else:
            assert np.all(np.isnan(report.emp_var))
    assert report.alpha_hat == float(np.mean(kept / config.n))


def _long_law_config():
    """360 ages, entry on 1..60, offset 301: 43,200 cell codes against n = 1,000."""
    rng = np.random.default_rng(7)
    pmf = rng.random(360)
    dist = CompetingRisksDistribution(1, 360, tuple((pmf / pmf.sum()).tolist()),
                                      tuple(rng.random(360).tolist()))
    return SimConfig(dist=dist, trunc=TruncationLaw(1, 60, 301), n=1000, replicates=100, seed=3)


@pytest.mark.parametrize("config", [
    SimConfig(dist=benchmark_distribution(), trunc=benchmark_truncation(), n=10_000,
              replicates=1000, seed=7),
    _long_law_config(),
    # entries 1..15 on ages 1..10: offsets 10..14 all fold into offset 10
    SimConfig(dist=benchmark_distribution(), trunc=TruncationLaw(1, 15, 5), n=500,
              replicates=20, seed=5),
], ids=["benchmark", "long-law", "window-past-last-age"])
def test_run_study_is_bit_equal_under_the_searchsorted_oracle(config):
    calls = []
    fold = max(config.dist.max_age + 1 - config.trunc.lo, 0)

    def oracle(u_entry, u_life, u_cause, cdf, table, cause1_share, span, offset_codes):
        calls.append(span)
        return searchsorted_cells(u_entry, u_life, u_cause, cdf, cause1_share, span, fold)

    got = run_study(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "draw_cells", oracle)
        want = run_study(config)
    assert len(calls) == config.replicates
    for field in dataclasses.fields(StudyReport):
        left, right = getattr(got, field.name), getattr(want, field.name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), field.name
        else:
            assert left == right, field.name
