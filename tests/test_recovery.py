"""Recovery curve pipeline: per-age means, local smoothing, gamma-kernel fit."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hump_observations
from oracles import scipy_restarts
from cshazard import recovery
from cshazard.recovery import (
    GammaKernelFit,
    RecoveryFitError,
    RecoveryPoints,
    fit_from_json,
    fit_gamma_kernel,
    fit_to_json,
    recovery_at,
    recovery_points,
    smooth,
    write_recovery_csv,
)


def exact_kernel(ages, c, k, theta):
    ages = np.asarray(ages, dtype=np.float64)
    return c * ages ** (k - 1.0) * np.exp(-ages / theta)


# ---------------------------------------------------------------- raw means

def test_recovery_points_groups_and_averages():
    pairs = [(3, 0.2), (3, 0.4), (5, 0.5), (2, 0.0), (5, 0.1)]
    pts = recovery_points(pairs)
    assert pts.ages.tolist() == [2, 3, 5]
    np.testing.assert_allclose(pts.mean, [0.0, 0.3, 0.3], atol=1e-15)
    assert pts.count.tolist() == [1, 2, 2]


def test_recovery_points_warns_above_one_but_keeps_value():
    with pytest.warns(UserWarning, match="above 1"):
        pts = recovery_points([(4, 1.2), (4, 0.8), (6, 0.5)])
    # the flagged value still participates in the mean
    assert pts.mean[0] == pytest.approx(1.0)


def test_recovery_points_rejects_data_errors():
    with pytest.raises(ValueError):
        recovery_points([(4, 1.6)])
    with pytest.raises(ValueError):
        recovery_points([(4, -0.01)])
    with pytest.raises(ValueError, match="outside"):
        recovery_points([(4, 0.3), (5, float("nan"))])
    with pytest.raises(ValueError):
        recovery_points([])


# ---------------------------------------------------------------- smoother

def test_smooth_is_exact_on_affine_data():
    x = np.arange(1.0, 13.0)
    y = 0.3 + 0.05 * x
    np.testing.assert_allclose(smooth((x, y)), y, atol=1e-12)


def test_smooth_is_exact_on_constant_data():
    x = np.arange(1.0, 9.0)
    np.testing.assert_allclose(smooth((x, np.full(8, 0.4))), 0.4, atol=1e-12)


def test_smooth_accepts_points_object():
    pairs = [(a, 0.2 + 0.01 * a) for a in range(1, 11)]
    pts = recovery_points(pairs)
    direct = smooth((pts.ages.astype(float), pts.mean))
    np.testing.assert_array_equal(smooth(pts), direct)


def test_smooth_input_validation():
    x = np.arange(1.0, 5.0)  # only four points
    with pytest.raises(ValueError):
        smooth((x, x))
    x = np.arange(1.0, 11.0)
    with pytest.raises(ValueError):
        smooth((x, x), span=0.0)
    with pytest.raises(ValueError):
        smooth((x, x), span=1.2)
    same = np.full(6, 3.0)
    with pytest.raises(ValueError, match="degenerate"):
        smooth((same, same))


def test_smoother_recovers_hump_peak():
    # noisy single-peak curve: the smoothed maximum must stay near the truth
    pairs, truth = hump_observations()
    pts = recovery_points(pairs)
    fitted = smooth(pts)
    peak_age = int(pts.ages[int(np.argmax(fitted))])
    assert abs(peak_age - 12) <= 2
    assert abs(fitted.max() - 0.42) < 0.05
    # frozen regression value for this seed (independent probe of the pipeline)
    assert fitted.max() == pytest.approx(0.3992074246011566, abs=1e-12)


# ---------------------------------------------------------------- gamma fit

def test_fit_recovers_exact_kernel_parameters():
    x = np.arange(1.0, 31.0)
    y = exact_kernel(x, 0.1, 3.0, 6.0)
    fit = fit_gamma_kernel(x, y)
    assert fit.c == pytest.approx(0.1, rel=1e-3)
    assert fit.k == pytest.approx(3.0, rel=1e-3)
    assert fit.theta == pytest.approx(6.0, rel=1e-3)
    # warm start from the log-linear solve lands at float precision
    assert fit.residual < 1e-20
    assert fit.peak_age == pytest.approx(12.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(min_value=0.02, max_value=0.5),
    k=st.floats(min_value=1.5, max_value=5.0),
    theta=st.floats(min_value=2.0, max_value=12.0),
)
def test_fit_recovers_random_exact_kernels(c, k, theta):
    x = np.arange(1.0, 31.0)
    fit = fit_gamma_kernel(x, exact_kernel(x, c, k, theta), restarts=3, budget=3000)
    assert fit.c == pytest.approx(c, rel=1e-6)
    assert fit.k == pytest.approx(k, rel=1e-6)
    assert fit.theta == pytest.approx(theta, rel=1e-6)


def test_fit_of_smoothed_hump_peaks_near_truth():
    pairs, truth = hump_observations()
    pts = recovery_points(pairs)
    fit = fit_gamma_kernel(pts.ages, smooth(pts))
    assert abs(fit.peak_age - 12.0) <= 3.0
    assert fit.residual < 0.01


def test_fit_tolerates_slightly_negative_values():
    # local-linear smoothers overshoot below zero near a flat baseline
    x = np.arange(1.0, 31.0)
    y = exact_kernel(x, 0.05, 3.0, 3.0)  # decayed to ~2e-3 by age 30
    y[-1] = -1e-4
    y[-2] = -5e-5
    fit = fit_gamma_kernel(x, y)
    assert fit.k == pytest.approx(3.0, rel=0.05)
    assert fit.theta == pytest.approx(3.0, rel=0.05)


def test_fit_input_validation():
    x = np.arange(1.0, 31.0)
    with pytest.raises(ValueError):
        fit_gamma_kernel(x[:4], exact_kernel(x[:4], 0.1, 3.0, 6.0))
    with pytest.raises(ValueError, match="positive"):
        fit_gamma_kernel(np.arange(0.0, 10.0), np.ones(10))
    with pytest.raises(ValueError, match="no positive values"):
        fit_gamma_kernel(x, np.zeros(30))
    y = exact_kernel(x, 0.1, 3.0, 6.0)
    for kwargs in ({"restarts": 0}, {"restarts": -2}, {"budget": 0}, {"budget": -100}):
        with pytest.raises(ValueError, match=rf"{next(iter(kwargs))} must be >= 1"):
            fit_gamma_kernel(x, y, **kwargs)


def test_fit_budget_exhaustion_reports_best_so_far():
    pairs, _ = hump_observations()
    pts = recovery_points(pairs)
    with pytest.raises(RecoveryFitError) as excinfo:
        fit_gamma_kernel(pts.ages, pts.mean, restarts=2, budget=200)
    best = excinfo.value.best
    assert isinstance(best, GammaKernelFit)
    assert best.c > 0 and best.k > 0 and best.theta > 0
    assert np.isfinite(best.residual)


def test_fit_runs_no_more_than_its_budget(monkeypatch):
    pairs, _ = hump_observations()
    pts = recovery_points(pairs)
    points = []

    def counted(x, c, k, theta):
        points.append(len(c))  # one evaluation per parameter row
        return exact_kernel(x, c, k, theta)

    monkeypatch.setattr(recovery, "_kernel", counted)
    for budget, restarts in ((50, 2), (150, 2), (7, 7)):
        points.clear()
        with pytest.raises(RecoveryFitError, match=rf"\({budget} evaluations\)"):
            fit_gamma_kernel(pts.ages, pts.mean, restarts=restarts, budget=budget)
        assert 0 < sum(points) <= budget


def test_fit_is_deterministic():
    pairs, _ = hump_observations()
    pts = recovery_points(pairs)
    sm = smooth(pts)
    a = fit_gamma_kernel(pts.ages, sm, seed=3)
    b = fit_gamma_kernel(pts.ages, sm, seed=3)
    assert (a.c, a.k, a.theta, a.residual) == (b.c, b.k, b.theta, b.residual)


# ------------------------------------------- lockstep restarts against scipy

def lockstep_restarts(ages, values, restarts, budget, seed):
    """Per-restart results of `fit_gamma_kernel`'s blocks, concatenated."""
    x = np.asarray(ages, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    blocks = recovery._restart_blocks(x, y, restarts, budget, seed)
    return recovery._Restarts(*(np.concatenate(field) for field in zip(*blocks)))


def fit_and_converged(ages, values, restarts, budget, seed):
    """The fit and True, or the best of a RecoveryFitError and False."""
    try:
        return fit_gamma_kernel(ages, values, restarts=restarts, budget=budget, seed=seed), True
    except RecoveryFitError as exc:
        return exc.best, False


def check_against_scipy(ages, values, restarts, budget, seed=0):
    """Every restart and the fit are bit-identical to scipy's; returns scipy's results."""
    results, fit, converged = scipy_restarts(ages, values, restarts, budget, seed)
    got = lockstep_restarts(ages, values, restarts, budget, seed)
    assert got.x.shape == (restarts, 3)
    for i, res in enumerate(results):
        assert got.x[i].tobytes() == res.x.tobytes(), i
        assert got.fun[i].tobytes() == np.float64(res.fun).tobytes(), i
        assert (got.nfev[i], got.nit[i], bool(got.success[i])) == \
            (res.nfev, res.nit, bool(res.success)), i
    got_fit, got_converged = fit_and_converged(ages, values, restarts, budget, seed)
    assert got_converged == converged
    assert [v.hex() for v in (got_fit.c, got_fit.k, got_fit.theta, got_fit.residual)] == \
        [v.hex() for v in (fit.c, fit.k, fit.theta, fit.residual)]
    return results


def hump_means():
    pts = recovery_points(hump_observations()[0])
    return pts.ages.astype(np.float64), pts.mean


def steep_curve():
    # (x / 300)^100 e^(-x/1000): the starts' residuals leave float range
    x = np.arange(1.0, 301.0)
    return x, (x / 300.0) ** 100 * np.exp(-x / 1000.0)


def stale_vertex(ages, values, res):
    """A vertex whose value is not its objective value: a shrink cut short."""
    sim, fsim = res.final_simplex
    evaluated = recovery._squared_residuals(np.asarray(ages, np.float64),
                                            np.asarray(values, np.float64),
                                            recovery._parameters(sim))
    return bool(np.isfinite(fsim).all() and np.any(evaluated != fsim))


def test_lockstep_matches_scipy_on_an_exact_kernel_with_one_restart():
    x = np.arange(1.0, 31.0)
    (res,) = check_against_scipy(x, exact_kernel(x, 0.1, 3.0, 6.0), 1, 10000)
    assert res.success


def test_lockstep_matches_scipy_on_the_default_fit():
    ages, means = hump_means()
    results = check_against_scipy(ages, smooth((ages, means)), 10, 10000, seed=7)
    assert any(res.success for res in results)


@pytest.mark.parametrize("restarts, budget", [(7, 7), (3, 6), (3, 11), (2, 9)])
def test_lockstep_matches_scipy_before_the_simplex_is_filled(restarts, budget):
    results = check_against_scipy(*hump_means(), restarts, budget)
    # with fewer than 4 evaluations a start keeps inf at its unevaluated vertices
    assert (budget // restarts < 4) == any(np.isinf(res.final_simplex[1]).any()
                                           for res in results)


# The first shrink of the one-restart hump fit starts after evaluation 282.
@pytest.mark.parametrize("restarts, budget", [(1, 282), (1, 283), (1, 284), (2, 566)])
def test_lockstep_matches_scipy_when_the_budget_runs_out_in_a_shrink(restarts, budget):
    ages, means = hump_means()
    results = check_against_scipy(ages, means, restarts, budget)
    assert stale_vertex(ages, means, results[0])


def test_lockstep_matches_scipy_where_residuals_overflow():
    ages, values = steep_curve()
    results = check_against_scipy(ages, values, 3, 600)
    assert min(res.fun for res in results) == 1e300


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["exact", "noisy", "steep"]),
    n=st.integers(min_value=5, max_value=40),
    c=st.floats(min_value=0.02, max_value=0.5),
    k=st.floats(min_value=0.5, max_value=5.0),
    theta=st.floats(min_value=1.0, max_value=20.0),
    sigma=st.floats(min_value=1e-4, max_value=0.05),
    power=st.floats(min_value=40.0, max_value=120.0),
    restarts=st.integers(min_value=1, max_value=11),
    per_start=st.sampled_from([1, 2, 3, 4, 5, 9, 30, 120, 400]),
    spare=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a steep curve whose best log c (-810.7) is clipped to -50: both routes report the same fit
@example(shape="steep", n=5, c=0.5, k=1.0, theta=1.0, sigma=0.03125, power=102.5,
         restarts=2, per_start=120, spare=0, seed=70)
def test_lockstep_matches_scipy_bit_for_bit(shape, n, c, k, theta, sigma, power,
                                            restarts, per_start, spare, seed):
    if shape == "steep":
        x = np.arange(1.0, 301.0)
        y = (x / 300.0) ** power * np.exp(-x / 1000.0)
    else:
        x = np.arange(1.0, n + 1.0)
        y = exact_kernel(x, c, k, theta)
        if shape == "noisy":
            y = y + np.random.default_rng(seed).normal(0.0, sigma, n)
    check_against_scipy(x, y, restarts, restarts * per_start + min(spare, restarts - 1), seed)


@pytest.mark.parametrize("restarts", [1, 3, 4, 10])
def test_restart_blocks_do_not_change_the_fit(monkeypatch, restarts):
    ages, means = hump_means()
    sm = smooth((ages, means))
    budget = 300 * restarts  # short enough that some restarts run out
    whole = lockstep_restarts(ages, sm, restarts, budget, 5)
    fit = fit_and_converged(ages, sm, restarts, budget, 5)
    monkeypatch.setattr(recovery, "_RESTART_BLOCK", 3)
    blocked = lockstep_restarts(ages, sm, restarts, budget, 5)
    assert len(list(recovery._restart_blocks(ages, sm, restarts, budget, 5))) == \
        -(-restarts // 3)
    for a, b in zip(whole, blocked):
        assert a.tobytes() == b.tobytes()
    assert fit_and_converged(ages, sm, restarts, budget, 5) == fit


@pytest.mark.parametrize("case", ["hump", "steep"])
def test_reported_parameters_reproduce_the_reported_residual(case):
    """The fit reports the parameters the objective scored, clipped log c included:
    on the steep curve the best log c is -810.7, which used to be reported as
    exp(-810.7) = 0 and raise ValueError."""
    if case == "hump":
        ages, means = hump_means()
        x, y, restarts, budget, seed = ages, smooth((ages, means)), 10, 10000, 7
    else:
        x = np.arange(1.0, 301.0)
        y = (x / 300.0) ** 102.5 * np.exp(-x / 1000.0)
        restarts, budget, seed = 2, 240, 70
    fit, _ = fit_and_converged(x, y, restarts, budget, seed)
    assert recovery._squared_residuals(x, y, np.array([[fit.c, fit.k, fit.theta]])).tolist() \
        == [fit.residual]
    if case == "steep":
        assert fit.c == math.exp(-50.0)


# ---------------------------------------------------------------- evaluation

def test_recovery_at_clamps_to_unit_interval():
    fit = GammaKernelFit(c=0.1, k=3.0, theta=6.0, residual=0.0)
    # kernel value at the peak is 0.1 * 36 * exp(-1) = 1.3244..., clamped
    assert exact_kernel(np.array([6.0]), 0.1, 3.0, 6.0)[0] > 1.0
    assert recovery_at(fit, 6.0) == 1.0
    assert recovery_at(fit, 0.0) == 0.0
    # in-range ages evaluate the kernel itself
    assert recovery_at(fit, 1.0) == pytest.approx(0.1 * np.exp(-1.0 / 6.0))
    with pytest.raises(ValueError):
        recovery_at(fit, -1.0)


@pytest.mark.parametrize("c, k, theta, age, want", [
    (0.05, 400.0, 3.0, 36.0, 1.0),  # 36 ** 399 overflows; the kernel is about e^1415
    (1e308, 2.0, 1e-3, 2.0, 0.0),  # c * age is inf and exp(-2000) is 0: inf * 0
    # c * age is inf, exp(-age / theta) is subnormal, and the kernel is about 0.06
    (1e308, 2.0, 0.014, 10.0, math.exp(math.log(1e308) + math.log(10.0) - 10.0 / 0.014)),
    # (k - 1) log age and age / theta both leave float range; the second is larger
    (1e308, 1e308, 1e-308, 360.0, 0.0),
    (1e308, 1e308, 1e-300, 360.0, 1.0),  # here the first is
])
def test_recovery_at_past_float_range(c, k, theta, age, want):
    fit = GammaKernelFit(c=c, k=k, theta=theta, residual=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = recovery_at(fit, age)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # where the formula stays finite it keeps its bits
    assert recovery_at(fit, 1.0) == min(c * 1.0 ** (k - 1.0) * math.exp(-1.0 / theta), 1.0)


def test_recovery_at_decreasing_kernel_at_origin():
    fit = GammaKernelFit(c=0.5, k=0.8, theta=5.0, residual=0.0)
    assert fit.peak_age == 0.0
    assert recovery_at(fit, 0.0) == 1.0  # diverges at the origin, clamped


def test_fit_parameter_validation():
    with pytest.raises(ValueError):
        GammaKernelFit(c=-0.1, k=3.0, theta=6.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaKernelFit(c=0.1, k=0.0, theta=6.0, residual=0.0)


# ---------------------------------------------------------------- round trips

def test_fit_json_round_trip():
    fit = GammaKernelFit(c=0.0931, k=3.41, theta=5.55, residual=2.4e-4)
    doc = json.loads(fit_to_json(fit))
    assert doc["peak_age"] == pytest.approx(fit.peak_age)
    back = fit_from_json(fit_to_json(fit))
    assert (back.c, back.k, back.theta, back.residual) == \
        (fit.c, fit.k, fit.theta, fit.residual)


def test_write_recovery_csv(tmp_path):
    pairs, _ = hump_observations()
    pts = recovery_points(pairs)
    sm = smooth(pts)
    fit = fit_gamma_kernel(pts.ages, sm)
    out = tmp_path / "recovery.csv"
    write_recovery_csv(out, pts, sm, fit)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "age,raw_mean,smoothed,fitted"
    assert len(lines) == 1 + pts.ages.size
    first = lines[1].split(",")
    assert int(first[0]) == int(pts.ages[0])
    assert float(first[1]) == pts.mean[0]
    assert float(first[2]) == sm[0]
    assert float(first[3]) == recovery_at(fit, int(pts.ages[0]))
