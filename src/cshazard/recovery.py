"""Recovery-upon-default curves: raw means, local smoothing, gamma-kernel fit.

Raw per-age recovery percentages (recovered amount over original amount,
averaged over loans defaulting at that age) are smoothed with a local-linear
tricube regression and then fitted to the three-parameter kernel
R(x) = c * x^(k-1) * exp(-x/theta), which supports extrapolation beyond the
observed default ages.  When k > 1 the kernel has a single interior peak at
(k-1)*theta.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, SchemaError
from .ingest import _write_csv

__all__ = [
    "RecoveryPoints",
    "GammaKernelFit",
    "RecoveryFitError",
    "recovery_points",
    "smooth",
    "fit_gamma_kernel",
    "recovery_at",
]

DEFAULT_SPAN = 0.75
DEFAULT_RESTARTS = 10
DEFAULT_BUDGET = 10000
_MIN_POINTS = 5


@dataclass(frozen=True)
class RecoveryPoints:
    """Mean recovery fraction and loan count per default age (absent ages omitted)."""

    ages: np.ndarray
    mean: np.ndarray
    count: np.ndarray


class RecoveryFitError(NumericalError):
    """Optimizer exhausted its budget; carries the best fit found so far."""

    def __init__(self, message: str, best: "GammaKernelFit | None" = None):
        super().__init__(message)
        self.best = best


def recovery_points(observations) -> RecoveryPoints:
    """Average recovery percentages by default age.

    observations is an iterable of (age, recovered_fraction) pairs.  Values
    above 1 are kept but flagged with a warning; above 1.5 they are rejected
    as data errors.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for age, pct in observations:
        age = int(age)
        pct = float(pct)
        if not 0.0 <= pct <= 1.5:
            raise ValueError(f"recovery fraction {pct} at age {age} outside [0, 1.5]")
        if pct > 1.0:
            warnings.warn(f"recovery fraction {pct} above 1 at age {age}", stacklevel=2)
        sums[age] = sums.get(age, 0.0) + pct
        counts[age] = counts.get(age, 0) + 1
    if not sums:
        raise ValueError("no recovery observations")
    ages = np.array(sorted(sums), dtype=np.int64)
    mean = np.array([sums[a] / counts[a] for a in ages])
    count = np.array([counts[a] for a in ages], dtype=np.int64)
    return RecoveryPoints(ages=ages, mean=mean, count=count)


def smooth(points, span: float = DEFAULT_SPAN) -> np.ndarray:
    """Local-linear tricube smoother evaluated on the observed age grid.

    For each target age the nearest ceil(span * n) points define the
    neighborhood; weights decay tricubically with distance over the
    neighborhood radius.  Exact on affine data.
    """
    if isinstance(points, RecoveryPoints):
        x = points.ages.astype(np.float64)
        y = points.mean
    else:
        x, y = points
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < _MIN_POINTS:
        raise ValueError(f"smoothing needs at least {_MIN_POINTS} points, got {n}")
    if not 0.0 < span <= 1.0:
        raise ValueError("span must lie in (0, 1]")
    r = min(max(int(math.ceil(span * n)), 2), n)
    fitted = np.empty(n)
    for i in range(n):
        dist = np.abs(x - x[i])
        h = np.sort(dist)[r - 1]
        if h <= 0:
            raise ValueError("degenerate age grid: neighborhood radius is zero")
        w = np.clip(dist / h, 0.0, 1.0)
        w = (1.0 - w**3) ** 3
        sw = w.sum()
        xm = (w * x).sum() / sw
        ym = (w * y).sum() / sw
        sxx = (w * (x - xm) ** 2).sum()
        if sxx <= 0:
            fitted[i] = ym
            continue
        beta = (w * (x - xm) * (y - ym)).sum() / sxx
        fitted[i] = ym + beta * (x[i] - xm)
    return fitted


@dataclass(frozen=True)
class GammaKernelFit:
    """Least-squares parameters of c * x^(k-1) * exp(-x/theta)."""

    c: float
    k: float
    theta: float
    residual: float

    def __post_init__(self) -> None:
        if self.c <= 0 or self.k <= 0 or self.theta <= 0:
            raise ValueError("gamma-kernel parameters must be positive")

    @property
    def peak_age(self) -> float:
        """Interior maximum location (k-1)*theta; 0 when the kernel is decreasing."""
        return (self.k - 1.0) * self.theta if self.k > 1.0 else 0.0


def _kernel(x: np.ndarray, c: np.ndarray, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The kernel on the age grid x, one row per parameter set; c, k and theta are columns."""
    return c * x ** (k - 1.0) * np.exp(-x / theta)


def _parameters(log_params: np.ndarray) -> np.ndarray:
    """(c, k, theta) of log parameters clipped to [-50, 50]: what the fit scores and reports."""
    return np.exp(np.clip(log_params, -50.0, 50.0))


def _squared_residuals(x: np.ndarray, y: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Sum of squared residuals for each row of (m, 3) parameters (c, k, theta).

    A row whose residual leaves float range scores 1e300.  The finite rows take
    one batched (1, n) @ (n, 1) matmul, bit for bit a one-point evaluation's dot.
    """
    out = np.full(len(params), 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - _kernel(x, params[:, 0:1], params[:, 1:2], params[:, 2:3])
        rows = np.isfinite(resid).all(axis=1)
        out[rows] = np.matmul(resid[rows, None, :], resid[rows, :, None]).ravel()
    return out


def _log_linear_seed(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Solve log R = log c + (k-1) log x - x/theta by linear least squares.

    Exact-generation data is recovered to float precision, which gives the
    simplex an essentially converged starting point.
    """
    pos = y > 0
    if pos.sum() < 3:
        return None
    lx = np.log(x[pos])
    design = np.column_stack([np.ones(pos.sum()), lx, -x[pos]])
    coef, *_ = np.linalg.lstsq(design, np.log(y[pos]), rcond=None)
    log_c, k_minus_1, inv_theta = coef
    if inv_theta <= 0 or k_minus_1 <= -1:
        return None
    return np.array([log_c, math.log(k_minus_1 + 1.0), -math.log(inv_theta)])


def _seed_point(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The unperturbed first start: the log-linear solve, else a guess from the peak."""
    seed_point = _log_linear_seed(x, y)
    if seed_point is None:
        peak = float(x[int(np.argmax(y))])
        seed_point = np.array([math.log(max(y.max(), 1e-6)), math.log(2.0),
                               math.log(max(peak, 1.0))])
    return seed_point


# Adaptive Nelder-Mead coefficients for 3 parameters (Gao & Han 2012), written
# as scipy writes them so they carry the same bits.
_DIM = 3.0
_RHO = 1
_CHI = 1 + 2 / _DIM
_PSI = 0.75 - 1 / (2 * _DIM)
_SIGMA = 1 - 1 / _DIM
_XATOL = 1e-12
_FATOL = 1e-16
# Restarts advanced together; bounds the fit's memory whatever `restarts` is.
_RESTART_BLOCK = 64


class _Restarts(NamedTuple):
    """Per-restart outcome of a lockstep Nelder-Mead run, one row per start."""

    x: np.ndarray        # (r, 3) best vertex
    fun: np.ndarray      # (r,) its value
    nfev: np.ndarray     # (r,) objective evaluations used
    nit: np.ndarray      # (r,) iterations, counted as scipy counts them
    success: np.ndarray  # (r,) stopped on xatol and fatol, not on the budget


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(len(fsim))[:, None]
    order = np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


def _nelder_mead_lockstep(objective, starts: np.ndarray, maxfev: int) -> _Restarts:
    """Adaptive Nelder-Mead from every row of `starts` at once.

    `objective` maps (m, 3) points to (m,) values.  Each row takes the steps
    scipy 1.17.1's `_minimize_neldermead` would take from that start with
    `maxfev`, `xatol=1e-12`, `fatol=1e-16` and `adaptive=True`: the same
    initial simplex, branch rules, stop tests and sorts, and the same partial
    step when the budget runs out mid-iteration.  One iteration makes at most
    three objective calls, each on the rows that need it: the reflections,
    then the expansions or contractions, then the shrunk vertices.
    """
    rows, dim = starts.shape
    sim = np.repeat(starts[:, None, :], dim + 1, axis=1)
    for j in range(dim):
        col = sim[:, j + 1, j]
        sim[:, j + 1, j] = np.where(col != 0, (1 + 0.05) * col, 0.00025)
    # Vertices past the budget stay unevaluated, at inf.
    fsim = np.full((rows, dim + 1), np.inf)
    first = min(dim + 1, maxfev)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, dim)).reshape(rows, first)
    nfev = np.full(rows, first)
    nit = np.ones(rows, dtype=np.int64)
    success = np.zeros(rows, dtype=bool)
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))  # scipy sorts twice here

    live = np.flatnonzero(nfev < maxfev)
    while live.size:
        s, f = sim[live], fsim[live]
        with np.errstate(invalid="ignore"):  # inf - inf: not converged
            done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _XATOL)
                    & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= _FATOL))
        success[live[done]] = True
        live, s, f = live[~done], s[~done], f[~done]
        if not live.size:
            break

        worst = s[:, -1]
        xbar = np.add.reduce(s[:, :-1], axis=1) / dim
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = objective(xr)
        nfev[live] += 1
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        # The second point: expansion, outside or inside contraction.
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        second = ~accept & (nfev[live] < maxfev)  # without budget the simplex stays
        f2 = np.full(live.size, np.nan)
        if second.any():
            f2[second] = objective(x2[second])
            nfev[live[second]] += 1

        take_r = accept | (second & expand & ~(f2 < fxr))
        take_2 = second & ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                           | (~expand & ~outside & (f2 < f[:, -1])))
        shrink = second & ~expand & ~take_2
        s[take_r, -1], f[take_r, -1] = xr[take_r], fxr[take_r]
        s[take_2, -1], f[take_2, -1] = x2[take_2], f2[take_2]
        complete = take_r | take_2
        if shrink.any():
            # Vertex j gets its shrunk coordinates if the j vertices before it
            # were evaluated, and a new value if it is evaluated itself.
            room = (maxfev - nfev[live[shrink]])[:, None]
            j = np.arange(dim)
            best, rest = s[shrink, :1], s[shrink, 1:]
            moved = np.where((j <= room)[:, :, None], best + _SIGMA * (rest - best), rest)
            values = f[shrink, 1:]
            values[j < room] = objective(moved[j < room])
            s[shrink, 1:], f[shrink, 1:] = moved, values
            nfev[live[shrink]] += np.minimum(room[:, 0], dim)
            complete[shrink] = room[:, 0] >= dim
        nit[live[complete]] += 1
        sim[live], fsim[live] = _sort_simplices(s, f)
        live = live[nfev[live] < maxfev]

    return _Restarts(x=sim[:, 0], fun=fsim.min(axis=1), nfev=nfev, nit=nit,
                     success=success)


def _restart_blocks(x: np.ndarray, y: np.ndarray, restarts: int, budget: int, seed: int):
    """Yield the _Restarts of each block of restarts, in restart order.

    The first start is the seed point; each other adds a seeded normal
    perturbation (scale 0.5 in log space), drawn block by block in one
    stream, so the blocking does not change the starts.
    """
    seed_point = _seed_point(x, y)
    rng = np.random.default_rng(seed)
    per_start = budget // restarts

    def objective(log_params: np.ndarray) -> np.ndarray:
        return _squared_residuals(x, y, _parameters(log_params))

    for lo in range(0, restarts, _RESTART_BLOCK):
        starts = np.tile(seed_point, (min(_RESTART_BLOCK, restarts - lo), 1))
        perturbed = starts[1:] if lo == 0 else starts
        perturbed += rng.normal(scale=0.5, size=perturbed.shape)
        yield _nelder_mead_lockstep(objective, starts, per_start)


def fit_gamma_kernel(ages, values, restarts: int = DEFAULT_RESTARTS,
                     budget: int = DEFAULT_BUDGET, seed: int = 0) -> GammaKernelFit:
    """Fit the gamma kernel to a recovery curve by Nelder-Mead least squares.

    Parameters are optimized in log space (so they stay positive) from a
    log-linear warm start plus seeded random perturbations; the evaluation
    budget is split evenly across restarts (budget // restarts each, so no
    more than budget evaluations run).  The minimizer is the adaptive
    Nelder-Mead simplex (Nelder & Mead, Computer Journal 7, 1965, with the
    dimension-dependent coefficients of Gao & Han, Computational
    Optimization and Applications 51, 2012), mirroring scipy 1.17.1's
    `minimize(method="Nelder-Mead", adaptive=True)` step by step with
    xatol 1e-12 and fatol 1e-16, so each restart ends where scipy's would.
    The restarts run in lockstep, `_RESTART_BLOCK` (64) at a time: each
    iteration evaluates the points every live restart needs in one batched
    objective call, and the blocks keep memory bounded for any `restarts`.
    The best (residual, restart index) wins, keeping the reduction
    deterministic.  Values may dip slightly below zero (smoothers overshoot
    near the baseline); least squares handles that, only a curve with no
    positive mass is rejected.
    """
    x = np.asarray(ages, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.size < _MIN_POINTS:
        raise ValueError(f"fit needs at least {_MIN_POINTS} points, got {x.size}")
    if np.any(x <= 0):
        raise ValueError("ages must be positive")
    if not np.any(y > 0):
        raise ValueError("cannot fit a curve with no positive values")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if budget < restarts:
        raise ValueError(f"budget must be >= restarts, got budget {budget} "
                         f"and restarts {restarts}")
    best = best_fun = None
    any_converged = False
    for res in _restart_blocks(x, y, restarts, budget, seed):
        i = int(np.argmin(res.fun))  # the first of equal residuals: the lowest index
        if best_fun is None or res.fun[i] < best_fun:
            best, best_fun = res.x[i], res.fun[i]
        any_converged = any_converged or bool(res.success.any())
    c, k, theta = _parameters(best)
    fit = GammaKernelFit(c=float(c), k=float(k), theta=float(theta),
                         residual=float(best_fun))
    if not any_converged:
        raise RecoveryFitError(
            f"gamma-kernel fit exhausted its budget ({budget} evaluations)", best=fit)
    return fit


def recovery_at(fit: GammaKernelFit, age: float) -> float:
    """Evaluate the fitted kernel at an age, clamped to [0, 1]."""
    if age < 0:
        raise ValueError("age must be nonnegative")
    if age == 0:
        value = 0.0 if fit.k >= 1.0 else math.inf
    else:
        try:
            value = fit.c * age ** (fit.k - 1.0) * math.exp(-age / fit.theta)
        except OverflowError:  # the power left float range
            value = math.nan
        if not math.isfinite(value):  # inf from a product, or NaN from inf * 0
            value = math.exp(min(_log_kernel(fit, age), 0.0))  # above 0 the clamp gives 1
    return min(max(value, 0.0), 1.0)


def _log_kernel(fit: GammaKernelFit, age: float) -> float:
    """log c + (k - 1) log age - age / theta, for age > 0."""
    rise, fall = (fit.k - 1.0) * math.log(age), age / fit.theta
    if rise == fall == math.inf:  # both past float range: their logs decide
        rise_wins = (math.log(fit.k - 1.0) + math.log(math.log(age))
                     > math.log(age) - math.log(fit.theta))
        return math.inf if rise_wins else -math.inf
    return math.log(fit.c) + rise - fall


def write_recovery_csv(path: str | Path, points: RecoveryPoints,
                       smoothed: np.ndarray, fit: GammaKernelFit) -> None:
    ages = points.ages.astype(np.int64).tolist()
    _write_csv(path, ["age", "raw_mean", "smoothed", "fitted"], [
        ages, *(list(map(repr, np.asarray(column, np.float64).tolist()))
                for column in (points.mean, smoothed)),
        [repr(recovery_at(fit, age)) for age in ages]])


def fit_to_json(fit: GammaKernelFit) -> str:
    return json.dumps({
        "c": fit.c, "k": fit.k, "theta": fit.theta,
        "residual": fit.residual, "peak_age": fit.peak_age,
    }, indent=2)


def _json_number(where: str, doc: dict, key: str) -> float:
    """doc[key] as a float; anything but a JSON number is a SchemaError."""
    value = doc[key]
    if type(value) not in (int, float):  # a bool is not a number here
        raise SchemaError(f"{where}: {key!r} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        return math.inf if value > 0 else -math.inf


def fit_from_json(text: str, where: str = "fit JSON") -> GammaKernelFit:
    """A fit written by `fit_to_json`; `where` names the source in errors.

    The document must be an object whose `c`, `k` and `theta` are finite
    positive numbers; `residual`, when present, is a number.  Anything else
    is a SchemaError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object, found {type(doc).__name__}")
    missing = [key for key in ("c", "k", "theta") if key not in doc]
    if missing:
        raise SchemaError(f"{where}: missing key(s) {', '.join(missing)}")
    params = {key: _json_number(where, doc, key) for key in ("c", "k", "theta")}
    for key, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise SchemaError(f"{where}: {key!r} must be a finite positive number, not {value!r}")
    residual = _json_number(where, doc, "residual") if "residual" in doc else 0.0
    return GammaKernelFit(**params, residual=residual)
