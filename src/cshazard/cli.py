"""Command-line pipeline: ingest, estimate, converge, returns, savings,
recovery, simulate.

Every run writes its outputs plus a manifest sidecar recording the command,
inputs, parameters, and a sha256 digest of each output file, so repeated runs
can be checked byte for byte.  Outputs are plain CSV/JSON; plotting is left
to external tools.  A subcommand imports the modules it runs when it runs,
so no process loads more of the package than its subcommand needs.

Exit codes: 0 ok, 2 schema/parse error, 3 empty result, 4 unknown key,
5 incompatible inputs, 6 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, estimator, montecarlo, recovery
from ._csvio import _Columns, _parse_float, _write_csv
from .errors import CshazardError, EmptyResultError, SchemaError, UnknownKeyError
from .riskmodel import Cause, CompetingRisksDistribution, TruncationLaw

DEFAULT_SEED = 7


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class RunManifest:
    command: str
    inputs: list[str]
    parameters: dict
    seed: int | None
    version: str = __version__
    outputs: dict[str, str] = field(default_factory=dict)

    def add_output(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.outputs[path.name] = digest

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "outputs": self.outputs,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, beside: Path) -> Path:
        path = beside.with_name(beside.name + ".manifest.json")
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def _finish(args, outputs: list[Path]) -> None:
    """Write the manifest of this run beside its first output and list the files.

    The manifest is read off the parsed arguments: `args.paths` names the
    arguments that hold input files, `--seed` (where the subcommand has one)
    is the seed, and every other parsed value except `--output-dir` is a
    parameter.
    """
    inputs = []
    for name in args.paths:
        value = getattr(args, name)
        inputs.extend(str(v) for v in (value if isinstance(value, list) else [value]) if v)
    skip = {"subcommand", "handler", "paths", "output_dir", "seed", *args.paths}
    manifest = RunManifest(
        command=args.subcommand, inputs=inputs,
        parameters={k: v for k, v in vars(args).items() if k not in skip},
        seed=getattr(args, "seed", None),
    )
    for p in outputs:
        manifest.add_output(p)
    manifest_path = manifest.write(outputs[0])
    for p in outputs + [manifest_path]:
        print(p)


def _outdir(args) -> Path:
    d = Path(args.output_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> None:
    from . import ingest

    tape = ingest.load_loan_data(args.loans, args.payments)
    observations = ingest.build_observations(tape)
    if len(observations) == 0:
        raise EmptyResultError("all loans were filtered out or unusable")
    out = _outdir(args) / args.out
    ingest.write_observations_csv(out, observations)
    _finish(args, [out])


def _parse_window(raw: str) -> tuple[int, int] | None:
    if raw == "full":
        return None
    try:
        lo, hi = raw.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise SchemaError(f"window must be LO:HI or 'full', got {raw!r}") from None


def _parse_cause(raw: str) -> Cause | None:
    if raw == "all":
        return None
    return Cause.from_label(raw)


def _select_band(observations, band_label: str):
    from . import ingest

    try:
        band = ingest.RiskBand.from_label(band_label)
    except ValueError:
        raise UnknownKeyError(f"unknown risk band: {band_label!r}") from None
    subset = observations.take(observations.band == band.value)
    if len(subset) == 0:
        raise UnknownKeyError(f"no observations in band {band.label!r}")
    return band, subset


def cmd_estimate(args) -> None:
    from . import ingest

    observations = ingest.read_observations_csv(args.observations, loan_ids=False)
    band_label = ""
    if args.band:
        band, observations = _select_band(observations, args.band)
        band_label = band.label
    cause = _parse_cause(args.cause)
    window = _parse_window(args.window)
    curve = estimator.estimate_csh(observations, cause, age_range=window,
                                   band=band_label, theta=args.theta)
    if curve.ages.size == 0:
        raise EmptyResultError(f"no loans at risk in window {args.window}")
    if args.interpolate:
        curve = estimator.interpolate_zero_defaults(curve)
    out = _outdir(args) / args.out
    estimator.write_curve_csv(out, curve)
    _finish(args, [out])


# The converge flags only observations mode reads, with their defaults.
_OBSERVATIONS_MODE_FLAGS = {"theta": estimator.DEFAULT_THETA, "window": "full", "bands": ""}


def _curves_from_inputs(args) -> tuple[dict, list[str]]:
    """Two or more inputs are curve CSVs, and one is an observations CSV; a
    file of the other kind misses its reader's required columns."""
    if len(args.inputs) >= 2:
        for name, default in _OBSERVATIONS_MODE_FLAGS.items():
            if getattr(args, name) != default:
                raise ValueError(f"--{name} applies only to converge on an observations CSV; "
                                 f"curve CSVs carry their own intervals")
        curves, source = {}, {}
        for path in args.inputs:
            curve = estimator.read_curve_csv(path)
            label = curve.band or Path(path).stem
            if label in curves:
                label = f"{label}:{Path(path).stem}"
            if label in curves:
                raise SchemaError(f"{source[label]} and {path} both take the curve "
                                  f"label {label!r}")
            curves[label], source[label] = curve, path
        return curves, list(curves)
    from . import ingest

    observations = ingest.read_observations_csv(args.inputs[0], loan_ids=False)
    if args.bands:
        labels = [b.strip() for b in args.bands.split(",") if b.strip()]
    else:
        present = set(observations.band.tolist())
        labels = [b.label for b in ingest.RiskBand if b.value in present]
    if len(labels) < 2:
        raise EmptyResultError("need at least two bands to compare")
    window = _parse_window(args.window)
    if window is None:
        window = (1, int(observations.exit_age.max()))
    curves = {}
    order = []
    for label in labels:
        band, subset = _select_band(observations, label)
        curve = estimator.estimate_csh(subset, Cause.DEFAULT, age_range=window,
                                       band=band.label, theta=args.theta)
        if curve.ages.size == 0:
            raise EmptyResultError(
                f"no loans in band {band.label!r} at risk in window {args.window}")
        curves[band.label] = curve
        order.append(band.label)
    return estimator.align_grids(curves), order


def cmd_converge(args) -> None:
    from . import convergence

    curves, order = _curves_from_inputs(args)
    matrix, results = convergence.transition_matrix(
        curves, min_test_age=args.min_age, run_length=args.run,
        band_order=order)
    outdir = _outdir(args)
    if args.format == "json":
        out = outdir / "matrix.json"
        out.write_text(matrix.to_json(), encoding="utf-8")
    else:
        out = outdir / "matrix.csv"
        convergence.write_matrix_csv(out, matrix)
    trace = outdir / "trace.csv"
    convergence.write_trace_csv(trace, results)
    _finish(args, [out, trace])


def _recovery_fn(args):
    if args.recovery_fit:
        fit = recovery.fit_from_json(Path(args.recovery_fit).read_text(encoding="utf-8"),
                                     args.recovery_fit)
        return lambda age: recovery.recovery_at(fit, age)
    if args.recovery_rate is not None:
        rate = float(args.recovery_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("recovery rate must lie in [0, 1]")
        return lambda age: rate
    return None


def cmd_returns(args) -> None:
    from . import actuarial

    rate = actuarial.nominal_monthly_rate(args.apr)
    schedule = actuarial.AmortizationSchedule.build(args.balance, rate, args.term)
    rates = actuarial.returns_table(
        schedule,
        estimator.read_curve_csv(args.default_curve) if args.default_curve else None,
        estimator.read_curve_csv(args.prepay_curve) if args.prepay_curve else None,
        _recovery_fn(args))

    out, rates = _outdir(args) / args.out, rates.tolist()
    _write_csv(out, ["age", "price", "monthly_return", "annual_return"], [
        range(1, len(rates) + 1), [f"{b:.2f}" for b in schedule.balances[:-1].tolist()],
        list(map(repr, rates)), [repr(actuarial.annualize(rho)) for rho in rates]])
    _finish(args, [out])


def cmd_savings(args) -> None:
    from . import actuarial

    est = actuarial.savings_from_apr(args.balance, args.payment,
                                     args.old_apr, args.new_apr,
                                     discount_rate=args.discount_rate)
    doc = {
        "balance": args.balance,
        "old_apr_pct": args.old_apr,
        "new_apr_pct": args.new_apr,
        "old_payment": round(est.old_payment, 2),
        "new_payment": round(est.new_payment, 2),
        "monthly_saving": round(est.monthly_saving, 2),
        "total_saving": round(est.total_saving, 2),
        "remaining_payments": est.remaining_payments,
    }
    outdir = _outdir(args)
    if args.format == "json":
        out = outdir / "savings.json"
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        out = outdir / "savings.csv"
        _write_csv(out, list(doc), [[value] for value in doc.values()])
    _finish(args, [out])


def _read_recovery_observations(path: str | Path) -> list[tuple[int, float]]:
    """(age, recovery) pairs: each age a whole number >= 1, each recovery in [0, 1.5]."""
    cols = _Columns.read(path, ("age", "recovery"))
    if cols.rows == 0:
        raise EmptyResultError(f"{path}: no recovery observations")
    ages = cols.ints("age")
    fractions, = cols.numbers(("recovery",), _parse_float, float)
    cols.check_rows((
        (ages < 1, lambda i: f"age {cols.cell('age', i)} is below 1"),
        (~((fractions >= 0.0) & (fractions <= 1.5)),
         lambda i: f"recovery {cols.cell('recovery', i)!r} is not a number in [0, 1.5]")))
    return list(zip(ages.tolist(), fractions.tolist()))


def cmd_recovery(args) -> None:
    observations = _read_recovery_observations(args.recoveries)
    points = recovery.recovery_points(observations)
    smoothed = recovery.smooth(points, span=args.span)
    fit = recovery.fit_gamma_kernel(points.ages, smoothed,
                                    restarts=args.restarts,
                                    budget=args.budget, seed=args.seed)
    outdir = _outdir(args)
    curve_out = outdir / "recovery_curve.csv"
    recovery.write_recovery_csv(curve_out, points, smoothed, fit)
    fit_out = outdir / "recovery_fit.json"
    fit_out.write_text(recovery.fit_to_json(fit) + "\n", encoding="utf-8")
    _finish(args, [curve_out, fit_out])


def _simulation_config(args) -> montecarlo.SimConfig:
    if args.dist:
        dist = CompetingRisksDistribution.from_json_file(args.dist)
    else:
        args.preset = args.preset or "benchmark"  # the manifest names the preset that ran
        if args.preset != "benchmark":
            raise UnknownKeyError(f"unknown preset: {args.preset!r}")
        dist = montecarlo.benchmark_distribution()
    trunc = TruncationLaw(lo=args.entry_lo, hi=args.entry_hi, censor_offset=args.tau)
    return montecarlo.SimConfig(dist=dist, trunc=trunc, n=args.n,
                                replicates=args.r, seed=args.seed,
                                theta=args.theta)


def cmd_simulate(args) -> None:
    config = _simulation_config(args)
    report = montecarlo.run_study(config)
    outdir = _outdir(args)
    if args.format == "json":
        out = outdir / "study.json"
        out.write_text(report.to_json() + "\n", encoding="utf-8")
    else:
        out = outdir / "study.csv"
        report.write_csv(out)
    _finish(args, [out])


# ---------------------------------------------------------------------------
# Parser


# The flags several subcommands share; each subcommand names the ones it reads.
_SHARED_FLAGS = {
    "seed": dict(type=int, default=DEFAULT_SEED, help="random seed (default 7)"),
    "theta": dict(type=float, default=estimator.DEFAULT_THETA,
                  help="two-sided CI error rate (default 0.05)"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
}


def _subcommand(sub, name: str, handler, summary: str, shared=(), paths=()):
    """A subparser with --output-dir and the shared flags it reads.

    `paths` names the arguments that hold input files, for the manifest.
    """
    p = sub.add_parser(name, help=summary)
    p.add_argument("--output-dir", default=".",
                   help="directory for outputs (created if missing)")
    for flag in shared:
        p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    p.set_defaults(handler=handler, paths=paths)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cshazard",
        description="Cause-specific hazard estimation and loan-pool actuarial tools.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _subcommand(sub, "ingest", cmd_ingest, "turn loan + payment CSVs into observations",
                    paths=("loans", "payments"))
    p.add_argument("loans", help="static loan attributes CSV")
    p.add_argument("payments", help="long-format payment history CSV")
    p.add_argument("-o", "--out", default="observations.csv")

    p = _subcommand(sub, "estimate", cmd_estimate, "estimate a cause-specific hazard curve",
                    shared=("theta",), paths=("observations",))
    p.add_argument("observations", help="observations CSV from ingest")
    p.add_argument("--band", default="",
                   help="restrict to one risk band (default: pool all)")
    p.add_argument("--cause", choices=("default", "prepay", "all"),
                   default="default")
    p.add_argument("--window", default="full",
                   help="age window LO:HI, or 'full' (default)")
    p.add_argument("--interpolate", action="store_true",
                   help="fill zero-event hazards from the nearest earlier age")
    p.add_argument("-o", "--out", default="curve.csv")

    p = _subcommand(sub, "converge", cmd_converge, "pairwise convergence months between bands",
                    shared=("theta", "format"), paths=("inputs",))
    p.add_argument("inputs", nargs="+",
                   help="two or more curve CSVs, or one observations CSV")
    p.add_argument("--bands", default=_OBSERVATIONS_MODE_FLAGS["bands"],
                   help="comma-separated band labels (observations mode)")
    p.add_argument("--min-age", type=int, default=10,
                   help="first age eligible for the overlap run (default 10)")
    p.add_argument("--run", type=int, default=2,
                   help="consecutive overlap ages required (default 2)")
    p.add_argument("--window", default=_OBSERVATIONS_MODE_FLAGS["window"],
                   help="estimation window in observations mode")

    p = _subcommand(sub, "returns", cmd_returns, "per-age risk-adjusted lifetime returns",
                    paths=("default_curve", "prepay_curve", "recovery_fit"))
    p.add_argument("--balance", type=float, required=True,
                   help="original principal")
    p.add_argument("--apr", type=float, required=True,
                   help="contract APR in percent")
    p.add_argument("--term", type=int, required=True,
                   help="contract term in months")
    p.add_argument("--default-curve", default="",
                   help="default-cause hazard curve CSV (default: zero hazard)")
    p.add_argument("--prepay-curve", default="",
                   help="prepay-cause hazard curve CSV (default: zero hazard)")
    recovery_source = p.add_mutually_exclusive_group()
    recovery_source.add_argument("--recovery-fit", default="",
                                 help="gamma-kernel fit JSON for recovery upon default")
    recovery_source.add_argument("--recovery-rate", type=float, default=None,
                                 help="flat recovery fraction of original principal")
    p.add_argument("-o", "--out", default="returns.csv")

    p = _subcommand(sub, "savings", cmd_savings, "monthly/total savings from refinancing",
                    shared=("format",))
    p.add_argument("--balance", type=float, required=True)
    p.add_argument("--payment", type=float, required=True,
                   help="current monthly payment")
    p.add_argument("--old-apr", type=float, required=True)
    p.add_argument("--new-apr", type=float, required=True)
    p.add_argument("--discount-rate", type=float, default=None,
                   help="monthly rate for discounting total savings")

    p = _subcommand(sub, "recovery", cmd_recovery, "smooth and fit a recovery-upon-default curve",
                    shared=("seed",), paths=("recoveries",))
    p.add_argument("recoveries", help="CSV with columns age, recovery")
    p.add_argument("--span", type=float, default=recovery.DEFAULT_SPAN)
    p.add_argument("--restarts", type=int, default=recovery.DEFAULT_RESTARTS)
    p.add_argument("--budget", type=int, default=recovery.DEFAULT_BUDGET)

    p = _subcommand(sub, "simulate", cmd_simulate, "run the estimator validation study",
                    shared=("seed", "theta", "format"), paths=("dist",))
    law = p.add_mutually_exclusive_group()
    law.add_argument("--preset", help="built-in scenario name (default: benchmark)")
    law.add_argument("--dist", default="",
                     help="JSON file with a custom lifetime distribution")
    trunc = montecarlo.benchmark_truncation()
    p.add_argument("--entry-lo", type=int, default=trunc.lo,
                   help="lowest entry age (default %(default)s)")
    p.add_argument("--entry-hi", type=int, default=trunc.hi,
                   help="highest entry age (default %(default)s)")
    p.add_argument("--tau", type=int, default=trunc.censor_offset,
                   help="censoring offset (default %(default)s)")
    p.add_argument("--n", type=int, default=10000, help="cohort size")
    p.add_argument("--r", type=int, default=1000, help="replicates")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "theta" in vars(args):
            estimator.check_theta(args.theta, "--theta")
        args.handler(args)
    except CshazardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
