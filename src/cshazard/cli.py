"""Command-line pipeline: ingest, estimate, converge, returns, savings,
recovery, simulate.

Every run writes its outputs plus a manifest sidecar recording the command,
inputs, parameters, and a sha256 digest of each output file, so repeated runs
can be checked byte for byte.  Outputs are plain CSV/JSON; plotting is left
to external tools.

Exit codes: 0 ok, 2 schema/parse error, 3 empty result, 4 unknown key,
5 incompatible inputs, 6 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, actuarial, convergence, estimator, ingest, montecarlo, recovery
from .errors import CshazardError, EmptyResultError, SchemaError, UnknownKeyError
from .riskmodel import Cause, CompetingRisksDistribution, TruncationLaw

DEFAULT_SEED = 7
DEFAULT_THETA = 0.05


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


def _finish(manifest: RunManifest, outputs: list[Path]) -> None:
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
    tape = ingest.load_loan_data(args.loans, args.payments)
    observations = ingest.build_observations(tape)
    if len(observations) == 0:
        raise EmptyResultError("all loans were filtered out or unusable")
    out = _outdir(args) / args.out
    ingest.write_observations_csv(out, observations)
    manifest = RunManifest(
        command="ingest",
        inputs=[str(args.loans), str(args.payments)],
        parameters={"out": args.out},
        seed=None,
    )
    _finish(manifest, [out])


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
    try:
        band = ingest.RiskBand.from_label(band_label)
    except ValueError:
        raise UnknownKeyError(f"unknown risk band: {band_label!r}") from None
    subset = observations.take(observations.band == band.value)
    if len(subset) == 0:
        raise UnknownKeyError(f"no observations in band {band.label!r}")
    return band, subset


def cmd_estimate(args) -> None:
    observations = ingest.read_observations_csv(args.observations)
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
    manifest = RunManifest(
        command="estimate",
        inputs=[str(args.observations)],
        parameters={"band": args.band or "", "cause": args.cause,
                    "theta": args.theta, "window": args.window,
                    "interpolate": bool(args.interpolate), "out": args.out},
        seed=None,
    )
    _finish(manifest, [out])


def _sniff_kind(path: str | Path) -> str:
    """Classify an input CSV as a hazard curve or an observation table."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
    cols = {c.strip() for c in header.split(",")}
    if {"age", "hazard", "at_risk"} <= cols:
        return "curve"
    if {"entry_age", "exit_age", "event"} <= cols:
        return "observations"
    raise SchemaError(f"{path}: header matches neither a curve nor an observation table")


def _curves_from_inputs(args) -> tuple[dict, list[str]]:
    kinds = [_sniff_kind(p) for p in args.inputs]
    if all(k == "curve" for k in kinds) and len(args.inputs) >= 2:
        curves = {}
        order = []
        for path in args.inputs:
            curve = estimator.read_curve_csv(path)
            label = curve.band or Path(path).stem
            if label in curves:
                label = f"{label}:{Path(path).stem}"
            curves[label] = curve
            order.append(label)
        return curves, order
    if kinds == ["observations"]:
        observations = ingest.read_observations_csv(args.inputs[0])
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
    raise SchemaError(
        "converge expects either two or more curve CSVs or a single observations CSV")


def cmd_converge(args) -> None:
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
    manifest = RunManifest(
        command="converge",
        inputs=[str(p) for p in args.inputs],
        parameters={"min_age": args.min_age, "run": args.run,
                    "bands": args.bands or "", "window": args.window,
                    "theta": args.theta, "format": args.format},
        seed=None,
    )
    _finish(manifest, [out, trace])


def _recovery_fn(args):
    if args.recovery_fit:
        fit = recovery.fit_from_json(Path(args.recovery_fit).read_text(encoding="utf-8"))
        return lambda age: recovery.recovery_at(fit, age)
    if args.recovery_rate is not None:
        rate = float(args.recovery_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("recovery rate must lie in [0, 1]")
        return lambda age: rate
    return None


def cmd_returns(args) -> None:
    rate = actuarial.nominal_monthly_rate(args.apr)
    schedule = actuarial.AmortizationSchedule.build(args.balance, rate, args.term)
    rates = actuarial.returns_table(
        schedule,
        estimator.read_curve_csv(args.default_curve) if args.default_curve else None,
        estimator.read_curve_csv(args.prepay_curve) if args.prepay_curve else None,
        _recovery_fn(args))

    out = _outdir(args) / args.out
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "price", "monthly_return", "annual_return"])
        for x, rho in enumerate(rates.tolist(), start=1):
            writer.writerow([x, f"{schedule.balance(x - 1):.2f}",
                             repr(rho), repr(actuarial.annualize(rho))])
    manifest = RunManifest(
        command="returns",
        inputs=[p for p in (args.default_curve, args.prepay_curve,
                            args.recovery_fit) if p],
        parameters={"balance": args.balance, "apr": args.apr, "term": args.term,
                    "recovery_rate": args.recovery_rate, "out": args.out},
        seed=None,
    )
    _finish(manifest, [out])


def cmd_savings(args) -> None:
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
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(doc))
            writer.writerow([doc[k] for k in doc])
    manifest = RunManifest(
        command="savings", inputs=[],
        parameters={"balance": args.balance, "payment": args.payment,
                    "old_apr": args.old_apr, "new_apr": args.new_apr,
                    "discount_rate": args.discount_rate},
        seed=None,
    )
    _finish(manifest, [out])


def _read_recovery_observations(path: str | Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"age", "recovery"} <= set(reader.fieldnames):
            raise SchemaError(f"{path}: need columns age, recovery")
        rows = []
        for row in reader:
            try:
                rows.append((int(row["age"]), float(row["recovery"])))
            except (TypeError, ValueError):
                raise SchemaError(f"{path}:{reader.line_num}: bad age/recovery value") from None
    if not rows:
        raise EmptyResultError(f"{path}: no recovery observations")
    return rows


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
    manifest = RunManifest(
        command="recovery", inputs=[str(args.recoveries)],
        parameters={"span": args.span, "restarts": args.restarts,
                    "budget": args.budget},
        seed=args.seed,
    )
    _finish(manifest, [curve_out, fit_out])


def _simulation_config(args) -> montecarlo.SimConfig:
    if args.dist:
        dist = CompetingRisksDistribution.from_json_file(args.dist)
    elif args.preset == "benchmark":
        dist = montecarlo.benchmark_distribution()
    else:
        raise UnknownKeyError(f"unknown preset: {args.preset!r}")
    if args.dist:
        trunc = TruncationLaw(lo=args.entry_lo, hi=args.entry_hi,
                              censor_offset=args.tau)
    else:
        trunc = montecarlo.benchmark_truncation()
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
    manifest = RunManifest(
        command="simulate", inputs=[args.dist] if args.dist else [],
        parameters={"preset": None if args.dist else args.preset,
                    "n": args.n, "r": args.r, "theta": args.theta,
                    "entry_lo": args.entry_lo if args.dist else config.trunc.lo,
                    "entry_hi": args.entry_hi if args.dist else config.trunc.hi,
                    "tau": args.tau if args.dist else config.trunc.censor_offset,
                    "format": args.format},
        seed=args.seed,
    )
    _finish(manifest, [out])


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random seed for seeded commands (default 7)")
    common.add_argument("--theta", type=float, default=DEFAULT_THETA,
                        help="two-sided CI error rate (default 0.05)")
    common.add_argument("--output-dir", default=".",
                        help="directory for outputs (created if missing)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format where both are supported")

    parser = argparse.ArgumentParser(
        prog="cshazard",
        description="Cause-specific hazard estimation and loan-pool actuarial tools.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="turn loan + payment CSVs into observations")
    p.add_argument("loans", help="static loan attributes CSV")
    p.add_argument("payments", help="long-format payment history CSV")
    p.add_argument("-o", "--out", default="observations.csv")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate a cause-specific hazard curve")
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
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("converge", parents=[common],
                       help="pairwise convergence months between bands")
    p.add_argument("inputs", nargs="+",
                   help="two or more curve CSVs, or one observations CSV")
    p.add_argument("--bands", default="",
                   help="comma-separated band labels (observations mode)")
    p.add_argument("--min-age", type=int, default=10,
                   help="first age eligible for the overlap run (default 10)")
    p.add_argument("--run", type=int, default=2,
                   help="consecutive overlap ages required (default 2)")
    p.add_argument("--window", default="full",
                   help="estimation window in observations mode")
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("returns", parents=[common],
                       help="per-age risk-adjusted lifetime returns")
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
    p.add_argument("--recovery-fit", default="",
                   help="gamma-kernel fit JSON for recovery upon default")
    p.add_argument("--recovery-rate", type=float, default=None,
                   help="flat recovery fraction of original principal")
    p.add_argument("-o", "--out", default="returns.csv")
    p.set_defaults(handler=cmd_returns)

    p = sub.add_parser("savings", parents=[common],
                       help="monthly/total savings from refinancing")
    p.add_argument("--balance", type=float, required=True)
    p.add_argument("--payment", type=float, required=True,
                   help="current monthly payment")
    p.add_argument("--old-apr", type=float, required=True)
    p.add_argument("--new-apr", type=float, required=True)
    p.add_argument("--discount-rate", type=float, default=None,
                   help="monthly rate for discounting total savings")
    p.set_defaults(handler=cmd_savings)

    p = sub.add_parser("recovery", parents=[common],
                       help="smooth and fit a recovery-upon-default curve")
    p.add_argument("recoveries", help="CSV with columns age, recovery")
    p.add_argument("--span", type=float, default=recovery.DEFAULT_SPAN)
    p.add_argument("--restarts", type=int, default=recovery.DEFAULT_RESTARTS)
    p.add_argument("--budget", type=int, default=recovery.DEFAULT_BUDGET)
    p.set_defaults(handler=cmd_recovery)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the estimator validation study")
    p.add_argument("--preset", default="benchmark",
                   help="built-in scenario name (default: benchmark)")
    p.add_argument("--dist", default="",
                   help="JSON file with a custom lifetime distribution")
    p.add_argument("--entry-lo", type=int, default=1,
                   help="lowest entry age (with --dist)")
    p.add_argument("--entry-hi", type=int, default=5,
                   help="highest entry age (with --dist)")
    p.add_argument("--tau", type=int, default=5,
                   help="censoring offset (with --dist)")
    p.add_argument("--n", type=int, default=10000, help="cohort size")
    p.add_argument("--r", type=int, default=1000, help="replicates")
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 < args.theta < 1.0:
            raise ValueError(f"--theta must lie in (0, 1), got {args.theta}")
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
