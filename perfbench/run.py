"""Layered benchmark for cshazard.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`.  One run makes the workload's inputs from the seed, runs passes of
CLI calls in this process for `--seconds` seconds (the first pass is a
warm-up and is not timed), checks every pass's outputs, and prints one JSON
line as the last line of standard output.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates traced and untraced passes
and reports the per-layer metrics.  Details, spans and the environment are
written to `perfbench/_out/`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_SAMPLES = 5
LAYERS = ("ingest", "estimator", "convergence", "actuarial", "recovery",
          "montecarlo", "kernels", "cli")
CLI_COMMANDS = ("ingest", "estimate", "converge", "returns", "recovery", "simulate")
SOLVE = "actuarial.lifetime_return"


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, thread pools capped to it.

    The reference loop must see the speed of the CPU the program runs on;
    on a shared host each CPU's speed swings on its own.  Returns nproc.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    return len(allowed)


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ncpu: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    from cshazard import _kernels

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": ncpu,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "using_numba": bool(_kernels.USING_NUMBA),
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def fresh_python(code: str) -> list[str]:
    """Run code in a fresh interpreter that imports the program from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=150, check=True)
    return proc.stdout.strip().splitlines()[-1].split()


IMPORT_PROBE = (
    "import resource, time\n"
    "t = time.perf_counter()\n"
    "import cshazard.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def import_probe(samples: int) -> tuple[float, float]:
    """Median (seconds, peak RSS MB) of `import cshazard.cli` + build_parser()."""
    runs = [fresh_python(IMPORT_PROBE) for _ in range(samples)]
    return (statistics.median(float(r[0]) for r in runs),
            statistics.median(float(r[1]) / 1024 for r in runs))


def ingest_peak_mb(argv: list[str]) -> float:
    """Peak RSS of one `cshazard ingest` in a fresh process."""
    code = ("import resource, sys\nfrom cshazard.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    rc, kb = fresh_python(code)
    if rc != "0":
        raise RuntimeError(f"fresh-process ingest exited {rc}")
    return float(kb) / 1024


def instrument(tracer, modules) -> None:
    """Wrap the public attributes the program's callers look up by name."""
    _kernels, actuarial, cli, convergence, estimator, ingest, montecarlo, recovery = modules

    def nbytes(*values):
        return sum(int(getattr(v, "nbytes", 0)) for v in values)

    def decisions(args, result):
        _, results = result
        flat = [d.value for r in results for d in r.decisions]
        return {"decisions": len(flat), "undefined": flat.count("undefined")}

    w = tracer.wrap
    w(ingest, "load_loan_data", "ingest.load_loan_data", note=lambda a, r: {"loans": len(r)})
    w(ingest, "filter_loans", "ingest.filter_loans")
    w(ingest, "build_observations", "ingest.build_observations",
      note=lambda a, r: {"kept": len(r)})
    w(ingest, "read_observations_csv", "ingest.read_observations_csv")
    w(ingest, "write_observations_csv", "ingest.write_observations_csv")
    w(estimator, "observations_to_arrays", "estimator.observations_to_arrays")
    w(estimator, "estimate_csh", "estimator.estimate_csh")
    w(estimator, "align_grids", "estimator.align_grids")
    w(estimator, "read_curve_csv", "estimator.read_curve_csv")
    w(estimator, "write_curve_csv", "estimator.write_curve_csv")
    w(convergence, "transition_matrix", "convergence.transition_matrix", note=decisions)
    w(convergence, "write_matrix_csv", "convergence.write_matrix_csv")
    w(convergence, "write_trace_csv", "convergence.write_trace_csv")
    w(actuarial, "lifetime_return", SOLVE, count_warnings=True)
    w(recovery, "recovery_points", "recovery.recovery_points")
    w(recovery, "smooth", "recovery.smooth")
    w(recovery, "fit_gamma_kernel", "recovery.fit_gamma_kernel")
    w(montecarlo, "run_study", "montecarlo.run_study")
    w(_kernels, "assemble_cohort", "kernels.assemble_cohort",
      note=lambda a, r: {"draws": int(a[0].size), "kept": int(r[0].size),
                         "bytes": nbytes(*a, *r)})
    w(_kernels, "count_exits", "kernels.count_exits",
      note=lambda a, r: {"bytes": nbytes(*a, *r)})
    w(cli.RunManifest, "add_output", "cli.manifest")


def layer_metrics(summaries: list[dict], facts: dict) -> dict[str, list[float]]:
    """Per-pass values of every per-layer metric except the run-level ones."""
    per_pass: dict[str, list[float]] = {}

    def put(name, value):
        per_pass.setdefault(name, []).append(float(value))

    for s in summaries:
        tot, calls, notes = s["total"], s["calls"], s["notes"]

        def t(name):
            return tot.get(name, 0.0)

        def noted(name, key):
            return sum(n.get(key, 0) for n in notes.get(name, []))

        for layer in LAYERS:
            put(f"{layer}.self_s", s["self"].get(layer, 0.0))
        load_s = t("ingest.load_loan_data")
        loads = calls.get("ingest.load_loan_data", 0)
        put("ingest.load_s", load_s)
        put("ingest.rows_per_s", facts.get("payment_rows", 0) * loads / load_s if load_s else 0.0)
        put("ingest.build_s", t("ingest.build_observations"))
        put("ingest.obs_io_s", t("ingest.read_observations_csv") + t("ingest.write_observations_csv"))
        ingests = calls.get("cli.ingest", 0)
        put("ingest.filter_calls", calls.get("ingest.filter_loans", 0) / ingests if ingests else 0)
        loans = noted("ingest.load_loan_data", "loans")
        put("ingest.kept_ratio", noted("ingest.build_observations", "kept") / loans if loans else 0)
        put("ingest.bytes_in", facts.get("bytes_in", 0) * loads)
        put("estimator.pack_s", t("estimator.observations_to_arrays"))
        put("estimator.estimate_s", t("estimator.estimate_csh"))
        put("estimator.calls", calls.get("estimator.estimate_csh", 0))
        put("estimator.curve_io_s", t("estimator.read_curve_csv") + t("estimator.write_curve_csv"))
        put("convergence.matrix_s", t("convergence.transition_matrix"))
        n_dec = noted("convergence.transition_matrix", "decisions")
        put("convergence.decisions", n_dec)
        put("convergence.undefined_ratio",
            noted("convergence.transition_matrix", "undefined") / n_dec if n_dec else 0)
        put("actuarial.returns_s", t(SOLVE))
        put("actuarial.solves", calls.get(SOLVE, 0))
        put("actuarial.warnings", noted(SOLVE, "warnings"))
        put("recovery.smooth_s", t("recovery.smooth"))
        put("recovery.fit_s", t("recovery.fit_gamma_kernel"))
        put("montecarlo.study_s", t("montecarlo.run_study"))
        put("montecarlo.self_s", s["self"].get("montecarlo", 0.0))
        draws = noted("kernels.assemble_cohort", "draws")
        put("montecarlo.retained_ratio",
            noted("kernels.assemble_cohort", "kept") / draws if draws else 0)
        assemble_s = t("kernels.assemble_cohort")
        put("kernels.assemble_s", assemble_s)
        put("kernels.count_s", t("kernels.count_exits"))
        put("kernels.draws_per_s", draws / assemble_s if assemble_s else 0)
        put("kernels.bytes_moved", noted("kernels.assemble_cohort", "bytes")
            + noted("kernels.count_exits", "bytes"))
        for cmd in CLI_COMMANDS:
            put(f"cli.{cmd}_s", t(f"cli.{cmd}"))
        put("cli.manifest_s", t("cli.manifest"))
        put("trace.unattributed_s", s["unattributed"])
    return per_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cshazard layered benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cshazard" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'cshazard'}; run from a checkout",
              file=sys.stderr)
        return 2
    ncpu = pin_to_one_cpu()  # before numpy is imported, so its thread pools see the caps
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy as np

    import cshazard
    if not Path(cshazard.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cshazard imported from {cshazard.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from cshazard import (_kernels, actuarial, cli, convergence, estimator, ingest,
                          montecarlo, recovery)
    from reference import Reference, scaled
    from tracer import Tracer, summarize

    modules = (_kernels, actuarial, cli, convergence, estimator, ingest, montecarlo, recovery)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment(ncpu)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    tracer = Tracer()
    attempted = failed = 0
    failures: list[str] = []

    def tally(what: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    def run_cli(cli_argv: list[str], traced: bool = False) -> bool:
        sink = io.StringIO()
        span = tracer.span(f"cli.{cli_argv[0]}") if traced else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(cli_argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = f"exception\n{traceback.format_exc()}"
        ok = rc == 0
        tally(f"cshazard {' '.join(cli_argv)} -> {rc}: {sink.getvalue()[-400:]}", ok)
        return ok

    try:
        workload.setup()
        reference = Reference()
        setup_s = import_rss = ingest_rss = 0.0
        if args.trace == 0:
            before = reference()
            raw_setup_s, _ = import_probe(SETUP_SAMPLES)
            setup_s = scaled(raw_setup_s, before, reference())
        elif args.workload == "tape-pipeline":
            _, import_rss = import_probe(3)
            ingest_rss = ingest_peak_mb(["ingest", str(workload.tape.loans),
                                         str(workload.tape.payments), "--output-dir",
                                         str(work / "fresh")])
        for what, ok in workload.run_checks(run_cli):
            tally(what, ok)

        commands = workload.commands()
        plain, traced_walls, summaries, step_times = [], [], [], []
        ref_times, plain_scaled = [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            traced = args.trace == 1 and index % 2 == 1
            workload.clear_outputs()
            first_span = len(tracer.spans)
            if traced:
                instrument(tracer, modules)
            try:
                with tracer.span("pass") if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    steps = []
                    for cli_argv in commands:
                        run_cli(cli_argv, traced)
                        steps.append(time.perf_counter())
                    elapsed = steps[-1] - start
                    step_times.append([b - a for a, b in zip([start, *steps], steps)])
            finally:
                tracer.uninstall()
            try:
                checks = workload.check()
            except Exception:  # unreadable outputs fail the pass's checks
                checks = [(f"output checks raised\n{traceback.format_exc()}", False)]
            for what, ok in checks:
                tally(what, ok)
            ref_times.append(reference())
            if traced:
                summaries.append(summarize(tracer.spans[first_span:], (SOLVE,)))
                traced_walls.append(elapsed)
            elif index > 0:
                plain.append(elapsed)
                plain_scaled.append(scaled(elapsed, *ref_times[-2:]))
            index += 1
            if (time.perf_counter() >= deadline and plain
                    and (args.trace == 0 or traced_walls)):
                break

        wall_s = statistics.median(plain)
        if args.trace == 0:
            metrics = {
                "wall_s": (statistics.median(plain_scaled), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "success_rate": ((attempted - failed) / attempted, "ratio"),
            }
        else:
            per_pass = layer_metrics(summaries, workload.facts)
            metrics = {name: (statistics.median(v), unit_of(name))
                       for name, v in per_pass.items()}
            solves_ms = [d * 1e3 for s in summaries for d in s["durations"][SOLVE]]
            p50, p99 = (np.percentile(solves_ms, [50, 99]) if solves_ms else (0.0, 0.0))
            traced_wall = statistics.median(traced_walls)
            metrics.update({
                "passes": (len(traced_walls), "count"),
                "trace.wall_s": (traced_wall, "s"),
                "trace.overhead_s": (traced_wall - wall_s, "s"),
                "actuarial.solve_ms.p50": (float(p50), "ms"),
                "actuarial.solve_ms.p99": (float(p99), "ms"),
                "ingest.rss_delta_mb": (ingest_rss - import_rss if ingest_rss else 0.0, "MB"),
                "estimator.truth_coverage": (workload.truth_coverage(), "ratio"),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    detail = {"args": vars(args), "environment": env, "result": result,
              "pass_walls_s": plain, "traced_pass_walls_s": traced_walls,
              "step_times_s": step_times, "reference_s": ref_times,
              "failures": failures, "facts": workload.facts}
    if args.trace:
        detail["spans"] = tracer.spans
    (OUT / f"{tag}.json").write_text(json.dumps(detail), encoding="utf-8")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"passes: {len(plain)} untraced (warm-up excluded), raw median {wall_s:.4f} s"
          + (f"; scaled to reference speed {metrics['wall_s'][0]:.4f} s" if args.trace == 0
             else f"; {len(traced_walls)} traced"))
    for what in failures[:10]:
        print("FAILED: " + what.replace("\n", " | "))
    print(json.dumps(result))
    return 0


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
         ("coverage", "ratio"), ("bytes_in", "bytes"), ("bytes_moved", "bytes"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


if __name__ == "__main__":
    sys.exit(main())
