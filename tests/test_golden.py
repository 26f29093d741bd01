"""Pinned sha256 digests of the pipeline's data outputs.

Reduced copies of the benchmark's three workloads (`perfbench/workloads.py`)
run in process through `cli.main`, and the digest of every file they write
must equal the one in `golden.json`. A manifest is compared with its input
paths cut to file names, so the digests do not depend on where the test runs.

Output bits depend on numpy and its BLAS, so the table records the numpy
version it was made with, and a different version fails by name. After a
deliberate output change, regenerate the table with

    python tests/test_golden.py --write

and name in CHANGES.md every file whose digest changed, and why.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(ROOT / "src"))

from cshazard import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
TAPE_PY = ROOT / "perfbench" / "tape.py"
SEED = 11
RETURN_APR = ("2.9", "7.4", "12.6", "17.3", "24.65")  # one contract rate per band
Z95 = statistics.NormalDist().inv_cdf(0.975)


def load_tape_module():
    spec = importlib.util.spec_from_file_location("perfbench_tape", TAPE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def tape_pipeline(tape_module, inp: Path, out: Path) -> list[list[str]]:
    """The `tape-pipeline` pass on a 2,000-loan tape, plus the estimate and
    converge options the benchmark leaves at their defaults."""
    tape = tape_module.generate(inp, SEED, n_loans=2000)
    obs = str(out / "observations.csv")
    cmds = [["ingest", str(tape.loans), str(tape.payments)]]
    for band in tape_module.BANDS:
        for cause in ("default", "prepay"):
            cmds.append(["estimate", obs, "--band", band, "--cause", cause,
                         "-o", f"{band}_{cause}.csv"])
        cmds.append(["estimate", obs, "--band", band, "--interpolate", "--window", "1:80",
                     "-o", f"{band}_default_filled.csv"])
    cmds.append(["converge", obs])
    cmds.append(["converge", obs, "--run", "1", "--min-age", "3", "--format", "json"])
    for band, apr in zip(tape_module.BANDS, RETURN_APR):
        cmds.append(["returns", "--balance", "15000", "--apr", apr, "--term", "72",
                     "--default-curve", str(out / f"{band}_default.csv"),
                     "--prepay-curve", str(out / f"{band}_prepay.csv"),
                     "--recovery-rate", "0.35", "-o", f"returns_{band}.csv"])
    return cmds


def write_curve(path: Path, band, cause, ages, events, at_risk) -> None:
    """A curve CSV with the log-scale 95% interval, written by the csv module."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", "cause", "age", "events", "at_risk", "hazard",
                         "var", "ci_lo", "ci_hi", "interpolated"])
        for x, e, a in zip(ages.tolist(), events.tolist(), at_risk.tolist()):
            h = e / a
            lo = hi = ""
            if e > 0:
                se = math.sqrt((a - e) / (a * e))
                lo, hi = repr(h * math.exp(-Z95 * se)), repr(min(h * math.exp(Z95 * se), 1.0))
            writer.writerow([band, cause, x, e, a, repr(h), repr(e * (a - e) / a**3),
                             lo, hi, 0])


def price_long(tape_module, inp: Path, out: Path) -> list[list[str]]:
    """The `price-long` pass on curves drawn from the tape's hazards and 600
    recoveries around a gamma kernel."""
    inp.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(2,)))
    lam_d, lam_p = tape_module.true_hazards()
    ages = np.arange(1, 73)
    for b, band in enumerate(tape_module.BANDS):
        surv = np.concatenate(([1.0], np.cumprod(1.0 - lam_d[b, ages] - lam_p[b, ages]
                                                 - 0.01)[:-1]))
        at_risk = np.rint(4000 * surv).astype(np.int64)
        for cause, lam in (("default", lam_d[b, ages]), ("prepay", lam_p[b, ages])):
            write_curve(inp / f"{band}_{cause}.csv", band, cause, ages,
                        rng.binomial(at_risk, lam), at_risk)
    rec_age = rng.integers(1, 61, 600)
    kernel = 0.06 * rec_age ** 1.4 * np.exp(-rec_age / 10.0)
    noisy = np.minimum(kernel * np.exp(rng.normal(-0.25**2 / 2, 0.25, rec_age.size)), 1.0)
    recoveries = inp / "recoveries.csv"
    with open(recoveries, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("age", "recovery"),
                                  *zip(rec_age.tolist(), map(repr, noisy.tolist()))])
    cmds = [["recovery", str(recoveries), "--seed", str(SEED), "--span", "0.25"]]
    for band, apr in zip(tape_module.BANDS, RETURN_APR):
        for term in ("360", "72"):
            cmds.append(["returns", "--balance", "20000", "--apr", apr, "--term", term,
                         "--default-curve", str(inp / f"{band}_default.csv"),
                         "--prepay-curve", str(inp / f"{band}_prepay.csv"),
                         "--recovery-fit", str(out / "recovery_fit.json"),
                         "-o", f"returns{term}_{band}.csv"])
    defaults = [str(inp / f"{b}_default.csv") for b in tape_module.BANDS]
    cmds.append(["converge", *defaults])
    cmds.append(["converge", *defaults, "--run", "3", "--format", "json"])
    return cmds


def simulate_study(tape_module, inp: Path, out: Path) -> list[list[str]]:
    """The `simulate-study` pass at n = 2,000 and r = 50 on the benchmark law."""
    inp.mkdir(parents=True)
    dist = inp / "dist.json"
    dist.write_text(json.dumps({
        "min_age": 1, "max_age": 10,
        "pmf": [0.04, 0.06, 0.10, 0.14, 0.09, 0.06, 0.14, 0.18, 0.07, 0.12],
        "cause1_share": [0.66, 0.20, 0.45, 0.87, 0.20, 0.81, 0.05, 0.78, 0.25, 0.42]}),
        encoding="utf-8")
    return [["simulate", "--dist", str(dist), "--entry-lo", "1", "--entry-hi", "5",
             "--tau", "5", "--n", "2000", "--r", "50", "--seed", str(SEED),
             "--format", "json"]]


WORKLOADS = {"tape-pipeline": tape_pipeline, "price-long": price_long,
             "simulate-study": simulate_study}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        doc = json.loads(data)
        doc["inputs"] = [Path(p).name for p in doc["inputs"]]
        data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_workload(name: str, tape_module, work: Path) -> dict[str, str]:
    """Run one workload's commands in `work` and digest every file they write.

    A converge run with a `--run` option writes to a directory of its own, so
    its files do not replace those of the benchmark's converge run.
    """
    out = work / "output"
    with contextlib.redirect_stdout(None):
        for i, cmd in enumerate(WORKLOADS[name](tape_module, work / "input", out)):
            target = out if "--run" not in cmd else out / f"step{i}"
            rc = cli.main([*cmd, "--output-dir", str(target)])
            assert rc == 0, f"{name}: {' '.join(cmd)} exited {rc}"
    return {path.relative_to(out).as_posix(): digest(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if table["numpy"] != np.__version__:
        pytest.fail(f"golden digests were made with numpy {table['numpy']}, but this is "
                    f"numpy {np.__version__}; regenerate them with "
                    f"`python tests/test_golden.py --write` if the outputs are right")
    return table["digests"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_match_the_golden_digests(tmp_path, golden, name):
    got = run_workload(name, load_tape_module(), tmp_path)
    want = golden[name]
    changed = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    assert not changed, f"{name}: outputs differ from golden.json: {', '.join(changed)}"


def write_table() -> None:
    tape_module = load_tape_module()
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_workload(name, tape_module, Path(tmp) / name)
                   for name in WORKLOADS}
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_table()
