"""The benchmark's workloads.

Each workload makes its inputs from the seed in `setup`, lists the CLI calls
of one pass in `commands`, and checks a finished pass's outputs in `check`.
Inputs are written by the benchmark alone (numpy and csv), never by the
program's own writers.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import tape

Z95 = statistics.NormalDist().inv_cdf(0.975)
RETURN_APR = ("2.9", "7.4", "12.6", "17.3", "24.65")  # one contract rate per band


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


EPV_TOL = 1e-7  # relative gap allowed between EPV at the reported rate and the price


def curve_lookup(path: Path):
    """Hazard by age from a curve CSV: nearest earlier row, first row before the grid."""
    rows = read_rows(path)
    ages = np.array([int(r["age"]) for r in rows])
    hazard = np.array([float(r["hazard"]) for r in rows])
    order = np.argsort(ages)
    ages, hazard = ages[order], hazard[order]
    return lambda age: hazard[np.clip(np.searchsorted(ages, age, side="right") - 1,
                                      0, ages.size - 1)]


def epv_gap(rho: float, month: int, term: int, apr_pct: float, balance: float,
            lam_d, lam_p, recovery) -> float:
    """|EPV(rho) - price| / price for the two-path lifetime-return model.

    The asset is priced at the balance after month-1 payments.  At each age
    j in month..term it defaults with probability lam_d(j), receiving
    recovery(j) times the original principal, or prepays with lam_p(j),
    receiving the balance plus the payment; the final month closes out.
    """
    r = apr_pct / 1200.0
    pay = balance * r / (1.0 - (1.0 + r) ** -term)
    grow = (1.0 + r) ** np.arange(term + 1)
    bal = balance * grow - pay * (grow - 1.0) / r
    ages = np.arange(month, term + 1)
    l1, l2 = lam_d(ages), lam_p(ages).copy()
    l2[-1] = 1.0 - l1[-1]
    alive = np.concatenate(([1.0], np.cumprod(1.0 - l1 - l2)[:-1]))
    disc = (1.0 + rho) ** -np.arange(1.0, ages.size + 1)
    annuity = np.concatenate(([0.0], np.cumsum(disc)[:-1]))
    epv = (l1 * alive) @ (pay * annuity + recovery(ages) * balance * disc) \
        + (l2 * alive) @ (pay * annuity + (bal[month:] + pay) * disc)
    price = bal[month - 1]
    return abs(epv - price) / price


def returns_check(path: Path, term: int, apr_pct: float, balance: float,
                  lam_d, lam_p, recovery) -> bool:
    """Every row finite, and three valuation months reprice to their balance."""
    rows = read_rows(path) if path.exists() else []
    if len(rows) != term or not all(math.isfinite(float(r["monthly_return"]))
                                    and math.isfinite(float(r["annual_return"]))
                                    for r in rows):
        return False
    return all(epv_gap(float(rows[x - 1]["monthly_return"]), x, term, apr_pct, balance,
                       lam_d, lam_p, recovery) <= EPV_TOL
               for x in (1, term // 2, term))


def curve_coverage(paths, truth) -> tuple[int, int]:
    """(cells whose CI covers the true hazard, cells with a defined CI)."""
    covered = defined = 0
    for path in filter(Path.exists, paths):
        for row in read_rows(path):
            if row["ci_lo"] == "" or row["ci_hi"] == "":
                continue
            lam = truth[(row["band"], row["cause"], int(row["age"]))]
            defined += 1
            covered += float(row["ci_lo"]) <= lam <= float(row["ci_hi"])
    return covered, defined


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.inp = work / "input"
        self.out = work / "output"
        self.inp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.first_digests: dict | None = None
        self.facts: dict = {}  # input sizes some per-layer metrics are computed from

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def output_checks(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def run_checks(self, run_cli) -> list[tuple[str, bool]]:
        """Checks made once per run, after set-up (each may call the CLI)."""
        return []

    def truth_coverage(self) -> float:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool]]:
        """Output checks of one pass, plus byte-identity with the first pass."""
        results = self.output_checks()
        now = digests(self.out)
        if self.first_digests is None:
            self.first_digests = now
        results.append(("outputs identical across passes", now == self.first_digests))
        return results

    def clear_outputs(self) -> None:
        for p in self.out.iterdir():
            p.unlink()

    def _opts(self) -> list[str]:
        return ["--output-dir", str(self.out)]


class TapePipeline(Workload):
    name = "tape-pipeline"

    def setup(self) -> None:
        subprocess.run([sys.executable, tape.__file__, str(self.inp), str(self.seed)],
                       check=True, timeout=150)
        self.tape = tape.Tape.at(self.inp)
        self.expected = tape.expected_observations(self.tape.truth)
        self.truth = tape.read_hazards(self.tape.hazards)
        self.facts = {
            "payment_rows": self.tape.payment_rows(),
            "bytes_in": self.tape.loans.stat().st_size + self.tape.payments.stat().st_size,
        }

    def _curve(self, band: str, cause: str) -> Path:
        return self.out / f"{band}_{cause}.csv"

    def commands(self) -> list[list[str]]:
        obs = str(self.out / "observations.csv")
        cmds = [["ingest", str(self.tape.loans), str(self.tape.payments), *self._opts()]]
        for band in tape.BANDS:
            for cause in ("default", "prepay"):
                cmds.append(["estimate", obs, "--band", band, "--cause", cause,
                             "-o", self._curve(band, cause).name, *self._opts()])
        cmds.append(["converge", obs, *self._opts()])
        for band, apr in zip(tape.BANDS, RETURN_APR):
            cmds.append(["returns", "--balance", "15000", "--apr", apr, "--term", "72",
                         "--default-curve", str(self._curve(band, "default")),
                         "--prepay-curve", str(self._curve(band, "prepay")),
                         "--recovery-rate", "0.35", "-o", f"returns_{band}.csv",
                         *self._opts()])
        return cmds

    def output_checks(self) -> list[tuple[str, bool]]:
        obs = self.out / "observations.csv"
        got = None
        if obs.exists():
            with open(obs, newline="", encoding="utf-8") as fh:
                got = list(csv.reader(fh))[1:]
        results = [("observations match the tape's ground truth", got == self.expected)]
        for band, apr in zip(tape.BANDS, RETURN_APR):
            curves = [self._curve(band, c) for c in ("default", "prepay")]
            ok = all(c.exists() for c in curves) and returns_check(
                self.out / f"returns_{band}.csv", 72, float(apr), 15000.0,
                *map(curve_lookup, curves), lambda ages: np.full(ages.size, 0.35))
            results.append((f"returns_{band} reprices to the schedule", ok))
        return results

    def truth_coverage(self) -> float:
        paths = [self._curve(b, c) for b in tape.BANDS for c in ("default", "prepay")]
        covered, defined = curve_coverage(paths, self.truth)
        return covered / defined if defined else 0.0


# The acceptance suite's ten-month validation law (the `benchmark` preset),
# kept here so the truth the study is checked against is the benchmark's own.
STUDY_PMF = (0.04, 0.06, 0.10, 0.14, 0.09, 0.06, 0.14, 0.18, 0.07, 0.12)
STUDY_SHARE = (0.66, 0.20, 0.45, 0.87, 0.20, 0.81, 0.05, 0.78, 0.25, 0.42)
STUDY_ENTRY = (1, 5)
STUDY_OFFSET = 5
STUDY_N, STUDY_R = 10_000, 1_000
STUDY_TOL_SE = 5.0  # per-cell tolerance in Monte Carlo standard errors


class SimulateStudy(Workload):
    name = "simulate-study"

    def setup(self) -> None:
        self.dist = self.inp / "dist.json"
        self.dist.write_text(json.dumps({
            "min_age": 1, "max_age": len(STUDY_PMF),
            "pmf": list(STUDY_PMF), "cause1_share": list(STUDY_SHARE)}), encoding="utf-8")
        pmf = np.array(STUDY_PMF)
        share = np.array(STUDY_SHARE)
        surv = pmf[::-1].cumsum()[::-1]  # Pr(X >= x)
        self.lam_true = np.stack([pmf * share / surv, pmf * (1 - share) / surv], axis=1)
        lo, hi = STUDY_ENTRY
        self.alpha_true = float(np.mean(surv[lo - 1:hi]))

    def commands(self) -> list[list[str]]:
        lo, hi = STUDY_ENTRY
        return [["simulate", "--dist", str(self.dist), "--entry-lo", str(lo),
                 "--entry-hi", str(hi), "--tau", str(STUDY_OFFSET), "--n", str(STUDY_N),
                 "--r", str(STUDY_R), "--seed", str(self.seed), "--format", "json",
                 *self._opts()]]

    def _report(self) -> dict | None:
        path = self.out / "study.json"
        return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None

    def output_checks(self) -> list[tuple[str, bool]]:
        doc = self._report()
        if doc is None:
            return [("study means near analytic truth", False),
                    ("retained fraction near analytic truth", False)]
        mean = np.array(doc["lam_mean"], dtype=float)
        se = np.sqrt(np.array(doc["emp_var"], dtype=float) / STUDY_R)
        means_ok = bool(np.all(np.abs(mean - self.lam_true) <= STUDY_TOL_SE * se))
        a = self.alpha_true
        alpha_se = math.sqrt(a * (1 - a) / (STUDY_N * STUDY_R))
        alpha_ok = abs(doc["alpha_hat"] - a) <= STUDY_TOL_SE * alpha_se
        return [("study means near analytic truth", means_ok),
                ("retained fraction near analytic truth", alpha_ok)]

    def truth_coverage(self) -> float:
        doc = self._report()
        if doc is None:
            return 0.0
        cov = np.array([[np.nan if v is None else v for v in row] for row in doc["coverage"]])
        n = np.array(doc["ci_defined"], dtype=float)
        ok = n > 0
        return float((cov[ok] * n[ok]).sum() / n[ok].sum())


# Gamma recovery kernel c * x^(k-1) * exp(-x/theta) the recoveries are drawn from.
RECOVERY_TRUE = (0.06, 2.4, 10.0)
RECOVERY_POINTS = 3000
RECOVERY_SPAN = "0.25"  # the default 0.75 flattens the peak the fit must find
RECOVERY_TOL = 0.08  # largest allowed |fit - truth| over ages 1..60
CURVE_AGES = 72
PRICE_BALANCE = 20000.0
ZERO_HAZARD_APR = "6.5"


def gamma_kernel(x, c, k, theta):
    return c * x ** (k - 1.0) * np.exp(-x / theta)


class PriceLong(Workload):
    name = "price-long"

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2,)))
        lam_d, lam_p = tape.true_hazards()
        self.truth = {}
        ages = np.arange(1, CURVE_AGES + 1)
        for b, band in enumerate(tape.BANDS):
            total = lam_d[b, ages] + lam_p[b, ages]
            surv = np.concatenate(([1.0], np.cumprod(1.0 - total - 0.01)[:-1]))
            at_risk = np.rint(4000 * surv).astype(np.int64)
            for cause, lam in (("default", lam_d[b, ages]), ("prepay", lam_p[b, ages])):
                events = rng.binomial(at_risk, lam)
                self._write_curve(self.inp / f"{band}_{cause}.csv", band, cause,
                                  ages, events, at_risk)
                self.truth.update({(band, cause, int(x)): float(v)
                                   for x, v in zip(ages, lam)})
        rec_age = rng.integers(1, 61, RECOVERY_POINTS)
        sigma = 0.25
        noisy = gamma_kernel(rec_age, *RECOVERY_TRUE) * np.exp(
            rng.normal(-sigma**2 / 2, sigma, RECOVERY_POINTS))
        self.recoveries = self.inp / "recoveries.csv"
        with open(self.recoveries, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["age", "recovery"])
            writer.writerows([int(a), repr(float(min(v, 1.0)))]
                             for a, v in zip(rec_age, noisy))

    @staticmethod
    def _write_curve(path, band, cause, ages, events, at_risk) -> None:
        """A curve CSV with the log-scale 95% interval written out independently."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["band", "cause", "age", "events", "at_risk", "hazard",
                             "var", "ci_lo", "ci_hi", "interpolated"])
            for x, e, a in zip(ages, events, at_risk):
                e, a = int(e), int(a)
                h = e / a
                lo = hi = ""
                if e > 0:
                    se = math.sqrt((a - e) / (a * e))
                    lo, hi = repr(h * math.exp(-Z95 * se)), repr(min(h * math.exp(Z95 * se), 1.0))
                writer.writerow([band, cause, int(x), e, a, repr(h),
                                 repr(e * (a - e) / a**3), lo, hi, 0])

    def commands(self) -> list[list[str]]:
        fit = str(self.out / "recovery_fit.json")
        cmds = [["recovery", str(self.recoveries), "--seed", str(self.seed),
                 "--span", RECOVERY_SPAN, *self._opts()]]
        for band, apr in zip(tape.BANDS, RETURN_APR):
            for term in ("360", "72"):
                cmds.append(["returns", "--balance", str(PRICE_BALANCE), "--apr", apr,
                             "--term", term,
                             "--default-curve", str(self.inp / f"{band}_default.csv"),
                             "--prepay-curve", str(self.inp / f"{band}_prepay.csv"),
                             "--recovery-fit", fit, "-o", f"returns{term}_{band}.csv",
                             *self._opts()])
        cmds.append(["converge", *[str(self.inp / f"{b}_default.csv") for b in tape.BANDS],
                     *self._opts()])
        return cmds

    def output_checks(self) -> list[tuple[str, bool]]:
        results = []
        fit_path = self.out / "recovery_fit.json"
        if not fit_path.exists():
            return [("recovery fit written", False)]
        doc = json.loads(fit_path.read_text(encoding="utf-8"))
        fit = (doc["c"], doc["k"], doc["theta"])
        x = np.arange(1.0, 61.0)
        gap = np.abs(gamma_kernel(x, *fit) - gamma_kernel(x, *RECOVERY_TRUE))
        results.append(("recovery fit near the true kernel", bool(gap.max() <= RECOVERY_TOL)))

        def recovery(ages):
            return np.clip(gamma_kernel(ages.astype(np.float64), *fit), 0.0, 1.0)

        for band, apr in zip(tape.BANDS, RETURN_APR):
            lookups = [curve_lookup(self.inp / f"{band}_{c}.csv") for c in ("default", "prepay")]
            for term in (360, 72):
                ok = returns_check(self.out / f"returns{term}_{band}.csv", term, float(apr),
                                   PRICE_BALANCE, *lookups, recovery)
                results.append((f"returns{term}_{band} reprices to the schedule", ok))
        return results

    def run_checks(self, run_cli) -> list[tuple[str, bool]]:
        """Zero hazards: every T=360 monthly return equals the contract rate."""
        zero_dir = self.out.parent / "zero"
        ok = run_cli(["returns", "--balance", "20000", "--apr", ZERO_HAZARD_APR,
                      "--term", "360", "-o", "zero.csv", "--output-dir", str(zero_dir)])
        rate = float(ZERO_HAZARD_APR) / 1200.0
        identity = ok and all(abs(float(r["monthly_return"]) - rate) <= 1e-10
                              for r in read_rows(zero_dir / "zero.csv"))
        return [("zero-hazard returns call", ok),
                ("zero-hazard T=360 returns equal the contract rate", identity)]

    def truth_coverage(self) -> float:
        paths = [self.inp / f"{b}_{c}.csv" for b in tape.BANDS for c in ("default", "prepay")]
        covered, defined = curve_coverage(paths, self.truth)
        return covered / defined if defined else 0.0


WORKLOADS = {w.name: w for w in (TapePipeline, SimulateStudy, PriceLong)}
