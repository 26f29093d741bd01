"""Seeded synthetic loan tape with known cause-specific hazards.

Writes the two CSVs `cshazard ingest` reads (`loans.csv`, and `payments.csv`
in the long `trust_month` format) plus two ground-truth sidecars:

- `truth.csv`: one row per loan with its band, loan age at entry, outcome kind
  (`defaulted`, `repaid`, `censored`, or `excluded` for loans the eligibility
  or integrity rules must drop) and the trust month of the event;
- `hazards.csv`: the true default and prepay hazard of every band by loan age.

Only numpy and the csv module are used, so a change to the program cannot
change its own inputs.  Each band's lifetime law is a competing-risks
distribution given by its two cause-specific hazards; entry ages are uniform
on 0..17 months and each loan is watched for 28..34 trust months.  The tape
carries ineligible loans, missing balances, isolated missed payments,
three-zero default runs, payoffs (some with trailing zero rows, some whose
final balance is missing) and censored loans.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BANDS = ("super_prime", "prime", "near_prime", "subprime", "deep_subprime")
# APR range per band (percent); boundaries follow the program's band edges.
_APR_LO = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
_BASE_DEFAULT = np.array([0.0015, 0.003, 0.006, 0.011, 0.018])
_BASE_PREPAY = np.array([0.025, 0.022, 0.019, 0.016, 0.013])
MAX_AGE = 120
MAX_MONTHS = 36
PAD_CENTS = 1000

KIND_DEFAULT, KIND_REPAID, KIND_CENSORED = 0, 1, 2
_KIND_LABELS = ("defaulted", "repaid", "censored")


def true_hazards() -> tuple[np.ndarray, np.ndarray]:
    """Default and prepay hazards, shape (band, age) with column 0 unused."""
    age = np.arange(MAX_AGE + 1, dtype=np.float64)
    hump = 0.3 + 0.7 * (age / 12.0) * np.exp(1.0 - age / 12.0)
    ramp = 0.5 + 0.5 * np.minimum(age, 36.0) / 36.0
    lam_d = _BASE_DEFAULT[:, None] * hump[None, :]
    lam_p = _BASE_PREPAY[:, None] * ramp[None, :]
    lam_d[:, 0] = lam_p[:, 0] = 0.0
    return lam_d, lam_p


@dataclass
class Tape:
    """Paths of the generated files."""

    loans: Path
    payments: Path
    truth: Path
    hazards: Path

    @classmethod
    def at(cls, out_dir: Path) -> "Tape":
        return cls(loans=out_dir / "loans.csv", payments=out_dir / "payments.csv",
                   truth=out_dir / "truth.csv", hazards=out_dir / "hazards.csv")

    def payment_rows(self) -> int:
        with open(self.payments, "rb") as fh:
            return sum(1 for _ in fh) - 1


def _money(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def generate(out_dir: Path, seed: int, n_loans: int = 20_000) -> Tape:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    n, w = n_loans, MAX_MONTHS
    band = rng.integers(0, len(BANDS), n)
    apr = np.round(_APR_LO[band] + 0.01 + rng.random(n) * 4.98, 2)
    apr[band == 4] = np.round(20.01 + rng.random(int((band == 4).sum())) * 9.98, 2)
    term = rng.choice(np.array([72, 73]), n)
    amount = rng.integers(800_000, 3_500_001, n)  # cents
    entry = rng.integers(0, 18, n)  # loan age at entry
    window = rng.integers(28, 35, n)  # trust months watched when no event occurs

    # Ineligible loans: one violated criterion each, drawn uniformly.
    coborrower = np.zeros(n, bool)
    income = np.full(n, "stated_not_verified", dtype=object)
    subvention = np.zeros(n, bool)
    vehicle = np.full(n, "used", dtype=object)
    status = np.full(n, "current", dtype=object)
    ineligible = rng.random(n) < 0.12
    reason = rng.integers(0, 7, n)
    coborrower |= ineligible & (reason == 0)
    income[ineligible & (reason == 1)] = "verified"
    subvention |= ineligible & (reason == 2)
    vehicle[ineligible & (reason == 3)] = "new"
    status[ineligible & (reason == 4)] = "repossessed"
    old = ineligible & (reason == 5)
    entry[old] = rng.integers(18, 25, int(old.sum()))
    term[ineligible & (reason == 6)] = 60

    # Outcome: first month-by-month competing event inside the window.
    lam_d, lam_p = true_hazards()
    month = np.arange(1, w + 1)
    ages = entry[:, None] + month[None, :]
    ld = lam_d[band[:, None], ages]
    lp = lam_p[band[:, None], ages]
    u = rng.random((n, w))
    hit = (u < ld + lp) & (month[None, :] <= window[:, None])
    has_event = hit.any(axis=1)
    event_month = np.where(has_event, hit.argmax(axis=1) + 1, window)
    first_u = u[np.arange(n), event_month - 1]
    first_ld = ld[np.arange(n), event_month - 1]
    kind = np.where(~has_event, KIND_CENSORED,
                    np.where(first_u < first_ld, KIND_DEFAULT, KIND_REPAID))

    # History length: defaults show their three-zero run (and sometimes more
    # zero months); payoffs end at the payoff month or trail zero rows.
    length = window.copy()
    is_def = kind == KIND_DEFAULT
    is_pre = kind == KIND_REPAID
    extra = rng.integers(0, 3, n)
    length[is_def] = np.minimum(event_month + 2 + extra, w)[is_def]
    payoff_style = rng.integers(0, 10, n)  # 0-4 ends, 5-6 final balance missing, 7-9 trailing
    trailing = payoff_style >= 7
    length[is_pre] = np.where(trailing, np.minimum(event_month + 1 + extra, w),
                              event_month)[is_pre]
    final_missing = is_pre & (payoff_style >= 5) & ~trailing & (event_month >= 2)

    # Integrity failures the filter must drop: a missing first balance, or a
    # censored loan whose final balance is missing.
    broken = rng.random(n) < 0.01
    first_missing = broken & ~(kind == KIND_CENSORED)
    last_missing = broken & (kind == KIND_CENSORED)

    # Isolated missed payments (never two in a row, never right before a
    # default run) and scattered missing balances.
    missed = rng.random((n, w)) < 0.03
    missed[:, 1:] &= ~missed[:, :-1]
    before_run = is_def & (event_month >= 2)
    missed[np.nonzero(before_run)[0], event_month[before_run] - 2] = False
    blank = rng.random((n, w)) < 0.02
    blank[:, 0] = False
    blank[np.arange(n), length - 1] = False
    blank[is_pre[:, None] & (month[None, :] == event_month[:, None])] = False
    blank[final_missing, length[final_missing] - 1] = True
    blank[first_missing, 0] = True
    blank[last_missing, length[last_missing] - 1] = True

    # Cash flows in integer cents on the contract schedule.
    rate = apr / 1200.0
    growth = (1.0 + rate) ** term
    pmt = np.rint(amount * rate * growth / (growth - 1.0)).astype(np.int64)
    g_entry = (1.0 + rate) ** entry
    bal = np.rint(amount * g_entry - pmt * (g_entry - 1.0) / rate).astype(np.int64)
    bal_m = np.empty((n, w), np.int64)
    pay_m = np.empty((n, w), np.int64)
    prc_m = np.empty((n, w), np.int64)
    for j in range(w):
        m = j + 1
        zero_run = is_def & (m >= event_month)
        payoff = is_pre & (m == event_month)
        after = is_pre & (m > event_month)
        skip = missed[:, j] & ~(zero_run | payoff | after)
        regular = ~(zero_run | payoff | after | skip)
        interest = np.rint(bal * rate).astype(np.int64)
        prc = np.where(regular, np.minimum(pmt - interest, bal), np.where(payoff, bal, 0))
        pay_m[:, j] = np.where(regular | payoff, prc + interest, 0)
        prc_m[:, j] = prc
        bal = bal - prc
        bal_m[:, j] = bal

    excluded = ineligible | first_missing | last_missing
    paid = np.where(month[None, :] <= length[:, None], prc_m, 0).sum(axis=1)
    undecided = ~is_pre & ~excluded & (paid + PAD_CENTS >= bal_m[:, 0])
    if undecided.any():  # the principal test would call these repaid
        raise RuntimeError("tape generator produced an ambiguous history")
    recovered = np.where(is_def, np.rint(amount * (0.2 + 0.4 * rng.random(n))), 0).astype(np.int64)

    out_dir.mkdir(parents=True, exist_ok=True)
    tape = Tape.at(out_dir)
    ids = [f"L{i:06d}" for i in range(n)]
    with open(tape.loans, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loan_id", "apr_pct", "original_amount", "original_term",
                         "loan_age_at_entry", "has_coborrower", "income_verification",
                         "subvention", "vehicle_condition", "initial_status",
                         "recovered_amount"])
        for i in range(n):
            writer.writerow([ids[i], f"{apr[i]:.2f}", _money(int(amount[i])), int(term[i]),
                             int(entry[i]), "true" if coborrower[i] else "false",
                             income[i], "true" if subvention[i] else "false",
                             vehicle[i], status[i], _money(int(recovered[i]))])
    with open(tape.payments, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loan_id", "trust_month", "balance", "payment", "principal"])
        bal_l, pay_l, prc_l, blank_l = (bal_m.tolist(), pay_m.tolist(),
                                        prc_m.tolist(), blank.tolist())
        for i in range(n):
            b, p, c, k = bal_l[i], pay_l[i], prc_l[i], blank_l[i]
            writer.writerows(
                [ids[i], j + 1, ("NA" if j % 2 else "") if k[j] else _money(b[j]),
                 _money(p[j]), _money(c[j])]
                for j in range(int(length[i])))
    with open(tape.truth, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loan_id", "band", "loan_age_at_entry", "kind", "event_month"])
        for i in range(n):
            label = "excluded" if excluded[i] else _KIND_LABELS[kind[i]]
            month_i = "" if excluded[i] else int(event_month[i])
            writer.writerow([ids[i], BANDS[band[i]], int(entry[i]), label, month_i])
    with open(tape.hazards, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", "age", "default", "prepay"])
        for b, name in enumerate(BANDS):
            for age in range(1, MAX_AGE + 1):
                writer.writerow([name, age, repr(float(lam_d[b, age])),
                                 repr(float(lam_p[b, age]))])
    return tape


def expected_observations(truth_path: Path) -> list[list[str]]:
    """The observations.csv rows the tape's ground truth implies, in file order."""
    rows = []
    with open(truth_path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            if rec["kind"] == "excluded":
                continue
            a, m = int(rec["loan_age_at_entry"]), int(rec["event_month"])
            cause = {"defaulted": "default", "repaid": "prepay"}.get(rec["kind"], "")
            rows.append([rec["loan_id"], rec["band"], str(a + 1), str(a + m),
                         "0" if rec["kind"] == "censored" else "1", cause])
    rows.sort(key=lambda r: r[0])
    return rows


def read_hazards(path: Path) -> dict[tuple[str, str, int], float]:
    """(band, cause label, age) -> true hazard."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            age = int(rec["age"])
            out[(rec["band"], "default", age)] = float(rec["default"])
            out[(rec["band"], "prepay", age)] = float(rec["prepay"])
    return out


if __name__ == "__main__":
    # python3 tape.py OUT_DIR SEED: generate in a process of its own, so the
    # generator's memory never counts toward the workload process's peak.
    import sys

    generate(Path(sys.argv[1]), int(sys.argv[2]))
