"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the speed of a CPU swings (a fixed pure-Python loop was
seen to take 1.8x longer for stretches of seconds to minutes), so raw pass
times of the same code differ between runs by more than the regressions the
benchmark must catch.  The benchmark times this loop next to every pass, on
the same CPU, and scales the pass time to the speed at which the loop takes
REF_SECONDS.  The loop does the same kinds of work as the program: csv
parsing into dicts, Decimal arithmetic, and numpy searchsorted and bincount.
It never imports the program, so no change to the program can change it.
"""
from __future__ import annotations

import csv
import io
import statistics
import time
from decimal import Decimal

import numpy as np

REF_SECONDS = 0.5  # nominal time of one loop; scaled times read in seconds at that speed


class Reference:
    def __init__(self) -> None:
        self.text = "loan_id,month,balance,payment\n" + "".join(
            f"L{i // 30:05d},{i % 30 + 1},{(i * 7919) % 1_000_000 / 100:.2f},"
            f"{(i * 31) % 50_000 / 100:.2f}\n" for i in range(30_000))
        rng = np.random.default_rng(0)
        self.draws = rng.random(200_000)
        self.cdf = np.linspace(0.1, 1.0, 10)
        self()  # first call pays one-time costs

    def __call__(self) -> float:
        """Seconds one pass of the loop takes now."""
        start = time.perf_counter()
        loans: dict[str, list] = {}
        for row in csv.DictReader(io.StringIO(self.text)):
            loans.setdefault(row["loan_id"], []).append(
                (int(row["month"]), Decimal(row["balance"]) - Decimal(row["payment"])))
        for _ in range(60):
            np.bincount(np.searchsorted(self.cdf, self.draws, side="right"), minlength=11)
        return time.perf_counter() - start


def scaled(seconds: float, *ref_times: float) -> float:
    """A time measured next to the given loop times, at the loop's nominal speed."""
    return seconds * REF_SECONDS / statistics.fmean(ref_times)
