"""Hot loops for cohort simulation and at-risk/event counting, in numpy."""
from __future__ import annotations

import numpy as np

# perfbench/run.py reads this for each run's environment record; the kernels are numpy only.
USING_NUMBA = False


def assemble_cohort(u_entry, u_life, u_cause, cdf, cause1_share,
                    entry_lo, entry_hi, min_age, censor_offset):
    """Transform uniform draws into retained observations.

    Entry ages are uniform on {entry_lo..entry_hi}; lifetimes are sampled by
    inverse CDF with the strict-inequality tie rule (smallest age whose
    cumulative mass strictly exceeds the draw); the cause draw is a Bernoulli
    against the per-age default share.  Draws whose entry age exceeds the
    lifetime are discarded, not re-drawn.

    Returns (entry, exit, event, is_default) with exit = min(X, Y + offset)
    and event marking X <= Y + offset.
    """
    span = entry_hi - entry_lo + 1
    entry = entry_lo + np.minimum((u_entry * span).astype(np.int64), span - 1)
    idx = np.minimum(np.searchsorted(cdf, u_life, side="right"), cdf.size - 1)
    life = min_age + idx
    is_default = u_cause < cause1_share[idx]
    keep = entry <= life
    censor = entry + censor_offset
    exit_age = np.minimum(life, censor)
    event = life <= censor
    return (
        entry[keep].astype(np.int64),
        exit_age[keep].astype(np.int64),
        event[keep],
        is_default[keep],
    )


def count_exits(entry, exit_age, event, is_default, age_lo, age_hi):
    """Per-age at-risk and cause-split event counts.

    at_risk[x] counts observations with entry <= x <= exit; the event arrays
    count observed exits at x by cause.  Ages run age_lo..age_hi inclusive.
    """
    width = age_hi - age_lo + 1
    ent = np.bincount(np.clip(entry, age_lo, age_hi + 1) - age_lo,
                      minlength=width + 1)
    ext = np.bincount(np.clip(exit_age, age_lo - 1, age_hi + 1) - (age_lo - 1),
                      minlength=width + 2)
    at_risk = np.cumsum(ent)[:width] - np.cumsum(ext)[:width]
    in_window = event & (exit_age >= age_lo) & (exit_age <= age_hi)
    d_mask = in_window & is_default
    p_mask = in_window & ~is_default
    ev_default = np.bincount(exit_age[d_mask] - age_lo, minlength=width)
    ev_prepay = np.bincount(exit_age[p_mask] - age_lo, minlength=width)
    return (
        at_risk.astype(np.int64),
        ev_default.astype(np.int64),
        ev_prepay.astype(np.int64),
    )
