"""Hot loops for cohort simulation and at-risk/event counting, in numpy."""
from __future__ import annotations

import numpy as np

# perfbench/run.py reads this for each run's environment record; the kernels are numpy only.
USING_NUMBA = False


def draw_cells(u_entry, u_life, u_cause, cdf, cause1_share, span):
    """Map uniform draws to (entry offset, lifetime index, is_default).

    Entry offsets are uniform on {0..span-1}; lifetime indices are sampled by
    inverse CDF with the strict-inequality tie rule (smallest index whose
    cumulative mass strictly exceeds the draw, the last index catching
    anything beyond); the cause draw is a Bernoulli against the per-age
    default share.
    """
    offset = np.minimum((u_entry * span).astype(np.int64), span - 1)
    idx = np.minimum(np.searchsorted(cdf, u_life, side="right"), cdf.size - 1)
    return offset, idx, u_cause < cause1_share[idx]


def truncate_censor(entry, life, censor_offset):
    """(keep, exit, event) for entry ages and lifetimes.

    A lifetime shorter than its entry age is discarded, not re-drawn;
    exit = min(X, Y + offset) and event marks X <= Y + offset.
    """
    censor = entry + censor_offset
    return entry <= life, np.minimum(life, censor), life <= censor


def assemble_cohort(u_entry, u_life, u_cause, cdf, cause1_share,
                    entry_lo, entry_hi, min_age, censor_offset):
    """Transform uniform draws into retained observations.

    Entry ages are uniform on {entry_lo..entry_hi} and lifetimes start at
    min_age; see `draw_cells` and `truncate_censor` for the rules.

    Returns (entry, exit, event, is_default) for the retained draws.
    """
    offset, idx, is_default = draw_cells(u_entry, u_life, u_cause, cdf, cause1_share,
                                         entry_hi - entry_lo + 1)
    entry = entry_lo + offset
    keep, exit_age, event = truncate_censor(entry, min_age + idx, censor_offset)
    return (
        entry[keep].astype(np.int64),
        exit_age[keep].astype(np.int64),
        event[keep],
        is_default[keep],
    )


def count_exits(entry, exit_age, event, is_default, age_lo, age_hi, weights=None):
    """Per-age at-risk and cause-split event counts.

    at_risk[x] counts observations with entry <= x <= exit; the event arrays
    count observed exits at x by cause.  Ages run age_lo..age_hi inclusive.
    With `weights`, row i stands for weights[i] identical observations (a
    histogram over distinct rows); the weights must be whole numbers.
    """
    width = age_hi - age_lo + 1
    ent = np.bincount(np.clip(entry, age_lo, age_hi + 1) - age_lo, weights,
                      minlength=width + 1)
    ext = np.bincount(np.clip(exit_age, age_lo - 1, age_hi + 1) - (age_lo - 1), weights,
                      minlength=width + 2)
    at_risk = np.cumsum(ent)[:width] - np.cumsum(ext)[:width]
    in_window = event & (exit_age >= age_lo) & (exit_age <= age_hi)
    d_mask = in_window & is_default
    p_mask = in_window & ~is_default
    ev_default = np.bincount(exit_age[d_mask] - age_lo,
                             None if weights is None else weights[d_mask], minlength=width)
    ev_prepay = np.bincount(exit_age[p_mask] - age_lo,
                            None if weights is None else weights[p_mask], minlength=width)
    return (
        at_risk.astype(np.int64),
        ev_default.astype(np.int64),
        ev_prepay.astype(np.int64),
    )
