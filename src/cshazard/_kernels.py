"""Hot loops for cohort simulation and at-risk/event counting, in numpy."""
from __future__ import annotations

import numpy as np

# perfbench/run.py reads this for each run's environment record; the kernels are numpy only.
USING_NUMBA = False


def guide_table(cdf):
    """Chen & Asau's guide table for inverse-CDF draws from a finite, nondecreasing `cdf`.

    With m the smallest power of two >= 4 * cdf.size, g[j] is the first index
    whose cumulative mass strictly exceeds j/m, capped at the last index
    (Chen & Asau, "On generating random variates from an empirical
    distribution", AIIE Transactions 6(2), 1974).  m is a power of two so
    that j/m and u * m are exact: a draw u in bin j = int(u * m) is >= j/m,
    and its index is never below g[j].
    """
    m = 1 << (4 * cdf.size - 1).bit_length()
    first_bin = np.minimum(np.ceil(cdf * m), m).astype(np.int64)  # first j with j/m >= cdf[i]
    return np.minimum(np.cumsum(np.bincount(first_bin, minlength=m + 1)[:m]), cdf.size - 1)


def draw_cells(u_entry, u_life, u_cause, cdf, guide, cause1_share, span):
    """Map uniform draws to (entry offset, lifetime index, is_default).

    Entry offsets are uniform on {0..span-1}; lifetime indices are sampled by
    inverse CDF with the strict-inequality tie rule (smallest index whose
    cumulative mass strictly exceeds the draw, the last index catching
    anything beyond): each draw starts at its bin of `guide`, the
    `guide_table(cdf)`, and steps up while the mass at its index is <= the
    draw.  The cause draw is a Bernoulli against the per-age default share.
    """
    offset = np.minimum((u_entry * span).astype(np.int64), span - 1)
    idx = guide[(u_life * guide.size).astype(np.int64)]
    last = cdf.size - 1
    rows = ((cdf[idx] <= u_life) & (idx < last)).nonzero()[0]
    while rows.size:  # as many rounds as one bin holds cdf values, at most
        idx[rows] += 1
        rows = rows[(cdf[idx[rows]] <= u_life[rows]) & (idx[rows] < last)]
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
    offset, idx, is_default = draw_cells(u_entry, u_life, u_cause, cdf, guide_table(cdf),
                                         cause1_share, entry_hi - entry_lo + 1)
    entry = entry_lo + offset
    keep, exit_age, event = truncate_censor(entry, min_age + idx, censor_offset)
    return (
        entry[keep].astype(np.int64),
        exit_age[keep].astype(np.int64),
        event[keep],
        is_default[keep],
    )


def count_exits(entry, exit_age, event, is_default, age_lo, age_hi, weights=None,
                groups=None, n_groups=1):
    """Per-age at-risk and cause-split event counts.

    at_risk[x] counts observations with entry <= x <= exit; the event arrays
    count observed exits at x by cause.  Ages run age_lo..age_hi inclusive.
    With `weights`, row i stands for weights[i] identical observations (a
    histogram over distinct rows); the weights must be whole numbers.  With
    `groups`, row i counts toward group groups[i] in 0..n_groups-1, and each
    table has one row per group, shape (n_groups, ages); a group that no row
    names counts zeros.
    """
    width = age_hi - age_lo + 1
    ent = np.clip(entry, age_lo, age_hi + 1) - age_lo
    ext = np.clip(exit_age, age_lo - 1, age_hi + 1) - (age_lo - 1)
    in_window = event & (exit_age >= age_lo) & (exit_age <= age_hi)
    d_mask = in_window & is_default
    p_mask = in_window & ~is_default
    ev_d = exit_age[d_mask] - age_lo
    ev_p = exit_age[p_mask] - age_lo
    if groups is not None:  # each group counts into its own stretch of every bincount
        ent = ent + groups * (width + 1)
        ext = ext + groups * (width + 2)
        ev_d = ev_d + groups[d_mask] * width
        ev_p = ev_p + groups[p_mask] * width
    ent = np.bincount(ent, weights, minlength=n_groups * (width + 1)).reshape(n_groups, -1)
    ext = np.bincount(ext, weights, minlength=n_groups * (width + 2)).reshape(n_groups, -1)
    at_risk = np.cumsum(ent, axis=1)[:, :width] - np.cumsum(ext, axis=1)[:, :width]
    ev_default = np.bincount(ev_d, None if weights is None else weights[d_mask],
                             minlength=n_groups * width)
    ev_prepay = np.bincount(ev_p, None if weights is None else weights[p_mask],
                            minlength=n_groups * width)
    tables = (
        at_risk.astype(np.int64),
        ev_default.reshape(n_groups, width).astype(np.int64),
        ev_prepay.reshape(n_groups, width).astype(np.int64),
    )
    return tables if groups is not None else tuple(t[0] for t in tables)
