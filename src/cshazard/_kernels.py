"""Hot loops for cohort simulation and at-risk/event counting, in numpy."""
from __future__ import annotations

import numpy as np

# perfbench/run.py reads this for each run's environment record; the kernels are numpy only.
USING_NUMBA = False


def guide_table(cdf):
    """Chen & Asau's guide table for inverse-CDF draws from a finite, nondecreasing `cdf`.

    With m the smallest power of two >= 4 * cdf.size, guide[j] is the first index
    whose cumulative mass strictly exceeds j/m, capped at the last index
    (Chen & Asau, "On generating random variates from an empirical
    distribution", AIIE Transactions 6(2), 1974).  m is a power of two so
    that j/m and u * m are exact: a draw u in bin j = int(u * m) lies in
    [j/m, (j+1)/m).  Returns (guide, threshold): u's index is guide[j] + (u >=
    threshold[j]), unless two or more masses before the last lie in the bin and
    threshold[j] is NaN.
    """
    m = 1 << (4 * cdf.size - 1).bit_length()
    edges = np.arange(m + 1) / m
    guide = np.searchsorted(cdf[:-1], edges[:-1], side="right")
    two = np.searchsorted(cdf[:-1], edges[1:]) - guide >= 2
    return guide, np.where(two, np.nan, np.append(cdf[:-1], np.inf)[guide])


def draw_cells(u_entry, u_life, u_cause, cdf, table, cause1_share, span, offset_codes):
    """Cell codes (entry offset * cdf.size + lifetime index) * 2 + is_default of draws in [0, 1).

    Offset o = int(u * span) adds offset_codes[min(o, offset_codes.size - 1)];
    it needs no clamp, as fl(u * s) < s for u <= 1 - 2**-53 and an integer
    2**e <= s <= 2**53: u * s is exact if s = 2**e, and otherwise at most
    s - s * 2**-53 < s - 2**(e-53), the midpoint of s and the double below it.
    Lifetime indices follow the strict-inequality tie rule (smallest index
    whose cumulative mass strictly exceeds the draw, the last index catching
    anything beyond): by `table`, the `guide_table(cdf)`, and by binary search
    in bins with a NaN threshold.  The cause draw is a Bernoulli against the
    per-age default share.
    """
    guide, threshold = table
    bins = (u_life * guide.size).astype(np.intp)
    idx = guide.take(bins)
    steps = threshold.take(bins)
    idx += u_life >= steps
    if np.isnan(threshold).any():
        rows = np.isnan(steps).nonzero()[0]
        idx[rows] = np.searchsorted(cdf[:-1], u_life[rows], side="right")
    code = idx * 2 + (u_cause < cause1_share.take(idx))
    code += offset_codes.take((u_entry * span).astype(np.intp), mode="clip")
    return code


def offset_codes(entry_lo, entry_hi, min_age, n_ages):
    """2 * n_ages * offset for each entry offset up to the first past the law's last age,
    whose cells every later offset shares: no lifetime clears their truncation."""
    return np.arange(min(entry_hi, max(entry_lo, min_age + n_ages)) - entry_lo + 1) * (2 * n_ages)


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
    n = cdf.size
    codes = draw_cells(u_entry, u_life, u_cause, cdf, guide_table(cdf), cause1_share,
                       entry_hi - entry_lo + 1, offset_codes(entry_lo, entry_hi, min_age, n))
    entry = entry_lo + codes // (2 * n)
    keep, exit_age, event = truncate_censor(entry, min_age + codes // 2 % n, censor_offset)
    return (
        entry[keep].astype(np.int64),
        exit_age[keep].astype(np.int64),
        event[keep],
        (codes[keep] & 1).astype(bool),
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
