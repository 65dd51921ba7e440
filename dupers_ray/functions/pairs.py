"""Shared pair-list kernels used by the dedup/graph stages."""

from __future__ import annotations

import numpy as np


def segment_pairs(
    key: np.ndarray, *, max_bucket: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """All unordered within-segment index pairs of a KEY-SORTED array:
    returns (i_idx, j_idx, n_capped_segments, max_segment_len) where
    i_idx[k] < j_idx[k] index rows of the same key run. Segments longer
    than ``max_bucket`` contribute only their first ``max_bucket`` rows
    (callers must log the cap — never silently). Fully vectorized: the
    triangular pair index is inverted with one float sqrt plus a one-step
    integer fix-up in each direction."""
    e = np.empty(0, np.int64)
    n = len(key)
    if n == 0:
        return e, e.copy(), 0, 0
    new = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(new)
    counts = np.diff(np.r_[starts, n])
    over = int((counts > max_bucket).sum())
    mx = int(counts.max())
    c = np.minimum(counts, max_bucket)
    per_seg = c * (c - 1) // 2
    total = int(per_seg.sum())
    if total == 0:
        return e, e.copy(), over, mx
    live = per_seg > 0
    seg_ids = np.flatnonzero(live)
    rep = per_seg[live]
    seg_rep = np.repeat(seg_ids, rep)
    base = np.repeat(np.cumsum(rep) - rep, rep)
    intra = np.arange(total, dtype=np.int64) - base
    cc = c[seg_rep]
    i = np.floor(
        (2 * cc - 1 - np.sqrt((2 * cc - 1) ** 2 - 8 * intra)) / 2
    ).astype(np.int64)
    first = i * (2 * cc - i - 1) // 2
    bad = first > intra
    i[bad] -= 1
    first[bad] = i[bad] * (2 * cc[bad] - i[bad] - 1) // 2
    nxt = (i + 1) * (2 * cc - i - 2) // 2
    bad = nxt <= intra
    i[bad] += 1
    first[bad] = nxt[bad]
    j = intra - first + i + 1
    s0 = starts[seg_rep]
    return s0 + i, s0 + j, over, mx


def unique_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (a, b) rows lexicographically and drop adjacent duplicates —
    the single implementation behind cross-band candidate dedup
    (stages/bucket_index), edge-list dedup (pipelines/components) and LSH
    cosine-pair dedup (stages/embed). Output is sorted by (a, b); dtypes
    are preserved."""
    if not len(a):
        return a, b
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    return a[keep], b[keep]


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Boolean mask over rows sorted by the parallel ``keys`` arrays: True
    where a row starts a new run of equal key tuples."""
    new = np.zeros(len(keys[0]), bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


def min_per_key(keys: "list[np.ndarray]", ids: np.ndarray) -> np.ndarray:
    """Per row, the index of the row with the least ``ids`` value among
    the rows sharing its key tuple (``keys`` are parallel arrays; equal
    ids keep the earlier row). The one min-id reduction behind keep-first
    dedup (exact_dedup, diff, tiers, venn) and first-capture lookup
    (urls): ``ids[min_per_key(keys, ids)]`` is SQL's ``min(id) OVER
    (PARTITION BY keys)``. Keys and ids must hold no nulls."""
    n = len(ids)
    if not n:
        return np.empty(0, np.int64)
    order = np.lexsort((ids, *keys[::-1]))
    new = run_starts(*(k[order] for k in keys))
    out = np.empty(n, np.int64)
    out[order] = order[new][np.cumsum(new) - 1]
    return out
