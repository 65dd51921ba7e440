"""Set sketches: exact distinct count, HyperLogLog, Bloom filter.

Engine-new (the reference counts exact items only — A4/A5 rows in
SURVEY §2 — never approximate): at web scale "how many distinct
tokens/urls/digests" is a first-class question, and an exact answer
costs a full shuffle of the distinct keys. Two tiers:

- :func:`distinct_count` — exact, via the same combiner-then-groupby
  pattern as ``top_tokens`` (shuffle is vocabulary-sized, not
  corpus-sized).
- HyperLogLog (Flajolet et al. 2007, public algorithm): per-batch
  register rows → one tiny ``groupby(idx).max(rho)`` — the shuffle is at
  most ``2^p`` rows per batch and the merged register table is ``2^p``
  rows TOTAL, independent of corpus size. The register table is pure
  integers, so the driver oracles it value-exactly in SQL
  (``hll_registers`` query); the float estimate derives from those
  registers on the driver (:func:`hll_estimate`), with the standard
  small-range linear-counting correction.

Merging two sketches is elementwise register max — associative and
idempotent, so re-processed batches (task retries) cannot skew the
estimate. ``p`` must be ≤ 12 so the rank computation stays in float64's
exact-integer range (w < 2^52 < 2^53).

The Bloom filter (:func:`bloom_build_tokens` et al., Bloom 1970 +
Kirsch–Mitzenmacher double hashing) is the membership-sketch sibling:
fixed m-bit bitmap, per-batch partials merged by OR (same
associative/idempotent retry story), used for cheap "probably seen"
pre-filters (incremental ingest skips, blocklist pre-checks) before an
exact anti-join. Entirely integer/bit arithmetic over md5-u64 hashes, so
the driver value-oracles the whole filter (bit count + probe hits,
INCLUDING deterministic false positives) in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dupers_ray.functions.hashing import hash_str_u64, splitmix64
from dupers_ray.stages.textstats import _TOKEN_RE


def _register_rows(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, rho) per hash: idx = top p bits; rho = leading-zero rank + 1
    of the remaining 64-p bits. frexp exponent == exact bit length for
    integers < 2^53 (hence p ≥ 12 → w < 2^52)."""
    if not 4 <= p <= 12:
        raise ValueError("p must be in [4, 12] (rank math stays exact in float64)")
    rem = np.uint64(64 - p)
    idx = (h >> rem).astype(np.int64)
    w = h & ((np.uint64(1) << rem) - np.uint64(1))
    _, exp = np.frexp(w.astype(np.float64))
    rho = (int(rem) - exp + 1).astype(np.int64)  # w == 0 → exp 0 → rem+1
    return idx, rho


def hll_partial(
    batch: pa.Table, *, col: str, p: int = 12, hash_kind: str = "str",
) -> pa.Table:
    """Per-batch HLL combiner: emit at most 2^p (idx, rho) rows holding
    the batch-local register maxima. ``hash_kind``: 'str' → md5-u64
    (SQL-restatable), 'int' → splitmix64 of the integer column."""
    if hash_kind == "str":
        vals = [v for v in batch.column(col).to_pylist() if v is not None]
        h = hash_str_u64(vals) if vals else np.empty(0, np.uint64)
    elif hash_kind == "int":
        arr = batch.column(col).drop_null()
        h = splitmix64(np.asarray(arr, dtype=np.uint64))
    else:
        raise ValueError(f"unknown hash_kind {hash_kind!r}")
    m = 1 << p
    reg = np.zeros(m, np.int64)
    if len(h):
        idx, rho = _register_rows(h, p)
        np.maximum.at(reg, idx, rho)
    nz = np.flatnonzero(reg)
    return pa.table(
        {"idx": pa.array(nz, pa.int64()), "rho": pa.array(reg[nz], pa.int64())}
    )


def hll_registers(ds, *, col: str, p: int = 12, hash_kind: str = "str"):
    """Merged register table (idx, rho), ≤ 2^p rows: the global sketch.
    The only all-to-all moves ≤ 2^p rows per input block."""
    parts = ds.map_batches(
        hll_partial, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"col": col, "p": p, "hash_kind": hash_kind},
    )
    agg = parts.groupby("idx").max("rho")
    return agg.map_batches(
        lambda t: t.rename_columns(["idx", "rho"]), batch_format="pyarrow"
    )


def hll_estimate(registers: pa.Table, *, p: int = 12) -> float:
    """Cardinality estimate from a merged register table (tiny —
    driver-side). Flajolet's alpha_m raw estimator with the linear-counting
    small-range correction."""
    m = 1 << p
    reg = np.zeros(m, np.float64)
    reg[np.asarray(registers.column("idx"))] = np.asarray(registers.column("rho"))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    raw = alpha * m * m / np.sum(np.exp2(-reg))
    zeros = m - np.count_nonzero(reg)
    if raw <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(raw)


def distinct_count(ds, *, col: str) -> pa.Table:
    """Exact distinct count of ``col``: per-batch dedup combiner, then a
    groupby over the (already-thinned) distinct keys. Returns a 1-row
    table ``{n_distinct}``."""

    def uniq(t: pa.Table) -> pa.Table:
        return pa.table({col: t.column(col).combine_chunks().unique()})

    thinned = ds.map_batches(uniq, batch_format="pyarrow", zero_copy_batch=True)
    n = thinned.groupby(col).count().count()
    return pa.table({"n_distinct": pa.array([n], pa.int64())})


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via Kirsch–Mitzenmacher double hashing:
    pos_j = (h1 + j*h2) mod 2^64 mod m, h2 = splitmix64(h1) | 1 (odd, so
    the stride never degenerates). Natural uint64 wraparound on both
    sides keeps the SQL restatement exact (UHUGEINT % 2^64)."""
    h1 = h.astype(np.uint64, copy=False)
    h2 = splitmix64(h1) | np.uint64(1)
    j = np.arange(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (h1[:, None] + j[None, :] * h2[:, None]) % np.uint64(m_bits)


def bloom_from_hashes(h: np.ndarray, *, m_bits: int, k: int) -> np.ndarray:
    """uint64-word bitmap (m_bits/64 words) with every hash's k bits set."""
    if m_bits % 64:
        raise ValueError("m_bits must be a multiple of 64")
    bitmap = np.zeros(m_bits // 64, np.uint64)
    if len(h):
        pos = _bloom_positions(h, m_bits, k).ravel()
        np.bitwise_or.at(
            bitmap, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
    return bitmap


def bloom_contains(bitmap: np.ndarray, h: np.ndarray, *, k: int) -> np.ndarray:
    """bool per hash: all k probe bits set (true members always hit;
    non-members hit at the usual (1-e^{-kn/m})^k false-positive rate)."""
    if not len(h):
        return np.zeros(0, bool)
    pos = _bloom_positions(h, len(bitmap) * 64, k)
    word = bitmap[(pos >> np.uint64(6)).astype(np.int64)]
    bit = (word >> (pos & np.uint64(63))) & np.uint64(1)
    return bit.all(axis=1)


def bloom_build_tokens(
    ds, *, text_col: str = "text", m_bits: int = 1 << 16, k: int = 4,
) -> np.ndarray:
    """Distributed Bloom filter over the corpus's token vocabulary
    (md5-u64 token hashes — the SQL-restatable family).

    Per-batch combiner: tokenize, dedup, hash, fold into ONE fixed-size
    partial bitmap row (m_bits/8 bytes regardless of batch size). Merge
    is bitwise OR — associative and idempotent, so task retries cannot
    corrupt the filter. The driver ORs one small row per block
    (tree-reduce via repartition first if m_bits is huge)."""
    import re

    tok_re = re.compile(r"[a-z0-9_]+")

    def partial(t: pa.Table) -> pa.Table:
        toks: set[str] = set()
        for s in t.column(text_col).to_pylist():
            if s:
                toks.update(tok_re.findall(s.lower()))
        bm = bloom_from_hashes(
            hash_str_u64(sorted(toks)) if toks else np.empty(0, np.uint64),
            m_bits=m_bits, k=k,
        )
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    rows = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    bitmap = np.zeros(m_bits // 64, np.uint64)
    for r in rows:
        bitmap |= np.frombuffer(r["bm"], np.uint64)
    return bitmap


def _value_count_partials(group_col: str, value_col: str):
    """Per-batch combiner: (group, value, cnt) — the counting-histogram
    rows. Shuffle size is distinct-(group,value) pairs per block, never
    the corpus."""

    def f(t: pa.Table) -> pa.Table:
        g = (
            t.select([group_col, value_col])
            .group_by([group_col, value_col])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([group_col, value_col, "cnt"])

    return f


def grouped_quantiles_disc(
    ds,
    *,
    group_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.5, 0.9),
    out_cols: tuple[str, ...] | None = None,
):
    """Exact discrete quantiles per group over an integer-ish column via
    a distributed counting histogram.

    Semantics = SQL ``percentile_disc(q)``: the value at 1-indexed
    position ``max(1, ceil(q*n))`` of the sorted group. Each batch emits
    (group, value, cnt) partials; ONE groupby co-locates a group's
    partials and a numpy cumsum picks the quantiles — the shuffle moves
    histogram rows (distinct values x blocks), not corpus rows. Exact at
    any scale where per-group DISTINCT-value counts fit a worker (true
    for bounded-domain columns: lengths, scores, counts); unbounded
    float columns want a mergeable sketch instead.
    """
    from dupers_ray.functions.grouping import (
        key_codes,
        keyed_partition_map_groups,
    )
    from dupers_ray.functions.pairs import run_starts

    if out_cols is None:
        out_cols = tuple(f"q{int(q * 100)}" for q in qs)
    parts = ds.map_batches(
        _value_count_partials(group_col, value_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def per_partition(t: pa.Table) -> pa.Table:
        # bounded fan-out (functions/grouping.py): every key in the
        # partition reduces here — one walk over the sorted histograms.
        # Counts are >= 1, so the running count is strictly increasing
        # and one global searchsorted finds each group's quantile rows.
        h = t.group_by([group_col, value_col]).aggregate([("cnt", "sum")])
        h = h.sort_by([(group_col, "ascending"), (value_col, "ascending")])
        cnt = h.column("cnt_sum").to_numpy()
        cum = np.cumsum(cnt)
        starts = np.flatnonzero(run_starts(key_codes(h.column(group_col))))
        base = cum[starts] - cnt[starts]
        n = np.add.reduceat(cnt, starts)
        vals = h.column(value_col)
        cols = {group_col: h.column(group_col).take(starts)}
        for q, name in zip(qs, out_cols):
            target = np.maximum(1, np.ceil(q * n).astype(np.int64))
            cols[name] = vals.take(np.searchsorted(cum, base + target))
        return pa.table(cols)

    return keyed_partition_map_groups(parts, group_col, per_partition)


def global_value_ranks(
    ds,
    *,
    value_col: str,
    id_col: str = "doc_id",
):
    """Exact GLOBAL rank of every row by ``value_col``, joined back to the
    rows without any all-to-all shuffle: a counting-histogram combiner
    (distinct values per block, same contract as grouped_quantiles_disc —
    quantize unbounded-cardinality columns first) feeds one tiny
    ``groupby(value).sum``; the driver cumsums the histogram and
    broadcasts (values, cum_below, count) via ``ray.put``; ONE streaming
    pass then ranks each row by searchsorted lookup.

    Output per row: (id, value, rank_lt = rows strictly below, n_eq =
    rows tying this value, pct_ppm = floor(rank_lt * 1e6 / total)) — all
    int64-exact, matching SQL ``rank() OVER (ORDER BY v) - 1`` /
    ``count(*) OVER (PARTITION BY v)`` semantics."""
    import ray

    parts = ds.select_columns([value_col]).map_batches(
        lambda t: t.group_by([value_col]).aggregate([([], "count_all")])
        .rename_columns([value_col, "cnt"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    from dupers_ray.functions.grouping import (
        partitioned_aggregate,
        to_arrow_table,
    )

    # hash-partitioned reduce: distinct-value cardinality is data-sized
    h = to_arrow_table(partitioned_aggregate(parts, value_col, sums=("cnt",)))
    if h.num_rows:
        vals = h.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cnts = h.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(vals)
        vals, cnts = vals[order], cnts[order]
        below = np.r_[0, np.cumsum(cnts)[:-1]]
        total = int(cnts.sum())
    else:
        vals = np.empty(0, np.int64)
        cnts = below = vals
        total = 0
    ref = ray.put((vals, cnts, below, total))

    def rank(t: pa.Table) -> pa.Table:
        vals_, cnts_, below_, total_ = ray.get(ref)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(vals_, v)
        rank_lt = below_[idx]
        n_eq = cnts_[idx]
        pct = rank_lt * np.int64(1_000_000) // np.int64(max(total_, 1))
        return pa.table({
            id_col: pa.array(ids),
            value_col: pa.array(v),
            "rank_lt": pa.array(rank_lt),
            "n_eq": pa.array(n_eq),
            "pct_ppm": pa.array(pct),
        })

    return ds.select_columns([id_col, value_col]).map_batches(
        rank, batch_format="pyarrow", zero_copy_batch=True
    )


def cms_token_counts(
    ds, *, text_col: str = "text", d: int = 4, w: int = 256,
) -> np.ndarray:
    """Count-Min sketch (Cormode & Muthukrishnan 2005) of corpus token
    frequencies — the frequency member of the mergeable-sketch family
    here (Bloom = membership, HLL = cardinality). Rows use the same
    Kirsch–Mitzenmacher double hashing as the Bloom filter
    (pos_r = (h1 + r*h2) mod 2^64 mod w), so the full register table is
    SQL-restatable and value-oracled.

    Per-batch combiner: one fixed-size (d, w) int64 partial per block
    (bytes independent of batch size); merge = elementwise SUM on the
    driver. Unlike the OR/max merges of Bloom/HLL, sum-merge is NOT
    retry-idempotent — the combiner is deterministic, but an
    at-least-once re-execution of a block would double-count; rely on
    Ray Data's exactly-once block semantics (or checkpoint partials)
    rather than re-feeding batches manually."""

    def partial(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: "Counter[str]" = Counter()
        for s in t.column(text_col).to_pylist():
            if s:
                c.update(_TOKEN_RE.findall(s.lower()))
        grid = np.zeros((d, w), np.int64)
        if c:
            toks = sorted(c)
            h = hash_str_u64(toks)
            n = np.array([c[t_] for t_ in toks], np.int64)
            pos = _bloom_positions(h, w, d)  # (n_tok, d) columns
            for r in range(d):
                np.add.at(grid[r], pos[:, r].astype(np.int64), n)
        return pa.table({"grid": pa.array([grid.tobytes()], pa.binary())})

    rows = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    grid = np.zeros((d, w), np.int64)
    for row in rows:
        grid += np.frombuffer(row["grid"], np.int64).reshape(d, w)
    return grid


def cms_estimate(grid: np.ndarray, tokens: list[str]) -> np.ndarray:
    """Point-query estimates: min over the d rows (classic CMS upper
    bound — never under-counts, over-counts by collision mass)."""
    d, w = grid.shape
    if not tokens:
        return np.zeros(0, np.int64)
    pos = _bloom_positions(hash_str_u64(tokens), w, d)
    ests = np.stack([grid[r, pos[:, r].astype(np.int64)] for r in range(d)])
    return ests.min(axis=0)


def cms_register_table(grid: np.ndarray) -> pa.Table:
    """(r, c, cnt) rows for every cell — the value-oracle surface."""
    d, w = grid.shape
    return pa.table({
        "r": pa.array(np.repeat(np.arange(d, dtype=np.int64), w)),
        "c": pa.array(np.tile(np.arange(w, dtype=np.int64), d)),
        "cnt": pa.array(grid.ravel()),
    })
