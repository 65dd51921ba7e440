"""Temporal joins Ray Data lacks: as-of join and banded range join.

Engine-new operators (no dupers counterpart — the reference has no
event-time data); semantics match ANSI-SQL restatements DuckDB can run
(`ASOF LEFT JOIN`, inequality self-join), which is how the driver
oracles them.

Both are ONE all-to-all shuffle through functions/grouping.cogroup (tag
sides → union → groupby key hash → per-partition kernel)
— native ``Dataset.join`` can't express inequality predicates and
reserves per-operator CPU quotas (joins.py:31-37).

Partitioning assumptions, stated for the 100-TB case:

- ``asof_join`` shuffles by ``hash(key)``: all rows of one key land in
  one partition. Hot keys (a user with millions of events) skew; the
  per-group kernel is O(n log n) in the key's row count, so skew costs
  time, not correctness. Salting can't apply here — as-of needs the
  whole right history of a key co-located with its left rows.
- ``range_join_banded`` shuffles by ``hash(key, band)`` where
  ``band = ts // band_us``: right intervals are replicated once per
  band they overlap (replication factor ≈ interval_span/band_us + 1 —
  pick ``band_us`` near the typical window so the factor stays ~2-3),
  while each left row goes to exactly ONE band, so no output dedup is
  needed. Banding also breaks per-key hot spots across time.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import cogroup
from dupers_ray.functions.hashing import splitmix64


def _to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """pandas → Arrow under an explicit schema. ``Array.from_pandas`` with
    ``type=`` turns NaN/NA into typed nulls, so null-padded int64 columns
    come back as int64 — the float64 coercion trap (VERDICT r1 #1) can't
    reappear here."""
    return pa.table(
        {f.name: pa.Array.from_pandas(df[f.name], type=f.type) for f in schema},
        schema=schema,
    )


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key: str,
    ts: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    tiebreak: str | None = None,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """For each left row, attach the right row with the greatest
    ``right.ts <= left.ts`` for the same ``key`` (SQL ``ASOF LEFT JOIN``,
    direction backward, exact matches allowed). Unmatched left rows keep
    typed nulls in the right columns.

    ``right`` must carry ``key`` and ``ts`` under the same names plus its
    value columns; value-column names must not collide with left's.
    When several right rows share (key, ts), the one with the largest
    ``tiebreak`` wins (pass one for determinism; without it the winner is
    the right table's block order).

    Keys must be int64/string (uint64 would transit pandas); ``ts`` may
    be any comparable dtype (timestamp or numeric).
    """
    lcols = list(left_schema.names)
    rextra = [n for n in right_schema.names if n not in (key, ts)]
    if set(rextra) & set(lcols):
        raise ValueError(f"right value columns collide with left: {set(rextra) & set(lcols)}")
    out_schema = pa.schema(
        list(zip(left_schema.names, left_schema.types))
        + [(n, right_schema.field(n).type) for n in rextra]
    )
    rsort = [ts] + ([tiebreak] if tiebreak else [])
    int_extra = [
        n for n in rextra
        if pa.types.is_integer(right_schema.field(n).type)
    ]

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0:
            return out_schema.empty_table()
        lg = lt.to_pandas()
        rg = rt.select([key, ts] + rextra).to_pandas()
        # nullable Int64 so unmatched padding can't coerce ids to float64
        for c in int_extra:
            rg[c] = rg[c].astype("Int64")
        lg = lg.sort_values(ts, kind="mergesort")
        rg = rg.sort_values(rsort, kind="mergesort")
        out = pd.merge_asof(lg, rg, on=ts, by=key, direction="backward")
        return _to_arrow(out, out_schema)

    # right ts in the left's type: merge_asof needs one ts dtype
    right_schema = pa.schema([
        left_schema.field(ts) if f.name == ts else f for f in right_schema
    ])
    return cogroup(
        left, right, merge, on=key, num_partitions=num_partitions,
        left_schema=left_schema, right_schema=right_schema,
    )


def range_join_banded(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key: str,
    ts: str,
    start: str,
    end: str,
    band_us: int,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Emit one row per (left, right) pair with equal ``key`` and
    ``start <= ts < end`` (SQL inequality join). Timestamps are compared
    at microsecond resolution.

    Right intervals are replicated to every ``band_us``-wide time band
    they overlap; left rows map to exactly one band, so each qualifying
    pair is produced exactly once — no dedup pass. The per-group kernel
    is a sorted-code binary-search join (numpy, no Python per row).
    Output columns: left columns then right columns (minus ``key``).
    """
    lcols = list(left_schema.names)
    rextra = [n for n in right_schema.names if n != key]
    if set(rextra) & set(lcols):
        raise ValueError(f"right columns collide with left: {set(rextra) & set(lcols)}")
    out_schema = pa.schema(
        list(zip(left_schema.names, left_schema.types))
        + [(n, right_schema.field(n).type) for n in rextra]
    )
    W = np.uint64(band_us)

    def _us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        return np.asarray(col, dtype=np.int64)

    def _code(keys: np.ndarray, bands: np.ndarray) -> np.ndarray:
        # mix (key, band) into one u64 partition/join code; collisions
        # only cost a false candidate, the predicate filter removes them
        return splitmix64(keys.astype(np.uint64) ^ splitmix64(bands.astype(np.uint64)))

    def tag_left(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column(key), dtype=np.uint64)
        band = (_us(t.column(ts)).astype(np.uint64) // W)
        return t.append_column("__code", pa.array(_code(keys, band).view(np.int64)))

    def tag_right(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column(key), dtype=np.uint64)
        s = _us(t.column(start))
        e = _us(t.column(end))
        b0 = (s // int(W)).astype(np.int64)
        # end is exclusive: the last band containing a matchable ts is (e-1)//W
        b1 = np.maximum(((e - 1) // int(W)), b0).astype(np.int64)
        counts = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(t)), counts)
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        bands = (np.repeat(b0, counts) + offs).astype(np.uint64)
        return t.take(pa.array(idx)).append_column(
            "__code", pa.array(_code(keys[idx], bands).view(np.int64))
        )

    def merge(lg: pa.Table, rg: pa.Table) -> pa.Table:
        if lg.num_rows == 0 or rg.num_rows == 0:
            return out_schema.empty_table()
        lcode = np.asarray(lg.column("__code"), dtype=np.int64)
        rcode = np.asarray(rg.column("__code"), dtype=np.int64)
        order = np.argsort(rcode, kind="stable")
        rcode_s = rcode[order]
        lo = np.searchsorted(rcode_s, lcode, side="left")
        hi = np.searchsorted(rcode_s, lcode, side="right")
        counts = hi - lo
        lidx = np.repeat(np.arange(len(lcode)), counts)
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        ridx = order[np.repeat(lo, counts) + offs]
        lt = _us(lg.column(ts))[lidx]
        rs = _us(rg.column(start))[ridx]
        re_ = _us(rg.column(end))[ridx]
        lk = np.asarray(lg.column(key), dtype=np.int64)[lidx]
        rk = np.asarray(rg.column(key), dtype=np.int64)[ridx]
        keep = (lk == rk) & (rs <= lt) & (lt < re_)
        ltake = pa.array(lidx[keep])
        rtake = pa.array(ridx[keep])
        cols = {n: lg.column(n).take(ltake) for n in lcols}
        for n in rextra:
            cols[n] = rg.column(n).take(rtake)
        return pa.table(cols, schema=out_schema)

    code = pa.field("__code", pa.int64())
    return cogroup(
        left.map_batches(tag_left, batch_format="pyarrow"),
        right.map_batches(tag_right, batch_format="pyarrow"),
        merge, on="__code", num_partitions=num_partitions,
        left_schema=left_schema.append(code),
        right_schema=right_schema.append(code),
    )
