"""Grouped execution — the only module that calls Ray's ``map_groups``.

Three layers share ONE block-layout rule:

- :func:`coalesced_map_groups` — ``groupby(key).map_groups(fn)`` with
  ``fn`` called once per distinct key value. For small semantic keys
  (k-means cells, budget buckets, query ids).
- :func:`keyed_partition_map_groups` — for unbounded keys (docs, grams,
  pairs, urls). Rows are routed by ``hash(key) % num_partitions`` and
  ``fn`` is called once per PARTITION with every row of every key hashed
  there, so ``fn`` MUST reduce per key itself. One Python call per
  distinct key would mean 10^6-10^8 interpreter round-trips at web scale
  (measured: the per-gram variant burned 16 workers x 17 CPU-min without
  finishing 600k pages; the partitioned rewrite finishes in ~6 min).
- :func:`cogroup` — two datasets co-grouped on a key: ``fn(l, r)`` gets
  both sides' rows of every key hashed to a partition.

The exchange is Ray's sort-based groupby on an int key; the hash
partitioner is :func:`_partition_ids` (the vectorized string hash for
string columns, one 64-bit mix for everything else). ``repartition(
keys=...)``/hash shuffle is not used: it reserves CPUs per operator and
deadlocks chained operators on small clusters.

The layout rule: before the sort, the input is coalesced to
``max(2, min(2·CPUs, num_keys // 8))`` blocks, but never to more blocks
than ``num_keys``. Ray's sort emits one output partition per INPUT
block; when reducers approach the distinct-key count the sampled range
boundaries duplicate and the empty ranges materialize as schema-less
blocks (`RefBundle with a different schema` warnings, a schema hazard
for downstream unions and block concatenation). Eight keys per reducer
(boundaries are ~10-sample quantiles per reducer) was observed
collision-free across full bench runs; a single key gets a single
reducer, since a second one would always be empty; the cap keeps >= 2
blocks/CPU at the usual 256-way fan-outs. Coalescing also bounds the
sort's per-block scheduling cost, which does not depend on data size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

from dupers_ray.functions.hashing import hash_str_keys, splitmix64

DEFAULT_GROUP_PARTITIONS = 256

_PART = "__part"
_SIDE = "__side"
_RIGHT = "__r."  # prefix of right-side columns inside a cogroup


def _num_blocks(num_keys: int) -> int:
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001 — no Ray session to ask
        ncpu = 8
    return min(max(num_keys, 1), max(2, min(2 * ncpu, num_keys // 8)))


def coalesced_map_groups(
    ds: "ray.data.Dataset",
    key: str,
    fn,
    *,
    num_keys: int,
    batch_format: str = "pandas",
    fn_kwargs: dict | None = None,
) -> "ray.data.Dataset":
    """``ds.groupby(key).map_groups(fn)`` after coalescing ``ds`` under
    the module's layout rule. ``num_keys``: the (approximate) distinct-key
    cardinality. ``fn`` is called once per key value."""
    if batch_format == "pandas":
        fn = _arrow_output(fn)
    return (
        ds.repartition(_num_blocks(num_keys))
        .groupby(key)
        .map_groups(fn, batch_format=batch_format, fn_kwargs=fn_kwargs)
    )


def _arrow_type(dtype) -> pa.DataType:
    """Arrow type of a pandas column dtype; object columns are string
    (the engine's object columns are string ids)."""
    if dtype is object or dtype == np.dtype("O"):
        return pa.string()
    return pa.Array.from_pandas(pd.Series([], dtype=dtype)).type


def _arrow_output(fn):
    """``fn`` with a pandas result returned as an Arrow table, typed even
    with 0 rows. Every output block of a pandas group map is then Arrow:
    Ray's pandas block size estimate cannot size 0-row object or string
    columns (it logs an error per block), and ``to_arrow_refs`` hands back
    unconverted pandas blocks when a Dataset's first block is Arrow."""
    def wrapped(df, *args, **kwargs):
        out = fn(df, *args, **kwargs)
        if not isinstance(out, pd.DataFrame):
            return out
        if len(out):
            return BlockAccessor.for_block(out).to_arrow()
        return pa.table({str(c): pa.array([], _arrow_type(out[c].dtype))
                         for c in out.columns})

    return wrapped


def _key_u64(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) \
            or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return hash_str_keys(col)
    if pa.types.is_null(t):  # an all-null column of a typeless empty block
        return np.zeros(len(col), np.uint64)
    if pa.types.is_temporal(t):
        col = col.cast(pa.int64())
    # null keys co-locate with key 0 (they stay a DISTINCT group in a
    # dropna=False per-partition reduce); without the fill to_numpy
    # would hand back floats for null-bearing int columns
    if col.null_count:
        col = pc.fill_null(col, 0)
    return col.to_numpy(zero_copy_only=False).astype(np.uint64)


def _partition_ids(
    t: pa.Table, keys: "list[str]", num_partitions: int
) -> np.ndarray:
    """int64 partition id per row of ``t`` from its ``keys`` columns.
    Equal key tuples always get equal ids — the only property grouping
    needs; joins still compare the real keys."""
    h = np.zeros(t.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            h = splitmix64(h * np.uint64(0x100000001B3) + _key_u64(t.column(k)))
    return (h % np.uint64(num_partitions)).astype(np.int64)


def keyed_partition_map_groups(
    ds: "ray.data.Dataset",
    key_col: "str | list[str]",
    fn,
    *,
    num_partitions: int = DEFAULT_GROUP_PARTITIONS,
    batch_format: str = "pandas",
) -> "ray.data.Dataset":
    """Replacement for ``ds.groupby(key_col).map_groups(fn)`` over an
    unbounded key (one column or a list of columns). ``fn`` receives one
    frame per partition holding EVERY row of each key hashed there and
    must reduce per key itself; the partition column is dropped before
    ``fn`` sees the rows."""
    keys = [key_col] if isinstance(key_col, str) else list(key_col)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            _PART, pa.array(_partition_ids(t, keys, num_partitions))
        )

    if batch_format == "pandas":
        def wrapped(df):
            return fn(df.drop(columns=_PART))
    else:
        def wrapped(g: pa.Table) -> pa.Table:
            return fn(g.drop_columns([_PART]))

    return coalesced_map_groups(
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True),
        _PART, wrapped, num_keys=num_partitions, batch_format=batch_format,
    )


def arrow_schema(ds: "ray.data.Dataset") -> pa.Schema:
    """Dataset schema as a pyarrow.Schema (may execute a lazy sub-DAG —
    prefer passing schemas explicitly on hot paths).

    Read from the first non-empty block, not ``Dataset.schema()``: Ray
    reports a ``select_columns`` projection's INPUT schema when its first
    output bundle is an empty block passed through unprojected. Only an
    all-empty Dataset falls back to ``schema()``, whose pandas-block
    numpy dtypes / Python classes map through pandas (one empty Series
    per column)."""
    rows = [ref for bundle in ds.limit(1).iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    if rows:
        return BlockAccessor.for_block(ray.get(rows[0])).to_arrow().schema
    s = ds.schema()
    if s is None:
        return pa.schema([])
    return pa.schema([
        (name, typ if isinstance(typ, pa.DataType) else _arrow_type(typ))
        for name, typ in zip(s.names, s.types)
    ])


def cogroup(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    fn,
    *,
    on: str,
    right_on: str | None = None,
    num_partitions: int = DEFAULT_GROUP_PARTITIONS,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Co-group ``left`` and ``right`` on ``left[on] == right[right_on]``:
    ``fn(l, r) -> pa.Table`` is called once per partition with the left
    rows (left's columns) and the right rows (right's columns) of every
    key hashed there; either side may be empty. Right keys are cast to the
    left key's type, so routing and in-``fn`` comparisons agree.

    Both sides are tagged and padded with TYPED nulls for the other
    side's columns so one union carries them; ``fn`` works in pure Arrow
    (a pandas hop would coerce null-padded int columns to float64 and
    corrupt ids above 2^53). Pass the schemas when known: ``.schema()``
    on a lazy Dataset executes its sub-DAG."""
    right_on = right_on or on
    ls = left_schema if left_schema is not None else arrow_schema(left)
    rs = right_schema if right_schema is not None else arrow_schema(right)
    lfields = list(zip(ls.names, ls.types))
    rfields = [(n, t) for n, t in zip(rs.names, rs.types) if n != right_on]
    key_type = ls.field(on).type

    def tag_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {c: t.column(c).cast(typ) for c, typ in lfields}
        cols.update({_RIGHT + c: pa.nulls(n, typ) for c, typ in rfields})
        cols[_SIDE] = pa.array(np.zeros(n, np.int8))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {
            c: (t.column(right_on).cast(key_type) if c == on
                else pa.nulls(n, typ))
            for c, typ in lfields
        }
        cols.update({_RIGHT + c: t.column(c).cast(typ) for c, typ in rfields})
        cols[_SIDE] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    lnames = [c for c, _ in lfields]

    def per_part(g: pa.Table) -> pa.Table:
        is_r = pc.equal(g.column(_SIDE), 1)
        lg = g.filter(pc.invert(is_r)).select(lnames)
        rt = g.filter(is_r)
        rg = pa.table({
            c: rt.column(on) if c == right_on else rt.column(_RIGHT + c)
            for c in rs.names
        })
        return fn(lg, rg)

    return keyed_partition_map_groups(
        both, on, per_part, num_partitions=num_partitions,
        batch_format="pyarrow",
    )


def partitioned_aggregate(
    ds: "ray.data.Dataset",
    key_col: str,
    *,
    sums: tuple = (),
    mins: tuple = (),
    maxs: tuple = (),
    having_sum_ge: int | None = None,
    having_col: str | None = None,
    num_partitions: int = DEFAULT_GROUP_PARTITIONS,
) -> "ray.data.Dataset":
    """``ds.groupby(key).aggregate(Sum/Min/Max)`` replacement for
    UNBOUNDED key cardinality: Ray's aggregate is a sort-based AllToAll
    over every partial row (measured 111 s -> 5.6 s on 13M chunk rows,
    round-3 verdict #6); this hash-partitions on the key and reduces
    each partition with one pandas C-speed hash groupby. Column names
    pass through unchanged (no ``sum(x)`` renames). With
    ``having_sum_ge``, rows where ``having_col``'s global sum is below
    the bound are dropped IN-partition — the reduction output leaves the
    cluster, the raw keys don't. Works for int AND string keys (string
    keys hash-partition without a global string sort)."""
    specs = list(sums) + list(mins) + list(maxs)
    if len(set(specs)) != len(specs):
        raise ValueError(
            "partitioned_aggregate: sums/mins/maxs column sets must be "
            f"pairwise disjoint, got sums={sums} mins={mins} maxs={maxs}"
        )
    agg_map = {c: "sum" for c in sums}
    agg_map.update({c: "min" for c in mins})
    agg_map.update({c: "max" for c in maxs})

    def reduce_part(df):
        # dropna=False: a null key is a real group (SQL GROUP BY / Ray
        # aggregate parity) — pandas' default silently deletes those rows
        out = df.groupby(
            key_col, sort=False, as_index=False, dropna=False
        ).agg(agg_map)
        if having_sum_ge is not None:
            out = out[out[having_col] >= having_sum_ge]
        return out

    return keyed_partition_map_groups(
        ds, key_col, reduce_part,
        num_partitions=num_partitions, batch_format="pandas",
    )
