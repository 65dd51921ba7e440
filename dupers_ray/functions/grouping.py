"""Grouped execution — the only module that calls Ray's ``map_groups``.

Three layers, one grouping primitive (:func:`coalesced_map_groups`):

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

Group functions are Arrow-only: every ``fn`` takes a ``pa.Table`` and
returns a ``pa.Table`` whose schema does not depend on the data — typed
also when it has 0 rows (a partition with no pairs, no duplicates, no
survivors). One output schema per operator keeps block concatenation,
unions and ``to_arrow_refs`` consumers independent of block layout.

Two routes. :func:`coalesced_map_groups` materializes its input and
reads the input's byte size from block metadata. At most
:data:`LOCAL_GROUP_BYTES`: ONE Ray task concatenates the blocks, sorts
them by key and calls ``fn`` per key value, and its one Arrow block is
the output — an exchange's fixed costs (split and reduce tasks) dominate
small inputs, and grouping a few MB in one task is cheaper than
scheduling them. Above the limit: an exchange of plain Ray tasks. Each
input block is split into ``min(2·CPUs, rows)`` typed parts by the hash
of its key (:func:`_partition_ids`: the vectorized string hash for
string columns, one 64-bit mix for everything else), and each reducer
that got rows concatenates its parts and groups them with the one-task
route's function, so both routes call ``fn`` the same way. Ray Data's
operators are kept out of it: ``repartition(keys=...)``/hash shuffle
reserves CPUs per operator and deadlocks chained operators on small
clusters, a range sort's sampled boundaries duplicate on skewed or few
keys and leave schema-less empty ranges, and a map turns a 0-row block,
typed or not, into a schema-less one (`RefBundle with a different
schema` warnings, a schema hazard for downstream unions and block
concatenation). 0-row reducer outputs are dropped unless every output is
empty.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

from dupers_ray.functions.hashing import hash_str_keys, splitmix64
from dupers_ray.functions.pairs import run_starts

DEFAULT_GROUP_PARTITIONS = 256

# Inputs of at most this many bytes (block metadata) are grouped by one
# Ray task instead of the exchange. Read at call time (never bound as
# a default argument), so one assignment moves every group map; 0 sends
# every non-empty input through the exchange.
LOCAL_GROUP_BYTES = 32 << 20

_PART = "__part"
_SIDE = "__side"
_RIGHT = "__r."  # prefix of right-side columns inside a cogroup


def _num_reducers(rows: int) -> int:
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001 — no Ray session to ask
        ncpu = 8
    return max(1, min(2 * ncpu, rows))


def coalesced_map_groups(
    ds: "ray.data.Dataset",
    key: str,
    fn,
) -> "ray.data.Dataset":
    """``ds.groupby(key).map_groups(fn)``: ``fn`` is called once per key
    value. The input is materialized; at most :data:`LOCAL_GROUP_BYTES`
    of it is grouped by one task (a 0-row input with a schema gives
    ``fn``'s typed 0-row output, a schema-less one stays empty), more
    goes through the exchange."""
    ds = ds.materialize()
    rows = ds.count()
    if not rows and ds.schema() is None:
        return ds
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0 or not rows]
    size = ds.size_bytes()
    if rows and (size is None or size > LOCAL_GROUP_BYTES):
        return _exchange_map_groups(refs, rows, key, fn)
    return ray.data.from_arrow_refs(_local_map_groups.remote(key, fn, *refs))


def _exchange_map_groups(refs: list, rows: int, key: str,
                         fn) -> "ray.data.Dataset":
    """The exchange over the non-empty input blocks ``refs`` (``rows``
    rows): every block is split by reducer, and each reducer with rows
    groups its parts in one task."""
    n = _num_reducers(rows)
    split = [_split_block.options(num_returns=n + 1).remote(key, n, ref)
             for ref in refs]
    # a reducer needs every split anyway, so waiting for the row counts
    # costs no overlap
    counts = np.sum(ray.get([s[0] for s in split]), axis=0)
    out = ray.data.from_arrow_refs([
        _local_map_groups.remote(key, fn, *(s[i + 1] for s in split))
        for i in np.flatnonzero(counts)])
    # 0-row outputs are dropped unless all are: the reducers run outside
    # Ray Data's map operator, which turns a 0-row block, typed or not,
    # into a schema-less one
    blocks = [(ref, meta.num_rows) for bundle in out.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks]
    return ray.data.from_arrow_refs(
        [ref for ref, n in blocks if n] or [blocks[0][0]])


@ray.remote
def _split_block(key: str, n: int, block) -> list:
    """One block cut into ``n`` typed parts, part ``i`` holding the rows
    whose key hashes to reducer ``i``, after the parts' row counts."""
    t = BlockAccessor.for_block(block).to_arrow()
    part = _partition_ids(t, [key], n)
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n + 1))
    return [np.diff(bounds), *(t.take(order[bounds[i]:bounds[i + 1]])
                               for i in range(n))]


@ray.remote
def _local_map_groups(key: str, fn, *blocks) -> pa.Table:
    """Every block (the whole input on the one-task route, one reducer's
    parts on the exchange), sorted by ``key``, ``fn`` once per key value
    (a null key is one group), one output table."""
    t = pa.concat_tables(
        [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
         if t.num_columns],
        promote_options="permissive")
    if not t.num_rows:
        return fn(t)
    t = t.sort_by(key)
    starts = np.flatnonzero(run_starts(key_codes(t.column(key))))
    ends = np.append(starts[1:], t.num_rows)
    return pa.concat_tables(
        [fn(t.slice(s, e - s)) for s, e in zip(starts, ends)],
        promote_options="permissive")


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
) -> "ray.data.Dataset":
    """Replacement for ``ds.groupby(key_col).map_groups(fn)`` over an
    unbounded key (one column or a list of columns). ``fn`` receives one
    table per partition holding EVERY row of each key hashed there and
    must reduce per key itself; the partition column is dropped before
    ``fn`` sees the rows."""
    keys = [key_col] if isinstance(key_col, str) else list(key_col)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            _PART, pa.array(_partition_ids(t, keys, num_partitions))
        )

    def wrapped(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns([_PART]))

    return coalesced_map_groups(
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True),
        _PART, wrapped,
    )


def key_codes(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """One int code per row of ``col``: rows with equal values share a
    code, and every null row shares one code of its own."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.dictionary_encode(col, null_encoding="encode").indices \
        .to_numpy()


def head_per_key(
    t: pa.Table, key: str, order: "list[tuple[str, str]]", n: int
) -> pa.Table:
    """The first ``n`` rows of every ``key`` value of ``t`` under
    ``order`` (``Table.sort_by`` keys; end it with a unique column for a
    deterministic cut), sorted by (key, order). A null key is its own
    group."""
    t = t.sort_by([(key, "ascending"), *order])
    new = run_starts(key_codes(t.column(key)))
    starts = np.flatnonzero(new)
    rank = np.arange(t.num_rows) - starts[np.cumsum(new) - 1]
    return t.filter(pa.array(rank < n))


def arrow_schema(ds: "ray.data.Dataset") -> pa.Schema:
    """Dataset schema as a pyarrow.Schema (may execute a lazy sub-DAG —
    prefer passing schemas explicitly on hot paths).

    Read from the first non-empty block, not ``Dataset.schema()``: Ray
    reports a ``select_columns`` projection's INPUT schema when its first
    output bundle is an empty block passed through unprojected. Only an
    all-empty Dataset falls back to ``schema()``, which must then hold
    Arrow types: a numpy dtype or Python class there names no Arrow type,
    so it raises instead of guessing one."""
    rows = [ref for bundle in ds.limit(1).iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    if rows:
        return BlockAccessor.for_block(ray.get(rows[0])).to_arrow().schema
    s = ds.schema()
    if s is None:
        return pa.schema([])
    bad = [n for n, t in zip(s.names, s.types)
           if not isinstance(t, pa.DataType)]
    if bad:
        raise TypeError(f"arrow_schema: columns {bad} have no Arrow type "
                        f"({s})")
    return pa.schema(list(zip(s.names, s.types)))


def to_arrow_table(ds: "ray.data.Dataset") -> pa.Table:
    """Every row of ``ds`` as one driver-side Arrow table. Each block is
    converted on its own (``to_arrow_refs`` hands non-Arrow blocks back
    unconverted when the first block is Arrow), and schema-less empty
    blocks are dropped. An all-empty Dataset gives a 0-row table of
    null-typed columns named after its schema."""
    blocks = [BlockAccessor.for_block(b).to_arrow()
              for b in ray.get(ds.to_arrow_refs())]
    blocks = [b for b in blocks if b.num_columns]
    if blocks:
        return pa.concat_tables(blocks, promote_options="permissive")
    s = ds.schema()
    return pa.table({c: pa.nulls(0) for c in (s.names if s else [])})


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
    (a DataFrame hop would coerce null-padded int columns to float64 and
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
        both, on, per_part, num_partitions=num_partitions)


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
    each partition with one Arrow hash ``group_by().aggregate``. Column names
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
    funcs = ["sum"] * len(sums) + ["min"] * len(mins) + ["max"] * len(maxs)

    def reduce_part(t: pa.Table) -> pa.Table:
        # min_count=0: a group whose values are all null sums to 0, not
        # null (Arrow's default); null keys form their own group. The
        # options are built here because they do not pickle.
        total = pc.ScalarAggregateOptions(min_count=0)
        out = t.group_by(key_col).aggregate([
            (c, f, total) if f == "sum" else (c, f)
            for c, f in zip(specs, funcs)])
        out = out.select([key_col, *(f"{c}_{f}" for c, f in zip(specs, funcs))])
        out = out.rename_columns([key_col, *specs])
        if having_sum_ge is not None:
            out = out.filter(pc.greater_equal(out.column(having_col),
                                              having_sum_ge))
        return out

    return keyed_partition_map_groups(
        ds, key_col, reduce_part, num_partitions=num_partitions)
