"""Index maintenance verbs — dupers' ``up / clean / ls / db / mv / rm``.

Reference citations:
- counts/info:  pkg/database/bucket/bucket.go:171-208 (Count),
  :283-308 (Total), pkg/database/database.go:536-666 (Info)
- incremental refresh (`up`): pkg/dupe/dupe.go:940-966 (walkCompare —
  already-stored rows skip hashing) → left-ANTI-join new corpus vs index
- clean: pkg/database/database.go:141-169 — index rows whose file no longer
  exists → ANTI-join index vs live corpus
- mv/rm: pkg/database/database.go:693-716 (Rename), :719-729 (Remove)

Anti / semi joins and membership flags take the one broadcast-or-cogroup
switch of pipelines/joins.py (``small_side``): a broadcast key set
(``ray.put`` once, read per task) when the index side has at most
``joins.BROADCAST_ROWS`` rows, because dedup-maintenance key sets (urls)
are tiny next to page payloads; above it ``anti_join_shuffle``, one
hash-partitioned co-group — both routes share semantics and tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from dupers_ray.functions.grouping import arrow_schema, cogroup
from dupers_ray.pipelines.joins import small_side


def counts_by_bucket(ds: "ray.data.Dataset", *, bucket_col: str = "bucket",
                     size_col: str | None = None) -> "ray.data.Dataset":
    """Per-bucket row count (+ byte size when size_col given) — A1/A2/A3.

    Pre-aggregates inside map_batches (one partial row per bucket per batch)
    so the groupby shuffles partials, not rows."""

    def partial(batch: pa.Table) -> pa.Table:
        # rows with a null bucket count nowhere (Arrow's group_by would
        # make them a group); an all-null size sums to 0, not null. The
        # options are built here because they do not pickle.
        batch = batch.filter(pc.is_valid(batch.column(bucket_col)))
        specs = [([], "count_all")]
        if size_col:
            specs.append((size_col, "sum", pc.ScalarAggregateOptions(min_count=0)))
        out = batch.group_by(bucket_col).aggregate(specs)
        if size_col:
            return out.select([bucket_col, "count_all", f"{size_col}_sum"]) \
                .rename_columns([bucket_col, "n", "total_bytes"])
        return out.select([bucket_col, "count_all"]) \
            .rename_columns([bucket_col, "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs2 = [Sum("n", alias_name="n")]
    if size_col:
        aggs2.append(Sum("total_bytes", alias_name="total_bytes"))
    # bucket cardinality ~ sources (tens); 2 blocks keep the aggregate's
    # sort ranges non-empty and typed (functions/grouping rationale)
    return partials.repartition(2).groupby(bucket_col).aggregate(*aggs2)


def anti_join_broadcast(
    ds: "ray.data.Dataset",
    keys,
    *,
    key_col: str,
    invert: bool = False,
) -> "ray.data.Dataset":
    """Rows of ``ds`` whose ``key_col`` is NOT in ``keys`` (anti); with
    invert=True, rows that ARE (semi). ``keys`` is an Arrow or numpy
    array (or list) small enough to broadcast — shipped to the object
    store ONCE via ray.put, not re-pickled per batch."""
    return _broadcast_membership(ds, keys, key_col=key_col, semi=invert)


def _broadcast_membership(ds, keys, *, key_col: str, semi: bool = False,
                          flag_col: str | None = None):
    """The broadcast half of every membership join: the distinct key set
    ``ray.put`` once, ``is_in`` per batch. Stateless TASKS, not an actor
    pool: ``ray.get(ref)`` is a zero-copy plasma read per task, so there
    is no per-actor state worth pooling — and a pool would cap this
    filter's parallelism below the stages it feeds (the incremental
    flagships put it in front of their text scan)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    elif not isinstance(keys, pa.Array):
        keys = pa.array(np.asarray(keys))
    ref = ray.put(pc.unique(keys))

    def member(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref)  # zero-copy plasma read per task
        if len(value_set):
            present = pc.is_in(batch.column(key_col), value_set=value_set)
        else:  # a typeless empty key set matches nothing
            present = pa.array(np.zeros(batch.num_rows, bool))
        if flag_col is not None:
            if isinstance(present, pa.ChunkedArray):
                present = present.combine_chunks()
            return batch.append_column(flag_col, present)
        return batch.filter(present if semi else pc.invert(present))

    return ds.map_batches(member, batch_format="pyarrow", zero_copy_batch=True)


def _membership(left, right, *, key_col: str, right_key_col: str | None,
                semi: bool = False, flag_col: str | None = None):
    """Anti / semi / flag membership of ``left[key_col]`` in
    ``right[right_key_col]`` through the one switch
    (pipelines/joins.small_side): broadcast key set or cogroup."""
    rkey = right_key_col or key_col
    small, big = small_side(right, [rkey])
    if small is None:
        return anti_join_shuffle(left, big, key_col=key_col, right_key_col=rkey,
                                 semi=semi, flag_col=flag_col)
    return _broadcast_membership(left, small.column(rkey), key_col=key_col,
                                 semi=semi, flag_col=flag_col)


def anti_join_auto(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key_col: str,
    right_key_col: str | None = None,
    semi: bool = False,
) -> "ray.data.Dataset":
    """Anti (or, with ``semi``, semi) join on the right side's key set:
    broadcast when it is small, one hash-partitioned shuffle otherwise —
    the count-gated switch of pipelines/joins.py. At 100 TB the right side
    can be billions of urls, so an unconditional driver pull is an OOM,
    while an unconditional shuffle punishes the common small-index case."""
    return _membership(left, right, key_col=key_col,
                       right_key_col=right_key_col, semi=semi)


def membership_flags(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key_col: str,
    right_key_col: str | None = None,
    flag_col: str = "in_index",
) -> "ray.data.Dataset":
    """dupers ``-fast`` mode: answer "is this content already stored?"
    from the checksum index alone, WITHOUT filtering — every left row
    comes back with a boolean ``flag_col`` (reference: lookupOne checks
    the Compare map preloaded from the DB, pkg/dupe/dupe.go:919-931; the
    -fast status line counts those lookups instead of walked files,
    dupe.go:376-385). Same switch as :func:`anti_join_auto`: at 100 TB
    the index is billions of digests and a driver pull would OOM."""
    return _membership(left, right, key_col=key_col,
                       right_key_col=right_key_col, flag_col=flag_col)


def anti_join_shuffle(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key_col: str,
    right_key_col: str | None = None,
    semi: bool = False,
    left_schema: "pa.Schema | None" = None,
    flag_col: str | None = None,
) -> "ray.data.Dataset":
    """Hash-partitioned anti (or semi) join for large right sides: one
    :func:`~dupers_ray.functions.grouping.cogroup` on the key, then per
    partition keep left rows by presence of a right row with an equal key
    (right keys are cast to the left key's type). One all-to-all shuffle.
    With ``flag_col`` set, no row is filtered — presence comes back as a
    boolean column (the membership_flags large-index path)."""
    rkey = right_key_col or key_col
    if left_schema is None:
        left_schema = arrow_schema(left)

    def resolve(lg: pa.Table, rg: pa.Table) -> pa.Table:
        present = pc.is_in(
            lg.column(key_col), value_set=rg.column(rkey).combine_chunks()
        )
        if flag_col is not None:
            return lg.append_column(flag_col, present.combine_chunks())
        keep = present if semi else pc.invert(present)
        return lg.filter(keep)

    return cogroup(
        left, right.select_columns([rkey]), resolve, on=key_col,
        right_on=rkey, left_schema=left_schema,
        right_schema=pa.schema([(rkey, left_schema.field(key_col).type)]),
    )


def latest_per_key(
    ds: "ray.data.Dataset",
    *,
    key_col: str,
    order_col: str,
    tie_col: str,
) -> "ray.data.Dataset":
    """Newest row per key — the crawl-snapshot dedup: a 100 TB crawl
    carries many captures of the same url and only the latest should
    seed the index (the reference's re-walk overwrites a bucket's entry
    with the fresh stat, pkg/dupe/dupe.go:955-963 — same newest-wins
    semantics lifted to a dataflow op). Deterministic tie-break on
    ``tie_col``.

    Scale shape: per-batch combiner keeps ONE row per key per batch
    (vectorized sort + group-tail), so the groupby shuffles at most
    keys x blocks rows, never the corpus; the resolve is the same
    kernel per group. Output columns: (key, order, tie)."""
    from dupers_ray.functions.grouping import (
        head_per_key,
        keyed_partition_map_groups,
    )

    def newest(t: pa.Table) -> pa.Table:
        # per batch, then per key-hash partition (keys co-locate there,
        # so the second pass is globally exact)
        return head_per_key(t.select([key_col, order_col, tie_col]), key_col,
                            [(order_col, "descending"),
                             (tie_col, "descending")], 1)

    parts = ds.map_batches(
        newest, batch_format="pyarrow", zero_copy_batch=True
    )
    return keyed_partition_map_groups(parts, key_col, newest)


def rename_bucket(ds: "ray.data.Dataset", old: str, new: str,
                  *, bucket_col: str = "bucket") -> "ray.data.Dataset":
    """`mv` — remap a bucket label (reference Rename, database.go:693-716)."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(bucket_col)
        out = pc.if_else(pc.equal(col, old), pa.scalar(new), col)
        return batch.set_column(batch.column_names.index(bucket_col), bucket_col, out)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def remove_bucket(ds: "ray.data.Dataset", bucket: str,
                  *, bucket_col: str = "bucket") -> "ray.data.Dataset":
    """`rm` — drop a bucket (reference Remove, database.go:719-729)."""

    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch.column(bucket_col), bucket))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def info_table(
    ds: "ray.data.Dataset",
    *,
    bucket_col: str = "bucket",
    size_col: str | None = None,
    total_label: str = "__total__",
) -> "ray.data.Dataset":
    """`db` info parity (database.Info, database.go:536-666): per-bucket
    item count + byte size plus a grand-total row. Built on the partial-
    aggregated per-bucket counts; the total is a driver-side fold of the
    (tiny) aggregate result."""
    per = counts_by_bucket(ds, bucket_col=bucket_col, size_col=size_col)
    rows = per.take_all()  # one row per bucket — small by definition
    total = {
        bucket_col: total_label,
        "n": int(sum(r["n"] for r in rows)),
    }
    if size_col:
        total["total_bytes"] = int(sum(r["total_bytes"] for r in rows))
    import ray.data as rd

    return per.union(rd.from_items([total]))
