"""Index maintenance verbs — dupers' ``up / clean / ls / db / mv / rm``.

Reference citations:
- counts/info:  pkg/database/bucket/bucket.go:171-208 (Count),
  :283-308 (Total), pkg/database/database.go:536-666 (Info)
- incremental refresh (`up`): pkg/dupe/dupe.go:940-966 (walkCompare —
  already-stored rows skip hashing) → left-ANTI-join new corpus vs index
- clean: pkg/database/database.go:141-169 — index rows whose file no longer
  exists → ANTI-join index vs live corpus
- mv/rm: pkg/database/database.go:693-716 (Rename), :719-729 (Remove)

Anti-joins are implemented with a broadcast key set when the index side's
keys fit comfortably in an object-store blob (``ray.put`` once, read per
actor), because dedup-maintenance key sets (urls) are tiny next to page
payloads. For key sets too large to broadcast, ``anti_join_shuffle`` does a
hash-partitioned co-group — both paths share semantics and tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from dupers_ray.functions.grouping import arrow_schema, cogroup


def counts_by_bucket(ds: "ray.data.Dataset", *, bucket_col: str = "bucket",
                     size_col: str | None = None) -> "ray.data.Dataset":
    """Per-bucket row count (+ byte size when size_col given) — A1/A2/A3.

    Pre-aggregates inside map_batches (one partial row per bucket per batch)
    so the groupby shuffles partials, not rows."""
    aggs = [Count(alias_name="n")]
    cols = {bucket_col: "first"}
    if size_col:
        aggs.append(Sum(size_col, alias_name="total_bytes"))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        gb = df.groupby(bucket_col, sort=False)
        out = gb.size().rename("n").to_frame()
        if size_col:
            out["total_bytes"] = gb[size_col].sum()
        return pa.Table.from_pandas(out.reset_index(), preserve_index=False)

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
    invert=True, rows that ARE (semi). ``keys`` is a python/np/arrow array
    small enough to broadcast — shipped to the object store ONCE via
    ray.put, not re-pickled per batch.

    Stateless TASKS, not an actor pool: ``ray.get(ref)`` is a zero-copy
    plasma read per task, so there is no per-actor state worth pooling —
    and a pool would cap this filter's parallelism below the stages it
    feeds (the same reasoning as the incremental flagship's known-id
    filter, dupe.py)."""
    arr = pa.array(pd.unique(np.asarray(keys)))
    ref = ray.put(arr)

    def filt(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(key_col), value_set=ray.get(ref))
        if not invert:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def anti_join_auto(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key_col: str,
    right_key_col: str | None = None,
    semi: bool = False,
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Count-gated anti/semi join: broadcast the right key set when it is
    small (``ray.put`` once, zero-copy plasma read per task), else one
    hash-partitioned shuffle. The same switch the tiers cascade uses
    (tiers.py survivor filter) and the incremental flagship's known-id
    filter (dupe.py) — at 100 TB the right side can be billions of urls,
    so an unconditional driver ``take_all`` is an OOM, while an
    unconditional shuffle punishes the common small-index case."""
    rkey = right_key_col or key_col
    keys_ds = right.select_columns([rkey]).materialize()
    n = keys_ds.count()
    if n == 0:
        if semi:
            return left.map_batches(
                lambda t: t.slice(0, 0), batch_format="pyarrow"
            )
        return left
    if n <= broadcast_limit:
        # to_pandas (block concat), NOT take_all: row-dict iteration is
        # ~1000x slower than a column pull
        keys = keys_ds.to_pandas()[rkey].to_numpy()
        return anti_join_broadcast(left, keys, key_col=key_col, invert=semi)
    return anti_join_shuffle(
        left, keys_ds, key_col=key_col, right_key_col=rkey, semi=semi
    )


def membership_flags(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key_col: str,
    right_key_col: str | None = None,
    flag_col: str = "in_index",
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """dupers ``-fast`` mode: answer "is this content already stored?"
    from the checksum index alone, WITHOUT filtering — every left row
    comes back with a boolean ``flag_col`` (reference: lookupOne checks
    the Compare map preloaded from the DB, pkg/dupe/dupe.go:919-931; the
    -fast status line counts those lookups instead of walked files,
    dupe.go:376-385). Count-gated like :func:`anti_join_auto`: broadcast
    the index key set when small (``ray.put`` once, zero-copy plasma
    read per task), else ONE hash-partitioned cogroup — at 100 TB the
    index is billions of digests and a driver pull would OOM."""
    rkey = right_key_col or key_col
    keys_ds = right.select_columns([rkey]).materialize()
    n = keys_ds.count()
    if n == 0:
        return left.map_batches(
            lambda t: t.append_column(
                flag_col, pa.array(np.zeros(len(t), bool))
            ),
            batch_format="pyarrow", zero_copy_batch=True,
        )
    if n <= broadcast_limit:
        keys = keys_ds.to_pandas()[rkey].to_numpy()
        arr = pa.array(pd.unique(np.asarray(keys)))
        ref = ray.put(arr)

        def flag(batch: pa.Table) -> pa.Table:
            m = pc.is_in(batch.column(key_col), value_set=ray.get(ref))
            return batch.append_column(flag_col, m.combine_chunks())

        return left.map_batches(
            flag, batch_format="pyarrow", zero_copy_batch=True
        )
    return anti_join_shuffle(
        left, keys_ds, key_col=key_col, right_key_col=rkey,
        flag_col=flag_col,
    )


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
    cols = [key_col, order_col, tie_col]

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas().sort_values(cols)
        out = df.groupby(key_col, sort=False).tail(1)
        return pa.Table.from_pandas(out, preserve_index=False)

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        # partition-wise (bounded fan-out): newest row per key WITHIN
        # the key-hash partition — keys co-locate, so globally exact
        return df.sort_values(cols).groupby(key_col, sort=False).tail(1)

    from dupers_ray.functions.grouping import keyed_partition_map_groups

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return keyed_partition_map_groups(parts, key_col, resolve)


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
