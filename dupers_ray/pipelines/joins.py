"""Hash-join helpers.

Every join is an explicit co-group join (functions/grouping.cogroup: tag
both sides, union, group by key hash) with an Arrow join per partition —
one all-to-all shuffle.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import cogroup


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str | None = None,
    num_partitions: int = 32,
    join_type: str = "inner",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
    dedup_left: bool = False,
) -> "ray.data.Dataset":
    """Cogroup join, not the native ``Dataset.join``: the native
    JoinOperator in this Ray release RESERVES num-CPUs-worth of resources
    per join operator, so a DAG with two chained joins deadlocks on small
    clusters (observed: two joins each 'requiring 4 CPUs' on a 4-CPU local
    cluster → starved executor). The cogroup path shares the normal task
    pool and streams.

    Pass ``left_schema``/``right_schema`` when known: calling .schema() on a
    lazy Dataset EXECUTES its sub-DAG to infer types, which serializes the
    pipeline and double-runs shuffles."""
    right_on = right_on or on
    if join_type not in ("inner", "left_outer"):
        raise ValueError(f"cogroup join supports inner/left_outer, got {join_type}")
    return cogroup_join(
        left, right, on=on, right_on=right_on, num_partitions=num_partitions,
        how="inner" if join_type == "inner" else "left",
        left_schema=left_schema, right_schema=right_schema,
        dedup_left=dedup_left,
    )


def cogroup_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str | None = None,
    num_partitions: int = 32,
    how: str = "inner",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
    dedup_left: bool = False,
) -> "ray.data.Dataset":
    """Inner/left join via :func:`~dupers_ray.functions.grouping.cogroup`
    + a per-partition Arrow join. Keys may be integer or string: the key
    hash only routes rows, the Arrow join compares the real keys.

    ``dedup_left=True`` drops duplicate left rows (full-row dedup) inside
    each join partition BEFORE joining. Because left rows co-locate by the
    join key, this is a complete global dedup for row-sets whose duplicates
    share the key — e.g. cross-band duplicate candidate pairs (same src) —
    without a dedicated dedup shuffle."""
    right_on = right_on or on
    join_type = "inner" if how == "inner" else "left outer"

    def merge(lg: pa.Table, rg: pa.Table) -> pa.Table:
        lcols = lg.column_names
        if dedup_left and lg.num_rows:
            lg = lg.group_by(lcols).aggregate([]).select(lcols)
        rcols = [c for c in rg.column_names if c != right_on]
        rg = rg.rename_columns(
            ["__rkey" if c == right_on else c for c in rg.column_names]
        )
        out = lg.join(rg, keys=[on], right_keys=["__rkey"], join_type=join_type)
        return out.select(lcols + rcols)

    return cogroup(
        left, right, merge, on=on, right_on=right_on,
        num_partitions=num_partitions,
        left_schema=left_schema, right_schema=right_schema,
    )
