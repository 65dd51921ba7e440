"""Hash-join helpers.

Every join is an explicit co-group join: tag both sides, union, group by
key hash, join per group — one all-to-all shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


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


def _arrow_schema(ds: "ray.data.Dataset") -> pa.Schema:
    """Dataset schema as a pyarrow.Schema (may execute a lazy sub-DAG —
    prefer passing schemas explicitly on hot paths). Pandas-block
    datasets report numpy dtypes / Python classes instead of Arrow types;
    map those through pandas (one empty Series per column) so joins work
    on either block format."""
    s = ds.schema()
    fields = []
    for name, typ in zip(s.names, s.types):
        if not isinstance(typ, pa.DataType):
            import numpy as np
            import pandas as pd

            if typ is object or typ == np.dtype("O"):
                at = pa.string()  # engine object columns are string ids
            else:
                at = pa.Array.from_pandas(pd.Series([], dtype=typ)).type
            typ = at
        fields.append((name, typ))
    return pa.schema(fields)


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
    """Inner/left join via tagged union + groupby(hash(key) % P) + per-group
    Arrow join. Keys must be integer-typed (the engine joins on uint64
    node ids / hashes).

    ``dedup_left=True`` drops duplicate left rows (full-row dedup) inside
    each join partition BEFORE joining. Because left rows co-locate by the
    join key, this is a complete global dedup for row-sets whose duplicates
    share the key — e.g. cross-band duplicate candidate pairs (same src) —
    without a dedicated dedup shuffle."""
    right_on = right_on or on
    lschema = left_schema if left_schema is not None else _arrow_schema(left)
    rschema = right_schema if right_schema is not None else _arrow_schema(right)
    lcols = list(lschema.names)
    rcols = [c for c in rschema.names if c != right_on]
    # union() needs one schema: pad each side with nulls for the other's cols
    all_fields: list[tuple[str, pa.DataType]] = []
    for n, t in zip(lschema.names, lschema.types):
        all_fields.append((n, t))
    for n, t in zip(rschema.names, rschema.types):
        if n != right_on and n not in lcols:
            all_fields.append((n, t))

    def tag(side: str, key: str):
        def f(t: pa.Table) -> pa.Table:
            kcol = t.column(key)
            if pa.types.is_string(kcol.type) or pa.types.is_large_string(kcol.type):
                # string join keys (e.g. url): partition on the vectorized
                # string hash; the per-group Arrow join compares the actual
                # strings, so the hash only needs equal-keys → equal-bucket
                from dupers_ray.pipelines.maintenance import hash_str_keys

                keys = hash_str_keys(kcol)
            else:
                keys = np.asarray(kcol, dtype=np.uint64)
            h = (keys % np.uint64(num_partitions)).astype(np.int64)
            cols = {}
            for name, typ in all_fields:
                src = name if name in t.column_names else (
                    right_on if side == "R" and name == on else None
                )
                if src is not None and src in t.column_names:
                    cols[name] = t.column(src).cast(typ)
                else:
                    cols[name] = pa.nulls(len(t), typ)
            cols["__h"] = pa.array(h)
            cols["__side"] = pa.array([side] * len(t))
            return pa.table(cols)

        return f

    l = left.map_batches(tag("L", on), batch_format="pyarrow")
    r = right.map_batches(tag("R", right_on), batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        # pure-Arrow per-group join: pandas would coerce null-padded uint64
        # columns to float64 and CORRUPT node ids above 2^53
        import pyarrow.compute as pc

        side = g.column("__side")
        lg = g.filter(pc.equal(side, "L")).select(lcols)
        if dedup_left and len(lg):
            lg = lg.group_by(lcols).aggregate([]).select(lcols)
        rg = g.filter(pc.equal(side, "R")).select([on] + rcols)
        rg = rg.rename_columns(["__rkey"] + rcols)
        out = lg.join(
            rg,
            keys=[on],
            right_keys=["__rkey"],
            join_type="inner" if how == "inner" else "left outer",
        )
        return out.select(lcols + rcols)

    return l.union(r).groupby("__h").map_groups(merge, batch_format="pyarrow")
