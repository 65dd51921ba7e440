"""General relational pipelines: large-fact equi-join + grouped rollups.

The reference has only key-value lookups (``lookupOne``,
``pkg/dupe/dupe.go:919-931``); a training-data engine also needs the
classic warehouse shape — join a huge fact table to a dimension and roll
up.  These pipelines demonstrate the three scale rules the engine uses
everywhere:

- **combine before the shuffle**: the fact side is pre-aggregated per
  join key inside ``map_batches`` (same key as the join ⇒ no extra
  shuffle), shrinking the all-to-all exchange by the per-key row count
  (~10x for TPC-H orders-per-customer);
- **one shuffle, reused key**: the only all-to-all is the cogroup join
  on the key both sides share; the final rollup groups a handful of
  segment/nation rows, pre-combined per batch;
- **broadcast the tiny side**: dimensions of bounded cardinality
  (nation: 25 rows) never shuffle — ``joins.lookup_join`` puts them in
  the object store once and probes them inside every batch (the one
  broadcast-or-cogroup switch, pipelines/joins.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dupers_ray.pipelines.joins import cogroup_join, lookup_join


def _cents_partials(t: pa.Table) -> pa.Table:
    """Per-batch combiner: (o_custkey, n_part, rev_part) partials with the
    revenue in EXACT integer cents (prices are 2-decimal), so the sums
    are bit-exact in any order — Arrow group_by, no Python per row."""
    cents = np.rint(
        np.asarray(t.column("o_totalprice"), np.float64) * 100
    ).astype(np.int64)
    g = (
        pa.table({"o_custkey": t.column("o_custkey"), "c": pa.array(cents)})
        .group_by(["o_custkey"])
        .aggregate([("c", "count"), ("c", "sum")])
    )
    return g.rename_columns(["o_custkey", "n_part", "rev_part"])


def _require_name(t: pa.Table) -> pa.Table:
    """Dimension misses are a data bug, not a join semantic: a customer
    nation key with no nation row raises instead of grouping as null."""
    miss = pc.is_null(t.column("n_name"))
    if pc.any(miss).as_py():
        keys = t.column("c_nationkey").filter(miss)[:5].to_pylist()
        raise KeyError(f"lookup misses for c_nationkey: {keys}")
    return t


def revenue_rollup(
    orders: "ray.data.Dataset",
    customer: "ray.data.Dataset",
    *,
    nation: "ray.data.Dataset | None" = None,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Orders x customer revenue rollup.

    With ``nation=None``: per ``c_mktsegment`` order count + revenue.
    With ``nation``: per ``n_name`` (customer nation) — the dimension is
    broadcast, never shuffled.

    Output columns: (c_mktsegment | n_name), n_orders, revenue. Revenue
    is summed in integer cents and divided by 100 once at the end, so it
    does not depend on block layout or summation order.
    """
    fact = orders.select_columns(["o_custkey", "o_totalprice"]).map_batches(
        _cents_partials, batch_format="pyarrow", zero_copy_batch=True,
    )

    if nation is None:
        dim = customer.select_columns(["c_custkey", "c_mktsegment"])
        group_col = "c_mktsegment"
        dim_schema = pa.schema(
            [("c_custkey", pa.int64()), ("c_mktsegment", pa.string())]
        )
    else:
        dim = customer.select_columns(["c_custkey", "c_nationkey"])
        group_col = "n_name"
        dim_schema = pa.schema(
            [("c_custkey", pa.int64()), ("c_nationkey", pa.int32())]
        )

    joined = cogroup_join(
        fact,
        dim,
        on="o_custkey",
        right_on="c_custkey",
        num_partitions=num_partitions,
        left_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("n_part", pa.int64()),
                ("rev_part", pa.int64()),
            ]
        ),
        right_schema=dim_schema,
    )

    if nation is not None:
        joined = lookup_join(
            joined, nation.select_columns(["n_nationkey", "n_name"]),
            on="c_nationkey", right_on="n_nationkey", how="left",
        ).map_batches(_require_name, batch_format="pyarrow",
                      zero_copy_batch=True)

    combined = joined.map_batches(
        _partial_rollup(group_col), batch_format="pyarrow", zero_copy_batch=True
    )
    out = (
        combined.groupby(group_col)
        .sum(["n_part", "rev_part"])
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_orders": t.column("sum(n_part)"),
                "revenue": pc.divide(
                    t.column("sum(rev_part)").cast(pa.float64()), 100.0
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def pricing_summary(lineitem: "ray.data.Dataset") -> "ray.data.Dataset":
    """TPC-H Q1-shaped pricing summary over the fact table: per
    (l_returnflag, l_linestatus) row counts and the qty / base-price /
    discounted-price / charge sums.

    No join, ONE tiny shuffle: each batch is rescaled to EXACT integer
    units (prices are 2-decimal, discount/tax 2-decimal ⇒ cents, 1e-4 $
    and 1e-6 $ units are integers; |sum| < 2^62) and pre-combined per
    flag/status inside ``map_batches``, so the groupby moves ≤ 6 partial
    rows per block and the result is bit-exact at any parallelism —
    float accumulation-order noise never enters."""

    def partial(t: pa.Table) -> pa.Table:
        price = np.rint(
            np.asarray(t.column("l_extendedprice"), np.float64) * 100
        ).astype(np.int64)
        disc = np.rint(
            np.asarray(t.column("l_discount"), np.float64) * 100
        ).astype(np.int64)
        tax = np.rint(
            np.asarray(t.column("l_tax"), np.float64) * 100
        ).astype(np.int64)
        qty = np.rint(np.asarray(t.column("l_quantity"), np.float64)).astype(
            np.int64
        )
        scaled = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": pa.array(qty),
                "base_cents": pa.array(price),
                "disc_e4": pa.array(price * (100 - disc)),
                "charge_e6": pa.array(price * (100 - disc) * (100 + tax)),
            }
        )
        g = scaled.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "count"), ("qty", "sum"), ("base_cents", "sum"),
             ("disc_e4", "sum"), ("charge_e6", "sum")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "n", "sum_qty",
             "sum_base_cents", "sum_disc_e4", "sum_charge_e6"]
        )

    parts = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = parts.groupby(["l_returnflag", "l_linestatus"]).sum(
        ["n", "sum_qty", "sum_base_cents", "sum_disc_e4", "sum_charge_e6"]
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            ["l_returnflag", "l_linestatus", "n", "sum_qty",
             "sum_base_cents", "sum_disc_e4", "sum_charge_e6"]
        ),
        batch_format="pyarrow",
    )


def order_priority_exists(
    orders: "ray.data.Dataset",
    lineitem: "ray.data.Dataset",
    *,
    returnflag: str = "R",
) -> "ray.data.Dataset":
    """TPC-H Q4 shape: per ``o_orderpriority``, count orders having AT
    LEAST ONE lineitem with ``l_returnflag = returnflag`` — the EXISTS
    semi-join every warehouse rollup needs.

    Scale shape: the lineitem side reduces to DISTINCT matching order
    keys via a per-batch unique combiner (shuffle-free); the semi-join
    against orders is ``maintenance.anti_join_auto`` — a broadcast
    membership filter while the key set is small, the hash-partitioned
    semi-join otherwise; the final count groups pre-aggregated
    partials."""
    from dupers_ray.pipelines.maintenance import anti_join_auto, counts_by_bucket

    def match_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("l_returnflag"), returnflag)
        k = t.column("l_orderkey").filter(m)
        u = np.unique(k.to_numpy(zero_copy_only=False))
        return pa.table({"o_orderkey": pa.array(u, pa.int64())})

    keys = lineitem.select_columns(
        ["l_orderkey", "l_returnflag"]
    ).map_batches(match_keys, batch_format="pyarrow", zero_copy_batch=True)
    matched = anti_join_auto(
        orders.select_columns(["o_orderkey", "o_orderpriority"]), keys,
        key_col="o_orderkey", semi=True,
    )
    agg = counts_by_bucket(matched, bucket_col="o_orderpriority")
    return agg.map_batches(
        lambda t: t.rename_columns(["o_orderpriority", "n_orders"]),
        batch_format="pyarrow",
    )


def _partial_rollup(group_col: str):
    def f(t: pa.Table) -> pa.Table:
        g = (
            t.select([group_col, "n_part", "rev_part"])
            .group_by([group_col])
            .aggregate([("n_part", "sum"), ("rev_part", "sum")])
        )
        return g.rename_columns([group_col, "n_part", "rev_part"])

    return f
