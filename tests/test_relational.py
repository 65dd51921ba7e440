"""revenue_rollup: combiner + cogroup join + broadcast dimension vs pandas."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from dupers_ray.pipelines.relational import revenue_rollup


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(7)
    n_cust, n_ord = 40, 500
    customer = pd.DataFrame(
        {
            "c_custkey": np.arange(n_cust, dtype=np.int64),
            "c_mktsegment": [f"SEG{i % 4}" for i in range(n_cust)],
            "c_nationkey": (rng.integers(0, 5, n_cust)).astype(np.int32),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n_ord, dtype=np.int64),
            "o_custkey": rng.integers(0, n_cust, n_ord).astype(np.int64),
            "o_totalprice": rng.uniform(1, 1000, n_ord).round(2),
        }
    )
    nation = pd.DataFrame(
        {
            "n_nationkey": np.arange(5, dtype=np.int32),
            "n_name": [f"NATION_{i}" for i in range(5)],
        }
    )
    return orders, customer, nation


def test_segment_rollup_matches_pandas(tables):
    orders, customer, nation = tables
    got = (
        revenue_rollup(rd.from_pandas(orders), rd.from_pandas(customer))
        .to_pandas()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    exp = (
        orders.merge(customer, left_on="o_custkey", right_on="c_custkey")
        .groupby("c_mktsegment")
        .agg(n_orders=("o_orderkey", "size"), revenue=("o_totalprice", "sum"))
        .reset_index()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    assert list(got["c_mktsegment"]) == list(exp["c_mktsegment"])
    assert list(got["n_orders"]) == list(exp["n_orders"])
    np.testing.assert_allclose(got["revenue"], exp["revenue"], rtol=1e-9)


def test_nation_rollup_broadcast(tables):
    orders, customer, nation = tables
    got = (
        revenue_rollup(
            rd.from_pandas(orders),
            rd.from_pandas(customer),
            nation=rd.from_pandas(nation),
        )
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    exp = (
        orders.merge(customer, left_on="o_custkey", right_on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .groupby("n_name")
        .agg(n_orders=("o_orderkey", "size"), revenue=("o_totalprice", "sum"))
        .reset_index()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    assert list(got["n_name"]) == list(exp["n_name"])
    assert list(got["n_orders"]) == list(exp["n_orders"])
    np.testing.assert_allclose(got["revenue"], exp["revenue"], rtol=1e-9)


def test_lookup_miss_raises(tables, force_cogroup):
    """A customer nation key with no nation row raises on both routes of
    the dimension lookup instead of grouping under a null name."""
    orders, customer, nation = tables
    used = sorted(set(customer["c_nationkey"]))
    partial = rd.from_pandas(nation[nation["n_nationkey"] != used[0]])
    for forced in (False, True):
        if forced:
            calls = force_cogroup()
        with pytest.raises(Exception, match="lookup misses"):
            revenue_rollup(rd.from_pandas(orders), rd.from_pandas(customer),
                           nation=partial).take_all()
    assert calls["lookup"] == 1


def test_pricing_summary_integer_exact(ray_session):
    import numpy as np

    from dupers_ray.pipelines.relational import pricing_summary

    rng = np.random.default_rng(7)
    n = 5000
    t = pa.table(
        {
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n)),
            "l_linestatus": pa.array(rng.choice(["O", "F"], n)),
            "l_quantity": pa.array(rng.integers(1, 51, n).astype(float)),
            "l_extendedprice": pa.array(
                np.round(rng.uniform(900, 100000, n), 2)
            ),
            "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n) / 100.0),
        }
    )
    out4 = {
        (r["l_returnflag"], r["l_linestatus"]): r
        for r in pricing_summary(
            rd.from_arrow(t).repartition(4)
        ).take_all()
    }
    out13 = {
        (r["l_returnflag"], r["l_linestatus"]): r
        for r in pricing_summary(
            rd.from_arrow(t).repartition(13)
        ).take_all()
    }
    assert out4 == out13  # bit-exact at any parallelism (integer units)

    price = np.rint(t.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
    disc = np.rint(t.column("l_discount").to_numpy() * 100).astype(np.int64)
    tax = np.rint(t.column("l_tax").to_numpy() * 100).astype(np.int64)
    flags = t.column("l_returnflag").to_pylist()
    stats = t.column("l_linestatus").to_pylist()
    for key, row in out4.items():
        m = np.array([(f, s) == key for f, s in zip(flags, stats)])
        assert row["n"] == int(m.sum())
        assert row["sum_base_cents"] == int(price[m].sum())
        assert row["sum_disc_e4"] == int((price[m] * (100 - disc[m])).sum())
        assert row["sum_charge_e6"] == int(
            (price[m] * (100 - disc[m]) * (100 + tax[m])).sum()
        )


def test_order_priority_exists_matches_duckdb(ray_session):
    import duckdb

    from dupers_ray.pipelines.relational import order_priority_exists

    sf = "/root/testdata/sf0.001"
    orders = rd.read_parquet(f"{sf}/orders.parquet")
    lineitem = rd.read_parquet(f"{sf}/lineitem.parquet")
    out = (
        order_priority_exists(orders, lineitem)
        .to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    )
    exp = duckdb.sql(f"""
        SELECT o.o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
        FROM read_parquet('{sf}/orders.parquet') o
        WHERE EXISTS (SELECT 1 FROM read_parquet('{sf}/lineitem.parquet') l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_returnflag = 'R')
        GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
    """).df()
    assert out.equals(exp.astype(out.dtypes.to_dict()))


def test_order_priority_exists_shuffle_path(ray_session, force_cogroup):
    from dupers_ray.pipelines.relational import order_priority_exists

    sf = "/root/testdata/sf0.001"
    orders = rd.read_parquet(f"{sf}/orders.parquet")
    lineitem = rd.read_parquet(f"{sf}/lineitem.parquet")
    a = (order_priority_exists(orders, lineitem)
         .to_pandas().sort_values("o_orderpriority").reset_index(drop=True))
    calls = force_cogroup()
    b = (order_priority_exists(orders, lineitem)
         .to_pandas().sort_values("o_orderpriority").reset_index(drop=True))
    assert calls["membership"] == 1
    assert a.equals(b)


def test_revenue_bit_exact_across_layouts(tables):
    """Revenue is summed in integer cents and divided once, so it equals
    the exact cents total / 100 bit for bit under any block layout."""
    orders, customer, _ = tables
    m = orders.merge(customer, left_on="o_custkey", right_on="c_custkey")
    cents = np.rint(m["o_totalprice"].to_numpy() * 100).astype(np.int64)
    exp = (
        m.assign(c=cents).groupby("c_mktsegment")["c"].sum() / 100
    ).sort_index()
    for n_blocks in (1, 7, 50):
        got = (
            revenue_rollup(
                rd.from_pandas(orders).repartition(n_blocks),
                rd.from_pandas(customer),
            )
            .to_pandas()
            .set_index("c_mktsegment")["revenue"]
            .sort_index()
        )
        assert got.index.tolist() == exp.index.tolist()
        assert got.tolist() == exp.tolist(), n_blocks
