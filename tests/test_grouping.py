"""functions/grouping.py: the one grouped-execution primitive.

Every layer must give the same answer whatever the input block layout:
one block, Ray's default split, or a shredded layout of one-row and empty
blocks (the layout that split a join group in the round-5 recrawl_queue
red) — and on both routes: small test inputs take the one-task route,
``TestSortExchange`` reruns the layout tests on the exchange route.
Expected values come from driver-side pandas / pyarrow.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray
import ray.data as rd

from dupers_ray.functions.grouping import (
    coalesced_map_groups,
    keyed_partition_map_groups,
    partitioned_aggregate,
    to_arrow_table,
)
from dupers_ray.pipelines.joins import cogroup_join, sorted_str_lookup
from dupers_ray.pipelines.maintenance import anti_join_shuffle


def _shredded(t: pa.Table) -> list[pa.Table]:
    """One block per row with an empty block after every second row."""
    out = []
    for i in range(t.num_rows):
        out.append(t.slice(i, 1))
        if i % 2:
            out.append(t.slice(0, 0))
    return out


def _layouts(t: pa.Table) -> dict:
    return {
        "one_block": lambda: rd.from_arrow(t),
        "default": lambda: rd.from_items(t.to_pylist()),
        "shredded": lambda: rd.from_arrow(_shredded(t)),
    }


def _rows(ds_or_table) -> list[tuple]:
    tables = [ds_or_table] if isinstance(ds_or_table, pa.Table) else [
        ray.get(r) for r in ds_or_table.to_arrow_refs()
    ]
    return _sorted(tuple(r.values()) for t in tables for r in t.to_pylist())


def _sorted(rows) -> list[tuple]:
    """Rows sorted with nulls ordered before every value."""
    return sorted(rows, key=lambda r: tuple(
        (v is not None, 0 if v is None else v) for v in r))


def test_coalesced_map_groups_exact():
    """The route (one task, or a coalesced sort-groupby) changes block
    layout only — the grouped result is identical, ``fn`` sees one key
    per call, and output blocks are all typed."""
    tbl = pa.table({
        "__part": pa.array((np.arange(1000) % 64).astype(np.int64)),
        "v": pa.array(np.arange(1000, dtype=np.int64)),
    })
    ds = rd.from_arrow(tbl).repartition(32)

    def f(g: pa.Table) -> pa.Table:
        assert len(pc.unique(g.column("__part"))) == 1
        return pa.table({"__part": g.column("__part")[:1],
                         "s": [pc.sum(g.column("v")).as_py()]})

    out = coalesced_map_groups(ds, "__part", f).materialize()
    got = out.to_pandas().sort_values("__part").reset_index(drop=True)
    exp = (
        tbl.to_pandas().groupby("__part", as_index=False)["v"].sum()
        .rename(columns={"v": "s"}).sort_values("__part").reset_index(drop=True)
    )
    assert got.values.tolist() == exp.values.tolist()
    for bundle in out.iter_internal_ref_bundles():
        for ref, _ in bundle.blocks:
            blk = ray.get(ref)
            cols = blk.column_names if isinstance(blk, pa.Table) \
                else list(blk.columns)
            assert list(cols) == ["__part", "s"] or len(blk) == 0


_N = 200
_KEYED = pa.table({
    "k": pa.array(np.arange(_N) % 17, pa.int64()),
    "s": pa.array([f"key{i % 13}" for i in range(_N)], pa.string()),
    "a": pa.array(np.arange(_N) % 5, pa.int64()),
    "b": pa.array(np.arange(_N) % 7, pa.int64()),
    "v": pa.array(np.arange(_N), pa.int64()),
})


@pytest.mark.parametrize("key", ["k", "s", ["a", "b"]])
def test_keyed_partition_map_groups_reduces_every_key_once(key):
    keys = [key] if isinstance(key, str) else key

    def per_part(g: pa.Table) -> pa.Table:
        assert "__part" not in g.column_names
        return g.group_by(keys).aggregate([("v", "sum")])

    exp = _rows(pa.Table.from_pandas(
        _KEYED.to_pandas().groupby(keys, as_index=False)["v"].sum(),
        preserve_index=False,
    ))
    for name, make in _layouts(_KEYED).items():
        got = _rows(keyed_partition_map_groups(
            make(), key, per_part, num_partitions=8
        ))
        assert got == exp, name


_LEFT = pa.table({"id": pa.array(np.arange(20), pa.int64()),
                  "lv": pa.array(np.arange(20) * 10, pa.int64())})
# keys 0, 3, ..., 27, each twice; half the keys miss the left side
_RIGHT = pa.table({
    "id": pa.array(np.repeat(np.arange(0, 30, 3), 2), pa.int64()),
    "rv": pa.array(np.arange(20) + 100, pa.int64()),
})
_LEFT_LAYOUTS = {
    "one_block": lambda: rd.range(20, override_num_blocks=1),
    "default": lambda: rd.range(20),
    "shredded": lambda: rd.range(20, override_num_blocks=20),
}
# (left layout, right layout): each layout on both sides, plus the
# recrawl_queue shape — a default left against a shredded right
_JOIN_LAYOUTS = [("one_block", "one_block"), ("default", "default"),
                 ("shredded", "shredded"), ("default", "shredded")]


def _left(make) -> "rd.Dataset":
    return make().map_batches(
        lambda t: pa.table({"id": t.column("id").cast(pa.int64()),
                            "lv": pc.multiply(t.column("id").cast(pa.int64()), 10)}),
        batch_format="pyarrow",
    )


@pytest.mark.parametrize("how", ["inner", "left"])
def test_cogroup_join_layout_independent(how):
    join_type = "inner" if how == "inner" else "left outer"
    exp = _rows(_LEFT.join(_RIGHT, keys="id", join_type=join_type)
                .select(["id", "lv", "rv"]))
    for lname, rname in _JOIN_LAYOUTS:
        got = _rows(cogroup_join(
            _left(_LEFT_LAYOUTS[lname]), _layouts(_RIGHT)[rname](), on="id",
            how=how, left_schema=_LEFT.schema, right_schema=_RIGHT.schema,
        ))
        assert got == exp, (lname, rname)


@pytest.mark.parametrize("semi", [False, True])
def test_anti_join_shuffle_layout_independent(semi):
    present = pc.is_in(_LEFT.column("id"), value_set=_RIGHT.column("id"))
    exp = _rows(_LEFT.filter(present if semi else pc.invert(present)))
    for lname, rname in _JOIN_LAYOUTS:
        got = _rows(anti_join_shuffle(
            _left(_LEFT_LAYOUTS[lname]), _layouts(_RIGHT)[rname](),
            key_col="id", semi=semi, left_schema=_LEFT.schema,
        ))
        assert got == exp, (lname, rname)


def test_string_join_compares_strings_not_routing_hash():
    """With one partition every key shares a route — the join must still
    match on the strings themselves."""
    left = pa.table({"url": ["a", "b", "c", "b"], "x": [1, 2, 3, 4]})
    right = pa.table({"url": ["b", "d", "a"], "y": [10, 20, 30]})
    got = _rows(cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on="url", how="left",
        num_partitions=1,
    ))
    exp = _rows(left.join(right, keys="url", join_type="left outer")
                .select(["url", "x", "y"]))
    assert got == exp


def test_sitemap_lookup_colliding_hashes_match_strings():
    """Two different child urls forced onto one 64-bit hash: the
    broadcast lookup must still resolve each url to its own entry, and a
    repeated entry matches once per copy."""
    skeys = np.array([7, 7, 9, 9], np.uint64)
    surls = pa.array(["http://a/s.xml", "http://b/s.xml", "http://c/s.xml",
                      "http://c/s.xml"])
    urls = pa.chunked_array([[
        "http://b/s.xml", "http://a/s.xml", "http://x/s.xml", "http://c/s.xml",
    ]])
    h = np.array([7, 7, 7, 9], np.uint64)
    rows, pos = sorted_str_lookup(skeys, surls, h, urls)
    assert rows.tolist() == [0, 1, 3, 3]
    assert pos.tolist() == [1, 0, 2, 3]


def _blocks_concat(ds) -> pa.Table:
    """Concatenate the output block refs the way pagebench's collect
    does; a schema-less empty block makes this raise."""
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_single_key_group_map_emits_typed_blocks():
    left = pa.table({"url": ["a", "b", "c", "b"], "x": [1, 2, 3, 4]})
    right = pa.table({"url": ["b", "d", "a"], "y": [10, 20, 30]})
    joined = _blocks_concat(cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on="url", how="left",
        num_partitions=1,
    ))
    assert _rows(joined) == _rows(
        left.join(right, keys="url", join_type="left outer")
        .select(["url", "x", "y"]))

    one_key = pa.table({"k": [5, 5, 5], "v": [1, 2, 3]})
    out = _blocks_concat(coalesced_map_groups(
        rd.from_arrow(one_key), "k",
        lambda g: pa.table({"k": g.column("k")[:1],
                            "s": [pc.sum(g.column("v")).as_py()]}),
    ))
    assert out.to_pylist() == [{"k": 5, "s": 6}]


# -- the broadcast-or-cogroup switch (pipelines/joins.py) --------------------

_BIG = 2**64 - 3  # above 2^63: a uint64 key that no int64 holds
_KEY_VALUES = {
    "int64": (pa.int64(), [0, 1, 2, 5, 7, -4], [2, 7, 9, -4, 0]),
    "uint64": (pa.uint64(), [0, 1, 2, _BIG, 7, 2**63],
               [2, 7, _BIG - 1, _BIG, 0]),
    "string": (pa.string(), ["a", "b", "", "é", "zz", "b2"],
               ["", "zz", "q", "a", "é"]),
}


def _switch_tables(key_type: str):
    typ, lkeys, rkeys = _KEY_VALUES[key_type]
    # left: every key twice plus a null key; right: unique keys, some missing
    left = pa.table({
        "k": pa.array(lkeys + lkeys + [None], typ),
        "lv": pa.array(np.arange(2 * len(lkeys) + 1), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(rkeys, typ),
        "rv": pa.array([f"v{i}" for i in range(len(rkeys))], pa.string()),
    })
    return left, right


def _switch_layouts(left: pa.Table, right: pa.Table):
    """(left, right) Datasets: one block each, a few blocks each, and
    shredded (one-row and empty blocks) on both sides."""
    def split(t):
        return [t.slice(0, 2), t.slice(2, 3), t.slice(5)]

    return [(rd.from_arrow(left), rd.from_arrow(right)),
            (rd.from_arrow(split(left)), rd.from_arrow(split(right))),
            (rd.from_arrow(_shredded(left)), rd.from_arrow(_shredded(right)))]


@pytest.fixture(params=["broadcast", "cogroup"])
def route(request, monkeypatch, force_cogroup):
    """Run a test on both routes of the switch; yields the cogroup
    route's call counts (all zero on the broadcast route)."""
    from dupers_ray.pipelines import joins

    if request.param == "cogroup":
        yield force_cogroup()
    else:
        monkeypatch.setattr(joins, "BROADCAST_ROWS", 10**12)
        monkeypatch.setattr(joins, "PAIR_BROADCAST_ROWS", 10**12)
        yield {"lookup": 0, "membership": 0, "pair": 0}


@pytest.mark.parametrize("key_type", list(_KEY_VALUES))
@pytest.mark.parametrize("mode", ["anti", "semi", "flag"])
def test_membership_switch_matches_pyarrow(route, request, key_type, mode):
    from dupers_ray.pipelines.maintenance import anti_join_auto, membership_flags

    left, right = _switch_tables(key_type)
    present = pc.is_in(left.column("k"), value_set=right.column("rk"))
    if mode == "flag":
        exp = left.append_column("in_index", present)
    else:
        exp = left.filter(present if mode == "semi" else pc.invert(present))
    for ldata, rdata in _switch_layouts(left, right):
        if mode == "flag":
            got = membership_flags(ldata, rdata, key_col="k",
                                   right_key_col="rk")
        else:
            got = anti_join_auto(ldata, rdata, key_col="k",
                                 right_key_col="rk", semi=mode == "semi")
        assert _rows(got) == _rows(exp)
    route_name = request.node.callspec.params["route"]
    assert route["membership"] == (0 if route_name == "broadcast" else 3)


@pytest.mark.parametrize("key_type", list(_KEY_VALUES))
@pytest.mark.parametrize("how", ["inner", "left"])
def test_lookup_join_switch_matches_pyarrow(route, request, key_type, how):
    from dupers_ray.pipelines.joins import lookup_join

    left, right = _switch_tables(key_type)
    exp = _rows(left.join(
        right, keys="k", right_keys="rk",
        join_type="inner" if how == "inner" else "left outer",
    ).select(["k", "lv", "rv"]))
    for ldata, rdata in _switch_layouts(left, right):
        got = lookup_join(ldata, rdata, on="k", right_on="rk", how=how)
        assert _rows(got) == exp
    # a driver table as the right side joins the same rows
    got = lookup_join(rd.from_arrow(left), right, on="k", right_on="rk",
                      how=how)
    assert _rows(got) == exp
    route_name = request.node.callspec.params["route"]
    assert route["lookup"] == (0 if route_name == "broadcast" else 4)


def test_lookup_join_repeats_rows_for_duplicate_right_keys(route):
    from dupers_ray.pipelines.joins import lookup_join

    left = pa.table({"k": ["a", "b", "c"], "lv": [1, 2, 3]})
    right = pa.table({"k": ["a", "a", "c"], "rv": [10, 11, 30]})
    for how, join_type in (("inner", "inner"), ("left", "left outer")):
        got = lookup_join(rd.from_arrow(left), rd.from_arrow(right),
                          on="k", how=how)
        assert _rows(got) == _rows(left.join(right, keys="k",
                                             join_type=join_type)
                                   .select(["k", "lv", "rv"]))


@pytest.mark.parametrize("key_type", list(_KEY_VALUES))
def test_switch_empty_right_side(route, key_type):
    from dupers_ray.pipelines.joins import lookup_join
    from dupers_ray.pipelines.maintenance import anti_join_auto, membership_flags

    left, right = _switch_tables(key_type)
    empty = right.slice(0, 0)
    for r in (rd.from_arrow(empty), empty):
        assert _rows(anti_join_auto(rd.from_arrow(left), r, key_col="k",
                                    right_key_col="rk")) == _rows(left)
        assert _rows(anti_join_auto(rd.from_arrow(left), r, key_col="k",
                                    right_key_col="rk", semi=True)) == []
        flags = membership_flags(rd.from_arrow(left), r, key_col="k",
                                 right_key_col="rk")
        assert [f for *_, f in _rows(flags)] == [False] * left.num_rows
        assert _rows(lookup_join(rd.from_arrow(left), r, on="k",
                                 right_on="rk")) == []
        got = lookup_join(rd.from_arrow(left), r, on="k", right_on="rk",
                          how="left")
        assert _rows(got) == _sorted((k, lv, None) for k, lv in _rows(left))


# -- the pair gather (joins.map_pairs) ---------------------------------------

# (pair end type, key type, key values): int32 ends exercise the cast
_PAIR_KEYS = {
    "int64": (pa.int32(), pa.int64(), [0, 5, -4, 7, 2]),
    "uint64": (pa.uint64(), pa.uint64(), [0, 5, _BIG, 2**63, 2]),
}


def _pair_tables(key_type: str):
    end_t, key_t, k = _PAIR_KEYS[key_type]
    # k[1] twice (fan-out), k[4] missing
    rows = pa.table({"key": pa.array([k[0], k[1], k[2], k[3], k[1]], key_t),
                     "v": ["r0", "r1", "r2", "r3", "r1b"]})
    # a duplicate pair row (1, 2), a missing end (3) and a null end (6)
    pairs = pa.table({
        "x": pa.array([k[0], k[1], k[1], k[4], k[3], k[2], None], end_t),
        "y": pa.array([k[1], k[2], k[2], k[0], k[3], k[0], k[0]], end_t),
        "tag": pa.array(range(7), pa.int64()),
    })
    return pairs, rows


def _gather_fn():
    """The per-batch fn under test (nested, so Ray ships it by value)."""
    def fn(p: pa.Table, a: pa.Table, b: pa.Table) -> pa.Table:
        return p.append_column("va", a.column("v")).append_column(
            "vb", b.column("v"))

    return fn


def _double_join(pairs: pa.Table, rows: pa.Table) -> list[tuple]:
    """Driver-side ``pairs ⋈ rows ON x ⋈ rows ON y`` fed to the same fn."""
    kt = rows.schema.field("key").type
    j = pa.table({"x": pairs.column("x").cast(kt),
                  "y": pairs.column("y").cast(kt),
                  "tag": pairs.column("tag")})
    for end, v in (("x", "va"), ("y", "vb")):
        j = j.join(rows.rename_columns(["__k", v]), keys=end,
                   right_keys="__k", join_type="inner")
    return _rows(_gather_fn()(j.select(["x", "y", "tag"]),
                            j.select(["va"]).rename_columns(["v"]),
                            j.select(["vb"]).rename_columns(["v"])))


@pytest.mark.parametrize("key_type", list(_PAIR_KEYS))
def test_map_pairs_matches_pyarrow_double_join(route, request, key_type):
    from dupers_ray.pipelines.joins import map_pairs

    pairs, rows = _pair_tables(key_type)
    exp = _double_join(pairs, rows)
    # fan-out doubles pairs 0-2, pair 2 repeats pair 1, pairs 3 and 6 drop
    assert len(exp) == 8
    for pdata, rdata in _switch_layouts(pairs, rows):
        got = map_pairs(pdata, rdata, _gather_fn(), ends=("x", "y"),
                        key="key")
        assert _rows(got) == exp
    route_name = request.node.callspec.params["route"]
    assert route["pair"] == (0 if route_name == "broadcast" else 6)


@pytest.mark.parametrize("key_type", list(_PAIR_KEYS))
def test_map_pairs_empty_sides(route, key_type):
    from dupers_ray.pipelines.joins import map_pairs

    pairs, rows = _pair_tables(key_type)
    got = map_pairs(rd.from_arrow(pairs.slice(0, 0)), rd.from_arrow(rows),
                    _gather_fn(), ends=("x", "y"), key="key")
    assert _rows(got) == []
    # no rows: nothing matches, but fn still runs and fixes the schema
    got = _blocks_concat(map_pairs(
        rd.from_arrow(pairs), rd.from_arrow(rows.slice(0, 0)), _gather_fn(),
        ends=("x", "y"), key="key"))
    assert got.num_rows == 0
    assert got.column_names == ["x", "y", "tag", "va", "vb"]


# -- Arrow-only group functions -----------------------------------------------

def test_empty_group_outputs_are_typed_and_size_without_errors(caplog):
    """Group functions hand Ray typed Arrow tables also with 0 rows: a
    0-row string column stays ``string`` (never Arrow ``null``) and Ray's
    block size estimate logs no `Error calculating size`."""
    import logging

    from ray.data.block import BlockAccessor

    from dupers_ray.pipelines.exact_dedup import _group_pairs
    from dupers_ray.pipelines.overlap import _pair_rows
    from dupers_ray.pipelines.tiers import _non_min_members

    one = pa.table({"url": ["u"], "digest": ["d"], "source": ["s"],
                    "n": pa.array([1], pa.int64()),
                    "cluster_id": pa.array([7], pa.uint64())})
    site_fns = {  # output column -> the group function that emits it
        "match_url": lambda g: _group_pairs(g, "url"),  # report, CLI
        "source_a": lambda g: _pair_rows(g, "source"),  # overlap
        "tier": lambda g: _non_min_members(  # tiers near / semantic
            g, id_col="url", out_col="url", label="near"),
    }
    ray_log = logging.getLogger("ray.data")
    ray_log.addHandler(caplog.handler)  # Ray's loggers do not propagate
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            for col, fn in site_fns.items():
                for group in (one.slice(0, 0), one):  # one doc: no pair
                    out = fn(group)
                    assert isinstance(out, pa.Table) and out.num_rows == 0
                    assert out.schema.field(col).type == pa.string()
                    BlockAccessor.for_block(out).size_bytes()
    finally:
        ray_log.removeHandler(caplog.handler)
    assert not [r for r in caplog.records
                if "Error calculating size" in r.getMessage()]


def _contract_docs() -> pa.Table:
    base = " ".join(f"alpha{i}" for i in range(60))
    other = " ".join(f"beta{i}" for i in range(60))
    texts = [base, base, base + " tail", other, other.upper(),
             other + ".", "", "gamma delta epsilon zeta eta theta iota"]
    n = len(texts)
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "url": pa.array([f"http://h{i % 2}.example/p{i}" for i in range(n)]),
        "text": pa.array(texts),
        "source": pa.array([f"s{i % 3}" for i in range(n)]),
        "host": pa.array([f"h{i % 3}.example" for i in range(n)]),
    })


def _contract_events() -> pa.Table:
    base = 1_700_000_000_000_000
    ts = base + np.array([0, 60, 90_000, 5, 7, 200_000, 10, 400_000]) \
        * 1_000_000
    return pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2, 2, 3, 3], pa.int64()),
        "event_type": pa.array(["signup", "view", "click", "signup",
                                "view", "purchase", "view", "signup"]),
    })


def _contract_sites() -> dict:
    """Every operator whose partition functions run through
    ``keyed_partition_map_groups``, on small inputs of its real schema."""
    from dupers_ray.functions.grouping import partitioned_aggregate
    from dupers_ray.pipelines import (
        decontam,
        diff,
        events,
        exact_dedup,
        maintenance,
        near_dedup,
        overlap,
        tiers,
        urls,
        venn,
    )
    from dupers_ray.stages import (
        budget,
        embed,
        filters,
        linkgraph,
        simhash,
        sketch,
        videohash,
    )
    from dupers_ray.synth import synth_doc_videos

    docs = rd.from_arrow(_contract_docs())
    ev = rd.from_arrow(_contract_events())
    u64 = pa.uint64()
    return {
        "exact_dupe_pairs": lambda: exact_dedup.exact_dupe_pairs(docs),
        "exact_canonical": lambda: exact_dedup.exact_canonical(
            docs, keep_cols=["source"]),
        "soft_dedup_weights": lambda: exact_dedup.soft_dedup_weights(docs),
        "exact_assign": lambda: diff.exact_assign(docs),
        "sessionize": lambda: events.sessionize(ev),
        "window_distinct": lambda: events.window_distinct(ev),
        "cohort_retention": lambda: events.cohort_retention(ev),
        "funnel_counts": lambda: events.funnel_counts(ev, within="7d"),
        "latest_per_key": lambda: maintenance.latest_per_key(
            docs, key_col="source", order_col="doc_id", tie_col="url"),
        "distinct_pairs": lambda: near_dedup._distinct_pairs(rd.from_arrow(
            pa.table({"src": pa.array([1, 1, 2], u64),
                      "dst": pa.array([3, 3, 4], u64)}))),
        "source_overlap": lambda: overlap.source_overlap(docs),
        "near_source_overlap": lambda: overlap.near_source_overlap(docs),
        "mirror_clusters": lambda: overlap.mirror_clusters(
            docs, min_jaccard=0.0),
        "dedup_tiers": lambda: tiers.dedup_tiers(docs),
        "revisit_collapse": lambda: urls.revisit_collapse(rd.from_arrow(
            pa.table({"url": ["a", "a", "a", "b"],
                      "ts": pa.array([1, 2, 3, 1], pa.int64()),
                      "digest": pa.array([9, 9, 8, 9], u64)}))),
        "dedup_method_venn": lambda: venn.dedup_method_venn(docs),
        "packed_windows": lambda: budget.packed_windows(docs, seq_len=8),
        "topk_cosine": lambda: embed.topk_cosine(
            rd.from_arrow(pa.table({
                "vec_id": pa.array(np.arange(6), pa.int64()),
                "embedding": pa.array(
                    [[1.0, float(i)] for i in range(6)],
                    pa.list_(pa.float32()))})),
            np.array([[1.0, 0.0], [0.0, 1.0]], np.float32), k=2),
        "top_per_group": lambda: filters.top_per_group(
            docs, group_col="source", by=[("doc_id", False)], n=2),
        "anchor_profiles": lambda: linkgraph.anchor_profiles(rd.from_arrow(
            pa.table({"dst_host": ["a", "a", "b"], "anchor": ["x", "x", "y"]}))),
        "hamming_pairs": lambda: simhash.hamming_pairs_from_sigs(
            rd.from_arrow(pa.table({
                "node": pa.array([1, 2, 3], u64),
                "simhash": pa.array([0, 1, 2**63], u64)}))),
        "grouped_quantiles_disc": lambda: sketch.grouped_quantiles_disc(
            docs.map_batches(lambda t: pa.table({
                "source": t.column("source"),
                "len": pc.utf8_length(t.column("text")).cast(pa.int64())}),
                batch_format="pyarrow"),
            group_col="source", value_col="len"),
        "video_dup_clusters": lambda: videohash.video_dup_clusters(
            rd.from_arrow(synth_doc_videos(
                _contract_docs().slice(0, 4).select(["doc_id", "text"]))),
            id_col="doc_id", concurrency=1),
        "near_decontaminate_join": lambda: decontam.near_decontaminate(
            docs.select_columns(["doc_id", "text"]),
            docs.select_columns(["doc_id", "text"]).limit(2),
            strategy="join"),
        "partitioned_aggregate": lambda: partitioned_aggregate(
            docs, "source", sums=("doc_id",), mins=("url",), maxs=("text",)),
    }


@pytest.mark.parametrize("site", sorted(_contract_sites()))
def test_group_fn_output_schema_does_not_depend_on_rows(site, monkeypatch):
    """The empty-output contract: every partition function of ``site``
    returns the same schema on a 0-row table as on a non-empty table of
    its real input schema (recorded at the grouping layer)."""
    from dupers_ray.functions import grouping

    real = grouping.coalesced_map_groups
    calls = []

    def spy(ds, key, fn):
        ds = ds.materialize()
        calls.append((ds, fn))
        return real(ds, key, fn)

    monkeypatch.setattr(grouping, "coalesced_map_groups", spy)
    out = _contract_sites()[site]()
    if not isinstance(out, pa.Table):
        out.materialize()
    assert calls
    for ds, fn in calls:
        t = grouping.to_arrow_table(ds)
        assert t.num_rows
        full, empty = fn(t), fn(t.slice(0, 0))
        assert isinstance(full, pa.Table) and isinstance(empty, pa.Table)
        assert empty.schema.equals(full.schema), (site, empty.schema,
                                                  full.schema)


def test_partitioned_aggregate_null_key_and_all_null_sum():
    from dupers_ray.functions.grouping import partitioned_aggregate

    t = pa.table({"k": pa.array([1, None, None, 2, 2], pa.int64()),
                  "v": pa.array([None, 3, 4, 5, None], pa.int64())})
    got = _rows(partitioned_aggregate(rd.from_arrow(_shredded(t)), "k",
                                      sums=("v",), num_partitions=4))
    assert got == [(None, 7), (1, 0), (2, 5)]


def test_counts_by_bucket_skips_null_buckets():
    """A null bucket counts nowhere (the pandas groupby the per-batch
    partial replaced dropped it); a bucket whose sizes are all null sums
    to 0."""
    from dupers_ray.pipelines.maintenance import counts_by_bucket

    t = pa.table({"b": pa.array(["x", None, "y", "x", None, "z"]),
                  "s": pa.array([1, 2, None, 4, 5, 6], pa.int64())})
    got = counts_by_bucket(rd.from_arrow(_shredded(t)), bucket_col="b",
                           size_col="s")
    assert _rows(got) == [("x", 2, 5), ("y", 1, 0), ("z", 1, 6)]
    assert _rows(counts_by_bucket(rd.from_arrow(t), bucket_col="b")) == [
        ("x", 2), ("y", 1), ("z", 1)]


def test_small_keyed_group_map_emits_no_schema_less_block():
    """A handful of rows under the default 256-way partitioning: every
    output block keeps the schema, none is an empty range of the sort."""
    t = pa.table({"k": [3, 14, 15, 92, 65, 35], "v": [1, 2, 3, 4, 5, 6]})
    out = keyed_partition_map_groups(rd.from_arrow(t), "k", lambda g: g)
    blocks = ray.get(out.to_arrow_refs())
    assert all(b.schema.names == ["k", "v"] for b in blocks), \
        [b.schema.names for b in blocks]
    assert _rows(pa.concat_tables(blocks)) == _rows(t)


@pytest.fixture
def exchange_only(force_exchange):
    calls = force_exchange()
    yield
    assert calls["exchange"], "the exchange never ran"


@pytest.mark.usefixtures("exchange_only")
class TestSortExchange:
    """The layout tests above, rerun with ``LOCAL_GROUP_BYTES = 0``: every
    group map goes through the exchange, whose layout they pin (typed
    blocks, no schema-less empty block)."""

    test_coalesced_map_groups_exact = staticmethod(
        test_coalesced_map_groups_exact)
    test_keyed_partition_map_groups_reduces_every_key_once = staticmethod(
        test_keyed_partition_map_groups_reduces_every_key_once)
    test_cogroup_join_layout_independent = staticmethod(
        test_cogroup_join_layout_independent)
    test_anti_join_shuffle_layout_independent = staticmethod(
        test_anti_join_shuffle_layout_independent)
    test_single_key_group_map_emits_typed_blocks = staticmethod(
        test_single_key_group_map_emits_typed_blocks)
    test_small_keyed_group_map_emits_no_schema_less_block = staticmethod(
        test_small_keyed_group_map_emits_no_schema_less_block)


def _fused_projection(n: int = 300) -> pa.Table:
    """``tiers._resolve_exact_norm``'s input: raw digests nest inside
    normalized digests, some texts and normalizations empty."""
    i = np.arange(n)
    digest = (i * 7919 % 50).astype(np.uint64)
    norm = digest % np.uint64(20)
    return pa.table({
        "doc_id": pa.array(i[::-1].copy(), pa.int64()),
        "digest_u64": digest, "digest_u64b": digest + np.uint64(1),
        "norm_u64": norm, "norm_u64b": norm * np.uint64(3),
        "txt_empty": i % 37 == 0, "norm_empty": i % 41 == 0,
    })


def _route_cases() -> dict:
    from dupers_ray.pipelines.tiers import _resolve_exact_norm

    fused = _fused_projection()
    nulls = pa.table({"k": pa.array([1, None, None, 2, 2, 3], pa.int64()),
                      "v": pa.array([None, 3, 4, 5, None, None], pa.int64())})
    strings = pa.table({"k": ["a", None, "b", "b", None, "c"] * 20,
                        "v": np.arange(120)})
    right = pa.table({"id": pa.array([0, 0, 3, 3, 3, 9, 40], pa.int64()),
                      "rv": pa.array(np.arange(7) + 100, pa.int64())})

    def split(t: pa.Table) -> "rd.Dataset":
        return rd.from_arrow([t.slice(i, 40) for i in range(0, t.num_rows, 40)])

    return {
        "resolve_exact_norm": lambda: keyed_partition_map_groups(
            split(fused), "norm_u64",
            partial(_resolve_exact_norm, id_col="doc_id"), num_partitions=64),
        "aggregate_null_key": lambda: partitioned_aggregate(
            rd.from_arrow(_shredded(nulls)), "k", sums=("v",),
            num_partitions=4),
        "null_string_key": lambda: coalesced_map_groups(
            split(strings), "k", lambda g: pa.table({
                "k": g.column("k")[:1],
                "n": pa.array([g.num_rows], pa.int64())})),
        "join_inner": lambda: cogroup_join(
            rd.from_arrow(_LEFT), rd.from_arrow(_shredded(right)), on="id"),
        "join_left": lambda: cogroup_join(
            rd.from_arrow(_LEFT), rd.from_arrow(_shredded(right)), on="id",
            how="left"),
    }


@pytest.mark.parametrize("case", sorted(_route_cases()))
def test_group_routes_agree(case, force_exchange):
    """The one-task route and the exchange return the same row
    multiset."""
    one_task = _rows(_route_cases()[case]())
    assert one_task
    calls = force_exchange()
    assert _rows(_route_cases()[case]()) == one_task
    assert calls["exchange"]


def _skewed_shapes() -> dict:
    rng = np.random.default_rng(0)
    return {
        # a band map's shape: 2000 rows over 252 ids, one id holding most
        "hot_id": np.concatenate([np.full(1749, 7), np.arange(1000, 1251)]),
        # a cluster map's shape: 421 rows over only 12 ids
        "few_ids": rng.integers(0, 12, 421),
    }


@pytest.mark.parametrize("shape", sorted(_skewed_shapes()))
def test_sort_route_emits_no_schema_less_block(shape, force_exchange):
    """Skewed small inputs on the exchange: every output block is typed
    with ``fn``'s schema (a range sort's sampled boundaries left empty
    ranges here, each a schema-less block), and every key is grouped
    exactly once."""
    keys = _skewed_shapes()[shape]
    calls = force_exchange()
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64()),
                                 "v": pa.array(np.arange(len(keys)))})
                       ).repartition(8)

    def f(g: pa.Table) -> pa.Table:
        return pa.table({"k": g.column("k")[:1],
                         "n": pa.array([g.num_rows], pa.int64())})

    out = coalesced_map_groups(ds, "k", f).materialize()
    assert calls["exchange"] == 1
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    assert blocks and all(
        isinstance(b, pa.Table) and b.schema.names == ["k", "n"]
        for b in blocks)
    got = pa.concat_tables(blocks).sort_by("k")
    uniq, n = np.unique(keys, return_counts=True)
    assert got.column("k").to_pylist() == uniq.tolist()
    assert got.column("n").to_pylist() == n.tolist()


def test_one_task_route_empty_input_is_typed():
    """A 0-row input with a schema gives the group function's typed 0-row
    output, not an empty schema-less Dataset."""
    from dupers_ray.pipelines.tiers import _resolve_exact_norm

    out = to_arrow_table(coalesced_map_groups(
        rd.from_arrow(_fused_projection().slice(0, 0)), "norm_u64",
        partial(_resolve_exact_norm, id_col="doc_id")))
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "r_exact", "r_norm"]
    assert out.schema.types == [pa.int64(), pa.bool_(), pa.bool_()]


def test_to_arrow_table_converts_mixed_blocks():
    """A Dataset whose first block is Arrow and second is pandas: the raw
    ``to_arrow_refs`` hands back the pandas frame as is; the helper gives
    one Arrow table of every row."""
    from dupers_ray.functions.grouping import to_arrow_table

    ds = rd.from_arrow(pa.table({"a": [1, 2]})).union(
        rd.from_pandas(pd.DataFrame({"a": [3]})))
    raw = ray.get(ds.to_arrow_refs())
    assert isinstance(raw[0], pa.Table)
    assert any(isinstance(b, pd.DataFrame) for b in raw)
    got = to_arrow_table(ds)
    assert isinstance(got, pa.Table)
    assert sorted(got.column("a").to_pylist()) == [1, 2, 3]
