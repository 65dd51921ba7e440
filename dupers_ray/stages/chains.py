"""Redirect / canonical-chain resolution via distributed pointer
doubling.

Crawl pipelines accumulate (url → redirect/canonical target) edges and
need every url resolved to its FINAL target before dedup or ranking —
chains (a → b → c → root) must collapse, and walking them one hop per
pass is O(L) passes. Pointer doubling (the classic parallel
list-ranking technique, e.g. Wyllie 1979 — the same family as the
large-star/small-star rounds in pipelines/components.py) squares the
jump length each round: after r rounds every node points at its
ancestor at distance min(2^r, d), so ceil(log2 L) rounds resolve any
chain of length L.

Ray shape: the state table (id, ptr, dist) self-joins each round
through the cogroup hash join (pipelines/joins.py — the engine's
deadlock-free join), keyed on the integer id. Each round is ONE
shuffle of 24 B rows; dist accumulates path length exactly (root
self-loops contribute 0), so the output carries both the resolved
root and the hop count. No driver-side state at any size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

_STATE = [("id", pa.int64()), ("ptr", pa.int64()), ("dist", pa.int64())]


def resolve_pointers(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "id",
    ptr_col: str = "ptr",
    rounds: int = 16,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """(id, root, hops) for every row of an (id, ptr) edge table; nodes
    whose ptr == id are roots (hops 0). ``rounds`` bounds resolvable
    chain length at 2**rounds — the default 16 covers 65k-deep chains
    (real redirect chains are < 10; browsers cap at ~20).

    Redirect CYCLES (a → b → a — real crawl data has them) never
    crash or hang: rounds is a hard bound and the output deterministic.
    A cycle member's hops lands at exactly 2**rounds and KEEPS DOUBLING
    with extra rounds, while a resolved node's (root, hops) is a fixed
    point — so running one extra round and comparing hops disambiguates
    cycles from genuinely 2**rounds-deep chains (pytest-pinned)."""
    import pyarrow.compute as pc

    from dupers_ray.pipelines.joins import cogroup_join

    def init(t: pa.Table) -> pa.Table:
        i = t.column(id_col).cast(pa.int64())
        p = t.column(ptr_col).cast(pa.int64())
        return pa.table({
            "id": i,
            "ptr": p,
            "dist": pc.cast(pc.not_equal(i, p), pa.int64()),
        })

    state = ds.map_batches(init, batch_format="pyarrow", zero_copy_batch=True)
    state_schema = pa.schema(_STATE)
    right_schema = pa.schema(
        [("rid", pa.int64()), ("rptr", pa.int64()), ("rdist", pa.int64())]
    )

    # Each round consumes `state` TWICE (probe + build side of the
    # self-join), so it MUST be materialized per round: left lazy, the
    # plan doubles per round (2**rounds copies of the whole upstream
    # DAG — rounds=16 would fuse 65k ReadParquet branches into one
    # executor graph).  The state table is 24 B/row and bounded by the
    # node count, the canonical iterative-algorithm checkpoint.  A
    # fixed point (no ptr/dist movement — only possible when every
    # chain is resolved; cycle members keep doubling dist) ends the
    # loop early, so the 16-round bound costs nothing on real <10-hop
    # redirect data.
    prev_sig: tuple[int, int] | None = None
    for _ in range(rounds):
        right = state.map_batches(
            lambda t: t.rename_columns(["rid", "rptr", "rdist"]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        joined = cogroup_join(
            state, right, on="ptr", right_on="rid",
            num_partitions=num_partitions,
            left_schema=state_schema, right_schema=right_schema,
        )

        def jump(t: pa.Table) -> pa.Table:
            return pa.table({
                "id": t.column("id"),
                "ptr": t.column("rptr"),
                "dist": pc.add(t.column("dist"), t.column("rdist")),
            })

        state = joined.map_batches(
            jump, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
        sig = (int(state.sum("ptr") or 0), int(state.sum("dist") or 0))
        if sig == prev_sig:
            break
        prev_sig = sig

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "id": t.column("id"),
            "root": t.column("ptr"),
            "hops": t.column("dist"),
        })

    return state.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True)
