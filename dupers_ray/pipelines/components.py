"""Connected components over the verified near-dup edge list.

No native Ray Data primitive exists (SURVEY.md §7.4); two strategies:

- ``driver``: union-find with path compression on the driver. Edges are
  streamed in via iter_batches (never a full to_pandas of the corpus —
  only the EDGE list, which is orders of magnitude smaller than the input).
  Right choice while |edges| fits driver memory: at most
  :data:`DRIVER_EDGES` edges.
- ``distributed``: alternating large-star / small-star rounds (Kiveris
  et al., "Connected Components in MapReduce and Beyond", SoCC 2014) —
  two edge-scale groupby shuffles per round, O(log^2 n) rounds regardless
  of diameter, converging to one (node, component-min) star per
  component. Convergence is detected by comparing consecutive rounds'
  edge multisets via a counter actor (no extra Dataset execution).

:func:`components` counts edges first and picks; the two are called
directly where a caller needs one of them.
Output: (node: uint64, cluster_id: uint64 = min node id in component).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import keyed_partition_map_groups


logger = logging.getLogger(__name__)

# Edge limit of the driver union-find. Read at call time, so one
# assignment moves the switch.
DRIVER_EDGES = 2_000_000


# ------------------------------------------------------------------ driver UF

class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra > rb:  # min id wins as root → cluster_id = min node deterministic
            ra, rb = rb, ra
        self.parent[rb] = ra


def components_driver(edges: "ray.data.Dataset") -> pa.Table:
    """Union-find on the driver over a streamed edge list. Edges are
    vectorized-deduped per batch chunk before the Python union loop —
    candidate streams commonly carry heavy cross-band duplication."""
    uf = _UnionFind()
    seen: set[int] = set()
    for batch in edges.select_columns(["src", "dst"]).iter_batches(
        batch_size=1 << 20, batch_format="pyarrow"
    ):
        s = np.asarray(batch.column("src"), dtype=np.uint64)
        d = np.asarray(batch.column("dst"), dtype=np.uint64)
        with np.errstate(over="ignore"):
            key = s * np.uint64(0x100000001B3) + d
        _, first = np.unique(key, return_index=True)
        s, d = s[first], d[first]
        seen.update(s.tolist())
        seen.update(d.tolist())
        for si, di in zip(s.tolist(), d.tolist()):
            uf.union(si, di)
    nodes = sorted(seen)
    return pa.table(
        {
            "node": pa.array(np.array(nodes, dtype=np.uint64)),
            "cluster_id": pa.array(
                np.array([uf.find(n) for n in nodes], dtype=np.uint64)
            ),
        }
    )


# --------------------------------------------- distributed large/small-star

def _sever(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Materialize AND cut driver-side lineage: in this Ray release,
    ``Dataset.materialize()`` keeps accumulating plan/stats state across
    iterative rounds — measured ~1.6x slowdown PER ROUND at constant rows
    and block counts. Rebuilding the dataset from its block refs keeps
    every round O(1). (to_arrow_refs executes the pipeline.)"""
    return ray.data.from_arrow_refs(ds.to_arrow_refs())


@ray.remote(num_cpus=0)
class _RoundStats:
    """Per-round (edge count, multiset checksum) tally, fed synchronously
    from inside the reduce groups — convergence is detected by comparing
    consecutive rounds' edge multisets, with no extra Dataset execution.
    Task retries could double-add; that only makes two consecutive rounds
    compare unequal and costs one extra (idempotent) round."""

    def __init__(self):
        self._n: dict[int, int] = {}
        self._chk: dict[int, int] = {}

    def add(self, rnd: int, k: int, chk: int) -> None:
        self._n[rnd] = self._n.get(rnd, 0) + k
        self._chk[rnd] = (self._chk.get(rnd, 0) + chk) % (1 << 64)

    def get(self, rnd: int) -> tuple[int, int]:
        return self._n.get(rnd, 0), self._chk.get(rnd, 0)


def _edge_sort_dedup(u: np.ndarray, v: np.ndarray):
    from dupers_ray.functions.pairs import unique_pairs

    return unique_pairs(u, v)


def _large_star(g: pa.Table) -> pa.Table:
    """Kiveris et al., "Connected Components in MapReduce and Beyond"
    (SoCC 2014) large-star: per node x, connect every STRICTLY LARGER
    neighbor to m = min(N(x) + {x}). Input rows are (u=x, v=neighbor),
    both directions present. Vectorized with sort + reduceat."""
    u = np.asarray(g.column("u"), np.uint64)
    v = np.asarray(g.column("v"), np.uint64)
    u, v = _edge_sort_dedup(u, v)
    if not len(u):
        return pa.table({"u": pa.array([], pa.uint64()), "v": pa.array([], pa.uint64())})
    new = np.r_[True, u[1:] != u[:-1]]
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    m = np.minimum(np.minimum.reduceat(v, starts), u[starts])
    mask = v > u  # larger neighbors re-hook to m (m <= x < v, so no self-edge)
    return pa.table({"u": pa.array(v[mask]), "v": pa.array(m[seg][mask])})


def _stats_add(stats, rnd: int, k: int, chk: int) -> None:
    """Best-effort synchronous tally. Evicted output blocks can be
    lineage-RECONSTRUCTED long after the round loop finished and the stats
    actor was killed — those re-runs recompute identical edges and their
    tally is no longer needed, so a dead actor is ignored. During the live
    loop the driver's stats.get() would still fail loudly if the actor
    actually died."""
    try:
        ray.get(stats.add.remote(rnd, k, chk))
    except Exception:  # noqa: BLE001 — actor gone post-convergence
        pass


def _make_small_star(stats, rnd: int):
    """small-star: edges arrive directed big->small (u > v); per node u,
    hook u and all its smaller neighbors to m = min(neighbors). Emits the
    per-group edge count + multiset checksum to the stats actor BEFORE
    returning, so the tally is complete when the execution finishes."""

    def _small_star(g: pa.Table) -> pa.Table:
        from dupers_ray.functions.hashing import splitmix64

        u = np.asarray(g.column("u"), np.uint64)
        v = np.asarray(g.column("v"), np.uint64)
        u, v = _edge_sort_dedup(u, v)
        if not len(u):
            _stats_add(stats, rnd, 0, 0)
            return pa.table({"u": pa.array([], pa.uint64()), "v": pa.array([], pa.uint64())})
        new = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        m = np.minimum.reduceat(v, starts)  # all v < u, so min(N+{u}) = min(v)
        keep = v != m[seg]
        out_u = np.concatenate([v[keep], u[starts]])  # smaller nbrs + u itself
        out_v = np.concatenate([m[seg][keep], m])
        with np.errstate(over="ignore"):
            chk = splitmix64(out_u * np.uint64(0x100000001B3) + out_v).sum()
        _stats_add(stats, rnd, int(len(out_u)), int(chk))
        return pa.table({"u": pa.array(out_u), "v": pa.array(out_v)})

    return _small_star


def components_distributed(
    edges: "ray.data.Dataset",
    *,
    num_partitions: int = 64,
    max_rounds: int = 30,
) -> "ray.data.Dataset":
    """Alternating large-star / small-star connected components (Kiveris
    et al., SoCC 2014): provably converges in O(log^2 n) rounds regardless
    of graph diameter — the round-1 min-label-propagation loop advanced one
    hop per round and silently split any component with diameter > rounds
    (round-1 ADVICE item). Each round is two groupby shuffles of EDGE-scale
    data; no joins. Convergence = two consecutive rounds produce the same
    edge multiset (count + order-independent checksum, collision odds
    ~2^-64), after which the edge set is a star per component: (node,
    component-min) rows.

    Exiting non-converged is an ERROR: the partial star edges would split
    components, and silently wrong clusters are worse than a late
    failure."""
    # canonical node set (keeps self-loop-only / isolated-in-E nodes alive
    # for the final assignment)
    def explode(t: pa.Table) -> pa.Table:
        s = np.asarray(t.column("src"), dtype=np.uint64)
        d = np.asarray(t.column("dst"), dtype=np.uint64)
        return pa.table({"u": pa.array(np.concatenate([s, d]))})

    def by_u(ds, fn):
        return keyed_partition_map_groups(
            ds, "u", fn, num_partitions=num_partitions
        )

    nodes = _sever(by_u(
        edges.map_batches(explode, batch_format="pyarrow"),
        lambda g: pa.table(
            {"u": pa.array(np.unique(np.asarray(g.column("u"), np.uint64)))}
        ),
    ))

    def init_edges(t: pa.Table) -> pa.Table:
        s = np.asarray(t.column("src"), dtype=np.uint64)
        d = np.asarray(t.column("dst"), dtype=np.uint64)
        keep = s != d  # self-loops carry no connectivity
        s, d = s[keep], d[keep]
        return pa.table({"u": pa.array(np.maximum(s, d)), "v": pa.array(np.minimum(s, d))})

    E = _sever(edges.map_batches(init_edges, batch_format="pyarrow")
               .repartition(num_partitions))
    stats = _RoundStats.remote()

    def doubled(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("u"), np.uint64)
        v = np.asarray(t.column("v"), np.uint64)
        return pa.table({"u": pa.array(np.concatenate([u, v])),
                         "v": pa.array(np.concatenate([v, u]))})

    prev: tuple[int, int] | None = None
    converged = False
    for rnd in range(max_rounds):
        big = by_u(E.map_batches(doubled, batch_format="pyarrow"), _large_star)
        E = _sever(by_u(big, _make_small_star(stats, rnd)))
        cur = ray.get(stats.get.remote(rnd))
        logger.info("components round %d: %d edges, chk=%d", rnd + 1, *cur)
        if prev is not None and cur == prev:
            converged = True
            break
        prev = cur

    ray.kill(stats)
    if not converged and prev is not None and prev[0] > 0:
        raise RuntimeError(
            f"components_distributed did not converge in {max_rounds} "
            f"rounds — results would split components; raise max_rounds")

    # star edges are (child, root); union with (node, node) self-rows and
    # take the min per node so roots and isolated nodes label themselves
    selfs = nodes.map_batches(
        lambda t: pa.table({"u": t.column("u").cast(pa.uint64()),
                            "v": t.column("u").cast(pa.uint64())}),
        batch_format="pyarrow",
    )

    def assign(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("u"), np.uint64)
        v = np.asarray(g.column("v"), np.uint64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if not len(u):
            return pa.table({"node": pa.array([], pa.uint64()),
                             "cluster_id": pa.array([], pa.uint64())})
        new = np.r_[True, u[1:] != u[:-1]]
        return pa.table({"node": pa.array(u[new]), "cluster_id": pa.array(v[new])})

    return by_u(E.union(selfs), assign)


def components(edges: "ray.data.Dataset"):
    """Dispatch on the edge count against :data:`DRIVER_EDGES` (read at
    call time). Returns a Dataset (distributed) or pyarrow Table
    (driver)."""
    n = edges.count()
    driver = n <= DRIVER_EDGES
    logger.info("components: %d edges → %s strategy", n,
                "driver" if driver else "distributed")
    return components_driver(edges) if driver else \
        components_distributed(edges)
