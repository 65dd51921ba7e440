"""Cross-source duplicate overlap matrix: for every (source_a, source_b)
pair, how many exact-duplicate DOC PAIRS span them.

The reference reports duplicates as a flat listing (print-join,
pkg/dupe/dupe.go:919-931); at web scale the first question about a crawl
is *which feeds duplicate which* — a sources x sources matrix driving
crawl scheduling / source pruning. Engine-new rollup over the same
digest machinery as exact dedup (stages/digest).

Scale shape: per-batch (digest, source, n) combiner rows → ONE
groupby(digest-hash partition) of count rows (vocabulary-of-digests
sized, never the corpus) → per-PARTITION vectorized segment pair
expansion (sorted (digest, source) runs + triangular index arithmetic —
no per-distinct-digest Python call, the failure mode exact_dedup.py's
header rules out) → tiny final groupby((source_a, source_b)).sum.
Pair math: within one source C(n,2), across two sources n_a * n_b.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.functions.pairs import run_starts
from dupers_ray.stages.digest import add_digests, drop_empty

_PARTITIONS = 256


def _pair_rows(t: pa.Table, group_col: str,
               key_col: str = "digest") -> pa.Table:
    """All (i <= j) source pairs per key segment, vectorized, summed per
    (source_a, source_b). ``t`` holds fully-combined (key, source, n)
    rows; they are sorted by (key, source) here so emitted pairs satisfy
    source_a <= source_b (lexicographic — the SQL oracle's comparison)."""
    t = t.sort_by([(key_col, "ascending"), (group_col, "ascending")])
    src = t.column(group_col)
    cnt = t.column("n").to_numpy().astype(np.int64)
    m = t.num_rows
    new = run_starts(t.column(key_col).to_numpy())
    seg = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, m])
    rank = np.arange(m) - starts[seg]
    per_row = sizes[seg] - rank  # pairs where this row is the lower side (incl self)
    total = int(per_row.sum())
    left = np.repeat(np.arange(m), per_row)
    csum = np.r_[0, np.cumsum(per_row)]
    right = np.arange(total) - csum[left] + left
    n = np.where(left == right,
                 cnt[left] * (cnt[left] - 1) // 2,
                 cnt[left] * cnt[right])
    keep = n > 0
    out = pa.table({"source_a": src.take(left[keep]),
                    "source_b": src.take(right[keep]),
                    "n_pairs": n[keep]})
    # per-partition combiner: collapse repeated pairs before the shuffle
    return _sum_by(out, ["source_a", "source_b"], "n_pairs")


def _sum_by(t: pa.Table, keys: "list[str]", col: str) -> pa.Table:
    """``t`` grouped by ``keys`` with ``col`` summed, as (keys..., col)."""
    out = t.group_by(keys).aggregate([(col, "sum")])
    return out.select([*keys, f"{col}_sum"]).rename_columns([*keys, col])


def source_overlap(
    ds: "ray.data.Dataset",
    *,
    content_col: str = "text",
    group_col: str = "source",
    trunc: int | None = None,
) -> "ray.data.Dataset":
    """(source_a, source_b, n_pairs) with source_a <= source_b and
    n_pairs > 0: exact-duplicate doc pairs within/between sources.
    ``trunc`` digests only the first N chars (test corpora have no
    full-text dups; mirrors exact_pairs_trunc)."""

    def combine(t: pa.Table) -> pa.Table:
        t = drop_empty(t, content_col=content_col)
        if trunc is not None:
            t = t.set_column(
                t.schema.get_field_index(content_col), content_col,
                pc.utf8_slice_codeunits(t.column(content_col), 0, trunc),
            )
        t = add_digests(t, content_col=content_col)
        g = (
            t.select(["digest", "digest_u64", group_col])
            .group_by(["digest", "digest_u64", group_col])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["digest", "digest_u64", group_col, "n"])

    parts = ds.select_columns([content_col, group_col]).map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    )

    def per_part(g: pa.Table) -> pa.Table:
        # fold cross-batch partials for this digest-hash partition, then
        # one vectorized pair expansion over the sorted runs
        return _pair_rows(_sum_by(g, ["digest", group_col], "n"), group_col)

    pair_parts = keyed_partition_map_groups(
        parts, "digest_u64", per_part, num_partitions=_PARTITIONS
    )
    final = pair_parts.groupby(["source_a", "source_b"]).sum("n_pairs")
    return final.map_batches(
        lambda t: t.rename_columns(["source_a", "source_b", "n_pairs"]),
        batch_format="pyarrow",
    )


def near_source_overlap(
    ds: "ray.data.Dataset",
    cfg=None,
    *,
    id_col: str = "doc_id",
    content_col: str = "text",
    group_col: str = "source",
) -> "ray.data.Dataset":
    """(source_a, source_b, n_pairs) at NEAR-dup granularity: doc pairs
    sharing a flagship MinHash cluster, counted within/between sources —
    the provenance question behind crawl scheduling ("which feeds
    near-duplicate which"), one level fuzzier than :func:`source_overlap`.

    Scale shape: the flagship produces (id, cluster_id); ONE id-hash
    cogroup join attaches the source label; a per-batch
    (cluster, source, n) combiner + cluster-hash partition groupby feed
    the same vectorized triangular pair expansion as the exact matrix.
    Cluster-id keys are uint64 — reinterpreted int64 for the shuffle."""
    import dataclasses

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.pipelines.joins import cogroup_join

    cfg = cfg or DedupConfig()
    if cfg.id_col != id_col:
        cfg = dataclasses.replace(cfg, id_col=id_col)
    clusters = dupe_clusters(
        ds.select_columns([id_col, content_col]), cfg
    )
    labeled = cogroup_join(
        clusters, ds.select_columns([id_col, group_col]), on=id_col,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("cluster_id", pa.uint64())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                (group_col, pa.string())]),
    )

    def combine(t: pa.Table) -> pa.Table:
        g = (
            t.select(["cluster_id", group_col])
            .group_by(["cluster_id", group_col])
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["cluster_id", group_col, "n"])
        key = np.asarray(g.column("cluster_id"), dtype=np.uint64)
        return pa.table({
            # int64 view: uint64 groupby keys above 2^63 hit Ray's
            # pickled-object path (BASELINE.md notes)
            "cluster": pa.array(key.view(np.int64)),
            group_col: g.column(group_col),
            "n": g.column("n").cast(pa.int64()),
        })

    parts = labeled.map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    )

    def per_part(g: pa.Table) -> pa.Table:
        return _pair_rows(_sum_by(g, ["cluster", group_col], "n"), group_col,
                          key_col="cluster")

    pair_parts = keyed_partition_map_groups(
        parts, "cluster", per_part, num_partitions=_PARTITIONS
    )
    final = pair_parts.groupby(["source_a", "source_b"]).sum("n_pairs")
    return final.map_batches(
        lambda t: t.rename_columns(["source_a", "source_b", "n_pairs"]),
        batch_format="pyarrow",
    )


def mirror_hosts(
    ds: "ray.data.Dataset",
    *,
    host_col: str = "host",
    content_col: str = "text",
    min_jaccard: float = 0.5,
    max_hosts_per_digest: int = 256,
) -> "ray.data.Dataset":
    """Mirror-site detection: host pairs whose DISTINCT content-digest
    sets overlap with exact Jaccard >= ``min_jaccard`` — the classic
    web-crawl question (Bharat & Broder 1999, "Mirror, mirror on the
    web"; public literature) the reference's whole-file dedup can't ask.
    Output: (host_a, host_b, n_inter, n_a, n_b, jaccard), host_a <
    host_b, EXACT values (set semantics, not pair counts — that's
    :func:`source_overlap`).

    Scale shape: per-batch distinct (digest, host) combiner → ONE
    digest-hash shuffle of those rows; each partition holds every copy
    of its digests, so the global distinct, the per-host partial set
    sizes, and the per-digest host-pair expansion are all exact there.
    Hot digests (one page served by thousands of hosts) are capped at
    ``max_hosts_per_digest`` with a logged drop count — never silently.
    Host set sizes are host-cardinality-bounded rows (the PageRank
    rank-vector regime, like linkgraph.py) collected once and broadcast
    into the jaccard finisher; intersection counts never leave the
    shuffle as more than one row per co-hosting pair per partition.
    """
    import logging

    import ray

    logger = logging.getLogger(__name__)

    def combine(t: pa.Table) -> pa.Table:
        t = drop_empty(t, content_col=content_col)
        t = add_digests(t, content_col=content_col)
        g = (
            t.select(["digest", "digest_u64", host_col])
            .group_by(["digest", "digest_u64", host_col])
            .aggregate([])
        )
        return g

    parts = ds.select_columns([content_col, host_col]).map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    )

    def per_part(g: pa.Table) -> pa.Table:
        # global distinct for this digest partition (cross-batch copies)
        g = g.group_by(["digest", host_col]).aggregate([]).sort_by(
            [("digest", "ascending"), (host_col, "ascending")])
        sizes = g.group_by(host_col).aggregate([([], "count_all")])
        size_rows = pa.table({
            "host_a": sizes.column(host_col),
            "host_b": pa.array([""] * sizes.num_rows, pa.string()),
            "n": sizes.column("count_all"),
        })
        new = run_starts(g.column("digest").to_numpy())
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        sizes_seg = np.diff(np.r_[starts, g.num_rows])
        hot = sizes_seg > max_hosts_per_digest
        if hot.any():
            logger.warning(
                "mirror_hosts: %d hot digests capped at %d hosts (max %d)",
                int(hot.sum()), max_hosts_per_digest, int(sizes_seg.max()),
            )
            rank = np.arange(g.num_rows) - starts[seg]
            g = g.filter(pa.array(rank < max_hosts_per_digest))
        pairs = _pair_rows(
            g.append_column("n", pa.array(np.ones(g.num_rows, np.int64))),
            host_col,
        ).rename_columns(["host_a", "host_b", "n"])
        return pa.concat_tables([size_rows, pairs])

    def fold_pairs(g: pa.Table) -> pa.Table:
        return _sum_by(g, ["host_a", "host_b"], "n")

    # the pair fold partitions on the int hash of (host_a, host_b): Ray
    # groupby on STRING keys is a global sort (measured 27.6 s -> ~7 s at
    # 600 k pages x 500 hosts)
    agg = keyed_partition_map_groups(
        keyed_partition_map_groups(
            parts, "digest_u64", per_part, num_partitions=_PARTITIONS
        ),
        ["host_a", "host_b"], fold_pairs, num_partitions=_PARTITIONS,
    ).materialize()  # consumed twice: size extraction + pair finish

    sizes = {
        r["host_a"]: int(r["n"])
        for r in agg.filter(lambda r: r["host_b"] == "").take_all()
    }
    sref = ray.put(sizes)

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("host_b"), ""))
        sz = ray.get(sref)
        a = t.column("host_a").to_pylist()
        b = t.column("host_b").to_pylist()
        inter = np.asarray(t.column("n"), dtype=np.int64)
        na = np.array([sz[h] for h in a], np.int64)
        nb = np.array([sz[h] for h in b], np.int64)
        jac = inter / (na + nb - inter)
        keep = jac >= min_jaccard
        return pa.table({
            "host_a": pa.array(np.asarray(a, object)[keep].tolist(),
                               pa.string()),
            "host_b": pa.array(np.asarray(b, object)[keep].tolist(),
                               pa.string()),
            "n_inter": pa.array(inter[keep]),
            "n_a": pa.array(na[keep]),
            "n_b": pa.array(nb[keep]),
            "jaccard": pa.array(jac[keep]),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def mirror_clusters(
    ds: "ray.data.Dataset",
    *,
    host_col: str = "host",
    content_col: str = "text",
    min_jaccard: float = 0.5,
    max_hosts_per_digest: int = 256,
) -> "ray.data.Dataset":
    """Site clusters: connected components over the :func:`mirror_hosts`
    graph — "these N hosts are one site" (the transitive closure Bharat
    & Broder run after pairwise detection). Output per host:

    (host, cluster_id)   cluster_id = min sha256-u64 node id of the
                         host's component; singleton hosts keep their
                         own node id.

    Scale shape: the pair graph is host-cardinality-bounded (the
    rank-vector regime mirror_hosts already assumes), so components
    resolves driver-side up to ``components.DRIVER_EDGES`` edges and
    falls back to the Kiveris star-contraction path above it; the final
    labeling is one broadcast-dict pass over the distinct-host rows."""
    import ray

    from dupers_ray.functions.hashing import node_ids
    from dupers_ray.pipelines.components import components

    pairs = mirror_hosts(
        ds, host_col=host_col, content_col=content_col,
        min_jaccard=min_jaccard, max_hosts_per_digest=max_hosts_per_digest,
    ).materialize()

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.array(node_ids(t.column("host_a").to_pylist())),
            "dst": pa.array(node_ids(t.column("host_b").to_pylist())),
        })

    assign = components(pairs.map_batches(to_edges, batch_format="pyarrow"))
    if isinstance(assign, pa.Table):  # driver strategy
        label = {int(n): int(c)
                 for n, c in zip(assign.column("node").to_pylist(),
                                 assign.column("cluster_id").to_pylist())}
    else:  # distributed strategy — label map is host-bounded either way
        label = {int(r["node"]): int(r["cluster_id"])
                 for r in assign.take_all()}
    lref = ray.put(label)

    # distinct hosts: per-batch distinct -> host-hash partition -> distinct
    def distinct_hosts(t: pa.Table) -> pa.Table:
        return t.select([host_col]).group_by(host_col).aggregate([])

    def finish(g: pa.Table) -> pa.Table:
        hosts = pc.unique(g.column(host_col))
        lbl = ray.get(lref)
        return pa.table({
            host_col: hosts,
            "cluster_id": pa.array(
                [lbl.get(int(n), int(n)) for n in node_ids(hosts.to_pylist())],
                pa.uint64()),
        })

    return keyed_partition_map_groups(
        ds.select_columns([host_col]).map_batches(
            distinct_hosts, batch_format="pyarrow", zero_copy_batch=True
        ),
        host_col, finish, num_partitions=64,
    )
