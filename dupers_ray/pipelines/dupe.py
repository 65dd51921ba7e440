"""Flagship pipeline — the engine's ``dupers dupe`` at web scale.

Logical DAG (SURVEY.md §3.1 "engine shape"):

    read pages → [extract_text → drop html] →
        ONE fused scan: MinHash signature + SHA-256 digest per doc →
        ONE pass over the signature table into the sharded bucket index
        (stages/bucket_index.py): LSH band buckets + exact-digest buckets
        → LSH pairs Jaccard-verified, exact pairs trusted
    → union edge lists → connected components → (url, cluster_id)

Every input row gets a cluster assignment; rows in no dup relation keep
their own node id as cluster_id (singleton cluster). cluster_id is the
minimum node id in the component — the deterministic replacement for the
reference's walk-order "first match" (docs/README.md:198-201).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.config import DedupConfig
from dupers_ray.functions.hashing import node_ids
from dupers_ray.pipelines.components import components
from dupers_ray.pipelines.joins import hash_join


def _url_to_node(batch: pa.Table, *, id_col: str) -> pa.Table:
    ids = [str(v) for v in batch.column(id_col).to_pylist()]
    return pa.table(
        {id_col: batch.column(id_col), "node": pa.array(node_ids(ids))}
    )


def dupe_clusters(
    ds: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    broadcast_limit: int = 5_000_000,
    mapping_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """(id_col, cluster_id) for EVERY input row with non-null id.

    One corpus scan computes signatures + digests; the tail is
    ``dupe_clusters_from_sigs``.

    ``mapping_ds``: optional id-only dataset for the final assignment scan.
    Ray's optimizer does NOT push select_columns into read_parquet, so
    callers that read from parquet should pass
    ``read_parquet(paths, columns=[id_col])`` here (~3x cheaper scan)."""
    from dupers_ray.pipelines.near_dedup import minhash_signatures

    cfg = cfg or DedupConfig()
    sigs = minhash_signatures(
        ds, shingle=cfg.shingle, minhash=cfg.minhash, id_col=cfg.id_col,
        text_col=cfg.text_col, with_digests=True,
    ).materialize()
    return dupe_clusters_from_sigs(
        sigs, cfg,
        broadcast_limit=broadcast_limit,
        mapping_ds=(mapping_ds if mapping_ds is not None
                    else ds.select_columns([cfg.id_col])),
    )


def _edges_from_sigs(
    sigs: "ray.data.Dataset", cfg: DedupConfig,
) -> "ray.data.Dataset":
    """(src, dst) cluster edges from a fused signature table: ONE pass
    feeds the sharded LSH + exact-digest indexes; LSH pairs get
    Jaccard-verified, exact pairs are trusted (2^-128 digest collision).
    The streaming and the checkpointed flagship both build edges here."""
    from dupers_ray.pipelines.near_dedup import verify_pairs
    from dupers_ray.stages.bucket_index import all_candidate_pairs_index

    lsh_pairs, exact_pairs = all_candidate_pairs_index(
        sigs, minhash=cfg.minhash, id_col=cfg.id_col
    )
    near_edges = verify_pairs(lsh_pairs, sigs, minhash=cfg.minhash)
    return near_edges.select_columns(["src", "dst"]).union(exact_pairs)


def dupe_clusters_from_sigs(
    sigs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    broadcast_limit: int = 5_000_000,
    mapping_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """Flagship tail over a PRECOMPUTED fused signature table (the output
    of ``minhash_signatures(..., with_digests=True)``): sharded LSH +
    exact-digest indexes → Jaccard verify → union edges → components →
    cluster assignment.

    Splitting the tail out lets callers reuse stored signatures — the
    incremental `up`-style flow (``dupe_clusters_incremental``) and any
    pipeline that persists the signature table as its index dataset.

    ``mapping_ds``: rows to assign. If it already has a ``node`` column it
    is used as-is; an id-only dataset gets nodes derived per batch; None
    uses the signature table itself (ids with non-empty text)."""
    cfg = cfg or DedupConfig()
    id_col = cfg.id_col

    # materialize the (small) edge list once: components consumes it several
    # times (count for strategy choice + iteration)
    edges = _edges_from_sigs(sigs, cfg).materialize()
    assign = components(edges)

    src = mapping_ds if mapping_ds is not None else sigs
    names = src.schema().names
    if "node" in names:
        mapping = src.select_columns([id_col, "node"])
    else:
        mapping = src.select_columns([id_col]).map_batches(
            _url_to_node, fn_kwargs={"id_col": id_col},
            batch_format="pyarrow", zero_copy_batch=True,
        )
    return assign_clusters(
        mapping, assign, id_col=id_col, broadcast_limit=broadcast_limit
    )


def dupe_clusters_incremental(
    ds: "ray.data.Dataset",
    stored_sigs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    broadcast_limit: int = 5_000_000,
    known_broadcast_limit: int = 5_000_000,
    mapping_ds: "ray.data.Dataset | None" = None,
):
    """Incremental flagship — the near-dup analogue of dupers' walkCompare
    (`up`, pkg/dupe/dupe.go:940-966): docs whose id is already in the
    stored signature index are NOT re-shingled/re-hashed; only fresh docs
    pay the text scan. Clustering then runs over stored ∪ fresh signatures,
    so the result is IDENTICAL to a full recompute (signatures are a pure
    per-doc function of the text).

    At 10^12-doc scale this is the daily-update path: a 1% delta re-hashes
    1% of corpus text; the wide stages downstream touch only the compact
    signature table (~0.3 kB/doc vs ~4 kB of text).

    ``stored_sigs``: dataset with the fused signature schema
    (id, node, sig, n_shingles, digest, digest_u64, digest_u64b).
    The anti-join broadcasts stored ids when the store is small
    (< known_broadcast_limit rows), else hash-partitions — both paths
    identical semantics (pipelines/maintenance.py).

    Returns ``(clusters, sigs)``: the assignment for every mapped row AND
    the updated signature table (callers persist it as the new index)."""
    from dupers_ray.pipelines.maintenance import anti_join_shuffle
    from dupers_ray.pipelines.near_dedup import minhash_signatures

    cfg = cfg or DedupConfig()
    id_col, text_col = cfg.id_col, cfg.text_col

    stored_sigs = stored_sigs.materialize()
    n_known = stored_sigs.count()
    if n_known <= known_broadcast_limit:
        # broadcast the known-id set once (ray.put) and filter with
        # stateless TASKS: this stage sits in front of the full corpus
        # text scan, so an actor-pool filter (bounded concurrency) would
        # cap the scan's parallelism — tasks stay fully elastic
        known_parts = [
            b.column(id_col).combine_chunks()
            for b in stored_sigs.select_columns([id_col]).iter_batches(
                batch_format="pyarrow"
            )
        ]
        known_arr = (
            pa.concat_arrays(known_parts)
            if known_parts
            else pa.array([], pa.string())
        )
        kref = ray.put(known_arr)

        def drop_known(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            keys = ray.get(kref)  # zero-copy plasma read per task
            mask = pc.invert(pc.is_in(batch.column(id_col), value_set=keys))
            return batch.filter(mask)

        fresh = ds.map_batches(
            drop_known, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        fresh = anti_join_shuffle(
            ds, stored_sigs.select_columns([id_col]), key_col=id_col
        )

    fresh_sigs = minhash_signatures(
        fresh, shingle=cfg.shingle, minhash=cfg.minhash,
        id_col=id_col, text_col=text_col, with_digests=True,
    )
    # both sides are individually materialized, so the union is a lazy
    # zero-copy concat: downstream consumers (index ingest + verify) reuse
    # the same blocks with no full-table re-materialization
    sigs = stored_sigs.union(fresh_sigs.materialize())
    # flagship parity: EVERY input row gets an assignment (empty-text docs
    # have no signature row but remain singletons), same as dupe_clusters
    if mapping_ds is None:
        mapping_ds = ds.select_columns([id_col])
    clusters = dupe_clusters_from_sigs(
        sigs, cfg,
        broadcast_limit=broadcast_limit,
        mapping_ds=mapping_ds,
    )
    return clusters, sigs


def assign_clusters(
    mapping: "ray.data.Dataset",
    assign,
    *,
    id_col: str = "url",
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Join (id, node) mapping with the (node, cluster_id) assignment;
    singletons (no assignment row) keep their own node id. Small
    assignments broadcast via ray.put + searchsorted lookup (no shuffle);
    large ones take a left-outer hash join."""
    if isinstance(assign, pa.Table):
        assign_ds = ray.data.from_arrow(assign)
        n_assigned = assign.num_rows
    else:
        assign_ds = assign.materialize()
        n_assigned = assign_ds.count()

    if n_assigned <= broadcast_limit:
        # assignment is small (only nodes that belong to some dup cluster):
        # broadcast once via ray.put, look up per batch — no shuffle
        if isinstance(assign, pa.Table):
            at = assign
        else:
            refs = assign_ds.to_arrow_refs()
            at = (
                pa.concat_tables([ray.get(r) for r in refs])
                if refs
                else pa.table({"node": pa.array([], pa.uint64()),
                               "cluster_id": pa.array([], pa.uint64())})
            )
        keys = np.asarray(at.column("node"), dtype=np.uint64)
        vals = np.asarray(at.column("cluster_id"), dtype=np.uint64)
        order = np.argsort(keys)
        ref = ray.put((keys[order], vals[order]))

        def assign_batch(t: pa.Table) -> pa.Table:
            keys_, vals_ = ray.get(ref)  # zero-copy plasma read per task
            nodes = np.asarray(t.column("node"), dtype=np.uint64)
            if len(keys_):
                pos = np.clip(np.searchsorted(keys_, nodes), 0, len(keys_) - 1)
                hit = keys_[pos] == nodes
                cid = np.where(hit, vals_[pos], nodes)
            else:
                cid = nodes
            return pa.table(
                {
                    id_col: t.column(id_col),
                    "cluster_id": pa.array(cid.astype(np.uint64)),
                }
            )

        return mapping.map_batches(
            assign_batch, batch_format="pyarrow", zero_copy_batch=True
        )

    # large assignment: left-outer hash join, fill singletons with own node
    joined = hash_join(
        mapping, assign_ds, on="node", right_on="node",
        join_type="left_outer", num_partitions=64,
    )

    def fill(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        node = t.column("node").cast(pa.uint64())
        cid = t.column("cluster_id").cast(pa.uint64())
        filled = pc.if_else(pc.is_null(cid), node, cid)
        return pa.table({id_col: t.column(id_col), "cluster_id": filled})

    return joined.map_batches(fill, batch_format="pyarrow")


def dupe_clusters_checkpointed(
    input_files: list[str],
    workdir: str,
    cfg: DedupConfig | None = None,
    *,
    files_per_partition: int = 1,
) -> "ray.data.Dataset":
    """Resumable flagship: the same stage functions as ``dupe_clusters``,
    but every stage checkpoints to ``workdir`` with lineage manifests
    (state/manifest.py). A killed run resumes without recomputing completed
    partitions/phases — the engine's `walkCompare`/bbolt analogue
    (pkg/dupe/dupe.go:940-966).

    Layout:
        workdir/sig_digests/partition=K/  per-input-partition fused
                                          signature + digest table
        workdir/edges/                    verified near + exact edge list
        workdir/clusters/                 final (id, cluster_id)
        workdir/_manifests/*.json         lineage + metrics
    """
    import hashlib as _hl

    import ray.data as rd

    from dupers_ray.functions.hashing import KERNEL_VERSION
    from dupers_ray.pipelines.near_dedup import minhash_signatures
    from dupers_ray.state.manifest import (
        read_partitioned,
        run_partitioned,
        run_phased,
    )

    cfg = cfg or DedupConfig()
    id_col, text_col = cfg.id_col, cfg.text_col
    # KERNEL_VERSION makes hash-kernel changes invisible to DedupConfig
    # invalidate old partitions: without it, a resume after a kernel upgrade
    # with one touched input recomputes only that partition and then compares
    # new-kernel signatures against old-kernel ones across partitions
    cfg_fp = _hl.sha256(
        (cfg.to_json() + "|" + KERNEL_VERSION).encode()
    ).hexdigest()[:16]

    # stage name and directory differ from the older digest-less
    # "signatures" stage, so its partitions are recomputed, never read
    sig_dir = f"{workdir}/sig_digests"
    sig_res = run_partitioned(
        input_files, sig_dir,
        lambda ds: minhash_signatures(
            ds, shingle=cfg.shingle, minhash=cfg.minhash,
            id_col=id_col, text_col=text_col, with_digests=True,
        ),
        stage="sig_digests", config_fingerprint=cfg_fp,
        files_per_partition=files_per_partition,
    )

    def edges_phase(_prev: dict) -> "ray.data.Dataset":
        return _edges_from_sigs(read_partitioned(sig_dir), cfg)

    def clusters_phase(prev: dict) -> "ray.data.Dataset":
        edges = rd.read_parquet(prev["edges"])
        assign = components(edges)
        mapping = rd.read_parquet(
            list(input_files), columns=[id_col]
        ).map_batches(
            _url_to_node, fn_kwargs={"id_col": id_col},
            batch_format="pyarrow", zero_copy_batch=True,
        )
        return assign_clusters(mapping, assign, id_col=id_col)

    # changed inputs (same paths, new bytes) invalidate the wide phases too
    out = run_phased(
        [("edges", edges_phase), ("clusters", clusters_phase)],
        workdir, config_fingerprint=cfg_fp,
        upstream_fingerprint=sig_res["fingerprint"],
    )
    return rd.read_parquet(out["clusters"])
