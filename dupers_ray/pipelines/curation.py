"""Cluster-level curation: pick the best page of each near-dup cluster.

The reference keeps the FIRST file of each dupe group (bucket-order scan,
``pkg/dupe/dupe.go:919-931``); a training-data pipeline keeps the BEST
page instead — highest quality score, min id on ties (deterministic).
This composes the flagship cluster assignment (pipelines/dupe) with the
hashed-BoW quality scorer (stages/quality) and the top_per_group
combiner (stages/filters): two cogroup joins + one capped groupby, no
stage ever holds the corpus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

from dupers_ray.config import DedupConfig

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _i64_view(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """Bit-reinterpret uint64 → int64 (Ray groupby keys must stay int64:
    uint64 > 2^63 falls out of Arrow blocks into pickled objects)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(col.to_numpy(zero_copy_only=False).view(np.int64))


def _cluster_sizes(clusters: "ray.data.Dataset") -> "ray.data.Dataset":
    """(ck:int64, n_docs) per cluster: per-batch partial counts → one tiny
    groupby of count rows (the corpus-sized assignment never shuffles)."""
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        ck = _i64_view(t.column("cluster_id")).to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(ck, return_counts=True)
        return pa.table({"ck": uniq, "n_docs": cnt.astype(np.int64)})

    return clusters.map_batches(
        count_partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("ck").aggregate(Sum("n_docs", alias_name="n_docs"))


def dedup_summary(
    ds: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    mapping_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """→ (cluster_size, n_clusters, n_docs, n_removed): the cluster-size
    histogram of the flagship assignment — the dedup report's 'N dupes in
    M groups' totals (reference Status/Info counters, dupe.go:93-121)
    as one tiny table. n_removed = docs dropped at keep-one-per-cluster."""
    from ray.data.aggregate import Sum

    from dupers_ray.pipelines.dupe import dupe_clusters

    clusters = dupe_clusters(ds, cfg or DedupConfig(), mapping_ds=mapping_ds)
    sizes = _cluster_sizes(clusters)

    def hist_partial(t: pa.Table) -> pa.Table:
        sz = t.column("n_docs").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(sz, return_counts=True)
        return pa.table({
            "cluster_size": uniq.astype(np.int64),
            "n_clusters": cnt.astype(np.int64),
        })

    hist = sizes.map_batches(
        hist_partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("cluster_size").aggregate(Sum("n_clusters", alias_name="n_clusters"))

    def finish(t: pa.Table) -> pa.Table:
        size = t.column("cluster_size").to_numpy(zero_copy_only=False)
        n = t.column("n_clusters").to_numpy(zero_copy_only=False)
        return pa.table({
            "cluster_size": size,
            "n_clusters": n,
            "n_docs": size * n,
            "n_removed": (size - 1) * n,
        })

    return hist.map_batches(finish, batch_format="pyarrow")


def cluster_representatives(
    ds: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    mapping_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """→ (cluster_id, rep_doc, score, n_docs): per near-dup cluster, the
    highest-quality member (min id tiebreak) and the cluster size."""
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.filters import top_per_group
    from dupers_ray.stages.quality import quality_score

    cfg = cfg or DedupConfig()
    id_col = cfg.id_col

    clusters = dupe_clusters(ds, cfg, mapping_ds=mapping_ds)

    def score_only(batch: pa.Table) -> pa.Table:
        t = quality_score(batch, id_col=id_col, text_col=cfg.text_col)
        return t.select([id_col, "score"])

    scores = ds.map_batches(
        score_only, batch_format="pyarrow", zero_copy_batch=True
    )

    lschema = pa.schema([(id_col, pa.int64()), ("cluster_id", pa.uint64())])
    rschema = pa.schema([(id_col, pa.int64()), ("score", pa.int64())])
    joined = cogroup_join(
        clusters, scores, on=id_col, left_schema=lschema, right_schema=rschema
    )

    def with_key(t: pa.Table) -> pa.Table:
        return t.append_column("ck", _i64_view(t.column("cluster_id")))

    keyed = joined.map_batches(with_key, batch_format="pyarrow")

    reps = top_per_group(
        keyed, group_col="ck", by=[("score", False), (id_col, True)], n=1
    )

    sizes = _cluster_sizes(clusters)

    rep_schema = pa.schema([
        (id_col, pa.int64()), ("cluster_id", pa.uint64()),
        ("score", pa.int64()), ("ck", pa.int64()),
    ])
    size_schema = pa.schema([("ck", pa.int64()), ("n_docs", pa.int64())])
    out = cogroup_join(
        reps, sizes, on="ck", left_schema=rep_schema, right_schema=size_schema
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "cluster_id": t.column("cluster_id"),
            "rep_doc": t.column(id_col),
            "score": t.column("score"),
            "n_docs": t.column("n_docs"),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def curate_corpus(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    group_col: str = "source",
    cap_per_source: int = 20,
    token_budget: int = 10_000,
    digest_trunc: int | None = None,
) -> "ray.data.Dataset":
    """End-to-end curation pipeline — the composition a training-data
    user actually runs, each stage an existing engine operator:

      1. Gopher rule filter (stages/quality.gopher_rules, keep == 1)
      2. exact dedup, keep min-id canonical per digest
         (stages/digest + the exact_canonical groupby;
         ``digest_trunc`` digests a prefix so test corpora have dups)
      3. per-source cap: first ``cap_per_source`` docs per source in
         splitmix64(id) order (stages/filters.top_per_group)
      4. global token budget: splitmix64(id)-ordered running-sum prefix
         (stages/budget.select_token_budget)

    Output: (id, n_tokens, cum_tokens) of the docs that survive all four
    stages — deterministic at any parallelism, value-oracled end to end
    by nesting the four stages' SQL oracles (driver query
    ``curated_corpus``)."""
    import pyarrow.compute as pc

    from dupers_ray.functions.hashing import splitmix64
    from dupers_ray.pipelines.exact_dedup import exact_canonical
    from dupers_ray.stages.budget import select_token_budget
    from dupers_ray.stages.digest import add_digests
    from dupers_ray.stages.filters import top_per_group
    from dupers_ray.stages.quality import gopher_rules

    # 1. quality filter (streaming, no shuffle)
    def keep_quality(t: pa.Table) -> pa.Table:
        g = gopher_rules(t, id_col=id_col, text_col=text_col)
        return t.filter(pc.equal(g.column("keep"), 1))

    survivors = ds.select_columns([id_col, text_col, group_col]).map_batches(
        keep_quality, batch_format="pyarrow", zero_copy_batch=True
    )

    # 2. exact dedup on (optionally prefix-truncated) digests; text and
    # source ride along as keep_cols for the later stages
    def digests(t: pa.Table) -> pa.Table:
        content = t.column(text_col)
        if digest_trunc is not None:
            content = pc.utf8_slice_codeunits(content, 0, digest_trunc)
        t = t.append_column("__trunc", content)
        t = add_digests(t, content_col="__trunc")
        return t.drop_columns(["__trunc"])

    canon = exact_canonical(
        survivors.map_batches(digests, batch_format="pyarrow",
                              zero_copy_batch=True),
        id_col=id_col, keep_cols=[text_col, group_col], has_digests=True,
    )

    # 3. per-source cap in splitmix64(id) order (deterministic draw)
    def add_ord(t: pa.Table) -> pa.Table:
        # keep uint64: a signed reinterpret would flip the sort order vs
        # the SQL oracle's UBIGINT comparison (sort col, not groupby key,
        # so the uint64 groupby pitfall doesn't apply)
        ids = np.asarray(t.column(id_col), dtype=np.uint64)
        return t.append_column("__ord", pa.array(splitmix64(ids)))

    capped = top_per_group(
        canon.map_batches(add_ord, batch_format="pyarrow",
                          zero_copy_batch=True),
        group_col=group_col, by=[("__ord", True), (id_col, True)],
        n=cap_per_source,
    )

    # 4. global ordered token budget over the survivors
    budgeted = select_token_budget(
        capped.select_columns([id_col, text_col]),
        budget=token_budget, id_col=id_col, text_col=text_col,
    )

    def keep_selected(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("selected"), 1))
        return t.select([id_col, "n_tokens", "cum_tokens"])

    return budgeted.map_batches(keep_selected, batch_format="pyarrow",
                                zero_copy_batch=True)


def source_dup_stats(
    docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    id_col: str = "doc_id",
    source_col: str = "source",
) -> "ray.data.Dataset":
    """Per-source duplication pressure → (source, n_docs, n_dup_docs,
    dup_ppm): which sources are mostly duplicates — the curation signal
    for down-weighting scraper/mirror feeds before training (the
    host-level view of the reference's Status counters).  Scale shape:
    flagship clusters → tiny cluster-size table → dup-cluster key set
    through the semi-join ``maintenance.anti_join_auto`` (broadcast or
    cogroup by the one row limit of pipelines/joins.py) to flag dup
    docs, then BOTH count passes are per-batch combiners over (source,
    count) rows merged in ONE small groupby — the corpus never shuffles
    by source.  dup_ppm is integer (n_dup*1e6 // n_docs) so the SQL
    oracle matches exactly."""
    from ray.data.aggregate import Sum

    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.pipelines.maintenance import anti_join_auto

    clusters = dupe_clusters(docs, cfg or DedupConfig())

    def add_ck(t: pa.Table) -> pa.Table:
        return t.append_column("ck", _i64_view(t.column("cluster_id")))

    sizes = _cluster_sizes(clusters)
    def only_dups(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater(t.column("n_docs"), 1))

    dup_cks = sizes.map_batches(
        only_dups, batch_format="pyarrow", zero_copy_batch=True)
    dup_docs = anti_join_auto(
        clusters.map_batches(
            add_ck, batch_format="pyarrow", zero_copy_batch=True),
        dup_cks, key_col="ck", right_key_col="ck", semi=True,
    ).select_columns([id_col])

    base = docs.select_columns([id_col, source_col])
    dup_rows = anti_join_auto(
        base, dup_docs, key_col=id_col, right_key_col=id_col, semi=True,
    )

    def count_side(dup: int):
        def f(t: pa.Table) -> pa.Table:
            src = t.column(source_col).to_numpy(zero_copy_only=False)
            uniq, cnt = np.unique(src, return_counts=True)
            z = np.zeros(len(uniq), np.int64)
            n = cnt.astype(np.int64)
            return pa.table({
                source_col: pa.array(uniq, pa.string()),
                "n_docs": pa.array(z if dup else n),
                "n_dup_docs": pa.array(n if dup else z),
            })
        return f

    merged = base.map_batches(
        count_side(0), batch_format="pyarrow", zero_copy_batch=True,
    ).union(dup_rows.map_batches(
        count_side(1), batch_format="pyarrow", zero_copy_batch=True,
    )).groupby(source_col).aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_dup_docs", alias_name="n_dup_docs"),
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_docs").to_numpy(zero_copy_only=False)
        d = t.column("n_dup_docs").to_numpy(zero_copy_only=False)
        ppm = np.where(n > 0, d * 1_000_000 // np.maximum(n, 1), 0)
        return t.append_column("dup_ppm", pa.array(ppm.astype(np.int64)))

    return merged.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True)


def first_publishers(
    ds: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    ts_col: str = "ts_us",
    mapping_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """→ (doc_id, origin_id, lag_us): for every NON-ORIGIN member of a
    multi-doc near-dup cluster, the cluster's earliest-arrival member
    (min ts, min id tiebreak) and the copy lag.

    The keep-EARLIEST dedup policy: the reference keeps the first file
    of each dupe group in bucket order (pkg/dupe/dupe.go:919-931); with
    real arrival timestamps "first" means provenance — the original
    publisher — and the lag distribution is the syndication-latency
    report. Composes the flagship cluster assignment with the arrival
    table: two cogroup joins + one capped groupby; the corpus text is
    scanned once (inside dupe_clusters) and never again."""
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.filters import top_per_group

    cfg = cfg or DedupConfig()
    id_col = cfg.id_col

    clusters = dupe_clusters(ds, cfg, mapping_ds=mapping_ds)

    def arrivals_only(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({id_col: t.column(id_col), "ts": ts})

    arrivals = ds.map_batches(
        arrivals_only, batch_format="pyarrow", zero_copy_batch=True
    )

    lschema = pa.schema([(id_col, pa.int64()), ("cluster_id", pa.uint64())])
    rschema = pa.schema([(id_col, pa.int64()), ("ts", pa.int64())])
    joined = cogroup_join(
        clusters, arrivals, on=id_col,
        left_schema=lschema, right_schema=rschema,
    )

    def with_key(t: pa.Table) -> pa.Table:
        return t.append_column("ck", _i64_view(t.column("cluster_id")))

    keyed = joined.map_batches(with_key, batch_format="pyarrow")

    origins = top_per_group(
        keyed, group_col="ck", by=[("ts", True), (id_col, True)], n=1
    )

    def origin_cols(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": t.column("ck"),
            "origin_id": t.column(id_col),
            "origin_ts": t.column("ts"),
        })

    origin_tbl = origins.map_batches(origin_cols, batch_format="pyarrow")

    mschema = pa.schema([
        (id_col, pa.int64()), ("cluster_id", pa.uint64()),
        ("ts", pa.int64()), ("ck", pa.int64()),
    ])
    oschema = pa.schema([
        ("ck", pa.int64()), ("origin_id", pa.int64()),
        ("origin_ts", pa.int64()),
    ])
    out = cogroup_join(
        keyed, origin_tbl, on="ck",
        left_schema=mschema, right_schema=oschema,
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.not_equal(t.column(id_col), t.column("origin_id")))
        return pa.table({
            id_col: t.column(id_col),
            "origin_id": t.column("origin_id"),
            "lag_us": pc.subtract(t.column("ts"), t.column("origin_ts")),
        })

    return out.map_batches(finish, batch_format="pyarrow")
