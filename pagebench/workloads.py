"""The three workloads, each as one untraced call into the engine's public
pipeline and as a traced run that calls each layer's public function in
turn and materializes at every boundary.

All three read the same kind of corpus: ``synth.write_pages_parquet`` with
its default mix (10 % exact, 10 % near, 2 % boilerplate, 220-token docs).

- ``pages_full``: the flagship ``dupe_clusters``. The signature scan
  does the most work per doc; at this corpus size the candidate index's
  per-call shard-actor start-up still takes most of the job.
- ``pages_incremental``: the daily update over a store holding two thirds
  of the corpus. The signature layer does a third of its work while the
  wide layers do all of theirs, plus store reads and writes, so a scan
  gain paid for with store I/O, or a wide-layer gain, shows here.
- ``pages_tiers``: the tier cascade, the only workload through the
  ``functions.grouping`` sort-groupbys and the ``maintenance``
  anti-join; the other two bypass grouping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa

from pagebench import checks
from pagebench.corpus import dir_bytes


@dataclass
class Inputs:
    pages: Path          # multi-file Parquet pages
    truth: pa.Table      # (url, cluster_id, kind)
    store: Path | None   # signature store (incremental workload only)


@dataclass
class Output:
    table: pa.Table             # (url, cluster_id) or (url, tier)
    store: Path | None = None   # signature table the run wrote


@dataclass
class Tracer:
    """Seconds per layer span and counts taken at the same boundaries."""

    spans: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - t0


def collect(ds) -> pa.Table:
    """Execute ``ds`` and bring its rows into this process as one table."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    if not tables:
        raise RuntimeError("pipeline produced no blocks")
    return pa.concat_tables(tables)


def _read(inp: Inputs, columns: list[str]):
    import ray.data as rd

    return rd.read_parquet(str(inp.pages), columns=columns)


def _url_nodes(t: pa.Table) -> pa.Table:
    from dupers_ray.functions.hashing import node_ids

    urls = [str(u) for u in t.column("url").to_pylist()]
    return pa.table({"url": t.column("url"), "node": pa.array(node_ids(urls))})


def _traced_tail(sigs, mapping, cfg, tr: Tracer) -> pa.Table:
    """Flagship layers after the signature scan, as
    ``dupe.dupe_clusters_from_sigs`` runs them."""
    from dupers_ray.pipelines.components import components
    from dupers_ray.pipelines.dupe import assign_clusters
    from dupers_ray.pipelines.near_dedup import verify_pairs
    from dupers_ray.stages.bucket_index import all_candidate_pairs_index

    with tr.span("bucket_index.candidates_s"):
        lsh, exact = all_candidate_pairs_index(sigs, minhash=cfg.minhash,
                                               id_col=cfg.id_col)
        lsh, exact = lsh.materialize(), exact.materialize()
    n_lsh = lsh.count()
    tr.counts["bucket_index.lsh_pairs"] = n_lsh
    tr.counts["bucket_index.exact_pairs"] = exact.count()

    with tr.span("near_dedup.verify_s"):
        near = verify_pairs(lsh, sigs, minhash=cfg.minhash).materialize()
    tr.counts["near_dedup.verify_kept_ratio"] = near.count() / n_lsh if n_lsh else 0.0

    with tr.span("components.components_s"):
        edges = near.select_columns(["src", "dst"]).union(exact).materialize()
        assign = components(edges)
        if not isinstance(assign, pa.Table):
            assign = assign.materialize()
    tr.counts["components.edges"] = edges.count()

    with tr.span("dupe.assign_s"):
        nodes = mapping.map_batches(_url_nodes, batch_format="pyarrow",
                                    zero_copy_batch=True)
        out = collect(assign_clusters(nodes, assign, id_col=cfg.id_col))
    tr.counts["dupe.assign_rows"] = out.num_rows
    return out


def _signatures(docs, cfg, tr: Tracer):
    from dupers_ray.pipelines.near_dedup import minhash_signatures

    with tr.span("near_dedup.signatures_s"):
        sigs = minhash_signatures(
            docs, shingle=cfg.shingle, minhash=cfg.minhash, id_col=cfg.id_col,
            text_col=cfg.text_col, with_digests=True,
        ).materialize()
    tr.counts["near_dedup.signatures_rows"] = sigs.count()
    tr.counts["near_dedup.signatures_bytes"] = sigs.size_bytes()
    return sigs


# ---------------------------------------------------------------- pages_full

def full_run(inp: Inputs, out_dir: Path) -> Output:
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters

    clusters = dupe_clusters(_read(inp, ["url", "text"]), DedupConfig(),
                             mapping_ds=_read(inp, ["url"]))
    return Output(collect(clusters))


def full_traced(inp: Inputs, out_dir: Path, tr: Tracer) -> Output:
    from dupers_ray.config import DedupConfig

    cfg = DedupConfig()
    sigs = _signatures(_read(inp, ["url", "text"]), cfg, tr)
    return Output(_traced_tail(sigs, _read(inp, ["url"]), cfg, tr))


def full_check(inp: Inputs, out: Output) -> tuple[float, list[str]]:
    return checks.check_clusters(out.table, inp.truth)


# --------------------------------------------------------- pages_incremental

def incremental_run(inp: Inputs, out_dir: Path) -> Output:
    import ray.data as rd

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters_incremental

    clusters, sigs = dupe_clusters_incremental(
        _read(inp, ["url", "text"]), rd.read_parquet(str(inp.store)),
        DedupConfig(), mapping_ds=_read(inp, ["url"]),
    )
    table = collect(clusters)
    sigs.write_parquet(str(out_dir / "store"))
    return Output(table, out_dir / "store")


def incremental_traced(inp: Inputs, out_dir: Path, tr: Tracer) -> Output:
    """The known-id filter of ``dupe_clusters_incremental`` is inline; its
    public equivalent ``maintenance.anti_join_broadcast`` (the same
    broadcast ``is_in`` filter) stands in for it here."""
    import ray.data as rd

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.maintenance import anti_join_broadcast

    cfg = DedupConfig()
    with tr.span("store.read_s"):
        stored = rd.read_parquet(str(inp.store)).materialize()
    tr.counts["store.read_bytes"] = dir_bytes(inp.store)

    with tr.span("maintenance.known_filter_s"):
        known = stored.select_columns([cfg.id_col]).to_pandas()[cfg.id_col]
        fresh = anti_join_broadcast(_read(inp, ["url", "text"]),
                                    known.to_numpy(), key_col=cfg.id_col
                                    ).materialize()
    tr.counts["incremental.delta_rows"] = fresh.count()

    sigs = stored.union(_signatures(fresh, cfg, tr))
    table = _traced_tail(sigs, _read(inp, ["url"]), cfg, tr)

    with tr.span("store.write_s"):
        sigs.write_parquet(str(out_dir / "store"))
    tr.counts["store.write_bytes"] = dir_bytes(out_dir / "store")
    return Output(table, out_dir / "store")


def incremental_check(inp: Inputs, out: Output) -> tuple[float, list[str]]:
    recall, problems = checks.check_clusters(out.table, inp.truth)
    return recall, problems + checks.check_store(out.store, inp.pages)


# --------------------------------------------------------------- pages_tiers

def tiers_run(inp: Inputs, out_dir: Path) -> Output:
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import dedup_tiers

    return Output(collect(dedup_tiers(_read(inp, ["url", "text"]), DedupConfig())))


def tiers_traced(inp: Inputs, out_dir: Path, tr: Tracer) -> Output:
    """``dedup_tiers`` is the fused scan followed by ``_tiers_from_fused``
    (resolution, survivor anti-join, near tier, overlay); the latter has no
    public name, so it is called directly."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import _tiers_from_fused, fused_tier_scan

    cfg = DedupConfig()
    with tr.span("tiers.scan_s"):
        fused = fused_tier_scan(_read(inp, ["url", "text"]), cfg)
    tr.counts["tiers.scan_bytes"] = fused.size_bytes()
    with tr.span("tiers.resolve_s"):
        table = collect(_tiers_from_fused(fused, cfg))
    tier = np.asarray(table.column("tier").to_pylist(), dtype=object)
    for name in ("exact", "near", "kept"):
        tr.counts[f"tiers.{name}_rows"] = int((tier == name).sum())
    return Output(table)


def tiers_check(inp: Inputs, out: Output) -> tuple[float, list[str]]:
    return checks.check_tiers(out.table, inp.truth, inp.pages)


# ------------------------------------------------------------------ registry

# Requested corpus size (the generator may add a row or two). Small enough
# that a job takes 6-10 s on a 4-core host, most of it fixed per-call cost,
# so a run measures several jobs and still ends within a minute.
CORPUS_DOCS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    store: bool     # set-up builds the two-thirds signature store
    run: Callable[[Inputs, Path], Output]
    traced: Callable[[Inputs, Path, Tracer], Output]
    check: Callable[[Inputs, Output], tuple[float, list[str]]]


WORKLOADS = {
    w.name: w for w in (
        Workload("pages_full", False, full_run, full_traced, full_check),
        Workload("pages_incremental", True, incremental_run,
                 incremental_traced, incremental_check),
        Workload("pages_tiers", False, tiers_run, tiers_traced, tiers_check),
    )
}

# Per-layer metrics of the traced run and their units. A workload that
# does not run a layer reports 0 for it.
LAYER_METRICS = {
    "near_dedup.signatures_s": "s",
    "near_dedup.signatures_rows": "count",
    "near_dedup.signatures_bytes": "bytes",
    "bucket_index.candidates_s": "s",
    "bucket_index.lsh_pairs": "count",
    "bucket_index.exact_pairs": "count",
    "near_dedup.verify_s": "s",
    "near_dedup.verify_kept_ratio": "ratio",
    "components.components_s": "s",
    "components.edges": "count",
    "dupe.assign_s": "s",
    "dupe.assign_rows": "count",
    "maintenance.known_filter_s": "s",
    "incremental.delta_rows": "count",
    "store.read_s": "s",
    "store.read_bytes": "bytes",
    "store.write_s": "s",
    "store.write_bytes": "bytes",
    "tiers.scan_s": "s",
    "tiers.scan_bytes": "bytes",
    "tiers.resolve_s": "s",
    "tiers.exact_rows": "count",
    "tiers.near_rows": "count",
    "tiers.kept_rows": "count",
    "trace.layer_sum_s": "s",
    "trace.overhead_ratio": "ratio",
}
