"""Benchmark harness. Prints ONE JSON line with the headline time and
per-query timings.

  python bench.py                # $GRAFT_SF_DIR (default /root/testdata/sf0.1),
                                 # ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)
  python bench.py --scaling      # same pipeline at 8 and 32 CPUs in fresh
                                 # processes → throughputs + scaling efficiency

Headline: the flagship dupe pipeline (extract-parity corpus → digests +
MinHash/LSH → verified edges → connected components → cluster per doc)
over a deterministic synthetic pages corpus (seed 42, n=$GRAFT_BENCH_DOCS
or 50_000), cached as parquet under /tmp so every run measures the
pipeline, not the generator. The same corpus is reused verbatim at both
CPU levels for the scaling criterion (FIXTURES.md §7).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "600000"))
SEED = 42
CACHE_ROOT = "/tmp/dupers_ray_bench"


def ensure_pages_corpus() -> str:
    path = os.path.join(CACHE_ROOT, f"pages_n{BENCH_DOCS}_seed{SEED}")
    marker = os.path.join(path, "_COMPLETE")
    if not os.path.exists(marker):
        from dupers_ray.synth import write_pages_parquet

        write_pages_parquet(path, n=BENCH_DOCS, seed=SEED, files=32)
        with open(marker, "w") as f:
            f.write("ok")
    return os.path.join(path, "pages")


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    ctx.execution_options.preserve_order = False  # cluster order is unordered

    import ray.data as rd

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.pipelines.exact_dedup import exact_canonical, exact_dupe_pairs
    from dupers_ray.pipelines.maintenance import counts_by_bucket
    from dupers_ray.pipelines.near_dedup import near_dup_edges
    from dupers_ray.pipelines.search import search

    pages_path = ensure_pages_corpus()

    # warm OS page cache (untimed) so we measure compute+shuffle, not cold disk
    rd.read_parquet(pages_path).count()

    queries: dict[str, float] = {}
    n_docs = 0

    def timed(name: str, fn):
        nonlocal n_docs
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        queries[name] = round(dt, 3)
        return out

    # headline: full dupe pipeline over the pages corpus
    def headline():
        # prune at the read: the dupe pipeline consumes only (url, text);
        # reading html here would ship ~2x the bytes for nothing.
        # GRAFT_SIG_STORE=u2 stores uint16 signature folds (half the sig
        # bytes through materialize/index/verify) for the bytes-vs-
        # bandwidth scaling experiment (BASELINE.md); default u4.
        from dupers_ray.config import MinHashConfig

        cfg = DedupConfig(minhash=MinHashConfig(
            sig_store=os.environ.get("GRAFT_SIG_STORE", "u4")))
        ds = rd.read_parquet(pages_path, columns=["url", "text"])
        ids_only = rd.read_parquet(pages_path, columns=["url"])
        return dupe_clusters(ds, cfg, mapping_ds=ids_only).count()

    n_docs = timed("dupe_pages", headline)

    # flagship-only mode: --scaling sets this so each subprocess measures
    # ONLY the headline pipeline (the scaling metric) instead of paying
    # ~20 min of secondary queries per 2-CPU run
    if os.environ.get("GRAFT_BENCH_ONLY") == "headline":
        headline_sec = queries["dupe_pages"]
        result = {
            "metric": "dupe_pipeline_pages_sec",
            "value": headline_sec,
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "bench_docs": BENCH_DOCS,
            "docs_assigned": n_docs,
            "docs_per_sec": round(n_docs / headline_sec, 1) if headline_sec else None,
        }
        ray.shutdown()
        return result

    # secondary pipelines over the driver tables
    doc_path = os.path.join(SF_DIR, "documents.parquet")
    timed("exact_canonical_docs", lambda: exact_canonical(
        rd.read_parquet(doc_path), id_col="doc_id", content_col="text").count())
    timed("exact_pairs_docs", lambda: exact_dupe_pairs(
        rd.read_parquet(doc_path), id_col="doc_id", content_col="text").count())
    timed("search_docs", lambda: search(
        rd.read_parquet(doc_path), "join", column="text",
        keep_cols=["doc_id", "source"]).count())
    timed("counts_docs", lambda: counts_by_bucket(
        rd.read_parquet(doc_path), bucket_col="source", size_col="n_chars").count())
    timed("near_edges_pages", lambda: near_dup_edges(
        rd.read_parquet(pages_path, columns=["url", "text"]))[0].count())

    # incremental flagship: signatures for 2/3 of the corpus come from a
    # prebuilt store (built once, untimed — it models yesterday's index);
    # the timed path re-hashes only the 1/3 delta, then clusters the full
    # signature table. Compare with dupe_pages: the gap is the text-scan
    # cost the store amortizes on every update.
    def ensure_sig_store() -> str:
        import pyarrow as pa_

        from dupers_ray.functions.hashing import node_ids
        from dupers_ray.pipelines.near_dedup import minhash_signatures
        from dupers_ray.state.manifest import _atomic_write_parquet

        store = os.path.join(CACHE_ROOT, f"sigstore_n{BENCH_DOCS}_seed{SEED}")
        marker = os.path.join(store, "_COMPLETE")
        if not os.path.exists(marker):
            def two_thirds(t: "pa_.Table") -> "pa_.Table":
                import numpy as np

                nodes = node_ids([str(u) for u in t.column("url").to_pylist()])
                return t.filter(pa_.array(nodes % np.uint64(3) != 0))

            sigs = minhash_signatures(
                rd.read_parquet(pages_path, columns=["url", "text"])
                .map_batches(two_thirds, batch_format="pyarrow"),
                with_digests=True,
            )
            _atomic_write_parquet(sigs.materialize(), store)
            with open(marker, "w") as f:
                f.write("ok")
        return store

    store_path = ensure_sig_store()

    def incremental():
        from dupers_ray.pipelines.dupe import dupe_clusters_incremental

        clusters, _sigs = dupe_clusters_incremental(
            rd.read_parquet(pages_path, columns=["url", "text"]),
            rd.read_parquet(store_path),
            DedupConfig(),
            mapping_ds=rd.read_parquet(pages_path, columns=["url"]),
        )
        return clusters.count()

    timed("incremental_update_pages", incremental)

    from dupers_ray.config import SimHashConfig
    from dupers_ray.stages.simhash import simhash_pairs

    timed("simhash_pairs_docs", lambda: simhash_pairs(
        rd.read_parquet(doc_path), SimHashConfig(), id_col="doc_id").count())

    # tiered dedup attribution over the pages corpus (exact -> normalized
    # -> near cascade; one fused text scan + the flagship near machinery)
    def tiers_pages():
        from dupers_ray.pipelines.tiers import dedup_tiers

        cfg = DedupConfig()
        return dedup_tiers(
            rd.read_parquet(pages_path, columns=["url", "text"]), cfg
        ).count()

    timed("tier_attribution_pages", tiers_pages)

    def topk_embeddings():
        import numpy as np
        import pyarrow.parquet as pq

        from dupers_ray.stages.embed import topk_cosine

        emb_path = os.path.join(SF_DIR, "embeddings.parquet")
        t = pq.read_table(emb_path)
        ids = np.asarray(t.column("vec_id").to_numpy(), dtype=np.int64)
        sel = ids < 20
        qm = np.array(
            t.column("embedding").filter(pa.array(sel)).to_pylist(),
            dtype=np.float32,
        )
        return topk_cosine(
            rd.read_parquet(emb_path), qm, k=10, query_ids=ids[sel]
        ).count()

    import pyarrow as pa

    timed("topk_cosine_embeddings", topk_embeddings)

    # round-2 session ops: vocabulary join-back over the 600k pages corpus
    # (tokenize + broadcast-CDF lookup throughput), event funnel, SemDeDup
    from dupers_ray.pipelines.events import funnel_counts
    from dupers_ray.stages.lmstats import doc_freq_stats
    from dupers_ray.stages.semdedup import semantic_dedup

    timed("corpus_freq_pages", lambda: doc_freq_stats(
        rd.read_parquet(pages_path, columns=["url", "text"]),
        id_col="url", strategy="broadcast").count())

    # round-4: first-occurrence paragraph dedup at bench scale — the
    # hash-partitioned (Min, Sum) reduce replaced a 13M-row sort groupby
    # (111 s -> ~6 s; BASELINE.md round-4 notes). Int ids via node-hash
    # (the packed winner key needs doc_id < 2^43).
    def paragraph_pages():
        import numpy as np
        import pyarrow as pa_

        from dupers_ray.functions.hashing import node_ids
        from dupers_ray.stages.linededup import dedup_paragraphs_first

        def add_id(t):
            ids = node_ids([str(v) for v in t.column("url").to_pylist()])
            return t.append_column(
                "doc_id",
                # full 43 bits the packed winner key allows (doc_id < 2^43)
                pa_.array((ids >> np.uint64(21)).astype(np.int64)),
            )

        docs = rd.read_parquet(pages_path, columns=["url", "text"]).map_batches(
            add_id, batch_format="pyarrow", zero_copy_batch=True)
        return dedup_paragraphs_first(
            docs, id_col="doc_id", text_col="text").count()

    # untimed guard: the 43-bit truncated hash must not collide, or two
    # urls' paragraph streams silently merge in the benchmark numbers
    # (birthday bound is ~28% at the 2.4M-doc scaling corpus)
    def _assert_unique_doc_ids():
        import numpy as np

        from dupers_ray.functions.hashing import node_ids

        urls = rd.read_parquet(pages_path, columns=["url"]).to_pandas()["url"]
        ids = node_ids([str(u) for u in urls]) >> np.uint64(21)
        if len(np.unique(ids)) != len(ids):
            raise RuntimeError(
                "43-bit doc_id collision in paragraph bench corpus — "
                "widen the id or drop the offending urls")

    _assert_unique_doc_ids()
    timed("paragraph_dedup_pages", paragraph_pages)

    # round-5: exact arrival-order novelty at bench scale — the per-doc
    # partial fold moved from Ray's sort-based aggregate to the hash-
    # partitioned reduce (388 s -> ~25 s at this corpus; BASELINE.md r5)
    def novelty_pages():
        import numpy as np
        import pyarrow as pa_

        from dupers_ray.functions.hashing import node_ids
        from dupers_ray.stages.repetition import content_novelty

        def add_id(t):
            ids = node_ids([str(v) for v in t.column("url").to_pylist()])
            return t.append_column("doc_id", pa_.array(ids.view(np.int64)))

        docs = rd.read_parquet(pages_path, columns=["url", "text"]).map_batches(
            add_id, batch_format="pyarrow", zero_copy_batch=True)
        return content_novelty(docs, id_col="doc_id", text_col="text").count()

    timed("content_novelty_pages", novelty_pages)

    # round-3 ops at bench scale: DSIR selection (two token scans + one
    # <=4096-key groupby) and link-graph PageRank (synthesized hrefs →
    # vectorized extraction → 2 integer power iterations over ~1.8M edges)
    def dsir_pages():
        from dupers_ray.stages.dsir import dsir_weights

        return dsir_weights(
            rd.read_parquet(pages_path, columns=["url", "text", "lang"]),
            id_col="url", target_col="lang", target_value="en",
        ).count()

    timed("dsir_weights_pages", dsir_pages)

    def pagerank_pages():
        import numpy as np
        import pyarrow as pa_

        from dupers_ray.functions.hashing import node_ids
        from dupers_ray.stages.linkgraph import extract_links, pagerank
        from dupers_ray.synth import synth_doc_html

        def to_pages(t: "pa_.Table") -> "pa_.Table":
            urls = [str(u) for u in t.column("url").to_pylist()]
            ids = node_ids(urls).view(np.int64)
            t2 = pa_.table({"doc_id": pa_.array(ids), "text": t.column("text")})
            return synth_doc_html(t2, n_docs=BENCH_DOCS)

        pages = rd.read_parquet(pages_path, columns=["url", "text"]).map_batches(
            to_pages, batch_format="pyarrow", zero_copy_batch=True)
        links = extract_links(pages).select_columns(["src_host", "dst_host"])
        return len(pagerank(links, iters=2))

    timed("pagerank_pages", pagerank_pages)
    # round-3 second wave: WARC/CDX web ingest at bench scale — serialize
    # every page as a gzip-membered WARC response, parse it back, and
    # build the (surt, ts)-sorted capture index (one global sort)
    def warc_cdx_pages():
        import pyarrow as pa_

        from dupers_ray.sources.warc import build_warc, cdx_index, parse_warc

        def roundtrip(t: "pa_.Table") -> "pa_.Table":
            urls = t.column("url").to_pylist()
            tss = t.column("warc_ts").cast(pa_.int64()).to_pylist()
            texts = t.column("text").to_pylist()
            recs = [
                (str(u), int(ts), (tx or "").encode())
                for u, ts, tx in zip(urls, tss, texts)
            ]
            return parse_warc(
                build_warc(recs, gzip_members=True)
            ).drop_columns(["warc_error"])

        pages = rd.read_parquet(
            pages_path, columns=["url", "warc_ts", "text"]
        ).map_batches(roundtrip, batch_format="pyarrow", zero_copy_batch=True)
        return cdx_index(pages).count()

    timed("warc_cdx_pages", warc_cdx_pages)
    timed("funnel_events", lambda: funnel_counts(
        rd.read_parquet(os.path.join(SF_DIR, "events.parquet"))).count())
    timed("semantic_dedup_embeddings", lambda: semantic_dedup(
        rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet")),
        n_clusters=32, threshold=0.7, iters=2).count())

    headline_sec = queries["dupe_pages"]
    result = {
        "metric": "dupe_pipeline_pages_sec",
        "value": headline_sec,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_docs": BENCH_DOCS,
        "docs_assigned": n_docs,
        "docs_per_sec": round(n_docs / headline_sec, 1) if headline_sec else None,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_ONLY="headline")
        cmd = [sys.executable, os.path.abspath(__file__)]
        if os.environ.get("GRAFT_SCALING_AFFINITY") == "1":
            # Bind the WHOLE process tree (driver, raylet, object store,
            # workers) to ncpu physical CPUs: ray.init(num_cpus=N) only
            # caps task-slot parallelism, so Ray's auxiliary processes
            # otherwise run on extra host cores — small-N levels get free
            # CPU a real N-core node wouldn't have, deflating measured
            # N→4N efficiency. Affinity makes each level a faithful
            # N-core-node simulation.
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    import statistics

    ensure_pages_corpus()  # build once; all runs read identical bytes
    # three alternating rounds per level; min AND median per level: single-
    # run numbers on this box vary up to 3x with host-tenant load (CPU idle
    # + loadavg 10 observed — noisy-neighbor steal), so alternating levels
    # keeps weather from biasing one level. Levels 2/8/32 give two N→4N
    # pairs: 2→8 sits below the single box's shared memory-bandwidth
    # saturation (the regime a real N-node→4N-node cluster is in, since
    # each node brings its own bandwidth); 8→32 is reported too but
    # saturates the one shared memory system.
    levels = tuple(int(x) for x in os.environ.get(
        "GRAFT_SCALING_LEVELS", "2,8,32").split(","))
    rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "3"))
    runs: dict[int, list[float]] = {n: [] for n in levels}
    docs = None
    for _ in range(rounds):
        for ncpu in levels:
            r = run(ncpu)
            runs[ncpu].append(r["value"])
            docs = r["bench_docs"]
    out = {"metric": "scaling_efficiency_8_to_32", "bench_docs": docs,
           "rounds": rounds}
    med = {n: statistics.median(v) for n, v in runs.items()}
    mn = {n: min(v) for n, v in runs.items()}
    for ncpu in levels:
        out[f"sec_{ncpu}"] = mn[ncpu]
        out[f"sec_{ncpu}_median"] = round(med[ncpu], 3)
        out[f"sec_{ncpu}_all"] = runs[ncpu]
        out[f"docs_per_sec_{ncpu}"] = round(docs / mn[ncpu], 1)
    if 8 in mn and 32 in mn:
        out["speedup"] = round(mn[8] / mn[32], 3)
        out["scaling_efficiency"] = round(out["speedup"] / 4, 3)
        out["speedup_median"] = round(med[8] / med[32], 3)
        out["scaling_efficiency_median"] = round(out["speedup_median"] / 4, 3)
    if 2 in mn and 8 in mn:
        out["speedup_2_to_8"] = round(mn[2] / mn[8], 3)
        out["scaling_efficiency_2_to_8"] = round(out["speedup_2_to_8"] / 4, 3)
        out["speedup_2_to_8_median"] = round(med[2] / med[8], 3)
        out["scaling_efficiency_2_to_8_median"] = round(
            out["speedup_2_to_8_median"] / 4, 3)
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
