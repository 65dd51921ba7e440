"""Command-line surface — dupers' task verbs over Parquet corpora.

The reference's CLI maps commands to its engine (pkg/cmd/task/task.go:42-56:
``dupe search backup clean database/db export import ls mv rm up up+``); this
module maps the same verbs onto the Ray Data pipelines so a dupers user can
run the familiar workflow on a cluster:

    python -m dupers_ray.cli up     --index /data/index corpus.parquet
    python -m dupers_ray.cli dupe   --index /data/index source.parquet
    python -m dupers_ray.cli search --index /data/index "term" --name
    ray job submit --working-dir . -- python -m dupers_ray.cli near corpus/

Differences from the reference, by design (SURVEY §1.2):

- the "database" is an immutable Parquet index dataset directory
  (bucket, url, digest, digest_u64) rewritten atomically (tmp → rename),
  not a bbolt file — mutating verbs (import/mv/rm/clean) rewrite it;
- ``dupe``/``search`` write result datasets (or CSV) instead of printing
  per-row matches (use --out; a summary goes to stdout);
- ``near`` is engine-new: the MinHash/LSH near-duplicate clustering
  flagship the reference lacks.

This module OWNS a Ray session (the one place outside bench/tests allowed
to): ``ray.init(address="local")`` unless RAY_ADDRESS points elsewhere,
guarded by ``is_initialized`` so ``ray job submit`` drivers work unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys


def _ray_ready() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
        )


def windows_path_check(name: str) -> str | None:
    """M13 input validation (reference WindowsChk, pkg/cmd/cmd.go:198-247):
    a Windows drive-letter path whose cmd.exe quoting leaves a trailing
    backslash (``"C:\\dir\\"`` — the quote escapes into the argument) or a
    bare drive root ``C:\\`` is rejected before any dataset I/O. Returns
    an error message, or None when the path is fine. Non-Windows-looking
    paths always pass (the engine normally runs on posix paths/urls)."""
    if len(name) < 2 or name[1] != ":" or not name[0].isalpha():
        return None  # not a drive-letter path
    if name[-1] == '"':
        # cmd.exe turned a trailing \" into an escaped quote: `C:\dir"`
        return (
            "please remove the trailing backslash \\ from the quoted "
            f"directory path {name!r}"
        )
    if len(name) == 3 and name[2] == "\\":
        return f"bare drive root {name!r} is not a usable directory"
    return None


def _read(path: str):
    """Corpus/index reader: a parquet file, a directory of them, or a
    manifest-tracked partition dir (state/manifest layout)."""
    import ray.data as rd

    if os.path.isdir(path) and os.path.isdir(os.path.join(path, "_manifests")):
        from dupers_ray.state.manifest import read_partitioned

        return read_partitioned(path)
    return rd.read_parquet(path)


_INDEX_SCHEMA = [
    ("bucket", "string"), ("url", "string"),
    ("digest", "string"), ("digest_u64", "uint64"),
]


def _write_index(ds, index_dir: str) -> int:
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dupers_ray.state.manifest import _atomic_write_parquet

    ds = ds.materialize()  # count + write from one execution
    n = ds.count()
    if n:
        _atomic_write_parquet(ds, index_dir)
    else:
        # Ray writes no files for an empty dataset (and an all-empty
        # dataset loses its schema) — pin the canonical index schema
        empty = pa.table(
            {name: pa.array([], type=t) for name, t in _INDEX_SCHEMA}
        )
        tmp = index_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pq.write_table(empty, os.path.join(tmp, "empty.parquet"))
        shutil.rmtree(index_dir, ignore_errors=True)
        os.replace(tmp, index_dir)
    return n


def _emit(ds, out: str | None, label: str) -> None:
    """Write a result dataset (parquet dir or .csv by suffix) or print a
    small preview when no --out is given."""
    if out:
        if out.endswith(".csv"):
            ds.write_csv(out)
        else:
            ds.write_parquet(out)
        print(f"{label}: wrote {out}")
    else:
        rows = ds.take(20)
        for r in rows:
            print(dict(r))
        print(f"{label}: {ds.count()} rows (showing ≤20; use --out for all)")


def cmd_up(a) -> int:
    from dupers_ray.pipelines.ingest import ingest_binary_files, ingest_pages

    if a.files:
        pages = ingest_binary_files(
            a.corpus, bucket=a.bucket, explode_archive_members=a.archives
        )
        extract = True
    else:
        pages = _read(a.corpus)
        extract = "text" not in pages.schema().names
    idx = ingest_pages(pages, bucket=a.bucket, extract=extract)
    if os.path.isdir(a.index) or os.path.exists(a.index):
        # incremental `up` (walkCompare J3): only urls NOT already indexed
        # are added; existing rows are kept as-is. Count-gated: broadcast
        # the known-url set when small, hash-partitioned anti-join when the
        # index is too large for the driver (VERDICT r2 item 2).
        from dupers_ray.pipelines.maintenance import anti_join_auto

        old = _read(a.index)
        fresh = anti_join_auto(idx, old, key_col="url")
        n = _write_index(old.union(fresh), a.index)
    else:
        n = _write_index(idx, a.index)
    print(f"up: index now {n} rows at {a.index}")
    return 0


def cmd_dupe(a) -> int:
    src = _read(a.source)
    if a.self_only:
        from dupers_ray.pipelines.report import dupe_report

        out = dupe_report(src, id_col="url", content_col="text")
    else:
        # lookupOne semantics (dupe.go:919-931): source hashed fresh, index
        # digests trusted (`-fast` path); pairs grouped per digest
        from dupers_ray.pipelines.exact_dedup import exact_dupe_pairs

        out = exact_dupe_pairs(
            _index_union(src, _read(a.index)), id_col="url", has_digests=True
        )
    _emit(out, a.out, "dupe")
    return 0


def _index_union(src, idx):
    """Source rows (hashed fresh) unioned with stored index rows (digests
    trusted — the `-fast` path semantics) for the pair report."""
    import pyarrow as pa

    from dupers_ray.stages.digest import digest_dataset

    src_d = digest_dataset(src, content_col="text").select_columns(
        ["url", "digest", "digest_u64"]
    )

    def project(t: pa.Table) -> pa.Table:
        return t.select(["url", "digest", "digest_u64"])

    idx_d = idx.map_batches(project, batch_format="pyarrow")
    return src_d.union(idx_d)


def cmd_near(a) -> int:
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters, dupe_clusters_incremental

    cfg = DedupConfig(id_col=a.id_col)
    corpus = _read(a.corpus).select_columns([a.id_col, "text"])
    if a.sigs and os.path.isdir(a.sigs):
        # incremental: stored docs keep their signatures (walkCompare at
        # near-dup level — only fresh docs pay the text scan)
        from dupers_ray.state.manifest import _atomic_write_parquet

        out, sigs = dupe_clusters_incremental(corpus, _read(a.sigs), cfg)
        out = out.materialize()  # consume before the store is rewritten
        _atomic_write_parquet(sigs, a.sigs)
        print(f"near: signature index now {sigs.count()} rows at {a.sigs}")
    elif a.sigs:
        # first run with a store: ONE signature pass serves clustering now
        # and the store for the next (incremental) run
        from dupers_ray.pipelines.dupe import dupe_clusters_from_sigs
        from dupers_ray.pipelines.near_dedup import minhash_signatures
        from dupers_ray.state.manifest import _atomic_write_parquet

        sigs = minhash_signatures(
            corpus, shingle=cfg.shingle, minhash=cfg.minhash,
            id_col=a.id_col, text_col="text", with_digests=True,
        ).materialize()
        out = dupe_clusters_from_sigs(
            sigs, cfg, mapping_ds=corpus.select_columns([a.id_col])
        ).materialize()
        _atomic_write_parquet(sigs, a.sigs)
        print(f"near: wrote signature index to {a.sigs}")
    else:
        out = dupe_clusters(corpus, cfg)
    _emit(out, a.out, "near")
    return 0


def cmd_tiers(a) -> int:
    """Tiered dedup attribution (exact → normalized → near), optionally
    incremental against a persisted fused store (--store) or a budget
    plan (--budget-ppm): which cascade prefix fits the token budget."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import (
        _tiers_from_fused,
        dedup_tiers,
        dedup_tiers_incremental,
        fused_tier_scan,
        tier_budget_plan,
    )

    cfg = DedupConfig(id_col=a.id_col)
    if getattr(a, "budget_ppm", None):
        plan = tier_budget_plan(
            _read(a.corpus).select_columns(
                [a.id_col, "text", a.weight_col]),
            cfg, weight_col=a.weight_col, budget_ppm=a.budget_ppm,
        )
        for r in plan.to_pylist():
            mark = "<= budget" if r["meets_budget"] else "over"
            print(f"{r['tiers_applied']}\t{r['tier']:<10}\t"
                  f"{r['n_docs_surviving']} docs\t"
                  f"{r[a.weight_col + '_surviving']} {a.weight_col}\t{mark}")
        return 0
    corpus = _read(a.corpus).select_columns([a.id_col, "text"])
    if a.store and os.path.isdir(a.store):
        from dupers_ray.state.manifest import _atomic_write_parquet

        out, fused = dedup_tiers_incremental(corpus, _read(a.store), cfg)
        out = out.materialize()  # consume before the store is rewritten
        _atomic_write_parquet(fused, a.store)
        print(f"tiers: fused store now {fused.count()} rows at {a.store}")
    elif a.store:
        from dupers_ray.state.manifest import _atomic_write_parquet

        fused = fused_tier_scan(corpus, cfg)
        out = _tiers_from_fused(fused, cfg).materialize()
        _atomic_write_parquet(fused, a.store)
        print(f"tiers: wrote fused store to {a.store}")
    else:
        out = dedup_tiers(corpus, cfg)
    _emit(out, a.out, "tiers")
    return 0


def cmd_search(a) -> int:
    from dupers_ray.pipelines.search import search

    out = search(
        _read(a.index), a.term, column=a.column,
        exact=not a.nocase, basename=a.name,
    )
    _emit(out, a.out, "search")
    return 0


def cmd_ls(a) -> int:
    ds = _read(a.index)
    if a.bucket:
        import pyarrow.compute as pc

        ds = ds.map_batches(
            lambda t: t.filter(pc.equal(t.column("bucket"), a.bucket)),
            batch_format="pyarrow",
        )
    for r in ds.select_columns(["bucket", "url"]).sort("url").iter_rows():
        print(f"{r['bucket']}\t{r['url']}")
    return 0


def cmd_export(a) -> int:
    import pyarrow.compute as pc

    from dupers_ray.sources.csv_io import export_csv

    ds = _read(a.index).map_batches(
        lambda t: t.filter(pc.equal(t.column("bucket"), a.bucket)),
        batch_format="pyarrow",
    )
    n = export_csv(ds, a.bucket, a.out)
    print(f"export: {n} rows -> {a.out}")
    return 0


def cmd_import(a) -> int:
    from dupers_ray.sources.csv_io import import_csv

    bucket, ds = import_csv(a.csv)
    old = _read(a.index)
    n = _write_index(old.union(ds), a.index)
    print(f"import: bucket {bucket!r}; index now {n} rows")
    return 0


def cmd_mv(a) -> int:
    from dupers_ray.pipelines.maintenance import rename_bucket

    n = _write_index(rename_bucket(_read(a.index), a.old, a.new), a.index)
    print(f"mv: {a.old!r} -> {a.new!r}; index {n} rows")
    return 0


def cmd_rm(a) -> int:
    from dupers_ray.pipelines.maintenance import remove_bucket

    n = _write_index(remove_bucket(_read(a.index), a.bucket), a.index)
    print(f"rm: dropped {a.bucket!r}; index now {n} rows")
    return 0


def cmd_clean(a) -> int:
    # reference Clean (database.go:141-169): drop index rows whose source
    # row no longer exists = index SEMI-join live corpus on url. Count-gated
    # broadcast-or-shuffle: the live corpus can be billions of rows at
    # scale, so never take_all it onto the driver (VERDICT r2 item 2).
    from dupers_ray.pipelines.maintenance import anti_join_auto

    kept = anti_join_auto(
        _read(a.index), _read(a.corpus), key_col="url", semi=True,
    )
    n = _write_index(kept, a.index)
    print(f"clean: index now {n} rows")
    return 0


def cmd_backup(a) -> int:
    from dupers_ray.state.manifest import list_snapshots, snapshot_index

    if a.list:
        for t in list_snapshots(a.index):
            print(t)
        return 0
    info = snapshot_index(a.index, a.tag)
    print(f"backup: {info['files']} files -> {info['dir']}")
    return 0


def cmd_db(a) -> int:
    from dupers_ray.pipelines.maintenance import info_table

    for r in info_table(_read(a.index), bucket_col="bucket").iter_rows():
        print(dict(r))
    return 0


def cmd_rank(a) -> int:
    """Link-graph host ranking over a corpus with raw html: vectorized
    href extraction → integer fixed-point PageRank or HITS
    (stages/linkgraph.py — engine-new, no reference analogue)."""
    import ray.data as rd

    from dupers_ray.stages.linkgraph import extract_links, hits, pagerank

    corpus = _read(a.corpus).select_columns(
        [a.id_col, a.host_col, a.html_col]
    )
    edges = extract_links(
        corpus, id_col=a.id_col, html_col=a.html_col, host_col=a.host_col
    ).select_columns(["src_host", "dst_host"])
    if a.algo == "pagerank":
        res = pagerank(edges, iters=a.iters)
    else:
        res = hits(edges)
    # mode='auto' returns a pa.Table in the broadcast regime and a
    # Dataset when it degrades to the grouped path above linkgraph's
    # rank-vector limit
    out = res if isinstance(res, rd.Dataset) else rd.from_arrow(res)
    _emit(out, a.out, "rank")
    return 0


def cmd_select(a) -> int:
    """DSIR-style data selection: importance weights of every doc vs the
    target subset's hashed-token distribution; --k keeps the top-k
    (stages/dsir.py)."""
    from dupers_ray.stages.dsir import dsir_topk, dsir_weights

    corpus = _read(a.corpus).select_columns(
        [a.id_col, a.text_col, a.target_col]
    )
    w = dsir_weights(
        corpus, id_col=a.id_col, text_col=a.text_col,
        target_col=a.target_col, target_value=a.target_value,
    )
    if a.k:
        import ray.data as rd

        _emit(rd.from_arrow(dsir_topk(w, id_col=a.id_col, k=a.k)),
              a.out, "select")
    else:
        _emit(w, a.out, "select")
    return 0


def cmd_warc(a) -> int:
    """Ingest WARC/WET files (sources/warc.py, ISO 28500): pages come
    back as (url, warc_ts, html, warc_error) parquet; --cdx instead
    emits the globally (surt, ts)-sorted capture index."""
    from dupers_ray.sources.warc import cdx_index, read_warc_files

    pages = read_warc_files(a.files)
    if a.cdx:
        _emit(cdx_index(pages.drop_columns(["warc_error"])), a.out, "cdx")
    else:
        _emit(pages, a.out, "warc")
    return 0


def cmd_curate(a) -> int:
    """Web-curation chain over a pages corpus with raw html: meta-robots
    noindex filter → link-density main content → host-scoped
    boilerplate removal (the web_curated pipeline)."""
    import pyarrow as pa

    from dupers_ray.stages.extract import extract_main_content
    from dupers_ray.stages.filters import drop_noindex
    from dupers_ray.stages.linededup import remove_host_boilerplate

    corpus = _read(a.corpus).select_columns(
        [a.id_col, a.host_col, a.html_col]
    )
    content = drop_noindex(corpus, html_col=a.html_col).map_batches(
        extract_main_content, fn_kwargs={"html_col": a.html_col},
        batch_format="pyarrow", zero_copy_batch=True,
    ).map_batches(
        lambda t: t.drop_columns([a.html_col]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = remove_host_boilerplate(
        content, id_col=a.id_col, text_col="main_text",
        key_col=a.host_col, tokens_per_line=a.tokens_per_line,
        min_docs=a.min_docs,
    )
    _emit(out, a.out, "curate")
    return 0


def cmd_pack(a) -> int:
    """GPT-style sequence packing (stages/budget.py): --layout emits the
    per-doc (start_offset, first_seq, last_seq) plan; default emits the
    materialized per-window (n_toks, checksum) table."""
    from dupers_ray.stages.budget import pack_sequences, packed_windows

    corpus = _read(a.corpus).select_columns([a.id_col, a.text_col])
    fn = pack_sequences if a.layout else packed_windows
    _emit(
        fn(corpus, seq_len=a.seq_len, id_col=a.id_col, text_col=a.text_col),
        a.out, "pack",
    )
    return 0


def cmd_mirrors(a) -> int:
    """Mirror-site detection (pipelines/overlap.mirror_hosts): host pairs
    with exact content-set Jaccard >= --min-jaccard."""
    from dupers_ray.pipelines.overlap import mirror_hosts

    corpus = _read(a.corpus).select_columns([a.host_col, a.text_col])
    _emit(
        mirror_hosts(
            corpus, host_col=a.host_col, content_col=a.text_col,
            min_jaccard=a.min_jaccard,
        ),
        a.out, "mirrors",
    )
    return 0


def cmd_split(a) -> int:
    """Leakage-free train/val/test assignment keyed on the near-dup
    cluster id (stages/filters.assign_split over dupe_clusters)."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.stages.filters import assign_split

    corpus = _read(a.corpus).select_columns([a.id_col, a.text_col])
    clus = dupe_clusters(
        corpus, DedupConfig(id_col=a.id_col, text_col=a.text_col))
    bounds = tuple(int(x) for x in a.bounds.split(","))
    out = clus.map_batches(
        assign_split, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"bounds": bounds, "salt": a.salt},
    )
    _emit(out, a.out, "split")
    return 0


def cmd_identity(a) -> int:
    """Unified page-identity clusters: redirect chains → landing-page
    rel=canonical → SURT key (pipelines/urls.page_identity).  The
    redirects table needs (id, ptr) columns; pages need
    (id, url, html)."""
    from dupers_ray.pipelines.urls import page_identity

    pages = _read(a.corpus).select_columns([a.id_col, "url", "html"])
    redirects = _read(a.redirects).select_columns(["id", "ptr"])
    _emit(
        page_identity(pages, redirects, id_col=a.id_col),
        a.out, "identity",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dupers_ray", description=__doc__.splitlines()[0]
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def idx(sp):
        sp.add_argument("--index", required=True, help="index dataset dir")
        return sp

    s = idx(sub.add_parser("up", help="build/refresh the index"))
    s.add_argument("corpus")
    s.add_argument("--bucket", default="default")
    s.add_argument("--files", action="store_true",
                   help="corpus is raw files, not parquet (reference walk)")
    s.add_argument("--archives", action="store_true",
                   help="up+: explode archive members (zip/tar/7z/zst/...)")
    s.set_defaults(fn=cmd_up)

    s = idx(sub.add_parser("dupe", help="exact duplicate report"))
    s.add_argument("source")
    s.add_argument("--out")
    s.add_argument("--self-only", action="store_true",
                   help="pairs within the source only (skip the index)")
    s.set_defaults(fn=cmd_dupe)

    s = sub.add_parser("near", help="near-duplicate clusters (MinHash/LSH)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="url")
    s.add_argument("--out")
    s.add_argument("--sigs", help="signature index dir: reuse stored "
                   "signatures (incremental) and persist the updated store")
    s.set_defaults(fn=cmd_near)

    s = sub.add_parser("tiers", help="tiered dedup attribution "
                       "(exact → normalized → near)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="url")
    s.add_argument("--out")
    s.add_argument("--store", help="fused store dir: reuse stored digests/"
                   "signatures (incremental) and persist the updated store")
    s.add_argument("--budget-ppm", type=int, help="print the 4-row budget "
                   "plan (survivors per cascade prefix vs total*ppm/1e6) "
                   "instead of per-doc tiers")
    s.add_argument("--weight-col", default="n_chars",
                   help="weight column for --budget-ppm (default n_chars)")
    s.set_defaults(fn=cmd_tiers)

    s = idx(sub.add_parser("search", help="substring search over the index"))
    s.add_argument("term")
    s.add_argument("--column", default="url")
    s.add_argument("--nocase", action="store_true")
    s.add_argument("--name", action="store_true", help="basename only")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_search)

    s = idx(sub.add_parser("ls", help="list index rows"))
    s.add_argument("--bucket")
    s.set_defaults(fn=cmd_ls)

    s = idx(sub.add_parser("export", help="bucket -> dupers CSV"))
    s.add_argument("--bucket", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_export)

    s = idx(sub.add_parser("import", help="dupers CSV -> index"))
    s.add_argument("csv")
    s.set_defaults(fn=cmd_import)

    s = idx(sub.add_parser("mv", help="rename a bucket"))
    s.add_argument("old")
    s.add_argument("new")
    s.set_defaults(fn=cmd_mv)

    s = idx(sub.add_parser("rm", help="remove a bucket"))
    s.add_argument("bucket")
    s.set_defaults(fn=cmd_rm)

    s = idx(sub.add_parser("clean", help="drop index rows absent from corpus"))
    s.add_argument("corpus")
    s.set_defaults(fn=cmd_clean)

    s = idx(sub.add_parser("backup", help="snapshot the index dir"))
    s.add_argument("--tag", default="snap")
    s.add_argument("--list", action="store_true")
    s.set_defaults(fn=cmd_backup)

    s = idx(sub.add_parser("db", help="per-bucket info + grand total"))
    s.set_defaults(fn=cmd_db)

    s = sub.add_parser("rank", help="host PageRank/HITS from raw html")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="url")
    s.add_argument("--html-col", default="html")
    s.add_argument("--host-col", default="src_host")
    s.add_argument("--algo", choices=("pagerank", "hits"), default="pagerank")
    s.add_argument("--iters", type=int, default=2)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_rank)

    s = sub.add_parser("select", help="DSIR importance weights / top-k")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="url")
    s.add_argument("--text-col", default="text")
    s.add_argument("--target-col", required=True)
    s.add_argument("--target-value", required=True)
    s.add_argument("--k", type=int, default=0, help="keep only the top-k")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_select)

    s = sub.add_parser("warc", help="ingest WARC/WET files (ISO 28500)")
    s.add_argument("files", nargs="+")
    s.add_argument("--cdx", action="store_true",
                   help="emit the (surt, ts)-sorted capture index instead")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_warc)

    s = sub.add_parser(
        "curate",
        help="noindex filter + main content + host boilerplate removal",
    )
    s.add_argument("corpus")
    s.add_argument("--id-col", default="url")
    s.add_argument("--host-col", default="host")
    s.add_argument("--html-col", default="html")
    s.add_argument("--tokens-per-line", type=int, default=10)
    s.add_argument("--min-docs", type=int, default=2)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_curate)

    s = sub.add_parser("pack", help="sequence-packing layout / windows")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--seq-len", type=int, default=2048)
    s.add_argument("--layout", action="store_true",
                   help="emit the per-doc layout instead of windows")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_pack)

    s = sub.add_parser("mirrors", help="mirror-host detection (Jaccard)")
    s.add_argument("corpus")
    s.add_argument("--host-col", default="host")
    s.add_argument("--text-col", default="text")
    s.add_argument("--min-jaccard", type=float, default=0.5)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_mirrors)

    s = sub.add_parser(
        "split", help="cluster-keyed train/val/test split (leakage-free)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--bounds", default="90,95",
                   help="percent bounds train/val (rest = test)")
    s.add_argument("--salt", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_split)

    s = sub.add_parser(
        "identity",
        help="page-identity clusters (redirects + canonical + SURT)")
    s.add_argument("corpus", help="pages dataset dir (id, url, html)")
    s.add_argument("redirects", help="redirect edge dataset dir (id, ptr)")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_identity)

    s = sub.add_parser("bm25", help="BM25 ranked search over a token index")
    s.add_argument("corpus", help="corpus dir (builds the index on first use)")
    s.add_argument("index_dir", help="token index dir (created if absent)")
    s.add_argument("terms", nargs="+")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--k", type=int, default=0, help="top-k only")
    s.add_argument("--update", action="store_true",
                   help="index unindexed corpus docs before querying")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_bm25)

    s = sub.add_parser("phrase", help="positional phrase search")
    s.add_argument("corpus", help="corpus dir (builds the index on first use)")
    s.add_argument("index_dir", help="positional index dir (created if absent)")
    s.add_argument("terms", nargs="+", help="phrase tokens in order")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_phrase)

    s = sub.add_parser(
        "venn", help="dedup-method overlap histogram (exact/norm/near/simhash)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_venn)

    s = sub.add_parser(
        "mix", help="temperature-weighted source mixing (alpha=0.5)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--key-col", default="source")
    s.add_argument("--target", type=int, required=True,
                   help="target row count across sources")
    s.add_argument("--salt", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_mix)

    s = sub.add_parser(
        "paradedup",
        help="first-occurrence paragraph dedup (keep earliest copy)")
    s.add_argument("corpus")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--tokens-per-line", type=int, default=10)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_paradedup)
    return p


def cmd_bm25(a) -> int:
    import ray.data as rd

    from dupers_ray.pipelines.invindex import bm25_scores, build_token_index

    if not os.path.exists(os.path.join(a.index_dir, "_stats.json")):
        build_token_index(
            _read(a.corpus), a.index_dir,
            id_col=a.id_col, text_col=a.text_col,
        )
        print(f"bm25: built index at {a.index_dir}")
    elif a.update:
        from dupers_ray.pipelines.invindex import update_token_index

        try:
            n = update_token_index(
                _read(a.corpus), a.index_dir,
                id_col=a.id_col, text_col=a.text_col,
            )
        except FileNotFoundError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"bm25: indexed {n} new docs")
    out = bm25_scores(a.index_dir, a.terms, id_col=a.id_col)
    if a.k:
        out = out.sort("score", descending=True).limit(a.k)
        out = rd.from_pandas(out.to_pandas())  # small: k rows
    _emit(out, a.out, "bm25")
    return 0


def cmd_phrase(a) -> int:
    from dupers_ray.pipelines.invindex import build_phrase_index, phrase_search

    if not os.path.isdir(a.index_dir) or not os.listdir(a.index_dir):
        build_phrase_index(
            _read(a.corpus), a.index_dir,
            id_col=a.id_col, text_col=a.text_col,
        )
        print(f"phrase: built positional index at {a.index_dir}")
    out = phrase_search(a.index_dir, a.terms, id_col=a.id_col)
    _emit(out, a.out, "phrase")
    return 0


def cmd_venn(a) -> int:
    import ray.data as rd

    from dupers_ray.pipelines.venn import dedup_method_venn

    hist = dedup_method_venn(
        _read(a.corpus), id_col=a.id_col, text_col=a.text_col
    )
    _emit(rd.from_arrow(hist), a.out, "venn")
    return 0


def cmd_mix(a) -> int:
    from dupers_ray.stages.budget import temperature_sample

    out = temperature_sample(
        _read(a.corpus), id_col=a.id_col, key_col=a.key_col,
        target_rows=a.target, salt=a.salt,
    )
    _emit(out, a.out, "mix")
    return 0


def cmd_paradedup(a) -> int:
    from dupers_ray.stages.linededup import dedup_paragraphs_first

    out = dedup_paragraphs_first(
        _read(a.corpus), id_col=a.id_col, text_col=a.text_col,
        tokens_per_line=a.tokens_per_line,
    )
    _emit(out, a.out, "paradedup")
    return 0


def main(argv: list[str] | None = None) -> int:
    a = build_parser().parse_args(argv)
    # M13: validate path-like args before any dataset I/O (reference
    # WindowsChk runs on every task's directory args, task.go callers)
    for attr in ("corpus", "index", "out", "store", "source"):
        v = getattr(a, attr, None)
        if isinstance(v, str):
            msg = windows_path_check(v)
            if msg:
                print(f"error: {msg}", file=sys.stderr)
                return 2
    _ray_ready()
    return a.fn(a)


if __name__ == "__main__":
    sys.exit(main())
