"""Driver contract for the graft builder (Ray Data target).

The driver calls ``entry()`` as a smoke check (Ray already initialised),
runs each ``queries()[name](sf_dir)`` at sf=0.01 and compares against the
matching ``oracle_sql()[name]`` via DuckDB. No ray.init()/shutdown() here
or in dupers_ray library code — sessions are owned by the driver, bench.py
and the test fixture.

Engine: dupers_ray — see SURVEY.md §2 for the operator inventory each query
maps to.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import ray.data as rd


def _tbl(sf_dir: str, name: str, columns: list | None = None) -> "rd.Dataset":
    # Ray does NOT push a later select_columns() into read_parquet (see
    # dupers_ray/pipelines/dupe.py:54), so column pruning must happen HERE:
    # every query passes the columns it actually touches so only those bytes
    # leave storage (VERDICT.md round-2 item 6).
    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def entry() -> Any:
    """Flagship: full dupe pipeline (exact digests + MinHash/LSH near-dup +
    connected components) over the sf0.001 documents corpus → one cluster
    assignment per doc (BASELINE.json:north_rule shape)."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters

    docs = _tbl("/root/testdata/sf0.001", "documents", ["doc_id", "text"])
    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return dupe_clusters(docs, cfg)


# ---------------------------------------------------------------- queries

def _q_exact_canonical(sf_dir: str):
    from dupers_ray.pipelines.exact_dedup import exact_canonical

    return exact_canonical(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), id_col="doc_id", content_col="text"
    )


def _q_soft_dedup_weights(sf_dir: str):
    """SoftDeDup reweighting (pipelines/exact_dedup.soft_dedup_weights):
    every non-empty doc kept with weight 1/n_dups of its exact-digest
    group — the keep-everything alternative to DelDupeFiles. Oracle:
    one window count over sha256(text)."""
    from dupers_ray.pipelines.exact_dedup import soft_dedup_weights

    return soft_dedup_weights(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", content_col="text",
    )


def _q_main_content(sf_dir: str):
    """Boilerplate-vs-content extraction by link density (stages/extract.
    main_content_one — Kohlschütter et al. 2010 boilerpipe heuristic):
    over block-structured pages with planted links-only nav/footer, a
    prose block, and an arithmetic promo block on doc_id % 4 == 0, the
    extractor must keep exactly the prose + promo. ONE streaming
    map_batches pass; oracle restates the planted arithmetic."""
    import pyarrow as _pa

    from dupers_ray.stages.extract import extract_main_content
    from dupers_ray.synth import synth_doc_html_blocks

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pages = docs.map_batches(
        synth_doc_html_blocks, batch_format="pyarrow", zero_copy_batch=True
    )
    return pages.map_batches(
        extract_main_content, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        lambda t: t.select(["doc_id", "main_text"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_noindex_filter(sf_dir: str):
    """Crawl-politeness filter (stages/filters.drop_noindex): drop pages
    whose <meta name=robots> declares noindex — planted on
    doc_id % 7 == 3 in the block pages. One vectorized Arrow RE2 match
    per batch directly over the html BYTES; oracle restates the planted
    arithmetic. Returns the kept (indexable) doc ids + text lengths."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from dupers_ray.stages.filters import drop_noindex
    from dupers_ray.synth import synth_doc_html_blocks

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pages = docs.map_batches(
        synth_doc_html_blocks, batch_format="pyarrow", zero_copy_batch=True
    )
    kept = drop_noindex(pages)
    return kept.map_batches(
        lambda t: _pa.table({
            "doc_id": t.column("doc_id"),
            "html_bytes": _pc.binary_length(t.column("html")).cast(_pa.int64()),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_latest_snapshot(sf_dir: str):
    """Newest capture per key (pipelines/maintenance.latest_per_key —
    the crawl-snapshot dedup: only a url's latest capture seeds the
    index; reference re-walk overwrites bucket entries the same way,
    dupe.go:955-963). Per-batch combiner keeps one row per key per
    batch, so the groupby shuffles keys x blocks rows, never the corpus.
    Deterministic (ts, event_id) tie-break; oracle is the row_number
    window."""
    from dupers_ray.pipelines.maintenance import latest_per_key

    return latest_per_key(
        _tbl(sf_dir, "events", ["user_id", "ts", "event_id"]),
        key_col="user_id", order_col="ts", tie_col="event_id",
    )


def _q_robots_check(sf_dir: str):
    """RFC 9309 robots.txt gate (stages/robots.py — actor-pool stage,
    rules compiled once per actor from ONE broadcast dict): host
    h = doc_id % 23 disallows /p{h%5} but allows the more specific
    /p{h%5}/ok (longest-match precedence), and every host disallows
    /q* (wildcard). Page paths are planted arithmetically, so the
    allowed flag is pure doc_id arithmetic the oracle states
    directly."""
    import pyarrow as _pa

    from dupers_ray.stages.robots import robots_check

    robots = {
        f"host{h}.example": (
            "User-agent: *\n"
            f"Disallow: /p{h % 5}\n"
            f"Allow: /p{h % 5}/ok\n"
            "Disallow: /q*\n"
        )
        for h in range(23)
    }

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        hosts, paths = [], []
        for i in ids:
            h = i % 23
            hosts.append(f"host{h}.example")
            if i % 11 == 5:
                paths.append(f"/q{i % 3}/z")
            else:
                paths.append(
                    f"/p{i % 5}" + ("/ok" if i % 7 == 0 else "/x")
                )
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "host": _pa.array(hosts, _pa.string()),
            "path": _pa.array(paths, _pa.string()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    out = robots_check(pages, robots)
    return out.map_batches(
        lambda t: t.select(["doc_id", "allowed"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_charset_transcode(sf_dir: str):
    """Charset sniff + transcode-at-ingest (stages/extract.sniff_charset
    / transcode_html — WHATWG sniff subset: BOM, then meta charset,
    then utf-8): pages planted in utf-16le-BOM (doc_id%3==1),
    meta-labelled latin-1 (%3==2) and plain utf-8, all carrying the
    non-ASCII marker ``café``, must come back as IDENTICAL utf-8 text
    with the right label. Oracle states label arithmetic + the exact
    text."""
    import pyarrow as _pa

    from dupers_ray.stages.extract import extract_text_one, transcode_html

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        pages = []
        for i, tx in zip(ids, texts):
            body = f"<p>{tx or ''} café {i}</p>"
            if i % 3 == 1:
                raw = ("<html>" + body + "</html>").encode("utf-16")  # BOM'd
            elif i % 3 == 2:
                raw = (
                    '<html><head><meta charset="iso-8859-1"></head>'
                    + body + "</html>"
                ).encode("latin-1")
            else:
                raw = ("<html>" + body + "</html>").encode("utf-8")
            pages.append(raw)
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "html": _pa.array(pages, _pa.binary()),
        })

    def finish(t: _pa.Table) -> _pa.Table:
        texts = [
            extract_text_one(b) for b in t.column("html").to_pylist()
        ]
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "charset": t.column("charset"),
            "text": _pa.array(texts, _pa.string()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return pages.map_batches(
        transcode_html, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def _q_surt_keys(sf_dir: str):
    """SURT keys (stages/urlnorm.surt_key — the openwayback/CDX
    sort-friendly URL transform): arithmetic crawl URLs, half carrying a
    www. prefix the transform must strip, run through canonical_url →
    surt_key; the oracle states the reversed-host arithmetic directly
    (both www and bare variants land on the same key)."""
    import pyarrow as _pa

    from dupers_ray.stages.urlnorm import canonical_url, surt_key

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        urls = [
            f"https://{'www.' if i % 2 == 0 else ''}sub{i % 5}"
            f".site{i % 97}.example/p{i % 4}/x?b={i % 3}&a=1"
            for i in ids
        ]
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "url": _pa.array(urls, _pa.string()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    out = pages.map_batches(
        canonical_url, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        surt_key, batch_format="pyarrow", zero_copy_batch=True
    )
    return out.map_batches(
        lambda t: t.select(["doc_id", "surt"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_warc_roundtrip(sf_dir: str):
    """From-scratch WARC container (sources/warc.py, ISO 28500 — the
    actual Common-Crawl page format): per batch, docs become response
    records with arithmetic url/date, serialized as per-record gzip
    members (the CC layout) and parsed BACK through the reader — url,
    second-resolution WARC-Date, and the HTTP-header-stripped body must
    all survive, which the oracle states directly."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from dupers_ray.sources.warc import build_warc, parse_warc

    def roundtrip(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        recs = [
            (
                f"https://host{i}.example/p",
                1_700_000_000_000_000 + i * 1_000_000,
                f"<p>{tx or ''}</p>".encode(),
            )
            for i, tx in zip(ids, texts)
        ]
        parsed = parse_warc(build_warc(recs, gzip_members=True))
        assert parsed.column("warc_error").null_count == len(parsed)
        return _pa.table({
            "url": parsed.column("url"),
            "warc_ts": parsed.column("warc_ts"),
            "n_bytes": _pc.binary_length(parsed.column("html")).cast(
                _pa.int64()
            ),
        })

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        roundtrip, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_cdx_index(sf_dir: str):
    """CDX capture index (sources/warc.cdx_index — the index Common
    Crawl publishes next to its WARCs): arithmetic pages → WARC build →
    parse → canonical/SURT → sha256 digest → ONE global (surt, ts) sort
    (the intended all-to-all of index building). Composes three
    oracle-green stages; the oracle states every column directly."""
    import pyarrow as _pa

    from dupers_ray.sources.warc import build_warc, cdx_index, parse_warc

    def to_pages(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        recs = [
            (
                f"https://host{i}.example/p",
                1_700_000_000_000_000 + i * 1_000_000,
                f"<p>{tx or ''}</p>".encode(),
            )
            for i, tx in zip(ids, texts)
        ]
        return parse_warc(build_warc(recs, gzip_members=True)).drop_columns(
            ["warc_error"]
        )

    pages = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        to_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return cdx_index(pages)


def _q_wet_roundtrip(sf_dir: str):
    """WET sidecar (Common Crawl's extracted-text companion to WARC:
    ``conversion`` records whose payload is the bare utf-8 text, no
    HTTP headers): build → parse with ``types=('conversion',)`` — the
    reader must keep conversion records, skip the interleaved
    ``response`` records, and return the text bytes verbatim."""
    import pyarrow as _pa

    from dupers_ray.sources.warc import build_warc, parse_warc

    def roundtrip(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        buf = bytearray()
        for i, tx in zip(ids, texts):
            url = f"https://host{i}.example/p"
            ts = 1_700_000_000_000_000 + i * 1_000_000
            # interleave a response record the conversion parse must skip
            buf += build_warc([(url, ts, b"<p>ignored</p>")])
            rec = build_warc(
                [(url, ts, (tx or "").encode())], http_headers=False
            )
            buf += rec.replace(
                b"WARC-Type: response", b"WARC-Type: conversion", 1
            )
        parsed = parse_warc(bytes(buf), types=("conversion",))
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "url": parsed.column("url"),
            "text": parsed.column("html").cast(_pa.string()),
        })

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        roundtrip, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_web_curated(sf_dir: str):
    """End-to-end WEB curation composition over block pages: noindex
    filter → link-density main-content extraction → host-scoped
    boilerplate removal, each stage individually oracle-green
    (noindex_filter / main_content / host_boilerplate). One synth pass,
    one content pass, the boilerplate two-pass — no joins; the oracle
    chains the same three statements."""
    import pyarrow as _pa

    from dupers_ray.stages.extract import extract_main_content
    from dupers_ray.stages.filters import drop_noindex
    from dupers_ray.stages.linededup import remove_host_boilerplate
    from dupers_ray.synth import synth_doc_html_blocks

    docs = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])

    # synth_doc_html_blocks emits (doc_id, html); carry source for the
    # host key of the boilerplate stage
    def with_source(t: _pa.Table) -> _pa.Table:
        page = synth_doc_html_blocks(t)
        return page.append_column("source", t.column("source"))

    pages = docs.map_batches(
        with_source, batch_format="pyarrow", zero_copy_batch=True
    )
    content = drop_noindex(pages).map_batches(
        extract_main_content, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        lambda t: t.select(["doc_id", "source", "main_text"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return remove_host_boilerplate(
        content, id_col="doc_id", text_col="main_text", key_col="source",
        tokens_per_line=10, min_docs=2,
    )


def _q_fast_membership(sf_dir: str):
    """dupers -fast mode (lookupOne over the preloaded Compare map,
    pkg/dupe/dupe.go:919-931; -fast status counts lookups not files,
    dupe.go:376-385): flag whether each doc's sha256 digest already
    exists in a stored index (here: the source='src0' docs) WITHOUT
    filtering — pipelines/maintenance.membership_flags, count-gated
    broadcast-or-cogroup. Oracle states digest membership as text
    membership (sha256 equality ≡ byte equality)."""
    import pyarrow.compute as _pc

    from dupers_ray.pipelines.maintenance import membership_flags
    from dupers_ray.stages.digest import digest_dataset

    docs = digest_dataset(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    )
    index = docs.filter(
        expr="source == 'src0'"
    ).map_batches(
        lambda t: t.select(["digest"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    flagged = membership_flags(docs, index, key_col="digest")
    return flagged.map_batches(
        lambda t: t.select(["doc_id", "in_index"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_exact_pairs(sf_dir: str):
    from dupers_ray.pipelines.exact_dedup import exact_dupe_pairs

    return exact_dupe_pairs(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), id_col="doc_id", content_col="text"
    )


def _q_exact_pairs_trunc(sf_dir: str):
    """Pairs over prefix-40 content — guarantees real duplicate groups at
    small sf so the pair-emission path is value-checked, not just schema-
    checked (full-text corpus has no exact dups at sf<=0.01)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.exact_dedup import exact_dupe_pairs

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def trunc(t: "pa.Table") -> "pa.Table":
        cut = pc.utf8_slice_codeunits(t.column("text"), 0, 40)
        return t.set_column(t.column_names.index("text"), "text", cut)

    return exact_dupe_pairs(
        docs.map_batches(trunc, batch_format="pyarrow"),
        id_col="doc_id",
        content_col="text",
    )


def _q_count_by_source(sf_dir: str):
    from dupers_ray.pipelines.maintenance import counts_by_bucket

    return counts_by_bucket(
        _tbl(sf_dir, "documents", ["source", "n_chars"]), bucket_col="source", size_col="n_chars"
    )


def _q_info(sf_dir: str):
    """`db` info parity: per-bucket counts/bytes + grand total row."""
    from dupers_ray.pipelines.maintenance import info_table

    return info_table(
        _tbl(sf_dir, "documents", ["source", "n_chars"]), bucket_col="source", size_col="n_chars"
    )


def _q_search_text(sf_dir: str):
    from dupers_ray.pipelines.search import search

    return search(
        _tbl(sf_dir, "documents", ["doc_id", "source", "text"]), "join", column="text", exact=True,
        keep_cols=["doc_id", "source"],
    )


def _q_search_text_nocase(sf_dir: str):
    from dupers_ray.pipelines.search import search

    return search(
        _tbl(sf_dir, "documents", ["doc_id", "source", "text"]), "JOIN", column="text", exact=False,
        keep_cols=["doc_id", "source"],
    )


def _mod3_index(docs):
    """Simulated stored index: docs with doc_id % 3 == 0 (deterministic)."""
    import pyarrow as pa

    def f(t: "pa.Table") -> "pa.Table":
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 == 0))

    return docs.select_columns(["doc_id"]).map_batches(f, batch_format="pyarrow")


def _q_refresh_anti_broadcast(sf_dir: str):
    """`up` parity: docs not yet in the stored index (index := doc_id%3==0)
    via broadcast key-set anti-join (walkCompare, dupe.go:940-966)."""
    from dupers_ray.pipelines.maintenance import anti_join_broadcast

    docs = _tbl(sf_dir, "documents", ["doc_id", "source"])
    keys = [
        k
        for batch in _mod3_index(docs).iter_batches(batch_format="pyarrow")
        for k in batch.column("doc_id").to_pylist()
    ]
    return anti_join_broadcast(
        docs.select_columns(["doc_id", "source"]), keys, key_col="doc_id"
    )


def _q_refresh_anti_shuffle(sf_dir: str):
    """Same semantics with the large-side shuffle anti-join path."""
    from dupers_ray.pipelines.maintenance import anti_join_shuffle

    docs = _tbl(sf_dir, "documents", ["doc_id", "source"])
    return anti_join_shuffle(
        docs.select_columns(["doc_id", "source"]), _mod3_index(docs), key_col="doc_id"
    )


def _q_near_dup_clusters(sf_dir: str):
    """MinHash/LSH + components clusters over documents — the FLAGSHIP.
    Now carries a FULL value oracle: _near_dup_clusters_oracle_sql
    restates every stage (md5 token hashes, rolling shingles, OPH with
    rotation densification, banded star candidates, uint16-fold verify,
    exact-digest union, recursive-CTE components) in DuckDB."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return dupe_clusters(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg)


def _q_near_incremental(sf_dir: str):
    """Incremental flagship (dupers `up`/walkCompare at near-dup level,
    dupe.go:940-966): a signature store is pre-built for doc_id%3==0, then
    `dupe_clusters_incremental` anti-joins the corpus against the store
    and hashes ONLY the remaining docs before clustering stored ∪ fresh
    signatures. Incremental ≡ full recompute is the contract, so this
    SHARES the flagship's full SQL value oracle — the check proves the
    reuse path is value-identical, not merely row-shaped."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters_incremental
    from dupers_ray.pipelines.near_dedup import minhash_signatures

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def mod3(t):
        import pyarrow as pa

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 == 0))

    stored = minhash_signatures(
        docs.select_columns(["doc_id", "text"]).map_batches(
            mod3, batch_format="pyarrow"
        ),
        shingle=cfg.shingle, minhash=cfg.minhash,
        id_col="doc_id", text_col="text", with_digests=True,
    )
    clusters, _sigs = dupe_clusters_incremental(
        docs.select_columns(["doc_id", "text"]), stored, cfg,
        mapping_ds=docs.select_columns(["doc_id"]),
    )
    return clusters


def _q_near_decontam(sf_dir: str):
    """NEAR-dup decontamination (pipelines/decontam.near_decontaminate):
    blocklist = documents with doc_id %% 11 == 0, corpus = the rest; drop
    every corpus doc whose MinHash band buckets intersect a blocklist
    doc's AND whose uint16 signature-fold agreement reaches the config
    threshold. Full value oracle: the flagship's shared signature-pipeline
    SQL + cross-side band join + fold verify + anti-join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.decontam import near_decontaminate

    docs = _tbl(sf_dir, "documents", ["doc_id", "source", "text"])

    def side(rem_keep: bool):
        def f(t: "pa.Table") -> "pa.Table":
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 11 == 0) != rem_keep
            return t.filter(pa.array(mask))
        return f

    corpus = docs.select_columns(["doc_id", "source", "text"]).map_batches(
        side(True), batch_format="pyarrow", zero_copy_batch=True
    )
    blocklist = docs.select_columns(["doc_id", "text"]).map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return near_decontaminate(corpus, blocklist).select_columns(
        ["doc_id", "source"]
    )


def _q_near_decontam_join(sf_dir: str):
    """The shuffle path of near_decontaminate (band-hash cogroup + fold16
    join verify, for blocklists too big to broadcast) — strategies are
    identical by construction, so this SHARES the near_decontam oracle."""
    import pyarrow as pa

    from dupers_ray.pipelines.decontam import near_decontaminate

    docs = _tbl(sf_dir, "documents", ["doc_id", "source", "text"])

    def side(rem_keep: bool):
        def f(t: "pa.Table") -> "pa.Table":
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 11 == 0) != rem_keep))
        return f

    corpus = docs.select_columns(["doc_id", "source", "text"]).map_batches(
        side(True), batch_format="pyarrow", zero_copy_batch=True
    )
    blocklist = docs.select_columns(["doc_id", "text"]).map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return near_decontaminate(
        corpus, blocklist, strategy="join"
    ).select_columns(["doc_id", "source"])


def _q_near_contam_report(sf_dir: str):
    """Contamination audit pairs (decontam.near_contamination_report):
    (doc, blocklist doc, uint16-fold agreement count) for every pair the
    near filter acts on — integer n_agree makes the whole report value-
    oracle-able."""
    import pyarrow as pa

    from dupers_ray.pipelines.decontam import near_contamination_report

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def side(rem_keep: bool):
        def f(t: "pa.Table") -> "pa.Table":
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 11 == 0) != rem_keep))
        return f

    corpus = docs.select_columns(["doc_id", "text"]).map_batches(
        side(True), batch_format="pyarrow", zero_copy_batch=True
    )
    blocklist = docs.select_columns(["doc_id", "text"]).map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return near_contamination_report(corpus, blocklist)


def _q_substring_decontam(sf_dir: str):
    """Verbatim-quote decontamination (decontam.substring_decontaminate):
    drop corpus docs CONTAINING any blocklist doc's full text — exactly
    SQL EXISTS position(b.text IN d.text) > 0."""
    import pyarrow as pa

    from dupers_ray.pipelines.decontam import substring_decontaminate

    docs = _tbl(sf_dir, "documents", ["doc_id", "source", "text"])

    def side(rem_keep: bool):
        def f(t: "pa.Table") -> "pa.Table":
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 11 == 0) != rem_keep))
        return f

    corpus = docs.select_columns(["doc_id", "source", "text"]).map_batches(
        side(True), batch_format="pyarrow", zero_copy_batch=True
    )
    blocklist = docs.select_columns(["doc_id", "text"]).map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return substring_decontaminate(corpus, blocklist).select_columns(
        ["doc_id", "source"]
    )


def _near_contam_report_oracle_sql() -> str:
    """The near_decontam oracle's candidate+fold machinery, emitting the
    audit pairs with integer agreement counts instead of the anti-join."""
    prefix, thr = _sig_sql_prefix()
    return f"""
        WITH RECURSIVE {prefix}, bandrows AS (
            SELECT doc_id, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp GROUP BY doc_id, CAST(bin // 4 AS INTEGER)
        ), folds AS (
            SELECT doc_id, list(comp & 65535::UBIGINT ORDER BY bin) AS f16
            FROM sigcomp GROUP BY doc_id
        ), cand AS (
            SELECT DISTINCT c.doc_id AS cid, b.doc_id AS bid
            FROM bandrows c JOIN bandrows b
              ON c.band = b.band AND c.sub = b.sub
            WHERE c.doc_id % 11 <> 0 AND b.doc_id % 11 = 0
        ), rep AS (
            SELECT c.cid AS doc_id, c.bid AS block_id,
                   CAST(len(list_filter([x FOR x IN range(1, 129)],
                                        i -> fa.f16[i] = fb.f16[i]))
                        AS BIGINT) AS n_agree
            FROM cand c
            JOIN folds fa ON fa.doc_id = c.cid
            JOIN folds fb ON fb.doc_id = c.bid
        )
        SELECT doc_id, block_id, n_agree FROM rep
        WHERE (n_agree / 128.0) >= {thr}
    """


def _near_decontam_oracle_sql() -> str:
    """SQL restatement of _q_near_decontam on the shared signature-pipeline
    prefix: band sub-signature tuples per doc, DISTINCT cross-side
    candidate pairs on (band, sub) equality (≙ the engine's mixed band
    hashes, equal tuples iff equal hashes modulo 2^-64 collisions),
    uint16-fold agreement ≥ threshold, anti-join the contaminated ids."""
    prefix, thr = _sig_sql_prefix()
    return f"""
        WITH RECURSIVE {prefix}, bandrows AS (
            SELECT doc_id, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp GROUP BY doc_id, CAST(bin // 4 AS INTEGER)
        ), folds AS (
            SELECT doc_id, list(comp & 65535::UBIGINT ORDER BY bin) AS f16
            FROM sigcomp GROUP BY doc_id
        ), cand AS (
            SELECT DISTINCT c.doc_id AS cid, b.doc_id AS bid
            FROM bandrows c JOIN bandrows b
              ON c.band = b.band AND c.sub = b.sub
            WHERE c.doc_id % 11 <> 0 AND b.doc_id % 11 = 0
        ), bad AS (
            SELECT DISTINCT c.cid FROM cand c
            JOIN folds fa ON fa.doc_id = c.cid
            JOIN folds fb ON fb.doc_id = c.bid
            WHERE (len(list_filter([x FOR x IN range(1, 129)],
                                   i -> fa.f16[i] = fb.f16[i])) / 128.0) >= {thr}
        )
        SELECT d.doc_id, d.source FROM documents d
        WHERE d.doc_id % 11 <> 0
          AND d.doc_id NOT IN (SELECT cid FROM bad)
    """


def _q_dedup_tiers(sf_dir: str):
    """Tiered dedup attribution (pipelines/tiers.dedup_tiers): every doc
    labeled with the FIRST tier that removes it — exact (byte-identical),
    normalized (C4-canonicalized identical among exact survivors), near
    (flagship MinHash cluster among earlier survivors, min-id keeps) or
    kept. One fused text scan; full value oracle on the shared
    signature-pipeline SQL."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import dedup_tiers

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return dedup_tiers(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg)


def _q_tier_summary(sf_dir: str):
    """(tier, n_docs) rollup of dedup_tiers — the Status/Info-style report
    for the tier cascade."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import dedup_tiers, tier_summary

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return tier_summary(dedup_tiers(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg))


def _q_tier_budget_plan(sf_dir: str):
    """Budgeted tier planning (pipelines/tiers.tier_budget_plan): for
    each cascade prefix (none → +exact → +normalized → +near), the
    surviving docs and n_chars mass, the integer budget
    total*600000//10^6, and whether the prefix fits it — the "which
    tiers do I need for my token budget" readout. The removed set
    (duplicates only) broadcasts; two streaming passes; 4-row output.
    Oracle: the full tiers SQL as a CTE + windowed prefix sums."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import tier_budget_plan

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return tier_budget_plan(
        _tbl(sf_dir, "documents", ["doc_id", "text", "n_chars"]), cfg,
        weight_col="n_chars", budget_ppm=600_000,
    )


def _tier_budget_plan_oracle_sql() -> str:
    return f"""
        WITH t AS ({_tiers_oracle_sql()}),
        w AS (
            SELECT t.doc_id, t.tier, d.n_chars
            FROM t JOIN documents d ON d.doc_id = t.doc_id
        ),
        base AS (
            SELECT CAST(count(*) AS BIGINT) nd,
                   CAST(sum(n_chars) AS BIGINT) nc
            FROM w
        ),
        o AS (
            SELECT * FROM (VALUES ('exact', 1), ('normalized', 2),
                                  ('near', 3)) AS v(tier, ord)
        ),
        rm AS (
            SELECT o.ord, o.tier,
                   CAST(count(w.doc_id) AS BIGINT) rd,
                   CAST(COALESCE(sum(w.n_chars), 0) AS BIGINT) rc
            FROM o LEFT JOIN w ON w.tier = o.tier
            GROUP BY o.ord, o.tier
        ),
        cum AS (
            SELECT ord, tier,
                   sum(rd) OVER (ORDER BY ord) crd,
                   sum(rc) OVER (ORDER BY ord) crc
            FROM rm
        )
        SELECT CAST(0 AS BIGINT) AS tiers_applied, 'none' AS tier,
               base.nd AS n_docs_surviving,
               base.nc AS n_chars_surviving,
               CAST(base.nc * 600000 // 1000000 AS BIGINT) AS budget,
               base.nc <= base.nc * 600000 // 1000000 AS meets_budget
        FROM base
        UNION ALL
        SELECT CAST(cum.ord AS BIGINT), cum.tier,
               -- windowed sum(BIGINT) promotes to HUGEINT (-> float64 in
               -- pandas, breaking the driver's dtype-sensitive hash on
               -- value-identical rows — same class as the simhash red);
               -- cast the subtractions back so UNION keeps BIGINT
               CAST(base.nd - cum.crd AS BIGINT),
               CAST(base.nc - cum.crc AS BIGINT),
               CAST(base.nc * 600000 // 1000000 AS BIGINT),
               (base.nc - cum.crc) <= base.nc * 600000 // 1000000
        FROM cum, base
        ORDER BY tiers_applied
    """


def _tier_summary_oracle_sql() -> str:
    """The full tiers oracle nested as a CTE + one GROUP BY."""
    return f"""
        WITH t AS ({_tiers_oracle_sql()})
        SELECT tier, CAST(count(*) AS BIGINT) AS n_docs FROM t GROUP BY tier
    """


def _q_near_source_overlap(sf_dir: str):
    """Cross-source overlap at NEAR-dup granularity (pipelines/overlap
    .near_source_overlap): doc pairs sharing a flagship cluster, counted
    per (source_a, source_b). Full oracle: the flagship cluster SQL as a
    CTE + per-(cluster, source) counts + triangular pair arithmetic."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.overlap import near_source_overlap

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return near_source_overlap(_tbl(sf_dir, "documents", ["doc_id", "text", "source"]), cfg)


def _near_source_overlap_oracle_sql() -> str:
    return f"""
        WITH clus AS ({_near_dup_clusters_oracle_sql()}),
        j AS (
            SELECT c.cluster_id, d.source
            FROM clus c JOIN documents d USING (doc_id)
        ), cnt AS (
            SELECT cluster_id, source, count(*) AS n FROM j GROUP BY 1, 2
        ), p AS (
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(CASE WHEN a.source = b.source
                             THEN (a.n * (a.n - 1)) // 2
                             ELSE a.n * b.n END AS BIGINT) AS np
            FROM cnt a JOIN cnt b
              ON a.cluster_id = b.cluster_id AND a.source <= b.source
        )
        SELECT source_a, source_b, CAST(sum(np) AS BIGINT) AS n_pairs
        FROM p GROUP BY 1, 2 HAVING sum(np) > 0
    """


def _q_dedup_tiers_semantic(sf_dir: str):
    """FOUR-tier cascade (pipelines/tiers.dedup_tiers_semantic): exact →
    normalized → near → semantic (cosine components over text-survivor
    embeddings). Driven at full probe (n_planes=0) so the semantic edge
    set is exact and the whole cascade carries a value oracle."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import dedup_tiers_semantic

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return dedup_tiers_semantic(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), _tbl(sf_dir, "embeddings"), cfg,
        cosine_threshold=0.4, method="lsh", dim=64, n_planes=0, n_tables=2,
    )


def _q_tier_source_summary(sf_dir: str):
    """(tier, source, n_docs) — the provenance cut of tier_summary
    (pipelines/tiers.tier_source_summary)."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import dedup_tiers, tier_source_summary

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    docs = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    return tier_source_summary(dedup_tiers(docs, cfg), docs)


def _q_tiers_incremental(sf_dir: str):
    """Incremental tier cascade (pipelines/tiers.dedup_tiers_incremental):
    a fused store is pre-built for doc_id%3==0, the delta is scanned and
    tiers resolve over stored ∪ fresh. Incremental ≡ full recompute, so
    this SHARES the dedup_tiers oracle — value-checking the reuse path."""
    import pyarrow as pa

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.tiers import (
        dedup_tiers_incremental,
        fused_tier_scan,
    )

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def mod3(t: "pa.Table") -> "pa.Table":
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 == 0))

    stored = fused_tier_scan(
        docs.map_batches(mod3, batch_format="pyarrow"), cfg
    )
    labels, _fused = dedup_tiers_incremental(docs, stored, cfg)
    return labels


def _tiers_oracle_sql(semantic: bool = False, tau: float = 0.4) -> str:
    """SQL restatement of _q_dedup_tiers: exact groups (sha-256 of raw
    text, non-empty), normalized groups (sha-256 of the C4-normalized
    text, non-empty tn, among exact survivors), then the flagship
    signature pipeline over the remaining survivors (s2) → band join →
    fold verify → recursive-closure components → min-doc-id keeper per
    cluster. No exact-edge union in the near tier: tier 1 already
    removed byte-identical docs, so exact groups in s2 are singletons
    (the engine's digest index finds the same empty pair set).

    ``semantic=True`` appends the fourth tier: cosine-similarity
    components (threshold ``tau``) over the text-tier survivors'
    embeddings, min-doc-id keeps — restating
    ``tiers.dedup_tiers_semantic`` at exact-edge (full-probe) config."""
    prefix, thr = _sig_sql_prefix(table="s2")
    semantic_ctes = ""
    semantic_case = ""
    if semantic:
        semantic_ctes = f""", s3 AS (
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM r1)
              AND d.doc_id NOT IN (SELECT doc_id FROM r2)
              AND d.doc_id NOT IN (SELECT doc_id FROM r3)
        ), sem_edges AS (
            SELECT a.vec_id AS u, b.vec_id AS v
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE a.vec_id IN (SELECT doc_id FROM s3)
              AND b.vec_id IN (SELECT doc_id FROM s3)
              AND list_cosine_similarity(a.embedding, b.embedding) >= {tau}
        ), undir2 AS (
            SELECT u, v FROM sem_edges UNION SELECT v, u FROM sem_edges
        ), reach2(node, lbl) AS (
            SELECT u, u FROM undir2
            UNION
            SELECT e2.v, r.lbl FROM reach2 r JOIN undir2 e2 ON e2.u = r.node
        ), comp2 AS (
            SELECT node, min(lbl) AS cluster FROM reach2 GROUP BY node
        ), r4 AS (
            SELECT node AS doc_id FROM comp2 WHERE node <> cluster
        )"""
        semantic_case = (
            "WHEN d.doc_id IN (SELECT doc_id FROM r4) THEN 'semantic'\n"
            "                    "
        )
    return rf"""
        WITH RECURSIVE e AS (
            SELECT doc_id, sha256(text) AS dg FROM documents
            WHERE text IS NOT NULL AND length(text) > 0
        ), r1 AS (
            SELECT doc_id FROM (
                SELECT doc_id, min(doc_id) OVER (PARTITION BY dg) AS m FROM e
            ) WHERE doc_id <> m
        ), n0 AS (
            SELECT d.doc_id,
                   trim(regexp_replace(regexp_replace(
                       lower(d.text), '[^a-z0-9\s]+', '', 'g'),
                       '\s+', ' ', 'g'), ' ') AS tn
            FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM r1)
        ), r2 AS (
            SELECT doc_id FROM (
                SELECT doc_id, min(doc_id) OVER (PARTITION BY sha256(tn)) AS m
                FROM n0 WHERE tn IS NOT NULL AND length(tn) > 0
            ) WHERE doc_id <> m
        ), s2 AS (
            SELECT d.doc_id, d.text FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM r1)
              AND d.doc_id NOT IN (SELECT doc_id FROM r2)
              AND d.text IS NOT NULL AND length(d.text) > 0
        ), {prefix}, nodes AS (
            SELECT doc_id,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS node
            FROM s2
        ), bandrows AS (
            SELECT s.doc_id, n.node, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp s JOIN nodes n USING (doc_id)
            GROUP BY s.doc_id, n.node, CAST(bin // 4 AS INTEGER)
        ), stars AS (
            SELECT band, sub, min(node) AS anchor, list(node) AS members
            FROM bandrows GROUP BY band, sub HAVING count(*) >= 2
        ), cand AS (
            SELECT DISTINCT anchor AS a, unnest(members) AS b FROM stars
        ), candf AS (
            SELECT a, b FROM cand WHERE a <> b
        ), folds AS (
            SELECT doc_id, list(comp & 65535::UBIGINT ORDER BY bin) AS f16
            FROM sigcomp GROUP BY doc_id
        ), nodefolds AS (
            SELECT n.node, f.f16 FROM folds f JOIN nodes n USING (doc_id)
        ), verified AS (
            SELECT c.a AS src, c.b AS dst
            FROM candf c
            JOIN nodefolds fa ON fa.node = c.a
            JOIN nodefolds fb ON fb.node = c.b
            WHERE (len(list_filter([x FOR x IN range(1, 129)],
                                   i -> fa.f16[i] = fb.f16[i])) / 128.0) >= {thr}
        ), undirected AS (
            SELECT src AS u, dst AS v FROM verified
            UNION SELECT dst, src FROM verified
        ), reach(node, lbl) AS (
            SELECT u, u FROM undirected
            UNION
            SELECT e2.v, r.lbl FROM reach r JOIN undirected e2 ON e2.u = r.node
        ), comp AS (
            SELECT node, min(lbl) AS cluster FROM reach GROUP BY node
        ), clus AS (
            SELECT n.doc_id, COALESCE(c.cluster, n.node) AS cluster_id
            FROM nodes n LEFT JOIN comp c ON c.node = n.node
        ), r3 AS (
            SELECT doc_id FROM (
                SELECT doc_id,
                       min(doc_id) OVER (PARTITION BY cluster_id) AS m
                FROM clus
            ) WHERE doc_id <> m
        ){semantic_ctes}
        SELECT d.doc_id,
               CASE WHEN d.doc_id IN (SELECT doc_id FROM r1) THEN 'exact'
                    WHEN d.doc_id IN (SELECT doc_id FROM r2) THEN 'normalized'
                    WHEN d.doc_id IN (SELECT doc_id FROM r3) THEN 'near'
                    {semantic_case}ELSE 'kept' END AS tier
        FROM documents d
    """


def _q_exact_clusters_trunc(sf_dir: str):
    """The FLAGSHIP dupe pipeline (fused signatures + sharded LSH/digest
    indexes + verify + large/small-star components + assignment) driven to
    an exactly-SQL-predictable output: text truncated to prefix-40 creates
    real duplicate groups, and jaccard_threshold > 1 suppresses every
    near-dup edge, so clusters == exact-digest groups with cluster_id =
    min node id. This moves the cluster path from rows-only to a full
    value-hash oracle check."""
    import dataclasses

    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.config import DedupConfig, MinHashConfig
    from dupers_ray.pipelines.dupe import dupe_clusters

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def trunc(t: "pa.Table") -> "pa.Table":
        cut = pc.utf8_slice_codeunits(t.column("text"), 0, 40)
        return t.set_column(t.column_names.index("text"), "text", cut)

    cfg = DedupConfig(
        id_col="doc_id", text_col="text",
        minhash=MinHashConfig(jaccard_threshold=1.01),
    )
    return dupe_clusters(docs.map_batches(trunc, batch_format="pyarrow"), cfg)


_MOD64 = "18446744073709551616::UHUGEINT"


def _simhash_oracle_sql(thr: int = 3) -> str:
    """SQL restatement of the SEMANTIC definition of simhash_pairs: per-doc
    64-bit sign-of-votes signature over md5-u64 token hashes (Charikar),
    then ALL (node-ordered) pairs at hamming <= thr. The engine's banded
    pigeonhole + per-bucket verify computes exactly this set (a pair at
    distance <= thr agrees on >= 1 of thr+1 bands), so the O(n^2) SQL join
    is a faithful oracle at sf0.01. Tokenizer note: '[a-z0-9_]+' on
    lower() == Python \\w+ on this pure-ASCII-lowercase corpus (checked in
    _q_ngram_jaccard's docstring)."""
    vote_terms = ",\n                   ".join(
        f"sum(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) AS v{b}"
        for b in range(64)
    )
    sig_sum = "\n                     + ".join(
        f"(CASE WHEN v{b} > 0 THEN {1 << b}::UBIGINT ELSE 0::UBIGINT END)"
        for b in range(64)
    )
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tk
            FROM documents
        ), th AS (
            SELECT doc_id, ('0x'||substr(md5(tk),1,16))::UBIGINT AS h FROM toks
        ), votes AS (
            SELECT doc_id,
                   {vote_terms}
            FROM th GROUP BY doc_id
        ), sigs AS (
            SELECT doc_id,
                   ({sig_sum}) AS simhash,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS node
            FROM votes
        )
        SELECT CAST(least(a.node, b.node) AS UBIGINT) AS src,
               CAST(greatest(a.node, b.node) AS UBIGINT) AS dst,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
        FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= {thr}
    """


def _fingerprint_oracle_sql() -> str:
    """SQL restatement of stages/textstats.fingerprint: FNV-style fold of
    md5-u64 token hashes (list_reduce with UHUGEINT mod-2^64 arithmetic —
    DuckDB UBIGINT arithmetic is overflow-checked, so widen per step) then
    the splitmix64 finalizer as a chain of lateral column aliases. Empty
    docs keep acc = 0 before the finalizer, as in the Python kernel."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    def addmod(a: str, b: int) -> str:
        return f"((({a})::UHUGEINT + {b}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
            FROM documents
        ), hs AS (
            SELECT doc_id,
                   list_transform(tk, t -> ('0x'||substr(md5(t),1,16))::UBIGINT) AS hl
            FROM toks
        ), folded AS (
            SELECT doc_id,
                   CASE WHEN len(hl) = 0 THEN 0::UBIGINT
                        ELSE list_reduce(
                            list_prepend(14695981039346656037::UBIGINT, hl),
                            (a, b) -> (((a::UHUGEINT * 1099511628211::UHUGEINT
                                         + b::UHUGEINT)) % {_MOD64})::UBIGINT)
                   END AS acc
            FROM hs
        ), sm AS (
            SELECT doc_id,
                   {addmod('acc', 11400714819323198485)} AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS fingerprint
            FROM folded
        )
        SELECT doc_id, fingerprint FROM sm
    """


def _winnow_sql_core(w: int = 4) -> str:
    """Shared WITH-clauses restating stages/winnow: gram hashes reuse the
    near-dup oracle's construction (md5-u64 token hashes, 5-gram _POLY
    polynomial, splitmix64 — all UHUGEINT mod-2^64) but KEEP the gram's
    1-based token position; the winnowing selection is a ROWS BETWEEN
    w-1 PRECEDING sliding min per doc (full windows, plus the last row
    when the doc has < w grams = the whole-segment window), with the
    rightmost minimum recovered by a positional join + max(pos). Ends
    with CTE ``sel(doc_id, pos, gram)`` (not yet DISTINCT)."""
    from dupers_ray.functions import hashing as _hk
    from dupers_ray.stages import minhash as _mk

    P = int(_mk._POLY)
    GAMMA, M1, M2 = int(_hk._SM_GAMMA), int(_hk._SM_M1), int(_hk._SM_M2)

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    def maddmod(a: str, m: int, b: str) -> str:
        return (
            f"((({a})::UHUGEINT * {m}::UHUGEINT + ({b})::UHUGEINT)"
            f" % {_MOD64})::UBIGINT"
        )

    poly5 = maddmod(
        maddmod(maddmod(maddmod("h0", P, "h1"), P, "h2"), P, "h3"), P, "h4"
    )
    return f"""toks AS (
            SELECT doc_id,
                   list_transform(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                                  t -> ('0x'||substr(md5(t),1,16))::UBIGINT) AS th
            FROM documents
        ), tokpos AS (
            SELECT doc_id,
                   unnest([{{'pos': i, 'h': th[i]}} FOR i IN range(1, len(th)+1)],
                          recursive := true)
            FROM toks WHERE len(th) >= 5
        ), win AS (
            SELECT doc_id, pos, h AS h0,
                   lead(h,1) OVER w AS h1, lead(h,2) OVER w AS h2,
                   lead(h,3) OVER w AS h3, lead(h,4) OVER w AS h4,
                   count(*) OVER (PARTITION BY doc_id) AS n
            FROM tokpos WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
        ), folded AS (
            SELECT doc_id, pos, {poly5} AS acc FROM win WHERE pos <= n - 4
        ), grams AS (
            SELECT doc_id, pos,
                   ((acc::UHUGEINT + {GAMMA}::UHUGEINT) % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', M1)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', M2)} AS x4,
                   xor(x4, x4 >> 31) AS sh
            FROM folded
        ), gstat AS (
            SELECT doc_id, pos, sh,
                   row_number() OVER pw AS rn,
                   count(*) OVER (PARTITION BY doc_id) AS m,
                   min(sh) OVER (pw ROWS BETWEEN {w - 1} PRECEDING
                                 AND CURRENT ROW) AS mn
            FROM grams
            WINDOW pw AS (PARTITION BY doc_id ORDER BY pos)
        ), wins AS (
            SELECT doc_id, pos AS e, mn FROM gstat WHERE rn >= {w} OR rn = m
        ), sel AS (
            SELECT w.doc_id, max(g.pos) AS pos, w.mn AS gram
            FROM wins w JOIN gstat g
              ON g.doc_id = w.doc_id
             AND g.pos BETWEEN w.e - {w - 1} AND w.e
             AND g.sh = w.mn
            GROUP BY w.doc_id, w.e, w.mn
        )"""


def _winnow_oracle_sql(w: int = 4) -> str:
    return f"""
        WITH {_winnow_sql_core(w)}
        SELECT DISTINCT doc_id, pos, gram FROM sel
    """


def _winnow_matches_oracle_sql(w: int = 4, min_shared: int = 2) -> str:
    """stages/winnow.winnow_matches restated: distinct (doc, gram)
    fingerprint sets self-joined on gram value, shared-gram counts per
    unordered pair, thresholded."""
    return f"""
        WITH {_winnow_sql_core(w)}, fps AS (
            SELECT DISTINCT doc_id, gram FROM sel
        )
        SELECT a.doc_id AS src_id, b.doc_id AS dst_id,
               CAST(count(*) AS BIGINT) AS n_shared
        FROM fps a JOIN fps b ON a.gram = b.gram AND b.doc_id > a.doc_id
        GROUP BY 1, 2
        HAVING count(*) >= {min_shared}
    """


def _cdc_sql_core() -> str:
    """Shared WITH-clauses restating stages/cdc: UTF-8 blob → per-byte
    values (hex gather) → 8-byte rolling _POLY fold → splitmix64 →
    boundary where low 6 bits are zero → chunk spans (ends = boundaries
    plus the doc's last byte). Ends with CTE
    ``chunks(doc_id, chunk_idx, cstart, clen, blob_hex)``."""
    from dupers_ray.functions import hashing as _hk
    from dupers_ray.stages import minhash as _mk

    P = int(_mk._POLY)
    GAMMA, M1, M2 = int(_hk._SM_GAMMA), int(_hk._SM_M1), int(_hk._SM_M2)

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    def maddmod(a: str, m: int, b: str) -> str:
        return (
            f"((({a})::UHUGEINT * {m}::UHUGEINT + ({b})::UHUGEINT)"
            f" % {_MOD64})::UBIGINT"
        )

    poly = "b0"
    for j in range(1, 8):
        poly = maddmod(poly, P, f"b{j}")
    return f"""blobs AS (
            SELECT doc_id, hex(encode(text)) AS blob_hex,
                   octet_length(encode(text)) AS n
            FROM documents WHERE octet_length(encode(text)) > 0
        ), bv AS (
            SELECT doc_id, n, unnest(range(1, n+1)) AS pos,
                   unnest([('0x'||substr(blob_hex, i*2-1, 2))::UBIGINT
                           FOR i IN range(1, n+1)]) AS v
            FROM blobs
        ), win AS (
            SELECT doc_id, n, pos,
                   lag(v,7) OVER w AS b0, lag(v,6) OVER w AS b1,
                   lag(v,5) OVER w AS b2, lag(v,4) OVER w AS b3,
                   lag(v,3) OVER w AS b4, lag(v,2) OVER w AS b5,
                   lag(v,1) OVER w AS b6, v AS b7
            FROM bv WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
        ), folded AS (
            SELECT doc_id, pos, {poly} AS acc FROM win WHERE pos >= 8
        ), smx AS (
            SELECT doc_id, pos,
                   ((acc::UHUGEINT + {GAMMA}::UHUGEINT) % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', M1)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', M2)} AS x4,
                   xor(x4, x4 >> 31) AS sm
            FROM folded
        ), bounds AS (
            SELECT doc_id, list(pos) AS bl FROM smx
            WHERE (sm & 63::UBIGINT) = 0 GROUP BY doc_id
        ), ends AS (
            SELECT b.doc_id, b.blob_hex,
                   list_sort(list_distinct(list_append(
                       coalesce(bd.bl, CAST([] AS BIGINT[])), b.n))) AS el
            FROM blobs b LEFT JOIN bounds bd USING (doc_id)
        ), chunks AS (
            SELECT doc_id, blob_hex,
                   unnest([{{'chunk_idx': i,
                             'cstart': CASE WHEN i = 1 THEN 1
                                            ELSE el[i-1] + 1 END,
                             'clen': el[i] - (CASE WHEN i = 1 THEN 1
                                              ELSE el[i-1] + 1 END) + 1}}
                           FOR i IN range(1, len(el)+1)],
                          recursive := true)
            FROM ends
        )"""


def _cdc_chunks_oracle_sql() -> str:
    return f"""
        WITH {_cdc_sql_core()}
        SELECT doc_id, chunk_idx, cstart AS start, clen AS length,
               ('0x'||substr(md5(substr(blob_hex, cstart*2-1, clen*2)),
                             1, 16))::UBIGINT AS chunk_hash
        FROM chunks
    """


def _cdc_stats_oracle_sql() -> str:
    return f"""
        WITH {_cdc_sql_core()}, hashed AS (
            SELECT ('0x'||substr(md5(substr(blob_hex, cstart*2-1, clen*2)),
                                 1, 16))::UBIGINT AS chunk_hash,
                   clen
            FROM chunks
        )
        SELECT CAST(count(*) AS BIGINT) AS total_chunks,
               CAST(count(DISTINCT chunk_hash) AS BIGINT) AS distinct_chunks,
               CAST(sum(clen) AS BIGINT) AS total_bytes,
               CAST((SELECT sum(ml) FROM (
                   SELECT min(clen) AS ml FROM hashed GROUP BY chunk_hash
               )) AS BIGINT) AS distinct_bytes
        FROM hashed
    """


def _sig_sql_prefix(table: str = "documents") -> tuple[str, float]:
    """Shared WITH-clauses restating the OPH signature pipeline
    (stages/minhash) in DuckDB — tokens → md5-u64 hashes → 5-gram
    rolling-polynomial shingles → splitmix64 → 128-bin OPH with rotation
    densification (``sigcomp``: one row per (doc_id, bin) with the
    final uint32 component). Used by the flagship clusters oracle, the
    near-decontamination oracle and the tiered-dedup oracle. ``table``
    is the (doc_id, text) source — a base table or an earlier CTE name.
    Returns (clauses, jaccard_threshold)."""
    MOD = "18446744073709551616::UHUGEINT"

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {MOD})::UBIGINT"

    def maddmod(a: str, m: int, b: str) -> str:
        return (
            f"((({a})::UHUGEINT * {m}::UHUGEINT + ({b})::UHUGEINT)"
            f" % {MOD})::UBIGINT"
        )

    # pull every constant from the LIVE engine config/kernels so a change
    # there breaks loudly in tests rather than silently in the driver
    from dupers_ray.config import MinHashConfig, ShingleConfig
    from dupers_ray.functions import hashing as _hk
    from dupers_ray.stages import minhash as _mk

    scfg, mcfg = ShingleConfig(), MinHashConfig()
    assert scfg.k == 5 and scfg.lowercase, "oracle SQL assumes 5-gram lower"
    assert (mcfg.method, mcfg.num_perm, mcfg.bands, mcfg.rows) == (
        "oph", 128, 32, 4
    ), "oracle SQL assumes OPH 128 = 32x4"
    P = int(_mk._POLY)
    GAMMA, M1, M2 = int(_hk._SM_GAMMA), int(_hk._SM_M1), int(_hk._SM_M2)
    poly5 = maddmod(
        maddmod(maddmod(maddmod("h0", P, "h1"), P, "h2"), P, "h3"), P, "h4"
    )
    clauses = f"""toks AS (
            SELECT doc_id,
                   list_transform(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                                  t -> ('0x'||substr(md5(t),1,16))::UBIGINT) AS th
            FROM {table}
        ), tokpos AS (
            SELECT doc_id,
                   unnest([{{'pos': i, 'h': th[i]}} FOR i IN range(1, len(th)+1)],
                          recursive := true)
            FROM toks WHERE len(th) >= 5
        ), win AS (
            SELECT doc_id, pos, h AS h0,
                   lead(h,1) OVER w AS h1, lead(h,2) OVER w AS h2,
                   lead(h,3) OVER w AS h3, lead(h,4) OVER w AS h4,
                   count(*) OVER (PARTITION BY doc_id) AS n
            FROM tokpos WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
        ), folded AS (
            SELECT doc_id, {poly5} AS acc FROM win WHERE pos <= n - 4
        ), short_folded AS (
            SELECT doc_id, list_reduce(th, (a, b) -> {maddmod('a', P, 'b')}) AS acc
            FROM toks WHERE len(th) BETWEEN 1 AND 4
        ), allf AS (
            SELECT * FROM folded UNION ALL SELECT * FROM short_folded
        ), shingles AS (
            SELECT doc_id,
                   ((acc::UHUGEINT + {GAMMA}::UHUGEINT) % {MOD})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', M1)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', M2)} AS x4,
                   xor(x4, x4 >> 31) AS sh
            FROM allf
        ), binned AS (
            SELECT doc_id, CAST(sh >> 57 AS INTEGER) AS bin,
                   min(sh & 4294967295::UBIGINT) AS val
            FROM shingles GROUP BY 1, 2
        ), grid AS (
            SELECT d.doc_id, g.jj
            FROM (SELECT DISTINCT doc_id FROM binned) d,
                 (SELECT unnest(range(0, 256)) AS jj) g
        ), doubled AS (
            SELECT g.doc_id, g.jj, b.val,
                   CASE WHEN b.val IS NOT NULL THEN g.jj END AS fpos
            FROM grid g LEFT JOIN binned b
              ON b.doc_id = g.doc_id AND b.bin = g.jj % 128
        ), filledw AS (
            SELECT doc_id, jj,
                   last_value(val IGNORE NULLS) OVER w2 AS src,
                   last_value(fpos IGNORE NULLS) OVER w2 AS pos
            FROM doubled
            WINDOW w2 AS (PARTITION BY doc_id ORDER BY jj
                          ROWS UNBOUNDED PRECEDING)
        ), sigcomp AS (
            SELECT doc_id, jj - 128 AS bin,
                   (CASE WHEN jj - pos = 0 THEN src
                         ELSE (src::UHUGEINT
                               + (jj - pos)::UHUGEINT * 2654435769::UHUGEINT)
                              % 4294967296::UHUGEINT
                    END)::UBIGINT AS comp
            FROM filledw WHERE jj >= 128
        )"""
    return clauses, mcfg.jaccard_threshold


def _near_dup_clusters_oracle_sql() -> str:
    """FULL SQL restatement of the flagship dupe pipeline at default
    config — every stage of dupe_clusters reproduced in DuckDB:

    1. tokens -> md5-u64 hashes (hash_str_u64 parity, see simhash oracle);
    2. 5-token rolling-polynomial shingle hashes + splitmix64 (UHUGEINT
       mod-2^64 arithmetic; short docs fold all tokens via list_reduce);
    3. OPH signature: 128 bins from the hash top 7 bits, min of low-32
       bits per bin, rotation densification via a doubled-bin window
       (`last_value IGNORE NULLS` = borrow-from-left, distance-mixed);
    4. LSH candidates: per (band, 4-component sub-signature) bucket,
       star pairs from the min-node anchor (the sharded index's exact
       emission rule; bucket tuples replace band hashes — equal tuples
       iff equal hashes modulo 2^-64 collisions);
    5. verify: uint16-fold equality mean >= jaccard_threshold, exactly
       the broadcast verify's comparison;
    6. exact-digest star pairs unioned (sha256(text) groups);
    7. connected components via recursive-CTE transitive closure with
       min-node labels; singletons keep their own node id.

    O(n^2)-ish only in the closure (bounded at sf0.01); ~3 s in DuckDB.
    This moves the FLAGSHIP query from rows-only to a full value oracle.
    The signature pipeline (toks → sigcomp) is the shared
    ``_sig_sql_prefix`` also used by the near-decontamination oracle.
    """
    prefix, thr = _sig_sql_prefix()
    return f"""
        WITH RECURSIVE {prefix}, nodes AS (
            SELECT doc_id,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS node
            FROM documents
        ), bandrows AS (
            SELECT s.doc_id, n.node, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp s JOIN nodes n USING (doc_id)
            GROUP BY s.doc_id, n.node, CAST(bin // 4 AS INTEGER)
        ), stars AS (
            SELECT band, sub, min(node) AS anchor, list(node) AS members
            FROM bandrows GROUP BY band, sub HAVING count(*) >= 2
        ), cand AS (
            SELECT DISTINCT anchor AS a, unnest(members) AS b FROM stars
        ), candf AS (
            SELECT a, b FROM cand WHERE a <> b
        ), folds AS (
            SELECT doc_id, list(comp & 65535::UBIGINT ORDER BY bin) AS f16
            FROM sigcomp GROUP BY doc_id
        ), nodefolds AS (
            SELECT n.node, f.f16 FROM folds f JOIN nodes n USING (doc_id)
        ), verified AS (
            SELECT c.a AS src, c.b AS dst
            FROM candf c
            JOIN nodefolds fa ON fa.node = c.a
            JOIN nodefolds fb ON fb.node = c.b
            WHERE (len(list_filter([x FOR x IN range(1, 129)],
                                   i -> fa.f16[i] = fb.f16[i])) / 128.0) >= {thr}
        ), exact_stars AS (
            SELECT min(n.node) AS anchor, list(n.node) AS members
            FROM documents d JOIN nodes n USING (doc_id)
            WHERE d.text IS NOT NULL AND length(d.text) > 0
            GROUP BY sha256(d.text) HAVING count(*) >= 2
        ), exact_pairs AS (
            SELECT anchor AS src, unnest(members) AS dst FROM exact_stars
        ), edges AS (
            SELECT src, dst FROM verified
            UNION SELECT src, dst FROM exact_pairs WHERE src <> dst
        ), undirected AS (
            SELECT src AS u, dst AS v FROM edges UNION SELECT dst, src FROM edges
        ), reach(node, lbl) AS (
            SELECT u, u FROM undirected
            UNION
            SELECT e.v, r.lbl FROM reach r JOIN undirected e ON e.u = r.node
        ), comp AS (
            SELECT node, min(lbl) AS cluster FROM reach GROUP BY node
        )
        SELECT n.doc_id, COALESCE(c.cluster, n.node) AS cluster_id
        FROM nodes n LEFT JOIN comp c ON c.node = n.node
    """


def _lang_id_oracle_sql() -> str:
    """SQL reimplementation of stages/textstats.lang_id (stopword-hit
    argmax, first-language-wins ties, threshold max(2, n_words // 50)) —
    generated from the SAME stopword tables so they cannot drift."""
    from dupers_ray.stages.textstats import _STOPWORDS

    langs = list(_STOPWORDS)
    hit_cols = ",\n                   ".join(
        "sum(CASE WHEN w IN ({words}) THEN 1 ELSE 0 END) AS h_{lg}".format(
            words=", ".join(f"'{s}'" for s in sorted(_STOPWORDS[lg])), lg=lg
        )
        for lg in langs
    )
    # ordered argmax: language L wins if >= every LATER language's hits
    # (earlier languages already lost their strict comparison)
    arms = []
    for i, lg in enumerate(langs[:-1]):
        conds = " AND ".join(f"h_{lg} >= h_{other}" for other in langs[i + 1 :])
        arms.append(f"WHEN {conds} THEN '{lg}'")
    argmax = "CASE " + " ".join(arms) + f" ELSE '{langs[-1]}' END"
    best = "greatest(" + ", ".join(f"h_{lg}" for lg in langs) + ")"
    return rf"""
        WITH w AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS w
            FROM documents
        ),
        c AS (
            SELECT doc_id, count(*) AS n,
                   {hit_cols}
            FROM w GROUP BY doc_id
        ),
        p AS (
            SELECT doc_id,
                   CASE WHEN {best} >= greatest(2, n // 50)
                        THEN ({argmax})
                        ELSE 'und' END AS lang_pred
            FROM c
        )
        SELECT d.doc_id, COALESCE(p.lang_pred, 'und') AS lang_pred
        FROM documents d LEFT JOIN p ON d.doc_id = p.doc_id
    """


def _q_token_stats(sf_dir: str):
    """Token counting + quality word/char counts (stages/textstats.py)."""
    from dupers_ray.stages.textstats import quality_stats, token_counts

    out = (
        _tbl(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_counts, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(quality_stats, batch_format="pyarrow", zero_copy_batch=True)
    )
    return out.select_columns(["doc_id", "n_tokens_ws", "n_tokens_bpe", "n_words", "n_chars_q"])


def _q_lang_id(sf_dir: str):
    """Heuristic language ID — rows-only check (stopword-table heuristic)."""
    from dupers_ray.stages.textstats import lang_id

    return (
        _tbl(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lang_id, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["doc_id", "lang_pred"])
    )


def _q_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprints. Full value oracle: md5-u64
    token hashes + FNV fold + splitmix64, all restated in SQL
    (_fingerprint_oracle_sql) with UHUGEINT mod-2^64 arithmetic."""
    from dupers_ray.stages.textstats import fingerprint

    return (
        _tbl(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fingerprint, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["doc_id", "fingerprint"])
    )


def _q_ngram_jaccard(sf_dir: str):
    """Exact word-5-gram Jaccard verification (stages/ngram.py) over ALL
    (src < dst) doc_id pairs capped at doc_id < 600 — the oracle-harness
    candidate set (SQL-reproducible; production candidates come from
    LSH / SimHash / the sharded index, and verify_pairs_exact is the
    same verifier either way). Threshold 0.2 keeps exactly the planted
    near-dup pairs at sf0.01. Tokenizer is \\w+ on lowercased text; the
    sf0.01 corpus is pure-ASCII lowercase so the SQL '[a-z0-9_]+'
    tokenizer is identical on this input."""
    import pyarrow as pa

    from dupers_ray.stages.ngram import all_pairs_candidates, verify_pairs_exact

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pairs = all_pairs_candidates(docs, id_col="doc_id", id_cap=600)
    out = verify_pairs_exact(
        pairs, docs, id_col="doc_id", text_col="text", k=5,
        threshold=0.2, raw_ids=True,
    )
    return out.map_batches(
        lambda t: t.rename_columns(["src_id", "dst_id", "jaccard"]),
        batch_format="pyarrow",
    )


def _q_containment_scores(sf_dir: str):
    """Asymmetric shingle-containment verification (stages/ngram
    .verify_containment_pairs, Broder's containment vs resemblance):
    per (src < dst) pair at doc_id < 600, both direction scores where
    max >= 0.5 — catches quote/boilerplate wrappers symmetric Jaccard
    misses. Same oracle-harness candidate generator as
    ngram_jaccard_pairs."""
    from dupers_ray.stages.ngram import (
        all_pairs_candidates,
        verify_containment_pairs,
    )

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pairs = all_pairs_candidates(docs, id_col="doc_id", id_cap=600)
    return verify_containment_pairs(
        pairs, docs, id_col="doc_id", text_col="text", k=5, threshold=0.5
    )


def _emb_queries(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq
    import numpy as np

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    ids = t.column("vec_id").to_numpy()
    sel = np.nonzero(ids < n)[0]
    m = np.array(t.column("embedding").take(sel).to_pylist(), dtype=np.float32)
    return np.asarray(ids[sel], dtype=np.int64), m


def _q_topk_cosine(sf_dir: str):
    """Brute-force cosine top-10 for query vectors vec_id<5 (scores omitted
    from the compared output — float tie-break noise; membership+ids are
    exact)."""
    from dupers_ray.stages.embed import topk_cosine

    qids, qm = _emb_queries(sf_dir)
    out = topk_cosine(
        _tbl(sf_dir, "embeddings"), qm, k=10, query_ids=qids
    )
    return out.select_columns(["query_id", "vec_id"])


def _q_topk_cosine_sq8(sf_dir: str):
    """int8 scalar-quantized top-10 with exact rescoring
    (stages/embed.topk_cosine_sq8 — SQ8 candidate generation, 4x
    smaller vectors at scale, exact float64 rescore of survivors).
    Value-checked against the SAME exact-cosine oracle as topk_cosine:
    with the 4x rescore margin the pruned search must reproduce the
    exact result."""
    from dupers_ray.stages.embed import topk_cosine_sq8

    qids, qm = _emb_queries(sf_dir)
    out = topk_cosine_sq8(
        _tbl(sf_dir, "embeddings"), qm, k=10, query_ids=qids
    )
    return out.select_columns(["query_id", "vec_id"])


def _q_compression_stats(sf_dir: str):
    """Per-doc DEFLATE compressibility (stages/quality.compression_stats)
    — integer ppm ratio; zlib is not SQL-expressible, so this is the
    engine's one honest rows-only quality query (pytest value-checks
    exact zlib equality instead)."""
    from dupers_ray.stages.quality import compression_stats

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        compression_stats, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_knn_graph(sf_dir: str):
    """Exact k-NN graph over the embeddings table (stages/embed.knn_graph):
    every vector's 5 nearest OTHER vectors by cosine. Scores omitted from
    the compared output (float tie-break noise); membership+ids exact."""
    from dupers_ray.stages.embed import knn_graph

    out = knn_graph(_tbl(sf_dir, "embeddings"), k=5)
    return out.select_columns(["query_id", "vec_id"])


def _q_knn_graph_ivf(sf_dir: str):
    """Distributed ANN k-NN graph (stages/embed.knn_graph_ivf) driven at
    n_probe == n_cells, where every (query, member) pair scores exactly
    once → exact kNN; SHARES the knn_graph oracle, value-checking the
    cell routing + per-cell gemm + merge machinery. The approximate
    regime is recall-tested in tests/test_embed.py."""
    from dupers_ray.stages.embed import knn_graph_ivf

    out = knn_graph_ivf(
        _tbl(sf_dir, "embeddings"), k=5, n_cells=16, n_probe=16
    )
    return out.select_columns(["query_id", "vec_id"])


def _q_topk_cosine_ivf(sf_dir: str):
    """IVF (coarse-quantizer ANN) top-k driven at n_probe == n_cells —
    provably exact (every cell probed), so it shares the brute-force
    top-k oracle while value-checking the whole IVF machinery end to end
    (driver-side k-means training, probe masks, per-batch cell pruning,
    partial top-k, merge). The approximate regime (n_probe < n_cells) is
    recall-tested in tests/test_embed.py."""
    from dupers_ray.stages.embed import topk_cosine_ivf

    qids, qm = _emb_queries(sf_dir)
    out = topk_cosine_ivf(
        _tbl(sf_dir, "embeddings"), qm, k=10, n_cells=16, n_probe=16,
        query_ids=qids, train_sample=10_000,
    )
    return out.select_columns(["query_id", "vec_id"])


def _q_cosine_pairs(sf_dir: str):
    """Exact all-pairs cosine >= 0.4 via broadcast corpus matrix (0.4
    gives nonzero pairs at sf0.01; no pair sits within 1e-4 of the
    boundary, so float32-vs-double scoring can't flip membership)."""
    import numpy as np
    import pyarrow.parquet as pq

    from dupers_ray.stages.embed import cosine_pairs_broadcast

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    ids = np.asarray(t.column("vec_id").to_numpy(), dtype=np.int64)
    m = np.array(t.column("embedding").to_pylist(), dtype=np.float32)
    out = cosine_pairs_broadcast(
        _tbl(sf_dir, "embeddings"), ids, m, threshold=0.4
    )
    return out.select_columns(["a", "b"])


def _q_cosine_pairs_lsh(sf_dir: str):
    """Approximate (hyperplane-LSH) cosine pairs — rows-only (approximate
    by design; recall vs exact is tested in tests/test_embed.py)."""
    from dupers_ray.stages.embed import cosine_pairs_lsh

    return cosine_pairs_lsh(
        _tbl(sf_dir, "embeddings"), threshold=0.4, dim=64
    ).select_columns(["a", "b"])


def _q_cosine_pairs_lsh_fullprobe(sf_dir: str):
    """Hyperplane LSH run at n_planes=0: every row lands in ONE bucket per
    table, so the candidate stage emits ALL pairs and the pipeline's exact-
    cosine verify makes the output EXACT — giving the LSH candidate →
    cross-table dedup → verify machinery a full value oracle (the same
    full-probe technique as `topk_cosine_ivf`). The approximate
    configuration stays covered rows-only by `cosine_pairs_lsh`."""
    from dupers_ray.stages.embed import cosine_pairs_lsh

    return cosine_pairs_lsh(
        _tbl(sf_dir, "embeddings"), threshold=0.4, dim=64,
        n_planes=0, n_tables=2,
    ).select_columns(["a", "b"])


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) at iters=0: k-means cells seeded by
    the 8 smallest-id embeddings (SQL-reproducible), within-cell
    keep-first prune at cosine >= 0.4 (the boundary-safe threshold the
    cosine_pairs oracle established). Distributed Lloyd (iters>0) is
    pytest-checked against a numpy reference in tests/test_semdedup.py."""
    from dupers_ray.stages.semdedup import semantic_dedup

    return semantic_dedup(
        _tbl(sf_dir, "embeddings"), n_clusters=8, threshold=0.4, iters=0
    )


def _q_text_embeddings(sf_dir: str):
    """Actor-pool text embedding (stages/embed_texts.py — hashed-BoW
    splitmix64 projection, integer-exact) unnested to (doc_id, j, v)
    rows so the DuckDB oracle value-checks every component."""
    import numpy as np
    import pyarrow as pa

    from dupers_ray.stages.embed_texts import DIM, embed_texts

    emb = embed_texts(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), concurrency=(1, 4)
    )

    def unnest(t: pa.Table) -> pa.Table:
        n = len(t)
        flat = (
            t.column("embedding").combine_chunks().flatten()
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        ids = np.repeat(
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
            DIM,
        )
        return pa.table({
            "doc_id": pa.array(ids),
            "j": pa.array(np.tile(np.arange(DIM, dtype=np.int64), n)),
            "v": pa.array(flat),
        })

    return emb.map_batches(unnest, batch_format="pyarrow", zero_copy_batch=True)


def _q_text_semantic_dedup(sf_dir: str):
    """The full LLM chain text → embed_texts (actor pool) → SemDeDup:
    tokenless docs filtered (cosine of a zero vector is undefined), cells
    seeded by the 8 smallest doc_ids at iters=0 so the whole chain —
    featurizer included — carries a DuckDB value oracle."""
    from dupers_ray.stages.embed_texts import embed_texts
    from dupers_ray.stages.semdedup import semantic_dedup

    emb = embed_texts(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), concurrency=(1, 4)
    ).filter(expr="n_tokens > 0")
    return semantic_dedup(
        emb, n_clusters=8, threshold=0.4, iters=0, id_col="doc_id"
    )


def _q_image_dup_clusters(sf_dir: str):
    """Perceptual image dedup over a deterministic synthetic multimodal
    corpus: each doc's text-prefix sha256 seeds a photo-like image,
    encoded PNG (even ids) or lossy JPEG q75 (odd ids) — so docs sharing
    a 40-char text prefix yield perceptually identical images across
    DIFFERENT encodings. The pHash actor pool + pigeonhole pairs +
    components pipeline (stages/imagehash.py, from-scratch PNG+JPEG
    codecs) must assign cluster_id = min doc_id per prefix group, which
    the DuckDB oracle states directly — a full value check of decode,
    hash invariance, and clustering at once."""
    from dupers_ray.stages.imagehash import image_dup_clusters
    from dupers_ray.synth import synth_doc_images

    media = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth_doc_images, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=128,
    )
    return image_dup_clusters(
        media, id_col="doc_id", payload_col="payload", hamming_threshold=6
    )


def _q_audio_dup_clusters(sf_dir: str):
    """Audio counterpart of image_dup_clusters: each doc's text-prefix
    sha256 seeds a 6-sine WAV clip (50 Hz grid) rendered at DIFFERENT
    sample rates and gains by id parity; the rate-invariant spectral
    fingerprint (stages/audiohash.py — PCM decode, FFT peak
    constellation) must cluster prefix groups exactly, stated by the
    same min-id oracle."""
    from dupers_ray.stages.audiohash import audio_dup_clusters
    from dupers_ray.synth import synth_doc_audio

    media = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth_doc_audio, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=128,
    )
    return audio_dup_clusters(
        media, id_col="doc_id", payload_col="payload",
        n_peaks=6, bin_hz=50.0,
    )


def _q_mp3_metadata(sf_dir: str):
    """MP3 container-metadata decode (stages/multimodal.parse_mp3_frames
    — from-scratch ISO/IEC 11172-3 frame-header walk, the JPEG/T.81
    precedent for the compressed-audio boundary): each doc's (doc_id,
    n_chars) deterministically seeds an MPEG-1 Layer III frame stream
    (synth.synth_doc_mp3 — CBR/VBR mode, sample rate and frame count by
    id/char arithmetic, odd ids behind an ID3v2 tag), and the Ray path
    must parse the binary headers to recover what the oracle states as
    plain column arithmetic. PCM decode of compressed audio remains a
    declared boundary (fingerprints require WAV)."""
    from dupers_ray.stages.multimodal import Mp3HeaderParser
    from dupers_ray.synth import synth_doc_mp3

    media = _tbl(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        synth_doc_mp3, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=256,
    )
    parsed = media.map_batches(
        Mp3HeaderParser, fn_constructor_kwargs={"id_col": "doc_id"},
        batch_format="pyarrow", zero_copy_batch=True, batch_size=256,
        concurrency=(1, 4),
    )
    return parsed.select_columns([
        "doc_id", "n_frames", "sample_rate", "n_samples",
        "duration_ms_dec", "vbr", "layer",
    ])


def _q_video_dup_clusters(sf_dir: str):
    """Video leg of the multimodal triad: each doc's text-prefix sha256
    seeds a 3-scene DVID video rendered with DIFFERENT codecs, frame
    counts, fps and resolutions by id parity (synth.synth_doc_videos);
    the scene-sampled dHash majority vote (stages/videohash.py) must
    cluster prefix groups exactly, stated by the same min-id oracle."""
    from dupers_ray.stages.videohash import video_dup_clusters
    from dupers_ray.synth import synth_doc_videos

    media = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth_doc_videos, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=64,
    )
    return video_dup_clusters(media, id_col="doc_id", payload_col="payload")


def _q_multimodal_consensus(sf_dir: str):
    """Cross-modal duplicate consensus: a doc joins a perceptual cluster
    only when >= 2 of the three media modalities (image pHash, audio
    spectral fingerprint, video scene-dHash) independently assign it
    there — the modality-level majority vote that suppresses any single
    decoder's false positives. Composition of three oracle-green
    pipelines; ONE (doc, cluster) groupby of 16-byte vote rows. All
    three modalities derive from the same text prefix in the synthetic
    corpus, so the oracle is the same min-per-prefix statement."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from dupers_ray.functions.grouping import keyed_partition_map_groups

    def votes(ds):
        return ds.map_batches(
            lambda t: _pa.table({
                "doc_id": t.column("doc_id").cast(_pa.int64()),
                "cluster_id": t.column("cluster_id").cast(_pa.int64()),
            }),
            batch_format="pyarrow",
        )

    allv = (
        votes(_q_image_dup_clusters(sf_dir))
        .union(votes(_q_audio_dup_clusters(sf_dir)),
               votes(_q_video_dup_clusters(sf_dir)))
    )

    def consensus(g: "_pa.Table") -> "_pa.Table":
        # per doc: the min cluster that >= 2 modalities agree on, else
        # the doc itself
        cnt = g.group_by(["doc_id", "cluster_id"]).aggregate(
            [([], "count_all")])
        agreed = cnt.filter(_pc.greater_equal(cnt.column("count_all"), 2)) \
            .group_by("doc_id").aggregate([("cluster_id", "min")])
        docs = _pa.table({"doc_id": _pc.unique(g.column("doc_id"))}).join(
            agreed, "doc_id")
        return _pa.table({
            "doc_id": docs.column("doc_id"),
            "cluster_id": _pc.coalesce(docs.column("cluster_id_min"),
                                       docs.column("doc_id")),
        })

    return keyed_partition_map_groups(allv, "doc_id", consensus)


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (stages/dsir.py — integer-exact
    adaptation of Xie et al. 2023): hashed-token bucket distributions
    for the src0 target subset vs the whole corpus, Laplace-smoothed
    fixed-point ppm coefficients, per-doc score = one bincount dot.
    Full SQL oracle restates the identical md5-bucket/count/ppm chain."""
    from dupers_ray.stages.dsir import dsir_weights

    return dsir_weights(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]),
        target_value="src0",
    )


def _q_dsir_topk(sf_dir: str):
    """Top-50 docs by DSIR weight (score DESC, doc_id ASC) — the
    deterministic selection rule; per-batch partial top-k combiner,
    no global sort."""
    from dupers_ray.stages.dsir import dsir_topk, dsir_weights

    w = dsir_weights(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]),
        target_value="src0",
    )
    return dsir_topk(w, k=50)


def _q_link_edges(sf_dir: str):
    """Host-level link graph extracted from synthetic html pages with
    ARITHMETICALLY planted outlinks (synth.synth_doc_html: doc i →
    host{(i*31+7j+1) % N} for j < 1 + i%3, plus relative/ftp decoys the
    extractor must drop). The vectorized Arrow split/extract_regex
    chain (stages/linkgraph.extract_links) must recover exactly the
    planted arithmetic, which the DuckDB oracle states directly."""
    from dupers_ray.stages.linkgraph import extract_links
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return extract_links(pages)


def _q_link_edges_nofollow(sf_dir: str):
    """rel=nofollow honoring (stages/linkgraph.links_batch
    drop_nofollow): pages gain a tracker{i%13} link that carries
    rel="nofollow" on EVEN ids only — the extractor must keep the
    planted arithmetic edges plus exactly the odd-id tracker edges.
    Same single vectorized pass; one extra RE2 match on the link
    pieces."""
    from dupers_ray.stages.linkgraph import extract_links
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n, "nofollow": True},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return extract_links(pages, drop_nofollow=True)


def _q_pagerank_hosts(sf_dir: str):
    """Integer fixed-point PageRank (2 power iterations, damping 85/100,
    rank in ppm) over the extracted host graph — stages/linkgraph.
    pagerank streams per-edge contributions through one groupby-sum per
    iteration with the rank vector broadcast. The oracle restates the
    identical integer recurrence in two chained CTEs."""
    from dupers_ray.stages.linkgraph import extract_links, pagerank
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    links = extract_links(pages).select_columns(["src_host", "dst_host"])
    return pagerank(links, iters=2)


def _q_hits_hosts(sf_dir: str):
    """Integer HITS (one max-normalized round) over the extracted host
    graph — stages/linkgraph.hits: auth from one indeg groupby, hub from
    one broadcast-lookup contribution groupby; fixed-point ppm values
    bounded at any corpus size by the max-normalization."""
    from dupers_ray.stages.linkgraph import extract_links, hits
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return hits(extract_links(pages).select_columns(["src_host", "dst_host"]))


_HITS_SQL = """
    WITH n AS (SELECT count(*) AS cnt FROM documents),
    edges AS (
        SELECT 'host' || CAST(d.doc_id AS VARCHAR) || '.example' AS src,
               'host' || CAST((d.doc_id * 31 + 7 * j.j + 1) % n.cnt
                   AS VARCHAR) || '.example' AS dst
        FROM documents d, (SELECT unnest(range(3)) AS j) j, n
        WHERE j.j < 1 + d.doc_id % 3
    ),
    hosts AS (SELECT DISTINCT src AS host FROM edges
              UNION SELECT DISTINCT dst FROM edges),
    a1 AS (SELECT dst AS host, count(*) * 1000000 AS a FROM edges GROUP BY dst),
    auth AS (SELECT h.host,
                    (COALESCE(a1.a, 0) * 1000000)
                        // GREATEST((SELECT max(a) FROM a1), 1) AS auth_ppm
             FROM hosts h LEFT JOIN a1 USING (host)),
    h1 AS (SELECT e.src AS host, sum(auth.auth_ppm) AS hb
           FROM edges e JOIN auth ON auth.host = e.dst GROUP BY e.src),
    hub AS (SELECT h.host,
                   (COALESCE(h1.hb, 0) * 1000000)
                       // GREATEST((SELECT max(hb) FROM h1), 1) AS hub_ppm
            FROM hosts h LEFT JOIN h1 USING (host))
    SELECT hosts.host,
           CAST(auth.auth_ppm AS BIGINT) AS auth_ppm,
           CAST(hub.hub_ppm AS BIGINT) AS hub_ppm
    FROM hosts JOIN auth USING (host) JOIN hub USING (host)
"""


def _q_anchor_profiles(sf_dir: str):
    """How the web describes each host: inlink anchor-text counts per
    target host (stages/linkgraph.anchor_profiles — per-batch combiner
    then one (dst_host, anchor) groupby). Anchors are planted
    arithmetically (t{(i+j)%7}), so the oracle states the counts
    directly."""
    from dupers_ray.stages.linkgraph import anchor_profiles, extract_links
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return anchor_profiles(extract_links(pages, anchors=True))


def _q_redirect_roots(sf_dir: str):
    """Redirect-chain resolution by distributed pointer doubling
    (stages/chains.resolve_pointers — one 24-B-row cogroup self-join per
    round, ceil(log2 L) rounds): planted chains doc i → i-1 with roots
    at multiples of 4 must resolve to root = i - i%4 with hops = i%4,
    which the oracle states directly."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from dupers_ray.stages.chains import resolve_pointers

    docs = _tbl(sf_dir, "documents", ["doc_id"])

    def edges(t: "_pa.Table") -> "_pa.Table":
        i = t.column("doc_id").cast(_pa.int64())
        step = _pc.cast(_pc.not_equal(_pc.bit_wise_and(i, 3), 0), _pa.int64())
        return _pa.table({"id": i, "ptr": _pc.subtract(i, step)})

    out = resolve_pointers(
        docs.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True),
        rounds=2,
    )
    return out.map_batches(
        lambda t: t.rename_columns(["doc_id", "root", "hops"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


_ANCHOR_PROFILES_SQL = """
    WITH n AS (SELECT count(*) AS cnt FROM documents),
    edges AS (
        SELECT 'host' || CAST((d.doc_id * 31 + 7 * j.j + 1) % n.cnt
                   AS VARCHAR) || '.example' AS dst_host,
               't' || CAST((d.doc_id + j.j) % 7 AS VARCHAR) AS anchor
        FROM documents d, (SELECT unnest(range(3)) AS j) j, n
        WHERE j.j < 1 + d.doc_id % 3
    )
    SELECT dst_host, anchor, CAST(count(*) AS BIGINT) AS n
    FROM edges GROUP BY dst_host, anchor
"""


# Restates synth.synth_sitemap_pages' planted arithmetic (n_hosts=20):
# host h lists crawled docs k ≡ h (mod 20) with k%3≠2 (lastmod NULL when
# k%7==3) plus 1+h%3 phantom locs p/{n_docs + h + j*20}.
_SITEMAP_LISTED_SQL = """
    n AS (SELECT count(*) AS cnt FROM documents),
    listed AS (
        SELECT CAST(d.doc_id % 20 AS BIGINT) AS host_id,
               'https://host' || CAST(d.doc_id % 20 AS VARCHAR)
                   || '.example/p/' || CAST(d.doc_id AS VARCHAR) AS loc,
               CASE WHEN d.doc_id % 7 = 3 THEN NULL
                    ELSE '2026-07-' || lpad(CAST(d.doc_id % 28 + 1
                        AS VARCHAR), 2, '0') END AS lastmod
        FROM documents d WHERE d.doc_id % 3 <> 2
    ),
    phantoms AS (
        SELECT CAST(h.h AS BIGINT) AS host_id,
               'https://host' || CAST(h.h AS VARCHAR) || '.example/p/'
                   || CAST(n.cnt + h.h + j.j * 20 AS VARCHAR) AS loc,
               '2026-06-' || lpad(CAST(h.h % 28 + 1 AS VARCHAR), 2, '0')
                   AS lastmod
        FROM (SELECT unnest(range(20)) AS h) h,
             (SELECT unnest(range(3)) AS j) j, n
        WHERE j.j < 1 + h.h % 3
    )
"""

_LINK_EDGES_SQL = """
    WITH n AS (SELECT count(*) AS cnt FROM documents),
    j AS (SELECT unnest(range(3)) AS j)
    SELECT d.doc_id,
           'host' || CAST(d.doc_id AS VARCHAR) || '.example' AS src_host,
           'host' || CAST((d.doc_id * 31 + 7 * j.j + 1) % n.cnt AS VARCHAR)
               || '.example' AS dst_host
    FROM documents d, j, n
    WHERE j.j < 1 + d.doc_id % 3
"""

_PAGERANK_SQL = """
    WITH n AS (SELECT count(*) AS cnt FROM documents),
    edges AS (
        SELECT 'host' || CAST(d.doc_id AS VARCHAR) || '.example' AS src,
               'host' || CAST((d.doc_id * 31 + 7 * j.j + 1) % n.cnt
                   AS VARCHAR) || '.example' AS dst
        FROM documents d, (SELECT unnest(range(3)) AS j) j, n
        WHERE j.j < 1 + d.doc_id % 3
    ),
    hosts AS (SELECT DISTINCT src AS host FROM edges
              UNION SELECT DISTINCT dst FROM edges),
    outdeg AS (SELECT src, count(*) AS deg FROM edges GROUP BY src),
    c1 AS (SELECT e.dst AS host,
                  sum((85 * 1000000) // (100 * o.deg)) AS s
           FROM edges e JOIN outdeg o USING (src) GROUP BY e.dst),
    r1 AS (SELECT h.host, 150000 + COALESCE(c1.s, 0) AS pr
           FROM hosts h LEFT JOIN c1 USING (host)),
    c2 AS (SELECT e.dst AS host,
                  sum((85 * r1.pr) // (100 * o.deg)) AS s
           FROM edges e JOIN outdeg o USING (src)
           JOIN r1 ON r1.host = e.src GROUP BY e.dst),
    r2 AS (SELECT h.host, 150000 + COALESCE(c2.s, 0) AS pr
           FROM hosts h LEFT JOIN c2 USING (host))
    SELECT host, CAST(pr AS BIGINT) AS pr_ppm FROM r2
"""


_DSIR_SQL_BODY = """
    toks AS (
        SELECT doc_id, source,
               unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM documents
    ), bkt AS (
        SELECT doc_id, source,
               CAST(('0x' || substr(md5(tok), 1, 16))::UBIGINT % 4096
                    AS BIGINT) AS bucket
        FROM toks
    ), cnt AS (
        SELECT bucket,
               CAST(count(*) AS BIGINT) AS n_r,
               CAST(sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_t
        FROM bkt GROUP BY bucket
    ), tot AS (
        SELECT CAST(sum(n_r) + 4096 AS BIGINT) AS nr,
               CAST(sum(n_t) + 4096 AS BIGINT) AS nt
        FROM cnt
    ), coef AS (
        SELECT bucket,
               ((n_t + 1) * 1000000) // nt
               - ((n_r + 1) * 1000000) // nr AS a
        FROM cnt, tot
    ), sc AS (
        SELECT b.doc_id,
               CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(sum(c.a) AS BIGINT) AS score
        FROM bkt b JOIN coef c USING (bucket) GROUP BY b.doc_id
    ), dsir AS (
        SELECT d.doc_id,
               CAST(COALESCE(sc.n_tokens, 0) AS BIGINT) AS n_tokens,
               CAST(COALESCE(sc.score, 0) AS BIGINT) AS score
        FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id
    )
"""


def _q_source_overlap(sf_dir: str):
    """Cross-source duplicate overlap matrix over prefix-40 digests
    (pipelines/overlap.source_overlap) — which sources duplicate which,
    as within-source C(n,2) and cross-source n*m pair counts."""
    from dupers_ray.pipelines.overlap import source_overlap

    return source_overlap(_tbl(sf_dir, "documents", ["text", "source"]), trunc=40)


def _invindex_dir(sf_dir: str) -> str:
    """Build (once per sf_dir, cached in /tmp) the hive-partitioned token
    index the indexed_search queries read from."""
    import hashlib as _h

    from dupers_ray.pipelines.invindex import build_token_index

    slug = _h.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    # v2: postings carry tf/dl + the _stats.json sidecar (BM25); the
    # version bump invalidates caches written by the narrower v1 schema
    out = f"/tmp/dupers_ray_invindex/{slug}_v2"
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        build_token_index(_tbl(sf_dir, "documents", ["doc_id", "text"]), out)
        with open(marker, "w") as f:
            f.write("ok")
    return out


def _q_indexed_search_all(sf_dir: str):
    """Whole-token AND search served from the inverted index
    (pipelines/invindex): only the query terms' hash partitions are
    read — prune-at-the-read vs the reference's full linear scan
    (pkg/database/database.go:373-447)."""
    from dupers_ray.pipelines.invindex import indexed_token_search

    return indexed_token_search(_invindex_dir(sf_dir), ["join", "data"])


def _q_indexed_search_any(sf_dir: str):
    """OR variant of indexed_search_all (same index, >=1 matched-term
    posting per doc)."""
    from dupers_ray.pipelines.invindex import indexed_token_search

    return indexed_token_search(
        _invindex_dir(sf_dir), ["join", "data"], mode="any"
    )


def _q_cms_registers(sf_dir: str):
    """Count-Min sketch of corpus token frequencies — the full 4x256
    register table value-oracled (same technique as hll_registers /
    bloom_stats: the sketch is pure integers under md5-u64 +
    Kirsch-Mitzenmacher hashing, so SQL reproduces every cell)."""
    import ray.data as _rd

    from dupers_ray.stages.sketch import cms_register_table, cms_token_counts

    grid = cms_token_counts(
        _tbl(sf_dir, "documents", ["text"]), d=4, w=256
    )
    return _rd.from_arrow(cms_register_table(grid))


def _q_rare_terms(sf_dir: str):
    """Integer-exact TF-IDF keyword extraction (stages/lmstats
    .doc_rare_terms): per doc the 3 most distinctive tokens ordered by
    (df ASC, tf DESC, token ASC) — float-free so the window-rank oracle
    reproduces it bit-exactly."""
    from dupers_ray.stages.lmstats import doc_rare_terms

    return doc_rare_terms(_tbl(sf_dir, "documents", ["doc_id", "text"]), k=3)


def _q_snapshot_diff(sf_dir: str):
    """Added/removed/changed rows between two corpus snapshots
    (pipelines/diff.snapshot_diff): the 'new' snapshot is derived
    deterministically from documents — doc_id%7==0 dropped (removed),
    doc_id%5==0 text suffixed (changed), doc_id%11==0 cloned at
    doc_id+1000000 (added) — and the oracle derives the identical
    snapshot in SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.diff import snapshot_diff

    old = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        text = t.column("text")
        changed = pc.if_else(
            pa.array(ids % 5 == 0),
            pc.binary_join_element_wise(text, pa.scalar("v2"), pa.scalar(" ")),
            text,
        )
        base = pa.table({"doc_id": pa.array(ids), "text": changed}).filter(
            pa.array(ids % 7 != 0)
        )
        add_mask = pa.array(ids % 11 == 0)
        added = pa.table({
            "doc_id": pa.array(ids + 1_000_000),
            "text": pc.binary_join_element_wise(text, pa.scalar("new"),
                                                pa.scalar(" ")),
        }).filter(add_mask)
        return pa.concat_tables([base, added])

    new = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        derive, batch_format="pyarrow", zero_copy_batch=True
    )
    return snapshot_diff(old, new)


def _q_corpus_freq_stats(sf_dir: str):
    """Per-doc corpus-frequency join-back (stages/lmstats.doc_freq_stats,
    broadcast strategy): integer-exact unigram-LM familiarity signals
    against the corpus-wide vocabulary. The join strategy (web-scale
    vocab) is pytest-equal in tests/test_lmstats.py."""
    from dupers_ray.stages.lmstats import doc_freq_stats

    return doc_freq_stats(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), strategy="broadcast"
    )


def _q_containment_pairs(sf_dir: str):
    """Cross-doc exact substring containment (stages/containment.py):
    interior-min-shingle anchor candidates + raw-text verify. Full value
    oracle: the SQL predicate is literally position(a.text IN b.text) > 0
    with the same >= k+2 inner-token contract."""
    from dupers_ray.stages.containment import containment_pairs

    return containment_pairs(
        _tbl(sf_dir, "documents", ["doc_id", "text"])
    )


def _q_embed_dup_clusters(sf_dir: str):
    """Embedding near-dup CLUSTERS (cosine pairs → connected components →
    per-row assignment — the flagship shape in embedding space), driven at
    n_planes=0 full probe so the LSH candidate stage emits all pairs and
    the exact-cosine verify makes the edge set exact; the oracle restates
    pairs + recursive-CTE closure in SQL. The approximate LSH regime stays
    recall-tested in tests/test_embed.py."""
    from dupers_ray.stages.embed import embed_dup_clusters

    return embed_dup_clusters(
        _tbl(sf_dir, "embeddings"), threshold=0.4, method="lsh",
        dim=64, n_planes=0, n_tables=2,
    )


def _q_window_agg(sf_dir: str):
    """Oracle-compared columns exclude sum_value: double accumulation order
    differs between engines (last-bit FP noise would flake a value-hash);
    count/min/max are exact copies and reproduce bit-identically."""
    from dupers_ray.pipelines.events import tumbling_window_agg

    return tumbling_window_agg(_tbl(sf_dir, "events"), window="1h").select_columns(
        ["user_id", "win_start", "n", "min_value", "max_value"]
    )


def _q_hopping_window(sf_dir: str):
    """1h windows hopping every 15m (pipelines/events.hopping_window_agg);
    sum_value excluded from the compare like window_agg (FP accumulation
    order)."""
    from dupers_ray.pipelines.events import hopping_window_agg

    return hopping_window_agg(
        _tbl(sf_dir, "events"), window="1h", hop="15m"
    ).select_columns(["user_id", "win_start", "n", "min_value", "max_value"])


def _q_sessionize(sf_dir: str):
    from dupers_ray.pipelines.events import sessionize

    return sessionize(_tbl(sf_dir, "events"), gap="30m")


def _q_sessionize_str(sf_dir: str):
    """Sessionize with STRING user ids — the common web case (cookie /
    device ids). Exercises the string-key partitioner of
    functions/grouping.keyed_partition_map_groups (round-2 VERDICT
    'wrong' #3)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.events import sessionize

    def to_str(t: pa.Table) -> pa.Table:
        uid = pc.binary_join_element_wise(
            "u", pc.cast(t.column("user_id"), pa.string()), ""
        )
        return t.set_column(
            t.schema.get_field_index("user_id"), "user_id", uid
        )

    ev = _tbl(sf_dir, "events", ["user_id", "ts"]).map_batches(
        to_str, batch_format="pyarrow", zero_copy_batch=True
    )
    return sessionize(ev, gap="30m")


def _q_char_ranks(sf_dir: str):
    """Exact global rank of every doc by n_chars via the broadcast
    counting-histogram CDF (stages/sketch.global_value_ranks) — window
    rank semantics with zero all-to-all shuffle."""
    from dupers_ray.stages.sketch import global_value_ranks

    return global_value_ranks(
        _tbl(sf_dir, "documents", ["doc_id", "n_chars"]), value_col="n_chars", id_col="doc_id"
    )


def _q_funnel_counts(sf_dir: str):
    """Sequential conversion funnel signup → view → click → purchase
    (pipelines/events.funnel_counts): strictly-increasing earliest-event
    chain per user, counted per depth."""
    from dupers_ray.pipelines.events import funnel_counts

    return funnel_counts(
        _tbl(sf_dir, "events"),
        steps=("signup", "view", "click", "purchase"),
    )


def _q_window_distinct(sf_dir: str):
    """Daily distinct active users (pipelines/events.window_distinct):
    exact per-window COUNT(DISTINCT user) via a distinct-pair combiner +
    one window-hash shuffle of deduped pairs."""
    from dupers_ray.pipelines.events import window_distinct

    return window_distinct(_tbl(sf_dir, "events"), window="1d")


def _q_order_priority_exists(sf_dir: str):
    """TPC-H Q4 shape (pipelines/relational.order_priority_exists):
    orders with >=1 returned lineitem, counted per priority — EXISTS
    semi-join via distinct-key combiner + broadcast/shuffle semi."""
    from dupers_ray.pipelines.relational import order_priority_exists

    return order_priority_exists(
        _tbl(sf_dir, "orders"), _tbl(sf_dir, "lineitem")
    )


def _q_cohort_retention(sf_dir: str):
    """Weekly cohort retention triangle (pipelines/events
    .cohort_retention): users grouped by first-event week, counted per
    activity-week offset."""
    from dupers_ray.pipelines.events import cohort_retention

    return cohort_retention(_tbl(sf_dir, "events"), period="7d")


def _q_funnel_windowed(sf_dir: str):
    """Conversion-window funnel: like funnel_counts but every later step
    must land within 72h of the user's step-0 time."""
    from dupers_ray.pipelines.events import funnel_counts

    return funnel_counts(
        _tbl(sf_dir, "events"),
        steps=("signup", "view", "click", "purchase"),
        within="72h",
    )


def _q_top_tokens(sf_dir: str):
    """Corpus-wide top-100 frequent tokens via per-batch combiner +
    vocabulary groupby (stages/textstats.top_tokens)."""
    from dupers_ray.stages.textstats import top_tokens

    docs = _tbl(sf_dir, "documents", ["text"])
    return top_tokens(docs, k=100)


def _q_sample_hash(sf_dir: str):
    """Deterministic 7% hash-Bernoulli sample (stages/filters.sample_hash);
    oracle restates the splitmix64 chain in SQL."""
    from dupers_ray.stages.filters import sample_hash

    return _tbl(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        sample_hash, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"percent": 7},
    )


def _q_weighted_sample(sf_dir: str):
    """Deterministic PPS (probability ∝ n_chars) Poisson sample
    (stages/filters.weighted_sample) — all-integer inclusion rule, same
    splitmix64 chain as sample_hash."""
    from dupers_ray.stages.filters import weighted_sample

    return _tbl(sf_dir, "documents", ["doc_id", "source", "n_chars"]).map_batches(
        weighted_sample, batch_format="pyarrow", zero_copy_batch=True,
    )


def _weighted_sample_oracle_sql() -> str:
    """splitmix64 chain over doc_id + PPS threshold min(n_chars*64, 2^20)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH sm AS (
            SELECT doc_id, source, n_chars,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        )
        SELECT doc_id, source, n_chars FROM sm
        WHERE h % 1048576 < LEAST(n_chars * 64, 1048576)
    """


def _sample_hash_oracle_sql() -> str:
    """splitmix64 finalizer chain (same constants as functions/hashing.py)
    over doc_id, then the mod-100 threshold."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH sm AS (
            SELECT doc_id, source,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        )
        SELECT doc_id, source FROM sm WHERE h % 100 < 7
    """


def _stratified_sample_oracle_sql() -> str:
    """Same splitmix64 chain as _sample_hash_oracle_sql, ranked per
    source (splitmix64 is a bijection on doc_id — no ties)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH sm AS (
            SELECT doc_id, source,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        )
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   row_number() OVER (PARTITION BY source ORDER BY h) AS rn
            FROM sm
        ) WHERE rn <= 5
    """


def _tokens_ds(sf_dir: str):
    from dupers_ray.stages.textstats import partial_token_counts

    return _tbl(sf_dir, "documents", ["text"]).map_batches(
        partial_token_counts, batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_distinct_tokens(sf_dir: str):
    """Exact distinct-token count via combiner + groupby
    (stages/sketch.distinct_count)."""
    from dupers_ray.stages.sketch import distinct_count

    return distinct_count(_tokens_ds(sf_dir), col="token")


def _q_hll_registers(sf_dir: str):
    """HyperLogLog register table over corpus tokens
    (stages/sketch.hll_registers, p=12) — integers, so the full sketch
    state is value-oracled; the float estimate derives from it on the
    driver (hll_estimate, pytest-bounded)."""
    from dupers_ray.stages.sketch import hll_registers

    return hll_registers(_tokens_ds(sf_dir), col="token", p=12)


_HLL_W_MASK = 4503599627370495  # 2^52 - 1 (p = 12)

_HLL_ORACLE = f"""
    WITH toks AS (
        SELECT DISTINCT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM documents
    ), hs AS (
        SELECT ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
    ), pr AS (
        SELECT CAST(h >> 52 AS BIGINT) AS idx,
               CAST(52 + 1 - (CASE WHEN (h & {_HLL_W_MASK}::UBIGINT) = 0::UBIGINT
                                   THEN 0
                                   ELSE length(bin(h & {_HLL_W_MASK}::UBIGINT))
                              END) AS BIGINT) AS rho
        FROM hs
    )
    SELECT idx, CAST(max(rho) AS BIGINT) AS rho FROM pr GROUP BY idx
"""


def _q_decontam_clean(sf_dir: str):
    """Corpus minus docs sharing any 5-gram with a blocklist (the 5%
    hash-sample plays the held-out test set) — pipelines/decontam.py."""
    from dupers_ray.pipelines.decontam import decontaminate
    from dupers_ray.stages.filters import sample_hash

    docs = _tbl(sf_dir, "documents", ["doc_id", "source", "text"])
    block = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        sample_hash, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"percent": 5},
    )
    return decontaminate(docs, block).select_columns(["doc_id", "source"])


def _decontam_oracle_sql() -> str:
    """splitmix64 5% sample as the blocklist + the ngram-oracle shingle
    CASE, EXISTS-joined."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    grams = """
        CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(tk) < 5 THEN [array_to_string(tk, chr(31))]
             ELSE list_distinct([array_to_string(tk[i:i+4], chr(31))
                                 FOR i IN range(1, len(tk) - 3)])
        END
    """
    return f"""
        WITH sm AS (
            SELECT doc_id,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        ), blockids AS (
            SELECT doc_id FROM sm WHERE h % 100 < 5
        ), sh AS (
            SELECT doc_id, {grams} AS grams
            FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                  FROM documents)
        ), bsh AS (
            SELECT DISTINCT unnest(s.grams) AS g
            FROM sh s JOIN blockids b USING (doc_id)
        )
        SELECT d.doc_id, d.source
        FROM documents d JOIN sh s USING (doc_id)
        WHERE NOT EXISTS (SELECT 1 FROM bsh WHERE list_contains(s.grams, bsh.g))
    """


def _q_cap_per_domain(sf_dir: str):
    """Keep ≤10 docs per source by doc_id order (stages/filters.cap_per_group)."""
    from dupers_ray.stages.filters import cap_per_group

    return cap_per_group(
        _tbl(sf_dir, "documents", ["doc_id", "source"]),
        group_col="source", order_col="doc_id", n=10,
    )


def _q_asof_attrib(sf_dir: str):
    """Each event attributed to the same user's most recent purchase at or
    before it — the as-of join (pipelines/temporal.asof_join), an operator
    Ray Data lacks natively; oracle is DuckDB ASOF LEFT JOIN."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.temporal import asof_join

    ev = _tbl(sf_dir, "events")
    lsch = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()), ("ts", pa.timestamp("us"))]
    )
    rsch = pa.schema(
        [("user_id", pa.int64()), ("ts", pa.timestamp("us")),
         ("anchor_id", pa.int64()), ("anchor_value", pa.float64())]
    )

    def mk_right(t: "pa.Table") -> "pa.Table":
        m = t.filter(pc.equal(t.column("event_type"), "purchase"))
        return pa.table(
            {"user_id": m.column("user_id"), "ts": m.column("ts"),
             "anchor_id": m.column("event_id"), "anchor_value": m.column("value")}
        )

    out = asof_join(
        ev.select_columns(["event_id", "user_id", "ts"]),
        ev.map_batches(mk_right, batch_format="pyarrow"),
        key="user_id", ts="ts", left_schema=lsch, right_schema=rsch,
        tiebreak="anchor_id",
    )
    return out.select_columns(["event_id", "anchor_id", "anchor_value"])


def _q_purchase_window_pairs(sf_dir: str):
    """(event, purchase) pairs where the event falls in the purchase's
    30-minute follow-up window — the banded range join
    (pipelines/temporal.range_join_banded); oracle is a DuckDB inequality
    self-join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.temporal import range_join_banded

    ev = _tbl(sf_dir, "events")
    lsch = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()), ("ts", pa.timestamp("us"))]
    )
    rsch = pa.schema(
        [("user_id", pa.int64()), ("w_start", pa.timestamp("us")),
         ("w_end", pa.timestamp("us")), ("anchor_id", pa.int64())]
    )

    def mk_right(t: "pa.Table") -> "pa.Table":
        m = t.filter(pc.equal(t.column("event_type"), "purchase"))
        half_hour = pa.scalar(30 * 60 * 1_000_000, pa.duration("us"))
        return pa.table(
            {"user_id": m.column("user_id"), "w_start": m.column("ts"),
             "w_end": pc.add(m.column("ts"), half_hour),
             "anchor_id": m.column("event_id")}
        )

    out = range_join_banded(
        ev.select_columns(["event_id", "user_id", "ts"]),
        ev.map_batches(mk_right, batch_format="pyarrow"),
        key="user_id", ts="ts", start="w_start", end="w_end",
        band_us=15 * 60 * 1_000_000,  # 15-min bands: ≤3 replicas per window
        left_schema=lsch, right_schema=rsch,
    )
    return out.select_columns(["event_id", "anchor_id"])


def _q_bucket_rename(sf_dir: str):
    """`mv` parity (database.go:693-716)."""
    from dupers_ray.pipelines.maintenance import rename_bucket

    return rename_bucket(
        _tbl(sf_dir, "documents", ["doc_id", "source"]),
        "src0", "src0_renamed", bucket_col="source",
    )


def _q_bucket_remove(sf_dir: str):
    """`rm` parity (database.go:719-729)."""
    from dupers_ray.pipelines.maintenance import remove_bucket

    return remove_bucket(
        _tbl(sf_dir, "documents", ["doc_id", "source"]),
        "src3", bucket_col="source",
    )


def _q_deletion_list_trunc(sf_dir: str):
    """`-delete` analogue: non-canonical dups over prefix-40 digests
    (pipelines/report.deletion_list; trunc => nonzero rows at sf0.01)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.pipelines.report import deletion_list

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def trunc(t: "pa.Table") -> "pa.Table":
        cut = pc.utf8_slice_codeunits(t.column("text"), 0, 40)
        return t.set_column(t.column_names.index("text"), "text", cut)

    return deletion_list(
        docs.map_batches(trunc, batch_format="pyarrow"),
        id_col="doc_id", content_col="text",
    )


def _q_near_dup_clusters_checkpointed(sf_dir: str):
    """Resumable flagship with per-partition lineage manifests
    (state/manifest.py). Shares the flagship's full SQL oracle —
    checkpointed assignment must equal the direct pipeline (also
    asserted in tests/test_manifest.py). Reuses /tmp checkpoints across
    invocations, which itself exercises the resume path."""
    import hashlib

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters_checkpointed

    from dupers_ray.functions.hashing import KERNEL_VERSION

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    # the checkpoint fingerprint now folds in KERNEL_VERSION itself
    # (pipelines/dupe.py cfg_fp); keeping it in the workdir key too means a
    # kernel bump simply starts a fresh directory instead of recomputing
    # in place over orphaned old-kernel partitions
    key = hashlib.sha256(f"{sf_dir}|hash={KERNEL_VERSION}".encode()).hexdigest()[:12]
    workdir = f"/tmp/dupers_ray_ck/{key}"
    return dupe_clusters_checkpointed(
        [os.path.join(sf_dir, "documents.parquet")], workdir, cfg
    )


def _q_multi_term_search(sf_dir: str):
    """Suffix-array multi-term containment (stages/suffix.py — the scaled
    `search`; same semantics as a contains() scan, amortized over terms)."""
    from dupers_ray.stages.suffix import multi_term_search

    return multi_term_search(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        ["join", "scan", "window", "zzzqqxx"],
        id_col="doc_id",
    )


def _q_simhash_pairs(sf_dir: str):
    """SimHash hamming<=3 near-dup pairs. Full value oracle: the banded
    pigeonhole + per-bucket verify equals the semantic all-pairs-at-
    hamming<=3 set, which _simhash_oracle_sql states directly (md5 token
    hashes are SQL-reproducible).

    Returned globally sorted by (src, dst): the pair set comes out of a
    256-partition map_groups whose block emission order is nondeterministic,
    which is the diagnosed cause of the round-3 driver hash_match=false
    (rows+schema were green and the order-insensitive value compare passed
    12/12). The pair list is tiny relative to the corpus, so the sort is a
    driver-window canonicalization, not a pipeline cost."""
    from dupers_ray.config import SimHashConfig
    from dupers_ray.stages.simhash import simhash_pairs

    return simhash_pairs(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), SimHashConfig(), id_col="doc_id"
    ).sort(["src", "dst"])


def _q_segment_revenue(sf_dir: str):
    """Generic fact-x-dimension equi-join + rollup (engine-new relational
    shape): orders pre-combined per custkey inside map_batches, ONE
    cogroup shuffle on the shared key, tiny segment rollup."""
    from dupers_ray.pipelines.relational import revenue_rollup

    return revenue_rollup(_tbl(sf_dir, "orders"), _tbl(sf_dir, "customer"))


def _q_nation_revenue(sf_dir: str):
    """Same rollup grouped by customer nation — the 25-row nation
    dimension is broadcast (ray.put once, vectorized searchsorted per
    batch), never shuffled."""
    from dupers_ray.pipelines.relational import revenue_rollup

    return revenue_rollup(
        _tbl(sf_dir, "orders"), _tbl(sf_dir, "customer"),
        nation=_tbl(sf_dir, "nation"),
    )


def _q_normalized_canonical(sf_dir: str):
    """Fuzzy-exact dedup: canonicalized text (lower / strip punct /
    collapse ws — stages/normalize.py, C4-style) through the unchanged
    exact-dedup path; digests are of the NORMALIZED view."""
    from dupers_ray.pipelines.exact_dedup import exact_canonical
    from dupers_ray.stages.normalize import normalize_text

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        normalize_text, batch_format="pyarrow", zero_copy_batch=True
    )
    return exact_canonical(docs, id_col="doc_id", content_col="text_norm")


def _q_length_quantiles(sf_dir: str):
    """Per-source exact p50/p90 of n_chars via the distributed counting
    histogram (stages/sketch.grouped_quantiles_disc) — percentile_disc
    semantics, shuffle moves histogram rows only."""
    from dupers_ray.stages.sketch import grouped_quantiles_disc

    return grouped_quantiles_disc(
        _tbl(sf_dir, "documents", ["source", "n_chars"]),
        group_col="source", value_col="n_chars", qs=(0.5, 0.9),
    )


def _q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: 5 docs per source, chosen by
    smallest splitmix64(doc_id) — cap_per_group over a hash order gives
    a shuffle-light per-stratum uniform draw, reproducible at any
    parallelism."""
    import numpy as np
    import pyarrow as pa

    from dupers_ray.functions.hashing import splitmix64
    from dupers_ray.stages.filters import cap_per_group

    docs = _tbl(sf_dir, "documents", ["doc_id", "source"])

    def addh(t: "pa.Table") -> "pa.Table":
        ids = np.asarray(t.column("doc_id"), dtype=np.uint64)
        return t.append_column("h", pa.array(splitmix64(ids)))

    ds = docs.map_batches(addh, batch_format="pyarrow", zero_copy_batch=True)
    out = cap_per_group(ds, group_col="source", order_col="h", n=5)
    return out.map_batches(
        lambda t: t.select(["doc_id", "source"]), batch_format="pyarrow"
    )


def _q_repetition_stats(sf_dir: str):
    """Gopher-style within-doc repetition counts (top token / top bigram
    concentration as integer numerators/denominators)."""
    from dupers_ray.stages.repetition import repetition_stats

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        repetition_stats, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_dup_ngram_coverage(sf_dir: str):
    """Cross-doc duplicate-passage measure (Lee et al. 2022 shape): per
    doc, distinct word-8-gram shingles and how many are shared with
    another doc. One shingle pass, two count-row shuffles, no joins."""
    from dupers_ray.stages.repetition import dup_ngram_coverage

    return dup_ngram_coverage(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", k=8,
    )


def _q_pii_redact(sf_dir: str):
    """PII scrub value-checked end to end: deterministic PII spans are
    planted from doc_id (corpus text has none), then stages/pii.redact_pii
    counts and rewrites them with Arrow RE2 kernels; the oracle replants
    and re-redacts in DuckDB (also RE2)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.stages.pii import redact_pii

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: "pa.Table") -> "pa.Table":
        ids = pc.cast(t.column("doc_id"), pa.string())
        head = pc.utf8_slice_codeunits(t.column("text"), 0, 30)
        # doc_id % 256 == doc_id & 255 (ids are non-negative); pyarrow
        # has no modulo kernel
        octet = pc.cast(pc.bit_wise_and(t.column("doc_id"), 255), pa.string())
        planted = pc.binary_join_element_wise(
            head, " user", ids, "@mail.example.com or 10.0.0.", octet,
            " call 555-123-4567 now", "",
        )
        return pa.table({"doc_id": t.column("doc_id"), "text": planted})

    return docs.map_batches(plant, batch_format="pyarrow").map_batches(
        redact_pii, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_props_k_stats(sf_dir: str):
    """Vectorized JSON field extraction (stages/jsonx.extract_json_int)
    + per-type rollup with a per-batch combiner."""
    import pyarrow as pa

    from ray.data.aggregate import Max, Min, Sum
    from dupers_ray.stages.jsonx import extract_json_int

    ev = _tbl(sf_dir, "events", ["event_type", "props"])
    withk = ev.map_batches(
        extract_json_int, batch_format="pyarrow", zero_copy_batch=True
    )

    def combine(t: "pa.Table") -> "pa.Table":
        g = (
            t.select(["event_type", "k"])
            .group_by(["event_type"])
            .aggregate([("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        )
        return g.rename_columns(["event_type", "n", "sum_k", "min_k", "max_k"])

    parts = withk.map_batches(combine, batch_format="pyarrow")
    out = parts.groupby("event_type").aggregate(
        Sum("n"), Sum("sum_k"), Min("min_k"), Max("max_k")
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            ["event_type", "n", "sum_k", "min_k", "max_k"]
        ),
        batch_format="pyarrow",
    )


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL sink→source round-trip (sources/jsonl.py): events written as
    .jsonl shards, read back with schema re-cast (ISO timestamps), rolled
    up per event_type — the oracle computes the same rollup from the
    original parquet, so any round-trip loss breaks the value hash."""
    import hashlib
    import shutil

    import pyarrow as pa

    from ray.data.aggregate import Max, Min, Sum
    from dupers_ray.sources.jsonl import read_jsonl, write_jsonl

    key = hashlib.sha256(sf_dir.encode()).hexdigest()[:10]
    outdir = f"/tmp/dupers_ray_jsonl/{key}"
    shutil.rmtree(outdir, ignore_errors=True)
    ev = _tbl(sf_dir, "events", ["event_id", "event_type", "ts", "value"])
    write_jsonl(ev, outdir)
    back = read_jsonl(
        outdir,
        schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("event_type", pa.string()),
                ("ts", pa.timestamp("us")),
                ("value", pa.float64()),
            ]
        ),
    )

    def combine(t: "pa.Table") -> "pa.Table":
        g = (
            t.group_by(["event_type"])
            .aggregate([("event_id", "count"), ("value", "sum"),
                        ("ts", "min"), ("ts", "max")])
        )
        return g.rename_columns(
            ["event_type", "n", "sum_value", "min_ts", "max_ts"]
        )

    parts = back.map_batches(combine, batch_format="pyarrow")
    out = parts.groupby("event_type").aggregate(
        Sum("n"), Sum("sum_value"), Min("min_ts"), Max("max_ts")
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            ["event_type", "n", "sum_value", "min_ts", "max_ts"]
        ),
        batch_format="pyarrow",
    )


def _q_c4_clean(sf_dir: str):
    """C4 line-level page cleaning (stages/c4.c4_clean — Raffel et al.
    2020 §2.2): pages are deterministic multi-line rewrites of the doc
    text (synth.C4_PAGE_REWRITES, restated verbatim by the oracle as
    nested regexp_replace); the cleaner keeps terminal-punctuated ≥5-word
    non-javascript lines and drops pages with '{' / 'lorem ipsum' / <3
    kept lines. FULL value oracle on the cleaned text itself via DuckDB
    list_filter + array_to_string (both engines run RE2). ONE stateless
    streaming pass — no shuffle at any scale."""
    from dupers_ray.stages.c4 import c4_clean
    from dupers_ray.synth import synth_c4_pages

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pages = docs.map_batches(
        synth_c4_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return c4_clean(pages, id_col="doc_id", text_col="page_text")


def _q_blocklist_filter(sf_dir: str):
    """Word-boundary blocklist scoring (stages/c4.blocklist_stats — the
    C4 "bad words" stage shape): ONE RE2 alternation count per doc plus
    an integer-exact keep flag (n_hits*100 <= n_words*max_hit_pct), so
    the oracle is float-free. Stateless streaming pass."""
    from dupers_ray.stages.c4 import blocklist_stats

    return blocklist_stats(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        terms=("spark", "vector", "window"), max_hit_pct=5,
    )


def _q_winnow_fingerprints(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al. 2003, MOSS) — rightmost
    minimum of every w=4 window over the SAME 5-gram hash stream the
    MinHash stack uses (md5-u64 tokens, _POLY rolling fold, splitmix64),
    deduplicated per doc, keeping positions. FULL value oracle: the gram
    construction reuses the near-dup oracle's UHUGEINT restatement and
    the window selection is a ROWS BETWEEN sliding min + rightmost-pos
    join. ONE stateless streaming pass — no shuffle at any scale."""
    from dupers_ray.stages.winnow import winnow_fingerprints

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        winnow_fingerprints, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_winnow_matches(sf_dir: str):
    """MOSS match ranking over the winnowed fingerprint sets: unordered
    doc pairs sharing >= 2 distinct selected gram values, with the exact
    shared count. Two bounded shuffles (gram buckets, then 16-byte pair
    rows) — the candidate step never touches text. Full value oracle
    (fingerprint self-join + HAVING in SQL)."""
    from dupers_ray.stages.winnow import winnow_matches

    return winnow_matches(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), min_shared=2
    )


_WINDOW_US = 14_400_000_000  # 4 h pair window over a 24 h arrival spread


def _q_windowed_near_pairs(sf_dir: str):
    """Time-windowed near-dup pairs (near_dedup.windowed_near_pairs):
    LSH band matches restricted to |dt| <= 4 h, the bounded-history
    streaming-dedup shape — reducer cells keyed (band, hash, epoch) stay
    bounded by 2x one window forever, unlike a global band bucket that
    grows with crawl age. Arrival times are arithmetic (golden-ratio
    scatter of doc_id over 24 h in whole seconds) so the oracle states
    them directly. Full value oracle via the shared OPH signature CTE."""
    import numpy as np
    import pyarrow as _pa

    from dupers_ray.pipelines.near_dedup import windowed_near_pairs

    def add_ts(t: _pa.Table) -> _pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        ts = 1_700_000_000_000_000 + ((ids * 2654435761) % 86400) * 1_000_000
        return t.append_column("ts_us", _pa.array(ts))

    pages = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        add_ts, batch_format="pyarrow", zero_copy_batch=True
    )
    return windowed_near_pairs(pages, window_us=_WINDOW_US)


def _windowed_near_pairs_oracle_sql() -> str:
    """near_dedup.windowed_near_pairs restated: band buckets via the
    shared OPH signature CTE (equal band_hash iff equal 4-component
    sub-signature, modulo the same 2^-64 mix collisions the flagship
    clusters oracle accepts), arrival timestamps restated arithmetically,
    pairs filtered to |dt| <= window and de-duplicated across bands."""
    prefix, _thr = _sig_sql_prefix()
    return f"""
        WITH {prefix}, arrivals AS (
            SELECT doc_id,
                   1700000000000000 + ((doc_id * 2654435761) % 86400)
                       * 1000000 AS ts_us
            FROM documents
        ), bandrows AS (
            SELECT doc_id, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp GROUP BY 1, 2
        ), pairs AS (
            SELECT DISTINCT a.doc_id AS src_id, b.doc_id AS dst_id
            FROM bandrows a JOIN bandrows b
              ON a.band = b.band AND a.sub = b.sub
             AND a.doc_id < b.doc_id
        )
        SELECT p.src_id, p.dst_id,
               abs(tb.ts_us - ta.ts_us) AS dt_us
        FROM pairs p
        JOIN arrivals ta ON ta.doc_id = p.src_id
        JOIN arrivals tb ON tb.doc_id = p.dst_id
        WHERE abs(tb.ts_us - ta.ts_us) <= {_WINDOW_US}
        ORDER BY src_id, dst_id
    """


def _q_first_publishers(sf_dir: str):
    """Keep-earliest dedup attribution (curation.first_publishers): per
    multi-doc near-dup cluster, the earliest-arrival member is the
    origin; every other member gets (origin_id, lag_us). Arrival times
    are the same golden-ratio arithmetic scatter the windowed-pairs
    query uses, so the oracle composes the flagship cluster SQL with one
    window function."""
    import numpy as np
    import pyarrow as _pa

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.curation import first_publishers

    def add_ts(t: _pa.Table) -> _pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        ts = 1_700_000_000_000_000 + ((ids * 2654435761) % 86400) * 1_000_000
        return t.append_column("ts_us", _pa.array(ts))

    pages = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        add_ts, batch_format="pyarrow", zero_copy_batch=True
    )
    return first_publishers(
        pages, DedupConfig(id_col="doc_id", text_col="text")
    )


def _first_publishers_oracle_sql() -> str:
    """curation.first_publishers restated: flagship cluster CTE, arrival
    timestamps arithmetic, min-(ts, doc_id) member per cluster is the
    origin, non-origin members emit their lag."""
    return f"""
        WITH clusters AS ({_near_dup_clusters_oracle_sql()}),
        arrivals AS (
            SELECT doc_id,
                   1700000000000000 + ((doc_id * 2654435761) % 86400)
                       * 1000000 AS ts_us
            FROM documents
        ),
        j AS (
            SELECT c.cluster_id, c.doc_id, a.ts_us
            FROM clusters c JOIN arrivals a USING (doc_id)
        ),
        r AS (
            SELECT cluster_id, doc_id, ts_us,
                   first_value(doc_id) OVER w AS origin_id,
                   first_value(ts_us) OVER w AS origin_ts
            FROM j
            WINDOW w AS (PARTITION BY cluster_id
                         ORDER BY ts_us ASC, doc_id ASC
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND UNBOUNDED FOLLOWING)
        )
        SELECT doc_id, origin_id, ts_us - origin_ts AS lag_us
        FROM r WHERE doc_id <> origin_id
        ORDER BY doc_id
    """


def _q_cdc_chunks(sf_dir: str):
    """Content-defined chunking (stages/cdc.py — LBFS/FastCDC family):
    rolling-hash byte boundaries, one row per chunk with its md5-u64
    identity. Full value oracle (byte-level rolling fold restated with
    hex-gather + lag windows in SQL). Stateless streaming pass."""
    from dupers_ray.stages.cdc import cdc_chunk_table

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        cdc_chunk_table, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_cdc_dedup_stats(sf_dir: str):
    """Chunk-level dedup accounting: what CDC dedup would save on this
    corpus (total vs distinct chunks/bytes, one row). Hash-partitioned
    distinct counting — only 16-byte rows shuffle."""
    from dupers_ray.stages.cdc import cdc_dedup_stats

    return cdc_dedup_stats(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def _q_line_dedup(sf_dir: str):
    """CCNet-style cross-document line dedup (stages/linededup.py): lines
    are deterministic 10-token chunks of the space-split token stream;
    any chunk occurring in >=2 distinct docs is boilerplate and dropped.
    Full value oracle on the cleaned text itself (string_split + list
    slices + anti-join + ordered string_agg in SQL)."""
    from dupers_ray.stages.linededup import remove_duplicate_lines

    return remove_duplicate_lines(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", tokens_per_line=10, min_docs=2,
    )


def _q_paragraph_dedup(sf_dir: str):
    """Dolma/MassiveText-style FIRST-OCCURRENCE paragraph dedup
    (stages/linededup.dedup_paragraphs_first): every repeated 10-token
    chunk keeps only its earliest (doc_id, position) occurrence; later
    copies are cut. Distinct from line_dedup (CCNet drops frequent
    lines from EVERY doc — including the original). Full value oracle
    on the cleaned text via a row_number window over (line ORDER BY
    doc_id, position)."""
    from dupers_ray.stages.linededup import dedup_paragraphs_first

    return dedup_paragraphs_first(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", tokens_per_line=10,
    )


def _q_phrase_search(sf_dir: str):
    """Positional phrase search (pipelines/invindex.phrase_search):
    docs containing the exact token phrase 'customer join' with
    occurrence counts. Partition-pruned occurrence reads shrink to
    packed (doc<<20|pos) keys; the phrase constraint is n-1 global
    sorted-set intersections. Oracle: position self-join over the
    tokenized stream."""
    import hashlib as _h

    from dupers_ray.pipelines.invindex import build_phrase_index, phrase_search

    slug = _h.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    out = f"/tmp/dupers_ray_phraseidx/{slug}"
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        build_phrase_index(_tbl(sf_dir, "documents", ["doc_id", "text"]), out)
        with open(marker, "w") as f:
            f.write("ok")
    return phrase_search(out, ["customer", "join"])


_PHRASE_SEARCH_ORACLE = """
    WITH toks AS (
        SELECT doc_id,
               regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
        FROM documents
    ), pos AS (
        SELECT doc_id, i AS pos, tk[i] AS tok
        FROM toks,
             LATERAL (SELECT unnest(generate_series(1, len(tk))) AS i)
    )
    SELECT p0.doc_id, CAST(count(*) AS BIGINT) AS n_matches
    FROM pos p0 JOIN pos p1
      ON p1.doc_id = p0.doc_id AND p1.pos = p0.pos + 1
    WHERE p0.tok = 'customer' AND p1.tok = 'join'
    GROUP BY p0.doc_id
"""


def _q_top_quality_per_source(sf_dir: str):
    """Grouped top-k without a global sort (pipelines/report.py
    top_quality_per_source): per source, the 3 highest hashed-BoW
    quality scores (min-id ties). Partial per-batch top-k folds
    driver-side; the oracle is the row_number window."""
    from dupers_ray.pipelines.report import top_quality_per_source

    return top_quality_per_source(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]), k=3
    )


def _top_quality_per_source_oracle_sql() -> str:
    q = _quality_oracle_sql()
    return f"""
        WITH q AS (SELECT * FROM ({q})),
        r AS (
            SELECT d.source, q.doc_id, q.score,
                   row_number() OVER (
                       PARTITION BY d.source
                       ORDER BY q.score DESC, q.doc_id ASC
                   ) AS rk
            FROM documents d JOIN q ON q.doc_id = d.doc_id
        )
        SELECT source, CAST(rk AS BIGINT) AS rank, doc_id, score
        FROM r WHERE rk <= 3
    """


def _q_lexical_semantic_agreement(sf_dir: str):
    """Pair-counting agreement between the flagship LEXICAL near-dup
    clusters and the SEMANTIC k-means cells (text -> embed_texts ->
    SemDeDup cell map): quantifies the SemDeDup premise that lexical
    duplicates co-locate in embedding cells (containment_a_ppm is the
    fraction of lexical dup-pair mass the cells capture). Same C(n,2)
    arithmetic as cluster_agreement — no pair enumeration."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.diff import cluster_agreement
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.stages.embed_texts import embed_texts
    from dupers_ray.stages.semdedup import semantic_dedup

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    a = dupe_clusters(docs, DedupConfig(id_col="doc_id", text_col="text"))
    emb = embed_texts(docs, concurrency=(1, 4)).filter(expr="n_tokens > 0")
    sem = semantic_dedup(
        emb, n_clusters=8, threshold=0.4, iters=0, id_col="doc_id"
    ).select_columns(["doc_id", "cell"])
    return cluster_agreement(a, sem, b_col="cell")


def _lexical_semantic_agreement_oracle_sql() -> str:
    """Flagship cluster SQL x the semantic cell-map CTE chain, joined
    into the same joint-count C(n,2) arithmetic the cluster_agreement
    oracle uses (tokenless docs absent from the cell map, so the inner
    join intersects exactly like the engine's cogroup join)."""
    near = _near_dup_clusters_oracle_sql()
    return f"""
        WITH a AS ({near}),
        {_embed_sql_cte()},
        embl AS (
            SELECT doc_id,
                   list(CAST(v AS DOUBLE) ORDER BY j) AS embedding
            FROM emb GROUP BY doc_id
        ), cents AS (
            SELECT row_number() OVER (ORDER BY doc_id) - 1 AS cell,
                   embedding AS ce
            FROM embl
            QUALIFY row_number() OVER (ORDER BY doc_id) <= 8
        ), assign AS (
            SELECT e.doc_id, c.cell,
                   row_number() OVER (
                       PARTITION BY e.doc_id
                       ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                c.cell ASC
                   ) AS rk
            FROM embl e CROSS JOIN cents c
        ), cellmap AS (
            SELECT doc_id, cell FROM assign WHERE rk = 1
        ), j AS (
            SELECT a.cluster_id AS ca, b.cell AS cb, count(*) AS n
            FROM a JOIN cellmap b ON a.doc_id = b.doc_id GROUP BY 1, 2
        ),
        pb AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v FROM j),
        ma AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v
               FROM (SELECT sum(n) AS n FROM j GROUP BY ca)),
        mb AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v
               FROM (SELECT sum(n) AS n FROM j GROUP BY cb))
        SELECT CAST(ma.v AS BIGINT) AS pairs_a,
               CAST(mb.v AS BIGINT) AS pairs_b,
               CAST(pb.v AS BIGINT) AS pairs_both,
               CAST(CASE WHEN ma.v > 0
                    THEN pb.v * 1000000 // ma.v ELSE 0 END AS BIGINT)
                   AS containment_a_ppm,
               CAST(CASE WHEN mb.v > 0
                    THEN pb.v * 1000000 // mb.v ELSE 0 END AS BIGINT)
                   AS containment_b_ppm,
               CAST(CASE WHEN ma.v + mb.v - pb.v > 0
                    THEN pb.v * 1000000 // (ma.v + mb.v - pb.v)
                    ELSE 0 END AS BIGINT) AS jaccard_ppm
        FROM pb, ma, mb
    """


def _q_novelty_by_source(sf_dir: str):
    """Per-source novelty rollup (stages/repetition.novelty_by_key):
    which sources still contribute first-seen shingles vs recirculate —
    the crawl-budget readout. One cogroup join of 16 B id rows +
    driver fold of bounded key partials."""
    from dupers_ray.stages.repetition import novelty_by_key

    return novelty_by_key(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]), k=8
    )


def _q_source_quality_report(sf_dir: str):
    """Per-source curation dashboard (pipelines/report.py
    source_quality_report): Gopher passes, hashed-BoW quality sums,
    exact-dup counts — ONE fused scan + driver fold; oracle composes
    the gopher and quality SQL as derived tables plus the exact-dup
    window."""
    from dupers_ray.pipelines.report import source_quality_report

    return source_quality_report(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    )


def _source_quality_report_oracle_sql() -> str:
    g, q = _gopher_oracle_sql(), _quality_oracle_sql()
    return f"""
        WITH g AS (SELECT * FROM ({g})),
        q AS (SELECT * FROM ({q})),
        dup AS (
            SELECT doc_id FROM (
                SELECT doc_id,
                       min(doc_id) OVER (PARTITION BY sha256(text)) AS m
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ) WHERE doc_id > m
        )
        SELECT d.source,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(g.keep) AS BIGINT) AS n_gopher_pass,
               CAST(sum(q.score) AS BIGINT) AS sum_quality,
               CAST(sum(q."keep") AS BIGINT) AS n_quality_keep,
               CAST(count(dup.doc_id) AS BIGINT) AS n_exact_dup
        FROM documents d
        JOIN g ON g.doc_id = d.doc_id
        JOIN q ON q.doc_id = d.doc_id
        LEFT JOIN dup ON dup.doc_id = d.doc_id
        GROUP BY d.source
    """


def _q_content_novelty(sf_dir: str):
    """Arrival-order content novelty (stages/repetition.content_novelty):
    per doc, how many of its distinct word-8-gram shingles appear in NO
    smaller-id document — the 'new content per crawl page' measure.
    Integer-exact; same shingle contract as dup_ngram_coverage."""
    from dupers_ray.stages.repetition import content_novelty

    return content_novelty(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", k=8,
    )


def _q_novelty_sampled(sf_dir: str):
    """Hash-Bernoulli-sampled content novelty (sample_ppm=250_000 = a 25%
    gram sample): the 100-TB-affordable estimator for the exact-novelty
    shuffle (round-3 verdict #4). The predicate is on the GRAM key, so a
    kept gram is kept in every doc and its min-id owner is exact —
    sampling only subsamples which grams are counted. Full value oracle:
    the md5-u64 gram hash → splitmix64 → mod-10^6 chain is restated in
    SQL, so this is NOT a rows-only check."""
    from dupers_ray.stages.repetition import content_novelty

    return content_novelty(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", k=8, sample_ppm=250_000,
    )


def _novelty_sampled_oracle_sql(ppm: int = 250_000) -> str:
    """_CONTENT_NOVELTY_ORACLE with the gram set filtered by the engine's
    hash-Bernoulli predicate: splitmix64(md5_u64(gram)) % 10^6 < ppm
    (same finalizer constants as _sample_hash_oracle_sql, applied to the
    gram hash instead of doc_id; salt=0)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
            FROM documents WHERE text IS NOT NULL
        ), sh AS (
            SELECT doc_id,
                CASE
                    WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
                    WHEN len(tk) < 8 THEN [array_to_string(tk, chr(31))]
                    ELSE list_distinct([array_to_string(tk[i:i+7], chr(31))
                                        FOR i IN range(1, len(tk) - 6)])
                END AS grams
            FROM toks
        ), g0 AS (
            SELECT doc_id, unnest(grams) AS gr FROM sh
        ), sm AS (
            SELECT doc_id, gr,
                   ((('0x'||substr(md5(gr),1,16))::UBIGINT::UHUGEINT
                     + 11400714819323198485::UHUGEINT) % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM g0
        ), g AS (
            SELECT doc_id, gr FROM sm WHERE h % 1000000 < {ppm}
        ), own AS (
            SELECT gr, min(doc_id) AS owner FROM g GROUP BY gr
        ), nov AS (
            SELECT g.doc_id, count(*) FILTER (g.doc_id = o.owner) AS n_novel
            FROM g JOIN own o USING (gr) GROUP BY g.doc_id
        ), cnt AS (
            SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id
        )
        SELECT c.doc_id,
               CAST(c.n_grams AS BIGINT) AS n_grams,
               CAST(coalesce(n.n_novel, 0) AS BIGINT) AS n_novel
        FROM cnt c LEFT JOIN nov n USING (doc_id)
    """


_CONTENT_NOVELTY_ORACLE = r"""
    WITH toks AS (
        SELECT doc_id,
               regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
        FROM documents WHERE text IS NOT NULL
    ), sh AS (
        SELECT doc_id,
            CASE
                WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(tk) < 8 THEN [array_to_string(tk, chr(31))]
                ELSE list_distinct([array_to_string(tk[i:i+7], chr(31))
                                    FOR i IN range(1, len(tk) - 6)])
            END AS grams
        FROM toks
    ), g AS (
        SELECT doc_id, unnest(grams) AS gr FROM sh
    ), own AS (
        SELECT gr, min(doc_id) AS owner FROM g GROUP BY gr
    ), nov AS (
        SELECT g.doc_id, count(*) FILTER (g.doc_id = o.owner) AS n_novel
        FROM g JOIN own o USING (gr) GROUP BY g.doc_id
    )
    SELECT s.doc_id,
           CAST(len(s.grams) AS BIGINT) AS n_grams,
           CAST(coalesce(n.n_novel, 0) AS BIGINT) AS n_novel
    FROM sh s LEFT JOIN nov n USING (doc_id)
    WHERE len(s.grams) > 0
"""


def _q_edit_verified_pairs(sf_dir: str):
    """Myers bit-parallel exact edit distance (stages/editdist.py) over
    the simhash hamming<=3 pair set: 64-char-prefix Levenshtein,
    vectorized across pairs (one uint64 lane each). Oracle composes the
    simhash pair SQL with DuckDB levenshtein(substr(..,1,64)) —
    byte-based there, char-based here, equal on this pure-ASCII corpus
    (same caveat the simhash oracle documents for its tokenizer)."""
    from dupers_ray.stages.editdist import edit_verified_pairs

    return edit_verified_pairs(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def _edit_verified_pairs_oracle_sql() -> str:
    sim = _simhash_oracle_sql()
    return f"""
        WITH nodes2 AS (
            SELECT doc_id, text,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT
                       AS node
            FROM documents
        ), pairs AS (
            SELECT * FROM ({sim})
        )
        SELECT p.src, p.dst, p.hamming,
               CAST(levenshtein(substr(a.text, 1, 64),
                                substr(b.text, 1, 64)) AS BIGINT)
                   AS edit_dist
        FROM pairs p
        JOIN nodes2 a ON a.node = p.src
        JOIN nodes2 b ON b.node = p.dst
    """


def _q_cluster_edit_profile(sf_dir: str):
    """Intra-cluster divergence (stages/editdist.cluster_edit_profile):
    per flagship near-dup cluster member, the exact 64-char-prefix edit
    distance to its cluster anchor — the threshold-tuning readout.
    Anchor pairs derive from the parallelism-independent ASSIGNMENT
    (the shard-dependent candidate star edges never surface). Oracle:
    flagship SQL + levenshtein."""
    from dupers_ray.stages.editdist import cluster_edit_profile

    return cluster_edit_profile(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def _cluster_edit_profile_oracle_sql() -> str:
    near = _near_dup_clusters_oracle_sql()
    return f"""
        WITH assign AS ({near}),
        nodes2 AS (
            SELECT doc_id,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT
                       AS node
            FROM documents
        ), anchors AS (
            SELECT a.cluster_id, n.doc_id AS anchor_id
            FROM assign a JOIN nodes2 n ON n.doc_id = a.doc_id
            WHERE n.node = a.cluster_id
        ), members AS (
            SELECT an.anchor_id, a.doc_id AS member_id
            FROM assign a
            JOIN nodes2 n ON n.doc_id = a.doc_id
            JOIN anchors an ON an.cluster_id = a.cluster_id
            WHERE n.node <> a.cluster_id
        )
        SELECT m.anchor_id, m.member_id,
               CAST(levenshtein(substr(ta.text, 1, 64),
                                substr(tb.text, 1, 64)) AS BIGINT)
                   AS edit_dist
        FROM members m
        JOIN documents ta ON ta.doc_id = m.anchor_id
        JOIN documents tb ON tb.doc_id = m.member_id
    """


def _q_dedup_method_venn(sf_dir: str):
    """Dedup-method Venn (pipelines/venn.dedup_method_venn): run exact /
    normalized / flagship-near / simhash dedup INDEPENDENTLY and
    histogram the per-doc 4-bit flag masks — the method-overlap report
    the tier cascade's first-catch attribution cannot express. Oracle
    composes the flagship cluster SQL and the simhash pair SQL as
    derived tables plus two window-function groupings."""
    from dupers_ray.pipelines.venn import dedup_method_venn

    return dedup_method_venn(
        _tbl(sf_dir, "documents", ["doc_id", "text", "n_chars"]),
        weight_col="n_chars",
    )


def _dedup_method_venn_oracle_sql() -> str:
    """Bit semantics mirror pipelines/venn.py: 1=exact (min-id keep per
    sha256(text), empties skipped), 2=normalized exact (C4 normalize,
    empty-after-norm skipped), 4=flagship cluster non-anchor, 8=simhash
    larger-node pair end. mask-0 row = corpus minus flagged."""
    near = _near_dup_clusters_oracle_sql()
    sim = _simhash_oracle_sql()
    return f"""
        WITH nodes2 AS (
            SELECT doc_id,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT
                       AS node
            FROM documents
        ), exact_f AS (
            SELECT doc_id FROM (
                SELECT doc_id,
                       min(doc_id) OVER (PARTITION BY sha256(text)) AS m
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ) WHERE doc_id > m
        ), norm_f AS (
            SELECT doc_id FROM (
                SELECT doc_id, min(doc_id) OVER (PARTITION BY sha256(tn)) AS m
                FROM (
                    SELECT doc_id,
                           trim(regexp_replace(regexp_replace(
                               lower(text), '[^a-z0-9\\s]+', '', 'g'),
                               '\\s+', ' ', 'g'), ' ') AS tn
                    FROM documents
                ) WHERE tn IS NOT NULL AND length(tn) > 0
            ) WHERE doc_id > m
        ), assign AS (
            SELECT * FROM ({near})
        ), near_f AS (
            SELECT a.doc_id
            FROM assign a JOIN nodes2 n ON n.doc_id = a.doc_id
            WHERE a.cluster_id <> n.node
        ), sim_f AS (
            SELECT DISTINCT n.doc_id
            FROM nodes2 n JOIN ({sim}) p ON p.dst = n.node
        ), bits AS (
            SELECT doc_id, 1 AS b FROM exact_f
            UNION ALL SELECT doc_id, 2 FROM norm_f
            UNION ALL SELECT doc_id, 4 FROM near_f
            UNION ALL SELECT doc_id, 8 FROM sim_f
        ), masks AS (
            SELECT doc_id, sum(b) AS mask FROM bits GROUP BY doc_id
        ), perdoc AS (
            SELECT d.doc_id, COALESCE(m.mask, 0) AS mask, d.n_chars
            FROM documents d LEFT JOIN masks m ON m.doc_id = d.doc_id
        )
        SELECT CAST(mask AS BIGINT) AS mask,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS n_chars
        FROM perdoc GROUP BY mask
    """


def _q_bm25_scores(sf_dir: str):
    """Okapi BM25 ranked retrieval (pipelines/invindex.bm25_scores) for
    the 2-term query the indexed_search ops use: partition-pruned df
    pass + stateless scoring of matched postings (tf/dl denormalized
    into the posting rows at build). Emits ALL matching docs with their
    scores — the row set is float-free; the float score column rides the
    driver's round-6 compare like the cosine ops."""
    from dupers_ray.pipelines.invindex import bm25_scores

    return bm25_scores(_invindex_dir(sf_dir), ["join", "data"])


_BM25_ORACLE = """
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM documents
    ), dl AS (
        SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id
    ), stats AS (
        SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
               (SELECT sum(dl) FROM dl)
                   / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
    ), tf AS (
        SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM toks
        WHERE tok IN ('data', 'join') GROUP BY doc_id, tok
    ), df AS (
        SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
    )
    SELECT t.doc_id,
           sum(ln((s.n - d.df + 0.5) / (d.df + 0.5) + 1.0)
               * (t.tf * (1.2 + 1.0)
                  / (t.tf + 1.2 * (1.0 - 0.75 + 0.75 * l.dl / s.avgdl)))
           ) AS score
    FROM tf t
    JOIN df d ON t.tok = d.tok
    JOIN dl l ON t.doc_id = l.doc_id
    CROSS JOIN stats s
    GROUP BY t.doc_id
"""


def _q_bm25_incremental(sf_dir: str):
    """Incremental index maintenance (pipelines/invindex.py
    update_token_index — dupers `up`/walkCompare applied to the search
    index): build on the doc_id<250 half, update with the full corpus
    (anti-join filters to the unindexed delta, posting files append),
    then BM25. The oracle is the FULL-corpus BM25 SQL — the update must
    be indistinguishable from a fresh full build."""
    import hashlib as _h

    from dupers_ray.pipelines.invindex import (
        bm25_scores,
        build_token_index,
        update_token_index,
    )

    slug = _h.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    out = f"/tmp/dupers_ray_invindex/{slug}_v2_inc"
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        full = _tbl(sf_dir, "documents", ["doc_id", "text"])
        build_token_index(full.filter(expr="doc_id < 250"), out)
        update_token_index(full, out)
        with open(marker, "w") as f:
            f.write("ok")
    return bm25_scores(out, ["join", "data"])


def _q_temperature_mix(sf_dir: str):
    """Temperature-weighted source mixing (stages/budget.py
    temperature_sample): keep-rate per source proportional to
    sqrt(n_s)/n_s (alpha=0.5 up-weights low-resource sources), drawn by
    the splitmix64 hash-Bernoulli; all-integer rate arithmetic so the
    oracle is float-comparison-free."""
    from dupers_ray.stages.budget import temperature_sample

    return temperature_sample(
        _tbl(sf_dir, "documents", ["doc_id", "source"]),
        target_rows=300,
    )


def _temperature_mix_oracle_sql() -> str:
    """Integer restatement: w=floor(sqrt(n)) (double sqrt, exact below
    2^52), r = least(D, T*w*D // (S*n)), keep iff splitmix64(doc_id) %
    D < r — same finalizer chain as _sample_hash_oracle_sql."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH counts AS (
            SELECT source, count(*)::BIGINT AS n FROM documents
            GROUP BY source
        ), w AS (
            SELECT source, n, CAST(floor(sqrt(n)) AS BIGINT) AS w
            FROM counts
        ), rate AS (
            SELECT source,
                   least(1000000::BIGINT,
                         (300::BIGINT * w * 1000000::BIGINT)
                         // ((SELECT sum(w) FROM w)::BIGINT * n)) AS r
            FROM w
        ), sm AS (
            SELECT doc_id, source,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        )
        SELECT d.doc_id, d.source
        FROM sm d JOIN rate r ON d.source = r.source
        WHERE d.h % 1000000 < r.r::UBIGINT
    """


def _q_hreflang_edges(sf_dir: str):
    """Translation-cluster mining from hreflang alternates
    (stages/linkgraph.alternate_links — the ParaCrawl-style signal):
    docs 3k/3k+1/3k+2 are language variants (en/fr/de by doc_id % 3)
    and each page declares its two siblings, plus a rel=stylesheet
    decoy the extractor must drop. Output (doc_id, hreflang, href) —
    two rows per doc, stated arithmetically in SQL."""
    import pyarrow as _pa

    from dupers_ray.stages.linkgraph import alternate_links

    langs = ["en", "fr", "de"]

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        pages = []
        for i in ids:
            head = i - i % 3
            alts = "".join(
                f'<link rel="alternate" hreflang="{langs[j]}" '
                f'href="https://host{head + j}.example/p">'
                for j in range(3) if head + j != i
            )
            pages.append(
                (
                    f"<html><head>{alts}"
                    '<link rel="stylesheet" href="https://x.css">'
                    "</head><body>x</body></html>"
                ).encode()
            )
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "html": _pa.array(pages, _pa.binary()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return pages.map_batches(
        alternate_links, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_canonical_dup_groups(sf_dir: str):
    """rel=canonical-aware URL dedup (stages/urlnorm.
    extract_canonical_href → pipelines/urls.url_dup_groups on the
    DECLARED identity): docs with doc_id % 5 != 0 declare the group
    head host{doc_id - doc_id%5} as canonical; heads declare nothing
    and fall back to their own url — so every 5-doc run collapses to
    one group with the head as survivor. Planted arithmetic stated in
    SQL."""
    import pyarrow as _pa

    from dupers_ray.pipelines.urls import url_dup_groups
    from dupers_ray.stages.urlnorm import extract_canonical_href

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        urls, pages = [], []
        for i in ids:
            urls.append(f"https://host{i}.example/p")
            if i % 5:
                head = i - i % 5
                link = (
                    f'<link rel="canonical" '
                    f'href="https://host{head}.example/p">'
                )
            else:
                link = ""
            pages.append(
                f"<html><head>{link}</head><body>x</body></html>".encode()
            )
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "url": _pa.array(urls, _pa.string()),
            "html": _pa.array(pages, _pa.binary()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        extract_canonical_href, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        lambda t: t.select(["doc_id", "canonical"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return url_dup_groups(pages, url_col="canonical")


def _q_jsonld_extract(sf_dir: str):
    """schema.org structured-data mining (stages/jsonx.extract_jsonld +
    the typed field kernels): pull the ld+json block out of raw html
    bytes with ONE vectorized RE2 match, then extract @type/name/
    position fields — all planted arithmetically, stated in SQL."""
    import pyarrow as _pa

    from dupers_ray.stages.jsonx import (
        extract_json_int,
        extract_json_str,
        extract_jsonld,
    )

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        pages = []
        for i in ids:
            typ = "Article" if i % 3 else "Product"
            block = (
                f'{{"@type": "{typ}", "name": "item {i}", '
                f'"position": {i % 7}}}'
            )
            pages.append(
                (
                    '<html><head><script type="application/ld+json">'
                    f"{block}</script></head><body><p>x</p></body></html>"
                ).encode()
            )
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "html": _pa.array(pages, _pa.binary()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )

    def fields(t: _pa.Table) -> _pa.Table:
        t = extract_jsonld(t)
        t = extract_json_str(t, col="jsonld", key="@type", out_col="type")
        t = extract_json_str(t, col="jsonld", key="name", out_col="name")
        t = extract_json_int(t, col="jsonld", key="position")
        return t.select(["doc_id", "type", "name", "position"])

    return pages.map_batches(
        fields, batch_format="pyarrow", zero_copy_batch=True
    )


def _mk_template_pages(t):
    """Synthesize three CMS-style page templates from doc_id (t = id % 3)
    with per-doc text AND per-doc attribute values, so the skeleton
    kernel has to strip both. Restated verbatim in the oracle SQL."""
    import pyarrow as _pa

    ids = t.column("doc_id").to_pylist()
    pages = []
    for i in ids:
        k = i % 3
        if k == 0:
            h = (
                f'<html><head><title>Doc {i}</title></head>'
                f'<body><div class="main" id="m{i}"><h1>T {i}</h1>'
                f"<p>p{i} one</p><p>p{i} two</p></div></body></html>"
            )
        elif k == 1:
            h = (
                f'<html><head><meta charset="utf-8"><title>P {i}</title>'
                f"</head><body><ul><li>a{i}</li><li>b{i}</li></ul>"
                f"</body></html>"
            )
        else:
            h = (
                f'<html><body><table border="1"><tr><td>{i}</td>'
                f"<td>x</td></tr></table></body></html>"
            )
        pages.append(h.encode())
    return _pa.table({
        "doc_id": t.column("doc_id"),
        "html": _pa.array(pages, _pa.binary()),
    })


def _q_template_keys(sf_dir: str):
    """Per-page DOM template fingerprint (stages/template.template_keys):
    strip inter-tag text + attributes with two vectorized RE2 rewrites,
    md5-u64 the interned skeleton. The oracle re-derives the skeleton
    from the SAME reconstructed html with the SAME regexp_replace chain
    in DuckDB — full-chain value parity, not a planted-truth restatement."""
    from dupers_ray.stages.template import template_keys

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        _mk_template_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return template_keys(pages)


def _q_mirror_hosts(sf_dir: str):
    """Mirror-site detection (pipelines/overlap.mirror_hosts): hosts 0-2
    serve family-A pages, 3-5 family-B, each with doc_id%11==0 uniques —
    exact Jaccard over distinct content-digest sets keeps the two
    within-family triangles. Oracle: the same derivation with a DISTINCT
    self-join."""
    import pyarrow as _pa

    from dupers_ray.pipelines.overlap import mirror_hosts

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        host = [f"h{i % 6}" for i in ids]
        text = [
            (f"{h}-unique-{i}" if i % 11 == 0 else
             f"{'A' if i % 6 < 3 else 'B'}p{i % 35}")
            for i, h in zip(ids, host)
        ]
        return _pa.table({
            "host": _pa.array(host, _pa.string()),
            "text": _pa.array(text, _pa.string()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return mirror_hosts(pages, min_jaccard=0.3)


def _q_mirror_clusters(sf_dir: str):
    """Site clusters (pipelines/overlap.mirror_clusters): components
    over the mirror graph — the two planted families collapse to their
    min-node labels (same derivation as mirror_hosts). Oracle: per-host
    min sha256-u64 node over the family."""
    import pyarrow as _pa

    from dupers_ray.pipelines.overlap import mirror_clusters

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        host = [f"h{i % 6}" for i in ids]
        text = [
            (f"{h}-unique-{i}" if i % 11 == 0 else
             f"{'A' if i % 6 < 3 else 'B'}p{i % 35}")
            for i, h in zip(ids, host)
        ]
        return _pa.table({
            "host": _pa.array(host, _pa.string()),
            "text": _pa.array(text, _pa.string()),
        })

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return mirror_clusters(pages, min_jaccard=0.3)


def _q_template_clusters(sf_dir: str):
    """Template-level rollup (stages/template.template_clusters):
    (template_u64, n_pages, exemplar, n_tags) via the combiner→groupby
    shape — one row per distinct template per batch crosses the wire.
    Reference analogue: content-hash dup groups (pkg/dupe/dupe.go:919-931)
    lifted to DOM structure."""
    from dupers_ray.stages.template import template_clusters

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        _mk_template_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return template_clusters(pages)


def _q_pack_sequences(sf_dir: str):
    """GPT-style sequence-packing layout (stages/budget.pack_sequences):
    global token offset of every doc in the concatenated (+EOS) stream
    and the fixed-length window range it occupies — computed with the
    bucketed-prefix plan (NO full sort), restated in SQL as one ordered
    window sum."""
    from dupers_ray.stages.budget import pack_sequences

    return pack_sequences(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), seq_len=256
    )


def _q_packed_windows(sf_dir: str):
    """Materialized packed training windows (stages/budget.
    packed_windows): md5-u64 token ids (+EOS 0) concatenated in doc_id
    order, sliced into 256-token windows; per window the count and an
    order-sensitive mod-2^64 checksum Σ tid·(pos_in_window+1). The
    oracle rebuilds the stream with generate_subscripts + window sums
    and HUGEINT mod-2^64 arithmetic — a full value oracle on the
    materialization itself."""
    from dupers_ray.stages.budget import packed_windows

    return packed_windows(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), seq_len=256
    )


def _lsh_threshold_sweep_oracle_sql() -> str:
    """Histogram restatement of pair_similarity_histogram at default
    config: the shared OPH signature CTE (_sig_sql_prefix), the SAME
    distinct star-pair candidate CTEs as the flagship clusters oracle,
    and a fold16 match count bucketed by matches // 8."""
    prefix, _thr = _sig_sql_prefix()
    return f"""
        WITH {prefix}, nodes AS (
            SELECT doc_id,
                   ('0x'||substr(sha256(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS node
            FROM documents
        ), bandrows AS (
            SELECT s.doc_id, n.node, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp s JOIN nodes n USING (doc_id)
            GROUP BY s.doc_id, n.node, CAST(bin // 4 AS INTEGER)
        ), stars AS (
            SELECT band, sub, min(node) AS anchor, list(node) AS members
            FROM bandrows GROUP BY band, sub HAVING count(*) >= 2
        ), cand AS (
            SELECT DISTINCT anchor AS a, unnest(members) AS b FROM stars
        ), candf AS (
            SELECT a, b FROM cand WHERE a <> b
        ), folds AS (
            SELECT doc_id, list(comp & 65535::UBIGINT ORDER BY bin) AS f16
            FROM sigcomp GROUP BY doc_id
        ), nodefolds AS (
            SELECT n.node, f.f16 FROM folds f JOIN nodes n USING (doc_id)
        ), scored AS (
            SELECT len(list_filter([x FOR x IN range(1, 129)],
                                   i -> fa.f16[i] = fb.f16[i])) AS m
            FROM candf c
            JOIN nodefolds fa ON fa.node = c.a
            JOIN nodefolds fb ON fb.node = c.b
        )
        SELECT CAST(m // 8 AS BIGINT) AS bucket,
               CAST(m // 8 AS DOUBLE) * 8 / 128 AS min_jaccard,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM scored GROUP BY m // 8
    """


def _q_perceptron_weights(sf_dir: str):
    """Distributed batch-perceptron training (stages/quality.
    train_bow_perceptron, 2 iterations, labels y = ±1 by doc_id parity):
    integer-exact hashed-BoW weights. The oracle UNROLLS both iterations
    as CTEs — w1 = Σ y·x (w0=0 makes every margin 0), then the
    margin-filtered second gradient — restating iterative training
    exactly because each step is a grouped integer sum."""
    import numpy as _np
    import pyarrow as _pa

    from dupers_ray.stages.quality import train_bow_perceptron

    def mk(t: _pa.Table) -> _pa.Table:
        ids = _np.asarray(t.column("doc_id"), dtype=_np.int64)
        y = _np.where(ids % 2 == 0, 1, -1).astype(_np.int64)
        return _pa.table({"label": _pa.array(y), "text": t.column("text")})

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return train_bow_perceptron(docs, label_col="label", iters=2)


def _q_perceptron_filter(sf_dir: str):
    """Train → apply chain (stages/quality.score_with_bow_weights): the
    2-iteration perceptron's weights broadcast back over the corpus, per
    doc the integer score and sign prediction. Oracle extends the
    unrolled-training CTEs with one final score pass."""
    import numpy as _np
    import pyarrow as _pa

    from dupers_ray.stages.quality import (
        score_with_bow_weights, train_bow_perceptron,
    )

    def mk(t: _pa.Table) -> _pa.Table:
        ids = _np.asarray(t.column("doc_id"), dtype=_np.int64)
        y = _np.where(ids % 2 == 0, 1, -1).astype(_np.int64)
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "label": _pa.array(y),
            "text": t.column("text"),
        })

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    w = train_bow_perceptron(docs, label_col="label", iters=2)
    return score_with_bow_weights(docs, w)


def _q_lsh_threshold_sweep(sf_dir: str):
    """Measured LSH S-curve (pipelines/near_dedup.
    pair_similarity_histogram): distinct candidate pairs histogrammed by
    fold16 match count at default config — the empirical companion to
    minhash.plan_lsh. Oracle: the shared signature CTE + a list_filter
    match count, grouped by matches // 8."""
    from dupers_ray.pipelines.near_dedup import pair_similarity_histogram

    return pair_similarity_histogram(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id", text_col="text",
    )


def _q_chunk_docs(sf_dir: str):
    """RAG sliding-window chunking (stages/budget.chunk_docs): 32-token
    windows every 16 tokens, chunk text joined by one space; token-less
    docs emit one empty chunk. Full value oracle on the chunk text via
    unnest(generate_series) + 1-based list slices."""
    from dupers_ray.stages.budget import chunk_docs

    return chunk_docs(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        chunk_len=32, stride=16,
    )


def _q_lm_rarity(sf_dir: str):
    """Bigram-LM rarity score (stages/lmscore.bigram_rarity): per doc the
    integer surprisal surrogate Σ floor(2^20/(corpus_bigram_count+1)) —
    CCNet's perplexity ordering with the count-derived fixed-point score
    (module docstring). Combiner-counted bigrams, broadcast lookup; the
    oracle restates the md5-u64 → h0*P+h1 → splitmix64 chain in SQL."""
    from dupers_ray.stages.lmscore import bigram_rarity

    return bigram_rarity(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def _q_lm_rarity_join(sf_dir: str):
    """Same values as lm_rarity via the cogroup-join path (the scale
    route when the bigram table exceeds broadcast_limit) — value-checks
    the join machinery against the same oracle."""
    from dupers_ray.stages.lmscore import bigram_rarity

    return bigram_rarity(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), strategy="join"
    )


def _q_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail terciles (stages/lmscore.rarity_buckets):
    exact integer rank cuts over the avg-rarity distribution (combiner-
    reduced to <= 2^20+1 rows), restated in SQL with the same
    ceil-rank formulas."""
    from dupers_ray.stages.lmscore import rarity_buckets

    return rarity_buckets(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def _q_bpe_pair_counts(sf_dir: str):
    """BPE first-merge statistics (stages/bpe.pair_counts): top-50
    adjacent character pairs weighted by word frequency — the
    vocabulary-groupby + compact pair-groupby plan; the oracle restates
    the substr windows over the token stream directly."""
    from dupers_ray.stages.bpe import pair_counts

    return pair_counts(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), k=50
    )


def _q_bpe_merges(sf_dir: str):
    """Learned BPE merge table (stages/bpe.bpe_merges — Sennrich 2016,
    deterministic tie-break): one distributed word-count pass, then the
    vocab-bounded merge loop. rows-only by documented design (iterative
    merges are not SQL-expressible); round 0 is value-checked by
    bpe_pair_counts' oracle and the full loop is pinned against a brute
    reference in tests/test_bpe.py."""
    from dupers_ray.stages.bpe import bpe_merges

    return bpe_merges(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), n_merges=30
    )


def _q_bpe_token_counts(sf_dir: str):
    """Corpus tokenized under its OWN learned BPE (stages/bpe.
    bpe_encode_counts): merge table trained in one distributed
    word-count pass, broadcast once, applied per unique word per batch
    — per-doc (n_words, n_pieces) under the real tokenizer. rows-only
    by documented design (the merge-apply loop is not SQL-expressible);
    greedy-apply ≡ rank-replay is pinned in tests/test_bpe.py."""
    from dupers_ray.stages.bpe import bpe_encode_counts, bpe_merges

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_merges(docs, n_merges=30)
    return bpe_encode_counts(docs, merges)


def _q_dup_recall_report(sf_dir: str):
    """The north rule's conformance number, driver-visible: flagship
    clusters over the seeded synthetic pages corpus (planted exact+near
    ground truth, synth.py) scored against every planted same-cluster
    pair. recall_ppm must be >= 990000 (pinned exactly in
    tests/test_near_dedup.py). rows-only by documented design — MinHash
    banding is not SQL-expressible; the VALUE machinery is oracle-green
    via near_dup_clusters / near_incremental on the driver tables."""
    import pandas as pd

    import ray.data as rd

    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.synth import synth_pages

    res = synth_pages(n=2000, seed=42)
    clusters = dupe_clusters(
        rd.from_arrow(res.pages).repartition(8), DedupConfig()
    ).to_pandas()
    cid = dict(zip(clusters["url"], clusters["cluster_id"]))

    from collections import defaultdict

    by_cluster = defaultdict(list)
    for url, c, kind in zip(
        res.truth["url"].to_pylist(),
        res.truth["cluster_id"].to_pylist(),
        res.truth["kind"].to_pylist(),
    ):
        if kind in ("exact", "near"):
            by_cluster[c].append(url)
    planted = found = 0
    for urls in by_cluster.values():
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                planted += 1
                if cid.get(urls[i]) == cid.get(urls[j]):
                    found += 1
    return pd.DataFrame(
        [{
            "n_docs": len(res.pages),
            "planted_pairs": planted,
            "found_pairs": found,
            "recall_ppm": found * 1_000_000 // max(planted, 1),
        }]
    )


def _q_mix_budget(sf_dir: str):
    """Training-mix assembly (stages/budget.select_mix_budget): an
    independent deterministic token budget PER SOURCE — budget for
    src{k} = 500 + 400*(k%4) tokens, taken in splitmix64(doc_id) order
    within each source. Same no-full-sort bucket machinery as
    token_budget with the bucket key fused with a source index; the
    oracle is the per-source PARTITIONed ordered window."""
    from dupers_ray.stages.budget import select_mix_budget

    budgets = {f"src{k}": 500 + 400 * (k % 4) for k in range(20)}
    return select_mix_budget(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]),
        budgets=budgets,
    )


def _q_host_boilerplate(sf_dir: str):
    """Host-scoped boilerplate removal (stages/linededup.py
    remove_host_boilerplate): a 10-token chunk is dropped only when it
    repeats across >=2 distinct docs of the SAME source — per-site nav
    and footer templates go, while text legitimately shared across
    different sources survives (the behavior distinguishing this from
    line_dedup). Full value oracle on the cleaned text (freq grouped by
    (source, line) in SQL)."""
    from dupers_ray.stages.linededup import remove_host_boilerplate

    return remove_host_boilerplate(
        _tbl(sf_dir, "documents", ["doc_id", "text", "source"]),
        id_col="doc_id", key_col="source", tokens_per_line=10, min_docs=2,
    )


def _q_token_budget(sf_dir: str):
    """Global ordered prefix selection (stages/budget.py): running token
    total in splitmix64(doc_id) order, selected while <= 10k tokens. The
    oracle is the literal SQL ordered window — the distributed bucket-
    offset plan must reproduce it bit-exactly at any parallelism."""
    from dupers_ray.stages.budget import select_token_budget

    return select_token_budget(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        budget=10_000,
    )


def _token_budget_oracle_sql(budget: int = 10_000) -> str:
    """sum(n_tokens) OVER (ORDER BY splitmix64(doc_id), doc_id) <= budget
    (same splitmix64 chain as _sample_hash_oracle_sql)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH sm AS (
            SELECT doc_id, text,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        ), t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                        AS BIGINT) AS n_tokens, h
            FROM sm
        ), w AS (
            SELECT doc_id, n_tokens,
                   CAST(sum(n_tokens) OVER (
                       ORDER BY h, doc_id ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS cum_tokens
            FROM t
        )
        SELECT doc_id, n_tokens, cum_tokens,
               CAST(CASE WHEN cum_tokens <= {budget} THEN 1 ELSE 0 END
                    AS BIGINT) AS selected
        FROM w
    """


def _mix_budget_oracle_sql() -> str:
    """Per-source ordered window: sum(n_tokens) OVER (PARTITION BY source
    ORDER BY splitmix64(doc_id), doc_id) <= budget(source), with
    budget(src{k}) = 500 + 400*(k%4) — the query's arithmetic."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH sm AS (
            SELECT doc_id, text, source,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM documents
        ), t AS (
            SELECT doc_id, source,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                        AS BIGINT) AS n_tokens, h,
                   500 + 400 * (CAST(substr(source, 4) AS BIGINT) % 4)
                       AS budget
            FROM sm
        ), w AS (
            SELECT doc_id, source, n_tokens, budget,
                   CAST(sum(n_tokens) OVER (
                       PARTITION BY source
                       ORDER BY h, doc_id ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS cum_tokens
            FROM t
        )
        SELECT doc_id, source, n_tokens, cum_tokens,
               CAST(CASE WHEN cum_tokens <= budget THEN 1 ELSE 0 END
                    AS BIGINT) AS selected
        FROM w
    """


def _gopher_oracle_sql() -> str:
    """stages/quality.gopher_rules restated: per-token signals aggregated
    per doc, integer cross-multiplied thresholds, en stopword list
    generated from the engine's own table (no drift)."""
    from dupers_ray.stages.quality import (
        GOPHER_ALPHA_DEN,
        GOPHER_ALPHA_NUM,
        GOPHER_MAX_MEAN_LEN,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_MEAN_LEN,
        GOPHER_MIN_STOP_HITS,
        GOPHER_MIN_WORDS,
    )
    from dupers_ray.stages.textstats import _STOPWORDS

    stop = ", ".join(f"'{s}'" for s in sorted(_STOPWORDS["en"]))
    return rf"""
        WITH w AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS w
            FROM documents
        ), agg AS (
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_words,
                   CAST(sum(length(w)) AS BIGINT) AS sum_word_len,
                   CAST(sum(CASE WHEN regexp_matches(w, '[a-z]')
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_alpha_words,
                   CAST(sum(CASE WHEN w IN ({stop})
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_stop_hits
            FROM w GROUP BY doc_id
        )
        SELECT d.doc_id,
               COALESCE(a.n_words, 0) AS n_words,
               COALESCE(a.sum_word_len, 0) AS sum_word_len,
               COALESCE(a.n_alpha_words, 0) AS n_alpha_words,
               COALESCE(a.n_stop_hits, 0) AS n_stop_hits,
               CAST(CASE WHEN COALESCE(a.n_words, 0) >= {GOPHER_MIN_WORDS}
                     AND COALESCE(a.n_words, 0) <= {GOPHER_MAX_WORDS}
                     AND {GOPHER_MIN_MEAN_LEN} * COALESCE(a.n_words, 0)
                         <= COALESCE(a.sum_word_len, 0)
                     AND COALESCE(a.sum_word_len, 0)
                         <= {GOPHER_MAX_MEAN_LEN} * COALESCE(a.n_words, 0)
                     AND {GOPHER_ALPHA_DEN} * COALESCE(a.n_alpha_words, 0)
                         >= {GOPHER_ALPHA_NUM} * COALESCE(a.n_words, 0)
                     AND COALESCE(a.n_stop_hits, 0) >= {GOPHER_MIN_STOP_HITS}
                THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
    """


def _q_curated_corpus(sf_dir: str):
    """End-to-end curation composition (pipelines/curation.curate_corpus):
    gopher filter → prefix-40 exact dedup (min-id canonical) → 20-per-
    source cap in splitmix64 order → 10k global token budget. Each stage
    is an existing oracle-checked operator; this query value-checks the
    COMPOSITION."""
    from dupers_ray.pipelines.curation import curate_corpus

    return curate_corpus(
        _tbl(sf_dir, "documents", ["doc_id", "source", "text"]), cap_per_source=20,
        token_budget=10_000, digest_trunc=40,
    )


def _curated_corpus_oracle_sql(cap: int = 20, budget: int = 10_000) -> str:
    """The four stage oracles nested: gopher keep → canonical min-id per
    prefix-40 sha256 → per-source row_number cap in splitmix64 order →
    ordered running-sum token budget."""
    from dupers_ray.stages.quality import (
        GOPHER_ALPHA_DEN,
        GOPHER_ALPHA_NUM,
        GOPHER_MAX_MEAN_LEN,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_MEAN_LEN,
        GOPHER_MIN_STOP_HITS,
        GOPHER_MIN_WORDS,
    )
    from dupers_ray.stages.textstats import _STOPWORDS

    stop = ", ".join(f"'{s}'" for s in sorted(_STOPWORDS["en"]))

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return rf"""
        WITH w AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS w
            FROM documents
        ), agg AS (
            SELECT doc_id,
                   count(*) AS n_words,
                   sum(length(w)) AS sum_word_len,
                   sum(CASE WHEN regexp_matches(w, '[a-z]')
                            THEN 1 ELSE 0 END) AS n_alpha_words,
                   sum(CASE WHEN w IN ({stop}) THEN 1 ELSE 0 END) AS n_stop_hits
            FROM w GROUP BY doc_id
        ), s1 AS (
            SELECT d.doc_id, d.text, d.source
            FROM documents d JOIN agg a ON d.doc_id = a.doc_id
            WHERE a.n_words >= {GOPHER_MIN_WORDS}
              AND a.n_words <= {GOPHER_MAX_WORDS}
              AND {GOPHER_MIN_MEAN_LEN} * a.n_words <= a.sum_word_len
              AND a.sum_word_len <= {GOPHER_MAX_MEAN_LEN} * a.n_words
              AND {GOPHER_ALPHA_DEN} * a.n_alpha_words
                  >= {GOPHER_ALPHA_NUM} * a.n_words
              AND a.n_stop_hits >= {GOPHER_MIN_STOP_HITS}
        ), dg AS (
            SELECT doc_id, text, source, sha256(substr(text, 1, 40)) AS dgst
            FROM s1
        ), canon AS (
            SELECT min(doc_id) AS doc_id FROM dg GROUP BY dgst
        ), s2 AS (
            SELECT dg.doc_id, dg.text, dg.source
            FROM dg JOIN canon ON dg.doc_id = canon.doc_id
        ), sm AS (
            SELECT doc_id, text, source,
                   ((doc_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM s2
        ), s3 AS (
            SELECT doc_id, text, h FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY source ORDER BY h, doc_id
                ) AS rk FROM sm
            ) WHERE rk <= {cap}
        ), t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                        AS BIGINT) AS n_tokens, h
            FROM s3
        ), wsum AS (
            SELECT doc_id, n_tokens,
                   CAST(sum(n_tokens) OVER (
                       ORDER BY h, doc_id ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS cum_tokens
            FROM t
        )
        SELECT doc_id, n_tokens, cum_tokens
        FROM wsum WHERE cum_tokens <= {budget}
    """


def _q_gopher_rules(sf_dir: str):
    """Gopher-style rule-based page filter (stages/quality.gopher_rules):
    integer rule signals + keep flag, value-oracled (all thresholds are
    cross-multiplied into int64 comparisons; the en stopword table is the
    same one that generates the lang_id oracle)."""
    from dupers_ray.stages.quality import gopher_rules

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(gopher_rules, batch_format="pyarrow", zero_copy_batch=True)


def _q_quality_score(sf_dir: str):
    """Hashed-BoW linear quality filter (stages/quality.py): md5-u64
    token hash -> 4096-bucket projection -> splitmix64-derived integer
    weight -> per-doc dot product. Integer-exact, full SQL value oracle
    restating the identical hash/weight chain."""
    from dupers_ray.stages.quality import quality_score

    return _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(quality_score, batch_format="pyarrow", zero_copy_batch=True)


def _quality_oracle_sql() -> str:
    """Same kernel as stages/quality.py in SQL: bucket = md5-u64(tok) %
    4096; weight = splitmix64(bucket) % 201 - 100; score = sum over
    token occurrences (splitmix64 chain as in _sample_hash_oracle_sql)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
            FROM documents
        ), sm AS (
            SELECT doc_id,
                   (('0x' || substr(md5(tok), 1, 16))::UBIGINT
                    % 4096)::UBIGINT AS bk,
                   ((bk::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM toks
        ), w AS (
            SELECT doc_id, CAST(h % 201 AS BIGINT) - 100 AS wt FROM sm
        )
        SELECT d.doc_id,
               CAST(count(w.wt) AS BIGINT) AS n_tokens,
               CAST(COALESCE(sum(w.wt), 0) AS BIGINT) AS score,
               CAST(CASE WHEN COALESCE(sum(w.wt), 0) > 0
                    THEN 1 ELSE 0 END AS BIGINT) AS "keep"
        FROM documents d LEFT JOIN w ON d.doc_id = w.doc_id
        GROUP BY d.doc_id
    """


def _embed_sql_cte() -> str:
    """CTE chain replaying stages/embed_texts.py in SQL: token bucket =
    md5-u64 % 4096, weight[j] = splitmix64(bucket*64 + j) % 201 - 100,
    embedding = per-doc sum over token occurrences. Emits ``emb(doc_id,
    j, v)`` for docs with >= 1 token (same constants as
    _quality_oracle_sql; DIM=64, N_BUCKETS=4096)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        toks AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
            FROM documents
        ), bk AS (
            SELECT doc_id,
                   (('0x' || substr(md5(tok), 1, 16))::UBIGINT
                    % 4096)::UBIGINT AS bk
            FROM toks
        ), dims AS (
            SELECT unnest(range(64)) AS j
        ), sm AS (
            SELECT doc_id, j,
                   ((bk * 64 + j)::UHUGEINT
                    + 11400714819323198485::UHUGEINT
                    ) % {_MOD64} AS x0h,
                   x0h::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM bk CROSS JOIN dims
        ), emb AS (
            SELECT doc_id, j,
                   SUM(CAST(h % 201 AS BIGINT) - 100) AS v
            FROM sm GROUP BY doc_id, j
        )
    """


def _text_embeddings_oracle_sql() -> str:
    return f"""
        WITH {_embed_sql_cte()}
        SELECT d.doc_id,
               CAST(dims.j AS BIGINT) AS j,
               CAST(COALESCE(e.v, 0) AS BIGINT) AS v
        FROM documents d
        CROSS JOIN (SELECT unnest(range(64)) AS j) dims
        LEFT JOIN emb e ON e.doc_id = d.doc_id AND e.j = dims.j
    """


def _text_semantic_dedup_oracle_sql() -> str:
    """The semantic_dedup oracle with the fixture embeddings table swapped
    for the SQL featurizer CTE (docs with >= 1 token; centroids = the 8
    smallest doc_ids)."""
    return f"""
        WITH {_embed_sql_cte()},
        embl AS (
            SELECT doc_id,
                   list(CAST(v AS DOUBLE) ORDER BY j) AS embedding
            FROM emb GROUP BY doc_id
        ), cents AS (
            SELECT row_number() OVER (ORDER BY doc_id) - 1 AS cell,
                   embedding AS ce
            FROM embl
            QUALIFY row_number() OVER (ORDER BY doc_id) <= 8
        ), assign AS (
            SELECT e.doc_id, c.cell,
                   row_number() OVER (
                       PARTITION BY e.doc_id
                       ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                c.cell ASC
                   ) AS rk
            FROM embl e CROSS JOIN cents c
        ), cellmap AS (
            SELECT doc_id, cell FROM assign WHERE rk = 1
        )
        SELECT a.doc_id, a.cell,
               NOT EXISTS (
                   SELECT 1
                   FROM cellmap b
                   JOIN embl eb ON eb.doc_id = b.doc_id
                   JOIN embl ea ON ea.doc_id = a.doc_id
                   WHERE b.cell = a.cell AND b.doc_id < a.doc_id
                     AND list_cosine_similarity(ea.embedding, eb.embedding) >= 0.4
               ) AS keep
        FROM cellmap a
    """


def _q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped rollup over lineitem (pipelines/relational.py):
    integer-exact rescaled sums (cents / 1e-4 / 1e-6 dollar units) so the
    value hash is parallelism-independent; combiner shrinks the shuffle
    to ≤6 rows per block."""
    from dupers_ray.pipelines.relational import pricing_summary

    return pricing_summary(_tbl(sf_dir, "lineitem"))


def _q_bloom_stats(sf_dir: str):
    """Bloom membership sketch over the corpus token vocabulary
    (stages/sketch.bloom_*): distributed OR-merged bitmap, probed with
    2000 deterministic non-member strings. m is deliberately TINY (256
    bits) so the probe set hits real false positives — the single-row
    result (bits_set + n_hits) value-checks the whole kernel including
    the FP behavior; production sizes m to the vocabulary instead."""
    import pyarrow as pa

    from dupers_ray.functions.hashing import hash_str_u64
    from dupers_ray.stages.sketch import bloom_build_tokens, bloom_contains

    m_bits, k, n_probes = 256, 4, 2000
    bm = bloom_build_tokens(
        _tbl(sf_dir, "documents", ["text"]),
        m_bits=m_bits, k=k,
    )
    import numpy as np

    probes = [f"probe_{i}" for i in range(n_probes)]
    hits = bloom_contains(bm, hash_str_u64(probes), k=k)
    return pa.table(
        {
            "m_bits": pa.array([m_bits], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "bits_set": pa.array(
                [int(np.unpackbits(bm.view(np.uint8)).sum())], pa.int64()
            ),
            "n_probes": pa.array([n_probes], pa.int64()),
            "n_hits": pa.array([int(hits.sum())], pa.int64()),
        }
    )


def _cms_oracle_sql() -> str:
    """SQL restatement of the Count-Min kernel: per-token corpus counts,
    h1 = md5-u64, h2 = splitmix64(h1) | 1, cell (r, (h1 + r*h2) mod 2^64
    mod w) accumulates the token's count; all 4x256 cells emitted."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    sm_chain = f"""
                   ((h1::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   (xor(x4, x4 >> 31) | 1::UBIGINT) AS h2"""
    pos = (
        f"(((h1::UHUGEINT + j::UHUGEINT * h2::UHUGEINT) % {_MOD64})"
        f"::UBIGINT % 256)"
    )
    return f"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
            FROM documents WHERE text IS NOT NULL
        ), tc AS (
            SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY tok
        ), th AS (
            SELECT n, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h1,
                   {sm_chain}
            FROM tc
        ), cells AS (
            SELECT CAST(j AS BIGINT) AS r, CAST({pos} AS BIGINT) AS c,
                   CAST(sum(n) AS BIGINT) AS cnt
            FROM th, LATERAL (SELECT unnest(generate_series(0, 3)) AS j)
            GROUP BY j, {pos}
        ), grid AS (
            SELECT r, c
            FROM (SELECT unnest(generate_series(0, 3)) AS r)
            CROSS JOIN (SELECT unnest(generate_series(0, 255)) AS c)
        )
        SELECT CAST(g.r AS BIGINT) AS r, CAST(g.c AS BIGINT) AS c,
               CAST(COALESCE(cells.cnt, 0) AS BIGINT) AS cnt
        FROM grid g LEFT JOIN cells ON cells.r = g.r AND cells.c = g.c
    """


def _bloom_oracle_sql() -> str:
    """SQL restatement of the Bloom kernel: h1 = md5-u64, h2 =
    splitmix64(h1) | 1, pos_j = (h1 + j*h2) mod 2^64 mod m for j<k;
    bits_set = distinct positions over the distinct token vocabulary;
    a probe hits iff all k of its position rows are set."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    def sm_chain() -> str:
        return f"""
                   ((h1::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   (xor(x4, x4 >> 31) | 1::UBIGINT) AS h2"""

    pos = (
        f"(((h1::UHUGEINT + j::UHUGEINT * h2::UHUGEINT) % {_MOD64})"
        f"::UBIGINT % 256)"
    )
    return f"""
        WITH toks AS (
            SELECT DISTINCT
                   unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
            FROM documents WHERE text IS NOT NULL
        ), th AS (
            SELECT ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h1,
                   {sm_chain()}
            FROM toks
        ), setbits AS (
            SELECT DISTINCT {pos} AS p
            FROM th, LATERAL (SELECT unnest(generate_series(0, 3)) AS j)
        ), ph AS (
            SELECT i, ('0x' || substr(md5('probe_' || i), 1, 16))::UBIGINT AS h1,
                   {sm_chain()}
            FROM (SELECT unnest(generate_series(0, 1999)) AS i)
        ), phit AS (
            SELECT i,
                   count(*) FILTER (
                       WHERE {pos} IN (SELECT p FROM setbits)
                   ) AS nset
            FROM ph, LATERAL (SELECT unnest(generate_series(0, 3)) AS j)
            GROUP BY i
        )
        SELECT CAST(256 AS BIGINT) AS m_bits,
               CAST(4 AS BIGINT) AS k,
               CAST((SELECT count(*) FROM setbits) AS BIGINT) AS bits_set,
               CAST(2000 AS BIGINT) AS n_probes,
               CAST((SELECT count(*) FROM phit WHERE nset = 4)
                    AS BIGINT) AS n_hits
    """


def _derive_messy_urls(t: "pa.Table") -> "pa.Table":
    """Deterministic messy-URL column from doc_id (the corpus has no URL
    column): every 3 consecutive ids share one logical page, published in
    3 crawl variants — clean, UPPERCASE-host + default :443 port +
    trailing slash + reordered params, and tracking-params + fragment.
    Canonicalization (stages/urlnorm) must unify each triple; the oracle
    replants and re-canonicalizes the same URLs in SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    base, v = ids // 3, ids % 3
    tld = np.array(["com", "org", "net"], dtype=object)[base % 3]

    def s(a) -> "pa.Array":
        return pc.cast(pa.array(a), pa.string())

    host = pc.binary_join_element_wise(
        "sub", s(base % 4), ".dom", s(base % 20), ".", s(tld), "")
    page = pc.binary_join_element_wise("/page/", s(base), "")
    p = s(base % 5)

    v0 = pc.binary_join_element_wise(
        "https://", host, page, "?a=1&b=", p, "")
    v1 = pc.binary_join_element_wise(
        "HTTPS://", pc.utf8_upper(host), ":443", page, "/?b=", p, "&a=1", "")
    v2 = pc.binary_join_element_wise(
        "https://", host, page, "?b=", p, "&utm_source=feed&a=1#sec", "")
    url = pc.if_else(pa.array(v == 0), v0, pc.if_else(pa.array(v == 1), v1, v2))
    return t.append_column("url", url)


# SQL restatement of the stages/urlnorm canonical contract over the same
# derived messy URLs (fragment strip -> scheme/host lowercase -> default
# port drop -> trailing-slash collapse -> param filter+sort).
_URL_DERIVE_CANON_SQL = r"""
    derived AS (
        SELECT doc_id, n_chars,
               CASE (doc_id // 3) % 3
                   WHEN 0 THEN 'com' WHEN 1 THEN 'org' ELSE 'net'
               END AS tld,
               'sub' || ((doc_id // 3) % 4) || '.dom' ||
                   ((doc_id // 3) % 20) || '.' ||
                   CASE (doc_id // 3) % 3
                       WHEN 0 THEN 'com' WHEN 1 THEN 'org' ELSE 'net'
                   END AS host,
               '/page/' || (doc_id // 3) AS page,
               CAST((doc_id // 3) % 5 AS VARCHAR) AS p
        FROM documents
    ),
    messy AS (
        SELECT doc_id, n_chars,
               CASE doc_id % 3
                   WHEN 0 THEN 'https://' || host || page || '?a=1&b=' || p
                   WHEN 1 THEN 'HTTPS://' || upper(host) || ':443' || page
                        || '/?b=' || p || '&a=1'
                   ELSE 'https://' || host || page || '?b=' || p
                        || '&utm_source=feed&a=1#sec'
               END AS url
        FROM derived
    ),
    defrag AS (
        SELECT doc_id, n_chars,
               trim(regexp_replace(url, '#.*$', '')) AS u
        FROM messy
    ),
    parts AS (
        SELECT doc_id, n_chars,
               lower(regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.\-]*)://', 1))
                   AS scheme,
               lower(regexp_extract(u,
                   '^[A-Za-z][A-Za-z0-9+.\-]*://([^/?]*)', 1)) AS auth,
               regexp_extract(regexp_replace(u, '\?.*$', ''),
                   '^[A-Za-z][A-Za-z0-9+.\-]*://[^/?]*([^?]*)$', 1) AS path,
               CASE WHEN u LIKE '%?%'
                    THEN regexp_extract(u, '\?(.*)$', 1) END AS q
        FROM defrag
    ),
    canon AS (
        SELECT doc_id, n_chars,
               scheme || '://' ||
               CASE WHEN scheme = 'http' THEN regexp_replace(auth, ':80$', '')
                    WHEN scheme = 'https' THEN regexp_replace(auth, ':443$', '')
                    ELSE auth END ||
               CASE WHEN regexp_replace(path, '/+$', '') = '' THEN '/'
                    ELSE regexp_replace(path, '/+$', '') END ||
               CASE WHEN qs IS NULL OR qs = '' THEN '' ELSE '?' || qs END
                   AS url_canon
        FROM (
            SELECT *,
                   array_to_string(list_sort(list_filter(
                       string_split(q, '&'),
                       x -> x <> '' AND NOT regexp_matches(x,
                           '^(utm_[a-z0-9_]*|fbclid|gclid|msclkid)(=.*)?$')
                   )), '&') AS qs
            FROM parts
        )
    )
"""


def _q_cluster_representatives(sf_dir: str):
    """Best-of-cluster curation: flagship near-dup clusters composed with
    the hashed-BoW quality score; per cluster keep the highest-scoring
    member (min doc_id tiebreak) + cluster size. Oracle = the flagship
    cluster SQL and the quality SQL nested as CTEs + one window."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.curation import cluster_representatives

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return cluster_representatives(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg)


def _cluster_representatives_oracle_sql() -> str:
    return f"""
        WITH clusters AS ({_near_dup_clusters_oracle_sql()}),
        quality AS ({_quality_oracle_sql()}),
        j AS (
            SELECT c.cluster_id, c.doc_id, q.score
            FROM clusters c JOIN quality q USING (doc_id)
        ),
        r AS (
            SELECT cluster_id, doc_id, score,
                   row_number() OVER (
                       PARTITION BY cluster_id
                       ORDER BY score DESC, doc_id ASC) AS rn,
                   count(*) OVER (PARTITION BY cluster_id) AS n_docs
            FROM j
        )
        SELECT cluster_id, doc_id AS rep_doc,
               CAST(score AS BIGINT) AS score,
               CAST(n_docs AS BIGINT) AS n_docs
        FROM r WHERE rn = 1
    """


def _q_span_dedup(sf_dir: str):
    """Lee-et-al exact duplicate-substring REMOVAL (stages/spandedup):
    tokens covered by a cross-doc duplicate 7-gram are dropped outside
    the gram's owner (min doc). Full value oracle on the cleaned text."""
    from dupers_ray.stages.spandedup import remove_duplicate_spans

    return remove_duplicate_spans(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        k=7, min_docs=2,
    )


_SPAN_DEDUP_ORACLE = r"""
    WITH split AS (
        SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS tk
        FROM documents
    ), occ AS (
        SELECT doc_id, i AS s, array_to_string(tk[i:i+6], ' ') AS gram
        FROM split,
             LATERAL (SELECT unnest(generate_series(1, len(tk) - 6)) AS i)
        WHERE len(tk) >= 7
    ), g AS (
        SELECT gram, count(DISTINCT doc_id) AS nd, min(doc_id) AS owner
        FROM occ GROUP BY gram
    ), dup_occ AS (
        SELECT o.doc_id, o.s FROM occ o JOIN g USING (gram)
        WHERE g.nd >= 2 AND g.owner <> o.doc_id
    ), rem AS (
        SELECT DISTINCT doc_id, p FROM (
            SELECT doc_id, unnest(generate_series(s, s + 6)) AS p
            FROM dup_occ
        )
    ), toks AS (
        SELECT doc_id, p, tk[p] AS tok
        FROM split,
             LATERAL (SELECT unnest(generate_series(1, len(tk))) AS p)
    ), kept AS (
        SELECT t.doc_id, t.p, t.tok FROM toks t
        LEFT JOIN rem r ON t.doc_id = r.doc_id AND t.p = r.p
        WHERE r.p IS NULL
    )
    SELECT s.doc_id,
           CAST(len(s.tk) AS BIGINT) AS n_tokens,
           CAST(len(s.tk) - count(k.p) AS BIGINT) AS n_removed,
           COALESCE(string_agg(k.tok, ' ' ORDER BY k.p), '') AS clean_text
    FROM split s LEFT JOIN kept k USING (doc_id)
    GROUP BY s.doc_id, len(s.tk)
"""


def _q_domain_top_terms(sf_dir: str):
    """Top-3 tokens per registrable domain (count desc, token asc) over
    the derived crawl URLs — per-domain vocabulary profiling."""
    from dupers_ray.pipelines.urls import domain_top_terms

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _derive_messy_urls, batch_format="pyarrow")
    return domain_top_terms(docs, n=3)


def _q_dedup_summary(sf_dir: str):
    """Cluster-size histogram of the flagship assignment (the dedup
    report totals). Oracle = flagship SQL nested as a CTE + two GROUP
    BYs."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.curation import dedup_summary

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    return dedup_summary(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg)


def _q_url_canonical_dups(sf_dir: str):
    """URL-level dedup: canonicalize crawl-variant URLs, group, keep the
    min-id survivor (reference path-normalized first-match dedup lifted
    to URLs)."""
    from dupers_ray.pipelines.urls import url_dup_groups

    docs = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        _derive_messy_urls, batch_format="pyarrow")
    return url_dup_groups(docs)


def _q_surt_dup_groups(sf_dir: str):
    """SURT-keyed URL dedup (pipelines/urls.surt_dup_groups): docs 2k and
    2k+1 carry the SAME page as www./bare variants — distinct canonical
    urls, one SURT group. n_dups 2, min-id survivor; the oracle states
    the pairing arithmetic."""
    import pyarrow as _pa

    from dupers_ray.pipelines.urls import surt_dup_groups

    def mk(t: _pa.Table) -> _pa.Table:
        ids = t.column("doc_id").to_pylist()
        urls = [
            f"https://{'www.' if i % 2 == 0 else ''}"
            f"site{(i // 2) % 50}.example/p{i // 2}"
            for i in ids
        ]
        return _pa.table({
            "doc_id": t.column("doc_id"),
            "url": _pa.array(urls, _pa.string()),
        })

    docs = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return surt_dup_groups(docs)


def _q_revisit_collapse(sf_dir: str):
    """CDX revisit detection (pipelines/urls.revisit_collapse): doc_id d
    is capture k = d // 37 of url site{d % 37}; the payload (and so its
    md5-u64 digest) changes every 3 captures, so each triple's 2nd/3rd
    captures are revisits of its first. Oracle restates the payload
    arithmetic + md5 and the min-ts window."""
    import numpy as _np
    import pyarrow as _pa

    from dupers_ray.functions.hashing import hash_str_u64
    from dupers_ray.pipelines.urls import revisit_collapse

    def mk(t: _pa.Table) -> _pa.Table:
        ids = _np.asarray(t.column("doc_id"), dtype=_np.int64)
        u, k = ids % 37, ids // 37
        ver = k - k % 3
        payloads = [f"v{a}:{b}" for a, b in zip(u, ver)]
        return _pa.table({
            "url": _pa.array(
                [f"https://site{a}.example/p" for a in u], _pa.string()
            ),
            "ts": _pa.array(1_700_000_000_000_000 + ids * 1_000_000),
            "digest": _pa.array(hash_str_u64(payloads)),
        })

    caps = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        mk, batch_format="pyarrow", zero_copy_batch=True
    )
    return revisit_collapse(caps)


def _q_domain_stats(sf_dir: str):
    """Registrable-domain rollup (Info/counts verb keyed by web domain)."""
    from dupers_ray.pipelines.urls import domain_rollup

    docs = _tbl(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        _derive_messy_urls, batch_format="pyarrow")
    return domain_rollup(docs, size_col="n_chars")


def _q_url_templates(sf_dir: str):
    """URL-pattern mining (stages/urlnorm.url_template): canonical URLs
    folded to host + digit/hex-generalized path + sorted param names,
    counted per template. Full value oracle (same RE2 folds restated as
    DuckDB regexp_replace over the shared derive+canon CTEs)."""
    from dupers_ray.pipelines.urls import template_rollup

    docs = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        _derive_messy_urls, batch_format="pyarrow")
    return template_rollup(docs)


def _q_og_cards(sf_dir: str):
    """OpenGraph / Twitter-card extraction (stages/linkgraph.og_extract)
    over pages with arithmetically planted meta tags (synth.synth_og_pages:
    clean, messy-attribute-order and conditional card variants plus
    decoys). The oracle states the planted truth directly — the
    extractor must recover exactly it."""
    from dupers_ray.stages.linkgraph import og_extract
    from dupers_ray.synth import synth_og_pages

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        synth_og_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return pages.map_batches(
        og_extract, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_amp_unify(sf_dir: str):
    """AMP-variant identity unification (pipelines/urls.amp_unify) over
    planted canonical/AMP/bystander triples (synth.synth_amp_pages).
    Odd-base AMP pages declare NOTHING — they unify only through the
    canonical page's rel=amphtml forward edge, which is the operator's
    added value over rel=canonical honoring. Planted truth stated
    directly by the oracle."""
    from dupers_ray.pipelines.urls import amp_unify
    from dupers_ray.synth import synth_amp_pages

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        synth_amp_pages, batch_format="pyarrow", zero_copy_batch=True
    )
    return amp_unify(pages)


def _sitemap_inputs(sf_dir: str):
    from dupers_ray.stages.sitemap import extract_sitemaps, page_urls
    from dupers_ray.synth import synth_sitemap_pages

    docs = _tbl(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    sitemaps = rd.range(20).map_batches(
        synth_sitemap_pages, fn_kwargs={"n_docs": n, "n_hosts": 20},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    entries = extract_sitemaps(sitemaps)
    pages = docs.map_batches(
        page_urls, fn_kwargs={"n_hosts": 20},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return entries, pages


def _q_sitemap_entries(sf_dir: str):
    """Sitemap-protocol extraction: per-host sitemap.xml documents
    (synth.synth_sitemap_pages, ARITHMETICALLY planted: host h lists
    docs k ≡ h mod 20 with k%3≠2 plus 1+h%3 phantom locs, lastmod
    omitted when k%7==3, whitespace-padded <loc> when k%5==0) through
    the vectorized split/extract_regex pass
    (stages/sitemap.sitemap_entries_batch). The DuckDB oracle restates
    the planted arithmetic directly — extraction must recover it
    byte-for-byte, nulls included."""
    entries, _ = _sitemap_inputs(sf_dir)
    return entries


def _q_sitemap_coverage(sf_dir: str):
    """Crawl-coverage audit per host: sitemap-declared URL set vs
    crawled URL set (stages/sitemap.sitemap_coverage — union →
    groupby(url) flag-sum → host combiner → groupby(host); two narrow
    shuffles, nothing driver-side).  n_listed_only = the recrawl
    queue, n_crawled_only = orphan pages the site doesn't declare."""
    from dupers_ray.stages.sitemap import sitemap_coverage

    entries, pages = _sitemap_inputs(sf_dir)
    return sitemap_coverage(entries, pages)


def _script_stats_oracle_sql() -> str:
    """translate()-restated transliteration + regexp_replace script
    counts + the argmax/90% label rule (same constants as
    synth.synth_multiscript / stages/textstats.script_stats)."""
    from dupers_ray.synth import (
        _SCRIPT_CYR, _SCRIPT_GRK, _SCRIPT_HAN, _SCRIPT_LAT,
    )

    def cnt(cls: str) -> str:
        return rf"length(regexp_replace(t, '[^\p{{{cls}}}]', '', 'g'))"

    return rf"""
        WITH ms AS (
            SELECT doc_id,
                   CASE doc_id % 5
                       WHEN 1 THEN translate(text,
                           '{_SCRIPT_LAT}', '{_SCRIPT_CYR}')
                       WHEN 2 THEN translate(text,
                           '{_SCRIPT_LAT}', '{_SCRIPT_GRK}')
                       WHEN 3 THEN translate(text,
                           '{_SCRIPT_LAT}', '{_SCRIPT_HAN}')
                       WHEN 4 THEN left(text, length(text) // 2)
                           || translate(substring(text,
                                  length(text) // 2 + 1),
                              '{_SCRIPT_LAT}', '{_SCRIPT_CYR}')
                       ELSE text END AS t
            FROM documents
        ),
        c AS (
            SELECT doc_id,
                   {cnt('Latin')} AS n_latin,
                   {cnt('Cyrillic')} AS n_cyrillic,
                   {cnt('Greek')} AS n_greek,
                   {cnt('Han')} AS n_han,
                   length(regexp_replace(t, '[^\p{{L}}]', '', 'g'))
                       AS n_letters
            FROM ms
        ),
        lab AS (
            SELECT *,
                   n_letters - n_latin - n_cyrillic - n_greek - n_han
                       AS n_other,
                   greatest(n_latin, n_cyrillic, n_greek, n_han,
                            n_letters - n_latin - n_cyrillic - n_greek
                            - n_han) AS mx
            FROM c
        )
        SELECT doc_id, n_latin, n_cyrillic, n_greek, n_han, n_letters,
               CASE WHEN n_letters = 0 THEN 'none'
                    WHEN mx * 10 < n_letters * 9 THEN 'mixed'
                    WHEN n_latin = mx THEN 'latin'
                    WHEN n_cyrillic = mx THEN 'cyrillic'
                    WHEN n_greek = mx THEN 'greek'
                    WHEN n_han = mx THEN 'han'
                    ELSE 'other' END AS script
        FROM lab
    """


def _q_feed_links(sf_dir: str):
    """RSS/Atom feed autodiscovery (stages/linkgraph.feed_links): pages
    plant an rss link (plain shape) on doc%3==0, an atom link (messy
    attr order/case) on ==1, and an hreflang-alternate DECOY (rel=
    alternate but no feed type — must NOT match) on ==2.  One
    split-on-<link / RE2-per-piece pass; oracle states the
    arithmetic."""
    from dupers_ray.stages.linkgraph import feed_links
    from dupers_ray.synth import synth_doc_html

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    n = docs.count()
    pages = docs.map_batches(
        synth_doc_html, fn_kwargs={"n_docs": n, "feeds": True},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return pages.map_batches(
        feed_links, batch_format="pyarrow", zero_copy_batch=True)


def _q_recrawl_queue(sf_dir: str):
    """Crawl-scheduler work list from sitemap freshness claims
    (stages/sitemap.recrawl_queue): listed-but-never-captured locs are
    'missing' (the planted phantoms), locs whose <lastmod> postdates
    the capture are 'stale'.  Captures carry planted dates
    2026-07-{doc%14+1}; sitemap lastmods are 2026-07-{doc%28+1} (absent
    when doc%7==3), so staleness is pure doc_id arithmetic for the
    oracle.  One cogroup join on the url string, narrow rows."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from dupers_ray.stages.sitemap import recrawl_queue

    entries, pages = _sitemap_inputs(sf_dir)

    def add_cap(t: "_pa.Table") -> "_pa.Table":
        d = t.column("doc_id").cast(_pa.int64())
        day = _pc.add(_pc.subtract(
            d, _pc.multiply(_pc.divide(d, 14),
                            _pa.scalar(14, _pa.int64()))),
            _pa.scalar(1, _pa.int64()))
        pad = _pc.utf8_lpad(_pc.cast(day, _pa.string()), 2, "0")
        return t.append_column(
            "cap_date",
            _pc.binary_join_element_wise(
                _pa.scalar("2026-07-"), pad, _pa.scalar("")),
        )

    captures = pages.map_batches(
        add_cap, batch_format="pyarrow", zero_copy_batch=True)
    return recrawl_queue(entries, captures)


def _q_meta_refresh_chains(sf_dir: str):
    """HTML-level redirect resolution: meta http-equiv=refresh targets
    planted in rotating attr-order/quote/case shapes (synth
    synth_redirect_pages(meta_refresh=True)), extracted in one RE2 pass
    (urlnorm.extract_meta_refresh), url→id resolved with one cogroup
    join on the url string against the corpus' own url table, pointer-doubled
    (pipelines/urls.meta_refresh_chains).  Chains are doc i → i-1 with
    roots at multiples of 4, so (root, hops) is direct arithmetic."""
    from dupers_ray.pipelines.urls import meta_refresh_chains
    from dupers_ray.synth import synth_redirect_pages

    pages = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        synth_redirect_pages, fn_kwargs={"meta_refresh": True},
        batch_format="pyarrow", zero_copy_batch=True,
    ).select_columns(["doc_id", "url", "html"])
    return meta_refresh_chains(pages, rounds=2)


def _bucket_histogram_oracle_sql() -> str:
    """Bucket sizes from the shared OPH signature CTE: buckets are
    (band, 4-component sub-signature tuple) groups — equal tuples ⇔
    equal band hashes (the flagship oracle's standing equivalence)."""
    prefix, _thr = _sig_sql_prefix()
    return f"""
        WITH {prefix}, bandrows AS (
            SELECT s.doc_id, CAST(bin // 4 AS INTEGER) AS band,
                   list(comp ORDER BY bin) AS sub
            FROM sigcomp s GROUP BY s.doc_id, CAST(bin // 4 AS INTEGER)
        ), buckets AS (
            SELECT band, sub, count(*) AS sz
            FROM bandrows GROUP BY band, sub
        )
        SELECT CAST(sz AS BIGINT) AS bucket_size,
               CAST(count(*) AS BIGINT) AS n_buckets
        FROM buckets GROUP BY sz
    """


def _q_bucket_histogram(sf_dir: str):
    """LSH bucket-size histogram (near_dedup.bucket_size_histogram) —
    the driver-visible skew measurement of the candidate index: at
    default config the corpus must show a long size-1 tail plus the
    planted duplicate buckets.  The oracle rebuilds buckets as
    (band, sub-signature-tuple) groups from the shared OPH signature
    CTE — the same tuples-for-hashes equivalence the flagship oracle
    uses."""
    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.near_dedup import (
        bucket_size_histogram, minhash_signatures,
    )

    cfg = MinHashConfig()
    sigs = minhash_signatures(
        _tbl(sf_dir, "documents", ["doc_id", "text"]),
        shingle=None, minhash=cfg, id_col="doc_id", text_col="text",
    )
    return bucket_size_histogram(sigs, minhash=cfg, id_col="doc_id")


def _q_page_identity(sf_dir: str):
    """Unified page-identity resolution (pipelines/urls.page_identity):
    redirect chains (pointer doubling) → the LANDING page's
    rel=canonical (redirecting pages plant DECOY declarations a correct
    resolver ignores) → canonical+SURT key (www/port decoration must
    strip for groups to merge) → min-doc identity clusters.  Planted
    arithmetic resolves to cluster = doc_id - doc_id % 12, which the
    oracle states directly."""
    import pyarrow as _pa

    from dupers_ray.pipelines.urls import page_identity
    from dupers_ray.synth import synth_redirect_pages

    fix = _tbl(sf_dir, "documents", ["doc_id"]).map_batches(
        synth_redirect_pages, batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    pages = fix.select_columns(["doc_id", "url", "html"])

    def edges(t: "_pa.Table") -> "_pa.Table":
        return _pa.table({
            "id": t.column("doc_id").cast(_pa.int64()),
            "ptr": t.column("ptr"),
        })

    redirects = fix.map_batches(
        edges, batch_format="pyarrow", zero_copy_batch=True)
    return page_identity(pages, redirects, rounds=2)


def _q_cluster_agreement(sf_dir: str):
    """Pair-counting agreement (Rand-index family) between the flagship
    near-dup clustering and C4-normalized exact groups, computed without
    enumerating pairs: joint partition counts n_ij → C(n,2) arithmetic
    (pipelines/diff.cluster_agreement).  Answers 'how much of the
    near-dup pair mass is just normalization?' — the config-comparison
    tool a dedup operator reaches for before changing thresholds.
    Composes the flagship SQL oracle with a window-min normalized
    assignment; integer ppm throughout."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.diff import cluster_agreement, exact_assign
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.stages.normalize import normalize_text

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    a = dupe_clusters(docs, DedupConfig(id_col="doc_id", text_col="text"))
    norm = docs.map_batches(
        normalize_text, batch_format="pyarrow", zero_copy_batch=True)
    b = exact_assign(norm, id_col="doc_id", content_col="text_norm")
    return cluster_agreement(a, b)


def _q_source_dup_stats(sf_dir: str):
    """Per-source duplication pressure (curation.source_dup_stats):
    flagship clusters → dup-cluster semi-join flags → per-batch
    (source, count) combiners merged in one small groupby; dup_ppm is
    integer so the composed flagship-oracle SQL matches exactly."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.curation import source_dup_stats

    docs = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    return source_dup_stats(
        docs, DedupConfig(id_col="doc_id", text_col="text"))


def _q_sitemap_resolve(sf_dir: str):
    """Two-level sitemap-index resolution: per-host <sitemapindex>
    documents reference child <urlset> sitemaps on CDN hosts (child
    URL does NOT identify the site), children round-robin the host's
    pages (synth.synth_sitemap_forest).  The resolver classifies both
    levels in one streaming pass and joins child entries to their
    referencing index with the count-gated broadcast-or-cogroup switch
    (stages/sitemap.resolve_sitemap_index).  The round-robin union
    covers every crawled doc, so the oracle is plain doc_id
    arithmetic."""
    from dupers_ray.stages.sitemap import resolve_sitemap_index
    from dupers_ray.synth import synth_sitemap_forest

    docs = _tbl(sf_dir, "documents", ["doc_id"])
    n = docs.count()
    forest = rd.range(20).map_batches(
        synth_sitemap_forest, fn_kwargs={"n_docs": n, "n_hosts": 20},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return resolve_sitemap_index(forest)


def _q_script_stats(sf_dir: str):
    """Unicode-script histogram + dominant-script label per doc over a
    planted multi-script corpus (synth.synth_multiscript: doc_id%5
    selects latin/cyrillic/greek/han/half-and-half transliteration).
    One RE2 count_substring_regex per script class
    (stages/textstats.script_stats); the oracle restates the
    transliteration with translate() and the counts with
    regexp_replace — integer-exact, argmax + 90% rule included."""
    from dupers_ray.stages.textstats import script_stats
    from dupers_ray.synth import synth_multiscript

    ms = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth_multiscript, batch_format="pyarrow", zero_copy_batch=True,
    )
    return ms.map_batches(
        script_stats, fn_kwargs={"text_col": "text_ms"},
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _q_sitemap_discovery(sf_dir: str):
    """``Sitemap:`` directive discovery from robots.txt (RFC 9309 §2.3
    other-records): synthetic robots bodies plant one directive per
    host plus a lowercase variant on h%3==0 and an indented+inline-
    comment variant on h%4==1, with commented-out and look-alike decoy
    lines (synth.synth_robots_bodies).  One vectorized newline-split /
    comment-strip / anchored-RE2 pass
    (stages/sitemap.robots_sitemaps_batch); the oracle restates the
    planted arithmetic."""
    from dupers_ray.stages.sitemap import discover_sitemaps
    from dupers_ray.synth import synth_robots_bodies

    robots = rd.range(20).map_batches(
        synth_robots_bodies, batch_format="pyarrow", zero_copy_batch=True,
    )
    return discover_sitemaps(robots)


def _q_cluster_split(sf_dir: str):
    """Leakage-free train/val/test split (90/5/5): hash-split keyed on
    the flagship near-dup CLUSTER id (stages/filters.assign_split), so
    a whole duplicate cluster lands in one split and validation text
    never has a near-copy in train.  Composes the flagship's full SQL
    oracle with the splitmix64 chain — every stage value-checked."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters
    from dupers_ray.stages.filters import assign_split

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    clus = dupe_clusters(_tbl(sf_dir, "documents", ["doc_id", "text"]), cfg)
    return clus.map_batches(
        assign_split, batch_format="pyarrow", zero_copy_batch=True,
    )


def _cluster_split_oracle_sql() -> str:
    """Flagship cluster oracle + splitmix64(cluster_id) % 100 against
    the 90/95 bounds (same constants as functions/hashing.py)."""

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        WITH clusters AS ({_near_dup_clusters_oracle_sql()}),
        sm AS (
            SELECT doc_id, cluster_id,
                   ((cluster_id::UHUGEINT + 11400714819323198485::UHUGEINT)
                    % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', 13787848793156543929)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', 10723151780598845931)} AS x4,
                   xor(x4, x4 >> 31) AS h
            FROM clusters
        )
        SELECT doc_id, cluster_id,
               CASE WHEN h % 100 < 90 THEN 'train'
                    WHEN h % 100 < 95 THEN 'val'
                    ELSE 'test' END AS split
        FROM sm
    """


# Registry order matters: the driver's correctness gate verifies the FIRST 50
# entries only.  _R4_WINDOW pins round 4's window: simhash_pairs first (round-3
# hash-red, now canonicalized — sorted output + oracle-matching tokenizer),
# then 49 names the driver has never checked (ledger:
# `python tools/check_oracle.py --never-driver-checked`), prioritizing queries
# whose pipelines this round refactored (venn fused scan, paragraph combiner,
# novelty) so the driver re-proves them.  Everything else keeps its previous
# relative order; tools/check_oracle.py still value-checks every entry locally.
#
# ROUND-5 ROTATION (mechanical): after CORRECTNESS_r04 lands, re-run the
# ledger — the ~33 remaining never-checked names (incl. the round-4 additions
# mp3_metadata and tier_budget_plan) all fit one final 50-entry window with
# ~17 slots left for re-verification picks.
_R4_WINDOW = [
    "simhash_pairs",
    # refactored this round — driver should re-prove them
    "dedup_method_venn",
    "paragraph_dedup",
    "content_novelty",
    "novelty_sampled",
    "novelty_by_source",
    # verdict-named never-checked names
    "winnow_fingerprints",
    "winnow_matches",
    "cdc_chunks",
    "cdc_dedup_stats",
    "bm25_scores",
    "bm25_incremental",
    "phrase_search",
    "page_identity",
    "sitemap_entries",
    "sitemap_coverage",
    "sitemap_discovery",
    "sitemap_resolve",
    "pack_sequences",
    "packed_windows",
    "perceptron_weights",
    "perceptron_filter",
    "edit_verified_pairs",
    "cluster_edit_profile",
    "temperature_mix",
    "source_quality_report",
    "lexical_semantic_agreement",
    "top_quality_per_source",
    "first_publishers",
    "windowed_near_pairs",
    # remaining never-checked, ledger order
    "host_boilerplate",
    "fast_membership",
    "main_content",
    "noindex_filter",
    "latest_snapshot",
    "link_edges_nofollow",
    "web_curated",
    "warc_roundtrip",
    "surt_keys",
    "cdx_index",
    "charset_transcode",
    "robots_check",
    "wet_roundtrip",
    "surt_dup_groups",
    "revisit_collapse",
    "soft_dedup_weights",
    "mix_budget",
    "bpe_pair_counts",
    "jsonld_extract",
    "template_keys",
    # template_clusters slides to the round-5 window to make room for the
    # new novelty_sampled entry (window cap is 50)
]


# ROUND-5 WINDOW (final): the 2 oracle-fixed reds first (simhash_pairs /
# edit_verified_pairs — the DuckDB least/greatest UBIGINT->HUGEINT->float64
# promotion is now CAST back to UBIGINT, VERDICT r4 item 1), then the 33
# remaining never-driver-checked names (ledger:
# `python tools/check_oracle.py --never-driver-checked` after r4), then 15
# re-verification picks covering every pipeline round 5 refactors:
# repetition partitioned-reduce (dup_ngram_coverage/novelty*), vocab top-k
# combiner (top_tokens/bpe_pair_counts), SemDeDup typed-empty blocks
# (semantic_dedup/text_semantic_dedup), hamming __dropped accounting
# (image_dup_clusters/audio_dup_clusters/multimodal_consensus), key_i64
# null guard (dedup_method_venn), tier weight-col rename (dedup_tiers),
# grouping API assert (paragraph_dedup), plus the flagship
# (near_dup_clusters).  This closes driver coverage of all 183 entries.
_R5_WINDOW = [
    # oracle-fixed reds (r1/r3/r4 hash-red; engine was already value-correct)
    "simhash_pairs",
    "edit_verified_pairs",
    # the final 33 never-driver-checked names, ledger order
    "tier_budget_plan",
    "mp3_metadata",
    "dup_recall_report",
    "bpe_merges",
    "bpe_token_counts",
    "template_clusters",
    "mirror_hosts",
    "mirror_clusters",
    "cluster_split",
    "script_stats",
    "source_dup_stats",
    "cluster_agreement",
    "bucket_histogram",
    "meta_refresh_chains",
    "recrawl_queue",
    "feed_links",
    "chunk_docs",
    "lsh_threshold_sweep",
    "lm_rarity",
    "lm_rarity_join",
    "ccnet_buckets",
    "canonical_dup_groups",
    "hreflang_edges",
    "props_k_stats",
    "jsonl_roundtrip",
    "c4_clean",
    "blocklist_filter",
    "url_templates",
    "og_cards",
    "amp_unify",
    "segment_revenue",
    "nation_revenue",
    "pricing_summary",
    # re-verification picks: every round-5-refactored pipeline re-proved
    "dup_ngram_coverage",
    "content_novelty",
    "novelty_sampled",
    "novelty_by_source",
    "top_tokens",
    "bpe_pair_counts",
    "semantic_dedup",
    "text_semantic_dedup",
    "image_dup_clusters",
    "audio_dup_clusters",
    "multimodal_consensus",
    "dedup_method_venn",
    "dedup_tiers",
    "paragraph_dedup",
    "near_dup_clusters",
]


def queries() -> dict[str, Callable[[str], Any]]:
    all_q = _all_queries()
    out = {name: all_q[name] for name in _R5_WINDOW}
    out.update((k, v) for k, v in all_q.items() if k not in out)
    return out


def _all_queries() -> dict[str, Callable[[str], Any]]:
    # Full registry; queries() reorders it so _R4_WINDOW lands in the
    # driver's 50-entry correctness window.  Historical window comments
    # below are kept for provenance.
    return {
        # --- round-2 queries not yet driver-verified (VERDICT.md item 1) ---
        "dedup_tiers": _q_dedup_tiers,
        "tier_budget_plan": _q_tier_budget_plan,
        "tier_summary": _q_tier_summary,
        "tier_source_summary": _q_tier_source_summary,
        "tiers_incremental": _q_tiers_incremental,
        "dedup_tiers_semantic": _q_dedup_tiers_semantic,
        "decontam_clean": _q_decontam_clean,
        "near_decontam": _q_near_decontam,
        "near_decontam_join": _q_near_decontam_join,
        "near_contam_report": _q_near_contam_report,
        "substring_decontam": _q_substring_decontam,
        "span_dedup": _q_span_dedup,
        "line_dedup": _q_line_dedup,
        "curated_corpus": _q_curated_corpus,
        "cluster_representatives": _q_cluster_representatives,
        "dedup_summary": _q_dedup_summary,
        "quality_score": _q_quality_score,
        "gopher_rules": _q_gopher_rules,
        "token_budget": _q_token_budget,
        "repetition_stats": _q_repetition_stats,
        "dup_ngram_coverage": _q_dup_ngram_coverage,
        "url_canonical_dups": _q_url_canonical_dups,
        "domain_stats": _q_domain_stats,
        "domain_top_terms": _q_domain_top_terms,
        "cap_per_domain": _q_cap_per_domain,
        "stratified_sample": _q_stratified_sample,
        "length_quantiles": _q_length_quantiles,
        "normalized_canonical": _q_normalized_canonical,
        "hll_registers": _q_hll_registers,
        "bloom_stats": _q_bloom_stats,
        "pii_redact": _q_pii_redact,
        "bucket_remove": _q_bucket_remove,
        "multi_term_search": _q_multi_term_search,
        "simhash_pairs": _q_simhash_pairs,
        "deletion_list_trunc": _q_deletion_list_trunc,
        "near_dup_clusters_checkpointed": _q_near_dup_clusters_checkpointed,
        # --- new in round 3 (fills the 50-query driver window) ---
        "sessionize_str": _q_sessionize_str,
        "text_embeddings": _q_text_embeddings,
        "text_semantic_dedup": _q_text_semantic_dedup,
        "image_dup_clusters": _q_image_dup_clusters,
        "audio_dup_clusters": _q_audio_dup_clusters,
        "video_dup_clusters": _q_video_dup_clusters,
        "mp3_metadata": _q_mp3_metadata,
        "dsir_weights": _q_dsir_weights,
        "dsir_topk": _q_dsir_topk,
        "link_edges": _q_link_edges,
        "pagerank_hosts": _q_pagerank_hosts,
        "hits_hosts": _q_hits_hosts,
        "anchor_profiles": _q_anchor_profiles,
        "redirect_roots": _q_redirect_roots,
        "topk_cosine_sq8": _q_topk_cosine_sq8,
        "multimodal_consensus": _q_multimodal_consensus,
        # --- outside the 50-query driver window ---
        # Verified locally by tools/check_oracle.py every round; the six
        # rotated entries below were judge-verified (pass(J)) in round 2
        # and yield their window slots to the round-3 queries above.
        "host_boilerplate": _q_host_boilerplate,
        "fast_membership": _q_fast_membership,
        "main_content": _q_main_content,
        "noindex_filter": _q_noindex_filter,
        "latest_snapshot": _q_latest_snapshot,
        "link_edges_nofollow": _q_link_edges_nofollow,
        "web_curated": _q_web_curated,
        "warc_roundtrip": _q_warc_roundtrip,
        "surt_keys": _q_surt_keys,
        "cdx_index": _q_cdx_index,
        "charset_transcode": _q_charset_transcode,
        "robots_check": _q_robots_check,
        "wet_roundtrip": _q_wet_roundtrip,
        "surt_dup_groups": _q_surt_dup_groups,
        "revisit_collapse": _q_revisit_collapse,
        "soft_dedup_weights": _q_soft_dedup_weights,
        "mix_budget": _q_mix_budget,
        "dup_recall_report": _q_dup_recall_report,
        "bpe_pair_counts": _q_bpe_pair_counts,
        "bpe_merges": _q_bpe_merges,
        "bpe_token_counts": _q_bpe_token_counts,
        "jsonld_extract": _q_jsonld_extract,
        "template_keys": _q_template_keys,
        "template_clusters": _q_template_clusters,
        "mirror_hosts": _q_mirror_hosts,
        "mirror_clusters": _q_mirror_clusters,
        "sitemap_entries": _q_sitemap_entries,
        "sitemap_coverage": _q_sitemap_coverage,
        "cluster_split": _q_cluster_split,
        "sitemap_discovery": _q_sitemap_discovery,
        "script_stats": _q_script_stats,
        "sitemap_resolve": _q_sitemap_resolve,
        "source_dup_stats": _q_source_dup_stats,
        "cluster_agreement": _q_cluster_agreement,
        "page_identity": _q_page_identity,
        "bucket_histogram": _q_bucket_histogram,
        "meta_refresh_chains": _q_meta_refresh_chains,
        "recrawl_queue": _q_recrawl_queue,
        "feed_links": _q_feed_links,
        "pack_sequences": _q_pack_sequences,
        "packed_windows": _q_packed_windows,
        "chunk_docs": _q_chunk_docs,
        "lsh_threshold_sweep": _q_lsh_threshold_sweep,
        "perceptron_weights": _q_perceptron_weights,
        "perceptron_filter": _q_perceptron_filter,
        "lm_rarity": _q_lm_rarity,
        "lm_rarity_join": _q_lm_rarity_join,
        "ccnet_buckets": _q_ccnet_buckets,
        "canonical_dup_groups": _q_canonical_dup_groups,
        "hreflang_edges": _q_hreflang_edges,
        "props_k_stats": _q_props_k_stats,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "c4_clean": _q_c4_clean,
        "blocklist_filter": _q_blocklist_filter,
        "winnow_fingerprints": _q_winnow_fingerprints,
        "winnow_matches": _q_winnow_matches,
        "url_templates": _q_url_templates,
        "og_cards": _q_og_cards,
        "amp_unify": _q_amp_unify,
        "cdc_chunks": _q_cdc_chunks,
        "cdc_dedup_stats": _q_cdc_dedup_stats,
        "windowed_near_pairs": _q_windowed_near_pairs,
        "first_publishers": _q_first_publishers,
        "paragraph_dedup": _q_paragraph_dedup,
        "temperature_mix": _q_temperature_mix,
        "bm25_scores": _q_bm25_scores,
        "dedup_method_venn": _q_dedup_method_venn,
        "edit_verified_pairs": _q_edit_verified_pairs,
        "content_novelty": _q_content_novelty,
        "novelty_sampled": _q_novelty_sampled,
        "source_quality_report": _q_source_quality_report,
        "novelty_by_source": _q_novelty_by_source,
        "lexical_semantic_agreement": _q_lexical_semantic_agreement,
        "top_quality_per_source": _q_top_quality_per_source,
        "phrase_search": _q_phrase_search,
        "cluster_edit_profile": _q_cluster_edit_profile,
        "bm25_incremental": _q_bm25_incremental,
        "bucket_rename": _q_bucket_rename,
        "segment_revenue": _q_segment_revenue,
        "nation_revenue": _q_nation_revenue,
        "pricing_summary": _q_pricing_summary,
        # --- driver-green in CORRECTNESS_r01/r02 (rotated out of window) ---
        "exact_canonical": _q_exact_canonical,
        # NOTE: plain full-text exact pairs is legitimately EMPTY at sf<=0.01
        # (no exact-dup documents); Ray drops zero-row blocks so an empty
        # Dataset loses its schema and would fail the driver's schema check
        # spuriously. The pair path is value-checked by exact_pairs_trunc
        # (same code, prefix-40 digests => real dup groups).
        "exact_pairs_trunc": _q_exact_pairs_trunc,
        "count_by_source": _q_count_by_source,
        "info": _q_info,
        "search_text": _q_search_text,
        "search_text_nocase": _q_search_text_nocase,
        "refresh_anti_broadcast": _q_refresh_anti_broadcast,
        "refresh_anti_shuffle": _q_refresh_anti_shuffle,
        "near_dup_clusters": _q_near_dup_clusters,
        "near_incremental": _q_near_incremental,
        "exact_clusters_trunc": _q_exact_clusters_trunc,
        "token_stats": _q_token_stats,
        "lang_id": _q_lang_id,
        "fingerprints": _q_fingerprints,
        "ngram_jaccard_pairs": _q_ngram_jaccard,
        "containment_scores": _q_containment_scores,
        "topk_cosine": _q_topk_cosine,
        "topk_cosine_ivf": _q_topk_cosine_ivf,
        "knn_graph": _q_knn_graph,
        "knn_graph_ivf": _q_knn_graph_ivf,
        "compression_stats": _q_compression_stats,
        "cosine_pairs": _q_cosine_pairs,
        "cosine_pairs_lsh": _q_cosine_pairs_lsh,
        "cosine_pairs_lsh_fullprobe": _q_cosine_pairs_lsh_fullprobe,
        "embed_dup_clusters": _q_embed_dup_clusters,
        "containment_pairs": _q_containment_pairs,
        "semantic_dedup": _q_semantic_dedup,
        "corpus_freq_stats": _q_corpus_freq_stats,
        "source_overlap": _q_source_overlap,
        "near_source_overlap": _q_near_source_overlap,
        "indexed_search_all": _q_indexed_search_all,
        "indexed_search_any": _q_indexed_search_any,
        "snapshot_diff": _q_snapshot_diff,
        "rare_terms": _q_rare_terms,
        "cms_registers": _q_cms_registers,
        "window_agg": _q_window_agg,
        "hopping_window": _q_hopping_window,
        "sessionize": _q_sessionize,
        "funnel_counts": _q_funnel_counts,
        "funnel_windowed": _q_funnel_windowed,
        "cohort_retention": _q_cohort_retention,
        "window_distinct": _q_window_distinct,
        "order_priority_exists": _q_order_priority_exists,
        "char_ranks": _q_char_ranks,
        "asof_attrib": _q_asof_attrib,
        "purchase_window_pairs": _q_purchase_window_pairs,
        "top_tokens": _q_top_tokens,
        "sample_hash": _q_sample_hash,
        "weighted_sample": _q_weighted_sample,
        "distinct_tokens": _q_distinct_tokens,
    }


_KNN_GRAPH_ORACLE = """
    WITH scored AS (
        SELECT a.vec_id AS query_id, b.vec_id AS vec_id,
               list_cosine_similarity(a.embedding, b.embedding) AS score
        FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
    ), ranked AS (
        SELECT query_id, vec_id,
               row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY score DESC, vec_id ASC
               ) AS rk
        FROM scored
    )
    SELECT query_id, vec_id FROM ranked WHERE rk <= 5
"""


_TOPK_ORACLE = """
    WITH q AS (
        SELECT vec_id AS query_id, embedding AS qe
        FROM embeddings WHERE vec_id < 5
    ),
    scored AS (
        SELECT q.query_id, e.vec_id,
               list_cosine_similarity(q.qe, e.embedding) AS score
        FROM q CROSS JOIN embeddings e
    ),
    ranked AS (
        SELECT query_id, vec_id,
               row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY score DESC, vec_id ASC
               ) AS rk
        FROM scored
    )
    SELECT query_id, vec_id FROM ranked WHERE rk <= 10
"""


def _bigram_score_cte(table: str = "documents") -> str:
    """Shared WITH-clauses restating stages/lmscore's bigram rarity in
    DuckDB: md5-u64 token hashes → h0*P + h1 (mod 2^64) → splitmix64 →
    corpus counts → per-doc Σ floor(2^20/(n+1)). Constants pulled live
    from the engine kernels (same discipline as _sig_sql_prefix)."""
    from dupers_ray.functions import hashing as _hk
    from dupers_ray.stages import minhash as _mk
    from dupers_ray.stages.lmscore import RARITY_SCALE

    P = int(_mk._POLY)
    GAMMA, M1, M2 = int(_hk._SM_GAMMA), int(_hk._SM_M1), int(_hk._SM_M2)

    def mulmod(a: str, m: int) -> str:
        return f"((({a})::UHUGEINT * {m}::UHUGEINT) % {_MOD64})::UBIGINT"

    return f"""
        toks AS (
            SELECT doc_id,
                   list_transform(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                                  t -> ('0x'||substr(md5(t),1,16))::UBIGINT) AS th
            FROM {table}
        ), pairs AS (
            SELECT doc_id,
                   unnest([{{'h0': th[i], 'h1': th[i+1]}}
                           FOR i IN range(1, len(th))], recursive := true)
            FROM toks WHERE len(th) >= 2
        ), bhx AS (
            SELECT doc_id,
                   ((h0::UHUGEINT * {P}::UHUGEINT + h1::UHUGEINT
                     + {GAMMA}::UHUGEINT) % {_MOD64})::UBIGINT AS x0,
                   xor(x0, x0 >> 30) AS x1,
                   {mulmod('x1', M1)} AS x2,
                   xor(x2, x2 >> 27) AS x3,
                   {mulmod('x3', M2)} AS x4,
                   xor(x4, x4 >> 31) AS b
            FROM pairs
        ), cnt AS (
            SELECT b, count(*) AS n FROM bhx GROUP BY b
        ), scored AS (
            SELECT bhx.doc_id,
                   CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(sum({RARITY_SCALE} // (cnt.n + 1)) AS BIGINT)
                       AS rarity
            FROM bhx JOIN cnt USING (b) GROUP BY bhx.doc_id
        )
    """


# Rebuilds _mk_template_pages' html byte-for-byte in SQL, then derives the
# tag skeleton with the SAME three rewrites as stages/template.tag_skeleton
# (strip inter-tag text, lower, strip attributes) — RE2 on both sides.
_TEMPLATE_SKEL_CTE = """
    pages AS (
        SELECT doc_id,
               CASE doc_id % 3
                   WHEN 0 THEN '<html><head><title>Doc ' || i
                       || '</title></head><body><div class="main" id="m'
                       || i || '"><h1>T ' || i || '</h1><p>p' || i
                       || ' one</p><p>p' || i
                       || ' two</p></div></body></html>'
                   WHEN 1 THEN
                       '<html><head><meta charset="utf-8"><title>P ' || i
                       || '</title></head><body><ul><li>a' || i
                       || '</li><li>b' || i || '</li></ul></body></html>'
                   ELSE '<html><body><table border="1"><tr><td>' || i
                       || '</td><td>x</td></tr></table></body></html>'
               END AS html
        FROM (SELECT doc_id, CAST(doc_id AS VARCHAR) AS i FROM documents)
    ),
    sk AS (
        SELECT doc_id,
               regexp_replace(
                   lower(regexp_replace(html, '>[^<]*', '>', 'g')),
                   '<([a-z][a-z0-9]*)[^>]*>', '<\\1>', 'g') AS skel
        FROM pages
    )
"""


def oracle_sql() -> dict[str, str]:
    return {
        "exact_canonical": """
            SELECT min(doc_id) AS doc_id,
                   sha256(text) AS digest,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM documents
            WHERE text IS NOT NULL AND length(text) > 0
            GROUP BY sha256(text)
        """,
        "soft_dedup_weights": """
            SELECT doc_id,
                   CAST(count(*) OVER (PARTITION BY sha256(text))
                        AS BIGINT) AS n_dups,
                   1.0 / count(*) OVER (PARTITION BY sha256(text))
                       AS weight
            FROM documents
            WHERE text IS NOT NULL AND length(text) > 0
        """,
        "main_content": """
            SELECT doc_id,
                   ltrim(COALESCE(text, '') ||
                         CASE WHEN doc_id % 4 = 0
                              THEN ' promo ' || CAST(doc_id AS VARCHAR)
                                   || ' extra'
                              ELSE '' END) AS main_text
            FROM documents
        """,
        "noindex_filter": """
            SELECT doc_id,
                   CAST(
                     strlen('<html><head>'
                       || CASE WHEN doc_id % 7 = 3
                          THEN '<meta name="robots" content="noindex, nofollow">'
                          ELSE '' END
                       || '</head><body>'
                       || '<nav><a href="/">home</a> <a href="/about">about</a></nav>'
                       || '<p>' || COALESCE(text, '') || '</p>'
                       || CASE WHEN doc_id % 4 = 0
                          THEN '<div>promo ' || CAST(doc_id AS VARCHAR)
                               || ' extra</div>' ELSE '' END
                       || '<footer><a href="/contact">contact</a> '
                       || '<a href="/terms">terms</a></footer></body></html>')
                     AS BIGINT) AS html_bytes
            FROM documents WHERE doc_id % 7 <> 3
        """,
        "latest_snapshot": """
            SELECT user_id, ts, event_id FROM (
                SELECT user_id, ts, event_id,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts DESC, event_id DESC)
                           AS rn
                FROM events
            ) WHERE rn = 1
        """,
        "hreflang_edges": """
            WITH j AS (SELECT unnest(range(3)) AS j),
            langs(j, l) AS (VALUES (0, 'en'), (1, 'fr'), (2, 'de'))
            SELECT d.doc_id, langs.l AS hreflang,
                   'https://host' || CAST(d.doc_id - d.doc_id % 3 + j.j
                       AS VARCHAR) || '.example/p' AS href
            FROM documents d, j JOIN langs USING (j)
            WHERE d.doc_id - d.doc_id % 3 + j.j <> d.doc_id
        """,
        "canonical_dup_groups": """
            SELECT 'https://host' || CAST(doc_id - doc_id % 5 AS VARCHAR)
                       || '.example/p' AS url_canon,
                   CAST(count(*) AS BIGINT) AS n_dups,
                   min(doc_id) AS keep_doc
            FROM documents GROUP BY doc_id - doc_id % 5
        """,
        "jsonld_extract": """
            SELECT doc_id,
                   CASE WHEN doc_id % 3 = 0 THEN 'Product'
                        ELSE 'Article' END AS type,
                   'item ' || CAST(doc_id AS VARCHAR) AS name,
                   CAST(doc_id % 7 AS BIGINT) AS position
            FROM documents
        """,
        "mirror_clusters": """
            WITH hosts AS (
                SELECT DISTINCT 'h' || CAST(doc_id % 6 AS VARCHAR) AS host,
                       CAST(doc_id % 6 < 3 AS INTEGER) AS fam
                FROM documents
            ), nodes AS (
                SELECT host, fam,
                       ('0x' || substr(sha256(host), 1, 16))::UBIGINT
                           AS node
                FROM hosts
            )
            SELECT n.host,
                   min(n2.node) AS cluster_id
            FROM nodes n JOIN nodes n2 ON n2.fam = n.fam
            GROUP BY n.host
        """,
        "mirror_hosts": """
            WITH pages AS (
                SELECT 'h' || CAST(doc_id % 6 AS VARCHAR) AS host,
                       CASE WHEN doc_id % 11 = 0
                            THEN 'h' || CAST(doc_id % 6 AS VARCHAR)
                                 || '-unique-' || CAST(doc_id AS VARCHAR)
                            ELSE (CASE WHEN doc_id % 6 < 3
                                       THEN 'A' ELSE 'B' END)
                                 || 'p' || CAST(doc_id % 35 AS VARCHAR)
                       END AS content
                FROM documents
            ), hp AS (
                SELECT DISTINCT host, content FROM pages
            ), sz AS (
                SELECT host, CAST(count(*) AS BIGINT) AS n
                FROM hp GROUP BY host
            ), inter AS (
                SELECT a.host AS host_a, b.host AS host_b,
                       CAST(count(*) AS BIGINT) AS n_inter
                FROM hp a JOIN hp b
                    ON a.content = b.content AND a.host < b.host
                GROUP BY a.host, b.host
            )
            SELECT i.host_a, i.host_b, i.n_inter,
                   sa.n AS n_a, sb.n AS n_b,
                   i.n_inter / CAST(sa.n + sb.n - i.n_inter AS DOUBLE)
                       AS jaccard
            FROM inter i
            JOIN sz sa ON sa.host = i.host_a
            JOIN sz sb ON sb.host = i.host_b
            WHERE i.n_inter / CAST(sa.n + sb.n - i.n_inter AS DOUBLE)
                  >= 0.3
        """,
        "pack_sequences": """
            WITH st AS (
                SELECT doc_id,
                       CAST(COALESCE(len(regexp_extract_all(
                           lower(text), '[a-z0-9_]+')), 0) AS BIGINT)
                           AS n_tokens
                FROM documents
            ), c AS (
                SELECT doc_id, n_tokens,
                       CAST(COALESCE(sum(n_tokens + 1) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS BIGINT)
                           AS start_offset
                FROM st
            )
            SELECT doc_id, n_tokens, start_offset,
                   start_offset // 256 AS first_seq,
                   (start_offset + n_tokens) // 256 AS last_seq
            FROM c
        """,
        "packed_windows": """
            WITH st AS (
                SELECT doc_id,
                       regexp_extract_all(lower(COALESCE(text, '')),
                                          '[a-z0-9_]+') AS toks
                FROM documents
            ), c AS (
                SELECT doc_id, toks,
                       CAST(len(toks) AS BIGINT) AS n,
                       CAST(COALESCE(sum(CAST(len(toks) AS BIGINT) + 1)
                           OVER (ORDER BY doc_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) AS BIGINT)
                           AS start_offset
                FROM st
            ), flat AS (
                SELECT start_offset + CAST(ord AS BIGINT) - 1 AS pos,
                       ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS tid
                FROM (
                    SELECT start_offset, unnest(toks) AS tok,
                           generate_subscripts(toks, 1) AS ord
                    FROM c
                )
                UNION ALL
                SELECT start_offset + n AS pos, CAST(0 AS UBIGINT) AS tid
                FROM c
            )
            SELECT pos // 256 AS seq_id,
                   CAST(count(*) AS BIGINT) AS n_toks,
                   CAST(sum(CAST(tid AS HUGEINT) * (pos % 256 + 1))
                        % CAST(18446744073709551616 AS HUGEINT)
                        AS UBIGINT) AS checksum
            FROM flat
            GROUP BY pos // 256
        """,
"perceptron_filter": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(
                           lower(COALESCE(text, '')), '[a-z0-9_]+')) AS tok
                FROM documents
            ), feat AS (
                SELECT doc_id,
                       CAST(('0x' || substr(md5(tok), 1, 16))::UBIGINT
                            % 4096 AS BIGINT) AS dim,
                       CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY doc_id, dim
            ), lab AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 2 = 0 THEN 1 ELSE -1 END AS y
                FROM documents
            ), w1 AS (
                -- iteration 1: w0 = 0 makes every margin 0 <= 0
                SELECT f.dim, sum(l.y * f.c) AS w
                FROM feat f JOIN lab l USING (doc_id) GROUP BY f.dim
            ), m2 AS (
                SELECT f.doc_id, l.y,
                       l.y * sum(w1.w * f.c) AS margin
                FROM feat f
                JOIN lab l USING (doc_id)
                JOIN w1 ON w1.dim = f.dim
                GROUP BY f.doc_id, l.y
            ), g2 AS (
                SELECT f.dim, sum(m.y * f.c) AS g
                FROM m2 m JOIN feat f ON f.doc_id = m.doc_id
                WHERE m.margin <= 0
                GROUP BY f.dim
            )
            , w2 AS (
                SELECT COALESCE(w1.dim, g2.dim) AS dim,
                       COALESCE(w1.w, 0) + COALESCE(g2.g, 0) AS weight
                FROM w1 FULL JOIN g2 ON w1.dim = g2.dim
            ), sc AS (
                SELECT l.doc_id,
                       COALESCE(sum(w2.weight * f.c), 0) AS score
                FROM lab l
                LEFT JOIN feat f ON f.doc_id = l.doc_id
                LEFT JOIN w2 ON w2.dim = f.dim
                GROUP BY l.doc_id
            )
            SELECT doc_id, CAST(score AS BIGINT) AS score,
                   CAST(sign(score) AS BIGINT) AS pred
            FROM sc
        """,
        "perceptron_weights": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(
                           lower(COALESCE(text, '')), '[a-z0-9_]+')) AS tok
                FROM documents
            ), feat AS (
                SELECT doc_id,
                       CAST(('0x' || substr(md5(tok), 1, 16))::UBIGINT
                            % 4096 AS BIGINT) AS dim,
                       CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY doc_id, dim
            ), lab AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 2 = 0 THEN 1 ELSE -1 END AS y
                FROM documents
            ), w1 AS (
                -- iteration 1: w0 = 0 makes every margin 0 <= 0
                SELECT f.dim, sum(l.y * f.c) AS w
                FROM feat f JOIN lab l USING (doc_id) GROUP BY f.dim
            ), m2 AS (
                SELECT f.doc_id, l.y,
                       l.y * sum(w1.w * f.c) AS margin
                FROM feat f
                JOIN lab l USING (doc_id)
                JOIN w1 ON w1.dim = f.dim
                GROUP BY f.doc_id, l.y
            ), g2 AS (
                SELECT f.dim, sum(m.y * f.c) AS g
                FROM m2 m JOIN feat f ON f.doc_id = m.doc_id
                WHERE m.margin <= 0
                GROUP BY f.dim
            )
            SELECT COALESCE(w1.dim, g2.dim) AS dim_id,
                   CAST(COALESCE(w1.w, 0) + COALESCE(g2.g, 0) AS BIGINT)
                       AS weight
            FROM w1 FULL JOIN g2 ON w1.dim = g2.dim
            WHERE COALESCE(w1.w, 0) + COALESCE(g2.g, 0) <> 0
        """,
        "lsh_threshold_sweep": _lsh_threshold_sweep_oracle_sql(),
        "chunk_docs": """
            WITH st AS (
                SELECT doc_id,
                       regexp_extract_all(lower(COALESCE(text, '')),
                                          '[a-z0-9_]+') AS toks
                FROM documents
            ), c AS (
                SELECT doc_id, toks, CAST(len(toks) AS BIGINT) AS n
                FROM st
            ), g AS (
                SELECT doc_id, toks, n,
                       unnest(generate_series(
                           0, greatest(n - 1, 0), 16)) AS s
                FROM c
            )
            SELECT doc_id,
                   CAST(s // 16 AS BIGINT) AS chunk_id,
                   CAST(s AS BIGINT) AS start_tok,
                   CAST(least(s + 32, n) - s AS BIGINT) AS n_chunk_tokens,
                   COALESCE(array_to_string(
                       toks[s + 1 : least(s + 32, n)], ' '), '')
                       AS chunk_text
            FROM g
        """,
        "lm_rarity": f"""
            WITH {_bigram_score_cte()}
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(s.rarity, 0) AS BIGINT) AS rarity
            FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
        """,
        "lm_rarity_join": f"""
            WITH {_bigram_score_cte()}
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(s.rarity, 0) AS BIGINT) AS rarity
            FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
        """,
        "ccnet_buckets": f"""
            WITH {_bigram_score_cte()},
            avgd AS (
                SELECT d.doc_id,
                       COALESCE(s.rarity, 0)
                           // (CASE WHEN COALESCE(s.n_bigrams, 0) > 0
                               THEN s.n_bigrams ELSE 1 END) AS avg_rarity
                FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
            ), tot AS (SELECT count(*) AS n FROM avgd),
            hist AS (
                SELECT avg_rarity, count(*) AS c FROM avgd GROUP BY avg_rarity
            ), cw AS (
                SELECT avg_rarity,
                       sum(c) OVER (ORDER BY avg_rarity) AS cum
                FROM hist
            ), cuts AS (
                SELECT min(CASE WHEN cum >= (SELECT (n + 2) // 3 FROM tot)
                                THEN avg_rarity END) AS q1,
                       min(CASE WHEN cum >= (SELECT (2 * n + 2) // 3 FROM tot)
                                THEN avg_rarity END) AS q2
                FROM cw
            )
            SELECT doc_id,
                   CAST(avg_rarity AS BIGINT) AS avg_rarity,
                   CASE WHEN avg_rarity <= q1 THEN 'head'
                        WHEN avg_rarity <= q2 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM avgd, cuts
        """,
        "template_keys": f"""
            WITH {_TEMPLATE_SKEL_CTE}
            SELECT doc_id,
                   ('0x' || substr(md5(skel), 1, 16))::UBIGINT
                       AS template_u64,
                   CAST(length(skel) - length(replace(skel, '<', ''))
                        AS BIGINT) AS n_tags
            FROM sk
        """,
        "template_clusters": f"""
            WITH {_TEMPLATE_SKEL_CTE}
            SELECT ('0x' || substr(md5(skel), 1, 16))::UBIGINT
                       AS template_u64,
                   CAST(count(*) AS BIGINT) AS n_pages,
                   min(doc_id) AS exemplar,
                   CAST(length(skel) - length(replace(skel, '<', ''))
                        AS BIGINT) AS n_tags
            FROM sk GROUP BY skel
        """,
        "bpe_pair_counts": """
            WITH toks AS (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                    AS w
                FROM documents
            ), pairs AS (
                SELECT substr(w, i, 2) AS pair
                FROM toks,
                     LATERAL (SELECT unnest(range(1, len(w))) AS i)
                WHERE len(w) >= 2
            )
            SELECT pair, CAST(count(*) AS BIGINT) AS n
            FROM pairs GROUP BY pair
            ORDER BY n DESC, pair ASC LIMIT 50
        """,
        "surt_dup_groups": """
            SELECT 'example,site' || CAST((doc_id // 2) % 50 AS VARCHAR)
                       || ')/p' || CAST(doc_id // 2 AS VARCHAR) AS surt,
                   CAST(count(*) AS BIGINT) AS n_dups,
                   min(doc_id) AS keep_doc
            FROM documents
            GROUP BY doc_id // 2
        """,
        "revisit_collapse": """
            WITH caps AS (
                SELECT 'https://site' || CAST(doc_id % 37 AS VARCHAR)
                           || '.example/p' AS url,
                       CAST(1700000000000000
                            + doc_id * 1000000 AS BIGINT) AS ts,
                       ('0x' || substr(md5(
                           'v' || CAST(doc_id % 37 AS VARCHAR) || ':'
                           || CAST((doc_id // 37)
                                   - ((doc_id // 37) % 3) AS VARCHAR)
                       ), 1, 16))::UBIGINT AS digest
                FROM documents
            )
            SELECT url, ts, digest,
                   CAST(ts > min(ts) OVER (PARTITION BY url, digest)
                        AS BIGINT) AS is_revisit,
                   min(ts) OVER (PARTITION BY url, digest) AS ref_ts
            FROM caps
        """,
        "wet_roundtrip": """
            SELECT doc_id,
                   'https://host' || CAST(doc_id AS VARCHAR)
                       || '.example/p' AS url,
                   COALESCE(text, '') AS text
            FROM documents
        """,
        "robots_check": """
            SELECT doc_id,
                   CASE
                       WHEN doc_id % 11 = 5 THEN FALSE          -- /q* wildcard
                       WHEN doc_id % 5 <> (doc_id % 23) % 5 THEN TRUE
                       WHEN doc_id % 7 = 0 THEN TRUE            -- Allow /p{..}/ok
                       ELSE FALSE                               -- Disallow /p{..}
                   END AS allowed
            FROM documents
        """,
        "charset_transcode": """
            SELECT doc_id,
                   CASE doc_id % 3
                        WHEN 1 THEN 'utf-16-le'
                        WHEN 2 THEN 'latin-1'
                        ELSE 'utf-8' END AS charset,
                   COALESCE(text, '') || ' café ' || CAST(doc_id AS VARCHAR)
                       AS text
            FROM documents
        """,
        "cdx_index": """
            SELECT 'example,host' || CAST(doc_id AS VARCHAR) || ')/p'
                       AS surt,
                   make_timestamp(1700000000000000
                                  + doc_id * 1000000) AS warc_ts,
                   'https://host' || CAST(doc_id AS VARCHAR)
                       || '.example/p' AS url,
                   sha256('<p>' || COALESCE(text, '') || '</p>')
                       AS digest,
                   CAST(strlen('<p>' || COALESCE(text, '') || '</p>')
                        AS BIGINT) AS n_bytes
            FROM documents
        """,
        "surt_keys": """
            SELECT doc_id,
                   'example,site' || CAST(doc_id % 97 AS VARCHAR)
                       || ',sub' || CAST(doc_id % 5 AS VARCHAR)
                       || ')/p' || CAST(doc_id % 4 AS VARCHAR)
                       || '/x?a=1&b=' || CAST(doc_id % 3 AS VARCHAR)
                       AS surt
            FROM documents
        """,
        "warc_roundtrip": """
            SELECT 'https://host' || CAST(doc_id AS VARCHAR)
                       || '.example/p' AS url,
                   make_timestamp(1700000000000000
                                  + doc_id * 1000000) AS warc_ts,
                   CAST(strlen('<p>' || COALESCE(text, '') || '</p>')
                        AS BIGINT) AS n_bytes
            FROM documents
        """,
        "web_curated": """
            WITH base AS (
                SELECT doc_id, source,
                       ltrim(COALESCE(text, '') ||
                             CASE WHEN doc_id % 4 = 0
                                  THEN ' promo ' || CAST(doc_id AS VARCHAR)
                                       || ' extra'
                                  ELSE '' END) AS mt
                FROM documents
                WHERE doc_id % 7 <> 3
            ), split AS (
                SELECT doc_id, source, string_split(mt, ' ') AS tk FROM base
            ), lines AS (
                SELECT doc_id, source, li,
                       array_to_string(tk[li*10+1 : li*10+10], ' ') AS line
                FROM split,
                     LATERAL (SELECT unnest(generate_series(
                                  0, (len(tk)-1)//10)) AS li)
            ), freq AS (
                SELECT source, line FROM lines
                GROUP BY source, line HAVING count(DISTINCT doc_id) >= 2
            ), kept AS (
                SELECT l.doc_id, l.li, l.line FROM lines l
                WHERE NOT EXISTS (
                    SELECT 1 FROM freq f
                    WHERE f.source = l.source AND f.line = l.line
                )
            )
            SELECT s.doc_id,
                   CAST((len(s.tk)-1)//10 + 1 AS BIGINT) AS n_lines,
                   CAST((len(s.tk)-1)//10 + 1 - count(k.line)
                        AS BIGINT) AS n_removed,
                   COALESCE(string_agg(k.line, ' ' ORDER BY k.li), '')
                       AS clean_text
            FROM split s LEFT JOIN kept k ON s.doc_id = k.doc_id
            GROUP BY s.doc_id, len(s.tk)
        """,
        "fast_membership": """
            SELECT d.doc_id,
                   d.text IN (SELECT text FROM documents
                              WHERE source = 'src0'
                                AND text IS NOT NULL AND length(text) > 0)
                       AS in_index
            FROM documents d
            WHERE d.text IS NOT NULL AND length(d.text) > 0
        """,
        "exact_pairs_trunc": """
            WITH d AS (
                SELECT doc_id, sha256(substr(text, 1, 40)) AS dg
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ),
            g AS (SELECT dg, min(doc_id) AS canon FROM d GROUP BY dg)
            SELECT g.canon AS doc_id, d.doc_id AS match_doc_id
            FROM d JOIN g USING (dg)
            WHERE d.doc_id <> g.canon
        """,
        "count_by_source": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(n_chars) AS BIGINT) AS total_bytes
            FROM documents GROUP BY source
        """,
        "info": """
            SELECT COALESCE(source, '__total__') AS source,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(n_chars) AS BIGINT) AS total_bytes
            FROM documents GROUP BY ROLLUP (source)
        """,
        "search_text": """
            SELECT doc_id, source FROM documents
            WHERE contains(text, 'join') ORDER BY doc_id
        """,
        "search_text_nocase": """
            SELECT doc_id, source FROM documents
            WHERE contains(lower(text), lower('JOIN')) ORDER BY doc_id
        """,
        "refresh_anti_broadcast": """
            SELECT doc_id, source FROM documents WHERE doc_id % 3 <> 0
        """,
        "refresh_anti_shuffle": """
            SELECT doc_id, source FROM documents WHERE doc_id % 3 <> 0
        """,
        "exact_clusters_trunc": """
            WITH nodes AS (
                SELECT doc_id,
                       CAST(concat('0x', substr(sha256(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS node,
                       CASE WHEN text IS NOT NULL AND length(text) > 0
                            THEN sha256(substr(text, 1, 40)) END AS dg
                FROM documents
            )
            SELECT doc_id,
                   CASE WHEN dg IS NULL THEN node
                        ELSE min(node) OVER (PARTITION BY dg) END AS cluster_id
            FROM nodes
        """,
        "lang_id": _lang_id_oracle_sql(),
        "simhash_pairs": _simhash_oracle_sql(),
        "near_dup_clusters": _near_dup_clusters_oracle_sql(),
        "near_incremental": _near_dup_clusters_oracle_sql(),
        "near_dup_clusters_checkpointed": _near_dup_clusters_oracle_sql(),
        "fingerprints": _fingerprint_oracle_sql(),
        "winnow_fingerprints": _winnow_oracle_sql(),
        "winnow_matches": _winnow_matches_oracle_sql(),
        "cdc_chunks": _cdc_chunks_oracle_sql(),
        "cdc_dedup_stats": _cdc_stats_oracle_sql(),
        "windowed_near_pairs": _windowed_near_pairs_oracle_sql(),
        "first_publishers": _first_publishers_oracle_sql(),
        "temperature_mix": _temperature_mix_oracle_sql(),
        "bm25_scores": _BM25_ORACLE,
        "dedup_method_venn": _dedup_method_venn_oracle_sql(),
        "edit_verified_pairs": _edit_verified_pairs_oracle_sql(),
        "content_novelty": _CONTENT_NOVELTY_ORACLE,
        "novelty_sampled": _novelty_sampled_oracle_sql(),
        "source_quality_report": _source_quality_report_oracle_sql(),
        "novelty_by_source": f"""
            WITH nov AS ({_CONTENT_NOVELTY_ORACLE})
            SELECT d.source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(nov.n_grams) AS BIGINT) AS sum_grams,
                   CAST(sum(nov.n_novel) AS BIGINT) AS sum_novel
            FROM nov JOIN documents d ON d.doc_id = nov.doc_id
            GROUP BY d.source
        """,
        "lexical_semantic_agreement": _lexical_semantic_agreement_oracle_sql(),
        "top_quality_per_source": _top_quality_per_source_oracle_sql(),
        "phrase_search": _PHRASE_SEARCH_ORACLE,
        "cluster_edit_profile": _cluster_edit_profile_oracle_sql(),
        "bm25_incremental": _BM25_ORACLE,
        "paragraph_dedup": """
            WITH split AS (
                SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS tk
                FROM documents
            ), lines AS (
                SELECT doc_id, li,
                       array_to_string(tk[li*10+1 : li*10+10], ' ') AS line
                FROM split,
                     LATERAL (SELECT unnest(generate_series(
                                  0, (len(tk)-1)//10)) AS li)
            ), ranked AS (
                SELECT doc_id, li, line,
                       row_number() OVER (
                           PARTITION BY line ORDER BY doc_id, li
                       ) AS rk
                FROM lines
            ), kept AS (
                SELECT doc_id, li, line FROM ranked WHERE rk = 1
            )
            SELECT s.doc_id,
                   CAST((len(s.tk)-1)//10 + 1 AS BIGINT) AS n_lines,
                   CAST((len(s.tk)-1)//10 + 1 - count(k.line)
                        AS BIGINT) AS n_removed,
                   COALESCE(string_agg(k.line, ' ' ORDER BY k.li), '')
                       AS clean_text
            FROM split s LEFT JOIN kept k ON s.doc_id = k.doc_id
            GROUP BY s.doc_id, len(s.tk)
        """,
        "amp_unify": """
            SELECT doc_id,
                   CASE WHEN doc_id % 3 < 2 THEN doc_id - (doc_id % 3)
                        ELSE doc_id END AS cluster
            FROM documents
        """,
        "og_cards": """
            SELECT doc_id, 'og:title' AS prop,
                   'Title ' || (doc_id % 50) AS content
            FROM documents
            UNION ALL
            SELECT doc_id, 'og:image',
                   'https://cdn' || (doc_id % 7) || '.example/img'
                       || (doc_id % 11) || '.png'
            FROM documents
            UNION ALL
            SELECT doc_id, 'twitter:card', 'summary' || (doc_id % 4)
            FROM documents WHERE doc_id % 3 = 0
        """,
        "url_templates": "WITH " + _URL_DERIVE_CANON_SQL + r"""
            , tparts AS (
                SELECT regexp_replace(url_canon, '\?.*$', '') AS head,
                       CASE WHEN url_canon LIKE '%?%'
                            THEN regexp_extract(url_canon, '\?(.*)$', 1)
                       END AS q
                FROM canon
            ), tmpl AS (
                SELECT lower(regexp_extract(head,
                           '^[A-Za-z][A-Za-z0-9+.\-]*://([^/?]*)', 1)) ||
                       regexp_replace(regexp_replace(
                           regexp_extract(head,
                               '^[A-Za-z][A-Za-z0-9+.\-]*://[^/?]*([^?]*)$', 1),
                           '[0-9a-fA-F]{16,}', '{hex}', 'g'),
                           '[0-9]+', '{d}', 'g') ||
                       CASE WHEN q IS NULL
                                 OR regexp_replace(q, '=[^&]*', '', 'g') = ''
                            THEN ''
                            ELSE '?' || regexp_replace(q, '=[^&]*', '', 'g')
                       END AS url_template
                FROM tparts
            )
            SELECT url_template, CAST(count(*) AS BIGINT) AS n
            FROM tmpl GROUP BY 1
        """,
        # word-5-gram sets as unit-separator-joined strings; CASE arms
        # mirror shingle_set/exact_jaccard semantics exactly (empty→set(),
        # <k tokens→single whole-text shingle; both-empty→1.0, one→0.0)
        "ngram_jaccard_pairs": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM documents WHERE doc_id < 600
            ), sh AS (
                SELECT doc_id,
                    CASE
                        WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
                        WHEN len(tk) < 5 THEN [array_to_string(tk, chr(31))]
                        ELSE list_distinct([array_to_string(tk[i:i+4], chr(31))
                                            FOR i IN range(1, len(tk) - 3)])
                    END AS grams
                FROM toks
            ), scored AS (
                SELECT a.doc_id AS src_id, b.doc_id AS dst_id,
                    CASE
                        WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                        WHEN len(a.grams) = 0 OR len(b.grams) = 0 THEN 0.0
                        ELSE len(list_intersect(a.grams, b.grams)) * 1.0
                             / len(list_distinct(list_concat(a.grams, b.grams)))
                    END AS jaccard
                FROM sh a JOIN sh b ON b.doc_id > a.doc_id
            )
            SELECT src_id, dst_id, jaccard FROM scored WHERE jaccard >= 0.2
        """,
        # asymmetric containment over the same shingle contract as
        # ngram_jaccard_pairs
        "containment_scores": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM documents WHERE doc_id < 600
            ), sh AS (
                SELECT doc_id,
                    CASE
                        WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
                        WHEN len(tk) < 5 THEN [array_to_string(tk, chr(31))]
                        ELSE list_distinct([array_to_string(tk[i:i+4], chr(31))
                                            FOR i IN range(1, len(tk) - 3)])
                    END AS grams
                FROM toks
            ), scored AS (
                SELECT a.doc_id AS src_id, b.doc_id AS dst_id,
                    CASE
                        WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                        WHEN len(a.grams) = 0 THEN 0.0
                        ELSE len(list_intersect(a.grams, b.grams)) * 1.0
                             / len(a.grams)
                    END AS c_src,
                    CASE
                        WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                        WHEN len(b.grams) = 0 THEN 0.0
                        ELSE len(list_intersect(a.grams, b.grams)) * 1.0
                             / len(b.grams)
                    END AS c_dst
                FROM sh a JOIN sh b ON b.doc_id > a.doc_id
            )
            SELECT src_id, dst_id, c_src, c_dst
            FROM scored WHERE greatest(c_src, c_dst) >= 0.5
        """,
        "token_stats": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens_ws,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]+|\d+|[^\sA-Za-z\d]')) AS BIGINT) AS n_tokens_bpe,
                   CAST(len(regexp_extract_all(lower(text), '\w+')) AS BIGINT) AS n_words,
                   CAST(length(text) AS BIGINT) AS n_chars_q
            FROM documents
        """,
        # exact 5-NN graph (self excluded), ids only; the IVF variant is
        # driven at full probe, which is exact -> same oracle
        "knn_graph": _KNN_GRAPH_ORACLE,
        "knn_graph_ivf": _KNN_GRAPH_ORACLE,
        "topk_cosine": _TOPK_ORACLE,
        "topk_cosine_ivf": _TOPK_ORACLE,
        "cosine_pairs": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
        """,
        "cosine_pairs_lsh_fullprobe": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
        """,
        # SemDeDup at iters=0: seed centroids = the 8 smallest-id
        # embeddings (cell index = rank by vec_id), assignment = argmax
        # cosine with ties to the lower cell, keep = no lower-id row in
        # the same cell at cosine >= 0.4
        # synthetic images seed from substr(text, 1, 40); perceptual
        # clusters must equal the exact prefix groups (min-id labeling)
        "image_dup_clusters": """
            SELECT doc_id,
                   CAST(min(doc_id) OVER (
                       PARTITION BY substr(text, 1, 40)
                   ) AS BIGINT) AS cluster_id
            FROM documents
        """,
        "audio_dup_clusters": """
            SELECT doc_id,
                   CAST(min(doc_id) OVER (
                       PARTITION BY substr(text, 1, 40)
                   ) AS BIGINT) AS cluster_id
            FROM documents
        """,
        "video_dup_clusters": """
            SELECT doc_id,
                   CAST(min(doc_id) OVER (
                       PARTITION BY substr(text, 1, 40)
                   ) AS BIGINT) AS cluster_id
            FROM documents
        """,
        "mp3_metadata": """
            SELECT doc_id,
                   CAST(3 + (n_chars % 8) AS BIGINT) AS n_frames,
                   CAST(CASE WHEN doc_id % 2 = 0 THEN 44100 ELSE 32000 END
                        AS INTEGER) AS sample_rate,
                   CAST((3 + (n_chars % 8)) * 1152 AS BIGINT) AS n_samples,
                   CAST(ROUND((3 + (n_chars % 8)) * 1152000.0 /
                        (CASE WHEN doc_id % 2 = 0 THEN 44100 ELSE 32000 END))
                        AS INTEGER) AS duration_ms_dec,
                   (doc_id % 3 = 2) AS vbr,
                   CAST(3 AS INTEGER) AS layer
            FROM documents
        """,
        "dsir_weights": f"""
            WITH {_DSIR_SQL_BODY}
            SELECT doc_id, n_tokens, score FROM dsir
        """,
        "dsir_topk": f"""
            WITH {_DSIR_SQL_BODY}
            SELECT doc_id, n_tokens, score FROM dsir
            ORDER BY score DESC, doc_id LIMIT 50
        """,
        "link_edges": _LINK_EDGES_SQL,
        "link_edges_nofollow": """
            WITH n AS (SELECT count(*) AS cnt FROM documents),
            j AS (SELECT unnest(range(3)) AS j)
            SELECT d.doc_id,
                   'host' || CAST(d.doc_id AS VARCHAR) || '.example'
                       AS src_host,
                   'host' || CAST((d.doc_id * 31 + 7 * j.j + 1) % n.cnt
                       AS VARCHAR) || '.example' AS dst_host
            FROM documents d, j, n
            WHERE j.j < 1 + d.doc_id % 3
            UNION ALL
            SELECT d.doc_id,
                   'host' || CAST(d.doc_id AS VARCHAR) || '.example'
                       AS src_host,
                   'tracker' || CAST(d.doc_id % 13 AS VARCHAR)
                       || '.example' AS dst_host
            FROM documents d WHERE d.doc_id % 2 = 1
        """,
        "pagerank_hosts": _PAGERANK_SQL,
        "hits_hosts": _HITS_SQL,
        "anchor_profiles": _ANCHOR_PROFILES_SQL,
        "topk_cosine_sq8": _TOPK_ORACLE,
        "multimodal_consensus": """
            SELECT doc_id,
                   CAST(min(doc_id) OVER (
                       PARTITION BY substr(text, 1, 40)
                   ) AS BIGINT) AS cluster_id
            FROM documents
        """,
        "redirect_roots": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(doc_id - doc_id % 4 AS BIGINT) AS root,
                   CAST(doc_id % 4 AS BIGINT) AS hops
            FROM documents
        """,
        "text_embeddings": _text_embeddings_oracle_sql(),
        "text_semantic_dedup": _text_semantic_dedup_oracle_sql(),
        "semantic_dedup": """
            WITH cents AS (
                SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cell,
                       embedding AS ce
                FROM embeddings WHERE vec_id < 8
            ), assign AS (
                SELECT e.vec_id, c.cell,
                       row_number() OVER (
                           PARTITION BY e.vec_id
                           ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                    c.cell ASC
                       ) AS rk
                FROM embeddings e CROSS JOIN cents c
            ), cellmap AS (
                SELECT vec_id, cell FROM assign WHERE rk = 1
            )
            SELECT a.vec_id, a.cell,
                   NOT EXISTS (
                       SELECT 1
                       FROM cellmap b
                       JOIN embeddings eb ON eb.vec_id = b.vec_id
                       JOIN embeddings ea ON ea.vec_id = a.vec_id
                       WHERE b.cell = a.cell AND b.vec_id < a.vec_id
                         AND list_cosine_similarity(ea.embedding, eb.embedding) >= 0.4
                   ) AS keep
            FROM cellmap a
        """,
        # duplicate-pair counts per source pair: C(n,2) within a source,
        # n*m across two sources, prefix-40 digests (real dup groups at
        # small sf), zero-pair rows dropped on both sides
        "source_overlap": """
            WITH d AS (
                SELECT source, sha256(substr(text, 1, 40)) AS dg
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ), c AS (
                SELECT dg, source, count(*) AS n FROM d GROUP BY dg, source
            )
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(sum(CASE WHEN a.source = b.source
                                 THEN a.n * (a.n - 1) // 2
                                 ELSE a.n * b.n END) AS BIGINT) AS n_pairs
            FROM c a JOIN c b ON a.dg = b.dg AND a.source <= b.source
            GROUP BY a.source, b.source
            HAVING sum(CASE WHEN a.source = b.source
                            THEN a.n * (a.n - 1) // 2
                            ELSE a.n * b.n END) > 0
        """,
        "near_source_overlap": _near_source_overlap_oracle_sql(),
        # float-free TF-IDF ranking: (df asc, tf desc, token asc) top-3
        "rare_terms": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS token
                FROM documents
            ), tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM toks GROUP BY doc_id, token
            ), df AS (
                SELECT token, count(*) AS df FROM tf GROUP BY token
            ), ranked AS (
                SELECT t.doc_id, t.token, t.tf, d.df,
                       row_number() OVER (
                           PARTITION BY t.doc_id
                           ORDER BY d.df ASC, t.tf DESC, t.token ASC
                       ) AS rk
                FROM tf t JOIN df d USING (token)
            )
            SELECT doc_id, CAST(rk AS BIGINT) AS rk, token,
                   CAST(df AS BIGINT) AS df, CAST(tf AS BIGINT) AS tf
            FROM ranked WHERE rk <= 3
        """,
        # snapshot diff: the SAME derived 'new' snapshot as the engine
        # query, compared by sha256 over the non-empty-text contract
        "snapshot_diff": """
            WITH oldt AS (
                SELECT doc_id, sha256(text) AS dg FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ), newt_rows AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 5 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 7 <> 0
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id, text || ' new' AS text
                FROM documents WHERE doc_id % 11 = 0
            ), newt AS (
                SELECT doc_id, sha256(text) AS dg FROM newt_rows
                WHERE text IS NOT NULL AND length(text) > 0
            )
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM oldt o FULL OUTER JOIN newt n ON o.doc_id = n.doc_id
            WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.dg <> n.dg
        """,
        # whole-token search (same tokenizer contract as the index build)
        "indexed_search_all": r"""
            SELECT doc_id FROM documents
            WHERE list_contains(regexp_extract_all(lower(text), '[a-z0-9_]+'), 'join')
              AND list_contains(regexp_extract_all(lower(text), '[a-z0-9_]+'), 'data')
        """,
        "indexed_search_any": r"""
            SELECT doc_id FROM documents
            WHERE list_contains(regexp_extract_all(lower(text), '[a-z0-9_]+'), 'join')
               OR list_contains(regexp_extract_all(lower(text), '[a-z0-9_]+'), 'data')
        """,
        # corpus-frequency join-back: same [a-z0-9_]+ lower tokenizer as
        # the engine; every doc gets one row (zeros when tokenless)
        "corpus_freq_stats": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS token
                FROM documents
            ), vocab AS (
                SELECT token, count(*) AS n FROM toks GROUP BY token
            ), per AS (
                SELECT t.doc_id,
                       CAST(count(*) AS BIGINT) AS n_tokens,
                       CAST(count(DISTINCT t.token) AS BIGINT) AS n_distinct,
                       CAST(sum(v.n) AS BIGINT) AS sum_freq,
                       CAST(sum(CASE WHEN v.n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax,
                       CAST(min(v.n) AS BIGINT) AS min_freq
                FROM toks t JOIN vocab v USING (token)
                GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(n_tokens, 0) AS n_tokens,
                   COALESCE(n_distinct, 0) AS n_distinct,
                   COALESCE(sum_freq, 0) AS sum_freq,
                   COALESCE(n_hapax, 0) AS n_hapax,
                   COALESCE(min_freq, 0) AS min_freq
            FROM documents d LEFT JOIN per USING (doc_id)
        """,
        # raw-substring containment; >= 7 tokens mirrors the engine's
        # k+2 interior-anchor contract (k=5 word shingles)
        "containment_pairs": r"""
            SELECT a.doc_id AS inner_id, b.doc_id AS outer_id
            FROM documents a JOIN documents b ON a.doc_id <> b.doc_id
            WHERE len(regexp_extract_all(lower(a.text), '\w+')) >= 7
              AND position(a.text IN b.text) > 0
        """,
        # exact pairs (same predicate as cosine_pairs) + min-label
        # transitive closure — the embedding-space flagship restated
        "embed_dup_clusters": """
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS a, b.vec_id AS b
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
            ), undirected AS (
                SELECT a AS u, b AS v FROM pairs
                UNION SELECT b, a FROM pairs
            ), reach(node, lbl) AS (
                SELECT u, u FROM undirected
                UNION
                SELECT e.v, r.lbl FROM reach r JOIN undirected e ON e.u = r.node
            ), comp AS (
                SELECT node, min(lbl) AS cluster FROM reach GROUP BY node
            )
            SELECT v.vec_id,
                   CAST(COALESCE(c.cluster, v.vec_id) AS UBIGINT) AS cluster_id
            FROM embeddings v LEFT JOIN comp c ON c.node = v.vec_id
        """,
        "window_agg": """
            SELECT user_id,
                   CAST(sum(1) AS BIGINT) AS n,
                   min(value) AS min_value,
                   max(value) AS max_value,
                   make_timestamp((epoch_us(ts) // 3600000000) * 3600000000) AS win_start
            FROM events
            GROUP BY user_id, win_start
        """,
        "sessionize": """
            WITH s AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS newsess
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            g AS (
                SELECT user_id, ts,
                       sum(newsess) OVER (
                           PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING
                       ) - 1 AS sid
                FROM s
            )
            SELECT user_id,
                   CAST(sid AS BIGINT) AS session_id,
                   min(ts) AS session_start,
                   max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM g GROUP BY user_id, sid
        """,
        "sessionize_str": """
            WITH e AS (
                SELECT 'u' || CAST(user_id AS VARCHAR) AS user_id, ts
                FROM events
            ),
            s AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS newsess
                FROM e
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            g AS (
                SELECT user_id, ts,
                       sum(newsess) OVER (
                           PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING
                       ) - 1 AS sid
                FROM s
            )
            SELECT user_id,
                   CAST(sid AS BIGINT) AS session_id,
                   min(ts) AS session_start,
                   max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM g GROUP BY user_id, sid
        """,
        # exact global window-rank semantics, integer ppm percentile
        "char_ranks": """
            SELECT doc_id, n_chars,
                   CAST(rank() OVER (ORDER BY n_chars) - 1 AS BIGINT) AS rank_lt,
                   CAST(count(*) OVER (PARTITION BY n_chars) AS BIGINT) AS n_eq,
                   CAST((rank() OVER (ORDER BY n_chars) - 1) * 1000000
                        // (count(*) OVER ()) AS BIGINT) AS pct_ppm
            FROM documents
        """,
        # strictly-increasing earliest-event funnel chain per user
        "funnel_counts": """
            WITH s0 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'signup' GROUP BY user_id
            ), s1 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s0 ON e.user_id = s0.user_id
                WHERE e.event_type = 'view' AND e.ts > s0.t
                GROUP BY e.user_id
            ), s2 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s1 ON e.user_id = s1.user_id
                WHERE e.event_type = 'click' AND e.ts > s1.t
                GROUP BY e.user_id
            ), s3 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s2 ON e.user_id = s2.user_id
                WHERE e.event_type = 'purchase' AND e.ts > s2.t
                GROUP BY e.user_id
            )
            SELECT CAST(0 AS BIGINT) AS step_idx, 'signup' AS step,
                   CAST(count(*) AS BIGINT) AS n_users FROM s0
            UNION ALL SELECT 1, 'view', count(*) FROM s1
            UNION ALL SELECT 2, 'click', count(*) FROM s2
            UNION ALL SELECT 3, 'purchase', count(*) FROM s3
        """,
        # daily active users: exact distinct per tumbling day window
        "window_distinct": """
            SELECT make_timestamp((epoch_us(ts) // 86400000000)
                                  * 86400000000) AS win_start,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY 1
        """,
        # TPC-H Q4 shape: EXISTS semi-join, counted per priority
        "order_priority_exists": """
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_returnflag = 'R')
            GROUP BY o.o_orderpriority
        """,
        # weekly retention triangle over distinct (user, week) activity
        "cohort_retention": """
            WITH p AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 604800000000 AS per
                FROM events
            ), c AS (
                SELECT user_id, min(per) AS cohort FROM p GROUP BY user_id
            )
            SELECT CAST(c.cohort AS BIGINT) AS cohort_period,
                   CAST(p.per - c.cohort AS BIGINT) AS offset_periods,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p JOIN c USING (user_id)
            GROUP BY c.cohort, p.per - c.cohort
        """,
        # 72h conversion window anchored at each user's step-0 time
        "funnel_windowed": """
            WITH s0 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'signup' GROUP BY user_id
            ), s1 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN s0 ON e.user_id = s0.user_id
                WHERE e.event_type = 'view' AND e.ts > s0.t
                  AND e.ts <= s0.t + INTERVAL 72 HOUR
                GROUP BY e.user_id
            ), s2 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e
                JOIN s1 ON e.user_id = s1.user_id
                JOIN s0 ON e.user_id = s0.user_id
                WHERE e.event_type = 'click' AND e.ts > s1.t
                  AND e.ts <= s0.t + INTERVAL 72 HOUR
                GROUP BY e.user_id
            ), s3 AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e
                JOIN s2 ON e.user_id = s2.user_id
                JOIN s0 ON e.user_id = s0.user_id
                WHERE e.event_type = 'purchase' AND e.ts > s2.t
                  AND e.ts <= s0.t + INTERVAL 72 HOUR
                GROUP BY e.user_id
            )
            SELECT CAST(0 AS BIGINT) AS step_idx, 'signup' AS step,
                   CAST(count(*) AS BIGINT) AS n_users FROM s0
            UNION ALL SELECT 1, 'view', count(*) FROM s1
            UNION ALL SELECT 2, 'click', count(*) FROM s2
            UNION ALL SELECT 3, 'purchase', count(*) FROM s3
        """,
        "hopping_window": """
            WITH ev AS (
                SELECT user_id, value, epoch_us(ts) AS tus FROM events
            ), w AS (
                SELECT user_id, value,
                       (tus // 900000000) * 900000000 - g.i * 900000000 AS win_us
                FROM ev CROSS JOIN (SELECT unnest(range(4)) AS i) g
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n,
                   min(value) AS min_value,
                   max(value) AS max_value,
                   make_timestamp(win_us) AS win_start
            FROM w GROUP BY user_id, win_us
        """,
        "asof_attrib": """
            SELECT e.event_id,
                   a.event_id AS anchor_id,
                   a.value AS anchor_value
            FROM events e
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') a
              ON e.user_id = a.user_id AND a.ts <= e.ts
        """,
        "purchase_window_pairs": """
            SELECT e.event_id, p.event_id AS anchor_id
            FROM events e
            JOIN events p
              ON e.user_id = p.user_id
             AND p.event_type = 'purchase'
             AND e.ts >= p.ts
             AND e.ts < p.ts + INTERVAL 30 MINUTE
        """,
        "top_tokens": r"""
            SELECT token, CAST(count(*) AS BIGINT) AS n FROM (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS token
                FROM documents
            ) GROUP BY token ORDER BY n DESC, token LIMIT 100
        """,
        "sample_hash": _sample_hash_oracle_sql(),
        "weighted_sample": _weighted_sample_oracle_sql(),
        "distinct_tokens": r"""
            SELECT CAST(count(DISTINCT token) AS BIGINT) AS n_distinct FROM (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS token
                FROM documents
            )
        """,
        "hll_registers": _HLL_ORACLE,
        "decontam_clean": _decontam_oracle_sql(),
        "near_decontam": _near_decontam_oracle_sql(),
        "near_decontam_join": _near_decontam_oracle_sql(),
        "near_contam_report": _near_contam_report_oracle_sql(),
        # verbatim-quote decontamination: raw-substring EXISTS
        "substring_decontam": """
            SELECT d.doc_id, d.source FROM documents d
            WHERE d.doc_id % 11 <> 0 AND NOT EXISTS (
                SELECT 1 FROM documents b
                WHERE b.doc_id % 11 = 0
                  AND b.text IS NOT NULL AND length(b.text) > 0
                  AND position(b.text IN d.text) > 0)
        """,
        "dedup_tiers": _tiers_oracle_sql(),
        "tier_budget_plan": _tier_budget_plan_oracle_sql(),
        "tier_summary": _tier_summary_oracle_sql(),
        "tier_source_summary": f"""
            WITH t AS ({_tiers_oracle_sql()})
            SELECT t.tier, d.source, CAST(count(*) AS BIGINT) AS n_docs
            FROM t JOIN documents d USING (doc_id)
            GROUP BY t.tier, d.source
        """,
        "tiers_incremental": _tiers_oracle_sql(),
        "dedup_tiers_semantic": _tiers_oracle_sql(semantic=True),
        "cap_per_domain": """
            SELECT doc_id, source FROM (
                SELECT doc_id, source,
                       row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
                FROM documents
            ) WHERE rn <= 10
        """,
        "segment_revenue": """
            SELECT c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS DOUBLE) / 100 AS revenue
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "nation_revenue": """
            SELECT n_name,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS DOUBLE) / 100 AS revenue
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "normalized_canonical": r"""
            WITH n AS (
                SELECT doc_id,
                       trim(regexp_replace(regexp_replace(
                           lower(text), '[^a-z0-9\s]+', '', 'g'),
                           '\s+', ' ', 'g'), ' ') AS tn
                FROM documents
            )
            SELECT min(doc_id) AS doc_id,
                   sha256(tn) AS digest,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM n WHERE tn IS NOT NULL AND length(tn) > 0
            GROUP BY sha256(tn)
        """,
        "length_quantiles": """
            SELECT source,
                   CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars)
                        AS BIGINT) AS q50,
                   CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars)
                        AS BIGINT) AS q90
            FROM documents GROUP BY source
        """,
        "stratified_sample": _stratified_sample_oracle_sql(),
        # tokenizer note: '[a-z0-9_]+' on lower() — see simhash oracle
        "repetition_stats": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9_]+') AS tk
                FROM documents
            ), uni AS (
                SELECT doc_id, tk, unnest(tk) AS t FROM toks
            ), ucnt AS (
                SELECT doc_id, t, count(*) AS c FROM uni GROUP BY doc_id, t
            ), ustat AS (
                SELECT doc_id, count(*) AS n_distinct_tokens,
                       max(c) AS top_token_n
                FROM ucnt GROUP BY doc_id
            ), big AS (
                SELECT doc_id,
                       [tk[i] || chr(31) || tk[i+1]
                        FOR i IN range(1, len(tk))] AS bg
                FROM toks WHERE len(tk) >= 2
            ), bgu AS (
                SELECT doc_id, unnest(bg) AS b FROM big
            ), bcnt AS (
                SELECT doc_id, b, count(*) AS c FROM bgu GROUP BY doc_id, b
            ), bstat AS (
                SELECT doc_id, sum(c) AS n_bigrams,
                       count(*) AS n_distinct_bigrams, max(c) AS top_bigram_n
                FROM bcnt GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(len(t.tk), 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(u.n_distinct_tokens, 0) AS BIGINT) AS n_distinct_tokens,
                   CAST(coalesce(u.top_token_n, 0) AS BIGINT) AS top_token_n,
                   CAST(coalesce(b.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(b.n_distinct_bigrams, 0) AS BIGINT) AS n_distinct_bigrams,
                   CAST(coalesce(b.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
            FROM documents d
            LEFT JOIN toks t USING (doc_id)
            LEFT JOIN ustat u USING (doc_id)
            LEFT JOIN bstat b USING (doc_id)
        """,
        "pii_redact": r"""
            WITH planted AS (
                SELECT doc_id,
                       substr(text, 1, 30) || ' user' || doc_id ||
                       '@mail.example.com or 10.0.0.' || (doc_id % 256) ||
                       ' call 555-123-4567 now' AS text
                FROM documents
            )
            SELECT doc_id, text,
                   CAST(len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                       AS BIGINT) AS n_email,
                   CAST(len(regexp_extract_all(text,
                       '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS BIGINT) AS n_ipv4,
                   CAST(len(regexp_extract_all(text,
                       '\b\d{3}-\d{3}-\d{4}\b')) AS BIGINT) AS n_phone,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                       '\b(?:\d{1,3}\.){3}\d{1,3}\b', '<IP>', 'g'),
                       '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g')
                       AS text_redacted
            FROM planted
        """,
        "props_k_stats": r"""
            WITH k AS (
                SELECT event_type,
                       CAST(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1)
                            AS BIGINT) AS k
                FROM events
            )
            SELECT event_type,
                   CAST(count(k) AS BIGINT) AS n,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(min(k) AS BIGINT) AS min_k,
                   CAST(max(k) AS BIGINT) AS max_k
            FROM k GROUP BY event_type
        """,
        "jsonl_roundtrip": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   sum(value) AS sum_value,
                   min(ts) AS min_ts,
                   max(ts) AS max_ts
            FROM events GROUP BY event_type
        """,
        "c4_clean": """
            WITH pages AS (
              SELECT doc_id,
                regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                regexp_replace(regexp_replace(
                  text,
                  ' big slow ', ' lorem ipsum ', 'g'),
                  ' small hash ', ' a { b ', 'g'),
                  ' vector ', ' javascript ', 'g'),
                  ' merge ', '.' || chr(10) || 'merge ', 'g'),
                  ' window ', '?' || chr(10) || 'window ', 'g'),
                  ' sort ', chr(10) || 'sort ', 'g') AS page_text
              FROM documents
            ), f AS (
              SELECT doc_id, page_text,
                CAST(len(string_split(page_text, chr(10))) AS BIGINT)
                  AS n_lines,
                list_filter(string_split(page_text, chr(10)), x ->
                  regexp_matches(x, '[.!?"]$')
                  AND len(string_split(x, ' ')) >= 5
                  AND NOT regexp_matches(x, '(?i)javascript')) AS kept
              FROM pages
            )
            SELECT doc_id,
                   array_to_string(kept, chr(10)) AS cleaned_text,
                   n_lines, CAST(len(kept) AS BIGINT) AS n_kept
            FROM f
            WHERE len(kept) >= 3 AND NOT contains(page_text, '{')
              AND NOT regexp_matches(page_text, '(?i)lorem ipsum')
        """,
        "blocklist_filter": r"""
            SELECT doc_id,
              CAST(len(regexp_extract_all(text, '\b(spark|vector|window)\b'))
                   AS BIGINT) AS n_hits,
              CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
              len(regexp_extract_all(text, '\b(spark|vector|window)\b')) * 100
                <= len(regexp_extract_all(text, '\S+')) * 5 AS keep
            FROM documents
        """,
        "quality_score": _quality_oracle_sql(),
        "gopher_rules": _gopher_oracle_sql(),
        "token_budget": _token_budget_oracle_sql(),
        "mix_budget": _mix_budget_oracle_sql(),
        "curated_corpus": _curated_corpus_oracle_sql(),
        "bloom_stats": _bloom_oracle_sql(),
        "cms_registers": _cms_oracle_sql(),
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(round(l_quantity)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_base_cents,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS sum_disc_e4,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))
                            * (100 + CAST(round(l_tax * 100) AS BIGINT)))
                        AS BIGINT) AS sum_charge_e6
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        # lines = 1-based 10-token list slices of string_split(text,' ')
        # (exactly stages/linededup._doc_lines); frequent = line string in
        # >=2 distinct docs; clean_text = kept chunks rejoined in order
        "line_dedup": """
            WITH split AS (
                SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS tk
                FROM documents
            ), lines AS (
                SELECT doc_id, li,
                       array_to_string(tk[li*10+1 : li*10+10], ' ') AS line
                FROM split,
                     LATERAL (SELECT unnest(generate_series(
                                  0, (len(tk)-1)//10)) AS li)
            ), freq AS (
                SELECT line FROM lines
                GROUP BY line HAVING count(DISTINCT doc_id) >= 2
            ), kept AS (
                SELECT doc_id, li, line FROM lines
                WHERE line NOT IN (SELECT line FROM freq)
            )
            SELECT s.doc_id,
                   CAST((len(s.tk)-1)//10 + 1 AS BIGINT) AS n_lines,
                   CAST((len(s.tk)-1)//10 + 1 - count(k.line)
                        AS BIGINT) AS n_removed,
                   COALESCE(string_agg(k.line, ' ' ORDER BY k.li), '')
                       AS clean_text
            FROM split s LEFT JOIN kept k ON s.doc_id = k.doc_id
            GROUP BY s.doc_id, len(s.tk)
        """,
        "host_boilerplate": """
            WITH split AS (
                SELECT doc_id, source,
                       string_split(COALESCE(text, ''), ' ') AS tk
                FROM documents
            ), lines AS (
                SELECT doc_id, source, li,
                       array_to_string(tk[li*10+1 : li*10+10], ' ') AS line
                FROM split,
                     LATERAL (SELECT unnest(generate_series(
                                  0, (len(tk)-1)//10)) AS li)
            ), freq AS (
                SELECT source, line FROM lines
                GROUP BY source, line HAVING count(DISTINCT doc_id) >= 2
            ), kept AS (
                SELECT l.doc_id, l.li, l.line FROM lines l
                WHERE NOT EXISTS (
                    SELECT 1 FROM freq f
                    WHERE f.source = l.source AND f.line = l.line
                )
            )
            SELECT s.doc_id,
                   CAST((len(s.tk)-1)//10 + 1 AS BIGINT) AS n_lines,
                   CAST((len(s.tk)-1)//10 + 1 - count(k.line)
                        AS BIGINT) AS n_removed,
                   COALESCE(string_agg(k.line, ' ' ORDER BY k.li), '')
                       AS clean_text
            FROM split s LEFT JOIN kept k ON s.doc_id = k.doc_id
            GROUP BY s.doc_id, len(s.tk)
        """,
        # shingle semantics = stages/ngram.shingle_set (see decontam
        # oracle): empty -> no shingles (doc absent), <k tokens -> one
        # whole-text shingle, else distinct k-windows
        "dup_ngram_coverage": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM documents WHERE text IS NOT NULL
            ), sh AS (
                SELECT doc_id,
                    CASE
                        WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
                        WHEN len(tk) < 8 THEN [array_to_string(tk, chr(31))]
                        ELSE list_distinct([array_to_string(tk[i:i+7], chr(31))
                                            FOR i IN range(1, len(tk) - 6)])
                    END AS grams
                FROM toks
            ), g AS (
                SELECT doc_id, unnest(grams) AS gr FROM sh
            ), dup AS (
                SELECT gr FROM g GROUP BY gr HAVING count(*) >= 2
            ), cnt AS (
                SELECT g.doc_id, count(*) AS n_dup
                FROM g JOIN dup USING (gr) GROUP BY g.doc_id
            )
            SELECT s.doc_id,
                   CAST(len(s.grams) AS BIGINT) AS n_grams,
                   CAST(coalesce(c.n_dup, 0) AS BIGINT) AS n_dup_grams
            FROM sh s LEFT JOIN cnt c USING (doc_id)
            WHERE len(s.grams) > 0
        """,
        "bucket_rename": """
            SELECT doc_id,
                   CASE WHEN source = 'src0' THEN 'src0_renamed' ELSE source END AS source
            FROM documents
        """,
        "bucket_remove": """
            SELECT doc_id, source FROM documents WHERE source <> 'src3'
        """,
        "multi_term_search": """
            SELECT t.term, d.doc_id
            FROM (SELECT unnest(['join', 'scan', 'window', 'zzzqqxx']) AS term) t
            CROSS JOIN documents d
            WHERE contains(d.text, t.term)
        """,
        "deletion_list_trunc": """
            WITH d AS (
                SELECT doc_id, sha256(substr(text, 1, 40)) AS dg
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ),
            g AS (SELECT dg, min(doc_id) AS canon FROM d GROUP BY dg)
            SELECT d.doc_id FROM d JOIN g USING (dg)
            WHERE d.doc_id <> g.canon
        """,
        "url_canonical_dups": "WITH " + _URL_DERIVE_CANON_SQL + """
            SELECT url_canon,
                   CAST(count(*) AS BIGINT) AS n_dups,
                   CAST(min(doc_id) AS BIGINT) AS keep_doc
            FROM canon GROUP BY url_canon
        """,
        "cluster_representatives": _cluster_representatives_oracle_sql(),
        "span_dedup": _SPAN_DEDUP_ORACLE,
        "domain_top_terms": "WITH " + _URL_DERIVE_CANON_SQL + r"""
            , hosts AS (
                SELECT doc_id,
                       regexp_replace(regexp_extract(url_canon,
                           '://([^/?#]*)', 1), ':\d+$', '') AS host
                FROM canon
            ), hostdom AS (
                SELECT doc_id,
                       coalesce(nullif(regexp_extract(host,
                           '([^.]+\.[^.]+)$', 1), ''), host) AS domain
                FROM hosts
            ), toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS tok
                FROM documents WHERE text IS NOT NULL
            ), c AS (
                SELECT h.domain, t.tok, count(*) AS n
                FROM toks t JOIN hostdom h USING (doc_id) GROUP BY 1, 2
            ), r AS (
                SELECT domain, tok, n,
                       row_number() OVER (
                           PARTITION BY domain
                           ORDER BY n DESC, tok ASC) AS rk
                FROM c
            )
            SELECT domain, tok AS token, CAST(n AS BIGINT) AS n
            FROM r WHERE rk <= 3
        """,
        "dedup_summary": f"""
            WITH clusters AS ({_near_dup_clusters_oracle_sql()}),
            sizes AS (
                SELECT cluster_id, count(*) AS n_docs
                FROM clusters GROUP BY cluster_id
            )
            SELECT CAST(n_docs AS BIGINT) AS cluster_size,
                   CAST(count(*) AS BIGINT) AS n_clusters,
                   CAST(n_docs * count(*) AS BIGINT) AS n_docs,
                   CAST((n_docs - 1) * count(*) AS BIGINT) AS n_removed
            FROM sizes GROUP BY n_docs
        """,
        "domain_stats": "WITH " + _URL_DERIVE_CANON_SQL + r"""
            , hosts AS (
                SELECT n_chars,
                       regexp_replace(regexp_extract(url_canon,
                           '://([^/?#]*)', 1), ':\d+$', '') AS host
                FROM canon
            )
            SELECT coalesce(nullif(regexp_extract(host,
                       '([^.]+\.[^.]+)$', 1), ''), host) AS domain,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(n_chars) AS BIGINT) AS total_bytes
            FROM hosts GROUP BY 1
        """,
        "sitemap_entries": "WITH " + _SITEMAP_LISTED_SQL + """
            SELECT host_id, loc, lastmod FROM listed
            UNION ALL
            SELECT host_id, loc, lastmod FROM phantoms
        """,
        "sitemap_coverage": "WITH " + _SITEMAP_LISTED_SQL + """
            , lst AS (
                SELECT host_id, loc FROM listed
                UNION ALL SELECT host_id, loc FROM phantoms
            ),
            crawled AS (
                SELECT CAST(d.doc_id % 20 AS BIGINT) AS host_id,
                       'https://host' || CAST(d.doc_id % 20 AS VARCHAR)
                           || '.example/p/' || CAST(d.doc_id AS VARCHAR)
                           AS url
                FROM documents d
            ),
            j AS (
                SELECT coalesce(l.host_id, c.host_id) AS host_id,
                       l.loc IS NOT NULL AS is_listed,
                       c.url IS NOT NULL AS is_crawled
                FROM lst l FULL OUTER JOIN crawled c ON l.loc = c.url
            )
            SELECT 'host' || CAST(host_id AS VARCHAR) || '.example' AS host,
                   CAST(count(*) FILTER (WHERE is_listed AND is_crawled)
                       AS BIGINT) AS n_both,
                   CAST(count(*) FILTER (WHERE is_listed AND NOT is_crawled)
                       AS BIGINT) AS n_listed_only,
                   CAST(count(*) FILTER (WHERE is_crawled AND NOT is_listed)
                       AS BIGINT) AS n_crawled_only,
                   CAST(count(*) FILTER (WHERE is_listed)
                       AS BIGINT) AS n_listed
            FROM j GROUP BY host_id
        """,
        "cluster_split": _cluster_split_oracle_sql(),
        "script_stats": _script_stats_oracle_sql(),
        "page_identity": """
            SELECT doc_id,
                   CAST(doc_id - doc_id % 12 AS BIGINT) AS cluster
            FROM documents
        """,
        "bucket_histogram": _bucket_histogram_oracle_sql(),
        "meta_refresh_chains": """
            SELECT doc_id AS id,
                   CAST(doc_id - doc_id % 4 AS BIGINT) AS root,
                   CAST(doc_id % 4 AS BIGINT) AS hops
            FROM documents
        """,
        "feed_links": """
            SELECT doc_id, 'rss' AS feed_type,
                   'https://host' || CAST(doc_id AS VARCHAR)
                       || '.example/feed.xml' AS href
            FROM documents WHERE doc_id % 3 = 0
            UNION ALL
            SELECT doc_id, 'atom' AS feed_type,
                   'https://host' || CAST(doc_id AS VARCHAR)
                       || '.example/atom' AS href
            FROM documents WHERE doc_id % 3 = 1
        """,
        "recrawl_queue": "WITH " + _SITEMAP_LISTED_SQL + """
            , caps AS (
                SELECT 'https://host' || CAST(doc_id % 20 AS VARCHAR)
                           || '.example/p/' || CAST(doc_id AS VARCHAR)
                           AS url,
                       '2026-07-' || lpad(CAST(doc_id % 14 + 1
                           AS VARCHAR), 2, '0') AS cap
                FROM documents
            ),
            l AS (
                SELECT loc, lastmod FROM listed
                UNION ALL SELECT loc, lastmod FROM phantoms
            ),
            j AS (
                SELECT l.loc, l.lastmod, c.cap
                FROM l LEFT JOIN caps c ON l.loc = c.url
            )
            SELECT loc,
                   CASE WHEN cap IS NULL THEN 'missing'
                        ELSE 'stale' END AS reason
            FROM j
            WHERE cap IS NULL
               OR (lastmod IS NOT NULL AND lastmod > cap)
        """,
        "cluster_agreement": rf"""
            WITH a AS ({_near_dup_clusters_oracle_sql()}),
            nn AS (
                SELECT doc_id,
                       trim(regexp_replace(regexp_replace(
                           lower(text), '[^a-z0-9\s]+', '', 'g'),
                           '\s+', ' ', 'g'), ' ') AS tn
                FROM documents
            ),
            b AS (
                SELECT doc_id,
                       CASE WHEN tn IS NULL OR length(tn) = 0
                            THEN doc_id
                            ELSE min(doc_id) OVER (PARTITION BY tn)
                       END AS cb
                FROM nn
            ),
            j AS (
                SELECT a.cluster_id AS ca, b.cb, count(*) AS n
                FROM a JOIN b ON a.doc_id = b.doc_id GROUP BY 1, 2
            ),
            pb AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v FROM j),
            ma AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v
                   FROM (SELECT sum(n) AS n FROM j GROUP BY ca)),
            mb AS (SELECT coalesce(sum(n * (n - 1) // 2), 0) AS v
                   FROM (SELECT sum(n) AS n FROM j GROUP BY cb))
            SELECT CAST(ma.v AS BIGINT) AS pairs_a,
                   CAST(mb.v AS BIGINT) AS pairs_b,
                   CAST(pb.v AS BIGINT) AS pairs_both,
                   CAST(CASE WHEN ma.v > 0
                        THEN pb.v * 1000000 // ma.v ELSE 0 END AS BIGINT)
                       AS containment_a_ppm,
                   CAST(CASE WHEN mb.v > 0
                        THEN pb.v * 1000000 // mb.v ELSE 0 END AS BIGINT)
                       AS containment_b_ppm,
                   CAST(CASE WHEN ma.v + mb.v - pb.v > 0
                        THEN pb.v * 1000000 // (ma.v + mb.v - pb.v)
                        ELSE 0 END AS BIGINT) AS jaccard_ppm
            FROM pb, ma, mb
        """,
        "source_dup_stats": f"""
            WITH clusters AS ({_near_dup_clusters_oracle_sql()}),
            sizes AS (
                SELECT cluster_id, count(*) AS n
                FROM clusters GROUP BY cluster_id
            ),
            flags AS (
                SELECT c.doc_id, (s.n > 1) AS is_dup
                FROM clusters c JOIN sizes s
                  ON c.cluster_id = s.cluster_id
            )
            SELECT d.source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (WHERE f.is_dup) AS BIGINT)
                       AS n_dup_docs,
                   CAST(count(*) FILTER (WHERE f.is_dup) * 1000000
                       // count(*) AS BIGINT) AS dup_ppm
            FROM documents d JOIN flags f ON d.doc_id = f.doc_id
            GROUP BY d.source
        """,
        "sitemap_resolve": """
            SELECT CAST(doc_id % 20 AS BIGINT) AS host_id,
                   'https://host' || CAST(doc_id % 20 AS VARCHAR)
                       || '.example/p/' || CAST(doc_id AS VARCHAR) AS loc
            FROM documents
        """,
        "sitemap_discovery": """
            WITH h AS (SELECT unnest(range(20)) AS h)
            SELECT CAST(h AS BIGINT) AS host_id,
                   'https://host' || CAST(h AS VARCHAR)
                       || '.example/sitemap.xml' AS sitemap_url
            FROM h
            UNION ALL
            SELECT CAST(h AS BIGINT) AS host_id,
                   'https://host' || CAST(h AS VARCHAR)
                       || '.example/news-sitemap.xml' AS sitemap_url
            FROM h WHERE h % 3 = 0
        """,
    }
