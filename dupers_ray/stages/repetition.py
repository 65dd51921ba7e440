"""Repetition analysis: within-document repetition signals and
cross-document duplicate n-gram coverage.

Two standard curation measurements over web text (both engine-new; the
reference dedups whole files only):

- :func:`repetition_stats` — Gopher-style within-doc repetition: how
  concentrated are a doc's tokens/bigrams on their most frequent value?
  Emitted as INTEGER numerators/denominators (count columns) so the
  driver oracle hash-compares exactly; callers derive the fractions.
- :func:`dup_ngram_coverage` — the Lee-et-al-style cross-doc duplicate
  passage measure: per doc, how many of its distinct word-k-grams occur
  in at least one OTHER document. Shingle semantics are exactly
  ``stages/ngram.shingle_set`` (SQL-restatable md5-u64 hash family), so
  the coverage counts carry a full value oracle.

Scale shape of ``dup_ngram_coverage``: ONE shingling pass emits one
(gram_hash, doc_id, n_grams) row per DISTINCT gram per doc; the gram
groupby marks each row shared/unshared; a per-batch combiner collapses
the marked rows to per-doc partials before the second (doc-keyed)
groupby. Two shuffles of shingle-count-sized rows, no joins, no driver
materialization, shingles computed exactly once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import (
    keyed_partition_map_groups,
    partitioned_aggregate,
)
from dupers_ray.stages.textstats import _TOKEN_RE


def repetition_stats(
    batch: pa.Table, *, id_col: str = "doc_id", text_col: str = "text",
) -> pa.Table:
    """Per-doc repetition numerators/denominators:

    - ``n_tokens`` / ``n_distinct_tokens`` / ``top_token_n``
    - ``n_bigrams`` / ``n_distinct_bigrams`` / ``top_bigram_n``

    Fractions (Gopher's top-2-gram fraction etc.) are
    ``top_bigram_n / n_bigrams`` — left to the caller to keep the
    columns integer-exact. Null/empty text → all zeros."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    out = {k: np.zeros(n, np.int64) for k in (
        "n_tokens", "n_distinct_tokens", "top_token_n",
        "n_bigrams", "n_distinct_bigrams", "top_bigram_n",
    )}
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = _TOKEN_RE.findall(t.lower())
        if not toks:
            continue
        tc = Counter(toks)
        out["n_tokens"][i] = len(toks)
        out["n_distinct_tokens"][i] = len(tc)
        out["top_token_n"][i] = tc.most_common(1)[0][1]
        if len(toks) >= 2:
            bc = Counter(zip(toks, toks[1:]))
            out["n_bigrams"][i] = len(toks) - 1
            out["n_distinct_bigrams"][i] = len(bc)
            out["top_bigram_n"][i] = bc.most_common(1)[0][1]
    cols = {id_col: batch.column(id_col)}
    cols.update({k: pa.array(v) for k, v in out.items()})
    return pa.table(cols)


_GRAM_PARTITIONS = 256


def dup_ngram_coverage(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
) -> "ray.data.Dataset":
    """Per doc with >=1 shingle: ``n_grams`` (distinct word-k-gram
    shingles) and ``n_dup_grams`` (those shared with >=1 other doc).
    Shingle-less docs (empty/null text) have no coverage to measure and
    are absent from the output."""
    from dupers_ray.pipelines.decontam import _shingle_hashes

    def shingle_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
        counts = np.fromiter((len(h) for h in hs), np.int64, len(hs))
        sh = np.concatenate(hs) if len(hs) else np.empty(0, np.uint64)
        return pa.table(
            {
                # int64 view: uint64 groupby keys above 2^63 fall into
                # Ray's pickled-object path (BASELINE.md notes)
                "gram": pa.array(sh.view(np.int64)),
                id_col: pa.array(np.repeat(ids, counts)),
                "n_grams": pa.array(np.repeat(counts, counts)),
            }
        )

    gram_rows = docs.map_batches(
        shingle_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    # partition by gram-hash range, NOT by distinct gram: map_groups on
    # the raw gram key costs one Python group-call per DISTINCT gram —
    # ~10^8 calls on a 600k-page corpus (measured pathological). The
    # _GRAM_PARTITIONS-way partition resolves each group with ONE
    # vectorized sort + reduceat pass instead (grams never split across
    # partitions, so per-partition run-length counts are globally exact).
    def tag_shared_part(g: pa.Table) -> pa.Table:
        gr = np.asarray(g.column("gram"), dtype=np.int64)
        ids = np.asarray(g.column(id_col), dtype=np.int64)
        ng = np.asarray(g.column("n_grams"), dtype=np.int64)
        order = np.argsort(gr, kind="stable")
        gs = gr[order]
        new = np.r_[True, gs[1:] != gs[:-1]] if len(gs) else np.empty(0, bool)
        idx = np.flatnonzero(new)
        counts = np.diff(np.r_[idx, len(gs)])
        shared_sorted = np.repeat((counts >= 2).astype(np.int64), counts)
        shared = np.empty(len(gs), np.int64)
        shared[order] = shared_sorted
        # per-doc partial within the partition (n_grams is constant per
        # doc — any occurrence carries it)
        u, first, inv = np.unique(ids, return_index=True, return_inverse=True)
        return pa.table({
            id_col: pa.array(u),
            "n_grams": pa.array(ng[first]),
            "shared": pa.array(np.bincount(inv, weights=shared).astype(np.int64)),
        })

    tagged = keyed_partition_map_groups(
        gram_rows, "gram", tag_shared_part,
        num_partitions=_GRAM_PARTITIONS,
    )
    # per-doc fold of the <=_GRAM_PARTITIONS partials/doc: hash-partitioned
    # reduce, not Ray's sort-based aggregate — the doc key is unbounded
    # (~150M partial rows at 600k docs; VERDICT r4 item 3)
    out = partitioned_aggregate(
        tagged, id_col, sums=("shared",), maxs=("n_grams",)
    )
    return out.map_batches(
        lambda t: t.select([id_col, "n_grams", "shared"]).rename_columns(
            [id_col, "n_grams", "n_dup_grams"]
        ),
        batch_format="pyarrow",
    )


def content_novelty(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
    sample_ppm: int = 1_000_000,
    salt: int = 0,
) -> "ray.data.Dataset":
    """Per-doc content novelty in arrival order: ``n_novel`` of the
    doc's ``n_grams`` distinct word-k-gram shingles appear in NO
    earlier document (arrival = ascending ``id_col``; at crawl scale
    the key is (warc_ts, id) — same convention as first_publishers).
    The streaming-dedup question this answers: how much genuinely new
    content does each page (or, aggregated, each crawl batch) add?

    Same scale shape as :func:`dup_ngram_coverage` — one shingle
    combiner pass, a (gram, doc) 16 B-row shuffle where each gram group
    partition resolves min-id owners in one vectorized pass, then
    one per-doc sum; text bytes never shuffle, nothing broadcasts.
    Shingle-less docs are absent from the output (same contract).

    ``sample_ppm`` (default 10^6 = exact) hash-Bernoulli-samples the GRAM
    key — ``splitmix64(gram_hash ^ salt) % 10^6 < sample_ppm`` — before
    the shuffle, so the 100-TB estimate costs sample_ppm/10^6 of the
    exact all-gram exchange. Because the predicate is on the gram key, a
    kept gram is kept in EVERY document: its min-id owner (the novelty
    label) is computed exactly, and sampling only subsamples WHICH grams
    are counted — n_novel/n_grams is an unbiased per-doc ratio estimate.
    n_grams reports the SAMPLED gram count; docs whose every gram is
    sampled out drop from the output (the shingle-less contract). The
    whole chain (md5-u64 gram hash → splitmix64 → mod threshold) is
    SQL-restatable, so the sampled variant carries a full value oracle."""
    from dupers_ray.functions.hashing import splitmix64
    from dupers_ray.pipelines.decontam import _shingle_hashes

    def shingle_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
        counts = np.fromiter((len(h) for h in hs), np.int64, len(hs))
        sh = np.concatenate(hs) if len(hs) else np.empty(0, np.uint64)
        doc_idx = np.repeat(np.arange(len(hs), dtype=np.int64), counts)
        keep = (
            splitmix64(sh ^ np.uint64(salt)) % np.uint64(1_000_000)
        ) < np.uint64(sample_ppm)
        sh, doc_idx = sh[keep], doc_idx[keep]
        counts = np.bincount(doc_idx, minlength=len(hs)).astype(np.int64)
        return pa.table(
            {
                "gram": pa.array(sh.view(np.int64)),
                id_col: pa.array(ids[doc_idx]),
                "n_grams": pa.array(counts[doc_idx]),
            }
        )

    gram_rows = docs.map_batches(
        shingle_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    # partition by gram-hash range (see dup_ngram_coverage: per-distinct-
    # gram map_groups is one Python call per gram — pathological at web
    # scale); each partition resolves min-id owners in one sort+reduceat
    def tag_novel_part(g: pa.Table) -> pa.Table:
        gr = np.asarray(g.column("gram"), dtype=np.int64)
        ids = np.asarray(g.column(id_col), dtype=np.int64)
        ng = np.asarray(g.column("n_grams"), dtype=np.int64)
        order = np.argsort(gr, kind="stable")
        gs, ds_ = gr[order], ids[order]
        new = np.r_[True, gs[1:] != gs[:-1]] if len(gs) else np.empty(0, bool)
        idx = np.flatnonzero(new)
        counts = np.diff(np.r_[idx, len(gs)])
        owners = (
            np.minimum.reduceat(ds_, idx) if len(idx)
            else np.empty(0, np.int64)
        )
        novel_sorted = (ds_ == np.repeat(owners, counts)).astype(np.int64)
        novel = np.empty(len(gs), np.int64)
        novel[order] = novel_sorted
        u, first, inv = np.unique(ids, return_index=True, return_inverse=True)
        return pa.table({
            id_col: pa.array(u),
            "n_grams": pa.array(ng[first]),
            "novel": pa.array(np.bincount(inv, weights=novel).astype(np.int64)),
        })

    tagged = keyed_partition_map_groups(
        gram_rows, "gram", tag_novel_part,
        num_partitions=_GRAM_PARTITIONS,
    )
    # hash-partitioned per-doc fold (see dup_ngram_coverage)
    out = partitioned_aggregate(
        tagged, id_col, sums=("novel",), maxs=("n_grams",)
    )
    return out.map_batches(
        lambda t: t.select([id_col, "n_grams", "novel"]).rename_columns(
            [id_col, "n_grams", "n_novel"]
        ),
        batch_format="pyarrow",
    )


def novelty_by_key(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    key_col: str = "source",
    k: int = 8,
    sample_ppm: int = 1_000_000,
    salt: int = 0,
) -> "ray.data.Dataset":
    """Per-``key_col`` content-novelty rollup: (key, n_docs, sum_grams,
    sum_novel) — "which sources still add new content, which only
    recirculate" (the crawl-budget question). Composes
    :func:`content_novelty` with one cogroup join back to the key
    column (16 B id rows both sides, text never moves) and a
    driver-side fold of per-batch key partials (key cardinality is
    mixing-config-bounded, the same contract as temperature mixing)."""
    import pandas as pd

    from dupers_ray.pipelines.joins import cogroup_join

    nov = content_novelty(
        docs, id_col=id_col, text_col=text_col, k=k,
        sample_ppm=sample_ppm, salt=salt,
    )
    keys = docs.select_columns([id_col, key_col])
    nov_schema = pa.schema([
        (id_col, pa.int64()), ("n_grams", pa.int64()), ("n_novel", pa.int64()),
    ])
    key_schema = pa.schema([(id_col, pa.int64()), (key_col, pa.string())])
    joined = cogroup_join(
        nov, keys, on=id_col,
        left_schema=nov_schema, right_schema=key_schema,
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([key_col]).aggregate(
            [([], "count_all"), ("n_grams", "sum"), ("n_novel", "sum")]
        )
        return g.rename_columns([key_col, "n_docs", "sum_grams", "sum_novel"])

    parts = joined.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    out = (
        parts.groupby(key_col, as_index=False)[
            ["n_docs", "sum_grams", "sum_novel"]
        ].sum().sort_values(key_col).reset_index(drop=True)
    )
    return ray.data.from_pandas(out)
