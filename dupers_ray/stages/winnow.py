"""Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
SIGMOD 2003 — the MOSS algorithm).

Selects a position-robust SUBSET of each document's k-gram hashes: slide
a window of ``w`` consecutive gram hashes over the document and record
the minimum of each window (rightmost occurrence on ties), deduplicating
repeated selections. The guarantee (paper §3): any substring match of at
least ``w + k - 1`` tokens between two documents shares at least one
selected fingerprint, while only ~``2/(w+1)`` of grams are kept — a
storage/recall dial the full k-gram set (stages/ngram.py) and the
MinHash sketch (stages/minhash.py) don't offer: winnowing keeps POSITIONS
(so matches can be located and extended), MinHash keeps only set shape.

Reference analogue: dupers' per-file checksum bucket is the degenerate
whole-file fingerprint (pkg/dupe/parse/parse.go:217-231); winnowing is
the sub-document generalization used for plagiarism/overlap detection.

Gram hashes reuse the EXACT contract of the MinHash shingle pipeline so
one SQL restatement covers both: md5-u64 token hashes (functions/hashing
.hash_str_u64), k=5 rolling polynomial with multiplier ``minhash._POLY``,
splitmix64 finalizer. Docs with fewer than ``k`` tokens emit no
fingerprints (no gram exists); docs with ``1 <= m < w`` grams emit
exactly one (the whole gram sequence is treated as the single window).

Everything is batch-vectorized: one rolling pass over the flattened
token-hash array, one ``sliding_window_view`` + reversed ``argmin`` for
the rightmost-minimum selection; windows that would cross document
boundaries are masked out, never computed per doc.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.functions.hashing import hash_str_u64, splitmix64
from dupers_ray.functions.pairs import segment_pairs
from dupers_ray.stages.minhash import _POLY
from dupers_ray.stages.textstats import flat_tokens

DEFAULT_K = 5  # tokens per gram — same as ShingleConfig.k
DEFAULT_W = 4  # grams per winnowing window -> guarantee t = w + k - 1 = 8


def _gram_hashes(
    col: pa.ChunkedArray | pa.Array, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(flat gram-hash uint64, doc index per gram, 1-based gram position
    per gram, n_docs). Grams never cross documents; docs with < k tokens
    contribute none."""
    flat, parent, n = flat_tokens(col)
    if not len(flat):
        e64 = np.empty(0, np.uint64)
        ei = np.empty(0, np.int64)
        return e64, ei, ei.copy(), n
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    tok_h = hash_str_u64(enc.dictionary.to_pylist())[codes]
    n_tok = len(tok_h)
    if n_tok < k:
        e64 = np.empty(0, np.uint64)
        ei = np.empty(0, np.int64)
        return e64, ei, ei.copy(), n
    nw = n_tok - k + 1
    with np.errstate(over="ignore"):
        acc = tok_h[:nw].copy()
        for j in range(1, k):
            acc *= _POLY
            acc += tok_h[j : j + nw]
    valid = parent[:nw] == parent[k - 1 :]
    gh = splitmix64(acc[valid])
    gram_doc = parent[:nw][valid]
    # token position of the gram start, relative to its doc (1-based)
    counts = np.bincount(parent, minlength=n).astype(np.int64)
    doc_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat_idx = np.nonzero(valid)[0]
    gram_pos = flat_idx - doc_starts[gram_doc] + 1
    return gh, gram_doc, gram_pos, n


def _select_winnow(gh: np.ndarray, gram_doc: np.ndarray, w: int) -> np.ndarray:
    """Indices (into the flat gram arrays) of the winnowing-selected
    grams: rightmost minimum of every in-document window of ``w`` grams,
    whole-segment window for docs with fewer than ``w`` grams; distinct."""
    g = len(gh)
    if g == 0:
        return np.empty(0, np.int64)
    sel: list[np.ndarray] = []
    if g >= w:
        wins = np.lib.stride_tricks.sliding_window_view(gh, w)
        starts = np.arange(g - w + 1, dtype=np.int64)
        ok = gram_doc[starts] == gram_doc[starts + w - 1]
        if ok.any():
            # rightmost argmin: argmin of the reversed window
            ridx = (w - 1) - np.argmin(wins[ok, ::-1], axis=1)
            sel.append(starts[ok] + ridx)
    # docs whose whole gram segment is shorter than w: one window = segment
    # (vectorized rightmost-min over all short segments at once — a tiny-doc
    # heavy web batch must not fall back to per-doc Python; round-3 ADVICE)
    counts_g = np.bincount(gram_doc)
    short_docs = np.nonzero((counts_g > 0) & (counts_g < w))[0]
    if short_docs.size:
        seg_starts = np.concatenate(([0], np.cumsum(counts_g)[:-1]))
        s = seg_starts[short_docs]
        m = counts_g[short_docs]
        seg_off = np.cumsum(m) - m  # segment starts within the flat view
        flat = np.repeat(s, m) + (np.arange(int(m.sum())) - np.repeat(seg_off, m))
        vals = gh[flat]
        segmin = np.minimum.reduceat(vals, seg_off)
        is_min = vals == np.repeat(segmin, m)
        # rightmost minimum = max flat index among the per-segment minima
        sel.append(
            np.maximum.reduceat(np.where(is_min, flat, -1), seg_off).astype(np.int64)
        )
    if not sel:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(sel))


def winnow_matches(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = DEFAULT_K,
    w: int = DEFAULT_W,
    min_shared: int = 2,
    max_bucket: int = 4096,
    n_parts: int = 256,
):
    """MOSS match ranking: (src_id, dst_id, n_shared) for unordered doc
    pairs sharing >= ``min_shared`` DISTINCT selected gram values.

    Scale shape — text never leaves the first pass:
    1. one streaming winnowing pass -> distinct (gram, doc) rows
       (~2/(w+1) of the gram count, 16 B/row),
    2. ONE groupby on a gram-hash partition; within a gram's holder set emit all
       unordered doc pairs, hot grams capped at ``max_bucket`` holders
       (drops logged, never silent — boilerplate grams that survive
       winnowing are exactly the hot-key skew the cap bounds),
    3. ONE groupby on a pair-hash partition; count duplicate pair rows
       (= shared distinct grams) and threshold.
    Mirrors containment.py's anchor-gram design; unlike MinHash the score
    is an exact set-intersection count over the winnowed subset."""
    import ray.data  # noqa: F401  (Dataset ops on ds)

    fp_kwargs = {"id_col": id_col, "text_col": text_col, "k": k, "w": w}

    def prep(batch: pa.Table) -> pa.Table:
        t = winnow_fingerprints(batch, **fp_kwargs)
        doc = np.asarray(t.column(id_col), dtype=np.int64)
        gram = np.asarray(t.column("gram"), dtype=np.uint64)
        # a gram value selected at several positions of one doc counts once;
        # each doc lives in exactly one batch, so per-batch dedup is global
        key = np.stack([gram.view(np.int64), doc], axis=1)
        key = np.unique(key, axis=0)
        return pa.table({"gram": pa.array(key[:, 0]), "doc": pa.array(key[:, 1])})

    def emit_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
            }
        )
        if not g.num_rows:
            return empty
        gram = np.asarray(g.column("gram"), dtype=np.int64)
        doc = np.asarray(g.column("doc"), dtype=np.int64)
        order = np.lexsort((doc, gram))
        gram, doc = gram[order], doc[order]
        ii, jj, over, mx = segment_pairs(gram, max_bucket=max_bucket)
        if over:
            logger.warning(
                "winnow_matches: %d hot gram buckets capped at %d holders "
                "(max %d held)",
                over, max_bucket, mx,
            )
        if not len(ii):
            return empty
        a = doc[ii]
        b = doc[jj]
        return pa.table(
            {
                "src": pa.array(np.minimum(a, b)),
                "dst": pa.array(np.maximum(a, b)),
            }
        )

    def count_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src_id": pa.array([], pa.int64()),
                "dst_id": pa.array([], pa.int64()),
                "n_shared": pa.array([], pa.int64()),
            }
        )
        if not g.num_rows:
            return empty
        src = np.asarray(g.column("src"), dtype=np.int64)
        dst = np.asarray(g.column("dst"), dtype=np.int64)
        key = np.stack([src, dst], axis=1)
        uniq, cnt = np.unique(key, axis=0, return_counts=True)
        keep = cnt >= min_shared
        return pa.table(
            {
                "src_id": pa.array(uniq[keep, 0]),
                "dst_id": pa.array(uniq[keep, 1]),
                "n_shared": pa.array(cnt[keep].astype(np.int64)),
            }
        )

    pairs = keyed_partition_map_groups(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "gram", emit_pairs, num_partitions=n_parts,
    )
    return keyed_partition_map_groups(
        pairs, ["src", "dst"], count_pairs,
        num_partitions=n_parts,
    )


def winnow_fingerprints(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = DEFAULT_K,
    w: int = DEFAULT_W,
) -> pa.Table:
    """map_batches kernel: (id, text) -> one row per selected fingerprint
    (id, pos = 1-based token position of the gram start, gram = uint64
    gram hash). Grams are per-document, so the kernel is exact under any
    batching/partitioning — no cross-batch state."""
    gh, gram_doc, gram_pos, _ = _gram_hashes(batch.column(text_col), k)
    sel = _select_winnow(gh, gram_doc, w)
    ids = batch.column(id_col).take(pa.array(gram_doc[sel], pa.int64()))
    return pa.table(
        {
            id_col: ids,
            "pos": pa.array(gram_pos[sel], pa.int64()),
            "gram": pa.array(gh[sel], pa.uint64()),
        }
    )
