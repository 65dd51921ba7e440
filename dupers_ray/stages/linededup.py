"""Cross-document line-level boilerplate removal (CCNet-style).

Web corpora repeat whole lines across pages (nav bars, cookie banners,
license footers); CCNet-style curation drops any line that occurs in at
least ``min_docs`` distinct documents. Engine-new — the reference
(bengarrett/dupers) dedups whole files only (pkg/dupe/dupe.go:919-931);
this is the sub-document analogue its digest index cannot express.

The corpus tables carry single-line text, so a "line" here is a fixed
``tokens_per_line``-token chunk of the single-space-split token stream —
deterministic and exactly restatable in SQL (``string_split(text, ' ')``
+ 1-based list slices), which gives the driver query a FULL value oracle
on the cleaned text itself.

Scale shape (two streaming passes, no joins):

1. :func:`frequent_lines` — per-batch combiner: chunk + hash each doc's
   lines (md5-u64, the SQL-restatable family), distinct within doc,
   ``np.unique``-count within batch, emit (line_hash, n_docs) rows. One
   small groupby of pre-combined count rows (docs never split across
   rows, so batch-level distinct-doc counts SUM to the global distinct
   count); the ``>= min_docs`` survivors are the boilerplate set — tiny
   by construction (8 B per frequent line on the driver).
2. :func:`remove_duplicate_lines` — the frequent set is ``ray.put``
   once; every corpus batch re-chunks, tests membership with one
   vectorized ``searchsorted``, and rejoins the kept chunks. ONE
   streaming corpus pass, no shuffle of text bytes.

Hash collisions (md5-u64 across distinct line strings) could remove a
rare line aliasing a frequent one — birthday-bound ~1e-9 even at 10^10
distinct lines per batch-count; the SQL oracle compares exact strings,
so a collision would surface as a driver mismatch rather than hide.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.functions.hashing import hash_str_u64


def _doc_lines(
    texts: list[str | None], tokens_per_line: int
) -> list[list[str]]:
    """Per-doc chunk strings. Split on a SINGLE space (SQL
    ``string_split(text, ' ')`` parity — not ``str.split()``, which
    collapses runs); empty/null text yields the one-element [''] list,
    exactly as SQL does."""
    w = tokens_per_line
    out = []
    for t in texts:
        toks = (t or "").split(" ")
        out.append(
            [" ".join(toks[i: i + w]) for i in range(0, len(toks), w)]
        )
    return out


def _line_hashes(lines: list[list[str]]) -> list[np.ndarray]:
    """Per-doc DISTINCT chunk hashes (uint64, sorted by np.unique)."""
    return [
        np.unique(hash_str_u64(ls)) if ls else np.empty(0, np.uint64)
        for ls in lines
    ]


def frequent_lines(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    tokens_per_line: int = 10,
    min_docs: int = 2,
) -> np.ndarray:
    """Sorted uint64 hashes of every line occurring in >= ``min_docs``
    distinct documents. Driver-side array — bounded by the boilerplate
    set, not the corpus; raise ``min_docs`` if a corpus's repeated-line
    tail is too fat to hold."""

    def per_batch(t: pa.Table) -> pa.Table:
        hs = _line_hashes(
            _doc_lines(t.column(text_col).to_pylist(), tokens_per_line)
        )
        flat = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        u, n = np.unique(flat, return_counts=True)
        return pa.table(
            {
                # int64 view: uint64 groupby keys above 2^63 fall into
                # Ray's pickled-object path (BASELINE.md notes)
                "lh": pa.array(u.view(np.int64)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    freq = _partitioned_count_filter(
        docs.map_batches(
            per_batch, batch_format="pyarrow", zero_copy_batch=True
        ),
        min_docs=min_docs,
    )
    if not len(freq):
        return np.empty(0, np.uint64)
    return np.sort(freq["lh"].to_numpy(np.int64).view(np.uint64))


def _partitioned_count_filter(
    partials: "ray.data.Dataset", *, min_docs: int
) -> "pd.DataFrame":  # noqa: F821 (pandas via to_pandas)
    """Global per-hash count over per-batch (lh, n) partials WITHOUT a
    global sort: hash-partition on lh (equal keys co-locate), sum per key
    with one argsort+reduceat per partition, and filter ``>= min_docs``
    IN-PARTITION — only the frequent survivors (the tiny boilerplate set)
    ever leave the cluster. Replaces ``groupby("lh").aggregate(Sum)``,
    whose sort-based AllToAll dominated wall time at 13M distinct chunks
    (round-3 verdict #6; same fix as functions/grouping.py)."""
    from dupers_ray.functions.grouping import keyed_partition_map_groups

    def reduce_part(g: pa.Table) -> pa.Table:
        h = g.column("lh").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs, ns = h[order], n[order]
        idx = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]]) if len(hs) else \
            np.empty(0, np.int64)
        tot = np.add.reduceat(ns, idx) if len(idx) else np.empty(0, np.int64)
        keep = tot >= min_docs
        return pa.table({"lh": pa.array(hs[idx][keep], pa.int64())})

    return keyed_partition_map_groups(
        partials, "lh", reduce_part
    ).to_pandas()


def frequent_lines_by_key(
    docs: "ray.data.Dataset",
    *,
    key_col: str = "source",
    text_col: str = "text",
    tokens_per_line: int = 10,
    min_docs: int = 2,
) -> np.ndarray:
    """Per-HOST frequent lines: sorted uint64 hashes of every
    (key, line) pair where the line occurs in >= ``min_docs`` distinct
    documents OF THE SAME ``key_col`` value (host/domain/source).

    The pair is folded into ONE u64 — ``hash(key + \\x1e + line)`` — so
    the frequent set stays a single sorted array (same broadcast shape,
    searchsorted membership and collision bound as the global
    :func:`frequent_lines`); no per-host dict, no string keys in the
    groupby. The \\x1e separator cannot occur in the single-space token
    chunks, so distinct (key, line) pairs map to distinct preimages."""

    def per_batch(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        lines = _doc_lines(t.column(text_col).to_pylist(), tokens_per_line)
        per_doc = [
            np.unique(hash_str_u64([f"{k}\x1e{ln}" for ln in ls]))
            if ls else np.empty(0, np.uint64)
            for k, ls in zip(keys, lines)
        ]
        flat = (
            np.concatenate(per_doc) if per_doc else np.empty(0, np.uint64)
        )
        u, n = np.unique(flat, return_counts=True)
        return pa.table(
            {
                "lh": pa.array(u.view(np.int64)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    freq = _partitioned_count_filter(
        docs.map_batches(
            per_batch, batch_format="pyarrow", zero_copy_batch=True
        ),
        min_docs=min_docs,
    )
    if not len(freq):
        return np.empty(0, np.uint64)
    return np.sort(freq["lh"].to_numpy(np.int64).view(np.uint64))


def remove_host_boilerplate(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    key_col: str = "source",
    tokens_per_line: int = 10,
    min_docs: int = 2,
) -> "ray.data.Dataset":
    """Host-scoped boilerplate removal: drop a line from a page only when
    it repeats across >= ``min_docs`` documents of the SAME host — nav
    bars and footers are per-site templates, and host scoping keeps a
    sentence legitimately shared across different sites (a quote, a
    spec) intact where the global :func:`remove_duplicate_lines` would
    strip it. Engine-new vs the reference (whole-file digests only,
    pkg/dupe/dupe.go:919-931); the per-host refinement of CCNet-style
    line dedup. Output per doc: (id, n_lines, n_removed, clean_text)."""
    freq = frequent_lines_by_key(
        docs, key_col=key_col, text_col=text_col,
        tokens_per_line=tokens_per_line, min_docs=min_docs,
    )
    ref = ray.put(freq)

    def clean(t: pa.Table) -> pa.Table:
        block = ray.get(ref)
        keys = t.column(key_col).to_pylist()
        lines = _doc_lines(t.column(text_col).to_pylist(), tokens_per_line)
        n_lines = np.fromiter((len(ls) for ls in lines), np.int64, len(lines))
        n_removed = np.zeros(len(lines), np.int64)
        texts = []
        for i, (k, ls) in enumerate(zip(keys, lines)):
            if len(block) and ls:
                h = hash_str_u64([f"{k}\x1e{ln}" for ln in ls])
                pos = np.searchsorted(block, h).clip(0, len(block) - 1)
                drop = block[pos] == h
                n_removed[i] = int(drop.sum())
                texts.append(
                    " ".join(s for s, d in zip(ls, drop) if not d)
                )
            else:
                texts.append(" ".join(ls))
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_lines": pa.array(n_lines),
                "n_removed": pa.array(n_removed),
                "clean_text": pa.array(texts, pa.string()),
            }
        )

    return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


def remove_duplicate_lines(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    tokens_per_line: int = 10,
    min_docs: int = 2,
) -> "ray.data.Dataset":
    """Per doc: ``n_lines``, ``n_removed`` and ``clean_text`` with every
    cross-document frequent line dropped (kept chunks rejoined with a
    single space, preserving order)."""
    freq = frequent_lines(
        docs, text_col=text_col,
        tokens_per_line=tokens_per_line, min_docs=min_docs,
    )
    ref = ray.put(freq)

    def clean(t: pa.Table) -> pa.Table:
        block = ray.get(ref)
        lines = _doc_lines(t.column(text_col).to_pylist(), tokens_per_line)
        n_lines = np.fromiter((len(ls) for ls in lines), np.int64, len(lines))
        n_removed = np.zeros(len(lines), np.int64)
        texts = []
        for i, ls in enumerate(lines):
            if len(block) and ls:
                h = hash_str_u64(ls)
                pos = np.searchsorted(block, h).clip(0, len(block) - 1)
                drop = block[pos] == h
                n_removed[i] = int(drop.sum())
                texts.append(
                    " ".join(s for s, d in zip(ls, drop) if not d)
                )
            else:
                texts.append(" ".join(ls))
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_lines": pa.array(n_lines),
                "n_removed": pa.array(n_removed),
                "clean_text": pa.array(texts, pa.string()),
            }
        )

    return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# First-occurrence paragraph dedup (Dolma / MassiveText style)
# ---------------------------------------------------------------------------

_LI_BITS = 20  # chunk index packs into the low 20 bits of the winner key


def _flat_chunks(
    t: pa.Table, *, id_col: str, text_col: str, tokens_per_line: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[str]]]:
    """Flatten a batch into parallel (doc_id, chunk_idx, chunk_hash)
    arrays plus the per-doc chunk strings. ``chunk_idx`` is 0-based
    within the doc; every doc yields >= 1 chunk (empty text -> ['']),
    matching the SQL lateral-unnest shape."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    lines = _doc_lines(t.column(text_col).to_pylist(), tokens_per_line)
    lens = np.fromiter((len(ls) for ls in lines), np.int64, len(lines))
    doc = np.repeat(ids, lens)
    # 0..len-1 within each doc: global arange minus each doc's start
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    li = np.arange(int(lens.sum()), dtype=np.int64) - starts
    flat = [s for ls in lines for s in ls]
    h = hash_str_u64(flat) if flat else np.empty(0, np.uint64)
    return doc, li, h, lines


def duplicated_paragraph_winners(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    tokens_per_line: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """For every chunk string occurring MORE THAN ONCE corpus-wide
    (across or within docs), the (sorted hashes, winner keys) pair where
    the winner is the minimal ``(doc_id, chunk_idx)`` occurrence packed
    as ``doc_id << 20 | chunk_idx``.

    Scale shape: ONE combiner pass (per-batch min-winner + count per
    hash via argsort + reduceat — 24 B/chunk rows leave the scan, text
    bytes never shuffle) -> hash-partitioned (Min, Sum) reduce -> only the
    DUPLICATED chunks (count > 1) come back to the driver; singleton
    chunks — the overwhelming mass of a web corpus — never leave the
    cluster. The packed winner bounds doc_id < 2^43 at 20 index bits;
    at trillion-doc scale widen to a two-column (min doc, then min idx
    within that doc) cascade — the groupby shape is unchanged.

    Collision bound: an md5-u64 alias between distinct chunk strings
    could drop a unique chunk; the SQL oracle compares exact strings, so
    a collision surfaces as a driver mismatch rather than hiding
    (same contract as :func:`frequent_lines`)."""
    def per_batch(t: pa.Table) -> pa.Table:
        doc, li, h, _ = _flat_chunks(
            t, id_col=id_col, text_col=text_col,
            tokens_per_line=tokens_per_line,
        )
        packed = (doc << _LI_BITS) | li
        order = np.argsort(h, kind="stable")
        hs, ps = h[order], packed[order]
        new = np.r_[True, hs[1:] != hs[:-1]] if len(hs) else np.empty(0, bool)
        idx = np.flatnonzero(new)
        counts = np.diff(np.r_[idx, len(hs)])
        mins = (
            np.minimum.reduceat(ps, idx) if len(idx) else np.empty(0, np.int64)
        )
        return pa.table({
            "lh": pa.array(hs[idx].view(np.int64)),
            "mp": pa.array(mins),
            "n": pa.array(counts.astype(np.int64)),
        })

    from dupers_ray.functions.grouping import keyed_partition_map_groups

    def reduce_part(g: pa.Table) -> pa.Table:
        # per-partition exact (min winner, total count) per hash — equal
        # hashes co-locate, so the >1 filter is globally correct and only
        # DUPLICATED chunks leave the partition (verdict r3 #6: replaces
        # the sort-based groupby(Min, Sum) AllToAll over 13M rows)
        h = g.column("lh").to_numpy(zero_copy_only=False)
        p = g.column("mp").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs, ps, ns = h[order], p[order], n[order]
        idx = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]]) if len(hs) else \
            np.empty(0, np.int64)
        if len(idx):
            tot = np.add.reduceat(ns, idx)
            mins = np.minimum.reduceat(ps, idx)
        else:
            tot = mins = np.empty(0, np.int64)
        keep = tot > 1
        return pa.table({
            "lh": pa.array(hs[idx][keep], pa.int64()),
            "mp": pa.array(mins[keep], pa.int64()),
        })

    dup = keyed_partition_map_groups(
        docs.map_batches(
            per_batch, batch_format="pyarrow", zero_copy_batch=True
        ),
        "lh", reduce_part,
    ).to_pandas()
    if not len(dup):
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    h = dup["lh"].to_numpy(np.int64).view(np.uint64)
    mp = dup["mp"].to_numpy(np.int64)
    order = np.argsort(h)
    return h[order], mp[order]


def dedup_paragraphs_first(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    tokens_per_line: int = 10,
) -> "ray.data.Dataset":
    """Dolma/MassiveText-style first-occurrence paragraph dedup: every
    repeated chunk keeps ONLY its earliest occurrence (min doc_id, then
    min position) and later copies are cut from their documents.

    Distinct from :func:`remove_duplicate_lines` (CCNet boilerplate:
    frequent lines are dropped EVERYWHERE): here exactly one copy
    survives, so quoted-once content keeps its original attribution —
    the sub-document analogue of keep-earliest file dedup
    (pkg/dupe/dupe.go:919-931 dedups whole files, never spans).

    Output per doc: (id, n_lines, n_removed, clean_text); kept chunks
    rejoin with single spaces in original order. Two streaming passes
    over the corpus, only the duplicated-chunk winner table (16 B/dup
    chunk) is broadcast."""
    dup_h, winners = duplicated_paragraph_winners(
        docs, id_col=id_col, text_col=text_col,
        tokens_per_line=tokens_per_line,
    )
    ref = ray.put((dup_h, winners))

    def clean(t: pa.Table) -> pa.Table:
        block, win = ray.get(ref)
        doc, li, h, lines = _flat_chunks(
            t, id_col=id_col, text_col=text_col,
            tokens_per_line=tokens_per_line,
        )
        if len(block) and len(h):
            pos = np.searchsorted(block, h).clip(0, len(block) - 1)
            isdup = block[pos] == h
            packed = (doc << _LI_BITS) | li
            drop = isdup & (win[pos] != packed)
        else:
            drop = np.zeros(len(h), bool)
        n_lines = np.fromiter((len(ls) for ls in lines), np.int64, len(lines))
        texts, n_removed, off = [], np.zeros(len(lines), np.int64), 0
        for i, ls in enumerate(lines):
            d = drop[off: off + len(ls)]
            off += len(ls)
            n_removed[i] = int(d.sum())
            texts.append(" ".join(s for s, dd in zip(ls, d) if not dd))
        return pa.table({
            id_col: t.column(id_col),
            "n_lines": pa.array(n_lines),
            "n_removed": pa.array(n_removed),
            "clean_text": pa.array(texts, pa.string()),
        })

    return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)
