"""Decontamination: drop corpus documents sharing any word-k-gram with a
blocklist corpus (benchmark test sets, held-out evals).

The standard training-data hygiene op (C4/Dolma-style n-gram overlap
removal); engine-new — the reference dedups within one corpus only.
Shingle semantics are exactly ``stages/ngram.shingle_set`` (lowercased
``[a-z0-9_]+`` tokens, unit-separator-joined k-windows, whole-text
shingle for <k-token docs, no shingles for empty docs ⇒ empty docs are
never contaminated), hashed with the SQL-restatable md5-u64 family so
the driver can value-oracle the result.

Two strategies, mirroring near_dedup's verify switch:

- ``broadcast`` (default): the blocklist's distinct shingle hashes are
  collected, sorted, ``ray.put`` once, and every corpus batch runs a
  vectorized ``searchsorted`` membership test — ONE streaming pass over
  the corpus, no shuffle. Right for real decontamination: test sets are
  MBs while the corpus is TBs (~8 bytes per distinct blocklist shingle
  in every worker's plasma view).
- ``join``: corpus (shingle, id) rows shuffle against blocklist shingle
  rows via the cogroup join; contaminated ids come back tiny and filter
  the corpus by broadcast. For blocklists too big to hold in memory.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.functions.hashing import hash_str_u64
from dupers_ray.stages.ngram import shingle_set

_US = "\x1f"


def _shingle_hashes(texts: list[str | None], k: int) -> list[np.ndarray]:
    """Per-doc DISTINCT shingle hashes (uint64)."""
    out = []
    for t in texts:
        grams = sorted(_US.join(g) for g in shingle_set(t or "", k))
        out.append(
            hash_str_u64(grams) if grams else np.empty(0, np.uint64)
        )
    return out


def blocklist_shingles(
    blocklist: "ray.data.Dataset", *, text_col: str = "text", k: int = 5,
) -> np.ndarray:
    """Sorted distinct shingle hashes of the blocklist corpus (driver-side
    array — the blocklist is the SMALL side by contract)."""

    def per_batch(t: pa.Table) -> pa.Table:
        hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
        u = np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
        return pa.table({"sh": pa.array(u)})

    parts = blocklist.map_batches(per_batch, batch_format="pyarrow",
                                  zero_copy_batch=True).take_all()
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.array([r["sh"] for r in parts], dtype=np.uint64))


def decontaminate(
    docs: "ray.data.Dataset",
    blocklist: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    strategy: str = "broadcast",
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Return ``docs`` minus every document sharing ≥1 k-gram shingle with
    ``blocklist`` (columns pass through unchanged)."""
    if strategy == "broadcast":
        ref = ray.put(blocklist_shingles(blocklist, text_col=text_col, k=k))

        def clean(t: pa.Table) -> pa.Table:
            block = ray.get(ref)
            hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
            keep = np.fromiter(
                (
                    not (
                        len(h)
                        and np.any(
                            block[
                                np.searchsorted(block, h).clip(0, len(block) - 1)
                            ]
                            == h
                        )
                    )
                    if len(block)
                    else True
                    for h in hs
                ),
                bool,
                len(hs),
            )
            return t.filter(pa.array(keep))

        return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)

    if strategy == "join":
        from dupers_ray.pipelines.joins import cogroup_join

        def corpus_shingles(t: pa.Table) -> pa.Table:
            ids = np.asarray(t.column(id_col), dtype=np.int64)
            hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
            counts = np.fromiter((len(h) for h in hs), np.int64, len(hs))
            sh = (np.concatenate(hs) if len(hs) else np.empty(0, np.uint64))
            return pa.table(
                {
                    # int64 view: uint64 keys above 2^63 fall into Ray's
                    # pickled-object path (BASELINE.md notes)
                    "sh": pa.array(sh.view(np.int64)),
                    id_col: pa.array(np.repeat(ids, counts)),
                }
            )

        def block_shingles(t: pa.Table) -> pa.Table:
            hs = _shingle_hashes(t.column(text_col).to_pylist(), k)
            u = np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
            return pa.table({"sh": pa.array(u.view(np.int64))})

        cs = docs.map_batches(corpus_shingles, batch_format="pyarrow",
                              zero_copy_batch=True)
        bs = blocklist.map_batches(block_shingles, batch_format="pyarrow",
                                   zero_copy_batch=True)
        hits = cogroup_join(
            cs, bs, on="sh", num_partitions=num_partitions,
            left_schema=pa.schema([("sh", pa.int64()), (id_col, pa.int64())]),
            right_schema=pa.schema([("sh", pa.int64())]),
        )
        hdf = hits.select_columns([id_col]).to_pandas()
        bad = (
            np.unique(hdf[id_col].to_numpy(np.int64))
            if len(hdf) else np.empty(0, np.int64)
        )
        bad_ref = ray.put(bad)

        def drop(t: pa.Table) -> pa.Table:
            b = ray.get(bad_ref)
            ids = np.asarray(t.column(id_col), dtype=np.int64)
            if not len(b):
                return t
            pos = np.searchsorted(b, ids).clip(0, len(b) - 1)
            return t.filter(pa.array(b[pos] != ids))

        return docs.map_batches(drop, batch_format="pyarrow", zero_copy_batch=True)

    raise ValueError(f"unknown strategy {strategy!r}")


def near_decontaminate(
    docs: "ray.data.Dataset",
    blocklist: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle=None,
    minhash=None,
    threshold: float | None = None,
    strategy: str = "broadcast",
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """NEAR-dup decontamination: drop corpus documents whose
    MinHash-estimated Jaccard similarity to ANY blocklist document reaches
    ``threshold`` (default: the config's ``jaccard_threshold``). The
    n-gram-overlap :func:`decontaminate` catches verbatim leakage; this
    catches paraphrased / lightly-edited test-set leakage the same way the
    flagship catches near-dups within one corpus.

    strategy="broadcast" (default — the blocklist is the SMALL side by
    contract; test sets are MBs while the corpus is TBs): the blocklist's
    signatures, LSH band keys and uint16 signature folds are computed
    once, sorted, and broadcast via ``ray.put``; the corpus then takes
    ONE streaming pass (fused signature + band-probe + fold-verify per
    batch, no shuffle, nothing materialized).

    strategy="join" (blocklists too big to hold in worker memory): both
    sides' band rows (17 B each) shuffle into band-hash buckets; a
    vectorized per-partition merge emits cross-side candidate pairs, and
    ``verify_pairs`` settles them with the SAME uint16-fold rule — the two
    strategies produce identical drop sets by construction (pytest-equal).

    Semantics mirror the flagship exactly (stages/minhash OPH signatures,
    band hashes, uint16-fold verify), so the driver restates the whole
    thing in SQL on top of the flagship oracle's signature pipeline.

    Docs with no shingles (empty/token-less) are never contaminated and
    pass through — matching the exact-shingle variant's contract.
    """
    from dupers_ray.config import MinHashConfig, ShingleConfig
    from dupers_ray.functions.arrowview import binary_matrix
    from dupers_ray.functions.hashing import mix_rows_u64
    from dupers_ray.pipelines.near_dedup import minhash_signatures
    from dupers_ray.stages.minhash import MinHasher

    shingle = shingle or ShingleConfig()
    minhash = minhash or MinHashConfig()
    thr = minhash.jaccard_threshold if threshold is None else threshold
    bands, rows = minhash.bands, minhash.rows

    if strategy == "join":
        return _near_decontaminate_join(
            docs, blocklist, id_col=id_col, text_col=text_col,
            shingle=shingle, minhash=minhash, thr=thr,
            num_partitions=num_partitions,
        )
    if strategy != "broadcast":
        raise ValueError(f"unknown strategy {strategy!r}")

    def band_hashes(sig_mat: np.ndarray) -> np.ndarray:
        """(n, bands) uint64 — the exact explode_bands mixing rule, so a
        corpus band collides with a blocklist band iff the sharded index /
        banded-groupby paths would co-bucket them."""
        d = sig_mat.shape[0]
        m = sig_mat.reshape(d, bands, rows).astype(np.uint64)
        out = np.empty((d, bands), np.uint64)
        with np.errstate(over="ignore"):
            for b in range(bands):
                out[:, b] = mix_rows_u64(m[:, b, :] + np.uint64(b + 1))
        return out

    bl_parts = (
        minhash_signatures(
            blocklist, shingle=shingle, minhash=minhash,
            id_col=id_col, text_col=text_col,
        )
        .select_columns(["sig"])
        .take_all()
    )
    if bl_parts:
        bl_sig = np.frombuffer(
            b"".join(r["sig"] for r in bl_parts), dtype="<u4"
        ).reshape(len(bl_parts), minhash.num_perm)
        keys = band_hashes(bl_sig).reshape(-1)
        rows_of_key = np.repeat(
            np.arange(len(bl_parts), dtype=np.int64), bands
        )
        order = np.argsort(keys, kind="stable")
        state = (
            keys[order],
            rows_of_key[order],
            (bl_sig & np.uint32(0xFFFF)).astype(np.uint16),
        )
    else:
        state = (
            np.empty(0, np.uint64), np.empty(0, np.int64),
            np.empty((0, minhash.num_perm), np.uint16),
        )
    ref = ray.put(state)

    def clean(t: pa.Table) -> pa.Table:
        keys_s, rows_s, bl_f16 = ray.get(ref)
        if not len(keys_s) or not len(t):
            return t
        key = ("near_decontam", shingle, minhash)
        mh = _NEAR_CACHE.get(key)
        if mh is None:
            mh = MinHasher(shingle=shingle, minhash=minhash,
                           id_col=id_col, text_col=text_col)
            _NEAR_CACHE[key] = mh
        sig, n_sh = mh.signatures(t.column(text_col))
        if not sig.shape[0]:
            return t
        q = band_hashes(sig).reshape(-1)
        lo = np.searchsorted(keys_s, q, side="left")
        hi = np.searchsorted(keys_s, q, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if not total:
            return t
        # expand every (query band, matching blocklist row) hit
        within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        cand_pos = np.repeat(lo, cnt) + within
        cand_doc = np.repeat(np.arange(len(q)) // bands, cnt)
        cand_bl = rows_s[cand_pos]
        # dedup (doc, blocklist row) before the fold compare
        pair = np.unique(cand_doc.astype(np.uint64) * np.uint64(len(bl_f16))
                         + cand_bl.astype(np.uint64))
        cand_doc = (pair // np.uint64(len(bl_f16))).astype(np.int64)
        cand_bl = (pair % np.uint64(len(bl_f16))).astype(np.int64)
        f16 = (sig & np.uint32(0xFFFF)).astype(np.uint16)
        agree = (f16[cand_doc] == bl_f16[cand_bl]).mean(axis=1)
        contaminated = np.unique(cand_doc[agree >= thr])
        keep = np.ones(len(t), bool)
        keep[np.flatnonzero(n_sh > 0)[contaminated]] = False
        return t.filter(pa.array(keep))

    return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


def substring_decontaminate(
    docs: "ray.data.Dataset",
    blocklist: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle=None,
) -> "ray.data.Dataset":
    """VERBATIM-QUOTE decontamination: drop corpus docs whose text CONTAINS
    any blocklist document's full text as a raw substring — the leakage
    mode where an eval item is quoted inside a larger page, which both
    whole-doc digests and symmetric-Jaccard near-dedup can miss (the
    cross-corpus cut of stages/containment's Lee-et-al-2022 operator;
    exactly SQL ``EXISTS position(b.text IN d.text) > 0``).

    Blocklist small-side contract: its texts plus one interior-min-anchor
    gram per text broadcast once. The corpus streams: per batch, distinct
    shingle-gram membership against the anchor set selects candidates
    (100 % recall for blocklist texts with ≥ k+2 tokens — the containment
    anchor guarantee), then a raw ``in`` check verifies. Blocklist texts
    too short for an interior anchor are verified directly with a
    vectorized ``match_substring`` pass each (few by contract; counted).
    Empty/null blocklist texts never contaminate (SQL length(b.text) > 0
    guard)."""
    from dupers_ray.config import MinHashConfig, ShingleConfig
    from dupers_ray.stages.minhash import MinHasher

    shingle = shingle or ShingleConfig()
    mh0 = MinHasher(shingle=shingle, minhash=MinHashConfig(),
                    id_col=id_col, text_col=text_col)
    bl_col = blocklist.select_columns([text_col]).to_pandas()[text_col]
    bl_texts = [t for t in bl_col.tolist() if t]
    if bl_texts:
        flat, offs = mh0._shingle_hashes(bl_texts)
        seg_len = np.diff(offs)
        nonempty = seg_len > 0
        masked = flat.copy()
        masked[offs[:-1][nonempty]] = np.uint64(0xFFFFFFFFFFFFFFFF)
        masked[(offs[1:] - 1)[nonempty]] = np.uint64(0xFFFFFFFFFFFFFFFF)
        if nonempty.any():
            mins = np.minimum.reduceat(masked, offs[:-1][nonempty])
            eligible = seg_len[nonempty] >= 3  # >= 1 interior window
            anchor_vals = mins[eligible]
            anchored = np.flatnonzero(nonempty)[eligible]
        else:
            anchor_vals = np.empty(0, np.uint64)
            anchored = np.empty(0, np.int64)
        order = np.argsort(anchor_vals, kind="stable")
        shorts = tuple(
            bl_texts[i] for i in
            sorted(set(range(len(bl_texts))) - set(anchored.tolist()))
        )
        state = (anchor_vals[order], anchored[order],
                 tuple(bl_texts), shorts)
    else:
        state = None
    ref = ray.put(state)

    def clean(t: pa.Table) -> pa.Table:
        st = ray.get(ref)
        if st is None or not len(t):
            return t
        anchors_s, owners_s, texts_bl, shorts = st
        key = ("substr_decontam", shingle)
        mh = _NEAR_CACHE.get(key)
        if mh is None:
            from dupers_ray.config import MinHashConfig as _M
            mh = MinHasher(shingle=shingle, minhash=_M(),
                           id_col=id_col, text_col=text_col)
            _NEAR_CACHE[key] = mh
        texts = [s if s is not None else ""
                 for s in t.column(text_col).to_pylist()]
        drop = np.zeros(len(t), bool)
        # anchored blocklist texts: gram membership -> raw-in verify
        if len(anchors_s):
            flat_, offs_ = mh._shingle_hashes(t.column(text_col))
            if flat_.size:
                doc_of = np.repeat(np.arange(len(texts)), np.diff(offs_))
                lo = np.searchsorted(anchors_s, flat_, side="left")
                hi = np.searchsorted(anchors_s, flat_, side="right")
                cnt = hi - lo
                total = int(cnt.sum())
                if total:
                    within = (np.arange(total)
                              - np.repeat(np.cumsum(cnt) - cnt, cnt))
                    pos = np.repeat(lo, cnt) + within
                    cand_doc = np.repeat(doc_of, cnt)
                    cand_bl = owners_s[pos]
                    pair = np.unique(
                        cand_doc.astype(np.uint64)
                        * np.uint64(len(texts_bl))
                        + cand_bl.astype(np.uint64)
                    )
                    for p in pair:
                        d = int(p // len(texts_bl))
                        b = int(p % len(texts_bl))
                        if not drop[d] and texts_bl[b] in texts[d]:
                            drop[d] = True
        # short blocklist texts: direct vectorized literal match each
        if shorts:
            import pyarrow.compute as pc

            col = t.column(text_col)
            for s in shorts:
                m = pc.fill_null(pc.match_substring(col, s), False)
                drop |= m.to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~drop))

    return docs.map_batches(clean, batch_format="pyarrow",
                            zero_copy_batch=True)


def near_contamination_report(
    docs: "ray.data.Dataset",
    blocklist: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle=None,
    minhash=None,
    threshold: float | None = None,
) -> "ray.data.Dataset":
    """Contamination AUDIT: every (corpus doc, blocklist doc) pair that
    :func:`near_decontaminate` would act on, with the integer uint16-fold
    agreement count ``n_agree`` (out of num_perm) — the evidence trail a
    dataset card needs, not just the drop. Same broadcast shape as the
    filter: blocklist state ships once, the corpus streams, no shuffle.
    Output: (id_col, block_id, n_agree), pairs with
    n_agree/num_perm >= threshold only."""
    from dupers_ray.config import MinHashConfig, ShingleConfig
    from dupers_ray.functions.hashing import mix_rows_u64
    from dupers_ray.pipelines.near_dedup import minhash_signatures
    from dupers_ray.stages.minhash import MinHasher

    shingle = shingle or ShingleConfig()
    minhash = minhash or MinHashConfig()
    thr = minhash.jaccard_threshold if threshold is None else threshold
    bands, rows = minhash.bands, minhash.rows
    num_perm = minhash.num_perm

    def band_hashes(sig_mat: np.ndarray) -> np.ndarray:
        d = sig_mat.shape[0]
        m = sig_mat.reshape(d, bands, rows).astype(np.uint64)
        out = np.empty((d, bands), np.uint64)
        with np.errstate(over="ignore"):
            for b in range(bands):
                out[:, b] = mix_rows_u64(m[:, b, :] + np.uint64(b + 1))
        return out

    bl_df = minhash_signatures(
        blocklist, shingle=shingle, minhash=minhash,
        id_col=id_col, text_col=text_col,
    ).select_columns([id_col, "sig"]).to_pandas()

    def empty() -> pa.Table:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "block_id": pa.array([], pa.int64()),
            "n_agree": pa.array([], pa.int64()),
        })

    if len(bl_df):
        bl_sig = np.frombuffer(
            b"".join(bl_df["sig"]), dtype="<u4"
        ).reshape(len(bl_df), num_perm)
        keys = band_hashes(bl_sig).reshape(-1)
        rows_of_key = np.repeat(np.arange(len(bl_df), dtype=np.int64), bands)
        order = np.argsort(keys, kind="stable")
        state = (
            keys[order], rows_of_key[order],
            (bl_sig & np.uint32(0xFFFF)).astype(np.uint16),
            bl_df[id_col].to_numpy(),
        )
    else:
        state = None
    ref = ray.put(state)

    def report(t: pa.Table) -> pa.Table:
        st = ray.get(ref)
        if st is None or not len(t):
            return empty()
        keys_s, rows_s, bl_f16, bl_ids = st
        key = ("near_decontam", shingle, minhash)
        mh = _NEAR_CACHE.get(key)
        if mh is None:
            mh = MinHasher(shingle=shingle, minhash=minhash,
                           id_col=id_col, text_col=text_col)
            _NEAR_CACHE[key] = mh
        sig, n_sh = mh.signatures(t.column(text_col))
        if not sig.shape[0]:
            return empty()
        ids = t.column(id_col).to_numpy(zero_copy_only=False)[n_sh > 0]
        q = band_hashes(sig).reshape(-1)
        lo = np.searchsorted(keys_s, q, side="left")
        hi = np.searchsorted(keys_s, q, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if not total:
            return empty()
        within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        cand_pos = np.repeat(lo, cnt) + within
        cand_doc = np.repeat(np.arange(len(q)) // bands, cnt)
        cand_bl = rows_s[cand_pos]
        pair = np.unique(cand_doc.astype(np.uint64) * np.uint64(len(bl_f16))
                         + cand_bl.astype(np.uint64))
        cand_doc = (pair // np.uint64(len(bl_f16))).astype(np.int64)
        cand_bl = (pair % np.uint64(len(bl_f16))).astype(np.int64)
        f16 = (sig & np.uint32(0xFFFF)).astype(np.uint16)
        n_agree = (f16[cand_doc] == bl_f16[cand_bl]).sum(axis=1).astype(np.int64)
        keep = (n_agree / num_perm) >= thr
        return pa.table({
            id_col: pa.array(ids[cand_doc[keep]]),
            "block_id": pa.array(bl_ids[cand_bl[keep]]),
            "n_agree": pa.array(n_agree[keep]),
        })

    return docs.map_batches(report, batch_format="pyarrow",
                            zero_copy_batch=True)


def _near_decontaminate_join(
    docs, blocklist, *, id_col, text_col, shingle, minhash, thr,
    num_partitions,
):
    """Shuffle path of :func:`near_decontaminate` — see its docstring."""
    import dataclasses

    import pyarrow.compute as pc

    from dupers_ray.functions.hashing import node_ids
    from dupers_ray.pipelines.near_dedup import (
        minhash_signatures,
        verify_pairs,
    )
    from dupers_ray.stages.minhash import explode_bands

    csigs = minhash_signatures(
        docs.select_columns([id_col, text_col]),
        shingle=shingle, minhash=minhash, id_col=id_col, text_col=text_col,
    ).materialize()  # consumed by banding AND verify
    bsigs = minhash_signatures(
        blocklist.select_columns([id_col, text_col]),
        shingle=shingle, minhash=minhash, id_col=id_col, text_col=text_col,
    ).materialize()

    def band_rows(side: int):
        def f(t: pa.Table) -> pa.Table:
            b = explode_bands(
                t, bands=minhash.bands, rows=minhash.rows, id_col=id_col
            )
            return pa.table({
                "band_hash": b.column("band_hash"),
                "node": b.column("node"),
                "side": pa.array(np.full(len(b), side, np.int8)),
            })
        return f

    both = csigs.map_batches(
        band_rows(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(bsigs.map_batches(
        band_rows(1), batch_format="pyarrow", zero_copy_batch=True
    ))

    def cross(g: pa.Table) -> pa.Table:
        is_b = pc.equal(g.column("side"), 1)

        def end(mask, name: str) -> pa.Table:
            return g.filter(mask).select(["band_hash", "node"]).rename_columns(
                ["band_hash", name])

        # per-bucket cross join, then the distinct pairs
        m = end(pc.invert(is_b), "src").join(end(is_b, "dst"), "band_hash",
                                              join_type="inner")
        return m.select(["src", "dst"]).group_by(["src", "dst"]).aggregate([])

    pairs = keyed_partition_map_groups(
        both, "band_hash", cross, num_partitions=num_partitions
    )
    vcfg = dataclasses.replace(minhash, jaccard_threshold=thr)
    verified = verify_pairs(pairs, csigs.union(bsigs), minhash=vcfg)
    bad_df = verified.select_columns(["src"]).to_pandas()
    bad_nodes = np.sort(np.unique(
        bad_df["src"].to_numpy(dtype=np.uint64)
    )) if len(bad_df) else np.empty(0, np.uint64)
    ref = ray.put(bad_nodes)

    def drop(t: pa.Table) -> pa.Table:
        nr = ray.get(ref)
        if not len(nr) or not len(t):
            return t
        nodes = node_ids([str(v) for v in t.column(id_col).to_pylist()])
        pos = np.searchsorted(nr, nodes).clip(0, len(nr) - 1)
        return t.filter(pa.array(nr[pos] != nodes))

    return docs.map_batches(drop, batch_format="pyarrow", zero_copy_batch=True)


_NEAR_CACHE: dict = {}
