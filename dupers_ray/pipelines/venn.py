"""Dedup-method Venn: which duplicates does each method catch?

The tier cascade (pipelines/tiers.py) attributes every duplicate to the
FIRST tier that catches it — by design it cannot say how much the
methods overlap. This report runs the doc-level dedup methods
INDEPENDENTLY and histograms their per-doc flag masks, answering the
questions a pipeline owner tunes tiers with: how much of near-dup is
already exact? what does simhash add over MinHash/LSH? is normalized
dedup worth its scan?

Per-method "flagged" semantics (keep-first; a doc is flagged iff the
method alone would drop it):

- ``exact``  (bit 1): another doc with identical text has a smaller id
  (sha256 groups over non-empty text — pkg/dupe/dupe.go:919-931
  lookupOne semantics with min-id as the kept copy).
- ``norm``   (bit 2): same rule over C4-normalized text
  (stages/normalize.py; empty-after-normalization docs are skipped,
  matching the digest stage's ErrFileEmpty parity).
- ``near``   (bit 4): the flagship MinHash/LSH cluster assignment
  (pipelines/dupe.dupe_clusters, default config — LSH-verified edges
  UNIONED with exact-digest edges, so this bit largely subsumes bit 1;
  the mask histogram QUANTIFIES that subsumption) labels the doc with a
  cluster id other than its own node — i.e. it is not its cluster's
  min-node anchor.
- ``simhash``(bit 8): the doc is the larger-node end of >= 1 Charikar
  simhash pair at hamming <= 3 (stages/simhash.py pigeonhole bands).

Scale shape: each method's flagged set is (id, bit) rows — 12 B/doc and
only for DUPLICATED docs, the small side of a web corpus by mass; the
union → groupby(id).sum(bit) shuffle moves those rows only (never text),
and the mask histogram is <= 16 rows. The simhash dst-node set rides the
driver like every pair output (pairs, not corpus, bounded); swap for a
cogroup join if a corpus's dup density explodes it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.functions.hashing import node_ids

EXACT_BIT = 1
NORM_BIT = 2
NEAR_BIT = 4
SIMHASH_BIT = 8


def _flag_table(
    ids: pa.Array | pa.ChunkedArray, bit: int, *, id_col: str = "doc_id"
) -> pa.Table:
    n = len(ids)
    return pa.table({
        id_col: ids,
        "bit": pa.array(np.full(n, bit, np.int64)),
    })


def _node_col(t: pa.Table, id_col: str) -> np.ndarray:
    return node_ids([str(v) for v in t.column(id_col).to_pylist()])


def dedup_method_venn(
    docs: "rd.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    weight_col: str | None = None,
) -> pa.Table:
    """(mask, n_docs[, n_chars]) histogram over the 4-bit method flags,
    mask 0 row included (docs no method would drop). With ``weight_col``
    (e.g. n_chars) each mask also sums that column — the BYTES each
    method combination would remove, which is what a tier budget is
    actually tuned on. Driver-side result is <= 16 rows by construction;
    the flagged (id, mask) set rides the driver/broadcast under the same
    dup-density bound as the pair sets (swap for a cogroup join if a
    corpus's duplicated fraction explodes it).

    ONE corpus scan (round-3 verdict #5): the tiers fused scan with
    ``with_simhash=True`` computes raw+norm sha-256 words, the MinHash
    signature AND the Charikar simhash in a single text pass; all four
    methods then reduce over that compact signature table — the text is
    never re-read or re-tokenized per method (previously 4 independent
    scans, measured 19.9 s → see BENCH)."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.pipelines.dupe import dupe_clusters_from_sigs
    from dupers_ray.pipelines.tiers import _N_PARTS, _not_min, fused_tier_scan
    from dupers_ray.stages.simhash import hamming_pairs_from_sigs

    cfg = DedupConfig(id_col=id_col, text_col=text_col)
    fused = fused_tier_scan(
        docs.select_columns([id_col, text_col]), cfg, with_simhash=True
    )

    # bits 1+2 — ONE norm-key partition shuffle resolves BOTH independent
    # keep-first rules: equal raw bytes imply equal normalization, so every
    # raw-digest group arrives complete in its norm group's partition (the
    # tiers _resolve_exact_norm co-location argument; here the norm rule is
    # INDEPENDENT of the exact rule — each method flags as if it ran alone)
    def resolve_exact_norm_flags(g: pa.Table) -> pa.Table:
        bits = np.zeros(g.num_rows, np.int64)
        for empty_col, key_cols, bit in (
            ("txt_empty", ["digest_u64", "digest_u64b"], EXACT_BIT),
            ("norm_empty", ["norm_u64", "norm_u64b"], NORM_BIT),
        ):
            live = ~g.column(empty_col).to_numpy()
            bits[_not_min(g, id_col, live, key_cols)] |= bit
        hit = bits > 0
        return pa.table({
            id_col: g.column(id_col).filter(hit),
            "bit": pa.array(bits[hit]),
        })

    en_f = keyed_partition_map_groups(
        fused.select_columns([id_col, "digest_u64", "digest_u64b",
                              "norm_u64", "norm_u64b",
                              "txt_empty", "norm_empty"]),
        "norm_u64", resolve_exact_norm_flags, num_partitions=_N_PARTS,
    )

    # bit 4 — flagship near-dup clusters over the STORED signatures:
    # flagged iff not the cluster's min-node anchor (singletons label
    # themselves -> unflagged; empty-text docs are excluded = unflagged,
    # the flagship drop_empty parity)
    import pyarrow.compute as pc

    content = fused.map_batches(
        lambda t: t.filter(pc.invert(t.column("txt_empty"))),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()  # consumed 3x: index ingest, verify, cluster mapping
    assign = dupe_clusters_from_sigs(content, cfg, mapping_ds=content)

    def near_flags(t: pa.Table) -> pa.Table:
        node = _node_col(t, id_col)
        cl = np.asarray(t.column("cluster_id"), dtype=np.uint64)
        mask = cl != node
        return _flag_table(
            t.column(id_col).filter(pa.array(mask)), NEAR_BIT, id_col=id_col
        )

    near_f = assign.map_batches(
        near_flags, batch_format="pyarrow", zero_copy_batch=True
    )

    # bit 8 — simhash: larger-node end of any hamming<=3 pair, from the
    # fused scan's simhash column (token-less docs carry no signature)
    pairs = hamming_pairs_from_sigs(
        fused.map_batches(
            lambda t: t.filter(
                pc.greater(t.column("sim_tokens"), 0)
            ).select(["node", "simhash"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
    ).to_pandas()
    dst = (
        np.unique(pairs["dst"].to_numpy(np.uint64))
        if len(pairs) else np.empty(0, np.uint64)
    )
    import ray

    dst_ref = ray.put(dst)

    def sim_flags(t: pa.Table) -> pa.Table:
        block = ray.get(dst_ref)
        if not len(block) or not t.num_rows:
            return _flag_table(
                t.column(id_col).slice(0, 0), SIMHASH_BIT, id_col=id_col
            )
        node = _node_col(t, id_col)
        pos = np.searchsorted(block, node).clip(0, len(block) - 1)
        mask = block[pos] == node
        return _flag_table(
            t.column(id_col).filter(pa.array(mask)), SIMHASH_BIT,
            id_col=id_col,
        )

    sim_f = docs.select_columns([id_col]).map_batches(
        sim_flags, batch_format="pyarrow", zero_copy_batch=True
    )

    flagged = (
        en_f.union(near_f).union(sim_f)
        .groupby(id_col).sum("bit")
    ).to_pandas()
    from dupers_ray.functions.hashing import key_i64

    if flagged.empty or id_col not in flagged.columns:
        f_ids = np.empty(0, np.int64)
        f_masks = np.empty(0, np.int64)
    else:
        f_ids = key_i64(pa.Array.from_pandas(flagged[id_col]))
        f_masks = flagged["sum(bit)"].to_numpy(np.int64)
        order = np.argsort(f_ids)
        f_ids, f_masks = f_ids[order], f_masks[order]
    import ray

    flag_ref = ray.put((f_ids, f_masks))

    # one weighted streaming pass: every doc resolves its mask (0 if
    # unflagged) and contributes (count, weight) — <= 16 rows per batch
    def weigh(t: pa.Table) -> pa.Table:
        from dupers_ray.functions.hashing import key_i64 as _keys

        ids_s, masks_s = ray.get(flag_ref)
        ids = _keys(t.column(id_col))
        if len(ids_s):
            pos = np.searchsorted(ids_s, ids).clip(0, len(ids_s) - 1)
            mk = np.where(ids_s[pos] == ids, masks_s[pos], 0)
        else:
            mk = np.zeros(len(ids), np.int64)
        w = (
            np.asarray(t.column(weight_col), dtype=np.int64)
            if weight_col else np.zeros(len(ids), np.int64)
        )
        u, inv = np.unique(mk, return_inverse=True)
        return pa.table({
            "mask": pa.array(u.astype(np.int64)),
            "n_docs": pa.array(np.bincount(inv).astype(np.int64)),
            "n_chars": pa.array(
                np.bincount(inv, weights=w).astype(np.int64)
            ),
        })

    cols = [id_col] + ([weight_col] if weight_col else [])
    parts = docs.select_columns(cols).map_batches(
        weigh, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    agg = parts.groupby("mask")[["n_docs", "n_chars"]].sum().sort_index()
    out = {
        "mask": pa.array(agg.index.to_numpy(np.int64)),
        "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
    }
    if weight_col:
        out["n_chars"] = pa.array(agg["n_chars"].to_numpy(np.int64))
    return pa.table(out)
