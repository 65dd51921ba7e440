"""Cross-document EXACT SUBSTRING CONTAINMENT: pairs (inner, outer) where
one document's full text appears verbatim inside another's.

The training-data use case (Lee et al. 2022, "Deduplicating Training Data
Makes Language Models Better"): quoted/aggregated/re-hosted pages whose
text is a strict substring of a larger page are near-worthless duplicates
but are INVISIBLE to whole-doc digests and can fall under the Jaccard
threshold when the outer doc is much longer. dupers' own containment
analogue is filename substring search (`dupers search`,
pkg/dupe/dupe.go:102-135) — this operator lifts the same predicate to
document CONTENT at corpus scale.

Scale design — candidates never compare text:

1. one fused pass re-uses MinHasher's vectorized k-token rolling shingles
   (stages/minhash.py): per doc emit (gram, doc) rows for every DISTINCT
   shingle (the "outer" side), plus ONE anchor row — the minimum hash over
   the doc's INTERIOR shingles (windows not touching the first/last
   token). If doc A is a raw-text substring of doc B, A's interior token
   run appears intact in B (only the two boundary tokens of the
   occurrence can merge with B's neighbours), so A's anchor gram is
   guaranteed to be one of B's grams → 100 % candidate recall for inner
   docs with >= k+2 tokens (the documented contract; shorter docs are
   excluded BY BOTH the engine and the SQL oracle).
2. ONE groupby shuffle on the gram key: within a gram bucket, each anchor
   (inner) pairs with each (gram, doc) holder (outer). An inner doc has
   exactly one anchor gram, so pairs are globally unique with no dedup
   pass. Hot grams (boilerplate that is simultaneously some doc's
   interior minimum AND ubiquitous) are capped at ``max_bucket`` outers
   with drop counts logged — never silently.
3. verify on the CANDIDATE pairs only: raw-text `inner in outer` check
   (exactly SQL ``position(a.text IN b.text) > 0``). Both ends' texts
   come through pipelines/joins.map_pairs — the (id, text) rows broadcast
   when the corpus is small, else two cogroup joins carry each end's text
   to the pair (payload bounded by candidate count, not the corpus).
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.pipelines.joins import map_pairs

logger = logging.getLogger(__name__)

_GRAM_PARTITIONS = 256  # partition fan-out for the gram groupby


class _GramRows:
    """map_batches callable: (gram:int64, doc:int64, inner:int8) rows.

    gram hashes are uint64 reinterpreted as int64 (Ray groupby keys above
    2^63 fall back to pickled-object blocks — see near_dedup.py)."""

    def __init__(self, *, shingle=None, id_col: str, text_col: str):
        from dupers_ray.config import MinHashConfig, ShingleConfig
        from dupers_ray.stages.minhash import MinHasher

        self.mh = MinHasher(
            shingle or ShingleConfig(), MinHashConfig(),
            id_col=id_col, text_col=text_col,
        )
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        flat, offs = self.mh._shingle_hashes(batch.column(self.text_col))
        seg_len = np.diff(offs)
        empty = pa.table({
            "gram": pa.array([], pa.int64()),
            "doc": pa.array([], pa.int64()),
            "inner": pa.array([], pa.int8()),
        })
        if flat.size == 0:
            return empty

        # ---- outer rows: per-doc DISTINCT grams, fully vectorized -------
        doc_idx = np.repeat(np.arange(len(ids)), seg_len)
        order = np.lexsort((flat, doc_idx))
        fs, ds_ = flat[order], doc_idx[order]
        keep = np.r_[True, (fs[1:] != fs[:-1]) | (ds_[1:] != ds_[:-1])]
        out_gram = fs[keep]
        out_doc = ids[ds_[keep]]

        # ---- anchor rows: min over INTERIOR windows (mask first/last) ---
        nonempty = seg_len > 0
        masked = flat.copy()
        first_w = offs[:-1][nonempty]
        last_w = (offs[1:] - 1)[nonempty]
        masked[first_w] = np.uint64(0xFFFFFFFFFFFFFFFF)
        masked[last_w] = np.uint64(0xFFFFFFFFFFFFFFFF)
        mins = np.minimum.reduceat(masked, offs[:-1][nonempty])
        eligible = seg_len[nonempty] >= 3  # >= 1 interior window
        in_gram = mins[eligible]
        in_doc = ids[np.flatnonzero(nonempty)[eligible]]

        gram = np.concatenate([out_gram, in_gram]).view(np.int64)
        doc = np.concatenate([out_doc, in_doc])
        inner = np.zeros(len(gram), np.int8)
        inner[len(out_gram):] = 1
        return pa.table({
            "gram": pa.array(gram),
            "doc": pa.array(doc),
            "inner": pa.array(inner),
        })


def _emit_pairs(g: pa.Table, *, max_bucket: int) -> pa.Table:
    """Within a gram partition: cross inner anchors with outer holders,
    excluding self-pairs. Vectorized segment cross-product."""
    empty = pa.table({"inner_id": pa.array([], pa.int64()),
                      "outer_id": pa.array([], pa.int64())})
    if not g.num_rows:
        return empty
    gram = np.asarray(g.column("gram"), dtype=np.int64)
    doc = np.asarray(g.column("doc"), dtype=np.int64)
    inner = np.asarray(g.column("inner"), dtype=np.int8)

    # primary gram, then inner flag (outers first), then doc (determinism)
    order = np.lexsort((doc, inner, gram))
    gram, doc, inner = gram[order], doc[order], inner[order]
    n = len(gram)
    new = np.r_[True, gram[1:] != gram[:-1]]
    seg = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    n_seg = len(starts)
    ends = np.r_[starts[1:], n]
    # per segment: counts of inner anchors and outer holders
    n_in = np.add.reduceat(inner.astype(np.int64), starts)
    n_out_all = (ends - starts) - n_in
    dropped = n_out_all > max_bucket
    if dropped.any():
        logger.warning(
            "containment: %d hot gram buckets capped at %d outers "
            "(max %d held)", int(dropped.sum()), max_bucket,
            int(n_out_all.max()),
        )
    n_out = np.minimum(n_out_all, max_bucket)

    live = (n_in > 0) & (n_out > 0)
    if not live.any():
        return empty
    # outer rows sort FIRST within a segment (inner flag 0 < 1)
    per_seg = n_in * n_out
    total = int(per_seg[live].sum())
    if total == 0:
        return empty
    # expand: for each live segment, inner i pairs with outers 0..n_out-1
    seg_ids = np.flatnonzero(live)
    rep = per_seg[live]
    seg_rep = np.repeat(seg_ids, rep)            # segment of each pair
    base = np.repeat(np.cumsum(rep) - rep, rep)
    intra = np.arange(total, dtype=np.int64) - base
    k_out = n_out[seg_rep]
    in_off = intra // k_out                      # which inner anchor
    out_off = intra % k_out                      # which outer holder
    seg_start = starts[seg_rep]
    inner_pos = seg_start + n_out_all[seg_rep] + in_off
    outer_pos = seg_start + out_off
    a = doc[inner_pos]
    b = doc[outer_pos]
    keep = a != b
    return pa.table({"inner_id": pa.array(a[keep], pa.int64()),
                     "outer_id": pa.array(b[keep], pa.int64())})


def containment_pairs(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle=None,
    max_bucket: int = 65536,
) -> "ray.data.Dataset":
    """(inner_id, outer_id) pairs with ``inner.text`` a raw substring of
    ``outer.text`` (ids distinct; inner needs >= k+2 tokens — see module
    docstring for the recall argument)."""
    grams = ds.map_batches(
        _GramRows,
        fn_constructor_kwargs={"shingle": shingle, "id_col": id_col,
                               "text_col": text_col},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 8),
    )

    candidates = keyed_partition_map_groups(
        grams, "gram", functools.partial(_emit_pairs, max_bucket=max_bucket),
        num_partitions=_GRAM_PARTITIONS,
    )
    return _verify_containment(candidates, ds, id_col=id_col,
                               text_col=text_col)


def _verify_containment(
    pairs: "ray.data.Dataset",
    ds: "ray.data.Dataset",
    *,
    id_col: str,
    text_col: str,
) -> "ray.data.Dataset":
    """Raw-text `inner in outer` filter over candidate pairs. The find()
    runs per CANDIDATE pair (C-speed str search), never per corpus row."""
    def texts(t: pa.Table) -> pa.Table:
        return pa.table({"id": t.column(id_col).cast(pa.int64()),
                         "text": t.column(text_col)})

    def score(p: pa.Table, a: pa.Table, b: pa.Table) -> pa.Table:
        keep = pa.array(np.fromiter(
            (x is not None and y is not None and x in y
             for x, y in zip(a.column("text").to_pylist(),
                             b.column("text").to_pylist())),
            bool, p.num_rows,
        ))
        return pa.table({"inner_id": p.column("inner_id").filter(keep),
                         "outer_id": p.column("outer_id").filter(keep)})

    rows = ds.select_columns([id_col, text_col]).map_batches(
        texts, batch_format="pyarrow", zero_copy_batch=True)
    return map_pairs(pairs, rows, score, ends=("inner_id", "outer_id"),
                     key="id")
