"""Bigram-LM rarity scoring and CCNet-style head/middle/tail buckets.

CCNet (Wenzek et al. 2020) orders a crawl corpus by language-model
perplexity and splits it into head / middle / tail tercile buckets;
downstream pipelines keep the head or sample by bucket. The environment
has no trained LM, so the score here is the integer-exact surrogate the
repo's conventions call for (cf. stages/quality.py): each bigram
occurrence contributes ``floor(2^20 / (corpus_count + 1))`` — a
monotone inverse-frequency "surprisal" in fixed-point, summed per doc.
Familiar text (frequent bigrams) scores LOW, rare/garbled text scores
HIGH, so the tercile buckets sort exactly like CCNet's
low/mid/high-perplexity split. Swap the count-derived score for a real
LM's quantized log-prob in production; every Ray stage (counting,
broadcast-or-cogroup lookup, tercile cuts) is unchanged.

Engine-new (the reference has no scoring surface; its closest analogue
is the per-bucket item counts of ``dupers ls``/StatSource,
pkg/database/database.go). Fully SQL-restatable: bigram identity is the
same rolling fold the MinHash shingles use (md5-u64 token hashes,
``h0*P + h1`` mod 2^64, splitmix64 finalizer — see _sig_sql_prefix in
__ray_entry__.py), and the bucket cuts use explicit integer rank
formulas, so the driver oracle hash-compares exactly.

Scale shape:
- counting: per-batch combiner (one row per distinct bigram per batch)
  → one groupby — the shuffle never moves occurrences;
- scoring: broadcast sorted (hash, count) arrays under
  ``broadcast_limit``, else a cogroup join keyed on the bigram hash
  (16 B/row) — same auto switch as lmstats.doc_freq_stats;
- buckets: the avg-rarity DISTRIBUTION is combiner-reduced to one row
  per distinct integer avg; avg = rarity // n_bigrams <= 2^20, so the
  driver-side cut computation touches <= 2^20 + 1 rows no matter the
  corpus size (it is NOT a corpus materialization).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

import ray

from dupers_ray.functions.grouping import to_arrow_table
from dupers_ray.functions.hashing import splitmix64
from dupers_ray.stages.lmstats import _doc_tokens
from dupers_ray.stages.minhash import _POLY

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

RARITY_SCALE = 1 << 20  # fixed-point numerator of the surprisal surrogate


def _doc_bigrams(
    col: "pa.ChunkedArray", ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (bh, bdoc, n_bigrams): splitmix64(h0*P + h1) per in-doc adjacent
    token pair, the owning doc index per pair, and pairs per doc."""
    th, lens = _doc_tokens(col, ids)
    n_bigrams = np.maximum(lens - 1, 0).astype(np.int64)
    if len(th) < 2:
        return np.empty(0, np.uint64), np.empty(0, np.int64), n_bigrams
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    same = doc_idx[1:] == doc_idx[:-1]
    with np.errstate(over="ignore"):
        raw = th[:-1] * _POLY + th[1:]
    return splitmix64(raw[same]), doc_idx[:-1][same], n_bigrams


def bigram_counts(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """→ (bh: int64 signed-view bigram hash, n: int64 corpus count).
    Combiner discipline: one row per distinct bigram per batch."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        bh, _, _ = _doc_bigrams(t.column(text_col), ids)
        uniq, cnt = np.unique(bh, return_counts=True)
        return pa.table({
            "bh": pa.array(uniq.view(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    from dupers_ray.functions.grouping import partitioned_aggregate

    partials = ds.select_columns([id_col, text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    # hash-partitioned reduce, not groupby().aggregate(): distinct-bigram
    # cardinality is corpus-sized, and Ray's aggregate sorts every row
    return partitioned_aggregate(partials, "bh", sums=("n",))


def bigram_rarity(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    strategy: str = "auto",
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Per doc: (doc_id, n_bigrams, rarity) with
    ``rarity = Σ floor(2^20 / (corpus_count(bigram) + 1))`` over the
    doc's bigram OCCURRENCES. Zero-/one-token docs get (0, 0). Every
    input row yields exactly one output row."""
    counts = bigram_counts(ds, id_col=id_col, text_col=text_col).materialize()
    if strategy == "auto":
        strategy = "broadcast" if counts.count() <= broadcast_limit else "join"

    if strategy == "broadcast":
        ct = to_arrow_table(counts)
        if ct.num_rows:
            vh = ct.column("bh").to_numpy(zero_copy_only=False).view(np.uint64)
            vn = ct.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(vh)
            vh, vn = vh[order], vn[order]
        else:
            vh, vn = np.empty(0, np.uint64), np.empty(0, np.int64)
        ref = ray.put((vh, RARITY_SCALE // (vn + 1)))

        def f(t: pa.Table) -> pa.Table:
            vh_, vr_ = ray.get(ref)
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            bh, bdoc, nb = _doc_bigrams(t.column(text_col), ids)
            if len(bh):
                r = vr_[np.searchsorted(vh_, bh)]
                # float64 bincount sums are exact below 2^53; per-pair
                # rarity <= 2^19 so even 2^33 pairs/doc stay exact
                rarity = np.bincount(
                    bdoc, weights=r.astype(np.float64), minlength=len(ids)
                ).astype(np.int64)
            else:
                rarity = np.zeros(len(ids), np.int64)
            return pa.table({
                id_col: t.column(id_col),
                "n_bigrams": pa.array(nb),
                "rarity": pa.array(rarity),
            })

        return ds.select_columns([id_col, text_col]).map_batches(
            f, batch_format="pyarrow", zero_copy_batch=True
        )

    if strategy != "join":
        raise ValueError(f"unknown strategy: {strategy!r}")

    from dupers_ray.pipelines.joins import cogroup_join

    def doc_tf(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        bh, bdoc, nb = _doc_bigrams(t.column(text_col), ids)
        if len(bh):
            order = np.lexsort((bh, bdoc))
            d_, h_ = bdoc[order], bh[order]
            new = np.r_[True, (d_[1:] != d_[:-1]) | (h_[1:] != h_[:-1])]
            seg = np.cumsum(new) - 1
            tf = np.bincount(seg).astype(np.int64)
            d_, h_ = d_[new], h_[new]
        else:
            d_ = np.empty(0, np.int64)
            h_, tf = np.empty(0, np.uint64), np.empty(0, np.int64)
        # sentinel row per bigram-less doc so it survives the left join
        empty = np.flatnonzero(nb == 0)
        return pa.table({
            id_col: pa.array(np.r_[ids[d_], ids[empty]]),
            "bh": pa.array(np.r_[h_.view(np.int64),
                                 np.zeros(len(empty), np.int64)]),
            "tf": pa.array(np.r_[tf, np.zeros(len(empty), np.int64)]),
        })

    tf_rows = ds.select_columns([id_col, text_col]).map_batches(
        doc_tf, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = cogroup_join(
        tf_rows, counts, on="bh", how="left",
        left_schema=pa.schema([(id_col, pa.int64()), ("bh", pa.int64()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("bh", pa.int64()), ("n", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        nn = t.column("n").to_numpy(zero_copy_only=False)
        nn = np.nan_to_num(nn.astype(np.float64), nan=0.0).astype(np.int64)
        real = tf > 0
        per = np.where(real, RARITY_SCALE // (nn + 1), 0)
        df = pd.DataFrame({
            id_col: ids,
            "n_bigrams": tf,
            "rarity": tf * per,
        })
        g = df.groupby(id_col, sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("n_bigrams", alias_name="n_bigrams"),
                   Sum("rarity", alias_name="rarity"))
    )


def rarity_buckets(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    strategy: str = "auto",
) -> "ray.data.Dataset":
    """CCNet head/middle/tail: per doc (doc_id, avg_rarity, bucket) where
    ``avg_rarity = rarity // max(n_bigrams, 1)`` and the bucket cuts are
    the exact tercile ranks — q_p = smallest avg with
    ``#{avg' <= avg} >= ceil(p * n_docs)`` for p = 1/3, 2/3
    (integer forms ``(n+2)//3`` and ``(2n+2)//3``). ``head`` = familiar
    (low surprisal), ``tail`` = rare/garbled, exactly CCNet's ordering.

    The cut computation reduces the avg distribution to one row per
    DISTINCT integer avg (<= 2^20 + 1 rows regardless of corpus size)
    via a combiner groupby before the tiny driver-side scan."""
    scored = bigram_rarity(
        ds, id_col=id_col, text_col=text_col, strategy=strategy
    ).materialize()

    def with_avg(t: pa.Table) -> pa.Table:
        nb = t.column("n_bigrams").to_numpy(zero_copy_only=False)
        r = t.column("rarity").to_numpy(zero_copy_only=False)
        avg = r // np.maximum(nb, 1)
        return t.append_column("avg_rarity", pa.array(avg.astype(np.int64)))

    avgs = scored.map_batches(
        with_avg, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def dist(t: pa.Table) -> pa.Table:
        a = t.column("avg_rarity").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(a, return_counts=True)
        return pa.table({
            "avg_rarity": pa.array(uniq.astype(np.int64)),
            "c": pa.array(cnt.astype(np.int64)),
        })

    from ray.data.aggregate import Sum

    hist = (
        avgs.map_batches(dist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("avg_rarity")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # <= 2^20 + 1 rows by construction — bounded
        .sort_values("avg_rarity")
    )
    total = int(hist["c"].sum())
    cum = hist["c"].cumsum().to_numpy()
    vals = hist["avg_rarity"].to_numpy()
    if total:
        q1 = int(vals[np.searchsorted(cum, (total + 2) // 3)])
        q2 = int(vals[np.searchsorted(cum, (2 * total + 2) // 3)])
    else:  # pragma: no cover - empty corpus
        q1 = q2 = 0

    def bucket(t: pa.Table) -> pa.Table:
        a = t.column("avg_rarity").to_numpy(zero_copy_only=False)
        lab = np.where(a <= q1, "head", np.where(a <= q2, "middle", "tail"))
        return pa.table({
            id_col: t.column(id_col),
            "avg_rarity": t.column("avg_rarity"),
            "bucket": pa.array(lab.tolist(), pa.string()),
        })

    return avgs.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
