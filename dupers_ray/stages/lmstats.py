"""Corpus-frequency join-back: per-document unigram-LM-style familiarity
signals computed against the CORPUS-WIDE token frequency table.

CCNet (Wenzek et al. 2019) scores documents with a language-model
perplexity; the integer-exact analogue here sums each document's tokens'
GLOBAL corpus frequencies (plus hapax / rarest-token signals), keeping
the whole operator bit-reproducible across engines — no floating logs.
No reference analogue (dupers hashes bytes; engine-new training-data op).

Ray-Data shape — the interesting part is the VOCABULARY JOIN-BACK:
- vocabulary build reuses ``textstats.partial_token_counts`` (per-batch
  combiner, one groupby of vocabulary rows — bounded by |vocab|, not
  token count);
- ``strategy="broadcast"`` (vocab fits memory): the (sorted token-hash,
  count) arrays ship ONCE via ``ray.put``; one streaming corpus pass does
  a vectorized searchsorted lookup per token — no shuffle at all;
- ``strategy="join"`` (web-scale vocab): per-batch (doc, token-hash, tf)
  combiner rows meet the vocabulary in ONE cogroup hash join partitioned
  by token hash, then per-batch PARTIAL doc stats are re-keyed by doc in
  a second small groupby (sums/mins of stats rows — the doc's token rows
  never travel twice). Token identity crosses the wire as a u64 md5 fold
  (functions/hashing.hash_str_u64), never the token string.
Both strategies are pytest-equal (tests/test_lmstats.py) and the
broadcast path is value-checked against DuckDB (driver query
``corpus_freq_stats``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.functions.grouping import to_arrow_table
from dupers_ray.functions.hashing import hash_str_u64
from dupers_ray.stages.textstats import partial_token_counts

_OUT_FIELDS = [
    ("n_tokens", pa.int64()), ("n_distinct", pa.int64()),
    ("sum_freq", pa.int64()), ("n_hapax", pa.int64()),
    ("min_freq", pa.int64()),
]


def corpus_vocab(ds: "ray.data.Dataset", *, text_col: str = "text"):
    """(token, n) corpus-wide term frequencies — per-batch combiner then
    one vocabulary-row groupby (same shape as textstats.top_tokens)."""
    parts = ds.map_batches(
        partial_token_counts, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col}, zero_copy_batch=True,
    )
    agg = parts.groupby("token").sum("n")
    return agg.map_batches(
        lambda t: t.rename_columns(["token", "n"]), batch_format="pyarrow"
    )


def _doc_tokens(texts, ids: np.ndarray):
    """Tokenize a batch: flat (hash:u64, doc-offset) arrays + per-doc
    counts. Pure Arrow kernels end to end (textstats.flat_tokens split +
    dictionary_encode interning), so md5 runs once per DISTINCT token
    (the hash_str_u64 contract) and no Python touches token text.
    Accepts an Arrow column (fast path) or a list of strings."""
    from dupers_ray.stages.textstats import flat_tokens

    col = (
        texts
        if isinstance(texts, (pa.Array, pa.ChunkedArray))
        else pa.array([t if t is not None else None for t in texts], pa.string())
    )
    flat, parent, n = flat_tokens(col)
    lens = (
        np.bincount(parent, minlength=n).astype(np.int64)
        if len(flat) else np.zeros(n, np.int64)
    )
    if not len(flat):
        return np.empty(0, np.uint64), lens
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash_str_u64(enc.dictionary.to_pylist())[codes], lens


def _batch_stats(th: np.ndarray, lens: np.ndarray, freqs: np.ndarray,
                 ids: np.ndarray, id_col: str = "doc_id") -> pa.Table:
    """Per-doc aggregates from flat per-token frequency values: one
    reduceat pass per stat, no Python per-doc loop."""
    n = len(ids)
    starts = np.r_[0, np.cumsum(lens)[:-1]]
    nz = lens > 0
    sum_freq = np.zeros(n, np.int64)
    n_hapax = np.zeros(n, np.int64)
    min_freq = np.zeros(n, np.int64)
    n_distinct = np.zeros(n, np.int64)
    if len(th):
        sum_freq[nz] = np.add.reduceat(freqs, starts[nz])
        n_hapax[nz] = np.add.reduceat((freqs == 1).astype(np.int64), starts[nz])
        min_freq[nz] = np.minimum.reduceat(freqs, starts[nz])
        # distinct per doc: sort hashes within each doc segment
        doc_idx = np.repeat(np.arange(n), lens)
        order = np.lexsort((th, doc_idx))
        ds_, hs_ = doc_idx[order], th[order]
        newtok = np.r_[True, (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])]
        n_distinct = np.bincount(ds_[newtok], minlength=n).astype(np.int64)
    return pa.table({
        id_col: pa.array(ids),
        "n_tokens": pa.array(lens),
        "n_distinct": pa.array(n_distinct),
        "sum_freq": pa.array(sum_freq),
        "n_hapax": pa.array(n_hapax),
        "min_freq": pa.array(min_freq),
    })


def doc_freq_stats(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    strategy: str = "auto",
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Per-document corpus-frequency stats: (doc_id, n_tokens, n_distinct,
    sum_freq, n_hapax, min_freq) — all int64-exact. ``sum_freq`` = sum of
    each occurrence's global corpus count (the unigram-LM familiarity
    numerator), ``n_hapax`` = occurrences whose token appears exactly once
    corpus-wide, ``min_freq`` = rarest token's global count (0 for empty
    docs). Every input row gets exactly one output row."""
    # materialize: the vocab table is consumed 2-3x (schema probe,
    # count, payload collect) — without this the whole tokenize+groupby
    # sub-DAG re-executes per consumer (measured 2x at 600k docs)
    vocab = corpus_vocab(ds, text_col=text_col).materialize()
    if strategy == "auto":
        strategy = "broadcast" if vocab.count() <= broadcast_limit else "join"

    if strategy == "broadcast":
        vt = to_arrow_table(vocab)
        if vt.num_rows:
            vh = hash_str_u64(vt.column("token").to_pylist())
            vn = vt.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(vh)
            vh, vn = vh[order], vn[order]
        else:
            vh, vn = np.empty(0, np.uint64), np.empty(0, np.int64)
        ref = ray.put((vh, vn))

        def f(t: pa.Table) -> pa.Table:
            vh_, vn_ = ray.get(ref)
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            th, lens = _doc_tokens(t.column(text_col), ids)
            freqs = (
                vn_[np.searchsorted(vh_, th)] if len(th) else np.empty(0, np.int64)
            )
            return _batch_stats(th, lens, freqs, ids, id_col)

        return ds.select_columns([id_col, text_col]).map_batches(
            f, batch_format="pyarrow", zero_copy_batch=True
        )

    if strategy != "join":
        raise ValueError(f"unknown strategy: {strategy!r}")

    # join path: (doc, token-hash, tf) combiner rows ⋈ vocab by token hash
    from dupers_ray.pipelines.joins import cogroup_join

    def doc_tf(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        th, lens = _doc_tokens(t.column(text_col), ids)
        doc_idx = np.repeat(np.arange(len(ids)), lens)
        if len(th):
            order = np.lexsort((th, doc_idx))
            d_, h_ = doc_idx[order], th[order]
            new = np.r_[True, (d_[1:] != d_[:-1]) | (h_[1:] != h_[:-1])]
            seg = np.cumsum(new) - 1
            tf = np.bincount(seg).astype(np.int64)
            d_, h_ = d_[new], h_[new]
        else:
            d_ = np.empty(0, np.int64)
            h_, tf = np.empty(0, np.uint64), np.empty(0, np.int64)
        # one sentinel row per EMPTY doc so zero-token docs survive the
        # join (tf=0 rows join nothing under 'left', contribute zeros)
        empty = np.flatnonzero(lens == 0)
        return pa.table({
            id_col: pa.array(np.r_[ids[d_], ids[empty]]),
            "th": pa.array(np.r_[h_, np.zeros(len(empty), np.uint64)]),
            "tf": pa.array(np.r_[tf, np.zeros(len(empty), np.int64)]),
        })

    def vocab_hash(t: pa.Table) -> pa.Table:
        vh = hash_str_u64(t.column("token").to_pylist())
        return pa.table({
            "th": pa.array(vh),
            "n": t.column("n").cast(pa.int64()),
        })

    tf_rows = ds.select_columns([id_col, text_col]).map_batches(
        doc_tf, batch_format="pyarrow", zero_copy_batch=True
    )
    vrows = vocab.map_batches(vocab_hash, batch_format="pyarrow")
    joined = cogroup_join(
        tf_rows, vrows, on="th", how="left",
        left_schema=pa.schema([(id_col, pa.int64()), ("th", pa.uint64()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("th", pa.uint64()), ("n", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        nn = t.column("n").to_numpy(zero_copy_only=False)
        nn = np.where(np.isnan(nn.astype(np.float64)), 0, nn).astype(np.int64) \
            if nn.dtype != np.int64 else nn
        real = tf > 0
        uids, inv = np.unique(ids, return_inverse=True)
        k = len(uids)

        def isum(mask, w):  # int64-exact segmented sum (no float weights)
            acc = np.zeros(k, np.int64)
            np.add.at(acc, inv[mask], w[mask])
            return acc

        ones = np.ones(len(tf), np.int64)
        out = {
            id_col: uids,
            "n_tokens": isum(slice(None), tf),
            "n_distinct": isum(real, ones),
            "sum_freq": isum(slice(None), tf * nn),
            "n_hapax": isum(real & (nn == 1), tf),
        }
        mf = np.full(k, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mf, inv[real], nn[real])
        out["min_freq"] = mf  # sentinel max folded at final merge
        return pa.table({c: pa.array(v) for c, v in out.items()})

    partials = joined.map_batches(partial, batch_format="pyarrow")

    def final(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.to_pandas()
        agg = df.groupby(id_col, sort=True).agg(
            n_tokens=("n_tokens", "sum"), n_distinct=("n_distinct", "sum"),
            sum_freq=("sum_freq", "sum"), n_hapax=("n_hapax", "sum"),
            min_freq=("min_freq", "min"),
        ).reset_index()
        sent = np.iinfo(np.int64).max
        agg.loc[agg["min_freq"] == sent, "min_freq"] = 0
        return pa.Table.from_pandas(agg, preserve_index=False)

    from dupers_ray.functions.grouping import keyed_partition_map_groups

    # bounded fan-out: per-doc map_groups would be one Python call per
    # document; final() regroups internally so key-hash partitions are
    # exact (functions/grouping.py)
    return keyed_partition_map_groups(
        partials, id_col, final
    )


def corpus_doc_freqs(ds: "ray.data.Dataset", *, text_col: str = "text"):
    """(token, df) document frequencies — per-batch combiner counting each
    token ONCE PER DOC, then one vocabulary-row groupby. Arrow kernels:
    flat_tokens split + dictionary interning, dedup via (doc, code)
    lexsort."""
    from dupers_ray.stages.textstats import flat_tokens

    def part(t: pa.Table) -> pa.Table:
        flat, parent, _ = flat_tokens(t.column(text_col))
        if not len(flat):
            return pa.table({"token": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, parent))
        p_, c_ = parent[order], codes[order]
        first = np.r_[True, (p_[1:] != p_[:-1]) | (c_[1:] != c_[:-1])]
        df = np.bincount(c_[first], minlength=len(enc.dictionary)).astype(np.int64)
        nz = df > 0
        return pa.table({
            "token": enc.dictionary.filter(pa.array(nz)),
            "df": pa.array(df[nz]),
        })

    agg = ds.map_batches(
        part, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("token").sum("df")
    return agg.map_batches(
        lambda t: t.rename_columns(["token", "df"]), batch_format="pyarrow"
    )


def doc_rare_terms(
    ds: "ray.data.Dataset",
    *,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Integer-exact keyword extraction: per doc, the ``k`` most
    distinctive tokens ordered by (corpus document-frequency ASC,
    in-doc term-frequency DESC, token ASC) — the TF-IDF ranking without
    floats, so the SQL oracle reproduces it bit-exactly. Output:
    (id, rk 1..k, token, df, tf).

    Shape: the df table builds like corpus_vocab (combiner + one
    vocabulary groupby) and broadcasts as sorted (hash, df) arrays; the
    scoring pass streams once with a per-batch pandas sort + head(k) —
    no per-doc Python loop, no shuffle of doc rows."""
    import pandas as pd

    dfreq = corpus_doc_freqs(ds, text_col=text_col).materialize()
    vt = to_arrow_table(dfreq)
    if vt.num_rows:
        vh = hash_str_u64(vt.column("token").to_pylist())
        vd = vt.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(vh)
        vh, vd = vh[order], vd[order]
    else:
        vh, vd = np.empty(0, np.uint64), np.empty(0, np.int64)
    ref = ray.put((vh, vd))

    def score(t: pa.Table) -> pa.Table:
        from dupers_ray.stages.textstats import flat_tokens

        vh_, vd_ = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        flat, parent, _ = flat_tokens(t.column(text_col))
        if not len(flat):
            return pa.table({
                id_col: pa.array([], pa.int64()), "rk": pa.array([], pa.int64()),
                "token": pa.array([], pa.string()), "df": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
            })
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (doc, token) with tf via lexsorted run lengths
        order = np.lexsort((codes, parent))
        p_, c_ = parent[order], codes[order]
        first = np.r_[True, (p_[1:] != p_[:-1]) | (c_[1:] != c_[:-1])]
        seg = np.cumsum(first) - 1
        tf_ = np.bincount(seg).astype(np.int64)
        p_, c_ = p_[first], c_[first]
        dict_hash = hash_str_u64(enc.dictionary.to_pylist())
        df_ = vd_[np.searchsorted(vh_, dict_hash)][c_]
        toks = enc.dictionary.take(pa.array(c_)).to_pylist()
        frame = pd.DataFrame({
            id_col: ids[p_], "token": toks, "tf": tf_, "df": df_,
        })
        frame = frame.sort_values(
            [id_col, "df", "tf", "token"],
            ascending=[True, True, False, True], kind="mergesort",
        )
        top = frame.groupby(id_col, sort=False).head(k).copy()
        top["rk"] = top.groupby(id_col, sort=False).cumcount() + 1
        return pa.Table.from_pandas(
            top[[id_col, "rk", "token", "df", "tf"]], preserve_index=False
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )
