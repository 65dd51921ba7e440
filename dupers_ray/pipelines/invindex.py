"""Inverted token index: build once, answer whole-token queries by
reading only the index partitions the query terms live in.

This is the reference's search scale story taken to its conclusion:
dupers' ``search`` linearly scans every key per query
(pkg/database/database.go:373-447); stages/suffix.py amortizes many
terms over one scan; the inverted index amortizes many QUERIES over one
build — the standard trade for a 100 TB corpus queried repeatedly.

Ray-Data shape:
- build: per-batch distinct (token-hash, doc-id) postings (combiner —
  a doc lives in exactly one batch, so per-batch distinct is globally
  distinct) → hive-partitioned parquet by ``part = hash % P`` — the
  partition layout IS the query pruning structure, and the write is
  resumable/append-safe like every other partitioned sink here;
- query: terms hash → only ``len({h % P})`` partition DIRECTORIES are
  read (prune at the read — a 2-term query touches ≤ 2/P of the index
  bytes), an ``is_in`` kernel drops colliding hashes inside those
  partitions, and AND semantics reduce to a per-doc posting count ==
  n_terms (one tiny groupby of matched postings).
Token identity is the md5-fold u64 (functions/hashing.hash_str_u64)
viewed as int64 for parquet/groupby friendliness.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from dupers_ray.functions.hashing import hash_str_u64

logger = logging.getLogger(__name__)

DEFAULT_PARTITIONS = 64


def _postings(t: pa.Table, *, id_col: str, text_col: str, partitions: int) -> pa.Table:
    from dupers_ray.stages.lmstats import _doc_tokens

    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    # md5 per DISTINCT token (factorize interning inside _doc_tokens)
    th, lens = _doc_tokens(t.column(text_col), ids)
    doc_idx = np.repeat(np.arange(len(ids)), lens)
    if len(th):
        order = np.lexsort((th, doc_idx))
        d_all, h_all = doc_idx[order], th[order]
        new = np.r_[True, (d_all[1:] != d_all[:-1]) | (h_all[1:] != h_all[:-1])]
        idx = np.flatnonzero(new)
        d_, h_ = d_all[idx], h_all[idx]
        tf_ = np.diff(np.r_[idx, len(h_all)])  # run length = term frequency
    else:
        d_, h_ = np.empty(0, np.int64), np.empty(0, np.uint64)
        tf_ = np.empty(0, np.int64)
    return pa.table({
        "th": pa.array(h_.view(np.int64)),
        id_col: pa.array(ids[d_]),
        # tf + denormalized doc length make every posting row
        # self-sufficient for BM25 scoring — no doc-length join at query
        # time (16 extra B/posting, the standard search-engine trade)
        "tf": pa.array(tf_.astype(np.int64)),
        "dl": pa.array(lens[d_]),
        "part": pa.array((h_ % np.uint64(partitions)).astype(np.int64)),
    })


def build_token_index(
    ds: "rd.Dataset",
    out_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    partitions: int = DEFAULT_PARTITIONS,
) -> None:
    """Write the (token-hash, doc-id) posting table hive-partitioned by
    ``part = hash % partitions`` under ``out_dir``."""
    ds.select_columns([id_col, text_col]).map_batches(
        _postings, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"id_col": id_col, "text_col": text_col,
                   "partitions": partitions},
    ).write_parquet(out_dir, partition_cols=["part"])
    # corpus stats sidecar for BM25: N = ALL source docs (token-less
    # included), sum_dl = total tokens. sum(tf) over the WRITTEN index
    # equals sum_dl (a doc's tf values sum to its dl) — one sequential
    # column scan of the index, no re-tokenize, no shuffle.
    n_docs = ds.count()
    import glob as _glob
    import json

    files = sorted(_glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    sum_dl = 0
    if files:
        agg = rd.read_parquet(files, columns=["tf"]).sum("tf")
        sum_dl = int(agg if agg is not None else 0)
    with open(os.path.join(out_dir, "_stats.json"), "w") as f:
        json.dump({"n_docs": int(n_docs), "sum_dl": sum_dl}, f)
    # indexed-id sidecar (incremental updates anti-join against it)
    ds.select_columns([id_col]).write_parquet(os.path.join(out_dir, "_docs"))


def update_token_index(
    ds: "rd.Dataset",
    out_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    partitions: int = DEFAULT_PARTITIONS,
) -> int:
    """Incremental index maintenance — the reference's ``up`` verb
    (walkCompare, pkg/dupe/dupe.go:940-966) applied to the token index:
    only docs NOT already indexed pay the tokenize + write; existing
    posting files are untouched (append-only parquet under each
    ``part=`` dir, unique filenames). Returns the number of new docs.

    Scale shape: the known-id filter is ``maintenance.anti_join_auto``,
    the anti-join every other incremental path here uses (broadcast or
    cogroup by the one row limit of pipelines/joins.py) — no driver
    take_all of indexed ids; stats update reads only the DELTA postings."""
    import json

    from dupers_ray.pipelines.maintenance import anti_join_auto

    docs_dir = os.path.join(out_dir, "_docs")
    if not os.path.isdir(docs_dir):
        raise FileNotFoundError(
            f"{out_dir} has no _docs sidecar (built by an older "
            "build_token_index?) — rebuild the index to enable updates"
        )
    known = rd.read_parquet(docs_dir, columns=[id_col])
    delta = anti_join_auto(
        ds.select_columns([id_col, text_col]), known, key_col=id_col
    ).materialize()
    n_new = delta.count()
    if n_new == 0:
        return 0
    postings = delta.map_batches(
        _postings, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"id_col": id_col, "text_col": text_col,
                   "partitions": partitions},
    ).materialize()
    postings.write_parquet(out_dir, partition_cols=["part"])
    new_dl = postings.sum("tf")
    with open(os.path.join(out_dir, "_stats.json")) as f:
        stats = json.load(f)
    stats["n_docs"] += int(n_new)
    stats["sum_dl"] += int(new_dl if new_dl is not None else 0)
    with open(os.path.join(out_dir, "_stats.json"), "w") as f:
        json.dump(stats, f)
    delta.select_columns([id_col]).write_parquet(docs_dir)
    return int(n_new)


def indexed_token_search(
    index_dir: str,
    terms: list[str],
    *,
    id_col: str = "doc_id",
    mode: str = "all",
    partitions: int = DEFAULT_PARTITIONS,
) -> "rd.Dataset":
    """Docs whose token set contains ALL (``mode="all"``) or ANY
    (``mode="any"``) of ``terms`` — reading only the query terms' index
    partitions. Output: one ``id_col`` row per matching doc."""
    if mode not in ("all", "any"):
        raise ValueError(f"unknown mode: {mode!r}")
    terms = sorted(set(terms))
    th = hash_str_u64(terms).view(np.int64)
    parts = sorted({int(h) for h in (th.view(np.uint64) % np.uint64(partitions))})
    # expand to files: read_parquet accepts one root dir OR a file list,
    # not a list of directories
    import glob

    paths = [
        f
        for p in parts
        for f in sorted(glob.glob(os.path.join(index_dir, f"part={p}", "*.parquet")))
    ]
    if not paths or not len(th):
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64())}))
    ds = rd.read_parquet(paths, columns=["th", id_col])
    need = pa.array(th)

    def match(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("th"), value_set=need))
        # per-batch combiner: postings are globally distinct, so count
        # matched terms per doc inside the batch
        g = t.group_by([id_col]).aggregate([("th", "count")])
        return g.rename_columns([id_col, "n_hit"])

    from dupers_ray.functions.grouping import partitioned_aggregate

    hits = ds.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)
    # hash-partitioned reduce: matched-doc cardinality is term-dependent
    # (stopword queries match most of the corpus) — never a global sort
    agg = partitioned_aggregate(hits, id_col, sums=("n_hit",))
    want = len(terms)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_hit")
        mask = pc.greater_equal(n, 1) if mode == "any" else pc.equal(n, want)
        return pa.table({id_col: t.column(id_col).filter(mask)})

    return agg.map_batches(finish, batch_format="pyarrow")


def bm25_scores(
    index_dir: str,
    terms: list[str],
    *,
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
    partitions: int = DEFAULT_PARTITIONS,
) -> "rd.Dataset":
    """Okapi BM25 ranked retrieval over the token index (Robertson/
    Sparck Jones probabilistic weighting, the Lucene ``+1`` idf
    variant): for every doc containing >= 1 query term,

        score = sum_t idf(t) * tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl))
        idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1)

    The reference ranks search hits by filename order only
    (pkg/database/database.go:373-447); BM25 is the relevance ranking a
    corpus-scale search needs. Scale shape: the PARTITION PRUNE does the
    heavy lifting (<= n_terms/partitions of index bytes read, twice);
    pass 1 folds per-term document frequencies driver-side (<= n_terms
    rows); pass 2 scores matched postings statelessly — tf and dl ride
    in the posting row (build-time denormalization), so no join — and
    pre-sums per doc per batch before ONE tiny groupby of matched docs.
    Output: (id_col, score) for ALL matching docs; rank/limit downstream
    (emitting the full matched set keeps the row SET float-free even
    though scores are floats)."""
    import glob
    import json

    with open(os.path.join(index_dir, "_stats.json")) as f:
        stats = json.load(f)
    n_docs, sum_dl = float(stats["n_docs"]), float(stats["sum_dl"])
    avgdl = sum_dl / n_docs if n_docs else 1.0

    terms = sorted(set(terms))
    # sorted in the INT64 view order — searchsorted below runs against
    # the int64 posting column, where hashes >= 2^63 compare negative
    th = np.sort(hash_str_u64(terms).view(np.int64))
    parts = sorted({int(h) for h in (th.view(np.uint64) % np.uint64(partitions))})
    paths = [
        f
        for p in parts
        for f in sorted(glob.glob(os.path.join(index_dir, f"part={p}", "*.parquet")))
    ]
    if not paths or not len(th):
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }))
    need = pa.array(th)

    # pass 1: document frequency per query term (combiner -> driver fold;
    # postings are distinct per (doc, term), so row counts ARE doc counts)
    def _df(t: pa.Table) -> pa.Table:
        m = t.filter(pc.is_in(t.column("th"), value_set=need))
        g = m.group_by(["th"]).aggregate([([], "count_all")])
        return g.rename_columns(["th", "n"])

    df_parts = rd.read_parquet(paths, columns=["th"]).map_batches(
        _df, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if df_parts.empty or "th" not in df_parts.columns:
        # no query term occurs anywhere (all-empty blocks drop their
        # schema, hence the column check) -> nothing can match
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }))
    df_by_th = df_parts.groupby("th")["n"].sum()
    dfv = np.zeros(len(th), np.float64)
    pos = np.searchsorted(th, df_by_th.index.to_numpy(np.int64))
    dfv[pos] = df_by_th.to_numpy(np.float64)
    idf = np.log((n_docs - dfv + 0.5) / (dfv + 0.5) + 1.0)

    # pass 2: stateless scoring of matched postings, per-batch pre-sum
    def _score(t: pa.Table) -> pa.Table:
        m = t.filter(pc.is_in(t.column("th"), value_set=need))
        if not m.num_rows:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            })
        hh = m.column("th").to_numpy(zero_copy_only=False)
        tf = m.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = m.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        ids = m.column(id_col).to_numpy(zero_copy_only=False)
        w = idf[np.searchsorted(th, hh)] * (
            tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        )
        order = np.argsort(ids, kind="stable")
        ids_s, w_s = ids[order], w[order]
        newd = np.r_[True, ids_s[1:] != ids_s[:-1]]
        starts = np.flatnonzero(newd)
        return pa.table({
            id_col: pa.array(ids_s[starts]),
            "score": pa.array(np.add.reduceat(w_s, starts)),
        })

    from dupers_ray.functions.grouping import partitioned_aggregate

    scored = rd.read_parquet(paths, columns=["th", id_col, "tf", "dl"]).map_batches(
        _score, batch_format="pyarrow", zero_copy_batch=True
    )
    # hash-partitioned reduce over matched doc ids (see indexed_search)
    return partitioned_aggregate(scored, id_col, sums=("score",))


_POS_BITS = 20  # positions pack into the low 20 bits of (doc << 20 | pos)


def build_phrase_index(
    ds: "rd.Dataset",
    out_dir: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    partitions: int = DEFAULT_PARTITIONS,
) -> None:
    """Positional token index for phrase queries: one row per token
    OCCURRENCE (th, id, pos — 24 B), hive-partitioned by ``th %
    partitions`` like the tf index. Kept separate from the BM25 index
    because positions multiply row count by the average tf; build it
    only when phrase search is needed (the standard Lucene trade).
    Position packing bounds docs at 2^20 tokens (longer docs truncate;
    a 1M-token web page is not a phrase-search target)."""
    from dupers_ray.stages.lmstats import _doc_tokens

    def occurrences(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) and int(ids.max()) >= (1 << (63 - _POS_BITS)):
            # packed (doc << 20 | pos) int64 keys would alias across docs
            raise ValueError(
                f"build_phrase_index requires {id_col} < 2**{63 - _POS_BITS} "
                f"(got max {int(ids.max())}); remap ids before indexing"
            )
        th, lens = _doc_tokens(t.column(text_col), ids)
        pos_in_doc = np.arange(len(th), dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        keep = pos_in_doc < (1 << _POS_BITS)
        if not keep.all():
            logger.warning(
                "build_phrase_index: %d token occurrences beyond position "
                "2**%d truncated (docs longer than the packing bound)",
                int((~keep).sum()), _POS_BITS,
            )
        doc_idx = np.repeat(np.arange(len(ids)), lens)[keep]
        th, pos_in_doc = th[keep], pos_in_doc[keep]
        return pa.table({
            "th": pa.array(th.view(np.int64)),
            id_col: pa.array(ids[doc_idx]),
            "pos": pa.array(pos_in_doc),
            "part": pa.array((th % np.uint64(partitions)).astype(np.int64)),
        })

    ds.select_columns([id_col, text_col]).map_batches(
        occurrences, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={},
    ).write_parquet(out_dir, partition_cols=["part"])


def phrase_search(
    index_dir: str,
    phrase: list[str],
    *,
    id_col: str = "doc_id",
    partitions: int = DEFAULT_PARTITIONS,
) -> "rd.Dataset":
    """Docs containing the exact token PHRASE (terms at consecutive
    positions), with occurrence counts: (id_col, n_matches).

    Scale shape: only the phrase terms' partitions are read; matched
    occurrence rows shrink to packed (doc << 20 | pos) int64 keys and
    the phrase constraint is n-1 GLOBAL sorted-set intersections
    (np.intersect1d over all docs at once — positions of doc boundaries
    can't collide across docs by the packing), so no per-doc Python and
    no text bytes move. The driver holds one sorted key array per term,
    bounded by the terms' posting sizes — for rare-term phrases (the
    common case) tiny; a stopword-phrase query pays proportionally, as
    in any positional index."""
    import glob

    if not phrase:
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }))
    th = hash_str_u64(list(phrase)).view(np.int64)  # per phrase slot
    uniq = np.unique(th)
    parts = sorted({int(h) for h in (uniq.view(np.uint64) % np.uint64(partitions))})
    paths = [
        f
        for p in parts
        for f in sorted(glob.glob(os.path.join(index_dir, f"part={p}", "*.parquet")))
    ]
    if not paths:
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }))
    need = pa.array(uniq)

    def gather(t: pa.Table) -> pa.Table:
        m = t.filter(pc.is_in(t.column("th"), value_set=need))
        return m.select(["th", id_col, "pos"])

    matched = rd.read_parquet(paths, columns=["th", id_col, "pos"]).map_batches(
        gather, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if not len(matched):
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }))
    keys_by_th: dict[int, np.ndarray] = {}
    packed = (
        matched[id_col].to_numpy(np.int64) << _POS_BITS
    ) | matched["pos"].to_numpy(np.int64)
    for h in uniq:
        keys_by_th[int(h)] = np.sort(
            packed[matched["th"].to_numpy(np.int64) == h]
        )
    starts = keys_by_th.get(int(th[0]), np.empty(0, np.int64))
    pos_mask = np.int64((1 << _POS_BITS) - 1)
    for i in range(1, len(th)):
        nxt = keys_by_th.get(int(th[i]), np.empty(0, np.int64))
        # occurrences with pos < i can't continue a phrase; dropping them
        # also stops the subtraction from wrapping into the previous
        # doc's packed key space
        nxt = nxt[(nxt & pos_mask) >= i]
        starts = np.intersect1d(starts, nxt - i, assume_unique=True)
        if not len(starts):
            break
    if not len(starts):
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }))
    docs = starts >> _POS_BITS
    u, n = np.unique(docs, return_counts=True)
    return rd.from_arrow(pa.table({
        id_col: pa.array(u.astype(np.int64)),
        "n_matches": pa.array(n.astype(np.int64)),
    }))
