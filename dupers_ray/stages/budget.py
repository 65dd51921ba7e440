"""Global ordered prefix selection — "take docs in a deterministic
uniform-random order until a token budget is met".

The training-data use case: corpus subsetting to a fixed token budget
(e.g. "500 B tokens for this mixture slice") must be deterministic,
resumable, and identical at any parallelism. That needs a GLOBAL running
sum in a total order — the one aggregate Ray Data has no primitive for.

Scale shape (NO full sort, no driver-side corpus):

1. one stateless pass: per doc, ``n_tokens`` and a uniform order key
   ``splitmix64(id)`` (a bijection — no ties); ``bucket`` = the key's top
   bits, so bucket ranges partition the total order: every key in bucket
   b sorts before every key in bucket b+1.
2. per-batch combiner → one tiny groupby: per-bucket token totals
   (``n_buckets`` rows — driver-safe by construction).
3. the driver prefix-sums the bucket totals (n_buckets adds) and
   broadcasts the per-bucket offsets once via ``ray.put``.
4. one shuffle of the compact stats rows (id, n_tokens, key, bucket ≈
   32 B/doc — never the text) groups each bucket; within a bucket the
   rows sort locally and cumsum + their bucket offset = the exact global
   running total, so ``selected = cum_tokens <= budget`` is reproducible
   at any block layout.

Equivalent SQL (the driver oracle): ``sum(n_tokens) OVER (ORDER BY
splitmix64(id), id)`` with a threshold — an ordered window over the
whole corpus, which a single-node engine can afford and the distributed
plan reproduces bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.functions.grouping import (
    coalesced_map_groups,
    keyed_partition_map_groups,
)
from dupers_ray.functions.hashing import splitmix64
from dupers_ray.functions.pairs import run_starts
from dupers_ray.stages.textstats import _TOKEN_RE

DEFAULT_N_BUCKETS = 4096


def select_token_budget(
    ds: "ray.data.Dataset",
    *,
    budget: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> "ray.data.Dataset":
    """(id, n_tokens, cum_tokens, selected): global running token total in
    splitmix64(id) order; ``selected=1`` while ``cum_tokens <= budget``.

    ``n_buckets`` bounds both the driver table (one row per bucket) and
    the per-group sort (corpus/n_buckets rows); raise it for corpora
    where a 1/n_buckets slice outgrows a worker's heap."""
    shift = np.uint64(64 - int(np.log2(n_buckets)))
    if (1 << int(np.uint64(64) - shift)) != n_buckets:
        raise ValueError("n_buckets must be a power of two")

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column(text_col).to_pylist()
        n_tok = np.fromiter(
            (len(_TOKEN_RE.findall((s or "").lower())) for s in texts),
            np.int64, len(texts),
        )
        key = splitmix64(ids.view(np.uint64))
        return pa.table({
            id_col: pa.array(ids),
            "n_tokens": pa.array(n_tok),
            # int64 views keep Ray's groupby in native-block land
            "__key": pa.array(key.view(np.int64)),
            "__bucket": pa.array((key >> shift).astype(np.int64)),
        })

    compact = ds.map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed twice: bucket totals + the grouped pass

    # per-batch combiner, then a groupby of n_buckets partial rows
    def partial(t: pa.Table) -> pa.Table:
        b = np.asarray(t.column("__bucket"), dtype=np.int64)
        n = np.asarray(t.column("n_tokens"), dtype=np.int64)
        tot = np.bincount(b, weights=n, minlength=0).astype(np.int64)
        nz = np.flatnonzero(tot)
        return pa.table({"__bucket": pa.array(nz), "t": pa.array(tot[nz])})

    from ray.data.aggregate import Sum

    totals = (
        compact.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .aggregate(Sum("t", alias_name="t"))
        .take_all()
    )  # <= n_buckets rows by construction
    offsets = np.zeros(n_buckets, np.int64)
    for r in totals:
        offsets[int(r["__bucket"])] = int(r["t"])
    offsets = np.concatenate([[0], np.cumsum(offsets)[:-1]])
    oref = ray.put(offsets)

    def resolve(g: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        ids = np.asarray(g.column(id_col), dtype=np.int64)
        n = np.asarray(g.column("n_tokens"), dtype=np.int64)
        key = np.asarray(g.column("__key"), dtype=np.int64).view(np.uint64)
        bkt = int(g.column("__bucket")[0].as_py())
        order = np.lexsort((ids, key))
        cum = np.cumsum(n[order]) + offs[bkt]
        sel = (cum <= budget).astype(np.int64)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        return pa.table({
            id_col: pa.array(ids),
            "n_tokens": pa.array(n),
            "cum_tokens": pa.array(cum[inv]),
            "selected": pa.array(sel[inv]),
        })

    return coalesced_map_groups(
        compact, "__bucket", resolve
    )


def select_mix_budget(
    ds: "ray.data.Dataset",
    *,
    budgets: dict[str, int],
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> "ray.data.Dataset":
    """Training-MIX assembly: an independent deterministic token budget
    PER SOURCE ("web 60 B, code 25 B, papers 15 B" — the mixture-weight
    step after curation). Per source, docs are taken in splitmix64(id)
    order until that source's budget is met; sources absent from
    ``budgets`` get budget 0 (kept, ``selected=0``).

    Same NO-full-sort shape as :func:`select_token_budget`, with the
    bucket key extended by a source index: per-(source, bucket) totals
    (≤ sources x n_buckets rows — driver-safe), one prefix-sum matrix
    broadcast, one shuffle of compact stats rows grouped by the fused
    (source, bucket) int key. Output: (id, source, n_tokens, cum_tokens,
    selected)."""
    shift = np.uint64(64 - int(np.log2(n_buckets)))
    if (1 << int(np.uint64(64) - shift)) != n_buckets:
        raise ValueError("n_buckets must be a power of two")
    src_idx = {s: i for i, s in enumerate(sorted(budgets))}
    budget_vec = np.array(
        [budgets[s] for s in sorted(budgets)] + [0], np.int64
    )  # trailing 0 = unknown-source budget
    unknown = len(src_idx)
    iref = ray.put(src_idx)

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column(text_col).to_pylist()
        srcs = t.column(source_col).to_pylist()
        idx_map = ray.get(iref)
        n_tok = np.fromiter(
            (len(_TOKEN_RE.findall((s or "").lower())) for s in texts),
            np.int64, len(texts),
        )
        sidx = np.fromiter(
            (idx_map.get(s, unknown) for s in srcs), np.int64, len(srcs)
        )
        key = splitmix64(ids.view(np.uint64))
        bucket = (key >> shift).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids),
            source_col: t.column(source_col),
            "n_tokens": pa.array(n_tok),
            "__key": pa.array(key.view(np.int64)),
            "__sb": pa.array(sidx * n_buckets + bucket),
        })

    compact = ds.map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def partial(t: pa.Table) -> pa.Table:
        sb = np.asarray(t.column("__sb"), dtype=np.int64)
        n = np.asarray(t.column("n_tokens"), dtype=np.int64)
        u, inv = np.unique(sb, return_inverse=True)
        tot = np.bincount(inv, weights=n).astype(np.int64)
        return pa.table({"__sb": pa.array(u), "t": pa.array(tot)})

    from ray.data.aggregate import Sum

    totals = (
        compact.map_batches(partial, batch_format="pyarrow")
        .groupby("__sb")
        .aggregate(Sum("t", alias_name="t"))
        .take_all()
    )  # <= (sources+1) x n_buckets rows
    offsets = np.zeros((unknown + 1) * n_buckets, np.int64)
    for r in totals:
        offsets[int(r["__sb"])] = int(r["t"])
    per_src = offsets.reshape(unknown + 1, n_buckets)
    per_src = np.concatenate(
        [np.zeros((unknown + 1, 1), np.int64),
         np.cumsum(per_src, axis=1)[:, :-1]], axis=1,
    )
    oref = ray.put(per_src.reshape(-1))

    def resolve(g: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        ids = np.asarray(g.column(id_col), dtype=np.int64)
        n = np.asarray(g.column("n_tokens"), dtype=np.int64)
        key = np.asarray(g.column("__key"), dtype=np.int64).view(np.uint64)
        sb = int(g.column("__sb")[0].as_py())
        budget = int(budget_vec[sb // n_buckets])
        order = np.lexsort((ids, key))
        cum = np.cumsum(n[order]) + offs[sb]
        sel = (cum <= budget).astype(np.int64)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        return pa.table({
            id_col: pa.array(ids),
            source_col: g.column(source_col),
            "n_tokens": pa.array(n),
            "cum_tokens": pa.array(cum[inv]),
            "selected": pa.array(sel[inv]),
        })

    return coalesced_map_groups(
        compact, "__sb", resolve
    )


def pack_sequences(
    ds: "ray.data.Dataset",
    *,
    seq_len: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> "ray.data.Dataset":
    """Training-sequence PACKING layout: concatenate docs (+1 EOS token
    each) in ``id`` order and slice the stream into fixed ``seq_len``
    windows — the step that turns a curated corpus into GPT-style
    training examples. Per doc:

    (id, n_tokens, start_offset, first_seq, last_seq)

    where ``start_offset`` is the global token offset of the doc's first
    token in the concatenated stream, ``first_seq = start_offset //
    seq_len`` and ``last_seq = (start_offset + n_tokens) // seq_len``
    (the +1 EOS means every doc occupies >= 1 position, so the window
    indices are total — no empty-doc NULLs). A writer task for sequence
    range [a, b) needs exactly the docs with ``first_seq < b`` and
    ``last_seq >= a`` — resumable, partition-parallel shard writing.

    Same NO-full-sort shape as :func:`select_token_budget`, but the
    total order is the id itself, so the bucket must be a MONOTONE
    function of id: bucket = (id - min_id) * n_buckets // span, computed
    after one cheap min/max aggregate over the compact stats rows. Ids
    need not be dense — only roughly uniform for bucket balance (the
    synthetic and CC-style id spaces are); a skewed id space calls for
    quantile bucket bounds, which slot into the same plan.

    Engine-new (the packing step of Brown et al. 2020-style pretraining
    data prep); SQL oracle: ``sum(n_tokens + 1) OVER (ORDER BY id ROWS
    UNBOUNDED PRECEDING AND 1 PRECEDING)`` — see __ray_entry__.py."""
    return layout_from_stats(
        token_stats(ds, id_col=id_col, text_col=text_col),
        seq_len=seq_len, id_col=id_col, n_buckets=n_buckets,
    )


def token_stats(
    ds: "ray.data.Dataset", *, id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """ONE stateless pass → compact (id, n_tokens) rows (16 B/doc). The
    checkpointable stage of the packing plan."""
    from dupers_ray.stages.textstats import flat_tokens

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        _, doc_idx, n = flat_tokens(t.column(text_col))
        n_tok = np.bincount(doc_idx, minlength=n).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids),
            "n_tokens": pa.array(n_tok),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    )


def layout_from_stats(
    stats_ds: "ray.data.Dataset",
    *,
    seq_len: int,
    id_col: str = "doc_id",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> "ray.data.Dataset":
    """The packing plan over pre-computed (id, n_tokens) stats rows —
    split out so a checkpointed run can resume from a persisted stats
    stage (see packed_windows_checkpointed)."""
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    # consumed 3x: min/max probe, bucket totals, resolve
    compact = stats_ds.materialize()

    if compact.count() == 0:
        return compact.map_batches(
            lambda t: pa.table({
                id_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "start_offset": pa.array([], pa.int64()),
                "first_seq": pa.array([], pa.int64()),
                "last_seq": pa.array([], pa.int64()),
            }),
            batch_format="pyarrow",
        )
    lo = compact.min(id_col)
    hi = compact.max(id_col)
    span = int(hi) - int(lo) + 1

    exact = span <= (2**63 - 1) // n_buckets

    def with_bucket(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        # rel = ids - lo, exact even when the id range spans the full
        # int64 line (hash-derived ids): two's-complement wraparound in
        # uint64 is the true difference because 0 <= rel < span <= 2^64
        rel = ids.view(np.uint64) - np.int64(lo).astype(np.uint64)
        if exact:
            b = (rel.astype(np.int64) * n_buckets // span).astype(np.int64)
        else:
            # rel * n_buckets would overflow — float ratio is monotone
            # in rel (all the plan needs), clipped off the top edge
            b = np.minimum(
                (rel.astype(np.float64) * (n_buckets / span)).astype(np.int64),
                n_buckets - 1,
            )
        return t.append_column("__bucket", pa.array(b))

    keyed = compact.map_batches(
        with_bucket, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def partial(t: pa.Table) -> pa.Table:
        b = np.asarray(t.column("__bucket"), dtype=np.int64)
        n = np.asarray(t.column("n_tokens"), dtype=np.int64) + 1  # +EOS
        tot = np.bincount(b, weights=n, minlength=0).astype(np.int64)
        nz = np.flatnonzero(tot)
        return pa.table({"__bucket": pa.array(nz), "t": pa.array(tot[nz])})

    from ray.data.aggregate import Sum

    totals = (
        keyed.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .aggregate(Sum("t", alias_name="t"))
        .take_all()
    )  # <= n_buckets rows by construction
    offsets = np.zeros(n_buckets, np.int64)
    for r in totals:
        offsets[int(r["__bucket"])] = int(r["t"])
    offsets = np.concatenate([[0], np.cumsum(offsets)[:-1]])
    oref = ray.put(offsets)

    def resolve(g: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        ids = np.asarray(g.column(id_col), dtype=np.int64)
        n = np.asarray(g.column("n_tokens"), dtype=np.int64)
        bkt = int(g.column("__bucket")[0].as_py())
        order = np.argsort(ids)  # ids are unique — total order
        eff = n[order] + 1
        start = np.cumsum(eff) - eff + offs[bkt]
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        start = start[inv]
        return pa.table({
            id_col: pa.array(ids),
            "n_tokens": pa.array(n),
            "start_offset": pa.array(start),
            "first_seq": pa.array(start // seq_len),
            "last_seq": pa.array((start + n) // seq_len),
        })

    return coalesced_map_groups(
        keyed, "__bucket", resolve
    )


def packed_windows(
    ds: "ray.data.Dataset",
    *,
    seq_len: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> "ray.data.Dataset":
    """MATERIALIZE the packed training stream that :func:`pack_sequences`
    lays out: token ids (md5-u64 of each token, EOS = 0) concatenated in
    id order and sliced into ``seq_len`` windows. Per window:

    (seq_id, n_toks, checksum)

    with ``checksum = Σ tid · (pos_in_window + 1)  (mod 2^64)`` — an
    order-sensitive digest of the window's exact token sequence, so the
    SQL oracle value-checks full materialization without comparing list
    columns. ``n_toks == seq_len`` for every window but the last.

    Scale shape: the layout join ships (id, start_offset) — 16 B/doc —
    through ONE cogroup exchange against (id, text); each joined batch
    then emits per-(batch, window) combiner rows (window id, count,
    wrapped partial checksum), so the window groupby moves fragments,
    never tokens. uint64 wraparound is exact end-to-end: numpy wraps in
    the combiner, the per-window reduce sums uint64 per group, and the
    oracle mirrors it with HUGEINT mod-2^64 arithmetic."""
    layout = pack_sequences(
        ds, seq_len=seq_len, id_col=id_col, text_col=text_col,
        n_buckets=n_buckets,
    ).select_columns([id_col, "start_offset"])
    return windows_from_layout(
        ds, layout, seq_len=seq_len, id_col=id_col, text_col=text_col
    )


def windows_from_layout(
    ds: "ray.data.Dataset",
    layout: "ray.data.Dataset",
    *,
    seq_len: int,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """The window-materialization half of :func:`packed_windows`, taking
    a pre-computed (id, start_offset) layout — the resume point of a
    checkpointed run."""
    import pandas as pd

    from dupers_ray.functions.hashing import hash_str_u64
    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.textstats import flat_tokens

    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    L = seq_len

    joined = cogroup_join(
        ds.select_columns([id_col, text_col]), layout, on=id_col,
        left_schema=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("start_offset", pa.int64())]),
    )

    def fragments(t: pa.Table) -> pa.Table:
        toks, doc_idx, n = flat_tokens(t.column(text_col))
        starts = np.asarray(t.column("start_offset"), dtype=np.int64)
        counts = np.bincount(doc_idx, minlength=n).astype(np.int64)
        offs = np.cumsum(counts) - counts
        j = np.arange(len(toks), dtype=np.int64) - offs[doc_idx]
        if len(toks):
            # Arrow dictionary_encode interns the token stream at C
            # speed; only UNIQUE tokens surface as Python strings for
            # md5 (the factorize-on-objects variant materialized every
            # token — measured 80 s -> 8 s on the 600 k-doc corpus)
            import pyarrow.compute as pc

            denc = pc.dictionary_encode(toks)
            codes = np.asarray(denc.indices, dtype=np.int64)
            tids = hash_str_u64(denc.dictionary.to_pylist())[codes]
        else:
            tids = np.zeros(0, np.uint64)
        pos = np.concatenate([starts[doc_idx] + j, starts + counts])
        tid = np.concatenate([tids, np.zeros(n, np.uint64)])
        w = pos // L
        chk = tid * (pos % L + 1).astype(np.uint64)  # uint64 wrap
        df = pd.DataFrame({"seq_id": w, "chk": chk})
        gb = df.groupby("seq_id", sort=False)["chk"]
        out = gb.agg(n_toks="size", chk="sum").reset_index()
        return pa.table({
            "seq_id": out["seq_id"].to_numpy(np.int64),
            "n_toks": out["n_toks"].to_numpy(np.int64),
            "chk": out["chk"].to_numpy(np.uint64).view(np.int64),
        })

    frags = joined.map_batches(
        # explicit batch_size: the cogroup join emits partition-sized
        # blocks, and one ~19k-doc/4M-token batch thrashes far past
        # cache (measured 34 s -> 3.7 s for the whole stage at 600 k
        # docs when sliced to 8k docs/batch)
        fragments, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=8192,
    )

    def assemble(g: pa.Table) -> pa.Table:
        """Per seq_id-hash partition: vectorized per-window segment sums
        (no per-window Python call); the uint64 checksum wraps mod 2^64."""
        seq = g.column("seq_id").to_numpy()
        order = np.argsort(seq, kind="stable")
        seq = seq[order]
        starts = np.flatnonzero(run_starts(seq))
        return pa.table({
            "seq_id": seq[starts],
            "n_toks": np.add.reduceat(g.column("n_toks").to_numpy()[order],
                                      starts),
            "checksum": np.add.reduceat(
                g.column("chk").to_numpy()[order].view(np.uint64), starts),
        })

    return keyed_partition_map_groups(frags, "seq_id", assemble, num_partitions=64)


def chunk_docs(
    ds: "ray.data.Dataset",
    *,
    chunk_len: int,
    stride: int | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """RAG-style sliding-window chunking: per doc, token windows of
    ``chunk_len`` starting every ``stride`` tokens (stride defaults to
    chunk_len = disjoint chunks). Per chunk:

    (id, chunk_id, start_tok, n_chunk_tokens, chunk_text)

    where ``chunk_text`` is the window's tokens joined by one space —
    the retrieval-index unit a RAG pipeline embeds. A token-less doc
    emits ONE empty chunk so no doc silently disappears.

    Scale shape: ONE streaming pass, no shuffle; everything per batch is
    Arrow/numpy — tokens are gathered per chunk with a single ``take``
    index vector and joined with ``pc.binary_join`` on a LargeList (no
    per-chunk Python). Output size is input x chunk_len/stride; pick
    stride >= chunk_len/2 at corpus scale."""
    import pyarrow.compute as pc

    from dupers_ray.stages.textstats import flat_tokens

    if chunk_len < 1:
        raise ValueError("chunk_len must be positive")
    stride = chunk_len if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be positive")

    def per_batch(t: pa.Table) -> pa.Table:
        toks, doc_idx, n = flat_tokens(t.column(text_col))
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        cnt = np.bincount(doc_idx, minlength=n).astype(np.int64)
        offs = np.cumsum(cnt) - cnt  # first flat-token index per doc
        n_chunks = np.maximum((cnt + stride - 1) // stride, 1)
        doc_of = np.repeat(np.arange(n), n_chunks)
        first = np.cumsum(n_chunks) - n_chunks
        cidx = np.arange(int(n_chunks.sum()), dtype=np.int64) - first[doc_of]
        start = cidx * stride
        clen = np.maximum(
            np.minimum(start + chunk_len, cnt[doc_of]) - start, 0
        )
        cfirst = np.cumsum(clen) - clen
        tot = int(clen.sum())
        pos = np.arange(tot, dtype=np.int64) - np.repeat(cfirst, clen)
        take = np.repeat(offs[doc_of] + start, clen) + pos
        flat = toks.take(pa.array(take)) if tot else toks.slice(0, 0)
        lofs = np.concatenate([[0], np.cumsum(clen)]).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            pa.array(lofs), flat.combine_chunks()
            if isinstance(flat, pa.ChunkedArray) else flat,
        )
        return pa.table({
            id_col: pa.array(ids[doc_of]),
            "chunk_id": pa.array(cidx),
            "start_tok": pa.array(start),
            "n_chunk_tokens": pa.array(clen),
            "chunk_text": pc.binary_join(la, " "),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=8192,
    )


def packed_windows_checkpointed(
    input_files: list[str],
    workdir: str,
    *,
    seq_len: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
    files_per_partition: int = 1,
) -> "ray.data.Dataset":
    """Resumable :func:`packed_windows` with the same lineage-manifest
    layout as the flagship (state/manifest.py, pipelines/dupe.py:316):

        workdir/stats/partition=K/   per-input-partition (id, n_tokens)
        workdir/layout/              packing plan (one grouped pass)
        workdir/windows/             final (seq_id, n_toks, checksum)
        workdir/_manifests/*.json    lineage + metrics

    A killed run resumes from the last complete stage: the per-partition
    stats scans skip finished partitions; the layout and windows phases
    re-run only if their config or upstream fingerprints changed."""
    import hashlib as _hl

    import ray.data as rd

    from dupers_ray.state.manifest import (
        read_partitioned,
        run_partitioned,
        run_phased,
    )

    cfg_fp = _hl.sha256(
        f"pack|v1|{seq_len}|{n_buckets}|{id_col}|{text_col}".encode()
    ).hexdigest()[:16]

    stats_dir = f"{workdir}/stats"
    stats_res = run_partitioned(
        input_files, stats_dir,
        lambda ds: token_stats(ds, id_col=id_col, text_col=text_col),
        stage="token_stats", config_fingerprint=cfg_fp,
        files_per_partition=files_per_partition,
    )

    def layout_phase(_prev: dict) -> "ray.data.Dataset":
        return layout_from_stats(
            read_partitioned(stats_dir), seq_len=seq_len,
            id_col=id_col, n_buckets=n_buckets,
        )

    def windows_phase(prev: dict) -> "ray.data.Dataset":
        layout = rd.read_parquet(
            prev["layout"], columns=[id_col, "start_offset"]
        )
        docs = rd.read_parquet(list(input_files), columns=[id_col, text_col])
        return windows_from_layout(
            docs, layout, seq_len=seq_len, id_col=id_col, text_col=text_col
        )

    out = run_phased(
        [("layout", layout_phase), ("windows", windows_phase)],
        workdir, config_fingerprint=cfg_fp,
        upstream_fingerprint=stats_res["fingerprint"],
    )
    return rd.read_parquet(out["windows"])


def temperature_sample(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    key_col: str = "source",
    target_rows: int,
    denom: int = 1_000_000,
    salt: int = 0,
) -> "ray.data.Dataset":
    """Temperature-weighted source mixing (the multilingual-LM recipe:
    sample source s proportionally to ``n_s ** alpha`` with alpha=0.5,
    so low-resource sources are up-weighted relative to their share).
    Engine-new vs the reference (whole-corpus exact dedup only); the
    mixing step that follows dedup in an LLM data pipeline.

    Exactness contract: alpha=0.5 is computed as ``floor(sqrt(n_s))``
    IN DOUBLE PRECISION on both sides (numpy here, DuckDB ``sqrt`` in
    the oracle) — bit-identical for every n_s < 2^52. All downstream
    arithmetic is integer: per-source keep-rate numerator
    ``r_s = min(denom, target_rows * w_s * denom // (S * n_s))`` with
    ``S = sum(w_s)``, and a row is kept iff
    ``splitmix64(id ^ salt) % denom < r_s`` — the same deterministic
    hash-Bernoulli family as ``sample_hash``, so the draw is
    reproducible at any parallelism and restatable in SQL with zero
    float comparisons. ``target_rows * w_s * denom`` bounds the widest
    intermediate; keep it under 2^63 (it is, by ~6 orders, for any
    corpus this engine addresses per-source).

    Scale shape: per-batch (key, count) combiner rows fold driver-side
    (source cardinality is broadcast-bounded by definition of a mixing
    config — no string-key groupby shuffle), then ONE stateless filter
    pass. Expected kept rows per source: ``n_s * r_s / denom``, i.e.
    ~``target_rows * w_s / S`` — the temperature allocation."""
    import pandas as pd

    parts = docs.select_columns([key_col]).map_batches(
        lambda t: t.group_by([key_col]).aggregate([([], "count_all")])
        .rename_columns([key_col, "n"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    counts = parts.groupby(key_col)["n"].sum()
    n = counts.to_numpy(np.int64)
    w = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
    s = int(w.sum())
    if s == 0:
        return docs.select_columns([id_col, key_col]).limit(0)
    r = np.minimum(
        int(denom),
        (int(target_rows) * w * int(denom)) // (s * n),
    )
    rates = dict(zip(counts.index.tolist(), (int(x) for x in r)))
    ref = ray.put(rates)

    def keep(t: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        keys = t.column(key_col).to_pylist()
        rr = np.fromiter((rt.get(k, 0) for k in keys), np.uint64, len(keys))
        ids = np.asarray(
            t.column(id_col).to_numpy(zero_copy_only=False), dtype=np.uint64
        )
        m = (splitmix64(ids ^ np.uint64(salt)) % np.uint64(denom)) < rr
        return t.select([id_col, key_col]).filter(pa.array(m))

    return docs.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
