"""Near-duplicate detection: MinHash → LSH buckets → candidate pairs →
signature-Jaccard verify → edge list.

The scaled analogue of dupers' exact digest lookup (pkg/dupe/dupe.go:919-931)
per BASELINE.json:north_rule. Pipeline shape (SURVEY.md §7.1 step 6):

    signatures = ds.map_batches(minhash)                      # stateless
    candidates = candidate_pairs_index(signatures)            # no shuffle
    edges      = verify (sig Jaccard >= cfg.threshold)

Candidates come from the sharded bucket index (stages/bucket_index.py):
band rows are routed to shard actors, and each bucket emits STAR pairs
(every member paired with the bucket's min node) — m-1 pairs instead of
m(m-1)/2 — which preserves connectivity for clustering. Buckets are
uncapped: a boilerplate bucket costs O(members) pairs inside one shard.

Verification scores candidate pairs against the signature table — a
broadcast lookup up to ~2M docs, else two hash joins on the uint64 node
id — and keeps pairs with estimated Jaccard >= cfg.jaccard_threshold.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from dupers_ray.config import MinHashConfig, ShingleConfig
from dupers_ray.functions.hashing import splitmix64
from dupers_ray.pipelines.joins import hash_join
from dupers_ray.stages.bucket_index import candidate_pairs_index
from dupers_ray.stages.minhash import MinHasher, explode_bands

logger = logging.getLogger(__name__)


# Per-worker-process MinHasher cache for the stateless-task path: state
# (perm params + compiled tokenizer) builds in ~1 ms, so tasks beat an actor
# pool (no pool spin-up latency, fully elastic) as long as construction is
# amortized per process — which this cache does. The actor-pool path remains
# for configs with genuinely heavy state (e.g. model-based shingling).
_MINHASHER_CACHE: dict = {}


def _minhash_batch(batch, *, shingle, minhash, id_col, text_col):
    key = (shingle, minhash, id_col, text_col)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = MinHasher(shingle=shingle, minhash=minhash, id_col=id_col, text_col=text_col)
        _MINHASHER_CACHE[key] = mh
    return mh(batch)


def _minhash_digest_batch(batch, *, shingle, minhash, id_col, text_col):
    """Fused stage: ONE pass over the text computes BOTH the MinHash
    signature (null for token-less docs) and the exact SHA-256 digest —
    the exact-dedup branch then groups over this table instead of paying a
    second full corpus scan. Rows with null/empty text are dropped
    (ErrFileEmpty parity, dupe.go:47)."""
    from dupers_ray.functions.hashing import (
        hex_prefix_u64,
        node_ids,
        sha256_hex_many,
    )
    from dupers_ray.stages.digest import drop_empty

    key = (shingle, minhash, id_col, text_col)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = MinHasher(shingle=shingle, minhash=minhash, id_col=id_col, text_col=text_col)
        _MINHASHER_CACHE[key] = mh

    b = drop_empty(batch, content_col=text_col)
    ids = b.column(id_col).to_pylist()
    texts = [t if t is not None else "" for t in b.column(text_col).to_pylist()]
    sig, n_sh = mh.signatures(texts)
    keep = n_sh > 0
    from dupers_ray.stages.minhash import pack_sig

    sig_le = pack_sig(sig, minhash.sig_store if minhash else "u4")
    sig_bytes: list[bytes | None] = [None] * len(ids)
    ki = 0
    for i, k in enumerate(keep):
        if k:
            sig_bytes[i] = sig_le[ki].tobytes()
            ki += 1
    hexes = sha256_hex_many([t.encode("utf-8") for t in texts])
    u64b = np.array([int(h[16:32], 16) for h in hexes], dtype=np.uint64)
    return pa.table(
        {
            id_col: b.column(id_col),
            "node": pa.array(node_ids([str(i) for i in ids])),
            "sig": pa.array(sig_bytes, pa.binary()),
            "n_shingles": pa.array(n_sh.astype(np.int64)),
            "digest": pa.array(hexes, pa.string()),
            "digest_u64": pa.array(hex_prefix_u64(hexes)),
            # second sha word: (u64, u64b) keys exact-dup buckets with
            # 2^-128 collision probability — no in-group hex re-check needed
            "digest_u64b": pa.array(u64b),
        }
    )


def minhash_signatures(
    ds: "ray.data.Dataset",
    *,
    shingle: ShingleConfig | None = None,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
    text_col: str = "text",
    batch_size: int = 1024,
    concurrency=None,
    with_digests: bool = False,
) -> "ray.data.Dataset":
    shingle = shingle or ShingleConfig()
    minhash = minhash or MinHashConfig()
    if with_digests:
        return ds.map_batches(
            _minhash_digest_batch,
            fn_kwargs={
                "shingle": shingle,
                "minhash": minhash,
                "id_col": id_col,
                "text_col": text_col,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
        )
    if concurrency is not None:
        return ds.map_batches(
            MinHasher,
            fn_constructor_kwargs={
                "shingle": shingle,
                "minhash": minhash,
                "id_col": id_col,
                "text_col": text_col,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
            concurrency=concurrency,
        )
    return ds.map_batches(
        _minhash_batch,
        fn_kwargs={
            "shingle": shingle,
            "minhash": minhash,
            "id_col": id_col,
            "text_col": text_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def _distinct_pairs(pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Globally distinct (src, dst) rows: ONE groupby on a pair-hash
    partition. The bucket index removes cross-band duplicates only within
    a shard, so a consumer that counts pairs needs this extra pass."""
    num_partitions = 256  # coarse groups; pairs dedup vectorized inside

    def add_pair_part(t: pa.Table) -> pa.Table:
        s = np.asarray(t.column("src"), dtype=np.uint64)
        d = np.asarray(t.column("dst"), dtype=np.uint64)
        with np.errstate(over="ignore"):
            ph = splitmix64(s * np.uint64(0x100000001B3) + d)
        return t.append_column(
            "__part", pa.array((ph % np.uint64(num_partitions)).astype(np.int64))
        )

    def first_per_pair(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop_duplicates(subset=["src", "dst"])[["src", "dst"]]
            .reset_index(drop=True)
        )

    return (
        pairs.map_batches(add_pair_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__part")
        .map_groups(first_per_pair, batch_format="pandas")
    )


def verify_pairs(
    pairs: "ray.data.Dataset",
    signatures: "ray.data.Dataset",
    *,
    minhash: MinHashConfig | None = None,
    num_partitions: int = 32,
    strategy: str = "auto",
    broadcast_limit: int = 2_000_000,
    compare: str = "fold16",
) -> "ray.data.Dataset":
    """Keep pairs whose signature-estimated Jaccard >= cfg.jaccard_threshold.
    Output: (src, dst, jaccard).

    strategy="broadcast": the signature table is ray.put ONCE (node-sorted
    arrays) and each pairs batch scores via searchsorted lookups — zero
    shuffles. Right up to ~2M docs (about 1 GB of signatures); the default
    "auto" picks it when the signature count fits, else falls back to
    "join" (two cogroup hash joins — the 10^12-doc path).

    ``compare="fold16"`` (default): BOTH paths compare uint16 signature
    folds, so broadcast ≡ join exactly (the auto strategy switch can
    never change the edge set) and both match the SQL oracle's
    restatement; the fold adds ≤(1-J)/65536 estimate bias.
    ``compare="full"`` keeps the unbiased full-uint32 comparison on the
    join path for callers who want the estimate over cross-strategy
    reproducibility."""
    cfg = minhash or MinHashConfig()
    if strategy == "auto":
        n_sigs = signatures.count()
        strategy = "broadcast" if n_sigs <= broadcast_limit else "join"
    if strategy == "broadcast":
        return _verify_pairs_broadcast(pairs, signatures, cfg)
    sigs = signatures.select_columns(["node", "sig"])

    pairs_schema = pa.schema([("src", pa.uint64()), ("dst", pa.uint64())])
    sig_schema = pa.schema([("node", pa.uint64()), ("sig", pa.binary())])
    # dedup_left: star pairs repeat across bands with the same src (bucket
    # anchor), so per-partition full-row dedup inside the src-keyed join is
    # a complete cross-band dedup — no dedicated dedup shuffle needed
    j1 = hash_join(pairs, sigs, on="src", right_on="node",
                   num_partitions=num_partitions,
                   left_schema=pairs_schema, right_schema=sig_schema,
                   dedup_left=True)
    j1 = j1.map_batches(
        lambda t: t.rename_columns(
            ["sig_src" if c == "sig" else c for c in t.column_names]
        ).drop_columns([c for c in ("node",) if c in t.column_names]),
        batch_format="pyarrow",
    )
    j1_schema = pa.schema(
        [("src", pa.uint64()), ("dst", pa.uint64()), ("sig_src", pa.binary())]
    )
    j2 = hash_join(j1, sigs, on="dst", right_on="node",
                   num_partitions=num_partitions,
                   left_schema=j1_schema, right_schema=sig_schema)

    def score(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"src": pa.array([], pa.uint64()), "dst": pa.array([], pa.uint64()),
                 "jaccard": pa.array([], pa.float64())}
            )
        from dupers_ray.stages.minhash import fold16_matrix, sig_matrix

        if compare == "fold16":
            a = fold16_matrix(t.column("sig_src"), cfg.num_perm)
            b = fold16_matrix(t.column("sig"), cfg.num_perm)
        else:
            a = sig_matrix(t.column("sig_src"), cfg.num_perm)
            b = sig_matrix(t.column("sig"), cfg.num_perm)
            if a.dtype == np.uint16 or b.dtype == np.uint16:
                # a u2 store only holds the folds — comparing them would
                # silently BE the fold16 estimate under a 'full' contract
                raise ValueError(
                    "compare='full' requires sig_store='u4' signatures; "
                    "this table stores uint16 folds"
                )
        jac = (a == b).mean(axis=1)
        keep = jac >= cfg.jaccard_threshold
        return pa.table(
            {
                "src": t.column("src").filter(pa.array(keep)),
                "dst": t.column("dst").filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    return j2.map_batches(score, batch_format="pyarrow")


def _verify_pairs_broadcast(
    pairs: "ray.data.Dataset",
    signatures: "ray.data.Dataset",
    cfg: MinHashConfig,
) -> "ray.data.Dataset":
    """Broadcast-verify: signatures collected into (sorted nodes, sig
    matrix) numpy arrays, shipped once via ray.put; per pairs batch:
    in-batch (src,dst) dedup + searchsorted lookups + vectorized equality
    mean. No shuffle; duplicate pairs across batches produce duplicate
    edges, which connected components tolerates."""
    import ray as _ray

    import pyarrow.compute as pc

    refs = signatures.select_columns(["node", "sig"]).to_arrow_refs()
    tables = [t for t in _ray.get(refs) if len(t)]
    tables = [
        t.filter(pc.is_valid(t.column("sig"))) if t.column("sig").null_count else t
        for t in tables
    ]
    tables = [t for t in tables if len(t)]
    if tables:
        at = pa.concat_tables(tables)
        nodes = np.asarray(at.column("node"), dtype=np.uint64)
        # compare LOW uint16 HALVES: equality of uint16 folds adds a
        # false-match probability of 1/65536 per component (bias <= +0.0015%
        # on the Jaccard estimate — round-1 ADVICE flagged the old uint8
        # fold's 1/256 bias as a strategy-boundary reproducibility wart)
        # while still halving the scoring loop's gather bandwidth vs u4.
        # fold16_matrix reinterprets the Arrow buffer in place — the old
        # to_pylist+join here copied ~300 MB on the DRIVER, a measured
        # ~2 s serial floor in the flagship at every CPU level; under a
        # "u2" signature store the stored bytes ARE the folds (no slice)
        from dupers_ray.stages.minhash import fold16_matrix

        mat = np.ascontiguousarray(fold16_matrix(at.column("sig"), cfg.num_perm))
        order = np.argsort(nodes, kind="stable")
        nodes, mat = nodes[order], mat[order]
    else:
        nodes = np.empty(0, np.uint64)
        mat = np.empty((0, cfg.num_perm), np.uint16)
    ref = _ray.put((nodes, mat))
    thr = cfg.jaccard_threshold

    def score(t: pa.Table) -> pa.Table:
        # stateless task: ray.get of a local plasma object is zero-copy and
        # near-free after the first fetch per node — no actor pool needed
        nodes_, mat_ = _ray.get(ref)
        empty = pa.table(
            {"src": pa.array([], pa.uint64()), "dst": pa.array([], pa.uint64()),
             "jaccard": pa.array([], pa.float64())}
        )
        if len(t) == 0 or len(nodes_) == 0:
            return empty
        s = np.asarray(t.column("src"), dtype=np.uint64)
        d = np.asarray(t.column("dst"), dtype=np.uint64)
        # in-batch pair dedup (cross-band duplicates are common)
        with np.errstate(over="ignore"):
            key = s * np.uint64(0x100000001B3) + d
        _, first = np.unique(key, return_index=True)
        s, d = s[first], d[first]
        si = np.clip(np.searchsorted(nodes_, s), 0, len(nodes_) - 1)
        di = np.clip(np.searchsorted(nodes_, d), 0, len(nodes_) - 1)
        ok = (nodes_[si] == s) & (nodes_[di] == d)
        if not ok.any():
            return empty
        s, d, si, di = s[ok], d[ok], si[ok], di[ok]
        jac = (mat_[si] == mat_[di]).mean(axis=1)
        keep = jac >= thr
        return pa.table(
            {
                "src": pa.array(s[keep]),
                "dst": pa.array(d[keep]),
                "jaccard": pa.array(jac[keep].astype(np.float64)),
            }
        )

    return pairs.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )


def near_dup_edges(
    ds: "ray.data.Dataset",
    *,
    shingle: ShingleConfig | None = None,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
    text_col: str = "text",
    concurrency=None,
    with_digests: bool = False,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Full near-dup front half. Returns (verified edge list with node ids,
    signature dataset with the id<->node mapping).

    The signature dataset is materialized once: it is consumed twice
    (banding + verification joins) and is compact — id + node + num_perm
    uint32s per doc, the wide text/html columns are NOT carried — so
    pinning it beats recomputing shingles. At 100 TB input this is the
    designed checkpoint dataset (write_parquet instead of materialize)."""
    sigs = minhash_signatures(
        ds, shingle=shingle, minhash=minhash, id_col=id_col,
        text_col=text_col, concurrency=concurrency, with_digests=with_digests,
    ).materialize()
    pairs = candidate_pairs_index(sigs, minhash=minhash, id_col=id_col)
    edges = verify_pairs(pairs, sigs, minhash=minhash)
    return edges, sigs


def pair_similarity_histogram(
    ds: "ray.data.Dataset",
    *,
    shingle: "ShingleConfig | None" = None,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
    text_col: str = "text",
    bin_comps: int = 8,
) -> "ray.data.Dataset":
    """Threshold-sweep report: DISTINCT LSH candidate pairs histogrammed
    by signature fold-match count — the MEASURED S-curve a user reads
    next to :func:`dupers_ray.stages.minhash.plan_lsh`'s analytic one to
    pick ``jaccard_threshold`` / banding for a corpus. Output one row
    per occupied bucket:

    (bucket, min_jaccard, n_pairs)   bucket = matches // bin_comps,
                                     min_jaccard = bucket*bin_comps/num_perm

    Scale shape: signatures → bucket-index candidates → ONE global pair
    dedup groupby (16 B rows; the index dedups only within a shard, and
    multiplicity matters for a histogram, unlike for components) → fold16
    verify at threshold 0 (keeps every
    candidate, broadcast or join by size) → per-batch bincount combiner
    → one ≤(num_perm/bin_comps+1)-row groupby. SQL oracle: the shared
    signature CTE (_sig_sql_prefix) + a list_filter match count."""
    from dataclasses import replace

    from ray.data.aggregate import Sum

    cfg = minhash or MinHashConfig()
    if bin_comps < 1 or cfg.num_perm % bin_comps:
        raise ValueError("bin_comps must divide num_perm")
    sigs = minhash_signatures(
        ds, shingle=shingle, minhash=cfg, id_col=id_col, text_col=text_col
    ).materialize()
    pairs = _distinct_pairs(
        candidate_pairs_index(sigs, minhash=cfg, id_col=id_col)
    )
    scored = verify_pairs(
        pairs, sigs, minhash=replace(cfg, jaccard_threshold=0.0),
        compare="fold16",
    )
    num_perm, width = cfg.num_perm, bin_comps
    n_bins = num_perm // bin_comps + 1

    def combine(t: pa.Table) -> pa.Table:
        jac = np.asarray(t.column("jaccard"), dtype=np.float64)
        m = np.rint(jac * num_perm).astype(np.int64)
        cnt = np.bincount(m // width, minlength=n_bins)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "bucket": pa.array(nz.astype(np.int64)),
            "n": pa.array(cnt[nz].astype(np.int64)),
        })

    agg = scored.map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("bucket").aggregate(Sum("n", alias_name="n_pairs"))

    def finish(t: pa.Table) -> pa.Table:
        b = np.asarray(t.column("bucket"), dtype=np.int64)
        return pa.table({
            "bucket": t.column("bucket"),
            "min_jaccard": pa.array(b * width / num_perm),
            "n_pairs": t.column("n_pairs"),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def bucket_size_histogram(
    signatures: "ray.data.Dataset",
    *,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
) -> "ray.data.Dataset":
    """LSH bucket-size histogram → (bucket_size, n_buckets): the skew
    diagnostic, driver-visible.  The long tail of size-1 buckets is the
    healthy mass; a handful of 10^4-member buckets is boilerplate skew,
    whose cost in the bucket index is the star pairs it emits (north
    rule: skew measured explicitly — this is the measurement that proves
    which regime the corpus is in).  Scale shape: explode to 16-byte (band_hash) rows,
    per-batch count combiner → ONE groupby of count rows → per-batch
    size histogram → ONE tiny groupby; the corpus never shuffles."""
    from ray.data.aggregate import Sum

    cfg = minhash or MinHashConfig()
    bands = signatures.map_batches(
        explode_bands,
        fn_kwargs={"bands": cfg.bands, "rows": cfg.rows, "id_col": id_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).select_columns(["band_hash"])

    def count_partial(t: pa.Table) -> pa.Table:
        bh = np.asarray(t.column("band_hash"), dtype=np.uint64)
        uniq, cnt = np.unique(bh, return_counts=True)
        return pa.table({
            "bh": pa.array(uniq.view(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    from dupers_ray.functions.grouping import partitioned_aggregate

    sizes = partitioned_aggregate(
        bands.map_batches(
            count_partial, batch_format="pyarrow", zero_copy_batch=True,
        ),
        "bh", sums=("n",),  # distinct band hashes are corpus-sized
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.table({
            "bucket_size": pa.array(uniq.astype(np.int64)),
            "n_buckets": pa.array(cnt.astype(np.int64)),
        })

    return sizes.map_batches(
        hist_partial, batch_format="pyarrow", zero_copy_batch=True,
    ).groupby("bucket_size").aggregate(Sum("n_buckets", alias_name="n_buckets"))


def windowed_near_pairs(
    ds: "ray.data.Dataset",
    *,
    window_us: int,
    id_col: str = "doc_id",
    ts_col: str = "ts_us",
    text_col: str = "text",
    shingle: ShingleConfig | None = None,
    minhash: MinHashConfig | None = None,
    max_bucket: int = 4096,
    n_parts: int = 64,
    batch_size: int = 1024,
) -> "ray.data.Dataset":
    """Time-windowed near-dup candidate pairs: (src_id, dst_id, dt_us)
    for doc pairs that share >= 1 LSH band bucket AND arrived within
    ``window_us`` of each other — the bounded-history streaming analogue
    of dupers' walkCompare-against-recent-scans (pkg/dupe/dupe.go:940-966
    checks new files only against the existing bucket, not all history).

    Scale shape — why epoch co-location instead of the plain band
    groupby: a boilerplate band bucket grows WITH CORPUS AGE under the
    global (band, hash) key, so a long-running crawl concentrates ever
    more rows on one reducer. Keying by (band, hash, epoch := ts //
    window) bounds every reducer cell at 2x one window's occupancy
    forever. Each band row is emitted twice — home epoch e and probe
    epoch e+1 — so any pair with |dt| <= window shares >= 1 cell
    (|dt| <= W implies epoch delta <= 1); a pair is OWNED by the cell
    where >= 1 member is home, which de-duplicates the replica-replica
    copy without cross-cell traffic. Three shuffles of 40-byte rows,
    text never leaves the signature scan:
      1. fused signature+band+replicate scan -> (band, hash, epoch) rows,
      2. ONE groupby on hash(band, hash, epoch) % n_parts; within cell,
         segment_pairs (hot cells capped at ``max_bucket``, logged),
      3. ONE groupby on a pair-hash partition; distinct (src, dst).
    """
    shingle = shingle or ShingleConfig()
    minhash = minhash or MinHashConfig()
    from dupers_ray.functions.pairs import segment_pairs
    from dupers_ray.stages.minhash import mix_rows_u64

    bands_n, rows_n = minhash.bands, minhash.rows
    w = np.int64(window_us)

    def prep(batch: pa.Table) -> pa.Table:
        key = (shingle, minhash, id_col, text_col)
        mh = _MINHASHER_CACHE.get(key)
        if mh is None:
            mh = MinHasher(
                shingle=shingle, minhash=minhash,
                id_col=id_col, text_col=text_col,
            )
            _MINHASHER_CACHE[key] = mh
        ts_arr = batch.column(ts_col)
        if pa.types.is_timestamp(ts_arr.type):
            ts_arr = ts_arr.cast(pa.int64())
        ts = np.asarray(ts_arr, dtype=np.int64)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        texts = [
            t if t is not None else ""
            for t in batch.column(text_col).to_pylist()
        ]
        sig, n_sh = mh.signatures(texts)
        keep = n_sh > 0
        ids, ts = ids[keep], ts[keep]
        d = len(ids)
        if d == 0:
            return pa.table({
                "band": pa.array([], pa.int32()),
                "bh": pa.array([], pa.int64()),
                "doc": pa.array([], pa.int64()),
                "ts": pa.array([], pa.int64()),
                "cell": pa.array([], pa.int64()),
                "home": pa.array([], pa.bool_()),
                "__part": pa.array([], pa.int64()),
            })
        mat = sig.reshape(d, bands_n, rows_n).astype(np.uint64)
        bh = np.empty((d, bands_n), np.uint64)
        with np.errstate(over="ignore"):
            for b in range(bands_n):
                bh[:, b] = mix_rows_u64(mat[:, b, :] + np.uint64(b + 1))
        epoch = ts // w  # floor toward -inf not needed: ts >= 0 by contract
        band_col = np.tile(np.arange(bands_n, dtype=np.int32), d)
        bh_flat = bh.reshape(-1)
        doc_rep = np.repeat(ids, bands_n)
        ts_rep = np.repeat(ts, bands_n)
        ep_rep = np.repeat(epoch, bands_n)
        n = d * bands_n
        band2 = np.concatenate([band_col, band_col])
        bh2 = np.concatenate([bh_flat, bh_flat])
        doc2 = np.concatenate([doc_rep, doc_rep])
        ts2 = np.concatenate([ts_rep, ts_rep])
        cell2 = np.concatenate([ep_rep, ep_rep + 1])
        home2 = np.concatenate([
            np.ones(n, np.bool_), np.zeros(n, np.bool_),
        ])
        with np.errstate(over="ignore"):
            mix = splitmix64(
                bh2
                + splitmix64(
                    band2.astype(np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15)
                    + cell2.view(np.uint64)
                )
            )
        return pa.table({
            "band": pa.array(band2),
            "bh": pa.array(bh2.view(np.int64)),
            "doc": pa.array(doc2),
            "ts": pa.array(ts2),
            "cell": pa.array(cell2),
            "home": pa.array(home2),
            "__part": pa.array((mix % np.uint64(n_parts)).astype(np.int64)),
        })

    def cell_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "src": pa.array([], pa.int64()),
            "dst": pa.array([], pa.int64()),
            "dt": pa.array([], pa.int64()),
            "__ppart": pa.array([], pa.int64()),
        })
        if not g.num_rows:
            return empty
        band = np.asarray(g.column("band"), dtype=np.int64)
        bh = np.asarray(g.column("bh"), dtype=np.int64)
        cell = np.asarray(g.column("cell"), dtype=np.int64)
        doc = np.asarray(g.column("doc"), dtype=np.int64)
        ts = np.asarray(g.column("ts"), dtype=np.int64)
        home = np.asarray(g.column("home"), dtype=np.bool_)
        order = np.lexsort((doc, cell, bh, band))
        band, bh, cell = band[order], bh[order], cell[order]
        doc, ts, home = doc[order], ts[order], home[order]
        new = np.r_[
            True,
            (band[1:] != band[:-1])
            | (bh[1:] != bh[:-1])
            | (cell[1:] != cell[:-1]),
        ]
        skey = np.cumsum(new)
        ii, jj, over, mx = segment_pairs(skey, max_bucket=max_bucket)
        if over:
            logger.warning(
                "windowed_near_pairs: %d hot cells capped at %d rows "
                "(max %d held)", over, max_bucket, mx,
            )
        if not len(ii):
            return empty
        dt = np.abs(ts[ii] - ts[jj])
        m = (dt <= window_us) & (home[ii] | home[jj])
        ii, jj, dt = ii[m], jj[m], dt[m]
        if not len(ii):
            return empty
        src = np.minimum(doc[ii], doc[jj])
        dst = np.maximum(doc[ii], doc[jj])
        with np.errstate(over="ignore"):
            mix = splitmix64(
                src.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                + dst.view(np.uint64)
            )
        return pa.table({
            "src": pa.array(src),
            "dst": pa.array(dst),
            "dt": pa.array(dt),
            "__ppart": pa.array((mix % np.uint64(n_parts)).astype(np.int64)),
        })

    def dedup(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "src_id": pa.array([], pa.int64()),
            "dst_id": pa.array([], pa.int64()),
            "dt_us": pa.array([], pa.int64()),
        })
        if not g.num_rows:
            return empty
        src = np.asarray(g.column("src"), dtype=np.int64)
        dst = np.asarray(g.column("dst"), dtype=np.int64)
        dt = np.asarray(g.column("dt"), dtype=np.int64)
        # dt is a function of the pair, so unique over the triple == pair
        key = np.stack([src, dst, dt], axis=1)
        uniq = np.unique(key, axis=0)
        return pa.table({
            "src_id": pa.array(uniq[:, 0]),
            "dst_id": pa.array(uniq[:, 1]),
            "dt_us": pa.array(uniq[:, 2]),
        })

    return (
        ds.map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        )
        .groupby("__part")
        .map_groups(cell_pairs, batch_format="pyarrow")
        .groupby("__ppart")
        .map_groups(dedup, batch_format="pyarrow")
    )
