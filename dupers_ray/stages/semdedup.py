"""SemDeDup-style semantic deduplication over an embedding column
(Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
through semantic deduplication", arXiv:2303.09540 — public literature).

Shape: k-means cells over the (spherically normalized) embeddings, then
WITHIN each cell drop every row that has an earlier (lower-id) row with
cosine >= threshold. The cell partition bounds the pairwise work to
O((n/k)^2 d) per cell instead of O(n^2 d) global — at web scale k is
chosen ~ n / target_cell_size so cells stay matmul-sized, exactly the
paper's recipe. No reference analogue (engine-new training-data op;
the keep-first rule mirrors dupers' first-match semantics,
/root/reference/pkg/dupe/dupe.go:919-931, lifted to embedding space).

Ray-Data shape:
- centroid init = the k smallest-id rows (deterministic, and at
  ``iters=0`` SQL-reproducible — the driver oracle runs that config);
  collected via a per-batch smallest-k combiner, never a global sort;
- Lloyd iterations are DISTRIBUTED: centroids broadcast via ``ray.put``,
  one ``map_batches`` pass emits per-batch partial (cell -> sum, count)
  matrices (k x dim, tiny), the driver reduces and renormalizes — the
  corpus never leaves the cluster and there is no shuffle;
- assignment + within-cell prune: one groupby(cell) shuffle carrying
  each embedding exactly once (no replication), then a blocked
  lower-triangular matmul per cell (memory-bounded at ``block_rows`` rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dupers_ray.functions.grouping import coalesce_for_group_sort
from dupers_ray.stages.embed import _mat, _norm


def _smallest_k_rows(ds, k: int, id_col: str, emb_col: str):
    """(ids, matrix) of the k smallest-id rows: per-batch smallest-k
    combiner -> tiny driver merge. No global sort, no full collect."""

    def part(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: pa.array([], t.schema.field(emb_col).type)})
        sel = np.argsort(ids, kind="stable")[:k]
        return pa.table({id_col: pa.array(ids[sel]),
                         emb_col: t.column(emb_col).take(pa.array(sel))})

    parts = ds.select_columns([id_col, emb_col]).map_batches(
        part, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    ids = np.array([r[id_col] for r in parts], dtype=np.int64)
    if not len(ids):
        return ids, np.empty((0, 0), np.float32)
    mat = np.array([r[emb_col] for r in parts], dtype=np.float32)
    sel = np.argsort(ids, kind="stable")[:k]
    return ids[sel], mat[sel]


def kmeans_fit(
    ds: "ray.data.Dataset",
    *,
    n_clusters: int,
    iters: int = 0,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> np.ndarray:
    """Distributed spherical Lloyd's: deterministic init (k smallest-id
    rows, normalized), then ``iters`` rounds of broadcast-assign /
    partial-sum / driver-reduce. Returns the (k, dim) float32 centroid
    matrix (unit rows). Empty cells keep their previous centroid."""
    _, cents = _smallest_k_rows(ds, n_clusters, id_col, emb_col)
    if not cents.size:
        return cents
    cents = _norm(cents)
    for _ in range(iters):
        ref = ray.put(cents)

        def part(t: pa.Table) -> pa.Table:
            c = ray.get(ref)
            emb = _norm(_mat(t.column(emb_col)))
            if not emb.size:
                return pa.table({"payload": pa.array([], pa.binary())})
            cell = np.argmax(emb.astype(np.float64) @ c.T.astype(np.float64), axis=1)
            sums = np.zeros((len(c), emb.shape[1]), np.float64)
            np.add.at(sums, cell, emb.astype(np.float64))
            counts = np.bincount(cell, minlength=len(c)).astype(np.int64)
            return pa.table({"payload": pa.array(
                [sums.tobytes() + counts.tobytes()], pa.binary())})

        rows = ds.select_columns([emb_col]).map_batches(
            part, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        k, d = cents.shape
        tot = np.zeros((k, d), np.float64)
        cnt = np.zeros(k, np.int64)
        for r in rows:
            buf = r["payload"]
            tot += np.frombuffer(buf[: k * d * 8], np.float64).reshape(k, d)
            cnt += np.frombuffer(buf[k * d * 8:], np.int64)
        nz = cnt > 0
        new = cents.astype(np.float64).copy()
        new[nz] = tot[nz]
        cents = _norm(new.astype(np.float32))
    return cents


def assign_cells(
    ds: "ray.data.Dataset",
    centroids: np.ndarray,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> "ray.data.Dataset":
    """(id, cell) per row: argmax cosine against the broadcast centroid
    matrix, scored in float64 (ties -> lowest cell index, matching the
    SQL oracle's ``ORDER BY sim DESC, cell ASC`` rank)."""
    ref = ray.put(_norm(np.asarray(centroids, np.float32)))

    def f(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        emb = _norm(_mat(t.column(emb_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cell": pa.array([], pa.int64())})
        cell = np.argmax(emb.astype(np.float64) @ c.T.astype(np.float64), axis=1)
        return pa.table({id_col: pa.array(ids),
                         "cell": pa.array(cell.astype(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _prune_cell(g: pa.Table, *, id_col: str, emb_col: str,
                threshold: float, block_rows: int) -> pa.Table:
    """keep[i] = no lower-id row in this cell has cosine(i, j) >= tau.
    Blocked lower-triangular matmul: each block of rows is scored against
    all EARLIER rows only, so peak memory is block x cell_size floats."""
    ids = g.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if not len(ids):
        return pa.table({id_col: pa.array([], pa.int64()),
                         "cell": pa.array([], pa.int64()),
                         "keep": pa.array([], pa.bool_())})
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    m = _norm(_mat(g.column(emb_col)))[order].astype(np.float64)
    cell = g.column("cell").to_numpy(zero_copy_only=False).astype(np.int64)[order]
    n = len(ids_s)
    keep = np.ones(n, bool)
    for lo in range(1, n, block_rows):
        hi = min(lo + block_rows, n)
        s = m[lo:hi] @ m[:hi].T  # (hi-lo, hi)
        # strictly-lower mask: row lo+r may only see columns < lo+r
        col = np.arange(hi)
        row = np.arange(lo, hi)[:, None]
        dup = ((s >= threshold) & (col[None, :] < row)).any(axis=1)
        keep[lo:hi] = ~dup
    return pa.table({id_col: pa.array(ids_s), "cell": pa.array(cell),
                     "keep": pa.array(keep)})


def semantic_dedup(
    ds: "ray.data.Dataset",
    *,
    n_clusters: int = 8,
    threshold: float = 0.4,
    iters: int = 0,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    block_rows: int = 4096,
) -> "ray.data.Dataset":
    """SemDeDup: k-means cells + within-cell keep-first cosine prune.
    Output: one row per input row, (id, cell, keep). ``iters=0`` keeps
    the seed centroids (the k smallest-id embeddings) — the config the
    driver oracle reproduces in SQL; ``iters>0`` runs distributed Lloyd
    rounds (pytest-checked against a local numpy reference).

    Scale notes: ONE groupby(cell) shuffle moves each embedding exactly
    once; within-cell work is O(cell^2 d) by design — size n_clusters so
    cells hold ~10^4-10^5 rows at the target corpus (the SemDeDup paper
    uses 50k cells for LAION-440M)."""
    cents = kmeans_fit(ds, n_clusters=n_clusters, iters=iters,
                       id_col=id_col, emb_col=emb_col)
    if not cents.size:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cell": pa.array([], pa.int64()),
            "keep": pa.array([], pa.bool_()),
        }))
    ref = ray.put(cents)

    def tag(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        emb = _norm(_mat(t.column(emb_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: t.column(emb_col),
                             "cell": pa.array([], pa.int64())})
        cell = np.argmax(emb.astype(np.float64) @ c.T.astype(np.float64), axis=1)
        return pa.table({id_col: pa.array(ids), emb_col: t.column(emb_col),
                         "cell": pa.array(cell.astype(np.int64))})

    tagged = ds.select_columns([id_col, emb_col]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    )
    # Coalesce to >= 8 cells per reducer before the groupby's range sort:
    # with reducers near the distinct-key count the sampled boundaries
    # duplicate, yielding empty SCHEMA-LESS partitions (the `RefBundle
    # with a different schema` warnings in the r4 bench tail).
    tagged = coalesce_for_group_sort(tagged, n_clusters)
    return tagged.groupby("cell").map_groups(
        _prune_cell, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "emb_col": emb_col,
                   "threshold": threshold, "block_rows": block_rows},
    )
