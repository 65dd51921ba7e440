"""Exact n-gram Jaccard — brute-force verification / small-scale oracle.

``exact_jaccard`` computes true word-k-gram Jaccard between two texts;
``verify_pairs_exact`` re-verifies candidate pairs against FULL TEXT
(both ends' texts fetched through pipelines/joins.map_pairs — accurate
but heavy; the signature-estimate path in near_dedup.verify_pairs is the
scale default, this is the high-precision option and the trusted oracle
in tests).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import to_arrow_table
from dupers_ray.pipelines.joins import map_pairs

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def shingle_set(text: str, k: int = 5, *, lowercase: bool = True) -> set[tuple[str, ...]]:
    toks = _TOKEN_RE.findall(text.lower() if lowercase else text)
    if not toks:
        return set()
    if len(toks) < k:
        return {tuple(toks)}
    return {tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def exact_jaccard(a: str, b: str, k: int = 5) -> float:
    sa, sb = shingle_set(a, k), shingle_set(b, k)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def all_pairs_candidates(
    corpus: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    id_cap: int | None = None,
) -> "ray.data.Dataset":
    """Every ordered (src < dst) id pair — the ORACLE-HARNESS candidate
    generator (O(n²) pairs; production candidates come from LSH /
    SimHash / the sharded index). The sorted id vector is broadcast once
    via ``ray.put`` (bounded by ``id_cap``); each map task emits its
    batch's pairs vectorized (np.repeat against the broadcast tail), so
    pair emission itself is distributed and never loops per pair."""
    ids_ds = corpus.select_columns([id_col])
    if id_cap is not None:
        ids_ds = ids_ds.filter(
            expr=f"{id_col} < {int(id_cap)}"
        )
    all_ids = np.sort(
        to_arrow_table(ids_ds).column(id_col)
        .to_numpy(zero_copy_only=False).astype(np.int64)
    )
    if len(all_ids) > 1_000_000:
        # n^2 pairs: 1M ids is already 5e11 pairs — this generator exists
        # for the SQL-checkable oracle harness; production candidates come
        # from LSH / SimHash / the sharded index
        raise ValueError(
            f"all_pairs_candidates over {len(all_ids)} ids would emit "
            "O(n^2) pairs; pass id_cap or use an LSH candidate generator"
        )
    ref = ray.put(all_ids)

    def emit(t: pa.Table) -> pa.Table:
        ids_ = ray.get(ref)
        a = np.asarray(t.column(id_col)).astype(np.int64)
        # for each a: pair with every id strictly greater
        pos = np.searchsorted(ids_, a, side="right")
        counts = len(ids_) - pos
        src = np.repeat(a, counts)
        dst = np.concatenate(
            [ids_[p:] for p in pos]
        ) if len(a) else np.empty(0, np.int64)
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    return ids_ds.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)


def _texts(corpus, id_col: str, text_col: str, raw_ids: bool):
    """(node, text) rows: node = the corpus id (int64) when ``raw_ids``,
    else the uint64 node id hashed from it."""
    from dupers_ray.functions.hashing import node_ids

    def with_node(t: pa.Table) -> pa.Table:
        if raw_ids:
            node = t.column(id_col).cast(pa.int64())
        else:
            node = pa.array(node_ids([str(v) for v in
                                      t.column(id_col).to_pylist()]))
        return pa.table({"node": node, "text": t.column(text_col)})

    return corpus.select_columns([id_col, text_col]).map_batches(
        with_node, batch_format="pyarrow", zero_copy_batch=True
    )


def verify_pairs_exact(
    pairs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    *,
    id_col: str = "url",
    text_col: str = "text",
    k: int = 5,
    threshold: float = 0.6,
    raw_ids: bool = False,
) -> "ray.data.Dataset":
    """pairs (src, dst) × corpus (id, text) → (src, dst, jaccard_exact)
    for pairs at/above threshold. Both ends' texts come through
    pipelines/joins.map_pairs. By default src/dst are uint64 node ids
    (hashes of the corpus id column); with ``raw_ids=True`` they are the
    corpus id values themselves (int64) — the oracle-comparable mode."""

    def score(p: pa.Table, a: pa.Table, b: pa.Table) -> pa.Table:
        ja = np.array(
            [exact_jaccard(x or "", y or "", k) for x, y in zip(
                a.column("text").to_pylist(), b.column("text").to_pylist())],
            np.float64,
        )
        keep = pa.array(ja >= threshold)
        return pa.table({
            "src": p.column("src").filter(keep),
            "dst": p.column("dst").filter(keep),
            "jaccard_exact": pa.array(ja).filter(keep),
        })

    return map_pairs(pairs.select_columns(["src", "dst"]),
                     _texts(corpus, id_col, text_col, raw_ids), score,
                     ends=("src", "dst"), key="node")


def exact_containment(a: str, b: str, k: int = 5) -> tuple[float, float]:
    """Asymmetric shingle containment (Broder 1997's 'resemblance vs
    containment' distinction): (|Sa∩Sb|/|Sa|, |Sa∩Sb|/|Sb|) — 'how much
    of a is inside b' and vice versa. Near-1 containment at low Jaccard
    is the quote/boilerplate-wrapper signature that symmetric dedup
    misses. Edge convention mirrors exact_jaccard: both empty → (1, 1),
    one empty → 0 on its side."""
    sa, sb = shingle_set(a, k), shingle_set(b, k)
    if not sa and not sb:
        return 1.0, 1.0
    inter = len(sa & sb)
    return (inter / len(sa) if sa else 0.0,
            inter / len(sb) if sb else 0.0)


def verify_containment_pairs(
    pairs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    threshold: float = 0.5,
) -> "ray.data.Dataset":
    """pairs (src, dst) × corpus → (src_id, dst_id, c_src, c_dst) where
    max(c_src, c_dst) >= threshold. Same text delivery as
    verify_pairs_exact (raw int64 ids — the oracle-comparable mode)."""

    def score(p: pa.Table, a: pa.Table, b: pa.Table) -> pa.Table:
        cs = np.empty(p.num_rows, np.float64)
        cd = np.empty(p.num_rows, np.float64)
        for i, (x, y) in enumerate(zip(a.column("text").to_pylist(),
                                       b.column("text").to_pylist())):
            cs[i], cd[i] = exact_containment(x or "", y or "", k)
        keep = pa.array(np.maximum(cs, cd) >= threshold)
        return pa.table({
            "src_id": p.column("src").filter(keep),
            "dst_id": p.column("dst").filter(keep),
            "c_src": pa.array(cs).filter(keep),
            "c_dst": pa.array(cd).filter(keep),
        })

    return map_pairs(pairs.select_columns(["src", "dst"]),
                     _texts(corpus, id_col, text_col, True), score,
                     ends=("src", "dst"), key="node")
