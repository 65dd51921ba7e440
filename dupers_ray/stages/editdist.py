"""Exact edit-distance verification of near-dup candidate pairs.

Band/fold verifies (stages/bucket_index.py, simhash pigeonhole) are
similarity ESTIMATES; when a pipeline needs the true character-level
distance for its keep/drop call (plagiarism-grade near-dup, template
change detection), the standard tool is Myers' bit-parallel algorithm
(Myers, JACM 1999; Hyyro 2001 variant used here): edit distance between
a <= 64-char pattern and a text in O(len(text)) word operations.

Engine twist: the inner loop is vectorized ACROSS PAIRS, not within one
— all uint64 lanes of a numpy array step through their texts in
lockstep (one Python iteration per text position, ~64 total, each doing
a handful of vector ops over the whole batch), so a 4096-pair batch
costs ~64 numpy passes instead of 4096 Python DP loops. Alphabet masks
(``PEq``) are built per batch from the batch's own distinct characters.

The pair source here is the simhash hamming<=3 set (already
SQL-restatable); distances are over 64-char prefixes, which makes the
DuckDB ``levenshtein(substr(a,1,64), substr(b,1,64))`` a FULL value
oracle. Reference analogue: dupers has no sub-file similarity at all —
its match unit is the whole-file digest (pkg/dupe/dupe.go:919-931).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

_ALL1 = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


def myers_prefix_distance(
    a_list: list[str], b_list: list[str], *, m_cap: int = 64
) -> np.ndarray:
    """Exact Levenshtein distance between ``a[:m_cap]`` and ``b[:m_cap]``
    per pair, vectorized across pairs. ``m_cap`` <= 64 (one machine
    word per lane)."""
    if m_cap < 1 or m_cap > 64:
        raise ValueError("m_cap must be in [1, 64]")
    n = len(a_list)
    if n != len(b_list):
        raise ValueError("length mismatch")
    if not n:
        return np.empty(0, np.int64)
    a_list = [(a or "")[:m_cap] for a in a_list]
    b_list = [(b or "")[:m_cap] for b in b_list]
    m = np.fromiter((len(a) for a in a_list), np.int64, n)
    lb = np.fromiter((len(b) for b in b_list), np.int64, n)

    # batch alphabet: distinct chars across all patterns and texts
    all_chars = sorted({c for s in a_list for c in s}
                       | {c for s in b_list for c in s})
    cidx = {c: i for i, c in enumerate(all_chars)}
    n_alpha = max(1, len(all_chars))

    # PEq[i, c] = bitmask of positions j where a_i[j] == c
    peq = np.zeros((n, n_alpha), np.uint64)
    for i, s in enumerate(a_list):
        for j, c in enumerate(s):
            peq[i, cidx[c]] |= _ONE << np.uint64(j)

    # text char codes, padded with -1
    max_lb = int(lb.max()) if n else 0
    bcode = np.full((n, max(1, max_lb)), -1, np.int64)
    for i, s in enumerate(b_list):
        for j, c in enumerate(s):
            bcode[i, j] = cidx[c]

    score = m.astype(np.int64).copy()
    # lanes with empty pattern: distance = len(b); skip the DP for them
    empty_a = m == 0
    # full-ones over m bits (m<=64; avoid 1<<64 overflow)
    hb = np.where(m > 0, _ONE << (m - 1).clip(0).astype(np.uint64), _ONE)
    pv = np.where(m == 64, _ALL1, (_ONE << m.clip(0, 63).astype(np.uint64)) - _ONE)
    mv = np.zeros(n, np.uint64)

    for j in range(max_lb):
        active = (~empty_a) & (j < lb)
        if not active.any():
            break
        code = bcode[:, j]
        eq = np.where(
            code >= 0, peq[np.arange(n), code.clip(0)],
            np.zeros(n, np.uint64),
        )
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        inc = (ph & hb) != 0
        dec = (mh & hb) != 0
        new_score = score + inc.astype(np.int64) - dec.astype(np.int64)
        ph = (ph << _ONE) | _ONE
        mh = mh << _ONE
        new_pv = mh | ~(xv | ph)
        new_mv = ph & xv
        score = np.where(active, new_score, score)
        pv = np.where(active, new_pv, pv)
        mv = np.where(active, new_mv, mv)

    return np.where(empty_a, lb, score).astype(np.int64)


def edit_verified_pairs(
    docs: "rd.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix: int = 64,
) -> "rd.Dataset":
    """simhash hamming<=3 pairs annotated with the EXACT edit distance
    between the two docs' ``prefix``-char text prefixes. Output:
    (src, dst, hamming, edit_dist) — src/dst are node ids (least,
    greatest), matching simhash_pairs.

    The simhash pairs go through :func:`annotate_pairs_prefix_distance`
    keyed on the node id, so only (node, prefix) rows of the corpus reach
    the pairs and the corpus text never shuffles."""
    from dupers_ray.functions.hashing import node_ids
    from dupers_ray.stages.simhash import simhash_pairs

    docs = docs.select_columns([id_col, text_col])

    def with_node(t: pa.Table) -> pa.Table:
        node = node_ids([str(v) for v in t.column(id_col).to_pylist()])
        return pa.table({"node": pa.array(node),
                         text_col: t.column(text_col)})

    pairs = simhash_pairs(docs, id_col=id_col, text_col=text_col)
    return annotate_pairs_prefix_distance(
        pairs, docs.map_batches(with_node, batch_format="pyarrow",
                                zero_copy_batch=True),
        left_col="src", right_col="dst", id_col="node", text_col=text_col,
        prefix=prefix,
    )


def annotate_pairs_prefix_distance(
    pairs: "rd.Dataset",
    docs: "rd.Dataset",
    *,
    left_col: str,
    right_col: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix: int = 64,
) -> "rd.Dataset":
    """Annotate an id-keyed pair dataset with the exact edit distance of
    the two docs' ``prefix``-char text prefixes (Myers, vectorized
    across pairs). Only (id, prefix) rows reach the pairs, through
    pipelines/joins.map_pairs; pair columns pass through, ``edit_dist``
    appends. Ids are integers; the pair columns take their type."""
    from dupers_ray.pipelines.joins import map_pairs

    def prefixes(t: pa.Table) -> pa.Table:
        pfx = [(s or "")[:prefix] for s in t.column(text_col).to_pylist()]
        return pa.table({"id": t.column(id_col),
                         "pfx": pa.array(pfx, pa.string())})

    def score(p: pa.Table, a: pa.Table, b: pa.Table) -> pa.Table:
        d = myers_prefix_distance(a.column("pfx").to_pylist(),
                                  b.column("pfx").to_pylist(), m_cap=prefix)
        return p.append_column("edit_dist", pa.array(d, pa.int64()))

    rows = docs.select_columns([id_col, text_col]).map_batches(
        prefixes, batch_format="pyarrow", zero_copy_batch=True)
    return map_pairs(pairs, rows, score, ends=(left_col, right_col),
                     key="id")


def cluster_edit_profile(
    docs: "rd.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix: int = 64,
) -> "rd.Dataset":
    """Intra-cluster divergence profile: for every member of a multi-doc
    flagship near-dup cluster, the exact edit distance between its
    64-char text prefix and its cluster ANCHOR's (the doc whose node ==
    the cluster label). The threshold-tuning readout: a cluster set
    whose members sit at edit distance 0-2 is tight; a fat tail says
    the LSH threshold is admitting template-mates, not duplicates.

    Deterministic at any parallelism (anchor pairs derive from the
    cluster ASSIGNMENT, which is parallelism-independent, not from the
    shard-dependent candidate star edges). Output:
    (anchor_id, member_id, edit_dist)."""
    from dupers_ray.config import DedupConfig
    from dupers_ray.functions.hashing import node_ids
    from dupers_ray.pipelines.dupe import dupe_clusters
    import ray

    cfg = DedupConfig(id_col=id_col, text_col=text_col)
    assign = dupe_clusters(
        docs.select_columns([id_col, text_col]), cfg
    ).materialize()

    def anchors(t: pa.Table) -> pa.Table:
        node = node_ids([str(v) for v in t.column(id_col).to_pylist()])
        cl = np.asarray(t.column("cluster_id"), dtype=np.uint64)
        m = cl == node
        return pa.table({
            "cluster_id": t.column("cluster_id").filter(pa.array(m)),
            "anchor_id": t.column(id_col).filter(pa.array(m)).cast(pa.int64()),
        })

    amap = assign.map_batches(
        anchors, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    a_cl = np.sort(amap["cluster_id"].to_numpy(np.uint64))
    order = np.argsort(amap["cluster_id"].to_numpy(np.uint64))
    a_id = amap["anchor_id"].to_numpy(np.int64)[order]
    ref = ray.put((a_cl, a_id))

    def member_pairs(t: pa.Table) -> pa.Table:
        cl_s, id_s = ray.get(ref)
        node = node_ids([str(v) for v in t.column(id_col).to_pylist()])
        cl = np.asarray(t.column("cluster_id"), dtype=np.uint64)
        m = cl != node
        cl_m = cl[m]
        pos = np.searchsorted(cl_s, cl_m).clip(0, max(0, len(cl_s) - 1))
        if len(cl_s):
            if not (cl_s[pos] == cl_m).all():
                # every member's cluster must have an anchor row (the anchor
                # labels itself) — a miss means the upstream assignment is
                # inconsistent; fail loudly rather than pair with an
                # arbitrary clipped neighbor (round-3 ADVICE)
                missing = np.unique(cl_m[cl_s[pos] != cl_m])
                raise AssertionError(
                    f"cluster_edit_profile: {len(missing)} cluster ids have "
                    f"members but no anchor (first: {missing[0]})"
                )
            anchor = id_s[pos]
        elif len(cl_m):
            raise AssertionError(
                "cluster_edit_profile: members present but anchor map is empty"
            )
        else:
            anchor = np.empty(0, np.int64)
        ids = np.asarray(
            t.column(id_col).to_numpy(zero_copy_only=False), dtype=np.int64
        )[m]
        return pa.table({
            "anchor_id": pa.array(anchor),
            "member_id": pa.array(ids),
        })

    pairs_df = assign.map_batches(
        member_pairs, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if not len(pairs_df):
        return rd.from_arrow(pa.table({
            "anchor_id": pa.array([], pa.int64()),
            "member_id": pa.array([], pa.int64()),
            "edit_dist": pa.array([], pa.int64()),
        }))
    pairs = rd.from_arrow(pa.table({
        "anchor_id": pa.array(pairs_df["anchor_id"].to_numpy(np.int64)),
        "member_id": pa.array(pairs_df["member_id"].to_numpy(np.int64)),
    }))
    return annotate_pairs_prefix_distance(
        pairs, docs, left_col="anchor_id", right_col="member_id",
        id_col=id_col, text_col=text_col, prefix=prefix,
    )
