from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from dupers_ray.stages.embed import (
    cosine_pairs_broadcast,
    cosine_pairs_lsh,
    topk_cosine,
)


def _corpus(n=300, dim=16, seed=3, n_dup=10):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim)).astype(np.float32)
    # plant near-duplicate vectors: tiny perturbations of the first n_dup
    for i in range(n_dup):
        m[n - n_dup + i] = m[i] + rng.standard_normal(dim).astype(np.float32) * 0.01
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    return tbl, ids, m


def _brute_topk(m, ids, queries, k):
    def norm(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        n[n == 0] = 1
        return x / n

    s = norm(queries.astype(np.float32)) @ norm(m).T
    out = {}
    for qi in range(len(queries)):
        order = np.lexsort((ids, -s[qi]))[:k]
        out[qi] = [(int(ids[j]), float(s[qi, j])) for j in order]
    return out


def test_topk_cosine_matches_bruteforce():
    tbl, ids, m = _corpus()
    queries = m[:3].copy()
    ds = rd.from_arrow(tbl).repartition(5)
    got = topk_cosine(ds, queries, k=7).to_pandas()
    exp = _brute_topk(m, ids, queries, 7)
    for qi, rows in exp.items():
        sub = got[got.query_id == qi].sort_values(
            ["score", "vec_id"], ascending=[False, True]
        )
        assert sub["vec_id"].tolist() == [r[0] for r in rows]
        assert np.allclose(sub["score"].to_numpy(), [r[1] for r in rows], atol=1e-5)


def test_cosine_pairs_broadcast_exact():
    tbl, ids, m = _corpus()
    ds = rd.from_arrow(tbl).repartition(4)
    got = cosine_pairs_broadcast(ds, ids, m, threshold=0.95).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    # expected: the 10 planted (i, n-10+i) pairs (plus any chance pairs)
    n = len(ids)
    planted = {(i, n - 10 + i) for i in range(10)}
    assert planted <= got_pairs
    # no self pairs, a<b
    assert (got["a"] < got["b"]).all()


def test_cosine_pairs_lsh_verify_paths_agree(force_cogroup):
    """Broadcast and cogroup routes of the pair gather must produce the
    same pair SET."""
    tbl, ids, m = _corpus(n=350, n_dup=15)
    ds = rd.from_arrow(tbl).repartition(4)
    bc = cosine_pairs_lsh(ds, threshold=0.95, dim=16).to_pandas()
    calls = force_cogroup()
    jn = cosine_pairs_lsh(ds, threshold=0.95, dim=16).to_pandas()
    assert calls["pair"] == 2
    assert set(zip(bc["a"], bc["b"])) == set(zip(jn["a"], jn["b"]))
    assert len(bc) > 0


def test_cosine_pairs_lsh_recall():
    tbl, ids, m = _corpus(n=400, n_dup=20)
    ds = rd.from_arrow(tbl).repartition(4)
    exact = cosine_pairs_broadcast(ds, ids, m, threshold=0.95).to_pandas()
    approx = cosine_pairs_lsh(ds, threshold=0.95, dim=16).to_pandas()
    exact_pairs = set(zip(exact["a"], exact["b"]))
    approx_pairs = set(zip(approx["a"], approx["b"]))
    assert exact_pairs, "fixture must plant high-cosine pairs"
    recall = len(exact_pairs & approx_pairs) / len(exact_pairs)
    assert recall >= 0.9, f"LSH recall {recall:.2f}"
    # approx must be a subset in VALUE terms (verified by exact cosine)
    assert (approx["cosine"] >= 0.95).all()


def test_cosine_pairs_lsh_recall_driver_config():
    """Recall floor at the DRIVER's `cosine_pairs_lsh` configuration
    (threshold=0.4, dim=64) — the rows-only registry entry's quantitative
    backing (round-2 VERDICT item 10). Moderate-cosine planted pairs are
    the hard case for hyperplane LSH, hence the lower floor than the
    0.95-threshold test above."""
    rng = np.random.default_rng(11)
    n, dim, n_dup = 400, 64, 30
    m = rng.standard_normal((n, dim)).astype(np.float32)
    for i in range(n_dup):
        # perturbation sized so planted cosines land ~0.5-0.9
        m[n - n_dup + i] = m[i] + rng.standard_normal(dim).astype(np.float32) * 0.7
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    exact = cosine_pairs_broadcast(ds, ids, m, threshold=0.4).to_pandas()
    approx = cosine_pairs_lsh(ds, threshold=0.4, dim=64).to_pandas()
    exact_pairs = set(zip(exact["a"], exact["b"]))
    approx_pairs = set(zip(approx["a"], approx["b"]))
    assert len(exact_pairs) >= n_dup
    recall = len(exact_pairs & approx_pairs) / len(exact_pairs)
    assert recall >= 0.85, f"LSH recall at driver config {recall:.2f}"
    # every emitted pair is verified by exact cosine — precision is 1.0
    assert (approx["cosine"] >= 0.4).all()


def test_cosine_pairs_lsh_fullprobe_exact():
    """n_planes=0 puts every row in one bucket per table: candidates = all
    pairs, so the LSH pipeline's exact verify must reproduce the brute-force
    pair set EXACTLY (the full-probe oracle configuration the driver runs)."""
    tbl, ids, m = _corpus(n=250, n_dup=12)
    ds = rd.from_arrow(tbl).repartition(4)
    exact = cosine_pairs_broadcast(ds, ids, m, threshold=0.95).to_pandas()
    full = cosine_pairs_lsh(
        ds, threshold=0.95, dim=16, n_planes=0, n_tables=2
    ).to_pandas()
    assert set(zip(exact["a"], exact["b"])) == set(zip(full["a"], full["b"]))
    assert len(exact) > 0


def test_topk_cosine_ivf_recall():
    """IVF probes only n_probe/n_cells of the corpus yet must keep high
    recall vs exact top-k; with n_probe == n_cells it IS exact."""
    from dupers_ray.stages.embed import topk_cosine_ivf

    tbl, ids, m = _corpus(n=500, dim=16, n_dup=20)
    ds = rd.from_arrow(tbl).repartition(5)
    queries = m[:5].copy()
    exact = _brute_topk(m, ids, queries, 10)

    approx = topk_cosine_ivf(
        ds, queries, k=10, n_cells=16, n_probe=6, train_sample=500
    ).to_pandas()
    hits = total = 0
    for qi, rows in exact.items():
        got = set(approx[approx.query_id == qi]["vec_id"].tolist())
        want = {r[0] for r in rows}
        hits += len(got & want)
        total += len(want)
    assert hits / total >= 0.8, f"IVF recall {hits/total:.2f}"

    # full-probe == exact
    full = topk_cosine_ivf(
        ds, queries, k=10, n_cells=16, n_probe=16, train_sample=500
    ).to_pandas()
    for qi, rows in exact.items():
        got = full[full.query_id == qi].sort_values(
            ["score", "vec_id"], ascending=[False, True]
        )["vec_id"].tolist()
        assert got == [r[0] for r in rows]


def _brute_clusters(ids, m, threshold):
    """Reference clusters: exact cosine pairs + union-find, min-id label."""

    def norm(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        n[n == 0] = 1
        return x / n

    s = norm(m) @ norm(m).T
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ai, bj = np.nonzero(s >= threshold)
    for i, j in zip(ai.tolist(), bj.tolist()):
        if i >= j:
            continue
        ra, rb = find(int(ids[i])), find(int(ids[j]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {int(i): find(int(i)) for i in ids}


def test_embed_dup_clusters_matches_bruteforce():
    from dupers_ray.stages.embed import embed_dup_clusters

    tbl, ids, m = _corpus()
    want = _brute_clusters(ids, m, 0.95)
    got = (
        embed_dup_clusters(rd.from_arrow(tbl), threshold=0.95, method="broadcast")
        .to_pandas()
        .set_index("vec_id")["cluster_id"]
        .astype(int)
        .to_dict()
    )
    assert got == want
    # the planted near-dups actually clustered (non-trivial components)
    assert sum(1 for k, v in got.items() if k != v) >= 10


def test_embed_dup_clusters_lsh_fullprobe_equals_broadcast():
    from dupers_ray.stages.embed import embed_dup_clusters

    tbl, _, _ = _corpus()
    bc = (
        embed_dup_clusters(rd.from_arrow(tbl), threshold=0.95, method="broadcast")
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    fp = (
        embed_dup_clusters(
            rd.from_arrow(tbl), threshold=0.95, method="lsh",
            dim=16, n_planes=0, n_tables=2,
        )
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(bc, fp)


def test_knn_graph_matches_bruteforce(ray_session):
    from dupers_ray.stages.embed import knn_graph

    rng = np.random.default_rng(3)
    n, d, k = 60, 8, 4
    mat = rng.normal(size=(n, d)).astype(np.float32)
    mat[7] = mat[3]  # exact duplicate vector: ties + self-exclusion edge
    ids = np.arange(100, 100 + n, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, r)) for r in mat]),
    })
    out = (
        knn_graph(rd.from_arrow(tbl).repartition(4), k=k)
        .to_pandas().sort_values(["query_id", "score", "vec_id"],
                                 ascending=[True, False, True])
    )
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    scores = nm.astype(np.float64) @ nm.astype(np.float64).T
    for qi in range(n):
        s = scores[qi].copy()
        s[qi] = -2  # exclude self
        order = np.lexsort((ids, -s))[:k]
        got = out[out.query_id == ids[qi]]
        assert got.vec_id.tolist() == ids[order].tolist(), qi
        assert len(got) == k


def test_knn_graph_ivf_fullprobe_equals_exact(ray_session):
    from dupers_ray.stages.embed import knn_graph, knn_graph_ivf

    rng = np.random.default_rng(7)
    n, d, k = 80, 8, 4
    mat = rng.normal(size=(n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, r)) for r in mat]),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    exact = knn_graph(ds, k=k).to_pandas()
    ivf = knn_graph_ivf(ds, k=k, n_cells=8, n_probe=8).to_pandas()

    def key(df):
        return {q: sorted(zip(g.vec_id, g.score.round(9)))
                for q, g in df.groupby("query_id")}

    ex, iv = key(exact), key(ivf)
    assert set(ex) == set(iv)
    for q in ex:
        assert [v for v, _ in ex[q]] == [v for v, _ in iv[q]], q


def test_knn_graph_ivf_recall(ray_session):
    from dupers_ray.stages.embed import knn_graph, knn_graph_ivf

    rng = np.random.default_rng(9)
    n, d, k = 300, 16, 5
    # clustered data so IVF cells are meaningful
    centers = rng.normal(size=(6, d)).astype(np.float32) * 3
    mat = (centers[rng.integers(0, 6, n)]
           + rng.normal(size=(n, d)).astype(np.float32))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat]),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    exact = knn_graph(ds, k=k).to_pandas()
    ivf = knn_graph_ivf(ds, k=k, n_cells=12, n_probe=4).to_pandas()
    ex = {q: set(g.vec_id) for q, g in exact.groupby("query_id")}
    iv = {q: set(g.vec_id) for q, g in ivf.groupby("query_id")}
    hits = sum(len(ex[q] & iv.get(q, set())) for q in ex)
    recall = hits / sum(len(v) for v in ex.values())
    assert recall >= 0.8, recall


def test_topk_cosine_sq8_equals_exact():
    """SQ8 candidate generation + exact rescoring must reproduce the
    exact operator's output at the fixture scale (the driver oracle
    contract); quantization roundtrip error is pinned."""
    import numpy as np
    import ray.data as rd

    from dupers_ray.stages.embed import quantize_sq8, topk_cosine, topk_cosine_sq8

    rng = np.random.default_rng(11)
    n, d = 400, 32
    emb = rng.standard_normal((n, d)).astype(np.float32)
    q8, s = quantize_sq8(emb)
    back = q8.astype(np.float32) * s
    err = np.abs(back - emb).max() / np.abs(emb).max()
    assert err < 0.01 and q8.dtype == np.int8

    import pyarrow as pa

    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    qm = emb[:6]
    a = topk_cosine(ds, qm, k=8).to_pandas()
    b = topk_cosine_sq8(
        rd.from_arrow(tbl).repartition(4), qm, k=8
    ).to_pandas()
    key = ["query_id", "vec_id"]
    assert a[key].sort_values(key).values.tolist() == \
        b[key].sort_values(key).values.tolist()
