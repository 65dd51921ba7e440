"""Near-dedup end-to-end: recall vs planted ground truth, components
equivalence (driver vs distributed), determinism across partitioning.

Conformance target: dup-pair recall >= 0.99 (BASELINE.json:metric) on the
synthetic corpus at the default shingle/signature config.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from dupers_ray.config import DedupConfig
from dupers_ray.pipelines.components import (
    components_distributed,
    components_driver,
)
from dupers_ray.pipelines.dupe import dupe_clusters
from dupers_ray.pipelines.near_dedup import near_dup_edges


def _truth_pairs(truth: pa.Table) -> set[tuple[str, str]]:
    """All same-cluster url pairs for planted exact+near clusters."""
    by_cluster = defaultdict(list)
    for url, cid, kind in zip(
        truth["url"].to_pylist(), truth["cluster_id"].to_pylist(), truth["kind"].to_pylist()
    ):
        if kind in ("exact", "near"):
            by_cluster[cid].append(url)
    pairs = set()
    for urls in by_cluster.values():
        urls = sorted(urls)
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pairs.add((urls[i], urls[j]))
    return pairs


def test_cluster_recall(pages_small):
    ds = rd.from_arrow(pages_small.pages).repartition(8)
    clusters = dupe_clusters(ds, DedupConfig()).to_pandas()
    cid = dict(zip(clusters["url"], clusters["cluster_id"]))

    expected = _truth_pairs(pages_small.truth)
    assert expected, "corpus must plant dup pairs"
    found = sum(1 for a, b in expected if cid.get(a) == cid.get(b))
    recall = found / len(expected)
    assert recall >= 0.99, f"recall {recall:.3f} < 0.99 ({found}/{len(expected)})"

    # precision guard: unique docs must NOT collapse together
    uniq_urls = [
        u
        for u, k in zip(
            pages_small.truth["url"].to_pylist(), pages_small.truth["kind"].to_pylist()
        )
        if k == "unique"
    ]
    uniq_cids = [cid[u] for u in uniq_urls if u in cid]
    assert len(set(uniq_cids)) == len(uniq_cids), "unique docs merged spuriously"

    # every input row got an assignment
    assert len(clusters) == pages_small.pages.num_rows


def test_components_driver_vs_distributed():
    edges = rd.from_items(
        [
            {"src": 10, "dst": 20},
            {"src": 20, "dst": 30},   # chain: {10,20,30}
            {"src": 50, "dst": 40},   # {40,50}
            {"src": 100, "dst": 100},  # self loop
            {"src": 7, "dst": 30},    # joins 7 into first comp
        ]
    ).map_batches(
        lambda t: pa.table(
            {
                "src": t.column("src").cast(pa.uint64()),
                "dst": t.column("dst").cast(pa.uint64()),
            }
        ),
        batch_format="pyarrow",
    )
    drv = components_driver(edges)
    dist = components_distributed(edges, num_partitions=4).to_pandas()

    d1 = dict(zip(drv["node"].to_pylist(), drv["cluster_id"].to_pylist()))
    d2 = dict(zip(dist["node"].astype(np.uint64), dist["cluster_id"].astype(np.uint64)))
    assert d1 == d2
    assert d1[7] == d1[10] == d1[20] == d1[30] == 7
    assert d1[40] == d1[50] == 40


def test_components_distributed_long_chain_converges():
    """Pointer jumping: a path graph with diameter >> max_rounds must still
    converge to ONE component (the old one-hop-per-round loop silently
    split any component with diameter > rounds)."""
    n = 3000
    rng = np.random.default_rng(9)
    ids = rng.permutation(np.arange(1, n + 1)).astype(np.uint64)  # shuffled chain
    edges = rd.from_arrow(
        pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    ).repartition(8)
    dist = components_distributed(edges, num_partitions=8).to_pandas()
    cids = set(dist["cluster_id"].astype(np.uint64))
    assert cids == {1}, f"chain split into {len(cids)} components"
    assert len(dist) == n


def test_components_distributed_raises_on_nonconvergence():
    n = 300
    ids = np.arange(1, n + 1).astype(np.uint64)
    edges = rd.from_arrow(
        pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    )
    import pytest

    with pytest.raises(RuntimeError, match="did not converge"):
        components_distributed(edges, num_partitions=4, max_rounds=2)


def test_edges_deterministic_across_partitioning(pages_small):
    cfg = DedupConfig()
    res = []
    for parts in (3, 11):
        ds = rd.from_arrow(pages_small.pages).repartition(parts)
        edges, _ = near_dup_edges(
            ds, shingle=cfg.shingle, minhash=cfg.minhash
        )
        df = (
            edges.to_pandas()[["src", "dst"]]
            .astype(np.uint64)
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        res.append(df)
    pd.testing.assert_frame_equal(res[0], res[1])


def test_near_edges_find_near_not_just_exact(pages_small):
    cfg = DedupConfig()
    ds = rd.from_arrow(pages_small.pages)
    edges, sigs = near_dup_edges(ds, shingle=cfg.shingle, minhash=cfg.minhash)
    e = edges.to_pandas()
    assert (e["jaccard"] <= 1.0).all() and (e["jaccard"] >= cfg.minhash.jaccard_threshold).all()
    # map node→kind; near pairs must appear with jaccard < 1 (edited docs)
    s = sigs.select_columns(["url", "node"]).to_pandas()
    node_kind = dict(
        zip(
            s["node"].astype(np.uint64),
            pd.Series(
                dict(
                    zip(
                        pages_small.truth["url"].to_pylist(),
                        pages_small.truth["kind"].to_pylist(),
                    )
                )
            )[s["url"]].tolist(),
        )
    )
    near_edge = [
        j
        for srcn, dstn, j in zip(
            e["src"].astype(np.uint64), e["dst"].astype(np.uint64), e["jaccard"]
        )
        if node_kind.get(srcn) == "near" and node_kind.get(dstn) == "near" and j < 0.999
    ]
    assert near_edge, "no strictly-near (non-exact) edges found"


def test_dup_recall_report_query_exact_values(ray_session):
    """The driver-visible conformance artifact (rows-only query) must
    report the exact deterministic numbers: 479 planted pairs, all
    found, recall 1.0 at the default config."""
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    df = e.queries()["dup_recall_report"]("/root/testdata/sf0.001")
    assert df.to_dict("records") == [{
        "n_docs": 2000, "planted_pairs": 479, "found_pairs": 479,
        "recall_ppm": 1_000_000,
    }]


def test_pair_similarity_histogram_consistency(pages_small):
    """Σ n_pairs == distinct index candidate pairs, and the mass at
    buckets >= threshold equals the verified edge count there."""
    import numpy as np
    import ray.data as rd

    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.near_dedup import (
        minhash_signatures, pair_similarity_histogram, verify_pairs,
    )
    from dupers_ray.stages.bucket_index import candidate_pairs_index

    t = pages_small.pages.select(["url", "text"])
    ds = rd.from_arrow(t).repartition(6)
    cfg = MinHashConfig()
    hist = {r["bucket"]: r["n_pairs"]
            for r in pair_similarity_histogram(ds).take_all()}
    assert hist and sum(hist.values()) > 0

    sigs = minhash_signatures(ds, minhash=cfg).materialize()
    pairs = candidate_pairs_index(sigs, minhash=cfg).materialize()
    n_cand = len({(r["src"], r["dst"]) for r in pairs.take_all()})
    assert sum(hist.values()) == n_cand

    # mass at a BUCKET-ALIGNED threshold equals verify's edge count
    # there: jac >= 0.5 <=> matches >= 64 <=> bucket >= 8 exactly
    from dataclasses import replace

    edges = verify_pairs(
        pairs, sigs, minhash=replace(cfg, jaccard_threshold=0.5)
    ).take_all()
    n_edges = len({(r["src"], r["dst"]) for r in edges})
    assert sum(n for b, n in hist.items() if b >= 8) == n_edges


def test_bucket_size_histogram(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.near_dedup import (
        bucket_size_histogram, explode_bands, minhash_signatures,
    )

    texts = (["identical words all the way down " * 4] * 3
             + [f"unique document number {i} with its own words {i*7}"
                for i in range(20)])
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    cfg = MinHashConfig()
    sigs = minhash_signatures(
        rd.from_arrow(docs), minhash=cfg, id_col="doc_id").materialize()
    hist = bucket_size_histogram(
        sigs, minhash=cfg, id_col="doc_id").to_pandas()
    # independent reference: pandas over the exploded band rows
    bands = sigs.map_batches(
        explode_bands,
        fn_kwargs={"bands": cfg.bands, "rows": cfg.rows, "id_col": "doc_id"},
        batch_format="pyarrow",
    ).to_pandas()
    exp = (bands.groupby("band_hash").size().value_counts()
           .rename_axis("bucket_size").reset_index(name="n_buckets")
           .sort_values("bucket_size").reset_index(drop=True))
    got = hist.sort_values("bucket_size").reset_index(drop=True)
    assert got.bucket_size.tolist() == exp.bucket_size.tolist()
    assert got.n_buckets.tolist() == exp.n_buckets.tolist()
    # the 3 identical docs share every band: a size-3 bucket per band
    assert got[got.bucket_size == 3].n_buckets.sum() >= cfg.bands


class TestWindowedNearPairs:
    """windowed_near_pairs == brute-force (band match AND |dt| <= W),
    including pairs straddling an epoch boundary (the probe-replica
    path) and band-matching pairs farther than one window apart."""

    def _brute(self, ids, texts, ts, window_us):
        from dupers_ray.config import MinHashConfig, ShingleConfig
        from dupers_ray.stages.minhash import MinHasher, mix_rows_u64

        mh = MinHasher(ShingleConfig(), MinHashConfig(),
                       id_col="doc_id", text_col="text")
        sig, n_sh = mh.signatures(list(texts))
        keep = n_sh > 0
        kids = np.asarray(ids)[keep]
        kts = np.asarray(ts)[keep]
        cfg = MinHashConfig()
        d = len(kids)
        mat = sig.reshape(d, cfg.bands, cfg.rows).astype(np.uint64)
        bh = np.empty((d, cfg.bands), np.uint64)
        with np.errstate(over="ignore"):
            for b in range(cfg.bands):
                bh[:, b] = mix_rows_u64(mat[:, b, :] + np.uint64(b + 1))
        want = {}
        for i in range(d):
            for j in range(i + 1, d):
                dt = abs(int(kts[i]) - int(kts[j]))
                if dt <= window_us and (bh[i] == bh[j]).any():
                    a, b2 = sorted((int(kids[i]), int(kids[j])))
                    want[(a, b2)] = dt
        return want

    def test_matches_bruteforce_across_epochs(self, ray_session):
        from dupers_ray.pipelines.near_dedup import windowed_near_pairs

        rng = np.random.default_rng(7)
        base = [
            " ".join(f"w{int(x)}" for x in rng.integers(0, 50, 60))
            for _ in range(8)
        ]
        texts, ts, ids = [], [], []
        W = 1_000_000  # 1 s window
        n = 0
        for gi, t in enumerate(base):
            # near-identical variants scattered so some pairs land in one
            # epoch, some straddle a boundary, some exceed the window
            for vi, off in enumerate(
                [0, W // 3, W - 1, W + 1, 3 * W + gi * 17]
            ):
                words = t.split()
                words[vi] = f"v{gi}_{vi}"
                texts.append(" ".join(words))
                ts.append(10 * W * gi + off)
                ids.append(n)
                n += 1
        texts.append("")  # token-less doc must be dropped, not crash
        ts.append(0)
        ids.append(n)
        want = self._brute(ids, texts, ts, W)
        assert want, "fixture must produce at least one windowed pair"
        # at least one pair must straddle an epoch boundary (dt<=W but
        # different epochs) to exercise the probe-replica path
        straddle = [
            (a, b) for (a, b), dt in want.items()
            if (ts[a] // W) != (ts[b] // W)
        ]
        assert straddle, "fixture must exercise the cross-epoch path"
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "ts_us": pa.array(ts, pa.int64()),
            "text": pa.array(texts, pa.string()),
        })).repartition(3)
        got = {
            (r["src_id"], r["dst_id"]): r["dt_us"]
            for r in windowed_near_pairs(ds, window_us=W).take_all()
        }
        assert got == want

    def test_accepts_timestamp_column(self, ray_session):
        from dupers_ray.pipelines.near_dedup import windowed_near_pairs

        t = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        tbl = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "ts_us": pa.array([1_000_000, 1_500_000], pa.timestamp("us")),
            "text": pa.array([t, t]),
        })
        got = windowed_near_pairs(
            rd.from_arrow(tbl), window_us=1_000_000
        ).take_all()
        assert [(r["src_id"], r["dst_id"], r["dt_us"]) for r in got] == [
            (1, 2, 500_000)
        ]


def test_verify_full_compare_rejects_u2_store():
    """compare='full' on a uint16-fold store would silently BE fold16;
    it must raise instead (round-4 review)."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.near_dedup import verify_pairs
    from dupers_ray.stages.minhash import pack_sig

    cfg = MinHashConfig()
    sig = np.arange(cfg.num_perm * 2, dtype=np.uint32).reshape(2, -1)
    packed = pack_sig(sig, "u2")
    sigs = rd.from_arrow(pa.table({
        "node": pa.array([1, 2], pa.uint64()),
        "sig": pa.array([packed[0].tobytes(), packed[1].tobytes()],
                        pa.binary()),
    }))
    pairs = rd.from_arrow(pa.table({
        "src": pa.array([1], pa.uint64()),
        "dst": pa.array([2], pa.uint64()),
    }))
    with pytest.raises(Exception, match="sig_store='u4'"):
        verify_pairs(pairs, sigs, minhash=cfg, strategy="join",
                     compare="full").to_pandas()
