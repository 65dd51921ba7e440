"""Tiered dedup attribution (pipelines/tiers.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from dupers_ray.config import DedupConfig
from dupers_ray.pipelines.tiers import dedup_tiers, tier_summary

W = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _corpus():
    rng = np.random.default_rng(5)
    base = " ".join(rng.choice(W, 100))
    toks = base.split()
    toks[3] = "zz"
    near = " ".join(toks)
    return pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": [
            base,                           # 0 keeper of everything
            base,                           # 1 exact dup of 0
            base.upper(),                   # 2 normalized dup (case only)
            base + "!!!",                   # 3 normalized dup (punct)
            near,                           # 4 near dup of 0
            " ".join(rng.choice(W, 100)),   # 5 unrelated
            "", None,                       # 6,7 empty -> kept
            "!!!",                          # 8 normalizes to '' -> kept
            near,                           # 9 exact dup of 4
        ],
    })


EXPECTED = {0: "kept", 1: "exact", 2: "normalized", 3: "normalized",
            4: "near", 5: "kept", 6: "kept", 7: "kept", 8: "kept",
            9: "exact"}


def test_dedup_tiers_planted(ray_session):
    out = dedup_tiers(
        rd.from_arrow(_corpus()).repartition(3),
        DedupConfig(id_col="doc_id", text_col="text"),
    ).to_pandas()
    assert dict(zip(out.doc_id, out.tier)) == EXPECTED


def test_dedup_tiers_partitioning_invariant(ray_session):
    cfg = DedupConfig(id_col="doc_id", text_col="text")
    a = dedup_tiers(rd.from_arrow(_corpus()), cfg).to_pandas()
    b = dedup_tiers(rd.from_arrow(_corpus()).repartition(7), cfg).to_pandas()
    assert dict(zip(a.doc_id, a.tier)) == dict(zip(b.doc_id, b.tier))


def test_dedup_tiers_shuffle_fallback_matches_broadcast(ray_session,
                                                         force_cogroup):
    """The forced cogroup routes (survivor anti-join, the near tier's
    pair verify, cluster assignment and near-label overlay) give labels
    identical to the broadcast routes."""
    cfg = DedupConfig(id_col="doc_id", text_col="text")
    a = dedup_tiers(rd.from_arrow(_corpus()), cfg).to_pandas()
    calls = force_cogroup()
    b = dedup_tiers(rd.from_arrow(_corpus()), cfg).to_pandas()
    assert calls == {"membership": 2, "lookup": 1, "pair": 2}
    assert dict(zip(a.doc_id, a.tier)) == dict(zip(b.doc_id, b.tier))


def test_tier_summary(ray_session):
    out = dedup_tiers(
        rd.from_arrow(_corpus()),
        DedupConfig(id_col="doc_id", text_col="text"),
    )
    s = tier_summary(out).to_pandas()
    got = dict(zip(s.tier, s.n_docs))
    assert got == {"kept": 5, "exact": 2, "normalized": 2, "near": 1}


def test_dedup_tiers_incremental_equals_full(ray_session):
    from dupers_ray.pipelines.tiers import (
        dedup_tiers, dedup_tiers_incremental, fused_tier_scan,
    )

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    docs = rd.from_arrow(_corpus()).repartition(3)

    def third(t):
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 == 0))

    stored = fused_tier_scan(
        docs.map_batches(third, batch_format="pyarrow"), cfg
    )
    inc, fused = dedup_tiers_incremental(docs, stored, cfg)
    full = dedup_tiers(docs, cfg).to_pandas()
    inc = inc.to_pandas()
    assert dict(zip(inc.doc_id, inc.tier)) == dict(zip(full.doc_id, full.tier))
    assert fused.count() == 10  # store grew to cover the whole corpus


def test_dedup_tiers_incremental_reuses_store(ray_session):
    """Poison a stored doc's digest pair: if the engine re-scanned stored
    docs the poison would vanish; instead the poisoned exact group must
    drive the labels — proof the store is trusted, not recomputed."""
    import numpy as np

    from dupers_ray.pipelines.tiers import (
        dedup_tiers_incremental, fused_tier_scan,
    )

    cfg = DedupConfig(id_col="doc_id", text_col="text")
    docs = rd.from_arrow(_corpus()).repartition(2)

    def doc1_only(t):
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids == 1))

    stored = fused_tier_scan(
        docs.map_batches(doc1_only, batch_format="pyarrow"), cfg
    )

    def poison(t: pa.Table) -> pa.Table:
        # break doc 1's exact-dup relation to doc 0
        n = len(t)
        t = t.set_column(
            t.column_names.index("digest_u64"), "digest_u64",
            pa.array(np.full(n, 12345, np.uint64)),
        )
        return t.set_column(
            t.column_names.index("digest_u64b"), "digest_u64b",
            pa.array(np.full(n, 678, np.uint64)),
        )

    poisoned = stored.map_batches(poison, batch_format="pyarrow")
    inc, _ = dedup_tiers_incremental(docs, poisoned, cfg)
    got = dict(zip(*(lambda d: (d.doc_id, d.tier))(inc.to_pandas())))
    # doc 1 no longer exact-dups doc 0 — but it still normalizes to the
    # same text, so the cascade now removes it at the NORMALIZED tier
    assert got[1] == "normalized"


def test_dedup_tiers_semantic_planted(ray_session):
    from dupers_ray.pipelines.tiers import dedup_tiers_semantic

    rng = np.random.default_rng(5)
    base = " ".join(rng.choice(W, 100))
    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": [base, base,                     # 1 exact dup
                 " ".join(rng.choice(W, 100)),   # 2 unrelated text
                 " ".join(rng.choice(W, 100)),   # 3 text-unique, emb-dup of 2
                 " ".join(rng.choice(W, 100)),   # 4 unrelated
                 ""],                            # 5 empty -> kept
    })

    def v(seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=8)
        return list(x / np.linalg.norm(x))

    emb = pa.table({
        "vec_id": pa.array([0, 2, 3, 4], pa.int64()),
        "embedding": pa.array([v(1), v(2), v(2), v(3)]),
    })
    out = dedup_tiers_semantic(
        rd.from_arrow(docs).repartition(2), rd.from_arrow(emb),
        DedupConfig(id_col="doc_id", text_col="text"),
        cosine_threshold=0.95, method="broadcast",
    ).to_pandas()
    got = dict(zip(out.doc_id, out.tier))
    assert got == {0: "kept", 1: "exact", 2: "kept", 3: "semantic",
                   4: "kept", 5: "kept"}


def test_tier_source_summary(ray_session):
    from dupers_ray.pipelines.tiers import dedup_tiers, tier_source_summary

    t = _corpus().append_column(
        "source", pa.array([f"s{(i) % 2}" for i in range(10)], pa.string())
    )
    cfg = DedupConfig(id_col="doc_id", text_col="text")
    labels = dedup_tiers(rd.from_arrow(t).select_columns(["doc_id", "text"]), cfg)
    out = tier_source_summary(labels, rd.from_arrow(t)).to_pandas()
    got = {(r.tier, r.source): r.n_docs for r in out.itertuples()}
    exp_counter: dict = {}
    for i, tier in EXPECTED.items():
        k = (tier, f"s{i % 2}")
        exp_counter[k] = exp_counter.get(k, 0) + 1
    assert got == exp_counter


def test_tier_budget_plan_arithmetic_and_join_parity(ray_session,
                                                     force_cogroup):
    """4-row plan: survivors after each cascade prefix, integer budget,
    meets flags; the forced cogroup route (joins.BROADCAST_ROWS = 0) must
    equal the broadcast route exactly."""
    from dupers_ray.pipelines.tiers import tier_budget_plan

    tbl = _corpus()
    w = pa.array(
        [len(t) if t is not None else 0 for t in tbl.column("text").to_pylist()],
        pa.int64(),
    )
    tbl = tbl.append_column("n_chars", w)
    cfg = DedupConfig(id_col="doc_id", text_col="text")

    out = tier_budget_plan(
        rd.from_arrow(tbl), cfg, weight_col="n_chars", budget_ppm=500_000,
    ).to_pandas()
    wv = dict(zip(tbl.column("doc_id").to_pylist(), w.to_pylist()))
    total_w = sum(wv.values())
    removed_by = {"exact": [1, 9], "normalized": [2, 3], "near": [4]}
    exp_surv_d = [10, 8, 6, 5]
    cut = 0
    exp_surv_w = [total_w]
    for t in ("exact", "normalized", "near"):
        cut += sum(wv[i] for i in removed_by[t])
        exp_surv_w.append(total_w - cut)
    assert list(out["tiers_applied"]) == [0, 1, 2, 3]
    assert list(out["tier"]) == ["none", "exact", "normalized", "near"]
    assert list(out["n_docs_surviving"]) == exp_surv_d
    assert list(out["n_chars_surviving"]) == exp_surv_w
    budget = total_w * 500_000 // 1_000_000
    assert (out["budget"] == budget).all()
    assert list(out["meets_budget"]) == [s <= budget for s in exp_surv_w]

    calls = force_cogroup()
    forced = tier_budget_plan(
        rd.from_arrow(tbl), cfg, weight_col="n_chars", budget_ppm=500_000,
    ).to_pandas()
    assert calls["lookup"] >= 1, calls
    assert forced.equals(out)


def test_fused_scan_honors_sig_store_u2(ray_session):
    """The u2 bandwidth knob must not silently no-op on the cascade path
    (round-4 review): fused sig binaries carry num_perm uint16s."""
    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.tiers import fused_tier_scan

    cfg = DedupConfig(id_col="doc_id", text_col="text",
                      minhash=MinHashConfig(sig_store="u2"))
    fused = fused_tier_scan(rd.from_arrow(_corpus()), cfg, with_simhash=False)
    widths = {
        len(v) for v in fused.to_pandas()["sig"] if v is not None
    }
    assert widths == {cfg.minhash.num_perm * 2}
    # and the labels still match the planted expectation (fold16 verify)
    out = dedup_tiers(rd.from_arrow(_corpus()), cfg).to_pandas()
    assert dict(zip(out.doc_id, out.tier)) == EXPECTED


def test_tier_budget_plan_weight_col_names_output(ray_session):
    """--weight-col n_tokens must label the surviving-mass column after
    the weight column, not 'n_chars' (ADVICE r4)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from dupers_ray.pipelines.tiers import tier_budget_plan

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(8, dtype=np.int64)),
        "text": pa.array([f"doc body {i % 4} words here" for i in range(8)]),
        "n_tokens": pa.array(np.full(8, 5, np.int64)),
    }))
    from dupers_ray.config import DedupConfig

    plan = tier_budget_plan(
        docs, DedupConfig(id_col="doc_id"), weight_col="n_tokens"
    )
    assert "n_tokens_surviving" in plan.column_names
    assert "n_chars_surviving" not in plan.column_names
