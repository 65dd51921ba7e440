"""Incremental flagship (`dupe_clusters_incremental`) — the near-dup
analogue of dupers' walkCompare/`up` (pkg/dupe/dupe.go:940-966):

1. incremental clustering over stored ∪ fresh signatures must equal a
   full recompute (both anti-join paths: broadcast and shuffle);
2. stored signatures must be REUSED, never re-derived from text — proved
   by perturbing a stored signature and observing the perturbation
   survive into the updated store;
3. the CLI `near --sigs` round trip: first run writes the store, second
   run is incremental and clusters a grown corpus correctly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from dupers_ray.config import DedupConfig
from dupers_ray.pipelines.dupe import dupe_clusters, dupe_clusters_incremental
from dupers_ray.pipelines.near_dedup import minhash_signatures


def _clusters_df(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("url").reset_index(drop=True)


def _split(pages: pa.Table):
    """Deterministic old/new split: every 3rd row is 'stored'."""
    idx = np.arange(pages.num_rows)
    return pages.filter(pa.array(idx % 3 == 0)), pages


def test_incremental_equals_full(pages_small):
    cfg = DedupConfig()
    stored_pages, all_pages = _split(pages_small.pages)
    stored = minhash_signatures(
        rd.from_arrow(stored_pages), shingle=cfg.shingle, minhash=cfg.minhash,
        with_digests=True,
    )
    corpus = rd.from_arrow(all_pages).select_columns(["url", "text"])
    inc, sigs = dupe_clusters_incremental(corpus, stored, cfg)
    full = dupe_clusters(corpus, cfg)
    pd.testing.assert_frame_equal(_clusters_df(inc), _clusters_df(full))
    # updated store covers every doc with tokenizable text exactly once
    # (empty-text docs have no signature row — ErrFileEmpty parity)
    s = sigs.to_pandas()
    expected = sorted(
        u
        for u, t in zip(
            all_pages.column("url").to_pylist(),
            all_pages.column("text").to_pylist(),
        )
        if t  # non-null, non-empty
    )
    assert sorted(s.url) == expected


def test_incremental_shuffle_path_equals_broadcast(pages_small, force_cogroup):
    cfg = DedupConfig()
    stored_pages, all_pages = _split(pages_small.pages)
    stored = minhash_signatures(
        rd.from_arrow(stored_pages), shingle=cfg.shingle, minhash=cfg.minhash,
        with_digests=True,
    ).materialize()
    corpus = rd.from_arrow(all_pages).select_columns(["url", "text"])
    bc, _ = dupe_clusters_incremental(corpus, stored, cfg)
    bc = _clusters_df(bc)
    calls = force_cogroup()
    sh, _ = dupe_clusters_incremental(corpus, stored, cfg)
    # known-id filter and cluster assignment both took the cogroup route
    pd.testing.assert_frame_equal(bc, _clusters_df(sh))
    assert calls == {"lookup": 1, "membership": 1, "pair": 2}


def test_stored_signatures_are_reused_not_recomputed(pages_small):
    """Flip one stored doc's signature bytes; if the incremental path
    re-hashed stored docs the flip would vanish. It must survive."""
    cfg = DedupConfig()
    stored_pages, all_pages = _split(pages_small.pages)
    stored_tbl = (
        minhash_signatures(
            rd.from_arrow(stored_pages), shingle=cfg.shingle,
            minhash=cfg.minhash, with_digests=True,
        )
        .to_pandas()
    )
    victim = stored_tbl.url.iloc[0]
    poisoned = bytes(b ^ 0xFF for b in stored_tbl.sig.iloc[0])
    stored_tbl.loc[stored_tbl.url == victim, "sig"] = [poisoned]
    stored = rd.from_pandas(stored_tbl)

    _, sigs = dupe_clusters_incremental(
        rd.from_arrow(all_pages).select_columns(["url", "text"]), stored, cfg
    )
    out = sigs.to_pandas().set_index("url")
    assert bytes(out.loc[victim, "sig"]) == poisoned  # reused, not re-hashed
    # and fresh rows were still computed for the non-stored docs
    # (empty-text docs never get a signature row)
    fresh_urls = {
        u
        for u, t in zip(
            all_pages.column("url").to_pylist(),
            all_pages.column("text").to_pylist(),
        )
        if t
    } - set(stored_tbl.url)
    assert fresh_urls and fresh_urls <= set(out.index)


def test_cli_near_sigs_roundtrip(tmp_path):
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from dupers_ray.synth import synth_pages

    pages = synth_pages(n=120, seed=7).pages
    corpus1 = tmp_path / "corpus1.parquet"
    pq.write_table(pages.slice(0, 80), corpus1)
    corpus2 = tmp_path / "corpus2.parquet"
    pq.write_table(pages, corpus2)

    def n_sigable(tbl):  # docs with non-empty text get a signature row
        return sum(1 for t in tbl.column("text").to_pylist() if t)
    sigs = tmp_path / "sigs"
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"

    env_cmd = [sys.executable, "-m", "dupers_ray.cli"]
    r1 = subprocess.run(
        env_cmd + ["near", str(corpus1), "--sigs", str(sigs), "--out", str(out1)],
        capture_output=True, text=True, timeout=600,
    )
    assert r1.returncode == 0, r1.stderr[-2000:]
    assert sigs.is_dir()
    assert pq.read_table(sigs).num_rows == n_sigable(pages.slice(0, 80))

    r2 = subprocess.run(
        env_cmd + ["near", str(corpus2), "--sigs", str(sigs), "--out", str(out2)],
        capture_output=True, text=True, timeout=600,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    # store grew by exactly the delta
    assert pq.read_table(sigs).num_rows == n_sigable(pages)
    got = pq.read_table(out2).to_pandas()
    assert len(got) == pages.num_rows
    assert set(got.columns) == {"url", "cluster_id"}
