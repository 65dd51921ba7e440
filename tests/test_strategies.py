"""Cross-strategy equivalence: every alternative execution path must
produce identical results to its default counterpart on the same input.

- verify_pairs: broadcast (small-corpus) vs cogroup (10^12-doc path)
- candidate generation: sharded index vs a driver-side brute-force star
  pair set over the same band rows
- connected components: driver union-find vs distributed label propagation
  on REAL near-dup edges (toy graphs are covered in test_near_dedup)
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from dupers_ray.config import DedupConfig, MinHashConfig
from dupers_ray.pipelines.components import components_distributed, components_driver
from dupers_ray.pipelines.near_dedup import minhash_signatures, verify_pairs
from dupers_ray.stages.bucket_index import candidate_pairs_index
from dupers_ray.stages.minhash import explode_bands


def _pairs_set(df: pd.DataFrame, cols=("src", "dst")) -> set[tuple[int, int]]:
    return set(
        zip(df[cols[0]].astype(np.uint64), df[cols[1]].astype(np.uint64))
    )


def test_verify_join_equals_broadcast(pages_small, force_cogroup):
    """Both routes of the pair gather compare the same uint16 folds, so
    edges AND jaccard estimates are identical."""
    cfg = MinHashConfig()
    sigs = minhash_signatures(
        rd.from_arrow(pages_small.pages), minhash=cfg
    ).materialize()
    pairs = candidate_pairs_index(sigs, minhash=cfg).materialize()
    bc = verify_pairs(pairs, sigs, minhash=cfg).to_pandas()
    calls = force_cogroup()
    jn = verify_pairs(pairs, sigs, minhash=cfg).to_pandas()
    assert calls["pair"] == 2
    assert _pairs_set(bc) == _pairs_set(jn)
    assert len(bc) > 0

    def scores(df):
        return {(int(s), int(d)): j for s, d, j in
                zip(df.src.astype(np.uint64), df.dst.astype(np.uint64),
                    df.jaccard)}

    assert scores(bc) == scores(jn)


def test_index_candidates_equal_bruteforce(pages_small):
    """Index pairs == star pairs (min-node anchor → every other member) of
    every band bucket, computed on the driver from explode_bands rows."""
    cfg = MinHashConfig()
    sigs = minhash_signatures(
        rd.from_arrow(pages_small.pages), minhash=cfg, with_digests=True
    ).materialize()
    via_index = _pairs_set(candidate_pairs_index(sigs, minhash=cfg).to_pandas())

    bands = explode_bands(
        pa.concat_tables(ray.get(sigs.to_arrow_refs())),
        bands=cfg.bands, rows=cfg.rows, id_col="url",
    )
    buckets = defaultdict(set)
    for bh, node in zip(bands.column("band_hash").to_pylist(),
                        bands.column("node").to_pylist()):
        buckets[bh].add(node)
    brute = {
        (min(m), n) for m in buckets.values() for n in m if n != min(m)
    }
    assert via_index == brute
    assert len(via_index) > 0


def test_components_strategies_agree_on_real_edges(pages_small):
    from dupers_ray.pipelines.near_dedup import near_dup_edges

    cfg = DedupConfig()
    edges, _ = near_dup_edges(
        rd.from_arrow(pages_small.pages), shingle=cfg.shingle, minhash=cfg.minhash
    )
    edges = edges.select_columns(["src", "dst"]).materialize()
    drv = components_driver(edges)
    dist = components_distributed(edges, num_partitions=8).to_pandas()
    d1 = dict(zip(drv["node"].to_pylist(), drv["cluster_id"].to_pylist()))
    d2 = dict(
        zip(dist["node"].astype(np.uint64), dist["cluster_id"].astype(np.uint64))
    )
    assert d1 == d2
    assert len(d1) > 50  # real clusters present
