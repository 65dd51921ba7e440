"""Hot-bucket (boilerplate) skew: a bucket holding hundreds of
near-identical docs must still yield one connected cluster."""

from __future__ import annotations

import numpy as np
import ray.data as rd

from dupers_ray.config import DedupConfig
from dupers_ray.pipelines.dupe import dupe_clusters


def _boiler_corpus(n_hot=400, n_unique=100, seed=11):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(3000)]
    template = list(rng.choice(words, 400))
    rows = []
    for i in range(n_hot):
        toks = list(template)
        for p in rng.choice(len(toks), 2, replace=False):  # 0.5% edits → J≈0.95
            toks[p] = f"edit{i}_{p}"
        rows.append({"url": f"hot/{i:05d}", "text": " ".join(toks)})
    for i in range(n_unique):
        rows.append(
            {"url": f"uniq/{i:05d}",
             "text": " ".join(rng.choice(words, 200))}
        )
    return rows


def test_hot_bucket_cluster_connectivity():
    """400 boilerplate docs share most band buckets: the uncapped index
    star-pairs every member to its bucket's min node, so the group is ONE
    cluster and no unique doc joins it."""
    rows = _boiler_corpus(n_hot=400, n_unique=100)
    ds = rd.from_items(rows).repartition(8)
    out = dupe_clusters(ds, DedupConfig()).to_pandas()
    hot = out[out.url.str.startswith("hot/")]
    assert hot["cluster_id"].nunique() == 1, (
        f"hot docs split into {hot['cluster_id'].nunique()} clusters"
    )
    uniq = out[out.url.str.startswith("uniq/")]
    assert uniq["cluster_id"].nunique() == len(uniq)
