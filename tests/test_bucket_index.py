"""Sharded bucket index unit tests: pair emission vs brute force,
subkey bucketing, determinism across shard counts and block layouts, and
the session shard set's lifecycle (reuse, growth, close, stale adds, a
new Ray session)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from dupers_ray.config import MinHashConfig
from dupers_ray.stages import bucket_index
from dupers_ray.stages.bucket_index import (
    BucketIndexShard,
    all_candidate_pairs_index,
    candidate_pairs_index,
)
from dupers_ray.pipelines.near_dedup import minhash_signatures


def _brute_star_pairs(keys, nodes, subs=None):
    groups = defaultdict(set)
    subs = subs if subs is not None else [0] * len(keys)
    for k, n, s in zip(keys, nodes, subs):
        groups[(k, s)].add(n)
    out = set()
    for members in groups.values():
        if len(members) < 2:
            continue
        anchor = min(members)
        out.update((anchor, m) for m in members if m != anchor)
    return out


def test_shard_pairs_match_bruteforce():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, 500).astype(np.uint64)
    nodes = rng.choice(np.arange(1000, dtype=np.uint64), 500, replace=False)
    shard = BucketIndexShard.remote()
    # feed in chunks, out of order
    for lo in range(0, 500, 120):
        ray.get(shard.add.remote(keys[lo : lo + 120], nodes[lo : lo + 120]))
    t = ray.get(shard.pairs_table.remote())
    got = set(zip(t.column("src").to_pylist(), t.column("dst").to_pylist()))
    assert got == _brute_star_pairs(keys.tolist(), nodes.tolist())
    ray.kill(shard)


def test_shard_subkey_separates_buckets():
    keys = np.array([1, 1, 1, 1], np.uint64)
    subs = np.array([7, 7, 9, 9], np.uint64)
    nodes = np.array([10, 20, 30, 40], np.uint64)
    shard = BucketIndexShard.remote()
    ray.get(shard.add.remote(keys, nodes, subs))
    t = ray.get(shard.pairs_table.remote())
    got = set(zip(t.column("src").to_pylist(), t.column("dst").to_pylist()))
    # same key but different subkey must NOT pair
    assert got == {(10, 20), (30, 40)}
    ray.kill(shard)


def test_shard_spill_path_identical_and_bounded():
    """Above spill_rows the shard flushes radix-partitioned sorted runs to
    disk and resolves per sub-range; pairs must equal the in-memory path
    and the buffer must stay bounded (VERDICT round-1 'What's wrong #5')."""
    rng = np.random.default_rng(11)
    n = 20_000
    keys = rng.integers(0, 3_000, n).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    nodes = rng.choice(np.arange(5 * n, dtype=np.uint64), n, replace=False)

    spilled = BucketIndexShard.remote(spill_rows=1_000, n_sub=8)
    inmem = BucketIndexShard.remote(spill_rows=0)
    max_buffered = 0
    for lo in range(0, n, 700):
        ray.get(spilled.add.remote(keys[lo : lo + 700], nodes[lo : lo + 700]))
        ray.get(inmem.add.remote(keys[lo : lo + 700], nodes[lo : lo + 700]))
        max_buffered = max(max_buffered, ray.get(spilled.stats.remote())["buffered"])
    st = ray.get(spilled.stats.remote())
    assert st["spilled_runs"] > 0
    assert max_buffered < 1_000 + 700  # never holds more than threshold+batch
    a = ray.get(spilled.pairs_table.remote())
    b = ray.get(inmem.pairs_table.remote())
    got = set(zip(a.column("src").to_pylist(), a.column("dst").to_pylist()))
    exp = set(zip(b.column("src").to_pylist(), b.column("dst").to_pylist()))
    assert got == exp and len(got) > 0
    ray.kill(spilled)
    ray.kill(inmem)


def test_candidate_pairs_index_deterministic(pages_small):
    cfg = MinHashConfig()
    res = []
    for parts, shards in ((3, 2), (7, 5)):
        sigs = minhash_signatures(
            rd.from_arrow(pages_small.pages).repartition(parts),
            minhash=cfg, with_digests=True,
        ).materialize()
        p = candidate_pairs_index(sigs, minhash=cfg, n_shards=shards).to_pandas()
        res.append(
            set(zip(p["src"].astype(np.uint64), p["dst"].astype(np.uint64)))
        )
    assert res[0] == res[1]
    assert len(res[0]) > 0


def test_all_candidate_pairs_exact_side(pages_small):
    cfg = MinHashConfig()
    sigs = minhash_signatures(
        rd.from_arrow(pages_small.pages), minhash=cfg, with_digests=True
    ).materialize()
    _lsh, exact = all_candidate_pairs_index(sigs, minhash=cfg)
    e = exact.to_pandas()
    # exact pairs: groups of identical digests → same count as brute force
    import pandas as pd

    df = sigs.select_columns(["node", "digest"]).to_pandas()
    exp = _brute_star_pairs(df["digest"].tolist(), df["node"].astype(np.uint64).tolist())
    got = set(zip(e["src"].astype(np.uint64), e["dst"].astype(np.uint64)))
    assert got == exp and len(got) > 0


def test_failed_ingest_kills_shards(pages_small):
    """An ingest map that raises (here: no ``digest_u64b`` column) must
    not leave shard actors alive holding their buffers."""
    from ray._private.state import actors

    def live_shards() -> set[str]:
        # PENDING_CREATION counts: shards may still be starting when the
        # ingest map fails
        return {a["ActorID"] for a in actors().values()
                if a["ActorClassName"] == "BucketIndexShard"
                and a["State"] != "DEAD"}

    cfg = MinHashConfig()
    sigs = minhash_signatures(
        rd.from_arrow(pages_small.pages), minhash=cfg, with_digests=True
    ).drop_columns(["digest_u64b"]).materialize()
    before = live_shards()
    # excinfo keeps the traceback, and with it the actor handles in the
    # failed call's frame, referenced — as any caller holding the error
    # does — so only an explicit kill can stop the shards
    with pytest.raises(ray.exceptions.RayTaskError) as excinfo:
        all_candidate_pairs_index(sigs, minhash=cfg, n_shards=3)
    deadline = time.monotonic() + 30
    while live_shards() - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not live_shards() - before


def _live_shards() -> set[str]:
    from ray._private.state import actors

    return {a["ActorID"] for a in actors().values()
            if a["ActorClassName"] == "BucketIndexShard"
            and a["State"] != "DEAD"}


def _close_and_wait() -> None:
    """``close()``, then wait for the killed actors to be reported DEAD."""
    bucket_index.close()
    deadline = time.monotonic() + 30
    while _live_shards() and time.monotonic() < deadline:
        time.sleep(0.2)


def _pair_set(ds) -> set:
    p = ds.to_pandas()
    return set(zip(p["src"].astype(np.uint64), p["dst"].astype(np.uint64)))


@pytest.fixture(scope="module")
def fused_sigs(pages_small):
    return minhash_signatures(
        rd.from_arrow(pages_small.pages), minhash=MinHashConfig(),
        with_digests=True,
    ).materialize()


def test_calls_reuse_one_shard_set(fused_sigs):
    """Consecutive calls run on the same live actors: a call asking for
    more shards grows the set, one asking for fewer uses a prefix, and
    the pairs never change."""
    cfg = MinHashConfig()
    _close_and_wait()
    assert not _live_shards()
    first = [_pair_set(d) for d in
             all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=3)]
    ids = _live_shards()
    second = [_pair_set(d) for d in
              all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=3)]
    assert second == first and all(first)
    assert _live_shards() == ids and len(ids) == 3
    grown = [_pair_set(d) for d in
             all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=5)]
    assert grown == first
    assert _live_shards() > ids and len(_live_shards()) == 5
    fewer = [_pair_set(d) for d in
             all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=2)]
    assert fewer == first and len(_live_shards()) == 5


def test_close_kills_shard_set(fused_sigs):
    candidate_pairs_index(fused_sigs, n_shards=2).materialize()
    assert _live_shards()
    _close_and_wait()
    assert not _live_shards()


def test_stale_epoch_add_is_dropped(fused_sigs):
    """An add tagged with the previous call's epoch — what a retried
    ingest task of that call sends late — that lands inside the next call
    (after its entry reset) must not reach that call's pairs: both routes
    equal those of a freshly created shard set."""
    cfg = MinHashConfig()
    _close_and_wait()
    fresh = [_pair_set(d) for d in
             all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=3)]
    stale_epoch = bucket_index._SESSION._epoch
    shards = list(bucket_index._SESSION._shards)
    # two made-up nodes sharing one bucket of each route: a pair if kept
    key = np.array([7, 7], np.uint64)
    fake = np.array([2**63 + 1, 2**63 + 2], np.uint64)

    def late_adds(t: pa.Table) -> pa.Table:
        accepted = ray.get(
            [s.add.remote(key, fake, route=0, epoch=stale_epoch) for s in shards]
            + [s.add.remote(key, fake, key, route=1, epoch=stale_epoch)
               for s in shards])
        assert not any(accepted)
        return t

    # the ingest map pulls its batches through late_adds, so the stale
    # adds land after the call has reset the shards to its own epoch
    got = [_pair_set(d) for d in all_candidate_pairs_index(
        fused_sigs.map_batches(late_adds, batch_format="pyarrow"),
        minhash=cfg, n_shards=3)]
    assert got == fresh and all(fresh)


def test_concurrent_calls_are_serialized(fused_sigs):
    """Threads of one process calling at once share one shard set; each
    call must still see only its own rows (a call resetting the shards
    under another would lose or mix rows)."""
    cfg = MinHashConfig()
    want = [_pair_set(d) for d in
            all_candidate_pairs_index(fused_sigs, minhash=cfg, n_shards=3)]
    results: list = []
    errors: list = []

    def call() -> None:
        try:
            results.append([_pair_set(d) for d in all_candidate_pairs_index(
                fused_sigs, minhash=cfg, n_shards=3)])
        except Exception as e:  # noqa: BLE001 — reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, daemon=True)
                   for _ in range(6)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 240
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 6 and all(r == want for r in results)


_RESTART_SCRIPT = textwrap.dedent("""
    import ray
    import ray.data as rd
    from dupers_ray.config import MinHashConfig
    from dupers_ray.pipelines.near_dedup import minhash_signatures
    from dupers_ray.stages.bucket_index import all_candidate_pairs_index
    from dupers_ray.synth import synth_pages

    pages = synth_pages(n=200, seed=3).pages
    counts = []
    for _ in range(2):
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        sigs = minhash_signatures(rd.from_arrow(pages), minhash=MinHashConfig(),
                                  with_digests=True).materialize()
        lsh, exact = all_candidate_pairs_index(sigs, n_shards=2)
        counts.append((lsh.count(), exact.count()))
        ray.shutdown()
    assert counts[0] == counts[1] and counts[0][1] > 0, counts
    print("restart ok", counts)
""")


def test_new_ray_session_starts_new_shard_set():
    """``ray.shutdown(); ray.init()`` in one process (Ray reuses the job
    id) must not hand the new session the old session's dead handles."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [repo, *filter(None, [os.environ.get("PYTHONPATH")])]))
    r = subprocess.run([sys.executable, "-c", _RESTART_SCRIPT], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-3000:]
    assert "restart ok" in r.stdout
