"""Sharded LSH bucket index — actor-held state replacing the candidate
sort-shuffle.

This is the one place the engine drops to raw Ray actors (the brief's
"shared mutable index" exception): it is the scaled, SHARDED analogue of
dupers' in-RAM ``Checksums`` digest→first-path map
(pkg/dupe/parse/parse.go:31, loaded in SetCompares parse.go:101-117) —
except keyed by LSH band hash and holding each bucket's member set.

Like dupers' map, the index is loaded once and reused: ONE routed set of
``BucketIndexShard`` actors lives for the whole Ray session. The first
call starts it (actor start-up is seconds; a call on live actors is
milliseconds), later calls reuse it, a call asking for more shards grows
it and a call asking for fewer uses a prefix of it. ``close()`` kills it;
``ray.shutdown()`` takes it down with the session, and the next session
starts its own.

Each shard keeps one bucket state per ROUTE: the LSH band route and the
exact-digest route share the same actors, told apart by a route tag on
``add`` / ``rows_received`` / ``pairs_table`` (the exact route's ``sub``
column keeps its two-word digest buckets apart within the route).

ONE pass over the signature table per call: each map task turns its batch
into bucket rows for every route locally (numpy), splits them by
``key % n_shards`` and ships the slices to shard actors through the object
store. After the pass, every shard vectorizes each route's rows into
sorted buckets and emits star pairs (min-node anchor → member) for
buckets with >= 2 members; the pair tables are returned as object refs
and assembled with ``from_arrow_refs`` — the caller never copies them.

Calls never see each other's rows. A call resets every shard on entry and
again on exit, and tags its rows with a per-call EPOCH: a shard drops any
``add`` whose epoch is not its current one, so an add that arrives late
(a retried ingest task re-submits its slices) can neither leak into the
next call nor sit in an idle shard. A failed ingest or stalled barrier
kills the whole set; the next call starts a new one.

This is the engine's only candidate generator (LSH bands and exact
digests alike). Why actors rather than a sort-groupby over band rows:
- no AllToAll operator (a sort's per-block scheduling overhead was the
  single-node scaling ceiling, and it grew superlinearly with block
  count) and no second pass over the band rows;
- hot buckets cost O(members) emissions inside one shard — no reducer
  blow-up, so no salting machinery and no bucket cap;
- deterministic edges (min-node anchor) at any parallelism.

Shard memory: 16 B per band row held between ingest and build (the same
bytes a shuffle would stage), then 24 B per distinct bucket; an idle
shard holds no rows. Shard count is the scale knob — on a real cluster
the actors spread across nodes.

Heap bound: a shard SPILLS a route to local disk above ``spill_rows``
buffered rows (round-1 VERDICT 'What's wrong #5' — an actor heap, unlike
Ray's shuffle, does not spill on its own). Each flush radix-partitions
the chunk by the top bits of the bucket hash into ``n_sub`` key
sub-ranges and appends one sorted parquet run per sub-range;
``pairs_table`` then resolves one sub-range at a time (rows of a bucket
always share a sub-range), so peak heap is max(spill_rows, total_rows /
n_sub) instead of total_rows. With no spill triggered the in-memory fast
path is byte-identical to before.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray._private.auto_init_hook import auto_init_ray

from dupers_ray.config import MinHashConfig

# Default per-shard buffered-row ceiling before spilling (24 B/row → ~768 MB).
DEFAULT_SPILL_ROWS = 32_000_000
_N_SUB = 64  # radix sub-ranges per shard (power of two)
# Epoch of a shard outside any call. Calls use epochs 1, 2, ..., so an
# idle shard of the session set drops every add an ingest task sends.
_IDLE_EPOCH = 0


def _await_rows(shards, route: int, expected: int,
                timeout_s: float = 600.0) -> None:
    """Block until the shard set has RECEIVED ``expected`` rows of
    ``route``. Ingest tasks fire-and-forget their shard adds (a per-batch
    ray.get serialized every map task on up-to-32 actor acks — measured as
    the flagship's top cost under load); this poll is the replacement
    barrier. A retried ingest task re-submits its adds, so counts can only
    overshoot (duplicate rows dedup inside the shards) — never stall short,
    except in the worker-died-mid-submit case the timeout converts into an
    error.

    ``timeout_s`` is a NO-PROGRESS window, not a total wall-clock budget:
    the deadline resets whenever the received count advances, so a large
    corpus draining a deep spill backlog (each spill flush sorts + writes
    parquet runs inside add()) is never misclassified as a stall."""
    import time as _time

    deadline = _time.monotonic() + timeout_s
    last_got = -1
    while True:
        got = sum(ray.get([s.rows_received.remote(route) for s in shards]))
        if got >= expected:
            return
        if got > last_got:
            last_got = got
            deadline = _time.monotonic() + timeout_s
        elif _time.monotonic() > deadline:
            raise RuntimeError(
                f"bucket index ingest stalled: {got}/{expected} rows received, "
                f"no progress for {timeout_s:.0f}s"
            )
        _time.sleep(0.02)


def _default_n_shards() -> int:
    """One shard per core (capped): per-shard pair emission is a sort over
    the shard's band rows whose cost grows superlinearly with rows (cache
    spill), so measured wall-time favors MORE, SMALLER shards — 19.2M band
    rows at 600k docs emit in 1.6 s with 32 shards vs 5.4 s with 16 on 32
    cores, and even an 8-core run prefers 8-16 shards over 4. The
    tradeoff: cross-BAND duplicate pairs dedup only within one shard, so
    a near pair is emitted once per shard its bands reach — 72.7% of
    candidates are cross-shard repeats at 4 shards (7657 pairs emitted,
    2092 distinct, pagebench seed 42) — harmless to clusters
    (duplicate edges don't change connected components) and cheaper than
    the emission savings. On a multi-node cluster this scales per node:
    shards spread across raylets, each node contributing its own memory
    bandwidth."""
    try:
        return max(2, min(32, int(ray.cluster_resources().get("CPU", 8))))
    except Exception:  # noqa: BLE001
        return 8


def _emit_star_pairs(
    bh: np.ndarray, sub: np.ndarray | None, node: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(src=min-node anchor, dst=member) star pairs from UNSORTED bucket
    rows. ``sub=None`` means the bucket key is ``bh`` alone (the LSH-band
    path) — no 8 B/row zero subkeys are allocated, gathered or sorted.

    Single-key argsort on the bucket hash — ~6x cheaper than a (node, sub,
    bh) lexsort — with anchors via ``np.minimum.reduceat`` (node order
    inside a bucket is irrelevant to the emitted pair SET) and sub-key
    refinement applied only to the rows sitting in multi-row bh runs (a
    few % of rows)."""
    order = np.argsort(bh)  # quicksort: fastest, stability not needed
    bh, node = bh[order], node[order]
    if sub is not None:
        sub = sub[order]
    new = np.r_[True, bh[1:] != bh[:-1]]
    if sub is not None and sub.any():
        # exact-digest index: refine equal-bh runs by the 2nd digest word.
        # Only rows inside multi-row runs need ordering by sub; that set is
        # tiny (the dup rate), so the lexsort is over a short subset.
        seg0 = np.cumsum(new) - 1
        starts0 = np.flatnonzero(new)
        sizes0 = np.diff(np.r_[starts0, len(bh)])
        multi = sizes0[seg0] > 1
        if multi.any():
            idx = np.flatnonzero(multi)
            o2 = np.lexsort((sub[idx], seg0[idx]))
            src_idx = idx[o2]
            bh[idx], sub[idx], node[idx] = bh[src_idx], sub[src_idx], node[src_idx]
            new = np.r_[True, (bh[1:] != bh[:-1]) | (sub[1:] != sub[:-1])]
    seg = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, len(bh)])
    if not len(starts):
        return node[:0], node[:0]
    anchors = np.minimum.reduceat(node, starts)[seg]
    keep = (node != anchors) & (sizes[seg] > 1)
    return anchors[keep], node[keep]


def _dedup_pairs(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop identical (src, dst) rows repeated across bands: same pair ⇒
    adjacent after a sort."""
    from dupers_ray.functions.pairs import unique_pairs

    return unique_pairs(src, dst)


def _pairs(src: np.ndarray, dst: np.ndarray) -> pa.Table:
    return pa.table({"src": pa.array(src, pa.uint64()),
                     "dst": pa.array(dst, pa.uint64())})


_NO_PAIRS = _pairs(np.empty(0, np.uint64), np.empty(0, np.uint64))


def _new_shard() -> "ray.actor.ActorHandle":
    """Shard constructor: SPREAD scheduling so on a multi-node cluster the
    shards land on distinct nodes — each then ingests/emits against its
    OWN memory controllers, which is precisely the resource the measured
    single-box 8→32 plateau saturates (BASELINE.md bandwidth budget).
    On a single node SPREAD is a no-op."""
    return BucketIndexShard.options(scheduling_strategy="SPREAD").remote()


class _Buckets:
    """One route's bucket rows inside a shard: the in-memory buffer and,
    above ``spill_rows``, its radix-partitioned parquet runs on disk.
    Homogeneous: either every add carries a subkey (the exact-digest
    route) or none does (the LSH-band route) — the band route then never
    allocates/sorts/spills 8 B/row of zeros."""

    def __init__(self, spill_rows: int, n_sub: int):
        self._bh: list[np.ndarray] = []
        self._sub: list[np.ndarray] = []
        self._node: list[np.ndarray] = []
        self.buffered = 0
        self.rows_received = 0
        self._spill_rows = spill_rows
        self._n_sub = n_sub
        self._shift = np.uint64(64 - int(np.log2(n_sub)))
        self._spill_dir: str | None = None
        self.n_runs = 0

    def add(self, bh: np.ndarray, node: np.ndarray, sub: np.ndarray | None) -> None:
        if sub is not None:
            self._sub.append(sub)
        self._bh.append(bh)
        self._node.append(node)
        self.buffered += len(bh)
        self.rows_received += len(bh)
        if self._spill_rows and self.buffered >= self._spill_rows:
            self._flush()

    def discard(self) -> None:
        """Drop every buffered row and spilled run."""
        self._bh, self._sub, self._node = [], [], []
        self.buffered = 0
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
        self.n_runs = 0

    def _drain(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        bh = np.concatenate(self._bh) if self._bh else np.empty(0, np.uint64)
        sub = np.concatenate(self._sub) if self._sub else None
        node = np.concatenate(self._node) if self._node else np.empty(0, np.uint64)
        self._bh, self._sub, self._node = [], [], []
        self.buffered = 0
        return bh, sub, node

    def _flush(self) -> None:
        """Radix-split the buffer by bucket-hash top bits; append one
        parquet run per non-empty sub-range. Keys are splitmix-finalized
        hashes, so sub-ranges are uniform."""
        bh, sub, node = self._drain()
        if not len(bh):
            return
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="bucket_index_shard_")
        sidx = (bh >> self._shift).astype(np.int64)
        order = np.argsort(sidx, kind="stable")
        bh, node, sidx = bh[order], node[order], sidx[order]
        if sub is not None:
            sub = sub[order]
        bounds = np.searchsorted(sidx, np.arange(self._n_sub + 1))
        run = self.n_runs
        self.n_runs += 1
        for s in range(self._n_sub):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            d = os.path.join(self._spill_dir, f"sub={s}")
            os.makedirs(d, exist_ok=True)
            cols = {"bh": pa.array(bh[lo:hi]), "node": pa.array(node[lo:hi])}
            if sub is not None:
                cols["sub"] = pa.array(sub[lo:hi])
            pq.write_table(
                pa.table(cols),
                os.path.join(d, f"run{run}.parquet"),
                compression="zstd",
            )

    def pairs_table(self) -> pa.Table:
        """Sort accumulated rows into buckets, emit (src=min-node anchor,
        dst=member) star pairs for buckets with >=2 members, deduped across
        bands within the shard. With spilled runs, resolves one key
        sub-range at a time so the heap never holds all band rows."""
        if self._spill_dir is None:
            bh, sub, node = self._drain()
            if not len(bh):
                return _NO_PAIRS
            return _pairs(*_dedup_pairs(*_emit_star_pairs(bh, sub, node)))
        self._flush()  # remaining buffer joins the runs
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for s in range(self._n_sub):
            d = os.path.join(self._spill_dir, f"sub={s}")
            if not os.path.isdir(d):
                continue
            t = pa.concat_tables(
                pq.read_table(os.path.join(d, f)) for f in sorted(os.listdir(d))
            )
            src, dst = _emit_star_pairs(
                np.asarray(t.column("bh"), dtype=np.uint64),
                np.asarray(t.column("sub"), dtype=np.uint64)
                if "sub" in t.column_names else None,
                np.asarray(t.column("node"), dtype=np.uint64),
            )
            srcs.append(src)
            dsts.append(dst)
        self.discard()
        if not srcs:
            return _NO_PAIRS
        # pairs are tiny next to band rows; the final cross-subrange dedup
        # keeps output identical to the in-memory path
        return _pairs(*_dedup_pairs(np.concatenate(srcs), np.concatenate(dsts)))


@ray.remote
class BucketIndexShard:
    """One shard of the bucket index: a ``_Buckets`` state per route tag.
    Bucket key = (key, optional subkey) — subkey lets exact dedup bucket
    on two sha-256 words (2^-128 collision) with the same machinery.

    A shard accepts an ``add`` only when its epoch is the shard's current
    one (``reset`` sets it); a fresh shard is at ``_IDLE_EPOCH``, which is
    also what an untagged add carries, so a shard used on its own needs no
    reset."""

    def __init__(self, spill_rows: int = DEFAULT_SPILL_ROWS, n_sub: int = _N_SUB):
        if n_sub & (n_sub - 1):
            raise ValueError(f"n_sub must be a power of two, got {n_sub}")
        self._spill_rows = spill_rows
        self._n_sub = n_sub
        self._epoch = _IDLE_EPOCH
        self._routes: dict[int, _Buckets] = {}

    def reset(self, epoch: int, spill_rows: int | None = None) -> None:
        """Drop every route's rows and runs; accept only ``epoch`` adds
        from now on (and spill above ``spill_rows`` when given)."""
        for b in self._routes.values():
            b.discard()
        self._routes = {}
        self._epoch = epoch
        if spill_rows is not None:
            self._spill_rows = spill_rows

    def add(self, bh: np.ndarray, node: np.ndarray, sub: np.ndarray | None = None,
            *, route: int = 0, epoch: int = _IDLE_EPOCH) -> int:
        """Buffer bucket rows of ``route``; returns the rows accepted —
        0 for an add from another epoch (a late add of an earlier call)."""
        if epoch != self._epoch:
            return 0
        b = self._routes.get(route)
        if b is None:
            b = self._routes[route] = _Buckets(self._spill_rows, self._n_sub)
        b.add(bh, node, sub)
        return len(bh)

    def rows_received(self, route: int = 0) -> int:
        b = self._routes.get(route)
        return b.rows_received if b is not None else 0

    def stats(self, route: int = 0) -> dict:
        b = self._routes.get(route)
        if b is None:
            return {"buffered": 0, "spilled_runs": 0}
        return {"buffered": b.buffered, "spilled_runs": b.n_runs}

    def pairs_table(self, route: int = 0) -> pa.Table:
        """``route``'s (src, dst) star pairs; see ``_Buckets.pairs_table``."""
        b = self._routes.get(route)
        if b is None:
            return _NO_PAIRS
        return b.pairs_table()


class _SessionShards:
    """The Ray session's one routed shard set, started lazily, grown on
    demand and reused by every call. Keyed on (session name, job id): Ray
    hands out job id ``01000000`` again after ``ray.shutdown(); ray.init()``
    in one process, and a process re-connecting to a running cluster keeps
    the session name, so only the pair tells a new connection apart —
    and a new session must never call the dead handles of an old one.
    Callers hold ``lock``."""

    def __init__(self):
        self.lock = threading.Lock()
        self._shards: list = []
        self._session: tuple | None = None
        self._epoch = _IDLE_EPOCH

    @staticmethod
    def _session_key() -> tuple:
        node = getattr(ray._private.worker.global_worker, "node", None)
        return (getattr(node, "session_name", None),
                ray.get_runtime_context().get_job_id())

    def begin(self, n: int, spill_rows: int) -> tuple[list, int]:
        """The first ``n`` shards, every shard of the set reset to a new
        epoch (returned). A set whose reset finds a dead actor is killed
        and started again."""
        auto_init_ray()  # as a first remote call would
        key = self._session_key()
        if key != self._session:
            self._shards, self._session = [], key
        self._epoch += 1
        try:
            self._reset(n, spill_rows)
        except ray.exceptions.RayActorError:
            self.kill()
            self._session = key
            self._reset(n, spill_rows)
        return self._shards[:n], self._epoch

    def _reset(self, n: int, spill_rows: int) -> None:
        self._shards += [_new_shard() for _ in range(n - len(self._shards))]
        ray.get([s.reset.remote(self._epoch, spill_rows) for s in self._shards])

    def end(self) -> None:
        """Return the set to idle: no rows held, every add dropped."""
        ray.get([s.reset.remote(_IDLE_EPOCH) for s in self._shards])

    def kill(self) -> None:
        """Kill the set (if it belongs to the live session) and forget it."""
        if self._shards and ray.is_initialized() \
                and self._session == self._session_key():
            for s in self._shards:
                ray.kill(s)
        self._shards, self._session = [], None


_SESSION = _SessionShards()


def close() -> None:
    """Kill the session's shard set; the next call starts a new one."""
    with _SESSION.lock:
        _SESSION.kill()


def _index_pairs(
    sigs: "ray.data.Dataset", routes, n_shards: int, spill_rows: int,
) -> list["ray.data.Dataset"]:
    """The one ingest over the session's shard set. ``routes`` is a list
    of ``rows(table) -> (key, node, sub | None)`` functions, each turning a
    signature batch into the bucket rows of one route (tagged with its
    position in the list). ONE ingest map over ``sigs`` routes every
    batch's rows of every route by ``key % n_shards`` to the set's first
    ``n_shards`` shards (fire-and-forget adds tagged with this call's
    epoch), ``_await_rows`` waits for each route's rows to land, and each
    shard emits its star pairs per route. Returns one pairs Dataset per
    route, assembled from object refs the caller never copies.

    Calls are serialized on the set's lock. On success the set goes back
    to idle; a failing ingest map or stalled barrier kills the set, so no
    actor is left holding the failed call's buffers."""
    with _SESSION.lock:
        try:
            shards, epoch = _SESSION.begin(n_shards, spill_rows)

            def ingest(t: pa.Table) -> pa.Table:
                counts = {}
                for route, rows in enumerate(routes):
                    key, node, sub = rows(t)
                    sid = (key % np.uint64(n_shards)).astype(np.int64)
                    for s in range(n_shards):
                        m = sid == s
                        if m.any():
                            shards[s].add.remote(  # fire-and-forget
                                key[m], node[m], None if sub is None else sub[m],
                                route=route, epoch=epoch,
                            )
                    counts[f"n{route}"] = pa.array([len(key)], pa.int64())
                return pa.table(counts)

            counts = sigs.map_batches(ingest, batch_format="pyarrow",
                                      zero_copy_batch=True).take_all()
            for route in range(len(routes)):
                _await_rows(shards, route, sum(r[f"n{route}"] for r in counts))
            refs = [[s.pairs_table.remote(route) for s in shards]
                    for route in range(len(routes))]
            flat = [r for rs in refs for r in rs]
            ray.wait(flat, num_returns=len(flat))
            _SESSION.end()
        except BaseException:
            _SESSION.kill()
            raise
    return [ray.data.from_arrow_refs(rs) for rs in refs]


def _lsh_rows(cfg: MinHashConfig, id_col: str):
    """Bucket rows of the LSH index: one (band_hash, node) row per band."""
    from dupers_ray.stages.minhash import explode_bands

    def rows(t: pa.Table):
        b = explode_bands(t, bands=cfg.bands, rows=cfg.rows, id_col=id_col)
        return (np.asarray(b.column("band_hash"), dtype=np.uint64),
                np.asarray(b.column("node"), dtype=np.uint64), None)

    return rows


def _exact_rows(t: pa.Table):
    """Bucket rows of the exact-digest index: one row per doc keyed on the
    two sha-256 words (2^-128 collision)."""
    return (np.asarray(t.column("digest_u64"), dtype=np.uint64),
            np.asarray(t.column("node"), dtype=np.uint64),
            np.asarray(t.column("digest_u64b"), dtype=np.uint64))


def candidate_pairs_index(
    sigs: "ray.data.Dataset",
    *,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
    n_shards: int | None = None,
    spill_rows: int = DEFAULT_SPILL_ROWS,
) -> "ray.data.Dataset":
    """(src, dst) LSH candidate star pairs via the sharded bucket index,
    from the signature table directly (band explode fused into the ingest
    map). Cross-band duplicate pairs are removed within each shard only."""
    cfg = minhash or MinHashConfig()
    if n_shards is None:
        n_shards = _default_n_shards()
    (pairs,) = _index_pairs(sigs, [_lsh_rows(cfg, id_col)], n_shards,
                            spill_rows)
    return pairs


def all_candidate_pairs_index(
    sigs: "ray.data.Dataset",
    *,
    minhash: MinHashConfig | None = None,
    id_col: str = "url",
    n_shards: int | None = None,
    spill_rows: int = DEFAULT_SPILL_ROWS,
):
    """ONE pass over the fused signature table feeding both routes of the
    shard set: LSH band buckets AND exact-digest buckets. Returns
    (lsh_pairs, exact_pairs) — the LSH side goes through Jaccard verify,
    the exact side is trusted (2^-128 digest collision)."""
    cfg = minhash or MinHashConfig()
    if n_shards is None:
        n_shards = _default_n_shards()
    # the digest route holds 1 row/doc (vs bands/doc for LSH) on the same
    # shards, so it adds rows, not actors
    lsh_pairs, exact_pairs = _index_pairs(
        sigs, [_lsh_rows(cfg, id_col), _exact_rows], n_shards, spill_rows,
    )
    return lsh_pairs, exact_pairs
