"""Joins — the cogroup join, the ONE broadcast-or-cogroup switch and the
ONE pair gather.

Every shuffled join is an explicit co-group join
(functions/grouping.cogroup: tag both sides, union, group by key hash)
with an Arrow join per partition — one all-to-all shuffle.

A join whose right side is usually small — "is this key already stored?"
(membership: anti / semi / flag, ``maintenance.anti_join_auto`` and
``maintenance.membership_flags``) or "what is this key's value?"
(:func:`lookup_join`) — goes through :func:`small_side`, which compares
the right side's row count with :data:`BROADCAST_ROWS`. At most that many
rows: the right side is pulled to the driver once, ``ray.put`` once and
probed per batch by stateless tasks (a zero-copy plasma read per task, no
shuffle — fixed per-exchange costs dominate small repartitions). Above
it: one cogroup shuffle, because a driver pull of billions of keys is an
OOM. Both routes return the same rows up to row order.

Every candidate-pair verifier — "fetch both ends' stored payload, then
score" (near_dedup signatures, containment and n-gram texts, embeddings,
edit-distance prefixes) — goes through :func:`map_pairs`, the same switch
with its own limit :data:`PAIR_BROADCAST_ROWS` counted over the payload
rows: broadcast the rows sorted by key, or two cogroup joins that carry
each end's payload to the pair.

Out of scope: linkgraph broadcasts a rank VECTOR whose size check is part
of its iteration (it degrades per pass, not per join); lmscore/lmstats
derive their lookup keys inside the batch function, so there is no key
column to join on; components picks driver or distributed union-find by
edge count (``components.DRIVER_EDGES``), a choice of algorithm, not of
join route.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from dupers_ray.functions.grouping import arrow_schema, cogroup, to_arrow_table
from dupers_ray.functions.hashing import hash_str_keys

# Row limits of the broadcast routes: key sets for small_side, payload
# rows (signatures, texts, embeddings — wider rows) for map_pairs. Read
# at call time (never bound as a default argument), so one assignment
# changes every switch.
BROADCAST_ROWS = 5_000_000
PAIR_BROADCAST_ROWS = 2_000_000


def cogroup_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str | None = None,
    num_partitions: int = 32,
    how: str = "inner",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Inner/left join via :func:`~dupers_ray.functions.grouping.cogroup`
    + a per-partition Arrow join. Keys may be integer or string: the key
    hash only routes rows, the Arrow join compares the real keys.

    Not the native ``Dataset.join``: its JoinOperator in this Ray release
    RESERVES num-CPUs-worth of resources per join operator, so a DAG with
    two chained joins deadlocks on small clusters (observed: two joins
    each 'requiring 4 CPUs' on a 4-CPU local cluster → starved executor).
    The cogroup path shares the normal task pool and streams.

    Pass ``left_schema``/``right_schema`` when known: calling .schema() on
    a lazy Dataset EXECUTES its sub-DAG to infer types, which serializes
    the pipeline and double-runs shuffles."""
    if how not in ("inner", "left"):
        raise ValueError(f"cogroup join supports inner/left, got {how!r}")
    right_on = right_on or on
    join_type = "inner" if how == "inner" else "left outer"

    def merge(lg: pa.Table, rg: pa.Table) -> pa.Table:
        lcols = lg.column_names
        rcols = [c for c in rg.column_names if c != right_on]
        rg = rg.rename_columns(
            ["__rkey" if c == right_on else c for c in rg.column_names]
        )
        out = lg.join(rg, keys=[on], right_keys=["__rkey"], join_type=join_type)
        return out.select(lcols + rcols)

    return cogroup(
        left, right, merge, on=on, right_on=right_on,
        num_partitions=num_partitions,
        left_schema=left_schema, right_schema=right_schema,
    )


def small_side(
    right: "ray.data.Dataset | pa.Table", columns: "list[str] | None" = None,
) -> "tuple[pa.Table | None, ray.data.Dataset | None]":
    """The switch: materialize ``right``'s ``columns`` (all when None)
    once, count them against :data:`BROADCAST_ROWS` and pick a route.
    Returns ``(table, None)`` for the broadcast route — the rows as one
    driver table — or ``(None, ds)`` for the cogroup route, ``ds`` the
    materialized columns. A driver ``pa.Table`` is broadcast as is (no
    Dataset round trip) when small."""
    return _pull_if_small(right, columns, BROADCAST_ROWS)


def _pull_if_small(right, columns, limit: int):
    if isinstance(right, pa.Table):
        t = right.select(columns) if columns else right
        if t.num_rows <= limit:
            return t, None
        return None, ray.data.from_arrow(t)
    ds = (right.select_columns(columns) if columns else right).materialize()
    if ds.count() > limit:
        return None, ds
    t = to_arrow_table(ds)
    if not t.num_columns:  # an all-empty Dataset can lose its schema
        t = pa.table({c: pa.nulls(0) for c in columns or []})
    return t, None


def _is_str(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def _equal_hash_pairs(skeys: np.ndarray, h: np.ndarray):
    """``(rows, pos)``: every pair with ``skeys[pos] == h[rows]`` for a
    sorted ``skeys``, rows ascending."""
    lo = np.searchsorted(skeys, h, side="left")
    cnt = np.searchsorted(skeys, h, side="right") - lo
    rows = np.repeat(np.arange(len(h)), cnt)
    start = np.cumsum(cnt) - cnt
    pos = np.repeat(lo - start, cnt) + np.arange(int(cnt.sum()))
    return rows, pos


def sorted_str_lookup(skeys: np.ndarray, surls, h: np.ndarray, urls):
    """``(rows, pos)`` of every pair of a string of ``urls`` (hashes
    ``h``) and an entry of a table sorted by hash ``skeys`` whose strings
    are ``surls``. A match needs an equal hash AND an equal string, so two
    strings sharing a 64-bit hash never match."""
    rows, pos = _equal_hash_pairs(skeys, h)
    eq = pc.fill_null(pc.equal(
        surls.take(pa.array(pos)), urls.take(pa.array(rows))
    ), False).to_numpy(zero_copy_only=False)
    return rows[eq], pos[eq]


def lookup_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset | pa.Table",
    *,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Key → value join of ``left`` against a (usually small) ``right``:
    left's columns plus right's non-key columns, ``how`` inner or left
    (outer: misses get null values). Every matching right row joins, so
    duplicate right keys repeat the left row, as in a SQL join.

    Broadcast route: the right rows sorted once by key (string keys by
    their 64-bit hash, matched on the string itself), ``ray.put`` once,
    ``searchsorted`` per batch; the left key is cast to the right key's
    type. Cogroup route: :func:`cogroup_join` (right key cast to the left
    key's type). Null keys never match."""
    if how not in ("inner", "left"):
        raise ValueError(f"lookup join supports inner/left, got {how!r}")
    right_on = right_on or on
    small, big = small_side(right)
    if small is None:
        return cogroup_join(left, big, on=on, right_on=right_on, how=how,
                            right_schema=arrow_schema(big))
    if right_on not in small.column_names:  # schema-less empty right side
        small = small.append_column(right_on, pa.nulls(0))
    key = small.column(right_on)
    if key.null_count:
        small = small.filter(pc.is_valid(key))
        key = small.column(right_on)
    strings = _is_str(key.type)
    kh = hash_str_keys(key) if strings else \
        key.to_numpy(zero_copy_only=False)
    order = np.argsort(kh, kind="stable")
    table = small.take(pa.array(order))
    ref = ray.put((kh[order], table))

    def probe(t: pa.Table) -> pa.Table:
        skeys, st = ray.get(ref)  # zero-copy plasma read per task
        rows = pos = np.empty(0, np.int64)
        if len(skeys):
            lk = t.column(on).cast(st.schema.field(right_on).type)
            if strings:
                rows, pos = sorted_str_lookup(
                    skeys, st.column(right_on), hash_str_keys(lk), lk
                )
            else:
                rows, pos = _equal_hash_pairs(
                    skeys, pc.fill_null(lk, 0).to_numpy(zero_copy_only=False)
                )
                if lk.null_count:
                    valid = pc.is_valid(lk).to_numpy(zero_copy_only=False)
                    rows, pos = rows[valid[rows]], pos[valid[rows]]
        if how == "left":
            miss = np.flatnonzero(np.bincount(rows, minlength=t.num_rows) == 0)
            rows = np.concatenate([rows, miss])
            pos = np.concatenate([pos, np.full(len(miss), -1)])
            order_ = np.argsort(rows, kind="stable")
            rows, pos = rows[order_], pos[order_]
        out = t.take(pa.array(rows))
        idx = pa.array(pos, mask=pos < 0)
        for c in st.column_names:
            if c != right_on:
                out = out.append_column(st.schema.field(c),
                                        st.column(c).take(idx))
        return out

    return left.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True)


def map_pairs(
    pairs: "ray.data.Dataset",
    rows: "ray.data.Dataset",
    fn,
    *,
    ends: "tuple[str, str]",
    key: str,
) -> "ray.data.Dataset":
    """The pair gather: ``fn(p, a, b)`` once per pairs batch, where ``a``
    and ``b`` are the payload rows (``rows`` without ``key``) aligned with
    ``p[ends[0]]`` and ``p[ends[1]]``. The rows ``fn`` sees are SQL
    ``pairs ⋈ rows ON ends[0] = key ⋈ rows ON ends[1] = key``: a pair with
    a missing end drops, duplicate ``rows`` keys fan out, duplicate pairs
    stay. ``fn`` runs for batches with no match too (0-row tables), so the
    output schema never depends on the data.

    Keys are integers; pair ends are cast to the key's type (also in the
    ``p`` that ``fn`` sees). Route by the row count of ``rows`` against
    :data:`PAIR_BROADCAST_ROWS`: the rows sorted by key once, ``ray.put``
    once and probed per batch by stateless tasks, or two cogroup joins
    that carry each end's payload to the pair."""
    small, big = _pull_if_small(rows, None, PAIR_BROADCAST_ROWS)
    if small is None:
        pairs = pairs.materialize()  # its schema is read, then it is joined
        rs = arrow_schema(big)
        kt = rs.field(key).type
        ps = arrow_schema(pairs)
        left = pa.schema([(n, kt if n in ends else t)
                          for n, t in zip(ps.names, ps.types)]
                         + [(e, kt) for e in ends if e not in ps.names])
        names = left.names
        plain = [f.name for f in rs if f.name != key]
        for end, tag in zip(ends, ("__a.", "__b.")):
            side = pa.schema([(key if f.name == key else tag + f.name, f.type)
                              for f in rs])
            pairs = cogroup_join(
                pairs, big.map_batches(
                    lambda t, s=side: t.select(rs.names).rename_columns(
                        s.names),
                    batch_format="pyarrow", zero_copy_batch=True),
                on=end, right_on=key, left_schema=left, right_schema=side,
            )
            left = pa.schema(list(left) + [f for f in side if f.name != key])

        def split(t: pa.Table) -> pa.Table:
            return fn(t.select(names),
                      *(t.select([tag + c for c in plain])
                        .rename_columns(plain) for tag in ("__a.", "__b.")))

        return pairs.map_batches(split, batch_format="pyarrow",
                                 zero_copy_batch=True)

    if small.num_rows and small.column(key).null_count:
        small = small.filter(pc.is_valid(small.column(key)))
    # no rows (possibly schema-less): nothing matches, ends stay as they are
    kt = small.schema.field(key).type if small.num_rows else None
    skeys = (small.column(key).to_numpy(zero_copy_only=False)
             if small.num_rows else np.empty(0, np.int64))
    order = np.argsort(skeys, kind="stable")
    payload = small.drop_columns([c for c in [key] if c in small.column_names])
    ref = ray.put((skeys[order], payload.take(pa.array(order))))

    def gather(p: pa.Table) -> pa.Table:
        skeys_, payload_ = ray.get(ref)  # zero-copy plasma read per task
        if kt is not None:
            for e in ends:
                p = p.set_column(p.schema.get_field_index(e), e,
                                 p.column(e).cast(kt))
        idx = np.arange(p.num_rows)
        hits: list = []
        for e in ends:
            col = p.column(e).take(pa.array(idx))
            rows_, pos = _equal_hash_pairs(
                skeys_, pc.fill_null(col, 0).to_numpy(zero_copy_only=False))
            if col.null_count:
                ok = pc.is_valid(col).to_numpy(zero_copy_only=False)[rows_]
                rows_, pos = rows_[ok], pos[ok]
            idx = idx[rows_]
            hits = [h[rows_] for h in hits] + [pos]
        return fn(p.take(pa.array(idx)),
                  *(payload_.take(pa.array(h)) for h in hits))

    return pairs.map_batches(gather, batch_format="pyarrow",
                             zero_copy_batch=True)
