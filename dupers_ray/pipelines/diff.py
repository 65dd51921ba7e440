"""Snapshot diff: added / removed / changed rows between two corpus (or
index) versions, keyed by id and compared by content digest.

The reference's maintenance loop answers this one row at a time
(walkCompare + Clean, pkg/dupe/dupe.go:940-966 and the db verbs in
pkg/database/database.go); at web scale "what changed between
yesterday's crawl and today's" is a first-class bulk operator feeding
the incremental flagship (dupe_clusters_incremental) and retention
policies on snapshots (state/manifest.snapshot_index).

Shape: both sides carry only (id, digest) rows; ONE cogroup on the id
(functions/grouping.cogroup) brings them together; the per-partition
compare is a vectorized pandas outer merge (keys exist on at least one
side, so the id column never null-pads)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import cogroup, keyed_partition_map_groups
from dupers_ray.functions.pairs import min_per_key
from dupers_ray.stages.digest import add_digests, drop_empty

_PARTITIONS = 128


def snapshot_diff(
    old: "ray.data.Dataset",
    new: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    content_col: str | None = "text",
    value_col: str | None = None,
) -> "ray.data.Dataset":
    """(id, status) for status in {'added', 'removed', 'changed'};
    unchanged rows are omitted. ``content_col`` compares by SHA-256
    digest (rows with null/empty content are dropped first — the
    reference's ErrFileEmpty contract); pass ``value_col`` instead to
    compare an existing column verbatim."""
    if (content_col is None) == (value_col is None):
        raise ValueError("exactly one of content_col/value_col required")

    def prep(t: pa.Table) -> pa.Table:
        if content_col is not None:
            t = drop_empty(t, content_col=content_col)
            t = add_digests(t, content_col=content_col)
            val = t.column("digest")
        else:
            val = t.column(value_col).cast(pa.string())
        return pa.table({id_col: t.column(id_col).cast(pa.int64()),
                         "__val": val.cast(pa.string())})

    cols = [id_col] + ([content_col] if content_col else [value_col])
    sides = [
        d.select_columns(cols).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True
        )
        for d in (old, new)
    ]
    schema = pa.schema([(id_col, pa.int64()), ("__val", pa.string())])

    def compare(a: pa.Table, b: pa.Table) -> pa.Table:
        m = a.to_pandas().merge(b.to_pandas(), on=id_col, how="outer",
                                suffixes=("_old", "_new"))
        old_v, new_v = m["__val_old"], m["__val_new"]
        status = np.where(
            old_v.isna(), "added",
            np.where(new_v.isna(), "removed",
                     np.where(old_v != new_v, "changed", "same")),
        )
        keep = status != "same"
        return pa.table({
            id_col: pa.array(m[id_col].to_numpy()[keep], pa.int64()),
            "status": pa.array(status[keep], pa.string()),
        })

    return cogroup(*sides, compare, on=id_col, num_partitions=_PARTITIONS,
                   left_schema=schema, right_schema=schema)


def exact_assign(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    content_col: str = "text",
) -> "ray.data.Dataset":
    """Per-doc exact-group assignment: cluster = min id among
    content-equal docs; EMPTY/null content rows are singletons (their
    own id) — matching the normalized-dedup convention that empty
    normalizations never merge.  Same digest-prefix partition machinery
    as exact_dedup (one narrow shuffle, one vectorized min-id reduce per
    partition).  Output: (id_col, cluster:int64)."""
    import pyarrow.compute as pc

    from dupers_ray.pipelines.exact_dedup import DEFAULT_PARTITIONS
    from dupers_ray.stages.digest import digest_dataset

    def split(keep_empty: bool):
        def f(t: pa.Table) -> pa.Table:
            c = t.column(content_col)
            empty = pc.fill_null(pc.or_(
                pc.is_null(c),
                pc.equal(pc.binary_length(c), 0)), True)
            mask = empty if keep_empty else pc.invert(empty)
            return t.filter(mask)
        return f

    def singleton(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64())
        return pa.table({id_col: ids, "cluster": ids})

    empties = ds.map_batches(
        split(True), batch_format="pyarrow", zero_copy_batch=True,
    ).map_batches(singleton, batch_format="pyarrow", zero_copy_batch=True)

    full = digest_dataset(
        ds.map_batches(split(False), batch_format="pyarrow",
                       zero_copy_batch=True),
        content_col=content_col,
    ).select_columns([id_col, "digest", "digest_u64"])

    def assign(g: pa.Table) -> pa.Table:
        ids = g.column(id_col).cast(pa.int64())
        canon = min_per_key([g.column("digest").to_numpy()], ids.to_numpy())
        return pa.table({id_col: ids, "cluster": ids.take(canon)})

    assigned = keyed_partition_map_groups(
        full, "digest_u64", assign, num_partitions=DEFAULT_PARTITIONS)
    return assigned.union(empties)


def cluster_agreement(
    a: "ray.data.Dataset",
    b: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    a_col: str = "cluster_id",
    b_col: str = "cluster",
) -> "pa.Table":
    """Pair-level agreement between two clusterings of the same corpus
    WITHOUT enumerating pairs: join the assignments by doc, count the
    joint partition sizes n_ij (one combiner + one groupby of count
    rows), and get pair totals from C(n,2) arithmetic — pairs_both =
    Σ C(n_ij,2), pairs_a/b from the marginals.  The standard
    pair-counting comparison (Rand-index family) at corpus scale: the
    only shuffles move (ca, cb, count) rows.  Output: one row with
    pairs_a, pairs_b, pairs_both and integer-ppm containments
    (both/a, both/b) + Jaccard."""
    from ray.data.aggregate import Sum

    from dupers_ray.pipelines.joins import cogroup_join

    def i64(col_name: str, out: str):
        def f(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column(col_name)).astype(np.uint64)
            return pa.table({
                id_col: t.column(id_col).cast(pa.int64()),
                out: pa.array(v.view(np.int64)),
            })
        return f

    a2 = a.map_batches(i64(a_col, "ca"), batch_format="pyarrow",
                       zero_copy_batch=True)
    b2 = b.map_batches(i64(b_col, "cb"), batch_format="pyarrow",
                       zero_copy_batch=True)
    per_doc = cogroup_join(a2, b2, on=id_col)

    def pair_partial(t: pa.Table) -> pa.Table:
        ca = t.column("ca").to_numpy(zero_copy_only=False)
        cb = t.column("cb").to_numpy(zero_copy_only=False)
        key = np.stack([ca, cb], axis=1)
        uniq, cnt = np.unique(key, axis=0, return_counts=True)
        return pa.table({
            "ca": uniq[:, 0], "cb": uniq[:, 1],
            "n": cnt.astype(np.int64),
        })

    joint = per_doc.map_batches(
        pair_partial, batch_format="pyarrow", zero_copy_batch=True,
    ).groupby(["ca", "cb"]).aggregate(Sum("n", alias_name="n")).materialize()

    def c2_sum(ds, key):
        def marg(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy(zero_copy_only=False)
            n = t.column("n").to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(k, return_inverse=True)
            s = np.zeros(len(uniq), np.int64)
            np.add.at(s, inv, n)
            return pa.table({key: uniq, "n": s})
        m = joint.map_batches(
            marg, batch_format="pyarrow", zero_copy_batch=True,
        ).groupby(key).aggregate(Sum("n", alias_name="n")) if key else joint

        def c2(t: pa.Table) -> pa.Table:
            n = t.column("n").to_numpy(zero_copy_only=False)
            return pa.table({"v": pa.array([int((n * (n - 1) // 2).sum())])})

        parts = m.map_batches(c2, batch_format="pyarrow",
                              zero_copy_batch=True)
        return int(parts.sum("v") or 0)

    pairs_both = c2_sum(joint, None)
    pairs_a = c2_sum(joint, "ca")
    pairs_b = c2_sum(joint, "cb")
    union = pairs_a + pairs_b - pairs_both
    return pa.table({
        "pairs_a": pa.array([pairs_a], pa.int64()),
        "pairs_b": pa.array([pairs_b], pa.int64()),
        "pairs_both": pa.array([pairs_both], pa.int64()),
        "containment_a_ppm": pa.array(
            [pairs_both * 1_000_000 // pairs_a if pairs_a else 0],
            pa.int64()),
        "containment_b_ppm": pa.array(
            [pairs_both * 1_000_000 // pairs_b if pairs_b else 0],
            pa.int64()),
        "jaccard_ppm": pa.array(
            [pairs_both * 1_000_000 // union if union else 0], pa.int64()),
    })
