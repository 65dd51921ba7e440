"""Exact content dedup — dupers' ``dupe`` core, Ray-Data-first.

Reference semantics (pkg/dupe/dupe.go:919-931 ``lookupOne`` +
pkg/dupe/parse/parse.go:31 digest-keyed ``Checksums``): two rows are exact
dups iff their SHA-256 digests match; per digest only the *first* path is
kept as the match target (docs/README.md:198-201). Walk order is replaced by
the deterministic canonical choice min(url).

Instead of materializing a global digest→path map in RAM (the reference's
``Compare`` index, parse.go:101-117), the engine hash-partitions by
``digest_u64`` — ONE all-to-all shuffle — and resolves groups independently:

    digest_dataset(ds)  →  keyed_partition_map_groups(digest_u64):
        per full digest: canonical = min(url); emit pairs (canonical, other)

The uint64 key keeps shuffle payloads small; full-hex equality is re-checked
inside the group so a u64 prefix collision can never produce a false pair.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray.data

from dupers_ray.functions.grouping import key_codes, keyed_partition_map_groups
from dupers_ray.functions.pairs import min_per_key
from dupers_ray.stages.digest import digest_dataset

# Coarse shuffle-partition count: groups are resolved per PARTITION (the
# group fns sub-group by full digest with a vectorized segment reduce), so
# Ray never pays a per-distinct-digest map_groups call — at 10^12 docs a
# per-digest callback would mean 10^12 Python invocations.
DEFAULT_PARTITIONS = 256


def _group_pairs(g: pa.Table, id_col: str) -> pa.Table:
    """Within one digest_u64 partition: split by full digest, emit
    (canonical, dup) pairs for groups of size >= 2. Output columns are
    ``(id_col, match_<id_col>)`` — e.g. (url, match_url).

    Fully vectorized (one min-id segment reduction): no per-distinct-
    digest Python iteration — at 10^12 docs a per-group loop would be the
    exact failure mode this file's header rules out."""
    ids = g.column(id_col)
    v = ids.to_numpy()
    canon = min_per_key([g.column("digest").to_numpy()], v)
    mask = v != v[canon]
    return pa.table({id_col: ids.take(canon[mask]),
                     f"match_{id_col}": ids.filter(mask)})


def _group_canonical(g: pa.Table, id_col: str, keep_cols: list[str]) -> pa.Table:
    """Within one digest_u64 partition: one row per full digest, id = min,
    with the digest's group size — the min-id row indices and their
    multiplicities, no per-group loop."""
    canon = min_per_key([g.column("digest").to_numpy()],
                        g.column(id_col).to_numpy())
    rows, n = np.unique(canon, return_counts=True)
    out = g.take(rows)
    return pa.table({id_col: out.column(id_col), "digest": out.column("digest"),
                     "n_dups": pa.array(n.astype(np.int64)),
                     **{c: out.column(c) for c in keep_cols}})


def exact_dupe_pairs(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "url",
    content_col: str = "text",
    has_digests: bool = False,
) -> "ray.data.Dataset":
    """(canonical url, match_url) pairs — the `dupe` report (J1/D1 parity)."""
    if not has_digests:
        ds = digest_dataset(ds, content_col=content_col)
    return keyed_partition_map_groups(
        ds.select_columns([id_col, "digest", "digest_u64"]), "digest_u64",
        partial(_group_pairs, id_col=id_col), num_partitions=DEFAULT_PARTITIONS,
    )


def exact_canonical(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "url",
    content_col: str = "text",
    keep_cols: list[str] | None = None,
    has_digests: bool = False,
) -> "ray.data.Dataset":
    """DISTINCT ON (digest): one canonical row (min id) per content digest,
    with the group size as ``n_dups`` (A5 parity)."""
    keep_cols = keep_cols or []
    if not has_digests:
        ds = digest_dataset(ds, content_col=content_col)
    return keyed_partition_map_groups(
        ds.select_columns([id_col, "digest", "digest_u64", *keep_cols]),
        "digest_u64",
        partial(_group_canonical, id_col=id_col, keep_cols=keep_cols),
        num_partitions=DEFAULT_PARTITIONS,
    )


def soft_dedup_weights(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "url",
    content_col: str = "text",
    has_digests: bool = False,
) -> "ray.data.Dataset":
    """Soft deduplication: instead of DROPPING duplicates, keep every doc
    and emit a sampling weight inversely proportional to its exact-dup
    group size — ``weight = 1 / n_dups`` — so a training loader that
    samples by weight sees each distinct content once in expectation
    (SoftDeDup reweighting, He et al. 2024, ACL — public literature; the
    reference's hard-delete analogue is DelDupeFiles, pkg/dupe/dupe.go).
    Output per doc: (id, n_dups, weight).

    Same ONE-shuffle shape as :func:`exact_dupe_pairs`: only (id,
    digest_u64-part, digest) rows move — never text — and the per-
    partition group-size count is fully vectorized."""

    def _group_weights(g: pa.Table) -> pa.Table:
        codes = key_codes(g.column("digest"))
        sizes = np.bincount(codes, minlength=1)[codes].astype(np.int64)
        return pa.table({
            id_col: g.column(id_col),
            "n_dups": pa.array(sizes),
            "weight": pa.array(1.0 / sizes),
        })

    if not has_digests:
        ds = digest_dataset(ds, content_col=content_col)
    return keyed_partition_map_groups(
        ds.select_columns([id_col, "digest", "digest_u64"]), "digest_u64",
        _group_weights, num_partitions=DEFAULT_PARTITIONS,
    )
