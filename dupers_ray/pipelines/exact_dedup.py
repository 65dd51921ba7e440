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

import pandas as pd

import ray.data

from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.stages.digest import digest_dataset

# Coarse shuffle-partition count: groups are resolved per PARTITION (the
# group fns sub-group by full digest with a vectorized pandas groupby), so
# Ray never pays a per-distinct-digest map_groups call — at 10^12 docs a
# per-digest callback would mean 10^12 Python invocations.
DEFAULT_PARTITIONS = 256


def _group_pairs(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """Within one digest_u64 partition: split by full digest, emit
    (canonical, dup) pairs for groups of size >= 2. Output columns are
    ``(id_col, match_<id_col>)`` — e.g. (url, match_url).

    Fully vectorized (transform('min') + boolean mask): no per-distinct-
    digest Python iteration — at 10^12 docs a per-group loop would be the
    exact failure mode this file's header rules out."""
    canon = g.groupby("digest", sort=False)[id_col].transform("min")
    mask = (g[id_col] != canon).to_numpy()
    dt = g[id_col].dtype  # keep schema stable even when a group emits 0 pairs
    return pd.DataFrame(
        {
            id_col: pd.Series(canon.to_numpy()[mask], dtype=dt),
            f"match_{id_col}": pd.Series(g[id_col].to_numpy()[mask], dtype=dt),
        }
    )


def _group_canonical(g: pd.DataFrame, id_col: str, keep_cols: list[str]) -> pd.DataFrame:
    """Within one digest_u64 partition: one row per full digest, id = min.
    Vectorized: stable sort by id + drop_duplicates keeps the min-id row per
    digest; group sizes come from one value_counts — no per-group loop."""
    if not len(g):
        return g[[id_col, "digest", *keep_cols]].assign(
            n_dups=pd.Series([], dtype="int64")
        )[[id_col, "digest", "n_dups", *keep_cols]]
    sizes = g["digest"].value_counts(sort=False)
    firsts = g.sort_values(id_col, kind="mergesort").drop_duplicates(
        "digest", keep="first"
    )
    out = firsts[[id_col, "digest", *keep_cols]].copy()
    out.insert(2, "n_dups", firsts["digest"].map(sizes).astype("int64").to_numpy())
    return out[[id_col, "digest", "n_dups", *keep_cols]]


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
    partition transform('size') is fully vectorized."""

    def _group_weights(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "n_dups": pd.Series([], dtype="int64"),
                "weight": pd.Series([], dtype="float64"),
            })
        sizes = (
            g.groupby("digest", sort=False)[id_col]
            .transform("size").astype("int64")
        )
        return pd.DataFrame({
            id_col: g[id_col],
            "n_dups": sizes,
            "weight": 1.0 / sizes,
        })

    if not has_digests:
        ds = digest_dataset(ds, content_col=content_col)
    return keyed_partition_map_groups(
        ds.select_columns([id_col, "digest", "digest_u64"]), "digest_u64",
        _group_weights, num_partitions=DEFAULT_PARTITIONS,
    )
