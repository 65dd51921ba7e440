"""Dupe reports and deletion-list datasets — dupers' output verbs.

The engine NEVER deletes inputs (immutable corpora); the `-delete` /
`-delete+` / `-sensen` mutations (pkg/dupe/dupe.go:275-373) become derived
DATASETS a caller can act on:

- ``dupe_report``: per-source-row match lines with the canonical target +
  display metadata — the `dupers dupe` stdout analogue (dupe.go:472-505
  prints mtime/size per match; here warc_ts plays mtime, n_chars size).
- ``deletion_list``: every non-canonical member of a digest group — what
  `-delete` would remove (dupe.go:275-305).
- ``sensen_keep_dirs``: directories containing executables, the guard set
  for `-sensen` (parse.Executable, parse.go:267-295: per-directory EXISTS
  over an is-executable flag → groupby(dir).max).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dupers_ray.pipelines.exact_dedup import exact_dupe_pairs


def dupe_report(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "url",
    content_col: str = "text",
    keep_cols: list[str] | None = None,
    formatted: bool = False,
) -> "ray.data.Dataset":
    """(url, match_url) pairs joined with the duplicate row's display
    columns — one line per duplicate found, like the reference's Print
    (dupe.go:216-267). ``formatted=True`` appends the reference's display
    columns (mtime layout dupe.go:41, humanized size dupe.go:496) via
    functions/display.format_report — a leaf map over the small report."""
    keep_cols = keep_cols or []
    out = exact_dupe_pairs(ds, id_col=id_col, content_col=content_col)
    if keep_cols:
        # display metadata is per match row; hash-join pairs to corpus rows
        from dupers_ray.pipelines.joins import cogroup_join

        meta = ds.select_columns([id_col, *keep_cols])
        out = cogroup_join(
            out, meta, on=f"match_{id_col}", right_on=id_col, num_partitions=32
        )
    if formatted:
        # applies on the pairs-only path too (format_report no-ops on
        # missing columns rather than silently dropping the request)
        from dupers_ray.functions.display import format_report

        out = out.map_batches(format_report, batch_format="pyarrow")
    return out


def deletion_list(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "url",
    content_col: str = "text",
) -> "ray.data.Dataset":
    """Rows `-delete` would remove: every duplicate EXCEPT the canonical
    (min id) of its digest group (dupe.go:275-305 DelDupeFiles semantics,
    first-match parity via deterministic min)."""
    pairs = exact_dupe_pairs(ds, id_col=id_col, content_col=content_col)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t.column(f"match_{id_col}")})

    return pairs.map_batches(project, batch_format="pyarrow")


def _dirname(col):
    # strip the basename: reverse → drop first segment → reverse
    rev = pc.utf8_reverse(col)
    parts = pc.split_pattern(rev, "/", max_splits=1)
    tail = pc.list_element(parts, 1)
    return pc.utf8_reverse(tail)


def sensen_keep_dirs(
    ds: "ray.data.Dataset", *, url_col: str = "url"
) -> "ray.data.Dataset":
    """Directories that contain a DOS/Windows executable (.com/.exe) —
    the set `-sensen` must NOT delete (dupe.go:314-373 + parse.go:267-295).
    groupby(dir) EXISTS via per-batch partial any() then a tiny groupby."""
    def partial(t: pa.Table) -> pa.Table:
        urls = t.column(url_col)
        low = pc.utf8_lower(urls)
        is_exe = pc.or_(
            pc.ends_with(low, ".exe"), pc.ends_with(low, ".com")
        )
        dirs = _dirname(urls)
        df = pd.DataFrame(
            {
                "dir": dirs.to_pylist(),
                "has_exe": np.asarray(is_exe.to_pylist(), dtype=bool),
            }
        )
        out = df.groupby("dir", sort=False)["has_exe"].any().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    from ray.data.aggregate import Max

    partials = ds.select_columns([url_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    agg = partials.groupby("dir").aggregate(Max("has_exe", alias_name="has_exe"))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("has_exe"), True)).select(["dir"])

    return agg.map_batches(keep, batch_format="pyarrow")


def source_quality_report(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    key_col: str = "source",
) -> "ray.data.Dataset":
    """Per-source curation dashboard — the table a pipeline owner reads
    before setting tier budgets: per ``key_col``,

        n_docs, n_gopher_pass (Gopher rules keep), sum_quality /
        n_quality_keep (hashed-BoW classifier), n_exact_dup (docs an
        exact keep-first dedup would drop).

    ONE fused text scan computes both stateless quality kernels
    (stages/quality.gopher_rules + quality_score) per batch and
    pre-aggregates per source; the exact-dup flag set is the pair
    output's dup side (bounded by dup density, broadcast once). Partial
    rows are n_sources per batch, folded driver-side — no string-key
    groupby shuffle (the known Ray string-sort pathology). All-integer
    output, fully SQL-restatable."""
    import ray as _ray

    from dupers_ray.stages.quality import gopher_rules, quality_score

    dup_df = exact_dupe_pairs(
        docs.select_columns([id_col, text_col]),
        id_col=id_col, content_col=text_col,
    ).to_pandas()
    col = f"match_{id_col}"
    dup_ids = (
        np.sort(dup_df[col].to_numpy(np.int64))
        if len(dup_df) and col in dup_df.columns else np.empty(0, np.int64)
    )
    ref = _ray.put(dup_ids)

    def per_batch(t: pa.Table) -> pa.Table:
        dups = _ray.get(ref)
        g = gopher_rules(t, id_col=id_col, text_col=text_col)
        q = quality_score(t, id_col=id_col, text_col=text_col)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        if len(dups):
            pos = np.searchsorted(dups, ids).clip(0, len(dups) - 1)
            is_dup = (dups[pos] == ids).astype(np.int64)
        else:
            is_dup = np.zeros(len(ids), np.int64)
        keys, inv = np.unique(
            np.asarray(t.column(key_col).to_pylist(), dtype=object),
            return_inverse=True,
        )
        def agg(v):
            return np.bincount(inv, weights=v, minlength=len(keys)).astype(np.int64)
        return pa.table({
            key_col: pa.array(list(keys), pa.string()),
            "n_docs": pa.array(np.bincount(inv, minlength=len(keys)).astype(np.int64)),
            "n_gopher_pass": pa.array(agg(
                np.asarray(g.column("keep"), dtype=np.int64))),
            "sum_quality": pa.array(agg(
                np.asarray(q.column("score"), dtype=np.int64))),
            "n_quality_keep": pa.array(agg(
                np.asarray(q.column("keep"), dtype=np.int64))),
            "n_exact_dup": pa.array(agg(is_dup)),
        })

    parts = docs.select_columns([id_col, text_col, key_col]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    out = (
        parts.groupby(key_col, as_index=False)[
            ["n_docs", "n_gopher_pass", "sum_quality",
             "n_quality_keep", "n_exact_dup"]
        ].sum().sort_values(key_col)
    )
    return ray.data.from_pandas(out)


def top_quality_per_source(
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    key_col: str = "source",
    k: int = 3,
) -> "ray.data.Dataset":
    """Per-source top-k docs by hashed-BoW quality score (ties broken by
    min id) — grouped top-k WITHOUT a global sort: each batch emits at
    most k rows per source it contains (partial top-k is closed under
    merge), and the ≤ n_batches*k*n_sources partials fold driver-side
    (source cardinality is broadcast-bounded; swap the fold for a
    groupby(key).map_groups when it is not). The reference's closest
    surface is its full ORDER-BY listing (`dupers ls`,
    pkg/database/database.go:373-447); this is the bounded-memory
    corpus-scale version of 'show me the best pages per site'."""
    from dupers_ray.stages.quality import quality_score

    def partial(t: pa.Table) -> pa.Table:
        q = quality_score(t, id_col=id_col, text_col=text_col)
        df = pd.DataFrame({
            key_col: t.column(key_col).to_pylist(),
            id_col: np.asarray(t.column(id_col), dtype=np.int64),
            "score": np.asarray(q.column("score"), dtype=np.int64),
        })
        df = df.sort_values(
            [key_col, "score", id_col], ascending=[True, False, True],
            kind="mergesort",
        )
        return pa.Table.from_pandas(
            df.groupby(key_col, sort=False).head(k), preserve_index=False
        )

    parts = docs.select_columns([id_col, text_col, key_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    parts = parts.sort_values(
        [key_col, "score", id_col], ascending=[True, False, True],
        kind="mergesort",
    )
    top = parts.groupby(key_col, sort=False).head(k).copy()
    top["rank"] = top.groupby(key_col, sort=False).cumcount() + 1
    return ray.data.from_pandas(
        top[[key_col, "rank", id_col, "score"]].reset_index(drop=True)
    )
