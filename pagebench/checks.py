"""Output checks against the corpus's own planted truth.

Every check returns a list of problems; an empty list means the output is
correct. Sizes come from ``truth.parquet`` and the Parquet pages, never
from the requested document count: the generator's exact-cluster loop can
emit one row more than requested.

Truth kinds: ``exact`` and ``near`` clusters are planted duplicates;
``boiler`` rows share one large template block and merge by design, so
they are exempt from the purity checks; ``unique`` and ``edge`` rows are
singletons.
"""

from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

RECALL_FLOOR = 0.99
PURE_KINDS = ("exact", "near", "unique", "edge")
DUP_KINDS = ("exact", "near")
TIERS = ("exact", "normalized", "near", "kept")


def _labelled_once(urls: pd.Series, truth: pd.DataFrame, what: str) -> list[str]:
    problems = []
    n_dup = int(urls.duplicated().sum())
    if n_dup:
        problems.append(f"{n_dup} urls {what} more than once")
    got, want = set(urls), set(truth["url"])
    if want - got:
        problems.append(f"{len(want - got)} truth urls not {what}")
    if got - want:
        problems.append(f"{len(got - want)} {what} urls are not in the corpus")
    return problems


def _pairs(sizes: pd.Series) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


def cluster_recall(assigned: pd.DataFrame, truth: pd.DataFrame) -> dict[str, float]:
    """Per duplicate kind, the share of planted same-cluster url pairs
    that share a predicted cluster."""
    m = truth.merge(assigned.drop_duplicates("url"), on="url",
                    suffixes=("", "_pred"))
    out = {}
    for kind in DUP_KINDS:
        want = _pairs(truth.loc[truth["kind"] == kind]
                      .groupby("cluster_id").size())
        hit = _pairs(m.loc[m["kind"] == kind]
                     .groupby(["cluster_id", "cluster_id_pred"]).size())
        out[kind] = hit / want if want else 1.0
    return out


def check_clusters(assigned: pa.Table, truth: pa.Table) -> tuple[float, list[str]]:
    """``(url, cluster_id)`` output of the flagship: every truth url is
    assigned exactly once, planted-pair recall is at least
    ``RECALL_FLOOR`` per duplicate kind, and no predicted cluster spans
    two truth clusters of a kind in ``PURE_KINDS``. Returns
    (worst recall, problems)."""
    a = assigned.select(["url", "cluster_id"]).to_pandas()
    t = truth.to_pandas()
    problems = _labelled_once(a["url"], t, "assigned")
    recall = cluster_recall(a, t)
    for kind, r in recall.items():
        if r < RECALL_FLOOR:
            problems.append(f"{kind} recall {r:.4f} < {RECALL_FLOOR}")
    m = t.merge(a.drop_duplicates("url"), on="url", suffixes=("", "_pred"))
    pure = m.loc[m["kind"].isin(PURE_KINDS)]
    spans = pure.groupby("cluster_id_pred")["cluster_id"].nunique()
    n_mixed = int((spans > 1).sum())
    if n_mixed:
        problems.append(f"{n_mixed} predicted clusters span two truth clusters")
    return min(recall.values()), problems


def nonempty_urls(pages_dir: Path) -> set[str]:
    t = pq.read_table(str(pages_dir), columns=["url", "text"]).to_pandas()
    return set(t.loc[t["text"].fillna("").str.len() > 0, "url"])


def check_store(store_dir: Path, pages_dir: Path) -> list[str]:
    """The signature table written by the incremental run holds one row
    per doc with non-empty text."""
    urls = pq.read_table(str(store_dir), columns=["url"]).column("url").to_pandas()
    want = nonempty_urls(pages_dir)
    problems = []
    if len(urls) != len(want):
        problems.append(f"store has {len(urls)} rows, corpus has "
                        f"{len(want)} non-empty-text docs")
    if urls.duplicated().any() or set(urls) != want:
        problems.append("store urls differ from the non-empty-text docs")
    return problems


def exact_dup_count(pages_dir: Path) -> int:
    """Rows the exact tier must remove, counted by DuckDB over the input
    texts: non-empty rows minus distinct non-empty texts."""
    import duckdb

    glob = str(pages_dir / "*.parquet")
    with duckdb.connect() as con:
        return con.execute(
            "SELECT count(*) - count(DISTINCT text) FROM read_parquet(?) "
            "WHERE length(text) > 0", [glob]
        ).fetchone()[0]


def check_tiers(labels: pa.Table, truth: pa.Table, pages_dir: Path) -> tuple[float, list[str]]:
    """``(url, tier)`` output of the tier cascade: every url is labelled
    once with a known tier, the ``exact`` count matches DuckDB, each
    duplicate kind loses at least ``RECALL_FLOOR`` of the rows it can lose
    (all but one per truth cluster), and every truth cluster of a kind in
    ``PURE_KINDS`` keeps at least one row. Returns (worst recall,
    problems)."""
    lab = labels.select(["url", "tier"]).to_pandas()
    t = truth.to_pandas()
    problems = _labelled_once(lab["url"], t, "labelled")
    unknown = set(lab["tier"]) - set(TIERS)
    if unknown:
        problems.append(f"unknown tiers {sorted(unknown)}")
    n_exact = int((lab["tier"] == "exact").sum())
    want_exact = exact_dup_count(pages_dir)
    if n_exact != want_exact:
        problems.append(f"exact tier removed {n_exact} rows, DuckDB counts {want_exact}")
    m = t.merge(lab.drop_duplicates("url"), on="url")
    recall = {}
    for kind in DUP_KINDS:
        sub = m.loc[m["kind"] == kind]
        removable = int((t["kind"] == kind).sum() - t.loc[t["kind"] == kind,
                                                           "cluster_id"].nunique())
        removed = int((sub["tier"] != "kept").sum())
        recall[kind] = removed / removable if removable else 1.0
        if recall[kind] < RECALL_FLOOR:
            problems.append(f"{kind} tier recall {recall[kind]:.4f} < {RECALL_FLOOR}")
    pure = m.loc[m["kind"].isin(PURE_KINDS)]
    kept = pure.assign(k=pure["tier"] == "kept").groupby("cluster_id")["k"].any()
    n_lost = int((~kept).sum())
    if n_lost:
        problems.append(f"{n_lost} truth clusters lost every row")
    return min(recall.values()), problems
