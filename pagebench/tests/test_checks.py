"""The output checks accept a correct answer and reject corrupted ones."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pagebench import checks
from pagebench.corpus import CorpusSpec, build_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    build_corpus(path, CorpusSpec(n=400, seed=7))
    return path


@pytest.fixture(scope="module")
def truth(corpus) -> pd.DataFrame:
    return pq.read_table(str(corpus / "truth.parquet")).to_pandas()


def _assignment(truth: pd.DataFrame) -> pd.DataFrame:
    """The truth clustering, with every boilerplate row merged into one
    cluster as the engine does."""
    cid = truth["cluster_id"].where(truth["kind"] != "boiler", -1)
    return pd.DataFrame({"url": truth["url"], "cluster_id": cid})


def _check(assigned: pd.DataFrame, truth: pd.DataFrame):
    return checks.check_clusters(pa.Table.from_pandas(assigned),
                                 pa.Table.from_pandas(truth))


def test_truth_assignment_passes(truth):
    recall, problems = _check(_assignment(truth), truth)
    assert problems == []
    assert recall == 1.0


def test_dropped_url_fails(truth):
    a = _assignment(truth).iloc[1:]
    _, problems = _check(a, truth)
    assert any("not assigned" in p for p in problems)


def test_duplicate_assignment_fails(truth):
    a = _assignment(truth)
    _, problems = _check(pd.concat([a, a.iloc[:1]]), truth)
    assert any("more than once" in p for p in problems)


def test_merged_truth_clusters_fail(truth):
    a = _assignment(truth)
    exact = truth.loc[truth["kind"] == "exact", "cluster_id"].unique()
    a.loc[a["cluster_id"] == exact[1], "cluster_id"] = exact[0]
    _, problems = _check(a, truth)
    assert any("span two truth clusters" in p for p in problems)


def test_split_cluster_lowers_recall(truth):
    a = _assignment(truth)
    near = truth.loc[truth["kind"] == "near", "cluster_id"].unique()
    for c in near[: len(near) // 2]:  # every member of half the clusters alone
        rows = a["cluster_id"] == c
        a.loc[rows, "cluster_id"] = -1000 - a.index[rows]
    recall, problems = _check(a, truth)
    assert recall < checks.RECALL_FLOOR
    assert any("near recall" in p for p in problems)


def _tiers(corpus, truth: pd.DataFrame) -> pd.DataFrame:
    """Correct tier labels: identical non-empty texts keep their min url,
    then each near cluster keeps its min surviving url."""
    pages = pq.read_table(str(corpus / "pages"), columns=["url", "text"]).to_pandas()
    df = truth.merge(pages, on="url")
    tier = pd.Series("kept", index=df.index)
    live = df["text"].str.len() > 0
    first = df.loc[live].groupby("text")["url"].transform("min")
    tier[first.index[df.loc[live, "url"] != first]] = "exact"
    near = df.loc[(df["kind"] == "near") & (tier == "kept")]
    keep = near.groupby("cluster_id")["url"].transform("min")
    tier[keep.index[near["url"] != keep]] = "near"
    return pd.DataFrame({"url": df["url"], "tier": tier})


def _check_tiers(labels: pd.DataFrame, truth: pd.DataFrame, corpus):
    return checks.check_tiers(pa.Table.from_pandas(labels),
                              pa.Table.from_pandas(truth), corpus / "pages")


def test_correct_tiers_pass(corpus, truth):
    recall, problems = _check_tiers(_tiers(corpus, truth), truth, corpus)
    assert problems == []
    assert recall == 1.0


def test_unremoved_exact_duplicate_fails(corpus, truth):
    labels = _tiers(corpus, truth)
    labels.loc[labels.index[labels["tier"] == "exact"][0], "tier"] = "kept"
    _, problems = _check_tiers(labels, truth, corpus)
    assert any("DuckDB counts" in p for p in problems)


def test_cluster_losing_every_row_fails(corpus, truth):
    labels = _tiers(corpus, truth)
    unique = truth.index[truth["kind"] == "unique"][0]
    labels.loc[labels["url"] == truth.loc[unique, "url"], "tier"] = "near"
    _, problems = _check_tiers(labels, truth, corpus)
    assert any("lost every row" in p for p in problems)


def test_dropped_label_fails(corpus, truth):
    _, problems = _check_tiers(_tiers(corpus, truth).iloc[1:], truth, corpus)
    assert any("not labelled" in p for p in problems)


def test_job_timeout_and_errors_surface():
    import time

    from pagebench.bench import JobTimeout, _call_with_timeout

    assert _call_with_timeout(lambda: 7, 5.0) == 7
    with pytest.raises(JobTimeout):
        _call_with_timeout(lambda: time.sleep(2.0), 0.1)
    with pytest.raises(ZeroDivisionError):
        _call_with_timeout(lambda: 1 / 0, 5.0)
