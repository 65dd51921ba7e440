from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from dupers_ray.pipelines.ingest import ingest_binary_files, ingest_pages
from dupers_ray.pipelines.report import deletion_list, dupe_report, sensen_keep_dirs
from dupers_ray.stages.filters import canonical_bucket, mark_term, skip_junk, skip_self


def test_skip_junk():
    urls = [
        "http://x/a/file.txt",
        "http://x/a/.DS_Store",           # junk basename
        "http://x/node_modules/b.js",     # junk dir
        "http://x/a/._resource",          # AppleDouble
        "http://x/.git/config",           # dot-dir
        "http://x/Thumbs.db",
    ]
    ds = rd.from_items([{"url": u} for u in urls])
    out = skip_junk(ds).to_pandas()["url"].tolist()
    assert out == ["http://x/a/file.txt"]


def test_skip_self():
    ds = rd.from_items([{"url": u} for u in ["a", "b", "c"]])
    assert sorted(skip_self(ds, ["b"]).to_pandas()["url"]) == ["a", "c"]


def test_canonical_bucket():
    t = pa.table({"bucket": ["MyBucket/", "other"]})
    out = canonical_bucket(t)
    assert out.column("bucket").to_pylist() == ["mybucket", "other"]


def test_mark_term():
    t = pa.table({"url": ["path/Readme.txt", "path/other"]})
    out = mark_term(t, "readme")
    assert out.column("marked").to_pylist()[0] == "path/[readme].txt"
    out2 = mark_term(t, "Readme", exact=True)
    assert out2.column("marked").to_pylist()[0] == "path/[Readme].txt"


def test_deletion_list_and_report():
    rows = [
        {"url": "b/1.txt", "text": "same"},
        {"url": "a/2.txt", "text": "same"},
        {"url": "c/3.txt", "text": "same"},
        {"url": "d/4.txt", "text": "unique"},
    ]
    ds = rd.from_items(rows)
    dels = sorted(deletion_list(ds).to_pandas()["url"])
    # canonical = min(url) = a/2.txt survives
    assert dels == ["b/1.txt", "c/3.txt"]
    rep = dupe_report(ds).to_pandas()
    assert set(rep["url"]) == {"a/2.txt"}
    assert set(rep["match_url"]) == {"b/1.txt", "c/3.txt"}


def test_dupe_report_formatted():
    import pandas as pd

    t = pa.table({
        "url": ["b/1.txt", "a/2.txt"],
        "text": ["same", "same"],
        "warc_ts": pa.array(
            [pd.Timestamp("2006-01-02 15:04:05"),
             pd.Timestamp("2007-03-04 05:06:07")],
            pa.timestamp("us"),
        ),
        "n_chars": pa.array([1500, 82_854_982], pa.int64()),
    })
    ds = rd.from_arrow(t)
    rep = dupe_report(
        ds, keep_cols=["warc_ts", "n_chars"], formatted=True
    ).to_pandas()
    assert len(rep) == 1
    assert rep.iloc[0]["warc_ts_fmt"] == "02 Jan 2006 15:04"
    assert rep.iloc[0]["n_chars_fmt"] == "1.5 kB"


def test_sensen_keep_dirs():
    urls = [
        "root/games/DOOM.EXE",
        "root/games/readme.txt",
        "root/docs/a.txt",
        "root/tools/run.com",
    ]
    ds = rd.from_items([{"url": u} for u in urls])
    keep = sorted(sensen_keep_dirs(ds).to_pandas()["dir"])
    assert keep == ["root/games", "root/tools"]


def test_ingest_pages_index(pages_small):
    ds = rd.from_arrow(pages_small.pages).repartition(4)
    idx = ingest_pages(ds, bucket="corpus1").to_pandas()
    # every non-empty-text page gets an index row with a 64-hex digest
    texts = dict(zip(pages_small.pages["url"].to_pylist(),
                     pages_small.pages["text"].to_pylist()))
    exp = [u for u, t in texts.items() if t]
    assert sorted(idx["url"]) == sorted(exp)
    assert (idx["bucket"] == "corpus1").all()
    assert idx["digest"].str.len().eq(64).all()
    # extraction parity: digest of extracted text == digest of stored text
    import hashlib

    sample = idx.iloc[0]
    assert sample["digest"] == hashlib.sha256(texts[sample["url"]].encode()).hexdigest()


def test_ingest_binary_files(tmp_path):
    (tmp_path / "f1.txt").write_bytes(b"hello")
    (tmp_path / "f2.txt").write_bytes(b"world")
    ds = ingest_binary_files(str(tmp_path))
    df = ds.to_pandas()
    assert len(df) == 2
    assert set(df["html"]) == {b"hello", b"world"}
    assert all(u.endswith(".txt") for u in df["url"])


def test_ingest_binary_files_with_archive(tmp_path):
    import io
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("member1.txt", b"m1")
        z.writestr("member2.txt", b"m2")
    (tmp_path / "arch.zip").write_bytes(buf.getvalue())
    (tmp_path / "plain.txt").write_bytes(b"plain")
    ds = ingest_binary_files(str(tmp_path), explode_archive_members=True)
    df = ds.to_pandas()
    urls = sorted(df["url"])
    assert any(u.endswith("arch.zip/member1.txt") for u in urls)
    assert any(u.endswith("arch.zip/member2.txt") for u in urls)
    assert any(u.endswith("plain.txt") for u in urls)
    assert len(df) == 3


def test_display_formatting_parity():
    """F8/F9: mtime layout '02 Jan 2006 15:04' (dupe.go:41) and
    go-humanize-style byte strings (dupe.go:496)."""
    import pandas as pd
    import pyarrow as pa

    from dupers_ray.functions.display import (
        format_mtime,
        format_report,
        humanize_bytes,
    )

    ts = pa.array(
        [pd.Timestamp("2006-01-02 15:04:05"), pd.Timestamp("2024-12-31 23:59:59"), None],
        pa.timestamp("us"),
    )
    assert format_mtime(ts).to_pylist() == ["02 Jan 2006 15:04", "31 Dec 2024 23:59", None]

    # boundary parity with go-humanize humanateBytes: it rounds to ONE
    # decimal FIRST (floor(v*10+0.5)/10) and only then picks %.0f/%.1f, so
    # 9950 rounds UP across the format boundary to "10 kB" and 123.456 GB
    # becomes 123.5 -> %.0f (half-to-even) -> "124 GB"
    sizes = pa.array(
        [0, 9, 999, 1000, 9_940, 9_950, 9_999, 82_854_982, 123_456_789,
         123_456_789_000, None],
        pa.int64(),
    )
    assert humanize_bytes(sizes).to_pylist() == [
        "0 B", "9 B", "999 B", "1.0 kB", "9.9 kB", "10 kB", "10 kB",
        "83 MB", "124 MB", "124 GB", None,
    ]

    t = pa.table({"url": ["a"], "warc_ts": ts.slice(0, 1), "n_chars": pa.array([1500])})
    out = format_report(t)
    assert out.column("warc_ts_fmt").to_pylist() == ["02 Jan 2006 15:04"]
    assert out.column("n_chars_fmt").to_pylist() == ["1.5 kB"]


def test_weighted_sample_probability_and_determinism():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from dupers_ray.stages.filters import weighted_sample

    n = 20_000
    w = np.full(n, 4096, np.int64)  # p = 4096*64/2^20 = 0.25
    w[:1000] = 0                    # zero weight -> never sampled
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "n_chars": pa.array(w),
    })
    out = (
        rd.from_arrow(tbl).repartition(4)
        .map_batches(weighted_sample, batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    assert (out["n_chars"] > 0).all()
    frac = len(out) / (n - 1000)
    assert abs(frac - 0.25) < 0.02
    # deterministic: second run identical; different salt differs
    out2 = (
        rd.from_arrow(tbl)
        .map_batches(weighted_sample, batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])
    out3 = (
        rd.from_arrow(tbl)
        .map_batches(weighted_sample, batch_format="pyarrow",
                     zero_copy_batch=True, fn_kwargs={"salt": 1})
        .to_pandas()
    )
    assert sorted(out["doc_id"]) != sorted(out3["doc_id"])
    # saturating weight -> probability clamps at 1
    big = pa.table({
        "doc_id": pa.array(np.arange(100), pa.int64()),
        "n_chars": pa.array(np.full(100, 1 << 20, np.int64)),
    })
    kept = rd.from_arrow(big).map_batches(
        weighted_sample, batch_format="pyarrow", zero_copy_batch=True
    ).count()
    assert kept == 100


def test_global_top_k_matches_global_sort():
    """Per-block combiner top-k ≡ a global sort+limit, including the
    deterministic tie cutoff, across a many-block layout."""
    import numpy as np

    from dupers_ray.stages.filters import global_top_k

    rng = np.random.default_rng(7)
    n = 5000
    tbl = pa.table({
        "token": pa.array([f"t{i:05d}" for i in range(n)]),
        "n": pa.array(rng.integers(0, 50, n), type=pa.int64()),  # many ties
    })
    ds = rd.from_arrow(tbl).repartition(16)
    got = global_top_k(ds, by=[("n", False), ("token", True)], k=40).to_pandas()
    exp = (
        tbl.to_pandas()
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(40)
        .reset_index(drop=True)
    )
    assert got[["n", "token"]].values.tolist() == exp[["n", "token"]].values.tolist()
