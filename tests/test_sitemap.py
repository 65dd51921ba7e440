"""Sitemap extraction + coverage: the vectorized <url>/<loc>/<lastmod>
pass pinned against hand-built XML (padding, missing lastmod, junk,
non-sitemap docs), planted-arithmetic synth parity, and the Dataset
coverage rollup against an independent set computation."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from dupers_ray.stages.sitemap import (
    extract_sitemaps,
    page_urls,
    sitemap_coverage,
    sitemap_entries_batch,
)
from dupers_ray.synth import synth_sitemap_pages


def test_entries_handcrafted():
    xml = (
        '<?xml version="1.0"?>\n'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
        "<!-- comment with <url> text is NOT an entry… actually it "
        "opens one with no <loc>, which must be dropped -->\n"
        "  <url><loc>https://a.example/1</loc>"
        "<lastmod>2026-01-02</lastmod></url>\n"
        "  <url><loc>\n   https://a.example/2  \n</loc></url>\n"
        "  <url><changefreq>daily</changefreq></url>\n"
        "  <url><loc>https://a.example/3</loc>"
        "<lastmod>  2026-03-04 </lastmod><priority>0.5</priority></url>\n"
        "</urlset>"
    )
    t = pa.table({
        "host_id": pa.array([7, 8], pa.int64()),
        "html": pa.array([xml.encode(), b"<html><body>not a sitemap"],
                         pa.binary()),
    })
    out = sitemap_entries_batch(t)
    assert out.column("host_id").to_pylist() == [7, 7, 7]
    assert out.column("loc").to_pylist() == [
        "https://a.example/1", "https://a.example/2", "https://a.example/3",
    ]
    assert out.column("lastmod").to_pylist() == [
        "2026-01-02", None, "2026-03-04"]


def test_entries_empty_input():
    t = pa.table({
        "host_id": pa.array([], pa.int64()),
        "html": pa.array([], pa.binary()),
    })
    out = sitemap_entries_batch(t)
    assert out.num_rows == 0
    assert out.column_names == ["host_id", "loc", "lastmod"]


def _expected_entries(n_docs: int, n_hosts: int):
    rows = []
    for h in range(n_hosts):
        for k in range(h, n_docs, n_hosts):
            if k % 3 == 2:
                continue
            lm = None if k % 7 == 3 else f"2026-07-{k % 28 + 1:02d}"
            rows.append((h, f"https://host{h}.example/p/{k}", lm))
        for j in range(1 + h % 3):
            rows.append((
                h,
                f"https://host{h}.example/p/{n_docs + h + j * n_hosts}",
                f"2026-06-{h % 28 + 1:02d}",
            ))
    return sorted(rows)


def test_synth_extraction_parity():
    n_docs, n_hosts = 53, 5
    sm = synth_sitemap_pages(
        pa.table({"id": pa.array(range(n_hosts), pa.int64())}),
        n_docs=n_docs, n_hosts=n_hosts,
    )
    out = sitemap_entries_batch(sm)
    got = sorted(zip(
        out.column("host_id").to_pylist(),
        out.column("loc").to_pylist(),
        out.column("lastmod").to_pylist(),
    ))
    assert got == _expected_entries(n_docs, n_hosts)


def test_page_urls_arithmetic():
    t = pa.table({"doc_id": pa.array([0, 3, 5, 21], pa.int64())})
    out = page_urls(t, n_hosts=4)
    assert out.column("url").to_pylist() == [
        "https://host0.example/p/0", "https://host3.example/p/3",
        "https://host1.example/p/5", "https://host1.example/p/21",
    ]


def test_coverage_rollup(ray_session):
    n_docs, n_hosts = 53, 5
    sitemaps = rd.range(n_hosts).map_batches(
        synth_sitemap_pages, fn_kwargs={"n_docs": n_docs, "n_hosts": n_hosts},
        batch_format="pyarrow",
    )
    pages = rd.range(n_docs).map_batches(
        lambda t: page_urls(
            pa.table({"doc_id": t.column("id").cast(pa.int64())}),
            n_hosts=n_hosts),
        batch_format="pyarrow",
    )
    cov = sitemap_coverage(extract_sitemaps(sitemaps), pages).to_pandas()

    listed = {loc for _, loc, _ in _expected_entries(n_docs, n_hosts)}
    crawled = {
        f"https://host{i % n_hosts}.example/p/{i}" for i in range(n_docs)}
    for h in range(n_hosts):
        pre = f"https://host{h}.example/"
        li = {u for u in listed if u.startswith(pre)}
        cr = {u for u in crawled if u.startswith(pre)}
        row = cov[cov.host == f"host{h}.example"].iloc[0]
        assert row.n_both == len(li & cr)
        assert row.n_listed_only == len(li - cr)
        assert row.n_crawled_only == len(cr - li)
        assert row.n_listed == len(li)
    assert len(cov) == n_hosts
    # classes are disjoint and exhaustive per host
    assert (cov.n_both + cov.n_listed_only).equals(cov.n_listed)


def test_robots_sitemap_discovery_handcrafted():
    from dupers_ray.stages.sitemap import robots_sitemaps_batch

    body = (
        "# Sitemap: https://commented.example/never.xml\n"
        "User-agent: *\n"
        "Disallow: /x\n"
        "SITEMAP: https://a.example/s1.xml\n"
        "  sitemap:\thttps://a.example/s2.xml   # inline comment\n"
        "NotASitemap: https://a.example/decoy.xml\n"
        "Sitemap:https://a.example/s3.xml\n"
    )
    t = pa.table({
        "host_id": pa.array([1, 2], pa.int64()),
        "body": pa.array([body.encode(), b"User-agent: *\nAllow: /"],
                         pa.binary()),
    })
    out = robots_sitemaps_batch(t)
    assert out.column("host_id").to_pylist() == [1, 1, 1]
    assert out.column("sitemap_url").to_pylist() == [
        "https://a.example/s1.xml",
        "https://a.example/s2.xml",
        "https://a.example/s3.xml",
    ]


def test_robots_sitemap_synth_parity():
    from dupers_ray.stages.sitemap import robots_sitemaps_batch
    from dupers_ray.synth import synth_robots_bodies

    n = 11
    robots = synth_robots_bodies(
        pa.table({"id": pa.array(range(n), pa.int64())}))
    out = robots_sitemaps_batch(robots)
    exp = []
    for h in range(n):
        exp.append((h, f"https://host{h}.example/sitemap.xml"))
        if h % 3 == 0:
            exp.append((h, f"https://host{h}.example/news-sitemap.xml"))
    got = sorted(zip(out.column("host_id").to_pylist(),
                     out.column("sitemap_url").to_pylist()))
    assert got == sorted(exp)


def _forest_expected(n_docs: int, n_hosts: int):
    return sorted(
        (k % n_hosts, f"https://host{k % n_hosts}.example/p/{k}")
        for k in range(n_docs)
    )


def test_resolve_index_both_join_paths(ray_session, force_cogroup):
    from dupers_ray.stages.sitemap import resolve_sitemap_index
    from dupers_ray.synth import synth_sitemap_forest

    n_docs, n_hosts = 41, 5
    exp = _forest_expected(n_docs, n_hosts)
    calls = None
    for forced in (False, True):  # broadcast route, then cogroup route
        if forced:
            calls = force_cogroup()
        ds = rd.range(n_hosts).map_batches(
            synth_sitemap_forest,
            fn_kwargs={"n_docs": n_docs, "n_hosts": n_hosts},
            batch_format="pyarrow",
        )
        res = resolve_sitemap_index(ds).to_pandas()
        assert sorted(zip(res["host_id"], res["loc"])) == exp
    assert calls["lookup"] == 1


def test_resolve_index_drops_unreferenced_children(ray_session):
    from dupers_ray.stages.sitemap import resolve_sitemap_index

    idx = (
        "<sitemapindex>"
        "<sitemap><loc>https://cdn.example/a.xml</loc></sitemap>"
        "</sitemapindex>"
    )
    child_a = "<urlset><url><loc>https://h.example/p/1</loc></url></urlset>"
    orphan = "<urlset><url><loc>https://h.example/p/9</loc></url></urlset>"
    ds = rd.from_arrow(pa.table({
        "host_id": pa.array([3, -1, -1], pa.int64()),
        "url": pa.array([
            "https://h.example/sitemap.xml",
            "https://cdn.example/a.xml",
            "https://cdn.example/orphan.xml",
        ]),
        "html": pa.array(
            [idx.encode(), child_a.encode(), orphan.encode()], pa.binary()),
    }))
    res = resolve_sitemap_index(ds).to_pandas()
    assert sorted(zip(res["host_id"], res["loc"])) == [
        (3, "https://h.example/p/1")]


def test_recrawl_queue_classification(ray_session):
    from dupers_ray.stages.sitemap import recrawl_queue

    entries = rd.from_arrow(pa.table({
        "host_id": pa.array([0] * 4, pa.int64()),
        "loc": pa.array([
            "https://h.example/fresh",    # captured after lastmod
            "https://h.example/stale",    # lastmod after capture
            "https://h.example/phantom",  # never captured
            "https://h.example/nolm",     # no lastmod, captured -> drop
        ]),
        "lastmod": pa.array(
            ["2026-07-01", "2026-07-20", "2026-06-05", None]),
    }))
    captures = rd.from_arrow(pa.table({
        "url": pa.array([
            "https://h.example/fresh", "https://h.example/stale",
            "https://h.example/nolm", "https://h.example/unlisted",
        ]),
        "cap_date": pa.array(
            ["2026-07-10", "2026-07-10", "2026-07-10", "2026-07-10"]),
    }))
    out = recrawl_queue(entries, captures).to_pandas()
    got = sorted(zip(out["loc"], out["reason"]))
    assert got == [
        ("https://h.example/phantom", "missing"),
        ("https://h.example/stale", "stale"),
    ]
