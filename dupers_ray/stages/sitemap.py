"""Sitemap extraction + crawl-coverage audit — engine-new web surface
(the reference indexes what it walked; a crawl pipeline must also know
what the SITE says exists, which is the sitemaps.org XML protocol).

Two operators:

- :func:`extract_sitemaps` — one stateless vectorized pass over
  sitemap.xml documents: ``split_pattern`` on ``<url>`` fans each
  sitemap to its entries, one RE2 ``extract_regex`` per piece pulls
  ``<loc>`` (whitespace-tolerant) and the optional ``<lastmod>``;
  ``list_parent_indices`` offsets map entries back to their sitemap —
  no per-row Python (same shape as linkgraph.extract_links).

- :func:`sitemap_coverage` — reconciles the sitemap-declared URL set
  against the crawled URL set per host.  Scale shape: both sides
  project to (url, listed, crawled) flag rows (URLs are unique within
  a side, so flags need no per-batch combiner), ONE groupby(url) sums
  the flags, then a per-batch pandas combiner counts the three
  coverage classes per host and ONE tiny groupby(host) merges — two
  shuffles, both of narrow rows, nothing driver-side.

Output classes per host: ``n_both`` (listed ∧ crawled), ``n_listed_only``
(sitemap promises a page the crawl never fetched — the recrawl queue),
``n_crawled_only`` (fetched pages the site doesn't declare — orphan /
hidden pages), plus ``n_listed`` = both + listed_only.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data



def _as_string(col) -> pa.Array:
    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
        try:
            col = pc.cast(col, pa.string())
        except pa.ArrowInvalid:
            # invalid UTF-8 in raw crawl bytes: lossy-decode (U+FFFD)
            # rather than abort the batch (same totality contract as
            # linkgraph.alternate_links)
            col = pa.array(
                [None if v is None else v.decode("utf-8", "replace")
                 for v in col.to_pylist()],
                pa.string(),
            )
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.fill_null(col, "")


def sitemap_entries_batch(
    t: pa.Table,
    *,
    id_col: str = "host_id",
    html_col: str = "html",
    entry_tag: str = "<url>",
) -> pa.Table:
    """(host_id, loc, lastmod) — one row per ``<url>`` entry (pass
    ``entry_tag="<sitemap>"`` to read the ``<sitemapindex>`` level of
    the protocol instead).  ``<loc>`` is stripped of surrounding
    whitespace; ``lastmod`` is NULL when the entry has no ``<lastmod>``
    tag.  Entries without a ``<loc>`` (or non-sitemap documents
    entirely) contribute no rows."""
    html = _as_string(t.column(html_col))
    pieces = pc.split_pattern(html, entry_tag)
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    nent = pc.list_value_length(pieces).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(nent) - nent, nent)
    pos = np.arange(len(flat), dtype=np.int64) - starts
    keep = pos > 0  # piece 0 is the pre-entry header/prolog
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    m = pc.extract_regex(flat, r"(?s)<loc>\s*(?P<u>[^<\s]+)\s*</loc>")
    loc = pc.struct_field(m, "u")
    lm = pc.struct_field(
        pc.extract_regex(flat, r"(?s)<lastmod>\s*(?P<m>[^<]+?)\s*</lastmod>"),
        "m",
    )
    ok = pc.is_valid(loc).to_numpy(zero_copy_only=False)
    idx = pa.array(parent[ok])
    mask = pa.array(ok)
    return pa.table({
        id_col: t.column(id_col).take(idx),
        "loc": loc.filter(mask),
        "lastmod": lm.filter(mask),
    })


def extract_sitemaps(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "host_id",
    html_col: str = "html",
) -> "ray.data.Dataset":
    """Vectorized sitemap-entry extraction over a Dataset of sitemap
    documents (see :func:`sitemap_entries_batch`)."""
    return ds.map_batches(
        functools.partial(
            sitemap_entries_batch, id_col=id_col, html_col=html_col,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def resolve_sitemap_index(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "host_id",
    url_col: str = "url",
    html_col: str = "html",
) -> "ray.data.Dataset":
    """Two-level sitemap protocol: ``<sitemapindex>`` documents list
    child sitemap locs (often on a CDN host, so the child's own URL
    does NOT identify the site); child ``<urlset>`` documents carry the
    page entries.  Resolution attributes every page loc to the host
    whose INDEX referenced the child — a join of child entries (keyed
    by the child doc's own url) against index entries (child_url →
    host).  Scale shape: both levels extract in the same streaming
    pass over the sitemap corpus; the index side is one row per child
    sitemap, joined by an inner ``pipelines/joins.lookup_join`` — a
    broadcast sorted-hash lookup while it is small, the cogroup join above
    ``joins.BROADCAST_ROWS``.  Both routes match on the url STRING; the
    hash only orders or routes.  Output: (host_id, loc), one row per
    resolved page; children no index references are dropped."""

    def index_entries(t: pa.Table) -> pa.Table:
        mask = pc.match_substring(
            _as_string(t.column(html_col)), "<sitemapindex")
        ent = sitemap_entries_batch(
            t.filter(mask), id_col=id_col, html_col=html_col,
            entry_tag="<sitemap>",
        )
        return ent.select([id_col, "loc"]).rename_columns(
            [id_col, "child_url"])

    def child_entries(t: pa.Table) -> pa.Table:
        mask = pc.match_substring(
            _as_string(t.column(html_col)), "<urlset")
        ent = sitemap_entries_batch(
            t.filter(mask), id_col=url_col, html_col=html_col,
        )
        return ent.select([url_col, "loc"])

    idx = ds.map_batches(
        index_entries, batch_format="pyarrow", zero_copy_batch=True,
    )
    chd = ds.map_batches(
        child_entries, batch_format="pyarrow", zero_copy_batch=True,
    )

    from dupers_ray.pipelines.joins import lookup_join

    joined = lookup_join(
        chd, idx.select_columns(["child_url", id_col]),
        on=url_col, right_on="child_url",
    )
    return joined.select_columns([id_col, "loc"])


def robots_sitemaps_batch(
    t: pa.Table,
    *,
    id_col: str = "host_id",
    body_col: str = "body",
) -> pa.Table:
    """``Sitemap:`` directive discovery from robots.txt bodies (RFC
    9309 §2.3 other-records / sitemaps.org protocol: the directive is
    case-insensitive, may appear multiple times, anywhere in the file,
    and ``#`` starts a comment).  Vectorized: split on newlines, strip
    comments with one RE2 rewrite, one anchored ``extract_regex`` per
    line, ``list_parent_indices`` maps hits back to their host.
    Output: (host_id, sitemap_url), one row per directive."""
    body = _as_string(t.column(body_col))
    pieces = pc.split_pattern(body, "\n")
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    flat = pc.replace_substring_regex(flat, r"#.*$", "")
    m = pc.extract_regex(
        flat, r"(?i)^[ \t]*sitemap[ \t]*:[ \t]*(?P<u>\S+)")
    url = pc.struct_field(m, "u")
    ok = pc.is_valid(url).to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: t.column(id_col).take(pa.array(parent[ok])),
        "sitemap_url": url.filter(pa.array(ok)),
    })


def discover_sitemaps(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "host_id",
    body_col: str = "body",
) -> "ray.data.Dataset":
    """Vectorized ``Sitemap:`` discovery over a Dataset of robots.txt
    bodies (see :func:`robots_sitemaps_batch`)."""
    return ds.map_batches(
        functools.partial(
            robots_sitemaps_batch, id_col=id_col, body_col=body_col,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def page_urls(
    t: pa.Table,
    *,
    n_hosts: int = 20,
    id_col: str = "doc_id",
) -> pa.Table:
    """Deterministic crawl-side URL per doc: doc i lives at
    ``https://host{i % n_hosts}.example/p/{i}`` (the synthetic corpus'
    host assignment; arithmetic so the oracle can restate it).  Pure
    Arrow string build."""
    ids = t.column(id_col).cast(pa.int64())
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    host = pc.cast(
        pc.subtract(ids, pc.multiply(
            pc.divide(ids, n_hosts), pa.scalar(n_hosts, pa.int64()))),
        pa.string(),
    )
    url = pc.binary_join_element_wise(
        pa.scalar("https://host"), host, pa.scalar(".example/p/"),
        pc.cast(ids, pa.string()), pa.scalar(""),
    )
    return pa.table({id_col: t.column(id_col), "url": url})


_HOST_RE = r"^https?://(?P<h>[^/]+)/"


def _flag_side(t: pa.Table, *, url_col: str, listed: int) -> pa.Table:
    url = _as_string(t.column(url_col))
    n = len(url)
    one = np.ones(n, np.int64)
    return pa.table({
        "url": url,
        "listed": pa.array(one * listed),
        "crawled": pa.array(one * (1 - listed)),
    })


def sitemap_coverage(
    entries: "ray.data.Dataset",
    pages: "ray.data.Dataset",
    *,
    loc_col: str = "loc",
    url_col: str = "url",
) -> "ray.data.Dataset":
    """Per-host reconciliation of sitemap-declared vs crawled URLs.
    Output: (host, n_listed, n_both, n_listed_only, n_crawled_only),
    sorted by host.  Both inputs stream; URLs never gather on the
    driver (union → groupby(url) flag-sum → per-batch host combiner →
    groupby(host) sum)."""
    listed = entries.map_batches(
        functools.partial(_flag_side, url_col=loc_col, listed=1),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    crawled = pages.map_batches(
        functools.partial(_flag_side, url_col=url_col, listed=0),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    from dupers_ray.functions.grouping import partitioned_aggregate

    # hash-partitioned reduce on STRING urls — corpus-sized key set;
    # groupby(url) would global-sort every url row
    per_url = partitioned_aggregate(
        listed.union(crawled), "url", sums=("listed", "crawled"),
    )

    def host_counts(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(_as_string(t.column("url")), _HOST_RE), "h")
        li = t.column("listed").to_numpy(zero_copy_only=False) > 0
        cr = t.column("crawled").to_numpy(zero_copy_only=False) > 0
        df = pd.DataFrame({
            "host": host.to_numpy(zero_copy_only=False),
            "n_both": (li & cr).astype(np.int64),
            "n_listed_only": (li & ~cr).astype(np.int64),
            "n_crawled_only": (cr & ~li).astype(np.int64),
        })
        out = df.groupby("host", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    rolled = partitioned_aggregate(
        per_url.map_batches(
            host_counts, batch_format="pyarrow", zero_copy_batch=True,
        ),
        "host", sums=("n_both", "n_listed_only", "n_crawled_only"),
    )

    def add_listed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "n_listed",
            pc.add(t.column("n_both"), t.column("n_listed_only")),
        )

    return rolled.map_batches(
        add_listed, batch_format="pyarrow", zero_copy_batch=True,
    ).sort("host")


def recrawl_queue(
    entries: "ray.data.Dataset",
    captures: "ray.data.Dataset",
    *,
    loc_col: str = "loc",
    lastmod_col: str = "lastmod",
    url_col: str = "url",
    cap_col: str = "cap_date",
) -> "ray.data.Dataset":
    """The crawl scheduler's work list from sitemap freshness claims:
    a listed loc is 'missing' when no capture exists, 'stale' when its
    ``<lastmod>`` postdates the last capture (ISO dates compare
    lexicographically); fresh locs drop.  ONE cogroup join of (loc,
    lastmod) against (url, cap_date) on the url string — both sides
    stream, narrow rows only.  Output: (loc, reason)."""
    from dupers_ray.pipelines.joins import cogroup_join

    def left_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "loc": _as_string(t.column(loc_col)),
            "lastmod": t.column(lastmod_col),
        })

    def right_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "url": _as_string(t.column(url_col)),
            "cap_date": t.column(cap_col),
        })

    joined = cogroup_join(
        entries.map_batches(
            left_rows, batch_format="pyarrow", zero_copy_batch=True),
        captures.map_batches(
            right_rows, batch_format="pyarrow", zero_copy_batch=True),
        on="loc", right_on="url", how="left",
    )

    def classify(t: pa.Table) -> pa.Table:
        cap = t.column("cap_date")
        lm = t.column("lastmod")
        missing = pc.is_null(cap)
        stale = pc.fill_null(
            pc.and_(pc.is_valid(lm), pc.greater(lm, cap)), False)
        reason = pc.if_else(
            missing, pa.scalar("missing", pa.string()),
            pc.if_else(stale, pa.scalar("stale", pa.string()),
                       pa.scalar(None, pa.string())))
        out = pa.table({"loc": t.column("loc"), "reason": reason})
        return out.filter(pc.is_valid(reason))

    return joined.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True)
