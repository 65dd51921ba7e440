"""Web link-graph extraction + integer fixed-point PageRank / HITS.

The link-analysis leg a web-corpus engine needs next to dedup: pull
``<a href>`` targets out of the raw ``html`` column, roll them up to a
host-level edge list, and rank hosts with a fixed number of power
iterations (Page et al. 1999; Kleinberg 1999). Everything is integer
fixed-point (rank in parts-per-million, damping 85/100, floor
division) so the driver oracle hash-compares exactly — the
gopher_rules / dsir idiom.

Scale shape:
- ``extract_links`` is ONE stateless vectorized pass: Arrow
  ``split_pattern`` on ``href="`` fans each page out to its link
  pieces (offsets arithmetic, no Python per row), a second
  ``split_pattern(max_splits=1)`` + ``list_element`` closes the quote,
  and ``extract_regex`` keeps the https host. Malformed/relative
  hrefs drop out as nulls — counted, not crashed; non-UTF-8 html
  decodes lossily.
- ``pagerank`` / ``hits`` operate in the "rank vector fits in
  aggregate memory" regime (~10^8 hosts x 16 B): the host vector is
  ``ray.put`` ONCE per iteration and read once per task. Because that
  regime already bounds per-host state by driver/actor memory, every
  reduction here is a per-batch PRE-AGGREGATED partial (bincount over
  host ids → sparse (id, sum) pairs, at most distinct-hosts-per-batch
  rows) merged driver-side with ``np.add.at`` — ZERO shuffles. A
  measured 60 k-doc run spent 8 s per string-keyed groupby shuffle vs
  <1 s for the partial merge. At rank vectors beyond the broadcast
  limit the same recurrences degrade AUTOMATICALLY (``mode='auto'``)
  to the int-keyed groupby-sum path (``_pagerank_grouped`` /
  ``_hits_grouped``): per-host state in a hash-joined Dataset, scatter
  partials into groupby-sums — 2 shuffles/iteration, no driver vector,
  pytest-proven identical to the broadcast path.

Reference analogue: none (dupers has no link surface) — engine-new,
like the quality/dedup-cascade stack.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

PPM = 1_000_000
DAMPING_NUM = 85
DAMPING_DEN = 100


def links_batch(
    t: pa.Table,
    *,
    id_col: str = "doc_id",
    html_col: str = "html",
    host_col: str = "src_host",
    anchors: bool = False,
    drop_nofollow: bool = False,
) -> pa.Table:
    """The per-batch kernel of :func:`extract_links` (module-level so
    the fuzz tests can drive it without a Ray dataset). Total on ANY
    input bytes: non-UTF-8 html decodes lossily (U+FFFD), malformed
    hrefs drop to zero rows. With ``anchors=True`` an ``anchor`` column
    carries the link's inner text (empty when the tag never closes).
    With ``drop_nofollow=True``, links whose tag declares
    ``rel=nofollow`` are dropped — the PageRank-relevant crawler rule
    (rel attributes BEFORE the href fall outside the split piece and
    are not seen; same post-href scope as the anchor extraction)."""
    import pyarrow.compute as pc

    html = t.column(html_col)
    if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
        try:
            html = pc.cast(html, pa.string())
        except pa.ArrowInvalid:
            # rare path: garbage bytes in a crawl — decode lossily
            html = pa.array(
                [None if v is None else v.decode("utf-8", "replace")
                 for v in html.to_pylist()],
                pa.string(),
            )
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    # null pages contribute zero links, not a task crash: split_pattern
    # propagates nulls and list_value_length(null) poisons the offsets
    # arithmetic below with NaN
    html = pc.fill_null(html, "")
    pieces = pc.split_pattern(html, 'href="')
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    # piece 0 of each list is pre-href prose; mask it via offsets
    nlinks = pc.list_value_length(pieces).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(nlinks) - nlinks, nlinks)
    pos = np.arange(len(flat), dtype=np.int64) - starts
    keep = pos > 0
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    # close the quote, keep the https host
    url = pc.list_element(
        pc.split_pattern(flat, '"', max_splits=1), 0
    )
    host = pc.struct_field(
        pc.extract_regex(url, r'^https://(?P<host>[^/"]+)'), "host"
    )
    ok = pc.is_valid(host).to_numpy(zero_copy_only=False)
    if drop_nofollow:
        nf = pc.match_substring_regex(
            flat, r'(?i)^[^"]*"[^>]*\brel\s*=\s*["\x27]?[^"\x27>]*nofollow'
        ).to_numpy(zero_copy_only=False)
        ok &= ~nf
    idx = pa.array(parent[ok])
    cols = {
        id_col: t.column(id_col).take(idx),
        "src_host": t.column(host_col).take(idx),
        "dst_host": host.filter(pa.array(ok)),
    }
    if anchors:
        # anchor = inner text of the <a> tag: past the closing quote and
        # the rest of the attribute list, up to the next '<'
        a = pc.struct_field(
            pc.extract_regex(flat, r'^[^"]*"[^>]*>(?P<a>[^<]*)'), "a"
        )
        cols["anchor"] = pc.fill_null(a, "").filter(pa.array(ok))
    return pa.table(cols)


def extract_links(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    html_col: str = "html",
    host_col: str = "src_host",
    anchors: bool = False,
    drop_nofollow: bool = False,
) -> "ray.data.Dataset":
    """(id, src_host, dst_host[, anchor]) — one row per https link; the
    page's own host comes from its self-identifying ``host_col``. Pages
    with no links contribute no rows here (pagerank adds the base mass
    to every node, linked-to or not). ONE stateless vectorized pass
    (:func:`links_batch`)."""
    import functools

    return ds.map_batches(
        functools.partial(
            links_batch, id_col=id_col, html_col=html_col,
            host_col=host_col, anchors=anchors,
            drop_nofollow=drop_nofollow,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def alternate_links(
    t: pa.Table,
    *,
    id_col: str = "doc_id",
    html_col: str = "html",
) -> pa.Table:
    """``<link rel="alternate" hreflang=… href=…>`` triples — the signal
    parallel-corpus mining pipelines use to find translation clusters
    (a page lists its language variants; ParaCrawl-style pipelines mine
    exactly these). One vectorized pass: ``split_pattern`` on ``<link``
    fans each page to its link tags, one RE2 match per piece keeps
    rel=alternate tags and extracts (hreflang, href); offsets arithmetic
    maps matches back to their page — no per-row Python. Output: one
    row per declared alternate, ``(id, hreflang, href)``."""
    import pyarrow.compute as pc

    html = t.column(html_col)
    if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
        try:
            html = pc.cast(html, pa.string())
        except pa.ArrowInvalid:
            html = pa.array(
                [None if v is None else v.decode("utf-8", "replace")
                 for v in html.to_pylist()],
                pa.string(),
            )
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    html = pc.fill_null(html, "")
    # split_pattern is case-sensitive; fold the tag opener first so
    # <LINK ...> tags participate
    html = pc.replace_substring_regex(html, r"(?i)<link\b", "<link")
    pieces = pc.split_pattern(html, "<link")
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    nlinks = pc.list_value_length(pieces).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(nlinks) - nlinks, nlinks)
    pos = np.arange(len(flat), dtype=np.int64) - starts
    keep = pos > 0  # piece 0 is pre-tag prose
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    m = pc.extract_regex(
        flat,
        r'(?is)^\s+rel\s*=\s*["\x27]?alternate["\x27]?[^>]*'
        r'hreflang\s*=\s*["\x27]?(?P<l>[A-Za-z\-]+)["\x27]?[^>]*'
        r'href\s*=\s*["\x27](?P<h>[^"\x27]+)',
    )
    lang = pc.struct_field(m, "l")
    href = pc.struct_field(m, "h")
    ok = pc.is_valid(lang).to_numpy(zero_copy_only=False)
    idx = pa.array(parent[ok])
    return pa.table({
        id_col: t.column(id_col).take(idx),
        "hreflang": pc.utf8_lower(lang.filter(pa.array(ok))),
        "href": href.filter(pa.array(ok)),
    })


def og_extract(
    t: pa.Table,
    *,
    id_col: str = "doc_id",
    html_col: str = "html",
) -> pa.Table:
    """OpenGraph / Twitter-card metadata: one row per ``<meta>`` tag
    whose ``property=`` or ``name=`` is in the ``og:`` / ``twitter:``
    namespaces, ``(id, prop, content)``. These cards are the page's own
    machine-readable identity (title/image/url) — the social-preview
    analogue of rel=canonical, and the cheapest page-level title/image
    signal a curation pipeline gets without a DOM parse. Same vectorized
    idiom as :func:`alternate_links`: case-fold the ``<meta`` opener,
    one split_pattern fan-out, two RE2 extracts per piece (attribute
    order varies in the wild, so property and content are matched
    independently); quoted or unquoted values, double or single quotes
    (quoted values containing the OTHER quote char are out of contract).
    No per-row Python, no shuffle."""
    import pyarrow.compute as pc

    html = t.column(html_col)
    if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
        try:
            html = pc.cast(html, pa.string())
        except pa.ArrowInvalid:
            html = pa.array(
                [None if v is None else v.decode("utf-8", "replace")
                 for v in html.to_pylist()],
                pa.string(),
            )
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    html = pc.fill_null(html, "")
    html = pc.replace_substring_regex(html, r"(?i)<meta\b", "<meta")
    pieces = pc.split_pattern(html, "<meta")
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    nmeta = pc.list_value_length(pieces).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(nmeta) - nmeta, nmeta)
    pos = np.arange(len(flat), dtype=np.int64) - starts
    keep = pos > 0  # piece 0 is pre-tag prose
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    # stop each piece at its tag close so attributes of LATER tags in the
    # same piece can't bleed in
    flat = pc.replace_substring_regex(flat, r"(?s)>.*$", "")
    mprop = pc.extract_regex(
        flat,
        r'(?is)(?:property|name)\s*=\s*["\x27]?'
        r"(?P<p>(?:og|twitter):[a-z0-9_:]+)",
    )
    mcont = pc.extract_regex(
        flat,
        r'(?is)content\s*=\s*(?:"(?P<d>[^"]*)"|\x27(?P<s>[^\x27]*)\x27'
        r"|(?P<u>[^\s>\x27\"][^\s>]*))",
    )
    prop = pc.struct_field(mprop, "p")
    # alternation: non-participating groups extract as "" — pick the
    # branch whose text is non-empty, preferring quoted (which may be
    # legitimately empty only for the quoted branches)
    d = pc.struct_field(mcont, "d")
    s = pc.struct_field(mcont, "s")
    u = pc.struct_field(mcont, "u")
    content = pc.if_else(
        pc.not_equal(pc.fill_null(d, ""), ""), d,
        pc.if_else(pc.not_equal(pc.fill_null(s, ""), ""), s, u),
    )
    ok = pc.and_(pc.is_valid(prop), pc.is_valid(content))
    ok_np = ok.to_numpy(zero_copy_only=False)
    idx = pa.array(parent[ok_np])
    return pa.table({
        id_col: t.column(id_col).take(idx),
        "prop": pc.utf8_lower(prop.filter(ok)),
        "content": content.filter(ok).cast(pa.string()),
    })


def anchor_profiles(
    links: "ray.data.Dataset",
    *,
    anchor_col: str = "anchor",
) -> "ray.data.Dataset":
    """(dst_host, anchor, n) — how the web DESCRIBES each host: counts
    of inlink anchor texts per target host (the classic off-page label
    signal anchor-text ranking uses). Combiner shape: per-batch Arrow
    group-count pre-aggregates before ONE (dst_host, anchor) groupby —
    nav-bar boilerplate collapses inside the batch, and the shuffle
    carries at most distinct-(host, anchor) rows."""
    from dupers_ray.functions.grouping import keyed_partition_map_groups

    keys = ["dst_host", anchor_col]

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by(keys).aggregate([([], "count_all")])
        return out.select([*keys, "count_all"]).rename_columns([*keys, "n"])

    def merge(g: pa.Table) -> pa.Table:
        out = g.group_by(keys).aggregate([("n", "sum")])
        return out.select([*keys, "n_sum"]).rename_columns([*keys, "n"])

    parts = links.select_columns(keys).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    # bounded fan-out (hosts are unbounded); merge regroups internally
    return keyed_partition_map_groups(parts, "dst_host", merge)


def _host_index(
    edges: "ray.data.Dataset", broadcast_limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """(hosts, hashes): unique host strings aligned to their SORTED
    md5-u64 hashes. The uint64 hash array is what gets broadcast —
    a plain numeric ndarray rides the object store zero-copy and
    searchsorts in C, where broadcasting the strings themselves means
    pickling an object array (measured: the dominant cost at 4.5M
    hosts — every worker paid the unpickle and every probe a Python
    string compare). Hash collisions are checked on the driver (md5-u64
    over <=5e7 hosts: P(collision) < 1e-4) and raise rather than
    silently merging two hosts."""
    from dupers_ray.functions.hashing import hash_str_u64

    def uniq_hosts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        u = pc.unique(
            pa.chunked_array([
                t.column("src_host").combine_chunks(),
                t.column("dst_host").combine_chunks(),
            ])
        )
        return pa.table({"host": u})

    # stream Arrow batches to the driver with INCREMENTAL dedup + an
    # early abort: the old concatenate-then-check materialized EVERY host
    # string before testing broadcast_limit, so a far-over-limit corpus
    # (the regime 'auto' exists for) could OOM the driver before the
    # HostVectorTooLarge that routes to the grouped path ever fired.
    # Buffered rows stay bounded at ~1.5x broadcast_limit + one batch.
    hash_chunks: list[np.ndarray] = []
    host_chunks: list[np.ndarray] = []
    acc = 0

    def compress() -> tuple[np.ndarray, np.ndarray]:
        nonlocal hash_chunks, host_chunks, acc
        hs = np.concatenate(hash_chunks)
        ho = np.concatenate(host_chunks)
        order = np.argsort(hs, kind="stable")
        hs, ho = hs[order], ho[order]
        keep = np.ones(len(hs), bool)
        keep[1:] = hs[1:] != hs[:-1]
        dup = np.flatnonzero(~keep)
        if len(dup) and (ho[dup] != ho[dup - 1]).any():
            raise ValueError("host md5-u64 hash collision — two distinct "
                             "hosts share a 64-bit hash")
        hs, ho = hs[keep], ho[keep]
        if len(hs) > broadcast_limit:
            raise HostVectorTooLarge(
                f"rank vector ({len(hs)} hosts) exceeds broadcast_limit"
            )
        hash_chunks, host_chunks, acc = [hs], [ho], len(hs)
        return ho, hs

    slack = max(1_000_000, broadcast_limit // 2)
    for t in edges.map_batches(
        uniq_hosts, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if not t.num_rows:
            continue
        arr = np.asarray(t.column("host"))
        hash_chunks.append(hash_str_u64([str(h) for h in arr.tolist()]))
        host_chunks.append(arr)
        acc += len(arr)
        if acc > broadcast_limit + slack:
            compress()  # raises HostVectorTooLarge once distinct > limit
    if not acc:
        return np.array([], dtype=object), np.array([], np.uint64)
    return compress()


class HostVectorTooLarge(ValueError):
    """Host count exceeds the broadcast-vector regime; callers switch to
    the int-keyed groupby-sum path (``mode='grouped'``)."""


def _lookup(hsorted: np.ndarray, col) -> np.ndarray:
    """Host-string column → index into the hash-sorted host table."""
    from dupers_ray.functions.hashing import hash_str_u64

    hv = hash_str_u64([str(x) for x in col.to_pylist()])
    return np.searchsorted(hsorted, hv)


def _sum_by_host(
    edges: "ray.data.Dataset",
    hosts_ref,
    n_hosts: int,
    make_pairs,
) -> np.ndarray:
    """Driver-merged reduction: ``make_pairs(table, hash_table) ->
    (ids, values)`` runs per batch, a scatter-add pre-aggregates to
    sparse (id, sum) partial rows (<= distinct ids per batch), and the
    driver ``np.add.at``s the partials into one dense int64 vector."""

    def partial(t: pa.Table) -> pa.Table:
        h = ray.get(hosts_ref)
        ids, vals = make_pairs(t, h)
        if len(ids) == 0:
            return pa.table({
                "hid": pa.array([], pa.int64()),
                "val": pa.array([], pa.int64()),
            })
        # int64 scatter-add (np.add.at), NOT a float-weighted bincount:
        # per-host contribution sums can exceed 2^53 at the 10^8-host
        # regime, where float64 accumulation would silently round and
        # break the integer-exact oracle contract
        acc = np.zeros(int(ids.max()) + 1, np.int64)
        np.add.at(acc, ids, vals.astype(np.int64))
        nz = np.nonzero(acc)[0]
        return pa.table({
            "hid": pa.array(nz.astype(np.int64)),
            "val": pa.array(acc[nz]),
        })

    out = np.zeros(n_hosts, np.int64)
    for t in edges.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if t.num_rows:
            np.add.at(
                out,
                np.asarray(t.column("hid"), dtype=np.int64),
                np.asarray(t.column("val"), dtype=np.int64),
            )
    return out


def _scale_ppm(v: np.ndarray) -> np.ndarray:
    """Exact elementwise ``(v * PPM) // max(v)`` without int64 overflow:
    the fast vectorized product is used only when ``max(v) * PPM`` fits
    int64; beyond that (hosts with >9.2M in-links) the same floor
    division runs in exact Python ints."""
    mx = max(int(v.max()) if len(v) else 0, 1)
    if mx <= (2**63 - 1) // PPM:
        return (v * PPM) // mx
    return np.array([(int(x) * PPM) // mx for x in v.tolist()], np.int64)


def _edge_keys(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(skey, dkey) int64 hash keys per edge. uint64 md5 hashes are
    reinterpreted as int64 (``.view``) because uint64 Ray groupby/join
    keys above 2^63 fall out of Arrow blocks into pickled-object blocks;
    the keys are opaque identifiers so signedness is irrelevant."""
    from dupers_ray.functions.hashing import hash_str_u64

    def keys(t: pa.Table) -> pa.Table:
        s = hash_str_u64([str(x) for x in t.column("src_host").to_pylist()])
        d = hash_str_u64([str(x) for x in t.column("dst_host").to_pylist()])
        return pa.table({
            "skey": pa.array(s.view(np.int64)),
            "dkey": pa.array(d.view(np.int64)),
        })

    return edges.map_batches(keys, batch_format="pyarrow", zero_copy_batch=True)


def _host_table(
    edges: "ray.data.Dataset", num_partitions: int = 64
) -> "ray.data.Dataset":
    """Distributed (hkey:int64, host:string) unique-host table — the
    grouped-path replacement for the driver-side ``_host_index``. Hash
    collisions (two DISTINCT host strings sharing one md5-u64) raise
    inside the dedup group instead of silently merging ranks."""
    import pyarrow.compute as pc

    from dupers_ray.functions.grouping import keyed_partition_map_groups
    from dupers_ray.functions.hashing import hash_str_u64

    def uniq(t: pa.Table) -> pa.Table:
        u = pc.unique(
            pa.chunked_array([
                t.column("src_host").combine_chunks(),
                t.column("dst_host").combine_chunks(),
            ])
        )
        k = hash_str_u64([str(x) for x in u.to_pylist()])
        return pa.table({
            "hkey": pa.array(k.view(np.int64)),
            "host": u,
        })

    def dedup(g: pa.Table) -> pa.Table:
        out = g.group_by(["hkey", "host"]).aggregate([])
        per_key = out.group_by("hkey").aggregate([("host", "count")])
        if pc.max(per_key.column("host_count")).as_py() > 1:
            raise ValueError(
                "host md5-u64 hash collision — two distinct hosts share "
                "a 64-bit hash"
            )
        return out.select(["hkey", "host"])

    return keyed_partition_map_groups(
        edges.map_batches(uniq, batch_format="pyarrow", zero_copy_batch=True),
        key_col="hkey",
        fn=dedup,
        num_partitions=num_partitions,
    )


def _scatter_partial(key_col: str, val_expr) -> "callable":
    """Per-batch combiner: sparse scatter-add of ``val_expr(t)`` over the
    int64 ``key_col`` → (hkey, c) rows, at most distinct-keys-per-batch.
    The downstream ``groupby('hkey').sum('c')`` then shuffles combined
    partials, not per-edge rows — the spandedup combiner idiom applied
    to the link graph."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "hkey": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            })
        k = np.asarray(t.column(key_col), dtype=np.int64)
        v = val_expr(t)
        uk, inv = np.unique(k, return_inverse=True)
        acc = np.zeros(len(uk), np.int64)
        np.add.at(acc, inv, v)
        return pa.table({"hkey": pa.array(uk), "c": pa.array(acc)})

    return partial


def _grouped_sum(ds: "ray.data.Dataset", key_col: str, val_expr) -> "ray.data.Dataset":
    """(hkey, c) dataset = groupby-sum of per-batch scatter partials."""

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({
            "hkey": t.column("hkey"),
            "c": t.column("sum(c)").cast(pa.int64()),
        })

    return (
        ds.map_batches(
            _scatter_partial(key_col, val_expr),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("hkey")
        .sum("c")
        .map_batches(rename, batch_format="pyarrow")
    )


_HKC_SCHEMA = pa.schema([("hkey", pa.int64()), ("c", pa.int64())])


def _pagerank_grouped(
    edges: "ray.data.Dataset",
    *,
    iters: int = 2,
    base: int = PPM,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Int-keyed groupby-sum PageRank for host counts beyond the
    broadcast-vector regime: per-host state lives in a (hkey, host,
    outdeg, r) Dataset instead of a driver ndarray; each iteration is
    one cogroup join (edge src → current src value) feeding scatter-add
    partials into one int-keyed groupby-sum, joined back to state. Same
    integer recurrence as :func:`pagerank` — pytest forces a tiny
    broadcast_limit and asserts grouped ≡ broadcast. Costs 2 shuffles
    per iteration where the broadcast path costs zero; that is the
    price of not holding the rank vector anywhere."""
    from dupers_ray.pipelines.joins import cogroup_join

    ekeys = _edge_keys(edges).materialize()  # consumed iters+1 times
    hosts = _host_table(edges, num_partitions)

    deg = _grouped_sum(ekeys, "skey", lambda t: np.ones(t.num_rows, np.int64))
    host_schema = pa.schema([("hkey", pa.int64()), ("host", pa.large_string())])

    def init_state(t: pa.Table) -> pa.Table:
        d = np.asarray(t.column("c"), dtype=np.int64)  # null → 0 for sinks
        return pa.table({
            "hkey": t.column("hkey"),
            "host": t.column("host").cast(pa.large_string()),
            "outdeg": pa.array(np.maximum(d, 1)),
            "r": pa.array(np.full(t.num_rows, base, np.int64)),
        })

    def fill_c(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(
            t.column_names.index("c"),
            "c",
            pc.fill_null(t.column("c"), 0).cast(pa.int64()),
        )

    state = (
        cogroup_join(
            hosts, deg, on="hkey", how="left",
            num_partitions=num_partitions,
            left_schema=host_schema, right_schema=_HKC_SCHEMA,
        )
        .map_batches(fill_c, batch_format="pyarrow")
        .map_batches(init_state, batch_format="pyarrow")
        .materialize()
    )
    state_schema = pa.schema([
        ("hkey", pa.int64()), ("host", pa.large_string()),
        ("outdeg", pa.int64()), ("r", pa.int64()),
    ])
    shift = (DAMPING_DEN - DAMPING_NUM) * base // DAMPING_DEN

    for _ in range(iters):

        def src_val(t: pa.Table) -> pa.Table:
            r = np.asarray(t.column("r"), dtype=np.int64)
            d = np.asarray(t.column("outdeg"), dtype=np.int64)
            return pa.table({
                "hkey": t.column("hkey"),
                "val": pa.array((DAMPING_NUM * r) // (DAMPING_DEN * d)),
            })

        sval = state.map_batches(src_val, batch_format="pyarrow")
        edge_val = cogroup_join(
            ekeys, sval, on="skey", right_on="hkey",
            num_partitions=num_partitions,
            left_schema=pa.schema([("skey", pa.int64()), ("dkey", pa.int64())]),
            right_schema=pa.schema([("hkey", pa.int64()), ("val", pa.int64())]),
        )
        contrib = _grouped_sum(
            edge_val, "dkey",
            lambda t: np.asarray(t.column("val"), dtype=np.int64),
        )

        def next_state(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            c = pc.fill_null(t.column("c"), 0).cast(pa.int64())
            r_new = np.asarray(c, dtype=np.int64) + shift
            return pa.table({
                "hkey": t.column("hkey"),
                "host": t.column("host"),
                "outdeg": t.column("outdeg"),
                "r": pa.array(r_new),
            })

        # materialize per round — a lazy chain of joins would re-execute
        # the whole prefix each iteration (the chains.py pointer-doubling
        # lesson)
        state = (
            cogroup_join(
                state, contrib, on="hkey", how="left",
                num_partitions=num_partitions,
                left_schema=state_schema, right_schema=_HKC_SCHEMA,
            )
            .map_batches(next_state, batch_format="pyarrow")
            .materialize()
        )

    def out(t: pa.Table) -> pa.Table:
        return pa.table({"host": t.column("host"), "pr_ppm": t.column("r")})

    return state.map_batches(out, batch_format="pyarrow")


def _hits_grouped(
    edges: "ray.data.Dataset",
    *,
    base: int = PPM,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Int-keyed groupby-sum HITS (one max-normalized round) — same
    contract as :func:`hits`, state in Datasets instead of broadcast
    ndarrays. Global maxima come from Dataset.max (a tree aggregate,
    driver holds one scalar)."""
    from dupers_ray.pipelines.joins import cogroup_join

    ekeys = _edge_keys(edges).materialize()  # consumed twice
    hosts = _host_table(edges, num_partitions)
    host_schema = pa.schema([("hkey", pa.int64()), ("host", pa.large_string())])

    a1 = _grouped_sum(
        ekeys, "dkey", lambda t: np.full(t.num_rows, base, np.int64)
    ).materialize()
    mx_a = max(int(a1.max("c") or 0), 1)

    def scale(mx: int):
        def f(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column("c"), dtype=np.int64)
            return pa.table({
                "hkey": t.column("hkey"),
                "c": pa.array(_scale_vec_ppm(v, mx)),
            })

        return f

    auth = a1.map_batches(scale(mx_a), batch_format="pyarrow").materialize()

    edge_auth = cogroup_join(
        ekeys, auth, on="dkey", right_on="hkey",
        num_partitions=num_partitions,
        left_schema=pa.schema([("skey", pa.int64()), ("dkey", pa.int64())]),
        right_schema=_HKC_SCHEMA,
    )
    h1 = _grouped_sum(
        edge_auth, "skey", lambda t: np.asarray(t.column("c"), dtype=np.int64)
    ).materialize()
    mx_h = max(int(h1.max("c") or 0), 1)
    hub = h1.map_batches(scale(mx_h), batch_format="pyarrow")

    def rn(name: str):
        def f(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            cols = {n: t.column(n) for n in t.column_names if n != "c"}
            cols[name] = pc.fill_null(t.column("c"), 0).cast(pa.int64())
            return pa.table(cols)

        return f

    joined = cogroup_join(
        hosts, auth, on="hkey", how="left",
        num_partitions=num_partitions,
        left_schema=host_schema, right_schema=_HKC_SCHEMA,
    ).map_batches(rn("auth_ppm"), batch_format="pyarrow")
    joined = cogroup_join(
        joined, hub, on="hkey", how="left",
        num_partitions=num_partitions,
        left_schema=pa.schema([
            ("hkey", pa.int64()), ("host", pa.large_string()),
            ("auth_ppm", pa.int64()),
        ]),
        right_schema=_HKC_SCHEMA,
    ).map_batches(rn("hub_ppm"), batch_format="pyarrow")

    def out(t: pa.Table) -> pa.Table:
        return t.select(["host", "auth_ppm", "hub_ppm"])

    return joined.map_batches(out, batch_format="pyarrow")


def _scale_vec_ppm(v: np.ndarray, mx: int) -> np.ndarray:
    """Per-batch exact ``(v * PPM) // mx`` with the same int64-overflow
    guard as :func:`_scale_ppm`, but against a PRE-COMPUTED global max
    (the grouped path computes mx via Dataset.max)."""
    mx = max(int(mx), 1)
    if mx <= (2**63 - 1) // PPM and (len(v) == 0 or int(v.max()) <= (2**63 - 1) // PPM):
        return (v * PPM) // mx
    return np.array([(int(x) * PPM) // mx for x in v.tolist()], np.int64)


def pagerank(
    edges: "ray.data.Dataset",
    *,
    iters: int = 2,
    base: int = PPM,
    broadcast_limit: int = 50_000_000,
    mode: str = "auto",
    num_partitions: int = 64,
) -> "pa.Table | ray.data.Dataset":
    """(host, pr_ppm) after ``iters`` integer power iterations over the
    (src_host, dst_host) edge dataset. Fixed-point contract (the SQL
    oracle restates it verbatim):

        r0[v]   = 1_000_000
        r_k+1[v] = 150_000 + sum over edges (u, v) of
                   (85 * r_k[u]) // (100 * outdeg[u])

    Nodes = union of src and dst hosts; every node keeps the 150_000
    base even with no in-links. Rank vector + outdeg broadcast once per
    iteration; per-edge contributions pre-aggregate per batch and merge
    driver-side (see module docstring) — zero shuffles.

    ``mode``: 'broadcast' forces the zero-shuffle path (raises
    HostVectorTooLarge above broadcast_limit), 'grouped' forces the
    int-keyed groupby-sum path (returns a Dataset — the result itself
    is cluster-sized in that regime), 'auto' (default) tries broadcast
    and degrades to grouped automatically."""
    if mode not in ("auto", "broadcast", "grouped"):
        raise ValueError(f"mode must be auto|broadcast|grouped, got {mode!r}")
    edges = edges.materialize()  # consumed iters+2 times
    if mode == "grouped":
        return _pagerank_grouped(
            edges, iters=iters, base=base, num_partitions=num_partitions
        )
    try:
        hosts, hashes = _host_index(edges, broadcast_limit)
    except HostVectorTooLarge:
        if mode == "broadcast":
            raise
        return _pagerank_grouped(
            edges, iters=iters, base=base, num_partitions=num_partitions
        )
    n_hosts = len(hosts)
    hosts_ref = ray.put(hashes)

    outdeg = np.maximum(
        _sum_by_host(
            edges, hosts_ref, n_hosts,
            lambda t, h: (
                _lookup(h, t.column("src_host")),
                np.ones(len(t), np.int64),
            ),
        ),
        1,  # nodes w/o out-links never contribute; avoid div-by-zero
    )
    deg_ref = ray.put(outdeg)
    r = np.full(n_hosts, base, np.int64)

    for _ in range(iters):
        r_ref = ray.put(r)

        def pairs(t: pa.Table, h: np.ndarray):
            d = ray.get(deg_ref)
            rv = ray.get(r_ref)
            si = _lookup(h, t.column("src_host"))
            di = _lookup(h, t.column("dst_host"))
            return di, (DAMPING_NUM * rv[si]) // (DAMPING_DEN * d[si])

        contrib = _sum_by_host(edges, hosts_ref, n_hosts, pairs)
        r = contrib + (DAMPING_DEN - DAMPING_NUM) * base // DAMPING_DEN

    return pa.table({
        "host": pa.array(hosts),
        "pr_ppm": pa.array(r),
    })


def hits(
    edges: "ray.data.Dataset",
    *,
    base: int = PPM,
    broadcast_limit: int = 50_000_000,
    mode: str = "auto",
    num_partitions: int = 64,
) -> "pa.Table | ray.data.Dataset":
    """(host, auth_ppm, hub_ppm) — one integer HITS round (Kleinberg
    1999) with fixed-point max-normalization so values stay bounded at
    any corpus size. Contract (the SQL oracle restates it verbatim):

        h0[u]       = 1_000_000
        a1[v]       = sum over edges (u, v) of h0[u]
        auth_ppm[v] = (a1[v] * 1_000_000) // max(a1)
        h1[u]       = sum over edges (u, v) of auth_ppm[v]
        hub_ppm[u]  = (h1[u] * 1_000_000) // max(h1)

    Hosts receiving/sending no links score 0 on that side. Same
    distributed shape as :func:`pagerank`: per-batch pre-aggregated
    partials, driver merge, zero shuffles; ``mode`` degrades to the
    int-keyed groupby-sum path exactly as in :func:`pagerank`."""
    if mode not in ("auto", "broadcast", "grouped"):
        raise ValueError(f"mode must be auto|broadcast|grouped, got {mode!r}")
    edges = edges.materialize()  # consumed 3 times
    if mode == "grouped":
        return _hits_grouped(edges, base=base, num_partitions=num_partitions)
    try:
        hosts, hashes = _host_index(edges, broadcast_limit)
    except HostVectorTooLarge:
        if mode == "broadcast":
            raise
        return _hits_grouped(edges, base=base, num_partitions=num_partitions)
    n_hosts = len(hosts)
    hosts_ref = ray.put(hashes)

    # a1[v] = indeg(v) * base (h0 is uniform)
    a1 = _sum_by_host(
        edges, hosts_ref, n_hosts,
        lambda t, h: (
            _lookup(h, t.column("dst_host")),
            np.full(len(t), base, np.int64),
        ),
    )
    auth = _scale_ppm(a1)
    auth_ref = ray.put(auth)

    def hub_pairs(t: pa.Table, h: np.ndarray):
        a = ray.get(auth_ref)
        si = _lookup(h, t.column("src_host"))
        di = _lookup(h, t.column("dst_host"))
        return si, a[di]

    h1 = _sum_by_host(edges, hosts_ref, n_hosts, hub_pairs)
    hub = _scale_ppm(h1)

    return pa.table({
        "host": pa.array(hosts),
        "auth_ppm": pa.array(auth),
        "hub_ppm": pa.array(hub),
    })


def feed_links(
    t: pa.Table,
    *,
    id_col: str = "doc_id",
    html_col: str = "html",
) -> pa.Table:
    """``<link rel="alternate" type="application/rss+xml|atom+xml"
    href=…>`` — feed autodiscovery (the public RSS/Atom autodiscovery
    convention): the per-page pointer to its syndication feed, which a
    crawl pipeline follows for fresh-content discovery.  Same
    split-on-``<link`` / one-RE2-per-piece shape as
    :func:`alternate_links`; hreflang alternates (no feed type) must
    NOT match.  Attribute order is free — type may precede rel.
    Output: (id, feed_type in {'rss','atom'}, href)."""
    import pyarrow.compute as pc

    html = t.column(html_col)
    if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
        try:
            html = pc.cast(html, pa.string())
        except pa.ArrowInvalid:
            html = pa.array(
                [None if v is None else v.decode("utf-8", "replace")
                 for v in html.to_pylist()],
                pa.string(),
            )
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    html = pc.fill_null(html, "")
    html = pc.replace_substring_regex(html, r"(?i)<link\b", "<link")
    pieces = pc.split_pattern(html, "<link")
    flat = pc.list_flatten(pieces)
    parent = pc.list_parent_indices(pieces).to_numpy(zero_copy_only=False)
    nlinks = pc.list_value_length(pieces).to_numpy(zero_copy_only=False)
    starts = np.repeat(np.cumsum(nlinks) - nlinks, nlinks)
    pos = np.arange(len(flat), dtype=np.int64) - starts
    keep = pos > 0
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    # one guard match (must be a rel=alternate piece with a feed type),
    # then independent captures for type and href so attr order is free
    is_alt = pc.match_substring_regex(
        flat, r'(?is)^\s+[^>]*rel\s*=\s*["\x27]?alternate\b')
    ftype = pc.struct_field(pc.extract_regex(
        flat,
        r'(?is)type\s*=\s*["\x27]?application/(?P<t>rss|atom)\+xml',
    ), "t")
    href = pc.struct_field(pc.extract_regex(
        flat, r'(?is)href\s*=\s*["\x27](?P<h>[^"\x27]+)'), "h")
    ok_arr = pc.and_(pc.and_(
        pc.fill_null(is_alt, False), pc.is_valid(ftype)), pc.is_valid(href))
    ok = ok_arr.to_numpy(zero_copy_only=False)
    mask = pa.array(ok)
    return pa.table({
        id_col: t.column(id_col).take(pa.array(parent[ok])),
        "feed_type": pc.utf8_lower(ftype.filter(mask)),
        "href": href.filter(mask),
    })
