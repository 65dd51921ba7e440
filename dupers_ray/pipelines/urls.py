"""URL-level dedup and per-domain rollups.

The reference's path normalization + case-folded path compare
(``pkg/dupe/dupe.go:519-530``, ``dupe.go:1001-1013``) lifted to the web
corpus: canonicalize URLs (stages/urlnorm), then group — same canonical
URL ⇒ same page identity, analogous to the reference's same-absolute-path
dedup. Combiner discipline matches counts_by_bucket: per-batch partial
groupby so the shuffle moves one row per distinct canonical URL per
batch, never the corpus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

from dupers_ray.stages.urlnorm import canonical_url, registrable_domain

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def url_dup_groups(
    ds: "ray.data.Dataset", *, url_col: str = "url", id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (url_canon, n_dups, keep_doc): per canonical URL, the row count
    and the deterministic survivor (min id — the reference's first-match
    rule, dupe.go:919-931, restated at URL level)."""
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = canonical_url(batch, url_col=url_col)
        df = t.select(["url_canon", id_col]).to_pandas()
        gb = df.groupby("url_canon", sort=False)[id_col]
        out = gb.size().rename("n_dups").to_frame()
        out["keep_doc"] = gb.min()
        return pa.Table.from_pandas(out.reset_index(), preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("url_canon").aggregate(
        Sum("n_dups", alias_name="n_dups"), Min("keep_doc", alias_name="keep_doc")
    )


def surt_dup_groups(
    ds: "ray.data.Dataset", *, url_col: str = "url", id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (surt, n_dups, keep_doc): URL-level dedup keyed on the SURT
    (stages/urlnorm.surt_key) instead of the canonical url — the
    www./port variants canonical_url keeps distinct collapse here (the
    key web archives dedup captures by). Same combiner→groupby shape and
    min-id survivor rule as :func:`url_dup_groups`."""
    from ray.data.aggregate import Min, Sum

    from dupers_ray.stages.urlnorm import surt_key

    def partial(batch: pa.Table) -> pa.Table:
        t = surt_key(canonical_url(batch, url_col=url_col))
        df = t.select(["surt", id_col]).to_pandas()
        gb = df.groupby("surt", sort=False)[id_col]
        out = gb.size().rename("n_dups").to_frame()
        out["keep_doc"] = gb.min()
        return pa.Table.from_pandas(out.reset_index(), preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("surt").aggregate(
        Sum("n_dups", alias_name="n_dups"), Min("keep_doc", alias_name="keep_doc")
    )


def domain_top_terms(
    ds: "ray.data.Dataset",
    *,
    url_col: str = "url",
    text_col: str = "text",
    n: int = 3,
) -> "ray.data.Dataset":
    """→ (domain, token, n): the top-``n`` most frequent tokens per
    registrable domain (count desc, token asc — deterministic cutoff).
    Per-domain vocabulary profiling, e.g. for domain-level quality
    triage. Combiner shape: per-batch (domain, token) counts (bounded by
    batch vocabulary) → ONE groupby of count rows → `top_per_group`
    (itself a combiner + capped groupby). Tokens are the engine-wide
    lowercased ``[a-z0-9_]+`` class (SQL-restatable)."""
    from ray.data.aggregate import Sum

    from dupers_ray.stages.filters import top_per_group
    from dupers_ray.stages.textstats import _TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        t = canonical_url(batch, url_col=url_col)
        t = registrable_domain(t, url_col="url_canon")
        doms = t.column("domain").to_pylist()
        texts = t.column(text_col).to_pylist()
        c: "Counter[tuple[str, str]]" = Counter()
        for dom, txt in zip(doms, texts):
            if dom is not None and txt:
                for tok in _TOKEN_RE.findall(txt.lower()):
                    c[(dom, tok)] += 1
        return pa.table({
            "domain": pa.array([k[0] for k in c], pa.string()),
            "token": pa.array([k[1] for k in c], pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    counts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby(["domain", "token"]).aggregate(Sum("n", alias_name="n"))
    return top_per_group(
        counts, group_col="domain", by=[("n", False), ("token", True)], n=n
    )


def domain_rollup(
    ds: "ray.data.Dataset", *, url_col: str = "url", size_col: str | None = None,
) -> "ray.data.Dataset":
    """→ (domain, n, [total_bytes]): registrable-domain rollup over
    canonical URLs — the per-bucket Info/counts verb (database.go:463-512)
    keyed by web domain instead of bucket path."""
    from dupers_ray.pipelines.maintenance import counts_by_bucket

    def add_domain(batch: pa.Table) -> pa.Table:
        t = canonical_url(batch, url_col=url_col)
        return registrable_domain(t, url_col="url_canon")

    with_dom = ds.map_batches(add_domain, batch_format="pyarrow", zero_copy_batch=True)
    return counts_by_bucket(with_dom, bucket_col="domain", size_col=size_col)


def template_rollup(
    ds: "ray.data.Dataset", *, url_col: str = "url",
) -> "ray.data.Dataset":
    """→ (url_template, n): URL-pattern counts over canonical URLs
    (stages/urlnorm.url_template). Per-batch partial counts shuffle, not
    rows — template cardinality is bounded by site structure, so the
    groupby side stays small at any corpus scale."""
    from dupers_ray.pipelines.maintenance import counts_by_bucket
    from dupers_ray.stages.urlnorm import url_template

    def add_template(batch: pa.Table) -> pa.Table:
        t = canonical_url(batch, url_col=url_col)
        return url_template(t, url_col="url_canon")

    with_t = ds.map_batches(
        add_template, batch_format="pyarrow", zero_copy_batch=True
    )
    return counts_by_bucket(with_t, bucket_col="url_template")


def revisit_collapse(
    ds: "ray.data.Dataset",
    *,
    url_col: str = "url",
    ts_col: str = "ts",
    digest_col: str = "digest",
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Common-Crawl revisit detection (the CDX ``digest-unchanged``
    dedup): a capture whose payload digest already appeared at an
    earlier ``ts`` of the SAME url is a *revisit* — web archives store a
    WARC ``revisit`` record pointing at the original capture instead of
    re-storing the payload (ISO 28500 revisit semantics; the reference's
    bucket-overwrite on re-walk, ``pkg/dupe/dupe.go:955-963``, is the
    filesystem analogue). Output per capture:

    (url, ts, digest, is_revisit, ref_ts)

    where ``ref_ts`` is the url's FIRST capture of that digest (the
    payload holder) and ``is_revisit = ts > ref_ts``.

    Scale shape: digests are computed upstream, so ONE url-hash shuffle
    of (url, ts, digest) rows — never payload bytes — co-locates each
    url's captures; per partition one vectorized min-ts segment reduce
    over (url, digest). No per-url Python
    loop; a hot url costs only its own capture rows. SQL oracle:
    ``min(ts) OVER (PARTITION BY url, digest)``.
    """
    from dupers_ray.functions.grouping import keyed_partition_map_groups
    from dupers_ray.functions.pairs import min_per_key

    cols = [url_col, ts_col, digest_col]

    def per_part(g: pa.Table) -> pa.Table:
        ts = g.column(ts_col).cast(pa.int64())
        tv = ts.to_numpy()
        ref = tv[min_per_key([g.column(url_col).to_numpy(),
                              g.column(digest_col).to_numpy()], tv)]
        return pa.table({
            url_col: g.column(url_col), ts_col: g.column(ts_col),
            digest_col: g.column(digest_col),
            "is_revisit": pa.array((tv > ref).astype(np.int64)),
            "ref_ts": pa.array(ref),
        })

    return keyed_partition_map_groups(
        ds.select_columns(cols), url_col, per_part, num_partitions=n_parts
    )


def page_identity(
    pages: "ray.data.Dataset",
    redirects: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    url_col: str = "url",
    html_col: str = "html",
    rounds: int = 8,
) -> "ray.data.Dataset":
    """Unified page-identity resolution — the full crawl-dedup identity
    chain in one operator: follow HTTP redirect chains to the landing
    page (stages/chains.resolve_pointers, pointer doubling), honor the
    LANDING page's rel=canonical declaration (not the redirecting
    page's — its declaration is void once it redirects), canonicalize +
    SURT the resulting URL, and group docs by the identity key
    (min-doc cluster via the exact-assign partition machinery).
    Output: (doc_id, cluster) — every capture of the same logical page
    maps to one cluster regardless of redirect hops, canonical
    declarations, www/port decoration or query-param order.
    Scale shape: log-rounds 24-byte pointer self-joins, one int-keyed
    cogroup join to fetch landing declarations, one digest-partition
    shuffle for the grouping; no driver materialization."""
    import pyarrow.compute as pc

    from dupers_ray.pipelines.diff import exact_assign
    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.chains import resolve_pointers
    from dupers_ray.stages.urlnorm import (
        canonical_url, extract_canonical_href, surt_key,
    )

    landing = resolve_pointers(redirects, rounds=rounds)

    def decl(t: pa.Table) -> pa.Table:
        out = extract_canonical_href(
            t, html_col=html_col, url_col=url_col, out_col="canonical")
        return pa.table({
            "land_id": t.column(id_col).cast(pa.int64()),
            "canonical": out.column("canonical"),
        })

    decls = pages.map_batches(
        decl, batch_format="pyarrow", zero_copy_batch=True)

    def root_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t.column("id").cast(pa.int64()),
            "root": t.column("root").cast(pa.int64()),
        })

    joined = cogroup_join(
        landing.map_batches(
            root_rows, batch_format="pyarrow", zero_copy_batch=True),
        decls, on="root", right_on="land_id",
    )

    def to_key(t: pa.Table) -> pa.Table:
        c = canonical_url(
            pa.table({"url": t.column("canonical")}), url_col="url")
        s = surt_key(c, url_col="url_canon")
        return pa.table({
            id_col: t.column(id_col),
            "identity": pc.fill_null(s.column("surt"), ""),
        })

    keyed = joined.map_batches(
        to_key, batch_format="pyarrow", zero_copy_batch=True)
    return exact_assign(keyed, id_col=id_col, content_col="identity")


def amp_unify(
    pages: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    url_col: str = "url",
    html_col: str = "html",
) -> "ray.data.Dataset":
    """AMP-variant identity unification: collapse ``/amp`` mirror URLs
    onto their canonical page using BOTH declared directions —

    - an AMP page's own ``rel=canonical`` (handled like any canonical
      declaration), and
    - the canonical page's ``rel=amphtml`` forward pointer, which
      rescues the common misconfiguration where the AMP page declares
      nothing: any page whose URL is some page's declared AMP target
      inherits the DECLARER's identity.

    Output: (id_col, cluster:int64) — min-doc identity clusters over
    canonical+SURT keys. Scale shape: one text scan for declarations,
    one string-hash cogroup join of (url × amp-target) projections
    (never html), one digest-partition shuffle for grouping. The decls
    projection (4 narrow string columns) is materialized because two
    branches consume it. Contract: at most one page declares a given
    AMP target (true of real sites; extra declarers would fan out the
    left join)."""
    import pyarrow.compute as pc

    from dupers_ray.pipelines.diff import exact_assign
    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.urlnorm import (
        extract_amphtml_href, extract_canonical_href, surt_key,
    )

    def decls(t: pa.Table) -> pa.Table:
        a = extract_canonical_href(
            t, html_col=html_col, url_col=url_col, out_col="canonical")
        b = extract_amphtml_href(a, html_col=html_col, out_col="amp_href")
        return pa.table({
            id_col: t.column(id_col).cast(pa.int64()),
            "url": t.column(url_col).cast(pa.string()),
            "canonical": b.column("canonical").cast(pa.string()),
            "amp_href": b.column("amp_href").cast(pa.string()),
        })

    d = pages.map_batches(
        decls, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def mapping(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_valid(t.column("amp_href")))
        return pa.table({
            "amp_url": f.column("amp_href"),
            "amp_identity": f.column("canonical"),
        })

    m = d.map_batches(mapping, batch_format="pyarrow", zero_copy_batch=True)
    joined = cogroup_join(
        d.select_columns([id_col, "url", "canonical"]), m,
        on="url", right_on="amp_url", how="left",
    )

    def to_key(t: pa.Table) -> pa.Table:
        ident = pc.if_else(
            pc.is_valid(t.column("amp_identity")),
            t.column("amp_identity"), t.column("canonical"),
        )
        c = canonical_url(pa.table({"url": ident}), url_col="url")
        s = surt_key(c, url_col="url_canon")
        return pa.table({
            id_col: t.column(id_col),
            "identity": pc.fill_null(s.column("surt"), ""),
        })

    keyed = joined.map_batches(
        to_key, batch_format="pyarrow", zero_copy_batch=True)
    return exact_assign(keyed, id_col=id_col, content_col="identity")


def meta_refresh_chains(
    pages: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    url_col: str = "url",
    html_col: str = "html",
    rounds: int = 8,
) -> "ray.data.Dataset":
    """Redirect-chain resolution when the redirect lives in the HTML —
    ``<meta http-equiv=refresh>`` doorway/moved pages with no HTTP
    Location header.  Extract the refresh target per page (one RE2
    pass, stages/urlnorm.extract_meta_refresh), resolve target url →
    target doc id with ONE cogroup join on the url string against the
    corpus' own (url, id) table (pages without a refresh, or pointing outside
    the corpus, become self-pointing roots), then pointer-double
    (stages/chains.resolve_pointers).  Output: (id, root, hops)."""
    import pyarrow.compute as pc

    from dupers_ray.pipelines.joins import cogroup_join
    from dupers_ray.stages.chains import resolve_pointers
    from dupers_ray.stages.urlnorm import extract_meta_refresh

    def left_rows(t: pa.Table) -> pa.Table:
        ext = extract_meta_refresh(t, html_col=html_col, url_col=url_col)
        return pa.table({
            id_col: t.column(id_col).cast(pa.int64()),
            "key": pc.fill_null(ext.column("refresh_url"), "").cast(pa.string()),
        })

    def idmap_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t.column(url_col).cast(pa.string()),
            "tgt": t.column(id_col).cast(pa.int64()),
        })

    left = pages.map_batches(
        left_rows, batch_format="pyarrow", zero_copy_batch=True)
    idmap = pages.map_batches(
        idmap_rows, batch_format="pyarrow", zero_copy_batch=True)
    joined = cogroup_join(
        left, idmap, on="key", how="left",
        left_schema=pa.schema([(id_col, pa.int64()), ("key", pa.string())]),
        right_schema=pa.schema([("key", pa.string()), ("tgt", pa.int64())]),
    )

    def edges(t: pa.Table) -> pa.Table:
        ids = t.column(id_col)
        tgt = pc.fill_null(t.column("tgt"), pa.scalar(-1, pa.int64()))
        ptr = pc.if_else(pc.equal(tgt, -1), ids, tgt)
        return pa.table({"id": ids, "ptr": ptr})

    return resolve_pointers(
        joined.map_batches(edges, batch_format="pyarrow",
                           zero_copy_batch=True),
        rounds=rounds,
    )
