"""Tiered dedup attribution — WHICH tier removes each document.

Production web-text curation runs dedup as a cascade of increasingly
fuzzy tiers (the reference's `dupe` verb is the exact tier; CCNet / Dolma
/ FineWeb add normalized and near tiers). This operator labels every
corpus document with the FIRST tier that removes it:

    exact       byte-identical text (sha-256 group, min-id keeps;
                reference keep-first semantics, pkg/dupe/dupe.go:919-931)
    normalized  C4-style canonicalized text identical (stages/normalize)
                among exact survivors
    near        MinHash/LSH cluster (the flagship machinery) among
                exact+normalized survivors; min doc id per cluster keeps
    kept        survived all tiers (incl. empty/token-less docs, which no
                tier can claim)

Scale shape — ONE text scan, then id-width group maps:

- a fused batch kernel computes the raw digest, the normalized digest and
  the MinHash signature in a single pass over the text (the signature
  table is the same store the incremental flagship persists); the fused
  table is materialized once and reused by every tier.
- tiers 1+2 are ONE group map over 40-byte projections keyed by the
  norm hash: raw-digest groups nest inside norm groups, so both min-id
  resolutions happen per partition and no intermediate anti-join exists.
  Like every group map (functions/grouping.py) it runs as one Ray task
  while its input is at most ``grouping.LOCAL_GROUP_BYTES`` (some 800 k
  40-byte rows), and as a task exchange above that.
- the survivor filter before the near tier is ``maintenance.anti_join_auto``
  on the removed-id set (duplicates only): broadcast while it is small,
  the hash-partitioned anti-join for massively duplicated corpora — the
  one switch of pipelines/joins.py.
- the near tier reuses ``dupe_clusters_from_sigs`` on the already-built
  signature table (no second text scan), then one cluster-id groupby of
  16-byte rows picks the min-id keeper per cluster.

Deterministic and SQL-restatable end to end: the driver's
``dedup_tiers`` query value-checks every tier label against a DuckDB
oracle built on the flagship's shared signature-pipeline SQL.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dupers_ray.config import DedupConfig
from dupers_ray.functions.grouping import keyed_partition_map_groups
from dupers_ray.functions.pairs import min_per_key

TIER_KEPT, TIER_EXACT, TIER_NORM, TIER_NEAR = 0, 1, 2, 3
TIER_NAMES = {TIER_KEPT: "kept", TIER_EXACT: "exact",
              TIER_NORM: "normalized", TIER_NEAR: "near"}

_N_PARTS = 64  # hash partitions for the tier-resolution groupbys


def _fused_scan(batch: pa.Table, *, id_col: str, text_col: str,
                shingle, minhash, with_simhash: bool = False) -> pa.Table:
    """One pass over the text: raw sha-256 words, normalized sha-256
    words, MinHash signature (null for token-less docs), node id.
    Empty/null raw text ⇒ txt_empty (excluded from the exact tier);
    empty normalized text ⇒ norm_empty (excluded from the normalized
    tier) — both match the SQL oracle's ``length(..) > 0`` guards.

    ``with_simhash`` adds (simhash: uint64, sim_tokens: int64) columns —
    the Charikar signature from the SAME text pass, so the dedup-method
    Venn shares this scan instead of re-reading the corpus (round-3
    verdict #5). Off by default: tiers-incremental persists this schema
    as its signature store."""
    from dupers_ray.functions.hashing import (
        digest_words,
        node_ids,
        sha256_digests,
    )
    from dupers_ray.pipelines.near_dedup import _MINHASHER_CACHE
    from dupers_ray.stages.minhash import MinHasher, sig_column
    from dupers_ray.stages.normalize import normalize_text

    key = ("tiers", shingle, minhash, id_col, text_col)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = MinHasher(shingle=shingle, minhash=minhash,
                       id_col=id_col, text_col=text_col)
        _MINHASHER_CACHE[key] = mh

    ids = batch.column(id_col)
    texts = batch.column(text_col)
    norm = normalize_text(batch.select([text_col]), text_col=text_col)

    dg_a, dg_b = digest_words(sha256_digests(texts))
    nm_a, nm_b = digest_words(sha256_digests(norm.column("text_norm")))
    sig, n_sh = mh.signatures(texts)
    extra: dict = {}
    if with_simhash:
        from dupers_ray.stages.simhash import simhash_values

        sim_sig, sim_n = simhash_values(texts)
        extra = {
            "simhash": pa.array(sim_sig),
            "sim_tokens": pa.array(sim_n),
        }
    return pa.table({
        id_col: ids,
        **extra,
        "node": pa.array(node_ids([str(v) for v in ids.to_pylist()])),
        # honor MinHashConfig.sig_store here too — otherwise the u2
        # bandwidth knob would silently no-op on the cascade/Venn paths
        # (and a u2 delta against a u4 store trips sig_matrix's loud
        # mixed-width error)
        "sig": sig_column(sig, n_sh > 0,
                          minhash.sig_store if minhash else "u4"),
        "n_shingles": pa.array(n_sh.astype(np.int64)),
        "digest_u64": pa.array(dg_a), "digest_u64b": pa.array(dg_b),
        "norm_u64": pa.array(nm_a), "norm_u64b": pa.array(nm_b),
        "txt_empty": pc.fill_null(pc.or_(
            pc.is_null(batch.column(text_col)),
            pc.equal(pc.binary_length(batch.column(text_col)
                                      .cast(pa.binary())), 0),
        ), True),
        "norm_empty": pc.fill_null(pc.or_(
            pc.is_null(norm.column("text_norm")),
            pc.equal(pc.utf8_length(norm.column("text_norm")), 0),
        ), True),
    })


def _not_min(g: pa.Table, id_col: str, live: np.ndarray,
             keys: "list[str]") -> np.ndarray:
    """Row mask: ``live`` rows whose id is not the min id of their
    ``keys`` group among the live rows."""
    idx = np.flatnonzero(live)
    ids = g.column(id_col).to_numpy()[idx]
    m = min_per_key([g.column(k).to_numpy()[idx] for k in keys], ids)
    out = np.zeros(g.num_rows, bool)
    out[idx] = ids != ids[m]
    return out


def _resolve_exact_norm(g: pa.Table, *, id_col: str) -> pa.Table:
    """Resolve tiers 1 AND 2 inside one norm-key partition. Equal raw
    digests imply equal normalized digests, so every raw-digest group
    arrives complete in its norm group's partition — one shuffle settles
    both tiers:

    - exact: non-empty raw text, id != min(id) of the raw-digest group;
    - normalized: survived exact, non-empty normalized text,
      id != min(id) of the norm-digest group among such survivors.
    """
    live = ~g.column("txt_empty").to_numpy()
    r_exact = _not_min(g, id_col, live, ["digest_u64", "digest_u64b"])
    nl = live & ~r_exact & ~g.column("norm_empty").to_numpy()
    r_norm = _not_min(g, id_col, nl, ["norm_u64", "norm_u64b"])
    return pa.table({id_col: g.column(id_col), "r_exact": r_exact,
                     "r_norm": r_norm})


def _non_min_members(g: pa.Table, *, id_col: str, out_col: str,
                     label: str) -> pa.Table:
    """(out_col, tier=label) for every cluster member that is not its
    cluster's min id — the rows a keep-min tier removes."""
    rm = _not_min(g, id_col, np.ones(g.num_rows, bool), ["cluster_id"])
    return pa.table({out_col: g.column(id_col).filter(rm),
                     "tier": pa.array([label] * int(rm.sum()), pa.string())})


def fused_tier_scan(
    docs: "ray.data.Dataset", cfg: DedupConfig, *, with_simhash: bool = False
) -> "ray.data.Dataset":
    """The tier cascade's one text scan, materialized — also the table
    ``dedup_tiers_incremental`` persists/reuses as its store (without
    the optional simhash columns; see ``_fused_scan``)."""
    return docs.select_columns([cfg.id_col, cfg.text_col]).map_batches(
        _fused_scan,
        fn_kwargs={"id_col": cfg.id_col, "text_col": cfg.text_col,
                   "shingle": cfg.shingle, "minhash": cfg.minhash,
                   "with_simhash": with_simhash},
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()


def dedup_tiers(
    docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
) -> "ray.data.Dataset":
    """Label every document with the first dedup tier that removes it.
    Returns ``(id_col, tier)`` rows, tier ∈ {exact, normalized, near,
    kept}."""
    cfg = cfg or DedupConfig()
    # reused by the tier chain, the near tier and assignment
    fused = fused_tier_scan(docs, cfg)
    return _tiers_from_fused(fused, cfg)


def dedup_tiers_incremental(
    docs: "ray.data.Dataset",
    stored_fused: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
):
    """Incremental tier cascade — the `up`-style daily-update flow at tier
    level (same shape as ``dupe_clusters_incremental``): docs whose id is
    already in the stored fused table are NOT re-scanned; only fresh docs
    pay the text pass (digests + normalization + signatures). The tier
    resolution then runs over stored ∪ fresh fused rows, so labels are
    IDENTICAL to a full recompute (every fused column is a pure per-doc
    function of the text).

    Returns ``(tiers, fused)`` — the label table AND the updated fused
    store (callers persist it for the next delta)."""
    from dupers_ray.pipelines.maintenance import anti_join_auto

    cfg = cfg or DedupConfig()
    stored = stored_fused.materialize()
    fresh = anti_join_auto(docs, stored, key_col=cfg.id_col)
    # both sides materialized ⇒ the union is a lazy zero-copy concat the
    # tier tail can consume repeatedly
    fused = stored.union(fused_tier_scan(fresh, cfg))
    return _tiers_from_fused(fused, cfg), fused


def _tiers_from_fused(
    fused: "ray.data.Dataset",
    cfg: DedupConfig,
) -> "ray.data.Dataset":
    """Tier resolution over a (materialized or concat-of-materialized)
    fused table — see :func:`dedup_tiers` for the stage shapes."""
    from dupers_ray.pipelines.dupe import dupe_clusters_from_sigs
    from dupers_ray.pipelines.maintenance import anti_join_auto

    id_col = cfg.id_col
    proj = fused.select_columns(
        [id_col, "digest_u64", "digest_u64b", "norm_u64", "norm_u64b",
         "txt_empty", "norm_empty"]
    )
    # tiers 1+2 in ONE norm-key shuffle: raw-digest groups nest inside
    # norm groups (equal bytes ⇒ equal normalization), so both min-id
    # resolutions happen in the same partition. Skew note: every
    # punctuation-only doc shares sha256('') as its norm key and lands in
    # one partition — bounded by such docs' count, and their rows are
    # 40 B projections, not text.
    t12 = keyed_partition_map_groups(
        proj, "norm_u64", partial(_resolve_exact_norm, id_col=id_col),
        num_partitions=_N_PARTS,
    ).materialize()  # small: id + two bools per doc

    removed12 = t12.map_batches(
        lambda t: t.filter(
            pc.or_(t.column("r_exact"), t.column("r_norm"))
        ).select([id_col]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    survivors = anti_join_auto(fused, removed12, key_col=id_col)

    # empty-text docs never dedup (they share sha256('') — the flagship's
    # drop_empty parity): exclude them from the near tier's index AND its
    # cluster mapping; base labeling already marks them kept
    # materialize once: the near machinery consumes this THREE times
    # (index ingest, verify, cluster mapping) — lazy, each pass would
    # re-run the survivor anti-join. These are the same bytes the
    # incremental flagship persists as its signature store.
    content = survivors.map_batches(
        lambda t: t.filter(pc.invert(t.column("txt_empty"))),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    clusters = dupe_clusters_from_sigs(content, cfg, mapping_ds=content)

    r3 = keyed_partition_map_groups(
        clusters, "cluster_id",
        partial(_non_min_members, id_col=id_col, out_col=id_col, label="near"),
        num_partitions=_N_PARTS,
    )

    def label12(t: pa.Table) -> pa.Table:
        tier = np.where(
            t.column("r_exact").to_numpy(zero_copy_only=False), "exact",
            np.where(t.column("r_norm").to_numpy(zero_copy_only=False),
                     "normalized", "kept"),
        )
        return pa.table({
            id_col: t.column(id_col),
            "tier": pa.array(tier.astype(object), pa.string()),
        })

    base = t12.map_batches(label12, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _overlay_tier(base, r3, "near", id_col=id_col)


def _overlay_tier(base, removed, label, *, id_col):
    """Relabel ``base`` rows (id, tier) whose id appears in ``removed`` to
    tier ``label``: ``maintenance.membership_flags`` (the one
    broadcast-or-cogroup switch), then one vectorized ``if_else``. Every
    removed row carries the same label, so a flag is all the overlay
    needs — no anti-join + union of the removed rows."""
    from dupers_ray.pipelines.maintenance import membership_flags

    def relabel(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t.column(id_col), "tier": pc.if_else(
            t.column("__hit"), pa.scalar(label), t.column("tier"))})

    return membership_flags(base, removed, key_col=id_col,
                            flag_col="__hit").map_batches(
        relabel, batch_format="pyarrow", zero_copy_batch=True)

def dedup_tiers_semantic(
    docs: "ray.data.Dataset",
    embeddings: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    cosine_threshold: float = 0.95,
    emb_id_col: str = "vec_id",
    emb_col: str = "embedding",
    method: str = "lsh",
    **lsh_kwargs,
) -> "ray.data.Dataset":
    """FOUR-tier cascade: exact → normalized → near → SEMANTIC. The
    semantic tier runs embedding-cosine clusters (``embed_dup_clusters``
    — SemDeDup-class) over the TEXT-tier survivors' embeddings and
    removes every non-min-id member, catching rewrites that share no
    5-gram shingles at all.

    ``embeddings`` carries (emb_id_col, emb_col) with ids matching
    ``docs``' id column (rows without an embedding just keep their text
    tier; embedding ids are assumed ⊆ doc ids). The text-tier removed
    set — duplicates only — filters the embedding table through
    ``maintenance.anti_join_auto``, the switch the cascade uses
    internally."""
    from dupers_ray.pipelines.maintenance import anti_join_auto
    from dupers_ray.stages.embed import embed_dup_clusters

    cfg = cfg or DedupConfig()
    id_col = cfg.id_col
    base = dedup_tiers(docs, cfg)
    base = base.materialize()  # consumed: removed set + final overlay

    removed123 = base.map_batches(
        lambda t: t.filter(
            pc.not_equal(t.column("tier"), "kept")
        ).select([id_col]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    live = anti_join_auto(embeddings, removed123, key_col=emb_id_col,
                          right_key_col=id_col)

    clusters = embed_dup_clusters(
        live, threshold=cosine_threshold, id_col=emb_id_col,
        emb_col=emb_col, method=method, **lsh_kwargs,
    )

    r4 = keyed_partition_map_groups(
        clusters, "cluster_id",
        partial(_non_min_members, id_col=emb_id_col, out_col=id_col,
                label="semantic"),
        num_partitions=_N_PARTS,
    )
    return _overlay_tier(base, r4, "semantic", id_col=id_col)


def tier_summary(tiers: "ray.data.Dataset") -> "ray.data.Dataset":
    """(tier, n_docs) rollup of a dedup_tiers result."""
    agg = tiers.groupby("tier").count()
    return agg.map_batches(
        lambda t: t.rename_columns(["tier", "n_docs"]),
        batch_format="pyarrow",
    )


def tier_source_summary(
    tiers: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    group_col: str = "source",
) -> "ray.data.Dataset":
    """(tier, source, n_docs): WHICH sources contribute each dedup tier —
    the provenance cut of :func:`tier_summary` that drives source pruning
    ('feed X is 40% exact dups of feed Y'). ONE id-hash cogroup attaches
    the source label; a per-batch (tier, source) count combiner feeds a
    tiny final groupby."""
    import pandas as pd

    from dupers_ray.pipelines.joins import cogroup_join

    labeled = cogroup_join(
        tiers, docs.select_columns([id_col, group_col]), on=id_col,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("tier", pa.string())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                (group_col, pa.string())]),
    )

    def combine(t: pa.Table) -> pa.Table:
        g = (
            t.select(["tier", group_col])
            .group_by(["tier", group_col])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["tier", group_col, "n"])

    parts = labeled.map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    )
    agg = parts.groupby(["tier", group_col]).sum("n")
    return agg.map_batches(
        lambda t: t.rename_columns(["tier", group_col, "n_docs"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Budgeted tier planning (round 4)
# ---------------------------------------------------------------------------

_TIER_ORDER = ("exact", "normalized", "near")


def tier_budget_plan(
    docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    *,
    weight_col: str = "n_chars",
    budget_ppm: int = 600_000,
) -> pa.Table:
    """Which prefix of the tier cascade meets a token budget? For each
    cascade prefix (none → +exact → +normalized → +near) report the
    surviving doc count and surviving ``weight_col`` mass, plus whether
    that prefix already fits ``budget = total * budget_ppm / 10^6``
    (integer arithmetic, so the oracle restates it exactly). The answer
    a pipeline owner reads off: the FIRST row with meets_budget true is
    the cheapest cascade that fits the budget; all-false means even the
    full cascade overshoots and a quality/sampling stage must follow.

    Scale shape: the tier assignment's REMOVED set (duplicates only —
    the small side by mass) joins (id, weight) as a left-outer
    :func:`~dupers_ray.pipelines.joins.lookup_join` — broadcast while it
    is small, the cogroup join above pipelines/joins.BROADCAST_ROWS — and
    one streaming pass bins every doc into its removing tier (0 = kept):
    two corpus passes total, 4-row partials, driver-side prefix
    arithmetic."""
    from dupers_ray.pipelines.joins import lookup_join

    cfg = cfg or DedupConfig()
    id_col = cfg.id_col
    assign = dedup_tiers(docs.select_columns([id_col, cfg.text_col]), cfg)
    removed = assign.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("tier"), "kept")),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    tier_codes = pa.array(_TIER_ORDER)

    def partial(t: pa.Table) -> pa.Table:
        # tier index in the cascade + 1; kept (no removed row) bins as 0
        code = pc.fill_null(pc.add(pc.index_in(
            t.column("tier").cast(pa.string()), value_set=tier_codes), 1), 0
        ).to_numpy(zero_copy_only=False)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "code": pa.array(np.arange(4, dtype=np.int64)),
            "nd": pa.array(np.bincount(code, minlength=4)[:4].astype(np.int64)),
            "wc": pa.array(
                np.bincount(code, weights=w, minlength=4)[:4].astype(np.int64)
            ),
        })

    parts = lookup_join(
        docs.select_columns([id_col, weight_col]), removed, on=id_col,
        how="left",
    ).map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("code")[["nd", "wc"]].sum().reindex(range(4), fill_value=0)
    nd = agg["nd"].to_numpy(np.int64)
    wc = agg["wc"].to_numpy(np.int64)
    total_d, total_w = int(nd.sum()), int(wc.sum())
    budget = total_w * int(budget_ppm) // 1_000_000
    cum_d = np.cumsum(np.r_[0, nd[1:]])   # removed docs after k tiers
    cum_w = np.cumsum(np.r_[0, wc[1:]])
    surv_d = total_d - cum_d
    surv_w = total_w - cum_w
    return pa.table({
        "tiers_applied": pa.array(np.arange(4, dtype=np.int64)),
        "tier": pa.array(["none", *_TIER_ORDER], pa.string()),
        "n_docs_surviving": pa.array(surv_d.astype(np.int64)),
        # named after the weight column so --weight-col n_tokens doesn't
        # report its mass under a 'chars' label (default stays
        # n_chars_surviving — the oracle's name)
        f"{weight_col}_surviving": pa.array(surv_w.astype(np.int64)),
        "budget": pa.array(np.full(4, budget, np.int64)),
        "meets_budget": pa.array(surv_w <= budget),
    })
