"""Windowed aggregates over the events stream table.

Ray Data has no event-time windowing primitive (SURVEY.md §2.10 — neither
does the reference); tumbling windows are expressed as floor(ts/width) keys
+ a grouped aggregate, with per-batch PARTIAL aggregation first so the
shuffle moves one row per (key, window) per batch instead of every event.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from dupers_ray.functions.grouping import key_codes, keyed_partition_map_groups
from dupers_ray.functions.pairs import min_per_key, run_starts


def tumbling_window_agg(
    ds: "ray.data.Dataset",
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    window: str = "1h",
) -> "ray.data.Dataset":
    """Per (key, window): count, sum/min/max of value. ``window`` is e.g.
    '15m', '1h', '1d'. Window start is emitted as a timestamp column
    ``win_start``."""
    unit = window[-1]
    mult = {"s": 1, "m": 60, "h": 3600, "d": 86400}[unit]
    width_us = int(window[:-1]) * mult * 1_000_000

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // width_us) * width_us
        df = pd.DataFrame(
            {
                key_col: t.column(key_col).to_numpy(zero_copy_only=False),
                "win_us": win,
                value_col: t.column(value_col).to_numpy(zero_copy_only=False),
            }
        )
        gb = df.groupby([key_col, "win_us"], sort=False)[value_col]
        out = gb.agg(["count", "sum", "min", "max"]).reset_index()
        out.columns = [key_col, "win_us", "n", "sum_value", "min_value", "max_value"]
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.select_columns([ts_col, key_col, value_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    final = partials.groupby([key_col, "win_us"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_value", alias_name="sum_value"),
        Min("min_value", alias_name="min_value"),
        Max("max_value", alias_name="max_value"),
    )

    def finish(t: pa.Table) -> pa.Table:
        win = t.column("win_us").cast(pa.int64())
        t = t.append_column("win_start", win.cast(pa.timestamp("us")))
        return t.drop_columns(["win_us"])

    return final.map_batches(finish, batch_format="pyarrow")


def _width_us(spec: str) -> int:
    mult = {"s": 1, "m": 60, "h": 3600, "d": 86400}[spec[-1]]
    return int(spec[:-1]) * mult * 1_000_000


def hopping_window_agg(
    ds: "ray.data.Dataset",
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    window: str = "1h",
    hop: str = "15m",
) -> "ray.data.Dataset":
    """Sliding/hopping windows: per (key, window-start every ``hop``):
    count/sum/min/max of value over [start, start+window). ``window`` must
    be a multiple of ``hop``.

    Each event is replicated to its window/hop containing windows INSIDE
    the partial-aggregation batch fn, so the shuffle still moves one row
    per (key, window) per batch — replication happens before the combiner,
    never through the exchange. Replication factor = window/hop (keep it
    small at scale; a 24h window sliding by 1m wants a two-level
    tumbling-then-merge plan instead)."""
    width_us = _width_us(window)
    hop_us = _width_us(hop)
    if width_us % hop_us:
        raise ValueError("window must be a multiple of hop")
    k = width_us // hop_us

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(ts)
        last = (ts // hop_us) * hop_us  # latest window start containing ts
        win = np.repeat(last, k) - np.tile(np.arange(k, dtype=np.int64) * hop_us, n)
        df = pd.DataFrame(
            {
                key_col: np.repeat(
                    t.column(key_col).to_numpy(zero_copy_only=False), k
                ),
                "win_us": win,
                value_col: np.repeat(
                    t.column(value_col).to_numpy(zero_copy_only=False), k
                ),
            }
        )
        gb = df.groupby([key_col, "win_us"], sort=False)[value_col]
        out = gb.agg(["count", "sum", "min", "max"]).reset_index()
        out.columns = [key_col, "win_us", "n", "sum_value", "min_value", "max_value"]
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.select_columns([ts_col, key_col, value_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    final = partials.groupby([key_col, "win_us"]).aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_value", alias_name="sum_value"),
        Min("min_value", alias_name="min_value"),
        Max("max_value", alias_name="max_value"),
    )

    def finish(t: pa.Table) -> pa.Table:
        win = t.column("win_us").cast(pa.int64())
        t = t.append_column("win_start", win.cast(pa.timestamp("us")))
        return t.drop_columns(["win_us"])

    return final.map_batches(finish, batch_format="pyarrow")


def sessionize(
    ds: "ray.data.Dataset",
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap: str = "30m",
) -> "ray.data.Dataset":
    """Session windows: events of one key sorted by ts; a gap > ``gap``
    starts a new session. Emits (key, session_id, session_start,
    session_end, n_events). groupby(key).map_groups with in-group sort —
    the ordering assumption is per-key arrival completeness (batch table)."""
    unit = gap[-1]
    mult = {"s": 1, "m": 60, "h": 3600, "d": 86400}[unit]
    gap_us = int(gap[:-1]) * mult * 1_000_000

    def per_key(g: pa.Table) -> pa.Table:
        """One vectorized pass per partition: sort by (key, ts); a session
        starts at a key's first event or after a gap; sessions are then
        contiguous runs, so starts, ends and sizes are run boundaries —
        no per-key or per-session Python loop (round-1 VERDICT 'What's
        wrong #3')."""
        g = g.sort_by([(key_col, "ascending"), (ts_col, "ascending")])
        ts = g.column(ts_col).cast(pa.int64()).to_numpy()
        new_key = run_starts(key_codes(g.column(key_col)))
        new_sess = new_key.copy()
        new_sess[1:] |= np.diff(ts) > gap_us
        sc = np.cumsum(new_sess) - 1  # global session ordinal per row
        key_first = sc[np.flatnonzero(new_key)][np.cumsum(new_key) - 1]
        starts = np.flatnonzero(new_sess)
        ends = starts + np.diff(np.r_[starts, len(ts)]) - 1

        def stamp(v: np.ndarray) -> pa.Array:
            return pa.array(v, pa.timestamp("us")).cast(pa.timestamp("ns"))

        return pa.table({
            key_col: g.column(key_col).take(starts),
            "session_id": pa.array((sc - key_first)[starts]),
            "session_start": stamp(ts[starts]),
            "session_end": stamp(ts[ends]),
            "n_events": pa.array(ends - starts + 1),
        })

    # string user ids (the common web case) route through the string
    # hash, int ids through the int mix — round-2 VERDICT 'wrong' #3
    return keyed_partition_map_groups(
        ds.select_columns([ts_col, key_col]), key_col, per_key,
        num_partitions=64,
    )


def window_distinct(
    ds: "ray.data.Dataset",
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    window: str = "1d",
) -> "ray.data.Dataset":
    """Per tumbling window: EXACT ``count(DISTINCT key)`` — the windowed
    unique-actors metric (daily active users). Per-batch distinct
    (window, key) combiner → ONE window-hash shuffle of the deduped
    pairs (bounded by per-window distinct count × blocks, not event
    count) → per partition a global dedup + value_counts; every pair of
    a window co-locates, so the partition's counts are FINAL — no second
    aggregation. Output: (win_start timestamp, n_distinct)."""
    width_us = _width_us(window)

    def prep(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = t.column(key_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // width_us) * width_us
        uniq = np.unique(np.stack([win, keys]), axis=1)
        return pa.table({
            "win_us": pa.array(uniq[0]),
            key_col: pa.array(uniq[1]),
        })

    def per_part(g: pa.Table) -> pa.Table:
        c = (g.group_by(["win_us", key_col]).aggregate([])
             .group_by("win_us").aggregate([([], "count_all")]))
        return pa.table({"win_us": c.column("win_us"),
                         "n_distinct": c.column("count_all")})

    out = keyed_partition_map_groups(
        ds.select_columns([ts_col, key_col])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "win_us", per_part, num_partitions=64,
    )

    def finish(t: pa.Table) -> pa.Table:
        win = t.column("win_us").cast(pa.int64())
        return pa.table({
            "win_start": win.cast(pa.timestamp("us")),
            "n_distinct": t.column("n_distinct").cast(pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def cohort_retention(
    ds: "ray.data.Dataset",
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    period: str = "7d",
) -> "ray.data.Dataset":
    """Cohort retention matrix: cohort = the period of a user's FIRST
    event; one row per (cohort_period, offset_periods) counting the
    users from that cohort active ``offset`` periods later. Classic
    retention triangle, all-integer.

    Shape: per-batch distinct (user, period) combiner → ONE
    groupby(user-hash) partition shuffle of those deduped pairs → per
    partition a vectorized cohort=min + offset expansion (all of one
    user's rows co-locate) → tiny (cohort, offset) count groupby."""
    width_us = _width_us(period)

    def prep(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        users = t.column(key_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        per = ts // width_us
        uniq = np.unique(np.stack([users, per]), axis=1)
        users_, per_ = uniq[0], uniq[1]
        return pa.table({
            key_col: pa.array(users_),
            "per": pa.array(per_),
        })

    def per_part(g: pa.Table) -> pa.Table:
        d = g.group_by([key_col, "per"]).aggregate([])
        per = d.column("per").to_numpy()
        cohort = per[min_per_key([d.column(key_col).to_numpy()], per)]
        c = pa.table({"cohort_period": cohort, "offset_periods": per - cohort})
        c = c.group_by(["cohort_period", "offset_periods"]).aggregate(
            [([], "count_all")])
        return pa.table({"cohort_period": c.column("cohort_period"),
                         "offset_periods": c.column("offset_periods"),
                         "n": c.column("count_all")})

    partials = keyed_partition_map_groups(
        ds.select_columns([ts_col, key_col])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        key_col, per_part, num_partitions=64,
    )
    final = partials.repartition(2).groupby(
        ["cohort_period", "offset_periods"]
    ).sum("n")
    return final.map_batches(
        lambda t: t.rename_columns(
            ["cohort_period", "offset_periods", "n_users"]
        ),
        batch_format="pyarrow",
    )


def funnel_counts(
    ds: "ray.data.Dataset",
    *,
    steps: tuple[str, ...] = ("signup", "view", "click", "purchase"),
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
    within: str | None = None,
) -> "ray.data.Dataset":
    """Sequential funnel: per user, t_0 = earliest ``steps[0]`` event and
    t_i = earliest ``steps[i]`` event STRICTLY after t_{i-1}; a user
    converts through step i iff the whole chain exists. ``within`` (e.g.
    '7d') additionally requires every later step to land within that
    horizon of the user's t_0 (conversion-window semantics). Output: one
    row per step, (step_idx, step, n_users) with n_users = users reaching
    that depth.

    Scale shape: the corpus is FILTERED to funnel-relevant event types
    before the single groupby(user-hash) shuffle (funnel events are
    typically a small fraction of the stream), then each partition runs
    k vectorized min/merge passes (k = len(steps), no per-user Python
    loop) and emits k count rows — the final groupby moves k rows per
    partition."""
    k = len(steps)
    horizon_us = _width_us(within) if within is not None else None

    def prep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t.column(type_col), value_set=pa.array(list(steps)))
        t = t.filter(mask)
        # index_in == position in steps == step index (vectorized step_of)
        idx = pc.index_in(
            t.column(type_col), value_set=pa.array(list(steps))
        ).cast(pa.int64()).to_numpy(zero_copy_only=False)
        users = t.column(key_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: pa.array(users),
            "step_idx": pa.array(idx),
            "ts_us": pa.array(ts),
        })

    def _group_min(keys: np.ndarray, vals: np.ndarray):
        """(sorted unique keys, per-key min val) via argsort + reduceat."""
        if not len(keys):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        order = np.argsort(keys, kind="stable")
        ks, vs = keys[order], vals[order]
        idx = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        return ks[idx], np.minimum.reduceat(vs, idx)

    def _lookup(ks: np.ndarray, vs: np.ndarray, q: np.ndarray):
        """(value, found) per query key against a sorted key table."""
        if not len(ks):
            return np.zeros(len(q), np.int64), np.zeros(len(q), bool)
        pos = np.searchsorted(ks, q).clip(0, len(ks) - 1)
        found = ks[pos] == q
        return vs[pos], found

    def per_part(g: pa.Table) -> pa.Table:
        counts = np.zeros(k, np.int64)
        if g.num_rows:
            users = g.column(key_col).to_numpy()
            sidx = g.column("step_idx").to_numpy()
            ts = g.column("ts_us").to_numpy()
            m0 = sidx == 0
            t0_k, t0_v = _group_min(users[m0], ts[m0])
            prev_k, prev_v = t0_k, t0_v
            counts[0] = len(prev_k)
            for i in range(1, k):
                if not len(prev_k):
                    break
                mi = sidx == i
                ui, ti = users[mi], ts[mi]
                pv, found = _lookup(prev_k, prev_v, ui)
                ok = found & (ti > pv)  # missing prior step -> False
                if horizon_us is not None:
                    t0pv, t0found = _lookup(t0_k, t0_v, ui)
                    ok &= t0found & (ti <= t0pv + horizon_us)
                prev_k, prev_v = _group_min(ui[ok], ti[ok])
                counts[i] = len(prev_k)
        return pa.table({"step_idx": np.arange(k, dtype=np.int64),
                         "n_users": counts})

    partials = keyed_partition_map_groups(
        ds.select_columns([ts_col, key_col, type_col])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        key_col, per_part, num_partitions=64,
    )
    # k-row partials; 2 blocks keep the k-key sum's sort ranges non-empty
    final = partials.repartition(2).groupby("step_idx").sum("n_users")

    names = pa.array(list(steps), pa.string())

    def finish(t: pa.Table) -> pa.Table:
        idx = t.column("step_idx").cast(pa.int64())
        return pa.table({
            "step_idx": idx,
            "step": names.take(idx),
            "n_users": t.column("sum(n_users)").cast(pa.int64()),
        })

    return final.map_batches(finish, batch_format="pyarrow")
