"""membership_flags (dupers -fast lookupOne analogue, dupe.go:919-931):
broadcast path == shuffle path == brute force; empty index; no row is
ever filtered (every left row comes back exactly once, flagged)."""
from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from dupers_ray.pipelines.maintenance import anti_join_shuffle, membership_flags


def _left() -> pa.Table:
    return pa.table(
        {
            "doc_id": list(range(8)),
            "digest": [f"d{i % 5}" for i in range(8)],  # d0..d4, repeats
        }
    )


def _index(keys: list[str]) -> "rd.Dataset":
    return rd.from_arrow(pa.table({"digest": keys})).repartition(2)


def _flags(ds) -> dict[int, bool]:
    return {r["doc_id"]: r["in_index"] for r in ds.take_all()}


def test_membership_broadcast_matches_brute():
    left = rd.from_arrow(_left()).repartition(3)
    got = _flags(membership_flags(left, _index(["d1", "d3", "zz"]),
                                  key_col="digest"))
    exp = {i: (f"d{i % 5}" in {"d1", "d3"}) for i in range(8)}
    assert got == exp  # 8 rows in, 8 rows out, flagged


def test_membership_shuffle_path_equals_broadcast(force_cogroup):
    left = rd.from_arrow(_left()).repartition(3)
    idx = _index(["d0", "d4"])
    bc = _flags(membership_flags(left, idx, key_col="digest"))
    calls = force_cogroup()
    sh = _flags(membership_flags(left, idx, key_col="digest"))
    assert calls["membership"] == 1
    assert bc == sh
    assert sum(bc.values()) == 3  # d0 x2 (i=0,5), d4 x1 (i=4)


def test_membership_empty_index_all_false():
    left = rd.from_arrow(_left()).repartition(2)
    got = _flags(membership_flags(left, _index([]), key_col="digest"))
    assert got == {i: False for i in range(8)}


def test_anti_join_shuffle_flag_mode_preserves_columns():
    left = rd.from_arrow(_left()).repartition(2)
    out = anti_join_shuffle(
        left, _index(["d2"]), key_col="digest", flag_col="seen"
    )
    rows = sorted(out.take_all(), key=lambda r: r["doc_id"])
    assert [sorted(rows[0].keys())] == [["digest", "doc_id", "seen"]]
    assert [r["seen"] for r in rows] == [
        (f"d{i % 5}" == "d2") for i in range(8)
    ]
