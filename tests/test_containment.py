"""Cross-doc exact substring containment (stages/containment.py):
brute-force equality on the synth corpus (which plants containment
pairs), recall of planted prefix/suffix/mid slices, broadcast ≡ join
verify paths, and the >= k+2 token contract boundary."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from dupers_ray.stages.containment import containment_pairs


def _brute(tbl: pa.Table, k: int = 5) -> set[tuple[int, int]]:
    import re

    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    tok = re.compile(r"\w+")
    out = set()
    for i, (ai, at) in enumerate(zip(ids, texts)):
        if at is None or len(tok.findall(at.lower())) < k + 2:
            continue
        for j, (bi, bt) in enumerate(zip(ids, texts)):
            if i == j or bt is None:
                continue
            if at in bt:
                out.add((ai, bi))
    return out


def _pairs_set(ds) -> set[tuple[int, int]]:
    df = ds.to_pandas()
    return set(zip(df.inner_id.astype(int), df.outer_id.astype(int)))


def _doc_table(texts: list[str]) -> pa.Table:
    return pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })


def test_containment_matches_bruteforce_on_synth(pages_small):
    # synth pages use url ids; remap to int ids for the operator
    t = pages_small.pages
    tbl = pa.table({
        "doc_id": pa.array(np.arange(t.num_rows, dtype=np.int64)),
        "text": t.column("text"),
    })
    want = _brute(tbl)
    got = _pairs_set(containment_pairs(rd.from_arrow(tbl)))
    assert got == want


def test_planted_slices_are_found():
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    texts = [
        base,                                   # 0: outer
        "alpha beta gamma delta epsilon zeta eta theta",   # 1: prefix
        "pi rho sigma tau upsilon phi chi",     # 2: suffix
        "zeta eta theta iota kappa lambda mu",  # 3: middle
        "completely different words here one two three four five",  # 4
    ]
    got = _pairs_set(containment_pairs(rd.from_arrow(_doc_table(texts))))
    assert {(1, 0), (2, 0), (3, 0)} <= got
    assert not any(a == 4 or b == 4 for a, b in got)
    assert got == _brute(_doc_table(texts))


def test_token_contract_boundary():
    # inner with exactly k+2 = 7 tokens is detected; k+1 = 6 is NOT
    outer = "one two three four five six seven eight nine ten"
    seven = "two three four five six seven eight"
    six = "two three four five six seven"
    got = _pairs_set(containment_pairs(rd.from_arrow(_doc_table([outer, seven, six]))))
    assert (1, 0) in got
    assert (2, 0) not in got  # excluded by the documented contract


def test_verify_join_equals_broadcast(pages_small, force_cogroup):
    t = pages_small.pages
    tbl = pa.table({
        "doc_id": pa.array(np.arange(t.num_rows, dtype=np.int64)),
        "text": t.column("text"),
    })
    bc = _pairs_set(containment_pairs(rd.from_arrow(tbl)))
    calls = force_cogroup()
    jn = _pairs_set(containment_pairs(rd.from_arrow(tbl)))
    assert calls["pair"] == 2
    assert bc == jn and bc
