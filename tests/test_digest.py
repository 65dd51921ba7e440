"""Digest + extraction unit tests (golden digests, determinism properties).

Mirrors the reference's test strategy: pinned golden SHA-256 values
(/root/reference/internal/mock/mock.go:53-59 style) and FuzzChecksum
properties (parse_fuzz.go:38-92 — non-zero digest for non-empty input,
determinism).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from dupers_ray.functions.hashing import (
    digest_hex,
    hash_str_u64,
    hex_prefix_u64,
    mix_rows_u64,
    node_ids,
    sha256_digests,
    splitmix64,
)
from dupers_ray.stages.digest import add_digests, drop_empty
from dupers_ray.stages.extract import extract_text_one

# Golden digest: content used by the reference e2e dupe test
# (/root/reference/pkg/database/database_dupe_test.go:40-44).
GOLDEN_TEXT = b"test content for duplicate detection"
GOLDEN_SHA = hashlib.sha256(GOLDEN_TEXT).hexdigest()


def _hex(items: list[bytes]) -> list[str]:
    return digest_hex(sha256_digests(pa.array(items, pa.binary()))).to_pylist()


def test_golden_digest():
    # pinned literal so a hashing regression can't self-confirm
    assert GOLDEN_SHA == (
        "0256115809fe11d8c545579e9831754230d6558613f9f9e31d610098ff25b71e"
    )
    assert _hex([GOLDEN_TEXT]) == [GOLDEN_SHA]


def test_add_digests_batch():
    t = pa.table({"url": ["a", "b", "c"], "text": ["x", "x", "y"]})
    out = add_digests(t, content_col="text")
    d = out.column("digest").to_pylist()
    assert d[0] == d[1] != d[2]
    assert d[0] == hashlib.sha256(b"x").hexdigest()
    u = out.column("digest_u64").to_pylist()
    assert u[0] == int(d[0][:16], 16)


def test_add_digests_binary_col():
    t = pa.table({"html": pa.array([b"abc", None], pa.binary())})
    out = add_digests(t, content_col="html")
    assert out.column("digest").to_pylist()[0] == hashlib.sha256(b"abc").hexdigest()


def test_drop_empty():
    t = pa.table({"text": ["", None, "x", "  "]})
    out = drop_empty(t, content_col="text")
    assert out.column("text").to_pylist() == ["x", "  "]


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=200))
def test_digest_properties(data):
    h1 = _hex([data])[0]
    h2 = _hex([data])[0]
    assert h1 == h2 and len(h1) == 64 and int(h1, 16) != 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=40), min_size=1, max_size=20))
def test_hash_str_u64_deterministic(strs):
    a = hash_str_u64(strs)
    b = hash_str_u64(strs)
    assert (a == b).all()
    assert a.dtype.name == "uint64"


def test_node_ids_stable_and_distinct():
    ids = node_ids(["u1", "u2", "u1"])
    assert ids[0] == ids[2] != ids[1]


def test_mix_rows_order_sensitive():
    import numpy as np

    m1 = np.array([[1, 2, 3]], dtype=np.uint64)
    m2 = np.array([[3, 2, 1]], dtype=np.uint64)
    assert mix_rows_u64(m1)[0] != mix_rows_u64(m2)[0]


def test_splitmix_uniformish():
    import numpy as np

    x = splitmix64(np.arange(1000, dtype=np.uint64))
    assert len(np.unique(x)) == 1000
    # high bit set roughly half the time
    frac = (x >> np.uint64(63)).mean()
    assert 0.4 < frac < 0.6


def test_extract_text_deterministic_and_clean():
    html = (
        b"<html><head><title>T</title><script>bad()</script>"
        b"<style>p{}</style></head><body><!-- c --><p>Hello &amp; "
        b"<b>world</b></p></body></html>"
    )
    t1 = extract_text_one(html)
    assert t1 == extract_text_one(html)
    assert "bad()" not in t1 and "<" not in t1.replace("&lt;", "")
    assert "Hello & world" in t1


def test_extract_empty():
    assert extract_text_one(b"") == ""
    assert extract_text_one(None) == ""
    assert extract_text_one(b"<body>  \n </body>") == ""


def test_key_i64_rejects_null_ids():
    """Null ids are join keys gone wrong: ints round-trip through float
    NaN (garbage keys) and string nulls collide with literal 'None' —
    both must raise loudly instead of silently mis-joining."""
    import pyarrow as pa
    import pytest

    from dupers_ray.functions.hashing import key_i64

    with pytest.raises(ValueError, match="null"):
        key_i64(pa.array([1, None, 3], pa.int64()))
    with pytest.raises(ValueError, match="null"):
        key_i64(pa.array(["a", None], pa.string()))
    # non-null columns still pass through / hash
    assert key_i64(pa.array([1, 2], pa.int64())).tolist() == [1, 2]
