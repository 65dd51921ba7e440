"""The signature scan's tokenizer (``minhash.token_hashes``): the numpy
byte kernel for ASCII documents must give exactly the token hashes of the
``re`` reference, whatever the Arrow layout of the text column, and the
MinHash / SimHash outputs are pinned per ``KERNEL_VERSION``."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from dupers_ray.config import MinHashConfig, ShingleConfig
from dupers_ray.functions.hashing import KERNEL_VERSION, hash_str_u64
from dupers_ray.stages.minhash import MinHasher, token_hashes
from dupers_ray.stages.simhash import simhash_values

# Unicode whose lowercasing or word class is not bytewise: Kelvin sign
# (lowers to ASCII k), dotted capital I (lowers to two code points), final
# sigma, sharp s, a titlecase digraph, a ligature, CJK, combining accent
MIXED = ["\u212a", "\u0130", "\u03a3", "\u03c2", "\u00df", "\u01c5",
         "\ufb01", "\u65e5\u672c", "e\u0301", "\u00e9", "\u00a0", "\u2009"]

GOLDEN_TEXTS = [
    "The quick brown fox jumps over the lazy dog, again and AGAIN.",
    "",
    None,
    "   \t\n",
    "one two",
    "\u212aK kelvin \u0130stanbul \u03a3\u038a\u03a3\u03a5\u03a6\u039f\u03a3 "
    "\u03cc\u03c3\u03bf\u03c2 Stra\u00dfe",
    "\u65e5\u672c\u8a9e\u306e\u30c6\u30ad\u30b9\u30c8 abc DEF ghi JKL mno",
    "snake_case_token x9 UPPER lower MiXeD 0123 __ a-b-c d.e.f",
    "\ufb01ne caf\u00e9 cafe\u0301 \u01c5ungla na\u00efve r\u00e9sum\u00e9 "
    "co\u00f6perate",
    "".join(chr(c) for c in range(128)),
]

# sha256 of the output bytes for GOLDEN_TEXTS, per kernel version: a
# change of these bytes without a KERNEL_VERSION bump fails here
GOLDEN = {
    "md5-v2": {
        "minhash": "8ea3053cb72bacec6d7bd7a140ff1fd655eac3d45cc8d1532687742b04582951",
        "simhash": "3aadb74cce1fb4ff12925c148b4b87a92350f850689ad372b59944a188d4f655",
    },
}


def _reference(docs, pattern: str, lowercase: bool):
    """Per-document ``re.findall``, each token hashed on its own."""
    tok = re.compile(pattern, re.UNICODE)
    counts, hashes = [], []
    for t in docs:
        s = t or ""
        toks = tok.findall(s.lower() if lowercase else s)
        counts.append(len(toks))
        hashes.extend(hash_str_u64(toks))
    return np.array(hashes, np.uint64), np.array(counts, np.int64)


def _assert_same(texts, docs, pattern=r"\w+", lowercase=True):
    h, c = token_hashes(texts, pattern, lowercase=lowercase)
    rh, rc = _reference(docs, pattern, lowercase)
    assert c.dtype == np.int64 and h.dtype == np.uint64
    np.testing.assert_array_equal(c, rc)
    np.testing.assert_array_equal(h, rh)


def test_every_ascii_code_point():
    one_doc = ["".join(chr(c) for c in range(128))]
    per_char = [chr(c) for c in range(128)]
    pairs = [chr(a) + chr(b) for a in range(128) for b in (0x20, 0x41, 0x5f)]
    for docs in (one_doc, per_char, pairs):
        for lowercase in (True, False):
            _assert_same(pa.array(docs), docs, lowercase=lowercase)
            _assert_same(pa.array(docs), docs, r"[a-z0-9_]+", lowercase)


def test_tokens_never_merge_across_documents():
    docs = ["abc", "def", "g h", "", "ij", None, "k"]
    h, c = token_hashes(pa.array(docs), r"\w+", lowercase=True)
    assert c.tolist() == [1, 1, 2, 0, 1, 0, 1]
    assert h.tolist() == hash_str_u64(["abc", "def", "g", "h", "ij", "k"]
                                      ).tolist()


def test_null_empty_and_layouts():
    docs = [None, "", "Alpha beta", "\u212a elvin", None, "x_y Z9", ""]
    arr = pa.array(["junk", "more junk", *docs, "tail"])
    sliced = arr.slice(2, len(docs))
    assert sliced.offset == 2
    chunked = pa.chunked_array([pa.array(docs[:3]), pa.array(docs[3:])])
    for texts in (docs, pa.array(docs), sliced, chunked,
                  pa.array(docs, pa.large_string()),
                  sliced.cast(pa.large_string()),
                  pa.chunked_array([], pa.string()),
                  pa.array([None, None], pa.string()), [],
                  pa.nulls(3)):
        ref = texts.to_pylist() if hasattr(texts, "to_pylist") else texts
        _assert_same(texts, ref)


def test_lone_surrogate_list_takes_the_regex_path():
    docs = ["ok text", "bad \udc80 surrogate", None]
    _assert_same(docs, docs)


_PIECE = st.sampled_from([chr(c) for c in range(128)] + MIXED)
_TEXT = st.one_of(st.none(), st.lists(_PIECE, max_size=30).map("".join))


@settings(max_examples=200, deadline=None)
@given(
    docs=st.lists(_TEXT, max_size=12),
    layout=st.sampled_from(["list", "string", "large", "sliced", "chunked"]),
    pattern=st.sampled_from([r"\w+", r"[a-z0-9_]+", r"[a-z]+", r"\S+"]),
    lowercase=st.booleans(),
)
def test_token_hashes_match_the_re_reference(docs, layout, pattern,
                                             lowercase):
    if layout == "list":
        texts = docs
    elif layout == "string":
        texts = pa.array(docs, pa.string())
    elif layout == "large":
        texts = pa.array(docs, pa.large_string())
    elif layout == "sliced":
        texts = pa.array(["pre fix", *docs, "suf fix"], pa.string()).slice(
            1, len(docs))
    else:
        cut = len(docs) // 2
        texts = pa.chunked_array([pa.array(docs[:cut], pa.string()),
                                  pa.array(docs[cut:], pa.string())])
    _assert_same(texts, docs, pattern, lowercase)


def _simhash_reference(texts, token_pattern=r"[a-z0-9_]+"):
    """The per-document regex loop simhash_values replaced."""
    tok = re.compile(token_pattern, re.UNICODE)
    out, counts = [], []
    for t in texts:
        toks = tok.findall((t or "").lower())
        counts.append(len(toks))
        if not toks:
            out.append(0)
            continue
        hs = hash_str_u64(toks)
        votes = np.zeros(64, np.int64)
        for b in range(64):
            votes[b] = int(((hs >> np.uint64(b)) & np.uint64(1)).sum()) * 2 \
                - len(toks)
        out.append(sum(1 << b for b in range(64) if votes[b] > 0))
    return np.array(out, np.uint64), np.array(counts, np.int64)


def test_simhash_values_match_the_regex_loop_on_mixed_script():
    texts = GOLDEN_TEXTS + [m * 3 + " Word " + m for m in MIXED]
    for col in (texts, pa.array(texts), pa.array(texts, pa.large_string())):
        sig, n = simhash_values(col)
        rsig, rn = _simhash_reference(texts)
        np.testing.assert_array_equal(n, rn)
        np.testing.assert_array_equal(sig, rsig)


def _golden_digests():
    mh = MinHasher(ShingleConfig(k=3), MinHashConfig())
    sig, n_sh = mh.signatures(pa.array(GOLDEN_TEXTS))
    sim, sim_n = simhash_values(pa.array(GOLDEN_TEXTS))
    return {
        "minhash": hashlib.sha256(
            sig.astype("<u4").tobytes() + n_sh.astype("<i8").tobytes()
        ).hexdigest(),
        "simhash": hashlib.sha256(
            sim.astype("<u8").tobytes() + sim_n.astype("<i8").tobytes()
        ).hexdigest(),
    }


def test_kernel_output_is_pinned_to_kernel_version():
    assert KERNEL_VERSION in GOLDEN, (
        f"no golden digests for KERNEL_VERSION={KERNEL_VERSION!r}: record "
        f"them when the kernel version moves")
    assert _golden_digests() == GOLDEN[KERNEL_VERSION]
