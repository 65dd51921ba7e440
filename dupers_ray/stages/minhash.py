"""MinHash signatures + LSH banding — the near-dup analogue of ``parse.Read``.

The reference detects only EXACT content duplicates (full-file SHA-256,
pkg/dupe/parse/parse.go:217-231). BASELINE.json:north_rule mandates the
scaled near-duplicate generalization: k-shingle → MinHash signature → LSH
band buckets → candidate pairs (Broder's MinHash / banded LSH as described
in the published literature, e.g. Mining of Massive Datasets ch.3).

``MinHasher`` is a STATEFUL actor-pool stage: permutation parameters are
built once per actor in ``__init__`` and reused per batch (SURVEY.md §2.3
ST2). It takes the Arrow text column as is, and all per-batch math is
vectorized numpy:

- :func:`token_hashes` tokenizes ASCII documents in numpy over the Arrow
  string buffers (a word-byte table, runs cut at document boundaries, a
  lowercase table), interns the tokens with ``pc.dictionary_encode`` and
  MD5-hashes each distinct token once. Non-ASCII documents and custom
  token patterns take the ``re`` reference path in the same function;
  both give the same token hashes, so signatures do not depend on which
  path a document took.
- shingle hashes are a rolling polynomial over the flattened token-hash
  array, and signatures come from perm-chunked ``np.minimum.reduceat``
  over per-doc segments — no Python loop over shingles or permutations
  per doc.
- universal hash family h_i(x) = (a_i*x + b_i) mod (2^31-1) over 32-bit
  folded shingle hashes: a_i*x + b_i < 2^63 so everything stays in uint64
  without 128-bit tricks. Signature values are uint32.

Docs with zero tokens produce NO signature row (a contentless page cannot
near-dup; exact dedup upstream already handles byte-equal empties).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from dupers_ray.config import MinHashConfig, ShingleConfig
from dupers_ray.functions.hashing import hash_str_u64, mix_rows_u64, node_ids, splitmix64

_P31 = np.uint64((1 << 31) - 1)  # Mersenne prime 2^31-1
_POLY = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier for shingle rolling hash

# ``\w`` among the ASCII code points: [0-9A-Za-z_]
_WORD_BYTE = np.zeros(256, bool)
_WORD_BYTE[[*range(48, 58), *range(65, 91), *range(97, 123), 95]] = True
_LOWER_BYTE = np.arange(256, dtype=np.uint8)
_LOWER_BYTE[65:91] += 32


def token_hashes(texts, pattern: str, *, lowercase: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(hash uint64 of every token, in document order; token count int64
    per doc) for ``re.findall(pattern, text.lower() if lowercase else
    text)`` over each text — a null text has no tokens. ``texts``: an
    Arrow string column or a list of str/None. A token hashes to
    ``hash_str_u64`` of its string, once per distinct token.

    ASCII documents are tokenized in numpy over the Arrow offsets and
    data buffers when ``pattern`` is ``\\w+`` (or ``[a-z0-9_]+`` over
    lowered text, the same runs on ASCII): a byte table marks word bytes,
    runs are cut at document boundaries, and the word bytes, mapped
    through a lowercase table, are the token bytes back to back. Every
    other document, and every other pattern, takes the ``re`` path: it
    is the exact reference, since Unicode ``str.lower`` and ``\\w`` are
    not bytewise (the Kelvin sign lowers to ``k``, final sigma and
    ``İ`` have their own rules)."""
    byte_kernel = pattern == r"\w+" or (lowercase and pattern == r"[a-z0-9_]+")
    arr = _text_array(texts) if byte_kernel else None
    if arr is None:
        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        return _regex_token_hashes(texts, pattern, lowercase)
    import pyarrow.compute as pc

    valid = arr.is_valid().to_numpy(zero_copy_only=False)
    ascii_ = pc.fill_null(pc.string_is_ascii(arr), False).to_numpy(
        zero_copy_only=False)
    fast, slow = valid & ascii_, valid & ~ascii_
    if fast.all():
        return _ascii_token_hashes(arr, lowercase)
    parts = [(np.flatnonzero(fast),
              *_ascii_token_hashes(arr.filter(pa.array(fast)), lowercase)),
             (np.flatnonzero(slow),
              *_regex_token_hashes(arr.filter(pa.array(slow)).to_pylist(),
                                   pattern, lowercase))]
    counts = np.zeros(len(arr), np.int64)
    for idx, _, c in parts:
        counts[idx] = c
    starts = np.cumsum(counts) - counts
    tok_h = np.empty(int(counts.sum()), np.uint64)
    for idx, h, c in parts:
        # each part's tokens are contiguous per doc: shift doc-by-doc to
        # the doc's start in the merged order
        tok_h[np.repeat(starts[idx] - (np.cumsum(c) - c), c)
              + np.arange(h.size)] = h
    return tok_h, counts


def _text_array(texts) -> "pa.Array | None":
    """``texts`` as one string/large_string Arrow array, or None when it
    is not one: another Arrow type, or a list Arrow cannot encode (a lone
    surrogate)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = (texts.combine_chunks() if texts.num_chunks
                 else pa.array([], texts.type))
    elif not isinstance(texts, pa.Array):
        try:
            texts = pa.array(texts, pa.string())
        except (pa.ArrowException, UnicodeEncodeError):
            return None
    if pa.types.is_string(texts.type) or pa.types.is_large_string(texts.type):
        return texts
    return None


def _ascii_token_hashes(arr: pa.Array, lowercase: bool
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The byte kernel of :func:`token_hashes`: ``arr`` has no nulls and
    only ASCII text. Memory is O(bytes) in bools, O(tokens) in ints."""
    import pyarrow.compute as pc

    from dupers_ray.functions.arrowview import value_buffers

    if not len(arr):
        return np.empty(0, np.uint64), np.zeros(0, np.int64)
    off, data = value_buffers(arr)
    base = int(off[0])
    data = data[base : int(off[-1])]
    rel = off.astype(np.int64) - base
    word = _WORD_BYTE[data]
    nonempty = rel[:-1] < rel[1:]
    # a run starts at a word byte after a non-word byte or at a doc start,
    # and ends at a word byte before a non-word byte or at a doc end
    first = word.copy()
    first[1:] &= ~word[:-1]
    doc_first = rel[:-1][nonempty]
    first[doc_first] = word[doc_first]
    last = word.copy()
    last[:-1] &= ~word[1:]
    doc_last = rel[1:][nonempty] - 1
    last[doc_last] = word[doc_last]
    starts = np.flatnonzero(first)
    counts = np.diff(np.searchsorted(starts, rel))
    if not starts.size:
        return np.empty(0, np.uint64), counts
    tok_off = np.zeros(starts.size + 1, np.int64)
    np.cumsum(np.flatnonzero(last) + 1 - starts, out=tok_off[1:])
    tok_bytes = data[word]
    if lowercase:
        tok_bytes = _LOWER_BYTE[tok_bytes]
    large = tok_off[-1] > np.iinfo(np.int32).max
    toks = pa.Array.from_buffers(
        pa.large_string() if large else pa.string(), starts.size,
        [None, pa.py_buffer(tok_off if large else tok_off.astype(np.int32)),
         pa.py_buffer(tok_bytes)],
    )
    enc = pc.dictionary_encode(toks)
    uniq_h = hash_str_u64(enc.dictionary.to_pylist())
    return uniq_h[enc.indices.to_numpy()], counts


def _regex_token_hashes(docs, pattern: str, lowercase: bool
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The ``re`` path of :func:`token_hashes` over a list of str/None."""
    findall = re.compile(pattern, re.UNICODE).findall
    counts = np.empty(len(docs), np.int64)
    all_toks: list[str] = []
    ext = all_toks.extend
    for i, t in enumerate(docs):
        s = t if t is not None else ""
        toks = findall(s.lower() if lowercase else s)
        counts[i] = len(toks)
        ext(toks)
    if not all_toks:
        return np.empty(0, np.uint64), counts
    # intern at C speed: each UNIQUE token is hashed once
    codes, uniq = pd.factorize(np.asarray(all_toks, dtype=object), sort=False)
    return hash_str_u64(list(uniq))[codes], counts



class MinHasher:
    """map_batches(MinHasher, concurrency=N) — emits one signature row per
    doc with >=1 token: (id_col, node, sig: list<uint32>, n_shingles)."""

    def __init__(
        self,
        shingle: ShingleConfig | None = None,
        minhash: MinHashConfig | None = None,
        *,
        id_col: str = "url",
        text_col: str = "text",
    ):
        self.shingle = shingle or ShingleConfig()
        self.cfg = minhash or MinHashConfig()
        self.id_col = id_col
        self.text_col = text_col
        rng = np.random.default_rng(self.cfg.seed)
        # a in [1, p), b in [0, p) — classic universal family
        self.a = rng.integers(1, int(_P31), size=self.cfg.num_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(_P31), size=self.cfg.num_perm, dtype=np.uint64)

    # ---------------------------------------------------------------- core

    def _shingle_hashes(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """Returns (flat shingle-hash array uint64, per-doc segment offsets
        int64 of length len(texts)+1). ``texts``: an Arrow string column
        or a list of str/None. Docs with 0 tokens get empty segments.

        Fully batch-vectorized: :func:`token_hashes` gives every token's
        hash in document order, the k-token rolling polynomial runs ONCE
        over that flat array, and per-doc windows are selected with a
        gather index, so no numpy call is issued per document."""
        k = self.shingle.k
        tok_h, counts = token_hashes(
            texts, self.shingle.token_pattern, lowercase=self.shingle.lowercase
        )
        offsets = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        n_tok = offsets[-1]
        if n_tok == 0:
            return np.empty(0, np.uint64), offsets

        # shingles per doc: n-k+1 for n>=k, 1 for 0<n<k (whole-doc shingle)
        m = np.where(counts >= k, counts - k + 1, np.minimum(counts, 1))
        sh_offsets = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(m, out=sh_offsets[1:])
        total = int(sh_offsets[-1])
        flat_sh = np.empty(total, np.uint64)

        with np.errstate(over="ignore"):
            # one global rolling pass; windows that cross doc boundaries are
            # simply never gathered
            if n_tok >= k:
                nw = n_tok - k + 1
                acc = tok_h[:nw].copy()
                for j in range(1, k):
                    acc *= _POLY
                    acc += tok_h[j : j + nw]
            else:
                acc = np.empty(0, np.uint64)

            long_mask = counts >= k
            m_long = m[long_mask]
            if m_long.size:
                # gather index: for each long doc, arange(off, off + m_doc)
                starts = offsets[:-1][long_mask]
                rep_starts = np.repeat(starts, m_long)
                grp = np.repeat(np.cumsum(m_long) - m_long, m_long)
                intra = np.arange(rep_starts.size, dtype=np.int64) - grp
                src_idx = rep_starts + intra
                dst_starts = sh_offsets[:-1][long_mask]
                rep_dst = np.repeat(dst_starts, m_long)
                dst_idx = rep_dst + intra
                flat_sh[dst_idx] = splitmix64(acc[src_idx])

            # short docs (0 < n < k): one shingle mixing all their tokens —
            # rare in web corpora, loop only over those
            short_idx = np.nonzero((counts > 0) & ~long_mask)[0]
            for i in short_idx:
                seg = tok_h[offsets[i] : offsets[i + 1]]
                h = seg[0]
                for j in range(1, len(seg)):
                    h = h * _POLY + seg[j]
                flat_sh[sh_offsets[i]] = splitmix64(
                    np.array([h], np.uint64)
                )[0]

        return flat_sh, sh_offsets

    def signatures(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """(sig matrix uint32 of shape (num_docs_with_content, num_perm),
        n_shingles int64 per input doc — 0 marks 'no signature row').
        ``texts``: an Arrow string column or a list of str/None."""
        flat_sh, offsets = self._shingle_hashes(texts)
        n_sh = np.diff(offsets)
        keep = n_sh > 0
        if not keep.any():
            return np.empty((0, self.cfg.num_perm), np.uint32), n_sh
        if self.cfg.method == "oph":
            return self._signatures_oph(flat_sh, n_sh, keep), n_sh
        starts = offsets[:-1][keep]
        # fold 64-bit shingle hashes to 32-bit x (top xor bottom)
        x = ((flat_sh >> np.uint64(32)) ^ (flat_sh & np.uint64(0xFFFFFFFF))).astype(
            np.uint64
        )
        P = self.cfg.num_perm
        out = np.empty((int(keep.sum()), P), np.uint32)
        chunk = 16  # perms per pass: bounds peak memory at chunk*len(x)*8B
        with np.errstate(over="ignore"):
            for c0 in range(0, P, chunk):
                c1 = min(c0 + chunk, P)
                vals = self.a[c0:c1, None] * x[None, :] + self.b[c0:c1, None]
                # Mersenne reduction mod 2^31-1 via shift-add (~3x faster
                # than the generic uint64 %): after two folds v < 2^31+1,
                # one conditional subtract canonicalizes to [0, p)
                vals = (vals & _P31) + (vals >> np.uint64(31))
                vals = (vals & _P31) + (vals >> np.uint64(31))
                vals -= np.where(vals >= _P31, _P31, np.uint64(0))
                mins = np.minimum.reduceat(vals, starts, axis=1)
                out[:, c0:c1] = mins.T.astype(np.uint32)
        return out, n_sh

    def _signatures_oph(
        self, flat_sh: np.ndarray, n_sh: np.ndarray, keep: np.ndarray
    ) -> np.ndarray:
        """One-permutation MinHash: each shingle hash lands in ONE bin
        (top log2(P) bits), bin value = min of low-32-bit values; empty bins
        are filled by circular borrow-from-left with a distance-mixed offset
        (rotation densification) so sparse docs stay comparable."""
        P = self.cfg.num_perm
        logp = P.bit_length() - 1
        D = int(keep.sum())
        doc_ord = np.repeat(np.arange(D, dtype=np.int64), n_sh[keep])
        bins = (flat_sh >> np.uint64(64 - logp)).astype(np.int64)
        vals = (flat_sh & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        SENT = np.uint64(1) << np.uint64(33)
        sig = np.full(D * P, SENT, np.uint64)
        np.minimum.at(sig, doc_ord * P + bins, vals)
        sig = sig.reshape(D, P)

        empty = sig >= SENT
        if empty.any():
            with np.errstate(over="ignore"):
                # circular forward-fill: for each bin, nearest filled bin at or
                # to its left in the doubled array ⇒ circular borrow
                tiled = np.concatenate([sig, sig], axis=1)
                col = np.arange(2 * P, dtype=np.int64)
                pos = np.where(tiled < SENT, col[None, :], np.int64(-1))
                np.maximum.accumulate(pos, axis=1, out=pos)
                pos2 = pos[:, P:]  # for bin j: last filled position ≤ j+P
                dist = (np.arange(P, dtype=np.int64)[None, :] + P) - pos2
                src = np.take_along_axis(tiled, pos2, axis=1)
                borrowed = (
                    src + dist.astype(np.uint64) * np.uint64(0x9E3779B9)
                ) & np.uint64(0xFFFFFFFF)
                sig = np.where(empty, borrowed, sig)
        return sig.astype(np.uint32)

    # ------------------------------------------------------------- stage fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig, n_sh = self.signatures(batch.column(self.text_col))
        keep = n_sh > 0
        kept_ids = batch.column(self.id_col).filter(pa.array(keep)).to_pylist()
        return pa.table(
            {
                self.id_col: pa.array(kept_ids),
                "node": pa.array(node_ids([str(i) for i in kept_ids])),
                "sig": sig_column(sig, keep[keep], self.cfg.sig_store),
                "n_shingles": pa.array(n_sh[keep].astype(np.int64)),
            }
        )


def pack_sig(sig: np.ndarray, sig_store: str) -> np.ndarray:
    """uint32 signature matrix → contiguous little-endian storage matrix
    per MinHashConfig.sig_store ("u4" full / "u2" low-half folds)."""
    if sig_store == "u2":
        return np.ascontiguousarray((sig & np.uint32(0xFFFF)).astype("<u2"))
    return np.ascontiguousarray(sig.astype("<u4"))


def sig_column(sig: np.ndarray, keep: np.ndarray, sig_store: str) -> pa.Array:
    """The stored ``sig`` column of a batch: row i holds the packed
    (:func:`pack_sig`) signature of the i-th ``keep`` row, a ``keep=False``
    row is null. Stored as binary: Arrow hash joins support binary payloads
    but NOT (fixed_size_)list ones, and binary survives pandas/parquet
    round-trips without object dtype. Built from one buffer, no per-row
    Python."""
    n = len(keep)
    if not sig.shape[0]:
        return pa.nulls(n, pa.binary())
    packed = pack_sig(sig, sig_store)
    offsets = np.zeros(n + 1, np.int32)
    np.cumsum(keep * (packed.shape[1] * packed.dtype.itemsize), out=offsets[1:])
    valid = (None if keep.all()
             else pa.py_buffer(np.packbits(keep, bitorder="little").tobytes()))
    return pa.Array.from_buffers(
        pa.binary(), n,
        [valid, pa.py_buffer(offsets), pa.py_buffer(packed.tobytes())],
        null_count=int(n - keep.sum()),
    )


def sig_matrix(col, num_perm: int) -> np.ndarray:
    """Stored sig binary column → value matrix, width-detected: num_perm
    uint32s ("u4" store) or num_perm uint16s ("u2"). Zero-copy view of
    the Arrow buffer either way."""
    from dupers_ray.functions.arrowview import binary_matrix

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, num_perm), np.uint16)
    import pyarrow.compute as pc

    widths = pc.unique(pc.binary_length(col)).drop_null().to_pylist()
    if not widths:
        return np.empty((0, num_perm), np.uint16)
    if len(widths) > 1:
        raise ValueError(
            f"mixed signature widths {sorted(widths)} B in one table — a "
            f"persisted store and a delta scan must use the same "
            f"MinHashConfig.sig_store"
        )
    width = widths[0]
    if width == num_perm * 2:
        return binary_matrix(col, "<u2")
    if width == num_perm * 4:
        return binary_matrix(col, "<u4")
    raise ValueError(
        f"sig width {width} B matches neither u4 nor u2 at num_perm={num_perm}"
    )


def fold16_matrix(col, num_perm: int) -> np.ndarray:
    """Stored sig binary → uint16 fold matrix (the verify comparison
    domain): the identity for a "u2" store, the low halves for "u4"."""
    m = sig_matrix(col, num_perm)
    if m.dtype == np.uint16:
        return m
    return (m & np.uint32(0xFFFF)).astype(np.uint16)


def explode_bands(
    batch: pa.Table, *, bands: int, rows: int, id_col: str = "url"
) -> pa.Table:
    """Stateless map_batches stage: signature rows → (band_id, band_hash,
    id, node) rows, ``bands`` per doc. band_hash mixes the band's ``rows``
    signature values plus band_id (so identical sub-signatures in different
    bands never collide into one bucket). Rows with null sig (token-less
    docs in the fused digest+sig table) are skipped."""
    import pyarrow.compute as pc

    if batch.column("sig").null_count:
        batch = batch.filter(pc.is_valid(batch.column("sig")))
    sig = batch.column("sig")
    d = len(batch)
    if d == 0:
        return pa.table(
            {
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.uint64()),
                id_col: pa.array([], batch.schema.field(id_col).type),
                "node": pa.array([], pa.uint64()),
            }
        )
    mat = sig_matrix(sig, bands * rows).reshape(d, bands, rows).astype(np.uint64)
    hashes = np.empty((d, bands), np.uint64)
    for b in range(bands):
        with np.errstate(over="ignore"):
            acc = mix_rows_u64(mat[:, b, :] + np.uint64(b + 1))
        hashes[:, b] = acc
    ids = batch.column(id_col)
    nodes = batch.column("node")
    idx = pa.array(np.repeat(np.arange(d), bands))
    return pa.table(
        {
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), d)),
            "band_hash": pa.array(hashes.reshape(-1)),
            id_col: ids.take(idx),
            "node": nodes.take(idx),
        }
    )


def signature_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Unbiased Jaccard estimate: fraction of equal signature components."""
    return float(np.mean(sig_a == sig_b))


def plan_lsh(
    threshold: float,
    num_perm: int = 128,
    *,
    fn_weight: float = 1.0,
    fp_weight: float = 1.0,
) -> tuple[int, int]:
    """Choose LSH banding (bands, rows) for a target Jaccard ``threshold``
    and a permutation budget: minimize the weighted error mass of the
    S-curve P(s) = 1 - (1 - s^r)^b against the ideal step at the
    threshold — ∫₀ᵗ fp·P(s) ds + ∫ₜ¹ fn·(1 - P(s)) ds — over every exact
    factorization b·r = num_perm (the standard MMDS ch.3 tuning,
    Leskovec/Rajaraman/Ullman; public literature). Deterministic
    midpoint quadrature, no RNG. Use ``fn_weight > fp_weight`` when
    missed dup pairs cost more than verify work (the north rule's
    recall ≥ 0.99 regime).

    Returns (bands, rows) ready for :class:`dupers_ray.config`'s
    MinHash config (bands * rows == num_perm always holds)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if num_perm < 1:
        raise ValueError("num_perm must be positive")
    s = (np.arange(1000, dtype=np.float64) + 0.5) / 1000.0
    below = s < threshold
    best: tuple[float, int, int] | None = None
    for r in range(1, num_perm + 1):
        if num_perm % r:
            continue
        b = num_perm // r
        p = 1.0 - (1.0 - s**r) ** b
        err = (
            fp_weight * p[below].sum() + fn_weight * (1.0 - p[~below]).sum()
        ) / 1000.0
        # tie-break toward fewer bands (fewer shuffled band rows/doc)
        if best is None or err < best[0] - 1e-12:
            best = (err, b, r)
    assert best is not None
    return best[1], best[2]
