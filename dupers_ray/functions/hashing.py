"""Deterministic hashing kernels (no PYTHONHASHSEED dependence anywhere).

The reference hashes whole file contents with SHA-256 through a 1 MiB buffer
(pkg/dupe/parse/parse.go:217-231). Here SHA-256 of the row's content bytes is
the exact-dup digest; a uint64 prefix of it is the uniform shuffle key
(replacing the separate xxhash the design sketched — one hash pass, zero
extra cost, uniform by construction).

All other hashing (token/shingle/node ids, hash mixing) is numpy-vectorized
uint64 arithmetic with natural mod-2^64 wraparound, so signatures are
byte-identical across processes, parallelism levels and runs.
"""

from __future__ import annotations

import hashlib

from typing import Sequence

import numpy as np

# splitmix64 constants — public-domain mixer (Steele et al.), standard for
# turning sequential/low-entropy ints into uniform 64-bit values.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)

# Mersenne prime 2^61 - 1 for the universal-hash family used by MinHash.
MERSENNE61 = np.uint64((1 << 61) - 1)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_digests(col) -> np.ndarray:
    """(n, 32) uint8 SHA-256 of each value of an Arrow string/binary
    column (its UTF-8 bytes; a null hashes as b""). The bytes come straight
    from the Arrow data buffer — no str decode and re-encode per row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dupers_ray.functions.arrowview import value_buffers

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not len(col):
        return np.empty((0, 32), np.uint8)
    if col.null_count:
        col = pc.fill_null(col, pa.scalar(b"", col.type))
    off, data = value_buffers(col)
    mv = memoryview(data)
    sha = hashlib.sha256
    o = off.tolist()
    blob = b"".join(sha(mv[a:b]).digest() for a, b in zip(o[:-1], o[1:]))
    return np.frombuffer(blob, np.uint8).reshape(-1, 32)


def digest_words(digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) big-endian uint64 word of each ``sha256_digests``
    row — the exact-dup keys; byte-identical to ``hex_prefix_u64`` and
    ``int(hex[16:32], 16)`` of the hex digest."""
    w = digests[:, :16].copy().view(">u8").astype(np.uint64)
    return np.ascontiguousarray(w[:, 0]), np.ascontiguousarray(w[:, 1])


def digest_hex(digests: np.ndarray):
    """Lowercase hex string column of ``sha256_digests`` rows (equal to
    ``hexdigest()``), built from one ``bytes.hex()`` over the block."""
    import pyarrow as pa

    n = len(digests)
    return pa.Array.from_buffers(
        pa.string(), n,
        [None, pa.py_buffer(np.arange(0, 64 * (n + 1), 64, dtype=np.int32)),
         pa.py_buffer(digests.tobytes().hex().encode("ascii"))],
    )


def hex_prefix_u64(hex_digests: Sequence[str]) -> np.ndarray:
    """First 8 bytes of each hex digest as uint64 (big-endian) — the shuffle
    key. Uniform because SHA-256 output is."""
    return np.array([int(h[:16], 16) for h in hex_digests], dtype=np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _SM_GAMMA
        x ^= x >> np.uint64(30)
        x *= _SM_M1
        x ^= x >> np.uint64(27)
        x *= _SM_M2
        x ^= x >> np.uint64(31)
    return x


# bumped whenever a hash/signature kernel changes semantics (token hash,
# shingle mixing, signature layout). Folded into checkpoint fingerprints so
# partitions written by an older kernel are recomputed instead of being
# silently mixed with new-kernel partitions in the same workdir.
KERNEL_VERSION = "md5-v2"


def hash_str_u64(values: Sequence[str]) -> np.ndarray:
    """Deterministic 64-bit hash of strings: first 8 bytes (big-endian) of
    MD5. A genuinely uniform 64-bit family — the round-1 crc32 variant had
    only 32 bits of entropy per length class (round-1 ADVICE), and the
    crc32-pair replacement wasn't oracle-checkable; MD5 is reproducible
    in DuckDB (``('0x' || substr(md5(tok), 1, 16))::UBIGINT``), which lets
    simhash / fingerprint queries carry FULL value oracles. hashlib.md5
    runs at C speed per call (~0.25 µs; hashing is per *unique* token in
    the callers, folded through dictionary_encode/factorize interning)."""
    md5 = hashlib.md5
    ib = int.from_bytes
    return np.fromiter(
        (
            ib(md5(v.encode("utf-8", "surrogatepass")).digest()[:8], "big")
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )


def hash_str_keys(arr) -> np.ndarray:
    """Deterministic uint64 partitioning hash of a string array. Vectorized
    via polars' Rust hash kernel (fixed seed → stable across processes for
    the pinned polars version; only used WITHIN one job as a partitioner,
    where equal keys → equal hash is the sole requirement). Falls back to
    the md5-based python loop if polars is unavailable."""
    import pyarrow as pa

    a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    try:
        import polars as pl

        s = pl.from_arrow(a)
        return s.hash(seed=0).to_numpy().astype(np.uint64)
    except Exception:  # noqa: BLE001 — polars missing or arrow bridge change
        vals = a.to_pylist()
        return hash_str_u64(["" if v is None else v for v in vals])


def key_i64(col) -> np.ndarray:
    """int64 join/lookup keys for an Arrow id column: integer ids pass
    through exactly; string ids hash (md5-u64 — a collision surfaces as
    an oracle mismatch, the library-wide contract). Both sides of a
    lookup must use this same function. Null ids raise: a null join key
    is a data bug worth surfacing loudly — an int column with nulls
    round-trips through float NaN (garbage keys), a string null becomes
    'None' and collides with the literal string."""
    import pyarrow as pa

    if col.null_count:
        raise ValueError(
            f"key_i64: id column has {col.null_count} null(s); ids are "
            "join keys and must be non-null"
        )
    if pa.types.is_integer(col.type):
        return col.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash_str_u64([str(v) for v in col.to_pylist()]).view(np.int64)


def node_ids(urls: Sequence[str]) -> np.ndarray:
    """Stable uint64 node id per url for graph stages. Derived from SHA-256
    (prefix) so collisions are birthday-bound only; at 10^12 docs a 64-bit id
    admits ~1e4 expected collisions — acceptable for clustering recall,
    documented as the precision tradeoff (upgrade path: 128-bit ids)."""
    sha = hashlib.sha256
    return np.array(
        [int.from_bytes(sha(u.encode()).digest()[:8], "big") for u in urls],
        dtype=np.uint64,
    )


def mix_rows_u64(mat: np.ndarray) -> np.ndarray:
    """Combine each row of a (n, r) uint64 matrix into one uint64 (order-
    sensitive polynomial mix + splitmix64 finalize). Used for LSH band keys."""
    acc = np.zeros(mat.shape[0], dtype=np.uint64)
    mult = np.uint64(0x100000001B3)  # FNV-ish odd multiplier
    with np.errstate(over="ignore"):
        for j in range(mat.shape[1]):
            acc = acc * mult + mat[:, j]
        return splitmix64(acc)
