"""Content digest stage — the engine's analogue of ``parse.Read``.

Reference: pkg/dupe/parse/parse.go:217-231 streams a file through SHA-256
with a 1 MiB buffer. Here the unit is a row: SHA-256 of the content column's
bytes, emitted as lowercase hex (``digest``, comparable to DuckDB's
``sha256()``) plus a uint64 prefix (``digest_u64``) used as the uniform
shuffle key for the exact-dedup groupby.

Stateless ``map_batches`` transform, Arrow in / Arrow out.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from dupers_ray.functions.hashing import digest_hex, digest_words, sha256_digests


def add_digests(batch: pa.Table, *, content_col: str = "text") -> pa.Table:
    """Append ``digest`` (sha256 hex) + ``digest_u64`` columns.

    Works on string or binary content columns. Empty content digests to the
    well-known sha256 of b"" (the reference instead raises ErrFileEmpty,
    pkg/dupe/dupe.go:47 — empty rows are filtered upstream when parity with
    that behavior is wanted; see ``drop_empty``).
    """
    digests = sha256_digests(batch.column(content_col))
    batch = batch.append_column("digest", digest_hex(digests))
    return batch.append_column("digest_u64", pa.array(digest_words(digests)[0]))


def drop_empty(batch: pa.Table, *, content_col: str = "text") -> pa.Table:
    """Filter rows with null/empty content (parity with the reference's
    ErrFileEmpty skip, pkg/dupe/dupe.go:47 + parse_fuzz.go non-empty
    property)."""
    import pyarrow.compute as pc

    col = batch.column(content_col)
    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
        lengths = pc.binary_length(col)
    else:
        lengths = pc.utf8_length(col)
    mask = pc.and_(col.is_valid(), pc.greater(lengths, 0))
    return batch.filter(mask)


def digest_dataset(
    ds: "ray.data.Dataset",
    *,
    content_col: str = "text",
    batch_size: int = 4096,
) -> "ray.data.Dataset":
    """Dataset-level wrapper: filter empties then append digest columns."""
    return ds.map_batches(
        drop_empty,
        fn_kwargs={"content_col": content_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    ).map_batches(
        add_digests,
        fn_kwargs={"content_col": content_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
