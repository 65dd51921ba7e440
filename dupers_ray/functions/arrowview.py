"""Zero-copy numpy views over Arrow binary columns.

The engine stores fixed-width payloads (MinHash signatures, embedding
vectors) as plain ``binary`` columns — Arrow hash joins and parquet
round-trips handle binary, but not fixed_size_list. Turning those columns
back into (n, w) numpy matrices via ``b"".join(col.to_pylist())`` costs a
Python object per row plus two full copies; for a 600k-doc signature
table that is ~300 MB of driver-side copying per consumer. A uniform-
width binary column's Arrow data buffer already IS the concatenation, so
this helper just reinterprets the buffer (plus an offset-uniformity
check), falling back to the copy path for ragged or null-bearing input.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def binary_matrix(col: "pa.ChunkedArray | pa.Array", dtype) -> np.ndarray:
    """(n, w) matrix view of a uniform-width Arrow binary column —
    zero-copy from the Arrow data buffer when the column has no nulls and
    one width; copy fallback otherwise. Rows must be non-empty."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # 0-chunk edge
            col = (
                col.chunk(0)
                if col.num_chunks
                else pa.array([], pa.binary())
            )
    n = len(col)
    dtype = np.dtype(dtype)
    if n == 0:
        return np.empty((0, 0), dtype)
    if col.null_count == 0:
        off, data = value_buffers(col)
        w = off[1] - off[0]
        if w > 0 and w % dtype.itemsize == 0 and (np.diff(off) == w).all():
            return data[off[0] : off[-1]].view(dtype).reshape(n, -1)
    flat = np.frombuffer(
        b"".join(v or b"" for v in col.to_pylist()), dtype
    )
    return flat.reshape(n, -1)


def value_buffers(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, data) numpy views of a string/binary array's buffers:
    ``len(col) + 1`` offsets (int32 or int64, the slice's own window, so
    row ``i`` is ``data[offsets[i]:offsets[i + 1]]``) and the whole data
    buffer as uint8. Zero-copy; a null row's bytes are unspecified."""
    bufs = col.buffers()
    large = pa.types.is_large_binary(col.type) or pa.types.is_large_string(
        col.type)
    off = np.frombuffer(bufs[1], np.int64 if large else np.int32)
    data = (np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None
            else np.empty(0, np.uint8))
    return off[col.offset : col.offset + len(col) + 1], data
