"""Video perceptual dedup — frame-sampled dHash constellation with
majority voting across sample slots.

Completes the multimodal triad (stages/imagehash.py for stills,
stages/audiohash.py for audio): videos are opaque ``binary`` payloads
in a from-scratch MJPEG-style container (``DVID``: header + a sequence
of independently-encoded PNG/JPEG frames — the same "container of
codec frames" shape as MJPEG-in-AVI, parsed with stdlib struct only).
The technique — sample a few frames at fixed RELATIVE positions, hash
each perceptually, and require a majority of slots to agree — is the
standard frame-signature video copy-detection recipe (e.g. the
ordinal/frame-fingerprint family surveyed in Law-To et al. 2007,
"Video copy detection: a comparative study"), reduced to its Ray-Data
shape:

1. ``VideoFrameHasher`` actor pool: payload → parse container → sample
   ``n_slots`` frames at relative positions (s+0.5)/n_slots → decode
   (from-scratch PNG/JPEG codecs) → 64-bit dHash per slot (gradient-sign
   hash — measured more stable than pHash across resolution changes). Decoder
   state built once per actor; corrupt payloads KEPT as a single
   (id, slot=-1, decode_error) row — never silently dropped (the
   explode_archives contract, reference pkg/dupe/dupe.go:648 hashes
   archive members the same way: content, not container bytes).
2. Per-slot Hamming-close pairs via the pigeonhole band machinery
   SHARED with text SimHash and image pHash
   (stages/simhash.hamming_pairs_from_sigs) — slots never mix because
   each slot gets its own banding pass.
3. Majority vote: one (src, dst)-keyed count shuffle keeps pairs
   matched in >= ``majority`` slots — robust to one edited/retitled
   scene, unlike a whole-video hash.
4. Clusters via the text flagship's connected-components + assignment
   machinery (pipelines/components, pipelines/dupe.assign_clusters).

Why relative positions: the same content re-encoded at a different
frame rate / frame count still samples the same SCENES, so the slot
hashes line up — byte digests and even per-frame-index comparison
both break under fps changes.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray.data

_MAGIC = b"DVID"


def encode_video(frames: list[bytes], fps: int = 10) -> bytes:
    """Encoded image payloads (PNG/JPEG bytes) → DVID container:
    ``DVID | u16 version | u16 fps | u32 n_frames | (u32 len + bytes)*``."""
    if not frames:
        raise ValueError("encode_video: need at least one frame")
    out = [_MAGIC, struct.pack("<HHI", 1, fps, len(frames))]
    for f in frames:
        out.append(struct.pack("<I", len(f)))
        out.append(f)
    return b"".join(out)


def parse_video(payload: bytes) -> tuple[int, list[bytes]]:
    """DVID container → (fps, frame payload list); ValueError-family on
    bad magic / truncation / absurd counts (fuzz-safe: every length is
    bounds-checked before the slice)."""
    if len(payload) < 12 or payload[:4] != _MAGIC:
        raise ValueError("not a DVID container")
    ver, fps, n = struct.unpack_from("<HHI", payload, 4)
    if ver != 1:
        raise ValueError(f"unsupported DVID version {ver}")
    if n == 0 or n > 1_000_000:
        raise ValueError(f"implausible frame count {n}")
    frames: list[bytes] = []
    off = 12
    for _ in range(n):
        if off + 4 > len(payload):
            raise ValueError("truncated frame header")
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        if off + ln > len(payload):
            raise ValueError("truncated frame body")
        frames.append(payload[off : off + ln])
        off += ln
    return fps, frames


def sample_slot_indices(n_frames: int, n_slots: int) -> np.ndarray:
    """Frame index for each slot at relative position (s+0.5)/n_slots —
    scene-centered, so re-renderings with different frame counts of the
    same scene sequence sample the same scenes."""
    s = (np.arange(n_slots, dtype=np.float64) + 0.5) / n_slots
    return np.minimum((s * n_frames).astype(np.int64), n_frames - 1)


class VideoFrameHasher:
    """Actor-pool stage: (id, payload) → one row per sample slot
    (id, slot, dhash, n_frames, fps) for decodable videos, or a single
    (id, slot=-1, decode_error) row for corrupt ones."""

    def __init__(self, *, id_col: str = "media_id", payload_col: str = "payload",
                 n_slots: int = 3):
        from dupers_ray.stages.imagehash import _decode_any, dhash64, to_gray

        self.id_col = id_col
        self.payload_col = payload_col
        self.n_slots = n_slots
        # codec dispatch + DCT basis built once per actor
        self._decode = _decode_any
        self._dhash = dhash64
        self._gray = to_gray

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.payload_col).to_pylist()
        ids = np.asarray(batch.column(self.id_col), dtype=np.int64)
        out_id: list[int] = []
        out_slot: list[int] = []
        out_ph: list[int] = []
        out_nf: list[int] = []
        out_fps: list[int] = []
        out_err: list[str | None] = []
        for vid, p in zip(ids.tolist(), payloads):
            try:
                fps, frames = parse_video(p or b"")
                idxs = sample_slot_indices(len(frames), self.n_slots)
                hashes = [
                    self._dhash(self._gray(self._decode(frames[i])))
                    for i in idxs
                ]
            except Exception as ex:  # noqa: BLE001 — corrupt rows flow on
                out_id.append(vid)
                out_slot.append(-1)
                out_ph.append(0)
                out_nf.append(0)
                out_fps.append(0)
                out_err.append(f"{type(ex).__name__}: {ex}")
                continue
            for s, h in enumerate(hashes):
                out_id.append(vid)
                out_slot.append(s)
                # int64 VIEW of the hash (uint64 groupby-key pitfall)
                out_ph.append(int(np.uint64(h).astype(np.int64)))
                out_nf.append(len(frames))
                out_fps.append(fps)
                out_err.append(None)
        return pa.table({
            self.id_col: pa.array(out_id, pa.int64()),
            "slot": pa.array(out_slot, pa.int32()),
            "dhash": pa.array(out_ph, pa.int64()),
            "n_frames": pa.array(out_nf, pa.int32()),
            "fps": pa.array(out_fps, pa.int32()),
            "decode_error": pa.array(out_err, pa.string()),
        })


def hash_video_frames(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "media_id",
    payload_col: str = "payload",
    n_slots: int = 3,
    concurrency: int | tuple[int, int] = (1, 8),
    batch_size: int = 32,
) -> "ray.data.Dataset":
    """Slot-sampled frame dHashes for every video row (batch_size is
    SMALL: video payloads are the widest rows in the corpus)."""
    return ds.select_columns([id_col, payload_col]).map_batches(
        VideoFrameHasher,
        fn_constructor_kwargs={
            "id_col": id_col, "payload_col": payload_col, "n_slots": n_slots,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def video_dup_clusters(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "media_id",
    payload_col: str = "payload",
    n_slots: int = 3,
    majority: int = 2,
    hamming_threshold: int = 9,
    concurrency: int | tuple[int, int] = (1, 8),
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Every decodable video row → (id, cluster_id = min id of its
    perceptual-dup component). Two videos are dup-linked when >=
    ``majority`` of their ``n_slots`` scene-sampled frame pHashes are
    within ``hamming_threshold`` — one banding shuffle per slot (slots
    never mix), then ONE (src, dst) count shuffle for the vote, then
    the shared components + assignment machinery."""
    import pyarrow.compute as pc

    from dupers_ray.functions.grouping import keyed_partition_map_groups
    from dupers_ray.pipelines.components import components
    from dupers_ray.pipelines.dupe import assign_clusters
    from dupers_ray.stages.simhash import hamming_pairs_from_sigs

    hashes = hash_video_frames(
        ds, id_col=id_col, payload_col=payload_col,
        n_slots=n_slots, concurrency=concurrency,
    ).materialize()  # consumed n_slots+1 times: per-slot pairs + mapping

    def slot_sigs(s: int):
        def prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("slot"), s))
            # bit-reinterpret, not cast: the int64 column is a VIEW of
            # the uint64 hash (values above 2^63 are negative int64)
            sig = np.ascontiguousarray(
                t.column("dhash").to_numpy(zero_copy_only=False)
            ).view(np.uint64)
            return pa.table({
                "node": t.column(id_col).cast(pa.uint64()),
                "simhash": pa.array(sig),
            })

        return hashes.map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True
        )

    slot_pairs = [
        hamming_pairs_from_sigs(
            slot_sigs(s), hamming_threshold=hamming_threshold,
            num_partitions=num_partitions,
        )
        for s in range(n_slots)
    ]
    allp = slot_pairs[0].union(*slot_pairs[1:])

    def vote(g: pa.Table) -> pa.Table:
        # per-slot pair lists are already internally deduped, so the
        # group size per (src, dst) IS the number of agreeing slots
        cnt = g.group_by(["src", "dst"]).aggregate([([], "count_all")])
        return cnt.filter(pc.greater_equal(cnt.column("count_all"), majority)
                          ).select(["src", "dst"])

    edges = keyed_partition_map_groups(
        allp, ["src", "dst"], vote, num_partitions=num_partitions
    ).materialize()
    assign = components(edges)

    def to_mapping(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("slot"), 0))
        return pa.table({
            id_col: t.column(id_col),
            "node": t.column(id_col).cast(pa.uint64()),
        })

    mapping = hashes.map_batches(
        to_mapping, batch_format="pyarrow", zero_copy_batch=True
    )
    return assign_clusters(mapping, assign, id_col=id_col)
