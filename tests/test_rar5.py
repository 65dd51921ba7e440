"""From-scratch RAR5 reader (sources/rar5.py) — reference parity for the
archive walker's .rar handling (pkg/dupe/internal/archive/archive.go:24,81;
dupe.go:604-646 member walk).

No rar CLI or rarfile module exists in this env, so the test builds RAR5
archives itself from the public format spec (stored members, correct
header/data CRCs) and cross-validates them against libarchive's
independent RAR5 reader (`bsdtar`) when available: if bsdtar extracts the
same bytes from our hand-built archive, the writer is spec-conformant and
the reader is checked against an implementation we didn't write."""

from __future__ import annotations

import io
import os
import select
import shutil
import struct
import subprocess
import time
import zlib

import pyarrow as pa
import pytest

from dupers_ray.sources.archive import explode_archives
from dupers_ray.sources.rar5 import (
    SIGNATURE,
    BadRar,
    UnsupportedRar,
    read_rar5_members,
)

BSDTAR = shutil.which("bsdtar")


# ------------------------------------------------------------- RAR5 writer

def _vint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _block(btype: int, bflags: int, specific: bytes, data: bytes = b"") -> bytes:
    hdr = _vint(btype) + _vint(bflags)
    if bflags & 0x02:
        hdr += _vint(len(data))
    hdr += specific
    framed = _vint(len(hdr)) + hdr  # CRC covers the size vint too
    return struct.pack("<I", zlib.crc32(framed)) + framed + data


def _file_block(name: str, payload: bytes, *, directory: bool = False,
                method: int = 0, with_crc: bool = True) -> bytes:
    file_flags = (0x01 if directory else 0) | (0x04 if with_crc else 0)
    spec = _vint(file_flags) + _vint(len(payload)) + _vint(0)  # attributes
    if with_crc:
        spec += struct.pack("<I", zlib.crc32(payload))
    spec += _vint(method << 7)  # compression info: version 0, method bits 7-9
    spec += _vint(1)            # host OS: unix
    nb = name.encode("utf-8")
    spec += _vint(len(nb)) + nb
    return _block(2, 0x02 if payload or not directory else 0, spec, payload)


def build_rar5(members: list[tuple[str, bytes]], **kw) -> bytes:
    out = bytearray(SIGNATURE)
    out += _block(1, 0, _vint(0))  # main header: archive flags = 0
    for name, payload in members:
        out += _file_block(name, payload, **kw)
    out += _block(5, 0, _vint(0))  # end of archive
    return bytes(out)


MEMBERS = [
    ("hello.txt", b"hello rar world\n"),
    ("sub/dir/data.bin", bytes(range(256)) * 17),
    ("empty.txt", b""),
    ("unicodé namé.txt", "café ☃".encode()),
]


# ------------------------------------------------------------------ reader

def test_roundtrip_stored():
    got = read_rar5_members(build_rar5(MEMBERS))
    assert got == MEMBERS


def test_directories_skipped():
    blob = build_rar5([("adir", b"")])
    # rebuild with the directory flag set
    blob = (
        bytes(SIGNATURE)
        + _block(1, 0, _vint(0))
        + _file_block("adir", b"", directory=True)
        + _file_block("kept.txt", b"x")
        + _block(5, 0, _vint(0))
    )
    assert read_rar5_members(blob) == [("kept.txt", b"x")]


def test_no_data_crc_accepted():
    members = [("a.txt", b"payload without stored crc")]
    assert read_rar5_members(build_rar5(members, with_crc=False)) == members


def test_missing_end_block_tolerated():
    blob = build_rar5(MEMBERS)
    # strip the end-of-archive block (truncated tails are common in the wild)
    end = _block(5, 0, _vint(0))
    assert blob.endswith(end)
    assert read_rar5_members(blob[: -len(end)]) == MEMBERS


@pytest.mark.skipif(BSDTAR is None, reason="bsdtar not present")
def test_cross_validated_by_libarchive(tmp_path):
    """Our writer's output must be readable by libarchive, and libarchive
    must extract the same bytes our reader does — an independent check of
    both sides."""
    path = tmp_path / "fixture.rar"
    path.write_bytes(build_rar5(MEMBERS))
    # timeouts guard against a buggy host libarchive spinning forever
    # (observed: conda bsdtar looping on a zero-length rar5 member) —
    # the cross-check is best-effort, never a suite hang
    try:
        listing = subprocess.run(
            [BSDTAR, "-tf", str(path)], capture_output=True, text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.skip("bsdtar hung listing rar5 (buggy host libarchive)")
    if listing.returncode != 0:  # libarchive built without rar5 support
        pytest.skip(f"bsdtar cannot read rar5: {listing.stderr.strip()}")
    names = [ln for ln in listing.stdout.splitlines() if ln]
    assert sorted(names) == sorted(n for n, _ in MEMBERS)
    for name, payload in MEMBERS:
        try:
            code, out, err = _bsdtar_extract(path, name, len(payload) + 1,
                                             tmp_path / "stderr", timeout=60)
        except subprocess.TimeoutExpired:
            pytest.skip(
                f"bsdtar hung extracting {name!r} (buggy host libarchive)"
            )
        assert code == 0, err
        assert out == payload


def _bsdtar_extract(path, name, limit, err_path, *, timeout):
    """(returncode, first ``limit`` stdout bytes, stderr head) of ``bsdtar
    -xOf path name``. Output past ``limit`` is read and dropped, never
    buffered: a buggy libarchive can print without end (observed: many GB
    of zeros for a zero-length member), and such a run ends in
    TimeoutExpired at the deadline, the same as a silent hang."""
    deadline = time.monotonic() + timeout
    with open(err_path, "wb") as errf, subprocess.Popen(
        [BSDTAR, "-xOf", str(path), name],
        stdout=subprocess.PIPE, stderr=errf,
    ) as proc:
        out = bytearray()
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk[: limit - len(out)]
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    with open(err_path, "rb") as errf:
        err = errf.read(4096).decode(errors="replace")
    return code, bytes(out), err


# ------------------------------------------------------------------ errors

def test_header_crc_mismatch():
    blob = bytearray(build_rar5(MEMBERS))
    blob[len(SIGNATURE)] ^= 0xFF  # corrupt the main header CRC
    with pytest.raises(BadRar, match="CRC"):
        read_rar5_members(bytes(blob))


def test_data_crc_mismatch():
    blob = build_rar5([("a.txt", b"AAAABBBB")])
    bad = blob.replace(b"AAAABBBB", b"AAAABBBC")
    with pytest.raises(BadRar, match="data CRC"):
        read_rar5_members(bad)


def test_compressed_member_unsupported():
    blob = build_rar5([("packed.txt", b"pretend-compressed")], method=3)
    with pytest.raises(UnsupportedRar, match="method 3"):
        read_rar5_members(blob)


def test_rar4_unsupported():
    with pytest.raises(UnsupportedRar, match="RAR4"):
        read_rar5_members(b"Rar!\x1a\x07\x00" + b"\x00" * 32)


def test_not_rar():
    with pytest.raises(BadRar):
        read_rar5_members(b"PK\x03\x04junk")


def test_truncated_member_data():
    blob = build_rar5(MEMBERS)
    with pytest.raises(BadRar):
        read_rar5_members(blob[: len(blob) // 2])


# ------------------------------------------------------- explode integration

def test_explode_archives_rar():
    """Archive rows fan out one row per member with path-join urls
    (dupe.go:665 parity); unsupported rars keep the row + archive_error."""
    ok = build_rar5(MEMBERS)
    compressed = build_rar5([("x.txt", b"data")], method=1)
    batch = pa.table(
        {
            "url": ["bucket/good.rar", "bucket/packed.rar", "bucket/plain.txt"],
            "html": [ok, compressed, b"not an archive"],
        }
    )
    out = explode_archives(batch).to_pydict()
    good = [u for u in out["url"] if u.startswith("bucket/good.rar/")]
    assert good == ["bucket/good.rar/" + n for n, _ in MEMBERS]
    i = out["url"].index("bucket/packed.rar")
    assert out["archive_error"][i] and "UnsupportedRar" in out["archive_error"][i]
    assert out["content"][i] == compressed if "content" in out else True
    j = out["url"].index("bucket/plain.txt")
    assert out["archive_error"][j] is None
