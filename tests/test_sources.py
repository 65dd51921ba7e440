"""CSV round-trip (reference format parity) + archive explode tests."""

from __future__ import annotations

import gzip
import io
import os
import tarfile
import zipfile

import pyarrow as pa
import pytest
import ray.data as rd

from dupers_ray.sources.archive import classify_mime, explode_archives, sniff_mime
from dupers_ray.sources.csv_io import CSVFormatError, export_csv, import_csv
from dupers_ray.stages.digest import digest_dataset

from tests.test_reference_parity import REF as REF_TESTDATA

# the reference corpus is not shipped with this repo (the same guard as
# tests/test_reference_parity.py)
needs_ref_7z = pytest.mark.skipif(
    not os.path.exists(os.path.join(REF_TESTDATA, "randomfiles.7z")),
    reason="reference 7z fixture not present",
)


def test_csv_roundtrip(tmp_path):
    ds = digest_dataset(
        rd.from_items(
            [{"url": "a/x.txt", "text": "hello"}, {"url": "a/y.txt", "text": "world"}]
        )
    )
    p = str(tmp_path / "export.csv")
    n = export_csv(ds, "bucket1", p)
    assert n == 2
    head = open(p).readline().strip()
    assert head == "sha256_sum,path#bucket1"  # io.go:106-117 format
    bucket, back = import_csv(p)
    assert bucket == "bucket1"
    df = back.to_pandas().sort_values("url").reset_index(drop=True)
    orig = ds.to_pandas().sort_values("url").reset_index(drop=True)
    assert df["url"].tolist() == orig["url"].tolist()
    assert df["digest"].tolist() == orig["digest"].tolist()
    assert (df["bucket"] == "bucket1").all()


def test_csv_import_rejects_bad(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wrong_header\nabc,def\n")
    with pytest.raises(CSVFormatError):
        import_csv(str(p))
    p2 = tmp_path / "rows.csv"
    p2.write_text(
        "sha256_sum,path#b\n"
        + "zz" * 32 + ",badhex\n"            # invalid hex → rejected
        + "ab" * 32 + ",good.txt\n"
        + "ab" * 16 + ",short.txt\n"          # wrong length → rejected
    )
    bucket, ds = import_csv(str(p2))
    assert ds.count() == 1
    assert ds.take(1)[0]["url"] == "good.txt"


def _zip_bytes(files: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, data in files.items():
            z.writestr(name, data)
    return buf.getvalue()


def _tgz_bytes(files: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as t:
        for name, data in files.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            t.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def test_sniff_mime():
    assert sniff_mime(_zip_bytes({"a": b"1"})) == "application/zip"
    assert sniff_mime(gzip.compress(b"data")) == "application/gzip"
    assert sniff_mime(b"plain text", "x.txt") is None
    assert sniff_mime(None, "x.zip") == "application/zip"  # extension fallback
    assert sniff_mime(b"", "x.7z") == "application/x-7z-compressed"


def test_explode_archives():
    zb = _zip_bytes({"inner/a.txt": b"AAA", "b.txt": b"BBB"})
    tb = _tgz_bytes({"c.txt": b"CCC"})
    t = pa.table(
        {
            "url": ["arch.zip", "arch.tgz", "plain.txt"],
            "html": pa.array([zb, tb, b"notarchive"], pa.binary()),
        }
    )
    out = explode_archives(t)
    rows = dict(zip(out.column("url").to_pylist(), out.column("html").to_pylist()))
    # path-join keys (dupe.go:665 parity)
    assert rows["arch.zip/inner/a.txt"] == b"AAA"
    assert rows["arch.zip/b.txt"] == b"BBB"
    assert rows["arch.tgz/c.txt"] == b"CCC"
    assert rows["plain.txt"] == b"notarchive"
    m = dict(zip(out.column("url").to_pylist(), out.column("is_member").to_pylist()))
    assert m["arch.zip/b.txt"] is True and m["plain.txt"] is False


def test_explode_corrupt_archive_kept():
    t = pa.table(
        {"url": ["bad.zip"], "html": pa.array([b"PK\x03\x04corrupt"], pa.binary())}
    )
    out = explode_archives(t)
    assert out.num_rows == 1
    assert out.column("archive_error").to_pylist()[0] is not None


def test_nested_archive_not_walked():
    inner_zip = _zip_bytes({"deep.txt": b"DDD"})
    outer = _zip_bytes({"nested.zip": inner_zip})
    t = pa.table({"url": ["o.zip"], "html": pa.array([outer], pa.binary())})
    out = explode_archives(t)
    # one member row: the inner zip as opaque bytes (dupe.go:603 parity)
    assert out.column("url").to_pylist() == ["o.zip/nested.zip"]
    assert out.column("html").to_pylist()[0] == inner_zip


def test_classify_mime_batch():
    t = pa.table(
        {
            "url": ["a.zip", "b.txt"],
            "html": pa.array([_zip_bytes({"x": b"1"}), b"hi"], pa.binary()),
        }
    )
    out = classify_mime(t)
    assert out.column("mime").to_pylist() == ["application/zip", None]


# ------------------------------------------------------------------ 7z reader

def _write_7z_copy(
    files: list[tuple[str, bytes]],
    *,
    folder_crc: bool = False,
    substream_crc: bool = False,
) -> bytes:
    """Minimal 7z WRITER (Copy codec, one folder, unencoded header) — test
    harness for the from-scratch reader in sources/sevenzip.py; exercises
    multi-file substream splitting and empty-file bit vectors. With
    ``folder_crc`` the folder CRC is defined in UnpackInfo; with
    ``substream_crc`` a kCRC section is written in SubStreamsInfo covering
    exactly the streams whose CRC is still unknown (7zFormat.txt: a
    1-stream folder with a defined folder CRC contributes none)."""
    import struct
    import zlib

    def num(v: int) -> bytes:
        assert v < 0x80  # single-byte form is enough for test archives
        return bytes([v])

    nonempty = [(n, b) for n, b in files if b]
    empty = [(n, b) for n, b in files if not b]
    body = b"".join(b for _, b in nonempty)

    hdr = bytearray()
    hdr += num(0x01)  # kHeader
    if nonempty:
        hdr += num(0x04)  # kMainStreamsInfo
        hdr += num(0x06) + num(0) + num(1)  # kPackInfo pos=0 numPack=1
        hdr += num(0x09) + num(len(body)) + num(0x00)  # kSize, kEnd
        hdr += num(0x07)  # kUnpackInfo
        hdr += num(0x0B) + num(1) + b"\x00"  # kFolder, 1 folder, internal
        hdr += num(1) + b"\x01" + b"\x00"  # 1 coder: idsize=1, codec=Copy
        hdr += num(0x0C) + num(len(body))  # kCodersUnpackSize
        if folder_crc:
            hdr += num(0x0A) + b"\x01" + struct.pack("<I", zlib.crc32(body))
        hdr += num(0x00)  # kEnd UnpackInfo
        hdr += num(0x08)  # kSubStreamsInfo
        hdr += num(0x0D) + num(len(nonempty))  # kNumUnpackStream
        if len(nonempty) > 1:
            hdr += num(0x09)  # kSize: n-1 explicit sizes
            for _, b in nonempty[:-1]:
                hdr += num(len(b))
        if substream_crc:
            known = len(nonempty) == 1 and folder_crc
            hdr += num(0x0A) + b"\x01"  # kCRC, allAreDefined
            if not known:
                for _, b in nonempty:
                    hdr += struct.pack("<I", zlib.crc32(b))
        hdr += num(0x00)  # kEnd SubStreams
        hdr += num(0x00)  # kEnd MainStreams
    # kFilesInfo — order: empty-stream files carry no substream; keep
    # non-empty files FIRST so substream order matches file order
    ordered = nonempty + empty
    hdr += num(0x05) + num(len(ordered))
    if empty:
        bits = bytearray()
        acc, nbits = 0, 0
        for _n, b in ordered:
            acc = (acc << 1) | (0 if b else 1)
            nbits += 1
            if nbits == 8:
                bits.append(acc)
                acc, nbits = 0, 0
        if nbits:
            bits.append(acc << (8 - nbits))
        hdr += num(0x0E) + num(len(bits)) + bytes(bits)  # kEmptyStream
        ebits = bytearray()
        acc, nbits = 0, 0
        for _ in empty:
            acc = (acc << 1) | 1  # all our empty streams are empty FILES
            nbits += 1
            if nbits == 8:
                ebits.append(acc)
                acc, nbits = 0, 0
        if nbits:
            ebits.append(acc << (8 - nbits))
        hdr += num(0x0F) + num(len(ebits)) + bytes(ebits)  # kEmptyFile
    names = b"\x00" + "".join(n + "\x00" for n, _ in ordered).encode("utf-16-le")
    hdr += num(0x11) + num(len(names)) + names  # kName
    hdr += num(0x00)  # kEnd FilesInfo
    hdr += num(0x00)  # kEnd Header

    hdr = bytes(hdr)
    nh_crc = zlib.crc32(hdr)
    start = struct.pack("<QQI", len(body), len(hdr), nh_crc)
    start_crc = zlib.crc32(start)
    return (b"7z\xbc\xaf\x27\x1c" + b"\x00\x04" + struct.pack("<I", start_crc)
            + start + body + hdr)


@needs_ref_7z
def test_7z_reference_fixture_parity():
    """Read7Zip conformance (dupe.go:648-693): the reference's own fixture
    must extract, and its single member must be byte-identical to the
    sibling randomfiles.tar.xz file."""
    from dupers_ray.sources.sevenzip import read_7z_members

    data = open(os.path.join(REF_TESTDATA, "randomfiles.7z"), "rb").read()
    members = read_7z_members(data)
    assert [n for n, _ in members] == ["randomfiles.tar.xz"]
    ref = open(os.path.join(REF_TESTDATA, "randomfiles.tar.xz"), "rb").read()
    assert members[0][1] == ref


def test_7z_multifile_and_empty():
    from dupers_ray.sources.sevenzip import read_7z_members

    files = [("a.txt", b"alpha"), ("dir/b.bin", b"\x00\x01\x02" * 10),
             ("zero.txt", b""), ("c.txt", b"gamma")]
    arc = _write_7z_copy(files)
    got = dict(read_7z_members(arc))
    assert got == {n: b for n, b in files}


def test_7z_crc_sections():
    """SubStreamsInfo kCRC digest COUNT depends on folder CRCs defined in
    UnpackInfo: a 1-stream folder with a defined folder CRC gets no
    substream digest (7zFormat.txt). Mis-counting over-reads the header
    and rejects valid archives."""
    from dupers_ray.sources.sevenzip import read_7z_members

    # 1-stream folder WITH folder CRC: kCRC in SubStreamsInfo carries
    # ZERO digests — the over-count bug read a phantom bitvector here
    one = [("only.bin", b"payload-bytes")]
    arc = _write_7z_copy(one, folder_crc=True, substream_crc=True)
    assert dict(read_7z_members(arc)) == dict(one)

    # n-stream folder with folder CRC: every substream gets a digest
    many = [("a.txt", b"alpha"), ("b.txt", b"beta"), ("c.txt", b"gamma")]
    arc = _write_7z_copy(many, folder_crc=True, substream_crc=True)
    assert dict(read_7z_members(arc)) == dict(many)

    # no folder CRC: the single stream's digest IS present
    arc = _write_7z_copy(one, folder_crc=False, substream_crc=True)
    assert dict(read_7z_members(arc)) == dict(one)


@needs_ref_7z
def test_7z_explode_and_nested_tar_xz():
    """explode_archives walks 7z members one level (nested tar.xz member
    stays opaque, dupe.go:603 parity) with path-join keys (dupe.go:665)."""
    data = open(os.path.join(REF_TESTDATA, "randomfiles.7z"), "rb").read()
    t = pa.table({"url": ["x/randomfiles.7z"], "html": pa.array([data], pa.binary())})
    out = explode_archives(t)
    assert out.column("url").to_pylist() == ["x/randomfiles.7z/randomfiles.tar.xz"]
    assert out.column("is_member").to_pylist() == [True]
    assert out.column("archive_error").to_pylist() == [None]


def test_7z_unsupported_flows_through():
    """A 7z with an unsupported coder keeps the row + archive_error."""
    from dupers_ray.sources.sevenzip import Unsupported7z, read_7z_members

    arc = bytearray(_write_7z_copy([("a.txt", b"alpha")]))
    # corrupt the codec id byte (Copy 0x00 -> 0x99 fake coder). Header is at
    # offset 32+len(body): find the coder byte by rebuilding knowledge: use
    # the reader to prove it raises after the patch.
    idx = arc.rindex(b"\x01\x01\x00\x0c")  # numcoders=1, idsize=1, codec=00, kUnpackSize
    arc[idx + 2] = 0x99
    import pytest

    with pytest.raises(Unsupported7z):
        read_7z_members(bytes(arc))
    t = pa.table({"url": ["bad.7z"], "html": pa.array([bytes(arc)], pa.binary())})
    out = explode_archives(t)
    assert out.column("url").to_pylist() == ["bad.7z"]
    err = out.column("archive_error").to_pylist()[0]
    assert err and "Unsupported7z" in err
