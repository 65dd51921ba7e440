"""Adversarial-input robustness for the archive sniffers/decoders —
the engine's analogue of the reference's fuzz targets
(/root/reference/pkg/dupe/parse/parse_fuzz.go:38-92 fuzzes Checksum /
MIME / Extension; internal/archive/archive_fuzz.go:12-80 fuzzes the
MIME sniffer with arbitrary bytes).

Contract under ANY input bytes:
- ``sniff_mime`` never raises; returns None or a known MIME string;
- each from-scratch decoder (7z / rar5 / zstd) either returns members
  or raises a typed ValueError-family error — no hangs, no segfault-y
  surprises, no silent truncation to wrong data (CRC-checked formats);
- ``explode_archives`` NEVER raises and never drops a row: corrupt
  archive rows are kept verbatim with ``archive_error`` set.
"""
from __future__ import annotations

import lzma
import os
import random
import zlib

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dupers_ray.sources.archive import (
    EXTRACTABLE,
    explode_archives,
    sniff_mime,
)
from dupers_ray.sources.rar5 import read_rar5_members
from dupers_ray.sources.sevenzip import read_7z_members
from dupers_ray.sources.zstd_codec import zstd_decompress
from tests.test_reference_parity import REF

_KNOWN_MIMES = EXTRACTABLE | {None}

REF_7Z = os.path.join(REF, "randomfiles.7z")
# the reference corpus is not shipped with this repo (the same guard as
# tests/test_reference_parity.py)
needs_ref_7z = pytest.mark.skipif(
    not os.path.exists(REF_7Z), reason="reference 7z fixture not present"
)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=600), name=st.text(max_size=20))
def test_sniff_mime_total(data, name):
    mime = sniff_mime(data, name)
    assert mime in _KNOWN_MIMES


def _mutations(blob: bytes, rng: random.Random, n: int = 40):
    """Truncations, bit flips, and splices of a valid fixture."""
    yield b""
    yield blob[: len(blob) // 2]
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:  # truncate
            yield blob[: rng.randrange(len(blob) + 1)]
        elif kind == 1:  # flip a random bit
            i = rng.randrange(len(blob))
            m = bytearray(blob)
            m[i] ^= 1 << rng.randrange(8)
            yield bytes(m)
        else:  # splice random garbage into the middle
            i = rng.randrange(len(blob))
            yield blob[:i] + rng.randbytes(rng.randrange(1, 32)) + blob[i:]


def _fixture_7z() -> bytes:
    return open(REF_7Z, "rb").read()


def _fixture_rar() -> bytes:
    from tests.test_rar5 import MEMBERS, build_rar5

    return build_rar5(MEMBERS)


def _fixture_zstd() -> bytes:
    return open("tests/data/zstd/members.tar.zst", "rb").read()


@pytest.mark.parametrize(
    "decoder,fixture",
    [
        pytest.param(read_7z_members, _fixture_7z, marks=needs_ref_7z),
        (read_rar5_members, _fixture_rar),
        (zstd_decompress, _fixture_zstd),
    ],
    ids=["7z", "rar5", "zstd"],
)
def test_decoder_survives_mutations(decoder, fixture):
    rng = random.Random(1234)
    blob = fixture()
    for mutant in _mutations(blob, rng):
        try:
            decoder(mutant)
        except Exception as ex:  # noqa: BLE001 — typed failure is the contract
            assert isinstance(ex, (ValueError, EOFError, lzma.LZMAError,
                                   zlib.error, OSError)), type(ex)


@needs_ref_7z
def test_explode_archives_never_drops_rows():
    rng = random.Random(99)
    rows: list[tuple[str, bytes]] = [("plain.html", b"<html>hi</html>")]
    for i, mutant in enumerate(_mutations(_fixture_7z(), rng, n=12)):
        rows.append((f"m{i}.7z", mutant))
    for i, mutant in enumerate(_mutations(_fixture_rar(), rng, n=12)):
        rows.append((f"r{i}.rar", mutant))
    for i, mutant in enumerate(_mutations(_fixture_zstd(), rng, n=12)):
        rows.append((f"z{i}.zst", mutant))
    # pure-garbage rows wearing archive magics
    for i, magic in enumerate(
        [b"PK\x03\x04", b"\x1f\x8b", b"7z\xbc\xaf\x27\x1c", b"BZh",
         b"\xfd7zXZ\x00", b"Rar!\x1a\x07\x01\x00", b"\x28\xb5\x2f\xfd"]
    ):
        rows.append((f"g{i}.bin", magic + rng.randbytes(64)))

    batch = pa.table({
        "url": [u for u, _ in rows],
        "html": pa.array([b for _, b in rows], pa.binary()),
    })
    out = explode_archives(batch)  # must not raise
    urls = out.column("url").to_pylist()
    errs = out.column("archive_error").to_pylist()
    members = out.column("is_member").to_pylist()
    covered = set()
    for u, m in zip(urls, members):
        covered.add(u.split("/", 1)[0] if m else u)
    # every input row is represented: passed through, exploded, or kept
    # with archive_error — nothing silently dropped
    assert covered == {u for u, _ in rows}
    for u, e, m in zip(urls, errs, members):
        if e is not None:
            assert not m  # error rows are the original archive row


def test_compressed_rar_member_is_declared_boundary():
    """RAR-compressed members (method != 0): the compression algorithm is
    proprietary, so the archive row must be KEPT with a typed
    archive_error — the documented S6 boundary (round-2 VERDICT item 9),
    never silently dropped or wrongly extracted."""
    from tests.test_rar5 import build_rar5

    blob = build_rar5([("doc.txt", b"pretend-compressed-bytes")], method=3)
    with pytest.raises(ValueError):
        read_rar5_members(blob)

    batch = pa.table({
        "url": ["a.rar"],
        "html": pa.array([blob], pa.binary()),
    })
    out = explode_archives(batch)
    assert out.column("url").to_pylist() == ["a.rar"]
    assert out.column("html").to_pylist() == [blob]
    err = out.column("archive_error").to_pylist()[0]
    assert err is not None and "UnsupportedRar" in err
