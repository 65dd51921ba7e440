"""Seeded page corpus and signature store, keyed and published atomically.

An entry ``<cache>/<key>/`` holds ``pages/`` (multi-file Parquet),
``truth.parquet`` and, for the incremental workload, ``store/``: the
fused signature table of two thirds of the corpus. The key covers every
input that defines the entry: corpus size, seed, file count, the
generator's mix parameters, the Python and pyarrow versions, and source
hashes of the generator and (for the store) the whole engine package. An
entry is built in a staging directory and renamed into place only after
its ``_COMPLETE`` manifest is written, so a crash never leaves a partial
entry that looks complete.

Every run builds its inputs again, because set-up time is a measured
metric and must not depend on which runs came before. When a complete
entry already exists, the fresh build must match its content digests:
the same seed has to give the same inputs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import platform
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

CORPUS_SOURCES = ("dupers_ray/synth.py", "dupers_ray/stages/extract.py")
KEEP_ENTRIES = 3  # complete entries kept; older ones are evicted


@dataclass(frozen=True)
class CorpusSpec:
    n: int
    seed: int
    files: int = 16
    store: bool = False


def _hash_files(root: Path, rel_paths) -> str:
    h = hashlib.sha256()
    for rel in sorted(rel_paths):
        h.update(rel.encode())
        h.update((root / rel).read_bytes())
    return h.hexdigest()


def _engine_sources(root: Path) -> list[str]:
    return sorted(
        str(p.relative_to(root)) for p in (root / "dupers_ray").rglob("*.py")
    )


def cache_key(root: Path, spec: CorpusSpec) -> str:
    from dupers_ray.synth import synth_pages

    mix = {
        name: p.default
        for name, p in inspect.signature(synth_pages).parameters.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    fields = {
        "spec": asdict(spec),
        "mix": mix,
        "python": platform.python_version(),
        "pyarrow": pa.__version__,
        "corpus_src": _hash_files(root, CORPUS_SOURCES),
        "bench_src": _hash_files(root, ["pagebench/corpus.py"]),
    }
    if spec.store:
        fields["store_src"] = _hash_files(root, _engine_sources(root))
    blob = json.dumps(fields, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def table_digest(*tables: pa.Table) -> str:
    """Content digest of Arrow tables (schema and values, chunking-blind)."""
    h = hashlib.sha256()
    for t in tables:
        sink = pa.BufferOutputStream()
        t = t.combine_chunks()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        h.update(sink.getvalue())
    return h.hexdigest()


def build_corpus(stage: Path, spec: CorpusSpec) -> tuple[float, str]:
    """Generate and write the corpus into ``stage``; returns (seconds, digest).
    Only the generation and the Parquet writes are timed."""
    from dupers_ray.synth import write_pages_parquet

    t0 = time.perf_counter()
    res = write_pages_parquet(str(stage), n=spec.n, seed=spec.seed,
                              files=spec.files)
    seconds = time.perf_counter() - t0
    return seconds, table_digest(res.pages, res.truth)


def two_thirds(t: pa.Table) -> pa.Table:
    """Rows whose url node id is not divisible by 3: the stored part of
    the incremental workload's corpus (the same split the engine's
    incremental tests and ``bench.py`` use)."""
    import numpy as np

    from dupers_ray.functions.hashing import node_ids

    nodes = node_ids([str(u) for u in t.column("url").to_pylist()])
    return t.filter(pa.array(nodes % np.uint64(3) != 0))


def build_store(stage: Path) -> tuple[float, str]:
    """Write the signature store of two thirds of ``stage/pages`` into
    ``stage/store``; needs a running Ray session. Returns (seconds, digest)."""
    import ray.data as rd

    from dupers_ray.pipelines.near_dedup import minhash_signatures

    t0 = time.perf_counter()
    pages = rd.read_parquet(str(stage / "pages"), columns=["url", "text"])
    minhash_signatures(
        pages.map_batches(two_thirds, batch_format="pyarrow"),
        with_digests=True,
    ).write_parquet(str(stage / "store"))
    seconds = time.perf_counter() - t0
    store = pq.read_table(str(stage / "store")).sort_by("url")
    return seconds, table_digest(store)


def publish(stage: Path, final: Path, manifest: dict) -> list[str]:
    """Mark ``stage`` complete and rename it to ``final``. If a complete
    entry is already there, keep it and return a problem for every digest
    that differs from the fresh build."""
    (stage / "_COMPLETE").write_text(json.dumps(manifest, sort_keys=True))
    existing = final / "_COMPLETE"
    if not existing.is_file() and final.exists():
        shutil.rmtree(final)  # left by a crash before its marker was written
    if not existing.is_file():
        try:
            os.rename(stage, final)
            return []
        except OSError:
            if not existing.is_file():
                raise
    old = json.loads(existing.read_text())["digests"]
    shutil.rmtree(stage)
    os.utime(existing)  # in use again: last in line for eviction
    return [
        f"{name}: fresh build digest {digest[:12]} differs from the cached "
        f"{old.get(name, '')[:12]} for the same key"
        for name, digest in manifest["digests"].items()
        if old.get(name) != digest
    ]


def evict(cache: Path) -> None:
    """Delete all but the KEEP_ENTRIES most recently used entries."""
    entries = sorted(
        (p for p in cache.iterdir() if (p / "_COMPLETE").is_file()),
        key=lambda p: (p / "_COMPLETE").stat().st_mtime,
    )
    for p in entries[:-KEEP_ENTRIES]:
        shutil.rmtree(p, ignore_errors=True)
