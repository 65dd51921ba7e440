"""Pipeline configuration dataclasses.

The reference has one global config object (``pkg/dupe/dupe.go:71-78``
``Config`` = Scanner + Debug/Quiet/Yes/Test flags). The engine splits that
into small frozen dataclasses, one per concern, so each stage's parameters
are explicit and hashable (they end up in lineage manifests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import json


@dataclass(frozen=True)
class ShingleConfig:
    """Tokenize + k-shingle settings for MinHash/SimHash/Jaccard.

    ``k`` word-shingles over a lowercased ``\\w+`` tokenization. The
    reference hashes whole files (pkg/dupe/parse/parse.go:217-231); shingles
    are the near-dup generalization required by BASELINE.json:north_rule.
    """

    k: int = 5                  # tokens per shingle
    lowercase: bool = True
    token_pattern: str = r"\w+"


@dataclass(frozen=True)
class MinHashConfig:
    """MinHash signature + LSH banding parameters.

    num_perm = bands * rows. Defaults (128 = 32 x 4) give an LSH S-curve
    threshold of (1/32)**(1/4) ~= 0.42, i.e. high recall at Jaccard >= 0.6
    and near-certain recall at >= 0.8; precision is restored by the verify
    stage (``jaccard_threshold``).
    """

    num_perm: int = 128
    bands: int = 32
    rows: int = 4
    seed: int = 42
    jaccard_threshold: float = 0.6   # signature-estimated Jaccard to keep a pair
    # "oph": one-permutation MinHash with rotation densification (one pass
    # over shingles — ~50x faster than num_perm universal hashes; published
    # method: Li/Owen/Zhang 2012, Shrivastava&Li 2014). "universal": classic
    # (a*x+b) mod 2^31-1 family, kept as the cross-validation reference.
    method: str = "oph"
    # Signature STORAGE width. "u4": full uint32 components (the oracle-
    # restated default). "u2": store the low-uint16 folds — halves the
    # signature table, the index scan and the verify gathers (the fold16
    # verify compares uint16s either way, so verify is bit-identical);
    # band buckets hash the folds, which can only ADD candidates (full
    # equality implies fold equality), and every added candidate still
    # passes the same fold16 verify gate — a strict-superset recall knob
    # for bandwidth-bound deployments (BASELINE.md scaling budget).
    sig_store: str = "u4"

    def __post_init__(self) -> None:
        if self.bands * self.rows != self.num_perm:
            raise ValueError(
                f"bands*rows must equal num_perm ({self.bands}*{self.rows} != {self.num_perm})"
            )
        if self.method == "oph" and (self.num_perm & (self.num_perm - 1)) != 0:
            raise ValueError("oph requires num_perm to be a power of two")
        if self.method not in ("oph", "universal"):
            raise ValueError(f"unknown minhash method {self.method!r}")
        if self.sig_store not in ("u4", "u2"):
            raise ValueError(f"unknown sig_store {self.sig_store!r}")


@dataclass(frozen=True)
class SimHashConfig:
    bits: int = 64
    hamming_threshold: int = 3       # max differing bits to call near-dup
    bands: int = 4                   # split 64 bits into bands for LSH-style bucketing
    seed: int = 42


@dataclass(frozen=True)
class DedupConfig:
    """End-to-end dupe pipeline config (exact + near)."""

    shingle: ShingleConfig = field(default_factory=ShingleConfig)
    minhash: MinHashConfig = field(default_factory=MinHashConfig)
    id_col: str = "url"
    text_col: str = "text"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)
