"""Driver-hash simulation for the correctness window.

`tools/check_oracle.py` canonicalizes both frames to STRINGS before
comparing, which hid the round-1..4 `simhash_pairs` red: DuckDB's
HUGEINT→float64 promotion produced value-identical-but-float oracle
columns whose driver-side hash could never match the engine's exact
uint64s. This checker compares the way the driver plausibly hashes:
sort columns by name, sort rows, then require NUMERIC-EXACT equality
with dtype-kind agreement (int-kind vs float-kind mismatch fails even
when `str()` agrees). Floats compare with rtol=1e-9 (the driver is
assumed to round; a kind mismatch is still an error because hashing a
float64 1.0 differs from an int64 1).

Usage: python tools/strict_window_check.py [sf_dir] [--all]

Checks the first 50 `queries()` entries (the driver's window); `--all`
checks every entry.
"""

from __future__ import annotations

import numbers
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _sort_key(v) -> tuple:
    """Row-sort key that orders numbers by VALUE whatever their dtype (int
    1 and float 1.0 tie; Python compares int with float exactly), puts
    NaN/None after them and orders everything else by its string."""
    if isinstance(v, numbers.Real):
        if v != v:  # NaN
            return (1, 0)
        return (0, int(v) if isinstance(v, numbers.Integral) else float(v))
    if v is None or v is pd.NA or v is pd.NaT:
        return (1, 0)
    return (2, str(v))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True)
    # itertuples keeps each column's own dtype (a row Series would upcast
    # a uint64 next to a float column to float64)
    keys = [tuple(map(_sort_key, row)) for row in df.itertuples(index=False)]
    order = sorted(range(len(df)), key=keys.__getitem__)
    return df.iloc[order].reset_index(drop=True)


def kind(s: pd.Series) -> str:
    if pd.api.types.is_float_dtype(s):
        return "f"
    if pd.api.types.is_integer_dtype(s):
        return "i"
    if pd.api.types.is_bool_dtype(s):
        return "b"
    return "o"


def compare(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    errs = []
    if list(got.columns) != list(exp.columns):
        return [f"columns {list(got.columns)} != {list(exp.columns)}"]
    if len(got) != len(exp):
        return [f"rows {len(got)} != {len(exp)}"]
    for c in got.columns:
        kg, ke = kind(got[c]), kind(exp[c])
        if {kg, ke} == {"i", "f"}:
            errs.append(
                f"col {c}: dtype KIND mismatch engine={got[c].dtype} "
                f"oracle={exp[c].dtype} (driver hash would differ even on "
                "equal values)"
            )
            continue
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        if kg == "f" or ke == "f":
            if not np.allclose(
                a.astype(float), b.astype(float), rtol=1e-9, equal_nan=True
            ):
                errs.append(f"col {c}: float values differ")
        elif kg == "i" and ke == "i":
            if not (a.astype(np.uint64) == b.astype(np.uint64)).all() and not (
                a.astype(np.int64, copy=False) == b.astype(np.int64, copy=False)
            ).all():
                errs.append(f"col {c}: int values differ")
        else:
            if not (pd.Series(a).astype(str) == pd.Series(b).astype(str)).all():
                errs.append(f"col {c}: values differ (string compare)")
    return errs


def main(sf_dir: str) -> int:
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, oracles = e.queries(), e.oracle_sql()
    window = list(qs) if "--all" in sys.argv else list(qs)[:50]
    failures = 0
    for name in window:
        if name not in oracles:
            print(f"ok?  {name}: rows-only by design")
            continue
        try:
            got = canon(to_pandas(qs[name](sf_dir)))
            exp = canon(con.execute(oracles[name]).fetchdf())
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        errs = compare(name, got, exp)
        if errs:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(errs))
        else:
            print(f"PASS {name}: rows={len(got)}")
    print(f"\n{len(window) - failures}/{len(window)} window entries strict-pass")
    return 1 if failures else 0


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    sys.exit(main(args[0] if args else "/root/testdata/sf0.01"))
