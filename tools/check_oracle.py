"""Local simulation of the driver's correctness gate.

Runs every ``queries()`` entry at a given sf_dir and compares row count,
column names, and order-insensitive values against ``oracle_sql()`` via
DuckDB. Usage:

  python tools/check_oracle.py [sf_dir] [name ...] [--sf=DIR] [--only a,b]

A positional argument that is a directory is the sf_dir (default: the
sf0.01 test data); any other positional argument is a query name, and
names (or ``--only``) restrict the run to those entries.
``--never-driver-checked`` lists registry entries no driver round checked.
"""

from __future__ import annotations

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


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def never_driver_checked() -> list[str]:
    """Registry names with no row in any CORRECTNESS_r*.json (VERDICT r3 #9).

    The driver verifies only the first 50 ``queries()`` entries per round;
    this ledger makes each round's rotation mechanical: put these names (plus
    any fixed-but-red ones) at the front of the registry.
    """
    import glob
    import json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    checked: set[str] = set()
    for f in sorted(glob.glob(os.path.join(root, "CORRECTNESS_r*.json"))):
        checked |= set(json.load(open(f)))

    import __ray_entry__ as e

    return [name for name in e.queries() if name not in checked]


def main(sf_dir: str, only: set[str] | None = None) -> int:
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
    if only:
        unknown = only - set(qs)
        if unknown:
            print(f"unknown query names: {sorted(unknown)}")
            return 1
        qs = {k: v for k, v in qs.items() if k in only}
    failures = 0
    for name, fn in qs.items():
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok?  {name}: rows={len(got)} (no oracle — rows-only check)")
            continue
        try:
            exp = canon(con.execute(oracles[name]).fetchdf())
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(exp.columns)}")
            failures += 1
            continue
        if len(got) != len(exp):
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            failures += 1
            continue
        # order-insensitive value compare
        eq = True
        for c in got.columns:
            a, b = got[c].to_numpy(), exp[c].to_numpy()
            if pd.api.types.is_float_dtype(got[c]) or pd.api.types.is_float_dtype(exp[c]):
                if not np.allclose(a.astype(float), b.astype(float), rtol=1e-6, equal_nan=True):
                    eq = False
            elif not (pd.Series(a).astype(str) == pd.Series(b).astype(str)).all():
                eq = False
        if eq:
            print(f"PASS {name}: rows={len(got)}")
        else:
            print(f"FAIL {name}: value mismatch")
            for c in got.columns:
                if not (got[c].astype(str) == exp[c].astype(str)).all():
                    bad = (got[c].astype(str) != exp[c].astype(str)).idxmax()
                    print(f"  col {c}: first diff @{bad}: got={got[c][bad]!r} exp={exp[c][bad]!r}")
            failures += 1
    print(f"\n{len(qs) - failures}/{len(qs)} queries pass")
    return 1 if failures else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--never-driver-checked" in args:
        names = never_driver_checked()
        print("\n".join(names))
        print(f"# {len(names)} registry entries never driver-checked", file=sys.stderr)
        sys.exit(0)
    only: set[str] | None = None
    if "--only" in args:
        i = args.index("--only")
        only = set(args[i + 1].split(","))
        args = args[:i] + args[i + 2:]
    args = [a.split("=", 1)[1] if a.startswith("--sf=") else a for a in args]
    names = {a for a in args if not os.path.isdir(a)}
    if names:
        only = (only or set()) | names
        args = [a for a in args if a not in names]
    sys.exit(main(args[0] if args else "/root/testdata/sf0.01", only))
