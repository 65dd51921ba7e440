"""Local simulation of the driver's correctness gate.

Runs every ``queries()`` entry at a given sf_dir and compares it with
``oracle_sql()`` via DuckDB the way the driver plausibly hashes results:
columns sorted by name, rows sorted by value, then NUMERIC-EXACT equality
with dtype-kind agreement — an int column against a float one fails even
when ``str()`` agrees (DuckDB's HUGEINT→float64 promotion once hid a
``simhash_pairs`` red from a string-canonicalizing compare). Floats
compare with rtol=1e-9. After each entry it prints the entry's wall
seconds and the checker's peak RSS so far (the DuckDB oracles run in this
process). Usage:

  python tools/check_oracle.py [sf_dir] [name ...] [--sf=DIR] [--only a,b]

A positional argument that is a directory is the sf_dir (default: the
sf0.01 test data); any other positional argument is a query name, and
names (or ``--only``) restrict the run to those entries. ``--all`` (the
default) checks every entry. ``--never-driver-checked`` lists registry
entries no driver round checked.
"""

from __future__ import annotations

import numbers
import os
import resource
import sys
import time

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


def compare(got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    if list(got.columns) != list(exp.columns):
        return [f"columns {list(got.columns)} != {list(exp.columns)}"]
    if len(got) != len(exp):
        return [f"rows {len(got)} != {len(exp)}"]
    errs = []
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
            sa, sb = pd.Series(a).astype(str), pd.Series(b).astype(str)
            if not (sa == sb).all():
                bad = int((sa != sb).idxmax())
                errs.append(f"col {c}: values differ, first @{bad}: "
                            f"got={sa[bad]!r} exp={sb[bad]!r}")
    return errs


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


def _check(name: str, fn, oracle: str | None, sf_dir: str, con) -> str:
    """One entry's verdict line (without timing)."""
    try:
        got = canon(to_pandas(fn(sf_dir)))
    except Exception as ex:  # noqa: BLE001
        return f"FAIL {name}: query raised {type(ex).__name__}: {ex}"
    if oracle is None:
        return f"ok?  {name}: rows={len(got)} (no oracle — rows-only check)"
    try:
        exp = canon(con.execute(oracle).fetchdf())
    except Exception as ex:  # noqa: BLE001
        return f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}"
    errs = compare(got, exp)
    if errs:
        return f"FAIL {name}: " + "; ".join(errs)
    return f"PASS {name}: rows={len(got)}"


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
    t_all = time.perf_counter()
    for name, fn in qs.items():
        t0 = time.perf_counter()
        line = _check(name, fn, oracles.get(name), sf_dir, con)
        failures += line.startswith("FAIL")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{line}  [{time.perf_counter() - t0:.1f}s, "
              f"checker peak RSS {peak_mb:.0f} MB]", flush=True)
    print(f"\n{len(qs) - failures}/{len(qs)} queries pass "
          f"in {time.perf_counter() - t_all:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--all"]
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
