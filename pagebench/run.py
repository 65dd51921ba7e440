"""Command line of the benchmark; run it from the repository root::

    python3 pagebench/run.py --workload pages_full --seed 1 --seconds 28 --trace 0

Prints a detail line (host fingerprint, set-up breakdown, per-iteration
times, problems found) and then the result line. Exits with code 2 and
prints no result when the engine's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

T_START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from pagebench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "dupers_ray" / "__init__.py").is_file():
        print(f"pagebench: no dupers_ray package under {ROOT}", file=sys.stderr)
        return 2
    from pagebench import bench

    detail, result = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT, t_start=T_START)
    print(json.dumps(detail, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
