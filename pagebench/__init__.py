"""Benchmark of the near-duplicate engine over generated web-page corpora.

Run one workload from the repository root::

    python3 pagebench/run.py --workload pages_full --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host fingerprint and per-iteration details.

Modules:

- ``corpus``: builds the seeded corpus and the signature store, keyed and
  published atomically;
- ``checks``: verifies pipeline outputs against the corpus's planted truth;
- ``workloads``: the three workloads, untraced and traced;
- ``host``: host fingerprint and process-tree RSS sampling;
- ``bench``: set-up, the closed measuring loop and the result line.
"""
