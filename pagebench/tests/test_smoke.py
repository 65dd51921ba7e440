"""Each workload, untraced and traced, on a tiny corpus through its
output check; and the result line matches BENCHMARK.json."""

from __future__ import annotations

import json

import pytest

from pagebench import bench
from pagebench.workloads import LAYER_METRICS, WORKLOADS

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(LAYER_METRICS.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke(workload):
    detail, result = bench.run(workload, seed=3, seconds=0, trace=True,
                               root=ROOT, docs=400)
    assert detail["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["dupe.assign_rows" if workload != "pages_tiers"
                             else "tiers.kept_rows"]["value"] > 0


def test_untraced_result_line():
    detail, result = bench.run("pages_full", seed=4, seconds=0, trace=False,
                               root=ROOT, docs=400)
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["fingerprint"]["corpus_rows"] >= 400
