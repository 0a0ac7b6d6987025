"""BENCHMARK.json names exactly the metrics bench/run.py reports."""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert list(workloads.WORKLOADS) == list(run.NAMES)


def test_end_to_end_metrics_match():
    result = {"relative": [10.0], "max_abs_error": 1e-12}
    metrics = run.end_to_end(result, [0.5])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }


def test_per_layer_metrics_match():
    layers = spans.layer_metrics([])
    result = {"layers": [layers], "walls": {"plain": [1.0], "traced": [1.1]}}
    metrics = run.per_layer(result)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
