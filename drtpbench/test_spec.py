"""BENCHMARK.json lists exactly the metrics run.py emits.

Run with ``python3 -m pytest drtpbench/test_spec.py`` from the root of
a checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402
import run  # noqa: E402

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert listed == run.END_TO_END


def test_per_layer_metrics_match():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == run.PER_LAYER


def test_tracer_metrics_are_listed():
    emitted = set(ledger.Tracer().metrics())
    assert emitted <= set(run.PER_LAYER), emitted - set(run.PER_LAYER)


def test_workloads_are_runnable():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(run.WORKLOADS)
    assert len(listed) >= 2


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok", name)
