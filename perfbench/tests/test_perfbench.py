"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import run_ops  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, seed=3, seconds=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric(workload):
    result = bench(workload, trace=0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units("per_layer")
    counts = [
        {k: v["value"] for k, v in run["metrics"].items() if v["unit"] == "count"}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_time_within_op_wall(workload, tmp_path):
    wl = WORKLOADS[workload]
    state = wl.setup(tmp_path)
    block = wl.block(state, random.Random(5))
    tracer = Tracer()
    latencies, _, failed, _ = run_ops(wl, state, [block], tracer=tracer)
    assert failed == 0
    per_op = tracer.layer_self_by_op()
    assert set(per_op) == set(range(len(latencies)))
    for op, layers in per_op.items():
        assert all(v >= 0 for v in layers.values())
        assert sum(layers.values()) <= latencies[op]
