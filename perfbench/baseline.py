"""Run every workload on ten seeds and summarise the spread.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each run is a separate process of run.py with --trace 0 for the
run_seconds of BENCHMARK.json, one after the other, on seeds 1 to 10.
For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median.  With
--out it also writes the runs, the summary and machine information as
JSON, the record later changes compare against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_once(workload, seed, seconds):
    """One run.py process; returns its result and its wall time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, wall = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            runs.append({"seed": seed, "attempted": result["attempted"], "wall_s": wall,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()) + f" (wall {wall:.1f} s)", flush=True)
        summary = {name: summarise([r["metrics"][name] for r in runs]) for name in bounds}
        for name, s in summary.items():
            flag = "  <-- above a third of the bound" if s["spread"] >= bounds[name] / 3 else ""
            print(f"  {name:<12} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        record["recorded"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
