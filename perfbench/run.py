"""Closed-loop benchmark of relfan's public API and in-process CLI.

    python3 perfbench/run.py --workload triple-subdivide --seed 1 --seconds 30 --trace 0

One process, one thread, one client: each op is issued when the
previous one returns.  Inputs come from --seed only.  Every verdict is
checked by an oracle outside the timer; an op that raises or gives a
wrong verdict is failed.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.

Every reported time is scaled to the reference speed of speed.py, so
that the drift of a shared host's speed cancels; the unscaled figures
are printed above the result line.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed number of ops, sized from --seconds, twice on
fresh state: untraced, then with spans around every layer call.  It
reports the per-layer metrics and the tracing overhead, and writes the
spans to .perfbench-out/ under the checkout.

Run from the root of a checkout; relfan is imported from its src/.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from itertools import chain, count  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Stopwatch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_value(latencies, pct):
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(pct / 100 * len(ordered)) - 1))]


def run_ops(wl, state, blocks, seconds=None, tracer=None):
    """Run blocks of ops in a closed loop.  With seconds, stop at the
    first block boundary after that much wall time; otherwise run all.
    Returns (latencies, scaled, failures, verdicts): each op's wall
    seconds, and the same scaled to the reference speed (speed.py)."""
    latencies, scaled, failed, verdicts = [], [], 0, []
    clock = Stopwatch()
    start = perf_counter()
    for block in blocks:
        for op in block:
            if tracer is not None:
                tracer.begin_op()
            clock.start()
            try:
                out, error = wl.run(state, op), None
            except Exception as exc:  # a failed op is counted, the run goes on
                out, error = None, exc
            wall, at_ref = clock.stop()
            if tracer is not None:
                tracer.end_op()
            latencies.append(wall)
            scaled.append(at_ref)
            if error is None:
                ok, verdict = wl.check(state, op, out)
            else:
                traceback.print_exception(error, file=sys.stderr)
                ok, verdict = False, "raised"
            failed += not ok
            verdicts.append(verdict)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return latencies, scaled, failed, verdicts


def setup(wl, seed, corpus_blocks, scratch, clock):
    """One set-up: state plus the first blocks of ops, from Random(seed).
    Returns ((state, rng, corpus), wall s, scaled s)."""
    clock.start()
    state = wl.setup(scratch)
    wall, at_ref = clock.stop()
    clock.start()
    rng = random.Random(seed)
    corpus = [wl.block(state, rng) for _ in range(corpus_blocks)]
    corpus_wall, corpus_at_ref = clock.stop()
    return (state, rng, corpus), wall + corpus_wall, at_ref + corpus_at_ref


def measure(wl, build, setup_s, setup_wall, seconds):
    from workloads import digest

    state, rng, corpus = build
    blocks = chain(corpus, (wl.block(state, rng) for _ in count()))
    wall, lat, failed, verdicts = run_ops(wl, state, blocks, seconds=seconds)
    n = len(lat)
    print(f"{wl.name}: {n} ops in {sum(wall):.3f} s of op time ({sum(lat):.3f} s at reference speed), "
          f"{failed} failed (failed_ratio {failed / n:.4f})")
    print(f"op_tail_ms is p{wl.tail_pct:g} (nearest rank): "
          f"{n - math.ceil(wl.tail_pct / 100 * n)} of {n} samples beyond it")
    print(f"set-up: {setup_s:.4f} s at reference speed ({setup_wall:.4f} s wall) "
          f"from process start to the first op")
    print(f"unscaled: ops_per_s {n / sum(wall):.4g}, op_p50_ms {statistics.median(wall) * 1e3:.4g}, "
          f"op_tail_ms {tail_value(wall, wl.tail_pct) * 1e3:.4g}")
    print(f"verdict digest over the first {min(n, len(corpus) * wl.block_len)} ops: "
          f"{digest(verdicts[:len(corpus) * wl.block_len])}")
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value(lat, wl.tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return n, failed, metrics


def measure_traced(wl, build_a, build_b, seed):
    from spans import Tracer, metric_units
    from workloads import digest

    # the same ops on two fresh states, one untraced and one traced, in
    # alternating order, so drift in machine speed hits both alike
    (state_a, _, corpus_a), (state_b, _, corpus_b) = build_a, build_b
    tracer = Tracer()
    plain, traced, verdicts_a, verdicts_b, failed = [], [], [], [], 0
    pairs = zip(chain.from_iterable(corpus_a), chain.from_iterable(corpus_b))
    for i, (op_a, op_b) in enumerate(pairs):
        runs = [(state_a, op_a, None, plain, verdicts_a), (state_b, op_b, tracer, traced, verdicts_b)]
        for state, op, tr, latencies, verdicts in runs[:: 1 if i % 2 else -1]:
            _, lat, bad, verdict = run_ops(wl, state, [[op]], tracer=tr)
            latencies += lat
            verdicts += verdict
            failed += bad
    values = tracer.layer_metrics()
    values["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    units = metric_units()
    print(f"{wl.name}: {len(traced)} traced ops, {len(tracer)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"tracing overhead {values['trace.overhead_pct']:+.1f}% "
          f"({sum(traced):.3f} s traced vs {sum(plain):.3f} s untraced, same ops)")
    print(f"verdict digest over {len(traced)} ops: {digest(verdicts_b)}")
    width = max(map(len, units))
    for name in units:
        print(f"  {name:<{width}}  {values[name]:.6g} {units[name]}")
    correct = failed == 0 and verdicts_a == verdicts_b
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return len(plain) + len(traced), failed, correct, metrics


def main(argv=None):
    args = parse_args(argv)
    clock = Stopwatch()
    clock.start(t0=T0)
    if not (ROOT / "src" / "relfan").is_dir():
        print(f"perfbench: no relfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    import_wall, import_s = clock.stop()
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # the traced run's op count, fixed by --seconds so counts repeat
    corpus_blocks = max(1, round(args.seconds * wl.rate / 2 / wl.block_len))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as scratch:
        build, setup_wall, setup_s = setup(wl, args.seed, corpus_blocks, Path(scratch), clock)
        if args.trace:
            # the untraced and the traced pass each run on a fresh state
            build_b, _, _ = setup(wl, args.seed, corpus_blocks, Path(scratch), clock)
            attempted, failed, correct, metrics = measure_traced(wl, build, build_b, args.seed)
        else:
            attempted, failed, metrics = measure(
                wl, build, import_s + setup_s, import_wall + setup_wall, args.seconds)
            correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
