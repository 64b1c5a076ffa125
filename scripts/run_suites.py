"""Drive every CLI suite against one fixture and summarize the exits.

One command smoke: builds the window, runs each check suite in turn
with text reports, then rmf on two pencil operators of the fixture (lam
1, e sent to log(gamma) applied to the all ones vector, so the relative
filtration exists and its axioms are certified; and lam 0, e sent to
the all ones vector, which takes the zero block's path), and ends with
an exit code table.  Above window
0 the rank twenty fixture skips the window heavy steps unless forced,
since its window has (4b+3)^6 + 1 cones: 730 at window 0, 117,650 at
window 1.

    python3 scripts/run_suites.py --fixture elliptic --window 2
    python3 scripts/run_suites.py --fixture triple --window 0
    python3 scripts/run_suites.py --fixture triple --all
"""

import argparse
import json
import tempfile
from pathlib import Path

from relfan.cli import load_spec, main as relfan
from relfan.qlinalg import matvec, vec_to_json

SUITES = ("axioms", "gamma", "completeness", "relations", "gallery")
WINDOW_HEAVY = {"axioms", "gamma"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", default="elliptic", choices=("elliptic", "jordan3", "triple"))
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument("--corpus", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--all", action="store_true", help="run the window heavy suites even on the rank twenty fixture")
    args = parser.parse_args(argv)

    suites = list(SUITES)
    run_build = True
    if args.fixture == "triple" and args.window > 0 and not args.all:
        suites = [s for s in suites if s not in WINDOW_HEAVY]
        run_build = False

    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({
            "fixture": args.fixture,
            "window": args.window,
            "corpus": args.corpus,
            "seed": args.seed,
        }))
        results = []
        if run_build:
            results.append(("build", relfan(["build", "--spec", str(spec), "--format", "text"])))
        for suite in suites:
            rc = relfan(["check", "--spec", str(spec), "--suite", suite, "--format", "text"])
            results.append((suite, rc))
        frame = load_spec(str(spec)).frame
        ones = (1,) * frame.rank
        for lam, image in ((1, matvec(frame.log_gamma, ones)), (0, ones)):
            operator = Path(tmp) / f"operator{lam}.json"
            operator.write_text(json.dumps({"e_image": vec_to_json(image), "lam": lam}))
            rc = relfan(["rmf", "--spec", str(spec), "--n-data", str(operator), "--format", "text"])
            results.append((f"rmf lam {lam}", rc))

    print()
    width = max(len(name) for name, _ in results)
    for name, rc in results:
        print(f"{name:<{width}}  exit {rc}")
    worst = max(rc for _, rc in results)
    print(f"overall exit {worst}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
