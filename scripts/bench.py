"""Doubling runs of concrete reset-sum offline, each checked against the oracle.

For every n it generates the seeded reset-sum trace with `perfbench/gen.py`,
evaluates the bundled reset-sum spec offline with `evaluate_fixpoint`, checks
`cond` and `sum` against the independent oracle in `perfbench/oracle.py` and
times the evaluation in wall seconds.  It prints the times and the doubling
exponent fitted to them: the least-squares slope of log(time) against log(n),
so 1 is linear and 2 quadratic.  A run whose output differs from the oracle
makes the script exit 1.

With --out the results are stored in a JSON file under --label, next to the
results already there under other labels.  The engine evaluated is the
gapstream that PYTHONPATH selects, so two versions can be recorded side by
side:

    PYTHONPATH=src python scripts/bench.py --label change --out BENCH.json
    PYTHONPATH=../other/src python scripts/bench.py --label parent --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def fitted_exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def machine() -> str:
    """CPU model and count, to read the wall times by."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f
                     if line.startswith("model name")]
    except OSError:
        names = []
    return f"{names[0] if names else model}, {os.cpu_count()} CPUs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800])
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="JSON file to record the results in")
    args = ap.parse_args(argv)
    if len(args.sizes) < 2:
        ap.error("give at least two sizes to fit an exponent")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import oracle
    from gapstream.builtin_specs import spec_text
    from gapstream.evaluator import evaluate_fixpoint
    from gapstream.speclang import flatten, parse_spec
    from gapstream.tracefile import parse_trace

    graph = flatten(parse_spec(spec_text("reset-sum")))
    times, sweeps, wrong = [], [], []
    for n in args.sizes:
        text = gen.reset_sum(SEED, n)
        inputs = parse_trace(text).streams
        start = perf_counter()
        env = evaluate_fixpoint(graph, inputs)
        times.append(perf_counter() - start)
        sweeps.append(env["__sweeps__"])
        want_cond, want_sum = oracle.reset_sum(text)
        ok = (list(env["cond"].events) == want_cond
              and list(env["sum"].events) == want_sum)
        if not ok:
            wrong.append(n)
        print(f"n={n:5d}  wall {times[-1]:8.3f} s  sweeps {sweeps[-1]:5d}  "
              f"{'oracle ok' if ok else 'DIFFERS FROM THE ORACLE'}", flush=True)
    exponent = fitted_exponent(args.sizes, times)
    steps = [math.log2(b / a) for a, b in zip(times, times[1:])]
    print(f"fitted exponent {exponent:.2f}; per doubling "
          + ", ".join(f"{e:.2f}" for e in steps))

    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {
            "benchmark": "concrete reset-sum offline: wall seconds of "
                         "evaluate_fixpoint on perfbench/gen.py reset_sum(seed, n), "
                         "outputs checked against perfbench/oracle.py",
            "runs": {}}
        record["runs"][args.label] = {
            "seed": SEED,
            "sizes": args.sizes,
            "wall_s": [round(t, 4) for t in times],
            "sweeps": sweeps,
            "fitted_exponent": round(exponent, 3),
            "doubling_exponents": [round(e, 3) for e in steps],
            "oracle_ok": not wrong,
            "python": platform.python_version(),
            "machine": machine(),
        }
        path.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
