"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload reset-sum-offline --seed 1 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` is the separate traced run: it wraps the engine's layers (see
tracer.py), reports the per-layer metrics and writes the spans under
.perfbench-out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it show
the same numbers with their sample counts.

The engine is imported from src/ next to this directory, never from an
installed copy; without it the run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from clock import PacedClock, WallClock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 15        # set-ups before the first evaluation
MIN_EVALS = 3      # untraced evaluations per timed phase, however slow


def import_engine() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gapstream
    except ImportError as e:
        sys.exit(f"perfbench: cannot import gapstream from {src}: {e}")
    where = Path(gapstream.__file__).resolve().parent
    if where != src / "gapstream":
        sys.exit(f"perfbench: imported gapstream from {where}, not from {src}")


class Repeater:
    """Repeated evaluations of one set-up, each checked for correctness.

    The first evaluation that completes is checked in full (oracle,
    refinement or per-prefix comparison) and becomes the reference; every
    later one must produce the same canonical output, unit for unit.
    """

    def __init__(self, workload):
        self.w = workload
        self.setup = workload.set_up()
        self.inputs = workload.inputs(self.setup)
        self.reference = None
        self.reference_ok = False
        self.attempted = self.failed = 0
        self.problems: list = []

    def evaluate(self, clock=WallClock, tracer=None):
        """One evaluation: (wall seconds, seconds on `clock`, result or
        None if it raised).  Wall seconds leave out the clock's kernel."""
        if tracer is not None:
            tracer.begin(self.w.name)
        begin = clock.now()
        start = perf_counter() - clock.kernel_s
        try:
            result = self.w.evaluate(self.setup, self.inputs, clock)
        except Exception:  # any engine failure counts as a failed evaluation
            result = None
            if not self.problems:
                self.problems.append("evaluation raised:\n" + traceback.format_exc())
        wall = perf_counter() - clock.kernel_s - start
        if tracer is not None:
            tracer.end()
        took = clock.now() - begin
        if result is None:
            self.attempted += 1
            self.failed += 1
            return wall, took, None
        units = self.w.units(result)
        if self.reference is None:
            found = self.w.check(self.setup, self.inputs, result)
            self.problems += found
            self.reference, self.reference_ok = units, not found
        if not self.reference_ok or len(units) != len(self.reference):
            bad = len(units)
        else:
            bad = sum(a != b for a, b in zip(units, self.reference))
        self.attempted += len(units)
        self.failed += bad
        return wall, took, result

    def measure(self, seconds: float, clock, setups: list = None) -> list:
        """Evaluations repeated for `seconds`, each as (wall seconds,
        seconds on `clock`, feed latencies on `clock` or None if it failed).
        Results are dropped, so they do not add to the peak resident set.

        With a `setups` list, one more timed set-up precedes each
        evaluation, so set-up samples spread over the run.
        """
        samples = []
        deadline = perf_counter() + seconds
        while len(samples) < MIN_EVALS or perf_counter() < deadline:
            if setups is not None:
                setups.append(timed_setup(self.w, clock))
            wall, took, result = self.evaluate(clock)
            samples.append((wall, took, None if result is None
                            else self.w.latencies(result, took)))
        return samples

    def check_digest(self) -> None:
        """The reference output must match earlier runs on the same input.

        Digests are kept per workload, n, seed and input text, so a changed
        generator starts a fresh record instead of failing.
        """
        if self.reference is None:
            return
        got = digest(self.reference)
        given = digest(self.w.texts)[:16]
        path = (OUT / "digests"
                / f"{self.w.name}-n{self.w.n}-seed{self.w.seed}-{given}.sha256")
        if path.exists():
            if path.read_text().strip() != got:
                self.problems.append(f"output digest differs from an earlier run ({path.name})")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(got + "\n")
        tmp.replace(path)


def timed_setup(w, clock) -> float:
    """Seconds on `clock` of one set-up of the workload."""
    begin = clock.now()
    w.set_up()
    return clock.now() - begin


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def tail(samples: list) -> tuple:
    """(percentile, value) at the highest percentile with at least ten
    samples above it; never below the median, so fewer than 21 samples give
    the median."""
    xs = sorted(samples)
    i = max(len(xs) - 11, len(xs) // 2)
    return 100.0 * (i + 1) / len(xs), xs[i]


def feed_latency(per_eval: list) -> tuple:
    """(p50, tail, note) over the feeds of one evaluation, each feed taking
    its median over the repetitions.  Offline the whole trace is one feed."""
    feeds = [statistics.median(times) for times in zip(*per_eval)]
    pct, tl = tail(feeds)
    return statistics.median(feeds), tl, (
        f"p{pct:.1f} of {len(feeds)} feeds, each the median of {len(per_eval)}")


def plain_run(cls, args) -> tuple:
    w = cls(args.seed, cls.size)
    clock = PacedClock()
    setups = [timed_setup(w, clock) for _ in range(SETUPS)]
    rep = Repeater(w)
    rep.evaluate()                      # warm-up; checked in full
    samples = rep.measure(args.seconds, clock, setups)
    rep.check_digest()
    raw = statistics.median(wall for wall, _, _ in samples)
    ref = [t for _, t, _ in samples]
    good = [feeds for _, _, feeds in samples if feeds is not None]
    if good:
        p50, tl, feed_note = feed_latency(good)
    else:
        p50 = tl = statistics.median(ref)
        feed_note = "every evaluation failed"
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "eval_s": (statistics.median(ref), "s", f"median of {len(ref)} evaluations "
                                                 f"(wall-clock median {raw:.6g} s)"),
        "feed_p50_ms": (p50 * 1000, "ms", feed_note),
        "feed_tail_ms": (tl * 1000, "ms", feed_note),
        "peak_rss_mb": (rss, "MB", "peak resident set of this process"),
    }
    return [rep], metrics, f"n={w.n}; times in reference seconds"


def traced_run(cls, args) -> tuple:
    from tracer import Tracer

    w = cls(args.seed, cls.size)
    half = cls(args.seed, max(2, cls.size // 2))
    third = args.seconds / 3
    rep, small = Repeater(w), Repeater(half)
    rep.evaluate()                      # warm-ups; checked in full
    small.evaluate()
    clock = PacedClock()
    plain = rep.measure(third, clock)
    untraced_half = statistics.median(t for _, t, _ in small.measure(third, clock))
    untraced = statistics.median(t for _, t, _ in plain)
    tr = Tracer()
    tr.instrument()
    try:
        setups = []
        for _ in range(SETUPS):
            tr.begin("setup")
            setups.append(w.set_up())
            tr.end()
            tr.require(["speclang.parse_spec", "speclang.flatten",
                        "speclang.check_well_formed", "tracefile.parse_trace"]
                       + (["speclang.abstractify", "speclang.unroll"] if w.abstract else []))
        walls, layers = [], []
        deadline = perf_counter() + third
        while not walls or perf_counter() < deadline:
            wall, _, result = rep.evaluate(tracer=tr)
            if result is None:
                raise RuntimeError("traced evaluation failed:\n" + rep.problems[0])
            tr.require(w.active)
            walls.append(wall)
            layers.append(tr.layer_metrics(w.retained_events(result)))
    finally:
        tr.uninstall()
    tr.write(OUT / f"spans-{w.name}-seed{w.seed}.jsonl")
    for s in (rep, small):
        s.check_digest()

    first = setups[0]
    metrics = {
        "speclang.parse_s": (statistics.median(s.parse_s for s in setups), "s"),
        "speclang.transform_s": (statistics.median(s.transform_s for s in setups), "s"),
        "speclang.equations": (len(first.graph.equations), "count"),
        "tracefile.parse_s": (statistics.median(s.trace_s for s in setups), "s"),
        "tracefile.events": (sum(len(getattr(s, "stream", s).events)
                                 for s in first.trace.streams.values()), "count"),
    }
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median_low(m[name][0] for m in layers), unit)
    # wall clock on both sides: the reference kernel itself slows under the
    # Fraction wrappers, so paced times would understate the overhead
    raw = statistics.median(wall for wall, _, _ in plain)
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / raw, "1")
    metrics["scaling_exp"] = (math.log2(untraced / untraced_half), "1")
    note = (f"n={w.n}; scaling_exp against n={half.n}; {len(walls)} traced "
            f"evaluations; {len(tr.spans)} spans written, {tr.dropped} over the cap")
    return [rep, small], {k: (v, u, "") for k, (v, u) in metrics.items()}, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_engine()
    import oracle
    import workloads

    cls = workloads.BY_NAME.get(args.workload)
    if cls is None:
        sys.exit(f"perfbench: unknown workload '{args.workload}'; "
                 f"choose from {', '.join(workloads.BY_NAME)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle.self_check((workloads.BUNDLED / "reset-sum-fig.trace").read_text())

    run = traced_run if args.trace else plain_run
    repeaters, metrics, note = run(cls, args)
    want = {m["name"]: m["unit"] for m in
            declared["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit, _) in metrics.items()}
    if got != want:
        sys.exit(f"perfbench: reported metrics {sorted(got.items())} do not "
                 f"match BENCHMARK.json {sorted(want.items())}")

    attempted = sum(s.attempted for s in repeaters)
    failed = sum(s.failed for s in repeaters)
    problems = [p for s in repeaters for p in s.problems]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {note}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {how}")
    print(f"  {'fail_ratio':32s} {failed / max(attempted, 1):14.6g} {'1':6s} "
          f"{failed} failed of {attempted} attempted")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
