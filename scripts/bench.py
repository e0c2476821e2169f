"""Doubling runs of one workload, each checked against an independent result.

Eight workloads are measured:

- `reset-sum` (the default): concrete reset-sum offline on
  `perfbench/gen.py` `reset_sum`; `cond` and `sum` must equal the oracle in
  `perfbench/oracle.py`.
- `window-gapped`: the bundled sliding-window `queue` spec, abstract
  (time-aware and unrolled, as `gapstream run --abstract` sets it up), on
  the gapped trace of `perfbench/gen.py` `window`; the concrete output on
  the full trace must refine every abstract output (`refinement_leq`).
  The wall seconds of that concrete evaluation are reported as
  `concrete_s`.
- `period-gapped`: the same for the bundled `variable-period` spec on the
  gapped trace of `perfbench/gen.py` `period`; its `concrete_s` times the
  concrete delay.
- `reset-sum-online`: concrete reset-sum online, replaying
  `perfbench/gen.py` `online_messages` of the `reset_sum` trace through
  `OnlineEvaluator.feed`, one message at a time; the events emitted by the
  last message must equal the oracle.  Besides the total feed time it
  reports the median feed latency and the median over the last 10% of the
  messages, whose history is the longest.
- `reset-sum-online-gapped`: the same replay of reset-sum abstract
  (time-aware and unrolled), on the `reset_sum` trace with every tenth
  value lost to a `gap`/`known` pair, replayed as `gap_start`/`gap_end`
  messages, and every tenth other value shown as `#top`.  The events
  emitted up to the last message must equal `evaluate_fixpoint`'s on the
  gapped trace, and the concrete output on the full trace must refine
  that output.  `reset-sum-online-timed` replays the full trace the same
  way, with nothing lost, and `reset-sum-online-plain-gapped` replays the
  gapped trace through the plain (not time-aware) unrolled abstraction.
- `period-online-gapped`: the same replay and checks of `variable-period`
  abstract (time-aware and unrolled) on the gapped trace of
  `perfbench/gen.py` `period`, the one online workload that runs delays,
  their holders kept from message to message.

For every n it generates the seeded trace, times `evaluate_fixpoint` (or
every `feed`) in wall seconds and checks the output.  It prints the times,
the doubling exponent fitted to them (the least-squares slope of log(time)
against log(n), so 1 is linear and 2 quadratic) and, per step between two
sizes, log(time ratio) / log(size ratio).  A run whose output fails its
check makes the script exit 1.

With --out the results are stored in a JSON file under the workload's name
and --label, next to the results already there under other workloads and
labels.  The engine evaluated is the gapstream that PYTHONPATH selects, so
two versions can be recorded side by side:

    PYTHONPATH=src python scripts/bench.py --label change --out BENCH.json
    PYTHONPATH=../other/src python scripts/bench.py --label parent --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from functools import partial
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


def reset_sum_run(n: int):
    """Concrete reset-sum offline at n: (wall seconds, sweeps, oracle agrees, {})."""
    import gen
    import oracle
    from gapstream.builtin_specs import spec_text
    from gapstream.evaluator import evaluate_fixpoint
    from gapstream.speclang import flatten, parse_spec
    from gapstream.tracefile import parse_trace

    graph = flatten(parse_spec(spec_text("reset-sum")))
    text = gen.reset_sum(SEED, n)
    inputs = parse_trace(text).streams
    start = perf_counter()
    env = evaluate_fixpoint(graph, inputs)
    wall = perf_counter() - start
    want_cond, want_sum = oracle.reset_sum(text)
    ok = (list(env["cond"].events) == want_cond
          and list(env["sum"].events) == want_sum)
    return wall, env["__sweeps__"], ok, {}


def replay(graph, msgs):
    """Feed msgs one at a time: (events emitted per output, feed seconds, monitor)."""
    from gapstream.evaluator import OnlineEvaluator

    monitor = OnlineEvaluator(graph)
    emitted = {name: [] for name in graph.outputs}
    latencies = []
    for msg in msgs:
        start = perf_counter()
        out = monitor.feed(msg)
        latencies.append(perf_counter() - start)
        for m in out:
            if m.kind == "event":
                emitted[m.stream].append((m.time, m.value))
    return emitted, latencies, monitor


def latency_medians(latencies) -> dict:
    """Message count, median feed latency and that of the last 10% of messages, in ms."""
    late = latencies[len(latencies) - max(1, len(latencies) // 10):]
    return {"messages": len(latencies),
            "feed_p50_ms": round(1000 * statistics.median(latencies), 4),
            "late_p50_ms": round(1000 * statistics.median(late), 4)}


def reset_sum_online_run(n: int):
    """Concrete reset-sum online at n: (total feed seconds, sweeps of the
    last feed, oracle agrees, feed latency medians in ms)."""
    import gen
    import oracle
    from gapstream.builtin_specs import spec_text
    from gapstream.evaluator import Message
    from gapstream.speclang import flatten, parse_spec
    from gapstream.tracefile import parse_trace

    graph = flatten(parse_spec(spec_text("reset-sum")))
    text = gen.reset_sum(SEED, n)
    msgs = gen.online_messages(parse_trace(text), Message)
    emitted, latencies, monitor = replay(graph, msgs)
    ok = [emitted["cond"], emitted["sum"]] == list(oracle.reset_sum(text))
    return sum(latencies), monitor.env["__sweeps__"], ok, latency_medians(latencies)


def lose_values(text: str) -> str:
    """Reset-sum trace text with every tenth value (from the fifth) lost to
    the gap [t, t+1) and every tenth (from the tenth) shown as #top.

    The next value lies at t+2 or later, so the gap hides only the lost one.
    """
    out, k = [], 0
    for line in text.splitlines():
        t, _, directive = line.partition(": ")
        if directive.startswith("values = "):
            if k % 10 == 4:
                line = f"{t}: gap values\n{int(t) + 1}: known values"
            elif k % 10 == 9:
                line = f"{t}: values = #top"
            k += 1
        out.append(line)
    return "\n".join(out) + "\n"


def gapped_messages(trace, message_cls) -> list:
    """gen.online_messages for a trace that may have gaps.

    Each gap span [lo, hi) becomes a gap_start at lo and a gap_end at hi.
    At one timestamp gap ends come first, then events and gap starts, then
    the heartbeats, which may not decide a time a gap end still names.
    """
    import gen

    names = [n for n, _ in trace.declarations]
    timed = []
    for order, name in enumerate(names):
        s = trace.streams[name]
        for t, v in s.stream.events:
            timed.append((t, 1, order, message_cls.event(name, t, v)))
        for sp in s.gaps.spans:
            timed.append((sp.lo, 1, order, message_cls.gap_start(name, sp.lo)))
            timed.append((sp.hi, 0, order, message_cls.gap_end(name, sp.hi)))
    end = trace.progress.time
    for h in range(gen.HEARTBEAT, int(end), gen.HEARTBEAT):
        for order, name in enumerate(names):
            timed.append((h, 2, order, message_cls.progress(name, h)))
    timed.sort(key=lambda x: x[:3])
    return [m for *_, m in timed] + [message_cls.progress(name, end) for name in names]


def reset_sum_texts(lost: bool, n: int) -> tuple:
    """(full, replayed) reset-sum traces at n, the replayed one with values
    lost (lose_values) if lost."""
    import gen

    full = gen.reset_sum(SEED, n)
    return full, lose_values(full) if lost else full


def generated_texts(generator: str, n: int) -> tuple:
    """The (full, gapped) traces of gen.<generator> at n."""
    import gen

    return getattr(gen, generator)(SEED, n)


def abstract_online_run(spec: str, texts, time_aware: bool, n: int):
    """Unrolled abstract spec online at n, time-aware if time_aware, replaying
    the second of texts(n), a (full, replayed) pair of traces: (total feed
    seconds, sweeps of the last feed, checks pass, feed latency medians in
    ms)."""
    from gapstream.abstract import refinement_leq
    from gapstream.builtin_specs import spec_text
    from gapstream.evaluator import Message, evaluate_fixpoint
    from gapstream.speclang import abstractify, flatten, parse_spec, unroll
    from gapstream.tracefile import parse_trace

    ast = parse_spec(spec_text(spec))
    graph = flatten(unroll(abstractify(ast, time_aware=time_aware)))
    full, replayed = texts(n)
    trace = parse_trace(replayed)
    emitted, latencies, monitor = replay(graph, gapped_messages(trace, Message))
    offline = evaluate_fixpoint(graph, trace.streams)
    concrete = evaluate_fixpoint(flatten(ast), parse_trace(full).streams)
    ok = all(emitted[name] == list(offline[name].stream.events)
             and refinement_leq(concrete[name], offline[name])
             for name in graph.outputs)
    return sum(latencies), monitor.env["__sweeps__"], ok, latency_medians(latencies)


def gapped_run(spec: str, generator: str, n: int):
    """Abstract spec on the gapped trace of gen.<generator> at n: (wall, sweeps,
    refined, wall seconds of the concrete spec on the full trace)."""
    from gapstream.abstract import refinement_leq
    from gapstream.builtin_specs import spec_text
    from gapstream.evaluator import evaluate_fixpoint
    from gapstream.speclang import abstractify, flatten, parse_spec, unroll
    from gapstream.tracefile import parse_trace

    ast = parse_spec(spec_text(spec))
    full, gapped = generated_texts(generator, n)
    full_inputs = parse_trace(full).streams
    start = perf_counter()
    concrete = evaluate_fixpoint(flatten(ast), full_inputs)
    concrete_s = perf_counter() - start
    graph = flatten(unroll(abstractify(ast, time_aware=True)))
    inputs = parse_trace(gapped).streams
    start = perf_counter()
    env = evaluate_fixpoint(graph, inputs)
    wall = perf_counter() - start
    ok = all(refinement_leq(concrete[name], env[name])
             for name in graph.outputs)
    return wall, env["__sweeps__"], ok, {"concrete_s": round(concrete_s, 4)}


def _gapped(spec: str, generator: str, sizes: list):
    return (partial(gapped_run, spec, generator), sizes, "refinement",
            f"abstract {spec} spec offline: wall seconds of evaluate_fixpoint on "
            f"the gapped trace of perfbench/gen.py {generator}(seed, n), the "
            "concrete output on the full trace checked to refine every abstract "
            "output; concrete_s times that concrete evaluation")


WORKLOADS = {
    "reset-sum": (reset_sum_run, [100, 200, 400, 800], "oracle",
                  "concrete reset-sum offline: wall seconds of evaluate_fixpoint "
                  "on perfbench/gen.py reset_sum(seed, n), outputs checked "
                  "against perfbench/oracle.py"),
    "window-gapped": _gapped("queue", "window", [30, 60, 120, 240]),
    "period-gapped": _gapped("variable-period", "period", [8, 16, 32, 64]),
    "reset-sum-online": (reset_sum_online_run, [40, 80, 160, 320], "oracle",
                         "concrete reset-sum online: wall seconds of all "
                         "OnlineEvaluator.feed calls replaying perfbench/gen.py "
                         "online_messages of reset_sum(seed, n), with the median "
                         "feed latency and that of the last 10% of messages; the "
                         "emitted events checked against perfbench/oracle.py"),
    "reset-sum-online-gapped": (
        partial(abstract_online_run, "reset-sum", partial(reset_sum_texts, True), True),
        [40, 80, 160, 320], "offline",
        "time-aware unrolled abstract reset-sum online: wall seconds of all "
        "OnlineEvaluator.feed calls replaying perfbench/gen.py reset_sum(seed, "
        "n) with every tenth value lost to a gap and every tenth shown as "
        "#top, with the median feed latency and that of the last 10% of "
        "messages; the emitted events checked against evaluate_fixpoint on "
        "that trace, whose output the full trace's concrete output refines"),
    "reset-sum-online-timed": (
        partial(abstract_online_run, "reset-sum", partial(reset_sum_texts, False), True),
        [40, 80, 160, 320], "offline",
        "time-aware unrolled abstract reset-sum online on the gap-free "
        "perfbench/gen.py reset_sum(seed, n), measured and checked as "
        "reset-sum-online-gapped"),
    "reset-sum-online-plain-gapped": (
        partial(abstract_online_run, "reset-sum", partial(reset_sum_texts, True), False),
        [40, 80, 160, 320], "offline",
        "plain (not time-aware) unrolled abstract reset-sum online on the "
        "trace of reset-sum-online-gapped, measured and checked as that one"),
    "period-online-gapped": (
        partial(abstract_online_run, "variable-period", partial(generated_texts, "period"),
                True),
        [16, 32, 64, 128], "offline",
        "time-aware unrolled abstract variable-period online: wall seconds of "
        "all OnlineEvaluator.feed calls replaying the gapped trace of "
        "perfbench/gen.py period(seed, n), measured and checked as "
        "reset-sum-online-gapped, over one run state whose delay holders are "
        "kept from feed to feed"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="reset-sum")
    ap.add_argument("--sizes", type=int, nargs="+",
                    help="trace sizes n (default: 100 200 400 800 for reset-sum, "
                         "30 60 120 240 for window-gapped, 8 16 32 64 for "
                         "period-gapped, 16 32 64 128 for period-online-gapped, "
                         "40 80 160 320 for the other online replays)")
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="JSON file to record the results in")
    args = ap.parse_args(argv)
    run, default_sizes, check, benchmark = WORKLOADS[args.workload]
    sizes = args.sizes or default_sizes
    if len(sizes) < 2:
        ap.error("give at least two sizes to fit an exponent")

    sys.path.insert(0, str(ROOT / "perfbench"))
    times, sweeps, wrong, extras = [], [], [], {}
    for n in sizes:
        wall, swept, ok, extra = run(n)
        times.append(wall)
        sweeps.append(swept)
        if not ok:
            wrong.append(n)
        for key, value in extra.items():
            extras.setdefault(key, []).append(value)
        print(f"n={n:5d}  wall {wall:8.3f} s  sweeps {swept:5d}  "
              + "".join(f"{key} {value}  " for key, value in extra.items())
              + f"{check + ' ok' if ok else check.upper() + ' FAILS'}", flush=True)
    exponent = fitted_exponent(sizes, times)
    steps = [math.log(b / a) / math.log(m / n)
             for a, b, n, m in zip(times, times[1:], sizes, sizes[1:])]
    print(f"fitted exponent {exponent:.2f}; per doubling "
          + ", ".join(f"{e:.2f}" for e in steps))

    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        entry = record.setdefault(args.workload, {"benchmark": benchmark, "runs": {}})
        entry["runs"][args.label] = {
            "seed": SEED,
            "sizes": sizes,
            "wall_s": [round(t, 4) for t in times],
            "sweeps": sweeps,
            **extras,
            "fitted_exponent": round(exponent, 3),
            "doubling_exponents": [round(e, 3) for e in steps],
            f"{check}_ok": not wrong,
            "python": platform.python_version(),
            "machine": machine(),
        }
        path.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
