"""The benchmark workloads: seeded inputs, set-up, evaluation, output checks.

Each workload calls the library the way `gapstream run` does:
parse_spec -> abstractify/unroll -> flatten -> check_well_formed ->
parse_trace -> evaluate_fixpoint, or OnlineEvaluator.feed per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from gapstream import abstract, evaluator, speclang, streams, tracefile
from gapstream.values import Interval

import gen
import oracle

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "gapstream" / "bundled"


@dataclass
class Setup:
    graph: object
    trace: object
    parse_s: float
    transform_s: float
    trace_s: float


def set_up(spec_text: str, trace_text: str, abstract_mode: bool) -> Setup:
    """Spec parse, transforms, flatten, well-formedness, trace parse; timed."""
    t0 = perf_counter()
    ast = speclang.parse_spec(spec_text)
    t1 = perf_counter()
    if abstract_mode:
        ast = speclang.unroll(speclang.abstractify(ast, time_aware=True))
    graph = speclang.flatten(ast)
    report = speclang.check_well_formed(graph)
    t2 = perf_counter()
    if report is not None:
        raise ValueError(f"specification not well-formed: {report}")
    t3 = perf_counter()
    trace = tracefile.parse_trace(trace_text)
    t4 = perf_counter()
    return Setup(graph, trace, t1 - t0, t2 - t1, t4 - t3)


# -- canonical output text ------------------------------------------------

def canon(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Interval):
        return f"[{canon(v.lo)}, {canon(v.hi)}]"
    return repr(v)


def canon_stream(s) -> str:
    if isinstance(s, abstract.AbstractEventStream):
        base, gaps = s.stream, s.gaps.spans
    else:
        base, gaps = s, ()
    events = " ".join(f"{canon(t)}={canon(v)}" for t, v in base.events)
    p = base.progress
    prog = canon(p.time) + ("]" if p.inclusive else ")")
    holes = " ".join(
        f"{'[' if g.lo_closed else '('}{canon(g.lo)},{canon(g.hi)}{']' if g.hi_closed else ')'}"
        for g in gaps)
    return f"{events} | {prog} | {holes}"


# -- workloads -------------------------------------------------------------

class Workload:
    """One workload at one seed and size n."""

    name = ""
    spec = ""
    abstract = False
    size = 0
    # spans and counters that must record calls on a traced evaluation
    active: tuple = ()

    def __init__(self, seed: int, n: int):
        self.seed, self.n = seed, n
        self.spec_text = (BUNDLED / f"{self.spec}.spec").read_text()
        self.texts = self.generate()
        if self.generate() != self.texts:
            raise RuntimeError(f"{self.name}: generator is not deterministic")
        self.text = self.texts[-1]     # the trace the engine evaluates

    def generate(self) -> tuple:
        """Trace texts drawn from the seed; the engine gets the last one."""
        raise NotImplementedError

    def set_up(self) -> Setup:
        return set_up(self.spec_text, self.text, self.abstract)

    def inputs(self, s: Setup):
        return s.trace.streams

    def evaluate(self, s: Setup, inputs, clock):
        env = evaluator.evaluate_fixpoint(s.graph, inputs)
        return {name: env[name] for name in s.graph.outputs}

    def units(self, result) -> list:
        """Canonical text per evaluated unit (one per fixpoint or feed)."""
        return ["\n".join(f"{n} {canon_stream(s)}" for n, s in result.items())]

    def latencies(self, result, took: float) -> list:
        """Feed latencies; offline the whole trace is one feed."""
        return [took]

    def retained_events(self, result) -> int:
        return 0

    def check(self, s: Setup, inputs, result) -> list:
        """Problems with a result; empty when it is correct."""
        raise NotImplementedError


def _oracle_problems(text: str, cond, total) -> list:
    want_cond, want_sum = oracle.reset_sum(text)
    problems = []
    if list(cond) != want_cond:
        problems.append("cond differs from the reset-sum oracle")
    if list(total) != want_sum:
        problems.append("sum differs from the reset-sum oracle")
    return problems


class ResetSumOffline(Workload):
    name = "reset-sum-offline"
    spec = "reset-sum"
    size = 40
    active = ("evaluator.fixpoint", "evaluator.op_eval", "ops.last", "ops.lift",
              "ops.slift", "ops.merge", "ops.const", "ops.time", "streams.at",
              "streams.last_event_before", "streams.eq", "fraction.cmp")

    def generate(self) -> tuple:
        return (gen.reset_sum(self.seed, self.n),)

    def check(self, s, inputs, result) -> list:
        return _oracle_problems(self.text, result["cond"].events, result["sum"].events)


class _GappedAbstract(Workload):
    """Abstract evaluation on a gapped trace, checked against the full trace.

    The concrete output on the full trace is one concretization of the
    inputs, so it must refine the abstract output on the gapped trace.
    """

    abstract = True

    def __init__(self, seed: int, n: int):
        super().__init__(seed, n)
        graph = speclang.flatten(speclang.parse_spec(self.spec_text))
        full = tracefile.parse_trace(self.texts[0])
        env = evaluator.evaluate_fixpoint(graph, full.streams)
        self.reference = {name: env[name] for name in graph.outputs}

    def check(self, s, inputs, result) -> list:
        return [f"{name}: full-trace output does not refine the gapped output"
                for name, concrete in self.reference.items()
                if not abstract.refinement_leq(
                    abstract.AbstractEventStream.of(concrete), result[name])]


class WindowGapped(_GappedAbstract):
    name = "window-gapped"
    spec = "queue"
    size = 30
    active = ("evaluator.fixpoint", "evaluator.op_eval", "absops.lift_abs",
              "absops.slift_abs", "absops.merge_abs", "absops.const_abs",
              "absops.time_abs", "absops.last_abs", "absops.last_abs_bot",
              "absops.last_abs_gap", "timeline.contains", "timeline.intersect",
              "queues.enq_abs", "queues.rem_older_abs", "queues.fold_abs",
              "fraction.cmp")

    def generate(self) -> tuple:
        return gen.window(self.seed, self.n)


class PeriodGapped(_GappedAbstract):
    name = "period-gapped"
    spec = "variable-period"
    size = 8
    active = ("evaluator.fixpoint", "evaluator.op_eval", "absops.lift_abs",
              "absops.merge_abs", "absops.const_abs", "absops.time_abs",
              "absops.last_abs", "absops.last_abs_bot", "absops.last_abs_gap",
              "absops.delay_abs", "absops.delay_abs_bot", "absops.delay_abs_gap",
              "timeline.contains", "timeline.intersect", "fraction.cmp")

    def generate(self) -> tuple:
        return gen.period(self.seed, self.n)


@dataclass
class Replay:
    outputs: list       # output messages returned by each feed
    latencies: list     # seconds per feed, on the clock given
    monitor: object     # the OnlineEvaluator after the last message


class ResetSumOnline(Workload):
    """Closed-loop replay: the next message is sent when `feed` returns."""

    name = "reset-sum-online"
    spec = "reset-sum"
    size = 16
    active = ("evaluator.feed", "evaluator.fixpoint", "evaluator.op_eval",
              "ops.last", "ops.lift", "ops.slift", "ops.merge", "ops.const",
              "ops.time", "streams.at", "streams.last_event_before", "streams.eq",
              "fraction.cmp")

    def generate(self) -> tuple:
        return (gen.reset_sum(self.seed, self.n),)

    def inputs(self, s: Setup):
        return gen.online_messages(s.trace, evaluator.Message)

    def evaluate(self, s: Setup, inputs, clock) -> Replay:
        monitor = evaluator.OnlineEvaluator(s.graph)
        outputs, latencies = [], []
        for msg in inputs:
            start = clock.now()
            out = monitor.feed(msg)
            latencies.append(clock.now() - start)
            outputs.append(out)
        return Replay(outputs, latencies, monitor)

    def units(self, result: Replay) -> list:
        return [";".join(f"{m.kind} {m.stream} {canon(m.time)} {canon(m.value)}"
                         for m in out) for out in result.outputs]

    def latencies(self, result: Replay, took: float) -> list:
        return result.latencies

    def retained_events(self, result: Replay) -> int:
        held = 0
        for s in result.monitor.env.values():
            if isinstance(s, abstract.AbstractEventStream):
                s = s.stream
            if isinstance(s, streams.EventStream):
                held += len(s.events)
        return held

    def check(self, s, inputs, result: Replay) -> list:
        """Emitted events equal the offline fixpoint on every input prefix.

        After each message the events emitted so far must be exactly the
        output events of `evaluate_fixpoint` on the inputs received so far;
        after the last message they must also equal the oracle.
        """
        names = [n for n, _ in s.trace.declarations]
        received = {n: [] for n in names}
        watermark = {n: streams.Progress.exclusive(0) for n in names}
        emitted = {n: [] for n in s.graph.outputs}
        for k, (msg, out) in enumerate(zip(inputs, result.outputs)):
            if msg.kind == "event":
                received[msg.stream].append((msg.time, msg.value))
            watermark[msg.stream] = streams.Progress.inclusive_at(msg.time)
            for m in out:
                if m.kind == "event":
                    emitted[m.stream].append((m.time, m.value))
            prefix = {n: streams.EventStream.of(received[n], watermark[n]) for n in names}
            env = evaluator.evaluate_fixpoint(s.graph, prefix)
            for n in s.graph.outputs:
                if emitted[n] != list(env[n].events):
                    return [f"after message {k}, online {n} differs from the offline fixpoint"]
        return _oracle_problems(self.text, emitted["cond"], emitted["sum"])


BY_NAME = {w.name: w for w in (ResetSumOffline, WindowGapped, ResetSumOnline, PeriodGapped)}
