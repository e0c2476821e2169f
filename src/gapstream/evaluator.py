"""Fixed-point and online evaluation of specification graphs.

Offline evaluation iterates all equations from empty streams until nothing
changes; operator monotonicity and future-independence make the iteration
converge to the least fixed point, with each variable growing by prefix
extension.  Online evaluation feeds timestamped messages one at a time and,
on every message, re-runs the fixed point from empty streams over the inputs
received so far, emitting newly decided output events, gap boundaries and
watermarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import absops, ops
from .abstract import AbstractEventStream
from .errors import NonTermination, OperatorError, OutOfOrderInput
from .speclang import OPERATORS, RESERVED_NAME, Apply, SpecGraph
from .streams import EventStream, Progress
from .timeline import INF, Span, TimeSet, as_time


def _eval_concrete(app: Apply, get):
    return _apply(app, get, concrete=True)


def _eval_abstract(app: Apply, get):
    return _apply(app, get, concrete=False)


def _apply(app: Apply, get, concrete: bool):
    """Evaluate one operator application through the operator table."""
    row = OPERATORS.get(app.op)
    if row is None or row.concrete != concrete:
        raise OperatorError(f"operator '{app.op}' needs abstract evaluation mode"
                            if concrete else f"operator '{app.op}' is not abstract")
    impl = getattr(ops if concrete else absops, row.impl)
    streams = [get(i) for i in range(len(app.args))]
    if row.takes == "lit":
        return impl(app.lit)(*streams)
    if row.takes == "fn":
        f = app.fn.resolve()
        return impl(f.concrete if concrete else f.abstract_cells, *streams)
    return impl(*streams)


def _empty(mode: str):
    if mode == "abstract":
        return AbstractEventStream.of(EventStream.empty())
    return EventStream.empty()


def _embed(stream, mode: str):
    if mode == "abstract" and isinstance(stream, EventStream):
        return AbstractEventStream.of(stream)
    if mode == "concrete" and isinstance(stream, AbstractEventStream):
        if not stream.is_concrete():
            raise OperatorError("concrete evaluation cannot take abstract inputs")
        return stream.stream
    return stream


def iteration_bound(graph: SpecGraph, inputs: Dict[str, object]) -> int:
    events = 0
    for s in inputs.values():
        ev = s.stream.events if isinstance(s, AbstractEventStream) else s.events
        events += len(ev)
    return max(16, (events + 4) * (len(graph.equations) + 2))


def sweep_until_stable(env: Dict[str, object],
                       steps: Sequence[Tuple[str, Callable[[], object]]],
                       max_sweeps: int, failure: str) -> int:
    """Run every step in order, sweep after sweep, until a sweep changes nothing.

    A step is (name, compute): compute() reads env and its result replaces
    env[name].  Returns the number of sweeps run, the unchanged one included.
    After max_sweeps sweeps that all changed something, raises
    NonTermination with `failure` and the names changed in the last sweep.
    """
    changing: List[str] = []
    for sweep in range(max_sweeps):
        changing = []
        for name, compute in steps:
            new = compute()
            if new != env[name]:
                env[name] = new
                changing.append(name)
        if not changing:
            return sweep + 1
    raise NonTermination(
        f"{failure}; still changing in the last sweep: {', '.join(changing)}")


def evaluate_fixpoint(graph: SpecGraph, inputs: Dict[str, object],
                      max_sweeps: Optional[int] = None) -> Dict[str, object]:
    """Least fixed point of the equations over the given input streams."""
    mode = graph.ast.mode
    missing = [n for n in graph.inputs if n not in inputs]
    if missing:
        raise OperatorError(f"unbound input streams: {', '.join(missing)}")
    env: Dict[str, object] = {n: _embed(inputs[n], mode) for n in graph.inputs}
    for name, _ in graph.equations:
        env[name] = _empty(mode)
    bound = max_sweeps if max_sweeps is not None else iteration_bound(graph, inputs)
    evaluator = _eval_abstract if mode == "abstract" else _eval_concrete

    def step(app):
        names = [a.name for a in app.args]
        return lambda: evaluator(app, lambda i: env[names[i]])

    env[RESERVED_NAME] = sweep_until_stable(
        env, [(name, step(app)) for name, app in graph.equations], bound + 1,
        f"no fixed point after {bound} sweeps; the specification is likely "
        f"ill-formed (an unguarded cycle keeps growing or oscillating)")
    return env


# -- online evaluation -------------------------------------------------------

@dataclass(frozen=True)
class Message:
    kind: str          # event | progress | gap_start | gap_end
    stream: str
    time: Fraction
    value: object = None

    @staticmethod
    def event(stream, time, value):
        return Message("event", stream, as_time(time), value)

    @staticmethod
    def progress(stream, time):
        t = time if time is INF else as_time(time)
        return Message("progress", stream, t)

    @staticmethod
    def gap_start(stream, time):
        return Message("gap_start", stream, as_time(time))

    @staticmethod
    def gap_end(stream, time):
        return Message("gap_end", stream, as_time(time))


@dataclass
class _InputState:
    events: list = field(default_factory=list)
    gap_spans: list = field(default_factory=list)
    open_gap: Optional[Fraction] = None
    watermark: Fraction = Fraction(0)
    watermark_inclusive: bool = False
    infinite: bool = False

    def advance(self, t, inclusive=True):
        if self.infinite:
            return
        if t is INF:
            self.infinite = True
            return
        if t < self.watermark:
            raise OutOfOrderInput(f"watermark moved backwards to {t}")
        if t > self.watermark:
            self.watermark = t
            self.watermark_inclusive = inclusive
        else:
            self.watermark_inclusive = self.watermark_inclusive or inclusive

    def progress(self) -> Progress:
        if self.infinite:
            return Progress.infinite()
        return Progress(self.watermark, self.watermark_inclusive)

    def stream(self, mode: str):
        base = EventStream.of(self.events, self.progress())
        if mode != "abstract":
            return base
        spans = list(self.gap_spans)
        if self.open_gap is not None:
            spans.append(Span(self.open_gap, True, INF, False))
        return AbstractEventStream.of(base, TimeSet(spans))


class OnlineEvaluator:
    """Incremental evaluation: feed ordered messages, collect output messages."""

    def __init__(self, graph: SpecGraph):
        self.graph = graph
        self.mode = graph.ast.mode
        self.state: Dict[str, _InputState] = {n: _InputState() for n in graph.inputs}
        self.emitted_events: Dict[str, int] = {n: 0 for n in graph.outputs}
        self.emitted_gaps: Dict[str, set] = {n: set() for n in graph.outputs}
        self.emitted_prog: Dict[str, Progress] = {
            n: Progress.exclusive(0) for n in graph.outputs}
        self.env: Optional[Dict[str, object]] = None

    def feed(self, msg: Message) -> List[Message]:
        st = self.state.get(msg.stream)
        if st is None:
            raise OutOfOrderInput(f"unknown input stream '{msg.stream}'")
        if msg.kind == "event":
            if st.events and msg.time <= st.events[-1][0]:
                raise OutOfOrderInput(
                    f"event at {msg.time} out of order on '{msg.stream}'")
            if msg.time < st.watermark:
                raise OutOfOrderInput(
                    f"event at {msg.time} behind watermark on '{msg.stream}'")
            if st.open_gap is not None:
                raise OutOfOrderInput(
                    f"event inside an open gap on '{msg.stream}'; "
                    f"close the gap first (gap_end, event, gap_start)")
            st.events.append((msg.time, msg.value))
            st.advance(msg.time)
        elif msg.kind == "progress":
            st.advance(msg.time)
        elif msg.kind == "gap_start":
            if self.mode != "abstract":
                raise OutOfOrderInput("gaps need abstract evaluation mode")
            st.advance(msg.time, inclusive=True)
            if st.open_gap is None:
                st.open_gap = msg.time
        elif msg.kind == "gap_end":
            if st.open_gap is None:
                raise OutOfOrderInput(f"no open gap on '{msg.stream}'")
            st.advance(msg.time, inclusive=False)
            st.gap_spans.append(Span(st.open_gap, True, msg.time, False))
            st.open_gap = None
        else:
            raise OutOfOrderInput(f"unknown message kind '{msg.kind}'")
        return self._refresh()

    def _refresh(self) -> List[Message]:
        inputs = {n: s.stream(self.mode) for n, s in self.state.items()}
        env = evaluate_fixpoint(self.graph, inputs)
        self.env = env
        out: List[Message] = []
        for name in self.graph.outputs:
            s = env[name]
            stream = s.stream if isinstance(s, AbstractEventStream) else s
            gaps = s.gaps if isinstance(s, AbstractEventStream) else TimeSet.empty()
            for t, v in stream.events[self.emitted_events[name]:]:
                out.append(Message.event(name, t, v))
            self.emitted_events[name] = len(stream.events)
            for sp in gaps.spans:
                key = ("s", sp.lo)
                if key not in self.emitted_gaps[name]:
                    self.emitted_gaps[name].add(key)
                    out.append(Message.gap_start(name, sp.lo))
                if sp.hi is not INF and stream.progress.covers(sp.hi):
                    ekey = ("e", sp.hi)
                    if ekey not in self.emitted_gaps[name]:
                        self.emitted_gaps[name].add(ekey)
                        out.append(Message.gap_end(name, sp.hi))
            if not stream.progress.leq(self.emitted_prog[name]):
                self.emitted_prog[name] = stream.progress
                out.append(Message.progress(name, stream.progress.time))
        out.sort(key=lambda m: (m.time is INF, m.time if m.time is not INF else 0,
                                m.stream, m.kind))
        return out


def evaluate_online(graph: SpecGraph, messages: Iterable[Message]):
    """Run the online evaluator over a message sequence, yielding outputs."""
    ev = OnlineEvaluator(graph)
    for msg in messages:
        for out in ev.feed(msg):
            yield out
