"""Fixed-point and online evaluation of specification graphs.

Offline evaluation starts from empty streams and follows the dependency
graph: its strongly connected components run dependencies first, an equation
that does not read itself, directly or through others, is evaluated once, and
a recursive component is swept until nothing changes, re-evaluating only the
equations whose arguments changed.  Operator monotonicity and
future-independence make the iteration converge to the least fixed point,
with each variable growing by prefix extension.  Online evaluation feeds
timestamped messages one at a time and, on every message, re-runs the fixed
point over the inputs received so far, following a schedule computed once
from the graph, and emits newly decided output events, gap boundaries and
watermarks.  Each
online fixed point starts from the previous one rather than from empty
streams: every accepted message extends its input by prefix extension, so
the previous fixed point lies below the new least one and the iteration
climbs from there to the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import absops, ops
from .abstract import AbstractEventStream
from .errors import NonTermination, OperatorError, OutOfOrderInput, TraceError
from .speclang import OPERATORS, RESERVED_NAME, Apply, Nodes, SpecGraph
from .streams import EventStream, Progress
from .timeline import INF, Span, TimeSet, as_time, t_lt


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
    args = [get(i) for i in range(len(app.args))]
    if row.takes == "lit":
        impl = impl(app.lit)
    elif row.takes == "fn":
        f = app.fn.resolve()
        args.insert(0, f.concrete if concrete else f.abstract_cells)
    try:
        return impl(*args)
    except (TypeError, ArithmeticError) as e:
        # a value function met payloads it cannot take (a type mismatch the
        # parser does not see, a division by zero)
        name = f"{app.op}({app.fn})" if app.fn is not None else app.op
        raise OperatorError(f"operator '{name}' failed: {type(e).__name__}: {e}") from e


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


Plan = List[Tuple[List[str], Optional[Dict[str, List[str]]]]]


def sweep_plan(nodes: Nodes) -> Plan:
    """The schedule of a fixed point over the nodes, in component order.

    One (order, readers) per strongly connected component of the nodes'
    arguments, dependencies first.  A node alone in its component that does
    not read itself is ([name], None) and is evaluated once.  A recursive
    component lists its members in the order of its unguarded internal
    edges (declaration order when an unguarded cycle leaves no such order),
    and readers maps each member to the members that read it.
    """
    names = list(nodes)
    pos = {name: i for i, name in enumerate(names)}
    reads = [[pos[d] for d in deps if d in pos] for deps, _ in nodes.values()]
    plan: Plan = []
    for members in _components(reads):
        if len(members) == 1 and members[0] not in reads[members[0]]:
            plan.append(([names[members[0]]], None))
            continue
        inside = set(members)
        readers: Dict[int, List[int]] = {i: [] for i in members}
        needs: Dict[int, List[int]] = {i: [] for i in members}  # unguarded reads
        for i in members:
            deps, guarded = nodes[names[i]]
            for k, d in enumerate(deps):
                j = pos.get(d)
                if j in inside:
                    readers[j].append(i)
                    if k not in guarded:
                        needs[i].append(j)
        try:
            order = list(TopologicalSorter(needs).static_order())
        except CycleError:
            order = members
        plan.append(([names[i] for i in order],
                     {names[i]: [names[j] for j in r] for i, r in readers.items()}))
    return plan


def _run_plan(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
              plan: Plan, max_sweeps: int, failure: str) -> int:
    """Evaluate the plan component by component until each is stable.

    compute[name]() reads env and its result replaces env[name].  A
    recursive component is swept until a sweep changes nothing; its first
    sweep evaluates every member, later ones only the members with an
    argument that changed since their last evaluation.

    Returns the largest sweep count of any component, the unchanged sweep
    included, a node evaluated once counting as one sweep.  A component
    still changing after max_sweeps sweeps raises NonTermination with
    `failure` and the names changed in its last sweep.
    """
    sweeps = 0
    for order, readers in plan:
        if readers is None:
            env[order[0]] = compute[order[0]]()
            sweeps = max(sweeps, 1)
        else:
            sweeps = max(sweeps, _sweep_component(env, compute, order, readers,
                                                  max_sweeps, failure))
    return sweeps


def _components(reads: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components, each after every component it reads.

    Tarjan's algorithm with an explicit stack, so long dependency chains do
    not meet the recursion limit.  Members are listed in declaration order.
    """
    index = [-1] * len(reads)
    low = [0] * len(reads)
    on_stack = [False] * len(reads)
    stack: List[int] = []
    out: List[List[int]] = []
    visits = count()

    def enter(v):
        index[v] = low[v] = next(visits)
        stack.append(v)
        on_stack[v] = True
        return v, iter(reads[v])

    for root in range(len(reads)):
        if index[root] >= 0:
            continue
        work = [enter(root)]
        while work:
            v, pending = work[-1]
            w = next(pending, None)
            if w is None:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        on_stack[members[-1]] = False
                    out.append(sorted(members))
            elif index[w] < 0:
                work.append(enter(w))
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
    return out


def _sweep_component(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
                     order: List[str], readers: Dict[str, List[str]],
                     max_sweeps: int, failure: str) -> int:
    """Sweep one recursive component until a sweep changes nothing."""
    dirty = set(order)
    changing: List[str] = []
    for sweep in range(max_sweeps):
        changing = []
        for name in order:
            if name not in dirty:
                continue
            dirty.discard(name)
            new = compute[name]()
            if new != env[name]:
                env[name] = new
                changing.append(name)
                dirty.update(readers[name])
        if not changing:
            return sweep + 1
    raise NonTermination(
        f"{failure}; still changing in the last sweep: {', '.join(changing)}")


def evaluate_fixpoint(graph: SpecGraph, inputs: Dict[str, object],
                      max_sweeps: Optional[int] = None, *,
                      start: Optional[Dict[str, object]] = None,
                      _plan: Optional[Plan] = None) -> Dict[str, object]:
    """Least fixed point of the equations over the given input streams.

    The iteration starts from empty streams, or from `start`'s stream for
    each equation it names.  A start must lie below the least fixed point
    over `inputs`, as the fixed point over a prefix of these inputs does;
    the result is then the same as from empty streams.  `_plan` is
    `sweep_plan(graph.nodes)`, for a caller that evaluates one graph many
    times.
    """
    mode = graph.ast.mode
    missing = [n for n in graph.inputs if n not in inputs]
    if missing:
        raise OperatorError(f"unbound input streams: {', '.join(missing)}")
    env: Dict[str, object] = {n: _embed(inputs[n], mode) for n in graph.inputs}
    seed = start or {}
    for name, _ in graph.equations:
        env[name] = seed[name] if name in seed else _empty(mode)
    bound = max_sweeps if max_sweeps is not None else iteration_bound(graph, inputs)
    evaluator = _eval_abstract if mode == "abstract" else _eval_concrete
    nodes = graph.nodes

    def compute(app, names):
        return lambda: evaluator(app, lambda i: env[names[i]])

    env[RESERVED_NAME] = _run_plan(
        env, {name: compute(app, nodes[name][0]) for name, app in graph.equations},
        _plan if _plan is not None else sweep_plan(nodes), bound + 1,
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
        return Message("event", stream, _message_time("event", stream, time), value)

    @staticmethod
    def progress(stream, time):
        return Message("progress", stream, _message_time("progress", stream, time))

    @staticmethod
    def gap_start(stream, time):
        return Message("gap_start", stream, _message_time("gap_start", stream, time))

    @staticmethod
    def gap_end(stream, time):
        return Message("gap_end", stream, _message_time("gap_end", stream, time))


def _message_time(kind: str, stream: str, time):
    """time as an exact timestamp, INF for a progress message allowed."""
    if kind == "progress" and time is INF:
        return time
    try:
        return as_time(time)
    except (TypeError, ValueError, ArithmeticError) as e:
        raise TraceError(f"{kind} on '{stream}' has a bad time {time!r}: {e}") from e


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


def _gap_ended(sp: Span, progress: Progress) -> bool:
    """Whether progress decides the first time after the gap span sp.

    That time is hi for a span open at hi and the times just above hi for
    one closed there, so a gap cut off only by the progress is still open.
    """
    if sp.hi_closed:
        return t_lt(sp.hi, progress.time)
    return sp.hi is not INF and progress.covers(sp.hi)


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
        self._plan = sweep_plan(graph.nodes)  # the graph never changes

    def feed(self, msg: Message) -> List[Message]:
        st = self.state.get(msg.stream)
        if st is None:
            raise OutOfOrderInput(f"unknown input stream '{msg.stream}'")
        msg = replace(msg, time=_message_time(msg.kind, msg.stream, msg.time))
        if msg.kind in ("event", "gap_start", "gap_end") and st.progress().covers(msg.time):
            # a decided timestamp never changes: the warm-started fixed
            # point relies on inputs growing by prefix extension only
            raise OutOfOrderInput(
                f"{msg.kind} at {msg.time} on '{msg.stream}' is out of order: "
                f"its progress {st.progress()} already decides that time")
        if msg.kind == "event":
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
        env = evaluate_fixpoint(self.graph, inputs, start=self.env, _plan=self._plan)
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
                if _gap_ended(sp, stream.progress):
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

