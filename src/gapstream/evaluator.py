"""Fixed-point and online evaluation of specification graphs.

Offline evaluation starts from empty streams and follows the dependency
graph: its strongly connected components run dependencies first, an equation
that does not read itself, directly or through others, is evaluated once, and
a recursive component is swept until nothing changes, re-evaluating only the
equations whose arguments changed.  Operator monotonicity and
future-independence make the iteration converge to the least fixed point,
with each variable growing by prefix extension.  Online evaluation feeds
timestamped messages one at a time and, on every message, re-runs the fixed
point over the inputs received so far, following the schedule the graph
caches (SpecGraph.plan), and emits newly decided output events, gap
boundaries and watermarks.  Each online fixed point starts from the previous
one rather than from empty streams: every accepted message extends its input
by prefix extension, so the previous fixed point lies below the new least
one and the iteration climbs from there to the same result.  Each input
is built by an abstract.InputBuilder, by the rule trace files follow too:
its progress only rises, and a message that would lower it, or write at a
time it already decides, is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import absops, ops
from .abstract import AbstractEventStream, InputBuilder
from .errors import NonTermination, OperatorError, OutOfOrderInput, TraceError
from .speclang import OPERATORS, RESERVED_NAME, Apply, Plan, SpecGraph
from .streams import EventStream, Progress
from .timeline import INF, Span, Time, TimeSet, as_time


def _eval_concrete(app: Apply, get, prev=None, state=None):
    return _apply(app, get, concrete=True, prev=prev, state=state)


def _eval_abstract(app: Apply, get, prev=None, state=None):
    return _apply(app, get, concrete=False, prev=prev, state=state)


def _apply(app: Apply, get, concrete: bool, prev=None, state=None):
    """Evaluate one operator application through the operator table.

    prev, the equation's current value, reaches only the rows that resume
    (Operator.resumes); without it they evaluate from empty.  state, the
    holder of the application's argument pair, reaches only the rows that
    keep state (Operator.stateful); without it they keep none.
    """
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
        if row.resumes and prev is not None:
            return impl(*args, prev=prev)
        if row.stateful and state is not None:
            return impl(*args, state=state)
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
                      _states: Optional[Dict[Tuple[str, ...], dict]] = None
                      ) -> Dict[str, object]:
    """Least fixed point of the equations over the given input streams.

    The iteration starts from empty streams, or from `start`'s stream for
    each equation it names.  A start must lie below the least fixed point
    over `inputs`, as the fixed point over a prefix of these inputs does;
    the result is then the same as from empty streams.

    Each evaluation gets the equation's current value, and the operators
    that resume (speclang.Operator.resumes) extend it past its progress
    instead of starting from empty.  That value was computed by the same
    operator on prefixes of the current arguments: env values only grow in
    a sweep, and a start lies below the new fixed point.  The operator is
    prefix-monotone, so the value is a prefix of the new output.

    The rows that keep state (speclang.Operator.stateful) get one holder
    per pair of argument names, so a holder sees only growing prefixes of
    two env entries; the halves of an unrolled delay that read the same
    pair share it.  The holders start empty.  _states, private to
    OnlineEvaluator, keeps them from one fixed point to the next, whose
    start lies below the new one just as prev does.
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

    states = {} if _states is None else _states

    def compute(name, app, names):
        state = states.setdefault(names[:2], {}) if OPERATORS[app.op].stateful else None
        return lambda: evaluator(app, lambda i: env[names[i]], env[name], state)

    env[RESERVED_NAME] = _run_plan(
        env, {name: compute(name, app, nodes[name][0]) for name, app in graph.equations},
        graph.plan, bound + 1,
        f"no fixed point after {bound} sweeps; the specification is likely "
        f"ill-formed (an unguarded cycle keeps growing or oscillating)")
    return env


# -- online evaluation -------------------------------------------------------

@dataclass(frozen=True)
class Message:
    kind: str          # event | progress | gap_start | gap_end
    stream: str
    time: Time
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


def _gap_ended(sp: Span, progress: Progress) -> bool:
    """Whether progress decides the first time after the gap span sp.

    That time is hi for a span open at hi and the times just above hi for
    one closed there, so a gap cut off only by the progress is still open.
    """
    if sp.hi_closed:
        return sp.hi < progress.time
    return sp.hi is not INF and progress.covers(sp.hi)


class OnlineEvaluator:
    """Incremental evaluation: feed ordered messages, collect output messages."""

    def __init__(self, graph: SpecGraph):
        self.graph = graph
        self.abstract = graph.ast.mode == "abstract"
        self.state: Dict[str, InputBuilder] = {n: InputBuilder() for n in graph.inputs}
        self.emitted_events: Dict[str, int] = {n: 0 for n in graph.outputs}
        # gap spans whose start, and whose end, are emitted: outputs grow by
        # prefix extension, so only the last span can still grow, and the
        # ended spans form a prefix of the spans
        self.emitted_gaps: Dict[str, List[int]] = {n: [0, 0] for n in graph.outputs}
        self.emitted_prog: Dict[str, Progress] = {
            n: Progress.exclusive(0) for n in graph.outputs}
        self.env: Optional[Dict[str, object]] = None
        self.delays: Dict[Tuple[str, ...], dict] = {}   # the stateful rows' holders

    def feed(self, msg: Message) -> List[Message]:
        b = self.state.get(msg.stream)
        if b is None:
            raise OutOfOrderInput(f"unknown input stream '{msg.stream}'")
        t = _message_time(msg.kind, msg.stream, msg.time)
        try:
            if msg.kind == "event":
                b.event(t, msg.value)
            elif msg.kind == "progress":
                b.advance(Progress(t, t is not INF))
            elif msg.kind not in ("gap_start", "gap_end"):
                raise OutOfOrderInput(f"unknown message kind '{msg.kind}'")
            elif not self.abstract:
                raise OutOfOrderInput("gaps need abstract evaluation mode")
            else:
                getattr(b, msg.kind)(t)
        except TraceError as e:
            raise type(e)(f"input '{msg.stream}': {e}") from None
        return self._refresh()

    def _refresh(self) -> List[Message]:
        inputs = {n: b.stream(self.abstract) for n, b in self.state.items()}
        env = evaluate_fixpoint(self.graph, inputs, start=self.env, _states=self.delays)
        self.env = env
        out: List[Message] = []
        for name in self.graph.outputs:
            s = env[name]
            stream = s.stream if isinstance(s, AbstractEventStream) else s
            gaps = s.gaps if isinstance(s, AbstractEventStream) else TimeSet.empty()
            for t, v in stream.events[self.emitted_events[name]:]:
                out.append(Message.event(name, t, v))
            self.emitted_events[name] = len(stream.events)
            cursor = self.emitted_gaps[name]
            for sp in gaps.spans[cursor[0]:]:
                out.append(Message.gap_start(name, sp.lo))
            cursor[0] = len(gaps.spans)
            for sp in gaps.spans[cursor[1]:]:
                if not _gap_ended(sp, stream.progress):
                    break
                out.append(Message.gap_end(name, sp.hi))
                cursor[1] += 1
            if stream.progress > self.emitted_prog[name]:
                self.emitted_prog[name] = stream.progress
                out.append(Message.progress(name, stream.progress.time))
        out.sort(key=lambda m: (m.time, m.stream, m.kind))
        return out

