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
one and the iteration climbs from there to the same result.  The monitor
keeps one run state across messages (_Run), and an equation is evaluated
only if one of its arguments is not the object it last read, so a message
re-evaluates only what it changed.  Each input is built by an
abstract.InputBuilder, by the rule trace files follow too: its progress
only rises, a message that would lower it, or write at a time it already
decides, is rejected, and an event payload must fit the input's declared
type (values.typed_payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import absops, ops
from .abstract import AbstractEventStream, InputBuilder
from .errors import (NonTermination, OperatorError, OutOfOrderInput, TraceError,
                     UndeclaredStream)
from .speclang import OPERATORS, RESERVED_NAME, Apply, Plan, SpecGraph
from .streams import EventStream, Progress
from .timeline import INF, Span, Time, as_time
from .values import TOP, Interval, typed_payload


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
    events = sum(len(s.stream.events) for s in inputs.values())
    return max(16, (events + 4) * (len(graph.equations) + 2))


class _Run:
    """The run state one fixed point leaves to the next, over longer inputs.

    env holds every stream: the inputs, the equations and __sweeps__.
    compute[name]() evaluates one equation over env.  states holds the
    stateful rows' holders, one per pair of argument names (see
    evaluate_fixpoint).  read[name] holds the argument objects the
    equation was last evaluated on, as of the last fixed point.
    """

    def __init__(self, graph: SpecGraph):
        mode = graph.ast.mode
        env: Dict[str, object] = {name: _empty(mode) for name, _ in graph.equations}
        states: Dict[Tuple[str, ...], dict] = {}
        abstract = mode == "abstract"
        nodes = graph.nodes

        def compute(name, app, names):
            state = states.setdefault(names[:2], {}) if OPERATORS[app.op].stateful else None
            get = lambda i: env[names[i]]
            # the dispatch is looked up on every call, so a wrapper patched
            # in after the monitor was built sees every evaluation
            return lambda: (_eval_abstract if abstract else _eval_concrete)(
                app, get, env[name], state)

        self.env, self.states = env, states
        self.args = {name: nodes[name][0] for name, _ in graph.equations}
        self.compute = {name: compute(name, app, self.args[name])
                        for name, app in graph.equations}
        self.read: Dict[str, list] = {}

    def stale(self, name: str) -> bool:
        """Whether the equation has no record, or one of its arguments is
        not the object it last read: only then can its value change."""
        read = self.read.get(name)
        if read is None:
            return True
        env = self.env
        for a, was in zip(self.args[name], read):
            if env[a] is not was:
                return True
        return False

    def settle(self) -> None:
        """Record every equation's arguments.  At a fixed point each
        equation was last evaluated on the objects its arguments hold:
        a component changes only the equations it sweeps, each change
        marks its readers for one more evaluation, and the last sweep
        changes nothing."""
        env = self.env
        self.read = {name: [env[a] for a in args] for name, args in self.args.items()}


def _run_plan(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
              plan: Plan, max_sweeps: int, failure: str,
              stale: Optional[Callable[[str], bool]] = None) -> int:
    """Evaluate the plan component by component until each is stable.

    compute[name]() reads env and its result replaces env[name].  Only
    the equations `stale` names (all, without it, as the encoded path
    runs) are evaluated: a step alone in its component, or the first sweep
    of a recursive component.  Later sweeps evaluate only the members with
    an argument that changed since their last evaluation, and a member's
    result equal to its current value is dropped, so its readers keep the
    object they read.

    Returns the largest sweep count of any component, the unchanged sweep
    included, a node evaluated once counting as one sweep.  A component
    still changing after max_sweeps sweeps raises NonTermination with
    `failure` and the names changed in its last sweep.
    """
    sweeps = 0
    for order, readers in plan:
        if readers is None:
            name = order[0]
            if stale is None or stale(name):
                env[name] = compute[name]()
            sweeps = max(sweeps, 1)
        else:
            dirty = set(order) if stale is None else {n for n in order if stale(n)}
            sweeps = max(sweeps, _sweep_component(env, compute, order, readers, dirty,
                                                  max_sweeps, failure))
    return sweeps


def _sweep_component(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
                     order: List[str], readers: Dict[str, List[str]], dirty: set,
                     max_sweeps: int, failure: str) -> int:
    """Sweep one recursive component, from the dirty members, until a
    sweep changes nothing."""
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
                      _run: Optional[_Run] = None) -> Dict[str, object]:
    """Least fixed point of the equations over the given input streams.

    The iteration starts from empty streams.  Each evaluation gets the
    equation's current value, and the operators that resume
    (speclang.Operator.resumes) extend it past its progress instead of
    starting from empty.  That value was computed by the same operator on
    prefixes of the current arguments: env values only grow in a sweep.
    The operator is prefix-monotone, so the value is a prefix of the new
    output.

    The rows that keep state (speclang.Operator.stateful) get one holder
    per pair of argument names, so a holder sees only growing prefixes of
    two env entries; the halves of an unrolled delay that read the same
    pair share it.  The holders start empty.

    _run, private to OnlineEvaluator, is the run state of the fixed point
    over a prefix of these inputs.  Its env, holders and records are
    updated in place, so the iteration climbs from that fixed point, which
    lies below the new least one, to the same result; an equation whose
    arguments are the objects it last read is not evaluated again.  A
    fixed point that raises leaves _run part way, no fixed point, and the
    caller must not pass it again.
    """
    mode = graph.ast.mode
    missing = [n for n in graph.inputs if n not in inputs]
    if missing:
        raise OperatorError(f"unbound input streams: {', '.join(missing)}")
    run = _Run(graph) if _run is None else _run
    env = run.env
    for n in graph.inputs:
        env[n] = _embed(inputs[n], mode)
    bound = max_sweeps if max_sweeps is not None else iteration_bound(graph, inputs)
    env[RESERVED_NAME] = _run_plan(
        env, run.compute, graph.plan, bound + 1,
        f"no fixed point after {bound} sweeps; the specification is likely "
        f"ill-formed (an unguarded cycle keeps growing or oscillating)", run.stale)
    run.settle()
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
    """Incremental evaluation: feed ordered messages, collect output messages.

    One run state (evaluate_fixpoint's _run) is kept from message to
    message, so a message re-evaluates only the equations that read what it
    changed, directly or through others.  env is that state's environment,
    updated in place.  After a feed whose evaluation raised, env holds the
    iteration as the error left it, which is no fixed point, and the run
    state is dropped: the next feed evaluates from empty streams.
    """

    def __init__(self, graph: SpecGraph):
        self.graph = graph
        self.abstract = graph.ast.mode == "abstract"
        self.types = dict(graph.ast.inputs)
        self.state: Dict[str, InputBuilder] = {n: InputBuilder() for n in graph.inputs}
        self.emitted_events: Dict[str, int] = {n: 0 for n in graph.outputs}
        # gap spans whose start, and whose end, are emitted: outputs grow by
        # prefix extension, so only the last span can still grow, and the
        # ended spans form a prefix of the spans
        self.emitted_gaps: Dict[str, List[int]] = {n: [0, 0] for n in graph.outputs}
        self.emitted_prog: Dict[str, Progress] = {
            n: Progress.exclusive(0) for n in graph.outputs}
        self._run = _Run(graph)
        self.env: Optional[Dict[str, object]] = None

    @property
    def delays(self) -> Dict[Tuple[str, ...], dict]:
        """The stateful rows' holders."""
        return self._run.states

    def feed(self, msg: Message) -> List[Message]:
        if not isinstance(msg, Message):
            raise TraceError(f"a message must be a Message, got {type(msg).__name__}")
        b = self.state.get(msg.stream)
        if b is None:
            raise UndeclaredStream(f"unknown input stream '{msg.stream}'")
        t = _message_time(msg.kind, msg.stream, msg.time)
        try:
            if msg.kind == "event":
                b.event(t, self._payload(msg.value, self.types[msg.stream]))
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

    def _payload(self, v, ty: str):
        v = typed_payload(v, ty)
        if not self.abstract and (v is TOP or isinstance(v, Interval)):
            raise TraceError(f"concrete evaluation cannot take the payload {v!r}")
        return v

    def _refresh(self) -> List[Message]:
        inputs = {n: b.stream(self.abstract) for n, b in self.state.items()}
        self.env = self._run.env
        try:
            env = evaluate_fixpoint(self.graph, inputs, _run=self._run)
        except BaseException:
            self._run = _Run(self.graph)
            raise
        out: List[Message] = []
        for name in self.graph.outputs:
            s = env[name]
            stream, gaps = s.stream, s.gaps
            # the times of streams are canonical already
            for t, v in stream.events[self.emitted_events[name]:]:
                out.append(Message("event", name, t, v))
            self.emitted_events[name] = len(stream.events)
            cursor = self.emitted_gaps[name]
            for sp in gaps.spans[cursor[0]:]:
                out.append(Message("gap_start", name, sp.lo))
            cursor[0] = len(gaps.spans)
            for sp in gaps.spans[cursor[1]:]:
                if not _gap_ended(sp, stream.progress):
                    break
                out.append(Message("gap_end", name, sp.hi))
                cursor[1] += 1
            if stream.progress > self.emitted_prog[name]:
                self.emitted_prog[name] = stream.progress
                out.append(Message("progress", name, stream.progress.time))
        out.sort(key=lambda m: (m.time, m.stream, m.kind))
        return out
