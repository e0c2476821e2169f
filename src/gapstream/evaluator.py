"""Fixed-point and online evaluation of specification graphs.

Offline evaluation starts from empty streams and follows the dependency
graph: its strongly connected components run dependencies first, an equation
that does not read itself, directly or through others, is evaluated at most
once, and a recursive component is swept until nothing changes.  Operator
monotonicity and future-independence make the iteration converge to the
least fixed point, with each variable growing by prefix extension.  Online
evaluation feeds timestamped messages one at a time and, on every message,
re-runs the fixed point over the inputs received so far, following the
schedule the graph caches (SpecGraph.plan), and emits newly decided output
events, gap boundaries and watermarks.  Each online fixed point starts from
the previous one rather than from empty streams: every accepted message
extends its input by prefix extension, so the previous fixed point lies
below the new least one and the iteration climbs from there to the same
result.

Change is pushed, not looked for.  Evaluation is driven by dirty marks
along the graph's readers (SpecGraph.readers, derived once from
SpecGraph.nodes): an input that is not the object the last fixed point
read marks the equations that read it, and so does an equation whose
result differs from its current value (new is not old and new != old),
which then replaces it.  An equal result is dropped, so its readers keep
the object they read and are not marked for it.  Only marked equations
are evaluated, in plan order, and each evaluation consumes its mark.  The
first fixed point starts with every equation marked; the monitor keeps
one run state across messages (_Run), the marks included, so a message
re-evaluates only what it changed, and one that changes no input
evaluates nothing.  Each equation is bound once, when the run state is
built (_Equation), so an evaluation is one call through the dispatch.

Each input is built by an abstract.InputBuilder, by the rule trace files
follow too: its progress only rises, a message that would lower it, or
write at a time it already decides, is rejected, and an event payload must
fit the input's declared type (values.typed_payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import absops, ops
from .abstract import AbstractEventStream, InputBuilder
from .errors import (NonTermination, OperatorError, OutOfOrderInput, TraceError,
                     UndeclaredStream)
from .speclang import OPERATORS, RESERVED_NAME, Apply, Plan, Readers, SpecGraph
from .streams import EventStream, Progress
from .timeline import INF, Span, Time, as_time
from .values import TOP, Interval, typed_payload


class _Equation:
    """One equation, bound once, when a run state is built.

    The operator row is resolved and checked against the evaluation mode,
    and the argument names, the lifted function or literal and the state
    holder are kept, so an evaluation reads the arguments from env, looks
    the implementation up on ops or absops and calls it, with the
    equation's current value env[name] as prev.  The lookup is made on
    every evaluation, so a wrapper patched in after the run state was
    built sees each one.  op and args are the application's.

    A row that keeps state (Operator.stateful) also gets state=, its
    holder in holders under its first two argument names, made there if
    missing.
    """

    __slots__ = ("op", "args", "name", "names", "label", "module", "impl", "lit",
                 "fn", "keywords")

    def __init__(self, name: str, app: Apply, concrete: bool,
                 holders: Dict[Tuple[str, ...], dict]):
        row = OPERATORS.get(app.op)
        if row is None or row.concrete != concrete:
            raise OperatorError(f"operator '{app.op}' needs abstract evaluation mode"
                                if concrete else f"operator '{app.op}' is not abstract")
        self.op, self.args, self.name = app.op, app.args, name
        self.names = tuple(a.name for a in app.args)
        self.label = f"{app.op}({app.fn})" if app.fn is not None else app.op
        self.module, self.impl = (ops if concrete else absops), row.impl
        # a literal row's implementation builds the operator from the literal
        self.lit = (app.lit,) if row.takes == "lit" else None
        self.fn = None
        if row.takes == "fn":
            f = app.fn.resolve()
            self.fn = f.concrete if concrete else f.abstract_cells
        # what every call passes beside prev=: state=, the holder, on a stateful row
        self.keywords = ({"state": holders.setdefault(self.names[:2], {})}
                         if row.stateful else {})

    def evaluate(self, env: Dict[str, object]):
        impl = getattr(self.module, self.impl)
        if self.lit is not None:
            impl = impl(*self.lit)
        args = [env[n] for n in self.names]
        if self.fn is not None:
            args.insert(0, self.fn)
        try:
            return impl(*args, prev=env[self.name], **self.keywords)
        except (TypeError, ArithmeticError) as e:
            # a value function met payloads it cannot take (a type mismatch the
            # parser does not see, a division by zero)
            raise OperatorError(f"operator '{self.label}' failed: "
                                f"{type(e).__name__}: {e}") from e


def _eval_concrete(eq: _Equation, env: Dict[str, object]):
    """eq, a concrete equation, evaluated over env: the concrete dispatch."""
    return eq.evaluate(env)


def _eval_abstract(eq: _Equation, env: Dict[str, object]):
    """eq, an abstract equation, evaluated over env: the abstract dispatch."""
    return eq.evaluate(env)


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
    compute[name]() evaluates one equation, bound once (_Equation), through
    the dispatch, over env.  The stateful rows' holders are bound into
    their equations, one per pair of argument names: a holder must see
    growing prefixes of the same two streams, so the two halves of an
    unrolled delay share one only where unroll did not clone the value
    stream.  The holders start empty.  dirty holds the equations marked
    for evaluation: every one before the first fixed point; after it, the
    readers (SpecGraph.readers) of each input object replaced since.  A
    fixed point consumes every mark, so the marks are all that carries the
    change from one message to the next.
    """

    def __init__(self, graph: SpecGraph):
        mode = graph.ast.mode
        abstract = mode == "abstract"
        env: Dict[str, object] = {name: _empty(mode) for name, _ in graph.equations}
        holders: Dict[Tuple[str, ...], dict] = {}

        def compute(eq):
            # the dispatch is looked up on every call, so a wrapper patched
            # in after the monitor was built sees every evaluation
            return lambda: (_eval_abstract if abstract else _eval_concrete)(eq, env)

        self.env = env
        self.compute = {name: compute(_Equation(name, app, not abstract, holders))
                        for name, app in graph.equations}
        self.dirty = set(env)


def _run_plan(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
              plan: Plan, readers: Readers, dirty: set, max_sweeps: int,
              failure: str) -> int:
    """Evaluate the marked equations, component by component, until each is stable.

    compute[name]() reads env.  Only the names in dirty are evaluated, in
    plan order, and an evaluation consumes its name's mark (_evaluate).  A
    step alone in its component runs at most once; a recursive component
    is swept until a sweep changes nothing.  A mark always lies on the
    component being run or a later one, since readers come after what they
    read, so dirty is empty on return.

    Returns the largest sweep count of any component, the unchanged sweep
    included, a node alone counting as one sweep.  A component still
    changing after max_sweeps sweeps raises NonTermination with `failure`
    and the names changed in its last sweep.
    """
    sweeps = 0
    for order, recursive in plan:
        if recursive:
            sweeps = max(sweeps, _sweep_component(env, compute, order, readers, dirty,
                                                  max_sweeps, failure))
        else:
            if order[0] in dirty:
                _evaluate(env, compute, order[0], readers, dirty)
            sweeps = max(sweeps, 1)
    return sweeps


def _evaluate(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
              name: str, readers: Readers, dirty: set) -> bool:
    """Evaluate a marked name and consume its mark; whether its value changed.

    A result that differs from the current value replaces it and marks the
    name's readers.  An equal one is dropped, so the readers keep the
    object they read and are not marked for it.
    """
    dirty.discard(name)
    new, old = compute[name](), env[name]
    if new is old or new == old:
        return False
    env[name] = new
    dirty.update(readers[name])
    return True


def _sweep_component(env: Dict[str, object], compute: Dict[str, Callable[[], object]],
                     order: List[str], readers: Readers, dirty: set,
                     max_sweeps: int, failure: str) -> int:
    """Sweep one recursive component, from its marked members, until a
    sweep changes nothing."""
    changing: List[str] = []
    for sweep in range(max_sweeps):
        changing = [name for name in order
                    if name in dirty and _evaluate(env, compute, name, readers, dirty)]
        if not changing:
            return sweep + 1
    raise NonTermination(
        f"{failure}; still changing in the last sweep: {', '.join(changing)}")


def evaluate_fixpoint(graph: SpecGraph, inputs: Dict[str, object],
                      max_sweeps: Optional[int] = None, *,
                      _run: Optional[_Run] = None) -> Dict[str, object]:
    """Least fixed point of the equations over the given input streams.

    The iteration starts from empty streams.  Each evaluation gets the
    equation's current value as prev, which the operator extends past its
    progress instead of starting from empty; the rows that keep state
    (speclang.Operator.stateful) resume from their holder (_Run).  That
    value was computed by the same operator on prefixes of the current
    arguments: env values only grow in a sweep.  The operator is
    prefix-monotone, so the value is a prefix of the new output.

    _run, private to OnlineEvaluator, is the run state of the fixed point
    over a prefix of these inputs.  Its env, holders and marks are updated
    in place, so the iteration climbs from that fixed point, which lies
    below the new least one, to the same result: an input that is not the
    object of the last fixed point marks its readers, and only marked
    equations are evaluated.  A fixed point that raises leaves _run part
    way, no fixed point, and the caller must not pass it again.
    """
    mode = graph.ast.mode
    missing = [n for n in graph.inputs if n not in inputs]
    if missing:
        raise OperatorError(f"unbound input streams: {', '.join(missing)}")
    run = _Run(graph) if _run is None else _run
    env, readers = run.env, graph.readers
    for n in graph.inputs:
        s = _embed(inputs[n], mode)
        if s is not env.get(n):
            env[n] = s
            run.dirty.update(readers.get(n, ()))
    bound = max_sweeps if max_sweeps is not None else iteration_bound(graph, inputs)
    env[RESERVED_NAME] = _run_plan(
        env, run.compute, graph.plan, readers, run.dirty, bound + 1,
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
    """Incremental evaluation: feed ordered messages, collect output messages.

    One run state (evaluate_fixpoint's _run) is kept from message to
    message, so a message re-evaluates only the equations that read what it
    changed, directly or through others.  env is that state's environment,
    updated in place.  After a feed whose evaluation raised, env holds the
    iteration as the error left it, which is no fixed point, and the run
    state is dropped: the next feed evaluates from empty streams.

    The inputs dict is kept too, and a feed replaces only its stream's
    entry.  Streams are immutable, so an output whose env object is the one
    last emitted from has nothing new, and its emission is skipped.
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
        self.inputs = {n: b.stream(self.abstract) for n, b in self.state.items()}
        # each output's env object as last emitted from
        self._emitted_from: Dict[str, object] = {}

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
        self.inputs[msg.stream] = b.stream(self.abstract)
        return self._refresh()

    def _payload(self, v, ty: str):
        v = typed_payload(v, ty)
        if not self.abstract and (v is TOP or isinstance(v, Interval)):
            raise TraceError(f"concrete evaluation cannot take the payload {v!r}")
        return v

    def _refresh(self) -> List[Message]:
        self.env = self._run.env
        try:
            env = evaluate_fixpoint(self.graph, self.inputs, _run=self._run)
        except BaseException:
            self._run = _Run(self.graph)
            self._emitted_from.clear()
            raise
        out: List[Message] = []
        emitted_from = self._emitted_from
        for name in self.graph.outputs:
            s = env[name]
            if emitted_from.get(name) is s:
                continue
            emitted_from[name] = s
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
