"""Abstract semantics realized with concrete operators only.

An abstract stream is represented as two concrete streams: the value stream
(carrying abstract payloads as ordinary values) and a boolean marker stream
encoding the known-time set.  Every abstract operator expands into a small
subgraph of concrete operators (lift, last, merge, time) over such pairs,
sampled on a grid clock of the trace's smallest time step.  History-based
operators keep their state in a stream of tuples advanced by a guarded
last, which is also what makes recursive specifications well-formed here
without any unrolling: the state at t only ever reads inputs up to t - eps.

The expansion is evaluated by the ordinary fixed-point iteration and its
outputs decode back into abstract streams, so native abstract evaluation
and this encoding can be compared end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import ops
from .abstract import AbstractEventStream, covered_span
from .absops import _delay_amount, merge_cell, merge_cells
from .encoding import decode_delta, encode_delta, DeltaEncoding
from .errors import OperatorError
from .evaluator import _run_plan
from .functions import strict_cells
from .speclang import OPERATORS, Nodes, SpecGraph, readers, sweep_plan, unguarded_walk
from .streams import EventStream, Progress
from .values import BOTTOM, GAP, TOP, UNIT, Interval


@dataclass(frozen=True)
class Cell:
    """Event payload wrapping one abstract cell on the grid."""

    payload: object  # abstract value, BOTTOM, or GAP


_B = Cell(BOTTOM)
_G = Cell(GAP)


@dataclass(frozen=True)
class EncodedNode:
    name: str
    deps: Tuple[str, ...]
    fn: Callable            # takes resolved dep streams, returns EventStream
    guarded: frozenset      # dep positions that break cycles


class EncodedGraph:
    def __init__(self, epsilon: Fraction):
        self.epsilon = Fraction(epsilon)
        self.nodes: List[EncodedNode] = []
        self.inputs: List[str] = []          # value/marker/clock input names
        self.pairs: Dict[str, Tuple[str, str]] = {}  # stream var -> (v, k)
        self.outputs: List[str] = []
        self._n = 0

    def fresh(self, tag: str) -> str:
        self._n += 1
        return f"%{tag}{self._n}"

    def add(self, tag, deps, fn, guarded=()) -> str:
        name = self.fresh(tag)
        self.nodes.append(EncodedNode(name, tuple(deps), fn, frozenset(guarded)))
        return name

    def node_deps(self) -> Nodes:
        """Each node's argument names and guarded positions, as SpecGraph.nodes."""
        return {n.name: (n.deps, n.guarded) for n in self.nodes}

    def depth(self) -> int:
        return unguarded_walk(self.node_deps())[1]


CLOCK = "%clock"


def _sig(g: EncodedGraph, k: str) -> str:
    """Inclusive signal of a marker stream, sampled at every clock tick."""
    lastk = g.add("lastk", (k, CLOCK), lambda kk, c: ops.last(kk, c), guarded=(0,))
    return g.add("sigk", (k, lastk), lambda kk, lk: ops.merge(kk, lk))


def _cellify(v, k):
    if v is not BOTTOM:
        return Cell(v)
    if k is BOTTOM:
        raise OperatorError("marker signal missing below an event-free point")
    return _B if k is True else _G


def _cells(g: EncodedGraph, pair: Tuple[str, str]) -> str:
    v, k = pair
    sig = _sig(g, k)
    return g.add("cell", (v, sig), lambda vv, kk: ops.lift(_cellify, vv, kk))


def _strip(g: EncodedGraph, zc: str) -> str:
    def f(c):
        if c is BOTTOM:
            return BOTTOM
        p = c.payload
        return BOTTOM if p is BOTTOM or p is GAP else p

    return g.add("val", (zc,), lambda s: ops.lift(f, s))


def _markers(g: EncodedGraph, zc: str) -> str:
    def f(c):
        if c is BOTTOM:
            return BOTTOM
        return c.payload is not GAP

    return g.add("mark", (zc,), lambda s: ops.lift(f, s))


def _pair_from_cells(g: EncodedGraph, zc: str) -> Tuple[str, str]:
    return _strip(g, zc), _markers(g, zc)


def _enc_lift(g: EncodedGraph, cell_fn: Callable, *pairs) -> Tuple[str, str]:
    cells = [_cells(g, p) for p in pairs]

    def f(*cs):
        if any(c is BOTTOM for c in cs):
            return BOTTOM
        out = cell_fn(*(c.payload for c in cs))
        return Cell(out)

    zc = g.add("lift", tuple(cells), lambda *ss: ops.lift(f, *ss))
    return _pair_from_cells(g, zc)


def _always_known(g: EncodedGraph, tag: str) -> str:
    return g.add(tag, (), lambda: ops.lift(lambda u: True, ops.unit()))


def _enc_nil(g: EncodedGraph) -> Tuple[str, str]:
    return g.add("nil", (), lambda: ops.nil()), _always_known(g, "allk")


def _enc_unit(g: EncodedGraph) -> Tuple[str, str]:
    return g.add("unit", (), lambda: ops.unit()), _always_known(g, "allk")


def _enc_merge(g: EncodedGraph, *pairs) -> Tuple[str, str]:
    """merge_cells as a chain of binary lifts; a single pair is lifted once."""
    if len(pairs) == 1:
        return _enc_lift(g, merge_cells, pairs[0])
    res = pairs[0]
    for p in pairs[1:]:
        res = _enc_lift(g, merge_cells, res, p)
    return res


def _enc_const(g: EncodedGraph, lit, xp) -> Tuple[str, str]:
    return _enc_lift(g, lambda v: v if v is BOTTOM or v is GAP else lit, xp)


# -- last ---------------------------------------------------------------------

_LAST_INIT = (None, False, False, False)  # last value, gap since, any event, any gap


def _last_step(state, c):
    last_v, gap_since, any_ev, any_gap = state
    p = c.payload
    if p is GAP:
        return (last_v, True, any_ev, True)
    if p is BOTTOM:
        return state
    return (p, False, True, any_gap)


def _last_decide(state, rc):
    last_v, gap_since, any_ev, any_gap = state
    p = rc.payload
    if p is BOTTOM:
        return _B
    if p is GAP:
        return _G if (any_ev or any_gap) else _B
    # trigger event
    if any_ev:
        return Cell(TOP) if gap_since else Cell(last_v)
    return _G if any_gap else _B


def _state_machine(g: EncodedGraph, step: Callable, init, cell_nodes: list) -> str:
    """A stream of states advanced at every clock tick; reads are guarded."""
    state_name = g.fresh("state")
    lastst = g.add("lastst", (state_name, CLOCK), lambda s, c: ops.last(s, c),
                   guarded=(0,))
    seed = g.add("seed", (), lambda: ops.lift(lambda u: init, ops.unit()))
    prev = g.add("prev", (lastst, seed), lambda a, b: ops.merge(a, b))

    def f(pv, *cs):
        if pv is BOTTOM or any(c is BOTTOM for c in cs):
            return BOTTOM
        return step(pv, *cs)

    g.nodes.append(EncodedNode(state_name, tuple([prev] + cell_nodes),
                               lambda p, *cs: ops.lift(f, p, *cs), frozenset()))
    return state_name, prev


def _enc_last(g: EncodedGraph, vp, rp) -> Tuple[str, str]:
    vc = _cells(g, vp)
    rc = _cells(g, rp)
    state, prev = _state_machine(g, _last_step, _LAST_INIT, [vc])
    zc = g.add("lastz", (prev, rc),
               lambda p, r: ops.lift(
                   lambda pv, rv: BOTTOM if pv is BOTTOM or rv is BOTTOM
                   else _last_decide(pv, rv), p, r))
    return _pair_from_cells(g, zc)


# -- time-aware last ----------------------------------------------------------

_LT_INIT = (None, False, False, False, Fraction(0))


def _last_time_step(eps):
    def step(state, c, t):
        last_t, gap_since, any_ev, any_gap, run_start = state
        p = c.payload
        if p is GAP:
            return (last_t, True, any_ev, True, t + eps)
        if p is BOTTOM:
            return state
        return (t, False, True, any_gap, run_start)

    return step


def _last_time_decide(state, rc, t):
    last_t, gap_since, any_ev, any_gap, run_start = state
    p = rc.payload
    if p is BOTTOM:
        return _B
    if p is GAP:
        return _G if (any_ev or any_gap) else _B
    if any_ev:
        if gap_since:
            hi = min(run_start, t)
            return Cell(Interval.of(last_t, max(last_t, hi)))
        return Cell(Interval.single(last_t))
    return _G if any_gap else _B


def _enc_last_time(g: EncodedGraph, vp, rp) -> Tuple[str, str]:
    vc = _cells(g, vp)
    rc = _cells(g, rp)
    tc = g.add("now", (CLOCK,), lambda c: ops.time(c))
    state, prev = _state_machine(
        g, _last_time_step(g.epsilon), _LT_INIT, [vc, tc])
    zc = g.add("ltz", (prev, rc, tc),
               lambda p, r, t: ops.lift(
                   lambda pv, rv, tv: BOTTOM if pv is BOTTOM or rv is BOTTOM or tv is BOTTOM
                   else _last_time_decide(pv, rv, tv), p, r, t))
    return _pair_from_cells(g, zc)


def _enc_time(g: EncodedGraph, xp) -> Tuple[str, str]:
    v, k = xp
    tv = g.add("time", (v,), lambda s: ops.time(s))
    return tv, k


def synchronized(streams: Sequence, merge: Callable, last: Callable) -> list:
    """Each stream merged with its last value at the other streams' events.

    Stream i becomes merge(x_i, last(x_i, trigger_i)), where trigger_i is
    the merge of every other stream; a single stream stays as it is.  This
    is the synchronization behind the signal lift, built from whichever
    merge and last the caller passes.  Only the encoded signal lift
    (_enc_slift) builds it; ops.slift and absops.slift_abs are one walk
    each, and this composition is their specification and test oracle.
    """
    if len(streams) < 2:
        return list(streams)
    synced = []
    for i, x in enumerate(streams):
        others = [s for j, s in enumerate(streams) if j != i]
        trigger = merge(*others) if len(others) > 1 else others[0]
        synced.append(merge(x, last(x, trigger)))
    return synced


def _enc_slift(g: EncodedGraph, cell_fn, *pairs) -> Tuple[str, str]:
    synced = synchronized(pairs, lambda *ps: _enc_merge(g, *ps),
                          lambda vp, rp: _enc_last(g, vp, rp))
    return _enc_lift(g, strict_cells(cell_fn), *synced)


def _tmerge_cells(a, b, t):
    """merge_cell of a timestamp cell a and a last-time cell b, except that a
    gap on a hulls b's interval with t, the timestamp a hidden event has."""
    if a is GAP and isinstance(b, Interval):
        return b.hull(Interval.single(t))
    return merge_cell(a, b)


def _enc_slift_time(g: EncodedGraph, cell_fn, xp, yp) -> Tuple[str, str]:
    def as_iv(pair):
        tv, k = _enc_time(g, pair)
        iv = g.add("iv", (tv,), lambda s: ops.lift(
            lambda t: BOTTOM if t is BOTTOM else Interval.single(t), s))
        return iv, k

    def tmerge(pair, last_pair):
        return _enc_lift(g, _tmerge_cells, pair, last_pair, _enc_time(g, last_pair))

    xs = tmerge(as_iv(xp), _enc_last_time(g, xp, yp))
    ys = tmerge(as_iv(yp), _enc_last_time(g, yp, xp))

    return _enc_lift(g, strict_cells(cell_fn), xs, ys)


# -- delay ---------------------------------------------------------------------

_DELAY_INIT = ((), False)  # pending exact timeouts, unbounded source alive


def _delay_verdict(state, t):
    """The output cell at t from the history strictly below t."""
    pending, any_alive = state
    hits = [p for p in pending if p[1] == t]
    forced = any(defi and not vuln for (_, _, defi, vuln) in hits)
    possible = bool(hits) or any_alive
    return UNIT if forced else (GAP if possible else BOTTOM)


def _delay_step(eps):
    def amount_of(val, t):
        amount = _delay_amount(val, t)
        if amount not in (None, "any") and (amount / eps).denominator != 1:
            raise OperatorError(f"delay amount {amount} off the epsilon grid")
        return amount

    def step(state, dc, rc, t):
        pending, any_alive = state
        dv, rv = dc.payload, rc.payload
        z = _delay_verdict(state, t)

        pending = tuple(p for p in pending if p[1] > t)
        if rv is not BOTTOM and rv is not GAP:
            pending = ()
            any_alive = False
        elif rv is GAP:
            pending = tuple((s0, tau, defi, True) for (s0, tau, defi, _) in pending)

        set_def = rv is not BOTTOM and rv is not GAP or z is UNIT
        set_pos = set_def or rv is GAP or z is GAP
        if dv is GAP:
            if set_pos:
                any_alive = True
        elif dv is not BOTTOM:
            amt = amount_of(dv, t)
            if set_pos and amt == "any":
                any_alive = True
            elif set_pos and amt is not None:
                pending = pending + ((t, t + amt, set_def, False),)
        return (pending, any_alive)

    return step


def _enc_delay(g: EncodedGraph, dp, rp) -> Tuple[str, str]:
    dc = _cells(g, dp)
    rc = _cells(g, rp)
    tc = g.add("now", (CLOCK,), lambda c: ops.time(c))
    state, prev = _state_machine(g, _delay_step(g.epsilon), _DELAY_INIT,
                                 [dc, rc, tc])
    zc = g.add("delayz", (prev, tc), lambda p, t: ops.lift(
        lambda pv, tv: BOTTOM if pv is BOTTOM or tv is BOTTOM
        else Cell(_delay_verdict(pv, tv)), p, t))
    return _pair_from_cells(g, zc)


# -- unrolling halves ----------------------------------------------------------

def _enc_demote_gaps(g: EncodedGraph, pair) -> Tuple[str, str]:
    v, _k = pair
    return v, _always_known(g, "allk")


def _enc_gap_half(g: EncodedGraph, z_pair, d_pair) -> Tuple[str, str]:
    zc = _cells(g, z_pair)
    dc = _cells(g, d_pair)

    def f(cz, cd):
        if cz is BOTTOM or cd is BOTTOM:
            return BOTTOM
        if cd.payload is not BOTTOM and cd.payload is not GAP:
            return cd
        return _G if cz.payload is GAP else _B

    out = g.add("gaphalf", (zc, dc), lambda a, b: ops.lift(f, a, b))
    return _pair_from_cells(g, out)


# -- graph construction ----------------------------------------------------------

def _encoder(op: str) -> Callable:
    """The function expanding op: its row's encode, or derived from unroll.

    The value half of an unrolled last/delay is its base encoding with gaps
    demoted to no-event; the gap half re-marks the base encoding's gaps
    around the third argument's events (last_gap's base encodings, of last_abs
    and last_time, have the same gaps).
    """
    row = OPERATORS[op]
    if row.encode is not None:
        return globals()[row.encode]
    for base in OPERATORS.values():
        if base.unroll and op in base.unroll:
            enc = globals()[base.encode]
            if op == base.unroll[0]:
                return lambda g, v, r: _enc_demote_gaps(g, enc(g, v, r))
            return lambda g, v, r, d: _enc_gap_half(g, enc(g, v, r), d)
    raise OperatorError(f"operator '{op}' has no concrete encoding")


def build_encoded(graph: SpecGraph, epsilon) -> EncodedGraph:
    """Expand an abstract-mode spec graph into concrete operator nodes."""
    if graph.ast.mode != "abstract":
        raise OperatorError("encoded evaluation applies to abstract specs")
    g = EncodedGraph(epsilon)
    g.inputs = [CLOCK]
    pair: Dict[str, Tuple[str, str]] = {}
    for name in graph.inputs:
        v, k = f"{name}__v", f"{name}__k"
        g.inputs += [v, k]
        pair[name] = (v, k)

    for name, _ in graph.equations:
        pair[name] = (f"{name}#v", f"{name}#k")

    for name, app in graph.equations:
        encode = _encoder(app.op)
        args = [pair[a.name] for a in app.args]
        takes = OPERATORS[app.op].takes
        if takes == "fn":
            args.insert(0, app.fn.resolve().abstract_cells)
        elif takes == "lit":
            args.insert(0, app.lit)
        for node, res in zip(pair[name], encode(g, *args)):
            g.nodes.append(EncodedNode(node, (res,), lambda s: ops.merge(s),
                                       frozenset()))

    g.pairs = pair
    g.outputs = list(graph.outputs)
    return g


# -- evaluation ------------------------------------------------------------------

def make_clock(epsilon, horizon: Fraction, progress: Progress) -> EventStream:
    epsilon = Fraction(epsilon)
    ticks = []
    t = Fraction(0)
    while t <= horizon:
        ticks.append((t, UNIT))
        t += epsilon
    return EventStream.of(ticks, progress)


def encode_input(s: AbstractEventStream, epsilon) -> Tuple[EventStream, EventStream]:
    values = s.stream
    for t, _ in values.events:
        if (t / Fraction(epsilon)).denominator != 1:
            raise OperatorError(
                f"event at {t} is off the epsilon grid; the concrete encoding "
                f"samples at multiples of {epsilon}")
    markers = encode_delta(s.gaps.complement(), epsilon, progress=s.progress).marker
    return values, markers


def decode_output(v: EventStream, k: EventStream, epsilon) -> AbstractEventStream:
    prog = min(v.progress, k.progress)
    known = decode_delta(DeltaEncoding(k, Fraction(epsilon)))
    gaps = covered_span(prog).minus(known)
    return AbstractEventStream.of(v.truncated(prog), gaps)


def evaluate_encoded(g: EncodedGraph, inputs: Dict[str, AbstractEventStream],
                     progress: Progress, horizon: Fraction) -> Dict[str, AbstractEventStream]:
    if not (progress.inclusive or progress.is_infinite()):
        # the clock ticks at the horizon, which exclusive progress leaves out
        raise OperatorError("encoded evaluation needs inclusive or infinite "
                            f"progress, got {progress}")
    env: Dict[str, EventStream] = {CLOCK: make_clock(g.epsilon, horizon, progress)}
    for name, s in inputs.items():
        v, k = encode_input(s, g.epsilon)
        env[f"{name}__v"], env[f"{name}__k"] = v, k

    for node in g.nodes:
        env.setdefault(node.name, EventStream.empty())

    grid_len = horizon // g.epsilon + 2
    bound = max(32, 3 * grid_len + len(g.nodes))

    def compute(node):
        return lambda: node.fn(*(env[d] for d in node.deps))

    nodes = g.node_deps()
    _run_plan(env, {node.name: compute(node) for node in g.nodes}, sweep_plan(nodes),
              readers(nodes), set(nodes), bound, "encoded evaluation did not stabilize")

    out = {}
    for name in g.outputs:
        v, k = g.pairs[name]
        out[name] = decode_output(env[v], env[k], g.epsilon)
    return out
