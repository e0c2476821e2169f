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
from typing import Callable, Dict, List, Tuple

from . import ops
from .abstract import AbstractEventStream, covered_span
from .absops import merge_cells
from .encoding import decode_delta, encode_delta, DeltaEncoding
from .errors import OperatorError
from .evaluator import sweep_until_stable
from .functions import strict_cells
from .speclang import SpecGraph, longest_chain
from .streams import EventStream, Progress
from .timeline import INF
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

    def node_count(self) -> int:
        return len(self.nodes)

    def depth(self) -> int:
        return longest_chain({n.name: (n.deps, n.guarded) for n in self.nodes})


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
        return BOTTOM if p in (BOTTOM, GAP) else p

    return g.add("val", (zc,), lambda s: ops.lift(f, s))


def _markers(g: EncodedGraph, zc: str) -> str:
    def f(c):
        if c is BOTTOM:
            return BOTTOM
        return c.payload is not GAP

    return g.add("mark", (zc,), lambda s: ops.lift(f, s))


def _pair_from_cells(g: EncodedGraph, zc: str) -> Tuple[str, str]:
    return _strip(g, zc), _markers(g, zc)


def _enc_lift(g: EncodedGraph, cell_fn: Callable, pairs) -> Tuple[str, str]:
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
                   lambda pv, rv, tv: BOTTOM if BOTTOM in (pv, rv, tv)
                   else _last_time_decide(pv, rv, tv), p, r, t))
    return _pair_from_cells(g, zc)


def _enc_time(g: EncodedGraph, xp) -> Tuple[str, str]:
    v, k = xp
    tv = g.add("time", (v,), lambda s: ops.time(s))
    return tv, k


def _enc_slift(g: EncodedGraph, cell_fn, pairs) -> Tuple[str, str]:
    synced = []
    for i, p in enumerate(pairs):
        others = [q for j, q in enumerate(pairs) if j != i]
        trig = others[0]
        for q in others[1:]:
            trig = _enc_lift(g, merge_cells, [trig, q])
        lastp = _enc_last(g, p, trig)
        synced.append(_enc_lift(g, merge_cells, [p, lastp]))

    return _enc_lift(g, strict_cells(cell_fn), synced)


def _enc_slift_time(g: EncodedGraph, cell_fn, xp, yp) -> Tuple[str, str]:
    def as_iv(pair):
        v, k = pair
        tv = g.add("time", (v,), lambda s: ops.time(s))
        iv = g.add("iv", (tv,), lambda s: ops.lift(
            lambda t: BOTTOM if t is BOTTOM else Interval.single(t), s))
        return iv, k

    def tmerge(pair, last_pair):
        a = _cells(g, pair)
        b = _cells(g, last_pair)
        tc = g.add("now", (CLOCK,), lambda c: ops.time(c))

        def f(ca, cb, t):
            if BOTTOM in (ca, cb, t):
                return BOTTOM
            pa, pb = ca.payload, cb.payload
            if pa is GAP and isinstance(pb, Interval):
                return Cell(pb.hull(Interval.single(t)))
            return Cell(merge_cells(pa, pb))

        zc = g.add("tmerge", (a, b, tc), lambda aa, bb, tt: ops.lift(f, aa, bb, tt))
        return _pair_from_cells(g, zc)

    xs = tmerge(as_iv(xp), _enc_last_time(g, xp, yp))
    ys = tmerge(as_iv(yp), _enc_last_time(g, yp, xp))

    return _enc_lift(g, strict_cells(cell_fn), [xs, ys])


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
    def amount_of(val):
        if val is TOP:
            return "any"
        if val is INF:
            return None
        if isinstance(val, Interval):
            if val.is_single():
                val = val.lo
            else:
                return "any"
        if isinstance(val, int) and not isinstance(val, bool):
            val = Fraction(val)
        if not isinstance(val, Fraction) or val <= 0:
            raise OperatorError(f"bad delay amount {val!r}")
        if (val / eps).denominator != 1:
            raise OperatorError(f"delay amount {val} off the epsilon grid")
        return val

    def step(state, dc, rc, t):
        pending, any_alive = state
        dv, rv = dc.payload, rc.payload
        z = _delay_verdict(state, t)

        pending = tuple(p for p in pending if p[1] > t)
        if rv not in (BOTTOM, GAP):
            pending = ()
            any_alive = False
        elif rv is GAP:
            pending = tuple((s0, tau, defi, True) for (s0, tau, defi, _) in pending)

        set_def = (rv not in (BOTTOM, GAP)) or z is UNIT
        set_pos = set_def or rv is GAP or z is GAP
        if dv is GAP:
            if set_pos:
                any_alive = True
        elif dv is not BOTTOM:
            amt = amount_of(dv)
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
        if BOTTOM in (cz, cd):
            return BOTTOM
        if cd.payload not in (BOTTOM, GAP):
            return cd
        return _G if cz.payload is GAP else _B

    out = g.add("gaphalf", (zc, dc), lambda a, b: ops.lift(f, a, b))
    return _pair_from_cells(g, out)


# -- graph construction ----------------------------------------------------------

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

    def ref(r):
        return pair[r.name]

    def alias(name, res):
        v_node, k_node = res
        g.nodes.append(EncodedNode(f"{name}#v", (v_node,),
                                   lambda s: ops.merge(s), frozenset()))
        g.nodes.append(EncodedNode(f"{name}#k", (k_node,),
                                   lambda s: ops.merge(s), frozenset()))

    for name, app in graph.equations:
        op = app.op
        if op == "nil_abs":
            v = g.add("nil", (), lambda: ops.nil())
            res = (v, _always_known(g, "allk"))
        elif op == "unit_abs":
            v = g.add("unit", (), lambda: ops.unit())
            res = (v, _always_known(g, "allk"))
        elif op == "time_abs":
            res = _enc_time(g, ref(app.args[0]))
        elif op == "merge_abs":
            res = ref(app.args[0])
            for a in app.args[1:]:
                res = _enc_lift(g, merge_cells, [res, ref(a)])
            if len(app.args) == 1:
                res = _enc_lift(g, merge_cells, [res])
        elif op == "const_abs":
            lit = app.lit
            res = _enc_lift(
                g, lambda v, lit=lit: v if v in (BOTTOM, GAP) else lit,
                [ref(app.args[0])])
        elif op == "lift_abs":
            fn = app.fn.resolve()
            res = _enc_lift(g, fn.abstract_cells, [ref(a) for a in app.args])
        elif op == "slift_abs":
            fn = app.fn.resolve()
            res = _enc_slift(g, fn.abstract_cells, [ref(a) for a in app.args])
        elif op == "slift_time":
            fn = app.fn.resolve()
            res = _enc_slift_time(g, fn.abstract_cells,
                                  ref(app.args[0]), ref(app.args[1]))
        elif op == "last_abs":
            res = _enc_last(g, ref(app.args[0]), ref(app.args[1]))
        elif op == "last_time":
            res = _enc_last_time(g, ref(app.args[0]), ref(app.args[1]))
        elif op == "delay_abs":
            res = _enc_delay(g, ref(app.args[0]), ref(app.args[1]))
        elif op == "last_bot":
            res = _enc_demote_gaps(
                g, _enc_last(g, ref(app.args[0]), ref(app.args[1])))
        elif op == "delay_bot":
            res = _enc_demote_gaps(
                g, _enc_delay(g, ref(app.args[0]), ref(app.args[1])))
        elif op == "last_gap":
            z = _enc_last(g, ref(app.args[0]), ref(app.args[1]))
            res = _enc_gap_half(g, z, ref(app.args[2]))
        elif op == "delay_gap":
            z = _enc_delay(g, ref(app.args[0]), ref(app.args[1]))
            res = _enc_gap_half(g, z, ref(app.args[2]))
        else:
            raise OperatorError(f"operator '{op}' has no concrete encoding")
        alias(name, res)

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
    known = s.known().union(covered_span(s.progress).complement())
    markers = encode_delta(known, epsilon, progress=s.progress).marker
    return values, markers


def decode_output(v: EventStream, k: EventStream, epsilon) -> AbstractEventStream:
    prog = v.progress.min(k.progress)
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
        if isinstance(s, EventStream):
            s = AbstractEventStream.of(s)
        v, k = encode_input(s, g.epsilon)
        env[f"{name}__v"], env[f"{name}__k"] = v, k

    for node in g.nodes:
        env.setdefault(node.name, EventStream.empty())

    grid_len = int(horizon / g.epsilon) + 2
    bound = max(32, 3 * grid_len + len(g.nodes))

    def step(node):
        return lambda: node.fn(*(env[d] for d in node.deps))

    sweep_until_stable(env, [(node.name, step(node)) for node in g.nodes], bound,
                       "encoded evaluation did not stabilize")

    out = {}
    for name in g.outputs:
        v, k = g.pairs[name]
        out[name] = decode_output(env[v], env[k], g.epsilon)
    return out
