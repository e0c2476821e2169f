"""Exact time end to end: no float anywhere, and integral times held as int.

Every bundled spec runs on its bundled traces and on random traces whose
times mix integers ("3") with one-decimal times ("2.3", and "3.0", which is
integral), on the concrete, abstract and online paths.  On everything the
evaluation holds -- event times, payloads, progress, gap bounds, emitted
messages and iota results -- no float appears, and every time is in the
canonical form timeline.as_time gives: an int when integral, else a
Fraction, never a Fraction with denominator 1.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstream import absops, ops
from gapstream.abstract import AbstractEventStream
from gapstream.builtin_specs import SPEC_NAMES, _TRACE_KEYS, spec_text, trace_text
from gapstream.evaluator import Message, OnlineEvaluator, evaluate_fixpoint
from gapstream.functions import lookup
from gapstream.ignorance import FiniteSetSpace, ignorance_repr, iota
from gapstream.speclang import abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, TimeSet, as_time, point
from gapstream.tracefile import parse_trace
from gapstream.values import UNIT

DECLS = {name: tuple(parse_trace(trace_text(keys[0])).declarations)
         for name, keys in _TRACE_KEYS.items()}


def assert_time(t, where):
    """t is a canonical finite time: an int, or a non-integral Fraction."""
    assert type(t) is int or (type(t) is F and t.denominator != 1), (where, t)


def assert_no_float(x, where):
    """No float anywhere inside the value x (intervals and queues included)."""
    assert not isinstance(x, float), (where, x)
    if isinstance(x, (tuple, list)):
        for y in x:
            assert_no_float(y, where)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            assert_no_float(getattr(x, f.name), where)


def assert_exact_stream(s, where):
    if isinstance(s, AbstractEventStream):
        for sp in s.gaps.spans:
            assert_time(sp.lo, where)
            if sp.hi is not INF:
                assert_time(sp.hi, where)
        s = s.stream
    for t, v in s.events:
        assert_time(t, where)
        assert_no_float(v, where)
    if not s.progress.is_infinite():
        assert_time(s.progress.time, where)


def assert_exact_env(graph, env):
    for name in list(graph.inputs) + [n for n, _ in graph.equations]:
        assert_exact_stream(env[name], name)


def assert_exact_iota(streams):
    """iota of streams against one another is an exact Fraction, over
    pieces bounded by canonical times."""
    space = FiniteSetSpace(tuple(v for s in streams for _, v in s.events) or (UNIT,))
    for lo, hi, _ in ignorance_repr(streams).pieces:
        assert_time(lo, "iota piece")
        assert_time(hi, "iota piece")
    assert type(iota(streams, space)) is F


def graph_of(spec: str, mode: str):
    ast = parse_spec(spec_text(spec))
    if mode == "concrete":
        return flatten(ast)
    return flatten(unroll(abstractify(ast, time_aware=mode == "abstract")))


# -- random traces -----------------------------------------------------------

def _time_text(k: int, as_integer: bool) -> str:
    """k tenths as trace text: "2.3", or "3.0" or "3" when integral."""
    if k % 10 == 0 and as_integer:
        return str(k // 10)
    return f"{k // 10}.{k % 10}"


@st.composite
def trace_texts(draw, decls, gapped: bool):
    """Trace text over decls with times in tenths, integral and not.

    With `gapped`, each stream may get up to two gaps [a, b), none holding
    an event, and Int/Real payloads may be #top.
    """
    lines = [f"stream {name} : {ty}" for name, ty in decls]
    directives = []
    end = 1
    for name, ty in decls:
        ks = sorted(draw(st.sets(st.integers(1, 80), max_size=5)))
        for k in ks:
            if ty == "Unit":
                payload = "()"
            elif gapped and draw(st.integers(0, 4)) == 0:
                payload = "#top"
            elif ty == "Int":
                payload = str(draw(st.integers(1, 5)))
            else:
                payload = f"0.{draw(st.integers(1, 9))}"
            directives.append((k, 1, f"{_time_text(k, draw(st.booleans()))}: "
                                     f"{name} = {payload}"))
        taken = 0
        for a, width in (draw(st.lists(st.tuples(st.integers(1, 80), st.integers(1, 15)),
                                       max_size=2)) if gapped else ()):
            b = a + width
            if a <= taken or any(a <= k < b for k in ks):
                continue
            directives.append((a, 2, f"{_time_text(a, draw(st.booleans()))}: gap {name}"))
            directives.append((b, 0, f"{_time_text(b, draw(st.booleans()))}: known {name}"))
            taken = b
            end = max(end, b)
        end = max([end] + ks)
    end = draw(st.integers(end, end + 15))
    lines += [text for _, _, text in sorted(directives)]
    lines.append(f"progress {_time_text(end, draw(st.booleans()))}")
    return "\n".join(lines) + "\n"


def replay(trace) -> list:
    """Messages that feed a parsed random trace, in time order per stream."""
    timed = []
    for order, (name, _) in enumerate(trace.declarations):
        s = trace.streams[name]
        events = s.stream.events if isinstance(s, AbstractEventStream) else s.events
        timed += [(t, 1, order, Message.event(name, t, v)) for t, v in events]
        if isinstance(s, AbstractEventStream):
            for sp in s.gaps.spans:
                timed.append((sp.lo, 2, order, Message.gap_start(name, sp.lo)))
                if sp.hi < s.progress.time:
                    timed.append((sp.hi, 0, order, Message.gap_end(name, sp.hi)))
    timed.sort(key=lambda x: x[:3])
    end = trace.progress.time
    return [m for *_, m in timed] + [Message.progress(name, end)
                                     for name, _ in trace.declarations]


# -- the checks ----------------------------------------------------------------

class TestCanonicalTime:
    @pytest.mark.parametrize("value, want", [
        (3, 3), (F(6, 2), 3), ("3", 3), ("3.0", 3), (F(7, 10), F(7, 10)),
        ("2.3", F(23, 10))])
    def test_as_time_is_canonical(self, value, want):
        got = as_time(value)
        assert got == want
        assert_time(got, value)

    def test_sums_of_times_stay_canonical(self):
        # a half-unit delay armed at 1/2 times out at 1, an int
        d = EventStream.of([(F(1, 2), F(1, 2))], Progress.infinite())
        r = EventStream.of([(F(1, 2), UNIT)], Progress.infinite())
        out = ops.delay(d, r)
        assert out.events == ((1, UNIT),)
        assert_exact_stream(out, "delay")
        # with a reset gap at 1/2 the timeout is only possible: a gap at 1
        gapped = AbstractEventStream.of(EventStream.of([], Progress.infinite()),
                                        TimeSet.of(point(F(1, 2))))
        for op in (absops.delay_abs, absops.delay_abs_fin):
            z = op(AbstractEventStream.of(d), gapped)
            assert z.gaps == TimeSet.of(point(1))
            assert_exact_stream(z, op.__name__)

    def test_div_of_int_payloads_is_exact(self):
        # payloads built through the library API may be plain ints
        got = lookup("div").concrete(1, 2)
        assert got == F(1, 2) and type(got) is F

    def test_time_payloads_stay_fractions(self):
        # value functions see the payload types they always did
        g = graph_of("variable-period", "concrete")
        tr = parse_trace("stream period : Int\n1: period = 2\nprogress 5\n")
        stamped = evaluate_fixpoint(g, tr.streams)["stamped"]
        assert stamped.events and all(type(v) is F for _, v in stamped.events)


def _bundled_pairs():
    for spec, keys in _TRACE_KEYS.items():
        for key in keys:
            concrete = not parse_trace(trace_text(key)).is_abstract()
            for mode in (["concrete"] if concrete else []) + ["abstract", "untimed"]:
                yield pytest.param(spec, key, mode, id=f"{key}-{mode}")


class TestBundled:
    @pytest.mark.parametrize("spec, key, mode", list(_bundled_pairs()))
    def test_offline(self, spec, key, mode):
        g = graph_of(spec, mode)
        tr = parse_trace(trace_text(key))
        assert_exact_env(g, evaluate_fixpoint(g, tr.streams))


@pytest.mark.parametrize("spec", SPEC_NAMES)
class TestRandomTraces:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_concrete(self, spec, data):
        g = graph_of(spec, "concrete")
        tr = parse_trace(data.draw(trace_texts(DECLS[spec], gapped=False)))
        env = evaluate_fixpoint(g, tr.streams)
        assert_exact_env(g, env)
        for name in g.outputs:
            out = env[name]
            if not out.progress.is_infinite():
                assert_exact_iota([out, EventStream.empty(out.progress)])

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_abstract(self, spec, data):
        g = graph_of(spec, "abstract")
        tr = parse_trace(data.draw(trace_texts(DECLS[spec], gapped=True)))
        assert_exact_env(g, evaluate_fixpoint(g, tr.streams))

    @pytest.mark.parametrize("mode", ["concrete", "abstract"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_online(self, spec, mode, data):
        g = graph_of(spec, mode)
        tr = parse_trace(data.draw(trace_texts(DECLS[spec], gapped=mode == "abstract")))
        monitor = OnlineEvaluator(g)
        for msg in replay(tr):
            for m in monitor.feed(msg):
                if m.time is not INF:
                    assert_time(m.time, m)
                assert_no_float(m.value, m)
        assert_exact_env(g, monitor.env)
