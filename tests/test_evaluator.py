"""Fixed-point and online evaluation."""

import copy
import functools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import period_trace
from gapstream import absops, evaluator, ops, speclang
from gapstream.abstract import AbstractEventStream, covered_span
from gapstream.builtin_specs import _TRACE_KEYS, spec_text, trace_text
from gapstream.errors import (NonTermination, OperatorError, OutOfOrderInput, TraceError,
                              UndeclaredStream)
from gapstream.evaluator import Message, OnlineEvaluator, evaluate_fixpoint
from gapstream.speclang import SpecGraph, abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, Span, TimeSet, as_time
from gapstream.tracefile import format_time, parse_trace
from gapstream.values import TOP, UNIT

APP_A = parse_spec(spec_text("running-count"))
RESET_SUM = parse_spec(spec_text("reset-sum"))
RESET_SUM_GRAPHS = {
    "concrete": flatten(RESET_SUM),
    "abstract": flatten(unroll(abstractify(RESET_SUM, time_aware=True))),
}


class TestFixpoint:
    def test_running_count(self):
        x = EventStream.of([(2, UNIT), (4, UNIT)], Progress.infinite())
        env = evaluate_fixpoint(flatten(APP_A), {"x": x})
        assert env["y"] == EventStream.of(
            [(0, F(0)), (2, F(1)), (4, F(2))], Progress.infinite())
        assert env["__sweeps__"] <= 6

    @pytest.mark.parametrize("abstract", [
        AbstractEventStream.of(EventStream.of([(2, UNIT)], Progress.inclusive_at(6)),
                               TimeSet.of(Span(3, True, 4, False))),
        AbstractEventStream.of(EventStream.of([(2, UNIT), (4, TOP)], Progress.infinite())),
    ])
    def test_concrete_mode_rejects_abstract_inputs(self, abstract):
        with pytest.raises(OperatorError, match="cannot take abstract inputs"):
            evaluate_fixpoint(flatten(APP_A), {"x": abstract})

    def test_concrete_mode_takes_a_gap_free_abstract_input_as_its_stream(self):
        x = AbstractEventStream.of(EventStream.of([(2, UNIT), (4, UNIT)], Progress.exclusive(9)))
        assert evaluate_fixpoint(flatten(APP_A), {"x": x}) == \
            evaluate_fixpoint(flatten(APP_A), {"x": x.stream})

    def test_fig1_sum_row(self):
        ast = parse_spec(spec_text("reset-sum"))
        tr = parse_trace(trace_text("reset-sum-fig"))
        env = evaluate_fixpoint(flatten(ast), tr.streams)
        want = [(F(1), F(0)), (F("2.3"), F(2)), (F("3.7"), F(6)),
                (F("4.6"), F(13)), (F("5.8"), F(16)), (F(7), F(0)),
                (F("7.5"), F(1)), (F("8.3"), F(4))]
        assert list(env["sum"].events) == want

    def test_order_independence(self):
        ast = parse_spec(spec_text("reset-sum"))
        tr = parse_trace(trace_text("reset-sum-fig"))
        base = evaluate_fixpoint(flatten(ast), tr.streams)
        g = flatten(ast)
        rng = random.Random(7)
        for _ in range(4):
            eqs = list(g.equations)
            rng.shuffle(eqs)
            shuffled = SpecGraph(ast=g.ast, inputs=g.inputs,
                                 equations=tuple(eqs), outputs=g.outputs)
            env = evaluate_fixpoint(shuffled, tr.streams)
            assert env["sum"] == base["sum"] and env["cond"] == base["cond"]

    def test_prefix_monotone_iteration(self):
        # every variable's stream grows by prefix extension across sweeps
        ast = parse_spec(spec_text("reset-sum"))
        tr = parse_trace(trace_text("reset-sum-fig"))
        g = flatten(ast)
        from gapstream.evaluator import _Equation, _eval_concrete
        env = {n: tr.streams[n] for n in g.inputs}
        for name, _ in g.equations:
            env[name] = EventStream.empty()
        for _ in range(20):
            changed = False
            for name, app in g.equations:
                # from empty: no current value to resume from, a new holder
                new = _eval_concrete(_Equation(name, app, True, {}),
                                     {**env, name: EventStream.empty()})
                assert env[name].is_prefix(new), f"{name} shrank"
                changed = changed or new != env[name]
                env[name] = new
            if not changed:
                break

    def test_missing_input(self):
        from gapstream.errors import OperatorError
        with pytest.raises(OperatorError):
            evaluate_fixpoint(flatten(APP_A), {})

    def test_nontermination_guard(self):
        # a self-arming delay generates events forever; the sweep bound
        # converts the unbounded iteration into a diagnostic
        ast = parse_spec(
            "in y : Events[Unit]\n"
            "def x := merge(unit(), delay(const(1)(x), merge(unit(), y)))\n"
            "out x\n")
        with pytest.raises(NonTermination) as err:
            evaluate_fixpoint(flatten(ast),
                              {"y": EventStream.of([], Progress.infinite())},
                              max_sweeps=30)
        changing = str(err.value).split("still changing in the last sweep: ")[1]
        assert "x" in changing.split(", ")

    def test_unguarded_cycle_nontermination(self):
        # the plain abstract delay has no guarded position, so this cycle has
        # no unguarded order and is swept in declaration order until the bound
        ast = abstractify(parse_spec(
            "in y : Events[Unit]\n"
            "def x := merge(unit(), delay(const(1)(x), merge(unit(), y)))\n"
            "out x\n"))
        with pytest.raises(NonTermination) as err:
            evaluate_fixpoint(flatten(ast),
                              {"y": EventStream.of([], Progress.infinite())},
                              max_sweeps=30)
        changing = str(err.value).split("still changing in the last sweep: ")[1]
        assert "x" in changing.split(", ")

    def test_user_names_beside_fresh_names(self):
        # a declared __t1 must not collide with flatten's names for nested terms
        ast = parse_spec("in x : Events[Int]\n"
                         "def __t1 := const(5)(x)\n"
                         "def y := lift(add)(__t1, lift(inc)(x))\n"
                         "out __t1\nout y\n")
        x = EventStream.of([(1, F(1)), (3, F(2))], Progress.infinite())
        env = evaluate_fixpoint(flatten(ast), {"x": x})
        assert env["__t1"] == EventStream.of([(1, F(5)), (3, F(5))], Progress.infinite())
        assert env["y"] == EventStream.of([(1, F(7)), (3, F(8))], Progress.infinite())

    def test_unguarded_cycle_converges_to_empty(self):
        # the least fixed point of an unguarded merge loop never progresses
        ast = parse_spec("in y : Events[Int]\n"
                         "def x := merge(lift(inc)(x), y)\nout x\n")
        env = evaluate_fixpoint(
            flatten(ast), {"y": EventStream.of([(1, F(0))], Progress.infinite())})
        assert env["x"].events == () and env["x"].progress.time == 0


def _unscheduled_fixpoint(graph, inputs):
    """The plain iteration: sweep all equations in declaration order until
    a sweep changes nothing."""
    env = {n: evaluator._embed(inputs[n], graph.ast.mode) for n in graph.inputs}
    for name, _ in graph.equations:
        env[name] = evaluator._empty(graph.ast.mode)
    concrete = graph.ast.mode != "abstract"
    apply = evaluator._eval_concrete if concrete else evaluator._eval_abstract
    empty = evaluator._empty(graph.ast.mode)
    changed = True
    while changed:
        changed = False
        for name, app in graph.equations:
            # every evaluation from empty: no current value to resume from, a
            # new holder
            new = apply(evaluator._Equation(name, app, concrete, {}), {**env, name: empty})
            changed = changed or new != env[name]
            env[name] = new
    return env


def _bundled_runs():
    """(graph, inputs) of every bundled pair: abstract and unrolled, with
    and without the time-aware rewrites, and concrete where the trace has
    no gaps."""
    for spec, keys in _TRACE_KEYS.items():
        ast = parse_spec(spec_text(spec))
        for key in keys:
            tr = parse_trace(trace_text(key))
            if not tr.is_abstract():
                yield pytest.param(flatten(ast), tr.streams, id=f"{key}-concrete")
            yield pytest.param(flatten(unroll(abstractify(ast, time_aware=True))),
                               tr.streams, id=f"{key}-abstract")
            yield pytest.param(flatten(unroll(abstractify(ast))),
                               tr.streams, id=f"{key}-abstract-untimed")


def _extends(old, new) -> bool:
    """new agrees with old wherever old is decided, gaps included."""
    if isinstance(old, EventStream):
        return old.is_prefix(new)
    return (old.stream.is_prefix(new.stream)
            and new.gaps.intersect(covered_span(old.progress)) == old.gaps)


class TestSchedule:
    def test_non_recursive_equations_evaluated_once(self, monkeypatch):
        calls = {"time": 0, "cond": 0, "sum": 0}
        time, slift = ops.time, ops.slift

        def counting_time(*args, **kwargs):
            calls["time"] += 1
            return time(*args, **kwargs)

        def counting_slift(f, *streams, **kwargs):
            calls["cond" if len(streams) == 2 else "sum"] += 1
            return slift(f, *streams, **kwargs)

        monkeypatch.setattr(ops, "time", counting_time)
        monkeypatch.setattr(ops, "slift", counting_slift)
        tr = parse_trace(trace_text("reset-sum-fig"))
        env = evaluate_fixpoint(RESET_SUM_GRAPHS["concrete"], tr.streams)
        assert calls["time"] == 2 and calls["cond"] == 1
        # the confirming sweep re-evaluates only last(sum, values)
        assert 1 < calls["sum"] < env["__sweeps__"]

    def test_long_chain_needs_no_recursion(self):
        # each step reads the next, so the component walk goes n deep
        n = 5000
        env = {f"s{i}": None for i in range(n)}
        calls = []
        nodes = {f"s{i}": ([f"s{i + 1}"] if i + 1 < n else [], ()) for i in range(n)}
        compute = {f"s{i}": lambda i=i: calls.append(i) or i for i in range(n)}
        plan = speclang.sweep_plan(nodes)
        assert evaluator._run_plan(env, compute, plan, speclang.readers(nodes), set(nodes),
                                   3, "unused") == 1
        assert calls == list(reversed(range(n)))
        assert env["s0"] == 0

    @pytest.mark.parametrize("graph, inputs", list(_bundled_runs()))
    def test_reevaluations_extend_the_previous_value(self, graph, inputs, monkeypatch):
        # change detection that compares only sizes and progress is sound
        # only if every iterate of a recursive component extends the last
        sweep = evaluator._sweep_component
        failures = []

        def checked(env, compute, name):
            def run():
                old, new = env[name], compute[name]()
                if not _extends(old, new):
                    failures.append((name, old, new))
                return new
            return run

        def checking_sweep(env, compute, order, *rest):
            wrapped = dict(compute)
            wrapped.update({name: checked(env, compute, name) for name in order})
            return sweep(env, wrapped, order, *rest)

        monkeypatch.setattr(evaluator, "_sweep_component", checking_sweep)
        evaluate_fixpoint(graph, inputs)
        assert failures == []

    @pytest.mark.parametrize("graph, inputs", list(_bundled_runs()))
    def test_matches_unscheduled_iteration(self, graph, inputs):
        # every equation, in declaration order and in three shuffled orders
        want = _unscheduled_fixpoint(graph, inputs)
        for seed in (None, 1, 2, 3):
            eqs = list(graph.equations)
            if seed is not None:
                random.Random(seed).shuffle(eqs)
            g = SpecGraph(ast=graph.ast, inputs=graph.inputs,
                          equations=tuple(eqs), outputs=graph.outputs)
            env = evaluate_fixpoint(g, inputs)
            for name, _ in graph.equations:
                assert env[name] == want[name], (seed, name)


class TestOnline:
    def test_replay_matches_offline(self):
        ast = parse_spec(spec_text("reset-sum"))
        tr = parse_trace(trace_text("reset-sum-fig"))
        g = flatten(ast)
        msgs = []
        for name, s in tr.streams.items():
            for t, v in s.events:
                msgs.append(Message.event(name, t, v))
        msgs.sort(key=lambda m: m.time)
        for name in tr.streams:
            msgs.append(Message.progress(name, tr.progress.time))
        ev = OnlineEvaluator(g)
        seen = []
        for m in msgs:
            seen.extend(ev.feed(m))
        offline = evaluate_fixpoint(g, tr.streams)
        online_events = [(m.stream, m.time, m.value)
                         for m in seen if m.kind == "event"]
        for out in g.outputs:
            got = [(t, v) for s, t, v in online_events if s == out]
            assert got == list(offline[out].truncated(tr.progress).events)

    def test_emission_no_later_than_watermark(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        out = ev.feed(Message.event("x", 2, UNIT))
        # the event at 0 and at 2 are both decided once x reaches 2
        assert {(m.kind, m.time) for m in out} >= {("event", F(0)), ("event", F(2))}

    def test_empty_feed_progress_only(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        got = ev.feed(Message.progress("x", 9))
        kinds = {m.kind for m in got}
        assert kinds <= {"progress", "event"}

    @pytest.mark.parametrize("first", [F(10), INF])
    def test_progress_moving_backwards_rejected(self, first):
        ev = OnlineEvaluator(flatten(APP_A))
        ev.feed(Message.progress("x", first))
        with pytest.raises(OutOfOrderInput, match="watermark moved backwards"):
            ev.feed(Message.progress("x", 5))
        assert ev.state["x"].progress == (Progress.infinite() if first is INF
                                          else Progress.inclusive_at(first))
        ev.feed(Message.progress("x", first))   # repeating it is no move

    def test_out_of_order_rejected(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        ev.feed(Message.event("x", 5, UNIT))
        with pytest.raises(OutOfOrderInput) as e:
            ev.feed(Message.event("x", 3, UNIT))
        assert "x" in str(e.value)

    def test_decided_timestamp_not_revised(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        out = []
        for m in (Message.event("resets", 1, UNIT), Message.event("values", 1, F(3)),
                  Message.progress("values", 4), Message.progress("resets", 4)):
            out += ev.feed(m)
        assert ("progress", "sum", F(4)) in {(m.kind, m.stream, m.time) for m in out}
        with pytest.raises(OutOfOrderInput) as e:
            ev.feed(Message.event("values", 4, F(5)))
        assert "values" in str(e.value)
        # the rejected event left no trace: the next one extends the input
        out = ev.feed(Message.event("values", 5, F(5)))
        out += ev.feed(Message.progress("resets", 5))
        assert [(m.time, m.value) for m in out if m.kind == "event"
                and m.stream == "sum"] == [(F(5), F(5))]

    def test_decided_gap_time_not_revised(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["abstract"])
        ev.feed(Message.event("values", 1, F(1)))
        with pytest.raises(OutOfOrderInput):
            ev.feed(Message.gap_start("values", 1))
        ev.feed(Message.gap_start("values", 2))
        ev.feed(Message.progress("values", 3))
        # 3 is decided as inside the gap; the gap cannot end there any more
        with pytest.raises(OutOfOrderInput):
            ev.feed(Message.gap_end("values", 3))
        ev.feed(Message.gap_end("values", 4))
        assert ev.env["values"].gaps == TimeSet.of(Span(F(2), True, F(4), False))

    def test_gap_end_waits_for_the_gap_to_end(self):
        # progress inside an open gap cuts the gap's span off at the
        # watermark; that is not where the gap ends
        g = flatten(abstractify(parse_spec(
            "in x : Events[Int]\ndef y := lift(inc)(x)\nout y\n")))
        ev = OnlineEvaluator(g)
        out = []
        for m in (Message.event("x", 1, F(1)), Message.gap_start("x", 2),
                  Message.progress("x", 3), Message.progress("x", 4),
                  Message.gap_end("x", 5), Message.event("x", 6, F(2))):
            out += ev.feed(m)
        assert [(m.kind, m.time) for m in out if m.kind.startswith("gap")] == [
            ("gap_start", F(2)), ("gap_end", F(5))]

    def test_schedule_built_once(self, monkeypatch):
        built = []
        components = speclang._components
        monkeypatch.setattr(speclang, "_components",
                            lambda reads: built.append(reads) or components(reads))
        ev = OnlineEvaluator(flatten(RESET_SUM))
        for m in (Message.event("resets", 1, UNIT), Message.event("values", 1, F(3)),
                  Message.progress("values", 4), Message.progress("resets", 4)):
            ev.feed(m)
        assert len(built) == 1

    @pytest.mark.parametrize("make", [
        lambda: Message.progress("values", -1),
        lambda: Message.event("values", -1, F(1)),
        lambda: Message.gap_start("values", -1),
        lambda: Message.gap_end("values", -1),
    ])
    def test_negative_message_time_is_typed(self, make):
        with pytest.raises(TraceError) as e:
            make()
        assert "'values'" in str(e.value) and "-1" in str(e.value)

    def test_non_time_fed_is_typed(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        with pytest.raises(TraceError) as e:
            ev.feed(Message("event", "values", "x", 3))
        assert "'values'" in str(e.value) and "'x'" in str(e.value)
        # the rejected message left no trace
        assert ev.state["values"].stream(False).events == ()

    @pytest.mark.parametrize("value", [0.1, F(5, 2), "3"])
    def test_payload_not_of_the_declared_type_is_typed(self, value):
        # values is Int, as a trace file's `1: values = 0.1` is rejected
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        ev.feed(Message.event("values", 1, F(1)))
        with pytest.raises(TraceError) as e:
            ev.feed(Message.event("values", 2, value))
        assert "'values'" in str(e.value) and "Int" in str(e.value)
        # the rejected message left no trace
        assert ev.state["values"].stream(False).events == ((1, F(1)),)

    @pytest.mark.parametrize("ty, text, value", [
        ("Int", "2", F(2)), ("Int", "0.5", F(1, 2)), ("Int", "#top", TOP),
        ("Real", "0.5", F(1, 2)), ("Unit", "()", UNIT), ("Unit", "3", F(3)),
        ("Bool", "true", True), ("AbsBool", "1", F(1)), ("Interval", "2", F(2)),
        ("Interval", "#top", TOP)])
    def test_payload_rule_is_the_trace_files(self, ty, text, value):
        g = flatten(abstractify(parse_spec(f"in x : Events[{ty}]\ndef y := merge(x)\nout y\n")))
        try:
            want = parse_trace(f"stream x : {ty}\n1: x = {text}\nprogress 1\n").streams["x"]
            want = evaluator._embed(want, "abstract")
        except TraceError:
            want = None
        ev = OnlineEvaluator(g)
        try:
            ev.feed(Message.event("x", 1, value))
            got = ev.env["x"]
        except TraceError:
            got = None
        assert got == want

    def test_abstract_payload_on_concrete_input_is_typed(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        with pytest.raises(TraceError, match="'values'"):
            ev.feed(Message.event("values", 1, TOP))

    def test_non_message_fed_is_typed(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        with pytest.raises(TraceError, match="tuple"):
            ev.feed(("event", "values", 1, 2))

    def test_unknown_stream_rejected(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        # as parse_trace rejects a line on an undeclared stream
        with pytest.raises(UndeclaredStream, match="unknown input stream 'zz'"):
            ev.feed(Message.event("zz", 1, UNIT))

    def test_gap_end_without_gap_rejected(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["abstract"])
        ev.feed(Message.event("values", 1, F(1)))
        with pytest.raises(OutOfOrderInput) as e:
            ev.feed(Message.gap_end("values", 2))
        assert "'values'" in str(e.value) and "no open gap" in str(e.value)

    def test_second_gap_start_rejected(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["abstract"])
        ev.feed(Message.gap_start("values", 1))
        with pytest.raises(OutOfOrderInput) as e:
            ev.feed(Message.gap_start("values", 2))
        assert "'values'" in str(e.value) and "already open" in str(e.value)
        # the rejected message left no trace: the gap still runs from 1
        ev.feed(Message.gap_end("values", 3))
        assert ev.env["values"].gaps == TimeSet.of(Span(1, True, 3, False))

    def test_event_punches_open_gap(self):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["abstract"])
        for m in (Message.gap_start("values", 8), Message.event("values", 9, TOP),
                  Message.gap_end("values", 10), Message.progress("values", 12)):
            ev.feed(m)
        want = parse_trace("stream values : Int\n8: gap values\n9: values = #top\n"
                           "10: known values\nprogress 12\n").streams["values"]
        assert ev.env["values"] == want
        assert want.gaps == TimeSet([Span(8, True, 9, False), Span(9, False, 10, False)])

    def test_abstract_gap_messages(self):
        ast = abstractify(parse_spec(spec_text("reset-sum")))
        g = flatten(unroll(ast))
        ev = OnlineEvaluator(g)
        out = []
        out += ev.feed(Message.event("resets", 0, UNIT))
        out += ev.feed(Message.event("values", 1, F(1)))
        out += ev.feed(Message.gap_start("values", 2))
        out += ev.feed(Message.gap_end("values", 3))
        out += ev.feed(Message.progress("values", 5))
        out += ev.feed(Message.progress("resets", 5))
        kinds = {(m.kind, m.stream, m.time) for m in out}
        assert ("gap_start", "sum", F(2)) in kinds
        assert ("gap_end", "sum", F(3)) in kinds


@st.composite
def reset_sum_messages(draw, gaps: bool):
    """Time-ordered messages on reset-sum's inputs with random heartbeats;
    with `gaps`, also gap_start/gap_end pairs and #top values."""
    msgs = []
    in_gap = {"values": False, "resets": False}
    t = F(0)
    for _ in range(draw(st.integers(1, 8))):
        t += draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
        for name in draw(st.permutations(["values", "resets"])):
            kind = draw(st.sampled_from(["event", "event", "progress", "none"]
                                        + (["gap"] if gaps else [])))
            if kind == "gap":
                msgs.append((Message.gap_end if in_gap[name] else Message.gap_start)(name, t))
                in_gap[name] = not in_gap[name]
            elif kind == "event" and not in_gap[name]:
                value = UNIT if name == "resets" else F(draw(st.integers(0, 3)))
                if gaps and name == "values" and draw(st.booleans()):
                    value = TOP
                msgs.append(Message.event(name, t, value))
            elif kind == "progress":
                msgs.append(Message.progress(name, t))
    if draw(st.booleans()):
        msgs += [Message.progress(name, INF) for name in in_gap if not in_gap[name]]
    return msgs


def _received(msgs, mode):
    """The input streams that a message prefix describes, built directly."""
    out = {}
    for name in ("values", "resets"):
        events, spans, prog, gap_from = [], [], Progress.exclusive(0), None
        for m in msgs:
            if m.stream != name:
                continue
            if m.kind == "event":
                events.append((m.time, m.value))
            if m.kind == "gap_start":
                gap_from = m.time
            if m.kind == "gap_end":
                spans.append(Span(gap_from, True, m.time, False))
                gap_from = None
            prog = (Progress.infinite() if m.time is INF
                    else Progress(m.time, m.kind != "gap_end"))
        stream = EventStream.of(events, prog)
        if mode == "abstract":
            if gap_from is not None:
                spans.append(Span(gap_from, True, INF, False))
            stream = AbstractEventStream.of(stream, TimeSet(spans))
        out[name] = stream
    return out


class TestWarmStart:
    """Each warm-started online fixed point equals the fixed point from
    empty streams over the same input prefix, message for message."""

    @pytest.mark.parametrize("mode", ["concrete", "abstract"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_online_equals_offline_on_every_prefix(self, mode, data):
        g = RESET_SUM_GRAPHS[mode]
        msgs = data.draw(reset_sum_messages(gaps=mode == "abstract"))
        ev = OnlineEvaluator(g)
        emitted = {n: [] for n in g.outputs}
        gap_ends = {n: set() for n in g.outputs}
        for k, msg in enumerate(msgs):
            for m in ev.feed(msg):
                if m.kind == "event":
                    emitted[m.stream].append((m.time, m.value))
                elif m.kind == "gap_end":
                    gap_ends[m.stream].add(m.time)
            offline = evaluate_fixpoint(g, _received(msgs[:k + 1], mode))
            for name, _ in g.equations:
                assert ev.env[name] == offline[name], (k, name)
            for name in g.outputs:
                stream = offline[name]
                stream = stream.stream if mode == "abstract" else stream
                assert emitted[name] == list(stream.events), (k, name)
        if mode == "abstract" and msgs:
            # a gap end is emitted only once the gap has really ended
            for name in g.outputs:
                assert gap_ends[name] <= {sp.hi for sp in offline[name].gaps.spans}, name


def _as_text(directives, footer) -> str:
    """A trace file with the directives, in order, and the progress footer."""
    lines = ["stream x : Int", "stream y : Int"]
    for name, kind, t, v in directives:
        at = format_time(t)
        if kind == "event":
            lines.append(f"{at}: {name} = {'#top' if v is TOP else format_time(v)}")
        else:
            lines.append(f"{at}: {'gap' if kind == 'gap_start' else 'known'} {name}")
    lines.append(f"progress {'inf' if footer is INF else format_time(footer)}")
    return "\n".join(lines) + "\n"


def _as_messages(directives, footer) -> list:
    """The same directives as online messages; the footer as progress."""
    make = {"event": Message.event, "gap_start": Message.gap_start,
            "gap_end": Message.gap_end}
    msgs = [make[kind](name, t, v) if kind == "event" else make[kind](name, t)
            for name, kind, t, v in directives]
    return msgs + [Message.progress(name, footer) for name in ("x", "y")]


@st.composite
def directive_runs(draw):
    """Interleaved directives on x and y with int and half-unit times,
    punches and same-time orders, and a progress footer.  Mostly valid: one
    draw in ten takes any kind at a nearby time, and footers may lie below
    the last directive."""
    clock = {"x": F(0), "y": F(0)}
    in_gap = {"x": False, "y": False}
    free = {"x": True, "y": True}   # whether the clock's time is undecided
    directives = []
    for _ in range(draw(st.integers(0, 10))):
        name = draw(st.sampled_from(["x", "y"]))
        if draw(st.integers(0, 9)) == 0:
            kind = draw(st.sampled_from(["event", "gap_start", "gap_end"]))
            step = draw(st.sampled_from([F(-1, 2), F(0), F(1, 2)]))
        else:
            kind = draw(st.sampled_from(["event", "gap_end"] if in_gap[name]
                                        else ["event", "event", "gap_start"]))
            step = draw(st.sampled_from([F(0), F(1, 2), F(1)] if free[name]
                                        else [F(1, 2), F(1), F(3, 2)]))
        clock[name] = max(F(0), clock[name] + step)
        in_gap[name] = kind == "gap_start" or in_gap[name] and kind == "event"
        free[name] = kind == "gap_end"
        value = draw(st.sampled_from([TOP, F(0), F(1), F(2)]))
        directives.append((name, kind, clock[name], value))
    top = max(clock.values())
    footer = draw(st.sampled_from([INF, top, top + F(1, 2), top + 2,
                                   max(F(0), top - F(1, 2))]))
    return directives, footer


class TestOneInputRule:
    """Trace files and online messages build inputs by one rule."""

    GRAPH = flatten(abstractify(parse_spec(
        "in x : Events[Int]\nin y : Events[Int]\ndef z := merge(x, y)\nout z\n")))

    @given(run=directive_runs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_file_and_messages_agree(self, run):
        directives, footer = run
        try:
            trace, file_error = parse_trace(_as_text(directives, footer)), None
        except TraceError as e:
            trace, file_error = None, e
        ev = OnlineEvaluator(self.GRAPH)
        online_error = None
        for m in _as_messages(directives, footer):
            try:
                ev.feed(m)
            except TraceError as e:
                online_error = e
                break
        assert type(file_error) is type(online_error), (file_error, online_error)
        if trace is not None:
            for name in ("x", "y"):
                want = evaluator._embed(trace.streams[name], "abstract")
                assert ev.env[name] == want, name


def _bundled_gapped():
    """(spec, trace) of every bundled trace with a gap."""
    for spec, keys in sorted(_TRACE_KEYS.items()):
        for key in keys:
            streams = parse_trace(trace_text(key)).streams.values()
            if any(isinstance(s, AbstractEventStream) and not s.gaps.is_empty()
                   for s in streams):
                yield spec, key


def _directive_messages(text: str):
    """The parsed trace, and its directives as messages in file order, then
    its footer as a progress message on every stream."""
    trace = parse_trace(text)
    msgs = []
    for line in text.splitlines():
        m = re.fullmatch(r"\s*([^:#]+):\s*(?:(gap|known)\s+(\w+)|(\w+)\s*=.*)", line)
        if m is None:
            continue
        t = as_time(m.group(1).strip())
        if m.group(2):
            make = Message.gap_start if m.group(2) == "gap" else Message.gap_end
            msgs.append(make(m.group(3), t))
        else:
            msgs.append(Message.event(m.group(4), t, trace.streams[m.group(4)].at(t)))
    return trace, msgs + [Message.progress(n, trace.progress.time) for n in trace.streams]


class TestGappedReplay:
    """Online == offline on every bundled gapped trace, message by message."""

    @pytest.mark.parametrize("time_aware", [False, True])
    @pytest.mark.parametrize("spec, key", list(_bundled_gapped()))
    def test_replay_in_directive_order(self, spec, key, time_aware):
        ast = abstractify(parse_spec(spec_text(spec)), time_aware=time_aware)
        g = flatten(unroll(ast))
        trace, msgs = _directive_messages(trace_text(key))
        ev = OnlineEvaluator(g)
        names = [n for n, _ in g.equations] + list(g.inputs)
        for k, msg in enumerate(msgs):
            ev.feed(msg)
            received = {n: b.stream(True) for n, b in ev.state.items()}
            offline = evaluate_fixpoint(g, received)
            for name in names:
                assert ev.env[name] == offline[name], (k, name)
        offline = evaluate_fixpoint(g, trace.streams)
        for name in names:
            assert ev.env[name] == offline[name], name


class TestTwoMonitors:
    def test_alternating_feeds_emit_what_each_emits_alone(self):
        # the delay state lives in each evaluator, so two monitors fed in
        # turn in one process do not see each other's sweeps
        g = flatten(unroll(abstractify(parse_spec(spec_text("variable-period")))))
        runs = [_directive_messages(trace_text("variable-period-gapped"))[1],
                _directive_messages(period_trace(6))[1]]
        alone = []
        for run in runs:
            ev = OnlineEvaluator(g)
            alone.append([ev.feed(m) for m in run])
        evs = [OnlineEvaluator(g), OnlineEvaluator(g)]
        together = [[], []]
        for k in range(max(map(len, runs))):
            for i, run in enumerate(runs):
                if k < len(run):
                    together[i].append(evs[i].feed(run[k]))
        assert together == alone


class TestConcreteDelayResumes:
    """The concrete delay keeps its sweep in a holder, as the abstract one
    does, and a resumed sweep gives what a fresh ops.delay call gives."""

    GRAPH = flatten(parse_spec(spec_text("variable-period")))

    def delays(self, env):
        """(kept value, fresh ops.delay of its arguments) for each delay equation."""
        for name, app in self.GRAPH.equations:
            if app.op == "delay":
                d, r = self.GRAPH.nodes[name][0]
                yield env[name], ops.delay(env[d], env[r])

    def test_offline_sweeps(self):
        env = evaluate_fixpoint(self.GRAPH, parse_trace(period_trace(12, lost=False)).streams)
        assert env["__sweeps__"] > 2
        for kept, fresh in self.delays(env):
            assert kept == fresh

    def test_online_feeds(self, monkeypatch):
        trace, msgs = _directive_messages(period_trace(8, lost=False))
        ev = OnlineEvaluator(self.GRAPH)
        delay, calls, fed = ops.delay, [], []
        monkeypatch.setattr(ops, "delay", lambda d, r, **kw: (
            calls.append(kw.get("state")), delay(d, r, **kw))[1])
        for msg in msgs:
            calls.clear()
            ev.feed(msg)
            fed += calls
            for kept, fresh in self.delays(ev.env):
                assert kept == fresh, msg
        # the monitor passes the one delay equation the same holder on every
        # call, from feed to feed
        assert fed and fed[0] is not None and all(h is fed[0] for h in fed)
        offline = evaluate_fixpoint(self.GRAPH, trace.streams)
        for name, _ in self.GRAPH.equations:
            assert ev.env[name] == offline[name], name

    def test_atoms_grow_about_linearly(self, monkeypatch):
        atoms = []
        atom = absops._DelaySweep.atom
        monkeypatch.setattr(absops._DelaySweep, "atom",
                            lambda self, *cells: (atoms.append(1), atom(self, *cells))[1])
        counts = []
        for n in (8, 16):
            atoms.clear()
            evaluate_fixpoint(self.GRAPH, parse_trace(period_trace(n, lost=False)).streams)
            counts.append(len(atoms))
        assert 0 < counts[1] <= 2.5 * counts[0], counts


def reset_sum_trace(n: int) -> str:
    """A reset-sum trace of n values, one every two time units, with a reset at every seventh."""
    lines = ["stream values : Int", "stream resets : Unit"]
    for i in range(n):
        lines.append(f"{2 * i + 1}: values = {1 + i % 9}")
        if i % 7 == 0:
            lines.append(f"{2 * i + 1}: resets = ()")
    return "\n".join(lines + [f"progress {2 * n + 1}"]) + "\n"


def count_walked(monkeypatch, add) -> None:
    """Call add() once per walk of slift_abs's atoms or of the lifts' ticks, and once per atom or tick.

    A walk is counted too, because a feed that only moves the progress
    walks no tick on the tick path but still enters its walk.
    """
    synchronized_atoms, tick_cells = absops._synchronized_atoms, absops._tick_cells

    def counting(walk):
        def counted(*args):
            add()
            for item in walk(*args):
                add()
                yield item
        return counted

    monkeypatch.setattr(absops, "_synchronized_atoms", counting(synchronized_atoms))
    monkeypatch.setattr(absops, "_tick_cells", counting(tick_cells))


class TestConcreteResetSumWork:
    """The concrete lift, slift and last resume, so over one offline fixed
    point of reset-sum, which takes about n sweeps, the trigger ticks
    last_abs walks and the atoms or ticks the lifts walk grow with n, not
    with n squared."""

    def test_walks_grow_about_linearly(self, monkeypatch):
        ticks, atoms = [], []
        last_values = absops._last_values

        def counting_ticks(v, walked, taint):
            ticks.append(len(walked))
            return last_values(v, walked, taint)

        monkeypatch.setattr(absops, "_last_values", counting_ticks)
        count_walked(monkeypatch, lambda: atoms.append(1))
        counts = []
        for n in (40, 80):
            ticks.clear()
            atoms.clear()
            env = evaluate_fixpoint(RESET_SUM_GRAPHS["concrete"],
                                    parse_trace(reset_sum_trace(n)).streams)
            assert env["__sweeps__"] > n
            counts.append((sum(ticks), len(atoms)))
        (ticks_n, atoms_n), (ticks_2n, atoms_2n) = counts
        assert 0 < ticks_2n <= 2.5 * ticks_n, counts
        assert 0 < atoms_2n <= 2.5 * atoms_n, counts

    def test_no_gap_state_on_gap_free_arguments(self, monkeypatch):
        # no argument of a concrete evaluation has a gap span, so last reads
        # its value stream's events by one pointer and slift carries only the
        # latest values: neither builds marks nor carries gap state
        calls = []
        for name in ("_marks", "_carried"):
            def counted(*args, kernel=getattr(absops, name), name=name):
                calls.append(name)
                return kernel(*args)
            monkeypatch.setattr(absops, name, counted)
        for n in (40, 80):
            env = evaluate_fixpoint(RESET_SUM_GRAPHS["concrete"],
                                    parse_trace(reset_sum_trace(n)).streams)
            assert env["__sweeps__"] > n
            assert env["sum"].events
        assert calls == []


def reset_sum_replay(n: int) -> list:
    """reset_sum_trace(n) as messages in time order, with a progress
    heartbeat on both inputs every two time units and a last progress at
    the trace's end, as perfbench replays its traces."""
    trace = parse_trace(reset_sum_trace(n))
    names = ("values", "resets")
    end = trace.progress.time
    timed = [(t, 0, k, Message.event(name, t, v)) for k, name in enumerate(names)
             for t, v in trace.streams[name].events]
    timed += [(h, 1, k, Message.progress(name, h)) for h in range(2, end, 2)
              for k, name in enumerate(names)]
    timed.sort(key=lambda x: x[:3])
    return [m for *_, m in timed] + [Message.progress(name, end) for name in names]


# (evaluations, sweeps) of evaluate_fixpoint on each bundled pair
OFFLINE_EVALUATIONS = {
    "running-count-concrete": (12, 4), "running-count-abstract": (22, 4),
    "running-count-abstract-untimed": (22, 4), "reset-sum-fig-concrete": (30, 9),
    "reset-sum-fig-abstract": (53, 9), "reset-sum-fig-abstract-untimed": (55, 9),
    "reset-sum-gapped-abstract": (53, 9), "reset-sum-gapped-abstract-untimed": (55, 9),
    "reset-sum-ign-abstract": (23, 4), "reset-sum-ign-abstract-untimed": (25, 4),
    "reset-count-gapped-abstract": (23, 4), "reset-count-gapped-abstract-untimed": (25, 4),
    "filter-example-gapped-abstract": (6, 1), "filter-example-gapped-abstract-untimed": (7, 1),
    "variable-period-gapped-abstract": (63, 9),
    "variable-period-gapped-abstract-untimed": (63, 9),
    "bursts-gapped-abstract": (41, 6), "bursts-gapped-abstract-untimed": (42, 6),
    "queue-fig-abstract": (62, 8), "queue-fig-abstract-untimed": (62, 8),
    "finite-queue-fig-abstract": (62, 8), "finite-queue-fig-abstract-untimed": (62, 8),
    "self-updating-queue-gapped-abstract": (115, 7),
    "self-updating-queue-gapped-abstract-untimed": (115, 7),
}


class TestChangeDriven:
    """A feed evaluates only the marked equations, over the run state kept
    from the last feed: the readers of each input it changed, and of each
    equation whose value changed."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The operator evaluations, as (operator, argument names) per call."""
        calls = []
        evaluate = evaluator._eval_concrete

        def counting(app, *args, **kwargs):
            calls.append((app.op, tuple(a.name for a in app.args)))
            return evaluate(app, *args, **kwargs)

        monkeypatch.setattr(evaluator, "_eval_concrete", counting)
        return calls

    def test_constants_evaluated_once(self, evaluations):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        for m in reset_sum_replay(12):
            ev.feed(m)
        assert evaluations.count(("unit", ())) == 1
        assert sum(op == "const" for op, _ in evaluations) == 1

    def test_message_on_values_skips_time_of_resets(self, evaluations):
        # the first feed has no record yet, so it evaluates every equation
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        for k, m in enumerate(reset_sum_replay(12)):
            evaluations.clear()
            ev.feed(m)
            if k and m.stream == "values":
                assert ("time", ("resets",)) not in evaluations, m
                assert ("time", ("values",)) in evaluations, m

    def test_replay_evaluation_count(self, evaluations):
        # evaluating every equation on every message, and every member of
        # the recursive component in its first sweep, made 371 here
        msgs = reset_sum_replay(12)
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        for m in msgs:
            ev.feed(m)
        assert len(msgs) == 40
        assert len(evaluations) == 214

    def test_feed_that_changes_no_input_evaluates_nothing(self, evaluations):
        ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
        for m in reset_sum_replay(12)[:10]:
            ev.feed(m)
        ev.feed(Message.progress("values", 9))
        before = dict(ev.env)
        evaluations.clear()
        assert ev.feed(Message.progress("values", 9)) == []
        assert evaluations == []
        assert all(ev.env[n] is s for n, s in before.items() if n != "__sweeps__")

    def test_equal_result_keeps_its_object_and_spares_its_readers(self, monkeypatch):
        # time(resets) gives a copy of its value, equal to it but another
        # object, as an operator that rebuilt its output would
        g = RESET_SUM_GRAPHS["concrete"]
        calls = []
        evaluate = evaluator._eval_concrete

        def rebuilding(eq, env):
            calls.append((eq.op, tuple(a.name for a in eq.args)))
            if eq.names == ("resets",):
                return copy.copy(env[eq.name])
            return evaluate(eq, env)

        ev = OnlineEvaluator(g)
        for m in reset_sum_replay(12)[:10]:
            ev.feed(m)
        name = next(n for n, app in g.equations if app.op == "time"
                    and app.args[0].name == "resets")
        assert g.readers[name] == ("cond",)
        held = ev.env[name]
        monkeypatch.setattr(evaluator, "_eval_concrete", rebuilding)
        ev.feed(Message.event("resets", 20, UNIT))
        assert calls == [("time", ("resets",))]
        assert ev.env[name] is held

    @pytest.mark.parametrize("graph, inputs", list(_bundled_runs()))
    def test_offline_evaluation_count(self, graph, inputs, request, monkeypatch):
        # the evaluations and sweeps each bundled pair's fixed point makes
        calls = []
        for dispatch in ("_eval_concrete", "_eval_abstract"):
            def counting(eq, env, evaluate=getattr(evaluator, dispatch)):
                calls.append(eq.op)
                return evaluate(eq, env)
            monkeypatch.setattr(evaluator, dispatch, counting)
        env = evaluate_fixpoint(graph, inputs)
        run = request.node.callspec.id
        assert (len(calls), env["__sweeps__"]) == OFFLINE_EVALUATIONS[run]

    def test_feed_after_a_raise_starts_afresh(self, monkeypatch):
        # one evaluation raises after its operator ran, as an operator that
        # fails part way through would; the next feed must not climb from
        # that iteration, and every later output equals an unbroken run's
        from gapstream.errors import OperatorError
        g = RESET_SUM_GRAPHS["concrete"]
        calls, fail = [], []
        evaluate = evaluator._eval_concrete

        def failing(app, *args, **kwargs):
            calls.append(app.op)
            out = evaluate(app, *args, **kwargs)
            if fail and app.op == "last":
                fail.clear()
                raise OperatorError("injected")
            return out

        monkeypatch.setattr(evaluator, "_eval_concrete", failing)
        msgs = reset_sum_replay(12)
        ev, unbroken = OnlineEvaluator(g), OnlineEvaluator(g)
        got, want = [], []
        for k, m in enumerate(msgs):
            want += unbroken.feed(m)
            if k == 20:
                fail.append(True)
                with pytest.raises(OperatorError):
                    ev.feed(m)
                assert not fail
                continue
            calls.clear()
            got += ev.feed(m)
            if k == 21:
                assert calls.count("unit") == 1, calls    # evaluated from empty
        key = lambda m: (m.stream, m.kind, m.time)
        assert sorted(got, key=key) == sorted(want, key=key)
        offline = evaluate_fixpoint(g, {n: b.stream(False) for n, b in ev.state.items()})
        for name, _ in g.equations:
            assert ev.env[name] == offline[name], name

    def test_last_feed_work_is_flat(self, monkeypatch):
        # the trigger ticks last_abs walks, the atoms slift_abs synchronizes
        # or ticks the lifts walk, and the events a tick index is built
        # from, in the last feed only
        work = {"ticks": 0, "atoms": 0, "indexed": 0}
        last_values = absops._last_values
        index = EventStream._ticks.func

        def counting_ticks(v, walked, taint):
            work["ticks"] += len(walked)
            return last_values(v, walked, taint)

        def counting_atoms():
            work["atoms"] += 1

        def counting_index(s):
            work["indexed"] += len(s.events)
            return index(s)

        monkeypatch.setattr(absops, "_last_values", counting_ticks)
        count_walked(monkeypatch, counting_atoms)
        prop = functools.cached_property(counting_index)
        prop.__set_name__(EventStream, "_ticks")
        monkeypatch.setattr(EventStream, "_ticks", prop)
        last = []
        for n in (12, 50):
            msgs = reset_sum_replay(n)
            ev = OnlineEvaluator(RESET_SUM_GRAPHS["concrete"])
            for m in msgs:
                work.update(ticks=0, atoms=0, indexed=0)
                ev.feed(m)
            last.append((len(msgs), dict(work)))
        (short, small), (long, large) = last
        assert (short, long) == (40, 160)
        assert small == large and small["atoms"] > 0, last


class TestSelfUpdatingWindow:
    def test_update_event_when_element_leaves(self):
        # with no losses, the delay-driven variant emits extra averages at
        # times where the input has no event: the moments elements age out
        ast = parse_spec(spec_text("self-updating-queue"))
        trace_text_ = (
            "stream load : Real\n"
            "1: load = 0.5\n"
            "3: load = 0.2\n"
            "progress 12\n")
        from gapstream.tracefile import parse_trace as pt
        tr = pt(trace_text_)
        env = evaluate_fixpoint(flatten(ast), tr.streams)
        avg_times = [t for t, _ in env["avg"].events]
        load_times = {F(1), F(3)}
        extra = [t for t in avg_times if t not in load_times]
        assert extra, "expected delay-driven updates beyond the input events"
        assert F(8) in extra  # the (3, 0.2) entry leaves the 5-unit window
        got = dict(env["avg"].events)
        assert got[F(8)] == F("0.2")
