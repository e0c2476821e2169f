"""Fixed-point and online evaluation."""

import random
from fractions import Fraction as F

import pytest

from gapstream.builtin_specs import spec_text, trace_text
from gapstream.errors import NonTermination, OutOfOrderInput
from gapstream.evaluator import (Message, OnlineEvaluator, evaluate_fixpoint,
                                 evaluate_online)
from gapstream.speclang import SpecGraph, abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.tracefile import parse_trace
from gapstream.values import UNIT

APP_A = parse_spec(spec_text("running-count"))


class TestFixpoint:
    def test_running_count(self):
        x = EventStream.of([(2, UNIT), (4, UNIT)], Progress.infinite())
        env = evaluate_fixpoint(flatten(APP_A), {"x": x})
        assert env["y"] == EventStream.of(
            [(0, F(0)), (2, F(1)), (4, F(2))], Progress.infinite())
        assert env["__sweeps__"] <= 6

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
        from gapstream.evaluator import _eval_concrete
        env = {n: tr.streams[n] for n in g.inputs}
        for name, _ in g.equations:
            env[name] = EventStream.empty()
        for _ in range(20):
            changed = False
            for name, app in g.equations:
                def get(i, app=app):
                    return env[app.args[i].name]
                new = _eval_concrete(app, get)
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

    def test_out_of_order_rejected(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        ev.feed(Message.event("x", 5, UNIT))
        with pytest.raises(OutOfOrderInput) as e:
            ev.feed(Message.event("x", 3, UNIT))
        assert "x" in str(e.value)

    def test_unknown_stream_rejected(self):
        g = flatten(APP_A)
        ev = OnlineEvaluator(g)
        with pytest.raises(OutOfOrderInput):
            ev.feed(Message.event("zz", 1, UNIT))

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

    def test_generator_interface(self):
        g = flatten(APP_A)
        msgs = [Message.event("x", 2, UNIT), Message.progress("x", 9)]
        got = list(evaluate_online(g, msgs))
        assert any(m.kind == "event" and m.time == F(2) for m in got)


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
