"""Timed queues: recursive definitions, window clamping, abstract soundness."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_path
from gapstream.abstract import AbstractEventStream, refinement_leq
from gapstream.builtin_specs import spec_text
from gapstream.evaluator import evaluate_fixpoint
from gapstream.queues import (AbstractTimedQueue, EMPTY_QUEUE, TimedQueue,
                              _integral_abstract, _integral_concrete,
                              as_abstract_queue, data_timeout, data_timeout_abs,
                              enq, enq_abs, enq_bounded, fold, fold_abs, limit,
                              rem_newer, rem_newer_abs, rem_older, rem_older_abs)
from gapstream.speclang import abstractify, flatten, parse_spec, unroll
from gapstream.timeline import INF
from gapstream.tracefile import parse_trace
from gapstream.values import TOP, Interval


def q(*pairs):
    return TimedQueue(tuple((F(t), v) for t, v in pairs))


class TestConcreteQueue:
    def test_window_integral_clamps_first_entry(self):
        queue = q((1, F("0.3")), (3, F("0.5")), (7, F("0.7")))
        stripped = rem_older(F(5), F(7), queue)
        assert stripped.entries[0] == (F(2), F("0.3"))

        def f(a, b, v, acc):
            return acc + v * (b - a) / 5

        assert fold(f, stripped, F(0), F(7)) == F("0.46")

    def test_rem_older_empty(self):
        assert rem_older(F(5), F(7), EMPTY_QUEUE) == EMPTY_QUEUE

    def test_data_timeout(self):
        assert data_timeout(q((1, "d"))) is INF
        assert data_timeout(q((1, "d"), (3, "e"))) == F(3)
        assert data_timeout(EMPTY_QUEUE) is INF

    def test_window_idempotent(self):
        queue = q((1, F(1)), (3, F(2)), (7, F(3)))
        once = rem_older(F(5), F(7), queue)
        assert rem_older(F(5), F(7), once) == once

    def test_rem_newer(self):
        queue = q((1, F(1)), (3, F(2)), (7, F(3)))
        assert rem_newer(F(4), queue) == q((1, F(1)), (3, F(2)))

    def test_enq_order_enforced(self):
        from gapstream.errors import OperatorError
        with pytest.raises(OperatorError):
            enq(F(1), F(0), q((2, F(1))))


class TestAbstractQueue:
    def test_fig_queue_at_10(self):
        # after the loss: fully unknown before 10, single known entry
        top = AbstractTimedQueue.top()
        narrowed = rem_newer_abs(F(10), top)
        assert narrowed.unknown_before == F(10)
        stripped = rem_older_abs(F(5), F(10), narrowed)
        assert stripped.unknown_before == F(10)
        got = enq_abs(F(10), F("0.4"), stripped)
        assert got.entries == ((F(10), Interval.single(F("0.4"))),)

    def test_unknown_expires_once_window_passes(self):
        queue = AbstractTimedQueue(F(10), ((F(10), Interval.single(F("0.4"))),
                                           (F(13), Interval.single(F("0.3")))))
        got = rem_older_abs(F(5), F(16), queue)
        assert got.unknown_before == 0
        assert got.entries[0][0] == F(11)

    def test_fold_starts_top_when_unknown(self):
        queue = AbstractTimedQueue(F(10), ((F(10), Interval.single(F("0.4"))),))
        seen = []

        def f(a, b, v, acc):
            seen.append(acc)
            return acc

        fold_abs(f, queue, F(0), F(10))
        assert seen == [TOP]

    def test_data_timeout_abs(self):
        assert data_timeout_abs(AbstractTimedQueue.top()) is TOP
        known = as_abstract_queue(q((1, F(1)), (3, F(2))))
        assert data_timeout_abs(known) == F(3)


class TestBoundedEnqueue:
    def test_drop_into_unknown_region(self):
        base = as_abstract_queue(q((1, "a"), (3, "b")))
        got = enq_bounded(F(5), "c", base, 2)
        assert got.unknown_before == F(3)
        assert [t for t, _ in got.entries] == [F(3), F(5)]

    def test_below_capacity_is_plain_enqueue(self):
        base = as_abstract_queue(q((1, F(1))))
        assert enq_bounded(F(5), F(2), base, 3) == enq_abs(F(5), F(2), base)

    def test_bounded_is_sound_coarsening(self):
        # gamma of the bounded result includes everything the plain one has
        base = as_abstract_queue(q((1, F(1)), (3, F(2))))
        plain = enq_abs(F(5), F(3), base)
        bounded = enq_bounded(F(5), F(3), base, 2)
        # every queue matching plain matches bounded: entries >= u as stored
        assert bounded.unknown_before >= plain.unknown_before
        kept = [e for e in plain.entries if e[0] >= bounded.unknown_before]
        assert tuple(kept) == bounded.entries


class TestLimit:
    def test_clamps(self):
        assert limit(F(0), F(1), F(2)) == F(1)
        assert limit(F(0), F(1), F(-1)) == F(0)
        assert limit(F(0), F(1), F("0.5")) == F("0.5")


def window_avg(trace: str, abstract_mode: bool, spec: str = spec_text("queue"),
               time_aware: bool = False):
    """avg of the spec, the bundled queue one by default, on the trace text, concrete or abstract."""
    ast = parse_spec(spec)
    if abstract_mode:
        ast = unroll(abstractify(ast, time_aware))
    return evaluate_fixpoint(flatten(ast), parse_trace(trace).streams)["avg"]


def contains(abstract_value, x) -> bool:
    if abstract_value is TOP:
        return True
    if isinstance(abstract_value, Interval):
        return abstract_value.contains_value(x)
    return abstract_value == x


class TestWindowIntegralLoads:
    """The abstract window_integral on loads outside [0, 1]."""

    def test_exact_loads_outside_unit_are_not_clamped(self):
        trace = ("stream load : Real\n23: load = 2\n25: load = -1\n"
                 "28: load = 0\nprogress 30\n")
        concrete = window_avg(trace, False)
        assert concrete.at(F(28)) == F("0.2")
        assert window_avg(trace, True).stream.events == concrete.events

    def test_top_with_loads_outside_unit_covers_every_instance(self):
        trace = ("stream load : Real\n20: load = #top\n22: load = 3\n"
                 "23: load = 3\n24: load = 0\nprogress 30\n")
        got = window_avg(trace, True).at(F(24))
        assert window_avg(trace.replace("#top", "0.5"), False).at(F(24)) == F("1.4")
        for top in ("0", "0.5", "1"):
            want = window_avg(trace.replace("#top", top), False).at(F(24))
            assert contains(got, want), (top, got, want)

    def test_unit_loads_still_clamp_the_unknown_start(self):
        # everything before 10 is lost, from the strip's cutoff 8 on; the
        # loads in [0, 1] bound the rest
        queue = AbstractTimedQueue(F(10), ((F(10), Interval.single(F("0.4"))),), F(8))
        assert _integral_abstract(F(5))(queue, F(13)) == Interval.of(F("0.24"), F("0.64"))

    def test_a_load_above_one_stops_the_clamp(self):
        # a hidden load of 1 over [8, 10) gives 2/5 + 2/5 + 1/5 = 1
        queue = AbstractTimedQueue(F(10), ((F(10), Interval.single(F(2))),
                                           (F(11), Interval.single(F(1, 2)))), F(8))
        assert _integral_abstract(F(5))(queue, F(13)) == Interval.of(F("0.6"), F(1))

    def test_a_queue_reaching_before_the_window_is_not_clamped(self):
        # the clamp's bound (a - until + k)/k would be negative at a = 2
        queue = AbstractTimedQueue(F(2), ((F(2), Interval.single(F(1, 2))),))
        assert _integral_abstract(F(5))(queue, F(10)) is TOP
        # stripping to 8 time units but integrating 5 keeps such queues
        spec = spec_text("queue").replace("window_strip(5)", "window_strip(8)")
        full = ("stream load : Real\n1: load = 0.5\n3: load = 0.5\n5: load = 0.5\n"
                "12: load = 0.5\nprogress 14\n")
        gapped = full.replace("3: load = 0.5\n", "3: gap load\n4: known load\n")
        got = window_avg(gapped, True, spec)
        assert got.stream.events[-1] == (F(12), TOP)
        assert refinement_leq(AbstractEventStream.of(window_avg(full, False, spec)), got)

    @pytest.mark.parametrize("time_aware", [False, True])
    def test_hidden_entries_before_the_window_stop_the_clamp(self, time_aware):
        # stripped to 8 time units, the queue at 7 keeps the load of 1 from 1
        # on, which the integral over 5 folds; with that load hidden, the
        # only stored entry, at 7, lies inside the window [2, 7], but the
        # hidden one may lie from the cutoff -1 on
        spec = spec_text("queue").replace("window_strip(5)", "window_strip(8)")
        full = "stream load : Real\n1: load = 1\n7: load = 0.1\nprogress 10\n"
        gapped = full.replace("1: load = 1\n", "1: gap load\n2: known load\n")
        concrete = window_avg(full, False, spec)
        assert concrete.at(F(7)) == F("1.2")
        got = window_avg(gapped, True, spec, time_aware)
        assert refinement_leq(AbstractEventStream.of(concrete), got)

    def test_a_strip_records_its_cutoff(self):
        stripped = rem_older_abs(F(8), F(7), rem_newer_abs(F(7), AbstractTimedQueue.top()))
        assert (stripped.unknown_before, stripped.hidden_from) == (F(7), F(-1))
        assert _integral_abstract(F(5))(enq_abs(F(7), F(1, 10), stripped), F(7)) is TOP
        assert AbstractTimedQueue.top().hidden_from is None


# -- properties of the abstract integral ------------------------------------

UNTIL = F(10)
WINDOW = st.sampled_from([F(1), F(2), F(5)])
_LOADS = st.builds(F, st.integers(-4, 6), st.sampled_from([1, 2]))
EXACT_LOADS = st.one_of(_LOADS, st.integers(-2, 3))
_TIMES = st.lists(st.sampled_from([F(k, 2) for k in range(0, 21)]),
                  unique=True, min_size=1, max_size=4).map(sorted)
ABSTRACT_LOADS = st.one_of(
    _LOADS.map(Interval.single),
    st.lists(_LOADS, min_size=2, max_size=2, unique=True).map(lambda b: Interval(*sorted(b))),
    st.just(Interval.top()),
)
TOP_INSTANCES = (F(0), F(1, 2), F(1))     # #top and hidden loads lie in [0, 1]


def instances(load):
    """A few concrete loads the abstract load stands for, its bounds among them."""
    if load.is_top():
        return TOP_INSTANCES
    return (load.lo, (load.lo + load.hi) / 2, load.hi)


@given(WINDOW, _TIMES, st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_integral_equals_concrete(k, times, data):
    queue = TimedQueue(tuple((t, data.draw(EXACT_LOADS)) for t in times))
    got = _integral_abstract(k)(queue, UNTIL)
    want = _integral_concrete(k)(queue, UNTIL)
    assert type(got) is type(want) is F
    assert got == want


@given(WINDOW, _TIMES, st.booleans(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integral_fast_path_equals_interval_path(k, times, hidden, data):
    entries = tuple((t, data.draw(ABSTRACT_LOADS)) for t in times if t >= UNTIL - k)
    queue = AbstractTimedQueue(entries[0][0] if hidden and entries else F(0), entries,
                               UNTIL - k)
    fast = _integral_abstract(k)(queue, UNTIL)
    with interval_path():
        general = _integral_abstract(k)(queue, UNTIL)
    assert type(fast) is type(general)
    assert fast == general


@given(WINDOW, _TIMES, st.booleans(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integral_covers_its_instances(k, times, hidden, data):
    """Every stripped concrete queue the abstract one stands for integrates inside it."""
    entries = tuple((t, data.draw(ABSTRACT_LOADS)) for t in times if t >= UNTIL - k)
    start = entries[0][0] if hidden and entries else F(0)
    got = _integral_abstract(k)(AbstractTimedQueue(start, entries, UNTIL - k), UNTIL)
    prefix = (((UNTIL - k, data.draw(st.sampled_from(TOP_INSTANCES))),)
              if start > UNTIL - k else ())
    chosen = tuple((t, data.draw(st.sampled_from(instances(v)))) for t, v in entries)
    concrete = TimedQueue(prefix + chosen)
    assert contains(got, _integral_concrete(k)(concrete, UNTIL))
