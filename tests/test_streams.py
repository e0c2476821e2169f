"""Stream core: three-way view, ticks, prefixes, signal values."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_streams
from gapstream import ops
from gapstream.abstract import AbstractEventStream
from gapstream.errors import OperatorError
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, Span, TimeSet
from gapstream.values import BOTTOM, TOP, UNIT, UNKNOWN


def ev(*pairs, prog=None):
    return EventStream.of(pairs, prog if prog is not None else Progress.infinite())


class TestStreamAt:
    def test_event_value(self):
        s = ev((2, UNIT), (4, UNIT))
        assert s.at(2) is UNIT

    def test_covered_non_event(self):
        s = ev((2, UNIT), (4, UNIT))
        assert s.at(3) is BOTTOM

    def test_beyond_exclusive_progress(self):
        s = EventStream.of([(1, F(1))], Progress.exclusive(5))
        assert s.at(5) is UNKNOWN
        assert s.at(F("4.9")) is BOTTOM

    def test_inclusive_progress_boundary(self):
        s = EventStream.of([], Progress.inclusive_at(5))
        assert s.at(5) is BOTTOM
        assert s.at(F("5.1")) is UNKNOWN


class TestTicks:
    def test_fig_values_prefix(self):
        s = ev((1, F(3)), (F("2.3"), F(2)))
        assert s.ticks() == (F(1), F("2.3"))

    def test_empty(self):
        assert EventStream.empty().ticks() == ()

    def test_nil_has_none(self):
        from gapstream.ops import nil
        assert nil().ticks() == ()


def _linear_at(s, t):
    if not s.progress.covers(t):
        return UNKNOWN
    for et, v in s.events:
        if et == t:
            return v
    return BOTTOM


def _probe_times(s) -> list:
    """s's ticks, the points between and just past them, its progress and beyond."""
    ticks = s.ticks()
    horizon = s.progress.time if s.progress.time is not INF else F(8)
    probes = {F(0), horizon, horizon + 1, horizon + F(1, 3), *ticks}
    probes.update(F(a + b, 2) for a, b in zip(ticks, ticks[1:]))
    probes.update(t + F(1, 7) for t in ticks)
    return sorted(probes)


def _linear_before(s, t):
    best = None
    for et, v in s.events:
        if et < t:
            best = (et, v)
    return best


class TestIndexedLookups:
    """The cached tick indexes answer as a linear scan of the events does."""

    @given(event_streams(max_events=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_agree_with_linear_scan(self, s, as_int):
        assert s.ticks() == tuple(t for t, _ in s.events)
        for t in _probe_times(s):
            probe = int(t) if as_int and t.denominator == 1 else F(t)
            assert s.at(probe) == _linear_at(s, t)
            assert s.last_event_before(probe) == _linear_before(s, t)
        assert s.last_event_before(INF) == (s.events[-1] if s.events else None)

    def test_indexes_are_not_fields(self):
        a = ev((1, F(3)), (2, F(4)))
        b = ev((1, F(3)), (2, F(4)))
        a.at(2)
        assert a == b and hash(a) == hash(b)


class TestProgress:
    """Progress is a value: ordered by (time, inclusive), equal and hashed by
    its fields, copied and pickled as itself."""

    LADDER = [Progress.exclusive(0), Progress.inclusive_at(0), Progress.exclusive(F(1, 2)),
              Progress.inclusive_at(F(1, 2)), Progress.exclusive(3), Progress.inclusive_at(3),
              Progress.infinite()]

    def test_order(self):
        # exclusive t < inclusive t < exclusive t' for t < t' < infinite
        for i, a in enumerate(self.LADDER):
            for j, b in enumerate(self.LADDER):
                assert (a < b, a <= b, a == b, a >= b, a > b) == (i < j, i <= j, i == j,
                                                                  i >= j, i > j), (a, b)
        assert sorted(reversed(self.LADDER)) == self.LADDER
        assert max(self.LADDER) == Progress.infinite()
        assert min(self.LADDER) == Progress.exclusive(0)

    @given(st.sampled_from([0, 1, F(3, 2), INF]), st.booleans(),
           st.sampled_from([0, 1, F(3, 2), INF]), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equal_fields_equal_values(self, t, inc, u, inc2):
        a, b = Progress(t, inc), Progress(u, inc2)
        assert (a == b) is ((t, inc) == (u, inc2)) and (a != b) is not (a == b)
        if a == b:
            assert hash(a) == hash(b)
        assert hash(a) == hash((t, inc))

    @pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                           lambda p: pickle.loads(pickle.dumps(p))])
    def test_roundtrips(self, roundtrip):
        for p in self.LADDER:
            back = roundtrip(p)
            assert back == p and hash(back) == hash(p) and type(back) is Progress
            assert back.time == p.time and back.inclusive is p.inclusive
        assert roundtrip(Progress.infinite()).time is INF

    def test_repr(self):
        assert [repr(p) for p in self.LADDER] == [
            "prog(<0)", "prog(<=0)", "prog(<1/2)", "prog(<=1/2)", "prog(<3)", "prog(<=3)",
            "prog(inf)"]
        assert repr(ev((1, F(2)), prog=Progress.exclusive(4))) == "<1:Fraction(2, 1) | prog(<4)>"

    def test_stream_equality_and_hash(self):
        # a stream hashes as the tuple of its fields, progress as (time, inclusive)
        a = ev((1, F(2)), prog=Progress.inclusive_at(3))
        assert hash(a) == hash((a.events, (3, True)))
        assert a == ev((1, 2), prog=Progress(3, True))
        assert a != ev((1, F(2)), prog=Progress.exclusive(3))


class TestEquality:
    """Progress is compared first; equality and hashing stay structural."""

    def test_progress_differs(self):
        a = ev((1, F(2)), prog=Progress.exclusive(3))
        b = ev((1, F(2)), prog=Progress.inclusive_at(3))
        assert a != b and not a == b

    def test_payload_differs(self):
        assert ev((1, F(2))) != ev((1, F(3)))
        assert ev((1, F(2))) != ev((2, F(2)))

    def test_fraction_and_int_payloads(self):
        a, b = ev((1, F(2))), ev((1, 2))
        assert a == b and hash(a) == hash(b)

    def test_other_types(self):
        s = ev((1, F(2)))
        assert s != (s.events, s.progress) and s != None  # noqa: E711

    def test_operator_output_hashes_as_of(self):
        built = ops.lift(lambda v: v + 1, ev((1, F(1)), (3, F(4)), prog=Progress.inclusive_at(5)))
        given = ev((1, F(2)), (3, F(5)), prog=Progress.inclusive_at(5))
        assert built == given and given == built
        assert hash(built) == hash(given)
        assert ops.time(given) == ev((1, F(1)), (3, F(3)), prog=Progress.inclusive_at(5))

    @pytest.mark.parametrize("roundtrip", [copy.copy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_roundtrips(self, roundtrip):
        of = ev((1, F(2)), (F(5, 2), F(1)), prog=Progress.exclusive(4))
        built = ops.time(of)
        units = ev((1, UNIT), (F(5, 2), UNIT), prog=Progress.exclusive(4))
        tops = AbstractEventStream.of(ev((1, TOP), (F(5, 2), F(1)), prog=Progress.exclusive(4)),
                                      TimeSet.of(Span(F(3, 2), True, 2, False)))
        for s in (of, built, units, tops):
            back = roundtrip(s)
            assert back == s and hash(back) == hash(s)
            assert back.ticks() == s.ticks() == (1, F(5, 2))
        # the markers are singletons, compared by identity
        assert roundtrip(units).events[0][1] is UNIT
        assert roundtrip(tops).stream.events[0][1] is TOP

    @given(event_streams(max_events=3), event_streams(max_events=3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_fields(self, a, b):
        same = (a.events, a.progress) == (b.events, b.progress)
        assert (a == b) is same and (a != b) is not same
        if same:
            assert hash(a) == hash(b)


class TestPrefix:
    def test_iteration_prefixes(self):
        y4 = EventStream.of([(0, F(0)), (2, F(1)), (4, F(2))],
                            Progress.exclusive(F(9, 2)))
        y5 = EventStream.of([(0, F(0)), (2, F(1)), (4, F(2))], Progress.infinite())
        assert y4.is_prefix(y5)
        assert not y5.is_prefix(y4)

    def test_reflexive(self):
        s = ev((1, F(3)))
        assert s.is_prefix(s)

    def test_conflicting_value(self):
        a = ev((1, F(3)))
        b = ev((1, F(4)))
        assert not a.is_prefix(b)

    @given(event_streams(), event_streams(), event_streams())
    @settings(max_examples=150, deadline=None)
    def test_partial_order(self, a, b, c):
        assert a.is_prefix(a)
        if a.is_prefix(b) and b.is_prefix(a):
            assert a == b
        if a.is_prefix(b) and b.is_prefix(c):
            assert a.is_prefix(c)


class TestSignalValue:
    def setup_method(self):
        self.a = ev((0, F(0)), (1, F(2)), (2, F(1)), prog=Progress.inclusive_at(6))

    def test_between_events(self):
        assert self.a.signal_value(F("1.5")) == F(2)

    def test_no_event_strictly_before(self):
        assert self.a.signal_value(0) is BOTTOM

    def test_holds_after_last(self):
        # linear scan oracle: latest event strictly before 4 is (2, 1)
        best = None
        for t, v in self.a.events:
            if t < 4:
                best = v
        assert best == F(1)
        assert self.a.signal_value(4) == F(1)

    @given(event_streams(), st.sampled_from([F(1), F(2), F(3), F(5)]))
    @settings(max_examples=100, deadline=None)
    def test_piecewise_constant(self, s, t2):
        # no tick in [t1, t2) means the signal is the same at both ends
        t1 = t2 - F(1, 2)
        if any(t1 <= t < t2 for t in s.ticks()):
            return
        assert s.signal_value(t1) == s.signal_value(t2) or \
            s.signal_value(t1) is s.signal_value(t2)


class TestOrderingInvariant:
    @given(event_streams())
    @settings(max_examples=100, deadline=None)
    def test_no_unknown_before_known(self, s):
        pts = sorted({F(k, 2) for k in range(0, 16)})
        seen_unknown = False
        for t in pts:
            cell = s.at(t)
            if cell is UNKNOWN:
                seen_unknown = True
            else:
                assert not seen_unknown, "known cell after an unknown one"

    def test_events_must_increase(self):
        with pytest.raises(OperatorError):
            EventStream.of([(2, UNIT), (2, UNIT)])

    def test_events_within_progress(self):
        with pytest.raises(OperatorError):
            EventStream.of([(3, UNIT)], Progress.exclusive(3))


class TestVersions:
    """of, extended, truncated and with_payloads: every version of a
    stream is built from the last, checking only what it appends."""

    base = EventStream.of([(1, F(1)), (3, F(2))], Progress.inclusive_at(4))

    @pytest.mark.parametrize("events", [[(-1, UNIT)], [("x", UNIT)], [(None, UNIT)]])
    def test_of_rejects_a_bad_time(self, events):
        with pytest.raises(OperatorError, match="bad event time"):
            EventStream.of(events)

    def test_extended_appends_and_carries_the_ticks(self):
        s = self.base.extended([(5, F(3)), (6, F(4))], Progress.exclusive(7))
        assert s == EventStream.of([(1, F(1)), (3, F(2)), (5, F(3)), (6, F(4))],
                                   Progress.exclusive(7))
        assert s.ticks() == (1, 3, 5, 6)

    @pytest.mark.parametrize("events", [[(3, UNIT)], [(2, UNIT)], [(5, UNIT), (5, UNIT)],
                                        [(6, UNIT), (5, UNIT)]])
    def test_extended_checks_the_order_from_the_last_tick(self, events):
        with pytest.raises(OperatorError, match="strictly increase"):
            self.base.extended(events, Progress.infinite())

    def test_extended_checks_the_progress(self):
        with pytest.raises(OperatorError, match="beyond progress"):
            self.base.extended([(5, UNIT)], Progress.exclusive(5))

    def test_extended_by_nothing_is_the_stream(self):
        assert self.base.extended([], self.base.progress) is self.base

    def test_extended_by_progress_alone_copies_no_tuple(self):
        s = self.base.extended([], Progress.infinite())
        assert s.progress == Progress.infinite()
        assert s.events is self.base.events and s.ticks() is self.base.ticks()

    @pytest.mark.parametrize("prog", [Progress.exclusive(0), Progress.exclusive(3),
                                      Progress.inclusive_at(3), Progress.exclusive(4),
                                      Progress.inclusive_at(F(7, 2))])
    def test_truncated_keeps_the_covered_events(self, prog):
        s = self.base.truncated(prog)
        assert s.progress == prog
        assert s.events == tuple((t, v) for t, v in self.base.events if prog.covers(t))
        assert s.ticks() == tuple(t for t, _ in s.events)

    @pytest.mark.parametrize("prog", [Progress.inclusive_at(2), Progress.exclusive(3),
                                      Progress.infinite()])
    def test_truncated_refuses_a_progress_above_its_own(self, prog):
        # a cut claiming more than the stream decides would read BOTTOM at 3
        s = EventStream.of([(1, 5)], Progress.exclusive(2))
        assert s.at(3) is UNKNOWN
        with pytest.raises(OperatorError, match="above its own progress"):
            s.truncated(prog)

    def test_truncated_shares_what_it_keeps(self):
        assert self.base.truncated(self.base.progress) is self.base
        s = self.base.truncated(Progress.exclusive(4))
        assert s.events is self.base.events and s.ticks() is self.base.ticks()

    def test_with_payloads_shares_the_ticks(self):
        s = self.base.with_payloads(((1, UNIT), (3, UNIT)))
        assert s.events == ((1, UNIT), (3, UNIT)) and s.progress == self.base.progress
        assert s.ticks() is self.base.ticks()
