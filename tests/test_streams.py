"""Stream core: three-way view, ticks, prefixes, signal values."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_streams
from gapstream.streams import EventStream, Progress
from gapstream.values import BOTTOM, UNIT, UNKNOWN


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
        assert s.tick_set() == {F(1), F("2.3")}

    def test_empty(self):
        assert EventStream.empty().tick_set() == set()

    def test_nil_has_none(self):
        from gapstream.ops import nil
        assert nil().tick_set() == set()


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
        with pytest.raises(ValueError):
            EventStream.of([(2, UNIT), (2, UNIT)])

    def test_events_within_progress(self):
        with pytest.raises(ValueError):
            EventStream.of([(3, UNIT)], Progress.exclusive(3))
