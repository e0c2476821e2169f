"""Trace file parsing, serialization, and error reporting."""

from fractions import Fraction as F

import pytest

from gapstream.abstract import AbstractEventStream
from gapstream.errors import OutOfOrderInput, TraceError, UndeclaredStream
from gapstream.tracefile import format_time, parse_trace, serialize_trace
from gapstream.timeline import Span, TimeSet
from gapstream.values import GAP, TOP, UNIT, Interval


GOOD = """\
stream values : Int
stream resets : Unit
1: values = 3
2.3: values = 2
5: values = #top
9: gap values
10: known values
12: resets = ()
progress 14
"""

# under infinite progress a gap with no known line runs to infinity
OPEN_GAP = """\
stream values : Int
stream resets : Unit
1: values = 3
2: resets = ()
5: gap values
progress inf
"""


class TestParse:
    def test_events_and_gaps(self):
        tr = parse_trace(GOOD)
        v = tr.streams["values"]
        assert isinstance(v, AbstractEventStream)
        assert v.stream.events == ((F(1), F(3)), (F("2.3"), F(2)), (F(5), TOP))
        assert v.gaps == TimeSet.of(Span(F(9), True, F(10), False))
        assert tr.streams["resets"].events == ((F(12), UNIT),)

    def test_point_gap_convention(self):
        tr = parse_trace("stream s : Int\n5: gap s\n6: known s\nprogress 9\n")
        s = tr.streams["s"]
        assert s.at(5) is GAP and s.at(F("5.5")) is GAP
        assert s.at(6) is not GAP

    def test_event_punches_gap(self):
        tr = parse_trace("stream s : Int\n8: gap s\n9: s = #top\n"
                         "10: known s\nprogress 12\n")
        s = tr.streams["s"]
        assert s.at(9) is TOP
        assert s.at(F("8.5")) is GAP and s.at(F("9.5")) is GAP

    def test_interval_literals(self):
        tr = parse_trace("stream s : Interval\n1: s = [0.24, 0.64]\n"
                         "2: s = 3\nprogress 9\n")
        ev = tr.streams["s"].stream.events
        assert ev[0][1] == Interval.of(F("0.24"), F("0.64"))
        assert ev[1][1] == Interval.single(3)

    def test_missing_progress(self):
        with pytest.raises(TraceError):
            parse_trace("stream s : Int\n1: s = 1\n")

    def test_duplicate_progress(self):
        # a stray early footer is reported, not overridden by the last one
        with pytest.raises(TraceError, match="^line 4: duplicate progress directive$"):
            parse_trace("stream x : Int\nprogress 3\n1: x = 1\nprogress 10\n")

    def test_undeclared_stream(self):
        with pytest.raises(UndeclaredStream):
            parse_trace("stream s : Int\n1: zz = 1\nprogress 2\n")

    def test_out_of_order(self):
        with pytest.raises(OutOfOrderInput):
            parse_trace("stream s : Int\n3: s = 1\n1: s = 2\nprogress 5\n")

    @pytest.mark.parametrize("text, lineno", [
        ("stream s : Interval\n1: s = [3, 1]\nprogress 5\n", 2),
        ("stream s : Interval\n1: s = [inf, inf]\nprogress 5\n", 2),
        ("stream s : Interval\n1: s = [-inf, -inf]\nprogress 5\n", 2),
        ("stream s : Int\n1: s = 1\nprogress\n", 3),
        ("stream s : Int\nprogress 3\n5: s = 1\n", 3),
    ])
    def test_bad_line_is_typed(self, text, lineno):
        with pytest.raises(TraceError) as e:
            parse_trace(text)
        assert str(e.value).startswith(f"line {lineno}: ")

    def test_type_checking(self):
        with pytest.raises(TraceError):
            parse_trace("stream s : Int\n1: s = 1.5\nprogress 5\n")
        with pytest.raises(TraceError):
            parse_trace("stream s : Bool\n1: s = 7\nprogress 5\n")


class TestInputRule:
    """A directive at t is accepted only where the stream's progress does
    not yet decide t; errors name the offending line."""

    @staticmethod
    def rejected(body, progress="9"):
        with pytest.raises(OutOfOrderInput) as e:
            parse_trace(f"stream x : Int\n{body}progress {progress}\n")
        return str(e.value)

    def test_gap_already_open(self):
        msg = self.rejected("1: gap x\n3: gap x\n")
        assert msg.startswith("line 3: ") and "already open" in msg

    def test_no_gap_to_close(self):
        msg = self.rejected("1: x = 1\n3: known x\n")
        assert msg.startswith("line 3: ") and "no open gap" in msg

    def test_event_then_gap_at_the_same_time(self):
        # the event decides 2, so no gap may start there
        assert self.rejected("2: x = 1\n2: gap x\n").startswith("line 3: ")

    @pytest.mark.parametrize("second", ["2: x = 1", "2: known x"])
    def test_gap_then_directive_at_the_same_time(self, second):
        # the gap start decides 2: no event is punched in at its start,
        # and no empty gap ends there
        assert self.rejected(f"2: gap x\n{second}\n").startswith("line 3: ")

    @pytest.mark.parametrize("body, line", [
        ("1: gap x\n12: known x\n", 3),
        ("1: x = 1\n12: gap x\n", 3),
        ("12: x = 1\n", 2),
    ])
    def test_directive_past_the_progress_footer(self, body, line):
        assert self.rejected(body, progress="10").startswith(f"line {line}: ")

    @pytest.mark.parametrize("second, events, gaps", [
        ("2: x = 1", ((2, F(1)),), [Span(1, True, 2, False)]),
        ("2: gap x", (), [Span(1, True, 3, True)]),
    ])
    def test_known_then_directive_at_the_same_time(self, second, events, gaps):
        # a gap end decides only the times below it
        s = parse_trace(f"stream x : Int\n1: gap x\n2: known x\n{second}\n"
                        "progress 3\n").streams["x"]
        assert s.stream.events == events
        assert s.gaps == TimeSet(gaps)


class TestSerialize:
    def test_round_trip_canonical_file(self):
        for src in (GOOD, OPEN_GAP):
            tr = parse_trace(src)
            text = serialize_trace(tr.declarations, tr.streams, tr.epsilon, tr.progress)
            again = parse_trace(text)
            assert again.streams == tr.streams
            assert serialize_trace(again.declarations, again.streams,
                                   again.epsilon, again.progress) == text
        assert text == OPEN_GAP

    def test_fractional_epsilon(self):
        src = ("stream s : Real\nepsilon 1/10\n1.5: s = 0.25\n"
               "2: gap s\n2.3: known s\nprogress 4\n")
        tr = parse_trace(src)
        text = serialize_trace(tr.declarations, tr.streams, tr.epsilon, tr.progress)
        assert parse_trace(text).streams == tr.streams

    def test_format_time(self):
        assert format_time(F("2.3")) == "2.3"
        assert format_time(F(5)) == "5"
        assert format_time(F(1, 3)) == "1/3"
