"""Concrete timed event streams with explicit progress.

A stream is a strictly time-ascending sequence of (timestamp, value) events
together with a progress marker saying how far its contents are decided:
exclusive at t (everything strictly below t is known), inclusive at t, or
infinite.  Viewed as a function of time, a stream yields the event value at
event timestamps, BOTTOM at covered non-event timestamps and UNKNOWN beyond
its progress.  Progress is totally ordered, with the ordinary operators:
exclusive at t below inclusive at t, and infinity above both, so a prefix of
a stream has the smaller progress.  It is the named tuple (time, inclusive),
so that order, equality, hashing and construction are the tuple's, which
run in C: the fixed point compares and builds progress on every evaluation.
Like any tuple it equals a plain tuple of the same fields.

Streams are immutable; operators build new ones.  Fixed-point evaluation
relies on comparing successive prefixes, so equality is structural; it
compares the progress first, so successive prefixes of one stream, which
differ mostly in progress, are told apart without comparing payloads.  The
lookup index, the tick tuple that at, signal_value and last_event_before
bisect, is built on first use and cached on the instance, or handed over
from the version a stream was built from; it is not a field, so equality
and hashing ignore it.

Streams grow by prefix extension, so every version is built here, from
the last: of checks a whole stream at the public boundary, as the empty
stream extended by its events; extended appends events, checking only
those, and carries the ticks; truncated cuts a stream to a lower progress
at one bisect; with_payloads puts new payloads on a stream's own ticks.
No other module knows the layout, events beside their tick tuple, and the
rule that events ascend under the progress is written once, in extended.

A concrete stream is its own gap-free abstract stream: its gaps are the
one empty TimeSet every EventStream shares, and its stream is itself.  So
every absops operator takes an EventStream as it is, with no wrapper, and
decides there exactly what the concrete semantics does, and code that reads
a stream's .stream and .gaps needs no type test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Tuple

from .errors import OperatorError
from .timeline import INF, ExtTime, Time, TimeSet, as_time
from .values import BOTTOM, UNKNOWN, value_eq


class Progress(NamedTuple):
    """How far a stream's contents are decided.

    Progress is ordered by (time, inclusive): exclusive at t lies below
    inclusive at t, and the infinite progress above every finite one, so a
    larger progress decides more and min and max of progress work as they
    are.  Infinite progress is never inclusive.
    """

    time: ExtTime
    inclusive: bool

    @staticmethod
    def exclusive(t) -> "Progress":
        return Progress(as_time(t), False)

    @staticmethod
    def inclusive_at(t) -> "Progress":
        return Progress(as_time(t), True)

    @staticmethod
    def infinite() -> "Progress":
        return Progress(INF, False)

    def is_infinite(self) -> bool:
        return self.time is INF

    def covers(self, t: Time) -> bool:
        if self.time is INF:
            return True
        return t < self.time or (self.inclusive and t == self.time)

    def count_covered(self, ticks: Sequence[Time]) -> int:
        """How many of the ascending times ticks this progress covers."""
        return (bisect_right if self.inclusive else bisect_left)(ticks, self.time)

    def covers_below(self, t: Time) -> bool:
        """True if every timestamp strictly below t is covered."""
        if self.time is INF:
            return True
        return t <= self.time

    def __repr__(self):
        if self.time is INF:
            return "prog(inf)"
        return f"prog({'<=' if self.inclusive else '<'}{self.time})"


ZERO_PROGRESS = Progress(0, False)


@dataclass(frozen=True)
class EventStream:
    events: Tuple[Tuple[Time, object], ...]
    progress: Progress

    # the embedding into abstract streams; a class attribute, so no field
    # and one object, which absops compares by identity
    gaps = TimeSet.empty()

    @property
    def stream(self) -> "EventStream":
        return self

    @staticmethod
    def of(events: Iterable, progress: Progress = None) -> "EventStream":
        """The stream of the events, checked whole: the public boundary's validator.

        Times go through as_time; one it rejects raises OperatorError, as
        do events out of order or past the progress (infinite by default).
        """
        evs = []
        for t, v in events:
            try:
                evs.append((as_time(t), v))
            except (ValueError, TypeError) as e:
                raise OperatorError(f"bad event time {t!r}: {e}") from e
        prog = progress if progress is not None else Progress.infinite()
        return EventStream.empty(prog).extended(evs, prog)

    @staticmethod
    def empty(progress: Progress = None) -> "EventStream":
        return EventStream((), progress if progress is not None else ZERO_PROGRESS)

    @staticmethod
    def _version(events: tuple, progress: Progress, ticks: tuple) -> "EventStream":
        """The stream of events, its tick tuple given: the events' timestamps, in order."""
        s = EventStream(events, progress)
        s.__dict__["_ticks"] = ticks
        return s

    def extended(self, events: Sequence, progress: Progress) -> "EventStream":
        """This stream with the events appended and progress progress, its ticks carried.

        Only the events are checked, as of checks a whole stream: they
        ascend from this stream's last tick and progress covers them; this
        stream's own events were checked when it was built.  With nothing
        appended and the same progress it is self; with a new progress
        alone its tuples are shared, since a tuple plus () is itself.
        """
        if not events and progress == self.progress:
            return self
        ticks = self._ticks
        last = ticks[-1] if ticks else -1      # times are non-negative
        for t, _ in events:
            if not last < t:
                raise OperatorError(f"event timestamps must strictly increase: {last} then {t}")
            last = t
        if events and not progress.covers(last):
            raise OperatorError(f"event at {last} lies beyond progress {progress}")
        return self._version(self.events + tuple(events), progress,
                             ticks + tuple(t for t, _ in events))

    def truncated(self, progress: Progress) -> "EventStream":
        """The events progress covers, with progress progress: one bisect, its ticks sliced.

        progress must not lie above this stream's own, which decides no more.
        """
        if progress == self.progress:
            return self
        if progress > self.progress:
            raise OperatorError(f"cannot cut a stream to {progress}, above its own progress "
                                f"{self.progress}")
        n = progress.count_covered(self._ticks)
        return self._version(self.events[:n], progress, self._ticks[:n])

    def with_payloads(self, events: tuple) -> "EventStream":
        """events, this stream's events with new payloads, on this stream's ticks and progress.

        The caller keeps the timestamps, so the output is valid as this
        stream is, and shares its tick tuple.
        """
        return self._version(events, self.progress, self._ticks)

    @cached_property
    def _ticks(self) -> tuple:
        return tuple(t for t, _ in self.events)

    def __eq__(self, other):
        # progress first; the dataclass still derives the field hash
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.progress == other.progress and self.events == other.events

    def at(self, t) -> object:
        """The paper-style three-way view: value, BOTTOM, or UNKNOWN."""
        t = as_time(t)
        if not self.progress.covers(t):
            return UNKNOWN
        ticks = self._ticks
        i = bisect_left(ticks, t)
        if i < len(ticks) and ticks[i] == t:
            return self.events[i][1]
        return BOTTOM

    def ticks(self) -> tuple:
        return self._ticks

    def last_event_before(self, t) -> tuple | None:
        """Latest (timestamp, value) strictly before t, or None."""
        i = bisect_left(self._ticks, t)
        return self.events[i - 1] if i else None

    def signal_value(self, t) -> object:
        """Value of the most recent event strictly before t; BOTTOM if none.

        Piece-wise constant signal view of the stream.
        """
        got = self.last_event_before(as_time(t))
        return got[1] if got is not None else BOTTOM

    def is_prefix(self, other: "EventStream") -> bool:
        """True iff self agrees with other wherever self is decided."""
        if self.progress > other.progress:
            return False
        mine = [(t, v) for t, v in self.events]
        theirs = [(t, v) for t, v in other.events if self.progress.covers(t)]
        if len(mine) != len(theirs):
            return False
        return all(a == b and value_eq(x, y) for (a, x), (b, y) in zip(mine, theirs))

    def __repr__(self):
        body = ", ".join(f"{t}:{v!r}" for t, v in self.events)
        return f"<{body} | {self.progress}>"

