"""Concrete timed event streams with explicit progress.

A stream is a strictly time-ascending sequence of (timestamp, value) events
together with a progress marker saying how far its contents are decided:
exclusive at t (everything strictly below t is known), inclusive at t, or
infinite.  Viewed as a function of time, a stream yields the event value at
event timestamps, BOTTOM at covered non-event timestamps and UNKNOWN beyond
its progress.  Progress is totally ordered, with the ordinary operators:
exclusive at t below inclusive at t, and infinity above both, so a prefix of
a stream has the smaller progress.

Streams are immutable; operators build new ones.  Fixed-point evaluation
relies on comparing successive prefixes, so equality is structural; it
compares the progress first, so successive prefixes of one stream, which
differ mostly in progress, are told apart without comparing payloads.  The
lookup index, the tick tuple that at, signal_value and last_event_before
bisect, is built on first use and cached on the instance, or handed over
by the operator that built the stream; it is not a field, so equality and
hashing ignore it.

A concrete stream is its own gap-free abstract stream: its gaps are the
one empty TimeSet every EventStream shares, and its stream is itself.  So
every absops operator takes an EventStream as it is, with no wrapper, and
decides there exactly what the concrete semantics does, and code that reads
a stream's .stream and .gaps needs no type test.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple

from .errors import OperatorError
from .timeline import INF, ExtTime, Time, TimeSet, as_time
from .values import BOTTOM, UNKNOWN, value_eq


@dataclass(frozen=True, order=True)
class Progress:
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
        evs = tuple((as_time(t), v) for t, v in events)
        for (a, _), (b, _) in zip(evs, evs[1:]):
            if not a < b:
                raise OperatorError(f"event timestamps must strictly increase: {a} then {b}")
        prog = progress if progress is not None else Progress.infinite()
        for t, _ in evs:
            if not prog.covers(t):
                raise OperatorError(f"event at {t} lies beyond progress {prog}")
        return EventStream(evs, prog)

    @staticmethod
    def empty(progress: Progress = None) -> "EventStream":
        return EventStream((), progress if progress is not None else ZERO_PROGRESS)

    @staticmethod
    def _with_ticks(events: tuple, progress: Progress, ticks: tuple) -> "EventStream":
        """The stream of events the caller has checked, its tick tuple given.

        ticks must be the events' timestamps, in order; they fill the cache
        that ticks() would otherwise build, so they are not a field.  No
        event is checked: callers build their output from streams already
        checked, and check only what they add.
        """
        s = EventStream(events, progress)
        s.__dict__["_ticks"] = ticks
        return s

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

    def truncated(self, progress: Progress) -> "EventStream":
        evs = tuple((t, v) for t, v in self.events if progress.covers(t))
        return EventStream(evs, progress)

    def __repr__(self):
        body = ", ".join(f"{t}:{v!r}" for t, v in self.events)
        return f"<{body} | {self.progress}>"

