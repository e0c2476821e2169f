"""Concrete timed event streams with explicit progress.

A stream is a strictly time-ascending sequence of (timestamp, value) events
together with a progress marker saying how far its contents are decided:
exclusive at t (everything strictly below t is known), inclusive at t, or
infinite.  Viewed as a function of time, a stream yields the event value at
event timestamps, BOTTOM at covered non-event timestamps and UNKNOWN beyond
its progress.

Streams are immutable; operators build new ones.  Fixed-point evaluation
relies on comparing successive prefixes, so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .timeline import INF, ExtTime, as_time, t_le
from .values import BOTTOM, UNKNOWN, value_eq


@dataclass(frozen=True)
class Progress:
    """How far a stream's contents are decided."""

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

    def covers(self, t: Fraction) -> bool:
        if self.time is INF:
            return True
        return t < self.time or (self.inclusive and t == self.time)

    def covers_below(self, t: Fraction) -> bool:
        """True if every timestamp strictly below t is covered."""
        if self.time is INF:
            return True
        return t_le(t, self.time)

    def key(self):
        # exclusive at t sorts below inclusive at t
        return (1, 0, False) if self.time is INF else (0, self.time, self.inclusive)

    def min(self, other: "Progress") -> "Progress":
        return self if self.key() <= other.key() else other

    def leq(self, other: "Progress") -> bool:
        return self.key() <= other.key()

    def __repr__(self):
        if self.time is INF:
            return "prog(inf)"
        return f"prog({'<=' if self.inclusive else '<'}{self.time})"


ZERO_PROGRESS = Progress(Fraction(0), False)


@dataclass(frozen=True)
class EventStream:
    events: Tuple[Tuple[Fraction, object], ...]
    progress: Progress

    @staticmethod
    def of(events: Iterable, progress: Progress = None) -> "EventStream":
        evs = tuple((as_time(t), v) for t, v in events)
        for (a, _), (b, _) in zip(evs, evs[1:]):
            if not a < b:
                raise ValueError(f"event timestamps must strictly increase: {a} then {b}")
        prog = progress if progress is not None else Progress.infinite()
        for t, _ in evs:
            if not prog.covers(t):
                raise ValueError(f"event at {t} lies beyond progress {prog}")
        return EventStream(evs, prog)

    @staticmethod
    def empty(progress: Progress = None) -> "EventStream":
        return EventStream((), progress if progress is not None else ZERO_PROGRESS)

    def at(self, t) -> object:
        """The paper-style three-way view: value, BOTTOM, or UNKNOWN."""
        t = as_time(t)
        if not self.progress.covers(t):
            return UNKNOWN
        for et, v in self.events:
            if et == t:
                return v
            if et > t:
                break
        return BOTTOM

    def ticks(self) -> tuple:
        return tuple(t for t, _ in self.events)

    def tick_set(self) -> set:
        return {t for t, _ in self.events}

    def value_at_tick(self, t) -> object:
        for et, v in self.events:
            if et == t:
                return v
        raise KeyError(t)

    def last_event_before(self, t) -> tuple | None:
        """Latest (timestamp, value) strictly before t, or None."""
        best = None
        for et, v in self.events:
            if et < t:
                best = (et, v)
            else:
                break
        return best

    def signal_value(self, t) -> object:
        """Value of the most recent event strictly before t; BOTTOM if none.

        Piece-wise constant signal view of the stream.
        """
        got = self.last_event_before(as_time(t))
        return got[1] if got is not None else BOTTOM

    def is_prefix(self, other: "EventStream") -> bool:
        """True iff self agrees with other wherever self is decided."""
        if not self.progress.leq(other.progress):
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

