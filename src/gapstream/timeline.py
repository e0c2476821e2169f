"""Exact time arithmetic and finite unions of time intervals.

Timestamps are non-negative exact rationals with a single distinguished
infinity.  All ordering and arithmetic is exact; floats never enter the
engine (decimal literals are parsed into Fractions).

A TimeSet is a finite union of disjoint intervals over [0, oo) with
inclusive or exclusive endpoints.  It represents the set of timestamps at
which something holds (e.g. the known region of an abstract stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


class _Infinity:
    """Positive time infinity, strictly greater than every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("gapstream-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()

Time = Fraction
TimeLike = Union[Fraction, int, str]
ExtTime = Union[Fraction, _Infinity]


def as_time(value: TimeLike) -> Fraction:
    t = Fraction(value)
    if t < 0:
        raise ValueError(f"timestamps must be non-negative, got {t}")
    return t


def t_lt(a: ExtTime, b: ExtTime) -> bool:
    if a is INF:
        return False
    if b is INF:
        return True
    return a < b


def t_le(a: ExtTime, b: ExtTime) -> bool:
    return a == b or t_lt(a, b)


def t_min(a: ExtTime, b: ExtTime) -> ExtTime:
    return a if t_le(a, b) else b


@dataclass(frozen=True)
class Span:
    """One interval piece of a TimeSet.  hi may be INF (then hi_closed is False)."""

    lo: Fraction
    lo_closed: bool
    hi: ExtTime
    hi_closed: bool

    def __post_init__(self):
        if self.hi is INF:
            if self.hi_closed:
                raise ValueError("interval cannot be closed at infinity")
        else:
            if self.lo > self.hi:
                raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise ValueError("degenerate interval must be closed on both ends")

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if self.hi is INF:
            return True
        if t > self.hi or (t == self.hi and not self.hi_closed):
            return False
        return True

    def is_point(self) -> bool:
        return self.hi is not INF and self.lo == self.hi

    def __repr__(self):
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


def point(t: TimeLike) -> Span:
    t = as_time(t)
    return Span(t, True, t, True)


def span(lo: TimeLike, hi, lo_closed: bool = True, hi_closed: bool = True) -> Span:
    lo = as_time(lo)
    if hi is INF:
        return Span(lo, lo_closed, INF, False)
    return Span(lo, lo_closed, as_time(hi), hi_closed)


def _start_key(s: Span) -> tuple:
    """Sort key of a span's start: a closed start at t sorts before an open one."""
    return (0, s.lo, 0 if s.lo_closed else 1)


def _adjacent_or_overlapping(a: Span, b: Span) -> bool:
    """True if a and b (a starting first) touch so their union is one span."""
    if a.hi is INF:
        return True
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


class TimeSet:
    """Immutable finite union of disjoint, sorted, non-touching spans."""

    __slots__ = ("spans",)

    def __init__(self, spans: Iterable[Span] = ()):
        normal = _normalize(list(spans))
        object.__setattr__(self, "spans", tuple(normal))

    @staticmethod
    def empty() -> "TimeSet":
        return _EMPTY

    @staticmethod
    def full() -> "TimeSet":
        return _FULL

    @staticmethod
    def of(*spans: Span) -> "TimeSet":
        return TimeSet(spans)

    def is_empty(self) -> bool:
        return not self.spans

    def contains(self, t: TimeLike) -> bool:
        t = as_time(t)
        return any(s.contains(t) for s in self.spans)

    def union(self, other: "TimeSet") -> "TimeSet":
        return TimeSet(self.spans + other.spans)

    def intersect(self, other: "TimeSet") -> "TimeSet":
        out = []
        for a in self.spans:
            for b in other.spans:
                c = _intersect_spans(a, b)
                if c is not None:
                    out.append(c)
        return TimeSet(out)

    def complement(self) -> "TimeSet":
        """Complement within [0, oo)."""
        out = []
        cursor: Fraction = Fraction(0)
        cursor_closed = True
        for s in self.spans:
            if s.lo > cursor or (s.lo == cursor and cursor_closed and not s.lo_closed):
                if s.lo == cursor:
                    out.append(point(cursor))
                else:
                    out.append(Span(cursor, cursor_closed, s.lo, not s.lo_closed))
            if s.hi is INF:
                return TimeSet(out)
            cursor = s.hi
            cursor_closed = not s.hi_closed
        if cursor_closed:
            out.append(Span(cursor, True, INF, False))
        else:
            out.append(Span(cursor, False, INF, False))
        return TimeSet(out)

    def minus(self, other: "TimeSet") -> "TimeSet":
        if not self.spans or not other.spans:
            return self
        return self.intersect(other.complement())

    def overlaps_open(self, lo: Fraction, hi: ExtTime) -> bool:
        """True if the set meets the open interval (lo, hi)."""
        if not t_lt(lo, hi):
            return False
        probe = Span(lo, False, hi, False) if hi is not INF else Span(lo, False, INF, False)
        return any(_intersect_spans(s, probe) is not None for s in self.spans)

    def first_point(self) -> ExtTime:
        """Infimum of the set (which may or may not be attained); INF if empty."""
        if not self.spans:
            return INF
        return self.spans[0].lo

    def clip(self, lo: Fraction, hi: ExtTime, hi_closed: bool) -> "TimeSet":
        if hi is INF:
            probe = Span(lo, True, INF, False)
        else:
            if t_lt(hi, lo) or (hi == lo and not hi_closed):
                return TimeSet.empty()
            probe = Span(lo, True, hi, hi_closed)
        return self.intersect(TimeSet.of(probe))

    def grid_points(self, epsilon: Fraction, limit: ExtTime) -> list:
        """All multiples of epsilon inside the set, up to and including limit."""
        if limit is INF:
            raise ValueError("grid_points requires a finite limit")
        out = []
        for s in self.spans:
            start = _ceil_grid(s.lo, s.lo_closed, epsilon)
            stop = limit if s.hi is INF else t_min(s.hi, limit)
            g = start
            while t_le(g, stop):
                if s.contains(g) and t_le(g, limit):
                    out.append(g)
                g = g + epsilon
        return sorted(set(out))

    def boundaries(self) -> list:
        out = []
        for s in self.spans:
            out.append(s.lo)
            if s.hi is not INF:
                out.append(s.hi)
        return out

    def __eq__(self, other):
        return isinstance(other, TimeSet) and self.spans == other.spans

    def __hash__(self):
        return hash(self.spans)

    def __repr__(self):
        if not self.spans:
            return "TimeSet()"
        return "TimeSet(" + " u ".join(repr(s) for s in self.spans) + ")"


def _ceil_grid(lo: Fraction, lo_closed: bool, epsilon: Fraction) -> Fraction:
    q, r = divmod(lo, epsilon)
    g = q * epsilon if r == 0 else (q + 1) * epsilon
    if g == lo and not lo_closed:
        g = g + epsilon
    return g


def _intersect_spans(a: Span, b: Span) -> Span | None:
    if a.lo > b.lo or (a.lo == b.lo and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi is INF:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi is INF:
        hi, hi_closed = a.hi, a.hi_closed
    elif a.hi < b.hi or (a.hi == b.hi and not a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = b.hi, b.hi_closed
    if hi is INF:
        return Span(lo, lo_closed, INF, False)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Span(lo, lo_closed, hi, hi_closed)


def _normalize(spans: Sequence[Span]) -> list:
    if not spans:
        return []
    items = sorted(spans, key=_start_key)
    out = [items[0]]
    for s in items[1:]:
        last = out[-1]
        if _adjacent_or_overlapping(last, s):
            if last.hi is INF:
                continue
            if s.hi is INF:
                out[-1] = Span(last.lo, last.lo_closed, INF, False)
            elif s.hi > last.hi or (s.hi == last.hi and s.hi_closed):
                out[-1] = Span(last.lo, last.lo_closed, s.hi, s.hi_closed)
        else:
            out.append(s)
    return out


_EMPTY = TimeSet.__new__(TimeSet)
object.__setattr__(_EMPTY, "spans", ())
_FULL = TimeSet.__new__(TimeSet)
object.__setattr__(_FULL, "spans", (Span(Fraction(0), True, INF, False),))
