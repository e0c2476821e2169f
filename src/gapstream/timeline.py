"""Exact time arithmetic and finite unions of time intervals.

Timestamps are non-negative exact rationals, extended by the infinity INF
above them all; NEG_INF, below every rational, bounds value intervals.  The
two infinities compare with rationals through the ordinary operators, and
that one order is the order of time everywhere: min, max, sorted and the
progress order of streams.Progress all use it.  All ordering and arithmetic
is exact; floats never enter the engine (decimal literals are parsed into
Fractions).  A time is held in one canonical form, which as_time gives: an
int when it is integral and a Fraction otherwise, so that the common
integral times compare at the speed of ints.

A TimeSet is a finite union of disjoint intervals over [0, oo) with
inclusive or exclusive endpoints.  It represents the set of timestamps at
which something holds (e.g. the known region of an abstract stream).

All set algebra is one sweep over span edges.  An edge key (t, side)
orders the time line with every point doubled: (t, False) is the point t
and (t, True) the open stretch just above it.  A span starts at
(lo, not lo_closed) and, if finite, ends at (hi, hi_closed); its start
edge carries weight +w and its end edge -w.  The sweep sorts the edges,
sums the weights of equal keys and emits the normalized spans where the
running sum is at least `need`: need 1 normalizes and unites, need 2
intersects, and a subtrahend of weight -1 subtracts.  A cut to one interval
(window, and so an intersection with one span) needs no sweep: two bisects
find the spans that meet it, and only the two at its ends are clipped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union


class _Infinity:
    """A time infinity: INF lies above every rational, NEG_INF below.

    Both compare with rationals and with each other through the ordinary
    operators, so min, max and sorted take them as they are.  They have no
    arithmetic.  There are exactly two instances; copies and unpickled ones
    are the same objects, so `t is INF` is a sound test.
    """

    __slots__ = ("_above", "_name")

    def __init__(self, above: bool, name: str):
        self._above = above
        self._name = name

    def __repr__(self):
        return "inf" if self._above else "-inf"

    def __reduce__(self):
        return self._name

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("gapstream-inf" if self._above else "gapstream-neg-inf")

    def __lt__(self, other):
        return not self._above and other is not self

    def __le__(self, other):
        return not self._above or other is self

    def __gt__(self, other):
        return self._above and other is not self

    def __ge__(self, other):
        return self._above or other is self


INF = _Infinity(True, "INF")
NEG_INF = _Infinity(False, "NEG_INF")

Time = Union[int, Fraction]
TimeLike = Union[int, Fraction, str]
ExtTime = Union[int, Fraction, _Infinity]


def as_time(value: TimeLike) -> Time:
    """value as a canonical time: an int if integral, else a Fraction.

    Every new time goes through here, so an integral time is never a
    Fraction with denominator 1.  int and Fraction compare, hash and add
    exactly with each other; a sum of times is canonicalized again.
    Anything Fraction accepts is taken (decimal strings such as "2.3").
    """
    if type(value) is int:
        if value < 0:
            raise ValueError(f"timestamps must be non-negative, got {value}")
        return value
    # Fractions are immutable, so a non-integral one is returned as is
    t = value if type(value) is Fraction else Fraction(value)
    if t.numerator < 0:
        raise ValueError(f"timestamps must be non-negative, got {t}")
    return t.numerator if t.denominator == 1 else t


@dataclass(frozen=True)
class Span:
    """One interval piece of a TimeSet.  hi may be INF (then hi_closed is False)."""

    lo: Time
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

    def contains(self, t: Time) -> bool:
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


class TimeSet:
    """Immutable finite union of disjoint, sorted, non-touching spans."""

    __slots__ = ("spans",)

    def __init__(self, spans: Iterable[Span] = ()):
        spans = tuple(spans)
        if len(spans) > 1:
            spans = _sweep(_edges(spans, 1), 1).spans
        object.__setattr__(self, "spans", spans)

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
        spans = self.spans
        if len(spans) < 2:
            return bool(spans) and spans[0].contains(t)
        i = bisect_right(spans, t, key=_lo)
        return i > 0 and spans[i - 1].contains(t)

    def union(self, other: "TimeSet") -> "TimeSet":
        if not other.spans:
            return self
        if not self.spans:
            return other
        # the spans that end before other starts neither meet nor touch it,
        # so a set that grows at its end is swept only there
        spans = self.spans
        i = bisect_left(spans, other.spans[0].lo, key=_hi)
        return _sweep(_edges(spans[i:], 1) + _edges(other.spans, 1), 1, spans[:i])

    def intersect(self, other: "TimeSet") -> "TimeSet":
        if not self.spans or other.spans == _FULL.spans:
            return self
        if not other.spans or self.spans == _FULL.spans:
            return other
        if len(other.spans) == 1:
            w = other.spans[0]
            return self.window(w.lo, w.lo_closed, w.hi, w.hi_closed)
        return _sweep(_edges(self.spans, 1) + _edges(other.spans, 1), 2)

    def window(self, lo: Time, lo_closed: bool, hi: ExtTime, hi_closed: bool) -> "TimeSet":
        """The set cut to the window from lo to hi, which may be empty.

        It is the intersection with that window, by two bisects: the spans
        strictly between the first and the last span that meet the window
        lie inside it and are kept as they are, and only those two are cut.
        hi may be INF, and then hi_closed is False.
        """
        spans = self.spans
        i = bisect_left(spans, lo, key=_hi)
        j = bisect_right(spans, hi, key=_lo)
        if i >= j:
            return _EMPTY
        start, end = (lo, not lo_closed), (hi, hi_closed)
        first = _clip(spans[i], start, end)
        if i == j - 1:
            return _of_spans((first,) if first else ())
        last = _clip(spans[j - 1], start, end)
        return _of_spans(((first,) if first else ()) + spans[i + 1:j - 1]
                         + ((last,) if last else ()))

    def minus(self, other: "TimeSet") -> "TimeSet":
        if not self.spans or not other.spans:
            return self
        return _sweep(_edges(self.spans, 1) + _edges(other.spans, -1), 1)

    def complement(self) -> "TimeSet":
        """Complement within [0, oo)."""
        return _FULL.minus(self)

    def first_point(self) -> ExtTime:
        """Infimum of the set (which may or may not be attained); INF if empty."""
        if not self.spans:
            return INF
        return self.spans[0].lo

    def free_since(self, t: Time) -> Time:
        """Infimum u <= t such that the open interval (u, t) misses the set."""
        i = bisect_left(self.spans, t, key=_lo)
        if i == 0:
            return 0
        return min(self.spans[i - 1].hi, t)

    def grid_points(self, epsilon: Fraction, limit: ExtTime) -> list:
        """All multiples of epsilon inside the set, up to and including limit."""
        if limit is INF:
            raise ValueError("grid_points requires a finite limit")
        out = []
        for s in self.spans:
            start = _ceil_grid(s.lo, s.lo_closed, epsilon)
            stop = min(s.hi, limit)
            g = start
            while g <= stop:
                if s.contains(g):
                    out.append(g)
                g = as_time(g + epsilon)
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


def _ceil_grid(lo: Time, lo_closed: bool, epsilon: Fraction) -> Time:
    q, r = divmod(lo, epsilon)
    g = q * epsilon if r == 0 else (q + 1) * epsilon
    if g == lo and not lo_closed:
        g = g + epsilon
    return as_time(g)


_lo = attrgetter("lo")
_hi = attrgetter("hi")


def _edges(spans: Iterable[Span], weight: int) -> list:
    """Start and end edges of the spans, each start weighted +weight."""
    out = []
    for s in spans:
        out.append((s.lo, not s.lo_closed, weight))
        if s.hi is not INF:
            out.append((s.hi, s.hi_closed, -weight))
    return out


def _clip(s: Span, start: tuple, end: tuple):
    """The part of s from the edge key start up to the edge key end, or None if empty."""
    lo = max((s.lo, not s.lo_closed), start)
    hi = min((s.hi, s.hi_closed), end)
    return Span(lo[0], not lo[1], hi[0], hi[1]) if lo < hi else None


def _of_spans(spans: tuple) -> TimeSet:
    """The set of spans already disjoint, sorted and non-touching."""
    ts = object.__new__(TimeSet)
    object.__setattr__(ts, "spans", spans)
    return ts


def _sweep(edges: list, need: int, head: tuple = ()) -> TimeSet:
    """The set of positions whose summed edge weight is >= need, after the
    spans head, which end before that set begins without touching it."""
    edges.sort()
    out = []
    depth = 0
    i, n = 0, len(edges)
    while i < n:
        t, side, w = edges[i]
        was = depth >= need
        depth += w
        i += 1
        while i < n and edges[i][1] == side and edges[i][0] == t:
            depth += edges[i][2]
            i += 1
        if depth < need:
            if was:
                out.append(Span(lo, not lo_side, t, side))
        elif not was:
            lo, lo_side = t, side
    if depth >= need:
        out.append(Span(lo, not lo_side, INF, False))
    return _of_spans(head + tuple(out))


_EMPTY = TimeSet()
_FULL = TimeSet.of(Span(0, True, INF, False))
