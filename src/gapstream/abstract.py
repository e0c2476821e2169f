"""Abstract event streams: value abstraction plus unknown time regions.

An abstract stream pairs an event stream over abstract values with the set
of timestamps whose contents are unknown (the gap set, the complement of
the known set).  Events may carry abstract payloads: TOP (any value of the
base domain), closed Intervals over rationals, or TOP-or-concrete booleans.

Concretization and abstraction are exposed only over a finite universe (a
finite timestamp grid and finite value sets), which makes the Galois pair
enumerable and testable; unrestricted concretization is uncountable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, OperatorError, OutOfOrderInput
from .streams import EventStream, Progress
from .timeline import INF, ExtTime, Span, Time, TimeSet, as_time
from .values import BOTTOM, GAP, TOP, UNKNOWN, Interval, _to_interval, value_eq


def covered_span(progress: Progress) -> TimeSet:
    if progress.is_infinite():
        return TimeSet.full()
    if progress.inclusive:
        return TimeSet.of(Span(0, True, progress.time, True))
    if progress.time == 0:
        return TimeSet.empty()
    return TimeSet.of(Span(0, True, progress.time, False))


@dataclass(frozen=True)
class AbstractEventStream:
    """Pair of an event stream over abstract values and its gap set."""

    stream: EventStream
    gaps: TimeSet

    @staticmethod
    def of(stream: EventStream, gaps: TimeSet = None) -> "AbstractEventStream":
        """The stream with its gaps cut to its progress, checked whole.

        This is the validator at the public boundary only: inputs that
        user code builds.  No event may lie in a gap.  InputBuilder, which
        builds parsed traces and online inputs, checks each directive as it
        comes instead.  The absops operators do not call it on their
        output: each checks only what it adds to streams already checked
        (EventStream.extended and absops._extended), or builds an output
        valid by construction.
        """
        gaps = (gaps or TimeSet.empty()).intersect(covered_span(stream.progress))
        for t, _ in stream.events:
            if gaps.contains(t):
                raise OperatorError(f"event at {t} lies inside a gap")
        return AbstractEventStream(stream, gaps)

    @property
    def progress(self) -> Progress:
        return self.stream.progress

    def at(self, t) -> object:
        """Four-way view: event value, BOTTOM, GAP, or UNKNOWN."""
        t = as_time(t)
        if not self.progress.covers(t):
            return UNKNOWN
        if self.gaps.contains(t):
            return GAP
        return self.stream.at(t)

    def ticks(self) -> tuple:
        return self.stream.ticks()

    def is_concrete(self) -> bool:
        return self.gaps.is_empty() and not any(
            v is TOP or isinstance(v, Interval) for _, v in self.stream.events
        )

    def __repr__(self):
        return f"Abs({self.stream!r}, gaps={self.gaps!r})"


class InputBuilder:
    """One input stream built from timed directives, in the order received.

    Trace files and online messages both build their inputs here, by one
    rule.  A directive at t is accepted only where the progress does not
    yet decide t.  An event or a gap start decides t, a gap end everything
    below t, and advance raises the progress to a given one.  An event
    inside an open gap punches a known point into it, and the gap stays
    open after the event.  A gap start inside an open gap is an error, and
    so is a gap end with no open gap.  Times must be canonical (as_time).
    Errors name no line or stream; the caller adds that context.

    stream() returns the same object until a directive changes the input,
    and builds the next one from the last by EventStream.extended: new
    events extend its event and tick tuples, and a progress alone reuses
    them.  Each directive checks what it adds, and extended the order and
    progress of the events it appends, so no stream is checked whole:
    events ascend and never lie in a gap.  Each accepted event and gap span
    is kept once: an event only until stream() builds it in, a span in the
    set of the closed ones.
    """

    def __init__(self):
        self._pending: List[Tuple[Time, object]] = []  # events stream() has not built in
        self._gaps = TimeSet.empty()    # the closed gap spans
        self.open_gap: Optional[Tuple[Time, bool]] = None   # (start, start closed)
        # the progress, unpacked: every directive compares against it
        self._time: ExtTime = 0
        self._inclusive = False
        self._base = EventStream.empty()    # the event stream last built
        self._built: Optional[tuple] = None     # (abstract, stream) since the last change

    @property
    def progress(self) -> Progress:
        return Progress(self._time, self._inclusive)

    @property
    def gapped(self) -> bool:
        return bool(self._gaps.spans) or self.open_gap is not None

    def _decide(self, kind: str, t: Time, inclusive: bool) -> None:
        if t < self._time or t == self._time and self._inclusive:
            raise OutOfOrderInput(f"{kind} at {t} is out of order: the progress "
                                  f"{self.progress} already decides that time")
        self._time, self._inclusive = t, inclusive
        self._built = None

    def event(self, t: Time, v) -> None:
        self._decide("event", t, True)
        if self.open_gap is not None:
            self._close_gap(t)
            self.open_gap = (t, False)
        self._pending.append((t, v))

    def gap_start(self, t: Time) -> None:
        if self.open_gap is not None:
            raise OutOfOrderInput(f"gap start at {t}: a gap is already open")
        self._decide("gap start", t, True)
        self.open_gap = (t, True)

    def gap_end(self, t: Time) -> None:
        if self.open_gap is None:
            raise OutOfOrderInput(f"gap end at {t}: no open gap")
        self._decide("gap end", t, False)
        self._close_gap(t)
        self.open_gap = None

    def _close_gap(self, t: Time) -> None:
        self._gaps = self._gaps.union(TimeSet.of(Span(*self.open_gap, t, False)))

    def advance(self, progress: Progress) -> None:
        if progress < self.progress:
            raise OutOfOrderInput(
                f"watermark moved backwards to {progress} from {self.progress}")
        if progress != self.progress:
            self._time, self._inclusive = progress.time, progress.inclusive
            self._built = None

    def stream(self, abstract: bool):
        """The stream received so far: an EventStream, or with `abstract`
        an AbstractEventStream whose open gap runs to the progress."""
        built = self._built
        if built is not None and built[0] == abstract:
            return built[1]
        self._base = s = base = self._base.extended(self._pending, self.progress)
        self._pending = []
        if abstract:
            gaps = self._gaps
            if self.open_gap is not None:
                gaps = gaps.union(TimeSet.of(Span(*self.open_gap, INF, False)))
            s = AbstractEventStream(base, gaps.intersect(covered_span(base.progress)))
        self._built = (abstract, s)
        return s


def value_leq(a, b) -> bool:
    """Generic abstract value order: concrete values below TOP, intervals by inclusion."""
    if b is TOP:
        return True
    if a is TOP:
        return False
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.within(b)
    if isinstance(b, Interval) and isinstance(a, (int, Fraction)) and not isinstance(a, bool):
        return b.contains_value(Fraction(a))
    return value_eq(a, b)


def value_join(a, b):
    """Smallest abstract value covering both; TOP when no structured join exists."""
    if value_eq(a, b):
        return a
    if a is TOP or b is TOP:
        return TOP
    ia, ib = _to_interval(a), _to_interval(b)
    if ia is not None and ib is not None:
        return ia.hull(ib)
    return TOP


def gamma_values(abstract_value, universe_values: tuple) -> tuple:
    """Concretization of an event payload restricted to a finite value set.

    Interval payloads additionally contribute their finite endpoints, so the
    hull of the enumerated values always covers the interval: comparisons
    based on hull measures stay sound under coarse universes.
    """
    out = [v for v in universe_values if value_leq(v, abstract_value)]
    if isinstance(abstract_value, Interval):
        for b in (abstract_value.lo, abstract_value.hi):
            if isinstance(b, Fraction) and not any(
                    value_eq(b, v) for v in out if not isinstance(v, bool)):
                out.append(b)
    return tuple(out)


@dataclass(frozen=True)
class FiniteUniverse:
    """Finite timestamp grid and value sets that make concretization enumerable."""

    grid: Tuple[Time, ...]
    values: Tuple[object, ...]
    per_stream: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    budget: int = 200_000

    @staticmethod
    def of(grid, values, per_stream=None, budget=200_000) -> "FiniteUniverse":
        g = tuple(sorted(as_time(t) for t in grid))
        ps = tuple(sorted((k, tuple(v)) for k, v in (per_stream or {}).items()))
        return FiniteUniverse(g, tuple(values), ps, budget)

    def values_for(self, name: Optional[str] = None) -> tuple:
        for k, v in self.per_stream:
            if k == name:
                return v
        return self.values


def concretize(s: AbstractEventStream, universe: FiniteUniverse,
               name: Optional[str] = None) -> list:
    """All concrete streams represented by s, over the finite universe.

    Events keep their timestamps with payloads drawn from the concretization
    of their abstract values; every grid point inside a gap independently
    holds no event or an event with any universe value.
    """
    vals = universe.values_for(name)
    slots = []
    for t, v in s.stream.events:
        if isinstance(v, Interval) and v.is_single():
            opts = [(t, v.lo)]
        elif v is TOP or isinstance(v, Interval):
            opts = [(t, c) for c in gamma_values(v, vals)]
            if not opts:
                raise OperatorError(
                    f"event value {v!r} at {t} has empty concretization in universe")
        else:
            opts = [(t, v)]
        slots.append(opts)
    for g in _gap_grid(s, universe):
        slots.append([(g, None)] + [(g, c) for c in vals])

    count = 1
    for opts in slots:
        count *= len(opts)
        if count > universe.budget:
            raise BudgetExceeded(f"concretization needs {count}+ streams, budget {universe.budget}")

    out = []
    for choice in itertools.product(*slots):
        events = sorted((t, c) for t, c in choice if c is not None)
        out.append(EventStream.of(events, s.progress))
    return out


def _gap_grid(s: AbstractEventStream, universe: FiniteUniverse) -> list:
    return [g for g in universe.grid if s.gaps.contains(g) and s.progress.covers(g)]


def abstract_of(streams: Sequence[EventStream], join=None) -> AbstractEventStream:
    """Supremum of a non-empty set of equal-progress concrete streams.

    The value join defaults to the generic one (numbers hull into intervals,
    anything else to TOP); pass the join of the intended data abstraction for
    domain-exact suprema.
    """
    join = join or value_join
    if not streams:
        raise OperatorError("abstract_of needs a non-empty set")
    prog = streams[0].progress
    for s in streams[1:]:
        if s.progress != prog:
            raise OperatorError("abstract_of needs equal progress")
    times = sorted({t for s in streams for t in s.ticks()})
    events = []
    gap_points = []
    for t in times:
        cells = [s.at(t) for s in streams]
        if all(c is not BOTTOM for c in cells):
            joined = cells[0]
            for c in cells[1:]:
                joined = join(joined, c)
            events.append((t, joined))
        elif any(c is not BOTTOM for c in cells):
            gap_points.append(Span(t, True, t, True))
    return AbstractEventStream.of(
        EventStream.of(events, prog), TimeSet(gap_points)
    )


def refinement_leq(a: AbstractEventStream, b: AbstractEventStream) -> bool:
    """True iff a refines b: a is known wherever b is and agrees there.

    Either may be an EventStream, the gap-free abstract stream.
    """
    def known(x) -> TimeSet:
        return covered_span(x.progress).minus(x.gaps)

    if not known(b).minus(known(a)).is_empty():
        return False
    for t, vb in b.stream.events:
        va = a.stream.at(t)
        if va is BOTTOM or va is UNKNOWN:
            return False
        if not value_leq(va, vb):
            return False
    for t, _ in a.stream.events:
        if b.at(t) is BOTTOM:
            return False
    # where b is known and event-free, a must be covered (checked above via
    # known-set inclusion) and event-free (checked just now)
    return True

