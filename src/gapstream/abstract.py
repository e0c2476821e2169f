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
from typing import Iterable, Optional, Sequence, Tuple

from .errors import BudgetExceeded, OperatorError
from .streams import EventStream, Progress
from .timeline import Span, TimeSet, as_time
from .values import BOTTOM, GAP, TOP, UNKNOWN, Interval, value_eq


def covered_span(progress: Progress) -> TimeSet:
    if progress.is_infinite():
        return TimeSet.full()
    if progress.inclusive:
        return TimeSet.of(Span(Fraction(0), True, progress.time, True))
    if progress.time == 0:
        return TimeSet.empty()
    return TimeSet.of(Span(Fraction(0), True, progress.time, False))


@dataclass(frozen=True)
class AbstractEventStream:
    """Pair of an event stream over abstract values and its gap set."""

    stream: EventStream
    gaps: TimeSet

    @staticmethod
    def of(stream: EventStream, gaps: TimeSet = None) -> "AbstractEventStream":
        gaps = (gaps or TimeSet.empty()).intersect(covered_span(stream.progress))
        for t, _ in stream.events:
            if gaps.contains(t):
                raise OperatorError(f"event at {t} lies inside a gap")
        return AbstractEventStream(stream, gaps)

    @property
    def progress(self) -> Progress:
        return self.stream.progress

    def known(self) -> TimeSet:
        return covered_span(self.progress).minus(self.gaps)

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


def _as_interval(v) -> Optional[Interval]:
    if isinstance(v, Interval):
        return v
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, Fraction)):
        return Interval.single(v)
    return None


def value_join(a, b):
    """Smallest abstract value covering both; TOP when no structured join exists."""
    if value_eq(a, b):
        return a
    if a is TOP or b is TOP:
        return TOP
    ia, ib = _as_interval(a), _as_interval(b)
    if ia is not None and ib is not None:
        return ia.hull(ib)
    return TOP


def gamma_contains(abstract_value, concrete_value) -> bool:
    """Membership of a concrete value in the concretization of an abstract one."""
    if abstract_value is TOP:
        return True
    if isinstance(abstract_value, Interval):
        if isinstance(concrete_value, (int, Fraction)) and not isinstance(concrete_value, bool):
            return abstract_value.contains_value(Fraction(concrete_value))
        return False
    return value_eq(abstract_value, concrete_value)


def gamma_values(abstract_value, universe_values: tuple) -> tuple:
    """Concretization of an event payload restricted to a finite value set.

    Interval payloads additionally contribute their finite endpoints, so the
    hull of the enumerated values always covers the interval: comparisons
    based on hull measures stay sound under coarse universes.
    """
    out = [v for v in universe_values if gamma_contains(abstract_value, v)]
    if isinstance(abstract_value, Interval):
        for b in (abstract_value.lo, abstract_value.hi):
            if isinstance(b, Fraction) and not any(
                    value_eq(b, v) for v in out if not isinstance(v, bool)):
                out.append(b)
    return tuple(out)


@dataclass(frozen=True)
class FiniteUniverse:
    """Finite timestamp grid and value sets that make concretization enumerable."""

    grid: Tuple[Fraction, ...]
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
    """True iff a refines b: a is known wherever b is and agrees there."""
    known_b = b.known()
    if not known_b.minus(a.known()).is_empty():
        return False
    b_ticks = b.stream.tick_set()
    for t, vb in b.stream.events:
        va = a.stream.at(t)
        if va in (BOTTOM, UNKNOWN):
            return False
        if not value_leq(va, vb):
            return False
    for t, _ in a.stream.events:
        if known_b.contains(t) and t not in b_ticks:
            return False
    # where b is known and event-free, a must be covered (checked above via
    # known-set inclusion) and event-free (checked just now)
    return True


def canonical_on_points(s: AbstractEventStream, points: Iterable[Fraction]) -> AbstractEventStream:
    """Restrict the gap set to the given candidate points (for grid comparisons)."""
    pts = [p for p in points if s.gaps.contains(p)]
    return AbstractEventStream.of(
        s.stream, TimeSet(Span(p, True, p, True) for p in pts)
    )
