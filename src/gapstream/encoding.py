"""Boolean-marker encoding of known-time sets.

A known-time set is serialized as a stream of boolean markers: true at t
means "known from t inclusive", false at t "unknown from t inclusive".
Boundary kinds that do not fit that pattern are shifted by the configured
smallest time step epsilon: an exclusive start becomes a marker at t +
epsilon, and point-sized regions become a marker pair one epsilon apart.

Decoding always yields half-open [start, end) spans, the canonical form on
the epsilon grid; encode then decode is the identity on sets already in
that form, and in general equals grid canonicalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import EpsilonTooCoarse
from .streams import EventStream, Progress
from .timeline import INF, Span, Time, TimeSet, as_time


@dataclass(frozen=True)
class DeltaEncoding:
    marker: EventStream   # boolean events
    epsilon: Fraction


def encode_delta(known: TimeSet, epsilon, progress: Progress = None) -> DeltaEncoding:
    """Markers for the known set; complement spans become false regions."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise EpsilonTooCoarse("epsilon must be positive")
    switches: List[Tuple[Time, bool]] = []

    def add(t, val):
        if switches and switches[-1][0] == t:
            prev_t, prev_v = switches[-1]
            if prev_v != val:
                raise EpsilonTooCoarse(
                    f"boundaries collide at {t} after epsilon shifting")
            return
        if switches and t < switches[-1][0]:
            raise EpsilonTooCoarse(
                f"boundary at {t} overtaken after epsilon shifting")
        switches.append((t, val))

    add(0, known.contains(0))
    for sp in known.spans:
        start = sp.lo if sp.lo_closed else as_time(sp.lo + epsilon)
        if start > 0:
            add(start, True)
        if sp.hi is INF:
            break
        end = as_time(sp.hi + epsilon) if sp.hi_closed else sp.hi
        add(end, False)
    marker = EventStream.of(
        [(t, v) for t, v in switches],
        progress if progress is not None else Progress.infinite(),
    )
    return DeltaEncoding(marker, epsilon)


def decode_delta(enc: DeltaEncoding) -> TimeSet:
    """Known set from markers: half-open spans between true and false."""
    spans = []
    open_at = None
    first = True
    for t, v in enc.marker.events:
        if first and t != 0:
            # knowledge state before the first marker defaults to known
            open_at = 0
        first = False
        if v is True or v == True:  # noqa: E712 - accepts plain bools only
            if open_at is None:
                open_at = t
        else:
            if open_at is not None:
                if t > open_at:
                    spans.append(Span(open_at, True, t, False))
                open_at = None
    if first:
        open_at = 0
    if open_at is not None:
        spans.append(Span(open_at, True, INF, False))
    return TimeSet(spans)


def grid_canonical(ts: TimeSet, epsilon, horizon) -> TimeSet:
    """The set as seen on the epsilon grid: runs of grid points, half-open."""
    epsilon = Fraction(epsilon)
    pts = ts.grid_points(epsilon, horizon)
    spans = []
    run_start = None
    prev = None
    for g in pts:
        if run_start is None:
            run_start = g
        elif g != prev + epsilon:
            spans.append(Span(run_start, True, as_time(prev + epsilon), False))
            run_start = g
        prev = g
    if run_start is not None:
        spans.append(Span(run_start, True, as_time(prev + epsilon), False))
    return TimeSet(spans)
