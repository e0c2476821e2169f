"""Abstract counterparts of the core stream operators.

These operate on AbstractEventStream values.  They mirror the concrete
case analyses, extended with two kinds of partial knowledge: TOP-valued
events (known timestamp, unknown payload) and gaps (regions where both
event presence and values are unknown).  Outputs carry a gap exactly where
the inputs leave the result semantically undetermined; insufficient input
progress instead truncates the output, because a gap is final whereas
progress still grows.

All operators restricted to gap-free, TOP-free inputs coincide with their
concrete counterparts; randomized tests assert that embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .errors import OperatorError
from .functions import strict_cells
from .ops import _prog_max, _prog_min_all
from .streams import EventStream, Progress
from .timeline import INF, ExtTime, Span, TimeSet, t_lt, t_min
from .values import BOTTOM, GAP, TOP, UNIT, UNKNOWN, Interval
from .abstract import AbstractEventStream, covered_span


def nil_abs() -> AbstractEventStream:
    return AbstractEventStream.of(EventStream.of((), Progress.infinite()))


def unit_abs() -> AbstractEventStream:
    return AbstractEventStream.of(
        EventStream.of(((Fraction(0), UNIT),), Progress.infinite())
    )


def time_abs(s: AbstractEventStream) -> AbstractEventStream:
    mapped = EventStream.of(((t, t) for t, _ in s.stream.events), s.progress)
    return AbstractEventStream.of(mapped, s.gaps)


# -- lift ------------------------------------------------------------------

def _atom_points(streams: Sequence[AbstractEventStream], prog: Progress) -> list:
    pts = {Fraction(0)}
    for s in streams:
        pts.update(s.stream.ticks())
        pts.update(s.gaps.boundaries())
    if not prog.is_infinite():
        pts.add(prog.time)
    return sorted(p for p in pts if prog.covers(p))


def _atoms(points: list, prog: Progress):
    """Yield (lo, hi, sample, lo_open) atoms partitioning the covered span.

    Point atoms have lo == hi; open atoms exclude both endpoints.  Together
    with the given points they cover [0, progress].
    """
    for i, p in enumerate(points):
        yield (p, p, p, False)
        if i + 1 < len(points):
            q = points[i + 1]
            yield (p, q, (p + q) / 2, True)
    last = points[-1] if points else Fraction(0)
    if prog.is_infinite():
        yield (last, INF, last + 1, True)
    elif t_lt(last, prog.time):
        yield (last, prog.time, (last + prog.time) / 2, True)


def lift_abs(f_abs: Callable, *streams: AbstractEventStream) -> AbstractEventStream:
    if not streams:
        raise OperatorError("lift_abs needs at least one stream")
    prog = _prog_min_all([s.progress for s in streams])
    points = _atom_points(streams, prog)
    events = []
    gap_spans = []
    for lo, hi, sample, lo_open in _atoms(points, prog):
        if lo == hi:
            if not prog.covers(sample):
                continue
            cells = [s.at(sample) for s in streams]
            out = f_abs(*cells)
            if out is GAP:
                gap_spans.append(Span(lo, True, lo, True))
            elif out is not BOTTOM:
                if out is UNKNOWN:
                    raise OperatorError("abstract lifted function produced unknown")
                events.append((sample, out))
        else:
            cells = [GAP if s.gaps.contains(sample) else BOTTOM for s in streams]
            out = f_abs(*cells)
            if out is GAP:
                if hi is INF:
                    gap_spans.append(Span(lo, False, INF, False))
                else:
                    gap_spans.append(Span(lo, False, hi, False))
            elif out is not BOTTOM:
                raise OperatorError(
                    "abstract lifted function produced an event over a region"
                )
    gaps = TimeSet(gap_spans)
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def merge_cell(a, b):
    if a not in (GAP, BOTTOM):
        return a
    if a is BOTTOM:
        return b
    # a is GAP
    return GAP if b in (GAP, BOTTOM) else TOP


def merge_cells(*cells):
    out = cells[-1]
    for c in reversed(cells[:-1]):
        out = merge_cell(c, out)
    return out


def merge_abs(*streams: AbstractEventStream) -> AbstractEventStream:
    return lift_abs(merge_cells, *streams)


def const_abs(c) -> Callable[[AbstractEventStream], AbstractEventStream]:
    def cell(v):
        if v in (BOTTOM, GAP):
            return v
        return c

    def apply(a: AbstractEventStream) -> AbstractEventStream:
        return lift_abs(cell, a)

    return apply


# -- last ------------------------------------------------------------------

def _vstart_bound(v: AbstractEventStream) -> ExtTime:
    """Infimum s such that "some event or gap strictly before t" holds iff t > s."""
    first_tick = v.stream.events[0][0] if v.stream.events else INF
    first_gap = v.gaps.first_point()
    return t_min(first_tick, first_gap)


def _vbot_extent_abs(v: AbstractEventStream) -> Progress:
    """Region where "no event and no gap strictly before t" is known to hold."""
    limit = _vstart_bound(v)
    if not v.progress.is_infinite():
        limit = t_min(limit, v.progress.time)
    if limit is INF:
        return Progress.infinite()
    return Progress.inclusive_at(limit)


def last_abs(v: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Abstract last: TOP after a gap-tainted history, gaps inherited from r."""
    main = r.progress
    events = []
    point_gaps = []
    for t in r.stream.ticks():
        if not v.progress.covers_below(t):
            main = main.min(Progress.exclusive(t))
            break
        prev = v.stream.last_event_before(t)
        if prev is not None:
            t_prev, val = prev
            if v.gaps.overlaps_open(t_prev, t):
                events.append((t, TOP))
            else:
                events.append((t, val))
        else:
            if not v.gaps.clip(Fraction(0), t, False).is_empty():
                point_gaps.append(Span(t, True, t, True))

    vstart = _vstart_bound(v)
    if vstart is INF:
        inherited = TimeSet.empty()
    else:
        inherited = r.gaps.intersect(TimeSet.of(Span(vstart, False, INF, False)))

    prog = _prog_max(main, _vbot_extent_abs(v))
    events = [(t, d) for t, d in events if main.covers(t)]
    point_gaps = [p for p in point_gaps if main.covers(p.lo)]
    gaps = inherited.intersect(covered_span(main)).union(TimeSet(point_gaps))
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def last_abs_bot(v: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Value half of the unrolled abstract last: gaps demoted to no-event."""
    z = last_abs(v, r)
    return AbstractEventStream.of(z.stream)


def last_abs_gap(v: AbstractEventStream, r: AbstractEventStream,
                 d: AbstractEventStream) -> AbstractEventStream:
    """Gap half of the unrolled abstract last: d's events plus recomputed gaps."""
    z = last_abs(v, r)
    prog = z.progress.min(d.progress)
    events = tuple((t, val) for t, val in d.stream.events if prog.covers(t))
    gaps = z.gaps.minus(_points(d.stream.ticks()))
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def _points(times) -> TimeSet:
    """The set holding exactly the given time points."""
    return TimeSet(Span(t, True, t, True) for t in times)


# -- time-aware last -------------------------------------------------------

def _gap_free_inf(v: AbstractEventStream, t: Fraction) -> Fraction:
    """Infimum u <= t such that (u, t) contains no gap of v; t if none exists."""
    candidates = [Fraction(0)] + [b for b in v.gaps.boundaries() if b <= t]
    for c in sorted(candidates):
        if not v.gaps.overlaps_open(c, t):
            return c
    return t


def last_time_abs(v: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Time-aware abstract last: intervals of possible last-event timestamps.

    Where the plain composition of time and last would yield TOP, the output
    carries the interval from the last known event of v to the end of the
    trailing gap; elsewhere it behaves like last over event timestamps, with
    payloads as degenerate intervals.
    """
    z = last_abs(time_abs(v), r)
    events = []
    for t, val in z.stream.events:
        if val is TOP:
            prev = v.stream.last_event_before(t)
            lo = prev[0]
            hi = _gap_free_inf(v, t)
            events.append((t, Interval.of(lo, max(lo, hi))))
        else:
            events.append((t, Interval.single(val)))
    return AbstractEventStream.of(EventStream.of(events, z.progress), z.gaps)


def _time_as_intervals(s: AbstractEventStream) -> AbstractEventStream:
    mapped = EventStream.of(((t, Interval.single(t)) for t, _ in s.stream.events),
                            s.progress)
    return AbstractEventStream.of(mapped, s.gaps)


def _tmerge_time_aware(x_times: AbstractEventStream,
                       lt: AbstractEventStream) -> AbstractEventStream:
    """merge for the time-aware signal lift.

    Like merge_abs, except that a gap on the first stream combined with a
    last-time interval hulls in the gap timestamp itself: an event hidden in
    the gap would carry its own (known) timestamp.
    """
    prog = x_times.progress.min(lt.progress)
    points = _atom_points([x_times, lt], prog)
    events = []
    gap_spans = []
    for lo, hi, sample, lo_open in _atoms(points, prog):
        a = x_times.at(sample) if lo == hi else (GAP if x_times.gaps.contains(sample) else BOTTOM)
        b = lt.at(sample) if lo == hi else (GAP if lt.gaps.contains(sample) else BOTTOM)
        if lo == hi:
            if not prog.covers(sample):
                continue
            if a is GAP and isinstance(b, Interval):
                out = b.hull(Interval.single(sample))
            else:
                out = merge_cell(a, b)
            if out is GAP:
                gap_spans.append(Span(lo, True, lo, True))
            elif out is not BOTTOM:
                events.append((sample, out))
        else:
            out = merge_cell(a, b)
            if out is GAP:
                gap_spans.append(Span(lo, False, hi, False) if hi is not INF
                                 else Span(lo, False, INF, False))
            elif out is not BOTTOM:
                raise OperatorError("time-aware merge produced an event over a region")
    return AbstractEventStream.of(EventStream.of(events, prog), TimeSet(gap_spans))


# -- signal lift -----------------------------------------------------------

def slift_abs(f_abs: Callable, *streams: AbstractEventStream) -> AbstractEventStream:
    """Abstract signal lift via synchronization with abstract last."""
    if len(streams) == 1:
        return lift_abs(strict_cells(f_abs), *streams)
    synced = []
    for i, x in enumerate(streams):
        others = [s for j, s in enumerate(streams) if j != i]
        trigger = merge_abs(*others) if len(others) > 1 else others[0]
        synced.append(merge_abs(x, last_abs(x, trigger)))
    return lift_abs(strict_cells(f_abs), *synced)


def slift_time_abs(f_abs: Callable, x: AbstractEventStream,
                   y: AbstractEventStream) -> AbstractEventStream:
    """Signal lift over event timestamps, kept precise across gaps.

    Equivalent to slift of f over time(x) and time(y) but using the
    time-aware last, so payloads are timestamp intervals and comparisons
    of timestamps stay concrete whenever the interval endpoints decide them.
    """
    xt = _time_as_intervals(x)
    yt = _time_as_intervals(y)
    xs = _tmerge_time_aware(xt, last_time_abs(x, y))
    ys = _tmerge_time_aware(yt, last_time_abs(y, x))
    return lift_abs(strict_cells(f_abs), xs, ys)


# -- delay -----------------------------------------------------------------

@dataclass
class _ExactSource:
    start: Fraction
    tau: Fraction
    definite_set: bool
    vulnerable: bool = False      # a reset gap appeared strictly inside (start, tau)
    undecidable: bool = False     # the reset span entered the unknown region


def _delay_amount(val, where):
    if val is TOP:
        return "any"
    if val is INF:
        return None
    if isinstance(val, Interval):
        if val.is_single():
            val = val.lo
        else:
            return "any"
    if isinstance(val, bool):
        raise OperatorError(f"delay amount at {where} must be a duration, got {val!r}")
    if isinstance(val, int):
        val = Fraction(val)
    if not isinstance(val, Fraction) or val <= 0:
        raise OperatorError(f"delay amount at {where} must be positive, got {val!r}")
    return val


class _DelaySweep:
    """Forward sweep deciding the abstract delay atom by atom.

    Keeps the set of pending potential timeouts: exact ones from concrete
    delay amounts and an "anything from here on" flag armed by top-valued
    or gapped delay amounts.  A definite reset event kills pending sources;
    reset gaps merely make them uncertain.
    """

    def __init__(self, d: AbstractEventStream, r: AbstractEventStream):
        self.d = d
        self.r = r
        self.exact: List[_ExactSource] = []
        self.any_alive = False
        self.fires: List[Fraction] = []
        self.gap_spans: List[Span] = []
        self.cap: Optional[Progress] = None
        self.unknown_source_seen = False

    def _cell(self, s: AbstractEventStream, sample, is_point: bool):
        if is_point:
            return s.at(sample)
        if not s.progress.covers(sample):
            return UNKNOWN
        return GAP if s.gaps.contains(sample) else BOTTOM

    def run(self) -> AbstractEventStream:
        d, r = self.d, self.r
        for t, val in d.stream.events:
            _delay_amount(val, t)  # validate early
        horizon = _prog_max(d.progress, r.progress)
        pts = {Fraction(0)}
        for s in (d, r):
            pts.update(s.stream.ticks())
            pts.update(s.gaps.boundaries())
            if not s.progress.is_infinite():
                pts.add(s.progress.time)
        agenda = sorted(pts)
        i = 0
        prev_end = Fraction(0)
        while i < len(agenda):
            agenda.sort()
            p = agenda[i]
            if not horizon.covers(p):
                break
            if not self._atom(p, p, p, True, agenda):
                return self._finish(horizon)
            agenda.sort()
            nxt = agenda[i + 1] if i + 1 < len(agenda) else None
            if nxt is None:
                break
            if nxt > p:
                if not self._atom(p, nxt, (p + nxt) / 2, False, agenda):
                    return self._finish(horizon)
            i += 1
        last = agenda[-1] if agenda else Fraction(0)
        if horizon.is_infinite():
            self._atom(last, INF, last + 1, False, agenda)
        elif t_lt(last, horizon.time):
            self._atom(last, horizon.time, (last + horizon.time) / 2, False, agenda)
        return self._finish(horizon)

    def _stop(self, prog: Progress) -> bool:
        self.cap = prog
        return False

    def _atom(self, lo, hi, sample, is_point: bool, agenda) -> bool:
        if self.unknown_source_seen:
            return self._stop(Progress.inclusive_at(lo) if not is_point
                              else Progress.exclusive(lo))
        d_cell = self._cell(self.d, sample, is_point)
        r_cell = self._cell(self.r, sample, is_point)

        if not is_point:
            # inside a region, sources arming at interior points affect later
            # interior points, so undetermined arming data blocks the region;
            # an already-armed unbounded source keeps the verdict at gap, and
            # only a definite reset event (a point, never a region) ends it,
            # so unknown delay data is harmless while any_alive holds
            d_unknown_src = (d_cell is UNKNOWN and not self.any_alive
                             and r_cell is not BOTTOM)
            r_unknown_src = r_cell is UNKNOWN and d_cell is not BOTTOM
            if d_unknown_src or r_unknown_src:
                return self._stop(Progress.inclusive_at(lo))

        # 1. decide z on this atom from sources created strictly earlier,
        #    plus region self-arming (a delay gap inside a reset gap)
        hit_exact = [s for s in self.exact if is_point and s.tau == sample]
        for s in hit_exact:
            if s.undecidable:
                return self._stop(Progress.exclusive(sample))
        forced = any(s.definite_set and not s.vulnerable for s in hit_exact)
        self_arming = (not is_point and d_cell is GAP and r_cell is GAP)
        possible = bool(hit_exact) or self.any_alive or self_arming
        if r_cell is UNKNOWN and self.any_alive:
            # gap-versus-bottom depends on unseen reset data
            return self._stop(Progress.exclusive(sample) if is_point
                              else Progress.inclusive_at(lo))

        cell = BOTTOM
        if forced:
            cell = UNIT
            self.fires.append(sample)
        elif possible:
            cell = GAP
            if is_point:
                self.gap_spans.append(Span(sample, True, sample, True))
            elif hi is INF:
                self.gap_spans.append(Span(lo, False, INF, False))
            else:
                self.gap_spans.append(Span(lo, False, hi, False))

        # expired exact sources
        self.exact = [s for s in self.exact if t_lt(sample, s.tau)]

        # 2. apply reset effects of this atom to pre-existing sources
        if is_point and r_cell not in (BOTTOM, GAP, UNKNOWN):
            self.exact = [s for s in self.exact if not s.start < sample]
            self.any_alive = False
        elif r_cell is GAP:
            for s in self.exact:
                if s.start < sample or (not is_point and s.start <= lo):
                    s.vulnerable = True
        elif r_cell is UNKNOWN:
            for s in self.exact:
                s.undecidable = True

        # 3. new sources from this atom's delay-stream features
        if d_cell is UNKNOWN:
            settable = (r_cell not in (BOTTOM, UNKNOWN)) or cell in (GAP,) or forced
            if self.any_alive:
                # gap persists whatever the unknown delay data holds, but a
                # definite reset both ends it and might re-arm unknowably
                if r_cell not in (BOTTOM, GAP, UNKNOWN):
                    self.unknown_source_seen = True
            elif settable or r_cell is UNKNOWN:
                self.unknown_source_seen = True
        elif d_cell is GAP:
            settable = (r_cell not in (BOTTOM, UNKNOWN)) or cell is GAP or forced
            if settable:
                self.any_alive = True
            elif r_cell is UNKNOWN:
                self.unknown_source_seen = True
        elif d_cell is not BOTTOM:
            # a proper delay event
            if r_cell is UNKNOWN:
                self.unknown_source_seen = True
            else:
                amount = _delay_amount(d_cell, sample)
                definite = (r_cell not in (BOTTOM, GAP)) or forced
                possible_set = definite or r_cell is GAP or cell is GAP
                if possible_set and amount == "any":
                    self.any_alive = True
                elif possible_set and amount is not None:
                    src = _ExactSource(sample, sample + amount, definite)
                    self.exact.append(src)
                    if src.tau not in agenda:
                        agenda.append(src.tau)
        return True

    def _finish(self, horizon: Progress) -> AbstractEventStream:
        prog = horizon if self.cap is None else horizon.min(self.cap)
        events = [(t, UNIT) for t in self.fires if prog.covers(t)]
        gaps = TimeSet(self.gap_spans).minus(_points(t for t, _ in events))
        return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def delay_abs(d: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Abstract delay: gaps where an output event is possible but not certain."""
    return _DelaySweep(d, r).run()


def delay_abs_bot(d: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Value half of the unrolled abstract delay: gaps demoted to no-event."""
    z = delay_abs(d, r)
    return AbstractEventStream.of(z.stream)


def delay_abs_gap(d: AbstractEventStream, r: AbstractEventStream,
                  p: AbstractEventStream) -> AbstractEventStream:
    """Gap half of the unrolled abstract delay: p's events plus recomputed gaps."""
    z = delay_abs(d, r)
    prog = z.progress.min(p.progress)
    events = tuple((t, val) for t, val in p.stream.events if prog.covers(t))
    gaps = z.gaps.minus(_points(p.stream.ticks()))
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def delay_abs_fin(d: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Finite-memory abstract delay: runs of uncertain timeouts merge into one gap.

    Sound but coarser than delay_abs: where several pending delays armed
    during a reset gap would each contribute a point gap, the bottoms in
    between are promoted to gap as well, so only the earliest and latest
    pending timeout need to be remembered.
    """
    z = delay_abs(d, r)
    sources = []
    for t, val in d.stream.events:
        amount = _delay_amount(val, t)
        if amount not in (None, "any") and r.at(t) is GAP:
            sources.append((t, t + amount))
    if not sources:
        return z
    r_ticks = sorted(r.stream.tick_set())

    pts = {tau for _, tau in sources} | {t for t, _ in sources} | set(r_ticks)
    pts |= set(z.gaps.boundaries()) | z.stream.tick_set()
    pts = sorted(p for p in pts if z.progress.covers(p))

    extra = []
    broken = {i: False for i in range(len(sources))}

    def override_at(t) -> bool:
        first = any(
            tau1 <= t and not broken[i] and not any(t1 < u < t for u in r_ticks)
            for i, (t1, tau1) in enumerate(sources)
        )
        second = any(t2 < t and tau2 >= t for t2, tau2 in sources)
        return first and second

    def scan_atom(lo, hi, sample, is_point):
        was_gap = z.at(sample) is GAP
        over = override_at(sample) and z.at(sample) is BOTTOM
        if over:
            if is_point:
                extra.append(Span(sample, True, sample, True))
            else:
                extra.append(Span(lo, False, hi, False))
        if not (was_gap or over):
            # the gap chain breaks: sources whose timeout already passed die
            for i, (_, tau1) in enumerate(sources):
                if tau1 < sample or (is_point and tau1 == sample):
                    broken[i] = True

    for i, p in enumerate(pts):
        scan_atom(p, p, p, True)
        if i + 1 < len(pts):
            q = pts[i + 1]
            scan_atom(p, q, (p + q) / 2, False)
    if not extra:
        return z
    return AbstractEventStream.of(z.stream, z.gaps.union(TimeSet(extra)))
