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

lift_abs and slift_abs are one walk each over the atoms of their arguments:
the points (ticks, gap boundaries, progress) and the open intervals between
them.  _walk reads every argument's cell on each atom off one cursor over
its ticks and gap boundaries.  The signal lift slift_abs carries each
argument's latest value through that walk instead of building the paper's
synchronization, merge_abs(x, last_abs(x, others)) (ops.synchronized); that
composition is kept only for the encoded signal lift and as the test oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, List, Optional, Sequence

from .errors import OperatorError
from .functions import strict_cells
from .ops import _prog_max, _prog_min_all
from .streams import EventStream, Progress
from .timeline import INF, ExtTime, Span, TimeSet, t_lt, t_min
from .values import BOTTOM, GAP, TOP, UNIT, UNKNOWN, Interval
from .abstract import AbstractEventStream, covered_span

_ZERO = Fraction(0)


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

def _atom_points(streams: Sequence[AbstractEventStream]) -> list:
    """Sorted 0, ticks, gap boundaries and finite progress times of the streams."""
    pts = {Fraction(0)}
    for s in streams:
        pts.update(s.stream.ticks())
        pts.update(s.gaps.boundaries())
        if not s.progress.is_infinite():
            pts.add(s.progress.time)
    return sorted(pts)


def _atoms(points: list, prog: Progress):
    """Yield (lo, hi, sample, is_point) atoms partitioning the span prog covers.

    Point atoms have lo == hi; open atoms exclude both endpoints.  The walk
    stops at the first point prog does not cover and ends with the open
    atom from the last covered point up to progress.  While an atom is
    consumed, points above its hi may be inserted into the sorted list.
    """
    last = None
    i = 0
    while i < len(points) and prog.covers(points[i]):
        p = points[i]
        if last is not None:
            yield (last, p, (last + p) / 2, False)
        yield (p, p, p, True)
        last = p
        i += 1
    if last is None:
        last = Fraction(0)
    if prog.is_infinite():
        yield (last, INF, last + 1, False)
    elif t_lt(last, prog.time):
        yield (last, prog.time, (last + prog.time) / 2, False)


def _marks(s: AbstractEventStream) -> list:
    """(t, cell at t, gapped just above t) at each tick and gap boundary of s.

    The cell is the event value, GAP or BOTTOM.  Between two marks s is
    constant: in a gap if the earlier mark says so, empty otherwise.
    """
    marks = []
    for sp in s.gaps.spans:
        point = sp.is_point()
        if marks and marks[-1][0] == sp.lo:
            marks.pop()     # two open ends meet at sp.lo, which is no gap
        marks.append((sp.lo, GAP if sp.lo_closed else BOTTOM, not point))
        if sp.hi is not INF and not point:
            marks.append((sp.hi, GAP if sp.hi_closed else BOTTOM, False))
    events = s.stream.events
    if not marks:
        return [(t, v, False) for t, v in events]
    # an event can only sit on an open gap end, and keeps that end's gap above
    ticks = s.stream.ticks()
    out = []
    j = 0
    for t, cell, above in marks:
        i = bisect_left(ticks, t, j)
        out.extend((u, v, False) for u, v in events[j:i])
        if i < len(ticks) and ticks[i] == t:
            cell = events[i][1]
            i += 1
        out.append((t, cell, above))
        j = i
    out.extend((u, v, False) for u, v in events[j:])
    return out


def _walk(streams: Sequence[AbstractEventStream], prog: Progress):
    """Yield (lo, hi, cells) for the atoms partitioning the span prog covers.

    Atoms come in time order.  The point atom at lo has hi None; the open
    atom (lo, hi) runs to the next point, or to INF.  cells holds each
    stream's cell on the atom: its event value, GAP or BOTTOM.  The points
    are 0, the streams' ticks and gap boundaries, and an inclusive prog's
    time.  One pass over the streams' merged marks tracks which stream is in
    a gap, so no cell is looked up.
    """
    if not prog.covers(_ZERO):
        return
    marks = [(t, i, cell, above) for i, s in enumerate(streams)
             for t, cell, above in _marks(s)]
    if len(streams) > 1:
        marks.sort(key=itemgetter(0))
    region = (BOTTOM,) * len(streams)
    prev = None
    for t, group in groupby(marks, itemgetter(0)):
        if not prog.covers(t):
            break
        if prev is not None:
            yield prev, t, region
        elif t:
            yield _ZERO, None, region
            yield _ZERO, t, region
        cells, after = list(region), list(region)
        for _, i, cell, above in group:
            cells[i] = cell
            after[i] = GAP if above else BOTTOM
        yield t, None, tuple(cells)
        region = tuple(after)
        prev = t
    if prev is None:
        yield _ZERO, None, region
        prev = _ZERO
    if prog.is_infinite():
        yield prev, INF, region
    elif prev < prog.time:
        yield prev, prog.time, region
        if prog.inclusive:
            yield prog.time, None, region


def _lift_atoms(f_abs: Callable, atoms, prog: Progress) -> AbstractEventStream:
    """The stream with f_abs of each atom's cells on it, up to prog."""
    events = []
    gap_spans = []
    for lo, hi, cells in atoms:
        out = f_abs(*cells)
        if hi is None:
            if out is GAP:
                gap_spans.append(Span(lo, True, lo, True))
            elif out is not BOTTOM:
                if out is UNKNOWN:
                    raise OperatorError("abstract lifted function produced unknown")
                events.append((lo, out))
        elif out is GAP:
            gap_spans.append(Span(lo, False, hi, False))
        elif out is not BOTTOM:
            raise OperatorError(
                "abstract lifted function produced an event over a region"
            )
    return AbstractEventStream.of(EventStream.of(events, prog), TimeSet(gap_spans))


def lift_abs(f_abs: Callable, *streams: AbstractEventStream) -> AbstractEventStream:
    if not streams:
        raise OperatorError("lift_abs needs at least one stream")
    prog = _prog_min_all([s.progress for s in streams])
    return _lift_atoms(f_abs, _walk(streams, prog), prog)


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
            if t_prev < v.gaps.free_since(t):
                events.append((t, TOP))
            else:
                events.append((t, val))
        else:
            if v.gaps.first_point() < t:
                point_gaps.append(Span(t, True, t, True))

    vstart = _vstart_bound(v)
    if vstart is INF:
        inherited = TimeSet.empty()
    else:
        inherited = r.gaps.intersect(TimeSet.of(Span(vstart, False, INF, False)))

    prog = _prog_max(main, _vbot_extent_abs(v))
    gaps = inherited.intersect(covered_span(main)).union(TimeSet(point_gaps))
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def last_abs_bot(v: AbstractEventStream, r: AbstractEventStream) -> AbstractEventStream:
    """Value half of the unrolled abstract last: gaps demoted to no-event."""
    z = last_abs(v, r)
    return AbstractEventStream.of(z.stream)


def last_abs_gap(v: AbstractEventStream, r: AbstractEventStream,
                 d: AbstractEventStream) -> AbstractEventStream:
    """Gap half of the unrolled abstract last: d's events plus recomputed gaps."""
    return _gap_half(last_abs(v, r), d)


def _gap_half(z: AbstractEventStream, d: AbstractEventStream) -> AbstractEventStream:
    """d's events, with z's gaps everywhere except at d's ticks."""
    prog = z.progress.min(d.progress)
    events = tuple((t, val) for t, val in d.stream.events if prog.covers(t))
    gaps = z.gaps.minus(_points(d.stream.ticks()))
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def _points(times) -> TimeSet:
    """The set holding exactly the given time points."""
    return TimeSet(Span(t, True, t, True) for t in times)


# -- time-aware last -------------------------------------------------------

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
            hi = v.gaps.free_since(t)
            events.append((t, Interval.of(lo, max(lo, hi))))
        else:
            events.append((t, Interval.single(val)))
    return AbstractEventStream.of(EventStream.of(events, z.progress), z.gaps)


def _time_as_intervals(s: AbstractEventStream) -> AbstractEventStream:
    mapped = EventStream.of(((t, Interval.single(t)) for t, _ in s.stream.events),
                            s.progress)
    return AbstractEventStream.of(mapped, s.gaps)


def _tmerge_cells(a, b, t):
    """merge of a timestamp cell a and a last-time cell b, given b's timestamp t.

    Like merge_cell, except that a gap on a combined with a last-time
    interval hulls in t itself: an event hidden in the gap would carry its
    own (known) timestamp.
    """
    if a is GAP and isinstance(b, Interval):
        return b.hull(Interval.single(t))
    return merge_cell(a, b)


def _tmerge_time_aware(x_times: AbstractEventStream,
                       lt: AbstractEventStream) -> AbstractEventStream:
    """merge for the time-aware signal lift: _tmerge_cells lifted over x_times and lt."""
    return lift_abs(_tmerge_cells, x_times, lt, time_abs(lt))


# -- signal lift -----------------------------------------------------------

def _synchronized_atoms(atoms, n: int):
    """The atoms with the cells of synchronized(streams, merge_abs, last_abs).

    Synchronized stream i is merge_abs(x_i, last_abs(x_i, trigger_i)), where
    trigger_i merges the other streams.  The walk carries, per stream, its
    latest event value, whether a gap came after that event (or before any
    event), and whether it has started: had an event or a gap.  On a point
    where x_i has no event of its own, its cell is
      - where x_i is in a gap: TOP if another stream has an event and x_i
        an earlier one, else GAP;
      - where another stream has an event: x_i's latest value, TOP if a gap
        came after it; with no earlier value, GAP if a gap came before;
      - where another stream is in a gap: GAP if x_i has started;
    and BOTTOM otherwise.  On an open atom the cell is GAP where x_i is in
    a gap, or has started while another stream is.
    """
    latest = [BOTTOM] * n
    tainted = [False] * n
    started = [False] * n
    for lo, hi, cells in atoms:
        gapped = sum(c is GAP for c in cells)
        if hi is not None:
            synced = []
            for i, c in enumerate(cells):
                if c is GAP:
                    tainted[i] = started[i] = True
                    synced.append(GAP)
                else:
                    synced.append(GAP if gapped and started[i] else BOTTOM)
            yield lo, hi, synced
            continue
        ticking = gapped + sum(c is BOTTOM for c in cells) < n
        synced = []
        for i, c in enumerate(cells):
            if c is GAP:
                synced.append(TOP if ticking and latest[i] is not BOTTOM else GAP)
                tainted[i] = started[i] = True
            elif c is not BOTTOM:
                synced.append(c)
                latest[i], tainted[i], started[i] = c, False, True
            elif ticking:
                if latest[i] is BOTTOM:
                    synced.append(GAP if tainted[i] else BOTTOM)
                else:
                    synced.append(TOP if tainted[i] else latest[i])
            else:
                synced.append(GAP if gapped and started[i] else BOTTOM)
        yield lo, hi, synced


def slift_abs(f_abs: Callable, *streams: AbstractEventStream) -> AbstractEventStream:
    """Abstract signal lift: the strict f_abs over the synchronized streams.

    One walk over the arguments' atoms computes the cells of
    lift_abs(strict_cells(f_abs), *synchronized(streams, merge_abs,
    last_abs)), the paper's definition, without building those streams.  As
    for the concrete slift, the output progress is the least of the
    arguments' progress: last_abs cuts its progress at a trigger tick above
    x_i's own progress, so every synchronized stream's progress lies between
    the least and x_i's.
    """
    if not streams:
        raise OperatorError("slift_abs needs at least one stream")
    prog = _prog_min_all([s.progress for s in streams])
    atoms = _synchronized_atoms(_walk(streams, prog), len(streams))
    return _lift_atoms(strict_cells(f_abs), atoms, prog)


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
        agenda = _atom_points((d, r))
        for lo, hi, sample, is_point in _atoms(agenda, horizon):
            if not self._atom(lo, hi, sample, is_point, agenda):
                break
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
                    i = bisect_left(agenda, src.tau)
                    if i == len(agenda) or agenda[i] != src.tau:
                        agenda.insert(i, src.tau)
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
    return _gap_half(delay_abs(d, r), p)


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
