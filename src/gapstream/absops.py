"""Abstract counterparts of the core stream operators.

These operate on AbstractEventStream values, and on EventStreams as they
are: a concrete stream is its own gap-free abstract stream, its gaps the
one empty TimeSet and its stream itself (streams.EventStream).  They
mirror the concrete case analyses, extended with two kinds of partial
knowledge: TOP-valued events (known timestamp, unknown payload) and gaps
(regions where both event presence and values are unknown).  Outputs carry a gap exactly where
the inputs leave the result semantically undetermined; insufficient input
progress instead truncates the output, because a gap is final whereas
progress still grows.

All operators restricted to gap-free, TOP-free inputs coincide with their
concrete counterparts, events and progress alike, whatever each input's
progress; tests/test_absops.py TestEmbedding asserts that embedding, on
EventStreams and on their AbstractEventStream.of alike.  The concrete
time, slift, last and delay are time_abs, slift_abs, last_abs and
delay_abs on the concrete streams themselves, so there it holds by
construction, and tests/test_ops.py checks them against the synchronized
lift and the dense-time oracles.

Every operator that decides its output atom by atom walks the same atoms,
those _walk yields: the points (0, ticks, gap boundaries, progress) and the
open intervals between them.  _walk reads each argument's cell on each atom
off one cursor over its marks (_marks: ticks, gap boundaries and progress),
with UNKNOWN past the argument's own progress; it reads the marks only up
to the walk's horizon, so an argument known far beyond it costs nothing
there, and one with no gap at or after the walk's start gives only its
event slice and progress mark.  lift_abs lifts a function over those
cells.  The signal lift slift_abs carries each argument's latest value
through the walk instead of building the paper's synchronization,
merge_abs(x, last_abs(x, others)) (encoded.synchronized); that
composition is kept only for the encoded signal lift and as the test
oracle.  delay_abs
and delay_abs_fin walk their inputs through _split, which also splits the
atoms at the pending timeouts; delay_abs is one forward pass.  last_abs
moves one pointer through the value stream's marks as the trigger ticks
ascend (_last_values); on a value stream with no gap span the pointer
moves through its events alone, from one bisect, and no mark is built.
ops.time, ops.slift, ops.last and ops.delay run time_abs, slift_abs,
last_abs and delay_abs on their concrete arguments and prev, so the
concrete rows resume as these do.

A row's result has its prev's type (_like): where prev is an EventStream
and the result has no gap, the result is the EventStream itself, so a
concrete row, whose prev is one, gets one back and ops unwraps nothing;
an abstract prev, the empty default included, gets an
AbstractEventStream.

The time-aware last_time_abs and slift_time_abs are the last_abs and
slift_abs walks with another taint rule, the cell a value gets where a gap
came after it: TOP in the plain abstraction; they read each event as its
timestamp and give such a value the interval up to the gap's end.

lift_abs, merge_abs, const_abs and slift_abs resume from prev, their
previous output (the empty stream by default, which is a full evaluation);
time_abs maps only the ticks past prev's events.
They walk from prev's progress time, whose point atom holds each
argument's cell there; slift_abs starts from each argument's latest value,
taint, start and last gap end below that time, which _carried recovers.
An argument with no gap span carries no gap state: its latest value is
one bisect, untainted (_untainted), and the tick walk (_slift_ticks)
hands the latest values to the function as they are while nothing is
tainted.
The lifted function is applied only to the atoms prev's progress does not
decide: a point it does not cover, or an open atom whose upper end it does
not cover from below.  The output is prev extended by what those atoms
give; if the progress has not moved, it is prev itself.  This is sound
when prev is the same operator's output on prefixes of the arguments:
every operator here is prefix-monotone (tests/test_absops.py
TestDelayWalk), so prev is a prefix of the new output, and f_abs is pure.
An open atom that straddles prev's progress gives the same cell on prev's
part of it, and TimeSet joins the two gap spans.

Where no argument has a gap span that meets the walked window, from
prev's progress time to the output's, the abstract semantics is the
concrete one there: every atom but the ticks has only BOTTOM cells.  A gap
past the window changes no cell in it.  So the resumed lifts walk only the
new ticks (_tick_cells, the concrete lift's walk, which ops.lift runs
through _lift_ticks): lift_abs if f_abs keeps all-BOTTOM cells BOTTOM,
which one call probes, and slift_abs carrying _carried's or _untainted's
state through the ticks (_slift_ticks).  The output is prev's events
extended by those the ticks give, with prev's gaps.  A GAP or UNKNOWN at
a tick, which only the atom walk puts out or rejects, a function that
gives anything else on BOTTOM cells, and a gap in the window take the
atom walk.  merge_abs,
whose merge_cells keeps BOTTOM and forwards the first event it meets,
needs no tick walk there: one k-way pass over the arguments' new event
slices (_merge_ticks) keeps the first argument's (time, value) pair at a
shared tick, and ops.merge is merge_abs on concrete streams.
tests/test_absops.py TestTickPath checks both paths against the atom walk
composed directly, and the concrete merge against the tick walk.

The history operators of an unrolled recursion resume too.  last_abs and
last_time_abs (and their value halves) take prev's events and walk only
the trigger ticks past prev's progress; their progress and gaps, all the
gap half last_abs_gap needs, come from _last_frame by bisects, without a
walk, and without gaps in either argument from v's progress and first
event alone: the trigger's gaps are cut to the output's span by
TimeSet.window, which rebuilds only the two spans at its ends.  The gap
half searches only the gaps past prev's progress.
The pending timeouts of delay_abs cannot be recovered from prev cheaply, so
it ignores prev, and its sweep state lives in a holder its caller passes,
one per pair of argument streams (speclang.Operator.stateful), the
concrete delay's too.  The same argument objects get the kept result, so
both halves of an unrolled delay share one sweep, and so does a delay
stream that gained only progress short of the atom the kept sweep stopped
at; later arguments resume the sweep from the kept checkpoint.  A holder
sees only growing prefixes of its two streams, the contract prev relies
on, so their history below the checkpoint is the kept one, and so are the
output's events and gaps there: a resumed sweep appends only the fires
and unites only the spans it adds.  The halves resume from prev as
last's do.

No operator checks its whole output: AbstractEventStream.of and
EventStream.of validate at the public boundary only, inputs and user
code.  Each operator checks only what it adds to streams already checked
(EventStream.extended, _extended, and last_abs against its recomputed
gaps), or builds an output valid by construction, as its docstring or
comments argue.  Each output is built by EventStream.extended, truncated
or with_payloads from an input's or prev's stream, so it carries its tick
tuple and no new version pays for an index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, dropwhile, groupby
from operator import itemgetter
from typing import Callable, List, NamedTuple, Optional, Sequence

from .errors import OperatorError
from .functions import strict_cells
from .streams import EventStream, Progress
from .timeline import INF, ExtTime, Span, Time, TimeSet, _hi, _lo, as_time
from .values import BOTTOM, GAP, TOP, UNIT, UNKNOWN, Interval
from .abstract import AbstractEventStream, covered_span


_NOTHING = AbstractEventStream.of(EventStream.empty())


def nil_abs(prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """No event, decided everywhere; a constant has nothing to resume, so prev is ignored."""
    return AbstractEventStream.of(EventStream.of((), Progress.infinite()))


def unit_abs(prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """One unit event at 0, decided everywhere; prev is ignored, as nil_abs ignores it."""
    return AbstractEventStream.of(EventStream.of(((0, UNIT),), Progress.infinite()))


def time_abs(s: AbstractEventStream,
             prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """Each event's timestamp as its payload, a Fraction like every parsed number.

    s's ticks, progress and gaps stay, so the output is valid as s is.
    prev, time_abs's output on a prefix of s (empty by default), holds the
    first of those events, so only the later ticks are mapped; with s's
    progress it is the output itself.  The output has prev's type (_like).
    """
    if prev.progress == s.progress:
        return prev
    old = prev.stream.events
    mapped = old + tuple((t, Fraction(t)) for t in s.stream.ticks()[len(old):])
    return _like(prev, s.stream.with_payloads(mapped), s.gaps)


def _like(prev: AbstractEventStream, stream: EventStream, gaps: TimeSet) -> AbstractEventStream:
    """stream with gaps, of prev's type: stream itself if prev is an EventStream and gaps are empty.

    A concrete row's prev is an EventStream, so its result is one too, and
    ops needs no unwrap; an abstract prev gets an AbstractEventStream.
    """
    if prev is prev.stream and not gaps.spans:
        return stream
    return AbstractEventStream(stream, gaps)


# -- lift ------------------------------------------------------------------

def _marks(s: AbstractEventStream, since: Time = 0, until: ExtTime = INF,
           stamp: bool = False) -> list:
    """(t, cell at t, cell just above t) at since and each later tick, gap boundary and progress of s up to until.

    The cell at t is the event value, GAP or BOTTOM; the cell above is GAP
    or BOTTOM.  Between two marks s is constant, with the earlier mark's
    cell above.  A finite progress p ends the list: (p, cell at p, UNKNOWN)
    if p is inclusive, (p, UNKNOWN, UNKNOWN) if exclusive.  The first mark
    sits at since; inside a constant region it holds the region's cell
    twice, BOTTOM before the first mark of s and UNKNOWN past its progress.
    Only the ticks and gap spans from since up to until are read, and no
    mark lies past until.  With stamp, an event's cell is its timestamp as
    a point interval, the value the time-aware rows read.
    """
    spans = s.gaps.spans
    marks = []
    for sp in spans[bisect_left(spans, since, key=_hi):]:
        if sp.lo > until:
            break
        point = sp.is_point()
        if marks and marks[-1][0] == sp.lo:
            marks.pop()     # two open ends meet at sp.lo, which is no gap
        marks.append((sp.lo, GAP if sp.lo_closed else BOTTOM, BOTTOM if point else GAP))
        if sp.hi is not INF and not point:
            marks.append((sp.hi, GAP if sp.hi_closed else BOTTOM, BOTTOM))
    events = s.stream.events
    # an event can only sit on an open gap end, and keeps that end's gap above
    ticks = s.stream.ticks()
    end = bisect_right(ticks, until)
    out = []
    j = bisect_left(ticks, since, 0, end)
    for t, cell, above in marks:
        i = bisect_left(ticks, t, j, end)
        out.extend((u, v, BOTTOM) for u, v in events[j:i])
        if i < end and ticks[i] == t:
            cell = events[i][1]
            i += 1
        out.append((t, cell, above))
        j = i
    out.extend((u, v, BOTTOM) for u, v in events[j:end])
    prog = s.progress
    if not prog.is_infinite():
        # gaps and events lie in the covered span, so only the last mark can sit on p
        cell = out.pop()[1] if out and out[-1][0] == prog.time else BOTTOM
        out.append((prog.time, cell if prog.inclusive else UNKNOWN, UNKNOWN))
    # a gap's upper end or the progress may lie past until
    while out and out[-1][0] > until:
        out.pop()
    # below since lie at most the lower end of a gap around since and, past
    # the progress, the progress mark
    below = 0
    head = BOTTOM
    while below < len(out) and out[below][0] < since:
        head = out[below][2]
        below += 1
    del out[:below]
    if not out or out[0][0] != since:
        out.insert(0, (since, head, head))
    if stamp:
        out = [(t, cell if cell is GAP or cell is BOTTOM or cell is UNKNOWN
                else Interval.single(t), above) for t, cell, above in out]
    return out


def _carried(s: AbstractEventStream, since: Time, stamp: bool = False) -> tuple:
    """(latest, tainted, started, end) of s strictly below since, by bisects.

    latest is the value of s's last event below since (read as _marks
    reads it), BOTTOM if none; tainted holds if a gap came after that
    event, or before since with no event; started holds if s has an event
    or a gap below since; end is where the last gap below since ends, since
    at most.  These are what the walks of slift and last carry into since.
    Where no gap starts below since, it is _untainted's state.
    """
    spans = s.gaps.spans
    k = bisect_left(spans, since, key=_lo)
    if not k:
        return _untainted(s, since, stamp)
    before = s.stream.last_event_before(since)
    end = s.gaps.free_since(since)
    if before is None:
        return BOTTOM, True, True, end
    # the last gap starting below since reaches past the latest event, if
    # it comes after it; an earlier one ends at or before that event
    t, latest = before
    return Interval.single(t) if stamp else latest, t < spans[k - 1].hi, True, end


def _untainted(s: AbstractEventStream, since: Time, stamp: bool = False) -> tuple:
    """_carried's state where no gap of s starts below since: its latest value there, untainted.

    One bisect (last_event_before) and no gap state: nothing is tainted, s
    has started if it has an event below since, and no gap has ended.
    slift_abs calls it for an argument with no gap span, and _carried
    where none starts below since.
    """
    before = s.stream.last_event_before(since)
    if before is None:
        return BOTTOM, False, False, 0
    t, latest = before
    return Interval.single(t) if stamp else latest, False, True, 0


def _walk(streams: Sequence[AbstractEventStream], horizon: Progress, start: Time = 0,
          stamp: bool = False):
    """Yield (lo, hi, cells) for the atoms partitioning the span horizon covers from start on.

    Atoms come in time order.  The point atom at lo has hi None; the open
    atom (lo, hi) runs to the next point, or to INF.  cells holds each
    stream's cell on the atom: its event value, GAP, BOTTOM, or UNKNOWN past
    the stream's own progress.  The points are start and the streams' ticks,
    gap boundaries and finite progress times above it; horizon is one
    stream's progress.  One pass over the streams' merged marks up to the
    horizon tracks each stream's cell, so no cell is looked up; every stream
    has a mark at start.  stamp reads the events as _marks does.
    """
    if not horizon.covers(start):
        return
    marks = [(t, i, cell, above) for i, s in enumerate(streams)
             for t, cell, above in _marks(s, start, horizon.time, stamp)]
    if len(streams) > 1:
        marks.sort(key=itemgetter(0))
    region = (BOTTOM,) * len(streams)
    prev = start
    for t, group in groupby(marks, itemgetter(0)):
        if not horizon.covers(t):
            break
        if t != start:
            yield prev, t, region
        cells, after = list(region), list(region)
        for _, i, cell, above in group:
            cells[i] = cell
            after[i] = above
        yield t, None, tuple(cells)
        region = tuple(after)
        prev = t
    if prev < horizon.time:
        yield prev, horizon.time, region


def _split(atoms, taus: list):
    """The atoms, with each open atom split at the times in the heap taus.

    A time tau inside an open atom (lo, hi) makes it (lo, tau), the point
    tau and (tau, hi), all with the atom's cells; a time at a point atom,
    or already passed, is dropped.  The consumer may push times above the
    atom it is consuming.
    """
    for lo, hi, cells in atoms:
        while taus and (taus[0] <= lo if hi is None else taus[0] < hi):
            tau = heappop(taus)
            if lo < tau:
                yield lo, tau, cells
                yield tau, None, cells
                lo = tau
        yield lo, hi, cells


def _lift_atoms(f_abs: Callable, atoms, prog: Progress,
                prev: AbstractEventStream) -> AbstractEventStream:
    """prev extended by f_abs of each atom's cells, from prev's progress up to prog.

    The atoms prev decides come first and are only passed over; the walk
    is lazy, so an unchanged progress costs no walk at all.
    """
    done = prev.progress
    if prog == done:
        return prev

    def decided(atom) -> bool:
        lo, hi, _ = atom
        return done.covers(lo) if hi is None else done.covers_below(hi)

    events = []
    gap_spans = []
    for lo, hi, cells in dropwhile(decided, atoms):
        out = f_abs(*cells)
        if hi is None:
            if out is GAP:
                gap_spans.append(Span(lo, True, lo, True))
            elif out is not BOTTOM:
                if out is UNKNOWN:
                    raise OperatorError("lifted function produced unknown")
                events.append((lo, out))
        elif out is GAP:
            gap_spans.append(Span(lo, False, hi, False))
        elif out is not BOTTOM:
            raise OperatorError(
                "abstract lifted function produced an event over a region"
            )
    return _extended(prev, events, gap_spans, prog)


def _extended(prev: AbstractEventStream, events: list, gap_spans: list,
              prog: Progress) -> AbstractEventStream:
    """prev with the events and gap spans appended, and progress prog.

    Only what is appended is checked, as AbstractEventStream.of checks a
    whole stream: EventStream.extended checks the events, no gap span
    reaches back over prev's last event, and no appended event lies in a
    gap.  The caller keeps every span under prog, so the gaps are not cut
    to it.
    """
    old = prev.stream.events
    last = old[-1][0] if old else -1      # times are non-negative
    for sp in gap_spans:
        if sp.lo < last or sp.lo == last and sp.lo_closed:
            raise OperatorError(f"gap {sp} reaches over the event at {last}")
    stream = prev.stream.extended(events, prog)
    gaps = prev.gaps.union(TimeSet(gap_spans)) if gap_spans else prev.gaps
    for t, _ in events:
        if gaps.contains(t):
            raise OperatorError(f"event at {t} lies inside a gap")
    return _like(prev, stream, gaps)


def _new(s: EventStream, done: Progress, prog: Progress) -> slice:
    """The slice of s's events (and ticks) that prog covers and done does not."""
    ticks = s.ticks()
    return slice(done.count_covered(ticks), prog.count_covered(ticks))


def _tick_cells(streams: Sequence[EventStream], done: Progress, prog: Progress):
    """Yield (t, cells) at each tick of the streams that prog covers and done does not.

    Ticks come in time order; cells holds each stream's value at t, BOTTOM
    where it has no event there.  prog is at most every stream's progress,
    so each stream decides every tick walked.  This is the walk of the
    concrete lift, and of lift_abs and slift_abs where no argument has a
    gap from done's time to prog's: there every other atom has only BOTTOM
    cells.
    """
    if len(streams) == 1:
        s, = streams
        for t, v in s.events[_new(s, done, prog)]:
            yield t, (v,)
        return
    fresh = set()
    for s in streams:
        fresh.update(s.ticks()[_new(s, done, prog)])
    for t in sorted(fresh):
        yield t, [s.at(t) for s in streams]


def _lift_ticks(f: Callable, streams: Sequence[EventStream], done: Progress,
                prog: Progress) -> tuple:
    """(events, odd): f of the cells at each tick _tick_cells walks, where it is not BOTTOM.

    The walk stops at the first GAP or UNKNOWN f gives, odd, which no event
    can carry; odd is None if f gives neither.
    """
    events = []
    for t, cells in _tick_cells(streams, done, prog):
        out = f(*cells)
        if out is BOTTOM:
            continue
        if out is GAP or out is UNKNOWN:
            return events, out
        events.append((t, out))
    return events, None


def _gap_free_between(streams: Sequence[AbstractEventStream], since: Time,
                      until: ExtTime) -> bool:
    """True if no stream has a gap span that meets [since, until], ends included.

    One bisect by _hi per stream with spans finds its first span that ends
    at since or later; spans past until are not asked about, and a stream
    with none is passed over.
    """
    for s in streams:
        spans = s.gaps.spans
        if spans:
            i = bisect_left(spans, since, key=_hi)
            if i < len(spans) and spans[i].lo <= until:
                return False
    return True


def _keeps_bottom(f_abs: Callable, arity: int) -> bool:
    """True if f_abs gives BOTTOM where every cell is BOTTOM; False if it gives anything else or raises.

    The probe is no call of the lift's own: whatever f_abs raises here, the
    atom walk then raises, or an earlier atom's error, as it would have.
    """
    try:
        return f_abs(*(BOTTOM,) * arity) is BOTTOM
    except Exception:
        return False


def lift_abs(f_abs: Callable, *streams: AbstractEventStream,
             prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """f_abs of the arguments' cells on each atom, resumed from prev.

    Where no argument has a gap from prev's progress time to the output's,
    every atom walked but the ticks has only BOTTOM cells, so if f_abs
    keeps those BOTTOM the output is f_abs at the ticks alone (_lift_ticks)
    with prev's gaps.  A GAP or UNKNOWN at a tick, an f_abs that gives
    anything else on BOTTOM cells, and a gap between those times take the
    atom walk.
    """
    if not streams:
        raise OperatorError("lift_abs needs at least one stream")
    prog = min(s.progress for s in streams)
    done = prev.progress
    if prog == done:
        return prev
    if (_gap_free_between(streams, done.time, prog.time)
            and _keeps_bottom(f_abs, len(streams))):
        events, odd = _lift_ticks(f_abs, [s.stream for s in streams], done, prog)
        if odd is None:
            return _like(prev, prev.stream.extended(events, prog), prev.gaps)
    return _lift_atoms(f_abs, _walk(streams, prog, done.time), prog, prev)


def merge_cell(a, b):
    if a is not GAP and a is not BOTTOM:
        return a
    if a is BOTTOM:
        return b
    # a is GAP
    return GAP if b is GAP or b is BOTTOM else TOP


def merge_cells(*cells):
    out = cells[-1]
    for c in reversed(cells[:-1]):
        out = merge_cell(c, out)
    return out


def _merge_ticks(streams: Sequence[EventStream], done: Progress, prog: Progress):
    """The streams' events that prog covers and done does not, the first one at a shared tick.

    One k-way pass: a stable sort of the ascending slices merges them in
    C, and among equal times the earliest argument's (time, value) pair
    comes first and is kept as it is, its time object too.
    """
    slices = [part for s in streams if (part := s.events[_new(s, done, prog)])]
    if len(slices) < 2:
        return slices[0] if slices else ()
    out = []
    last = -1       # times are non-negative
    for ev in sorted(chain.from_iterable(slices), key=itemgetter(0)):
        if ev[0] != last:
            out.append(ev)
            last = ev[0]
    return out


def merge_abs(*streams: AbstractEventStream,
              prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """merge_cells of the arguments' cells on each atom, resumed from prev as lift_abs is.

    Where no argument has a gap from prev's progress time to the output's,
    the output is prev's events extended by the arguments' events in that
    window, the first argument's at a shared tick (_merge_ticks), with
    prev's gaps: merge_cells keeps all-BOTTOM cells BOTTOM and forwards
    the first event it meets, TOP included.  A gap in the window takes the
    atom walk.
    """
    if not streams:
        raise OperatorError("merge_abs needs at least one stream")
    prog = min(s.progress for s in streams)
    done = prev.progress
    if prog == done:
        return prev
    if _gap_free_between(streams, done.time, prog.time):
        events = _merge_ticks([s.stream for s in streams], done, prog)
        return _like(prev, prev.stream.extended(events, prog), prev.gaps)
    return _lift_atoms(merge_cells, _walk(streams, prog, done.time), prog, prev)


def const_abs(c) -> Callable[[AbstractEventStream], AbstractEventStream]:
    def cell(v):
        if v is BOTTOM or v is GAP:
            return v
        return c

    def apply(a: AbstractEventStream,
              prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
        return lift_abs(cell, a, prev=prev)

    return apply


# -- last ------------------------------------------------------------------

def _vbot_extent(v: EventStream, first_gap: ExtTime = INF) -> Progress:
    """Progress of the region where "no value event strictly before t" is known.

    The last operator outputs BOTTOM there regardless of the trigger stream,
    which lets its result extend beyond the trigger's progress.  An abstract
    value stream passes its first gap point, before which it is gap-free.
    """
    limit = min(v.progress.time, v.events[0][0] if v.events else INF, first_gap)
    return Progress.infinite() if limit is INF else Progress.inclusive_at(limit)


def _last_frame(v: AbstractEventStream, r: AbstractEventStream) -> tuple:
    """(progress, gaps, cut) of last_abs(v, r), found without walking the events.

    cut counts the trigger ticks v's progress covers from below; the first
    one past it cuts the progress.  The point gaps are the trigger ticks
    after v's first gap point, up to and including v's first event: a gap
    came before them, and no value.  Without gaps in v or r there are none,
    and v's progress and first event alone bound the progress.
    """
    ticks = r.stream.ticks()
    main = r.progress
    cut = bisect_right(ticks, v.progress.time)
    if cut < len(ticks):
        main = min(main, Progress.exclusive(ticks[cut]))
    if not v.gaps.spans and not r.gaps.spans:
        return max(main, _vbot_extent(v.stream)), TimeSet.empty(), cut
    first_gap = v.gaps.first_point()
    first_event = v.stream.events[0][0] if v.stream.events else INF
    point_gaps = ticks[bisect_right(ticks, first_gap):min(cut, bisect_right(ticks, first_event))]

    # the output inherits r's gaps strictly after v's start, the infimum of
    # v's ticks and gaps, up to main; a v with neither by a finite progress
    # may still start there or later, so r's next gap after that stays
    # undecided
    vstart = min(first_event, first_gap)
    start = min(vstart, v.progress.time)
    gaps = TimeSet.empty()
    if start is not INF:
        spans = r.gaps.spans
        i = bisect_right(spans, start, key=_hi)
        if vstart is INF and i < len(spans):
            first = spans[i]
            main = min(main, Progress(first.lo, not first.lo_closed) if start < first.lo
                       else Progress(start, True))
        gaps = r.gaps.window(start, False, main.time, main.inclusive)
    if point_gaps:
        gaps = gaps.union(_points(point_gaps))
    return max(main, _vbot_extent(v.stream, first_gap)), gaps, cut


def _interval_taint(latest: Interval, end: Time) -> Interval:
    """The timestamps from latest's (a point interval) to end, where the gap after it ends."""
    return Interval.of(latest.lo, end)


def _last_values(v: AbstractEventStream, ticks: Sequence[Time], taint=None):
    """Yield (t, v's latest value strictly before t) for the ascending ticks where v has one.

    A value that a gap came after is tainted: TOP, or with a taint rule
    taint(latest, end), end that gap's end or t, and v's timestamps for
    values.  Where v has no gap span, one bisect finds the first tick's
    place in v's ticks, and from there one pointer into v's events follows
    the ticks: nothing is tainted.  Otherwise _carried finds v's state
    before the first tick, and one pointer into v's marks up to the last
    tick follows the ticks.
    """
    if not ticks:
        return
    stamp = taint is not None
    if not v.gaps.spans:
        times, events = v.stream.ticks(), v.stream.events
        j, n = bisect_left(times, ticks[0]), len(times)
        for t in ticks:
            while j < n and times[j] < t:
                j += 1
            if j:
                u, latest = events[j - 1]
                yield t, Interval.single(u) if stamp else latest
        return
    latest, tainted, _, end = _carried(v, ticks[0], stamp)
    marks = _marks(v, ticks[0], ticks[-1], stamp)
    j = 0
    for t in ticks:
        while j < len(marks) and marks[j][0] < t:
            at, cell, above = marks[j]
            j += 1
            if cell is GAP:
                tainted, end = True, at
            elif cell is not BOTTOM:
                latest, tainted = cell, False
            if above is GAP:
                # nothing lies inside a gap: it ends at the next mark, if any
                tainted, end = True, marks[j][0] if j < len(marks) else INF
        if latest is not BOTTOM:
            yield t, (latest if not tainted else TOP if taint is None
                      else taint(latest, min(end, t)))


def last_abs(v: AbstractEventStream, r: AbstractEventStream,
             prev: AbstractEventStream = _NOTHING, taint=None) -> AbstractEventStream:
    """Abstract last: TOP after a gap-tainted history, gaps inherited from r.

    Progress and gaps come from _last_frame.  prev, the output of last_abs
    or last_abs_bot on prefixes of the arguments (empty by default), gives
    the events at the trigger ticks its progress covers, so _last_values
    walks only the later ticks, with the taint rule taint (TOP if None).

    EventStream.extended checks the new events.  The gaps are recomputed,
    not appended, so every event, prev's too, is checked against them:
    only the ticks at a gap span's two ends can lie outside it, so one pair
    of bisects per span finds the few ticks to test.
    """
    prog, gaps, cut = _last_frame(v, r)
    if prog == prev.progress and prev.gaps == gaps:
        return prev
    ticks = r.stream.ticks()
    events = list(_last_values(v, ticks[prev.progress.count_covered(ticks):cut], taint))
    stream = prev.stream.extended(events, prog)
    out = stream.ticks()
    for sp in gaps.spans:
        for t in out[bisect_left(out, sp.lo):bisect_right(out, sp.hi)]:
            if sp.contains(t):
                raise OperatorError(f"event at {t} lies inside a gap")
    return _like(prev, stream, gaps)


def last_time_abs(v: AbstractEventStream, r: AbstractEventStream,
                  prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """Time-aware abstract last: intervals of possible last-event timestamps.

    It is last_abs over v's timestamps with the interval taint: a tainted
    value runs from the latest timestamp to the end of the gap after it.
    time(v) has v's ticks, gaps and progress, so the progress and gaps are
    last_abs's, and last_abs_gap is its gap half.
    """
    return last_abs(v, r, prev, _interval_taint)


def last_abs_bot(v: AbstractEventStream, r: AbstractEventStream,
                 prev: AbstractEventStream = _NOTHING, taint=None) -> AbstractEventStream:
    """Value half of the unrolled abstract last: gaps demoted to no-event.

    Resumes like last_abs, which reads only prev's events and progress.
    It keeps last_abs's checked stream and takes no gaps, so it is valid.
    """
    z = last_abs(v, r, prev, taint)
    return prev if z.stream is prev.stream else AbstractEventStream(z.stream, TimeSet.empty())


def last_time_abs_bot(v: AbstractEventStream, r: AbstractEventStream,
                      prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """Value half of the unrolled time-aware last, as last_abs_bot is of last_abs."""
    return last_abs_bot(v, r, prev, _interval_taint)


def last_abs_gap(v: AbstractEventStream, r: AbstractEventStream, d: AbstractEventStream,
                 prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """Gap half of the unrolled abstract last: d's events plus recomputed gaps."""
    prog, gaps, _ = _last_frame(v, r)
    return _gap_half(prog, gaps, d, prev)


def _gap_half(prog: Progress, gaps: TimeSet, d: AbstractEventStream,
              prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """d's events up to prog, with the gaps everywhere except at d's ticks.

    The gaps lie under prog, and are cut where d's progress is the lower.
    Up to the progress of prev, the output on prefixes of the arguments
    (empty by default), they are prev's, so only the gaps past it are
    searched for d's ticks, and with that progress the output is prev.
    The output is valid by construction: its events and ticks are a prefix
    of d's, and its gaps leave out every tick of d.
    """
    if d.progress < prog:
        prog = d.progress
        gaps = gaps.window(0, True, prog.time, prog.inclusive)
    done = prev.progress
    if prog == done:
        return prev
    ticks = d.stream.ticks()
    if gaps.spans and not gaps.spans[-1].hi < done.time:
        gaps = gaps.window(done.time, not done.inclusive, INF, False)
        inside = [t for sp in gaps.spans
                  for t in ticks[bisect_left(ticks, sp.lo):bisect_right(ticks, sp.hi)]
                  if sp.contains(t)]
        if inside:
            gaps = gaps.minus(_points(inside))
    else:
        gaps = TimeSet.empty()
    return AbstractEventStream(d.stream.truncated(prog), prev.gaps.union(gaps))


def _points(times) -> TimeSet:
    """The set holding exactly the given time points."""
    return TimeSet(Span(t, True, t, True) for t in times)


# -- signal lift -----------------------------------------------------------

def _synchronized_atoms(atoms, state, taint=None):
    """The atoms with the cells of the synchronized streams.

    Synchronized stream i is merge_abs(x_i, last_abs(x_i, trigger_i)), where
    trigger_i merges the other streams (encoded.synchronized).  The walk
    carries, per stream, its latest event value, whether a gap came after
    that event (or before any event), whether it has started (had an event
    or a gap), and where its last gap ended.  state holds the four lists it
    starts from and updates in place, as _carried gives them at the walk's
    first atom.  On a point where x_i has no event of its own, its cell is
      - where x_i is in a gap: tainted if another stream has an event and
        x_i an earlier one, else GAP;
      - where another stream has an event: x_i's latest value, tainted if a
        gap came after it; with no earlier value, GAP if a gap came before;
      - where another stream is in a gap: GAP if x_i has started;
    and BOTTOM otherwise.  A tainted value is TOP, or with a taint rule
    taint(latest, end), end the gap's end or the point, if the gap runs
    there.  On an open atom the cell is GAP where x_i is in a gap, or has
    started while another stream is.  A point inside a constant region,
    where a resumed walk may start, has no event, so it gets the region's
    cells and leaves the state as the region does.
    """
    latest, tainted, started, end = state
    n = len(latest)
    for lo, hi, cells in atoms:
        gapped = sum(c is GAP for c in cells)
        if hi is not None and not gapped:
            yield lo, hi, [BOTTOM] * n
            continue
        ticking = hi is None and gapped + sum(c is BOTTOM for c in cells) < n
        synced = []
        for i, c in enumerate(cells):
            if c is GAP:
                tainted[i] = started[i] = True
                end[i] = lo if hi is None else hi
            elif c is not BOTTOM:
                synced.append(c)
                latest[i], tainted[i], started[i] = c, False, True
                continue
            if not ticking:
                synced.append(GAP if gapped and started[i] else BOTTOM)
            elif latest[i] is BOTTOM:
                synced.append(GAP if tainted[i] else BOTTOM)
            else:
                synced.append(latest[i] if not tainted[i] else TOP if taint is None
                              else taint(latest[i], end[i]))
        yield lo, hi, synced


def slift_abs(f_abs: Callable, *streams: AbstractEventStream,
              prev: AbstractEventStream = _NOTHING, taint=None) -> AbstractEventStream:
    """Abstract signal lift: the strict f_abs over the synchronized streams.

    One walk over the arguments' atoms computes the cells of
    lift_abs(strict_cells(f_abs), *synchronized(streams, merge_abs,
    last_abs)), the paper's definition, without building those streams,
    with the taint rule taint (TOP if None).  The output progress is the
    least of the arguments' progress: last_abs cuts its progress at a
    trigger tick above x_i's own progress, so every synchronized stream's
    progress lies between the least and x_i's.  Like lift_abs, the walk
    starts at prev's progress time, with each argument's state there taken
    from _carried; if that progress is the output's, the output is prev.
    Where no argument has a gap from that time to the output's progress
    time, it walks only the ticks (_slift_ticks), unless one gives GAP or
    UNKNOWN.
    """
    if not streams:
        raise OperatorError("slift_abs needs at least one stream")
    prog = min(s.progress for s in streams)
    if prog == prev.progress:
        return prev
    since = prev.progress.time
    stamp = taint is not None
    carried = [(_carried if s.gaps.spans else _untainted)(s, since, stamp) for s in streams]
    if _gap_free_between(streams, since, prog.time):
        events = _slift_ticks(f_abs, [s.stream for s in streams], carried, prev.progress,
                              prog, taint)
        if events is not None:
            return _like(prev, prev.stream.extended(events, prog), prev.gaps)
    state = [list(column) for column in zip(*carried)]
    atoms = _synchronized_atoms(_walk(streams, prog, since, stamp), state, taint)
    return _lift_atoms(strict_cells(f_abs), atoms, prog, prev)


def _slift_ticks(f_abs: Callable, streams: Sequence[EventStream], carried: list,
                 done: Progress, prog: Progress, taint=None) -> Optional[list]:
    """slift_abs's events past done up to prog, where no argument has a gap from done's time to prog's.

    carried holds _carried's or _untainted's (latest, tainted, started,
    end) per stream at done's time; from there to prog's time no stream has
    a gap, so only the ticks change that state, as in _synchronized_atoms,
    and a taint only ends.  The walk starts at done's time, which done may
    decide, since a tick there still gives its stream a latest value.  Each
    tick applies f_abs strictly to the synchronized cells, which are the
    latest values themselves once nothing is tainted.  None if some tick
    gives GAP or UNKNOWN, which only the atom walk puts out or rejects.
    """
    latest, tainted, _, end = map(list, zip(*carried))
    clean = not any(tainted)
    stamp = taint is not None
    strict = strict_cells(f_abs)
    events = []
    for t, cells in _tick_cells(streams, Progress(done.time, False), prog):
        for i, c in enumerate(cells):
            if c is not BOTTOM:
                latest[i], tainted[i] = Interval.single(t) if stamp else c, False
        if done.covers(t):
            continue
        if not clean:
            clean = not any(tainted)
        synced = latest if clean else [
            v if not tnt else GAP if v is BOTTOM else TOP if taint is None else taint(v, e)
            for v, tnt, e in zip(latest, tainted, end)]
        out = strict(*synced)
        if out is GAP or out is UNKNOWN:
            return None
        if out is not BOTTOM:
            events.append((t, out))
    return events


def slift_time_abs(f_abs: Callable, x: AbstractEventStream, y: AbstractEventStream,
                   prev: AbstractEventStream = _NOTHING) -> AbstractEventStream:
    """Signal lift over event timestamps, kept precise across gaps.

    It is slift_abs of f over x's and y's timestamps with the interval
    taint, which reaches the tick's own time where the stream is in a gap
    there, so timestamp comparisons stay concrete where the ends decide.
    """
    return slift_abs(f_abs, x, y, prev=prev, taint=_interval_taint)


# -- delay -----------------------------------------------------------------

def _delay_amount(val, where):
    """The delay amount val: a positive canonical time, None for INF, or "any".

    "any" stands for an amount only known abstractly, TOP or an interval
    wider than a point; the concrete delay rejects it.
    """
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
    if not isinstance(val, (int, Fraction)) or val <= 0:
        raise OperatorError(f"delay amount at {where} must be positive, got {val!r}")
    return as_time(val)


class _ExactSource(NamedTuple):
    """A pending timeout; a flag change replaces it, so snapshots share it."""
    start: Time
    tau: Time
    definite_set: bool
    vulnerable: bool = False      # a reset gap appeared strictly inside (start, tau)
    undecidable: bool = False     # a reset may lie past r's progress before tau


class _DelaySweep:
    """Forward sweep deciding the abstract delay atom by atom.

    Keeps the set of pending potential timeouts: exact ones from concrete
    delay amounts and an "anything from here on" flag armed by top-valued
    or gapped delay amounts.  A definite reset event kills pending sources;
    reset gaps merely make them uncertain, and reset data past r's progress
    makes them undecidable.  fires and gap_spans hold what this sweep
    decided; fired counts the fires decided before it resumed.
    """

    def __init__(self):
        self.exact: List[_ExactSource] = []
        self.taus: List[Time] = []    # heap of the exact sources' timeouts
        self.any_alive = False
        self.fires: List[Time] = []
        self.gap_spans: List[Span] = []
        self.fired = 0

    def snapshot(self) -> tuple:
        """The state before the next atom, for resumed: the pending sources,
        the timeout heap, any_alive and how many fires came so far."""
        return tuple(self.exact), tuple(self.taus), self.any_alive, self.fired + len(self.fires)

    @staticmethod
    def resumed(snapshot: tuple) -> "_DelaySweep":
        """A new sweep in the snapshot state, with no fires or gap spans of its own yet."""
        sweep = _DelaySweep()
        exact, taus, sweep.any_alive, sweep.fired = snapshot
        sweep.exact, sweep.taus = list(exact), list(taus)
        return sweep

    def atom(self, lo, hi, d_cell, r_cell) -> Optional[Progress]:
        """Decide the atom at lo (a point if hi is None), or return the progress to stop at.

        No timeout or source start lies inside an open atom, so its cells and
        sources are those at any of its times; lo stands for them.  A proper
        delay event has its amount checked before anything else, so every
        event the sweep meets is checked once, in time order.
        """
        is_point = hi is None
        proper = d_cell is not BOTTOM and d_cell is not GAP and d_cell is not UNKNOWN
        amount = _delay_amount(d_cell, lo) if proper else None
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
                return Progress.inclusive_at(lo)

        # 1. decide z on this atom from sources created strictly earlier,
        #    plus region self-arming (a delay gap inside a reset gap)
        hit_exact = [s for s in self.exact if is_point and s.tau == lo]
        if any(s.undecidable for s in hit_exact):
            return Progress.exclusive(lo)
        forced = any(s.definite_set and not s.vulnerable for s in hit_exact)
        self_arming = (not is_point and d_cell is GAP and r_cell is GAP)
        possible = bool(hit_exact) or self.any_alive or self_arming
        if r_cell is UNKNOWN and self.any_alive:
            # gap-versus-bottom depends on unseen reset data
            return Progress.exclusive(lo) if is_point else Progress.inclusive_at(lo)

        cell = BOTTOM
        if forced:
            cell = UNIT
            self.fires.append(lo)
        elif possible:
            cell = GAP
            self.gap_spans.append(Span(lo, True, lo, True) if is_point
                                  else Span(lo, False, hi, False))

        # expired exact sources
        self.exact = [s for s in self.exact if lo < s.tau]

        # 2. apply reset effects of this atom to pre-existing sources (an
        # r event, so only on a point)
        reset = r_cell is not BOTTOM and r_cell is not GAP and r_cell is not UNKNOWN
        if reset:
            self.exact = [s for s in self.exact if not s.start < lo]
            self.any_alive = False
        elif r_cell is GAP:
            self.exact = [s._replace(vulnerable=True)
                          if not s.vulnerable and (s.start < lo or not is_point and s.start == lo)
                          else s for s in self.exact]
        elif r_cell is UNKNOWN:
            self.exact = [s if s.undecidable else s._replace(undecidable=True)
                          for s in self.exact]

        # 3. new sources from this atom's delay-stream features; where unknown
        #    data may arm one, the sweep stops right after this atom
        definite = reset or forced
        settable = definite or r_cell is GAP or cell is GAP
        unknown_source = False
        if d_cell is UNKNOWN:
            # while any_alive the gap persists whatever the delay data holds,
            # but a definite reset both ends it and might re-arm unknowably
            unknown_source = reset if self.any_alive else settable or r_cell is UNKNOWN
        elif d_cell is GAP:
            self.any_alive = self.any_alive or settable
            unknown_source = not settable and r_cell is UNKNOWN
        elif proper and (settable or r_cell is UNKNOWN):
            # a proper delay event; one that r's unknown cell may arm has its
            # timeout stop the sweep, where it fires only if armed
            if amount == "any":
                self.any_alive = True
                unknown_source = r_cell is UNKNOWN
            elif amount is not None:
                tau = as_time(lo + amount)
                self.exact.append(_ExactSource(lo, tau, definite,
                                               undecidable=r_cell is UNKNOWN))
                heappush(self.taus, tau)
        if unknown_source:
            return Progress.inclusive_at(lo) if is_point else Progress(hi, False)
        return None


def _next_mark(s: AbstractEventStream, t: ExtTime) -> ExtTime:
    """The least tick, gap bound or finite progress time of s above t; INF if none."""
    ticks = s.stream.ticks()
    i = bisect_right(ticks, t)
    nxt = ticks[i] if i < len(ticks) else INF
    spans = s.gaps.spans
    k = bisect_right(spans, t, key=_hi)
    if k < len(spans):
        nxt = min(nxt, spans[k].lo if t < spans[k].lo else spans[k].hi)
    return min(nxt, s.progress.time) if t < s.progress.time else nxt


def _unchanged_below(state: dict, d: AbstractEventStream, r: AbstractEventStream) -> bool:
    """True if d and r change nothing the kept sweep read up to the atom it stopped at.

    That holds when r is the kept one (its stream and gap set the same
    objects; a concrete r is its own stream, with the one empty gap set
    every EventStream shares), d grew from the kept d without covering any
    of the stop atom, and d has no tick and no gap span the kept d lacked
    (under the holder's contract, the same counts and the same last span).
    Then below the stop atom d's new cells are BOTTOM where the kept sweep
    read UNKNOWN, on atoms it did not stop at.  On such an atom an UNKNOWN
    d cell changes no state: the fire or gap decided there reads
    d only through self-arming, which needs a d gap; the reset effects read
    r alone; and an UNKNOWN d cell arms nothing where it does not stop the
    sweep, nor does a BOTTOM one.  A BOTTOM d cell stops the sweep nowhere
    that an UNKNOWN one does not.  d's progress no longer splits the atoms
    at its old time, which changes nothing either: the sweep treats an open
    atom split at a point with the same cells as the unsplit atom, as it
    does at a timeout.  So the sweep reaches the stop atom in the same state
    and stops there as before, and the kept result is the new one.
    """
    kept_r = state.get("r")
    if state.get("stop") is None or kept_r.stream is not r.stream or kept_r.gaps is not r.gaps:
        return False
    kept = state["d"]
    lo, hi = state["stop"]
    limit = Progress.exclusive(lo) if hi is None else Progress.inclusive_at(lo)
    if not kept.progress <= d.progress <= limit:
        return False
    spans, kept_spans = d.gaps.spans, kept.gaps.spans
    return (len(d.stream.events) == len(kept.stream.events)
            and len(spans) == len(kept_spans)
            and (not spans or spans[-1] == kept_spans[-1]))


def delay_abs(d: AbstractEventStream, r: AbstractEventStream,
              prev: AbstractEventStream = _NOTHING,
              state: Optional[dict] = None) -> AbstractEventStream:
    """Abstract delay: gaps where an output event is possible but not certain.

    One forward pass of _DelaySweep over the atoms of d and r, split at the
    pending timeouts.  The output at t reads only the inputs strictly below
    t, so the walk runs past both inputs' progress, where their cells are
    UNKNOWN, and the sweep stops at the first atom that unknown data leaves
    undecided.  Past the lesser input progress that atom mostly lies at or
    just after the other input's next mark (tick, gap bound or progress),
    and at a later one while an unbounded source is armed or a timeout is
    pending.  So the walk goes from one of the other input's marks to the
    next, only while the sweep has not stopped, and reads neither input
    far past where the sweep stops.  The sweep checks the delay amounts it meets; those
    past the atom it stops at are checked after it, each once per holder.

    state, a holder the caller passes only with growing prefixes of the same
    two streams, keeps the last call: its arguments d and r, its result z,
    the atom its sweep stopped at (stop, None if it never stopped), its
    checkpoint (at, snapshot), the sweep's state before the point atom at
    time at, and how many of d's amounts are checked (checked, which
    ops.delay keeps too).  A call then does one of three things:
      - skip: the same argument objects, or the kept r and a d that has
        changed nothing the sweep reads up to its stop atom
        (_unchanged_below), get z back, so the two halves of an unrolled
        delay share one sweep, and a d whose progress moved up to that atom
        costs no sweep;
      - resume: arguments whose progress both cover at from below have the
        kept history below it, so the sweep resumes there in the snapshot
        state, and the output is z's fires below at, the first of z's
        events by the snapshot's count, and z's gaps below at, with only
        what the sweep decides from at on appended;
      - restart: others, and a call without a holder, sweep from 0.
    A call that sweeps takes its own checkpoint at the least of the
    arguments' progress times, where the walk always has a point atom.
    prev is ignored: the holder keeps more than prev gives, the timeouts.
    """
    if state is None:
        state = {}
    if state.get("d") is d and state.get("r") is r:
        return state["z"]
    if _unchanged_below(state, d, r):
        state["d"] = d
        return state["z"]
    at, snapshot = state.get("checkpoint", (None, None))
    if at is not None and d.progress.covers_below(at) and r.progress.covers_below(at):
        start, sweep, kept = at, _DelaySweep.resumed(snapshot), state["z"]
        # the kept fires below at, the snapshot's count, and its gaps there
        base = kept.stream.truncated(Progress.exclusive(at))
        below = kept.gaps.window(0, True, at, False)
    else:
        start, at, snapshot, sweep = 0, None, None, _DelaySweep()
        base, below = EventStream.empty(), TimeSet.empty()
    mark = min(d.progress.time, r.progress.time)
    other = r if d.progress <= r.progress else d
    prog = stop = None
    pos, bound = start, _next_mark(other, mark)
    while prog is None:
        horizon = Progress.infinite() if bound is INF else Progress.exclusive(bound)
        for lo, hi, cells in _split(_walk((d, r), horizon, pos), sweep.taus):
            if hi is None and lo == mark:
                at, snapshot = lo, sweep.snapshot()
            prog = sweep.atom(lo, hi, *cells)
            if prog is not None:
                stop = lo, hi
                break
        else:
            if bound is INF:
                prog = Progress.infinite()
            else:
                pos, bound = bound, _next_mark(other, bound)
    # the amounts the sweep did not meet, past its stop atom; the holder's
    # earlier calls checked the first ones, and this call's sweep the others
    # up to that atom
    for t, val in d.stream.events[state.get("checked", 0):]:
        _delay_amount(val, t)
    # each atom holds a fire, a gap or neither, so no fire lies in a gap; the
    # fires ascend with the atoms from at on, above z's fires below it, and
    # the sweep stops before an atom or right after it, so prog covers every
    # fire and gap, and the gaps need no cut; only the spans this call added
    # are swept into the gap set
    z = AbstractEventStream(base.extended([(t, UNIT) for t in sweep.fires], prog),
                            below.union(TimeSet(sweep.gap_spans)) if sweep.gap_spans else below)
    state.update(d=d, r=r, z=z, stop=stop, checkpoint=(at, snapshot),
                 checked=len(d.stream.events))
    return z


def delay_abs_bot(d: AbstractEventStream, r: AbstractEventStream,
                  prev: AbstractEventStream = _NOTHING,
                  state: Optional[dict] = None) -> AbstractEventStream:
    """Value half of the unrolled abstract delay: gaps demoted to no-event.

    It keeps delay_abs's stream and takes no gaps, so it is valid, and
    resumes as last_abs_bot does: prev if it has that stream.
    """
    z = delay_abs(d, r, state=state)
    return prev if z.stream is prev.stream else AbstractEventStream(z.stream, TimeSet.empty())


def delay_abs_gap(d: AbstractEventStream, r: AbstractEventStream, p: AbstractEventStream,
                  prev: AbstractEventStream = _NOTHING,
                  state: Optional[dict] = None) -> AbstractEventStream:
    """Gap half of the unrolled abstract delay: p's events plus recomputed
    gaps, resumed from prev through _gap_half as last_abs_gap is."""
    z = delay_abs(d, r, state=state)
    return _gap_half(z.progress, z.gaps, p, prev)


def delay_abs_fin(d: AbstractEventStream, r: AbstractEventStream,
                  prev: AbstractEventStream = _NOTHING,
                  state: Optional[dict] = None) -> AbstractEventStream:
    """Finite-memory abstract delay: runs of uncertain timeouts merge into one gap.

    Sound but coarser than delay_abs: where several pending delays armed
    during a reset gap would each contribute a point gap, the bottoms in
    between are promoted to gap as well, so only the earliest and latest
    pending timeout need to be remembered.

    A source is a delay event with a finite amount at a reset gap.  Where
    r is not yet known at such an event, it may still become one and
    promote the region after it, so the output is decided only up to it.
    prev is ignored, as delay_abs ignores it.
    """
    z = delay_abs(d, r, state=state)
    sources = []
    for t, val in d.stream.events:
        amount = _delay_amount(val, t)
        if amount in (None, "any"):
            continue
        cell = r.at(t)
        if cell is UNKNOWN:
            cap = Progress.inclusive_at(t)
            if cap < z.progress:
                # z cut to cap: no tick of z lies in its gaps
                z = _gap_half(cap, z.gaps.intersect(covered_span(cap)), z)
            break
        if cell is GAP:
            sources.append((t, as_time(t + amount)))
    if not sources:
        return z
    # a source promotes from its timeout on while z stays in a gap and no
    # reset event follows its start; (x, False) < atom: x lies before the atom
    live = [True] * len(sources)
    extra = []
    times = sorted({t for source in sources for t in source})
    for lo, hi, (z_cell, r_cell) in _split(_walk((z, r), z.progress), times):
        atom = (lo, hi is not None)
        timed_out = [(tau, False) <= atom for _, tau in sources]
        if (z_cell is BOTTOM and any(ok and out for ok, out in zip(live, timed_out))
                and any((t, False) < atom <= (tau, False) for t, tau in sources)):
            extra.append(Span(lo, True, lo, True) if hi is None
                         else Span(lo, False, hi, False))
        elif z_cell is not GAP:
            # the gap chain breaks: sources whose timeout passed die
            live = [ok and not out for ok, out in zip(live, timed_out)]
        if (hi is None and r_cell is not BOTTOM and r_cell is not GAP
                and r_cell is not UNKNOWN):
            live = [ok and not t < lo for ok, (t, _) in zip(live, sources)]
    if not extra:
        return z
    # the extra gaps lie on atoms where z has no event, under its progress
    return AbstractEventStream(z.stream, z.gaps.union(TimeSet(extra)))
