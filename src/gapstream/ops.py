"""Core operators on concrete event streams.

The six primitives are nil, unit, time, lift, last and delay; const and
merge are derived from them.  The signal lift slift is one time-ordered walk
over its arguments' ticks, as is its abstract counterpart absops.slift_abs
over their atoms.  The paper's composition, lift over
encoded.synchronized(streams, merge, last), is the specification and test
oracle of both walks; only the encoded signal lift builds it.  Every
operator returns the longest prefix of its semantic result that is decided
by the inputs' progress, so outputs grow monotonically as inputs grow,
which is what fixed-point evaluation needs.  delay is absops.delay_abs on
the gap-free streams that stand for its arguments: a gap-free abstract
stream stands for exactly one concrete stream, and there the abstract sweep
decides exactly what the concrete semantics does.

As in absops, no operator checks its whole output with EventStream.of,
which is left to the public boundary.  time keeps its input's ticks and
progress, so its output is valid as the input is; lift, slift and last
build theirs through absops._appended, which checks only the order and
progress of the events they produce.  Each output carries its tick tuple.

Progress propagation follows the per-operator case analysis exactly: an
output timestamp is covered when every case condition at and below it is
decided by the available input prefixes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional

from . import absops
from .absops import _appended, _delay_amount, _vbot_extent
from .abstract import AbstractEventStream
from .errors import OperatorError
from .streams import EventStream, Progress
from .timeline import TimeSet
from .values import BOTTOM, GAP, UNIT, UNKNOWN


def nil() -> EventStream:
    return EventStream.of((), Progress.infinite())


def unit() -> EventStream:
    return EventStream.of(((0, UNIT),), Progress.infinite())


_NOTHING = EventStream.empty()


def time(s: EventStream) -> EventStream:
    """Each event's timestamp as its payload, a Fraction like every parsed number.

    s's ticks and progress stay, so the output is valid as s is.
    """
    ticks = s.ticks()
    return EventStream._with_ticks(tuple((t, Fraction(t)) for t in ticks), s.progress, ticks)


def _covered_count(s: EventStream, prog: Progress) -> int:
    """How many of s's events prog covers."""
    cut = bisect_right if prog.inclusive else bisect_left
    return cut(s.ticks(), prog.time)


def lift(f: Callable, *streams: EventStream) -> EventStream:
    if not streams:
        raise OperatorError("lift needs at least one stream")
    prog = min(s.progress for s in streams)
    if len(streams) == 1:
        times = streams[0].ticks()     # a stream's progress covers its events
    else:
        times = sorted({t for s in streams for t in s.ticks()[:_covered_count(s, prog)]})
    events = []
    for t in times:
        out = f(*(s.at(t) for s in streams))
        if out is BOTTOM:
            continue
        if out is UNKNOWN or out is GAP:
            raise OperatorError(f"lifted function produced {out!r} on concrete streams")
        events.append((t, out))
    return _appended(_NOTHING, events, prog)


def const(c) -> Callable[[EventStream], EventStream]:
    def apply(a: EventStream) -> EventStream:
        return lift(lambda v: BOTTOM if v is BOTTOM else c, a)

    return apply


def _merge_values(*vals):
    for v in vals:
        if v is not BOTTOM:
            return v
    return BOTTOM


def merge(*streams: EventStream) -> EventStream:
    """Combine events, earlier arguments taking precedence at shared timestamps."""
    return lift(_merge_values, *streams)


def last(v: EventStream, r: EventStream) -> EventStream:
    """At each trigger event on r, the most recent prior value on v.

    The trigger ticks ascend, so one pointer into v's events follows them:
    the first tick is looked up with one bisect, and each later one moves
    the pointer forward past v's events below it.
    """
    main = r.progress
    events = []
    v_ticks = v.ticks()
    k = None        # how many of v's events lie strictly before t
    for t in r.ticks():
        if not v.progress.covers_below(t):
            main = min(main, Progress.exclusive(t))
            break
        if k is None:
            prev = v.last_event_before(t)
            k = 0 if prev is None else bisect_right(v_ticks, prev[0])
        else:
            while k < len(v_ticks) and v_ticks[k] < t:
                k += 1
            prev = v.events[k - 1] if k else None
        if prev is not None:
            events.append((t, prev[1]))
    return _appended(_NOTHING, events, max(main, _vbot_extent(v)))


def delay(d: EventStream, r: EventStream, state: Optional[dict] = None) -> EventStream:
    """Emit a unit event when a requested delay elapses without a reset.

    A delay amount on d arms only if its timestamp carries a reset event or
    an emitted output event; any reset event cancels a pending delay.

    This is absops.delay_abs on the gap-free streams that stand for d and
    r, which decides exactly as far as the concrete semantics, and state is
    its holder, so a caller that passes one resumes the sweep.  Amounts
    known only abstractly are rejected first.  The holder sees only growing
    prefixes of d, so it also counts the amounts already checked.
    """
    holder = {} if state is None else state
    for t, val in d.events[holder.get("checked", 0):]:
        if _delay_amount(val, t) == "any":
            raise OperatorError(f"concrete delay amount at {t} must be known, got {val!r}")
    holder["checked"] = len(d.events)
    gap_free = TimeSet.empty()
    return absops.delay_abs(AbstractEventStream(d, gap_free), AbstractEventStream(r, gap_free),
                            state=holder).stream


def slift(f: Callable, *streams: EventStream) -> EventStream:
    """Signal lift: apply f to every argument's latest value at each tick.

    One walk, in time order, over the arguments' ticks that the output
    progress covers carries each argument's latest value.  Once every
    argument has one, each tick yields f of them, and no event where f gives
    BOTTOM.  This equals lift of the strict f over
    encoded.synchronized(streams, merge, last), the paper's definition,
    without building those streams.

    That composition's progress is the least of the arguments' progress p_i.
    Synchronized stream i is decided up to min(p_i, max(m_i, v)), where v is
    x_i's _vbot_extent and m_i, the progress of last(x_i, trigger_i), is the
    other arguments' least progress, cut exclusive at the first trigger tick
    above p_i.  That cut lies above p_i, so each synchronized stream's
    progress lies between the least p_j and p_i.
    """
    if not streams:
        raise OperatorError("slift needs at least one stream")
    prog = min(s.progress for s in streams)
    ticks = sorted([(t, i, v) for i, s in enumerate(streams)
                    for t, v in s.events[:_covered_count(s, prog)]],
                   key=itemgetter(0))
    latest = [BOTTOM] * len(streams)
    missing = len(streams)
    events = []
    for t, group in groupby(ticks, itemgetter(0)):
        for _, i, v in group:
            if latest[i] is BOTTOM:
                missing -= 1
            latest[i] = v
        if missing:
            continue
        out = f(*latest)
        if out is BOTTOM:
            continue
        if out is UNKNOWN or out is GAP:
            raise OperatorError(f"lifted function produced {out!r} on concrete streams")
        events.append((t, out))
    return _appended(_NOTHING, events, prog)
