"""Core operators on concrete event streams.

The six primitives are nil, unit, time, lift, last and delay; const and
merge are derived from them, and slift is the signal lift.  Every operator
returns the longest prefix of its semantic result that is decided by the
inputs' progress, so outputs grow monotonically as inputs grow, which is
what fixed-point evaluation needs.

A gap-free abstract stream stands for exactly one concrete stream, and there
the abstract operators decide exactly what the concrete semantics does.  So
slift, last and delay are absops.slift_abs, absops.last_abs and
absops.delay_abs on the gap-free streams that stand for their arguments,
and resume as those do.  lift (and so merge and const) is absops's tick
walk, absops._lift_ticks, which calls f only at ticks, as the encoded path
relies on.  The resumed abstract lifts walk the ticks too where no
argument has a gap past their resume point, as on the gap-free streams
slift passes to slift_abs.  lift resumes from prev, its output on
prefixes of the arguments, and walks only the ticks past prev's progress,
as time maps only the ticks past prev's events.  So every concrete row
that walks its history resumes (speclang.Operator.resumes and stateful).
The paper's signal lift, lift over encoded.synchronized(streams, merge, last),
is the specification and test oracle of slift.

As in absops, no operator checks its whole output with EventStream.of,
which is left to the public boundary.  time keeps its input's ticks and
progress, so its output is valid as the input is; lift builds its output
through absops._appended, which checks only the order and progress of the
events it appends.  Each output carries its tick tuple.

Progress propagation follows the per-operator case analysis exactly: an
output timestamp is covered when every case condition at and below it is
decided by the available input prefixes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from . import absops
from .absops import _appended, _delay_amount
from .abstract import AbstractEventStream
from .errors import OperatorError
from .streams import EventStream, Progress
from .timeline import TimeSet
from .values import BOTTOM, GAP, UNIT


def nil() -> EventStream:
    return EventStream.of((), Progress.infinite())


def unit() -> EventStream:
    return EventStream.of(((0, UNIT),), Progress.infinite())


_NOTHING = EventStream.empty()


def _gap_free(s: EventStream) -> AbstractEventStream:
    """The abstract stream with no gaps that stands for s alone."""
    return AbstractEventStream(s, TimeSet.empty())


def time(s: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Each event's timestamp as its payload, a Fraction like every parsed number.

    s's ticks and progress stay, so the output is valid as s is.  prev,
    time's output on a prefix of s (empty by default), holds the first of
    those events, so only the later ticks are mapped.
    """
    ticks = s.ticks()
    events = prev.events + tuple((t, Fraction(t)) for t in ticks[len(prev.events):])
    return EventStream._with_ticks(events, s.progress, ticks)


def lift(f: Callable, *streams: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """f of the arguments' values at each tick any of them has, no event where f gives BOTTOM.

    prev, lift's output on prefixes of the streams (empty by default),
    gives the events at the ticks its progress covers, so only the later
    ticks are walked: absops._lift_ticks, which calls f only at ticks.
    """
    if not streams:
        raise OperatorError("lift needs at least one stream")
    prog = min(s.progress for s in streams)
    events, odd = absops._lift_ticks(f, streams, prev.progress, prog)
    if odd is not None:
        raise OperatorError(f"lifted function produced {odd!r} on concrete streams")
    return _appended(prev, events, prog)


def const(c) -> Callable[[EventStream], EventStream]:
    def apply(a: EventStream, prev: EventStream = _NOTHING) -> EventStream:
        return lift(lambda v: BOTTOM if v is BOTTOM else c, a, prev=prev)

    return apply


def _merge_values(*vals):
    for v in vals:
        if v is not BOTTOM:
            return v
    return BOTTOM


def merge(*streams: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Combine events, earlier arguments taking precedence at shared timestamps."""
    return lift(_merge_values, *streams, prev=prev)


def last(v: EventStream, r: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """At each trigger event on r, the most recent prior value on v.

    This is absops.last_abs on the gap-free streams that stand for v, r
    and prev, which resumes from prev as it does.
    """
    return absops.last_abs(_gap_free(v), _gap_free(r), prev=_gap_free(prev)).stream


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
    return absops.delay_abs(_gap_free(d), _gap_free(r), state=holder).stream


def slift(f: Callable, *streams: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Signal lift: apply f to every argument's latest value at each tick.

    Once every argument has a value, each tick any of them has yields f of
    their latest values, and no event where f gives BOTTOM.  This is
    absops.slift_abs on the gap-free streams that stand for the arguments
    and prev, which resumes from prev as it does; there f meets no GAP or
    TOP, so a gap is one f gave itself, and is rejected, as slift_abs
    rejects UNKNOWN.
    """
    if not streams:
        raise OperatorError("slift needs at least one stream")
    out = absops.slift_abs(f, *map(_gap_free, streams), prev=_gap_free(prev))
    if out.gaps.spans:
        raise OperatorError(f"lifted function produced {GAP!r} on concrete streams")
    return out.stream
