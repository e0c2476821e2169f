"""Core operators on concrete event streams.

The six primitives are nil, unit, time, lift, last and delay; const and
merge are derived from them, and slift is the signal lift.  Every operator
returns the longest prefix of its semantic result that is decided by the
inputs' progress, so outputs grow monotonically as inputs grow, which is
what fixed-point evaluation needs.

A concrete stream is its own gap-free abstract stream (streams.EventStream
has the empty gaps and is its own stream), and there the abstract
operators decide exactly what the concrete semantics does.  So time,
slift, last and delay are absops.time_abs, absops.slift_abs,
absops.last_abs and absops.delay_abs on their arguments and prev as they
are, and resume as those do; what this module adds is only what is
concrete: slift rejects a gap its function gives, and delay rejects
amounts known only abstractly.  merge is absops.merge_abs too, a k-way
pass over the arguments' new events.  It only forwards argument values,
and no concrete value is GAP or UNKNOWN: the trace reader has no word for
them, lift and slift reject them, and const and time give a literal or a
timestamp; so merge needs no check of its results, as lift has.
lift (and so const) is absops's tick walk, absops._lift_ticks, which calls
f only at ticks, as the encoded path relies on, and rejects GAP and
UNKNOWN.  lift resumes from prev, its output on prefixes of the
arguments, and walks only the ticks past prev's progress, as time maps
only the ticks past prev's events.  So every concrete row that walks its
history resumes (speclang.Operator.resumes and stateful).  The paper's
signal lift, lift over encoded.synchronized(streams, merge, last), is the
specification and test oracle of slift.

As in absops, no operator checks its whole output with EventStream.of,
which is left to the public boundary.  time keeps its input's ticks and
progress (EventStream.with_payloads), so its output is valid as the input
is; lift and merge extend prev (EventStream.extended), which checks only
the order and progress of the events they append.  Each output carries
its tick tuple.

Progress propagation follows the per-operator case analysis exactly: an
output timestamp is covered when every case condition at and below it is
decided by the available input prefixes.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import absops
from .absops import _delay_amount
from .errors import OperatorError
from .streams import EventStream, Progress
from .values import BOTTOM, GAP, UNIT


def nil() -> EventStream:
    return EventStream.of((), Progress.infinite())


def unit() -> EventStream:
    return EventStream.of(((0, UNIT),), Progress.infinite())


_NOTHING = EventStream.empty()


def time(s: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Each event's timestamp as its payload: absops.time_abs, which keeps
    s's ticks and progress and maps only the ticks past prev's events."""
    return absops.time_abs(s, prev).stream


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
    return prev.extended(events, prog)


def const(c) -> Callable[[EventStream], EventStream]:
    def apply(a: EventStream, prev: EventStream = _NOTHING) -> EventStream:
        return lift(lambda v: BOTTOM if v is BOTTOM else c, a, prev=prev)

    return apply


def merge(*streams: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Combine events, earlier arguments taking precedence at shared timestamps.

    This is absops.merge_abs, which resumes from prev; on concrete streams
    it always takes its k-way pass over the new events.
    """
    return absops.merge_abs(*streams, prev=prev).stream


def last(v: EventStream, r: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """At each trigger event on r, the most recent prior value on v.

    This is absops.last_abs, which resumes from prev.
    """
    return absops.last_abs(v, r, prev=prev).stream


def delay(d: EventStream, r: EventStream, state: Optional[dict] = None) -> EventStream:
    """Emit a unit event when a requested delay elapses without a reset.

    A delay amount on d arms only if its timestamp carries a reset event or
    an emitted output event; any reset event cancels a pending delay.

    This is absops.delay_abs, which decides exactly as far as the concrete
    semantics, and state is its holder, so a caller that passes one resumes
    the sweep.  Amounts known only abstractly are rejected first.  The
    holder sees only growing prefixes of d, so it also counts the amounts
    already checked.
    """
    holder = {} if state is None else state
    for t, val in d.events[holder.get("checked", 0):]:
        if _delay_amount(val, t) == "any":
            raise OperatorError(f"concrete delay amount at {t} must be known, got {val!r}")
    holder["checked"] = len(d.events)
    return absops.delay_abs(d, r, state=holder).stream


def slift(f: Callable, *streams: EventStream, prev: EventStream = _NOTHING) -> EventStream:
    """Signal lift: apply f to every argument's latest value at each tick.

    Once every argument has a value, each tick any of them has yields f of
    their latest values, and no event where f gives BOTTOM.  This is
    absops.slift_abs, which resumes from prev; on concrete streams f meets
    no GAP or TOP, so a gap is one f gave itself, and is rejected, as
    slift_abs rejects UNKNOWN.
    """
    if not streams:
        raise OperatorError("slift needs at least one stream")
    out = absops.slift_abs(f, *streams, prev=prev)
    if out.gaps.spans:
        raise OperatorError(f"lifted function produced {GAP!r} on concrete streams")
    return out.stream
