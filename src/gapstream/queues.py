"""Timed queues for sliding-window aggregation, concrete and abstract.

A timed queue is a strictly time-ascending sequence of (timestamp, value)
entries; it represents a piece-wise constant signal segment.  The abstract
variant adds an "unknown before u" boundary: entries older than u are
arbitrary, entries from u on are as stored (with interval values).  Queue
values travel through streams like any other payload, so the registry
entries below make them usable under lift and slift.

The abstract `window_integral` folds a queue stripped to its window.  It
keeps an exact accumulator as a plain Fraction, through the exact fast paths
of the functions module, and never clamps it, so it equals the concrete
integral on exact loads.  An unknown start (TOP) or an inexact load makes
the accumulator an interval, which is clamped to [0, covered time / k] only
while every load folded so far lies in [0, 1]: the clamp assumes that hidden
and TOP loads lie in [0, 1] too.  It also presumes that the whole queue,
hidden entries included, lies in the window [until - k, until].  So the
abstract queue carries the least time a hidden entry can have, hidden_from:
the cutoff t - k of its last window_strip, None if it was never stripped.
The clamp is made only where nothing is hidden or hidden_from is at or
after until - k, and the first stored entry is at or after until - k too.
A spec that strips to a wider window than it integrates, or at another
tick, keeps entries from before until - k, hidden ones too, and gets no
clamp there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import OperatorError
from .functions import (LiftedFunction, _from_interval, abs_add, abs_mul,
                        register, register_parametric, strict, strict_cells)
from .timeline import INF, ExtTime
from .values import TOP, Interval, _to_interval


@dataclass(frozen=True)
class TimedQueue:
    entries: Tuple[Tuple[Fraction, object], ...] = ()

    def __post_init__(self):
        for (a, _), (b, _) in zip(self.entries, self.entries[1:]):
            if not a < b:
                raise OperatorError("queue timestamps must strictly increase")

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{t}:{v}" for t, v in self.entries)
        return f"Q[{inner}]"


EMPTY_QUEUE = TimedQueue()


def _ordered(entries: tuple) -> TimedQueue:
    """The TimedQueue of entries known to ascend, built without the check.

    The operations below build their results here: they take a queue
    already checked, or an AbstractTimedQueue's entries, which ascend as
    well, and keep the order.
    """
    q = object.__new__(TimedQueue)
    object.__setattr__(q, "entries", entries)
    return q


@dataclass(frozen=True)
class AbstractTimedQueue:
    """Queue with contents unknown before `unknown_before`; interval values.

    Its entries ascend, as a TimedQueue's do; the operations below keep
    that order and do not check it again.  A hidden entry, one before
    unknown_before, lies at or after hidden_from, the cutoff of the last
    strip; None bounds nothing.
    """

    unknown_before: ExtTime
    entries: Tuple[Tuple[Fraction, object], ...] = ()
    hidden_from: Optional[Fraction] = None

    @staticmethod
    def top() -> "AbstractTimedQueue":
        return AbstractTimedQueue(INF, ())

    def __repr__(self):
        inner = ", ".join(f"{t}:{v}" for t, v in self.entries)
        return f"Q#[<{self.unknown_before}| {inner}]"


def enq(t: Fraction, d, q: TimedQueue) -> TimedQueue:
    if q.entries and not q.entries[-1][0] < t:
        raise OperatorError(f"enqueue at {t} not after queue end")
    return _ordered(q.entries + ((t, d),))


def rem_older(k: Fraction, t: Fraction, q: TimedQueue) -> TimedQueue:
    """Drop entries whose segment ended at or before t - k; clamp the first."""
    entries = list(q.entries)
    cutoff = t - k
    while len(entries) >= 2 and entries[1][0] <= cutoff:
        entries.pop(0)
    if entries:
        t0, d0 = entries[0]
        entries[0] = (max(cutoff, t0), d0)     # still below the next entry
    return _ordered(tuple(entries))


def rem_newer(t: Fraction, q: TimedQueue) -> TimedQueue:
    entries = list(q.entries)
    while entries and entries[-1][0] > t:
        entries.pop()
    return _ordered(tuple(entries))


def fold(f, q: TimedQueue, acc, until: Fraction):
    entries = q.entries
    for i, (t1, d) in enumerate(entries):
        t2 = entries[i + 1][0] if i + 1 < len(entries) else until
        acc = f(t1, t2, d, acc)
    return acc


def data_timeout(q: TimedQueue) -> ExtTime:
    if len(q.entries) >= 2:
        return q.entries[1][0]
    return INF


def limit(a, b, d):
    """Clamp d into [a, b]; d may be infinite."""
    if d < a:
        return a
    if d > b:
        return b
    return d


def limit_interval(a: Fraction, b: Fraction, d: Interval) -> Interval:
    return Interval(limit(a, b, d.lo), limit(a, b, d.hi))


# -- abstract queue operations ---------------------------------------------

def as_abstract_queue(cell) -> AbstractTimedQueue:
    if cell is TOP:
        return AbstractTimedQueue.top()
    if isinstance(cell, AbstractTimedQueue):
        return cell
    if isinstance(cell, TimedQueue):
        entries = tuple((t, _to_interval(v) or v) for t, v in cell.entries)
        return AbstractTimedQueue(Fraction(0), entries)
    raise OperatorError(f"expected a queue value, got {cell!r}")


def enq_abs(t: Fraction, d, q: AbstractTimedQueue) -> AbstractTimedQueue:
    iv = Interval.top() if d is TOP else (_to_interval(d) or d)
    return AbstractTimedQueue(q.unknown_before, enq(t, iv, _ordered(q.entries)).entries,
                              q.hidden_from)


def rem_older_abs(k: Fraction, t: Fraction, q: AbstractTimedQueue) -> AbstractTimedQueue:
    """The queue stripped as rem_older strips it: a hidden entry is kept
    only from the cutoff t - k on, which becomes hidden_from."""
    stripped = rem_older(k, t, _ordered(q.entries)).entries
    cutoff = t - k
    unknown = q.unknown_before if cutoff < q.unknown_before else Fraction(0)
    return AbstractTimedQueue(unknown, stripped, cutoff)


def rem_newer_abs(t: Fraction, q: AbstractTimedQueue) -> AbstractTimedQueue:
    return AbstractTimedQueue(
        min(q.unknown_before, t), rem_newer(t, _ordered(q.entries)).entries, q.hidden_from
    )


def fold_abs(f, q: AbstractTimedQueue, acc, until: Fraction):
    start = acc if q.unknown_before == 0 else TOP
    return fold(f, _ordered(q.entries), start, until)


def data_timeout_abs(q: AbstractTimedQueue) -> ExtTime:
    if q.unknown_before == 0:
        return data_timeout(_ordered(q.entries))
    return TOP


def enq_bounded(t: Fraction, d, q: AbstractTimedQueue, n: int) -> AbstractTimedQueue:
    if len(q.entries) < n:
        return enq_abs(t, d, q)
    t2 = q.entries[1][0]
    shrunk = AbstractTimedQueue(t2, q.entries[1:], q.hidden_from)
    return enq_bounded(t, d, shrunk, n)


# -- registry entries --------------------------------------------------------

def _strip_concrete(k):
    def f(t, q):
        return rem_older(k, t, q)

    return f


def _strip_abstract(k):
    def f(t, q):
        return rem_older_abs(k, t, rem_newer_abs(t, as_abstract_queue(q)))

    return f


def _integral_concrete(k):
    def f(q, until):
        def step(a, b, v, acc):
            return acc + v * (b - a) / k

        return fold(step, q, Fraction(0), until)

    return f


def _unit_load(v) -> bool:
    """Is the queue value v a load in [0, 1], or TOP (assumed to be one)?"""
    return isinstance(v, Interval) and (v.is_top() or (0 <= v.lo and v.hi <= 1))


def _integral_abstract(k):
    def f(q, until):
        qa = as_abstract_queue(q)
        folded = 0      # entries folded so far
        unit = 0        # leading entries whose loads lie in [0, 1]
        # the clamp presumes a queue inside the window [until - k, until],
        # its hidden entries too, of which there are none before 0
        start = until - k
        hidden = qa.unknown_before != 0
        windowed = ((not qa.entries or qa.entries[0][0] >= start)
                    and (not hidden or qa.hidden_from is not None and qa.hidden_from >= start))

        def step(a, b, v, acc):
            nonlocal folded, unit
            if windowed and (acc is TOP or isinstance(acc, Interval)):
                while unit < folded and _unit_load(qa.entries[unit][1]):
                    unit += 1
                if unit == folded:
                    # acc integrates a - (until - k) time units of loads in
                    # [0, 1], hidden and TOP ones assumed so
                    bound = (a - until + k) / k
                    acc = _from_interval(limit_interval(Fraction(0), bound, _to_interval(acc)))
            folded += 1
            return abs_add(acc, abs_mul(v, (b - a) / k))

        return fold_abs(step, qa, Fraction(0), until)

    return f


def _timeout_concrete(k):
    def f(t, q):
        dt = data_timeout(q)
        if dt is INF:
            return INF
        return dt - t + k

    return f


def _timeout_abstract(k):
    def f(t, q):
        dt = data_timeout_abs(as_abstract_queue(q))
        if dt is TOP:
            return TOP
        if dt is INF:
            return INF
        return dt - t + k

    return f


def _enq_concrete(t, d, q):
    return enq(t, d, q)


def _enq_abstract(t, d, q):
    if t is TOP:
        raise OperatorError("enqueue timestamp cannot be unknown")
    return enq_abs(t, d, as_abstract_queue(q))


def _enq_bounded_abstract(n):
    # the shrink step of enq_bounded keeps the entries from the second on
    if not isinstance(n, (int, Fraction)) or n % 1 or n < 2:
        raise ValueError(f"the bound must be a whole number of at least 2, got {n}")
    bound = int(n)

    def f(t, d, q):
        return enq_bounded(t, d, as_abstract_queue(q), bound)

    return f


register(LiftedFunction("enq", 3, strict(_enq_concrete), strict_cells(_enq_abstract)))


def _positive_length(k, what: str) -> Fraction:
    """The parameter k as a Fraction; it must be positive, and what names it in the error."""
    length = Fraction(k)
    if length <= 0:
        raise ValueError(f"the {what} must be positive, got {k}")
    return length


def _window_strip(k) -> LiftedFunction:
    length = _positive_length(k, "window length")
    return LiftedFunction(f"window_strip({k})", 2, strict(_strip_concrete(length)),
                          strict_cells(_strip_abstract(length)))


def _window_integral(k) -> LiftedFunction:
    length = _positive_length(k, "window length")
    return LiftedFunction(f"window_integral({k})", 2, strict(_integral_concrete(length)),
                          strict_cells(_integral_abstract(length)))


def _timeout_after(k) -> LiftedFunction:
    # an offset of 0 or less can give delay amounts the delay rejects only
    # at evaluation
    offset = _positive_length(k, "timeout offset")
    return LiftedFunction(f"timeout_after({k})", 2, strict(_timeout_concrete(offset)),
                          strict_cells(_timeout_abstract(offset)))


register_parametric("window_strip", _window_strip)
register_parametric("window_integral", _window_integral)
register_parametric("timeout_after", _timeout_after)

register_parametric(
    "enq_bounded",
    lambda n: LiftedFunction(
        f"enq_bounded({n})", 3,
        strict(_enq_concrete),
        strict_cells(_enq_bounded_abstract(n)),
    ),
)
