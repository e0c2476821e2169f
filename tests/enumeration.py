"""Soundness and perfection harness: abstract operators versus enumeration.

Soundness: applying the concrete operator to every concretization of the
abstract inputs yields streams the abstract output represents.

Perfection: the abstract output equals the abstraction of that image set,
compared on the finite universe (gap sets restricted to the points where
the enumeration can witness anything).
"""

from __future__ import annotations

import itertools
from gapstream.abstract import AbstractEventStream, abstract_of, concretize
from gapstream.timeline import Span, TimeSet
from gapstream.values import TOP, Interval, value_eq

from conftest import flat_join, member_of_gamma


def canonical_on_points(s: AbstractEventStream, points) -> AbstractEventStream:
    """Restrict the gap set to the given candidate points (for grid comparisons)."""
    pts = [p for p in points if s.gaps.contains(p)]
    return AbstractEventStream.of(
        s.stream, TimeSet(Span(p, True, p, True) for p in pts)
    )


def image_streams(op_concrete, abs_inputs, universe):
    """Deduplicated concrete outputs over all input concretizations."""
    pools = [concretize(s, universe) for s in abs_inputs]
    out = []
    seen = set()
    for combo in itertools.product(*pools):
        got = op_concrete(*combo)
        if got not in seen:
            seen.add(got)
            out.append(got)
    return out


def check_sound(op_abstract, op_concrete, abs_inputs, universe) -> None:
    lhs = op_abstract(*abs_inputs)
    for combo_out in image_streams(op_concrete, abs_inputs, universe):
        assert lhs.progress <= combo_out.progress, \
            f"abstract progress {lhs.progress} exceeds concrete {combo_out.progress}"
        assert member_of_gamma(combo_out, lhs), \
            f"{combo_out!r} escapes gamma of {lhs!r}"


def witness_points(universe, *streams):
    pts = set(universe.grid)
    for s in streams:
        if isinstance(s, AbstractEventStream):
            pts.update(s.stream.ticks())
        else:
            pts.update(s.ticks())
    return sorted(pts)


def check_perfect(op_abstract, op_concrete, abs_inputs, universe,
                  join=flat_join) -> None:
    lhs = op_abstract(*abs_inputs)
    image = image_streams(op_concrete, abs_inputs, universe)
    trunc = [s.truncated(lhs.progress) for s in image]
    rhs = abstract_of(trunc, join=join)
    pts = witness_points(universe, lhs, rhs, *image)
    lhs_c = canonical_on_points(lhs, pts)
    rhs_c = canonical_on_points(rhs, pts)
    assert lhs_c.progress == rhs_c.progress, \
        f"progress differs: {lhs_c.progress} vs {rhs_c.progress}"
    assert lhs_c.gaps == rhs_c.gaps, \
        f"gap sets differ on {pts}: {lhs_c.gaps} vs {rhs_c.gaps}\n{lhs!r}\n{rhs!r}"
    le, re_ = lhs_c.stream.events, rhs_c.stream.events
    assert len(le) == len(re_), f"event counts differ: {le} vs {re_}"
    for (t1, v1), (t2, v2) in zip(le, re_):
        assert t1 == t2 and _abs_value_eq(v1, v2), \
            f"event mismatch at {t1}: {v1!r} vs {v2!r}"


def _abs_value_eq(a, b) -> bool:
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a == b
    if isinstance(a, Interval) and a.is_single():
        return _abs_value_eq(a.lo, b)
    if isinstance(b, Interval) and b.is_single():
        return _abs_value_eq(a, b.lo)
    if a is TOP or b is TOP:
        return a is b
    return value_eq(a, b)
