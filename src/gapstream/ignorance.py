"""Quantifying disagreement across a set of equal-progress streams.

The ignorance of a stream set scores, per time instant, how much the
streams' signal values (most recent event strictly before the instant)
disagree, measured with a normalized measure over the data domain, then
integrated over the trace and divided by its length.  Zero means all
streams agree everywhere, one means total disagreement throughout.

Two measure spaces are supported: finite value sets with counting measure
and bounded intervals with length measure.  The interval space measures each
disagreement set by the length of its convex hull, the minimal extension
making the sets measurable by intervals.

The comparison harness feeds a specification both ways around the
concretization square: the optimal ignorance evaluates the concrete spec
on every concretization of the inputs, the abstract ignorance concretizes
the abstract output; soundness makes the former never exceed the latter.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .abstract import FiniteUniverse, concretize
from .errors import BudgetExceeded, UnequalProgress
from .evaluator import evaluate_fixpoint
from .speclang import SpecGraph
from .streams import EventStream, Progress
from .timeline import Time
from .values import BOTTOM, Interval, value_eq


@dataclass(frozen=True)
class FiniteSetSpace:
    values: Tuple[object, ...]

    def measure(self, disagreement: frozenset) -> Fraction:
        hits = sum(1 for v in disagreement if v is BOTTOM or v in self.values)
        return min(Fraction(1), Fraction(hits, len(self.values)))


@dataclass(frozen=True)
class BoundedIntervalSpace:
    lo: Fraction
    hi: Fraction

    def measure(self, disagreement) -> Fraction:
        vals = [Fraction(v) for v in disagreement
                if isinstance(v, (int, Fraction)) and not isinstance(v, bool)]
        vals += [b for v in disagreement if isinstance(v, Interval)
                 for b in (v.lo, v.hi) if isinstance(b, Fraction)]
        if len(vals) < 2:
            return Fraction(0)
        width = max(vals) - min(vals)
        return min(Fraction(1), Fraction(width) / (self.hi - self.lo))


@dataclass(frozen=True)
class IgnoranceRepresentation:
    """Piece-wise constant disagreement sets over [0, T]."""

    pieces: Tuple[Tuple[Time, Time, frozenset], ...]
    horizon: Time


def _common_progress(streams: Sequence[EventStream]) -> Progress:
    prog = streams[0].progress
    for s in streams[1:]:
        if s.progress != prog:
            warnings.warn("streams have unequal progress; truncating to the minimum")
            prog = min(prog, s.progress)
    return prog


def ignorance_repr(streams: Sequence[EventStream]) -> IgnoranceRepresentation:
    """Minimal piece-wise constant representation of value disagreement."""
    if not streams:
        raise UnequalProgress("need at least one stream")
    prog = _common_progress(streams)
    if prog.is_infinite():
        raise UnequalProgress("ignorance needs a finite progress horizon")
    horizon = prog.time
    streams = [s.truncated(prog) for s in streams]

    cuts = sorted({0, horizon}
                  | {t for s in streams for t in s.ticks() if t <= horizon})
    pieces: List[Tuple[Time, Time, frozenset]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        vals = [s.signal_value(_mid(lo, hi)) for s in streams]
        distinct = _distinct(vals)
        dis = frozenset(distinct) if len(distinct) > 1 else frozenset()
        if pieces and pieces[-1][2] == dis and pieces[-1][1] == lo:
            pieces[-1] = (pieces[-1][0], hi, dis)
        else:
            pieces.append((lo, hi, dis))
    kept = tuple(p for p in pieces if p[2])
    return IgnoranceRepresentation(kept, horizon)


def _mid(lo: Time, hi: Time) -> Fraction:
    return Fraction(lo + hi, 2)


def _distinct(vals) -> list:
    out = []
    for v in vals:
        if not any(value_eq(v, u) for u in out):
            out.append(v)
    return out


def iota(streams: Sequence[EventStream], space) -> Fraction:
    """Normalized time-integral of disagreement measure; in [0, 1]."""
    rep = ignorance_repr(streams)
    if rep.horizon == 0:
        return Fraction(0)
    total = sum(((hi - lo) * space.measure(dis) for lo, hi, dis in rep.pieces),
                Fraction(0))
    return Fraction(total, rep.horizon)


def compare_ignorance(concrete: SpecGraph, abstract: SpecGraph,
                      inputs: Dict[str, object], universe: FiniteUniverse,
                      output: str, space) -> Tuple[Fraction, Fraction]:
    """Optimal versus abstract ignorance of one output stream.

    Optimal: the concrete spec applied to every concretization of the
    inputs.  Abstract: the concretization of the abstract spec's output.
    Soundness of the abstraction guarantees optimal <= abstract.
    """
    variants: List[List[Tuple[str, EventStream]]] = []
    count = 1
    for name, s in inputs.items():
        options = concretize(s, universe, name=name)
        count *= len(options)
        if count > universe.budget:
            raise BudgetExceeded(
                f"input concretization needs {count}+ combinations")
        variants.append([(name, o) for o in options])

    outputs: List[EventStream] = []
    seen = set()
    for combo in itertools.product(*variants):
        env = evaluate_fixpoint(concrete, dict(combo))
        out = env[output]
        if out not in seen:
            seen.add(out)
            outputs.append(out)

    optimal = iota(outputs, space)

    env = evaluate_fixpoint(abstract, inputs)
    abs_out = env[output]
    values = universe.values_for(output)
    if isinstance(space, BoundedIntervalSpace):
        # the interval measure scores every number in [lo, hi], and the
        # concrete outputs may take numbers outside the universe there: the
        # output's gaps and TOPs must reach both bounds to stay an upper bound
        values += tuple(b for b in (space.lo, space.hi)
                        if not any(value_eq(b, v) for v in values))
    gamma = concretize(abs_out, replace(
        universe, per_stream=((output, values),) + universe.per_stream), name=output)
    abstract_ign = iota(gamma, space)
    return optimal, abstract_ign
