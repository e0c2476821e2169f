"""The disagreement measure and the optimal-versus-abstract harness."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_streams
from gapstream.abstract import FiniteUniverse
from gapstream.builtin_specs import (IGNORANCE_SETUPS, spec_text, trace_text)
from gapstream.errors import UnequalProgress
from gapstream.ignorance import (BoundedIntervalSpace, FiniteSetSpace,
                                 compare_ignorance, ignorance_repr, iota)
from gapstream.speclang import abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.tracefile import parse_trace
from gapstream.values import BOTTOM

P6 = Progress.inclusive_at(6)
SPACE3 = FiniteSetSpace((F(0), F(1), F(2)))


def make_three_streams():
    a = EventStream.of([(0, F(0)), (1, F(2)), (2, F(1))], P6)
    b = EventStream.of([(0, F(0)), (1, F(2)), (3, F(0)), (4, F(1))], P6)
    c = EventStream.of([(0, F(0)), (1, F(2)), (5, F(1))], P6)
    return [a, b, c]


def brute_force_iota(streams, domain, horizon):
    """Independent pairwise-comparison oracle on a fine sample of [0, T]."""
    steps = 600
    total = F(0)
    for k in range(steps):
        t = horizon * F(2 * k + 1, 2 * steps)
        vals = [s.signal_value(t) for s in streams]
        dis = set()
        for x, y in itertools.combinations(vals, 2):
            if not _same(x, y):
                dis.add(_key(x))
                dis.add(_key(y))
        total += F(len([d for d in dis if d != "bot"]), len(domain))
    return total / steps


def _same(x, y):
    if x is BOTTOM or y is BOTTOM:
        return x is y
    return x == y


def _key(x):
    return "bot" if x is BOTTOM else x


class TestThreeStreamExample:
    def test_representation_pieces(self):
        rep = ignorance_repr(make_three_streams())
        assert [(lo, hi, set(ds)) for lo, hi, ds in rep.pieces] == [
            (F(2), F(3), {F(1), F(2)}),
            (F(3), F(4), {F(0), F(1), F(2)}),
            (F(4), F(5), {F(1), F(2)}),
        ]

    def test_iota_matches_brute_force(self):
        streams = make_three_streams()
        want = brute_force_iota(streams, (F(0), F(1), F(2)), F(6))
        assert want == F(7, 18)
        assert iota(streams, SPACE3) == F(7, 18)

    def test_singleton_and_identical(self):
        s = make_three_streams()[0]
        assert iota([s], SPACE3) == 0
        assert iota([s, s], SPACE3) == 0

    def test_total_disagreement_is_one(self):
        a = EventStream.of([(0, True)], P6)
        b = EventStream.of([(0, False)], P6)
        assert iota([a, b], FiniteSetSpace((True, False))) == 1


class TestProperties:
    @given(st.lists(event_streams(values=st.integers(0, 2)), min_size=1,
                    max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_monotonicity(self, streams):
        streams = [EventStream.of(s.events, P6) for s in streams]
        vals = [iota(streams[: k + 1], SPACE3) for k in range(len(streams))]
        assert all(0 <= v <= 1 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @given(st.lists(event_streams(values=st.integers(0, 2)), min_size=2,
                    max_size=3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_time_rescaling_invariance(self, streams, factor):
        streams = [EventStream.of(s.events, P6) for s in streams]
        scaled = [EventStream.of([(t * factor, v) for t, v in s.events],
                                 Progress.inclusive_at(6 * factor))
                  for s in streams]
        assert iota(streams, SPACE3) == iota(scaled, SPACE3)

    def test_unequal_progress_truncates_with_warning(self):
        a = EventStream.of([(0, F(0))], P6)
        b = EventStream.of([(0, F(1))], Progress.inclusive_at(3))
        with pytest.warns(UserWarning):
            got = iota([a, b], SPACE3)
        assert got == F(2, 3)  # on [0,3]: values {0,1} disagree throughout

    def test_infinite_progress_rejected(self):
        a = EventStream.of([(0, F(0))], Progress.infinite())
        with pytest.raises(UnequalProgress):
            iota([a, a], SPACE3)


class TestInterval:
    def test_hull_measure(self):
        space = BoundedIntervalSpace(F(0), F(10))
        a = EventStream.of([(0, F(2))], P6)
        b = EventStream.of([(0, F(7))], P6)
        assert iota([a, b], space) == F(5, 10)


def run_setup(name):
    setup = IGNORANCE_SETUPS[name]
    ast = parse_spec(spec_text(name))
    tr = parse_trace(trace_text(setup.trace_key))
    concrete = flatten(ast)
    abstract = flatten(unroll(abstractify(ast, time_aware=setup.time_aware)))
    uni = FiniteUniverse.of(setup.grid, setup.values, dict(setup.per_stream))
    if setup.measure == "set":
        space = FiniteSetSpace(uni.values_for(setup.output))
    else:
        _, lo, hi = setup.measure
        space = BoundedIntervalSpace(lo, hi)
    inputs = {n: tr.streams[n] for n in concrete.inputs}
    return compare_ignorance(concrete, abstract, inputs, uni,
                             setup.output, space), setup


class TestCompare:
    @pytest.mark.parametrize("name", sorted(IGNORANCE_SETUPS))
    def test_soundness_ordering(self, name):
        (optimal, abstract_ign), setup = run_setup(name)
        assert optimal <= abstract_ign

    def test_perfect_recovery_class(self):
        for name in ("reset-count", "reset-sum", "filter-example"):
            (optimal, abstract_ign), setup = run_setup(name)
            assert optimal == abstract_ign and optimal > 0, name

    def test_burst_pattern_loses_precision(self):
        (optimal, abstract_ign), _ = run_setup("bursts")
        assert optimal < abstract_ign

    def test_gapless_trace_scores_zero(self):
        ast = parse_spec(spec_text("reset-sum"))
        tr = parse_trace(trace_text("reset-sum-fig"))
        concrete = flatten(ast)
        abstract = flatten(unroll(abstractify(ast, time_aware=True)))
        uni = FiniteUniverse.of((F(2),), (F(1),))
        space = FiniteSetSpace((F(0), F(1)))
        inputs = {n: tr.streams[n] for n in concrete.inputs}
        optimal, abstract_ign = compare_ignorance(
            concrete, abstract, inputs, uni, "sum", space)
        assert optimal == 0 and abstract_ign == 0
