"""Abstract streams: concretization, abstraction, refinement, Galois laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_streams, flat_join, member_of_gamma
from gapstream.abstract import (AbstractEventStream, FiniteUniverse, InputBuilder,
                                abstract_of, concretize, refinement_leq, value_join,
                                value_leq)
from gapstream.errors import BudgetExceeded, OutOfOrderInput
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, Span, TimeSet
from gapstream.values import TOP, Interval

UNI = FiniteUniverse.of(grid=(F(1), F(2), F(3)), values=(F(0), F(1)))
BOOL_UNI = FiniteUniverse.of(grid=(F(1), F(2)), values=(True, False))
P4 = Progress.inclusive_at(4)


def astream(events, gaps=(), prog=P4):
    return AbstractEventStream.of(EventStream.of(events, prog), TimeSet(gaps))


class TestConcretize:
    def test_top_bool_event(self):
        s = astream([(1, TOP)])
        got = concretize(s, BOOL_UNI)
        assert sorted(g.events for g in got) == [((F(1), False),), ((F(1), True),)]

    def test_point_gap_enumeration(self):
        s = astream([], gaps=[Span(F(2), True, F(2), True)])
        got = concretize(s, UNI)
        # enumeration oracle: one no-event option plus one per domain value
        assert len(got) == 1 + len(UNI.values)
        assert {g.events for g in got} == {
            (), ((F(2), F(0)),), ((F(2), F(1)),)}

    def test_concrete_is_singleton(self):
        s = astream([(1, F(0)), (3, F(1))])
        got = concretize(s, UNI)
        assert len(got) == 1 and got[0] == s.stream

    def test_budget(self):
        gaps = [Span(g, True, g, True) for g in (F(1), F(2), F(3))]
        s = astream([], gaps=gaps)
        tiny = FiniteUniverse.of(grid=(F(1), F(2), F(3)), values=(F(0), F(1)),
                                 budget=4)
        with pytest.raises(BudgetExceeded):
            concretize(s, tiny)


class TestAbstractOf:
    def test_value_join_to_top(self):
        a = EventStream.of([(1, True)], P4)
        b = EventStream.of([(1, False)], P4)
        out = abstract_of([a, b], join=flat_join)
        assert out.stream.events == ((F(1), TOP),)
        assert out.gaps.is_empty()

    def test_presence_disagreement_makes_point_gap(self):
        a = EventStream.of([(2, F(0))], P4)
        b = EventStream.of([], P4)
        out = abstract_of([a, b])
        assert out.stream.events == ()
        assert out.gaps == TimeSet.of(Span(F(2), True, F(2), True))

    def test_singleton_embeds(self):
        s = EventStream.of([(1, F(0))], P4)
        out = abstract_of([s])
        assert out.stream == s and out.gaps.is_empty()


class TestRefinement:
    def test_reflexive(self):
        s = astream([(1, F(0))])
        assert refinement_leq(s, s)

    def test_value_order(self):
        a = astream([(1, True)])
        b = astream([(1, TOP)])
        assert refinement_leq(a, b)
        assert not refinement_leq(b, a)

    def test_gap_is_coarser(self):
        a = astream([(1, F(0)), (3, F(1))])
        b = astream([(1, F(0)), (3, F(1))], gaps=[Span(F(2), True, F(2), True)])
        assert refinement_leq(a, b)
        assert not refinement_leq(b, a)
        # checked against enumeration: everything a represents, b represents
        for c in concretize(a, UNI):
            assert member_of_gamma(c, b)

    def test_concrete_streams_as_they_are(self):
        s = EventStream.of([(1, F(0)), (3, F(1))], P4)
        assert refinement_leq(s, AbstractEventStream.of(s))
        assert refinement_leq(AbstractEventStream.of(s), s)
        assert refinement_leq(s, s)
        gapped = astream([(1, F(0))], gaps=[Span(F(3), True, F(3), True)])
        assert refinement_leq(s, gapped)
        assert not refinement_leq(gapped, s)
        assert not refinement_leq(s, EventStream.of([(1, F(0))], P4))

    @given(abstract_streams(), abstract_streams())
    @settings(max_examples=60, deadline=None)
    def test_refinement_implies_gamma_inclusion(self, a, b):
        if a.progress != b.progress:
            return
        if refinement_leq(a, b):
            for c in concretize(a, UNI):
                assert member_of_gamma(c, b)


class TestGaloisLaws:
    @given(st.lists(st.tuples(st.sampled_from([F(1), F(2)]),
                              st.sampled_from([F(0), F(1)])),
                    min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_gamma_alpha_extensive(self, raw):
        streams = []
        for i in range(len(raw)):
            evs = sorted(set(raw[: i + 1]), key=lambda p: p[0])
            dedup = []
            seen = set()
            for t, v in evs:
                if t not in seen:
                    seen.add(t)
                    dedup.append((t, v))
            streams.append(EventStream.of(dedup, P4))
        s = abstract_of(streams, join=flat_join)
        for c in streams:
            assert member_of_gamma(c, s)

    @given(abstract_streams(grid=[F(1), F(2)], progress_at=F(3)))
    @settings(max_examples=60, deadline=None)
    def test_alpha_gamma_reductive(self, s):
        got = concretize(s, UNI)
        back = abstract_of(got, join=flat_join)
        assert refinement_leq(back, s)

    @given(abstract_streams(grid=[F(1), F(2)], progress_at=F(3)),
           st.lists(st.integers(0, 5), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_galois_equivalence(self, s, picks):
        # alpha(S) refines s  iff  S is within gamma(s), both by enumeration
        pool = concretize(s, UNI)
        chosen = [pool[i % len(pool)] for i in picks]
        alpha = abstract_of(chosen, join=flat_join)
        lhs = refinement_leq(alpha, s)
        rhs = all(member_of_gamma(c, s) for c in chosen)
        assert lhs == rhs or (rhs and not lhs) is False

    @given(abstract_streams(grid=[F(1), F(2)], progress_at=F(3)),
           st.lists(st.integers(0, 5), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_galois_forward(self, s, picks):
        pool = concretize(s, UNI)
        chosen = [pool[i % len(pool)] for i in picks]
        assert refinement_leq(abstract_of(chosen, join=flat_join), s)


class TestValueOrder:
    def test_interval_inclusion(self):
        assert value_leq(Interval.of(1, 2), Interval.of(0, 3))
        assert not value_leq(Interval.of(0, 3), Interval.of(1, 2))
        assert value_leq(F(1), Interval.of(0, 3))
        assert value_leq(Interval.of(0, 3), TOP)

    def test_join_hulls_numbers(self):
        assert value_join(F(0), F(2)) == Interval.of(0, 2)
        assert value_join(True, False) is TOP
        assert value_join(F(1), F(1)) == F(1)


class Accepted:
    """The directives a builder accepted, recorded apart from it: the
    events, the closed gap spans, the open gap's start and the progress."""

    def __init__(self):
        self.events, self.spans, self.open_gap = [], [], None
        self.progress = Progress.exclusive(0)

    def record(self, kind: str, t, v) -> None:
        # an event or a gap start decides t, a gap end the times below it
        self.progress = Progress(t, kind != "gap_end" and t is not INF)
        if kind == "event":
            self.events.append((t, v))
            if self.open_gap is not None:
                # an event punches a known point into the open gap
                self.spans.append(Span(*self.open_gap, t, False))
                self.open_gap = (t, False)
        elif kind == "gap_start":
            self.open_gap = (t, True)
        elif kind == "gap_end":
            self.spans.append(Span(*self.open_gap, t, False))
            self.open_gap = None

    def stream(self, abstract: bool):
        """The stream built whole from the record, and checked whole."""
        base = EventStream.of(self.events, self.progress)
        if not abstract:
            return base
        spans = list(self.spans)
        if self.open_gap is not None:
            spans.append(Span(*self.open_gap, INF, False))
        return AbstractEventStream.of(base, TimeSet(spans))


@st.composite
def directives(draw):
    """Events, progress, gap starts and gap ends at int and half-unit
    times, mostly in order; an event inside an open gap punches it.  A
    directive out of order is rejected and must leave no trace."""
    out, t, in_gap = [], F(0), False
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["event", "event", "progress", "gap_end" if in_gap else "gap_start"]
        kind = draw(st.sampled_from(kinds))
        t += draw(st.sampled_from([F(0), F(1, 2), F(1)]))
        if kind == "progress" and draw(st.integers(0, 9)) == 0:
            out.append(("progress", INF))
            break
        out.append((kind, t))
        in_gap = kind == "gap_start" or in_gap and kind != "gap_end"
    return out


class TestInputBuilder:
    """stream() extends the last stream it built; it equals the stream
    built whole after every directive, and is the same object until the
    next one."""

    @pytest.mark.parametrize("abstract", [False, True])
    @given(run=directives())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_stream_built_whole(self, abstract, run):
        b = InputBuilder()
        last = b.stream(abstract)
        accepted = Accepted()
        for kind, t in run:
            if not abstract and kind.startswith("gap"):
                continue
            v = None
            try:
                if kind == "event":
                    v = TOP if t.denominator != 1 else t
                    b.event(t, v)
                elif kind == "progress":
                    b.advance(Progress(t, t is not INF))
                else:
                    getattr(b, kind)(t)
            except OutOfOrderInput:
                assert b.stream(abstract) is last, (kind, t)
                continue
            accepted.record(kind, t, v)
            s = b.stream(abstract)
            assert s == accepted.stream(abstract), (kind, t)
            assert s.ticks() == tuple(t for t, _ in accepted.events)
            assert b.stream(abstract) is s
            last = s

    def test_repeated_progress_keeps_the_stream(self):
        b = InputBuilder()
        b.event(1, F(1))
        b.advance(Progress.inclusive_at(3))
        s = b.stream(True)
        b.advance(Progress.inclusive_at(3))
        assert b.stream(True) is s
        b.advance(Progress.inclusive_at(4))
        assert b.stream(True) is not s
        # a progress alone copies no tuple
        assert b.stream(True).stream.events is s.stream.events
        assert b.stream(True).stream.ticks() is s.stream.ticks()
