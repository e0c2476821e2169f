"""Abstract operators: paper-diagram cases, embedding, soundness, perfection."""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GRID, PROGRESS_KINDS, abstract_streams, delay_amount_streams,
                      event_streams, flat_join, member_of_gamma, period_trace,
                      unit_streams)
from enumeration import check_perfect, check_sound, image_streams
from gapstream import absops as A
from gapstream import ops
from gapstream.abstract import (AbstractEventStream, FiniteUniverse,
                                covered_span, refinement_leq)
from gapstream.encoded import _tmerge_cells, synchronized
from gapstream.builtin_specs import spec_text, trace_text
from gapstream.errors import OperatorError
from gapstream.evaluator import evaluate_fixpoint
from gapstream.functions import lookup, strict_cells
from gapstream.speclang import abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, Span, TimeSet
from gapstream.tracefile import parse_trace, serialize_trace
from gapstream.values import BOTTOM, GAP, TOP, UNIT, UNKNOWN, Interval

Pinc = Progress.inclusive_at


def astream(events, gaps=(), prog=None):
    return AbstractEventStream.of(
        EventStream.of(events, prog if prog is not None else Progress.infinite()),
        TimeSet(gaps))


def sp(lo, hi=None, lo_closed=True, hi_closed=True):
    if hi is None:
        return Span(F(lo), True, F(lo), True)
    return Span(F(lo), lo_closed, F(hi), hi_closed)


class TestTimeAbs:
    def test_values_become_timestamps_gaps_stay(self):
        s = astream([(1, F(3)), (3, F(2))], gaps=[sp(4, 6, True, False)], prog=Pinc(8))
        out = A.time_abs(s)
        assert out.stream.events == ((F(1), F(1)), (F(3), F(3)))
        assert out.gaps == s.gaps

    def test_gapless_equals_concrete(self):
        s = EventStream.of([(2, F(5))], Pinc(9))
        out = A.time_abs(AbstractEventStream.of(s))
        assert out.stream == ops.time(s) and out.gaps.is_empty()

    def test_top_payload_has_known_timestamp(self):
        s = astream([(5, TOP)], prog=Pinc(9))
        out = A.time_abs(s)
        assert out.stream.events == ((F(5), F(5)),)

    def test_resumed_output_shares_the_input_ticks(self):
        s = astream([(1, F(3)), (3, F(2))], gaps=[sp(4, 6, True, False)], prog=Pinc(8))
        prev = A.time_abs(astream([(1, F(3))], prog=Pinc(2)))
        out = A.time_abs(s, prev)
        assert out.stream.ticks() is s.stream.ticks()
        assert out == A.time_abs(s)


class TestLiftAbs:
    def test_merge_event_beats_gap(self):
        x = astream([], gaps=[sp(1)], prog=Pinc(4))
        y = astream([(1, F(7))], prog=Pinc(4))
        out = A.merge_abs(x, y)
        assert out.stream.events == ((F(1), TOP),)

    def test_merge_gap_gap(self):
        x = astream([], gaps=[sp(1, 2)], prog=Pinc(4))
        y = astream([], gaps=[sp(1, 3)], prog=Pinc(4))
        out = A.merge_abs(x, y)
        assert out.at(F("1.5")) is GAP

    def test_const_preserves_gaps(self):
        x = astream([(1, F(7))], gaps=[sp(2)], prog=Pinc(4))
        out = A.const_abs(F(0))(x)
        assert out.stream.events == ((F(1), F(0)),)
        assert out.gaps == x.gaps

    def test_paper_merge_trace(self):
        x = astream([(2, UNIT), (3, UNIT), (8, UNIT)],
                    gaps=[sp(4, 6, False, False), sp(9)], prog=Pinc(10))
        y = astream([(1, UNIT), (3, UNIT), (9, UNIT)],
                    gaps=[sp(5, 7, False, False), sp(8)], prog=Pinc(10))
        z = A.merge_abs(x, y)
        assert z.stream.events == (
            (F(1), UNIT), (F(2), UNIT), (F(3), UNIT), (F(8), UNIT), (F(9), TOP))
        assert z.gaps.contains(F("4.5")) and z.gaps.contains(F("6.5"))
        assert not z.gaps.contains(8) and not z.gaps.contains(9)


class TestLastAbs:
    def test_paper_case_trace(self):
        v = astream([(3, UNIT), (6, UNIT)], prog=Pinc(10),
                    gaps=[Span(F(0), True, F(2), False), sp(4),
                          sp(7, 8, False, False)])
        r = astream([(1, UNIT), (5, UNIT), (6, UNIT), (7, UNIT)], prog=Pinc(10),
                    gaps=[sp(8, 9, False, False)])
        z = A.last_abs(v, r)
        assert z.stream.events == ((F(5), TOP), (F(6), TOP), (F(7), UNIT))
        assert z.gaps == TimeSet.of(sp(1), sp(8, 9, False, False))

    def test_gapless_equals_concrete(self):
        v = EventStream.of([(0, F(0)), (2, F(1)), (4, F(2))], Progress.infinite())
        r = EventStream.of([(2, UNIT), (4, UNIT)], Progress.infinite())
        out = A.last_abs(AbstractEventStream.of(v), AbstractEventStream.of(r))
        assert out.stream == ops.last(v, r) and out.gaps.is_empty()

    def test_no_output_without_prior_value(self):
        v = astream([(5, F(1))], prog=Pinc(9))
        r = astream([(2, UNIT)], prog=Pinc(9))
        assert A.last_abs(v, r).at(2) is BOTTOM

    def test_resumed_output_is_checked(self):
        # prev is no output of last_abs on these arguments: its event at 2
        # lies in the gap [1, 2] the output inherits from r, or, past its own
        # progress, above the event appended at r's tick 3
        v = astream([(0, F(1))])
        r = astream([(3, UNIT)], gaps=[sp(1, 2)])
        with pytest.raises(OperatorError, match="event at 2 lies inside a gap"):
            A.last_abs(v, r, prev=astream([(2, F(1))], prog=Pinc(2)))
        beyond = EventStream(((F(5), F(1)),), Progress.exclusive(1))
        with pytest.raises(OperatorError, match="strictly increase: 5 then 3"):
            A.last_abs(v, astream([(3, UNIT)]), prev=AbstractEventStream(beyond, TimeSet.empty()))


class TestUnrolledLast:
    def test_gap_free_identity(self):
        v = AbstractEventStream.of(
            EventStream.of([(0, F(0)), (2, F(1))], Progress.infinite()))
        r = AbstractEventStream.of(
            EventStream.of([(2, UNIT), (4, UNIT)], Progress.infinite()))
        direct = A.last_abs(v, r)
        bot = A.last_abs_bot(v, r)
        assert bot == direct  # no gaps anywhere

    def test_bot_strips_gap_and_gap_half_restores(self):
        v = astream([(1, F(1))], gaps=[sp(3)], prog=Pinc(9))
        r = astream([(5, UNIT)], gaps=[sp(6, 7, False, False)], prog=Pinc(9))
        z = A.last_abs(v, r)
        z_bot = A.last_abs_bot(v, r)
        assert z_bot.gaps.is_empty()
        assert z_bot.stream.events == z.stream.events
        z_gap = A.last_abs_gap(v, r, z_bot)
        assert z_gap.gaps == z.gaps
        assert z_gap.stream.events == z.stream.events


class TestLastTime:
    def test_interval_spans_event_to_gap_end(self):
        v = astream([(1, UNIT)], gaps=[sp(2, 4, False, False)], prog=Pinc(6))
        r = astream([(5, UNIT)], prog=Pinc(6))
        z = A.last_time_abs(v, r)
        assert z.stream.events == ((F(5), Interval.of(1, 4)),)

    def test_degenerate_without_gap(self):
        v = astream([(1, UNIT), (3, UNIT)], prog=Pinc(6))
        r = astream([(5, UNIT)], prog=Pinc(6))
        z = A.last_time_abs(v, r)
        assert z.stream.events == ((F(5), Interval.single(3)),)

    def test_initial_gap_still_point_gap(self):
        v = astream([], gaps=[sp(1, 2, True, False)], prog=Pinc(6))
        r = astream([(5, UNIT)], prog=Pinc(6))
        z = A.last_time_abs(v, r)
        assert z.at(5) is GAP and z.stream.events == ()


class TestDelayAbs:
    def make_b2(self):
        d = astream(
            [(1, F(2)), (4, F(2)), (7, F(1)), (9, F(2)), (12, TOP)],
            gaps=[sp(2), sp(5), Span(F(13), False, F(16), False)],
            prog=Pinc(17))
        r = astream(
            [(4, UNIT), (9, UNIT), (12, UNIT), (13, UNIT), (15, UNIT), (16, UNIT)],
            gaps=[sp(7), sp(10), sp(14)],
            prog=Pinc(17))
        return d, r

    def test_b2_diagram(self):
        d, r = self.make_b2()
        z = A.delay_abs(d, r)
        assert z.stream.events == ((F(6), UNIT),)
        for t, inside in [(3, False), (8, True), (11, True), (F("12.5"), True),
                          (13, True), (F("13.5"), False), (F(15), True),
                          (16, True), (F("16.5"), False)]:
            assert z.gaps.contains(t) == inside, (t, inside, z.gaps)

    def test_gapless_equals_concrete(self):
        d = EventStream.of([(1, F(2)), (3, F(2))], Pinc(10))
        r = EventStream.of([(1, UNIT)], Pinc(10))
        out = A.delay_abs(AbstractEventStream.of(d), AbstractEventStream.of(r))
        conc = ops.delay(d, r)
        assert out.stream == conc and out.gaps.is_empty()

    def test_unrolled_composition(self):
        d, r = self.make_b2()
        z = A.delay_abs(d, r)
        z_bot = A.delay_abs_bot(d, r)
        assert z_bot.gaps.is_empty()
        z_gap = A.delay_abs_gap(d, r, z_bot)
        assert z_gap.gaps == z.gaps
        assert z_gap.stream.events == z.stream.events

    def test_amounts_past_the_stop_are_checked(self):
        # r's progress ends at its reset at 1, so the source armed there is
        # undecidable and the sweep stops at its timeout 2, before the bad
        # amounts at 5 and 6
        d = astream([(1, F(1)), (5, F(-1)), (6, F(0))], prog=Pinc(7))
        r = astream([(1, UNIT)], prog=Pinc(1))
        assert A.delay_abs(cut(d, Pinc(4)), r).progress == Progress.exclusive(2)
        with pytest.raises(OperatorError, match="delay amount at 5 must be positive"):
            A.delay_abs(d, r)


class TestSharedBase:
    """The value and gap halves of an unrolled delay share one sweep: the
    holder a delay_abs call is given keeps that call, and gives the same
    argument objects its result."""

    def halves(self, a, b, state=None):
        bot = A.delay_abs_bot(a, b, state=state)
        return bot, A.delay_abs_gap(a, b, bot, state=state)

    def test_equal_arguments_never_hit(self):
        d, r = TestDelayAbs().make_b2()
        d2 = astream(d.stream.events, gaps=d.gaps.spans, prog=d.progress)
        assert d2 == d and d2 is not d
        state = {}
        for a in (d, d2, d):
            got = self.halves(a, r, state)
            kept = state["z"]
            assert state["d"] is a and state["r"] is r
            assert A.delay_abs(a, r, state=state) is kept
            assert got == self.halves(a, r)
            z = A.delay_abs(a, r)
            assert z == kept and z is not kept

    def test_unrolled_period_sweeps_at_most_once_per_pair(self, monkeypatch):
        # a pair evaluation whose d changed nothing the kept sweep read up to
        # its stop atom takes no sweep; last(cur, tick) raises cur's progress
        # twice per fire, first to <t and then to <=t, so the gapped trace
        # has such evaluations
        calls = {}
        sweeps = []
        # the sweeps each call of a half started, delay_abs's own included
        started = {"delay_abs_bot": [], "delay_abs_gap": []}
        for name in ("delay_abs", "delay_abs_bot", "delay_abs_gap"):
            def counting(*args, _name=name, _original=getattr(A, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                before = len(sweeps)
                out = _original(*args, **kwargs)
                started.get(_name, []).append(len(sweeps) - before)
                return out
            monkeypatch.setattr(A, name, counting)
        init = A._DelaySweep.__init__
        monkeypatch.setattr(A._DelaySweep, "__init__",
                            lambda self: (sweeps.append(self), init(self))[1])
        ast = unroll(abstractify(parse_spec(spec_text("variable-period"))))
        tr = parse_trace(trace_text("variable-period-gapped"))
        evaluate_fixpoint(flatten(ast), tr.streams)
        assert calls["delay_abs_bot"] == calls["delay_abs_gap"] > 1
        assert calls["delay_abs"] == 2 * calls["delay_abs_bot"]
        # each pair evaluation, a value half and then its gap half on the same
        # arguments, sweeps at most once, and the gap half never
        assert set(started["delay_abs_bot"]) <= {0, 1}
        assert set(started["delay_abs_gap"]) == {0}
        assert len(sweeps) < calls["delay_abs_bot"]

    def test_skip_only_while_d_adds_nothing_below_the_stop(self):
        # past d's progress its unknown cells change nothing up to the reset
        # at 3, which may arm whatever d holds there, so the sweep stops
        # right after it, and a d known further up to 3 gets the kept result
        r = astream([(3, UNIT)], gaps=[sp(1, 2, False, False)])
        state = {}
        z = A.delay_abs(astream([], prog=Pinc(F(5, 2))), r, state=state)
        assert z.progress == Pinc(3) and state["stop"] == (3, None)
        d = astream([], prog=Progress.exclusive(3))
        assert A.delay_abs(d, r, state=state) is z and state["d"] is d
        # a new amount below the stop is checked as a call without a holder
        # checks it
        with pytest.raises(OperatorError, match="delay amount at 11/4 must be positive"):
            A.delay_abs(astream([(F(11, 4), F(-1))], prog=Progress.exclusive(3)), r, state=state)
        # a d that lost progress is unknown in r's gap, where its sweep stops
        shrunk = astream([], prog=Progress.exclusive(F(3, 2)))
        assert A.delay_abs(shrunk, r, state=state).progress == Pinc(F(3, 2))

    def test_resumed_sweep_leaves_the_checkpoint_alone(self):
        # the call on complete arguments takes no checkpoint of its own and
        # keeps the one it resumed from; the r gap at (2, 3) makes the source
        # at 1 vulnerable in its sweep, but not in the kept state.  r2 agrees
        # with r below the checkpoint, which is all a resume reads of it
        d = astream([(1, F(4))])
        r = astream([(1, UNIT)], gaps=[sp(2, 3, False, False)])
        r2 = astream([(1, UNIT)])
        state = {}
        A.delay_abs(cut(d, Progress.exclusive(F(3, 2))), r, state=state)
        assert A.delay_abs(d, r, state=state).gaps == TimeSet.of(sp(5))
        assert state["checkpoint"][0] == F(3, 2)
        assert A.delay_abs(d, r2, state=state).stream.events == ((5, UNIT),)
        assert state["checkpoint"][0] == F(3, 2)


# variable-period twice, each copy's cur triggered by the other copy's tick,
# so both delays sit in one recursive component
TWO_DELAYS = """\
in period : Events[Int]
def seed := const(5)(unit())
def arm := merge(unit(), period)
def cur := merge(period, merge(last(cur, tick2), seed))
def tick := merge(unit(), delay(cur, arm))
def seed2 := const(7)(unit())
def cur2 := merge(period, merge(last(cur2, tick), seed2))
def tick2 := merge(unit(), delay(cur2, arm))
out tick
out tick2
"""


# a reset at 0 and n amounts of 1 at odd times, none of them armed: each
# sweep of the fixed point decides tick up to one more amount, where the
# delay stops as tick is not known there yet, so on every sweep the later
# amounts lie past the atom the delay stops at
AMOUNT_TICKS = """\
in r : Events[Unit]
in d : Events[Int]
def tick := merge(r, delay(d, tick))
out tick
"""


def amount_trace(n: int) -> str:
    lines = ["stream r : Unit", "stream d : Int", "0: r = ()"]
    lines += [f"{2 * i + 1}: d = 1" for i in range(n)]
    return "\n".join(lines + [f"progress {2 * n + 2}"]) + "\n"


class TestDelaySweepCount:
    """The unrolled delay resumes its sweep, so the atoms it decides grow with
    the trace, not with the trace times the sweeps of the fixed point."""

    def test_atoms_grow_about_linearly(self, monkeypatch):
        atoms = []
        atom = A._DelaySweep.atom
        monkeypatch.setattr(A._DelaySweep, "atom",
                            lambda self, *cells: (atoms.append(1), atom(self, *cells))[1])
        graph = flatten(unroll(abstractify(parse_spec(spec_text("variable-period")))))
        counts = []
        for n in (8, 16):
            atoms.clear()
            evaluate_fixpoint(graph, parse_trace(period_trace(n)).streams)
            counts.append(len(atoms))
        assert counts[1] <= 2.5 * counts[0], counts

    def test_two_delays_in_one_component_keep_their_own_sweeps(self, monkeypatch):
        # each delay has its own holder, so neither evicts the other's sweep
        atoms = []
        atom = A._DelaySweep.atom
        monkeypatch.setattr(A._DelaySweep, "atom",
                            lambda self, *cells: (atoms.append(1), atom(self, *cells))[1])
        graph = flatten(unroll(abstractify(parse_spec(TWO_DELAYS))))
        counts = []
        for n in (8, 16):
            atoms.clear()
            evaluate_fixpoint(graph, parse_trace(period_trace(n)).streams)
            counts.append(len(atoms))
        assert counts[1] <= 2.5 * counts[0], counts

    @pytest.mark.parametrize("abstract", [False, True])
    def test_amount_checks_grow_about_linearly(self, monkeypatch, abstract):
        # every delay amount lies past the atom the sweep stops at until the
        # fixed point reaches it, so each amount is checked there, and the
        # holder's count keeps it from being checked again on every sweep
        checks = []
        amount = A._delay_amount
        monkeypatch.setattr(A, "_delay_amount",
                            lambda *args: (checks.append(1), amount(*args))[1])
        spec = parse_spec(AMOUNT_TICKS)
        graph = flatten(abstractify(spec) if abstract else spec)
        counts = []
        for n in (40, 80):
            checks.clear()
            evaluate_fixpoint(graph, parse_trace(amount_trace(n)).streams)
            counts.append(len(checks))
        assert counts[1] <= 2.5 * counts[0], counts


class TestDelayFin:
    def make_b3(self):
        d = astream([(1, F(2)), (4, F(3)), (5, F(3)), (6, F(3))], prog=Pinc(10))
        r = astream([(1, UNIT)], gaps=[Span(F(2), False, F(8), False)],
                    prog=Pinc(10))
        return d, r

    def test_b3_red_region_merges(self):
        d, r = self.make_b3()
        z = A.delay_abs(d, r)
        fin = A.delay_abs_fin(d, r)
        # precise: separate point gaps at 3, 7, 8, 9
        assert z.gaps == TimeSet.of(sp(3), sp(7), sp(8), sp(9))
        # finite-memory: the run from 7 to 9 becomes one contiguous gap
        assert fin.gaps == TimeSet.of(sp(3), sp(7, 9))
        assert refinement_leq(z, fin)
        assert z.gaps != fin.gaps

    def test_reset_event_ends_promotion(self):
        # the source at 1 times out at 2, but the reset event at 2 follows its
        # start, so the pending timeout of the source at 3/2 is not merged in
        d = astream([(1, F(1)), (F(3, 2), F(3))], prog=Pinc(6))
        r = astream([(2, UNIT)], gaps=[sp(0, 2, False, False)], prog=Pinc(6))
        assert A.delay_abs_fin(d, r) == A.delay_abs(d, r)
        assert A.delay_abs(d, r).gaps == TimeSet.of(sp(2))

    def test_without_reset_gaps_identical(self):
        d = astream([(1, F(2)), (4, F(3))], prog=Pinc(10))
        r = astream([(1, UNIT), (4, UNIT)], prog=Pinc(10))
        assert A.delay_abs_fin(d, r) == A.delay_abs(d, r)

    @given(abstract_streams(values=st.sampled_from([F(1), F(2), TOP]),
                            grid=[F(0), F(1), F(2), F(3)], progress_at=F(8)),
           abstract_streams(values=st.just(UNIT),
                            grid=[F(0), F(1), F(2), F(3)], progress_at=F(8)))
    @settings(max_examples=60, deadline=None)
    def test_fin_coarsens(self, d, r):
        assert refinement_leq(A.delay_abs(d, r), A.delay_abs_fin(d, r))


# -- embedding: gapless, top-free abstract inputs behave concretely ----------

# name: (abstract operator, concrete operator, argument strategies)
def _last_halves(v, r):
    return A.last_abs_gap(v, r, A.last_abs_bot(v, r))


def _delay_halves(d, r):
    # the two halves of an unrolled delay share one holder
    holder = {}
    return A.delay_abs_gap(d, r, A.delay_abs_bot(d, r, state=holder), state=holder)


_HISTORY = (event_streams(), unit_streams())
_DELAY = (delay_amount_streams(), unit_streams())

EMBEDDINGS = {
    "time": (A.time_abs, ops.time, (event_streams(),)),
    "lift": (lambda s: A.lift_abs(lookup("inc").abstract_cells, s),
             lambda s: ops.lift(lookup("inc").concrete, s), (event_streams(),)),
    "merge": (A.merge_abs, ops.merge, (event_streams(), event_streams())),
    "const": (A.const_abs(F(5)), ops.const(F(5)), (event_streams(),)),
    "last": (A.last_abs, ops.last, _HISTORY),
    "last_bot": (A.last_abs_bot, ops.last, _HISTORY),
    "last_gap": (_last_halves, ops.last, _HISTORY),
    "delay": (lambda d, r: A.delay_abs(d, r, state={}),
              lambda d, r: ops.delay(d, r, state={}), _DELAY),
    "delay_bot": (lambda d, r: A.delay_abs_bot(d, r, state={}), ops.delay, _DELAY),
    "delay_gap": (_delay_halves, ops.delay, _DELAY),
}


class TestEmbedding:
    """On gap-free, TOP-free inputs each abstract operator is the concrete one.

    Every argument's progress is drawn exclusive, inclusive or infinite on
    its own, and the outputs agree in events and progress.  A concrete
    stream is its own gap-free abstract stream, so each operator gives the
    same on it as on AbstractEventStream.of of it.  The concrete time,
    slift, last and delay are time_abs, slift_abs, last_abs and delay_abs
    on such inputs; tests/test_ops.py checks them against the synchronized
    lift and the dense-time oracles.
    """

    @pytest.mark.parametrize("name", list(EMBEDDINGS))
    def test_abstract_equals_concrete(self, name):
        op_abs, op_conc, args = EMBEDDINGS[name]

        @given(st.tuples(*args))
        @settings(max_examples=100, deadline=None)
        def check(streams):
            for s in streams:
                assert s.stream is s and s.gaps is TimeSet.empty()
            out = op_abs(*map(AbstractEventStream.of, streams))
            assert out.gaps.is_empty()
            assert out.stream == op_conc(*streams)
            assert op_abs(*streams) == out

        check()

    @pytest.mark.parametrize("d, r, want", [
        # the delay event's arming waits on r, so both cap at its timeout
        (EventStream.of([(F(1, 2), F(1, 2))], Progress.infinite()),
         EventStream.of([], Pinc(0)), EventStream.of([], Progress.exclusive(1))),
        # the fire at 3 reads only the inputs below 3, and then needs d at 3
        (EventStream.of([(1, F(2))], Progress.exclusive(3)),
         EventStream.of([(1, UNIT)], Progress.exclusive(3)),
         EventStream.of([(3, UNIT)], Pinc(3))),
    ])
    def test_delay_decides_past_the_inputs_progress(self, d, r, want):
        assert ops.delay(d, r) == want
        assert A.delay_abs(AbstractEventStream.of(d),
                           AbstractEventStream.of(r)) == AbstractEventStream.of(want)


# -- soundness and perfection on small universes ------------------------------

UNI = FiniteUniverse.of(grid=(F(1), F(2), F(3)), values=(F(0), F(1)))


def bool_cells(f):
    from gapstream.functions import strict_cells
    return strict_cells(f)


OPERATORS = [
    ("time", lambda s: A.time_abs(s), lambda s: ops.time(s), 1),
    ("lift_inc", lambda s: A.lift_abs(lookup("inc").abstract_cells, s),
     lambda s: ops.lift(lookup("inc").concrete, s), 1),
    ("merge", lambda a, b: A.merge_abs(a, b), lambda a, b: ops.merge(a, b), 2),
    ("last", lambda a, b: A.last_abs(a, b), lambda a, b: ops.last(a, b), 2),
]


_OP_INPUT = abstract_streams(values=st.sampled_from([F(0), F(1), TOP]),
                             grid=[F(1), F(2), F(3)], progress_at=F(4))


@st.composite
def op_inputs(draw, arity):
    return tuple(draw(_OP_INPUT) for _ in range(arity))


class TestSoundness:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_operators_sound(self, data):
        name, op_a, op_c, arity = data.draw(st.sampled_from(OPERATORS))
        inputs = data.draw(op_inputs(arity))
        check_sound(op_a, op_c, inputs, UNI)


class TestPerfection:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_operators_perfect(self, data):
        name, op_a, op_c, arity = data.draw(st.sampled_from(OPERATORS))
        inputs = data.draw(op_inputs(arity))
        check_perfect(op_a, op_c, inputs, UNI)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_delay_perfect(self, data):
        # top amounts, region gaps, and colliding timeouts can make an
        # output certain across branches the case formulas treat separately;
        # perfection is exact when timeouts cannot collide (soundness always
        # holds; the collision class is pinned in the acceptance module)
        d_vals = st.just(F(2))
        d = data.draw(abstract_streams(values=d_vals, grid=[F(0), F(1), F(2)],
                                       progress_at=F(6), point_gaps_only=True))
        r = data.draw(abstract_streams(values=st.just(UNIT),
                                       grid=[F(0), F(1), F(2)],
                                       progress_at=F(6), point_gaps_only=True))
        check_perfect(A.delay_abs, ops.delay, (d, r),
                      FiniteUniverse.of((F(0), F(1), F(2)), (F(1), F(2))))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_last_time_perfect(self, data):
        v = data.draw(abstract_streams(values=st.just(UNIT), grid=[F(1), F(2)],
                                       progress_at=F(4), point_gaps_only=True))
        r = data.draw(abstract_streams(values=st.just(UNIT),
                                       grid=[F(1), F(2), F(3)],
                                       progress_at=F(4), point_gaps_only=True))
        uni = FiniteUniverse.of(grid=(F(1), F(2), F(3)), values=(UNIT,))

        def last_time_conc(vv, rr):
            return ops.last(ops.time(vv), rr)

        check_perfect(A.last_time_abs, last_time_conc, (v, r), uni,
                      join=lambda a, b: _hull(a, b))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_slift_time_perfect(self, data):
        x = data.draw(abstract_streams(values=st.just(UNIT), grid=[F(1), F(2)],
                                       progress_at=F(4), point_gaps_only=True))
        y = data.draw(abstract_streams(values=st.just(UNIT), grid=[F(2), F(3)],
                                       progress_at=F(4), point_gaps_only=True))
        uni = FiniteUniverse.of(grid=(F(1), F(2), F(3)), values=(UNIT,))
        leq = lookup("leq")

        def conc(a, b):
            return ops.slift(leq.concrete, ops.time(a), ops.time(b))

        def abst(a, b):
            return A.slift_time_abs(leq.abstract_cells, a, b)

        check_perfect(abst, conc, (x, y), uni, join=flat_join)


def _hull(a, b):
    from gapstream.abstract import value_join
    got = value_join(a, b)
    return got


# -- the one-walk signal lift and atom walk against their definitions ---------

HALF_GRID = tuple(F(k, 2) for k in range(17))
SPAN_SHAPES = ["point", "closed", "open", "lo_open", "hi_open", "tail"]
# built once: hypothesis validates and labels each new strategy object, which
# costs more than the draw itself
SPAN_COUNTS = st.integers(0, 3)
SHAPES = st.sampled_from(SPAN_SHAPES)
WIDTHS = st.sampled_from([F(1, 2), F(1), F(2)])


@lru_cache(maxsize=None)
def grid_draws(grid: tuple) -> tuple:
    """The strategies of one time and of up to five distinct times on grid."""
    times = st.sampled_from(grid)
    return times, st.lists(times, unique=True, max_size=5)


@st.composite
def gapped_half_grid_streams(draw, values=st.sampled_from([F(0), F(1), F(2), TOP]),
                             grid=HALF_GRID):
    """Events, gaps and progress on a half-unit grid, with TOP payloads.

    Gaps are points, spans open or closed at either end, and INF tails;
    progress is exclusive, inclusive or infinite.
    """
    time, times = grid_draws(grid)
    kind = draw(PROGRESS_KINDS)
    if kind == "inf":
        prog = Progress.infinite()
    else:
        at = draw(time)
        prog = Pinc(at) if kind == "incl" else Progress.exclusive(at)
    spans = []
    for _ in range(draw(SPAN_COUNTS)):
        lo = draw(time)
        shape = draw(SHAPES)
        hi = lo + draw(WIDTHS)
        if shape == "point":
            spans.append(Span(lo, True, lo, True))
        elif shape == "tail":
            spans.append(Span(lo, draw(st.booleans()), INF, False))
        else:
            spans.append(Span(lo, shape in ("closed", "hi_open"), hi,
                              shape in ("closed", "lo_open")))
    gaps = TimeSet(spans)
    events = [(t, draw(values)) for t in sorted(draw(times))
              if prog.covers(t) and not gaps.contains(t)]
    return AbstractEventStream.of(EventStream.of(events, prog), gaps)


def sum_off_threes_abs(*cells):
    """Sum of the cells, TOP if one is TOP, no event where it is a multiple of 3."""
    if any(c is TOP for c in cells):
        return TOP
    total = sum(cells)
    return BOTTOM if total % 3 == 0 else total


def gap_wins(*cells):
    """GAP if any cell is GAP, else BOTTOM if all are, else TOP."""
    if any(c is GAP for c in cells):
        return GAP
    return BOTTOM if all(c is BOTTOM for c in cells) else TOP


def _atom_points(streams):
    """Sorted 0, ticks, gap boundaries and finite progress times of the streams."""
    pts = {F(0)}
    for s in streams:
        pts.update(s.stream.ticks())
        pts.update(s.gaps.boundaries())
        if not s.progress.is_infinite():
            pts.add(s.progress.time)
    return sorted(pts)


def _atoms(points, prog):
    """Yield (lo, hi, sample, is_point) atoms partitioning the span prog covers.

    Point atoms have lo == hi; open atoms exclude both endpoints and are
    sampled at their midpoint.  The walk stops at the first point prog does
    not cover and ends with the open atom from the last covered point up to
    progress.
    """
    last = None
    for p in points:
        if not prog.covers(p):
            break
        if last is not None:
            yield (last, p, F(last + p, 2), False)
        yield (p, p, p, True)
        last = p
    if last is None:
        last = F(0)
    if prog.is_infinite():
        yield (last, INF, last + 1, False)
    elif last < prog.time:
        yield (last, prog.time, F(last + prog.time, 2), False)


def per_atom_lift_abs(f_abs, *streams):
    """lift_abs as defined atom by atom: each cell looked up at the atom's sample."""
    prog = min(s.progress for s in streams)
    events, gap_spans = [], []
    for lo, hi, sample, is_point in _atoms(_atom_points(streams), prog):
        if is_point:
            out = f_abs(*(s.at(sample) for s in streams))
            if out is GAP:
                gap_spans.append(Span(lo, True, lo, True))
            elif out is not BOTTOM:
                events.append((sample, out))
        else:
            out = f_abs(*(GAP if s.gaps.contains(sample) else BOTTOM for s in streams))
            if out is GAP:
                gap_spans.append(Span(lo, False, hi, False))
    return AbstractEventStream.of(EventStream.of(events, prog), TimeSet(gap_spans))


def synchronized_slift_abs(f_abs, *streams):
    """The paper's abstract signal lift: lift_abs over the synchronized streams."""
    return A.lift_abs(strict_cells(f_abs),
                      *synchronized(streams, A.merge_abs, A.last_abs))


def composite_last_time_abs(v, r):
    """The time-aware last as a composition: last_abs over v's timestamps,
    each TOP replaced by the interval from the latest event's timestamp to
    the end of the gap after it."""
    z = A.last_abs(A.time_abs(v), r)
    events = []
    for t, val in z.stream.events:
        if val is TOP:
            lo = v.stream.last_event_before(t)[0]
            events.append((t, Interval.of(lo, max(lo, v.gaps.free_since(t)))))
        else:
            events.append((t, Interval.single(val)))
    return AbstractEventStream.of(EventStream.of(events, z.progress), z.gaps)


def time_as_intervals(s):
    """time_abs with each timestamp as a point interval."""
    return AbstractEventStream.of(
        EventStream.of([(t, Interval.single(t)) for t in s.stream.ticks()], s.progress),
        s.gaps)


def composite_slift_time_abs(f_abs, x, y):
    """The time-aware signal lift as a composition: each stream's timestamps
    merged with its time-aware last at the other stream's events, where a
    gap on the stream hulls in the tick's own time (encoded._tmerge_cells)."""
    def synced(a, b):
        lt = composite_last_time_abs(a, b)
        return A.lift_abs(_tmerge_cells, time_as_intervals(a), lt, A.time_abs(lt))

    return A.lift_abs(strict_cells(f_abs), synced(x, y), synced(y, x))


class TestSliftAbsWalk:
    """The one-walk slift_abs and lift_abs against their definitions."""

    @given(st.lists(gapped_half_grid_streams(), min_size=1, max_size=3))
    @settings(max_examples=800, deadline=None)
    def test_equals_synchronized_lift(self, streams):
        got = A.slift_abs(sum_off_threes_abs, *streams)
        assert got == synchronized_slift_abs(sum_off_threes_abs, *streams)

    @given(st.lists(gapped_half_grid_streams(), min_size=1, max_size=3),
           st.sampled_from([A.merge_cells, gap_wins, strict_cells(sum_off_threes_abs)]))
    @settings(max_examples=500, deadline=None)
    def test_lift_equals_per_atom_definition(self, streams, f_abs):
        assert A.lift_abs(f_abs, *streams) == per_atom_lift_abs(f_abs, *streams)

    def test_gap_after_event_taints_the_value(self):
        x = astream([(1, F(1))], gaps=[sp(2)], prog=Pinc(6))
        y = astream([(3, F(1)), (4, F(1))], gaps=[sp(5, 6, False, True)], prog=Pinc(6))
        got = A.slift_abs(sum_off_threes_abs, x, y)
        assert got == synchronized_slift_abs(sum_off_threes_abs, x, y)
        assert got.stream.events == ((F(3), TOP), (F(4), TOP))
        assert got.gaps == TimeSet.of(sp(5, 6, False, True))

    def test_gap_before_any_event_is_a_gap(self):
        x = astream([], gaps=[sp(1)], prog=Pinc(4))
        y = astream([(2, F(1))], prog=Pinc(4))
        got = A.slift_abs(sum_off_threes_abs, x, y)
        assert got == synchronized_slift_abs(sum_off_threes_abs, x, y)
        # y has not started at 1, so only the tick at 2 is undetermined
        assert got.stream.events == () and got.gaps == TimeSet.of(sp(2))

    def test_progress_is_the_least(self):
        x = astream([(1, F(1))], prog=Progress.exclusive(2))
        y = astream([(F(1, 2), F(1)), (2, F(1)), (4, F(1))], gaps=[sp(3)])
        for args in ((x, y), (y, x)):
            got = A.slift_abs(sum_off_threes_abs, *args)
            assert got == synchronized_slift_abs(sum_off_threes_abs, *args)
            assert got.progress == Progress.exclusive(2)

    def test_needs_a_stream(self):
        with pytest.raises(OperatorError, match="slift_abs needs at least one stream"):
            A.slift_abs(sum_off_threes_abs)


class TestTimeAwareWalks:
    """last_time_abs and slift_time_abs, the plain walks with the interval
    taint, against their compositions."""

    @given(gapped_half_grid_streams(), gapped_half_grid_streams())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equal_their_compositions(self, x, y):
        leq = lookup("leq").abstract_cells
        for a, b in ((x, y), (y, x)):
            assert A.last_time_abs(a, b) == composite_last_time_abs(a, b)
            for f_abs in (first_cell, leq):
                assert A.slift_time_abs(f_abs, a, b) == composite_slift_time_abs(f_abs, a, b)

    def test_gap_at_the_tick_hulls_in_its_time(self):
        # x ticks at 1, is in a gap at y's tick 3, and is out of it again,
        # the gap ended at 4, at y's tick 5
        x = astream([(1, UNIT)], gaps=[sp(2, 4, False, False)], prog=Pinc(6))
        y = astream([(3, UNIT), (5, UNIT)], prog=Pinc(6))
        got = A.slift_time_abs(first_cell, x, y)
        assert got == composite_slift_time_abs(first_cell, x, y)
        assert got.stream.events == ((F(3), Interval.of(1, 3)), (F(5), Interval.of(1, 4)))


def cut(s, prog):
    """s with its progress lowered to prog (where prog is the lower)."""
    prog = min(s.progress, prog)
    return AbstractEventStream.of(s.stream.truncated(prog), s.gaps)


def is_abstract_prefix(a, b):
    """a decides nothing beyond b's progress, and agrees with b where it decides."""
    return (a.stream.is_prefix(b.stream)
            and b.gaps.intersect(covered_span(a.progress)) == a.gaps)


def first_cell(a, b):
    return a


PREFIX_OPERATORS = {
    "delay_abs": A.delay_abs,
    "delay_abs_fin": A.delay_abs_fin,
    "last_abs": A.last_abs,
    "last_time_abs": A.last_time_abs,
    "lift_abs": lambda a, b: A.lift_abs(gap_wins, a, b),
    "merge_abs": A.merge_abs,
    "slift_abs": lambda a, b: A.slift_abs(first_cell, a, b),
    "slift_time_abs": lambda a, b: A.slift_time_abs(first_cell, a, b),
}


# the operators that resume from their output on prefixes of the arguments
RESUMING_OPERATORS = {
    "time_abs": lambda a, b, **prev: A.time_abs(a, **prev),
    "lift_abs": lambda a, b, **prev: A.lift_abs(gap_wins, a, b, **prev),
    "merge_abs": A.merge_abs,
    "const_abs": lambda a, b, **prev: A.const_abs(F(5))(a, **prev),
    "slift_abs": lambda a, b, **prev: A.slift_abs(first_cell, a, b, **prev),
    "last_abs": A.last_abs,
    "last_abs_bot": A.last_abs_bot,
    "last_time_abs": A.last_time_abs,
    "last_time_abs_bot": A.last_time_abs_bot,
    "last_abs_gap": lambda a, b, **prev: A.last_abs_gap(a, b, A.last_abs_bot(a, b), **prev),
    "slift_time_abs": lambda a, b, **prev: A.slift_time_abs(first_cell, a, b, **prev),
}


def assert_valid(z):
    """z is what the whole-stream validators build from its parts, ticks and all."""
    assert AbstractEventStream.of(z.stream, z.gaps) == z
    assert EventStream.of(z.stream.events, z.progress) == z.stream
    assert z.stream.ticks() == tuple(t for t, _ in z.stream.events)
    return z


def progress_of(kind, at) -> Progress:
    return Progress.infinite() if kind == "inf" else Progress(at, kind == "incl")


class TestResumedRows:
    """last_abs, its gap half and the time-aware rows, resumed from their
    own output on arguments cut at a drawn progress of every kind, give
    what a fresh call gives."""

    @given(gapped_half_grid_streams(), gapped_half_grid_streams(),
           PROGRESS_KINDS, st.sampled_from(HALF_GRID), PROGRESS_KINDS,
           st.sampled_from(HALF_GRID))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_resumed_equals_fresh(self, a, b, kind_a, at_a, kind_b, at_b):
        ca, cb = cut(a, progress_of(kind_a, at_a)), cut(b, progress_of(kind_b, at_b))
        for name in ("last_abs", "last_abs_gap", "last_time_abs", "slift_time_abs"):
            op = RESUMING_OPERATORS[name]
            assert op(a, b, prev=op(ca, cb)) == op(a, b), name


def last_frame_by_set_algebra(v, r):
    """_last_frame's gaps and progress as the whole-set composition it replaced.

    r's gaps are cut to the span after v's start with intersect, then to
    main's covered span, and the point gaps are united by an edge sweep.
    """
    ticks = r.stream.ticks()
    main = r.progress
    cut = bisect_right(ticks, v.progress.time)
    if cut < len(ticks):
        main = min(main, Progress.exclusive(ticks[cut]))
    if not v.gaps.spans and not r.gaps.spans:
        return max(main, A._vbot_extent(v.stream)), TimeSet.empty(), cut
    first_gap = v.gaps.first_point()
    first_event = v.stream.events[0][0] if v.stream.events else INF
    point_gaps = ticks[bisect_right(ticks, first_gap):min(cut, bisect_right(ticks, first_event))]
    vstart = min(first_event, first_gap)
    start = min(vstart, v.progress.time)
    inherited = TimeSet.empty()
    if start is not INF:
        inherited = r.gaps.intersect(TimeSet.of(Span(start, False, INF, False)))
        if vstart is INF and inherited.spans:
            first = inherited.spans[0]
            main = min(main, Progress(first.lo, not first.lo_closed))
    prog = max(main, A._vbot_extent(v.stream, first_gap))
    gaps = inherited.intersect(covered_span(main)).union(A._points(point_gaps))
    return prog, gaps, cut


def stamped(marks):
    """The marks with each event's cell its timestamp, as _marks stamps them."""
    return [(t, c if c is GAP or c is BOTTOM or c is UNKNOWN else Interval.single(t), a)
            for t, c, a in marks]


QUARTER_GRID = tuple(F(k, 4) for k in range(37))


def event_slice_marks(s, since, until):
    """_marks of s, unstamped, built from its events alone, for an s with no gap from since on."""
    ticks = s.stream.ticks()
    out = [(t, v, BOTTOM) for t, v in
           s.stream.events[bisect_left(ticks, since):bisect_right(ticks, until)]]
    head = BOTTOM
    prog = s.progress
    if not prog.is_infinite():
        p = prog.time
        if p < since:
            head = UNKNOWN      # no event lies past the progress
        elif p <= until:
            cell = out.pop()[1] if out and out[-1][0] == p else BOTTOM
            out.append((p, cell if prog.inclusive else UNKNOWN, UNKNOWN))
    if not out or out[0][0] != since:
        out.insert(0, (since, head, head))
    return out


class TestKernels:
    """The bisect kernels give what the general code they stand for gives."""

    @given(gapped_half_grid_streams(), st.booleans(), st.sampled_from(QUARTER_GRID),
           st.sampled_from(QUARTER_GRID + (INF,)), st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_marks_without_gaps_past_since_are_the_event_slice(self, s, drop_gaps,
                                                              since, until, stamp):
        # gap-free, or with every gap ending below since: the quarter grid
        # puts since at a tick, between ticks and past the progress
        spans = s.gaps.spans
        if drop_gaps or spans and spans[-1].hi is INF:
            s = AbstractEventStream(s.stream, TimeSet.empty())
        elif spans:
            since = max(since, spans[-1].hi + F(1, 4))
        until = max(until, since)
        want = event_slice_marks(s, since, until)
        assert A._marks(s, since, until, stamp) == (stamped(want) if stamp else want)

    @given(gapped_half_grid_streams(), gapped_half_grid_streams(),
           PROGRESS_KINDS, st.sampled_from(HALF_GRID))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_last_frame_equals_set_algebra(self, v, r, kind, at):
        cv = cut(v, progress_of(kind, at))
        for a, b in ((v, r), (r, v), (cv, r), (r, cv)):
            assert A._last_frame(a, b) == last_frame_by_set_algebra(a, b)


def atom_lift(f_abs, streams, prev=A._NOTHING):
    """lift_abs resumed from prev by the atom walk alone."""
    prog = min(s.progress for s in streams)
    return A._lift_atoms(f_abs, A._walk(streams, prog, prev.progress.time), prog, prev)


def atom_slift(f_abs, streams, prev=A._NOTHING, taint=None):
    """slift_abs resumed from prev by the synchronized atom walk alone."""
    prog = min(s.progress for s in streams)
    if prog == prev.progress:
        return prev
    since, stamp = prev.progress.time, taint is not None
    state = [list(c) for c in zip(*(A._carried(s, since, stamp) for s in streams))]
    atoms = A._synchronized_atoms(A._walk(streams, prog, since, stamp), state, taint)
    return A._lift_atoms(strict_cells(f_abs), atoms, prog, prev)


def outcome(call):
    """call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


def resumable(streams, shift, at, inclusive):
    """The streams without gap tails and a resume progress at or after at.

    With shift, the resume time lies past every gap, so the resumed lifts
    may take their tick path, and the values with a gap after them are
    tainted there; without, a gap may reach past it.
    """
    streams = [AbstractEventStream(s.stream, TimeSet([g for g in s.gaps.spans
                                                      if g.hi is not INF]))
               for s in streams]
    ends = [s.gaps.spans[-1].hi for s in streams if s.gaps.spans]
    if shift and ends:
        at = max(at, max(ends) + F(1, 4))
    return streams, Progress(at, inclusive)


MERGE_STREAMS = st.one_of(gapped_half_grid_streams(),
                          gapped_half_grid_streams(grid=HALF_GRID[::2]))


def first_event_wins(streams, prev=EventStream.empty()):
    """The concrete merge by the tick walk: the first argument's value at each tick."""
    prog = min(s.progress for s in streams)
    events = []
    for t, cells in A._tick_cells(streams, prev.progress, prog):
        v = next((c for c in cells if c is not BOTTOM), BOTTOM)
        if v is not BOTTOM:
            events.append((t, v))
    return prev.extended(events, prog)


def ticks_only(a, *rest):
    """a's value where it ticks alone, TOP where another stream ticks with it, GAP where a is TOP."""
    if a is TOP:
        return GAP
    if all(c is BOTTOM for c in rest):
        return a
    return BOTTOM if a is BOTTOM else TOP


# lifts that keep all-BOTTOM cells BOTTOM, and ones that do not: an event
# everywhere, an UNKNOWN at a TOP, and a sum that raises on BOTTOM
TICK_LIFTS = [A.merge_cells, gap_wins, strict_cells(sum_off_threes_abs), ticks_only,
              lambda *cells: F(1),
              lambda *cells: UNKNOWN if TOP in cells else BOTTOM,
              lambda *cells: sum(cells) if TOP not in cells else TOP]
# strict signal lifts, with a GAP and an UNKNOWN result at TOP
TICK_SLIFTS = [first_cell, sum_off_threes_abs,
               lambda *cells: GAP if cells[0] is TOP else cells[-1],
               lambda *cells: UNKNOWN if TOP in cells else cells[0]]


class TestTickPath:
    """Resumed lift_abs and slift_abs give what the atom walk composed
    directly gives, result or error, where no argument has a gap past the
    resume point (the tick path) and where one has (the atom walk)."""

    @given(st.lists(gapped_half_grid_streams(), min_size=1, max_size=3), st.booleans(),
           st.sampled_from(QUARTER_GRID), st.booleans(), st.sampled_from(TICK_LIFTS))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_lift_equals_atom_walk(self, streams, shift, at, inclusive, f_abs):
        streams, resume = resumable(streams, shift, at, inclusive)
        prev = outcome(lambda: atom_lift(f_abs, [cut(s, resume) for s in streams]))
        if not isinstance(prev, AbstractEventStream):
            prev = A._NOTHING
        assert (outcome(lambda: A.lift_abs(f_abs, *streams, prev=prev))
                == outcome(lambda: atom_lift(f_abs, streams, prev)))

    @given(st.lists(gapped_half_grid_streams(), min_size=1, max_size=3), st.booleans(),
           st.sampled_from(QUARTER_GRID), st.booleans(), st.sampled_from(TICK_SLIFTS),
           st.sampled_from([None, A._interval_taint]))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_slift_equals_atom_walk(self, streams, shift, at, inclusive, f_abs, taint):
        if taint is not None:
            f_abs = first_cell      # the others read TOP, which stamped values are not
        streams, resume = resumable(streams, shift, at, inclusive)
        prev = outcome(lambda: atom_slift(f_abs, [cut(s, resume) for s in streams],
                                          taint=taint))
        if not isinstance(prev, AbstractEventStream):
            prev = A._NOTHING
        assert (outcome(lambda: A.slift_abs(f_abs, *streams, prev=prev, taint=taint))
                == outcome(lambda: atom_slift(f_abs, streams, prev, taint)))

    @given(st.lists(MERGE_STREAMS, min_size=1, max_size=3), st.booleans(),
           st.sampled_from(QUARTER_GRID), st.booleans())
    @settings(max_examples=600, deadline=None, derandomize=True)
    @example([astream([(0, F(0)), (1, TOP)], prog=Pinc(2)),
              astream([(0, F(1)), (1, F(2)), (F(3, 2), F(1))], prog=Pinc(3))],
             True, F(0), False)
    def test_merge_equals_atom_walk(self, streams, shift, at, inclusive):
        # merge_abs's own k-way pass where no gap meets the window, against
        # merge_cells lifted over the atoms, an oracle that shares no code
        # with it; streams on the whole grid share ticks more often
        streams, resume = resumable(streams, shift, at, inclusive)
        prev = outcome(lambda: atom_lift(A.merge_cells, [cut(s, resume) for s in streams]))
        if not isinstance(prev, AbstractEventStream):
            prev = A._NOTHING
        assert (outcome(lambda: A.merge_abs(*streams, prev=prev))
                == outcome(lambda: atom_lift(A.merge_cells, streams, prev)))

    @given(st.lists(event_streams(), min_size=1, max_size=3), st.sampled_from(GRID),
           st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_concrete_merge_is_first_event_wins(self, streams, at, inclusive):
        resume = Progress(at, inclusive)
        prev = first_event_wins([s.truncated(min(s.progress, resume)) for s in streams])
        assert ops.merge(*streams, prev=prev) == first_event_wins(streams, prev)

    def test_shared_tick_keeps_the_first_arguments_time(self):
        # 1 and Fraction(1) are one tick; the merge keeps the time object of
        # the argument whose event it forwards, as the tick walk did
        prog = Pinc(3)
        a = EventStream.empty(prog).extended([(1, F(10)), (F(3, 2), F(11))], prog)
        b = EventStream.empty(prog).extended([(F(1), F(20)), (2, F(21))], prog)
        for first, second in ((a, b), (b, a)):
            prev = ops.merge(first.truncated(Pinc(1)), second.truncated(Pinc(1)))
            for got in (ops.merge(first, second), ops.merge(first, second, prev=prev),
                        A.merge_abs(first, second).stream):
                want = first_event_wins([first, second])
                assert [(type(t), t, v) for t, v in got.events] == \
                    [(type(t), t, v) for t, v in want.events]
                assert got.events[0][0] is first.events[0][0]
        text = serialize_trace((("m", "Int"),), {"m": ops.merge(b, a)}, 1, prog)
        assert text == "stream m : Int\n1: m = 20\n1.5: m = 11\n2: m = 21\nprogress 3\n"

    def test_gap_free_rows_walk_only_ticks(self, monkeypatch):
        # x's gap ends below the resume point 1
        x = astream([(1, F(1)), (3, TOP)], gaps=[sp(0, F(1, 2))], prog=Pinc(5))
        y = astream([(2, F(2)), (3, F(1))], prog=Pinc(6))
        rows = [A.merge_abs, lambda a, b, **p: A.lift_abs(gap_wins, a, b, **p),
                lambda a, b, **p: A.const_abs(F(5))(a, **p),
                lambda a, b, **p: A.slift_abs(sum_off_threes_abs, a, b, **p),
                lambda a, b, **p: A.slift_time_abs(first_cell, a, b, **p)]
        prevs = [op(cut(x, Pinc(1)), cut(y, Pinc(1))) for op in rows]
        wants = [op(x, y) for op in rows]

        def walk(*args):
            raise AssertionError("the atom walk ran")

        monkeypatch.setattr(A, "_walk", walk)
        for op, prev, want in zip(rows, prevs, wants):
            assert op(x, y, prev=prev) == want

    def test_gap_past_the_window_walks_only_ticks(self, monkeypatch):
        # x's gap at 7 lies past the output's progress, y's 6, so no gap meets
        # the window from the resume point 1 to 6
        x = astream([(1, F(1)), (3, TOP), (5, F(2))], gaps=[sp(7, 8)], prog=Pinc(9))
        y = astream([(2, F(2)), (3, F(1))], prog=Pinc(6))
        rows = [(A.merge_abs, A.merge_cells, atom_lift),
                (lambda a, b, **p: A.lift_abs(gap_wins, a, b, **p), gap_wins, atom_lift),
                (lambda a, b, **p: A.slift_abs(sum_off_threes_abs, a, b, **p),
                 sum_off_threes_abs, atom_slift)]
        cuts = [cut(x, Pinc(1)), cut(y, Pinc(1))]
        prevs = [walk_from(f, cuts) for _, f, walk_from in rows]
        wants = [walk_from(f, [x, y], prev) for (_, f, walk_from), prev in zip(rows, prevs)]

        def walk(*args):
            raise AssertionError("the atom walk ran")

        monkeypatch.setattr(A, "_walk", walk)
        for (op, _, _), prev, want in zip(rows, prevs, wants):
            assert op(x, y, prev=prev) == want

    def test_tick_at_an_inclusive_resume_point_is_carried(self):
        # y's tick at 4 reads x's value from x's tick at 2, which prev,
        # inclusive at 2, already decides
        x = astream([(2, F(1))], prog=Pinc(6))
        y = astream([(1, F(2)), (4, F(2))], prog=Pinc(6))
        prev = A.slift_abs(first_cell, cut(x, Pinc(2)), cut(y, Pinc(2)))
        got = A.slift_abs(first_cell, x, y, prev=prev)
        assert got.stream.events == ((F(2), F(1)), (F(4), F(1)))
        assert got == A.slift_abs(first_cell, x, y)

    def test_non_strict_lift_takes_the_atom_walk(self):
        # an event at every point, as the lift gives up to its point 0
        x = astream([(1, F(1))], prog=Pinc(3))
        prev = A.lift_abs(lambda c: F(1), cut(x, Pinc(0)))
        assert prev.stream.events == ((F(0), F(1)),)
        with pytest.raises(OperatorError, match="event over a region"):
            A.lift_abs(lambda c: F(1), x, prev=prev)


class TestDelayWalk:
    """The operators decide each atom from the inputs up to it, so cut inputs
    give prefixes, and the walk operators resumed from such a prefix give
    the full output.  Every output, resumed or not, is valid as a whole."""

    # one draw feeds the three properties: hypothesis draws cost more than
    # the checks on these small streams
    @given(gapped_half_grid_streams(
               values=st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), TOP, INF])),
           gapped_half_grid_streams(values=st.just(UNIT)),
           st.sampled_from(HALF_GRID), st.booleans(),
           st.sampled_from(HALF_GRID), st.booleans())
    @settings(max_examples=800, deadline=None)
    # r is unknown at a delay event in the cut inputs, and its gap there
    # makes that event a source in the full ones: delay_abs_fin must not
    # decide the region after it
    @example(d=astream([(0, F(1, 2)), (F(1, 2), F(1, 2))]),
             r=astream([], gaps=[sp(0, F(1, 2))]),
             at=F(1), inclusive=False, r_at=F(1, 2), r_inclusive=False)
    @example(d=astream([(F(1, 2), F(1, 2)), (1, F(1, 2))]),
             r=astream([], gaps=[sp(0, 1, False, True)]),
             at=F(8), inclusive=True, r_at=F(1), r_inclusive=False)
    # the fourth holder call takes its checkpoint at 4, where the cut r
    # turns unknown and its sweep goes on to mark the source armed at 7/2
    # undecidable; the last call resumes there and must see that source as
    # it was at the checkpoint
    @example(d=astream([(F(7, 2), F(1))], gaps=[sp(0)]), r=astream([(F(7, 2), UNIT)]),
             at=F(0), inclusive=False, r_at=F(4), r_inclusive=False)
    def test_prefixes_resumes_and_validity(self, d, r, at, inclusive, r_at, r_inclusive):
        # each input is cut at its own progress, and either may be the value
        # or the trigger stream of last
        prog = Pinc(at) if inclusive else Progress.exclusive(at)
        r_prog = Pinc(r_at) if r_inclusive else Progress.exclusive(r_at)
        # each argument pair with its cuts: the first argument cut at prog,
        # the second at r_prog
        cd, cr = cut(d, prog), cut(r, r_prog)
        dr = cut(d, r_prog)
        pairs = (((d, r), (cd, cr)), ((r, d), (cut(r, prog), dr)))
        # growing prefixes of d and r, as the evaluator feeds a holder
        holder_calls = ((cd, cr), (d, r), (cd, cr), (cut(d, max(prog, r_prog)), cr), (d, r))
        self.check_prefixes(d, r, prog, pairs)
        self.check_holder(holder_calls, unrelated=dr)
        self.check_validity(pairs, holder_calls)

    @staticmethod
    def check_prefixes(d, r, prog, pairs):
        for name, op in PREFIX_OPERATORS.items():
            for (a, b), cuts in pairs:
                if name.startswith("delay") and a is r:
                    continue    # a delay takes durations only
                assert is_abstract_prefix(op(*cuts), op(a, b)), name
        for name, op in RESUMING_OPERATORS.items():
            for (a, b), cuts in pairs:
                full = op(a, b)
                assert op(a, b, prev=op(*cuts)) == full, name
                assert op(a, b, prev=full) is full, name
        # the gap half of last finds last_abs's progress and gaps without its walk
        (cd, cr), (rd, _) = (cuts for _, cuts in pairs)
        for a, b in ((d, r), (r, d), (cd, cr), (rd, d)):
            z = A.last_abs(a, b)
            for x in (A.last_abs_bot(a, b), a, b):
                half = A.last_abs_gap(a, b, x)
                assert half.progress == min(z.progress, x.progress)
                assert half.gaps == z.gaps.minus(TimeSet(
                    Span(t, True, t, True) for t in x.ticks())).intersect(
                        covered_span(half.progress))
                assert half.stream.events == x.stream.truncated(half.progress).events
        # up to the least progress, where slift_abs walks, its walk carries
        # into each point atom the state _carried recovers there, so a walk
        # resumed there starts in that state
        state = [[BOTTOM] * 2, [False] * 2, [False] * 2, [0] * 2]
        carried = {}

        def spy(atoms):
            for lo, hi, cells in atoms:
                if hi is None:
                    carried[lo] = tuple(map(tuple, state))
                yield lo, hi, cells

        least = min(d.progress, r.progress)
        for _ in A._synchronized_atoms(spy(A._walk((d, r), least)), state):
            pass
        for t, want in carried.items():
            assert tuple(zip(*(A._carried(s, t) for s in (d, r)))) == want, t
        # a walk from a mark gives the full walk's atoms from that point on,
        # and the marks up to a time are the full marks' head
        full = list(A._walk((d, r), prog))
        starts = {lo: i for i, (lo, hi, _) in enumerate(full) if hi is None}
        for t in {t for s in (d, r) for t, _, _ in A._marks(s)}:
            assert prog.covers(t) == (t in starts)
            want = full[starts[t]:] if t in starts else []
            assert list(A._walk((d, r), prog, t)) == want
            for s in (d, r):
                assert A._marks(s, 0, t) == [m for m in A._marks(s) if m[0] <= t]

    @staticmethod
    def check_holder(holder_calls, unrelated):
        # a holder fed cuts of the same arguments resumes its sweep where the
        # kept checkpoint allows, and every call gives what a call without a
        # holder gives; an unrelated call on another holder changes nothing
        state, other = {}, {}
        for a, b in holder_calls:
            assert A.delay_abs(a, b, state=state) == A.delay_abs(a, b)
            A.delay_abs(unrelated, A.nil_abs(), state=other)

    @staticmethod
    def check_validity(pairs, holder_calls):
        # the outputs, checked only where they are new, resumed through prev
        # or a holder or not, are what the whole-stream validators accept
        for (a, b), (ca, cb) in pairs:
            for x in (a, ca):
                assert_valid(A.time_abs(x))
            assert_valid(A.last_time_abs(a, b))
            assert_valid(A.last_time_abs(ca, cb))
            for op in RESUMING_OPERATORS.values():
                assert_valid(op(a, b, prev=assert_valid(op(ca, cb))))
            for x in (A.last_abs_bot(a, b), a, cb):
                assert_valid(A.last_abs_gap(a, b, x))
                assert_valid(A.last_abs_gap(ca, b, x))
        state = {}
        for a, b in holder_calls:
            bot = assert_valid(A.delay_abs_bot(a, b, state=state))
            for p in (bot, b):
                assert_valid(A.delay_abs_gap(a, b, p, state=state))
            assert_valid(A.delay_abs(a, b, state=state))
            assert_valid(A.delay_abs_fin(a, b, state=state))

    def test_last_waits_for_an_unstarted_value(self):
        # v has not started by its progress, so it may yet start before r's
        # gap [2, 3) and inherit it: the output decides no more than up to 2
        r = astream([(1, F(1))], gaps=[sp(2, 3, True, False)], prog=Pinc(4))
        v = astream([], prog=Progress.exclusive(1))
        later = astream([(1, F(1))], prog=Pinc(4))
        for last in (A.last_abs, A.last_time_abs):
            z = last(v, r)
            assert z.progress == Progress.exclusive(2) and z.gaps.is_empty()
            assert last(later, r).gaps == TimeSet.of(sp(2, 3, True, False))
            assert is_abstract_prefix(z, last(later, r))

    def test_fin_promotes_past_the_last_feature(self):
        # the timeout at 7/2 of the source at 3/2 lies after every input feature
        r = astream([], gaps=[Span(F(0), False, INF, False)])
        for p in (4, 10):
            d = astream([(F(3, 2), F(3, 2)), (3, F(2))], prog=Progress.exclusive(p))
            assert A.delay_abs_fin(d, r).at(F(7, 2)) is GAP


class TestDelayHolder:
    """A holder fed growing prefixes of its two streams gives at every call
    what a call without one gives, whether the call skips its sweep,
    resumes it or restarts it."""

    @given(gapped_half_grid_streams(values=st.sampled_from(
               [F(1, 2), F(1), F(3, 2), F(2), TOP, INF,
                Interval.single(F(1)), Interval.of(F(1, 2), F(3, 2))])),
           gapped_half_grid_streams(values=st.just(UNIT)),
           st.lists(st.tuples(st.sampled_from(HALF_GRID),
                              st.sampled_from([None, "excl", "incl"])), max_size=6))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_held_calls_give_what_fresh_calls_give(self, d, r, steps):
        # each step raises d's progress to <u and then to <=u with r the same
        # object, the order last(cur, tick) raises it in, after raising r's
        # progress to u or not; where r lags d, the sources d arms past r's
        # progress are undecidable
        cr = cut(r, Progress.exclusive(0))
        calls = []
        for u, r_kind in sorted(steps, key=lambda step: step[0]):
            if r_kind is not None:
                cr = cut(r, max(cr.progress, Progress(u, r_kind == "incl")))
            calls += [(cut(d, Progress.exclusive(u)), cr), (cut(d, Pinc(u)), cr)]
        calls += [(d, cr), (d, r)]
        # the second holder gets a new wrapper of r's stream and gaps on
        # every call, as the concrete delay passes them
        state, wrapped = {}, {}
        for a, b in calls:
            fresh = A.delay_abs(a, b)
            for held in (A.delay_abs(a, b, state=state),
                         A.delay_abs(a, AbstractEventStream(b.stream, b.gaps), state=wrapped)):
                assert held.stream.events == fresh.stream.events
                assert held.progress == fresh.progress
                assert held.gaps == fresh.gaps
                assert_valid(held)


class TestExtended:
    """_extended, the checked extension the resumed lifts build their output
    with, checks what it appends as AbstractEventStream.of would."""

    prev = astream([(1, F(1))], gaps=[sp(2, 3, True, False)], prog=Pinc(3))

    def test_appends_events_and_gaps(self):
        got = A._extended(self.prev, [(4, F(2))], [sp(1, 2, False, False), sp(5, 6)], Pinc(6))
        assert got == astream([(1, F(1)), (4, F(2))],
                              gaps=[sp(1, 3, False, False), sp(5, 6)], prog=Pinc(6))

    @pytest.mark.parametrize("events, spans", [
        ([(F(5, 2), F(2))], []),            # in one of prev's gaps
        ([(5, F(2))], [sp(4, 6)]),          # in an appended gap
    ])
    def test_event_inside_a_gap(self, events, spans):
        with pytest.raises(OperatorError, match="inside a gap"):
            A._extended(self.prev, events, spans, Pinc(6))

    @pytest.mark.parametrize("events", [
        [(1, F(2))],                        # at prev's last tick
        [(5, F(2)), (4, F(2))],
    ])
    def test_event_out_of_order(self, events):
        with pytest.raises(OperatorError, match="strictly increase"):
            A._extended(self.prev, events, [], Pinc(6))

    def test_event_beyond_the_progress(self):
        with pytest.raises(OperatorError, match="beyond progress"):
            A._extended(self.prev, [(7, F(2))], [], Pinc(6))

    @pytest.mark.parametrize("span", [sp(1, 4, True, False), sp(0, 4)])
    def test_gap_over_an_earlier_event(self, span):
        with pytest.raises(OperatorError, match="reaches over the event at 1"):
            A._extended(self.prev, [], [span], Pinc(6))


def window_trace(n: int) -> str:
    """A queue trace of n loads, one every three time units, every fifth lost to a gap."""
    lines = ["stream load : Real"]
    for i in range(n):
        t = 3 * i + 1
        if i % 5 == 2:
            lines += [f"{t}: gap load", f"{t + 1}: known load"]
        else:
            lines.append(f"{t}: load = 0.{1 + i % 9}")
    return "\n".join(lines + [f"progress {3 * n + 2}"]) + "\n"


class TestSliftAtomCount:
    """slift_abs walks from its previous output's progress, so the atoms it
    synchronizes grow with the trace, not with the trace times the sweeps."""

    def test_atoms_grow_about_linearly(self, monkeypatch):
        atoms = []
        synchronized_atoms = A._synchronized_atoms

        def counting(*args):
            for atom in synchronized_atoms(*args):
                atoms.append(1)
                yield atom

        monkeypatch.setattr(A, "_synchronized_atoms", counting)
        graph = flatten(unroll(abstractify(parse_spec(spec_text("queue")))))
        counts = []
        for n in (10, 20):
            atoms.clear()
            evaluate_fixpoint(graph, parse_trace(window_trace(n)).streams)
            counts.append(len(atoms))
        assert counts[1] <= 2.5 * counts[0], counts


SHORT_GRID = HALF_GRID[:7]      # 0 to 3
SHORT_UNI = FiniteUniverse.of(grid=(F(0), F(1), F(2), F(3)), values=(F(1), F(2)))


class TestDelaySoundness:
    """Both abstract delays cover every concretization, whatever each input's progress.

    A concretization's delay c may decide less than the abstract output z,
    because a gap is final and covers every completion of c.  So z cut at
    c's progress represents c, and past c's progress z is all gap (and so
    holds no event).  enumeration.check_sound asks for z's progress to be
    at most c's and does not fit here.
    """

    @given(gapped_half_grid_streams(values=st.sampled_from([F(1, 2), F(1), F(3, 2), TOP, INF]),
                                    grid=SHORT_GRID),
           gapped_half_grid_streams(values=st.just(UNIT), grid=SHORT_GRID))
    @settings(max_examples=150, deadline=None)
    def test_sound_under_unequal_progress(self, d, r):
        image = image_streams(ops.delay, (d, r), SHORT_UNI)
        for z in (A.delay_abs(d, r), A.delay_abs_fin(d, r)):
            for c in image:
                if z.progress <= c.progress:
                    assert member_of_gamma(c, z)
                else:
                    assert member_of_gamma(c, cut(z, c.progress))
                    past = covered_span(z.progress).minus(covered_span(c.progress))
                    assert past.minus(z.gaps).is_empty()
