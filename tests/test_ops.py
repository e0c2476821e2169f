"""Concrete operators against worked examples and the literal-formula oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PROGRESS_KINDS, check_against_oracle, delay_amount_streams,
                      event_streams, oracle_delay, oracle_last, unit_streams)
from gapstream import ops
from gapstream.encoded import synchronized
from gapstream.errors import OperatorError
from gapstream.streams import EventStream, Progress
from gapstream.values import BOTTOM, TOP, UNIT, UNKNOWN
from test_streams import _linear_at, _probe_times


def ev(*pairs, prog=None):
    return EventStream.of(pairs, prog if prog is not None else Progress.infinite())


def bump(v):
    return BOTTOM if v is BOTTOM else v + 1


class TestNilUnit:
    def test_nil(self):
        assert ops.nil() == EventStream.of([], Progress.infinite())
        assert ops.nil().ticks() == ()

    def test_unit(self):
        assert ops.unit() == ev((0, UNIT))

    def test_time_of_unit(self):
        assert ops.time(ops.unit()) == ev((0, F(0)))

    def test_zero_stream(self):
        assert ops.const(F(0))(ops.unit()) == ev((0, F(0)))

    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_merge_nil_identity(self, s):
        assert ops.merge(ops.nil(), s) == s
        assert ops.merge(s, ops.nil()) == s


class TestTime:
    def test_maps_to_timestamps(self):
        s = ev((1, F(3)), (F("2.3"), F(2)))
        assert ops.time(s) == ev((1, F(1)), (F("2.3"), F("2.3")))

    def test_nil(self):
        assert ops.time(ops.nil()) == ops.nil()

    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, s):
        assert ops.time(ops.time(s)) == ops.time(s)

    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_preserves_ticks_exactly(self, s):
        assert ops.time(s).ticks() == s.ticks()


class TestLift:
    def test_increment_of_last(self):
        last = ev((2, F(0)), (4, F(1)))
        assert ops.lift(bump, last) == ev((2, F(1)), (4, F(2)))

    def test_no_events_from_bottoms(self):
        assert ops.lift(bump, ops.nil()).events == ()

    def test_merge_prioritizes_first(self):
        a = ev((1, "a"))
        b = ev((1, "b"))
        assert ops.merge(a, b) == ev((1, "a"))

    @given(event_streams(), event_streams())
    @settings(max_examples=80, deadline=None)
    def test_ticks_within_union(self, a, b):
        out = ops.lift(lambda x, y: x if x is not BOTTOM else y, a, b)
        assert set(out.ticks()) <= set(a.ticks()) | set(b.ticks())


class TestLast:
    def test_iteration_example(self):
        v = EventStream.of([(0, F(0)), (2, F(1)), (4, F(2))], Progress.infinite())
        r = ev((2, UNIT), (4, UNIT))
        assert ops.last(v, r) == ev((2, F(0)), (4, F(1)))

    def test_no_triggers(self):
        v = ev((1, F(5)))
        out = ops.last(v, ops.nil())
        assert out.events == () and out.progress.is_infinite()

    def test_trigger_before_first_value(self):
        v = ev((5, F(1)))
        r = ev((2, UNIT))
        assert ops.last(v, r).at(2) is BOTTOM

    @given(event_streams(), unit_streams())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, v, r):
        cells, pts = oracle_last(v, r)
        check_against_oracle(ops.last(v, r), cells, pts)

    @given(event_streams(), unit_streams())
    @settings(max_examples=80, deadline=None)
    def test_ticks_subset_of_triggers(self, v, r):
        assert set(ops.last(v, r).ticks()) <= set(r.ticks())


_PREFIX_TIMES = st.lists(st.sampled_from([F(k, 2) for k in range(15)]), max_size=3)


class TestDelay:
    def test_single_delay_fires(self):
        d = ev((1, F(2)))
        r = ev((1, UNIT))
        out = ops.delay(d, r)
        assert (F(3), UNIT) in out.events

    def test_reset_cancels(self):
        d = ev((1, F(2)))
        r = ev((1, UNIT), (2, UNIT))
        out = ops.delay(d, r)
        assert out.at(3) is BOTTOM

    def test_self_arming_chain(self):
        # an output event can itself arm the next delay
        d = ev((1, F(2)), (3, F(2)), (5, F(2)))
        r = ev((1, UNIT))
        out = ops.delay(d, r)
        assert (F(3), UNIT) in out.events and (F(5), UNIT) in out.events

    def test_rejects_bad_amounts(self):
        with pytest.raises(OperatorError):
            ops.delay(ev((1, F(0))), ev((1, UNIT)))
        with pytest.raises(OperatorError):
            ops.delay(ev((1, TOP)), ev((1, UNIT)))

    def test_nil_reset_keeps_quiet(self):
        out = ops.delay(ev((1, F(2))), ops.nil())
        assert out.events == () and out.progress.is_infinite()

    @given(delay_amount_streams(), unit_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, d, r):
        cells, pts = oracle_delay(d, r)
        check_against_oracle(ops.delay(d, r), cells, pts)

    @given(delay_amount_streams(), unit_streams(), _PREFIX_TIMES, _PREFIX_TIMES,
           st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_one_holder_over_growing_prefixes(self, d, r, d_cuts, r_cuts, inclusive):
        # a holder resumes its sweep from the last call on shorter prefixes
        state = {}
        d_progs = sorted(Progress(t, i) for t, i in zip(d_cuts, inclusive[:3]))
        r_progs = sorted(Progress(t, i) for t, i in zip(r_cuts, inclusive[3:]))
        steps = max(len(d_progs), len(r_progs))
        d_progs += [d.progress] * (steps + 1 - len(d_progs))
        r_progs += [r.progress] * (steps + 1 - len(r_progs))
        for pd, pr in zip(d_progs, r_progs):
            dk = d.truncated(min(d.progress, pd))
            rk = r.truncated(min(r.progress, pr))
            assert ops.delay(dk, rk, state=state) == ops.delay(dk, rk)


class TestSlift:
    def test_hand_evaluated_synchronization(self):
        x = ev((1, F(1)))
        y = ev((2, F(2)))
        out = ops.slift(lambda a, b: a + b, x, y)
        assert out == ev((2, F(3)))

    def test_fig1_cond_row(self):
        vals = ev((1, F(3)), (F("2.3"), F(2)), (F("3.7"), F(4)), (F("4.6"), F(7)),
                  (F("5.8"), F(3)), (F("7.5"), F(1)), (F("8.3"), F(3)),
                  prog=Progress.inclusive_at(9))
        resets = ev((1, UNIT), (7, UNIT), prog=Progress.inclusive_at(9))
        cond = ops.slift(lambda a, b: a <= b, ops.time(vals), ops.time(resets))
        want = [(F(1), True), (F("2.3"), False), (F("3.7"), False),
                (F("4.6"), False), (F("5.8"), False), (F(7), True),
                (F("7.5"), False), (F("8.3"), False)]
        assert list(cond.events) == want

    def test_merge_via_slift_table(self):
        # one input still event-less: no output yet
        x = ev((1, F(1)))
        y = EventStream.of([], Progress.infinite())
        out = ops.slift(lambda a, b: a + b, x, y)
        assert out.events == ()


HALF_GRID = [F(k, 2) for k in range(17)]
_HALF_POINTS = st.sampled_from(HALF_GRID)
_HALF_TIMES = st.lists(_HALF_POINTS, unique=True, max_size=5)
_SMALL_INTS = st.integers(-2, 3)


@st.composite
def half_grid_streams(draw):
    """Up to five events on a half-unit grid under a progress drawn anywhere on it."""
    kind = draw(PROGRESS_KINDS)
    if kind == "inf":
        prog = Progress.infinite()
    else:
        at = draw(_HALF_POINTS)
        prog = Progress.inclusive_at(at) if kind == "incl" else Progress.exclusive(at)
    times = sorted(draw(_HALF_TIMES))
    return EventStream.of([(t, F(draw(_SMALL_INTS))) for t in times
                           if prog.covers(t)], prog)


def synchronized_slift(f, *streams):
    """The paper's signal lift: lift of the strict f over the synchronized streams."""
    def strict(*vals):
        return BOTTOM if any(v is BOTTOM for v in vals) else f(*vals)

    return ops.lift(strict, *synchronized(streams, ops.merge, ops.last))


def sum_off_threes(*vals):
    total = sum(vals)
    return BOTTOM if total % 3 == 0 else total


class TestSliftWalk:
    """The one-walk slift against its specification, the synchronized lift."""

    @given(st.lists(half_grid_streams(), min_size=1, max_size=3))
    @settings(max_examples=600, deadline=None)
    def test_equals_synchronized_lift(self, streams):
        got = ops.slift(sum_off_threes, *streams)
        want = synchronized_slift(sum_off_threes, *streams)
        assert got.events == want.events
        assert got.progress == want.progress

    def test_progress_below_another_arguments_ticks(self):
        x = ev((1, F(1)), prog=Progress.exclusive(2))
        y = ev((F(1, 2), F(1)), (2, F(1)), (4, F(1)))
        got = ops.slift(sum_off_threes, x, y)
        assert got == synchronized_slift(sum_off_threes, x, y)
        assert got == ev((1, F(2)), prog=Progress.exclusive(2))

    def test_needs_a_stream(self):
        with pytest.raises(OperatorError):
            ops.slift(sum_off_threes)

    def test_unknown_result_is_an_error(self):
        with pytest.raises(OperatorError):
            ops.slift(lambda a, b: UNKNOWN, ev((1, F(1))), ev((1, F(2))))


def truncate(s: EventStream, prog: Progress) -> EventStream:
    return s.truncated(min(s.progress, prog))


UNARY = [("time", lambda s: ops.time(s)),
         ("lift", lambda s: ops.lift(bump, s))]
BINARY = [("merge", lambda a, b: ops.merge(a, b)),
          ("last", lambda a, b: ops.last(a, b)),
          ("slift", lambda a, b: ops.slift(lambda x, y: x + y, a, b))]


class TestMonotoneFutureIndependent:
    @given(event_streams(), event_streams(),
           st.sampled_from([F(1), F(2), F(3), F(4)]), st.sampled_from(BINARY))
    @settings(max_examples=300, deadline=None)
    def test_prefix_monotone(self, a, b, cut, named):
        _, op = named
        full = op(a, b)
        pa = truncate(a, Progress.exclusive(cut))
        pb = truncate(b, Progress.exclusive(cut))
        part = op(pa, pb)
        assert part.is_prefix(full), f"{named[0]} not monotone at cut {cut}"

    @given(event_streams(), event_streams(), st.sampled_from(BINARY))
    @settings(max_examples=150, deadline=None)
    def test_future_independent(self, a, b, named):
        _, op = named
        out = op(a, b)
        prog = out.progress
        # extending the inputs never changes the already-decided prefix
        ext_a = EventStream.of(a.events, Progress.infinite()) \
            if not a.progress.is_infinite() and not a.events else a
        out2 = op(ext_a, b)
        assert truncate(out2, prog).events == out.events


CONCRETE_ROWS = [("time", lambda a, b, d: ops.time(a)),
                 ("lift", lambda a, b, d: ops.lift(bump, a)),
                 ("merge", lambda a, b, d: ops.merge(a, b)),
                 ("const", lambda a, b, d: ops.const(F(7))(b)),
                 ("slift", lambda a, b, d: ops.slift(lambda x, y: x + y, a, b)),
                 ("last", lambda a, b, d: ops.last(a, b)),
                 ("delay", lambda a, b, d: ops.delay(d, b))]


class TestTrustedOutputs:
    """Every concrete row builds what EventStream.of would, with its ticks carried."""

    @given(event_streams(), event_streams(), event_streams(values=st.integers(1, 3)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_every_row(self, a, b, d):
        for name, op in CONCRETE_ROWS:
            out = op(a, b, d)
            assert out.ticks() == tuple(t for t, _ in out.events), name
            assert EventStream.of(out.events, out.progress) == out, name
            for t in _probe_times(out):
                assert out.at(t) == _linear_at(out, t), (name, t)


_CUTS = st.tuples(PROGRESS_KINDS, st.sampled_from([F(k, 2) for k in range(15)]))
RESUMING_ROWS = [("time", lambda a, b, **kw: ops.time(a, **kw)),
                 ("lift", lambda a, b, **kw: ops.lift(bump, a, **kw)),
                 ("merge", lambda a, b, **kw: ops.merge(a, b, **kw)),
                 ("const", lambda a, b, **kw: ops.const(F(7))(b, **kw)),
                 ("slift", lambda a, b, **kw: ops.slift(lambda x, y: x + y, a, b, **kw)),
                 ("last", lambda a, b, **kw: ops.last(a, b, **kw))]


def cut_at(s: EventStream, cut) -> EventStream:
    kind, at = cut
    return truncate(s, Progress.infinite() if kind == "inf" else Progress(at, kind == "incl"))


class TestResume:
    """Every resuming concrete row, resumed from its own output on cut
    arguments, gives what a fresh call gives."""

    @given(event_streams(), event_streams(), _CUTS, _CUTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_resumed_equals_fresh(self, a, b, cut_a, cut_b):
        pa, pb = cut_at(a, cut_a), cut_at(b, cut_b)
        for name, op in RESUMING_ROWS:
            resumed = op(a, b, prev=op(pa, pb))
            assert resumed == op(a, b), name
            assert resumed.ticks() == tuple(t for t, _ in resumed.events), name
