"""TimeSet against a point-sampling oracle; the order of times and progress.

Spans are drawn on a half-unit grid, so every boundary is a multiple of 1/2
and sampling at every quarter unit visits each boundary point and the open
stretch on either side of it.  The oracle reads the raw span tuples with its
own comparisons; it shares no code with the edge sweep.
"""

import copy
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gapstream.streams import Progress
from gapstream.timeline import INF, NEG_INF, Span, TimeSet

F = Fraction

# boundaries reach at most 6 + 3; sample a unit past that
SAMPLES = [F(k, 4) for k in range(41)]


@st.composite
def raw_spans(draw):
    lo = F(draw(st.integers(0, 12)), 2)
    kind = draw(st.sampled_from(["point", "finite", "tail"]))
    if kind == "point":
        return (lo, True, lo, True)
    lo_closed = draw(st.booleans())
    if kind == "tail":
        return (lo, lo_closed, INF, False)
    return (lo, lo_closed, lo + F(draw(st.integers(1, 6)), 2), draw(st.booleans()))


span_lists = st.lists(raw_spans(), max_size=6)


@st.composite
def separate_spans(draw):
    """3 to 10 spans that stay apart: a point or a half-unit span at distinct whole units."""
    out = []
    for k in sorted(draw(st.lists(st.integers(0, 9), min_size=3, max_size=10, unique=True))):
        if draw(st.booleans()):
            out.append((F(k), True, F(k), True))
        else:
            out.append((F(k), draw(st.booleans()), k + F(1, 2), draw(st.booleans())))
    return out


@st.composite
def windows(draw):
    """(lo, lo_closed, hi, hi_closed) on the half-unit grid, hi INF or below lo too."""
    lo = F(draw(st.integers(0, 12)), 2)
    if draw(st.integers(0, 4)) == 0:
        return (lo, draw(st.booleans()), INF, False)
    return (lo, draw(st.booleans()), F(draw(st.integers(0, 18)), 2), draw(st.booleans()))


def build(raw):
    return TimeSet(Span(*r) for r in raw)


def raw_of(ts):
    return [(s.lo, s.lo_closed, s.hi, s.hi_closed) for s in ts.spans]


def member(raw, t):
    return any((lo < t or (lo_c and lo == t))
               and (hi is INF or t < hi or (hi_c and t == hi))
               for lo, lo_c, hi, hi_c in raw)


def assert_canonical(ts):
    for a, b in zip(ts.spans, ts.spans[1:]):
        assert a.hi is not INF
        assert a.hi < b.lo or (a.hi == b.lo and not a.hi_closed and not b.lo_closed)


def assert_samples(ts, pred):
    assert_canonical(ts)
    got = raw_of(ts)
    for t in SAMPLES:
        assert member(got, t) == pred(t), t


def brute_free_since(raw, t):
    """Walk down from t in quarter steps while (u, t) stays outside the set."""
    u = t
    while u > 0 and not member(raw, u - F(1, 8)) and (u == t or not member(raw, u)):
        u -= F(1, 4)
    return u


class TestOracle:
    @given(span_lists)
    @settings(max_examples=300, deadline=None)
    def test_constructor_normalizes(self, raw):
        ts = build(raw)
        assert_samples(ts, lambda t: member(raw, t))
        assert TimeSet(Span(*r) for r in reversed(raw)) == ts
        assert build(raw + raw) == ts

    @given(span_lists, span_lists)
    @settings(max_examples=300, deadline=None)
    def test_union_intersect_minus(self, ra, rb):
        a, b = build(ra), build(rb)
        assert_samples(a.union(b), lambda t: member(ra, t) or member(rb, t))
        assert_samples(a.intersect(b), lambda t: member(ra, t) and member(rb, t))
        assert_samples(a.minus(b), lambda t: member(ra, t) and not member(rb, t))

    @given(separate_spans(), raw_spans())
    @settings(max_examples=200, deadline=None)
    def test_intersect_with_one_span(self, ra, window):
        # a single span cuts many: only the spans at its two ends are swept
        w = build([window])
        assert_samples(build(ra).intersect(w), lambda t: member(ra, t) and member([window], t))

    @given(st.one_of(span_lists, separate_spans()), windows())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_window_is_intersect(self, ra, window):
        # the window may be empty: hi below lo, or one open point
        got = build(ra).window(*window)
        assert_samples(got, lambda t: member(ra, t) and member([window], t))
        lo, lo_closed, hi, hi_closed = window
        if lo < hi or lo == hi and lo_closed and hi_closed:
            # the same set as the edge sweeps give it
            assert got == build(ra).minus(build([window]).complement())
        else:
            assert got.is_empty()

    @given(span_lists)
    @settings(max_examples=200, deadline=None)
    def test_complement(self, raw):
        assert_samples(build(raw).complement(), lambda t: not member(raw, t))

    @given(span_lists)
    @settings(max_examples=200, deadline=None)
    def test_contains(self, raw):
        ts = build(raw)
        assert [ts.contains(t) for t in SAMPLES] == [member(raw, t) for t in SAMPLES]

    @given(span_lists)
    @settings(max_examples=200, deadline=None)
    def test_first_point(self, raw):
        expected = min((r[0] for r in raw), default=INF)
        assert build(raw).first_point() == expected

    @given(span_lists)
    @settings(max_examples=200, deadline=None)
    def test_free_since(self, raw):
        ts = build(raw)
        for t in SAMPLES:
            assert ts.free_since(t) == brute_free_since(raw, t), t


class TestStructuralEquality:
    @given(span_lists, span_lists)
    @settings(max_examples=200, deadline=None)
    def test_equal_sets_compare_equal(self, ra, rb):
        a, b = build(ra), build(rb)
        assert a.union(b) == b.union(a)
        assert a.intersect(b) == b.intersect(a)
        assert a.minus(b).union(a.intersect(b)) == a
        assert hash(a.complement().complement()) == hash(a)


# -- the order of times --------------------------------------------------------

ext_values = st.one_of(st.sampled_from([INF, NEG_INF]),
                       st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))


def rank(x):
    """The intended order, written out: NEG_INF, then the rationals, then INF."""
    if x is NEG_INF:
        return (0, 0)
    if x is INF:
        return (2, 0)
    return (1, x)


class TestOrder:
    @given(ext_values, ext_values)
    @settings(max_examples=200, deadline=None)
    def test_comparisons_agree_with_rank(self, a, b):
        assert (a < b) == (rank(a) < rank(b))
        assert (a <= b) == (rank(a) <= rank(b))
        assert (a > b) == (rank(a) > rank(b))
        assert (a >= b) == (rank(a) >= rank(b))
        assert (a == b) == (rank(a) == rank(b))
        assert (a != b) == (rank(a) != rank(b))

    @given(st.lists(ext_values, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_min_max_sorted_agree_with_rank(self, xs):
        assert rank(min(xs)) == min(map(rank, xs))
        assert rank(max(xs)) == max(map(rank, xs))
        assert [rank(x) for x in sorted(xs)] == sorted(map(rank, xs))

    @given(st.sampled_from([INF, F(0), F(1, 2), F(3)]), st.booleans(),
           st.sampled_from([INF, F(0), F(1, 2), F(3)]), st.booleans())
    def test_progress_order_is_the_old_key(self, t, inc, u, inc2):
        def key(p):
            # exclusive at t sorts below inclusive at t
            return (1, 0, False) if p.time is INF else (0, p.time, p.inclusive)

        # infinite progress is never inclusive
        p = Progress(t, inc and t is not INF)
        q = Progress(u, inc2 and u is not INF)
        assert (p <= q) == (key(p) <= key(q))
        assert (p < q) == (key(p) < key(q))
        assert min(p, q) == (p if key(p) <= key(q) else q)
        assert max(p, q) == (q if key(p) <= key(q) else p)

    def test_copies_keep_identity(self):
        for inf in (INF, NEG_INF):
            assert copy.copy(inf) is inf
            assert copy.deepcopy(inf) is inf
            assert copy.deepcopy([inf, (inf,)])[1][0] is inf
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(inf, protocol)) is inf
        assert repr(INF) == "inf" and repr(NEG_INF) == "-inf"
