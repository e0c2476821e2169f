"""Shared test helpers: independent oracles and random stream generators.

The dense oracle evaluates the operator case formulas literally, with
quantifiers ranging over a sample set (all feature points plus midpoints),
using three-valued logic so insufficient progress shows up as unknown.
It is deliberately slow and structure-free: an independent check of the
engine's interval-based algorithms, not a copy of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from gapstream import functions
from gapstream.abstract import AbstractEventStream, value_leq
from gapstream.streams import EventStream, Progress
from gapstream.timeline import INF, Span, TimeSet
from gapstream.values import BOTTOM, GAP, TOP, UNIT, UNKNOWN, value_eq

F = Fraction


def reverse_chain_spec(n: int, base: str = "lift(inc)(x)") -> str:
    """A chain a0 <- a1 <- ... <- an of lift(inc), declared last link first."""
    lines = ["in x : Events[Int]"]
    lines += [f"def a{i} := lift(inc)(a{i - 1})" for i in range(n, 0, -1)]
    lines += [f"def a0 := {base}", f"out a{n}"]
    return "\n".join(lines) + "\n"


# a time-aware last(time(t), r) on a recursive cycle, with a gap on r
# between its ticks at 1 and 5; its full trace has the tick at 3 the gap hides
RECURSIVE_LAST_TIME = ("in r : Events[Unit]\n"
                       "def t := merge(last(time(t), r), const(0)(r))\nout t\n")
RECURSIVE_LAST_TIME_GAPPED = ("stream r : Unit\n1: r = ()\n3: gap r\n4: known r\n"
                              "5: r = ()\nprogress 8\n")
RECURSIVE_LAST_TIME_FULL = "stream r : Unit\n1: r = ()\n3: r = ()\n5: r = ()\nprogress 8\n"


def period_trace(n: int, lost: bool = True) -> str:
    """A variable-period trace of n periods 2, 3, 4, 5, 2, ..., every fifth lost to a gap if lost."""
    lines = ["stream period : Int"]
    t = 1
    for i in range(n):
        v = 2 + i % 4
        if lost and i % 5 == 2:
            lines += [f"{t}: gap period", f"{t + 1}: known period"]
        else:
            lines.append(f"{t}: period = {v}")
        t += 3 * v + 1
    return "\n".join(lines + [f"progress {t}"]) + "\n"


@contextmanager
def interval_path():
    """Abstract value functions compute on intervals, as without their fast paths."""
    exact = functions._exact
    functions._exact = lambda x: None
    try:
        yield
    finally:
        functions._exact = exact


# -- three-valued helpers -----------------------------------------------------

def t_and(*vals):
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def t_or(*vals):
    if any(v is True for v in vals):
        return True
    if any(v is None for v in vals):
        return None
    return False


def t_forall(pred, items):
    return t_and(*[pred(x) for x in items]) if items else True


def t_exists(pred, items):
    return t_or(*[pred(x) for x in items]) if items else False


def feature_points(*streams, extra=()):
    """Times where any involved stream can change kind."""
    base = {F(0)}
    for s in streams:
        base.update(s.ticks())
        if not s.progress.is_infinite():
            base.add(s.progress.time)
    base.update(extra)
    top = max(base)
    base.update((top + 1, top + 2))
    return sorted(base)


def sample_points(*streams, extra=()):
    """Feature points plus a representative inside each gap between them."""
    feats = feature_points(*streams, extra=extra)
    out = list(feats)
    for a, b in zip(feats, feats[1:]):
        out.append(F(a + b, 2))
    return sorted(set(out))


def points_below(feats, t):
    """Exact sample of [0, t): features below plus region representatives."""
    fs = [f for f in feats if f < t]
    seq = fs + [t]
    out = set(fs)
    for a, b in zip(seq, seq[1:]):
        if b > a:
            out.add(F(a + b, 2))
    return sorted(out)


def points_between(feats, lo, hi):
    """Exact sample of the open interval (lo, hi)."""
    fs = [f for f in feats if lo < f < hi]
    seq = [lo] + fs + [hi]
    out = set(fs)
    for a, b in zip(seq, seq[1:]):
        if b > a:
            out.add(F(a + b, 2))
    return sorted(out)


class RegionMap:
    """Piecewise lookup for oracle outputs keyed by sample points."""

    def __init__(self, feats):
        self.feats = feats
        self.cells = {}

    def set(self, t, val):
        self.cells[t] = val

    def get(self, t):
        if t in self.cells:
            return self.cells[t]
        # representative of the feature region containing t
        lo = max((f for f in self.feats if f <= t), default=F(0))
        his = [f for f in self.feats if f > t]
        if not his:
            return self.cells.get(self.feats[-1], ("unknown",))
        mid = F(lo + his[0], 2)
        return self.cells.get(mid, ("unknown",))


def cell_eq(a, b) -> bool:
    if a in (BOTTOM, UNKNOWN, GAP) or b in (BOTTOM, UNKNOWN, GAP):
        return a is b
    return value_eq(a, b)


# -- dense oracle for the concrete last -----------------------------------

def _is_bottom(cell):
    if cell is UNKNOWN:
        return None
    return cell is BOTTOM


def oracle_last(v: EventStream, r: EventStream):
    """Pointwise literal evaluation of the last operator's case formulas."""
    feats = feature_points(v, r)
    pts = sample_points(v, r)
    z = RegionMap(feats)

    for t in pts:
        below = points_below(feats, t)
        start = max((f for f in feats if f <= t), default=F(0))
        decided = points_below(feats, start) + ([start] if start < t else [])
        r_cell = r.at(t)
        case_val = None
        if r_cell not in (BOTTOM, UNKNOWN):
            cands = [(tp, d) for tp, d in v.events if tp < t]
            if cands:
                tp, d = cands[-1]
                got = t_forall(lambda x: _is_bottom(v.at(x)),
                               points_between(feats, tp, t))
                if got is True:
                    case_val = ("event", d)
                elif got is None:
                    case_val = ("unknown",)
        if case_val is None:
            # z is self-referential below t; inside the current feature-free
            # region the outcome being tested is bottom, which satisfies
            # definedness, so only the history through the region start counts
            defined = t_forall(lambda x: z.get(x)[0] != "unknown", decided)
            no_r = None if r_cell is UNKNOWN else (r_cell is BOTTOM)
            c1 = t_and(no_r, defined)
            c2 = t_forall(lambda x: _is_bottom(v.at(x)), below)
            both = t_or(c1, c2)
            case_val = ("bottom",) if both is True else ("unknown",)
        z.set(t, case_val)
    return z.cells, pts


def value_eq_or_none(cell, d):
    if cell is UNKNOWN:
        return None
    if cell is BOTTOM:
        return False
    return value_eq(cell, d)


# -- dense oracle for the concrete delay ------------------------------------

def oracle_delay(d: EventStream, r: EventStream):
    sums = [tp + val for tp, val in d.events if val is not INF]
    feats = feature_points(d, r, extra=sums)
    pts = sample_points(d, r, extra=sums)
    z = RegionMap(feats)

    def setable(tp):
        zc = z.get(tp)
        if zc[0] == "event":
            return True
        rc = r.at(tp)
        if rc is not BOTTOM and rc is not UNKNOWN:
            return True
        if rc is UNKNOWN or zc[0] == "unknown":
            return None
        return False

    def noreset(tp, t):
        def no_tick(x):
            rc = r.at(x)
            if rc is UNKNOWN:
                return None
            return rc is BOTTOM

        return t_forall(no_tick, points_between(feats, tp, t))

    def unsetable(tp):
        zc = z.get(tp)
        rc = r.at(tp)
        if zc[0] == "unknown" or rc is UNKNOWN:
            return None
        return zc[0] == "bottom" and rc is BOTTOM

    def reset_between(tp, t):
        def tick(x):
            rc = r.at(x)
            if rc is UNKNOWN:
                return None
            return rc is not BOTTOM

        return t_exists(tick, points_between(feats, tp, t))

    for t in pts:
        below = points_below(feats, t)
        start = max((f for f in feats if f <= t), default=F(0))
        decided = points_below(feats, start) + ([start] if start < t else [])

        def fire_from(tp):
            dc = d.at(tp)
            if dc is UNKNOWN:
                hit = None
            else:
                hit = not (dc is BOTTOM or dc is INF or dc != t - tp)
            if tp > start:
                # in-region: the candidate outcome at tp is bottom, so only
                # a reset event could arm a delay there
                rc = r.at(tp)
                set3 = None if rc is UNKNOWN else (rc is not BOTTOM)
            else:
                set3 = setable(tp)
            return t_and(hit, set3, noreset(tp, t))

        c_fire = t_exists(fire_from, below)
        if c_fire is True:
            z.set(t, ("event", UNIT))
            continue
        defined = t_forall(lambda x: z.get(x)[0] != "unknown", decided)

        def harmless(tp):
            # per point: no exact hit with known data, or decidedly unarmed,
            # or a reset event decidedly in between
            dc = d.at(tp)
            no_hit = (dc is not UNKNOWN) and (dc is BOTTOM or dc is INF
                                              or dc != t - tp)
            if no_hit:
                return True
            if tp > start:
                # in-region candidate outcome is bottom; only reset data counts
                rc = r.at(tp)
                if rc is UNKNOWN:
                    return None
                return True if rc is BOTTOM else t_or(False, reset_between(tp, t))
            return t_or(unsetable(tp), reset_between(tp, t))

        c2 = t_and(defined, t_forall(harmless, below))
        z.set(t, ("bottom",) if c_fire is False and c2 is True else ("unknown",))
    return z.cells, pts


def check_against_oracle(stream: EventStream, cells, pts):
    # the oracle is a pointwise function; streams keep only its longest
    # decided prefix, so everything from the first unknown on reads unknown
    cut = None
    for t in pts:
        if cells[t][0] == "unknown":
            cut = t
            break
    for t in pts:
        got = stream.at(t)
        if cut is not None and t >= cut:
            assert got is UNKNOWN, f"at {t}: expected unknown (cut {cut}), got {got!r}"
            continue
        want = cells[t]
        if want[0] == "event":
            assert got not in (BOTTOM, UNKNOWN), \
                f"at {t}: expected event {want[1]!r}, got {got!r}"
            assert value_eq(got, want[1]), f"at {t}: expected {want[1]!r}, got {got!r}"
        elif want[0] == "bottom":
            assert got is BOTTOM, f"at {t}: expected bottom, got {got!r}"


# -- random stream strategies -------------------------------------------------

GRID = [F(k) for k in range(0, 7)]

# built once: hypothesis validates and labels each new strategy object, which
# costs more than the draw itself
PROGRESS_KINDS = st.sampled_from(["inf", "incl", "excl"])
_SLACK = st.sampled_from([F(0), F(1), F(2)])
_INCL_SLACK = st.sampled_from([F(0), F(2)])
_EXCL_SLACK = st.sampled_from([F(1), F(2)])
_HALF_OR_ONE = st.sampled_from([F(1, 2), F(1)])
_BOOLEANS = st.booleans()


@lru_cache(maxsize=None)
def grid_times(grid: tuple, max_size: int):
    """Unique times drawn from the grid, at most max_size of them."""
    return st.lists(st.sampled_from(grid), unique=True, max_size=max_size)


@st.composite
def event_streams(draw, values=st.integers(0, 3), max_events=4):
    times = draw(grid_times(tuple(GRID), max_events))
    times.sort()
    evs = [(t, F(draw(values))) for t in times]
    kind = draw(PROGRESS_KINDS)
    if kind == "inf":
        prog = Progress.infinite()
    else:
        last = times[-1] if times else F(0)
        pt = last + draw(_SLACK)
        if kind == "excl" and pt == (times[-1] if times else None):
            pt += 1
        prog = Progress.inclusive_at(pt) if kind == "incl" else Progress.exclusive(pt)
    return EventStream.of(evs, prog)


@st.composite
def unit_streams(draw, max_events=4):
    times = draw(grid_times(tuple(GRID), max_events))
    times.sort()
    evs = [(t, UNIT) for t in times]
    return EventStream.of(evs, progress_after(draw, times))


def progress_after(draw, times):
    """Infinite progress, or progress a little past the last of the ascending times.

    Inclusive at the last time or 2 beyond it, or exclusive 1 or 2 beyond it.
    """
    kind = draw(PROGRESS_KINDS)
    if kind == "inf":
        return Progress.infinite()
    last = times[-1] if times else F(0)
    if kind == "incl":
        return Progress.inclusive_at(last + draw(_INCL_SLACK))
    return Progress.exclusive(last + draw(_EXCL_SLACK))


_AMOUNT_GRID = st.sampled_from([F(k, 2) for k in range(13)])
_AMOUNT_TIMES = st.lists(_AMOUNT_GRID, unique=True, max_size=4)
_AMOUNTS = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), INF])


@st.composite
def delay_amount_streams(draw):
    """Up to four delay amounts, INF among them, on a half-unit grid to 6."""
    times = sorted(draw(_AMOUNT_TIMES))
    kind = draw(PROGRESS_KINDS)
    at = draw(_AMOUNT_GRID)
    prog = Progress.infinite() if kind == "inf" else Progress(at, kind == "incl")
    return EventStream.of([(t, draw(_AMOUNTS)) for t in times if prog.covers(t)], prog)


@st.composite
def abstract_streams(draw, values=st.sampled_from([F(0), F(1), TOP]),
                     grid=None, progress_at=None, point_gaps_only=False):
    grid = grid or GRID
    times = draw(grid_times(tuple(grid), 3))
    times.sort()
    evs = [(t, draw(values)) for t in times]
    horizon = progress_at if progress_at is not None else (grid[-1] + 1)
    prog = Progress.inclusive_at(horizon)
    free = [g for g in grid if g not in times]
    gap_pts = draw(grid_times(tuple(free), 2)) if free else []
    spans = []
    for gp in gap_pts:
        if point_gaps_only or draw(_BOOLEANS):
            spans.append(Span(gp, True, gp, True))
        else:
            hi = gp + draw(_HALF_OR_ONE)
            nxt = [t for t in times if gp < t <= hi]
            hi = min([hi] + [t - F(1, 4) for t in nxt])
            if hi > gp:
                spans.append(Span(gp, True, hi, False))
            else:
                spans.append(Span(gp, True, gp, True))
    return AbstractEventStream.of(EventStream.of(evs, prog), TimeSet(spans))


# -- enumeration-oracle helpers ----------------------------------------------

def member_of_gamma(concrete: EventStream, abstract: AbstractEventStream) -> bool:
    """Is the concrete stream one of those the abstract stream represents?

    Checked on the abstract stream's covered span; the concrete stream may
    extend further.
    """
    if abstract.progress > concrete.progress:
        return False
    c = concrete.truncated(abstract.progress)
    a_ticks = dict(abstract.stream.events)
    for t, val in a_ticks.items():
        got = c.at(t)
        if got in (BOTTOM, UNKNOWN) or not value_leq(got, val):
            return False
    for t, _ in c.events:
        if t not in a_ticks and not abstract.gaps.contains(t):
            return False
    return True


def flat_join(a, b):
    """Join in the top-lifted flat domain: equal stays, different goes to TOP."""
    return a if value_eq(a, b) else TOP
