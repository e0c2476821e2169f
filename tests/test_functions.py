"""Abstract value functions: the exact fast paths against the interval path."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_path
from gapstream.abstract import value_leq
from gapstream.errors import OperatorError
from gapstream.functions import (abs_add, abs_div, abs_eq, abs_leq, abs_lt,
                                 abs_mul, abs_neg, abs_sub, lookup)
from gapstream.speclang import FnRef
from gapstream.timeline import INF, NEG_INF
from gapstream.values import TOP, Interval, value_eq

BINARY = [abs_add, abs_sub, abs_mul, abs_div, abs_leq, abs_lt, abs_eq]

RATIONALS = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3]))
_BOUNDS = st.lists(RATIONALS, min_size=2, max_size=2, unique=True).map(sorted)
OPERANDS = st.one_of(
    RATIONALS,
    st.integers(-4, 4),
    RATIONALS.map(Interval.single),
    RATIONALS.map(lambda x: Interval(x, F(x))),     # equal bounds, two objects
    _BOUNDS.map(lambda b: Interval(*b)),
    RATIONALS.map(lambda x: Interval(NEG_INF, x)),
    RATIONALS.map(lambda x: Interval(x, INF)),
    st.just(Interval.top()),
    st.just(TOP),
)


def outcome(f, *args):
    try:
        return f(*args)
    except OperatorError as e:
        return ("raises", str(e))


def assert_same(got, want):
    assert type(got) is type(want), (got, want)
    assert got == want


@given(st.sampled_from(BINARY), OPERANDS, OPERANDS)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_binary_fast_path_equals_interval_path(f, a, b):
    fast = outcome(f, a, b)
    with interval_path():
        general = outcome(f, a, b)
    assert_same(fast, general)


@given(OPERANDS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_neg_fast_path_equals_interval_path(a):
    fast = outcome(abs_neg, a)
    with interval_path():
        general = outcome(abs_neg, a)
    assert_same(fast, general)


def test_exact_operands_give_fractions():
    assert_same(abs_add(1, 2), F(3))
    assert_same(abs_mul(Interval.single(2), F(1, 2)), F(1))
    assert_same(abs_div(3, Interval(F(2), F(2))), F(3, 2))
    assert_same(abs_neg(0), F(0))
    assert abs_leq(1, Interval.single(1)) is True
    with pytest.raises(OperatorError, match="division by zero"):
        abs_div(F(1), Interval.single(0))


@pytest.mark.parametrize("f", [abs_add, abs_sub, abs_mul, abs_div, abs_leq, abs_lt])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_operand_raises(f, flag):
    with pytest.raises(OperatorError):
        f(flag, F(1))
    with pytest.raises(OperatorError):
        f(1, flag)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_operand_of_neg_raises(flag):
    with pytest.raises(OperatorError):
        abs_neg(flag)


@pytest.mark.parametrize("lo, hi", [(INF, INF), (NEG_INF, NEG_INF), (INF, F(1)),
                                    (F(1), NEG_INF), (F(3), F(2))])
def test_interval_must_hold_a_rational(lo, hi):
    with pytest.raises(ValueError):
        Interval(lo, hi)


@pytest.mark.parametrize("name, params", [
    ("add", ()), ("window_strip", (F(5),)), ("window_integral", (F(5),)),
    ("timeout_after", (F(3, 2),)), ("enq_bounded", (F(3),)),
])
def test_resolving_twice_gives_the_same_function(name, params):
    ref = FnRef(name, params)
    key = hash(ref)
    fn = ref.resolve()
    assert ref.resolve() is fn and fn.name == lookup(name, params).name
    # resolving leaves the reference's equality and hash as they were
    assert hash(ref) == key and ref == FnRef(name, params)
    assert ref != FnRef(name + "_", params)


def test_rejected_parameters_raise_every_time():
    for ref in (FnRef("enq_bounded", (F(1),)), FnRef("window_integral", (F(0),)),
                FnRef("window_strip", (F(-1, 2),))):
        for _ in range(2):
            with pytest.raises(ValueError):
                ref.resolve()


BOOLS = (True, False)
BRANCHES = (F(1), F(2))
# (name, the concrete values each argument ranges over)
LOGIC = [("not", (BOOLS,)), ("and", (BOOLS, BOOLS)), ("or", (BOOLS, BOOLS)),
         ("eq", (BOOLS, BOOLS)), ("ite", (BOOLS, BRANCHES, BRANCHES))]


@pytest.mark.parametrize("name, domains", LOGIC)
def test_logic_functions_are_sound_and_exact(name, domains):
    """Every concretization's concrete result lies under the abstract one,
    and equals it where no argument is TOP; checked exhaustively."""
    fn = lookup(name)
    for args in itertools.product(*(dom + (TOP,) for dom in domains)):
        got = fn.abstract_cells(*args)
        choices = [dom if a is TOP else (a,) for a, dom in zip(args, domains)]
        for concrete in itertools.product(*choices):
            want = fn.concrete(*concrete)
            assert value_leq(want, got), (name, args, concrete, got)
            if all(a is not TOP for a in args):
                assert value_eq(want, got), (name, args, got)
