"""Registry of lifted value functions with their abstract counterparts.

Every function usable under lift or slift ships in two forms: the concrete
one over plain values (BOTTOM-strict unless stated otherwise) and the
abstract one over cells, which must over-approximate the concrete behaviour
on TOP, intervals and gaps.  The pairing is what lets a specification be
switched to abstract semantics mechanically.

Parameterized entries (window lengths, filter bounds) are instantiated at
parse time from literal arguments.

The abstract arithmetic and comparisons take a fast path when both operands
are exact rationals (a Fraction, an int that is not a bool, or a degenerate
Interval): one Fraction operation, with the result the interval path gives
in value and type.  Every other operand goes through the interval path.
The abstract `window_integral` (in queues) assumes that hidden and TOP loads
lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ArityMismatch, OperatorError, UnknownIdentifier
from .values import BOTTOM, GAP, TOP, Interval, _to_interval
from .timeline import INF, NEG_INF
from .abstract import value_join


@dataclass(frozen=True)
class LiftedFunction:
    """A named value function together with its abstract counterpart."""

    name: str
    arity: int
    concrete: Callable
    abstract_cells: Callable


def strict(f: Callable) -> Callable:
    def wrapped(*args):
        for a in args:
            if a is BOTTOM:
                return BOTTOM
        return f(*args)

    return wrapped


def strict_cells(f_abs: Callable) -> Callable:
    def wrapped(*cells):
        gap = False
        for c in cells:
            if c is BOTTOM:
                return BOTTOM
            if c is GAP:
                gap = True
        return GAP if gap else f_abs(*cells)

    return wrapped


def _exact(x):
    """x as a Fraction if it is an exact rational, else None.

    An exact rational is a Fraction, an int that is not a bool, or a
    degenerate Interval (the interval path collapses a degenerate result
    to its Fraction, so the fast paths return Fractions too).
    """
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        return Fraction(x)
    if t is Interval:
        lo = x.lo
        if type(lo) is Fraction and (lo is x.hi or lo == x.hi):
            return lo
    return None


def _numeric_pair(a, b):
    ia, ib = _to_interval(a), _to_interval(b)
    if ia is None or ib is None:
        raise OperatorError(f"expected numeric operands, got {a!r}, {b!r}")
    return ia, ib


def _from_interval(i: Interval):
    """Degenerate intervals collapse back to plain rationals."""
    if i.is_top():
        return TOP
    if i.is_single():
        return i.lo
    return i


def _ext_add(a, b):
    for inf, other in ((NEG_INF, INF), (INF, NEG_INF)):
        if a is inf or b is inf:
            if a is other or b is other:
                raise OperatorError("adding opposite infinities")
            return inf
    return a + b


def _ext_neg(a):
    if a is NEG_INF:
        return INF
    if a is INF:
        return NEG_INF
    return -a


def abs_add(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x + y
    if a is TOP or b is TOP:
        return TOP
    ia, ib = _numeric_pair(a, b)
    return _from_interval(Interval(_ext_add(ia.lo, ib.lo), _ext_add(ia.hi, ib.hi)))


def abs_neg(a):
    x = _exact(a)
    if x is not None:
        return -x
    if a is TOP:
        return TOP
    ia = _to_interval(a)
    if ia is None:
        raise OperatorError(f"expected numeric operand, got {a!r}")
    return _from_interval(Interval(_ext_neg(ia.hi), _ext_neg(ia.lo)))


def abs_sub(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x - y
    return abs_add(a, abs_neg(b))


def _ext_mul_pairs(ia: Interval, ib: Interval):
    def sign(x):
        return (x > 0) - (x < 0)

    def m(x, y):
        if x is INF or x is NEG_INF or y is INF or y is NEG_INF:
            s = sign(x) * sign(y)
            return Fraction(0) if s == 0 else (INF if s > 0 else NEG_INF)
        return x * y

    vals = [m(ia.lo, ib.lo), m(ia.lo, ib.hi), m(ia.hi, ib.lo), m(ia.hi, ib.hi)]
    return min(vals), max(vals)


def abs_mul(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x * y
    ia, ib = _numeric_pair(a, b)
    lo, hi = _ext_mul_pairs(ia, ib)
    return _from_interval(Interval(lo, hi))


def abs_div(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        if not y:
            raise OperatorError("division by zero")
        return x / y
    ia, ib = _numeric_pair(a, b)
    if ib.contains_value(Fraction(0)):
        if ib.is_single():
            raise OperatorError("division by zero")
        return TOP
    inv = Interval(
        Fraction(1, 1) / ib.hi if ib.hi is not INF and ib.hi is not NEG_INF else Fraction(0),
        Fraction(1, 1) / ib.lo if ib.lo is not INF and ib.lo is not NEG_INF else Fraction(0),
    )
    lo, hi = _ext_mul_pairs(ia, inv)
    return _from_interval(Interval(lo, hi))


def _cmp_abstract(a, b, lt_true, lt_false):
    ia, ib = _numeric_pair(a, b)
    if lt_true(ia, ib):
        return True
    if lt_false(ia, ib):
        return False
    return TOP


def abs_leq(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x <= y
    return _cmp_abstract(
        a, b,
        lambda x, y: x.hi <= y.lo,
        lambda x, y: y.hi < x.lo,
    )


def abs_lt(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x < y
    return _cmp_abstract(
        a, b,
        lambda x, y: x.hi < y.lo,
        lambda x, y: y.hi <= x.lo,
    )


def abs_eq(a, b):
    x, y = _exact(a), _exact(b)
    if x is not None and y is not None:
        return x == y
    if a is TOP or b is TOP:
        return TOP
    ia, ib = _to_interval(a), _to_interval(b)
    if ia is not None and ib is not None:
        if ia.is_single() and ib.is_single():
            return ia.lo == ib.lo
        if ia.hi < ib.lo or ib.hi < ia.lo:
            return False
        return TOP
    return a == b


def abs_not(a):
    if a is TOP:
        return TOP
    return not a


def abs_and(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return TOP


def abs_or(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return TOP


def abs_ite(c, a, b):
    if c is True:
        return a
    if c is False:
        return b
    return value_join(a, b)


def _reset_add(c, l, v):
    return Fraction(0) if c is True else l + v


def _reset_add_abs(c, l, v):
    if c is True:
        return Fraction(0)
    if c is False:
        return abs_add(l, v)
    return value_join(Fraction(0), abs_add(l, v))


def _reset_count(c, l, v):
    return Fraction(0) if c is True else l + 1


def _reset_count_abs(c, l, v):
    if c is True:
        return Fraction(0)
    if c is False:
        return abs_add(l, Fraction(1))
    return value_join(Fraction(0), abs_add(l, Fraction(1)))


_BUILTINS = {}


def register(fn: LiftedFunction):
    _BUILTINS[fn.name] = fn
    return fn


def register_simple(name, arity, concrete_vals, abstract_vals=None):
    fn = LiftedFunction(
        name=name,
        arity=arity,
        concrete=strict(concrete_vals),
        abstract_cells=strict_cells(abstract_vals or concrete_vals),
    )
    return register(fn)


register_simple("add", 2, lambda a, b: a + b, abs_add)
register_simple("sub", 2, lambda a, b: a - b, abs_sub)
register_simple("mul", 2, lambda a, b: a * b, abs_mul)
register_simple("div", 2, lambda a, b: Fraction(a, b), abs_div)
register_simple("neg", 1, lambda a: -a, abs_neg)
register_simple("inc", 1, lambda a: a + 1, lambda a: abs_add(a, Fraction(1)))
register_simple("leq", 2, lambda a, b: a <= b, abs_leq)
register_simple("lt", 2, lambda a, b: a < b, abs_lt)
register_simple("geq", 2, lambda a, b: a >= b, lambda a, b: abs_leq(b, a))
register_simple("gt", 2, lambda a, b: a > b, lambda a, b: abs_lt(b, a))
register_simple("eq", 2, lambda a, b: a == b, abs_eq)
register_simple("not", 1, lambda a: not a, abs_not)
register_simple("and", 2, lambda a, b: a and b, abs_and)
register_simple("or", 2, lambda a, b: a or b, abs_or)
register_simple("ite", 3, lambda c, a, b: a if c else b, abs_ite)
register_simple("reset_add", 3, _reset_add, _reset_add_abs)
register_simple("reset_count", 3, _reset_count, _reset_count_abs)


def _burst_step(w, p):
    return p + 1 if w is True else Fraction(1)


def _burst_step_abs(w, p):
    if w is True:
        return abs_add(p, Fraction(1))
    if w is False:
        return Fraction(1)
    return value_join(Fraction(1), abs_add(p, Fraction(1)))


register_simple("burst_step", 2, _burst_step, _burst_step_abs)


def _keep_if(b, v):
    return v if b is True else BOTTOM


def _keep_if_abs(b, v):
    if b is BOTTOM or v is BOTTOM:
        return BOTTOM
    if b is GAP or v is GAP:
        return GAP
    if b is True:
        return v
    if b is False:
        return BOTTOM
    return GAP  # unknown condition: event presence itself is unknown


register(LiftedFunction("keep_if", 2, strict(_keep_if), _keep_if_abs))


_PARAMETRIC = {}


def register_parametric(name, builder: Callable[..., LiftedFunction]):
    _PARAMETRIC[name] = builder


def lookup(name: str, params: Sequence = ()) -> LiftedFunction:
    if params:
        if name not in _PARAMETRIC:
            raise UnknownIdentifier(f"unknown parametric function '{name}'")
        return _PARAMETRIC[name](*params)
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name in _PARAMETRIC:
        raise ArityMismatch(f"function '{name}' needs parameters")
    raise UnknownIdentifier(f"unknown function '{name}'")


def known_names() -> set:
    return set(_BUILTINS) | set(_PARAMETRIC)
