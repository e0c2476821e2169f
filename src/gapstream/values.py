"""Value domain shared by concrete and abstract streams.

Concrete event payloads are plain Python values: bool, int, Fraction, the
UNIT marker, or domain extensions registered elsewhere (timed queues).
Abstract payloads additionally use TOP (any value of the base domain) and
closed Intervals over rationals.  An unbounded Interval ends at NEG_INF or
INF, the infinities of timeline; they order with rationals through the
ordinary operators, so Interval bounds are compared like numbers.

Three sentinels describe per-timestamp stream cells:
  BOTTOM  no event at this covered timestamp
  UNKNOWN timestamp beyond the stream's progress
  GAP     timestamp inside an unknown region of an abstract stream
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import TraceError
from .timeline import INF, NEG_INF, _Infinity


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self

    def __reduce__(self):
        # pickled by its module-level name, so unpickling gives this marker
        return self.name.upper()


UNIT = _Marker("unit")
BOTTOM = _Marker("bottom")
UNKNOWN = _Marker("unknown")
GAP = _Marker("gap")
TOP = _Marker("top")

@dataclass(frozen=True)
class Interval:
    """Closed rational interval, possibly unbounded; top is [-inf, inf]."""

    lo: Union[Fraction, _Infinity]
    hi: Union[Fraction, _Infinity]

    def __post_init__(self):
        if self.lo is INF or self.hi is NEG_INF:
            raise ValueError(f"interval holds no rational: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def of(lo, hi) -> "Interval":
        lo = lo if lo is NEG_INF or lo is INF else Fraction(lo)
        hi = hi if hi is NEG_INF or hi is INF else Fraction(hi)
        return Interval(lo, hi)

    @staticmethod
    def single(x) -> "Interval":
        """The point [x, x], built without the check of its bounds' order."""
        if type(x) is not Fraction:
            x = Fraction(x)
        point = object.__new__(Interval)
        object.__setattr__(point, "lo", x)
        object.__setattr__(point, "hi", x)
        return point

    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, INF)

    def is_single(self) -> bool:
        return self.lo == self.hi and isinstance(self.lo, Fraction)

    def is_top(self) -> bool:
        return self.lo is NEG_INF and self.hi is INF

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains_value(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def within(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def _to_interval(x) -> Optional[Interval]:
    """x as an Interval: TOP as the top interval, a rational as a point,
    None for a value that is not numeric."""
    if x is TOP:
        return Interval.top()
    if isinstance(x, Interval):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return Interval.single(x)
    return None


def value_eq(a, b) -> bool:
    """Decidable equality across all value variants.

    bool and int are kept distinct (1 != True as stream payloads), and
    Fraction/int compare by numeric value only within the same kind family.
    """
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return type(a) == type(b) and a == b or (
        not isinstance(a, bool)
        and isinstance(a, (int, Fraction))
        and isinstance(b, (int, Fraction))
        and a == b
    )


def typed_payload(v, ty: str):
    """v as an event payload of an input of stream type ty.

    The one rule that trace files and online messages follow.  TOP fits
    every type, as the top interval on Interval.  Int takes an integral int
    or Fraction, Real any int or Fraction, Interval an Interval or a number
    as its point, Bool and AbsBool a bool, and Unit only UNIT.  A float fits
    no type, since it is not exact.  Raises TraceError naming no line or
    stream; the caller adds that context.
    """
    # exact type tests: bool is no number here, and an isinstance test
    # against Fraction, an abstract-base subclass, is slow on a miss
    if v is TOP:
        return Interval.top() if ty == "Interval" else TOP
    if ty == "Unit":
        if v is UNIT:
            return v
    elif ty == "Bool" or ty == "AbsBool":
        if v is True or v is False:
            return v
    elif ty == "Int" or ty == "Real" or ty == "Interval":
        if type(v) is int or type(v) is Fraction:
            if ty == "Interval":
                return Interval.single(v)
            if ty == "Real" or v.denominator == 1:
                return v
        elif ty == "Interval" and type(v) is Interval:
            return v
    else:
        raise TraceError(f"unhandled type {ty}")
    raise TraceError(f"{ty} stream cannot take the payload {v!r}")
