"""Bundled example specifications and traces.

Eight worked examples (reset-count, reset-sum, filter-example,
variable-period, bursts, queue, finite-queue, self-updating-queue) plus the
running-count fixed-point demo.  Each ships with one or more traces; the
"-ign" / "gapped" traces are sized for exhaustive concretization so the
ignorance comparison can enumerate them.

The queue family carries the sliding-window machinery: the plain queue
spec, its finite-memory variant (bounded queue), and the self-updating
variant that uses a delay to emit an extra update when an element leaves
the window.  The three "-style" examples (reset-count, reset-sum,
filter-example) recover perfect precision with the time-aware abstraction
on their bundled traces; bursts and the delay-driven examples lose some.

reset-count, filter-example, variable-period and bursts are reconstructions
from one-line descriptions; their published precision figures depended on
an unavailable macro library and are not reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, Optional, Tuple

from .speclang import SpecAst, parse_spec
from .values import UNIT

SPEC_NAMES = (
    "running-count",
    "reset-count",
    "reset-sum",
    "filter-example",
    "variable-period",
    "bursts",
    "queue",
    "finite-queue",
    "self-updating-queue",
)

_TRACE_KEYS = {
    "running-count": ("running-count",),
    "reset-sum": ("reset-sum-fig", "reset-sum-gapped", "reset-sum-ign"),
    "reset-count": ("reset-count-gapped",),
    "filter-example": ("filter-example-gapped",),
    "variable-period": ("variable-period-gapped",),
    "bursts": ("bursts-gapped",),
    "queue": ("queue-fig",),
    "finite-queue": ("finite-queue-fig",),
    "self-updating-queue": ("self-updating-queue-gapped",),
}


def _read(name: str) -> str:
    return resources.files("gapstream").joinpath("bundled", name).read_text()


def spec_text(name: str) -> str:
    if name not in SPEC_NAMES:
        raise KeyError(f"no bundled spec '{name}'")
    return _read(f"{name}.spec")


def trace_text(key: str) -> str:
    return _read(f"{key}.trace")


def builtin_specs() -> Dict[str, SpecAst]:
    """All bundled specifications, parsed."""
    return {name: parse_spec(spec_text(name)) for name in SPEC_NAMES}


@dataclass(frozen=True)
class IgnoranceSetup:
    """Enumeration parameters for the optimal-vs-abstract comparison.

    The value universe has to cover the outputs the concrete spec can
    attain on the enumerated inputs; otherwise the two sides of the
    comparison are not measuring the same possibilities.
    """

    trace_key: str
    grid: Tuple[Fraction, ...]
    values: Tuple[object, ...]
    per_stream: Tuple[Tuple[str, Tuple[object, ...]], ...]
    output: str
    time_aware: bool
    expect_equal: Optional[bool]  # None: only soundness is claimed
    measure: object = "set"       # "set" or ("interval", lo, hi)


IGNORANCE_SETUPS: Dict[str, IgnoranceSetup] = {
    "reset-count": IgnoranceSetup(
        "reset-count-gapped", (Fraction(2),), (Fraction(1), Fraction(2)),
        (("values", (Fraction(1), Fraction(2))),), "count", True, True),
    "reset-sum": IgnoranceSetup(
        "reset-sum-ign", (Fraction(2),), (Fraction(1), Fraction(2)),
        (("values", (Fraction(1),)),), "sum", True, True),
    "filter-example": IgnoranceSetup(
        "filter-example-gapped", (Fraction(2),), (Fraction(0), Fraction(1)),
        (), "keep", True, True),
    "variable-period": IgnoranceSetup(
        "variable-period-gapped", (Fraction(12), Fraction(13), Fraction(14)),
        (UNIT,),
        (("period", (Fraction(3),)),
         ("stamped", (Fraction(12), Fraction(13), Fraction(14)))),
        "stamped", False, None,
        ("interval", Fraction(0), Fraction(14))),
    "bursts": IgnoranceSetup(
        "bursts-gapped", (Fraction(3),),
        tuple(Fraction(k) for k in range(1, 6)),
        (("ev", (UNIT,)),), "cnt", True, False),
    "queue": IgnoranceSetup(
        "queue-fig", (Fraction(9),),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        (("load", (Fraction(1, 2),)),), "avg", False, None,
        ("interval", Fraction(0), Fraction(1))),
    "finite-queue": IgnoranceSetup(
        "finite-queue-fig", (Fraction(9),),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        (("load", (Fraction(1, 2),)),), "avg", False, None,
        ("interval", Fraction(0), Fraction(1))),
    "self-updating-queue": IgnoranceSetup(
        "self-updating-queue-gapped", (Fraction(9),),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        (("load", (Fraction(1, 2),)),), "avg", False, None,
        ("interval", Fraction(0), Fraction(1))),
}
