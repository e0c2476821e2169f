"""Trace file format: declarations, timed directives, one progress footer.

    stream values : Int
    stream resets : Unit
    epsilon 1
    1: values = 3
    8: gap values
    9: values = #top
    10: known values
    progress 14

Gap directives follow the boolean-marker convention: `t: gap s` opens an
unknown region at t inclusive, `t: known s` closes it at t exclusive, so a
point-sized loss on an integer-grid trace is `t: gap s` + `t+1: known s`.

Each stream is built by abstract.InputBuilder, the rule online messages
follow too.  A directive at t is accepted only where the stream's progress
does not yet decide t: an event or a gap start decides t, a `known` every
time below t, and the progress footer must not lie below what the
directives decided.  A second progress line is an error.  An event line inside an open gap punches a known
point into it, and the gap stays open after it.  A `gap` inside an open
gap is an error, and so is a `known` with no open gap.  So `t: known s`
may be followed by an event or a gap at t, but nothing may follow an
event or a gap start at its own time.

Serialization is grid-canonical: gap boundaries are sampled on the epsilon
grid, so parse and serialize are mutually inverse on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .abstract import AbstractEventStream, InputBuilder
from .encoding import grid_canonical
from .errors import TraceError, UndeclaredStream
from .speclang import STREAM_TYPES
from .streams import Progress
from .timeline import INF, NEG_INF, Time, TimeSet, as_time
from .values import TOP, UNIT, Interval, typed_payload


@dataclass
class Trace:
    declarations: Tuple[Tuple[str, str], ...]
    epsilon: Fraction
    progress: Progress
    streams: Dict[str, object]  # EventStream or AbstractEventStream

    def types(self) -> Dict[str, str]:
        return dict(self.declarations)

    def is_abstract(self) -> bool:
        return any(isinstance(s, AbstractEventStream) and not s.is_concrete()
                   for s in self.streams.values())

    def horizon(self) -> Time:
        """The progress time, or under infinite progress the last feature
        of any stream (_last_feature)."""
        if self.progress.is_infinite():
            return max((_last_feature(s, self.epsilon) for s in self.streams.values()),
                       default=0)
        return self.progress.time


def _parse_time(text: str, lineno: int) -> Time:
    try:
        return as_time(text)
    except (ValueError, ZeroDivisionError):
        raise TraceError(f"line {lineno}: bad timestamp '{text}'")


_WORDS = {"#top": TOP, "()": UNIT, "true": True, "false": False}


def _parse_value(text: str, ty: str, lineno: int):
    """The payload a value text denotes, checked against the stream type
    by values.typed_payload, the rule online messages follow too."""
    text = text.strip()
    if text in _WORDS:
        v = _WORDS[text]
    elif ty == "Interval" and (
            m := re.fullmatch(r"\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]", text)):
        lo, hi = _parse_bound(m.group(1), lineno), _parse_bound(m.group(2), lineno)
        try:
            v = Interval.of(lo, hi)
        except ValueError as e:
            raise TraceError(f"line {lineno}: bad interval '{text}': {e}")
    else:
        v = _parse_number(text, lineno)
    try:
        return typed_payload(v, ty)
    except TraceError as e:
        raise TraceError(f"line {lineno}: {e}") from None


def _parse_number(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TraceError(f"line {lineno}: bad number '{text}'")


def _parse_bound(text: str, lineno: int):
    text = text.strip()
    if text == "-inf":
        return NEG_INF
    if text == "inf":
        return INF
    return _parse_number(text, lineno)


def parse_trace(text: str) -> Trace:
    declarations: List[Tuple[str, str]] = []
    types: Dict[str, str] = {}
    builders: Dict[str, InputBuilder] = {}
    last_line: Dict[str, int] = {}   # stream -> line of its last directive
    epsilon = Fraction(1)
    progress: Optional[Progress] = None
    saw_body = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip() if "#top" not in raw else _strip_comment_keep_top(raw)
        line = line.strip()
        if not line:
            continue
        if line.startswith("stream "):
            m = re.fullmatch(r"stream\s+(\w+)\s*:\s*(\w+)", line)
            if not m:
                raise TraceError(f"line {lineno}: bad stream declaration")
            name, ty = m.group(1), m.group(2)
            if ty not in STREAM_TYPES:
                raise TraceError(f"line {lineno}: unknown type '{ty}'")
            if name in builders:
                raise TraceError(f"line {lineno}: duplicate stream '{name}'")
            declarations.append((name, ty))
            types[name] = ty
            builders[name] = InputBuilder()
            continue
        if line.startswith("epsilon "):
            if saw_body:
                raise TraceError(f"line {lineno}: epsilon must precede events")
            epsilon = _parse_number(line.split(None, 1)[1], lineno)
            if epsilon <= 0:
                raise TraceError(f"line {lineno}: epsilon must be positive")
            continue
        if line.startswith("progress"):
            if progress is not None:
                raise TraceError(f"line {lineno}: duplicate progress directive")
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise TraceError(f"line {lineno}: expected 'progress <time>' or 'progress inf'")
            arg = parts[1].strip()
            progress = (Progress.infinite() if arg == "inf"
                        else Progress.inclusive_at(_parse_time(arg, lineno)))
            continue
        m = re.fullmatch(r"([^:]+):\s*(.*)", line)
        if not m:
            raise TraceError(f"line {lineno}: unrecognized directive")
        saw_body = True
        t = _parse_time(m.group(1).strip(), lineno)
        body = m.group(2).strip()
        gm = re.fullmatch(r"(gap|known)\s+(\w+)", body)
        em = None if gm else re.fullmatch(r"(\w+)\s*=\s*(.+)", body)
        if not (gm or em):
            raise TraceError(f"line {lineno}: unrecognized directive '{body}'")
        name = gm.group(2) if gm else em.group(1)
        b = builders.get(name)
        if b is None:
            raise UndeclaredStream(f"line {lineno}: undeclared stream '{name}'")
        if gm:
            apply, args = (b.gap_start if gm.group(1) == "gap" else b.gap_end), (t,)
        else:
            apply, args = b.event, (t, _parse_value(em.group(2), types[name], lineno))
        last_line[name] = lineno
        try:
            apply(*args)
        except TraceError as e:
            raise type(e)(f"line {lineno}: {e}") from None

    if progress is None:
        raise TraceError("missing progress directive")
    streams = {}
    for name, b in builders.items():
        try:
            b.advance(progress)
        except TraceError as e:
            raise type(e)(f"line {last_line[name]}: {e}") from None
        plain = b.stream(False)
        streams[name] = (b.stream(True) if types[name] in ("AbsBool", "Interval") or b.gapped
                         or any(v is TOP for _, v in plain.events) else plain)
    return Trace(tuple(declarations), epsilon, progress, streams)


def _strip_comment_keep_top(raw: str) -> str:
    # '#top' is a literal; any other '#' starts a comment
    out = []
    i = 0
    while i < len(raw):
        if raw[i] == "#":
            if raw.startswith("#top", i):
                out.append("#top")
                i += 4
                continue
            break
        out.append(raw[i])
        i += 1
    return "".join(out)


def format_value(v) -> str:
    if v is UNIT:
        return "()"
    if v is TOP:
        return "#top"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, Interval):
        if v.is_top():
            return "#top"
        if v.is_single():
            return format_time(v.lo)
        lo = "-inf" if not isinstance(v.lo, Fraction) else format_time(v.lo)
        hi = "inf" if not isinstance(v.hi, Fraction) else format_time(v.hi)
        return f"[{lo}, {hi}]"
    if isinstance(v, Fraction):
        return format_time(v)
    if isinstance(v, int):
        return str(v)
    raise TraceError(f"value {v!r} has no trace representation")


def format_time(t: Time) -> str:
    if t.denominator == 1:
        return str(t.numerator)
    scaled = t
    digits = 0
    while scaled.denominator != 1 and digits < 12:
        scaled *= 10
        digits += 1
    if scaled.denominator == 1:
        s = str(t.numerator * 10**digits // t.denominator)
        sign = "-" if t < 0 else ""
        s = s.lstrip("-").rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}"
    return f"{t.numerator}/{t.denominator}"


def serialize_trace(declarations, streams: Dict[str, object], epsilon,
                    progress: Progress) -> str:
    """Canonical text form; gap boundaries snapped to the epsilon grid."""
    epsilon = Fraction(epsilon)
    lines = [f"stream {n} : {ty}" for n, ty in declarations]
    if epsilon != 1:
        lines.append(f"epsilon {format_time(epsilon)}")
    horizon = progress.time if not progress.is_infinite() else None
    directives = []  # (time, order, text)
    for name, _ty in declarations:
        s = streams[name]
        stream, gaps = s.stream, s.gaps
        stream = stream.truncated(min(stream.progress, progress))
        for t, v in stream.events:
            directives.append((t, 1, f"{format_time(t)}: {name} = {format_value(v)}"))
        end = horizon if horizon is not None else _last_feature(s, epsilon)
        # a grid run that ends past end is a gap still open there, at the
        # progress or up to infinity
        open_end = horizon is not None or _runs_to_infinity(gaps)
        for sp in grid_canonical(gaps, epsilon, end).spans:
            directives.append((sp.lo, 2, f"{format_time(sp.lo)}: gap {name}"))
            if sp.hi <= end or not open_end:
                directives.append((sp.hi, 0, f"{format_time(sp.hi)}: known {name}"))
    directives.sort(key=lambda d: (d[0], d[1], d[2]))
    lines += [d[2] for d in directives]
    lines.append("progress " + ("inf" if progress.is_infinite()
                                else format_time(progress.time)))
    return "\n".join(lines) + "\n"


def _last_feature(s, epsilon) -> Time:
    """The last event time or finite gap bound of s, 0 if it has neither.

    Where a gap of s runs to infinity it is a grid step further, so that a
    grid sampling up to it sees that gap.
    """
    best = 0
    if s.stream.events:
        best = s.stream.events[-1][0]
    for b in s.gaps.boundaries():
        best = max(best, b)
    return best + epsilon if _runs_to_infinity(s.gaps) else best


def _runs_to_infinity(gaps: TimeSet) -> bool:
    return bool(gaps.spans) and gaps.spans[-1].hi is INF
