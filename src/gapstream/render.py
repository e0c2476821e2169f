"""ASCII rendering of traces: one row per stream on the epsilon grid.

Columns are grid instants: '-' covered with no event, 'o' an event, 'T' an
event with unknown payload, '~' inside a gap, blank beyond progress.  Event
values are listed under each row.  Wide traces elide the middle.
"""

from __future__ import annotations

from fractions import Fraction

from .tracefile import Trace, format_time, format_value
from .values import BOTTOM, GAP, TOP, UNKNOWN, Interval

MAX_COLUMNS = 100


def render_trace(trace: Trace) -> str:
    eps = trace.epsilon
    horizon = trace.horizon()
    cols = horizon // eps + 1
    times = [i * eps for i in range(cols)]
    elide = cols > MAX_COLUMNS
    shown = times if not elide else times[: MAX_COLUMNS // 2] + times[-MAX_COLUMNS // 2:]

    width = max((len(n) for n, _ in trace.declarations), default=4)
    lines = []
    axis = "".join(_axis_char(t) for t in shown)
    lines.append(f"{'t'.rjust(width)} |{axis}|")
    for name, _ty in trace.declarations:
        s = trace.streams[name]
        body = "".join(_cell_char(s.at(t)) for t in shown)
        if elide:
            half = MAX_COLUMNS // 2
            body = body[:half] + ".." + body[half:]
        lines.append(f"{name.rjust(width)} |{body}|")
        vals = "  ".join(
            f"{format_time(t)}:{format_value(v)}" for t, v in s.stream.events)
        if vals:
            lines.append(f"{' ' * width}  {vals}")
    lines.append(f"{' ' * width}  epsilon={format_time(eps)}  progress="
                 + ("inf" if trace.progress.is_infinite()
                    else format_time(trace.progress.time)))
    return "\n".join(lines) + "\n"


def _cell_char(cell) -> str:
    if cell is UNKNOWN:
        return " "
    if cell is GAP:
        return "~"
    if cell is BOTTOM:
        return "-"
    return "T" if cell is TOP or (isinstance(cell, Interval) and cell.is_top()) else "o"


def _axis_char(t: Fraction) -> str:
    if t.denominator == 1 and t.numerator % 5 == 0:
        return "+"
    return "."
