"""Independent reset-sum oracle over Fractions.

It reads trace text with its own small reader and computes the outputs of
the bundled reset-sum spec from the spec's meaning, without the engine:

* Outputs exist at every timestamp carrying a `values` or `resets` event,
  once both streams have had an event.
* `cond` is whether the latest reset is at or after the latest value.
* `sum` is 0 where `cond` holds; otherwise the previous `sum` (0 if none)
  plus the latest value.
"""

from __future__ import annotations

from fractions import Fraction

# Figure-one rows of reset-sum on the bundled reset-sum-fig trace.
FIG_COND = [(Fraction(1), True), (Fraction("2.3"), False), (Fraction("3.7"), False),
            (Fraction("4.6"), False), (Fraction("5.8"), False), (Fraction(7), True),
            (Fraction("7.5"), False), (Fraction("8.3"), False)]
FIG_SUM = [(Fraction(1), Fraction(0)), (Fraction("2.3"), Fraction(2)),
           (Fraction("3.7"), Fraction(6)), (Fraction("4.6"), Fraction(13)),
           (Fraction("5.8"), Fraction(16)), (Fraction(7), Fraction(0)),
           (Fraction("7.5"), Fraction(1)), (Fraction("8.3"), Fraction(4))]


def read_events(text: str) -> tuple:
    """(values, reset times) of a gap-free reset-sum trace text."""
    values, resets = {}, set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if ":" not in line or line.startswith("stream "):
            continue
        stamp, body = line.split(":", 1)
        name, _, payload = (p.strip() for p in body.partition("="))
        t = Fraction(stamp.strip())
        if name == "values":
            values[t] = Fraction(payload)
        elif name == "resets":
            resets.add(t)
        else:
            raise ValueError(f"unexpected directive '{line}'")
    return values, resets


def reset_sum(text: str) -> tuple:
    """(cond events, sum events) of reset-sum on the given trace text."""
    values, resets = read_events(text)
    cond, total = [], []
    last_value_time = last_value = last_reset = None
    prev_sum = Fraction(0)
    for t in sorted(set(values) | resets):
        if t in values:
            last_value_time, last_value = t, values[t]
        if t in resets:
            last_reset = t
        if last_value_time is None or last_reset is None:
            continue
        c = last_reset >= last_value_time
        s = Fraction(0) if c else prev_sum + last_value
        cond.append((t, c))
        total.append((t, s))
        prev_sum = s
    return cond, total


def self_check(fig_trace_text: str) -> None:
    """Raise unless the oracle reproduces the figure-one rows."""
    cond, total = reset_sum(fig_trace_text)
    if cond != FIG_COND or total != FIG_SUM:
        raise AssertionError(
            f"reset-sum oracle disagrees with the figure rows: {cond} / {total}")
