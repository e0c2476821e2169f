"""Seeded trace generators for the benchmark workloads.

Every generator takes the seed and a size n and returns trace text in the
repository's trace format.  The same (seed, n) always gives byte-identical
text.  Counts of events, gaps and output ticks depend on n only, and
events fill the time axis evenly, so the engine's work stays nearly the
same across seeds while timestamps and payloads vary.

The engine only ever sees what `parse_trace` makes of this text; online
messages are built from the parsed trace by `online_messages`.
"""

from __future__ import annotations

import random

TICKS_PER_PERIOD = 3   # elapsed periods between two period events
HEARTBEAT = 2          # time units between online progress messages


def _lines(decls, directives, progress) -> str:
    """Trace text from (time, order, text) directives, sorted by time then order."""
    out = [f"stream {name} : {ty}" for name, ty in decls]
    out += [text for _, _, text in sorted(directives)]
    out.append(f"progress {progress}")
    return "\n".join(out) + "\n"


def _centres(count: int, n: int) -> list:
    """Index of the centre of each of `count` equal blocks of n events.

    Gaps and #top payloads sit here rather than at drawn places: where they
    fall changes the engine's work by several per cent.
    """
    return [(2 * b + 1) * n // (2 * count) for b in range(count)]


def _spread(rng, count: int, lo: int, hi: int) -> list:
    """`count` indices from [lo, hi), one drawn in each of `count` equal
    blocks, never in a block's last place, so no two are adjacent."""
    edges = [lo + b * (hi - lo) // count for b in range(count + 1)]
    if any(b - a < 2 for a, b in zip(edges, edges[1:])):
        raise ValueError("trace too small for the requested number of picks")
    return [rng.randrange(a, b - 1) for a, b in zip(edges, edges[1:])]


def reset_sum(seed: int, n: int) -> str:
    """Gap-free reset-sum trace: n `values` events and max(2, n//5) `resets`.

    Value i sits at 2i+1 or 2i+2, so the time axis [1, 2n] fills evenly.
    The first reset coincides with the first value, so outputs start at
    once; the others are spread over the trace, alternately on a value's
    timestamp and on the free timestamp next to it.
    """
    rng = random.Random(f"reset-sum/{seed}/{n}")
    vt = [2 * i + 1 + rng.randint(0, 1) for i in range(n)]
    rt = [vt[0]]
    for b, i in enumerate(_spread(rng, max(2, n // 5) - 1, 1, n)):
        rt.append(vt[i] if b % 2 == 0 else 4 * i + 3 - vt[i])
    directives = [(t, 0, f"{t}: values = {rng.randint(1, 9)}") for t in vt]
    directives += [(t, 1, f"{t}: resets = ()") for t in sorted(rt)]
    return _lines((("values", "Int"), ("resets", "Unit")), directives, 2 * n + 1)


def _gapped_pair(name: str, ty: str, events: list, lost: list, tops: list,
                 progress) -> tuple:
    """Full and gapped trace text from one draw.

    The gapped text drops each event whose index is in `lost`, covering its
    timestamp t by the gap [t, t+1), and replaces the payloads at `tops`
    by #top.
    """
    full, gapped = [], []
    for i, (t, v) in enumerate(events):
        full.append((t, 1, f"{t}: {name} = {v}"))
        if i in lost:
            gapped.append((t, 2, f"{t}: gap {name}"))
            gapped.append((t + 1, 0, f"{t + 1}: known {name}"))
        else:
            shown = "#top" if i in tops else v
            gapped.append((t, 1, f"{t}: {name} = {shown}"))
    decls = ((name, ty),)
    return _lines(decls, full, progress), _lines(decls, gapped, progress)


def window(seed: int, n: int) -> tuple:
    """(full, gapped) traces of a `load : Real` stream for the queue spec.

    Load i (one decimal in 0.1..0.9) sits at a time in [3i+1, 3i+3].  The
    gapped version loses max(1, n//10) loads to point-sized gaps and shows
    max(1, n//20) others as #top.
    """
    rng = random.Random(f"window/{seed}/{n}")
    events = [(3 * i + 1 + rng.randint(0, 2), f"0.{rng.randint(1, 9)}")
              for i in range(n)]
    lost = _centres(max(1, n // 10), n)
    tops = [i + 1 for i in _centres(max(1, n // 20), n)]
    return _gapped_pair("load", "Real", events, lost, tops, 3 * n + 2)


def period(seed: int, n: int) -> tuple:
    """(full, gapped) traces of a `period : Int` stream for variable-period.

    The n period values are a seeded shuffle of 2, 3, 4, 5, 2, ...; each is
    followed by exactly TICKS_PER_PERIOD elapsed periods before the next
    one arrives, so the number of output ticks depends on n only.  The
    gapped version loses max(1, n//10) period events to point-sized gaps.
    """
    rng = random.Random(f"period/{seed}/{n}")
    values = [2 + i % 4 for i in range(n)]
    rng.shuffle(values)
    events = []
    t = rng.randint(1, 4)
    for v in values:
        events.append((t, str(v)))
        t += TICKS_PER_PERIOD * v + rng.randint(1, v - 1)
    return _gapped_pair("period", "Int", events, _centres(max(1, n // 10), n), [], t)


def online_messages(trace, message_cls) -> list:
    """Timestamp-ordered replay of a parsed concrete trace.

    Every HEARTBEAT time units each input stream gets a `progress`
    message; a final `progress` on every stream closes the trace at its
    progress time.  Events at a timestamp precede heartbeats at it.
    """
    names = [n for n, _ in trace.declarations]
    timed = []
    for order, name in enumerate(names):
        for t, v in trace.streams[name].events:
            timed.append((t, 0, order, message_cls.event(name, t, v)))
    end = trace.progress.time
    for h in range(HEARTBEAT, int(end), HEARTBEAT):
        for order, name in enumerate(names):
            timed.append((h, 1, order, message_cls.progress(name, h)))
    timed.sort(key=lambda x: x[:3])
    msgs = [m for *_, m in timed]
    msgs += [message_cls.progress(name, end) for name in names]
    return msgs
