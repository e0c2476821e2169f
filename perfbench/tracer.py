"""In-memory span tracer that wraps engine functions from outside the engine.

`instrument` replaces public functions and methods of the engine's modules
by wrappers that record, while the tracer is active, one span per call:
(id, name, start, end, parent id, run id).  Per-name totals (calls, self
time, inclusive time) are kept as calls return, so no span list has to be
scanned; the span list itself is capped and written out at the end.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Fraction comparisons are only counted, not spanned,
because they are far too frequent.

The wrappers are installed by assigning module and class attributes, so
they see every call that looks the function up at call time.  An engine
that binds a function at import time (say, into a dispatch table) bypasses
its wrapper; `Tracer.require` turns the resulting zero count into an error.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from time import perf_counter

from gapstream import (abstract, absops, evaluator, ops, queues, speclang,
                       streams, timeline, tracefile)

OPS = ("last", "lift", "slift", "merge", "const", "time", "delay")
ABSOPS = ("lift_abs", "slift_abs", "merge_abs", "const_abs", "time_abs",
          "last_abs", "last_abs_bot", "last_abs_gap", "last_time_abs",
          "slift_time_abs", "delay_abs", "delay_abs_bot", "delay_abs_gap",
          "delay_abs_fin")
FACTORIES = {"const", "const_abs"}      # return the operator as a closure
STREAM_METHODS = {"at": "at", "last_event_before": "last_event_before",
                  "eq": "__eq__"}
SETOPS = ("union", "intersect", "minus", "complement")
QUEUE_FUNCTIONS = ("enq", "rem_older", "rem_newer", "fold", "data_timeout",
                   "limit", "limit_interval", "as_abstract_queue", "enq_abs",
                   "rem_older_abs", "rem_newer_abs", "fold_abs",
                   "data_timeout_abs", "enq_bounded")
SPECLANG_FUNCTIONS = ("parse_spec", "abstractify", "unroll", "flatten",
                      "check_well_formed")
FRACTION_CMP = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
SPAN_CAP = 100_000      # spans kept for writing out; totals count every call


class Tracer:
    def __init__(self):
        self.active = False
        self.run = None
        self.stack: list = []       # frames [span id, time in child spans]
        self.totals: dict = {}      # name -> [calls, self_s, inclusive_s]
        self.counts: dict = {}      # name -> count, for count-only hooks
        self.spans: list = []
        self.dropped = 0
        self._ids = 0
        self._runs = 0
        self._origin = perf_counter()
        self._patched: list = []
        self._previous: dict = {}   # equation -> last result, per fixpoint

    # -- regions ----------------------------------------------------------

    def begin(self, label: str) -> None:
        """Start a traced region, with a new run id and fresh totals."""
        self._runs += 1
        self.run = f"{label}-{self._runs}"
        self.totals, self.counts = {}, {}
        self.active = True

    def end(self) -> None:
        self.active = False

    def calls(self, name: str) -> int:
        got = self.totals.get(name)
        return got[0] if got else 0

    def self_s(self, name: str) -> float:
        got = self.totals.get(name)
        return got[1] if got else 0.0

    def inclusive_s(self, name: str) -> float:
        got = self.totals.get(name)
        return got[2] if got else 0.0

    def require(self, names) -> None:
        """Raise if any named span or counter recorded nothing."""
        silent = [n for n in names if not self.calls(n) and not self.counts.get(n)]
        if silent:
            raise RuntimeError(
                "traced run recorded no calls for " + ", ".join(silent)
                + "; the engine no longer calls these through the wrapped "
                "attributes, so the per-layer metrics would read zero")

    # -- wrapping ---------------------------------------------------------

    def _close(self, name, frame, start, end, parent) -> None:
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur - frame[1]
        tot[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start - self._origin,
                               end - self._origin, parent, self.run))
        else:
            self.dropped += 1

    def spanned(self, name, fn, before=None, after=None):
        """fn wrapped to record a span named `name` while active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            tracer._ids += 1
            frame = [tracer._ids, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(name, frame, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _factory(self, name, fn):
        """A factory whose returned closure is the spanned operator."""
        tracer = self

        @functools.wraps(fn)
        def make(*args, **kwargs):
            return tracer.spanned(name, fn(*args, **kwargs))

        return make

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args):
            if tracer.active:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- change detection for evaluator.useful_ratio ----------------------

    def _fixpoint_entered(self, args) -> None:
        self._previous = {}

    def _op_evaluated(self, args, result) -> None:
        """Count the op eval as useful if its result differs from the last.

        The comparison runs untraced and is booked as a `trace.compare`
        span, so it adds to no layer's self time.
        """
        start = perf_counter()
        self.active = False
        try:
            key = id(args[0])
            prev = self._previous.get(key)
            if prev is None:
                prev = (abstract.AbstractEventStream.of(streams.EventStream.empty())
                        if isinstance(result, abstract.AbstractEventStream)
                        else streams.EventStream.empty())
            changed = not (result is prev or result == prev)
            self._previous[key] = result
        finally:
            self.active = True
        if changed:
            self.counts["evaluator.useful"] = self.counts.get("evaluator.useful", 0) + 1
        end = perf_counter()
        self._ids += 1
        self._close("trace.compare", [self._ids, 0.0], start, end,
                    self.stack[-1][0] if self.stack else None)

    # -- engine ------------------------------------------------------------

    def instrument(self) -> None:
        """Wrap the engine's public functions; undo with `uninstall`."""
        p = self._patch
        for fn in SPECLANG_FUNCTIONS:
            p(speclang, fn, self.spanned(f"speclang.{fn}", getattr(speclang, fn)))
        p(tracefile, "parse_trace",
          self.spanned("tracefile.parse_trace", tracefile.parse_trace))
        p(evaluator, "evaluate_fixpoint",
          self.spanned("evaluator.fixpoint", evaluator.evaluate_fixpoint,
                       before=self._fixpoint_entered))
        for dispatch in ("_eval_concrete", "_eval_abstract"):
            p(evaluator, dispatch,
              self.spanned("evaluator.op_eval", getattr(evaluator, dispatch),
                           after=self._op_evaluated))
        p(evaluator.OnlineEvaluator, "feed",
          self.spanned("evaluator.feed", evaluator.OnlineEvaluator.feed))
        for module, names in ((ops, OPS), (absops, ABSOPS)):
            for fn in names:
                name = f"{module.__name__.rsplit('.', 1)[1]}.{fn}"
                wrap = self._factory if fn in FACTORIES else self.spanned
                p(module, fn, wrap(name, getattr(module, fn)))
        for metric, attr in STREAM_METHODS.items():
            p(streams.EventStream, attr,
              self.spanned(f"streams.{metric}", getattr(streams.EventStream, attr)))
        p(timeline.TimeSet, "contains",
          self.spanned("timeline.contains", timeline.TimeSet.contains))
        for fn in SETOPS:
            p(timeline.TimeSet, fn,
              self.spanned(f"timeline.{fn}", getattr(timeline.TimeSet, fn)))
        for fn in QUEUE_FUNCTIONS:
            p(queues, fn, self.spanned(f"queues.{fn}", getattr(queues, fn),
                                       after=self._queue_returned))
        for fn in FRACTION_CMP:
            p(Fraction, fn, self._counted("fraction.cmp", getattr(Fraction, fn)))

    def _queue_returned(self, args, result) -> None:
        entries = getattr(result, "entries", None)
        if entries is not None and len(entries) > self.counts.get("queues.max_len", 0):
            self.counts["queues.max_len"] = len(entries)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, retained_events: int) -> dict:
        """Per-layer metrics of the last traced region: name -> (value, unit)."""
        op_evals = self.calls("evaluator.op_eval")
        m = {
            "evaluator.fixpoints": (self.calls("evaluator.fixpoint"), "count"),
            "evaluator.op_evals": (op_evals, "count"),
            "evaluator.useful_ratio": (
                self.counts.get("evaluator.useful", 0) / op_evals if op_evals else 0.0, "1"),
            # fixpoint time outside operator evaluations and the tracer's compares
            "evaluator.self_s": (self.inclusive_s("evaluator.fixpoint")
                                 - self.inclusive_s("evaluator.op_eval")
                                 - self.inclusive_s("trace.compare"), "s"),
            "evaluator.retained_events": (retained_events, "count"),
        }
        groups = [(f"ops.{fn}", [f"ops.{fn}"]) for fn in OPS]
        groups += [(f"absops.{fn}", [f"absops.{fn}"]) for fn in ABSOPS]
        groups += [(f"streams.{fn}", [f"streams.{fn}"]) for fn in STREAM_METHODS]
        groups += [("timeline.contains", ["timeline.contains"]),
                   ("timeline.setops", [f"timeline.{fn}" for fn in SETOPS]),
                   ("queues", [f"queues.{fn}" for fn in QUEUE_FUNCTIONS])]
        for metric, names in groups:
            m[f"{metric}.calls"] = (sum(self.calls(n) for n in names), "count")
            m[f"{metric}.self_s"] = (sum(self.self_s(n) for n in names), "s")
        m["queues.max_len"] = (self.counts.get("queues.max_len", 0), "count")
        m["fraction.cmp.calls"] = (self.counts.get("fraction.cmp", 0), "count")
        return m

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s",
                                            "parent", "run"],
                                 "spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
