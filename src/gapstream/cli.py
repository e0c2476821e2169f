"""Command-line front end.

Sub-commands:
    run        evaluate a spec over a trace, print the output trace
    check      report well-formedness of a spec (after transformations)
    render     draw a trace as ASCII rows
    depth      computation depth of a spec, concrete vs encoded abstract
    ignorance  optimal vs abstract ignorance of an output stream

Exit codes: 0 success, 1 spec error, 2 trace error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .abstract import FiniteUniverse
from .encoded import build_encoded, evaluate_encoded
from .errors import BudgetExceeded, GapstreamError
from .evaluator import evaluate_fixpoint
from .ignorance import BoundedIntervalSpace, FiniteSetSpace, compare_ignorance
from .render import render_trace
from .speclang import (SpecAst, abstractify, check_well_formed, computation_depth,
                       flatten, parse_spec, unroll)
from .tracefile import parse_trace, serialize_trace
from .values import TOP, UNIT, Interval

SPEC_ERROR, TRACE_ERROR, BUDGET_ERROR = 1, 2, 3


class _Exit(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_spec(path: str) -> SpecAst:
    try:
        with open(path) as fh:
            return parse_spec(fh.read())
    except OSError as e:
        raise _Exit(SPEC_ERROR, f"cannot read spec: {e}")
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"spec error: {e}")


def _load_trace(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
        return parse_trace(text)
    except OSError as e:
        raise _Exit(TRACE_ERROR, f"cannot read trace: {e}")
    except GapstreamError as e:
        raise _Exit(TRACE_ERROR, f"trace error: {e}")


def _transform(ast: SpecAst, args) -> SpecAst:
    try:
        if getattr(args, "abstract", False):
            ast = abstractify(ast, time_aware=getattr(args, "time_aware", False))
            if getattr(args, "unroll", False) and args.path != "encoded":
                ast = unroll(ast)
        return ast
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"spec error: {e}")


def _infer_type(stream) -> str:
    """The stream type an output's declaration gives, read from its payloads.

    TOP fits every type (values.typed_payload), so the other payloads
    decide; a Bool stream with TOP or a gap is AbsBool.
    """
    events = stream.stream.events
    values = [v for _, v in events if v is not TOP]
    abstract = len(values) < len(events) or not stream.gaps.is_empty()
    if any(isinstance(v, Interval) for v in values):
        return "Interval"
    if any(v is UNIT for v in values):
        return "Unit"
    if any(isinstance(v, bool) for v in values):
        return "AbsBool" if abstract else "Bool"
    if any(isinstance(v, Fraction) for v in values):
        return "Int" if all(v.denominator == 1 for v in values) else "Real"
    return "Int"


def _number(text, what: str, kind=Fraction):
    """`text` as a `kind` (Fraction or int), or a usage error naming `what`."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise _Exit(SPEC_ERROR, f"{what}: not a number: {text!r}")


def _env_number(name: str, default, kind=Fraction):
    return _number(os.environ.get(name, default), name, kind)


def cmd_run(args) -> int:
    ast = _transform(_load_spec(args.spec), args)
    trace = _load_trace(args.trace)
    epsilon = _env_number("GAPSTREAM_EPSILON", trace.epsilon)
    graph = flatten(ast)
    missing = [n for n in graph.inputs if n not in trace.streams]
    if missing:
        raise _Exit(TRACE_ERROR, f"trace lacks input streams: {', '.join(missing)}")
    if trace.is_abstract() and ast.mode != "abstract":
        raise _Exit(TRACE_ERROR,
                    "trace contains gaps or unknown values; pass --abstract")
    report = check_well_formed(graph)
    if report is not None and args.path != "encoded":
        raise _Exit(SPEC_ERROR,
                    f"specification not well-formed, unguarded cycle: {report}"
                    + ("" if ast.mode == "concrete" else " (try --unroll)"))
    try:
        if args.path == "encoded":
            eg = build_encoded(graph, epsilon / 2)
            outputs = evaluate_encoded(eg, trace.streams, trace.progress,
                                       trace.horizon())
        else:
            env = evaluate_fixpoint(graph, trace.streams)
            outputs = {n: env[n] for n in graph.outputs}
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"evaluation error: {e}")
    decls = tuple((n, _infer_type(outputs[n])) for n in graph.outputs)
    text = serialize_trace(decls, outputs, epsilon, trace.progress)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    ast = _transform(_load_spec(args.spec), args)
    graph = flatten(ast)
    report = check_well_formed(graph)
    if report is None:
        print(f"well-formed ({len(graph.equations)} equations, "
              f"depth {computation_depth(graph)})")
        return 0
    print(f"not well-formed: unguarded cycle {report}")
    return SPEC_ERROR


def cmd_render(args) -> int:
    trace = _load_trace(args.trace)
    sys.stdout.write(render_trace(trace))
    return 0


def cmd_depth(args) -> int:
    ast = _load_spec(args.spec)
    concrete = flatten(ast)
    d = computation_depth(concrete)
    abstract = flatten(abstractify(ast, time_aware=args.time_aware))
    epsilon = _env_number("GAPSTREAM_EPSILON", "1")
    try:
        eg = build_encoded(abstract, epsilon)
        d_abs = eg.depth()
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"encoding error: {e}")
    ratio = Fraction(d_abs, d) if d else Fraction(0)
    print(f"d={d} d#={d_abs} ratio={float(ratio):.1f}")
    return 0


def _parse_universe(args):
    grid = [_number(x, "--universe-grid") for x in args.universe_grid.split(",") if x]
    if any(t < 0 for t in grid):
        raise _Exit(SPEC_ERROR, "--universe-grid: timestamps must be non-negative")
    per_stream = {}
    values = ()
    for spec in args.universe_values or []:
        if ":" in spec:
            name, raw = spec.split(":", 1)
            per_stream[name] = tuple(_parse_uvalue(x) for x in raw.split(",") if x)
        else:
            values = tuple(_parse_uvalue(x) for x in spec.split(",") if x)
    budget = _env_number("GAPSTREAM_BUDGET", args.budget, int)
    return FiniteUniverse.of(grid, values, per_stream, budget)


def _parse_uvalue(text: str):
    text = text.strip()
    if text == "()":
        return UNIT
    if text in ("true", "false"):
        return text == "true"
    return _number(text, "--universe-values")


def _parse_measure(text: str, universe: FiniteUniverse, output: str):
    if text == "set":
        return FiniteSetSpace(universe.values_for(output))
    kind, _, bounds = text.partition(":")
    parts = bounds.split(",")
    if kind != "interval" or len(parts) != 2:
        raise _Exit(SPEC_ERROR,
                    f"--measure: expected 'set' or 'interval:lo,hi', got {text!r}")
    lo, hi = (_number(x, "--measure") for x in parts)
    if not lo < hi:
        raise _Exit(SPEC_ERROR, f"--measure: interval needs lo < hi, got {text!r}")
    return BoundedIntervalSpace(lo, hi)


def cmd_ignorance(args) -> int:
    base = _load_spec(args.spec)
    trace = _load_trace(args.trace)
    concrete = flatten(base)
    report = check_well_formed(concrete)
    if report is not None:
        raise _Exit(SPEC_ERROR, f"unguarded cycle: {report}")
    ast = abstractify(base, time_aware=args.time_aware)
    try:
        ast = unroll(ast)
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"spec error: {e}")
    abstract = flatten(ast)
    output = args.output or (base.outputs[0] if base.outputs else None)
    if output is None:
        raise _Exit(SPEC_ERROR, "spec has no outputs")
    universe = _parse_universe(args)
    space = _parse_measure(args.measure, universe, output)
    concrete_inputs = {}
    for name in concrete.inputs:
        if name not in trace.streams:
            raise _Exit(TRACE_ERROR, f"trace lacks input '{name}'")
        concrete_inputs[name] = trace.streams[name]
    try:
        optimal, abstract_ign = compare_ignorance(
            concrete, abstract, concrete_inputs, universe, output, space)
    except BudgetExceeded as e:
        raise _Exit(BUDGET_ERROR, f"budget exceeded: {e}")
    except GapstreamError as e:
        raise _Exit(SPEC_ERROR, f"evaluation error: {e}")
    print(f"output={output}")
    print(f"optimal={optimal} ({float(optimal):.3f})")
    print(f"abstract={abstract_ign} ({float(abstract_ign):.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gapstream",
                                description="timed stream runtime verification "
                                            "with gap-aware abstraction")
    sub = p.add_subparsers(dest="command", required=True)

    def add_transform_flags(q):
        q.add_argument("--abstract", action="store_true",
                       help="switch every operator to its abstract counterpart")
        q.add_argument("--unroll", action="store_true",
                       help="unroll recursive abstract last/delay")
        q.add_argument("--time-aware", action="store_true",
                       help="use time-aware abstractions for timestamp patterns")

    q = sub.add_parser("run", help="evaluate a spec over a trace")
    q.add_argument("spec")
    q.add_argument("trace")
    add_transform_flags(q)
    q.add_argument("--path", choices=("native", "encoded"), default="native",
                   help="abstract semantics directly, or encoded with concrete "
                        "operators only")
    q.add_argument("-o", "--output", help="write the result trace to a file")
    q.set_defaults(fn=cmd_run)

    q = sub.add_parser("check", help="well-formedness report")
    q.add_argument("spec")
    add_transform_flags(q)
    q.set_defaults(fn=cmd_check, path="native")

    q = sub.add_parser("render", help="ASCII trace diagram")
    q.add_argument("trace")
    q.set_defaults(fn=cmd_render)

    q = sub.add_parser("depth", help="computation depth, concrete vs abstract")
    q.add_argument("spec")
    q.add_argument("--time-aware", action="store_true")
    q.set_defaults(fn=cmd_depth)

    q = sub.add_parser("ignorance", help="optimal vs abstract ignorance")
    q.add_argument("spec")
    q.add_argument("trace")
    q.add_argument("--universe-grid", default="", help="comma-separated timestamps")
    q.add_argument("--universe-values", action="append",
                   help="values, optionally per stream as name:v1,v2")
    q.add_argument("--budget", type=int, default=200000)
    q.add_argument("--measure", default="set",
                   help="'set' or 'interval:lo,hi'")
    q.add_argument("--output", help="output stream to score (default: first)")
    q.add_argument("--time-aware", action="store_true")
    q.set_defaults(fn=cmd_ignorance)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as e:
        print(str(e), file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
