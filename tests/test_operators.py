"""The operator table: every row resolves, encodes and evaluates, and the
evaluator looks implementations up when it calls them."""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gapstream import absops, encoded, evaluator, ops
from gapstream.abstract import AbstractEventStream
from gapstream.builtin_specs import SPEC_NAMES, spec_text, trace_text
from gapstream.encoded import build_encoded
from gapstream.errors import OperatorError
from gapstream.evaluator import Message, OnlineEvaluator, evaluate_fixpoint
from gapstream.speclang import OPERATORS, abstractify, flatten, parse_spec, unroll
from gapstream.streams import EventStream, Progress
from gapstream.timeline import Span, TimeSet
from gapstream.tracefile import parse_trace

ABSTRACT = sorted(n for n, row in OPERATORS.items() if not row.concrete)
INPUTS = {"x": EventStream.of([(1, F(2))], Progress.infinite())}


def tiny_graph(name):
    """One equation applying the named operator to the input x."""
    row = OPERATORS[name]
    n = row.max_args if row.max_args is not None else 2
    head = {"fn": f"{name}(add)", "lit": f"{name}(1)"}.get(row.takes, name)
    ast = parse_spec(f"in x : Events[Int]\ndef z := {head}({', '.join(['x'] * n)})\n"
                     f"out z\n")
    return flatten(ast if row.concrete else abstractify(ast))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_row_is_consistent(name):
    row = OPERATORS[name]
    assert callable(getattr(ops if row.concrete else absops, row.impl))
    if row.concrete:
        assert not OPERATORS[row.abstract].concrete
    for half in row.unroll or ():
        assert not OPERATORS[half].concrete and OPERATORS[half].guarded


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_row_evaluates(name):
    env = evaluate_fixpoint(tiny_graph(name), INPUTS)
    want = EventStream if OPERATORS[name].concrete else AbstractEventStream
    assert isinstance(env["z"], want)


# an input x, and x cut at a lower progress; the abstract rows also take x
# with a gap, cut inside it
LONG = EventStream.of([(1, F(2)), (3, F(1)), (6, F(3))], Progress.infinite())
GAPPED = AbstractEventStream.of(LONG, TimeSet.of(Span(4, True, 5, False)))
RESUMED = {"concrete": (LONG, LONG.truncated(Progress.inclusive_at(2))),
           "gapped": (GAPPED, AbstractEventStream.of(
               LONG.truncated(Progress.exclusive(F(9, 2))), GAPPED.gaps))}


@pytest.mark.parametrize("name, x, cut", [
    pytest.param(name, x, cut, id=f"{name}-{kind}")
    for name in sorted(OPERATORS) for kind, (x, cut) in RESUMED.items()
    if kind == "concrete" or not OPERATORS[name].concrete])
def test_row_resumes(name, x, cut):
    # every row gets prev, the stateful ones their holder too: a fixed point
    # from the run state of one over the cut x gives what a fresh one gives
    graph = tiny_graph(name)
    run = evaluator._Run(graph)
    evaluate_fixpoint(graph, {"x": cut}, _run=run)
    assert evaluate_fixpoint(graph, {"x": x}, _run=run) == evaluate_fixpoint(graph, {"x": x})


@pytest.mark.parametrize("name", ABSTRACT)
def test_abstract_row_encodes(name):
    graph = tiny_graph(name)
    if name == "delay_fin":
        # the finite-memory delay has no realization with concrete operators
        with pytest.raises(OperatorError):
            build_encoded(graph, F(1, 2))
    else:
        assert len(build_encoded(graph, F(1, 2)).nodes) > 0


def test_every_abstract_row_has_an_encoding():
    # a row names its encoder, or is an unroll half of a row that does
    halves = {h: base for base in OPERATORS.values() for h in base.unroll or ()}
    unencoded = []
    for name in ABSTRACT:
        row = OPERATORS[name]
        if row.encode is not None:
            assert callable(getattr(encoded, row.encode)), name
        elif name in halves:
            assert callable(getattr(encoded, halves[name].encode)), name
        else:
            unencoded.append(name)
    assert unencoded == ["delay_fin"]
    assert all(row.encode is None for row in OPERATORS.values() if row.concrete)
    with pytest.raises(OperatorError,
                       match="operator 'delay_fin' has no concrete encoding"):
        build_encoded(tiny_graph("delay_fin"), F(1, 2))


# (depth, node count) of each bundled spec's encoding: plain, time-aware,
# unrolled, unrolled time-aware
ENCODED_SIZES = {
    "running-count": ((19, 46), (19, 46), (23, 90), (23, 90)),
    "reset-count": ((34, 206), (34, 214), (35, 349), (35, 357)),
    "reset-sum": ((34, 206), (34, 214), (35, 349), (35, 357)),
    "filter-example": ((26, 62), (26, 60), (26, 62), (26, 60)),
    "variable-period": ((28, 98), (28, 98), (35, 167), (35, 167)),
    "bursts": ((37, 163), (37, 161), (37, 254), (37, 252)),
    "queue": ((35, 121), (35, 121), (38, 226), (38, 226)),
    "finite-queue": ((35, 121), (35, 121), (38, 226), (38, 226)),
    "self-updating-queue": ((50, 194), (50, 194), (53, 375), (53, 375)),
}


@pytest.mark.parametrize("name", SPEC_NAMES)
@pytest.mark.parametrize("time_aware", [False, True])
@pytest.mark.parametrize("unrolled", [False, True])
def test_encoded_graph_size(name, time_aware, unrolled):
    ast = abstractify(parse_spec(spec_text(name)), time_aware=time_aware)
    if unrolled:
        ast = unroll(ast)
    eg = build_encoded(flatten(ast), F(1, 2))
    want = ENCODED_SIZES[name][2 * unrolled + time_aware]
    assert (eg.depth(), len(eg.nodes)) == want


def test_synchronized_builds_each_stream_once_against_the_others():
    def merge(*xs):
        return f"m({','.join(xs)})"

    def last(x, r):
        return f"l({x},{r})"

    assert encoded.synchronized(["a"], merge, last) == ["a"]
    assert encoded.synchronized(["a", "b"], merge, last) == ["m(a,l(a,b))", "m(b,l(b,a))"]
    assert encoded.synchronized(["a", "b", "c"], merge, last) == [
        "m(a,l(a,m(b,c)))", "m(b,l(b,m(a,c)))", "m(c,l(c,m(a,b)))"]


@pytest.mark.parametrize("module, name", [(ops, "last"), (absops, "delay_abs")])
def test_evaluator_calls_patched_implementation(monkeypatch, module, name):
    # instrumentation wraps module attributes: a bound equation resolves its
    # row once, but looks its implementation up on ops or absops at every
    # evaluation (test_tracer_sees_every_evaluation patches after the build)
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    env = evaluate_fixpoint(tiny_graph(name), INPUTS)
    assert len(calls) == env["__sweeps__"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name, monkeypatch=None):
    """perfbench's module name, loaded from its file under a private name;
    registered in sys.modules for the test's length with monkeypatch, as
    dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_attributes_and_restores_them():
    # perfbench's --trace run wraps engine attributes by name; a renamed
    # operator would make instrument() fail or leave a wrapper behind
    tracer_module = perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer.instrument()
        patched = list(tracer._patched)
        assert {(owner, attr) for owner, attr, _, _ in patched} >= {
            (absops, name) for name in tracer_module.ABSOPS}
        for owner, attr, _, original in patched:
            assert getattr(owner, attr) is not original, f"{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, own, original in patched:
        assert (vars(owner).get(attr) is original) if own else attr not in vars(owner)


def test_tracer_sees_every_evaluation(monkeypatch):
    # a dispatch or implementation bound early would read zero in a layer
    # of perfbench's --trace run; its own check is Tracer.require on the
    # workload's active list
    monkeypatch.syspath_prepend(str(PERFBENCH))    # workloads imports gen and oracle
    tracer_module = perfbench_module("tracer")
    workloads = perfbench_module("workloads", monkeypatch)
    # the monitor is built before any wrapper is patched in
    monitor = OnlineEvaluator(flatten(parse_spec(spec_text("reset-sum"))))
    counted = []
    for dispatch in ("_eval_concrete", "_eval_abstract"):
        def counting(eq, *args, evaluate=getattr(evaluator, dispatch)):
            counted.append(eq.op)
            return evaluate(eq, *args)
        monkeypatch.setattr(evaluator, dispatch, counting)
    tracer = tracer_module.Tracer()
    tracer.instrument()             # wraps the counting dispatch
    try:
        trace = parse_trace(trace_text("reset-sum-fig"))
        tracer.begin("online")
        for msg in workloads.gen.online_messages(trace, Message):
            monitor.feed(msg)
        tracer.end()
        assert tracer.calls("evaluator.op_eval") == len(counted) > 0
        tracer.require(workloads.ResetSumOnline.active)

        counted.clear()
        graph = flatten(unroll(abstractify(parse_spec(spec_text("variable-period")),
                                           time_aware=True)))
        trace = parse_trace(trace_text("variable-period-gapped"))
        tracer.begin("offline")
        evaluator.evaluate_fixpoint(graph, trace.streams)
        tracer.end()
        assert tracer.calls("evaluator.op_eval") == len(counted) > 0
        tracer.require(workloads.PeriodGapped.active)
    finally:
        tracer.uninstall()
