"""The operator table: every row resolves, encodes and evaluates, and the
evaluator looks implementations up when it calls them."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from gapstream import absops, ops
from gapstream.abstract import AbstractEventStream
from gapstream.encoded import build_encoded
from gapstream.errors import OperatorError
from gapstream.evaluator import evaluate_fixpoint
from gapstream.speclang import OPERATORS, abstractify, flatten, parse_spec
from gapstream.streams import EventStream, Progress

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


@pytest.mark.parametrize("name", ABSTRACT)
def test_abstract_row_encodes(name):
    graph = tiny_graph(name)
    if name == "delay_fin":
        # the finite-memory delay has no realization with concrete operators
        with pytest.raises(OperatorError):
            build_encoded(graph, F(1, 2))
    else:
        assert build_encoded(graph, F(1, 2)).node_count() > 0


@pytest.mark.parametrize("module, name", [(ops, "last"), (absops, "delay_abs")])
def test_evaluator_calls_patched_implementation(monkeypatch, module, name):
    # instrumentation wraps module attributes, so dispatch must not bind them early
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    env = evaluate_fixpoint(tiny_graph(name), INPUTS)
    assert len(calls) == env["__sweeps__"]


def test_tracer_wraps_existing_attributes_and_restores_them():
    # perfbench's --trace run wraps engine attributes by name; a renamed
    # operator would make instrument() fail or leave a wrapper behind
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
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
