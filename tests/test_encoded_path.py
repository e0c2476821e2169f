"""The concrete-operator realization of abstract semantics (path B)."""

from fractions import Fraction as F

import pytest

from conftest import RECURSIVE_LAST_TIME, RECURSIVE_LAST_TIME_GAPPED
from gapstream.builtin_specs import SPEC_NAMES, _TRACE_KEYS, spec_text, trace_text
from gapstream.encoded import build_encoded, evaluate_encoded
from gapstream.errors import OperatorError
from gapstream.evaluator import evaluate_fixpoint
from gapstream.speclang import abstractify, check_well_formed, flatten, parse_spec, unroll
from gapstream.streams import Progress
from gapstream.tracefile import parse_trace, serialize_trace


def both_paths(spec, trace, time_aware=False, encode_unrolled=False):
    ast = parse_spec(spec)
    tr = parse_trace(trace)
    ab = abstractify(ast, time_aware=time_aware)
    native_env = evaluate_fixpoint(flatten(unroll(ab)), tr.streams)
    eg = build_encoded(flatten(unroll(ab) if encode_unrolled else ab), tr.epsilon / 2)
    encoded = evaluate_encoded(eg, tr.streams, tr.progress, tr.horizon())
    return ast, tr, native_env, encoded, eg


def serialized(tr, stream, name):
    return serialize_trace(((name, "Int"),), {name: stream}, tr.epsilon, tr.progress)


ABSTRACT_CASES = [
    (name, tkey)
    for name in SPEC_NAMES
    for tkey in _TRACE_KEYS[name]
    if "fig" not in tkey or "queue" in name
]
ABSTRACT_CASES.remove(("running-count", "running-count"))

# gaps after the last event under infinite progress: one that ends, one
# that runs to infinity, and one that runs on past an event inside it
TRAILING_GAP = ("stream values : Int\nstream resets : Unit\n1: values = 3\n"
                "2: resets = ()\n5: gap values\n{}progress inf\n")


class TestPathEquivalence:
    @pytest.mark.parametrize("name,tkey", ABSTRACT_CASES)
    def test_native_equals_encoded(self, name, tkey):
        ast, tr, native, encoded, _ = both_paths(spec_text(name), trace_text(tkey))
        for out in ast.outputs:
            a = serialized(tr, native[out], out)
            b = serialized(tr, encoded[out], out)
            assert a == b, f"{name}/{tkey}/{out}:\n{a}\nvs\n{b}"

    @pytest.mark.parametrize("tail, want", [
        ("8: known values\n", ["5: gap", "8: known"]),
        ("", ["5: gap"]),
        ("7: values = 1\n", ["5: gap", "7: known", "8: gap"]),
    ], ids=["closed", "open", "punched"])
    def test_trailing_gap_under_infinite_progress(self, tail, want):
        ast, tr, native, encoded, _ = both_paths(spec_text("reset-sum"),
                                                 TRAILING_GAP.format(tail))
        for out in ast.outputs:
            a = serialized(tr, native[out], out)
            assert a == serialized(tr, encoded[out], out)
            marks = [line for line in a.splitlines() if " gap " in line or " known " in line]
            assert marks == [f"{w} {out}" for w in want]

    def test_time_aware_paths_agree(self):
        ast, tr, native, encoded, _ = both_paths(
            spec_text("reset-sum"), trace_text("reset-sum-gapped"), time_aware=True)
        for out in ast.outputs:
            assert serialized(tr, native[out], out) == serialized(tr, encoded[out], out)

    @pytest.mark.parametrize("spec,trace,time_aware", [
        (spec_text("reset-count"), trace_text("reset-count-gapped"), False),
        (spec_text("variable-period"), trace_text("variable-period-gapped"), False),
        (RECURSIVE_LAST_TIME, RECURSIVE_LAST_TIME_GAPPED, True),
    ], ids=["reset-count-reset-count-gapped", "variable-period-variable-period-gapped",
            "recursive-last-time"])
    def test_unrolled_halves_encode(self, spec, trace, time_aware):
        # the last, time-aware last and delay halves are encoded from their
        # base operators
        ast, tr, native, encoded, _ = both_paths(spec, trace, time_aware=time_aware,
                                                 encode_unrolled=True)
        for out in ast.outputs:
            assert serialized(tr, native[out], out) == serialized(tr, encoded[out], out)

    def test_exclusive_progress_rejected(self):
        tr = parse_trace(trace_text("reset-sum-gapped"))
        eg = build_encoded(flatten(abstractify(parse_spec(spec_text("reset-sum")))),
                           tr.epsilon / 2)
        with pytest.raises(OperatorError, match="inclusive or infinite progress"):
            evaluate_encoded(eg, tr.streams, Progress.exclusive(tr.progress.time),
                             tr.horizon())

    def test_encoded_needs_no_unrolling(self):
        # the abstract graph is ill-formed, yet its encoding is evaluable
        ab = abstractify(parse_spec(spec_text("reset-sum")))
        assert check_well_formed(flatten(ab)) is not None
        tr = parse_trace(trace_text("reset-sum-gapped"))
        eg = build_encoded(flatten(ab), tr.epsilon / 2)
        out = evaluate_encoded(eg, tr.streams, tr.progress, tr.horizon())
        assert out["sum"].stream.events


class TestEncodedStructure:
    def test_expansion_uses_many_concrete_nodes(self):
        ab = abstractify(parse_spec(spec_text("reset-sum")))
        eg = build_encoded(flatten(ab), F(1, 2))
        concrete_nodes = len(eg.nodes)
        abstract_nodes = len(flatten(ab).equations)
        assert concrete_nodes > 5 * abstract_nodes

    def test_depth_exceeds_concrete(self):
        for name in SPEC_NAMES:
            ast = parse_spec(spec_text(name))
            from gapstream.speclang import computation_depth
            d = computation_depth(flatten(ast))
            eg = build_encoded(flatten(abstractify(ast)), F(1, 2))
            assert eg.depth() > d, name
