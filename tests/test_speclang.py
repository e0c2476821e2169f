"""Spec language: parsing, graphs, well-formedness, transformations."""

from dataclasses import replace
from fractions import Fraction as F
import pytest

from gapstream.abstract import AbstractEventStream, refinement_leq
from gapstream.builtin_specs import SPEC_NAMES, spec_text
from gapstream.errors import (ArityMismatch, SpecSyntaxError, UnknownIdentifier,
                              UnsupportedRecursionShape)
from gapstream.encoded import build_encoded, evaluate_encoded
from gapstream.evaluator import evaluate_fixpoint
from gapstream.speclang import (abstractify, check_well_formed,
                                computation_depth, flatten, format_spec,
                                parse_spec, unroll)
from gapstream.streams import EventStream, Progress
from gapstream.tracefile import parse_trace, serialize_trace
from gapstream.values import TOP, UNIT, Interval

from conftest import (RECURSIVE_LAST_TIME, RECURSIVE_LAST_TIME_FULL,
                      RECURSIVE_LAST_TIME_GAPPED, reverse_chain_spec)

APP_A = """
in x : Events[Unit]
def y := merge(lift(inc)(last(y, x)), const(0)(unit()))
out y
"""


class TestParsing:
    def test_reset_sum_parses(self):
        ast = parse_spec(spec_text("reset-sum"))
        assert len(ast.defs) == 3
        assert ast.outputs == ("cond", "sum")

    def test_self_reference_parses(self):
        ast = parse_spec("in y : Events[Int]\ndef x := last(x, y)\nout x\n")
        assert len(ast.defs) == 1

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse_spec("in y : Events[Int]\ndef x := lift(frobnicate)(y)\nout x\n")

    def test_unknown_operator(self):
        with pytest.raises(UnknownIdentifier):
            parse_spec("in y : Events[Int]\ndef x := frobnicate(y)\nout x\n")

    def test_arity_mismatch(self):
        # the lift family's stream count is its function's arity
        for expr in ("last(y)", "lift(add)(y)", "slift_time(leq)(y, y, y)",
                     "merge_abs()"):
            with pytest.raises(ArityMismatch):
                parse_spec(f"in y : Events[Int]\ndef x := {expr}\nout x\n")

    def test_undefined_stream(self):
        with pytest.raises(UnknownIdentifier):
            parse_spec("in y : Events[Int]\ndef x := time(zz)\nout x\n")

    @pytest.mark.parametrize("expr", [
        "const(1/0)(y)", "lift(window_strip(1/0))(y, y)", "const([3, 1])(y)",
        "const([inf, inf])(y)",
        "lift(enq_bounded(top))(y, y, y)", "lift(enq_bounded(0))(y, y, y)",
        "lift(enq_bounded(1))(y, y, y)", "lift(enq_bounded(5/2))(y, y, y)",
        "lift(window_strip(0))(y, y)", "slift(window_integral(0))(y, y)",
        "lift(timeout_after(0))(y, y)",
    ])
    def test_bad_literal_is_typed(self, expr):
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec(f"in y : Events[Int]\ndef x := {expr}\nout x\n")
        assert "line 2" in str(e.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec("in y : Events[Int]\ndef x := time(y\nout x\n")
        assert "line 2" in str(e.value)

    def test_roundtrip_all_bundled(self):
        for name in SPEC_NAMES:
            ast = parse_spec(spec_text(name))
            again = parse_spec(format_spec(ast))
            assert replace(again, mode=ast.mode) == ast

    def test_roundtrip_transformed(self):
        ast = abstractify(parse_spec(spec_text("reset-sum")), time_aware=True)
        again = parse_spec(format_spec(ast))
        assert replace(again, mode="abstract") == ast
        un = unroll(ast)
        again = parse_spec(format_spec(un))
        assert replace(again, mode="abstract") == un


class TestWellFormedness:
    def test_guarded_recursion_ok(self):
        assert check_well_formed(flatten(parse_spec(APP_A))) is None

    def test_unguarded_cycle_reported(self):
        ast = parse_spec("in y : Events[Int]\ndef x := merge(x, y)\nout x\n")
        report = check_well_formed(flatten(ast))
        assert report is not None
        assert "x" in report.cycle

    def test_abstract_last_recursion_needs_unrolling(self):
        ast = abstractify(parse_spec(APP_A))
        report = check_well_formed(flatten(ast))
        assert report is not None
        fixed = unroll(ast)
        assert check_well_formed(flatten(fixed)) is None

    def test_recursive_time_aware_last_unrolls_into_its_halves(self):
        # last_time unrolls as last_abs does, into its own value half and the
        # shared gap half, so the cycle keeps the interval the encoded path,
        # which needs no unrolling, gives too
        spec = parse_spec(RECURSIVE_LAST_TIME)
        gapped = parse_trace(RECURSIVE_LAST_TIME_GAPPED)
        ab = abstractify(spec, time_aware=True)
        graph = flatten(unroll(ab))
        assert {e.op for _, e in graph.equations} >= {"last_time_bot", "last_gap"}
        assert "last_time" not in {e.op for _, e in graph.equations}
        timed = evaluate_fixpoint(graph, gapped.streams)["t"]
        assert timed.at(F(5)) == Interval.of(1, 4)
        eg = build_encoded(flatten(ab), gapped.epsilon / 2)
        encoded = evaluate_encoded(eg, gapped.streams, gapped.progress,
                                   gapped.horizon())["t"]
        texts = [serialize_trace((("t", "Interval"),), {"t": s}, gapped.epsilon,
                                 gapped.progress) for s in (timed, encoded)]
        assert texts[0] == texts[1] and "5: t = [1, 4]" in texts[0]
        full = parse_trace(RECURSIVE_LAST_TIME_FULL).streams
        concrete = evaluate_fixpoint(flatten(spec), full)["t"]
        assert refinement_leq(AbstractEventStream.of(concrete), timed)

    def test_unrollable_limit(self):
        ast = parse_spec("in y : Events[Int]\ndef x := merge(x, y)\nout x\n")
        with pytest.raises(UnsupportedRecursionShape):
            unroll(replace(ast, mode="abstract"))


class TestAbstractify:
    def test_structure_preserved(self):
        for name in SPEC_NAMES:
            ast = parse_spec(spec_text(name))
            ab = abstractify(ast)
            g1, g2 = flatten(ast), flatten(ab)
            assert len(g1.equations) == len(g2.equations)
            deps1 = sorted((a, b) for a, (deps, _) in g1.nodes.items() for b in deps)
            deps2 = sorted((a, b) for a, (deps, _) in g2.nodes.items() for b in deps)
            assert deps1 == deps2

    def test_operator_mapping(self):
        ab = abstractify(parse_spec(APP_A))
        text = format_spec(ab)
        assert "last_abs" in text and "merge_abs" in text
        assert "lift_abs" in text and "const_abs" in text

    def test_time_aware_patterns(self):
        ast = parse_spec(spec_text("reset-sum"))
        ab = abstractify(ast, time_aware=True)
        assert "slift_time(leq)(values, resets)" in format_spec(ab)
        ast2 = parse_spec(spec_text("filter-example"))
        ab2 = abstractify(ast2, time_aware=True)
        assert "last_time(values, values)" in format_spec(ab2)


class TestUnroll:
    def test_four_equation_pattern(self):
        ab = abstractify(parse_spec(APP_A))
        un = unroll(ab)
        text = format_spec(un)
        assert "last_bot(" in text and "last_gap(" in text
        # value half feeds the final stream, gap half takes the primed clone
        assert check_well_formed(flatten(un)) is None

    def test_non_recursive_unchanged(self):
        ast = abstractify(parse_spec(spec_text("filter-example")))
        assert unroll(ast) == ast

    @pytest.mark.parametrize("time_aware", [False, True])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_no_clone_equals_its_original(self, name, time_aware):
        # an equation that reaches the target only through a history half is
        # not cloned: its clone would repeat it
        ast = abstractify(parse_spec(spec_text(name)), time_aware=time_aware)
        before = {n for n, _ in flatten(ast).equations}
        equations = flatten(unroll(ast)).equations
        for name_a, a in equations:
            for name_b, b in equations:
                if name_a not in before and name_a != name_b:
                    assert (a.op, a.args, a.fn, a.lit) != (b.op, b.args, b.fn, b.lit), \
                        (name_a, name_b)

    def test_mutual_recursion_self_updating_queue(self):
        ab = abstractify(parse_spec(spec_text("self-updating-queue")))
        un = unroll(ab)
        assert check_well_formed(flatten(un)) is None
        assert "delay_bot(" in format_spec(un)

    def test_no_limit_on_recursive_operators(self):
        # nine independent counters: one rewrite each, eight equations each
        ast = parse_spec("in y : Events[Unit]\n" + "".join(
            f"def c{i} := merge(lift(inc)(last(c{i}, y)), const(0)(unit()))\n"
            f"out c{i}\n" for i in range(9)))
        graph = flatten(unroll(abstractify(ast)))
        assert check_well_formed(graph) is None
        assert len(graph.equations) == 72
        y = EventStream.of([(F(t), UNIT) for t in (1, 2, 7, F(15, 2))],
                           Progress.inclusive_at(9))
        concrete = evaluate_fixpoint(flatten(ast), {"y": y})
        abstract = evaluate_fixpoint(graph, {"y": AbstractEventStream.of(y)})
        for i in range(9):
            assert abstract[f"c{i}"] == AbstractEventStream.of(concrete[f"c{i}"])

    @pytest.mark.parametrize("time_aware", [False, True])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_every_equation_is_read_by_an_output(self, name, time_aware):
        graph = flatten(unroll(abstractify(parse_spec(spec_text(name)),
                                           time_aware=time_aware)))
        read, todo = set(), list(graph.outputs)
        while todo:
            n = todo.pop()
            if n in graph.nodes and n not in read:
                read.add(n)
                todo.extend(graph.nodes[n][0])
        assert read == set(graph.nodes)


# recursive merges nested anonymously, and the same specs with the inner
# merges named, which unroll does not splice
HEAD = "in x : Events[Int]\nin y : Events[Unit]\n"
NESTED_MERGES = {
    "right": ("def c := merge(x, merge(lift(inc)(last(c, y)), const(0)(unit())))\n",
              "def m := merge(lift(inc)(last(c, y)), const(0)(unit()))\n"
              "def c := merge(x, m)\n"),
    "left": ("def c := merge(merge(x, lift(inc)(last(c, y))), const(0)(unit()))\n",
             "def m := merge(x, lift(inc)(last(c, y)))\n"
             "def c := merge(m, const(0)(unit()))\n"),
    "three-deep": ("def c := merge(x, merge(lift(inc)(last(c, y)), "
                   "merge(const(7)(y), const(0)(unit()))))\n",
                   "def n := merge(const(7)(y), const(0)(unit()))\n"
                   "def m := merge(lift(inc)(last(c, y)), n)\n"
                   "def c := merge(x, m)\n"),
}
SPLICED_ARITY = {"right": 3, "left": 3, "three-deep": 4}
NESTED_MERGE_TRACES = {
    "gap-free": "stream x : Int\nstream y : Unit\n1: y = ()\n2: x = 4\n2: y = ()\n"
                "3: y = ()\n5: x = 1\n6: y = ()\n7: y = ()\nprogress 9\n",
    "gapped": "stream x : Int\nstream y : Unit\n1: y = ()\n2: x = 4\n2: y = ()\n"
              "3: gap x\n4: known x\n4: y = ()\n5: x = #top\n6: gap y\n6.5: known y\n"
              "7: y = ()\nprogress 9\n",
}
# a declared name unroll would give its bot half or a clone, and the same
# spec with the name free
COLLIDING = ("in y : Events[Unit]\nin x : Events[Int]\ndef c := merge(x, last(c, y))\n"
             "def {} := const(7)(y)\nout c\n")
COLLIDING_TRACE = ("stream y : Unit\nstream x : Int\n1: x = 1\n2: gap x\n3: known x\n"
                   "4: y = ()\n6: y = ()\nprogress 9\n")


class TestSpliceMerges:
    """unroll splices a merge nested anonymously in a merge into its argument list."""

    @pytest.mark.parametrize("trace", sorted(NESTED_MERGE_TRACES))
    @pytest.mark.parametrize("time_aware", [False, True])
    @pytest.mark.parametrize("shape", sorted(NESTED_MERGES))
    def test_spliced_equals_named(self, shape, time_aware, trace):
        nested, named = NESTED_MERGES[shape]
        tr = parse_trace(NESTED_MERGE_TRACES[trace])
        envs = []
        for body in (nested, named):
            ast = abstractify(parse_spec(HEAD + body + "out c\n"), time_aware=time_aware)
            graph = flatten(unroll(ast))
            assert check_well_formed(graph) is None
            envs.append((graph, evaluate_fixpoint(graph, tr.streams)))
        (spliced, got), (kept, want) = envs
        assert got["c"] == want["c"]
        # the named inner merges stay equations, and two arguments each
        defs = dict(kept.equations)
        assert all(len(defs[n].args) == 2 for n in ("m", "n") if n in defs)
        c = dict(spliced.equations)["c"]
        assert c.op == "merge_abs" and len(c.args) == SPLICED_ARITY[shape]
        assert len(spliced.equations) < len(kept.equations)

    def test_gap_free_equals_concrete(self):
        tr = parse_trace(NESTED_MERGE_TRACES["gap-free"])
        for nested, _ in NESTED_MERGES.values():
            ast = parse_spec(HEAD + nested + "out c\n")
            concrete = evaluate_fixpoint(flatten(ast), tr.streams)
            abstract = evaluate_fixpoint(flatten(unroll(abstractify(ast))), tr.streams)
            assert abstract["c"] == AbstractEventStream.of(concrete["c"])

    def test_spec_without_rewrite_comes_back_unchanged(self):
        # nested merges, but no cycle to unroll
        ast = abstractify(parse_spec(HEAD + "def c := merge(x, merge(const(1)(y), x))\n"
                                     "out c\n"))
        assert unroll(ast) is ast

    @pytest.mark.parametrize("name", ["__t1__bot", "c__pre"])
    def test_generated_names_skip_declared_ones(self, name):
        tr = parse_trace(COLLIDING_TRACE)
        outs = []
        for declared in (name, "tb"):
            graph = flatten(unroll(abstractify(parse_spec(COLLIDING.format(declared)))))
            names = [n for n, _ in graph.equations]
            assert len(names) == len(set(names))
            outs.append(evaluate_fixpoint(graph, tr.streams)["c"])
        assert outs[0] == outs[1]
        # the sound answer: the last value may lie in x's gap
        assert [(t, v) for t, v in outs[0].stream.events if t > 3] == [(4, TOP), (6, TOP)]


class TestDepth:
    def test_single_lift(self):
        ast = parse_spec("in y : Events[Int]\ndef x := lift(inc)(y)\nout x\n")
        assert computation_depth(flatten(ast)) == 1

    def test_longest_path(self):
        ast = parse_spec(
            "in y : Events[Int]\n"
            "def a := lift(inc)(y)\n"
            "def b := lift(inc)(a)\n"
            "def c := merge(a, b)\n"
            "out c\n")
        assert computation_depth(flatten(ast)) == 3

    def test_reset_sum_depths(self):
        ast = parse_spec(spec_text("reset-sum"))
        d = computation_depth(flatten(ast))
        d_abs = computation_depth(flatten(abstractify(ast)))
        # same node/edge shape, but the abstract last no longer guards,
        # so paths through it start counting
        assert d > 0 and d_abs >= d


class TestDeepChains:
    """The graph walks keep their own stack, so chain length is no limit."""

    def test_reverse_chain(self):
        ast = parse_spec(reverse_chain_spec(3000))
        g = flatten(ast)
        assert check_well_formed(g) is None
        assert computation_depth(g) == 3001
        assert check_well_formed(flatten(unroll(abstractify(ast)))) is None

    def test_reverse_chain_closed_by_last(self):
        ast = parse_spec(reverse_chain_spec(
            3000, "merge(last(a3000, x), const(0)(unit()))"))
        assert check_well_formed(flatten(ast)) is None
        report = check_well_formed(flatten(abstractify(ast)))
        assert len(report.cycle) == 3002 and report.cycle[:2] == ("a3000", "a2999")
        unrolled = flatten(unroll(abstractify(ast)))
        assert check_well_formed(unrolled) is None
        assert "__t1__bot" in dict(unrolled.equations)
        assert computation_depth(unrolled) == 3003
