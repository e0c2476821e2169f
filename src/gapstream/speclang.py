"""The equation DSL: parsing, dependency graphs, transformations.

A specification is a list of input declarations, possibly recursive stream
definitions, and output markers:

    in values : Events[Int]
    def cond := slift(leq)(time(values), time(resets))
    out cond

Expressions apply core operators to stream expressions; lift-family
operators take a registry function (optionally parameterized, e.g.
window_strip(5)) and const takes a literal.  Abstract operator names carry
an _abs suffix (plus last_bot/last_gap style unrolling variants); they are
normally produced by abstractify rather than written by hand, but the
parser accepts them so transformed specs round-trip through text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import count
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from .errors import (ArityMismatch, SpecSyntaxError, UnknownIdentifier,
                     UnsupportedRecursionShape)
from .functions import LiftedFunction, known_names, lookup
from .queues import EMPTY_QUEUE
from .timeline import INF
from .values import TOP, UNIT


@dataclass(frozen=True)
class FnRef:
    name: str
    params: Tuple[object, ...] = ()

    def resolve(self) -> LiftedFunction:
        return self._fn

    @cached_property
    def _fn(self) -> LiftedFunction:
        # built on the first resolve (at parse time) and kept on this
        # reference, outside the fields that make up its == and hash
        return lookup(self.name, self.params)

    def __str__(self):
        if self.params:
            inner = ", ".join(format_literal(p) for p in self.params)
            return f"{self.name}({inner})"
        return self.name


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Apply:
    op: str
    args: Tuple[object, ...] = ()
    fn: Optional[FnRef] = None
    lit: Optional[object] = None


STREAM_TYPES = ("Unit", "Bool", "Int", "Real", "AbsBool", "Interval")


@dataclass(frozen=True)
class Operator:
    """One row of the operator table.

    impl names the implementing function: in ops for a concrete operator,
    in absops for an abstract one.  It is a name, not the function, so the
    evaluator looks the function up on every call.  encode names the
    function in encoded that expands an abstract operator into concrete
    nodes; the unroll halves derive theirs from their base row's.
    """

    impl: str
    min_args: int               # stream arguments accepted by the parser
    max_args: Optional[int]     # None: no upper bound
    takes: str = "streams"      # "fn": a registry function first; "lit": a literal
    guarded: Tuple[int, ...] = ()   # argument positions that break cycles
    abstract: Optional[str] = None  # counterpart; set exactly on concrete rows
    unroll: Optional[Tuple[str, str]] = None  # value and gap halves
    history: bool = False       # last/delay family: unroll never clones it
    encode: Optional[str] = None    # encoded function of an abstract row
    # The evaluator passes the equation's current value as prev=.  The
    # implementation must then return prev extended to its new output,
    # which is sound because the fixed point calls it on growing prefixes
    # of its arguments and it is prefix-monotone (see absops).
    resumes: bool = False
    # The evaluator passes state=, a holder it keeps per pair of argument
    # names and the implementation fills; the holder sees only growing
    # prefixes of those two streams, as prev does.  No row does both.
    stateful: bool = False

    @property
    def concrete(self) -> bool:
        return self.abstract is not None


# The plain abstract last/delay have no guarded position: their gap output
# can feed back into the value input at the same timestamp once encoded,
# which is what the unrolled bot/gap halves repair; each half reads its
# value input strictly in the past, so both count as guards.  The parser
# also holds the lift family's stream count to its function's arity.
OPERATORS: Dict[str, Operator] = {
    "nil": Operator("nil", 0, 0, abstract="nil_abs"),
    "unit": Operator("unit", 0, 0, abstract="unit_abs"),
    "time": Operator("time", 1, 1, abstract="time_abs", resumes=True),
    "last": Operator("last", 2, 2, guarded=(0,), abstract="last_abs", history=True,
                     resumes=True),
    "delay": Operator("delay", 2, 2, guarded=(0,), abstract="delay_abs", history=True,
                      stateful=True),
    "merge": Operator("merge", 1, None, abstract="merge_abs", resumes=True),
    "lift": Operator("lift", 0, None, takes="fn", abstract="lift_abs", resumes=True),
    "slift": Operator("slift", 0, None, takes="fn", abstract="slift_abs", resumes=True),
    "const": Operator("const", 1, 1, takes="lit", abstract="const_abs", resumes=True),
    "nil_abs": Operator("nil_abs", 0, 0, encode="_enc_nil"),
    "unit_abs": Operator("unit_abs", 0, 0, encode="_enc_unit"),
    "time_abs": Operator("time_abs", 1, 1, encode="_enc_time", resumes=True),
    "last_abs": Operator("last_abs", 2, 2, unroll=("last_bot", "last_gap"),
                         history=True, encode="_enc_last", resumes=True),
    "delay_abs": Operator("delay_abs", 2, 2, unroll=("delay_bot", "delay_gap"),
                          history=True, encode="_enc_delay", stateful=True),
    "delay_fin": Operator("delay_abs_fin", 2, 2, stateful=True),
    "merge_abs": Operator("merge_abs", 1, None, encode="_enc_merge", resumes=True),
    "lift_abs": Operator("lift_abs", 0, None, takes="fn", encode="_enc_lift",
                         resumes=True),
    "slift_abs": Operator("slift_abs", 0, None, takes="fn", encode="_enc_slift",
                          resumes=True),
    "const_abs": Operator("const_abs", 1, 1, takes="lit", encode="_enc_const",
                          resumes=True),
    "last_time": Operator("last_time_abs", 2, 2, unroll=("last_time_bot", "last_gap"),
                          history=True, encode="_enc_last_time", resumes=True),
    "slift_time": Operator("slift_time_abs", 2, 2, takes="fn",
                           encode="_enc_slift_time", resumes=True),
    "last_bot": Operator("last_abs_bot", 2, 2, guarded=(0,), history=True,
                         resumes=True),
    "last_time_bot": Operator("last_time_abs_bot", 2, 2, guarded=(0,), history=True,
                              resumes=True),
    "last_gap": Operator("last_abs_gap", 3, 3, guarded=(0,), history=True, resumes=True),
    "delay_bot": Operator("delay_abs_bot", 2, 2, guarded=(0,), history=True,
                          stateful=True),
    "delay_gap": Operator("delay_abs_gap", 3, 3, guarded=(0,), history=True,
                          stateful=True),
}

# Holds the evaluator's sweep count in the environment it returns.
RESERVED_NAME = "__sweeps__"


@dataclass(frozen=True)
class SpecAst:
    inputs: Tuple[Tuple[str, str], ...]
    defs: Tuple[Tuple[str, object], ...]
    outputs: Tuple[str, ...]
    mode: str = "concrete"


# -- tokenizer / parser ------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+/\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>:=|[():,\[\]]))"
)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()

    def parse(self) -> SpecAst:
        inputs, defs, outputs = [], [], []
        declared = set()

        def declare(name, lineno):
            if name in declared:
                raise SpecSyntaxError(f"duplicate name '{name}'", lineno)
            if name == RESERVED_NAME:
                raise SpecSyntaxError(
                    f"'{name}' is reserved for the evaluator's sweep count", lineno)
            declared.add(name)

        for lineno, raw in enumerate(self.lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "in":
                name, ty = self._parse_input(rest, lineno)
                declare(name, lineno)
                inputs.append((name, ty))
            elif head == "def":
                name, expr = self._parse_def(rest, lineno)
                declare(name, lineno)
                defs.append((name, expr))
            elif head == "out":
                outputs.append(rest.strip())
            else:
                raise SpecSyntaxError(f"unrecognized directive '{head}'", lineno)
        ast = SpecAst(tuple(inputs), tuple(defs), tuple(outputs))
        _check_names(ast)
        return ast

    def _parse_input(self, rest: str, lineno: int):
        m = re.fullmatch(r"\s*(\w+)\s*:\s*Events\s*\[\s*(\w+)\s*\]\s*", rest)
        if not m:
            raise SpecSyntaxError("expected 'in <name> : Events[<Type>]'", lineno)
        name, ty = m.group(1), m.group(2)
        if ty not in STREAM_TYPES:
            raise SpecSyntaxError(f"unknown stream type '{ty}'", lineno)
        return name, ty

    def _parse_def(self, rest: str, lineno: int):
        name, sep, body = rest.partition(":=")
        if not sep:
            raise SpecSyntaxError("expected 'def <name> := <expr>'", lineno)
        toks = _tokenize(body, lineno)
        expr, pos = _parse_expr(toks, 0, lineno)
        if pos != len(toks):
            raise SpecSyntaxError(f"trailing tokens after expression", lineno)
        return name.strip(), expr


def _tokenize(text: str, lineno: int) -> list:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise SpecSyntaxError(f"bad token near '{text[pos:pos+10]}'", lineno, pos + 1)
            break
        pos = m.end()
        if m.group("num"):
            toks.append(("num", m.group("num")))
        elif m.group("name"):
            toks.append(("name", m.group("name")))
        else:
            toks.append(("sym", m.group("sym")))
    return toks


def _expect(toks, pos, sym, lineno):
    if pos >= len(toks) or toks[pos] != ("sym", sym):
        got = toks[pos][1] if pos < len(toks) else "end of line"
        raise SpecSyntaxError(f"expected '{sym}', got '{got}'", lineno)
    return pos + 1


_LITERALS = {"true": True, "false": False, "emptyq": EMPTY_QUEUE, "top": TOP, "inf": INF}


def _parse_literal(toks, pos, lineno):
    if pos < len(toks):
        kind, val = toks[pos]
        if kind == "num":
            return _parse_number(val, lineno), pos + 1
        if (kind, val) == ("sym", "(") and pos + 1 < len(toks) and toks[pos + 1] == ("sym", ")"):
            return UNIT, pos + 2
        if kind == "name" and val in _LITERALS:
            return _LITERALS[val], pos + 1
        if (kind, val) == ("sym", "["):
            from .values import Interval
            lo, pos = _parse_literal(toks, pos + 1, lineno)
            pos = _expect(toks, pos, ",", lineno)
            hi, pos = _parse_literal(toks, pos, lineno)
            pos = _expect(toks, pos, "]", lineno)
            try:
                return Interval.of(lo, hi), pos
            except (TypeError, ValueError) as e:
                raise SpecSyntaxError(f"bad interval literal: {e}", lineno)
    raise SpecSyntaxError("expected a literal", lineno)


def _parse_number(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SpecSyntaxError(f"bad number '{text}'", lineno)


def _parse_expr(toks, pos, lineno):
    if pos >= len(toks):
        raise SpecSyntaxError("expected an expression", lineno)
    kind, val = toks[pos]
    if kind != "name":
        raise SpecSyntaxError(f"expected a name or operator, got '{val}'", lineno)
    name = val
    pos += 1
    is_call = pos < len(toks) and toks[pos] == ("sym", "(")
    if not is_call:
        return Ref(name), pos
    row = OPERATORS.get(name)
    if row is None:
        raise UnknownIdentifier(f"unknown operator '{name}'", lineno)
    pos += 1  # past '('
    fn = lit = arity = None
    if row.takes != "streams":
        if row.takes == "fn":
            fn, arity, pos = _parse_fnref(toks, pos, lineno)
        else:
            lit, pos = _parse_literal(toks, pos, lineno)
        pos = _expect(toks, pos, ")", lineno)
        pos = _expect(toks, pos, "(", lineno)
    args, pos = _parse_args(toks, pos, lineno)
    if row.max_args is None:
        if len(args) < row.min_args:
            raise ArityMismatch(f"{name} needs at least one stream", lineno)
    elif len(args) != row.max_args:
        raise ArityMismatch(
            f"operator '{name}' takes {row.max_args} arguments, got {len(args)}",
            lineno)
    if arity is not None and len(args) != arity:
        raise ArityMismatch(
            f"function '{fn}' takes {arity} streams, got {len(args)}", lineno)
    return Apply(name, tuple(args), fn=fn, lit=lit), pos


def _parse_fnref(toks, pos, lineno):
    if pos >= len(toks) or toks[pos][0] != "name":
        raise SpecSyntaxError("expected a function name", lineno)
    fname = toks[pos][1]
    pos += 1
    params = []
    if pos < len(toks) and toks[pos] == ("sym", "("):
        pos += 1
        while True:
            lit, pos = _parse_literal(toks, pos, lineno)
            params.append(lit)
            if pos < len(toks) and toks[pos] == ("sym", ","):
                pos += 1
                continue
            break
        pos = _expect(toks, pos, ")", lineno)
    ref = FnRef(fname, tuple(params))
    if fname not in known_names():
        raise UnknownIdentifier(f"unknown function '{fname}'", lineno)
    try:
        arity = ref.resolve().arity
    except (UnknownIdentifier, ArityMismatch) as e:
        raise type(e)(str(e), lineno)
    except (TypeError, ValueError, ArithmeticError) as e:
        # a parameter of the wrong kind, such as top for a count
        raise SpecSyntaxError(f"bad parameters for function '{ref}': {e}", lineno)
    return ref, arity, pos


def _parse_args(toks, pos, lineno):
    args = []
    if pos < len(toks) and toks[pos] == ("sym", ")"):
        return args, pos + 1
    while True:
        expr, pos = _parse_expr(toks, pos, lineno)
        args.append(expr)
        if pos < len(toks) and toks[pos] == ("sym", ","):
            pos += 1
            continue
        break
    return args, _expect(toks, pos, ")", lineno)


def _check_names(ast: SpecAst):
    known = {n for n, _ in ast.inputs} | {n for n, _ in ast.defs}

    def walk(e):
        if isinstance(e, Ref):
            if e.name not in known:
                raise UnknownIdentifier(f"undefined stream '{e.name}'")
        elif isinstance(e, Apply):
            for a in e.args:
                walk(a)

    for _, e in ast.defs:
        walk(e)
    for o in ast.outputs:
        if o not in known:
            raise UnknownIdentifier(f"undefined output '{o}'")


def parse_spec(text: str) -> SpecAst:
    return _Parser(text).parse()


# -- pretty printing ---------------------------------------------------------

def format_literal(v) -> str:
    from .values import Interval
    if v is UNIT:
        return "()"
    if v is TOP:
        return "top"
    if v is INF:
        return "inf"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, Interval):
        return f"[{format_literal(v.lo)}, {format_literal(v.hi)}]"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if v is EMPTY_QUEUE:
        return "emptyq"
    return str(v)


def format_expr(e) -> str:
    if isinstance(e, Ref):
        return e.name
    assert isinstance(e, Apply)
    args = ", ".join(format_expr(a) for a in e.args)
    takes = OPERATORS[e.op].takes
    if takes == "fn":
        return f"{e.op}({e.fn})({args})"
    if takes == "lit":
        return f"{e.op}({format_literal(e.lit)})({args})"
    return f"{e.op}({args})"


def format_spec(ast: SpecAst) -> str:
    lines = [f"in {n} : Events[{t}]" for n, t in ast.inputs]
    lines += [f"def {n} := {format_expr(e)}" for n, e in ast.defs]
    lines += [f"out {n}" for n in ast.outputs]
    return "\n".join(lines) + "\n"


# -- dependency graph --------------------------------------------------------

# name -> (argument names, guarded argument positions), in declaration order
Nodes = Dict[str, Tuple[Sequence[str], Collection[int]]]
# (order, recursive) per strongly connected component; see sweep_plan
Plan = List[Tuple[List[str], bool]]
# name -> the nodes that read it; see readers
Readers = Dict[str, Tuple[str, ...]]


@dataclass
class SpecGraph:
    """Flattened spec: every definition is a single operator application."""

    ast: SpecAst
    inputs: Tuple[str, ...]
    equations: Tuple[Tuple[str, Apply], ...]  # args are all Refs
    outputs: Tuple[str, ...]

    @cached_property
    def nodes(self) -> Nodes:
        """Each equation's argument names and guarded argument positions."""
        return {name: (tuple([a.name for a in app.args]), OPERATORS[app.op].guarded)
                for name, app in self.equations}

    @cached_property
    def plan(self) -> Plan:
        """The fixed point's schedule, sweep_plan of the nodes."""
        return sweep_plan(self.nodes)

    @cached_property
    def readers(self) -> Readers:
        """The equations each stream feeds, readers of the nodes."""
        return readers(self.nodes)


def flatten(ast: SpecAst) -> SpecGraph:
    """A-normal form: one operator per equation, nested uses named __tN.

    Fresh names skip every name the spec declares itself.
    """
    counter = [0]
    equations: List[Tuple[str, Apply]] = []
    declared = {n for n, _ in ast.inputs} | {n for n, _ in ast.defs}

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"__t{counter[0]}"
            if name not in declared:
                return name

    def norm(e, top_name=None) -> object:
        if isinstance(e, Ref):
            return e
        args = []
        for a in e.args:
            na = norm(a)
            args.append(na)
        app = Apply(e.op, tuple(args), fn=e.fn, lit=e.lit)
        name = top_name or fresh()
        equations.append((name, app))
        return Ref(name)

    for name, e in ast.defs:
        if isinstance(e, Ref):
            # alias: def a := b
            equations.append((name, Apply("merge", (e,))))
        else:
            norm(e, top_name=name)
    return SpecGraph(
        ast=ast,
        inputs=tuple(n for n, _ in ast.inputs),
        equations=tuple(equations),
        outputs=ast.outputs,
    )


@dataclass(frozen=True)
class CycleReport:
    cycle: Tuple[str, ...]

    def __str__(self):
        return " -> ".join(self.cycle + (self.cycle[0],))


def check_well_formed(g: SpecGraph) -> Optional[CycleReport]:
    """None when fine; otherwise one cycle that crosses no guarded edge."""
    cycle, _ = unguarded_walk(g.nodes)
    return None if cycle is None else CycleReport(cycle)


def computation_depth(g: SpecGraph) -> int:
    """Longest operator chain, guarded edges not counted as dependencies."""
    return unguarded_walk(g.nodes)[1]


def unguarded_walk(nodes: Nodes) -> Tuple[Optional[Tuple[str, ...]], int]:
    """One depth-first walk over the unguarded arguments of the nodes.

    An argument that is not a node (an input) ends a chain.  Returns the
    first cycle met that crosses no guarded position (None when there is
    none) and the most nodes on a chain linked through unguarded arguments,
    a cycle counting from zero where it closes.
    """
    memo: Dict[str, int] = {}   # chain length; 0 while the node is on the stack
    cycle: Optional[Tuple[str, ...]] = None

    def enter(name) -> list:
        # [name, unguarded arguments still to visit, longest of those visited]
        memo[name] = 0
        args, guarded = nodes[name]
        if guarded:
            args = [a for i, a in enumerate(args) if i not in guarded]
        return [name, iter(args), 0]

    for root in nodes:
        if root in memo:
            continue
        work = [enter(root)]    # an explicit stack, for long chains
        while work:
            frame = work[-1]
            a = next(frame[1], None)
            if a is None:
                work.pop()
                d = memo[frame[0]] = 1 + frame[2]
                if work and work[-1][2] < d:
                    work[-1][2] = d
            elif a in memo:
                d = memo[a]
                if d == 0 and cycle is None:
                    path = [f[0] for f in work]
                    cycle = tuple(path[path.index(a):])
                elif frame[2] < d:
                    frame[2] = d
            elif a in nodes:
                work.append(enter(a))
    return cycle, max(memo.values(), default=0)


def sweep_plan(nodes: Nodes) -> Plan:
    """The schedule of a fixed point over the nodes, in component order.

    One (order, recursive) per strongly connected component of the nodes'
    arguments, dependencies first.  A node alone in its component that does
    not read itself is ([name], False) and is evaluated at most once.  A recursive
    component lists its members in the order of its unguarded internal
    edges (declaration order when an unguarded cycle leaves no such order).
    """
    names = list(nodes)
    pos = {name: i for i, name in enumerate(names)}
    reads = [[pos[d] for d in deps if d in pos] for deps, _ in nodes.values()]
    plan: Plan = []
    for members in _components(reads):
        if len(members) == 1 and members[0] not in reads[members[0]]:
            plan.append(([names[members[0]]], False))
            continue
        inside = set(members)
        needs: Dict[int, List[int]] = {i: [] for i in members}  # unguarded reads
        for i in members:
            deps, guarded = nodes[names[i]]
            for k, d in enumerate(deps):
                j = pos.get(d)
                if j in inside and k not in guarded:
                    needs[i].append(j)
        try:
            order = list(TopologicalSorter(needs).static_order())
        except CycleError:
            order = members
        plan.append(([names[i] for i in order], True))
    return plan


def readers(nodes: Nodes) -> Readers:
    """Each node and each argument name mapped to the nodes that read it, once each."""
    out: Dict[str, Dict[str, None]] = {name: {} for name in nodes}
    for name, (deps, _) in nodes.items():
        for d in deps:
            out.setdefault(d, {})[name] = None
    return {d: tuple(r) for d, r in out.items()}


def _components(reads: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components, each after every component it reads.

    Tarjan's algorithm with an explicit stack, so long dependency chains do
    not meet the recursion limit.  Members are listed in declaration order.
    """
    index = [-1] * len(reads)
    low = [0] * len(reads)
    on_stack = [False] * len(reads)
    stack: List[int] = []
    out: List[List[int]] = []
    visits = count()

    def enter(v):
        index[v] = low[v] = next(visits)
        stack.append(v)
        on_stack[v] = True
        return v, iter(reads[v])

    for root in range(len(reads)):
        if index[root] >= 0:
            continue
        work = [enter(root)]
        while work:
            v, pending = work[-1]
            w = next(pending, None)
            if w is None:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        on_stack[members[-1]] = False
                    out.append(sorted(members))
            elif index[w] < 0:
                work.append(enter(w))
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
    return out


# -- transformations ---------------------------------------------------------

def abstractify(ast: SpecAst, time_aware: bool = False) -> SpecAst:
    """Swap every concrete operator for its abstract counterpart.

    With time_aware, occurrences of slift(f)(time(x), time(y)) become the
    time-aware signal lift and last(time(v), r) the time-aware last, which
    keep timestamp comparisons precise across gaps.
    """

    def rewrite(e):
        if isinstance(e, Ref):
            return e
        if time_aware and e.op == "slift" and len(e.args) == 2:
            a, b = e.args
            if (isinstance(a, Apply) and a.op == "time"
                    and isinstance(b, Apply) and b.op == "time"):
                return Apply("slift_time",
                             (rewrite(a.args[0]), rewrite(b.args[0])), fn=e.fn)
        if time_aware and e.op == "last" and len(e.args) == 2:
            v, r = e.args
            if isinstance(v, Apply) and v.op == "time":
                return Apply("last_time", (rewrite(v.args[0]), rewrite(r)))
        op = OPERATORS[e.op].abstract or e.op
        return Apply(op, tuple(rewrite(a) for a in e.args), fn=e.fn, lit=e.lit)

    return replace(
        ast,
        defs=tuple((n, rewrite(e)) for n, e in ast.defs),
        mode="abstract",
    )


def unroll(ast: SpecAst) -> SpecAst:
    """Split recursive abstract last/delay into value and gap halves.

    Each rewrite replaces x = last_abs(v, r) on an unguarded cycle by

        x_bot = last_bot(v, r)        # guarded in v
        v'    = f(x_bot, ...)         # clone of the value chain
        x     = last_gap(v', r, x_bot)

    and analogously for delay_abs and the time-aware last_time, whose
    halves are last_time_bot and last_gap.  It repeats while the graph has
    an unguarded cycle, and it ends: a clone never copies a history
    operator, so each rewrite removes one last/delay.  Once none is left on
    a cycle, the cycle cannot be unrolled and is reported.  The halves and
    clones are named {x}__bot and {n}__pre, with a number where a name is
    taken.

    Before the first rewrite, a merge nested anonymously in a merge of the
    same operator is spliced into the outer argument list (_splice_merges):
    merge(a, merge(b, c)) becomes merge(a, b, c), one equation the fixed
    point evaluates, and clones, where there were two.  That is exact:
    absops.merge_cells is a right fold of merge_cell, which is associative
    on every cell, events, BOTTOM, GAP and TOP alike, and the progress is
    the minimum either way.  A named merge is a Ref and stays an equation.
    The splice is left out of flatten, whose graph is the one
    computation_depth and check measure: it would shorten the depths the
    paper's overhead table compares.  A spec with no cycle to unroll comes
    back as it was.
    """
    g = flatten(replace(ast, defs=tuple((n, _splice_merges(e)) for n, e in ast.defs)))
    step = 0
    while (report := check_well_formed(g)) is not None:
        defs = dict(g.equations)
        target = next((name for name in report.cycle
                       if OPERATORS[defs[name].op].unroll), None)
        if target is None:
            raise UnsupportedRecursionShape(
                f"cycle without last/delay cannot be unrolled: {report}")
        g = _unroll_one(g, target, step)
        step += 1
    return ast if step == 0 else _graph_to_ast(g, ast)


_SPLICED = ("merge", "merge_abs")


def _splice_merges(e):
    """e with each merge nested anonymously in a merge of the same operator spliced into it."""
    if isinstance(e, Ref):
        return e
    args = []
    changed = False
    for a in e.args:
        b = _splice_merges(a)
        if e.op in _SPLICED and isinstance(b, Apply) and b.op == e.op:
            args.extend(b.args)
            changed = True
        else:
            args.append(b)
            changed = changed or b is not a
    return Apply(e.op, tuple(args), fn=e.fn, lit=e.lit) if changed else e


def _unroll_one(g: SpecGraph, target: str, step: int) -> SpecGraph:
    """Rewrite target into its halves, cloning what its value input reads.

    The clone set is the closure of the value input over its arguments,
    kept inside the equations that read target through non-history users
    only; the clones read the value half where the originals read target.
    An equation that reaches target only through a history operator is not
    cloned: it reads neither target nor a clone that differs, so its clone
    would be the same equation with the same least fixed point.
    """
    defs = dict(g.equations)
    app = defs[target]
    bot_op, gap_op = OPERATORS[app.op].unroll
    v_ref, r_ref = app.args[0], app.args[1]

    users_of: Dict[str, List[str]] = {}
    for n, (deps, _) in g.nodes.items():
        if not OPERATORS[defs[n].op].history:
            for d in deps:
                users_of.setdefault(d, []).append(n)
    inside = _closure({target}, users_of) - {target}
    clone_set = _closure({v_ref.name} & inside,
                         {n: [d for d in g.nodes[n][0] if d in inside] for n in inside})

    taken = set(g.inputs) | set(defs)

    def fresh(stem: str) -> str:
        # stem, numbered from the step on; a name the spec or an earlier
        # rewrite holds would replace the equation drawn here
        k = step
        while True:
            name = stem if k == 0 else f"{stem}{k + 1}"
            k += 1
            if name not in taken:
                taken.add(name)
                return name

    bot_name = fresh(f"{target}__bot")
    prime = {n: fresh(f"{n}__pre") for n in sorted(clone_set)}
    prime[target] = bot_name

    def remap(ref: Ref) -> Ref:
        return Ref(prime.get(ref.name, ref.name))

    new_equations: List[Tuple[str, Apply]] = []
    for name, e in g.equations:
        if name != target:
            new_equations.append((name, e))
            continue
        new_equations.append((bot_name, Apply(bot_op, (v_ref, r_ref))))
        for cn, ce in g.equations:
            if cn in clone_set:
                new_equations.append(
                    (prime[cn], Apply(ce.op, tuple(remap(a) for a in ce.args),
                                      fn=ce.fn, lit=ce.lit)))
        new_equations.append((name, Apply(gap_op, (remap(v_ref), r_ref, Ref(bot_name)))))
    return SpecGraph(ast=g.ast, inputs=g.inputs,
                     equations=tuple(new_equations), outputs=g.outputs)


def _closure(seed: set, edges: Dict[str, Sequence[str]]) -> set:
    out = set(seed)
    todo = list(seed)
    while todo:
        n = todo.pop()
        for m in edges.get(n, ()):
            if m not in out:
                out.add(m)
                todo.append(m)
    return out


def _graph_to_ast(g: SpecGraph, base: SpecAst) -> SpecAst:
    return replace(base, defs=tuple(g.equations), mode=base.mode)
