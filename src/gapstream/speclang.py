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
from fractions import Fraction
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
    evaluator looks the function up on every call.
    """

    impl: str
    min_args: int               # stream arguments accepted by the parser
    max_args: Optional[int]     # None: no upper bound
    takes: str = "streams"      # "fn": a registry function first; "lit": a literal
    guarded: Tuple[int, ...] = ()   # argument positions that break cycles
    abstract: Optional[str] = None  # counterpart; set exactly on concrete rows
    unroll: Optional[Tuple[str, str]] = None  # value and gap halves
    history: bool = False       # last/delay family: unroll never clones it

    @property
    def concrete(self) -> bool:
        return self.abstract is not None


# The plain abstract last/delay have no guarded position: their gap output
# can feed back into the value input at the same timestamp once encoded,
# which is what the unrolled bot/gap halves repair; each half reads its
# value input strictly in the past, so both count as guards.  The lift
# family's stream count is checked only when its function is applied.
OPERATORS: Dict[str, Operator] = {
    "nil": Operator("nil", 0, 0, abstract="nil_abs"),
    "unit": Operator("unit", 0, 0, abstract="unit_abs"),
    "time": Operator("time", 1, 1, abstract="time_abs"),
    "last": Operator("last", 2, 2, guarded=(0,), abstract="last_abs", history=True),
    "delay": Operator("delay", 2, 2, guarded=(0,), abstract="delay_abs", history=True),
    "merge": Operator("merge", 1, None, abstract="merge_abs"),
    "lift": Operator("lift", 0, None, takes="fn", abstract="lift_abs"),
    "slift": Operator("slift", 0, None, takes="fn", abstract="slift_abs"),
    "const": Operator("const", 1, 1, takes="lit", abstract="const_abs"),
    "nil_abs": Operator("nil_abs", 0, 0),
    "unit_abs": Operator("unit_abs", 0, 0),
    "time_abs": Operator("time_abs", 1, 1),
    "last_abs": Operator("last_abs", 2, 2, unroll=("last_bot", "last_gap"),
                         history=True),
    "delay_abs": Operator("delay_abs", 2, 2, unroll=("delay_bot", "delay_gap"),
                          history=True),
    "delay_fin": Operator("delay_abs_fin", 2, 2),
    "merge_abs": Operator("merge_abs", 0, None),
    "lift_abs": Operator("lift_abs", 0, None, takes="fn"),
    "slift_abs": Operator("slift_abs", 0, None, takes="fn"),
    "const_abs": Operator("const_abs", 1, 1, takes="lit"),
    "last_time": Operator("last_time_abs", 2, 2, history=True),
    "slift_time": Operator("slift_time_abs", 0, None, takes="fn"),
    "last_bot": Operator("last_abs_bot", 2, 2, guarded=(0,), history=True),
    "last_gap": Operator("last_abs_gap", 3, 3, guarded=(0,), history=True),
    "delay_bot": Operator("delay_abs_bot", 2, 2, guarded=(0,), history=True),
    "delay_gap": Operator("delay_abs_gap", 3, 3, guarded=(0,), history=True),
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
            return _parse_number(val), pos + 1
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
            return Interval.of(lo, hi), pos
    raise SpecSyntaxError("expected a literal", lineno)


def _parse_number(text: str) -> Fraction:
    return Fraction(text)


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
    fn = lit = None
    if row.takes != "streams":
        if row.takes == "fn":
            fn, pos = _parse_fnref(toks, pos, lineno)
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
        ref.resolve()
    except (UnknownIdentifier, ArityMismatch) as e:
        raise type(e)(str(e), lineno)
    return ref, pos


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

@dataclass
class SpecGraph:
    """Flattened spec: every definition is a single operator application."""

    ast: SpecAst
    inputs: Tuple[str, ...]
    equations: Tuple[Tuple[str, Apply], ...]  # args are all Refs
    outputs: Tuple[str, ...]

    def dependencies(self):
        """Edges name -> (dep name, guarded)."""
        edges = []
        for name, app in self.equations:
            guarded = OPERATORS[app.op].guarded
            for i, a in enumerate(app.args):
                edges.append((name, a.name, i in guarded))
        return edges


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
    adj: Dict[str, list] = {}
    for src, dst, guarded in g.dependencies():
        if not guarded and dst not in g.inputs:
            adj.setdefault(src, []).append(dst)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack: List[str] = []

    def dfs(n) -> Optional[Tuple[str, ...]]:
        color[n] = GRAY
        stack.append(n)
        for m in adj.get(n, ()):
            c = color.get(m, WHITE)
            if c == GRAY:
                i = stack.index(m)
                return tuple(stack[i:])
            if c == WHITE:
                got = dfs(m)
                if got:
                    return got
        stack.pop()
        color[n] = BLACK
        return None

    for name, _ in g.equations:
        if color.get(name, WHITE) == WHITE:
            got = dfs(name)
            if got:
                return CycleReport(got)
    return None


def computation_depth(g: SpecGraph) -> int:
    """Longest operator chain, guarded edges not counted as dependencies."""
    return longest_chain({name: ([a.name for a in app.args], OPERATORS[app.op].guarded)
                          for name, app in g.equations})


def longest_chain(nodes: Dict[str, Tuple[Sequence[str], Collection[int]]]) -> int:
    """Most nodes on a chain linked through unguarded arguments.

    nodes maps a name to its argument names and guarded argument positions;
    an argument that is not a node (an input) ends the chain.  A cycle,
    which well-formedness allows only through guarded positions, counts from
    zero where it closes.
    """
    memo: Dict[str, int] = {}

    def depth(name) -> int:
        if name not in nodes:
            return 0
        if name in memo:
            return memo[name]
        memo[name] = 0
        args, guarded = nodes[name]
        memo[name] = 1 + max((depth(a) for i, a in enumerate(args) if i not in guarded),
                             default=0)
        return memo[name]

    return max((depth(n) for n in nodes), default=0)


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


def unroll(ast: SpecAst, max_steps: int = 8) -> SpecAst:
    """Split recursive abstract last/delay into value and gap halves.

    Each rewrite replaces x = last_abs(v, r) on an unguarded cycle by

        x_bot = last_bot(v, r)        # guarded in v
        v'    = f(x_bot, ...)         # clone of the cycle body
        x     = last_gap(v', r, x_bot)

    and analogously for delay_abs.  Repeats until the graph is well-formed
    or the step ceiling trips (mutual recursion may need several rounds).
    """
    g = flatten(ast)
    for step in range(max_steps):
        report = check_well_formed(g)
        if report is None:
            return ast if step == 0 else _graph_to_ast(g, ast)
        cycle = set(report.cycle)
        defs = dict(g.equations)
        target = None
        for name in report.cycle:
            app = defs.get(name)
            if app is not None and OPERATORS[app.op].unroll:
                target = name
                break
        if target is None:
            raise UnsupportedRecursionShape(
                f"cycle without last/delay cannot be unrolled: {report}")
        g = _unroll_one(g, target, cycle, step)
    if check_well_formed(g) is None:
        return _graph_to_ast(g, ast)
    raise UnsupportedRecursionShape(
        f"still ill-formed after {max_steps} unrolling steps")


def _unroll_one(g: SpecGraph, target: str, cycle: set, step: int) -> SpecGraph:
    defs = dict(g.equations)
    app = defs[target]
    bot_op, gap_op = OPERATORS[app.op].unroll
    v_ref, r_ref = app.args[0], app.args[1]

    # clone set: definitions on a path from target back to v, excluding other
    # guard-family operators, which keep referencing the final streams
    deps_of: Dict[str, set] = {n: {a.name for a in e.args} for n, e in g.equations}
    users_of: Dict[str, set] = {}
    for n, ds in deps_of.items():
        for d in ds:
            users_of.setdefault(d, set()).add(n)

    reaches_from_target = _closure({target}, users_of)   # nodes depending on target
    feeds_v = _closure({v_ref.name}, deps_of)            # nodes v depends on, plus v
    clone_set = {
        n for n in reaches_from_target & feeds_v
        if n != target and n in defs and not OPERATORS[defs[n].op].history
    }
    if v_ref.name not in clone_set:
        # the value input is the target itself or a guard node: nothing to clone
        clone_set = set()

    suffix = "" if step == 0 else str(step + 1)
    bot_name = f"{target}__bot{suffix}"
    prime = {n: f"{n}__pre{suffix}" for n in clone_set}

    def remap(ref: Ref) -> Ref:
        if ref.name == target:
            return Ref(bot_name)
        return Ref(prime.get(ref.name, ref.name))

    new_equations: List[Tuple[str, Apply]] = []
    for name, e in g.equations:
        if name == target:
            new_equations.append((bot_name, Apply(bot_op, (v_ref, r_ref))))
            for cn, ce in g.equations:
                if cn in clone_set:
                    new_equations.append(
                        (prime[cn], Apply(ce.op, tuple(remap(a) for a in ce.args),
                                          fn=ce.fn, lit=ce.lit)))
            v_prime = Ref(prime.get(v_ref.name, bot_name if v_ref.name == target else v_ref.name))
            new_equations.append(
                (name, Apply(gap_op, (v_prime, r_ref, Ref(bot_name)))))
        else:
            new_equations.append((name, e))
    return SpecGraph(ast=g.ast, inputs=g.inputs,
                     equations=tuple(new_equations), outputs=g.outputs)


def _closure(seed: set, edges: Dict[str, set]) -> set:
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
