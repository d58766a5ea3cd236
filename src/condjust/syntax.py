"""Syntax for the conditional justification logic family.

Two language families share one AST: the counterfactual dialects (material
implication, counterfactual conditional, justification terms built from
constants, variables, application, sum, proof checker and pair, plus an S5 box
in dialect L) and the relevant dialect JRC (relevant implication and
conditional, terms restricted to variables and sums). Derived connectives
(or, biconditionals, fusion, truth constants) are expanded at parse time, so
trees only ever contain the primitive constructors below.
"""

from __future__ import annotations

import enum
import inspect
import re
from dataclasses import dataclass

__all__ = [
    "Dialect",
    "Constant", "Variable", "App", "Sum", "Bang", "Pair", "Term",
    "Atom", "Neg", "And", "MatImp", "Counterfactual", "RelImp", "RelCf",
    "Just", "Box", "Formula",
    "ParseError", "DialectError",
    "parse_formula", "parse_term", "print_formula", "print_term",
    "subformulas", "atoms", "terms_of", "subterms",
    "node_count", "formula_key", "term_key", "closure", "check_dialect_formula",
]


class Dialect(enum.Enum):
    """Named logics sharing the grammar, each enabling a slice of it."""

    LPCplus = "lpcplus"
    LPCint = "lpcint"
    LPCprime = "lpcprime"
    LPCKplus = "lpckplus"
    J4Cplus = "j4cplus"
    JCplus = "jcplus"
    L = "l"
    JRC = "jrc"


# Every node is hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): construction looks the node up by its class and
# fields and returns the one already built, so structurally equal trees are
# the same object. Equality and hashing are therefore by identity, and a
# node's table key hashes only its children's identities, never a subtree.
# The table is a plain dict that lives as long as the process: a weak table
# rebuilt the probe nodes the model checkers create and drop on every call.
_INTERNED: dict[tuple, _Node] = {}


class _Node:
    # Field names in declaration order, set per class. The underscore keeps
    # it clear of field names, as in namedtuple; hilbert's matcher reads it.
    _fields: tuple[str, ...]
    # The fields that hold a child node, in the same order; a field
    # annotated str holds a name. The cold tree walks read these.
    _node_fields: tuple[str, ...]
    # Constructors in the tree, set once when the node is interned; its
    # children are interned first, so this is one step per node.
    _size: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = inspect.get_annotations(cls)
        cls._fields = tuple(annotations)
        cls._node_fields = tuple(name for name, kind in annotations.items()
                                 if kind != "str")
        cls._signature = inspect.Signature(
            [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in cls._fields]
        )

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._signature.bind(*args, **kwargs).args
        key = (cls, *args)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            # A non-node child (hilbert's pattern variables) counts as one.
            object.__setattr__(node, "_size", 1 + sum(
                getattr(v, "_size", 1) for v in args if not isinstance(v, str)))
            # setdefault keeps the first copy when two threads build one node.
            node = _INTERNED.setdefault(key, node)
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class _TermNode(_Node):
    def __repr__(self) -> str:
        return print_term(self)


class _FormulaNode(_Node):
    def __repr__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Constant(_TermNode):
    name: str


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Variable(_TermNode):
    name: str


@dataclass(frozen=True, repr=False, eq=False, init=False)
class App(_TermNode):
    left: Term
    right: Term


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Sum(_TermNode):
    left: Term
    right: Term


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Bang(_TermNode):
    inner: Term


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Pair(_TermNode):
    inner: Term
    antecedent: Formula


Term = Constant | Variable | App | Sum | Bang | Pair


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Atom(_FormulaNode):
    name: str


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Neg(_FormulaNode):
    inner: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class And(_FormulaNode):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class MatImp(_FormulaNode):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Counterfactual(_FormulaNode):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class RelImp(_FormulaNode):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class RelCf(_FormulaNode):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Just(_FormulaNode):
    term: Term
    inner: Formula


@dataclass(frozen=True, repr=False, eq=False, init=False)
class Box(_FormulaNode):
    inner: Formula


Formula = Atom | Neg | And | MatImp | Counterfactual | RelImp | RelCf | Just | Box

_CONDITIONALS = (MatImp, Counterfactual, RelImp, RelCf)

# The node classes each dialect's grammar admits: the one statement of the
# dialects that the parser's token gates and check_dialect_formula read.
_COUNTERFACTUAL = frozenset({Atom, Neg, And, MatImp, Counterfactual, Just,
                             Constant, Variable, App, Sum, Bang})
_ADMITS: dict[Dialect, frozenset[type]] = {
    **dict.fromkeys(Dialect, _COUNTERFACTUAL),
    Dialect.LPCint: _COUNTERFACTUAL | {Pair},
    Dialect.L: _COUNTERFACTUAL | {Box},
    Dialect.JRC: frozenset({Atom, Neg, And, RelImp, RelCf, Just, Variable, Sum}),
}
# check_dialect_formula's message for each class that some dialect refuses.
_REFUSALS = {
    Box: "box is not in dialect {}",
    **dict.fromkeys((RelImp, RelCf), "relevant connectives are not in dialect {}"),
    **dict.fromkeys((MatImp, Counterfactual),
                    "material and counterfactual conditionals are not in dialect {}"),
    Pair: "pair terms are not in dialect {}",
    **dict.fromkeys((App, Bang, Constant), "dialect {} terms are variables and sums only"),
}


class ParseError(ValueError):
    """Raised on malformed input; carries the offset where parsing failed."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


class DialectError(ParseError):
    """A construct that exists in the grammar but not in the chosen dialect."""


# --- parsing ----------------------------------------------------------
#
# The grammar, loosest first: `==` and `<=>` (left), the conditionals `=>`,
# `>`, `->` and `~>` (right), `|` and `@` (left), `&` (left), then the
# prefixes `~`, `[]` and `t:`. Terms bind `+` (left) looser than `.` (left),
# with `!` as their prefix; a pair `<t,A>` reads its antecedent at the `|`
# level.
#
# One compiled pass turns the text into a list of token strings. Each match
# takes in the whitespace before it, so no token is whitespace; a character
# that starts no token becomes a one-character token of its own, and the
# list ends with at least one "" for the end of input. Offsets are
# recomputed from the text only for an error message.
_TOKEN_RE = re.compile(r"\s*(<=>|~>|->|=>|==|\[\]|[~&|@>:+.!()<,]|[a-z][a-z0-9_]*|\S|\Z)")
_OPERATORS = frozenset(["<=>", "~>", "->", "=>", "==", "[]", *"~&|@>:+.!()<,"])

_RESERVED_TERM_VARS = re.compile(r"[xyz][0-9]*$")
_CONSTANT_NAME = re.compile(r"c([0-9]*|_[a-z0-9_]+)$")
# First letters of the identifiers that can only name an atom.
_ATOM_START = frozenset("abdefghijklmnopqrstuvw")
_TERM_FOLLOW = frozenset(":+.")

# The parser is operator precedence over an operand stack and an operator
# stack (Pratt, "Top down operator precedence", 1973; Dijkstra's
# shunting-yard), so nesting depth costs list entries, not interpreter
# frames. Operator-stack entries are ints whose bits from 16 up hold the
# binding strength, so "reduce while the top binds at least this tightly" is
# one int comparison. A context entry (strength 0) stops every reduction and
# names what closes it.
(_F_TOP, _F_PAREN, _F_PAIR, _T_TOP, _T_JUST, _T_JUST_MARKED, _T_PAREN,
 _T_PAIR) = range(8)
_CLOSERS = ("", ")", ">", "", ":", ":", ")", ",")
_IFF_MAT, _IFF_CF, _IFF_REL = 16, 17, 18
_MATIMP, _CF, _RELIMP, _RELCF = 32, 33, 34, 35
_OR, _FUS, _FUS_GATED = 48, 49, 50
_AND = 64
_JUST = 80
_NEG, _BOX, _BANG = 96, 97, 98  # the unary entries
_SUM, _APP = 24, 40
# Operand-position actions, never pushed.
_JUSTIFY, _LPAREN, _FALSE, _TRUE, _NO_FORMULA, _NO_TERM = range(8, 14)


def _interned(cls):
    # The constructor as the parser calls it: positional, and looking the
    # interned node up before paying for the generic __new__.
    get = _INTERNED.get
    if len(cls._fields) == 1:
        return lambda a: get((cls, a)) or cls(a)
    return lambda a, b: get((cls, a, b)) or cls(a, b)


_atom, _variable, _constant, _neg, _box, _bang = map(
    _interned, (Atom, Variable, Constant, Neg, Box, Bang))
_and, _just, _pair, _rel_imp = map(_interned, (And, Just, Pair, RelImp))
_FALSUM = And(Atom("p0"), Neg(Atom("p0")))
_VERUM = Neg(_FALSUM)
_BUILD = {
    _AND: _and, _JUST: _just, _NEG: _neg, _BOX: _box, _BANG: _bang,
    _SUM: _interned(Sum), _APP: _interned(App),
    _MATIMP: _interned(MatImp), _CF: _interned(Counterfactual),
    _RELIMP: _rel_imp, _RELCF: _interned(RelCf),
    _OR: lambda a, b: _neg(_and(_neg(a), _neg(b))),
    _FUS: lambda a, b: _neg(_rel_imp(a, _neg(b))),
    _IFF_MAT: lambda a, b: And(MatImp(a, b), MatImp(b, a)),
    _IFF_CF: lambda a, b: And(Counterfactual(a, b), Counterfactual(b, a)),
    _IFF_REL: lambda a, b: And(RelCf(a, b), RelCf(b, a)),
}
# What a dialect error calls a gated token; the others are named by repr.
_GATED_NAMES = {"==": "material biconditional", "[]": "box", "!": "proof checker",
                ".": "term application", "<": "pair terms", "@": "fusion"}


def _dialect_tables(d: Dialect) -> tuple[dict, dict, dict, dict]:
    """The token tables of one dialect: formula operands, formula
    operators, term operands, term operators. A negated entry is a token of
    the grammar that the dialect leaves out."""
    admits = _ADMITS[d]

    def gate(entry, cls):
        return entry if cls in admits else -entry

    f_operand = dict.fromkeys([*_OPERATORS, ""], _NO_FORMULA)
    f_operand.update({"~": _NEG, "[]": gate(_BOX, Box), "!": _JUSTIFY,
                      "<": _JUSTIFY, "(": _LPAREN, "false": _FALSE, "true": _TRUE})
    # Fusion is gated where it is reduced, after its right operand.
    f_operator = {"&": _AND, "|": _OR, "@": _FUS if RelImp in admits else _FUS_GATED,
                  "=>": gate(_MATIMP, MatImp), ">": gate(_CF, Counterfactual),
                  "->": gate(_RELIMP, RelImp), "~>": gate(_RELCF, RelCf),
                  "==": gate(_IFF_MAT, MatImp),
                  "<=>": _IFF_REL if RelCf in admits else _IFF_CF}
    t_operand = dict.fromkeys([*_OPERATORS, "", "false", "true"], _NO_TERM)
    t_operand.update({"!": gate(_BANG, Bang), "(": _T_PAREN, "<": gate(_T_PAIR, Pair)})
    t_operator = {"+": _SUM, ".": gate(_APP, App)}
    return f_operand, f_operator, t_operand, t_operator


_TABLES = {d: _dialect_tables(d) for d in Dialect}


class _Failure(tuple):
    """(error class, message, token index, outermost open mark) from _run."""


def _fail(message: str, i: int, marks: list[int], cls=ParseError) -> _Failure:
    return _Failure((cls, message, i, marks[0] if marks else None))


def _gated(tok: str, dialect: Dialect, i: int, marks: list[int]) -> _Failure:
    what = _GATED_NAMES.get(tok) or repr(tok)
    return _fail(f"{what} not available in dialect {dialect.value}", i, marks, DialectError)


def _run(toks: list[str], dialect: Dialect, top: int, forced: set[int]):
    """Parse the tokens from context `top` (_F_TOP or _T_TOP) and return
    the node, or a _Failure for the first error met.

    A `(` where a formula may start opens either a term before `:`
    (`(x+y):p`) or a subformula. It can open a term only if the token after
    its matching `)` continues one (`:`, `+` or `.`), and then, unless its
    index is in `forced`, it is read as a term and marked until its `:`.
    This gives the answers of recursive descent that tries the term reading
    first and, on any error before the `:`, reads the `(` as a subformula:
    that reading then meets an error too, at the latest at the token after
    the `)`, and the error it meets is the one to report. So a failure under
    a mark names the outermost open mark, and _parse runs again with that
    `(` forced to the subformula reading.
    """
    f_operand, f_operator, t_operand, t_operator = _TABLES[dialect]
    vals: list = []
    ops = [top]
    marks: list[int] = []
    fusion = 0  # the last gated `@` pushed, reduced before any earlier one
    match = None
    i = 0
    formula = top == _F_TOP
    operand = True
    while True:
        tok = toks[i]
        if operand:
            if formula:
                act = f_operand.get(tok)
                if act is None:
                    # An identifier, or a character that starts no token.
                    if toks[i + 1] in _TERM_FOLLOW:
                        ops.append(_T_JUST)
                        formula = False
                        continue
                    first = tok[0]
                    if first not in _ATOM_START:
                        if _RESERVED_TERM_VARS.match(tok):
                            return _fail(f"{tok!r} is reserved for justification terms", i, marks)
                        if _CONSTANT_NAME.match(tok):
                            return _fail(f"constant {tok!r} cannot be used as an atom", i, marks)
                        if not "a" <= first <= "z":
                            return _fail(f"expected a formula, found {tok!r}", i, marks)
                    vals.append(_atom(tok))
                elif act >= _NEG:
                    ops.append(act)
                    i += 1
                    continue
                elif act == _LPAREN:
                    if match is None:
                        match = _matching_parens(toks)
                    j = match.get(i)
                    if j is not None and toks[j + 1] in _TERM_FOLLOW and i not in forced:
                        marks.append(i)
                        ops.append(_T_JUST_MARKED)
                        formula = False
                    else:
                        ops.append(_F_PAREN)
                        i += 1
                    continue
                elif act == _JUSTIFY:
                    ops.append(_T_JUST)
                    formula = False
                    continue
                elif act == _FALSE:
                    vals.append(_FALSUM)
                elif act == _TRUE:
                    vals.append(_VERUM)
                elif act == _NO_FORMULA:
                    return _fail(f"expected a formula, found {tok or 'end of input'!r}", i, marks)
                else:
                    return _gated(tok, dialect, i, marks)
            else:
                act = t_operand.get(tok)
                if act is None:
                    if not "a" <= tok[0] <= "z":
                        return _fail(f"expected a term, found {tok!r}", i, marks)
                    if _CONSTANT_NAME.match(tok):
                        if Constant not in _ADMITS[dialect]:
                            return _fail(f"constants not available in dialect {dialect.value}",
                                         i, marks, DialectError)
                        vals.append(_constant(tok))
                    else:
                        vals.append(_variable(tok))
                elif act == _NO_TERM:
                    if tok == "false" or tok == "true":
                        return _fail(f"{tok!r} cannot name a term", i, marks)
                    return _fail(f"expected a term, found {tok or 'end of input'!r}", i, marks)
                elif act > 0:
                    ops.append(act)
                    i += 1
                    continue
                else:
                    return _gated(tok, dialect, i, marks)
            i += 1
            operand = False
            continue

        # An operand is complete: `tok` continues or ends its expression.
        code = (f_operator if formula else t_operator).get(tok)
        if code is None:
            bound = _IFF_MAT
        else:
            entry = code if code > 0 else -code
            # Conditionals nest to the right, everything else to the left.
            bound = _OR if _MATIMP <= entry <= _RELCF else entry & ~15
        while ops[-1] >= bound:
            op = ops.pop()
            if op >= _NEG:
                vals[-1] = _BUILD[op](vals[-1])
            elif op != _FUS_GATED:
                right = vals.pop()
                vals[-1] = _BUILD[op](vals[-1], right)
            else:
                return _gated("@", dialect, fusion, marks)
        # A pair's antecedent stops before the conditionals.
        if code is not None and (ops[-1] != _F_PAIR or entry >= _OR):
            if code < 0:
                return _gated(tok, dialect, i, marks)
            if entry == _FUS_GATED:
                fusion = i
            ops.append(entry)
            i += 1
            operand = True
            continue
        context = ops[-1]
        closer = _CLOSERS[context]
        if tok != closer:
            if not closer:
                what = "formula" if context == _F_TOP else "term"
                return _fail(f"unexpected {tok!r} after {what}", i, marks)
            return _fail(f"expected {closer!r}, found {tok or 'end of input'!r}", i, marks)
        if not closer:
            return vals[0]
        ops.pop()
        i += 1
        if context == _F_PAIR:
            antecedent = vals.pop()
            vals[-1] = _pair(vals[-1], antecedent)
            formula = False
        elif context == _T_PAIR:
            ops.append(_F_PAIR)
            formula = operand = True
        elif context == _T_JUST or context == _T_JUST_MARKED:
            if context == _T_JUST_MARKED:
                marks.pop()
            ops.append(_JUST)
            formula = operand = True


def _matching_parens(toks: list[str]) -> dict[int, int]:
    """The index of each closed `(` mapped to the index of its `)`."""
    match = {}
    opened = []
    for k, tok in enumerate(toks):
        if tok == "(":
            opened.append(k)
        elif tok == ")" and opened:
            match[opened.pop()] = k
    return match


def _parse(text: str, dialect: Dialect, top: int):
    toks = _TOKEN_RE.findall(text)
    forced: set[int] = set()
    while True:
        out = _run(toks, dialect, top, forced)
        if out.__class__ is not _Failure:
            return out
        cls, message, index, mark = out
        if not forced:
            # A character that starts no token is the error, wherever it
            # is; a parse that succeeds has met none.
            for m in _TOKEN_RE.finditer(text):
                tok = m.group(1)
                if len(tok) == 1 and tok not in _OPERATORS and not "a" <= tok <= "z":
                    raise ParseError(f"unexpected character {tok!r}", m.start(1))
        if mark is None:
            for n, m in enumerate(_TOKEN_RE.finditer(text)):
                if n == index:
                    raise cls(message, m.start(1))
        forced.add(mark)


def parse_formula(text: str, dialect: Dialect) -> Formula:
    """Parse text in the given dialect, expanding derived connectives."""
    return _parse(text, dialect, _F_TOP)


def parse_term(text: str, dialect: Dialect) -> Term:
    """Parse a bare justification term."""
    return _parse(text, dialect, _T_TOP)


# --- printing ---------------------------------------------------------

# Binding strength of each node class: formulas 1 (conditionals), 2 (`&`),
# 3 (prefixes and atoms); terms 11 (`+`), 12 (`.`), 13 (the rest). A child
# printed where at least `need` is required and its class binds looser gets
# parentheses; `need` above 10 asks for a term.
_STRENGTH = {
    Atom: 3, Neg: 3, Box: 3, Just: 3, And: 2,
    MatImp: 1, Counterfactual: 1, RelImp: 1, RelCf: 1,
    Constant: 13, Variable: 13, Bang: 13, Pair: 13, App: 12, Sum: 11,
}
_COND_OPS = {MatImp: " => ", Counterfactual: " > ", RelImp: " -> ", RelCf: " ~> "}


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts this."""
    return _print(f, 1)


def print_term(t: Term) -> str:
    return _print(t, 11)


def _print(node, need: int) -> str:
    # One loop over an explicit stack of pending nodes and literal text, so
    # nesting depth costs list entries, not interpreter frames. The leftmost
    # child of each node is printed next without a trip through the stack.
    out: list[str] = []
    pending: list = []
    while True:
        cls = type(node)
        strength = _STRENGTH.get(cls)
        if strength is None or (strength > 10) != (need > 10):
            kind = "term" if need > 10 else "formula"
            raise TypeError(f"not a {kind} node: {cls.__name__}")
        if strength < need:
            out.append("(")
            pending.append(")")
            need = 1 if need < 10 else 11
        if cls is Atom or cls is Variable or cls is Constant:
            out.append(node.name)
        elif cls is Neg:
            out.append("~")
            node, need = node.inner, 3
            continue
        elif cls is And:
            pending += ((node.right, 3), " & ")
            node, need = node.left, 2
            continue
        elif cls is Just:
            pending += ((node.inner, 3), ":")
            node, need = node.term, 13
            continue
        elif cls in _COND_OPS:
            pending += ((node.right, 1), _COND_OPS[cls])
            node, need = node.left, 2
            continue
        elif cls is Box:
            out.append("[]")
            node, need = node.inner, 3
            continue
        elif cls is Sum:
            pending += ((node.right, 12), "+")
            node, need = node.left, 11
            continue
        elif cls is App:
            pending += ((node.right, 13), ".")
            node, need = node.left, 12
            continue
        elif cls is Bang:
            out.append("!")
            node, need = node.inner, 13
            continue
        else:
            out.append("<")
            pending += (">", (node.antecedent, 2), ",")
            node, need = node.inner, 11
            continue
        while pending:
            item = pending.pop()
            if item.__class__ is str:
                out.append(item)
            else:
                node, need = item
                break
        else:
            return "".join(out)


# --- structural helpers ------------------------------------------------


# A formula's evaluation plan: its distinct subformulas, children first, in
# the order _plan's walk finishes them. It does not depend on the model, and
# nodes are interned for good, so one plan per node serves every model. The
# table is cleared before it would exceed _PLAN_CAP entries per interned node.
class _Plans(dict):
    # The count of entries held lives on the table, so no module name is rebound.
    total = 0


_PLANS: dict[Formula, tuple[Formula, ...]] = _Plans()
_PLAN_CAP = 8


def _plan(f: Formula) -> tuple[Formula, ...]:
    plan = _PLANS.get(f)
    if plan is None:
        # An explicit stack, so that depth is unbounded: a node whose children
        # are not all finished pushes them, left before right, and waits. The
        # tree alone fixes the order, so the same clause raises on every run.
        done: dict[Formula, None] = {}
        stack = [f]
        while stack:
            g = stack[-1]
            kind = type(g)
            if kind is Neg or kind is Just or kind is Box:
                if g.inner not in done:
                    stack.append(g.inner)
                    continue
            elif kind is And or kind in _CONDITIONALS:
                if g.left not in done or g.right not in done:
                    stack += [c for c in (g.left, g.right) if c not in done]
                    continue
            done[g] = None
            stack.pop()
        if _PLANS.total + len(done) > _PLAN_CAP * len(_INTERNED):
            _PLANS.clear()
            _PLANS.total = 0
        _PLANS[f] = plan = tuple(done)
        _PLANS.total += len(plan)
    return plan


def _children(g) -> tuple:
    kind = type(g)
    if kind is Neg or kind is Just or kind is Box:
        return (g.inner,)
    if kind in _CONDITIONALS or kind is And:
        return g.left, g.right
    return ()


def subformulas(f: Formula) -> set[Formula]:
    """Subformulas of f, f included. Terms are opaque: a justified formula
    contributes itself and the subformulas of its body, and pair antecedents
    are not descended into."""
    return set(_plan(f))


def atoms(f: Formula) -> set[str]:
    """Names of all atoms occurring anywhere, pair antecedents included.
    A shared subtree is walked once, so a chain of k nodes sharing their
    subtrees costs k steps, not 2**k."""
    names: set[str] = set()
    seen: set[Formula | Term] = set()
    stack: list[Formula | Term] = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if type(g) is Atom:
            names.add(g.name)
        else:
            stack += [getattr(g, name) for name in g._node_fields]
    return names


def subterms(t: Term) -> set[Term]:
    """t and every term below it, descending into pair antecedents."""
    out: set[Term] = set()
    stack: list[Term] = [t]
    while stack:
        s = stack.pop()
        if s in out:
            continue
        out.add(s)
        for name in s._node_fields:
            child = getattr(s, name)
            if isinstance(child, _FormulaNode):
                out |= terms_of(child)
            else:
                stack.append(child)
    return out


def terms_of(f: Formula) -> set[Term]:
    """All terms occurring in f, subterms and pair antecedents included."""
    out: set[Term] = set()
    for g in _plan(f):
        if type(g) is Just:
            out |= subterms(g.term)
    return out


def node_count(x: Formula | Term) -> int:
    """Number of constructors in a tree; the size half of the canonical order."""
    return x._size


def formula_key(f: Formula) -> tuple[int, str]:
    """Canonical sort key: smaller first, ties broken by printed form."""
    return (node_count(f), print_formula(f))


def _sorted_by_key(formulas) -> list[Formula]:
    """The formulas sorted by formula_key, printing only those whose sizes
    tie: the suffixes of a deep chain differ in size and are never printed,
    so the sort stays linear in the chain's depth."""
    by_size: dict[int, list[Formula]] = {}
    for f in formulas:
        by_size.setdefault(node_count(f), []).append(f)
    return [f for size in sorted(by_size) for f in (
        sorted(by_size[size], key=print_formula)
        if len(by_size[size]) > 1 else by_size[size])]


def term_key(t: Term) -> tuple[int, str]:
    return (node_count(t), print_term(t))


def closure(formulas) -> set[Formula]:
    """Union of the subformula sets of an iterable of formulas."""
    out: set[Formula] = set()
    for f in formulas:
        out |= subformulas(f)
    return out


# --- dialect validation --------------------------------------------------


# Interned subtrees each dialect has accepted. Nodes live as long as the
# intern table, so this grows with it and no further; an accepted subtree
# holds no offending constructor, so skipping it leaves the first error the
# walk meets unchanged. A call also skips a node it has walked already: the
# stack finishes that node's subtree before it meets the node again, so a
# shared subtree is walked once and the first error stays the same.
_ACCEPTED: dict[Dialect, set[Formula | Term]] = {d: set() for d in Dialect}


def check_dialect_formula(f: Formula, dialect: Dialect) -> None:
    """Reject constructors that the dialect's grammar does not admit with
    ValueError, and anything that is not a node with TypeError."""
    accepted = _ACCEPTED[dialect]
    if f in accepted:
        return
    admits = _ADMITS[dialect]
    stack: list[Formula | Term] = [f]
    walked: set[Formula | Term] = set()
    while stack:
        g = stack.pop()
        if g in accepted or g in walked:
            continue
        cls = type(g)
        if cls not in admits:
            if cls in _REFUSALS:
                raise ValueError(_REFUSALS[cls].format(dialect.value))
            raise TypeError(f"not a node: {cls.__name__}")
        walked.add(g)
        stack += [getattr(g, name) for name in cls._node_fields]
    accepted.update(walked)
