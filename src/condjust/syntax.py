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
    "node_count", "formula_key", "term_key", "closure",
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
    # Constructors in the tree, set once when the node is interned; its
    # children are interned first, so this is one step per node.
    _size: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(inspect.get_annotations(cls))
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


class ParseError(ValueError):
    """Raised on malformed input; carries the offset where parsing failed."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class DialectError(ParseError):
    """A construct that exists in the grammar but not in the chosen dialect."""


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<op><=>|~>|->|=>|==|\[\]|[~&|@>:+.!()<,])
      | (?P<ident>[a-z][a-z0-9_]*)
    """,
    re.VERBOSE,
)

_RESERVED_TERM_VARS = re.compile(r"[xyz][0-9]*$")
_CONSTANT_NAME = re.compile(r"c([0-9]*|_[a-z0-9_]+)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # "op", "ident" or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, dialect: Dialect):
        self.tokens = _tokenize(text)
        self.i = 0
        self.dialect = dialect

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "op" and tok.text == text

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.pos)

    def need_dialect(self, ok: bool, what: str) -> None:
        if not ok:
            tok = self.peek()
            raise DialectError(f"{what} not available in dialect {self.dialect.value}", tok.pos)

    # --- formulas -----------------------------------------------------

    def formula(self) -> Formula:
        left = self.cond()
        while self.at("==") or self.at("<=>"):
            op = self.peek().text
            if op == "==":
                self.need_dialect(self.dialect is not Dialect.JRC, "material biconditional")
            self.next()
            right = self.cond()
            if op == "==":
                left = And(MatImp(left, right), MatImp(right, left))
            elif self.dialect is Dialect.JRC:
                left = And(RelCf(left, right), RelCf(right, left))
            else:
                left = And(Counterfactual(left, right), Counterfactual(right, left))
        return left

    def cond(self) -> Formula:
        left = self.disj()
        for op, cls in (("=>", MatImp), (">", Counterfactual), ("->", RelImp), ("~>", RelCf)):
            if self.at(op):
                jrc_only = cls in (RelImp, RelCf)
                self.need_dialect((self.dialect is Dialect.JRC) == jrc_only, f"{op!r}")
                self.next()
                return cls(left, self.cond())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.at("|") or self.at("@"):
            op = self.next()
            right = self.conj()
            if op.text == "@":
                if self.dialect is not Dialect.JRC:
                    raise DialectError(f"fusion not available in dialect {self.dialect.value}", op.pos)
                left = Neg(RelImp(left, Neg(right)))
            else:
                left = Neg(And(Neg(left), Neg(right)))
        return left

    def conj(self) -> Formula:
        left = self.prefix()
        while self.at("&"):
            self.next()
            left = And(left, self.prefix())
        return left

    def prefix(self) -> Formula:
        tok = self.peek()
        if self.at("~"):
            self.next()
            return Neg(self.prefix())
        if self.at("[]"):
            self.need_dialect(self.dialect is Dialect.L, "box")
            self.next()
            return Box(self.prefix())
        if self.at("!") or self.at("<"):
            return self.justified()
        if self.at("("):
            # A parenthesis can open a compound term (`(x+y):p`) or a
            # subformula; commit to the term reading only if ':' follows.
            mark = self.i
            try:
                term = self.term()
                self.expect(":")
            except ParseError:
                self.i = mark
                self.next()
                inner = self.formula()
                self.expect(")")
                return inner
            return Just(term, self.prefix())
        if tok.kind == "ident":
            if tok.text in ("false", "true"):
                self.next()
                bot = And(Atom("p0"), Neg(Atom("p0")))
                return bot if tok.text == "false" else Neg(bot)
            after = self.tokens[self.i + 1]
            if after.kind == "op" and after.text in (":", "+", "."):
                return self.justified()
            if _RESERVED_TERM_VARS.match(tok.text):
                raise ParseError(f"{tok.text!r} is reserved for justification terms", tok.pos)
            if _CONSTANT_NAME.match(tok.text):
                raise ParseError(f"constant {tok.text!r} cannot be used as an atom", tok.pos)
            self.next()
            return Atom(tok.text)
        self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")

    def justified(self) -> Formula:
        term = self.term()
        self.expect(":")
        return Just(term, self.prefix())

    # --- terms --------------------------------------------------------

    def term(self) -> Term:
        left = self.term_app()
        while self.at("+"):
            self.next()
            left = Sum(left, self.term_app())
        return left

    def term_app(self) -> Term:
        left = self.term_unary()
        while self.at("."):
            self.need_dialect(self.dialect is not Dialect.JRC, "term application")
            self.next()
            left = App(left, self.term_unary())
        return left

    def term_unary(self) -> Term:
        tok = self.peek()
        if self.at("!"):
            self.need_dialect(self.dialect is not Dialect.JRC, "proof checker")
            self.next()
            return Bang(self.term_unary())
        if self.at("("):
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if self.at("<"):
            self.need_dialect(self.dialect is Dialect.LPCint, "pair terms")
            self.next()
            inner = self.term()
            self.expect(",")
            antecedent = self.disj()
            self.expect(">")
            return Pair(inner, antecedent)
        if tok.kind == "ident":
            if tok.text in ("false", "true"):
                raise ParseError(f"{tok.text!r} cannot name a term", tok.pos)
            self.next()
            if _CONSTANT_NAME.match(tok.text):
                if self.dialect is Dialect.JRC:
                    raise DialectError("constants not available in dialect jrc", tok.pos)
                return Constant(tok.text)
            return Variable(tok.text)
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")


def parse_formula(text: str, dialect: Dialect) -> Formula:
    """Parse text in the given dialect, expanding derived connectives."""
    p = _Parser(text, dialect)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
    return f


def parse_term(text: str, dialect: Dialect) -> Term:
    """Parse a bare justification term."""
    p = _Parser(text, dialect)
    t = p.term()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after term", tok.pos)
    return t


# --- printing ---------------------------------------------------------

_COND_OPS = {MatImp: "=>", Counterfactual: ">", RelImp: "->", RelCf: "~>"}


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts this."""
    # Loops, not recursions, so deep right-nested conditionals and
    # left-nested conjunctions print, as unary chains do in _print_prefix.
    parts = []
    while type(f) in _COND_OPS:
        parts.append(f"{_print_conj(f.left)} {_COND_OPS[type(f)]} ")
        f = f.right
    parts.append(_print_conj(f))
    return "".join(parts)


def _print_conj(f: Formula) -> str:
    conjuncts = []
    while isinstance(f, And):
        conjuncts.append(_print_prefix(f.right))
        f = f.left
    conjuncts.append(_print_prefix(f))
    return " & ".join(reversed(conjuncts))


def _print_prefix(f: Formula) -> str:
    # A loop, not a recursion, so deep unary chains print.
    parts = []
    while isinstance(f, (Neg, Box, Just)):
        if isinstance(f, Neg):
            parts.append("~")
        elif isinstance(f, Box):
            parts.append("[]")
        else:
            term = print_term(f.term)
            parts.append(f"({term}):" if isinstance(f.term, (App, Sum)) else f"{term}:")
        f = f.inner
    if isinstance(f, Atom):
        parts.append(f.name)
    elif isinstance(f, _FormulaNode):
        parts.append(f"({print_formula(f)})")
    else:
        raise TypeError(f"not a formula node: {type(f).__name__}")
    return "".join(parts)


def print_term(t: Term) -> str:
    if isinstance(t, Sum):
        return f"{print_term(t.left)}+{_print_term_app(t.right)}"
    return _print_term_app(t)


def _print_term_app(t: Term) -> str:
    if isinstance(t, App):
        return f"{_print_term_app(t.left)}.{_print_term_unary(t.right)}"
    return _print_term_unary(t)


def _print_term_unary(t: Term) -> str:
    if isinstance(t, Bang):
        return "!" + _print_term_unary(t.inner)
    if isinstance(t, (Constant, Variable)):
        return t.name
    if isinstance(t, Pair):
        body = print_formula(t.antecedent)
        if isinstance(t.antecedent, _CONDITIONALS):
            body = f"({body})"
        return f"<{print_term(t.inner)},{body}>"
    if isinstance(t, (App, Sum)):
        return f"({print_term(t)})"
    raise TypeError(f"not a term node: {type(t).__name__}")


# --- structural helpers ------------------------------------------------


def subformulas(f: Formula) -> set[Formula]:
    """Subformulas of f, f included. Terms are opaque: a justified formula
    contributes itself and the subformulas of its body, and pair antecedents
    are not descended into."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Neg, Box, Just)):
            stack.append(g.inner)
        elif isinstance(g, (And, *_CONDITIONALS)):
            stack.append(g.left)
            stack.append(g.right)
    return out


def atoms(f: Formula) -> set[str]:
    """Names of all atoms occurring anywhere, pair antecedents included."""
    names: set[str] = set()
    stack: list[Formula | Term] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        elif isinstance(g, (Neg, Box)):
            stack.append(g.inner)
        elif isinstance(g, (And, *_CONDITIONALS, App, Sum)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Just):
            stack.append(g.term)
            stack.append(g.inner)
        elif isinstance(g, Bang):
            stack.append(g.inner)
        elif isinstance(g, Pair):
            stack.append(g.inner)
            stack.append(g.antecedent)
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
        if isinstance(s, (App, Sum)):
            stack.append(s.left)
            stack.append(s.right)
        elif isinstance(s, Bang):
            stack.append(s.inner)
        elif isinstance(s, Pair):
            stack.append(s.inner)
            out |= terms_of(s.antecedent)
    return out


def terms_of(f: Formula) -> set[Term]:
    """All terms occurring in f, subterms and pair antecedents included."""
    out: set[Term] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Neg, Box)):
            stack.append(g.inner)
        elif isinstance(g, (And, *_CONDITIONALS)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Just):
            out |= subterms(g.term)
            stack.append(g.inner)
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
