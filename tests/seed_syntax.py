"""The recursive-descent parser and the printer that syntax replaced, kept
verbatim as references for the equivalence properties in test_syntax.py.

Both recurse once per nesting level, so they serve only inputs far below
the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from condjust.syntax import (
    _CONDITIONALS, And, App, Atom, Bang, Box, Constant, Counterfactual,
    Dialect, DialectError, Formula, Just, MatImp, Neg, Pair, ParseError,
    RelCf, RelImp, Sum, Term, Variable, _FormulaNode,
)

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
