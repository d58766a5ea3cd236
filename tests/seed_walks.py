"""The dialect gate and the cold tree walks that syntax's per-class field
walks replaced, kept verbatim as references for the equivalence properties
in test_syntax.py.
"""

from __future__ import annotations

from condjust.syntax import (
    _CONDITIONALS, And, App, Atom, Bang, Box, Constant, Counterfactual,
    Dialect, Formula, Just, MatImp, Neg, Pair, RelCf, RelImp, Sum, Term,
    terms_of,
)


# Interned subtrees each dialect has accepted. Nodes live as long as the
# intern table, so this grows with it and no further; an accepted subtree
# holds no offending constructor, so skipping it leaves the first error the
# walk meets unchanged.
_ACCEPTED: dict[Dialect, set[Formula | Term]] = {d: set() for d in Dialect}


def check_dialect_formula(f: Formula, dialect: Dialect) -> None:
    """Reject constructors that the dialect's grammar does not admit."""
    accepted = _ACCEPTED[dialect]
    if f in accepted:
        return
    stack: list[Formula | Term] = [f]
    walked = []
    while stack:
        g = stack.pop()
        if g in accepted:
            continue
        walked.append(g)
        if isinstance(g, Box):
            if dialect is not Dialect.L:
                raise ValueError(f"box is not in dialect {dialect.value}")
            stack.append(g.inner)
        elif isinstance(g, (RelImp, RelCf)):
            if dialect is not Dialect.JRC:
                raise ValueError(f"relevant connectives are not in dialect {dialect.value}")
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (MatImp, Counterfactual)):
            if dialect is Dialect.JRC:
                raise ValueError("material and counterfactual conditionals are not in dialect jrc")
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, And):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Neg):
            stack.append(g.inner)
        elif isinstance(g, Just):
            stack.append(g.term)
            stack.append(g.inner)
        elif isinstance(g, Pair):
            if dialect is not Dialect.LPCint:
                raise ValueError(f"pair terms are not in dialect {dialect.value}")
            stack.append(g.inner)
            stack.append(g.antecedent)
        elif isinstance(g, (App, Bang, Constant)):
            if dialect is Dialect.JRC:
                raise ValueError("dialect jrc terms are variables and sums only")
            if isinstance(g, App):
                stack.append(g.left)
                stack.append(g.right)
            elif isinstance(g, Bang):
                stack.append(g.inner)
        elif isinstance(g, Sum):
            stack.append(g.left)
            stack.append(g.right)
    accepted.update(walked)


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
