"""Labelled tableau prover for the relevant conditional dialect.

Tableau nodes are signed formulas ``φ, +x`` / ``φ, -x``, conditional edges
``x -[φ]-> y``, evidence edges ``x -[t]-> y``, and ternary records
``r x y z``.  Labels are naturals with sharped twins (``1`` and ``1#``) that
stand for star images of each other.  Saturation is budgeted and fair: rule
instances fire FIFO within tiers (decomposition, then branching, then
normality, then cut), each at most once per branch, so a branch that
completes without closing is genuinely complete and induces a countermodel.

A branch the fresh-label budget has refused a rule instance is blocked: it
and every copy of it can close but never end open.  Once a blocked branch
ends without closing, the proof cannot close either, so the search drops
every blocked branch from then on, queued or running, and spends its steps
only on branches that can still end open.  ``Exhausted`` thus means that no
unblocked branch ended open within the step budget, and that either the
step budget ran out or some blocked branch ended open.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .kripke_models import _counterexamples
from .routley_models import RoutleyModel, check_jrc_conditions
from .syntax import (
    And, Atom, Dialect, Formula, Just, Neg, RelCf, RelImp, Sum, Term,
    check_dialect_formula, print_formula, print_term, _children, _plan,
)

__all__ = [
    "Label", "Signed", "FormulaEdge", "TermEdge", "Ternary", "NodeExpr",
    "Budget", "Branch", "Closed", "Open", "Exhausted", "ProofResult",
    "prove", "extract_model", "verify_result",
]

# Nodes are named tuples, so hashing and comparing them runs in C; their
# formula and term fields are interned and hash by identity.


class Label(NamedTuple):
    index: int
    sharped: bool = False

    def bar(self) -> "Label":
        return Label(self.index, not self.sharped)

    def __str__(self) -> str:
        return f"{self.index}#" if self.sharped else str(self.index)


_ROOT = Label(0)


class Signed(NamedTuple):
    formula: Formula
    sign: bool
    label: Label

    def __str__(self) -> str:
        return f"{print_formula(self.formula)}, {'+' if self.sign else '-'}{self.label}"


class FormulaEdge(NamedTuple):
    src: Label
    antecedent: Formula
    dst: Label

    def __str__(self) -> str:
        return f"{self.src} -[{print_formula(self.antecedent)}]-> {self.dst}"


class TermEdge(NamedTuple):
    src: Label
    term: Term
    dst: Label

    def __str__(self) -> str:
        return f"{self.src} -[{print_term(self.term)}]-> {self.dst}"


class Ternary(NamedTuple):
    x: Label
    y: Label
    z: Label

    def __str__(self) -> str:
        return f"r {self.x} {self.y} {self.z}"


NodeExpr = Signed | FormulaEdge | TermEdge | Ternary


@dataclass(frozen=True)
class Budget:
    max_fresh_labels: int = 8
    max_steps: int = 2000

    def __post_init__(self):
        if self.max_fresh_labels < 1 or self.max_steps < 1:
            raise ValueError("budget must be positive")


def _render(events) -> str:
    """Trace text from ``(line, depth, expr, tag)`` events: a node event
    reads ``line. expr  [tag]``, and one with no expr is its tag alone."""
    return "\n".join(
        "  " * depth + (tag if expr is None else f"{line}. {expr}  [{tag}]")
        for line, depth, expr, tag in events)


class Branch:
    """One path of the tableau.  A branching rule's last alternative takes
    the branch over; each earlier alternative works on a copy."""

    def __init__(self):
        self.nodes: dict[NodeExpr, int] = {}  # node -> its trace line, in order
        # Rule partners filed under the key the other side looks them up by:
        # (RelImp, x) and (Ternary, x) for T->, (RelCf, x, antecedent) and
        # (FormulaEdge, x, antecedent) for T~>, (Just, x, term) and
        # (TermEdge, x, term) for T:.  Tuples, oldest first, so a copy of
        # the dict shares them.
        self.partners: dict[tuple, tuple[NodeExpr, ...]] = {}
        self.next_fresh = 1
        self.agenda: list = []
        self.labels: dict[Label, None] = {}
        self.antecedents: dict[Formula, None] = {}
        # The trace is one event list shared by every branch of a proof; a
        # branch's own path is the runs of it in trail, then the events from
        # start on.
        self.events: list[tuple] = []
        self.trail: tuple[tuple[int, int], ...] = ()
        self.start = 0
        self.depth = 0
        self.closed = False
        self.closure: tuple[int, int] | None = None
        self.blocked = False
        self.complete = False

    def copy(self) -> "Branch":
        twin = Branch.__new__(Branch)
        twin.__dict__.update(self.__dict__)
        twin.nodes = self.nodes.copy()
        twin.partners = self.partners.copy()
        twin.agenda = self.agenda.copy()
        twin.labels = self.labels.copy()
        twin.antecedents = self.antecedents.copy()
        return twin

    def text(self) -> str:
        runs = (*self.trail, (self.start, len(self.events)))
        return _render(e for start, stop in runs for e in self.events[start:stop])


class Closed:
    """A closed tableau after ``steps`` fired rule instances.  ``tree`` is
    the trace of every branch in the order it grew, rendered from the trace
    events when first read."""

    def __init__(self, tree: str | None, steps: int, events=()):
        self._tree = tree
        self.steps = steps
        self._events = events

    @property
    def tree(self) -> str:
        if self._tree is None:
            self._tree = _render(self._events)
        return self._tree

    def __repr__(self) -> str:
        return f"Closed(tree={self.tree!r}, steps={self.steps!r})"


@dataclass(frozen=True)
class Open:
    branch: Branch
    extracted: RoutleyModel
    root_state: str


@dataclass(frozen=True)
class Exhausted:
    report: str


ProofResult = Closed | Open | Exhausted

_CLOSED, _EXHAUSTED, _OPEN = "closed", "exhausted", "open"


def _merge(*parts: tuple) -> tuple:
    """The parts' items in order, each at its first occurrence."""
    nonempty = [p for p in parts if p]
    if len(nonempty) < 2:
        return nonempty[0] if nonempty else ()
    return tuple(dict.fromkeys(x for p in nonempty for x in p))


class _Blocked(Exception):
    """Raised by _fresh when the budget refuses an instance its labels."""


class _Rule(NamedTuple):
    tier: int
    branching: bool
    # (prover, branch, a, b) -> the nodes an instance adds, or a branching
    # rule's alternatives, minus side first.  a, b: the enabling node and its
    # partner or None, the label for norm, the antecedent and label for cut.
    nodes: Callable


def _f_cf_root(p, branch, s, _):
    (j,) = p._fresh(branch, 1)
    return (FormulaEdge(_ROOT, s.formula.left, j),
            Signed(s.formula.left, True, j), Signed(s.formula.right, False, j))


def _f_cf(p, branch, s, _):
    (j,) = p._fresh(branch, 1)
    return FormulaEdge(s.label, s.formula.left, j), Signed(s.formula.right, False, j)


def _f_just(p, branch, s, _):
    (j,) = p._fresh(branch, 1)
    return TermEdge(s.label, s.formula.term, j), Signed(s.formula.inner, False, j)


def _f_imp(p, branch, s, _):
    # r 0 j k at the normal root needs j = k, so one fresh label serves both
    j, k = p._fresh(branch, 1) * 2 if s.label == _ROOT else p._fresh(branch, 2)
    return (Ternary(s.label, j, k),
            Signed(s.formula.left, True, j), Signed(s.formula.right, False, k))


# The rules by trace name.  Tiers: decomposition (0) runs before branching
# (1), and the label-multiplying normality (2) and cut (3) go last so fresh
# labels settle before they fan out.
_RULES = {
    "T&": _Rule(0, False, lambda p, br, s, _: (
        Signed(s.formula.left, True, s.label), Signed(s.formula.right, True, s.label))),
    "T~": _Rule(0, False, lambda p, br, s, _: (Signed(s.formula.inner, False, s.label.bar()),)),
    "F~": _Rule(0, False, lambda p, br, s, _: (Signed(s.formula.inner, True, s.label.bar()),)),
    "F~>0": _Rule(0, False, _f_cf_root),
    "F~>": _Rule(0, False, _f_cf),
    "F:": _Rule(0, False, _f_just),
    "F->": _Rule(0, False, _f_imp),
    "T~>": _Rule(0, False, lambda p, br, s, edge: (Signed(s.formula.right, True, edge.dst),)),
    "T:": _Rule(0, False, lambda p, br, s, edge: (Signed(s.formula.inner, True, edge.dst),)),
    "sum": _Rule(0, False, lambda p, br, e, _: (
        TermEdge(e.src, e.term.left, e.dst), TermEdge(e.src, e.term.right, e.dst))),
    "F&": _Rule(1, True, lambda p, br, s, _: (
        (Signed(s.formula.left, False, s.label),), (Signed(s.formula.right, False, s.label),))),
    "T->": _Rule(1, True, lambda p, br, s, tern: (
        (Signed(s.formula.left, False, tern.y),), (Signed(s.formula.right, True, tern.z),))),
    "norm": _Rule(2, False, lambda p, br, x, _: (Ternary(_ROOT, x, x),)),
    "cut": _Rule(3, True, lambda p, br, ante, x: (
        (Signed(ante, False, x),), (Signed(ante, True, x), FormulaEdge(x, ante, x)))),
}

# The rule a signed node enables on its own, by sign and formula class; at
# the root F~> becomes F~>0.  T->, T~> and T: wait for a partner in _pair.
_SINGLE = {
    (True, And): "T&", (True, Neg): "T~",
    (False, Neg): "F~", (False, And): "F&", (False, RelImp): "F->",
    (False, RelCf): "F~>", (False, Just): "F:",
}


class _Prover:
    def __init__(self, premises, goal, budget: Budget):
        self.premises = tuple(premises)
        self.goal = goal
        self.budget = budget
        self.seq = 0
        self.steps = 0
        self.line_no = 0
        self.step_capped = False
        # Set once a blocked branch runs out of rules without closing: the
        # proof can no longer close, and no blocked branch can end Open, so
        # blocked branches are searched no further.
        self.cannot_close = False
        self.antecedents_of: dict[Formula, tuple[Formula, ...]] = {}

    def _cond_antecedents(self, f: Formula) -> tuple[Formula, ...]:
        """Antecedents of f's conditional subformulas in pre-order, each
        once.  Filled along f's evaluation plan, children first, once per
        formula and proof."""
        memo = self.antecedents_of
        done = memo.get(f)
        if done is None:
            for g in _plan(f):
                if g not in memo:
                    own = (g.left,) if type(g) is RelCf else ()
                    memo[g] = _merge(own, *(memo[k] for k in _children(g)))
            done = memo[f]
        return done

    # -- trace -------------------------------------------------------------

    def _note(self, branch: Branch, text: str):
        """An unnumbered trace line: a closure or the end of a branch."""
        branch.events.append((self.line_no, branch.depth, None, text))

    # -- branch growth -----------------------------------------------------

    def add_nodes(self, branch: Branch, exprs, tag: str) -> bool:
        """Add each new expr in order; returns False once the branch closes."""
        nodes = branch.nodes
        for expr in exprs:
            if expr in nodes:
                continue
            self.line_no += 1
            line = nodes[expr] = self.line_no
            branch.events.append((line, branch.depth, expr, tag))
            self._enable(branch, expr)
            if type(expr) is Signed:
                twin = nodes.get(Signed(expr.formula, not expr.sign, expr.label))
                if twin is not None:
                    branch.closed = True
                    branch.closure = (twin, line)
                    self._note(branch, f"closed [{twin}, {line}]")
                    return False
        return True

    def _enqueue(self, branch: Branch, rule: str, a, b=None):
        # Each instance is queued once: single-node rules when their node
        # arrives, pair rules when the later partner arrives, norm per new
        # label and cut per new (antecedent, label) pair.
        self.seq += 1
        heapq.heappush(branch.agenda, (_RULES[rule].tier, self.seq, rule, a, b))

    def _pair(self, branch: Branch, rule: str, expr: NodeExpr,
              mine: tuple, theirs: tuple, signed_first: bool):
        """File expr under mine and queue rule with each partner filed
        under theirs, oldest first; the signed node comes first."""
        index = branch.partners
        index[mine] = index.get(mine, ()) + (expr,)
        for other in index.get(theirs, ()):
            a, b = (expr, other) if signed_first else (other, expr)
            self._enqueue(branch, rule, a, b)

    def _register_label(self, branch: Branch, x: Label):
        if x in branch.labels:
            return
        branch.labels[x] = None
        self._enqueue(branch, "norm", x)
        for ante in branch.antecedents:
            self._enqueue(branch, "cut", ante, x)

    def _register_antecedent(self, branch: Branch, ante: Formula):
        if ante in branch.antecedents:
            return
        branch.antecedents[ante] = None
        for x in branch.labels:
            self._enqueue(branch, "cut", ante, x)

    def _enable(self, branch: Branch, expr: NodeExpr):
        """Queue every rule instance the new expression participates in."""
        kind = type(expr)
        if kind is Signed:
            f, x = expr.formula, expr.label
            self._register_label(branch, x)
            for ante in self._cond_antecedents(f):
                self._register_antecedent(branch, ante)
            rule = _SINGLE.get((expr.sign, type(f)))
            if rule is not None:
                if rule == "F~>" and x == _ROOT:
                    rule = "F~>0"
                self._enqueue(branch, rule, expr)
            elif expr.sign:
                fkind = type(f)
                if fkind is RelImp:
                    self._pair(branch, "T->", expr, (RelImp, x), (Ternary, x), True)
                elif fkind is RelCf:
                    self._pair(branch, "T~>", expr, (RelCf, x, f.left),
                               (FormulaEdge, x, f.left), True)
                elif fkind is Just:
                    self._pair(branch, "T:", expr, (Just, x, f.term),
                               (TermEdge, x, f.term), True)
        elif kind is FormulaEdge:
            self._register_label(branch, expr.src)
            self._register_label(branch, expr.dst)
            self._pair(branch, "T~>", expr, (FormulaEdge, expr.src, expr.antecedent),
                       (RelCf, expr.src, expr.antecedent), False)
        elif kind is TermEdge:
            self._register_label(branch, expr.src)
            self._register_label(branch, expr.dst)
            if isinstance(expr.term, Sum):
                self._enqueue(branch, "sum", expr)
            self._pair(branch, "T:", expr, (TermEdge, expr.src, expr.term),
                       (Just, expr.src, expr.term), False)
        else:
            for lab in expr:
                self._register_label(branch, lab)
            self._pair(branch, "T->", expr, (Ternary, expr.x), (RelImp, expr.x), False)

    # -- rule firing ---------------------------------------------------------

    def _cite(self, branch: Branch, rule: str, a, b) -> str:
        nodes = branch.nodes
        sources = [nodes[d] for d in (a, b) if d in nodes]
        return rule if not sources else rule + " " + " ".join(map(str, sources))

    def _fresh(self, branch: Branch, count: int) -> list[Label]:
        """count new labels, drawn together.  Past the budget it draws none,
        marks the branch blocked and raises _Blocked to drop the instance."""
        if branch.next_fresh + count - 1 >= self.budget.max_fresh_labels:
            branch.blocked = True
            raise _Blocked
        out = [Label(branch.next_fresh + k) for k in range(count)]
        branch.next_fresh += count
        return out

    # -- search ----------------------------------------------------------------

    def saturate_linear(self, branch: Branch):
        """Fire non-branching work; stop at closure, completion, or a branch."""
        while True:
            if branch.closed:
                return _CLOSED
            if not branch.agenda:
                branch.complete = not branch.blocked
                self.cannot_close |= branch.blocked
                outcome = _OPEN if branch.complete else _EXHAUSTED
                self._note(branch, outcome)
                return outcome
            if self.steps >= self.budget.max_steps:
                self.step_capped = True
                self._note(branch, _EXHAUSTED)
                return _EXHAUSTED
            _, _, rule, a, b = heapq.heappop(branch.agenda)
            row = _RULES[rule]
            if row.branching:
                self.steps += 1
                return (rule, a, b)
            try:
                nodes = row.nodes(self, branch, a, b)
            except _Blocked:
                if self.cannot_close:
                    self._note(branch, _EXHAUSTED)
                    return _EXHAUSTED
                continue
            self.steps += 1
            self.add_nodes(branch, nodes, self._cite(branch, rule, a, b))

    def search(self, root: Branch):
        # (branch, alternative nodes, tag, whether to copy the branch first)
        pending: list[tuple[Branch, tuple | None, str, bool]] = [(root, None, "", False)]
        while pending and not self.step_capped:
            branch, alt, tag, fork = pending.pop()
            if self.cannot_close and branch.blocked:
                continue
            if alt is not None:
                if fork:
                    branch = branch.copy()
                branch.depth += 1
                branch.start = len(branch.events)
                if not self.add_nodes(branch, alt, tag):
                    continue
            outcome = self.saturate_linear(branch)
            if outcome == _OPEN:
                return branch
            if isinstance(outcome, str):
                continue
            rule, a, b = outcome
            tag = self._cite(branch, rule, a, b)
            branch.trail += ((branch.start, len(branch.events)),)
            # The last alternative pops last, after every copy is taken.
            last, *earlier = reversed(_RULES[rule].nodes(self, branch, a, b))
            pending.append((branch, last, tag, False))
            for nodes in earlier:
                pending.append((branch, nodes, tag, True))
        return _EXHAUSTED if self.step_capped or self.cannot_close else _CLOSED

    def run(self) -> ProofResult:
        root = Branch()
        # Premises all sit at +0, so only the goal can close the root.
        self.add_nodes(root, [Signed(f, True, _ROOT) for f in self.premises], "premise")
        alive = self.add_nodes(root, [Signed(self.goal, False, _ROOT)], "goal")
        outcome = _CLOSED if not alive else self.search(root)
        if isinstance(outcome, Branch):
            model, root_state = extract_model(outcome)
            return Open(outcome, model, root_state)
        if outcome == _CLOSED:
            return Closed(None, self.steps, root.events)
        why = ("step budget of %d reached" % self.budget.max_steps
               if self.step_capped
               else "fresh-label budget of %d blocked a branch"
               % self.budget.max_fresh_labels)
        return Exhausted(f"{why} after {self.steps} fired instances")


def prove(premises, goal: Formula, budget: Budget | dict | None = None) -> ProofResult:
    """Build a tableau for the sequent; never answers wrongly under budget."""
    if budget is None:
        budget = Budget()
    elif not isinstance(budget, Budget):
        budget = Budget(**budget)
    premises = tuple(premises)
    for f in (*premises, goal):
        check_dialect_formula(f, Dialect.JRC)
    return _Prover(premises, goal, budget).run()


def _state_name(x: Label) -> str:
    return f"w{x.index}s" if x.sharped else f"w{x.index}"


def extract_model(branch: Branch) -> tuple[RoutleyModel, str]:
    """Read the induced countermodel off an open complete branch: label i
    of the sorted labels is state bit i."""
    if not branch.complete:
        raise ValueError("countermodels come only from complete open branches")
    labels = sorted(branch.labels)
    bit = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    tern = [[0] * n for _ in labels]
    term_rows: dict[Term, list[int]] = {}
    overrides: dict[Formula, list[int]] = {f: [0] * n for f in branch.antecedents}
    atoms: dict[str, int] = {}
    for expr in branch.nodes:
        if isinstance(expr, Ternary):
            tern[bit[expr.x]][bit[expr.y]] |= 1 << bit[expr.z]
        elif isinstance(expr, TermEdge):
            term_rows.setdefault(expr.term, [0] * n)[bit[expr.src]] |= 1 << bit[expr.dst]
        elif isinstance(expr, FormulaEdge):
            overrides[expr.antecedent][bit[expr.src]] |= 1 << bit[expr.dst]
        elif expr.sign and isinstance(expr.formula, Atom):
            a = expr.formula.name
            atoms[a] = atoms.get(a, 0) | 1 << bit[expr.label]
    states = tuple(map(_state_name, labels))
    root = states[bit[_ROOT]]
    model = RoutleyModel._from_masks(
        states, frozenset({root}),
        tuple(bit.get(x.bar(), i) for i, x in enumerate(labels)),
        tuple(map(tuple, tern)), atoms,
        {t: tuple(rows) for t, rows in term_rows.items()},
        {f: tuple(rows) for f, rows in overrides.items()})
    return model, root


def verify_result(r: ProofResult, premises, goal: Formula, size_bound: int = 3) -> bool:
    """Check a verdict against the semantics; Exhausted is vacuously fine."""
    premises = tuple(premises)
    if isinstance(r, Exhausted):
        return True
    if isinstance(r, Open):
        m = r.extracted
        return check_jrc_conditions(m, (*premises, goal)).ok and bool(
            _counterexamples(m, premises, goal) >> m.state_index(r.root_state) & 1)
    if isinstance(r, Closed):
        from .falsifier import find_countermodel

        return find_countermodel(premises, goal, Dialect.JRC, size_bound) is None
    raise TypeError(f"not a proof result: {r!r}")
