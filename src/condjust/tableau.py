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

from .kripke_models import RelScheme, _counterexamples, _frame
from .routley_models import RoutleyModel, check_jrc_conditions
from .syntax import (
    And, Atom, Dialect, Formula, Just, Neg, RelCf, RelImp, Sum, Term,
    check_dialect_formula, print_formula, print_term,
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


_DEFAULT_BUDGET = Budget()


def _render(events) -> str:
    """Trace text from ``(line, depth, expr, tag)`` events, whose tag is a
    word (the rule) and the trace lines it cites: a node event reads
    ``7. expr  [T-> 2 4]``, a note (no expr) ``closed [2, 4]`` or ``open``."""
    return "\n".join("  " * depth + (
        f"{line}. {expr}  [{' '.join(map(str, tag))}]" if expr is not None
        else f"{tag[0]} [{', '.join(map(str, tag[1:]))}]" if len(tag) > 1 else tag[0])
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
        # Filled at the root only, so every copy shares it.
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


def _cond_antecedents(f: Formula, walked: set) -> list[Formula]:
    """Antecedents of f's conditional subformulas in pre-order, by a walk
    that skips, and adds to walked, the nodes it visits.  A node met again
    was walked with its subformulas then, so the order of first occurrences
    stays and the walk is linear on shared subtrees."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if g not in walked:
            walked.add(g)
            kind = type(g)
            if kind is Neg or kind is Just:
                stack.append(g.inner)
            elif kind is not Atom:
                if kind is RelCf:
                    out.append(g.left)
                stack += (g.right, g.left)
    return out


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

# The rule a signed node enables on its own: _SINGLE[sign][formula class];
# at the root F~> becomes F~>0.  T->, T~> and T: wait for a partner in _pair.
_SINGLE = (
    {Neg: "F~", And: "F&", RelImp: "F->", RelCf: "F~>", Just: "F:"},
    {And: "T&", Neg: "T~"},
)


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
        # What the root nodes' antecedent walks visit; None past the root.
        self.walked: set[Formula] | None = set()

    # -- branch growth -----------------------------------------------------

    def _note(self, branch: Branch, *tag):
        """An unnumbered trace line: a closure or the end of a branch."""
        branch.events.append((self.line_no, branch.depth, None, tag))

    def add_nodes(self, branch: Branch, exprs, tag: tuple) -> bool:
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
                # a plain tuple finds the Signed node of equal fields
                twin = nodes.get((expr.formula, not expr.sign, expr.label))
                if twin is not None:
                    branch.closed = True
                    branch.closure = (twin, line)
                    self._note(branch, "closed", twin, line)
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

    def _register_labels(self, branch: Branch, labels):
        """Queue norm, and cut per antecedent, for each label new here."""
        known = branch.labels
        for x in labels:
            if x not in known:
                known[x] = None
                self._enqueue(branch, "norm", x)
                for ante in branch.antecedents:
                    self._enqueue(branch, "cut", ante, x)

    def _enable(self, branch: Branch, expr: NodeExpr):
        """Queue every rule instance the new expression participates in.
        Only root nodes register antecedents: rules add subformulas of the
        nodes they fire on, and cut an antecedent, so none is ever new."""
        kind = type(expr)
        if kind is Signed:
            f, x = expr.formula, expr.label
            if x not in branch.labels:
                self._register_labels(branch, (x,))
            if self.walked is not None:  # a root node, whose label x is the only one
                for ante in _cond_antecedents(f, self.walked):
                    if ante not in branch.antecedents:
                        branch.antecedents[ante] = None
                        self._enqueue(branch, "cut", ante, x)
            rule = _SINGLE[expr.sign].get(type(f))
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
            self._register_labels(branch, (expr.src, expr.dst))
            self._pair(branch, "T~>", expr, (FormulaEdge, expr.src, expr.antecedent),
                       (RelCf, expr.src, expr.antecedent), False)
        elif kind is TermEdge:
            self._register_labels(branch, (expr.src, expr.dst))
            if isinstance(expr.term, Sum):
                self._enqueue(branch, "sum", expr)
            self._pair(branch, "T:", expr, (TermEdge, expr.src, expr.term),
                       (Just, expr.src, expr.term), False)
        else:
            self._register_labels(branch, expr)
            self._pair(branch, "T->", expr, (Ternary, expr.x), (RelImp, expr.x), False)

    # -- rule firing ---------------------------------------------------------

    def _cite(self, branch: Branch, rule: str, a, b) -> tuple:
        """The rule and its nodes' lines; norm and cut fire on no node."""
        nodes = branch.nodes
        return ((rule,) if a not in nodes else (rule, nodes[a]) if b is None
                else (rule, nodes[a], nodes[b]))

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
        pending: list[tuple[Branch, tuple | None, tuple, bool]] = [(root, None, (), False)]
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
        self.add_nodes(root, [Signed(f, True, _ROOT) for f in self.premises], ("premise",))
        alive = self.add_nodes(root, [Signed(self.goal, False, _ROOT)], ("goal",))
        self.walked = None
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
        budget = _DEFAULT_BUDGET
    elif not isinstance(budget, Budget):
        budget = Budget(**budget)
    premises = tuple(premises)
    for f in (*premises, goal):
        check_dialect_formula(f, Dialect.JRC)
    return _Prover(premises, goal, budget).run()


def extract_model(branch: Branch) -> tuple[RoutleyModel, str]:
    """Read the induced countermodel off an open complete branch: label i
    of the sorted labels is state bit i. So every index is a state, the star
    (a label's bar, or the label) is an involution, and every row has a cell
    per state: RoutleyModel._from_masks stores them as they are."""
    if not branch.complete:
        raise ValueError("countermodels come only from complete open branches")
    labels = sorted(branch.labels)
    n = len(labels)
    bit = dict(zip(labels, range(n)))
    tern = [[0] * n for _ in labels]
    term_rows: dict[Term, list[int]] = {}
    overrides: dict[Formula, list[int]] = {f: [0] * n for f in branch.antecedents}
    atoms: dict[str, int] = {}
    for expr in branch.nodes:
        kind = type(expr)
        if kind is Signed:
            if expr.sign and type(expr.formula) is Atom:
                a = expr.formula.name
                atoms[a] = atoms.get(a, 0) | 1 << bit[expr.label]
        elif kind is Ternary:
            tern[bit[expr.x]][bit[expr.y]] |= 1 << bit[expr.z]
        elif kind is TermEdge:
            term_rows.setdefault(expr.term, [0] * n)[bit[expr.src]] |= 1 << bit[expr.dst]
        else:
            overrides[expr.antecedent][bit[expr.src]] |= 1 << bit[expr.dst]
    states = tuple([f"w{i}s" if sharp else f"w{i}" for i, sharp in labels])
    root = states[bit[_ROOT]]
    # a label's bar (i, not sharp) finds the Label in bit as an equal key
    model = RoutleyModel._from_masks(
        _frame(states, frozenset({root}), RelScheme.TruthsetAll, True),
        tuple([bit.get((x, not sharp), i) for i, (x, sharp) in enumerate(labels)]),
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
