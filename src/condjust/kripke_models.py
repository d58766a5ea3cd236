"""Relational models with impossible states for the counterfactual dialects.

A model has a set of states, a subset of normal states, an atomic valuation at
normal states, and a literal formula valuation at non-normal states. Truth is
compositional only at normal states; each counterfactual antecedent and each
justification term gets an accessibility relation, with per-formula overrides
on top of a default scheme derived from truth sets.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Formula,
    Just, MatImp, Neg, Pair, RelCf, RelImp, Sum, Term, Variable,
    closure, formula_key, parse_formula, parse_term, print_formula,
    print_term, subterms, term_key, terms_of, _sorted_by_key,
)

__all__ = [
    "RelScheme", "KripkeModel", "VariantProfile",
    "ConstantSpecification", "Explicit", "AxiomaticallyAppropriate",
    "cs_entries", "profile_for",
    "eval", "truthset", "valid_in_model", "consequence",
    "check_conditions", "default_universe",
    "ConditionResult", "ConditionReport",
    "jtb", "knowledge",
    "load_model", "model_to_json", "check_dialect_formula",
]


class RelScheme(enum.Enum):
    """Default accessibility for formulas without an explicit override."""

    TruthsetNormal = "truthset_normal"  # R_f(w) = truth set of f, normal states only
    TruthsetAll = "truthset_all"        # R_f(w) = full truth set of f
    Empty = "empty"


Pairs = frozenset[tuple[str, str]]


@dataclass(frozen=True, eq=False)
class KripkeModel:
    states: tuple[str, ...]
    normal: frozenset[str]
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)
    nonnormal_valuation: dict[str, frozenset[Formula]] = field(default_factory=dict)
    term_rels: dict[Term, Pairs] = field(default_factory=dict)
    formula_rel_overrides: dict[Formula, Pairs] = field(default_factory=dict)
    formula_rel_default: RelScheme = RelScheme.TruthsetNormal

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "normal", frozenset(self.normal))
        if len(set(states)) != len(states) or not states:
            raise ValueError("states must be a nonempty sequence without repeats")
        if not self.normal <= set(states):
            raise ValueError("normal states must be listed in states")
        object.__setattr__(
            self, "valuation",
            {w: frozenset(v) for w, v in self.valuation.items()})
        object.__setattr__(
            self, "nonnormal_valuation",
            {w: frozenset(v) for w, v in self.nonnormal_valuation.items()})
        object.__setattr__(
            self, "term_rels",
            {t: frozenset(tuple(p) for p in v) for t, v in self.term_rels.items()})
        object.__setattr__(
            self, "formula_rel_overrides",
            {f: frozenset(tuple(p) for p in v) for f, v in self.formula_rel_overrides.items()})
        # The checks below also build the bitset form the evaluator reads:
        # state i is bit i, a set of states is an int, a relation is a tuple
        # holding one such int (the row) per state.
        n = len(states)
        index = dict(zip(states, range(n)))
        normal_idx = tuple(sorted(map(index.__getitem__, self.normal)))
        normal_mask = 0
        for i in normal_idx:
            normal_mask |= 1 << i
        atoms: dict[str, int] = {}
        for w, names in self.valuation.items():
            if w not in self.normal:
                raise ValueError(f"valuation key {w!r} is not a normal state")
            bit = 1 << index[w]
            for a in names:
                atoms[a] = atoms.get(a, 0) | bit
        members: dict[Formula, int] = {}
        for w, entry in self.nonnormal_valuation.items():
            if w not in index or w in self.normal:
                raise ValueError(f"nonnormal_valuation key {w!r} is not a non-normal state")
            bit = 1 << index[w]
            for f in entry:
                members[f] = members.get(f, 0) | bit
        term_rows: dict[Term, tuple[int, ...]] = {}
        for t, rel in self.term_rels.items():
            rows = [0] * n
            for a, b in rel:
                i, j = index.get(a), index.get(b)
                if i is None or j is None:
                    raise ValueError(f"relation pair ({a!r}, {b!r}) mentions unknown states")
                rows[i] |= 1 << j
            term_rows[t] = tuple(rows)
        override_rows: dict[Formula, tuple[int, ...]] = {}
        for f, rel in self.formula_rel_overrides.items():
            rows = [0] * n
            for a, b in rel:
                # Formula relations live on the normal states.
                if a not in self.normal or b not in self.normal:
                    raise ValueError(
                        f"formula relation pair ({a!r}, {b!r}) must join normal states")
                rows[index[a]] |= 1 << index[b]
            override_rows[f] = tuple(rows)
        vars(self).update(
            _index=index,
            _normal_mask=normal_mask,
            _normal_idx=normal_idx,
            _atoms=atoms,
            _members=members,
            _term_rows=term_rows,
            _override_rows=override_rows,
        )

    def state_index(self, w: str) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise ValueError("tuple.index(x): x not in tuple") from None


# --- constant specifications -------------------------------------------


class ConstantSpecification:
    """Declares which axiom instances each proof constant justifies."""


@dataclass(frozen=True)
class Explicit(ConstantSpecification):
    entries: tuple[tuple[str, Formula], ...]


@dataclass(frozen=True, eq=False)
class AxiomaticallyAppropriate(ConstantSpecification):
    """Every axiom instance is justified by some constant; constants are
    allocated on demand and remembered, so repeated requests agree."""

    allocations: dict[Formula, str] = field(default_factory=dict)

    def allocate(self, f: Formula) -> str:
        name = self.allocations.get(f)
        if name is None:
            name = f"c{len(self.allocations) + 1}"
            self.allocations[f] = name
        return name


def cs_entries(cs: ConstantSpecification | None) -> tuple[tuple[str, Formula], ...]:
    """The concrete (constant, formula) pairs a specification has committed to."""
    if cs is None:
        return ()
    if isinstance(cs, Explicit):
        return tuple(cs.entries)
    if isinstance(cs, AxiomaticallyAppropriate):
        return tuple((name, f) for f, name in cs.allocations.items())
    raise TypeError(f"not a constant specification: {cs!r}")


# --- variant profiles ---------------------------------------------------


@dataclass(frozen=True)
class VariantProfile:
    name: str
    conditions: tuple[str, ...]
    box_enabled: bool = False


_PROFILES = {
    Dialect.LPCplus: VariantProfile("lpcplus", ("1", "2", "3", "4", "5", "6", "7")),
    Dialect.LPCint: VariantProfile("lpcint", ("1", "2", "3", "4", "5", "6", "7", "8")),
    Dialect.LPCprime: VariantProfile("lpcprime", ("1", "2", "3", "4", "5p", "6", "7")),
    Dialect.LPCKplus: VariantProfile("lpckplus", ("1", "2", "3", "4", "5", "6", "7", "9")),
    Dialect.J4Cplus: VariantProfile("j4cplus", ("1", "2", "3", "4", "5", "7")),
    Dialect.JCplus: VariantProfile("jcplus", ("1", "2", "3", "4", "5")),
    Dialect.L: VariantProfile("l", ("1", "2", "3", "4", "5", "7"), box_enabled=True),
}


def profile_for(dialect: Dialect) -> VariantProfile:
    profile = _PROFILES.get(dialect)
    if profile is None:
        raise ValueError(f"dialect {dialect.value} has no Kripke profile")
    return profile


# --- dialect validation --------------------------------------------------


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


# --- evaluation -----------------------------------------------------------


def _lowest(m: KripkeModel, mask: int) -> str:
    """The first state of a nonempty mask in state order."""
    return m.states[(mask & -mask).bit_length() - 1]


def _bits(mask: int):
    """Indices of the set bits, lowest first: states in state order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _diagonal(rows: tuple[int, ...]) -> int:
    """States whose row reaches themselves."""
    out = 0
    for i, row in enumerate(rows):
        out |= row & 1 << i
    return out


def _inside(m: KripkeModel, rows: tuple[int, ...], target: int) -> int:
    """Normal states whose row lies inside the target mask."""
    out = 0
    for i in m._normal_idx:
        if not rows[i] & ~target:
            out |= 1 << i
    return out


class _Evaluator:
    """Truth sets of one model as int masks, bit i for state i, cached per
    formula. At normal states a formula's bits follow its clause; at
    non-normal states they are the literal valuation's memberships."""

    def __init__(self, m: KripkeModel):
        self.m = m
        self.masks: dict[Formula, int] = {}

    def mask(self, f: Formula) -> int:
        masks = self.masks
        value = masks.get(f)
        if value is not None:
            return value
        m = self.m
        normal, members = m._normal_mask, m._members
        overrides, scheme = m._override_rows, m.formula_rel_default
        # Children first, with an explicit stack so that depth is unbounded:
        # a node whose children are not all known pushes them and waits.
        stack = [f]
        while stack:
            g = stack[-1]
            kind = type(g)
            if kind is Atom:
                value = m._atoms.get(g.name, 0)
            elif kind is Neg:
                a = masks.get(g.inner)
                if a is None:
                    stack.append(g.inner)
                    continue
                value = ~a
            elif kind is And or kind is MatImp:
                a, b = masks.get(g.left), masks.get(g.right)
                if a is None or b is None:
                    if a is None:
                        stack.append(g.left)
                    if b is None:
                        stack.append(g.right)
                    continue
                value = a & b if kind is And else ~a | b
            elif kind is Counterfactual:
                rows = overrides.get(g.left)
                # The antecedent's truth set is read only by a default scheme.
                a = 0 if rows is not None or scheme is RelScheme.Empty else masks.get(g.left)
                b = masks.get(g.right)
                if a is None or b is None:
                    if a is None:
                        stack.append(g.left)
                    if b is None:
                        stack.append(g.right)
                    continue
                if rows is not None:
                    value = _inside(m, rows, b)
                else:
                    shared = a & normal if scheme is RelScheme.TruthsetNormal else a
                    value = 0 if shared & ~b else -1
            elif kind is Just:
                b = masks.get(g.inner)
                if b is None:
                    stack.append(g.inner)
                    continue
                rows = m._term_rows.get(g.term)
                value = -1 if rows is None else _inside(m, rows, b)
            elif kind is Box:
                b = masks.get(g.inner)
                if b is None:
                    stack.append(g.inner)
                    continue
                value = 0 if normal & ~b else -1
            else:
                raise ValueError(
                    f"{kind.__name__} has no clause on relational models; use a Routley model")
            masks[g] = value & normal | members.get(g, 0)
            stack.pop()
        return masks[f]

    def term_rows(self, t: Term) -> tuple[int, ...]:
        rows = self.m._term_rows.get(t)
        return (0,) * len(self.m.states) if rows is None else rows

    def rel_rows(self, f: Formula) -> tuple[int, ...]:
        """R_f as rows: the override, else the default scheme's shared row."""
        rows = self.m._override_rows.get(f)
        if rows is not None:
            return rows
        scheme = self.m.formula_rel_default
        shared = 0 if scheme is RelScheme.Empty else self.mask(f)
        if scheme is RelScheme.TruthsetNormal:
            shared &= self.m._normal_mask
        return (shared,) * len(self.m.states)


def eval(m: KripkeModel, w: str, f: Formula, dialect: Dialect | None = None) -> bool:
    """Truth of f at state w."""
    i = m._index.get(w)
    if i is None:
        raise ValueError(f"unknown state {w!r}")
    if dialect is not None:
        if dialect is Dialect.JRC:
            raise ValueError("dialect jrc is evaluated on Routley models")
        check_dialect_formula(f, dialect)
    if not m._normal_mask >> i & 1:
        return bool(m._members.get(f, 0) >> i & 1)  # literal, whatever f is
    return bool(_Evaluator(m).mask(f) >> i & 1)


def truthset(m: KripkeModel, f: Formula, dialect: Dialect | None = None) -> frozenset[str]:
    """States where f is true, non-normal states by literal membership."""
    if dialect is not None:
        check_dialect_formula(f, dialect)
    ts = _Evaluator(m).mask(f)
    return frozenset(w for i, w in enumerate(m.states) if ts >> i & 1)


def valid_in_model(m: KripkeModel, f: Formula, dialect: Dialect | None = None) -> bool:
    """True at every normal state."""
    if dialect is not None:
        check_dialect_formula(f, dialect)
    return not m._normal_mask & ~_Evaluator(m).mask(f)


def consequence(m: KripkeModel, premises, goal: Formula,
                dialect: Dialect | None = None) -> bool:
    """Goal holds at every normal state where all premises hold."""
    premises = tuple(premises)
    if dialect is not None:
        for f in (*premises, goal):
            check_dialect_formula(f, dialect)
    ev = _Evaluator(m)
    counter = m._normal_mask & ~ev.mask(goal)
    for f in premises:
        counter &= ev.mask(f)
    return not counter


# --- knowledge macros -----------------------------------------------------


def jtb(f: Formula, t: Term) -> Formula:
    """Justified true belief: f holds and t justifies it."""
    return And(f, Just(t, f))


def knowledge(f: Formula, t: Term) -> Formula:
    """JTB plus sensitivity and adherence counterfactuals."""
    return And(
        And(
            And(f, Just(t, f)),
            Counterfactual(Neg(f), Neg(Just(t, f))),
        ),
        Counterfactual(f, Just(t, f)),
    )


# --- condition checking ----------------------------------------------------

APPROXIMATION_NOTE = (
    "universally quantified conditions are checked over the supplied finite "
    "universe only; a pass is relative to that universe"
)


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    profile: str
    results: tuple[ConditionResult, ...]
    approximation_note: str = APPROXIMATION_NOTE

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[ConditionResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def default_universe(m: KripkeModel, queries=()) -> set[Formula]:
    """Subformula closure of the queries, relation overrides and non-normal
    valuation entries: the formulas a condition check can say anything about."""
    seeds = list(queries)
    seeds.extend(m.formula_rel_overrides)
    for entry in m.nonnormal_valuation.values():
        seeds.extend(entry)
    return closure(seeds)


@functools.lru_cache(maxsize=256)
def _query_part(queries: frozenset[Formula]):
    """The sorted closure of the queries, the terms in it, and those terms
    sorted: everything in a condition check that the model does not change."""
    formulas = tuple(_sorted_by_key(closure(queries)))
    terms: set[Term] = set()
    for f in queries:  # a subformula's terms are among its parent's
        terms |= terms_of(f)
    return formulas, frozenset(terms), tuple(sorted(terms, key=term_key))


def check_conditions(m: KripkeModel, profile: VariantProfile, universe,
                     cs: ConstantSpecification | None = None) -> ConditionReport:
    """Check the profile's frame conditions over a finite formula universe."""
    formulas, query_terms, terms = _query_part(frozenset(universe))
    # The query terms are closed under subterms; the model may add others.
    extra: set[Term] = set()
    for t in m.term_rels:
        if t not in query_terms:
            extra |= subterms(t)
    if extra:
        terms = sorted(query_terms | extra, key=term_key)
    ev = _Evaluator(m)
    results = []
    for cid in profile.conditions:
        passed, witness, detail = _CHECKS[cid](m, ev, formulas, terms, cs)
        results.append(ConditionResult(cid, passed, witness, detail))
    return ConditionReport(profile.name, tuple(results))


# Each condition walks its formulas, terms and normal states in the same order
# and reports the first failure; a witness state taken from a mask is its
# lowest bit, the first such state in state order.


def _cond_antecedent_truth(m, ev, formulas, terms, cs):
    # Every default scheme keeps R_f inside the truth set of f, so only an
    # override can stray.
    for f in formulas:
        rows = m._override_rows.get(f)
        if rows is None:
            continue
        ts = ev.mask(f)
        for i in m._normal_idx:
            stray = rows[i] & ~ts
            if stray:
                w, v = m.states[i], _lowest(m, stray)
                return False, (w, f, v), (
                    f"R[{print_formula(f)}]({w}) reaches {v} where the antecedent fails")
    return True, None, ""


def _cond_weak_centering(m, ev, formulas, terms, cs):
    # The truth-set schemes reach every normal state that satisfies f; the
    # empty scheme reaches none of them.
    empty = m.formula_rel_default is RelScheme.Empty
    for f in formulas:
        rows = m._override_rows.get(f)
        if rows is None and not empty:
            continue
        missed = ev.mask(f) & m._normal_mask
        if rows is not None:
            missed &= ~_diagonal(rows)
        if missed:
            w = _lowest(m, missed)
            return False, (w, f), (
                f"{w} satisfies {print_formula(f)} but R[{print_formula(f)}]({w}) misses it")
    return True, None, ""


def _cond_constants(m, ev, formulas, terms, cs):
    in_scope = set(formulas)
    for name, f in cs_entries(cs):
        if f not in in_scope:
            continue
        ts = ev.mask(f)
        c = Constant(name)
        rows = ev.term_rows(c)
        for i in m._normal_idx:
            stray = rows[i] & ~ts
            if stray:
                w, v = m.states[i], _lowest(m, stray)
                return False, (w, c, f), (
                    f"R[{name}]({w}) reaches {v} outside the specified formula's truth set")
    return True, None, ""


def _cond_sum(m, ev, formulas, terms, cs):
    for t in terms:
        if not isinstance(t, Sum):
            continue
        rows, left, right = ev.term_rows(t), ev.term_rows(t.left), ev.term_rows(t.right)
        for i in m._normal_idx:
            if rows[i] & ~(left[i] & right[i]):
                return False, (m.states[i], t.left, t.right), (
                    f"R[{print_term(t)}]({m.states[i]}) exceeds the intersection of its parts")
    return True, None, ""


def _cond_application(m, ev, formulas, terms, cs):
    # A failure needs all of: t.right justifies a at w, R[t](w) leaves the
    # truth set of b, and t.left justifies a > b or a -> b at w. The cheap
    # tests come first, so the conditionals are built only for such pairs.
    truth = None
    for t in terms:
        if not isinstance(t, App):
            continue
        if truth is None:
            truth = [ev.mask(f) for f in formulas]
        rows, left, right = ev.term_rows(t), ev.term_rows(t.left), ev.term_rows(t.right)
        for i in m._normal_idx:
            if not rows[i]:
                continue
            for a, ts_a in zip(formulas, truth):
                if right[i] & ~ts_a:
                    continue
                for b, ts_b in zip(formulas, truth):
                    stray = rows[i] & ~ts_b
                    if not stray:
                        continue
                    if any(not left[i] & ~ev.mask(hook(a, b))
                           for hook in (Counterfactual, MatImp)):
                        w, v = m.states[i], _lowest(m, stray)
                        return False, (w, t, v), (
                            f"R[{print_term(t)}]({w}) reaches {v} although "
                            f"{print_term(t.left)} justifies the step from "
                            f"{print_formula(a)} to {print_formula(b)}")
    return True, None, ""


def _cond_chained_application(m, ev, formulas, terms, cs):
    normal = m._normal_mask
    for t in terms:
        if not isinstance(t, App):
            continue
        rows = ev.term_rows(t)
        # escapes[j]: normal states u where R[t](u) leaves the truth set of b_j
        escapes = []
        for b in formulas:
            ts_b = ev.mask(b)
            escapes.append(sum(1 << i for i in m._normal_idx if rows[i] & ~ts_b))
        for a in formulas:
            r2 = None
            for b, esc in zip(formulas, escapes):
                if not esc:
                    continue
                if r2 is None:
                    r2 = ev.rel_rows(Just(t.right, a))
                r1 = ev.rel_rows(Just(t.left, Counterfactual(a, b)))
                for i in m._normal_idx:
                    for v in _bits(r1[i] & normal):
                        hit = r2[v] & esc
                        if hit:
                            u = next(_bits(hit))
                            u2 = _lowest(m, rows[u] & ~ev.mask(b))
                            w, v, u = m.states[i], m.states[v], m.states[u]
                            return False, (w, v, u, u2, t, a, b), (
                                f"chained application through {print_term(t)} escapes "
                                f"the consequent truth set at {u2}")
    return True, None, ""


def _cond_reflexive_terms(m, ev, formulas, terms, cs):
    for t in terms:
        missed = m._normal_mask & ~_diagonal(ev.term_rows(t))
        if missed:
            w = _lowest(m, missed)
            return False, (w, t), f"R[{print_term(t)}] is not reflexive at {w}"
    return True, None, ""


def _cond_checker(m, ev, formulas, terms, cs):
    for t in terms:
        if not isinstance(t, Bang):
            continue
        inner = t.inner
        rows, inner_rows = ev.term_rows(t), ev.term_rows(inner)
        for i in m._normal_idx:
            for v in _bits(rows[i]):
                missed = inner_rows[v] & ~inner_rows[i]
                if missed:
                    w, v, u = m.states[i], m.states[v], _lowest(m, missed)
                    return False, (w, v, u, inner), (
                        f"R[{print_term(t)}] step to {v} then R[{print_term(inner)}] "
                        f"to {u} is not matched by R[{print_term(inner)}]({w})")
    return True, None, ""


def _cond_pair(m, ev, formulas, terms, cs):
    for t in terms:
        if not isinstance(t, Pair):
            continue
        rows, inner_rows = ev.term_rows(t), ev.term_rows(t.inner)
        for b in formulas:
            ts_b = ev.mask(b)
            target = Counterfactual(t.antecedent, b)
            for i in m._normal_idx:
                if inner_rows[i] & ~ts_b:
                    continue  # t.inner does not justify b here
                missed = rows[i] & ~ev.mask(target)
                if missed:
                    w, v = m.states[i], _lowest(m, missed)
                    return False, (w, t, b, v), (
                        f"R[{print_term(t)}]({w}) reaches {v} where "
                        f"{print_formula(target)} fails")
    return True, None, ""


def _cond_rel_extensionality(m, ev, formulas, terms, cs):
    normal = m._normal_mask
    keys = []
    for f in formulas:
        rows = ev.rel_rows(f)
        keys.append((ev.mask(f) & normal, [rows[i] for i in m._normal_idx]))
    for a, (ts_a, rows_a) in zip(formulas, keys):
        for b, (ts_b, rows_b) in zip(formulas, keys):
            if a is b or ts_a != ts_b:
                continue
            if rows_a != rows_b:
                return False, (a, b), (
                    f"{print_formula(a)} and {print_formula(b)} agree on normal states "
                    f"but have different relations")
    return True, None, ""


_CHECKS = {
    "1": _cond_antecedent_truth,
    "2": _cond_weak_centering,
    "3": _cond_constants,
    "4": _cond_sum,
    "5": _cond_application,
    "5p": _cond_chained_application,
    "6": _cond_reflexive_terms,
    "7": _cond_checker,
    "8": _cond_pair,
    "9": _cond_rel_extensionality,
}


# --- JSON documents ---------------------------------------------------------


def load_model(doc: dict) -> tuple[KripkeModel, Dialect]:
    """Build a model from its JSON document; returns the declared dialect too."""
    if "star" in doc or "ternary" in doc:
        raise ValueError("document describes a Routley model, not a relational one")
    dialect = Dialect(doc.get("dialect", "lpcplus"))
    states = tuple(doc["states"])
    m = KripkeModel(
        states=states,
        normal=frozenset(doc.get("normal", states)),
        valuation={w: frozenset(v) for w, v in doc.get("valuation", {}).items()},
        nonnormal_valuation={
            w: frozenset(parse_formula(s, dialect) for s in entries)
            for w, entries in doc.get("nonnormal_valuation", {}).items()},
        term_rels={
            parse_term(t, dialect): frozenset((a, b) for a, b in pairs)
            for t, pairs in doc.get("term_rels", {}).items()},
        formula_rel_overrides={
            parse_formula(s, dialect): frozenset((a, b) for a, b in pairs)
            for s, pairs in doc.get("formula_rels", {}).items()},
        formula_rel_default=RelScheme(doc.get("formula_rel_default", "truthset_normal")),
    )
    return m, dialect


def model_to_json(m: KripkeModel, dialect: Dialect) -> dict:
    idx = m.state_index

    def pairs(rel):
        return [list(p) for p in sorted(rel, key=lambda p: (idx(p[0]), idx(p[1])))]

    return {
        "dialect": dialect.value,
        "states": list(m.states),
        "normal": sorted(m.normal, key=idx),
        "valuation": {w: sorted(m.valuation.get(w, ())) for w in m.states if w in m.normal},
        "nonnormal_valuation": {
            w: sorted(print_formula(f) for f in m.nonnormal_valuation.get(w, ()))
            for w in m.states if w not in m.normal},
        "term_rels": {
            print_term(t): pairs(rel)
            for t, rel in sorted(m.term_rels.items(), key=lambda kv: term_key(kv[0]))},
        "formula_rels": {
            print_formula(f): pairs(rel)
            for f, rel in sorted(m.formula_rel_overrides.items(), key=lambda kv: formula_key(kv[0]))},
        "formula_rel_default": m.formula_rel_default.value,
    }
