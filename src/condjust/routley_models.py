"""Routley-star models for the relevant dialect.

Truth is compositional at every state: negation flips through the star
involution, relevant implication quantifies over a ternary relation, and the
relevant conditional and justification assertions read their accessibility
relations exactly as in the relational models. Normal states are singled out
by the normality condition on the ternary relation and carry the antecedent
truth condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from condjust.kripke_models import ConditionReport, ConditionResult, Pairs, RelScheme
from condjust.syntax import (
    And, Atom, Box, Dialect, Formula, Just, Neg, RelCf, RelImp, Sum, Term,
    closure, formula_key, parse_formula, parse_term, print_formula,
    print_term, subterms, term_key, terms_of, _sorted_by_key,
)

__all__ = [
    "RoutleyModel", "eval_jrc", "truthset_jrc", "jrc_consequence",
    "jrc_valid", "check_jrc_conditions",
    "load_routley_model", "routley_model_to_json",
]


@dataclass(frozen=True, eq=False)
class RoutleyModel:
    states: tuple[str, ...]
    normal: frozenset[str]
    star: dict[str, str]
    ternary: frozenset[tuple[str, str, str]]
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)
    term_rels: dict[Term, Pairs] = field(default_factory=dict)
    formula_rel_overrides: dict[Formula, Pairs] = field(default_factory=dict)
    formula_rel_default: RelScheme = RelScheme.TruthsetAll

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "normal", frozenset(self.normal))
        object.__setattr__(self, "star", dict(self.star))
        object.__setattr__(self, "ternary", frozenset(tuple(t) for t in self.ternary))
        object.__setattr__(
            self, "valuation", {w: frozenset(v) for w, v in self.valuation.items()})
        object.__setattr__(
            self, "term_rels",
            {t: frozenset(tuple(p) for p in v) for t, v in self.term_rels.items()})
        object.__setattr__(
            self, "formula_rel_overrides",
            {f: frozenset(tuple(p) for p in v) for f, v in self.formula_rel_overrides.items()})
        all_states = set(states)
        if len(all_states) != len(states) or not states:
            raise ValueError("states must be a nonempty sequence without repeats")
        if not self.normal or not self.normal <= all_states:
            raise ValueError("normal states must be a nonempty subset of states")
        if set(self.star) != all_states or not set(self.star.values()) <= all_states:
            raise ValueError("star must map every state to a state")
        for triple in self.ternary:
            if len(triple) != 3 or not set(triple) <= all_states:
                raise ValueError(f"bad ternary triple {triple!r}")
        for w in self.valuation:
            if w not in all_states:
                raise ValueError(f"valuation key {w!r} is not a state")
        for rel in (*self.term_rels.values(), *self.formula_rel_overrides.values()):
            for a, b in rel:
                if a not in all_states or b not in all_states:
                    raise ValueError(f"relation pair ({a!r}, {b!r}) mentions unknown states")

    def state_index(self, w: str) -> int:
        return self.states.index(w)


class _JrcEvaluator:
    def __init__(self, m: RoutleyModel):
        self.m = m
        self.ts_cache: dict[Formula, frozenset[str]] = {}
        self.rel_cache: dict[Formula, dict[str, frozenset[str]]] = {}
        self.term_cache: dict[Term, dict[str, frozenset[str]]] = {}
        by_first: dict[str, list[tuple[str, str]]] = {}
        for a, b, c in m.ternary:
            by_first.setdefault(a, []).append((b, c))
        self.by_first = by_first

    def truthset(self, f: Formula) -> frozenset[str]:
        ts = self.ts_cache.get(f)
        if ts is None:
            ts = frozenset(w for w in self.m.states if self.holds(w, f))
            self.ts_cache[f] = ts
        return ts

    def holds(self, w: str, f: Formula) -> bool:
        m = self.m
        if isinstance(f, Atom):
            return f.name in m.valuation.get(w, frozenset())
        if isinstance(f, Neg):
            return not self.holds(m.star[w], f.inner)
        if isinstance(f, And):
            return self.holds(w, f.left) and self.holds(w, f.right)
        if isinstance(f, RelImp):
            return all(
                not self.holds(b, f.left) or self.holds(c, f.right)
                for b, c in self.by_first.get(w, ()))
        if isinstance(f, RelCf):
            return self.rel(f.left, w) <= self.truthset(f.right)
        if isinstance(f, Just):
            return self.term_rel(f.term, w) <= self.truthset(f.inner)
        if isinstance(f, Box):
            # Not part of the dialect's grammar; programmatic trees read it
            # as truth at every normal state.
            return self.m.normal <= self.truthset(f.inner)
        raise ValueError(
            f"{type(f).__name__} has no clause on Routley models; use a relational model")

    def rel(self, f: Formula, w: str) -> frozenset[str]:
        table = self.rel_cache.get(f)
        if table is None:
            ov = self.m.formula_rel_overrides.get(f)
            if ov is not None:
                rows: dict[str, set[str]] = {}
                for a, b in ov:
                    rows.setdefault(a, set()).add(b)
                table = {v: frozenset(rows.get(v, ())) for v in self.m.states}
            else:
                scheme = self.m.formula_rel_default
                if scheme is RelScheme.Empty:
                    shared = frozenset()
                elif scheme is RelScheme.TruthsetNormal:
                    shared = self.truthset(f) & self.m.normal
                else:
                    shared = self.truthset(f)
                table = {v: shared for v in self.m.states}
            self.rel_cache[f] = table
        return table[w]

    def term_rel(self, t: Term, w: str) -> frozenset[str]:
        table = self.term_cache.get(t)
        if table is None:
            rows: dict[str, set[str]] = {}
            for a, b in self.m.term_rels.get(t, ()):
                rows.setdefault(a, set()).add(b)
            table = {v: frozenset(rows.get(v, ())) for v in self.m.states}
            self.term_cache[t] = table
        return table[w]


def eval_jrc(m: RoutleyModel, w: str, f: Formula) -> bool:
    if w not in set(m.states):
        raise ValueError(f"unknown state {w!r}")
    return _JrcEvaluator(m).holds(w, f)


def truthset_jrc(m: RoutleyModel, f: Formula) -> frozenset[str]:
    return _JrcEvaluator(m).truthset(f)


def jrc_consequence(m: RoutleyModel, premises, goal: Formula) -> bool:
    """Goal holds at every normal state where all premises hold."""
    ev = _JrcEvaluator(m)
    for w in m.states:
        if w not in m.normal:
            continue
        if all(ev.holds(w, f) for f in premises) and not ev.holds(w, goal):
            return False
    return True


def jrc_valid(m: RoutleyModel, f: Formula) -> bool:
    return jrc_consequence(m, (), f)


def _jrc_term_universe(m: RoutleyModel, formulas) -> list[Term]:
    terms: set[Term] = set()
    for t in m.term_rels:
        terms |= subterms(t)
    for f in formulas:
        terms |= terms_of(f)
    return sorted(terms, key=term_key)


def check_jrc_conditions(m: RoutleyModel, universe) -> ConditionReport:
    """Star involution, ternary normality, and the three frame conditions."""
    universe = tuple(universe)
    formulas = _sorted_by_key(closure(universe))
    # a subformula's terms are among its parent's
    terms = _jrc_term_universe(m, universe)
    ev = _JrcEvaluator(m)
    results = [
        _star_involution(m),
        _normality(m, ev),
        _jrc_antecedent_truth(m, ev, formulas),
        _jrc_self_support(m, ev, formulas),
        _jrc_sum(m, ev, terms),
    ]
    return ConditionReport("jrc", tuple(results))


def _star_involution(m: RoutleyModel) -> ConditionResult:
    for w in m.states:
        if m.star[m.star[w]] != w:
            return ConditionResult(
                "star", False, (w,),
                f"star(star({w})) = {m.star[m.star[w]]}, expected {w}")
    return ConditionResult("star", True)


def _normality(m: RoutleyModel, ev: _JrcEvaluator) -> ConditionResult:
    for w in m.states:
        if w not in m.normal:
            continue
        for b, c in ev.by_first.get(w, ()):
            if b != c:
                return ConditionResult(
                    "normality", False, (w, b, c),
                    f"normal state {w} has off-diagonal ternary triple ({w}, {b}, {c})")
        for v in m.states:
            if (w, v, v) not in m.ternary:
                return ConditionResult(
                    "normality", False, (w, v),
                    f"normal state {w} lacks the diagonal triple ({w}, {v}, {v})")
    return ConditionResult("normality", True)


def _jrc_antecedent_truth(m, ev, formulas) -> ConditionResult:
    for f in formulas:
        ts = ev.truthset(f)
        for w in m.states:
            if w not in m.normal:
                continue
            stray = ev.rel(f, w) - ts
            if stray:
                v = min(stray, key=m.state_index)
                return ConditionResult(
                    "1", False, (w, f, v),
                    f"R[{print_formula(f)}]({w}) reaches {v} where the antecedent fails")
    return ConditionResult("1", True)


def _jrc_self_support(m, ev, formulas) -> ConditionResult:
    for f in formulas:
        ts = ev.truthset(f)
        for w in m.states:
            if w in ts and w not in ev.rel(f, w):
                return ConditionResult(
                    "2", False, (w, f),
                    f"{w} satisfies {print_formula(f)} but R[{print_formula(f)}]({w}) misses it")
    return ConditionResult("2", True)


def _jrc_sum(m, ev, terms) -> ConditionResult:
    for t in terms:
        if not isinstance(t, Sum):
            continue
        for w in m.states:
            rows = ev.term_rel(t, w)
            if not rows <= (ev.term_rel(t.left, w) & ev.term_rel(t.right, w)):
                return ConditionResult(
                    "3", False, (w, t.left, t.right),
                    f"R[{print_term(t)}]({w}) exceeds the intersection of its parts")
    return ConditionResult("3", True)


# --- JSON documents ---------------------------------------------------------


def load_routley_model(doc: dict) -> RoutleyModel:
    dialect = Dialect(doc.get("dialect", "jrc"))
    if dialect is not Dialect.JRC:
        raise ValueError("Routley model documents must use dialect jrc")
    states = tuple(doc["states"])
    star_doc = doc.get("star", {})
    return RoutleyModel(
        states=states,
        normal=frozenset(doc.get("normal", states)),
        star={w: star_doc.get(w, w) for w in states},
        ternary=frozenset((a, b, c) for a, b, c in doc.get("ternary", [])),
        valuation={w: frozenset(v) for w, v in doc.get("valuation", {}).items()},
        term_rels={
            parse_term(t, dialect): frozenset((a, b) for a, b in pairs)
            for t, pairs in doc.get("term_rels", {}).items()},
        formula_rel_overrides={
            parse_formula(s, dialect): frozenset((a, b) for a, b in pairs)
            for s, pairs in doc.get("formula_rels", {}).items()},
        formula_rel_default=RelScheme(doc.get("formula_rel_default", "truthset_all")),
    )


def routley_model_to_json(m: RoutleyModel) -> dict:
    idx = m.state_index

    def pairs(rel):
        return [list(p) for p in sorted(rel, key=lambda p: (idx(p[0]), idx(p[1])))]

    return {
        "dialect": "jrc",
        "states": list(m.states),
        "normal": sorted(m.normal, key=idx),
        "star": {w: m.star[w] for w in m.states if m.star[w] != w},
        "ternary": [list(t) for t in sorted(m.ternary, key=lambda t: tuple(map(idx, t)))],
        "valuation": {w: sorted(m.valuation.get(w, ())) for w in m.states},
        "term_rels": {
            print_term(t): pairs(rel)
            for t, rel in sorted(m.term_rels.items(), key=lambda kv: term_key(kv[0]))},
        "formula_rels": {
            print_formula(f): pairs(rel)
            for f, rel in sorted(m.formula_rel_overrides.items(), key=lambda kv: formula_key(kv[0]))},
        "formula_rel_default": m.formula_rel_default.value,
    }
