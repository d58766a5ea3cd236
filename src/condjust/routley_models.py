"""Routley-star models for the relevant dialect.

Truth is compositional at every state: negation flips through the star map,
relevant implication quantifies over a ternary relation, and the relevant
conditional and justification assertions read their accessibility relations
exactly as in the relational models. Normal states are singled out by the
normality condition on the ternary relation and carry the antecedent truth
condition.

A model keeps the bitset form of kripke_models: state i is bit i, a set of
states is an int, a relation is a tuple of rows, one such int per state. The
ternary relation is a row tuple per first state x, row y holding the states z
of the triples (x, y, z). The evaluator of kripke_models reads the star and
these rows at every state, one truth-set mask per formula, children first;
every condition check reads only masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from condjust.kripke_models import (
    ConditionReport, KripkeModel, Pairs, RelScheme, _UNKNOWN_PAIR,
    _View, _array, _bits, _check_document, _cond_antecedent_truth,
    _cond_sum, _cond_weak_centering, _diagonal, _frame, _freeze, _holding,
    _load_fields, _lowest, _object, _report, _rows, _state_masks,
    consequence, eval as _eval, model_to_json, truthset, valid_in_model,
)
from condjust.syntax import Dialect, Formula, RelCf, RelImp, Term

__all__ = [
    "RoutleyModel", "eval_jrc", "truthset_jrc", "jrc_consequence",
    "jrc_valid", "check_jrc_conditions",
    "load_routley_model", "routley_model_to_json",
]


@dataclass(frozen=True, eq=False)
class RoutleyModel:
    """A Routley model. As on KripkeModel, the constructor takes the fields
    by state name and checks them, and _from_masks stores the bitset form
    unchecked."""

    states: tuple[str, ...]
    normal: frozenset[str]
    star: dict[str, str]
    ternary: frozenset[tuple[str, str, str]]
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)
    term_rels: dict[Term, Pairs] = field(default_factory=dict)
    formula_rel_overrides: dict[Formula, Pairs] = field(default_factory=dict)
    formula_rel_default: RelScheme = RelScheme.TruthsetAll

    def __post_init__(self):
        _freeze(self, star=dict(self.star),
                ternary=frozenset(tuple(t) for t in self.ternary))
        frame = _frame(self.states, self.normal, self.formula_rel_default, True)
        index, n = frame["_index"], len(self.states)
        if self.star.keys() != index.keys() or not set(self.star.values()) <= index.keys():
            raise ValueError("star must map every state to a state")
        # The checks below also build the bitset form the evaluator reads.
        tern = [[0] * n for _ in range(n)]
        for triple in self.ternary:
            if len(triple) != 3 or not set(triple) <= index.keys():
                raise ValueError(f"bad ternary triple {triple!r}")
            x, y, z = map(index.__getitem__, triple)
            tern[x][y] |= 1 << z
        vars(self).update(
            frame, _star=tuple(index[self.star[w]] for w in self.states),
            _tern=tuple(map(tuple, tern)),
            _atoms=_state_masks(self.valuation, index, index, "valuation key {!r} is not a state"),
            _members=_NO_MEMBERS,
            _term_rows={t: _rows(rel, index, n, _UNKNOWN_PAIR)
                        for t, rel in self.term_rels.items()},
            _override_rows={f: _rows(rel, index, n, _UNKNOWN_PAIR)
                            for f, rel in self.formula_rel_overrides.items()})

    @classmethod
    def _from_masks(cls, frame: dict, star: tuple[int, ...], tern: tuple[tuple[int, ...], ...],
                    atoms: dict[str, int], term_rows: dict[Term, tuple[int, ...]],
                    override_rows: dict[Formula, tuple[int, ...]]) -> "RoutleyModel":
        """As KripkeModel._from_masks, over a _frame record whose clauses
        hold everywhere: star[i] is the index of the star of state i, row y
        of tern[x] holds the states z of the triples (x, y, z), and every
        row has a cell per state."""
        m = object.__new__(cls)
        vars(m).update(frame, _star=star, _tern=tern, _atoms=atoms, _members=_NO_MEMBERS,
                       _term_rows=term_rows, _override_rows=override_rows)
        return m

    state_index = KripkeModel.state_index

    def _json_fields(self) -> dict:
        s = self.states
        return {
            "star": {w: s[j] for w, j in zip(s, self._star) if s[j] != w},
            "ternary": [[s[x], s[y], s[z]] for x, rows in enumerate(self._tern)
                        for y, row in enumerate(rows) for z in _bits(row)],
            "valuation": {w: sorted(_holding(self._atoms, i)) for i, w in enumerate(s)},
        }


# Set after the class is made, as on KripkeModel.
RoutleyModel.star = _View("star", lambda m: {
    w: m.states[j] for w, j in zip(m.states, m._star)})
RoutleyModel.ternary = _View("ternary", lambda m: frozenset(
    (m.states[x], m.states[y], m.states[z]) for x, rows in enumerate(m._tern)
    for y, row in enumerate(rows) for z in _bits(row)))
RoutleyModel.valuation = _View("valuation", lambda m: {
    w: _holding(m._atoms, i) for i, w in enumerate(m.states)})
RoutleyModel.term_rels = KripkeModel.term_rels
RoutleyModel.formula_rel_overrides = KripkeModel.formula_rel_overrides
RoutleyModel._foreign = "{} has no clause on Routley models; use a relational model"
RoutleyModel._sample = None  # no sample_models link, as on a KripkeModel not sampled
RoutleyModel._none, RoutleyModel._ones = KripkeModel._none, KripkeModel._ones  # one block
# An identity star reads ~ as the complement.
RoutleyModel._clauses = _View("_clauses", lambda m: (
    RelCf, RelImp, None if m._star == m._checked_idx else m._star, m._tern))
_NO_MEMBERS: dict = {}  # no state holds a formula literally


# The jrc names of the evaluation functions are the functions themselves,
# which answer by the model's family; eval_jrc stays a function of its own,
# which perfbench's tracer tells apart from eval.

def eval_jrc(m, w: str, f: Formula) -> bool:
    return _eval(m, w, f)


truthset_jrc = truthset
jrc_consequence = consequence
jrc_valid = valid_in_model


def check_jrc_conditions(m: RoutleyModel, universe) -> ConditionReport:
    """Star involution, ternary normality, and the three frame conditions."""
    if not isinstance(m, RoutleyModel):
        raise TypeError(f"check_jrc_conditions needs a RoutleyModel, not {type(m).__name__}")
    return _report("jrc", _JRC_CHECKS, _JRC_CHECKS, m, universe)


# Each check has the signature of the kripke_models checks; conditions 2 and
# 3 are the relational weak centering and sum checks, which range over every
# state here and over the normal states only there.


def _star_involution(m, ev, formulas, terms, cs):
    for i, s in enumerate(m._star):
        if m._star[s] != i:
            w = m.states[i]
            return (w,), lambda w=w, v=m.states[m._star[s]]: (
                f"star(star({w})) = {v}, expected {w}")


def _normality(m, ev, formulas, terms, cs):
    # At a normal state x the ternary rows are exactly the diagonal: row y
    # holds y and nothing else. The first stray triple is reported in state
    # order, y before z.
    for x in m._normal_idx:
        w, rows = m.states[x], m._tern[x]
        for y, row in enumerate(rows):
            off = row & ~(1 << y)
            if off:
                b, c = m.states[y], _lowest(m, off)
                return (w, b, c), lambda w=w, b=b, c=c: (
                    f"normal state {w} has off-diagonal ternary triple ({w}, {b}, {c})")
        missing = m._checked & ~_diagonal(rows)
        if missing:
            v = _lowest(m, missing)
            return (w, v), lambda w=w, v=v: (
                f"normal state {w} lacks the diagonal triple ({w}, {v}, {v})")


_JRC_CHECKS = {
    "star": _star_involution,
    "normality": _normality,
    "1": _cond_antecedent_truth,
    "2": _cond_weak_centering,
    "3": _cond_sum,
}


# --- JSON documents ---------------------------------------------------------


def load_routley_model(doc: dict) -> RoutleyModel:
    _check_document(doc)
    dialect = Dialect(doc.get("dialect", "jrc"))
    if dialect is not Dialect.JRC:
        raise ValueError("Routley model documents must use dialect jrc")
    fields = _load_fields(doc, dialect, "truthset_all")
    states, star_doc = fields["states"], _object(doc, "star")
    for w, v in star_doc.items():
        if w not in states or v not in states:
            raise ValueError(f"star entry {w!r}: {v!r} names a state not in states")
    return RoutleyModel(
        **fields, star={w: star_doc.get(w, w) for w in states},
        ternary=frozenset(
            (a, b, c) for a, b, c in _array(doc.get("ternary", []), "ternary", 3)))


def routley_model_to_json(m: RoutleyModel) -> dict:
    return model_to_json(m, Dialect.JRC)
