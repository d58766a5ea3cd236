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
of the triples (x, y, z). The evaluator computes one truth-set mask per
formula, children first, and every condition check reads only masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from condjust.kripke_models import (
    ConditionReport, KripkeModel, Pairs, RelScheme, _UNKNOWN_PAIR, _Evaluator,
    _array, _bits, _check_document, _cond_antecedent_truth, _cond_sum,
    _cond_weak_centering, _diagonal, _frame, _freeze, _inside, _load_fields,
    _lowest, _object, _report, _rows,
    consequence, eval as _eval, model_to_json, truthset, valid_in_model,
)
from condjust.syntax import (
    And, Atom, Box, Dialect, Formula, Just, Neg, RelCf, RelImp, Term,
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
        _freeze(self, star=dict(self.star),
                ternary=frozenset(tuple(t) for t in self.ternary))
        states = self.states
        all_states = set(states)
        if len(all_states) != len(states) or not states:
            raise ValueError("states must be a nonempty sequence without repeats")
        if not self.normal or not self.normal <= all_states:
            raise ValueError("normal states must be a nonempty subset of states")
        if set(self.star) != all_states or not set(self.star.values()) <= all_states:
            raise ValueError("star must map every state to a state")
        # The checks below also build the bitset form the evaluator reads.
        frame = _frame(states, self.normal)
        index, n = frame.index, len(states)
        tern = [[0] * n for _ in states]
        for triple in self.ternary:
            if len(triple) != 3 or not set(triple) <= all_states:
                raise ValueError(f"bad ternary triple {triple!r}")
            x, y, z = map(index.__getitem__, triple)
            tern[x][y] |= 1 << z
        atoms: dict[str, int] = {}
        for w, names in self.valuation.items():
            if w not in all_states:
                raise ValueError(f"valuation key {w!r} is not a state")
            for a in names:
                atoms[a] = atoms.get(a, 0) | 1 << index[w]
        vars(self).update(
            _index=index,
            _normal_mask=frame.normal_mask,
            _normal_idx=frame.normal_idx,
            _full=(1 << n) - 1,
            _star=tuple(index[self.star[w]] for w in states),
            _tern=tuple(map(tuple, tern)),
            _atoms=atoms,
            _term_rows={t: _rows(rel, index, n, _UNKNOWN_PAIR)
                        for t, rel in self.term_rels.items()},
            _override_rows={f: _rows(rel, index, n, _UNKNOWN_PAIR)
                            for f, rel in self.formula_rel_overrides.items()},
        )

    state_index = KripkeModel.state_index

    def _json_fields(self) -> dict:
        s = self.states
        return {
            "star": {w: s[j] for w, j in zip(s, self._star) if s[j] != w},
            "ternary": [[s[x], s[y], s[z]] for x, rows in enumerate(self._tern)
                        for y, row in enumerate(rows) for z in _bits(row)],
            "valuation": {w: sorted(self.valuation.get(w, ())) for w in s},
        }


class _JrcEvaluator(_Evaluator):
    """Truth sets of one Routley model as int masks, bit i for state i,
    cached per formula; every state follows the clauses. The relation rows
    are read as the relational evaluator reads them."""

    __slots__ = ()

    def fill(self, order) -> None:
        masks = self.masks
        m = self.m
        full, everywhere = m._full, range(len(m.states))
        overrides, scope = m._override_rows, m._scope
        for g in order:
            kind = type(g)
            if kind is Atom:
                value = m._atoms.get(g.name, 0)
            elif kind is Neg:
                # true at w when the inner formula fails at star(w)
                a = masks[g.inner]
                value = 0
                for i, s in enumerate(m._star):
                    if not a >> s & 1:
                        value |= 1 << i
            elif kind is And:
                value = masks[g.left] & masks[g.right]
            elif kind is RelImp:
                # true at x when every triple (x, y, z) with the antecedent
                # at y has the consequent at z
                ys, b = list(_bits(masks[g.left])), masks[g.right]
                value = 0
                for x, row in enumerate(m._tern):
                    if not any(row[y] & ~b for y in ys):
                        value |= 1 << x
            elif kind is RelCf:
                rows = overrides.get(g.left)
                b = masks[g.right]
                if rows is not None:
                    value = _inside(everywhere, rows, b)
                else:
                    value = 0 if masks[g.left] & scope & ~b else full
            elif kind is Just:
                rows = m._term_rows.get(g.term)
                value = full if rows is None else _inside(everywhere, rows, masks[g.inner])
            elif kind is Box:
                # Not part of the dialect's grammar; programmatic trees read
                # it as truth at every normal state.
                value = 0 if m._normal_mask & ~masks[g.inner] else full
            else:
                raise ValueError(
                    f"{kind.__name__} has no clause on Routley models; use a relational model")
            masks[g] = value

    def holds(self, i: int, f: Formula) -> bool:
        return bool(self.mask(f) >> i & 1)


RoutleyModel._evaluator = _JrcEvaluator
RoutleyModel._scope = KripkeModel._scope
RoutleyModel._checked = property(lambda m: m._full)
RoutleyModel._members = {}  # every state follows the clauses; none is literal


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
    return _report("jrc", _JRC_CHECKS, _JRC_CHECKS, m, _JrcEvaluator(m), universe)


# Each check has the signature of the kripke_models checks; conditions 2 and
# 3 are the relational weak centering and sum checks, which range over every
# state here and over the normal states only there.


def _star_involution(m, ev, formulas, terms, cs):
    for i, s in enumerate(m._star):
        if m._star[s] != i:
            w = m.states[i]
            return False, (w,), f"star(star({w})) = {m.states[m._star[s]]}, expected {w}"
    return True, None, ""


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
                return False, (w, b, c), (
                    f"normal state {w} has off-diagonal ternary triple ({w}, {b}, {c})")
        missing = m._full & ~_diagonal(rows)
        if missing:
            v = _lowest(m, missing)
            return False, (w, v), f"normal state {w} lacks the diagonal triple ({w}, {v}, {v})"
    return True, None, ""


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
    star_doc = _object(doc, "star")
    return RoutleyModel(
        **fields, star={w: star_doc.get(w, w) for w in fields["states"]},
        ternary=frozenset(
            (a, b, c) for a, b, c in _array(doc.get("ternary", []), "ternary", nested=True)))


def routley_model_to_json(m: RoutleyModel) -> dict:
    return model_to_json(m, Dialect.JRC)
