"""Relational models with impossible states for the counterfactual dialects.

A model has a set of states, a subset of normal states, an atomic valuation at
normal states, and a literal formula valuation at non-normal states. Truth is
compositional only at normal states; each counterfactual antecedent and each
justification term gets an accessibility relation, with per-formula overrides
on top of a default scheme derived from truth sets.

The evaluation functions also take the Routley models of routley_models.
One evaluator reads both families: the model supplies its conditional and
implication, the star and ternary rows negation and implication go through
(none here), and the states that follow the clauses. It also reads many
models as one wide model, a block of bits per model: the models one
sample_models call returns, or a chunk of iter_kripke_models, so that
valid_in_model walks a formula once for them all. check_conditions tests
conditions 1 and 2 on a chunk's wide model once, block by block, and a
model that fails there gets its report's results when they are first read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from itertools import repeat
from operator import and_, not_, or_
from typing import TYPE_CHECKING

from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Formula,
    Just, MatImp, Neg, Pair, Sum, Term, check_dialect_formula, closure,
    formula_key, parse_formula, parse_term, print_formula, print_term,
    subterms, term_key, terms_of, _INTERNED, _plan, _sorted_by_key,
)

if TYPE_CHECKING:
    from condjust.routley_models import RoutleyModel

__all__ = [
    "RelScheme", "KripkeModel", "VariantProfile",
    "ConstantSpecification", "Explicit", "AxiomaticallyAppropriate",
    "cs_entries", "profile_for",
    "eval", "eval_kripke", "truthset", "valid_in_model", "consequence",
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
    """A relational model. The constructor takes relations as sets of state
    pairs and builds the bitset form from them; _from_masks takes the bitset
    form and builds the pair fields only when they are first read."""

    states: tuple[str, ...]
    normal: frozenset[str]
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)
    nonnormal_valuation: dict[str, frozenset[Formula]] = field(default_factory=dict)
    term_rels: dict[Term, Pairs] = field(default_factory=dict)
    formula_rel_overrides: dict[Formula, Pairs] = field(default_factory=dict)
    formula_rel_default: RelScheme = RelScheme.TruthsetNormal

    def __post_init__(self):
        _freeze(self, nonnormal_valuation={
            w: frozenset(v) for w, v in self.nonnormal_valuation.items()})
        frame = _frame(self.states, self.normal, self.formula_rel_default, False)
        index, n = frame["_index"], len(self.states)
        normal_index = {w: index[w] for w in self.normal}
        # Building and _check check the bitset form the evaluator reads:
        # state i is bit i, a set of states is an int, a relation is a tuple
        # holding one such int (the row) per state.
        vars(self).update(
            frame,
            _atoms=_state_masks(self.valuation, index, self.normal,
                                "valuation key {!r} is not a normal state"),
            _members=_state_masks(self.nonnormal_valuation, index, index.keys() - self.normal,
                                  "nonnormal_valuation key {!r} is not a non-normal state"),
            _term_rows={t: _rows(rel, index, n, _UNKNOWN_PAIR)
                        for t, rel in self.term_rels.items()},
            # Formula relations live on the normal states.
            _override_rows={f: _rows(rel, normal_index, n, _ABNORMAL_PAIR)
                            for f, rel in self.formula_rel_overrides.items()})
        _check(self)

    @classmethod
    def _from_masks(cls, states: tuple[str, ...], normal: frozenset[str],
                    atoms: dict[str, int], members: dict[Formula, int],
                    term_rows: dict[Term, tuple[int, ...]],
                    override_rows: dict[Formula, tuple[int, ...]]) -> "KripkeModel":
        """A model given in its bitset form, under the default relation
        scheme, checked as the constructor checks the pair form. The dicts
        are kept as given; the caller must not change them. The pair-form
        fields are built on first read."""
        m = object.__new__(cls)
        vars(m).update(_frame(states, normal, RelScheme.TruthsetNormal, False), _atoms=atoms,
                       _members=members, _term_rows=term_rows, _override_rows=override_rows)
        _check(m)
        return m

    def state_index(self, w: str) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise ValueError("tuple.index(x): x not in tuple") from None

    def _json_fields(self) -> dict:
        s, normal = self.states, self.normal
        return {
            "valuation": {w: sorted(self.valuation.get(w, ())) for w in s if w in normal},
            "nonnormal_valuation": {
                w: sorted(print_formula(f) for f in self.nonnormal_valuation.get(w, ()))
                for w in s if w not in normal},
        }


def _freeze(m, **fields) -> None:
    """Store the given fields and the fields both model families share,
    the latter as tuples, frozensets and a RelScheme."""
    vars(m).update(
        states=tuple(m.states),
        normal=frozenset(m.normal),
        valuation={w: frozenset(v) for w, v in m.valuation.items()},
        term_rels={t: frozenset(tuple(p) for p in v) for t, v in m.term_rels.items()},
        formula_rel_overrides={
            f: frozenset(tuple(p) for p in v) for f, v in m.formula_rel_overrides.items()},
        formula_rel_default=RelScheme(m.formula_rel_default),
        **fields)


def _check(m) -> None:
    """Raise ValueError unless the masks stored on m lie in its frame:
    valuations and override rows on the states the clauses hold at (m's
    checked states), rows and the star on its states."""
    # Each test ORs or ANDs the masks together in C; the loops that name
    # the offender run only once a test has failed.
    n, checked, star, tern = len(m.states), m._checked, m._star, m._tern
    beyond = repeat(-1 << n)  # per row, the bits of no state
    if star is not None:
        if len(star) != n or min(star) < 0 or max(star) >= n:
            raise ValueError("star must map every state to a state")
        if len(tern) != n or any(len(rows) != n or any(map(and_, rows, beyond))
                                 for rows in tern):
            raise ValueError("ternary relation mentions unknown states")
    atoms, members = m._atoms, m._members
    if functools.reduce(or_, atoms.values(), 0) & ~checked:
        a = next(a for a, mask in atoms.items() if mask & ~checked)
        raise ValueError(f"valuation of {a!r} holds outside the {m._covered}")
    literal = checked | -1 << n  # the bits of no unchecked state
    if functools.reduce(or_, members.values(), 0) & literal:
        f = next(f for f, mask in members.items() if mask & literal)
        raise ValueError(f"nonnormal_valuation of {print_formula(f)} holds "
                         "outside the non-normal states")
    for t, rows in m._term_rows.items():
        if len(rows) != n or any(map(and_, rows, beyond)):
            raise ValueError(f"relation of {print_term(t)} mentions unknown states")
    for f, rows in m._override_rows.items():
        # rows of checked states, each inside them
        if len(rows) != n or any(map(and_, rows, repeat(~checked))) or any(
                rows[i] for i in range(n) if not checked >> i & 1):
            raise ValueError(f"formula relation of {print_formula(f)} must join {m._covered}")


@functools.lru_cache(maxsize=64)
def _frame(states: tuple[str, ...], normal: frozenset[str], default: RelScheme,
           everywhere: bool) -> dict:
    """The fields that every model over the states and normal states, under
    the default relation scheme, stores but its masks: the one record every
    model builder copies into its model, shared, so that no caller may
    change it. everywhere: the clauses hold at every state, as in Routley
    models, not at the normal states only; those models store their own
    star and ternary rows over this record's None."""
    if len(set(states)) != len(states) or not states:
        raise ValueError("states must be a nonempty sequence without repeats")
    index = dict(zip(states, range(len(states))))
    if everywhere and not (normal and normal <= index.keys()):
        raise ValueError("normal states must be a nonempty subset of states")
    if not normal <= index.keys():
        raise ValueError("normal states must be listed in states")
    normal_idx = tuple(sorted(map(index.__getitem__, normal)))
    normal_mask = sum(1 << i for i in normal_idx)
    checked_idx = tuple(range(len(states))) if everywhere else normal_idx
    return dict(
        states=states, normal=normal, formula_rel_default=default, _index=index,
        _normal_mask=normal_mask, _normal_idx=normal_idx,
        _checked=sum(1 << i for i in checked_idx), _checked_idx=checked_idx,
        _star=None, _tern=None,
        # the states a default scheme's row R_f(w), the truth set of f, is cut to
        _scope=normal_mask if default is RelScheme.TruthsetNormal
        else 0 if default is RelScheme.Empty else -1)


_UNKNOWN_PAIR = "relation pair ({a!r}, {b!r}) mentions unknown states"
_ABNORMAL_PAIR = "formula relation pair ({a!r}, {b!r}) must join normal states"


def _rows(rel: Pairs, index: dict[str, int], n: int, fault: str) -> tuple[int, ...]:
    """A relation as rows, one mask per state; a pair with a state outside
    index raises ValueError with fault filled in."""
    rows = [0] * n
    for a, b in rel:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise ValueError(fault.format(a=a, b=b))
        rows[i] |= 1 << j
    return tuple(rows)


def _state_masks(entries: dict, index: dict[str, int], keys, fault: str) -> dict:
    """Per item of the entries, the mask of the states whose entry holds it;
    an entry of a state not in keys raises ValueError with fault filled in."""
    masks: dict = {}
    for w, entry in entries.items():
        if w not in keys:
            raise ValueError(fault.format(w))
        for x in entry:
            masks[x] = masks.get(x, 0) | 1 << index[w]
    return masks


def _pairs(states: tuple[str, ...], rows: tuple[int, ...]) -> Pairs:
    return frozenset((states[i], states[j]) for i, row in enumerate(rows) for j in _bits(row))


def _holding(masks: dict, i: int) -> frozenset:
    """The keys whose mask has bit i."""
    return frozenset(key for key, mask in masks.items() if mask >> i & 1)


class _View:
    """A field made from an object's other fields on first read, then kept
    on the object: the pair fields of a model built from its masks, a
    Routley model's clauses, the text of a failed condition, a report's
    verdict, a walk model's masks. A constructed object holds its own
    fields, which hide this descriptor. (A __getattr__ would slow every
    attribute load.) A hidden view slows loads of its name, 27 against 11 ns
    (Python 3.11.7), so the masks, read for every model, have views on
    falsifier._WalkModel only."""

    def __init__(self, name: str, build):
        self.name, self.build = name, build

    def __get__(self, m, owner=None):
        if m is None:
            return self
        value = vars(m)[self.name] = self.build(m)
        return value


# Set after the class is made, so that the dataclass fields keep their
# default factories.
KripkeModel.valuation = _View("valuation", lambda m: {
    m.states[i]: _holding(m._atoms, i) for i in m._normal_idx})
KripkeModel.nonnormal_valuation = _View("nonnormal_valuation", lambda m: {
    w: _holding(m._members, i)
    for i, w in enumerate(m.states) if not m._normal_mask >> i & 1})
KripkeModel.term_rels = _View("term_rels", lambda m: {
    t: _pairs(m.states, rows) for t, rows in m._term_rows.items()})
KripkeModel.formula_rel_overrides = _View("formula_rel_overrides", lambda m: {
    f: _pairs(m.states, rows) for f, rows in m._override_rows.items()})
# The family's conditional and implication classes, and the star and ternary
# rows that ~ and the implication read, None for complement and material.
KripkeModel._clauses = (Counterfactual, MatImp, None, None)
KripkeModel._foreign = "{} has no clause on relational models; use a Routley model"
KripkeModel._covered = "normal states"  # where the clauses hold, in _check's messages


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


@functools.cache
def _slice_patterns(width: int, stride: int = 1) -> tuple[int, tuple[int, ...]]:
    """The int with bit j * stride set for each code j < 2**width (all-ones
    when stride is 1), and per slot i < width the int whose bit j * stride
    is bit i of j: slot i's value across one slice of codes."""
    unit, ones = (1 << stride) - 1, (1 << (stride << width)) - 1
    pats = []
    for i in range(width):
        span = stride << i  # the bits of 2**i codes
        pats.append(ones // ((1 << 2 * span) - 1) * ((1 << span) - 1) // unit << span)
    return ones // unit, tuple(pats)


def _diagonal(rows: tuple[int, ...], low: int = 1) -> int:
    """States whose row reaches themselves; on a sample, low is the lowest
    bit of each block."""
    out = 0
    for i, row in enumerate(rows):
        out |= row & low << i
    return out


def _inside(m, rows, target: int) -> int:
    """The checked states whose row lies inside the target mask. On a
    sample, rows[i] holds the rows of state i of every model, and the test
    is made block by block."""
    none, outside = m._none, ~target
    out = 0
    for i in m._checked_idx:
        out |= none(rows[i] & outside) << i
    return out


class _Evaluator:
    """Truth sets of one model of either family, or of one _Sample, as int
    masks, bit i for state i, cached per formula. At the checked states (the
    normal ones of a relational model, all of a Routley model) a formula's
    bits follow its clause; elsewhere they are the literal valuation's
    memberships. A clause that asks whether something holds anywhere asks
    it of each block: the whole model, or one model of a sample."""

    __slots__ = ("m", "masks")

    def __init__(self, m):
        self.m = m
        self.masks: dict[Formula, int] = {}

    def mask(self, f: Formula) -> int:
        masks = self.masks
        value = masks.get(f)
        if value is None:
            self.fill([g for g in _plan(f) if g not in masks] if masks else _plan(f))
            value = masks[f]
        return value

    def fill(self, order) -> None:
        """Cache the mask of each formula in order, children first; each
        formula's children are in the cache or earlier in order."""
        masks, m = self.masks, self.m
        checked, members, atoms = m._checked, m._members, m._atoms
        overrides, terms, scope = m._override_rows, m._term_rows, m._scope
        cond, imp, star, tern = m._clauses
        for g in order:
            kind = type(g)
            if kind is Atom:
                value = atoms.get(g.name, 0)
            elif kind is cond:
                rows = overrides.get(g.left)
                b = masks[g.right]
                if rows is not None:
                    value = _inside(m, rows, b)
                else:
                    # read here, not before the loop: most fills need neither
                    value = m._none(masks[g.left] & scope & ~b) * m._ones
            elif kind is imp:
                if tern is None:
                    value = ~masks[g.left] | masks[g.right]
                else:
                    # true at x when every triple (x, y, z) with the
                    # antecedent at y has the consequent at z
                    ys, b = list(_bits(masks[g.left])), masks[g.right]
                    value = 0
                    for x, row in enumerate(tern):
                        if not any(row[y] & ~b for y in ys):
                            value |= 1 << x
            elif kind is Just:
                rows = terms.get(g.term)
                value = -1 if rows is None else _inside(m, rows, masks[g.inner])
            elif kind is And:
                value = masks[g.left] & masks[g.right]
            elif kind is Neg:
                if star is None:
                    value = ~masks[g.inner]
                else:
                    # true at w when the inner formula fails at star(w)
                    a = masks[g.inner]
                    value = 0
                    for i, s in enumerate(star):
                        if not a >> s & 1:
                            value |= 1 << i
            elif kind is Box:
                value = m._none(m._normal_mask & ~masks[g.inner]) * m._ones
            else:
                raise ValueError(m._foreign.format(kind.__name__))
            masks[g] = value & checked | members[g] if g in members else value & checked

    def holds(self, i: int, f: Formula) -> bool:
        m = self.m
        if not m._checked >> i & 1:
            return bool(m._members.get(f, 0) >> i & 1)  # literal, whatever f is
        return bool(self.mask(f) >> i & 1)

    def term_rows(self, t: Term) -> tuple[int, ...]:
        rows = self.m._term_rows.get(t)
        return (0,) * len(self.m.states) if rows is None else rows

    def rel_rows(self, f: Formula) -> tuple[int, ...]:
        """R_f as rows: the override, else the default scheme's shared row."""
        rows = self.m._override_rows.get(f)
        if rows is not None:
            return rows
        scope = self.m._scope
        return (scope and self.mask(f) & scope,) * len(self.m.states)


# The evaluator of the last model asked about, in a one-item list. An
# evaluator holds its model, so one read of the slot gives a model and its
# truth sets together, and a thread never gets another model's evaluator.
# Models never change, so the questions a caller asks of one model in a row
# (its counterexamples, then its conditions) share one set of truth sets.
# Not one evaluator per model: that would keep the truth sets of every model
# a caller retains. valid_in_model and the block test of check_conditions
# keep the evaluator of the last sample asked about in a slot of its own, so
# that a caller asking a sample's models in either order, or other questions
# in between, walks each formula's plan once for the whole sample.
_NO_MODEL = _Evaluator(None)
_last = [_NO_MODEL]
_last_sample = [_NO_MODEL]


def _evaluator(m, slot: list) -> _Evaluator:
    ev = slot[0]
    if ev.m is m:
        return ev
    # Dropping the old evaluator first lets the new one reuse its memory, and
    # skipping __init__ saves a call: each is a few percent of a question
    # about a model not asked about before.
    slot[0] = ev = _NO_MODEL
    ev = object.__new__(_Evaluator)
    ev.m, ev.masks = m, {}
    slot[0] = ev
    return ev


# A lone model is one block: x holds nowhere in it when not x, and -1
# covers the block.
KripkeModel._none, KripkeModel._ones = not_, -1


class _Sample:
    """Models as one wide model that _Evaluator reads: state i of model j is
    bit j * width + i, width being the largest state count, as the
    falsifier's walks pack one bit per model code. A term's or an override's
    row at position i holds row i of every model. The models are relational
    under the normal-truth-set scheme, so the checked states are the normal
    ones: those one sample_models call returns, without overrides, or a
    chunk of iter_kripke_models, whose override rows are 0 off the normal
    positions."""

    _clauses, _foreign = KripkeModel._clauses, KripkeModel._foreign

    def __init__(self, width: int, low: int, normal: int, atoms: dict, members: dict,
                 term_rows: dict, override_rows: dict):
        self._atoms, self._members = atoms, members
        self._term_rows, self._override_rows = term_rows, override_rows
        self._checked = self._normal_mask = self._scope = normal
        # the positions some model checks: a row test skips the others
        self._checked_idx = tuple(i for i in range(width) if normal >> i & low)
        self._low, self._ones, self._shifts = low, (1 << width) - 1, range(1, width)
        # check_conditions' last block answer: conditions, universe, answer
        self._last = None, None, 0

    def _none(self, x: int) -> int:
        """The lowest bit of each block where x has no bit: a shift by less
        than the width brings no bit of the next block down to it."""
        y = x
        for s in self._shifts:
            y |= x >> s
        return self._low & ~y


def _link_sample(models) -> None:
    """Link each model to one _Sample of them all and to the offset of its
    block. The link is no field, so dataclasses.replace, repr and
    model_to_json leave it out, and __getstate__ drops it from a pickle or a
    copy. The sample holds no model, so no model keeps another alive."""
    if not models:
        return
    width = max(len(m.states) for m in models)
    low = normal = 0
    atoms: dict[str, int] = {}
    members: dict[Formula, int] = {}
    terms: dict[Term, list[int]] = {}
    for j, m in enumerate(models):
        shift = j * width
        low |= 1 << shift
        normal |= m._normal_mask << shift
        for wide, masks in ((atoms, m._atoms), (members, m._members)):
            for key, mask in masks.items():
                wide[key] = wide.get(key, 0) | mask << shift
        for t, rows in m._term_rows.items():
            wide_rows = terms.setdefault(t, [0] * width)
            for i, row in enumerate(rows):
                wide_rows[i] |= row << shift
    sample = _Sample(width, low, normal, atoms, members, terms, {})
    for j, m in enumerate(models):
        vars(m)["_sample"] = (sample, j * width)


def _getstate(m) -> dict:
    """What a pickle or a copy of a model keeps: its attributes but the
    sample link, the masks of a model of iter_kripke_models decoded first."""
    m._atoms  # decodes them, if not read yet
    state = vars(m)
    if "_sample" in state:
        state = {k: v for k, v in state.items() if k != "_sample"}
    return state


KripkeModel._sample = None  # the sample link of a model sample_models built
KripkeModel.__getstate__ = _getstate


def _family(m, dialect: Dialect, formulas=()) -> None:
    """Raise TypeError unless the dialect is read on the model's class
    (Routley models for jrc), then check the formulas' grammar."""
    if isinstance(m, KripkeModel) is (dialect is Dialect.JRC):
        raise TypeError(f"dialect {dialect.value} needs a "
                        f"{'RoutleyModel' if dialect is Dialect.JRC else 'KripkeModel'}")
    for f in formulas:
        check_dialect_formula(f, dialect)


def eval(m, w: str, f: Formula, dialect: Dialect | None = None) -> bool:
    """Truth of f at state w."""
    i = m._index.get(w)
    if i is None:
        raise ValueError(f"unknown state {w!r}")
    if dialect is not None:
        _family(m, dialect, (f,))
    return _evaluator(m, _last).holds(i, f)


eval_kripke = eval  # the same function, under a name that shadows no builtin


def truthset(m, f: Formula, dialect: Dialect | None = None) -> frozenset[str]:
    """States where f is true, relational non-normal states by membership."""
    if dialect is not None:
        _family(m, dialect, (f,))
    ts = _evaluator(m, _last).mask(f)
    return frozenset(w for i, w in enumerate(m.states) if ts >> i & 1)


def valid_in_model(m, f: Formula, dialect: Dialect | None = None) -> bool:
    """True at every normal state."""
    if dialect is not None:
        _family(m, dialect, (f,))
    link = m._sample
    if link is None:
        return not m._normal_mask & ~_evaluator(m, _last).mask(f)
    sample, shift = link
    ev = _last_sample[0]
    if ev.m is not sample:  # read here, not through a call: a sample is asked in a row
        ev = _evaluator(sample, _last_sample)
    return not m._normal_mask & ~(ev.mask(f) >> shift)


def consequence(m, premises, goal: Formula, dialect: Dialect | None = None) -> bool:
    """Goal holds at every normal state where all premises hold."""
    premises = tuple(premises)
    if dialect is not None:
        _family(m, dialect, (*premises, goal))
    return not _counterexamples(m, premises, goal)


def _counterexamples(m, premises, goal: Formula) -> int:
    """The normal states where every premise holds and the goal fails, as a
    mask read off the model's evaluator."""
    ev = _evaluator(m, _last)
    counter = m._normal_mask & ~ev.mask(goal)
    for f in premises:
        counter &= ev.mask(f)
    return counter


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

    def __reduce__(self):
        # the fields alone: a detail not read yet is made here, so no
        # check's text function is pickled
        return ConditionResult, (self.condition, self.passed, self.witness, self.detail)


def _failed(cid: str, witness: tuple, text) -> ConditionResult:
    """A failed condition whose detail is text() when first read."""
    r = object.__new__(ConditionResult)
    vars(r).update(condition=cid, passed=False, witness=witness, _text=text)
    return r


@dataclass(frozen=True)
class ConditionReport:
    profile: str
    results: tuple[ConditionResult, ...]
    approximation_note: str = APPROXIMATION_NOTE

    def failures(self) -> tuple[ConditionResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def __reduce__(self):
        # the fields alone: results not made yet are made here, so no model
        # is pickled
        return ConditionReport, (self.profile, self.results, self.approximation_note)


# Set after the classes are made, so that the dataclass fields keep their
# defaults; _report sets ok as it collects the results, and a report that
# the block test answers makes its results when they are first read.
ConditionResult.detail = _View("detail", lambda r: vars(r)["_text"]())
ConditionReport.ok = _View("ok", lambda r: all(x.passed for x in r.results))
ConditionReport.results = _View("results", lambda r: _report(*r._args).results)


def default_universe(m, queries=()) -> set[Formula]:
    """Subformula closure of the queries, relation overrides and non-normal
    valuation entries: the formulas a condition check can say anything about."""
    return closure([*queries, *m._override_rows, *m._members])


@functools.lru_cache(maxsize=256)
def _query_part(queries: frozenset[Formula]):
    """The sorted closure of the queries, the terms in it, and those terms
    sorted: everything in a condition check that the model does not change."""
    formulas = tuple(_sorted_by_key(closure(queries)))
    terms: set[Term] = set()
    for f in queries:  # a subformula's terms are among its parent's
        terms |= terms_of(f)
    return formulas, frozenset(terms), tuple(sorted(terms, key=term_key))


def _report(name: str, cids, checks: dict, m, universe,
            cs: ConstantSpecification | None = None) -> ConditionReport:
    """Run the checks named by cids over the sorted closure of the universe,
    its terms and the model's; each check reads only masks, and a failed
    one's text is made when first read."""
    formulas, query_terms, terms = _query_part(frozenset(universe))
    ev = _evaluator(m, _last)
    masks = ev.masks
    todo = [f for f in formulas if f not in masks] if masks else formulas
    if todo:
        ev.fill(todo)  # sorted by size, so children come first
    # The query terms are closed under subterms; the model may add others.
    extra: set[Term] = set()
    for t in m._term_rows:
        if t not in query_terms:
            extra |= subterms(t)
    if extra:
        terms = sorted(query_terms | extra, key=term_key)
    results = []
    ok = True
    for cid in cids:
        failure = checks[cid](m, ev, formulas, terms, cs)
        if failure is None:
            results.append(_PASSED[cid])
        else:
            ok = False
            results.append(_failed(cid, *failure))
    # built as _failed builds a result, skipping the frozen __init__'s setattr calls
    report = object.__new__(ConditionReport)
    vars(report).update(profile=name, results=tuple(results),
                        approximation_note=APPROXIMATION_NOTE, ok=ok)
    return report


def check_conditions(m: KripkeModel, profile: VariantProfile, universe,
                     cs: ConstantSpecification | None = None) -> ConditionReport:
    """Check the profile's frame conditions over a finite formula universe.
    A model of a chunk of iter_kripke_models that fails its chunk's block
    test of conditions 1 and 2 gets a failed report at once, which runs the
    checks when its results are first read."""
    if not isinstance(m, KripkeModel):
        raise TypeError(f"check_conditions needs a KripkeModel, not {type(m).__name__}")
    universe = frozenset(universe)
    link = m._sample
    if link is not None:
        sample, shift = link
        if sample._override_rows:
            # a chunk's models are asked in a row: one answer kept, the last
            conditions, last = profile.conditions, sample._last
            if last[0] is conditions and last[1] == universe:
                fails = last[2]
            else:
                fails = _block_failures(sample, conditions, universe)
                sample._last = conditions, universe, fails
            if fails >> shift & sample._ones:
                if cs is not None and isinstance(cs, AxiomaticallyAppropriate):
                    cs = Explicit(cs_entries(cs))  # its entries as they are now
                # profile, ok and the arguments of the _report that makes the
                # results; approximation_note is the class's default
                report = object.__new__(ConditionReport)
                state = report.__dict__
                state["profile"], state["ok"] = profile.name, False
                state["_args"] = profile.name, conditions, _CHECKS, m, universe, cs
                return report
    return _report(profile.name, profile.conditions, _CHECKS, m, universe, cs)


def _block_failures(sample: _Sample, conditions, universe: frozenset) -> int:
    """The states, over every block of the sample, at which condition 1 or
    2 (those of the conditions) fails for a formula of the universe's
    closure. Only an override row can fail them."""
    ev, normal, fails = _evaluator(sample, _last_sample), sample._normal_mask, 0
    for f in _query_part(universe)[0]:
        rows = sample._override_rows.get(f)
        if rows is not None:
            ts = ev.mask(f)
            if "1" in conditions:
                fails |= normal & ~_inside(sample, rows, ts)
            if "2" in conditions:
                fails |= ts & normal & ~_diagonal(rows, sample._low)
    return fails


# Each condition walks its formulas, terms and normal states in the same order
# and returns None when it holds, else its first failure as (witness, a
# function that makes its text); a witness state taken from a mask is its
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
                return (w, f, v), lambda w=w, f=f, v=v: (
                    f"R[{print_formula(f)}]({w}) reaches {v} where the antecedent fails")


def _cond_weak_centering(m, ev, formulas, terms, cs):
    # A default scheme's row R_f(w) is the truth set of f cut to its scope,
    # so it reaches every checked state that satisfies f when the scope
    # covers them all; only an override can then miss one.
    checked = m._checked
    uncovered = checked & ~m._scope
    for f in formulas:
        if not uncovered and f not in m._override_rows:
            continue
        missed = ev.mask(f) & checked & ~_diagonal(ev.rel_rows(f))
        if missed:
            w = _lowest(m, missed)
            return (w, f), lambda w=w, f=f: (
                "{0} satisfies {1} but R[{1}]({0}) misses it".format(w, print_formula(f)))


def _cond_constants(m, ev, formulas, terms, cs):
    entries = cs_entries(cs)
    in_scope = set(formulas) if entries else ()
    for name, f in entries:
        if f not in in_scope:
            continue
        ts = ev.mask(f)
        c = Constant(name)
        rows = ev.term_rows(c)
        for i in m._normal_idx:
            stray = rows[i] & ~ts
            if stray:
                w, v = m.states[i], _lowest(m, stray)
                return (w, c, f), lambda w=w, name=name, v=v: (
                    f"R[{name}]({w}) reaches {v} outside the specified formula's truth set")


def _cond_sum(m, ev, formulas, terms, cs):
    for t in terms:
        if not isinstance(t, Sum):
            continue
        rows, left, right = ev.term_rows(t), ev.term_rows(t.left), ev.term_rows(t.right)
        for i in m._checked_idx:
            if rows[i] & ~(left[i] & right[i]):
                return (m.states[i], t.left, t.right), lambda w=m.states[i], t=t: (
                    f"R[{print_term(t)}]({w}) exceeds the intersection of its parts")


# Conditions 5, 5p and 8 ask about a > b, a => b and t:a over formulas a, b
# of the universe. At a normal state those follow from the masks of a and b;
# at a non-normal one only a literal entry makes them true, and an entry is
# a formula that was built, so it is found through the intern table. The
# helpers below read them so, building no formula.


def _literal(members: dict, key: tuple) -> int:
    """The non-normal states holding the formula with intern key key
    (class, then fields) as a literal entry. A formula never built is no
    entry, so a miss in the intern table builds nothing and answers 0."""
    return members.get(_INTERNED.get(key), 0) if members else 0


def _cf_mask(m, ev, a: Formula, b: Formula) -> tuple[Formula | None, int]:
    """a > b, interned or None, and the mask ev.mask would give it, without
    building it: the cached mask, else the clause over the masks of a and
    b at the normal states and the literal entries elsewhere."""
    f = _INTERNED.get((Counterfactual, a, b))
    value = ev.masks.get(f)
    if value is None:
        ts_b = ev.mask(b)
        rows = m._override_rows.get(a)
        value = (_inside(m, rows, ts_b) if rows is not None
                 else 0 if ev.mask(a) & m._scope & ~ts_b else -1)
        value = value & m._normal_mask | m._members.get(f, 0)
    return f, value


def _just_rows(m, ev, s: Term, f: Formula | None, ts_f: int) -> tuple[int, ...]:
    """ev.rel_rows(s:f) without building s:f, given f's mask ts_f; f is
    None when it is not interned, and then s:f is not either."""
    g = None if f is None else _INTERNED.get((Just, s, f))
    rows = m._override_rows.get(g)
    if rows is not None:
        return rows
    scope = m._scope
    if scope:
        value = ev.masks.get(g)
        if value is None:
            rows = m._term_rows.get(s)
            value = -1 if rows is None else _inside(m, rows, ts_f)
            value = value & m._normal_mask | m._members.get(g, 0)
        scope &= value
    return (scope,) * len(m.states)


def _cond_application(m, ev, formulas, terms, cs):
    # A failure needs all of: t.right justifies a at w, R[t](w) leaves the
    # truth set of b, and t.left justifies a > b or a => b at w. The cheap
    # tests come first. Whether a > b and a => b hold on R[t.left](w) is read
    # off the masks of a and b at the normal states it reaches and off the
    # literal entries at the others, so neither conditional is built.
    truth = None
    for t in terms:
        if not isinstance(t, App):
            continue
        if truth is None:
            truth = [ev.mask(f) for f in formulas]
            normal, members, overrides, scope = (
                m._normal_mask, m._members, m._override_rows, m._scope)
        rows, left, right = ev.term_rows(t), ev.term_rows(t.left), ev.term_rows(t.right)
        for i in m._normal_idx:
            row, reach = rows[i], left[i]
            inside, outside = reach & normal, reach & ~normal
            if not row or outside and not members:
                continue  # nothing escapes, or no conditional holds outside
            for a, ts_a in zip(formulas, truth):
                if right[i] & ~ts_a:
                    continue
                # a > b holds on inside when the union of R_a over it lies
                # in the truth set of b, and a => b when inside & ts_a does
                rel = overrides.get(a)
                if rel is None:
                    cf_need = inside and ts_a & scope
                else:
                    cf_need = 0
                    for v in _bits(inside):
                        cf_need |= rel[v]
                mat_need = inside & ts_a
                for b, ts_b in zip(formulas, truth):
                    stray = row & ~ts_b
                    if not stray:
                        continue
                    if (not cf_need & ~ts_b and not outside & ~_literal(
                            members, (Counterfactual, a, b))) or (
                            not mat_need & ~ts_b and not outside & ~_literal(
                                members, (MatImp, a, b))):
                        w, v = m.states[i], _lowest(m, stray)
                        return (w, t, v), lambda w=w, t=t, v=v, a=a, b=b: (
                            f"R[{print_term(t)}]({w}) reaches {v} although "
                            f"{print_term(t.left)} justifies the step from "
                            f"{print_formula(a)} to {print_formula(b)}")


def _cond_chained_application(m, ev, formulas, terms, cs):
    # R_{t.left:(a > b)} and R_{t.right:a} are read off the masks of a, b and
    # a > b, as _just_rows and _cf_mask give them; neither formula is built.
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
                    r2 = _just_rows(m, ev, t.right, a, ev.mask(a))
                r1 = _just_rows(m, ev, t.left, *_cf_mask(m, ev, a, b))
                for i in m._normal_idx:
                    for v in _bits(r1[i] & normal):
                        hit = r2[v] & esc
                        if hit:
                            u = next(_bits(hit))
                            u2 = _lowest(m, rows[u] & ~ev.mask(b))
                            w, v, u = m.states[i], m.states[v], m.states[u]
                            return (w, v, u, u2, t, a, b), lambda t=t, u2=u2: (
                                f"chained application through {print_term(t)} escapes "
                                f"the consequent truth set at {u2}")


def _cond_reflexive_terms(m, ev, formulas, terms, cs):
    for t in terms:
        missed = m._normal_mask & ~_diagonal(ev.term_rows(t))
        if missed:
            w = _lowest(m, missed)
            return (w, t), lambda w=w, t=t: f"R[{print_term(t)}] is not reflexive at {w}"


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
                    return (w, v, u, inner), lambda w=w, v=v, u=u, t=t: (
                        f"R[{print_term(t)}] step to {v} then R[{print_term(t.inner)}] "
                        f"to {u} is not matched by R[{print_term(t.inner)}]({w})")


def _cond_pair(m, ev, formulas, terms, cs):
    for t in terms:
        if not isinstance(t, Pair):
            continue
        rows, inner_rows = ev.term_rows(t), ev.term_rows(t.inner)
        for b in formulas:
            ts_b = ev.mask(b)
            target = None  # the mask of t.antecedent > b, once it is needed
            for i in m._normal_idx:
                if inner_rows[i] & ~ts_b:
                    continue  # t.inner does not justify b here
                if target is None:
                    target = _cf_mask(m, ev, t.antecedent, b)[1]
                missed = rows[i] & ~target
                if missed:
                    w, v = m.states[i], _lowest(m, missed)
                    return (w, t, b, v), lambda w=w, t=t, v=v, b=b: (
                        f"R[{print_term(t)}]({w}) reaches {v} where "
                        f"{print_formula(Counterfactual(t.antecedent, b))} fails")


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
                return (a, b), lambda a=a, b=b: (
                    f"{print_formula(a)} and {print_formula(b)} agree on normal states "
                    f"but have different relations")


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

# A frozen result per condition, shared by every report the condition passes;
# the jrc checks of routley_models add two condition ids of their own.
_PASSED = {cid: ConditionResult(cid, True) for cid in (*_CHECKS, "star", "normality")}


# --- JSON documents ---------------------------------------------------------


def load_model(doc: dict) -> tuple[KripkeModel | RoutleyModel, Dialect]:
    """Build a model from its JSON document; returns the declared dialect too.
    A document of dialect jrc gives the RoutleyModel load_routley_model builds."""
    _check_document(doc)
    if doc.get("dialect") == "jrc":
        from condjust.routley_models import load_routley_model

        return load_routley_model(doc), Dialect.JRC
    if "star" in doc or "ternary" in doc:
        raise ValueError("document describes a Routley model, not a relational one")
    dialect = Dialect(doc.get("dialect", "lpcplus"))
    m = KripkeModel(**_load_fields(doc, dialect, "truthset_normal"), nonnormal_valuation={
        w: frozenset(parse_formula(s, dialect)
                     for s in _array(entries, f"nonnormal_valuation[{w!r}]", str))
        for w, entries in _object(doc, "nonnormal_valuation").items()})
    return m, dialect


def _load_fields(doc: dict, dialect: Dialect, scheme: str) -> dict:
    """The fields of a model document that both families share, as keyword
    arguments; scheme is the family's default relation scheme."""
    states = tuple(_array(doc["states"], "states", str))
    return {
        "states": states,
        "normal": frozenset(_array(doc.get("normal", doc["states"]), "normal", str)),
        "valuation": {w: frozenset(_array(v, f"valuation[{w!r}]", str))
                      for w, v in _object(doc, "valuation").items()},
        "term_rels": {
            parse_term(t, dialect): frozenset(
                (a, b) for a, b in _array(pairs, f"term_rels[{t!r}]", 2))
            for t, pairs in _object(doc, "term_rels").items()},
        "formula_rel_overrides": {
            parse_formula(s, dialect): frozenset(
                (a, b) for a, b in _array(pairs, f"formula_rels[{s!r}]", 2))
            for s, pairs in _object(doc, "formula_rels").items()},
        "formula_rel_default": RelScheme(doc.get("formula_rel_default", scheme)),
    }


def _check_document(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise TypeError("a model document must be a JSON object")


def _object(doc: dict, key: str) -> dict:
    """A model document's entry under key, which must be an object."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be a JSON object")
    return value


_SHAPES = {str: "strings", 2: "[state, state] pairs", 3: "[state, state, state] triples"}


def _array(value, key: str, item=None) -> list:
    """A model document's value named key: an array, of strings when item
    is str, of arrays of that many entries when item is 2 or 3."""
    if isinstance(value, list) and (item is None or all(
            isinstance(x, str) if item is str else isinstance(x, list) and len(x) == item
            for x in value)):
        return value
    shape = f" of {_SHAPES[item]}" if item else ""
    raise TypeError(f"{key} must be a JSON array{shape}")


def model_to_json(m, dialect: Dialect) -> dict:
    """The model's JSON document, in its family's format."""
    _family(m, dialect)
    s = m.states

    def pairs(rows):
        return [[s[i], s[j]] for i, row in enumerate(rows) for j in _bits(row)]

    return {
        "dialect": dialect.value,
        "states": list(s),
        "normal": [s[i] for i in m._normal_idx],
        **m._json_fields(),
        "term_rels": {
            print_term(t): pairs(rows)
            for t, rows in sorted(m._term_rows.items(), key=lambda kv: term_key(kv[0]))},
        "formula_rels": {
            print_formula(f): pairs(rows)
            for f, rows in sorted(m._override_rows.items(), key=lambda kv: formula_key(kv[0]))},
        "formula_rel_default": m.formula_rel_default.value,
    }
