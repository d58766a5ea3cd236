"""Bounded countermodel search for sequents in every dialect.

Models are enumerated up to a state-count bound in a fixed canonical order:
fewer states first, then ascending over the membership bitmasks. Relational
models are enumerated directly (valuations, term relations, and relation
overrides for the conditional antecedents that occur in the sequent) and
filtered through the dialect's frame conditions. For the relevant dialect
the walk runs, per star involution, over the atom valuation and truth
assignments to the conditional, implication, and justification
subformulas; accessibility rows are realized maximally, which succeeds
exactly when some model realizes the assignment. The realization is
computed once, bit-sliced; a hit's model is read off the same routine run
on that single code and re-verified by the condition checker and the
evaluator before it is returned.

Both searches take 2**16 model codes at a time from _slices, one code per
bit of a Python int, and evaluate the sequent and the cheap necessary
conditions on the whole block: the frame conditions that bits decide for
relational models, every realization test for Routley models. Only the
codes that survive are built, in ascending order, so the first model found
is the one a code-by-code walk would find. A relational slice's slot ints
are split by field by _SlotLayout.columns, which also gives
iter_kripke_models' chunks of 2**8 codes; _SlotLayout.masks reads a single
code. Both searches build models through _from_masks, which stores masks
valid by construction unchecked, walk the signature's universe in its
sorted order and key their truth tables by formula. Every model either
search builds copies the one frame record kripke_models._frame gives its
states (_shape keeps it per layout shape).
A model of iter_kripke_models stores only its chunk link: that record sits
on a class per state and normal count (_shape's), and its masks are
decoded from its code when first read.

The search is exponential in the sequent's vocabulary and meant for the
small bounds where countermodels are legible. It doubles as the independent
oracle the tableau prover is cross-checked against.
"""

from __future__ import annotations

import copyreg
import functools
import itertools
from dataclasses import dataclass
from operator import and_, lshift, or_

from .kripke_models import (
    KripkeModel,
    RelScheme,
    check_conditions,
    eval as kripke_eval,  # not called here; perfbench's tracer patches this name
    profile_for,
    _bits,
    _counterexamples,
    _frame,
    _link_sample,
    _lowest,
    _query_part,
    _slice_patterns,
    _Sample,
    _View,
)
from .routley_models import RoutleyModel, check_jrc_conditions
from .syntax import (
    And, Atom, Constant, Counterfactual, Dialect, Formula, Just, MatImp, Neg,
    RelCf, RelImp, Sum, Term, Variable, atoms, check_dialect_formula, subterms,
    term_key,
)
from .tableau import Closed, Exhausted, Open, ProofResult, prove, verify_result

__all__ = [
    "SearchSignature",
    "CrossCheckReport",
    "find_countermodel",
    "cross_check",
    "iter_kripke_models",
    "sample_models",
]


@dataclass(frozen=True)
class SearchSignature:
    """Everything the enumeration must cover for one sequent."""

    dialect: Dialect
    bound: int
    atoms: tuple[str, ...]
    terms: tuple[Term, ...]
    antecedents: tuple[Formula, ...]
    universe: tuple[Formula, ...]

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("state bound must be at least 1")

    @classmethod
    def for_sequent(cls, premises, goal: Formula, dialect: Dialect,
                    bound: int) -> "SearchSignature":
        seq = (*premises, goal)
        for f in seq:
            check_dialect_formula(f, dialect)
        universe, _, terms = _query_part(frozenset(seq))
        names = tuple(sorted({a for f in seq for a in atoms(f)}))
        hook = RelCf if dialect is Dialect.JRC else Counterfactual
        antecedents = tuple(dict.fromkeys(
            f.left for f in universe if isinstance(f, hook)))
        return cls(dialect, bound, names, terms, antecedents, universe)


# --- relational enumeration ----------------------------------------------

# A slice of the search holds 2**_SLICE_BITS consecutive model codes, so
# each per-slot, per-formula int of a full slice is 8 KB.
_SLICE_BITS = 16
# A chunk of iter_kripke_models holds 2**_CHUNK_BITS consecutive codes, read
# as one _Sample. On the false > p enumeration at bound 3, 2**8 and 2**10
# time alike; 2**4 and 2**6 pay per chunk more often, 2**12 for wider ints.
_CHUNK_BITS = 8


# The classes, bound at import: perfbench's tracer replaces their names.
_KRIPKE, _ROUTLEY = KripkeModel, RoutleyModel
_MASKS = ("_atoms", "_members", "_term_rows", "_override_rows")


@functools.cache
def _shape(k: int, n: int):
    """What every layout of k states, the first n normal, shares: the frame
    records (kripke_models._frame) of its relational models and of its
    Routley models, the shifts of term and override rows, the non-normal
    rows, and the _WalkModel subclass whose class attributes are the
    relational frame record: one class per layout shape, shared by every
    walk, so a model of iter_kripke_models stores only its chunk link."""
    states = tuple([f"w{i}" for i in range(k)])
    frame = _frame(states, frozenset(states[:n]), RelScheme.TruthsetNormal, False)
    return (frame, _frame(states, frozenset(states[:n]), RelScheme.TruthsetAll, True),
            tuple(range(0, k * k, k)), tuple(range(0, n * n, n)), (0,) * (k - n),
            type(f"_WalkModel{k}_{n}", (_WalkModel,), dict(frame)))


class _SlotLayout:
    """Membership slots of the models with k states, the first n normal.

    Slots are ordered valuation, non-normal valuation, term relations,
    relation overrides, each block row-major over its index tuple; bit i of
    a model code is slot i, and ascending codes give the canonical order.
    masks and columns are the two readers of that order. As no slot lies
    outside the frame, model builds through KripkeModel._from_masks, which
    stores a code's masks unchecked.
    """

    def __init__(self, sig: SearchSignature, k: int, n: int, packed: bool = False):
        self.sig, self.k, self.n = sig, k, n
        self.frame, _, self.term_shifts, self.ov_shifts, self.pad, self.walk_class = \
            _shape(k, n)
        self.bits, self.stride = (_CHUNK_BITS, k) if packed else (_SLICE_BITS, 1)
        self.size = (len(sig.atoms) * n + len(sig.universe) * (k - n)
                     + len(sig.terms) * k * k + len(sig.antecedents) * n * n)
        # The low slots are the same ints in every slice, split once, here;
        # high holds the fields with high slots, reach[t] those up to slot t.
        self.width = width = min(self.size, self.bits)
        slots = [*_slice_patterns(width, self.stride)[1], *[0] * (self.size - width)]
        # in slot order, where lists of slot ints go, under which keys, of what length
        atoms, members, terms, overrides = self.fields = {}, {}, {}, {}
        runs = [(atoms, sig.atoms, n), (members, sig.universe, k - n)]
        for block, keys, count in ((terms, sig.terms, k), (overrides, sig.antecedents, n)):
            for key in keys:
                block[key] = rows = [None] * count
                runs.append((rows, range(count), count))
        self.high, at = [], 0
        for where, places, count in runs:
            for place in places:
                where[place] = slots[at:at + count]
                if count and at + count > width:
                    self.high.append((where, place, at, at + count))
                at += count
        self.reach = [sum(f[2] <= t for f in self.high) for t in range(width, self.size)]

    def model(self, code: int) -> KripkeModel:
        """The model of one code."""
        return _KRIPKE._from_masks(self.frame, *self.masks(code))

    def masks(self, code: int):
        """The code's masks in _MASKS order, read field by field from the low bits up."""
        sig, k, n = self.sig, self.k, self.n
        n_ones, nn_ones, k_ones = (1 << n) - 1, (1 << k - n) - 1, (1 << k) - 1
        atoms: dict[str, int] = {}
        for a in sig.atoms:
            if code & n_ones:
                atoms[a] = code & n_ones
            code >>= n
        members: dict[Formula, int] = {}
        if k > n:
            for f in sig.universe:
                if code & nn_ones:
                    members[f] = (code & nn_ones) << n
                code >>= k - n
        term_rows: dict[Term, tuple[int, ...]] = {}
        for t in sig.terms:
            term_rows[t] = tuple([code >> s & k_ones for s in self.term_shifts])
            code >>= k * k
        override_rows: dict[Formula, tuple[int, ...]] = {}
        for f in sig.antecedents:
            override_rows[f] = tuple([code >> s & n_ones for s in self.ov_shifts]) + self.pad
            code >>= n * n
        return atoms, members, term_rows, override_rows

    def columns(self):
        """Per slice of _slices, its first code, its slot ints split by field
        (per atom its n normal states, per universe formula its k - n others,
        per term k rows of k states, per antecedent n rows of n) and its
        full int. The dicts are the same each slice: read before the next."""
        fields, high, reach, width = self.fields, self.high, self.reach, self.width
        for first, bits, full in _slices(self.size, self.bits, self.stride):
            hi = first >> width  # counting up, the slots to hi's lowest set bit change
            for to, key, i, j in high[:reach[(hi & -hi).bit_length() - 1]] if hi else high:
                to[key] = bits[i:j]
            yield first, fields, full

    def sample(self, fields, low: int) -> _Sample:
        """The models of a packed slice as one _Sample, read off its fields,
        whose slot ints have bit j * k set when the slot is in code j of the
        slice, as model reads a code: bit j * k + i is state i of code j."""
        k, n = self.k, self.n
        atoms, members, terms, overrides = fields
        return _Sample(
            k, low, low * ((1 << n) - 1), {a: _pack(c) for a, c in atoms.items()},
            {f: _pack(c) << n for f, c in members.items()} if k > n else {},
            {t: tuple(map(_pack, rows)) for t, rows in terms.items()},
            {f: tuple(map(_pack, rows)) + self.pad for f, rows in overrides.items()})


def _layouts(sig: SearchSignature, packed: bool = False):
    for k in range(1, sig.bound + 1):
        for n in range(1, k + 1):
            yield _SlotLayout(sig, k, n, packed)


def _slices(size: int, bits: int = _SLICE_BITS, stride: int = 1):
    """The codes below 2**size, 2**bits at a time: the slice's first code,
    the int per slot whose bit j * stride is the slot in code first + j,
    and the int with bit j * stride set for each code j of the slice
    (all-ones when stride is 1). One list, whose high slots, each 0 or that
    int, each slice sets in place: read a slice's slots before the next."""
    width = min(size, bits)
    low, pats = _slice_patterns(width, stride)
    slots = [*pats, *[0] * (size - width)]
    for hi in range(1 << size - width):
        if hi:  # counting up, hi's lowest set bit turns on, those below it off
            top = width + (hi & -hi).bit_length() - 1
            slots[width:top + 1] = [0] * (top - width) + [low]
        yield hi << width, slots, low


def iter_kripke_models(sig: SearchSignature):
    """Every relational model over the signature, unfiltered, smallest first,
    in the canonical order of _SlotLayout's codes.

    The codes are taken 2**_CHUNK_BITS at a time, as a packed layout's
    columns gives them, and each model is linked to the _Sample of its
    chunk, so valid_in_model walks a formula once per chunk and
    check_conditions tests conditions 1 and 2 once per chunk asked in a row
    under one profile and universe. A model holds
    that link alone: its layout's frame record sits on its class, and its
    masks are decoded when first read (_WalkModel).
    """
    profile_for(sig.dialect)  # reject dialects without a Kripke profile
    new = object.__new__
    for lay in _layouts(sig, packed=True):
        k, count, cls = lay.k, 1 << min(lay.size, _CHUNK_BITS), lay.walk_class
        for base, fields, low in lay.columns():
            sample = lay.sample(fields, low)
            sample._walk = lay, base  # code base + shift // k is the model at shift
            for shift in range(0, k * count, k):
                m = new(cls)
                m.__dict__["_sample"] = sample, shift
                yield m


class _WalkModel(KripkeModel):
    """A model of iter_kripke_models: its chunk link alone, its layout's
    frame record on its class (_SlotLayout.walk_class), until a mask is
    read; then the plain model(code), which holds its frame record itself.
    See _View for why the views sit here; repr, copies and pickles decode
    first, and a call of the class builds a plain KripkeModel."""

    _atoms = _View("_atoms", lambda m: m._decode()._atoms)
    _members = _View("_members", lambda m: m._decode()._members)
    _term_rows = _View("_term_rows", lambda m: m._decode()._term_rows)
    _override_rows = _View("_override_rows", lambda m: m._decode()._override_rows)

    def __new__(cls, *args, **kwargs):
        # dataclasses.replace calls the class; the walk calls object.__new__
        return _KRIPKE(*args, **kwargs)

    def _decode(self) -> KripkeModel:
        sample, shift = self._sample
        lay, base = sample._walk
        state = vars(self)
        state.update(lay.frame)
        state.update(zip(_MASKS, lay.masks(base + shift // lay.k)))
        object.__setattr__(self, "__class__", _KRIPKE)
        return self

    def __repr__(self):
        return repr(self._decode())

    def __reduce_ex__(self, protocol):  # __getstate__ decodes: self is then a _KRIPKE
        return copyreg.__newobj__, (_KRIPKE,), self.__getstate__()


def _survivors(lay: _SlotLayout, premises, goal: Formula, conditions,
               fields, full: int) -> int:
    """Bit j set when model j of the slice may be a countermodel.

    Each slot, formula truth value and condition is one int carrying a bit
    per model of the slice. A cleared bit marks a model that either has no
    witness state or fails condition 1, 2, 4 or 6, so the witness loop or
    check_conditions would reject it; set bits still get the full check.
    Only the signature's antecedents have relation overrides: every other
    formula follows TruthsetNormal, which passes conditions 1 and 2.
    """
    n = lay.n
    normal = range(n)
    atoms, members, terms, overrides = fields
    # per universe formula, its truth per state: computed at the normal
    # states, the slots' literal memberships at the others
    truth: dict[Formula, list[int]] = {}
    for f in lay.sig.universe:
        cls = type(f)
        if cls is Atom:
            col = atoms[f.name]
        elif cls is Neg:
            inner = truth[f.inner]
            col = [full ^ inner[w] for w in normal]
        elif cls is And:
            left, right = truth[f.left], truth[f.right]
            col = [left[w] & right[w] for w in normal]
        elif cls is MatImp:
            left, right = truth[f.left], truth[f.right]
            col = [(full ^ left[w]) | right[w] for w in normal]
        elif cls is Counterfactual or cls is Just:
            # true where the relation's row stays inside the body's truth
            # set: override rows join normal states, term rows all states
            if cls is Counterfactual:
                rows, body = overrides[f.left], truth[f.right]
            else:
                rows, body = terms[f.term], truth[f.inner]
            outside = [full ^ x for x in body]
            col = [full ^ functools.reduce(or_, map(and_, rows[w], outside), 0)
                   for w in normal]
        else:  # Box
            col = [functools.reduce(and_, truth[f.inner][:n], full)] * n
        truth[f] = col + members[f]
    live = 0
    refuted = truth[goal]
    for w in normal:
        hit = full ^ refuted[w]
        for p in premises:
            hit &= truth[p][w]
        live |= hit
    if not live:
        return 0
    cond1, cond2 = "1" in conditions, "2" in conditions
    for f, rows in overrides.items():
        outside = [full ^ x for x in truth[f][:n]]
        for w in normal:
            row = rows[w]
            if cond2:
                live &= outside[w] | row[w]
            if cond1:  # no row state outside the antecedent
                live &= full ^ functools.reduce(or_, map(and_, row, outside), 0)
    if "6" in conditions:
        for rows in reversed(terms.values()):  # the high slots, 0 in most slices, first
            for w in normal:
                live &= rows[w][w]
            if not live:
                return 0
    if "4" in conditions:
        for t, rows in terms.items():
            if type(t) is Sum:
                left, right = terms[t.left], terms[t.right]
                for w in normal:
                    for cell, l_cell, r_cell in zip(rows[w], left[w], right[w]):
                        live &= (full ^ cell) | l_cell & r_cell
    return live


def _find_kripke(premises, goal: Formula, dialect: Dialect,
                 bound: int) -> tuple[KripkeModel, str] | None:
    sig = SearchSignature.for_sequent(premises, goal, dialect, bound)
    profile = profile_for(dialect)
    seq = [*premises, goal]
    for lay in _layouts(sig):
        for base, fields, full in lay.columns():
            for j in _bits(_survivors(lay, premises, goal, profile.conditions,
                                      fields, full)):
                model = lay.model(base | j)
                refuted = _counterexamples(model, premises, goal)
                if refuted and check_conditions(model, profile, seq).ok:
                    return model, _lowest(model, refuted)
    return None


# --- relevant-dialect enumeration -----------------------------------------


@functools.cache
def _involutions(k: int) -> tuple[tuple[int, ...], ...]:
    """Star involutions of k states, ascending."""
    out: list[tuple[int, ...]] = []

    def build(mapping: dict[int, int]):
        free = [i for i in range(k) if i not in mapping]
        if not free:
            out.append(tuple(mapping[i] for i in range(k)))
            return
        i = free[0]
        for j in free:
            build({**mapping, i: j, j: i})

    build({})
    return tuple(sorted(out))


# The jrc filter complements against the slice's all-ones int, never with ~:
# a bitwise operation on a negative int of 2**16 bits costs several times
# one on a nonnegative int.
def _restrict(row: list[int], nodes, w: int, truth, full: int) -> list[int]:
    # cut a row down to the bodies of the nodes true at w
    for nd, body in nodes:
        off, inside = full ^ truth[nd][w], truth[body]
        row = [cell & (off | inside[v]) for v, cell in enumerate(row)]
    return row


def _escapes(row: list[int], nodes, w: int, truth, outside, full: int) -> int:
    # codes where each node false at w has a row state outside its body
    ok = full
    for nd, body in nodes:
        ok &= functools.reduce(or_, map(and_, row, outside[body]), truth[nd][w])
    return ok


class _RoutleySearch:
    """Countermodels at the normal state w0 of Routley models.

    For each state count k and star involution, a model code holds the
    truth of the modal subformulas (relevant implications, conditionals,
    justifications) in its low bits and the atom valuation above them: bit
    g * k + w is group g at state w, the modal formulas first. Ascending
    codes thus walk assignment by assignment.

    realize, the one realization, builds the maximal accessibility rows and
    tests them bit-sliced on 2**_SLICE_BITS codes at a time, one code per
    bit of a Python int, as _find_kripke does; a code passes exactly when
    some model realizes its truth values. Kept codes are re-verified in
    ascending order, so the first model and witness are those of a
    code-by-code walk. A kept code's model is read off realize run on that
    code alone, where every cell is 0 or 1.
    """

    def __init__(self, sig: SearchSignature, premises, goal: Formula):
        self.sig, self.premises, self.goal = sig, premises, goal
        modal = [f for f in sig.universe if isinstance(f, (RelImp, RelCf, Just))]
        # the group of each formula a code holds: its bits are g * k + w
        self.group = {f: g for g, f in enumerate(
            [*modal, *(Atom(a) for a in sig.atoms)])}
        self.groups = len(self.group)
        self.cf_nodes = [(a, [(f, f.right) for f in modal
                              if isinstance(f, RelCf) and f.left is a])
                         for a in sig.antecedents]
        self.imps = [f for f in modal if isinstance(f, RelImp)]
        self.term_nodes = [
            (t, [(f, f.inner) for f in modal if isinstance(f, Just) and f.term is t])
            for t in sig.terms]
        self.bodies = {body for _, nodes in (*self.cf_nodes, *self.term_nodes)
                       for _, body in nodes}

    def run(self) -> tuple[RoutleyModel, str] | None:
        for k in range(1, self.sig.bound + 1):
            for sigma in _involutions(k):
                for base, bits, full in _slices(self.groups * k):
                    for j in _bits(self.realize(k, sigma, bits, full)[0]):
                        found = self._verify(k, sigma, base | j)
                        if found is not None:
                            return found
        return None

    def realize(self, k: int, sigma, bits: list[int], full: int):
        """The live codes of the slice and the maximal rows they realize.

        Returns (live, cf_rows, slices, term_rows): per antecedent and per
        term, keyed by it, one row per state, and per state x >= 1 the
        ternary (y, z) cells, row-major, when the sequent has an
        implication. A row is a list of cells, cell v the int of the codes
        whose row holds v. The rows are cut short once no code is live.
        """
        # per universe formula and state, the int of the codes whose truth
        # values make the formula true there
        truth: dict[Formula, list[int]] = {}
        for f in self.sig.universe:
            cls = type(f)
            if cls is Neg:
                inner = truth[f.inner]
                truth[f] = [full ^ inner[img] for img in sigma]
            elif cls is And:
                truth[f] = [x & y for x, y in zip(truth[f.left], truth[f.right])]
            else:
                g = self.group[f]
                truth[f] = bits[g * k:g * k + k]
        # where each node body is false, for the escape tests
        outside = {f: [full ^ x for x in truth[f]] for f in self.bodies}
        states = range(k)
        live = full ^ truth[self.goal][0]
        for p in self.premises:
            live &= truth[p][0]
        cf_rows: dict[Formula, list[list[int]]] = {}
        slices: list[list[int]] = []
        term_rows: dict[Term, list[list[int]]] = {}
        # the ternary relation at w0 is its diagonal, so an implication
        # holds there when its consequent holds wherever its antecedent does
        for f in self.imps:
            fails = functools.reduce(or_, [x & (full ^ y) for x, y in zip(
                truth[f.left], truth[f.right])], 0)
            live &= fails ^ truth[f][0]
        # conditional rows: inside the antecedent at w0, inside the true
        # conditionals' consequents; self-support and escapes
        for ante, nodes in self.cf_nodes:
            if not live:
                return 0, cf_rows, slices, term_rows
            at = truth[ante]
            per_state = []
            for w in states:
                row = _restrict(at if w == 0 else [full] * k, nodes, w, truth, full)
                live &= (full ^ (at[w] & (full ^ row[w]))) \
                    & _escapes(row, nodes, w, truth, outside, full)
                per_state.append(row)
            cf_rows[ante] = per_state
        # ternary slices at x >= 1: the (y, z) cells no true implication
        # forbids, and a refuting cell for each false one
        if self.imps:
            refute = [[truth[f.left][y] & (full ^ truth[f.right][z])
                       for y in states for z in states]
                      for f in self.imps]
            for x in range(1, k):
                if not live:
                    return 0, cf_rows, slices, term_rows
                on = [truth[f][x] for f in self.imps]
                cells = [full] * (k * k)
                for holds, bad in zip(on, refute):
                    cells = [c ^ (c & holds & b) for c, b in zip(cells, bad)]
                for holds, bad in zip(on, refute):
                    esc = holds
                    for c, b in zip(cells, bad):
                        esc |= c & b
                    live &= esc
                slices.append(cells)
        # term rows: a sum's row inside its parts', inside the true
        # justifications' bodies; escapes
        for t, nodes in self.term_nodes:
            if not live:
                return 0, cf_rows, slices, term_rows
            per_state = []
            for w in states:
                if type(t) is Sum:
                    row = [x & y for x, y in zip(term_rows[t.left][w],
                                                 term_rows[t.right][w])]
                else:
                    row = [full] * k
                row = _restrict(row, nodes, w, truth, full)
                live &= _escapes(row, nodes, w, truth, outside, full)
                per_state.append(row)
            term_rows[t] = per_state
        return live, cf_rows, slices, term_rows

    def _verify(self, k: int, sigma, code: int) -> tuple[RoutleyModel, str] | None:
        """Build the model of one code the filter kept, with the rows
        realize builds for that code alone, and check its conditions."""
        bits = [code >> i & 1 for i in range(self.groups * k)]
        _, cf_rows, slices, term_rows = self.realize(k, sigma, bits, 1)
        # w0's ternary rows are its diagonal; cell y * k + z of the slice of
        # state x is bit z of x's row y
        tern = (tuple(1 << y for y in range(k)),
                *(tuple(_pack(cells[y:y + k]) for y in range(0, k * k, k))
                  for cells in slices))
        row = (1 << k) - 1
        model = _ROUTLEY._from_masks(
            _shape(k, 1)[1], sigma, tern + ((0,) * k,) * (k - len(tern)),
            {a: code >> self.group[Atom(a)] * k & row for a in self.sig.atoms},
            {t: tuple(map(_pack, rows)) for t, rows in term_rows.items()},
            {f: tuple(map(_pack, rows)) for f, rows in cf_rows.items()})
        # w0 is the model's only normal state
        if check_jrc_conditions(model, [*self.premises, self.goal]).ok \
                and _counterexamples(model, self.premises, self.goal):
            return model, "w0"
        return None


def _pack(cells) -> int:
    """The row's cells, cell v shifted v bits, summed: the mask of a row of
    0/1 cells, or a chunk's wide row from its per-state ints."""
    return sum(map(lshift, cells, itertools.count()))


# --- entry points ----------------------------------------------------------


def find_countermodel(premises, goal: Formula, profile: Dialect,
                      bound: int = 3):
    """First condition-passing model of at most `bound` states that makes
    the premises true and the goal false at a normal state, or None."""
    if not isinstance(profile, Dialect):
        raise TypeError("profile must be a Dialect")
    if bound < 1:
        raise ValueError("state bound must be at least 1")
    premises = tuple(premises)
    if profile is Dialect.JRC:
        sig = SearchSignature.for_sequent(premises, goal, profile, bound)
        return _RoutleySearch(sig, premises, goal).run()
    return _find_kripke(premises, goal, profile, bound)


@dataclass(frozen=True)
class CrossCheckReport:
    """prove and find_countermodel run side by side on one sequent."""

    proof: ProofResult
    countermodel: tuple[RoutleyModel, str] | None
    verdict: str  # "agree" | "contradiction" | "inconclusive"
    detail: str

    @property
    def contradiction(self) -> bool:
        return self.verdict == "contradiction"


# cross_check's verdict and detail per kind of proof and whether the
# enumeration found a countermodel; {} is the state bound
_VERDICTS = {
    (Closed, True): ("contradiction", "proof closed but a countermodel exists within {} states"),
    (Closed, False): ("agree", "proof closed and no countermodel exists within {} states"),
    (Open, True): ("agree", "open branch verified; enumeration confirms a countermodel"),
    (Open, False): ("agree", "open branch verified; no countermodel within {} states"),
    (Exhausted, True): ("agree", "proof budget ran out but enumeration found a countermodel"),
    (Exhausted, False): ("inconclusive",
                         "proof budget ran out and no countermodel within {} states"),
}


def cross_check(premises, goal: Formula, budget=None,
                bound: int = 3) -> CrossCheckReport:
    """Pit the tableau against bounded enumeration on a relevant sequent.

    A contradiction means a genuine bug: a closed proof next to a verified
    countermodel, or an open branch whose extracted model does not check
    out. An exhausted proof with no bounded countermodel decides nothing.
    """
    premises = tuple(premises)
    proof = prove(premises, goal, budget)
    found = find_countermodel(premises, goal, Dialect.JRC, bound)
    if isinstance(proof, Open) and not verify_result(proof, premises, goal):
        return CrossCheckReport(proof, found, "contradiction",
                                "open branch extraction failed verification")
    verdict, detail = _VERDICTS[type(proof), found is not None]
    return CrossCheckReport(proof, found, verdict, detail.format(bound))


# --- random condition-passing models ---------------------------------------


def sample_models(dialect: Dialect, atom_names, terms, count: int, rng,
                  universe=(), size_bound: int = 3) -> list[KripkeModel]:
    """Random relational models built to satisfy the dialect's conditions.

    Term rows always contain the diagonal, compound term rows are exactly
    the diagonal, and formula relations follow the normal-truthset default,
    which settles every frame condition structurally. The internalization
    and chained-application dialects keep a single normal state; their
    pairing and chained-application conditions need it. Non-normal states
    draw their literal memberships from the universe's subformulas; the
    universe and the terms must be of the dialect. valid_in_model reads
    the models together, as one wide model with a block of bits each.
    """
    profile_for(dialect)  # reject dialects without a Kripke profile
    if size_bound < 1:
        raise ValueError("state bound must be at least 1")
    if count < 0:
        raise ValueError("sample count must not be negative")
    universe, terms = tuple(universe), tuple(terms)
    for node in (*universe, *terms):
        check_dialect_formula(node, dialect)
    single_normal = dialect in (Dialect.LPCint, Dialect.LPCprime)
    all_terms = sorted({s for t in terms for s in subterms(t)}, key=term_key)
    pool = _query_part(frozenset(universe))[0]
    out: list[KripkeModel] = []
    for _ in range(count):
        k = rng.randint(1, size_bound)
        states = tuple(f"w{i}" for i in range(k))
        n = 1 if single_normal else rng.randint(1, k)
        valuation = {w: {a for a in atom_names if rng.random() < 0.5}
                     for w in states[:n]}
        nn_val = {w: {f for f in pool if rng.random() < 0.2}
                  for w in states[n:]}
        term_rels: dict[Term, set] = {}
        for t in all_terms:
            pairs = {(w, w) for w in states}
            if isinstance(t, (Variable, Constant)):
                pairs |= {(a, b) for a in states for b in states
                          if a != b and rng.random() < 0.3}
            term_rels[t] = pairs
        out.append(KripkeModel(states, frozenset(states[:n]), valuation,
                               nn_val, term_rels, {},
                               RelScheme.TruthsetNormal))
    _link_sample(out)
    return out
