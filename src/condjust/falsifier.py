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

Both searches take 2**16 model codes at a time, one code per bit of a
Python int, and evaluate the sequent and the cheap necessary conditions on
the whole block: the frame conditions that bits decide for relational
models, every realization test for Routley models. Only the codes that
survive are built, in ascending order, so the first model found is the one
a code-by-code walk would find.

The search is exponential in the sequent's vocabulary and meant for the
small bounds where countermodels are legible. It doubles as the independent
oracle the tableau prover is cross-checked against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import lshift

from .kripke_models import (
    KripkeModel,
    RelScheme,
    check_conditions,
    eval as kripke_eval,  # not called here; perfbench's tracer patches this name
    profile_for,
    _bits,
    _counterexamples,
    _link_sample,
    _lowest,
    _slice_patterns,
    _Sample,
)
from .routley_models import RoutleyModel, check_jrc_conditions
from .syntax import (
    And, Atom, Box, Constant, Counterfactual, Dialect, Formula, Just, MatImp,
    Neg, RelCf, RelImp, Sum, Term, Variable, atoms, check_dialect_formula,
    closure, subterms, term_key, _sorted_by_key,
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
        universe = tuple(_sorted_by_key(closure(seq)))
        names = tuple(sorted({a for f in seq for a in atoms(f)}))
        term_set: set[Term] = set()
        for f in universe:
            if isinstance(f, Just):
                term_set |= subterms(f.term)
        hook = RelCf if dialect is Dialect.JRC else Counterfactual
        antecedents = tuple(dict.fromkeys(
            f.left for f in universe if isinstance(f, hook)))
        return cls(dialect, bound, names,
                   tuple(sorted(term_set, key=term_key)), antecedents, universe)


# --- relational enumeration ----------------------------------------------

# A slice of the search holds 2**_SLICE_BITS consecutive model codes, so
# each per-slot, per-formula int of a full slice is 8 KB.
_SLICE_BITS = 16
# A chunk of iter_kripke_models holds 2**_CHUNK_BITS consecutive codes, read
# as one _Sample. On the false > p enumeration at bound 3, 2**8 and 2**10
# time alike; 2**4 and 2**6 pay per chunk more often, 2**12 for wider ints.
_CHUNK_BITS = 8


# Bound once: perfbench's tracer replaces the names KripkeModel and
# RoutleyModel in this module with counting functions, on which _from_masks
# cannot be called.
_model_from_masks = KripkeModel._from_masks
_routley_from_masks = RoutleyModel._from_masks


@functools.cache
def _shape(k: int, n: int):
    """What every layout of k states, the first n normal, shares: the states,
    the normal set, the shift of each term row and of each override row,
    and the zero override rows of the non-normal states."""
    states = tuple([f"w{i}" for i in range(k)])
    return (states, frozenset(states[:n]), tuple(range(0, k * k, k)),
            tuple(range(0, n * n, n)), (0,) * (k - n))


class _SlotLayout:
    """Membership slots of the models with k states, the first n normal.

    Slots are ordered valuation, non-normal valuation, term relations,
    relation overrides, each block row-major over its index tuple; bit i of
    a model code is slot i, and ascending codes give the canonical order.
    """

    def __init__(self, sig: SearchSignature, k: int, n: int):
        self.sig, self.k, self.n = sig, k, n
        (self.states, self.normal, self.term_shifts, self.ov_shifts,
         self.pad) = _shape(k, n)
        self.nn_at = len(sig.atoms) * n
        self.term_at = self.nn_at + len(sig.universe) * (k - n)
        self.ov_at = self.term_at + len(sig.terms) * k * k
        self.size = self.ov_at + len(sig.antecedents) * n * n

    def model(self, code: int) -> KripkeModel:
        """The model of one code, read field by field from the low bits up:
        the code is already the model's bitset form."""
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
        return _model_from_masks(self.states, self.normal, atoms, members,
                                 term_rows, override_rows)

    def sample(self, bits: list[int], low: int) -> _Sample:
        """The models of a chunk of codes as one _Sample, read off the int
        per slot whose bit j * k is the slot in code j of the chunk, as model
        reads a code: bit j * k + i is state i of code j."""
        sig, k, n = self.sig, self.k, self.n
        slots = iter(bits)

        def row(count: int, at: int = 0) -> int:
            return sum(map(lshift, itertools.islice(slots, count), range(at, at + count)))

        atoms = {a: row(n) for a in sig.atoms}
        members = {f: row(k - n, n) for f in sig.universe} if k > n else {}
        terms = {t: tuple([row(k) for _ in range(k)]) for t in sig.terms}
        overrides = {f: tuple([row(n) for _ in range(n)]) + self.pad
                     for f in sig.antecedents}
        return _Sample(k, low, low * ((1 << n) - 1), atoms, members, terms, overrides)


def _layouts(sig: SearchSignature):
    for k in range(1, sig.bound + 1):
        for n in range(1, k + 1):
            yield _SlotLayout(sig, k, n)


def iter_kripke_models(sig: SearchSignature):
    """Every relational model over the signature, unfiltered, smallest first.

    Membership slots are ordered valuation, non-normal valuation, term
    relations, relation overrides; ascending integers over those bits give
    the canonical order. The codes are taken 2**_CHUNK_BITS at a time, and
    each model is linked to the _Sample of its chunk, so valid_in_model
    walks a formula once per chunk and check_conditions tests conditions 1
    and 2 once per chunk.
    """
    profile_for(sig.dialect)  # reject dialects without a Kripke profile
    for lay in _layouts(sig):
        width = min(lay.size, _CHUNK_BITS)
        low, pats = _slice_patterns(width, lay.k)
        for base in range(0, 1 << lay.size, 1 << width):
            # the chunk's slots, as _slices gives them, with a stride of k bits
            sample = lay.sample([*pats, *(low if base >> i & 1 else 0
                                          for i in range(width, lay.size))], low)
            for shift, code in zip(range(0, lay.k << width, lay.k),
                                   range(base, base + (1 << width))):
                m = lay.model(code)
                vars(m)["_sample"] = (sample, shift)
                yield m


def _slices(size: int):
    """The codes below 2**size, a slice at a time: the slice's first code,
    the int per slot whose bit j is the slot in code first + j, and the
    slice's all-ones int."""
    width = min(size, _SLICE_BITS)
    full, pats = _slice_patterns(width)
    high = size - width
    for hi in range(1 << high):
        yield hi << width, [*pats, *(full if hi >> i & 1 else 0
                                     for i in range(high))], full


class _KripkeFilter:
    """Necessary conditions for a countermodel, evaluated bit-sliced.

    Each slot, formula truth value and condition is one int carrying a bit
    per model of a slice. A cleared bit marks a model that either has no
    witness state or fails condition 1, 2, 4 or 6, so the witness loop or
    check_conditions would reject it; set bits still get the full check.
    Only the signature's antecedents have relation overrides: every other
    formula follows TruthsetNormal, which passes conditions 1 and 2.
    """

    def __init__(self, sig: SearchSignature, premises, goal: Formula,
                 conditions):
        index = {f: i for i, f in enumerate(sig.universe)}
        atom_at = {a: i for i, a in enumerate(sig.atoms)}
        ante_at = {f: i for i, f in enumerate(sig.antecedents)}
        term_at = {t: i for i, t in enumerate(sig.terms)}
        plan: list[tuple] = []
        for f in sig.universe:
            if isinstance(f, Atom):
                plan.append(("atom", atom_at[f.name]))
            elif isinstance(f, Neg):
                plan.append(("neg", index[f.inner]))
            elif isinstance(f, And):
                plan.append(("and", index[f.left], index[f.right]))
            elif isinstance(f, MatImp):
                plan.append(("imp", index[f.left], index[f.right]))
            elif isinstance(f, Counterfactual):
                plan.append(("cf", ante_at[f.left], index[f.right]))
            elif isinstance(f, Just):
                plan.append(("just", term_at[f.term], index[f.inner]))
            else:
                assert isinstance(f, Box)
                plan.append(("box", index[f.inner]))
        self.plan = plan
        self.premises = [index[p] for p in premises]
        self.goal = index[goal]
        self.antecedents = [index[f] for f in sig.antecedents]
        self.cond1 = "1" in conditions
        self.cond2 = "2" in conditions
        self.reflexive = range(len(sig.terms)) if "6" in conditions else ()
        self.sums = [(term_at[t], term_at[t.left], term_at[t.right])
                     for t in sig.terms
                     if isinstance(t, Sum) and "4" in conditions]

    def survivors(self, lay: _SlotLayout, bits: list[int], full: int) -> int:
        """Bit j set when model j of the slice may be a countermodel."""
        k, n = lay.k, lay.n
        normal = range(n)
        truth: list[list[int]] = []
        for fi, ins in enumerate(self.plan):
            op = ins[0]
            if op == "atom":
                at = ins[1] * n
                col = bits[at:at + n]
            elif op == "neg":
                inner = truth[ins[1]]
                col = [full ^ inner[w] for w in normal]
            elif op == "and":
                left, right = truth[ins[1]], truth[ins[2]]
                col = [left[w] & right[w] for w in normal]
            elif op == "imp":
                left, right = truth[ins[1]], truth[ins[2]]
                col = [(full ^ left[w]) | right[w] for w in normal]
            elif op == "cf" or op == "just":
                # true where the relation's row stays inside the body's
                # truth set: override rows join normal states, term rows
                # all states
                body = truth[ins[2]]
                width = n if op == "cf" else k
                base = (lay.ov_at if op == "cf" else lay.term_at) \
                    + ins[1] * width * width
                col = []
                for w in normal:
                    bad = 0
                    row = base + w * width
                    for v, edge in enumerate(bits[row:row + width]):
                        bad |= edge & (full ^ body[v])
                    col.append(full ^ bad)
            else:
                inner = truth[ins[1]]
                every = full
                for v in normal:
                    every &= inner[v]
                col = [every] * n
            at = lay.nn_at + fi * (k - n)
            truth.append(col + bits[at:at + k - n])
        live = 0
        goal = truth[self.goal]
        for w in normal:
            hit = full ^ goal[w]
            for p in self.premises:
                hit &= truth[p][w]
            live |= hit
        if not live:
            return 0
        for ci, fi in enumerate(self.antecedents):
            ante = truth[fi]
            base = lay.ov_at + ci * n * n
            for w in normal:
                row = bits[base + w * n:base + w * n + n]
                if self.cond2:
                    live &= (full ^ ante[w]) | row[w]
                if self.cond1:
                    for v in normal:
                        live &= (full ^ row[v]) | ante[v]
        for ti in self.reflexive:
            base = lay.term_at + ti * k * k
            for w in normal:
                live &= bits[base + w * k + w]
        for ti, li, ri in self.sums:
            s, left, right = (lay.term_at + i * k * k for i in (ti, li, ri))
            for cell in range(n * k):
                live &= (full ^ bits[s + cell]) | bits[left + cell] & bits[right + cell]
        return live


def _find_kripke(premises, goal: Formula, dialect: Dialect,
                 bound: int) -> tuple[KripkeModel, str] | None:
    sig = SearchSignature.for_sequent(premises, goal, dialect, bound)
    profile = profile_for(dialect)
    seq = [*premises, goal]
    sieve = _KripkeFilter(sig, premises, goal, profile.conditions)
    for lay in _layouts(sig):
        for base, bits, full in _slices(lay.size):
            for j in _bits(sieve.survivors(lay, bits, full)):
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


def _escapes(row: list[int], nodes, w: int, truth, full: int) -> int:
    # codes where each node false at w has a row state outside its body
    ok = full
    for nd, body in nodes:
        esc, inside = truth[nd][w], truth[body]
        for v, cell in enumerate(row):
            esc |= cell ^ (cell & inside[v])
        ok &= esc
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
        index = {f: i for i, f in enumerate(sig.universe)}
        modal = [f for f in sig.universe if isinstance(f, (RelImp, RelCf, Just))]
        group = {f: i for i, f in enumerate(modal)}
        group.update((Atom(a), len(modal) + i) for i, a in enumerate(sig.atoms))
        plan: list[tuple] = []
        for f in sig.universe:
            if isinstance(f, Neg):
                plan.append(("neg", index[f.inner], 0))
            elif isinstance(f, And):
                plan.append(("and", index[f.left], index[f.right]))
            else:
                plan.append(("slot", group[f], 0))
        self.plan = plan
        self.groups = len(group)
        self.atoms_at = len(modal)
        self.premise_ix = [index[p] for p in premises]
        self.goal_ix = index[goal]
        self.cf_ix = [(index[a], [(index[f], index[f.right]) for f in modal
                                  if isinstance(f, RelCf) and f.left is a])
                      for a in sig.antecedents]
        self.imp_ix = [(index[f], index[f.left], index[f.right])
                       for f in modal if isinstance(f, RelImp)]
        term_at = {t: i for i, t in enumerate(sig.terms)}
        self.term_ix = [
            ((term_at[t.left], term_at[t.right]) if isinstance(t, Sum) else None,
             [(index[f], index[f.inner]) for f in modal
              if isinstance(f, Just) and f.term is t])
            for t in sig.terms]

    def run(self) -> tuple[RoutleyModel, str] | None:
        for k in range(1, self.sig.bound + 1):
            for sigma in _involutions(k):
                for base, bits, full in _slices(self.groups * k):
                    for j in _bits(self.survivors(k, sigma, bits, full)):
                        found = self._verify(k, sigma, base | j)
                        if found is not None:
                            return found
        return None

    def survivors(self, k: int, sigma, bits: list[int], full: int) -> int:
        """Bit j set when code j of the slice makes the premises true and
        the goal false at w0 and some model realizes it."""
        return self.realize(k, sigma, bits, full)[0]

    def realize(self, k: int, sigma, bits: list[int], full: int):
        """The live codes of the slice and the maximal rows they realize.

        Returns (live, cf_rows, slices, term_rows): per antecedent and per
        term one row per state, and per state x >= 1 the ternary (y, z)
        cells, row-major, when the sequent has an implication. A row is a
        list of cells, cell v the int of the codes whose row holds v. The
        rows are cut short once no code is live.
        """
        # per universe formula and state, the int of the codes whose truth
        # values make the formula true there
        truth: list[list[int]] = []
        for op, a, b in self.plan:
            if op == "slot":
                col = bits[a * k:a * k + k]
            elif op == "neg":
                inner = truth[a]
                col = [full ^ inner[img] for img in sigma]
            else:
                left, right = truth[a], truth[b]
                col = [x & y for x, y in zip(left, right)]
            truth.append(col)
        states = range(k)
        live = full ^ truth[self.goal_ix][0]
        for p in self.premise_ix:
            live &= truth[p][0]
        cf_rows: list[list[list[int]]] = []
        slices: list[list[int]] = []
        term_rows: list[list[list[int]]] = []
        # the ternary relation at w0 is its diagonal, so an implication
        # holds there when its consequent holds wherever its antecedent does
        for f, left, right in self.imp_ix:
            fails = 0
            for v in states:
                fails |= truth[left][v] & (full ^ truth[right][v])
            live &= fails ^ truth[f][0]
        # conditional rows: inside the antecedent at w0, inside the true
        # conditionals' consequents; self-support and escapes
        for ante, nodes in self.cf_ix:
            if not live:
                return 0, cf_rows, slices, term_rows
            at = truth[ante]
            per_state = []
            for w in states:
                row = _restrict(at if w == 0 else [full] * k, nodes, w, truth, full)
                live &= (full ^ (at[w] & (full ^ row[w]))) \
                    & _escapes(row, nodes, w, truth, full)
                per_state.append(row)
            cf_rows.append(per_state)
        # ternary slices at x >= 1: the (y, z) cells no true implication
        # forbids, and a refuting cell for each false one
        if self.imp_ix:
            refute = [[truth[left][y] & (full ^ truth[right][z])
                       for y in states for z in states]
                      for _, left, right in self.imp_ix]
            for x in range(1, k):
                if not live:
                    return 0, cf_rows, slices, term_rows
                on = [truth[f][x] for f, _, _ in self.imp_ix]
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
        for parts, nodes in self.term_ix:
            if not live:
                return 0, cf_rows, slices, term_rows
            per_state = []
            for w in states:
                if parts is None:
                    row = [full] * k
                else:
                    row = [x & y for x, y in zip(term_rows[parts[0]][w],
                                                 term_rows[parts[1]][w])]
                row = _restrict(row, nodes, w, truth, full)
                live &= _escapes(row, nodes, w, truth, full)
                per_state.append(row)
            term_rows.append(per_state)
        return live, cf_rows, slices, term_rows

    def _verify(self, k: int, sigma, code: int) -> tuple[RoutleyModel, str] | None:
        """Build the model of one code the filter kept, with the rows
        realize builds for that code alone, and check it."""
        bits = [code >> i & 1 for i in range(self.groups * k)]
        _, cf_rows, slices, term_rows = self.realize(k, sigma, bits, 1)
        states, normal = _shape(k, 1)[:2]
        # w0's ternary rows are its diagonal; cell y * k + z of the slice of
        # state x is bit z of x's row y
        tern = (tuple(1 << y for y in range(k)),
                *(tuple(_pack(cells[y:y + k]) for y in range(0, k * k, k))
                  for cells in slices))
        at, row = self.atoms_at * k, (1 << k) - 1
        model = _routley_from_masks(
            states, normal, sigma, tern + ((0,) * k,) * (k - len(tern)),
            {a: code >> at + i * k & row for i, a in enumerate(self.sig.atoms)},
            dict(zip(self.sig.terms, (tuple(map(_pack, rows)) for rows in term_rows))),
            dict(zip(self.sig.antecedents, (tuple(map(_pack, rows)) for rows in cf_rows))))
        # w0 is the model's only normal state
        if check_jrc_conditions(model, [*self.premises, self.goal]).ok \
                and _counterexamples(model, self.premises, self.goal):
            return model, "w0"
        return None


def _pack(cells) -> int:
    """The mask of a row of 0/1 cells, cell v as bit v."""
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
    if isinstance(proof, Closed):
        if found is not None:
            return CrossCheckReport(
                proof, found, "contradiction",
                f"proof closed but a countermodel exists within {bound} states")
        return CrossCheckReport(
            proof, None, "agree",
            f"proof closed and no countermodel exists within {bound} states")
    if isinstance(proof, Open):
        if not verify_result(proof, premises, goal):
            return CrossCheckReport(
                proof, found, "contradiction",
                "open branch extraction failed verification")
        if found is not None:
            return CrossCheckReport(
                proof, found, "agree",
                "open branch verified; enumeration confirms a countermodel")
        return CrossCheckReport(
            proof, None, "agree",
            f"open branch verified; no countermodel within {bound} states")
    assert isinstance(proof, Exhausted)
    if found is not None:
        return CrossCheckReport(
            proof, found, "agree",
            "proof budget ran out but enumeration found a countermodel")
    return CrossCheckReport(
        proof, None, "inconclusive",
        f"proof budget ran out and no countermodel within {bound} states")


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
    pool = _sorted_by_key(closure(universe))
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
