"""The models the countermodel walks build without checks, and the slot ints
they split per slice.

_SlotLayout.model and _RoutleySearch._verify store their masks unchecked:
the slot layout and the realization make every mask valid by construction.
The property tests below are what shows it. Each model such a walk builds
passes the checks the public constructors make (kripke_models._check) and
equals the model _from_masks builds, with those checks, from the same masks.

_SlotLayout.columns splits the low slots of a slice by field once per layout
and patches in only the high ones. Its fields are compared, slice by slice,
with a split written here from the slot order _SlotLayout's docstring gives,
of slot ints computed here from the codes.

iter_kripke_models decodes a model's masks from its code when something
first reads them. Whatever is asked first of a model not read yet, the
answer is that of the eager model _SlotLayout.model gives for the code.
"""

import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import condjust.falsifier as falsifier
from condjust.falsifier import SearchSignature, iter_kripke_models
from condjust.kripke_models import KripkeModel, _bits, _check, _frame, model_to_json
from condjust.routley_models import RoutleyModel, _NO_MEMBERS, _frames
from condjust.syntax import Dialect, parse_formula
from test_falsifier import (
    KRIPKE_DIALECTS, MASK_GOALS, draw_small_routley_search, draw_small_search,
)

J, L = Dialect.JRC, Dialect.LPCplus


def assert_kripke_trusted(m: KripkeModel, dialect: Dialect) -> None:
    """m passes the constructors' checks and equals _from_masks' model of
    its masks, field by field and as JSON."""
    frame = _frame(m.states, m.normal)
    _check(m, frame, frame)
    built = KripkeModel._from_masks(m.states, m.normal, m._atoms, m._members,
                                    m._term_rows, m._override_rows)
    assert vars(m) == vars(built)
    assert model_to_json(m, dialect) == model_to_json(built, dialect)


def assert_routley_trusted(m: RoutleyModel) -> None:
    """As assert_kripke_trusted, for a Routley model; fields made on first
    read (the clauses the search's checks read) are left out."""
    assert m._members is _NO_MEMBERS
    _check(m, *_frames(m.states, m.normal))
    built = RoutleyModel._from_masks(m.states, m.normal, m._star, m._tern, m._atoms,
                                     m._term_rows, m._override_rows)
    assert {name: vars(m)[name] for name in vars(built)} == vars(built)
    assert model_to_json(m, J) == model_to_json(built, J)


def kripke_models(sig: SearchSignature, max_bits: int):
    """Every model of every layout of at most max_bits slots, by code."""
    for lay in falsifier._layouts(sig):
        if lay.size <= max_bits:
            for code in range(1 << lay.size):
                yield lay.model(code)


def routley_models(sig: SearchSignature, premises, goal):
    """Every model _verify returns for a code the filter keeps."""
    search = falsifier._RoutleySearch(sig, premises, goal)
    for k in range(1, sig.bound + 1):
        for sigma in falsifier._involutions(k):
            for base, bits, full in falsifier._slices(search.groups * k):
                for j in _bits(search.realize(k, sigma, bits, full)[0]):
                    found = search._verify(k, sigma, base | j)
                    assert found is not None
                    yield found[0]


class TestKripkeModelsAreValid:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
    def test_every_code_of_the_small_layouts(self, dialect, bound):
        goal = parse_formula(MASK_GOALS[dialect], dialect)
        sig = SearchSignature.for_sequent([], goal, dialect, bound)
        sizes = set()
        for m in kripke_models(sig, 10):
            assert_kripke_trusted(m, dialect)
            sizes.add(len(m.states))
        assert sizes

    @pytest.mark.parametrize("text", ["p > q", "~p", "[](p & q)"])
    def test_three_state_layouts(self, text):
        goal = parse_formula(text, Dialect.L)
        sig = SearchSignature.for_sequent([], goal, Dialect.L, 3)
        layouts = set()
        for m in kripke_models(sig, 11):
            assert_kripke_trusted(m, Dialect.L)
            layouts.add((len(m.states), len(m.normal)))
        assert (3, 1) in layouts


class TestRoutleyModelsAreValid:
    @pytest.mark.parametrize("text", ["p -> (q -> p)", "(p & ~p) ~> q",
                                      "x:p ~> p", "(x + y):p -> x:p"])
    def test_every_kept_code_to_bound_three(self, text):
        goal = parse_formula(text, J)
        sizes = set()
        for m in routley_models(SearchSignature.for_sequent([], goal, J, 3), [], goal):
            assert_routley_trusted(m)
            sizes.add(len(m.states))
        assert sizes >= {2, 3}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_sequents(self, data):
        drawn = draw_small_routley_search(data)
        if drawn is None:
            return
        sig, premises, goal = drawn
        for m in routley_models(sig, premises, goal):
            assert_routley_trusted(m)


# --- the slot ints of each slice, split by field ------------------------------


def slot_ints(size: int, first: int, width: int, stride: int) -> list[int]:
    """Per slot i of the codes first .. first + 2**width - 1, the int whose
    bit j * stride is bit i of code first + j."""
    codes = range(first, first + (1 << width))
    return [sum(1 << j * stride for j, code in enumerate(codes) if code >> i & 1)
            for i in range(size)]


@functools.cache
def low_slot_ints(width: int, stride: int) -> list[int]:
    """The low slots' ints, the same in every slice."""
    return slot_ints(width, 0, width, stride)


def reference_split(sig: SearchSignature, k: int, n: int, slots: list[int]):
    """The slot order of _SlotLayout's docstring: valuation, non-normal
    valuation, term relations, relation overrides, each block row-major."""
    cells = iter(slots)

    def take(count):
        return [next(cells) for _ in range(count)]

    atoms = {a: take(n) for a in sig.atoms}
    members = {f: take(k - n) for f in sig.universe}
    terms = {t: [take(k) for _ in range(k)] for t in sig.terms}
    overrides = {f: [take(n) for _ in range(n)] for f in sig.antecedents}
    assert next(cells, None) is None
    return atoms, members, terms, overrides


@pytest.mark.parametrize("text,bound,packed", [
    ("!" * 20 + "x:p", 1, False),   # 22 slots: 64 slices of 2**16 codes
    ("!" * 20 + "x:p", 1, True),    # 2**14 chunks of 2**8 codes
    ("!!x:p > p", 2, True),         # a stride of 2 bits per code
    ("x:p > p", 3, False),          # overrides and memberships, 17-21 slots
])
def test_columns_split_every_slice_in_slot_order(text, bound, packed):
    sig = SearchSignature.for_sequent([], parse_formula(text, L), L, bound)
    sliced = False
    for lay in falsifier._layouts(sig, packed):
        width = min(lay.size, lay.bits)
        low = low_slot_ints(width, lay.stride)
        firsts = []
        for first, fields, full in lay.columns():
            # the high slots hold the same bit in every code of the slice
            high = [full if first >> i & 1 else 0 for i in range(width, lay.size)]
            assert fields == reference_split(sig, lay.k, lay.n, low + high)
            firsts.append(first)
        assert firsts == list(range(0, 1 << lay.size, 1 << width))
        sliced |= lay.size > width
    assert sliced  # some layout has high slots


@pytest.mark.parametrize("size,bits,stride", [
    (5, 8, 1), (9, 4, 1), (9, 3, 3), (11, 2, 2), (7, 0, 1)])
def test_slices_give_each_codes_slot_ints(size, bits, stride):
    width = min(size, bits)
    seen = []
    for first, slots, full in falsifier._slices(size, bits, stride):
        assert slots == slot_ints(size, first, width, stride)
        assert full == sum(1 << j * stride for j in range(1 << width))
        seen.append(first)
    assert seen == list(range(0, 1 << size, 1 << width))


# --- models of iter_kripke_models, decoded on first read ------------------------

MASKS = falsifier._MASKS
PAIR_FIELDS = ("valuation", "nonnormal_valuation", "term_rels", "formula_rel_overrides")


def stored(m) -> dict:
    """The model's attributes but its chunk link."""
    return {key: value for key, value in vars(m).items() if key != "_sample"}


def plain_copy(got, eager: KripkeModel) -> bool:
    return type(got) is KripkeModel and vars(got) == vars(eager)


def read_first(name):
    """Read the mask name first: the model then holds what the eager one
    holds, and is a plain KripkeModel."""
    return lambda m, eager, d: (getattr(m, name) == vars(eager)[name]
                                and type(m) is KripkeModel and stored(m) == vars(eager))


# The first question asked of a walk model nothing has read yet, and the
# eager model of the same code, not read yet either: the answers agree.
FIRST_ASKS = {
    "model_to_json": lambda m, eager, d: model_to_json(m, d) == model_to_json(eager, d),
    "repr": lambda m, eager, d: repr(m) == repr(eager),
    **{name: lambda m, eager, d, name=name: getattr(m, name) == getattr(eager, name)
       for name in PAIR_FIELDS},
    "pickle": lambda m, eager, d: plain_copy(pickle.loads(pickle.dumps(m)), eager),
    "copy": lambda m, eager, d: plain_copy(copy.copy(m), eager),
    "deepcopy": lambda m, eager, d: plain_copy(copy.deepcopy(m), eager),
    "replace": lambda m, eager, d: plain_copy(dataclasses.replace(m),
                                              dataclasses.replace(eager)),
    **{name: read_first(name) for name in MASKS},
}


def codes(sig: SearchSignature):
    """Every layout and code, in the walk's order."""
    for lay in falsifier._layouts(sig):
        for code in range(1 << lay.size):
            yield lay, code


def assert_walk_models_are_eager(sig: SearchSignature, every: bool = True) -> int:
    """Ask each first question of a model of a walk of its own, in step with
    the codes, or, not every, one question per model in turn from one walk;
    returns the number of models."""
    asks = list(FIRST_ASKS.items())
    walks = [iter_kripke_models(sig) for _ in (asks if every else asks[:1])]
    count = 0
    for (lay, code), models in zip(codes(sig), zip(*walks), strict=True):
        for (what, ask), m in zip(asks if every else [asks[count % len(asks)]], models):
            assert isinstance(m, falsifier._WalkModel) and vars(m).keys().isdisjoint(MASKS)
            assert ask(m, lay.model(code), sig.dialect), (what, code, stored(m))
            assert m._sample is not None  # the chunk link stays
        count += 1
    return count


def test_criterion_6_walk_models_are_eager():
    """Every model of criterion 6, each asked one first question: each
    question is asked of some 3,300 models, spread over every layout."""
    f = parse_formula("false > p", L)
    sig = SearchSignature.for_sequent([], f, L, 3)
    assert assert_walk_models_are_eager(sig, every=False) == 49_672


@pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
def test_walk_models_are_eager_in_every_dialect(dialect):
    """Every question of every model at bound 1, one of each at bound 2."""
    goal = parse_formula(MASK_GOALS[dialect], dialect)
    for bound, every in ((1, True), (2, False)):
        sig = SearchSignature.for_sequent([], goal, dialect, bound)
        assert assert_walk_models_are_eager(sig, every)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_walk_models_are_eager(data):
    drawn = draw_small_search(data)
    if drawn is not None:
        assert assert_walk_models_are_eager(drawn[0])


def test_undecoded_walk_models_hold_only_their_link():
    """A model nothing has read yet stores its chunk link alone. Its frame
    record sits on the class of its (k, n), made once and shared by every
    walk, whatever the signature: no class is made per call."""
    sig = SearchSignature.for_sequent([], parse_formula("false > p", L), L, 2)
    walks = [list(iter_kripke_models(sig)) for _ in range(2)]
    for a, b in zip(*walks, strict=True):
        assert vars(a).keys() == vars(b).keys() == {"_sample"}
        assert type(a) is type(b) and isinstance(a, falsifier._WalkModel)
    layouts = list(falsifier._layouts(sig))
    assert {type(m) for m in walks[0]} == {lay.walk_class for lay in layouts}
    for lay in layouts:
        cls = lay.walk_class
        assert {key: getattr(cls, key) for key in lay.frame} == lay.frame
    other = SearchSignature.for_sequent([], parse_formula("x:q", L), L, 2)
    assert {type(m) for m in iter_kripke_models(other)} == {type(m) for m in walks[0]}
