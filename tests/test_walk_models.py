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
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import condjust.falsifier as falsifier
from condjust.falsifier import SearchSignature
from condjust.kripke_models import KripkeModel, _bits, _check, _frame, model_to_json
from condjust.routley_models import RoutleyModel, _NO_MEMBERS, _frames
from condjust.syntax import Dialect, parse_formula
from test_falsifier import KRIPKE_DIALECTS, MASK_GOALS, draw_small_routley_search

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
