"""The models that are built from masks without checks, and the slot ints
the walks split per slice.

The public constructors check a model's pairs while they turn them into
masks; nothing checks masks. _SlotLayout.model, _RoutleySearch._verify and
tableau.extract_model store theirs unchecked through their family's
_from_masks: the slot layout, the realization and the branch labels make
every mask valid by construction. The property tests below are what shows
it. Each model such a builder returns rebuilds through its family's public
constructor from its own pair fields, with the same frame record, masks,
pair fields and JSON document, and equals the model _from_masks builds from
its masks. A mask outside the frame fails that round trip.

_SlotLayout.columns splits the low slots of a slice by field once per layout
and patches in only the high ones. Its fields are compared, slice by slice,
with a split written here from the slot order _SlotLayout's docstring gives,
of slot ints computed here from the codes.

iter_kripke_models decodes a model's masks from its code when something
first reads them. Whatever is asked first of a model not read yet, the
answer is that of the eager model _SlotLayout.model gives for the code.

Every builder of either family stores the one frame record
kripke_models._frame gives for its states, normal states and scheme.
"""

import copy
import dataclasses
import functools
import json
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import condjust.falsifier as falsifier
from condjust.falsifier import SearchSignature, iter_kripke_models
from condjust.kripke_models import KripkeModel, RelScheme, _bits, _frame, model_to_json
from condjust.routley_models import RoutleyModel, _NO_MEMBERS
from condjust.syntax import Atom, Dialect, Variable, parse_formula
from condjust.tableau import Budget, Open, prove
from test_falsifier import (
    KRIPKE_DIALECTS, MASK_GOALS, draw_small_routley_search, draw_small_search,
)
from util_gen import ast_strategies

J, L = Dialect.JRC, Dialect.LPCplus


def assert_round_trip(m, dialect: Dialect) -> None:
    """The public constructor of m's family, given m's own pair fields,
    builds a model that stores what m stores (frame record, masks, and the
    pair fields, which reading them has stored on m) and has m's JSON
    document: m's masks are what the constructor's checks admit."""
    family = RoutleyModel if isinstance(m, RoutleyModel) else KripkeModel
    built = family(**{f.name: getattr(m, f.name) for f in dataclasses.fields(family)})
    assert nonzero({name: vars(m)[name] for name in vars(built)}) == nonzero(vars(built))
    assert model_to_json(m, dialect) == model_to_json(built, dialect)


def nonzero(fields: dict) -> dict:
    """The fields, their valuation and membership masks of 0 left out: the
    evaluator reads a missing atom or formula as 0, and _verify keeps an
    entry for every atom of the sequent."""
    return {name: {key: mask for key, mask in value.items() if mask}
            if name in ("_atoms", "_members") else value for name, value in fields.items()}


def assert_kripke_trusted(m: KripkeModel, dialect: Dialect) -> None:
    """m equals _from_masks' model of its masks, field by field and as
    JSON, and round-trips through the constructor."""
    frame = _frame(m.states, m.normal, RelScheme.TruthsetNormal, False)
    built = KripkeModel._from_masks(frame, m._atoms, m._members, m._term_rows,
                                    m._override_rows)
    assert vars(m) == vars(built)
    assert model_to_json(m, dialect) == model_to_json(built, dialect)
    assert_round_trip(m, dialect)


def assert_routley_trusted(m: RoutleyModel) -> None:
    """As assert_kripke_trusted, for a Routley model; fields made on first
    read (the clauses the search's checks read) are left out."""
    assert m._members is _NO_MEMBERS
    frame = _frame(m.states, m.normal, RelScheme.TruthsetAll, True)
    built = RoutleyModel._from_masks(frame, m._star, m._tern, m._atoms, m._term_rows,
                                     m._override_rows)
    assert {name: vars(m)[name] for name in vars(built)} == vars(built)
    assert model_to_json(m, J) == model_to_json(built, J)
    assert_round_trip(m, J)


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


def pairs_of(m) -> dict:
    return {name: getattr(m, name) for name in PAIR_FIELDS}


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
    # given every pair field, replace reads no mask of m: it calls m's class
    "replace_pairs": lambda m, eager, d: plain_copy(
        dataclasses.replace(m, **pairs_of(eager)), dataclasses.replace(eager, **pairs_of(eager))),
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


# --- the frame record every builder stores ---------------------------------------

ROUTLEY_OWN = ("_star", "_tern")  # a Routley model's own, over the record's None


def assert_stores_frame(m, default: RelScheme, pairs=()) -> None:
    """m holds the frame record of its states, normal states and scheme,
    its masks and the pair fields named, and nothing else but a Routley
    model's clauses, which the search's checks make on first read."""
    everywhere = isinstance(m, RoutleyModel)
    frame = _frame(m.states, m.normal, default, everywhere)
    own = {*MASKS, *pairs, *(ROUTLEY_OWN if everywhere else ())}
    held = {k: v for k, v in stored(m).items() if k != "_clauses"}
    assert held.keys() == frame.keys() | own
    assert {k: held[k] for k in frame.keys() - own} == {k: frame[k] for k in frame.keys() - own}


FRAMES = [(("w0",), {"w0"}), (("a", "b", "c"), {"b"}), (("w1", "w0"), {"w0", "w1"})]


@pytest.mark.parametrize("scheme", list(RelScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("states,normal", FRAMES)
def test_constructors_store_the_frame_record(states, normal, scheme):
    normal, first, last = frozenset(normal), states[0], states[-1]
    x = Variable("x")
    kripke = KripkeModel(
        states, normal, {w: {"p"} for w in normal},
        {w: {parse_formula("q", L)} for w in states if w not in normal},
        {x: {(first, last)}}, {}, scheme)
    assert_stores_frame(kripke, scheme, PAIR_FIELDS)
    routley = RoutleyModel(states, normal, {w: w for w in states},
                           {(w, w, w) for w in states}, {first: {"p"}}, {x: {(last, first)}},
                           {}, scheme)
    assert_stores_frame(routley, scheme, ("valuation", "term_rels", "formula_rel_overrides",
                                          "star", "ternary"))
    k, normal_mask = len(states), sum(1 << i for i, w in enumerate(states) if w in normal)
    frame = _frame(states, normal, RelScheme.TruthsetNormal, False)
    assert_stores_frame(KripkeModel._from_masks(frame, {"p": normal_mask}, {}, {}, {}),
                        RelScheme.TruthsetNormal)
    frame = _frame(states, normal, RelScheme.TruthsetAll, True)
    assert_stores_frame(RoutleyModel._from_masks(frame, tuple(range(k)), ((0,) * k,) * k,
                                                 {}, {x: (1,) * k}, {}),
                        RelScheme.TruthsetAll)


def test_walks_store_the_frame_record():
    """_SlotLayout.model, a walk model once decoded, the walk classes, and
    the Routley search's models."""
    sig = SearchSignature.for_sequent([], parse_formula("x:p > p", L), L, 2)
    for lay in falsifier._layouts(sig):
        frame = _frame(lay.frame["states"], lay.frame["normal"], RelScheme.TruthsetNormal, False)
        assert lay.frame == frame
        assert {key: getattr(lay.walk_class, key) for key in frame} == frame
        for code in (0, (1 << lay.size) - 1):
            assert_stores_frame(lay.model(code), RelScheme.TruthsetNormal)
    for m in iter_kripke_models(sig):
        m._atoms  # decodes it
        assert_stores_frame(m, RelScheme.TruthsetNormal)
    goal = parse_formula("p -> (q -> p)", J)
    sizes = set()
    for m in routley_models(SearchSignature.for_sequent([], goal, J, 3), [], goal):
        assert_stores_frame(m, RelScheme.TruthsetAll)
        sizes.add(len(m.states))
    assert sizes >= {2, 3}


@pytest.mark.parametrize("text", ["p ~> (q ~> p)", "(p & ~p) ~> q", "~p"])
def test_extracted_models_store_the_frame_record(text):
    r = prove([], parse_formula(text, J))
    assert isinstance(r, Open) and len(r.extracted.states) > 1
    assert_stores_frame(r.extracted, RelScheme.TruthsetAll)


# --- models extract_model reads off open branches ------------------------------


def _workload_sequents():
    """The golden tableau sequents at the two budgets they pin, then the
    sequents of the proofs and crosscheck benchmarks at seeds 41 and 7 at
    their benchmark's budget: (premises, goal, budget) in printed form."""
    golden = json.loads((Path(__file__).parent / "golden" / "tableau.json").read_text())
    out = [(tuple(c["premises"]), c["goal"], budget) for c in golden["cases"]
           for budget in (Budget(6, 500), None)]
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    for name, budget in (("proofs", None), ("crosscheck", workloads.CROSSCHECK_BUDGET)):
        for seed in (41, 7):
            out += [(tuple(r[1]), r[2], budget) for r in workloads.generate(name, seed)
                    if r[0] in ("prove", "crosscheck")]
    return list(dict.fromkeys(out))


def extracted_round_trips(premises, goal, budget) -> bool:
    """Whether the proof is Open, its extracted model round-tripping
    through RoutleyModel(...)."""
    r = prove(premises, goal, budget)
    if isinstance(r, Open):
        assert_round_trip(r.extracted, J)
    return isinstance(r, Open)


def test_extracted_models_of_the_workload_sequents_round_trip():
    sequents = _workload_sequents()
    opens = sum(extracted_round_trips(tuple(parse_formula(p, J) for p in ps),
                                      parse_formula(g, J), budget)
                for ps, g, budget in sequents)
    assert opens > len(sequents) // 2  # most of them end Open


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(premises=st.lists(ast_strategies(J)[1], max_size=2), goal=ast_strategies(J)[1])
def test_extracted_models_of_drawn_sequents_round_trip(premises, goal):
    extracted_round_trips(tuple(premises), goal, Budget(6, 500))


# --- masks outside the frame fail the round trip ---------------------------------

_X, _P = Variable("x"), Atom("p")
# two states, w0 normal: every mask valid, then one field changed
_KRIPKE_MASKS = dict(atoms={"p": 0b01}, members={_P: 0b10}, term_rows={_X: (0b11, 0b10)},
                     override_rows={_P: (0b01, 0)})
_ROUTLEY_MASKS = dict(star=(1, 0), tern=((1, 2), (0, 0)), atoms={"p": 1},
                      term_rows={_X: (1, 3)}, override_rows={_P: (1, 0)})


def _kripke_form(**change):
    frame = _frame(("w0", "w1"), frozenset({"w0"}), RelScheme.TruthsetNormal, False)
    return KripkeModel._from_masks(frame, **{**_KRIPKE_MASKS, **change})


def _routley_form(**change):
    frame = _frame(("w0", "w1"), frozenset({"w0"}), RelScheme.TruthsetAll, True)
    return RoutleyModel._from_masks(frame, **{**_ROUTLEY_MASKS, **change})


@pytest.mark.parametrize("build,change", [
    (_kripke_form, {"atoms": {"p": 0b10}}),
    (_kripke_form, {"members": {_P: 0b01}}),
    (_kripke_form, {"term_rows": {_X: (0b100, 0)}}),
    (_kripke_form, {"override_rows": {_P: (0b01, 0b01)}}),
    (_routley_form, {"star": (1, 2)}),
    (_routley_form, {"tern": ((1, 2), (0, 4))}),
], ids=["atom bit at a non-normal state", "membership at a normal state",
        "term bit past the last state", "override row at a non-normal state",
        "star index past the last state", "ternary bit past the last state"])
def test_masks_outside_the_frame_fail_the_round_trip(build, change):
    """The oracle above is not vacuous: _from_masks stores these as given,
    and the round trip rejects each one."""
    dialect = J if build is _routley_form else L
    assert_round_trip(build(), dialect)  # the unchanged form is well formed
    with pytest.raises((AssertionError, IndexError, ValueError)):
        assert_round_trip(build(**change), dialect)


def _routley(states, normal):
    return RoutleyModel(states, normal, {w: w for w in states}, set())


@pytest.mark.parametrize("build,routley", [(KripkeModel, False), (_routley, True)],
                         ids=["KripkeModel", "RoutleyModel"])
def test_a_bad_state_list_is_named_before_a_bad_normal_set(build, routley):
    for states in (("w0", "w0"), ()):
        with pytest.raises(ValueError, match="^states must be a nonempty sequence without "
                                             "repeats$"):
            build(states, frozenset({"w9"}))
    unknown = "a nonempty subset of states" if routley else "listed in states"
    with pytest.raises(ValueError, match=f"^normal states must be {unknown}$"):
        build(("w0",), frozenset({"w9"}))
    if routley:
        with pytest.raises(ValueError, match="^normal states must be a nonempty subset"):
            build(("w0",), frozenset())
    else:
        build(("w0",), frozenset())  # a relational model may have no normal state
