"""Routley model evaluation, frame conditions, variable sharing."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from condjust.falsifier import find_countermodel
from condjust.fixtures import fixture_json
from condjust.kripke_models import (
    ConditionReport, ConditionResult, KripkeModel, RelScheme, _Evaluator, _counterexamples,
    _frame, check_conditions, consequence, default_universe, eval_kripke, model_to_json,
    profile_for, truthset, valid_in_model,
)
from condjust.routley_models import (
    RoutleyModel, check_jrc_conditions, eval_jrc, jrc_consequence, jrc_valid,
    load_routley_model, routley_model_to_json, truthset_jrc,
)
from condjust.syntax import (
    And, Atom, Box, Counterfactual, Dialect, Just, MatImp, Neg, RelCf, RelImp,
    Sum, Variable, atoms, closure, formula_key, node_count, parse_formula,
    print_formula, print_term, subterms, term_key, terms_of,
)
from condjust.tableau import Budget, prove, verify_result
from util_gen import ast_strategies

JRC = Dialect.JRC
p, q = Atom("p"), Atom("q")


def jf(text):
    return parse_formula(text, JRC)


def fixture_model(name):
    return load_routley_model(fixture_json(name))


class TestChisholm:
    """A sheep-shaped dog in the field: sensitivity and adherence hold but the
    belief is not necessary."""

    def setup_method(self):
        self.m = fixture_model("chisholm.json")

    def test_knowledge_conjunction_holds(self):
        f = jf("p & x:p & (~p ~> ~x:p) & (p ~> x:p)")
        assert eval_jrc(self.m, "w", f)

    def test_consequence_from_sheep(self):
        assert jrc_valid(self.m, jf("q ~> p"))
        assert jrc_valid(self.m, jf("q -> p"))

    def test_belief_not_necessary(self):
        assert not jrc_valid(self.m, p)
        assert eval_jrc(self.m, "w", Neg(Box(p)))

    def test_conditions_pass(self):
        universe = closure({jf("p & x:p & (~p ~> ~x:p) & (p ~> x:p)"), jf("q ~> p")})
        assert check_jrc_conditions(self.m, universe).ok


class TestCounterpossibleFailure:
    def setup_method(self):
        self.m = fixture_model("lemma_counterpossible.json")

    def test_counterpossible_false(self):
        assert not eval_jrc(self.m, "w0", jf("(p & ~p) ~> q"))

    def test_contradiction_true_at_inconsistent_state(self):
        assert eval_jrc(self.m, "w1", jf("p & ~p"))

    def test_conditions_pass(self):
        assert check_jrc_conditions(self.m, closure({jf("(p & ~p) ~> q")})).ok


class TestExcludedMiddleFailure:
    def setup_method(self):
        self.m = fixture_model("lemma_disjunction.json")

    def test_conditional_to_tautology_false(self):
        assert not jrc_valid(self.m, jf("q ~> (p | ~p)"))

    def test_gap_state(self):
        assert not eval_jrc(self.m, "w1", jf("p | ~p"))

    def test_conditions_pass(self):
        assert check_jrc_conditions(self.m, closure({jf("q ~> (p | ~p)")})).ok


def test_star_negation_is_not_classical():
    m = fixture_model("lemma_disjunction.json")
    assert not eval_jrc(m, "w1", p)
    assert not eval_jrc(m, "w1", Neg(p))
    assert eval_jrc(m, "w1s", p)
    assert eval_jrc(m, "w1s", Neg(p))


def test_fusion_and_relevant_implication():
    m = fixture_model("chisholm.json")
    # With identity star and diagonal ternary rows everywhere, -> collapses
    # to global inclusion of truth sets.
    assert truthset_jrc(m, jf("q")) == {"v"}
    assert eval_jrc(m, "w", jf("q -> p"))
    assert not eval_jrc(m, "w", jf("p -> q"))
    assert eval_jrc(m, "u", jf("p @ p")) == eval_jrc(m, "u", jf("~(p -> ~p)"))


def test_normality_violation_reported():
    m = RoutleyModel(
        states=("a", "b"),
        normal=frozenset({"a"}),
        star={"a": "a", "b": "b"},
        ternary=frozenset({("a", "a", "b"), ("a", "a", "a"), ("a", "b", "b")}),
    )
    rep = check_jrc_conditions(m, {p})
    bad = [r for r in rep.results if r.condition == "normality" and not r.passed]
    assert bad and bad[0].witness == ("a", "a", "b")
    # With two off-diagonal triples the report names the first in state
    # order (middle state, then last), whatever the hash seed.
    m = RoutleyModel(
        states=("a", "b", "c"),
        normal=frozenset({"a"}),
        star={"a": "a", "b": "b", "c": "c"},
        ternary=frozenset({("a", "a", "b"), ("a", "b", "c"),
                           ("a", "a", "a"), ("a", "b", "b"), ("a", "c", "c")}),
    )
    rep = check_jrc_conditions(m, {p})
    bad = [r for r in rep.results if r.condition == "normality" and not r.passed]
    assert bad and bad[0].witness == ("a", "a", "b")
    assert bad[0].detail == "normal state a has off-diagonal ternary triple (a, a, b)"


def test_missing_diagonal_reported():
    m = RoutleyModel(
        states=("a", "b"),
        normal=frozenset({"a"}),
        star={"a": "a", "b": "b"},
        ternary=frozenset({("a", "a", "a")}),
    )
    rep = check_jrc_conditions(m, {p})
    bad = [r for r in rep.results if r.condition == "normality" and not r.passed]
    assert bad and bad[0].witness == ("a", "b")


def test_star_involution_reported():
    m = RoutleyModel(
        states=("a", "b", "c"),
        normal=frozenset({"a"}),
        star={"a": "b", "b": "c", "c": "a"},
        ternary=frozenset(),
    )
    rep = check_jrc_conditions(m, {p})
    bad = [r for r in rep.results if r.condition == "star" and not r.passed]
    assert bad


def test_routley_json_roundtrip():
    for name in ["chisholm.json", "lemma_counterpossible.json", "lemma_disjunction.json"]:
        m = fixture_model(name)
        m2 = load_routley_model(routley_model_to_json(m))
        assert m2.states == m.states
        assert m2.normal == m.normal
        assert m2.star == m.star
        assert m2.ternary == m.ternary
        assert m2.valuation == m.valuation
        assert m2.term_rels == m.term_rels
        assert m2.formula_rel_overrides == m.formula_rel_overrides


def test_kripke_connectives_rejected():
    m = fixture_model("chisholm.json")
    with pytest.raises(ValueError):
        eval_jrc(m, "w", parse_formula("p > q", Dialect.LPCplus))
    # the whole formula is evaluated, so the answer does not hang on p
    mixed = parse_formula("p & (p > q)", Dialect.LPCplus)
    for valuation in ({}, {"w0": {"p"}}):
        one = RoutleyModel(("w0",), {"w0"}, {"w0": "w0"}, {("w0", "w0", "w0")}, valuation)
        with pytest.raises(ValueError, match="no clause on Routley models"):
            eval_jrc(one, "w0", mixed)



def test_first_foreign_connective_named_is_fixed_by_the_tree():
    """Two foreign connectives side by side: the error names the right one,
    which the evaluation plan finishes first, on a cold or a warm table."""
    one = RoutleyModel(("w0",), {"w0"}, {"w0": "w0"}, {("w0", "w0", "w0")})
    for _ in range(2):
        for call in (lambda f: eval_jrc(one, "w0", f), lambda f: jrc_valid(one, f)):
            with pytest.raises(ValueError) as err:
                call(And(Counterfactual(p, q), MatImp(p, q)))
            assert str(err.value) == \
                "MatImp has no clause on Routley models; use a relational model"


# --- deep chains --------------------------------------------------------------


def _negations(f, depth=3_000):
    for _ in range(depth):
        f = Neg(f)
    return f


def test_deep_chain_evaluates_at_the_default_recursion_limit():
    m = RoutleyModel(("w0",), {"w0"}, {"w0": "w0"}, {("w0", "w0", "w0")})
    f = _negations(p)
    assert not eval_jrc(m, "w0", f)
    assert check_jrc_conditions(m, [f]).ok


def test_deep_chain_countermodel_is_found_and_verified():
    found = find_countermodel([], _negations(p), JRC, 1)
    assert found is not None
    goal = _negations(q)
    result = prove([], goal, Budget(8, 10_000))
    assert verify_result(result, [], goal) is True


# --- variable sharing -------------------------------------------------------


def _stratified_model(left, right) -> RoutleyModel:
    """Three-state model separating the atoms of the two sides; the
    conditional from left to right fails at the normal state while every
    frame condition holds."""
    goal = RelCf(left, right)
    states = ("w", "v", "vs")
    normal = frozenset({"w"})
    star = {"w": "w", "v": "vs", "vs": "v"}
    ternary = frozenset({
        ("w", "w", "w"), ("w", "v", "v"), ("w", "vs", "vs"),
        ("v", "v", "v"), ("v", "vs", "v"), ("vs", "v", "vs"),
    })
    valuation = {
        "w": frozenset(),
        "v": frozenset(atoms(left)),
        "vs": frozenset(atoms(right)),
    }
    rows = frozenset({("v", "v"), ("vs", "vs")})
    term_rels = {t: rows for t in terms_of(goal)}
    antecedents = sorted(
        {g.left for g in closure({goal}) if isinstance(g, RelCf)}, key=node_count)
    overrides = {}
    for a in antecedents:
        m = RoutleyModel(states, normal, star, ternary, valuation, term_rels, overrides)
        ts = truthset_jrc(m, a)
        overrides = dict(overrides)
        overrides[a] = frozenset({("w", u) for u in ts} | {("v", "v"), ("vs", "vs")})
    return RoutleyModel(states, normal, star, ternary, valuation, term_rels, overrides)


@settings(max_examples=60)
@given(data=st.data())
def test_variable_sharing_countermodel(data):
    _, left_strategy = ast_strategies((JRC, ("p1", "p2")))
    _, right_strategy = ast_strategies((JRC, ("q1", "q2")))
    left = data.draw(left_strategy)
    right = data.draw(right_strategy)
    goal = RelCf(left, right)
    m = _stratified_model(left, right)
    assert not eval_jrc(m, "w", goal)
    assert check_jrc_conditions(m, closure({goal})).ok


# --- reference semantics ------------------------------------------------------


class _Reference:
    """The per-state recursive semantics and the five jrc checks, read off
    the model's pair fields one state at a time."""

    def __init__(self, m: RoutleyModel):
        self.m = m

    def holds(self, w, f):
        m = self.m
        if isinstance(f, Atom):
            return f.name in m.valuation.get(w, frozenset())
        if isinstance(f, Neg):
            return not self.holds(m.star[w], f.inner)
        if isinstance(f, And):
            return self.holds(w, f.left) and self.holds(w, f.right)
        if isinstance(f, RelImp):
            return all(not self.holds(b, f.left) or self.holds(c, f.right)
                       for a, b, c in m.ternary if a == w)
        if isinstance(f, RelCf):
            return self.rel(f.left, w) <= self.truthset(f.right)
        if isinstance(f, Just):
            return self.term_rel(f.term, w) <= self.truthset(f.inner)
        if isinstance(f, Box):
            return m.normal <= self.truthset(f.inner)
        raise ValueError(f"{type(f).__name__} has no clause")

    def truthset(self, f):
        return frozenset(w for w in self.m.states if self.holds(w, f))

    def rel(self, f, w):
        m = self.m
        if f in m.formula_rel_overrides:
            return frozenset(b for a, b in m.formula_rel_overrides[f] if a == w)
        if m.formula_rel_default is RelScheme.Empty:
            return frozenset()
        if m.formula_rel_default is RelScheme.TruthsetNormal:
            return self.truthset(f) & m.normal
        return self.truthset(f)

    def term_rel(self, t, w):
        return frozenset(b for a, b in self.m.term_rels.get(t, ()) if a == w)

    def report(self, universe) -> ConditionReport:
        m = self.m
        formulas = sorted(closure(universe), key=formula_key)
        terms = set()
        for t in m.term_rels:
            terms |= subterms(t)
        for f in universe:
            terms |= terms_of(f)
        terms = sorted(terms, key=term_key)
        return ConditionReport("jrc", (
            self._star(), self._normality(), self._antecedent(formulas),
            self._self_support(formulas), self._sum(terms)))

    def _star(self):
        star = self.m.star
        for w in self.m.states:
            if star[star[w]] != w:
                return ConditionResult(
                    "star", False, (w,), f"star(star({w})) = {star[star[w]]}, expected {w}")
        return ConditionResult("star", True)

    def _normality(self):
        m = self.m
        for w in (w for w in m.states if w in m.normal):
            for b, c in itertools.product(m.states, repeat=2):
                if b != c and (w, b, c) in m.ternary:
                    return ConditionResult(
                        "normality", False, (w, b, c),
                        f"normal state {w} has off-diagonal ternary triple ({w}, {b}, {c})")
            for v in m.states:
                if (w, v, v) not in m.ternary:
                    return ConditionResult(
                        "normality", False, (w, v),
                        f"normal state {w} lacks the diagonal triple ({w}, {v}, {v})")
        return ConditionResult("normality", True)

    def _antecedent(self, formulas):
        m = self.m
        for f in formulas:
            ts = self.truthset(f)
            for w in (w for w in m.states if w in m.normal):
                stray = self.rel(f, w) - ts
                if stray:
                    v = min(stray, key=m.states.index)
                    return ConditionResult(
                        "1", False, (w, f, v),
                        f"R[{print_formula(f)}]({w}) reaches {v} where the antecedent fails")
        return ConditionResult("1", True)

    def _self_support(self, formulas):
        for f in formulas:
            for w in self.m.states:
                if w in self.truthset(f) and w not in self.rel(f, w):
                    return ConditionResult(
                        "2", False, (w, f),
                        f"{w} satisfies {print_formula(f)} but "
                        f"R[{print_formula(f)}]({w}) misses it")
        return ConditionResult("2", True)

    def _sum(self, terms):
        for t in (t for t in terms if isinstance(t, Sum)):
            for w in self.m.states:
                if not self.term_rel(t, w) <= (self.term_rel(t.left, w)
                                               & self.term_rel(t.right, w)):
                    return ConditionResult(
                        "3", False, (w, t.left, t.right),
                        f"R[{print_term(t)}]({w}) exceeds the intersection of its parts")
        return ConditionResult("3", True)


@st.composite
def _models_and_universes(draw):
    _, formula = ast_strategies(JRC)
    boxed = st.one_of(formula, st.builds(Box, formula),
                      st.builds(And, formula, st.builds(Neg, st.builds(Box, formula))))
    universe = draw(st.lists(boxed, min_size=1, max_size=2))
    states = ("a", "b", "c")[:draw(st.integers(1, 3))]
    pairs = st.frozensets(st.tuples(st.sampled_from(states), st.sampled_from(states)))
    terms = sorted({s for f in universe for t in terms_of(f) for s in subterms(t)}
                   | {Variable("x"), Sum(Variable("x"), Variable("y"))}, key=term_key)
    antecedents = sorted(closure(universe), key=formula_key)
    m = RoutleyModel(
        states=states,
        normal=draw(st.frozensets(st.sampled_from(states), min_size=1)),
        star={w: draw(st.sampled_from(states)) for w in states},
        ternary=draw(st.frozensets(st.tuples(*[st.sampled_from(states)] * 3))),
        valuation={w: draw(st.frozensets(st.sampled_from(["p", "q", "r", "p0"])))
                   for w in draw(st.frozensets(st.sampled_from(states)))},
        term_rels={t: draw(pairs) for t in draw(st.frozensets(st.sampled_from(terms)))},
        formula_rel_overrides={
            f: draw(pairs) for f in draw(st.frozensets(st.sampled_from(antecedents)))},
        formula_rel_default=draw(st.sampled_from(list(RelScheme))),
    )
    return m, universe


@settings(max_examples=300, deadline=None)
@given(_models_and_universes())
# ~p holds at the non-normal state b, which the truthset_normal default row
# leaves out: weak centering must test formulas without an override too.
@example((RoutleyModel(("a", "b"), frozenset({"a"}), {"a": "a", "b": "a"}, frozenset(),
                       formula_rel_default=RelScheme.TruthsetNormal), [Neg(p)]))
def test_masks_agree_with_the_reference_semantics(drawn):
    m, universe = drawn
    ref = _Reference(m)
    for f in closure(universe):
        assert truthset_jrc(m, f) == ref.truthset(f), print_formula(f)
        assert [eval_jrc(m, w, f) for w in m.states] == [ref.holds(w, f) for w in m.states]
        assert jrc_valid(m, f) == (m.normal <= ref.truthset(f))
    assert check_jrc_conditions(m, universe) == ref.report(universe)
    *premises, goal = universe
    counter = [w for w in m.states if w in m.normal
               and all(ref.holds(w, f) for f in premises) and not ref.holds(w, goal)]
    assert _counterexamples(m, premises, goal) == sum(1 << m.state_index(w) for w in counter)


@settings(max_examples=200, deadline=None)
@given(drawn=_models_and_universes(), data=st.data())
def test_warm_evaluator_agrees_with_the_reference_semantics(drawn, data):
    """One evaluator first evaluates other formulas, some drawn afresh and
    some from the universe's closure, while the plan table holds the plans
    of earlier draws on other models; the targets' plans then run over a
    partly filled mask cache."""
    m, universe = drawn
    ref = _Reference(m)
    pool = sorted(closure(universe), key=formula_key)
    ev = _Evaluator(m)
    _, formula = ast_strategies(JRC)
    for f in data.draw(st.lists(st.one_of(formula, st.sampled_from(pool)), max_size=4)):
        ev.mask(f)
    for f in data.draw(st.permutations(pool)):
        expected = sum(1 << i for i, w in enumerate(m.states) if ref.holds(w, f))
        assert ev.mask(f) == expected, print_formula(f)


# --- calls that take a model of either family -----------------------------------

# p true at the normal state w; v is non-normal and holds q literally.
_KRIPKE = KripkeModel(("w", "v"), frozenset({"w"}), {"w": frozenset({"p"})},
                      {"v": frozenset({q})})
# star swaps a and b; p true at a only, so ~p holds at a and fails at b.
_ROUTLEY = RoutleyModel(("a", "b"), frozenset({"a"}), {"a": "b", "b": "a"},
                        {("a", "a", "a"), ("a", "b", "b")}, {"a": {"p"}},
                        formula_rel_overrides={q: frozenset()})
_LPC = Dialect.LPCplus

# (call, answer): the answer by the model's own family, or the name of the
# model class whose absence raises TypeError.
_MIXED = {
    "eval_jrc on a relational model": (lambda: eval_jrc(_KRIPKE, "v", q), True),
    "eval_jrc at a normal state": (lambda: eval_jrc(_KRIPKE, "w", q), False),
    "jrc_valid on a relational model": (lambda: jrc_valid(_KRIPKE, p), True),
    "truthset_jrc on a relational model": (lambda: truthset_jrc(_KRIPKE, q), {"v"}),
    "jrc_consequence on a relational model": (
        lambda: jrc_consequence(_KRIPKE, [p], q), False),
    "check_jrc_conditions on a relational model": (
        lambda: check_jrc_conditions(_KRIPKE, [p]), "RoutleyModel"),
    "routley_model_to_json on a relational model": (
        lambda: routley_model_to_json(_KRIPKE), "RoutleyModel"),
    "model_to_json of a relational model as jrc": (
        lambda: model_to_json(_KRIPKE, JRC), "RoutleyModel"),
    "eval_kripke under jrc on a relational model": (
        lambda: eval_kripke(_KRIPKE, "w", p, JRC), "RoutleyModel"),
    "eval_kripke on a Routley model": (lambda: eval_kripke(_ROUTLEY, "a", Neg(p)), True),
    "eval_kripke at a non-normal Routley state": (
        lambda: eval_kripke(_ROUTLEY, "b", Neg(p)), False),
    "eval_kripke under jrc on a Routley model": (
        lambda: eval_kripke(_ROUTLEY, "b", p, JRC), False),
    "valid_in_model on a Routley model": (lambda: valid_in_model(_ROUTLEY, Neg(p)), True),
    "truthset on a Routley model": (lambda: truthset(_ROUTLEY, Neg(p)), {"a"}),
    "consequence on a Routley model": (
        lambda: consequence(_ROUTLEY, [Neg(p)], q, JRC), False),
    "default_universe of a Routley model": (
        lambda: default_universe(_ROUTLEY, [Neg(p)]), {Neg(p), p, q}),
    "model_to_json of a Routley model": (
        lambda: sorted(model_to_json(_ROUTLEY, JRC)["star"].items()),
        [("a", "b"), ("b", "a")]),
    "check_conditions on a Routley model": (
        lambda: check_conditions(_ROUTLEY, profile_for(_LPC), [p]), "KripkeModel"),
    "model_to_json of a Routley model as lpcplus": (
        lambda: model_to_json(_ROUTLEY, _LPC), "KripkeModel"),
    "valid_in_model under lpcplus on a Routley model": (
        lambda: valid_in_model(_ROUTLEY, p, _LPC), "KripkeModel"),
}


@pytest.mark.parametrize("call, answer", _MIXED.values(), ids=_MIXED)
def test_calls_answer_by_the_models_family_or_raise_type_error(call, answer):
    if answer in ("KripkeModel", "RoutleyModel"):
        with pytest.raises(TypeError, match=answer):
            call()
    else:
        assert call() == answer


# --- the bitset form: _from_masks and the constructor -------------------------


def _masks_of(m: RoutleyModel):
    """The bitset form of a constructed model, read off its pair fields."""
    ix = {w: i for i, w in enumerate(m.states)}

    def rows(pairs):
        out = [0] * len(m.states)
        for a, b in pairs:
            out[ix[a]] |= 1 << ix[b]
        return tuple(out)

    tern = tuple(tuple(sum(1 << ix[z] for a, b, z in m.ternary if (a, b) == (x, y))
                       for y in m.states) for x in m.states)
    atoms = {}
    for w, names in m.valuation.items():
        for a in names:
            atoms[a] = atoms.get(a, 0) | 1 << ix[w]
    return (_frame(m.states, m.normal, RelScheme.TruthsetAll, True),
            tuple(ix[m.star[w]] for w in m.states), tern, atoms,
            {t: rows(rel) for t, rel in m.term_rels.items()},
            {f: rows(rel) for f, rel in m.formula_rel_overrides.items()})


@settings(max_examples=200, deadline=None)
@given(_models_and_universes())
def test_from_masks_and_the_constructor_build_the_same_model(drawn):
    drawn_model, universe = drawn
    # the mask form has the truthset_all default and a valuation entry per state
    m = RoutleyModel(
        drawn_model.states, drawn_model.normal, drawn_model.star, drawn_model.ternary,
        {w: drawn_model.valuation.get(w, frozenset()) for w in drawn_model.states},
        drawn_model.term_rels, drawn_model.formula_rel_overrides)
    built = RoutleyModel._from_masks(*_masks_of(m))
    for name in ("states", "normal", "star", "ternary", "valuation", "term_rels",
                 "formula_rel_overrides", "formula_rel_default"):
        assert getattr(built, name) == getattr(m, name), name
    assert routley_model_to_json(built) == routley_model_to_json(m)
    for f in closure(universe):
        assert truthset_jrc(built, f) == truthset_jrc(m, f), print_formula(f)
    assert check_jrc_conditions(built, universe) == check_jrc_conditions(m, universe)


def _as_kripke(f):
    """A jrc formula with -> read as => and ~> as >."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Neg):
        return Neg(_as_kripke(f.inner))
    if isinstance(f, Just):
        return Just(f.term, _as_kripke(f.inner))
    if isinstance(f, And):
        return And(_as_kripke(f.left), _as_kripke(f.right))
    cls = {RelImp: MatImp, RelCf: Counterfactual}[type(f)]
    return cls(_as_kripke(f.left), _as_kripke(f.right))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_state_models_of_both_families_agree(data):
    """With one state, the star is the identity and the ternary relation
    its diagonal, so ~ is classical negation and -> material implication; ~>
    reads the same rows as > does on the relational model."""
    _, formula = ast_strategies(JRC)
    f = data.draw(formula)
    loop = st.sampled_from([frozenset(), frozenset({("w", "w")})])

    def relations(keys):
        """Some of the keys, each with no pair or the loop at w."""
        chosen = data.draw(st.frozensets(st.sampled_from(keys))) if keys else ()
        return {k: data.draw(loop) for k in chosen}

    valuation = {"w": data.draw(st.frozensets(st.sampled_from(sorted(atoms(f)))))}
    term_rels = relations(sorted({s for t in terms_of(f) for s in subterms(t)}, key=term_key))
    overrides = relations(sorted(closure([f]), key=formula_key))
    routley = RoutleyModel(("w",), frozenset({"w"}), {"w": "w"}, {("w", "w", "w")},
                           valuation, term_rels, overrides)
    kripke = KripkeModel(("w",), frozenset({"w"}), valuation, {}, term_rels,
                         {_as_kripke(g): rel for g, rel in overrides.items()})
    assert eval_jrc(routley, "w", f) == eval_kripke(kripke, "w", _as_kripke(f)), \
        print_formula(f)
