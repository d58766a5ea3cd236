"""Relational model evaluation, frame conditions, bundled model fixtures."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import condjust
from condjust.falsifier import find_countermodel
from condjust.fixtures import fixture_json
from condjust.kripke_models import (
    AxiomaticallyAppropriate, ConditionReport, Explicit, KripkeModel,
    RelScheme, VariantProfile, _counterexamples,
    check_conditions, consequence, cs_entries, default_universe,
    eval as keval, jtb, knowledge, load_model, model_to_json, profile_for,
    truthset, valid_in_model,
)
from condjust.routley_models import load_routley_model
from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Just, MatImp,
    Neg, Pair, RelCf, RelImp, Sum, Variable, closure, formula_key, parse_formula,
    parse_term, print_formula, print_term, subterms, term_key, terms_of,
)
from util_gen import ast_strategies

LPC = Dialect.LPCplus
p, q = Atom("p"), Atom("q")


def fixture_model(name):
    return load_model(fixture_json(name))


def report_for(name, queries, dialect=None, cs=None) -> ConditionReport:
    m, d = fixture_model(name)
    d = dialect or d
    universe = default_universe(m, [parse_formula(s, d) for s in queries])
    return check_conditions(m, profile_for(d), universe, cs)


def failed(report, cid):
    return [r for r in report.results if r.condition == cid and not r.passed]


class TestGettier:
    """Justified true belief without sensitivity: belief from a reason that
    tracks nothing still counts as JTB, so the knowledge macro must fail."""

    def setup_method(self):
        self.m, self.dialect = fixture_model("gettier.json")
        self.belief = parse_formula("p | q", self.dialect)
        self.reason = parse_term("c.x", self.dialect)

    def test_jtb_holds(self):
        f = jtb(self.belief, self.reason)
        assert keval(self.m, "w", f, self.dialect)

    def test_sensitivity_fails(self):
        f = parse_formula("~(p | q) > ~(c.x):(p | q)", self.dialect)
        assert not keval(self.m, "w", f, self.dialect)

    def test_no_knowledge_is_valid(self):
        f = Neg(knowledge(self.belief, self.reason))
        assert valid_in_model(self.m, f, self.dialect)

    def test_conditions_pass_for_profile_l(self):
        cs = Explicit((("c", parse_formula("p => (p | q)", self.dialect)),))
        rep = report_for("gettier.json", ["~((p | q) > (c.x):(p | q))", "p => (p | q)"], cs=cs)
        assert rep.ok

    def test_condition6_fails_under_lpcplus(self):
        rep = report_for("gettier.json", ["(c.x):(p | q)"], dialect=LPC)
        bad = failed(rep, "6")
        assert bad and bad[0].witness == ("w", Constant("c"))


class TestMcGinn:
    """Sensitive, adherent true belief at every state without the belief
    being necessary: knowledge without box."""

    def setup_method(self):
        self.m, self.dialect = fixture_model("mcginn.json")

    def test_not_necessary(self):
        assert not keval(self.m, "w", parse_formula("[]p", self.dialect), self.dialect)

    def test_sensitivity_and_adherence(self):
        assert keval(self.m, "w", parse_formula("~p > ~x:p", self.dialect), self.dialect)
        assert keval(self.m, "w", parse_formula("p > x:p", self.dialect), self.dialect)

    def test_knowledge_holds(self):
        f = knowledge(p, Variable("x"))
        assert keval(self.m, "w", f, self.dialect)

    def test_conditions_pass(self):
        rep = report_for("mcginn.json", ["p > x:p", "~p > ~x:p", "[]p"])
        assert rep.ok


class TestAumann:
    """Box-style knowledge without the counterfactual conditions."""

    def setup_method(self):
        self.m, self.dialect = fixture_model("aumann.json")

    def test_box_truthset(self):
        assert truthset(self.m, parse_formula("[]p", self.dialect)) == {"w"}

    def test_box_valid_but_adherence_fails(self):
        assert valid_in_model(self.m, parse_formula("[]p", self.dialect))
        assert not keval(self.m, "w", parse_formula("p > x:p", self.dialect), self.dialect)

    def test_consequence(self):
        assert consequence(self.m, [], parse_formula("[]p", self.dialect), self.dialect)

    def test_conditions_pass(self):
        rep = report_for("aumann.json", ["[]p", "p > x:p"])
        assert rep.ok


class TestHyperintensionality:
    """Counterfactually equivalent antecedents may still justify differently."""

    def test_model1(self):
        m, d = fixture_model("hyperint1.json")
        assert not keval(m, "w", parse_formula("x:p", d), d)
        assert keval(m, "w", parse_formula("x:(p & p)", d), d)
        assert valid_in_model(m, parse_formula("p == (p & p)", d), d)
        assert not valid_in_model(m, parse_formula("x:p == x:(p & p)", d), d)
        rep = report_for("hyperint1.json", ["x:p == x:(p & p)"])
        assert rep.ok

    def test_model1_nonnormal_states_are_literal(self):
        m, d = fixture_model("hyperint1.json")
        assert keval(m, "v", And(p, p))
        assert not keval(m, "v", p)

    def test_model2(self):
        m, d = fixture_model("hyperint2.json")
        assert keval(m, "w", parse_formula("x:((p & p) > p)", d), d)
        assert keval(m, "u", parse_formula("x:((p & p) > p)", d), d)
        assert keval(m, "w", parse_formula("x:(p | ~p)", d), d)
        assert not keval(m, "u", parse_formula("x:(p | ~p)", d), d)
        assert not keval(m, "w", parse_formula("x:((p & p) > p) > x:(p | ~p)", d), d)
        assert valid_in_model(m, parse_formula("((p & p) > p) <=> (p | ~p)", d), d)
        rep = report_for("hyperint2.json", ["x:((p & p) > p) > x:(p | ~p)"])
        assert rep.ok


class TestRelExtensionality:
    """A model where materially equivalent antecedents get different
    relations: fine for the base profile, rejected by the stronger one."""

    def setup_method(self):
        self.m, self.dialect = fixture_model("rcea.json")

    def test_truths(self):
        assert valid_in_model(self.m, parse_formula("p == (p & p)", self.dialect))
        assert not keval(self.m, "w", parse_formula("p > q", self.dialect))
        assert keval(self.m, "w", parse_formula("(p & p) > q", self.dialect))

    def test_base_profile_passes(self):
        rep = report_for("rcea.json", ["p > q", "(p & p) > q"])
        assert rep.ok

    def test_condition9_fails_with_witness(self):
        rep = report_for("rcea.json", ["p > q", "(p & p) > q"], dialect=Dialect.LPCKplus)
        bad = failed(rep, "9")
        assert bad and bad[0].witness == (p, And(p, p))


@pytest.mark.parametrize("name", ["gettier.json", "aumann.json", "hyperint1.json"])
def test_counterpossibles_vacuously_true(name):
    m, d = fixture_model(name)
    assert valid_in_model(m, parse_formula("false > p", d), d)
    assert valid_in_model(m, parse_formula("p > true", d), d)


def test_condition4_witness_matches_offending_sum():
    s, t = Variable("s"), Variable("t")
    m = KripkeModel(
        states=("w", "v"),
        normal=frozenset({"w", "v"}),
        valuation={"w": frozenset({"p"}), "v": frozenset()},
        term_rels={
            Sum(s, t): frozenset({("w", "v")}),
            s: frozenset({("w", "w"), ("v", "v")}),
            t: frozenset({("w", "v"), ("w", "w"), ("v", "v")}),
        },
    )
    rep = check_conditions(m, profile_for(LPC), {Just(Sum(s, t), p)})
    bad = failed(rep, "4")
    assert bad and bad[0].witness == ("w", s, t)


def test_condition5_detects_application_violation():
    s, t = Variable("s"), Variable("t")
    st_term = App(s, t)
    m = KripkeModel(
        states=("w", "v"),
        normal=frozenset({"w", "v"}),
        valuation={"w": frozenset({"p", "q"}), "v": frozenset({"p"})},
        term_rels={
            s: frozenset({("w", "w")}),
            t: frozenset({("w", "w")}),
            st_term: frozenset({("w", "v")}),
        },
    )
    # s justifies the material step from p to q at w and t justifies p, yet
    # the application relation escapes to v where q fails.
    universe = closure({Just(st_term, q), Just(s, MatImp(p, q)), Just(t, p)})
    rep = check_conditions(m, profile_for(LPC), universe)
    bad = failed(rep, "5")
    assert bad and bad[0].witness == ("w", st_term, "v")


def test_condition3_explicit_entries():
    c = Constant("c1")
    m = KripkeModel(
        states=("w",),
        normal=frozenset({"w"}),
        valuation={"w": frozenset()},
        term_rels={c: frozenset({("w", "w")})},
    )
    axiom = parse_formula("p > p", LPC)
    rep = check_conditions(m, profile_for(LPC), {axiom}, Explicit((("c1", axiom),)))
    assert rep.ok
    bad_axiom = parse_formula("p", LPC)
    rep2 = check_conditions(m, profile_for(LPC), {bad_axiom}, Explicit((("c1", bad_axiom),)))
    bad = failed(rep2, "3")
    assert bad and bad[0].witness == ("w", c, bad_axiom)


def test_appropriate_cs_allocates_deterministically():
    cs = AxiomaticallyAppropriate()
    f = parse_formula("p > p", LPC)
    g = parse_formula("q > q", LPC)
    assert cs.allocate(f) == "c1"
    assert cs.allocate(g) == "c2"
    assert cs.allocate(f) == "c1"
    assert cs_entries(cs) == (("c1", f), ("c2", g))


def test_formula_relations_must_join_normal_states():
    with pytest.raises(ValueError):
        KripkeModel(
            states=("w", "v"),
            normal=frozenset({"w"}),
            formula_rel_overrides={p: frozenset({("w", "v")})},
        )


def test_profiles():
    assert profile_for(LPC).conditions == ("1", "2", "3", "4", "5", "6", "7")
    assert profile_for(Dialect.LPCint).conditions[-1] == "8"
    assert "5p" in profile_for(Dialect.LPCprime).conditions
    assert "9" in profile_for(Dialect.LPCKplus).conditions
    assert "6" not in profile_for(Dialect.J4Cplus).conditions
    assert profile_for(Dialect.JCplus).conditions == ("1", "2", "3", "4", "5")
    assert profile_for(Dialect.L).box_enabled
    with pytest.raises(ValueError):
        profile_for(Dialect.JRC)


def test_knowledge_macro_matches_parsed_expansion():
    t = parse_term("c.x", LPC)
    f = parse_formula("p | q", LPC)
    text = ("(p | q) & (c.x):(p | q) & (~(p | q) > ~(c.x):(p | q))"
            " & ((p | q) > (c.x):(p | q))")
    assert knowledge(f, t) == parse_formula(text, LPC)
    assert jtb(f, t) == parse_formula("(p | q) & (c.x):(p | q)", LPC)


def test_model_json_roundtrip():
    for name in ["gettier.json", "aumann.json", "hyperint2.json", "rcea.json"]:
        m, d = fixture_model(name)
        doc = model_to_json(m, d)
        m2, d2 = load_model(doc)
        assert d2 == d
        assert m2.states == m.states
        assert m2.normal == m.normal
        assert m2.valuation == m.valuation
        assert m2.nonnormal_valuation == m.nonnormal_valuation
        assert m2.term_rels == m.term_rels
        assert m2.formula_rel_overrides == m.formula_rel_overrides
        assert m2.formula_rel_default == m.formula_rel_default


@pytest.mark.parametrize("load,doc", [
    (load_model, [1]), (load_model, "x"), (load_model, None),
    (load_routley_model, None), (load_routley_model, ["jrc"]),
], ids=["kripke list", "kripke str", "kripke None", "routley None", "routley list"])
def test_loading_a_document_that_is_not_an_object_raises_type_error(load, doc):
    with pytest.raises(TypeError, match="a model document must be a JSON object"):
        load(doc)


def _random_safe_model(rng):
    k = rng.randint(1, 3)
    states = tuple(f"w{i}" for i in range(k))
    n = rng.randint(1, k)
    normal = frozenset(states[:n])
    atoms = ["p", "q"]
    val = {w: frozenset(a for a in atoms if rng.random() < 0.5) for w in states[:n]}
    nn_pool = [And(p, q), Neg(p), p, Counterfactual(p, q)]
    nnval = {w: frozenset(f for f in nn_pool if rng.random() < 0.4) for w in states[n:]}
    x = Variable("x")
    rel = frozenset((w, v) for w in states for v in states if rng.random() < 0.5)
    return KripkeModel(states, normal, val, nnval, {x: rel})


def test_default_scheme_gives_conditions_1_and_2_by_construction():
    rng = random.Random(7)
    universe = closure({Counterfactual(p, q), Counterfactual(And(p, q), Neg(p))})
    for _ in range(50):
        m = _random_safe_model(rng)
        rep = check_conditions(m, profile_for(LPC), universe)
        for res in rep.results:
            if res.condition in ("1", "2"):
                assert res.passed


@given(data=st.data())
def test_classical_booleans_at_normal_states(data):
    _, formulas = ast_strategies(LPC)
    f = data.draw(formulas)
    g = data.draw(formulas)
    m, _ = fixture_model("hyperint2.json")
    assert keval(m, "w", Neg(f)) == (not keval(m, "w", f))
    assert keval(m, "w", And(f, g)) == (keval(m, "w", f) and keval(m, "w", g))


# --- the bitset evaluator and condition checks against per-state references ---


class _RefEvaluator:
    """Per-state truth over frozensets of state names: the clauses of the
    relational semantics written out one state at a time."""

    def __init__(self, m):
        self.m = m

    def truthset(self, f):
        return frozenset(w for w in self.m.states if self.holds(w, f))

    def holds(self, w, f):
        m = self.m
        if w not in m.normal:
            return f in m.nonnormal_valuation.get(w, frozenset())
        if isinstance(f, Atom):
            return f.name in m.valuation.get(w, frozenset())
        if isinstance(f, Neg):
            return not self.holds(w, f.inner)
        if isinstance(f, And):
            return self.holds(w, f.left) and self.holds(w, f.right)
        if isinstance(f, MatImp):
            return not self.holds(w, f.left) or self.holds(w, f.right)
        if isinstance(f, Counterfactual):
            return self.rel(f.left, w) <= self.truthset(f.right)
        if isinstance(f, Just):
            return self.term_rel(f.term, w) <= self.truthset(f.inner)
        if isinstance(f, Box):
            return m.normal <= self.truthset(f.inner)
        raise ValueError(type(f).__name__)

    def rel(self, f, w):
        ov = self.m.formula_rel_overrides.get(f)
        if ov is not None:
            return frozenset(b for a, b in ov if a == w)
        if self.m.formula_rel_default is RelScheme.Empty:
            return frozenset()
        if self.m.formula_rel_default is RelScheme.TruthsetNormal:
            return self.truthset(f) & self.m.normal
        return self.truthset(f)

    def term_rel(self, t, w):
        return frozenset(b for a, b in self.m.term_rels.get(t, ()) if a == w)

    def in_order(self, states):
        return sorted(states, key=self.m.states.index)


def _ref_conditions(m, conditions, universe, cs):
    """(condition, passed, witness, detail) for each id, looping over every
    formula, term and state in order, rows in state order."""
    ev = _RefEvaluator(m)
    formulas = sorted(closure(universe), key=formula_key)
    terms = set()
    for t in m.term_rels:
        terms |= subterms(t)
    for f in formulas:
        terms |= terms_of(f)
    terms = sorted(terms, key=term_key)
    in_order = ev.in_order
    normal = in_order(m.normal)

    def cond_1():
        for f in formulas:
            for w in normal:
                stray = ev.rel(f, w) - ev.truthset(f)
                if stray:
                    v = in_order(stray)[0]
                    return (w, f, v), f"R[{print_formula(f)}]({w}) reaches {v} where the antecedent fails"

    def cond_2():
        for f in formulas:
            for w in normal:
                if w in ev.truthset(f) and w not in ev.rel(f, w):
                    return (w, f), (
                        f"{w} satisfies {print_formula(f)} but R[{print_formula(f)}]({w}) misses it")

    def cond_3():
        for name, f in cs_entries(cs):
            if f not in formulas:
                continue
            for w in normal:
                stray = ev.term_rel(Constant(name), w) - ev.truthset(f)
                if stray:
                    return (w, Constant(name), f), (
                        f"R[{name}]({w}) reaches {in_order(stray)[0]} outside the specified "
                        f"formula's truth set")

    def cond_4():
        for t in terms:
            for w in normal if isinstance(t, Sum) else ():
                if not ev.term_rel(t, w) <= ev.term_rel(t.left, w) & ev.term_rel(t.right, w):
                    return (w, t.left, t.right), (
                        f"R[{print_term(t)}]({w}) exceeds the intersection of its parts")

    def cond_5():
        for t in terms:
            for w in normal if isinstance(t, App) else ():
                for a in formulas:
                    for b in formulas:
                        for hook in (Counterfactual, MatImp):
                            stray = ev.term_rel(t, w) - ev.truthset(b)
                            if ev.holds(w, Just(t.left, hook(a, b))) \
                                    and ev.holds(w, Just(t.right, a)) and stray:
                                v = in_order(stray)[0]
                                return (w, t, v), (
                                    f"R[{print_term(t)}]({w}) reaches {v} although "
                                    f"{print_term(t.left)} justifies the step from "
                                    f"{print_formula(a)} to {print_formula(b)}")

    def cond_5p():
        for t in terms:
            for a in formulas if isinstance(t, App) else ():
                for b in formulas:
                    f1, f2 = Just(t.left, Counterfactual(a, b)), Just(t.right, a)
                    for w in normal:
                        for v in in_order(ev.rel(f1, w) & m.normal):
                            for u in in_order(ev.rel(f2, v) & m.normal):
                                stray = ev.term_rel(t, u) - ev.truthset(b)
                                if stray:
                                    u2 = in_order(stray)[0]
                                    return (w, v, u, u2, t, a, b), (
                                        f"chained application through {print_term(t)} "
                                        f"escapes the consequent truth set at {u2}")

    def cond_6():
        for t in terms:
            for w in normal:
                if w not in ev.term_rel(t, w):
                    return (w, t), f"R[{print_term(t)}] is not reflexive at {w}"

    def cond_7():
        for t in terms:
            for w in normal if isinstance(t, Bang) else ():
                for v in in_order(ev.term_rel(t, w)):
                    for u in in_order(ev.term_rel(t.inner, v)):
                        if u not in ev.term_rel(t.inner, w):
                            return (w, v, u, t.inner), (
                                f"R[{print_term(t)}] step to {v} then R[{print_term(t.inner)}] "
                                f"to {u} is not matched by R[{print_term(t.inner)}]({w})")

    def cond_8():
        for t in terms:
            for b in formulas if isinstance(t, Pair) else ():
                target = Counterfactual(t.antecedent, b)
                for w in normal:
                    if not ev.holds(w, Just(t.inner, b)):
                        continue
                    for v in in_order(ev.term_rel(t, w)):
                        if not ev.holds(v, target):
                            return (w, t, b, v), (
                                f"R[{print_term(t)}]({w}) reaches {v} where "
                                f"{print_formula(target)} fails")

    def cond_9():
        for a in formulas:
            for b in formulas:
                if a != b and ev.truthset(a) & m.normal == ev.truthset(b) & m.normal \
                        and any(ev.rel(a, w) != ev.rel(b, w) for w in normal):
                    return (a, b), (
                        f"{print_formula(a)} and {print_formula(b)} agree on normal states "
                        f"but have different relations")

    checks = {"1": cond_1, "2": cond_2, "3": cond_3, "4": cond_4, "5": cond_5,
              "5p": cond_5p, "6": cond_6, "7": cond_7, "8": cond_8, "9": cond_9}
    out = []
    for cid in conditions:
        failure = checks[cid]()
        out.append((cid, True, None, "") if failure is None else (cid, False, *failure))
    return out


_x, _y = Variable("x"), Variable("y")
# A small vocabulary, so that the formulas the conditions build (t:(a > b),
# <s, a>:b and so on) often coincide with drawn ones. Every term kind that
# a condition looks for is in the model, whatever the formulas mention.
_TERMS = (_x, _y, Constant("c"), App(_x, _y), App(_y, _x), Sum(_x, _y), Bang(_x), Pair(_x, p))
_FORMULAS = st.recursive(
    st.sampled_from([p, q]),
    lambda ch: st.one_of(
        st.builds(Neg, ch), st.builds(And, ch, ch), st.builds(MatImp, ch, ch),
        st.builds(Counterfactual, ch, ch), st.builds(Just, st.sampled_from(_TERMS), ch),
        st.builds(Box, ch)),
    max_leaves=5)


@st.composite
def _models(draw):
    """(model, formulas): a random model with non-normal states, term rows,
    overrides and a drawn default scheme, over the formulas' vocabulary."""
    fs = draw(st.lists(_FORMULAS, min_size=1, max_size=3))
    # Two more of the shapes the conditions build, over drawn subformulas.
    pool = sorted(closure(fs), key=formula_key)
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    fs += [Counterfactual(a, b), Just(_x, Counterfactual(a, b))]
    pool = sorted(closure(fs), key=formula_key)
    k = draw(st.integers(1, 4))
    states = tuple(f"w{i}" for i in range(k))
    normal = [w for w in states if draw(st.booleans())]
    abnormal = [w for w in states if w not in normal]

    def rel(sources, targets):
        return {(a, b) for a in sources
                for b in draw(st.frozensets(st.sampled_from(targets))) if targets}

    antecedents = [f.left for f in pool if isinstance(f, Counterfactual)]
    m = KripkeModel(
        states, frozenset(normal),
        {w: draw(st.frozensets(st.sampled_from(["p", "q"]))) for w in normal},
        {w: {f for f in pool if draw(st.booleans())} for w in abnormal},
        {t: rel(states, states) for t in _TERMS if draw(st.booleans())},
        {f: rel(normal, normal) for f in antecedents if draw(st.booleans())},
        draw(st.sampled_from(list(RelScheme))),
    )
    return m, fs


@settings(deadline=None, max_examples=300)
@given(drawn=_models())
def test_bitset_evaluator_matches_per_state_reference(drawn):
    m, fs = drawn
    ref = _RefEvaluator(m)
    for f in sorted(closure(fs), key=formula_key):
        ts = ref.truthset(f)
        assert truthset(m, f) == ts
        assert valid_in_model(m, f) == (m.normal <= ts)
        for w in m.states:
            assert keval(m, w, f) == ref.holds(w, f)
    *premises, goal = fs
    expected = not any(all(ref.holds(w, f) for f in premises) and not ref.holds(w, goal)
                       for w in m.normal)
    assert consequence(m, premises, goal) == expected
    counter = [w for w in m.normal
               if all(ref.holds(w, f) for f in premises) and not ref.holds(w, goal)]
    assert _counterexamples(m, premises, goal) == sum(1 << m.state_index(w) for w in counter)


@settings(deadline=None, max_examples=200)
@given(drawn=_models(), data=st.data())
def test_warm_evaluator_matches_per_state_reference(drawn, data):
    """One evaluator first evaluates other formulas, some drawn afresh and
    some from the model's pool, while the plan table holds the plans of
    earlier draws on other models; the targets' plans then run over a
    partly filled mask cache."""
    m, fs = drawn
    ref = _RefEvaluator(m)
    pool = sorted(closure(fs), key=formula_key)
    ev = m._evaluator(m)
    for f in data.draw(st.lists(st.one_of(_FORMULAS, st.sampled_from(pool)), max_size=4)):
        ev.mask(f)
    for f in data.draw(st.permutations(pool)):
        expected = sum(1 << i for i, w in enumerate(m.states) if ref.holds(w, f))
        assert ev.mask(f) == expected, print_formula(f)


ALL_CONDITIONS = ("1", "2", "3", "4", "5", "5p", "6", "7", "8", "9")


@pytest.mark.parametrize("conditions", [("1", "2"), ALL_CONDITIONS])
@settings(deadline=None, max_examples=200)
@given(drawn=_models(), data=st.data())
def test_conditions_match_per_state_reference(conditions, drawn, data):
    """Conditions 1 and 2 look only at overridden formulas (and at every
    formula under the empty scheme); the reference looks at all of them."""
    m, fs = drawn
    universe = default_universe(m, fs)
    pool = sorted(closure(universe), key=formula_key)
    cs = Explicit(tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(["c", "c1", "c2", "c_ax"]), st.sampled_from(pool)),
        max_size=2))))
    rep = check_conditions(m, VariantProfile("reference", conditions), universe, cs)
    got = [(r.condition, r.passed, r.witness, r.detail) for r in rep.results]
    assert got == _ref_conditions(m, conditions, universe, cs)


def test_condition5p_steps_only_through_normal_states():
    """Under the full-truth-set scheme a row reaches a non-normal state where
    x:(p > q) is a literal member; the chain must not step through it."""
    x, y = Variable("x"), Variable("y")
    step = Just(x, Counterfactual(p, q))
    m = KripkeModel(("w0", "w1"), frozenset({"w1"}), {"w1": frozenset()}, {"w0": {step}},
                    {x: {("w1", "w0")}, App(x, y): {("w1", "w1")}},
                    formula_rel_default=RelScheme.TruthsetAll)
    rep = check_conditions(m, profile_for(Dialect.LPCprime), {step, Just(App(x, y), q)})
    assert not failed(rep, "5p")


def test_condition7_witness_does_not_depend_on_hash_seed():
    script = textwrap.dedent("""
        from condjust.kripke_models import KripkeModel, check_conditions, profile_for
        from condjust.syntax import Atom, Bang, Dialect, Just, Variable
        x = Variable("x")
        states = ("w0", "w1", "w2", "w3")
        refl = {(w, w) for w in states}
        m = KripkeModel(states, frozenset(states), term_rels={
            x: refl | {("w1", "w2"), ("w1", "w3"), ("w2", "w3"), ("w3", "w2")},
            Bang(x): refl | {("w0", "w1"), ("w0", "w2"), ("w0", "w3")},
        })
        rep = check_conditions(m, profile_for(Dialect.LPCplus), {Just(Bang(x), Atom("p"))})
        print(repr([r.witness for r in rep.results if r.condition == "7"][0]))
    """)
    src = str(Path(condjust.__file__).resolve().parent.parent)
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "('w0', 'w1', 'w1', x)"


def _neg_chain(f, depth):
    for _ in range(depth):
        f = Neg(f)
    return f


def test_deep_formulas_evaluate():
    m, _ = load_model({"states": ["w", "v"], "normal": ["w"],
                       "valuation": {"w": ["p"]}, "nonnormal_valuation": {"v": ["q"]}})
    deep = _neg_chain(p, 10_000)
    assert keval(m, "w", deep)
    assert not keval(m, "v", deep)
    assert truthset(m, deep) == {"w"}
    assert valid_in_model(m, deep)
    assert not valid_in_model(m, Neg(deep))
    assert consequence(m, [deep], p)
    assert not consequence(m, [deep], q)


def test_plan_table_stays_under_its_cap():
    """Querying each subformula of a deep chain builds one plan per
    subformula, of quadratic total length; the table is cleared before its
    plans would hold more than _PLAN_CAP entries per interned node."""
    sx = condjust.syntax
    m, _ = load_model({"states": ["w"], "valuation": {"w": ["p"]}})
    chain = [p]
    for _ in range(3_000):
        chain.append(Neg(chain[-1]))
    for depth, f in enumerate(chain):
        assert valid_in_model(m, f) == (depth % 2 == 0)
        assert sx._PLANS.total <= sx._PLAN_CAP * len(condjust.syntax._INTERNED)
    assert sx._PLANS.total == sum(map(len, sx._PLANS.values()))
    assert sx._PLANS.total < sum(range(1, len(chain) + 1))  # the table was cleared


def test_first_foreign_connective_named_is_fixed_by_the_tree():
    """Two foreign connectives side by side: the error names the right one,
    which the evaluation plan finishes first, on a cold or a warm table."""
    m, _ = fixture_model("gettier.json")
    for _ in range(2):
        for call in (lambda f: keval(m, "w", f), lambda f: valid_in_model(m, f)):
            with pytest.raises(ValueError) as err:
                call(And(RelImp(p, q), RelCf(p, q)))
            assert str(err.value) == \
                "RelCf has no clause on relational models; use a Routley model"


def test_deep_goal_gets_a_countermodel():
    found = find_countermodel([], _neg_chain(p, 3000), LPC, 1)
    assert found is not None
    model, witness = found
    assert witness == "w0" and model.valuation == {"w0": frozenset()}


def _gate_error(f, dialect, fresh: bool) -> str | None:
    """check_dialect_formula's error for f, None if it passes; with fresh,
    from a full walk that remembers no accepted subtree."""
    km = condjust.kripke_models
    saved = km._ACCEPTED
    if fresh:
        km._ACCEPTED = {d: set() for d in Dialect}
    try:
        km.check_dialect_formula(f, dialect)
        return None
    except ValueError as exc:
        return str(exc)
    finally:
        km._ACCEPTED = saved


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_dialect_gate_memo_keeps_every_verdict(data):
    # Each formula is checked against every dialect in a random order, so
    # subtrees accepted earlier are skipped later, and a subtree accepted
    # by one dialect meets the others.
    for _ in range(2):
        f = data.draw(ast_strategies(data.draw(st.sampled_from(list(Dialect))))[1])
        for target in data.draw(st.permutations(list(Dialect))):
            assert _gate_error(f, target, False) == _gate_error(f, target, True)


def test_eval_kripke_is_the_relational_eval():
    import condjust.kripke_models as km

    assert condjust.eval_kripke is km.eval_kripke is km.eval
    assert "eval_kripke" in condjust.__all__ and "eval" not in condjust.__all__
