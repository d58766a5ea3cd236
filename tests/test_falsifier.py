"""Falsifier tests: bounded enumeration, oracle cross-checks, samplers."""

import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import condjust.falsifier as falsifier
import condjust.tableau as tableau
from condjust.cli import parse_sequent
from condjust.falsifier import (
    CrossCheckReport,
    SearchSignature,
    cross_check,
    find_countermodel,
    iter_kripke_models,
    sample_models,
)
from condjust.kripke_models import (
    check_conditions,
    eval as kripke_eval,
    model_to_json,
    profile_for,
)
from condjust.routley_models import (
    check_jrc_conditions,
    eval_jrc,
    routley_model_to_json,
)
from condjust.syntax import (
    And,
    Atom,
    Dialect,
    Just,
    Neg,
    RelCf,
    RelImp,
    Sum,
    Variable,
    atoms,
    parse_formula,
    parse_term,
)
from condjust.tableau import Budget, Closed, Exhausted, Open, Signed
from util_gen import ast_strategies

J = Dialect.JRC
L = Dialect.LPCplus


def pf(text: str, dialect=J):
    return parse_formula(text, dialect)


class TestSearchSignature:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SearchSignature.for_sequent([], pf("p"), J, 0)

    def test_derived_fields(self):
        sig = SearchSignature.for_sequent(
            [pf("q", L)], pf("s:p > (s+t):p", L), L, 2)
        assert sig.atoms == ("p", "q")
        assert sig.antecedents == (pf("s:p", L),)
        assert set(sig.terms) == {parse_term("s", L), parse_term("t", L),
                                  parse_term("s+t", L)}

    def test_jrc_antecedents_use_relevant_conditional(self):
        sig = SearchSignature.for_sequent([], pf("(p & ~p) ~> q"), J, 3)
        assert sig.antecedents == (pf("p & ~p"),)

    def test_dialect_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SearchSignature.for_sequent([], pf("p ~> q"), L, 2)


class TestKripkeEnumeration:
    def test_model_count_for_tiny_signature(self):
        sig = SearchSignature.for_sequent([], pf("p", L), L, 2)
        models = list(iter_kripke_models(sig))
        # k=1: 2 valuations; k=2 one normal: 2*2; k=2 both normal: 4
        assert len(models) == 10

    def test_smallest_first(self):
        sig = SearchSignature.for_sequent([], pf("p", L), L, 2)
        sizes = [len(m.states) for m in iter_kripke_models(sig)]
        assert sizes == sorted(sizes)


class TestKripkeCountermodels:
    def test_justification_regularity_fails(self):
        goal = pf("x:p == x:(p & p)", L)
        found = find_countermodel([], goal, L, 2)
        assert found is not None
        model, w = found
        assert len(model.states) == 2
        assert len(model.normal) == 1
        assert not kripke_eval(model, w, goal)
        assert kripke_eval(model, w, pf("x:p", L)) != kripke_eval(
            model, w, pf("x:(p & p)", L))

    def test_counterpossibles_are_vacuous(self):
        assert find_countermodel([], pf("false > p", L), L, 3) is None

    def test_factivity_tracks_reflexivity_condition(self):
        # condition 6 backs factivity; the plain-belief dialect drops both
        assert find_countermodel([], pf("x:p > p", L), L, 2) is None
        found = find_countermodel([], pf("x:p > p", Dialect.JCplus),
                                  Dialect.JCplus, 2)
        assert found is not None
        model, w = found
        assert len(model.states) == 1
        assert model.term_rels[parse_term("x", Dialect.JCplus)] == frozenset()

    def test_returned_model_passes_conditions(self):
        goal = pf("x:p == x:(p & p)", L)
        model, _ = find_countermodel([], goal, L, 2)
        assert check_conditions(model, profile_for(L), [goal]).ok

    def test_deterministic(self):
        goal = pf("x:p == x:(p & p)", L)
        a, wa = find_countermodel([], goal, L, 2)
        b, wb = find_countermodel([], goal, L, 2)
        assert model_to_json(a, L) == model_to_json(b, L) and wa == wb

    def test_profile_must_be_dialect(self):
        with pytest.raises(TypeError):
            find_countermodel([], pf("p", L), "lpcplus", 2)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            find_countermodel([], pf("p", L), L, 0)


KRIPKE_DIALECTS = [Dialect.LPCplus, Dialect.LPCint, Dialect.LPCprime,
                   Dialect.LPCKplus, Dialect.J4Cplus, Dialect.JCplus, Dialect.L]


def search_space(sig):
    """Models iter_kripke_models yields for the signature."""
    return sum(
        1 << (len(sig.atoms) * n + len(sig.universe) * (k - n)
              + len(sig.terms) * k * k + len(sig.antecedents) * n * n)
        for k in range(1, sig.bound + 1) for n in range(1, k + 1))


def first_witness(m, premises, goal):
    return next(
        (w for w in m.states if w in m.normal
         and all(kripke_eval(m, w, p) for p in premises)
         and not kripke_eval(m, w, goal)), None)


def reference_countermodel(sig, premises, goal):
    """The unpruned search: the first enumerated model with a witness that
    passes every condition."""
    profile = profile_for(sig.dialect)
    for m in iter_kripke_models(sig):
        witness = first_witness(m, premises, goal)
        if witness is not None and \
                check_conditions(m, profile, [*premises, goal]).ok:
            return m, witness
    return None


def draw_small_search(data):
    """A sequent with at most one premise in a Kripke dialect at bound 1 or
    2, with its signature; None when the space exceeds 2**12 models."""
    dialect = data.draw(st.sampled_from(KRIPKE_DIALECTS))
    _, formula = ast_strategies(dialect)
    goal = data.draw(formula)
    premises = data.draw(st.lists(formula, max_size=1))
    bound = data.draw(st.sampled_from([1, 2]))
    sig = SearchSignature.for_sequent(premises, goal, dialect, bound)
    return (sig, premises, goal) if search_space(sig) <= 1 << 12 else None


PRUNING = settings(max_examples=300, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestKripkePruning:
    @PRUNING
    @given(data=st.data())
    def test_matches_unpruned_enumeration(self, data):
        drawn = draw_small_search(data)
        if drawn is None:
            return
        sig, premises, goal = drawn
        want = reference_countermodel(sig, premises, goal)
        got = find_countermodel(premises, goal, sig.dialect, sig.bound)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert model_to_json(got[0], sig.dialect) == \
                model_to_json(want[0], sig.dialect)
            assert got[1] == want[1]

    @PRUNING
    @given(data=st.data())
    def test_filter_keeps_every_countermodel(self, data):
        # stronger than the first-model comparison: no accepted model of any
        # size is filtered out, including those after the first
        drawn = draw_small_search(data)
        if drawn is None:
            return
        sig, premises, goal = drawn
        profile = profile_for(sig.dialect)
        sieve = falsifier._KripkeFilter(sig, premises, goal, profile.conditions)
        models = iter_kripke_models(sig)
        for lay in falsifier._layouts(sig):
            full, pats = falsifier._slice_patterns(lay.size)
            live = sieve.survivors(lay, list(pats), full)
            for code in range(1 << lay.size):
                m = next(models)
                if first_witness(m, premises, goal) is None:
                    continue
                if check_conditions(m, profile, [*premises, goal]).ok:
                    assert live >> code & 1

    def test_factivity_holds_at_bound_three_with_introspection(self):
        d = Dialect.LPCint
        assert find_countermodel([], pf("x:p > p", d), d, 3) is None

    def test_counterpossible_holds_at_bound_four(self):
        assert find_countermodel([], pf("false > p", L), L, 4) is None


def vocabulary(sig):
    """Atoms plus modal subformulas: the jrc search's bits per state."""
    return len(sig.atoms) + sum(
        isinstance(f, (RelImp, RelCf, Just)) for f in sig.universe)


def routley_space(sig):
    """Codes the jrc search walks when nothing refutes the sequent."""
    return sum(len(falsifier._involutions(k)) << vocabulary(sig) * k
               for k in range(1, sig.bound + 1))


def routley_reference(sig, premises, goal):
    """The code-by-code walk: star involution, then atom assignment, then
    modal truth values. Yields (k, sigma, code), the model and whether the
    model passes, for every code that _realize realizes; the search returns
    the first model that passes."""
    search = falsifier._RoutleySearch(sig, premises, goal)
    modal = [f for f in sig.universe if isinstance(f, (RelImp, RelCf, Just))]
    seq = [*premises, goal]
    for k in range(1, sig.bound + 1):
        full = (1 << k) - 1
        for sigma in falsifier._involutions(k):
            for assign in range(1 << len(sig.atoms) * k):
                amasks = [assign >> i * k & full for i in range(len(sig.atoms))]
                for code in range(1 << len(modal) * k):
                    masks = {}
                    for f in sig.universe:
                        if isinstance(f, Atom):
                            masks[f] = amasks[sig.atoms.index(f.name)]
                        elif isinstance(f, Neg):
                            masks[f] = sum(1 << w for w in range(k)
                                           if not masks[f.inner] >> sigma[w] & 1)
                        elif isinstance(f, And):
                            masks[f] = masks[f.left] & masks[f.right]
                        else:
                            masks[f] = code >> modal.index(f) * k & full
                    if not all(masks[p] & 1 for p in premises) or masks[goal] & 1:
                        continue
                    # an implication at w0 reads the diagonal
                    if any((masks[f.left] & ~masks[f.right] & full == 0)
                           != bool(masks[f] & 1)
                           for f in modal if isinstance(f, RelImp)):
                        continue
                    model = search._realize(k, full, sigma, amasks, masks)
                    if model is None:
                        continue
                    passes = check_jrc_conditions(model, seq).ok \
                        and all(eval_jrc(model, "w0", p) for p in premises) \
                        and not eval_jrc(model, "w0", goal)
                    yield (k, sigma, assign << len(modal) * k | code), model, passes


def draw_small_routley_search(data):
    """A jrc sequent with at most one premise at bound 1 or 2, or 3 when the
    vocabulary is at most two; None when the walk exceeds 2**13 codes."""
    _, formula = ast_strategies(J)
    goal = data.draw(formula)
    premises = data.draw(st.lists(formula, max_size=1))
    bound = data.draw(st.sampled_from([1, 2, 3]))
    sig = SearchSignature.for_sequent(premises, goal, J, bound)
    if bound == 3 and vocabulary(sig) > 2 or routley_space(sig) > 1 << 13:
        return None
    return sig, premises, goal


def assert_filter_exact(sig, premises, goal):
    search = falsifier._RoutleySearch(sig, premises, goal)
    realized = {}
    for (k, sigma, code), _, _ in routley_reference(sig, premises, goal):
        realized[k, sigma] = realized.get((k, sigma), 0) | 1 << code
    for k in range(1, sig.bound + 1):
        full, pats = falsifier._slice_patterns(search.groups * k)
        for sigma in falsifier._involutions(k):
            live = search.survivors(k, sigma, list(pats), full)
            assert live == realized.get((k, sigma), 0)


class TestRoutleyPruning:
    @PRUNING
    @given(data=st.data())
    def test_matches_code_by_code_walk(self, data):
        drawn = draw_small_routley_search(data)
        if drawn is None:
            return
        sig, premises, goal = drawn
        want = next((hit for hit in routley_reference(sig, premises, goal)
                     if hit[2]), None)
        got = find_countermodel(premises, goal, J, sig.bound)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert routley_model_to_json(got[0]) == routley_model_to_json(want[1])
            assert got[1] == "w0"

    @PRUNING
    @given(data=st.data())
    def test_filter_keeps_exactly_the_realized_codes(self, data):
        # stronger than the first-model comparison: every accepted code of
        # any size keeps its bit, and a kept bit is one _realize accepts, so
        # the filter neither drops a countermodel nor passes a code on
        drawn = draw_small_routley_search(data)
        if drawn is None:
            return
        assert_filter_exact(*drawn)

    @pytest.mark.parametrize("text", [
        "t:p |- (s+t):p", "s:p |- (s+t):p", "s:q, t:p |- (s+t):(p & q)",
        "p, p ~> q |- q", "p -> q |- ~q -> ~p", "s:(p & q) ~> s:p",
    ])
    def test_filter_is_exact_on_fixed_sequents(self, text):
        premises, goal = parse_sequent(text, J)
        assert_filter_exact(
            SearchSignature.for_sequent(premises, goal, J, 2), premises, goal)

    def test_justified_conjunction_elimination_holds_at_bound_four(self):
        assert find_countermodel([], pf("s:(p & q) ~> s:p"), J, 4) is None


def test_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, condjust; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestRoutleyCountermodels:
    def test_counterpossible_refutable(self):
        goal = pf("(p & ~p) ~> q")
        found = find_countermodel([], goal, J, 3)
        assert found is not None
        model, w = found
        assert w == "w0"
        assert check_jrc_conditions(model, [goal]).ok
        assert not eval_jrc(model, w, goal)
        assert len(model.states) == 2

    def test_validities_have_no_countermodel(self):
        for text in ["p ~> p", "s:p ~> (s+t):p", "p -> p", "(p & q) ~> p",
                     "s:(p & q) ~> s:p", "~(~p) ~> p"]:
            assert find_countermodel([], pf(text), J, 2) is None, text

    def test_premises_constrain_search(self):
        found = find_countermodel([pf("p"), pf("p ~> q")], pf("q"), J, 3)
        assert found is None
        found = find_countermodel([pf("p")], pf("q"), J, 2)
        assert found is not None
        model, w = found
        assert eval_jrc(model, w, pf("p")) and not eval_jrc(model, w, pf("q"))

    def test_deterministic(self):
        a = find_countermodel([], pf("(p & ~p) ~> q"), J, 3)
        b = find_countermodel([], pf("(p & ~p) ~> q"), J, 3)
        assert routley_model_to_json(a[0]) == routley_model_to_json(b[0])


class TestCrossCheck:
    def test_closed_validity_agrees(self):
        rep = cross_check([], pf("s:p ~> (s+t):p"), Budget(6, 500), 3)
        assert isinstance(rep.proof, Closed)
        assert rep.countermodel is None
        assert rep.verdict == "agree" and not rep.contradiction

    def test_open_with_countermodel_agrees(self):
        rep = cross_check([], pf("p ~> (q ~> p)"), Budget(6, 500), 3)
        assert isinstance(rep.proof, Open)
        assert rep.countermodel is not None
        assert rep.verdict == "agree"

    def test_premiseful_modus_ponens_agrees(self):
        rep = cross_check([pf("p"), pf("p ~> q")], pf("q"), Budget(6, 500), 3)
        assert isinstance(rep.proof, Closed) and rep.verdict == "agree"

    def test_exhausted_without_countermodel_inconclusive(self):
        rep = cross_check([], pf("s:p ~> (s+t):p"), Budget(6, 1), 3)
        assert isinstance(rep.proof, Exhausted)
        assert rep.verdict == "inconclusive"

    def test_exhausted_with_countermodel_agrees(self):
        rep = cross_check([], pf("(p & ~p) ~> q"), Budget(6, 1), 3)
        assert isinstance(rep.proof, Exhausted)
        assert rep.countermodel is not None and rep.verdict == "agree"

    def test_broken_rule_is_flagged(self, monkeypatch):
        # corrupt the conditional elimination rule: it now concludes the
        # negated consequent, so the proof goes open with a bogus branch
        orig = tableau._Prover._conclusions

        def broken(self, branch, rule, data):
            if rule == "T~>":
                s, edge = data
                return [Signed(Neg(s.formula.right), True, edge.dst)]
            return orig(self, branch, rule, data)

        monkeypatch.setattr(tableau._Prover, "_conclusions", broken)
        rep = cross_check([pf("p"), pf("p ~> q")], pf("q"), Budget(6, 500), 3)
        assert rep.contradiction
        assert "failed verification" in rep.detail

    def test_fabricated_closed_is_flagged(self, monkeypatch):
        import condjust.falsifier as falsifier

        monkeypatch.setattr(falsifier, "prove",
                            lambda premises, goal, budget=None: Closed("", 0))
        rep = cross_check([], pf("(p & ~p) ~> q"), None, 3)
        assert rep.contradiction
        assert "countermodel exists" in rep.detail


class TestRandomAgreement:
    ATOMS = ("p", "q")
    VARS = (Variable("s"), Variable("t"))

    @classmethod
    def random_term(cls, rng, depth):
        if depth <= 0 or rng.random() < 0.7:
            return rng.choice(cls.VARS)
        return Sum(cls.random_term(rng, depth - 1),
                   cls.random_term(rng, depth - 1))

    @classmethod
    def random_formula(cls, rng, depth):
        if depth <= 0:
            return Atom(rng.choice(cls.ATOMS))
        pick = rng.random()
        if pick < 0.22:
            return Atom(rng.choice(cls.ATOMS))
        if pick < 0.40:
            return Neg(cls.random_formula(rng, depth - 1))
        if pick < 0.56:
            return And(cls.random_formula(rng, depth - 1),
                       cls.random_formula(rng, depth - 1))
        if pick < 0.74:
            return RelCf(cls.random_formula(rng, depth - 1),
                         cls.random_formula(rng, depth - 1))
        if pick < 0.87:
            return RelImp(cls.random_formula(rng, depth - 1),
                          cls.random_formula(rng, depth - 1))
        return Just(cls.random_term(rng, 1),
                    cls.random_formula(rng, depth - 1))

    def test_no_contradictions_on_seeded_batch(self):
        rng = random.Random(404)
        for _ in range(30):
            goal = self.random_formula(rng, 3)
            premises = ([self.random_formula(rng, 2)]
                        if rng.random() < 0.3 else [])
            rep = cross_check(premises, goal, Budget(6, 500), 3)
            assert not rep.contradiction, rep.detail


class TestSampleModels:
    DIALECTS = [Dialect.LPCplus, Dialect.LPCint, Dialect.LPCprime,
                Dialect.LPCKplus, Dialect.J4Cplus, Dialect.JCplus, Dialect.L]

    @pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.value)
    def test_samples_pass_their_profile(self, dialect):
        rng = random.Random(7)
        univ = [pf("(x:(p => q) & y:p) > (x.y):q", dialect)]
        terms = [parse_term("x", dialect), parse_term("y", dialect),
                 parse_term("x.y", dialect)]
        models = sample_models(dialect, ["p", "q"], terms, 4, rng,
                               universe=univ)
        assert len(models) == 4
        for m in models:
            assert len(m.states) <= 3
            assert check_conditions(m, profile_for(dialect), univ).ok
            for w in m.normal:
                assert kripke_eval(m, w, univ[0])

    def test_single_normal_state_dialects(self):
        rng = random.Random(3)
        for dialect in (Dialect.LPCint, Dialect.LPCprime):
            for m in sample_models(dialect, ["p"], [], 6, rng):
                assert len(m.normal) == 1

    def test_rejects_unknown_dialect(self):
        with pytest.raises(ValueError):
            sample_models(J, ["p"], [], 1, random.Random(0))
