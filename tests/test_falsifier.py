"""Falsifier tests: bounded enumeration, oracle cross-checks, samplers."""

import copy
import dataclasses
import pickle
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
from condjust.kripke_models import KripkeModel, RelScheme, _bits, load_model
from condjust.kripke_models import (
    check_conditions,
    eval as kripke_eval,
    model_to_json,
    profile_for,
    valid_in_model,
)
from condjust.routley_models import (
    RoutleyModel,
    check_jrc_conditions,
    eval_jrc,
    routley_model_to_json,
    truthset_jrc,
)
from condjust.syntax import (
    And,
    Atom,
    Dialect,
    Formula,
    Just,
    Neg,
    RelCf,
    RelImp,
    Sum,
    Term,
    Variable,
    atoms,
    closure,
    formula_key,
    parse_formula,
    parse_term,
    subterms,
    term_key,
    _sorted_by_key,
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
        seq = [pf("q", L), pf("s:p > (s+t):p", L)]
        sig = SearchSignature.for_sequent(seq[:1], seq[1], L, 2)
        assert sig.atoms == ("p", "q")
        assert sig.antecedents == (pf("s:p", L),)
        assert sig.universe == tuple(_sorted_by_key(closure(seq)))
        assert sig.terms == (parse_term("s", L), parse_term("t", L),
                             parse_term("s+t", L))

    @pytest.mark.parametrize("dialect,text", [
        (L, "s:p > (s+t):p"),
        (Dialect.LPCint, "<x, y:p>:q"),
        (Dialect.LPCint, "<x, y:p>:q > (x.y):<y, q>:p"),
    ])
    def test_terms_are_those_of_the_justified_subformulas(self, dialect, text):
        # the terms _query_part collects equal the subterms of each t:
        # subformula's term, which descend into pair antecedents
        goal = pf(text, dialect)
        sig = SearchSignature.for_sequent([], goal, dialect, 2)
        walked = set()
        for f in closure([goal]):
            if isinstance(f, Just):
                walked |= subterms(f.term)
        assert sig.terms == tuple(sorted(walked, key=term_key))
        if dialect is Dialect.LPCint:
            assert parse_term("y", dialect) in sig.terms

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
        models = iter_kripke_models(sig)
        for lay in falsifier._layouts(sig):
            for _, fields, full in lay.columns():
                live = falsifier._survivors(lay, premises, goal, profile.conditions,
                                            fields, full)
                for j in range(full.bit_length()):
                    m = next(models)
                    if first_witness(m, premises, goal) is None:
                        continue
                    if check_conditions(m, profile, [*premises, goal]).ok:
                        assert live >> j & 1

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


class ScalarRealization:
    """The jrc search's realization spelled out one code at a time, kept as
    the reference the bit-sliced filter is checked against: _realize builds
    the maximal rows from one code's truth masks, or None when no model
    realizes them."""

    def __init__(self, sig):
        self.sig = sig
        modal = [f for f in sig.universe if isinstance(f, (RelImp, RelCf, Just))]
        cf_nodes = [f for f in modal if isinstance(f, RelCf)]
        self.cf_by_ante = {a: [f for f in cf_nodes if f.left is a]
                           for a in sig.antecedents}
        self.imps = [f for f in modal if isinstance(f, RelImp)]
        just_nodes = [f for f in modal if isinstance(f, Just)]
        self.just_by_term = {t: [f for f in just_nodes if f.term is t]
                             for t in sig.terms}

    def _realize(self, k, full, sigma, amasks, masks) -> RoutleyModel | None:
        # conditional rows: maximal under antecedent truth at the normal
        # state, the true conditionals' consequents, and self-support
        overrides: dict[Formula, set] = {}
        for ante in self.sig.antecedents:
            m_ante = masks[ante]
            pairs = set()
            for w in range(k):
                row = full & (m_ante if w == 0 else full)
                for nd in self.cf_by_ante[ante]:
                    if masks[nd] >> w & 1:
                        row &= masks[nd.right]
                if m_ante >> w & 1 and not row >> w & 1:
                    return None
                for nd in self.cf_by_ante[ante]:
                    if not masks[nd] >> w & 1 and not row & ~masks[nd.right] & full:
                        return None
                pairs |= {(f"w{w}", f"w{v}") for v in _bits(row)}
            overrides[ante] = pairs
        ternary = {("w0", f"w{v}", f"w{v}") for v in range(k)}
        if self.imps:
            for x in range(1, k):
                slice_pairs = [
                    (y, z) for y in range(k) for z in range(k)
                    if all(not masks[nd] >> x & 1
                           or not masks[nd.left] >> y & 1
                           or masks[nd.right] >> z & 1
                           for nd in self.imps)]
                for nd in self.imps:
                    if masks[nd] >> x & 1:
                        continue
                    if not any(masks[nd.left] >> y & 1
                               and not masks[nd.right] >> z & 1
                               for y, z in slice_pairs):
                        return None
                ternary |= {(f"w{x}", f"w{y}", f"w{z}") for y, z in slice_pairs}
        rows_by_term: dict[Term, list[int]] = {}
        for t in self.sig.terms:
            rows = []
            for w in range(k):
                row = full
                if isinstance(t, Sum):
                    row &= rows_by_term[t.left][w] & rows_by_term[t.right][w]
                for nd in self.just_by_term[t]:
                    if masks[nd] >> w & 1:
                        row &= masks[nd.inner]
                for nd in self.just_by_term[t]:
                    if not masks[nd] >> w & 1 and not row & ~masks[nd.inner] & full:
                        return None
                rows.append(row)
            rows_by_term[t] = rows
        term_rels = {
            t: {(f"w{a}", f"w{b}")
                for a in range(k) for b in _bits(rows[a])}
            for t, rows in rows_by_term.items()}
        valuation = {
            f"w{i}": {name for name, am in zip(self.sig.atoms, amasks)
                      if am >> i & 1}
            for i in range(k)}
        star = {f"w{i}": f"w{sigma[i]}" for i in range(k)}
        return RoutleyModel(
            states=tuple(f"w{i}" for i in range(k)),
            normal=frozenset({"w0"}),
            star=star,
            ternary=frozenset(ternary),
            valuation=valuation,
            term_rels=term_rels,
            formula_rel_overrides=overrides,
            formula_rel_default=RelScheme.TruthsetAll)


def routley_reference(sig, premises, goal):
    """The code-by-code walk: star involution, then atom assignment, then
    modal truth values. Yields (k, sigma, code), the model and whether the
    model passes, for every code that _realize realizes; the search returns
    the first model that passes."""
    search = ScalarRealization(sig)
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
            live = search.realize(k, sigma, list(pats), full)[0]
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
        # invalid at bound 2, so the filter keeps codes to compare
        "p -> q |- q -> p", "(s+t):p |- s:p & t:p",
    ])
    def test_filter_is_exact_on_fixed_sequents(self, text):
        premises, goal = parse_sequent(text, J)
        assert_filter_exact(
            SearchSignature.for_sequent(premises, goal, J, 2), premises, goal)

    def test_justified_conjunction_elimination_holds_at_bound_four(self):
        assert find_countermodel([], pf("s:(p & q) ~> s:p"), J, 4) is None


def code_masks(sig, k, sigma, code):
    """Per universe formula, the truth set a code assigns it, as a mask:
    modal formulas and atoms read off the code's bits, negation through
    the star, conjunction as intersection."""
    slots = [f for f in sig.universe if isinstance(f, (RelImp, RelCf, Just))]
    slots += [Atom(a) for a in sig.atoms]
    full = (1 << k) - 1
    masks = {}
    for f in sig.universe:
        if isinstance(f, Neg):
            masks[f] = sum(1 << w for w in range(k)
                           if not masks[f.inner] >> sigma[w] & 1)
        elif isinstance(f, And):
            masks[f] = masks[f.left] & masks[f.right]
        else:
            masks[f] = code >> slots.index(f) * k & full
    return masks


def assert_kept_codes_realized(sig, premises, goal):
    """Every code the filter keeps gives a model that passes the re-check
    and whose truth sets are the code's truth values, so re-verification
    never rejects a kept code. Returns the number of kept codes."""
    search = falsifier._RoutleySearch(sig, premises, goal)
    kept = 0
    for k in range(1, sig.bound + 1):
        full, pats = falsifier._slice_patterns(search.groups * k)
        for sigma in falsifier._involutions(k):
            for code in _bits(search.realize(k, sigma, list(pats), full)[0]):
                found = search._verify(k, sigma, code)
                assert found is not None and found[1] == "w0"
                for f, mask in code_masks(sig, k, sigma, code).items():
                    assert truthset_jrc(found[0], f) == \
                        {f"w{w}" for w in _bits(mask)}
                kept += 1
    return kept


class TestRoutleyRealization:
    @PRUNING
    @given(data=st.data())
    def test_kept_codes_realize_their_truth_values(self, data):
        drawn = draw_small_routley_search(data)
        if drawn is None:
            return
        assert_kept_codes_realized(*drawn)

    @pytest.mark.parametrize("text", [
        "t:p |- (s+t):p", "s:p |- (s+t):p", "s:q, t:p |- (s+t):(p & q)",
        "p, p ~> q |- q", "p -> q |- ~q -> ~p", "s:(p & q) ~> s:p",
        "p -> q |- q -> p", "p ~> q |- ~q ~> ~p", "(p & ~p) ~> q",
        "s:p |- t:p", "(s+t):p |- s:p & t:p",
    ])
    def test_kept_codes_realized_on_fixed_sequents(self, text):
        # the first six are valid and keep no code; the rest keep some
        premises, goal = parse_sequent(text, J)
        kept = assert_kept_codes_realized(
            SearchSignature.for_sequent(premises, goal, J, 2), premises, goal)
        assert (kept > 0) == (find_countermodel(premises, goal, J, 2) is not None)

    def test_no_implication_leaves_only_the_w0_diagonal(self):
        # without ->, no ternary triple is placed at a state x >= 1
        model, _ = find_countermodel([], pf("(p & ~p) ~> q"), J, 3)
        assert len(model.states) == 2
        assert model.ternary == {("w0", w, w) for w in model.states}


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
        def broken(prover, branch, s, edge):
            return [Signed(Neg(s.formula.right), True, edge.dst)]

        monkeypatch.setitem(tableau._RULES, "T~>",
                            tableau._RULES["T~>"]._replace(nodes=broken))
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

    def test_rejects_a_state_bound_below_one(self):
        with pytest.raises(ValueError, match="^state bound must be at least 1$"):
            sample_models(L, ["p"], [], 1, random.Random(0), size_bound=0)

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            sample_models(L, ["p"], [], -3, random.Random(0))
        assert sample_models(L, ["p"], [], 0, random.Random(0)) == []

    def test_rejects_a_universe_or_term_outside_the_dialect(self):
        # A literal entry outside the dialect would make a model whose own
        # JSON document load_model refuses.
        lpc = Dialect.LPCplus
        with pytest.raises(ValueError, match="not in dialect lpcplus"):
            sample_models(lpc, ["p"], [], 40, random.Random(0),
                          universe=[RelCf(Atom("p"), Atom("q"))])
        with pytest.raises(ValueError, match="lpcplus"):
            sample_models(lpc, ["p"], [parse_term("<x, p>", Dialect.LPCint)], 4,
                          random.Random(0))
        universe = [parse_formula("x:p > q", lpc)]
        for m in sample_models(lpc, ["p"], [Variable("x")], 40, random.Random(0),
                               universe=universe):
            doc = model_to_json(m, lpc)
            assert model_to_json(load_model(doc)[0], lpc) == doc


# --- models built from slot codes -----------------------------------------


def pair_decode(sig, k, n, code):
    """The slot code as pairs of state names, built through the validating
    constructor; independent of _SlotLayout's offsets and of _from_masks."""
    states = tuple(f"w{i}" for i in range(k))
    valuation = {w: set() for w in states[:n]}
    nn_val = {w: set() for w in states[n:]}
    term_rels = {t: set() for t in sig.terms}
    overrides = {f: set() for f in sig.antecedents}
    slots = [(valuation[states[w]].add, a) for a in sig.atoms for w in range(n)]
    slots += [(nn_val[states[n + w]].add, f)
              for f in sig.universe for w in range(k - n)]
    slots += [(term_rels[t].add, (states[a], states[b]))
              for t in sig.terms for a in range(k) for b in range(k)]
    slots += [(overrides[f].add, (states[a], states[b]))
              for f in sig.antecedents for a in range(n) for b in range(n)]
    for i, (add, item) in enumerate(slots):
        if code >> i & 1:
            add(item)
    return KripkeModel(states, frozenset(states[:n]), valuation, nn_val,
                       term_rels, overrides, RelScheme.TruthsetNormal)


MASK_ATTRS = ("_index", "_normal_mask", "_normal_idx", "_atoms", "_members",
              "_term_rows", "_override_rows")
VIEWS = ("valuation", "nonnormal_valuation", "term_rels", "formula_rel_overrides")


def pack(cells):
    return sum(cell << i for i, cell in enumerate(cells))


def packed_columns(lay, fields, j):
    """The bitset fields of code j of a slice, read off the slot ints
    lay.columns split for that slice, in _from_masks' form: empty
    valuations and memberships left out, override rows padded to every
    state."""
    atoms, members, terms, overrides = fields

    def mask(slots):
        return pack([x >> j & 1 for x in slots])

    return {
        "_atoms": {a: mask(c) for a, c in atoms.items() if mask(c)},
        "_members": {f: mask(c) << lay.n for f, c in members.items() if mask(c)},
        "_term_rows": {t: tuple(map(mask, rows)) for t, rows in terms.items()},
        "_override_rows": {f: tuple(map(mask, rows)) + (0,) * (lay.k - lay.n)
                           for f, rows in overrides.items()},
    }


def assert_same_models(sig, goal, max_bits=None):
    """Every code of every layout (of at most `max_bits` slots) decodes to
    the model the pair decoder builds: same JSON, bitset form, views and
    condition reports; the slice decoder columns splits the code into the
    same bitset fields."""
    profile = profile_for(sig.dialect)
    for lay in falsifier._layouts(sig):
        if max_bits is not None and lay.size > max_bits:
            continue
        for first, fields, full in lay.columns():
            for j in range(full.bit_length()):
                code = first + j
                got, want = lay.model(code), pair_decode(sig, lay.k, lay.n, code)
                assert model_to_json(got, sig.dialect) == model_to_json(want, sig.dialect)
                for name in MASK_ATTRS:
                    assert vars(got)[name] == vars(want)[name], name
                for name, masks in packed_columns(lay, fields, j).items():
                    assert masks == vars(want)[name], name
                assert check_conditions(got, profile, [goal]) == \
                    check_conditions(want, profile, [goal])
                for name in VIEWS:
                    assert getattr(got, name) == getattr(want, name), name


# Goals whose every layout at bound 2 has at most 12 slots, between them
# covering atoms, literal memberships, term rows of each term kind and
# override rows.
MASK_GOALS = {
    Dialect.LPCplus: "x:p > p",
    Dialect.LPCint: "<x, p>:p",
    Dialect.LPCprime: "(x.x):p",
    Dialect.LPCKplus: "(x + x):p",
    Dialect.J4Cplus: "!x:p",
    Dialect.JCplus: "(p => q) > x:q",
    Dialect.L: "[](p > q)",
}


class TestMaskModels:
    @pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
    def test_fixed_goal_decodes_like_pairs(self, dialect):
        goal = pf(MASK_GOALS[dialect], dialect)
        sig = SearchSignature.for_sequent([], goal, dialect, 2)
        assert_same_models(sig, goal)

    @pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_goal_decodes_like_pairs(self, dialect, data):
        goal = data.draw(ast_strategies(dialect)[1])
        bound = data.draw(st.sampled_from([1, 2]))
        assert_same_models(SearchSignature.for_sequent([], goal, dialect, bound),
                           goal, max_bits=10)

    def test_three_state_layouts_decode_like_pairs(self):
        goal = pf("p > q", L)
        assert_same_models(SearchSignature.for_sequent([], goal, L, 3), goal,
                           max_bits=11)

    @pytest.mark.parametrize("text", ["p |- q > p", "~p |- x:p > q",
                                      "p => q |- p > q"])
    def test_witness_needs_the_premises(self, text):
        # the goal fails at w0 too, where a premise is false
        premises, goal = parse_sequent(text, L)
        model, w = find_countermodel(premises, goal, L, 2)
        assert w == first_witness(model, premises, goal) == "w1"
        assert not kripke_eval(model, "w0", goal)

    def sample(self):
        """A model with every field nonempty: a term row, an override row, a
        literal membership at the non-normal state."""
        goal = pf("x:p > p", L)
        sig = SearchSignature.for_sequent([], goal, L, 2)
        lay = next(lay for lay in falsifier._layouts(sig) if (lay.k, lay.n) == (2, 1))
        code = (1 << lay.size) - 1
        return lay.model(code), pair_decode(sig, 2, 1, code)

    def test_views_are_built_on_first_read(self):
        m, want = self.sample()
        assert not set(VIEWS) & set(vars(m))
        check_conditions(m, profile_for(L), [pf("x:p > p", L)])
        assert not set(VIEWS) & set(vars(m))
        for name in VIEWS:
            assert getattr(m, name) == getattr(want, name)
            assert getattr(m, name) is getattr(m, name)

    def test_passing_results_are_shared(self):
        m, _ = self.sample()
        first = check_conditions(m, profile_for(L), [pf("x:p > p", L)])
        again = check_conditions(m, profile_for(L), [pf("p", L)])
        passed = [(a, b) for a, b in zip(first.results, again.results)
                  if a.passed and b.passed]
        assert passed and all(a is b for a, b in passed)

    def test_pickle_round_trip(self):
        m, want = self.sample()
        for forced in (False, True):
            if forced:
                repr(m)
            back = pickle.loads(pickle.dumps(m))
            assert model_to_json(back, L) == model_to_json(want, L)
            for name in MASK_ATTRS:
                assert vars(back)[name] == vars(want)[name]
            for name in VIEWS:
                assert getattr(back, name) == getattr(want, name)
        # A sampled model's link to its sample is no field: a pickle, a copy
        # and dataclasses.replace leave it behind, and the model they give
        # answers on its own as the sampled one did.
        universe = [pf("x:p > p", L), pf("~x:q", L)]
        queries = sorted(closure(universe), key=formula_key)
        for m in sample_models(L, ["p", "q"], [Variable("x")], 6, random.Random(2),
                               universe=universe):
            assert m._sample is not None
            before = [valid_in_model(m, f) for f in queries]
            doc, text = model_to_json(m, L), repr(m)
            assert "_sample" not in text
            for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m),
                         dataclasses.replace(m)):
                assert "_sample" not in vars(back) and back._sample is None
                assert model_to_json(back, L) == doc
                assert "_sample" not in repr(back)
                assert [valid_in_model(back, f) for f in queries] == before
            assert [valid_in_model(m, f) for f in queries] == before

    def test_replace_validates_and_keeps_the_model(self):
        m, want = self.sample()
        other = dataclasses.replace(m, formula_rel_default=RelScheme.Empty)
        assert other.formula_rel_default is RelScheme.Empty
        for name in (*MASK_ATTRS, *VIEWS):
            assert getattr(other, name) == getattr(want, name)
        with pytest.raises(ValueError):
            dataclasses.replace(m, normal=frozenset({"w9"}))

    def test_repr_and_state_index(self):
        m, _ = self.sample()
        text = repr(m)
        assert text.startswith("KripkeModel(states=('w0', 'w1'), ")
        for name in VIEWS:
            assert f"{name}={getattr(m, name)!r}" in text
        assert m.state_index("w1") == 1
        with pytest.raises(ValueError):
            m.state_index("w2")
        assert not hasattr(m, "no_such_field")
