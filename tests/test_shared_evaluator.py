"""One evaluator per model, and condition text made only when read.

The evaluation functions and the condition checks of both families share
the evaluator of the last model they were asked about, so a caller that asks
several questions of one model computes each truth set once; the models of
a sample share the sample's evaluator. A failed condition's detail is
printed the first time it is read.
"""

import dataclasses
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from condjust import falsifier, kripke_models as km
from condjust.falsifier import (
    SearchSignature, find_countermodel, iter_kripke_models, sample_models,
)
from condjust.hilbert import axiom_schemes
from condjust.kripke_models import (
    ConditionReport, ConditionResult, KripkeModel, VariantProfile, _Evaluator,
    check_conditions, default_universe, profile_for, truthset, valid_in_model,
)
from condjust.routley_models import RoutleyModel, check_jrc_conditions
from condjust.syntax import (
    Atom, Dialect, Sum, Variable, closure, formula_key, parse_formula, print_formula,
    print_term, subterms, term_key, terms_of,
)
from condjust.tableau import Budget, Open, prove, verify_result
from test_acceptance import _ATOMS, _inst_formula, _scheme_instance
from test_kripke import ALL_CONDITIONS, _models
from test_routley import _models_and_universes

LPC, JRC = Dialect.LPCplus, Dialect.JRC
p, x, y = Atom("p"), Variable("x"), Variable("y")
EVERY_CONDITION = VariantProfile("every", ALL_CONDITIONS)


class _Slot(list):
    """The evaluator cache's slot, counting the evaluators put in it."""

    def __init__(self, counts):
        super().__init__([_Evaluator(None)])
        self.counts = counts

    def __setitem__(self, i, ev):
        self.counts["evaluators"] += ev.m is not None
        super().__setitem__(i, ev)


@pytest.fixture
def counts(monkeypatch):
    """Evaluators built (cached or not) and formulas and terms printed during
    the test, counted from an empty evaluator cache."""
    n = {"evaluators": 0, "prints": 0}

    class Counted(_Evaluator):
        __slots__ = ()

        def __init__(self, m):
            n["evaluators"] += 1
            super().__init__(m)

    def counted(printer):
        def call(node):
            n["prints"] += 1
            return printer(node)
        return call

    monkeypatch.setattr(km, "_Evaluator", Counted)
    monkeypatch.setattr(km, "print_formula", counted(print_formula))
    monkeypatch.setattr(km, "print_term", counted(print_term))
    monkeypatch.setattr(km, "_last", _Slot(n))
    return n


def report(m, universe):
    if isinstance(m, RoutleyModel):
        return check_jrc_conditions(m, universe)
    return check_conditions(m, EVERY_CONDITION, universe)


# --- one evaluator per model ---------------------------------------------------


def test_criterion_6_enumeration_builds_one_evaluator_per_chunk(counts, monkeypatch):
    """The loop of acceptance criterion 6 asks each model for its validity
    and, for a refuting model, its conditions. The models of a chunk of
    codes share one evaluator, a report the block test answers builds none,
    the others one each at most, and no text is made."""
    in_chunks = {"evaluators": 0}
    monkeypatch.setattr(km, "_last_sample", _Slot(in_chunks))
    full = []  # the models whose full report is built
    report_of = km._report

    def counted_report(*args):
        full.append(args[3])
        return report_of(*args)

    monkeypatch.setattr(km, "_report", counted_report)
    f = parse_formula("false > p", LPC)
    profile = profile_for(LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 3)
    refuting = 0
    passing_validator_seen = False
    last = None
    for m in iter_kripke_models(sig):
        if valid_in_model(m, f):
            if not passing_validator_seen and check_conditions(m, profile, [f]).ok:
                passing_validator_seen = True
            continue
        refuting += 1
        last = check_conditions(m, profile, [f])
        assert not last.ok
    assert refuting and passing_validator_seen
    chunks = sum(1 << lay.size - min(lay.size, falsifier._CHUNK_BITS)
                 for lay in falsifier._layouts(sig))
    assert in_chunks["evaluators"] == chunks
    # every refuting model fails condition 1, so only validators are checked
    assert all(valid_in_model(m, f) for m in full)
    assert counts["evaluators"] <= len({id(m) for m in full})
    assert counts["prints"] == 0
    for r in last.failures():
        before = counts["prints"]
        text = r.detail
        assert text and r.detail is text
        assert counts["prints"] - before <= 1


def test_criterion_6_enumeration_decodes_only_fully_checked_models(monkeypatch):
    """The loop of acceptance criterion 6 reads the masks of no model but
    those whose full condition report is built: validity comes from the
    chunk's wide model and a refuting model's report from its block test.
    Each such model is decoded once; the others stay walk models."""
    decoded, full = [], {}
    masks_of, report_of = falsifier._SlotLayout.masks, km._report

    def counted_masks(lay, code):
        decoded.append((lay.k, lay.n, code))
        return masks_of(lay, code)

    def counted_report(*args):
        full[id(args[3])] = args[3]
        return report_of(*args)

    monkeypatch.setattr(falsifier._SlotLayout, "masks", counted_masks)
    monkeypatch.setattr(km, "_report", counted_report)
    f = parse_formula("false > p", LPC)
    profile = profile_for(LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 3)
    models = undecoded = 0
    passing_validator_seen = False
    for m in iter_kripke_models(sig):
        if valid_in_model(m, f):
            if not passing_validator_seen and check_conditions(m, profile, [f]).ok:
                passing_validator_seen = True
        else:
            assert not check_conditions(m, profile, [f]).ok
        models += 1
        undecoded += isinstance(m, falsifier._WalkModel)
    assert models == 49_672 and passing_validator_seen
    assert full and len(decoded) == len(set(decoded)) == len(full)
    assert all(type(m) is KripkeModel for m in full.values())
    assert undecoded == models - len(full)


def test_verify_result_on_open_builds_one_evaluator(counts, monkeypatch):
    goal = parse_formula("p -> (q -> p)", JRC)
    r = prove([], goal, Budget(6, 500))
    assert isinstance(r, Open)
    monkeypatch.setattr(km, "_last", _Slot(counts))
    counts["evaluators"] = 0
    assert verify_result(r, [], goal)
    assert counts["evaluators"] == 1


@pytest.mark.parametrize("dialect,premises,goal", [
    (LPC, [], "p"),
    (LPC, ["p > q"], "q > p"),
    (Dialect.LPCint, [], "x:p > q"),
    (Dialect.LPCprime, [], "(x.y):q"),
    (Dialect.L, ["[]p"], "x:p"),
    (JRC, [], "p -> (q -> p)"),
    (JRC, ["p ~> q"], "x:p ~> q"),
])
def test_each_search_candidate_builds_one_evaluator(counts, monkeypatch, dialect,
                                                   premises, goal):
    """The Kripke search reads a candidate's counterexamples, then its
    conditions; the jrc search its conditions, then its counterexamples."""
    built = []
    owner, name = ((falsifier._RoutleySearch, "_verify") if dialect is JRC
                   else (falsifier._SlotLayout, "model"))
    original = getattr(owner, name)

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    found = find_countermodel([parse_formula(t, dialect) for t in premises],
                              parse_formula(goal, dialect), dialect, 3)
    assert found is not None
    assert counts["evaluators"] == len(built) > 0


def test_criterion_8_pass_builds_one_evaluator_per_sample(counts, monkeypatch):
    """Scheme soundness (criterion 8) asks every instance of every model of
    a 20-model sample. Instances first or models first, that builds one
    evaluator, the sample's, and none per model."""
    monkeypatch.setattr(km, "_last_sample", _Slot(counts))
    rng = random.Random(802)
    pair_pool = [_inst_formula(rng, Dialect.L, 1) for _ in range(6)]
    instances = [_scheme_instance(scheme, rng, Dialect.L, pair_pool)
                 for scheme in axiom_schemes(Dialect.L) for _ in range(20)]
    terms = {s for f in instances for t in terms_of(f) for s in subterms(t)}
    models = sample_models(Dialect.L, _ATOMS, sorted(terms, key=term_key), 20, rng)
    assert all(valid_in_model(m, f) for f in instances for m in models)
    assert all(valid_in_model(m, f) for m in models for f in instances)
    assert counts["evaluators"] == 1


@settings(deadline=None, max_examples=150)
@given(a=_models(), b=_models_and_universes(), data=st.data())
def test_interleaved_queries_answer_as_a_fresh_evaluator(a, b, data):
    """Truth sets and reports asked of a relational model A, a Routley model
    B, A again and a copy of A, in a drawn order, equal those of a fresh
    evaluator per call."""
    (ma, fa), (mb, fb) = a, b
    copy = dataclasses.replace(ma)
    cases = {"A": (ma, default_universe(ma, fa)), "B": (mb, fb),
             "copy": (copy, default_universe(copy, fa))}
    order = ["A", "B", "A", "copy", *data.draw(st.lists(st.sampled_from(sorted(cases))))]
    for name in order:
        m, universe = cases[name]
        pool = sorted(closure(universe), key=formula_key)
        for f in data.draw(st.lists(st.sampled_from(pool), max_size=3)):
            fresh = _Evaluator(m).mask(f)
            assert truthset(m, f) == {w for i, w in enumerate(m.states) if fresh >> i & 1}
        got = report(m, universe)
        km._last[0] = km._NO_MODEL
        assert got == report(m, universe)


def test_threads_get_their_own_models_answers():
    """Four threads, each asking about its own model, swap the cached evaluator
    at a very short switch interval; none reads another model's answer."""
    models = [KripkeModel(("w",), frozenset({"w"}), {"w": frozenset({"p"})} if i % 2 else {})
              for i in range(4)]
    wrong = []

    def ask(m, want):
        for _ in range(5_000):
            if valid_in_model(m, p) is not want or truthset(m, p) != ({"w"} if want else set()):
                wrong.append(m)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(m, i % 2 == 1))
                   for i, m in enumerate(models)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


# --- condition text only when read ---------------------------------------------


def failing_kripke() -> KripkeModel:
    """A model that fails conditions 1, 2, 4 and 6 over {p, q, (x+y):p}."""
    return KripkeModel(
        ("w0", "w1"), frozenset({"w0", "w1"}), {"w0": frozenset({"p"})},
        term_rels={Sum(x, y): {("w0", "w1")}, x: {("w0", "w0")}},
        formula_rel_overrides={p: {("w0", "w1")}})


def failing_routley() -> RoutleyModel:
    """A model that fails the star, normality and conditions 1 to 3."""
    return RoutleyModel(
        ("a", "b", "c"), frozenset({"a"}), {"a": "b", "b": "c", "c": "a"},
        frozenset({("a", "a", "b")}), {"a": frozenset({"p"})},
        term_rels={Sum(x, y): {("a", "b")}}, formula_rel_overrides={p: {("a", "b")}})


def kripke_case():
    return failing_kripke(), {p, Atom("q"), parse_formula("(x+y):p", LPC)}


def routley_case():
    return failing_routley(), {p, Atom("q"), parse_formula("(x+y):p", JRC)}


@pytest.mark.parametrize("case", [kripke_case, routley_case])
def test_failed_checks_print_nothing_until_read(counts, case):
    m, universe = case()
    rep = report(m, universe)
    assert len(rep.failures()) >= 4
    assert counts["prints"] == 0
    assert not rep.ok
    texts = [r.detail for r in rep.failures()]
    assert all(texts) and counts["prints"] > 0
    printed = counts["prints"]
    assert [r.detail for r in rep.failures()] == texts
    assert counts["prints"] == printed


def assert_like_eager(lazy: ConditionResult, want: ConditionResult) -> None:
    """lazy, whose detail is not read yet, behaves as the eagerly built want."""
    assert pickle.dumps(lazy) == pickle.dumps(want)
    back = pickle.loads(pickle.dumps(lazy))
    assert back == want and "_text" not in vars(back)
    assert lazy == want and repr(lazy) == repr(want) and hash(lazy) == hash(want)
    assert dataclasses.replace(lazy) == want
    assert dataclasses.asdict(lazy) == dataclasses.asdict(want)


def eager(rep: ConditionReport) -> tuple[ConditionResult, ...]:
    return tuple(ConditionResult(r.condition, r.passed, r.witness, r.detail)
                 for r in rep.results)


@pytest.mark.parametrize("case", [kripke_case, routley_case])
def test_lazy_results_behave_as_eager_ones(case):
    m, universe = case()
    want = eager(report(m, universe))
    for lazy, result in zip(report(m, universe).results, want):
        assert_like_eager(lazy, result)
    rep = report(m, universe)
    assert rep == ConditionReport(rep.profile, want)
    assert pickle.loads(pickle.dumps(rep)) == rep


@settings(deadline=None, max_examples=100)
@given(drawn=st.one_of(_models().map(lambda d: (d[0], default_universe(d[0], d[1]))),
                       _models_and_universes()))
def test_drawn_lazy_results_behave_as_eager_ones(drawn):
    m, universe = drawn
    want = eager(report(m, universe))
    rep = report(m, universe)
    for lazy, result in zip(rep.results, want):
        assert_like_eager(lazy, result)
    assert rep.ok == all(r.passed for r in want)


def test_hand_built_report_works_out_ok():
    passed, failed = ConditionResult("1", True), ConditionResult("2", False, ("w",), "text")
    assert ConditionReport("x", (passed, passed)).ok
    assert ConditionReport("x", ()).ok
    rep = ConditionReport("x", (passed, failed))
    assert not rep.ok and rep.failures() == (failed,)
    assert dataclasses.replace(rep, results=(passed,)).ok
