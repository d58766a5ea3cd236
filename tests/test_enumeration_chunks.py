"""iter_kripke_models a chunk at a time: each model is linked to one wide
model of its chunk of codes, and check_conditions answers a model that fails
condition 1 or 2 from one block-wise test of the chunk.

A linked model must answer every question as the same model unlinked (a
pickle round trip drops the link), and a report the block test answers
must behave as the report the checks build.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from condjust.falsifier import SearchSignature, iter_kripke_models
from condjust.kripke_models import (
    AxiomaticallyAppropriate, ConditionReport, Explicit, KripkeModel, VariantProfile,
    check_conditions, profile_for, valid_in_model,
)
from condjust.syntax import Atom, Dialect, parse_formula
from test_falsifier import draw_small_search

LPC = Dialect.LPCplus
p = Atom("p")


def answered_by_block(report: ConditionReport) -> bool:
    """Whether the block test made the report: its results are not made yet."""
    return "results" not in vars(report)


def assert_linked_like_unlinked(m: KripkeModel, queries, cases) -> None:
    """m answers valid_in_model and check_conditions as its unlinked copy.
    cases are (profile, universe) pairs, asked in order of every model of
    a chunk; the block test answers a report exactly when condition 1 or 2
    fails."""
    plain = pickle.loads(pickle.dumps(m))
    assert m._sample is not None and plain._sample is None
    for f in queries:
        assert valid_in_model(m, f) == valid_in_model(plain, f), f
    for profile, universe in cases:
        got = check_conditions(m, profile, universe)
        block = answered_by_block(got)
        want = check_conditions(plain, profile, universe)
        assert got.ok == want.ok
        assert block == any(r.condition in ("1", "2") for r in want.failures())
        assert got.results == want.results
        for a, b in zip(got.failures(), want.failures(), strict=True):
            assert a.witness == b.witness and a.detail == b.detail


def cases_for(sig: SearchSignature, premises, goal):
    """The sequent as the search's universe, then its atoms alone (a closure
    with no override, asked of the same chunk after it), then a profile
    without condition 1."""
    profile = profile_for(sig.dialect)
    seq = [*premises, goal]
    return [(profile, seq), (profile, [Atom(a) for a in sig.atoms]),
            (VariantProfile("2 and 3", ("2", "3")), seq)]


def test_criterion_6_models_answer_as_unlinked():
    """Every model of the enumeration, with the sequent and the atoms as
    universes (the profile without condition 1 is left to the smaller
    signatures below)."""
    f = parse_formula("false > p", LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 3)
    cases = cases_for(sig, [], f)[:2]
    models = 0
    for m in iter_kripke_models(sig):
        assert_linked_like_unlinked(m, sig.universe, cases)
        models += 1
    assert models == 49_672


SMALL = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@SMALL
@given(data=st.data())
def test_drawn_signatures_answer_as_unlinked(data):
    drawn = draw_small_search(data)
    if drawn is None:
        return
    sig, premises, goal = drawn
    cases = cases_for(sig, premises, goal)
    for m in iter_kripke_models(sig):
        assert_linked_like_unlinked(m, sig.universe, cases)


@pytest.mark.parametrize("dialect,goal,bound", [
    (LPC, "(x+y):p > (p > q)", 1),
    (Dialect.LPCint, "<x,p>:q > (x.y):p", 1),
    (Dialect.LPCprime, "(x.y):p > (p > q)", 1),
    (Dialect.J4Cplus, "!x:p > (p > q)", 1),
    (Dialect.L, "[]p > (p > q)", 2),
    (Dialect.LPCKplus, "p > (q > p)", 2),
])
def test_term_and_override_signatures_answer_as_unlinked(dialect, goal, bound):
    """Sums, applications, checkers and pairs next to override rows, and
    at bound 2 layouts that span several chunks."""
    g = parse_formula(goal, dialect)
    sig = SearchSignature.for_sequent([], g, dialect, bound)
    assert sig.antecedents
    cases = cases_for(sig, [], g)
    for m in iter_kripke_models(sig):
        assert_linked_like_unlinked(m, sig.universe, cases)


def test_jrc_signature_is_refused():
    sig = SearchSignature.for_sequent([], parse_formula("p ~> q", Dialect.JRC),
                                      Dialect.JRC, 1)
    with pytest.raises(ValueError, match="dialect jrc has no Kripke profile"):
        next(iter_kripke_models(sig))


# --- a report the block test answers ----------------------------------------------


def block_answered(universe=None, cs=None):
    """A linked criterion-6 model that fails condition 1, its report made
    by the block test, and the same model unlinked."""
    f = parse_formula("false > p", LPC)
    for m in iter_kripke_models(SearchSignature.for_sequent([], f, LPC, 2)):
        if not valid_in_model(m, f):
            rep = check_conditions(m, profile_for(LPC), [f] if universe is None
                                   else universe(), cs)
            assert answered_by_block(rep) and not rep.ok
            return m, rep, pickle.loads(pickle.dumps(m))
    raise AssertionError("no refuting model")


def test_block_report_equals_the_eager_one():
    f = parse_formula("false > p", LPC)
    m, lazy, plain = block_answered()
    want = check_conditions(plain, profile_for(LPC), [f])
    assert not answered_by_block(want)
    assert lazy == want and repr(lazy) == repr(want) and hash(lazy) == hash(want)
    assert lazy.failures() == want.failures() and lazy.failures()[0].condition == "1"
    assert dataclasses.replace(lazy) == want


@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
])
def test_block_report_pickles_and_copies_without_its_model(clone):
    f = parse_formula("false > p", LPC)
    _, lazy, plain = block_answered()
    back = clone(lazy)
    assert vars(back).keys() == {"profile", "results", "approximation_note"}
    assert back == check_conditions(plain, profile_for(LPC), [f])
    assert not back.ok
    assert b"KripkeModel" not in pickle.dumps(lazy)


def test_a_generator_universe_is_read_once_on_both_paths():
    f = parse_formula("false > p", LPC)
    m, lazy, plain = block_answered(universe=lambda: (g for g in [f]))
    assert lazy == check_conditions(m, profile_for(LPC), [f])
    eager = check_conditions(plain, profile_for(LPC), (g for g in [f]))
    assert not answered_by_block(eager) and eager == lazy


def test_block_reports_follow_each_call_on_one_chunk():
    """The models of one chunk, asked in turn under alternating universes
    and profiles, some through a list universe changed after the call: each
    report, its results made only after every call, equals the report of
    the model's unlinked copy. No answer a chunk keeps for its last call
    carries over to a call it does not fit."""
    f = parse_formula("q > p", LPC)  # q may hold, so condition 2 may fail alone
    sig = SearchSignature.for_sequent([], f, LPC, 2)
    chunk = [m for m in iter_kripke_models(sig) if len(m.states) == len(m.normal) == 2]
    assert len({id(m._sample[0]) for m in chunk}) == 1 and len(chunk) > 8
    lpc, only_2 = profile_for(LPC), VariantProfile("2 alone", ("2",))
    # each case, asked of two models in a row, differs from the one before
    # in its profile or its universe
    cases = [(lpc, (f,)), (only_2, (f,)), (only_2, (f, p)), (lpc, (f, p))]
    asked, block = [], set()
    for i, m in enumerate(chunk):
        profile, universe = cases[i // 2 % len(cases)]
        listed = list(universe)
        got = check_conditions(m, profile, listed)
        if answered_by_block(got):
            block.add(i // 2 % len(cases))
        asked.append((m, profile, universe, got))
        listed[:] = [p]  # an atom alone: no override to fail condition 1 or 2
        if i % 3 == 2:
            again = check_conditions(m, profile, listed)
            assert not answered_by_block(again)
            asked.append((m, profile, (p,), again))
    assert block == set(range(len(cases)))
    for m, profile, universe, got in asked:
        want = check_conditions(pickle.loads(pickle.dumps(m)), profile, universe)
        assert answered_by_block(got) == any(r.condition in ("1", "2")
                                             for r in want.failures())
        assert got.ok == want.ok and got == want


def test_every_kind_of_universe_gets_the_unlinked_answer():
    """A chunk keeps its last universe as given to compare the next one
    with: a list's copy, else the frozen set. Universes of every kind, with
    equal or different members, asked in a row of one chunk's models, each
    get the report of the model's unlinked copy."""
    f = parse_formula("q > p", LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 2)
    chunk = [m for m in iter_kripke_models(sig) if len(m.states) == len(m.normal) == 2]
    kinds = [list, tuple, set, frozenset, lambda u: (g for g in u), dict.fromkeys]
    profile, block = profile_for(LPC), 0
    for i, m in enumerate(chunk):
        universe = (f,) if i % 4 < 3 else (f, p)
        got = check_conditions(m, profile, kinds[i % len(kinds)](universe))
        block += answered_by_block(got)
        assert got == check_conditions(pickle.loads(pickle.dumps(m)), profile, universe)
    assert block


def test_block_report_honours_the_constant_specification():
    """Condition 3 reads the specification's entries as they were at the
    call, whenever the results are made."""
    f = parse_formula("false > c1:p", LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 1)
    cs = AxiomaticallyAppropriate()
    assert cs.allocate(p) == "c1"
    at_call = Explicit((("c1", p),))
    profile = profile_for(LPC)
    failed_3 = 0
    for m in iter_kripke_models(sig):
        plain = pickle.loads(pickle.dumps(m))
        lazy = check_conditions(m, profile, [f, p], cs)
        if not answered_by_block(lazy):
            continue
        cs.allocations.clear()
        cs.allocate(f)  # c1 now justifies another formula
        want = check_conditions(plain, profile, [f, p], at_call)
        assert lazy.results == want.results
        failed_3 += "3" in {r.condition for r in want.failures()}
        cs.allocations.clear()
        cs.allocate(p)
    assert failed_3
