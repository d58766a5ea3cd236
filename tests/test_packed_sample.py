"""One evaluator per sample: valid_in_model on the models one sample_models
call returns answers as it does on each model alone.

The models of a sample are read as one wide model, each model in a block of
bits of one wide int, so one evaluator computes a formula's truth on all of
them at once. The tests below ask the sample's evaluator and the one-model
path the same questions, in either loop order, with and without literal
entries at non-normal states, and interleaved with the questions that keep
the one-model evaluator.
"""

import dataclasses
import random
import sys
import threading

import pytest

from condjust import kripke_models as km
from condjust.falsifier import sample_models
from condjust.kripke_models import (
    check_conditions, eval as kripke_eval, profile_for, truthset, valid_in_model,
)
from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Just, MatImp, Neg,
    Pair, RelCf, Sum, Variable, check_dialect_formula, formula_key, terms_of,
)

KRIPKE_DIALECTS = [Dialect.LPCplus, Dialect.LPCint, Dialect.LPCprime, Dialect.LPCKplus,
                   Dialect.J4Cplus, Dialect.JCplus, Dialect.L]
MODELS = 20


def random_term(rng, dialect, depth):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice([Variable("x"), Variable("y"), Constant("c")])
    kind = rng.choice([App, Sum, Bang, Pair] if dialect is Dialect.LPCint else [App, Sum, Bang])
    if kind is Bang:
        return Bang(random_term(rng, dialect, depth - 1))
    if kind is Pair:
        return Pair(random_term(rng, dialect, depth - 1), random_formula(rng, dialect, 1))
    return kind(random_term(rng, dialect, depth - 1), random_term(rng, dialect, depth - 1))


def random_formula(rng, dialect, depth):
    """A random formula of the dialect: most are no scheme instance, so
    their answers can be false."""
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice("pq"))
    kinds = [Neg, And, MatImp, Counterfactual, Just] + [Box] * (dialect is Dialect.L)
    kind = rng.choice(kinds)
    if kind is Neg or kind is Box:
        return kind(random_formula(rng, dialect, depth - 1))
    if kind is Just:
        return Just(random_term(rng, dialect, 2), random_formula(rng, dialect, depth - 1))
    return kind(random_formula(rng, dialect, depth - 1), random_formula(rng, dialect, depth - 1))


def sampled(dialect, seed, with_universe, count=24):
    """Formulas, the models of one sample, and an unlinked copy of each model.
    Only the first half of the formulas give the sample its terms, so some
    justified formulas name a term no model has a row for."""
    rng = random.Random(seed)
    formulas = [random_formula(rng, dialect, 4) for _ in range(count)]
    for f in formulas:
        check_dialect_formula(f, dialect)
    terms = {t for f in formulas[:count // 2] for t in terms_of(f)}
    universe = formulas if with_universe else ()
    models = sample_models(dialect, ["p", "q"], terms, MODELS, rng, universe=universe)
    alone = [dataclasses.replace(m) for m in models]
    assert all(m._sample is not None for m in models)
    assert all(m._sample is None for m in alone)
    return formulas, models, alone


def answers(models, formulas, model_major):
    if model_major:
        return [[valid_in_model(m, f) for f in formulas] for m in models]
    by_formula = [[valid_in_model(m, f) for m in models] for f in formulas]
    return [list(row) for row in zip(*by_formula)]


@pytest.mark.parametrize("model_major", [False, True], ids=["formula-major", "model-major"])
@pytest.mark.parametrize("with_universe", [False, True], ids=["no-universe", "universe"])
@pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
def test_packed_answers_as_each_model_alone(dialect, with_universe, model_major):
    seen = set()
    for seed in range(3):
        formulas, models, alone = sampled(dialect, seed, with_universe)
        want = answers(alone, formulas, model_major)
        got = answers(models, formulas, model_major)
        assert got == want
        seen |= {v for row in want for v in row}
        if with_universe:
            assert any(m._members for m in models)  # literal entries were drawn
    assert seen == {False, True}


@pytest.mark.parametrize("dialect", KRIPKE_DIALECTS, ids=lambda d: d.value)
def test_packed_answers_interleaved_with_one_model_questions(dialect):
    # check_conditions, eval and truthset keep the one-model evaluator; asked
    # between packed questions, neither cache may disturb the other.
    formulas, models, alone = sampled(dialect, 11, True)
    profile = profile_for(dialect)
    rng = random.Random(5)
    for _ in range(300):
        j, f = rng.randrange(MODELS), rng.choice(formulas)
        m, ref = models[j], alone[j]
        question = rng.choice(["valid", "conditions", "eval", "truthset"])
        if question == "valid":
            assert valid_in_model(m, f) == valid_in_model(ref, f)
        elif question == "conditions":
            universe = rng.sample(formulas, 3)
            assert (check_conditions(m, profile, universe).results
                    == check_conditions(ref, profile, universe).results)
        elif question == "eval":
            w = rng.choice(m.states)
            assert kripke_eval(m, w, f) == kripke_eval(ref, w, f)
        else:
            assert truthset(m, f) == truthset(ref, f)


def test_two_samples_in_turn_keep_their_own_answers():
    formulas, first, first_alone = sampled(Dialect.L, 1, True)
    _, second, second_alone = sampled(Dialect.L, 2, True)
    for f in formulas:
        for m, ref, n, ref_n in zip(first, first_alone, second, second_alone):
            assert valid_in_model(m, f) == valid_in_model(ref, f)
            assert valid_in_model(n, f) == valid_in_model(ref_n, f)


def test_many_formulas_model_major_walk_each_plan_once(monkeypatch):
    """A caller asking one sample about more than 4,096 distinct formulas,
    model by model, walks each formula's plan once for the whole sample:
    the sample's truth sets are kept while it is asked about."""
    rng = random.Random(8)
    formulas = set()
    while len(formulas) <= 4_100:
        formulas.add(random_formula(rng, Dialect.LPCplus, 5))
    formulas = sorted(formulas, key=formula_key)
    terms = {t for f in formulas[-50:] for t in terms_of(f)}
    models = sample_models(Dialect.LPCplus, ["p", "q"], terms, MODELS, rng)
    planned, walk = [], km._plan

    def plan(f):
        planned.append(f)
        return walk(f)

    monkeypatch.setattr(km, "_plan", plan)
    got = [[valid_in_model(m, f) for f in formulas] for m in models]
    assert len(planned) == len(set(planned)) <= len(formulas)
    monkeypatch.undo()
    alone = [dataclasses.replace(m) for m in models]
    assert got == [[valid_in_model(m, f) for f in formulas] for m in alone]


def test_foreign_formula_raises_as_on_one_model():
    _, models, alone = sampled(Dialect.LPCplus, 3, False)
    f = RelCf(Atom("p"), Atom("q"))
    with pytest.raises(ValueError) as packed:
        valid_in_model(models[0], f)
    with pytest.raises(ValueError) as single:
        valid_in_model(alone[0], f)
    assert str(packed.value) == str(single.value)


def test_threads_share_samples():
    """Four threads ask the models of two samples, so the slot swaps samples
    many times while others fill a sample's truth sets, at a very short
    switch interval; every answer is the model's own."""
    cases = [sampled(Dialect.L, seed, True, count=10) for seed in (21, 22)]
    wants = [[[valid_in_model(m, f) for f in formulas] for m in alone]
             for formulas, _, alone in cases]
    wrong, errors = [], []

    def ask(k):
        try:
            for n in range(60):
                (formulas, models, _), want = cases[(k + n) % 2], wants[(k + n) % 2]
                for j, m in enumerate(models):
                    if [valid_in_model(m, f) for f in formulas] != want[j]:
                        wrong.append((k, n, j))
        except Exception as exc:  # reported below, so a thread's failure fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not wrong
