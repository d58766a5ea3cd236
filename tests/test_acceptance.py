"""End-to-end acceptance run: one test per top-level guarantee.

Each test prints a single summary line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them. The checks cover the fixture truth
tables, frame-condition profiling, tableau proof and countermodel
extraction, agreement between the prover and the bounded enumerator,
variable sharing of proved conditionals, the counterpossible split between
the relational and Routley semantics, the derivation checker with
internalization, and semantic soundness of every axiom scheme on sampled
models.
"""

import random
import time
from textwrap import dedent

import pytest

from condjust.syntax import (
    And, App, Atom, Bang, Box, Counterfactual, Dialect, Just, MatImp, Neg,
    Pair, RelCf, RelImp, Sum, Variable, atoms, closure, parse_formula,
    term_key, subterms, terms_of,
)
from condjust.kripke_models import (
    AxiomaticallyAppropriate, check_conditions, default_universe, load_model,
    profile_for, valid_in_model,
)
from condjust.kripke_models import eval as kripke_eval
from condjust.routley_models import (
    check_jrc_conditions, eval_jrc, jrc_valid,
)
from condjust.tableau import Budget, Closed, Open, prove, verify_result
from condjust.falsifier import (
    SearchSignature, cross_check, find_countermodel, iter_kripke_models,
    sample_models,
)
from condjust.hilbert import (
    MP, axiom_schemes, check_derivation, derive_cc, internalize,
    load_constant_specification, parse_derivation,
)
from condjust.fixtures import fixture_json, fixture_text

from test_hilbert import _MUTATIONS, _mutate

LPC = Dialect.LPCplus
INT = Dialect.LPCint
JRC = Dialect.JRC


def _model(name):
    return load_model(fixture_json(name))


def _passline(n, label, elapsed):
    print(f"\ncriterion {n} ({label}): PASS [{elapsed:.2f}s]")


# --- criterion 1: fixture truth tables --------------------------------------

# (model, state or None for validity, formula, expected value)
_TRUTHS = [
    ("gettier.json", "w", "(p | q) & (c.x):(p | q)", True),
    ("gettier.json", "w", "~(p | q) > ~(c.x):(p | q)", False),
    ("gettier.json", None,
     "~((p | q) & (c.x):(p | q) & (~(p | q) > ~(c.x):(p | q))"
     " & ((p | q) > (c.x):(p | q)))", True),
    ("gettier.json", None, "false > p", True),
    ("mcginn.json", "w", "[]p", False),
    ("mcginn.json", "w", "~p > ~x:p", True),
    ("mcginn.json", "w", "p > x:p", True),
    ("mcginn.json", "w", "p & x:p & (~p > ~x:p) & (p > x:p)", True),
    ("aumann.json", None, "[]p", True),
    ("aumann.json", "w", "p > x:p", False),
    ("aumann.json", None, "false > p", True),
    ("aumann.json", None, "p > true", True),
    ("hyperint1.json", "w", "x:p", False),
    ("hyperint1.json", "w", "x:(p & p)", True),
    ("hyperint1.json", None, "p == (p & p)", True),
    ("hyperint1.json", None, "x:p == x:(p & p)", False),
    ("hyperint1.json", "v", "p & p", True),
    ("hyperint1.json", "v", "p", False),
    ("hyperint2.json", "w", "x:((p & p) > p)", True),
    ("hyperint2.json", "u", "x:((p & p) > p)", True),
    ("hyperint2.json", "w", "x:(p | ~p)", True),
    ("hyperint2.json", "u", "x:(p | ~p)", False),
    ("hyperint2.json", "w", "x:((p & p) > p) > x:(p | ~p)", False),
    ("hyperint2.json", None, "((p & p) > p) <=> (p | ~p)", True),
    ("rcea.json", None, "p == (p & p)", True),
    ("rcea.json", "w", "p > q", False),
    ("rcea.json", "w", "(p & p) > q", True),
    ("chisholm.json", "w", "p & x:p & (~p ~> ~x:p) & (p ~> x:p)", True),
    ("chisholm.json", None, "q ~> p", True),
    ("chisholm.json", None, "q -> p", True),
    ("chisholm.json", None, "p", False),
    ("lemma_counterpossible.json", "w0", "(p & ~p) ~> q", False),
    ("lemma_counterpossible.json", "w1", "p & ~p", True),
    ("lemma_disjunction.json", None, "q ~> (p | ~p)", False),
    ("lemma_disjunction.json", "w1", "p | ~p", False),
]


def test_criterion_1_fixture_truth_tables():
    t0 = time.perf_counter()
    models = {}
    for name, state, text, expected in _TRUTHS:
        if name not in models:
            models[name] = _model(name)
        m, dialect = models[name]
        f = parse_formula(text, dialect)
        if dialect is JRC:
            got = eval_jrc(m, state, f) if state else jrc_valid(m, f)
        else:
            got = kripke_eval(m, state, f, dialect) if state \
                else valid_in_model(m, f, dialect)
        assert got == expected, (name, state, text)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(1, f"{len(_TRUTHS)} fixture truth values", elapsed)


# --- criterion 2: frame-condition profiling ----------------------------------

_PROFILE_QUERIES = {
    "gettier.json": ["~((p | q) > (c.x):(p | q))", "p => (p | q)"],
    "mcginn.json": ["p > x:p", "~p > ~x:p", "[]p"],
    "aumann.json": ["[]p", "p > x:p"],
    "hyperint1.json": ["x:p == x:(p & p)"],
    "hyperint2.json": ["x:((p & p) > p) > x:(p | ~p)"],
    "rcea.json": ["p > q", "(p & p) > q"],
    "chisholm.json": ["p & x:p & (~p ~> ~x:p) & (p ~> x:p)", "q ~> p"],
    "lemma_counterpossible.json": ["(p & ~p) ~> q"],
    "lemma_disjunction.json": ["q ~> (p | ~p)"],
}


def _kripke_report(name, queries, dialect=None, cs=None):
    m, d = _model(name)
    d = dialect or d
    universe = default_universe(m, [parse_formula(s, d) for s in queries])
    return check_conditions(m, profile_for(d), universe, cs)


def test_criterion_2_condition_profiles():
    t0 = time.perf_counter()
    for name, queries in _PROFILE_QUERIES.items():
        m, dialect = _model(name)
        if dialect is JRC:
            universe = closure([parse_formula(s, dialect) for s in queries])
            report = check_jrc_conditions(m, universe)
        else:
            cs = None
            if name == "gettier.json":
                cs = load_constant_specification(
                    fixture_json("gettier_cs.json"), dialect)
            report = _kripke_report(name, queries, cs=cs)
        assert report.ok, (name, report.failures())

    # the stronger profiles isolate the intended violations, with witnesses
    rep = _kripke_report("rcea.json", _PROFILE_QUERIES["rcea.json"],
                         dialect=Dialect.LPCKplus)
    bad = [r for r in rep.results if not r.passed]
    assert [r.condition for r in bad] == ["9"]
    assert bad[0].witness == (parse_formula("p", LPC),
                              parse_formula("p & p", LPC))

    rep = _kripke_report("gettier.json", ["(c.x):(p | q)"], dialect=LPC)
    bad = [r for r in rep.results if not r.passed]
    assert [r.condition for r in bad] == ["6"]
    assert bad[0].witness == ("w", parse_formula("c:p", LPC).term)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(2, "fixture profiles and targeted violations", elapsed)


# --- criterion 3: tableau proof and extraction --------------------------------

_PARADOXES = [
    "(p & ~p) ~> q",
    "q ~> (p | ~p)",
    "p ~> (q ~> p)",
    "~p ~> (p ~> q)",
]


def test_criterion_3_tableau():
    t0 = time.perf_counter()
    jf = lambda s: parse_formula(s, JRC)

    r = prove([], jf("s:p ~> (s+t):p"))
    assert isinstance(r, Closed) and r.steps <= 20
    assert r.tree == dedent("""\
        1. s:p ~> (s+t):p, -0  [goal]
        2. 0 -[s:p]-> 1  [F~>0 1]
        3. s:p, +1  [F~>0 1]
        4. (s+t):p, -1  [F~>0 1]
        5. 1 -[s+t]-> 2  [F: 4]
        6. p, -2  [F: 4]
        7. 1 -[s]-> 2  [sum 5]
        8. 1 -[t]-> 2  [sum 5]
        9. p, +2  [T: 3 7]
        closed [6, 9]""")

    assert isinstance(prove([], jf("p ~> p")), Closed)
    assert isinstance(prove([jf("p"), jf("p ~> q")], jf("q")), Closed)

    for text in _PARADOXES:
        goal = jf(text)
        r = prove([], goal, Budget(6, 500))
        assert isinstance(r, Open), text
        assert check_jrc_conditions(r.extracted, closure({goal})).ok, text
        assert not eval_jrc(r.extracted, r.root_state, goal), text
        assert verify_result(r, [], goal), text

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passline(3, "closed traces and verified open extractions", elapsed)


# --- criteria 4 and 5: prover vs enumerator on a shared suite ----------------

_ATOMS = ("p", "q")
_VARS = (Variable("s"), Variable("t"))

_TEMPLATE_GOALS = [
    "p ~> p",
    "q ~> q",
    "(p & q) ~> p",
    "(p & q) ~> q",
    "(p & q) ~> (q & p)",
    "p ~> (p & p)",
    "(p & p) ~> p",
    "~(~p) ~> p",
    "p ~> ~(~p)",
    "s:p ~> (s+t):p",
    "t:q ~> (s+t):q",
    "s:(p & q) ~> s:p",
    "s:(p & q) ~> s:q",
    "(p & (q & p)) ~> (q & p)",
    "p -> p",
    "(p & q) -> p",
    "q ~> (p | ~p)",
    "(p & ~p) ~> q",
    "p ~> (q ~> p)",
    "~p ~> (p ~> q)",
]


def _random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.7:
        return rng.choice(_VARS)
    return Sum(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_formula(rng, depth):
    if depth <= 0:
        return Atom(rng.choice(_ATOMS))
    pick = rng.random()
    if pick < 0.22:
        return Atom(rng.choice(_ATOMS))
    if pick < 0.40:
        return Neg(_random_formula(rng, depth - 1))
    if pick < 0.56:
        return And(_random_formula(rng, depth - 1),
                   _random_formula(rng, depth - 1))
    if pick < 0.74:
        return RelCf(_random_formula(rng, depth - 1),
                     _random_formula(rng, depth - 1))
    if pick < 0.87:
        return RelImp(_random_formula(rng, depth - 1),
                      _random_formula(rng, depth - 1))
    return Just(_random_term(rng, 1), _random_formula(rng, depth - 1))


@pytest.fixture(scope="module")
def agreement_suite():
    rng = random.Random(1105)
    sequents = [((), parse_formula(s, JRC)) for s in _TEMPLATE_GOALS]
    while len(sequents) < 200:
        goal = _random_formula(rng, 3)
        premises = ((_random_formula(rng, 2),) if rng.random() < 0.3 else ())
        sequents.append((premises, goal))
    t0 = time.perf_counter()
    reports = [cross_check(list(ps), goal, Budget(6, 500), 3)
               for ps, goal in sequents]
    return sequents, reports, time.perf_counter() - t0


def test_criterion_4_oracle_agreement(agreement_suite):
    sequents, reports, elapsed = agreement_suite
    assert len(sequents) >= 200
    contradictions = [(seq, rep) for seq, rep in zip(sequents, reports)
                      if rep.contradiction]
    assert not contradictions, contradictions[:3]
    assert elapsed < 600.0
    verdicts = {v: sum(1 for r in reports if r.verdict == v)
                for v in {r.verdict for r in reports}}
    _passline(4, f"{len(sequents)} sequents, verdicts {verdicts}", elapsed)


def test_criterion_5_variable_sharing(agreement_suite):
    sequents, reports, _ = agreement_suite
    t0 = time.perf_counter()
    closed = violations = 0
    for (premises, goal), rep in zip(sequents, reports):
        if premises or not isinstance(goal, RelCf):
            continue
        if not isinstance(rep.proof, Closed):
            continue
        closed += 1
        if not (atoms(goal.left) & atoms(goal.right)):
            violations += 1
    assert closed >= 10
    assert violations == 0
    _passline(5, f"{closed} proved conditionals all share an atom",
              time.perf_counter() - t0)


# --- criterion 6: the counterpossible split -----------------------------------

def test_criterion_6_counterpossible_split():
    t0 = time.perf_counter()

    f = parse_formula("false > p", LPC)
    assert find_countermodel([], f, LPC, 3) is None
    profile = profile_for(LPC)
    sig = SearchSignature.for_sequent([], f, LPC, 3)
    invalid = 0
    passing_validator_seen = False
    for m in iter_kripke_models(sig):
        if valid_in_model(m, f):
            if not passing_validator_seen and check_conditions(m, profile, [f]).ok:
                passing_validator_seen = True
            continue
        invalid += 1
        assert not check_conditions(m, profile, [f]).ok
    assert invalid > 0 and passing_validator_seen

    goal = parse_formula("(p & ~p) ~> q", JRC)
    found = find_countermodel([], goal, JRC, 3)
    assert found is not None
    m, w = found
    assert check_jrc_conditions(m, closure({goal})).ok
    assert not eval_jrc(m, w, goal)

    _passline(6, f"vacuous at bound 3 ({invalid} refuting frames all "
                 "condition-violating) vs a relevant countermodel",
              time.perf_counter() - t0)


# --- criterion 7: derivation checking and internalization ---------------------

def _app_count(t):
    if isinstance(t, App):
        return 1 + _app_count(t.left) + _app_count(t.right)
    if isinstance(t, Sum):
        return _app_count(t.left) + _app_count(t.right)
    if isinstance(t, (Bang, Pair)):
        return _app_count(t.inner)
    return 0


def test_criterion_7_hilbert_kernel():
    t0 = time.perf_counter()

    cc = parse_derivation(fixture_text("lemma_cc.txt"), LPC)
    assert check_derivation(cc, LPC).ok
    assert cc.conclusion == parse_formula(
        "((p > q) & (p > r)) => (p > (q & r))", LPC)
    rck = parse_derivation(fixture_text("theorem_rck.txt"), LPC)
    res = check_derivation(rck, LPC)
    assert res.ok
    assert res.premises == (parse_formula("(q1 & q2) => r", LPC),)
    cs_gettier = load_constant_specification(fixture_json("gettier_cs.json"), LPC)
    gettier = parse_derivation(fixture_text("gettier_derivation.txt"), LPC)
    assert check_derivation(gettier, LPC, cs_gettier).ok

    assert len(_MUTATIONS) == 20
    for name, text, index, replacement, _ in _MUTATIONS:
        d = parse_derivation(_mutate(text, index, replacement), LPC)
        res = check_derivation(d, LPC, cs_gettier)
        assert not res.ok and res.error_line == index, name

    rng = random.Random(9)
    pool = [parse_formula(s, INT)
            for s in ("p", "q", "~p", "p & q", "p => q", "p > q")]
    for _ in range(10):
        d = derive_cc(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        assert check_derivation(d, INT).ok
        cs = AxiomaticallyAppropriate()
        term, out = internalize(d, cs)
        res = check_derivation(out, INT, cs)
        assert res.ok and not res.premises
        assert out.conclusion == Just(term, d.conclusion)
        mp_lines = sum(isinstance(l.justification, MP) for l in d.lines)
        assert mp_lines == _app_count(term)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passline(7, "fixtures, 20 rejected mutations, 10 internalized theorems",
              elapsed)


# --- criterion 8: semantic soundness of the axiom schemes ---------------------

_BASE_TERMS = (Variable("x"), Variable("y"))

_TAUTS = [
    lambda a, b, c: MatImp(a, MatImp(b, a)),
    lambda a, b, c: MatImp(And(a, b), a),
    lambda a, b, c: MatImp(And(a, b), b),
    lambda a, b, c: MatImp(a, MatImp(b, And(a, b))),
    lambda a, b, c: MatImp(MatImp(a, MatImp(b, c)),
                           MatImp(MatImp(a, b), MatImp(a, c))),
    lambda a, b, c: MatImp(MatImp(Neg(a), Neg(b)), MatImp(b, a)),
]


def _inst_formula(rng, dialect, depth):
    if depth <= 0:
        return Atom(rng.choice(_ATOMS))
    pick = rng.random()
    if pick < 0.25:
        return Atom(rng.choice(_ATOMS))
    if pick < 0.45:
        return Neg(_inst_formula(rng, dialect, depth - 1))
    if pick < 0.62:
        return And(_inst_formula(rng, dialect, depth - 1),
                   _inst_formula(rng, dialect, depth - 1))
    if pick < 0.76:
        return MatImp(_inst_formula(rng, dialect, depth - 1),
                      _inst_formula(rng, dialect, depth - 1))
    if pick < 0.88:
        return Counterfactual(_inst_formula(rng, dialect, depth - 1),
                              _inst_formula(rng, dialect, depth - 1))
    if dialect is Dialect.L and pick < 0.94:
        return Box(_inst_formula(rng, dialect, depth - 1))
    return Just(rng.choice(_BASE_TERMS), _inst_formula(rng, dialect, depth - 1))


def _scheme_instance(scheme, rng, dialect, pair_pool):
    f = lambda: _inst_formula(rng, dialect, 2)
    s, t = rng.choice(_BASE_TERMS), rng.choice(_BASE_TERMS)
    if scheme == "ax1":
        return rng.choice(_TAUTS)(f(), f(), f())
    if scheme == "ax2":
        a, b, c = f(), f(), f()
        return MatImp(Counterfactual(a, MatImp(b, c)),
                      MatImp(Counterfactual(a, b), Counterfactual(a, c)))
    if scheme == "ax3":
        a = f()
        return Counterfactual(a, a)
    if scheme == "ax4":
        a, b = f(), f()
        return MatImp(Counterfactual(a, b), MatImp(a, b))
    if scheme == "ax4p":
        a, b = f(), f()
        return Counterfactual(
            Just(s, Counterfactual(a, b)),
            Counterfactual(Just(t, a), Just(App(s, t), b)))
    if scheme == "ax5":
        a, b = f(), f()
        inner = Counterfactual(a, b) if rng.random() < 0.5 else MatImp(a, b)
        return Counterfactual(And(Just(s, inner), Just(t, a)),
                              Just(App(s, t), b))
    if scheme == "ax6":
        a = f()
        return Counterfactual(Just(s, a), Just(Sum(s, t), a))
    if scheme == "ax7":
        a = f()
        return Counterfactual(Just(t, a), Just(Sum(s, t), a))
    if scheme == "ax8":
        a = f()
        return Counterfactual(Just(t, a), a)
    if scheme == "ax9":
        a = f()
        return Counterfactual(Just(t, a), Just(Bang(t), Just(t, a)))
    if scheme == "ax10":
        a, b = rng.choice(pair_pool), f()
        return MatImp(Just(t, b), Just(Pair(t, a), Counterfactual(a, b)))
    if scheme == "axk":
        a, b = f(), f()
        return MatImp(Box(MatImp(a, b)), MatImp(Box(a), Box(b)))
    if scheme == "axt":
        a = f()
        return MatImp(Box(a), a)
    if scheme == "ax4s":
        a = f()
        return MatImp(Box(a), Box(Box(a)))
    if scheme == "ax5s":
        a = f()
        return MatImp(Neg(Box(a)), Box(Neg(Box(a))))
    raise AssertionError(f"no builder for scheme {scheme}")


def test_criterion_8_scheme_soundness():
    t0 = time.perf_counter()
    rng = random.Random(802)
    total_instances = 0
    for dialect in (LPC, INT, Dialect.LPCprime, Dialect.LPCKplus,
                    Dialect.J4Cplus, Dialect.JCplus, Dialect.L):
        # a small shared pool keeps the pair-term universe finite
        pair_pool = [_inst_formula(rng, dialect, 1) for _ in range(6)]
        instances = []
        for scheme in axiom_schemes(dialect):
            instances.extend(
                _scheme_instance(scheme, rng, dialect, pair_pool)
                for _ in range(100))
        terms = set()
        for inst in instances:
            for term in terms_of(inst):
                terms |= subterms(term)
        models = sample_models(dialect, _ATOMS,
                               sorted(terms, key=term_key), 20, rng)
        assert len(models) == 20
        cert_universe = closure(rng.sample(instances, 2))
        profile = profile_for(dialect)
        for m in models:
            assert len(m.states) <= 3
            assert check_conditions(m, profile, cert_universe).ok
        for inst in instances:
            for m in models:
                assert valid_in_model(m, inst), (dialect, inst)
        total_instances += len(instances)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passline(8, f"{total_instances} scheme instances valid on 20 sampled "
                 "models per dialect", elapsed)
