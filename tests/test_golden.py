"""Golden outputs: tableau results and ``condjust corpus``, byte for byte.

``golden/tableau.json`` holds about 300 ``jrc`` sequents drawn from the
``util_gen`` strategies, each with the SHA-256 digest of what ``prove``
returns for it at ``Budget(6, 500)`` and at ``Budget()``: the result type,
``steps``, ``Closed.tree``, ``Open.branch.text()`` and root state,
``Exhausted.report`` and the extracted model's JSON.  ``golden/falsifier.json``
holds about 300 more such sequents, each with the SHA-256 digest of the model
JSON and the witness state that ``find_countermodel`` returns at bound 3, or
null for none; it keeps only sequents whose vocabulary (atoms plus
implication, conditional and justification subformulas) has at most 3
members, so the search stays fast.  Those countermodels have one or two
states, so ``golden/falsifier.json`` says little about the bit layout of
larger ones: ``golden/falsifier_states.json`` holds deeper sequents drawn
as the ``crosscheck`` benchmark draws them, kept when their countermodel has
2 or 3 states, each with the same digest.  ``golden/conditions.json`` holds,
for each Kripke profile, relational models drawn by ``sample_models`` over a
formula universe and the same models with their term rows, relation
overrides and default scheme redrawn, each with its model JSON, its queries
and every ``(condition, passed, witness, detail)`` that ``check_conditions``
reports.  ``golden/corpus.txt`` and
``golden/corpus.json`` are the text and JSON output of ``condjust corpus``.
A change to the prover's, the falsifier's or the condition checks' data
structures must leave all
of them unchanged; a change to a rule or to the schedule rewrites them on
purpose with ``PYTHONPATH=src python tests/test_golden.py``, which redraws
every sequent, or ``PYTHONPATH=src python tests/test_golden.py tableau``,
which recomputes the digests of the sequents already in
``golden/tableau.json`` and writes no other file.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from condjust.cli import main
from condjust.falsifier import SearchSignature, find_countermodel, sample_models
from condjust.kripke_models import (
    KripkeModel, RelScheme, check_conditions, default_universe, load_model,
    model_to_json, profile_for,
)
from condjust.routley_models import routley_model_to_json
from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Just, MatImp,
    Neg, Pair, RelCf, RelImp, Sum, Variable, closure, formula_key, parse_formula,
    print_formula, print_term,
)
from condjust.tableau import Budget, Closed, Exhausted, Open, prove

GOLDEN = Path(__file__).parent / "golden"
BUDGETS = {"6/500": Budget(6, 500), "default": Budget()}
SEQUENTS = 300
# falsifier.json: sequents kept, the largest vocabulary kept, sequents drawn
FALSIFIER_SEQUENTS, FALSIFIER_VOCABULARY, FALSIFIER_DRAWN = 300, 3, 700
# falsifier_states.json: sequents kept per countermodel size, the largest
# vocabulary drawn, the draw's seed
STATE_CASES, STATE_VOCABULARY, STATE_SEED = {2: 60, 3: 40}, 7, "falsifier-states"
# conditions.json: the Kripke dialects, models sampled per dialect (each
# also kept perturbed), the draw's seed
CONDITION_DIALECTS = (Dialect.LPCplus, Dialect.LPCint, Dialect.LPCprime, Dialect.LPCKplus,
                      Dialect.J4Cplus, Dialect.JCplus, Dialect.L)
CONDITION_MODELS, CONDITION_SEED = 12, "conditions"


def result_digest(premises, goal, budget: Budget) -> str:
    r = prove(premises, goal, budget)
    if isinstance(r, Closed):
        doc = ["closed", r.steps, r.tree]
    elif isinstance(r, Open):
        doc = ["open", r.branch.text(), r.root_state, routley_model_to_json(r.extracted)]
    else:
        assert isinstance(r, Exhausted)
        doc = ["exhausted", r.report]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def countermodel_digest(premises, goal) -> tuple[str | None, str | None]:
    found = find_countermodel(premises, goal, Dialect.JRC, 3)
    if found is None:
        return None, None
    model, witness = found
    doc = json.dumps(routley_model_to_json(model), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest(), witness


def _vocabulary(premises, goal) -> int:
    sig = SearchSignature.for_sequent(premises, goal, Dialect.JRC, 3)
    return len(sig.atoms) + sum(isinstance(f, (RelImp, RelCf, Just)) for f in sig.universe)


def _parse(case):
    premises = tuple(parse_formula(t, Dialect.JRC) for t in case["premises"])
    return premises, parse_formula(case["goal"], Dialect.JRC)


def _tableau_cases():
    return json.loads((GOLDEN / "tableau.json").read_text())["cases"]


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_tableau_results_match_golden(budget):
    cases = _tableau_cases()
    assert len(cases) == SEQUENTS
    for case in cases:
        premises, goal = _parse(case)
        got = result_digest(premises, goal, BUDGETS[budget])
        assert got == case[budget], (case["premises"], case["goal"], budget)


def test_countermodels_match_golden():
    cases = json.loads((GOLDEN / "falsifier.json").read_text())["cases"]
    assert len(cases) == FALSIFIER_SEQUENTS
    for case in cases:
        premises, goal = _parse(case)
        got = countermodel_digest(premises, goal)
        assert got == (case["model"], case["witness"]), (case["premises"], case["goal"])


def test_multistate_countermodels_match_golden():
    cases = json.loads((GOLDEN / "falsifier_states.json").read_text())["cases"]
    assert Counter(case["states"] for case in cases) == STATE_CASES
    for case in cases:
        premises, goal = _parse(case)
        got = countermodel_digest(premises, goal)
        assert got == (case["model"], case["witness"]), (case["premises"], case["goal"])


_FORMULAS = (Atom, Neg, And, MatImp, Counterfactual, Just, Box)
_TERMS = (Constant, Variable, App, Sum, Bang, Pair)


def condition_results(m, dialect: Dialect, queries) -> list:
    """check_conditions over the default universe of the queries, each
    result as [condition, passed, witness, detail], formulas and terms of
    the witness printed."""
    report = check_conditions(m, profile_for(dialect), default_universe(m, queries))
    return [[r.condition, r.passed, None if r.witness is None else [
        print_formula(x) if isinstance(x, _FORMULAS) else
        print_term(x) if isinstance(x, _TERMS) else x for x in r.witness], r.detail]
        for r in report.results]


def test_condition_reports_match_golden():
    cases = json.loads((GOLDEN / "conditions.json").read_text())["cases"]
    assert len(cases) == 2 * CONDITION_MODELS * len(CONDITION_DIALECTS)
    for case in cases:
        m, dialect = load_model(case["model"])
        queries = [parse_formula(t, dialect) for t in case["queries"]]
        assert condition_results(m, dialect, queries) == case["results"], case["model"]


@pytest.mark.parametrize("fmt,name", [("text", "corpus.txt"), ("json", "corpus.json")])
def test_corpus_output_matches_golden(fmt, name, capsys):
    assert main(["corpus", "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _draw_sequents(count: int) -> list[tuple[list[str], str]]:
    """Distinct sequents of zero to two premises, drawn deterministically."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import strategies as st

    from condjust.syntax import print_formula
    from util_gen import ast_strategies

    _, formula = ast_strategies(Dialect.JRC)
    seen: dict[tuple, None] = {}

    @settings(derandomize=True, database=None, max_examples=20 * count,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(st.lists(formula, max_size=2), formula)
    def draw(premises, goal):
        if len(seen) < count:
            seen[(tuple(map(print_formula, premises)), print_formula(goal))] = None

    draw()
    return [(list(p), g) for p, g in seen]


def _state_cases() -> list[dict]:
    """Sequents drawn by the crosscheck benchmark's generator with a goal of
    depth 4 and up to two premises of depth 3, kept while STATE_CASES wants
    one whose countermodel at bound 3 has that many states."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    from gen import random_jrc_formula

    from condjust.syntax import print_formula

    rng = random.Random(STATE_SEED)
    left, cases = dict(STATE_CASES), []
    while any(left.values()):
        goal = random_jrc_formula(rng, 4)
        premises = [random_jrc_formula(rng, 3) for _ in range(rng.randrange(3))]
        if _vocabulary(premises, goal) > STATE_VOCABULARY:
            continue
        found = find_countermodel(premises, goal, Dialect.JRC, 3)
        size = len(found[0].states) if found else 0
        if left.get(size):
            left[size] -= 1
            case = {"premises": [print_formula(f) for f in premises],
                    "goal": print_formula(goal), "states": size}
            case["model"], case["witness"] = countermodel_digest(premises, goal)
            cases.append(case)
    return cases


def _write_states() -> None:
    doc = {"note": "find_countermodel(premises, goal, JRC, 3) per sequent, for "
                   "sequents whose countermodel has 2 or 3 states: SHA-256 of the "
                   "model JSON and the witness state",
           "cases": _state_cases()}
    (GOLDEN / "falsifier_states.json").write_text(json.dumps(doc, indent=1) + "\n")


def _random_formula(rng, dialect: Dialect, depth: int, terms):
    """A formula over p and q of at most the given depth, its justifications
    by the given terms; [] only in l."""
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice("pq"))
    kinds = ["~", "&", "=>", ">", ":", ":"] + ["[]"] * (dialect is Dialect.L)
    kind = rng.choice(kinds)
    sub = lambda: _random_formula(rng, dialect, depth - 1, terms)  # noqa: E731
    if kind == "~":
        return Neg(sub())
    if kind == "[]":
        return Box(sub())
    if kind == ":":
        return Just(rng.choice(terms), sub())
    return {"&": And, "=>": MatImp, ">": Counterfactual}[kind](sub(), sub())


def _condition_cases() -> list[dict]:
    """Per Kripke dialect: queries holding the shapes conditions 5, 5p and 8
    look for (t:(a > b), t:(a => b), t:a over small a and b), models that
    sample_models draws over them, then the same models with redrawn term
    rows, overrides and default scheme, which break the conditions."""
    rng = random.Random(CONDITION_SEED)
    x, y = Variable("x"), Variable("y")
    cases = []
    for d in CONDITION_DIALECTS:
        terms = [x, y, Constant("c"), App(x, y), App(y, x), Sum(x, y), Bang(x)]
        if d is Dialect.LPCint:
            terms += [Pair(x, Atom("p")), Pair(y, Neg(Atom("q")))]
        a, b = (_random_formula(rng, d, 1, terms) for _ in range(2))
        queries = [_random_formula(rng, d, 3, terms) for _ in range(2)]
        queries += [Just(x, Counterfactual(a, b)), Just(y, MatImp(a, b)), Just(y, a),
                     Just(App(x, y), b), Counterfactual(a, b), MatImp(a, b)]
        queries += [Just(t, b) for t in terms if isinstance(t, Pair)]
        sampled = sample_models(d, ("p", "q"), terms, CONDITION_MODELS, rng, universe=queries)
        pool = sorted(closure(queries), key=formula_key)
        for m in [*sampled, *(_perturbed(m, terms, pool, rng) for m in sampled)]:
            cases.append({"model": model_to_json(m, d),
                          "queries": [print_formula(f) for f in queries],
                          "results": condition_results(m, d, queries)})
    return cases


def _perturbed(m, terms, pool, rng) -> KripkeModel:
    """m with every term row, some formula relations and the default scheme
    redrawn at random."""
    states = m.states
    normal = [w for w in states if w in m.normal]
    term_rels = {t: {(v, u) for v in states for u in states if rng.random() < 0.4}
                 for t in terms}
    overrides = {f: {(v, u) for v in normal for u in normal if rng.random() < 0.5}
                 for f in pool if rng.random() < 0.3}
    return KripkeModel(states, m.normal, m.valuation, m.nonnormal_valuation, term_rels,
                       overrides, rng.choice(list(RelScheme)))


def _write_conditions() -> None:
    cases = _condition_cases()
    # one case per line: the model documents would take a line per pair
    body = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    note = json.dumps("check_conditions(model, profile, default_universe(model, "
                      "queries)) per case: [condition, passed, witness, detail]")
    (GOLDEN / "conditions.json").write_text(f'{{"note": {note}, "cases": [\n{body}\n]}}\n')


def _write_tableau(sequents) -> None:
    """Write golden/tableau.json: each (premises, goal) text pair with its
    result digest at each budget."""
    cases = []
    for premises_text, goal_text in sequents:
        case = {"premises": premises_text, "goal": goal_text}
        premises, goal = _parse(case)
        for name, budget in BUDGETS.items():
            case[name] = result_digest(premises, goal, budget)
        cases.append(case)
    doc = {"note": __doc__.split("\n\n")[0], "cases": cases}
    (GOLDEN / "tableau.json").write_text(json.dumps(doc, indent=1) + "\n")


def _write() -> None:
    """Redraw the sequents and rewrite every golden file from this checkout."""
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    _write_tableau(_draw_sequents(SEQUENTS))
    cases = []
    for premises_text, goal_text in _draw_sequents(FALSIFIER_DRAWN):
        case = {"premises": premises_text, "goal": goal_text}
        premises, goal = _parse(case)
        if _vocabulary(premises, goal) <= FALSIFIER_VOCABULARY:
            case["model"], case["witness"] = countermodel_digest(premises, goal)
            cases.append(case)
    assert len(cases) >= FALSIFIER_SEQUENTS, len(cases)
    doc = {"note": "find_countermodel(premises, goal, JRC, 3) per sequent: "
                   "SHA-256 of the model JSON and the witness state, or null",
           "cases": cases[:FALSIFIER_SEQUENTS]}
    (GOLDEN / "falsifier.json").write_text(json.dumps(doc, indent=1) + "\n")
    _write_states()
    _write_conditions()
    for fmt, name in (("text", "corpus.txt"), ("json", "corpus.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["corpus", "--format", fmt])
        (GOLDEN / name).write_text(out.getvalue())


if __name__ == "__main__":
    if sys.argv[1:] == ["tableau"]:
        _write_tableau((case["premises"], case["goal"]) for case in _tableau_cases())
    else:
        sys.path.insert(0, str(Path(__file__).parent))
        _write()
