"""Golden outputs: tableau results and ``condjust corpus``, byte for byte.

``golden/tableau.json`` holds about 300 ``jrc`` sequents drawn from the
``util_gen`` strategies, each with the SHA-256 digest of what ``prove``
returns for it at ``Budget(6, 500)`` and at ``Budget()``: the result type,
``steps``, ``Closed.tree``, ``Open.branch.text()`` and root state,
``Exhausted.report`` and the extracted model's JSON.  ``golden/corpus.txt``
and ``golden/corpus.json`` are the text and JSON output of
``condjust corpus``.  A change to the prover's data structures must leave all
of them unchanged; a change to a rule or to the schedule rewrites them on
purpose with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from condjust.cli import main
from condjust.routley_models import routley_model_to_json
from condjust.syntax import Dialect, parse_formula
from condjust.tableau import Budget, Closed, Exhausted, Open, prove

GOLDEN = Path(__file__).parent / "golden"
BUDGETS = {"6/500": Budget(6, 500), "default": Budget()}
SEQUENTS = 300


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


def _write() -> None:
    """Redraw the sequents and rewrite every golden file from this checkout."""
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    cases = []
    for premises_text, goal_text in _draw_sequents(SEQUENTS):
        case = {"premises": premises_text, "goal": goal_text}
        premises, goal = _parse(case)
        for name, budget in BUDGETS.items():
            case[name] = result_digest(premises, goal, budget)
        cases.append(case)
    doc = {"note": __doc__.split("\n\n")[0], "cases": cases}
    (GOLDEN / "tableau.json").write_text(json.dumps(doc, indent=1) + "\n")
    for fmt, name in (("text", "corpus.txt"), ("json", "corpus.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["corpus", "--format", fmt])
        (GOLDEN / name).write_text(out.getvalue())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    _write()
