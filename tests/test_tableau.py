"""Tableau prover tests: pinned traces, countermodel extraction, budgets."""

import json
import re
import sys
from importlib import resources
from pathlib import Path
from textwrap import dedent

import pytest

from condjust import tableau
from condjust.falsifier import find_countermodel
from condjust.routley_models import (
    check_jrc_conditions,
    eval_jrc,
    routley_model_to_json,
)
from condjust.syntax import Dialect, Neg, parse_formula
from condjust.tableau import (
    Branch,
    Budget,
    Closed,
    Exhausted,
    FormulaEdge,
    Label,
    Open,
    Signed,
    TermEdge,
    Ternary,
    extract_model,
    prove,
    verify_result,
)


def pf(text: str):
    return parse_formula(text, Dialect.JRC)


def fixture_json(name: str) -> dict:
    path = resources.files("condjust") / "fixtures" / f"{name}.json"
    return json.loads(path.read_text())


class TestNodeRendering:
    def test_label_str(self):
        assert str(Label(0)) == "0"
        assert str(Label(2, sharped=True)) == "2#"

    def test_label_bar_toggles_sharp(self):
        lab = Label(1)
        assert lab.bar() == Label(1, sharped=True)
        assert lab.bar().bar() == lab

    def test_signed_str(self):
        assert str(Signed(pf("p"), True, Label(1))) == "p, +1"
        assert str(Signed(pf("p ~> q"), False, Label(0))) == "p ~> q, -0"

    def test_edge_strs(self):
        assert str(FormulaEdge(Label(0), pf("s:p"), Label(1))) == "0 -[s:p]-> 1"
        edge = TermEdge(Label(1), pf("s:p").term, Label(2))
        assert str(edge) == "1 -[s]-> 2"
        assert str(Ternary(Label(0), Label(1), Label(1))) == "r 0 1 1"


class TestBudget:
    def test_defaults(self):
        b = Budget()
        assert b.max_fresh_labels == 8
        assert b.max_steps == 2000

    @pytest.mark.parametrize("labels,steps", [(0, 100), (4, 0), (-1, 10)])
    def test_rejects_nonpositive(self, labels, steps):
        with pytest.raises(ValueError):
            Budget(labels, steps)

    def test_prove_accepts_mapping(self):
        r = prove([], pf("p ~> p"), {"max_fresh_labels": 4, "max_steps": 50})
        assert isinstance(r, Closed)


class TestDialectGate:
    def test_rejects_material_conditional_formula(self):
        goal = parse_formula("p > q", Dialect.LPCplus)
        with pytest.raises(ValueError):
            prove([], goal)

    def test_rejects_bad_premise(self):
        bad = parse_formula("[]p", Dialect.L)
        with pytest.raises(ValueError):
            prove([bad], pf("p"))


class TestClosedSequents:
    def test_justified_sum_monotonicity_trace(self):
        r = prove([], pf("s:p ~> (s+t):p"))
        assert isinstance(r, Closed)
        assert r.steps <= 20
        expected = dedent("""\
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
        assert r.tree == expected

    def test_identity_conditional(self):
        r = prove([], pf("p ~> p"))
        assert isinstance(r, Closed)
        expected = dedent("""\
            1. p ~> p, -0  [goal]
            2. 0 -[p]-> 1  [F~>0 1]
            3. p, +1  [F~>0 1]
            4. p, -1  [F~>0 1]
            closed [3, 4]""")
        assert r.tree == expected

    def test_conditional_modus_ponens(self):
        r = prove([pf("p"), pf("p ~> q")], pf("q"))
        assert isinstance(r, Closed)
        expected = dedent("""\
            1. p, +0  [premise]
            2. p ~> q, +0  [premise]
            3. q, -0  [goal]
            4. r 0 0 0  [norm]
              5. p, -0  [cut]
              closed [1, 5]
              6. 0 -[p]-> 0  [cut]
              7. q, +0  [T~> 2 6]
              closed [3, 7]""")
        assert r.tree == expected

    def test_relevant_implication_identity(self):
        r = prove([], pf("p -> p"))
        assert isinstance(r, Closed)
        assert r.steps == 1
        assert r.tree.endswith("closed [3, 4]")

    def test_relevant_modus_ponens(self):
        r = prove([pf("p"), pf("p -> q")], pf("q"))
        assert isinstance(r, Closed)
        assert "[T-> 2 4]" in r.tree

    def test_closed_goals_share_an_atom(self):
        # premise-free relevant validities must connect antecedent and
        # consequent vocabularies
        from condjust.syntax import atoms

        for text in ["p ~> p", "s:p ~> (s+t):p", "p -> p", "(p & q) ~> p"]:
            r = prove([], pf(text))
            assert isinstance(r, Closed)
            goal = pf(text)
            assert atoms(goal.left) & atoms(goal.right)


class TestOpenSequents:
    PARADOXES = [
        "(p & ~p) ~> q",
        "q ~> (p | ~p)",
        "p ~> (q ~> p)",
        "~p ~> (p ~> q)",
    ]

    @pytest.mark.parametrize("text", PARADOXES)
    def test_paradoxes_of_strict_implication_fail(self, text):
        r = prove([], pf(text), Budget(6, 500))
        assert isinstance(r, Open)

    @pytest.mark.parametrize("text", PARADOXES)
    def test_extracted_model_verifies(self, text):
        goal = pf(text)
        r = prove([], goal, Budget(6, 500))
        assert verify_result(r, [], goal) is True

    @pytest.mark.parametrize("text", PARADOXES)
    def test_extracted_model_falsifies_goal_at_root(self, text):
        goal = pf(text)
        r = prove([], goal, Budget(6, 500))
        report = check_jrc_conditions(r.extracted, [goal])
        assert report.ok, report.results
        assert eval_jrc(r.extracted, r.root_state, goal) is False

    def test_counterpossible_extraction_matches_fixture(self):
        r = prove([], pf("(p & ~p) ~> q"), Budget(6, 500))
        assert routley_model_to_json(r.extracted) == fixture_json(
            "lemma_counterpossible"
        )

    def test_disjunction_extraction_matches_fixture(self):
        r = prove([], pf("q ~> (p | ~p)"), Budget(6, 500))
        assert routley_model_to_json(r.extracted) == fixture_json(
            "lemma_disjunction"
        )

    def test_negated_antecedent_model_uses_sharped_states(self):
        r = prove([], pf("~p ~> (p ~> q)"), Budget(6, 500))
        doc = routley_model_to_json(r.extracted)
        assert doc["states"] == ["w0", "w0s", "w1", "w1s", "w2", "w2s"]
        assert doc["star"] == {
            "w0": "w0s", "w0s": "w0",
            "w1": "w1s", "w1s": "w1",
            "w2": "w2s", "w2s": "w2",
        }

    def test_relevance_failure_for_arrow_weakening(self):
        goal = pf("q -> (p -> p)")
        r = prove([], goal, Budget(6, 500))
        assert isinstance(r, Open)
        assert verify_result(r, [], goal) is True

    def test_closed_proof_verifies_and_a_false_closed_does_not(self):
        premises, goal = [pf("p"), pf("p ~> q")], pf("q")
        r = prove(premises, goal)
        assert isinstance(r, Closed)
        assert verify_result(r, premises, goal) is True
        assert verify_result(Closed(None, 0), [], pf("p ~> q")) is False

    def test_open_branch_transcript_available(self):
        r = prove([], pf("(p & ~p) ~> q"), Budget(6, 500))
        text = r.branch.text()
        assert "[goal]" in text and "open" in text

    def test_verify_rejects_model_that_satisfies_goal(self):
        # an Open result only counts if its model genuinely falsifies
        # the sequent it was extracted for
        r = prove([], pf("(p & ~p) ~> q"), Budget(6, 500))
        assert verify_result(r, [], pf("p ~> p")) is False


class TestBudgetExhaustion:
    def test_fresh_label_starvation(self):
        r = prove([], pf("s:p ~> (s+t):p"), Budget(1, 500))
        assert isinstance(r, Exhausted)
        assert "fresh-label budget of 1" in r.report

    def test_step_starvation(self):
        r = prove([], pf("s:p ~> (s+t):p"), Budget(6, 1))
        assert isinstance(r, Exhausted)
        assert "step budget of 1" in r.report

    def test_blocked_instance_draws_no_label(self):
        # With one label left, F-> on p -> p at label 1 is refused its two
        # labels and must draw neither; the one left serves F~>0 on the cut
        # node q ~> p0, -0.  A prover that drew the labels one at a time
        # would spend it and stop after 7 instances.
        r = prove([], pf("(q ~> p0) ~> p -> p"), Budget(3, 500))
        assert r == Exhausted("fresh-label budget of 3 blocked a branch after 11 fired instances")

    def test_exhausted_verifies_vacuously(self):
        goal = pf("s:p ~> (s+t):p")
        r = prove([], goal, Budget(6, 1))
        assert verify_result(r, [], goal) is True


class _NeverSet:
    """Stands in for ``_Prover.cannot_close`` and always reads False, so no
    blocked branch is dropped: the search as it was before the skip.  What
    is written to it is kept as ``ended_blocked``, from which
    ``_unskipped_search`` gives the verdict that search gave."""

    def __get__(self, prover, owner=None):
        return False

    def __set__(self, prover, value):
        prover.__dict__["ended_blocked"] = prover.__dict__.get("ended_blocked") or value


def _unskipped_search(prover, root, search=tableau._Prover.search):
    out = search(prover, root)
    if out == tableau._CLOSED and prover.__dict__.get("ended_blocked"):
        return tableau._EXHAUSTED
    return out


_TRACE_LINE = re.compile(r"(\s*)(\d+)\. (.*)  \[(\S+)((?: \d+)*)\]")


def _renumbered(text: str) -> str:
    """The trace with each line number, and each citation of it, replaced
    by the line's place in the text."""
    place: dict[str, str] = {}
    rows = []
    for row in text.splitlines():
        m = _TRACE_LINE.fullmatch(row)
        if m is None:
            rows.append(row)
            continue
        indent, line, expr, rule, cites = m.groups()
        place[line] = str(len(place) + 1)
        rows.append(f"{indent}{place[line]}. {expr}  "
                    f"[{' '.join([rule, *(place[c] for c in cites.split())])}]")
    return "\n".join(rows)


def _differential_sequents():
    """The golden tableau sequents, then the fixed prove families of the
    proofs benchmark at seeds 41 and 7: (x op y) ~> p, and the right-nested
    ~> chains of depth 2 to 12."""
    golden = json.loads((Path(__file__).parent / "golden" / "tableau.json").read_text())
    out = [(tuple(map(pf, c["premises"])), pf(c["goal"])) for c in golden["cases"]]
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    families = 12 + len(workloads.PROOFS_CHAIN_DEPTHS)
    for seed in (41, 7):
        records = workloads.generate("proofs", seed)
        end = next(i for i, r in enumerate(records) if r[0] == "derivation")
        out += [((), pf(r[2])) for r in records[end - families:end]]
    return out


class TestBlockedBranchSkip:
    """Once a blocked branch ends without closing, the proof cannot close,
    and the prover searches no blocked branch further.  Against the search
    without the skip, a Closed result is unchanged, an Open one comes from
    the same branch, and an Exhausted one may become an Open that verifies."""

    @pytest.mark.parametrize("budget", [Budget(6, 500), Budget()], ids=str)
    def test_answers_match_the_unskipped_search(self, budget, monkeypatch):
        changed = []
        for premises, goal in _differential_sequents():
            got = prove(premises, goal, budget)
            with monkeypatch.context() as m:
                m.setattr(tableau._Prover, "cannot_close", _NeverSet(), raising=False)
                m.setattr(tableau._Prover, "search", _unskipped_search)
                was = prove(premises, goal, budget)
            case = (premises, goal)
            if isinstance(was, Closed) or isinstance(got, Closed):
                assert (type(got), got.tree, got.steps) == (type(was), was.tree, was.steps), case
            elif isinstance(was, Open):
                assert isinstance(got, Open), case
                assert got.root_state == was.root_state, case
                assert routley_model_to_json(got.extracted) == routley_model_to_json(
                    was.extracted), case
                assert _renumbered(got.branch.text()) == _renumbered(was.branch.text()), case
            elif isinstance(got, Open):
                assert verify_result(got, premises, goal), case
                assert find_countermodel(premises, goal, Dialect.JRC, 3) is not None, case
                changed.append(case)
            else:
                assert isinstance(got, Exhausted), case
        # the skip decides some sequents that the search without it does not
        assert changed

    def test_renumbering_keeps_citations(self):
        text = "3. p, -0  [goal]\n  7. q, +1  [F~>0 3]\nopen"
        assert _renumbered(text) == "1. p, -0  [goal]\n  2. q, +1  [F~>0 1]\nopen"

    def test_blocked_branch_that_closes_keeps_the_proof_closed(self):
        # F~>0 on q ~> q, -0 is refused its label, then the branch closes on
        # p; only a blocked branch that ends without closing stops the skip
        r = prove([pf("p")], pf("(q ~> q) | ~~p"), Budget(1, 500))
        assert isinstance(r, Closed)
        assert r.steps == 6
        assert r.tree.endswith("6. q ~> q, -0  [T~ 4]\n7. ~~p, -0  [T~ 5]\n"
                               "8. ~p, +0#  [F~ 7]\n9. p, -0  [T~ 8]\nclosed [1, 9]")

    # Without the skip, each of these spent its steps on blocked branches
    # from 6 or 8 fresh labels up, so a larger budget lost the verdict.
    @pytest.mark.parametrize("budget", [Budget(4, 2000), Budget(), Budget(12, 2000),
                                        Budget(16, 20000)], ids=str)
    @pytest.mark.parametrize("text", ["(~p -> ~p) ~> p", "(~p ~> p) ~> p",
                                      "(~p ~> ~p) ~> p"])
    def test_verdict_does_not_depend_on_the_budget(self, text, budget):
        r = prove([], pf(text), budget)
        assert isinstance(r, Open)
        assert verify_result(r, [], pf(text))

    def test_chain_past_the_labels_ends_early(self):
        # a depth-9 chain needs more fresh labels than the default budget
        # gives, and the first blocked branch to end stops the search
        r = prove([], pf("q ~> q ~> q ~> p ~> q ~> p ~> p ~> q ~> p"))
        assert isinstance(r, Exhausted)
        m = re.fullmatch(r"fresh-label budget of 8 blocked a branch after (\d+) fired instances",
                         r.report)
        assert m and int(m[1]) < 100


class TestDeterminism:
    @pytest.mark.parametrize("text", TestOpenSequents.PARADOXES)
    def test_repeat_runs_agree(self, text):
        a = prove([], pf(text), Budget(6, 500))
        b = prove([], pf(text), Budget(6, 500))
        assert routley_model_to_json(a.extracted) == routley_model_to_json(
            b.extracted
        )
        assert a.branch.text() == b.branch.text()

    def test_closed_trace_stable(self):
        a = prove([], pf("s:p ~> (s+t):p"))
        b = prove([], pf("s:p ~> (s+t):p"))
        assert a.tree == b.tree


class TestExtraction:
    def test_incomplete_branch_rejected(self):
        with pytest.raises(ValueError):
            extract_model(Branch())

    def test_root_state_is_normal(self):
        r = prove([], pf("(p & ~p) ~> q"), Budget(6, 500))
        assert r.root_state in r.extracted.normal


class TestDeepInput:
    def test_deep_negation_chain_gets_a_result(self):
        goal = pf("q")
        for _ in range(3_000):
            goal = Neg(goal)
        r = prove([], goal, Budget(8, 10_000))
        assert isinstance(r, Open)
        lines = r.branch.text().splitlines()
        assert lines[3_000] == "3001. q, -0  [T~ 3000]"
        assert lines[-1] == "open"


class TestOneShotPremises:
    # a generator of premises is read once, like a tuple of them
    def test_prove_reads_a_generator_once(self):
        p = pf("p")
        assert isinstance(prove([p], p), Closed)
        assert isinstance(prove((x for x in [p]), p), Closed)

    def test_verify_result_reads_a_generator_once(self):
        q = pf("q")
        r = prove([], q)
        assert isinstance(r, Open)
        assert not verify_result(r, [q], q)
        assert not verify_result(r, (x for x in [q]), q)
