import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from condjust.cli import main, parse_sequent
from condjust.fixtures import fixture_json, fixture_text
from condjust.syntax import Dialect, ParseError, parse_formula


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_path(tmp_path, name):
    path = tmp_path / name
    path.write_text(json.dumps(fixture_json(name)), encoding="utf-8")
    return str(path)


def text_path(tmp_path, name):
    path = tmp_path / name
    path.write_text(fixture_text(name), encoding="utf-8")
    return str(path)


class TestParseSequent:
    def test_premises_and_goal(self):
        premises, goal = parse_sequent("p, p ~> q |- q", Dialect.JRC)
        assert premises == (parse_formula("p", Dialect.JRC),
                            parse_formula("p ~> q", Dialect.JRC))
        assert goal == parse_formula("q", Dialect.JRC)

    def test_bare_formula(self):
        premises, goal = parse_sequent("p ~> p", Dialect.JRC)
        assert premises == ()
        assert goal == parse_formula("p ~> p", Dialect.JRC)

    def test_empty_left_side(self):
        premises, goal = parse_sequent("|- q", Dialect.JRC)
        assert premises == ()
        assert goal == parse_formula("q", Dialect.JRC)

    def test_two_turnstiles_rejected(self):
        with pytest.raises(ParseError):
            parse_sequent("p |- q |- r", Dialect.JRC)


class TestParseCommand:
    def test_formula_roundtrip(self, capsys):
        code, out, _ = run(capsys, "parse", "--dialect", "l", "p > (q & p)")
        assert code == 0
        assert out.strip() == "p > q & p"

    def test_term(self, capsys):
        code, out, _ = run(capsys, "parse", "--dialect", "l", "--term", "(c.x)+y")
        assert code == 0
        assert out.strip() == "c.x+y"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "parse", "--dialect", "jrc", "--format", "json",
                           "p ~> q")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"dialect": "jrc", "kind": "formula",
                       "input": "p ~> q", "canonical": "p ~> q"}

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "--dialect", "l", "p >> q")
        assert code == 2
        assert "error:" in err

    def test_dialect_gate_applies(self, capsys):
        # box is not in the jrc slice of the grammar
        code, _, err = run(capsys, "parse", "--dialect", "jrc", "[]p")
        assert code == 2
        assert "box" in err

    def test_unknown_dialect_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--dialect", "k45", "p"])
        assert exc.value.code == 2

    def test_deep_negation_parses(self):
        # The parser keeps its own stacks, so depth is not bounded by the
        # interpreter's recursion limit.
        proc = subprocess.run(
            [sys.executable, "-m", "condjust.cli", "parse", "--dialect", "lpcplus",
             "~" * 3000 + "p"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "~" * 3000 + "p\n"
        assert proc.stderr == ""


class TestEvalCommand:
    def test_gettier_jtb_true(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--model",
                           model_path(tmp_path, "gettier.json"),
                           "--state", "w", "(p|q) & (c.x):(p|q)")
        assert code == 0
        assert out.strip() == "true"

    def test_negative_verdict_still_exits_0(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--model",
                           model_path(tmp_path, "gettier.json"),
                           "--state", "w", "~(p | q) > ~(c.x):(p | q)")
        assert code == 0
        assert out.strip() == "false"

    def test_valid_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--model",
                           model_path(tmp_path, "aumann.json"), "--valid", "[]p")
        assert code == 0
        assert out.strip() == "true"

    def test_routley_model_dispatch(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--model",
                           model_path(tmp_path, "chisholm.json"),
                           "--valid", "q ~> p")
        assert code == 0
        assert out.strip() == "true"

    def test_unknown_state_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--model",
                           model_path(tmp_path, "gettier.json"),
                           "--state", "nowhere", "p")
        assert code == 2
        assert "unknown state" in err

    def test_missing_model_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--model",
                           str(tmp_path / "absent.json"), "--state", "w", "p")
        assert code == 2
        assert "cannot read" in err

    def test_model_that_is_not_json_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", "--model", "lemma_cc.txt", "--state", "w", "p")
        assert (code, out) == (2, "")
        assert err == ("error: fixture lemma_cc.txt is not JSON:"
                       " Expecting value: line 1 column 1 (char 0)\n")
        path = tmp_path / "broken.json"
        path.write_text('{"states": [', encoding="utf-8")
        code, out, err = run(capsys, "eval", "--model", str(path), "--state", "w", "p")
        assert (code, out) == (2, "")
        assert err == (f"error: {path} is not valid JSON:"
                       " Expecting value: line 1 column 13 (char 12)\n")

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"states": ["w"], "valuation": []},
        {"dialect": "jrc", "states": ["w"], "star": []},
    ])
    def test_model_that_is_not_an_object_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "eval", "--model", str(path), "--state", "w", "p")
        assert code == 2
        assert err.startswith("error: bad model file") and "JSON object" in err

    @pytest.mark.parametrize("doc,message", [
        ({"states": ["w0"], "valuation": {"w0": "pq"}},
         "valuation['w0'] must be a JSON array of strings"),
        ({"states": "ab"}, "states must be a JSON array of strings"),
        ({"states": ["a", "b"], "normal": "a"}, "normal must be a JSON array of strings"),
        ({"states": ["a", "b"], "term_rels": {"x": ["ab"]}},
         "term_rels['x'] must be a JSON array of [state, state] pairs"),
        ({"states": ["a", "b"], "formula_rels": {"p": "ab"}},
         "formula_rels['p'] must be a JSON array of [state, state] pairs"),
        ({"dialect": "jrc", "states": ["a", "b"], "ternary": ["aaa", "abb", "bbb"]},
         "ternary must be a JSON array of [state, state, state] triples"),
        ({"states": ["a", "b"], "normal": ["a"], "nonnormal_valuation": {"b": "p"}},
         "nonnormal_valuation['b'] must be a JSON array of strings"),
        # arrays of the wrong shape, which would otherwise fail on unpacking
        ({"states": ["a", "b"], "term_rels": {"x": [["a"]]}},
         "term_rels['x'] must be a JSON array of [state, state] pairs"),
        ({"states": ["a", "b"], "formula_rels": {"p": [["a", "b", "a"]]}},
         "formula_rels['p'] must be a JSON array of [state, state] pairs"),
        ({"dialect": "jrc", "states": ["a", "b"], "term_rels": {"x": [["a"]]}},
         "term_rels['x'] must be a JSON array of [state, state] pairs"),
        ({"dialect": "jrc", "states": ["a", "b"], "ternary": [["a", "a"]]},
         "ternary must be a JSON array of [state, state, state] triples"),
        ({"states": ["a", "b"], "normal": ["a"], "nonnormal_valuation": {"b": ["p", 1]}},
         "nonnormal_valuation['b'] must be a JSON array of strings"),
        # entries that are not strings, which would otherwise name states
        # and atoms by numbers
        ({"dialect": "lpcplus", "states": ["a", 1], "normal": ["a"]},
         "states must be a JSON array of strings"),
        ({"states": ["a", "b"], "normal": ["a", 1]},
         "normal must be a JSON array of strings"),
        ({"states": ["a"], "valuation": {"a": [1]}},
         "valuation['a'] must be a JSON array of strings"),
    ], ids=["valuation", "states", "normal", "term_rels", "formula_rels",
            "ternary", "nonnormal_valuation", "short_pair", "long_pair",
            "short_jrc_pair", "short_triple", "nonstring_entry",
            "nonstring_state", "nonstring_normal", "nonstring_atom"])
    @pytest.mark.parametrize("command", ["eval", "check-model"])
    def test_string_where_an_array_belongs_exits_2(self, capsys, tmp_path, doc,
                                                   message, command):
        # a string would otherwise be read one character at a time
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["--state", doc["states"][0], "p"] if command == "eval" else []
        code, _, err = run(capsys, command, "--model", str(path), *args)
        assert code == 2
        assert err == f"error: bad model file {path}: {message}\n"

    @pytest.mark.parametrize("star, error", [
        ({"w9": "w0", "w0": "w1", "w1": "w0"}, "star entry 'w9': 'w0' names a state not in states"),
        ({"w0": "w9"}, "star entry 'w0': 'w9' names a state not in states"),
    ], ids=["key", "value"])
    @pytest.mark.parametrize("command", ["eval", "check-model"])
    def test_star_entry_naming_no_state_exits_2(self, capsys, tmp_path, star, error,
                                                command):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dialect": "jrc", "states": ["w0", "w1"],
                                    "star": star}), encoding="utf-8")
        args = ["--state", "w0", "p"] if command == "eval" else []
        code, out, err = run(capsys, command, "--model", str(path), *args)
        assert (code, out) == (2, "")
        assert err == f"error: bad model file {path}: {error}\n"

    def test_bare_fixture_name_resolves(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "gettier.json",
                           "--state", "w", "(p|q) & (c.x):(p|q)")
        assert code == 0
        assert out.strip() == "true"

    def test_json_payload(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--model",
                           model_path(tmp_path, "gettier.json"),
                           "--state", "w", "--format", "json", "p | q")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] is True
        assert doc["state"] == "w"
        assert doc["formula"] == "~(~p & ~q)"


class TestCheckModelCommand:
    def test_gettier_passes_with_cs(self, capsys, tmp_path):
        cs = tmp_path / "cs.json"
        cs.write_text(json.dumps(fixture_json("gettier_cs.json")), encoding="utf-8")
        code, out, _ = run(capsys, "check-model",
                           "--model", model_path(tmp_path, "gettier.json"),
                           "--cs", str(cs), "p => (p | q)")
        assert code == 0
        assert "result: ok" in out
        assert "FAIL" not in out

    def test_profile_override_reports_failure(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-model",
                           "--model", model_path(tmp_path, "gettier.json"),
                           "--profile", "lpcplus", "(c.x):(p | q)")
        assert code == 0
        assert "condition 6: FAIL" in out
        assert "witness w, c" in out
        assert "result: conditions failed" in out

    def test_routley_conditions(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-model",
                           "--model", model_path(tmp_path, "chisholm.json"),
                           "q ~> p")
        assert code == 0
        assert "result: ok" in out

    def test_cs_rejected_for_routley(self, capsys, tmp_path):
        cs = tmp_path / "cs.json"
        cs.write_text("[]", encoding="utf-8")
        code, _, err = run(capsys, "check-model",
                           "--model", model_path(tmp_path, "chisholm.json"),
                           "--cs", str(cs))
        assert code == 2
        assert "jrc" in err

    def test_jrc_profile_rejected_for_kripke(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-model",
                           "--model", model_path(tmp_path, "gettier.json"),
                           "--profile", "jrc")
        assert code == 2

    def test_json_payload(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-model", "--format", "json",
                           "--model", model_path(tmp_path, "rcea.json"),
                           "--profile", "lpckplus", "p > q", "(p & p) > q")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is False
        failed = [r for r in doc["results"] if not r["passed"]]
        assert [r["condition"] for r in failed] == ["9"]
        assert failed[0]["witness"] == ["p", "p & p"]


class TestProveCommand:
    def test_closed_with_trace(self, capsys):
        code, out, _ = run(capsys, "prove", "s:p ~> (s+t):p")
        assert code == 0
        assert out.startswith("CLOSED in ")
        assert "[goal]" in out
        assert "closed" in out

    def test_open_prints_countermodel(self, capsys):
        code, out, _ = run(capsys, "prove", "(p & ~p) ~> q")
        assert code == 0
        assert out.startswith("OPEN")
        assert '"dialect": "jrc"' in out

    def test_open_json_is_verified(self, capsys):
        code, out, _ = run(capsys, "prove", "--format", "json", "q ~> (p | ~p)")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "open"
        assert doc["verified"] is True
        assert doc["model"]["dialect"] == "jrc"

    def test_premises(self, capsys):
        code, out, _ = run(capsys, "prove", "p, p ~> q |- q")
        assert code == 0
        assert out.startswith("CLOSED")

    def test_exhausted_exits_3(self, capsys):
        code, out, _ = run(capsys, "prove", "--budget-steps", "1",
                           "s:p ~> (s+t):p")
        assert code == 3
        assert out.startswith("EXHAUSTED")

    def test_bad_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "prove", "--budget-steps", "0", "p ~> p")
        assert code == 2
        assert "budget" in err


class TestFalsifyCommand:
    def test_finds_kripke_countermodel(self, capsys):
        code, out, _ = run(capsys, "falsify", "--dialect", "jcplus",
                           "--bound", "2", "x:p > p")
        assert code == 0
        assert "countermodel falsifies the sequent at state" in out

    def test_reports_absence(self, capsys):
        code, out, _ = run(capsys, "falsify", "--dialect", "l", "false > p")
        assert code == 0
        assert out.strip() == "no countermodel within 3 states"

    def test_jrc_counterpossible(self, capsys):
        code, out, _ = run(capsys, "falsify", "--dialect", "jrc",
                           "--format", "json", "(p & ~p) ~> q")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["model"]["dialect"] == "jrc"

    def test_bad_bound_exits_2(self, capsys):
        code, _, err = run(capsys, "falsify", "--dialect", "l",
                           "--bound", "0", "p > p")
        assert code == 2
        assert "bound" in err

    def test_deep_negation_gets_a_verdict(self):
        # Hashing used to recurse through the tree and overflow at this depth.
        proc = subprocess.run(
            [sys.executable, "-m", "condjust.cli", "falsify", "--dialect", "lpcplus",
             "~" * 500 + "p"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "countermodel falsifies the sequent at state" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_bound_four_walk_finishes(self, capsys):
        # 18.4M models at bound 4; the search rejects them in bit-sliced blocks
        code, out, _ = run(capsys, "falsify", "--dialect", "lpcplus",
                           "--bound", "4", "false > p")
        assert code == 0
        assert out.strip() == "no countermodel within 4 states"

    def test_jrc_bound_four_walk_finishes(self, capsys):
        # the jrc search rejects its codes in bit-sliced blocks too
        code, out, _ = run(capsys, "falsify", "--dialect", "jrc",
                           "--bound", "4", "s:(p & q) ~> s:p")
        assert code == 0
        assert out.strip() == "no countermodel within 4 states"


class TestCheckProofCommand:
    def test_cc_lemma_ok(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           text_path(tmp_path, "lemma_cc.txt"))
        assert code == 0
        assert out.splitlines()[0] == "OK"
        assert "conclusion: (p > q) & (p > r) => p > q & r" in out

    def test_premises_listed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           text_path(tmp_path, "theorem_rck.txt"))
        assert code == 0
        assert "premises: q1 & q2 => r" in out

    def test_cs_fixture(self, capsys, tmp_path):
        cs = tmp_path / "cs.json"
        cs.write_text(json.dumps(fixture_json("gettier_cs.json")), encoding="utf-8")
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           "--cs", str(cs),
                           text_path(tmp_path, "gettier_derivation.txt"))
        assert code == 0
        assert out.splitlines()[0] == "OK"

    def test_bare_fixture_names_resolve(self, capsys):
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           "--cs", "gettier_cs.json", "gettier_derivation.txt")
        assert code == 0
        assert out.splitlines()[0] == "OK"

    def test_missing_cs_is_a_verdict_not_an_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           text_path(tmp_path, "gettier_derivation.txt"))
        assert code == 0
        assert out.startswith("REJECTED line ")

    def test_mutated_line_rejected(self, capsys, tmp_path):
        text = fixture_text("lemma_cc.txt").replace(
            "10. (p > q) & (p > r) => p > q & r ; mp 8 9",
            "10. (p > q) & (p > r) => p > r & q ; mp 8 9")
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus", str(bad))
        assert code == 0
        assert out.startswith("REJECTED line 10")

    def test_json_payload(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-proof", "--dialect", "lpcplus",
                           "--format", "json",
                           text_path(tmp_path, "lemma_cc.txt"))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["premises"] == []
        assert doc["error_line"] is None

    def test_dialect_without_axioms_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "hyp.txt"
        path.write_text("1. p ; hyp\n", encoding="utf-8")
        code, out, err = run(capsys, "check-proof", "--dialect", "jrc", str(path))
        assert (code, out) == (2, "")
        assert err == "error: dialect jrc has no Hilbert axiomatization\n"


class TestInternalizeCommand:
    def test_cc_lemma(self, capsys, tmp_path):
        code, out, _ = run(capsys, "internalize", "--dialect", "lpcplus",
                           text_path(tmp_path, "lemma_cc.txt"))
        assert code == 0
        assert out.startswith("term: ")
        assert "justifies" in out

    def test_json_has_constants(self, capsys, tmp_path):
        code, out, _ = run(capsys, "internalize", "--dialect", "lpcplus",
                           "--format", "json",
                           text_path(tmp_path, "lemma_cc.txt"))
        assert code == 0
        doc = json.loads(out)
        assert doc["constants"]
        assert doc["term"].startswith("c")
        assert "1." in doc["derivation"]

    def test_premises_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "internalize", "--dialect", "lpcplus",
                           text_path(tmp_path, "theorem_rck.txt"))
        assert code == 2
        assert "premise-free" in err

    @pytest.mark.parametrize("dialect, text, error", [
        ("jrc", "1. p ; hyp", "dialect jrc has no Hilbert axiomatization"),
        # each checks in its own dialect, but internalization reads lpcint
        ("l", "1. [](p => p) => (p => p) ; axt",
         "derivation does not check at line 1: box is not in dialect lpcint"),
        ("lpcprime", "1. x:(p > q) > (y:p > (x.y):q) ; ax4p",
         "derivation does not check at line 1: scheme ax4p is not available in lpcint"),
        ("lpckplus", "1. p == p ; ax1\n2. (p > q) == (p > q) ; rcea 1",
         "derivation does not check at line 2: rcea is not a rule of lpcint"),
    ], ids=["jrc", "l", "lpcprime", "lpckplus"])
    def test_derivation_outside_lpcint_is_an_input_error(self, capsys, tmp_path,
                                                         dialect, text, error):
        path = tmp_path / "d.txt"
        path.write_text(text + "\n", encoding="utf-8")
        code, out, err = run(capsys, "internalize", "--dialect", dialect, str(path))
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestCorpusCommand:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert ", 0 failed" in out
        assert "FAIL" not in out

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "corpus", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert doc["passed"] == len(doc["cases"])
        assert all(c["note"] for c in doc["cases"])

    def test_failing_case_exits_1(self, capsys, tmp_path):
        model_path(tmp_path, "gettier.json")
        cases = tmp_path / "cases.json"
        cases.write_text(json.dumps({"cases": [
            {"name": "wrong", "note": "deliberately wrong expectation",
             "check": "eval", "model": "gettier.json", "state": "w",
             "formula": "p | q", "expect": False},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "corpus", "--cases", str(cases))
        assert code == 1
        assert "FAIL  wrong" in out
        assert "expected false, got true" in out

    def test_every_failure_message(self, capsys, tmp_path):
        # Not named cases.json: that bare name is the bundled corpus.
        cases = tmp_path / "failing.json"
        (tmp_path / "bad.txt").write_text("1. p => q ; ax1\n", encoding="utf-8")
        gettier_6 = {"check": "conditions", "model": "gettier.json",
                     "profile": "lpcplus", "formulas": ["(c.x):(p | q)"]}
        cases.write_text(json.dumps({"cases": [
            {"name": "eval", "check": "eval", "model": "gettier.json", "state": "w",
             "formula": "p | q", "expect": False},
            {"name": "valid", "note": "counterpossibles are vacuously true",
             "check": "valid", "model": "gettier.json", "formula": "false > p",
             "expect": False},
            {"name": "conditions-ok", **gettier_6, "expect_ok": True},
            {"name": "conditions-failed", **gettier_6, "expect_ok": False,
             "failed": ["5", "6"]},
            {"name": "derivation-rejected", "check": "derivation", "file": "bad.txt",
             "dialect": "lpcplus"},
            {"name": "derivation-premises", "check": "derivation",
             "file": "theorem_rck.txt", "dialect": "lpcplus", "premises": []},
            {"name": "derivation-conclusion", "check": "derivation",
             "file": "lemma_cc.txt", "dialect": "lpcplus", "conclusion": "p"},
            {"name": "prove-closed", "check": "prove", "sequent": "p ~> q",
             "expect": "closed"},
            {"name": "prove-steps", "check": "prove", "sequent": "p, p ~> q |- q",
             "expect": "closed", "max_steps": 0},
            {"name": "prove-open", "check": "prove", "sequent": "p ~> p", "expect": "open"},
        ]}), encoding="utf-8")
        code, out, err = run(capsys, "corpus", "--cases", str(cases))
        assert (code, err) == (1, "")
        assert out == "\n".join([
            "FAIL  eval: expected false, got true",
            "FAIL  valid  (counterpossibles are vacuously true): expected false, got true",
            "FAIL  conditions-ok: expected ok=True, failing conditions: 6",
            "FAIL  conditions-failed: expected failures ['5', '6'], got ['6']",
            "FAIL  derivation-rejected: rejected at line 1: not an instance of ax1",
            "FAIL  derivation-premises: premises differ: got q1 & q2 => r",
            "FAIL  derivation-conclusion: conclusion differs: got (p > q) & (p > r) => p > q & r",
            "FAIL  prove-closed: expected closed, got open",
            "FAIL  prove-steps: closed in 3 steps, limit 0",
            "FAIL  prove-open: expected open, got closed",
            "0 passed, 10 failed",
            ""])

    def test_unknown_kind_exits_2(self, capsys, tmp_path):
        cases = tmp_path / "cases.json"
        cases.write_text(json.dumps({"cases": [
            {"name": "odd", "check": "guess"},
        ]}), encoding="utf-8")
        code, _, err = run(capsys, "corpus", "--cases", str(cases))
        assert code == 2
        assert "unknown check kind" in err

    def test_too_deep_exits_2(self, tmp_path):
        # json.load still recurses once per nesting level of a document.
        cases = tmp_path / "cases.json"
        cases.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "condjust.cli", "corpus", "--cases", str(cases)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: input nested too deeply\n"
        assert proc.stdout == ""

    def test_case_errors_count_as_failures(self, capsys, tmp_path):
        cases = tmp_path / "cases.json"
        cases.write_text(json.dumps({"cases": [
            {"name": "unparseable", "note": "bad formula text",
             "check": "prove", "sequent": "p ~>", "expect": "closed"},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "corpus", "--cases", str(cases))
        assert code == 1
        assert "case error" in out


@pytest.mark.parametrize("case, code", [
    ({"name": "kind", "check": ["x"]}, 2),
    ({"name": "sequent", "check": "prove", "sequent": 5, "expect": "closed"}, 1),
    ({"name": "formulas", "check": "conditions", "model": "gettier.json",
      "formulas": "x:p", "expect_ok": True}, 1),
])
def test_corpus_case_of_the_wrong_shape_exits_cleanly(capsys, tmp_path, case, code):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    got, out, err = run(capsys, "corpus", "--cases", str(cases))
    assert got == code
    if code == 2:
        assert out == "" and "unknown check kind ['x']" in err
    else:
        assert "case error: " in out and "must be" in out


def test_corpus_failed_and_premises_must_be_arrays(capsys, tmp_path):
    # A string would be read one character at a time: "6" as ["6"], "p" as
    # the one premise p.
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps({"cases": [
        {"name": "failed", "check": "conditions", "model": "gettier.json",
         "profile": "lpcplus", "formulas": ["(c.x):(p | q)"], "expect_ok": False,
         "failed": "6"},
        {"name": "premises", "check": "derivation", "file": "lemma_cc.txt",
         "dialect": "lpcplus", "premises": "p"},
    ]}), encoding="utf-8")
    code, out, _ = run(capsys, "corpus", "--cases", str(cases))
    assert code == 1
    assert "FAIL  failed: case error: failed must be a JSON array\n" in out
    assert "FAIL  premises: case error: premises must be a JSON array\n" in out


@pytest.mark.parametrize("doc", [[1], {"cases": 3}, {"cases": [1]}, {}])
def test_corpus_that_is_not_a_list_of_objects_exits_2(capsys, tmp_path, doc):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "corpus", "--cases", str(cases))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "list of objects" in err


def _exit_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    # Only text the console can write: stdout and stderr are strict UTF-8.
    return code, (out.getvalue() + err.getvalue()).encode("utf-8")


# Prefix chains, conjunction and conditional chains and redundant
# parentheses, each repeated up to 1,000 times around the text so far. Deep
# term chains are left out: each `!` level adds slots to the countermodel
# search at any bound.
_WRAPS = {
    "~": lambda text, n: "~" * n + text,
    "x:": lambda text, n: "x:" * n + text,
    "&": lambda text, n: " & ".join([text] + ["q"] * n),
    ">": lambda text, n: "q > " * n + text,
    "()": lambda text, n: "(" * n + text + ")" * n,
}


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=40), command=st.sampled_from(["parse", "falsify"]),
       dialect=st.sampled_from([d.value for d in Dialect]))
def test_random_bytes_exit_cleanly(data, command, dialect):
    # argv reaches the program decoded as the console decodes it.
    code, output = _exit_and_output(
        [command, "--dialect", dialect, "--", os.fsdecode(data)])
    assert code in (0, 2, 3)
    assert b"Traceback" not in output


@settings(max_examples=15, deadline=None)
@given(wraps=st.lists(st.tuples(st.sampled_from(sorted(_WRAPS)), st.integers(1, 1_000)),
                      min_size=1, max_size=3),
       command=st.sampled_from(["parse", "falsify"]))
def test_deep_trees_exit_cleanly(wraps, command):
    text = "p"
    for wrap, n in wraps:
        text = _WRAPS[wrap](text, n)
    argv = [command, "--dialect", "lpcplus", text]
    if command == "falsify":
        argv += ["--bound", "1"]
    code, output = _exit_and_output(argv)
    assert code in (0, 2, 3)
    assert b"Traceback" not in output


# Malformed input for the commands that read files: a bundled document with
# some entries replaced or removed, or JSON of any shape. Names and texts are
# drawn from the fixtures', so some edits still name states and formulas.
_NAMES = ["w", "v", "u", "w9", "p", "x", "c", "jrc", "l", "truthset_all", ""]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(_NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=3),
    max_leaves=8)
_MODEL_KEYS = ["dialect", "states", "normal", "star", "ternary", "valuation",
               "nonnormal_valuation", "term_rels", "formula_rels", "formula_rel_default"]
_FORMULAS = ["p", "~p", "x:p", "p ~> q", "p -> q", "p > q", "p => q", "[]p", "c:(p => p)",
             "p &", ""]


@st.composite
def _malformed_model(draw):
    doc = draw(st.sampled_from(["gettier.json", "chisholm.json", "aumann.json", None]))
    if doc is None:
        return draw(_JSON)
    doc = fixture_json(doc)
    for key in draw(st.lists(st.sampled_from(_MODEL_KEYS), min_size=1, max_size=3)):
        entry = doc.get(key)
        if isinstance(entry, dict) and entry and draw(st.booleans()):
            entry[draw(st.sampled_from(sorted(entry) + _NAMES))] = draw(_JSON)
        elif draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON)
    return doc


@st.composite
def _malformed_derivation(draw):
    lines = fixture_text(draw(st.sampled_from(
        ["lemma_cc.txt", "theorem_rck.txt", "gettier_derivation.txt"]))).splitlines()
    made = st.builds("{}. {} ; {} {}".format, st.integers(-1, 40), st.sampled_from(_FORMULAS),
                     st.sampled_from(["ax1", "mp", "rcea", "rcn", "ax4p", "axt", "hyp", "x"]),
                     st.sampled_from(["", "1", "1 2", "0", "99", "a"]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "cut", "insert"]))
        if edit == "drop" and at < len(lines):
            del lines[at]
        elif edit == "cut" and at < len(lines):
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
        else:
            lines.insert(at, draw(made | st.text(max_size=12)))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["eval", "check-model", "check-proof"]),
       model=_malformed_model(), derivation=_malformed_derivation(),
       cs=st.none() | _JSON | st.just(fixture_json("gettier_cs.json")),
       dialect=st.sampled_from([d.value for d in Dialect]),
       formula=st.sampled_from(_FORMULAS), state=st.sampled_from(["w", "v", "w9"]))
def test_malformed_files_exit_cleanly(command, model, derivation, cs, dialect, formula,
                                      state):
    with tempfile.TemporaryDirectory() as tmp:
        model_file, derivation_file, cs_file = (
            os.path.join(tmp, name) for name in ("m.json", "d.txt", "cs.json"))
        with open(model_file, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        with open(derivation_file, "w", encoding="utf-8") as fh:
            fh.write(derivation)
        with open(cs_file, "w", encoding="utf-8") as fh:
            json.dump(cs, fh)
        with_cs = ["--cs", cs_file] if cs is not None else []
        argv = {
            "eval": ["eval", "--model", model_file, "--state", state, formula],
            "check-model": ["check-model", "--model", model_file, formula, *with_cs],
            "check-proof": ["check-proof", "--dialect", dialect, derivation_file, *with_cs],
        }[command]
        code, output = _exit_and_output(argv)
    assert code in (0, 1, 2, 3)
    assert b"Traceback" not in output


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "condjust.cli", "parse", "--dialect", "l", "p&q"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "p & q"


def test_package_runs_as_a_module():
    """python -m condjust replays the corpus as the console script does,
    byte for byte, and exits with the command line's code."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "corpus.txt")
    proc = subprocess.run([sys.executable, "-m", "condjust", "corpus"], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(golden, "rb") as fh:
        assert proc.stdout == fh.read()
    proc = subprocess.run([sys.executable, "-m", "condjust", "parse", "--dialect", "l", "p &"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
