"""Command line front end.

One subcommand per stage of the pipeline: parse formulas, evaluate on a
model file, check frame conditions, prove sequents by tableau, search for
bounded countermodels, check and internalize derivations, and replay the
bundled example corpus.

Exit codes: 0 when a verdict was computed (including negative verdicts such
as "false" or "REJECTED"), 1 when a corpus run had failing cases, 2 on bad
input, 3 when the prover exhausted its budget without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from condjust.syntax import (
    Dialect, Formula, ParseError, Term,
    parse_formula, parse_term, print_formula, print_term,
)
from condjust.kripke_models import (
    AxiomaticallyAppropriate, ConditionReport, default_universe, eval_kripke,
    check_conditions, load_model, model_to_json, profile_for, valid_in_model, _array,
)
from condjust.routley_models import check_jrc_conditions
from condjust.tableau import Budget, Closed, Exhausted, Open, prove, verify_result
from condjust.falsifier import find_countermodel
from condjust.hilbert import (
    check_derivation, internalize, load_constant_specification,
    parse_derivation, print_derivation,
)
from condjust.fixtures import fixture_names, fixture_text

__all__ = ["main", "parse_sequent", "run_corpus"]

_DIALECTS = [d.value for d in Dialect]


class _InputError(Exception):
    """Bad command input; message goes to stderr and the exit code is 2."""


def parse_sequent(text: str, dialect: Dialect) -> tuple[tuple[Formula, ...], Formula]:
    """Split ``"phi1, phi2 |- psi"`` into premises and goal.  The turnstile
    may be omitted when there are no premises."""
    if not isinstance(text, str):
        raise TypeError(f"a sequent must be a string, not {type(text).__name__}")
    head, sep, tail = text.partition("|-")
    if not sep:
        head, tail = "", text
    if "|-" in tail:
        raise ParseError("a sequent has exactly one '|-'",
                         len(head) + 2 + tail.index("|-"))
    goal = parse_formula(tail, dialect)
    premises = tuple(
        parse_formula(part, dialect)
        for part in head.split(",") if part.strip()
    )
    return premises, goal


def _read_text(name: str, base: Path | None = None) -> str:
    """The text of the bundled fixture called name, else of the file at
    name, taken under base when one is given.  Bare fixture names resolve
    without touching the filesystem; any path with a separator goes to disk."""
    if name in fixture_names():
        return fixture_text(name)
    path = name if base is None else base / name
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_json(name: str, base: Path | None = None) -> dict:
    """The JSON document _read_text reads for name and base."""
    text = _read_text(name, base)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if name in fixture_names():
            raise _InputError(f"fixture {name} is not JSON: {exc}") from exc
        path = name if base is None else base / name
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_model_file(path: str):
    doc = _load_json(path)
    try:
        return load_model(doc)
    except (ParseError, ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"bad model file {path}: {exc}") from exc


def _load_cs(path: str, dialect: Dialect):
    try:
        return load_constant_specification(_load_json(path), dialect)
    except (ParseError, ValueError, TypeError) as exc:
        raise _InputError(f"bad constant specification: {exc}") from exc


def _evaluate(model, dialect: Dialect, f: Formula, state: str | None) -> bool:
    """Truth of f at the state, or at every normal state when state is None."""
    if state is None:
        return valid_in_model(model, f, dialect)
    return eval_kripke(model, state, f, dialect)


def _condition_report(model, dialect: Dialect, seeds, profile: str | None,
                      load_cs) -> ConditionReport:
    """The frame conditions of a model over the subformula closure of the
    seed formulas (texts) and the model's own formulas. A relational model
    is checked under the profile's dialect when one is given, with the
    constant specification that load_cs (a function of the dialect, or
    None) returns. Bad input raises ValueError."""
    if dialect is Dialect.JRC:
        if profile and profile != "jrc":
            raise ValueError("routley model files always use the jrc profile")
        if load_cs:
            raise ValueError("constant specifications do not apply to jrc")
        return check_jrc_conditions(
            model, default_universe(model, [parse_formula(t, dialect) for t in seeds]))
    if profile:
        dialect = Dialect(profile)
    variant = profile_for(dialect)
    cs = load_cs(dialect) if load_cs else None
    seeds = [parse_formula(t, dialect) for t in seeds]
    return check_conditions(model, variant, default_universe(model, seeds), cs)


def _parse_or_die(text: str, dialect: Dialect, parse=parse_formula):
    try:
        return parse(text, dialect)
    except ParseError as exc:
        raise _InputError(str(exc)) from exc


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _witness_strs(witness) -> list[str] | None:
    if witness is None:
        return None
    out = []
    for item in witness:
        if isinstance(item, Formula):
            out.append(print_formula(item))
        elif isinstance(item, Term):
            out.append(print_term(item))
        else:
            out.append(str(item))
    return out


def _report_payload(report: ConditionReport) -> dict:
    return {
        "profile": report.profile,
        "ok": report.ok,
        "note": report.approximation_note,
        "results": [
            {
                "condition": r.condition,
                "passed": r.passed,
                "witness": _witness_strs(r.witness),
                "detail": r.detail,
            }
            for r in report.results
        ],
    }


def _report_text(report: ConditionReport) -> str:
    lines = [f"profile {report.profile}"]
    for r in report.results:
        if r.passed:
            lines.append(f"  condition {r.condition}: pass")
        else:
            parts = [f"  condition {r.condition}: FAIL"]
            ws = _witness_strs(r.witness)
            if ws:
                parts.append("witness " + ", ".join(ws))
            if r.detail:
                parts.append(r.detail)
            lines.append("  ".join(parts))
    lines.append("result: " + ("ok" if report.ok else "conditions failed"))
    return "\n".join(lines)


# --- subcommand handlers ----------------------------------------------------


def _cmd_parse(args) -> int:
    dialect = Dialect(args.dialect)
    if args.term:
        canonical = print_term(_parse_or_die(args.text, dialect, parse_term))
    else:
        canonical = print_formula(_parse_or_die(args.text, dialect))
    _emit(args, {
        "dialect": dialect.value,
        "kind": "term" if args.term else "formula",
        "input": args.text,
        "canonical": canonical,
    }, canonical)
    return 0


def _cmd_eval(args) -> int:
    model, dialect = _load_model_file(args.model)
    f = _parse_or_die(args.text, dialect)
    if not args.valid and args.state not in model.states:
        raise _InputError(f"unknown state {args.state!r}")
    value = _evaluate(model, dialect, f, None if args.valid else args.state)
    where = {"valid": True} if args.valid else {"state": args.state}
    _emit(args, {
        "model": args.model,
        "dialect": dialect.value,
        "formula": print_formula(f),
        **where,
        "value": value,
    }, "true" if value else "false")
    return 0


def _cmd_check_model(args) -> int:
    model, dialect = _load_model_file(args.model)
    load_cs = (lambda d: _load_cs(args.cs, d)) if args.cs else None
    try:
        report = _condition_report(model, dialect, args.formulas, args.profile, load_cs)
    except ValueError as exc:  # a ParseError too
        raise _InputError(str(exc)) from exc
    _emit(args, _report_payload(report), _report_text(report))
    return 0


def _cmd_prove(args) -> int:
    premises, goal = _parse_or_die(args.sequent, Dialect.JRC, parse_sequent)
    try:
        budget = Budget(args.budget_labels, args.budget_steps)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    result = prove(premises, goal, budget)
    if isinstance(result, Closed):
        _emit(args, {
            "verdict": "closed",
            "steps": result.steps,
            "trace": result.tree,
        }, f"CLOSED in {result.steps} steps\n{result.tree}")
        return 0
    if isinstance(result, Open):
        doc = model_to_json(result.extracted, Dialect.JRC)
        verified = verify_result(result, premises, goal)
        payload = {
            "verdict": "open",
            "state": result.root_state,
            "verified": verified,
            "model": doc,
        }
        text = (
            f"OPEN: countermodel falsifies the sequent at state "
            f"{result.root_state}\n{json.dumps(doc, indent=2, sort_keys=True)}"
        )
        _emit(args, payload, text)
        return 0
    assert isinstance(result, Exhausted)
    _emit(args, {"verdict": "exhausted", "report": result.report},
          f"EXHAUSTED: {result.report}")
    return 3


def _cmd_falsify(args) -> int:
    dialect = Dialect(args.dialect)
    premises, goal = _parse_or_die(args.sequent, dialect, parse_sequent)
    try:
        found = find_countermodel(premises, goal, dialect, args.bound)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if found is None:
        _emit(args, {"found": False, "bound": args.bound},
              f"no countermodel within {args.bound} states")
        return 0
    model, state = found
    doc = model_to_json(model, dialect)
    _emit(args, {"found": True, "state": state, "model": doc},
          f"countermodel falsifies the sequent at state {state}\n"
          f"{json.dumps(doc, indent=2, sort_keys=True)}")
    return 0


def _read_derivation(args):
    dialect = Dialect(args.dialect)
    text = _read_text(args.file)
    try:
        return parse_derivation(text, dialect), dialect
    except (ParseError, ValueError) as exc:
        raise _InputError(f"bad derivation file: {exc}") from exc


def _cmd_check_proof(args) -> int:
    d, dialect = _read_derivation(args)
    cs = _load_cs(args.cs, dialect) if args.cs else None
    try:
        res = check_derivation(d, dialect, cs)
    except ValueError as exc:  # a dialect without a Hilbert axiomatization
        raise _InputError(str(exc)) from exc
    payload = {
        "ok": res.ok,
        "error_line": res.error_line,
        "reason": res.reason,
        "premises": [print_formula(f) for f in res.premises],
        "conclusion": print_formula(d.conclusion) if res.ok else None,
    }
    if res.ok:
        lines = ["OK"]
        if res.premises:
            lines.append("premises: " + ", ".join(payload["premises"]))
        lines.append(f"conclusion: {payload['conclusion']}")
        text = "\n".join(lines)
    else:
        text = f"REJECTED line {res.error_line}: {res.reason}"
    _emit(args, payload, text)
    return 0


def _cmd_internalize(args) -> int:
    d, dialect = _read_derivation(args)
    cs = AxiomaticallyAppropriate()
    try:  # ValueError: no Hilbert axioms in the dialect, or not lpcint's derivation
        res = check_derivation(d, dialect)
        if not res.ok:
            raise _InputError(
                f"derivation does not check: line {res.error_line}: {res.reason}")
        if res.premises:
            raise _InputError("internalization needs a premise-free derivation")
        term, internalized = internalize(d, cs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    rendered = print_derivation(internalized)
    constants = {name: print_formula(f) for f, name in cs.allocations.items()}
    payload = {
        "term": print_term(term),
        "conclusion": print_formula(internalized.conclusion),
        "constants": constants,
        "derivation": rendered,
    }
    lines = [f"term: {payload['term']}"]
    for name, f in constants.items():
        lines.append(f"  {name} justifies {f}")
    lines.append(rendered)
    _emit(args, payload, "\n".join(lines))
    return 0


# --- corpus -----------------------------------------------------------------


def _case_eval(case: dict, base: Path) -> tuple[bool, str]:
    model, dialect = load_model(_load_json(case["model"], base))
    f = parse_formula(case["formula"], dialect)
    got = _evaluate(model, dialect, f, None if case["check"] == "valid" else case["state"])
    want = bool(case["expect"])
    if got != want:
        return False, f"expected {str(want).lower()}, got {str(got).lower()}"
    return True, ""


def _case_conditions(case: dict, base: Path) -> tuple[bool, str]:
    model, dialect = load_model(_load_json(case["model"], base))
    load_cs = None
    if "cs" in case:
        def load_cs(d):
            return load_constant_specification(
                _load_json(case["cs"], base), d)
    formulas = _array(case.get("formulas", []), "formulas")
    report = _condition_report(model, dialect, formulas, case.get("profile"), load_cs)
    want_ok = bool(case["expect_ok"])
    if report.ok != want_ok:
        failures = ", ".join(r.condition for r in report.failures()) or "none"
        return False, f"expected ok={want_ok}, failing conditions: {failures}"
    if not want_ok and "failed" in case:
        got = sorted(r.condition for r in report.failures())
        want = sorted(_array(case["failed"], "failed"))
        if got != want:
            return False, f"expected failures {want}, got {got}"
    return True, ""


def _case_derivation(case: dict, base: Path) -> tuple[bool, str]:
    dialect = Dialect(case["dialect"])
    d = parse_derivation(_read_text(case["file"], base), dialect)
    cs = None
    if "cs" in case:
        cs = load_constant_specification(
            _load_json(case["cs"], base), dialect)
    res = check_derivation(d, dialect, cs)
    if not res.ok:
        return False, f"rejected at line {res.error_line}: {res.reason}"
    if "premises" in case:
        want = [parse_formula(t, dialect) for t in _array(case["premises"], "premises")]
        if list(res.premises) != want:
            got = ", ".join(print_formula(f) for f in res.premises)
            return False, f"premises differ: got {got or '(none)'}"
    if "conclusion" in case:
        want_f = parse_formula(case["conclusion"], dialect)
        if d.conclusion != want_f:
            return False, f"conclusion differs: got {print_formula(d.conclusion)}"
    return True, ""


def _case_prove(case: dict, base: Path) -> tuple[bool, str]:
    premises, goal = parse_sequent(case["sequent"], Dialect.JRC)
    result = prove(premises, goal)
    want = case["expect"]
    if want == "closed":
        if not isinstance(result, Closed):
            return False, f"expected closed, got {type(result).__name__.lower()}"
        limit = case.get("max_steps")
        if limit is not None and result.steps > limit:
            return False, f"closed in {result.steps} steps, limit {limit}"
        return True, ""
    if want == "open":
        if not isinstance(result, Open):
            return False, f"expected open, got {type(result).__name__.lower()}"
        if not verify_result(result, premises, goal):
            return False, "extracted countermodel failed verification"
        return True, ""
    raise _InputError(f"bad prove expectation {want!r}")


_CASE_KINDS = {
    "eval": _case_eval,
    "valid": _case_eval,
    "conditions": _case_conditions,
    "derivation": _case_derivation,
    "prove": _case_prove,
}


def run_corpus(doc: dict, base: Path | None = None) -> list[tuple[dict, bool, str]]:
    """Run every case and return (case, passed, detail) triples in order."""
    base = base or Path.cwd()
    cases = doc.get("cases") if isinstance(doc, dict) else None
    if not isinstance(cases, list) or not all(isinstance(c, dict) for c in cases):
        raise _InputError("a corpus document is an object whose cases are a list of objects")
    outcomes = []
    for case in cases:
        kind = case.get("check")
        runner = _CASE_KINDS.get(kind) if isinstance(kind, str) else None
        if runner is None:
            raise _InputError(f"unknown check kind {kind!r} in case {case.get('name')!r}")
        try:
            ok, detail = runner(case, base)
        except (ParseError, ValueError, KeyError, TypeError) as exc:
            ok, detail = False, f"case error: {exc}"
        outcomes.append((case, ok, detail))
    return outcomes


def _cmd_corpus(args) -> int:
    if args.cases:
        doc = _load_json(args.cases)
        base = Path(args.cases).resolve().parent
    else:
        doc = _load_json("cases.json")
        base = Path.cwd()
    outcomes = run_corpus(doc, base)
    failed = [(c, detail) for c, ok, detail in outcomes if not ok]
    if args.format == "json":
        print(json.dumps({
            "passed": len(outcomes) - len(failed),
            "failed": len(failed),
            "cases": [
                {"name": c.get("name"), "note": c.get("note"),
                 "passed": ok, "detail": detail or None}
                for c, ok, detail in outcomes
            ],
        }, indent=2, sort_keys=True))
    else:
        for c, ok, detail in outcomes:
            status = "PASS" if ok else "FAIL"
            line = f"{status}  {c.get('name')}"
            if c.get("note"):
                line += f"  ({c['note']})"
            if detail:
                line += f": {detail}"
            print(line)
        print(f"{len(outcomes) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


# --- argument parsing --------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default text)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="condjust",
        description="conditional justification logics: models, proofs, countermodels")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula or term and reprint it")
    p.add_argument("text")
    p.add_argument("--dialect", required=True, choices=_DIALECTS)
    p.add_argument("--term", action="store_true", help="parse a term instead")
    _add_format(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a model file")
    p.add_argument("text")
    p.add_argument("--model", required=True,
                   help="model JSON file or bundled fixture name")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--state", help="state to evaluate at")
    where.add_argument("--valid", action="store_true",
                       help="check truth at every normal state")
    _add_format(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check-model", help="check frame conditions on a model file")
    p.add_argument("formulas", nargs="*",
                   help="formulas whose subformula closure seeds the universe")
    p.add_argument("--model", required=True,
                   help="model JSON file or bundled fixture name")
    p.add_argument("--profile", choices=_DIALECTS,
                   help="check under this variant instead of the model's dialect")
    p.add_argument("--cs", help="constant specification JSON file")
    _add_format(p)
    p.set_defaults(handler=_cmd_check_model)

    p = sub.add_parser("prove", help="prove a sequent by labelled tableau")
    p.add_argument("sequent", help="\"phi1, phi2 |- psi\" or a bare formula")
    p.add_argument("--budget-labels", type=int, default=8,
                   help="fresh labels the prover may introduce (default 8)")
    p.add_argument("--budget-steps", type=int, default=2000,
                   help="rule applications before giving up (default 2000)")
    _add_format(p)
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("falsify", help="search for a bounded countermodel")
    p.add_argument("sequent")
    p.add_argument("--dialect", required=True, choices=_DIALECTS)
    p.add_argument("--bound", type=int, default=3,
                   help="maximum number of states (default 3)")
    _add_format(p)
    p.set_defaults(handler=_cmd_falsify)

    p = sub.add_parser("check-proof", help="check a Hilbert derivation file")
    p.add_argument("file", help="derivation text file or bundled fixture name")
    p.add_argument("--dialect", required=True, choices=_DIALECTS)
    p.add_argument("--cs", help="constant specification JSON file")
    _add_format(p)
    p.set_defaults(handler=_cmd_check_proof)

    p = sub.add_parser(
        "internalize",
        help="turn a premise-free derivation into a justified one")
    p.add_argument("file", help="derivation text file or bundled fixture name")
    p.add_argument("--dialect", required=True, choices=_DIALECTS)
    _add_format(p)
    p.set_defaults(handler=_cmd_internalize)

    p = sub.add_parser("corpus", help="replay the bundled example corpus")
    p.add_argument("--cases", help="alternative cases JSON file")
    _add_format(p)
    p.set_defaults(handler=_cmd_corpus)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # json.load recurses once per nesting level of a document, so a
        # model, specification or corpus file nested past the interpreter's
        # recursion limit is bad input.
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
