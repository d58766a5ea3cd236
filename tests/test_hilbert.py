"""Axiom matching, derivation checking, macro expansion, internalization."""

import dataclasses
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condjust.fixtures import fixture_json, fixture_text
from condjust.hilbert import (
    CS, MP, RCEA, RCK, RCN, Axiom, CheckResult, Derivation, Hyp, Line, Nec,
    _boolean_components, _tautology, axiom_schemes, check_derivation, derive_cc, derive_rck, expand_rck,
    implication_form, internalize, load_constant_specification, match_axiom,
    parse_derivation, print_derivation,
)
from condjust.kripke_models import (
    AxiomaticallyAppropriate, Explicit, eval as keval, load_model,
)
from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Just, MatImp, Neg,
    Pair, Sum, Variable, parse_formula, parse_term, print_formula,
)

LPC = Dialect.LPCplus
INT = Dialect.LPCint


def pf(text, dialect=LPC):
    return parse_formula(text, dialect)


def pt(text, dialect=LPC):
    return parse_term(text, dialect)


def lines(*rows):
    return Derivation(tuple(Line(i + 1, f, j) for i, (f, j) in enumerate(rows)))


class TestMatchAxiom:
    def test_distribution(self):
        got = match_axiom(pf("(p > (q => r)) => ((p > q) => (p > r))"), LPC)
        assert got == ("ax2", {"phi": pf("p"), "psi": pf("q"), "chi": pf("r")})

    def test_sum_right(self):
        got = match_axiom(pf("x:p > (y+x):p"), LPC)
        assert got == ("ax7", {"t": pt("x"), "s": pt("y"), "phi": pf("p")})

    def test_sum_left(self):
        scheme, subst = match_axiom(pf("x:p > (x+y):p"), LPC)
        assert scheme == "ax6"
        assert subst["s"] == pt("x")

    def test_identity_wins_over_factivity_shape(self):
        assert match_axiom(pf("x:p > x:p"), LPC)[0] == "ax3"
        assert match_axiom(pf("x:p > p"), LPC)[0] == "ax8"

    def test_detachment(self):
        assert match_axiom(pf("(p > q) => (p => q)"), LPC)[0] == "ax4"

    def test_application_conditional_form(self):
        f = pf("(x:(p > q) & y:p) > (x.y):q")
        assert match_axiom(f, LPC)[0] == "ax5"

    def test_application_material_form(self):
        f = pf("(x:(p => q) & y:p) > (x.y):q")
        assert match_axiom(f, LPC)[0] == "ax5"

    def test_application_argument_order_matters(self):
        assert match_axiom(pf("(x:(p > q) & y:p) > (y.x):q"), LPC) is None

    def test_introspection(self):
        assert match_axiom(pf("x:p > !x:x:p"), LPC)[0] == "ax9"
        assert match_axiom(pf("x:p > !x:x:q"), LPC) is None

    def test_prime_application(self):
        f = pf("x:(p > q) > (y:p > (x.y):q)", Dialect.LPCprime)
        assert match_axiom(f, Dialect.LPCprime)[0] == "ax4p"
        assert match_axiom(f, LPC) is None

    def test_pair_axiom(self):
        f = pf("t:q => <t,p>:(p > q)", INT)
        assert match_axiom(f, INT) == (
            "ax10", {"t": pt("t"), "psi": pf("q"), "phi": pf("p")})

    def test_belief_dialects_drop_factivity(self):
        f = pf("x:p > p")
        assert match_axiom(f, Dialect.J4Cplus) is None
        assert match_axiom(f, Dialect.JCplus) is None
        assert match_axiom(pf("x:p > !x:x:p"), Dialect.J4Cplus)[0] == "ax9"
        assert match_axiom(pf("x:p > !x:x:p"), Dialect.JCplus) is None

    def test_tautologies(self):
        assert match_axiom(pf("(p > q) | ~(p > q)"), LPC) == ("ax1", {})
        assert match_axiom(pf("p | ~q"), LPC) is None

    def test_structural_tag_preferred_over_tautology(self):
        f = pf("(p > (q => q)) => (p => (q => q))")
        assert match_axiom(f, LPC)[0] == "ax4"

    def test_s5_schemes(self):
        L = Dialect.L
        assert match_axiom(pf("[](p => q) => ([]p => []q)", L), L)[0] == "axk"
        assert match_axiom(pf("[]p => p", L), L)[0] == "axt"
        assert match_axiom(pf("[]p => [][]p", L), L)[0] == "ax4s"
        assert match_axiom(pf("~[]p => []~[]p", L), L)[0] == "ax5s"
        assert match_axiom(pf("~[]p => ~[]~[]p", L), L) is None

    def test_scheme_lists(self):
        assert axiom_schemes(LPC) == (
            "ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax8", "ax9")
        assert "ax10" in axiom_schemes(INT)
        assert "ax4p" in axiom_schemes(Dialect.LPCprime)
        assert "ax8" not in axiom_schemes(Dialect.L)

    def test_jrc_has_no_axioms(self):
        with pytest.raises(ValueError):
            match_axiom(pf("p -> p", Dialect.JRC), Dialect.JRC)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_substitution_reproduces_instance(self, data):
        base = st.sampled_from([pf(s) for s in ("p", "q", "r", "~p", "p & q", "p => q")])
        terms = st.sampled_from([pt(s) for s in ("x", "y", "x+y", "x.y", "!x", "c")])
        builders = {
            "ax2": lambda g: MatImp(
                Counterfactual(g["phi"], MatImp(g["psi"], g["chi"])),
                MatImp(Counterfactual(g["phi"], g["psi"]), Counterfactual(g["phi"], g["chi"]))),
            "ax3": lambda g: Counterfactual(g["phi"], g["phi"]),
            "ax4": lambda g: MatImp(Counterfactual(g["phi"], g["psi"]), MatImp(g["phi"], g["psi"])),
            "ax5": lambda g: Counterfactual(
                And(Just(g["s"], Counterfactual(g["phi"], g["psi"])), Just(g["t"], g["phi"])),
                Just(App(g["s"], g["t"]), g["psi"])),
            "ax6": lambda g: Counterfactual(Just(g["s"], g["phi"]), Just(Sum(g["s"], g["t"]), g["phi"])),
            "ax7": lambda g: Counterfactual(Just(g["t"], g["phi"]), Just(Sum(g["s"], g["t"]), g["phi"])),
            "ax8": lambda g: Counterfactual(Just(g["t"], g["phi"]), g["phi"]),
            "ax9": lambda g: Counterfactual(
                Just(g["t"], g["phi"]), Just(Bang(g["t"]), Just(g["t"], g["phi"]))),
        }
        name = data.draw(st.sampled_from(sorted(builders)))
        g = {"phi": data.draw(base), "psi": data.draw(base), "chi": data.draw(base),
             "s": data.draw(terms), "t": data.draw(terms)}
        instance = builders[name](g)
        got = match_axiom(instance, LPC)
        assert got is not None
        scheme, subst = got
        # An instance may also fit an earlier scheme (e.g. s = t makes the two
        # sum schemes coincide); whatever matched must rebuild the formula.
        assert scheme in builders
        rebuilt = builders[scheme]({**g, **subst})
        assert rebuilt == instance


class TestCheckDerivation:
    def test_cc_fixture(self):
        d = parse_derivation(fixture_text("lemma_cc.txt"), LPC)
        assert len(d.lines) == 10
        res = check_derivation(d, LPC)
        assert res == CheckResult(True, None, None, ())
        assert d.conclusion == pf("((p > q) & (p > r)) => (p > (q & r))")

    def test_rck_fixture(self):
        d = parse_derivation(fixture_text("theorem_rck.txt"), LPC)
        assert len(d.lines) == 17
        res = check_derivation(d, LPC)
        assert res.ok
        assert res.premises == (pf("(q1 & q2) => r"),)
        assert d.conclusion == pf("((p > q1) & (p > q2)) => (p > r)")

    def test_gettier_fixture(self):
        cs = load_constant_specification(fixture_json("gettier_cs.json"), LPC)
        d = parse_derivation(fixture_text("gettier_derivation.txt"), LPC)
        res = check_derivation(d, LPC, cs)
        assert res.ok
        assert res.premises == (pf("~p"), pf("q"), pf("x:p"))
        assert d.conclusion == pf("(p | q) & (c.x):(p | q)")

    def test_rck_tag_degenerate(self):
        d = lines((pf("q"), Hyp()), (pf("p > q"), RCK(1)))
        assert check_derivation(d, LPC).ok

    def test_rck_tag_single(self):
        d = lines((pf("q1 => r"), Hyp()),
                  (pf("(p > q1) => (p > r)"), RCK(1)))
        assert check_derivation(d, LPC).ok

    def test_rck_tag_pair_with_declared_parameters(self):
        d = lines((pf("(q1 & q2) => r"), Hyp()),
                  (pf("((p > q1) & (p > q2)) => (p > r)"), RCK(1, pf("p"), 2)))
        assert check_derivation(d, LPC).ok
        bad = lines((pf("(q1 & q2) => r"), Hyp()),
                    (pf("((p > q1) & (p > q2)) => (p > r)"), RCK(1, pf("q"), 2)))
        res = check_derivation(bad, LPC)
        assert not res.ok and res.error_line == 2

    def test_rck_tag_wrong_citation(self):
        d = lines((pf("(q1 & q2) => r"), Hyp()),
                  (pf("((p > q1) & (p > q3)) => (p > r)"), RCK(1)))
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 2

    def test_rcea_only_in_lpckplus(self):
        d = lines((pf("p == q", Dialect.LPCKplus), Hyp()),
                  (pf("(p > r == q > r)", Dialect.LPCKplus), RCEA(1)))
        assert check_derivation(d, Dialect.LPCKplus).ok
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 2 and "rcea" in res.reason

    def test_rcea_shape(self):
        d = lines((pf("p == q", Dialect.LPCKplus), Hyp()),
                  (pf("(p > r == q > q)", Dialect.LPCKplus), RCEA(1)))
        res = check_derivation(d, Dialect.LPCKplus)
        assert not res.ok and res.error_line == 2

    def test_nec_only_in_l(self):
        d = lines((pf("p => p", Dialect.L), Axiom("ax1")),
                  (pf("[](p => p)", Dialect.L), Nec(1)))
        assert check_derivation(d, Dialect.L).ok
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 2

    def test_premises_after_derived_line_rejected(self):
        d = lines((pf("p => p"), Axiom("ax1")), (pf("q"), Hyp()))
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 2

    def test_indices_must_increase(self):
        d = Derivation((Line(1, pf("p => p"), Axiom("ax1")),
                        Line(1, pf("q => q"), Axiom("ax1"))))
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 1

    def test_forward_citation_rejected(self):
        d = Derivation((Line(1, pf("p"), MP(1, 2)),
                        Line(2, pf("p => p"), Axiom("ax1"))))
        res = check_derivation(d, LPC)
        assert not res.ok and res.error_line == 1

    def test_cs_without_specification(self):
        d = lines((pf("c:(p > p)"), CS()),)
        res = check_derivation(d, LPC)
        assert not res.ok and "no constant specification" in res.reason

    def test_cs_requires_axiom_instance(self):
        cs = Explicit((("c", pf("p")),))
        d = lines((pf("c:p"), CS()),)
        res = check_derivation(d, LPC, cs)
        assert not res.ok and "axiom instance" in res.reason

    def test_jrc_rejected(self):
        d = lines((pf("p -> p", Dialect.JRC), Hyp()),)
        with pytest.raises(ValueError):
            check_derivation(d, Dialect.JRC)

    def test_implication_form(self):
        assert implication_form([], pf("p")) == pf("p")
        assert implication_form([pf("q")], pf("p")) == pf("q => p")
        assert implication_form([pf("q"), pf("r")], pf("p")) == pf("(q & r) => p")


def _conjoined(n, leaf):
    """leaf(0) & leaf(1) & … & leaf(n - 1), nested to the left."""
    out = leaf(0)
    for i in range(1, n):
        out = And(out, leaf(i))
    return out


_LK, _L = Dialect.LPCKplus, Dialect.L
_C_PP = Explicit((("c", pf("p > p")),))
# One derivation for every reason check_derivation gives, with the exact
# (ok, error_line, reason) it answers. Where a line breaks two rules, the
# expected reason pins which check comes first.
_REASONS = [
    ("accepted", LPC, None,
     lines((pf("q"), Hyp()), (pf("p > q"), RCN(1))), (True, None, None)),
    ("index-not-increasing", LPC, None,
     Derivation((Line(2, pf("p => p"), Axiom("ax1")), Line(2, pf("q"), MP(9, 9)))),
     (False, 2, "line indices must be strictly increasing")),
    ("formula-outside-dialect", LPC, None,
     lines((Box(pf("p")), Axiom("bogus"))), (False, 1, "box is not in dialect lpcplus")),
    ("premise-after-derived-line", LPC, None,
     lines((pf("p => p"), Axiom("ax1")), (pf("q"), Hyp())),
     (False, 2, "premises must precede all derived lines")),
    ("unknown-justification", LPC, None,
     lines((pf("q"), Hyp()), (pf("p"), "ax1")),
     (False, 2, "unknown justification 'ax1'")),
    ("scheme-not-in-dialect", LPC, None,
     lines((pf("x:q => (x.p):(p > q)", INT), Axiom("ax10"))),
     (False, 1, "scheme ax10 is not available in lpcplus")),
    ("not-an-instance", LPC, None,
     lines((pf("p > q"), Axiom("ax3"))), (False, 1, "not an instance of ax3")),
    ("ax1-past-component-cap", LPC, None,
     lines((MatImp(_conjoined(17, lambda i: Atom(f"p{i}")), Atom("p0")), Axiom("ax1"))),
     (False, 1, "ax1 is decided only up to 16 components; this line has 17")),
    ("cs-not-a-constant", LPC, _C_PP,
     lines((pf("x:(p > p)"), CS())),
     (False, 1, "a constant-specification line must have the form c:φ")),
    ("cs-missing", LPC, None,
     lines((pf("c:(p > p)"), CS())), (False, 1, "no constant specification supplied")),
    ("cs-pair-not-listed", LPC, _C_PP,
     lines((pf("c2:(p > p)"), CS())), (False, 1, "pair is not in the constant specification")),
    ("cs-not-an-axiom", LPC, AxiomaticallyAppropriate(),
     lines((pf("c:p"), CS())), (False, 1, "justified formula is not an axiom instance")),
    ("mp-bad-citation", LPC, None,
     lines((pf("p"), Hyp()), (pf("p"), MP(1, 2))), (False, 2, "bad citation in mp 1 2")),
    ("mp-wrong-shape", LPC, None,
     lines((pf("p"), Hyp()), (pf("p => q"), Hyp()), (pf("r"), MP(1, 2))),
     (False, 3, "cited lines do not support modus ponens")),
    ("rcn-bad-citation", LPC, None,
     lines((pf("q"), Hyp()), (pf("p > q"), RCN(3))), (False, 2, "bad citation in rcn 3")),
    ("rcn-wrong-shape", LPC, None,
     lines((pf("q"), Hyp()), (pf("p > r"), RCN(1))),
     (False, 2, "line must be φ > (cited line)")),
    ("rck-bad-citation", LPC, None,
     lines((pf("q"), Hyp()), (pf("p > q"), RCK(0))), (False, 2, "bad citation in rck 0")),
    ("rck-degenerate-wrong-citation", LPC, None,
     lines((pf("q"), Hyp()), (pf("p > r"), RCK(1))),
     (False, 2, "cited line must be the conditional's consequent")),
    ("rck-antecedents-differ", LPC, None,
     lines((pf("q1 => r"), Hyp()), (pf("(s > q1) => (p > r)"), RCK(1))),
     (False, 2, "antecedent must conjoin conditionals sharing the conclusion's antecedent")),
    ("rck-wrong-citation", LPC, None,
     lines((pf("q1 => r"), Hyp()), (pf("(p > q2) => (p > r)"), RCK(1))),
     (False, 2, "cited line must be the conjoined-consequents implication")),
    ("rck-wrong-shape", LPC, None,
     lines((pf("q"), Hyp()), (pf("p => q"), RCK(1))),
     (False, 2, "rck must conclude ((φ>ψ1) & … & (φ>ψn)) => (φ>ψ) or φ>ψ")),
    ("rck-declared-antecedent", LPC, None,
     lines((pf("q1 => r"), Hyp()), (pf("(p > q1) => (p > r)"), RCK(1, pf("q")))),
     (False, 2, "declared rck antecedent does not match the line")),
    ("rck-declared-count", LPC, None,
     lines((pf("q1 => r"), Hyp()), (pf("(p > q1) => (p > r)"), RCK(1, pf("p"), 2))),
     (False, 2, "declared rck conjunct count does not match the line")),
    ("rck-expansion-past-component-cap", LPC, None,
     lines((MatImp(_conjoined(15, lambda i: Atom(f"q{i}")), Atom("r")), Hyp()),
           (MatImp(_conjoined(15, lambda i: Counterfactual(Atom("p"), Atom(f"q{i}"))),
                   pf("p > r")), RCK(1))),
     (False, 2, "rck expansion fails at its line 181:"
                " ax1 is decided only up to 16 components; this line has 17")),
    ("rcea-outside-lpckplus", LPC, None,
     lines((pf("p == q", _LK), Hyp()), (pf("p > r == q > r", _LK), RCEA(7))),
     (False, 2, "rcea is not a rule of lpcplus")),
    ("rcea-bad-citation", _LK, None,
     lines((pf("p == q", _LK), Hyp()), (pf("p > r == q > r", _LK), RCEA(2))),
     (False, 2, "bad citation in rcea 2")),
    ("rcea-not-biconditionals", _LK, None,
     lines((pf("p => q"), Hyp()), (pf("p > r == q > r", _LK), RCEA(1))),
     (False, 2, "rcea needs biconditionals on both lines")),
    ("rcea-wrong-shape", _LK, None,
     lines((pf("p == q", _LK), Hyp()), (pf("p > r == q > q", _LK), RCEA(1))),
     (False, 2, "line must equate φ>χ with ψ>χ for the cited φ ≡ ψ")),
    ("nec-outside-l", LPC, None,
     lines((pf("p => p"), Axiom("ax1")), (pf("p"), Nec(5))),
     (False, 2, "nec is not a rule of lpcplus")),
    ("nec-bad-citation", _L, None,
     lines((pf("p => p"), Axiom("ax1")), (pf("[](p => p)", _L), Nec(2))),
     (False, 2, "bad citation in nec 2")),
    ("nec-wrong-shape", _L, None,
     lines((pf("p => p"), Axiom("ax1")), (pf("[](q => q)", _L), Nec(1))),
     (False, 2, "line must be [](cited line)")),
]


@pytest.mark.parametrize("dialect,cs,d,expected", [r[1:] for r in _REASONS],
                         ids=[r[0] for r in _REASONS])
def test_every_reject_reason(dialect, cs, d, expected):
    res = check_derivation(d, dialect, cs)
    assert (res.ok, res.error_line, res.reason) == expected


def _mutate(text, index, replacement):
    out = []
    for raw in text.splitlines():
        m = re.match(r"\s*(\d+)\.", raw)
        if m and int(m.group(1)) == index:
            out.append(replacement)
        else:
            out.append(raw)
    return "\n".join(out)


_CC = fixture_text("lemma_cc.txt")
_RCK = fixture_text("theorem_rck.txt")
_GETTIER = fixture_text("gettier_derivation.txt")

_MUTATIONS = [
    ("cc-taut-broken", _CC, 1, "1. q => (r => (q & p)) ; ax1", None),
    ("cc-rcn-consequent", _CC, 2, "2. p > (q => (r => (q & q))) ; rcn 1", None),
    ("cc-rcn-retagged-mp", _CC, 2, "2. p > (q => (r => (q & r))) ; mp 1 1", None),
    ("cc-ax2-corrupted", _CC, 3,
     "3. (p > (q => (r => (q & r)))) => ((p > r) => (p > (r => (q & r)))) ; ax2", None),
    ("cc-mp-forward-citation", _CC, 4, "4. (p > q) => (p > (r => (q & r))) ; mp 2 5", None),
    ("cc-mp-swapped-arguments", _CC, 4, "4. (p > q) => (p > (r => (q & r))) ; mp 3 2", None),
    ("cc-mp-wrong-consequence", _CC, 7,
     "7. ((p > (r => (q & r))) => ((p > r) => (p > (q & r)))) => ((p > q) => (p > (q & r))) ; mp 4 6",
     None),
    ("cc-glue-not-tautology", _CC, 9,
     "9. ((p > q) => ((p > r) => (p > (q & r)))) => (((p > q) & (p > q)) => (p > (q & r))) ; ax1",
     None),
    ("cc-conclusion-strengthened", _CC, 10, "10. (p > q) => (p > (q & r)) ; mp 8 9", None),
    ("rck-late-hypothesis", _RCK, 5, "5. q1 => (q2 => (q1 & q2)) ; hyp", None),
    ("rck-rcn-mismatch", _RCK, 2, "2. p > ((q1 & q2) => q1) ; rcn 1", None),
    ("rck-ax2-corrupted", _RCK, 3,
     "3. (p > ((q1 & q2) => r)) => ((p > (q1 & q2)) => (p > q1)) ; ax2", None),
    ("rck-mp-wrong-premise", _RCK, 4, "4. (p > (q1 & q2)) => (p > r) ; mp 1 3", None),
    ("rck-conclusion-corrupted", _RCK, 17, "17. ((p > q1) & (p > q2)) => (p > q2) ; mp 4 16", None),
    ("gettier-unlisted-constant", _GETTIER, 4, "4. c2:(p => (p | q)) ; cs", None),
    ("gettier-variable-as-constant", _GETTIER, 4, "4. d:(p => (p | q)) ; cs", None),
    ("gettier-taut-broken", _GETTIER, 5, "5. q => (p & q) ; ax1", None),
    ("gettier-application-swapped", _GETTIER, 10,
     "10. (c:(p => (p | q)) & x:p) > (x.c):(p | q) ; ax5", None),
    ("gettier-mp-wrong-citation", _GETTIER, 13, "13. (c.x):(p | q) ; mp 9 11", None),
    ("gettier-conjuncts-swapped", _GETTIER, 16,
     "16. (c.x):(p | q) & (p | q) ; mp 13 15", None),
]


class TestMutations:
    @pytest.mark.parametrize("name,text,index,replacement,_", _MUTATIONS,
                             ids=[m[0] for m in _MUTATIONS])
    def test_mutation_rejected_at_line(self, name, text, index, replacement, _):
        cs = load_constant_specification(fixture_json("gettier_cs.json"), LPC)
        d = parse_derivation(_mutate(text, index, replacement), LPC)
        res = check_derivation(d, LPC, cs)
        assert not res.ok
        assert res.error_line == index

    def test_mutation_count(self):
        assert len(_MUTATIONS) == 20


class TestDeriveMacros:
    def test_cc_matches_fixture(self):
        built = derive_cc(pf("p"), pf("q"), pf("r"))
        assert parse_derivation(fixture_text("lemma_cc.txt"), LPC) == built

    def test_rck_matches_fixture(self):
        built = derive_rck(pf("p"), [pf("q1"), pf("q2")], pf("r"))
        assert parse_derivation(fixture_text("theorem_rck.txt"), LPC) == built

    def test_rck_degenerate(self):
        d = derive_rck(pf("p"), [], pf("q"))
        assert [l.justification for l in d.lines] == [Hyp(), RCN(1)]
        assert d.conclusion == pf("p > q")

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_rck_sizes_and_checks(self, n):
        psis = [pf(f"q{i}") for i in range(1, n + 1)]
        d = derive_rck(pf("p"), psis, pf("r"))
        expected = {0: 2, 1: 4}.get(n, 17 + 13 * (n - 2))
        assert len(d.lines) == expected
        res = check_derivation(d, LPC)
        assert res.ok
        if n:
            assert res.premises == (implication_form(psis, pf("r")),)

    def test_expand_rck(self):
        d = lines((pf("(q1 & q2) => r"), Hyp()),
                  (pf("((p > q1) & (p > q2)) => (p > r)"), RCK(1)),
                  (pf("s > (((p > q1) & (p > q2)) => (p > r))"), RCN(2)))
        flat = expand_rck(d)
        assert all(not isinstance(l.justification, RCK) for l in flat.lines)
        assert flat.conclusion == d.conclusion
        assert check_derivation(flat, LPC).ok

    def test_expand_rck_renumbers_citations_across_the_step(self):
        d = lines((pf("p => p"), Axiom("ax1")),
                  (pf("(q & s) => r"), Hyp()),
                  (pf("((p > q) & (p > s)) => (p > r)"), RCK(2)),
                  (pf("p > r"), MP(1, 3)),
                  (pf("((p > r) => (q > r)) & ((q > r) => (p > r))"), RCEA(2)),
                  (pf("p > r"), Nec(4)))
        assert print_derivation(expand_rck(d)) == _EXPANDED

    @pytest.mark.parametrize("rows,message", [
        # a missing line, a later line, the citing line itself
        (((pf("p > q"), RCN(2)),), "line 1 cites line 2,"),
        (((pf("p"), Hyp()), (pf("q"), MP(1, 3)), (pf("p => q"), Hyp())), "line 2 cites line 3,"),
        (((pf("q => r"), Hyp()), (pf("(p > q) => (p > r)"), RCK(3)),
          (pf("p"), Hyp())), "line 2 cites line 3,"),
        (((pf("(p > q) => (p > r)"), RCK(1)),), "line 1 cites line 1,"),
    ])
    def test_expand_rck_names_a_bad_citation(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message} which does not come before it$"):
            expand_rck(lines(*rows))

    def test_expand_rck_numbers_a_malformed_rck_line(self):
        d = lines((pf("q => r"), Hyp()), (pf("p"), Axiom("ax1")),
                  (pf("(p > s) => (p > r)"), RCK(1)))
        with pytest.raises(ValueError, match="^line 3: cited line must be the"
                                             " conjoined-consequents implication$"):
            expand_rck(d)

    def test_macros_check_in_every_hilbert_dialect(self):
        for dialect in (LPC, INT, Dialect.LPCprime, Dialect.LPCKplus,
                        Dialect.J4Cplus, Dialect.JCplus, Dialect.L):
            d = derive_cc(pf("p"), pf("q"), pf("r"))
            assert check_derivation(d, dialect).ok


# expand_rck's output for the derivation in
# test_expand_rck_renumbers_citations_across_the_step, as printed before
# the rules' renumbering was read from one table.
_EXPANDED = "\n".join([
    "1. p => p ; ax1",
    "2. q & s => r ; hyp",
    "3. p > q & s => r ; rcn 2",
    "4. (p > q & s => r) => (p > q & s) => p > r ; ax2",
    "5. (p > q & s) => p > r ; mp 3 4",
    "6. q => s => q & s ; ax1",
    "7. p > q => s => q & s ; rcn 6",
    "8. (p > q => s => q & s) => (p > q) => p > s => q & s ; ax2",
    "9. (p > q) => p > s => q & s ; mp 7 8",
    "10. (p > s => q & s) => (p > s) => p > q & s ; ax2",
    "11. ((p > q) => p > s => q & s) => ((p > s => q & s) => (p > s) => p > q & s)"
    " => (p > q) => (p > s) => p > q & s ; ax1",
    "12. ((p > s => q & s) => (p > s) => p > q & s)"
    " => (p > q) => (p > s) => p > q & s ; mp 9 11",
    "13. (p > q) => (p > s) => p > q & s ; mp 10 12",
    "14. ((p > q) => (p > s) => p > q & s) => (p > q) & (p > s) => p > q & s ; ax1",
    "15. (p > q) & (p > s) => p > q & s ; mp 13 14",
    "16. ((p > q) & (p > s) => p > q & s) => ((p > q & s) => p > r)"
    " => (p > q) & (p > s) => p > r ; ax1",
    "17. ((p > q & s) => p > r) => (p > q) & (p > s) => p > r ; mp 15 16",
    "18. (p > q) & (p > s) => p > r ; mp 5 17",
    "19. p > r ; mp 1 18",
    "20. ((p > r) => q > r) & ((q > r) => p > r) ; rcea 2",
    "21. p > r ; nec 19",
])


class TestInternalize:
    def test_axiom_line(self):
        cs = AxiomaticallyAppropriate()
        t, out = internalize(lines((pf("p > p", INT), Axiom("ax3")),), cs)
        assert t == Constant("c1")
        assert out.conclusion == pf("c1:(p > p)", INT)
        assert check_derivation(out, INT, cs).ok

    def test_cs_line(self):
        cs = AxiomaticallyAppropriate()
        t, out = internalize(lines((pf("c:(p > p)", INT), CS()),), cs)
        assert t == Bang(Constant("c"))
        assert out.conclusion == pf("!c:c:(p > p)", INT)
        assert check_derivation(out, INT, cs).ok

    def test_rcn_line(self):
        cs = AxiomaticallyAppropriate()
        d = lines((pf("p > p", INT), Axiom("ax3")),
                  (pf("q > (p > p)", INT), RCN(1)))
        t, out = internalize(d, cs)
        assert t == Pair(Constant("c1"), pf("q", INT))
        assert out.conclusion == Just(t, pf("q > (p > p)", INT))
        assert check_derivation(out, INT, cs).ok

    def test_mp_line(self):
        cs = AxiomaticallyAppropriate()
        d = lines((pf("p > p", INT), Axiom("ax3")),
                  (pf("(p > p) => (p => p)", INT), Axiom("ax4")),
                  (pf("p => p", INT), MP(1, 2)))
        t, out = internalize(d, cs)
        assert t == App(Constant("c2"), Constant("c1"))
        assert out.conclusion == Just(t, pf("p => p", INT))
        assert check_derivation(out, INT, cs).ok

    def test_rck_line_internalizes_via_pairing(self):
        cs = AxiomaticallyAppropriate()
        d = lines((pf("q => q", INT), Axiom("ax1")),
                  (pf("p > (q => q)", INT), RCK(1)))
        t, out = internalize(d, cs)
        assert t == Pair(Constant("c1"), pf("p", INT))
        assert check_derivation(out, INT, cs).ok

    def test_rejects_premises(self):
        cs = AxiomaticallyAppropriate()
        with pytest.raises(ValueError, match="premise-free"):
            internalize(lines((pf("p", INT), Hyp()),), cs)

    def test_rejects_explicit_cs(self):
        with pytest.raises(ValueError, match="appropriate"):
            internalize(lines((pf("p > p", INT), Axiom("ax3")),),
                        Explicit((("c", pf("p > p", INT)),)))

    def test_rejects_broken_derivation(self):
        cs = AxiomaticallyAppropriate()
        with pytest.raises(ValueError, match="does not check"):
            internalize(lines((pf("p > q", INT), Axiom("ax3")),), cs)

    def test_term_mirrors_derivation_structure(self):
        rng = random.Random(7)
        for _ in range(10):
            d, mp_count, rcn_count = _random_theorem(rng)
            cs = AxiomaticallyAppropriate()
            t, out = internalize(d, cs)
            res = check_derivation(out, INT, cs)
            assert res.ok and not res.premises
            assert out.conclusion == Just(t, d.conclusion)
            assert _count_nodes(t, App) == mp_count
            assert _count_nodes(t, Pair) == rcn_count


def _count_nodes(term, cls):
    n = isinstance(term, cls)
    for field in dataclasses.fields(term):
        child = getattr(term, field.name)
        if isinstance(child, (Constant, Variable, App, Sum, Bang, Pair)):
            n += _count_nodes(child, cls)
    return n


def _random_theorem(rng):
    """A premise-free LPCint derivation grown by random MP and RCN steps."""
    seeds = ["p > p", "q > q", "(p & q) > (p & q)", "x:p > (x+y):p"]
    first = pf(rng.choice(seeds), INT)
    rows = [Line(1, first, Axiom(match_axiom(first, INT)[0]))]
    mp_count = rcn_count = 0
    for _ in range(rng.randint(1, 4)):
        last = rows[-1]
        if rng.random() < 0.5:
            grown = And(last.formula, last.formula)
            step = MatImp(last.formula, grown)
            rows.append(Line(len(rows) + 1, step, Axiom("ax1")))
            rows.append(Line(len(rows) + 1, grown, MP(last.index, len(rows))))
            mp_count += 1
        else:
            ante = pf(rng.choice(["p", "q", "r", "p & q"]), INT)
            rows.append(Line(len(rows) + 1, Counterfactual(ante, last.formula),
                             RCN(last.index)))
            rcn_count += 1
    return Derivation(tuple(rows)), mp_count, rcn_count


class TestTextFormat:
    def test_round_trip(self):
        d = derive_rck(pf("p"), [pf("q1"), pf("q2"), pf("q3")], pf("r"))
        assert parse_derivation(print_derivation(d), LPC) == d
        # Every tag once; dialect l parses the box.
        text = "\n".join([
            "1. p ; hyp",
            "2. p => p ; ax1",
            "3. []p => p ; axt",
            "4. c:([]p => p) ; cs",
            "5. q ; mp 1 2",
            "6. r > q ; rcn 5",
            "7. (r > p) & (r > q) => r > q ; rck 3",
            "8. (p > q) & (q > p) ; rcea 6",
            "9. []q ; nec 5",
        ])
        assert print_derivation(parse_derivation(text, Dialect.L)) == text

    def test_comments_and_blanks_skipped(self):
        d = parse_derivation("# note\n\n1. p => p ; ax1\n", LPC)
        assert len(d.lines) == 1

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown justification"):
            parse_derivation("1. p => p ; ax99", LPC)

    def test_argument_arity(self):
        with pytest.raises(ValueError, match="expects 2"):
            parse_derivation("1. p ; mp 1", LPC)

    def test_digits_int_rejects_are_not_line_numbers(self):
        # '²' is a digit to str.isdigit but not to int
        with pytest.raises(ValueError, match=r"^line 1: rcn expects 1 line number\(s\)$"):
            parse_derivation("1. p ; rcn ²", LPC)
        with pytest.raises(ValueError, match="^malformed derivation line"):
            parse_derivation("². p ; hyp", LPC)

    def test_missing_justification(self):
        with pytest.raises(ValueError, match="justification"):
            parse_derivation("1. p => p", LPC)

    def test_decreasing_indices(self):
        with pytest.raises(ValueError, match="increasing"):
            parse_derivation("2. p => p ; ax1\n1. q => q ; ax1", LPC)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_derivation("# nothing here\n", LPC)


class TestCsDocuments:
    def test_explicit(self):
        cs = load_constant_specification(
            [{"constant": "c1", "formula": "p > p"}], LPC)
        assert cs == Explicit((("c1", pf("p > p")),))

    def test_appropriate(self):
        cs = load_constant_specification({"mode": "appropriate"}, LPC)
        assert isinstance(cs, AxiomaticallyAppropriate)

    def test_rejects_non_axiom(self):
        with pytest.raises(ValueError, match="axiom instance"):
            load_constant_specification([{"constant": "c", "formula": "p"}], LPC)

    def test_rejects_non_constant(self):
        with pytest.raises(ValueError, match="proof constant"):
            load_constant_specification([{"constant": "x", "formula": "p > p"}], LPC)

    def test_rejects_odd_shapes(self):
        with pytest.raises(ValueError):
            load_constant_specification({"mode": "implicit"}, LPC)
        with pytest.raises(ValueError):
            load_constant_specification([{"constant": "c"}], LPC)
        with pytest.raises(ValueError):
            load_constant_specification("appropriate", LPC)


class TestSemanticSoundness:
    @pytest.mark.parametrize("fixture", ["gettier.json", "aumann.json", "hyperint1.json"])
    def test_cc_lines_hold_in_fixture_models(self, fixture):
        model, _ = load_model(fixture_json(fixture))
        d = derive_cc(pf("p"), pf("q"), pf("r"))
        for line in d.lines:
            for w in sorted(model.normal):
                assert keval(model, w, line.formula), (fixture, line.index, w)


# --- the bit-sliced tautology check against the truth-table enumerator ---------


def _enum_components(f):
    comps = {}

    def scan(g):
        if isinstance(g, Neg):
            scan(g.inner)
        elif isinstance(g, (And, MatImp)):
            scan(g.left)
            scan(g.right)
        else:
            comps.setdefault(g)

    scan(f)
    return list(comps)


def _enum_eval(g, env):
    v = env.get(g)
    if v is not None:
        return v
    if isinstance(g, Neg):
        return not _enum_eval(g.inner, env)
    if isinstance(g, And):
        return _enum_eval(g.left, env) and _enum_eval(g.right, env)
    return (not _enum_eval(g.left, env)) or _enum_eval(g.right, env)


def _enum_tautology(f):
    """The truth-table check the bit-sliced one replaced: every assignment
    to the components, one at a time."""
    comps = _enum_components(f)
    if len(comps) > 16:
        return False
    for bits in itertools.product((False, True), repeat=len(comps)):
        if not _enum_eval(f, dict(zip(comps, bits))):
            return False
    return True


# Twelve opaque components: ten atoms and two non-Boolean formulas.
_LEAVES = [Atom(f"p{i}") for i in range(10)] + [
    Just(Variable("x"), Atom("p0")), Counterfactual(Atom("p1"), Atom("p2"))]
_BOOLEAN = st.recursive(
    st.sampled_from(_LEAVES),
    lambda ch: st.one_of(st.builds(Neg, ch), st.builds(And, ch, ch),
                         st.builds(MatImp, ch, ch)),
    max_leaves=16)
# Shapes that are often tautologies, so both verdicts are drawn.
_SKELETONS = st.one_of(
    _BOOLEAN,
    st.builds(lambda a: MatImp(a, a), _BOOLEAN),
    st.builds(lambda a, b: MatImp(And(a, b), b), _BOOLEAN, _BOOLEAN),
    st.builds(lambda a, b: MatImp(a, MatImp(b, a)), _BOOLEAN, _BOOLEAN),
    st.builds(lambda a, b: Neg(And(a, Neg(b))), _BOOLEAN, _BOOLEAN))


@settings(deadline=None, max_examples=300)
@given(_SKELETONS)
def test_bit_sliced_tautology_matches_the_enumerator(f):
    comps, _ = _boolean_components(f)
    assert comps == _enum_components(f)
    assert len(comps) <= 12
    assert _tautology(f) == _enum_tautology(f)


def test_tautology_check_takes_deep_and_shared_formulas():
    assert sys.getrecursionlimit() < 3000  # the chains are deeper than the limit
    chain = MatImp(Atom("p"), Atom("p"))
    for _ in range(1500):
        chain = Neg(Neg(chain))
    assert match_axiom(chain, LPC) == ("ax1", {})
    assert match_axiom(Neg(chain), LPC) is None
    negs = Atom("p")
    for _ in range(3000):
        negs = Neg(negs)
    assert match_axiom(negs, LPC) is None
    # 2**60 paths from the root, 61 distinct nodes
    shared = Atom("p")
    for _ in range(60):
        shared = And(shared, shared)
    assert match_axiom(MatImp(shared, Atom("p")), LPC) == ("ax1", {})


def test_component_cap_is_kept():
    conj = Atom("p0")
    for i in range(1, 16):
        conj = And(conj, Atom(f"p{i}"))
    assert match_axiom(MatImp(conj, Atom("p0")), LPC) == ("ax1", {})
    assert match_axiom(MatImp(And(conj, Atom("p16")), Atom("p0")), LPC) is None
    # The checker names the cap (see _REASONS), which derive_rck meets at
    # 15 conjuncts: its line 181 is an ax1 line with 17 components.
    res = check_derivation(derive_rck(pf("p"), [pf(f"q{i}") for i in range(15)], pf("r")), LPC)
    assert (res.ok, res.error_line, res.reason) == (
        False, 181, "ax1 is decided only up to 16 components; this line has 17")
