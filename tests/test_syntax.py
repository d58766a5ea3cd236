"""Parser, printer, structural helper and hash-consing tests."""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import condjust.syntax as sx
from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, DialectError,
    Just, MatImp, Neg, Pair, ParseError, RelCf, RelImp, Sum, Variable,
    _sorted_by_key, atoms, check_dialect_formula, closure, formula_key,
    node_count, parse_formula, parse_term, print_formula, print_term,
    subformulas, subterms, terms_of,
)
from condjust.falsifier import SearchSignature, find_countermodel
from condjust.hilbert import match_axiom
from condjust.kripke_models import KripkeModel, check_conditions, profile_for
from condjust.routley_models import RoutleyModel, check_jrc_conditions
from condjust.tableau import prove
from util_gen import ast_strategies
import seed_syntax
import seed_walks

LPC = Dialect.LPCplus
p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_application_axiom_shape():
    f = parse_formula("(s:(p > q) & t:p) > (s.t):q", LPC)
    s, t = Variable("s"), Variable("t")
    assert f == Counterfactual(
        And(Just(s, Counterfactual(p, q)), Just(t, p)),
        Just(App(s, t), q),
    )


def test_conditionals_right_associative_and_mixable():
    f = parse_formula("p => q > r", LPC)
    assert f == MatImp(p, Counterfactual(q, r))
    g = parse_formula("p > q > r", LPC)
    assert g == Counterfactual(p, Counterfactual(q, r))


def test_conjunction_left_associative_binds_tighter():
    assert parse_formula("p & q & r", LPC) == And(And(p, q), r)
    assert parse_formula("p & q > r", LPC) == Counterfactual(And(p, q), r)


def test_or_expands():
    assert parse_formula("p | q", LPC) == Neg(And(Neg(p), Neg(q)))


def test_false_true_expand_to_reserved_atom():
    p0 = Atom("p0")
    bot = And(p0, Neg(p0))
    assert parse_formula("false", LPC) == bot
    assert parse_formula("true", LPC) == Neg(bot)
    assert parse_formula("p0", LPC) == p0


def test_material_biconditional_expands():
    f = parse_formula("p == q", LPC)
    assert f == And(MatImp(p, q), MatImp(q, p))


def test_counterfactual_biconditional_expands_per_dialect():
    f = parse_formula("p <=> q", LPC)
    assert f == And(Counterfactual(p, q), Counterfactual(q, p))
    g = parse_formula("p <=> q", Dialect.JRC)
    assert g == And(RelCf(p, q), RelCf(q, p))


def test_fusion_expands():
    f = parse_formula("p @ q", Dialect.JRC)
    assert f == Neg(RelImp(p, Neg(q)))


def test_justification_term_grammar():
    assert parse_formula("s+t:p", LPC) == Just(Sum(Variable("s"), Variable("t")), p)
    assert parse_formula("(s+t):p", LPC) == Just(Sum(Variable("s"), Variable("t")), p)
    assert parse_formula("!x:p", LPC) == Just(Bang(Variable("x")), p)
    assert parse_formula("c.x:p", LPC) == Just(App(Constant("c"), Variable("x")), p)
    assert parse_formula("x:y:p", LPC) == Just(Variable("x"), Just(Variable("y"), p))


def test_term_precedence_sum_loosest():
    t = parse_term("x+y.z", LPC)
    assert t == Sum(Variable("x"), App(Variable("y"), Variable("z")))
    assert parse_term("x+y+z", LPC) == Sum(Sum(Variable("x"), Variable("y")), Variable("z"))


def test_pair_terms():
    f = parse_formula("<s,p>:(p > q)", Dialect.LPCint)
    assert f == Just(Pair(Variable("s"), p), Counterfactual(p, q))
    g = parse_formula("<s,p & q>:r", Dialect.LPCint)
    assert g == Just(Pair(Variable("s"), And(p, q)), r)
    h = parse_formula("<s,(p > q)>:r", Dialect.LPCint)
    assert h == Just(Pair(Variable("s"), Counterfactual(p, q)), r)


@pytest.mark.parametrize(
    "text,dialect",
    [
        ("p ~> q", LPC),
        ("p -> q", LPC),
        ("p @ q", LPC),
        ("p > q", Dialect.JRC),
        ("p => q", Dialect.JRC),
        ("p == q", Dialect.JRC),
        ("!x:p", Dialect.JRC),
        ("x.y:p", Dialect.JRC),
        ("c1:p", Dialect.JRC),
        ("[]p", Dialect.JRC),
        ("[]p", LPC),
        ("<s,p>:q", LPC),
        ("<s,p>:q", Dialect.L),
    ],
)
def test_dialect_errors(text, dialect):
    with pytest.raises(DialectError):
        parse_formula(text, dialect)


def test_dialect_allows():
    parse_formula("p ~> q", Dialect.JRC)
    parse_formula("(x+y):p", Dialect.JRC)
    parse_formula("[](p > q)", Dialect.L)
    parse_formula("<x,p>:q", Dialect.LPCint)


@pytest.mark.parametrize("text", ["x", "y1", "z22", "c", "c1", "c_ax", "p &", "(p", "p ~", "p + q", "5"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text, LPC)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & $", LPC)
    assert exc.value.pos == 4


def test_print_examples():
    assert print_formula(parse_formula("p > q", LPC)) == "p > q"
    assert print_formula(Just(Sum(Variable("x"), Variable("y")), p)) == "(x+y):p"
    f = Just(Pair(Variable("s"), p), Counterfactual(p, q))
    assert print_formula(f) == "<s,p>:(p > q)"
    assert print_formula(Just(Variable("s"), Counterfactual(p, q))) == "s:(p > q)"
    assert print_formula(Neg(And(p, q))) == "~(p & q)"
    assert print_formula(And(Counterfactual(p, q), r)) == "(p > q) & r"
    assert print_term(Sum(Variable("x"), Sum(Variable("y"), Variable("z")))) == "x+(y+z)"
    assert print_term(App(Sum(Variable("x"), Variable("y")), Variable("z"))) == "(x+y).z"


def test_subformulas_terms_opaque():
    f = parse_formula("s:(p > q)", LPC)
    inner = Counterfactual(p, q)
    assert subformulas(f) == {f, inner, p, q}
    g = parse_formula("<s,p>:q", Dialect.LPCint)
    assert subformulas(g) == {g, q}


def test_atoms_include_pair_antecedents():
    g = parse_formula("<s,p>:(q > r)", Dialect.LPCint)
    assert atoms(g) == {"p", "q", "r"}
    assert atoms(parse_formula("x:p & ~q", LPC)) == {"p", "q"}


def test_subterms_and_terms_of():
    f = parse_formula("(s.t):p & !x:q", LPC)
    ts = terms_of(f)
    assert App(Variable("s"), Variable("t")) in ts
    assert Variable("s") in ts and Variable("t") in ts
    assert Bang(Variable("x")) in ts and Variable("x") in ts
    pair = Pair(Variable("s"), Just(Variable("y"), p))
    assert Variable("y") in subterms(pair)


def test_node_count():
    assert node_count(p) == 1
    assert node_count(parse_formula("p & q", LPC)) == 3
    assert node_count(parse_formula("x:p", LPC)) == 3


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_print_parse_roundtrip(dialect, data):
    _, formulas = ast_strategies(dialect)
    f = data.draw(formulas)
    assert parse_formula(print_formula(f), dialect) == f


@pytest.mark.parametrize("dialect", [LPC, Dialect.LPCint])
@given(data=st.data())
def test_term_roundtrip(dialect, data):
    terms, _ = ast_strategies(dialect)
    t = data.draw(terms)
    assert parse_term(print_term(t), dialect) == t


# --- the seed parser and printer as references ---------------------------

# Operators, identifiers of every kind, fragments that open a term with a
# parenthesis or a pair, and characters that start no token.
_SOUP = [
    "~", "[]", "&", "|", "@", "=>", ">", "->", "~>", "==", "<=>", "(", ")",
    "(", ")", "<", ",", ":", "+", ".", "!", "p", "q", "p0", "x", "y1", "s",
    "c", "c1", "c_ax", "false", "true", "(x):", "(s+t).", "<s,", "A", "1",
    "=", "[", "$",
]


def _outcome(parse, text, dialect):
    try:
        return parse(text, dialect)
    except ParseError as exc:
        return type(exc), str(exc), exc.pos


def _same_outcome(text, dialect, term):
    if term:
        new, old = parse_term, seed_syntax.parse_term
    else:
        new, old = parse_formula, seed_syntax.parse_formula
    got, want = _outcome(new, text, dialect), _outcome(old, text, dialect)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got is want


@pytest.mark.parametrize("dialect", list(Dialect))
@given(pieces=st.lists(st.tuples(st.sampled_from(_SOUP), st.sampled_from(["", " "])),
                       max_size=24),
       term=st.booleans())
def test_parser_matches_the_seed_parser_on_token_soup(dialect, pieces, term):
    # The same node, or the same error class, message and offset.
    _same_outcome("".join(tok + gap for tok, gap in pieces), dialect, term)


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_parser_matches_the_seed_parser_on_damaged_formulas(dialect, data):
    _, formulas = ast_strategies(dialect)
    toks = print_formula(data.draw(formulas)).replace("(", " ( ").replace(")", " ) ").split()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(toks)))
        if data.draw(st.booleans()) and at < len(toks):
            del toks[at]
        else:
            toks.insert(at, data.draw(st.sampled_from(_SOUP)))
    _same_outcome(" ".join(toks), dialect, False)


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_printer_matches_the_seed_printer(dialect, data):
    terms, formulas = ast_strategies(dialect)
    f, t = data.draw(formulas), data.draw(terms)
    assert print_formula(f) == seed_syntax.print_formula(f)
    assert print_term(t) == seed_syntax.print_term(t)


_DEEP = 100_000


def _chain(wrap, leaf, depth=_DEEP):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


@pytest.mark.parametrize("shape,dialect", [
    ("~", LPC), ("[]", Dialect.L), ("x:", LPC), ("&", LPC), ("& nested right", LPC),
    (">", LPC), ("> nested left", LPC), ("!", LPC),
])
def test_deep_chains_round_trip(shape, dialect):
    # At the default recursion limit: parsing and printing keep their own
    # stacks.
    f = {
        "~": lambda: _chain(Neg, p),
        "[]": lambda: _chain(Box, p),
        "x:": lambda: _chain(lambda g: Just(Variable("x"), g), p),
        "&": lambda: _chain(lambda g: And(g, q), p),
        "& nested right": lambda: _chain(lambda g: And(q, g), p),
        ">": lambda: _chain(lambda g: Counterfactual(q, g), p),
        "> nested left": lambda: _chain(lambda g: Counterfactual(g, q), p),
        "!": lambda: Just(_chain(Bang, Variable("x")), p),
    }[shape]()
    assert parse_formula(print_formula(f), dialect) is f


def test_deep_redundant_parentheses_parse():
    assert parse_formula("(" * _DEEP + "p" + ")" * _DEEP, LPC) is p
    x = Variable("x")
    assert parse_formula("(" * _DEEP + "x" + ")" * _DEEP + ":p", LPC) is Just(x, p)
    assert parse_term("(" * _DEEP + "x" + ")" * _DEEP, LPC) is x


def test_deep_chains_print_as_the_seed_printer_would():
    # Each shape once had a printer that recursed per level.
    x, y = Variable("x"), Variable("y")
    cases = [
        (_chain(lambda g: And(q, g), p, 3_000), "q & (" * 2_999 + "q & p" + ")" * 2_999),
        (_chain(lambda g: Counterfactual(g, q), p, 3_000), "(" * 2_999 + "p > q" + ") > q" * 2_999),
        (_chain(lambda g: MatImp(g, q), p, 3_000), "(" * 2_999 + "p => q" + ") => q" * 2_999),
        (_chain(lambda g: Neg(And(g, q)), p, 3_000), "~(" * 3_000 + "p" + " & q)" * 3_000),
    ]
    for f, text in cases:
        assert print_formula(f) == text
    terms = [
        (_chain(lambda t: Sum(t, y), x, 3_000), "x" + "+y" * 3_000),
        (_chain(lambda t: Sum(y, t), x, 3_000), "y+(" * 2_999 + "y+x" + ")" * 2_999),
        (_chain(lambda t: App(y, t), x, 3_000), "y.(" * 2_999 + "y.x" + ")" * 2_999),
        (_chain(Bang, x, 3_000), "!" * 3_000 + "x"),
    ]
    for t, text in terms:
        assert print_term(t) == text


# --- hash-consing ---------------------------------------------------------


def test_equal_constructions_are_one_object():
    assert Atom("p") is p
    assert Neg(And(p, q)) is Neg(And(Atom("p"), Atom("q")))
    assert Just(Sum(Variable("x"), Constant("c")), p) is Just(Sum(Variable("x"), Constant("c")), p)
    assert And(p, q) is not And(q, p)
    assert MatImp(p, q) is not Counterfactual(p, q)
    assert Variable("c") is not Constant("c")


def test_keyword_and_positional_construction_agree():
    assert And(left=p, right=q) is And(p, q)
    assert And(p, right=q) is And(p, q)
    assert Atom(name="p") is p
    assert Pair(inner=Variable("s"), antecedent=p) is Pair(Variable("s"), p)
    with pytest.raises(TypeError):
        And(p)
    with pytest.raises(TypeError):
        And(p, q, r)
    with pytest.raises(TypeError):
        And(p, left=q)


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_print_parse_roundtrip_is_identity(dialect, data):
    _, formulas = ast_strategies(dialect)
    f = data.draw(formulas)
    assert parse_formula(print_formula(f), dialect) is f


def test_pickle_and_copy_return_the_interned_node():
    f = parse_formula("<s,p & q>:(p > c.!x:r)", Dialect.LPCint)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
    assert copy.deepcopy({f: [f]}) == {f: [f]}


def test_nodes_are_frozen():
    f = And(p, q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.left = r
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.name = "q"
    assert [fld.name for fld in dataclasses.fields(f)] == ["left", "right"]
    assert And(p, q).left is p


def test_deep_chain_hashes_without_recursion():
    f = p
    for _ in range(10_000):
        f = Neg(f)
    assert hash(f) == hash(f)
    assert f in {f}
    assert len(closure([f])) == 10_001


def test_deep_unary_chains_print_and_get_a_signature():
    f = p
    for _ in range(10_000):
        f = Neg(f)
    assert print_formula(f) == "~" * 10_000 + "p"
    sig = SearchSignature.for_sequent([], f, LPC, 1)
    assert sig.universe[0] is p and sig.universe[-1] is f
    assert node_count(f) == 10_001
    g = Atom("q")
    for i in range(3_000):
        g = Just(Variable("x"), g) if i % 2 else Box(g)
    assert print_formula(g) == "x:[]" * 1_500 + "q"


def test_deep_binary_chains_print():
    conj = q
    for _ in range(2_999):
        conj = And(conj, q)
    assert print_formula(conj) == " & ".join(["q"] * 3_000)
    for cls, op in ((RelCf, "~>"), (Counterfactual, ">"), (MatImp, "=>")):
        cond = q
        for _ in range(2_999):
            cond = cls(q, cond)
        assert print_formula(cond) == f" {op} ".join(["q"] * 3_000)
    mixed = And(Neg(And(p, q)), RelCf(p, And(q, r)))
    assert print_formula(RelImp(mixed, mixed)) == "~(p & q) & (p ~> q & r) -> ~(p & q) & (p ~> q & r)"


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_sorted_by_key_is_the_formula_key_order(dialect, data):
    _, formulas = ast_strategies(dialect)
    universe = closure(data.draw(st.lists(formulas, min_size=1, max_size=3)))
    assert _sorted_by_key(universe) == sorted(universe, key=formula_key)


def test_deep_chain_gets_a_condition_report():
    # The closure used to be sorted by printing every suffix of the chain.
    f = p
    for _ in range(3_000):
        f = Neg(f)
    kripke = KripkeModel(("w0",), {"w0"})
    assert check_conditions(kripke, profile_for(LPC), [f]).ok
    routley = RoutleyModel(("w0",), {"w0"}, {"w0": "w0"}, {("w0", "w0", "w0")})
    assert check_jrc_conditions(routley, [f]).ok


@pytest.mark.parametrize("bad", ["p", None, Variable("x"), And(p, "q")],
                         ids=["str", "None", "term", "nested str"])
def test_print_formula_rejects_a_non_formula(bad):
    with pytest.raises(TypeError, match="not a formula node"):
        print_formula(bad)


@pytest.mark.parametrize("bad", [p, "x", None, Sum(Variable("x"), p)],
                         ids=["formula", "str", "None", "nested formula"])
def test_print_term_rejects_a_non_term(bad):
    with pytest.raises(TypeError, match="not a term node"):
        print_term(bad)


def _mixed_trees():
    """Term and formula strategies that mix the constructors of every
    dialect, so one tree may hold several that a dialect refuses."""
    formula = st.deferred(lambda: formulas)
    leaf = st.one_of(st.builds(Variable, st.sampled_from(["x", "y"])),
                     st.builds(Constant, st.sampled_from(["c", "c1"])))
    terms = st.recursive(leaf, lambda ch: st.one_of(
        st.builds(App, ch, ch), st.builds(Sum, ch, ch), st.builds(Bang, ch),
        st.builds(Pair, ch, formula)), max_leaves=4)
    formulas = st.recursive(st.builds(Atom, st.sampled_from(["p", "q"])), lambda ch: st.one_of(
        st.builds(Neg, ch), st.builds(Box, ch), st.builds(Just, terms, ch),
        *(st.builds(cls, ch, ch) for cls in (And, MatImp, Counterfactual, RelImp, RelCf))),
        max_leaves=8)
    return terms, formulas


def _gate(check, f, dialect):
    try:
        check(f, dialect)
    except ValueError as exc:
        return str(exc)
    return None


_MIXED_TERMS, _MIXED_FORMULAS = _mixed_trees()


@given(data=st.data())
def test_dialect_gate_matches_the_seed_gate(data):
    # Mixed trees mostly meet a refused constructor; trees legal in some
    # dialect also pass the gate of that dialect.
    f = data.draw(st.one_of(
        _MIXED_FORMULAS,
        st.sampled_from(list(Dialect)).flatmap(lambda d: ast_strategies(d)[1])))
    for dialect in Dialect:
        assert _gate(check_dialect_formula, f, dialect) == \
            _gate(seed_walks.check_dialect_formula, f, dialect)


@given(f=_MIXED_FORMULAS, t=_MIXED_TERMS)
def test_field_walks_match_the_seed_walks(f, t):
    assert atoms(f) == seed_walks.atoms(f)
    assert subterms(t) == seed_walks.subterms(t)


@pytest.mark.parametrize("bad", ["p", None, And(Atom("p"), "q")],
                         ids=["str", "None", "nested str"])
def test_dialect_gate_rejects_a_non_node(bad):
    name = "str" if bad is not None else "NoneType"
    with pytest.raises(TypeError, match=f"not a node: {name}"):
        check_dialect_formula(bad, LPC)
    with pytest.raises(TypeError, match=f"not a node: {name}"):
        prove([], bad)
    with pytest.raises(TypeError, match=f"not a node: {name}"):
        find_countermodel([], bad, LPC, 1)
    assert all(isinstance(g, sx._Node) for held in sx._ACCEPTED.values() for g in held)


def test_schemes_with_metavariables_still_match():
    f = parse_formula("x:(p > q) > ((x+c):(p > q))", LPC)
    scheme, subst = match_axiom(f, LPC)
    assert scheme == "ax6"
    assert subst["phi"] is Counterfactual(p, q)
    assert subst["s"] is Variable("x") and subst["t"] is Constant("c")
    g = parse_formula("(s:(p > q) & t:p) > (s.t):q", LPC)
    assert match_axiom(g, LPC)[0] == "ax5"


def test_concurrent_construction_yields_one_node():
    names = [f"thread_probe_{i}" for i in range(2_000)]
    barrier = threading.Barrier(4)
    results = []

    def build():
        barrier.wait(timeout=10)
        results.append([Neg(Atom(name)) for name in names])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for built in zip(*results):
        assert all(node is built[0] for node in built)
