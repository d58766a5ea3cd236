"""Conditional justification logics: syntax, models, proofs, countermodels."""

from condjust.syntax import (
    Dialect,
    Constant, Variable, App, Sum, Bang, Pair, Term,
    Atom, Neg, And, MatImp, Counterfactual, RelImp, RelCf, Just, Box, Formula,
    ParseError, DialectError,
    parse_formula, parse_term, print_formula, print_term,
    subformulas, subterms, terms_of, atoms, closure,
    formula_key, term_key,
)
from condjust.kripke_models import (
    check_dialect_formula,
    RelScheme, KripkeModel, VariantProfile,
    ConstantSpecification, Explicit, AxiomaticallyAppropriate,
    cs_entries, profile_for,
    eval_kripke, truthset, valid_in_model, consequence,
    check_conditions, default_universe,
    ConditionResult, ConditionReport,
    jtb, knowledge,
    load_model, model_to_json,
)
from condjust.routley_models import (
    RoutleyModel, eval_jrc, truthset_jrc, jrc_consequence, jrc_valid,
    check_jrc_conditions, load_routley_model, routley_model_to_json,
)
from condjust.tableau import (
    Budget, Branch, Closed, Open, Exhausted, ProofResult,
    prove, extract_model, verify_result,
)
from condjust.hilbert import (
    Axiom, CS, MP, RCN, RCK, RCEA, Nec, Hyp,
    Justification, Line, Derivation, CheckResult,
    match_axiom, axiom_schemes,
    check_derivation, implication_form,
    derive_cc, derive_rck, expand_rck, internalize,
    parse_derivation, print_derivation, load_constant_specification,
)
from condjust.falsifier import (
    SearchSignature, CrossCheckReport,
    find_countermodel, cross_check, iter_kripke_models, sample_models,
)

# Relational-model eval shadows the builtin, so the package exports it as
# eval_kripke; condjust.kripke_models.eval is the same function.

__all__ = [
    "Dialect",
    "Constant", "Variable", "App", "Sum", "Bang", "Pair", "Term",
    "Atom", "Neg", "And", "MatImp", "Counterfactual", "RelImp", "RelCf",
    "Just", "Box", "Formula",
    "ParseError", "DialectError",
    "parse_formula", "parse_term", "print_formula", "print_term",
    "subformulas", "subterms", "terms_of", "atoms", "closure",
    "formula_key", "term_key", "check_dialect_formula",
    "RelScheme", "KripkeModel", "VariantProfile",
    "ConstantSpecification", "Explicit", "AxiomaticallyAppropriate",
    "cs_entries", "profile_for",
    "eval_kripke", "truthset", "valid_in_model", "consequence",
    "check_conditions", "default_universe",
    "ConditionResult", "ConditionReport",
    "jtb", "knowledge",
    "load_model", "model_to_json",
    "RoutleyModel", "eval_jrc", "truthset_jrc", "jrc_consequence",
    "jrc_valid", "check_jrc_conditions",
    "load_routley_model", "routley_model_to_json",
    "Budget", "Branch", "Closed", "Open", "Exhausted", "ProofResult",
    "prove", "extract_model", "verify_result",
    "Axiom", "CS", "MP", "RCN", "RCK", "RCEA", "Nec", "Hyp",
    "Justification", "Line", "Derivation", "CheckResult",
    "match_axiom", "axiom_schemes",
    "check_derivation", "implication_form",
    "derive_cc", "derive_rck", "expand_rck", "internalize",
    "parse_derivation", "print_derivation", "load_constant_specification",
    "SearchSignature", "CrossCheckReport",
    "find_countermodel", "cross_check", "iter_kripke_models", "sample_models",
]
