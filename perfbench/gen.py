"""Seeded formula generators, copied from the acceptance criteria.

``random_jrc_formula`` is the criterion-4 generator (relevant sequents for
the prover/enumerator cross-check), ``inst_formula`` and ``scheme_instance``
are the criterion-8 generators (axiom scheme instances for the Kripke
dialects). They live here so the benchmark's inputs do not change when the
tests do.
"""

from __future__ import annotations

from condjust.syntax import (
    And, App, Atom, Bang, Box, Counterfactual, Dialect, Just, MatImp, Neg,
    Pair, RelCf, RelImp, Sum, Variable,
)

ATOMS = ("p", "q")

# criterion 4: the first 16 goals are valid in jrc, the last 4 are the
# paradoxes the relevant semantics refutes
TEMPLATE_GOALS = (
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
)
TEMPLATE_VALID = 16

_VARS = (Variable("s"), Variable("t"))


def _random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.7:
        return rng.choice(_VARS)
    return Sum(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def random_jrc_formula(rng, depth):
    if depth <= 0:
        return Atom(rng.choice(ATOMS))
    pick = rng.random()
    if pick < 0.22:
        return Atom(rng.choice(ATOMS))
    if pick < 0.40:
        return Neg(random_jrc_formula(rng, depth - 1))
    if pick < 0.56:
        return And(random_jrc_formula(rng, depth - 1),
                   random_jrc_formula(rng, depth - 1))
    if pick < 0.74:
        return RelCf(random_jrc_formula(rng, depth - 1),
                     random_jrc_formula(rng, depth - 1))
    if pick < 0.87:
        return RelImp(random_jrc_formula(rng, depth - 1),
                      random_jrc_formula(rng, depth - 1))
    return Just(_random_term(rng, 1), random_jrc_formula(rng, depth - 1))


def random_jrc_sequent(rng):
    """One criterion-4 draw: a depth-3 goal, and a premise 30% of the time."""
    goal = random_jrc_formula(rng, 3)
    premises = (random_jrc_formula(rng, 2),) if rng.random() < 0.3 else ()
    return premises, goal


# --- criterion 8 ---------------------------------------------------------------

KRIPKE_DIALECTS = (
    Dialect.LPCplus, Dialect.LPCint, Dialect.LPCprime, Dialect.LPCKplus,
    Dialect.J4Cplus, Dialect.JCplus, Dialect.L,
)

BASE_TERMS = (Variable("x"), Variable("y"))

_TAUTS = (
    lambda a, b, c: MatImp(a, MatImp(b, a)),
    lambda a, b, c: MatImp(And(a, b), a),
    lambda a, b, c: MatImp(And(a, b), b),
    lambda a, b, c: MatImp(a, MatImp(b, And(a, b))),
    lambda a, b, c: MatImp(MatImp(a, MatImp(b, c)),
                           MatImp(MatImp(a, b), MatImp(a, c))),
    lambda a, b, c: MatImp(MatImp(Neg(a), Neg(b)), MatImp(b, a)),
)


def inst_formula(rng, dialect, depth):
    if depth <= 0:
        return Atom(rng.choice(ATOMS))
    pick = rng.random()
    if pick < 0.25:
        return Atom(rng.choice(ATOMS))
    if pick < 0.45:
        return Neg(inst_formula(rng, dialect, depth - 1))
    if pick < 0.62:
        return And(inst_formula(rng, dialect, depth - 1),
                   inst_formula(rng, dialect, depth - 1))
    if pick < 0.76:
        return MatImp(inst_formula(rng, dialect, depth - 1),
                      inst_formula(rng, dialect, depth - 1))
    if pick < 0.88:
        return Counterfactual(inst_formula(rng, dialect, depth - 1),
                              inst_formula(rng, dialect, depth - 1))
    if dialect is Dialect.L and pick < 0.94:
        return Box(inst_formula(rng, dialect, depth - 1))
    return Just(rng.choice(BASE_TERMS), inst_formula(rng, dialect, depth - 1))


def scheme_instance(scheme, rng, dialect, pair_pool):
    f = lambda: inst_formula(rng, dialect, 2)
    s, t = rng.choice(BASE_TERMS), rng.choice(BASE_TERMS)
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
    raise ValueError(f"no generator for scheme {scheme}")


# --- criterion 7 ---------------------------------------------------------------

# (name, fixture, line, replacement): single-line mutations of the bundled
# derivations, each rejected at exactly that line
MUTATIONS = (
    ("cc-taut-broken", "lemma_cc.txt", 1, "1. q => (r => (q & p)) ; ax1"),
    ("cc-rcn-consequent", "lemma_cc.txt", 2, "2. p > (q => (r => (q & q))) ; rcn 1"),
    ("cc-rcn-retagged-mp", "lemma_cc.txt", 2, "2. p > (q => (r => (q & r))) ; mp 1 1"),
    ("cc-ax2-corrupted", "lemma_cc.txt", 3,
     "3. (p > (q => (r => (q & r)))) => ((p > r) => (p > (r => (q & r)))) ; ax2"),
    ("cc-mp-forward-citation", "lemma_cc.txt", 4, "4. (p > q) => (p > (r => (q & r))) ; mp 2 5"),
    ("cc-mp-swapped-arguments", "lemma_cc.txt", 4, "4. (p > q) => (p > (r => (q & r))) ; mp 3 2"),
    ("cc-mp-wrong-consequence", "lemma_cc.txt", 7,
     "7. ((p > (r => (q & r))) => ((p > r) => (p > (q & r)))) => ((p > q) => (p > (q & r))) ; mp 4 6"),
    ("cc-glue-not-tautology", "lemma_cc.txt", 9,
     "9. ((p > q) => ((p > r) => (p > (q & r)))) => (((p > q) & (p > q)) => (p > (q & r))) ; ax1"),
    ("cc-conclusion-strengthened", "lemma_cc.txt", 10, "10. (p > q) => (p > (q & r)) ; mp 8 9"),
    ("rck-late-hypothesis", "theorem_rck.txt", 5, "5. q1 => (q2 => (q1 & q2)) ; hyp"),
    ("rck-rcn-mismatch", "theorem_rck.txt", 2, "2. p > ((q1 & q2) => q1) ; rcn 1"),
    ("rck-ax2-corrupted", "theorem_rck.txt", 3,
     "3. (p > ((q1 & q2) => r)) => ((p > (q1 & q2)) => (p > q1)) ; ax2"),
    ("rck-mp-wrong-premise", "theorem_rck.txt", 4, "4. (p > (q1 & q2)) => (p > r) ; mp 1 3"),
    ("rck-conclusion-corrupted", "theorem_rck.txt", 17,
     "17. ((p > q1) & (p > q2)) => (p > q2) ; mp 4 16"),
    ("gettier-unlisted-constant", "gettier_derivation.txt", 4, "4. c2:(p => (p | q)) ; cs"),
    ("gettier-variable-as-constant", "gettier_derivation.txt", 4, "4. d:(p => (p | q)) ; cs"),
    ("gettier-taut-broken", "gettier_derivation.txt", 5, "5. q => (p & q) ; ax1"),
    ("gettier-application-swapped", "gettier_derivation.txt", 10,
     "10. (c:(p => (p | q)) & x:p) > (x.c):(p | q) ; ax5"),
    ("gettier-mp-wrong-citation", "gettier_derivation.txt", 13, "13. (c.x):(p | q) ; mp 9 11"),
    ("gettier-conjuncts-swapped", "gettier_derivation.txt", 16,
     "16. (c.x):(p | q) & (p | q) ; mp 13 15"),
)

INTERNALIZE_POOL = ("p", "q", "~p", "p & q", "p => q", "p > q")


def mutate(text: str, index: int, replacement: str) -> str:
    out = []
    for raw in text.splitlines():
        head = raw.strip().partition(".")[0]
        out.append(replacement if head.isdigit() and int(head) == index else raw)
    return "\n".join(out)
