"""The four workloads: seeded inputs, the items built from them, known answers.

``generate(name, seed)`` draws a workload's inputs and prints them; the
printed records are all a run depends on, and their digest identifies them.
``build(records)`` parses the records into items. An item is one
sequent, derivation or scheme instance brought to a verdict: ``run`` makes
the library calls (looked up on their modules at call time, so a tracer can
wrap them), ``check`` compares the result with the known answer, and
``verdict`` is a compact form of the result that two passes must agree on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import condjust.falsifier as fz
import condjust.hilbert as hb
import condjust.kripke_models as km
import condjust.routley_models as rm
import condjust.syntax as sx
import condjust.tableau as tb
from condjust.fixtures import fixture_json, fixture_text
from condjust.syntax import Atom, Dialect, Just, MatImp, Neg, Counterfactual, Variable

import gen

JRC, LPC, INT = Dialect.JRC, Dialect.LPCplus, Dialect.LPCint

# Pool sizes per seed. Random draws are stratified: each stratum of search
# size gets a fixed count, sized so that the median and the 90th percentile
# of the per-item times fall inside a stratum rather than on its edge.
# crosscheck and proofs: random jrc draws per vocabulary size (atoms plus
# modal subformulas), after the 20 template goals
CROSSCHECK_RANDOM = {1: 700, 2: 560, 3: 700}
PROOFS_RANDOM = {1: 1200, 2: 1200, 3: 1200}
PROOFS_CHAIN_DEPTHS = range(2, 13)
PROOFS_INTERNALIZE = 20
PROOFS_RCK_WIDTHS = range(1, 8)
# kripke_search: random goals per dialect, by the largest search space
# (in models) of their stratum
SEARCH_RANDOM = {1 << 6: 60, 1 << 8: 80, 1 << 12: 60}
SEARCH_SCHEMES = 1           # per dialect
SOUNDNESS_PER_SCHEME = 80    # per scheme and dialect
SAMPLED_MODELS = 20

BOUND = 3
# The strata cap the search space of random draws. A draw with no
# countermodel walks its whole space, so without a cap the few large ones
# (a few jrc draws in a thousand take 0.4-3.4 s) decide a seed's throughput;
# the template goals, scheme instances and false > p carry the large full
# walks at a fixed count. Random Kripke draws are premise-free goals for the
# same reason: nearly all of them have a countermodel, where a third of the
# draws with a premise are vacuously valid.
SCHEME_SPACE_BAND = (1 << 10, 1 << 12)  # a scheme instance's full walk, in models
CERT_CLOSURE_BAND = (15, 15)        # formulas the sampled models are certified over

CROSSCHECK_BUDGET = tb.Budget(6, 500)

WORKLOADS = ("crosscheck", "proofs", "kripke_search", "soundness")


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    verdict: Callable[[object], object]
    decided: Callable[[object], bool] = lambda result: True


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _pf(text: str, dialect: Dialect):
    return sx.parse_formula(text, dialect)


def _label(premises, goal) -> str:
    return f"{', '.join(premises)} |- {goal}" if premises else goal


def jrc_vocabulary(premises, goal) -> int:
    """Atoms plus modal subformulas: the jrc search sweeps 2^(k * this)
    truth assignments per star involution at k states."""
    sig = fz.SearchSignature.for_sequent(premises, goal, JRC, BOUND)
    modal = sum(isinstance(f, (sx.RelImp, sx.RelCf, Just)) for f in sig.universe)
    return modal + len(sig.atoms)


def search_space(premises, goal, dialect: Dialect, bound: int = BOUND) -> int:
    """Models the relational search walks when nothing refutes the sequent,
    counted from the public SearchSignature the way iter_kripke_models
    lays out its membership slots."""
    sig = fz.SearchSignature.for_sequent(premises, goal, dialect, bound)
    total = 0
    for k in range(1, bound + 1):
        for n in range(1, k + 1):
            slots = (len(sig.atoms) * n + len(sig.universe) * (k - n)
                     + len(sig.terms) * k * k + len(sig.antecedents) * n * n)
            total += 1 << slots
    return total


# --- crosscheck ----------------------------------------------------------------


def compound_antecedent(premises, goal) -> bool:
    """Whether a conditional of the sequent has a binary connective in its
    antecedent, as in (~q -> ~q) ~> q."""
    binary = (sx.And, sx.MatImp, sx.RelImp, sx.RelCf)
    return any(isinstance(f, sx.RelCf)
               and any(isinstance(g, binary) for g in sx.subformulas(f.left))
               for p in (*premises, goal) for f in sx.subformulas(p))


def _jrc_sequents(rng, quotas: dict[int, int], skip=None):
    """Criterion-4 draw: the template goals, then random sequents, a fixed
    count per vocabulary size, leaving out those for which `skip` holds."""
    out = [([], goal, "valid" if i < gen.TEMPLATE_VALID else "invalid")
           for i, goal in enumerate(gen.TEMPLATE_GOALS)]
    left = dict(quotas)
    while any(left.values()):
        premises, goal = gen.random_jrc_sequent(rng)
        if skip and skip(premises, goal):
            continue
        size = jrc_vocabulary(premises, goal)
        if not left.get(size):
            continue
        left[size] -= 1
        out.append(([sx.print_formula(p) for p in premises],
                    sx.print_formula(goal), None))
    return out


def _verify_jrc_countermodel(found, premises, goal) -> str | None:
    m, w = found
    if not rm.check_jrc_conditions(m, (*premises, goal)).ok:
        return "countermodel violates a jrc condition"
    if not all(rm.eval_jrc(m, w, p) for p in premises):
        return "countermodel falsifies a premise"
    if rm.eval_jrc(m, w, goal):
        return "countermodel satisfies the goal"
    return None


def _crosscheck_item(premises_text, goal_text, known) -> Item:
    premises = tuple(_pf(t, JRC) for t in premises_text)
    goal = _pf(goal_text, JRC)

    def run():
        return fz.cross_check(premises, goal, CROSSCHECK_BUDGET, BOUND)

    def check(rep):
        if rep.contradiction:
            return f"contradiction: {rep.detail}"
        if rep.countermodel is not None:
            bad = _verify_jrc_countermodel(rep.countermodel, premises, goal)
            if bad:
                return bad
        if known == "valid" and not (isinstance(rep.proof, tb.Closed)
                                     and rep.countermodel is None):
            return "valid template goal not proved"
        if known == "invalid" and (isinstance(rep.proof, tb.Closed)
                                   or rep.countermodel is None):
            return "invalid template goal not refuted"
        return None

    return Item(
        _label(premises_text, goal_text), run, check,
        verdict=lambda rep: (type(rep.proof).__name__, rep.verdict,
                             rep.countermodel is not None),
        decided=lambda rep: rep.verdict != "inconclusive")


# --- proofs ----------------------------------------------------------------------


def _proofs_records(rng):
    # Random draws with a compound antecedent are left out: about one in
    # 30 of them exhausts the default budget, at 0.05-0.2 s, so their count
    # moved throughput by 10% from seed to seed. The fixed family below
    # carries that class instead, at a fixed count.
    records = [("prove", ps, g, known) for ps, g, known
               in _jrc_sequents(rng, PROOFS_RANDOM, skip=compound_antecedent)]
    for op in ("->", "~>", "&"):
        for x in ("p", "~p"):
            for y in ("p", "~p"):
                records.append(("prove", [], f"({x} {op} {y}) ~> p", None))
    # right-nested conditionals: decided up to depth 8, past the default
    # budget of 8 fresh labels beyond it
    for depth in PROOFS_CHAIN_DEPTHS:
        chain = Atom(rng.choice(gen.ATOMS))
        for _ in range(depth - 1):
            chain = sx.RelCf(Atom(rng.choice(gen.ATOMS)), chain)
        records.append(("prove", [], sx.print_formula(chain), None))
    records.append(("derivation", "lemma_cc", fixture_text("lemma_cc.txt"), None, 0))
    records.append(("derivation", "theorem_rck", fixture_text("theorem_rck.txt"), None, 0))
    records.append(("derivation", "gettier", fixture_text("gettier_derivation.txt"),
                    "gettier_cs.json", 0))
    for name, fixture, line, replacement in gen.MUTATIONS:
        cs = "gettier_cs.json"
        records.append(("derivation", name,
                        gen.mutate(fixture_text(fixture), line, replacement), cs, line))
    for _ in range(PROOFS_INTERNALIZE):
        records.append(("internalize", *(rng.choice(gen.INTERNALIZE_POOL)
                                         for _ in range(3))))
    shapes = (lambda a: a, Neg, lambda a: Just(Variable("x"), a),
              lambda a: Counterfactual(Atom("p"), a))
    # each width once with each phi, over a balanced mix of psi shapes in a
    # random order: independent draws moved the rck time by 10% per seed
    for width in PROOFS_RCK_WIDTHS:
        for phi in (Atom("p"), Neg(Atom("p")), Just(Variable("y"), Atom("p"))):
            start = rng.randrange(len(shapes))
            mix = [shapes[(start + i) % len(shapes)] for i in range(width)]
            rng.shuffle(mix)
            psis = [shape(Atom(f"q{i + 1}")) for i, shape in enumerate(mix)]
            records.append(("rck", sx.print_formula(phi),
                            [sx.print_formula(f) for f in psis], "r"))
    return records


def _prove_item(premises_text, goal_text, known) -> Item:
    premises = tuple(_pf(t, JRC) for t in premises_text)
    goal = _pf(goal_text, JRC)

    def run():
        r = tb.prove(premises, goal)
        verified = tb.verify_result(r, premises, goal) if isinstance(r, tb.Open) else None
        return r, verified

    def check(result):
        r, verified = result
        if isinstance(r, tb.Open) and not verified:
            return "open branch extraction failed verification"
        if known == "valid" and not isinstance(r, tb.Closed):
            return f"valid template goal ended {type(r).__name__}"
        if known == "invalid" and not isinstance(r, tb.Open):
            return f"invalid template goal ended {type(r).__name__}"
        return None

    return Item(
        _label(premises_text, goal_text), run, check,
        verdict=lambda result: (type(result[0]).__name__, result[1]),
        decided=lambda result: not isinstance(result[0], tb.Exhausted))


def _derivation_item(name, text, cs_name, reject_line) -> Item:
    d = hb.parse_derivation(text, LPC)
    cs = hb.load_constant_specification(fixture_json(cs_name), LPC) if cs_name else None

    def check(res):
        if not reject_line:
            return None if res.ok else f"rejected at line {res.error_line}: {res.reason}"
        if res.ok:
            return f"mutation at line {reject_line} accepted"
        if res.error_line != reject_line:
            return f"mutation at line {reject_line} rejected at line {res.error_line}"
        return None

    return Item(name, lambda: hb.check_derivation(d, LPC, cs), check,
                verdict=lambda res: (res.ok, res.error_line))


def _internalize_item(phi_text, psi1_text, psi2_text) -> Item:
    phi, psi1, psi2 = (_pf(t, INT) for t in (phi_text, psi1_text, psi2_text))

    def run():
        d = hb.derive_cc(phi, psi1, psi2)
        base = hb.check_derivation(d, INT)
        cs = km.AxiomaticallyAppropriate()
        term, out = hb.internalize(d, cs)
        return d, base, term, out, hb.check_derivation(out, INT, cs)

    def check(result):
        d, base, term, out, res = result
        if not base.ok:
            return f"derived lemma rejected at line {base.error_line}"
        if not res.ok or res.premises:
            return "internalized derivation does not check premise-free"
        if out.conclusion != Just(term, d.conclusion):
            return "internalized derivation does not conclude t:phi"
        return None

    return Item(f"internalize cc({phi_text}; {psi1_text}; {psi2_text})", run, check,
                verdict=lambda result: (result[1].ok, result[4].ok))


def _rck_item(phi_text, psi_texts, psi_text) -> Item:
    phi, psi = _pf(phi_text, LPC), _pf(psi_text, LPC)
    psis = [_pf(t, LPC) for t in psi_texts]
    hyp = psis[0]
    for f in psis[1:]:
        hyp = sx.And(hyp, f)
    hyp = MatImp(hyp, psi)

    def run():
        return hb.check_derivation(hb.derive_rck(phi, psis, psi), LPC)

    def check(res):
        if not res.ok:
            return f"derived rule rejected at line {res.error_line}: {res.reason}"
        if res.premises != (hyp,):
            return "derived rule rests on the wrong hypothesis"
        return None

    return Item(f"rck width {len(psis)}", run, check,
                verdict=lambda res: (res.ok, res.error_line))


# --- kripke_search ---------------------------------------------------------------


def _search_records(rng):
    records = []
    for d in gen.KRIPKE_DIALECTS:
        left = dict(SEARCH_RANDOM)
        while any(left.values()):
            goal = gen.inst_formula(rng, d, 2)
            size = search_space([], goal, d)
            stratum = min((cap for cap in left if size <= cap), default=None)
            if not left.get(stratum):
                continue
            left[stratum] -= 1
            records.append(("falsify", d.value, [], sx.print_formula(goal), None, size))
        pair_pool = [gen.inst_formula(rng, d, 1) for _ in range(6)]
        schemes = hb.axiom_schemes(d)
        kept = 0
        while kept < SEARCH_SCHEMES:
            goal = gen.scheme_instance(rng.choice(schemes), rng, d, pair_pool)
            size = search_space([], goal, d)
            lo, hi = SCHEME_SPACE_BAND
            if not lo <= size <= hi:
                continue
            records.append(("falsify", d.value, [], sx.print_formula(goal), "valid", size))
            kept += 1
    bot_p = "false > p"
    size = search_space([], _pf(bot_p, LPC), LPC)
    records.append(("falsify", LPC.value, [], bot_p, "valid", size))
    records.append(("enumerate", LPC.value, bot_p))
    return records


def _falsify_item(dialect_name, premises_text, goal_text, known, size) -> Item:
    d = Dialect(dialect_name)
    premises = tuple(_pf(t, d) for t in premises_text)
    goal = _pf(goal_text, d)
    profile = km.profile_for(d)

    def check(found):
        if found is None:
            return None
        if known == "valid":
            return "countermodel returned for a valid sequent"
        m, w = found
        if w not in m.normal:
            return "countermodel witness is not a normal state"
        if not km.check_conditions(m, profile, [*premises, goal]).ok:
            return "countermodel violates a frame condition"
        if not all(km.eval(m, w, p) for p in premises) or km.eval(m, w, goal):
            return "countermodel does not refute the sequent"
        return None

    return Item(f"[{dialect_name}] {_label(premises_text, goal_text)}",
                lambda: fz.find_countermodel(premises, goal, d, BOUND), check,
                verdict=lambda found: found is None)


def _enumerate_item(dialect_name, text) -> Item:
    d = Dialect(dialect_name)
    f = _pf(text, d)
    profile = km.profile_for(d)

    def run():
        sig = fz.SearchSignature.for_sequent([], f, d, BOUND)
        refuting = passing_refuters = 0
        passing_validator = False
        for m in fz.iter_kripke_models(sig):
            if km.valid_in_model(m, f):
                if not passing_validator and km.check_conditions(m, profile, [f]).ok:
                    passing_validator = True
                continue
            refuting += 1
            if km.check_conditions(m, profile, [f]).ok:
                passing_refuters += 1
        return refuting, passing_refuters, passing_validator

    def check(result):
        refuting, passing_refuters, passing_validator = result
        if passing_refuters:
            return f"{passing_refuters} refuting frames pass every condition"
        if not refuting or not passing_validator:
            return "enumeration lost its refuting or its passing frames"
        return None

    return Item(f"[{dialect_name}] enumerate {text}", run, check, verdict=lambda r: r)


# --- soundness -----------------------------------------------------------------------


def _soundness_records(rng):
    records = []
    for d in gen.KRIPKE_DIALECTS:
        pair_pool = [gen.inst_formula(rng, d, 1) for _ in range(6)]
        instances = [(scheme, sx.print_formula(gen.scheme_instance(scheme, rng, d, pair_pool)))
                     for scheme in hb.axiom_schemes(d)
                     for _ in range(SOUNDNESS_PER_SCHEME)]
        lo, hi = CERT_CLOSURE_BAND
        for _ in range(10_000):
            cert = [text for _, text in rng.sample(instances, 2)]
            if lo <= len(sx.closure(_pf(t, d) for t in cert)) <= hi:
                break
        else:
            raise RuntimeError(f"no certification pair in the closure band for {d.value}")
        records.append(("models", d.value, cert, rng.randrange(1 << 32)))
        records.extend(("instance", d.value, scheme, text) for scheme, text in instances)
    return records


def _models_item(dialect_name, cert_text, sample_seed, instances, sample) -> Item:
    d = Dialect(dialect_name)
    profile = km.profile_for(d)
    cert = [_pf(t, d) for t in cert_text]
    term_set = set()
    for f in instances:
        for t in sx.terms_of(f):
            term_set |= sx.subterms(t)
    terms = sorted(term_set, key=sx.term_key)

    def run():
        models = fz.sample_models(d, gen.ATOMS, terms, SAMPLED_MODELS,
                                  random.Random(sample_seed))
        sample.models = models
        return models, [km.check_conditions(m, profile, cert).ok for m in models]

    def check(result):
        models, passed = result
        if len(models) != SAMPLED_MODELS or any(len(m.states) > BOUND for m in models):
            return "sampled models break the requested count or size"
        if not all(passed):
            return f"{passed.count(False)} sampled models fail the {profile.name} profile"
        return None

    return Item(f"[{d.value}] sample {SAMPLED_MODELS} models", run, check,
                verdict=lambda result: tuple(result[1]))


def _instance_item(dialect_name, scheme, text, sample, f) -> Item:
    d = Dialect(dialect_name)

    def run():
        return hb.match_axiom(f, d), [km.valid_in_model(m, f) for m in sample.models]

    def check(result):
        match, valid = result
        if match is None:
            return "instance matches no axiom scheme"
        if not all(valid):
            return f"instance fails on {valid.count(False)} sampled models"
        return None

    return Item(f"[{d.value}] {scheme}: {text}", run, check,
                verdict=lambda result: (result[0] is not None, tuple(result[1])))


# --- entry points -------------------------------------------------------------------------


def generate(name: str, seed: int) -> list:
    """The workload's inputs for this seed, as printed records."""
    rng = random.Random(f"{name}:{seed}")
    if name == "crosscheck":
        return [("crosscheck", ps, g, known) for ps, g, known
                in _jrc_sequents(rng, CROSSCHECK_RANDOM)]
    if name == "proofs":
        return _proofs_records(rng)
    if name == "kripke_search":
        return _search_records(rng)
    if name == "soundness":
        return _soundness_records(rng)
    raise ValueError(f"unknown workload {name!r}")


def build(records) -> list[Item]:
    """Parse printed records into items."""
    makers = {
        "crosscheck": _crosscheck_item,
        "prove": _prove_item,
        "derivation": _derivation_item,
        "internalize": _internalize_item,
        "rck": _rck_item,
        "falsify": _falsify_item,
        "enumerate": _enumerate_item,
    }
    items = []
    sample = None
    for i, rec in enumerate(records):
        kind = rec[0]
        if kind == "models":
            # the models sampled by this item serve the instances after it,
            # which are parsed once, here
            sample = SimpleNamespace(models=[])
            instances = []
            for nxt in records[i + 1:]:
                if nxt[0] != "instance":
                    break
                instances.append(_pf(nxt[3], Dialect(nxt[1])))
            items.append(_models_item(*rec[1:], instances, sample))
            parsed = iter(instances)
        elif kind == "instance":
            items.append(_instance_item(*rec[1:], sample, next(parsed)))
        else:
            items.append(makers[kind](*rec[1:]))
    return items


def input_formulas(records) -> list:
    """Every formula a workload's records print, parsed; the hash probe's base."""
    out = []
    for rec in records:
        kind = rec[0]
        if kind in ("crosscheck", "prove"):
            out.extend(_pf(t, JRC) for t in (*rec[1], rec[2]))
        elif kind == "falsify":
            d = Dialect(rec[1])
            out.extend(_pf(t, d) for t in (*rec[2], rec[3]))
        elif kind == "enumerate":
            out.append(_pf(rec[2], Dialect(rec[1])))
        elif kind == "instance":
            out.append(_pf(rec[3], Dialect(rec[1])))
        elif kind == "models":
            out.extend(_pf(t, Dialect(rec[1])) for t in rec[2])
        elif kind == "derivation":
            out.extend(line.formula for line in hb.parse_derivation(rec[2], LPC).lines)
        elif kind == "internalize":
            out.extend(_pf(t, INT) for t in rec[1:])
        elif kind == "rck":
            out.extend(_pf(t, LPC) for t in (rec[1], *rec[2], rec[3]))
    return out


def facts(record, result) -> dict:
    """What one item's verdict says about its input, for the input
    properties: no countermodel (a full sweep or walk), an Exhausted proof,
    an inconclusive cross-check, and the Kripke search-space size."""
    kind = record[0]
    if kind == "crosscheck":
        return {"no_countermodel": result.countermodel is None,
                "exhausted": isinstance(result.proof, tb.Exhausted),
                "inconclusive": result.verdict == "inconclusive"}
    if kind == "prove":
        return {"exhausted": isinstance(result[0], tb.Exhausted),
                "open": isinstance(result[0], tb.Open)}
    if kind == "falsify":
        return {"no_countermodel": result is None, "space": record[5]}
    return {}


def share(records, index: int, count: int) -> list[int]:
    """Positions of the records that worker `index` of `count` runs. A
    models record and the instances after it stay together; the groups are
    dealt out in turn, so heavy items spread over the workers."""
    group = -1
    out = []
    for i, rec in enumerate(records):
        if rec[0] != "instance":
            group += 1
        if group % count == index:
            out.append(i)
    return out
