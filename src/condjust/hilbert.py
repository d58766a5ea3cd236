"""Hilbert-style proof machinery for the counterfactual dialects.

An axiom matcher recognizes scheme instances (structural schemes first, the
tautology scheme by truth table last), a line checker validates derivations
built from axioms, constant-specification lines, modus ponens, antecedent
introduction, and the dialect-specific extra rules. The derived rules CC and
RCK are emitted and checked as macros over the primitive kernel, and the
internalization transformer rebuilds a derivation into one justifying its
conclusion with an explicit term.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from condjust.kripke_models import (
    AxiomaticallyAppropriate, ConstantSpecification, Explicit, _slice_patterns,
)
from condjust.syntax import (
    And, App, Bang, Box, Constant, Counterfactual, Dialect, Formula, Just,
    MatImp, Neg, Pair, Sum, Term, check_dialect_formula, parse_formula,
    parse_term, print_formula,
)

__all__ = [
    "Axiom", "CS", "MP", "RCN", "RCK", "RCEA", "Nec", "Hyp",
    "Justification", "Line", "Derivation", "CheckResult",
    "match_axiom", "axiom_schemes",
    "check_derivation", "implication_form",
    "derive_cc", "derive_rck", "expand_rck",
    "internalize",
    "parse_derivation", "print_derivation",
    "load_constant_specification",
]


# --- justification tags ---------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    scheme: str


@dataclass(frozen=True)
class CS:
    """The line is c:φ supplied by the ambient constant specification."""


@dataclass(frozen=True)
class MP:
    i: int  # line holding φ
    j: int  # line holding φ => χ


@dataclass(frozen=True)
class RCN:
    i: int


@dataclass(frozen=True)
class RCK:
    """Derived-rule step; antecedent and conjunct count are inferred from the
    line when omitted, and validated against the expansion either way."""

    i: int
    antecedent: Formula | None = None
    count: int | None = None


@dataclass(frozen=True)
class RCEA:
    i: int


@dataclass(frozen=True)
class Nec:
    i: int


@dataclass(frozen=True)
class Hyp:
    pass


Justification = Axiom | CS | MP | RCN | RCK | RCEA | Nec | Hyp

# The rules other than Axiom, each with the fields naming the lines it
# cites, i and j. In the text format a rule's tag is its class name in
# lower case, followed by those lines.
_CITES = {cls: tuple(f.name for f in fields(cls) if f.name in ("i", "j"))
          for cls in (CS, Hyp, MP, RCN, RCK, RCEA, Nec)}
_RULES = {cls.__name__.lower(): cls for cls in _CITES}
# The two rules that only one dialect has.
_RULE_DIALECT = {RCEA: Dialect.LPCKplus, Nec: Dialect.L}


def _tag(j: Justification) -> str:
    """j in the text format: an axiom's scheme, else the rule's tag followed
    by the lines it cites."""
    if isinstance(j, Axiom):
        return j.scheme
    return " ".join([type(j).__name__.lower(), *(str(getattr(j, n)) for n in _CITES[type(j)])])


def _renumber(j: Justification, new) -> Justification:
    """j citing line new(n) wherever it cites line n."""
    cites = _CITES.get(type(j))
    return replace(j, **{name: new(getattr(j, name)) for name in cites}) if cites else j


@dataclass(frozen=True)
class Line:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty derivation has no conclusion")
        return self.lines[-1].formula


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    error_line: int | None = None
    reason: str | None = None
    premises: tuple[Formula, ...] = ()


# --- axiom schemes --------------------------------------------------------


@dataclass(frozen=True)
class _MVar:
    name: str


_P, _Q, _R = _MVar("phi"), _MVar("psi"), _MVar("chi")
_S, _T = _MVar("s"), _MVar("t")

# The application scheme has two admitted inner shapes: the conditional form
# and the material form the internalization argument detaches from.
_TEMPLATES: dict[str, tuple] = {
    "ax2": (MatImp(Counterfactual(_P, MatImp(_Q, _R)),
                   MatImp(Counterfactual(_P, _Q), Counterfactual(_P, _R))),),
    "ax3": (Counterfactual(_P, _P),),
    "ax4": (MatImp(Counterfactual(_P, _Q), MatImp(_P, _Q)),),
    "ax4p": (Counterfactual(Just(_S, Counterfactual(_P, _Q)),
                            Counterfactual(Just(_T, _P), Just(App(_S, _T), _Q))),),
    "ax5": (Counterfactual(And(Just(_S, Counterfactual(_P, _Q)), Just(_T, _P)),
                           Just(App(_S, _T), _Q)),
            Counterfactual(And(Just(_S, MatImp(_P, _Q)), Just(_T, _P)),
                           Just(App(_S, _T), _Q))),
    "ax6": (Counterfactual(Just(_S, _P), Just(Sum(_S, _T), _P)),),
    "ax7": (Counterfactual(Just(_T, _P), Just(Sum(_S, _T), _P)),),
    "ax8": (Counterfactual(Just(_T, _P), _P),),
    "ax9": (Counterfactual(Just(_T, _P), Just(Bang(_T), Just(_T, _P))),),
    "ax10": (MatImp(Just(_T, _Q), Just(Pair(_T, _P), Counterfactual(_P, _Q))),),
    "axk": (MatImp(Box(MatImp(_P, _Q)), MatImp(Box(_P), Box(_Q))),),
    "axt": (MatImp(Box(_P), _P),),
    "ax4s": (MatImp(Box(_P), Box(Box(_P))),),
    "ax5s": (MatImp(Neg(Box(_P)), Box(Neg(Box(_P)))),),
}

_STRUCTURAL: dict[Dialect, tuple[str, ...]] = {
    Dialect.LPCplus: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax8", "ax9"),
    Dialect.LPCint: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax8", "ax9", "ax10"),
    Dialect.LPCprime: ("ax2", "ax3", "ax4", "ax4p", "ax6", "ax7", "ax8", "ax9"),
    Dialect.LPCKplus: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax8", "ax9"),
    Dialect.J4Cplus: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax9"),
    Dialect.JCplus: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7"),
    Dialect.L: ("ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax9",
                "axk", "axt", "ax4s", "ax5s"),
}

_TAUT_VAR_CAP = 16


def _structural_schemes(dialect: Dialect) -> tuple[str, ...]:
    schemes = _STRUCTURAL.get(dialect)
    if schemes is None:
        raise ValueError(f"dialect {dialect.value} has no Hilbert axiomatization")
    return schemes


def axiom_schemes(dialect: Dialect) -> tuple[str, ...]:
    """Scheme identifiers available in the dialect, tautologies first."""
    return ("ax1",) + _structural_schemes(dialect)


def _match_template(tpl, node, subst: dict) -> bool:
    if isinstance(tpl, _MVar):
        seen = subst.get(tpl.name)
        if seen is None:
            subst[tpl.name] = node
            return True
        return seen == node
    if type(tpl) is not type(node):
        return False
    for name in tpl._fields:
        a = getattr(tpl, name)
        b = getattr(node, name)
        if isinstance(a, str):
            if a != b:
                return False
        elif not _match_template(a, b, subst):
            return False
    return True


def _boolean_components(f: Formula) -> tuple[list[Formula], list[Formula]]:
    """The maximal non-Boolean subformulas in order of first occurrence, and
    the Boolean ones, children before parents."""
    comps: list[Formula] = []
    connectives: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            connectives.append(g)
        elif g not in seen:
            seen.add(g)
            if isinstance(g, Neg):
                stack += ((g, True), (g.inner, False))
            elif isinstance(g, (And, MatImp)):
                stack += ((g, True), (g.right, False), (g.left, False))
            else:
                comps.append(g)
    return comps, connectives


def _tautology(f: Formula) -> bool:
    """Classical validity with maximal non-Boolean subformulas held opaque,
    decided on every assignment at once: component i is the int whose bit j
    is bit i of j, so bit j of a formula's int is its value under assignment
    j. Formulas with more than 16 distinct components are not recognized."""
    comps, connectives = _boolean_components(f)
    if len(comps) > _TAUT_VAR_CAP:
        return False
    full, patterns = _slice_patterns(len(comps))
    value = dict(zip(comps, patterns))
    for g in connectives:
        if isinstance(g, Neg):
            value[g] = full ^ value[g.inner]
        elif isinstance(g, And):
            value[g] = value[g.left] & value[g.right]
        else:
            value[g] = (full ^ value[g.left]) | value[g.right]
    return value[f] == full


def _matches_scheme(f: Formula, scheme: str) -> dict | None:
    if scheme == "ax1":
        return {} if _tautology(f) else None
    for tpl in _TEMPLATES[scheme]:
        subst: dict = {}
        if _match_template(tpl, f, subst):
            return subst
    return None


def match_axiom(
    f: Formula, dialect: Dialect,
) -> tuple[str, dict[str, Formula | Term]] | None:
    """First axiom scheme of the dialect that f instantiates, with the
    binding of its metavariables. Structural schemes are tried before the
    tautology scheme, so instances keep their most specific tag."""
    for scheme in _structural_schemes(dialect):
        subst = _matches_scheme(f, scheme)
        if subst is not None:
            return scheme, subst
    if _tautology(f):
        return "ax1", {}
    return None


# --- derivation checking --------------------------------------------------


def implication_form(premises: list[Formula] | tuple[Formula, ...], goal: Formula) -> Formula:
    """Reduce premise-based consequence to a single implication."""
    if not premises:
        return goal
    return MatImp(_conj(list(premises)), goal)


def _conj(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _conj_leaves(f: Formula) -> list[Formula]:
    """Leaves of the left-nested conjunction spine, outermost last."""
    rev = []
    while isinstance(f, And):
        rev.append(f.right)
        f = f.left
    rev.append(f)
    return rev[::-1]


def _rck_parameters(formula: Formula, cited: Formula) -> tuple[Formula, list[Formula], Formula]:
    """Infer (antecedent, conjunct list, consequent) of an rck step."""
    if isinstance(formula, Counterfactual):
        if cited != formula.right:
            raise ValueError("cited line must be the conditional's consequent")
        return formula.left, [], formula.right
    if isinstance(formula, MatImp) and isinstance(formula.right, Counterfactual):
        phi = formula.right.left
        psi = formula.right.right
        psis = []
        for leaf in _conj_leaves(formula.left):
            if not (isinstance(leaf, Counterfactual) and leaf.left == phi):
                raise ValueError(
                    "antecedent must conjoin conditionals sharing the conclusion's antecedent")
            psis.append(leaf.right)
        if cited != MatImp(_conj(psis), psi):
            raise ValueError("cited line must be the conjoined-consequents implication")
        return phi, psis, psi
    raise ValueError("rck must conclude ((φ>ψ1) & … & (φ>ψn)) => (φ>ψ) or φ>ψ")


def _equiv_parts(f: Formula) -> tuple[Formula, Formula] | None:
    if (isinstance(f, And) and isinstance(f.left, MatImp) and isinstance(f.right, MatImp)
            and f.left.left == f.right.right and f.left.right == f.right.left):
        return f.left.left, f.left.right
    return None


def check_derivation(
    d: Derivation, dialect: Dialect, cs: ConstantSpecification | None = None,
) -> CheckResult:
    """Validate every line; on failure, name the first offending line."""
    _structural_schemes(dialect)  # reject dialects without a Hilbert system
    by_index: dict[int, Formula] = {}
    premises: list[Formula] = []
    prev_index = 0

    def fail(idx: int, reason: str) -> CheckResult:
        return CheckResult(False, idx, reason, tuple(premises))

    for position, line in enumerate(d.lines):
        idx, f, j = line.index, line.formula, line.justification
        if idx <= prev_index:
            return fail(idx, "line indices must be strictly increasing")
        prev_index = idx
        try:
            check_dialect_formula(f, dialect)
        except ValueError as exc:
            return fail(idx, str(exc))
        if isinstance(j, Hyp):
            if len(premises) < position:
                return fail(idx, "premises must precede all derived lines")
            premises.append(f)
            by_index[idx] = f
            continue
        # The prologue every other rule passes: a known class, a rule of
        # this dialect, and an earlier line at each citation.
        kind = type(j)
        if kind is not Axiom and kind not in _CITES:
            return fail(idx, f"unknown justification {j!r}")
        home = _RULE_DIALECT.get(kind)
        if home is not None and dialect is not home:
            return fail(idx, f"{kind.__name__.lower()} is not a rule of {dialect.value}")
        refs = [by_index.get(getattr(j, name)) for name in _CITES.get(kind, ())]
        if None in refs:
            return fail(idx, f"bad citation in {_tag(j)}")
        if isinstance(j, Axiom):
            if j.scheme not in axiom_schemes(dialect):
                return fail(idx, f"scheme {j.scheme} is not available in {dialect.value}")
            if _matches_scheme(f, j.scheme) is None:
                width = len(_boolean_components(f)[0])
                if j.scheme == "ax1" and width > _TAUT_VAR_CAP:
                    return fail(idx, f"ax1 is decided only up to {_TAUT_VAR_CAP}"
                                     f" components; this line has {width}")
                return fail(idx, f"not an instance of {j.scheme}")
        elif isinstance(j, CS):
            if not (isinstance(f, Just) and isinstance(f.term, Constant)):
                return fail(idx, "a constant-specification line must have the form c:φ")
            if cs is None:
                return fail(idx, "no constant specification supplied")
            if isinstance(cs, Explicit) and (f.term.name, f.inner) not in cs.entries:
                return fail(idx, "pair is not in the constant specification")
            if match_axiom(f.inner, dialect) is None:
                return fail(idx, "justified formula is not an axiom instance")
            if isinstance(cs, AxiomaticallyAppropriate):
                cs.allocations.setdefault(f.inner, f.term.name)
        elif isinstance(j, MP):
            if refs[1] != MatImp(refs[0], f):
                return fail(idx, "cited lines do not support modus ponens")
        elif isinstance(j, RCN):
            if not (isinstance(f, Counterfactual) and f.right == refs[0]):
                return fail(idx, "line must be φ > (cited line)")
        elif isinstance(j, RCK):
            try:
                phi, psis, psi = _rck_parameters(f, refs[0])
            except ValueError as exc:
                return fail(idx, str(exc))
            if j.antecedent is not None and j.antecedent != phi:
                return fail(idx, "declared rck antecedent does not match the line")
            if j.count is not None and j.count != len(psis):
                return fail(idx, "declared rck conjunct count does not match the line")
            expansion = derive_rck(phi, psis, psi)
            sub = check_derivation(expansion, dialect)
            if not sub.ok:
                return fail(idx, f"rck expansion fails at its line {sub.error_line}: {sub.reason}")
            if expansion.conclusion != f or sub.premises != tuple(refs):
                return fail(idx, "rck expansion does not reproduce the line")
        elif isinstance(j, RCEA):
            parts = _equiv_parts(refs[0])
            conc = _equiv_parts(f)
            if parts is None or conc is None:
                return fail(idx, "rcea needs biconditionals on both lines")
            a, b = parts
            left, right = conc
            if not (isinstance(left, Counterfactual) and isinstance(right, Counterfactual)
                    and left.left == a and right.left == b
                    and left.right == right.right):
                return fail(idx, "line must equate φ>χ with ψ>χ for the cited φ ≡ ψ")
        elif isinstance(j, Nec):
            if f != Box(refs[0]):
                return fail(idx, "line must be [](cited line)")
        by_index[idx] = f
    return CheckResult(True, None, None, tuple(premises))


# --- derived-rule macros --------------------------------------------------


def derive_cc(phi: Formula, psi1: Formula, psi2: Formula) -> Derivation:
    """Primitive derivation of ((φ>ψ1) & (φ>ψ2)) => (φ>(ψ1 & ψ2)).

    The two closing steps spell out as tautologies the propositional
    reasoning that combines the distribution instances.
    """
    both = And(psi1, psi2)
    t1 = MatImp(psi1, MatImp(psi2, both))
    t2 = Counterfactual(phi, t1)
    t3 = MatImp(Counterfactual(phi, psi1),
                Counterfactual(phi, MatImp(psi2, both)))
    t4 = MatImp(Counterfactual(phi, MatImp(psi2, both)),
                MatImp(Counterfactual(phi, psi2), Counterfactual(phi, both)))
    t5 = MatImp(Counterfactual(phi, psi1),
                MatImp(Counterfactual(phi, psi2), Counterfactual(phi, both)))
    t6 = MatImp(And(Counterfactual(phi, psi1), Counterfactual(phi, psi2)),
                Counterfactual(phi, both))
    return Derivation((
        Line(1, t1, Axiom("ax1")),
        Line(2, t2, RCN(1)),
        Line(3, MatImp(t2, t3), Axiom("ax2")),
        Line(4, t3, MP(2, 3)),
        Line(5, t4, Axiom("ax2")),
        Line(6, MatImp(t3, MatImp(t4, t5)), Axiom("ax1")),
        Line(7, MatImp(t4, t5), MP(4, 6)),
        Line(8, t5, MP(5, 7)),
        Line(9, MatImp(t5, t6), Axiom("ax1")),
        Line(10, t6, MP(8, 9)),
    ))


def derive_rck(phi: Formula, psis: list[Formula] | tuple[Formula, ...], psi: Formula) -> Derivation:
    """Primitive derivation of ((φ>ψ1) & … & (φ>ψn)) => (φ>ψ) from the
    hypothesis (ψ1 & … & ψn) => ψ; with no ψi the step is plain antecedent
    introduction on the hypothesis ψ."""
    psis = list(psis)
    if not psis:
        return Derivation((
            Line(1, psi, Hyp()),
            Line(2, Counterfactual(phi, psi), RCN(1)),
        ))
    conj = _conj(psis)
    hyp_f = MatImp(conj, psi)
    dist = MatImp(Counterfactual(phi, conj), Counterfactual(phi, psi))
    lines = [
        Line(1, hyp_f, Hyp()),
        Line(2, Counterfactual(phi, hyp_f), RCN(1)),
        Line(3, MatImp(Counterfactual(phi, hyp_f), dist), Axiom("ax2")),
        Line(4, dist, MP(2, 3)),
    ]
    if len(psis) == 1:
        return Derivation(tuple(lines))

    # Conjoined-consequents ladder: extend one conjunct at a time.
    combined = None  # line index and formula of the ladder's current rung
    cur = psis[0]
    for nxt in psis[1:]:
        block = derive_cc(phi, cur, nxt)
        offset = len(lines)
        lines.extend(Line(line.index + offset, line.formula,
                          _renumber(line.justification, lambda n: n + offset))
                     for line in block.lines)
        step_idx, step_f = lines[-1].index, lines[-1].formula
        if combined is not None:
            prev_idx, prev_f = combined
            target = MatImp(And(prev_f.left, Counterfactual(phi, nxt)), step_f.right)
            glue = MatImp(prev_f, MatImp(step_f, target))
            lines.append(Line(len(lines) + 1, glue, Axiom("ax1")))
            lines.append(Line(len(lines) + 1, MatImp(step_f, target), MP(prev_idx, len(lines))))
            lines.append(Line(len(lines) + 1, target, MP(step_idx, len(lines))))
            step_idx, step_f = lines[-1].index, lines[-1].formula
        combined = (step_idx, step_f)
        cur = And(cur, nxt)

    rung_idx, rung_f = combined
    target = MatImp(rung_f.left, Counterfactual(phi, psi))
    syl = MatImp(rung_f, MatImp(dist, target))
    lines.append(Line(len(lines) + 1, syl, Axiom("ax1")))
    lines.append(Line(len(lines) + 1, MatImp(dist, target), MP(rung_idx, len(lines))))
    lines.append(Line(len(lines) + 1, target, MP(4, len(lines))))
    return Derivation(tuple(lines))


def expand_rck(d: Derivation) -> Derivation:
    """Replace every rck step by its primitive expansion, renumbering.  A
    citation of a line that does not come before it, or an rck line of the
    wrong shape, raises ValueError naming the citing line."""
    formulas: dict[int, Formula] = {}  # the lines read so far
    new_lines: list[Line] = []
    remap: dict[int, int] = {}
    nxt = 1

    def new_index(i: int) -> int:  # cited by the line being expanded
        if i not in remap:
            raise ValueError(f"line {line.index} cites line {i}, which does not come before it")
        return remap[i]

    for line in d.lines:
        j = line.justification
        if isinstance(j, RCK):
            local = {1: new_index(j.i)}  # the expansion's hypothesis is line j.i
            try:
                phi, psis, psi = _rck_parameters(line.formula, formulas[j.i])
            except ValueError as exc:
                raise ValueError(f"line {line.index}: {exc}") from None
            expansion = derive_rck(phi, psis, psi)
            for el in expansion.lines[1:]:
                new_lines.append(Line(nxt, el.formula,
                                      _renumber(el.justification, local.__getitem__)))
                local[el.index] = nxt
                nxt += 1
            remap[line.index] = nxt - 1
        else:
            new_lines.append(Line(nxt, line.formula, _renumber(j, new_index)))
            remap[line.index] = nxt
            nxt += 1
        formulas[line.index] = line.formula
    return Derivation(tuple(new_lines))


# --- internalization ------------------------------------------------------


def internalize(d: Derivation, cs: ConstantSpecification) -> tuple[Term, Derivation]:
    """Rebuild a premise-free derivation into one proving t:(conclusion).

    Axiom lines are justified by allocated constants, constant-specification
    lines by proof checking (!c), modus ponens by application, and antecedent
    introduction by pairing.
    """
    if not isinstance(cs, AxiomaticallyAppropriate):
        raise ValueError("internalization needs an axiomatically appropriate constant specification")
    base = check_derivation(d, Dialect.LPCint, cs)
    if not base.ok:
        raise ValueError(f"derivation does not check at line {base.error_line}: {base.reason}")
    if base.premises:
        raise ValueError("internalization requires a premise-free derivation")

    d = expand_rck(d)
    terms: dict[int, Term] = {}
    landed: dict[int, int] = {}  # source line -> output line holding term:formula
    out: list[Line] = []

    def emit(f: Formula, j: Justification) -> int:
        out.append(Line(len(out) + 1, f, j))
        return len(out)

    for line in d.lines:
        j = line.justification
        chi = line.formula
        if isinstance(j, Axiom):
            c = Constant(cs.allocate(chi))
            landed[line.index] = emit(Just(c, chi), CS())
            terms[line.index] = c
        elif isinstance(j, CS):
            c = line.formula.term
            checked = Just(Bang(c), chi)
            base_line = emit(chi, CS())
            step = Counterfactual(chi, checked)
            step_line = emit(step, Axiom("ax9"))
            detach = MatImp(step, MatImp(chi, checked))
            detach_line = emit(detach, Axiom("ax4"))
            use_line = emit(MatImp(chi, checked), MP(step_line, detach_line))
            landed[line.index] = emit(checked, MP(base_line, use_line))
            terms[line.index] = Bang(c)
        elif isinstance(j, MP):
            r = terms[j.j]
            s = terms[j.i]
            phi_i = d.lines[j.i - 1].formula  # expand_rck numbered the lines 1, 2, …
            rf = Just(r, MatImp(phi_i, chi))
            sf = Just(s, phi_i)
            pair_f = And(rf, sf)
            applied = Just(App(r, s), chi)
            l1 = emit(MatImp(rf, MatImp(sf, pair_f)), Axiom("ax1"))
            l2 = emit(MatImp(sf, pair_f), MP(landed[j.j], l1))
            l3 = emit(pair_f, MP(landed[j.i], l2))
            l4 = emit(Counterfactual(pair_f, applied), Axiom("ax5"))
            l5 = emit(MatImp(Counterfactual(pair_f, applied), MatImp(pair_f, applied)), Axiom("ax4"))
            l6 = emit(MatImp(pair_f, applied), MP(l4, l5))
            landed[line.index] = emit(applied, MP(l3, l6))
            terms[line.index] = App(r, s)
        elif isinstance(j, RCN):
            s = terms[j.i]
            inner = d.lines[j.i - 1].formula
            t = Pair(s, chi.left)
            bridge = MatImp(Just(s, inner), Just(t, chi))
            l1 = emit(bridge, Axiom("ax10"))
            landed[line.index] = emit(Just(t, chi), MP(landed[j.i], l1))
            terms[line.index] = t
        else:
            raise ValueError(f"line {line.index}: cannot internalize {j!r}")
    last = d.lines[-1].index
    return terms[last], Derivation(tuple(out))


# --- text and document formats ---------------------------------------------


_AXIOM_TAGS = frozenset(_TEMPLATES) | {"ax1"}


def print_derivation(d: Derivation) -> str:
    return "\n".join(f"{line.index}. {print_formula(line.formula)} ; {_tag(line.justification)}"
                     for line in d.lines)


def parse_derivation(text: str, dialect: Dialect) -> Derivation:
    """Parse the line format `n. <formula> ; tag [args]`.

    Blank lines and lines starting with # are skipped.
    """
    lines: list[Line] = []
    prev = 0
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, _, tail = stripped.partition(".")
        if not head.isdecimal() or not tail:
            raise ValueError(f"malformed derivation line: {raw!r}")
        index = int(head)
        if index <= prev:
            raise ValueError(f"line {index}: indices must be strictly increasing")
        prev = index
        body, sep, tagpart = tail.rpartition(";")
        if not sep:
            raise ValueError(f"line {index}: missing justification")
        formula = parse_formula(body.strip(), dialect)
        fields = tagpart.split()
        if not fields:
            raise ValueError(f"line {index}: missing justification")
        tag, args = fields[0], fields[1:]
        if tag in _AXIOM_TAGS:
            if args:
                raise ValueError(f"line {index}: {tag} takes no arguments")
            just: Justification = Axiom(tag)
        elif tag in _RULES:
            rule = _RULES[tag]
            arity = len(_CITES[rule])
            if len(args) != arity or not all(a.isdecimal() for a in args):
                raise ValueError(f"line {index}: {tag} expects {arity} line number(s)")
            just = rule(*map(int, args))
        else:
            raise ValueError(f"line {index}: unknown justification {tag!r}")
        lines.append(Line(index, formula, just))
    if not lines:
        raise ValueError("empty derivation")
    return Derivation(tuple(lines))


def load_constant_specification(doc, dialect: Dialect) -> ConstantSpecification:
    """Build a specification from its JSON document form.

    Either `{"mode": "appropriate"}` or a list of `{"constant", "formula"}`
    entries; explicit entries must name proof constants and justify axiom
    instances of the dialect.
    """
    if isinstance(doc, dict):
        if doc.get("mode") == "appropriate":
            return AxiomaticallyAppropriate()
        raise ValueError("constant-specification object must declare mode 'appropriate'")
    if not isinstance(doc, list):
        raise ValueError("constant specification must be a list or a mode object")
    entries = []
    for entry in doc:
        if not isinstance(entry, dict) or set(entry) != {"constant", "formula"}:
            raise ValueError("each entry needs exactly the keys 'constant' and 'formula'")
        term = parse_term(entry["constant"], dialect)
        if not isinstance(term, Constant):
            raise ValueError(f"{entry['constant']!r} is not a proof constant")
        formula = parse_formula(entry["formula"], dialect)
        if match_axiom(formula, dialect) is None:
            raise ValueError(
                f"constant {entry['constant']} must justify an axiom instance, "
                f"got {print_formula(formula)}")
        entries.append((term.name, formula))
    return Explicit(tuple(entries))
