"""Quantum differential operators and relation verification.

Atomic operators send basis monomials to scalar multiples of basis monomials:

* ``partial(i)`` -- the twisted derivative in direction i,
* ``mult_x(i)`` -- left multiplication by the i-th coordinate,
* ``mult_x_divpow(i)`` -- left multiplication by the ell-th divided power of a
  bosonic coordinate (root-of-unity modes only),
* ``sigma(i, e)``, ``tau(i)``, ``theta_op(label)``, ``parity()`` -- diagonal
  twist automorphisms.

Atoms are values hashed once, at construction; a theta atom's equality and
hash see its label's shape, which MultiIndex equality ignores.  Every
constructor but ``theta_op`` returns one shared atom per (kind, position,
exponent), so the rule cache below finds it by identity; the interning cache
would key on a label alone, so theta atoms are built per call.  Neither cache
calls anything perfbench traces, so a call repeated in one process makes the
same apply_atom calls.

Each atom sends x^(a) to (-1)^(lam.a + lam0) q^(mu.a + mu0) times balanced
binomials at x^(a + s), or to 0 outside a box of bounds: one
superspaces.MonomialRule, built once per space and atom by ``_atom_rule``,
the atom's one definition (x_i and x_i^(ell) being the left-multiplication
rules of monomial_product).  ``_atom_rule`` first refuses an atom the space
does not have, and caches its checks with the rule; ``apply_atom`` reads
that rule and refuses a monomial of another shape.  An OperatorWord is a
scalar times a composition of atoms (rightmost acts first); it compiles
once into one rule of that form, its atoms' rules composed by
RuleBuilder.then, each atom first passed through apply_atom on the unit
monomial.  Relation suites instantiate the defining relation systems of the
derivative algebra, its pointed-Hopf cover, and the quantum Weyl algebra of
(m|n)-type as operator identities, most of them of one of two shapes:
``swap_relation`` a b = c b a and ``conjugation_relation`` g y g_inv = c y.
``operators_equal`` decides without enumeration, and in every degree, a
relation whose sides are single words with rules of one normal form
(``MonomialRule.same_map``), or sums of rules with one exponential
polynomial per shift and cell (``_sums_agree``, by Dedekind-Artin, on no
more cells than there are monomials up to ``t_max``).  Any other relation is
evaluated on graded bases up to a degree bound, a one-word side by its rule
image and a longer side by its summed image, so a pass means no failure up
to ``t_max``.  Pair and triple laws run on term maps: a PairCheck takes
one-factor images once per monomial, and a law g(uv) = sum g1(u) g2(v) reads
g(uv) as c g(w) for uv = c x^w.  While ``run_checks`` runs one suite, every
monomial product is computed once into a per-space table, and each atom
passes apply_atom once per space, both dropped when it returns.  There,
Leibniz and grouplike laws with character twists, and associativity, are
checked with the first factor in a generating set F only (the unit by the
pair (1, 1) alone), which PairCheck and _associative_upto prove decides
them; the move of a left factor past via its twist follows from the ledger
and the commutation law that passed before it, which TripleCheck proves; and
a composite derivation law x^u0 d_i follows from the Leibniz law of d_i that
passed before it, which PairCheck proves too.  A CheckResult names its
route: "normal form", "induction", "corollary" or "enumeration".
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

from .indices import MultiIndex, Shape, ShapeMismatchError, theta, twist_forms
from .qarith import LaurentPoly, QParity, ScalarQ, add_term, char_of, q_factorial
from .superspaces import (
    DUAL_SIDE,
    POLY_SIDE,
    Family,
    MonomialRule,
    RuleBuilder,
    SpaceSpec,
    SuperVector,
    _left_mult_rule,
    add_products,
    basis_of_degree,
    make_space,
    multiply,
    product_of,
    suite_memo,
    top_degree,
)

__all__ = [
    "AtomKind",
    "Atom",
    "InvalidAtomError",
    "partial",
    "mult_x",
    "mult_x_divpow",
    "sigma",
    "tau",
    "theta_op",
    "parity",
    "OperatorWord",
    "apply_word",
    "apply_expr",
    "operators_equal",
    "EqualityResult",
    "Relation",
    "swap_relation",
    "conjugation_relation",
    "PairCheck",
    "TripleCheck",
    "grouplike_check",
    "leibniz_check",
    "CheckResult",
    "RelationReport",
    "SUITE_NAMES",
    "build_suite",
    "verify_relation_suite",
]


class InvalidAtomError(ValueError):
    pass


class AtomKind(Enum):
    PARTIAL = "d"
    MULT_X = "x"
    MULT_X_DIV_POW = "X"
    SIGMA = "s"
    TAU = "t"
    THETA = "Th"
    PARITY = "par"


@dataclass(frozen=True)
class Atom:
    kind: AtomKind
    pos: int = 0
    exp: int = 1
    label: MultiIndex | None = None
    # MultiIndex equality ignores a label's shape; atom equality does not
    label_shape: Shape | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "label_shape", None if self.label is None else self.label.shape)
        # every rule cache and word memo hashes its atoms; hash each once
        object.__setattr__(self, "_hash", hash((self.kind, self.pos, self.exp, self.label,
                                                self.label_shape)))

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if self.kind is AtomKind.THETA:
            return f"Th{self.label}"
        if self.kind is AtomKind.PARITY:
            return "par"
        if self.kind is AtomKind.SIGMA and self.exp == -1:
            return f"sinv{self.pos}"
        return f"{self.kind.value}{self.pos}"


# one shared atom per (kind, pos, exp); never per theta label (module docstring)
_interned = functools.lru_cache(maxsize=None)(Atom)


def partial(i: int) -> Atom:
    return _interned(AtomKind.PARTIAL, i, 1)


def mult_x(i: int) -> Atom:
    return _interned(AtomKind.MULT_X, i, 1)


def mult_x_divpow(i: int) -> Atom:
    return _interned(AtomKind.MULT_X_DIV_POW, i, 1)


def sigma(i: int, e: int = 1) -> Atom:
    if e not in (1, -1):
        raise ValueError("sigma exponent must be +-1")
    return _interned(AtomKind.SIGMA, i, e)


def tau(i: int) -> Atom:
    return _interned(AtomKind.TAU, i, 1)


def theta_op(label: MultiIndex) -> Atom:
    return Atom(AtomKind.THETA, label=label)


def parity() -> Atom:
    return _interned(AtomKind.PARITY, 0, 1)


def apply_atom(space: SpaceSpec, atom: Atom, idx: MultiIndex) -> tuple[ScalarQ, MultiIndex] | None:
    """One atomic operator on one basis monomial of the space; None when the
    image is 0.  Reads the atom's rule, which refuses an atom the space does
    not have, then refuses a monomial of another shape."""
    rule = _atom_rule(space, atom)
    if idx.shape is not space.shape and idx.shape != space.shape:
        raise ShapeMismatchError("shapes disagree")
    return rule.image(idx)


@functools.lru_cache(maxsize=None)
def _atom_rule(space: SpaceSpec, atom: Atom) -> MonomialRule:
    """The one definition of an atom: where the space has it and, if it does,
    its rule, from linear forms in O(size).  A refusal comes first, position
    before kind; an atom the space has passes those checks once, its rule
    cached with them.  x_i and x_i^(ell) are the left-multiplication rules
    that monomial_product reads."""
    kind, family = atom.kind, space.family
    # theta and parity carry no position; every other kind needs 1..size
    if not 0 < atom.pos <= space.shape.size and kind not in (AtomKind.THETA, AtomKind.PARITY):
        raise InvalidAtomError(f"{atom.render()}: position must lie in 1..{space.shape.size}")
    if kind is AtomKind.TAU:
        if family not in POLY_SIDE or not space.shape.is_fermionic_pos(atom.pos):
            raise InvalidAtomError("tau acts on exterior directions of the polynomial side")
    elif kind is AtomKind.THETA:
        if family not in POLY_SIDE:
            raise InvalidAtomError("twist labels act on the polynomial side")
        if atom.label_shape != space.shape:
            raise ShapeMismatchError("shapes disagree")
    elif kind is AtomKind.PARITY:
        if family is Family.AFFINE:
            raise InvalidAtomError("parity operator undefined on the affine superspace")
    elif kind is AtomKind.MULT_X_DIV_POW:
        if family is not Family.OMEGA or space.mode.is_generic:
            raise InvalidAtomError("divided-power multiplication needs the unrestricted "
                                   "Grassmann space at a root of unity")
        if space.shape.is_fermionic_pos(atom.pos):
            raise InvalidAtomError("divided-power multiplication is bosonic")
    elif kind is AtomKind.PARTIAL and family is Family.AFFINE:
        raise InvalidAtomError("derivatives act on the Grassmann-type spaces")
    if kind is AtomKind.MULT_X or kind is AtomKind.MULT_X_DIV_POW:
        power = 1 if kind is AtomKind.MULT_X else char_of(space.mode).ell
        generator = MultiIndex.basis_vector(space.shape, atom.pos, power)
        return _left_mult_rule(space, generator.entries)
    p, mask, poly = atom.pos - 1, space.shape.fermionic_mask, family in POLY_SIDE
    builder = RuleBuilder(space.mode, space.shape.size)
    if kind is AtomKind.SIGMA:
        # base -q on polynomial-side exterior directions; q^-1 on dual divided powers
        exp = -atom.exp if family in DUAL_SIDE and not mask[p] else atom.exp
        builder.form(p, exp, int(poly and mask[p]))
    elif kind is AtomKind.TAU:
        builder.form(p, 0, 1)
    elif kind is AtomKind.PARITY:
        # exterior degree on the polynomial side, divided-power degree on the dual
        for j, fer in enumerate(mask):
            if fer == poly:
                builder.form(j, 0, 1)
    elif kind is AtomKind.THETA:
        for j, (mu, lam) in enumerate(twist_forms(atom.label)):  # theta(label, b)
            builder.form(j, mu, lam)
    elif kind is AtomKind.PARTIAL:  # q^-prefix (polynomial side) or q^prefix (dual side)
        builder.check(p, 1, sys.maxsize)
        if not poly and not mask[p]:
            for j, fer in enumerate(mask):
                if fer:
                    builder.form(j, 0, 1)  # (-1)^(exterior degree)
        for j in range(p):
            # (-1)^(exterior prefix), or base -q on the dual side
            builder.form(j, -1 if poly else 1, int(mask[p] and (mask[j] or not poly)))
        builder.move(p, -1)
    else:
        raise InvalidAtomError(f"unknown atom {atom}")
    return builder.build()


@dataclass(frozen=True)
class OperatorWord:
    """scalar * (atoms[0] o atoms[1] o ... ), the rightmost atom acting first."""

    space: SpaceSpec
    atoms: tuple[Atom, ...]
    scalar: ScalarQ | None = None

    def coeff(self) -> ScalarQ:
        return self.scalar if self.scalar is not None else self.space.mode.one()

    def scaled(self, c: ScalarQ) -> "OperatorWord":
        return OperatorWord(self.space, self.atoms, self.coeff() * c)

    def then(self, other: "OperatorWord") -> "OperatorWord":
        """self o other (other acts first); no scalar when neither has one."""
        if self.space is not other.space and self.space != other.space:
            raise InvalidAtomError("operator words on different spaces")
        if self.scalar is None and other.scalar is None:
            return OperatorWord(self.space, self.atoms + other.atoms)
        return OperatorWord(self.space, self.atoms + other.atoms, self.coeff() * other.coeff())

    @functools.cached_property
    def rule(self) -> MonomialRule:
        """The word compiled once into one rule: its atoms composed in acting
        order, times the scalar.  Raises InvalidAtomError for an atom the
        space does not have, whether or not a monomial reaches it."""
        space = self.space
        memo = suite_memo.get()
        valid = None if memo is None else memo.setdefault((space, "atoms"), set())
        builder = RuleBuilder(space.mode, space.shape.size)
        unit = space.unit_index()
        for atom in reversed(self.atoms):
            # each atom passes through apply_atom on the unit monomial, which
            # perfbench counts; under a suite memo only the first time the
            # atom appears on the space
            if valid is None or atom not in valid:
                apply_atom(space, atom, unit)
                if valid is not None:
                    valid.add(atom)
            builder.then(_atom_rule(space, atom))
        return builder.build(self.scalar)


def apply_word(w: OperatorWord, u: SuperVector) -> SuperVector:
    if w.space is not u.space and w.space != u.space:
        raise InvalidAtomError("operator and vector live on different spaces")
    image = w.rule.image
    out: dict[MultiIndex, ScalarQ] = {}
    for idx, c in u.terms.items():
        hit = image(idx)
        if hit is None:
            continue
        coeff, target = hit
        add_term(out, target, coeff * c)
    return SuperVector._wrap(u.space, out)


Expr = Sequence[OperatorWord]


def _as_expr(x: OperatorWord | Expr) -> tuple[OperatorWord, ...]:
    if isinstance(x, OperatorWord):
        return (x,)
    return tuple(x)


def apply_expr(expr: OperatorWord | Expr, u: SuperVector) -> SuperVector:
    out = SuperVector.zero(u.space)
    for w in _as_expr(expr):
        out = out + apply_word(w, u)
    return out


@dataclass
class EqualityResult:
    equal: bool
    witness: dict | None = None
    route: str = "enumeration"


def _degree_range(space: SpaceSpec, t_max: int) -> range:
    top = top_degree(space)
    if top is not None:
        t_max = min(t_max, top)
    return range(t_max + 1)


def _side_image(rules: list[MonomialRule]) -> Callable:
    """One side of operators_equal, from its words' rules, as a map from a
    monomial to its image: None (zero), (coeff, target), or a dict of two or
    more terms.  A one-word side is the rule image itself; a longer one sums."""
    if len(rules) == 1:
        return rules[0].image
    images = [r.image for r in rules]

    def summed(idx: MultiIndex):
        out: dict[MultiIndex, ScalarQ] = {}
        for image in images:
            hit = image(idx)
            if hit is not None:
                add_term(out, hit[1], hit[0])
        if len(out) != 1:
            return out or None
        ((target, coeff),) = out.items()
        return coeff, target

    return summed


def operators_equal(wA: OperatorWord | Expr, wB: OperatorWord | Expr, t_max: int) -> EqualityResult:
    """Compare two operator expressions: two one-word sides whose rules share
    one normal form (MonomialRule.same_map) are equal in every degree, and
    so are two sums of rules that _sums_agree proves equal; any other pair
    is evaluated on all basis monomials of degree <= t_max, and a failure
    reports the first witness monomial.  In generic mode both sides are
    taken times the product D != 0 of the distinct denominators of word
    scalars, so every image stays in Z[v^+-1], clear of gcds.

    _sums_agree's proof.  Rules of different shifts reach different
    monomials, so each shift's rules must sum to 0 alone.  Cut each
    unbounded position at the bounds of the group's checks: a point per
    value below the last cut L_i, then the cell a_i >= L_i; an exterior
    position takes 0 and 1, or 0 alone when no check, form or binomial of
    the group reads it.  On a cell each check is constant, and a rule times
    (v - v^-1)^b, b the group's most binomials, is a sum of terms c v^e
    prod_i chi_i(a_i) over its symbolic positions, c in Q[v^+-1] and
    chi_i(a) = (-1)^(lam_i a) v^(mu_i a), the forms giving lam_i, mu_i and
    each [a + off + 1] (v - v^-1) = v^(a+off+1) - v^-(a+off+1) two terms.
    Distinct characters of N^k are linearly independent over the field on
    any translate of N^k (Dedekind-Artin), so the cell's sum vanishes iff
    the coefficient of each character does.  At a root of unity of order d
    the key (lam mod 2, mu mod d) only merges equal characters, so a
    vanishing sum still proves the identity; (-1)^a and q^((d/2) a) keep two
    keys, and their sum is left to enumeration.  So are restricted spaces,
    caps, binomials [x choose k] with k != 1, and a shift with more cells
    than there are monomials of degree <= t_max: the route never visits more
    cells than enumeration visits monomials."""
    exprA, exprB = _as_expr(wA), _as_expr(wB)
    space = (exprA or exprB)[0].space
    if any(w.space is not space and w.space != space for w in exprA + exprB):
        raise InvalidAtomError("operator words on different spaces")
    rulesA, rulesB = [w.rule for w in exprA], [w.rule for w in exprB]
    if len(exprA) == len(exprB) == 1 and rulesA[0].same_map(rulesB[0]):
        return EqualityResult(True, route="normal form")  # equal in every degree
    if space.mode.is_generic:
        one = LaurentPoly.one()
        dens = {w.scalar.den for w in exprA + exprB if w.scalar is not None} - {one}
        if dens:
            clear = space.mode.from_laurent(math.prod(dens, start=one))
            rulesA, rulesB = [r.times(clear) for r in rulesA], [r.times(clear) for r in rulesB]
    if _sums_agree(space, rulesA, rulesB, t_max):
        return EqualityResult(True, route="normal form")  # equal in every degree
    sideA, sideB = _side_image(rulesA), _side_image(rulesB)
    for t in _degree_range(space, t_max):
        for idx in basis_of_degree(space, t):
            if sideA(idx) != sideB(idx):
                u = SuperVector.monomial(space, idx)
                return EqualityResult(False, {"monomial": str(idx),
                                              "lhs_image": apply_expr(exprA, u).to_json(),
                                              "rhs_image": apply_expr(exprB, u).to_json()})
    return EqualityResult(True)


def _sums_agree(space: SpaceSpec, rulesA: list[MonomialRule], rulesB: list[MonomialRule],
                t_max: int) -> bool:
    """True only when the rules of rulesA sum to those of rulesB on every
    basis monomial of every degree (the proof and the cell budget:
    operators_equal); False when the sums differ or the route cannot tell."""
    rules = [(1, r) for r in rulesA] + [(-1, r) for r in rulesB]
    mode, mask, dv = space.mode, space.shape.fermionic_mask, LaurentPoly({1: 1, -1: -1})
    f, b = sum(mask), len(mask) - sum(mask)  # monomials of degree <= t_max: the budget
    budget = sum(math.comb(f, k) * math.comb(t_max - k + b, b) for k in range(min(f, t_max) + 1))
    if space.shape.restricted_ell is not None or any(
            any(c[4] for c in r.checks) or any(k != 1 for _, _, k in r.binoms)
            or r.scale is not None and r.scale.den not in (None, LaurentPoly.one())
            for _, r in rules):
        return False
    groups: dict[tuple[int, ...], list] = {}
    for sign, r in rules:
        groups.setdefault(r.shift, []).append((sign, r))
    for group in groups.values():
        top, terms, cut, read = max(len(r.binoms) for _, r in group), [], [0] * len(mask), set()
        for sign, r in group:
            scale = (LaurentPoly.one() if r.scale is None else r.scale.num if mode.is_generic
                     else LaurentPoly(dict(enumerate(r.scale.res))))
            terms.append((sign, r, math.prod([dv] * (top - len(r.binoms)), start=scale).coeffs))
            read.update(c[0] for c in r.checks + r.forms + r.binoms)
            for i, lo, hi, _, _ in r.checks:  # sys.maxsize - s is no bound
                cut[i] = max(cut[i], lo, hi + 1 if hi < sys.maxsize // 2 else 0)
        # per position: the points (a, False) below its last cut L, then (L, True) for a_i >= L
        axes = [((0, False), (1, False))[:1 + (i in read)] if fer else
                [(a, False) for a in range(L)] + [(L, True)]
                for i, (fer, L) in enumerate(zip(mask, cut))]
        if math.prod(map(len, axes)) > budget:
            return False
        for cell in itertools.product(*axes):
            sums: dict[tuple, dict[int, int]] = {}
            for sign, r, base in terms:
                if all(lo <= cell[i][0] <= hi for i, lo, hi, _, _ in r.checks):
                    _add_terms(sums, sign, r, base, cell, mode.d)
            if any(not mode.from_laurent(LaurentPoly(acc)).is_zero() for acc in sums.values()):
                return False
    return True


def _add_terms(sums: dict, sign: int, r: MonomialRule, base: dict, cell: tuple, d: int | None):
    """sign times r, its scale and missing binomials' (v - v^-1) as base, on
    a cell, into sums: a Laurent polynomial per character (lam mod 2, mu mod d)."""
    e, odd, mu, lam = r.mu0, r.lam0, [0] * len(cell), [0] * len(cell)
    for i, m, l in r.forms:
        a, symbolic = cell[i]
        if symbolic:
            mu[i], lam[i] = m, l
        else:
            e, odd = e + m * a, odd + l * a
    lam = tuple(lam)
    # [x] (v - v^-1) = v^x - v^-x, x = a_i + off + 1: one term per choice of signs
    for signs in itertools.product((1, -1), repeat=len(r.binoms)):
        e_t, odd_t, mu_t = e, odd, list(mu)
        for s, (i, off, _) in zip(signs, r.binoms):
            a, symbolic = cell[i]
            e_t, odd_t = e_t + s * (off + 1 + (0 if symbolic else a)), odd_t + (s < 0)
            mu_t[i] += s if symbolic else 0
        acc = sums.setdefault((lam, tuple(m % d for m in mu_t) if d else tuple(mu_t)), {})
        c0 = -sign if odd_t & 1 else sign
        for k, c in base.items():
            acc[k + e_t] = acc.get(k + e_t, 0) + c0 * c


# ---------------------------------------------------------------------------
# relation checks and suites
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One check's verdict.  ``route`` says how it was reached ("normal
    form", "induction", "corollary" or "enumeration") and is not part of
    the report."""

    name: str
    passed: bool
    witness: dict | None = None
    route: str = "enumeration"

    def to_json(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Relation:
    """Operator-expression identity lhs = rhs, decided on its own space."""

    name: str
    lhs: tuple[OperatorWord, ...]
    rhs: tuple[OperatorWord, ...]

    def run(self, t_max: int) -> CheckResult:
        res = operators_equal(self.lhs, self.rhs, t_max)
        return CheckResult(self.name, res.equal, res.witness, res.route)


def _failure(check, key: str, factors: tuple[MultiIndex, ...], lhs: dict, rhs: dict) -> CheckResult:
    """A failing pair or triple of a check, its two sides as vectors."""
    space = check.space
    return CheckResult(check.name, False, {key: [str(i) for i in factors],
                                           "lhs": SuperVector._wrap(space, lhs).to_json(),
                                           "rhs": SuperVector._wrap(space, rhs).to_json()})


def _chain(space: SpaceSpec, hit: tuple[ScalarQ, MultiIndex] | None, c: MultiIndex,
           left: bool) -> tuple[ScalarQ, MultiIndex] | None:
    """k x^w x^c (left) or k x^c x^w, for hit = (k, w) a product_of result,
    as (coefficient, key) from one more product_of lookup; None for 0."""
    if hit is None:
        return None
    coeff, w = hit
    hit = product_of(space, *((w, c) if left else (c, w)))
    return None if hit is None else (hit[0] * coeff, hit[1])


def _terms(hit: tuple[ScalarQ, MultiIndex] | None, scale: ScalarQ | None = None) -> dict:
    """A (coefficient, key) pair as a term map, times scale (none means 1)."""
    if hit is None:
        return {}
    return {hit[1]: hit[0] if scale is None else hit[0] * scale}


def _first_factors(space: SpaceSpec, t: int) -> tuple[MultiIndex, ...]:
    """F in degree t, under a suite memo: the unit, the generators, and in
    degree >= 2 the monomials S that are no nonzero k s u' (s a generator,
    deg u' = t - 1), read from the product table and kept in the memo.
    Generically S is empty; at a root of unity it holds x_i^(ell) where that
    is a basis element, for x_i x_i^(ell-1) = [ell] x_i^(ell) = 0."""
    if t < 2:
        return basis_of_degree(space, t)
    cache = suite_memo.get().setdefault((space, "first"), {})
    if t not in cache:
        reached = set()
        for s in basis_of_degree(space, 1):
            for u in basis_of_degree(space, t - 1):
                hit = product_of(space, s, u)
                if hit is not None:
                    reached.add(hit[1].entries)
        cache[t] = tuple(u for u in basis_of_degree(space, t) if u.entries not in reached)
    return cache[t]


def _associative_upto(space: SpaceSpec, top: int) -> bool:
    """Whether (ab)c = a(bc) on every triple of monomials of degree sum
    <= top, from the space's ledger in the suite memo: [T, failed], every
    triple with its first factor in F (_first_factors) passing up to degree
    sum T.  It grows one exact degree sum at a time and stops at a failure.

    The F-first triples suffice, by induction on deg a.  A monomial a not in
    F is k^-1 s a' with k != 0, s a generator and deg a' = deg a - 1; the
    triples (s, a', b), (s, a'b, c) and (s, a', bc) have s first, so
      (ab)c = k^-1 (s (a'b)) c = k^-1 s ((a'b) c) = k^-1 s (a' (bc)) = a (bc),
    the third step by the hypothesis on a'.  The unit is in F, and (1, b, c)
    holds once 1 w = w for each monomial w of degree <= T, one product each.
    """
    ledger = suite_memo.get().setdefault((space, "associative"), [-1, False])
    while ledger[0] < top and not ledger[1]:
        if _associative_at(space, ledger[0] + 1):
            ledger[0] += 1
        else:
            ledger[1] = True
    return ledger[0] >= top


def _associative_at(space: SpaceSpec, s: int) -> bool:
    """Whether 1 w = w for each monomial w of degree s, and (ab)c = a(bc)
    on each triple of degree sum s with a in F of degree >= 1: x^a x^b is
    formed once per (a, b), and the sides compared per c as (coefficient,
    key) pairs."""
    levels = [basis_of_degree(space, t) for t in range(s + 1)]
    one, unit = space.mode.one(), space.unit_index()
    if any(product_of(space, unit, w) != (one, w) for w in levels[s]):
        return False
    for ta in range(1, s + 1):
        for a in _first_factors(space, ta):
            for tb in range(s - ta + 1):
                for b in levels[tb]:
                    ab = product_of(space, a, b)
                    for c in levels[s - ta - tb]:
                        if _chain(space, ab, c, True) != _chain(
                                space, product_of(space, b, c), a, False):
                            return False
    return True


@dataclass
class PairCheck:
    """Identity quantified over ordered pairs of basis monomials, on term maps.

    ``run`` takes ``unary`` (the term maps a law needs of one factor alone,
    such as d_i(u)) once per monomial of degree <= t_max, keyed by entries,
    then calls ``fn(a, b, images)`` per pair of indices.  ``fn`` returns both
    sides as term maps; only a failing pair becomes vectors, for its witness.

    ``twists`` marks a law of one of two shapes, op's images coming first in
    ``unary``: (L, R) for op(uv) = op(u) R(v) + L(u) op(v), and (g,) for
    g(uv) = g(u) g(v), op being g.  Under a suite memo, when each twist is
    None (the identity) or an OperatorWord whose rule is a character, and
    the space's associativity ledger reaches t_max + max(0, delta), delta
    the largest degree op raises a monomial by in the images table, ``run``
    checks only the pair (1, 1) and the pairs with u in F (_first_factors)
    of degree >= 1.  If they pass, the law holds on every pair of degree sum
    <= t_max.  The unit row first.  A character sends 1 to 1, and the
    ledger gives 1 w = w for deg w <= T = t_max + max(0, delta).  So the
    grouplike law at (1, v) reads g(v) = 1 g(v) and always holds; the
    Leibniz law at (1, v) reads op(v) = op(1) R(v) + op(v), and at (1, 1)
    it holds exactly when op(1) 1 = 0.  Then, R(v) being r x^v and each
    monomial of op(1) having degree <= max(0, delta), associativity on the
    triples (w, 1, v) gives op(1) R(v) = r (op(1) 1) x^v = 0: the pair
    (1, 1) decides the unit row.  The rows of degree >= 1 by induction on
    deg u, a character being an algebra map: u not in F is k^-1 s u' with
    k != 0, s a generator and deg u' = deg u - 1, so by associativity, the
    law at (s, w) for each monomial w of u'v, then at (u', v), then at (s, u'),
      op(uv) = k^-1 op(s (u'v)) = k^-1 [op(s) R(u'v) + L(s) op(u'v)]
             = k^-1 [op(s) R(u') R(v) + L(s) (op(u') R(v) + L(u') op(v))]
             = k^-1 [(op(s) R(u') + L(s) op(u')) R(v) + L(s u') op(v)]
             = op(u) R(v) + L(u) op(v),
    every product regrouped having degree sum <= deg u + deg v + max(0,
    delta).  The grouplike law is the one-term case: g(uv) = k^-1 g(s) g(u'v)
    = k^-1 g(s) g(u') g(v) = g(u) g(v).  A premise that does not hold, or a
    reduced pair that fails, runs ``enumerate``, so the verdict and the first
    failing pair are those of every pair in order.

    ``base`` = (law, u0) marks a composite law (_composite_derivation_check):
    op = x^u0 D, D being ``law.op``, law's twists (L_D, R) and this law's
    (L, R).  Under a suite memo it passes with route "corollary", taking no
    image, when law passed earlier under the same memo (run_checks), D is a
    word, L and L_D are character words and R is None or one, the ledger
    reaches t_max + deg u0 + delta, delta the degree D changes a monomial
    by (its rule's shift), and u0 L_D(u) = L(u) u0 for each monomial u of
    degree <= t_max.  The last is checked once, on the sum S of those u:
    a character keeps each x^u up to a nonzero scalar and x^u0 x^u lies in
    k x^(u0 + u), so the terms of distinct u never meet and u0 L_D(S) =
    L(S) u0 holds only if each u's does.  Then for every pair (u, v) of
    degree sum <= t_max, op(uv) being c op(x^w) = u0 (c D(x^w)) for uv =
    c x^w, and c D(x^w) being how law reads D(uv), the law of D at (u, v),
    associativity on triples of degree sum <= t_max + deg u0 + delta and
    the premise on u give
      op(uv) = u0 D(uv) = u0 (D(u) R(v) + L_D(u) D(v))
             = (u0 D(u)) R(v) + (u0 L_D(u)) D(v)
             = op(u) R(v) + (L(u) u0) D(v) = op(u) R(v) + L(u) op(v).
    A premise that does not hold runs the law as above.
    """

    name: str
    space: SpaceSpec
    fn: Callable[[MultiIndex, MultiIndex, dict], tuple[dict, dict]]
    unary: Callable[[SuperVector], tuple[dict, ...]] | None = None
    twists: tuple | None = None
    op: Map = None  # the law's op, read by a composite law built on it
    base: tuple[PairCheck, MultiIndex] | None = None

    def run(self, t_max: int) -> CheckResult:
        if self._corollary(t_max):
            return CheckResult(self.name, True, route="corollary")
        levels, images = self._tables(t_max)
        if self._reducible(t_max, images):
            (unit,) = levels[0]
            lhs, rhs = self.fn(unit, unit, images)  # the unit row (class docstring)
            first = [()] + [_first_factors(self.space, t) for t in range(1, len(levels))]
            if lhs == rhs and self._first_failure(t_max, first, levels, images) is None:
                return CheckResult(self.name, True, route="induction")
        return self._enumerated(t_max, levels, images)

    def enumerate(self, t_max: int) -> CheckResult:
        """The verdict from every pair, whatever the law's shape."""
        return self._enumerated(t_max, *self._tables(t_max))

    def _tables(self, t_max: int) -> tuple[list, dict]:
        levels = [basis_of_degree(self.space, t) for t in _degree_range(self.space, t_max)]
        images = {} if self.unary is None else {
            idx.entries: self.unary(SuperVector.monomial(self.space, idx))
            for level in levels for idx in level}
        return levels, images

    def _corollary(self, t_max: int) -> bool:
        """Whether ``base`` decides the law (class docstring)."""
        if self.base is None:
            return False
        law, u0 = self.base
        (left, right), (law_left, law_right) = self.twists, law.twists
        if (not _passed(law) or right != law_right
                or not all(isinstance(w, OperatorWord) for w in (law.op, left, law_left))
                or not all(map(_character, (left, law_left, right)))):
            return False
        space = self.space
        if not _associative_upto(space, t_max + u0.degree() + sum(law.op.rule.shift)):
            return False
        one, x_u0 = space.mode.one(), SuperVector.monomial(space, u0)
        every = SuperVector._wrap(space, {u: one for t in _degree_range(space, t_max)
                                          for u in basis_of_degree(space, t)})
        return multiply(x_u0, apply_word(law_left, every)) == multiply(apply_word(left, every), x_u0)

    def _reducible(self, t_max: int, images: dict) -> bool:
        if suite_memo.get() is None or self.twists is None or not all(
                map(_character, self.twists)):
            return False
        delta = max((w.degree() - sum(a) for a, maps in images.items() for w in maps[0]), default=0)
        return _associative_upto(self.space, t_max + max(0, delta))

    def _first_failure(self, t_max: int, first: list, levels: list, images: dict):
        """The first pair (a, b) in pair order, a in first[deg a], whose sides
        differ, with those sides; None when every such pair passes."""
        fn = self.fn
        for t1, firsts in enumerate(first):
            for t2 in _degree_range(self.space, t_max - t1):
                for ia in firsts:
                    for ib in levels[t2]:
                        lhs, rhs = fn(ia, ib, images)
                        if lhs != rhs:
                            return (ia, ib), lhs, rhs
        return None

    def _enumerated(self, t_max: int, levels: list, images: dict) -> CheckResult:
        failure = self._first_failure(t_max, levels, levels, images)
        return CheckResult(self.name, True) if failure is None else _failure(self, "pair", *failure)


def _passed(check) -> bool:
    """Whether check passed earlier under the current suite memo (run_checks)."""
    memo = suite_memo.get()
    return memo is not None and id(check) in memo["passed"]


def _character(w: Map) -> bool:
    """Whether w is None (the identity) or a word whose rule is a character."""
    return w is None or isinstance(w, OperatorWord) and w.rule.is_character()


def _triples(space: SpaceSpec, t_max: int) -> Iterator[tuple[MultiIndex, MultiIndex, MultiIndex]]:
    """The triples of basis monomials with degree sum <= t_max, in the order of
    itertools.product over the degree-sorted basis: each factor runs over the
    prefix of that list its remaining budget allows."""
    levels = [basis_of_degree(space, t) for t in _degree_range(space, t_max)]
    upto = list(itertools.accumulate(levels))  # upto[t]: the monomials of degree <= t
    top = len(upto) - 1
    for ta, basis_a in enumerate(levels):
        for ia in basis_a:
            for tb, basis_b in enumerate(levels[: t_max - ta + 1]):
                for ib in basis_b:
                    for ic in upto[min(t_max - ta - tb, top)]:
                        yield ia, ib, ic


@dataclass
class TripleCheck:
    """Identity quantified over triples of basis monomials (degree sum bound),
    on term maps: ``fn(a, b, c)`` returns both sides, as in PairCheck.

    Two laws pass under a suite memo without their triples when the space's
    ledger (_associative_upto) reaches t_max.  One is a check marked
    ``associativity``, fn being (ab)c = a(bc); it passes by induction.  The
    other is a check with a ``base`` (built by _twist_move_check), fn being
    the move of the left factor past via its twist, (x^a x^b) x^c =
    th x^b (x^a x^c) with th = theta(a, b), and base the commutation law
    x^a x^b = th x^b x^a.  It passes as a corollary when, besides, base
    passed earlier under the same memo (run_checks), so on every pair of
    degree sum <= t_max: then, by associativity on the triple (b, a, c),
      (x^a x^b) x^c = th (x^b x^a) x^c = th x^b (x^a x^c),
    both sides 0 when x^a x^b is.  A premise that does not hold runs
    ``enumerate``, so the verdict and the first failing triple are those of
    every triple in order."""

    name: str
    space: SpaceSpec
    fn: Callable[[MultiIndex, MultiIndex, MultiIndex], tuple[dict, dict]]
    associativity: bool = False
    base: PairCheck | None = None

    def run(self, t_max: int) -> CheckResult:
        if self._proved(t_max):
            return CheckResult(self.name, True, route="induction" if self.associativity
                               else "corollary")
        return self.enumerate(t_max)

    def _proved(self, t_max: int) -> bool:
        """Whether the ledger, and for a twist move its base's pass, decide the law."""
        if suite_memo.get() is None or not (self.associativity or _passed(self.base)):
            return False
        return _associative_upto(self.space, t_max)

    def enumerate(self, t_max: int) -> CheckResult:
        """The verdict from every triple."""
        for abc in _triples(self.space, t_max):
            lhs, rhs = self.fn(*abc)
            if lhs != rhs:
                return _failure(self, "triple", abc, lhs, rhs)
        return CheckResult(self.name, True)


@dataclass
class RelationReport:
    suite: str
    space: SpaceSpec
    t_max: int
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        params = self.space.describe()
        params["t_max"] = self.t_max
        return {
            "suite": self.suite,
            "params": params,
            "passed": self.passed,
            "relations": [r.to_json() for r in self.results],
        }


def run_checks(suite: str, space: SpaceSpec, checks: list, t_max: int) -> RelationReport:
    """Run the checks in order under one suite memo (superspaces.suite_memo).

    For the length of this call the memo keeps, per space, the product
    table of superspaces.product_of, so each monomial product is computed
    once and then looked up, and under the keys (space, "atoms"), (space,
    "first") and (space, "associative") the atoms OperatorWord.rule has
    passed through apply_atom, the first factors per degree
    (_first_factors) and the associativity ledger (_associative_upto); under
    "passed", the ids of the checks that have passed, which a composite law
    and the twist move read (_passed).  All of it is dropped when the call
    returns or a check raises.
    """
    passed: set[int] = set()
    token = suite_memo.set({"passed": passed})
    try:
        results = []
        for c in checks:
            results.append(c.run(t_max))
            if results[-1].passed:
                passed.add(id(c))
    finally:
        suite_memo.reset(token)
    return RelationReport(suite, space, t_max, results)


# ---- generator shorthand ---------------------------------------------------


def _w(space: SpaceSpec, *atoms: Atom, coeff: ScalarQ | None = None) -> OperatorWord:
    return OperatorWord(space, tuple(atoms), coeff)


def swap_relation(space: SpaceSpec, name: str, a: tuple[Atom, ...], b: tuple[Atom, ...],
                  c: ScalarQ | None = None) -> Relation:
    """The twisted commutation a b = c b a of two atom tuples; no scalar when
    c is None."""
    return Relation(name, (OperatorWord(space, a + b),), (OperatorWord(space, b + a, c),))


def conjugation_relation(space: SpaceSpec, name: str, g: tuple[Atom, ...], y: tuple[Atom, ...],
                         g_inv: tuple[Atom, ...], c: ScalarQ) -> Relation:
    """The conjugation g y g_inv = c y of an atom tuple y by a group-like g."""
    return Relation(name, (OperatorWord(space, g + y + g_inv),), (OperatorWord(space, y, c),))


def _gen_label(space: SpaceSpec, i: int, value: int = 1) -> MultiIndex:
    return MultiIndex.basis_vector(space.shape, i, value)


def _divpow_mult_word(space: SpaceSpec, i: int, power: int) -> OperatorWord:
    """Left multiplication by the divided power x_i^(power) for power < ell."""
    coeff = q_factorial(power, space.mode).inverse()
    return _w(space, *([mult_x(i)] * power), coeff=coeff)


def _theta_of(space: SpaceSpec, i: int, j: int) -> ScalarQ:
    return theta(_gen_label(space, i), _gen_label(space, j), space.mode)


def _sigma_factor(space: SpaceSpec, i: int, j: int, e: int) -> ScalarQ:
    """sigma_i's character on the j-th coordinate (e = 1) or derivative
    (e = -1): (-q)^e on an exterior direction j = i (its twist eigenvalue is
    -q), q^e on a bosonic one, and 1 otherwise."""
    if i != j:
        return space.mode.one()
    if space.shape.is_fermionic_pos(i):
        return space.mode.minus_q_power(e)
    return space.mode.q_power(e)


# ---- the suites ------------------------------------------------------------


def _suite_partials(space: SpaceSpec) -> list:
    """Defining relations of the derivative algebra: twisted commutation of
    the partials plus square-zero exterior derivatives."""
    checks: list = []
    size = space.shape.size
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i == j:
                continue
            checks.append(swap_relation(space, f"d{i} d{j} = theta(e{i},e{j}) d{j} d{i}",
                                        (partial(i),), (partial(j),), _theta_of(space, i, j)))
    for j in space.shape.fermionic_positions():
        checks.append(
            Relation(f"d{j}^2 = 0", (_w(space, partial(j), partial(j)),), ())
        )
    return checks


def _suite_dq(space: SpaceSpec) -> list:
    """Relations of the pointed-Hopf cover of the derivative algebra: group
    commutations, the label dependency identities, the conjugation table, the
    twisted commutation of the partials."""
    mode = space.mode
    checks: list = []
    size = space.shape.size
    fermi = space.shape.fermionic_positions()
    m = space.shape.m

    for i in range(1, size + 1):
        checks.append(
            Relation(
                f"s{i} s{i}^-1 = 1",
                (_w(space, sigma(i), sigma(i, -1)),),
                (_w(space),),
            )
        )
    for i, j in itertools.combinations(range(1, size + 1), 2):
        checks.append(swap_relation(space, f"s{i} s{j} = s{j} s{i}", (sigma(i),), (sigma(j),)))
    for j in fermi:
        checks.append(Relation(f"t{j}^2 = 1", (_w(space, tau(j), tau(j)),), (_w(space),)))
        for i in range(1, size + 1):
            checks.append(swap_relation(space, f"s{i} t{j} = t{j} s{i}", (sigma(i),), (tau(j),)))
    for i in range(1, size + 1):
        e_i = _gen_label(space, i)
        checks.append(
            Relation(
                f"Th(e{i}) Th(-e{i}) = 1",
                (_w(space, theta_op(e_i), theta_op(-e_i)),),
                (_w(space),),
            )
        )
        for j in range(i + 1, size + 1):
            e_j = _gen_label(space, j)
            checks.append(
                Relation(
                    f"Th(e{i}) Th(e{j}) = Th(e{i}+e{j})",
                    (_w(space, theta_op(e_i), theta_op(e_j)),),
                    (_w(space, theta_op(e_i + e_j)),),
                )
            )
        for j in range(1, size + 1):
            checks.append(swap_relation(space, f"s{j} Th(e{i}) = Th(e{i}) s{j}",
                                        (sigma(j),), (theta_op(e_i),)))
    # dependency of the simple-root twist labels on the grading twists
    for i in range(1, size):
        lab = _gen_label(space, i + 1) - _gen_label(space, i)
        if i == m:
            rhs = _w(space, parity(), sigma(m), sigma(m + 1))
            name = f"Th(-e{m}+e{m+1}) = parity s{m} s{m+1}"
        else:
            rhs = _w(space, sigma(i), sigma(i + 1))
            name = f"Th(-e{i}+e{i+1}) = s{i} s{i+1}"
        checks.append(Relation(name, (_w(space, theta_op(lab)),), (rhs,)))
    # conjugation of the partials by the group part
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            e_j = _gen_label(space, j)
            checks.append(conjugation_relation(
                space, f"Th(e{j}) d{i} Th(-e{j}) = theta(e{i},e{j}) d{i}",
                (theta_op(e_j),), (partial(i),), (theta_op(-e_j),), _theta_of(space, i, j)))
            checks.append(conjugation_relation(
                space, f"s{j} d{i} s{j}^-1 = (-1)^(par) q^-delta d{i}",
                (sigma(j),), (partial(i),), (sigma(j, -1),), _sigma_factor(space, j, i, -1)))
        for j in fermi:
            checks.append(swap_relation(space, f"t{j} d{i} = (-1)^delta d{i} t{j}",
                                        (tau(j),), (partial(i),), mode.scalar(-1 if i == j else 1)))
    checks.extend(_suite_partials(space))
    return checks


def _cross_relations(space: SpaceSpec) -> list:
    """Cross relations between coordinates, twists and derivatives."""
    mode = space.mode
    checks: list = []
    size = space.shape.size
    fermi = set(space.shape.fermionic_positions())

    for i in range(1, size + 1):
        e_i = _gen_label(space, i)
        for j in range(1, size + 1):
            checks.append(conjugation_relation(
                space, f"Th(e{i}) x{j} Th(-e{i}) = theta(e{i},e{j}) x{j}",
                (theta_op(e_i),), (mult_x(j),), (theta_op(-e_i),), _theta_of(space, i, j)))
            checks.append(conjugation_relation(
                space, f"s{i} x{j} s{i}^-1 = q^delta x{j} (base -q on exterior directions)",
                (sigma(i),), (mult_x(j),), (sigma(i, -1),), _sigma_factor(space, i, j, 1)))
        if i in fermi:
            for j in range(1, size + 1):
                checks.append(conjugation_relation(
                    space, f"t{i} x{j} t{i} = (-1)^delta x{j}",
                    (tau(i),), (mult_x(j),), (tau(i),), mode.scalar(-1 if i == j else 1)))
    for i in range(1, size + 1):
        if i in fermi:
            checks.append(
                Relation(
                    f"d{i} x{i} + x{i} d{i} = 1",
                    (_w(space, partial(i), mult_x(i)), _w(space, mult_x(i), partial(i))),
                    (_w(space),),
                )
            )
            checks.append(Relation(f"x{i}^2 = 0", (_w(space, mult_x(i), mult_x(i)),), ()))
        else:
            checks.append(
                Relation(
                    f"d{i} x{i} - q x{i} d{i} = s{i}^-1",
                    (
                        _w(space, partial(i), mult_x(i)),
                        _w(space, mult_x(i), partial(i), coeff=-mode.q()),
                    ),
                    (_w(space, sigma(i, -1)),),
                )
            )
        for j in range(1, size + 1):
            if i == j:
                continue
            checks.append(swap_relation(space, f"d{i} x{j} = theta(e{j},e{i}) x{j} d{i}",
                                        (partial(i),), (mult_x(j),), _theta_of(space, j, i)))
            checks.append(swap_relation(space, f"x{i} x{j} = theta(e{i},e{j}) x{j} x{i}",
                                        (mult_x(i),), (mult_x(j),), _theta_of(space, i, j)))
    return checks


def _suite_weyl_generic(space: SpaceSpec) -> list:
    return _cross_relations(space) + _suite_dq(space)


def _suite_weyl_root(space: SpaceSpec, want_parity: QParity) -> list:
    profile = char_of(space.mode)
    if profile.parity is not want_parity or profile.ell < 3:
        raise InvalidAtomError(
            f"suite needs char(q) >= 3 with the {want_parity.value} root branch"
        )
    if space.family is not Family.OMEGA:
        raise InvalidAtomError("root branches act on the unrestricted Grassmann space")
    mode = space.mode
    ell = profile.ell
    odd = want_parity is QParity.ODD_ROOT
    checks = _suite_weyl_generic(space)
    size = space.shape.size
    bos = [p for p in range(1, size + 1) if not space.shape.is_fermionic_pos(p)]
    fermi = space.shape.fermionic_positions()
    one = mode.one()
    for j in bos:
        X = (mult_x_divpow(j),)
        for i in range(1, size + 1):
            e_i = _gen_label(space, i)
            c = one if odd else (one if i == j else -one)
            checks.append(swap_relation(space, f"Th(e{i}) X{j} = +- X{j} Th(e{i})",
                                        (theta_op(e_i),), X, c))
            c = one if odd else (-one if i == j else one)
            checks.append(swap_relation(space, f"s{i} X{j} = +- X{j} s{i}", (sigma(i),), X, c))
            if i != j:
                checks.append(swap_relation(space, f"d{i} X{j} = +- X{j} d{i}",
                                            (partial(i),), X, one if odd else -one))
            c = one if odd else (one if i == j else -one)
            checks.append(swap_relation(space, f"x{i} X{j} = +- X{j} x{i}", (mult_x(i),), X, c))
        for i in fermi:
            checks.append(swap_relation(space, f"t{i} X{j} = X{j} t{i}", (tau(i),), X))
        sgn = one if odd else -one
        checks.append(
            Relation(
                f"d{j} X{j} -+ X{j} d{j} = x{j}^(ell-1) s{j}^-1",
                (
                    _w(space, partial(j), mult_x_divpow(j)),
                    _w(space, mult_x_divpow(j), partial(j), coeff=-sgn),
                ),
                (_divpow_mult_word(space, j, ell - 1).then(_w(space, sigma(j, -1))),),
            )
        )
    # nilpotency of the bosonic derivatives on the restricted space
    restricted = make_space(Family.OMEGA_RESTRICTED, space.shape.m, space.shape.n, mode)
    for j in bos:
        checks.append(
            Relation(
                f"d{j}^ell = 0 on the restricted space",
                (_w(restricted, *([partial(j)] * ell)),),
                (),
            )
        )
    return checks


Map = OperatorWord | Callable[[SuperVector], SuperVector] | None


def _pair_law(name: str, space: SpaceSpec, op: Map, terms: Sequence[tuple[Map, Map]],
              twists: tuple) -> PairCheck:
    """The law op(uv) = sum of f(u) g(v) over (f, g) in terms, each map a
    word (applied by apply_word), a function on vectors, or None for the
    identity: a PairCheck taking each distinct map once per monomial, and
    op(uv) as c op(x^w), for uv = c x^w, from those images.  The law's
    twists let PairCheck decide it by induction from the generators."""
    maps = list(dict.fromkeys((op, *itertools.chain(*terms))))
    where = [(maps.index(f), maps.index(g)) for f, g in terms]

    def unary(u: SuperVector):
        return tuple(u.terms if g is None else (apply_word(g, u) if isinstance(g, OperatorWord)
                                                else g(u)).terms for g in maps)

    def fn(a, b, images):
        image_a, image_b, rhs = images[a.entries], images[b.entries], {}
        for i, j in where:
            add_products(space, image_a[i], image_b[j], rhs)
        hit = product_of(space, a, b)
        if hit is None:
            return {}, rhs
        c, w = hit
        return {idx: c * x for idx, x in images[w.entries][0].items()}, rhs

    return PairCheck(name, space, fn, unary, twists, op)


def grouplike_check(name: str, space: SpaceSpec, g: Map) -> PairCheck:
    """The grouplike law g(uv) = g(u) g(v)."""
    return _pair_law(name, space, g, ((g, g),), (g,))


def leibniz_check(name: str, space: SpaceSpec, op: Map, left: Map = None,
                  right: Map = None) -> PairCheck:
    """The twisted Leibniz law op(uv) = op(u) right(v) + left(u) op(v), a
    missing map being the identity."""
    return _pair_law(name, space, op, ((op, right), (left, op)), (left, right))


def _composite_derivation_check(name: str, law: PairCheck, u0: MultiIndex) -> PairCheck:
    """The twisted Leibniz law of op = x^u0 D, D the op of the Leibniz law
    law with twists (L_D, R): op(uv) = op(u) R(v) + L(u) op(v), L being
    Th(u0) L_D.  It reuses law's words and, under run_checks, follows from
    law once law has passed (PairCheck)."""
    space, d, (left, right) = law.space, law.op, law.twists
    x_u0 = SuperVector.monomial(space, u0)
    check = leibniz_check(name, space, lambda z: multiply(x_u0, apply_word(d, z)),
                          _w(space, theta_op(u0)).then(left), right)
    check.base = (law, u0)
    return check


def _twist_move_check(name: str, law: PairCheck) -> TripleCheck:
    """(x^a x^b) x^c = theta(a, b) x^b (x^a x^c) on law's space: a corollary
    of law, x^a x^b = theta(a, b) x^b x^a, once law has passed (TripleCheck)."""
    space, mode = law.space, law.space.mode

    def fn(a, b, c):
        return (_terms(_chain(space, product_of(space, a, b), c, True)),
                _terms(_chain(space, product_of(space, a, c), b, False), theta(a, b, mode)))

    return TripleCheck(name, space, fn, base=law)


def _suite_leibniz(space: SpaceSpec) -> list:
    """Twisted Leibniz laws of the derivatives and the twist calculus:
    pairwise derivation laws (both grading-twist sign choices), the label
    additivity/dependency identities, the conjugation table, the twisted
    commutation of monomials, and the composite-derivation law."""
    mode = space.mode
    checks: list = list(_suite_dq(space))
    size = space.shape.size
    fermi = set(space.shape.fermionic_positions())

    bases = []  # per direction, the law its composite laws follow from
    for i in range(1, size + 1):
        e_i = _gen_label(space, i)
        d_i = _w(space, partial(i))
        if i in fermi:
            tw = _w(space, theta_op(-e_i), tau(i))
            checks.append(leibniz_check(f"d{i} twisted Leibniz (exterior)", space, d_i, tw))
        else:
            for sign in (1, -1):
                tw, s_i = _w(space, theta_op(-e_i), sigma(i, sign)), _w(space, sigma(i, -sign))
                checks.append(leibniz_check(f"d{i} twisted Leibniz (sign {sign:+d})", space, d_i,
                                            tw, s_i))
        bases.append(checks[-1])

    one = mode.one()

    def mul(u: dict, v: dict) -> dict:
        return add_products(space, u, v, {})

    def comm_fn(a, b, _images):
        return mul({a: one}, {b: one}), mul({b: theta(a, b, mode)}, {a: one})

    commutation = PairCheck("monomial twisted commutation", space, comm_fn)
    checks.append(commutation)

    def assoc_fn(a, b, c):
        return (_terms(_chain(space, product_of(space, a, b), c, True)),
                _terms(_chain(space, product_of(space, b, c), a, False)))

    checks.append(TripleCheck("associativity", space, assoc_fn, associativity=True))
    checks.append(_twist_move_check("left factor moves past via its twist", commutation))

    # composite derivation law: (mult by a monomial) o d_i, from d_i's law
    # with sign -1 (or the exterior one)
    seeds = [idx for t in range(0, 3) for idx in basis_of_degree(space, t)][:6]
    for i, law in enumerate(bases, 1):
        for lab in seeds:
            checks.append(_composite_derivation_check(
                f"(x^{lab} d{i}) composite derivation", law, lab))
    return checks


_SUITES: dict[str, Callable[[SpaceSpec], list]] = {
    "partials": _suite_partials,
    "dq": _suite_dq,
    "weyl-generic": _suite_weyl_generic,
    "weyl-odd-root": lambda space: _suite_weyl_root(space, QParity.ODD_ROOT),
    "weyl-even-root": lambda space: _suite_weyl_root(space, QParity.EVEN_ROOT),
    "leibniz": _suite_leibniz,
}
SUITE_NAMES = tuple(_SUITES)


def build_suite(suite: str, space: SpaceSpec) -> list:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return _SUITES[suite](space)


def verify_relation_suite(suite: str, space: SpaceSpec, t_max: int) -> RelationReport:
    if space.family not in POLY_SIDE:
        raise InvalidAtomError("relation suites run on the Grassmann-type polynomial side")
    checks = build_suite(suite, space)
    return run_checks(suite, space, checks, t_max)
