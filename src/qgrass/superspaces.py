"""The basis-indexed superalgebras: affine superspace, Grassmann, and duals.

Five families share one sparse representation.  A basis monomial is a valid
MultiIndex; a vector is a finite ScalarQ-linear combination.  Monomial
products are single monomials again (or zero), with structure constants:

* affine (m|n)-superspace -- ordered products of m q-commuting coordinates and
  n anticommuting ones; coefficient (-1)^(fer*fer) q^(full star pairing).
* Grassmann superalgebra -- divided powers tensor an exterior part; the
  divided-power block contributes q^(bos*bos) times a product of balanced
  binomials, the exterior block (-q)^(fer*fer), and the cross block
  q^(fer_left * bos_right).
* dual Grassmann -- exterior part first, inverse-parameter divided powers
  second; mirrored exponents with a (-q)^(-bos_left * fer_right) cross factor.

Restricted variants cap divided-power exponents at ell - 1 where
ell = char(q) >= 3; products overflowing the cap vanish (their binomial
structure constants are zero at the root of unity; a nonzero one raises
ArithmeticError).

MonomialRule.image evaluates every monomial map, x^(a) x^(b) as the cached
left-multiplication rule of a (monomial_product).
"""

from __future__ import annotations

import functools
import sys
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from operator import add

from .indices import MultiIndex, Shape, position_sums
from .qarith import GENERIC, QMode, ScalarQ, _constant, add_term, char_of, q_binom

__all__ = [
    "Family",
    "POLY_SIDE",
    "DUAL_SIDE",
    "SpaceSpec",
    "SuperVector",
    "SpaceMismatchError",
    "make_space",
    "multiply",
    "basis_of_degree",
    "monomial_product",
    "MonomialRule",
    "RuleBuilder",
    "top_degree",
]


class SpaceMismatchError(ValueError):
    pass


class Family(Enum):
    AFFINE = "affine"
    OMEGA = "omega"
    OMEGA_RESTRICTED = "omega-restricted"
    DUAL = "dual"
    DUAL_RESTRICTED = "dual-restricted"


_RESTRICTED = (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED)
# the two sides of the Grassmann-type families; the affine family is neither
POLY_SIDE = (Family.OMEGA, Family.OMEGA_RESTRICTED)
DUAL_SIDE = (Family.DUAL, Family.DUAL_RESTRICTED)


@dataclass(frozen=True)
class SpaceSpec:
    """A family of rank (m|n) over a coefficient mode.  Its shape is derived
    here: the dual-side layout, and on a restricted family the exponent cap
    ell = char(q), which Shape refuses below 3."""

    family: Family
    shape: Shape = field(init=False)
    m: int = field(repr=False)  # shown by the shape
    n: int = field(repr=False)
    mode: QMode

    def __post_init__(self):
        cap = None
        if self.family in _RESTRICTED:
            if self.mode.is_generic:
                raise ValueError("restricted families need a root-of-unity mode")
            cap = char_of(self.mode).ell
        shape = Shape(self.m, self.n, fermionic_first=self.family in DUAL_SIDE, restricted_ell=cap)
        object.__setattr__(self, "shape", shape)
        # every memo keyed on a space hashes it; hash it once
        object.__setattr__(self, "_hash", hash((self.family, shape, self.mode)))

    def __hash__(self) -> int:
        return self._hash

    def unit_index(self) -> MultiIndex:
        return MultiIndex.unit(self.shape)

    def describe(self) -> dict:
        return {
            "family": self.family.value,
            "m": self.m,
            "n": self.n,
            "q": "generic" if self.mode.is_generic else f"root-of-unity d={self.mode.d}",
        }


@functools.lru_cache(maxsize=None)
def make_space(family: Family | str, m: int, n: int, mode: QMode = GENERIC) -> SpaceSpec:
    """The space of a family (or its name) of rank (m|n) over mode, one
    object per argument tuple, so a cache keyed by space finds it by
    identity."""
    return SpaceSpec(Family(family), m, n, mode)


def top_degree(space: SpaceSpec) -> int | None:
    """Largest nonzero degree for restricted families, else None."""
    ell = space.shape.restricted_ell
    if ell is None:
        return None
    if space.family is Family.OMEGA_RESTRICTED:
        return space.m * (ell - 1) + space.n
    return space.m + space.n * (ell - 1)


# ---------------------------------------------------------------------------
# monomial structure constants
# ---------------------------------------------------------------------------


class MonomialRule:
    """An operator that sends each basis monomial to one monomial or to 0:

        x^(a) -> (-1)^(lam.a + lam0) q^(mu.a + mu0) * B(a) * scale * x^(a + shift),

    B(a) the product of [a_i + off + k choose k]_q over ``binoms`` (i, off, k).
    The image is 0 where the coefficient vanishes or a check (i, lo, hi, off,
    k) finds a_i outside [lo, hi].  A check with k > 0 is a restricted cap,
    whose binomial [a_i + off + k choose k]_q must vanish there (else
    ArithmeticError); checks run in acting order, so a composed rule checks
    that only where atom-by-atom application would.  Positions are 0-based;
    ``forms`` holds the nonzero (i, mu_i, lam_i mod 2).  Built by RuleBuilder;
    immutable by convention.
    """

    __slots__ = ("mode", "shift", "checks", "forms", "lam0", "mu0", "binoms", "scale", "_moves")

    def __init__(self, mode: QMode, shift: tuple[int, ...],
                 checks: tuple[tuple[int, int, int, int, int], ...],
                 forms: tuple[tuple[int, int, int], ...], lam0: int, mu0: int,
                 binoms: tuple[tuple[int, int, int], ...], scale: ScalarQ | None):
        self.mode, self.shift, self.checks, self.forms = mode, shift, checks, forms
        self.lam0, self.mu0, self.binoms, self.scale = lam0, mu0, binoms, scale
        self._moves = tuple((i, s) for i, s in enumerate(shift) if s)

    def image(self, idx: MultiIndex) -> tuple[ScalarQ, MultiIndex] | None:
        """The rule on one basis monomial; None when the image is 0."""
        entries, mode = idx.entries, self.mode
        for i, lo, hi, off, k in self.checks:
            x = entries[i]
            if not lo <= x <= hi:
                if k and not q_binom(x + off + k, k, mode).is_zero():
                    raise ArithmeticError("restricted overflow with nonzero binomial")
                return None
        e, odd = self.mu0, self.lam0
        for i, m, l in self.forms:
            x = entries[i]
            e += m * x
            odd += l * x
        coeff = _constant(mode, -1 if odd & 1 else 1, e)
        if self.binoms or self.scale is not None:
            for i, off, k in self.binoms:
                x = entries[i] + off
                if x:
                    coeff = coeff * q_binom(x + k, k, mode)
            if self.scale is not None:
                coeff = coeff * self.scale
            if coeff.is_zero():
                return None
        if self._moves:
            idx = MultiIndex._wrap(tuple(map(add, entries, self.shift)), idx.shape)
        return coeff, idx

    def same_map(self, other: "MonomialRule") -> bool:
        """True only when image equals other.image on every monomial of every
        degree: the same shift, checks, forms and binomials up to order, and
        the same constant (-1)^lam0 q^mu0 scale.  A rule with a restricted
        cap is never the same map, so its cap is still checked by image."""
        if any(c[4] for c in self.checks + other.checks):
            return False
        if (self.shift != other.shift or self.forms != other.forms
                or sorted(self.checks) != sorted(other.checks)
                or sorted(self.binoms) != sorted(other.binoms)):
            return False
        return self._const() == other._const()

    def is_character(self) -> bool:
        """True only when the rule is x^(a) -> chi(a) x^(a) with chi(a) =
        (-1)^(lam.a) q^(mu.a), additive in a: no shift, no checks, no
        binomials, and the constant (-1)^lam0 q^mu0 scale equal to 1.  Every
        product x^(a) x^(b) lies in k x^(a + b) (left_mult shifts by a), so
        such a rule is an algebra map on every degree."""
        return (not self._moves and not self.checks and not self.binoms
                and self._const() == self.mode.one())

    def times(self, c: ScalarQ) -> "MonomialRule":
        """The same rule with its scale multiplied by c; compiles nothing."""
        return MonomialRule(self.mode, self.shift, self.checks, self.forms, self.lam0, self.mu0,
                            self.binoms, c if self.scale is None else self.scale * c)

    def _const(self) -> ScalarQ:
        c = _constant(self.mode, -1 if self.lam0 & 1 else 1, self.mu0)
        return c if self.scale is None else c * self.scale


class RuleBuilder:
    """Composes one MonomialRule from operators of that form applied in turn,
    the first acting first.  A later operator reads a + (the shift so far):
    each call below moves its constant, binomial offset or bounds by the
    running shift, and checks keep the order they are added in."""

    __slots__ = ("mode", "shift", "mu", "lam", "mu0", "lam0", "checks", "binoms")

    def __init__(self, mode: QMode, size: int):
        self.mode = mode
        self.shift, self.mu, self.lam = [0] * size, [0] * size, [0] * size
        self.mu0 = self.lam0 = 0
        self.checks: list[tuple[int, int, int, int, int]] = []
        self.binoms: list[tuple[int, int, int]] = []

    def form(self, i: int, m: int, l: int = 0) -> None:
        """Times (-1)^(l a_i) q^(m a_i)."""
        s = self.shift[i]
        self.mu[i] += m
        self.lam[i] += l
        self.mu0 += m * s
        self.lam0 += l * s

    def check(self, i: int, lo: int, hi: int, cap: int = 0) -> None:
        """Zero unless lo <= a_i <= hi; with cap > 0, [a_i + cap choose cap]_q
        must vanish where the check fails."""
        s = self.shift[i]
        self.checks.append((i, lo - s, hi - s, s, cap))

    def move(self, i: int, s: int) -> None:
        """Then a_i -> a_i + s."""
        self.shift[i] += s

    def left_mult(self, space: SpaceSpec, a: MultiIndex) -> None:
        """Then left multiplication by the basis monomial a.  The structure
        constants of x^(a) x^(b) have the star pairing a * b split by parity
        as exponents, linear in b with the sums of a after each position
        (position_sums) as coefficients: (-1)^(fer*fer) q^(fer_a*bos_b +
        bos*bos + fer*fer) on the affine and Grassmann spaces,
        (-q)^(-bos_a*fer_b - fer*fer) q^(-bos*bos) on the dual ones.  The
        product is 0 unless b_j <= 1 - a_j at each exterior position; each
        divided-power position gives a factor [a_j + b_j choose a_j]_q, and on
        a restricted space a cap b_j <= ell - 1 - a_j."""
        entries, mask = a.entries, space.shape.fermionic_mask
        dual = space.family in DUAL_SIDE
        for j, (_, _, bos, fer) in enumerate(position_sums(a)):
            if mask[j]:
                t = bos + fer if dual else fer
                if t:
                    self.form(j, -t if dual else t, t)
                if entries[j]:  # first: the exterior checks, in any order
                    self.check(j, -sys.maxsize, 1 - entries[j])
            else:
                m = -bos if dual else bos + fer
                if m:
                    self.form(j, m)
        divided = [] if space.family is Family.AFFINE else [
            (j, aj) for j, (aj, is_fer) in enumerate(zip(entries, mask)) if aj and not is_fer]
        cap = space.shape.restricted_ell  # then the caps, by position: one may raise
        if cap is not None:
            for j, aj in divided:
                self.check(j, -sys.maxsize, cap - 1 - aj, aj)
        self.binoms += [(j, self.shift[j], aj) for j, aj in divided]
        self.shift = [s + aj for s, aj in zip(self.shift, entries)]

    def then(self, rule: MonomialRule) -> None:
        """Then the rule, its scale left out: its checks and binomials read
        a_i + (the shift so far), and its shift adds to the running one."""
        shift = self.shift
        self.checks += [(i, lo - shift[i], hi - shift[i], off + shift[i], k)
                        for i, lo, hi, off, k in rule.checks]
        self.binoms += [(i, off + shift[i], k) for i, off, k in rule.binoms]
        for i, m, l in rule.forms:
            self.form(i, m, l)
        self.mu0 += rule.mu0
        self.lam0 += rule.lam0
        self.shift = [s + t for s, t in zip(shift, rule.shift)]

    def build(self, scale: ScalarQ | None = None) -> MonomialRule:
        """The composed rule, times scale."""
        forms = tuple((i, m, l & 1) for i, (m, l) in enumerate(zip(self.mu, self.lam))
                      if m or l & 1)
        return MonomialRule(self.mode, tuple(self.shift), tuple(self.checks), forms,
                            self.lam0, self.mu0, tuple(self.binoms), scale)


@functools.lru_cache(maxsize=None)
def _left_mult_rule(space: SpaceSpec, entries: tuple[int, ...]) -> MonomialRule:
    """The left_mult rule of the basis monomial of these entries, built once."""
    builder = RuleBuilder(space.mode, len(entries))
    builder.left_mult(space, MultiIndex._wrap(entries, space.shape))
    return builder.build()


def monomial_product(space: SpaceSpec, a: MultiIndex, b: MultiIndex) -> tuple[ScalarQ, MultiIndex] | None:
    """Structure constant of a*b, or None when the product vanishes: the image
    of b under the left_mult rule of a, compiled once per space and a."""
    return _left_mult_rule(space, a.entries).image(b)


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


class SuperVector:
    """Finite ScalarQ-linear combination of basis monomials of one space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: SpaceSpec, terms: dict[MultiIndex, ScalarQ] | None = None):
        self.space = space
        clean: dict[MultiIndex, ScalarQ] = {}
        if terms:
            for idx, c in terms.items():
                if c.is_zero():
                    continue
                if not idx.is_valid_basis_key():
                    raise ValueError(f"invalid basis key {idx} for {space.family.value}")
                clean[idx] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, space: SpaceSpec, terms: dict[MultiIndex, ScalarQ]) -> "SuperVector":
        # adopt a map of basis keys to nonzero scalars that is not shared
        res = cls.__new__(cls)
        res.space, res.terms = space, terms
        return res

    @classmethod
    def zero(cls, space: SpaceSpec) -> "SuperVector":
        return cls(space)

    @classmethod
    def monomial(cls, space: SpaceSpec, idx: MultiIndex, coeff: ScalarQ | None = None) -> "SuperVector":
        return cls(space, {idx: coeff if coeff is not None else space.mode.one()})

    @classmethod
    def unit(cls, space: SpaceSpec) -> "SuperVector":
        return cls.monomial(space, space.unit_index())

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "SuperVector") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("vectors live in different spaces")

    def __add__(self, other: "SuperVector") -> "SuperVector":
        self._check(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            add_term(out, idx, c)
        return SuperVector._wrap(self.space, out)

    def __sub__(self, other: "SuperVector") -> "SuperVector":
        return self + (-other)

    def __neg__(self) -> "SuperVector":
        return SuperVector._wrap(self.space, {idx: -c for idx, c in self.terms.items()})

    def scaled(self, c: ScalarQ) -> "SuperVector":
        if c.is_zero():
            return SuperVector.zero(self.space)
        return SuperVector._wrap(self.space, {idx: a * c for idx, a in self.terms.items()})

    def __mul__(self, other: "SuperVector") -> "SuperVector":
        return multiply(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperVector)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def degree(self) -> int | None:
        """Common degree of all terms, or None if inhomogeneous/zero."""
        degs = {idx.degree() for idx in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[MultiIndex, ScalarQ]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].entries)

    def to_json(self) -> list[dict]:
        return [{"index": str(i), "coefficient": str(c)} for i, c in self.sorted_terms()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{i}" for i, c in self.sorted_terms())

    __repr__ = __str__


# The memo of one weyl.run_checks call.  Per space it holds the product
# table {(a.entries, b.entries): monomial_product result} that product_of
# reads and fills; weyl.run_checks describes the other keys it keeps there.
# Set only while run_checks runs; a context variable, so a thread outside
# that call never sees it.  A call that raises stores nothing.
suite_memo: ContextVar[dict | None] = ContextVar("suite_memo", default=None)
_MISS = object()


def product_of(space: SpaceSpec, a: MultiIndex, b: MultiIndex) -> tuple[ScalarQ, MultiIndex] | None:
    """monomial_product(space, a, b), computed once into the space's product
    table under an open suite memo, and afresh outside one."""
    memo = suite_memo.get()
    if memo is None:
        return monomial_product(space, a, b)
    products = memo.get(space)
    if products is None:
        products = memo[space] = {}
    key = (a.entries, b.entries)
    hit = products.get(key, _MISS)
    if hit is _MISS:
        hit = products[key] = monomial_product(space, a, b)
    return hit


def add_products(space: SpaceSpec, u: dict, v: dict, out: dict) -> dict:
    """Add the product of two term maps ({MultiIndex: ScalarQ}) into the term
    map out and return it; each monomial product goes through product_of."""
    for ia, ca in u.items():
        for ib, cb in v.items():
            hit = product_of(space, ia, ib)
            if hit is not None:
                add_term(out, hit[1], hit[0] * ca * cb)
    return out


def multiply(u: SuperVector, v: SuperVector) -> SuperVector:
    """Bilinear extension of the monomial structure constants.

    Inside weyl.run_checks each monomial product is looked up in the suite
    memo's product table of the space and computed once; outside it every
    product is computed afresh.
    """
    u._check(v)
    space = u.space
    out = add_products(space, u.terms, v.terms, {})
    return SuperVector._wrap(space, out)


@functools.lru_cache(maxsize=None)
def basis_of_degree(space: SpaceSpec, t: int) -> tuple[MultiIndex, ...]:
    """All valid basis keys of total degree t, in lexicographic order: the
    compositions of t with at most 1 in an exterior direction and at most
    ell - 1 in a restricted divided-power one."""
    shape = space.shape
    cap = t if shape.restricted_ell is None else shape.restricted_ell - 1
    caps = [1 if fer else cap for fer in shape.fermionic_mask]
    total = sum(caps)
    if not 0 <= t <= total:
        return ()
    # tails[s]: the compositions of s over the positions from the current one
    # on, in lex order, for each s the positions before can complete to t
    tails, after = {0: [()]}, 0
    for c in reversed(caps):
        after += c
        tails = {s: [(v,) + rest for v in range(min(c, s) + 1) for rest in tails.get(s - v, ())]
                 for s in range(max(0, t - total + after), min(t, after) + 1)}
    return tuple(MultiIndex._wrap(entries, shape) for entries in tails[t])
