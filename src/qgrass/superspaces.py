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
structure constants are zero at the root of unity, which is asserted).
"""

from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

from .indices import MultiIndex, Shape, split_star, theta
from .qarith import GENERIC, QMode, ScalarQ, add_term, char_of, q_binom

__all__ = [
    "Family",
    "POLY_SIDE",
    "DUAL_SIDE",
    "SpaceSpec",
    "SuperVector",
    "SpaceMismatchError",
    "make_space",
    "multiply",
    "parity_map",
    "basis_of_degree",
    "monomial_product",
    "commutation_factor",
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
    family: Family
    shape: Shape
    mode: QMode

    def __post_init__(self):
        dual = self.family in DUAL_SIDE
        if self.shape.fermionic_first != dual:
            raise ValueError("shape layout does not match the family side")
        if self.family in _RESTRICTED:
            profile = char_of(self.mode)
            if profile.ell < 3:
                raise ValueError("restricted families need char(q) = ell >= 3")
            if self.shape.restricted_ell != profile.ell:
                raise ValueError("shape cap must equal char(q)")
        elif self.shape.restricted_ell is not None:
            raise ValueError("exponent cap is only for restricted families")

    @property
    def m(self) -> int:
        return self.shape.m

    @property
    def n(self) -> int:
        return self.shape.n

    def unit_index(self) -> MultiIndex:
        return MultiIndex.unit(self.shape)

    def describe(self) -> dict:
        return {
            "family": self.family.value,
            "m": self.shape.m,
            "n": self.shape.n,
            "q": "generic" if self.mode.is_generic else f"root-of-unity d={self.mode.d}",
        }


def make_space(family: Family | str, m: int, n: int, mode: QMode = GENERIC) -> SpaceSpec:
    """Build a SpaceSpec with the layout and caps implied by the family."""
    family = Family(family) if not isinstance(family, Family) else family
    dual = family in DUAL_SIDE
    cap = None
    if family in _RESTRICTED:
        cap = char_of(mode).ell if not mode.is_generic else 0
        if mode.is_generic:
            raise ValueError("restricted families need a root-of-unity mode")
    shape = Shape(m, n, fermionic_first=dual, restricted_ell=cap)
    return SpaceSpec(family, shape, mode)


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


def monomial_product(space: SpaceSpec, a: MultiIndex, b: MultiIndex) -> tuple[ScalarQ, MultiIndex] | None:
    """Structure constant of a*b, or None when the product vanishes."""
    target = a + b
    mask = space.shape.fermionic_mask
    for e, fer in zip(target.entries, mask):
        if fer and e > 1:
            return None
    mode = space.mode
    bb, ff, fb, bf = split_star(a, b)

    if space.family is Family.AFFINE:
        coeff = mode.q_power(bb + ff + fb)
        if ff % 2:
            coeff = -coeff
        return coeff, target

    cap = space.shape.restricted_ell
    if space.family in (Family.OMEGA, Family.OMEGA_RESTRICTED):
        # q^(fer_a*bos_b) cross, q^(bos*bos) divided-power, (-q)^(fer*fer) exterior
        exp = fb + bb + ff
        sign = -1 if ff % 2 else 1
    else:
        # (-q)^(-bos_a*fer_b) cross, (-q)^(-fer*fer) exterior, q^(-bos*bos)
        exp = -(bf + bb + ff)
        sign = -1 if (ff + bf) % 2 else 1
    coeff = mode.q_power(exp)
    if sign < 0:
        coeff = -coeff

    # divided-power block: product of one-variable balanced binomials
    for ai, bi, fer in zip(a.entries, b.entries, mask):
        if fer or not (ai and bi):
            continue
        if cap is not None and ai + bi >= cap:
            binom = q_binom(ai + bi, ai, mode)
            assert binom.is_zero(), "restricted overflow with nonzero binomial"
            return None
        coeff = coeff * q_binom(ai + bi, ai, mode)
    if coeff.is_zero():
        return None
    if cap is not None and not target.is_valid_basis_key():
        return None
    return coeff, target


def commutation_factor(space: SpaceSpec, a: MultiIndex, b: MultiIndex, mode: QMode | None = None) -> ScalarQ:
    """Scalar c with (monomial a)(monomial b) = c (monomial b)(monomial a).

    On the polynomial side this is the twist bicharacter; the dual side has
    its own bicharacter with mirrored exponents.
    """
    mode = mode or space.mode
    if space.family not in DUAL_SIDE:
        return theta(a, b, mode)
    bb_ab, ff_ab, _, bf_ab = split_star(a, b)
    bb_ba, ff_ba, _, bf_ba = split_star(b, a)
    fer_exp = ff_ba - ff_ab
    cross_exp = bf_ba - bf_ab
    value = mode.q_power((bb_ba - bb_ab) + fer_exp + cross_exp)
    if (fer_exp + cross_exp) % 2:
        value = -value
    return value


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


# The memo tables of one weyl.run_checks call, per space: a product table
# {(a.entries, b.entries): monomial_product result} read by multiply, and an
# atom table {atom: {idx.entries: apply_atom result}} read by weyl.OperatorWord.
# Set only while run_checks runs; a context variable, so a thread outside that
# call never sees it.  A call that raises stores nothing.
suite_memo: ContextVar[dict | None] = ContextVar("suite_memo", default=None)
_MISS = object()


def suite_tables(space: SpaceSpec) -> tuple[dict, dict] | None:
    """(product table, atom table) of space under the open suite memo, or None."""
    memo = suite_memo.get()
    if memo is None:
        return None
    tables = memo.get(space)
    if tables is None:
        tables = memo[space] = ({}, {})
    return tables


def multiply(u: SuperVector, v: SuperVector) -> SuperVector:
    """Bilinear extension of the monomial structure constants.

    Inside weyl.run_checks each monomial product is looked up in the suite
    memo's product table of the space and computed once; outside it every
    product is computed afresh.
    """
    u._check(v)
    space = u.space
    tables = suite_tables(space)
    products = None if tables is None else tables[0]
    out: dict[MultiIndex, ScalarQ] = {}
    for ia, ca in u.terms.items():
        for ib, cb in v.terms.items():
            if products is None:
                hit = monomial_product(space, ia, ib)
            else:
                key = (ia.entries, ib.entries)
                hit = products.get(key, _MISS)
                if hit is _MISS:
                    hit = products[key] = monomial_product(space, ia, ib)
            if hit is None:
                continue
            coeff, idx = hit
            add_term(out, idx, coeff * ca * cb)
    return SuperVector._wrap(space, out)


def parity_map(u: SuperVector) -> SuperVector:
    """Order-2 grading automorphism: sign by exterior degree (polynomial side)
    or by divided-power degree (dual side)."""
    if u.space.family is Family.AFFINE:
        raise ValueError("parity automorphism is defined on the Grassmann-type spaces")
    dual = u.space.family in DUAL_SIDE
    out = {}
    for idx, c in u.terms.items():
        weight = idx.bosonic_degree() if dual else idx.fermionic_degree()
        out[idx] = -c if weight % 2 else c
    return SuperVector._wrap(u.space, out)


@functools.lru_cache(maxsize=None)
def basis_of_degree(space: SpaceSpec, t: int) -> tuple[MultiIndex, ...]:
    """All valid basis keys of total degree t, in lexicographic order."""
    if t < 0:
        return ()
    shape = space.shape
    cap = shape.restricted_ell
    ranges = []
    for fer in shape.fermionic_mask:
        if fer:
            ranges.append(range(0, min(1, t) + 1))
        else:
            hi = t if cap is None else min(t, cap - 1)
            ranges.append(range(0, hi + 1))
    out = [
        MultiIndex(entries, shape)
        for entries in itertools.product(*ranges)
        if sum(entries) == t
    ]
    return tuple(out)  # itertools.product over ascending ranges is lex order
