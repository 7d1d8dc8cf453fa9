"""Exponent-tuple combinatorics: the star pairing and the twist bicharacter.

A multi-index is an (m+n)-tuple of integers laid out in position order.  For
the polynomial-side spaces positions 1..m are bosonic (divided-power
exponents) and positions m+1..m+n fermionic (0/1 exponents); the dual-side
spaces flip the pattern.  Basis keys are constrained; *labels* (the arguments
of the diagonal twist automorphisms) may hold arbitrary integers, e.g. a
label -e_i + e_{i+1}.

The star pairing a * b = sum_{i > j} a_i b_j, split by the parities of the
positions, gives every commutation factor and structure constant.  For fixed
a it is linear in b, both ways round: position_sums(a) holds the sums of a
before and after each position by parity, the coefficients of b_j, and is
the one place that pairs exponents.  The left-multiplication rules of
superspaces read it, and so does twist_forms, the twist bicharacter on
labels as linear forms: a q-power from the bosonic blocks, a (-q)-power from
the fermionic blocks and a mixed q-power, with theta(a, b) * theta(b, a) = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .qarith import QMode, ScalarQ, _constant

__all__ = [
    "Shape", "MultiIndex", "position_sums", "twist_forms", "theta", "theta_exponents",
    "ShapeMismatchError",
]


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Shape:
    """Rank data for an (m|n)-type space.

    ``fermionic_first`` selects the dual-side layout (fermionic block of
    length m first, bosonic block of length n second).  ``restricted_ell``
    caps bosonic basis exponents at ell - 1; it is only meaningful for
    root-of-unity coefficient modes.
    """

    m: int
    n: int
    fermionic_first: bool = False
    restricted_ell: int | None = None

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("negative rank")
        if self.restricted_ell is not None and self.restricted_ell < 3:
            raise ValueError("restricted exponent cap requires ell >= 3")

    @functools.cached_property
    def size(self) -> int:
        return self.m + self.n

    def is_fermionic_pos(self, pos: int) -> bool:
        """Parity of 1-based position."""
        if self.fermionic_first:
            return pos <= self.m
        return pos > self.m

    @functools.cached_property
    def fermionic_mask(self) -> tuple[bool, ...]:
        return tuple(self.is_fermionic_pos(p) for p in range(1, self.size + 1))

    def fermionic_positions(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.size + 1) if self.is_fermionic_pos(p))


@dataclass(frozen=True, order=True)
class MultiIndex:
    """An exponent tuple over a fixed shape, compared lexicographically.

    Dataclass ordering compares ``entries`` first, which gives the fixed
    lexicographic order used for sparse storage and deterministic reports.
    """

    entries: tuple[int, ...]
    shape: Shape = field(compare=False)

    def __post_init__(self):
        if len(self.entries) != self.shape.size:
            raise ShapeMismatchError("entry count does not match shape")

    @classmethod
    def _wrap(cls, entries: tuple[int, ...], shape: Shape) -> "MultiIndex":
        # adopt entries already known to have the shape's length
        obj = cls.__new__(cls)
        obj.__dict__.update(entries=entries, shape=shape)
        return obj

    def degree(self) -> int:
        return sum(self.entries)

    # ---- label arithmetic (no validity constraints) -------------------------

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)), self.shape)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex(tuple(a - b for a, b in zip(self.entries, other.entries)), self.shape)

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(tuple(-a for a in self.entries), self.shape)

    def _check(self, other: "MultiIndex") -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError("shapes disagree")

    # ---- basis-key validity --------------------------------------------------

    def is_valid_basis_key(self) -> bool:
        """Basis keys: bosonic entries >= 0 (< ell when restricted), fermionic in {0,1}."""
        cap = self.shape.restricted_ell
        for e, fer in zip(self.entries, self.shape.fermionic_mask):
            if fer:
                if e not in (0, 1):
                    return False
            else:
                if e < 0 or (cap is not None and e >= cap):
                    return False
        return True

    # ---- helpers -------------------------------------------------------------

    @classmethod
    def unit(cls, shape: Shape) -> "MultiIndex":
        return cls((0,) * shape.size, shape)

    @classmethod
    def basis_vector(cls, shape: Shape, pos: int, value: int = 1) -> "MultiIndex":
        """The label value * e_pos (1-based position)."""
        if not 1 <= pos <= shape.size:
            raise ValueError(f"position {pos} out of range 1..{shape.size}")
        e = [0] * shape.size
        e[pos - 1] = value
        return cls(tuple(e), shape)

    def render(self) -> str:
        first = self.entries[: self.shape.m]
        second = self.entries[self.shape.m :]
        return "(" + ",".join(map(str, first)) + " | " + ",".join(map(str, second)) + ")"

    def __str__(self) -> str:
        return self.render()


def position_sums(a: MultiIndex) -> list[tuple[int, int, int, int]]:
    """Per position j, the sums of a over the bosonic and the fermionic
    positions before j, then over those after j: (bos_before, fer_before,
    bos_after, fer_after).  For fixed a, the star pairings a * b and b * a,
    split by parity, are linear in b with these sums as the coefficients of
    b_j; every pairing of exponents in the package reads them."""
    mask = a.shape.fermionic_mask
    sums = [0, 0, 0, 0]  # bos_before, fer_before, bos_after, fer_after
    for e, fer in zip(a.entries, mask):
        sums[2 + fer] += e
    out = []
    for e, fer in zip(a.entries, mask):
        sums[2 + fer] -= e
        out.append(tuple(sums))
        sums[fer] += e
    return out


def twist_forms(a: MultiIndex) -> list[tuple[int, int]]:
    """Per position j, the pair (mu_j, lam_j) with theta(a, b) =
    (-1)^(lam . b) q^(mu . b): the twist bicharacter q^(ab - ba on bosonic
    parts) * (-q)^(ab - ba on fermionic parts) * q^(fer(a)*bos(b) -
    fer(b)*bos(a)) as linear forms in b, read from position_sums(a)."""
    if a.shape.fermionic_first:
        raise ShapeMismatchError("twist bicharacter is defined on polynomial-side labels")
    forms = []
    for fer, (bos_before, fer_before, bos_after, fer_after) in zip(
            a.shape.fermionic_mask, position_sums(a)):
        if fer:
            forms.append((fer_after - fer_before - bos_before, fer_after - fer_before))
        else:
            forms.append((bos_after - bos_before + fer_after, 0))
    return forms


def theta_exponents(a: MultiIndex, b: MultiIndex) -> tuple[int, int]:
    """The twist bicharacter theta(a, b) as the integer pair (lam, mu) of
    (-1)^lam q^mu, lam in {0, 1}: the form of MonomialRule's constant, shared
    by the Hopf braiding data."""
    a._check(b)
    lam = mu = 0
    for (m, l), e in zip(twist_forms(a), b.entries):
        mu += m * e
        lam += l * e
    return lam % 2, mu


def theta(a: MultiIndex, b: MultiIndex, mode: QMode) -> ScalarQ:
    """Twist bicharacter on labels of a polynomial-side space: the scalar c
    with x^a x^b = c x^b x^a, built from theta_exponents."""
    lam, mu = theta_exponents(a, b)
    return _constant(mode, -1 if lam else 1, mu)
