"""Exact coefficient arithmetic for quantum algebra computations.

Everything downstream works over one of two exact coefficient fields:

* generic mode -- the rational function field Q(v), with v the quantum
  parameter.  Elements are reduced fractions of sparse Laurent polynomials.
* root-of-unity mode -- the cyclotomic field Q[v]/(Phi_d(v)), i.e. q is a
  primitive d-th root of unity.  Elements are residues of degree < deg Phi_d.

On top of the field live the balanced q-integers [n] = (q^n - q^-n)/(q - q^-1),
their factorials, the one-sided q-binomials built from (r)_q = (q^r - 1)/(q - 1)
in one Pascal table, and the balanced Gaussian binomials, read from that table
at v -> v^2 since [n]_v = v^(1-n) (n)_{v^2}.  All are computed by
division-free recursions in Z[v, v^-1] and then mapped into the requested
field, so root-of-unity evaluation never divides by a vanishing q-bracket.

Coefficients -- of a LaurentPoly and of a cyclotomic residue -- have one
canonical form: a plain int when integral, otherwise a reduced Fraction whose
denominator exceeds 1.  Floats are refused wherever a coefficient is built,
and every division goes through Fraction.  The constants handed out by
QMode.q_power, minus_q_power, scalar, one and zero, and the q_binom values,
are shared ScalarQ objects, immutable like every ScalarQ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

__all__ = [
    "LaurentPoly",
    "QMode",
    "GENERIC",
    "root_of_unity",
    "ScalarQ",
    "add_term",
    "QParity",
    "CharProfile",
    "char_of",
    "q_int",
    "q_factorial",
    "q_binom",
    "q_binom_unbalanced",
    "q_binom_split",
    "q_binom_at_char",
    "cyclotomic_poly",
]

_ZERO = Fraction(0)
_ONE_COEFFS = {0: 1}


def _coef(c) -> int | Fraction:
    """Canonical coefficient: an int when integral, else a reduced Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool
        return int(c)
    raise TypeError(f"coefficients are exact rationals, not {type(c).__name__}: {c!r}")


def _div(a, b) -> int | Fraction:
    # exact quotient of two coefficients; int / int would be a float
    return _coef(Fraction(a, b))


class LaurentPoly:
    """Sparse Laurent polynomial in v with exact rational coefficients.

    Stored as a map exponent -> nonzero coefficient in canonical form (an int
    when integral, else a reduced Fraction with denominator > 1; never a
    float, which the constructors refuse with TypeError); the zero polynomial
    has an empty map.  Instances are immutable by convention: no method
    mutates ``coeffs`` after construction.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int | Fraction] | None = None):
        cleaned: dict[int, int | Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _coef(c)
                if c:
                    cleaned[int(k)] = c
        self.coeffs = cleaned
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, coeffs: dict[int, int | Fraction]) -> "LaurentPoly":
        # adopt a map that is already canonical, nonzero and not shared
        res = cls.__new__(cls)
        res.coeffs = coeffs
        res._hash = None
        return res

    @classmethod
    def term(cls, coeff: int | Fraction, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._wrap({0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        if k == 0 or not self.coeffs:
            return self
        return LaurentPoly._wrap({e + k: c for e, c in self.coeffs.items()})

    def scale(self, c: int | Fraction) -> "LaurentPoly":
        c = _coef(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly({e: a * c for e, a in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s if type(s) is int else _coef(s)
            else:
                out.pop(e, None)
        return LaurentPoly._wrap(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        out: dict[int, int | Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s if type(s) is int else _coef(s)
                else:
                    out.pop(e, None)
        return LaurentPoly._wrap(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def content(self) -> Fraction:
        """Positive rational c with self/c integral and content 1 (0 for 0)."""
        if not self.coeffs:
            return _ZERO
        num = 0
        den = 1
        for c in self.coeffs.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def leading_coeff(self) -> int | Fraction:
        return self.coeffs[self.max_exp()] if self.coeffs else 0

    def invert_variable(self) -> "LaurentPoly":
        """Substitute v -> v^-1."""
        return LaurentPoly._wrap({-e: c for e, c in self.coeffs.items()})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                mono = str(c)
            else:
                v = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    mono = v
                elif c == -1:
                    mono = f"-{v}"
                else:
                    mono = f"{c}*{v}"
            parts.append(mono)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    # ordinary polynomial division; both arguments must have min_exp >= 0
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot: dict[int, int | Fraction] = {}
    rem = a
    db = b.max_exp()
    lb = b.leading_coeff()
    while rem.coeffs and rem.max_exp() >= db:
        e = rem.max_exp() - db
        c = _div(rem.leading_coeff(), lb)
        quot[e] = c
        rem = rem - b.shift(e).scale(c)
    return LaurentPoly._wrap(quot), rem


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # monic gcd of ordinary polynomials over Q
    while b.coeffs:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.coeffs:
        a = a.scale(_div(1, a.leading_coeff()))
    return a


def _poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = _poly_divmod(a, b)
    if r.coeffs:
        raise ArithmeticError("inexact polynomial division")
    return q


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial Phi_d, monic with integer coefficients."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = LaurentPoly({d: 1, 0: -1})  # v^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = _poly_exact_div(num, cyclotomic_poly(e))
    return num


@dataclass(frozen=True)
class QMode:
    """Coefficient-field selector: d=None for generic q, else q = primitive d-th root."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None and self.d < 3:
            raise ValueError("root-of-unity order must be >= 3 (q = +-1 excluded)")
        # every memo keyed on a mode hashes it; hash it once
        object.__setattr__(self, "_hash", hash(self.d))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_generic(self) -> bool:
        return self.d is None

    # ---- element constructors -------------------------------------------

    def from_laurent(self, p: LaurentPoly) -> "ScalarQ":
        return _from_laurent(self, p)

    # The constants below are shared ScalarQ objects (see _constant).

    def scalar(self, c: int | Fraction) -> "ScalarQ":
        return _constant(self, _coef(c), 0)

    def zero(self) -> "ScalarQ":
        return _constant(self, 0, 0)

    def one(self) -> "ScalarQ":
        return self._one

    @functools.cached_property
    def _one(self) -> "ScalarQ":
        # the shared one; every product reads it, so it skips the lru_cache
        return _constant(self, 1, 0)

    def q(self) -> "ScalarQ":
        return _constant(self, 1, 1)

    def q_power(self, k: int) -> "ScalarQ":
        return _constant(self, 1, k)

    def minus_q_power(self, k: int) -> "ScalarQ":
        """(-q)^k for any integer k."""
        return _constant(self, -1 if k % 2 else 1, k)


GENERIC = QMode(None)


def root_of_unity(d: int) -> QMode:
    return QMode(d)


def _from_laurent(mode: QMode, p: LaurentPoly) -> "ScalarQ":
    if mode.is_generic:
        return ScalarQ._make_generic(mode, p, LaurentPoly.one())
    return ScalarQ._make_root(mode, _reduce_mod_phi(mode.d, p))


@functools.lru_cache(maxsize=None)
def _constant(mode: QMode, coeff: int | Fraction, exp: int) -> "ScalarQ":
    # coeff * q^exp, built once per key; callers pass a canonical coeff
    return _from_laurent(mode, LaurentPoly.term(coeff, exp))


@functools.lru_cache(maxsize=None)
def _phi_reduction_table(d: int) -> tuple[tuple[int, ...], ...]:
    # row k: coefficients of v^(deg+k) reduced mod Phi_d; covers every exponent
    # reachable from products of residues (2*deg - 2) and from v^(d-1)
    phi = cyclotomic_poly(d)
    deg = phi.max_exp()
    top_exp = max(2 * deg - 2, d - 1)
    rows: list[tuple[int, ...]] = []
    # v^deg = -(phi - v^deg); Phi_d is monic and integral, so every row is too
    cur = [-phi.coeffs.get(i, 0) for i in range(deg)]
    rows.append(tuple(cur))
    for _ in range(top_exp - deg):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [cur[i] + top * rows[0][i] for i in range(deg)]
        rows.append(tuple(cur))
    return tuple(rows)


def _canonical_residue(res: list) -> tuple[int | Fraction, ...]:
    for c in res:
        if type(c) is not int:
            return tuple(c if type(c) is int else _coef(c) for c in res)
    return tuple(res)


def _reduce_mod_phi(d: int, p: LaurentPoly) -> tuple[int | Fraction, ...]:
    deg = cyclotomic_poly(d).max_exp()
    res = [0] * deg
    table = _phi_reduction_table(d)
    for e, c in p.coeffs.items():
        e %= d  # v^d = 1 in Q[v]/Phi_d
        if e < deg:
            res[e] += c
        else:
            row = table[e - deg]
            for i in range(deg):
                if row[i]:
                    res[i] += c * row[i]
    return _canonical_residue(res)


def _residue_mul(d: int, a: tuple, b: tuple) -> tuple[int | Fraction, ...]:
    deg = len(a)
    prod = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    res = list(prod[:deg])
    table = _phi_reduction_table(d)
    for k in range(deg, 2 * deg - 1):
        c = prod[k]
        if c:
            row = table[k - deg]
            for i in range(deg):
                if row[i]:
                    res[i] += c * row[i]
    return _canonical_residue(res)


def _residue_inv(d: int, a: tuple) -> tuple[int | Fraction, ...]:
    # extended Euclid in Q[v] against Phi_d; Phi_d is irreducible over Q
    phi = cyclotomic_poly(d)
    r0, r1 = phi, LaurentPoly({i: c for i, c in enumerate(a) if c})
    if r1.is_zero():
        raise ZeroDivisionError("inverse of zero cyclotomic residue")
    s0, s1 = LaurentPoly.zero(), LaurentPoly.one()
    while r1.coeffs:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # r0 = gcd (a nonzero constant), s0 * a = r0 (mod phi)
    inv = s0.scale(_div(1, r0.coeffs[0]))
    return _reduce_mod_phi(d, inv)


class ScalarQ:
    """Element of the active coefficient field (see module docstring).

    Generic mode stores a reduced fraction num/den of Laurent polynomials with
    the denominator an honest polynomial, coprime to the numerator, content 1
    and positive leading coefficient; equality is then representational.
    Root mode stores the residue vector modulo Phi_d.  Every coefficient, of
    num, den or the residue, is in the canonical form of the module
    docstring: an int when integral, else a reduced Fraction, never a float.

    Instances are immutable by convention and may be shared: the QMode
    constants (q_power, scalar, one, ...) return the same object on every
    call.  The lazily computed ``_hash`` is the only field written after
    construction, and writing it again stores the same value.  So a product
    by the shared one (the object ``mode.one()`` returns) returns the other
    factor itself, after the mode check.
    """

    __slots__ = ("mode", "num", "den", "res", "_hash")

    def __init__(self, *a, **k):
        raise TypeError("use QMode factories (mode.scalar, mode.q_power, ...)")

    # ---- construction ----------------------------------------------------

    @classmethod
    def _make_generic(cls, mode: QMode, num: LaurentPoly, den: LaurentPoly) -> "ScalarQ":
        num, den = _normalize_fraction(num, den)
        obj = cls.__new__(cls)
        obj.mode, obj.num, obj.den, obj.res, obj._hash = mode, num, den, None, None
        return obj

    @classmethod
    def _make_root(cls, mode: QMode, res: tuple[int | Fraction, ...]) -> "ScalarQ":
        obj = cls.__new__(cls)
        obj.mode, obj.num, obj.den, obj.res, obj._hash = mode, None, None, res, None
        return obj

    # ---- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        if self.mode.d is None:
            return not self.num.coeffs
        return not any(self.res)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _check(self, other: "ScalarQ") -> None:
        if self.mode is not other.mode and self.mode != other.mode:
            raise ValueError("mixed coefficient modes")

    # ---- ring/field operations -------------------------------------------

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        self._check(other)
        if self.mode.is_generic:
            if self.den == other.den:
                return ScalarQ._make_generic(self.mode, self.num + other.num, self.den)
            return ScalarQ._make_generic(
                self.mode, self.num * other.den + other.num * self.den, self.den * other.den
            )
        return ScalarQ._make_root(
            self.mode, _canonical_residue([a + b for a, b in zip(self.res, other.res)])
        )

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def __neg__(self) -> "ScalarQ":
        if self.mode.is_generic:
            obj = ScalarQ.__new__(ScalarQ)
            obj.mode, obj.num, obj.den, obj.res, obj._hash = self.mode, -self.num, self.den, None, None
            return obj
        return ScalarQ._make_root(self.mode, tuple(-a for a in self.res))

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        self._check(other)
        one = self.mode._one
        if other is one:
            return self
        if self is one:
            return other
        if self.mode.d is None:
            a, b = self.num.coeffs, other.num.coeffs
            if len(a) == 1 == len(b) and self.den.coeffs == _ONE_COEFFS == other.den.coeffs:
                # two monomials c1 v^e1, c2 v^e2 over den 1: c1 c2 v^(e1+e2),
                # already reduced; c1 c2 is nonzero
                ((e1, c1),), ((e2, c2),) = a.items(), b.items()
                obj = ScalarQ.__new__(ScalarQ)
                obj.mode, obj.num, obj.den, obj.res, obj._hash = (
                    self.mode, LaurentPoly._wrap({e1 + e2: _coef(c1 * c2)}), self.den, None, None
                )
                return obj
            # a den-1 factor leaves the other den; _make_generic reduces it
            if self.den.coeffs == _ONE_COEFFS:
                den = other.den
            elif other.den.coeffs == _ONE_COEFFS:
                den = self.den
            else:
                den = self.den * other.den
            return ScalarQ._make_generic(self.mode, self.num * other.num, den)
        return ScalarQ._make_root(self.mode, _residue_mul(self.mode.d, self.res, other.res))

    def inverse(self) -> "ScalarQ":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.mode.is_generic:
            return ScalarQ._make_generic(self.mode, self.den, self.num)
        return ScalarQ._make_root(self.mode, _residue_inv(self.mode.d, self.res))

    def __truediv__(self, other: "ScalarQ") -> "ScalarQ":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarQ) or self.mode != other.mode:
            return NotImplemented if not isinstance(other, ScalarQ) else False
        if self.mode.is_generic:
            return self.num == other.num and self.den == other.den
        return self.res == other.res

    def __hash__(self) -> int:
        if self._hash is None:
            if self.mode.is_generic:
                self._hash = hash((self.mode, self.num, self.den))
            else:
                self._hash = hash((self.mode, self.res))
        return self._hash

    # ---- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.mode.is_generic:
            if self.den == LaurentPoly.one():
                return str(self.num)
            return f"({self.num})/({self.den})"
        return "[" + ", ".join(str(c) for c in self.res) + f"] mod Phi_{self.mode.d}"

    def __repr__(self) -> str:
        return f"ScalarQ({self})"


def add_term(out: dict, key, c: ScalarQ) -> None:
    """Add c at key in a sparse map of scalars, dropping the key if the sum vanishes."""
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _normalize_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.coeffs == _ONE_COEFFS:
        return num, den
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    shift = den.min_exp()
    den = den.shift(-shift)
    num = num.shift(-shift)
    if den != LaurentPoly.one():
        num_shift = num.min_exp()
        g = _poly_gcd(num.shift(-num_shift), den)
        if g != LaurentPoly.one():
            num = _poly_exact_div(num.shift(-num_shift), g).shift(num_shift)
            den = _poly_exact_div(den, g)
        c = den.content()
        if den.leading_coeff() < 0:
            c = -c
        if c != 1:
            inv = _div(1, c)
            num = num.scale(inv)
            den = den.scale(inv)
    return num, den


# ---------------------------------------------------------------------------
# q-combinatorics in Z[v, v^-1]
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _q_int_laurent(n: int) -> LaurentPoly:
    # [n] = v^(n-1) + v^(n-3) + ... + v^(1-n), and [-n] = -[n]
    if n == 0:
        return LaurentPoly.zero()
    if n < 0:
        return -_q_int_laurent(-n)
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@functools.lru_cache(maxsize=None)
def _q_binom_unbalanced_poly(p: int, r: int) -> LaurentPoly:
    # one-sided q-binomial from (r)_q = 1 + q + ... + q^(r-1); Pascal recursion
    if r < 0 or r > p:
        return LaurentPoly.zero()
    if r == 0 or r == p:
        return LaurentPoly.one()
    return _q_binom_unbalanced_poly(p - 1, r - 1) + _q_binom_unbalanced_poly(p - 1, r).shift(r)


def _fill(s: int, r: int) -> None:
    """Fill the cache of the Pascal table _q_binom_unbalanced_poly up to (s, r)
    bottom-up: the entries (k + i, k) for k <= r, i <= s - r, each column
    before the next, so every call finds both its predecessors (s-1, r-1) and
    (s-1, r) cached and the recursion depth no longer grows with s."""
    for k in range(1, r + 1):
        for i in range(s - r + 1):
            _q_binom_unbalanced_poly(k + i, k)


def q_int(n: int, mode: QMode = GENERIC) -> ScalarQ:
    """Balanced q-integer [n] evaluated in the given mode (any integer n)."""
    return mode.from_laurent(_q_int_laurent(n))


def q_factorial(n: int, mode: QMode = GENERIC) -> ScalarQ:
    """[n]! = [n][n-1]...[1] for n >= 0."""
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    return mode.from_laurent(math.prod(map(_q_int_laurent, range(1, n + 1)),
                                       start=LaurentPoly.one()))


@functools.lru_cache(maxsize=None)
def q_binom(s: int, r: int, mode: QMode = GENERIC) -> ScalarQ:
    """Balanced Gaussian binomial for any integers s, r (zero for r < 0); a
    shared ScalarQ, built once per key like the constants of _constant:
    [s choose r]_v = v^(-r(s-r)) (s choose r)_{v^2} from the one-sided table,
    and [s choose r] = (-1)^r [r - s - 1 choose r] for s < 0."""
    sign = 1
    if s < 0:
        s, sign = r - s - 1, -1 if r % 2 else 1
    _fill(s, r)
    shift, coeffs = r * (s - r), _q_binom_unbalanced_poly(s, r).coeffs
    return _from_laurent(mode, LaurentPoly._wrap(
        {2 * e - shift: sign * c for e, c in coeffs.items()}))


def q_binom_unbalanced(p: int, r: int, mode: QMode = GENERIC) -> ScalarQ:
    """One-sided q-binomial (p choose r)_q with 0 <= r <= p.

    Computed as a polynomial identity, so root-of-unity evaluation is exact
    even when intermediate brackets vanish.
    """
    if not 0 <= r <= p:
        raise ValueError("unbalanced q-binomial requires 0 <= r <= p")
    _fill(p, r)
    return mode.from_laurent(_q_binom_unbalanced_poly(p, r))


class QParity(Enum):
    GENERIC_Q = "generic"
    ODD_ROOT = "odd"
    EVEN_ROOT = "even"


@dataclass(frozen=True)
class CharProfile:
    """char(q) = minimal ell >= 1 with [ell] = 0 (0 when q is generic).

    ODD_ROOT: q has odd order ell (q^ell = 1).
    EVEN_ROOT: q has order 2*ell (q^ell = -1); ell itself may be odd or even.
    """

    ell: int
    parity: QParity


@functools.lru_cache(maxsize=None)
def char_of(mode: QMode) -> CharProfile:
    """Characteristic of q, with the odd/even root dichotomy; scan-verified once."""
    if mode.is_generic:
        return CharProfile(0, QParity.GENERIC_Q)
    d = mode.d
    if d % 2 == 1:
        profile = CharProfile(d, QParity.ODD_ROOT)
    else:
        profile = CharProfile(d // 2, QParity.EVEN_ROOT)
    for k in range(1, profile.ell + 1):
        vanishes = _from_laurent(mode, _q_int_laurent(k)).is_zero()
        if vanishes != (k == profile.ell):
            raise AssertionError(f"char(q) scan disagrees at [{k}] for d={d}")
    return profile


def q_binom_split(s: int, r: int, mode: QMode) -> ScalarQ:
    """Closed form of the Gaussian binomial at a root of unity by ell-digits.

    Writing s = s0 + s1*ell and r = r0 + r1*ell with 0 <= s0, r0 < ell and
    s >= r >= 0, the binomial factors as a bounded Gaussian binomial times an
    ordinary binomial, with an explicit sign in the q^ell = -1 case.
    """
    profile = char_of(mode)
    ell = profile.ell
    if ell < 3:
        raise ValueError("digit split requires char(q) = ell >= 3")
    if not 0 <= r <= s:
        raise ValueError("digit split stated for 0 <= r <= s")
    s0, s1 = s % ell, s // ell
    r0, r1 = r % ell, r // ell
    small = q_binom(s0, r0, mode)
    big = mode.scalar(math.comb(s1, r1))
    if profile.parity is QParity.ODD_ROOT:
        return small * big
    sign_exp = (s1 + 1) * r1 * ell + s0 * r1 - r0 * s1
    signed = small * big
    return -signed if sign_exp % 2 else signed


def q_binom_at_char(s: int, mode: QMode) -> ScalarQ:
    """Closed form of (s choose ell) at char(q) = ell: the top ell-digit of s."""
    profile = char_of(mode)
    ell = profile.ell
    if ell < 3:
        raise ValueError("requires char(q) = ell >= 3")
    s0, s1 = s % ell, s // ell
    if profile.parity is QParity.ODD_ROOT:
        return mode.scalar(s1)
    sign_exp = (s1 + 1) * ell + s0
    val = mode.scalar(s1)
    return -val if sign_exp % 2 else val
