"""Tests for the exact coefficient field and q-combinatorics.

The balanced binomial is checked against an independent oracle: the literal
product formula evaluated by honest division in Q(v).
"""

import functools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgrass import qarith
from qgrass.qarith import (
    GENERIC,
    CharProfile,
    LaurentPoly,
    QParity,
    ScalarQ,
    add_term,
    char_of,
    cyclotomic_poly,
    q_binom,
    q_binom_at_char,
    q_binom_split,
    q_binom_unbalanced,
    q_factorial,
    q_int,
    root_of_unity,
)

D3 = root_of_unity(3)
D8 = root_of_unity(8)


def binom_product_formula(s: int, r: int):
    """Oracle: prod_{i=1}^r (v^{s-i+1} - v^{-s+i-1}) / (v^i - v^-i) in Q(v)."""
    if r < 0:
        return GENERIC.zero()
    val = GENERIC.one()
    for i in range(1, r + 1):
        numer = GENERIC.q_power(s - i + 1) - GENERIC.q_power(-s + i - 1)
        denom = GENERIC.q_power(i) - GENERIC.q_power(-i)
        val = val * (numer / denom)
    return val


def to_root(generic_scalar, mode):
    assert generic_scalar.den == LaurentPoly.one()
    return mode.from_laurent(generic_scalar.num)


# ---------------------------------------------------------------------------
# LaurentPoly basics
# ---------------------------------------------------------------------------


def test_laurent_zero_has_empty_support():
    z = LaurentPoly({3: Fraction(0)})
    assert z.is_zero() and z.coeffs == {}


small_fracs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
laurents = st.dictionaries(st.integers(-4, 4), small_fracs, max_size=4).map(LaurentPoly)


@given(laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert all(v != 0 for v in (a * b + c).coeffs.values())


# ---------------------------------------------------------------------------
# field axioms in both modes
# ---------------------------------------------------------------------------


def scalar_strategy(mode):
    return st.dictionaries(st.integers(-3, 3), small_fracs, max_size=3).map(
        lambda d: mode.from_laurent(LaurentPoly(d))
    )


@pytest.mark.parametrize("mode", [GENERIC, D3, D8])
def test_field_axioms_on_random_triples(mode):
    @given(scalar_strategy(mode), scalar_strategy(mode), scalar_strategy(mode))
    @settings(max_examples=40, deadline=None)
    def inner(a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + mode.zero() == a
        assert a * mode.one() == a
        if not a.is_zero():
            assert a * a.inverse() == mode.one()

    inner()


def test_generic_normalization_is_canonical():
    a = GENERIC.q_power(2) - GENERIC.one()
    b = GENERIC.q() - GENERIC.one()
    quotient = a / b
    assert quotient == GENERIC.q() + GENERIC.one()
    assert quotient.den == LaurentPoly.one()


@given(laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_product_with_a_den_one_factor_matches_full_formula(p, r, s):
    # the product takes the other den as it is and must still reduce
    assume(not s.is_zero())
    a = GENERIC.from_laurent(p)
    b = GENERIC.from_laurent(r) / GENERIC.from_laurent(s)
    assume(b.den != LaurentPoly.one())
    full = ScalarQ._make_generic(GENERIC, a.num * b.num, a.den * b.den)
    assert a * b == full and b * a == full
    assert GENERIC.from_laurent(s) * b == GENERIC.from_laurent(r)


# ---------------------------------------------------------------------------
# canonical coefficients, shared constants, specialisation
# ---------------------------------------------------------------------------

MODES = [GENERIC] + [root_of_unity(d) for d in (3, 5, 8, 12)]
MODE_IDS = ["generic"] + [f"d{d}" for d in (3, 5, 8, 12)]


def assert_canonical_coeff(c):
    # an int, or a Fraction that is not an int in disguise; never a float
    assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def assert_canonical_scalar(x):
    if x.mode.is_generic:
        coeffs = [*x.num.coeffs.values(), *x.den.coeffs.values()]
    else:
        coeffs = list(x.res)
    for c in coeffs:
        assert_canonical_coeff(c)


monomial_coeffs = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6).filter(bool),
)


def generic_monomial(c, e):
    return GENERIC.from_laurent(LaurentPoly.term(c, e))


@given(monomial_coeffs, st.integers(-12, 12), monomial_coeffs, st.integers(-12, 12))
@example(Fraction(1, 2), 3, 2, -5)  # a Fraction times an int, integral product
@example(Fraction(-2, 3), 0, Fraction(3, 2), 12)
@settings(max_examples=100, deadline=None)
def test_product_of_two_monomials_matches_full_formula(c1, e1, c2, e2):
    # c1 v^e1 * c2 v^e2 over den 1 is built directly; it must be the reduced
    # fraction the full product gives, coefficient canonical
    a, b = generic_monomial(c1, e1), generic_monomial(c2, e2)
    full = ScalarQ._make_generic(GENERIC, a.num * b.num, LaurentPoly.one())
    for prod in (a * b, b * a):
        assert prod.num.coeffs == full.num.coeffs == {e1 + e2: c1 * c2}
        assert prod.den.coeffs == full.den.coeffs == {0: 1}
        assert prod == full and hash(prod) == hash(full)
        (coeff,) = prod.num.coeffs.values()
        assert_canonical_coeff(coeff)
    # one numerator term over a den other than 1 takes the full product
    c = ScalarQ._make_generic(GENERIC, b.num, LaurentPoly({0: 1, 1: 1}))
    full = ScalarQ._make_generic(GENERIC, a.num * c.num, a.den * c.den)
    assert a * c == full and c * a == full


@st.composite
def scalars(draw, mode):
    """Scalars with integral and with honest rational coefficients."""
    ell = char_of(mode).ell or 7
    kind = draw(st.integers(0, 4))
    if kind == 0:
        terms = draw(st.dictionaries(st.integers(-4, 4), small_fracs, max_size=3))
        return mode.from_laurent(LaurentPoly(terms))
    if kind == 1:  # (1 + v)/(1 - v) q^k: a generic denominator, a residue inverse
        v = mode.q()
        return (mode.one() + v) / (mode.one() - v) * mode.q_power(draw(st.integers(-3, 3)))
    if kind == 2:  # [k]! is invertible for k < char(q)
        return q_factorial(draw(st.integers(0, ell - 1)), mode).inverse()
    if kind == 3:
        return q_binom(draw(st.integers(-5, 8)), draw(st.integers(0, 4)), mode)
    return mode.scalar(draw(small_fracs)) * mode.minus_q_power(draw(st.integers(-6, 6)))


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_coefficients_stay_canonical(mode):
    @given(scalars(mode), scalars(mode))
    @settings(max_examples=40, deadline=None)
    def inner(a, b):
        results = [a, b, a + b, a - b, a * b, -a]
        if b:
            results.append(a / b)
        if a:
            results.append(a.inverse())
        for x in results:
            assert_canonical_scalar(x)

    inner()


def test_q_combinatorics_coefficients_are_integers():
    for d in range(1, 31):
        assert all(type(c) is int for c in cyclotomic_poly(d).coeffs.values())
    for mode in MODES:
        for n in range(0, 9):
            assert_canonical_scalar(q_factorial(n, mode))
            for r in range(-1, n + 2):
                assert_canonical_scalar(q_binom(n, r, mode))
                assert_canonical_scalar(q_binom(-n, r, mode))
        for n in range(-8, 9):
            assert_canonical_scalar(q_int(n, mode))


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly({0: 0.1}),
        lambda: LaurentPoly.term(0.5, 2),
        lambda: LaurentPoly.one().scale(0.5),
        lambda: GENERIC.scalar(0.5),
        lambda: root_of_unity(5).scalar(0.25),
    ],
    ids=["init", "term", "scale", "scalar-generic", "scalar-root"],
)
def test_float_coefficients_are_refused(build):
    with pytest.raises(TypeError):
        build()


integral_laurents = st.dictionaries(st.integers(-8, 8), st.integers(-4, 4), max_size=4).map(
    LaurentPoly
)


@pytest.mark.parametrize("d", [3, 5, 8, 12])
def test_specialisation_is_a_ring_map(d):
    mode = root_of_unity(d)

    @given(integral_laurents, integral_laurents)
    @settings(max_examples=40, deadline=None)
    def inner(p, r):
        assert mode.from_laurent(p * r) == mode.from_laurent(p) * mode.from_laurent(r)
        assert mode.from_laurent(p + r) == mode.from_laurent(p) + mode.from_laurent(r)

    inner()


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_shared_constants_match_fresh_construction(mode):
    def fresh(c, k=0):
        return mode.from_laurent(LaurentPoly.term(c, k))

    for k in range(-12, 13):
        assert mode.q_power(k) == fresh(1, k)
        assert mode.minus_q_power(k) == fresh(Fraction(-1) ** k, k)
        assert mode.q_power(k) is mode.q_power(k)
    for c in (0, 1, -1, 7, Fraction(3, 4), Fraction(-5, 2)):
        assert mode.scalar(c) == fresh(c)
    assert mode.scalar(Fraction(6, 3)) is mode.scalar(2)
    assert mode.one() == fresh(1) and mode.zero() == fresh(0)
    assert mode.q() == fresh(1, 1)


def test_mixed_modes_raise():
    with pytest.raises(ValueError, match="mixed coefficient modes"):
        GENERIC.q_power(2) + root_of_unity(3).q_power(2)
    with pytest.raises(ValueError, match="mixed coefficient modes"):
        root_of_unity(5).one() * root_of_unity(8).one()
    assert root_of_unity(3).one() != GENERIC.one()


def test_root_mode_residue_degree_bound():
    for mode in (D3, D8):
        deg = cyclotomic_poly(mode.d).max_exp()
        x = mode.q_power(mode.d - 1) + mode.scalar(7)
        assert len(x.res) == deg


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------


def test_q_int_examples():
    assert q_int(0).is_zero()
    assert q_int(2) == GENERIC.q() + GENERIC.q_power(-1)
    assert q_int(3, D3).is_zero()


@given(st.integers(-12, 12))
@settings(max_examples=30, deadline=None)
def test_q_int_odd_symmetry(n):
    assert q_int(-n) == -q_int(n)


def test_q_factorial_small():
    assert q_factorial(0) == GENERIC.one()
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    with pytest.raises(ValueError):
        q_factorial(-1)


# ---------------------------------------------------------------------------
# balanced Gaussian binomials
# ---------------------------------------------------------------------------


def test_binom_4_2_frozen_expansion():
    expected = LaurentPoly(
        {4: Fraction(1), 2: Fraction(1), 0: Fraction(2), -2: Fraction(1), -4: Fraction(1)}
    )
    assert q_binom(4, 2) == GENERIC.from_laurent(expected)
    assert q_binom(4, 2) == binom_product_formula(4, 2)


def test_binom_trivial_clauses():
    for s in range(-4, 8):
        assert q_binom(s, 0) == GENERIC.one()
        assert q_binom(s, -2).is_zero()
    assert q_binom(3, 5).is_zero()
    for s in range(0, 6):
        for r in range(s + 1, 8):
            assert q_binom(s, r).is_zero()


@given(st.integers(-8, 12), st.integers(-2, 8))
@settings(max_examples=120, deadline=None)
def test_binom_matches_product_formula(s, r):
    assert q_binom(s, r) == binom_product_formula(s, r)


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_binom_factorial_form(s, r):
    if r <= s:
        assert q_binom(s, r) * q_factorial(r) * q_factorial(s - r) == q_factorial(s)


@given(st.integers(-6, 10), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_binom_balanced_symmetry(s, r):
    val = q_binom(s, r)
    assert val.num.invert_variable() == val.num


@given(st.integers(-6, -1), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_binom_negative_reflection(s, r):
    refl = q_binom(-s + r - 1, r)
    assert q_binom(s, r) == (-refl if r % 2 else refl)


@pytest.mark.parametrize("mode", [GENERIC, D3, D8])
def test_pascal_identity(mode):
    for n in range(1, 13):
        for r in range(0, n + 1):
            lhs = q_binom(n, r, mode)
            rhs = mode.q_power(r - n) * q_binom(n - 1, r - 1, mode) + mode.q_power(
                r
            ) * q_binom(n - 1, r, mode)
            assert lhs == rhs, (n, r, mode)


# the Pascal recursions and n! = (n-1)! [n], as plain recursions: the balanced
# binomial by its symmetric recursion, not from the one-sided table
@functools.lru_cache(maxsize=None)
def binom(s, r):
    if r < 0:
        return LaurentPoly.zero()
    if r == 0:
        return LaurentPoly.one()
    if s < 0:
        refl = binom(-s + r - 1, r)
        return -refl if r % 2 else refl
    if s < r:
        return LaurentPoly.zero()
    return binom(s - 1, r - 1).shift(r - s) + binom(s - 1, r).shift(r)


@functools.lru_cache(maxsize=None)
def unbalanced(p, r):
    if r == 0 or r == p:
        return LaurentPoly.one()
    return unbalanced(p - 1, r - 1) + unbalanced(p - 1, r).shift(r)


@functools.lru_cache(maxsize=None)
def factorial(n):
    return LaurentPoly.one() if n == 0 else factorial(n - 1) * LaurentPoly(
        {n - 1 - 2 * k: 1 for k in range(n)})


def test_bottom_up_tables_equal_the_recursive_definitions():
    for s in range(-12, 41):
        for r in range(-2, max(s, 0) + 3):
            assert q_binom(s, r) == GENERIC.from_laurent(binom(s, r)), (s, r)
    for p in range(0, 41):
        assert q_factorial(p) == GENERIC.from_laurent(factorial(p)), p
        for r in range(0, p + 1):
            assert q_binom_unbalanced(p, r) == GENERIC.from_laurent(unbalanced(p, r)), (p, r)


@pytest.mark.parametrize("d", [3, 5, 8, 12])
def test_root_binomials_and_factorials_equal_the_recursive_definitions(d):
    mode = root_of_unity(d)
    for s in range(-8, 25):
        for r in range(-1, max(s, 0) + 3):
            assert q_binom(s, r, mode) == mode.from_laurent(binom(s, r)), (d, s, r)
    for n in range(0, 13):
        assert q_factorial(n, mode) == mode.from_laurent(factorial(n)), (d, n)


@pytest.mark.parametrize("value", [lambda: q_binom(300, 2), lambda: q_binom(-300, 2),
                                   lambda: q_binom_unbalanced(300, 2), lambda: q_factorial(40)],
                         ids=["binom", "binom-reflected", "unbalanced", "factorial"])
def test_q_combinatorics_run_a_few_frames_deep(value):
    # recursing once per unit of the upper index needs hundreds of frames here
    for table in (qarith._q_binom_unbalanced_poly, q_binom, char_of):
        table.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        value()
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# unbalanced q-binomials
# ---------------------------------------------------------------------------


def test_unbalanced_examples():
    assert q_binom_unbalanced(2, 1) == GENERIC.one() + GENERIC.q()
    for p in range(0, 7):
        assert q_binom_unbalanced(p, 0) == GENERIC.one()
    assert q_binom_unbalanced(3, 1, D3).is_zero()  # 1 + q + q^2 = Phi_3(q)
    with pytest.raises(ValueError):
        q_binom_unbalanced(2, 3)
    with pytest.raises(ValueError):
        q_binom_unbalanced(2, -1)


def test_unbalanced_factorial_form():
    def brak(r):  # (r)_q as a polynomial
        return GENERIC.from_laurent(LaurentPoly({i: Fraction(1) for i in range(r)}))

    for p in range(0, 8):
        for r in range(0, p + 1):
            fact = lambda k: GENERIC.one() if k == 0 else brak(k) * fact(k - 1)
            assert q_binom_unbalanced(p, r) * fact(r) * fact(p - r) == fact(p)


# ---------------------------------------------------------------------------
# characteristic of q and the digit factorizations
# ---------------------------------------------------------------------------


def test_char_examples():
    assert char_of(GENERIC) == CharProfile(0, QParity.GENERIC_Q)
    assert char_of(D3) == CharProfile(3, QParity.ODD_ROOT)
    assert char_of(D8) == CharProfile(4, QParity.EVEN_ROOT)
    assert char_of(root_of_unity(6)) == CharProfile(3, QParity.EVEN_ROOT)
    with pytest.raises(ValueError):
        root_of_unity(2)
    with pytest.raises(ValueError):
        root_of_unity(1)


@pytest.mark.parametrize("d", [3, 5, 6, 8])
def test_digit_split_full_sweep(d):
    mode = root_of_unity(d)
    ell = char_of(mode).ell
    for s in range(0, 3 * ell + 1):
        for r in range(0, s + 1):
            assert q_binom(s, r, mode) == q_binom_split(s, r, mode), (d, s, r)
        assert q_binom(s, ell, mode) == q_binom_at_char(s, mode), (d, s)


def test_digit_split_rejects_generic():
    with pytest.raises(ValueError):
        q_binom_split(3, 1, GENERIC)


@pytest.mark.parametrize("mode", [GENERIC, D3], ids=["generic", "d3"])
def test_add_term_adds_inserts_and_drops_a_vanishing_sum(mode):
    q, one = mode.q(), mode.one()
    out = {"a": q}
    add_term(out, "a", one)
    assert out == {"a": q + one}
    add_term(out, "b", q)
    assert out == {"a": q + one, "b": q}
    add_term(out, "a", -(q + one))
    assert out == {"b": q}
    if mode.d == 3:
        # 1 + q + q^2 = 0 at a primitive cube root: a vanishing sum of nonzero terms
        add_term(out, "b", one)
        add_term(out, "b", q * q)
        assert out == {}


# ---------------------------------------------------------------------------
# products by one and powers
# ---------------------------------------------------------------------------

ONE_MODES = [GENERIC] + [root_of_unity(d) for d in (3, 4, 5, 8, 12)]
ONE_MODE_IDS = ["generic"] + [f"d{d}" for d in (3, 4, 5, 8, 12)]


@pytest.mark.parametrize("mode", ONE_MODES, ids=ONE_MODE_IDS)
def test_a_product_by_one_is_the_other_factor(mode):
    q = mode.q()
    built_one = q * q.inverse()  # equal to the shared one, but another object
    assert built_one == mode.one() and built_one is not mode.one()

    @given(scalars(mode))
    @settings(max_examples=40, deadline=None)
    def inner(a):
        for one in (mode.one(), built_one):
            for prod in (a * one, one * a):
                assert prod == a and hash(prod) == hash(a)
                assert_canonical_scalar(prod)

    inner()


def test_a_product_by_one_still_refuses_mixed_modes():
    pairs = [
        (GENERIC.one(), D3.q()),
        (D3.q(), GENERIC.one()),
        (D8.one(), GENERIC.q()),
        (GENERIC.q(), D8.one()),
        (D3.one(), D8.one()),
    ]
    for a, b in pairs:
        with pytest.raises(ValueError, match="mixed coefficient modes"):
            a * b
