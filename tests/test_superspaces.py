import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import split_star
from qgrass.indices import MultiIndex, Shape, theta
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import (
    DUAL_SIDE,
    Family,
    SpaceMismatchError,
    SpaceSpec,
    SuperVector,
    basis_of_degree,
    make_space,
    multiply,
    top_degree,
)
from qgrass.weyl import InvalidAtomError, OperatorWord, apply_word, parity

D3 = root_of_unity(3)

OMEGA21 = make_space(Family.OMEGA, 2, 1)
OMEGA22 = make_space(Family.OMEGA, 2, 2)
AFFINE22 = make_space(Family.AFFINE, 2, 2)
DUAL21 = make_space(Family.DUAL, 2, 1)
OMEGA11_R3 = make_space(Family.OMEGA_RESTRICTED, 1, 1, D3)


def mono(space, *entries):
    return SuperVector.monomial(space, MultiIndex(tuple(entries), space.shape))


def gen(space, pos):
    return SuperVector.monomial(space, MultiIndex.basis_vector(space.shape, pos))


# ---------------------------------------------------------------------------
# spot products, frozen from hand computation
# ---------------------------------------------------------------------------


def test_divided_power_square():
    x1 = gen(OMEGA21, 1)
    assert multiply(x1, x1) == mono(OMEGA21, 2, 0, 0).scaled(q_int(2))


def test_exterior_past_divided_power_cross_factor():
    fermionic = gen(OMEGA21, 3)
    x1 = gen(OMEGA21, 1)
    assert multiply(fermionic, x1) == mono(OMEGA21, 1, 0, 1).scaled(GENERIC.q())
    assert multiply(x1, fermionic) == mono(OMEGA21, 1, 0, 1)


def test_exterior_anticommutation_with_q():
    w = make_space(Family.OMEGA, 0, 2)
    x2x1 = multiply(gen(w, 2), gen(w, 1))
    x1x2 = multiply(gen(w, 1), gen(w, 2))
    assert x2x1 == x1x2.scaled(-GENERIC.q())


def test_fermionic_squares_vanish():
    for space in (OMEGA21, AFFINE22, DUAL21):
        for pos in space.shape.fermionic_positions():
            g = gen(space, pos)
            assert multiply(g, g).is_zero()


def test_affine_coordinate_commutation():
    # bosonic-bosonic: v_j v_i = q v_i v_j for j > i, i bosonic
    a = multiply(gen(AFFINE22, 2), gen(AFFINE22, 1))
    b = multiply(gen(AFFINE22, 1), gen(AFFINE22, 2))
    assert a == b.scaled(GENERIC.q())
    # fermionic-fermionic: v_j v_i = -q v_i v_j
    c = multiply(gen(AFFINE22, 4), gen(AFFINE22, 3))
    d = multiply(gen(AFFINE22, 3), gen(AFFINE22, 4))
    assert c == d.scaled(-GENERIC.q())


def test_dual_product_rules():
    # exterior block first: x_2 x_1 = -q^-1 x_1 x_2
    a = multiply(gen(DUAL21, 2), gen(DUAL21, 1))
    b = multiply(gen(DUAL21, 1), gen(DUAL21, 2))
    assert a == b.scaled(-GENERIC.q_power(-1))
    # inverse-parameter divided powers in the second block
    z = gen(DUAL21, 3)
    assert multiply(z, z) == mono(DUAL21, 0, 0, 2).scaled(q_int(2))
    # cross factor (-q)^(-alpha*nu)
    zx = multiply(gen(DUAL21, 3), gen(DUAL21, 1))
    xz = multiply(gen(DUAL21, 1), gen(DUAL21, 3))
    assert zx == xz.scaled(-GENERIC.q_power(-1))


def test_restricted_product_overflow_dies():
    x = gen(OMEGA11_R3, 1)
    x2 = multiply(x, x)
    assert x2 == mono(OMEGA11_R3, 2, 0).scaled(q_int(2, D3))
    assert multiply(x2, x).is_zero()  # exponent 3 = ell


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        multiply(gen(OMEGA21, 1), gen(OMEGA22, 1))


# ---------------------------------------------------------------------------
# algebra laws on monomials
# ---------------------------------------------------------------------------


def all_monomials_up_to(space, deg):
    out = []
    for t in range(deg + 1):
        out.extend(basis_of_degree(space, t))
    return out


@pytest.mark.parametrize(
    "space",
    [OMEGA22, AFFINE22, make_space(Family.DUAL, 2, 2), OMEGA11_R3,
     make_space(Family.OMEGA, 2, 1, D3)],
    ids=lambda s: s.family.value,
)
def test_unital_graded_associative(space):
    unit = SuperVector.unit(space)
    monos = all_monomials_up_to(space, 2)
    for idx in monos:
        u = SuperVector.monomial(space, idx)
        assert multiply(unit, u) == u
        assert multiply(u, unit) == u
    for ia, ib, ic in itertools.product(monos[:14], repeat=3):
        u, v, w = (SuperVector.monomial(space, i) for i in (ia, ib, ic))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        uv = multiply(u, v)
        if not uv.is_zero():
            assert uv.degree() == ia.degree() + ib.degree()


@pytest.mark.parametrize(
    "space",
    [OMEGA22, AFFINE22, make_space(Family.DUAL, 2, 2), OMEGA11_R3],
    ids=lambda s: s.family.value,
)
def test_twisted_commutativity(space):
    def commutation_factor(a, b):
        """c with x^a x^b = c x^b x^a: theta on the polynomial-side layout, and
        on the dual side its own bicharacter with mirrored exponents."""
        if space.family not in DUAL_SIDE:
            return theta(a, b, space.mode)
        bb_ab, ff_ab, _, bf_ab = split_star(a, b)
        bb_ba, ff_ba, _, bf_ba = split_star(b, a)
        odd = (ff_ba - ff_ab) + (bf_ba - bf_ab)
        value = space.mode.q_power((bb_ba - bb_ab) + odd)
        return -value if odd % 2 else value

    monos = all_monomials_up_to(space, 3)
    for ia, ib in itertools.product(monos, repeat=2):
        u, v = SuperVector.monomial(space, ia), SuperVector.monomial(space, ib)
        c = commutation_factor(ia, ib)
        assert multiply(u, v) == multiply(v, u).scaled(c), (ia, ib)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def parity_map(u):
    """The parity atom, the grading automorphism, applied to a vector."""
    return apply_word(OperatorWord(u.space, (parity(),)), u)


def test_parity_examples():
    assert parity_map(mono(OMEGA21, 3, 1, 0)) == mono(OMEGA21, 3, 1, 0)
    assert parity_map(mono(OMEGA21, 3, 1, 1)) == -mono(OMEGA21, 3, 1, 1)
    # dual side grades by the divided-power block
    assert parity_map(mono(DUAL21, 1, 0, 3)) == -mono(DUAL21, 1, 0, 3)
    assert parity_map(mono(DUAL21, 1, 1, 2)) == mono(DUAL21, 1, 1, 2)
    with pytest.raises(InvalidAtomError):
        parity_map(mono(AFFINE22, 1, 0, 0, 0))


@given(st.integers(0, 4))
@settings(max_examples=10, deadline=None)
def test_parity_is_involution(t):
    for idx in basis_of_degree(OMEGA22, t):
        u = SuperVector.monomial(OMEGA22, idx)
        assert parity_map(parity_map(u)) == u


def test_parity_is_algebra_map():
    monos = all_monomials_up_to(OMEGA22, 3)
    for ia, ib in itertools.product(monos, repeat=2):
        u, v = SuperVector.monomial(OMEGA22, ia), SuperVector.monomial(OMEGA22, ib)
        assert parity_map(multiply(u, v)) == multiply(parity_map(u), parity_map(v))


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------


def test_basis_counts_match_spec_examples():
    assert len(basis_of_degree(OMEGA21, 2)) == 5
    assert len(basis_of_degree(OMEGA11_R3, 2)) == 2
    assert [i.entries for i in basis_of_degree(OMEGA11_R3, 2)] == [(1, 1), (2, 0)]
    for space in (OMEGA21, AFFINE22, DUAL21, OMEGA11_R3):
        assert basis_of_degree(space, 0) == (space.unit_index(),)


def test_basis_is_lex_sorted_and_capped():
    b = basis_of_degree(OMEGA11_R3, 3)
    assert all(i.entries[0] <= 2 for i in b)
    assert list(b) == sorted(b)
    top = top_degree(OMEGA11_R3)
    assert top == 3
    assert basis_of_degree(OMEGA11_R3, top + 1) == ()


def filtered_product(space, t):
    """The basis as the product of the full per-coordinate ranges, filtered by
    degree: the enumeration basis_of_degree must agree with."""
    shape, cap = space.shape, space.shape.restricted_ell
    ranges = [range(min(1, t) + 1) if fer else range((t if cap is None else min(t, cap - 1)) + 1)
              for fer in shape.fermionic_mask]
    return tuple(MultiIndex(e, shape) for e in itertools.product(*ranges) if sum(e) == t)


@pytest.mark.parametrize("mode", [GENERIC, D3, root_of_unity(5)], ids=["generic", "d3", "d5"])
def test_basis_is_the_filtered_product_of_coordinate_ranges(mode):
    spaces = 0
    for family, m, n in itertools.product(Family, range(4), range(3)):
        try:
            space = make_space(family, m, n, mode)
        except ValueError:  # restricted families need a root of unity
            continue
        spaces += 1
        for t in range(9):
            assert basis_of_degree(space, t) == filtered_product(space, t), (family, m, n, t)
        assert basis_of_degree(space, -1) == ()
    assert spaces == (3 if mode is GENERIC else 5) * 12


def test_dual_restricted_top_degree():
    space = make_space(Family.DUAL_RESTRICTED, 2, 1, D3)
    assert top_degree(space) == 2 + 2
    assert len(basis_of_degree(space, 4)) == 1


def test_restricted_needs_root_mode():
    with pytest.raises(ValueError):
        make_space(Family.OMEGA_RESTRICTED, 1, 1, GENERIC)


# ---------------------------------------------------------------------------
# affine presentation vs divided-power relations (quadratic words)
# ---------------------------------------------------------------------------


def test_affine_dimension_matches_word_span():
    # every degree-t word in the coordinates lands on the monomial basis
    space = AFFINE22
    gens = [gen(space, p) for p in range(1, 5)]
    for t in range(5):
        seen = set()
        for word in itertools.product(range(4), repeat=t):
            vec = SuperVector.unit(space)
            for g in word:
                vec = multiply(vec, gens[g])
            seen.update(vec.terms.keys())
        assert seen == set(basis_of_degree(space, t))


def test_json_rendering():
    u = mono(OMEGA21, 1, 0, 1).scaled(q_int(2)) + mono(OMEGA21, 0, 0, 0)
    data = u.to_json()
    assert data[0] == {"index": "(0,0 | 0)", "coefficient": "1"}
    assert data[1]["index"] == "(1,0 | 1)"
    assert data[1]["coefficient"] == "v + v^-1"


# ---------------------------------------------------------------------------
# the space itself
# ---------------------------------------------------------------------------


def test_space_derives_its_shape():
    with pytest.raises(TypeError):
        SpaceSpec(Family.OMEGA, 1, 1, GENERIC, Shape(1, 1))
    assert DUAL21.shape == Shape(2, 1, fermionic_first=True)
    assert OMEGA11_R3.shape == Shape(1, 1, restricted_ell=3)
    with pytest.raises(ValueError, match="restricted families need a root-of-unity mode"):
        make_space(Family.DUAL_RESTRICTED, 1, 1)
    with pytest.raises(ValueError, match="restricted exponent cap requires ell >= 3"):
        make_space("omega-restricted", 1, 1, root_of_unity(4))
    for family in Family:
        a, b = make_space(family, 2, 1, D3), make_space(family.value, 2, 1, root_of_unity(3))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make_space(family, 1, 2, D3)
