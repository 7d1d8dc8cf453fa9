import pytest

from qgrass.indices import MultiIndex, ShapeMismatchError
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import (
    Family,
    SuperVector,
    basis_of_degree,
    make_space,
)
from qgrass.weyl import (
    InvalidAtomError,
    OperatorWord,
    apply_atom,
    apply_word,
    mult_x,
    mult_x_divpow,
    operators_equal,
    parity,
    partial,
    sigma,
    tau,
    theta_op,
    verify_relation_suite,
)

D3 = root_of_unity(3)
D8 = root_of_unity(8)

OMEGA21 = make_space(Family.OMEGA, 2, 1)
OMEGA11 = make_space(Family.OMEGA, 1, 1)
DUAL21 = make_space(Family.DUAL, 2, 1)


def mono(space, *entries):
    return SuperVector.monomial(space, MultiIndex(tuple(entries), space.shape))


def word(space, *atoms, coeff=None):
    return OperatorWord(space, tuple(atoms), coeff)


# ---------------------------------------------------------------------------
# atomic actions, frozen examples
# ---------------------------------------------------------------------------


def test_partial_bosonic_prefix_free_example():
    u = mono(OMEGA21, 2, 1, 1)
    img = apply_word(word(OMEGA21, partial(1)), u)
    assert img == mono(OMEGA21, 1, 1, 1)


def test_partial_bosonic_prefix_factor():
    u = mono(OMEGA21, 2, 1, 0)
    img = apply_word(word(OMEGA21, partial(2)), u)
    assert img == mono(OMEGA21, 2, 0, 0).scaled(GENERIC.q_power(-2))


def test_partial_fermionic_cross_factor():
    u = mono(OMEGA21, 1, 1, 1)
    img = apply_word(word(OMEGA21, partial(3)), u)
    assert img == mono(OMEGA21, 1, 1, 0).scaled(GENERIC.q_power(-2))


def test_sigma_eigenvalues():
    u = mono(OMEGA21, 2, 0, 1)
    assert apply_word(word(OMEGA21, sigma(1)), u) == u.scaled(GENERIC.q_power(2))
    assert apply_word(word(OMEGA21, sigma(3)), u) == u.scaled(-GENERIC.q())
    assert apply_word(word(OMEGA21, tau(3)), u) == -u


def test_mult_x_bosonic_includes_bracket():
    u = mono(OMEGA21, 1, 0, 0)
    img = apply_word(word(OMEGA21, mult_x(1)), u)
    assert img == mono(OMEGA21, 2, 0, 0).scaled(q_int(2))


def test_theta_label_twist_equals_sigma_sigma_tau():
    # the twist at the odd simple-root label equals the grading twists times
    # the exterior involution, as operators (here m = 2, so the label -e2+e3)
    lab = MultiIndex.basis_vector(OMEGA21.shape, 3) - MultiIndex.basis_vector(OMEGA21.shape, 2)
    lhs = word(OMEGA21, theta_op(lab))
    rhs = word(OMEGA21, sigma(2), sigma(3), tau(3))
    assert operators_equal(lhs, rhs, 4).equal


def test_parity_atom_matches_tau_product():
    spaces = [OMEGA21, make_space(Family.OMEGA, 1, 2), make_space(Family.OMEGA, 2, 2),
              make_space(Family.OMEGA, 0, 3), make_space(Family.OMEGA_RESTRICTED, 1, 2, D3)]
    for space in spaces:
        lhs = word(space, parity())
        rhs = word(space, *(tau(j) for j in space.shape.fermionic_positions()))
        assert operators_equal(lhs, rhs, 4).equal
        for t in range(5):
            for idx in basis_of_degree(space, t):
                u = SuperVector.monomial(space, idx)
                assert apply_word(lhs, u) == apply_word(rhs, u), (space, str(idx))


def test_a_twist_label_of_another_shape_is_refused():
    label = MultiIndex.basis_vector(OMEGA11.shape, 1)
    with pytest.raises(ShapeMismatchError):
        apply_atom(OMEGA21, theta_op(label), MultiIndex((0, 0, 0), OMEGA21.shape))


def test_dual_e_m_closed_form():
    for nu2 in (0, 1):
        for a in (1, 2):
            u = mono(DUAL21, 1, nu2, a)
            img = apply_word(word(DUAL21, mult_x(2), partial(3), sigma(2)), u)
            if nu2 == 1:
                assert img.is_zero()
            else:
                assert img == mono(DUAL21, 1, 1, a - 1)


def test_dual_f_m_closed_form():
    for nu2 in (0, 1):
        u = mono(DUAL21, 1, nu2, 1)
        img = apply_word(word(DUAL21, sigma(2, -1), mult_x(3), partial(2)), u)
        if nu2 == 0:
            assert img.is_zero()
        else:
            assert img == mono(DUAL21, 1, 0, 2).scaled(q_int(2))


def test_invalid_atoms_rejected():
    with pytest.raises(InvalidAtomError):
        apply_word(word(OMEGA21, tau(1)), mono(OMEGA21, 0, 0, 0))
    with pytest.raises(InvalidAtomError):
        apply_word(word(DUAL21, tau(1)), mono(DUAL21, 0, 0, 0))
    with pytest.raises(InvalidAtomError):
        apply_word(word(DUAL21, theta_op(MultiIndex.basis_vector(DUAL21.shape, 1))),
                   mono(DUAL21, 0, 0, 0))
    with pytest.raises(InvalidAtomError):
        apply_word(word(OMEGA21, mult_x_divpow(1)), mono(OMEGA21, 0, 0, 0))


def test_derivative_on_the_affine_space_is_refused_at_every_exponent():
    affine = make_space(Family.AFFINE, 1, 1)
    for entries in ((0, 1), (1, 1), (0, 0)):
        with pytest.raises(InvalidAtomError):
            apply_atom(affine, partial(1), MultiIndex(entries, affine.shape))


def test_degree_bookkeeping():
    omega_root = make_space(Family.OMEGA, 2, 1, D3)
    w2 = word(omega_root, mult_x_divpow(1), partial(3))
    for t in range(4):
        for idx in basis_of_degree(omega_root, t):
            img = apply_word(w2, SuperVector.monomial(omega_root, idx))
            if not img.is_zero():
                assert img.degree() == t + 2


# ---------------------------------------------------------------------------
# operator equality and relation suites
# ---------------------------------------------------------------------------


def test_operators_equal_reports_witness():
    lhs = word(OMEGA11, partial(1), mult_x(1))
    rhs = word(OMEGA11, mult_x(1), partial(1))
    res = operators_equal(lhs, rhs, 3)
    assert not res.equal and res.witness["monomial"] == "(0 | 0)"


def test_weyl_defining_relation_bosonic():
    lhs = [
        word(OMEGA11, partial(1), mult_x(1)),
        word(OMEGA11, mult_x(1), partial(1), coeff=-GENERIC.q()),
    ]
    rhs = word(OMEGA11, sigma(1, -1))
    assert operators_equal(lhs, rhs, 5).equal


def test_weyl_defining_relation_fermionic():
    lhs = [
        word(OMEGA11, partial(2), mult_x(2)),
        word(OMEGA11, mult_x(2), partial(2)),
    ]
    assert operators_equal(lhs, word(OMEGA11, ), 5).equal


@pytest.mark.parametrize("suite", ["partials", "dq", "weyl-generic"])
def test_generic_suites_pass_small(suite):
    report = verify_relation_suite(suite, OMEGA11, 4)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:2]


def test_leibniz_suite_small():
    report = verify_relation_suite("leibniz", OMEGA11, 3)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:2]


def test_weyl_odd_root_suite_small():
    space = make_space(Family.OMEGA, 1, 1, D3)
    report = verify_relation_suite("weyl-odd-root", space, 4)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:2]


def test_weyl_even_root_suite_small():
    space = make_space(Family.OMEGA, 1, 1, D8)
    report = verify_relation_suite("weyl-even-root", space, 4)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:2]


def test_root_suite_rejects_wrong_branch():
    space = make_space(Family.OMEGA, 1, 1, D3)
    with pytest.raises(InvalidAtomError):
        verify_relation_suite("weyl-even-root", space, 3)


def test_vacuous_suite_on_tiny_space():
    space = make_space(Family.OMEGA, 0, 1)
    report = verify_relation_suite("weyl-generic", space, 3)
    assert report.passed


POSITIONAL_ATOMS = (partial, mult_x, mult_x_divpow, sigma, lambda i: sigma(i, -1), tau)


@pytest.mark.parametrize("space", [
    OMEGA21,
    make_space(Family.OMEGA, 2, 1, D3),
    DUAL21,
    make_space(Family.OMEGA_RESTRICTED, 2, 1, D3),
], ids=["omega", "omega d=3", "dual", "omega-restricted d=3"])
def test_positional_atoms_refuse_positions_outside_the_space(space):
    size = space.shape.size
    for idx in (MultiIndex((0, 0, 0), space.shape), MultiIndex((1, 1, 1), space.shape)):
        for ctor in POSITIONAL_ATOMS:
            for pos in (0, size + 1):
                with pytest.raises(InvalidAtomError, match="position"):
                    apply_atom(space, ctor(pos), idx)
