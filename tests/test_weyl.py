import pytest

from qgrass.indices import MultiIndex, Shape, ShapeMismatchError
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import (
    Family,
    SuperVector,
    basis_of_degree,
    make_space,
)
from qgrass.uqrep import Gen, generator_word
from qgrass.weyl import (
    Atom,
    AtomKind,
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


INTERNED_ATOMS = (partial, mult_x, mult_x_divpow, sigma, lambda i: sigma(i, -1), tau,
                  lambda i: parity())


@pytest.mark.parametrize("ctor", INTERNED_ATOMS,
                         ids=["d", "x", "X", "s", "sinv", "t", "par"])
def test_a_positional_atom_is_one_shared_value(ctor):
    for pos in (0, 1, 2, 7):
        atom = ctor(pos)
        assert ctor(pos) is atom
        # a directly built atom is the same value, with the same hash
        twin = Atom(atom.kind, atom.pos, atom.exp)
        assert twin is not atom and twin == atom and hash(twin) == hash(atom)
        assert {atom: 1}[twin] == 1


def test_sigma_is_interned_by_value_not_by_spelling():
    assert sigma(1) is sigma(1, 1) is sigma(1, e=1) is sigma(i=1)
    assert sigma(1, -1) is sigma(1, e=-1) and sigma(1, -1) is not sigma(1)


@pytest.mark.parametrize("e", [2, 0, -2])
def test_sigma_refuses_an_exponent_on_every_call(e):
    for _ in range(3):
        with pytest.raises(ValueError, match="exponent"):
            sigma(1, e)


def test_a_twist_label_keeps_its_shape():
    dual11 = make_space(Family.DUAL, 1, 1)
    a = MultiIndex((1, 0), OMEGA11.shape)
    b = MultiIndex((1, 0), dual11.shape)
    assert a == b and a.shape != b.shape  # equality ignores the shape
    ta, tb = theta_op(a), theta_op(b)
    assert ta.label.shape is OMEGA11.shape and tb.label.shape is dual11.shape
    assert ta != tb  # atom equality sees the label's shape
    unit = OMEGA11.unit_index()
    assert apply_atom(OMEGA11, ta, unit) == (OMEGA11.mode.one(), unit)
    with pytest.raises(ShapeMismatchError):
        apply_atom(OMEGA11, tb, unit)


def test_twin_theta_atoms_of_two_shapes_are_two_keys_outside_a_suite():
    # the process-wide rule cache keys on atoms: a label's twin of another
    # shape must not find the first label's rule
    own, other = OMEGA21.shape, make_space(Family.OMEGA, 1, 2).shape
    ta, tb = theta_op(MultiIndex((1, 0, 0), own)), theta_op(MultiIndex((1, 0, 0), other))
    assert word(OMEGA21, ta).rule.image(OMEGA21.unit_index()) is not None
    with pytest.raises(ShapeMismatchError, match="shapes disagree"):
        word(OMEGA21, tb).rule
    assert len({ta, tb}) == 2


# ---------------------------------------------------------------------------
# where each atom and generator word exists: one refusal table
# ---------------------------------------------------------------------------


TABLE_SPACES = [make_space(family, m, n, mode)
                for m, n in ((1, 1), (2, 1))
                for family in Family
                for mode in (GENERIC, D3, D8)
                if mode is not GENERIC or family not in (Family.OMEGA_RESTRICTED,
                                                         Family.DUAL_RESTRICTED)]
TABLE_IDS = [f"{s.family.value}({s.shape.m}|{s.shape.n})-"
             f"{'generic' if s.mode.is_generic else f'd{s.mode.d}'}" for s in TABLE_SPACES]
POLY = (Family.OMEGA, Family.OMEGA_RESTRICTED)
POSITIONED = [(AtomKind.PARTIAL, 1, "d"), (AtomKind.MULT_X, 1, "x"),
              (AtomKind.MULT_X_DIV_POW, 1, "X"), (AtomKind.SIGMA, 1, "s"),
              (AtomKind.SIGMA, -1, "sinv"), (AtomKind.TAU, 1, "t")]


def other_shapes(space):
    """The shapes of the space's size but its own: the polynomial layout, the
    other polynomial split ((1|2) against (2|1), (2|0) against (1|1)) and the
    dual layout, all without an exponent cap."""
    m, n = space.shape.m, space.shape.n
    flipped = Shape(n, m) if m != n else Shape(m + 1, n - 1)
    return [s for s in (Shape(m, n), flipped, Shape(m, n, fermionic_first=True))
            if s != space.shape]


def atom_rows(space):
    """(atom, expected refusal) for every atom kind at positions 0..size + 1,
    theta labels laid out in every shape of the space's size; the refusal is
    (error type, message), or None where the space has the atom."""
    family, m, size = space.family, space.shape.m, space.shape.size
    for pos in range(size + 2):
        exterior = pos > m  # on the polynomial side
        for kind, exp, name in POSITIONED:
            atom = Atom(kind, pos, exp)
            if not 1 <= pos <= size:
                yield atom, (InvalidAtomError, f"{name}{pos}: position must lie in 1..{size}")
            elif kind is AtomKind.TAU and (family not in POLY or not exterior):
                yield atom, (InvalidAtomError,
                             "tau acts on exterior directions of the polynomial side")
            elif kind is AtomKind.MULT_X_DIV_POW and (family is not Family.OMEGA
                                                      or space.mode.is_generic):
                yield atom, (InvalidAtomError, "divided-power multiplication needs the "
                             "unrestricted Grassmann space at a root of unity")
            elif kind is AtomKind.MULT_X_DIV_POW and exterior:
                yield atom, (InvalidAtomError, "divided-power multiplication is bosonic")
            elif kind is AtomKind.PARTIAL and family is Family.AFFINE:
                yield atom, (InvalidAtomError, "derivatives act on the Grassmann-type spaces")
            else:
                yield atom, None
        # theta and parity carry no position: every position reads the same
        yield Atom(AtomKind.PARITY, pos), (
            (InvalidAtomError, "parity operator undefined on the affine superspace")
            if family is Family.AFFINE else None)
        for shape in [space.shape] + other_shapes(space):
            atom = Atom(AtomKind.THETA, pos, 1, MultiIndex.basis_vector(shape, 1))
            if family not in POLY:
                yield atom, (InvalidAtomError, "twist labels act on the polynomial side")
            elif shape != space.shape:
                yield atom, (ShapeMismatchError, "shapes disagree")
            else:
                yield atom, None


def outcome(fn, *args):
    """fn(*args), or the (type, message) of the ValueError it raises."""
    try:
        fn(*args)
    except ValueError as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("space", TABLE_SPACES, ids=TABLE_IDS)
def test_each_atom_is_refused_where_the_space_lacks_it(space):
    unit = space.unit_index()
    rows = list(atom_rows(space))
    assert any(want is None for _, want in rows) and any(want for _, want in rows)
    for atom, want in rows:
        for _ in range(2):  # a refusal holds on every call, not only the first
            assert outcome(apply_atom, space, atom, unit) == want, (atom, want)
            assert outcome(lambda: word(space, atom).rule) == want, (atom, want)


@pytest.mark.parametrize("space", TABLE_SPACES, ids=TABLE_IDS)
def test_each_atom_refuses_a_monomial_of_another_shape(space):
    atoms = [atom for atom, want in atom_rows(space) if want is None]
    for shape in other_shapes(space):
        for entries in ((0,) * shape.size, (1,) * shape.size):
            idx = MultiIndex(entries, shape)
            for atom in atoms:
                assert outcome(apply_atom, space, atom, idx) == (
                    ShapeMismatchError, "shapes disagree"), (atom, shape, entries)


def test_sigma_is_not_read_with_another_shapes_parity():
    # sigma_3 is exterior on (2|1) and bosonic on (1|2)
    idx = MultiIndex((1, 0, 1), make_space(Family.OMEGA, 1, 2).shape)
    with pytest.raises(ShapeMismatchError, match="shapes disagree"):
        apply_atom(OMEGA21, sigma(3), idx)


GEN_NAMES = {Gen.E: "E", Gen.F: "F", Gen.K: "K", Gen.KINV: "Kinv", Gen.SK: "SK",
             Gen.SKINV: "SKinv", Gen.PARITY: "sigma"}


@pytest.mark.parametrize("space", TABLE_SPACES, ids=TABLE_IDS)
def test_each_generator_word_is_refused_outside_its_index_range(space):
    size = space.shape.size
    assert set(GEN_NAMES) == set(Gen)
    for kind, name in GEN_NAMES.items():
        top = size if kind in (Gen.K, Gen.KINV) else size - 1
        for i in range(size + 2):
            if space.family is Family.AFFINE:
                want = ValueError, "generator actions are defined on the Grassmann-type spaces"
            elif kind is not Gen.PARITY and not 1 <= i <= top:
                want = ValueError, f"{name}_{i}: index must lie in 1..{top}"
            else:
                want = None
            # an accepted word's atoms all exist on the space
            assert outcome(lambda: generator_word(kind, i, space).rule) == want, (kind, i)
