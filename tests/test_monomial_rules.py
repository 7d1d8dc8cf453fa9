"""Compiled monomial rules against the definitions they are built from.

A word compiles once into one MonomialRule; on every basis monomial its image
must be the one the word's atoms give when applied one at a time, each from
the test-local oracles: x_i, X_i and Th(label) from the star pairing, every
other atom from its coefficient formula.  apply_atom must give the same
image, and x_i must be the very rule monomial_product reads for e_i.
monomial_product is the image under the left_mult
rule of its first factor, compiled once per space and factor; it must give
the structure constants of the star pairing and the image of a freshly built
rule, and a rule cached on one space is never read for another of its rank.
Specialising a generic structure constant or twist at a root of unity gives
the root-mode one.
Two rules with one normal form (same_map) must be the same map, a restricted
cap keeps a rule out of that shortcut, and a cap whose binomial does not
vanish raises under any interpreter flags.  A rule that is_character accepts
must be an algebra map, and a rule with a shift, a check, a binomial or a
constant other than 1 must be refused.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from oracles import split_star, star_theta_exponents, twist_or_derivative
from qgrass import superspaces, uqrep, weyl
from qgrass.indices import MultiIndex, theta
from qgrass.qarith import GENERIC, LaurentPoly, char_of, q_binom, q_int, root_of_unity
from qgrass.superspaces import (
    DUAL_SIDE,
    Family,
    MonomialRule,
    RuleBuilder,
    SuperVector,
    basis_of_degree,
    make_space,
    monomial_product,
    multiply,
)
from qgrass.uqrep import Gen, generator_word, verify_module_algebra
from qgrass.weyl import (
    InvalidAtomError,
    OperatorWord,
    PairCheck,
    TripleCheck,
    _degree_range,
    _triples,
    apply_atom,
    apply_expr,
    apply_word,
    build_suite,
    mult_x,
    mult_x_divpow,
    operators_equal,
    parity,
    partial,
    sigma,
    tau,
    theta_op,
)

D3, D4, D8 = root_of_unity(3), root_of_unity(4), root_of_unity(8)

SPACES = [
    make_space(family, m, n, mode)
    for family, m, n, modes in [
        (Family.OMEGA, 2, 1, (GENERIC, D3, D4, D8)),
        (Family.DUAL, 1, 2, (GENERIC, D3, D4, D8)),
        (Family.OMEGA_RESTRICTED, 2, 1, (D3, D8)),
        (Family.DUAL_RESTRICTED, 1, 2, (D3, D8)),
        (Family.AFFINE, 2, 1, (GENERIC, D3)),
    ]
    for mode in modes
]
SPACE_IDS = [f"{s.family.value}-{'generic' if s.mode.is_generic else f'd{s.mode.d}'}"
             for s in SPACES]


def basis_upto(space, t_max):
    return [idx for t in _degree_range(space, t_max) for idx in basis_of_degree(space, t)]


def valid_atoms(space):
    """Every atom kind at every position, and a few twist labels; only the
    atoms the space has."""
    size = space.shape.size
    labels = [MultiIndex.basis_vector(space.shape, p, v) for p in range(1, size + 1) for v in (1, -1)]
    labels.append(MultiIndex(tuple(range(1, size + 1)), space.shape))
    atoms = [ctor(p) for p in range(1, size + 1)
             for ctor in (partial, mult_x, mult_x_divpow, sigma, lambda i: sigma(i, -1), tau)]
    atoms += [theta_op(lab) for lab in labels] + [parity()]
    out = []
    for atom in atoms:
        try:
            apply_atom(space, atom, space.unit_index())
        except InvalidAtomError:
            continue
        out.append(atom)
    return out


def atom_image(space, atom, idx):
    """One atom on one basis monomial; None when the image is 0.  x_i, X_i and
    Th(label) come from the star pairing (reference_product and
    star_theta_exponents), every other atom from its coefficient formula
    (twist_or_derivative), never from the rules the package compiles."""
    kind = atom.kind.name
    if kind == "THETA":
        lam, mu = star_theta_exponents(atom.label, idx)
        c = space.mode.q_power(mu)
        return (-c if lam else c), idx
    if kind in ("MULT_X", "MULT_X_DIV_POW"):
        power = 1 if kind == "MULT_X" else char_of(space.mode).ell
        return reference_product(space, MultiIndex.basis_vector(space.shape, atom.pos, power), idx)
    return twist_or_derivative(space, atom, idx)


def step_by_step(word, idx):
    """The word on one monomial, one atom_image at a time (rightmost first)."""
    coeff, cur = word.coeff(), idx
    for atom in reversed(word.atoms):
        hit = atom_image(word.space, atom, cur)
        if hit is None:
            return None
        c, cur = hit
        coeff = coeff * c
    return None if coeff.is_zero() else (coeff, cur)


def rendered(word):
    """The atoms of a word, for an assertion message."""
    return " ".join(a.render() for a in word.atoms)


def words_of(space):
    """All words of length <= 1, sampled words of length 2 and 3, and the
    words that reach a restricted cap or a vanishing [ell]_q; each once
    without and once with a scalar."""
    atoms = valid_atoms(space)
    rng = random.Random(f"{space.family.value} {space.mode.d}")
    tuples = [()] + [(a,) for a in atoms]
    tuples += [tuple(rng.choice(atoms) for _ in range(2)) for _ in range(60)]
    tuples += [tuple(rng.choice(atoms) for _ in range(3)) for _ in range(60)]
    edge = [a for a in atoms if a.kind.name in ("MULT_X", "MULT_X_DIV_POW", "PARTIAL")]
    tuples += list(itertools.product(edge, repeat=2))
    tuples += [(a, a, a) for a in edge]
    mode = space.mode
    scalar = mode.q() + mode.scalar(2)
    return [OperatorWord(space, t, c) for t in tuples for c in (None, scalar)]


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_compiled_words_match_atom_by_atom_application(space):
    monos = basis_upto(space, 4)
    for word in words_of(space):
        for idx in monos:
            assert word.rule.image(idx) == step_by_step(word, idx), (rendered(word), str(idx))


LONG_WORD_SPACES = [(s, i) for s, i in zip(SPACES, SPACE_IDS) if s.mode in (GENERIC, D3, D8)
                    and s.family in (Family.OMEGA, Family.DUAL, Family.OMEGA_RESTRICTED)]


def long_words(space, count=60):
    """Words of 4-18 atoms, drawn as the benchmark's act queries draw theirs:
    1-8 tokens, each a generator's word, one atom the space has (X_i at a
    root of unity), or off the dual side a twist label with entries in 0..2;
    every other word with a scalar."""
    rng = random.Random(f"long {space.family.value} {space.mode.d}")
    size = space.shape.size
    gens = [(Gen.PARITY, 0)] + [(g, i) for g in (Gen.E, Gen.F, Gen.SK, Gen.SKINV)
                                for i in range(1, size)]
    gens += [(g, i) for g in (Gen.K, Gen.KINV) for i in range(1, size + 1)]
    gen_atoms = [generator_word(g, i, space).atoms for g, i in gens]
    raw = [(a,) for a in valid_atoms(space) if a.kind.name != "THETA"]
    scalar = space.mode.q() + space.mode.scalar(2)
    words = []
    while len(words) < count:
        atoms = ()
        for _ in range(rng.randint(1, 8)):
            if space.family not in DUAL_SIDE and rng.random() < 0.1:
                label = tuple(rng.randint(0, 2) for _ in range(size))
                atoms += (theta_op(MultiIndex(label, space.shape)),)
            else:
                atoms += rng.choice(gen_atoms if rng.random() < 0.5 else raw)
        if 4 <= len(atoms) <= 18:
            words.append(OperatorWord(space, atoms, scalar if len(words) % 2 else None))
    return words


@pytest.mark.parametrize("space", [s for s, _ in LONG_WORD_SPACES],
                         ids=[i for _, i in LONG_WORD_SPACES])
def test_long_compiled_words_match_atom_by_atom_application(space):
    monos = basis_upto(space, 4)
    for word in long_words(space):
        for idx in monos:
            assert word.rule.image(idx) == step_by_step(word, idx), (rendered(word), str(idx))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_apply_atom_reads_the_one_rule_of_the_atom(space):
    monos = basis_upto(space, 4)
    for atom in valid_atoms(space):
        for idx in monos:
            assert apply_atom(space, atom, idx) == atom_image(space, atom, idx), (
                atom.render(), str(idx))
    for i in range(1, space.shape.size + 1):
        e_i = MultiIndex.basis_vector(space.shape, i)
        assert weyl._atom_rule(space, mult_x(i)) is superspaces._left_mult_rule(
            space, e_i.entries)


@pytest.mark.parametrize("m, n", [(2, 2), (1, 2), (0, 3)])
def test_compiled_twists_match_the_star_pairing(m, n):
    # labels with several exterior positions, which the (2|1) spaces above lack
    space = make_space(Family.OMEGA, m, n, D8)
    rng = random.Random(f"twists {m}|{n}")
    labels = [MultiIndex(tuple(rng.randint(-3, 3) for _ in range(m + n)), space.shape)
              for _ in range(12)]
    monos = basis_upto(space, 4)
    for label in labels:
        word = OperatorWord(space, (theta_op(label),))
        for idx in monos:
            assert word.rule.image(idx) == atom_image(space, theta_op(label), idx), (
                str(label), str(idx))


@pytest.mark.parametrize("space", [s for s in SPACES if s.mode in (GENERIC, D8)],
                         ids=[i for s, i in zip(SPACES, SPACE_IDS) if s.mode in (GENERIC, D8)])
def test_a_rule_times_c_scales_every_image_by_c(space):
    mode = space.mode
    c = (mode.q() + mode.scalar(2)) * q_int(3, mode).inverse()
    monos = basis_upto(space, 4)
    for word in words_of(space):
        rule = word.rule
        scaled = rule.times(c)
        for idx in monos:
            hit = rule.image(idx)
            assert scaled.image(idx) == (None if hit is None else (c * hit[0], hit[1]))


def test_the_edge_cases_are_reached():
    # the vanishing [3]_q at d = 3 on unrestricted omega, and the cap on the
    # restricted space, each after a first atom that keeps the monomial
    omega = make_space(Family.OMEGA, 2, 1, D3)
    idx = MultiIndex((1, 0, 0), omega.shape)
    x1 = mult_x(1)
    assert apply_atom(omega, x1, idx) is not None
    assert OperatorWord(omega, (x1, x1)).rule.image(idx) is None
    restricted = make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)
    for entries in ((1, 0, 0), (2, 0, 0)):
        idx = MultiIndex(entries, restricted.shape)
        assert OperatorWord(restricted, (x1, x1)).rule.image(idx) is None
        assert step_by_step(OperatorWord(restricted, (x1, x1)), idx) is None


def reference_product(space, a, b):
    """Structure constant of a*b from the star pairing split by parities."""
    target = a + b
    if any(fer and e > 1 for e, fer in zip(target.entries, space.shape.fermionic_mask)):
        return None
    mode = space.mode
    bb, ff, fb, bf = split_star(a, b)
    if space.family in DUAL_SIDE:
        exp, sign = -(bf + bb + ff), ff + bf
    else:
        exp, sign = fb + bb + ff, ff
    coeff = mode.q_power(exp)
    if sign % 2:
        coeff = -coeff
    if space.family is not Family.AFFINE:
        cap = space.shape.restricted_ell
        for ai, bi, fer in zip(a.entries, b.entries, space.shape.fermionic_mask):
            if fer or not (ai and bi):
                continue
            binom = q_binom(ai + bi, ai, mode)
            if cap is not None and ai + bi >= cap:
                assert binom.is_zero()
                return None
            coeff = coeff * binom
    return None if coeff.is_zero() else (coeff, target)


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_monomial_product_is_the_star_pairing_formula(space):
    monos = basis_upto(space, 4)
    for a, b in itertools.product(monos, repeat=2):
        assert monomial_product(space, a, b) == reference_product(space, a, b), (str(a), str(b))


def outcome(fn, *args):
    """fn(*args), or the message of the ArithmeticError it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return f"ArithmeticError: {exc}"


def past_the_cap(space):
    """First factors ell x_j and (ell + 1) x_j at each divided-power position
    of a restricted space: each of their caps fails on every b, with a
    binomial [a_j + b_j choose a_j]_q that need not vanish."""
    ell, mask = space.shape.restricted_ell, space.shape.fermionic_mask
    if ell is None:
        return []
    return [MultiIndex(tuple(v if p == j else 0 for p in range(len(mask))), space.shape)
            for j, fer in enumerate(mask) if not fer for v in (ell, ell + 1)]


@pytest.mark.parametrize("space", [s for s in SPACES if s.mode is not D4],
                         ids=[i for s, i in zip(SPACES, SPACE_IDS) if s.mode is not D4])
def test_monomial_product_is_the_image_of_the_left_mult_rule(space):
    # monomial_product reads the left_mult rule it compiled once per space
    # and first factor; it must give the image of a freshly built rule on
    # every pair of degree <= 3, and past the cap, where both raise alike
    monos = basis_upto(space, 3)
    raised = capped = 0
    for a in monos + past_the_cap(space):
        builder = RuleBuilder(space.mode, space.shape.size)
        builder.left_mult(space, a)
        rule = builder.build()
        for b in monos:
            direct = outcome(monomial_product, space, a, b)
            assert direct == outcome(rule.image, b), (str(a), str(b))
            raised += isinstance(direct, str)
            capped += direct is None and any(c[4] and not c[1] <= b.entries[c[0]] <= c[2]
                                             for c in rule.checks)
    restricted = space.shape.restricted_ell is not None
    assert (raised > 0, capped > 0) == (restricted, restricted)


def test_the_product_rule_cache_tells_spaces_of_one_shape_apart():
    # rules cached on omega (2|1) generic are never read for a space of the
    # same rank in another mode or family, not even one of an equal Shape
    # (affine generic)
    spaces = [make_space(family, 2, 1, mode) for family, mode in (
        (Family.OMEGA, GENERIC), (Family.OMEGA, D3), (Family.OMEGA, D8),
        (Family.AFFINE, GENERIC), (Family.AFFINE, D8),
        (Family.OMEGA_RESTRICTED, D3), (Family.OMEGA_RESTRICTED, D8))]
    assert spaces[0].shape == spaces[3].shape
    superspaces._left_mult_rule.cache_clear()
    weyl._atom_rule.cache_clear()  # its x_i rules are _left_mult_rule's
    warm = basis_upto(spaces[0], 4)
    for a, b in itertools.product(warm, repeat=2):
        monomial_product(spaces[0], a, b)
    for space in spaces:
        monos = basis_upto(space, 4)
        for a, b in itertools.product(monos, repeat=2):
            assert monomial_product(space, a, b) == reference_product(space, a, b), (
                space.family.value, space.mode.d, str(a), str(b))


SPECIALISATIONS = [root_of_unity(d) for d in (3, 5, 8, 12)]


def test_specialisation_commutes_with_the_structure_constants():
    """At q a primitive d-th root of unity, d in {3, 5, 8, 12}, from_laurent
    of each generic structure constant (a Laurent polynomial: denominator 1)
    is the root-mode one on affine, omega and dual (2|1), (1|2) and (2|2), for
    every pair of monomials of degree <= 4; where that image is 0 the
    root-mode product is None.  The twist bicharacter of the polynomial side
    is checked the same way.  Both modes take their constants through
    qarith._from_laurent, so at that layer the check is not independent: it
    checks the rule arithmetic and the residue reduction against the Laurent
    path."""
    agreed = vanished = 0
    for family, (m, n) in itertools.product(
            (Family.AFFINE, Family.OMEGA, Family.DUAL), ((2, 1), (1, 2), (2, 2))):
        generic = make_space(family, m, n)
        monos = basis_upto(generic, 4)
        for mode in SPECIALISATIONS:
            root = make_space(family, m, n, mode)
            for a, b in itertools.product(monos, repeat=2):
                hit, root_hit = monomial_product(generic, a, b), monomial_product(root, a, b)
                if hit is not None:
                    assert hit[0].den == LaurentPoly.one()
                    image = mode.from_laurent(hit[0].num)
                    vanished += image.is_zero()
                    agreed += not image.is_zero()
                    hit = None if image.is_zero() else (image, hit[1])
                assert root_hit == hit, (family.value, mode.d, str(a), str(b))
                if family is Family.OMEGA:
                    c = theta(a, b, GENERIC)
                    assert c.den == LaurentPoly.one()
                    assert mode.from_laurent(c.num) == theta(a, b, mode)
    assert (agreed, vanished) == (19334, 3430)


def test_then_of_unscaled_words_has_no_scalar():
    x1, d2 = OperatorWord(OMEGA21, (mult_x(1),)), OperatorWord(OMEGA21, (partial(2),))
    assert x1.then(d2).scalar is None and x1.then(d2).rule.scale is None
    q = GENERIC.q()
    for lhs, rhs in ((x1.scaled(q), d2), (x1, d2.scaled(q))):
        assert lhs.then(rhs).scalar == q and lhs.then(rhs).rule.scale == q


@pytest.mark.parametrize("space, t_max", [
    (make_space(Family.OMEGA, 2, 1), 0),
    (make_space(Family.OMEGA, 2, 1), 4),
    (make_space(Family.DUAL, 1, 2), 3),
    (make_space(Family.OMEGA_RESTRICTED, 1, 1, D3), 5),  # top degree 3 < t_max
], ids=["omega21-t0", "omega21-t4", "dual12-t3", "omega11-d3-t5"])
def test_budgeted_triples_are_the_filtered_product_in_order(space, t_max):
    monos = basis_upto(space, t_max)
    filtered = [abc for abc in itertools.product(monos, repeat=3)
                if sum(i.degree() for i in abc) <= t_max]
    assert list(_triples(space, t_max)) == filtered


def test_triple_check_reports_the_first_failing_triple():
    space = make_space(Family.OMEGA, 1, 1)
    one = space.mode.one()
    seen = []

    def fn(a, b, c):
        seen.append((a, b, c))
        return {a: one}, {a if len(seen) < 7 else b: one}

    result = TripleCheck("probe", space, fn).run(2)
    assert not result.passed and len(seen) == 7
    a, b, c = seen[-1]
    assert result.witness == {
        "triple": [str(a), str(b), str(c)],
        "lhs": SuperVector.monomial(space, a).to_json(),
        "rhs": SuperVector.monomial(space, b).to_json(),
    }
    assert seen == list(_triples(space, 2))[:7]


# ---------------------------------------------------------------------------
# one normal form, one map
# ---------------------------------------------------------------------------

OMEGA21 = make_space(Family.OMEGA, 2, 1)
RESTRICTED21 = make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)
ROOT = pathlib.Path(__file__).resolve().parents[1]


def first_difference(lhs, rhs, t_max):
    """The first monomial where two words differ as vectors, as the witness
    operators_equal reports, or None."""
    space = lhs.space
    for idx in basis_upto(space, t_max):
        u = SuperVector.monomial(space, idx)
        va, vb = apply_expr((lhs,), u), apply_expr((rhs,), u)
        if va != vb:
            return {"monomial": str(idx), "lhs_image": va.to_json(), "rhs_image": vb.to_json()}
    return None


def test_rules_of_one_normal_form_are_the_same_map():
    s1s2 = OperatorWord(OMEGA21, (sigma(1), sigma(2)))
    s2s1 = OperatorWord(OMEGA21, (sigma(2), sigma(1)))
    assert s1s2.rule.same_map(s2s1.rule)
    # x1 x2 = theta(e1, e2) x2 x1: the binomials come in the other order
    e1, e2 = (MultiIndex.basis_vector(OMEGA21.shape, p, 1) for p in (1, 2))
    x1x2 = OperatorWord(OMEGA21, (mult_x(1), mult_x(2)))
    x2x1 = OperatorWord(OMEGA21, (mult_x(2), mult_x(1)), theta(e1, e2, GENERIC))
    assert x1x2.rule.binoms != x2x1.rule.binoms
    assert sorted(x1x2.rule.binoms) == sorted(x2x1.rule.binoms)
    assert x1x2.rule.same_map(x2x1.rule)
    for lhs, rhs in ((s1s2, s2s1), (x1x2, x2x1)):
        assert operators_equal(lhs, rhs, 4).equal
        assert first_difference(lhs, rhs, 4) is None


def test_rules_apart_in_one_field_are_not_the_same_map():
    fields = dict(mode=GENERIC, shift=(1, 0, 0), checks=((1, 0, 1, 0, 0),), forms=((0, 1, 0),),
                  lam0=0, mu0=0, binoms=((0, 0, 1),), scale=None)
    rule, monos = MonomialRule(**fields), basis_upto(OMEGA21, 3)
    # (-1)^lam0 is all the constant sees of lam0
    assert rule.same_map(MonomialRule(**{**fields, "lam0": 2}))
    for field, value in [("shift", (0, 1, 0)), ("checks", ((1, 0, 0, 0, 0),)),
                         ("forms", ((0, 2, 0),)), ("lam0", 1), ("mu0", 1),
                         ("binoms", ((0, 0, 2),)), ("scale", GENERIC.q())]:
        other = MonomialRule(**{**fields, field: value})
        assert not rule.same_map(other) and not other.same_map(rule), field
        assert any(rule.image(idx) != other.image(idx) for idx in monos), field


def test_a_rule_with_a_cap_is_never_the_same_map():
    words = [OperatorWord(RESTRICTED21, atoms) for atoms in
             [(mult_x(1),), (mult_x(1), mult_x(2)), (partial(1), mult_x(1)), (mult_x(3),)]]
    for w in words:
        capped = any(k for *_, k in w.rule.checks)
        assert w.rule.same_map(w.rule) is not capped
    assert sum(any(k for *_, k in w.rule.checks) for w in words) == 3
    # a cap on either side keeps the pair out
    plain = OperatorWord(RESTRICTED21, (mult_x(3),))
    assert not words[0].rule.same_map(plain.rule)
    assert not plain.rule.same_map(words[0].rule)


def test_maps_equal_only_at_the_root_are_enumerated():
    # K1^ell = 1 holds on the restricted space, with q^(3 a_1) against 1
    k1 = generator_word(Gen.K, 1, RESTRICTED21)
    k1_cubed = k1.then(k1).then(k1)
    one = OperatorWord(RESTRICTED21, ())
    assert not k1_cubed.rule.same_map(one.rule)
    assert operators_equal(k1_cubed, one, 6).equal
    assert first_difference(k1_cubed, one, 6) is None


def test_a_changed_q_exponent_is_not_the_same_map():
    e1, e2 = (MultiIndex.basis_vector(OMEGA21.shape, p, 1) for p in (1, 2))
    x1x2 = OperatorWord(OMEGA21, (mult_x(1), mult_x(2)))
    for shift in (1, -1):
        c = theta(e1, e2, GENERIC) * GENERIC.q_power(shift)
        x2x1 = OperatorWord(OMEGA21, (mult_x(2), mult_x(1)), c)
        assert not x1x2.rule.same_map(x2x1.rule)
        res = operators_equal(x1x2, x2x1, 4)
        assert not res.equal
        assert res.witness == first_difference(x1x2, x2x1, 4)


def test_a_cap_with_a_nonzero_binomial_raises():
    # a_1 <= 0 with cap 1: [a_1 + 1]_q must vanish where the check fails;
    # [3]_q does at d = 3, [2]_q does not
    builder = RuleBuilder(D3, RESTRICTED21.shape.size)
    builder.check(0, -sys.maxsize, 0, 1)
    rule = builder.build()
    assert rule.image(MultiIndex((2, 0, 0), RESTRICTED21.shape)) is None
    with pytest.raises(ArithmeticError, match="restricted overflow"):
        rule.image(MultiIndex((1, 0, 0), RESTRICTED21.shape))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)


def test_caps_are_checked_under_optimisation():
    # python -O strips asserts; the cap check must not be one
    probe = run_python("-O", "-c", (
        "import sys\n"
        "from qgrass.indices import MultiIndex\n"
        "from qgrass.qarith import root_of_unity\n"
        "from qgrass.superspaces import Family, RuleBuilder, make_space\n"
        "space = make_space(Family.OMEGA_RESTRICTED, 2, 1, root_of_unity(3))\n"
        "builder = RuleBuilder(space.mode, 3)\n"
        "builder.check(0, -sys.maxsize, 0, 1)\n"
        "try:\n"
        "    builder.build().image(MultiIndex((1, 0, 0), space.shape))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"))
    assert probe.stdout == "raised\n", probe.stderr
    main = "import sys; from qgrass.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["check-uq", "--family", "omega-restricted", "--m", "2", "--n", "1",
            "--q", "root", "--d", "3", "--t-max", "6"]
    default, optimised = run_python("-c", main, *argv), run_python("-O", "-c", main, *argv)
    assert default.returncode == optimised.returncode == 0, default.stderr + optimised.stderr
    assert default.stdout and optimised.stdout == default.stdout


# ---------------------------------------------------------------------------
# characters: the twists a pair law may be reduced by
# ---------------------------------------------------------------------------


def twist_words(space, monkeypatch):
    """The distinct maps the module-algebra laws, and on the polynomial side
    the leibniz suite's laws, hand PairCheck as L, R or grouplike g."""
    checks = []
    with monkeypatch.context() as patch:
        patch.setattr(uqrep, "run_checks", lambda suite, sp, cs, t_max: checks.extend(cs))
        verify_module_algebra(space, 0)
    if space.family is not Family.DUAL:
        checks += build_suite("leibniz", space)
    laws = [c for c in checks
            if isinstance(c, PairCheck) and c.name != "monomial twisted commutation"]
    assert laws and all(c.twists is not None for c in laws)
    return list(dict.fromkeys(w for c in laws for w in c.twists if w is not None))


@pytest.mark.parametrize("space", [
    OMEGA21, make_space(Family.OMEGA, 2, 1, D8), make_space(Family.DUAL, 2, 1),
    make_space(Family.DUAL, 2, 1, D8), RESTRICTED21,
], ids=["omega-generic", "omega-d8", "dual-generic", "dual-d8", "omega-restricted-d3"])
def test_every_twist_of_a_pair_law_is_a_character(space, monkeypatch):
    words = twist_words(space, monkeypatch)
    assert len(words) >= (8 if space.family is Family.DUAL else 30)
    monos = basis_upto(space, 4)
    pairs = [(SuperVector.monomial(space, a), SuperVector.monomial(space, b))
             for a in monos for b in monos if a.degree() + b.degree() <= 4]
    products = [multiply(u, v) for u, v in pairs]
    assert sum(not p.is_zero() for p in products) > 50
    for w in words:
        assert isinstance(w, OperatorWord) and w.rule.is_character(), rendered(w)
        image = {idx: apply_word(w, SuperVector.monomial(space, idx)) for idx in monos}
        for (u, v), uv in zip(pairs, products):
            (a,), (b,) = u.terms, v.terms
            assert apply_word(w, uv) == multiply(image[a], image[b]), (rendered(w), a, b)


def test_a_rule_is_refused_as_a_character_for_each_field_alone():
    q = GENERIC.q()
    fields = dict(mode=GENERIC, shift=(0, 0, 0), checks=(), forms=((0, 1, 0), (2, 0, 1)),
                  lam0=0, mu0=0, binoms=(), scale=None)
    assert MonomialRule(**fields).is_character()
    # a constant of 1 in two factors, and (-1)^2, still make a character
    assert MonomialRule(**{**fields, "mu0": 1, "scale": q.inverse()}).is_character()
    assert MonomialRule(**{**fields, "lam0": 2}).is_character()
    for field, value in [("shift", (1, 0, 0)), ("checks", ((1, 0, 3, 0, 0),)),
                         ("binoms", ((0, 0, 1),)), ("lam0", 1), ("mu0", 1), ("scale", q)]:
        assert not MonomialRule(**{**fields, field: value}).is_character(), field
    # the words behind those fields: x1, d1 (a check and a shift), X1 at the root
    refused = [OperatorWord(OMEGA21, (mult_x(1),)), OperatorWord(OMEGA21, (partial(1),)),
               OperatorWord(OMEGA21, (sigma(1),), q),
               OperatorWord(make_space(Family.OMEGA, 2, 1, D3), (mult_x_divpow(1),))]
    assert not any(w.rule.is_character() for w in refused)
