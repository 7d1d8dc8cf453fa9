"""Per-monomial images of PairCheck laws, and one-word sides of operators_equal.

A PairCheck's unary map takes the images of one factor once per monomial; the
pairs, their order and the first witness must be those of the same law
evaluated pair by pair.  operators_equal compares a one-word side through its
rule image and brings a longer side to the same form.
"""

import pytest

from qgrass import weyl
from qgrass.indices import MultiIndex
from qgrass.qarith import GENERIC, root_of_unity
from qgrass.superspaces import Family, SuperVector, basis_of_degree, make_space, multiply
from qgrass.weyl import (
    OperatorWord,
    PairCheck,
    apply_expr,
    apply_word,
    build_suite,
    leibniz_check,
    mult_x,
    operators_equal,
    partial,
    sigma,
    tau,
    theta_op,
)

OMEGA11 = make_space(Family.OMEGA, 1, 1)
OMEGA21 = make_space(Family.OMEGA, 2, 1)


def word(space, *atoms, coeff=None):
    return OperatorWord(space, tuple(atoms), coeff)


def levels(space, t_max):
    return [len(basis_of_degree(space, t)) for t in range(t_max + 1)]


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


# ---------------------------------------------------------------------------
# PairCheck: one-argument images once per monomial
# ---------------------------------------------------------------------------


def test_leibniz_check_applies_words_once_per_monomial_and_once_per_pair(monkeypatch):
    t_max = 5
    calls = count_calls(monkeypatch, weyl, "apply_word")
    (check,) = [c for c in build_suite("leibniz", OMEGA21)
                if c.name == "d1 twisted Leibniz (sign +1)"]
    unary = count_calls(monkeypatch, check, "unary")
    dims = levels(OMEGA21, t_max)
    monomials = sum(dims)
    pairs = sum(a * b for i, a in enumerate(dims) for b in dims[: t_max - i + 1])
    for _ in range(2):
        calls.clear()
        assert check.run(t_max).passed
        # d1(u), tw(u) and s1(u) per monomial, d1(uv) per pair
        assert len(calls) <= monomials * 3 + pairs
        # every run takes its images afresh, once per monomial
        assert len(unary) == monomials
        unary.clear()
    assert pairs > 4 * monomials


def leibniz_words(space):
    """The words of the d1 twisted Leibniz law (sign +1) on space."""
    e1 = MultiIndex.basis_vector(space.shape, 1)
    d1 = word(space, partial(1))
    tw = word(space, theta_op(-e1), sigma(1, 1))
    s1 = word(space, sigma(1, -1))
    return d1, tw, s1


@pytest.mark.parametrize("mode", [GENERIC, root_of_unity(3)], ids=["generic", "d3"])
def test_mutated_law_fails_at_the_pair_of_pairwise_evaluation(mode):
    # the sign of the law's second term flipped, evaluated both ways
    space = make_space(Family.OMEGA, 2, 1, mode)
    d1, tw, s1 = leibniz_words(space)

    def pairwise(u, v):
        lhs = apply_word(d1, multiply(u, v))
        rhs = multiply(apply_word(d1, u), apply_word(s1, v)) - multiply(
            apply_word(tw, u), apply_word(d1, v))
        return lhs, rhs

    mapped = leibniz_check("mutated", space, lambda u: apply_word(d1, u),
                           lambda u: -apply_word(tw, u), lambda u: apply_word(s1, u))
    expected = PairCheck("mutated", space, pairwise).run(4)
    got = mapped.run(4)
    assert not expected.passed
    assert got.to_json() == expected.to_json()
    assert got.witness["pair"] != ["(0,0 | 0)", "(0,0 | 0)"]  # not the first pair


def test_default_unary_hands_the_monomial_vectors_to_the_law():
    seen = []

    def fn(u, v):
        seen.append((u, v))
        return u, u

    assert PairCheck("identity", OMEGA11, fn).run(1).passed
    (unit,), gens = ([SuperVector.monomial(OMEGA11, i) for i in basis_of_degree(OMEGA11, t)]
                     for t in (0, 1))
    assert seen == [(unit, unit)] + [(unit, g) for g in gens] + [(g, unit) for g in gens]


# ---------------------------------------------------------------------------
# operators_equal: one-word sides against summed sides
# ---------------------------------------------------------------------------


def assert_decided_as_on_vectors(lhs, rhs, t_max, equal):
    res = operators_equal(lhs, rhs, t_max)
    assert res.equal is equal
    if equal:
        return
    space = (lhs or rhs)[0].space
    (idx,) = [i for t in range(t_max + 1) for i in basis_of_degree(space, t)
              if str(i) == res.witness["monomial"]]
    u = SuperVector.monomial(space, idx)
    assert res.witness["lhs_image"] == apply_expr(lhs, u).to_json()
    assert res.witness["rhs_image"] == apply_expr(rhs, u).to_json()


def test_sides_that_cancel_equal_zero():
    x1 = word(OMEGA21, mult_x(1))
    minus = OMEGA21.mode.scalar(-1)
    cancelling = (x1, x1.scaled(minus))
    for lhs, rhs in ((cancelling, ()), ((), cancelling)):
        assert_decided_as_on_vectors(lhs, rhs, 3, True)
    for lhs, rhs in ((cancelling, (x1,)), ((x1,), cancelling)):
        assert_decided_as_on_vectors(lhs, rhs, 3, False)


def test_two_word_side_against_an_equal_one_word_side():
    two = OMEGA21.mode.scalar(2)
    d1 = word(OMEGA21, partial(1))
    doubled = (d1.scaled(two),)
    for lhs, rhs in (((d1, d1), doubled), (doubled, (d1, d1))):
        assert_decided_as_on_vectors(lhs, rhs, 4, True)
    # d3 x3 + x3 d3 = 1 on the exterior direction, and one term short of it
    d3, x3 = word(OMEGA21, partial(3)), word(OMEGA21, mult_x(3))
    summed = (d3.then(x3), x3.then(d3))
    unit = (word(OMEGA21),)
    for lhs, rhs in ((summed, unit), (unit, summed)):
        assert_decided_as_on_vectors(lhs, rhs, 4, True)
    for lhs, rhs in ((summed[:1], unit), (unit, summed[1:]), ((d1, d1), (d1,))):
        assert_decided_as_on_vectors(lhs, rhs, 4, False)
        assert_decided_as_on_vectors(rhs, lhs, 4, False)


def test_three_words_that_sum_to_one_term_equal_that_word():
    x1, x3, t3 = word(OMEGA21, mult_x(1)), word(OMEGA21, mult_x(3)), word(OMEGA21, tau(3))
    minus = OMEGA21.mode.scalar(-1)
    summed = (x1, x3, x3.scaled(minus))
    assert_decided_as_on_vectors(summed, (x1,), 4, True)
    assert_decided_as_on_vectors((x1,), summed, 4, True)
    # a two-term image never equals a one-word image
    assert_decided_as_on_vectors((x1, t3), (x1,), 2, False)
