"""Pair and triple laws on term maps, and one-word sides of operators_equal.

A PairCheck takes the images of one factor once per monomial, and its laws
read g(uv) as c g(w) from those images (uv = c x^w) and multiply term maps
through the suite product table; a TripleCheck chains the same lookups.  The
pairs and triples, their order, the first witness and its lhs/rhs JSON must
be those of the same law evaluated one tuple at a time on vectors.
operators_equal compares a one-word side through its rule image and brings a
longer side to the same form.  A law reduced to the pairs whose first factor
lies in F must still fail, with the oracle's witness, when it is wrong only
past F or on the unit, when a twist is not a character word, or when the
product is not associative just past t_max.  A twist move whose commutation
law failed, whose products are not associative, or that runs without its
commutation law, and a composite derivation law whose twists are not its
base law's, whose base law failed, or that runs without its base law, is no
corollary and reports as its enumeration does.  Every reduced pair and
triple law must agree with its full enumeration.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import pathlib
import re
from collections import Counter

import pytest

from qgrass import cli, superspaces, uqrep, weyl
from qgrass.indices import MultiIndex
from qgrass.qarith import GENERIC, root_of_unity
from qgrass.superspaces import Family, SuperVector, basis_of_degree, make_space, multiply
from qgrass.uqrep import Gen, generator_word, verify_module_algebra
from qgrass.weyl import (
    OperatorWord,
    PairCheck,
    TripleCheck,
    apply_expr,
    apply_word,
    build_suite,
    leibniz_check,
    mult_x,
    operators_equal,
    partial,
    run_checks,
    sigma,
    tau,
    theta_op,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
OMEGA11 = make_space(Family.OMEGA, 1, 1)
OMEGA21 = make_space(Family.OMEGA, 2, 1)
MODES = pytest.mark.parametrize("mode", [GENERIC, root_of_unity(3)], ids=["generic", "d3"])


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
# the oracle: a law evaluated one tuple at a time on monomial vectors
# ---------------------------------------------------------------------------


def oracle(name, space, law, arity, t_max):
    """The result the law gives on vectors: pairs by (degree of u, degree of
    v), then lexicographically, as PairCheck visits them; triples as the
    degree-bounded product of the degree-sorted basis."""
    monos = [i for t in range(t_max + 1) for i in basis_of_degree(space, t)]
    tuples = [abc for abc in itertools.product(monos, repeat=arity)
              if sum(i.degree() for i in abc) <= t_max]
    if arity == 2:
        tuples.sort(key=lambda ab: (ab[0].degree(), ab[1].degree()))
    for factors in tuples:
        lhs, rhs = law(*(SuperVector.monomial(space, i) for i in factors))
        if lhs != rhs:
            key = "pair" if arity == 2 else "triple"
            witness = {key: [str(i) for i in factors], "lhs": lhs.to_json(), "rhs": rhs.to_json()}
            return {"name": name, "status": "fail", "witness": witness}
    return {"name": name, "status": "pass"}


def run_one(space, check, t_max):
    """One check under a suite memo, so its products go through the table."""
    (result,) = run_checks("probe", space, [check], t_max).results
    return result.to_json()


def the_check(checks, name):
    (check,) = [c for c in checks if c.name == name]
    return check


def flip_product(monkeypatch, a, b):
    """monomial_product with the sign of x^a x^b flipped: one mutated
    structure constant, seen by the term-map kernel and by multiply alike."""
    real = superspaces.monomial_product

    def flipped(sp, left, right):
        hit = real(sp, left, right)
        if (left.entries, right.entries) == (a.entries, b.entries):
            return -hit[0], hit[1]
        return hit

    monkeypatch.setattr(superspaces, "monomial_product", flipped)


def assert_mutation_caught(expected, got):
    assert expected["status"] == "fail"
    assert got == expected
    first = expected["witness"].get("pair") or expected["witness"]["triple"]
    assert set(first) != {"(0,0 | 0)"}  # not the first tuple


# ---------------------------------------------------------------------------
# PairCheck: one-argument images once per monomial, no vector per pair
# ---------------------------------------------------------------------------


def test_leibniz_check_applies_words_once_per_monomial_and_once_per_pair(monkeypatch):
    t_max = 5
    dims = levels(OMEGA21, t_max)
    monomials = sum(dims)
    pairs = sum(a * b for i, a in enumerate(dims) for b in dims[: t_max - i + 1])
    # counted before the laws are built: their maps bind apply_word then
    words = count_calls(monkeypatch, weyl, "apply_word")
    products = [count_calls(monkeypatch, module, "multiply") for module in (weyl, superspaces)]
    checks = build_suite("leibniz", OMEGA21) + verify_module_algebra_checks(monkeypatch, OMEGA21)
    checks = [c for c in checks if isinstance(c, PairCheck)]
    assert len(checks) > 20
    for check in checks:
        unary = count_calls(monkeypatch, check, "unary") if check.unary else []
        for _ in range(2):
            for calls in (words, unary, *products):
                calls.clear()
            assert run_one(OMEGA21, check, t_max)["status"] == "pass"
            # at most three images per monomial (op, left, right), none per pair
            assert len(words) <= 3 * monomials
            if check.name == "d1 twisted Leibniz (sign +1)":
                assert len(words) == 3 * monomials  # d1, tw and s1
            # the composite law's op multiplies once per monomial, no law per pair
            assert sum(map(len, products)) <= monomials
            if "composite" in check.name:
                assert sum(map(len, products)) == monomials
            # every run takes its images afresh, once per monomial
            assert len(unary) == (monomials if check.unary else 0)
    assert pairs > 8 * monomials


def verify_module_algebra_checks(monkeypatch, space):
    """The checks verify_module_algebra hands to run_checks, not run."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(uqrep, "run_checks", lambda suite, sp, checks, t_max: seen.extend(checks))
        verify_module_algebra(space, 0)
    return seen


def leibniz_words(space):
    """The words of the d1 twisted Leibniz law (sign +1) on space."""
    e1 = MultiIndex.basis_vector(space.shape, 1)
    d1 = word(space, partial(1))
    tw = word(space, theta_op(-e1), sigma(1, 1))
    s1 = word(space, sigma(1, -1))
    return d1, tw, s1


@MODES
def test_mutated_law_fails_at_the_pair_of_pairwise_evaluation(mode):
    # the sign of the Leibniz law's second term flipped, evaluated both ways
    space = make_space(Family.OMEGA, 2, 1, mode)
    d1, tw, s1 = leibniz_words(space)

    def pairwise(u, v):
        lhs = apply_word(d1, multiply(u, v))
        rhs = multiply(apply_word(d1, u), apply_word(s1, v)) - multiply(
            apply_word(tw, u), apply_word(d1, v))
        return lhs, rhs

    mapped = leibniz_check("mutated", space, lambda u: apply_word(d1, u),
                           lambda u: -apply_word(tw, u), lambda u: apply_word(s1, u))
    expected = oracle("mutated", space, pairwise, 2, 4)
    assert_mutation_caught(expected, run_one(space, mapped, 4))
    assert mapped.run(4).to_json() == expected  # outside a suite memo too


@MODES
def test_mutated_automorphism_fails_at_the_pair_of_pairwise_evaluation(monkeypatch, mode):
    # K1 with its sign flipped on one monomial is no longer an automorphism
    space = make_space(Family.OMEGA, 2, 1, mode)
    k1 = generator_word(Gen.K, 1, space)
    bad = MultiIndex((1, 0, 1), space.shape)
    real = weyl.apply_word

    def mutated(w, u):
        image = real(w, u)
        return -image if w == k1 and bad in u.terms else image

    monkeypatch.setattr(weyl, "apply_word", mutated)

    def pairwise(u, v):
        return mutated(k1, multiply(u, v)), multiply(mutated(k1, u), mutated(k1, v))

    name = "K1 is an algebra automorphism"
    report = verify_module_algebra(space, 4).to_json()
    (got,) = [r for r in report["relations"] if r["name"] == name]
    assert_mutation_caught(oracle(name, space, pairwise, 2, 4), got)
    assert [r["name"] for r in report["relations"] if r["status"] == "fail"] == [name]


@MODES
def test_mutated_commutation_fails_at_the_pair_of_pairwise_evaluation(monkeypatch, mode):
    # theta with its sign flipped on one pair of monomials
    space = make_space(Family.OMEGA, 2, 1, mode)
    name = "monomial twisted commutation"
    check = the_check(build_suite("leibniz", space), name)
    a, b = (MultiIndex(e, space.shape) for e in ((1, 0, 0), (0, 1, 1)))
    real = weyl.theta

    def mutated(x, y, md):
        c = real(x, y, md)
        return -c if (x, y) == (a, b) else c

    monkeypatch.setattr(weyl, "theta", mutated)

    def pairwise(u, v):
        ((x,), (y,)) = u.terms, v.terms
        return multiply(u, v), multiply(v, u).scaled(mutated(x, y, space.mode))

    assert_mutation_caught(oracle(name, space, pairwise, 2, 4), run_one(space, check, 4))


@MODES
@pytest.mark.parametrize("name", ["associativity", "left factor moves past via its twist"])
def test_mutated_triple_law_fails_at_the_triple_of_vector_evaluation(monkeypatch, mode, name):
    # one structure constant x1 * x3 with its sign flipped breaks both laws
    space = make_space(Family.OMEGA, 2, 1, mode)
    check = the_check(build_suite("leibniz", space), name)
    x1, x3 = (MultiIndex.basis_vector(space.shape, p) for p in (1, 3))
    flip_product(monkeypatch, x1, x3)

    def assoc(u, v, w):
        return multiply(multiply(u, v), w), multiply(u, multiply(v, w))

    law = assoc if name == "associativity" else twist_move_law
    assert_mutation_caught(oracle(name, space, law, 3, 3), run_one(space, check, 3))


# ---------------------------------------------------------------------------
# pair laws reduced to first factors in F: mutations only past F must fail
# ---------------------------------------------------------------------------


def leibniz_law(op, left, right):
    """op(uv) against op(u) right(v) + left(u) op(v) on vectors, None being
    the identity."""
    def law(u, v):
        rv, lu = (v if right is None else right(v)), (u if left is None else left(u))
        return op(multiply(u, v)), multiply(op(u), rv) + multiply(lu, op(v))

    return law


def split_at_degree_3(space, apply, u):
    """apply on the terms of u below degree 3, minus apply on the rest."""
    low = {i: c for i, c in u.terms.items() if i.degree() < 3}
    high = {i: c for i, c in u.terms.items() if i.degree() >= 3}
    return apply(SuperVector(space, low)) - apply(SuperVector(space, high))


def run_result(space, check, t_max):
    (result,) = run_checks("probe", space, [check], t_max).results
    return result


@MODES
def test_a_leibniz_law_wrong_only_from_degree_3_fails_its_reduced_check(monkeypatch, mode):
    # d1 negated on monomials of degree >= 3: the pairs with u in F see it
    # through op(uv), the check falls back, and the witness is the oracle's
    space = make_space(Family.OMEGA, 2, 1, mode)
    d1, tw, s1 = leibniz_words(space)
    real = weyl.apply_word

    def mutated(w, u):
        return split_at_degree_3(space, lambda z: real(w, z), u) if w is d1 else real(w, u)

    monkeypatch.setattr(weyl, "apply_word", mutated)
    name = "d1 twisted Leibniz (sign +1)"
    check = leibniz_check(name, space, d1, tw, s1)
    assert all(w.rule.is_character() for w in check.twists)
    law = leibniz_law(lambda z: mutated(d1, z), lambda z: real(tw, z), lambda z: real(s1, z))
    assert not all(first_factor_pairs_pass(space, law, 4))
    result = run_result(space, check, 4)
    assert_mutation_caught(oracle(name, space, law, 2, 4), result.to_json())
    assert result.route == "enumeration"


def first_factor_pairs_pass(space, law, t_max):
    """Per pair (u, v) with u the unit or a generator (F, generically) and
    deg u + deg v <= t_max, whether the law holds on it."""
    first = [u for t in (0, 1) for u in basis_of_degree(space, t)]
    monos = [v for t in range(t_max + 1) for v in basis_of_degree(space, t)]
    for u in first:
        for v in monos:
            if u.degree() + v.degree() <= t_max:
                lhs, rhs = law(SuperVector.monomial(space, u), SuperVector.monomial(space, v))
                yield lhs == rhs


@MODES
def test_a_left_twist_given_as_a_function_is_not_reduced(mode):
    # the twist changed only from degree 3 on: every pair with u of degree
    # <= 1 passes (all of F generically), so only refusing the premise (no
    # character word) catches the change
    space = make_space(Family.OMEGA, 2, 1, mode)
    d1, tw, s1 = leibniz_words(space)

    def left(u):
        return split_at_degree_3(space, lambda z: apply_word(tw, z), u)

    name = "d1 twisted Leibniz (sign +1)"
    check = leibniz_check(name, space, d1, left, s1)
    law = leibniz_law(lambda z: apply_word(d1, z), left, lambda z: apply_word(s1, z))
    expected = oracle(name, space, law, 2, 4)
    assert expected["status"] == "fail"
    assert all(first_factor_pairs_pass(space, law, 4))
    result = run_result(space, check, 4)
    assert result.to_json() == expected and result.route == "enumeration"


class FirstFactorProbe:
    """A check reading the first factors F of a space per degree."""

    name = "first factors"

    def __init__(self, space, t_max):
        self.space, self.t_max, self.seen = space, t_max, []

    def run(self, t_max):
        self.seen = [weyl._first_factors(self.space, t) for t in range(self.t_max + 1)]
        return weyl.CheckResult(self.name, True)


@pytest.mark.parametrize("mode, beyond", [
    (GENERIC, []), (root_of_unity(3), ["(0,3 | 0)", "(3,0 | 0)"]),
], ids=["generic", "d3"])
def test_first_factors_are_the_generators_and_what_they_cannot_reach(mode, beyond):
    # x_i x_i^(2) = [3] x_i^(3) vanishes at a cube root of 1, and nothing else
    # reaches x_i^(3); x_i x_i^(3) = [4] x_i^(4) does not vanish
    space = make_space(Family.OMEGA, 2, 1, mode)
    probe = FirstFactorProbe(space, 4)
    run_checks("probe", space, [probe], 4)
    assert probe.seen[:2] == [basis_of_degree(space, 0), basis_of_degree(space, 1)]
    assert [str(u) for level in probe.seen[2:] for u in level] == beyond


class LedgerProbe:
    """A check reading the space's associativity ledger at given degree sums."""

    name = "ledger"

    def __init__(self, space, degrees):
        self.space, self.degrees, self.seen = space, degrees, []

    def run(self, t_max):
        self.seen = [weyl._associative_upto(self.space, t) for t in self.degrees]
        return weyl.CheckResult(self.name, True)


@pytest.mark.parametrize("left, right", [((0, 0, 0), (1, 1, 1)), ((0, 1, 0), (1, 0, 1))],
                         ids=["unit first", "generator first"])
def test_the_ledger_fails_at_the_degree_sum_of_a_wrong_structure_constant(monkeypatch, left,
                                                                          right):
    # a law's expansion can put the unit first (d1 x1 = 1), so the ledger
    # holds the unit among its first factors
    space = OMEGA21
    flip_product(monkeypatch, *(MultiIndex(e, space.shape) for e in (left, right)))
    ledger = LedgerProbe(space, (2, 3, 2))
    run_checks("probe", space, [ledger], 3)
    assert ledger.seen == [True, False, True]


@MODES
def test_a_structure_constant_wrong_past_t_max_keeps_the_composite_laws_enumerated(
        monkeypatch, mode):
    # x2^(2) x1 x3 with its sign flipped, at degree sum t_max + 1: the ledger
    # fails there, so the composite laws of the seeds of degree 2 (whose
    # corollary needs the ledger to t_max + 1, and whose op raises the degree
    # by 1) fall back, while the base laws go by induction and the composite
    # laws of the seeds of degree <= 1 follow from them, needing only t_max
    space, t_max = make_space(Family.OMEGA, 2, 1, mode), 3
    a, b = (MultiIndex(e, space.shape) for e in ((0, 2, 0), (1, 0, 1)))
    flip_product(monkeypatch, a, b)
    checks = [c for c in build_suite("leibniz", space)
              if isinstance(c, PairCheck) and c.twists is not None]
    ledger = LedgerProbe(space, (t_max + 1, t_max))
    results = run_checks("leibniz", space, checks + [ledger], t_max).results[:-1]
    assert ledger.seen == [False, True]
    seeds = {str(u): u for t in range(3) for u in basis_of_degree(space, t)}
    failed = Counter()
    for check, result in zip(checks, results):
        # d{i} twisted Leibniz ..., or (x^{lab} d{i}) composite derivation
        lab, i = re.match(r"(?:\(x\^(.*) )?d(\d)", check.name).groups()
        u0 = SuperVector.monomial(space, seeds[lab] if lab else space.unit_index())
        d_i = word(space, partial(int(i)))
        left, right = check.twists
        law = leibniz_law(lambda z: multiply(u0, apply_word(d_i, z)),
                          lambda z: apply_word(left, z),
                          None if right is None else lambda z: apply_word(right, z))
        assert result.to_json() == oracle(check.name, space, law, 2, t_max), check.name
        raised = u0.degree() == 2
        route = "enumeration" if raised else "corollary" if lab else "induction"
        assert result.route == route, check.name
        failed[raised] += not result.passed
    assert failed[True] > 0 and failed[False] == 0


@MODES
def test_a_leibniz_op_not_zero_on_the_unit_fails_at_the_unit_pair(mode):
    # d1 plus the unit's coefficient, so op(1) = 1: the reduced route reads
    # the unit row from the pair (1, 1) alone, which fails, and falls back
    space = make_space(Family.OMEGA, 2, 1, mode)
    d1, tw, s1 = leibniz_words(space)
    unit = space.unit_index()

    def op(u):
        constant = {unit: u.terms[unit]} if unit in u.terms else {}
        return apply_word(d1, u) + SuperVector(space, constant)

    name = "d1 plus a constant"
    check = leibniz_check(name, space, op, tw, s1)
    law = leibniz_law(op, lambda z: apply_word(tw, z), lambda z: apply_word(s1, z))
    expected = oracle(name, space, law, 2, 4)
    assert expected["witness"]["pair"] == [str(unit)] * 2
    result = run_result(space, check, 4)
    assert result.to_json() == expected and result.route == "enumeration"


TWIST_MOVE = "left factor moves past via its twist"


def flip_theta(monkeypatch, a, b):
    """weyl.theta with its sign flipped at (a, b), read by the commutation
    law and the twist move alike; the oracle's law scales by it too."""
    real = weyl.theta

    def flipped(x, y, md):
        c = real(x, y, md)
        return -c if (x, y) == (a, b) else c

    monkeypatch.setattr(weyl, "theta", flipped)

    def law(u, v, w):
        (x,), (y,) = u.terms, v.terms
        return multiply(multiply(u, v), w), multiply(v, multiply(u, w)).scaled(
            flipped(x, y, u.space.mode))

    return law


def twist_move_law(u, v, w):
    """The twist move on vectors, its coefficient the word Th(a) applied."""
    (x,) = u.terms
    return multiply(multiply(u, v), w), multiply(apply_word(word(u.space, theta_op(x)), v),
                                                 multiply(u, w))


@MODES
def test_a_twist_move_coefficient_wrong_at_one_pair_fails_through_its_triples(monkeypatch, mode):
    # theta of the pair (x1 x2, x3) with its sign flipped: the commutation
    # law the move follows from fails there, and the enumerated triples
    # report the oracle's first failing triple
    space = make_space(Family.OMEGA, 2, 1, mode)
    checks = build_suite("leibniz", space)
    commutation, move = (the_check(checks, n) for n in ("monomial twisted commutation", TWIST_MOVE))
    a, b = (MultiIndex(e, space.shape) for e in ((1, 1, 0), (0, 0, 1)))
    assert a.degree() == 2
    law = flip_theta(monkeypatch, a, b)
    expected = oracle(TWIST_MOVE, space, law, 3, 4)
    base, result = run_checks("probe", space, [commutation, move], 4).results
    assert not base.passed
    assert_mutation_caught(expected, result.to_json())
    assert result.to_json() == move.enumerate(4).to_json()
    assert expected["witness"]["triple"][:2] == [str(a), str(b)]
    assert result.route == "enumeration"


@MODES
def test_a_twist_move_whose_commutation_law_fails_is_enumerated(monkeypatch, mode):
    # theta of the generators (x1, x3) with its sign flipped once the suite
    # is built: under the whole leibniz suite the commutation law fails, so
    # the twist move is no corollary and reports as its enumeration and the
    # oracle do
    space = make_space(Family.OMEGA, 2, 1, mode)
    checks = build_suite("leibniz", space)
    x1, x3 = (MultiIndex.basis_vector(space.shape, p) for p in (1, 3))
    law = flip_theta(monkeypatch, x1, x3)
    results = dict(zip([c.name for c in checks], run_checks("leibniz", space, checks, 4).results))
    assert not results["monomial twisted commutation"].passed
    assert results["associativity"].passed
    result = results[TWIST_MOVE]
    expected = oracle(TWIST_MOVE, space, law, 3, 4)
    assert_mutation_caught(expected, result.to_json())
    assert result.to_json() == the_check(checks, TWIST_MOVE).enumerate(4).to_json()
    assert result.route == "enumeration"


@MODES
def test_a_twist_move_whose_products_are_not_associative_is_enumerated(monkeypatch, mode):
    # x1 x3 and x3 x1 both with their signs flipped: the commutation law
    # still holds, but associativity fails at (x1, x3, x2), so the ledger
    # premise refuses the corollary and the twist move fails by enumeration
    space = make_space(Family.OMEGA, 2, 1, mode)
    checks = build_suite("leibniz", space)
    commutation, move = (the_check(checks, n) for n in ("monomial twisted commutation", TWIST_MOVE))
    x1, x3 = (MultiIndex.basis_vector(space.shape, p) for p in (1, 3))
    flip_product(monkeypatch, x1, x3)
    flip_product(monkeypatch, x3, x1)
    base, result = run_checks("probe", space, [commutation, move], 4).results
    assert base.passed
    expected = oracle(TWIST_MOVE, space, twist_move_law, 3, 4)
    assert_mutation_caught(expected, result.to_json())
    assert result.to_json() == move.enumerate(4).to_json()
    assert result.route == "enumeration"


@MODES
def test_a_twist_move_run_without_its_commutation_law_is_enumerated(mode):
    # alone under run_checks its commutation law has not passed in the memo
    space = make_space(Family.OMEGA, 2, 1, mode)
    move = the_check(build_suite("leibniz", space), TWIST_MOVE)
    result = run_result(space, move, 4)
    assert result.passed and result.route == "enumeration"
    assert result.to_json() == move.enumerate(4).to_json()
    assert result.to_json() == oracle(TWIST_MOVE, space, twist_move_law, 3, 4)


class Enumerated:
    """A check's full enumeration, run as a check of its own."""

    def __init__(self, check):
        self.check = check

    def run(self, t_max):
        return self.check.enumerate(t_max)


CROSS_SPACES = [make_space(family, m, n, mode)
                for family in (Family.OMEGA, Family.DUAL) for m, n in ((1, 1), (2, 1), (1, 2))
                for mode in (GENERIC, root_of_unity(3), root_of_unity(8))] + [
    make_space(Family.OMEGA_RESTRICTED, 2, 1, root_of_unity(3))]


# the routes of test_every_reduced_law_agrees_with_its_enumeration per
# (family, m, n), alike in every mode: the leibniz suite's composite laws
# follow from their base laws, 5 seeds per direction on (1|1), 6 otherwise,
# and its twist move from the commutation law
CROSS_ROUTES = {
    (Family.OMEGA, 1, 1): {"induction": 9, "corollary": 11, "enumeration": 1},
    (Family.OMEGA, 2, 1): {"induction": 14, "corollary": 19, "enumeration": 1},
    (Family.OMEGA, 1, 2): {"induction": 13, "corollary": 19, "enumeration": 1},
    (Family.DUAL, 1, 1): {"induction": 5},
    (Family.DUAL, 2, 1): {"induction": 8},
    (Family.DUAL, 1, 2): {"induction": 8},
    (Family.OMEGA_RESTRICTED, 2, 1): {"induction": 14, "corollary": 19, "enumeration": 1},
}


@pytest.mark.parametrize("space", CROSS_SPACES, ids=lambda space: "-".join(
    str(v) for v in space.describe().values()))
def test_every_reduced_law_agrees_with_its_enumeration(space, monkeypatch):
    # the module-algebra laws, and on the polynomial side the leibniz suite's
    # pair and triple laws, run as run_checks runs them and by enumerating
    # every pair or triple under a memo of their own; every corollary verdict
    # is among them
    t_max = 4
    checks = verify_module_algebra_checks(monkeypatch, space)
    if space.family is not Family.DUAL:
        checks += build_suite("leibniz", space)
    laws = [c for c in checks if isinstance(c, (PairCheck, TripleCheck))]
    results = run_checks("laws", space, laws, t_max).results
    enumerated = run_checks("laws", space, [Enumerated(c) for c in laws], t_max).results
    assert [r.route for r in enumerated] == ["enumeration"] * len(laws)
    assert [r.to_json() for r in results] == [r.to_json() for r in enumerated]
    assert Counter(r.route for r in results) == CROSS_ROUTES[
        space.family, space.shape.m, space.shape.n]
    twist_moves = [r for c, r in zip(laws, results) if c.name == TWIST_MOVE]
    assert len(twist_moves) == (space.family is not Family.DUAL)
    assert all(r.route == "corollary" for r in twist_moves if r.passed)


# ---------------------------------------------------------------------------
# composite derivation laws: corollaries of their base laws, or run
# ---------------------------------------------------------------------------


def seeds(space):
    """The leibniz suite's composite-law seeds u0."""
    return [u for t in range(3) for u in basis_of_degree(space, t)][:6]


def composite_laws(space, base, i):
    return [weyl._composite_derivation_check(f"(x^{u} d{i}) composite derivation", base, u)
            for u in seeds(space)]


def assert_run_as_enumerated(checks, results, t_max):
    assert "corollary" not in [r.route for r in results]
    assert [r.to_json() for r in results] == [c.enumerate(t_max).to_json() for c in checks]


@MODES
def test_a_composite_law_whose_left_drops_th_u0_is_no_corollary(mode):
    # x1 d1 with the base law's left L_D where Th(x1) L_D belongs: u0 L_D(u)
    # = L(u) u0 fails at u = x2, so the law runs (and fails); so does x1 d1
    # with right s1^-1, not the base law's s1.  Kept as built, the same law
    # is a corollary of the same base law and ledger
    space, t_max = make_space(Family.OMEGA, 2, 1, mode), 4
    base = the_check(build_suite("leibniz", space), "d1 twisted Leibniz (sign -1)")
    x1 = MultiIndex.basis_vector(space.shape, 1)
    kept = weyl._composite_derivation_check("(x1 d1) composite derivation", base, x1)
    x_u0 = SuperVector.monomial(space, x1)

    def composite(name, left, right):
        law = leibniz_check(name, space, lambda z: multiply(x_u0, apply_word(base.op, z)),
                            left, right)
        return dataclasses.replace(law, base=(base, x1))

    (left, right), (kept_left, _) = base.twists, kept.twists
    mutants = [composite("(x1 d1) composite derivation, left L_D", left, right),
               composite("(x1 d1) composite derivation, right s1^-1", kept_left,
                         word(space, sigma(1, -1)))]
    results = run_checks("probe", space, [base, kept, *mutants], t_max).results
    assert [r.route for r in results[:2]] == ["induction", "corollary"]
    assert not any(r.passed for r in results[2:])
    assert_run_as_enumerated(mutants, results[2:], t_max)


@MODES
def test_the_composite_laws_of_a_failing_base_law_are_no_corollaries(mode):
    # d1's law with its right twist s1 replaced by s1^-1 fails, and so does
    # every composite law built on it, each through its own pairs
    space, t_max = make_space(Family.OMEGA, 2, 1, mode), 4
    e1 = MultiIndex.basis_vector(space.shape, 1)
    base = leibniz_check("d1 twisted Leibniz, right s1^-1", space, word(space, partial(1)),
                         word(space, theta_op(-e1), sigma(1, -1)), word(space, sigma(1, -1)))
    composites = composite_laws(space, base, 1)
    results = run_checks("probe", space, [base, *composites], t_max).results
    assert not any(r.passed for r in results)
    assert_run_as_enumerated(composites, results[1:], t_max)


@MODES
def test_a_composite_law_run_without_its_base_law_is_no_corollary(mode):
    # alone under run_checks no base law has passed in the memo, so each
    # composite law goes by induction, as a Leibniz law of its own
    space, t_max = make_space(Family.OMEGA, 2, 1, mode), 4
    composites = [c for c in build_suite("leibniz", space) if c.name.endswith("derivation")]
    assert len(composites) == 18
    results = [run_result(space, c, t_max) for c in composites]
    assert {r.route for r in results} == {"induction"}
    assert_run_as_enumerated(composites, results, t_max)


def test_default_pair_check_hands_the_law_each_pair_in_order():
    seen = []
    one = OMEGA11.mode.one()

    def fn(a, b, images):
        seen.append((a, b))
        assert images == {}
        return {a: one}, {a: one}

    assert PairCheck("identity", OMEGA11, fn).run(1).passed
    (unit,), gens = (basis_of_degree(OMEGA11, t) for t in (0, 1))
    assert seen == [(unit, unit)] + [(unit, g) for g in gens] + [(g, unit) for g in gens]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")


BENCHMARK_JOBS = {"sweep": WORKLOADS.SWEEP_JOBS, "certify": WORKLOADS.CERTIFY_JOBS}


@pytest.mark.parametrize("workload, job", [pytest.param(workload, name, id=name)
                                           for workload, jobs in BENCHMARK_JOBS.items()
                                           for name, _ in jobs])
def test_pair_and_triple_reports_match_the_benchmark_references(workload, job):
    # every report of the sweep, relation suites included, and of the certify
    # runs (simple and hopf), byte for byte
    argv = dict(BENCHMARK_JOBS[workload])[job].split()
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    reference = references[workload][job]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == reference["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == reference["sha256"]


def test_query_reports_match_the_benchmark_references():
    # every act and dims report of the benchmark's query pool, by its exit
    # code and the digest prefix the references keep; atom validation takes
    # these words through monomial_product
    reference = json.loads((ROOT / "perfbench" / "references.json").read_text())["queries"]
    pool = WORKLOADS.query_pool()
    assert len(pool) == len(reference["sha256"]) == 4000
    for argv, prefix in zip(pool, reference["sha256"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == reference["exit"], argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest().startswith(prefix), argv


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
