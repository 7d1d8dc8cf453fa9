"""The Hopf presentations of `hopf` against the operators and products of
`weyl` and `superspaces`.

D_q is stated twice: `hopf.build("dq", ...)` gives it as a braiding datum,
and the Weyl-type operators on Omega_q realise it.  Here each group letter and
skew generator of the datum is sent to a `weyl` atom (`realise`), every
defining relation is decided on Omega_q (on Omega_q(m|n, 1) for the
restricted cover) with `operators_equal`, and each coproduct
Delta(d_i) = d_i (x) gR + gL (x) d_i is checked as a twisted Leibniz law.

The Nichols parts R of the bosonizations R # kG are the paper's algebras:
on group-identity keys `aq` multiplies as the affine superspace A_q^{m|n}
and `gq` as Omega_q once its powers are divided by balanced q-factorials.  At
q of order d = 3, 5 and 7, `gq-restricted` and `taft-mn` multiply as the
restricted Omega_q(m|n, 1) so divided, and `aq` still as A_q^{m|n}.
"""

import dataclasses
import itertools
import re

import pytest

from qgrass import hopf
from qgrass.indices import MultiIndex
from qgrass.qarith import GENERIC, q_factorial, root_of_unity
from qgrass.superspaces import Family, basis_of_degree, make_space, monomial_product
from qgrass.weyl import (
    OperatorWord,
    leibniz_check,
    operators_equal,
    partial,
    run_checks,
    sigma,
    tau,
    theta_op,
)

SHAPES = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
T_MAX = 5
# the relations hopf derives from each datum, per shape
DQ_RELATIONS = {(1, 0): 2, (0, 1): 5, (1, 1): 14, (2, 1): 28, (1, 2): 33, (2, 2): 53}
RESTRICTED_RELATIONS = {(1, 0): 5, (0, 1): 7, (1, 1): 19, (2, 1): 36, (1, 2): 40, (2, 2): 63}

CASES = ([("dq", Family.OMEGA, shape, d, DQ_RELATIONS[shape])
          for shape in SHAPES for d in (None, 5, 8)]
         + [("dq-restricted", Family.OMEGA_RESTRICTED, shape, d, RESTRICTED_RELATIONS[shape])
            for shape in SHAPES for d in (3, 5, 8)])


def case_id(case):
    family, _, (m, n), d, _ = case
    return f"{family}-{m}|{n}-" + ("generic" if d is None else f"d{d}")


def realise_group(pres, space, gvec):
    """The atoms of the group element prod g_col^gvec[col]: s_i^+-1 as
    sigma(i, +-1), t_j as tau(j) (an involution) and Th_i^e as Th(e e_i),
    the Th letters folded into one label."""
    atoms, label = [], [0] * space.shape.size
    for name, e in zip(pres.group_names, gvec):
        letter, i = re.fullmatch(r"(s|t|Th)(\d+)", name).groups()
        i = int(i)
        if letter == "Th":
            label[i - 1] += e
        elif letter == "s":
            atoms += [sigma(i, 1 if e > 0 else -1)] * abs(e)
        else:
            atoms += [tau(i)] * (e % 2)
    if any(label):
        atoms.append(theta_op(MultiIndex(tuple(label), space.shape)))
    return tuple(atoms)


def realise(pres, space, word, coeff=None):
    """A word of the presentation, ("x", i) being d_(i+1) and ("g", col) a
    group generator, as the operator word coeff * (its letters in order)."""
    atoms = []
    for kind, i in word:
        if kind == "x":
            atoms.append(partial(i + 1))
        else:
            atoms += realise_group(pres, space, [int(col == i) for col in range(pres.group.rank)])
    return OperatorWord(space, tuple(atoms), coeff)


def realisation_failures(pres, space):
    """The names of the relations and coproduct laws of pres that fail on space."""
    failed = []
    for name, ((c0, w0), *rest) in pres.relations:  # sum of c w = 0
        lhs = (realise(pres, space, w0, c0),)
        rhs = tuple(realise(pres, space, w, -c) for c, w in rest)
        if not operators_equal(lhs, rhs, T_MAX).equal:
            failed.append(name)
    laws = [leibniz_check(f"Delta({xg.name})", space, realise(pres, space, (("x", i),)),
                          OperatorWord(space, realise_group(pres, space, xg.gL)),
                          OperatorWord(space, realise_group(pres, space, xg.gR)))
            for i, xg in enumerate(pres.xgens)]
    report = run_checks("realisation", space, laws, T_MAX)
    return failed + [r.name for r in report.results if not r.passed]


def presentation_and_space(family, space_family, shape, d, variant):
    mode = GENERIC if d is None else root_of_unity(d)
    m, n = shape
    pres = hopf.build(family, mode=mode, m=m, n=n, coproduct_variant=variant)
    return pres, make_space(space_family, m, n, mode)


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_dq_relations_and_coproducts_hold_on_omega(case):
    family, space_family, shape, d, count = case
    for variant in ("plus", "minus"):
        pres, space = presentation_and_space(family, space_family, shape, d, variant)
        assert len(pres.relations) == count
        assert realisation_failures(pres, space) == [], variant


@pytest.mark.parametrize("case", CASES[::3], ids=[case_id(c) for c in CASES[::3]])
def test_a_flipped_conjugation_sign_fails_exactly_its_relation(monkeypatch, case):
    # chi_{s1}(d1) times -1: only the relation s1 d1 = chi d1 s1 reads it
    real = hopf._from_datum

    def flipped(family, mode, names, rows, xgens, chi, *args, **kwargs):
        chi = [list(row) for row in chi]
        lam, mu = chi[0][0]
        chi[0][0] = (lam + 1, mu)
        return real(family, mode, names, rows, xgens, chi, *args, **kwargs)

    monkeypatch.setattr(hopf, "_from_datum", flipped)
    family, space_family, shape, d, _ = case
    for variant in ("plus", "minus"):
        pres, space = presentation_and_space(family, space_family, shape, d, variant)
        assert realisation_failures(pres, space) == ["s1 d1 conjugation"], variant


@pytest.mark.parametrize("case", [c for c in CASES[::3] if c[2][0] > 0],
                         ids=[case_id(c) for c in CASES[::3] if c[2][0] > 0])
def test_a_dropped_coproduct_leg_fails_its_leibniz_law(case):
    # a bosonic d1 has a nontrivial gR; Delta(d1) = d1 (x) 1 + gL (x) d1 is wrong
    family, space_family, shape, d, _ = case
    for variant in ("plus", "minus"):
        pres, space = presentation_and_space(family, space_family, shape, d, variant)
        xgens = list(pres.xgens)
        xgens[0] = dataclasses.replace(xgens[0], gR=pres.group.identity())
        pres.xgens = xgens
        assert realisation_failures(pres, space) == ["Delta(d1)"], variant


# ---------------------------------------------------------------------------
# Nichols parts
# ---------------------------------------------------------------------------

NICHOLS_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def nichols_pairs(family, space_family, top, mode=GENERIC):
    """Per pair of monomials (a, b) with deg a + deg b <= top, over every
    shape of NICHOLS_SHAPES: the product x^a x^b of the presentation's R on
    group-identity keys, as (coefficient, entries) or None, beside
    monomial_product on the space, both over mode."""
    for m, n in NICHOLS_SHAPES:
        pres = hopf.build(family, mode=mode, m=m, n=n)
        space = make_space(space_family, m, n, mode)
        e, one = pres.group.identity(), space.mode.one()
        monomials = [u for t in range(top + 1) for u in basis_of_degree(space, t)]
        for a, b in itertools.product(monomials, repeat=2):
            if a.degree() + b.degree() <= top:
                product = pres.mul({(a.entries, e): one}, {(b.entries, e): one})
                assert len(product) <= 1
                hit = None
                for (x, g), c in product.items():
                    assert g == e
                    hit = c, x
                yield space, a, b, hit, monomial_product(space, a, b)


def tally(rows, rescale):
    counts = {"agree": 0, "vanish": 0, "differ": 0}
    for space, a, b, hit, expected in rows:
        if hit is None and expected is None:
            counts["vanish"] += 1
        elif hit is None or expected is None or hit[1] != expected[1].entries:
            counts["differ"] += 1
        else:
            counts["agree" if rescale(space, a, b, expected[1], hit[0]) == expected[0]
                   else "differ"] += 1
    return counts


def divided(space, a):
    """[a]! over the bosonic coordinates: x^a = [a]! x^(a) on Omega_q."""
    out = space.mode.one()
    for fermionic, e in zip(space.shape.fermionic_mask, a.entries):
        if not fermionic:
            out = out * q_factorial(e, space.mode)
    return out


def test_aq_nichols_part_is_the_affine_superspace():
    rows = nichols_pairs("aq", Family.AFFINE, 4)
    assert tally(rows, lambda space, a, b, w, c: c) == {"agree": 524, "vanish": 97, "differ": 0}


def balanced(space, a, b, w, c):
    # x^(a) x^(b) = c [a+b]! / ([a]! [b]!) x^(a+b) when x^a x^b = c x^(a+b)
    return c * divided(space, w) * (divided(space, a) * divided(space, b)).inverse()


def test_gq_nichols_part_is_omega_in_divided_powers():
    counts = tally(nichols_pairs("gq", Family.OMEGA, 5), balanced)
    assert counts == {"agree": 984, "vanish": 227, "differ": 0}


@pytest.mark.parametrize("d, agree, vanish", [(3, 468, 401), (5, 948, 251), (7, 984, 227)])
@pytest.mark.parametrize("family", ["gq-restricted", "taft-mn"])
def test_root_nichols_part_is_restricted_omega_in_divided_powers(family, d, agree, vanish):
    # below the cap ell = d the counts are the generic ones; at d = 3 the
    # cap at 2 both shrinks the basis and makes more products vanish
    counts = tally(nichols_pairs(family, Family.OMEGA_RESTRICTED, 5, root_of_unity(d)), balanced)
    assert counts == {"agree": agree, "vanish": vanish, "differ": 0}


@pytest.mark.parametrize("d", [3, 5, 7])
def test_root_aq_nichols_part_is_the_affine_superspace(d):
    rows = nichols_pairs("aq", Family.AFFINE, 4, root_of_unity(d))
    assert tally(rows, lambda space, a, b, w, c: c) == {"agree": 524, "vanish": 97, "differ": 0}
