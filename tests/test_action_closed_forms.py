"""Closed-form oracle for the generator actions on the Grassmann side.

The raising/lowering actions have explicit per-monomial formulas (bracket
coefficients and index shifts).  This module recodes those formulas directly,
independently of the atomic-operator composition, and sweeps both against each
other on whole graded components.  The rank-degenerate edges (no exterior
part, no divided-power part) recover the one-sided specializations.
"""

import pytest

from qgrass.indices import MultiIndex
from qgrass.qarith import q_int, root_of_unity
from qgrass.superspaces import Family, SuperVector, basis_of_degree, make_space, top_degree
from qgrass.uqrep import Gen, component_report, generator_word, verify_uq_relations
from qgrass.weyl import apply_word

D3 = root_of_unity(3)


def shifted(idx, pos, delta):
    """idx with its entry at 1-based position pos changed by delta."""
    entries = list(idx.entries)
    entries[pos - 1] += delta
    return MultiIndex(tuple(entries), idx.shape)


def closed_form_E(space, j, idx):
    """Image of the j-th raising operator, straight from the displayed rules."""
    m = space.shape.m
    mode = space.mode
    e = idx.entries
    if j < m:  # divided-power block move
        coeff = q_int(e[j - 1] + 1, mode)
        target = shifted(shifted(idx, j, +1), j + 1, -1)
    elif j == m:  # boundary: eats the first exterior letter
        if e[m] != 1:
            return None
        coeff = q_int(e[m - 1] + 1, mode)
        target = shifted(shifted(idx, m, +1), m + 1, -1)
    else:  # exterior block move
        if not (e[j - 1] == 0 and e[j] == 1):
            return None
        coeff = mode.one()
        target = shifted(shifted(idx, j, +1), j + 1, -1)
    if not target.is_valid_basis_key():
        return None
    if coeff.is_zero():
        return None
    return coeff, target


def closed_form_F(space, j, idx):
    m = space.shape.m
    mode = space.mode
    e = idx.entries
    if j < m:
        coeff = q_int(e[j] + 1, mode)
        target = shifted(shifted(idx, j, -1), j + 1, +1)
    elif j == m:
        if e[m] != 0:
            return None
        coeff = mode.one()
        target = shifted(shifted(idx, m, -1), m + 1, +1)
    else:
        if not (e[j - 1] == 1 and e[j] == 0):
            return None
        coeff = mode.one()
        target = shifted(shifted(idx, j, -1), j + 1, +1)
    if not target.is_valid_basis_key():
        return None
    if coeff.is_zero():
        return None
    return coeff, target


@pytest.mark.parametrize(
    "space",
    [
        make_space(Family.OMEGA, 2, 2),
        make_space(Family.OMEGA, 3, 1),
        make_space(Family.OMEGA, 2, 2, D3),
        make_space(Family.OMEGA_RESTRICTED, 2, 2, D3),
    ],
    ids=["2|2", "3|1", "2|2 root", "2|2 restricted"],
)
def test_words_match_closed_forms(space):
    size = space.shape.size
    t_hi = 4 if space.shape.restricted_ell is None else top_degree(space)
    for t in range(t_hi + 1):
        for idx in basis_of_degree(space, t):
            u = SuperVector.monomial(space, idx)
            for j in range(1, size):
                for kind, oracle in ((Gen.E, closed_form_E), (Gen.F, closed_form_F)):
                    got = apply_word(generator_word(kind, j, space), u)
                    want = oracle(space, j, idx)
                    if want is None:
                        assert got.is_zero(), (kind, j, idx)
                    else:
                        coeff, target = want
                        assert got == SuperVector.monomial(space, target, coeff), (kind, j, idx)


def test_pure_divided_power_rank_recovers_one_sided_theory():
    # no exterior part: the action is the classical divided-power picture
    space = make_space(Family.OMEGA, 2, 0)
    assert verify_uq_relations(space, 5).passed
    for t in range(4):
        rep = component_report(space, t)
        assert rep.hw_matches_expected and rep.simple == "simple"
    restricted = make_space(Family.OMEGA_RESTRICTED, 2, 0, D3)
    assert verify_uq_relations(restricted, 5).passed
    for t in range(top_degree(restricted) + 1):
        rep = component_report(restricted, t)
        assert rep.hw_matches_expected and rep.simple == "simple"


def test_pure_exterior_rank_components_are_simple():
    space = make_space(Family.OMEGA, 0, 3)
    assert verify_uq_relations(space, 3).passed
    for t in range(0, 4):
        rep = component_report(space, t)
        assert rep.dim == rep.dim_by_formula
        assert rep.simple == "simple"
        assert len(rep.hw_basis) == 1
        # no expected-label coverage at rank (0|n); the kernel is still exact
        assert rep.expected_hw is None


def test_restricted_top_band_label_overlap():
    # at the top of the divided-power band the two label branches coincide
    space = make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)
    ell = 3
    cap = space.shape.m * (ell - 1)
    rep = component_report(space, cap)
    branch_two_monomial = MultiIndex((ell - 1,) * space.shape.m + (0,) * space.shape.n, space.shape)
    assert rep.expected_hw["monomial"] == str(branch_two_monomial)
    assert tuple(rep.expected_hw["weight"]) == branch_two_monomial.entries
    assert rep.hw_matches_expected
