"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact symbolic equalities (tolerance identically zero).
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import itertools
import time
from fractions import Fraction

from qgrass.hopf import build, divided_power_coproduct_check, pbw_dim, verify_hopf
from qgrass.indices import MultiIndex
from qgrass.qarith import (
    GENERIC,
    LaurentPoly,
    char_of,
    q_binom,
    q_binom_at_char,
    q_binom_split,
    root_of_unity,
)
from qgrass.superspaces import (
    Family,
    SuperVector,
    basis_of_degree,
    make_space,
    multiply,
    top_degree,
)
from qgrass.uqrep import (
    RowSpace, component_report, dim_formula, verify_module_algebra, verify_uq_relations)
from qgrass.weyl import OperatorWord, operators_equal, partial, verify_relation_suite

D3 = root_of_unity(3)
D8 = root_of_unity(8)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _finish(num: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"[acceptance] criterion {num} ({label}): PASS ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _report_ok(report):
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:3]


def test_criterion_1_q_combinatorics():
    t0 = time.monotonic()
    expected = LaurentPoly(
        {4: Fraction(1), 2: Fraction(1), 0: Fraction(2), -2: Fraction(1), -4: Fraction(1)}
    )
    assert q_binom(4, 2) == GENERIC.from_laurent(expected)
    for d in (3, 5, 6, 8):
        mode = root_of_unity(d)
        ell = char_of(mode).ell
        for s in range(0, 3 * ell + 1):
            for r in range(0, s + 1):
                lhs = q_binom(s, r, mode)
                if s >= 1:
                    pascal = mode.q_power(r - s) * q_binom(s - 1, r - 1, mode) + mode.q_power(
                        r
                    ) * q_binom(s - 1, r, mode)
                    assert lhs == pascal, (d, s, r)
                assert lhs == q_binom_split(s, r, mode), (d, s, r)
            assert q_binom(s, ell, mode) == q_binom_at_char(s, mode), (d, s)
    _finish(1, "q-combinatorics", t0, 5)


def test_criterion_2_weyl_relation_systems():
    t0 = time.monotonic()
    for m, n in SIZES:
        space = make_space(Family.OMEGA, m, n)
        _report_ok(verify_relation_suite("partials", space, 6))
        _report_ok(verify_relation_suite("weyl-generic", space, 6))
    for m, n in ((2, 1), (1, 2)):
        _report_ok(verify_relation_suite("leibniz", make_space(Family.OMEGA, m, n), 5))
    _report_ok(verify_relation_suite("weyl-odd-root", make_space(Family.OMEGA, 2, 1, D3), 6))
    _report_ok(verify_relation_suite("weyl-even-root", make_space(Family.OMEGA, 2, 1, D8), 6))
    _finish(2, "quantum Weyl relation systems", t0, 120)


def test_criterion_3_uq_relations():
    t0 = time.monotonic()
    for m, n in SIZES:
        _report_ok(verify_uq_relations(make_space(Family.OMEGA, m, n), 6))
        _report_ok(verify_uq_relations(make_space(Family.DUAL, m, n), 6))
    for m, n in ((1, 1), (2, 1)):
        for family in (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED):
            report = verify_uq_relations(make_space(family, m, n, D3), 6)
            _report_ok(report)
            names = [r.name for r in report.results]
            if m + n > 2:  # a simple root besides the odd one exists
                assert any("^ell = 0 (restricted)" in x for x in names)
            assert any("^2 = 0" in x for x in names)
            assert any("K" in x and "(2 ell)" in x for x in names)
    _finish(3, "quantum supergroup relations (R1)-(R7) + restricted extras", t0, 180)


def test_criterion_4_module_algebra():
    t0 = time.monotonic()
    for m, n in ((2, 1), (1, 2)):
        _report_ok(verify_module_algebra(make_space(Family.OMEGA, m, n), 5))
        _report_ok(verify_module_algebra(make_space(Family.DUAL, m, n), 5))
    _report_ok(verify_module_algebra(make_space(Family.OMEGA_RESTRICTED, 2, 1, D3), 5))
    _report_ok(verify_module_algebra(make_space(Family.DUAL_RESTRICTED, 2, 1, D3), 5))
    _finish(4, "module-algebra law on both sides", t0, 180)


def test_criterion_5_dimension_formulas():
    t0 = time.monotonic()
    for m in range(0, 4):
        for n in range(0, 4):
            if m + n == 0:
                continue
            for fam in (Family.OMEGA, Family.DUAL):
                space = make_space(fam, m, n)
                for t in range(0, 9):
                    assert dim_formula(space, t) == len(basis_of_degree(space, t))
            for d in (3, 5):
                mode = root_of_unity(d)
                for fam in (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED):
                    space = make_space(fam, m, n, mode)
                    for t in range(0, top_degree(space) + 1):
                        assert dim_formula(space, t) == len(basis_of_degree(space, t))
    assert dim_formula(make_space(Family.OMEGA, 2, 1), 2) == 5
    assert dim_formula(make_space(Family.OMEGA_RESTRICTED, 1, 1, D3), 2) == 2
    assert dim_formula(make_space(Family.DUAL, 2, 1), 1) == 3
    _finish(5, "dimension formulas vs enumeration", t0, 30)


def test_criterion_6_highest_weights_and_simplicity():
    t0 = time.monotonic()
    omega = make_space(Family.OMEGA, 2, 1)
    for t in range(0, 5):
        rep = component_report(omega, t)
        assert rep.hw_matches_expected and rep.simple == "simple", rep.to_json()
        assert rep.expected_hw["label"] == f"{t}*w1"
    restricted = make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)
    for t in range(0, top_degree(restricted) + 1):
        rep = component_report(restricted, t)
        assert rep.hw_matches_expected and rep.simple == "simple", rep.to_json()
    assert component_report(restricted, 5).expected_hw["monomial"] == "(2,2 | 1)"
    dual = make_space(Family.DUAL, 2, 1)
    for t in range(0, 4):
        rep = component_report(dual, t)
        assert rep.hw_matches_expected and rep.simple == "simple", rep.to_json()
    assert component_report(dual, 2).expected_hw["label"] == "w2"
    _finish(6, "highest weights and simplicity at desk scale", t0, 300)


def test_criterion_7_hopf_certification():
    t0 = time.monotonic()
    taft = build("taft-mn", m=1, n=0, mode=D3)
    assert pbw_dim(taft) == 9
    report = verify_hopf(taft, depth="exhaustive")
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]

    assert pbw_dim(build("taft-mn", m=1, n=1, mode=D3)) == 36
    assert pbw_dim(build("taft-orders", orders=(2, 3), mode=root_of_unity(6))) == 36

    dq = build("dq", m=1, n=1, mode=GENERIC)
    dq_report = verify_hopf(dq, depth="generators")
    assert dq_report.passed, [c.to_json() for c in dq_report.checks if not c.passed]
    assert any(
        c.name == "Delta respects: d2^2 = 0" and c.passed for c in dq_report.checks
    )
    aq = build("aq", m=1, n=1, mode=GENERIC)
    aq_report = verify_hopf(aq, depth="generators")
    assert aq_report.passed, [c.to_json() for c in aq_report.checks if not c.passed]

    # threshold primitivity at char(q) = 3: the cube of the derivative
    # coproduct collapses, and so does the cube of the coordinate coproduct
    # in the divided-power bosonization
    dq3 = build("dq-restricted", m=1, n=1, mode=D3, partial_caps=False)
    dp = divided_power_coproduct_check(dq3, 0, 3)
    thr = [c for c in dp.checks if "threshold" in c.name]
    assert thr and all(c.passed for c in thr), [c.to_json() for c in thr]

    gq3 = build("gq", m=1, n=1, mode=D3, nilpotency_caps=False)
    dp2 = divided_power_coproduct_check(gq3, 0, 3)
    assert dp2.passed, [c.to_json() for c in dp2.checks if not c.passed]
    assert any("threshold p = 3" in c.name and c.passed for c in dp2.checks)

    # capped variant: the binomial expansion degenerates correctly at p = ell
    gq_capped = build("gq", m=1, n=1, mode=D3)
    dp3 = divided_power_coproduct_check(gq_capped, 0, 3)
    assert dp3.passed, [c.to_json() for c in dp3.checks if not c.passed]
    _finish(7, "pointed Hopf certification", t0, 120)


def test_criterion_8_affine_vs_derivative_relations():
    t0 = time.monotonic()
    affine = make_space(Family.AFFINE, 2, 2)
    omega = make_space(Family.OMEGA, 2, 2)
    size = 4

    def gen(space, p):
        return SuperVector.monomial(space, MultiIndex.basis_vector(space.shape, p))

    # quadratic relation scalars of the affine superspace transfer verbatim
    # to the derivative operators
    for i, j in itertools.permutations(range(1, size + 1), 2):
        vi, vj = gen(affine, i), gen(affine, j)
        prod_ji = multiply(vj, vi)
        prod_ij = multiply(vi, vj)
        (idx,) = prod_ij.terms
        c = prod_ji.terms[idx] * prod_ij.terms[idx].inverse()
        lhs = OperatorWord(omega, (partial(j), partial(i)))
        rhs = OperatorWord(omega, (partial(i), partial(j)), c)
        assert operators_equal(lhs, rhs, 4).equal, (i, j)
    for j in affine.shape.fermionic_positions():
        assert multiply(gen(affine, j), gen(affine, j)).is_zero()
        zero = operators_equal(OperatorWord(omega, (partial(j), partial(j))), (), 4)
        assert zero.equal

    # graded dimensions: products of the affine coordinates span each component
    gens = [gen(affine, p) for p in range(1, size + 1)]
    for t in range(0, 5):
        span = RowSpace()
        for w in itertools.product(range(size), repeat=t):
            vec = SuperVector.unit(affine)
            for g in w:
                vec = multiply(vec, gens[g])
            span.add(vec.terms)
        expected = len(basis_of_degree(affine, t))
        assert span.rank == expected == dim_formula(affine, t)
    _finish(8, "affine superspace vs derivative algebra", t0, 10)
