import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_proper_reach

from qgrass.indices import MultiIndex
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import Family, SuperVector, basis_of_degree, make_space, top_degree
from qgrass.uqrep import (
    Gen,
    RowSpace,
    _generator_images,
    _highest_weight_space,
    _first_proper_span,
    component_report,
    dim_formula,
    expected_highest_weight,
    generator_word,
    verify_module_algebra,
    verify_uq_relations,
    weight_of,
)
from qgrass.weyl import apply_word

D3 = root_of_unity(3)

OMEGA11 = make_space(Family.OMEGA, 1, 1)
OMEGA21 = make_space(Family.OMEGA, 2, 1)
DUAL21 = make_space(Family.DUAL, 2, 1)
OMEGA21_R3 = make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)


def mono(space, *entries):
    return SuperVector.monomial(space, MultiIndex(tuple(entries), space.shape))


# ---------------------------------------------------------------------------
# generator actions, frozen closed forms
# ---------------------------------------------------------------------------


def test_raising_at_odd_root_omega11():
    e1 = generator_word(Gen.E, 1, OMEGA11)
    assert apply_word(e1, mono(OMEGA11, 2, 1)) == mono(OMEGA11, 3, 0).scaled(q_int(3))
    assert apply_word(e1, mono(OMEGA11, 2, 0)).is_zero()


def test_lowering_at_odd_root_kills_occupied():
    f2 = generator_word(Gen.F, 2, OMEGA21)
    assert apply_word(f2, mono(OMEGA21, 1, 1, 1)).is_zero()
    assert apply_word(f2, mono(OMEGA21, 1, 1, 0)) == mono(OMEGA21, 1, 0, 1)


def test_bosonic_raising_closed_form():
    e1 = generator_word(Gen.E, 1, OMEGA21)
    assert apply_word(e1, mono(OMEGA21, 1, 2, 1)) == mono(OMEGA21, 2, 1, 1).scaled(q_int(2))


def test_anticommutator_eigenvalue_at_odd_root():
    em = generator_word(Gen.E, 2, OMEGA21)
    fm = generator_word(Gen.F, 2, OMEGA21)
    for beta_m in range(3):
        for mu in (0, 1):
            u = mono(OMEGA21, 0, beta_m, mu)
            got = apply_word(em, apply_word(fm, u)) + apply_word(fm, apply_word(em, u))
            assert got == u.scaled(q_int(beta_m + mu))


def test_dual_raising_closed_form():
    em = generator_word(Gen.E, 2, DUAL21)
    assert apply_word(em, mono(DUAL21, 1, 0, 2)) == mono(DUAL21, 1, 1, 1)
    assert apply_word(em, mono(DUAL21, 1, 1, 2)).is_zero()


def test_generator_index_validation():
    with pytest.raises(ValueError):
        generator_word(Gen.E, 3, OMEGA21)
    with pytest.raises(ValueError):
        generator_word(Gen.K, 4, OMEGA21)


# ---------------------------------------------------------------------------
# relations and module-algebra law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [OMEGA11, DUAL21], ids=["omega11", "dual21"])
def test_uq_relations_generic_small(space):
    report = verify_uq_relations(space, 4)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:3]


def test_uq_relations_sl_variant():
    report = verify_uq_relations(OMEGA11, 4, variant="sl")
    assert report.passed
    assert not any(r.name.startswith("K") for r in report.results)


def test_uq_relations_vacuous_when_no_simple_roots():
    space = make_space(Family.OMEGA, 0, 1)
    report = verify_uq_relations(space, 3)
    assert report.passed


def test_uq_relations_restricted_extras():
    space = make_space(Family.OMEGA_RESTRICTED, 1, 1, D3)
    report = verify_uq_relations(space, 4)
    names = [r.name for r in report.results]
    assert any("(restricted)" in n for n in names)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:3]
    # at an odd root the toral squares already close at the half order
    info = [r for r in report.results if "informative" in r.name]
    assert info and all(r.passed for r in info)


@pytest.mark.parametrize("family", [Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED])
@pytest.mark.parametrize("d", [3, 6, 8])
def test_k_to_the_ell_is_checked_only_at_odd_roots(family, d):
    # K_i^ell = 1 needs q^ell = 1, which fails at an even root (q^ell = -1);
    # K_i^(2 ell) = 1 holds at every root
    report = verify_uq_relations(make_space(family, 1, 1, root_of_unity(d)), 4)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:3]
    names = [r.name for r in report.results]
    assert [n for n in names if "informative" in n] == (
        ["K1^ell = 1 (informative)", "K2^ell = 1 (informative)"] if d % 2 else [])
    assert [n for n in names if n.endswith("^(2 ell) = 1 (restricted)")] == [
        "K1^(2 ell) = 1 (restricted)", "K2^(2 ell) = 1 (restricted)"]


@pytest.mark.parametrize(
    "space",
    [OMEGA11, make_space(Family.DUAL, 1, 1), make_space(Family.DUAL_RESTRICTED, 1, 1, D3)],
    ids=["omega", "dual", "dual-restricted"],
)
def test_module_algebra_small(space):
    report = verify_module_algebra(space, 3)
    assert report.passed, [r.to_json() for r in report.results if not r.passed][:3]


# ---------------------------------------------------------------------------
# dimension formulas vs enumeration
# ---------------------------------------------------------------------------


def test_dim_formula_spot_values():
    assert dim_formula(OMEGA21, 2) == 5
    assert dim_formula(make_space(Family.OMEGA_RESTRICTED, 1, 1, D3), 2) == 2
    assert dim_formula(DUAL21, 1) == 3


UNRESTRICTED = (Family.OMEGA, Family.DUAL, Family.AFFINE)
RESTRICTED = (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED)


def shape_grid(family, ds=(None,)):
    """(id, space) for the family over every (m|n) with 0 <= m, n <= 3 and
    m + n >= 1, at each root order d in ds (None: generic)."""
    return [(f"{family.value}({m}|{n})" + (f"-d{d}" if d else ""),
             make_space(family, m, n, GENERIC if d is None else root_of_unity(d)))
            for d in ds for m in range(4) for n in range(4) if m + n]


@pytest.mark.parametrize(
    "space, t_hi",
    [
        (OMEGA21, 6),
        (make_space(Family.OMEGA, 3, 2), 5),
        (make_space(Family.DUAL, 2, 2), 6),
        (OMEGA21_R3, 5),
        (make_space(Family.DUAL_RESTRICTED, 2, 2, D3), 6),
        (make_space(Family.AFFINE, 2, 1), 5),
    ] + [
        # even d gives ell = d / 2
        pytest.param(space, 8 if top_degree(space) is None else top_degree(space), id=name)
        for family, ds in [(f, (None,)) for f in UNRESTRICTED]
        + [(f, (3, 5, 6, 8, 12)) for f in RESTRICTED]
        for name, space in shape_grid(family, ds)
    ],
    ids=lambda x: str(x),
)
def test_dim_formula_matches_enumeration(space, t_hi):
    for t in range(t_hi + 1):
        assert dim_formula(space, t) == len(basis_of_degree(space, t))
    top = top_degree(space)
    if top is not None:
        assert basis_of_degree(space, top) and not basis_of_degree(space, top + 1)


def test_dim_formula_range_errors():
    with pytest.raises(ValueError):
        dim_formula(OMEGA21, -1)
    with pytest.raises(ValueError):
        dim_formula(OMEGA21_R3, 6)


# ---------------------------------------------------------------------------
# exact rank, the test oracle for spans
# ---------------------------------------------------------------------------


def exact_rank(vectors):
    """Rank and the reduced echelon basis, in monomial order, of the span of
    homogeneous vectors of one degree."""
    if not vectors:
        return 0, []
    space = vectors[0].space
    if any(v.space != space for v in vectors):
        raise ValueError("vectors live in different spaces")
    vectors = [v for v in vectors if not v.is_zero()]
    degrees = {v.degree() for v in vectors}
    if None in degrees or len(degrees) > 1:
        raise ValueError("vectors must be homogeneous of one degree")
    rs = RowSpace()
    for v in vectors:
        rs.add(v.terms)
    return rs.rank, [SuperVector(space, rs.rows[k][0]) for k in sorted(rs.rows)]


def test_exact_rank_basics():
    u = mono(OMEGA21, 1, 0, 1)
    v = mono(OMEGA21, 0, 1, 1)
    assert exact_rank([u])[0] == 1
    assert exact_rank([u, u.scaled(q_int(2))])[0] == 1
    rank, basis = exact_rank([u + v, v])
    assert rank == 2
    assert basis[0] == v and basis[1] == u  # reduced echelon in monomial order


def test_exact_rank_rejects_mixed_degree():
    with pytest.raises(ValueError):
        exact_rank([mono(OMEGA21, 1, 0, 0) + mono(OMEGA21, 1, 1, 0)])


def test_exact_rank_full_component():
    vecs = [SuperVector.monomial(OMEGA21, i) for i in basis_of_degree(OMEGA21, 3)]
    assert exact_rank(vecs)[0] == dim_formula(OMEGA21, 3)


# ---------------------------------------------------------------------------
# weights, highest-weight vectors, simplicity
# ---------------------------------------------------------------------------


def test_weight_of_negates_second_block():
    idx = MultiIndex((2, 0, 1), OMEGA21.shape)
    assert weight_of(OMEGA21, idx) == ((2, 0, -1), 1)
    idxd = MultiIndex((1, 0, 2), DUAL21.shape)
    assert weight_of(DUAL21, idxd) == ((1, 0, -2), 0)


def test_weight_separation_within_components():
    for space in (OMEGA21, OMEGA21_R3, DUAL21):
        for t in range(5):
            if dim_formula(space, t) == 0:
                continue
            seen = set()
            for idx in basis_of_degree(space, t):
                w = weight_of(space, idx)
                assert w not in seen
                seen.add(w)


def test_expected_hw_generic_and_restricted():
    idx, weight, label = expected_highest_weight(OMEGA21, 3)
    assert idx.entries == (3, 0, 0) and label == "3*w1"
    idx, weight, label = expected_highest_weight(OMEGA21_R3, 5)
    assert idx.entries == (2, 2, 1)
    assert label == "(1)*w2 + w3"
    idx, weight, label = expected_highest_weight(DUAL21, 3)
    assert idx.entries == (1, 1, 1)


@pytest.mark.parametrize("t", [1, 2], ids=["t<=m", "t>m"])
def test_expected_highest_weight_refuses_the_affine_family(t):
    # as component_report does; t = 2 once reached the restricted fill with no cap
    with pytest.raises(ValueError, match="Grassmann-type spaces"):
        expected_highest_weight(make_space(Family.AFFINE, 1, 1), t)


@pytest.mark.parametrize("family", [Family.OMEGA, Family.DUAL, *RESTRICTED], ids=lambda f: f.value)
def test_expected_highest_weight_is_the_largest_monomial(family):
    """The closed-form prediction against the last monomial of the enumerated
    basis, by a route that shares no code with it."""
    ds = (3, 5, 6, 7, 8, 12) if family in RESTRICTED else (None,)
    for _, space in shape_grid(family, ds):
        m, n, top = space.shape.m, space.shape.n, top_degree(space)
        for t in range((8 if top is None else top) + 1):
            expected = expected_highest_weight(space, t)
            if (family in (Family.OMEGA, Family.OMEGA_RESTRICTED) and m == 0
                    or family is Family.DUAL and n == 0 and t > m):
                assert expected is None, (space, t)
                continue
            assert expected is not None, (space, t)
            largest = basis_of_degree(space, t)[-1]
            assert expected[:2] == (largest, largest.entries), (space, t)


def test_component_report_generic_omega():
    for t in range(4):
        rep = component_report(OMEGA21, t)
        assert rep.dim == rep.dim_by_formula
        assert rep.hw_matches_expected
        assert rep.simple == "simple"


def test_component_report_restricted_top_band():
    rep = component_report(OMEGA21_R3, 5)
    assert rep.expected_hw["monomial"] == "(2,2 | 1)"
    assert rep.simple == "simple" and rep.hw_matches_expected


def test_component_report_dual():
    for t in range(4):
        rep = component_report(DUAL21, t)
        assert rep.passed, rep.to_json()


@pytest.mark.parametrize("family, m, n", [(Family.DUAL, 1, 0), (Family.OMEGA, 0, 1)])
def test_an_empty_component_is_not_simple(family, m, n):
    # dual (1|0) and omega (0|1) have one monomial in degrees 0 and 1 and
    # none above: the zero module is no simple module
    space = make_space(family, m, n)
    for t in (2, 3):
        rep = component_report(space, t)
        assert (rep.dim, rep.dim_by_formula, rep.simple) == (0, 0, "not_simple")
        assert rep.witnesses == [{"empty_degree": t}]
        assert not rep.passed and rep.to_json()["simple"] is False
    assert all(component_report(space, t).passed for t in (0, 1))


def test_component_report_out_of_range():
    with pytest.raises(ValueError):
        component_report(OMEGA21_R3, 6)


def test_proper_reach_set_decides_a_component_without_weight_separation():
    # omega (2|1) at d = 4, t = 4: (0,4 | 0) and (4,0 | 0) share a weight, yet
    # the seed (0,3 | 1) reaches 3 of the 9 monomials
    space = make_space(Family.OMEGA, 2, 1, root_of_unity(4))
    rep = component_report(space, 4)
    assert rep.simple == "not_simple" and rep.dim == 9
    assert rep.witnesses[0]["weight_collision"] == ["(0,4 | 0)", "(4,0 | 0)"]
    assert rep.witnesses[-1] == {"seed_with_proper_span": "(0,3 | 1)", "span_rank": 3}
    assert rep.to_json()["simple"] is False
    # the span of the reach set is a submodule: every generator keeps it
    basis = basis_of_degree(space, 4)
    images = _generator_images(space, basis)
    reach, todo = set(), [MultiIndex((0, 3, 1), space.shape)]
    while todo:
        idx = todo.pop()
        if idx not in reach:
            reach.add(idx)
            todo.extend(k for img in images[idx] for k in img)
    assert len(reach) == 3
    words = [generator_word(kind, j, space)
             for kind in (Gen.E, Gen.F, Gen.SK, Gen.SKINV) for j in range(1, 3)]
    words += [generator_word(kind, i, space) for kind in (Gen.K, Gen.KINV) for i in range(1, 4)]
    words.append(generator_word(Gen.PARITY, 0, space))
    for idx in reach:
        for w in words:
            assert set(apply_word(w, SuperVector.monomial(space, idx)).terms) <= reach


# ---------------------------------------------------------------------------
# the simplicity and highest-weight routes against independent ones
# ---------------------------------------------------------------------------


# omega (1|1) at d = 3 and 4 has components that are not simple, with
# two-dimensional highest-weight spaces (t = 3, 6 and t = 2, 4, 6)
CROSS_CHECK_SPACES = [
    (make_space(Family.OMEGA, 1, 1, D3), 6),
    (make_space(Family.OMEGA, 1, 1, root_of_unity(4)), 6),
    (OMEGA21, 4),
    (make_space(Family.DUAL_RESTRICTED, 1, 1, D3), 3),
]
CROSS_CHECK_IDS = ["omega11-d3", "omega11-d4", "omega21", "dual-restricted11-d3"]


def chevalley_words(space, kinds):
    return [generator_word(kind, j, space) for kind in kinds for j in range(1, space.shape.size)]


def closure_rank(space, seed, ops):
    """Rank of the cyclic span of a monomial, closed under ops by vector arithmetic."""
    rank, basis = exact_rank([SuperVector.monomial(space, seed)])
    while True:
        new_rank, basis = exact_rank(basis + [apply_word(op, v) for v in basis for op in ops])
        if new_rank == rank:
            return rank
        rank = new_rank


def dense_rank(rows, zero):
    """Rank of a dense scalar matrix by textbook Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("space, t_hi", CROSS_CHECK_SPACES, ids=CROSS_CHECK_IDS)
def test_reachability_rank_matches_the_span_closure(space, t_hi):
    # the first seed, in basis order, whose cyclic span is proper, with its rank
    ops = chevalley_words(space, (Gen.E, Gen.F))
    for t in range(t_hi + 1):
        basis = basis_of_degree(space, t)
        ranks = ((seed, closure_rank(space, seed, ops)) for seed in basis)
        want = next(((seed, rank) for seed, rank in ranks if rank < len(basis)), None)
        assert _first_proper_span(basis, _generator_images(space, basis)) == want, t


def graph_images(targets):
    """A graph as generator images: one one-term image per target."""
    return {node: [{nxt: 1} for nxt in outs] for node, outs in targets.items()}


@st.composite
def graphs(draw):
    size = draw(st.integers(0, 8))
    return {node: draw(st.lists(st.integers(0, size - 1), max_size=3)) for node in range(size)}


@settings(max_examples=300, deadline=None)
@given(graphs())
@example({0: [1, 2], 1: [0], 2: []})  # basis[0] reaches all, node 2 only itself
@example({0: [1, 2], 1: [3], 2: [0], 3: []})  # ... and node 1 reaches {1, 3}
@example({0: [1], 1: [2], 2: [0, 3], 3: [2]})  # every node reaches all
@example({0: [], 1: [0]})  # basis[0] reaches only itself
def test_three_searches_find_the_first_proper_seed(targets):
    basis = tuple(targets)
    assert _first_proper_span(basis, graph_images(targets)) == first_proper_reach(basis, targets)


def test_an_image_that_is_a_sum_is_refused():
    with pytest.raises(RuntimeError, match="sum of monomials"):
        _first_proper_span((0, 1), {0: [{1: 1}], 1: [{0: 1, 1: 1}]})


@pytest.mark.parametrize("space, t_hi", CROSS_CHECK_SPACES, ids=CROSS_CHECK_IDS)
def test_highest_weight_kernel_matches_the_stacked_raising_map(space, t_hi):
    raisers = chevalley_words(space, (Gen.E,))
    zero = space.mode.zero()
    for t in range(t_hi + 1):
        basis = basis_of_degree(space, t)
        kernel = _highest_weight_space(space, basis, _generator_images(space, basis))
        for v in kernel:
            # no two monomials share a row key (j, target), so no row is reduced
            assert len(v.terms) == 1
            assert all(apply_word(e, v).is_zero() for e in raisers)
        assert exact_rank(kernel)[0] == len(kernel)
        images = [[apply_word(e, SuperVector.monomial(space, idx)) for e in raisers] for idx in basis]
        keys = sorted({(j, out) for row in images for j, img in enumerate(row) for out in img.terms})
        matrix = [[row[j].terms.get(out, zero) for j, out in keys] for row in images]
        assert len(kernel) == len(basis) - dense_rank(matrix, zero), t


def test_rowspace_tags_give_the_relation_of_a_dependent_row():
    one, q = GENERIC.one(), GENERIC.q()
    r1 = {"a": one, "b": q}
    r2 = {"b": one, "c": one}
    # 2 r1 - [2] r2 = 2a + (2q - [2]) b - [2] c
    r3 = {"a": GENERIC.scalar(2), "b": GENERIC.scalar(2) * q - q_int(2), "c": -q_int(2)}
    rs = RowSpace()
    assert rs.add(r1, {1: one}) and rs.add(r2, {2: one})
    assert rs.rank == 2 and rs.relations == []
    # reduced echelon form: unit pivots at the least keys, cleared elsewhere
    assert rs.rows["a"][0] == {"a": one, "c": -q}
    assert rs.rows["b"][0] == {"b": one, "c": one}
    assert rs.add(r3, {3: one}) is False
    assert rs.relations == [{1: GENERIC.scalar(-2), 2: q_int(2), 3: one}]
    # a zero row is its own relation
    assert rs.add({}, {4: one}) is False
    assert rs.relations[-1] == {4: one}
    assert rs.rank == 2
