import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import split_star, star_theta_exponents
from qgrass.indices import (
    MultiIndex,
    Shape,
    ShapeMismatchError,
    position_sums,
    theta,
    theta_exponents,
)
from qgrass.qarith import GENERIC, root_of_unity

SH21 = Shape(2, 1)
SH22 = Shape(2, 2)


def mi(shape, *entries):
    return MultiIndex(tuple(entries), shape)


def labels(shape, lo=-3, hi=3):
    return st.tuples(*[st.integers(lo, hi) for _ in range(shape.size)]).map(
        lambda t: MultiIndex(t, shape)
    )


def star(a, b):
    """The pairing sum_{i > j} a_i b_j, the sum of its parity classes."""
    return sum(split_star(a, b))


def test_star_example_only_inverted_pair():
    sh = Shape(2, 0)
    assert star(mi(sh, 1, 2), mi(sh, 3, 1)) == 6


def test_star_basis_vector_prefix_rule():
    sh = Shape(4, 0)
    beta = mi(sh, 5, 7, 11, 13)
    for i in range(1, 5):
        e_i = MultiIndex.basis_vector(sh, i)
        assert star(e_i, beta) == sum(beta.entries[: i - 1])
        assert star(beta, e_i) == sum(beta.entries[i:])


def test_star_zero_left():
    z = MultiIndex.unit(SH22)
    assert star(z, mi(SH22, 1, 2, 1, 0)) == 0


@given(labels(SH22), labels(SH22), labels(SH22))
@settings(max_examples=60, deadline=None)
def test_star_bilinear(a, b, c):
    assert star(a + b, c) == star(a, c) + star(b, c)
    assert star(a, b + c) == star(a, b) + star(a, c)


DUAL21 = Shape(2, 1, fermionic_first=True)


@pytest.mark.parametrize("shape", [SH21, SH22, DUAL21], ids=["poly21", "poly22", "dual21"])
def test_split_star_matches_the_double_sum_per_parity_class(shape):
    @given(labels(shape), labels(shape))
    @settings(max_examples=60, deadline=None)
    def inner(a, b):
        fer = shape.fermionic_mask
        parts = {(False, False): 0, (True, True): 0, (True, False): 0, (False, True): 0}
        for i in range(shape.size):
            for j in range(i):
                parts[fer[i], fer[j]] += a.entries[i] * b.entries[j]
        expected = (parts[False, False], parts[True, True], parts[True, False], parts[False, True])
        assert split_star(a, b) == expected

    inner()


@pytest.mark.parametrize("shape", [SH21, SH22, DUAL21], ids=["poly21", "poly22", "dual21"])
def test_position_sums_are_the_coefficients_of_the_star_pairing(shape):
    # for fixed a, a * b reads the sums of a after each position j, and
    # b * a the sums before it, as the coefficients of b_j
    @given(labels(shape), labels(shape))
    @settings(max_examples=60, deadline=None)
    def inner(a, b):
        ab, ba = [0, 0, 0, 0], [0, 0, 0, 0]  # bb, ff, fb, bf as in split_star
        for sums, bj, fer in zip(position_sums(a), b.entries, shape.fermionic_mask):
            bos_before, fer_before, bos_after, fer_after = sums
            if fer:
                ab[1] += fer_after * bj
                ab[3] += bos_after * bj
                ba[1] += fer_before * bj
                ba[2] += bos_before * bj
            else:
                ab[0] += bos_after * bj
                ab[2] += fer_after * bj
                ba[0] += bos_before * bj
                ba[3] += fer_before * bj
        assert (tuple(ab), tuple(ba)) == (split_star(a, b), split_star(b, a))

    inner()


# ---------------------------------------------------------------------------
# twist bicharacter
# ---------------------------------------------------------------------------


def test_theta_diagonal_trivial():
    for i in range(1, 5):
        e = MultiIndex.basis_vector(SH22, i)
        assert theta(e, e, GENERIC) == GENERIC.one()


def test_theta_bosonic_pair():
    e1 = MultiIndex.basis_vector(SH22, 1)
    e2 = MultiIndex.basis_vector(SH22, 2)
    assert theta(e1, e2, GENERIC) == GENERIC.q_power(-1)


def test_theta_fermionic_pair_has_minus_q_base():
    e3 = MultiIndex.basis_vector(SH22, 3)
    e4 = MultiIndex.basis_vector(SH22, 4)
    assert theta(e3, e4, GENERIC) == GENERIC.minus_q_power(-1)


def test_theta_mixed_pair():
    e1 = MultiIndex.basis_vector(SH22, 1)
    e3 = MultiIndex.basis_vector(SH22, 3)
    assert theta(e3, e1, GENERIC) == GENERIC.q()
    assert theta(e1, e3, GENERIC) == GENERIC.q_power(-1)


@pytest.mark.parametrize("mode", [GENERIC, root_of_unity(3)])
def test_theta_bicharacter_laws(mode):
    @given(labels(SH22, -2, 2), labels(SH22, -2, 2), labels(SH22, -2, 2))
    @settings(max_examples=50, deadline=None)
    def inner(a, b, c):
        assert theta(a + b, c, mode) == theta(a, c, mode) * theta(b, c, mode)
        assert theta(a, b + c, mode) == theta(a, b, mode) * theta(a, c, mode)
        assert theta(a, b, mode) * theta(b, a, mode) == mode.one()

    inner()


@pytest.mark.parametrize("shape", [SH21, SH22, Shape(0, 3), Shape(3, 0)],
                         ids=["2|1", "2|2", "0|3", "3|0"])
def test_theta_exponents_are_the_star_pairing_formula(shape):
    # labels with negative entries, against the double sums of split_star
    @given(labels(shape), labels(shape))
    @settings(max_examples=80, deadline=None)
    def inner(a, b):
        assert theta_exponents(a, b) == star_theta_exponents(a, b)

    inner()


def test_theta_rejects_dual_side_labels():
    dual = Shape(2, 1, fermionic_first=True)
    a = MultiIndex.basis_vector(dual, 1)
    with pytest.raises(ShapeMismatchError):
        theta(a, a, GENERIC)


# ---------------------------------------------------------------------------
# basis-key validity, ordering, rendering
# ---------------------------------------------------------------------------


def test_basis_key_validity():
    assert mi(SH21, 2, 0, 1).is_valid_basis_key()
    assert not mi(SH21, -1, 0, 1).is_valid_basis_key()
    assert not mi(SH21, 0, 0, 2).is_valid_basis_key()
    capped = Shape(2, 1, restricted_ell=3)
    assert MultiIndex((2, 2, 1), capped).is_valid_basis_key()
    assert not MultiIndex((3, 0, 1), capped).is_valid_basis_key()


def test_labels_allow_negative_entries():
    lab = mi(SH21, 0, -1, 1)
    assert not lab.is_valid_basis_key()
    assert lab.degree() == 0


def test_lex_order_and_render():
    a = mi(SH21, 0, 1, 1)
    b = mi(SH21, 1, 0, 0)
    assert a < b
    assert sorted([b, a]) == [a, b]
    assert a.render() == "(0,1 | 1)"


def test_dual_side_parity_pattern():
    dual = Shape(2, 1, fermionic_first=True)
    idx = MultiIndex((1, 0, 4), dual)
    assert idx.is_valid_basis_key()
    assert not MultiIndex((2, 0, 1), dual).is_valid_basis_key()
