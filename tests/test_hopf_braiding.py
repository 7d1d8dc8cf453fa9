"""The braiding of a Hopf presentation, read from its datum alone.

Every family is a bosonization R # kG of a quantum linear space, whose
braiding q_ij = chi_{gL_i gR_i^-1}(x_j) comes from the conjugation characters
and the coproduct legs.  These tests pin every presentation on a grid, check
the braiding's identities there, and rank the quantum symmetrizer of the
braiding against the stated nilpotency caps (the x-part is the Nichols
algebra of its braiding exactly when they agree).
"""

import contextlib
import dataclasses
import hashlib
import itertools
import json

import pytest

from qgrass import hopf
from qgrass.hopf import _fold, _signed_power, build
from qgrass.qarith import GENERIC, add_term, root_of_unity
from qgrass.uqrep import RowSpace

MIXED_AND_DQ = ("taft-mn", "aq", "gq", "gq-restricted", "dq", "dq-restricted")
KNOBS = {"gq": [{}, dict(nilpotency_caps=False)],
         "dq": [{}, dict(coproduct_variant="minus"), dict(partial_caps=False)]}
DIAGONAL = [("taft-orders", dict(orders=o), d)
            for o, d in [((2,), 4), ((3,), 6), ((2, 3), 6), ((2, 2, 4), 8)]]
DIAGONAL += [("taft-orders-generalized", dict(orders=o, group_orders=g), d)
             for o, g, d in [((2,), (4,), 4), ((3,), (6,), 6), ((2, 3), (6, 6), 6),
                             ((2, 4), (4, 8), 8)]]


def pin_grid():
    """Every presentation that build accepts on the grid, in grid order: the
    six m|n families on m + n <= 3, generic and d = 3, 4, 5, 6, 8, at each
    knob value, then the diagonal families on four (orders, d) each."""
    modes = [GENERIC, *map(root_of_unity, (3, 4, 5, 6, 8))]
    shapes = [(m, n) for m in range(4) for n in range(4) if 1 <= m + n <= 3]
    out = []
    for family in MIXED_AND_DQ:
        knobs = KNOBS.get(family.removesuffix("-restricted"), [{}])
        for mode, (m, n), kw in itertools.product(modes, shapes, knobs):
            with contextlib.suppress(ValueError):
                out.append(build(family, mode=mode, m=m, n=n, **kw))
    out += [build(family, mode=root_of_unity(d), **kw) for family, kw, d in DIAGONAL]
    return out


@pytest.fixture(scope="module")
def grid():
    return pin_grid()


def rendering(p) -> str:
    """The report of a presentation plus every relation's name, coefficient
    strings and words."""
    relations = [(name, [(str(c), list(word)) for c, word in terms])
                 for name, terms in p.relations]
    return json.dumps([p.to_json(), relations], sort_keys=True)


PIN = "f78604e0884216aac1e418eaba56955943b4f923d9c0a986cea2c95ae812243c"


def test_every_presentation_on_the_grid_is_pinned(grid):
    digest = hashlib.sha256("\n".join(map(rendering, grid)).encode()).hexdigest()
    assert (len(grid), digest) == (467, PIN)


def test_the_braiding_is_inverse_to_its_transpose_off_the_diagonal(grid):
    # q_ij q_ji = 1 for i != j: x_i x_j = q_ij x_j x_i read both ways
    pairs = 0
    for p in grid:
        for i, j in itertools.permutations(range(len(p.xgens)), 2):
            (li, mi), (lj, mj) = p.braiding[i][j], p.braiding[j][i]
            assert _fold(p.mode, li + lj, mi + mj) == (0, 0), (p.family, p.params, i, j)
            pairs += 1
    assert pairs == 1662


# ---------------------------------------------------------------------------
# the quantum symmetrizer of the braiding against the caps
# ---------------------------------------------------------------------------


def symmetrizer_image(p, word: tuple[int, ...]) -> dict:
    """Omega_t of the word x_w1 ... x_wt: the sum over the permutations of
    its letters, each times braiding[a][b] for every letter a that crosses a
    letter b to its right, c(x_a x_b) = braiding[a][b] x_b x_a."""
    out: dict = {}
    for perm in itertools.permutations(range(len(word))):
        lam = mu = 0
        for u, v in itertools.combinations(range(len(word)), 2):
            if perm[u] > perm[v]:
                cl, cm = p.braiding[word[perm[v]]][word[perm[u]]]
                lam, mu = lam + cl, mu + cm
        add_term(out, tuple(word[k] for k in perm), _signed_power(p.mode, lam, mu))
    return out


def nichols_disagreements(p, t_max: int = 4) -> list[tuple[int, ...]]:
    """The contents a, |a| <= t_max, where the rank of the quantum
    symmetrizer on the words of content a is not what the caps predict: 1
    when every a_i is below its cap, else 0."""
    caps = [g.cap for g in p.xgens]
    out = []
    for content in itertools.product(range(t_max + 1), repeat=len(caps)):
        if sum(content) > t_max:
            continue
        letters = [i for i, e in enumerate(content) for _ in range(e)]
        space = RowSpace()
        for word in sorted(set(itertools.permutations(letters))):
            space.add(symmetrizer_image(p, word))
        below = all(cap is None or e < cap for cap, e in zip(caps, content))
        if space.rank != int(below):
            out.append(content)
    return out


D3 = root_of_unity(3)
NICHOLS = [("taft-mn", dict(m=1, n=1), D3), ("gq-restricted", dict(m=1, n=1), D3),
           ("dq", dict(m=1, n=1), GENERIC), ("dq-restricted", dict(m=1, n=1), D3),
           ("taft-orders", dict(orders=(2, 3)), root_of_unity(6))]
IDS = ["taft-mn(1|1)-d3", "gq-restricted(1|1)-d3", "dq(1|1)", "dq-restricted(1|1)-d3",
       "taft-orders(2,3)-d6"]


@pytest.mark.parametrize("family, kw, mode", NICHOLS, ids=IDS)
def test_the_x_part_is_the_nichols_algebra_of_its_braiding(family, kw, mode):
    assert nichols_disagreements(build(family, mode=mode, **kw)) == []


def test_aq_at_a_root_of_unity_is_pre_nichols():
    # x1 has no cap, but its braiding q makes Omega_3 kill x1^3 at d = 3
    assert nichols_disagreements(build("aq", m=1, n=1, mode=D3)) == [(3, 0), (3, 1), (4, 0)]


@pytest.mark.parametrize("family, kw, mode", [NICHOLS[i] for i in (0, 1, 4)],
                         ids=[IDS[i] for i in (0, 1, 4)])
def test_a_flipped_conjugation_sign_fails_the_rank_test(monkeypatch, family, kw, mode):
    # chi_{K1}(x1) times -1; K1 is x1's only leg, so its braiding flips too
    real = hopf._from_datum

    def flipped(family, mode, names, rows, xgens, chi, *args, **kwargs):
        chi = [list(row) for row in chi]
        lam, mu = chi[0][0]
        chi[0][0] = (lam + 1, mu)
        return real(family, mode, names, rows, xgens, chi, *args, **kwargs)

    monkeypatch.setattr(hopf, "_from_datum", flipped)
    assert nichols_disagreements(build(family, mode=mode, **kw)) != []


@pytest.mark.parametrize("family, kw, mode", NICHOLS, ids=IDS)
def test_a_raised_cap_fails_the_rank_test(family, kw, mode):
    p = build(family, mode=mode, **kw)
    i = next(i for i, g in enumerate(p.xgens) if g.cap is not None)
    p.xgens = [dataclasses.replace(g, cap=g.cap + 1) if k == i else g
               for k, g in enumerate(p.xgens)]
    assert nichols_disagreements(p) != []
