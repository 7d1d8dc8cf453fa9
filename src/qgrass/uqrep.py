"""Chevalley-generator actions, module-algebra laws, weights and simplicity.

The raising/lowering operators act through three-atom words (coordinate times
derivative times grading twist); the toral generators are grading twists.  The
same words serve the Grassmann side and the dual side, with the side-specific
atomic actions supplied by the weyl module.

Verification is exhaustive on graded components: the defining relations of the
quantum general (special) linear supergroup, the module-algebra (twisted
Leibniz) law against the bosonized coproduct, highest-weight extraction by
exact kernel computation, and a simplicity certificate by monomial
reachability.  Every E_j / F_j word sends a basis monomial to a scalar times
one basis monomial, and every other generator is diagonal on monomials, so
the span of the monomials a seed reaches is a submodule: a seed reaching a
proper subset proves the component not simple.  The converse needs pairwise
distinct toral weights on the monomial basis: any nonzero submodule then
contains a basis monomial, so simplicity is equivalent to every basis
monomial generating the full component.  When that weight-separation
precondition fails and every seed reaches the whole basis, the verdict is
reported as inconclusive, never as a definite answer.  The one exact
elimination, ``RowSpace``, serves the highest-weight kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum

from .indices import MultiIndex
from .qarith import QParity, ScalarQ, add_term, char_of
from .superspaces import (
    DUAL_SIDE,
    POLY_SIDE,
    Family,
    SpaceSpec,
    SuperVector,
    basis_of_degree,
    top_degree,
)
from .weyl import (
    OperatorWord,
    Relation,
    RelationReport,
    apply_word,
    coproduct_check,
    leibniz_check,
    mult_x,
    parity,
    partial,
    run_checks,
    sigma,
    tau,
)

__all__ = [
    "Gen",
    "generator_word",
    "verify_uq_relations",
    "verify_module_algebra",
    "dim_formula",
    "RowSpace",
    "weight_of",
    "expected_highest_weight",
    "component_report",
    "ComponentReport",
]

class Gen(Enum):
    E = "E"
    F = "F"
    K = "K"
    KINV = "Kinv"
    SK = "SK"
    SKINV = "SKinv"
    PARITY = "sigma"


def generator_word(kind: Gen, i: int, space: SpaceSpec) -> OperatorWord:
    """Operator word realizing one Chevalley/toral generator on the space:
    K_i, K_i^-1 for i in 1..size, the parity for any i, the others for i in
    1..size-1."""
    if space.family is Family.AFFINE:
        raise ValueError("generator actions are defined on the Grassmann-type spaces")
    top = space.shape.size if kind in (Gen.K, Gen.KINV) else space.shape.size - 1
    if kind is not Gen.PARITY and not 1 <= i <= top:
        raise ValueError(f"{kind.value}_{i}: index must lie in 1..{top}")
    m = space.shape.m
    dual = space.family in DUAL_SIDE

    if kind is Gen.E:
        atoms = (mult_x(i), partial(i + 1), sigma(i, 1))
    elif kind is Gen.F:
        atoms = (sigma(i, -1), mult_x(i + 1), partial(i))
    elif kind is Gen.PARITY:
        atoms = (parity(),)
    elif kind in (Gen.K, Gen.KINV):
        e = 1 if kind is Gen.K else -1
        if dual or not space.shape.is_fermionic_pos(i):
            atoms = (sigma(i, e),)
        else:
            atoms = (sigma(i, -e), tau(i))
    else:  # SK / SKINV
        e = 1 if kind is Gen.SK else -1
        if dual or i < m:
            atoms = (sigma(i, e), sigma(i + 1, -e))
        elif i == m:
            atoms = (sigma(m, e), sigma(m + 1, e), tau(m + 1))
        else:
            atoms = (sigma(i, -e), sigma(i + 1, e), tau(i), tau(i + 1))
    return OperatorWord(space, atoms)


def _q_sub(space: SpaceSpec, i: int) -> int:
    """Exponent sign of q_i: +1 on the first block of indices, -1 after."""
    return 1 if i <= space.shape.m else -1


def _cartan(space: SpaceSpec, i: int, j: int) -> int:
    """(alpha_i, alpha_j) for the super bilinear form with signature (m, n)."""
    def form(a: int, b: int) -> int:
        return _q_sub(space, a) if a == b else 0

    return form(i, j) - form(i, j + 1) - form(i + 1, j) + form(i + 1, j + 1)


def _w(space: SpaceSpec) -> OperatorWord:
    return OperatorWord(space, ())


def verify_uq_relations(space: SpaceSpec, t_max: int, variant: str = "gl") -> RelationReport:
    """All defining relations of the (bosonized) quantum supergroup action,
    instantiated over every index combination and checked on degrees <= t_max.

    ``variant='gl'`` checks the individual toral generators; ``variant='sl'``
    keeps only the simple-root ones.  Root-of-unity modes on restricted spaces
    additionally check the restricted-quotient relations.
    """
    if variant not in ("gl", "sl"):
        raise ValueError("variant must be 'gl' or 'sl'")
    mode = space.mode
    size = space.shape.size
    m = space.shape.m
    J = range(1, size)
    checks: list = []

    def word(kind: Gen, i: int = 0) -> OperatorWord:
        return generator_word(kind, i, space)

    if variant == "gl":
        for i in range(1, size + 1):
            checks.append(
                Relation(f"K{i} Kinv{i} = 1", (word(Gen.K, i).then(word(Gen.KINV, i)),), (_w(space),))
            )
            for j in range(i + 1, size + 1):
                checks.append(
                    Relation(
                        f"K{i} K{j} = K{j} K{i}",
                        (word(Gen.K, i).then(word(Gen.K, j)),),
                        (word(Gen.K, j).then(word(Gen.K, i)),),
                    )
                )
        for i in range(1, size + 1):
            qi = _q_sub(space, i)
            for j in J:
                for kind, sgn in ((Gen.E, 1), (Gen.F, -1)):
                    exp = qi * sgn * ((1 if i == j else 0) - (1 if i == j + 1 else 0))
                    checks.append(
                        Relation(
                            f"K{i} {kind.value}{j} = q_{i}^{sgn * ((i == j) - (i == j + 1))} {kind.value}{j} K{i}",
                            (word(Gen.K, i).then(word(kind, j)),),
                            (word(kind, j).then(word(Gen.K, i)).scaled(mode.q_power(exp)),),
                        )
                    )
    for i in J:
        checks.append(
            Relation(f"SK{i} SKinv{i} = 1", (word(Gen.SK, i).then(word(Gen.SKINV, i)),), (_w(space),))
        )
        for j in J:
            for kind, sgn in ((Gen.E, 1), (Gen.F, -1)):
                exp = sgn * _cartan(space, i, j)
                checks.append(
                    Relation(
                        f"SK{i} {kind.value}{j} = q^{exp} {kind.value}{j} SK{i}",
                        (word(Gen.SK, i).then(word(kind, j)),),
                        (word(kind, j).then(word(Gen.SK, i)).scaled(mode.q_power(exp)),),
                    )
                )

    denom_plus = mode.q() - mode.q_power(-1)
    for i in J:
        for j in J:
            odd_pair = i == j == m
            lhs = [word(Gen.E, i).then(word(Gen.F, j))]
            lhs.append(
                word(Gen.F, j).then(word(Gen.E, i)).scaled(mode.scalar(1 if odd_pair else -1))
            )
            if i == j:
                denom = denom_plus if _q_sub(space, i) == 1 else -denom_plus
                rhs = (
                    word(Gen.SK, i).scaled(denom.inverse()),
                    word(Gen.SKINV, i).scaled(-denom.inverse()),
                )
            else:
                rhs = ()
            name = (
                f"E{i} F{j} {'+' if odd_pair else '-'} F{j} E{i} = "
                + (f"(SK{i} - SKinv{i})/(q_{i} - q_{i}^-1)" if i == j else "0")
            )
            checks.append(Relation(name, tuple(lhs), rhs))

    for kind in (Gen.E, Gen.F):
        for i in J:
            for j in J:
                if abs(i - j) > 1:
                    checks.append(
                        Relation(
                            f"{kind.value}{i} {kind.value}{j} commute",
                            (word(kind, i).then(word(kind, j)),),
                            (word(kind, j).then(word(kind, i)),),
                        )
                    )
                if abs(i - j) == 1 and i != m:
                    a, b = word(kind, i), word(kind, j)
                    checks.append(
                        Relation(
                            f"{kind.value}: quadratic Serre at ({i},{j})",
                            (
                                a.then(a).then(b),
                                a.then(b).then(a).scaled(-(mode.q() + mode.q_power(-1))),
                                b.then(a).then(a),
                            ),
                            (),
                        )
                    )
        if 1 <= m <= size - 1:
            em = word(kind, m)
            checks.append(
                Relation(f"{kind.value}{m}^2 = 0", (em.then(em),), ())
            )
            if m - 1 >= 1 and m + 1 <= size - 1:
                a, b, c = word(kind, m - 1), em, word(kind, m + 1)
                checks.append(
                    Relation(
                        f"{kind.value}: quartic Serre around the odd root",
                        (
                            a.then(b).then(c).then(b),
                            b.then(a).then(b).then(c),
                            c.then(b).then(a).then(b),
                            b.then(c).then(b).then(a),
                            b.then(a).then(c).then(b).scaled(-(mode.q() + mode.q_power(-1))),
                        ),
                        (),
                    )
                )

    if space.family in (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED):
        profile = char_of(mode)
        ell = profile.ell
        for j in J:
            if j == m:
                continue
            for kind in (Gen.E, Gen.F):
                checks.append(
                    Relation(
                        f"{kind.value}{j}^ell = 0 (restricted)",
                        (OperatorWord(space, word(kind, j).atoms * ell),),
                        (),
                    )
                )
        if variant == "gl":
            for i in range(1, size + 1):
                k = word(Gen.K, i).atoms
                checks.append(Relation(f"K{i}^(2 ell) = 1 (restricted)",
                                       (OperatorWord(space, k * (2 * ell)),), (_w(space),)))
                if profile.parity is QParity.ODD_ROOT:  # at an even root q^ell = -1
                    checks.append(Relation(f"K{i}^ell = 1 (informative)",
                                           (OperatorWord(space, k * ell),), (_w(space),)))

    return run_checks(f"uq-relations-{variant}", space, checks, t_max)


def verify_module_algebra(space: SpaceSpec, t_max: int) -> RelationReport:
    """Twisted Leibniz law g(uv) = sum g_(1)(u) g_(2)(v) for every generator,
    with the bosonized coproducts, on all monomial pairs with degree sum
    <= t_max."""
    m = space.shape.m
    size = space.shape.size
    checks: list = []

    par = generator_word(Gen.PARITY, 0, space)
    for j in range(1, size):
        e_j, f_j, sk_j, skinv_j = (generator_word(g, j, space)
                                   for g in (Gen.E, Gen.F, Gen.SK, Gen.SKINV))
        odd = j == m
        checks.append(leibniz_check(f"E{j} twisted Leibniz", space, e_j,
                                    par if odd else None, sk_j))
        f_left = par.then(skinv_j) if odd else skinv_j
        checks.append(leibniz_check(f"F{j} twisted Leibniz", space, f_j, f_left))

    # K_i and the parity are algebra automorphisms: g(uv) = g(u) g(v)
    automorphisms = {f"K{i}": generator_word(Gen.K, i, space) for i in range(1, size + 1)}
    for name, g in {**automorphisms, "parity": par}.items():
        checks.append(coproduct_check(f"{name} is an algebra automorphism", space, g, ((g, g),)))
    return run_checks("module-algebra", space, checks, t_max)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def _bounded_compositions(k: int, total: int, ell: int | None) -> int:
    """Compositions of total into k parts, each below ell (no cap when ell is
    None), by inclusion-exclusion over the parts that reach ell."""
    out = 0
    for i in range(k + 1 if ell else 1):
        rest = total - i * (ell or 0)
        if rest < 0:
            break
        free = math.comb(rest + k - 1, k - 1) if k else int(rest == 0)
        out += (-1) ** i * math.comb(k, i) * free
    return out


def dim_formula(space: SpaceSpec, t: int) -> int:
    """Closed-form dimension of the degree-t component, read off the shape:
    s of its f fermionic exponents are 1 and its b bosonic exponents, each
    below the cap ell on a restricted family, sum to t - s, so the dimension
    is sum_s C(f, s) * #compositions(t - s into b parts below ell)."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    top = top_degree(space)
    if top is not None and t > top:
        raise ValueError(f"degree {t} exceeds the top degree {top}")
    shape = space.shape
    f = sum(shape.fermionic_mask)
    return sum(
        math.comb(f, s) * _bounded_compositions(shape.size - f, t - s, shape.restricted_ell)
        for s in range(min(t, f) + 1)
    )


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _axpy(row: dict, other: dict, c: ScalarQ) -> None:
    """row += c * other, in place, dropping entries that cancel."""
    for key, v in other.items():
        add_term(row, key, v * c)


class RowSpace:
    """Sparse exact row reduction over totally ordered keys.

    Rows are dicts key -> scalar, kept in reduced echelon form: each stored
    row has coefficient 1 at its pivot, its least key, and no stored row has
    a term at another row's pivot.  An optional tag (a dict over any hashable
    keys) is reduced alongside each row; when every row is tagged and one
    reduces to zero, its reduced tag is a linear relation among the rows
    added so far, recorded in ``relations``.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> (row, tag)
        self.relations: list[dict] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: dict, tag: dict | None = None) -> bool:
        """Insert a row; True iff it enlarges the span."""
        row, tag = dict(row), dict(tag or {})
        # rows are reduced, so clearing one pivot leaves the others untouched
        for key in [k for k in row if k in self.rows]:
            prow, ptag = self.rows[key]
            c = -row[key]
            _axpy(row, prow, c)
            _axpy(tag, ptag, c)
        if not row:
            if tag:
                self.relations.append(tag)
            return False
        lead = min(row)
        inv = row[lead].inverse()
        row = {k: v * inv for k, v in row.items()}
        tag = {k: v * inv for k, v in tag.items()}
        for prow, ptag in self.rows.values():
            c = prow.get(lead)
            if c is not None:
                _axpy(prow, row, -c)
                _axpy(ptag, tag, -c)
        self.rows[lead] = (row, tag)
        return True


# ---------------------------------------------------------------------------
# weights, highest-weight vectors, simplicity
# ---------------------------------------------------------------------------


def weight_of(space: SpaceSpec, idx: MultiIndex) -> tuple[tuple[int, ...], int]:
    """Toral eigen-exponents (second block negated) plus the parity sign bit.

    In root-of-unity mode the exponents are reduced modulo the order of q, so
    equal weights mean equal eigenvalue tuples.
    """
    m = space.shape.m
    exps = [e if pos <= m else -e for pos, e in enumerate(idx.entries, start=1)]
    if not space.mode.is_generic:
        d = space.mode.d
        exps = [e % d for e in exps]
    par = sum(idx.entries[m:]) % 2
    return tuple(exps), par


def _fill(r: int, ell: int, k: int) -> tuple[tuple[int, ...], int, int]:
    """The lexicographically largest k exponents below ell with sum r: slots
    1..i-1 full at ell - 1, then t_i in slot i.  Returns them, i and t_i."""
    i = max(1, -(-r // (ell - 1)))  # ceil
    t_i = r - (i - 1) * (ell - 1)
    return (ell - 1,) * (i - 1) + (t_i,) + (0,) * (k - i), i, t_i


def expected_highest_weight(space: SpaceSpec, t: int) -> tuple[MultiIndex, tuple[int, ...], str] | None:
    """Predicted highest-weight monomial, weight (epsilon-coordinates) and a
    fundamental-weight label for the component of degree t, when covered."""
    if space.family is Family.AFFINE:
        raise ValueError("module structure lives on the Grassmann-type spaces")
    shape = space.shape
    m, n, ell = shape.m, shape.n, shape.restricted_ell
    if space.family in POLY_SIDE:
        if m == 0:
            return None
        if space.family is Family.OMEGA:
            entries, label = (t,) + (0,) * (m - 1 + n), f"{t}*w1"
        elif t <= m * (ell - 1):
            bos, i, t_i = _fill(t, ell, m)
            entries, label = bos + (0,) * n, f"({ell - 1 - t_i})*w{i - 1} + {t_i}*w{i}"
        else:
            p = t - m * (ell - 1)
            entries = (ell - 1,) * m + (1,) * p + (0,) * (n - p)
            label = f"({ell - 2})*w{m} + w{m + p}"
    elif t <= m:
        entries, label = (1,) * t + (0,) * (m - t + n), f"w{t}"
    elif space.family is Family.DUAL:
        if n == 0:
            return None
        entries, label = (1,) * m + (t - m,) + (0,) * (n - 1), f"w{m} + {t - m}*e{m + 1}"
    else:
        bos, i, t_i = _fill(t - m, ell, n)
        entries = (1,) * m + bos
        label = f"w{m} + ({ell - 1})*(e{m + 1}..e{m + i - 1}) + {t_i}*e{m + i}"
    idx = MultiIndex(entries, shape)
    return idx, tuple(idx.entries), label


def _generator_images(space: SpaceSpec,
                      basis: tuple[MultiIndex, ...]) -> dict[MultiIndex, list[dict]]:
    """The image terms of E_1, .., E_{m+n-1}, then of F_1, .., on each monomial."""
    words = [generator_word(kind, j, space)
             for kind in (Gen.E, Gen.F) for j in range(1, space.shape.size)]
    images = {}
    for idx in basis:
        u = SuperVector.monomial(space, idx)
        images[idx] = [apply_word(w, u).terms for w in words]
    return images


def _highest_weight_space(space: SpaceSpec, basis: tuple[MultiIndex, ...],
                          images: dict) -> list[SuperVector]:
    """Exact joint kernel of all raising operators on the span of basis.

    Each basis monomial contributes the row of its stacked E_j images, tagged
    with itself; the relations left by rows that reduce to zero are the
    kernel, each scaled to 1 at its least monomial.  Each E_j sends a
    monomial to a multiple of one monomial by one fixed shift, so no two
    rows share a key (j, target), no row is ever reduced, and the kernel is
    the monomials that no E_j maps to a nonzero image, each a weight vector.
    """
    raisers = space.shape.size - 1
    rs = RowSpace()
    for idx in basis:
        row = {
            (j, oidx.entries): coeff
            for j, terms in enumerate(images[idx][:raisers])
            for oidx, coeff in terms.items()
        }
        rs.add(row, {idx: space.mode.one()})
    kernel = [SuperVector(space, rel) for rel in rs.relations]
    return [v.scaled(v.terms[min(v.terms)].inverse()) for v in kernel]


def _reach(seed, edges: dict) -> set:
    """The nodes reachable from seed along edges (node -> its targets)."""
    reached, todo = {seed}, [seed]
    while todo:
        for nxt in edges[todo.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    return reached


def _first_proper_span(basis: tuple[MultiIndex, ...], images: dict):
    """The first seed in basis whose submodule is proper, with its rank (the
    monomials it reaches: each E_j / F_j word sends a monomial to a multiple of
    one), or None.  Three searches: basis[0] is the seed if it misses a
    monomial; else a seed reaches all exactly when it reaches basis[0], so a
    search back from basis[0] finds the first one that does not."""
    edges, back = {}, {idx: [] for idx in basis}
    for idx in basis:
        if any(len(img) > 1 for img in images[idx]):
            raise RuntimeError(f"a generator sends {idx} to a sum of monomials")
        edges[idx] = [nxt for img in images[idx] for nxt in img]
        for nxt in edges[idx]:
            back[nxt].append(idx)
    if not basis:
        return None
    rank = len(_reach(basis[0], edges))
    if rank < len(basis):
        return basis[0], rank
    to_first = _reach(basis[0], back)
    seed = next((idx for idx in basis if idx not in to_first), None)
    return None if seed is None else (seed, len(_reach(seed, edges)))


@dataclass
class ComponentReport:
    space: SpaceSpec
    t: int
    dim: int
    dim_by_formula: int
    hw_basis: list[list[dict]]
    hw_weights: list[tuple[tuple[int, ...], int]]
    expected_hw: dict | None
    hw_matches_expected: bool | None
    simple: str  # "simple" | "not_simple" | "inconclusive"
    witnesses: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        ok = self.dim == self.dim_by_formula and self.simple == "simple"
        if self.hw_matches_expected is not None:
            ok = ok and self.hw_matches_expected
        return ok

    def to_json(self) -> dict:
        verdict = {"simple": True, "not_simple": False}.get(self.simple, "inconclusive")
        return {
            "space": self.space.describe(),
            "t": self.t,
            "dim": self.dim,
            "dim_formula": self.dim_by_formula,
            "hw_basis": self.hw_basis,
            "hw_weight": [list(w) for w, _ in self.hw_weights],
            "hw_parity": [p for _, p in self.hw_weights],
            "expected_hw": self.expected_hw,
            "hw_matches_expected": self.hw_matches_expected,
            "simple": verdict,
            "witnesses": self.witnesses,
        }


def component_report(space: SpaceSpec, t: int) -> ComponentReport:
    """Dimension, highest-weight data and a simplicity certificate for the
    degree-t component."""
    if space.family is Family.AFFINE:
        raise ValueError("module structure lives on the Grassmann-type spaces")
    dim_closed = dim_formula(space, t)  # raises on out-of-range t
    basis = basis_of_degree(space, t)
    dim = len(basis)
    witnesses: list = []

    # weight-separation precondition
    weights: dict[tuple, MultiIndex] = {}
    separated = True
    for idx in basis:
        w = weight_of(space, idx)
        if w in weights:
            separated = False
            witnesses.append(
                {"weight_collision": [str(weights[w]), str(idx)], "weight": list(w[0])}
            )
            break
        weights[w] = idx

    images = _generator_images(space, basis)
    kernel = _highest_weight_space(space, basis, images)
    # every kernel vector is one monomial (_highest_weight_space), so a weight vector
    hw_weights = [weight_of(space, idx) for (idx,) in (vec.terms for vec in kernel)]

    expected = expected_highest_weight(space, t)
    expected_json = None
    matches: bool | None = None
    if expected is not None:
        idx, weps, label = expected
        expected_json = {"monomial": str(idx), "weight": list(weps), "label": label}
        matches = len(kernel) == 1 and kernel[0] == SuperVector.monomial(space, idx)
        if not matches:
            witnesses.append({"hw_mismatch": [v.to_json() for v in kernel]})

    # a proper reach set spans a submodule with or without weight separation;
    # without it, every seed reaching the whole basis proves nothing
    verdict = "simple" if separated else "inconclusive"
    proper = _first_proper_span(basis, images)
    if proper is not None:
        verdict = "not_simple"
        witnesses.append({"seed_with_proper_span": str(proper[0]), "span_rank": proper[1]})

    return ComponentReport(
        space=space,
        t=t,
        dim=dim,
        dim_by_formula=dim_closed,
        hw_basis=[v.to_json() for v in kernel],
        hw_weights=hw_weights,
        expected_hw=expected_json,
        hw_matches_expected=matches,
        simple=verdict,
        witnesses=witnesses,
    )
