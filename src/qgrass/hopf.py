"""Finitely presented pointed Hopf algebras of diagonal type, with axioms
checked mechanically.

Every algebra in scope has the same skeleton: a finitely generated abelian
group of group-like generators acting diagonally on skew-primitive generators
that q-commute pairwise and are nilpotent (or free).  Normal forms are
(ordered power product of skew primitives) times (canonical group element), so
elements are sparse maps from normal-form keys to coefficients and all
products are scalar-twisted exponent merges.

Each family is the bosonization R # kG of a quantum linear space (a diagonal
braiding, Andruskiewitsch-Schneider) and is built from one datum: the names
of the group generators, the named rows of G's relation lattice, the skew
generators with their coproduct legs and nilpotency caps, and the conjugation
characters chi, signed powers (-1)^lam q^mu kept as integer pairs (lam, mu)
(the form of ``superspaces.MonomialRule``'s constant; a ScalarQ is built only
where a relation, a product or a report needs one).  The braiding
q_ij = chi_{gL_i gR_i^-1}(x_j) is derived, once, from chi and the legs.  A
builder computes only the datum; ``_from_datum`` derives every defining
relation (a lattice row as the group word "positive part = negative part",
the conjugations, x_i x_j = q_ij x_j x_i and the nilpotencies).

The group is an explicit quotient of Z^k by a relation lattice, canonicalized
through an echelon basis; orders and dimensions come from the lattice, not
from closed-form claims.  Coproduct, counit and antipode live on the
generators and extend (anti)multiplicatively; the axiom checker evaluates
coassociativity, the counit laws, the antipode convolution identity, and
compatibility of the coproduct with every defining relation inside the tensor
square.  It also probes associativity on generator triples, which holds
exactly when every conjugation character kills the group's carries on pairs of
group generators (proof at the probe) -- the stated fermionic group orders of
the mixed-type presentations fail this probe, which the report records as
named warnings rather than hiding.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .indices import MultiIndex, Shape, theta_exponents
from .qarith import (
    GENERIC,
    QMode,
    QParity,
    ScalarQ,
    _constant,
    add_term,
    char_of,
    q_binom,
    q_binom_unbalanced,
)

__all__ = [
    "AbelianQuotient",
    "HopfPresentation",
    "build",
    "HOPF_FAMILIES",
    "pbw_dim",
    "verify_hopf",
    "divided_power_coproduct_check",
]


# ---------------------------------------------------------------------------
# finitely generated abelian groups as lattice quotients
# ---------------------------------------------------------------------------


class AbelianQuotient:
    """Z^k modulo the row lattice of integer relation vectors."""

    def __init__(self, rank: int, relations: list[tuple[int, ...]]):
        self.rank = rank
        self.relations = [tuple(r) for r in relations if any(r)]
        self._pivots = _echelon(self.relations, rank)

    def reduce(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        v = list(vec)
        for col, row in self._pivots.items():
            t = v[col] // row[col]
            if t:
                for i in range(col, self.rank):
                    v[i] -= t * row[i]
        return tuple(v)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self.reduce(tuple(map(operator.add, a, b)))

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self.reduce(tuple(-x for x in a))

    def power(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        return self.reduce(tuple(k * x for x in a))

    def order(self) -> int | float:
        if len(self._pivots) < self.rank:
            return math.inf
        out = 1
        for col, row in self._pivots.items():
            out *= row[col]
        return out

    def elements(self) -> list[tuple[int, ...]]:
        if self.order() is math.inf:
            raise ValueError("infinite group")
        # with a pivot in every column the canonical transversal is the box
        # of exponent vectors below the pivot values
        ranges = [range(self._pivots[c][c]) for c in range(self.rank)]
        return [tuple(v) for v in itertools.product(*ranges)]


def _echelon(rows: list[tuple[int, ...]], ncols: int) -> dict[int, list[int]]:
    """An echelon basis of the row lattice, by pivot column in column order:
    each row is 0 before its pivot, which is positive, since Euclid's
    algorithm on a column leaves one row nonzero there.  A vector whose
    every pivot entry lies in [0, pivot), as reduce leaves it, is the one
    such vector in its coset, so the entries above a pivot need no
    reduction."""
    work = [list(r) for r in rows]
    pivots: dict[int, list[int]] = {}
    for col in range(ncols):
        live = [r for r in work if r[col]]
        if not live:
            continue
        # combine rows until a single one carries this column
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a, b = live[0], live[1]
            t = b[col] // a[col]
            for i in range(ncols):
                b[i] -= t * a[i]
            live = [r for r in live if r[col]]
        piv = live[0]
        if piv[col] < 0:
            for i in range(ncols):
                piv[i] = -piv[i]
        work = [r for r in work if any(r) and r is not piv]
        pivots[col] = piv
    return pivots


# ---------------------------------------------------------------------------
# presentation data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewGen:
    """Nilpotent/skew-primitive generator with Delta(x) = x (x) gR + gL (x) x."""

    name: str
    cap: int | None  # x^cap = 0; None = free exponent
    gL: tuple[int, ...]
    gR: tuple[int, ...]


Word = tuple[tuple[str, int], ...]  # letters ("x", i) / ("g", i)
Power = tuple[int, int]  # (lam, mu): the signed power (-1)^lam q^mu
Key = tuple[tuple[int, ...], tuple[int, ...]]  # (x exponents, group element)
_UNSET = object()  # a memo miss; None is a memoised product (a cap overflow)


@dataclass
class HopfPresentation:
    """A presentation with its structure maps.  It is immutable once ``build``
    returns, and ``_memo`` holds, filled on demand and keyed by a leading tag:
    ("product", ka), the row {kb: (coeff, key) or None} of the normal forms of
    the products ka kb that ``_key_product`` was asked for; ("key", key), the
    one stored copy of each key those products give; ("Sx", i), S(x_i); and
    ("S", key) and ("Delta", key), S and Delta of each basis key.
    It lives as long as the presentation.  Memoised values are shared;
    callers read them and never mutate them."""

    family: str
    mode: QMode
    group_names: list[str]
    group: AbelianQuotient
    xgens: list[SkewGen]
    chi: list[list[Power]]  # chi[g][x]: g x g^-1 = chi * x
    relations: list[tuple[str, list[tuple[ScalarQ, Word]]]]
    params: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ---- elements ---------------------------------------------------------

    def unit(self) -> dict[Key, ScalarQ]:
        return {((0,) * len(self.xgens), self.group.identity()): self.mode.one()}

    def gen_x(self, i: int) -> dict[Key, ScalarQ]:
        return {(_vec(len(self.xgens), (i, 1)), self.group.identity()): self.mode.one()}

    def gen_g(self, i: int, e: int = 1) -> dict[Key, ScalarQ]:
        gv = [0] * self.group.rank
        gv[i] = e
        return {((0,) * len(self.xgens), self.group.reduce(tuple(gv))): self.mode.one()}

    def chi_of(self, gvec: tuple[int, ...], j: int) -> Power:
        """chi_g(x_j) for g = prod g_i^gvec[i]: the signed powers add."""
        lam = mu = 0
        for gi, e in enumerate(gvec):
            if e:
                cl, cm = self.chi[gi][j]
                lam += e * cl
                mu += e * cm
        return lam, mu

    @functools.cached_property
    def braiding(self) -> list[list[Power]]:
        """braiding[i][j] = chi_{gL_i gR_i^-1}(x_j): x_i x_j = braiding[i][j] x_j x_i
        for j != i, and the swap character of Delta(x_i) for j = i."""
        return [[self.chi_of(tuple(map(operator.sub, g.gL, g.gR)), j)
                 for j in range(len(self.xgens))] for g in self.xgens]

    def _key_product(self, ka: Key, kb: Key) -> tuple[ScalarQ, Key] | None:
        """_normal_form(ka, kb), memoised: each key pair is reduced once, and
        each result key is stored once however many pairs give it."""
        row = self._memo.get(("product", ka))
        if row is None:
            row = self._memo[("product", ka)] = {}
        hit = row.get(kb, _UNSET)
        if hit is _UNSET:
            hit = self._normal_form(ka, kb)
            if hit is not None:
                hit = hit[0], self._memo.setdefault(("key", hit[1]), hit[1])
            row[kb] = hit
        return hit

    def _normal_form(self, ka: Key, kb: Key) -> tuple[ScalarQ, Key] | None:
        """Normal form of the product of two basis keys, or None when a capped
        x exponent overflows: kb's x part moves past ka's group part (chi
        twist) and past ka's later x generators (braiding).  The algebra is
        a quantum linear space over an abelian group, so the product is one
        signed power of q, the sum of the twists, times one key."""
        (xa, ga), (xb, gb) = ka, kb
        xv = tuple(map(operator.add, xa, xb))
        for g, e in zip(self.xgens, xv):
            if g.cap is not None and e >= g.cap:
                return None
        lam = mu = 0
        for j, e in enumerate(xb):
            if e:
                cl, cm = self.chi_of(ga, j)
                lam += e * cl
                mu += e * cm
        for i, ai in enumerate(xa):
            if ai:
                for j in range(i):
                    if xb[j]:
                        cl, cm = self.braiding[i][j]
                        lam += ai * xb[j] * cl
                        mu += ai * xb[j] * cm
        return _signed_power(self.mode, lam, mu), (xv, self.group.mul(ga, gb))

    def mul(self, u: dict[Key, ScalarQ], v: dict[Key, ScalarQ]) -> dict[Key, ScalarQ]:
        out: dict[Key, ScalarQ] = {}
        for ka, ca in u.items():
            for kb, cb in v.items():
                hit = self._key_product(ka, kb)
                if hit is not None:
                    add_term(out, hit[1], ca * cb * hit[0])
        return out

    def scale(self, u: dict[Key, ScalarQ], c: ScalarQ) -> dict[Key, ScalarQ]:
        if c.is_zero():
            return {}
        return {k: a * c for k, a in u.items()}

    # ---- structure maps ---------------------------------------------------

    def _grow(self, tag: str, key: Key, base, step) -> dict:
        """The memoised map tag of key = x^a g: base(key) at a = 0, else
        step(i, tag(x^(a-e_i) g)) for the first x generator x_i of the key,
        folded in a loop from the nearest memoised prefix."""
        misses = []
        while (out := self._memo.get((tag, key))) is None:
            xv, gv = key
            i = next((i for i, e in enumerate(xv) if e), None)
            if i is None:
                out = self._memo[(tag, key)] = base(key)
                break
            misses.append((i, key))
            key = (xv[:i] + (xv[i] - 1,) + xv[i + 1:], gv)
        for i, key in reversed(misses):
            out = self._memo[(tag, key)] = step(i, out)
        return out

    def antipode_key(self, key: Key) -> dict[Key, ScalarQ]:
        """S of one basis key, memoised: the returned dict is shared.
        S(x^a g) = S(g) S(x_n)^a_n ... S(x_1)^a_1 = S(x^(a-e_i) g) S(x_i)."""
        return self._grow("S", key, lambda k: {(k[0], self.group.inv(k[1])): self.mode.one()},
                          lambda i, s: self.mul(s, self._antipode_x(i)))

    def antipode(self, u: dict[Key, ScalarQ]) -> dict[Key, ScalarQ]:
        out: dict[Key, ScalarQ] = {}
        for key, c in u.items():
            for k, v in self.antipode_key(key).items():
                add_term(out, k, v * c)
        return out

    def _antipode_x(self, i: int) -> dict[Key, ScalarQ]:
        # S(x) = -gL^-1 x gR^-1, forced by the convolution identity
        image = self._memo.get(("Sx", i))
        if image is None:
            g = self.xgens[i]
            left = {((0,) * len(self.xgens), self.group.inv(g.gL)): self.mode.one()}
            right = {((0,) * len(self.xgens), self.group.inv(g.gR)): self.mode.one()}
            image = self.scale(self.mul(self.mul(left, self.gen_x(i)), right), -self.mode.one())
            self._memo[("Sx", i)] = image
        return image

    # ---- tensor square ----------------------------------------------------

    def tensor_mul(self, u: dict, v: dict) -> dict:
        """Product in the tensor square, leg by leg (no braiding)."""
        out: dict = {}
        for ka, ca in u.items():
            for kb, cb in v.items():
                coeff = ca * cb
                key = []
                for la, lb in zip(ka, kb):
                    hit = self._key_product(la, lb)
                    if hit is None:
                        break
                    coeff = coeff * hit[0]
                    key.append(hit[1])
                else:
                    add_term(out, tuple(key), coeff)
        return out

    def tensor_unit(self) -> dict:
        key = ((0,) * len(self.xgens), self.group.identity())
        return {(key, key): self.mode.one()}

    def delta_gen_x(self, i: int) -> dict:
        zero_x, xv, g = (0,) * len(self.xgens), _vec(len(self.xgens), (i, 1)), self.xgens[i]
        return {
            ((xv, self.group.identity()), (zero_x, self.group.reduce(g.gR))): self.mode.one(),
            ((zero_x, self.group.reduce(g.gL)), (xv, self.group.identity())): self.mode.one(),
        }

    def delta_key(self, key: Key) -> dict:
        """Delta of one basis key, memoised: the returned dict is shared.
        Delta(x^a g) = Delta(x_1)^a_1 ... Delta(x_n)^a_n (g (x) g)
        = Delta(x_i) Delta(x^(a-e_i) g)."""
        return self._grow("Delta", key, lambda k: {(k, k): self.mode.one()},
                          lambda i, d: self.tensor_mul(self.delta_gen_x(i), d))

    def delta(self, u: dict[Key, ScalarQ]) -> dict:
        out: dict = {}
        for k, c in u.items():
            for kk, cc in self.delta_key(k).items():
                add_term(out, kk, cc * c)
        return out

    def delta_leg(self, tel: dict, leg: int) -> dict:
        """Apply Delta to one leg of a tensor element."""
        out: dict = {}
        for key, c in tel.items():
            for kk, cc in self.delta_key(key[leg]).items():
                add_term(out, key[:leg] + kk + key[leg + 1 :], cc * c)
        return out

    # ---- bases ------------------------------------------------------------

    def x_dim(self) -> int | float:
        out = 1
        for g in self.xgens:
            if g.cap is None:
                return math.inf
            out *= g.cap
        return out

    def basis_keys(self) -> list[Key]:
        if self.x_dim() is math.inf or self.group.order() is math.inf:
            raise ValueError("infinite presentation has no finite basis")
        xr = [range(g.cap) for g in self.xgens]
        return [
            (tuple(xv), gv)
            for xv in itertools.product(*xr)
            for gv in self.group.elements()
        ]

    def render_key(self, key: Key) -> str:
        xv, gv = key
        parts = [f"{self.xgens[i].name}^{e}" if e > 1 else self.xgens[i].name
                 for i, e in enumerate(xv) if e]
        parts += [f"{self.group_names[i]}^{e}" if e != 1 else self.group_names[i]
                  for i, e in enumerate(gv) if e]
        return " ".join(parts) or "1"

    def render_element(self, u: dict[Key, ScalarQ]) -> str:
        if not u:
            return "0"
        return " + ".join(f"({c}) {self.render_key(k)}" for k, c in sorted(u.items()))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "mode": "generic" if self.mode.is_generic else f"root-of-unity d={self.mode.d}",
            "group": {
                "generators": self.group_names,
                "relations": [list(r) for r in self.group.relations],
                "order": _dim_json(self.group.order()),
            },
            "skew_generators": [
                {
                    "name": g.name,
                    "nilpotency": g.cap,
                    "coproduct": f"{g.name} (x) {self._gname(g.gR)} + {self._gname(g.gL)} (x) {g.name}",
                    "antipode": self.render_element(self.antipode(self.gen_x(i))),
                    "counit": "0",
                }
                for i, g in enumerate(self.xgens)
            ],
            "relations": [name for name, _ in self.relations],
            "warnings": self.warnings,
        }

    def _gname(self, gv: tuple[int, ...]) -> str:
        return self.render_key(((0,) * len(self.xgens), self.group.reduce(gv)))


def _dim_json(v: int | float):
    return "infinite" if v is math.inf else int(v)


def _signed_power(mode: QMode, lam: int, mu: int) -> ScalarQ:
    """(-1)^lam q^mu as a shared constant; mu is taken mod d at a root of
    unity of order d (q^d = 1), so the constants' cache keys stay bounded."""
    return _constant(mode, -1 if lam & 1 else 1, mu if mode.is_generic else mu % mode.d)


def _fold(mode: QMode, lam: int, mu: int) -> Power:
    """The one pair of (-1)^lam q^mu: equal scalars, equal pairs.  At even d,
    -1 = q^(d/2), so the sign folds into the exponent."""
    if mode.is_generic:
        return lam & 1, mu
    if mode.d % 2 == 0:
        return 0, (mu + lam * (mode.d // 2)) % mode.d
    return lam & 1, mu % mode.d


def _power_order(mode: QMode, lam: int, mu: int) -> int | None:
    """The least k >= 1 with ((-1)^lam q^mu)^k = 1, or None: of the folded
    pair, d / gcd(mu, d) at a root of unity of order d, lcm with 2 for a kept
    sign; in Q(v) only +-1 have finite order."""
    lam, mu = _fold(mode, lam, mu)
    if mode.is_generic:
        return None if mu else 1 + lam
    return math.lcm(mode.d // math.gcd(mu, mode.d), 1 + lam)


def pbw_dim(p: HopfPresentation) -> int | float:
    """Exact count of normal-form monomials (nilpotent part times group)."""
    xd = p.x_dim()
    gd = p.group.order()
    if xd is math.inf or gd is math.inf:
        return math.inf
    return xd * gd


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


HOPF_FAMILIES = (
    "taft-mn",
    "taft-orders",
    "taft-orders-generalized",
    "aq",
    "dq",
    "dq-restricted",
    "gq",
    "gq-restricted",
)


def _theta_gens(shape: Shape, i: int, j: int) -> Power:
    return theta_exponents(MultiIndex.basis_vector(shape, i), MultiIndex.basis_vector(shape, j))


def _vec(rank: int, *entries: tuple[int, int]) -> tuple[int, ...]:
    """The integer vector of length rank holding, per column, the sum of the
    e of the (column, e) entries given."""
    v = [0] * rank
    for col, e in entries:
        v[col] += e
    return tuple(v)


def _order_row(group_names: list[str], col: int, o: int) -> tuple[str, tuple[int, ...]]:
    """The named lattice row of g^o = 1, g the group generator in column col."""
    return f"{group_names[col]}^{o} = 1", _vec(len(group_names), (col, o))


@dataclass(frozen=True)
class _Naming:
    """How a family names its relations in the reports: g x = chi x g (fields
    g, x), x_i x_j = c x_j x_i (fields a, b) and, when the family lists them,
    g_i g_j = g_j g_i.  by_generator lists the conjugations by each g_i next
    to x_i's own relations instead of all conjugations first."""

    conjugation: str
    commutation: str
    group_commutation: str | None = None
    by_generator: bool = False


_MIXED = _Naming("{g} {x} = chi {x} {g}", "{a} {b} = c {b} {a}", "{a} {b} commute")
_DIAGONAL = _Naming("{g} {x} = mu {x} {g}", "{a} {b} = mu {b} {a}", by_generator=True)
_DQ = _Naming("{g} {x} conjugation", "{a} {b} twisted commutation")


def _from_datum(family: str, mode: QMode, group_names: list[str],
                rows: list[tuple[str, tuple[int, ...]]], xgens: list[SkewGen],
                chi: list[list[Power]], params: dict, naming: _Naming,
                listed: list | None = None) -> HopfPresentation:
    """The bosonization R # kG of one diagonal braiding datum.

    G is Z^k (k = len(group_names)) modulo the named lattice rows; the skew
    generators carry their coproduct legs and nilpotency caps; chi[g][x] is
    the conjugation signed power, and the braiding q_ij derives from chi and
    the legs.  The defining relations follow, in this order: each row r as the
    group word r+ = r- (its positive part equal to its negative part), in the
    order listed (default: the lattice order); g_i g_j = g_j g_i when the
    naming has it; g x = chi x g; x_i x_j = q_ij x_j x_i for j < i; x^cap = 0."""
    one = mode.one()

    def swap(a: tuple[str, int], b: tuple[str, int], c: Power) -> list:
        return [(one, (a, b)), (_signed_power(mode, c[0] + 1, c[1]), (b, a))]  # a b = c b a

    def part(row: tuple[int, ...], sign: int) -> Word:
        return tuple(("g", col) for col, e in enumerate(row) for _ in range(max(sign * e, 0)))

    gs, xs = group_names, [g.name for g in xgens]
    pres = HopfPresentation(family, mode, gs, AbelianQuotient(len(gs), [row for _, row in rows]),
                            xgens, chi, [], params)  # relations below
    relations = [(name, [(one, part(row, 1)), (-one, part(row, -1))])
                 for name, row in (rows if listed is None else listed)]
    if naming.group_commutation:
        relations += [(naming.group_commutation.format(a=gs[i], b=gs[j]),
                       swap(("g", i), ("g", j), (0, 0)))
                      for i in range(len(gs)) for j in range(i + 1, len(gs))]
    conjugations = [[(naming.conjugation.format(g=gs[gi], x=xs[xj]),
                      swap(("g", gi), ("x", xj), chi[gi][xj])) for xj in range(len(xs))]
                    for gi in range(len(gs))]
    own = []  # x_i past each earlier x_j, then x_i's nilpotency
    for i, xg in enumerate(xgens):
        block = [(naming.commutation.format(a=xs[i], b=xs[j]),
                  swap(("x", i), ("x", j), pres.braiding[i][j])) for j in range(i)]
        if xg.cap is not None:
            block.append((f"{xg.name}^{xg.cap} = 0", [(one, (("x", i),) * xg.cap)]))
        own.append(block)
    blocks = ([b for pair in zip(conjugations, own) for b in pair] if naming.by_generator
              else conjugations + own)
    pres.relations = relations + [rel for block in blocks for rel in block]
    _character_warnings(pres)
    return pres


def _character_warnings(pres: HopfPresentation) -> None:
    """Record each lattice row r and generator x_j with chi_r(x_j) != 1."""
    for rel in pres.group.relations:
        for j, xg in enumerate(pres.xgens):
            val = pres.chi_of(rel, j)
            if _fold(pres.mode, *val) != (0, 0):
                pres.warnings.append(
                    f"group relation {list(rel)} conjugates {xg.name} by "
                    f"{_signed_power(pres.mode, *val)}, not 1 "
                    "(stated group order is smaller than the character order)"
                )


def build(family: str, *, mode: QMode = GENERIC, m: int | None = None, n: int | None = None,
          orders: tuple[int, ...] | None = None, group_orders: tuple[int, ...] | None = None,
          nilpotency_caps: bool = True, coproduct_variant: str = "plus",
          partial_caps: bool | None = None) -> HopfPresentation:
    """Construct one of the supported presentations.

    Families and the keywords they read besides mode: taft-mn, aq (m, n);
    gq / gq-restricted (m, n, nilpotency_caps); dq / dq-restricted (m, n,
    coproduct_variant='plus'|'minus', partial_caps); taft-orders (orders);
    taft-orders-generalized (orders, group_orders); a missing one of these
    raises ValueError naming it.  The diagonal families
    take the matrix with q^(d / orders[i]) on the diagonal and 1 elsewhere.
    """
    if family not in HOPF_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {HOPF_FAMILIES}")
    given = {"m": m, "n": n, "orders": orders, "group_orders": group_orders}
    needed = {"taft-orders": ("orders",), "taft-orders-generalized": ("orders", "group_orders")}
    missing = [k for k in needed.get(family, ("m", "n")) if given[k] is None]
    if missing:
        raise ValueError(f"{family} needs the keyword(s) {', '.join(missing)}")
    if family in ("dq", "dq-restricted"):
        return _build_dq(family, m, n, mode, coproduct_variant, partial_caps)
    if family in ("taft-orders", "taft-orders-generalized"):
        return _build_diagonal(family, mode, orders, group_orders)
    if family == "taft-mn":
        if mode.is_generic:
            raise ValueError("the finite multi-rank family needs q of finite order")
        L = mode.d  # nilpotency bound is the order of q here
        return _build_mixed(family, m, n, mode, x_cap=L, k_order=L, diag_exp=1, order_of_q=L)
    if family == "aq":
        return _build_mixed(family, m, n, mode, x_cap=None, k_order=mode.d, diag_exp=1,
                            group_order_cap=not mode.is_generic)
    if mode.is_generic:  # gq, gq-restricted
        if family == "gq-restricted":
            raise ValueError("the restricted bosonization needs char(q) = ell >= 3")
        return _build_mixed(family, m, n, mode, x_cap=None, k_order=None, diag_exp=2)
    profile = char_of(mode)
    if profile.parity is not QParity.ODD_ROOT:
        raise ValueError("the divided-power bosonization is stated for odd char(q)")
    ell = profile.ell
    return _build_mixed(family, m, n, mode, x_cap=ell if nilpotency_caps else None,
                        k_order=ell, diag_exp=2, tops=family == "gq" and nilpotency_caps,
                        ell=ell)


def _build_mixed(family: str, m: int, n: int, mode: QMode, *, x_cap: int | None,
                 k_order: int | None, diag_exp: int, tops: bool = False,
                 **params) -> HopfPresentation:
    """The coordinate-side bosonizations: group-likes K_i over the (m|n)
    grading, coordinates x_i with the twist commutation, and the one-sided
    coproduct Delta(x_i) = x_i (x) 1 + K_i (x) x_i; tops adds a free, central
    x_i^(top) per bosonic coordinate.  params follow m and n in the report."""
    if m + n < 1:
        raise ValueError("need at least one generator")
    shape, size = Shape(m, n), m + n
    names_g = [f"K{i}" for i in range(1, size + 1)]
    rows = [_order_row(names_g, i, k_order if i < m else 2)
            for i in range(size) if i >= m or k_order is not None]
    zero_g = (0,) * size
    xgens = [SkewGen(f"x{i + 1}", x_cap if i < m else 2, _vec(size, (i, 1)), zero_g)
             for i in range(size)]
    if tops:
        xgens += [SkewGen(f"x{i}^(top)", None, zero_g, zero_g) for i in range(1, m + 1)]
    chi = [[(0, 0)] * len(xgens) for _ in range(size)]  # the tops are central
    for i in range(size):
        for j in range(size):
            chi[i][j] = _theta_gens(shape, i + 1, j + 1)
        chi[i][i] = (0, diag_exp) if i < m else (1, 0)  # K_i on x_i: q^diag_exp, or -1 if odd
    return _from_datum(family, mode, names_g, rows, xgens, chi,
                       {"m": m, "n": n, **params}, _MIXED)


def _build_diagonal(family: str, mode: QMode, orders: tuple[int, ...],
                    group_orders: tuple[int, ...] | None) -> HopfPresentation:
    """Multi-rank Taft algebras over a diagonal matrix mu: x_i of nilpotency
    orders[i], K_i of order group_orders[i] (orders[i] for taft-orders) and
    Delta(x_i) = x_i (x) 1 + K_i (x) x_i; mu conjugates, so mu braids."""
    orders = tuple(orders)
    if any(o < 1 for o in orders):
        raise ValueError(f"orders must be positive, got {list(orders)}")
    if 1 in orders:
        raise ValueError(f"an order of 1 makes x{orders.index(1) + 1} zero; "
                         f"nilpotency orders must be at least 2, got {list(orders)}")
    n = len(orders)
    if family == "taft-orders-generalized":
        group_orders = tuple(group_orders)
        if len(group_orders) != n or any(g < 1 or g % l for g, l in zip(group_orders, orders)):
            raise ValueError("group orders must be positive multiples of the nilpotency orders")
    else:
        group_orders = orders
    if mode.is_generic:
        raise ValueError("need a root-of-unity mode to build the diagonal matrix")
    mu = [[(0, 0)] * n for _ in range(n)]
    for i, o in enumerate(orders):
        if mode.d % o:
            raise ValueError(f"order {o} does not divide the order of q ({mode.d})")
        mu[i][i] = (0, mode.d // o)  # exact order o (tests/test_hopf.py)
    names_g = [f"K{i}" for i in range(1, n + 1)]
    xgens = [SkewGen(f"x{i + 1}", o, _vec(n, (i, 1)), (0,) * n) for i, o in enumerate(orders)]
    return _from_datum(family, mode, names_g,
                       [_order_row(names_g, i, o) for i, o in enumerate(group_orders)],
                       xgens, mu,
                       {"orders": list(orders), "group_orders": list(group_orders)}, _DIAGONAL)


def _build_dq(family: str, m: int, n: int, mode: QMode,
              coproduct_variant: str = "plus", partial_caps: bool | None = None) -> HopfPresentation:
    """The pointed-Hopf cover of the derivative algebra: grading twists,
    exterior involutions and twist labels as group-likes over the derivative
    Nichols algebra, with the label-dependency relations."""
    if m + n < 1:
        raise ValueError("need at least one generator")
    shape, size = Shape(m, n), m + n
    restricted = family == "dq-restricted"
    if restricted and (mode.is_generic or char_of(mode).ell < 3):
        raise ValueError("the restricted cover needs char(q) = ell >= 3")
    if coproduct_variant not in ("plus", "minus"):
        raise ValueError("coproduct_variant must be 'plus' or 'minus'")
    # group generators: sigma_1.. , tau_(m+1).., Theta_1..
    names_g = [f"s{i}" for i in range(1, size + 1)]
    names_g += [f"t{j}" for j in range(m + 1, size + 1)]
    names_g += [f"Th{i}" for i in range(1, size + 1)]
    rank = 2 * size + n

    def sig(i):  # 1-based
        return i - 1

    def ta(j):
        return size + (j - m - 1)

    def th(i):
        return size + n + i - 1

    t_rows = [_order_row(names_g, ta(j), 2) for j in range(m + 1, size + 1)]
    th_rows = []  # twist-label dependency on the simple roots
    for i in range(1, size):
        taus = [(ta(j), -1) for j in range(m + 1, size + 1)] if i == m else []
        th_rows.append((f"Th{i + 1} = Th{i} s{i} s{i + 1}" + (" tau" if i == m else ""),
                        _vec(rank, (th(i + 1), 1), (th(i), -1), (sig(i), -1), (sig(i + 1), -1),
                             *taus)))
    order_rows = []
    if restricted:
        profile = char_of(mode)
        for i in range(1, size + 1):
            # order of the eigenvalue system: the exterior directions carry
            # base -q, hence the doubled order at an odd root
            odd = profile.parity is QParity.ODD_ROOT and i <= m
            o = profile.ell if odd else 2 * profile.ell
            order_rows += [_order_row(names_g, col, o) for col in (sig(i), th(i))]

    minus_variant = coproduct_variant == "minus"
    use_caps = restricted if partial_caps is None else partial_caps and not mode.is_generic
    xgens = []
    for i in range(1, size + 1):
        if i <= m:
            cap = char_of(mode).ell if use_caps else None
            gR = _vec(rank, (sig(i), 1 if minus_variant else -1))
            gL = _vec(rank, (th(i), -1), (sig(i), -1 if minus_variant else 1))
        else:
            cap, gR, gL = 2, (0,) * rank, _vec(rank, (th(i), -1), (ta(i), 1))
        xgens.append(SkewGen(f"d{i}", cap, gL, gR))

    chi = [[(0, 0)] * size for _ in range(rank)]
    for i in range(1, size + 1):  # x-gen d_i: s_i conjugates it by q^-1 (-q^-1 if odd), t_i by -1
        chi[sig(i)][i - 1] = (int(i > m), -1)
        for g in range(1, size + 1):
            chi[th(g)][i - 1] = _theta_gens(shape, i, g)
        if i > m:
            chi[ta(i)][i - 1] = (1, 0)

    # the relation list puts the label dependencies first, the tau orders last
    return _from_datum(family, mode, names_g, t_rows + th_rows + order_rows, xgens, chi,
                       {"m": m, "n": n, "coproduct_variant": coproduct_variant}, _DQ,
                       listed=th_rows + order_rows + t_rows)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass
class HopfCheck:
    name: str
    passed: bool
    detail: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class HopfReport:
    presentation: HopfPresentation
    depth: str
    checks: list[HopfCheck]
    probes: list[HopfCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "family": self.presentation.family,
            "params": self.presentation.params,
            "dimension": _dim_json(pbw_dim(self.presentation)),
            "depth": self.depth,
            "passed": self.passed,
            "warnings": self.presentation.warnings,
            "checks": [c.to_json() for c in self.checks],
            "probes": [c.to_json() for c in self.probes],
        }


def verify_hopf(pres: HopfPresentation, depth: str = "generators") -> HopfReport:
    """Check the Hopf axioms: the coproduct and counit respect every defining
    relation (inside the tensor-square normal-form algebra), coassociativity,
    the counit laws and the antipode convolution identity -- on generators, or
    on every normal-form basis element when depth='exhaustive'."""
    if depth not in ("generators", "exhaustive"):
        raise ValueError("depth must be 'generators' or 'exhaustive'")
    mode = pres.mode
    checks: list[HopfCheck] = []

    for name, terms in pres.relations:
        dsum: dict = {}
        esum = mode.zero()
        for coeff, word in terms:
            dword = pres.tensor_unit()
            eword = mode.one()
            for kind, i in word:
                if kind == "x":
                    dword = pres.tensor_mul(dword, pres.delta_gen_x(i))
                    eword = mode.zero()
                else:
                    dword = pres.tensor_mul(dword, pres.delta(pres.gen_g(i)))
            for k, c in dword.items():
                add_term(dsum, k, c * coeff)
            esum = esum + eword * coeff
        checks.append(
            HopfCheck(f"Delta respects: {name}", not dsum,
                      None if not dsum else f"residual {len(dsum)} tensor terms")
        )
        checks.append(HopfCheck(f"counit respects: {name}", esum.is_zero()))

    if depth == "exhaustive":
        elements = [(k, pres.render_key(k)) for k in pres.basis_keys()]
    else:
        elements = [(k, g.name) for i, g in enumerate(pres.xgens) for k in pres.gen_x(i)]
        elements += [(k, name) for i, name in enumerate(pres.group_names) for k in pres.gen_g(i)]

    unit = pres.unit()
    for key, name in elements:
        d = pres.delta_key(key)
        lhs = pres.delta_leg(d, 0)
        rhs = pres.delta_leg(d, 1)
        checks.append(HopfCheck(f"coassociativity on {name}", lhs == rhs))
        left: dict = {}
        right: dict = {}
        conv_l: dict = {}
        conv_r: dict = {}
        for (ka, kb), c in d.items():
            if not any(kb[0]):  # the counit: 1 on a group-like key, else 0
                add_term(left, ka, c)
            if not any(ka[0]):
                add_term(right, kb, c)
            for k, v in pres.antipode_key(ka).items():  # S(ka) kb and ka S(kb), key by key
                hit = pres._key_product(k, kb)
                if hit is not None:
                    add_term(conv_l, hit[1], v * c * hit[0])
            for k, v in pres.antipode_key(kb).items():
                hit = pres._key_product(ka, k)
                if hit is not None:
                    add_term(conv_r, hit[1], v * c * hit[0])
        checks.append(HopfCheck(f"counit law on {name}", left == right == {key: mode.one()}))
        target = {} if any(key[0]) else unit
        checks.append(
            HopfCheck(
                f"antipode convolution on {name}", conv_l == target and conv_r == target
            )
        )

    # associativity probe on generator triples: a diagnostic beyond the axiom
    # checks above, surfacing group orders smaller than the orders of their
    # conjugation characters.  Each generator is one key, and for keys a, b
    # and c the two sides (ab)c and a(bc) of _normal_form are decided without
    # forming them:
    # 1. they have the same key: the x parts add, reduce returns the one
    #    canonical coset representative, and a cap overflows only on
    #    x_a + x_b + x_c, so the two sides are None together;
    # 2. their twists differ by exactly chi_r(x_c), r = reduce(g_a + g_b) -
    #    g_a - g_b the carry of a and b: the braiding term is bilinear and
    #    cancels, and chi_of is linear in the group vector;
    # 3. x generators have the identity as group part and reduce fixes a
    #    reduced g, so only two group generators can carry; the third key is
    #    then g_c (x_c = 0) or x_j, whose side is None only at a cap of 1.
    # _fold is additive, so the probe passes iff _fold(chi_r(x_j)) = (0, 0)
    # for every carry r of two group generators and every x_j of cap != 1
    group = [k[1] for i in range(pres.group.rank) for k in pres.gen_g(i)]
    carries = {tuple(s - a - b for s, a, b in zip(pres.group.mul(ga, gb), ga, gb))
               for ga in group for gb in group}
    assoc_ok = all(_fold(mode, *pres.chi_of(r, j)) == (0, 0)
                   for r in carries for j, xg in enumerate(pres.xgens) if xg.cap != 1)
    probes = [
        HopfCheck(
            "normal-form product associative on generator triples",
            assoc_ok,
            None if assoc_ok else "the stated group orders truncate the conjugation characters",
        )
    ]
    return HopfReport(pres, depth, checks, probes)


# ---------------------------------------------------------------------------
# divided-power coproduct expansions
# ---------------------------------------------------------------------------


def divided_power_coproduct_check(pres: HopfPresentation, i: int, p_max: int) -> HopfReport:
    """Binomial expansions of Delta(x_i^p) and the threshold primitivity.

    For the one-sided coproduct Delta(x) = x (x) 1 + K (x) x with
    K x K^-1 = c x, c = braiding[i][i], the expansion reads
    Delta(x^p) = sum_r C_c(p, r) x^(p-r) K^r (x) x^r with one-sided binomials
    at base c; the coordinate bosonizations have c = q and the divided-power
    bosonization c = q^2, where the base-q^2 binomial equals the balanced
    binomial times the explicit q-power of the pairwise-swap count.  At
    p = ord(c) the middle terms vanish and the power is primitive (when the
    group order closes).  Two-sided coproducts (the derivative cover) get the
    threshold check only; where the swap character has no such threshold there
    is nothing to check, and ValueError names the generator.
    """
    if not 0 <= i < len(pres.xgens):
        raise ValueError(f"no skew generator {i + 1}: they are numbered 1..{len(pres.xgens)}")
    if p_max < 1:
        raise ValueError(f"the largest power p_max must be at least 1, got {p_max}")
    mode = pres.mode
    checks: list[HopfCheck] = []
    xg = pres.xgens[i]
    zero_x = (0,) * len(pres.xgens)
    identity = pres.group.identity()
    one_sided = pres.group.reduce(xg.gR) == identity
    c_swap = pres.braiding[i][i]
    order = _power_order(mode, *c_swap)
    threshold = order is not None and order > 1 and (xg.cap is None or order < xg.cap)
    if not one_sided and not threshold:
        raise ValueError(
            f"no divided-power check for {xg.name}: its coproduct is two-sided and its "
            f"swap character {_signed_power(mode, *c_swap)} has no finite order above 1 "
            "and below its nilpotency cap"
        )

    dx = pres.delta_gen_x(i)
    powers = [pres.tensor_unit()]  # powers[p] = Delta(x_i^p), carried forward

    def delta_power(p: int) -> dict:
        while len(powers) <= p:
            powers.append(pres.tensor_mul(powers[-1], dx))
        return powers[p]

    def x_power_leg(p: int) -> tuple[int, ...]:
        return _vec(len(pres.xgens), (i, p))

    if one_sided:
        top = p_max if xg.cap is None else min(p_max, xg.cap)
        rows = _binom_rows(mode, c_swap, max(top, min(p_max, 8)))
        for p in range(0, top + 1):
            lhs = delta_power(p)
            rhs: dict = {}
            for r in range(p + 1):
                coeff = rows[p][r]
                if coeff.is_zero():
                    continue
                if xg.cap is not None and (p - r >= xg.cap or r >= xg.cap):
                    continue
                key = (
                    (x_power_leg(p - r), pres.group.power(xg.gL, r)),
                    (x_power_leg(r), identity),
                )
                rhs[key] = coeff
            checks.append(
                HopfCheck(
                    f"Delta({xg.name}^{p}) matches the one-sided binomial expansion",
                    lhs == rhs,
                    None if lhs == rhs else f"p={p}",
                )
            )
        # the displayed coefficient forms for the two diagonal bases
        base, shown = _fold(mode, *c_swap), [(p, r) for p in range(min(p_max, 8) + 1)
                                            for r in range(p + 1)]
        if base == _fold(mode, 0, 1):
            ok = all(rows[p][r] == q_binom_unbalanced(p, r, mode) for p, r in shown)
            checks.append(HopfCheck("base-q coefficients are the one-sided q-binomials", ok))
        if base == _fold(mode, 0, 2):
            ok = all(rows[p][r] == q_binom(p, r, mode) * mode.q_power(
                math.comb(p, 2) - math.comb(r, 2) - math.comb(p - r, 2)) for p, r in shown)
            checks.append(HopfCheck(
                "base-q^2 coefficients equal balanced binomials times the swap q-power", ok))

    if threshold:
        p = order
        lhs = delta_power(p)
        left_g = pres.group.power(xg.gL, p)
        right_g = pres.group.power(xg.gR, p)
        expected = {
            ((x_power_leg(p), identity), (zero_x, right_g)): mode.one(),
            ((zero_x, left_g), (x_power_leg(p), identity)): mode.one(),
        }
        primitive = left_g == identity and right_g == identity
        checks.append(
            HopfCheck(
                f"Delta({xg.name}^{p}) = {xg.name}^{p} (x) 1 + 1 (x) {xg.name}^{p} "
                f"at the threshold p = {p}",
                lhs == expected and primitive,
                None if primitive else "group part of the coproduct does not close",
            )
        )
    return HopfReport(pres, f"divided-power {xg.name}", checks)


def _binom_rows(mode: QMode, base: Power, top: int) -> list[list[ScalarQ]]:
    """Rows 0..top of the one-sided binomials at the signed power base:
    rows[p][r] = C(p, r), by the Pascal recursion
    C(p, r) = C(p-1, r-1) + base^r C(p-1, r)."""
    (lam, mu), one = base, mode.one()
    rows = [[one]]
    for _ in range(top):
        row = rows[-1]
        rows.append([one] + [row[r - 1] + _signed_power(mode, r * lam, r * mu) * row[r]
                             for r in range(1, len(row))] + [one])
    return rows

