import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import math
import operator
import pathlib
import random
import re

import pytest

from qgrass import cli, hopf
from qgrass.hopf import (
    HOPF_FAMILIES,
    AbelianQuotient,
    HopfPresentation,
    _fold,
    _power_order,
    _signed_power,
    build,
    divided_power_coproduct_check,
    pbw_dim,
    verify_hopf,
)
from qgrass.qarith import GENERIC, _constant, add_term, q_binom_unbalanced, root_of_unity

D3 = root_of_unity(3)
D6 = root_of_unity(6)


# ---------------------------------------------------------------------------
# abelian quotients
# ---------------------------------------------------------------------------


def brute_force_order(rank, relations, box=9):
    # count cosets of the sublattice inside a large box (valid for finite index)
    from itertools import product

    lattice = set()
    coeffs = list(product(range(-4, 5), repeat=len(relations)))
    for cs in coeffs:
        v = tuple(sum(c * r[i] for c, r in zip(cs, relations)) for i in range(rank))
        lattice.add(v)
    reps = set()
    g = AbelianQuotient(rank, relations)
    for v in product(range(box), repeat=rank):
        reps.add(g.reduce(v))
    return len(reps)


@pytest.mark.parametrize(
    "rank, rels, expected",
    [
        (1, [(3,)], 3),
        (2, [(2, 0), (0, 5)], 10),
        (2, [(2, 1), (0, 3)], 6),
        (3, [(2, 0, 0), (0, 2, 0), (1, 1, 1)], 4),
        (2, [(2, 0)], math.inf),
    ],
)
def test_quotient_orders(rank, rels, expected):
    g = AbelianQuotient(rank, rels)
    assert g.order() == expected
    if expected is not math.inf:
        assert len(g.elements()) == expected
        assert brute_force_order(rank, rels) == expected
        for a, b in itertools.product(g.elements()[:6], repeat=2):
            assert g.mul(a, b) == g.mul(b, a)
            assert g.mul(a, g.inv(a)) == g.identity()


def test_reduce_is_projection():
    g = AbelianQuotient(2, [(2, 1), (0, 3)])
    for v in itertools.product(range(-4, 5), repeat=2):
        r = g.reduce(v)
        assert g.reduce(r) == r


def test_reduce_is_a_canonical_form_on_random_lattices():
    # reduce reads an echelon basis only: on every vector it must be
    # idempotent, blind to adding a relation row, and put each pivot entry
    # in [0, pivot)
    rng = random.Random(20)
    for _ in range(300):
        rank = rng.randint(1, 4)
        rows = [tuple(rng.randint(-6, 6) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 2))]
        g = AbelianQuotient(rank, rows)
        for _ in range(10):
            v = tuple(rng.randint(-20, 20) for _ in range(rank))
            r = g.reduce(v)
            assert g.reduce(r) == r, (rows, v)
            assert all(0 <= r[col] < row[col] for col, row in g._pivots.items()), (rows, v)
            for row in rows:
                assert g.reduce(tuple(map(operator.add, v, row))) == r, (rows, v, row)


# ---------------------------------------------------------------------------
# rank-one Taft algebra: full certification
# ---------------------------------------------------------------------------


def test_taft_rank_one_presentation():
    p = build("taft-mn", m=1, n=0, mode=D3)
    assert pbw_dim(p) == 9
    k, x = p.gen_g(0), p.gen_x(0)
    kxk_inv = p.mul(p.mul(k, x), p.gen_g(0, -1))
    assert kxk_inv == p.scale(x, D3.q())
    assert p.mul(p.mul(x, x), x) == {}
    report = verify_hopf(p, depth="exhaustive")
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]
    assert not p.warnings


def test_taft_rank_one_antipode_order_four():
    # S^2 = conjugation by K, so S has order 4 on the skew primitive
    p = build("taft-mn", m=1, n=0, mode=D3)
    x = p.gen_x(0)
    s2 = p.antipode(p.antipode(x))
    k, kinv = p.gen_g(0), p.gen_g(0, -1)
    assert s2 == p.mul(p.mul(kinv, x), k)


def test_sweedler_point():
    p = build("taft-mn", m=0, n=1, mode=D3)
    assert pbw_dim(p) == 4
    report = verify_hopf(p, depth="exhaustive")
    assert report.passed
    assert not p.warnings


# ---------------------------------------------------------------------------
# mixed-rank families: dimensions per the stated presentations
# ---------------------------------------------------------------------------


def test_taft_mixed_rank_dimension_and_warning():
    p = build("taft-mn", m=1, n=1, mode=D3)
    assert pbw_dim(p) == 36
    # the stated order-2 fermionic group-likes truncate their conjugation
    # characters; the builder records this instead of hiding it
    assert p.warnings
    report = verify_hopf(p, depth="generators")
    assert report.passed  # the stated axiom checks hold on generators
    assoc = [c for c in report.probes if c.name.startswith("normal-form product assoc")]
    assert assoc and not assoc[0].passed


def test_taft_orders_dimension():
    p = build("taft-orders", orders=(2, 3), mode=D6)
    assert pbw_dim(p) == 36
    assert not p.warnings
    report = verify_hopf(p, depth="exhaustive")
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]


def test_taft_orders_generalized_dimension():
    p = build("taft-orders-generalized", orders=(2,), group_orders=(4,), mode=root_of_unity(4))
    assert pbw_dim(p) == 8
    assert verify_hopf(p, depth="exhaustive").passed


def test_taft_orders_validation():
    with pytest.raises(ValueError):
        build("taft-orders", orders=(4,), mode=D6)  # 4 does not divide 6
    with pytest.raises(ValueError):
        build("taft-orders-generalized", orders=(2,), group_orders=(3,), mode=D6)


@pytest.mark.parametrize("d", range(3, 25))
def test_taft_orders_diagonal_entry_has_exact_order(d):
    # build puts q^(d/o) on the diagonal for an order o dividing d, and checks
    # no more than the divisibility: the exact order holds by construction
    mode = root_of_unity(d)
    one = mode.one()
    for o in (o for o in range(1, d + 1) if d % o == 0):
        val = mode.q_power(d // o)
        powers = [val]  # val^1 .. val^o
        while len(powers) < o:
            powers.append(powers[-1] * val)
        assert [k for k, p in enumerate(powers, 1) if p == one] == [o]
        if o > 1:
            entry = build("taft-orders", orders=(o,), mode=mode).chi[0][0]
            assert _signed_power(mode, *entry) == val


def test_gq_restricted_dimension_equals_taft():
    g = build("gq-restricted", m=1, n=1, mode=D3)
    t = build("taft-mn", m=1, n=1, mode=D3)
    assert pbw_dim(g) == 36 == pbw_dim(t)


def test_gq_restricted_rejects_even_char():
    with pytest.raises(ValueError):
        build("gq-restricted", m=1, n=1, mode=root_of_unity(8))


def test_aq_infinite_dimension():
    p = build("aq", m=1, n=1, mode=GENERIC)
    assert pbw_dim(p) is math.inf


@pytest.mark.parametrize("d", [3, 4], ids=["odd-order", "even-order"])
def test_aq_antipode_negates_top_power(d):
    # S(x^L) = -x^L at ord(q) = L, both parities of the order
    mode = root_of_unity(d)
    p = build("aq", m=1, n=0, mode=mode)
    zero_g = p.group.identity()
    top = {((d,), zero_g): mode.one()}
    assert p.antipode(top) == p.scale(top, -mode.one())
    # and the top power is central among the generators
    x, k = p.gen_x(0), p.gen_g(0)
    assert p.mul(top, x) == p.mul(x, top)
    assert p.mul(top, k) == p.mul(k, top)


def test_group_likes_invert_under_antipode():
    p = build("dq", m=1, n=1, mode=GENERIC)
    for i in range(p.group.rank):
        g = p.gen_g(i)
        assert p.mul(g, p.antipode(g)) == p.unit()
        assert p.antipode(g) == p.gen_g(i, -1)


# ---------------------------------------------------------------------------
# the shared key product, on every basis pair and triple
# ---------------------------------------------------------------------------

# the warning-free finite presentations of dimension at most 16
SMALL_FINITE = {
    "taft-mn (1|0) d=3": lambda: build("taft-mn", m=1, n=0, mode=D3),
    "taft-mn (0|1) d=3": lambda: build("taft-mn", m=0, n=1, mode=D3),
    "taft-orders-generalized (2)/(4) d=4": lambda: build(
        "taft-orders-generalized", orders=(2,), group_orders=(4,), mode=root_of_unity(4)
    ),
    "gq-restricted (1|0) d=3": lambda: build("gq-restricted", m=1, n=0, mode=D3),
    "aq (0|1) d=3": lambda: build("aq", m=0, n=1, mode=D3),
}


@pytest.fixture(params=list(SMALL_FINITE), ids=list(SMALL_FINITE))
def small_finite(request):
    p = SMALL_FINITE[request.param]()
    assert not p.warnings and pbw_dim(p) <= 16
    return p


def test_tensor_mul_is_the_legwise_product(small_finite):
    p = small_finite
    one = p.mode.one()
    keys = p.basis_keys()
    for a1, a2, b1, b2 in itertools.product(keys, repeat=4):
        want = {
            (k1, k2): c1 * c2
            for k1, c1 in p.mul({a1: one}, {b1: one}).items()
            for k2, c2 in p.mul({a2: one}, {b2: one}).items()
        }
        assert p.tensor_mul({(a1, a2): one}, {(b1, b2): one}) == want


def test_mul_is_associative_on_basis_triples(small_finite):
    p = small_finite
    basis = [{k: p.mode.one()} for k in p.basis_keys()]
    for a, b, c in itertools.product(basis, repeat=3):
        assert p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))


# ---------------------------------------------------------------------------
# memoised structure maps against their definitions
# ---------------------------------------------------------------------------

# every finite presentation the tests build with dimension at most 200; the
# ones with warnings are not associative, and the memos must agree there too
FINITE = {
    **SMALL_FINITE,
    "taft-mn (1|1) d=3": lambda: build("taft-mn", m=1, n=1, mode=D3),
    "taft-orders (2,3) d=6": lambda: build("taft-orders", orders=(2, 3), mode=D6),
    "gq-restricted (1|1) d=3": lambda: build("gq-restricted", m=1, n=1, mode=D3),
}


@pytest.fixture(params=list(FINITE), ids=list(FINITE))
def finite(request):
    p = FINITE[request.param]()
    assert pbw_dim(p) <= 200
    return p


def test_delta_key_is_the_chain_of_generator_coproducts(finite):
    # Delta(x^a g) = Delta(x_1)^a_1 ... Delta(x_n)^a_n (g (x) g), taken from the right
    p = finite
    zero_x = (0,) * len(p.xgens)
    for _ in range(2):  # the second round reads the memo
        for xv, gv in p.basis_keys():
            want = {((zero_x, gv), (zero_x, gv)): p.mode.one()}
            for i in reversed(range(len(p.xgens))):
                for _ in range(xv[i]):
                    want = p.tensor_mul(p.delta_gen_x(i), want)
            assert p.delta_key((xv, gv)) == want


def test_antipode_is_the_product_of_generator_antipodes(finite):
    # S(x^a g) = S(g) S(x_n)^a_n ... S(x_1)^a_1 with S(x_i) = -gL^-1 x_i gR^-1
    p = finite
    one = p.mode.one()
    zero_x = (0,) * len(p.xgens)

    def group_like(gv):
        return {(zero_x, p.group.reduce(gv)): one}

    s_x = [
        p.scale(p.mul(p.mul(group_like(p.group.inv(g.gL)), p.gen_x(i)),
                      group_like(p.group.inv(g.gR))), -one)
        for i, g in enumerate(p.xgens)
    ]
    keys = p.basis_keys()
    c = p.mode.q() + p.mode.scalar(2)
    for _ in range(2):  # the second round reads the memo
        for xv, gv in keys:
            want = group_like(p.group.inv(gv))
            for i in reversed(range(len(p.xgens))):
                for _ in range(xv[i]):
                    want = p.mul(want, s_x[i])
            assert p.antipode({(xv, gv): c}) == p.scale(want, c)
            assert p.antipode({(xv, gv): one}) == want
        total = dict(p.antipode({keys[0]: one}))
        for k, v in p.antipode({keys[-1]: c}).items():
            add_term(total, k, v)
        assert p.antipode({keys[0]: one, keys[-1]: c}) == total


@pytest.mark.parametrize("name", list(FINITE))
def test_a_second_verification_reports_the_same(name):
    p = FINITE[name]()
    first = json.dumps([verify_hopf(p, "exhaustive").to_json(), p.to_json()])
    again = json.dumps([verify_hopf(p, "exhaustive").to_json(), p.to_json()])
    fresh = FINITE[name]()
    assert again == first
    assert json.dumps([verify_hopf(fresh, "exhaustive").to_json(), fresh.to_json()]) == first


def products_memoised(p: HopfPresentation) -> int:
    return sum(len(row) for key, row in p._memo.items() if key[0] == "product")


@pytest.mark.parametrize("name", ["taft-mn (1|1) d=3", "taft-orders (2,3) d=6"])
def test_key_product_memo_agrees_with_the_kernel(name):
    # every key pair: the first call fills the memo, the second reads it
    p = FINITE[name]()
    keys = p.basis_keys()
    assert len(keys) == 36
    first = {}
    for ka, kb in itertools.product(keys, repeat=2):
        first[ka, kb] = p._key_product(ka, kb)
        assert first[ka, kb] == p._normal_form(ka, kb)
    for ka, kb in itertools.product(keys, repeat=2):
        assert p._key_product(ka, kb) is first[ka, kb]
        assert first[ka, kb] == p._normal_form(ka, kb)
    assert products_memoised(p) == 36 ** 2


def test_generator_probe_keeps_the_memo_below_the_triple_count(monkeypatch):
    # the probe reads the group's carries and forms no product: the axiom
    # checks make 740 kernel products, where 2 g^3 triple products made 10,452
    p = build("dq", m=3, n=3, mode=GENERIC)
    calls = []
    kernel = HopfPresentation._normal_form

    def counted(self, ka, kb):
        calls.append((ka, kb))
        return kernel(self, ka, kb)

    monkeypatch.setattr(HopfPresentation, "_normal_form", counted)
    verify_hopf(p, "generators")
    g = len(p.xgens) + p.group.rank
    assert g == 21
    assert products_memoised(p) < g ** 3
    assert len(calls) <= 1000


def test_exhaustive_verification_builds_each_coproduct_once(monkeypatch):
    # 30 relation-word products plus one per basis key with a nonzero x part
    # (30 of the 36): Delta and S each grow by one generator from the memo.
    # A chain per key took 84 tensor-square and 274 algebra products, and
    # recomputing Delta per leg 300 tensor-square products.  The algebra
    # products are those 30 steps of S and two per S(x_i)
    calls = {"tensor_mul": 0, "mul": 0}

    def counted(name):
        method = getattr(HopfPresentation, name)

        def wrapper(self, u, v):
            calls[name] += 1
            return method(self, u, v)
        return wrapper

    for name in calls:
        monkeypatch.setattr(HopfPresentation, name, counted(name))
    report = verify_hopf(build("taft-orders", orders=(2, 3), mode=D6), "exhaustive")
    assert report.passed
    assert calls == {"tensor_mul": 60, "mul": 34}


def test_the_failing_exhaustive_report_is_unchanged():
    # taft-mn (1|1) at d = 3 is not associative as stated: 9 antipode
    # convolutions fail, and the report is pinned byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["hopf", "--family", "taft-mn", "--m", "1", "--n", "1",
                         "--q", "root", "--d", "3", "--exhaustive"])
    assert code == 1
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "f1bd162738df737ab3b849c40dea01b4f4b13cbd45439a126cd17300f6146ca1")
    failed = [c["name"] for c in json.loads(out.getvalue())["checks"] if c["status"] == "fail"]
    assert len(failed) == 9 and all(n.startswith("antipode convolution") for n in failed)


def s_squared_order(p: HopfPresentation, bound: int = 100) -> int:
    """The least k >= 1 with (S^2)^k the identity on every basis key, by
    applying the antipode twice per step."""
    one = p.mode.one()
    images = {k: {k: one} for k in p.basis_keys()}
    for k in range(1, bound + 1):
        images = {key: p.antipode(p.antipode(v)) for key, v in images.items()}
        if all(v == {key: one} for key, v in images.items()):
            return k
    raise AssertionError(f"S^2 has no order up to {bound}")


@pytest.mark.parametrize("build_it, order", [
    (lambda: build("taft-mn", m=1, n=0, mode=D3), 3),
    (lambda: build("taft-mn", m=2, n=0, mode=D3), 3),
    (lambda: build("taft-mn", m=1, n=1, mode=D3), 6),
    (lambda: build("taft-mn", m=1, n=0, mode=root_of_unity(5)), 5),
    (lambda: build("taft-orders", orders=(2, 3), mode=D6), 6),
    (lambda: build("taft-orders", orders=(3, 4), mode=root_of_unity(12)), 12),
    (lambda: build("dq-restricted", m=1, n=1, mode=D3), 6),
    (lambda: build("gq-restricted", m=1, n=1, mode=D3), 6),
], ids=["taft-mn(1|0)-d3", "taft-mn(2|0)-d3", "taft-mn(1|1)-d3", "taft-mn(1|0)-d5",
        "taft-orders(2,3)-d6", "taft-orders(3,4)-d12", "dq-restricted(1|1)-d3",
        "gq-restricted(1|1)-d3"])
def test_antipode_order_is_the_character_closed_form(build_it, order):
    # S^2(x_j) = chi_{gR_j gL_j^-1}(x_j) x_j, the inverse of the braiding
    # scalar of x_j with itself, and S^2(g) = g, so ord(S^2) is the lcm over j
    # of the order of braiding[j][j]
    p = build_it()
    closed = math.lcm(*(_power_order(p.mode, *p.braiding[j][j]) for j in range(len(p.xgens))))
    assert closed == order
    assert s_squared_order(p) == order


# ---------------------------------------------------------------------------
# the generator-triple probe against its oracle
# ---------------------------------------------------------------------------


def probe_oracle(p: HopfPresentation) -> bool:
    """The associativity probe by definition: (ab)c = a(bc) as dict products
    on every triple of generators, four products per triple."""
    gens = [p.gen_x(i) for i in range(len(p.xgens))]
    gens += [p.gen_g(i) for i in range(p.group.rank)]
    return all(p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))
               for a, b, c in itertools.product(gens, repeat=3))


def probe_verdict(p: HopfPresentation) -> bool:
    (probe,) = verify_hopf(p, "generators").probes
    return probe.passed


def load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checked_presentations():
    """Each distinct presentation that the full sweep and the certify workload
    check, as the CLI builds it, with the probe verdict the run reported."""
    root = pathlib.Path(__file__).resolve().parents[1]
    argvs = [argv for _, argv in load(root / "scripts" / "run_full_verification.py",
                                      "run_full_verification").RUNS]
    argvs += [cmd.split() for _, cmd in load(root / "perfbench" / "workloads.py",
                                             "perfbench_workloads").CERTIFY_JOBS]
    seen = {}
    verify = hopf.verify_hopf

    def record(pres, depth="generators"):
        report = verify(pres, depth)
        (probe,) = report.probes
        seen.setdefault(json.dumps(pres.to_json(), sort_keys=True), (pres, probe.passed))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf, "verify_hopf", record)
        for argv in argvs:
            if argv[0] == "hopf":
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
    return list(seen.values())


def test_probe_equals_its_oracle_on_every_checked_presentation(checked_presentations):
    assert len(checked_presentations) == 11
    failing = []
    for pres, verdict in checked_presentations:
        fresh = dataclasses.replace(pres)  # same datum, empty memo
        assert not fresh._memo
        assert probe_oracle(fresh) == verdict, pres.to_json()
        if not verdict:
            failing.append((pres.family, pres.params["m"], pres.params["n"], pres.mode.d))
    # the known-failing ones: K2^2 conjugates x1 by q^2 (v^2), not by 1
    assert sorted(failing) == [("aq", 1, 1, None), ("aq", 2, 1, None),
                               ("gq-restricted", 1, 1, 3), ("taft-mn", 1, 1, 3)]


def with_character(p: HopfPresentation, gen: str, j: int, power) -> HopfPresentation:
    """p with chi_gen(x_j) set to the signed power, on a copy of the datum."""
    chi = [row[:] for row in p.chi]
    chi[p.group_names.index(gen)][j] = power
    return dataclasses.replace(p, chi=chi)


def with_cap(p: HopfPresentation, j: int, cap: int) -> HopfPresentation:
    """p with x_j's nilpotency cap set, on a copy of the datum."""
    xgens = list(p.xgens)
    xgens[j] = dataclasses.replace(xgens[j], cap=cap)
    return dataclasses.replace(p, xgens=xgens)


@pytest.mark.parametrize("build_it, mutate, passed", [
    # t2 has order 2 in dq (1|1); chi_t2(d1) = q makes (t2 t2) d1 = d1 but
    # t2 (t2 d1) = q^2 d1
    (lambda: build("dq", m=1, n=1, mode=GENERIC), lambda p: with_character(p, "t2", 0, (0, 1)),
     True),
    # K1 has order 2 in taft-orders (2,3); chi_K1(x2) = q leaves K1^2 = 1
    # conjugating x2 by q^2
    (lambda: build("taft-orders", orders=(2, 3), mode=D6),
     lambda p: with_character(p, "K1", 1, (0, 1)), True),
    # K2^2 = 1 conjugates x1 by q^2 in taft-mn (1|1) d=3; once x1 = x1^1 = 0
    # every triple holding x1 is 0 on both sides
    (lambda: build("taft-mn", m=1, n=1, mode=D3), lambda p: with_cap(p, 0, 1), False),
], ids=["dq-chi", "taft-orders-chi", "taft-mn-cap"])
def test_probe_and_oracle_catch_a_changed_datum(build_it, mutate, passed):
    for verdict, fresh in ((passed, build_it), (not passed, lambda: mutate(build_it()))):
        (probe,) = verify_hopf(fresh(), "generators").probes
        assert probe.passed is probe_oracle(fresh()) is verdict
        assert probe.detail == (None if verdict else
                                "the stated group orders truncate the conjugation characters")


def buildable(families, shapes, modes, orders=(), generalized=()):
    """Every presentation that build accepts on the grid, in grid order."""
    calls = [dict(family=f, m=m, n=n) for f in families for m, n in shapes]
    calls += [dict(family="taft-orders", orders=o) for o in orders]
    calls += [dict(family="taft-orders-generalized", orders=o, group_orders=g)
              for o, g in generalized]
    out = []
    for mode, kw in itertools.product(modes, calls):
        with contextlib.suppress(ValueError):
            out.append(build(mode=mode, **kw))
    return out


def test_warnings_decide_the_probe_on_a_grid():
    # chi_r(x_j) = 1 for every lattice row r and generator x_j holds exactly
    # when the generator-triple probe passes
    grid = buildable(("taft-mn", "aq", "gq", "gq-restricted", "dq", "dq-restricted"),
                     [(1, 0), (0, 1), (1, 1), (2, 1)],
                     [GENERIC, *map(root_of_unity, (3, 4, 6, 8))],
                     [(2,), (2, 3), (3, 4), (2, 2, 3)])
    verdicts = [(not p.warnings, probe_verdict(p)) for p in grid]
    assert [clean for clean, _ in verdicts] == [passed for _, passed in verdicts]
    assert (len(verdicts), sum(not passed for _, passed in verdicts)) == (85, 24)


def test_the_carry_probe_equals_its_oracle_on_a_grid():
    # the probe decides (ab)c = a(bc) from the carries of group-generator
    # pairs alone; the oracle forms both sides of every generator triple
    grid = buildable([f for f in HOPF_FAMILIES if not f.startswith("taft-orders")],
                     [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)],
                     [GENERIC, *map(root_of_unity, (3, 4, 6))], [(2, 3), (3, 4)],
                     [((2, 3), (6, 6)), ((3, 2), (6, 2))])
    verdicts = [(probe_verdict(p), probe_oracle(p)) for p in grid]
    assert [probe for probe, _ in verdicts] == [oracle for _, oracle in verdicts]
    assert (len(verdicts), sum(not passed for passed, _ in verdicts)) == (83, 30)


def test_root_datum_is_the_generic_datum_at_a_root_of_unity():
    # the characters do not depend on the mode: each root-mode entry is the
    # generic entry's signed power evaluated at q = zeta_d, on the generators
    # both presentations have (gq at a root adds the central tops)
    def value(mode, power):
        return _constant(mode, -1 if power[0] % 2 else 1, power[1])

    shapes = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
    compared = 0
    for family, (m, n) in itertools.product(("aq", "gq", "dq"), shapes):
        generic = build(family, m=m, n=n, mode=GENERIC)
        gs, xs = len(generic.group_names), len(generic.xgens)
        for root in buildable((family,), [(m, n)], map(root_of_unity, (3, 4, 5, 6, 8, 9, 12))):
            assert root.group_names[:gs] == generic.group_names
            assert [g.name for g in root.xgens[:xs]] == [g.name for g in generic.xgens]
            for table, rows in (("chi", gs), ("braiding", xs)):
                for r, j in itertools.product(range(rows), range(xs)):
                    g_entry, r_entry = getattr(generic, table)[r][j], getattr(root, table)[r][j]
                    assert value(root.mode, g_entry) == value(root.mode, r_entry), (
                        family, m, n, root.mode.d, table, r, j)
            compared += 1
    assert compared == 102  # gq at even d is refused: 24 of 126


# ---------------------------------------------------------------------------
# derivative cover
# ---------------------------------------------------------------------------


def test_dq_generators_only_passes():
    p = build("dq", m=1, n=1, mode=GENERIC)
    assert pbw_dim(p) is math.inf
    assert not p.warnings
    report = verify_hopf(p, depth="generators")
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]
    # the square of the coproduct of an exterior derivative vanishes
    d2 = p.gen_x(1)
    dd = p.tensor_mul(p.delta_gen_x(1), p.delta_gen_x(1))
    assert dd == {}
    assert p.mul(d2, d2) == {}


@pytest.mark.parametrize("family, mode", [("dq", GENERIC), ("dq-restricted", D3)])
def test_dq_needs_at_least_one_generator(family, mode):
    with pytest.raises(ValueError, match="at least one generator"):
        build(family, m=0, n=0, mode=mode)


def test_dq_minus_variant_also_hopf():
    p = build("dq", m=1, n=1, mode=GENERIC, coproduct_variant="minus")
    assert verify_hopf(p, depth="generators").passed


def test_dq_restricted_group_is_finite_and_consistent():
    p = build("dq-restricted", m=1, n=1, mode=D3)
    assert not p.warnings
    order = p.group.order()
    assert order is not math.inf
    # derivative part has dimension ell^m 2^n = 6
    assert p.x_dim() == 6
    assert pbw_dim(p) == 6 * order
    report = verify_hopf(p, depth="generators")
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]


def test_dq_restricted_even_char():
    p = build("dq-restricted", m=1, n=1, mode=root_of_unity(8))
    assert not p.warnings
    assert verify_hopf(p, depth="generators").passed


def test_antipode_of_bosonic_derivative_matches_closed_form():
    # S(d) = -q Theta(e) d for the polynomial-direction derivative
    p = build("dq", m=1, n=0, mode=GENERIC)
    s = p.antipode(p.gen_x(0))
    th_idx = p.group_names.index("Th1")
    direct = p.scale(p.mul(p.gen_g(th_idx), p.gen_x(0)), -GENERIC.q())
    assert s == direct


# ---------------------------------------------------------------------------
# divided-power coproduct expansions
# ---------------------------------------------------------------------------


def test_aq_binomial_expansion_and_threshold():
    p = build("aq", m=1, n=0, mode=D3)
    report = divided_power_coproduct_check(p, 0, 4)
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert any("threshold p = 3" in n for n in names)


def test_divided_power_carries_the_coproduct_forward(monkeypatch):
    # one tensor product per power: Delta(x^p) = Delta(x^(p-1)) Delta(x)
    calls = 0
    tensor_mul = HopfPresentation.tensor_mul

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return tensor_mul(self, u, v)

    monkeypatch.setattr(HopfPresentation, "tensor_mul", counted)
    report = divided_power_coproduct_check(build("aq", m=1, n=0, mode=GENERIC), 0, 12)
    assert report.passed
    assert calls <= 13


def test_divided_power_index_out_of_range():
    p = build("dq", m=2, n=1, mode=GENERIC)
    for i in (-1, len(p.xgens)):
        with pytest.raises(ValueError, match="numbered 1..3"):
            divided_power_coproduct_check(p, i, 3)


def test_divided_power_needs_a_positive_power_bound():
    p = build("aq", m=1, n=0, mode=D3)
    for p_max in (-2, 0):
        with pytest.raises(ValueError, match="at least 1"):
            divided_power_coproduct_check(p, 0, p_max)
    assert divided_power_coproduct_check(p, 0, 1).checks


def test_divided_power_refuses_a_generator_with_no_check():
    # two-sided coproducts get only the threshold check: generic v^-2 has no
    # finite order, and at d = 3 the order equals the nilpotency cap
    for p in (build("dq", m=2, n=1, mode=GENERIC), build("dq-restricted", m=1, n=1, mode=D3)):
        with pytest.raises(ValueError, match="no divided-power check for d1"):
            divided_power_coproduct_check(p, 0, 4)


@pytest.mark.parametrize("family", ["taft-orders", "taft-orders-generalized"])
def test_order_one_rejected(family):
    # cap 1 makes x_i = 0, so gen_x would build a key outside the basis
    with pytest.raises(ValueError, match="order of 1 makes x1 zero"):
        build(family, orders=(1, 3), group_orders=(2, 3), mode=D6)
    with pytest.raises(ValueError, match="order of 1 makes x2 zero"):
        build(family, orders=(3, 1), group_orders=(3, 2), mode=D6)


@pytest.mark.parametrize("family", ["taft-orders", "taft-orders-generalized"])
def test_nonpositive_orders_rejected(family):
    with pytest.raises(ValueError, match="positive"):
        build(family, orders=(2, 0), group_orders=(2, 3), mode=D6)
    with pytest.raises(ValueError, match="positive"):
        build(family, orders=(-2,), group_orders=(2,), mode=D6)


def power_order_oracle(val):
    """The least k >= 1 with val^k = 1, or None, by search: +-q^k has an order
    dividing 2d at a root of unity of order d, and in Q(v) only +-1 have one."""
    mode, acc = val.mode, val.mode.one()
    for k in range(1, (2 if mode.is_generic else 2 * mode.d) + 1):
        acc = acc * val
        if acc == mode.one():
            return k
    return None


def test_power_order_reaches_twice_the_order_of_q():
    d3, d67 = root_of_unity(3), root_of_unity(67)
    assert [_power_order(d3, lam, mu) for lam, mu in ((0, 0), (1, 0), (0, 1), (1, 1))] == [
        1, 2, 3, 6]
    assert _power_order(d67, 0, 65) == 67
    assert _power_order(d67, 1, 1) == 134
    assert [_power_order(GENERIC, lam, mu) for lam, mu in ((0, 0), (1, 0), (0, 1), (1, 1))] == [
        1, 2, None, None]


@pytest.mark.parametrize("d", [None, *range(3, 25)])
def test_signed_powers_fold_to_equality_and_order(d):
    # at even d, -1 = q^(d/2): the pair (1, mu) names q^(mu + d/2), so a test
    # that compared unfolded pairs would miss equalities
    mode = GENERIC if d is None else root_of_unity(d)
    span = 3 if d is None else 2 * d
    pairs = [(lam, mu) for lam in (0, 1) for mu in range(-span, span + 1)]
    for lam, mu in pairs:
        val = _constant(mode, -1 if lam else 1, mu)
        assert (_fold(mode, lam, mu) == (0, 0)) is (val == mode.one()), (lam, mu)
        assert _power_order(mode, lam, mu) == power_order_oracle(val), (lam, mu)
        assert _signed_power(mode, lam, mu) == val
    for (la, ma), (lb, mb) in itertools.combinations(pairs[:: max(1, span // 6)], 2):
        same = _constant(mode, -1 if la else 1, ma) == _constant(mode, -1 if lb else 1, mb)
        assert (_fold(mode, la, ma) == _fold(mode, lb, mb)) is same, ((la, ma), (lb, mb))


def test_two_sided_threshold_above_order_64():
    # the swap character of d1 at d = 67 is q^65, of order 67: the threshold
    # is checked, where a search stopped at 64 refused the generator
    p = build("dq", m=1, n=0, mode=root_of_unity(67))
    (check,) = divided_power_coproduct_check(p, 0, 1).checks
    assert check.name.endswith("at the threshold p = 67")


def test_aq_expansion_spot_value_p2():
    p = build("aq", m=1, n=0, mode=GENERIC)
    lhs = p.tensor_mul(p.delta_gen_x(0), p.delta_gen_x(0))
    two_q = q_binom_unbalanced(2, 1, GENERIC)
    x2 = ((2,), (0,))
    x1k = ((1,), (1,))
    x1 = ((1,), (0,))
    k2 = ((0,), (2,))
    expected = {
        (x2, ((0,), (0,))): GENERIC.one(),
        (x1k, x1): two_q,
        (k2, x2): GENERIC.one(),
    }
    assert lhs == expected


def test_gq_expansion_and_top_primitivity():
    p = build("gq", m=1, n=0, mode=D3)
    report = divided_power_coproduct_check(p, 0, 3)
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert any("base-q^2" in n for n in names)
    # the adjoined top divided power is primitive by construction
    top = len(p.xgens) - 1
    d = p.delta_gen_x(top)
    assert len(d) == 2 and all(
        g == p.group.identity() for key in d for (_, g) in key
    )


def test_dq_threshold_primitivity_at_char_3():
    # group orders capped, derivative powers left free: Delta(d)^3 collapses
    p = build("dq-restricted", m=1, n=1, mode=D3, partial_caps=False)
    report = divided_power_coproduct_check(p, 0, 3)
    thr = [c for c in report.checks if "threshold" in c.name]
    assert thr and all(c.passed for c in thr)


def test_hopf_json_shape():
    p = build("taft-mn", m=1, n=0, mode=D3)
    data = verify_hopf(p, "exhaustive").to_json()
    assert data["dimension"] == 9
    assert data["passed"] is True
    blob = p.to_json()
    assert blob["group"]["order"] == 3
    assert blob["skew_generators"][0]["coproduct"] == "x1 (x) 1 + K1 (x) x1"


@pytest.mark.parametrize("presentation, names, lattice", [
    (lambda: build("gq", m=1, n=1, mode=D3),
     ["K1^3 = 1", "K2^2 = 1", "K1 K2 commute",
      "K1 x1 = chi x1 K1", "K1 x2 = chi x2 K1", "K1 x1^(top) = chi x1^(top) K1",
      "K2 x1 = chi x1 K2", "K2 x2 = chi x2 K2", "K2 x1^(top) = chi x1^(top) K2",
      "x1^3 = 0", "x2 x1 = c x1 x2", "x2^2 = 0",
      "x1^(top) x1 = c x1 x1^(top)", "x1^(top) x2 = c x2 x1^(top)"],
     [[3, 0], [0, 2]]),
    (lambda: build("taft-orders-generalized", orders=(2, 3), group_orders=(4, 6),
                   mode=root_of_unity(12)),
     ["K1^4 = 1", "K2^6 = 1",
      "K1 x1 = mu x1 K1", "K1 x2 = mu x2 K1", "x1^2 = 0",
      "K2 x1 = mu x1 K2", "K2 x2 = mu x2 K2", "x2 x1 = mu x1 x2", "x2^3 = 0"],
     [[4, 0], [0, 6]]),
], ids=["gq (1|1) d=3", "taft-orders-generalized (2,3)/(4,6) d=12"])
def test_relation_names_and_lattice_of_builds_no_report_covers(presentation, names, lattice):
    # the families' relation names and orders, for builds no CLI reference pins
    p = presentation()
    assert [name for name, _ in p.relations] == names
    assert [list(r) for r in p.group.relations] == lattice


def test_dq_lists_its_lattice_and_its_relations_in_two_orders():
    # the lattice holds the tau order before the label dependency; the
    # relation list the other way round, and each relation word is its row
    p = build("dq", m=1, n=1, mode=GENERIC)
    assert [list(r) for r in p.group.relations] == [[0, 0, 2, 0, 0], [-1, -1, -1, -1, 1]]
    (th_name, th_terms), (t_name, t_terms) = p.relations[:2]
    assert (th_name, t_name) == ("Th2 = Th1 s1 s2 tau", "t2^2 = 1")
    assert [w for _, w in th_terms] == [(("g", 4),), tuple(("g", c) for c in range(4))]
    assert [w for _, w in t_terms] == [(("g", 2), ("g", 2)), ()]


@pytest.mark.parametrize("family, kwargs, missing", [
    ("aq", {"mode": GENERIC}, "m, n"),
    ("dq", {"mode": GENERIC}, "m, n"),
    ("taft-mn", {"mode": D3, "m": 1}, "n"),
    ("taft-orders", {"mode": D6}, "orders"),
    ("taft-orders-generalized", {"mode": D6, "orders": (2, 3)}, "group_orders"),
])
def test_build_names_a_missing_keyword(family, kwargs, missing):
    with pytest.raises(ValueError, match=re.escape(f"{family} needs the keyword(s) {missing}") + "$"):
        build(family, **kwargs)


def test_build_refuses_unknown_keywords():
    with pytest.raises(TypeError):
        build("taft-orders", orders=(3,), mode=D3, mu=[[D3.q()]])
    with pytest.raises(TypeError):
        build("aq", m=1, n=0, mode=GENERIC, group_order_cap=True)
    with pytest.raises(TypeError):
        build("aq", muu=1, n=0, mode=GENERIC)
