"""The suite memo that run_checks opens, and index-level operator equality.

run_checks memoises monomial products for the length of one call; every
report must be the one the checks give without the memo, and operators_equal
must decide and witness exactly as evaluation on monomial vectors does; a
relation it proves in every degree must hold past t_max too.  The sweep's
pair and associativity laws, decided by induction where they can be,
must agree with their full enumeration.
"""

import contextlib
from collections import Counter
import importlib.util
import io
import pathlib
import threading

import pytest

from qgrass import cli, superspaces, uqrep, weyl
from qgrass.indices import MultiIndex, ShapeMismatchError
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import (
    Family,
    RuleBuilder,
    SuperVector,
    basis_of_degree,
    make_space,
    multiply,
    suite_memo,
)
from qgrass.uqrep import verify_module_algebra, verify_uq_relations
from qgrass.weyl import (
    SUITE_NAMES,
    CheckResult,
    InvalidAtomError,
    OperatorWord,
    PairCheck,
    Relation,
    TripleCheck,
    apply_expr,
    apply_word,
    build_suite,
    mult_x,
    operators_equal,
    partial,
    run_checks,
    tau,
    theta_op,
)

D3 = root_of_unity(3)
D8 = root_of_unity(8)
MODES = [GENERIC, D3, D8]
MODE_IDS = ["generic", "d3", "d8"]

OMEGA11 = make_space(Family.OMEGA, 1, 1)
OMEGA21 = make_space(Family.OMEGA, 2, 1)


def word(space, *atoms, coeff=None):
    return OperatorWord(space, tuple(atoms), coeff)


def memo_less(checks, t_max):
    # one context variable carries the product tables
    assert suite_memo.get() is None
    return [c.run(t_max).to_json() for c in checks]


# ---------------------------------------------------------------------------
# run_checks against the same checks run without the memo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_reports_match_memo_less_run(suite, mode):
    space = make_space(Family.OMEGA, 1, 1, mode)
    try:
        checks = build_suite(suite, space)
    except InvalidAtomError:
        # the root branches exist only at a root of the matching parity
        assert suite in ("weyl-odd-root", "weyl-even-root")
        return
    t_max = 2 if suite == "leibniz" else 3
    report = run_checks(suite, space, checks, t_max).to_json()
    assert report["relations"] == memo_less(checks, t_max)


def test_one_memo_serves_spaces_of_one_shape():
    # the same (atom, idx) keys recur on each space; their images differ
    spaces = [make_space(Family.OMEGA, 1, 1, mode) for mode in MODES]
    checks = [c for space in spaces for c in build_suite("weyl-generic", space)]
    report = run_checks("mixed", spaces[0], checks, 3).to_json()
    assert report["relations"] == memo_less(checks, 3)


def capture_checks(monkeypatch):
    """Make uqrep's run_checks also record the memo-less results."""
    seen = []

    def recording(suite, space, checks, t_max):
        expected = memo_less(checks, t_max)
        report = run_checks(suite, space, checks, t_max)
        seen.append((report.to_json()["relations"], expected))
        return report

    monkeypatch.setattr(uqrep, "run_checks", recording)
    return seen


@pytest.mark.parametrize(
    "space",
    [
        make_space(Family.OMEGA, 2, 1),
        make_space(Family.DUAL, 1, 2),
        make_space(Family.OMEGA_RESTRICTED, 1, 1, D3),
        make_space(Family.DUAL_RESTRICTED, 1, 1, D8),
    ],
    ids=["omega21", "dual12", "omega11-d3", "dual11-d8"],
)
def test_uq_and_module_algebra_reports_match_memo_less_run(space, monkeypatch):
    seen = capture_checks(monkeypatch)
    verify_uq_relations(space, 3)
    verify_uq_relations(space, 3, variant="sl")
    verify_module_algebra(space, 2)
    assert len(seen) == 3
    for report, expected in seen:
        assert report == expected


class Products:
    """A check recording every product of basis monomials up to a degree."""

    name = "products"

    def __init__(self, space, t_max):
        self.space, self.t_max, self.seen = space, t_max, []

    def run(self, t_max):
        space = self.space
        monos = [SuperVector.monomial(space, i)
                 for t in range(self.t_max + 1) for i in basis_of_degree(space, t)]
        # twice over, so the second round reads the memo
        for _ in range(2):
            self.seen.append([multiply(u, v) for u in monos for v in monos])
        return CheckResult(self.name, True)


def test_one_product_memo_serves_spaces_of_one_shape():
    # the same (a, b) keys recur on each space; their products differ
    spaces = [
        make_space(Family.OMEGA, 2, 1),
        make_space(Family.OMEGA, 2, 1, D8),
        make_space(Family.AFFINE, 2, 1),
    ]
    assert len({space.shape for space in spaces}) == 1
    inside = [Products(space, 3) for space in spaces]
    run_checks("products", spaces[0], inside, 3)
    for check in inside:
        outside = Products(check.space, 3)
        outside.run(3)
        assert check.seen == outside.seen
    assert len({str(check.seen[0]) for check in inside}) == 3


def count_calls(monkeypatch, module, name):
    """Wrap module.name, recording the arguments of every call."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "space",
    [make_space(Family.OMEGA, 2, 1), make_space(Family.OMEGA, 2, 1, D8)],
    ids=["omega21", "omega21-d8"],
)
def test_each_product_and_atom_image_is_derived_once(space, monkeypatch):
    checks = build_suite("leibniz", space)
    # multiply reads superspaces' binding; word compilation reads weyl's
    atom_rule = weyl._atom_rule
    products = count_calls(monkeypatch, superspaces, "monomial_product")
    atoms = count_calls(monkeypatch, weyl, "apply_atom")
    rules = count_calls(monkeypatch, weyl, "_atom_rule")
    composed = count_calls(monkeypatch, superspaces.RuleBuilder, "then")
    report = run_checks("leibniz", space, checks, 3)
    product_keys = [(s, a.entries, b.entries) for s, a, b in products]
    assert len(product_keys) == len(set(product_keys)) > 0
    # each word compiles once, every atom's rule joining it in acting order;
    # apply_atom validates each distinct (space, atom) once, on the unit
    # monomial, before the first read of its rule
    by_builder = {}
    for builder, rule in composed:
        by_builder.setdefault(id(builder), []).append(rule)
    words = {id(w): w for c in checks if isinstance(c, Relation) for w in c.lhs + c.rhs
             if w.atoms}
    assert words and Counter(tuple(atom_rule(space, a) for a in reversed(w.atoms))
                             for w in words.values()) <= Counter(
        tuple(word_rules) for word_rules in by_builder.values())
    assert [(s, atom) for s, atom, _ in atoms] == list(dict.fromkeys(rules))
    assert len(composed) > 2 * len(atoms)
    assert {idx for _, _, idx in atoms} == {space.unit_index()}
    # without the memo the same checks derive the products again and again,
    # while each word object, compiled once, compiles no more
    n_products, n_atoms, n_rules, n_composed = len(products), len(atoms), len(rules), len(composed)
    assert report.to_json()["relations"] == memo_less(checks, 3)
    assert len(products) - n_products > 2 * n_products
    assert (len(atoms), len(rules), len(composed)) == (n_atoms, n_rules, n_composed)


def count_at_every_binding(monkeypatch, name, original):
    """Wrap every qgrass module binding of original (as perfbench's tracer
    does), recording the arguments of every call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, superspaces, uqrep, weyl):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["act", "--family", "omega", "--m", "2", "--n", "1", "--q", "root", "--d", "8",
     "--word", "E1 F2 Kinv3 sigma d1 x2 sinv3 t3 X1 Th(1,2|0)", "--monomial", "(2,1|1)"],
    ["simple", "--family", "dual", "--m", "2", "--n", "1", "--t-max", "3"],
], ids=["act", "simple"])
def test_a_repeated_cli_call_repeats_every_traced_count(argv, monkeypatch, capsys):
    # the benchmark's traced pass runs after an untraced one in the same
    # process and must count the same calls: no process-wide cache may skip
    # a call of these
    counted = {name: count_at_every_binding(monkeypatch, name, original) for name, original in
               [("apply_atom", weyl.apply_atom), ("apply_word", weyl.apply_word),
                ("generator_word", uqrep.generator_word)]}
    runs = []
    for _ in range(2):
        marks = {name: len(calls) for name, calls in counted.items()}
        code = cli.main(argv)
        runs.append((code, capsys.readouterr().out,
                     {name: len(calls) - marks[name] for name, calls in counted.items()}))
    assert runs[0] == runs[1]
    code, _, counts = runs[0]
    assert code == 0 and all(counts.values()), counts


# ---------------------------------------------------------------------------
# index-level equality against evaluation on monomial vectors
# ---------------------------------------------------------------------------


def vector_level_equal(lhs, rhs, t_max):
    """operators_equal evaluated through apply_expr on SuperVectors."""
    space = (lhs or rhs)[0].space
    for t in range(t_max + 1):
        for idx in basis_of_degree(space, t):
            u = SuperVector.monomial(space, idx)
            va, vb = apply_expr(lhs, u), apply_expr(rhs, u)
            if va != vb:
                return False, {"monomial": str(idx), "lhs_image": va.to_json(),
                               "rhs_image": vb.to_json()}
    return True, None


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ((word(OMEGA11, partial(1), mult_x(1)),), (word(OMEGA11, mult_x(1), partial(1)),)),
        ((word(OMEGA11, mult_x(1)), word(OMEGA11, mult_x(2))), (word(OMEGA11, mult_x(1)),)),
    ],
    ids=["d1 x1 = x1 d1", "x1 + x2 = x1"],
)
def test_false_relation_witness_matches_vector_images(lhs, rhs):
    res = operators_equal(lhs, rhs, 3)
    assert not res.equal
    idx = MultiIndex((0, 0), OMEGA11.shape)
    u = SuperVector.monomial(OMEGA11, idx)
    assert res.witness == {
        "monomial": str(idx),
        "lhs_image": apply_expr(lhs, u).to_json(),
        "rhs_image": apply_expr(rhs, u).to_json(),
    }
    assert len(res.witness["lhs_image"]) == len(lhs)
    report = run_checks("false", OMEGA11, [Relation("false", lhs, rhs)], 3)
    assert report.results[0].witness == res.witness


def record_suites(monkeypatch):
    """Make run_checks (as weyl and uqrep call it) record each suite it is
    handed, as (suite, space, checks, t_max), and run none of them: each
    check is reported as passed, so the CLI sees a report that is not empty."""
    suites = []

    def building(suite, space, checks, t_max):
        suites.append((suite, space, checks, t_max))
        return weyl.RelationReport(suite, space, t_max,
                                   [weyl.CheckResult(c.name, True) for c in checks])

    monkeypatch.setattr(weyl, "run_checks", building)
    monkeypatch.setattr(uqrep, "run_checks", building)
    return suites


@pytest.mark.parametrize(
    "suite, space",
    [("weyl-generic", make_space(Family.OMEGA, 1, 1, mode)) for mode in MODES] + [
        ("dq", OMEGA21),
        ("weyl-odd-root", make_space(Family.OMEGA, 2, 1, D3)),
        ("weyl-even-root", make_space(Family.OMEGA, 2, 1, D8)),
        ("uq", OMEGA11),
        ("uq", make_space(Family.DUAL, 1, 1)),
        ("uq", make_space(Family.OMEGA_RESTRICTED, 2, 1, D3)),
    ],
    ids=MODE_IDS + [
        "dq-2-1", "weyl-odd-root-2-1-d3", "weyl-even-root-2-1-d8",
        "uq-omega-1-1", "uq-dual-1-1", "uq-omega-restricted-2-1-d3"],
)
def test_perturbed_relations_decide_as_on_vectors(suite, space, monkeypatch):
    # every relation of the suite, then with its right side scaled by q, or
    # its first left word dropped, or (generic) each right word divided by its
    # own q-integer, so the cleared denominator is a product of several: many
    # fail, at many monomials, and many one-word pairs are decided by their
    # rules' normal form
    q = space.mode.q()
    if suite == "uq":
        suites = record_suites(monkeypatch)
        verify_uq_relations(space, 3)
        ((_, _, relations, _),) = suites
    else:
        relations = build_suite(suite, space)
    failing = same_map = 0
    for rel in relations:
        variants = [
            (rel.lhs, rel.rhs),
            (rel.lhs, tuple(w.scaled(q) for w in rel.rhs)),
            (rel.lhs[1:], rel.rhs),
        ]
        if space.mode.is_generic:
            variants.append((rel.lhs, tuple(w.scaled(q_int(k + 2).inverse())
                                            for k, w in enumerate(rel.rhs))))
        for lhs, rhs in variants:
            if not lhs and not rhs:
                continue
            res = operators_equal(lhs, rhs, 3)
            assert (res.equal, res.witness) == vector_level_equal(lhs, rhs, 3)
            failing += not res.equal
            same_map += len(lhs) == len(rhs) == 1 and lhs[0].rule.same_map(rhs[0].rule)
    assert failing > 20 and same_map > 5


def sweep_suites(monkeypatch):
    """The (suite, space, checks, t_max) that the benchmark's ten sweep jobs
    hand run_checks, built and not run."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with monkeypatch.context() as patch:
        suites = record_suites(patch)
        for _, cmd in workloads.SWEEP_JOBS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(cmd.split()) == 0
    assert len(suites) == len(workloads.SWEEP_JOBS) == 10
    return suites


def test_the_sweep_decides_its_one_word_relations_by_normal_form(monkeypatch):
    # build the suites of the benchmark's sweep jobs without running them: a
    # change to the rule layout that turns the normal-form decision off fails here
    suites = [[c for c in checks if isinstance(c, Relation)]
              for _, _, checks, _ in sweep_suites(monkeypatch)]
    assert sum(bool(relations) for relations in suites) == 8
    relations = [rel for relations in suites for rel in relations]
    one_word = [rel for rel in relations if len(rel.lhs) == len(rel.rhs) == 1]
    decided = [rel for rel in one_word if rel.lhs[0].rule.same_map(rel.rhs[0].rule)]
    assert (len(relations), len(one_word), len(decided)) == (767, 694, 669)


class Enumerated:
    """A check's full enumeration, run as a check of its own."""

    def __init__(self, check):
        self.check = check

    def run(self, t_max):
        return self.check.enumerate(t_max)


def test_the_sweep_reduces_its_pair_laws_and_agrees_with_enumeration(monkeypatch):
    # every pair law and both triple laws of the sweep (associativity and the
    # twist move), decided by induction where run_checks can, and the 18
    # composite derivation laws and the twist move as corollaries of the laws
    # they follow from, against the enumeration of every pair or triple under
    # a memo of its own
    routes, compared, suites = Counter(), 0, sweep_suites(monkeypatch)
    for suite, space, checks, t_max in suites:
        results = run_checks(suite, space, checks, t_max).results
        routes.update((type(c).__name__, r.route) for c, r in zip(checks, results))
        reducible = [i for i, c in enumerate(checks) if isinstance(c, (PairCheck, TripleCheck))]
        enumerated = run_checks(suite, space, [Enumerated(checks[i]) for i in reducible], t_max)
        assert [r.route for r in enumerated.results] == ["enumeration"] * len(reducible)
        assert [r.to_json() for r in enumerated.results] == [
            results[i].to_json() for i in reducible]
        compared += len(reducible)
    assert compared == 42
    assert routes == {
        ("Relation", "normal form"): 724, ("Relation", "enumeration"): 43,
        ("PairCheck", "induction"): 21, ("PairCheck", "corollary"): 18,
        ("PairCheck", "enumeration"): 1,
        ("TripleCheck", "induction"): 1, ("TripleCheck", "corollary"): 1,
    }
    # the one pair law left enumerated has no twists to reduce by
    names = [c.name for _, _, checks, _ in suites for c in checks
             if isinstance(c, PairCheck) and c.twists is None]
    assert names == ["monomial twisted commutation"]


def test_each_stated_right_side_is_needed(monkeypatch):
    # every relation with a nonempty right side in the sweep's suites, and in
    # the sl variant on omega (2|2), fails once that side is scaled by q; a
    # right side of 0 is left out, as some of those sums hold by cancellation
    with monkeypatch.context() as patch:
        sl = record_suites(patch)
        verify_uq_relations(make_space(Family.OMEGA, 2, 2), 6, variant="sl")
    relations = [(c, t_max) for _, _, checks, t_max in sweep_suites(monkeypatch) + sl for c in checks
                 if isinstance(c, Relation) and c.rhs]
    held = [rel.name for rel, t_max in relations if operators_equal(
        rel.lhs, tuple(w.scaled(w.space.mode.q()) for w in rel.rhs), t_max).equal]
    assert (len(relations), held) == (744, [])


def mutations(rel):
    """The relation with one word scaled by q, or dropped, one at a time."""
    for side in (0, 1):
        words = (rel.lhs, rel.rhs)[side]
        for k, w in enumerate(words):
            for new in ((w.scaled(w.space.mode.q()),), ()):
                changed = words[:k] + new + words[k + 1:]
                yield (changed, rel.rhs) if side == 0 else (rel.lhs, changed)


def test_the_sums_route_is_sound_on_the_sweep_and_its_mutations(monkeypatch):
    # every Relation of the sweep decided in every degree holds by vector
    # enumeration two degrees past its t_max, and so does every mutation that
    # is decided so; a mutation the route refuses falls to enumeration
    decided, counts = 0, Counter()
    for _, _, checks, t_max in sweep_suites(monkeypatch):
        for rel in (c for c in checks if isinstance(c, Relation)):
            if operators_equal(rel.lhs, rel.rhs, t_max).route == "normal form":
                assert vector_level_equal(rel.lhs, rel.rhs, t_max + 2) == (True, None)
                decided += 1
            for lhs, rhs in mutations(rel):
                if not lhs and not rhs:
                    continue
                if operators_equal(lhs, rhs, t_max).route != "normal form":
                    counts["refused"] += 1
                    continue
                assert vector_level_equal(lhs, rhs, t_max + 2) == (True, None)
                counts["equal"] += 1
    assert decided == 724
    assert counts == {"refused": 3032, "equal": 71}


def test_the_sums_route_refuses_what_holds_only_up_to_t_max():
    # d1^(t+1) kills every monomial of degree <= t, but not x1^(t+1): the
    # route refuses it, so the verdict and report are the enumeration's
    t = 5
    lhs = (word(OMEGA21, *[partial(1)] * (t + 1)),)
    assert not weyl._sums_agree(OMEGA21, [lhs[0].rule], [], t)
    res = operators_equal(lhs, (), t)
    assert (res.equal, res.route) == (True, "enumeration")
    report = run_checks("beyond", OMEGA21, [Relation("d1^6 = 0", lhs, ())], t)
    assert report.to_json()["relations"] == [{"name": "d1^6 = 0", "status": "pass"}]
    res = operators_equal(lhs, (), t + 1)
    assert (res.equal, res.witness) == vector_level_equal(lhs, (), t + 1)
    assert res.witness["monomial"] == str(MultiIndex((t + 1, 0, 0), OMEGA21.shape))
    # a Weyl relation with a wrong coefficient fails in low degree, with the
    # first witness of vector enumeration
    q = OMEGA21.mode.q()
    lhs = (word(OMEGA21, partial(1), mult_x(1)), word(OMEGA21, mult_x(1), partial(1), coeff=-q * q))
    rhs = (word(OMEGA21, weyl.sigma(1, -1)),)
    assert operators_equal(lhs[:1] + (lhs[1].scaled(q.inverse()),), rhs, t).route == "normal form"
    res = operators_equal(lhs, rhs, t)
    assert (res.equal, res.witness) == vector_level_equal(lhs, rhs, t)
    assert res.witness is not None


def test_the_sums_route_visits_no_more_cells_than_enumeration_visits_monomials(monkeypatch):
    # on omega (1|12) at t_max 1 the Weyl and U_q(gl(1|12)) relations read
    # a few positions each: per rule the route visits at most as many cells
    # as enumeration visits monomials, and every verdict and witness is the
    # enumeration's
    space, t_max = make_space(Family.OMEGA, 1, 12), 1
    monomials = sum(len(basis_of_degree(space, t)) for t in range(t_max + 1))
    cells, add_terms = Counter(), weyl._add_terms

    def counted(*args):
        cells["rules"] += 1
        return add_terms(*args)

    with monkeypatch.context() as patch:
        suites = record_suites(patch)
        weyl.verify_relation_suite("weyl-generic", space, t_max)
        verify_uq_relations(space, t_max)
    monkeypatch.setattr(weyl, "_add_terms", counted)
    routes = Counter()
    for _, _, checks, _ in suites:
        for rel in (c for c in checks if isinstance(c, Relation)):
            cells.clear()
            res = operators_equal(rel.lhs, rel.rhs, t_max)
            assert cells["rules"] <= monomials * (len(rel.lhs) + len(rel.rhs))
            assert (res.equal, res.witness) == vector_level_equal(rel.lhs, rel.rhs, t_max)
            routes[res.route] += 1
    assert routes == {"normal form": 3017, "enumeration": 118}


@pytest.mark.parametrize("d", [5, 8])
def test_the_sums_route_keys_characters_mod_d(d):
    # hand-built rules x^(a) -> (-1)^(lam.a) q^(mu.a) scale x^(a) on two
    # divided-power positions at a primitive d-th root of unity
    space = make_space(Family.OMEGA, 2, 0, root_of_unity(d))

    def rule(*forms, scale=None):
        builder = RuleBuilder(space.mode, 2)
        for i, m, l in forms:
            builder.form(i, m, l)
        return builder.build(scale)

    def agree(lhs, rhs):
        return weyl._sums_agree(space, lhs, rhs, 11)

    assert agree([rule((0, 2, 0))], [rule((0, 2 + d, 0))])
    assert agree([rule((0, 1, 0), (1, -1, 1))] * 2,
                 [rule((0, 1 + d, 0), (1, d - 1, 1), scale=space.mode.scalar(2))])
    assert not agree([rule((0, 1, 0))], [rule((0, 2, 0))])
    assert not agree([rule((0, 1, 0))], [rule((1, 1, 0))])
    assert not agree([rule((0, 1, 1))], [rule((0, 1, 0))])
    assert not agree([rule((0, 1, 0))] * 2, [rule((0, 1, 0))])
    # (-1)^a is q^((d/2) a) at even d; the keys do not fold signs, so the
    # route refuses that sum and leaves it to enumeration
    if d % 2 == 0:
        assert not agree([rule((0, 0, 1))], [rule((0, d // 2, 0))])
        assert all(rule((0, 0, 1)).image(idx) == rule((0, d // 2, 0)).image(idx)
                   for t in range(12) for idx in basis_of_degree(space, t))
    else:
        assert not any(agree([rule((0, 0, 1))], [rule((0, m, 0))]) for m in range(d))


def test_mixed_space_expression_raises():
    lhs = (word(OMEGA11, partial(1)), word(OMEGA21, partial(1)))
    with pytest.raises(InvalidAtomError, match="operator words on different spaces"):
        operators_equal(lhs, (), 3)
    with pytest.raises(InvalidAtomError, match="operator words on different spaces"):
        operators_equal(word(OMEGA11, partial(1)), word(OMEGA21, partial(1)), 3)


# ---------------------------------------------------------------------------
# scope of the memo
# ---------------------------------------------------------------------------


class Probe:
    """A check that records whether a memo is open while it runs, for it and
    for a thread it starts."""

    name = "probe"

    def __init__(self):
        self.memo_open = self.thread_memo_open = None

    def run(self, t_max):
        self.memo_open = suite_memo.get() is not None
        seen = []
        thread = threading.Thread(target=lambda: seen.append(suite_memo.get()))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        self.thread_memo_open = seen != [None]
        return CheckResult(self.name, True)


class InvalidTwice:
    """A check applying an invalid atom twice; both applications must raise."""

    name = "invalid twice"

    def run(self, t_max):
        w = word(OMEGA21, tau(1))
        u = SuperVector.unit(OMEGA21)
        for _ in range(2):
            with pytest.raises(InvalidAtomError):
                apply_word(w, u)
        return CheckResult(self.name, True)


class InvalidInTwoWords:
    """A check compiling two words that share an invalid atom, each after a
    valid one; both must raise, and only the valid atoms are recorded."""

    name = "invalid in two words"

    def run(self, t_max):
        for w in (word(OMEGA21, tau(1), partial(1)), word(OMEGA21, tau(1), mult_x(2))):
            with pytest.raises(InvalidAtomError):
                w.rule
        assert suite_memo.get()[OMEGA21, "atoms"] == {partial(1), mult_x(2)}
        return CheckResult(self.name, True)


def test_words_sharing_an_invalid_atom_each_raise():
    assert run_checks("invalid", OMEGA21, [InvalidInTwoWords()], 2).passed


def theta_relation(shape):
    """Th(1,0) = Th(1,0) on omega (1|1), the label laid out in shape, in
    words of its own."""
    lab = MultiIndex((1, 0), shape)
    return Relation(f"Th{lab}", (word(OMEGA11, theta_op(lab)),), (word(OMEGA11, theta_op(lab)),))


@pytest.mark.parametrize("other_first", [False, True], ids=["own shape first", "other first"])
def test_a_theta_label_of_another_shape_raises_after_an_equal_label_passed(other_first):
    # the labels are equal MultiIndex values of two shapes; the memo of
    # validated atoms must not let the second label through
    own, other = OMEGA11.shape, make_space(Family.DUAL, 1, 1).shape
    assert own != other
    assert run_checks("own", OMEGA11, [theta_relation(own)], 2).passed
    with pytest.raises(ShapeMismatchError):
        run_checks("other", OMEGA11, [theta_relation(other)], 2)
    shapes = (other, own) if other_first else (own, other)
    with pytest.raises(ShapeMismatchError):
        run_checks("both", OMEGA11, [theta_relation(shape) for shape in shapes], 2)


def test_memo_is_open_only_inside_run_checks():
    probe = Probe()
    assert suite_memo.get() is None
    report = run_checks("scope", OMEGA11, [probe, InvalidTwice()], 2)
    assert report.passed and probe.memo_open
    assert probe.thread_memo_open is False
    assert suite_memo.get() is None
    Probe.run(probe, 2)
    assert probe.memo_open is False


def test_memo_is_dropped_when_a_check_raises():
    bad = Relation("mixed", (word(OMEGA11, partial(1)),), (word(OMEGA21, partial(1)),))
    with pytest.raises(InvalidAtomError):
        run_checks("raises", OMEGA11, [Probe(), Products(OMEGA11, 2), bad], 2)
    assert suite_memo.get() is None
