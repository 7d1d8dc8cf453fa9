"""What each relation suite compares, word by word.

The reports name each relation and give its verdict; a relation whose words
change but that still passes leaves them unchanged.  This pins the relation
lists themselves: every Relation of every weyl suite and of both U_q
variants, as its suite, its name and, for each word of each side, its atoms
(a twist atom with its label's shape) and its scalar (None when it has none).
It pins the pair and triple laws too, by suite, class and name, so a change
that drops, renames or reorders one shows.
"""

import hashlib
import itertools

from qgrass import uqrep, weyl
from qgrass.qarith import GENERIC, root_of_unity
from qgrass.superspaces import Family, make_space

FAMILIES = (Family.OMEGA, Family.OMEGA_RESTRICTED, Family.DUAL, Family.DUAL_RESTRICTED)
MODES = (GENERIC, root_of_unity(3), root_of_unity(5), root_of_unity(8))


def render_word(w) -> str:
    atoms = " ".join(a.render() if a.label_shape is None else f"{a.render()}@{a.label_shape}"
                     for a in w.atoms)
    return f"[{atoms}] * {w.scalar}"


def render(suite: str, rel) -> str:
    return (f"{suite} | {rel.name} | " + " + ".join(map(render_word, rel.lhs)) + " = "
            + " + ".join(map(render_word, rel.rhs)))


def built_checks(space, monkeypatch, runs) -> list[tuple[str, object]]:
    """(suite, check) for every check of every weyl suite that builds on the
    space, then of each (suite, run) in runs, a uqrep verifier called on the
    space whose checks are handed to run_checks and not run."""
    out = []
    for suite in weyl.SUITE_NAMES:
        try:
            checks = weyl.build_suite(suite, space)
        except ValueError:  # a root branch at another root, or a twist on the dual side
            continue
        out += [(suite, c) for c in checks]
    for suite, run in runs:
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(uqrep, "run_checks", lambda suite, space, checks, t_max: built.extend(checks))
            run(space)
        out += [(suite, c) for c in built]
    return out


def relation_entries(space, monkeypatch) -> list[str]:
    """The rendered relations of every suite that builds on the space, then
    of both U_q variants."""
    runs = [(f"uq-{variant}", lambda sp, v=variant: uqrep.verify_uq_relations(sp, 1, v))
            for variant in ("gl", "sl")]
    return [render(suite, c) for suite, c in built_checks(space, monkeypatch, runs)
            if isinstance(c, weyl.Relation)]


def law_entries(space, monkeypatch) -> list[str]:
    """Every PairCheck and TripleCheck of every suite that builds on the
    space, then of verify_module_algebra, as suite | class | name."""
    runs = [("module-algebra", lambda sp: uqrep.verify_module_algebra(sp, 0))]
    return [f"{suite} | {type(c).__name__} | {c.name}"
            for suite, c in built_checks(space, monkeypatch, runs)
            if isinstance(c, (weyl.PairCheck, weyl.TripleCheck))]


def pinned(entries, monkeypatch) -> tuple[int, str]:
    """The count and sha256 of entries(space, monkeypatch) over the grid:
    m, n <= 2 with m + n >= 2, the four Grassmann-type families, generic and
    d in {3, 5, 8}; the restricted families exist at a root only."""
    digest, count = hashlib.sha256(), 0
    for mode, family, m, n in itertools.product(MODES, FAMILIES, range(3), range(3)):
        if m + n < 2 or (family in (Family.OMEGA_RESTRICTED, Family.DUAL_RESTRICTED)
                         and mode.is_generic):
            continue
        for entry in entries(make_space(family, m, n, mode), monkeypatch):
            digest.update(entry.encode() + b"\n")
            count += 1
    return count, digest.hexdigest()


def test_the_relation_lists_are_pinned(monkeypatch):
    count, digest = pinned(relation_entries, monkeypatch)
    assert count == 13985
    assert digest == "581973685562fe801136a8ed823d6ff11e7669a319ad5a7a6fd743018385cc7d"


def test_the_pair_and_triple_law_lists_are_pinned(monkeypatch):
    count, digest = pinned(law_entries, monkeypatch)
    assert count == 1512
    assert digest == "46fafb48aa22a7d079354a83088aef2d1ec8bd5a3080719e0082aab0ff17e51b"


def test_a_twist_label_shape_and_a_missing_scalar_are_rendered(monkeypatch):
    # the pin sees what equality of relations sees: a theta atom's label
    # shape, and a word with no scalar apart from one with scalar 1
    entries = relation_entries(make_space(Family.OMEGA, 1, 1), monkeypatch)
    assert "dq | s1 s2 = s2 s1 | [s1 s2] * None = [s2 s1] * None" in entries
    assert any("Th(1 | 0)@Shape(m=1, n=1" in e for e in entries)
