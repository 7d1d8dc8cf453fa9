"""Test-local oracles of the star pairing and the atoms, independent of the
package.

The package pairs exponents in one place, indices.position_sums, as linear
forms in the second argument.  These helpers compute the same pairings from
the definition a * b = sum_{i > j} a_i b_j in one pass over both labels
(test_indices checks them against the double sum), so the tests of the
structure constants and of the twist bicharacter never read the code they
check.  The package defines every atom by one compiled rule (weyl._atom_rule);
twist_or_derivative gives the sigma, tau, parity and derivative atoms from
their per-monomial coefficient formulas instead.  first_proper_reach finds
the first node of a graph that does not reach every node by one search per
seed, where the package's simplicity certificate takes three searches.  Not
a test module: pytest does not collect it.
"""


def split_star(a, b):
    """The pairing a * b split by the parities of positions i > j, as (bos_a*bos_b,
    fer_a*fer_b, fer_a*bos_b, bos_a*fer_b); a and b share one shape."""
    mask = a.shape.fermionic_mask
    bb = ff = fb = bf = 0
    run_b_bos = run_b_fer = 0  # sums of b_j over earlier bosonic / fermionic j
    for ai, bi, fer in zip(a.entries, b.entries, mask):
        if ai:
            if fer:
                ff += ai * run_b_fer
                fb += ai * run_b_bos
            else:
                bb += ai * run_b_bos
                bf += ai * run_b_fer
        if fer:
            run_b_fer += bi
        else:
            run_b_bos += bi
    return bb, ff, fb, bf


def star_theta_exponents(a, b):
    """The twist bicharacter theta(a, b) = (-1)^lam q^mu of polynomial-side
    labels from the star pairings both ways: lam = (ff_ab - ff_ba) mod 2 and
    mu = (bb_ab - bb_ba) + (ff_ab - ff_ba) + (fb_ab - fb_ba)."""
    bb_ab, ff_ab, fb_ab, _ = split_star(a, b)
    bb_ba, ff_ba, fb_ba, _ = split_star(b, a)
    return (ff_ab - ff_ba) % 2, (bb_ab - bb_ba) + (ff_ab - ff_ba) + (fb_ab - fb_ba)


def twist_or_derivative(space, atom, idx):
    """A sigma, tau, parity or derivative atom, of a kind the space has, on
    one basis monomial, from its coefficient formula; None when the image is
    0.  sigma has base -q on the exterior directions of the polynomial side,
    q^-1 on the divided powers of the dual side and q elsewhere; a
    derivative at position p reads the entries before p."""
    mode, kind, entries = space.mode, atom.kind.name, idx.entries
    mask = space.shape.fermionic_mask
    dual = space.family.value in ("dual", "dual-restricted")
    if kind == "PARITY":
        w = sum(e for e, fer in zip(entries, mask) if fer != dual)
        return mode.scalar(-1 if w % 2 else 1), idx
    p = atom.pos - 1
    v, fermionic = entries[p], mask[p]
    if kind == "SIGMA":
        if fermionic and space.family.value in ("omega", "omega-restricted"):
            return mode.minus_q_power(atom.exp * v), idx
        return mode.q_power(-atom.exp * v if dual and not fermionic else atom.exp * v), idx
    if kind == "TAU":
        return mode.scalar(-1 if v % 2 else 1), idx
    assert kind == "PARTIAL", kind
    if v == 0:
        return None
    prefix = sum(entries[:p])
    fer_before = sum(e for e, fer in zip(entries[:p], mask) if fer)
    target = type(idx)(entries[:p] + (v - 1,) + entries[p + 1:], idx.shape)
    if not dual:
        coeff = mode.q_power(-prefix)
        return (-coeff if fermionic and fer_before % 2 else coeff), target
    if fermionic:
        return mode.minus_q_power(prefix), target
    coeff = mode.q_power(prefix)
    fer_deg = sum(e for e, fer in zip(entries, mask) if fer)
    return (-coeff if fer_deg % 2 else coeff), target


def first_proper_reach(nodes, targets):
    """The first node, in the order of nodes, that reaches fewer than all of
    them along targets (node -> iterable of nodes), with the number it
    reaches (itself included); None when every node reaches every node."""
    for seed in nodes:
        reached, todo = {seed}, [seed]
        while todo:
            for nxt in targets[todo.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        if len(reached) < len(nodes):
            return seed, len(reached)
    return None
