"""Test-local oracles of the star pairing, independent of the package.

The package pairs exponents in one place, indices.position_sums, as linear
forms in the second argument.  These helpers compute the same pairings from
the definition a * b = sum_{i > j} a_i b_j in one pass over both labels
(test_indices checks them against the double sum), so the tests of the
structure constants and of the twist bicharacter never read the code they
check.  Not a test module: pytest does not collect it.
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
