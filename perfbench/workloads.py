"""Inputs of the three benchmark workloads, made from a seed.

``sweep`` and ``certify`` are fixed job lists whose order the seed permutes;
their report references therefore do not depend on the seed.  ``queries`` is
a fixed pool of one-shot ``act``/``dims`` calls, generated once from
``POOL_SEED``; the run seed draws ``QUERIES_PER_PASS`` of them in its own
order, so every query of every seed has a stored reference digest.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "certify", "queries")

# The ten check-* runs of scripts/run_full_verification.py: relation-system
# traffic, multiplication-bound, the same atoms applied again and again.
SWEEP_JOBS = (
    ("check-dq-2-2", "check-dq --suite dq --family omega --m 2 --n 2 --t-max 6"),
    ("check-leibniz-suite-2-1", "check-dq --suite leibniz --family omega --m 2 --n 1 --t-max 5"),
    ("check-weyl-generic-2-2", "check-weyl --suite generic --family omega --m 2 --n 2 --t-max 6"),
    ("check-weyl-odd-root", "check-weyl --suite odd-root --family omega --m 2 --n 1 --q root --d 3 --t-max 6"),
    ("check-weyl-even-root", "check-weyl --suite even-root --family omega --m 2 --n 1 --q root --d 8 --t-max 6"),
    ("check-uq-omega-2-2", "check-uq --family omega --m 2 --n 2 --t-max 6"),
    ("check-uq-dual-2-2", "check-uq --family dual --m 2 --n 2 --t-max 6"),
    ("check-uq-restricted-2-1", "check-uq --family omega-restricted --m 2 --n 1 --q root --d 3 --t-max 6"),
    ("check-leibniz-omega-2-1", "check-leibniz --family omega --m 2 --n 1 --t-max 5"),
    ("check-leibniz-dual-2-1", "check-leibniz --family dual --m 2 --n 1 --t-max 5"),
)

# Division-heavy side: RowSpace pivots, generic gcd normalisation, phi(12)=4
# residues, and the only traffic through the Hopf checker.  taft-mn (1|1)
# --exhaustive is left out: it fails by design (README, associativity note).
CERTIFY_JOBS = (
    ("simple-omega-3-1", "simple --family omega --m 3 --n 1 --t-max 5"),
    ("simple-omega-2-2", "simple --family omega --m 2 --n 2 --t-max 5"),
    ("simple-dual-2-2", "simple --family dual --m 2 --n 2 --t-max 4"),
    ("simple-omega-restricted-3-1-d3", "simple --family omega-restricted --m 3 --n 1 --q root --d 3"),
    ("simple-omega-restricted-2-1-d5", "simple --family omega-restricted --m 2 --n 1 --q root --d 5"),
    ("hopf-taft-orders-3-4-d12", "hopf --family taft-orders --orders 3,4 --q root --d 12 --exhaustive"),
    ("hopf-taft-2-0-d3", "hopf --family taft-mn --m 2 --n 0 --q root --d 3 --exhaustive"),
    ("hopf-dq-2-1", "hopf --family dq --m 2 --n 1"),
    ("hopf-aq-2-1", "hopf --family aq --m 2 --n 1"),
    # the simple/hopf runs of scripts/run_full_verification.py
    ("simple-omega-2-1", "simple --family omega --m 2 --n 1 --t-max 4"),
    ("simple-omega-restricted", "simple --family omega-restricted --m 2 --n 1 --q root --d 3 --t-max 5"),
    ("simple-dual-2-1", "simple --family dual --m 2 --n 1 --t-max 3"),
    ("hopf-taft-1-0", "hopf --family taft-mn --m 1 --n 0 --q root --d 3 --exhaustive --divided-power 1"),
    ("hopf-taft-1-1", "hopf --family taft-mn --m 1 --n 1 --q root --d 3"),
    ("hopf-taft-orders-2-3", "hopf --family taft-orders --orders 2,3 --q root --d 6 --exhaustive"),
    ("hopf-dq-1-1", "hopf --family dq --m 1 --n 1"),
    ("hopf-aq-1-1", "hopf --family aq --m 1 --n 1"),
    ("hopf-dq-restricted", "hopf --family dq-restricted --m 1 --n 1 --q root --d 3"),
    ("hopf-gq-restricted", "hopf --family gq-restricted --m 1 --n 1 --q root --d 3 --divided-power 1 --p-max 3"),
)

POOL_SEED = 20190923
POOL_SIZE = 4000
QUERIES_PER_PASS = 1000
DIMS_SHARE = 0.1
MAX_DEGREE = 8
MAX_WORD = 8

_SHAPES = ((1, 1), (2, 0), (2, 1), (1, 2), (3, 0), (3, 1), (2, 2), (3, 2))
_ELL = {3: 3, 8: 4}  # char(q) for the root orders used below


def jobs(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's (name, argv) jobs in the seed's order."""
    table = {"sweep": SWEEP_JOBS, "certify": CERTIFY_JOBS}[workload]
    out = [(name, cmd.split()) for name, cmd in table]
    random.Random(seed).shuffle(out)
    return out


def queries(seed: int) -> list[int]:
    """Pool indices of the queries a pass sends, in sending order."""
    return random.Random(seed).sample(range(POOL_SIZE), QUERIES_PER_PASS)


def query_pool() -> list[list[str]]:
    """The fixed pool of query argvs; the same on every run and machine."""
    rng = random.Random(POOL_SEED)
    return [_make_query(rng) for _ in range(POOL_SIZE)]


def _make_query(rng: random.Random) -> list[str]:
    family = rng.choice(("omega", "dual", "omega-restricted"))
    d = rng.choice((3, 8)) if family == "omega-restricted" else rng.choice((None, 3, 8))
    m, n = rng.choice(_SHAPES)
    space = ["--family", family, "--m", str(m), "--n", str(n)]
    if d is not None:
        space += ["--q", "root", "--d", str(d)]
    if rng.random() < DIMS_SHARE:
        return ["dims"] + space + ["--t-max", str(rng.randint(2, MAX_DEGREE))]
    dual = family == "dual"
    fermionic = [(p < m) if dual else (p >= m) for p in range(m + n)]
    cap = _ELL[d] - 1 if family == "omega-restricted" else None
    monomial = _random_monomial(rng, fermionic, cap)
    word = _random_word(rng, family, d, fermionic)
    text = "(" + ",".join(map(str, monomial[:m])) + " | " + ",".join(map(str, monomial[m:])) + ")"
    return ["act"] + space + ["--word", " ".join(word), "--monomial", text]


def _random_monomial(rng: random.Random, fermionic: list[bool], cap: int | None) -> list[int]:
    entries = [0] * len(fermionic)
    for _ in range(rng.randint(0, MAX_DEGREE)):
        room = [p for p, fer in enumerate(fermionic)
                if entries[p] < (1 if fer else cap if cap is not None else MAX_DEGREE)]
        if not room:
            break
        entries[rng.choice(room)] += 1
    return entries


def _random_word(rng: random.Random, family: str, d: int | None, fermionic: list[bool]) -> list[str]:
    size = len(fermionic)
    gens = ["sigma"]
    gens += [f"{g}{i}" for g in ("E", "F", "SK", "SKinv") for i in range(1, size)]
    gens += [f"{g}{i}" for g in ("K", "Kinv") for i in range(1, size + 1)]
    atoms = ["par"]
    atoms += [f"{a}{i}" for a in ("d", "x", "s", "sinv") for i in range(1, size + 1)]
    if family != "dual":
        atoms += [f"t{p + 1}" for p in range(size) if fermionic[p]]
    if family == "omega" and d is not None:
        atoms += [f"X{p + 1}" for p in range(size) if not fermionic[p]]
    word = []
    for _ in range(rng.randint(1, MAX_WORD)):
        if family != "dual" and rng.random() < 0.1:
            label = [rng.randint(0, 2) for _ in range(size)]
            word.append("Th(" + ",".join(map(str, label)) + "|)")
        else:
            word.append(rng.choice(gens if rng.random() < 0.5 else atoms))
    return word
