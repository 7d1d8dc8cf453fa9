"""Batch command-line front end producing JSON/CSV verification reports.

Subcommands:

* ``dims``          dimension formulas against direct enumeration, per degree
* ``act``           apply a generator word to a basis monomial
* ``check-uq``      defining relations of the quantum supergroup action
* ``check-leibniz`` module-algebra (twisted Leibniz) law
* ``check-weyl``    quantum Weyl algebra relation systems
* ``check-dq``      derivative-algebra relation systems
* ``hopf``          build a pointed Hopf presentation, dimensions and axioms
* ``simple``        highest-weight and simplicity reports over a degree range
* ``qtest``         q-combinatorics property sweep

Exit status: 0 all checks passed, 1 a verification failed (the report is
still written), 2 usage error.  Reports embed the run configuration and are
byte-deterministic for fixed flags; files are written atomically.
``main(argv)`` may be called repeatedly in one process; it builds its parser
once and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile

from . import __version__
from .indices import MultiIndex
from .qarith import (
    GENERIC,
    QMode,
    char_of,
    q_binom,
    q_binom_at_char,
    q_binom_split,
    q_binom_unbalanced,
    q_int,
    root_of_unity,
)
from .superspaces import (
    DUAL_SIDE,
    POLY_SIDE,
    Family,
    SuperVector,
    basis_of_degree,
    make_space,
    top_degree,
)
from .uqrep import (
    Gen,
    component_report,
    dim_formula,
    generator_word,
    verify_module_algebra,
    verify_uq_relations,
)
from .weyl import (
    InvalidAtomError,
    OperatorWord,
    apply_word,
    mult_x,
    mult_x_divpow,
    parity,
    partial,
    sigma,
    tau,
    theta_op,
    verify_relation_suite,
)
from . import hopf as hopf_mod


class UsageError(Exception):
    pass


def _mode_from_args(args) -> QMode:
    d = getattr(args, "d", None)
    q = args.q
    if q is None:  # infer: a given order selects root mode
        q = "root" if d else "generic"
    if q == "generic":
        if d:
            raise UsageError("--d only applies with --q root")
        return GENERIC
    if not d:
        raise UsageError("--q root requires --d")
    try:
        return root_of_unity(d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# the families a subcommand runs on, where it does not take every family
_FAMILIES = {
    "check-uq": POLY_SIDE + DUAL_SIDE,
    "check-leibniz": POLY_SIDE + DUAL_SIDE,
    "simple": POLY_SIDE + DUAL_SIDE,
    "check-weyl": POLY_SIDE,
    "check-dq": POLY_SIDE,
}


def _space_from_args(args):
    allowed = _FAMILIES.get(args.command)
    if allowed and Family(args.family) not in allowed:
        names = "/".join(f.value for f in allowed)
        raise UsageError(f"{args.command} runs on --family {names}, not {args.family}")
    mode = _mode_from_args(args)
    try:
        return make_space(args.family, args.m, args.n, mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# The most basis monomials a dims, simple or check-* run may enumerate over its
# degree range (or hopf --exhaustive over its basis), and the most pairs
# (triples, for the leibniz suite) of them a check-* run may quantify over.  The
# sweep script and the benchmark need at most a few hundred monomials, a hopf
# basis of 144, 301 pairs and 1,372 triples (tests/test_cli.py).
MAX_MONOMIALS = 10_000
MAX_TUPLES = 20_000
# The highest degree of an act monomial and the largest hopf --p-max.  Generic
# q-binomials grow with both: x1 on (500|) takes 0.05 s and eight x1 on it
# 2.2 s; --p-max 40 on aq (1|0) takes 0.2 s and 60 takes 0.8 s at 96 MB.  The
# benchmark's queries reach degree 8; its hopf runs, --p-max 4.
MAX_ACT_DEGREE = 500
MAX_P_MAX = 40


def _degrees(space, t_min: int, t_max: int) -> dict[int, int]:
    """dim_formula of each degree t_min..t_max, clipped to the top degree;
    refused before any basis is built when the range is empty, or holds more
    than MAX_MONOMIALS monomials, or is more than that many degrees."""
    top = top_degree(space)
    degrees = range(t_min, (t_max if top is None else min(t_max, top)) + 1)
    if not degrees:  # empty, or above the top degree
        raise UsageError(f"degrees {t_min}..{t_max} hold no basis monomial"
                         + ("" if t_min > t_max else f" (the top degree is {top})"))
    if len(degrees) > MAX_MONOMIALS:  # too many to sum dim_formula over
        size, unit = len(degrees), "degrees"
    else:
        dims = {t: dim_formula(space, t) for t in degrees}
        size, unit = sum(dims.values()), "basis monomials"
    if size > MAX_MONOMIALS:
        raise UsageError(f"degrees {t_min}..{degrees[-1]} span {size:,} {unit}, "
                         f"more than the limit of {MAX_MONOMIALS:,}; lower --t-max")
    return dims


def _tuples(dims: dict[int, int], k: int, t_max: int) -> int:
    """How many pairs (k = 2) or triples (k = 3) of monomials of the degrees
    0..top in dims have degree sum <= t_max."""
    upto = list(itertools.accumulate(dims.values()))  # monomials of degree <= t
    top = len(upto) - 1

    def pairs(budget: int) -> int:
        return sum(d * upto[min(top, budget - t)] for t, d in dims.items() if t <= budget)

    return pairs(t_max) if k == 2 else sum(d * pairs(t_max - t) for t, d in dims.items())


def _check_size(args, dims: dict[int, int]) -> None:
    """Refuse a check-* run whose pair laws (check-leibniz, leibniz suite) or triple
    laws (leibniz suite) span more than MAX_TUPLES; pairs first, bounding that work."""
    laws = 2 if getattr(args, "suite", None) == "leibniz" else int(args.command == "check-leibniz")
    for k, unit in ((2, "pairs"), (3, "triples"))[:laws]:
        size = _tuples(dims, k, args.t_max)
        if size > MAX_TUPLES:
            raise UsageError(f"degrees 0..{args.t_max} give {size:,} {unit} of basis monomials, "
                             f"more than the limit of {MAX_TUPLES:,}; lower --t-max")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qgrass-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict, args, csv_rows: list[dict] | None = None) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise UsageError("this subcommand has no CSV table; use --format json")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)
        _write_output(buf.getvalue(), args.out)
    else:
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)


def _config(args, **extra) -> dict:
    cfg = {
        "command": args.command,
        "version": __version__,
        "format": args.format,
    }
    for key in ("family", "m", "n", "q", "d", "t_max", "variant", "suite"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


def _parse_monomial(text: str, shape) -> MultiIndex:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if "|" not in body:
        raise UsageError("monomial syntax: (a1,...,am | f1,...,fn)")
    first, second = body.split("|", 1)

    def ints(chunk):
        chunk = chunk.strip()
        if not chunk:
            return []
        try:
            return [int(tok) for tok in chunk.split(",")]
        except ValueError:
            raise UsageError(f"monomial entries must be integers, got {text!r}") from None

    entries = tuple(ints(first) + ints(second))
    if len(entries) != shape.size:
        raise UsageError(f"monomial needs {shape.size} entries")
    return MultiIndex(entries, shape)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} takes a comma list of integers, got {text!r}") from None


def _parse_word(text: str, space) -> OperatorWord:
    word = OperatorWord(space, ())
    for token in text.split():
        word = word.then(_parse_token(token, space))
    return word


# generator token prefixes, each before any prefix of itself (SKinv before SK)
_GEN_TOKENS = (
    ("SKinv", Gen.SKINV),
    ("SK", Gen.SK),
    ("Kinv", Gen.KINV),
    ("K", Gen.K),
    ("E", Gen.E),
    ("F", Gen.F),
)
_ATOM_TOKENS = (("d", partial), ("x", mult_x), ("X", mult_x_divpow), ("t", tau))


def _parse_token(token: str, space) -> OperatorWord:
    if token == "sigma":
        return _generator(Gen.PARITY, 0, space)
    for name, gen in _GEN_TOKENS:
        if token.startswith(name) and token[len(name):].isdigit():
            return _generator(gen, int(token[len(name):]), space)
    if token.startswith("Th(") and token.endswith(")"):
        label = _parse_monomial(token[2:], space.shape)
        return OperatorWord(space, (theta_op(label),))
    if token == "par":
        return OperatorWord(space, (parity(),))
    if token.startswith("sinv") and token[4:].isdigit():
        return OperatorWord(space, (sigma(int(token[4:]), -1),))
    if token.startswith("s") and token[1:].isdigit():
        return OperatorWord(space, (sigma(int(token[1:]), 1),))
    for prefix, ctor in _ATOM_TOKENS:
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            return OperatorWord(space, (ctor(int(token[len(prefix):])),))
    raise UsageError(f"cannot parse generator token {token!r}")


def _generator(kind: Gen, i: int, space) -> OperatorWord:
    try:
        return generator_word(kind, i, space)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dims(args) -> int:
    space = _space_from_args(args)
    rows = []
    ok = True
    for t, formula in _degrees(space, 0, args.t_max).items():
        enum = len(basis_of_degree(space, t))
        rows.append(
            {"t": t, "dim_formula": formula, "dim_enum": enum, "equal": formula == enum}
        )
        ok = ok and formula == enum
    payload = {"config": _config(args), "space": space.describe(), "rows": rows, "passed": ok}
    _emit(payload, args, csv_rows=rows)
    return 0 if ok else 1


def _cmd_act(args) -> int:
    space = _space_from_args(args)
    idx = _parse_monomial(args.monomial, space.shape)
    if not idx.is_valid_basis_key():
        raise UsageError(f"{idx} is not a basis monomial of this space")
    if idx.degree() > MAX_ACT_DEGREE:
        raise UsageError(f"{idx} has degree {idx.degree()}, more than the limit of "
                         f"{MAX_ACT_DEGREE}")
    word = _parse_word(args.word, space)
    try:
        image = apply_word(word, SuperVector.monomial(space, idx))
    except InvalidAtomError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "config": _config(args, word=args.word, monomial=str(idx)),
        "space": space.describe(),
        "image": image.to_json(),
    }
    _emit(payload, args)
    return 0


def _cmd_check(args) -> int:
    space = _space_from_args(args)
    _check_size(args, _degrees(space, 0, args.t_max))
    report = args.check(space, args)
    payload = {"config": _config(args), **report.to_json()}
    _emit(payload, args)
    return 0 if report.passed else 1


def _check_weyl(space, args):
    try:
        return verify_relation_suite("weyl-" + args.suite, space, args.t_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _hopf_presentation(args):
    """The presentation a hopf run checks; refused when --exhaustive asks for
    an infinite basis or one of more than MAX_MONOMIALS elements."""
    kwargs: dict = {"mode": _mode_from_args(args)}
    if args.hopf_family in ("taft-mn", "aq", "dq", "dq-restricted", "gq", "gq-restricted"):
        kwargs.update(m=args.m, n=args.n)
    if args.hopf_family in ("taft-orders", "taft-orders-generalized"):
        if not args.orders:
            raise UsageError("this family needs --orders, e.g. --orders 2,3")
        kwargs["orders"] = _int_list(args.orders, "--orders")
        if args.hopf_family == "taft-orders-generalized":
            if not args.group_orders:
                raise UsageError("needs --group-orders")
            kwargs["group_orders"] = _int_list(args.group_orders, "--group-orders")
    try:
        pres = hopf_mod.build(args.hopf_family, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dim = hopf_mod.pbw_dim(pres)
    if args.exhaustive and dim is math.inf:
        raise UsageError("--exhaustive needs a finite presentation; this one is infinite")
    if args.exhaustive and dim > MAX_MONOMIALS:
        raise UsageError(f"--exhaustive would check {dim:,} basis elements, "
                         f"more than the limit of {MAX_MONOMIALS:,}")
    return pres


def _cmd_hopf(args) -> int:
    if args.p_max > MAX_P_MAX:
        raise UsageError(f"--p-max {args.p_max} is more than the limit of {MAX_P_MAX}")
    pres = _hopf_presentation(args)
    depth = "exhaustive" if args.exhaustive else "generators"
    report = hopf_mod.verify_hopf(pres, depth=depth)
    payload = {
        "config": _config(args, hopf_family=args.hopf_family, depth=depth),
        "presentation": pres.to_json(),
        **report.to_json(),
    }
    if args.divided_power is not None:
        try:
            dp = hopf_mod.divided_power_coproduct_check(pres, args.divided_power - 1, args.p_max)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload["divided_power"] = dp.to_json()
        ok = report.passed and dp.passed
    else:
        ok = report.passed
    _emit(payload, args)
    return 0 if ok else 1


def _cmd_simple(args) -> int:
    if args.t_min < 0:
        raise UsageError("--t-min must be nonnegative")
    space = _space_from_args(args)
    reports = []
    rows = []
    ok = True
    for t in _degrees(space, args.t_min, args.t_max):
        rep = component_report(space, t)
        reports.append(rep.to_json())
        rows.append(
            {
                "t": t,
                "dim": rep.dim,
                "hw_dim": len(rep.hw_basis),
                "simple": rep.simple,
                "hw_matches_expected": rep.hw_matches_expected,
            }
        )
        ok = ok and rep.passed
    payload = {
        "config": _config(args, t_min=args.t_min),
        "space": space.describe(),
        "passed": ok,
        "components": reports,
    }
    _emit(payload, args, csv_rows=rows)
    return 0 if ok else 1


def _cmd_qtest(args) -> int:
    if args.max < 1:
        raise UsageError("--max must be at least 1")
    orders = _int_list(args.d_list, "--d-list") if args.d_list else (3, 5, 6, 8)
    try:
        roots = [root_of_unity(d) for d in orders]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    checks = []

    def record(name, passed):
        checks.append({"name": name, "status": "pass" if passed else "fail"})

    n_max = args.max
    ok = True
    for n in range(1, n_max + 1):
        ok &= q_int(-n) == -q_int(n)
    record(f"[-n] = -[n] for n <= {n_max}", ok)
    modes = [GENERIC] + roots
    for mode in modes:
        label = "generic" if mode.is_generic else f"d={mode.d}"
        ok = True
        for n in range(1, n_max + 1):
            for r in range(n + 1):
                lhs = q_binom(n, r, mode)
                rhs = mode.q_power(r - n) * q_binom(n - 1, r - 1, mode) + mode.q_power(
                    r
                ) * q_binom(n - 1, r, mode)
                ok &= lhs == rhs
        record(f"Pascal identity up to {n_max} ({label})", ok)
    ok = True
    for s in range(0, n_max + 1):
        for r in range(0, s + 1):
            val = q_binom(s, r)
            ok &= val.num.invert_variable() == val.num
    record("balanced symmetry of the Gaussian binomials", ok)
    for d, mode in zip(orders, roots):
        ell = char_of(mode).ell
        ok = True
        for s in range(0, 3 * ell + 1):
            for r in range(0, s + 1):
                ok &= q_binom(s, r, mode) == q_binom_split(s, r, mode)
            ok &= q_binom(s, ell, mode) == q_binom_at_char(s, mode)
        record(f"digit factorization at d={d} for 0 <= r <= s <= {3 * ell}", ok)
        # the one-sided bracket (r)_q vanishes exactly when ord(q) divides r
        if d % 2:
            ok = q_binom_unbalanced(ell, 1, mode).is_zero()
            record(f"one-sided bracket ({ell})_q vanishes at d={d}", ok)
        else:
            ok = q_binom_unbalanced(d, 1, mode).is_zero() and not q_binom_unbalanced(
                ell, 1, mode
            ).is_zero()
            record(f"one-sided bracket ({d})_q vanishes, ({ell})_q does not, at d={d}", ok)
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"config": _config(args, d_list=orders), "passed": passed, "checks": checks}
    _emit(payload, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub, family=True, degrees=True):
    sub.add_argument("--q", choices=["generic", "root"], default=None,
                     help="coefficient mode; defaults to root when --d is given")
    sub.add_argument("--d", type=int, default=None, help="order of q in root mode")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out", default=None, help="output path (atomic write)")
    if family:
        sub.add_argument(
            "--family",
            choices=[f.value for f in Family],
            default="omega",
        )
        sub.add_argument("--m", type=int, required=True)
        sub.add_argument("--n", type=int, required=True)
    if degrees:
        sub.add_argument("--t-max", dest="t_max", type=int, default=6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=f"qgrass {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dims", help="dimension formula vs enumeration")
    _add_common(p)
    p.set_defaults(fn=_cmd_dims)

    p = subs.add_parser("act", help="apply a generator word to a monomial")
    _add_common(p, degrees=False)
    p.add_argument("--word", required=True,
                   help="e.g. 'E1 F2 K1 sigma d1 x2 s1 sinv2 t3 X1 Th(1,0|0)'")
    p.add_argument("--monomial", required=True, help="e.g. '(2,0 | 1)'")
    p.set_defaults(fn=_cmd_act)

    p = subs.add_parser("check-uq", help="quantum supergroup defining relations")
    _add_common(p)
    p.add_argument("--variant", choices=["gl", "sl"], default="gl")
    p.set_defaults(fn=_cmd_check, check=lambda space, args: verify_uq_relations(
        space, args.t_max, variant=args.variant))

    p = subs.add_parser("check-leibniz", help="module-algebra law")
    _add_common(p)
    p.set_defaults(fn=_cmd_check,
                   check=lambda space, args: verify_module_algebra(space, args.t_max))

    p = subs.add_parser("check-weyl", help="quantum Weyl algebra relations")
    _add_common(p)
    p.add_argument("--suite", choices=["generic", "odd-root", "even-root"],
                   default="generic")
    p.set_defaults(fn=_cmd_check, check=_check_weyl)

    p = subs.add_parser("check-dq", help="derivative-algebra relations")
    _add_common(p)
    p.add_argument("--suite", choices=["partials", "dq", "leibniz"], default="dq")
    p.set_defaults(fn=_cmd_check, check=lambda space, args: verify_relation_suite(
        args.suite, space, args.t_max))

    p = subs.add_parser("hopf", help="pointed Hopf presentations and axioms")
    _add_common(p, family=False, degrees=False)
    p.add_argument("--family", dest="hopf_family",
                   choices=list(hopf_mod.HOPF_FAMILIES), required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--orders", default=None, help="comma list for the diagonal families")
    p.add_argument("--group-orders", dest="group_orders", default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--divided-power", dest="divided_power", type=int, default=None,
                   help="1-based skew generator index for the coproduct expansion check")
    p.add_argument("--p-max", dest="p_max", type=int, default=4)
    p.set_defaults(fn=_cmd_hopf)

    p = subs.add_parser("simple", help="highest weights and simplicity per degree")
    _add_common(p)
    p.add_argument("--t-min", dest="t_min", type=int, default=0)
    p.set_defaults(fn=_cmd_simple)

    p = subs.add_parser("qtest", help="q-combinatorics property sweep")
    p.add_argument("--d-list", dest="d_list", default=None, help="default 3,5,6,8")
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_qtest)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(builder) -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then reused.

    ``main`` passes the module's current ``build_parser``, so a replacement
    bound there (a test double, a tracing wrapper) builds on its next call.
    Reuse is safe because ``parse_args`` leaves the parser unchanged.
    """
    return builder()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser(build_parser).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
