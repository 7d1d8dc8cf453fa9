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
still written), 2 usage error, an ``--out`` that cannot be written, or a run
whose work estimate is over ``WORK_LIMIT``, refused before any work.  Reports
embed the run configuration and are byte-deterministic for fixed flags; files
are written atomically.
``main(argv)`` may be called repeatedly in one process; it builds its parser
once and reuses it.  An argv of a subcommand and exact ``--option value``
pairs and store_true flags, each option once and every value valid, is read
in one pass from the subcommand's own argparse tables (``_read_args``); any
other argv goes to the top-level argparse parser, the one source of help,
usage and error text.  JSON reports are written by ``_json``: the text of
``json.dumps(indent=2, sort_keys=True)``, with floats refused.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import re
import sys
import tempfile
from json.encoder import encode_basestring_ascii

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


# The most work units a run may be estimated at (_estimate); a unit took 0.06 us
# in the median run timed on a 2-vCPU x86-64 host and 1.1 us at most (CHANGES.md).
WORK_LIMIT = 20_000_000


def _weight(d: int, degree: int) -> int:
    """One scalar operation: O(degree^2) Laurent terms, O(d^2) residue products."""
    return (max(degree, 0) + 1) ** 2 + d * d


def _monomials(b: int, f: int, t: int) -> int:
    """Monomials of degree <= t in b unbounded and f exterior exponents."""
    return sum(math.comb(f, s) * math.comb(t - s + b, b) for s in range(min(t, f) + 1))


def _estimate(args) -> int:
    """Work from the arguments alone: enumeration size times scalar weight, plus
    d^3 for the char(q) scan.  Counts bound: no restricted caps, hopf caps d,
    group orders 2d, and ranks to 64 (where the probe alone is over the limit)."""
    d = abs(getattr(args, "d", None) or 0)
    if args.command == "qtest":  # Pascal per mode, balanced symmetry, digits to 3 ell <= 3d
        n, ds = max(args.max, 0), [abs(o) for o in _int_list(args.d_list, "--d-list")]
        work = (n + 1) * (n + 2) // 2 * (2 * _weight(0, n) + sum(_weight(o, n) for o in ds))
        return work + sum((3 * o + 1) * (3 * o + 2) // 2 * _weight(o, 3 * o) for o in ds)
    if args.command == "act":  # k degree-raising atoms: q-binomials of k + 1 rows
        names = [token.rstrip("0123456789") for token in _word_tokens(args.word)]
        raising = sum(name in ("E", "F", "x", "X") for name in names)
        degree = sum(map(int, re.findall(r"-?\d+", args.monomial))) + raising
        work = sum([_ATOMS.get(name, 1) for name in names]) * (raising + 1) * _weight(d, degree)
    elif args.command == "hopf":  # g^3 generator triples of four O(g) products, and the
        m, n, fam = min(max(args.m, 0), 64), min(max(args.n, 0), 64), args.hopf_family
        if fam.startswith("taft-orders"):  # basis squared: a coproduct of up to dim terms
            orders = _int_list(args.orders, "--orders") if args.orders else ()
            group = _int_list(args.group_orders, "--group-orders") if args.group_orders else orders
            gens, dim = 2 * len(orders), math.prod(orders) * math.prod(group)
        else:  # an infinite basis is refused once built; generic q counts as order 1
            dq, e = fam.startswith("dq"), d or 1
            gens = 3 * m + 4 * n if dq else 2 * (m + n) + m * (fam == "gq")
            dim = e ** (2 * m) * 4 ** n * (2 * e) ** ((n + 1) * dq)
        # the probe forms two products per triple; four make the term a bound
        work = (4 * gens ** 4 + args.exhaustive * dim ** 2) * (d + 1)  # characters: O(d)
        if args.divided_power is not None:  # p-steps of q-binomial weight, and the
            p = max(args.p_max, 0)  # threshold power, of an order dividing 2d
            work += (p + 1) * (p + 2) // 2 * _weight(d, p) + (2 * d) ** 2 * _weight(d, 0)
    else:
        b, f = (args.n, args.m) if args.family.startswith("dual") else (args.m, args.n)
        b, f, t_max = max(b, 0), max(f, 0), args.t_max
        if args.family.endswith("restricted") and d:
            t_max = min(t_max, b * (d - 1) + f)
        top = min(t_max, cap := math.isqrt(WORK_LIMIT))  # past cap the weight alone is over
        if args.command == "dims":  # degrees and monomials
            size = top + 1 + _monomials(b, f, top)
        elif args.command == "simple":  # a breadth-first search per seed
            size = sum(1 + (_monomials(b, f, t) - _monomials(b, f, t - 1)) ** 2
                       for t in range(max(min(args.t_min, cap), 0), top + 1))
        else:  # each monomial, and the k factors of each pair (k = 2) or triple (k = 3)
            suite = getattr(args, "suite", "")  # of a law: the monomials of k copies
            laws = 2 if args.command == "check-leibniz" else 3 if suite == "leibniz" else 1
            size = sum(k * _monomials(k * b, k * f, top) for k in range(1, laws + 1))
        work = size * max(b + f, 1) * _weight(d, t_max)
    return work + d ** 3


def _degrees(space, t_min: int, t_max: int) -> dict[int, int]:
    """dim_formula of each degree t_min..t_max, clipped to the top degree."""
    top = top_degree(space)
    degrees = range(t_min, (t_max if top is None else min(t_max, top)) + 1)
    if not degrees:  # empty, or above the top degree
        raise UsageError(f"degrees {t_min}..{t_max} hold no basis monomial"
                         + ("" if t_min > t_max else f" (the top degree is {top})"))
    return {t: dim_formula(space, t) for t in degrees}


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".qgrass-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
        _write_output(_json(payload), args.out)


def _json(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, written in
    one pass.  A report holds str, int, bool, None, lists, tuples and dicts
    with str keys; anything else, floats included, raises TypeError."""
    out: list[str] = []
    write = out.append

    def value(obj, indent: str) -> None:
        if isinstance(obj, str):
            write(encode_basestring_ascii(obj))
        elif obj is None:
            write("null")
        elif obj is True:
            write("true")
        elif obj is False:
            write("false")
        elif isinstance(obj, int):
            write(int.__repr__(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                write("[]")
                return
            inner = indent + "  "
            sep = "[\n" + inner
            for item in obj:
                write(sep)
                value(item, inner)
                sep = ",\n" + inner
            write("\n" + indent + "]")
        elif isinstance(obj, dict):
            if not obj:
                write("{}")
                return
            inner = indent + "  "
            sep = "{\n" + inner
            for key in sorted(obj):
                if not isinstance(key, str):
                    raise TypeError(f"report keys are str, not {type(key).__name__}")
                write(sep + encode_basestring_ascii(key) + ": ")
                value(obj[key], inner)
                sep = ",\n" + inner
            write("\n" + indent + "}")
        else:
            raise TypeError(f"a report holds no {type(obj).__name__}")

    value(payload, "")
    return "".join(out)


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


# a token that opens a parenthesis, as Th(0,1 | -1), runs on to its closing
# one; any other run of non-blanks is a token, so a word without a
# parenthesis splits as str.split() does
_WORD_TOKEN = re.compile(r"[^\s(]*\([^)]*\)\S*|\S+")


def _word_tokens(text: str) -> list[str]:
    return _WORD_TOKEN.findall(text)


def _parse_word(text: str, space) -> OperatorWord:
    atoms: list = []
    for token in _word_tokens(text):
        atoms += _parse_token(token, space)
    return OperatorWord(space, tuple(atoms))


# generator token prefixes, each before any prefix of itself (SKinv before SK),
# with the most atoms uqrep.generator_word makes of them; other tokens make one
_GEN_TOKENS = (("SKinv", Gen.SKINV, 4), ("SK", Gen.SK, 4), ("Kinv", Gen.KINV, 2),
               ("K", Gen.K, 2), ("E", Gen.E, 3), ("F", Gen.F, 3))
_ATOMS = {name: atoms for name, _, atoms in _GEN_TOKENS}
_ATOM_TOKENS = (("d", partial), ("x", mult_x), ("X", mult_x_divpow), ("t", tau))


def _parse_token(token: str, space) -> tuple:
    """The atoms of one word token, leftmost first."""
    if token == "sigma":
        return _generator(Gen.PARITY, 0, space)
    for name, gen, _ in _GEN_TOKENS:
        if token.startswith(name) and token[len(name):].isdigit():
            return _generator(gen, int(token[len(name):]), space)
    if token.startswith("Th(") and token.endswith(")"):
        try:
            label = _parse_monomial(token[2:], space.shape)
        except UsageError as exc:  # the label is read as a monomial is
            raise UsageError(str(exc).replace("monomial", "twist label", 1)) from None
        return (theta_op(label),)
    if token == "par":
        return (parity(),)
    if token.startswith("sinv") and token[4:].isdigit():
        return (sigma(int(token[4:]), -1),)
    if token.startswith("s") and token[1:].isdigit():
        return (sigma(int(token[1:]), 1),)
    for prefix, ctor in _ATOM_TOKENS:
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            return (ctor(int(token[len(prefix):])),)
    raise UsageError(f"cannot parse generator token {token!r}")


def _generator(kind: Gen, i: int, space) -> tuple:
    try:
        return generator_word(kind, i, space).atoms
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
    _degrees(space, 0, args.t_max)  # refuses an empty range
    report = args.check(space, args)
    if not report.results:
        raise UsageError(f"{args.command} has no relation to check on {args.family} "
                         f"({args.m}|{args.n})")
    payload = {"config": _config(args), **report.to_json()}
    _emit(payload, args)
    return 0 if report.passed else 1


def _check_weyl(space, args):
    try:
        return verify_relation_suite("weyl-" + args.suite, space, args.t_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_hopf(args) -> int:
    kwargs: dict = {"mode": _mode_from_args(args)}
    if args.orders and not args.hopf_family.startswith("taft-orders"):
        raise UsageError(f"--orders applies to the taft-orders families, not {args.hopf_family}")
    if args.group_orders and args.hopf_family != "taft-orders-generalized":
        raise UsageError("--group-orders applies to taft-orders-generalized, "
                         f"not {args.hopf_family}")
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
    if args.exhaustive and hopf_mod.pbw_dim(pres) is math.inf:
        raise UsageError("--exhaustive needs a finite presentation; this one is infinite")
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
    orders = _int_list(args.d_list, "--d-list")
    try:
        roots = [root_of_unity(d) for d in orders]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for d, mode in zip(orders, roots):  # d = 4: the digit split needs ell >= 3
        if (ell := char_of(mode).ell) < 3:
            raise UsageError(f"--d-list order {d} has char(q) = {ell}; the digit "
                             "factorization needs char(q) >= 3")
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
    p.add_argument("--d-list", dest="d_list", default="3,5,6,8", help="orders of q")
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_qtest)

    for name, sub in subs.choices.items():  # _read_args reads sub alone
        sub.set_defaults(command=name)
    return parser


@functools.lru_cache(maxsize=1)
def _parser(builder) -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then reused.

    ``main`` passes the module's current ``build_parser``, so a replacement
    bound there (a test double, a tracing wrapper) builds on its next call.
    Reuse is safe because parsing leaves the parser and its subparsers
    unchanged.
    """
    return builder()


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's own parser, by name: the choices of the subparsers action."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _read_args(sub: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace of ``sub.parse_known_args(argv)``, read in one pass from
    sub's own action tables, when argv holds only exact option strings, each
    once: ``--option value`` with a value that does not start with '-', of
    its type and among its choices, or a store_true flag; and every required
    option is given.  Any other argv gives None and is left to argparse, the
    one path that prints help, resolves abbreviations and reports errors."""
    table, given = sub._option_string_actions, {}
    i, end = 0, len(argv)
    try:
        while i < end:
            action = table.get(argv[i])
            if action is None or action in given:
                return None
            if isinstance(action, argparse._StoreConstAction):  # store_true and kin
                given[action], i = action.const, i + 1
            elif type(action) is argparse._StoreAction and action.nargs is None and i + 1 < end:
                text = argv[i + 1]
                if text.startswith("-"):
                    return None
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    return None
                given[action], i = value, i + 2
            else:  # -h, a missing value, or an action kind read only by argparse
                return None
        args = argparse.Namespace()
        for action in sub._actions:
            if action in given:
                value = given[action]
            elif action.required:
                return None
            elif argparse.SUPPRESS in (action.dest, action.default) or hasattr(args, action.dest):
                continue
            else:  # argparse passes a str default through the type
                value = action.default
                if isinstance(value, str) and action.type is not None:
                    value = action.type(value)
            setattr(args, action.dest, value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    for dest, value in sub._defaults.items():  # set_defaults: fn, check, command
        if not hasattr(args, dest):
            setattr(args, dest, value)
    return args


def main(argv: list[str] | None = None) -> int:
    parser = _parser(build_parser)
    argv = sys.argv[1:] if argv is None else argv
    sub = _subcommands(parser).get(argv[0]) if argv else None
    args = None if sub is None else _read_args(sub, argv[1:])
    try:
        if args is None:  # argparse parses, and reports on, every other argv
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.out == "":
            raise UsageError("--out needs a file path, not an empty one")
        if (estimate := _estimate(args)) > WORK_LIMIT:  # every refusal by size
            raise UsageError(f"the run is estimated at {estimate:,} work units, more than "
                             f"the limit of {WORK_LIMIT:,}")
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
