import contextlib
import importlib.util
import io
import itertools
import json
import os
import pathlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgrass import cli, hopf, weyl
from qgrass.cli import main
from qgrass.qarith import GENERIC, q_int, root_of_unity
from qgrass.superspaces import basis_of_degree, make_space

SWEEP_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_csv(capsys):
    code, out = run(
        capsys, "dims", "--family", "omega", "--m", "2", "--n", "1",
        "--q", "generic", "--t-max", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,dim_formula,dim_enum,equal"
    assert lines[3] == "2,5,5,True"


def test_dims_json_deterministic(capsys):
    argv = ["dims", "--family", "dual", "--m", "2", "--n", "1", "--t-max", "3"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["rows"][1] == {"t": 1, "dim_formula": 3, "dim_enum": 3, "equal": True}


def test_act_command(capsys):
    code, out = run(
        capsys, "act", "--family", "omega", "--m", "1", "--n", "1",
        "--word", "E1", "--monomial", "(2 | 1)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["image"] == [{"index": "(3 | 0)", "coefficient": "v^2 + 1 + v^-2"}]


def test_a_spaced_twist_label_is_one_token(capsys):
    # a label with blanks, as --monomial accepts them, gives the image and
    # the estimate of the same label without; an unclosed label is refused
    base = ["act", "--family", "omega", "--m", "2", "--n", "1", "--monomial", "(1,0|1)"]
    for spaced, plain in (("Th(0,1 | -1)", "Th(0,1|-1)"),
                          (" x1  Th( 0 , 1 |-1 ) s2", "x1 Th(0,1|-1) s2")):
        seen = []
        for word in (spaced, plain):
            code, out, err = call(capsys, base + ["--word", word])
            assert code == 0, err
            seen.append((json.loads(out)["image"], estimate(base + ["--word", word])))
        assert seen[0] == seen[1] and seen[0][0], spaced
    code, out, err = call(capsys, base + ["--word", "Th(0,1 | -1"])
    assert (code, out, err) == (2, "", "error: cannot parse generator token 'Th(0,1'\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xXdtsEFKTh0123456789-,|) \t\n", max_size=40))
def test_a_word_without_a_parenthesis_splits_on_blanks(word):
    assert cli._word_tokens(word) == word.split()


def test_check_uq_vacuous(capsys):
    code, out = run(capsys, "check-uq", "--family", "omega", "--m", "0", "--n", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_weyl_odd_root(capsys):
    code, out = run(
        capsys, "check-weyl", "--suite", "odd-root", "--family", "omega",
        "--m", "1", "--n", "1", "--q", "root", "--d", "3", "--t-max", "3",
    )
    assert code == 0


def test_hopf_command(capsys):
    code, out = run(
        capsys, "hopf", "--family", "taft-mn", "--m", "1", "--n", "0",
        "--q", "root", "--d", "3", "--exhaustive",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 9
    assert data["passed"] is True


def test_simple_command_csv(capsys):
    code, out = run(
        capsys, "simple", "--family", "omega", "--m", "1", "--n", "1",
        "--t-max", "2", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "t,dim,hw_dim,simple,hw_matches_expected"


def test_qtest_command(capsys):
    code, out = run(capsys, "qtest", "--d-list", "3,6", "--max", "6")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_errors_exit_2(capsys):
    code, _ = run(capsys, "dims", "--family", "omega-restricted", "--m", "1",
                  "--n", "1", "--q", "generic")
    assert code == 2
    code, _ = run(capsys, "act", "--family", "omega", "--m", "1", "--n", "1",
                  "--word", "Z9", "--monomial", "(0 | 0)")
    assert code == 2
    code = main(["no-such-command"])
    assert code == 2


def test_atomic_write(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run(
        capsys, "dims", "--family", "omega", "--m", "1", "--n", "1",
        "--t-max", "2", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["passed"] is True
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".qgrass-")]


@pytest.mark.parametrize("target", ["", "missing/report.json", "directory"])
def test_an_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, target):
    # refused or reported in one error line, with no temporary file left in
    # the working directory, the target's directory or the parent of either
    work = tmp_path / "work"
    (work / "directory").mkdir(parents=True)
    monkeypatch.chdir(work)
    code, out, err = call(capsys, ["dims", *OMEGA11, "--t-max", "1", "--out", target])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--out" in err
    assert not [p for p in tmp_path.rglob(".qgrass-*")]


def test_full_sweep_writes_summary(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_full_verification", SWEEP_SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    runs = [
        ("qtest.json", ["qtest", "--max", "3"]),
        ("dims.csv", ["dims", "--family", "omega", "--m", "1", "--n", "1",
                      "--t-max", "2", "--format", "csv"]),
    ]
    monkeypatch.setattr(sweep, "RUNS", runs)
    monkeypatch.setattr("sys.argv", ["run_full_verification.py", str(tmp_path / "reports")])
    assert sweep.main() == 0
    out, err = capsys.readouterr()
    # one progress line per run on stderr; stdout keeps its own lines
    assert [line.rsplit(" ", 1)[0] for line in err.splitlines()] == [
        "[1/2] qtest.json pass", "[2/2] dims.csv pass"]
    assert [line.split()[-1] for line in out.splitlines()[:2]] == ["qtest.json", "dims.csv"]

    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    assert (summary["passed"], summary["total"]) == (2, 2)
    assert [r["file"] for r in summary["runs"]] == ["qtest.json", "dims.csv"]
    for run_entry, (filename, argv) in zip(summary["runs"], runs):
        assert run_entry["argv"] == argv
        assert (run_entry["exit_code"], run_entry["status"]) == (0, "pass")
        assert run_entry["seconds"] >= 0
        # the sweep writes each report exactly as the CLI does on its own
        direct = tmp_path / ("direct-" + filename)
        assert main(argv + ["--out", str(direct)]) == 0
        assert (tmp_path / "reports" / filename).read_bytes() == direct.read_bytes()


OMEGA11 = ["--family", "omega", "--m", "1", "--n", "1"]

# one process, one parser: a usage error, --version, and a hopf run before
# dims must leave nothing behind that a later call can see
REUSE_SEQUENCE = [
    ["dims", "--m", "1"],
    ["--version"],
    ["hopf", "--family", "dq", "--m", "2", "--n", "1"],
    ["dims", *OMEGA11],
    ["act", "--family", "omega", "--m", "2", "--n", "1",
     "--word", "E1 F2 K1 Kinv2 SK1 SKinv2 sigma d1 x2 s1 sinv2 t3 par Th(1,0|0)",
     "--monomial", "(2,0 | 1)"],
    ["qtest", "--max", "4"],
    ["dims", *OMEGA11, "--t-max", "3", "--format", "csv"],
]


def call(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_a_fresh_parser(capsys):
    cli._parser.cache_clear()
    reused = [call(capsys, argv) for argv in REUSE_SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(call(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 0, 0]
    assert reused[0][2].startswith("usage: qgrass dims")


def test_main_builds_its_parser_once(monkeypatch, capsys):
    original = cli.build_parser
    builds = []

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    assert main(["qtest", "--max", "2"]) == 0
    assert main(["dims", *OMEGA11, "--t-max", "1"]) == 0
    assert len(builds) == 1
    monkeypatch.undo()
    # build_parser stays a fresh parser per call, so a caller's changes to its
    # own parser never reach main
    mine = cli.build_parser()
    assert mine is not cli.build_parser()
    mine.prog = "other"
    assert main(["dims"]) == 2
    assert capsys.readouterr().err.startswith("usage: qgrass dims")


OMEGA21 = ["--family", "omega", "--m", "2", "--n", "1"]
OMEGA33 = ["--family", "omega", "--m", "3", "--n", "3"]

ILL_POSED = {
    "atom at position 0": ["act", *OMEGA11, "--word", "d0", "--monomial", "(1|1)"],
    "twist at position 0": ["act", *OMEGA11, "--word", "s0", "--monomial", "(1|1)"],
    "inverse twist past the end": ["act", *OMEGA11, "--word", "sinv3", "--monomial", "(1|1)"],
    "derivative past the end": ["act", *OMEGA11, "--word", "d5", "--monomial", "(1|1)"],
    "multiplication at position 0": ["act", *OMEGA11, "--word", "x0", "--monomial", "(1|1)"],
    "letter in monomial": ["act", *OMEGA11, "--word", "d1", "--monomial", "(a|0)"],
    "empty monomial entry": ["act", *OMEGA11, "--word", "d1", "--monomial", "(1|1,)"],
    "two bars in monomial": ["act", *OMEGA11, "--word", "d1", "--monomial", "(0|0|0)"],
    "letter in twist label": ["act", *OMEGA11, "--word", "Th(a|0)", "--monomial", "(1|1)"],
    "empty twist label entry": ["act", *OMEGA11, "--word", "Th(1|1,)", "--monomial", "(1|1)"],
    "twist label of the wrong length": ["act", *OMEGA11, "--word", "Th(1,0|0)",
                                        "--monomial", "(1|1)"],
    "letter in --orders": ["hopf", "--family", "taft-orders", "--orders", "2,a",
                           "--q", "root", "--d", "6"],
    "letter in --group-orders": ["hopf", "--family", "taft-orders-generalized",
                                 "--orders", "2,3", "--group-orders", "x",
                                 "--q", "root", "--d", "6"],
    "letter in --d-list": ["qtest", "--d-list", "3,a"],
    "order 0 in --d-list": ["qtest", "--d-list", "0"],
    "order 4 in --d-list": ["qtest", "--d-list", "4"],
    "order 4 after order 3 in --d-list": ["qtest", "--d-list", "3,4"],
    "negative qtest --max": ["qtest", "--max", "-3"],
    "qtest --max 0": ["qtest", "--max", "0"],
    "generator index out of range": ["act", *OMEGA11, "--word", "E2", "--monomial", "(1|1)"],
    "generator on the affine space": ["act", "--family", "affine", "--m", "1", "--n", "1",
                                      "--word", "E1", "--monomial", "(1|1)"],
    "tau on the dual side": ["act", "--family", "dual", "--m", "1", "--n", "1",
                             "--word", "t2", "--monomial", "(1|1)"],
    "divided power in generic mode": ["act", *OMEGA11, "--word", "X1", "--monomial", "(1|1)"],
    "tau behind an atom that kills the monomial": ["act", *OMEGA11, "--word", "t1 d2",
                                                   "--monomial", "(0|0)"],
    "empty dims table as CSV": ["dims", *OMEGA11, "--t-max", "-1", "--format", "csv"],
    "empty simple table as CSV": ["simple", *OMEGA11, "--t-min", "5", "--t-max", "2",
                                  "--format", "csv"],
    "negative --t-min": ["simple", *OMEGA11, "--t-min", "-3", "--t-max", "0"],
    "divided power 0": ["hopf", "--family", "dq", "--m", "2", "--n", "1",
                        "--divided-power", "0"],
    "divided power past the last generator": ["hopf", "--family", "dq", "--m", "2", "--n", "1",
                                              "--divided-power", "9"],
    "negative --p-max": ["hopf", "--family", "dq", "--m", "2", "--n", "1",
                         "--divided-power", "1", "--p-max", "-2"],
    "--p-max 0": ["hopf", "--family", "dq", "--m", "2", "--n", "1",
                  "--divided-power", "1", "--p-max", "0"],
    "divided power with no check to make": ["hopf", "--family", "dq", "--m", "2", "--n", "1",
                                            "--divided-power", "1"],
    "exhaustive on an infinite presentation": ["hopf", "--family", "aq", "--m", "1", "--n", "0",
                                               "--q", "root", "--d", "3", "--exhaustive"],
    "exhaustive on generic dq": ["hopf", "--family", "dq", "--m", "1", "--n", "1", "--exhaustive"],
    "dq of rank (0|0)": ["hopf", "--family", "dq", "--m", "0", "--n", "0"],
    "order 0 in --orders": ["hopf", "--family", "taft-orders", "--orders", "2,0",
                            "--q", "root", "--d", "6"],
    "order 1 in --orders": ["hopf", "--family", "taft-orders", "--orders", "1,3",
                            "--q", "root", "--d", "3"],
    "order 1 in generalized --orders": ["hopf", "--family", "taft-orders-generalized",
                                        "--orders", "1", "--group-orders", "2",
                                        "--q", "root", "--d", "4"],
    "derivative on the affine space at exponent 0": ["act", "--family", "affine", "--m", "1",
                                                     "--n", "1", "--word", "d1",
                                                     "--monomial", "(0|1)"],
    "check-uq on the affine space": ["check-uq", "--family", "affine", "--m", "1", "--n", "1"],
    "check-leibniz on the affine space": ["check-leibniz", "--family", "affine",
                                          "--m", "1", "--n", "1"],
    "check-dq on the affine space": ["check-dq", "--family", "affine", "--m", "1", "--n", "1"],
    "simple on the affine space": ["simple", "--family", "affine", "--m", "1", "--n", "1"],
    "check-dq on the dual side": ["check-dq", "--family", "dual", "--m", "1", "--n", "1"],
    "check-dq on the restricted dual side": ["check-dq", "--family", "dual-restricted",
                                             "--m", "1", "--n", "1", "--d", "3"],
    "check-weyl on the affine space": ["check-weyl", "--family", "affine", "--m", "1", "--n", "1"],
    "check-weyl over no degree": ["check-weyl", "--suite", "generic", *OMEGA21, "--t-max", "-3"],
    "check-leibniz over no degree": ["check-leibniz", *OMEGA21, "--t-max", "-1"],
    "check-dq over no degree": ["check-dq", "--suite", "leibniz", *OMEGA21, "--t-max", "-1"],
    "check-uq over no degree": ["check-uq", *OMEGA21, "--t-max", "-1"],
    "simple over no degree": ["simple", *OMEGA11, "--t-max", "-1"],
    "simple with --t-min above --t-max": ["simple", *OMEGA11, "--t-min", "5", "--t-max", "2"],
    "simple above the top degree": ["simple", "--family", "omega-restricted", *OMEGA21[2:],
                                    "--q", "root", "--d", "3", "--t-min", "7", "--t-max", "9"],
    "dims over no degree": ["dims", *OMEGA11, "--t-max", "-1"],
    "group order 0 in --group-orders": ["hopf", "--family", "taft-orders-generalized",
                                        "--orders", "2", "--group-orders", "0",
                                        "--q", "root", "--d", "4"],
    "negative --group-orders": ["hopf", "--family", "taft-orders-generalized", "--orders", "2",
                                "--group-orders", "-2", "--q", "root", "--d", "4"],
    "--group-orders on taft-orders": ["hopf", "--family", "taft-orders", "--orders", "2,3",
                                      "--q", "root", "--d", "6", "--group-orders", "4,6"],
    "--orders on taft-mn": ["hopf", "--family", "taft-mn", "--m", "1", "--n", "0",
                            "--q", "root", "--d", "3", "--orders", "5"],
}

# Runs whose suite holds no relation on the given rank: a report with no
# relation would pass without checking anything.
NO_RELATION = {
    "check-uq on omega (0|0)": ["check-uq", "--family", "omega", "--m", "0", "--n", "0"],
    "check-uq sl on omega (1|0)": ["check-uq", "--variant", "sl", "--family", "omega",
                                   "--m", "1", "--n", "0"],
    "check-uq sl on dual (0|1)": ["check-uq", "--variant", "sl", "--family", "dual",
                                  "--m", "0", "--n", "1"],
    "check-uq sl on omega-restricted (1|0)": ["check-uq", "--variant", "sl",
                                              "--family", "omega-restricted",
                                              "--m", "1", "--n", "0", "--d", "3"],
    "dq suite on omega (0|0)": ["check-dq", "--suite", "dq", "--family", "omega",
                                "--m", "0", "--n", "0"],
    "partials suite on omega (0|0)": ["check-dq", "--suite", "partials", "--family", "omega",
                                      "--m", "0", "--n", "0"],
    "partials suite on omega (1|0)": ["check-dq", "--suite", "partials", "--family", "omega",
                                      "--m", "1", "--n", "0"],
    "generic weyl suite on omega (0|0)": ["check-weyl", "--suite", "generic", "--family", "omega",
                                          "--m", "0", "--n", "0"],
    "odd-root weyl suite on omega (0|0)": ["check-weyl", "--suite", "odd-root", "--family",
                                           "omega", "--m", "0", "--n", "0", "--d", "3"],
}
ILL_POSED.update(NO_RELATION)

# Runs over the work limit, refused by cli._estimate before any basis, word or
# cyclotomic polynomial is made; test_ill_posed_input_exits_2 checks that before
# it calls main, so none of them is ever started.  Without the limit, each run
# from "check-leibniz on omega (1|2)" on took 4 s to over a minute on a 2-vCPU
# host (CHANGES.md), against 0.05 s for the slowest benchmark run.
OVERSIZED = {
    "check-weyl over too many monomials": ["check-weyl", "--suite", "generic", *OMEGA33,
                                           "--t-max", "40"],
    "simple over too many monomials": ["simple", *OMEGA33, "--t-max", "40"],
    "dims over too many monomials": ["dims", *OMEGA33, "--t-max", "40"],
    "dims over too many degrees": ["dims", "--family", "omega", "--m", "0", "--n", "2",
                                   "--t-max", "1000000000"],
    "check-leibniz over too many pairs": ["check-leibniz", "--family", "omega", "--m", "3",
                                          "--n", "2", "--t-max", "12"],
    "leibniz suite over too many triples": ["check-dq", "--suite", "leibniz", "--family", "omega",
                                            "--m", "3", "--n", "2", "--t-max", "6"],
    "act on a monomial above the degree limit": ["act", "--family", "omega", "--m", "1", "--n", "0",
                                                 "--word", "x1", "--monomial", "(4000|)"],
    "hopf --exhaustive over too many basis elements": ["hopf", "--family", "taft-mn", "--m", "5",
                                                       "--n", "0", "--q", "root", "--d", "3",
                                                       "--exhaustive"],
    "hopf --p-max above the limit": ["hopf", "--family", "aq", "--m", "1", "--n", "0",
                                     "--divided-power", "1", "--p-max", "100"],
    "check-leibniz on omega (1|2) to degree 50": ["check-leibniz", "--family", "omega", "--m", "1",
                                                  "--n", "2", "--t-max", "50"],
    "check-leibniz on omega (1|1) to degree 59": ["check-leibniz", *OMEGA11, "--t-max", "59"],
    "check-leibniz on dual (2|1) to degree 50": ["check-leibniz", "--family", "dual", "--m", "2",
                                                 "--n", "1", "--t-max", "50"],
    "leibniz suite on omega (1|1) to degree 24": ["check-dq", "--suite", "leibniz", *OMEGA11,
                                                  "--t-max", "24"],
    "24 x1 on x1^(500)": ["act", "--family", "omega", "--m", "1", "--n", "0",
                          "--word", " ".join(["x1"] * 24), "--monomial", "(500|)"],
    "400 x1 on the unit": ["act", "--family", "omega", "--m", "1", "--n", "0",
                           "--word", " ".join(["x1"] * 400), "--monomial", "(0|)"],
    "hopf generator probe on dq (8|8)": ["hopf", "--family", "dq", "--m", "8", "--n", "8"],
    "hopf generator probe on dq (12|12)": ["hopf", "--family", "dq", "--m", "12", "--n", "12"],
    "hopf --exhaustive on taft-mn (4|0)": ["hopf", "--family", "taft-mn", "--m", "4", "--n", "0",
                                           "--q", "root", "--d", "3", "--exhaustive"],
    "simple on omega (4|0) in degree 20": ["simple", "--family", "omega", "--m", "4", "--n", "0",
                                           "--t-min", "20", "--t-max", "20"],
    "simple on omega (4|0) in degree 30": ["simple", "--family", "omega", "--m", "4", "--n", "0",
                                           "--t-min", "30", "--t-max", "30"],
    "qtest at order 101": ["qtest", "--d-list", "101"],
    "taft-orders at order 10^6": ["hopf", "--family", "taft-orders", "--orders", "2",
                                  "--q", "root", "--d", "1000000"],
    # its threshold power is of order 67; a search stopped at 64 refused it
    # as having no finite order
    "hopf --divided-power at order 67": ["hopf", "--family", "dq", "--m", "1", "--n", "0",
                                         "--q", "root", "--d", "67", "--divided-power", "1",
                                         "--p-max", "1"],
}
ILL_POSED.update(OVERSIZED)


def estimate(argv):
    return cli._estimate(cli._parser(cli.build_parser).parse_args(argv))


@pytest.mark.parametrize("argv", ILL_POSED.values(), ids=ILL_POSED.keys())
def test_ill_posed_input_exits_2(capsys, argv):
    if argv in OVERSIZED.values():  # refused before it starts, or never called
        assert estimate(argv) > cli.WORK_LIMIT
    code, out, err = call(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


def test_every_atom_renders_as_the_token_that_reads_it():
    space = make_space("omega", 2, 1, root_of_unity(8))
    label = cli._parse_monomial("(1,-2|1)", space.shape)
    atoms = [weyl.partial(1), weyl.mult_x(2), weyl.mult_x_divpow(1), weyl.sigma(3),
             weyl.sigma(2, -1), weyl.tau(3), weyl.parity(), weyl.theta_op(label)]
    for atom in atoms:
        assert cli._parse_token(atom.render(), space) == (atom,), atom.render()


def test_oversized_run_names_its_size(capsys):
    code, _, err = call(capsys, ILL_POSED["check-weyl over too many monomials"])
    assert code == 2
    assert err == ("error: the run is estimated at 894,033,126 work units, more than the limit "
                   f"of {cli.WORK_LIMIT:,}\n")


@pytest.mark.parametrize("case", OVERSIZED)
def test_every_refusal_by_size_names_its_estimate_and_the_limit(capsys, case):
    argv = OVERSIZED[case]
    size = estimate(argv)
    assert size > cli.WORK_LIMIT
    assert call(capsys, argv) == (2, "", f"error: the run is estimated at {size:,} work units, "
                                         f"more than the limit of {cli.WORK_LIMIT:,}\n")


@pytest.mark.parametrize("case, message", [
    ("check-leibniz over too many pairs", "estimated at 236,386,215 work units"),
    ("leibniz suite over too many triples", "estimated at 26,486,215 work units"),
    ("check-weyl over no degree", "degrees 0..-3 hold no basis monomial\n"),
    ("simple with --t-min above --t-max", "degrees 5..2 hold no basis monomial\n"),
    ("simple above the top degree", "degrees 7..9 hold no basis monomial (the top degree is 5)"),
    ("act on a monomial above the degree limit", "estimated at 32,032,008 work units"),
    ("hopf --exhaustive over too many basis elements", "estimated at 13,947,297,631 work units"),
    ("hopf --p-max above the limit", "estimated at 52,545,415 work units"),
    ("check-uq sl on omega (1|0)", "check-uq has no relation to check on omega (1|0)\n"),
    ("--orders on taft-mn", "--orders applies to the taft-orders families, not taft-mn\n"),
    ("--group-orders on taft-orders",
     "--group-orders applies to taft-orders-generalized, not taft-orders\n"),
    ("order 4 after order 3 in --d-list", "order 4 has char(q) = 2;"),
    ("letter in twist label", "error: twist label entries must be integers, got '(a|0)'\n"),
    ("empty twist label entry", "error: twist label entries must be integers, got '(1|1,)'\n"),
    ("twist label of the wrong length", "error: twist label needs 2 entries\n"),
    # the refused atom is named by the token that spells it
    ("inverse twist past the end", "error: sinv3: position must lie in 1..2\n"),
])
def test_refused_run_names_its_range_or_tuples(capsys, case, message):
    code, _, err = call(capsys, ILL_POSED[case])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("family, m, n, text", [("omega", 1, 0, "({}|)"), ("dual", 0, 1, "(|{})")])
def test_act_at_the_degree_limit(capsys, family, m, n, text):
    # x1 on x1^(500) is [501] x1^(501); the q-integer's recursion would run
    # deeper than the interpreter allows.  The work limit admits it.
    argv = ["act", "--family", family, "--m", str(m), "--n", str(n),
            "--word", "x1", "--monomial", text.format(500)]
    assert estimate(argv) <= cli.WORK_LIMIT
    code, out = run(capsys, *argv)
    assert code == 0
    (term,) = json.loads(out)["image"]
    assert term["coefficient"] == str(q_int(501))


@pytest.mark.parametrize("family, m, n, t_max", [
    ("omega", 2, 1, 7), ("dual", 1, 2, 5), ("omega-restricted", 2, 1, 9), ("omega", 0, 2, 6)])
def test_pair_and_triple_counts_are_those_of_the_enumeration(family, m, n, t_max):
    # the k-tuples of degree sum <= t_max are the monomials of k copies of the
    # space; the restricted caps are left out, which makes the count a bound
    mode = GENERIC if family == "omega" else root_of_unity(3)
    space = make_space(family, m, n, mode)
    monos = [i for t in range(t_max + 1) for i in basis_of_degree(space, t)]
    b, f = (n, m) if family == "dual" else (m, n)
    for k in (1, 2, 3):
        tuples = [abc for abc in itertools.product(monos, repeat=k)
                  if sum(i.degree() for i in abc) <= t_max]
        count = cli._monomials(k * b, k * f, t_max)
        assert count >= len(tuples) if family.endswith("restricted") else count == len(tuples)
        if k == 3:
            assert len(list(weyl._triples(space, t_max))) == len(tuples)


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_argvs():
    """Every argv the sweep script and the benchmark send: the sweep's runs,
    the benchmark's sweep and certify jobs, and its query pool."""
    root = SWEEP_SCRIPT.parents[1]
    workloads = load(root / "perfbench" / "workloads.py", "perfbench_workloads")
    argvs = [argv for _, argv in load(SWEEP_SCRIPT, "run_full_verification").RUNS]
    argvs += [cmd.split() for _, cmd in workloads.SWEEP_JOBS + workloads.CERTIFY_JOBS]
    pool = workloads.query_pool()
    assert (len(argvs), len(pool)) == (54, 4000)
    return argvs + pool


def test_every_sweep_and_benchmark_run_passes_the_size_guard():
    # the estimate of each argv the sweep script and the benchmark send, with
    # nothing run: all are admitted, the largest with ten times the room
    sizes = {" ".join(argv): estimate(argv) for argv in benchmark_argvs()}
    largest = max(sizes, key=sizes.get)
    assert (largest, sizes[largest]) == (
        "simple --family omega-restricted --m 3 --n 1 --q root --d 3", 1_086_483)
    assert sizes[largest] <= cli.WORK_LIMIT // 10


def test_every_sweep_and_benchmark_run_is_read_in_one_pass():
    # a parser change that sends these argvs back to argparse (a new action
    # kind, a renamed option) fails here rather than only running slower
    subs = cli._subcommands(cli._parser(cli.build_parser))
    for argv in benchmark_argvs():
        args = cli._read_args(subs[argv[0]], argv[1:])
        assert args is not None, argv
        assert (args, []) == subs[argv[0]].parse_known_args(argv[1:]), argv


def grow(argv, flag, step=1):
    """argv with the integer after flag raised by step."""
    i = argv.index(flag) + 1
    return argv[:i] + [str(int(argv[i]) + step)] + argv[i + 1:]


DEGREE_RUNS = [[cmd, *extra] for cmd, extra in (
    ("dims", []), ("simple", []), ("simple", ["--t-min", "2"]), ("check-uq", []),
    ("check-leibniz", []), ("check-dq", ["--suite", "leibniz"]), ("check-weyl", []))]


@pytest.mark.parametrize("family, d", [("omega", None), ("dual", None), ("omega", "5"),
                                       ("omega-restricted", "3"), ("dual-restricted", "4")])
@pytest.mark.parametrize("m, n, t_max", itertools.product((0, 1, 2), (0, 1, 2), (-1, 0, 3, 6)))
def test_the_estimate_never_shrinks_as_the_input_grows(family, d, m, n, t_max):
    # raising any of --t-max, --m, --n, --d, the atoms of a word, --max or
    # --p-max by one never lowers the estimate; nothing is run
    root = ["--d", d] if d else []
    shape = ["--family", family, "--m", str(m), "--n", str(n), *root]
    for run_argv in DEGREE_RUNS:
        argv = run_argv + shape + ["--t-max", str(t_max)]
        for flag in ("--t-max", "--m", "--n") + (("--d",) if d else ()):
            assert estimate(grow(argv, flag)) >= estimate(argv), (argv, flag)
    word = ["E1", "x1", "Th(1|0)", "SK1", "d2", "sinv1", "K2"][:m + n]
    for tokens in itertools.accumulate([[token] for token in word]):  # one more atom each
        argv = ["act", *shape, "--word", " ".join(tokens), "--monomial", f"({m},{t_max}|0)"]
        longer = argv[:-3] + [" ".join(tokens + ["x2"])] + argv[-2:]
        assert estimate(longer) >= estimate(argv)
        assert estimate(grow(argv, "--d") if d else argv) >= estimate(argv)
    for family in ("taft-mn", "aq", "gq", "gq-restricted", "dq", "dq-restricted"):
        argv = ["hopf", "--family", family, "--m", str(m), "--n", str(n), *root,
                "--divided-power", "1", "--p-max", str(t_max + 2), "--exhaustive"]
        for flag in ("--m", "--n", "--p-max") + (("--d",) if d else ()):
            assert estimate(grow(argv, flag)) >= estimate(argv), (argv, flag)
    argv = ["qtest", "--max", str(t_max + 2), "--d-list", str(m + n + 3)]
    assert estimate(grow(argv, "--max")) >= estimate(argv)
    assert estimate(argv[:-1] + [str(m + n + 4)]) >= estimate(argv)


# one small valid run of each subcommand
SMALL_RUNS = {
    "dims": ["dims", *OMEGA11, "--t-max", "3"],
    "act": REUSE_SEQUENCE[4],
    "check-uq": ["check-uq", *OMEGA11, "--t-max", "2"],
    "check-leibniz": ["check-leibniz", "--family", "dual", "--m", "1", "--n", "0",
                      "--t-max", "2"],
    "check-weyl": ["check-weyl", *OMEGA11, "--t-max", "2"],
    "check-dq": ["check-dq", *OMEGA11, "--t-max", "2"],
    "hopf": ["hopf", "--family", "taft-orders", "--orders", "2", "--d", "4"],
    "simple": ["simple", *OMEGA11, "--t-max", "2"],
    "qtest": ["qtest", "--max", "3", "--d-list", "3"],
}


def old_main(argv):
    """main as it was: the top-level parser parses all of argv, then the run."""
    try:
        args = cli._parser(cli.build_parser).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if (estimate := cli._estimate(args)) > cli.WORK_LIMIT:
            raise cli.UsageError(f"the run is estimated at {estimate:,} work units, more "
                                 f"than the limit of {cli.WORK_LIMIT:,}")
        return args.fn(args)
    except cli.UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


# argvs _read_args reads in one pass, beyond SMALL_RUNS: a flag, every option
# of a subcommand, options in any order, and a usage error raised after parsing
READ = {
    "hopf flag": ["hopf", "--family", "taft-mn", "--m", "1", "--n", "0", "--q", "root",
                  "--d", "3", "--exhaustive", "--divided-power", "1"],
    "every act option but --out": ["act", "--q", "generic", "--format", "json", *OMEGA21,
                                   "--word", "E1 x2", "--monomial", "(1,0|1)"],
    "options in any order": ["dims", "--t-max", "2", "--n", "1", "--format", "csv", "--m", "1"],
    "act as CSV": ["act", *OMEGA11, "--word", "d1", "--monomial", "(1|1)", "--format", "csv"],
}

DISPATCH = {
    **SMALL_RUNS,
    **READ,
    "act -h": ["act", "-h"],
    "hopf -h": ["hopf", "-h"],
    "--version": ["--version"],
    "--version dims": ["--version", "dims"],
    "no arguments": [],
    "unknown command": ["nope"],
    "missing --n": ["dims", "--m", "1"],
    "unknown flag": ["dims", *OMEGA11, "--bogus"],
    "extra argument": ["dims", *OMEGA11, "extra"],
    "two unrecognized": ["dims", *OMEGA11, "--bogus", "extra"],
    "dims --version": ["dims", "--version"],
    "abbreviated flag": ["dims", "--fam", "dual", "--m", "1", "--n", "1", "--t-max", "2"],
    "flag=value": ["dims", "--m=1", "--n", "1", "--t-max", "2"],
    "bad integer": ["dims", "--m", "x", "--n", "1"],
    "value outside the choices": ["dims", "--family", "bogus", "--m", "1", "--n", "1"],
    "value starting with a dash": ["act", *OMEGA11, "--word", "-x", "--monomial", "(1|1)"],
    "negative integer": ["dims", *OMEGA11, "--t-max", "-1"],
    "repeated option": ["dims", *OMEGA11, "--m", "2", "--t-max", "2"],
    "missing value": ["dims", *OMEGA11, "--t-max"],
    "double dash": ["dims", "--", *OMEGA11],
    "flag with a value": ["hopf", "--family", "dq", "--exhaustive=1"],
}


@pytest.mark.parametrize("argv", DISPATCH.values(), ids=DISPATCH.keys())
def test_subcommand_dispatch_matches_the_top_level_parser(capsys, argv):
    # main reads argv[1:] in one pass, or hands all of argv to the top-level
    # parser as old_main does; exit code, stdout and stderr stay those of
    # old_main either way
    sub = cli._subcommands(cli._parser(cli.build_parser)).get(argv[0]) if argv else None
    read = sub is not None and cli._read_args(sub, argv[1:]) is not None
    assert read == (argv in SMALL_RUNS.values() or argv in READ.values())
    code = old_main(list(argv))
    captured = capsys.readouterr()
    assert call(capsys, list(argv)) == (code, captured.out, captured.err)


SUBS = cli._subcommands(cli.build_parser())
# values a reader must refuse or convert as argparse does
ODD_VALUES = st.sampled_from(["", "x", "1.5", " 3", "3_0", "-1", "-x", "--m", "-h", "bogus",
                              "(1|1)", "E1 x2"])


def value_of(action, clean):
    """A value for an option: one of its choices, an int or a word, or unless
    clean now and then an odd one."""
    if action.choices is not None:
        good = st.sampled_from(list(action.choices))
    elif action.type is int:
        good = st.integers(0, 12).map(str)
    else:
        good = st.sampled_from(["(1,0|1)", "E1 x2", "d1", "2,3", "3"])
    return good if clean else st.one_of(good, good, ODD_VALUES)


@st.composite
def option_tokens(draw, action, clean):
    """The tokens of one option: its exact string, or unless clean now and
    then an abbreviation, the option=value form or a missing value."""
    option = draw(st.sampled_from(action.option_strings))
    takes_value = action.nargs != 0
    value = draw(value_of(action, clean)) if takes_value else None
    form = "exact" if clean else draw(st.sampled_from(["exact"] * 3 + [
        "abbreviated", "joined", "bare"]))
    if form == "abbreviated":
        option = option[:draw(st.integers(3, max(3, len(option) - 1)))]
    if form == "joined":
        return [f"{option}={value if takes_value else 1}"]
    return [option] if form == "bare" or not takes_value else [option, value]


@st.composite
def subcommand_argvs(draw):
    """A subcommand and an argv for its parser.  A clean argv holds its
    required options most times and distinct options of good values; any
    other also odd values and forms, repeats and a stray token."""
    name, clean = draw(st.sampled_from(sorted(SUBS))), draw(st.booleans())
    actions = [a for a in SUBS[name]._actions
               if a.option_strings and not (clean and a.dest == "help")]
    chosen = [a for a in actions if a.required] if draw(st.integers(0, 3)) else []
    chosen += draw(st.lists(st.sampled_from(actions), max_size=5, unique=clean))
    chosen = draw(st.permutations(list(dict.fromkeys(chosen)) if clean else chosen))
    argv = [token for action in chosen for token in draw(option_tokens(action, clean))]
    strays = [] if clean else draw(st.lists(st.sampled_from(["-h", "--", "extra", "--bogus", "-1"]),
                                            max_size=1))
    for stray in strays:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return name, argv


def parse_known(sub, argv):
    """sub.parse_known_args(argv), or the exit code argparse leaves with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return sub.parse_known_args(argv)
        except SystemExit as exc:
            return exc.code


@given(subcommand_argvs())
@settings(max_examples=300, deadline=None)
@example(("dims", [*OMEGA11]))  # the defaults and set_defaults
@example(("hopf", ["--family", "dq", "--exhaustive"]))
@example(("dims", ["--family", "bogus", *OMEGA11[2:]]))  # outside the choices
@example(("act", [*OMEGA11, "--word", "-x", "--monomial", "(1|1)"]))  # a leading dash
def test_the_reader_gives_the_namespace_of_argparse_or_none(case):
    name, argv = case
    sub = SUBS[name]
    args = cli._read_args(sub, argv)
    if args is not None:
        assert parse_known(sub, argv) == (args, [])  # Namespaces compare by vars


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('az"\\/\n\t\x00\x1f\x7f \xe9\u2202\u03be\U0001d50a'), max_size=5)
LEAVES = (st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
          | st.sampled_from([2 ** 64, 2 ** 64 + 1, -(2 ** 64) - 1, -1, 0]) | TEXT)


def payloads(depth):
    if depth == 0:
        return LEAVES
    inner = payloads(depth - 1)
    return (LEAVES | st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(TEXT, inner, max_size=3))


@given(payloads(4))
@settings(max_examples=300, deadline=None)
def test_emitter_writes_the_text_of_json_dumps(payload):
    assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_every_subcommand_report_is_the_text_of_json_dumps(monkeypatch, capsys):
    emitted = []
    original = cli._json
    monkeypatch.setattr(cli, "_json", lambda payload: emitted.append(payload) or original(payload))
    for argv in SMALL_RUNS.values():
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert [p["config"]["command"] for p in emitted] == list(SMALL_RUNS)
    for payload in emitted:
        assert original(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [1.0, {"a": [0.5]}, {1: "a"}, {"a": {None: 0}}, {2: 0, 1: 0},
                                     {1, 2}, b"bytes"])
def test_emitter_refuses_floats_and_non_str_keys(payload):
    with pytest.raises(TypeError):
        cli._json(payload)
