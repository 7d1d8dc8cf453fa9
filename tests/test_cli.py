import importlib.util
import json
import os
import pathlib

from qgrass.cli import main

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
    capsys.readouterr()

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
