"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402
import qgrass.cli as cli  # noqa: E402
import qgrass.superspaces as superspaces  # noqa: E402
import qgrass.uqrep as uqrep  # noqa: E402
import qgrass.weyl as weyl  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

QUICK_JOBS = {
    "sweep": ("check-uq-restricted-2-1",),
    "certify": ("hopf-aq-1-1", "hopf-taft-1-1", "simple-dual-2-1", "simple-omega-restricted"),
}


def _report(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_seed_gives_one_query_stream_and_job_order():
    assert workloads.query_pool() == workloads.query_pool()
    for seed in (0, 5):
        assert worker.operations("queries", seed) == worker.operations("queries", seed)
        assert workloads.jobs("sweep", seed) == workloads.jobs("sweep", seed)
    assert workloads.queries(5) != workloads.queries(6)


def test_another_seed_reorders_jobs_and_keeps_their_digests():
    refs = worker.load_references()
    for workload, quick in QUICK_JOBS.items():
        a, b = workloads.jobs(workload, 1), workloads.jobs(workload, 2)
        assert [n for n, _ in a] != [n for n, _ in b]
        assert sorted(a) == sorted(b)
        for order in (a, b):
            for name, argv in order:
                if name in quick:
                    _, code, digest = worker.run_op(cli, argv)
                    assert worker.matches(refs, workload, name, code, digest), name


def test_one_mutated_byte_counts_as_failed():
    refs = worker.load_references()
    name, argv = next(j for j in workloads.jobs("certify", 0) if j[0] == "hopf-aq-1-1")
    code, text = _report(argv)
    assert worker.matches(refs, "certify", name, code, _sha(text))
    mutated = text[:200] + chr(ord(text[200]) ^ 1) + text[201:]
    assert not worker.matches(refs, "certify", name, code, _sha(mutated))
    assert not worker.matches(refs, "certify", name, 1, _sha(text))

    key, argv = worker.operations("queries", 0)[0]
    code, text = _report(argv)
    assert worker.matches(refs, "queries", key, code, _sha(text))
    assert not worker.matches(refs, "queries", key, code, _sha(text[:-2] + "?" + text[-1:]))


def test_tracer_wraps_every_binding_and_restores_it():
    original = superspaces.basis_of_degree
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = superspaces.basis_of_degree
        assert wrapped is not original
        assert weyl.basis_of_degree is wrapped
        assert uqrep.basis_of_degree is wrapped
        assert cli.basis_of_degree is wrapped
    finally:
        tracer.uninstall()
    for module in (superspaces, weyl, uqrep, cli):
        assert module.basis_of_degree is original
    assert not tracer.missing


def _traced(ops) -> tuple[dict, float]:
    tracer = Tracer()
    tracer.install()
    wall = 0.0
    try:
        for op_id, (_, argv) in enumerate(ops):
            tracer.op_id = op_id
            start, end = worker.run_op(cli, argv)[0]
            wall += end - start
    finally:
        tracer.uninstall()
    self_total = sum(stat[1] for stat in tracer.stats.values())
    return tracer.metrics(wall), self_total / wall


def test_traced_counts_repeat_and_self_times_add_up():
    ops = worker.operations("queries", 3)[:60]
    ops += [j for j in workloads.jobs("certify", 0) if j[0] in QUICK_JOBS["certify"]]
    first, covered = _traced(ops)
    second, _ = _traced(ops)
    counts = {k: v for k, v in first.items() if not k.endswith("_s") and k != "qarith.share"}
    assert counts == {k: second[k] for k in counts}
    for name in ("cli.main.calls", "cli.build_parser.calls", "weyl.apply_atom.calls",
                 "uqrep.generator_word.calls", "hopf.mul.calls", "qarith.const.calls"):
        assert first[name] > 0, name
    # self times partition the traced time under cli.main
    assert 0.95 < covered <= 1.0


def test_op_times_take_each_operation_at_its_median_pass():
    passes = [{"latencies_s": [1.0, 0.6]}, {"latencies_s": [1.1, 0.5]}, {"latencies_s": [1.2, 0.7]}]
    assert run.op_times(passes) == [1.1, 0.6]


def test_speed_probe_scales_by_the_probe_time_and_drops_the_probes():
    probe = SpeedProbe()
    probe.starts.extend([0.5, 1.0, 1.5])
    probe.durations.extend([2 * speed.REFERENCE_S] * 3)
    # a machine at half speed: 0.5 s of wall, less the one probe inside, reads as half
    expected = (0.5 - 2 * speed.REFERENCE_S) / 2
    assert probe.scaled(0.9, 1.4) == pytest.approx(expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
