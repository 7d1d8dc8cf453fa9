"""The per-layer counters that the benchmark's traced run must see move.

``perfbench/run.py --trace 1`` reports a problem for each counter of
``run.EXPECTED_NONZERO`` that its traced pass leaves at 0, so a change that
stops a workload from reaching a layer fails the benchmark.  These tests
trace one pass of sweep, one of certify and the first 100 queries of seed 0
in process, with the benchmark's own ``Tracer`` and ``worker``, and catch
such a change in the repository's suite.  The benchmark's files are loaded,
never changed.
"""

import importlib
import pathlib

import pytest

from qgrass import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PASSES = {"sweep": None, "certify": None, "queries": 100}


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("run", "tracing", "worker")}


@pytest.mark.parametrize("workload", PASSES)
def test_a_traced_pass_moves_every_expected_counter(perfbench, workload):
    run, tracing, worker = perfbench["run"], perfbench["tracing"], perfbench["worker"]
    ops = worker.operations(workload, 0)[: PASSES[workload]]
    refs = worker.load_references()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [(key, *worker.run_op(cli, argv)[1:]) for key, argv in ops]
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert all(worker.matches(refs, workload, *outcome) for outcome in outcomes)
    metrics = tracer.metrics(1.0)
    assert [name for name in run.EXPECTED_NONZERO[workload] if metrics[name] == 0] == []
