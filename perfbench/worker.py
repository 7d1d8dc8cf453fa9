"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload sweep --seed 0 [--trace SPANS_FILE]
    python3 perfbench/worker.py --workload sweep --seed 0 --setup-only

Needs ``src`` on PYTHONPATH.  Every operation is one in-process call of the
public entry point ``qgrass.cli.main(argv)`` with its report captured from
stdout; its exit code and the sha256 of the report are checked against
``references.json``.  ``setup_s`` is the import of ``qgrass.cli`` (which
imports every layer), timed after the benchmark's own inputs are built.
Every time reported is scaled to a fixed machine speed by
``speed.SpeedProbe``; ``raw_wall_s`` is the unscaled sum.  With
``--trace FILE`` the pass reports per-layer metrics and writes its spans to
FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import pathlib
import sys
import time

import workloads
from speed import SpeedProbe
from tracing import Tracer

REFERENCES = pathlib.Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def operations(workload: str, seed: int) -> list[tuple[str | int, list[str]]]:
    """(reference key, argv) of each operation of a pass, in sending order:
    the job name for sweep/certify, the pool index for queries."""
    if workload == "queries":
        pool = workloads.query_pool()
        return [(i, pool[i]) for i in workloads.queries(seed)]
    return workloads.jobs(workload, seed)


def run_op(cli, argv: list[str]) -> tuple[tuple[float, float], int | str, str]:
    """((start, end), exit code, sha256 of the report) of one CLI call.  An
    exception escaping the CLI is an operation failure, not a harness one."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            code = f"exception: {type(exc).__name__}: {exc}"
    return (t0, time.perf_counter()), code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def matches(refs: dict, workload: str, key: str | int, code, digest: str) -> bool:
    """Whether one operation's exit code and report digest equal the reference."""
    if workload == "queries":
        ref = refs["queries"]
        return code == ref["exit"] and digest[: len(ref["sha256"][key])] == ref["sha256"][key]
    ref = refs[workload].get(key)
    return ref is not None and code == ref["exit"] and digest == ref["sha256"]


def peak_rss_mb() -> float:
    """High-water resident memory of this process image (VmHWM).  Not
    ru_maxrss: that also counts the parent's memory at the time of the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def stream_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", default=None, help="trace; write the spans to this gzip JSON-lines file")
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.start()
    ops = operations(args.workload, args.seed)
    refs = load_references()
    t0 = time.perf_counter()
    import qgrass.cli as cli
    setup = (t0, time.perf_counter())
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.scaled(*setup)}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    intervals, digests, failures = [], [], []
    for op_id, (key, argv) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        interval, code, digest = run_op(cli, argv)
        intervals.append(interval)
        digests.append(digest)
        if not matches(refs, args.workload, key, code, digest):
            failures.append({"op": key, "exit": code, "sha256": digest})
    probe.stop()
    latencies = [probe.scaled(*interval) for interval in intervals]

    result = {
        "setup_s": probe.scaled(*setup),
        "wall_s": sum(latencies),
        "raw_wall_s": sum(end - start for start, end in intervals),
        "latencies_s": latencies,
        "attempted": len(ops),
        "failures": failures,
        "stream_sha256": stream_digest(digests),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(result["raw_wall_s"])
        result["missing"] = tracer.missing
        with gzip.open(args.trace, "wt") as fh:
            for op_id, (key, argv) in enumerate(ops):
                fh.write(json.dumps({"op": op_id, "ref": key, "argv": argv}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
