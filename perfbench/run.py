"""qgrass benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload sweep|certify|queries --seed N --seconds S --trace 0|1

Run from the repository root.  A pass sends every operation of the workload
once, in the seed's order, from a fresh process (perfbench/worker.py) with
one thread (QGRASS_WORKERS unset), so peak memory is per workload and no
cache stays warm from one pass to the next.

With --trace 0 the run repeats the pass, each time after a few set-up
probes, as often as fits in --seconds at the workload's nominal pass time
(at least MIN_PASSES times), takes each operation's median time over the
passes, and prints every end-to-end metric of BENCHMARK.json.  Every time is
scaled to a fixed machine speed by the probe in speed.py.  With --trace 1 it runs the pass
once untraced and once traced and prints every per-layer metric; the counts
repeat exactly for a seed.

Every report is checked byte for byte against references.json.  The last
line of stdout is one JSON object, and the exit code is 0 only when every
operation matched.  See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import workloads
from worker import load_references

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # spans of traced runs
SETUP_PROBES = 9
MIN_PASSES = 3
# Unscaled time of one pass process, start-up included: 2-vCPU x86-64, CPython 3.11
NOMINAL_PASS_S = {"sweep": 13.0, "certify": 7.0, "queries": 4.0}
RUN_LIMIT_S = 170  # every child is killed past this, so a run ends within 180 s

# Per-layer counters that the workload must drive; zero means a wrapper missed
# a binding or the workload no longer reaches the layer.
EXPECTED_NONZERO = {
    "sweep": (
        "qarith.mul_generic.calls", "qarith.mul_root.calls", "qarith.add.calls",
        "qarith.eq.calls", "qarith.const.calls", "indices.theta.calls",
        "superspaces.monomial_product.calls", "superspaces.multiply.calls",
        "superspaces.basis_of_degree.calls", "weyl.apply_atom.calls",
        "weyl.apply_word.calls", "weyl.operators_equal.calls", "weyl.check.calls",
        "uqrep.generator_word.calls", "cli.main.calls", "cli.build_parser.calls",
    ),
    "certify": (
        "qarith.mul_generic.calls", "qarith.mul_root.calls", "qarith.add.calls",
        "qarith.inv.calls", "qarith.const.calls", "superspaces.basis_of_degree.calls",
        "weyl.apply_word.calls", "uqrep.generator_word.calls",
        "uqrep.component_report.calls", "uqrep.rowspace_add.calls", "hopf.build.calls",
        "hopf.verify_hopf.calls", "hopf.mul.calls", "hopf.tensor_mul.calls",
        "hopf.delta_key.calls", "hopf.antipode.calls", "cli.main.calls",
        "cli.build_parser.calls",
    ),
    "queries": (
        "qarith.const.calls", "superspaces.basis_of_degree.calls", "weyl.apply_atom.calls",
        "weyl.apply_word.calls", "uqrep.generator_word.calls", "cli.main.calls",
        "cli.build_parser.calls",
    ),
}


class HarnessError(Exception):
    """The benchmark could not run (no program, a crashed worker, a timeout)."""


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("QGRASS_WORKERS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def metadata() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "machine": f"{platform.system()} {platform.machine()} {platform.processor()}".strip(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def op_times(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes.  The times are already
    scaled to a fixed machine speed (speed.py), so what is left of the
    machine's noise falls on both sides, and the median is steadier than
    the fastest pass."""
    return [statistics.median(times) for times in zip(*(p["latencies_s"] for p in passes))]


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run makes: what fits in `seconds` at the nominal pass time, at
    least MIN_PASSES.  It depends on the arguments only, never on the machine,
    so that two commits are measured alike."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Identical passes, with the set-up probes spread between them, so that
    the set-up samples spread over the whole run as the passes do."""
    setups, passes = [], []
    n = pass_count(runner.workload, seconds)
    for i in range(n):
        probes = SETUP_PROBES * (i + 1) // n - SETUP_PROBES * i // n
        setups += [runner.child("--setup-only")["setup_s"] for _ in range(probes)]
        passes.append(runner.child())
    op_ms = [1000 * t for t in op_times(passes)]
    metrics = {
        "wall_s": sum(op_ms) / 1000,
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def traced_run(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    """One untraced and one traced pass of the same operations."""
    spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.jsonl.gz"
    plain = runner.child()
    OUT.mkdir(exist_ok=True)
    traced = runner.child("--trace", str(spans))
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    missing = traced["missing"]
    for metric, path in sorted(missing.items()):
        print(f"note: {path} not found; {metric} reads 0 and is not checked", file=sys.stderr)
    problems = [f"counter {name} is 0" for name in EXPECTED_NONZERO[runner.workload]
                if metrics.get(name, 0) == 0 and name.rpartition(".")[0] not in missing]
    print(f"spans: {traced['spans']} written to {spans.relative_to(ROOT)}")
    return metrics, [plain, traced], problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qgrass" / "cli.py").is_file():
        print(f"error: no qgrass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)
    print("meta: " + json.dumps(metadata(), sort_keys=True))
    try:
        if args.trace:
            metrics, passes, problems = traced_run(runner)
        else:
            metrics, passes = timed_run(runner, args.seconds)
            problems = []
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED op {f['op']}: exit {f['exit']}, report sha256 {f['sha256']}")
    stream = passes[0]["stream_sha256"]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, stream sha256 {stream}")
    print("unscaled pass walls (s): " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes))
    if any(p["stream_sha256"] != stream for p in passes):
        problems.append("passes of one seed produced different report streams")
    ref = load_references()["queries"]
    if args.workload == "queries" and args.seed == ref["default_seed"]:
        if stream != ref["default_seed_stream_sha256"]:
            problems.append("query stream digest differs from the default-seed reference")
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            problems.append(f"metric {d['name']} was not measured")
            continue
        out[d["name"]] = {"value": metrics[d["name"]], "unit": d["unit"]}
        print(f"{d['name']} = {metrics[d['name']]:.6g} {d['unit']}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ({len(failures)}/{attempted} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
