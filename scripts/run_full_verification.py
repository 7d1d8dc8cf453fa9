#!/usr/bin/env python3
"""Desk-scale verification sweep.

Re-runs every check family through the command-line interface and drops the
JSON/CSV reports into ./reports (or the directory given as the first
argument), together with summary.json: per run the report file name, argv,
exit code, status and seconds, then the pass count and the total.  Each run
also prints one progress line to stderr as it ends.  Exit status is nonzero
if any check fails.

    python3 scripts/run_full_verification.py [reports_dir]
"""

import json
import pathlib
import sys
import time

from qgrass.cli import main as qgrass_main

RUNS = [
    ("qtest.json", ["qtest"]),
    # dimension tables, generic and restricted, both sides
    ("dims-omega-2-1.csv", ["dims", "--family", "omega", "--m", "2", "--n", "1",
                            "--t-max", "8", "--format", "csv"]),
    ("dims-omega-restricted-d3.csv", ["dims", "--family", "omega-restricted", "--m", "2",
                                      "--n", "1", "--q", "root", "--d", "3",
                                      "--t-max", "8", "--format", "csv"]),
    ("dims-dual-2-2.csv", ["dims", "--family", "dual", "--m", "2", "--n", "2",
                           "--t-max", "8", "--format", "csv"]),
    ("dims-dual-restricted-d5.csv", ["dims", "--family", "dual-restricted", "--m", "2",
                                     "--n", "2", "--q", "root", "--d", "5",
                                     "--t-max", "12", "--format", "csv"]),
    # derivative algebra and quantum Weyl relation systems
    ("check-dq-2-2.json", ["check-dq", "--suite", "dq", "--family", "omega",
                           "--m", "2", "--n", "2", "--t-max", "6"]),
    ("check-leibniz-suite-2-1.json", ["check-dq", "--suite", "leibniz", "--family", "omega",
                                      "--m", "2", "--n", "1", "--t-max", "5"]),
    ("check-weyl-generic-2-2.json", ["check-weyl", "--suite", "generic", "--family", "omega",
                                     "--m", "2", "--n", "2", "--t-max", "6"]),
    ("check-weyl-odd-root.json", ["check-weyl", "--suite", "odd-root", "--family", "omega",
                                  "--m", "2", "--n", "1", "--q", "root", "--d", "3",
                                  "--t-max", "6"]),
    ("check-weyl-even-root.json", ["check-weyl", "--suite", "even-root", "--family", "omega",
                                   "--m", "2", "--n", "1", "--q", "root", "--d", "8",
                                   "--t-max", "6"]),
    # quantum supergroup relations and the module-algebra law
    ("check-uq-omega-2-2.json", ["check-uq", "--family", "omega", "--m", "2", "--n", "2",
                                 "--t-max", "6"]),
    ("check-uq-dual-2-2.json", ["check-uq", "--family", "dual", "--m", "2", "--n", "2",
                                "--t-max", "6"]),
    ("check-uq-restricted-2-1.json", ["check-uq", "--family", "omega-restricted",
                                      "--m", "2", "--n", "1", "--q", "root", "--d", "3",
                                      "--t-max", "6"]),
    ("check-leibniz-omega-2-1.json", ["check-leibniz", "--family", "omega",
                                      "--m", "2", "--n", "1", "--t-max", "5"]),
    ("check-leibniz-dual-2-1.json", ["check-leibniz", "--family", "dual",
                                     "--m", "2", "--n", "1", "--t-max", "5"]),
    # simple components, highest weights
    ("simple-omega-2-1.json", ["simple", "--family", "omega", "--m", "2", "--n", "1",
                               "--t-max", "4"]),
    ("simple-omega-restricted.json", ["simple", "--family", "omega-restricted",
                                      "--m", "2", "--n", "1", "--q", "root", "--d", "3",
                                      "--t-max", "5"]),
    ("simple-dual-2-1.json", ["simple", "--family", "dual", "--m", "2", "--n", "1",
                              "--t-max", "3"]),
    # pointed Hopf presentations
    ("hopf-taft-1-0.json", ["hopf", "--family", "taft-mn", "--m", "1", "--n", "0",
                            "--q", "root", "--d", "3", "--exhaustive",
                            "--divided-power", "1"]),
    ("hopf-taft-1-1.json", ["hopf", "--family", "taft-mn", "--m", "1", "--n", "1",
                            "--q", "root", "--d", "3"]),
    ("hopf-taft-orders-2-3.json", ["hopf", "--family", "taft-orders",
                                   "--orders", "2,3", "--q", "root", "--d", "6",
                                   "--exhaustive"]),
    ("hopf-dq-1-1.json", ["hopf", "--family", "dq", "--m", "1", "--n", "1"]),
    ("hopf-aq-1-1.json", ["hopf", "--family", "aq", "--m", "1", "--n", "1"]),
    ("hopf-dq-restricted.json", ["hopf", "--family", "dq-restricted", "--m", "1",
                                 "--n", "1", "--q", "root", "--d", "3"]),
    ("hopf-gq-restricted.json", ["hopf", "--family", "gq-restricted", "--m", "1",
                                 "--n", "1", "--q", "root", "--d", "3",
                                 "--divided-power", "1", "--p-max", "3"]),
]


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for k, (filename, argv) in enumerate(RUNS, start=1):
        t0 = time.monotonic()
        code = qgrass_main(argv + ["--out", str(out_dir / filename)])
        elapsed = time.monotonic() - t0
        status = {0: "pass", 1: "FAIL"}.get(code, "usage-error")
        print(f"[{k}/{len(RUNS)}] {filename} {status} {elapsed:.2f}s", file=sys.stderr, flush=True)
        print(f"{status:>11}  {elapsed:6.1f}s  {filename}")
        runs.append({"file": filename, "argv": argv, "exit_code": code,
                     "status": status, "seconds": round(elapsed, 3)})
    passed = sum(run["exit_code"] == 0 for run in runs)
    summary = {"runs": runs, "passed": passed, "total": len(runs)}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n{passed}/{len(runs)} runs passed; reports in {out_dir}/")
    return 0 if passed == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
