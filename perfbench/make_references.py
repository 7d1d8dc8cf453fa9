"""Write references.json: exit code and report sha256 of every operation.

    PYTHONPATH=src python3 perfbench/make_references.py

The references pin the reports of the commit they were made on; every later
run must reproduce them byte for byte.  Regenerate them only in a change that
alters report bytes on purpose, and say so in that change.  Every operation
must exit 0 here: the workloads hold no operation that fails.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from worker import REFERENCES, run_op, stream_digest

QUERY_DIGEST_CHARS = 16
DEFAULT_SEED = 0


def main() -> int:
    os.environ.pop("QGRASS_WORKERS", None)
    import qgrass.cli as cli

    refs: dict = {}
    for workload in ("sweep", "certify"):
        refs[workload] = {}
        for name, argv in workloads.jobs(workload, DEFAULT_SEED):
            _, code, digest = run_op(cli, argv)
            if code != 0:
                raise SystemExit(f"{workload} job {name} exited {code}")
            refs[workload][name] = {"exit": code, "sha256": digest}
    digests = []
    for i, argv in enumerate(workloads.query_pool()):
        _, code, digest = run_op(cli, argv)
        if code != 0:
            raise SystemExit(f"query {i} {argv} exited {code}")
        digests.append(digest)
    stream = [digests[i] for i in workloads.queries(DEFAULT_SEED)]
    refs["queries"] = {
        "exit": 0,
        "pool_seed": workloads.POOL_SEED,
        "default_seed": DEFAULT_SEED,
        "default_seed_stream_sha256": stream_digest(stream),
        "sha256": [d[:QUERY_DIGEST_CHARS] for d in digests],
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
