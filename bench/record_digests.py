#!/usr/bin/env python3
"""Record the sha256 reference digests of every synth-artifacts output.

    python3 bench/record_digests.py

Runs every operation any seed of the synth-artifacts workload can run
(every noise seed and squid configuration of its menus) once and writes
``bench/reference_digests.json``.  The digests pin the outputs of the
commit this is run at; re-recording them is a change to the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run


def main() -> int:
    workloads, _ = run._load()
    workload = workloads.WORKLOADS["synth-artifacts"]
    workdir = os.path.join(run.ROOT, ".bench_work", f"record-digests-{os.getpid()}")
    os.makedirs(workdir)
    digests = {}
    try:
        state = workload.setup(workdir, 0, False)
        for op in workload.menu_ops(state):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = op.run()
            if rc != 0:
                print(f"error: {op.label} exited {rc}", file=sys.stderr)
                return 1
            for key, path in op.artefacts():
                digests[key] = workloads.sha256_file(path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"commit": run._git_commit(), "digests": dict(sorted(digests.items()))}
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
