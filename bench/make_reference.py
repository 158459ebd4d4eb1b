"""Record the output digests the benchmark checks every run against.

    PYTHONPATH=src python3 bench/make_reference.py [--workload W ...]

Runs every operation that any seed can produce (``workloads.pool``) and the
whole acceptance corpus once, through the same calls the benchmark times,
and stores a digest of each output in bench/reference.json.  Regenerate it
only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import workloads
from speed import SpeedLog


def reference_for(workload: str) -> dict:
    with tempfile.TemporaryDirectory(dir=os.path.dirname(workloads.REFERENCE_FILE)) as work_dir:
        run = workloads.Round(workload, 0, work_dir)
        if workload != "corpus22":
            run.ops = workloads.pool(workload)
        run.run(SpeedLog())
        run.check({})
    bad = [f"{r['key']}: {r['error']}" for r in run.results if r["error"]]
    if bad:
        raise SystemExit(f"{workload}: {len(bad)} failed operations, first: {bad[0]}")
    return {r["key"]: r["digest"] for r in run.results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    reference = {}
    if os.path.exists(workloads.REFERENCE_FILE):
        reference = workloads.load_reference()
    for workload in args.workload or workloads.WORKLOADS:
        reference[workload] = reference_for(workload)
        print(f"{workload}: {len(reference[workload])} digests", file=sys.stderr)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
