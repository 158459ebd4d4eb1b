"""One measured round of a workload, in a fresh interpreter.

Started by run.py, never imported by it: ghilb's box cache and each group's
minimal-monomial table live for the whole process, so a round must not
inherit them from an earlier one.

    python3 bench/worker.py --workload W --seed N --trace 0|1 \
        --work-dir DIR --result FILE [--setup-only]

Writes one JSON object to FILE.  ``ready`` is the CLOCK_MONOTONIC time at
which ``import mckay_lab.cli`` (which imports the whole package) and the
seeded inputs were done; run.py subtracts the time it started the process.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import mckay_lab.cli  # noqa: F401  (the library and CLI imports are set-up time)

import workloads
from speed import SpeedLog

ERRORS_KEPT = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    run = workloads.Round(args.workload, args.seed, args.work_dir)
    ready = time.perf_counter()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(measure(run, args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(run: workloads.Round, args) -> dict:
    import mckay_lab.verify
    import tracer as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    speed = SpeedLog(tracer)
    speed.sample(10)
    try:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        run.run(speed, tracer)
        wall = time.perf_counter() - wall0 - run.calibration_s
        cpu = time.process_time() - cpu0 - run.calibration_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    speed.sample(10)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    run.check(workloads.load_reference())
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "factor": speed.factor(),
        "peak_rss_mb": peak_kb / 1024,
        "op_ms": run.op_ms,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": [f"{r['key']}: {r['error']}" for r in run.results if r["error"]][
            :ERRORS_KEPT
        ],
        "digest": run.combined_digest(),
    }
    if tracer is not None:
        props = tracing.prop_names(mckay_lab.verify.GroupVerification)
        out["layers"] = tracer.layer_metrics(props)
        out["spans"] = len(tracer.spans)
        if args.trace_file:
            tracer.write(args.trace_file, wall0)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
