"""The mckay-lab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload corpus22|verify_large|query \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each round of a workload runs in a fresh
interpreter (bench/worker.py).  Rounds repeat until ``--seconds`` are spent;
a round is never cut, so a workload whose round is longer than that measures
one round.  With ``--trace 1`` the run makes an untraced and a traced
round, then, if that pair took less than ``--seconds``, a traced and an
untraced one, and reports the per-layer metrics and the tracing overhead.

Times are in reference seconds (see speed.py).  Output: a ``meta`` line
(machine, source and inputs), a ``raw`` line (the same times in plain
seconds, with the speed factor), a ``digest`` line (the combined digest of
every output of the run) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  The same record, with the
per-round figures, goes to ``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``;
a traced run writes its spans to ``.bench_out/trace_<workload>_seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402
from speed import SpeedLog  # noqa: E402
from tracer import percentile  # noqa: E402

SETUP_PROBES = 5  # set-up-only interpreters per run, after one warm-up
DEADLINE_S = 170  # a run ends within 180 s


class BenchError(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mckay_lab", "__init__.py")):
        print(f"error: no mckay_lab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        record = run(args, declared)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"meta": record["meta"]}, sort_keys=True))
    print(json.dumps({"raw": record["raw"]}, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} {record['digest']}")
    print(json.dumps(record["result"]))
    return 0


def run(args, declared: dict) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    trace_file = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.jsonl")
    try:
        spawn(args, run_dir, deadline, setup_only=True)  # warm-up: file and bytecode caches
        probe_speed = SpeedLog()
        setups = []
        for _ in range(SETUP_PROBES):
            probe_speed.sample(5)
            setups.append(spawn(args, run_dir, deadline, setup_only=True)["setup_s"])
        probe_speed.sample(5)
        rounds = []
        traced = []
        measure_start = time.perf_counter()
        if args.trace:
            # untraced, traced, then traced, untraced if time allows: the
            # mirrored order cancels a steady drift in machine speed
            for trace in (False, True, True, False):
                kept = traced if trace else rounds
                kept.append(spawn(args, run_dir, deadline, trace=trace,
                                  trace_file=None if traced else trace_file))
                elapsed = time.perf_counter() - measure_start
                if len(rounds) + len(traced) == 2 and elapsed > args.seconds:
                    break
        else:
            while True:
                rounds.append(spawn(args, run_dir, deadline))
                elapsed = time.perf_counter() - measure_start
                if elapsed + elapsed / len(rounds) > args.seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_rounds = rounds + traced
    setups = [(t, probe_speed.factor()) for t in setups]
    setups += [(r["setup_s"], r["factor"]) for r in all_rounds]
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    if args.trace:
        metrics = traced_metrics(declared, rounds, traced)
    else:
        metrics = end_to_end_metrics(declared, rounds, setups)
    digests = sorted({r["digest"] for r in all_rounds})
    return {
        "meta": metadata(args, len(rounds), len(setups)),
        "digest": digests[0] if len(digests) == 1 else "differs:" + ",".join(digests),
        "errors": [e for r in all_rounds for e in r["errors"]],
        "raw": raw_times(rounds, setups),
        "rounds": [
            {
                k: r[k]
                for k in ("setup_s", "wall_s", "cpu_s", "factor", "peak_rss_mb", "failed")
            }
            for r in all_rounds
        ],
        "result": {
            "correct": failed == 0 and len(digests) == 1,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def spawn(args, run_dir, deadline, setup_only=False, trace=False, trace_file=None) -> dict:
    """Run one worker interpreter and return its result with ``setup_s``."""
    work_dir = tempfile.mkdtemp(dir=run_dir)
    result_file = os.path.join(work_dir, "result.json")
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if trace else "0",
        "--work-dir", work_dir,
        "--result", result_file,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"out of time before a {args.workload} round")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=timeout, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {args.workload} round passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0 or not os.path.exists(result_file):
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    with open(result_file) as fh:
        result = json.load(fh)
    shutil.rmtree(work_dir, ignore_errors=True)
    result["setup_s"] = result["ready"] - spawned
    return result


def end_to_end_metrics(declared: dict, rounds: list, setups: list) -> dict:
    """Medians in reference seconds (speed.py); ``setups`` holds
    (seconds, factor) pairs."""
    op_ms = [v * r["factor"] for r in rounds for v in r["op_ms"]]
    values = {
        "setup_s": statistics.median(t * f for t, f in setups),
        "wall_s": statistics.median(r["wall_s"] * r["factor"] for r in rounds),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["end_to_end"]
    }


def raw_times(rounds: list, setups: list) -> dict:
    """The same medians in plain seconds, for the record."""
    op_ms = [v for r in rounds for v in r["op_ms"]]
    return {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "speed_factor": statistics.median(r["factor"] for r in rounds),
    }


def traced_metrics(declared: dict, plain: list, traced: list) -> dict:
    """Layer metrics of the first traced round, times in reference seconds;
    walls are means over rounds."""
    first = traced[0]
    values = {
        name: value * first["factor"] if name.endswith(("_s", "_ms")) else value
        for name, value in first["layers"].items()
    }
    values["trace.wall_s"] = statistics.mean(r["wall_s"] * r["factor"] for r in traced)
    values["trace.untraced_wall_s"] = statistics.mean(r["wall_s"] * r["factor"] for r in plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.spans"] = first["spans"]
    # A layer function that no longer exists reads 0, not an error.
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared["per_layer"]
    }


def metadata(args, rounds: int, setups: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "setup_samples": setups,
        "parameters": workloads.parameters(args.workload, args.seed),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mckay_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
