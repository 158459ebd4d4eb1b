"""Seeded inputs, operations and output checks of the three benchmark workloads.

For ``query`` a seed chooses, for every base group, one permutation of the
coordinates, and the order of the groups.  The groups and their sizes stay
fixed, so a run costs about the same at every seed, while the spec strings,
the seed cluster of the wall-crossing search and every output byte change
with the seed.  Drawing the order of a group itself would swamp the
run-to-run spread: fan construction grows roughly with the cube of it.

The cost of one group does depend on its presentation, which is why
``verify_large`` (three groups, not twenty to average over) lets the seed
choose only the order the groups run in: ``verify_group`` on the six
coordinate orders of 1/97(1,12,84) took 5.9 to 8.1 s on a 2-core Xeon.
Inverting the generator names the same group too, yet ``build_fan`` on
1/36(35,35,2) takes five times as long as on 1/36(1,1,34), so no seed does it.

``corpus22`` is a fixed corpus; its seed chooses nothing.

Every input any seed can produce is in ``pool(workload)``, and
``reference.json`` holds a digest of each output of that pool, so the
output gate is exact at every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time

WORKLOADS = ("corpus22", "verify_large", "query")

# The acceptance corpus cut at r <= 22 (every cyclic group, plus the two
# products): still many small groups, at a third of the r <= 30 sweep's time,
# so a run holds two or three rounds instead of one.
CORPUS_MAX_ORDER = 22
CORPUS_EXTRA = ("2:1,1,0+2:0,1,1", "3:1,2,0+3:0,1,2")

# Three orders, all distinct so the process-wide box cache of ghilb (keyed by
# the group order) is never shared between them: an isolated cyclic group, a
# non-isolated one (a curve of A-singularities, so boundary divisors and
# cone extraction carry more weight) and a product whose box is far larger
# than its exponent needs.
VERIFY_LARGE_BASE = ("79:1,11,67", "72:1,1,70", "8:1,7,0+8:0,1,7")

# Twenty cyclic groups of distinct orders 12..31, isolated and not: the read
# path of figure and table users.
QUERY_BASE = (
    "12:1,2,9",
    "13:1,3,9",
    "14:1,3,10",
    "15:1,2,12",
    "16:1,3,12",
    "17:1,3,13",
    "18:1,1,16",
    "19:1,7,11",
    "20:1,3,16",
    "21:1,4,16",
    "22:1,5,16",
    "23:1,6,16",
    "24:1,1,22",
    "25:1,7,17",
    "26:1,3,22",
    "27:1,5,21",
    "28:1,1,26",
    "29:1,4,24",
    "30:1,7,22",
    "31:1,5,25",
)
QUERY_COMMANDS = (
    ("fan",),
    ("reid", "--format", "svg"),
    ("quiver",),
    ("ssgraph",),
    ("transforms",),
)

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


# -- seeded inputs ------------------------------------------------------------


def _permute(spec: str, perm) -> str:
    factors = []
    for part in spec.split("+"):
        r_text, w_text = part.split(":")
        weights = w_text.split(",")
        factors.append(f"{r_text}:{','.join(weights[i] for i in perm)}")
    return "+".join(factors)


def presentations(spec: str) -> list[str]:
    """Every presentation of the group of ``spec`` that a seed can choose."""
    return sorted({_permute(spec, perm) for perm in itertools.permutations(range(3))})


def inputs(workload: str, seed: int) -> list[str]:
    """The group specs of one run, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus22":
        return []  # the corpus is fixed; the seed selects nothing
    if workload == "verify_large":
        return rng.sample(VERIFY_LARGE_BASE, len(VERIFY_LARGE_BASE))
    if workload == "query":
        groups = [rng.choice(presentations(s)) for s in QUERY_BASE]
        rng.shuffle(groups)
        return groups
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, groups: list[str]) -> list[tuple]:
    if workload == "query":
        return [(cmd, spec) for spec in groups for cmd in QUERY_COMMANDS]
    return [(spec,) for spec in groups]


def pool(workload: str) -> list[tuple]:
    """Every operation any seed can produce."""
    if workload == "corpus22":
        return []
    if workload == "verify_large":
        return operations(workload, list(VERIFY_LARGE_BASE))
    return operations(workload, [p for s in QUERY_BASE for p in presentations(s)])


def op_key(op: tuple) -> str:
    if len(op) == 2:
        cmd, spec = op
        return " ".join(cmd + (spec,))
    return op[0]


def parameters(workload: str, seed: int) -> dict:
    if workload == "corpus22":
        return {"max_order": CORPUS_MAX_ORDER, "extra_groups": list(CORPUS_EXTRA), "jobs": 1}
    params = {"groups": inputs(workload, seed)}
    if workload == "query":
        params["commands"] = [" ".join(c) for c in QUERY_COMMANDS]
    return params


# -- running -------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


class Round:
    """One pass over a workload's operations, with per-operation results."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.ops = operations(workload, inputs(workload, seed))
        self.op_ms: list[float] = []
        self.results: list[dict] = []  # one per operation: key, digest, error
        self.calibration_s = 0.0  # speed slices run inside the measured phase
        self._raw = None

    # The measured phase: library or CLI calls, a clock read per op and, between
    # ops, the speed slices (their time is left out of the round's wall time).
    def run(self, speed, tracer=None) -> None:
        if self.workload == "corpus22":
            self._run_corpus(speed, tracer)
            return
        for idx, op in enumerate(self.ops):
            self.calibration_s += speed.sample()
            if tracer is not None:
                tracer.op = idx
            start = time.perf_counter()
            try:
                outcome = self._execute(idx, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                outcome = exc
            self.op_ms.append((time.perf_counter() - start) * 1e3)
            self.results.append({"key": op_key(op), "outcome": outcome})

    def _execute(self, idx: int, op: tuple):
        import mckay_lab.cli
        import mckay_lab.groups
        import mckay_lab.verify

        if self.workload == "verify_large":
            return mckay_lab.verify.verify_group(mckay_lab.groups.parse_group_spec(op[0]))
        cmd, spec = op
        out = os.path.join(self.work_dir, f"op{idx}.out")
        try:
            return mckay_lab.cli.main([cmd[0], "--group", spec, "--out", out, *cmd[1:]])
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code

    def _run_corpus(self, speed, tracer) -> None:
        import mckay_lab.corpus as corpus

        spec = corpus.CorpusSpec(
            max_order=CORPUS_MAX_ORDER,
            groups=list(CORPUS_EXTRA),
            jobs=1,
            output_dir=os.path.join(self.work_dir, "reports"),
        )
        timed = corpus.verify_group
        op_ms = self.op_ms

        def verify_group(group):
            # two clock reads per group: the corpus op latency
            self.calibration_s += speed.sample()
            if tracer is not None:
                tracer.op = len(op_ms)
            start = time.perf_counter()
            try:
                return timed(group)
            finally:
                op_ms.append((time.perf_counter() - start) * 1e3)

        corpus.verify_group = verify_group
        try:
            self._raw = corpus.run_corpus(spec)
        except Exception as exc:  # the whole sweep fails together
            self._raw = exc
        finally:
            corpus.verify_group = timed

    # -- checks, after the measured phase ----------------------------------

    def check(self, reference: dict) -> None:
        """Fill in each result's digest and error; unchanged bytes pass."""
        ref = reference.get(self.workload, {})
        if self.workload == "corpus22":
            self._check_corpus(ref)
            return
        fan_rays = {}
        for idx, (op, result) in enumerate(zip(self.ops, self.results)):
            outcome = result.pop("outcome")
            error = None
            data = b""
            if isinstance(outcome, Exception):
                error = f"{type(outcome).__name__}: {outcome}"
            elif self.workload == "verify_large":
                from mckay_lab.serialize import report_json

                data = report_json(outcome).encode()
                if not outcome["pass"]:
                    error = "report without pass"
            else:
                path = os.path.join(self.work_dir, f"op{idx}.out")
                if outcome != 0:
                    error = f"exit code {outcome}"
                elif not os.path.exists(path):
                    error = "no output"
                else:
                    with open(path, "rb") as fh:
                        data = fh.read()
                    try:
                        error = _check_query_output(op, data.decode(), fan_rays)
                    except (ValueError, KeyError, TypeError) as exc:
                        error = f"malformed output: {exc}"
            result["digest"] = digest(data)
            expected = ref.get(result["key"])
            if error is None and expected is not None and expected != result["digest"]:
                error = "output differs from the reference"
            result["error"] = error

    def _check_corpus(self, ref: dict) -> None:
        from mckay_lab.corpus import CorpusSpec, corpus_specs
        from mckay_lab.serialize import report_json

        specs = corpus_specs(CorpusSpec(max_order=CORPUS_MAX_ORDER, groups=list(CORPUS_EXTRA)))
        raw = self._raw
        if isinstance(raw, Exception):
            error = f"{type(raw).__name__}: {raw}"
            self.results = [{"key": s, "digest": "", "error": error} for s in specs]
            return
        passed = {entry["group"]: entry["pass"] for entry in raw["per_group"]}
        reports = os.path.join(self.work_dir, "reports")
        for spec in specs:
            path = os.path.join(reports, _report_name(spec))
            error = None
            data = b""
            if not passed.get(spec, False):
                error = "report without pass"
            elif not os.path.exists(path):
                error = "no report file"
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            result = {"key": spec, "digest": digest(data), "error": error}
            if error is None and ref.get(spec) not in (None, result["digest"]):
                result["error"] = "output differs from the reference"
            self.results.append(result)
        # The aggregate report is checked too; it is not an operation of its own.
        agg = digest(report_json(raw).encode())
        error = None
        if ref.get("aggregate") not in (None, agg) or not raw["pass"]:
            error = "aggregate report differs from the reference"
        self.results.append({"key": "aggregate", "digest": agg, "error": error, "extra": True})

    # -- summaries -----------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(1 for r in self.results if not r.get("extra"))

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(1 for r in self.results if r["error"]))

    def combined_digest(self) -> str:
        text = "".join(f"{r['key']} {r['digest']}\n" for r in self.results)
        return digest(text.encode())


def _report_name(group_spec: str) -> str:
    # the per-group file name that corpus.run_corpus writes
    name = group_spec.replace(":", "_").replace(",", "-").replace("+", "_x_")
    return f"{name}.json"


def _check_query_output(op: tuple, text: str, fan_rays: dict) -> str | None:
    """Structural checks that hold for every group, independent of the reference."""
    from mckay_lab.groups import parse_group_spec

    cmd, spec = op
    order = parse_group_spec(spec).order
    name = cmd[0]
    if name == "fan":
        fan = json.loads(text)
        if fan.get("order") != order or len(fan["cones"]) != order:
            return f"fan has {len(fan['cones'])} cones for order {order}"
        fan_rays[spec] = sum(1 for ray in fan["rays"] if not ray["corner"])
    elif name == "reid":
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "reid output is not an svg document"
    elif name == "quiver":
        arrows = sum(1 for line in text.splitlines() if " -> " in line)
        if arrows != 3 * order:
            return f"quiver has {arrows} arrows for order {order}"
    elif name == "ssgraph":
        graphs = text.count("digraph divisor_")
        if spec in fan_rays and graphs != fan_rays[spec]:
            return f"{graphs} sink-source graphs for {fan_rays[spec]} exceptional rays"
    elif name == "transforms":
        profiles = json.loads(text)["profiles"]
        if len(profiles) != order or any(p["degree"] not in (0, -1, -2) for p in profiles):
            return "transform profiles do not cover the characters once each"
    return None
