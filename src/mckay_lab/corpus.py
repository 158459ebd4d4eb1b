"""Corpus enumeration and the parallel group-by-group verification runner."""

from __future__ import annotations

import os
from collections import Counter
from math import gcd
from typing import NamedTuple

from .errors import InputError, McKayLabError
from .groups import GroupData, parse_group_spec
from .serialize import report_json

# the histograms of each report's summary, added up over the corpus
HISTOGRAMS = ("case_histogram", "shape_histogram", "marking_histogram")


class WorkerLost(RuntimeError):
    """A corpus worker process died, most often killed for its memory, before
    the named group's report came back (CLI exit 4)."""


class CorpusSpec(NamedTuple):
    """Which groups to sweep, and how."""

    max_order: int = 0
    groups: tuple[str, ...] = ()  # explicit 'r:a,b,c' specs, any sequence
    jobs: int = 1
    output_dir: str | None = None


def canonical_cyclic(r: int, weights) -> tuple[int, tuple[int, int, int]]:
    """Normal form of 1/r(a,b,c) under coordinate permutation and choice of
    generator of the same embedded subgroup."""
    best = None
    for k in range(1, r):
        if gcd(k, r) != 1:
            continue
        cand = tuple(sorted((k * w) % r for w in weights))
        if best is None or cand < best:
            best = cand
    return (r, best)


def enumerate_cyclic(max_order: int) -> list[str]:
    """All embedded cyclic subgroups 1/r(a,b,c) of SL3 with 2 <= r <= max_order.

    Weights may vanish (transversal A-type groups such as 1/2(1,1,0) are
    included); triples are gcd-normalized and deduplicated up to coordinate
    permutation and subgroup isomorphism.
    """
    seen = set()
    out = []
    for r in range(2, max_order + 1):
        for a in range(r):
            for b in range(a, r):
                c = (-a - b) % r
                if c < b or (a, b, c) == (0, 0, 0):
                    continue
                if gcd(gcd(a, b), gcd(c, r)) != 1:
                    continue
                key = canonical_cyclic(r, (a, b, c))
                if key not in seen:
                    seen.add(key)
                    out.append(f"{r}:{a},{b},{c}")
    return out


def corpus_specs(spec: CorpusSpec) -> list[str]:
    specs = enumerate_cyclic(spec.max_order)
    for extra in spec.groups:
        parse_group_spec(extra)  # a bad explicit spec fails before any group runs
        if extra not in specs:
            specs.append(extra)
    return specs


def verify_group(group: GroupData) -> dict:
    """verify.verify_group, imported on the first call, so a start that
    sweeps no corpus never compiles the verifier.  _verify_spec calls
    through this name, which the corpus tests and the benchmark patch."""
    from . import verify

    return verify.verify_group(group)


def _verify_spec(group_spec: str) -> dict:
    """One group's report, or its error, a MemoryError too, as {group,
    error_type, message}."""
    try:
        return verify_group(parse_group_spec(group_spec))
    except (McKayLabError, MemoryError) as exc:
        return {"group": group_spec, "error_type": type(exc).__name__, "message": str(exc)}


def run_corpus(spec: CorpusSpec) -> dict:
    """Verify every corpus group and aggregate deterministically.

    Each report is folded into the aggregate as it arrives, in corpus
    order, written to its JSON file when an output directory is configured,
    and dropped, so the sweep holds one report at a time and the aggregate
    is independent of the worker count.  A group whose pipeline raises is
    recorded in the failures and the sweep goes on.  A negative maximum
    order, a worker count below 1 and an output directory that cannot be
    made fail before any group runs.  With more than one worker the groups
    run on a process pool; a worker that dies, killed for its memory say,
    raises WorkerLost naming the first group whose report was lost, and the
    reports folded before it stay written.
    """
    if spec.max_order < 0:
        raise InputError(f"max order must be at least 0, got {spec.max_order}")
    if spec.jobs < 1:
        raise InputError(f"jobs must be at least 1, got {spec.jobs}")
    specs = corpus_specs(spec)
    if spec.output_dir:
        os.makedirs(spec.output_dir, exist_ok=True)
    histograms = {key: Counter() for key in HISTOGRAMS}
    failures = []
    per_group = []

    def fold(group_spec: str, report: dict) -> None:
        if "error_type" in report:
            failures.append(report)
            return
        for key, counts in histograms.items():
            counts.update(report["summary"][key])
        if not report["pass"]:
            failures.append({"group": group_spec, "failures": report["failures"]})
        per_group.append(
            {
                "group": group_spec,
                "order": report["order"],
                "pass": report["pass"],
            }
        )
        if spec.output_dir:
            _write_group_report(spec.output_dir, group_spec, report)

    # each report is passed straight to fold, so no name holds it past its fold
    if spec.jobs > 1 and len(specs) > 1:
        # only here: every CLI start skips the import of multiprocessing; the
        # verifier is loaded before the fork, so no worker compiles it
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        from . import verify  # noqa: F401

        with ProcessPoolExecutor(min(spec.jobs, len(specs))) as pool:
            reports = pool.map(_verify_spec, specs)
            try:
                for group_spec in specs:
                    fold(group_spec, next(reports))
            except BrokenProcessPool:
                raise WorkerLost(
                    f"a corpus worker died before the report of {group_spec} came back"
                ) from None
    else:
        reports = map(_verify_spec, specs)
        for group_spec in specs:
            fold(group_spec, next(reports))

    return {
        "max_order": spec.max_order,
        "groups": len(specs),
        "pass": not failures,
        "failures": failures,
        **{key: dict(sorted(counts.items())) for key, counts in histograms.items()},
        "per_group": per_group,
    }


def _write_group_report(output_dir: str, group_spec: str, report: dict) -> None:
    name = group_spec.replace(":", "_").replace(",", "-").replace("+", "_x_")
    with open(os.path.join(output_dir, f"{name}.json"), "w") as fh:
        fh.write(report_json(report))
