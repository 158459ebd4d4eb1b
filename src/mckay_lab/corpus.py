"""Corpus enumeration and the parallel group-by-group verification runner."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from multiprocessing import Pool

from .errors import McKayLabError
from .groups import parse_group_spec
from .serialize import report_json
from .verify import verify_group

# the histograms of each report's summary, added up over the corpus
HISTOGRAMS = ("case_histogram", "shape_histogram", "marking_histogram")


@dataclass
class CorpusSpec:
    """Which groups to sweep, and how."""

    max_order: int = 0
    groups: list[str] = field(default_factory=list)  # explicit 'r:a,b,c' specs
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


def _verify_spec(group_spec: str) -> dict:
    """One group's report, or its error as {group, error_type, message}."""
    try:
        return verify_group(parse_group_spec(group_spec))
    except McKayLabError as exc:
        return {"group": group_spec, "error_type": type(exc).__name__, "message": str(exc)}


def run_corpus(spec: CorpusSpec) -> dict:
    """Verify every corpus group and aggregate deterministically.

    Reports are merged in corpus order, so the aggregate is independent of
    the worker count; per-group JSON files are written when an output
    directory is configured.  A group whose pipeline raises is recorded in
    the failures and the sweep goes on.  An output directory that cannot be
    made fails before any group runs.
    """
    specs = corpus_specs(spec)
    if spec.output_dir:
        os.makedirs(spec.output_dir, exist_ok=True)
    if spec.jobs > 1 and len(specs) > 1:
        with Pool(min(spec.jobs, len(specs))) as pool:
            reports = pool.map(_verify_spec, specs)
    else:
        reports = [_verify_spec(s) for s in specs]

    histograms = {key: Counter() for key in HISTOGRAMS}
    failures = []
    per_group = []
    for group_spec, report in zip(specs, reports):
        if "error_type" in report:
            failures.append(report)
            continue
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
