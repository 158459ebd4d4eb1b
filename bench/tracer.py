"""Spans and counters around the calls into each mckay_lab layer.

The tracer replaces module and class attributes with timing wrappers, in
every mckay_lab namespace that holds the same function object (so
``verify.build_fan`` and ``cli.build_fan`` are wrapped along with
``ghilb.build_fan``), and puts every original back on ``uninstall``.  A target
that does not exist is skipped.

Layer calls record a span: id, parent span id, name, start, end and the
benchmark operation that caused it.  Hot calls (tens of thousands per group)
only add to per-name totals.  A call's self time is its duration minus the
time of the traced calls inside it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# (module, attribute or Class.method, span name).  Several targets may share a
# name: their calls are pooled.
SPANS = (
    ("groups", "parse_group_spec", "groups.parse"),
    ("ghilb", "build_fan", "ghilb.build_fan"),
    ("ghilb", "enumerate_ggraphs", "ghilb.enumerate"),
    ("ghilb", "seed_ggraph", "ghilb.seed"),
    ("ghilb", "_minimal_by_character", "ghilb.minimal"),
    ("ghilb", "cone_of_ggraph", "ghilb.cone"),
    ("ghilb", "GHilbFan._validate", "ghilb.validate"),
    ("ghilb", "DivisorCoefficients.__init__", "ghilb.divisor_table"),
    ("reid", "marked_triangulation", "reid.marked_triangulation"),
    ("quiver", "QuiverAnalysis._compute_mult", "quiver.multiplicities"),
    ("quiver", "QuiverAnalysis._build_graph", "quiver.ssgraph"),
    ("quiver", "torus_positions", "quiver.torus_positions"),
    ("transforms", "transform_profile", "transforms.profile"),
    ("verify", "verify_group", "verify.group"),
    ("verify", "GroupVerification._check_characters", "verify.characters"),
    ("verify", "GroupVerification._check_divisors", "verify.divisors"),
    ("verify", "GroupVerification._check_properties", "verify.properties"),
    ("verify", "GroupVerification.report", "verify.report"),
    ("serialize", "report_json", "serialize.report_json"),
    ("serialize", "fan_json", "serialize.fan_json"),
    ("diagrams", "marked_simplex_svg", "diagrams.svg"),
    ("diagrams", "quiver_dot", "diagrams.dot"),
    ("diagrams", "all_sink_source_dot", "diagrams.dot"),
    ("corpus", "corpus_specs", "corpus.specs"),
    ("corpus", "run_corpus", "corpus.run"),
    ("cli", "main", "cli.main"),
)

# Hot calls: timed and counted, no span each.
TIMED = (
    ("ghilb", "tautological_degree", "ghilb.tautological_degree"),
    ("transforms", "support_h0", "transforms.support"),
    ("transforms", "support_h1", "transforms.support"),
    ("transforms", "support_h2", "transforms.support"),
)

# Counted only; their time stays in the caller's self time.
COUNTED = (
    ("ghilb", "ggraph_inequalities", "ghilb.inequalities"),
    ("serialize", "dumps_canonical", "serialize.dumps"),
)

PROP_PREFIX = "_prop_"

CLI_COMMANDS = ("fan", "reid", "quiver", "ssgraph", "transforms")


def percentile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10), interpolated within the sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def prop_names(cls) -> list[str]:
    """The property checks of GroupVerification, found by name."""
    return sorted(n[len(PROP_PREFIX):] for n in vars(cls) if n.startswith(PROP_PREFIX))


def _resolve(module: str, target: str):
    """(owner, attribute name, function) or None when the target is absent."""
    try:
        mod = importlib.import_module(f"mckay_lab.{module}")
    except ImportError:
        return None
    if "." in target:
        cls_name, attr = target.split(".")
        cls = getattr(mod, cls_name, None)
        if cls is None or attr not in vars(cls):
            return None
        return cls, attr, vars(cls)[attr]
    fn = getattr(mod, target, None)
    return None if fn is None else (mod, target, fn)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op, label)
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.characters: set = set()  # (op, group, character) seen by support_h*
        self.op = None
        self._stack: list[list] = []  # [span id to parent under, child time]
        self._next_id = 0
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        import mckay_lab.verify

        targets = [(m, t, n, "span") for m, t, n in SPANS]
        targets += [(m, t, n, "timed") for m, t, n in TIMED]
        targets += [(m, t, n, "counted") for m, t, n in COUNTED]
        targets += [
            ("verify", f"GroupVerification.{PROP_PREFIX}{p}", f"verify.prop.{p}", "span")
            for p in prop_names(mckay_lab.verify.GroupVerification)
        ]
        for module, target, name, kind in targets:
            found = _resolve(module, target)
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, name, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mckay_lab" or mod_name.startswith("mckay_lab."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        after = _AFTER.get(name)

        if kind == "counted":

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                totals[0] += 1
                if after is not None:
                    after(self, args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if kind == "span":
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[0] if parent else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if kind == "span":
                    label = args[0][0] if name == "cli.main" and args and args[0] else None
                    self.spans.append(
                        (sid, parent[0] if parent else None, name, start, end, self.op, label)
                    )
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Leave time spent on the benchmark's own work out of the open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- results -----------------------------------------------------------

    def durations(self, name: str, parent: str | None = None, label=None) -> list[float]:
        names = {s[0]: s[2] for s in self.spans} if parent else {}
        return [
            s[4] - s[3]
            for s in self.spans
            if s[2] == name
            and (parent is None or names.get(s[1]) == parent)
            and (label is None or s[6] == label)
        ]

    def write(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op, label in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "op": op,
                }
                if label is not None:
                    record["label"] = label
                fh.write(json.dumps(record) + "\n")
            for name, (calls, total, own) in sorted(self.totals.items()):
                fh.write(
                    json.dumps({"total": name, "calls": calls, "total_s": total, "self_s": own})
                    + "\n"
                )

    def layer_metrics(self, prop_list) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json declares."""
        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0]

        def own(name):
            return self.totals.get(name, [0, 0.0, 0.0])[2]

        def count(name):
            return self.counts.get(name, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        def p(values, q):
            return percentile(values, q) * 1e3 if values else 0.0

        out = {
            "groups.parse_s": own("groups.parse"),
            "groups.parse_calls": calls("groups.parse"),
            "ghilb.seed_s": own("ghilb.seed"),
            "ghilb.minimal_s": own("ghilb.minimal"),
            "ghilb.enumerate_s": own("ghilb.enumerate"),
            "ghilb.cone_s": own("ghilb.cone"),
            "ghilb.cone_calls": calls("ghilb.cone"),
            "ghilb.cone_calls_per_cluster": ratio(calls("ghilb.cone"), count("ghilb.clusters")),
            "ghilb.inequalities": count("ghilb.inequalities"),
            "ghilb.inequalities_calls": calls("ghilb.inequalities"),
            "ghilb.build_fan_self_s": own("ghilb.build_fan"),
            "ghilb.build_fan_calls": calls("ghilb.build_fan"),
            "ghilb.validate_s": own("ghilb.validate"),
            "ghilb.divisor_table_s": own("ghilb.divisor_table"),
            "ghilb.clusters": count("ghilb.clusters"),
            "ghilb.rays": count("ghilb.rays"),
            "ghilb.edges": count("ghilb.edges"),
            "ghilb.tautological_degree_calls": calls("ghilb.tautological_degree"),
            "ghilb.tautological_degree_s": own("ghilb.tautological_degree"),
            "reid.marked_triangulation_s": own("reid.marked_triangulation"),
            "reid.edges": count("reid.edges"),
            "reid.case1": count("reid.case1"),
            "reid.case2": count("reid.case2"),
            "reid.case3": count("reid.case3"),
            "quiver.multiplicities_s": own("quiver.multiplicities"),
            "quiver.ssgraph_s": own("quiver.ssgraph"),
            "quiver.ssgraph_calls": calls("quiver.ssgraph"),
            "quiver.torus_positions_s": own("quiver.torus_positions"),
            "transforms.profile_s": own("transforms.profile"),
            "transforms.profile_calls": calls("transforms.profile"),
            "transforms.support_s": own("transforms.support"),
            "transforms.support_calls": calls("transforms.support"),
            "transforms.support_calls_per_character": ratio(
                calls("transforms.support"), len(self.characters)
            ),
            "verify.groups": calls("verify.group"),
            "verify.group_self_s": own("verify.group"),
            "verify.characters_s": own("verify.characters"),
            "verify.divisors_s": own("verify.divisors"),
            "verify.properties_s": own("verify.properties"),
            "verify.report_s": own("verify.report"),
        }
        for prop in prop_list:
            out[f"verify.prop.{prop}_s"] = own(f"verify.prop.{prop}")
        corpus_groups = self.durations("verify.group", parent="corpus.run")
        out.update(
            {
                "serialize.report_json_s": own("serialize.report_json"),
                "serialize.fan_json_s": own("serialize.fan_json"),
                "serialize.bytes": count("serialize.bytes"),
                "diagrams.svg_s": own("diagrams.svg"),
                "diagrams.dot_s": own("diagrams.dot"),
                "corpus.specs_s": own("corpus.specs"),
                "corpus.group_p50_ms": p(corpus_groups, 50),
                "corpus.group_p90_ms": p(corpus_groups, 90),
                "corpus.aggregate_self_s": own("corpus.run"),
                "cli.self_s": own("cli.main"),
            }
        )
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_p50_ms"] = p(self.durations("cli.main", label=cmd), 50)
        return out


# Counters read from a traced call's arguments and result.


def _after_enumerate(tracer, args, result):
    tracer._count("ghilb.clusters", len(result))


def _after_build_fan(tracer, args, fan):
    tracer._count("ghilb.rays", len(fan.rays))
    tracer._count("ghilb.edges", len(fan.edges))


def _after_inequalities(tracer, args, normals):
    tracer._count("ghilb.inequalities", len(normals))


def _after_marked(tracer, args, marked):
    tracer._count("reid.edges", len(marked.edge_ratios))
    for case in marked.vertex_cases.values():
        if case.tag in ("case1", "case2", "case3"):
            tracer._count(f"reid.{case.tag}")


def _after_support(tracer, args, result):
    fan, _, chi = args[:3]
    tracer.characters.add((tracer.op, fan.group.spec_string(), chi))


def _after_dumps(tracer, args, text):
    tracer._count("serialize.bytes", len(text))


_AFTER = {
    "ghilb.enumerate": _after_enumerate,
    "ghilb.build_fan": _after_build_fan,
    "ghilb.inequalities": _after_inequalities,
    "reid.marked_triangulation": _after_marked,
    "transforms.support": _after_support,
    "serialize.dumps": _after_dumps,
}
