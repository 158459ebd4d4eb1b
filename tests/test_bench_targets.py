"""The benchmark finds every library name it reads.

`bench/tracer.py` skips a target it cannot resolve, so a renamed function
or property check would silently read 0 in its per-layer metric.  The names
the benchmark reads besides its targets fail only `pytest bench`, so they
are held here too."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"

# retired with the minimal-monomial table; its metric ghilb.minimal_s reads 0.
# ggraph_inequalities, the border-normal cut, moved to tests/oracles.py: no
# runtime path called it, and ghilb.inequalities and ghilb.inequalities_calls
# already read 0 on every workload before it moved.
RETIRED = {("ghilb", "_minimal_by_character"), ("ghilb", "ggraph_inequalities")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    targets = [(m, t) for m, t, _ in tracer.SPANS + tracer.TIMED + tracer.COUNTED]
    missing = {(m, t) for m, t in targets if tracer._resolve(m, t) is None}
    assert missing == RETIRED & set(targets)


def test_every_property_metric_names_a_check():
    """Each verify.prop.<name>_s metric of BENCHMARK.json times a
    GroupVerification._prop_<name> method."""
    import mckay_lab.verify

    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    wanted = {
        m["name"][len("verify.prop."):-len("_s")]
        for m in declared
        if m["name"].startswith("verify.prop.")
    }
    assert wanted
    assert wanted <= set(_load_tracer().prop_names(mckay_lab.verify.GroupVerification))


def test_every_name_the_bench_reads_besides_its_targets_exists():
    """`bench/test_bench.py` snapshots two ghilb classes and deletes two
    names to test skipping, and the tracer's counters read sizes off a
    built fan and a marked triangulation."""
    import mckay_lab.ghilb as ghilb
    import mckay_lab.verify as verify
    from mckay_lab import build_fan, marked_triangulation, parse_group_spec

    assert all(isinstance(cls, type) for cls in (ghilb.DivisorCoefficients, ghilb.GHilbFan))
    assert callable(verify.GroupVerification._prop_counts) and callable(ghilb.seed_ggraph)
    group = parse_group_spec("7:1,2,4")
    fan = build_fan(group)
    marked = marked_triangulation(fan)
    assert len(fan.rays) == len(group.junior_points)
    assert len(fan.ggraphs) == group.order
    assert len(fan.edges) and len(marked.edge_ratios)
    assert {case.tag for case in marked.vertex_cases.values()} <= {
        "boundary", "case1", "case2", "case3"
    }


def test_the_build_keeps_the_call_counts_the_bench_pins(monkeypatch):
    """`bench/test_bench.py` pins, on 7:1,2,4, one enumerate_ggraphs call
    returning the |G| clusters and two cone_of_ggraph calls per cluster;
    the junior points are scanned once, for the seed's cone (a scan is the
    one pass over all the heights)."""
    import mckay_lab.ghilb as ghilb
    from mckay_lab import build_fan, parse_group_spec

    class Scanned(tuple):
        scans = 0

        def __iter__(self):
            Scanned.scans += 1
            return tuple.__iter__(self)

    calls = {"enumerate_ggraphs": [], "cone_of_ggraph": []}

    def counting(name):
        original = getattr(ghilb, name)

        def counted(*args):
            result = original(*args)
            calls[name].append(result)
            return result

        monkeypatch.setattr(ghilb, name, counted)

    counting("enumerate_ggraphs")
    counting("cone_of_ggraph")
    group = parse_group_spec("7:1,2,4")
    monkeypatch.setitem(group.__dict__, "heights", Scanned(group.heights))
    build_fan(group)
    assert [len(clusters) for clusters in calls["enumerate_ggraphs"]] == [7]
    assert len(calls["cone_of_ggraph"]) == 14
    assert Scanned.scans == 1
