"""Smoke tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import mckay_lab
import mckay_lab.cli
import mckay_lab.ghilb
import mckay_lab.verify
from mckay_lab import build_fan, marked_triangulation, parse_group_spec

import run
import tracer as tracing
import workloads
from speed import REFERENCE_S, SpeedLog

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _snapshot() -> dict:
    state = {}
    for name, mod in sys.modules.items():
        if name == "mckay_lab" or name.startswith("mckay_lab."):
            state[name] = dict(vars(mod))
    for cls in (
        mckay_lab.verify.GroupVerification,
        mckay_lab.ghilb.GHilbFan,
        mckay_lab.ghilb.DivisorCoefficients,
    ):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_seeded_inputs_are_deterministic_and_in_the_pool():
    for workload in ("verify_large", "query"):
        pool = {workloads.op_key(op) for op in workloads.pool(workload)}
        seen = set()
        for seed in range(8):
            groups = workloads.inputs(workload, seed)
            assert groups == workloads.inputs(workload, seed)
            ops = workloads.operations(workload, groups)
            assert {workloads.op_key(op) for op in ops} <= pool
            seen.add(tuple(groups))
        assert len(seen) > 1, f"{workload} inputs do not depend on the seed"
    assert len(workloads.operations("query", workloads.inputs("query", 3))) == 100


def test_verify_large_orders_are_distinct():
    for seed in range(8):
        orders = [parse_group_spec(s).order for s in workloads.inputs("verify_large", seed)]
        assert len(set(orders)) == len(orders) == 3


def test_presentations_name_the_same_group():
    for base in workloads.QUERY_BASE[:3]:
        order = parse_group_spec(base).order
        for spec in workloads.presentations(base):
            assert parse_group_spec(spec).order == order


def test_tracer_wraps_every_namespace_and_restores_them():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mckay_lab.ghilb.build_fan is not before["mckay_lab.ghilb"]["build_fan"]
        assert mckay_lab.verify.build_fan is mckay_lab.ghilb.build_fan
        assert mckay_lab.cli.build_fan is mckay_lab.ghilb.build_fan
        assert mckay_lab.build_fan is mckay_lab.ghilb.build_fan
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_tracer_skips_absent_targets(monkeypatch):
    monkeypatch.delattr(mckay_lab.verify.GroupVerification, "_prop_counts")
    monkeypatch.delattr(mckay_lab.ghilb, "seed_ggraph")
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("nosuchmodule", "f", "x.f"),))
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert _snapshot() == before
    metrics = tracer.layer_metrics(tracing.prop_names(mckay_lab.verify.GroupVerification))
    assert "verify.prop.counts_s" not in metrics


def test_traced_counts_match_a_direct_library_call():
    spec = "7:1,2,4"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = mckay_lab.verify.verify_group(parse_group_spec(spec))
    finally:
        tracer.uninstall()
    assert report["pass"]
    m = tracer.layer_metrics(tracing.prop_names(mckay_lab.verify.GroupVerification))
    group = parse_group_spec(spec)
    fan = build_fan(group)
    marked = marked_triangulation(fan)
    assert m["ghilb.build_fan_calls"] == 1
    assert m["ghilb.clusters"] == len(fan.ggraphs) == group.order
    assert m["ghilb.cone_calls"] == 2 * m["ghilb.clusters"]
    assert m["ghilb.cone_calls_per_cluster"] == 2.0
    assert m["ghilb.rays"] == len(fan.rays)
    assert m["ghilb.edges"] == len(fan.edges)
    assert m["reid.edges"] == len(marked.edge_ratios)
    cases = [c.tag for c in marked.vertex_cases.values()]
    assert [m["reid.case1"], m["reid.case2"], m["reid.case3"]] == [
        cases.count(t) for t in ("case1", "case2", "case3")
    ]
    assert m["verify.groups"] == 1
    assert m["transforms.profile_calls"] > 0
    assert all(v >= -1e-9 for k, v in m.items() if k.endswith("_s"))


def test_round_checks_outputs_against_the_reference(tmp_path):
    key = "fan 5:1,1,3"
    round_ = workloads.Round("query", 0, str(tmp_path))
    round_.ops = [(("fan",), "5:1,1,3")]
    round_.run(SpeedLog())
    round_.check({})
    assert round_.failed == 0 and round_.attempted == 1
    good = round_.results[0]["digest"]

    round_ = workloads.Round("query", 0, str(tmp_path))
    round_.ops = [(("fan",), "5:1,1,3")]
    round_.run(SpeedLog())
    round_.check({"query": {key: "0" * 20}})
    assert round_.failed == 1
    assert round_.results[0]["digest"] == good


def test_benchmark_json_declares_what_the_run_prints():
    declared = _declared()
    fake = {
        "setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 20.0, "factor": 2.0,
        "op_ms": [1.0, 2.0, 3.0], "layers": {}, "spans": 0,
    }
    e2e = run.end_to_end_metrics(declared, [fake], [(0.1, 1.0), (0.2, 1.0)])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert e2e["wall_s"]["value"] == 2.0
    tracer = tracing.Tracer()
    layers = tracer.layer_metrics(tracing.prop_names(mckay_lab.verify.GroupVerification))
    traced = run.traced_metrics(declared, [fake], [dict(fake, layers=layers, wall_s=1.5)])
    assert traced["trace.overhead_s"]["value"] == 1.0
    names = [m["name"] for m in declared["per_layer"]]
    assert list(traced) == names
    assert set(layers) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                          "trace.spans"} == set(names)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()


@pytest.mark.parametrize("values", [[5.0], [1.0, 2.0, 3.0, 4.0]])
def test_quantiles_cover_short_samples(values):
    p50, p90 = tracing.percentile(values, 50), tracing.percentile(values, 90)
    assert min(values) <= p50 <= p90 <= max(values)



def test_speed_log_scales_to_reference_seconds():
    log = SpeedLog()
    spent = log.sample(4)
    assert len(log.samples) == 4 and spent == pytest.approx(sum(log.samples))
    log.samples = [REFERENCE_S / 2] * 3
    assert log.factor() == 2.0


def test_speed_slices_stay_out_of_traced_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = mckay_lab.ghilb.build_fan

        def build_and_sample(group):
            fan = wrapped(group)
            SpeedLog(tracer).sample(3)
            return fan

        outer = tracer._wrap(build_and_sample, "outer", "span")
        outer(parse_group_spec("5:1,1,3"))
    finally:
        tracer.uninstall()
    calls, total, own = tracer.totals["outer"]
    assert calls == 1 and own < total
    child = tracer.totals["ghilb.build_fan"][1]
    assert own < total - child
