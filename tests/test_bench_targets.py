"""The benchmark's per-layer tracer finds every library name it wraps.

`bench/tracer.py` skips a target it cannot resolve, so a renamed function
or property check would silently read 0 in its per-layer metric."""

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
