import hashlib
import json
import os
import subprocess
import sys
import weakref

import pytest

import mckay_lab.errors as errors
from mckay_lab import GroupVerification
from mckay_lab.cli import main
from mckay_lab.corpus import enumerate_cyclic

from golden import check as golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--group", "3:1,1,1")
    assert code == 0
    assert "PASS 3:1,1,1" in err
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["per_character"]) == 3


def test_verify_rejects_non_sl3(capsys):
    code, _, err = run(capsys, "verify", "--group", "5:1,1,2")
    assert code == 2
    assert "sum to 0 mod 5" in err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--group", "7:1,2"], "cannot parse group factor '7:1,2'"),
        (["--group", "7:1,2,4,5"], "cannot parse group factor '7:1,2,4,5'"),
        (["--group=0:1,1,-2"], "generator order 0 must be >= 1"),
    ],
)
def test_a_malformed_group_exits_2_with_one_error_line(capsys, option, message):
    assert run(capsys, "fan", *option) == (2, "", f"error: {message}\n")


def test_an_empty_factor_names_no_generator(capsys):
    """A trailing '+' adds nothing: 7:1,2,4+ is the group 7:1,2,4."""
    assert run(capsys, "fan", "--group", "7:1,2,4+") == run(capsys, "fan", "--group", "7:1,2,4")


def test_fan_output(capsys, tmp_path):
    out_file = tmp_path / "fan.json"
    code, _, _ = run(capsys, "fan", "--group", "13:1,5,7", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["cones"]) == 13


def test_reid_formats(capsys):
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edges"]) == 4
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2", "--format", "tikz")
    assert code == 0 and "tikzpicture" in out


def test_quiver_and_ssgraph(capsys):
    code, out, _ = run(capsys, "quiver", "--group", "13:1,5,7")
    assert code == 0 and out.count("->") == 39
    code, out, _ = run(capsys, "quiver", "--group", "13:1,5,7", "--format", "json")
    assert json.loads(out)["triangles"] == 26
    code, out, _ = run(capsys, "ssgraph", "--group", "4:1,1,2")
    assert code == 0 and out.count("digraph") == 2


JSON_TYPES = {str, int, bool, type(None), list, dict, tuple}


def _value_types(value) -> set:
    """The exact types of a payload, its keys and everything inside it."""
    types = {type(value)}
    if isinstance(value, dict):
        types |= {type(key) for key in value}
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        types = types.union(*map(_value_types, value))
    return types


@pytest.mark.parametrize("spec", ["13:1,5,7", "12:1,1,10", "3:1,2,0+3:0,1,2"])
def test_no_value_object_leaks_into_a_json_payload(spec, monkeypatch, capsys):
    """The writers emit a NamedTuple as a list without a word, so every value
    in the payloads of the JSON commands has a plain JSON type as its exact
    type: a value object never stands in for its fields.  Ray pairs stay
    plain tuples."""
    import mckay_lab.cli as cli

    payloads = []
    for name in ("dumps_canonical", "report_json"):
        write = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p, write=write: payloads.append(p) or write(p))
    for command in (["reid", "--format", "json"], ["transforms"], ["quiver", "--format", "json"], ["verify"]):
        assert main([command[0], "--group", spec, *command[1:]]) == 0
    capsys.readouterr()
    assert len(payloads) == 4
    assert set().union(*map(_value_types, payloads)) <= JSON_TYPES


def test_transforms_char_restriction(capsys):
    code, out, _ = run(capsys, "transforms", "--group", "4:1,1,2", "--char", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["profiles"]) == 1
    assert payload["profiles"][0]["degree"] == 0
    code, _, err = run(capsys, "transforms", "--group", "4:1,1,2", "--char", "9")
    assert code == 2
    assert err == "error: character index 9 out of range\n"


def test_every_error_is_in_one_family():
    """Each error class is an input error (exit 2) or an internal guard (exit 3)."""
    bases = {errors.McKayLabError, errors.InputError, errors.InternalGuardError}
    classes = {
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.McKayLabError)
    }
    assert len(classes - bases) >= 20
    for cls in classes - bases:
        assert issubclass(cls, errors.InputError) != issubclass(cls, errors.InternalGuardError), cls


@pytest.mark.parametrize(
    "command,target", [("verify", "mckay_lab.verify.build_fan"), ("fan", "mckay_lab.cli.build_fan")]
)
def test_a_failed_internal_guard_exits_3(capsys, monkeypatch, command, target):
    def broken(group):
        raise errors.FanValidationFailed("seeded fault")

    monkeypatch.setattr(target, broken)
    code, out, err = run(capsys, command, "--group", "3:1,1,1")
    assert code == 3 and out == ""
    assert err.startswith("error:") and "FanValidationFailed" in err and "seeded fault" in err


def test_corpus_command(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "corpus",
        "--max-order", "4",
        "--group", "2:1,1,0+2:0,1,1",
        "--jobs", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["pass"] is True
    # 2:1,1,0, 3:1,1,1, 4:1,1,2, 4:1,1,... -> plus the explicit product
    assert aggregate["groups"] == len(list(tmp_path.glob("*.json")))
    specs = {g["group"] for g in aggregate["per_group"]}
    # 1/2(1,1,0) appears through its sorted-weight representative
    assert {"2:0,1,1", "3:1,1,1", "4:1,1,2", "2:1,1,0+2:0,1,1"} <= specs


def test_a_failed_property_fails_the_report_the_corpus_and_the_cli(capsys, monkeypatch):
    """One property seeded False on 13:1,5,7 is the report's one failure
    line, the group's entry in the corpus failures, and exit 1 with FAIL."""
    monkeypatch.setattr(GroupVerification, "_prop_triangle_defects", lambda self: False)
    failures = ["property regular_triangle_defects"]
    code, out, err = run(capsys, "verify", "--group", "13:1,5,7")
    report = json.loads(out)
    assert code == 1 and err.endswith("\nFAIL 13:1,5,7\n")
    assert report["pass"] is report["summary"]["pass"] is False
    assert report["properties"]["regular_triangle_defects"] is False
    assert report["failures"] == failures
    code, out, _ = run(capsys, "corpus", "--max-order", "0", "--group", "13:1,5,7")
    aggregate = json.loads(out)
    assert code == 1 and aggregate["pass"] is False
    assert aggregate["failures"] == [{"group": "13:1,5,7", "failures": failures}]
    assert aggregate["per_group"] == [{"group": "13:1,5,7", "order": 13, "pass": False}]


def test_the_shared_parser_keeps_no_group_between_calls(capsys):
    """main parses with one parser built at import; a --group given to one
    corpus run must not stay in the default list of the next."""
    code1, out1, _ = run(capsys, "corpus", "--max-order", "4", "--group", "7:1,2,4")
    code2, out2, _ = run(capsys, "corpus", "--max-order", "4")
    assert code1 == code2 == 0
    fresh = len(enumerate_cyclic(4))
    assert json.loads(out1)["groups"] == fresh + 1
    assert json.loads(out2)["groups"] == fresh


def test_corpus_determinism_across_jobs(capsys):
    code1, out1, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "1")
    code2, out2, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_the_corpus_pool_is_no_larger_than_the_corpus(capsys, monkeypatch):
    """--jobs beyond the number of groups asks for one worker per group; a
    fake executor records the size asked for and maps in process."""
    sizes = []

    class FakeExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, items):
            return map(function, items)

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", FakeExecutor)
    code1, out1, _ = run(capsys, "corpus", "--max-order", "3", "--jobs", "4000")
    code2, out2, _ = run(capsys, "corpus", "--max-order", "3", "--jobs", "1")
    assert sizes == [len(enumerate_cyclic(3))]
    assert code1 == code2 == 0
    assert out1 == out2


def test_the_corpus_holds_one_report_at_a_time(capsys, monkeypatch, tmp_path):
    """Each report is folded, written and dropped before the next group
    starts: when a group starts, no earlier report is alive."""
    import mckay_lab.corpus

    class Report(dict):
        pass

    verify_group = mckay_lab.corpus.verify_group
    refs, alive = [], []

    def weakly_held(group):
        alive.append(sum(ref() is not None for ref in refs))
        report = Report(verify_group(group))
        refs.append(weakref.ref(report))
        return report

    monkeypatch.setattr(mckay_lab.corpus, "verify_group", weakly_held)
    code, _, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "1", "--out", str(tmp_path))
    assert code == 0
    assert alive == [0] * len(enumerate_cyclic(6))
    assert len(list(tmp_path.iterdir())) == len(alive)


def test_a_killed_corpus_worker_exits_4(capsys, monkeypatch, tmp_path):
    """A worker that dies under --jobs 2 ends the sweep at once with exit 4,
    one stderr line naming the first group whose report was lost, and the
    reports before it written.  The worker is forked, so it runs the patch."""
    import mckay_lab.corpus

    verify_group = mckay_lab.corpus.verify_group

    def killed(group):
        if group.spec_string() == "4:1,1,2":
            os._exit(137)
        return verify_group(group)

    monkeypatch.setattr(mckay_lab.corpus, "verify_group", killed)
    specs = enumerate_cyclic(6)
    code, out, err = run(capsys, "corpus", "--max-order", "6", "--jobs", "2", "--out", str(tmp_path))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    lost = [s for s in specs if f" {s} " in err]
    assert len(lost) == 1 and specs.index(lost[0]) <= specs.index("4:1,1,2")
    written = sorted(p.name for p in tmp_path.iterdir())
    kept = specs[: specs.index(lost[0])]
    assert written == sorted(s.replace(":", "_").replace(",", "-") + ".json" for s in kept)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_rejects_jobs_below_one_before_any_group_runs(capsys, monkeypatch, jobs):
    calls = []
    monkeypatch.setattr("mckay_lab.corpus.verify_group", calls.append)
    code, out, err = run(capsys, "corpus", "--max-order", "6", "--jobs", jobs)
    assert code == 2 and out == ""
    assert f"jobs must be at least 1, got {jobs}" in err
    assert calls == []


def test_corpus_rejects_a_negative_max_order_before_any_group_runs(capsys, monkeypatch):
    """A negative maximum order is an input error, not an empty corpus that
    passes."""
    calls = []
    monkeypatch.setattr("mckay_lab.corpus.verify_group", calls.append)
    code, out, err = run(capsys, "corpus", "--max-order", "-3", "--group", "3:1,1,1")
    assert code == 2 and out == ""
    assert "max order must be at least 0, got -3" in err
    assert calls == []


def test_importing_the_cli_leaves_multiprocessing_out():
    """corpus imports multiprocessing only where it starts a pool, so no CLI
    start pays for it; checked in a fresh interpreter."""
    path = [str(golden.ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = (
        "import sys, mckay_lab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_empty_corpus_passes_trivially(capsys):
    code, out, _ = run(capsys, "corpus", "--max-order", "1")
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["groups"] == 0 and aggregate["pass"] is True


def test_verify_report_summary(capsys):
    code, out, _ = run(capsys, "verify", "--group", "4:1,1,2")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["pass"] is True
    assert report["summary"]["marking_histogram"] == {
        "curves": 2,
        "divisor": 1,
        "nothing": 1,
    }
    assert report["summary"]["shape_histogram"] == {"B": 1}


def test_corpus_rejects_a_bad_group_before_any_group_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("mckay_lab.corpus.verify_group", calls.append)
    code, out, err = run(capsys, "corpus", "--max-order", "6", "--group", "5:1,1,2")
    assert code == 2 and out == ""
    assert "sum to 0 mod 5" in err
    assert calls == []


def test_corpus_rejects_an_unusable_out_before_any_group_runs(capsys, monkeypatch, tmp_path):
    """An output directory under a regular file cannot be made: the corpus
    exits 2 before it verifies a group."""
    import mckay_lab.corpus

    calls = []
    verify_group = mckay_lab.corpus.verify_group

    def counted(group):
        calls.append(group.spec_string())
        return verify_group(group)

    monkeypatch.setattr(mckay_lab.corpus, "verify_group", counted)
    blocker = tmp_path / "report.json"
    blocker.write_text("")
    code, out, err = run(capsys, "corpus", "--max-order", "6", "--out", str(blocker / "sub"))
    assert code == 2 and out == ""
    assert "error:" in err
    assert calls == []


def test_corpus_records_a_raising_group_and_goes_on(capsys, monkeypatch):
    import mckay_lab.corpus
    from mckay_lab.errors import FanValidationFailed

    verify_group = mckay_lab.corpus.verify_group

    def flaky(group):
        if group.spec_string() == "3:1,1,1":
            raise FanValidationFailed("seeded fault")
        return verify_group(group)

    monkeypatch.setattr(mckay_lab.corpus, "verify_group", flaky)
    code, out, _ = run(capsys, "corpus", "--max-order", "4", "--jobs", "1")
    assert code == 1
    aggregate = json.loads(out)
    assert aggregate["pass"] is False
    assert aggregate["failures"] == [
        {"group": "3:1,1,1", "error_type": "FanValidationFailed", "message": "seeded fault"}
    ]
    assert [g["group"] for g in aggregate["per_group"]] == [
        "2:0,1,1", "3:0,1,2", "4:0,1,3", "4:1,1,2"
    ]
    assert all(g["pass"] for g in aggregate["per_group"])


def out_of_memory(self, weight):
    raise MemoryError


@pytest.mark.parametrize("command", ["fan", "verify"])
def test_running_out_of_memory_exits_4(capsys, monkeypatch, command):
    """A MemoryError, seeded where the divisor table is built, is neither a
    pass nor a failed verification: one stderr line and exit 4."""
    monkeypatch.setattr("mckay_lab.groups.GroupData.least_valuations", out_of_memory)
    code, out, err = run(capsys, command, "--group", "13:1,5,7")
    assert (code, out) == (4, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_corpus_records_a_group_out_of_memory_and_goes_on(capsys, monkeypatch):
    import mckay_lab.groups

    least_valuations = mckay_lab.groups.GroupData.least_valuations

    def flaky(self, weight):
        if self.spec_string() == "3:1,1,1":
            raise MemoryError
        return least_valuations(self, weight)

    monkeypatch.setattr(mckay_lab.groups.GroupData, "least_valuations", flaky)
    code, out, _ = run(capsys, "corpus", "--max-order", "4", "--jobs", "1")
    assert code == 1
    aggregate = json.loads(out)
    assert aggregate["failures"] == [{"group": "3:1,1,1", "error_type": "MemoryError", "message": ""}]
    assert [g["group"] for g in aggregate["per_group"]] == [
        "2:0,1,1", "3:0,1,2", "4:0,1,3", "4:1,1,2"
    ]


# groups whose query outputs each run as a case of its own; the digest each
# case expects is the manifest's, which is the one byte pin
QUERY_GROUPS = (
    "4:1,1,2",
    "13:1,5,7",
    "6:1,2,3",
    "3:1,2,0+3:0,1,2",
    "4:1,3,0+4:0,1,3",
    # non-isolated: zero-weight arrows in the Dijkstra rows of its boundary rays
    "12:1,1,10",
    # Z/2 x Z/4, a product of two different orders
    "2:1,1,0+4:0,1,3",
    # unreduced generators: the lcm N of the generator orders differs from |G|
    # (N = 4, |G| = 2 and N = 6, |G| = 3)
    "4:0,2,2",
    "6:2,2,2",
)


@pytest.mark.parametrize(
    "spec,command",
    [(spec, command) for spec in sorted(QUERY_GROUPS) for command in golden.COMMANDS if command != "verify"],
)
def test_query_bytes_are_pinned(capsys, spec, command):
    name, *options = golden.COMMANDS[command]
    code, out, _ = run(capsys, name, "--group", spec, *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden.load()["digests"][spec][command]["stdout"]


def test_ssgraph_builds_no_fan(capsys, monkeypatch):
    """The sink-source graphs are read off the group alone: with the fan
    build and the cluster enumeration made to raise, `ssgraph` still writes
    the manifest's bytes."""
    import mckay_lab.cli
    import mckay_lab.ghilb

    def refuse(*args, **kwargs):
        raise AssertionError("ssgraph built a fan")

    monkeypatch.setattr(mckay_lab.cli, "build_fan", refuse)
    monkeypatch.setattr(mckay_lab.ghilb, "enumerate_ggraphs", refuse)
    code, out, _ = run(capsys, "ssgraph", "--group", "13:1,5,7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden.load()["digests"]["13:1,5,7"]["ssgraph"]["stdout"]
