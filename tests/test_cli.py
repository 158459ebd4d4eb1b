import hashlib
import json

import pytest

import mckay_lab.errors as errors
from mckay_lab.cli import main

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


def test_corpus_determinism_across_jobs(capsys):
    code1, out1, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "1")
    code2, out2, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


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
