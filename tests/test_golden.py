"""The committed byte manifest of the CLI outputs (tests/golden)."""

from mckay_lab.corpus import enumerate_cyclic

from golden import check as golden

from test_cli import QUERY_SHA256
from test_verify import REPORT_SHA256


def test_every_output_matches_the_manifest():
    manifest = golden.load()
    assert golden.check(manifest) == []


def test_pinned_digests_are_the_manifests():
    """The digests that test_cli and test_verify pin are manifest entries."""
    digests = golden.load()["digests"]
    for spec, pins in QUERY_SHA256.items():
        for command, sha in pins.items():
            assert digests[spec][command]["stdout"] == sha, (spec, command)
    for spec, sha in REPORT_SHA256.items():
        assert digests[spec]["verify"]["stdout"] == sha, spec


def test_manifest_lists_its_groups_once_with_every_output():
    """The group list only grows, holds every cyclic group of order <= 30,
    and the file is written as `--record` writes it."""
    manifest = golden.load()
    groups = manifest["groups"]
    assert len(groups) == len(set(groups)) >= 180
    assert set(enumerate_cyclic(30)) <= set(groups)
    assert list(manifest["digests"]) == groups
    assert all(list(entry) == list(golden.COMMANDS) for entry in manifest["digests"].values())
    assert golden.MANIFEST.read_text() == golden.dumps(manifest)


def test_a_changed_output_names_its_group_and_command():
    manifest = golden.load()
    entry = manifest["digests"]["4:1,1,2"]["ssgraph"]
    entry["stdout"] = entry["stdout"][:-1] + ("0" if entry["stdout"][-1] != "0" else "1")
    manifest["digests"]["4:1,1,2"]["verify"]["exit"] = 1
    assert golden.check(manifest, groups=["4:1,1,2"]) == [
        "4:1,1,2 ssgraph: differs in stdout",
        "4:1,1,2 verify: differs in exit",
    ]
