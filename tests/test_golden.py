"""The committed byte manifest of the CLI outputs (tests/golden)."""

from mckay_lab.corpus import enumerate_cyclic

from golden import check as golden


def test_every_output_matches_the_manifest():
    manifest = golden.load()
    assert golden.check(manifest) == []


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


def test_the_manifest_holds_the_bench_reference_digests():
    """Every digest of bench/reference.json that names a manifest output is
    the prefix of its stdout digest, so a byte change the benchmark refuses
    fails here first; and the check compares every such digest."""
    lines, compared = golden.cross_check(golden.load())
    assert lines == []
    assert compared == {"corpus22": 95, "verify_large": 3, "query": 90}


def test_a_moved_reference_output_names_its_workload_and_key():
    manifest = golden.load()
    entry = manifest["digests"]["12:1,1,10"]["verify"]
    entry["stdout"] = ("0" if entry["stdout"][0] != "0" else "1") + entry["stdout"][1:]
    lines, _ = golden.cross_check(manifest)
    assert len(lines) == 1 and lines[0].startswith("corpus22 12:1,1,10: manifest stdout ")


def test_each_group_is_parsed_once_and_its_fan_built_once(monkeypatch):
    """The eight commands of a group share its one parse and its one fan,
    and the CLI's own functions are back in place afterwards."""
    import mckay_lab.cli as cli
    import mckay_lab.verify as verify

    calls = []

    def counted(name, function):
        def call(arg):
            calls.append(name)
            return function(arg)

        return call

    monkeypatch.setattr(cli, "parse_group_spec", counted("parse", cli.parse_group_spec))
    monkeypatch.setattr(cli, "build_fan", counted("build", cli.build_fan))
    monkeypatch.setattr(verify, "build_fan", counted("build", verify.build_fan))
    patched = cli.parse_group_spec, cli.build_fan, verify.build_fan
    assert golden.check(golden.load(), groups=["4:1,1,2", "3:1,2,0+3:0,1,2"]) == []
    assert calls == ["parse", "build"] * 2
    assert (cli.parse_group_spec, cli.build_fan, verify.build_fan) == patched
