"""The byte manifest of the CLI: for each listed group and each of eight
outputs, the sha256 of stdout, the sha256 of stderr and the exit code.

    python tests/golden/check.py --check    # one line per differing (group, command)
    python tests/golden/check.py --record   # rewrite the digests of the listed groups

Every command runs in process through `mckay_lab.cli.main`.  Each group is
parsed once and its fan built once, shared by its eight commands: while they
run, `cli.parse_group_spec`, `cli.build_fan` and `verify.build_fan` return
that group and that fan (no reader writes into a fan).  The group list
in manifest.json is the input: `--record` keeps it and rewrites only the
digests, and a group is added by listing it there.  Re-recording a digest
changes a check, so every (group, command) that moves must be named, with
its reason, where the change is described.

`--check` also holds the manifest to the benchmark's reference digests in
bench/reference.json, which it only reads: where both pin the same output,
the reference digest is the first 20 hex digits of the manifest's stdout
digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("manifest.json")
REFERENCE = ROOT / "bench" / "reference.json"

try:
    from mckay_lab import cli, verify
except ImportError:  # run from a checkout without the package installed
    sys.path.insert(0, str(ROOT / "src"))
    from mckay_lab import cli, verify
from mckay_lab.errors import McKayLabError

# output name -> CLI arguments after the group
COMMANDS = {
    "fan": ("fan",),
    "reid": ("reid", "--format", "svg"),
    "reid_json": ("reid", "--format", "json"),
    "reid_tikz": ("reid", "--format", "tikz"),
    "quiver": ("quiver",),
    "ssgraph": ("ssgraph",),
    "transforms": ("transforms",),
    "verify": ("verify",),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(spec: str, command: str) -> dict:
    """The stdout and stderr digests and the exit code of one CLI run."""
    name, *options = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([name, "--group", spec, *options])
    return {"stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue()), "exit": code}


def run_group(spec: str) -> dict:
    """Every command's run_command entry on one group, which is parsed once
    and whose fan is built once.  A spec that fails to parse or build is
    left to each command, which reports its error."""
    parse, build = cli.parse_group_spec, cli.build_fan
    try:
        group = parse(spec)
        fan = build(group)
    except McKayLabError:
        return {command: run_command(spec, command) for command in COMMANDS}
    saved = cli.parse_group_spec, cli.build_fan, verify.build_fan
    cli.parse_group_spec = lambda s: group if s == spec else parse(s)
    cli.build_fan = verify.build_fan = lambda g: fan if g is group else build(g)
    try:
        return {command: run_command(spec, command) for command in COMMANDS}
    finally:
        cli.parse_group_spec, cli.build_fan, verify.build_fan = saved


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def record(manifest: dict) -> dict:
    """The manifest with every listed group's digests computed afresh."""
    digests = {spec: run_group(spec) for spec in manifest["groups"]}
    return {"groups": manifest["groups"], "digests": digests}


def dumps(manifest: dict) -> str:
    """The manifest as JSON with one line per group and per (group, command),
    so a re-recording diff names each output that moved."""
    groups = ",\n".join(f"  {json.dumps(spec)}" for spec in manifest["groups"])
    blocks = []
    for spec, entries in manifest["digests"].items():
        rows = ",\n".join(
            f"   {json.dumps(command)}: {json.dumps(entry)}" for command, entry in entries.items()
        )
        blocks.append(f"  {json.dumps(spec)}: {{\n{rows}\n  }}")
    digests = ",\n".join(blocks)
    return f'{{\n "groups": [\n{groups}\n ],\n "digests": {{\n{digests}\n }}\n}}\n'


def check(manifest: dict, groups=None) -> list[str]:
    """One line per (group, command) whose output differs from the manifest,
    naming the parts that differ; over the listed groups, or over `groups`."""
    lines = []
    for spec in manifest["groups"] if groups is None else groups:
        expected = manifest["digests"].get(spec, {})
        for command, got in run_group(spec).items():
            want = expected.get(command)
            if want is None:
                lines.append(f"{spec} {command}: not recorded")
            elif got != want:
                parts = ", ".join(k for k in ("stdout", "stderr", "exit") if got[k] != want[k])
                lines.append(f"{spec} {command}: differs in {parts}")
    return lines


def cross_check(manifest: dict) -> tuple[list[str], Counter]:
    """One line per digest of bench/reference.json that is not the 20-digit
    prefix of the manifest's stdout digest of the same output, naming the
    workload and the key; and the number of digests compared per workload.

    A corpus22 or verify_large key is a group, whose verify report is
    digested; a query key is "<CLI arguments> <group>".  Keys with no
    manifest entry, such as the corpus aggregate, are skipped."""
    reference = json.loads(REFERENCE.read_text())
    by_argv = {" ".join(args): name for name, args in COMMANDS.items()}
    lines, compared = [], Counter()
    for workload, digests in reference.items():
        for key, digest in digests.items():
            if workload == "query":
                argv, _, spec = key.rpartition(" ")
                command = by_argv.get(argv)
            else:  # corpus22 and verify_large
                spec, command = key, "verify"
            entry = manifest["digests"].get(spec, {}).get(command)
            if entry is None:
                continue
            compared[workload] += 1
            if entry["stdout"][:20] != digest:
                lines.append(
                    f"{workload} {key}: manifest stdout {entry['stdout'][:20]} != reference {digest}"
                )
    return lines, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare every output with the manifest, and the manifest with the bench reference",
    )
    mode.add_argument("--record", action="store_true", help="rewrite the manifest's digests")
    args = parser.parse_args(argv)
    manifest = load()
    if args.record:
        MANIFEST.write_text(dumps(record(manifest)))
        return 0
    lines = check(manifest) + cross_check(manifest)[0]
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
