"""Command-line interface.

Exit codes: 0 success (and all checks passed), 1 verification failure (in
corpus, also a group whose pipeline raised), 2 invalid input (an InputError
or an OSError), 3 a failed internal guard (an InternalGuardError: a bug), 4
out of memory (a MemoryError: the group is too large for the machine).
"""

from __future__ import annotations

import argparse
import sys

from .corpus import CorpusSpec, run_corpus
from .diagrams import (
    all_sink_source_dot,
    marked_simplex_svg,
    marked_simplex_tikz,
    quiver_dot,
)
from .errors import InputError, InternalGuardError
from .ghilb import build_fan
from .groups import parse_group_spec
from .quiver import QuiverAnalysis, quiver_counts
from .reid import marked_triangulation
from .serialize import dumps_canonical, fan_json, report_json
from .transforms import transform_profile
from .verify import verify_group


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reid_payload(fan, marked) -> dict:
    return {
        "group": fan.group.spec_string(),
        "edges": [
            {
                "ray_indices": list(rays),
                "ratio": ratio.text(),
                "character": ratio.character.label(),
            }
            for rays, ratio in sorted(marked.edge_ratios.items())
        ],
        "vertices": [
            {
                "ray_index": ri,
                "coords": [str(v) for v in fan.group.junior_points[ri].coords],
                "case": case.tag,
                "valency": case.valency,
                "marking": [chi.label() for chi in case.markings],
            }
            for ri, case in sorted(marked.vertex_cases.items())
        ],
    }


def _transforms_payload(fan, qa, char_index: int | None) -> dict:
    characters = fan.group.characters
    if char_index is not None:
        if not 0 <= char_index < len(characters):
            raise InputError(f"character index {char_index} out of range")
        characters = (characters[char_index],)
    entries = []
    for chi in characters:
        profile = transform_profile(fan, qa, chi)
        entries.append(
            {
                "character": chi.label(),
                "degree": profile.degree,
                "components": [list(c) for c in profile.components],
                "descriptor": profile.descriptor,
            }
        )
    return {"group": fan.group.spec_string(), "profiles": entries}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay-lab",
        description="Exact G-Hilb fans, markings and quiver analysis "
        "for finite abelian subgroups of SL(3,C)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_cmd(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--group", required=True, help="group spec 'r:a,b,c' ('+' for products)")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
        return cmd

    add_group_cmd("fan", "compute and serialize the G-Hilb fan")

    reid = add_group_cmd("reid", "edge ratios and vertex markings")
    reid.add_argument("--format", choices=("json", "svg", "tikz"), default="json")

    quiver = add_group_cmd("quiver", "the McKay quiver")
    quiver.add_argument("--format", choices=("dot", "json"), default="dot")

    add_group_cmd("ssgraph", "per-divisor sink-source graphs as DOT")

    tr = add_group_cmd("transforms", "transform degrees and supports")
    tr.add_argument("--char", type=int, default=None, help="restrict to one character index")

    add_group_cmd("verify", "verify the correspondence theorems on one group")

    corpus = sub.add_parser("corpus", help="sweep and verify a whole corpus")
    corpus.add_argument("--max-order", type=int, default=10)
    corpus.add_argument("--group", action="append", default=[], help="extra group specs")
    corpus.add_argument("--jobs", type=int, default=1)
    corpus.add_argument("--out", default=None, help="directory for per-group reports")
    return parser


# built once: argparse's append action copies its default list, so the
# shared parser keeps no state between calls
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        return _dispatch(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalGuardError as exc:
        print(f"error: internal guard {type(exc).__name__} failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the group is too large for this machine", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    if args.command == "corpus":
        spec = CorpusSpec(
            max_order=args.max_order,
            groups=args.group,
            jobs=args.jobs,
            output_dir=args.out,
        )
        aggregate = run_corpus(spec)
        sys.stdout.write(report_json(aggregate))
        return 0 if aggregate["pass"] else 1

    group = parse_group_spec(args.group)

    if args.command == "fan":
        _write(fan_json(build_fan(group)), args.out)
        return 0

    if args.command == "reid":
        fan = build_fan(group)
        marked = marked_triangulation(fan)
        if args.format == "svg":
            _write(marked_simplex_svg(fan, marked), args.out)
        elif args.format == "tikz":
            _write(marked_simplex_tikz(fan, marked), args.out)
        else:
            _write(dumps_canonical(_reid_payload(fan, marked)), args.out)
        return 0

    if args.command == "quiver":
        if args.format == "dot":
            _write(quiver_dot(group), args.out)
        else:
            payload = {"group": group.spec_string(), **quiver_counts(group)}
            _write(dumps_canonical(payload), args.out)
        return 0

    if args.command == "ssgraph":
        _write(all_sink_source_dot(QuiverAnalysis(group)), args.out)
        return 0

    if args.command == "transforms":
        payload = _transforms_payload(build_fan(group), QuiverAnalysis(group), args.char)
        _write(dumps_canonical(payload), args.out)
        return 0

    if args.command == "verify":
        report = verify_group(group)
        _write(report_json(report), args.out)
        for entry in report["per_character"]:
            status = "PASS" if entry["pass"] else "FAIL"
            print(
                f"{status} {entry['character']} {entry['marking_class']} "
                f"degree {entry['degree']}",
                file=sys.stderr,
            )
        print(
            f"{'PASS' if report['pass'] else 'FAIL'} {report['group']}",
            file=sys.stderr,
        )
        return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
