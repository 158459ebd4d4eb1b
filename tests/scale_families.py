"""The closed-form families of tests/families.py at order about 2000.

    python tests/scale_families.py

For 1/2000(1,1,1998), 1/2000(0,1,1999) and Z/45 x Z/45 it first reads the
quiver off the group alone: it times the arrow masks at every junior point,
the triangle identity and the sink-source graph on every exceptional ray
(the work of `mckay-lab ssgraph` without its DOT text).  It then builds the
fan, checks its cones and wall relations against the family (`check_family`) and
its carving vectors (`check_carving_vectors`), runs the per-ray link walk
(`oracles.vertex_links_close`) on its cones, checks that
`regular_triangle_defect` is 1 on every cone whose three edges are
interior, and compares its cones and chart rows with the oracle's wall
crossing (`oracles.wall_crossing`).  It prints one line per group with the
seconds each stage took, and exits 1 on the first disagreement or failed
guard.  The name keeps it out of pytest's collection: a run takes about a
minute.
"""

import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
try:
    from mckay_lab import QuiverAnalysis, build_fan, parse_group_spec, regular_triangle_defect
except ImportError:  # run from a checkout without the package installed
    sys.path.insert(0, str(TESTS.parent / "src"))
    from mckay_lab import QuiverAnalysis, build_fan, parse_group_spec, regular_triangle_defect
from mckay_lab.errors import InternalGuardError

from families import line_family, square_family, surface_family
from oracles import vertex_links_close, wall_crossing
from test_families import check_carving_vectors, check_family
from test_reid import interior_cones


def timed(f, *args):
    start = time.perf_counter()
    result = f(*args)
    return result, time.perf_counter() - start


def main() -> int:
    for fam in (line_family(2000), surface_family(2000), square_family(45)):
        group, parse_s = timed(parse_group_spec, fam.spec)
        _, table_s = timed(lambda: group.divisor_rows)
        try:
            qa = QuiverAnalysis(group)
            _, masks_s = timed(lambda: [qa.masks(ri) for ri in range(len(group.juniors))])
            exceptional = group.exceptional_ray_indices
            consistent, triangles_s = timed(
                lambda: all(qa.triangles_consistent(ri) for ri in exceptional)
            )
            assert consistent, "a quiver triangle does not lose exactly one arrow"
            _, graphs_s = timed(lambda: [qa.sink_source_graph(ri) for ri in exceptional])
            fan, fan_s = timed(build_fan, group)
            _, family_s = timed(check_family, group.juniors, fan.cone_rays, fam)
            _, carving_s = timed(check_carving_vectors, fan)
            boundary = {ri: 0 in e for ri, e in enumerate(group.juniors)}
            _, links_s = timed(vertex_links_close, fan.cone_rays, boundary)
            cones = interior_cones(fan)
            defects, defect_s = timed(lambda: [regular_triangle_defect(fan, ci) for ci in cones])
            assert set(defects) <= {1}, f"triangle defects {sorted(set(defects))}, not 1"
            oracle, oracle_s = timed(wall_crossing, group)
            charts = {cone: graph.row for cone, graph in zip(fan.cone_rays, fan.ggraphs)}
            assert oracle == charts, "the oracle's wall crossing differs from the fan"
        except (AssertionError, InternalGuardError) as exc:
            print(f"{fam.spec}: FAILED: {exc}")
            return 1
        print(
            f"{fam.spec}: order {group.order}, {len(fan.cone_rays)} cones; "
            f"parse {parse_s:.2f} s, table {table_s:.2f} s, "
            f"{len(group.juniors)} arrow masks {masks_s:.2f} s, "
            f"{len(exceptional)} triangle identities {triangles_s:.2f} s, "
            f"{len(exceptional)} sink-source graphs {graphs_s:.2f} s, build_fan {fan_s:.2f} s, "
            f"check_family {family_s:.2f} s, check_carving_vectors {carving_s:.2f} s, "
            f"link walk {links_s:.2f} s, "
            f"{len(cones)} triangle defects {defect_s:.2f} s, oracle {oracle_s:.2f} s"
        )
        del group, fan, qa, oracle, charts
    return 0


if __name__ == "__main__":
    sys.exit(main())
