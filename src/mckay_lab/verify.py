"""Machine verification of the marking/transform correspondence theorems.

verify_group runs, for one group: the four-way marking statement (each
character's marking class against its transform degree and exact support),
the shape/case correspondence with coordinate and ratio predictions for
every interior exceptional divisor, and a property suite of the supporting
combinatorial facts.  Everything is reported; nothing is silently skipped.
Each per-edge and per-ray fact is derived once, in integers: the chart
check keeps only the chart values that disagree with the divisor table; the
cone oracle checks each cluster at its three rays by masks of zero arrow
slacks, read off the quiver's arrow masks wherever the chart agrees;
primitivity reads each divisor's character off one walk of the quiver's
head table; a wall's tautological degrees skip the positions it keeps.  A
shape-C divisor's six chord lengths enter its coordinate and ratio
identities under one labelling, fixed by its sources.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .ghilb import GHilbFan, build_fan, spans_interior_edge, tautological_degrees
from .groups import GroupData, Monomial, VARIABLES, mono_divides
from .quiver import QuiverAnalysis, _bits, shape_lengths
from .reid import MarkedTriangulation, marked_triangulation, ratio_key, regular_triangle_defect
from .transforms import TransformProfile, curve_cell, divisor_cell, transform_profile


def _mono(orientation: str, k: int) -> Monomial:
    return tuple(k if o == orientation else 0 for o in VARIABLES)


def _mono_sum(*monos) -> Monomial:
    return tuple(sum(m[i] for m in monos) for i in range(3))


class _CharacterRow(NamedTuple):
    """One character's marking and transform facts, derived once per verification."""

    klass: str
    curves: list
    profile: TransformProfile
    multi_curve_divisors: list


def _support(profile: TransformProfile, degree: int) -> list:
    """The profile's support in one degree: transform_profile allows only one."""
    return list(profile.components) if profile.degree == degree else []


class GroupVerification:
    """One group's full pipeline over a built fan, plus every check result."""

    def __init__(self, fan: GHilbFan):
        self.group: GroupData = fan.group
        self.fan = fan
        self.qa = QuiverAnalysis(fan.group)
        self.marked: MarkedTriangulation = marked_triangulation(fan)
        self._rows: list[_CharacterRow] = []  # by character position
        self.per_character: list[dict] = []
        self.per_divisor: list[dict] = []
        self.properties: dict[str, bool] = {}
        self.failures: list[str] = []
        if self.group.order > 1:
            self._check_characters()
            self._check_divisors()
            self._check_properties()

    @property
    def passed(self) -> bool:
        return not self.failures

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    @cached_property
    def _degrees(self) -> dict[tuple[int, int], list[int]]:
        """Every character's tautological degree on each interior edge, in
        the order of group.characters."""
        return {e: tautological_degrees(self.fan, e) for e in self.fan.interior_edges}

    def _multi_curve_divisors(self, curves) -> list:
        """Divisor cells of the exceptional rays that end two or more of the curves."""
        n, juniors = self.group.order, self.group.juniors
        ends = Counter(ri for e in curves for ri in e)
        return sorted(divisor_cell(ri) for ri, k in ends.items() if k > 1 and n not in juniors[ri])

    # -- Reid's recipe against transform profiles (per character) ----------

    def _check_characters(self) -> None:
        marked = self.marked
        for chi in self.group.characters:
            divisors = marked.marked_divisors(chi)
            curves = marked.marked_edges(chi)
            klass = marked.marking_class(chi)
            profile = transform_profile(self.fan, self.qa, chi)
            multi = self._multi_curve_divisors(curves)
            self._rows.append(_CharacterRow(klass, curves, profile, multi))
            entry = {
                "character": chi.label(),
                "residues": list(chi.residues),
                "marking_class": klass,
                "marked_divisors": divisors,
                "marked_curves": curves,
                "degree": profile.degree,
                "components": [list(c) for c in profile.components],
                "connected": profile.connected,
            }
            if chi.is_trivial:
                ok = (
                    klass == "nothing"
                    and profile.degree == -2
                    and list(profile.components)
                    == sorted(divisor_cell(ri) for ri in self.group.exceptional_ray_indices)
                )
            elif klass == "divisor":
                ok = (
                    not curves
                    and len(divisors) == 1
                    and profile.degree == 0
                    and list(profile.components) == [divisor_cell(divisors[0])]
                )
            elif klass == "curve":
                ok = profile.degree == 0 and list(profile.components) == [
                    curve_cell(*curves[0])
                ]
            elif klass == "curves":
                ok = profile.degree == -1 and sorted(profile.components) == multi
            else:  # a nontrivial character marking nothing: trichotomy broken
                ok = False
            ok = ok and profile.connected
            entry["pass"] = ok
            if not ok:
                self._fail(f"character {chi.label()}: {klass} vs degree {profile.degree}")
            self.per_character.append(entry)

    # -- shapes against vertex cases (per interior divisor) ----------------

    def _check_divisors(self) -> None:
        for ri in self.group.interior_ray_indices:
            entry = self._shape_entry(ri)
            if not entry["pass"]:
                self._fail(f"divisor at ray {ri}: shape/case mismatch")
            self.per_divisor.append(entry)

    def _shape_entry(self, ray_idx: int) -> dict:
        fan = self.fan
        ss = self.qa.sink_source_graph(ray_idx)
        case = self.marked.vertex_cases[ray_idx]
        ratio_multiset = sorted(
            self.marked.edge_ratios[e].pair
            for e in fan.edges_at_ray[ray_idx]  # all interior, as the ray is
        )
        entry = {
            "ray": ray_idx,
            "coords": [str(v) for v in self.group.junior_points[ray_idx].coords],
            "case": case.tag,
            "valency": case.valency,
            "shape": ss.shape,
            "lengths": shape_lengths(ss),
            "checks": {},
        }
        checks = entry["checks"]
        checks["shape_matches_case"] = (ss.shape, case.tag) in (
            ("A", "case1"),
            ("B", "case2"),
            ("C", "case3"),
        )
        # an interior ray has shape A, B or C, or _build_graph has raised
        if ss.shape == "A":
            self._check_shape_a(ray_idx, ss, checks, ratio_multiset)
        elif ss.shape == "B":
            self._check_shape_b(ray_idx, ss, case, checks, ratio_multiset)
        else:
            self._check_shape_c(ray_idx, ss, checks, ratio_multiset)
        entry["pass"] = all(checks.values())
        return entry

    def _coords_check(self, ray_idx: int, scaled_expected) -> bool:
        return self.group.juniors[ray_idx] == tuple(scaled_expected)

    def _check_shape_a(self, ray_idx, ss, checks, ratio_multiset) -> None:
        a, b, c = (ss.lengths[k] for k in "abc")
        checks["coordinates"] = self._coords_check(ray_idx, (b * c, a * c, a * b))
        predicted = sorted(
            ratio_key(_mono(o1, k1), _mono(o2, k2))
            for (o1, k1), (o2, k2) in (
                (("x", a), ("y", b)),
                (("y", b), ("z", c)),
                (("z", c), ("x", a)),
            )
        )
        checks["ratios"] = predicted == ratio_multiset

    def _check_shape_b(self, ray_idx, ss, case, checks, ratio_multiset) -> None:
        n = self.group.order
        lengths = ss.lengths
        a, b, c, a1, b1 = (lengths[k] for k in ("a", "b", "c", "a1", "b1"))
        o1, o2, axis = lengths["orientations"]
        coords = {o1: b * c, o2: a * c, axis: n - b * c - a * c}
        checks["coordinates"] = self._coords_check(
            ray_idx, tuple(coords[o] for o in VARIABLES)
        )
        div_a, div_b = a1 % a == 0, b1 % b == 0
        expected_valency = 4 if (div_a and div_b) else (6 if not (div_a or div_b) else 5)
        checks["valency_matches_divisibility"] = case.valency == expected_valency

        line = ratio_key(_mono(o1, a), _mono(o2, b))
        predicted = [line, line]
        tip = _mono(axis, c)
        sides = ((o1, a, a1), (o2, b, b1))
        # each side (o, l, l1) against the other (p, m, m1), both ways round
        for (o, l, l1), (p, m, m1) in (sides, sides[::-1]):
            far = tip if m1 % m == 0 else _mono_sum(_mono(p, (-m1) % m), tip)
            predicted.append(ratio_key(_mono(o, l + l1), far))
            if l1 % l:
                predicted.append(ratio_key(tip, _mono_sum(_mono(o, l1 % l), _mono(p, m1))))
        # the two side edges may coincide as ratios (one straight line)
        checks["ratios"] = sorted(predicted) == ratio_multiset

    def _check_shape_c(self, ray_idx, ss, checks, ratio_multiset) -> None:
        """One cyclic labelling: fwd["o->p"] is the p-chord from the source
        of the backward o-line."""
        lengths = ss.lengths
        a, b, c = (lengths[k] for k in "abc")
        fwd = lengths["fwd"]
        a2, a3 = fwd["y->x"], fwd["z->x"]
        b2, b3 = fwd["z->y"], fwd["x->y"]
        c2, c3 = fwd["x->z"], fwd["y->z"]
        checks["coordinates"] = self._coords_check(
            ray_idx,
            (b * c3 + b2 * c - b2 * c3, a * c2 + a3 * c - a3 * c2, a * b3 + a2 * b - a2 * b3),
        )
        # each pure power shares its character with the chord monomial facing it
        sides = (
            (_mono("x", a), (0, b2, c3)),
            (_mono("y", b), (a3, 0, c2)),
            (_mono("z", c), (a2, b3, 0)),
        )
        kappa = self.group.kappa
        checks["ratios"] = (
            all(kappa(m) == kappa(m2) for m, m2 in sides)
            and sorted(2 * [ratio_key(*side) for side in sides]) == ratio_multiset
        )

    # -- property suite ------------------------------------------------------

    def _check_properties(self) -> None:
        props = self.properties
        props["counts"] = self._prop_counts()
        props["vanishing_counts_match_coordinates"] = self._prop_lemma_counts()
        props["one_vanishing_arrow_per_triangle"] = all(
            self.qa.triangles_consistent(ri)
            for ri in self.group.exceptional_ray_indices
        )
        props["chart_consistency"] = self._prop_chart_consistency()
        props["generator_division_across_edges"] = self._prop_edge_division()
        props["marking_generators_across_edges"] = self._prop_edge_marking_generators()
        props["carving_ratios_primitive"] = self._prop_ratio_primitivity()
        props["tautological_degrees"] = self._prop_tautological_degrees()
        props["unique_trivial_sink"] = self._prop_unique_sink()
        props["marking_trichotomy"] = self._prop_trichotomy()
        props["regular_triangle_defects"] = self._prop_triangle_defects()
        props["cone_membership_oracle"] = self._prop_cone_oracle()
        props["degree_sums_on_curve_supports"] = self._prop_degree_sums()
        props["transform_degree_exclusive"] = self._prop_exclusive_degree()
        props["multi_curve_divisors_match_sources"] = self._prop_lemma_sources()
        props["h0_divisors_match_sinks"] = self._prop_h0_two_routes()
        props["principal_divisor_sums"] = self._prop_principal_sums()
        props["no_support_on_strict_transforms"] = self._prop_corner_support()
        for name, ok in props.items():
            if not ok:
                self._fail(f"property {name}")

    def _prop_counts(self) -> bool:
        """n clusters and n cones.  Distinct sums S make distinct rows, so the
        rows are hashed only when two clusters share a sum."""
        n, graphs = self.group.order, self.fan.ggraphs
        return (
            len(graphs) == n
            and len(self.fan.cone_rays) == n
            and (len({g.total for g in graphs}) == n or len({g.row for g in graphs}) == n)
        )

    def _counts_match_coordinates(self, ray_indices) -> bool:
        qa, scaled = self.qa, self.group.juniors
        return all(qa.vanishing_counts(ri) == scaled[ri] for ri in ray_indices)

    def _prop_lemma_counts(self) -> bool:
        return self._counts_match_coordinates(self.group.exceptional_ray_indices)

    @cached_property
    def _chart_mismatches(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The chart values that disagree with the divisor table: by (cluster,
        p) for the p-th ray of its cone, the values (n*e).r_k of its monomials
        by position, kept only where they differ from the ray's row.  One pass
        over the clusters, so no agreeing list outlives its comparison."""
        fan, rows, scaled = self.fan, self.group.divisor_rows, self.group.juniors
        mismatches = {}
        for ci, (graph, triple) in enumerate(zip(fan.ggraphs, fan.cone_rays)):
            for p, ri in enumerate(triple):
                a, b, c = scaled[ri]
                values = tuple([a * x + b * y + c * z for x, y, z in graph.row])
                if values != rows[ri]:
                    mismatches[ci, p] = values
        return mismatches

    def _prop_chart_consistency(self) -> bool:
        """Every chart reproduces the divisor table at each of its three rays,
        entry by entry: (n*e).r_chi = n*q(chi, e) for every character."""
        return not self._chart_mismatches

    def _prop_edge_division(self) -> bool:
        """Across each interior edge the changed generators divide as m | r, m' | r'."""
        fan = self.fan
        for e in fan.interior_edges:
            m, m2 = _oriented_carving_pair(fan, e)
            row, row2 = (fan.ggraphs[ci].row for ci in fan.edges[e])
            for r, r2 in zip(row, row2):
                if r != r2 and not (mono_divides(m, r) and mono_divides(m2, r2)):
                    return False
        return True

    def _prop_edge_marking_generators(self) -> bool:
        """The marking character's two generators are the carving pair itself."""
        fan = self.fan
        for e in fan.interior_edges:
            m, m2 = _oriented_carving_pair(fan, e)
            k = self.group.index[self.marked.edge_ratios[e].character]
            row, row2 = (fan.ggraphs[ci].row for ci in fan.edges[e])
            if row[k] != m or row2[k] != m2:
                return False
        return True

    def _prop_ratio_primitivity(self) -> bool:
        """No invariant ratio of strict divisors of the carving pair."""
        return all(
            ratio_is_primitive(self.group, r.m1, r.m2)
            for r in self.marked.edge_ratios.values()
        )

    def _prop_tautological_degrees(self) -> bool:
        """Degree 1 for the marking character, >= 0 always, 0 for trivial."""
        index = self.group.index
        return all(
            min(degrees) >= 0
            and degrees[index[self.marked.edge_ratios[rays].character]] == 1
            and degrees[0] == 0
            for rays, degrees in self._degrees.items()
        )

    def _prop_unique_sink(self) -> bool:
        """Interior divisors: one (0,3)-sink, at the trivial character, and
        one (3,0)-sink for shapes A and B."""
        interior = set(self.group.interior_ray_indices)
        for ri in self.group.exceptional_ray_indices:
            ss = self.qa.sink_source_graph(ri)
            sinks = ss.sink03_vertices()
            if ri in interior:
                if sinks != [0]:
                    return False
                if ss.shape in ("A", "B") and ss.sink30_count != 1:
                    return False
            elif sinks:
                return False
        return True

    def _prop_trichotomy(self) -> bool:
        """Divisor, single-curve and several-curve characters partition G^ \\ 1:
        the trivial character (position 0) alone marks nothing, and no
        divisor-marking character marks a curve."""
        return all(
            (row.klass == "nothing") == (k == 0) and not (row.klass == "divisor" and row.curves)
            for k, row in enumerate(self._rows)
        )

    def _prop_triangle_defects(self) -> bool:
        """r' >= 0 on every triangle whose three edges are interior."""
        fan = self.fan
        return all(
            regular_triangle_defect(fan, ci) >= 0
            for ci, (a, b, c) in enumerate(fan.cone_rays)
            if all(len(fan.edges[e]) == 2 for e in ((a, b), (a, c), (b, c)))
        )

    def _prop_cone_oracle(self) -> bool:
        """Each cluster's cone is the triangle T of its three rays, checked
        at those rays alone: every arrow (k, o) with head h has slack
        (n*p).(r_k + e_o - r_h) >= 0 at each ray p (the cone holds T), and
        each edge of T off the octant's boundary has an arrow tight at both
        its ends and positive at the third ray (the cone lies in T).  T is
        unimodular, so it holds no other junior point."""
        scaled, mismatches = self.group.juniors, self._chart_mismatches
        columns = tuple(zip(*self.group.head_rows))  # [o][k]: head of the o-arrow out of k
        n = len(columns[0])
        agreeing: dict = {}  # zeros at each ray under its table row, for this call only

        def zeros(ci, p, ri):
            """The zero slacks of the ci-th cluster at its p-th ray ri, bit
            o*n + k for the o-arrow out of position k, or None if one is < 0.
            Where the chart agrees with the table the slack is n times the
            arrow's order along the ray, so the zeros are the arrows that do
            not vanish there: the quiver's out-masks, complemented."""
            v = mismatches.get((ci, p))
            if v is None:
                if ri not in agreeing:
                    full = (1 << n) - 1
                    outs = self.qa.masks(ri)[0]
                    agreeing[ri] = sum((full ^ out) << o * n for o, out in enumerate(outs))
                return agreeing[ri]
            s = scaled[ri]
            slack = [vk + so - v[h] for so, col in zip(s, columns) for vk, h in zip(v, col)]
            if min(slack) < 0:
                return None
            return int("".join(["0" if x else "1" for x in reversed(slack)]), 2)

        for ci, triple in enumerate(self.fan.cone_rays):
            masks = [zeros(ci, p, ri) for p, ri in enumerate(triple)]
            if None in masks:
                return False
            for i, j, third in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                if spans_interior_edge(scaled[triple[i]], scaled[triple[j]]) and not (
                    masks[i] & masks[j] & ~masks[third]
                ):
                    return False
        return True

    def _prop_degree_sums(self) -> bool:
        """Over a curve-supported degree-0 transform the twist degrees cancel."""
        for k, row in enumerate(self._rows):
            if k == 0 or row.klass != "curve":  # position 0 is the trivial character
                continue
            curves = [c[1] for c in row.profile.components if c[0] == "curve"]
            if not curves:
                return False
            totals = [sum(col) for col in zip(*(self._degrees[pair] for pair in curves))]
            expected = [0] * self.group.order
            expected[k] = len(curves)
            if totals != expected:
                return False
        return True

    def _prop_exclusive_degree(self) -> bool:
        """Exactly one cohomological degree has nonempty support per character."""
        return all(
            sum(1 for d in (0, -1, -2) if _support(row.profile, d)) == 1 for row in self._rows
        )

    def _prop_lemma_sources(self) -> bool:
        """Source divisors of a character are those with >= 2 of its curves."""
        return all(_support(row.profile, -1) == row.multi_curve_divisors for row in self._rows)

    def _prop_h0_two_routes(self) -> bool:
        """Divisor cells of the three-arrow intersection are the (3,0)-sinks,
        these read off each ray's (3,0)-sink mask."""
        via_class = [set() for _ in self.group.characters]
        for ri in self.group.exceptional_ray_indices:
            for k in _bits(self.qa.class_masks(ri).sink30):
                via_class[k].add(ri)
        return all(
            {c[1] for c in _support(row.profile, 0) if c[0] == "divisor"} == via_class[k]
            for k, row in enumerate(self._rows)
        )

    def _prop_corner_support(self) -> bool:
        """No character's three arrows all vanish along a corner ray, in
        either direction: supports stay off the strict-transform planes."""
        n = self.group.order
        for ri, s in enumerate(self.group.juniors):
            if n in s:
                (x, y, z), (ix, iy, iz) = self.qa.masks(ri)
                if x & y & z or ix & iy & iz:
                    return False
        return True

    def _prop_principal_sums(self) -> bool:
        """Summing an orientation's vanishing divisors gives |G| times the
        principal divisor of that coordinate, corner rays included."""
        return self._counts_match_coordinates(range(len(self.group.juniors)))

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        n = self.group.order
        shape_hist = Counter(entry["shape"] for entry in self.per_divisor)
        case_hist = Counter(entry["case"] for entry in self.per_divisor)
        marking_hist = Counter(entry["marking_class"] for entry in self.per_character)
        return {
            "group": self.group.spec_string(),
            "order": n,
            "rays": len(self.group.juniors),
            "cones": len(self.fan.cone_rays),
            "interior_divisors": len(self.group.interior_ray_indices),
            "per_character": self.per_character,
            "per_divisor": self.per_divisor,
            "properties": self.properties,
            "failures": self.failures,
            "summary": {
                "pass": self.passed,
                "characters": len(self.per_character),
                "interior_divisors_checked": len(self.per_divisor),
                "shape_histogram": dict(sorted(shape_hist.items())),
                "case_histogram": dict(sorted(case_hist.items())),
                "marking_histogram": dict(sorted(marking_hist.items())),
            },
            "pass": self.passed,
        }


def _oriented_carving_pair(fan: GHilbFan, rays):
    """Carving pair (m, m') of the edge on a ray-index pair, m the generator
    side of the first chart: UnknownCone for no edge, BoundaryEdge for a
    boundary one."""
    w = fan.carving_vector(rays)
    return tuple(max(-v, 0) for v in w), tuple(max(v, 0) for v in w)


def ratio_is_primitive(group: GroupData, m1: Monomial, m2: Monomial) -> bool:
    """No divisor d1 of m1 shares its character with a divisor d2 of m2, but
    for d1 = d2 and the pair itself.  The side with fewer divisors, prod(m_i
    + 1), is grouped by position; the other is walked up to the first
    collision."""
    small, big = sorted((m1, m2), key=lambda m: (m[0] + 1) * (m[1] + 1) * (m[2] + 1))
    by_position: dict[int, list] = {}
    for d, k in _divisor_positions(group.head_rows, small):
        by_position.setdefault(k, []).append(d)
    return not any(
        d != e and (e, d) != (small, big)
        for d, k in _divisor_positions(group.head_rows, big)
        for e in by_position.get(k, ())
    )


def _divisor_positions(heads, m: Monomial):
    """Each divisor (i, j, k) of m with its character's position, by one walk
    through the McKay quiver from position 0: along x, then y, then z."""
    px = 0
    for i in range(m[0] + 1):
        py = px
        for j in range(m[1] + 1):
            pz = py
            for k in range(m[2] + 1):
                yield (i, j, k), pz
                pz = heads[pz][2]
            py = heads[py][1]
        px = heads[px][0]


def verify_group(group: GroupData) -> dict:
    """Run the full verification pipeline on one group and return its report."""
    return GroupVerification(build_fan(group)).report()
