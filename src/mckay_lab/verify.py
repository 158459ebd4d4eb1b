"""Machine verification of the marking/transform correspondence theorems.

verify_group runs, for one group: the four-way marking statement (each
character's marking class against its transform degree and exact support),
the shape/case correspondence with coordinate and ratio predictions for
every interior exceptional divisor, and a property suite of the supporting
combinatorial facts.  Everything is reported; nothing is silently skipped.
Each per-edge and per-ray fact is derived once, in integers, and the cone
oracle checks each cluster's inequalities at its own three rays.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .ghilb import GHilbFan, build_fan, spans_interior_edge, tautological_degrees
from .groups import Character, GroupData, Monomial, VARIABLES, mono_divides
from .intlin import dot3
from .quiver import QuiverAnalysis, SINK30
from .reid import MarkedTriangulation, marked_triangulation, ratio_key, regular_triangle_defect
from .transforms import TransformProfile, curve_cell, divisor_cell, transform_profile


def _mono(orientation: str, k: int) -> Monomial:
    return tuple(k if o == orientation else 0 for o in VARIABLES)


def _mono_sum(*monos) -> Monomial:
    return tuple(sum(m[i] for m in monos) for i in range(3))


class GroupVerification:
    """One group's full pipeline over a built fan, plus every check result."""

    def __init__(self, fan: GHilbFan):
        self.group: GroupData = fan.group
        self.fan = fan
        self.qa = QuiverAnalysis(fan)
        self.marked: MarkedTriangulation = marked_triangulation(fan)
        self._profiles: dict[Character, TransformProfile] = {}
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

    def profile(self, chi: Character) -> TransformProfile:
        """The transform profile of chi, computed once per verification."""
        if chi not in self._profiles:
            self._profiles[chi] = transform_profile(self.fan, self.qa, chi)
        return self._profiles[chi]

    @cached_property
    def _degrees(self) -> dict[tuple[int, int], list[int]]:
        """Every character's tautological degree on each interior edge, in
        the order of group.characters."""
        return {e: tautological_degrees(self.fan, e) for e in self.fan.interior_edges}

    def _supports(self, chi: Character) -> tuple[list, list, list]:
        """The h0, h1 and h2 supports of chi, read off its profile.

        Exact because transform_profile raises unless exactly one degree
        has support."""
        profile = self.profile(chi)
        return tuple(
            list(profile.components) if profile.degree == d else [] for d in (0, -1, -2)
        )

    def _multi_curve_divisors(self, curves) -> list:
        """Divisor cells of the exceptional rays on at least two of the curves."""
        return sorted(
            divisor_cell(ri)
            for ri in self.group.exceptional_ray_indices
            if sum(1 for e in curves if ri in e) >= 2
        )

    # -- Reid's recipe against transform profiles (per character) ----------

    def _check_characters(self) -> None:
        marked = self.marked
        exceptional = self.group.exceptional_ray_indices
        for chi in self.group.characters:
            divisors = marked.marked_divisors(chi)
            curves = marked.marked_edges(chi)
            klass = marked.marking_class(chi)
            profile = self.profile(chi)
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
            ok = True
            if chi.is_trivial:
                ok = (
                    klass == "nothing"
                    and profile.degree == -2
                    and list(profile.components)
                    == sorted(divisor_cell(ri) for ri in exceptional)
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
                expected = self._multi_curve_divisors(curves)
                ok = profile.degree == -1 and sorted(profile.components) == expected
            else:  # a nontrivial character marking nothing: trichotomy broken
                ok = False
            if not profile.connected:
                ok = False
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
            "lengths": _lengths_for_report(ss.lengths),
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
        n = self.group.order
        lengths = ss.lengths
        a, b, c = (lengths[k] for k in "abc")
        fwd = lengths["fwd"]
        kappa = self.group.kappa
        found = False
        for a2, a3 in ((fwd[("y", "x")], fwd[("z", "x")]), (fwd[("z", "x")], fwd[("y", "x")])):
            for b2, b3 in ((fwd[("x", "y")], fwd[("z", "y")]), (fwd[("z", "y")], fwd[("x", "y")])):
                for c2, c3 in ((fwd[("x", "z")], fwd[("y", "z")]), (fwd[("y", "z")], fwd[("x", "z")])):
                    coords_ok = self._coords_check(
                        ray_idx,
                        (
                            b * c3 + b2 * c - b2 * c3,
                            a * c2 + a3 * c - a3 * c2,
                            a * b3 + a2 * b - a2 * b3,
                        ),
                    )
                    chars_ok = (
                        kappa(_mono("x", a)) == kappa((0, b2, c3))
                        and kappa(_mono("y", b)) == kappa((a3, 0, c2))
                        and kappa(_mono("z", c)) == kappa((a2, b3, 0))
                    )
                    predicted = [
                        ratio_key(_mono("x", a), (0, b2, c3)),
                        ratio_key(_mono("y", b), (a3, 0, c2)),
                        ratio_key(_mono("z", c), (a2, b3, 0)),
                    ]
                    ratios_ok = sorted(predicted + predicted) == ratio_multiset
                    found = found or (coords_ok and chars_ok and ratios_ok)
        checks["coordinates"] = found
        checks["ratios"] = found

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
        n = self.group.order
        return (
            len(self.fan.ggraphs) == n
            and len(self.fan.cone_rays) == n
            and len(set(self.fan.ggraphs)) == n
        )

    def _counts_match_coordinates(self, ray_indices) -> bool:
        qa, scaled = self.qa, self.group.juniors
        return all(qa.vanishing_counts(ri) == scaled[ri] for ri in ray_indices)

    def _prop_lemma_counts(self) -> bool:
        return self._counts_match_coordinates(self.group.exceptional_ray_indices)

    @cached_property
    def _chart_values(self) -> list[list[list[int]]]:
        """Per cluster, at each ray p of its cone, the values (n*p).r_k of
        its monomials by position: the chart's valuations at its rays."""
        fan, scaled = self.fan, self.group.juniors
        return [
            [[dot3(scaled[ri], m) for m in graph.row] for ri in triple]
            for graph, triple in zip(fan.ggraphs, fan.cone_rays)
        ]

    def _prop_chart_consistency(self) -> bool:
        """Every chart reproduces the divisor table at each of its three rays,
        entry by entry: (n*e).r_chi = n*q(chi, e) for every character."""
        rows = self.group.divisor_rows
        return all(
            tuple(v) == rows[ri]
            for at_rays, triple in zip(self._chart_values, self.fan.cone_rays)
            for v, ri in zip(at_rays, triple)
        )

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
        trivial = index[self.group.trivial_character]
        return all(
            min(degrees) >= 0
            and degrees[index[self.marked.edge_ratios[rays].character]] == 1
            and degrees[trivial] == 0
            for rays, degrees in self._degrees.items()
        )

    def _prop_unique_sink(self) -> bool:
        """Interior divisors: one (0,3)-sink, at the trivial character, and
        one (3,0)-sink for shapes A and B."""
        juniors = self.group.juniors
        for ri in self.group.exceptional_ray_indices:
            ss = self.qa.sink_source_graph(ri)
            sinks = ss.sink03_vertices()
            if 0 not in juniors[ri]:
                if sinks != [self.group.index[self.group.trivial_character]]:
                    return False
                if ss.shape in ("A", "B") and ss.sink30_count != 1:
                    return False
            elif sinks:
                return False
        return True

    def _prop_trichotomy(self) -> bool:
        """Divisor, single-curve and several-curve characters partition G^ \\ 1."""
        seen = {"divisor": set(), "curve": set(), "curves": set()}
        for chi in self.group.characters:
            if chi.is_trivial:
                if self.marked.marking_class(chi) != "nothing":
                    return False
                continue
            klass = self.marked.marking_class(chi)
            if klass == "nothing":
                return False
            seen[klass].add(chi)
            # disjointness: a divisor-marking character marks no curves
            if klass == "divisor" and self.marked.marked_edges(chi):
                return False
        total = sum(len(v) for v in seen.values())
        return total == self.group.order - 1

    def _prop_triangle_defects(self) -> bool:
        """r' >= 0 on every triangle whose three edges are interior."""
        fan = self.fan
        s = self.group.juniors
        return all(
            regular_triangle_defect(fan, ci) >= 0
            for ci, (a, b, c) in enumerate(fan.cone_rays)
            if all(spans_interior_edge(s[i], s[j]) for i, j in ((a, b), (a, c), (b, c)))
        )

    def _prop_cone_oracle(self) -> bool:
        """Each cluster's cone is the triangle T of its three rays, checked
        at those rays alone: every arrow (k, o) with head h has slack
        (n*p).(r_k + e_o - r_h) >= 0 at each ray p (the cone holds T), and
        each edge of T off the octant's boundary has an arrow tight at both
        its ends and positive at the third ray (the cone lies in T).  T is
        unimodular, so it holds no other junior point."""
        scaled = self.group.juniors
        columns = tuple(zip(*self.group.head_rows))  # [o][k]: head of the o-arrow out of k
        for at_rays, triple in zip(self._chart_values, self.fan.cone_rays):
            rays = [scaled[ri] for ri in triple]
            slacks = []
            for s, v in zip(rays, at_rays):
                slack = [vk + so - v[h] for so, col in zip(s, columns) for vk, h in zip(v, col)]
                if min(slack) < 0:
                    return False
                slacks.append(slack)
            for i, j, third in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                if spans_interior_edge(rays[i], rays[j]) and not any(
                    not si and not sj and st
                    for si, sj, st in zip(slacks[i], slacks[j], slacks[third])
                ):
                    return False
        return True

    def _prop_degree_sums(self) -> bool:
        """Over a curve-supported degree-0 transform the twist degrees cancel."""
        for chi in self.group.characters:
            if chi.is_trivial or self.marked.marking_class(chi) != "curve":
                continue
            profile = self.profile(chi)
            curves = [c[1] for c in profile.components if c[0] == "curve"]
            if not curves:
                return False
            totals = [sum(col) for col in zip(*(self._degrees[pair] for pair in curves))]
            expected = [0] * self.group.order
            expected[self.group.index[chi]] = len(curves)
            if totals != expected:
                return False
        return True

    def _prop_exclusive_degree(self) -> bool:
        """Exactly one cohomological degree has nonempty support per character."""
        return all(
            sum(1 for s in self._supports(chi) if s) == 1
            for chi in self.group.characters
        )

    def _prop_lemma_sources(self) -> bool:
        """Source divisors of a character are those with >= 2 of its curves."""
        return all(
            self._supports(chi)[1]
            == self._multi_curve_divisors(self.marked.marked_edges(chi))
            for chi in self.group.characters
        )

    def _prop_h0_two_routes(self) -> bool:
        """Divisor cells of the three-arrow intersection are the (3,0)-sinks,
        these read off one walk of each ray's classes."""
        via_class = [set() for _ in self.group.characters]
        for ri in self.group.exceptional_ray_indices:
            for k, cls in enumerate(self.qa.classes(ri)):
                if cls == SINK30:
                    via_class[k].add(ri)
        return all(
            {c[1] for c in self._supports(chi)[0] if c[0] == "divisor"} == via_class[k]
            for k, chi in enumerate(self.group.characters)
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


def _lengths_for_report(lengths):
    out = {}
    for key, value in lengths.items():
        if key == "fwd":
            out[key] = {f"{a}->{b}": v for (a, b), v in sorted(value.items())}
        else:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _oriented_carving_pair(fan: GHilbFan, rays):
    """Carving pair (m, m') of the edge on a ray-index pair, m the generator
    side of the first chart: UnknownCone for no edge, BoundaryEdge for a
    boundary one."""
    w = fan.carving_vector(rays)
    return tuple(max(-v, 0) for v in w), tuple(max(v, 0) for v in w)


def ratio_is_primitive(group: GroupData, m1: Monomial, m2: Monomial) -> bool:
    """No divisor d1 of m1 shares its character with a divisor d2 of m2, but
    for d1 = d2 and the pair itself (divisors of m2 grouped by residues)."""
    gens = group.generators
    by_character: dict[tuple, list] = {}
    for d2 in _divisors_of(m2):
        by_character.setdefault(tuple(dot3(w, d2) % r for r, w in gens), []).append(d2)
    return not any(
        d1 != d2 and (d1, d2) != (m1, m2)
        for d1 in _divisors_of(m1)
        for d2 in by_character.get(tuple(dot3(w, d1) % r for r, w in gens), ())
    )


def _divisors_of(m: Monomial):
    for i in range(m[0] + 1):
        for j in range(m[1] + 1):
            for k in range(m[2] + 1):
                yield (i, j, k)


def verify_group(group: GroupData) -> dict:
    """Run the full verification pipeline on one group and return its report."""
    return GroupVerification(build_fan(group)).report()
