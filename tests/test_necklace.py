import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from antoine import dynamics, geom3, linking, necklace
from antoine.errors import InvalidMultiplicity
from antoine.geom3 import Rotation3, Similarity3, circle_circle_distance, point_circle_distance
from antoine.linking import DEFAULT_PROJECTION_SEED, PolyLoop, gauss_linking, polygonal_linking
from antoine.necklace import (
    GAUSS_TOL,
    CheckRecord,
    build_necklace,
    child_distances,
    is_even_square,
    scan_multiplicities,
    stage_summary,
    torus_at,
    two_slot_rotation,
    validate_necklace,
    word_map,
    word_maps,
    _near_pairs,
    _nest_check,
)

from conftest import M_STAR
from oracles import (
    own_grid_circle_circle_distance, own_grid_containment_clearance, per_object_child_maps, vector_child_distances,
)


class TestBuild:
    def test_constants_m16(self, necklace16):
        assert necklace16.base_torus.tube == pytest.approx(0.5)
        assert necklace16.child_circles[0].radius == pytest.approx(0.25)
        assert necklace16.child_tube == pytest.approx(0.125)
        assert len(necklace16.child_circles) == 16
        assert necklace16.is_even_square  # 16 = 4^2

    @pytest.mark.parametrize("bad", [7, 9, 11, 8, 0, -2, 15])
    def test_invalid_multiplicity(self, bad):
        with pytest.raises(InvalidMultiplicity):
            build_necklace(bad)

    @pytest.mark.parametrize("scale", [0.09, 0.1 * (1 + 2**-52), 1.0])
    def test_child_map_ratio_other_than_four_over_m_rejected(self, necklace40, scale):
        # word_maps, child_distances, the step loop's window and child_reach all read the ratio as 4/m
        s = necklace40.child_maps[6]
        maps = necklace40.child_maps[:6] + (Similarity3(scale, s.rot, s.shift),) + necklace40.child_maps[7:]
        with pytest.raises(ValueError, match=re.escape(f"ratio must be 4/m = 0.1, got {sorted([0.1, scale])}")):
            dataclasses.replace(necklace40, child_maps=maps)

    @pytest.mark.parametrize("tube", [0.0, -1e-3, math.nan, math.inf])
    def test_child_tube_other_than_finite_and_positive_rejected(self, necklace40, tube):
        # _near_pairs reads a ball gap above twice the tube as disjoint balls, so a far pair as unlinked
        with pytest.raises(ValueError, match=re.escape(f"child tube must be finite and positive, got {tube}")):
            dataclasses.replace(necklace40, child_tube=tube)

    def test_only_the_tube_may_change(self, necklace40):
        n = dataclasses.replace(necklace40, parent_tube=0.25)
        assert n.base_torus.tube == 0.25 and n.child_reach == necklace40.child_reach
        core = n.base_torus.core  # the classifier, the volume cull and mesh_stage all put the parent core there
        assert (core.center.tolist(), core.radius, core.normal.tolist()) == ([0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("tube", [0.0, 1.0, math.nan])
    def test_parent_tube_outside_the_unit_core_rejected(self, necklace40, tube):
        with pytest.raises(ValueError, match=re.escape(f"tube radius must lie in (0, core radius), got {tube}")):
            dataclasses.replace(necklace40, parent_tube=tube)

    @pytest.mark.parametrize("field", ["multiplicity", "base_torus"])
    def test_count_and_core_cannot_be_supplied(self, necklace40, field):
        with pytest.raises(TypeError):
            dataclasses.replace(necklace40, **{field: getattr(necklace40, field)})

    def test_m_star_not_even_square(self, necklace40):
        assert not necklace40.is_even_square

    def test_even_square_predicate(self):
        # the one predicate behind Necklace.is_even_square and ExteriorModel.for_multiplicity
        assert [m for m in range(200) if is_even_square(m)] == [0, 4, 16, 36, 64, 100, 144, 196]

    def test_centers_on_base_circle(self, necklace40):
        d = point_circle_distance(necklace40.base_torus.core, necklace40.child_centers)
        assert np.max(d) < 1e-14

    def test_maps_carry_base_onto_children(self, necklace40):
        samples = necklace40.base_torus.core.sample(64)
        for circle, cmap in zip(necklace40.child_circles, necklace40.child_maps):
            image = cmap.apply(samples)
            assert np.max(point_circle_distance(circle, image)) < 1e-10


class TestStackedConstruction:
    """build_necklace projects the rho^k, their inverses and the rho^k seed products as three stacks, and
    keeps the bytes of the construction that made each of them a projected Rotation3."""

    @staticmethod
    def map_bytes(s):
        return np.float64(s.scale).tobytes(), s.rot.matrix.tobytes(), s.shift.tobytes()

    @pytest.mark.parametrize("m", [10, 40, 64, 300])
    def test_equals_the_per_object_construction(self, m):
        n = build_necklace(m)
        want = per_object_child_maps(m)
        assert len(n.child_maps) == len(want) == m
        assert [self.map_bytes(s) for s in n.child_maps] == [self.map_bytes(s) for s in want]
        assert [self.map_bytes(s) for s in n.inverse_maps] == [self.map_bytes(s.invert()) for s in want]

    def test_one_rotation_object_per_child(self, monkeypatch):
        made = []
        original = geom3.Rotation3.__post_init__

        def counting(self):
            made.append(1)
            original(self)

        monkeypatch.setattr(geom3.Rotation3, "__post_init__", counting)
        build_necklace(40)
        assert len(made) == 40  # two seeds, each aligned by one about_axis, and 38 conjugates
        made.clear()
        per_object_child_maps(40)
        assert len(made) == 40 + 3 * 38


class TestChildViews:
    """The necklace stores each child once, as its map; every other view of the child is derived from it."""

    def test_fields_are_the_maps_and_the_tubes(self, necklace40):
        assert [f.name for f in dataclasses.fields(necklace40)] == ["parent_tube", "child_maps", "child_tube"]
        assert necklace40.multiplicity == len(necklace40.child_maps) == 40
        for view in ("base_torus", "child_circles", "inverse_maps", "child_centers", "child_normals"):
            assert getattr(necklace40, view) is getattr(necklace40, view)  # computed once
        assert not necklace40.child_centers.flags.writeable and not necklace40.child_normals.flags.writeable

    def test_views_follow_a_moved_map(self, necklace40):
        # child 10 moved through its map: its circle, centre, normal and inverse move with it
        offset = 1e-3 * np.array([2.0, -1.0, 2.0]) / 3.0
        n = moved_child(necklace40, 9, offset)
        by_name = {c.name: c for c in validate_necklace(n, check_linking=False).checks}
        assert by_name["maps_onto_circles"].passed
        assert not by_name["rho_equivariance"].passed
        old = necklace40.child_circles[9]
        assert np.array_equal(n.child_circles[9].center, old.center + offset)
        assert np.array_equal(n.child_centers[9], old.center + offset)
        assert np.array_equal(n.child_normals[9], old.normal)
        assert np.array_equal(n.child_centers[8], necklace40.child_centers[8])
        # the inverse expands by m/4 = 10, so a unit-size round trip is exact to about 10 ulps;
        # a stale inverse misses by about 7e-3
        p = n.base_torus.core.sample(64)
        assert np.max(np.abs(n.inverse_maps[9].apply(n.child_maps[9].apply(p)) - p)) < 1e-14
        q = n.child_circles[9].sample(64)
        assert np.max(np.abs(n.child_maps[9].apply(n.inverse_maps[9].apply(q)) - q)) < 1e-15

    def test_views_cannot_be_replaced(self, necklace40):
        with pytest.raises(TypeError):
            dataclasses.replace(necklace40, child_circles=necklace40.child_circles)

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64, 400, 1000])
    def test_child_frames_are_the_per_circle_frames(self, m):
        # one stacked circle_frames call, lazily: building the necklace does not pay for it; its rows have the
        # bits of each circle's own one-row frame, and each child circle's basis() then returns its row
        n = build_necklace(m)
        assert "child_frames" not in vars(n)
        u, v = n.child_frames
        assert n.child_frames is n.child_frames and not u.flags.writeable and not v.flags.writeable
        for k, (c, own) in enumerate(zip(n.child_circles, build_necklace(m).child_circles)):
            own_u, own_v = own.basis()  # a one-row circle_frames call: that necklace's frames are not stacked
            assert np.array_equal(u[k], own_u) and np.array_equal(v[k], own_v)
            assert all(np.shares_memory(row, frame) for row, frame in zip(c.basis(), (u, v)))


class TestValidate:
    def test_m_star_geometry_passes(self, geometry_report40):
        assert geometry_report40.passed
        names = [c.name for c in geometry_report40.checks]
        assert names == [
            "children_disjoint",
            "children_contained",
            "children_nest",
            "rho_equivariance",
            "iota_symmetry",
            "maps_onto_circles",
        ]
        assert all(c.margin > 0 for c in geometry_report40.checks)

    @pytest.mark.parametrize("sizes", [{"clearance_grid": 511.5}, {"clearance_grid": 512.0}, {"clearance_grid": 4}])
    def test_non_integer_or_small_clearance_grid_rejected(self, necklace40, sizes):
        with pytest.raises(ValueError, match=r"^grid_n must be an integer >= 8, "):
            validate_necklace(necklace40, check_linking=False, **sizes)

    def test_symmetry_margins_tight(self, geometry_report40):
        by_name = {c.name: c for c in geometry_report40.checks}
        # construction enforces the symmetries exactly up to rounding
        assert by_name["rho_equivariance"].margin > 1e-10 - 1e-13
        assert by_name["iota_symmetry"].margin > 1e-10 - 1e-13

    def test_doubled_tube_fails_disjointness(self, necklace40):
        fat = dataclasses.replace(necklace40, child_tube=2.0 * necklace40.child_tube)
        report = validate_necklace(fat, check_linking=False)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["children_disjoint"].passed
        assert not report.passed

    def test_small_multiplicity_fails(self):
        report = validate_necklace(build_necklace(16), check_linking=False)
        assert not report.passed

    def test_every_verdict_up_to_m_64(self):
        # each verdict is the sign of its margin: the failing checks of every even m in 10..64
        failing = {m: tuple(c.name for c in validate_necklace(build_necklace(m)).checks if not c.passed)
                   for m in range(10, 65, 2)}
        assert failing == {m: ("children_disjoint",) if m <= 38 else () for m in range(10, 65, 2)}

    def test_verdict_is_the_sign_of_the_margin(self):
        verdicts = [CheckRecord("x", margin, 0.0).passed for margin in (5e-324, 0.0, -0.0, -1.0, math.nan, math.inf)]
        assert verdicts == [True, False, False, False, False, True]
        assert [f.name for f in dataclasses.fields(CheckRecord)] == ["name", "margin", "tolerance"]

    def test_mismatched_map_count_rejected(self, necklace40):
        # m is the map count: 20 of m = 40's maps is an m = 20 necklace whose maps have the wrong ratio
        with pytest.raises(ValueError, match=re.escape("ratio must be 4/m = 0.2, got [0.1]")):
            dataclasses.replace(necklace40, child_maps=necklace40.child_maps[:20])

    @pytest.mark.parametrize("count", [0, 8, 39])
    def test_empty_odd_or_short_map_count_rejected(self, necklace40, count):
        # build_necklace's rule: an even integer >= 10
        with pytest.raises(InvalidMultiplicity, match=f"multiplicity must be an even integer >= 10, got {count}$"):
            dataclasses.replace(necklace40, child_maps=necklace40.child_maps[:count])

    @pytest.mark.parametrize("m", [40, 20])
    def test_thin_child_tube_fails_children_nest_alone(self, m):
        # a child tube of 0.001 passes every other check, yet the maps do not carry the parent torus into the
        # child tori: at m = 40 the classifier labels every chaos-game point escaped
        thin = dataclasses.replace(build_necklace(m), child_tube=0.001)
        report = validate_necklace(thin)
        assert [c.name for c in report.checks if not c.passed] == ["children_nest"]
        if m == 40:
            status, _, _ = dynamics.classify_points(thin, dynamics.chaos_game_sample(thin, 500, 20, seed=1), 40)
            assert np.all(status == dynamics.ESCAPED)

    def test_built_child_tubes_nest_within_the_allowance(self):
        # 32/m^2 < (4/m)(8/m) in floating point at 119 of the even m in 10..1000, m = 40 among them
        ms = range(10, 1001, 2)
        short = [m for m in ms if 32.0 / m**2 < (4.0 / m) * (8.0 / m)]
        assert len(short) == 119 and 40 in short
        assert all(_nest_check(32.0 / m**2, 4.0 / m, 8.0 / m).passed for m in ms)
        for m in (10, 40, 64):
            n = build_necklace(m)
            assert (n.child_tube, n.contraction, n.base_torus.tube) == (32.0 / m**2, 4.0 / m, 8.0 / m)

    def test_child_tube_short_by_more_than_the_allowance_fails(self):
        scaled = (4.0 / 40) * (8.0 / 40)
        assert not _nest_check(scaled * (1.0 - 1e-14), 4.0 / 40, 8.0 / 40).passed
        assert _nest_check(scaled, 4.0 / 40, 8.0 / 40).margin == 4.0 * np.finfo(float).eps * scaled

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64, 100, 400])
    def test_sampled_bounds_equal_their_own_forms(self, m):
        # the clearance and containment bounds share one sampling helper: each keeps the bits of its own form
        n = build_necklace(m)
        margins = {c.name: c.margin for c in validate_necklace(n, check_linking=False).checks}
        assert margins["children_contained"] == own_grid_containment_clearance(n)
        c = n.child_circles
        (i, j), far_gap = _near_pairs(n)
        bounds = [own_grid_circle_circle_distance(c[a], c[b], 512) for a, b in zip(i, j)]
        assert margins["children_disjoint"] == min(bounds) - 2.0 * n.child_tube
        assert far_gap > min(bounds)  # a far pair never binds on the built necklace

    def test_json_shape(self, geometry_report40):
        doc = geometry_report40.to_json_dict()
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert list(parsed) == ["multiplicity", "passed", "constants", "checks"]
        assert list(parsed["checks"][0]) == ["name", "pass", "margin", "tolerance"]
        assert parsed["constants"]["child_tube"] == pytest.approx(32.0 / 40**2)

    def test_fields_are_the_necklace_the_checks_and_the_links(self, necklace40, geometry_report40):
        assert [f.name for f in dataclasses.fields(geometry_report40)] == ["necklace", "checks", "link_matrix"]
        assert geometry_report40.necklace is necklace40
        doc, margins = geometry_report40.to_json_dict(), {c.name: c.margin for c in geometry_report40.checks}
        assert doc["multiplicity"] == 40
        assert doc["constants"] == {
            "parent_tube": necklace40.parent_tube,
            "child_tube": necklace40.child_tube,
            "min_pair_clearance": margins["children_disjoint"],
            "containment_clearance": margins["children_contained"],
        }

    def test_link_matrix_only_when_linking_checked(self, geometry_report40):
        assert geometry_report40.link_matrix is None


def exhaustive_pair_checks(n, poly_n, quad_n):
    """The pair-by-pair oracle: every child pair certified on its own, with no symmetry used.

    Returns the children_disjoint margin, the link entries, each pair's gap
    between the Gauss quadrature and its entry, and the pass flag of each
    pair check.
    """
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    margin, entries, gaps = math.inf, np.zeros((m, m), dtype=int), {}
    for i, j in itertools.combinations(range(m), 2):
        a, b = n.child_circles[i], n.child_circles[j]
        margin = min(margin, circle_circle_distance(a, b) - 2.0 * n.child_tube)
        lk = polygonal_linking(PolyLoop.from_circle(a, poly_n), PolyLoop.from_circle(b, poly_n), rng=rng)
        entries[i, j] = entries[j, i] = lk
        gaps[i, j] = abs(gauss_linking(a, b, quad_n) - lk)
    expected = np.zeros((m, m), dtype=int)
    for j in range(m):
        expected[j, (j + 1) % m] = expected[(j + 1) % m, j] = 1
    passed = {
        "children_disjoint": margin > 0.0,
        "link_pattern": np.array_equal(np.abs(entries), expected),
        "link_gauss_agreement": max(gaps.values()) < GAUSS_TOL,
    }
    return margin, entries, gaps, passed


def with_child_map(n, k, s):
    """The necklace with child k (0-based) mapped by s, everything else kept."""
    maps = list(n.child_maps)
    maps[k] = s
    return dataclasses.replace(n, child_maps=tuple(maps))


def moved_child(n, k, offset):
    """The necklace with child k (0-based) translated by offset through its map, everything else kept."""
    s = n.child_maps[k]
    return with_child_map(n, k, Similarity3(s.scale, s.rot, s.shift + offset))


def flipped_child(n, k):
    """The necklace with child k (0-based) as the same point set with the opposite orientation."""
    s = n.child_maps[k]
    reverse = Rotation3(s.rot.matrix @ np.diag([1.0, -1.0, -1.0]))  # the pi-rotation about x1 first: e3 -> -e3
    return with_child_map(n, k, Similarity3(s.scale, reverse, s.shift))


def computed_ball_gap(n, a, b):
    """The centre distance d and ball gap d - 2 r of children a and b in Python floats, in _near_pairs' order and
    with no rounding allowance."""
    dx, dy, dz = (float(p - q) for p, q in zip(n.child_centers[a], n.child_centers[b]))
    d = math.sqrt((dx * dx + dy * dy) + dz * dz)
    return d, d - 2.0 * n.contraction


def near_pair_set(n):
    (i, j), _ = _near_pairs(n)
    return set(zip(i.tolist(), j.tolist()))


def adjacent_pairs(m):
    return {(k, k + 1) for k in range(m - 1)} | {(0, m - 1)}


class TestNearPairPass:
    """validate_necklace evaluates the near pairs only; the exhaustive oracle certifies every pair."""

    @pytest.fixture(scope="class", params=["m16", "m40", "m16-doubled-tube", "m40-moved-child", "m40-flipped-child"])
    def pair_checks(self, request):
        n = build_necklace(40 if request.param.startswith("m40") else 16)
        if request.param == "m16-doubled-tube":
            n = dataclasses.replace(n, child_tube=2.0 * n.child_tube)
        elif request.param == "m40-moved-child":  # child 10 off its rotated seed by 1e-3
            n = moved_child(n, 9, 1e-3 * np.array([2.0, -1.0, 2.0]) / 3.0)
        elif request.param == "m40-flipped-child":
            n = flipped_child(n, 9)
        return n, validate_necklace(n, quad_n=64), exhaustive_pair_checks(n, poly_n=128, quad_n=64)

    def test_same_entries_and_pass_flags(self, pair_checks):
        _, report, (_, entries, _, passed) = pair_checks
        assert np.array_equal(report.link_matrix.entries, entries)
        assert {c.name: c.passed for c in report.checks if c.name in passed} == passed

    def test_margin_and_gap_bounded_by_the_oracle(self, pair_checks):
        n, report, (margin, _, gaps, _) = pair_checks
        disjoint = next(c for c in report.checks if c.name == "children_disjoint")
        assert margin - 1e-9 < disjoint.margin <= margin
        # the same quadrature on the near pairs
        assert report.link_matrix.max_gauss_gap == max(gaps[p] for p in near_pair_set(n))

    def test_near_pairs_are_those_whose_balls_come_within_the_tubes(self, pair_checks):
        n, _, _ = pair_checks
        pairs = itertools.combinations(range(n.multiplicity), 2)
        gaps = {p: math.dist(*n.child_centers[list(p)]) - 2.0 * n.contraction for p in pairs}
        need = 2.0 * n.child_tube
        assert min(abs(g - need) for g in gaps.values()) > 1e-9  # no pair's gap lies near the threshold
        assert near_pair_set(n) == {p for p, g in gaps.items() if g <= need} >= adjacent_pairs(n.multiplicity)
        assert _near_pairs(n)[1] == pytest.approx(min(g for g in gaps.values() if g > need), rel=1e-14)

    @pytest.mark.parametrize("m", [*range(10, 121, 2), 400, 1000])
    def test_built_necklace_near_pairs_are_the_adjacent_slots(self, m):
        # from m = 16 on, the m adjacent pairs; below it the pairs two slots apart too
        reach = 1 if m >= 16 else 2
        want = {(a, b) for a, b in itertools.combinations(range(m), 2) if min(b - a, m - b + a) <= reach}
        assert near_pair_set(build_necklace(m)) == want

    def test_flipped_child_flips_its_entries(self, necklace40):
        n = flipped_child(necklace40, 9)
        flipped = necklace40.child_circles[9]
        assert np.array_equal(n.child_circles[9].center, flipped.center)
        assert np.array_equal(n.child_circles[9].normal, -flipped.normal)
        entries = validate_necklace(n, quad_n=64).link_matrix.entries
        loops = [PolyLoop.from_circle(n.child_circles[k], 128) for k in (8, 9)]
        unflipped = validate_necklace(necklace40, quad_n=64).link_matrix.entries
        assert entries[8, 9] == polygonal_linking(*loops) == -unflipped[8, 9]

    @pytest.mark.parametrize("k", [0, 9])
    def test_move_toward_a_neighbour_fails_on_both_paths(self, necklace40, k):
        toward = necklace40.child_circles[k + 1].center - necklace40.child_circles[k].center
        n = moved_child(necklace40, k, 5e-3 * toward / np.linalg.norm(toward))
        report = validate_necklace(n, check_linking=False)
        margin = min(
            circle_circle_distance(a, b) - 2.0 * n.child_tube for a, b in itertools.combinations(n.child_circles, 2)
        )
        assert margin <= 0.0
        assert not next(c for c in report.checks if c.name == "children_disjoint").passed

    def test_gap_within_the_rounding_allowance_is_evaluated(self, necklace40, monkeypatch):
        # children 1 and 3 are two slots apart, a far pair, unless twice the child tube lies within the
        # allowance of their computed gap: 2 ulps of it in, the pair is evaluated; 8 ulps out, it is not
        d, gap = computed_ball_gap(necklace40, 0, 2)
        ulps = np.finfo(float).eps * (d + 2.0 * necklace40.contraction)
        inside = dataclasses.replace(necklace40, child_tube=0.5 * (gap - 2.0 * ulps))
        outside = dataclasses.replace(necklace40, child_tube=0.5 * (gap - 8.0 * ulps))
        assert gap > 2.0 * inside.child_tube > 2.0 * outside.child_tube
        assert (0, 2) in near_pair_set(inside) and (0, 2) not in near_pair_set(outside)
        measured = []
        original = necklace.circle_circle_distance
        monkeypatch.setattr(necklace, "circle_circle_distance", lambda a, b, n: measured.append((a, b)) or original(a, b, n))
        validate_necklace(inside, check_linking=False)
        assert any(a is inside.child_circles[0] and b is inside.child_circles[2] for a, b in measured)

    def test_far_pair_entries_are_never_computed(self, necklace40, monkeypatch):
        index = {id(c): k for k, c in enumerate(necklace40.child_circles)}
        child = {tuple(c): k for k, c in enumerate(necklace40.child_centers.tolist())}
        evaluated = {name: [] for name in ("circle_circle_distance", "_loop_linking", "_disk_crossings")}
        original = necklace.circle_circle_distance

        def distance(a, b, *args):
            evaluated["circle_circle_distance"].append((index[id(a)], index[id(b)]))
            return original(a, b, *args)

        monkeypatch.setattr(necklace, "circle_circle_distance", distance)
        loop_linking, disk_crossings = linking._loop_linking, linking._disk_crossings

        def loops(centers, normals, radii, points, tangents, radii_b):  # a by its centre, b by its first sample
            for c, p in zip(centers, points[:, :, 0].T):
                b = int(np.argmin([point_circle_distance(k, p) for k in necklace40.child_circles]))
                evaluated["_loop_linking"].append((child[tuple(c.tolist())], b))
            return loop_linking(centers, normals, radii, points, tangents, radii_b)

        def disks(centers, normals, radii, centers_b, u_b, v_b, radii_b):  # a and b by their centres
            for p, q in zip(centers.tolist(), centers_b.tolist()):
                evaluated["_disk_crossings"].append((child[tuple(p)], child[tuple(q)]))
            return disk_crossings(centers, normals, radii, centers_b, u_b, v_b, radii_b)

        monkeypatch.setattr(linking, "_loop_linking", loops)
        monkeypatch.setattr(linking, "_disk_crossings", disks)
        report = validate_necklace(necklace40, quad_n=64)
        adjacent = adjacent_pairs(40)
        assert all(sorted(pairs) == sorted(adjacent) for pairs in evaluated.values()), evaluated
        linked = np.zeros((40, 40), dtype=bool)
        for a, b in adjacent:
            linked[a, b] = linked[b, a] = True
        assert np.array_equal(report.link_matrix.entries != 0, linked)


class TestMultiplicityScan:
    def test_scan_links_only_what_the_geometry_admits(self):
        (m38, r38), (m40, r40) = scan_multiplicities([38, 40], quad_n=64)
        assert (m38, m40) == (38, 40)
        assert not r38.passed and r38.link_matrix is None
        assert r40.passed and r40.link_matrix is not None

    def test_first_passing_multiplicity(self, monkeypatch):
        linked = []
        link_matrix = linking.link_matrix
        monkeypatch.setattr(linking, "link_matrix", lambda n, **kw: linked.append(n.multiplicity) or link_matrix(n, **kw))
        m, report = next((m, r) for m, r in scan_multiplicities(range(10, 1001, 2), quad_n=64) if r.passed)
        assert m == M_STAR
        assert report.passed
        assert linked == [M_STAR]  # every smaller m fails a geometric check, so it is never linked
        direct = validate_necklace(build_necklace(M_STAR), quad_n=64)
        assert report.to_json_dict() == direct.to_json_dict()
        assert np.array_equal(report.link_matrix.entries, direct.link_matrix.entries)


class TestTorusAt:
    def test_empty_address(self, necklace40):
        t = torus_at(necklace40, ())
        assert t.tube == necklace40.base_torus.tube
        assert np.allclose(t.core.center, necklace40.base_torus.core.center)

    def test_single_digit_tube(self, necklace40):
        m = necklace40.multiplicity
        assert torus_at(necklace40, (3,)).tube == pytest.approx(32.0 / m**2)

    def test_depth_two_matches_sequential_application(self, necklace40):
        # oracle: apply the two child maps one after the other
        t = torus_at(necklace40, (1, 1))
        direct = necklace40.base_torus.transform(necklace40.child_maps[0]).transform(
            necklace40.child_maps[0]
        )
        assert t.core.radius == pytest.approx(necklace40.contraction**2, rel=1e-13)
        assert np.allclose(t.core.center, direct.core.center, atol=1e-14)
        assert t.tube == pytest.approx(direct.tube, rel=1e-13)

    def test_scale_law(self, necklace40):
        for word in [(5,), (1, 2), (7, 40, 13), (2, 2, 2, 2)]:
            t = torus_at(necklace40, word)
            expected = necklace40.contraction ** len(word)
            assert t.tube / necklace40.base_torus.tube == pytest.approx(expected, rel=1e-13)

    def test_self_similarity(self, necklace40):
        # torus_at(a + b) is the image of torus_at(b) under the map of a;
        # compare as point sets since sampling bases are not equivariant
        a, b = (3, 11), (7,)
        target = torus_at(necklace40, a + b)
        image = word_map(necklace40, a).apply(torus_at(necklace40, b).core.sample(64))
        assert np.max(point_circle_distance(target.core, image)) < 1e-10
        mapped = torus_at(necklace40, b).transform(word_map(necklace40, a))
        assert np.allclose(mapped.core.center, target.core.center, atol=1e-12)
        assert mapped.tube == pytest.approx(target.tube, rel=1e-12)

    def test_nesting_boundary_samples(self, necklace40):
        # 256 tube-surface samples of each child lie strictly inside the parent
        rng = np.random.default_rng(9)
        for j in (1, 14, 40):
            child = torus_at(necklace40, (j,))
            a = rng.uniform(0, 2 * math.pi, 256)
            b = rng.uniform(0, 2 * math.pi, 256)
            u, v = child.core.basis()
            radial = np.cos(a)[:, None] * u + np.sin(a)[:, None] * v
            surface = (
                child.core.center
                + child.core.radius * radial
                + child.tube * (np.cos(b)[:, None] * radial + np.sin(b)[:, None] * child.core.normal)
            )
            d = point_circle_distance(necklace40.base_torus.core, surface)
            assert np.max(d) < necklace40.base_torus.tube

    def test_rho_equivariance_stage_two(self, necklace40):
        # conjugation pushes the two-slot shift through every stage
        rho = two_slot_rotation(necklace40.multiplicity)
        lhs = rho.apply(torus_at(necklace40, (1, 5)).core.sample(16))
        rhs = torus_at(necklace40, (3, 7)).core.sample(16)
        d = np.array([point_circle_distance(torus_at(necklace40, (3, 7)).core, p) for p in lhs])
        assert np.max(d) < 1e-10
        assert np.allclose(sorted(lhs[:, 2]), sorted(rhs[:, 2]), atol=1e-10)

    def test_bad_digit_rejected(self, necklace40):
        with pytest.raises(ValueError):
            torus_at(necklace40, (0,))
        with pytest.raises(ValueError):
            torus_at(necklace40, (41,))


class TestWordMaps:
    @staticmethod
    def chain(n, word):
        """The compose chain of the word, and whether any link re-projected its rotation."""
        acc, reprojected = Similarity3.identity(), False
        for d in word:
            nxt = acc.compose(n.child_maps[d - 1])
            reprojected |= not np.array_equal(nxt.rot.matrix, acc.rot.matrix @ n.child_maps[d - 1].rot.matrix)
            acc = nxt
        return acc, reprojected

    @pytest.mark.parametrize("length,count", [(2, None), (3, 2000), (12, 256)])
    def test_rows_equal_compose_chain(self, necklace40, length, count):
        if count is None:
            words = np.array(list(itertools.product(range(1, 41), repeat=length)))
        else:
            words = np.random.default_rng(40 + length).integers(1, 41, size=(count, length))
        scales, rots, shifts = word_maps(necklace40, words)
        reprojected = 0
        for w, s, r, t in zip(words.tolist(), scales, rots, shifts):
            ref, redo = self.chain(necklace40, w)
            reprojected += redo
            assert s == ref.scale
            assert np.array_equal(r, ref.rot.matrix)
            assert np.array_equal(t, ref.shift)
        # the length-3 and length-12 samples must cover the SVD branch of the projection
        assert length == 2 or reprojected > 0

    def test_word_map_is_one_row(self, necklace40):
        w = (7, 40, 13, 2)
        s = word_map(necklace40, w)
        scales, rots, shifts = word_maps(necklace40, [w])
        assert s.scale == scales[0] and np.array_equal(s.rot.matrix, rots[0]) and np.array_equal(s.shift, shifts[0])
        empty = word_map(necklace40, ())
        assert empty.scale == 1.0 and np.array_equal(empty.rot.matrix, np.eye(3)) and not empty.shift.any()

    @pytest.mark.parametrize("words", [[[0, 1]], [[1, 41]], [1, 2]])
    def test_bad_words_rejected(self, necklace40, words):
        with pytest.raises(ValueError):
            word_maps(necklace40, words)

    @pytest.mark.parametrize("words", [[[1.5, 2]], [[1, 2 + 1e-12]], [[39.5, 1]], [[math.nan, 2]], [[3, math.inf]]])
    def test_non_integer_digits_rejected(self, necklace40, words):
        # a cast to integers would truncate 1.5 to the digit 1
        with pytest.raises(ValueError, match="integer address digits"):
            word_maps(necklace40, words)

    def test_integral_float_digits_are_the_digits(self, necklace40):
        got, want = word_maps(necklace40, [[1.0, 40.0]]), word_maps(necklace40, [[1, 40]])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestStageSummary:
    def test_stage_zero_m16(self, necklace16):
        s = stage_summary(necklace16, 0)
        assert s.count == 1
        assert s.max_diameter == pytest.approx(3.0)

    def test_stage_one_m16(self, necklace16):
        s = stage_summary(necklace16, 1)
        assert s.count == 16
        assert s.max_diameter == pytest.approx(0.75)

    def test_geometric_decay(self, necklace16):
        diams = [stage_summary(necklace16, k).max_diameter for k in range(11)]
        assert all(a > b for a, b in zip(diams, diams[1:]))
        assert diams[10] / diams[0] == pytest.approx(0.25**10, rel=1e-12)

    @pytest.mark.parametrize("k", [1.5, 2.0, -1])
    def test_stage_is_an_integer(self, necklace16, k):
        with pytest.raises(ValueError, match=f"k, the stage, must be an integer >= 0, got {k}"):
            stage_summary(necklace16, k)

    def test_numpy_integer_stage(self, necklace16):
        assert stage_summary(necklace16, np.int64(2)) == stage_summary(necklace16, 2)

    @pytest.mark.parametrize("tube,diameter", [(4.6 / 40, 2.23), (0.3, 2.6)])
    def test_replaced_parent_tube(self, necklace40, tube, diameter):
        # the parent is the unit circle thickened by its tube: points (1 + tube) e1 and -(1 + tube) e1 are farthest
        n = dataclasses.replace(necklace40, parent_tube=tube)
        assert stage_summary(n, 0).max_diameter == pytest.approx(diameter, rel=1e-15)
        assert stage_summary(n, 2).max_diameter == 0.1**2 * (2.0 * (1.0 + tube))

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64, 400])
    def test_default_tube_keeps_the_bits(self, m):
        assert stage_summary(build_necklace(m), 1).max_diameter == (4.0 / m) * (2.0 + 16.0 / m)


class TestChildDistances:
    """The component-form kernel has the bits of the vector form (tests/oracles.py) for every kind of slots."""

    @pytest.mark.parametrize("m", [10, 40, 300])
    def test_equals_the_vector_form_bit_for_bit(self, m):
        n = build_necklace(m)
        rng = np.random.default_rng(m)
        count = 3000
        # about the child cores, where the claims are decided, and anywhere in and around the parent torus
        near = n.child_centers[rng.integers(0, m, count)] + rng.normal(scale=n.contraction, size=(count, 3))
        far = rng.uniform(-3.0, 3.0, (count, 3))
        for pts in (near, far):
            windows = [rng.integers(0, m, (count, 2 * k)) for k in (1, 2, 3)]  # (N, 2k), as the step loop gathers
            whole = [rng.permutation(m)[None], np.arange(m)[None]]  # (1, m): every child, in any order
            for slots in [*windows, *whole]:
                got, want = child_distances(n, pts, slots), vector_child_distances(n, pts, slots)
                assert got.shape == want.shape == (count, slots.shape[1])
                assert got.tobytes() == want.tobytes()
            got, want = child_distances(n, pts), vector_child_distances(n, pts)  # the default slice: all m
            assert got.shape == (count, m) and got.tobytes() == want.tobytes()
            assert child_distances(n, pts[0]).tobytes() == vector_child_distances(n, pts[0]).tobytes()

    def test_huge_signed_zero_and_axis_points_bit_for_bit(self, necklace40):
        pts = np.array([[1e154, 0.0, 0.0], [-1e154, 1e154, 1e154], [1e300, 0.0, 0.0], [0.0, 0.0, -1e300],
                        [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.2], [1.0, -0.0, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = child_distances(necklace40, pts)
        with np.errstate(over="ignore"):  # the vector form warns where a square overflows
            want = vector_child_distances(necklace40, pts)
        assert got.tobytes() == want.tobytes() and np.isinf(got[2:4]).all()
