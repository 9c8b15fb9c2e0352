import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from antoine import geom3, linking
from antoine.errors import InvalidMultiplicity
from antoine.geom3 import Rotation3, Similarity3, circle_circle_distance, point_circle_distance
from antoine.linking import DEFAULT_PROJECTION_SEED, PolyLoop, gauss_linking, polygonal_linking
from antoine.necklace import (
    GAUSS_TOL,
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
    _rho_classes,
)

from conftest import M_STAR, shift_orbits
from oracles import per_object_child_maps, vector_child_distances


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
        assert [f.name for f in dataclasses.fields(necklace40)] == [
            "multiplicity", "base_torus", "child_maps", "child_tube"
        ]
        for view in ("child_circles", "inverse_maps", "child_centers", "child_normals"):
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


class TestValidate:
    def test_m_star_geometry_passes(self, geometry_report40):
        assert geometry_report40.passed
        names = [c.name for c in geometry_report40.checks]
        assert names == [
            "children_disjoint",
            "children_contained",
            "rho_equivariance",
            "iota_symmetry",
            "maps_onto_circles",
        ]
        assert all(c.margin > 0 for c in geometry_report40.checks)

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

    def test_json_shape(self, geometry_report40):
        doc = geometry_report40.to_json_dict()
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert list(parsed) == ["multiplicity", "passed", "constants", "checks"]
        assert list(parsed["checks"][0]) == ["name", "pass", "margin", "tolerance"]
        assert parsed["constants"]["child_tube"] == pytest.approx(32.0 / 40**2)

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


def shift_axis_rho_classes(m):
    """_rho_classes from every one of the m/2 shifts of every pair, an (2, m(m-1)/2, m/2) array: the reference."""
    pairs = np.triu_indices(m, 1)
    shifted = (np.stack(pairs)[..., None] + 2 * np.arange(m // 2)) % m
    keys = (shifted.min(axis=0) * m + shifted.max(axis=0)).min(axis=1)
    _, reps, classes = np.unique(keys, return_index=True, return_inverse=True)
    return pairs, reps, classes


class TestRhoClassPass:
    """validate_necklace certifies one pair per rho class; the exhaustive oracle certifies every pair."""

    @pytest.fixture(scope="class", params=["m16", "m40", "m16-doubled-tube"])
    def symmetric(self, request):
        n = build_necklace(40 if request.param == "m40" else 16)
        if request.param == "m16-doubled-tube":
            n = dataclasses.replace(n, child_tube=2.0 * n.child_tube)
        return validate_necklace(n, poly_n=128, quad_n=64), exhaustive_pair_checks(n, poly_n=128, quad_n=64)

    def test_same_entries_and_pass_flags(self, symmetric):
        report, (_, entries, _, passed) = symmetric
        assert np.array_equal(report.link_matrix.entries, entries)
        assert {c.name: c.passed for c in report.checks if c.name in passed} == passed

    def test_margin_and_gap_bounded_by_the_oracle(self, symmetric):
        report, (margin, _, gaps, _) = symmetric
        disjoint = next(c for c in report.checks if c.name == "children_disjoint")
        assert disjoint.margin == report.min_pair_clearance
        assert margin - 1e-9 < disjoint.margin <= margin
        assert report.link_matrix.max_gauss_gap <= max(gaps.values())
        # the same quadrature on the same representative pairs
        assert report.link_matrix.max_gauss_gap == max(gaps[min(o)] for o in shift_orbits(report.multiplicity))

    @pytest.mark.parametrize("k", [0, 9])
    def test_moved_child_keeps_the_margin_sound(self, necklace40, k):
        # child k+1 off its rotated seed by 1e-3: a seed (k = 0) or not
        n = moved_child(necklace40, k, 1e-3 * np.array([2.0, -1.0, 2.0]) / 3.0)
        report = validate_necklace(n, poly_n=128, quad_n=64)
        margin, entries, _, _ = exhaustive_pair_checks(n, poly_n=128, quad_n=64)
        by_name = {c.name: c for c in report.checks}
        assert by_name["children_disjoint"].margin <= margin
        assert not by_name["rho_equivariance"].passed
        assert np.array_equal(report.link_matrix.entries, entries)
        assert by_name["link_pattern"].passed

    def test_untransferable_copy_fails_link_pattern(self, necklace40):
        # child 10 off its rotated seed by 0.03, more than half the adjacent
        # core clearance (about 0.042): its copied entries are not certified
        n = moved_child(necklace40, 9, 0.03 * np.array([2.0, -1.0, 2.0]) / 3.0)
        by_name = {c.name: c for c in validate_necklace(n, poly_n=128, quad_n=64).checks}
        assert not by_name["link_pattern"].passed
        assert by_name["link_pattern"].margin <= 0.0

    def test_flipped_child_is_not_a_copy(self, necklace40):
        # child 10 as the same point set with the opposite orientation: the
        # copied entry of pair (9, 10) has the wrong sign, which only the
        # oriented measure (normal - normal, not the +- minimum) sees
        s = necklace40.child_maps[9]
        reverse = Rotation3(s.rot.matrix @ np.diag([1.0, -1.0, -1.0]))  # the pi-rotation about x1 first: e3 -> -e3
        n = with_child_map(necklace40, 9, Similarity3(s.scale, reverse, s.shift))
        circles = n.child_circles
        flipped = necklace40.child_circles[9]
        assert np.array_equal(circles[9].center, flipped.center) and np.array_equal(circles[9].normal, -flipped.normal)
        report = validate_necklace(n, poly_n=128, quad_n=64)
        direct = polygonal_linking(PolyLoop.from_circle(circles[8], 128), PolyLoop.from_circle(circles[9], 128))
        assert report.link_matrix.entries[8, 9] == -direct
        assert not next(c for c in report.checks if c.name == "link_pattern").passed

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

    @pytest.mark.parametrize("m", [10, 16, 38, 40])
    def test_classes_are_the_slot_shift_orbits(self, m):
        (i, j), reps, classes = _rho_classes(m)
        pairs = list(zip(i.tolist(), j.tolist()))
        found = {frozenset(p for p, c in zip(pairs, classes) if c == k) for k in range(len(reps))}
        assert found == shift_orbits(m)
        assert [pairs[r] for r in reps] == sorted(min(orbit) for orbit in found)
        assert pairs[reps[0]] == (0, 1)
        assert {(0, 1), (0, m - 1), (0, 2)} <= {pairs[r] for r in reps}  # the binding pairs

    @pytest.mark.parametrize("m", range(4, 121, 2))
    def test_classes_equal_the_shift_axis_oracle(self, m):
        (i, j), reps, classes = _rho_classes(m)
        (oi, oj), oreps, oclasses = shift_axis_rho_classes(m)
        for got, want in ((i, oi), (j, oj), (reps, oreps), (classes, oclasses)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestMultiplicityScan:
    def test_scan_links_only_what_the_geometry_admits(self):
        (m38, r38), (m40, r40) = scan_multiplicities([38, 40], poly_n=128, quad_n=64)
        assert (m38, m40) == (38, 40)
        assert not r38.passed and r38.link_matrix is None
        assert r40.passed and r40.link_matrix is not None

    def test_first_passing_multiplicity(self, monkeypatch):
        linked = []
        link_matrix = linking.link_matrix
        monkeypatch.setattr(linking, "link_matrix", lambda n, **kw: linked.append(n.multiplicity) or link_matrix(n, **kw))
        m, report = next((m, r) for m, r in scan_multiplicities(range(10, 1001, 2), poly_n=128, quad_n=64) if r.passed)
        assert m == M_STAR
        assert report.passed
        assert linked == [M_STAR]  # every smaller m fails a geometric check, so it is never linked
        direct = validate_necklace(build_necklace(M_STAR), poly_n=128, quad_n=64)
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
