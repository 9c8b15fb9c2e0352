import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antoine import dynamics, exports
from antoine.errors import DegenerateFit, MultipleChildren, NonInvertibleJacobian, UndefinedAtOrigin
from antoine.dynamics import (
    BOUNDARY_TOL,
    DEFAULT_BUDGET,
    ESCAPED,
    EXTERIOR,
    MAX_BUDGET,
    MAX_DEGREE_ROOT,
    NOISE_FLOOR,
    SURVIVED,
    EscapeKind,
    ExteriorModel,
    WINDOW_MARGIN,
    _CHUNK,
    _bracketing_children,
    _one_sided_hausdorff,
    box_dimension_estimate,
    chaos_game_sample,
    classify_points,
    coding_point,
    density_report,
    dilatation_estimate,
    enumerate_periodic,
    exterior_model_map,
    orbit,
    periodic_point_cloud,
    similarity_dimension,
    winding_map,
)
from antoine.exports import DEFAULT_BBOX, voxel_centers
from antoine.geom3 import circle_frames, fixed_points, point_circle_distance
from antoine.necklace import (
    build_necklace, child_distances, stage_summary, torus_at, two_slot_rotation, word_map, word_maps,
)

from conftest import torus_membership
from oracles import child_shell, full_state_step_loop, level_loop_chaos_game, rebuilt_window, vector_child_distances

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
vectors = st.builds(lambda x, y, z: np.array([x, y, z]), coords, coords, coords)


def one_step(n, p):
    """classify_points' first step on one point: (status, digit), digit 0 unless the point stays."""
    status, _, itinerary = classify_points(n, p, 1, itinerary_digits=1)
    return int(status[0]), int(itinerary[0, 0])


def chunk_pull_back(n, p, budget):
    """dynamics._classify_chunk on one row: (status, depth, digits, last position)."""
    status, depth = np.full(1, SURVIVED, dtype=np.uint8), np.full(1, budget, dtype=np.int32)
    itinerary, last = np.zeros((1, budget), dtype=np.int16), np.empty((1, 3))
    dynamics._classify_chunk(n, np.asarray(p, dtype=float)[None], 0, budget, status, depth, itinerary, last)
    return int(status[0]), int(depth[0]), tuple(int(d) for d in itinerary[0] if d), last[0]


class TestFirstStep:
    def test_origin_not_in_parent(self, necklace40):
        assert one_step(necklace40, np.zeros(3)) == (EXTERIOR, 0)

    def test_core_point_maps_to_base_circle(self, necklace40):
        p = necklace40.child_circles[0].sample(16)[5]
        assert one_step(necklace40, p) == (SURVIVED, 1)
        image = necklace40.inverse_maps[0].apply(p)
        assert point_circle_distance(necklace40.base_torus.core, image) < 1e-12

    def test_gap_point_exits(self, necklace40):
        # the base-circle point midway between child centers is in no child
        p = necklace40.base_torus.core.point_at(0.0)
        for c in necklace40.child_circles:
            d = point_circle_distance(c, p)
            assert d > necklace40.child_tube
        assert one_step(necklace40, p) == (ESCAPED, 0)

    def test_core_sample_digit(self, necklace40):
        p = necklace40.child_circles[0].sample(8)[2]
        assert one_step(necklace40, p)[1] == 1

    def test_child_center_exits(self, necklace40):
        # the circle center is radius 4/m from the curve, above tube 32/m^2
        assert one_step(necklace40, necklace40.child_centers[0]) == (ESCAPED, 0)

    def test_multiple_children_on_invalid_necklace(self, necklace40, monkeypatch):
        fat = dataclasses.replace(necklace40, child_tube=8.0 * necklace40.child_tube)
        a, b = fat.child_circles[0], fat.child_circles[1]
        pa = a.sample(512)
        db = point_circle_distance(b, pa)
        p = pa[int(np.argmin(db))]
        mid = 0.5 * (p + b.sample(512)[int(np.argmin(point_circle_distance(a, b.sample(512))))])
        with pytest.raises(MultipleChildren):
            classify_points(fat, mid, 1)
        # in a later chunk the message names the point's index in the input
        pts = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0], mid])
        monkeypatch.setattr(dynamics, "_CHUNK", 2)
        with pytest.raises(MultipleChildren, match="point index 3 "):
            classify_points(fat, pts, 4)

    def test_conjugacy(self, necklace40):
        rng = np.random.default_rng(21)
        for _ in range(20):
            j = int(rng.integers(1, 41))
            angle = rng.uniform(0, 2 * math.pi)
            p = torus_at(necklace40, (j,)).core.point_at(angle)
            status, digit = one_step(necklace40, p)
            assert (status, digit) == (SURVIVED, j)
            back = necklace40.child_maps[digit - 1].apply(necklace40.inverse_maps[digit - 1].apply(p))
            assert np.linalg.norm(back - p) <= 1e-12 * (1.0 + np.linalg.norm(p))


def mixed_points(n, seed):
    """Seeded uniform points, attractor samples, and points within 1e-10 of
    the parent's and the children's tube surfaces."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(-1.6, 1.6, size=(200, 3))
    attractor = chaos_game_sample(n, 100, 20, seed=seed)
    near = []
    for delta in rng.uniform(-1e-10, 1e-10, size=100):
        j = int(rng.integers(0, n.multiplicity))
        c = n.child_circles[j]
        on = c.point_at(rng.uniform(0, 2 * math.pi))
        u = (on - c.center) / c.radius
        near.append(c.center + (c.radius + n.child_tube + delta) * u)
        base = n.base_torus.core.point_at(rng.uniform(0, 2 * math.pi))
        near.append(base * (1.0 + n.base_torus.tube + delta))
    return np.concatenate([uniform, attractor, np.array(near)])


class TestOneStepLoop:
    """orbit runs the classifier's step loop on one point."""

    def test_orbit_matches_classifier(self, necklace40):
        pts = mixed_points(necklace40, 41)
        budget = 20
        status, depth, itinerary = classify_points(necklace40, pts, budget, itinerary_digits=budget)
        kinds = {EXTERIOR: EscapeKind.EXTERIOR, ESCAPED: EscapeKind.ESCAPED, SURVIVED: EscapeKind.SURVIVED}
        assert set(status.tolist()) == {EXTERIOR, ESCAPED, SURVIVED}
        for p, s, d, digits in zip(pts, status, depth, itinerary):
            rec = orbit(necklace40, ExteriorModel(2), p, max_iter=budget)
            assert rec.exit is kinds[int(s)]
            assert rec.exit_depth == (int(d) if s == ESCAPED else None)
            assert rec.itinerary == tuple(int(x) for x in digits if x)

    def test_one_step_image_is_the_inverse_map(self, necklace40):
        pts = mixed_points(necklace40, 42)
        status, _, itinerary = classify_points(necklace40, pts, 1, itinerary_digits=1)
        assert set(status.tolist()) == {EXTERIOR, ESCAPED, SURVIVED}
        for p, s, digits in zip(pts, status, itinerary):
            got = chunk_pull_back(necklace40, p, 1)
            assert got[:3] == (int(s), int(s == SURVIVED), tuple(int(d) for d in digits if d))
            want = necklace40.inverse_maps[digits[0] - 1].apply(p) if s == SURVIVED else p
            assert np.array_equal(got[3], want)


class TestEscapeDepth:
    def test_origin_exterior(self, necklace40):
        assert classify_points(necklace40, np.zeros(3), 40)[0][0] == EXTERIOR

    def test_fixed_point_survives_any_budget(self, necklace40):
        fp = word_map(necklace40, (1,)).fixed_point()
        for budget in (5, 20, 40):
            status, depth, _ = classify_points(necklace40, fp, budget)
            assert (status[0], depth[0]) == (SURVIVED, budget)

    def test_gap_point_depth_zero(self, necklace40):
        status, depth, _ = classify_points(necklace40, necklace40.base_torus.core.point_at(0.0), 40)
        assert (status[0], depth[0]) == (ESCAPED, 0)

    def test_matches_direct_containment_exhaustively_depth_two(self, necklace40):
        # oracle: scan every address of length 1 and 2 for containment
        m = necklace40.multiplicity
        rng = np.random.default_rng(22)
        pts = [necklace40.child_circles[7].sample(4)[0]]
        pts += [torus_at(necklace40, (3, 9)).core.point_at(0.4)]
        pts += [necklace40.base_torus.core.point_at(0.0)]
        pts += list(rng.uniform(-1.3, 1.3, size=(30, 3)))
        status, depth, _ = classify_points(necklace40, np.array(pts), 2)
        for p, s, d in zip(pts, status, depth):
            if s == EXTERIOR:
                continue
            in_stage1 = [
                j
                for j in range(1, m + 1)
                if torus_membership(torus_at(necklace40, (j,)), p) != "outside"
            ]
            depth_oracle = 0
            if in_stage1:
                assert len(in_stage1) == 1
                j = in_stage1[0]
                depth_oracle = 1
                in_stage2 = [
                    k
                    for k in range(1, m + 1)
                    if torus_membership(torus_at(necklace40, (j, k)), p) != "outside"
                ]
                if in_stage2:
                    assert len(in_stage2) == 1
                    depth_oracle = 2
            if s == SURVIVED:
                assert depth_oracle == 2
            else:
                assert d == depth_oracle

    def test_bulk_matches_scalar(self, necklace40):
        rng = np.random.default_rng(23)
        pts = np.concatenate(
            [rng.uniform(-1.6, 1.6, size=(50, 3)), chaos_game_sample(necklace40, 10, 12, seed=5)]
        )
        status, depth, _ = classify_points(necklace40, pts, 15)
        for p, s, d in zip(pts, status, depth):
            one_status, one_depth, _ = classify_points(necklace40, p, 15)
            assert (one_status[0], one_depth[0]) == (s, d)

    def test_expansion_rate(self, necklace40):
        # separation large enough that subtraction cancellation stays two
        # orders below the 1e-10 contract
        w = (3, 1)
        tor = torus_at(necklace40, w + w)
        x, y = tor.core.point_at(1.0), tor.core.point_at(1.2)
        a, b = (chunk_pull_back(necklace40, q, len(w))[3] for q in (x, y))
        ratio = np.linalg.norm(a - b) / np.linalg.norm(x - y)
        assert ratio == pytest.approx(necklace40.expansion ** len(w), rel=1e-10)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_by_every_entry_point(self, necklace40, monkeypatch, bad):
        p = np.array([0.9, bad, 0.0])
        # the bad point sits in the second chunk, after a finite first one
        pts = np.array([[0.9, 0.1, 0.0], [0.0, 0.0, 0.0], p])
        monkeypatch.setattr(dynamics, "_CHUNK", 2)
        with pytest.raises(ValueError):
            classify_points(necklace40, pts, 4)
        with pytest.raises(ValueError):
            classify_points(necklace40, p, 4)
        with pytest.raises(ValueError):
            orbit(necklace40, ExteriorModel(2), p, 4)


class TestPointShapes:
    """Points enter as shape (3,) or (N, 3), and any other shape is one ValueError that names it."""

    @pytest.mark.parametrize("shape", [(0,), (4, 2), (6,), (2, 3, 3), (3, 1), (1, 2)])
    def test_classify_points_names_the_shape(self, necklace40, shape):
        with pytest.raises(ValueError, match=r"shape \(3,\) or \(N, 3\), not " + re.escape(str(shape))):
            classify_points(necklace40, np.full(shape, 0.9), 4)

    def test_classify_points_rejects_negative_itinerary_digits(self, necklace40):
        with pytest.raises(ValueError, match="itinerary_digits"):
            classify_points(necklace40, np.full((2, 3), 0.9), 4, itinerary_digits=-1)

    @pytest.mark.parametrize("p", [[1.0, 2.0], [[0.9, 0.1, 0.0], [0.9, 0.1, 0.0]], [[[0.9, 0.1, 0.0]]], []])
    def test_one_point_entries_name_the_shape(self, necklace40, p):
        with pytest.raises(ValueError, match=r"shape \(3,\), not " + re.escape(str(np.shape(p)))):
            orbit(necklace40, ExteriorModel(2), p, 4)

    def test_accepted_shapes_agree(self, necklace40):
        p = necklace40.child_circles[3].sample(8)[5]
        one, rows, empty = (classify_points(necklace40, q, 12, 4) for q in (p, p[None], np.empty((0, 3))))
        assert all(np.array_equal(a, b) for a, b in zip(one, rows))
        assert [a.shape for a in empty] == [(0,), (0,), (0, 4)]


class TestIntegerArguments:
    """Each step, digit and sample count is an integer in its range, or one ValueError that names it."""

    P = np.array([3.0, 0.0, 0.0])

    @pytest.mark.parametrize("budget", [2.5, 4.0, 0, True])
    def test_classify_points_budget(self, necklace40, budget):
        with pytest.raises(ValueError, match=f"budget must be an integer in 1..{MAX_BUDGET}, got {budget}"):
            classify_points(necklace40, self.P, budget)

    @pytest.mark.parametrize("digits", [2.5, 2.0, -1, True])
    def test_classify_points_itinerary_digits(self, necklace40, digits):
        with pytest.raises(ValueError, match=f"itinerary_digits must be an integer >= 0, got {digits}"):
            classify_points(necklace40, self.P, 4, digits)

    def test_orbit_max_iter(self, necklace40):
        with pytest.raises(ValueError, match="max_iter, the step budget, must be an integer in 1"):
            orbit(necklace40, ExteriorModel(2), self.P, 3.5)

    @pytest.mark.parametrize("count", [2.5, 10.0])
    def test_chaos_game_count(self, necklace40, count):
        with pytest.raises(ValueError, match=f"count must be an integer >= 0, got {count}"):
            chaos_game_sample(necklace40, count, 9)

    def test_chaos_game_negative_count(self, necklace40):
        with pytest.raises(ValueError, match="count must be an integer >= 0, got -1"):
            chaos_game_sample(necklace40, -1, 9)

    @pytest.mark.parametrize("depth", [9.5, 9.0, 7])
    def test_chaos_game_depth(self, necklace40, depth):
        with pytest.raises(ValueError, match=f"depth must be an integer >= 8, got {depth}"):
            chaos_game_sample(necklace40, 10, depth)

    @pytest.mark.parametrize("p_max", [1.5, 2.0, 0])
    def test_enumerate_periodic_p_max(self, necklace16, p_max):
        with pytest.raises(ValueError, match=f"p_max must be an integer >= 1, got {p_max}"):
            enumerate_periodic(necklace16, p_max)

    @pytest.mark.parametrize("cap", [0, -1, 100.5, 100.0])
    def test_enumerate_periodic_cap(self, necklace16, cap):
        with pytest.raises(ValueError, match=f"cap must be an integer >= 1, got {cap}"):
            enumerate_periodic(necklace16, 2, cap=cap)

    @pytest.mark.parametrize("p_max", [0, 1.5])
    def test_periodic_point_cloud_p_max(self, necklace16, p_max):
        with pytest.raises(ValueError, match=f"p_max must be an integer >= 1, got {p_max}"):
            periodic_point_cloud(necklace16, p_max)

    @pytest.mark.parametrize("p_max", [0, 1.5])
    def test_density_report_p_max(self, necklace16, p_max):
        with pytest.raises(ValueError, match=f"p_max must be an integer >= 1, got {p_max}"):
            density_report(necklace16, p_max, 8)

    @pytest.mark.parametrize("sample_k", [8.5, 8.0, 1])
    def test_density_report_sample_k(self, necklace16, sample_k):
        with pytest.raises(ValueError, match=f"sample_k must be an integer >= 2, got {sample_k}"):
            density_report(necklace16, 2, sample_k)

    def test_numpy_integers_are_integers(self, necklace40):
        p = necklace40.child_circles[3].sample(8)[5]
        got = classify_points(necklace40, p, np.int64(12), np.int32(4))
        assert all(np.array_equal(a, b) for a, b in zip(got, classify_points(necklace40, p, 12, 4)))
        assert orbit(necklace40, ExteriorModel(2), p, np.int64(12)).itinerary == orbit(
            necklace40, ExteriorModel(2), p, 12
        ).itinerary
        sample = chaos_game_sample(necklace40, np.int64(7), np.int8(9), 1)
        assert np.array_equal(sample, chaos_game_sample(necklace40, 7, 9, 1))
        assert chaos_game_sample(necklace40, 0, 9).shape == (0, 3)
        words = [pp.word for pp in enumerate_periodic(necklace40, np.int64(2), cap=np.int32(100))]
        assert words == [pp.word for pp in enumerate_periodic(necklace40, 2, cap=100)]
        cloud = periodic_point_cloud(necklace40, np.uint8(2))
        assert np.array_equal(cloud, periodic_point_cloud(necklace40, 2))
        assert density_report(necklace40, np.int64(1), np.int16(3)) == density_report(necklace40, 1, 3)


class TestHugeFinitePoints:
    def test_exterior_without_a_warning(self, necklace40):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, depth, _ = classify_points(necklace40, np.array([[1e200, 0.0, 0.0]]), 5)
            one = classify_points(necklace40, np.array([0.0, 1e160, 0.0]))
        assert status.tolist() == [EXTERIOR] and depth.tolist() == [0]
        assert one[0].tolist() == [EXTERIOR] and one[1].tolist() == [0]


class TestCodingPoint:
    def test_pure_tail_is_fixed_point(self, necklace40):
        assert np.allclose(
            coding_point(necklace40, (), (1,)), word_map(necklace40, (1,)).fixed_point()
        )

    def test_prefix_pushes_into_child(self, necklace40):
        p = coding_point(necklace40, (2,), (1,))
        assert torus_membership(torus_at(necklace40, (2,)), p) == "inside"

    def test_lies_in_prefix_plus_tail_torus(self, necklace40):
        p = coding_point(necklace40, (2, 5), (1, 3))
        assert torus_membership(torus_at(necklace40, (2, 5, 1, 3)), p) == "inside"

    def test_survives_budget_and_stage_containment(self, necklace40):
        rng = np.random.default_rng(24)
        for _ in range(10):
            prefix = tuple(rng.integers(1, 41, size=rng.integers(0, 3)))
            tail = tuple(rng.integers(1, 41, size=rng.integers(1, 4)))
            p = coding_point(necklace40, prefix, tail)
            assert classify_points(necklace40, p, 50)[0][0] == SURVIVED
            # cross-check the itinerary address against direct containment
            _, _, itin = classify_points(necklace40, p[None, :], 12, itinerary_digits=12)
            word = tuple(int(d) for d in itin[0] if d > 0)
            expected = (prefix + tail * 12)[:12]
            assert word == expected
            for L in (4, 8, 12):
                assert torus_membership(torus_at(necklace40, word[:L]), p, 1e-9) != "outside"

    def test_empty_tail_rejected(self, necklace40):
        with pytest.raises(ValueError):
            coding_point(necklace40, (1,), ())


def periodic_point(n, word):
    """The fixed point of the word's composed child map: periodic under the dynamics with the word as itinerary."""
    return fixed_points(*word_maps(n, [word]))[0]


class TestPeriodicPoints:
    def test_single_digit_fixed(self, necklace40):
        x = periodic_point(necklace40, (4,))
        assert one_step(necklace40, x) == (SURVIVED, 4)
        assert np.linalg.norm(necklace40.inverse_maps[3].apply(x) - x) < 1e-12

    def test_two_cycle_roundtrip(self, necklace40):
        x = periodic_point(necklace40, (1, 2))
        assert torus_membership(torus_at(necklace40, (1, 2)), x) == "inside"
        _, _, digits, z = chunk_pull_back(necklace40, x, 2)
        c0 = stage_summary(necklace40, 0).max_diameter
        assert np.linalg.norm(z - x) <= 1e-9 * c0
        assert digits == (1, 2)

    def test_multiplier_m16(self, necklace16):
        (pp,) = [pp for pp in enumerate_periodic(necklace16, 2) if pp.word == (1, 2)]
        assert pp.multiplier == pytest.approx(16.0)
        assert np.array_equal(pp.point, periodic_point(necklace16, (1, 2)))

    def test_enumerate_period_one(self, necklace16):
        pts = enumerate_periodic(necklace16, 1)
        assert len(pts) == 16
        words = {pp.word for pp in pts}
        assert words == {(j,) for j in range(1, 17)}

    def test_enumerate_period_two_orbit_count(self, necklace16):
        pts = enumerate_periodic(necklace16, 2)
        m = 16
        assert len(pts) == m + (m * m - m) // 2

    def test_enumerate_all_survive(self, necklace40):
        pts = enumerate_periodic(necklace40, 2, cap=100)
        arr = np.array([pp.point for pp in pts])
        status, _, _ = classify_points(necklace40, arr, DEFAULT_BUDGET)
        assert np.all(status == SURVIVED)

    def test_density_identity_is_zero(self):
        pts = np.random.default_rng(25).normal(size=(50, 3))
        assert _one_sided_hausdorff(pts, pts) == 0.0

    def test_density_monotone_and_bounded(self, necklace40):
        k = 8
        d = [density_report(necklace40, p, k, seed=7) for p in (1, 2, 3)]
        assert d[0] >= d[1] >= d[2]
        c3 = stage_summary(necklace40, 3).max_diameter
        ck = stage_summary(necklace40, k).max_diameter
        assert d[2] <= c3 + ck


class TestModelMaps:
    def test_winding_fixes_angle_zero(self):
        assert np.allclose(winding_map(np.array([1.0, 0, 0]), 16), [1, 0, 0])

    def test_winding_m16_eighth_turn(self):
        p = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0])
        assert np.allclose(winding_map(p, 16), [-1, 0, 0], atol=1e-15)

    @given(vectors, st.sampled_from([10, 16, 40]))
    def test_winding_preserves_radius_and_height(self, p, m):
        q = winding_map(p, m)
        assert np.hypot(q[0], q[1]) == pytest.approx(np.hypot(p[0], p[1]), rel=1e-12, abs=1e-12)
        assert q[2] == p[2]

    def test_winding_collapses_rotated_children(self, necklace40):
        # the two-slot rotation is absorbed: w(rho(x)) = w(x), so all odd
        # children share one image and all even children share another
        rho = two_slot_rotation(necklace40.multiplicity)
        x = necklace40.child_circles[2].sample(32)
        assert np.allclose(
            winding_map(rho.apply(x), necklace40.multiplicity),
            winding_map(x, necklace40.multiplicity),
            atol=1e-12,
        )
        img_1 = winding_map(necklace40.child_circles[0].sample(256), 40)
        img_3 = winding_map(necklace40.child_circles[2].sample(256), 40)
        d = np.linalg.norm(img_3[:, None, :] - img_1[None, :, :], axis=2).min(axis=1)
        assert np.max(d) < 2e-2  # same point set up to sampling resolution

    def test_exterior_model_examples(self):
        m4 = ExteriorModel(4)
        p = np.array([2.0, 0, 0])
        assert np.linalg.norm(exterior_model_map(p, m4)) == pytest.approx(16.0)
        sphere_pt = np.array([0.6, 0.8, 0.0])
        assert np.allclose(exterior_model_map(sphere_pt, ExteriorModel(3)), sphere_pt)
        assert np.allclose(exterior_model_map(np.array([0.0, 2, 0]), ExteriorModel(2)), [0, 4, 0])

    def test_exterior_model_origin(self):
        with pytest.raises(UndefinedAtOrigin):
            exterior_model_map(np.zeros(3), ExteriorModel(2))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ExteriorModel(1)
        assert ExteriorModel.for_multiplicity(16).degree_root == 4
        assert ExteriorModel.for_multiplicity(40).degree_root == 2
        assert ExteriorModel(3).outer_radius == 8.0
        # the escape radius 2^d stays a finite double
        assert ExteriorModel(MAX_DEGREE_ROOT).outer_radius == 2.0**1023
        with pytest.raises(ValueError):
            ExteriorModel(MAX_DEGREE_ROOT + 1)


class TestOrbit:
    @pytest.mark.parametrize("p", [[1e200, 0.0, 0.0], [1e154, 1e154, 0.0]])
    def test_point_with_overflowing_norm_rejected(self, necklace40, p):
        with pytest.raises(ValueError, match="finite double"):
            orbit(necklace40, ExteriorModel(2), np.array(p))

    @pytest.mark.parametrize("d, norms", [(100, [1e11]), (15, [1e11]), (14, [1e11, 1e154])])
    def test_norms_stop_before_overflow(self, necklace40, d, norms):
        # a norm past the largest double, or past what np.linalg.norm can square, is never recorded;
        # escape is certified all the same, since the handoff norm 1e11 >= 2 reaches 2^d in one step
        rec = orbit(necklace40, ExteriorModel(d), np.array([1e11, 0.0, 0.0]))
        assert rec.exterior_norms == pytest.approx(tuple(norms), rel=1e-12)
        assert all(math.isfinite(v) for v in rec.exterior_norms)
        assert rec.escape_certified

    def test_exterior_norm_sequence(self, necklace40):
        rec = orbit(necklace40, ExteriorModel(2), np.array([3.0, 0, 0]), max_iter=4)
        assert rec.exit is EscapeKind.EXTERIOR
        assert rec.exterior_norms[:3] == pytest.approx((3.0, 9.0, 81.0))
        assert rec.escape_certified
        assert not rec.handoff_clamped

    def test_periodic_never_exits(self, necklace40):
        rec = orbit(necklace40, ExteriorModel(2), periodic_point(necklace40, (2, 9, 5)), max_iter=30)
        assert rec.exit is EscapeKind.SURVIVED
        assert rec.exterior_norms == ()
        period = 3
        digits = rec.itinerary[: 4 * period]
        assert digits == ((2, 9, 5) * 4)

    def test_gap_exit_is_clamped(self, necklace40):
        p = necklace40.base_torus.core.point_at(0.0)  # norm 1, exits at once
        rec = orbit(necklace40, ExteriorModel(2), p, max_iter=8)
        assert rec.exit is EscapeKind.ESCAPED
        assert rec.exit_depth == 0
        assert rec.handoff_clamped
        assert rec.exterior_norms[0] == pytest.approx(2.0)
        assert rec.escape_certified

    def test_perturbed_periodic_exit_bound(self, necklace40):
        m = necklace40.multiplicity
        bound = math.ceil(math.log(8e3 / m) / math.log(m / 4.0)) + 1
        x = periodic_point(necklace40, (6, 2))
        rng = np.random.default_rng(26)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            rec = orbit(necklace40, ExteriorModel(2), x + 1e-3 * d, max_iter=40)
            assert rec.exit is EscapeKind.ESCAPED
            assert rec.exit_depth <= bound


class TestDilatation:
    def test_child_maps_conformal(self, necklace40):
        rng = np.random.default_rng(27)
        for j in (0, 13, 39):
            p = rng.normal(size=3)
            ko, ki = dilatation_estimate(necklace40.child_maps[j].apply, p)
            assert 1.0 <= ko <= 1.0 + 1e-6
            assert 1.0 <= ki <= 1.0 + 1e-6

    def test_winding_analytic_singular_values(self):
        # angular stretch m/2 gives singular values (m/2, 1, 1) off axis
        ko, ki = dilatation_estimate(lambda p: winding_map(p, 16), np.array([1.1, 0.3, 0.2]))
        assert ko == pytest.approx(64.0, rel=1e-2)
        assert ki == pytest.approx(8.0, rel=1e-2)

    def test_diagonal_map(self):
        ko, ki = dilatation_estimate(lambda p: p * np.array([2.0, 1.0, 1.0]), np.zeros(3))
        assert ko == pytest.approx(4.0, rel=1e-9)
        assert ki == pytest.approx(2.0, rel=1e-9)

    def test_composed_pullback_conformal(self, necklace40):
        pullback = word_map(necklace40, (3, 17, 9)).invert()
        p = torus_at(necklace40, (3, 17, 9, 1)).core.point_at(0.7)
        ko, ki = dilatation_estimate(pullback.apply, p)
        assert 1.0 <= ko <= 1.0 + 1e-6
        assert 1.0 <= ki <= 1.0 + 1e-6

    def test_singular_map_rejected(self):
        with pytest.raises(NonInvertibleJacobian):
            dilatation_estimate(lambda p: p * np.array([1.0, 1.0, 0.0]), np.zeros(3))

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            dilatation_estimate(lambda p: p, np.zeros(3), h=1.0)

    def test_child_map_conformal_over_a_sample(self, necklace40):
        rng = np.random.default_rng(28)
        for p in rng.normal(size=(10, 3)):
            ko, ki = dilatation_estimate(necklace40.child_maps[4].apply, p)
            assert ko <= 1.0 + 1e-6 and ki <= 1.0 + 1e-6


class TestDimensions:
    def test_similarity_dimension_exact(self):
        assert similarity_dimension(16) == pytest.approx(2.0)
        assert similarity_dimension(8) == pytest.approx(3.0)

    def test_similarity_dimension_monotone(self):
        vals = [similarity_dimension(m) for m in range(6, 200, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_similarity_dimension_domain(self):
        with pytest.raises(ValueError):
            similarity_dimension(4)

    def test_segment_fixture(self):
        rng = np.random.default_rng(29)
        pts = np.zeros((10000, 3))
        pts[:, 0] = rng.uniform(0, 1, 10000)
        d = box_dimension_estimate(pts, np.geomspace(1e-3, 1e-1, 6))
        assert d == pytest.approx(1.0, abs=0.1)

    def test_square_fixture(self):
        rng = np.random.default_rng(30)
        pts = np.zeros((10000, 3))
        pts[:, :2] = rng.uniform(0, 1, (10000, 2))
        d = box_dimension_estimate(pts, np.geomspace(0.03, 0.1, 5))
        assert d == pytest.approx(2.0, abs=0.15)

    def test_degenerate_fit(self):
        pts = np.full((2000, 3), 0.5)
        with pytest.raises(DegenerateFit):
            box_dimension_estimate(pts, [0.1, 0.2])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            box_dimension_estimate(np.zeros((2000, 3)), [0.1])
        with pytest.raises(ValueError):
            box_dimension_estimate(np.zeros((10, 3)), [0.1, 0.2])

    @pytest.mark.parametrize("bad", [1e-320, 0.0, -0.1, math.inf, math.nan])
    def test_bad_box_sizes_are_rejected(self, bad):
        pts = np.random.default_rng(31).uniform(0, 1, (2000, 3))
        with pytest.raises(ValueError, match="positive box sizes"):
            box_dimension_estimate(pts, [bad, 0.1])

    def test_box_sizes_whose_cell_index_overflows_are_rejected(self):
        pts = np.random.default_rng(32).uniform(0, 2, (2000, 3))
        span = float(np.ptp(pts, axis=0).max())
        with pytest.raises(ValueError, match="int64"):
            box_dimension_estimate(pts, [span / 2.0**63, 0.1])  # finite reciprocal, index 2^63
        with pytest.raises(DegenerateFit):  # indices below 2^63: counted, one box per point at both sizes
            box_dimension_estimate(pts, [span / 2.0**62, span / 2.0**61])


class TestChaosGame:
    def test_deterministic(self, necklace40):
        a = chaos_game_sample(necklace40, 50, 20, seed=3)
        b = chaos_game_sample(necklace40, 50, 20, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_distinct_points(self, necklace40):
        pts = chaos_game_sample(necklace40, 100, 20, seed=4)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.0

    def test_min_depth_enforced(self, necklace40):
        with pytest.raises(ValueError):
            chaos_game_sample(necklace40, 10, 4)

    def test_samples_live_in_their_address_tori(self, necklace40):
        # regenerate the addresses from the seed and check stage membership
        seed, count, depth = 31, 20, 10
        pts = chaos_game_sample(necklace40, count, depth, seed=seed)
        digits = np.random.default_rng(seed).integers(1, 41, size=(count, depth))
        for p, addr in zip(pts, digits.tolist()):
            for L in (1, 3, 6):
                assert torus_membership(torus_at(necklace40, tuple(addr[:L])), p, 1e-9) != "outside"

    def test_samples_survive_their_depth(self, necklace40):
        pts = chaos_game_sample(necklace40, 200, 12, seed=6)
        status, _, _ = classify_points(necklace40, pts, 12)
        assert np.all(status == SURVIVED)


class TestBoundaryWitness:
    def test_coding_points_on_escape_boundary(self, necklace40):
        # each coding point survives; nearby points at every scale escape
        rng = np.random.default_rng(32)
        for _ in range(5):
            tail = tuple(rng.integers(1, 41, size=2))
            p = coding_point(necklace40, (), tail)
            assert classify_points(necklace40, p, DEFAULT_BUDGET)[0][0] == SURVIVED
            for eps in (1e-2, 1e-3, 1e-4):
                found = False
                for _ in range(8):
                    d = rng.normal(size=3)
                    q = p + eps * d / np.linalg.norm(d)
                    if classify_points(necklace40, q, DEFAULT_BUDGET)[0][0] == ESCAPED:
                        found = True
                        break
                assert found


def window_points(n, count, claim_radii, seed):
    """count points in four equal parts: uniform over the parent torus's box, attractor samples,
    points within 1e-12 of a claim boundary (a tube of one of claim_radii about a child core),
    and points at a child centre's azimuth or midway between two neighbouring centres."""
    rng = np.random.default_rng(seed)
    q = count // 4
    t = n.base_torus.tube
    uniform = rng.uniform([-1 - t, -1 - t, -t], [1 + t, 1 + t, t], size=(q, 3))
    attractor = chaos_game_sample(n, q, 12, seed=seed)
    j = rng.integers(0, n.multiplicity, q)
    u, v = circle_frames(n.child_normals)
    a, b = rng.uniform(0.0, 2 * math.pi, (2, q, 1))
    radial = np.cos(a) * u[j] + np.sin(a) * v[j]
    radius = rng.choice(claim_radii, (q, 1)) + rng.uniform(-1e-12, 1e-12, (q, 1))
    near = n.child_centers[j] + n.contraction * radial + radius * (np.cos(b) * radial + np.sin(b) * n.child_normals[j])
    phi = np.arctan2(n.child_centers[:, 1], n.child_centers[:, 0])
    theta = rng.choice(np.concatenate([phi, phi + math.pi / n.multiplicity]), q)
    r, z = rng.uniform(1 - t, 1 + t, q), rng.uniform(-t, t, q)
    boundary = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return np.concatenate([uniform, attractor, near, boundary])


def window_threshold(n, k):
    """Largest tolerance at which a window of k children on each side holds: asin(r + child_tube + tol)
    plus WINDOW_MARGIN below k slot spacings 2 pi k / m (centres at radius 1)."""
    angle = min(2 * math.pi * k / n.multiplicity - WINDOW_MARGIN, math.pi / 2)
    return math.sin(angle) - n.contraction - n.child_tube


class TestChildWindow:
    """The step loop evaluates only the 2k children whose centre azimuths lie nearest a point's."""

    @pytest.mark.parametrize("m", [10, 16, 40])
    def test_least_window_that_holds(self, m):
        n = build_necklace(m)
        pts = np.zeros((5, 3))
        for k in range(1, (m + 3) // 4):  # 4k < m: k spacings stay below a right angle
            threshold = window_threshold(n, k)
            if threshold <= BOUNDARY_TOL:
                continue  # too narrow even at the crisp tolerance (k = 1 at m = 10)
            assert _bracketing_children(n, pts, threshold * (1 - 1e-6)).shape == (5, 2 * k)
            assert _bracketing_children(n, pts, threshold * (1 + 1e-6)).shape[1] > 2 * k
        assert np.array_equal(_bracketing_children(n, pts, 1.0), np.arange(m)[None])  # reach past the axis

    def test_step_14_at_m40_takes_four_slots(self, necklace40):
        step = [BOUNDARY_TOL + NOISE_FLOOR * necklace40.expansion**k for k in (13, 14)]
        assert [_bracketing_children(necklace40, np.zeros((1, 3)), t).shape[1] for t in step] == [2, 4]

    @pytest.mark.parametrize("m", [10, 16, 40])
    def test_windowed_claims_equal_full_claims(self, m):
        n = build_necklace(m)
        # the crisp tolerance, the largest step tolerance of each window narrower than all m, and
        # the tolerances just inside the two- and four-slot windows
        steps = [BOUNDARY_TOL + NOISE_FLOOR * n.expansion**k for k in range(60)]
        widths = {t: _bracketing_children(n, np.zeros((1, 3)), t).shape[1] for t in steps}
        tols = {BOUNDARY_TOL} | {max(t for t in steps if widths[t] == w) for w in set(widths.values()) - {m}}
        tols |= {window_threshold(n, k) * (1 - 1e-6) for k in (1, 2) if window_threshold(n, k) > BOUNDARY_TOL}
        pts = window_points(n, 10**6, [n.child_tube + t for t in tols], seed=m)
        claimed = 0
        for lo in range(0, pts.shape[0], 50_000):
            chunk = pts[lo : lo + 50_000]
            full = vector_child_distances(n, chunk)
            if lo == 0:
                assert np.array_equal(child_distances(n, chunk), full)
            rows = np.arange(chunk.shape[0])[:, None]
            for tol in tols:
                slots = _bracketing_children(n, chunk, tol)
                dist = child_distances(n, chunk, slots)
                assert slots.shape == dist.shape and slots.shape[0] == chunk.shape[0] and slots.shape[1] < m
                assert np.array_equal(dist, full[rows, slots])
                claims = np.zeros(full.shape, dtype=bool)
                claims[rows, slots] = dist <= n.child_tube + tol
                assert np.array_equal(claims, full <= n.child_tube + tol)
                claimed += int(claims.sum())
        assert claimed > 10**5


def every_child_pull_back(n, p, budget):
    """The step loop on one point, measuring every child at every step: (status, depth, digits, last)."""
    x = np.asarray(p, dtype=float)
    if point_circle_distance(n.base_torus.core, x) > n.base_torus.tube + BOUNDARY_TOL:
        return EXTERIOR, 0, (), x
    digits = []
    for k in range(budget):
        noise = NOISE_FLOOR * n.expansion**k
        claims = np.flatnonzero(vector_child_distances(n, x)[0] <= n.child_tube + BOUNDARY_TOL + noise)
        if claims.size == 0:
            return ESCAPED, k, tuple(digits), x
        if claims.size > 1:
            if noise <= BOUNDARY_TOL:
                raise MultipleChildren(0)
            return SURVIVED, budget, tuple(digits), x
        digits.append(int(claims[0]) + 1)
        x = n.inverse_maps[claims[0]].apply(x)
    return SURVIVED, budget, tuple(digits), x


def shell_points(n, radius, count, seed):
    """Points at distance radius +- 1e-12 from the parent core: half where the shell is tight, on the line
    through a child centre, within the child's plane and normal to the core, half in random directions."""
    rng = np.random.default_rng(seed)
    s = radius + rng.uniform(-1e-12, 1e-12, (count, 1))
    half = count // 2
    j = rng.integers(0, n.multiplicity, half)
    c = n.child_centers[j]
    radial = c * [1.0, 1.0, 0.0] / np.hypot(c[:, 0], c[:, 1])[:, None]
    across = radial - np.sign(n.child_normals[j, 2:]) * [0.0, 0.0, 1.0]  # normal to the child's normal
    across *= rng.choice([-1.0, 1.0], (half, 1)) / np.linalg.norm(across, axis=1, keepdims=True)
    tight = c + s[:half] * across
    phi, theta = rng.uniform(0.0, 2 * math.pi, (2, count - half, 1))
    ring = np.concatenate([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
    tube = np.cos(theta) * ring + np.sin(theta) * [0.0, 0.0, 1.0]
    return np.concatenate([tight, ring + s[half:] * tube])


class TestChildShell:
    """A point farther from the parent core than the child shell exits at step 0 without a child test."""

    @pytest.mark.parametrize("m", [40, 64])
    def test_removed_points_are_claimed_by_no_child(self, m, monkeypatch):
        n = build_necklace(m)
        shell = child_shell(n)
        pts = shell_points(n, shell, 4000, seed=m)
        d0 = point_circle_distance(n.base_torus.core, pts)
        removed = d0 > shell
        assert 1000 < removed.sum() < 3000  # the sample straddles the shell
        dist = vector_child_distances(n, pts[removed])
        assert dist.min() > n.child_tube + BOUNDARY_TOL + NOISE_FLOOR
        # where the shell is tight, a removed point clears the nearest child tube by about the 1e-9 margin
        assert dist[: removed[:2000].sum()].min() - (n.child_tube + BOUNDARY_TOL + NOISE_FLOOR) < 2e-9

        measured = []
        original = dynamics.child_distances

        def recording(n, points, slots):
            measured.append(points.copy())
            return original(n, points, slots)

        monkeypatch.setattr(dynamics, "child_distances", recording)
        status, depth, _ = classify_points(n, pts[: _CHUNK], 6)
        assert np.array_equal(measured[0], pts[: _CHUNK][~removed[: _CHUNK]])
        assert np.all(status[removed] == ESCAPED) and np.all(depth[removed] == 0)

    @pytest.mark.parametrize("m", [40, 64])
    def test_equals_every_child_oracle(self, m):
        n = build_necklace(m)
        # about the shell, about the outermost reach of the child tubes, and mixed
        pts = np.concatenate([
            shell_points(n, child_shell(n), 400, seed=m + 1),
            shell_points(n, n.child_reach, 400, seed=m + 2),
            mixed_points(n, m),
        ])
        budget = 12
        status, depth, itinerary = classify_points(n, pts, budget, itinerary_digits=budget)
        assert set(status.tolist()) == {EXTERIOR, ESCAPED, SURVIVED}
        for i, p in enumerate(pts):
            want = every_child_pull_back(n, p, budget)
            got = chunk_pull_back(n, p, budget)
            assert got[:3] == want[:3] and np.array_equal(got[3], want[3])
            assert (status[i], depth[i], tuple(int(d) for d in itinerary[i] if d)) == want[:3]


def mask_loop_chaos_game(n, count, depth, seed):
    """chaos_game_sample with one boolean mask per digit and level, each digit's rows mapped as one block by
    scale * (x @ R.T) + shift against a C-contiguous R.T: the reference. (Similarity3.apply multiplies by the
    F-ordered view matrix.T, which on a one-row block takes a gemv kernel that rounds differently.)"""
    digits = np.random.default_rng(seed).integers(1, n.multiplicity + 1, size=(count, depth))
    x = np.tile(n.base_torus.core.point_at(0.0), (count, 1))
    for level in range(depth - 1, -1, -1):
        col = digits[:, level]
        for j in np.unique(col):
            sel = col == j
            f = n.child_maps[j - 1]
            x[sel] = f.scale * (x[sel] @ np.ascontiguousarray(f.rot.matrix.T)) + f.shift
    return x


def gathered_apply(stacked, keys, x):
    """Row i of x mapped by map keys[i], with each row's scale, R.T and shift gathered and one (1, 3) @ (3, 3)
    product per row: the reference for _map_by_key."""
    scales, rts, shifts = stacked
    return scales[keys][:, None] * (x[:, None, :] @ rts[keys])[:, 0] + shifts[keys]


def synthetic_maps(k, seed):
    """_stack_maps' arrays for k random similarities: scales in [0.05, 20), random orthogonal R.T, shifts."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(k, 3, 3)))[0]
    return rng.uniform(0.05, 20.0, k), np.ascontiguousarray(q), rng.normal(size=(k, 3))


def assert_map_by_key_is_gathered(stacked, keys, x):
    order, mapped = dynamics._map_by_key(stacked, keys, x)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(mapped, gathered_apply(stacked, keys, x)[order])


class TestChaosTable:
    """chaos_game_sample maps each of the m^L distinct innermost points once, for the largest L with
    m^L <= min(count, _CHUNK), and keeps the bits of the level loop that maps every level of every row."""

    @pytest.mark.parametrize(
        "m,count,depth,table_levels",
        [
            (10, 20_000, 12, 4),
            (10, 5_000, 12, 3),
            (40, 20_000, 20, 2),
            (130, 20_000, 9, 1),  # m^2 > _CHUNK
            (300, 20_000, 8, 1),  # uint16 keys
            (40, 7, 20, 0),  # count below m: no table
            (40, 0, 20, 0),
            (40, 2 * _CHUNK + 5, 13, 2),  # count not a multiple of _CHUNK
            (16, 3_000, 8, 2),
        ],
    )
    def test_equals_the_level_loop(self, m, count, depth, table_levels, monkeypatch):
        n = build_necklace(m)
        calls = []
        original = dynamics._map_by_key

        def counting(stacked, keys, x):
            calls.append(keys.size)
            return original(stacked, keys, x)

        monkeypatch.setattr(dynamics, "_map_by_key", counting)
        got = chaos_game_sample(n, count, depth, seed=m + count)
        blocks = -(-count // _CHUNK)
        assert len(calls) == table_levels + blocks * (depth - table_levels)
        assert calls[:table_levels] == [m ** (level + 1) for level in range(table_levels)]
        assert got.shape == (count, 3)
        assert np.array_equal(got, level_loop_chaos_game(n, count, depth, seed=m + count))


def full_state_chunk(n, pts, first, budget, status, depth, itinerary, last=None):
    """The oracle step loop in _classify_chunk's signature: it keeps every row's last position either way."""
    kept = full_state_step_loop(n, pts, first, budget, status, depth, itinerary)
    if last is not None:
        last[:] = kept


def classify_both(n, pts, budget, digits, monkeypatch):
    """classify_points as it is, then through the oracle step loop: two (status, depth, itinerary)."""
    got = classify_points(n, pts, budget, digits)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_classify_chunk", full_state_chunk)
        want = classify_points(n, pts, budget, digits)
    return got, want


def assert_same_classification(got, want):
    for a, b in zip(got, want):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))


class TestStepLoopBookkeeping:
    """The step loop keeps no position its caller does not read, adds the claim columns and finds each
    window once per tolerance, with the status, depth, itinerary and orbit records of the loop that kept
    every position, summed along axis 1 and found the window at every step."""

    def test_volume_voxels(self, necklace40, monkeypatch):
        seen = []
        original = exports.classify_points

        def recording(n, points, budget):
            seen.append(points)
            return original(n, points, budget)

        monkeypatch.setattr(exports, "classify_points", recording)
        exports.classify_volume(necklace40, (64, 64, 64))
        monkeypatch.undo()
        pts = np.concatenate(seen)
        got, want = classify_both(necklace40, pts, DEFAULT_BUDGET, 0, monkeypatch)
        assert pts.shape[0] > 2000 and set(got[0].tolist()) == {ESCAPED} and set(got[1].tolist()) == {0, 1, 2}
        assert_same_classification(got, want)

    def test_chaos_sample_through_the_windows(self, necklace40, monkeypatch):
        pts = chaos_game_sample(necklace40, 20_000, 20, seed=19)
        widths = set()
        original = dynamics.child_distances

        def recording(n, points, slots):
            widths.add(slots.shape[1])
            return original(n, points, slots)

        monkeypatch.setattr(dynamics, "child_distances", recording)
        got, want = classify_both(necklace40, pts, 40, 12, monkeypatch)
        # every row is fuzzy by step 15, whose tolerance ball needs 16 slots, so no row meets the all-m window
        assert widths == {2, 4, 16}
        assert_same_classification(got, want)

    @pytest.mark.parametrize("m", [40, 64])
    def test_all_m_window(self, m, monkeypatch):
        # every step forced onto the (1, m) window of all children, whose claims are those of any window
        n = build_necklace(m)
        monkeypatch.setattr(dynamics, "_bracketing_children", lambda n, pts, tol: np.arange(n.multiplicity)[None])
        assert_same_classification(*classify_both(n, mixed_points(n, m), 12, 12, monkeypatch))

    @pytest.mark.parametrize("m", [10, 16])
    def test_multiple_children_names_the_same_index(self, m, monkeypatch):
        n = build_necklace(m)
        pts = voxel_centers((48, 48, 48), *DEFAULT_BBOX)
        with pytest.raises(MultipleChildren) as got:
            classify_points(n, pts, DEFAULT_BUDGET)
        monkeypatch.setattr(dynamics, "_classify_chunk", full_state_chunk)
        with pytest.raises(MultipleChildren) as want:
            classify_points(n, pts, DEFAULT_BUDGET)
        assert got.value.index == want.value.index > 2 * _CHUNK  # raised in the third chunk

    def test_orbit_records(self, necklace40, monkeypatch):
        n = necklace40
        pts = np.concatenate([
            mixed_points(n, 43),
            shell_points(n, child_shell(n), 60, seed=44),  # exits at step 0 through the shell test
            [[0.9582351218204458, 0.455377323371077, -0.06656957632023612], [3.0, 0.0, 0.0]],
        ])
        models = [ExteriorModel(2), ExteriorModel(5)]
        got = [orbit(n, models[i % 2], p, 20).to_json_dict() for i, p in enumerate(pts)]
        monkeypatch.setattr(dynamics, "_classify_chunk", full_state_chunk)
        want = [orbit(n, models[i % 2], p, 20).to_json_dict() for i, p in enumerate(pts)]
        assert {r["exit"] for r in got} == {"exterior", "escaped", "survived"}
        assert got == want

    def test_replaced_copy_finds_its_own_windows(self, monkeypatch):
        n = build_necklace(40)
        pts = chaos_game_sample(n, 2000, 20, seed=21)
        classify_points(n, pts, 40)
        assert len(n._windows) >= 15  # one window per step tolerance the classification met
        moved = dataclasses.replace(n, child_maps=n.child_maps[::-1])
        assert "_windows" not in vars(moved)
        steps = [BOUNDARY_TOL + NOISE_FLOOR * n.expansion**k for k in range(20)]
        for tol in steps:
            assert np.array_equal(_bracketing_children(moved, pts, tol), rebuilt_window(moved, pts, tol))
            assert np.array_equal(_bracketing_children(n, pts, tol), rebuilt_window(n, pts, tol))
        assert not np.array_equal(_bracketing_children(moved, pts, steps[0]), _bracketing_children(n, pts, steps[0]))
        assert_same_classification(*classify_both(moved, pts, 40, 12, monkeypatch))


class TestGroupedApply:
    # counts on either side of the _CHUNK-row blocks: the reference draws every digit at once
    @pytest.mark.parametrize(
        "m,seed,count,depth",
        [pytest.param(m, seed, 20_000, 20, id=f"{m}-{seed}") for m, seed in ((16, 1), (40, 2), (40, 3))]
        + [(40, 11, count, depth) for count in (1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 5) for depth in (9, 13)]
        + [pytest.param(300, 4, 3000, 9, id="300-one-row-digits")],  # some digit claims one row at some level
    )
    def test_chaos_game_equals_mask_loop(self, m, seed, count, depth):
        n = build_necklace(m)
        got = chaos_game_sample(n, count, depth, seed)
        assert got.shape == (count, 3)
        assert np.array_equal(got, mask_loop_chaos_game(n, count, depth, seed))


class TestMapByKey:
    """_map_by_key equals the per-row gathered product bit for bit, in stable key order."""

    @pytest.fixture(scope="class")
    def maps40(self, necklace40):
        return dynamics._stack_maps(necklace40.inverse_maps), dynamics._stack_maps(necklace40.child_maps)

    @staticmethod
    def rows(count, seed):
        return np.random.default_rng(seed).normal(size=(count, 3))

    def test_absent_keys(self, maps40):
        keys = np.random.default_rng(1).choice([0, 3, 17, 39], 5000).astype(np.uint8)
        for stacked in maps40:
            assert_map_by_key_is_gathered(stacked, keys, self.rows(5000, 2))

    def test_one_row_keys(self, maps40):
        keys = np.random.default_rng(3).permutation(np.repeat(np.arange(40), [1, 300] * 20)).astype(np.uint8)
        for stacked in maps40:
            assert_map_by_key_is_gathered(stacked, keys, self.rows(keys.size, 4))

    def test_every_row_one_key(self, maps40):
        for stacked in maps40:
            assert_map_by_key_is_gathered(stacked, np.full(3000, 11, dtype=np.uint8), self.rows(3000, 5))

    def test_block_sizes(self):
        # one block each of 1..39, 64, 100, 257 and 1000 rows
        sizes = [*range(1, 40), 64, 100, 257, 1000]
        keys = np.random.default_rng(6).permutation(np.repeat(np.arange(len(sizes)), sizes)).astype(np.uint8)
        assert_map_by_key_is_gathered(synthetic_maps(len(sizes), 7), keys, self.rows(keys.size, 8))

    def test_no_rows(self, maps40):
        order, mapped = dynamics._map_by_key(maps40[0], np.empty(0, dtype=np.uint8), np.empty((0, 3)))
        assert order.shape == (0,) and mapped.shape == (0, 3)

    def test_uint16_keys(self):
        n = build_necklace(300)
        keys = np.random.default_rng(9).integers(0, 300, 20_000).astype(np.min_scalar_type(300))
        assert keys.dtype == np.uint16
        for maps in (n.inverse_maps, n.child_maps):
            assert_map_by_key_is_gathered(dynamics._stack_maps(maps), keys, self.rows(20_000, 10))

    def test_uint32_keys(self):
        keys = np.random.default_rng(11).integers(0, 70_000, 100_000).astype(np.min_scalar_type(70_000))
        assert keys.dtype == np.uint32
        assert_map_by_key_is_gathered(synthetic_maps(70_000, 12), keys, self.rows(100_000, 13))

    def test_multiple_children_names_the_lower_index(self, necklace16):
        # p lies on child 1's core and in child 2's tube; pushed into children 10 and 3 it is in one child at
        # step 0, and sorting by digit puts input row 1 first, so both rows are fuzzy at step 1 in the order 1, 0
        a, b = necklace16.child_circles[0], necklace16.child_circles[1]
        pa = a.sample(4096)
        p = pa[int(np.argmin(point_circle_distance(b, pa)))]
        pts = np.array([necklace16.child_maps[9].apply(p), necklace16.child_maps[2].apply(p)])
        assert [int(d) for d in classify_points(necklace16, pts, 1, 1)[2][:, 0]] == [10, 3]
        with pytest.raises(MultipleChildren, match="point index 0 "):
            classify_points(necklace16, pts, 3)


class TestBudgetBound:
    def test_largest_budget_accepted(self, necklace40):
        assert MAX_BUDGET < 0xFFFE  # escape depths stay below the .vol exterior and survivor codes
        status, depth, _ = classify_points(necklace40, [[3.0, 0.0, 0.0]], MAX_BUDGET)
        assert status[0] == EXTERIOR and depth[0] == 0

    @pytest.mark.parametrize("budget", [MAX_BUDGET + 1, 3_000_000_000])
    def test_larger_budget_rejected(self, necklace40, budget):
        p = np.array([3.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="budget"):
            classify_points(necklace40, p[None], budget)
        with pytest.raises(ValueError, match="budget"):
            orbit(necklace40, ExteriorModel(2), p, budget)
