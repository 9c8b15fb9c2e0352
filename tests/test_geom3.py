import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antoine import geom3
from antoine.errors import NoUniqueFixedPoint
from antoine.geom3 import (
    Circle3,
    _rodrigues,
    _sampled_distance_bounds,
    Rotation3,
    Similarity3,
    SolidTorus,
    circle_circle_distance,
    fixed_points,
    point_circle_distance,
    unit_rows,
)
from antoine.necklace import build_necklace

from conftest import torus_membership
from oracles import own_grid_circle_circle_distance, per_row_unit, rodrigues_matrix, vector_point_circle_distance

E3 = np.array([0.0, 0.0, 1.0])

coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vectors = st.builds(lambda x, y, z: np.array([x, y, z]), coords, coords, coords)
axes = vectors.filter(lambda v: np.linalg.norm(v) > 1e-2)
angles = st.floats(-math.pi, math.pi)
rotations = st.builds(Rotation3.about_axis, axes, angles)
scales = st.floats(0.05, 5.0)
similarities = st.builds(Similarity3, scales, rotations, vectors)


def random_similarity(rng):
    axis = rng.normal(size=3)
    return Similarity3(
        float(rng.uniform(0.2, 3.0)),
        Rotation3.about_axis(axis, float(rng.uniform(-math.pi, math.pi))),
        rng.normal(size=3),
    )


class TestSimilarityApply:
    def test_identity(self):
        assert np.allclose(Similarity3.identity().apply(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_pure_scale(self):
        s = Similarity3(0.5, Rotation3.identity(), np.zeros(3))
        assert np.allclose(s.apply(np.array([2.0, 0.0, 0.0])), [1, 0, 0])

    def test_quarter_turn(self):
        s = Similarity3(1.0, Rotation3.about_axis(E3, math.pi / 2), np.zeros(3))
        assert np.allclose(s.apply(np.array([1.0, 0.0, 0.0])), [0, 1, 0], atol=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        s = random_similarity(rng)
        pts = rng.normal(size=(20, 3))
        batch = s.apply(pts)
        for p, q in zip(pts, batch):
            assert np.allclose(s.apply(p), q)

    @given(similarities, vectors, vectors)
    def test_scale_law(self, s, p, q):
        lhs = np.linalg.norm(s.apply(p) - s.apply(q))
        rhs = s.scale * np.linalg.norm(p - q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSimilarityCompose:
    def test_identity_left(self):
        rng = np.random.default_rng(1)
        s = random_similarity(rng)
        c = Similarity3.identity().compose(s)
        p = np.array([0.3, -0.7, 2.0])
        assert np.allclose(c.apply(p), s.apply(p))

    def test_translations_add(self):
        t1 = Similarity3(1.0, Rotation3.identity(), np.array([1.0, 2.0, 3.0]))
        t2 = Similarity3(1.0, Rotation3.identity(), np.array([-4.0, 0.0, 1.0]))
        assert np.allclose(t1.compose(t2).shift, [-3, 2, 4])
        assert t1.compose(t2).scale == 1.0

    def test_scales_multiply_pointwise(self):
        # oracle: apply the two maps sequentially
        rng = np.random.default_rng(2)
        a = Similarity3(0.5, Rotation3.about_axis(rng.normal(size=3), 0.9), rng.normal(size=3))
        b = Similarity3(0.5, Rotation3.about_axis(rng.normal(size=3), -1.7), rng.normal(size=3))
        c = a.compose(b)
        assert c.scale == pytest.approx(0.25)
        for p in rng.normal(size=(100, 3)):
            assert np.allclose(c.apply(p), a.apply(b.apply(p)), atol=1e-12)


class TestSimilarityInvert:
    def test_identity(self):
        inv = Similarity3.identity().invert()
        assert np.allclose(inv.apply(np.array([5.0, -1.0, 2.0])), [5, -1, 2])

    def test_explicit(self):
        s = Similarity3(0.5, Rotation3.identity(), np.array([1.0, 0.0, 0.0]))
        inv = s.invert()
        assert inv.scale == pytest.approx(2.0)
        assert np.allclose(inv.shift, [-2, 0, 0])

    def test_roundtrip_oracle(self):
        rng = np.random.default_rng(3)
        s = random_similarity(rng)
        inv = s.invert()
        for p in rng.normal(size=(100, 3)):
            assert np.allclose(inv.apply(s.apply(p)), p, atol=1e-12)
            assert np.allclose(s.apply(inv.apply(p)), p, atol=1e-12)


class TestFixedPoint:
    def test_pure_contraction(self):
        s = Similarity3(0.5, Rotation3.identity(), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(s.fixed_point(), [2, 0, 0])

    def test_with_half_turn(self):
        s = Similarity3(0.5, Rotation3.about_axis(E3, math.pi), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(s.fixed_point(), [2 / 3, 0, 0], atol=1e-14)

    def test_iteration_oracle(self):
        # the fixed point of a contraction is the limit of iteration
        rng = np.random.default_rng(4)
        s = Similarity3(0.3, Rotation3.about_axis(rng.normal(size=3), 1.1), rng.normal(size=3))
        x = np.zeros(3)
        for _ in range(200):
            x = s.apply(x)
        assert np.allclose(s.fixed_point(), x, atol=1e-10)

    def test_scale_one_rejected(self):
        s = Similarity3(1.0, Rotation3.about_axis(E3, 0.3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NoUniqueFixedPoint):
            s.fixed_point()

    def test_stacked_solve_equals_fixed_point(self):
        rng = np.random.default_rng(7)
        sims = [random_similarity(rng) for _ in range(50)]
        sims = [s for s in sims if abs(s.scale - 1.0) >= 0.05]
        stacked = fixed_points(
            np.array([s.scale for s in sims]), np.array([s.rot.matrix for s in sims]), np.array([s.shift for s in sims])
        )
        for s, x in zip(sims, stacked):
            assert np.array_equal(x, s.fixed_point())
        with pytest.raises(NoUniqueFixedPoint):
            fixed_points(np.array([0.5, 1.0]), np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)))

    @given(similarities)
    def test_residual(self, s):
        if abs(s.scale - 1.0) < 0.05:
            return
        x = s.fixed_point()
        assert np.linalg.norm(s.apply(x) - x) <= 1e-12 * (1.0 + np.linalg.norm(x))


class TestRotationNormalForm:
    def test_thousand_compositions(self):
        rng = np.random.default_rng(5)
        r = Rotation3.identity()
        for _ in range(1000):
            r = r.compose(Rotation3.about_axis(rng.normal(size=3), rng.uniform(-3, 3)))
        assert np.abs(r.matrix.T @ r.matrix - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Rotation3(np.ones((3, 3)))

    def test_aligning(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            r = Rotation3.aligning(a, b)
            assert np.allclose(r.apply(a / np.linalg.norm(a)), b / np.linalg.norm(b), atol=1e-12)

    def test_aligning_antiparallel(self):
        r = Rotation3.aligning(E3, -E3)
        assert np.allclose(r.apply(E3), -E3, atol=1e-12)


class TestPointCircleDistance:
    unit = Circle3(np.zeros(3), 1.0, E3)

    def test_on_circle(self):
        assert point_circle_distance(self.unit, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_axis_case(self):
        assert point_circle_distance(self.unit, np.zeros(3)) == pytest.approx(1.0)

    def test_off_plane(self):
        assert point_circle_distance(self.unit, np.array([2.0, 0.0, 1.0])) == pytest.approx(math.sqrt(2))

    def test_batch(self):
        pts = np.array([[1, 0, 0], [0, 0, 0], [2, 0, 1]], dtype=float)
        d = point_circle_distance(self.unit, pts)
        assert np.allclose(d, [0.0, 1.0, math.sqrt(2)])

    @given(similarities, vectors, st.floats(0.1, 3.0), axes)
    def test_similarity_invariance(self, s, center, radius, normal):
        c = Circle3(center, radius, normal)
        rng = np.random.default_rng(7)
        p = rng.normal(size=3)
        before = point_circle_distance(c, p)
        after = point_circle_distance(c.transform(s), s.apply(p))
        assert after == pytest.approx(s.scale * before, rel=1e-10, abs=1e-12)


    def test_huge_finite_point_is_infinitely_far_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = point_circle_distance(self.unit, np.array([[1e200, 0.0, 0.0], [0.0, 1e160, 3.0], [2.0, 0.0, 1.0]]))
        assert d[0] == d[1] == math.inf
        assert d[2] == point_circle_distance(self.unit, np.array([2.0, 0.0, 1.0]))

    def test_tilted_circle_far_point_is_infinitely_far_without_a_warning(self):
        c = Circle3(np.array([0.5, -2.0, 1.0]), 0.3, np.array([1.0, 2.0, -2.0]))
        pts = np.array([[1e200, 0.0, 0.0], [-3e199, 1e200, 5e199], [0.0, 0.0, -1e200], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = point_circle_distance(c, pts)
        assert d[:3].tolist() == [math.inf] * 3
        assert d[3] == point_circle_distance(c, pts[3]) == pytest.approx(vector_point_circle_distance(c, pts[3]))

    def test_tilted_circles_within_rounding_of_the_vector_form(self):
        # the component kernel and the vector form (one BLAS dot, np.linalg.norm) each round a few ulps of
        # |p - c| + r away from the exact distance; 8 ulps bounds their gap, also where rho - r cancels
        rng = np.random.default_rng(5)
        eps = np.finfo(float).eps
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            c = Circle3(scale * rng.normal(size=3), scale * rng.uniform(0.1, 3.0), rng.normal(size=3))
            off = scale * rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, (500, 1))
            near = c.sample(500) + scale * 1e-9 * rng.normal(size=(500, 3))
            pts = np.concatenate([c.center + off, near])
            got, want = point_circle_distance(c, pts), vector_point_circle_distance(c, pts)
            bound = 8.0 * eps * (np.linalg.norm(pts - c.center, axis=1) + c.radius)
            assert np.all(np.abs(got - want) <= bound)

    def test_shapes(self):
        c = Circle3(np.array([0.1, 0.2, 0.3]), 0.7, np.array([1.0, -1.0, 0.5]))
        pts = np.random.default_rng(6).normal(size=(2, 4, 3))
        d = point_circle_distance(c, pts)
        assert d.shape == (2, 4) and d.tobytes() == point_circle_distance(c, pts.reshape(-1, 3)).tobytes()
        one = point_circle_distance(c, pts[1, 2])
        assert type(one) is float and one == d[1, 2]
        assert point_circle_distance(c, np.empty((0, 3))).shape == (0,)


class TestUnitRows:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e5])
    def test_equals_unit_per_row(self, scale):
        vs = np.random.default_rng(11).normal(size=(20_000, 3)) * scale
        assert unit_rows(vs).tobytes() == np.array([per_row_unit(v) for v in vs]).tobytes()

    def test_column_of_a_rotation_stack(self):
        # what mesh_stage passes: a non-contiguous column of (T, 3, 3) rotations
        mats = np.random.default_rng(12).normal(size=(1600, 3, 3))
        assert unit_rows(mats[:, :, 2]).tobytes() == np.array([per_row_unit(v) for v in mats[:, :, 2]]).tobytes()

    def test_near_zero_row_rejected(self):
        with pytest.raises(ValueError, match="near-zero"):
            unit_rows(np.array([[1.0, 0.0, 0.0], [1e-15, 0.0, 0.0]]))

    def test_empty(self):
        assert unit_rows(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(6,), (2,), (4, 2), (2, 2), (3, 4), ()])
    def test_last_axis_other_than_three_rejected(self, shape):
        # a (6,) row would otherwise be read as two vectors, and a caller taking row 0 would keep three components
        with pytest.raises(ValueError, match=re.escape(f"last axis of 3, not shape {shape}")):
            unit_rows(np.ones(shape))

    def test_circle_normal_of_six_components_rejected(self):
        with pytest.raises(ValueError, match="last axis of 3"):
            Circle3(np.zeros(3), 1.0, np.ones(6))


class TestRodrigues:
    """One Rodrigues builder: every row is the one-rotation matrix bit for bit, and about_axis is its one-row case."""

    def test_rows_equal_the_one_rotation_matrix(self):
        rng = np.random.default_rng(13)
        for axis in rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-3, 4, size=(200, 1)):
            angles = rng.uniform(-7.0, 7.0, size=16).tolist()
            want = np.array([rodrigues_matrix(axis, a) for a in angles])
            assert _rodrigues(axis, angles).tobytes() == want.tobytes()
            assert Rotation3.about_axis(axis, angles[0]).matrix.tobytes() == Rotation3(want[0]).matrix.tobytes()

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64, 100, 400])
    def test_necklace_angles(self, m):
        angles = [4.0 * math.pi * (k // 2) / m for k in range(m)]
        want = np.array([rodrigues_matrix(E3, a) for a in angles])
        assert _rodrigues(E3, angles).tobytes() == want.tobytes()


class TestTorusContains:
    """The direct-containment oracle that the classifier tests compare against."""

    torus = SolidTorus(Circle3(np.zeros(3), 1.0, E3), 0.5)  # the m = 16 parent

    def test_core_point_inside(self):
        assert torus_membership(self.torus, np.array([1.0, 0.0, 0.0])) == "inside"

    def test_origin_outside(self):
        assert torus_membership(self.torus, np.zeros(3)) == "outside"

    def test_exact_boundary(self):
        assert torus_membership(self.torus, np.array([1.5, 0.0, 0.0])) == "boundary"

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SolidTorus(Circle3(np.zeros(3), 1.0, E3), 1.5)


class TestCircleCircleDistance:
    @pytest.mark.parametrize("grid_n", [7, 64.0, 511.5, True])
    def test_grid_must_be_an_integer_of_8_or_more(self, grid_n):
        a, b = Circle3(np.zeros(3), 1.0, E3), Circle3(np.array([0.0, 0.0, 3.0]), 1.0, E3)
        with pytest.raises(ValueError, match=r"^grid_n must be an integer >= 8, "):
            circle_circle_distance(a, b, grid_n)

    def test_coaxial(self):
        a = Circle3(np.zeros(3), 1.0, E3)
        b = Circle3(np.array([0.0, 0.0, 3.0]), 1.0, E3)
        bound = circle_circle_distance(a, b, 64)
        assert 2.9 <= bound <= 3.0

    def test_concentric_coplanar(self):
        a = Circle3(np.zeros(3), 1.0, E3)
        b = Circle3(np.zeros(3), 3.0, E3)
        bound = circle_circle_distance(a, b, 64)
        assert 1.95 <= bound <= 2.0

    def test_necklace_pair_certified_vs_dense_oracle(self, necklace40):
        # dense-sampling oracle: the exact distances from dense samples of one
        # circle to the other can only sit at or above the true minimum, and
        # the certified bound must sit below them. The m = 38 adjacent pair is
        # the one whose grid-512 bound falls short of twice the child tube.
        necklace38 = build_necklace(38)
        cases = [
            (necklace40, 2, 64, True),
            (necklace40, 1, 512, True),
            (necklace38, 1, 512, False),
        ]
        for n, j, grid, certified in cases:
            a, b = n.child_circles[0], n.child_circles[j]
            bound = circle_circle_distance(a, b, grid)
            oracle = min(
                point_circle_distance(b, a.sample(65536)).min(), point_circle_distance(a, b.sample(65536)).min()
            )
            assert bound <= oracle
            if certified:
                assert bound > 2.0 * n.child_tube

    @pytest.mark.parametrize("grid_n", [8, 64, 512, 1000])
    def test_equals_the_own_grid_form(self, grid_n):
        # the shared sampling helper keeps the bits of the bound's own arange grid and half-step term
        rng = np.random.default_rng(grid_n)
        for _ in range(20):
            a = Circle3(rng.normal(size=3), rng.uniform(0.1, 2), rng.normal(size=3))
            b = Circle3(rng.normal(size=3) * 3.0, rng.uniform(0.1, 2), rng.normal(size=3))
            assert circle_circle_distance(a, b, grid_n) == own_grid_circle_circle_distance(a, b, grid_n)

    def test_grid_too_small(self):
        a = Circle3(np.zeros(3), 1.0, E3)
        with pytest.raises(ValueError):
            circle_circle_distance(a, a, 4)

    def test_bound_is_lower_bound_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = Circle3(rng.normal(size=3), rng.uniform(0.5, 2), rng.normal(size=3))
            b = Circle3(rng.normal(size=3) + 4.0, rng.uniform(0.5, 2), rng.normal(size=3))
            bound = circle_circle_distance(a, b, 128)
            oracle = np.linalg.norm(a.sample(2048)[:, None] - b.sample(2048)[None], axis=2).min()
            assert bound <= oracle + 1e-12


def stacked_rows(sources, targets):
    """_sampled_distance_bounds' arguments before and after grid_n: the circles sources, each against its row of
    targets, as stacked rows."""
    def stack(circles, *names):
        return [np.array([getattr(c, k) for c in circles]) for k in names]

    c, r = stack(sources, "center", "radius")
    u, v = (np.array(x) for x in zip(*(s.basis() for s in sources)))
    return (c, r, u, v), stack(targets, "center", "normal", "radius")


class TestSampledDistanceBounds:
    def random_rows(self, rng, count):
        circles = [
            Circle3(rng.normal(size=3) * 2.0, rng.uniform(0.1, 2), rng.normal(size=3)) for _ in range(2 * count)
        ]
        return circles[:count], circles[count:]

    @pytest.mark.parametrize("grid_n", [8, 100, 512, 4097])
    def test_rows_are_their_own_one_sided_bounds(self, grid_n):
        # row k: the least and greatest distance from sources[k].sample(grid_n) to targets[k], less and plus the
        # half step, bit for bit, whatever the rows per pass (512 at grid 8, one at grid 4097)
        sources, targets = self.random_rows(np.random.default_rng(grid_n), 37)
        rows, to = stacked_rows(sources, targets)
        lo, hi = _sampled_distance_bounds(*rows, grid_n, *to)
        for k, (s, t) in enumerate(zip(sources, targets)):
            d, lip = point_circle_distance(t, s.sample(grid_n)), 0.5 * (2.0 * math.pi / grid_n) * s.radius
            assert (lo[k], hi[k]) == (float(np.min(d)) - lip, float(np.max(d)) + lip)

    @pytest.mark.parametrize("budget", [1, 64, 1000, 10**6])
    def test_passes_change_no_bit(self, monkeypatch, budget):
        sources, targets = self.random_rows(np.random.default_rng(5), 23)
        rows, to = stacked_rows(sources, targets)
        want = _sampled_distance_bounds(*rows, 64, *to)
        monkeypatch.setattr(geom3, "_SAMPLE_BUDGET", budget)
        got = _sampled_distance_bounds(*rows, 64, *to)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_no_rows(self):
        empty = np.zeros((0, 3))
        lo, hi = _sampled_distance_bounds(empty, np.zeros(0), empty, empty, 512, empty, empty, np.zeros(0))
        assert lo.shape == hi.shape == (0,)


class TestCircleInput:
    def test_circle_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Circle3(np.zeros(3), 1.0, np.zeros(3))
