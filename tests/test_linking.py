import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import antoine
from antoine.errors import MinSeparationTooSmall, NoGenericProjection
from antoine.geom3 import Circle3, Rotation3, Similarity3, circle_frames
from antoine.linking import (
    DEFAULT_PROJECTION_SEED,
    LinkBackendError,
    LinkMatrix,
    PolyLoop,
    _projection_frame,
    _try_projection,
    gauss_linking,
    link_matrix,
    polygonal_linking,
)
from antoine.necklace import _rho_classes, build_necklace

E3 = np.array([0.0, 0.0, 1.0])

HOPF_A = Circle3(np.zeros(3), 1.0, E3)
HOPF_B = Circle3(np.array([1.0, 0.0, 0.0]), 1.0, np.array([0.0, 1.0, 0.0]))


def hopf_loops(n=512):
    return PolyLoop.from_circle(HOPF_A, n), PolyLoop.from_circle(HOPF_B, n)


def far_triangles():
    """Two unlinked triangles 2 units apart. The line through b's first edge
    meets a's vertices in every projection, but off that edge."""
    return (
        PolyLoop(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])),
        PolyLoop(np.array([[3.0, 0, 0], [4, 0, 0], [3.5, 0.5, 1]])),
    )


class TestGaussLinking:
    def test_hopf_pair(self):
        # oracle: the signed-crossing count on 512-gon approximations
        g = gauss_linking(HOPF_A, HOPF_B, 256)
        exact = polygonal_linking(*hopf_loops())
        assert abs(exact) == 1
        assert g == pytest.approx(exact, abs=1e-2)

    def test_far_coaxial_unlinked(self):
        far = Circle3(np.array([0.0, 0.0, 5.0]), 1.0, E3)
        assert abs(gauss_linking(HOPF_A, far, 64)) < 1e-3

    def test_necklace_adjacent(self, necklace40):
        g = gauss_linking(necklace40.child_circles[0], necklace40.child_circles[1], 256)
        exact = polygonal_linking(
            PolyLoop.from_circle(necklace40.child_circles[0], 512),
            PolyLoop.from_circle(necklace40.child_circles[1], 512),
        )
        assert abs(exact) == 1
        assert g == pytest.approx(exact, abs=1e-2)

    def test_near_touching_rejected(self):
        close = Circle3(np.array([2.0 + 1e-10, 0.0, 0.0]), 1.0, E3)
        with pytest.raises(MinSeparationTooSmall):
            gauss_linking(HOPF_A, close, 64)

    def test_pair_closer_than_half_a_sample_spacing_rejected(self):
        # a unit circle and a perpendicular one 1e-5 from it: the fixed grid cannot resolve the integrand's
        # peak there (it gave -7.67e6 under a 1e-9 guard), so the guard is half the sample spacing, pi / 64
        close = Circle3(np.array([2.0 + 1e-5, 0.0, 0.0]), 1.0, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(MinSeparationTooSmall, match=re.escape(f"1.000e-05 < {math.pi / 64:.3e}, half the sample")):
            gauss_linking(HOPF_A, close, 64)

    def test_pair_closer_than_half_a_sample_spacing_named_by_link_matrix(self):
        # children 1 and 2 of an m = 10 necklace moved onto that pair: pair (1, 2) is measured first
        n = build_necklace(10)
        unit = Similarity3(1.0, Rotation3(np.eye(3)), np.zeros(3))
        near = Similarity3(1.0, Rotation3.aligning(E3, np.array([0.0, 1.0, 0.0])), np.array([2.0 + 1e-5, 0.0, 0.0]))
        n = dataclasses.replace(n, child_maps=(unit, near, *n.child_maps[2:]))
        with pytest.raises(LinkBackendError, match=re.escape("child pair (1, 2)")) as info:
            link_matrix(n, quad_n=64)
        assert info.value.pair == (1, 2) and isinstance(info.value.cause, MinSeparationTooSmall)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            gauss_linking(HOPF_A, HOPF_B, 8)

    def test_error_decays_fast(self):
        # smooth disjoint curves: at least quadratic decay (it is spectral)
        ns = [16, 20, 24, 28, 32]
        errs = [abs(abs(gauss_linking(HOPF_A, HOPF_B, q)) - 1.0) for q in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope <= -1.7


def broadcast_gauss_linking(a, b, quad_n):
    """gauss_linking as computed before the matrix form, on (quad_n, quad_n, 3) difference,
    np.cross and einsum arrays, with its guard: the oracle."""
    ta = np.arange(quad_n) * (2.0 * math.pi / quad_n)
    ua, va = a.basis()
    ub, vb = b.basis()
    pa, pb = a.point_at(ta), b.point_at(ta)
    da = a.radius * (-np.sin(ta)[:, None] * ua + np.cos(ta)[:, None] * va)
    db = b.radius * (-np.sin(ta)[:, None] * ub + np.cos(ta)[:, None] * vb)
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    guard = half_spacing(a, b, quad_n)
    if float(dist.min()) < guard:
        raise MinSeparationTooSmall(f"sampled curve separation {dist.min():.3e} < {guard:.3e}, half the sample spacing")
    integrand = np.einsum("ijc,ijc->ij", np.cross(da[:, None, :], db[None, :, :]), diff) / dist**3
    return float(integrand.sum() * (2.0 * math.pi / quad_n) ** 2 / (4.0 * math.pi))


def dirty_workspaces(quad_n):
    """Two (3, quad_n, quad_n) workspaces gauss_linking must ignore the contents of:
    one filled with NaN, one last used on the Hopf pair."""
    used = np.empty((3, quad_n, quad_n))
    gauss_linking(HOPF_A, HOPF_B, quad_n, work=used)
    return np.full((3, quad_n, quad_n), np.nan), used


def half_spacing(a, b, quad_n):
    """The separation guard: half the larger circle's sample spacing."""
    return math.pi * max(a.radius, b.radius) / quad_n


def sampled_separation(a, b, quad_n):
    ta = np.arange(quad_n) * (2.0 * math.pi / quad_n)
    return float(np.linalg.norm(a.point_at(ta)[:, None, :] - b.point_at(ta)[None, :, :], axis=2).min())


FAR = np.array([1e3, 0.0, 0.0])
coords = st.floats(-1.0, 1.0)
vectors = st.tuples(coords, coords, coords).map(np.array)
normals = vectors.filter(lambda v: np.linalg.norm(v) > 0.1)
centres = st.sampled_from([np.zeros(3), FAR]).flatmap(lambda c: vectors.map(lambda v: c + v))
radii = st.floats(0.2, 2.0)


class TestMatrixFormGauss:
    """gauss_linking equals the broadcast oracle and raises MinSeparationTooSmall on exactly its inputs."""

    @pytest.mark.parametrize("quad_n", [64, 256])
    def test_necklace40_representatives(self, necklace40, quad_n):
        # one shared workspace, so each pair after the first finds the previous pair's grids in it
        (i, j), reps, _ = _rho_classes(40)
        nan, shared = dirty_workspaces(quad_n)
        for a, b in zip(i[reps], j[reps]):
            ca, cb = necklace40.child_circles[a], necklace40.child_circles[b]
            g = gauss_linking(ca, cb, quad_n)
            assert abs(g - broadcast_gauss_linking(ca, cb, quad_n)) <= 1e-14
            nan.fill(np.nan)
            assert gauss_linking(ca, cb, quad_n, work=nan) == g
            assert gauss_linking(ca, cb, quad_n, work=shared) == g

    @given(centres, radii, normals, vectors, radii, normals, st.sampled_from([64, 256]))
    def test_random_pairs(self, ca, ra, na, offset, rb, nb, quad_n):
        # centred near the origin or near (1e3, 0, 0), where |pa|^2 + |pb|^2 - 2 pa . pb would cancel
        # without the shift to the centres' midpoint; about one pair in ten is linked
        a = Circle3(ca, ra, na)
        b = Circle3(ca + 2.0 * offset, rb, nb)
        if sampled_separation(a, b, quad_n) < 0.2:
            return  # closer pairs: both roundings of the large near-diagonal terms exceed 1e-14
        g = gauss_linking(a, b, quad_n)
        assert abs(g - broadcast_gauss_linking(a, b, quad_n)) <= 1e-14
        assert all(gauss_linking(a, b, quad_n, work=w) == g for w in dirty_workspaces(quad_n))

    @given(centres, radii, normals, radii, normals, normals, st.integers(0, 63), st.integers(0, 63),
           st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1e-12, 1e-12])))
    def test_guard_raises_exactly_where_the_oracle_does(self, ca, ra, na, rb, nb, w, i, j, log2_s):
        # b's j-th sample is placed 2^log2_s guards from a's i-th along w: the exact sampled separation
        # decides, wherever the pair lies relative to the centres' midpoint
        a = Circle3(ca, ra, na)
        t = 2.0 * math.pi / 64 * np.arange(64)
        (ub,), (vb,) = circle_frames(nb[None] / np.linalg.norm(nb))
        guard = math.pi * max(ra, rb) / 64
        target = a.point_at(t[i]) + guard * 2.0**log2_s * w / np.linalg.norm(w)
        b = Circle3(target - rb * (math.cos(t[j]) * ub + math.sin(t[j]) * vb), rb, nb)
        sep = sampled_separation(a, b, 64)
        for work in (None, *dirty_workspaces(64)):
            if sep < guard:
                with pytest.raises(MinSeparationTooSmall, match=re.escape(f"separation {sep:.3e} < {guard:.3e}")):
                    gauss_linking(a, b, 64, work=work)
            else:
                assert math.isfinite(gauss_linking(a, b, 64, work=work))

    @pytest.mark.parametrize("normal", [E3, np.array([0.0, 1.0, 0.0])])
    @pytest.mark.parametrize(
        "offset,gap", [(np.zeros(3), 1.0 + 2.0**-30), (FAR, 1.0 + 2.0**-30), (FAR, 1.0 - 2.0**-30), (FAR, 1e-9)]
    )
    def test_guard_at_the_threshold(self, offset, gap, normal):
        # sample 16 of the unit circle about offset and sample 0 or 48 of close lie gap half-spacings apart;
        # 1e-10 apart about the origin is test_near_touching_rejected
        guard = math.pi / 64
        a = Circle3(offset, 1.0, E3)
        close = Circle3(np.array([2.0 + gap * guard, 0.0, 0.0]) + offset, 1.0, normal)
        assert (sampled_separation(a, close, 64) < guard) == (gap < 1.0)
        for work in (None, *dirty_workspaces(64)):
            if gap < 1.0:
                with pytest.raises(MinSeparationTooSmall):
                    gauss_linking(a, close, 64, work=work)
            else:
                g = gauss_linking(a, close, 64, work=work)
                assert g == pytest.approx(broadcast_gauss_linking(a, close, 64), rel=1e-12)

    @pytest.mark.parametrize(
        "work",
        [np.empty((3, 64, 32)), np.empty((2, 64, 64)), np.empty((3, 32, 32)), np.empty((3, 64, 64), np.float32),
         np.empty((3, 64, 128))[:, :, ::2]],
        ids=["shape", "grids", "quad_n", "dtype", "strided"],
    )
    def test_wrong_workspace_rejected(self, work):
        with pytest.raises(ValueError, match="work must be"):
            gauss_linking(HOPF_A, HOPF_B, 64, work=work)


def fresh_link_matrix(n, poly_n=512, quad_n=256):
    """link_matrix as computed before it shared one Gauss workspace and the seed-slot
    polygons among its pairs: two fresh polygons and fresh grids per pair, the oracle."""
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    (i, j), reps, classes = _rho_classes(m)
    lks = np.zeros(len(reps), dtype=int)
    max_gap = 0.0
    for k, (a, b) in enumerate(zip(i[reps], j[reps])):
        ca, cb = n.child_circles[a], n.child_circles[b]
        lk = polygonal_linking(PolyLoop.from_circle(ca, poly_n), PolyLoop.from_circle(cb, poly_n), rng=rng)
        max_gap = max(max_gap, abs(gauss_linking(ca, cb, quad_n) - lk))
        lks[k] = lk
    entries = np.zeros((m, m), dtype=int)
    entries[i, j] = entries[j, i] = lks[classes]
    return LinkMatrix(m, entries, max_gap)


class TestLinkMatrix:
    @pytest.mark.parametrize("m", [16, 40, 64])
    def test_equals_fresh_loop(self, m):
        n = build_necklace(m)
        got, want = link_matrix(n), fresh_link_matrix(n)
        assert np.array_equal(got.entries, want.entries)
        assert got.max_gauss_gap == want.max_gauss_gap

    @pytest.mark.parametrize("sizes", [{"poly_n": 32}, {"quad_n": 8}, {"quad_n": -1}])
    def test_small_grids_rejected_before_any_pair(self, necklace16, sizes):
        with pytest.raises(ValueError, match="poly_n must be >= 64 and quad_n >= 16"):
            link_matrix(necklace16, **sizes)

    def test_seed_polygons_built_once(self, necklace40, monkeypatch):
        # every class representative's first child is 1 or 2: 2 seed polygons, then one per pair
        builds = []
        original = PolyLoop.from_circle
        monkeypatch.setattr(PolyLoop, "from_circle", staticmethod(lambda c, n: builds.append(c) or original(c, n)))
        link_matrix(necklace40)
        assert len(builds) == 2 + len(_rho_classes(40)[1])

    def test_warm_call_takes_few_page_faults(self):
        # fresh quad_n x quad_n grids per pair took about 14,000 minor faults at m = 40. Counted in
        # a new process: once a long-lived one has freed a large block, glibc raises its trim
        # threshold and keeps freed pages, which would hide the faults
        pytest.importorskip("resource")
        code = (
            "import resource; from antoine.linking import link_matrix; from antoine.necklace import build_necklace\n"
            "n = build_necklace(40); link_matrix(n); before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "link_matrix(n); print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(antoine.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 1000


class TestPolygonalLinking:
    def test_hopf_exact(self):
        assert abs(polygonal_linking(*hopf_loops())) == 1

    def test_independent_projections_agree(self):
        a, b = hopf_loops()
        r1 = polygonal_linking(a, b, rng=np.random.default_rng(11))
        r2 = polygonal_linking(a, b, rng=np.random.default_rng(222))
        assert r1 == r2

    def test_coplanar_loops_unlinked(self):
        a = PolyLoop.from_circle(Circle3(np.zeros(3), 1.0, E3), 64)
        b = PolyLoop.from_circle(Circle3(np.array([3.0, 0.0, 0.0]), 1.0, E3), 64)
        assert polygonal_linking(a, b) == 0

    def test_necklace_skip_pair_unlinked(self, necklace40):
        a = PolyLoop.from_circle(necklace40.child_circles[0], 512)
        b = PolyLoop.from_circle(necklace40.child_circles[2], 512)
        assert polygonal_linking(a, b) == 0

    def test_symmetric(self, necklace40):
        a = PolyLoop.from_circle(necklace40.child_circles[0], 256)
        b = PolyLoop.from_circle(necklace40.child_circles[1], 256)
        assert polygonal_linking(a, b) == polygonal_linking(b, a)

    def test_reversal_invariance(self):
        a, b = hopf_loops(256)
        assert polygonal_linking(PolyLoop(a.vertices[::-1]), PolyLoop(b.vertices[::-1])) == polygonal_linking(a, b)

    def test_similarity_invariance(self):
        a, b = hopf_loops(256)
        s = Similarity3(1.7, Rotation3.about_axis(np.array([1.0, 2.0, 0.5]), 1.2), np.array([3.0, -1.0, 0.4]))
        moved = [PolyLoop(s.apply(loop.vertices)) for loop in (a, b)]
        assert polygonal_linking(*moved) == polygonal_linking(a, b)

    def test_touching_loops_degenerate(self):
        tri_a = PolyLoop(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        tri_b = PolyLoop(np.array([[0.0, 0, 0], [0, 0, 1], [-1, 0, 0]]))
        with pytest.raises(NoGenericProjection):
            polygonal_linking(tri_a, tri_b)

    def test_line_through_far_vertex_not_degenerate(self):
        assert polygonal_linking(*far_triangles()) == 0

    def test_gap_to_gauss_small(self, necklace40):
        for i, j in ((0, 1), (0, 39), (4, 5), (0, 6)):
            a = PolyLoop.from_circle(necklace40.child_circles[i], 512)
            b = PolyLoop.from_circle(necklace40.child_circles[j], 512)
            exact = polygonal_linking(a, b)
            g = gauss_linking(necklace40.child_circles[i], necklace40.child_circles[j], 256)
            assert abs(g - exact) < 0.05

    def test_rho_shift_invariance(self, necklace40):
        # entries shift with the two-slot rotation symmetry
        def lk(i, j):
            return polygonal_linking(
                PolyLoop.from_circle(necklace40.child_circles[i - 1], 256),
                PolyLoop.from_circle(necklace40.child_circles[j - 1], 256),
            )

        assert abs(lk(1, 2)) == abs(lk(3, 4))
        assert abs(lk(1, 3)) == abs(lk(3, 5))
        assert abs(lk(2, 3)) == abs(lk(4, 5))


class TestPolyLoopValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            PolyLoop(np.array([[0.0, 0, 0], [1, 0, 0]]))

    def test_repeated_vertex(self):
        with pytest.raises(ValueError):
            PolyLoop(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]))

    def test_wrap_edge_checked(self):
        with pytest.raises(ValueError):
            PolyLoop(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.0, 0, 0]]))


GUARD = 1e-9


def all_pairs_projection(a, b, w, guard=GUARD):
    """Reference for _try_projection: every segment pair, no pruning."""
    u, v, w = _projection_frame(w)
    basis2 = np.stack([u, v], axis=1)
    a2, b2 = a.vertices @ basis2, b.vertices @ basis2
    za, zb = a.vertices @ w, b.vertices @ w
    d_a = np.roll(a2, -1, axis=0) - a2
    d_b = np.roll(b2, -1, axis=0) - b2
    len_a, len_b = np.linalg.norm(d_a, axis=1), np.linalg.norm(d_b, axis=1)
    scale_a = np.linalg.norm(np.roll(a.vertices, -1, 0) - a.vertices, axis=1)
    scale_b = np.linalg.norm(np.roll(b.vertices, -1, 0) - b.vertices, axis=1)
    if np.any(len_a < guard * scale_a) or np.any(len_b < guard * scale_b):
        return None
    r = b2[None, :, :] - a2[:, None, :]
    denom = d_a[:, None, 0] * d_b[None, :, 1] - d_a[:, None, 1] * d_b[None, :, 0]
    parallel = np.abs(denom) < guard * (len_a[:, None] * len_b[None, :])
    safe = np.where(parallel, 1.0, denom)
    t = (r[:, :, 0] * d_b[None, :, 1] - r[:, :, 1] * d_b[None, :, 0]) / safe
    s = (r[:, :, 0] * d_a[:, None, 1] - r[:, :, 1] * d_a[:, None, 0]) / safe
    inside = ~parallel & (t > 0) & (t < 1) & (s > 0) & (s < 1)
    on_both = (t >= -guard) & (t <= 1 + guard) & (s >= -guard) & (s <= 1 + guard)
    at_end = (np.abs(t) < guard) | (np.abs(t - 1) < guard) | (np.abs(s) < guard) | (np.abs(s - 1) < guard)
    if np.any(~parallel & on_both & at_end):
        return None
    gap = (za[:, None] + t * (np.roll(za, -1) - za)[:, None]) - (zb[None, :] + s * (np.roll(zb, -1) - zb)[None, :])
    if np.any(inside & (np.abs(gap) < guard)):
        return None
    return int(np.sign(denom[inside & (gap > 0)]).sum())


def random_loop(rng, n, center):
    """A closed polygon: sorted samples of a unit circle plus Gaussian wobble, moved to center."""
    t = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    wobble = rng.normal(scale=0.3, size=(n, 3))
    return PolyLoop(np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1) + wobble + center)


def random_pair(seed):
    rng = np.random.default_rng(seed)
    return random_loop(rng, 48, np.zeros(3)), random_loop(rng, 48, rng.normal(scale=0.8, size=3))


def near_touching_pair(seed):
    """b's first edge passes 1e-11 above the middle of a's first edge."""
    a, b = random_pair(seed)
    mid = 0.5 * (a.vertices[0] + a.vertices[1])
    edge = a.vertices[1] - a.vertices[0]
    across = np.cross(edge, [0.3, -0.2, 1.0])
    across /= np.linalg.norm(across)
    lift = np.cross(edge, across)
    lift *= 1e-11 / np.linalg.norm(lift)
    bv = b.vertices.copy()
    bv[0], bv[1] = mid + lift - 0.2 * across, mid + lift + 0.2 * across
    return a, PolyLoop(bv)


def shared_vertex_pair(seed):
    a, b = random_pair(seed)
    bv = b.vertices.copy()
    bv[5] = a.vertices[7]
    return a, PolyLoop(bv)


def special_directions(a, b, rng, k):
    """Directions that put an a-vertex on a b-segment or run along an edge."""
    out = []
    for _ in range(k):
        i, j = rng.integers(len(a.vertices)), rng.integers(len(b.vertices))
        on_b = b.vertices[j] + rng.uniform() * (b.vertices[(j + 1) % len(b.vertices)] - b.vertices[j])
        out.append(on_b - a.vertices[i])
        out.append(a.vertices[(i + 1) % len(a.vertices)] - a.vertices[i])
    return out


class TestPrunedCrossingSearch:
    """_try_projection equals the all-pairs reference on every direction."""

    def check(self, a, b, seed, n_dirs=200, extra=()):
        rng = np.random.default_rng(seed)
        results = []
        for w in [*rng.normal(size=(n_dirs, 3)), *extra]:
            got = _try_projection(a, b, np.asarray(w), GUARD)
            assert got == all_pairs_projection(a, b, np.asarray(w)), w
            results.append(got)
        return results

    def test_hopf(self):
        results = self.check(*hopf_loops(256), seed=1)
        assert {abs(r) for r in results if r is not None} == {1}

    @pytest.mark.parametrize("i, j", [(1, 2), (1, 40), (1, 3), (1, 21)])
    def test_necklace40_pairs(self, necklace40, i, j):
        a = PolyLoop.from_circle(necklace40.child_circles[i - 1], 256)
        b = PolyLoop.from_circle(necklace40.child_circles[j - 1], 256)
        results = self.check(a, b, seed=i * 100 + j)
        assert len({abs(r) for r in results if r is not None}) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_polygons(self, seed):
        a, b = random_pair(seed)
        extra = special_directions(a, b, np.random.default_rng(seed), 20)
        results = self.check(a, b, seed=seed, extra=extra)
        assert None in results and any(r is not None for r in results)

    @pytest.mark.parametrize("seed", range(2))
    def test_near_touching_polygons(self, seed):
        a, b = near_touching_pair(seed)
        results = self.check(a, b, seed=seed)
        assert None in results and any(r is not None for r in results)

    def test_shared_vertex_always_degenerate(self):
        assert set(self.check(*shared_vertex_pair(7), seed=7)) == {None}

    def test_far_extension_through_vertex(self):
        assert set(self.check(*far_triangles(), seed=3)) == {0}

    def test_crossing_in_guard_zone_past_a_vertex(self):
        # viewed along z, b's first edge (x = -0.9 guard) meets the lines of a's
        # edges into and out of the vertex at the origin 0.9 guard past their
        # ends; the unpadded boxes of those edges miss it, the padded ones hold it
        a = PolyLoop(np.array([[1.0, -1, 0], [0, 0, 0], [1, 1, 0]]))
        b = PolyLoop(np.array([[-0.9 * GUARD, -0.5, 1], [-0.9 * GUARD, 0.5, 1], [-2.0, 0, 1]]))
        w = np.array([0.0, 0.0, 1.0])
        assert _try_projection(a, b, w, GUARD) is None
        assert all_pairs_projection(a, b, w) is None
