import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import double_integral_linking

import antoine
from antoine.errors import MinSeparationTooSmall, NoGenericProjection
from antoine.geom3 import Circle3, Rotation3, Similarity3, circle_frames, point_circle_distance, unit_rows
from antoine.linking import (
    _GUARD,
    DEFAULT_PROJECTION_SEED,
    LinkBackendError,
    LinkMatrix,
    PolyLoop,
    _disk_crossings,
    _loop_linking,
    _loop_samples,
    _try_projection,
    gauss_linking,
    link_matrix,
    polygonal_linking,
)
from antoine.necklace import GAUSS_TOL, _near_pairs, build_necklace

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

    def test_pair_closer_than_the_guard_rejected(self):
        # a unit circle and a perpendicular one whose first sample lies 1e-5 from it: the rule cannot resolve the
        # field's peak there, so the guard is 3/2 half sample spacings, 1.5 pi / 64
        close = Circle3(np.array([2.0 + 1e-5, 0.0, 0.0]), 1.0, np.array([0.0, 1.0, 0.0]))
        want = f"sampled distance 1.000e-05 from circle a < {1.5 * math.pi / 64:.3e}, 1.5 half sample spacings"
        with pytest.raises(MinSeparationTooSmall, match=re.escape(want)):
            gauss_linking(HOPF_A, close, 64)

    def test_pair_closer_than_the_guard_named_by_link_matrix(self):
        # children 1 and 2 of an m = 10 necklace moved onto that pair, scaled by the ratio 4/m every child map
        # has: pair (1, 2) is measured first
        n = build_necklace(10)
        r = n.contraction
        unit = Similarity3(r, Rotation3(np.eye(3)), np.zeros(3))
        near = Similarity3(r, Rotation3.aligning(E3, np.array([0.0, 1.0, 0.0])), np.array([r * (2.0 + 1e-5), 0.0, 0.0]))
        n = dataclasses.replace(n, child_maps=(unit, near, *n.child_maps[2:]))
        with pytest.raises(LinkBackendError, match=re.escape("child pair (1, 2)")) as info:
            link_matrix(n, quad_n=64)
        assert info.value.pair == (1, 2) and isinstance(info.value.cause, MinSeparationTooSmall)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            gauss_linking(HOPF_A, HOPF_B, 8)

    @pytest.mark.parametrize("quad_n", [64.0, 64.5, True, np.float64(64.0)])
    def test_non_integer_grid_rejected(self, quad_n):
        with pytest.raises(ValueError, match=r"^quad_n must be an integer >= 16, "):
            gauss_linking(HOPF_A, HOPF_B, quad_n)

    def test_error_decays_fast(self):
        # smooth disjoint curves: at least quadratic decay (it is spectral)
        ns = [16, 20, 24, 28, 32]
        errs = [abs(abs(gauss_linking(HOPF_A, HOPF_B, q)) - 1.0) for q in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope <= -1.7


FAR = np.array([1e3, 0.0, 0.0])
coords = st.floats(-1.0, 1.0)
vectors = st.tuples(coords, coords, coords).map(np.array)
normals = vectors.filter(lambda v: np.linalg.norm(v) > 0.1)
centres = st.sampled_from([np.zeros(3), FAR]).flatmap(lambda c: vectors.map(lambda v: c + v))
radii = st.floats(0.2, 2.0)


def near_pair_values(n, quad_n):
    """The near pairs (i, j) of n and their one-loop values as link_matrix computes them: one batch, child i as a."""
    (i, j), _ = _near_pairs(n)
    (u, v), radii = n.child_frames, np.full(len(i), n.contraction)
    samples = _loop_samples(n.child_centers[j], radii, u[j], v[j], quad_n)
    return i, j, _loop_linking(n.child_centers[i], n.child_normals[i], radii, *samples, radii)


def crossing_pair(theta, delta, inside):
    """Unit circles (a, b): b about the origin with normal e2, and a, whose wire runs along e2 at distance delta
    from b's point at angle theta, outside b's disc (one close approach, unlinked) or inside it (two, linked)."""
    b = Circle3(np.zeros(3), 1.0, np.array([0.0, 1.0, 0.0]))
    u, v = b.basis()
    radial, tangent = math.cos(theta) * u + math.sin(theta) * v, math.cos(theta) * v - math.sin(theta) * u
    side = -1.0 if inside else 1.0
    return Circle3(radial * (1.0 + side * delta) + side * radial, 1.0, tangent), b


class TestLoopLinking:
    """The batched one-loop kernel: the double integral's values, polygonal_linking's signs, and its guard."""

    @given(centres, radii, normals, vectors, radii, normals)
    def test_random_pairs_equal_the_double_integral(self, ca, ra, na, offset, rb, nb):
        # unequal radii, centred near the origin or near (1e3, 0, 0); about one pair in ten is linked
        assume(abs(ra - rb) > 0.05)
        a, b = Circle3(ca, ra, na), Circle3(ca + 2.0 * offset, rb, nb)
        assume(point_circle_distance(b, a.sample(1024)).min() > 0.1 * max(ra, rb))
        assert abs(gauss_linking(a, b, 256) - double_integral_linking(a, b, 256)) <= 1e-9

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64, 400])
    def test_near_pairs_equal_the_double_integral(self, m):
        n = build_necklace(m)
        i, j, values = near_pair_values(n, 256)
        want = [double_integral_linking(n.child_circles[a], n.child_circles[b], 256) for a, b in zip(i, j)]
        assert np.max(np.abs(values - want)) <= 1e-9

    @pytest.mark.parametrize("m", [10, 16, 38, 40, 64])
    def test_signs_equal_the_polygonal_entries(self, m):
        n = build_necklace(m)
        i, j, values = near_pair_values(n, 64)
        entries = fresh_link_matrix(n, poly_n=128).entries[i, j]
        assert np.array_equal(np.rint(values), entries) and np.count_nonzero(entries) == m  # the adjacent pairs

    @pytest.mark.parametrize("height", [0.0, 0.5])
    def test_sample_on_the_axis_gives_a_finite_value(self, height):
        # b's first sample, its centre minus its radius times e1, lies exactly on a's axis: rho = 0 there
        b = Circle3(np.array([1.0, 0.0, height]), 1.0, np.array([0.0, 1.0, 0.0]))
        assert b.sample(64)[0].tolist() == [0.0, 0.0, height]
        g = gauss_linking(HOPF_A, b, 64)
        assert math.isfinite(g) and abs(g - double_integral_linking(HOPF_A, b, 256)) <= 1e-9

    @pytest.mark.parametrize("quad_n", [16, 64])
    @pytest.mark.parametrize("offset", [np.zeros(3), FAR])
    def test_guard_at_the_threshold(self, quad_n, offset):
        # b (radius 0.7, perpendicular to the unit circle a) has its first sample (1 -+ 1e-9) guards from a, and
        # every other sample farther
        guard = _GUARD * math.pi * 0.7 / quad_n
        a = Circle3(offset, 1.0, E3)
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            b = Circle3(offset + np.array([1.7 + factor * guard, 0.0, 0.0]), 0.7, np.array([0.0, 1.0, 0.0]))
            if factor < 1.0:
                with pytest.raises(MinSeparationTooSmall, match=re.escape(f"< {guard:.3e}, 1.5 half sample spacings")):
                    gauss_linking(a, b, quad_n)
            else:
                assert abs(gauss_linking(a, b, quad_n)) < GAUSS_TOL  # unlinked

    @given(centres, radii, normals, radii, normals, normals, st.integers(0, 63), st.integers(0, 63),
           st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1e-12, 1e-12])))
    def test_guard_raises_exactly_where_a_sample_is_too_close(self, ca, ra, na, rb, nb, w, i, j, log2_s):
        # b's j-th sample is placed 2^log2_s guards from a's i-th along w: its sampled distance from circle a,
        # as point_circle_distance measures it, decides
        a = Circle3(ca, ra, na)
        t = 2.0 * math.pi / 64 * np.arange(64)
        ub, vb = Circle3(np.zeros(3), rb, nb).basis()
        guard = _GUARD * math.pi * rb / 64
        target = a.point_at(t[i]) + guard * 2.0**log2_s * w / np.linalg.norm(w)
        b = Circle3(target - rb * (math.cos(t[j]) * ub + math.sin(t[j]) * vb), rb, nb)
        sep = point_circle_distance(a, b.sample(64)).min()
        if sep < guard:
            with pytest.raises(MinSeparationTooSmall, match=re.escape(f"sampled distance {sep:.3e} from circle a")):
                gauss_linking(a, b, 64)
        else:
            assert math.isfinite(gauss_linking(a, b, 64))

    @pytest.mark.parametrize("quad_n", [16, 64])
    def test_every_pair_the_guard_admits_is_within_the_tolerance(self, quad_n):
        # b passes a's wire once or twice at 1 to 2.5 half spacings, its closest point anywhere between two
        # samples: wherever the guard lets the rule run, it errs by less than GAUSS_TOL
        s, errors = math.pi / quad_n, []
        for theta, delta, inside in itertools.product(np.linspace(0.0, 2.0 * s, 9), np.linspace(1.0, 2.5, 16) * s,
                                                      (False, True)):
            try:
                g = gauss_linking(*crossing_pair(theta, delta, inside), quad_n)
            except MinSeparationTooSmall:
                continue
            errors.append(abs(g - round(g)))
        assert len(errors) > 100 and max(errors) < GAUSS_TOL

    def test_link_matrix_evaluates_quad_n_points_per_near_pair(self, necklace40, monkeypatch):
        shapes = []
        monkeypatch.setattr(antoine.linking, "_loop_linking", lambda *args: shapes.append(args[3].shape) or _loop_linking(*args))
        link_matrix(necklace40, quad_n=64)
        assert shapes == [(3, 40, 64)]  # one batch: 40 x 64 = 2,560 points


def disk_lk(a, b):
    """_disk_crossings on one pair of circles."""
    (u, v), radius_a, radius_b = b.basis(), np.array([a.radius]), np.array([b.radius])
    return int(_disk_crossings(a.center[None], a.normal[None], radius_a, b.center[None], u[None], v[None], radius_b)[0])


def polygon_lk(a, b):
    return polygonal_linking(PolyLoop.from_circle(a, 512), PolyLoop.from_circle(b, 512))


@st.composite
def disjoint_pairs(draw):
    """Two circles at least 5% of the larger radius apart: b about a random centre near a's (tilted and offset
    pairs, mostly unlinked), about a point of a with a random normal (linked or not), or about a point of a with
    its normal near a's tangent there and a radius under 2 r_a (Hopf links)."""
    a = Circle3(draw(centres), draw(radii), draw(normals))
    kind, offset, rb, nb, angle = draw(st.sampled_from(["offset", "on_a", "hopf"])), *draw(st.tuples(
        vectors, radii, normals, st.floats(0.0, 2.0 * math.pi)))
    if kind == "offset":
        b = Circle3(a.center + 2.0 * offset, rb, nb)
    else:
        u, v = a.basis()
        tangent = math.cos(angle) * v - math.sin(angle) * u
        normal = tangent + 0.5 * offset if kind == "hopf" else nb
        assume(np.linalg.norm(normal) > 0.1)
        b = Circle3(a.point_at(angle) + 0.2 * offset, min(rb, 1.9 * a.radius) if kind == "hopf" else rb, normal)
    assume(point_circle_distance(b, a.sample(1024)).min() > 0.05 * max(a.radius, b.radius))
    return a, b


def tilted(c, e3_to):
    """The circle c carried by the minimal rotation from e3 to e3_to about the origin."""
    return c.transform(Similarity3(1.0, Rotation3.aligning(E3, np.asarray(e3_to, dtype=float)), np.zeros(3)))


class TestDiskCrossings:
    """The closed-form disk-crossing kernel: polygonal_linking's integers, the symmetries of lk, and no guess."""

    @settings(max_examples=200)
    @given(disjoint_pairs())
    def test_random_disjoint_pairs_equal_polygonal(self, pair):
        assert disk_lk(*pair) == polygon_lk(*pair)

    @given(disjoint_pairs())
    def test_symmetric_and_odd_under_a_flip(self, pair):
        a, b = pair
        lk = disk_lk(a, b)
        flip_a, flip_b = (Circle3(c.center, c.radius, -c.normal) for c in (a, b))
        assert disk_lk(b, a) == lk == -disk_lk(flip_a, b) == -disk_lk(a, flip_b) == disk_lk(flip_a, flip_b)

    def test_hopf_pair_has_the_shared_sign(self):
        assert disk_lk(HOPF_A, HOPF_B) == polygon_lk(HOPF_A, HOPF_B) == round(gauss_linking(HOPF_A, HOPF_B)) == 1

    @pytest.mark.parametrize("b", [
        Circle3(np.array([3.0, 0.0, 0.0]), 1.0, E3),  # coplanar, apart
        Circle3(np.array([0.2, 0.1, 0.0]), 0.3, E3),  # coplanar, inside a's disk
        Circle3(np.array([0.2, 0.1, 1e-14]), 0.3, np.array([1e-13, 0.0, 1.0])),  # nearly so
        Circle3(np.array([0.1, 0.0, 0.0]), 3.0, np.array([0.0, 0.1, 1.0])),  # tilted about a, an unlinked chain
        Circle3(np.array([3.0, 0.0, 0.5]), 0.5, np.array([0.0, 1.0, 0.0])),  # touches a's plane outside the disk
        Circle3(np.array([0.3, 0.0, 0.5]), 0.5, np.array([0.0, 1.0, 0.0])),  # touches a's plane inside the disk
        Circle3(np.array([0.0, 0.0, 2.0]), 1.0, E3),  # coaxial, above
    ])
    def test_degenerate_disjoint_pairs_are_unlinked(self, b):
        # b misses a's plane, lies in it or nearly, or touches it, in any position: lk = 0 in either order
        for turn in (E3, [1.0, 2.0, 2.0]):
            a_turned, b_turned = tilted(HOPF_A, turn), tilted(b, turn)
            assert disk_lk(a_turned, b_turned) == disk_lk(b_turned, a_turned) == 0

    @pytest.mark.parametrize("centre, normal", [
        ([1.6, 0.0, 0.8], [0.0, 1.0, 0.0]),  # crosses a's plane on circle a
        ([1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),  # touches a's plane on circle a
        ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]),  # meets circle a twice, across it
        ([2.0, 0.0, 0.0], [0.0, 0.0, 1.0]),  # coplanar, touching
        ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),  # coplanar, meeting twice
    ])
    def test_meeting_circles_raise_naming_the_pair(self, centre, normal):
        # unit circles, and children 1 and 2 of an m = 10 necklace moved onto them, scaled by the ratio 4/m: no
        # integer is returned for circles that meet, in either order
        b = Circle3(np.array(centre), 1.0, np.array(normal))
        for pair in ((HOPF_A, b), (b, HOPF_A)):
            with pytest.raises(MinSeparationTooSmall, match="within the rounding allowance"):
                disk_lk(*pair)
        n = build_necklace(10)
        r = n.contraction
        unit = Similarity3(r, Rotation3(np.eye(3)), np.zeros(3))
        moved = Similarity3(r, Rotation3.aligning(E3, np.array(normal)), r * np.array(centre))
        for maps in ((unit, moved), (moved, unit)):
            n = dataclasses.replace(n, child_maps=(*maps, *n.child_maps[2:]))
            with pytest.raises(LinkBackendError, match=re.escape("child pair (1, 2): disk crossing ")) as info:
                link_matrix(n)
            assert isinstance(info.value.cause, MinSeparationTooSmall)

    def test_non_finite_pair_raises(self):
        b = Circle3(np.array([math.nan, 0.0, 0.0]), 1.0, E3)
        with pytest.raises(MinSeparationTooSmall):
            disk_lk(HOPF_A, b)

    def test_evaluates_the_40_adjacent_pairs_at_m40(self, necklace40, monkeypatch):
        # the replacement of the 40 polygonal_linking calls: one batch of exactly the adjacent pairs, no far pair
        batches, original = [], antoine.linking._disk_crossings
        child = {tuple(c): k for k, c in enumerate(necklace40.child_centers.tolist())}

        def recording(centers, normals, radii, centers_b, u_b, v_b, radii_b):
            pairs = zip(centers.tolist(), centers_b.tolist())
            batches.append(sorted(tuple(sorted((child[tuple(p)], child[tuple(q)]))) for p, q in pairs))
            return original(centers, normals, radii, centers_b, u_b, v_b, radii_b)

        monkeypatch.setattr(antoine.linking, "_disk_crossings", recording)
        link_matrix(necklace40)
        assert batches == [sorted([(k, k + 1) for k in range(39)] + [(0, 39)])]


def fresh_link_matrix(n, poly_n=512, quad_n=64):
    """link_matrix pair by pair, the oracle: the entries from polygonal_linking on two fresh polygons per near pair
    (one generator from the package seed, the pairs in order) and the gap from gauss_linking."""
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    (i, j), _ = _near_pairs(n)
    entries = np.zeros((m, m), dtype=int)
    max_gap = 0.0
    for a, b in zip(i, j):
        ca, cb = n.child_circles[a], n.child_circles[b]
        lk = polygonal_linking(PolyLoop.from_circle(ca, poly_n), PolyLoop.from_circle(cb, poly_n), rng=rng)
        max_gap = max(max_gap, abs(gauss_linking(ca, cb, quad_n) - lk))
        entries[a, b] = entries[b, a] = lk
    return LinkMatrix(entries, max_gap)


class TestLinkMatrix:
    @pytest.mark.parametrize("m", [16, 38, 40, 64, 400])
    def test_equals_fresh_loop(self, m):
        # the disk crossings give polygonal_linking's integers (512-gons, package seed) on every near pair
        n = build_necklace(m)
        got, want = link_matrix(n), fresh_link_matrix(n)
        assert np.array_equal(got.entries, want.entries)
        assert got.max_gauss_gap == want.max_gauss_gap

    def test_fields_are_the_entries_and_the_gap(self, necklace16):
        lm = link_matrix(necklace16)
        assert [f.name for f in dataclasses.fields(lm)] == ["entries", "max_gauss_gap"]
        assert lm.to_json_dict()["m"] == len(lm.entries) == 16
        assert not lm.entries.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 4), (16,), (2, 2, 2), ()])
    def test_entries_must_be_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be a square integer matrix, not of shape {shape}")):
            LinkMatrix(np.zeros(shape, dtype=int), 0.0)

    @pytest.mark.parametrize("quad_n", [8, -1, 64.0, 64.5, True])
    def test_small_grids_rejected_before_any_pair(self, necklace16, quad_n, monkeypatch):
        monkeypatch.setattr(antoine.linking, "_disk_crossings", None)  # a pair measured first raises TypeError
        with pytest.raises(ValueError, match=r"^quad_n must be an integer >= 16, "):
            link_matrix(necklace16, quad_n=quad_n)

    def test_package_backend_error_names_its_pair(self, necklace16, monkeypatch):
        def failing(*args):  # the batch's third pair, (2, 3), is the first offending one
            raise MinSeparationTooSmall("disk crossing 1.000e-17 from circle a, within the rounding allowance", 2)

        monkeypatch.setattr(antoine.linking, "_disk_crossings", failing)
        with pytest.raises(LinkBackendError, match=re.escape("child pair (2, 3): disk crossing 1.000e-17")) as info:
            link_matrix(necklace16)
        assert info.value.pair == (2, 3)

    def test_foreign_backend_error_propagates(self, necklace16, monkeypatch):
        # only the package's own errors are validation failures; a TypeError is a fault and keeps its type
        def failing(*args):
            raise TypeError("backend fault")

        monkeypatch.setattr(antoine.linking, "_disk_crossings", failing)
        with pytest.raises(TypeError, match="^backend fault$"):
            link_matrix(necklace16)

    @pytest.mark.parametrize("m,tube_factor", [(40, 1.0), (16, 2.0)])
    def test_one_kernel_evaluation_per_near_pair(self, m, tube_factor, monkeypatch):
        # one disk-crossing batch whose rows are the near pairs, each once, child i as a; the doubled tube at
        # m = 16 gives each child four near pairs
        n = build_necklace(m)
        n = dataclasses.replace(n, child_tube=tube_factor * n.child_tube)
        batches = []
        original = antoine.linking._disk_crossings
        monkeypatch.setattr(antoine.linking, "_disk_crossings", lambda *args: batches.append(args) or original(*args))
        link_matrix(n, quad_n=64)
        (i, j), _ = _near_pairs(n)
        assert len(i) == m * tube_factor
        ((centers, _, _, centers_b, *_),) = batches
        assert np.array_equal(centers, n.child_centers[i]) and np.array_equal(centers_b, n.child_centers[j])

    def test_warm_call_takes_few_page_faults(self):
        # fresh quad_n x quad_n grids per pair once took about 14,000 minor faults at m = 40; the one-loop
        # batch is a few (40, quad_n) arrays. Counted in a new process: once a long-lived one has freed a large
        # block, glibc raises its trim threshold and keeps freed pages, which would hide the faults
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
    """Reference for _try_projection: every segment pair, no pruning, in the same frame."""
    (w,) = unit_rows(w)
    (u,), (v,) = circle_frames(w[None])
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
