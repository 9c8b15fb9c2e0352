"""Acceptance suite: every top-level criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The heavy artifacts (multiplicity scan, full link matrix)
are computed once per session.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from antoine.dynamics import (
    ESCAPED,
    SURVIVED,
    ExteriorModel,
    box_dimension_estimate,
    chaos_game_sample,
    classify_points,
    coding_point,
    density_report,
    dilatation_estimate,
    exterior_model_map,
    similarity_dimension,
    winding_map,
)
from antoine.exports import export_mesh, export_points, export_volume
from antoine.geom3 import fixed_points
from antoine.linking import link_matrix
from antoine.necklace import (
    build_necklace,
    scan_multiplicities,
    stage_summary,
    torus_at,
    validate_necklace,
    word_map,
    word_maps,
)

from conftest import M_STAR, torus_membership
from oracles import mesh_euler_characteristic, mesh_is_watertight, parse_obj


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def scan_result():
    """Minimal validating multiplicity from the package scan, timed with its validation.

    Every smaller m is rejected by a certified lower bound that fails: a
    children_disjoint or children_contained margin <= 0 at the default grid,
    so full validation at those m cannot pass. They are not overlap
    witnesses: a failed lower bound does not prove that two tori meet.
    """
    geometry = ("children_disjoint", "children_contained")
    rejected = []
    for m in range(10, M_STAR, 2):
        checks = validate_necklace(build_necklace(m), check_linking=False).checks
        if not all(c.passed for c in checks if c.name in geometry):
            rejected.append(m)
    t0 = time.perf_counter()
    candidate, report = next((m, r) for m, r in scan_multiplicities(range(10, 1001, 2)) if r.passed)
    elapsed = time.perf_counter() - t0
    return rejected, candidate, report, elapsed


@pytest.fixture(scope="module")
def matrix_result(necklace40):
    t0 = time.perf_counter()
    lm = link_matrix(necklace40, poly_n=512, quad_n=256)
    return lm, time.perf_counter() - t0


def test_criterion_1_construction_validity(scan_result):
    rejected, m_star, report, elapsed = scan_result
    with criterion(1, f"minimal validating multiplicity m*={m_star}, scan and validate in {elapsed:.1f}s"):
        assert rejected == list(range(10, M_STAR, 2))  # everything below fails
        assert m_star == M_STAR <= 1000
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["children_disjoint"].margin > 0
        assert by_name["children_contained"].margin > 0
        # margin = tolerance - deviation, so positive margin at tolerance
        # 1e-10 is exactly "symmetry deviation below 1e-10"
        assert by_name["rho_equivariance"].tolerance == 1e-10
        assert by_name["rho_equivariance"].margin > 0
        assert by_name["iota_symmetry"].margin > 0
        assert elapsed < 60.0


def test_criterion_2_linking_pattern(necklace40, matrix_result):
    lm, elapsed = matrix_result
    with criterion(2, f"adjacent Hopf pattern exact, gauss gap {lm.max_gauss_gap:.4f}, {elapsed:.1f}s"):
        m = necklace40.multiplicity
        expected = np.zeros((m, m), dtype=int)
        for j in range(m):
            expected[j, (j + 1) % m] = expected[(j + 1) % m, j] = 1
        assert np.array_equal(np.abs(lm.entries), expected)
        assert lm.max_gauss_gap <= 0.05
        assert elapsed < 120.0


def test_criterion_3_julia_equals_attractor(necklace40):
    with criterion(3, "chaos samples survive budget 40; bbox points classify finitely"):
        samples = chaos_game_sample(necklace40, 10_000, 20, seed=101)
        status, _, _ = classify_points(necklace40, samples, 40)
        assert np.all(status == SURVIVED)

        rng = np.random.default_rng(102)
        uniform = rng.uniform(-1.6, 1.6, size=(10_000, 3))
        status, depth, itinerary = classify_points(necklace40, uniform, 40, itinerary_digits=12)
        assert np.all(status != SURVIVED)  # exterior or finite depth

        mismatches = 0
        for i in np.flatnonzero(status == ESCAPED):
            k = int(depth[i])
            word = tuple(int(d) for d in itinerary[i][: min(k, 12)])
            assert all(d > 0 for d in word)
            p = uniform[i]
            for L in range(1, len(word) + 1):
                if torus_membership(torus_at(necklace40, word[:L]), p) == "outside":
                    mismatches += 1
            if k < 12:
                # not in any stage-(k+1) torus: the k-prefix is forced, so
                # only the children of that torus can contain the point
                for j in range(1, necklace40.multiplicity + 1):
                    if torus_membership(torus_at(necklace40, word + (j,)), p) != "outside":
                        mismatches += 1
        assert mismatches == 0


def test_criterion_4_repelling_periodic_points(necklace40):
    with criterion(4, "1000 periodic words: residual, expansion rate, density decay"):
        m = necklace40.multiplicity
        c0 = stage_summary(necklace40, 0).max_diameter
        rng = np.random.default_rng(103)
        words = [tuple(rng.integers(1, m + 1, size=rng.integers(1, 4))) for _ in range(1000)]
        for w in words:
            scales, rots, shifts = word_maps(necklace40, [w])
            x = fixed_points(scales, rots, shifts)[0]
            _, _, itinerary = classify_points(necklace40, x, len(w), itinerary_digits=len(w))
            assert tuple(itinerary[0]) == w
            z = x
            for d in w:
                z = necklace40.inverse_maps[d - 1].apply(z)
            assert np.linalg.norm(z - x) <= 1e-9 * c0
            assert 1.0 / scales[0] == pytest.approx((m / 4.0) ** len(w))  # the orbit's multiplier

        # measured per-step expansion on point pairs deep in the word torus
        for w in words[:100]:
            tor = torus_at(necklace40, w + w)
            x, y = tor.core.point_at(0.3), tor.core.point_at(0.9)
            dx, dy = classify_points(necklace40, np.stack([x, y]), 1, itinerary_digits=1)[2][:, 0]
            a, b = necklace40.inverse_maps[dx - 1].apply(x), necklace40.inverse_maps[dy - 1].apply(y)
            rate = np.linalg.norm(a - b) / np.linalg.norm(x - y)
            assert rate == pytest.approx(m / 4.0, rel=1e-6)

        d = [density_report(necklace40, p, 12, seed=104) for p in (1, 2, 3)]
        assert d[0] >= d[1] >= d[2]
        bound = stage_summary(necklace40, 3).max_diameter + stage_summary(necklace40, 12).max_diameter
        assert d[2] <= bound


def test_criterion_5_escaping_boundary_witness(necklace40):
    with criterion(5, "100 coding points survive while 1e-3 neighbors escape"):
        rng = np.random.default_rng(105)
        passes = 0
        for _ in range(100):
            prefix = tuple(rng.integers(1, 41, size=rng.integers(0, 3)))
            tail = tuple(rng.integers(1, 41, size=rng.integers(1, 4)))
            p = coding_point(necklace40, prefix, tail)
            if classify_points(necklace40, p, 40)[0][0] != SURVIVED:
                continue
            for _ in range(8):
                d = rng.normal(size=3)
                q = p + 1e-3 * d / np.linalg.norm(d)
                if classify_points(necklace40, q, 40)[0][0] == ESCAPED:
                    passes += 1
                    break
        assert passes == 100


def test_criterion_6_dilatation_bounds(necklace40):
    with criterion(6, "conformal inner maps, winding distortion 64/8, exact radial growth"):
        rng = np.random.default_rng(106)
        for cmap in necklace40.child_maps:
            ko, ki = dilatation_estimate(cmap.apply, rng.normal(size=3))
            assert 1.0 <= ko <= 1.0 + 1e-6 and 1.0 <= ki <= 1.0 + 1e-6
        for _ in range(25):
            w = tuple(rng.integers(1, 41, size=rng.integers(1, 4)))
            pull = word_map(necklace40, w).invert()
            p = torus_at(necklace40, w + w).core.point_at(float(rng.uniform(0, 2 * math.pi)))
            ko, ki = dilatation_estimate(pull.apply, p)
            assert 1.0 <= ko <= 1.0 + 1e-6 and 1.0 <= ki <= 1.0 + 1e-6

        ko, ki = dilatation_estimate(lambda p: winding_map(p, 16), np.array([1.2, 0.4, 0.3]))
        assert ko == pytest.approx(64.0, rel=0.01)
        assert ki == pytest.approx(8.0, rel=0.01)

        pts = rng.normal(size=(10_000, 3))
        pts *= (rng.uniform(0.25, 4.0, 10_000) / np.linalg.norm(pts, axis=1))[:, None]
        for d in (2, 3, 4):
            model = ExteriorModel(d)
            norms = np.linalg.norm(exterior_model_map(pts, model), axis=1)
            target = np.linalg.norm(pts, axis=1) ** d
            assert np.max(np.abs(norms - target) / target) <= 1e-12


def test_criterion_7_dimension_consistency(necklace40):
    with criterion(7, "box-counting slope within 15% of the similarity dimension"):
        rng = np.random.default_rng(107)
        count, depth = 100_000, 6
        digits = rng.integers(1, 41, size=(count, depth))
        base = necklace40.base_torus.core.point_at(0.0)
        pts = np.tile(base, (count, 1))
        for level in range(depth - 1, -1, -1):
            col = digits[:, level]
            for j in np.unique(col):
                sel = col == j
                pts[sel] = necklace40.child_maps[j - 1].apply(pts[sel])
        scales = [stage_summary(necklace40, k).max_diameter for k in (1, 2, 3)]
        slope = box_dimension_estimate(pts, scales)
        target = similarity_dimension(necklace40.multiplicity)
        assert abs(slope - target) / target <= 0.15

        seg = np.zeros((10_000, 3))
        seg[:, 0] = rng.uniform(0, 1, 10_000)
        assert box_dimension_estimate(seg, np.geomspace(1e-3, 1e-1, 6)) == pytest.approx(1.0, abs=0.1)
        sq = np.zeros((10_000, 3))
        sq[:, :2] = rng.uniform(0, 1, (10_000, 2))
        assert box_dimension_estimate(sq, np.geomspace(0.03, 0.1, 5)) == pytest.approx(2.0, abs=0.15)


def test_criterion_8_determinism_and_formats(necklace40, tmp_path):
    with criterion(8, "byte-identical reruns; exported stage-1 tori watertight, Euler 0"):
        for name in ("a", "b"):
            export_volume(necklace40, (24, 24, 24), ((-1.6,) * 3, (1.6,) * 3), 12, tmp_path / f"{name}.vol")
            export_points(chaos_game_sample(necklace40, 500, 12, seed=7), "xyz", tmp_path / f"{name}.xyz")
            export_mesh(necklace40, 1, 16, 8, "obj", tmp_path / f"{name}.obj")
        for ext in ("vol", "vol.json", "xyz", "obj"):
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

        meshes = parse_obj(tmp_path / "a.obj")
        assert len(meshes) == necklace40.multiplicity
        for verts, tris in meshes:
            assert mesh_is_watertight(verts, tris)
            assert mesh_euler_characteristic(verts, tris) == 0
