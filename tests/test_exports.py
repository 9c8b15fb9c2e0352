import hashlib
import json
import math
import struct
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest

from antoine import exports, floattext
from antoine.dynamics import (
    BOUNDARY_TOL, DEFAULT_BUDGET, ESCAPED, EXTERIOR, chaos_game_sample, classify_points, coding_point,
)
from antoine.errors import MultipleChildren, TooManyTori
from antoine.exports import (
    DEFAULT_BBOX,
    VOL_EXTERIOR,
    VOL_SURVIVED,
    VolumeGrid,
    classify_volume,
    export_mesh,
    export_points,
    export_volume,
    load_volume,
    mesh_stage,
    torus_meshes,
    voxel_centers,
    write_volume,
)
from antoine.geom3 import point_circle_distance
from antoine.necklace import _rho_classes, build_necklace, torus_at

from oracles import (
    child_shell, mesh_euler_characteristic, mesh_is_watertight, mesh_signed_volume, parse_obj, parent_pad,
    rounding_margin,
)


def torus_mesh(t, nu, nv):
    """One torus through torus_meshes: (nu*nv, 3) vertices, (2*nu*nv, 3) triangles."""
    c = t.core
    verts, tris = torus_meshes(c.center[None], np.array([c.radius]), c.normal[None], np.array([t.tube]), nu, nv)
    return verts[0], tris


class TestTorusMesh:
    def test_counts_and_topology(self, necklace16):
        nu, nv = 24, 12
        verts, tris = torus_mesh(necklace16.base_torus, nu, nv)
        assert verts.shape == (nu * nv, 3)
        assert tris.shape == (2 * nu * nv, 3)
        assert mesh_is_watertight(verts, tris)
        assert mesh_euler_characteristic(verts, tris) == 0

    def test_outward_orientation_and_volume(self, necklace16):
        verts, tris = torus_mesh(necklace16.base_torus, 96, 48)
        vol = mesh_signed_volume(verts, tris)
        analytic = 2 * math.pi**2 * necklace16.base_torus.core.radius * necklace16.base_torus.tube**2
        assert vol > 0
        assert vol == pytest.approx(analytic, rel=5e-3)

    def test_resolution_floor(self, necklace16):
        with pytest.raises(ValueError):
            torus_mesh(necklace16.base_torus, 4, 12)

    def test_stage_one_counts(self, necklace16):
        stage = mesh_stage(necklace16, 1, 16, 8)
        assert len(stage.verts) == 16
        assert sum(v.shape[0] for v in stage.verts) == 16 * 16 * 8
        for verts in stage.verts:
            assert mesh_is_watertight(verts, stage.tris)
            assert mesh_euler_characteristic(verts, stage.tris) == 0

    @pytest.mark.parametrize("m, k", [(16, 0), (16, 1), (16, 2), (40, 1)])
    def test_stage_rows_are_torus_meshes(self, m, k):
        n = build_necklace(m)
        stage = mesh_stage(n, k, 16, 8)
        assert stage.verts.shape == (m**k, 16 * 8, 3)
        for address, verts in zip(stage.addresses, stage.verts):
            one_verts, one_tris = torus_mesh(torus_at(n, address), 16, 8)
            assert np.array_equal(verts, one_verts)
            assert np.array_equal(stage.tris, one_tris)
            assert mesh_is_watertight(verts, stage.tris)
            assert mesh_euler_characteristic(verts, stage.tris) == 0
            assert mesh_signed_volume(verts, stage.tris) > 0

    def test_too_many_tori(self, necklace16):
        with pytest.raises(TooManyTori):
            mesh_stage(necklace16, 6, 8, 8)

    @pytest.mark.parametrize("k", [1.5, 1.0, -1])
    def test_stage_is_an_integer(self, necklace16, k):
        with pytest.raises(ValueError, match=f"k, the stage, must be an integer >= 0, got {k}"):
            mesh_stage(necklace16, k, 8, 8)

    @pytest.mark.parametrize("nu, nv, name", [(8.5, 8, "nu"), (8, 8.0, "nv")])
    def test_resolution_is_an_integer(self, necklace16, nu, nv, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 8, got {nu if name == 'nu' else nv}"):
            mesh_stage(necklace16, 1, nu, nv)


class TestObjPly:
    def test_obj_roundtrip_bitwise(self, necklace16, tmp_path):
        path = tmp_path / "stage1.obj"
        stage = export_mesh(necklace16, 1, 16, 8, "obj", path)
        parsed = parse_obj(path)
        assert len(parsed) == 16
        for v0, (v1, t1) in zip(stage.verts, parsed):
            assert v0.tobytes() == v1.tobytes()  # 17 significant digits round-trip floats
            assert np.array_equal(stage.tris, t1)

    def test_obj_determinism(self, necklace16, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        export_mesh(necklace16, 1, 12, 8, "obj", a)
        export_mesh(necklace16, 1, 12, 8, "obj", b)
        assert a.read_bytes() == b.read_bytes()

    def test_obj_header_embeds_parameters(self, necklace16, tmp_path):
        path = tmp_path / "s.obj"
        export_mesh(necklace16, 0, 12, 8, "obj", path)
        head = path.read_text().splitlines()[:4]
        assert "# m=16" in head and "# stage=0" in head

    def test_ply_binary_layout(self, necklace16, tmp_path):
        path = tmp_path / "stage0.ply"
        stage = export_mesh(necklace16, 0, 12, 8, "ply", path)
        raw = path.read_bytes()
        header, _, body = raw.partition(b"end_header\n")
        text = header.decode("ascii")
        assert "format binary_little_endian 1.0" in text
        assert "element vertex 96" in text
        assert "property double x" in text
        verts = stage.verts[0]
        assert body[: 8 * 3] == verts[0].astype("<f8").tobytes()
        face_bytes = body[96 * 24 :]
        count, i0, i1, i2 = struct.unpack("<Biii", face_bytes[:13])
        assert count == 3
        assert (i0, i1, i2) == tuple(stage.tris[0])


class TestDigests:
    """Artifact bytes pinned across changes: sha256 of an m = 40 stage-2 PLY, a stage-1 OBJ and a 64^3 volume."""

    def test_stage2_ply(self, necklace40, tmp_path):
        export_mesh(necklace40, 2, 16, 8, "ply", tmp_path / "s.ply")
        digest = hashlib.sha256((tmp_path / "s.ply").read_bytes()).hexdigest()
        assert digest == "f196c961334302f0896a6a0de65f835d71ad61aee7da94d70404e23c5c841629"

    def test_stage1_obj(self, necklace40, tmp_path):
        # what `antoine export --m 40 --stage 1 --format obj` writes at its default 48 x 24
        export_mesh(necklace40, 1, 48, 24, "obj", tmp_path / "s.obj")
        digest = hashlib.sha256((tmp_path / "s.obj").read_bytes()).hexdigest()
        assert digest == "998f1817306db230aa98fa5cd5c76b07ee6240d364990473f6d0bd38ce6d9175"

    def test_volume_64(self, necklace40, tmp_path):
        export_volume(necklace40, (64, 64, 64), path=tmp_path / "e.vol")
        digest = hashlib.sha256((tmp_path / "e.vol").read_bytes()).hexdigest()
        assert digest == "8e3858b84b0657652829f94268004617936bc02556101c76b8078859da4779ca"


class TestVolume:
    def test_far_bbox_all_exterior(self, necklace16):
        grid = classify_volume(necklace16, (4, 4, 4), ((10, 10, 10), (11, 11, 11)), budget=5)
        assert np.all(grid.values == VOL_EXTERIOR)

    def test_coding_point_voxel_survives(self, necklace40):
        p = coding_point(necklace40, (), (3, 8))
        h = 1e-5
        grid = classify_volume(necklace40, (3, 3, 3), (p - h, p + h), budget=40)
        center = grid.values.reshape(3, 3, 3, order="F")[1, 1, 1]
        assert center == VOL_SURVIVED

    def test_budget_refinement_monotone(self, necklace40):
        p = coding_point(necklace40, (), (3, 8))
        h = 1e-3
        counts = []
        for budget in (2, 4, 8):
            grid = classify_volume(necklace40, (8, 8, 8), (p - h, p + h), budget=budget)
            counts.append(int(np.sum(grid.values == VOL_SURVIVED)))
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > counts[2]

    def test_voxel_order_x_fastest(self):
        centers = voxel_centers((4, 3, 2), (0, 0, 0), (4, 3, 2))
        step = centers[1] - centers[0]
        assert np.allclose(step, [1, 0, 0])
        assert np.allclose(centers[4] - centers[0], [0, 1, 0])
        assert np.allclose(centers[12] - centers[0], [0, 0, 1])

    def test_voxel_centers_equal_meshgrid_stack(self):
        dims, lo, hi = (5, 3, 7), np.array([-1.3, 0.2, -0.7]), np.array([0.9, 2.6, 1.1])
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(dims[i]) + 0.5) / dims[i] for i in range(3)]
        zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
        expected = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
        assert np.array_equal(voxel_centers(dims, lo, hi), expected)

    def test_write_load_roundtrip(self, necklace40, tmp_path):
        path = tmp_path / "e.vol"
        export_volume(necklace40, (6, 5, 4), ((-1.6,) * 3, (1.6,) * 3), 5, path)
        loaded = load_volume(path)
        assert loaded.dims == (6, 5, 4)
        assert np.array_equal(loaded.values, classify_volume(necklace40, (6, 5, 4), ((-1.6,) * 3, (1.6,) * 3), 5).values)
        sidecar = json.loads((tmp_path / "e.vol.json").read_text())
        assert sidecar["m"] == 40 and sidecar["budget"] == 5 and "seed" not in sidecar
        assert sidecar["encoding"] == {"exterior": VOL_EXTERIOR, "survived": VOL_SURVIVED}

    def test_rerun_byte_identical(self, necklace40, tmp_path):
        a, b = tmp_path / "a.vol", tmp_path / "b.vol"
        export_volume(necklace40, (8, 8, 8), ((-1.6,) * 3, (1.6,) * 3), 6, a)
        export_volume(necklace40, (8, 8, 8), ((-1.6,) * 3, (1.6,) * 3), 6, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.vol.json").read_text() == (tmp_path / "b.vol.json").read_text()

    def test_invalid_necklace_classification_raises(self, necklace16):
        # m = 16 children overlap; bulk classification must say so, not guess
        from antoine.errors import MultipleChildren

        # the index of the voxel in the full x-fastest grid, not of the point in the classified box
        with pytest.raises(MultipleChildren, match="point index 202 "):
            classify_volume(necklace16, (8, 8, 8), ((-1.6,) * 3, (1.6,) * 3), budget=6)
        centers = voxel_centers((8, 8, 8), (-1.6,) * 3, (1.6,) * 3)
        with pytest.raises(MultipleChildren, match="point index 202 "):
            classify_points(necklace16, centers, 6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            VolumeGrid((1, 4, 4), np.zeros(3), np.ones(3), np.zeros(16, dtype=np.uint16))
        with pytest.raises(ValueError):
            VolumeGrid((2, 2, 2), np.zeros(3), np.zeros(3), np.zeros(8, dtype=np.uint16))
        with pytest.raises(ValueError):
            VolumeGrid((2, 2, 2), np.zeros(3), np.ones(3), np.zeros(9, dtype=np.uint16))

    @pytest.mark.parametrize(
        "dims,bbox",
        [
            ((8, 8, 8), ((-1e308,) * 3, (1e308,) * 3)),  # hi - lo overflows
            ((1024, 2, 2), ((-4e305, -1, -1), (4e305, 1, 1))),  # hi - lo is finite, (hi - lo) * 1023.5 is not
        ],
    )
    def test_non_finite_grid_is_rejected_without_warnings(self, necklace40, tmp_path, dims, bbox):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                VolumeGrid(dims, *bbox, np.zeros(math.prod(dims), dtype=np.uint16))
            with pytest.raises(ValueError, match="finite"):
                classify_volume(necklace40, dims, bbox, budget=6)
            with pytest.raises(ValueError, match="finite"):
                export_volume(necklace40, dims, bbox, 6, tmp_path / "e.vol")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dims", [(2.5, 4, 4), (4, 4, 3.5), (4, 4, math.nan), (4, math.inf, 4)])
    def test_non_integer_dims_are_rejected(self, necklace40, tmp_path, dims):
        # int(2.5) would classify a 2 x 4 x 4 grid
        bbox = ((-1.6,) * 3, (1.6,) * 3)
        with pytest.raises(ValueError, match="integers"):
            VolumeGrid(dims, *bbox, np.zeros(32, dtype=np.uint16))
        with pytest.raises(ValueError, match="integers"):
            classify_volume(necklace40, dims, bbox, budget=6)
        with pytest.raises(ValueError, match="integers"):
            export_volume(necklace40, dims, bbox, 6, tmp_path / "e.vol")
        assert list(tmp_path.iterdir()) == []


def full_volume(n, dims, bbox, budget):
    """classify_volume's values with every voxel center classified, as before the parent-box cull."""
    status, depth, _ = classify_points(n, voxel_centers(dims, *bbox), budget)
    values = np.full(status.shape, VOL_SURVIVED, dtype=np.uint16)
    values[status == EXTERIOR] = VOL_EXTERIOR
    escaped = status == ESCAPED
    values[escaped] = depth[escaped].astype(np.uint16)
    return values


def cull_masks(n, dims, bbox):
    """By point_circle_distance, another path than the volume's: the voxel centres within parent_pad of the parent
    core, and those past the child shell and inside the parent tube less the rounding margin, which the volume
    codes as escaped at depth 0 without classifying them."""
    d0 = point_circle_distance(n.base_torus.core, voxel_centers(dims, *bbox))
    return d0 <= parent_pad(n), (d0 > child_shell(n)) & (d0 < n.base_torus.tube + BOUNDARY_TOL - rounding_margin(n))


def classified_layer_counts(n, dims, bbox):
    """Per z-layer, the voxels the volume classifies, by cull_masks."""
    annulus, escaped = cull_masks(n, dims, bbox)
    return (annulus & ~escaped).reshape(dims[2], -1).sum(axis=1)


def counting_classifier(monkeypatch):
    """Replace exports.classify_points by one that records the number of points of each call; returns the list."""
    counts = []

    def counting(n, points, budget):
        counts.append(len(points))
        return classify_points(n, points, budget)

    monkeypatch.setattr(exports, "classify_points", counting)
    return counts


class TestParentBoxCull:
    """classify_volume classifies only the voxels in the annulus about the parent core, found in its box."""

    @pytest.mark.parametrize(
        "dims,bbox",
        [
            ((37, 23, 11), DEFAULT_BBOX),  # non-cubic dims
            ((24, 20, 16), ((-1.3, -0.2, -0.5), (1.1, 1.7, 0.25))),  # asymmetric bbox
            ((20, 20, 12), ((0.5, -1.6, -0.1), (2.0, 1.6, 1.0))),  # cuts the torus
            ((6, 5, 4), ((1.3, 1.3, 0.3), (3.0, 2.0, 1.0))),  # wholly outside it
            ((2, 3, 3), ((0.5, -1.0, -0.3), (2.5, 1.0, 0.3))),  # voxel planes at z = -tube, 0, +tube
        ],
    )
    def test_equals_classifying_every_voxel(self, necklace40, dims, bbox):
        grid = classify_volume(necklace40, dims, bbox, budget=6)
        assert np.array_equal(grid.values, full_volume(necklace40, dims, bbox, 6))

    def test_voxels_on_the_parent_surface_are_classified(self, necklace40):
        # (1, 0, +-tube) lie on the parent torus: not exterior, so the box must hold them
        dims, bbox = (2, 3, 3), ((0.5, -1.0, -0.3), (2.5, 1.0, 0.3))
        offset = np.abs(voxel_centers(dims, *bbox) - [1.0, 0.0, 0.0])
        on_surface = np.all(offset == [0.0, 0.0, necklace40.base_torus.tube], axis=1)
        assert on_surface.sum() == 2
        assert np.all(classify_volume(necklace40, dims, bbox, budget=6).values[on_surface] != VOL_EXTERIOR)

    @pytest.mark.parametrize("delta", [2.0**-32, 2.0**-44])  # a fifth of the 1e-9 margin, and far below it
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("layer", ["core plane", "box top"])
    def test_voxels_on_the_annulus_boundary(self, necklace40, delta, side, layer):
        # a 5^3 grid, spacing delta, whose middle voxel is exactly on |hypot(x, y) - R| = sqrt(pad^2 - z^2) + 1e-9
        pad = parent_pad(necklace40)
        z = 0.0 if layer == "core plane" else pad
        mid = np.array([necklace40.base_torus.core.radius + side * (math.sqrt(max(pad * pad - z * z, 0.0)) + 1e-9), 0.0, z])
        bbox = (mid - 2.5 * delta, mid + 2.5 * delta)
        assert np.array_equal(voxel_centers((5, 5, 5), *bbox)[62], mid)
        grid = classify_volume(necklace40, (5, 5, 5), bbox, budget=6)
        assert np.array_equal(grid.values, full_volume(necklace40, (5, 5, 5), bbox, 6))

    @pytest.mark.parametrize(
        "dims,bbox",
        [
            ((5, 16, 8), ((-1e300, -1.6, -0.5), (1e300, 1.6, 0.5))),  # the x = 0 column crosses the torus
            ((7, 7, 7), ((-1e307,) * 3, (1e307,) * 3)),  # one voxel, at the origin, in the box
        ],
    )
    def test_huge_finite_bbox_without_warnings(self, necklace40, tmp_path, dims, bbox):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = classify_volume(necklace40, dims, bbox, budget=6).values
            export_volume(necklace40, dims, bbox, 6, tmp_path / "e.vol")
        with np.errstate(over="ignore"):  # the oracle squares every coordinate
            expected = full_volume(necklace40, dims, bbox, 6)
        assert np.array_equal(values, expected)
        assert (tmp_path / "e.vol").read_bytes() == expected.astype("<u2").tobytes()

    @pytest.mark.parametrize("delta", [2.0**-32, 2.0**-44])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("layer", ["core plane", "top"])
    @pytest.mark.parametrize("bound", ["child shell", "parent tube"])
    def test_voxels_on_the_escape_cull_boundary(self, necklace40, monkeypatch, delta, side, layer, bound):
        # a 5^3 grid, spacing delta, whose middle voxel is exactly on the boundary of the voxels coded as escaped
        # at depth 0 without classification: |hypot(x, y) - R| = sqrt(S^2 - z^2) + 1e-9 past the child shell S,
        # or = sqrt(T^2 - z^2) - 1e-9 short of the parent tube T less the rounding margin
        n = necklace40
        if bound == "child shell":
            radius, widen = child_shell(n), 1e-9
        else:
            radius, widen = n.base_torus.tube + BOUNDARY_TOL - rounding_margin(n), -1e-9
        z = 0.0 if layer == "core plane" else radius
        mid = np.array([n.base_torus.core.radius + side * (math.sqrt(max(radius**2 - z * z, 0.0)) + widen), 0.0, z])
        bbox = (mid - 2.5 * delta, mid + 2.5 * delta)
        assert np.array_equal(voxel_centers((5, 5, 5), *bbox)[62], mid)
        counts = counting_classifier(monkeypatch)
        grid = classify_volume(n, (5, 5, 5), bbox, budget=6)
        assert 0 < sum(counts) < 125  # the boundary cuts the grid
        assert np.array_equal(grid.values, full_volume(n, (5, 5, 5), bbox, 6))

    def test_classifies_only_the_parent_box(self, necklace40, monkeypatch):
        counts = counting_classifier(monkeypatch)
        classify_volume(necklace40, (64, 64, 64))
        # one slab: the 48 * 48 * 8 box voxels; of the 6,400 within pad of the core, the 4,256 past the child
        # shell and inside the parent tube are coded as escaped at depth 0, and only the other 2,144 are classified
        assert counts == [classified_layer_counts(necklace40, (64, 64, 64), DEFAULT_BBOX).sum()] == [2144]


class TestStreamedVolume:
    """export_volume writes the volume slab by slab; its bytes are those of the whole grid."""

    @pytest.mark.parametrize("slab_points", [exports._SLAB_POINTS, 700])
    @pytest.mark.parametrize(
        "dims,bbox",
        [
            ((20, 18, 10), ((-1.3, -1.3, -0.15), (1.3, 1.3, 0.9))),  # box from layer 0; 3 layers: 2 + 1 at 700
            ((20, 18, 10), ((-1.3, -1.3, -0.9), (1.3, 1.3, 0.15))),  # box up to nz
            ((20, 18, 6), ((-1.3, -1.3, -0.1), (1.3, 1.3, 0.1))),  # box spans every layer
            ((6, 5, 4), ((1.3, 1.3, 0.3), (3.0, 2.0, 1.0))),  # bbox wholly outside: empty box
            ((6, 5, 8), ((1.3, 1.3, -0.5), (3.0, 2.0, 0.5))),  # box layers with no voxel in x and y
            ((37, 23, 11), DEFAULT_BBOX),  # non-cubic dims
        ],
    )
    def test_equals_in_memory_volume(self, necklace40, tmp_path, monkeypatch, dims, bbox, slab_points):
        monkeypatch.setattr(exports, "_SLAB_POINTS", slab_points)
        streamed, whole = tmp_path / "s.vol", tmp_path / "w.vol"
        assert export_volume(necklace40, dims, bbox, 6, streamed) is None
        write_volume(classify_volume(necklace40, dims, bbox, 6), whole, 40, 6)
        assert streamed.read_bytes() == whole.read_bytes()
        assert streamed.read_bytes() == full_volume(necklace40, dims, bbox, 6).astype("<u2").tobytes()
        assert (tmp_path / "s.vol.json").read_text() == (tmp_path / "w.vol.json").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.vol", "s.vol.json", "w.vol", "w.vol.json"]

    def test_slab_height_need_not_divide_the_box(self, necklace40, tmp_path, monkeypatch):
        counts = counting_classifier(monkeypatch)
        monkeypatch.setattr(exports, "_SLAB_POINTS", 4 * 18 * 18)
        dims = (24, 24, 50)
        export_volume(necklace40, dims, DEFAULT_BBOX, 6, tmp_path / "e.vol")
        # the box is 18 * 18 voxels in x and y and 6 layers in z: slabs of 4 and 2 layers, of which only the
        # voxels within pad of the core and not escaped past the child shell are classified
        per_layer = classified_layer_counts(necklace40, dims, DEFAULT_BBOX)[22:28]
        assert counts == [per_layer[:4].sum(), per_layer[4:].sum()] == [212, 60]
        assert (tmp_path / "e.vol").read_bytes() == full_volume(necklace40, dims, DEFAULT_BBOX, 6).tobytes()

    @pytest.mark.parametrize("slab_points", [exports._SLAB_POINTS, 1])
    @pytest.mark.parametrize(
        "dims,index", [((8, 8, 8), 202), ((8, 8, 12), 402), ((16, 16, 16), 1860)]  # 402: in the box's second layer
    )
    def test_invalid_necklace_names_the_voxel_and_writes_nothing(
        self, necklace16, tmp_path, monkeypatch, slab_points, dims, index
    ):
        # voxels coded as escaped without classification precede the named one in its z-layer, so in its slab
        layer = index - index % (dims[0] * dims[1])
        assert cull_masks(necklace16, dims, DEFAULT_BBOX)[1][layer:index].any()
        monkeypatch.setattr(exports, "_SLAB_POINTS", slab_points)
        with pytest.raises(MultipleChildren, match=f"point index {index} "):
            export_volume(necklace16, dims, DEFAULT_BBOX, 6, tmp_path / "e.vol")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(MultipleChildren, match=f"point index {index} "):
            classify_points(necklace16, voxel_centers(dims, *DEFAULT_BBOX), 6)

    def test_failed_export_keeps_the_previous_file(self, necklace16, necklace40, tmp_path):
        path = tmp_path / "e.vol"
        export_volume(necklace40, (8, 8, 8), DEFAULT_BBOX, 6, path)
        before = path.read_bytes(), (tmp_path / "e.vol.json").read_text()
        with pytest.raises(MultipleChildren):
            export_volume(necklace16, (8, 8, 8), DEFAULT_BBOX, 6, path)
        with pytest.raises(ValueError, match="capped"):
            export_volume(necklace40, (2, 2, 1025), DEFAULT_BBOX, 6, path)
        assert (path.read_bytes(), (tmp_path / "e.vol.json").read_text()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.vol", "e.vol.json"]


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc (Python objects and numpy buffers) sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_volume_peak_is_a_fraction_of_the_grid(self, necklace40, tmp_path):
        dims = (256, 256, 256)
        peak = traced_peak(export_volume, necklace40, dims, DEFAULT_BBOX, DEFAULT_BUDGET, tmp_path / "e.vol")
        assert (tmp_path / "e.vol").stat().st_size == 2 * 256**3  # the uint16 grid: 33.5 MB
        assert peak < 16e6

    def test_ply_peak_is_a_fraction_of_the_file(self, necklace40, tmp_path):
        stage = mesh_stage(necklace40, 2, 16, 8)
        path = tmp_path / "s.ply"
        peak = traced_peak(exports.write_ply, stage, path)
        assert peak < path.stat().st_size / 3  # the faces alone are half the file: no whole-mesh face array

    def test_points_peak_is_below_the_text(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(100_000, 3))
        path = tmp_path / "p.xyz"
        peak = traced_peak(export_points, pts, "xyz", path)
        assert peak < path.stat().st_size

    def test_chaos_game_peak_is_a_few_results(self, necklace40):
        peak = traced_peak(chaos_game_sample, necklace40, 100_000, 20)
        assert peak < 3 * 100_000 * 3 * 8  # no whole (count, depth) digit array or per-row rotations

    def test_mesh_peak_is_near_the_vertices(self, necklace40):
        peak = traced_peak(mesh_stage, necklace40, 2, 16, 8)
        assert peak < 1.8 * 40**2 * (16 * 8) * 3 * 8  # verts is (T, nu*nv, 3) float64: no full-size temporaries

    def test_rho_classes_peak_is_quadratic(self):
        assert traced_peak(_rho_classes, 200) < 8e6  # a shift axis would hold 200^3 / 2 int64 pairs: 64 MB


def fstring_points_text(pts, fmt):
    """export_points' text as written with one f-string of three 17-digit format calls per row: the reference."""

    def _fmt(x):
        return format(float(x), ".17g")

    if fmt == "xyz":
        lines = [f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}" for p in pts]
    else:
        lines = ["x,y,z"] + [f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])}" for p in pts]
    return "\n".join(lines) + ("\n" if lines else "")


class TestPoints:
    @pytest.mark.parametrize("fmt", ["xyz", "csv"])
    def test_bytes_equal_fstring_version(self, necklace40, tmp_path, fmt):
        special = [[-0.0, 5e-324, 1e300], [math.inf, -math.inf, math.nan], [1 / 3, -1e-17, 2.0**60]]
        pts = np.concatenate([chaos_game_sample(necklace40, 2000, 20, seed=5), special])
        export_points(pts, fmt, tmp_path / "p.txt")
        assert (tmp_path / "p.txt").read_bytes() == fstring_points_text(pts, fmt).encode()

    @pytest.mark.parametrize("fmt", ["xyz", "csv"])
    def test_rows_past_one_block(self, tmp_path, fmt):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(2 * floattext._BLOCK_ROWS + 5, 3))
        export_points(pts, fmt, tmp_path / "p.txt")
        assert (tmp_path / "p.txt").read_bytes() == fstring_points_text(pts, fmt).encode()
        for rows in (1, floattext._BLOCK_ROWS - 1, floattext._BLOCK_ROWS + 1):
            pts = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-6, 15, size=(rows, 3))
            export_points(pts, fmt, tmp_path / "p.txt")
            assert (tmp_path / "p.txt").read_bytes() == fstring_points_text(pts, fmt).encode(), rows

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xyz"
        export_points(np.zeros((0, 3)), "xyz", path)
        assert path.read_text() == ""

    def test_line_count(self, tmp_path):
        path = tmp_path / "p.xyz"
        export_points(np.arange(30, dtype=float).reshape(10, 3), "xyz", path)
        assert len(path.read_text().splitlines()) == 10

    def test_csv_header(self, tmp_path):
        path = tmp_path / "p.csv"
        export_points(np.ones((2, 3)), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 3

    def test_seventeen_digit_roundtrip(self, tmp_path):
        pts = np.array([[1 / 3, math.pi, -1e-17]])
        path = tmp_path / "p.xyz"
        export_points(pts, "xyz", path)
        back = np.array([[float(t) for t in path.read_text().split()]])
        assert back.tobytes() == pts.tobytes()

    @pytest.mark.parametrize("shape", [(6, 2), (2, 3, 1), (4,), (1, 2), (0,)])
    def test_other_shapes_rejected(self, tmp_path, shape):
        path = tmp_path / "p.xyz"
        with pytest.raises(ValueError, match="shape"):
            export_points(np.ones(shape), "xyz", path)
        assert not path.exists()

    def test_one_point(self, tmp_path):
        path = tmp_path / "p.xyz"
        export_points(np.array([0.5, -2.0, 1e-7]), "xyz", path)
        assert path.read_text() == "0.5 -2 9.9999999999999995e-08\n"

    def test_rerun_identical(self, necklace16, tmp_path):
        from antoine.dynamics import chaos_game_sample

        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        export_points(chaos_game_sample(necklace16, 25, 10, seed=2), "xyz", a)
        export_points(chaos_game_sample(necklace16, 25, 10, seed=2), "xyz", b)
        assert a.read_bytes() == b.read_bytes()


def exact_ties(rng, count):
    """Doubles in [1e-4, 1e13) whose exact decimal value has 18 significant digits ending in 5: halfway
    between two 17-digit values. x = M / 2^k with M odd and M * 5^k of 18 digits is M * 5^k / 10^k."""
    out = []
    for k in range(2, 40):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        if lo >= hi:
            continue
        for m in rng.integers(lo, hi, count).tolist():
            m |= 1
            if m * 5**k < 10**18 and 1e-4 <= m / 2**k < 1e13:
                out.append(m / 2**k)
    return np.array(out)


def writes_like_percent(pts, tmp_path):
    """export_points' xyz and csv bytes equal fstring_points_text's."""
    for fmt in ("xyz", "csv"):
        export_points(pts, fmt, tmp_path / f"p.{fmt}")
        if (tmp_path / f"p.{fmt}").read_bytes() != fstring_points_text(pts, fmt).encode():
            return False
    return True


def near_powers_of_ten():
    """+-300 ulps around 10^k and around the double below it, k = -5..14, with both signs, as rows."""
    ulps = np.arange(-300, 301)
    values = []
    for k in range(-5, 15):
        for p in (float(f"1e{k}"), np.nextafter(float(f"1e{k}"), 0.0)):
            values.append(p + ulps * np.spacing(p))
    values = np.concatenate(values)
    return as_rows(np.concatenate([values, -values]))


def as_rows(values):
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, np.full((-values.size) % 3, 0.5)]).reshape(-1, 3)


class TestTextWriter:
    """The exact 17-digit writer behind export_points and write_obj, byte for byte against '%.17g'."""

    @pytest.mark.parametrize("m", [16, 40, 64])
    def test_chaos_clouds(self, m, tmp_path):
        pts = chaos_game_sample(build_necklace(m), 5000, 20, seed=m)
        assert writes_like_percent(pts, tmp_path)

    def test_random_doubles_of_every_size(self, tmp_path):
        rng = np.random.default_rng(21)
        magnitudes = 10.0 ** rng.uniform(-330, 308.2, 30_000)  # 10^-330 underflows to 0, and subnormals
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, math.inf, -math.inf, math.nan]
        bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(float)  # every exponent, nan payloads and signs
        values = np.concatenate([magnitudes * rng.choice([-1.0, 1.0], magnitudes.size), special, bits])
        assert writes_like_percent(as_rows(rng.permutation(values)), tmp_path)

    def test_around_powers_of_ten(self, tmp_path):
        # log10 rounds across these, and a 17-digit rounding can carry into the next decade
        assert writes_like_percent(near_powers_of_ten(), tmp_path)

    @pytest.mark.parametrize("error", [-1e-12, 1e-12])
    def test_exact_when_log10_is_off(self, tmp_path, monkeypatch, error):
        # vectorized log10 implementations differ by a few ulps: the exponent is corrected from the exact product
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
        assert writes_like_percent(near_powers_of_ten(), tmp_path)

    def test_exact_ties_round_half_even(self, tmp_path):
        ties = exact_ties(np.random.default_rng(23), 60)
        digits = [Decimal(x).as_tuple().digits for x in ties.tolist()]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        assert {d[16] % 2 for d in digits} == {0, 1}  # ties to an even and to an odd 17th digit
        assert writes_like_percent(as_rows(np.concatenate([ties, -ties])), tmp_path)

    def test_obj_vertex_rows(self, necklace16, tmp_path):
        stage = mesh_stage(necklace16, 1, 8, 8)
        stage = exports.MeshStage(1, 8, 8, stage.addresses[:2], stage.verts[:2] * [[[1.0, 1e-7, -3e13]]], stage.tris)
        exports.write_obj(stage, tmp_path / "s.obj")
        rows = [line for line in (tmp_path / "s.obj").read_text().splitlines() if line.startswith("v ")]
        assert rows == ["v %.17g %.17g %.17g" % tuple(v) for v in stage.verts.reshape(-1, 3).tolist()]
