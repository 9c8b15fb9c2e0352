"""File exporters: stage meshes (OBJ/PLY), escape-depth volume grids, point clouds.

Floats in text are always the bytes of Python's '%.17g' (lossless for float64)
and binary payloads are little-endian, so every artifact regenerates
byte-identically from the same parameters. Each artifact embeds or sits next
to the parameters that produced it.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import BOUNDARY_TOL, DEFAULT_BUDGET, ESCAPED, EXTERIOR, MAX_BUDGET, _child_shell, _rounding_margin
from .dynamics import classify_points
from .errors import MultipleChildren, TooManyTori
from .floattext import text_rows
from .geom3 import _check_int, circle_frames, point_rows, unit_rows
from .necklace import Address, Necklace, word_maps

VOL_EXTERIOR = 0xFFFE
VOL_SURVIVED = 0xFFFF
MAX_EXPORT_TORI = 10**6
MAX_GRID = 1024  # voxels per axis of a volume grid
_BLOCK_FACES = 1 << 16  # PLY faces written at a time
_SLAB_POINTS = 1 << 17  # parent-box voxels per slab, in whole z-layers; about one classifier chunk is classified
DEFAULT_BBOX = ((-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))  # contains the parent torus with margin


# ---------------------------------------------------------------------------
# meshes


def torus_meshes(centers, radii, normals, tubes, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Watertight nu x nv tube tessellations of T tori: (T, nu*nv, 3) vertices, (2*nu*nv, 3) triangles.

    centers and unit normals are (T, 3), radii and tubes (T,). nu runs along the core circle,
    nv around the tube. In each torus's right-handed frame (u, v, normal) the one triangle
    list winds with outward normals (positive signed volume). A vertex is
    ring + tube * (cos(b) radial + sin(b) normal), in that operation order, built one coordinate
    and one tube angle b at a time: each pass runs along the (T, nu) tori and core angles and is
    written into the vertex array in place.
    """
    _check_int("nu", nu, 8)
    _check_int("nv", nv, 8)
    u_basis, v_basis = circle_frames(normals)
    a = np.linspace(0.0, 2.0 * math.pi, nu, endpoint=False)
    b = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=False)
    verts = np.empty((len(centers), nu, nv, 3))
    row = np.empty((len(centers), nu))
    for c in range(3):
        radial = np.cos(a) * u_basis[:, c, None] + np.sin(a) * v_basis[:, c, None]  # (T, nu)
        ring = centers[:, c, None] + radii[:, None] * radial
        for j, (cos_b, sin_b) in enumerate(zip(np.cos(b).tolist(), np.sin(b).tolist())):
            np.multiply(cos_b, radial, out=row)
            row += sin_b * normals[:, c, None]
            row *= tubes[:, None]
            np.add(row, ring, out=verts[:, :, j, c])
    verts = verts.reshape(-1, nu * nv, 3)

    idx = np.arange(nu * nv).reshape(nu, nv)
    i00 = idx
    i10 = np.roll(idx, -1, axis=0)
    i01 = np.roll(idx, -1, axis=1)
    i11 = np.roll(np.roll(idx, -1, axis=0), -1, axis=1)
    tri_a = np.stack([i00, i10, i11], axis=2).reshape(-1, 3)
    tri_b = np.stack([i00, i11, i01], axis=2).reshape(-1, 3)
    return verts, np.concatenate([tri_a, tri_b], axis=0)


@dataclass(frozen=True, eq=False)
class MeshStage:
    """All tori of stage len(addresses[0]), tessellated in one pass: verts[i], of shape (nu*nv, 3), is the torus
    at addresses[i], and every row shares the (2*nu*nv, 3) triangle list tris."""

    nu: int
    nv: int
    addresses: tuple[Address, ...]
    verts: np.ndarray
    tris: np.ndarray

    @property
    def stage(self) -> int:
        return len(self.addresses[0])


def mesh_stage(n: Necklace, k: int, nu: int = 32, nv: int = 16) -> MeshStage:
    """Tessellate every stage-k torus; raises TooManyTori above 10^6 tori and ValueError unless k is an integer >= 0."""
    _check_int("k, the stage,", k, 0)
    count = n.multiplicity**k
    if count > MAX_EXPORT_TORI:
        raise TooManyTori(f"stage {k} holds {count} tori, cap is {MAX_EXPORT_TORI}")
    addresses = tuple(itertools.product(range(1, n.multiplicity + 1), repeat=k))
    scales, rots, shifts = word_maps(n, np.array(addresses, dtype=int).reshape(count, k))
    # the base circle is the unit circle about e3 at the origin, so these equal SolidTorus.transform's bit for bit
    verts, tris = torus_meshes(shifts, scales, unit_rows(rots[:, :, 2]), scales * n.parent_tube, nu, nv)
    return MeshStage(nu, nv, addresses, verts, tris)


def _object_name(address: Address) -> str:
    return "torus_base" if not address else "torus_" + "-".join(map(str, address))


def write_obj(stage: MeshStage, path: str | Path, header: dict | None = None) -> None:
    """ASCII OBJ: one `o` object per torus, global 1-based indices, 17-digit floats. Written a torus at a time."""
    per_torus = stage.verts.shape[1]
    f_rows = "f %d %d %d\n" * stage.tris.shape[0]
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in (header or {}).items()).encode())
        for i, (address, verts) in enumerate(zip(stage.addresses, stage.verts)):
            fh.write(f"o {_object_name(address)}\n".encode())
            fh.writelines(text_rows(verts, " ", "v "))
            fh.write((f_rows % tuple((stage.tris + 1 + i * per_torus).ravel().tolist())).encode())


def write_ply(stage: MeshStage, path: str | Path, header: dict | None = None) -> None:
    """Binary little-endian PLY: float64 vertices, int32 index lists, tori merged (faces written in blocks of tori,
    each built one triangle corner at a time)."""
    count, per_torus, _ = stage.verts.shape
    comments = "".join(f"comment {k}={v}\n" for k, v in (header or {}).items())
    head = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"{comments}"
        f"element vertex {count * per_torus}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {count * stage.tris.shape[0]}\n"
        "property list uchar int32 vertex_indices\n"
        "end_header\n"
    )
    per_block = max(1, _BLOCK_FACES // stage.tris.shape[0])
    faces = np.empty((min(per_block, count), stage.tris.shape[0]), dtype=[("n", "u1"), ("idx", "<i4", (3,))])
    faces["n"] = 3
    corners = stage.tris.T.astype("<i4")  # int32 sums wrap as the int64 sums cast to int32 would
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(np.ascontiguousarray(stage.verts, dtype="<f8"))
        for first in range(0, count, per_block):
            block = faces[: min(per_block, count - first)]
            offsets = per_torus * np.arange(first, first + block.shape[0], dtype="<i4")[:, None]
            for c in range(3):
                np.add(corners[c], offsets, out=block["idx"][..., c])
            fh.write(block)


def export_mesh(
    n: Necklace, k: int, nu: int, nv: int, fmt: str, path: str | Path
) -> MeshStage:
    """Write the stage-k tessellation in the requested format and return it."""
    stage = mesh_stage(n, k, nu, nv)
    header = {"m": n.multiplicity, "stage": k, "nu": nu, "nv": nv}
    if fmt == "obj":
        write_obj(stage, path, header)
    elif fmt == "ply":
        write_ply(stage, path, header)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    return stage


# ---------------------------------------------------------------------------
# escape-depth volume grids


@dataclass(frozen=True, eq=False)
class VolumeGrid:
    """Escape depths on a voxel grid, encoded as uint16.

    values are flat in x-fastest order (index = ix + nx*(iy + ny*iz)) and
    hold the escape depth, with 0xFFFE for exterior voxels and 0xFFFF for
    budget survivors.
    """

    dims: tuple[int, int, int]
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims, lo, hi = _grid_frame(self.dims, self.bbox_min, self.bbox_max)
        vals = np.asarray(self.values, dtype=np.uint16)
        if vals.size != dims[0] * dims[1] * dims[2]:
            raise ValueError("value count does not match dims")
        for name, arr in (("bbox_min", lo), ("bbox_max", hi), ("values", vals)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dims", dims)


def _grid_frame(dims, bbox_min, bbox_max) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray]:
    """Checked integer dims and float corners of a voxel grid whose extent and voxel centres are finite."""
    if len(dims) != 3 or any(d < 2 or d % 1 for d in dims):
        raise ValueError(f"dims must be three integers >= 2, not {tuple(dims)}")
    lo, hi = np.asarray(bbox_min, dtype=float), np.asarray(bbox_max, dtype=float)
    if not np.all(hi > lo):
        raise ValueError("bounding box is degenerate: need bbox_max > bbox_min on every axis")
    # (hi - lo) * (d - 0.5) is the largest product _voxel_axes forms: finite, it keeps every centre finite
    d = np.asarray(dims, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        last = lo + (hi - lo) * (d - 0.5) / d
    if not np.isfinite(last).all():
        raise ValueError("bounding box is too large: its extent and voxel centres must be finite doubles")
    return tuple(int(d) for d in dims), lo, hi


def _voxel_axes(dims, bbox_min, bbox_max) -> list[np.ndarray]:
    lo, hi = np.asarray(bbox_min, dtype=float), np.asarray(bbox_max, dtype=float)
    return [lo[i] + (hi[i] - lo[i]) * (np.arange(dims[i]) + 0.5) / dims[i] for i in range(3)]


def _grid_points(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    centers = np.empty((z.size, y.size, x.size, 3))  # filled in place: no meshgrid copies
    centers[..., 0], centers[..., 1], centers[..., 2] = x, y[:, None], z[:, None, None]
    return centers.reshape(-1, 3)


def voxel_centers(dims, bbox_min, bbox_max) -> np.ndarray:
    """(N, 3) voxel centers in x-fastest order."""
    return _grid_points(*_voxel_axes(dims, bbox_min, bbox_max))


def _volume_layers(n: Necklace, dims, bbox, budget: int):
    """The volume's z-layers in file order as (k, ny, nx) little-endian uint16 blocks: one reused exterior
    layer outside the parent torus's box, slabs of about _SLAB_POINTS box voxels inside, of which only the
    annulus about the core is coded and only its part about the child shell is classified (see
    classify_volume)."""
    _check_int("budget", budget, 1, MAX_BUDGET)  # before any layer: an exterior layer classifies nothing
    dims, lo, hi = _grid_frame(dims, *bbox)
    nx, ny, nz = dims
    if max(dims) > MAX_GRID:
        raise ValueError(f"dims are capped at {MAX_GRID} per axis")
    margin = _rounding_margin(n)
    pad = n.parent_tube + BOUNDARY_TOL + margin
    # the base core is the unit circle about e3 at the origin (see Necklace): the box is 1 + pad across, pad high
    axes = _voxel_axes(dims, lo, hi)
    xs, ys, zs = (
        slice(np.searchsorted(a, -r), np.searchsorted(a, r, "right")) for a, r in zip(axes, (1.0 + pad, 1.0 + pad, pad))
    )
    x, y, z = axes[0][xs], axes[1][ys], axes[2][zs]
    ring = np.abs(np.hypot(x, y[:, None]) - 1.0)  # (box ny, box nx)

    def half_widths(radius, widen):  # per box z-layer, of the annulus within radius of the core
        return (np.sqrt(np.maximum(radius * radius - z**2, 0.0)) + widen)[:, None, None]

    annulus = half_widths(pad, 1e-9)  # past it a voxel is exterior
    # past the classifier's child shell and short of the parent tube, a voxel escapes at depth 0
    shell = half_widths(_child_shell(n), 1e-9)
    tube = half_widths(n.parent_tube + BOUNDARY_TOL - margin, -1e-9)
    exterior = np.full((1, ny, nx), VOL_EXTERIOR, dtype="<u2")
    yield from itertools.repeat(exterior, zs.start)
    step = max(1, _SLAB_POINTS // max(1, x.size * y.size))
    for z0 in range(0, z.size, step):
        k = slice(z0, z0 + step)
        escaped = (ring > shell[k]) & (ring < tube[k])  # (k, box ny, box nx), inside the annulus
        classified = (ring <= annulus[k]) & ~escaped
        iz, iyx = np.divmod(np.flatnonzero(classified), ring.size)  # a flat index: one pass over the slab
        iy, ix = np.divmod(iyx, x.size)
        try:
            status, depth, _ = classify_points(n, np.stack([x[ix], y[iy], z[z0 + iz]], axis=1), budget)
        except MultipleChildren as exc:  # exc.index counts the slab's classified voxels
            at = (zs.start + z0 + iz[exc.index], ys.start + iy[exc.index], xs.start + ix[exc.index])
            raise MultipleChildren(int(np.ravel_multi_index(at, dims[::-1]))) from None
        layers = np.full((escaped.shape[0], ny, nx), VOL_EXTERIOR, dtype="<u2")
        box = layers[:, ys, xs]
        box[escaped] = 0
        box[classified] = np.where(status == ESCAPED, depth, np.where(status == EXTERIOR, VOL_EXTERIOR, VOL_SURVIVED))
        yield layers
    yield from itertools.repeat(exterior, nz - zs.stop)


def classify_volume(
    n: Necklace, dims, bbox=DEFAULT_BBOX, budget: int = DEFAULT_BUDGET
) -> VolumeGrid:
    """Escape depth of every voxel center; deterministic for identical arguments.

    Only voxels in the annulus |hypot(x, y) - 1| <= sqrt(pad^2 - z^2) + 1e-9 about the parent core (the unit
    circle about e3 at the origin) are coded, with pad = tube + BOUNDARY_TOL + a 1e-9 relative rounding
    margin: outside it the exterior test hypot(rho - 1, h) > tube + BOUNDARY_TOL holds. Of those, a voxel
    past the child shell by the same test, with S (the classifier's child-shell bound, which includes the
    margin) for pad, and short of the parent tube, |hypot(x, y) - 1| < sqrt(T^2 - z^2) - 1e-9 with
    T = tube + BOUNDARY_TOL less the margin, is coded as escaped at depth 0, as the classifier would code it;
    only the others are classified. The annulus is found within the parent torus's axis-aligned box, and the
    classified centres are gathered from the full grid's axes (same bits). MultipleChildren names the
    voxel's x-fastest index in the full grid.
    """
    values = np.concatenate(list(_volume_layers(n, dims, bbox, budget)))
    return VolumeGrid(dims, bbox[0], bbox[1], values.reshape(-1))


def _write_sidecar(path: str | Path, dims, bbox_min, bbox_max, m: int, budget: int) -> None:
    sidecar = {
        "dims": [int(d) for d in dims],
        "bbox": [[float(x) for x in bbox_min], [float(x) for x in bbox_max]],
        "budget": budget,
        "m": m,
        "encoding": {"exterior": VOL_EXTERIOR, "survived": VOL_SURVIVED},
        "order": "x-fastest, little-endian uint16",
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def write_volume(grid: VolumeGrid, path: str | Path, m: int, budget: int) -> None:
    """Raw little-endian uint16 voxels plus a JSON sidecar at path + '.json'."""
    Path(path).write_bytes(grid.values.astype("<u2", copy=False))
    _write_sidecar(path, grid.dims, grid.bbox_min, grid.bbox_max, m, budget)


def export_volume(
    n: Necklace,
    dims,
    bbox=DEFAULT_BBOX,
    budget: int = DEFAULT_BUDGET,
    path: str | Path = "escape.vol",
) -> None:
    """write_volume(classify_volume(...)), streamed: each slab of z-layers is written as it is classified.
    On an error the files at path are left as they were."""
    part = Path(f"{path}.part")
    try:
        with open(part, "wb") as fh:
            fh.writelines(_volume_layers(n, dims, bbox, budget))
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)
    _write_sidecar(path, dims, *bbox, n.multiplicity, budget)


# ---------------------------------------------------------------------------
# point clouds


def export_points(samples: np.ndarray, fmt: str, path: str | Path) -> None:
    """One point per line, each coordinate as '%.17g' writes it; order follows the input.

    samples is one point, shape (3,), or N points, shape (N, 3). Written in blocks of rows (see text_rows).
    """
    pts = point_rows(samples)
    sep = {"xyz": " ", "csv": ","}.get(fmt)
    if sep is None:
        raise ValueError(f"unknown point format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(b"x,y,z\n" if fmt == "csv" else b"")
        fh.writelines(text_rows(pts, sep))
