"""Oracles for the tests: mesh and OBJ checks that read back what the writers produce, and the
reference forms and bounds that the classifier's kernels and the volume's culls are held to."""
from pathlib import Path

import numpy as np

from antoine.dynamics import BOUNDARY_TOL, NOISE_FLOOR
from antoine.geom3 import point_circle_distance


def mesh_signed_volume(verts: np.ndarray, tris: np.ndarray) -> float:
    """Signed volume via the divergence theorem; positive for outward orientation."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def mesh_is_watertight(verts: np.ndarray, tris: np.ndarray) -> bool:
    """Every undirected edge in exactly 2 triangles, each directed edge used once."""
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    seen = set(map(tuple, directed.tolist()))
    if len(seen) != len(directed):
        return False
    # consistent orientation: the reverse of every directed edge must appear
    return all((e[1], e[0]) in seen for e in seen)


def mesh_euler_characteristic(verts: np.ndarray, tris: np.ndarray) -> int:
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    undirected = {tuple(sorted(e)) for e in directed.tolist()}
    return verts.shape[0] - len(undirected) + tris.shape[0]


def parse_obj(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read back an OBJ written by exports.write_obj, one (vertices, triangles) per object."""
    objects: list[tuple[list, list]] = []
    offsets: list[int] = []
    total = 0
    for line in Path(path).read_text().splitlines():
        if line.startswith("o "):
            offsets.append(total)
            objects.append(([], []))
        elif line.startswith("v "):
            objects[-1][0].append([float(x) for x in line.split()[1:4]])
            total += 1
        elif line.startswith("f "):
            objects[-1][1].append([int(x) - 1 - offsets[-1] for x in line.split()[1:4]])
    return [(np.array(v), np.array(f, dtype=int)) for v, f in objects]


def vector_child_distances(n, points, slots=slice(None)):
    """necklace.child_distances in vector form: (N, k, 3) differences, an einsum for the heights and
    np.linalg.norm for the radial lengths. The component-form kernel keeps these bits."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers, normals = n.child_centers[slots], n.child_normals[slots]
    w = pts[:, None, :] - centers
    h = np.einsum("...c,...c->...", w, normals)
    w_perp = w - h[:, :, None] * normals
    rho = np.linalg.norm(w_perp, axis=2)
    return np.hypot(rho - n.contraction, h)


def rounding_margin(n):
    """1e-9 (|c| + R + tube) of the parent torus: the classifier's margin for the rounding of a distance."""
    t = n.base_torus
    return 1e-9 * (np.abs(t.core.center).max() + t.core.radius + t.tube)


def parent_pad(n):
    """tube + BOUNDARY_TOL + the rounding margin: past this distance from the core a point is exterior."""
    return n.base_torus.tube + BOUNDARY_TOL + rounding_margin(n)


def child_shell(n):
    """max_j dist(c_j, core) + r + child_tube + tol_0 + the rounding margin: past it no child claims a point."""
    t = n.base_torus
    reach = point_circle_distance(t.core, n.child_centers).max() + n.contraction + n.child_tube
    return reach + BOUNDARY_TOL + NOISE_FLOOR + rounding_margin(n)
