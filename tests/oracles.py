"""Mesh and OBJ oracles for the exporter tests: they read back what the writers produce."""
from pathlib import Path

import numpy as np


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
