"""Oracles for the tests: mesh and OBJ checks that read back what the writers produce, and the
reference forms and bounds that the classifier's kernels and step loop, the volume's culls, the chaos
game and the necklace construction are held to."""
import math
from pathlib import Path

import numpy as np

from antoine.dynamics import (
    BOUNDARY_TOL, ESCAPED, EXTERIOR, NOISE_FLOOR, SURVIVED, WINDOW_MARGIN, _CHUNK, _child_shell, _map_by_key,
    _stack_maps,
)
from antoine.errors import MultipleChildren
from antoine.geom3 import Rotation3, Similarity3, point_circle_distance
from antoine.necklace import PLANE_TILT, child_distances


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


def rebuilt_window(n, pts, tol):
    """dynamics._bracketing_children with the window found again on every call, from the centre azimuths."""
    m = n.multiplicity
    phi = np.arctan2(n.child_centers[:, 1], n.child_centers[:, 0])
    order = np.argsort(phi)
    phi = phi[order]
    reach = (n.contraction + n.child_tube + tol) / np.hypot(*n.child_centers[order, :2].T)
    if np.all(reach < 1.0):
        need = np.arcsin(reach) + WINDOW_MARGIN
        for k in range(1, (m + 1) // 2):
            span = (np.roll(phi, -k) - phi) % (2.0 * math.pi)
            if np.all((span > need) & (np.roll(span, k) > need)):
                first = np.searchsorted(phi, np.arctan2(pts[:, 1], pts[:, 0]), side="right") - k
                return order.take(first[:, None] + np.arange(2 * k), mode="wrap")
    return np.arange(m)[None]


def full_state_step_loop(n, pts, first, budget, status, depth, itinerary):
    """dynamics._classify_chunk as it kept every row's last position, summed the claims along axis 1 and
    found the bracketing window on every step: writes status, depth and itinerary, returns the positions."""
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    last = np.array(pts, dtype=float)
    d0 = point_circle_distance(n.base_torus.core, pts)
    exterior = d0 > n.base_torus.tube + BOUNDARY_TOL
    status[exterior] = EXTERIOR
    depth[exterior] = 0
    beyond = ~exterior & (d0 > _child_shell(n))
    status[beyond] = ESCAPED
    depth[beyond] = 0
    active = np.flatnonzero(~exterior & ~beyond)
    cur = last[active]
    inverse = _stack_maps(n.inverse_maps)
    key_type = np.min_scalar_type(n.multiplicity)
    for k in range(budget):
        if active.size == 0:
            break
        noise = NOISE_FLOOR * n.expansion**k
        tol_k = BOUNDARY_TOL + noise
        slots = rebuilt_window(n, cur, tol_k)
        claims = child_distances(n, cur, slots) <= n.child_tube + tol_k
        n_claims = claims.sum(axis=1)
        exited = n_claims == 0
        status[active[exited]] = ESCAPED
        depth[active[exited]] = k
        fuzzy = n_claims > 1
        if np.any(fuzzy):
            if noise <= BOUNDARY_TOL:
                raise MultipleChildren(int(first + active[fuzzy].min()))
            status[active[fuzzy]] = SURVIVED
            depth[active[fuzzy]] = budget
        stay = n_claims == 1
        last[active[~stay]] = cur[~stay]
        active = active[stay]
        cur = cur[stay]
        digits = (claims * slots).sum(axis=1)[stay]
        if itinerary is not None and k < itinerary.shape[1]:
            itinerary[active, k] = digits + 1
        order, cur = _map_by_key(inverse, digits.astype(key_type), cur)
        active = active[order]
    last[active] = cur
    return last


def level_loop_chaos_game(n, count, depth, seed):
    """dynamics.chaos_game_sample with every row started at the basepoint and all depth levels mapped by
    _map_by_key, in blocks of _CHUNK rows: the reference for the innermost-level table."""
    rng = np.random.default_rng(seed)
    base = n.base_torus.core.point_at(0.0)
    maps = _stack_maps(n.child_maps)
    out = np.empty((count, 3))
    for lo in range(0, count, _CHUNK):
        digits = rng.integers(1, n.multiplicity + 1, size=(min(_CHUNK, count - lo), depth))
        keys = digits.T.astype(np.min_scalar_type(n.multiplicity), order="C") - 1
        perm = np.arange(keys.shape[1])
        x = np.tile(base, (keys.shape[1], 1))
        for level in keys[::-1]:
            order, x = _map_by_key(maps, level.take(perm), x)
            perm = perm.take(order)
        out[lo + perm] = x
    return out


def per_object_child_maps(m):
    """necklace.build_necklace's child maps built one Rotation3 at a time: rho^k by about_axis, then the
    seed conjugated as rho^k.compose(seed.rot).compose(rho^k.inverse()) and the shift rho^k.apply(seed.shift)."""
    e3 = np.array([0.0, 0.0, 1.0])
    ratio = 4.0 / m
    seeds = []
    for j in (1, 2):
        theta = (2 * j - 1) * math.pi / m
        radial = np.array([math.cos(theta), math.sin(theta), 0.0])
        lean = 1.0 if j % 2 == 1 else -1.0
        normal = math.cos(PLANE_TILT) * radial + lean * math.sin(PLANE_TILT) * e3
        seeds.append(Similarity3(ratio, Rotation3.aligning(e3, normal), radial))
    maps = []
    for j in range(1, m + 1):
        seed = seeds[(j - 1) % 2]
        k = (j - 1) // 2
        if k == 0:
            maps.append(seed)
            continue
        rho_k = Rotation3.about_axis(e3, 4.0 * math.pi * k / m)
        maps.append(Similarity3(ratio, rho_k.compose(seed.rot).compose(rho_k.inverse()), rho_k.apply(seed.shift)))
    return tuple(maps)
