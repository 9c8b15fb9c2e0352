"""Oracles for the tests: mesh, OBJ and volume readers that read back what the writers produce, and the
reference forms and bounds that the unit vectors, the Rodrigues rotations, the sampled circle bounds, the
distance kernel, the one-loop linking integral, the classifier's step loop, the volume's culls, the chaos game
and its map kernel, the necklace construction and its transfer slack, the one-sided Hausdorff distance, the mesh
and face builders and the text rows and fields are held to."""
import json
import math
from pathlib import Path

import numpy as np

from antoine.dynamics import (
    BOUNDARY_TOL, ESCAPED, EXTERIOR, NOISE_FLOOR, SURVIVED, WINDOW_MARGIN, _CHUNK, _child_shell, _map_by_key,
    _stack_maps,
)
from antoine.errors import MultipleChildren
from antoine.exports import _BLOCK_FACES, VolumeGrid
from antoine.floattext import (
    _ASCII_ZEROS, _BLOCK_ROWS, _LAYOUT, _MARKS, _U, _digit_bytes, _round17, _text_fields, _words,
)
from antoine.geom3 import Rotation3, Similarity3, circle_frames, point_circle_distance
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


def load_volume(path) -> VolumeGrid:
    """Read back a volume that exports.write_volume or export_volume wrote, from its .vol and sidecar."""
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    values = np.frombuffer(Path(path).read_bytes(), dtype="<u2")
    return VolumeGrid(tuple(sidecar["dims"]), sidecar["bbox"][0], sidecar["bbox"][1], values)


def vector_point_circle_distance(c, p):
    """geom3.point_circle_distance in vector form: the height as one BLAS dot w @ normal and the in-plane
    length by np.linalg.norm. On the base core (centre 0, normal e3) it has the component kernel's bits."""
    w = np.asarray(p, dtype=float) - c.center
    h = w @ c.normal
    w_perp = w - np.multiply.outer(h, c.normal)
    with np.errstate(over="ignore"):  # an in-plane offset beyond ~1.3e154 squares to +inf: rho = +inf
        rho = np.linalg.norm(w_perp, axis=-1)
    d = np.hypot(rho - c.radius, h)
    return float(d) if d.ndim == 0 else d


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
    reach = vector_point_circle_distance(t.core, n.child_centers).max() + n.contraction + n.child_tube
    return reach + BOUNDARY_TOL + NOISE_FLOOR + rounding_margin(n)


def rebuilt_window(n, pts, tol):
    """dynamics._bracketing_children row-major, as a C-contiguous (N, 2k) array, with the window found again
    on every call, from the centre azimuths."""
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
    d0 = vector_point_circle_distance(n.base_torus.core, pts)
    exterior = d0 > n.base_torus.tube + BOUNDARY_TOL
    status[exterior] = EXTERIOR
    depth[exterior] = 0
    beyond = ~exterior & (d0 > _child_shell(n))
    status[beyond] = ESCAPED
    depth[beyond] = 0
    active = np.flatnonzero(~exterior & ~beyond)
    cur = last[active]
    inverse = _stack_maps(n.inverse_maps)
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
        cur = _map_by_key(inverse, digits, cur.T).T
    last[active] = cur
    return last


def scalar_map_by_key(ratio, rots, shifts, keys, x):
    """dynamics._map_by_key in Python floats, one row and one coordinate at a time: column k of the (3, N) rows
    x mapped by rotation rots[keys[k]] (3 x 3), shift shifts[keys[k]] and the one ratio, as
    ((x0 R[i, 0] + x1 R[i, 1]) + x2 R[i, 2]) ratio + s_i. No numpy arithmetic: the reference for the
    kernel's operation order."""
    rots, shifts = np.asarray(rots).tolist(), np.asarray(shifts).tolist()
    out = []
    for key, x0, x1, x2 in zip(np.asarray(keys).tolist(), *np.asarray(x).tolist()):
        r, s = rots[key], shifts[key]
        out.append([((x0 * r[i][0] + x1 * r[i][1]) + x2 * r[i][2]) * ratio + s[i] for i in range(3)])
    return np.array(out, dtype=float).reshape(-1, 3).T


def fixed_order_apply(f, p):
    """The similarity f applied to points (..., 3) in _map_by_key's order, by numpy on the 3-wide axis:
    ((p0 R[:, 0] + p1 R[:, 1]) + p2 R[:, 2]) scale + shift."""
    r = f.rot.matrix
    return (p[..., :1] * r[:, 0] + p[..., 1:2] * r[:, 1] + p[..., 2:] * r[:, 2]) * f.scale + f.shift


def level_loop_chaos_game(n, count, depth, seed):
    """dynamics.chaos_game_sample with every row started at the basepoint and all depth levels mapped by
    _map_by_key, in blocks of _CHUNK rows: the reference for the innermost-level table."""
    rng = np.random.default_rng(seed)
    base = n.base_torus.core.point_at(0.0)
    maps = _stack_maps(n.child_maps)
    out = np.empty((count, 3))
    for lo in range(0, count, _CHUNK):
        digits = rng.integers(1, n.multiplicity + 1, size=(min(_CHUNK, count - lo), depth))
        x = np.tile(base[:, None], digits.shape[0])
        for level in digits.T[::-1] - 1:
            x = _map_by_key(maps, level, x)
        out[lo:lo + digits.shape[0]] = x.T
    return out


def per_row_unit(v):
    """A (3,) vector over its norm, one 1-D np.linalg.norm (a BLAS ddot); ValueError below 1e-14: the per-row
    form geom3.unit_rows is held to."""
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def rodrigues_matrix(axis, angle):
    """One unprojected Rodrigues matrix I + s K + (1 - c) K^2, K the cross-product matrix of per_row_unit(axis)
    and c, s from math.cos and math.sin, as Rotation3.about_axis built it: the reference for geom3._rodrigues."""
    k = per_row_unit(np.asarray(axis, dtype=float))
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return np.eye(3) + s * kx + (1.0 - c) * (kx @ kx)


def own_grid_circle_circle_distance(a, b, grid_n):
    """geom3.circle_circle_distance with its own sample grid: points at arange(grid_n) * step, less
    0.5 * step * radius, for each circle against the other."""
    step = 2.0 * math.pi / grid_n
    angles = np.arange(grid_n) * step
    return max(
        float(np.min(point_circle_distance(dst, src.point_at(angles)))) - 0.5 * step * src.radius
        for src, dst in ((a, b), (b, a))
    )


def double_integral_linking(a, b, quad_n):
    """The Gauss double integral (1/4 pi) sum_ij (da_i x db_j) . (pa_i - pb_j) / |pa_i - pb_j|^3 (2 pi / quad_n)^2
    on a quad_n x quad_n grid, from (quad_n, quad_n, 3) differences: the two-loop form that the one-loop
    linking kernel replaced, with no separation guard."""
    t = np.arange(quad_n) * (2.0 * math.pi / quad_n)
    (ua, va), (ub, vb) = a.basis(), b.basis()
    da = a.radius * (-np.sin(t)[:, None] * ua + np.cos(t)[:, None] * va)
    db = b.radius * (-np.sin(t)[:, None] * ub + np.cos(t)[:, None] * vb)
    diff = a.point_at(t)[:, None, :] - b.point_at(t)[None, :, :]
    integrand = np.einsum("ijc,ijc->ij", np.cross(da[:, None, :], db[None, :, :]), diff) / np.linalg.norm(diff, axis=2) ** 3
    return float(integrand.sum() * (2.0 * math.pi / quad_n) ** 2 / (4.0 * math.pi))


def own_grid_containment_clearance(n, samples=512):
    """validate_necklace's children_contained margin with its own sample grid: the largest distance from
    c.sample(samples) of any child to the parent core, plus the half step pi * (4/m) / samples."""
    half_step = math.pi * n.contraction / samples
    d_max = max(float(np.max(point_circle_distance(n.base_torus.core, c.sample(samples)))) for c in n.child_circles)
    return n.base_torus.tube - (d_max + half_step + n.child_tube)


def chunked_hausdorff(reference, target, chunk=64):
    """dynamics._one_sided_hausdorff as np.linalg.norm over (chunk, N, 3) differences, chunk reference points at
    a time (a point's least distance does not depend on chunk): the reference for the blocked component form."""
    worst = 0.0
    for lo in range(0, reference.shape[0], chunk):
        block = reference[lo : lo + chunk]
        d = np.linalg.norm(block[:, None, :] - target[None, :, :], axis=2)
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def per_object_child_maps(m):
    """necklace.build_necklace's child maps built one Rotation3 at a time: rho^k from rodrigues_matrix, then the
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
        rho_k = Rotation3(rodrigues_matrix(e3, 4.0 * math.pi * k / m))
        maps.append(Similarity3(ratio, rho_k.compose(seed.rot).compose(rho_k.inverse()), rho_k.apply(seed.shift)))
    return tuple(maps)


def broadcast_torus_meshes(centers, radii, normals, tubes, nu, nv):
    """exports.torus_meshes' vertices built by broadcasting along the 3-wide coordinate axis, in its
    operation order: the reference for the per-coordinate builder."""
    u_basis, v_basis = circle_frames(normals)
    a = np.linspace(0.0, 2.0 * math.pi, nu, endpoint=False)[None, :, None]
    b = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=False)[None, None, :, None]
    radial = np.cos(a) * u_basis[:, None, :] + np.sin(a) * v_basis[:, None, :]  # (T, nu, 3)
    ring = centers[:, None, :] + radii[:, None, None] * radial
    verts = np.cos(b) * radial[:, :, None, :]  # (T, nu, nv, 3)
    verts += np.sin(b) * normals[:, None, None, :]
    verts *= tubes[:, None, None, None]
    verts += ring[:, :, None, :]
    return verts.reshape(-1, nu * nv, 3)


def structured_face_bytes(stage):
    """The face section of exports.write_ply's file, each block of tori written by one assignment of the
    int64 index sums to the int32 field of a structured array: the reference for the per-corner writes."""
    count, per_torus, _ = stage.verts.shape
    per_block = max(1, _BLOCK_FACES // stage.tris.shape[0])
    faces = np.empty((min(per_block, count), stage.tris.shape[0]), dtype=[("n", "u1"), ("idx", "<i4", (3,))])
    faces["n"] = 3
    blocks = []
    for first in range(0, count, per_block):
        block = faces[: min(per_block, count - first)]
        block["idx"] = stage.tris + per_torus * np.arange(first, first + block.shape[0])[:, None, None]
        blocks.append(block.tobytes())
    return b"".join(blocks)


def thirteen_word_text_rows(rows, sep, lead=""):
    """floattext.text_rows' bytes from rows of 13 words, lead, x, sep, y, sep, z, '\\n', into which each
    value's three words are copied from _text_fields: the reference for the four-word value slots."""
    text = []
    for first in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS]
        n = block.shape[0]
        words, marks = np.zeros((n, 13), "<u8"), np.zeros((n, 13), "<u8")
        for col, part in ((0, lead), (4, sep), (8, sep), (12, "\n")):
            words[:, col] = _words(part.encode("ascii"), 1)
            marks[:, col] = _MARKS[0, len(part)]
        fields, field_marks = np.empty((3 * n, 3), "<u8"), np.empty((3 * n, 3), "<u8")
        _text_fields(block.ravel(), fields, field_marks)
        words[:, :12].reshape(n, 3, 4)[..., 1:] = fields.reshape(n, 3, 3)
        marks[:, :12].reshape(n, 3, 4)[..., 1:] = field_marks.reshape(n, 3, 3)
        text.append(words.view(np.uint8)[marks.view(np.bool_)].tobytes())
    return b"".join(text)


_LAYOUT_ROWS, _MARK_ROWS = _LAYOUT.T.copy(), _MARKS.T.copy()  # a row per exponent, a row per text length


def row_gather_text_fields(v, words, marks):
    """floattext._text_fields as it gathered its layout table as (18, 7) rows and its marks as (25, 3) rows,
    one row per value: the reference for the column gathers."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e13)
    d, e = _round17(np.where(fast, a, 1.0))
    q = d // 10**8
    tail = _digit_bytes((d - q * 10**8).astype(_U))
    leading = q // 10**8
    head = _digit_bytes((q - leading * 10**8).astype(_U))
    tail_bytes, head_bytes = ((np.frexp(w.astype(float))[1] + 7) >> 3 for w in (tail, head))
    last = np.where(tail_bytes > 0, 8 + tail_bytes, head_bytes)
    head |= _ASCII_ZEROS
    tail |= _ASCII_ZEROS
    shift, back, front, m0, m1, dot0, dot1 = _LAYOUT_ROWS.take(e + 4, axis=0).T
    w0 = ((leading.astype(_U) | _U(0x30)) << _U(8)) | (head << _U(16))
    w1 = (head >> _U(48)) | (tail << _U(16))
    w2 = tail >> _U(48)
    w2 = (w2 << shift) | ((w1 >> _U(32)) >> back)
    w1 = (w1 << shift) | ((w0 >> _U(32)) >> back)
    w0 = (w0 << shift) | front
    h0, h1 = w0 & ~m0, w1 & ~m1
    words[:, 0] = (w0 & m0) | (h0 << _U(8)) | dot0
    words[:, 1] = (w1 & m1) | (h1 << _U(8)) | (h0 >> _U(56)) | dot1
    words[:, 2] = (w2 << _U(8)) | (h1 >> _U(56))
    marks[:] = _MARK_ROWS.take(np.where(last > e, last + 3 + np.maximum(-e, 0), e + 2), axis=0)
    marks[:, 0] &= ~(fast & (v > 0)).astype(_U)
    for k in np.flatnonzero(~fast).tolist():
        text = b"%.17g" % float(v[k])
        words[k] = 0
        words[k].view(np.uint8)[: len(text)] = np.frombuffer(text, np.uint8)
        marks[k] = _MARK_ROWS[len(text)]
