"""3D primitives: vectors, proper rotations, conformal similarities, circles, solid tori.

All types are immutable values and all operations are pure, so everything here
is safe to call from parallel workers. Point arguments are numpy arrays of
shape (3,) and most operations broadcast over leading axes, i.e. an (n, 3)
array of points is transformed in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoUniqueFixedPoint

Vec3 = np.ndarray

_EYE3 = np.eye(3)
_SAMPLE_BUDGET = 4096  # sample points per pass of _sampled_distance_bounds


def _as_readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def point_rows(p) -> np.ndarray:
    """One point, shape (3,), or N points, shape (N, 3), as an (N, 3) float array; ValueError naming any other shape."""
    pts = np.asarray(p, dtype=float)
    if pts.shape != (3,) and (pts.ndim != 2 or pts.shape[1] != 3):
        raise ValueError(f"points must have shape (3,) or (N, 3), not {pts.shape}")
    return pts.reshape(-1, 3)


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """ValueError naming the argument unless value is an integer in lo..hi (lo or more when hi is None); a bool is
    not an integer here, though Python's bool subclasses int."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def unit_rows(vs: np.ndarray) -> np.ndarray:
    """The rows of a (..., 3) array, each over its norm, as (N, 3); ValueError unless the last axis is 3 and each
    norm >= 1e-14. A norm is one stacked row dot product, the BLAS ddot of np.linalg.norm on one row."""
    if np.shape(vs)[-1:] != (3,):
        raise ValueError(f"vectors must have a last axis of 3, not shape {np.shape(vs)}")
    vs = np.asarray(vs, dtype=float).reshape(-1, 3)
    norms = np.sqrt(vs[:, None, :] @ vs[:, :, None])[:, 0]  # (N, 1)
    if np.count_nonzero(norms < 1e-14):  # a cheaper test than any() on the one-row calls
        raise ValueError("cannot normalize a near-zero vector")
    return vs / norms


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (..., 3) arrays in component form: np.cross's bits, with less overhead."""
    (p0, p1, p2), (q0, q1, q2) = (p[..., 0], p[..., 1], p[..., 2]), (q[..., 0], q[..., 1], q[..., 2])
    return np.stack([p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0], axis=-1)


def circle_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane frames (u, v) with u x v = normal, for (N, 3) unit normals."""
    e = np.where(np.abs(normals[:, 2:]) < 0.75, _EYE3[2], _EYE3[0])
    u = unit_rows(_cross(e, normals))
    return u, _cross(normals, u)


def project_rotations(mats: np.ndarray) -> np.ndarray:
    """Nearest proper rotations to a stack of (..., 3, 3) matrices.

    A matrix off orthonormal by more than 1e-15 is replaced by its polar
    factor (via SVD), which keeps long composition chains orthonormal to
    machine precision. Matrices farther than 1e-8 from a rotation, or with
    negative determinant, are rejected rather than silently repaired.
    """
    flat = np.array(mats, dtype=float).reshape(-1, 3, 3)
    defect = np.abs(flat.transpose(0, 2, 1) @ flat - _EYE3).max(axis=(1, 2))
    if ((defect > 1e-8) | (np.linalg.det(flat) < 0.0)).any():
        raise ValueError("matrix is not a proper rotation")
    redo = defect > 1e-15
    if redo.any():
        u, _, vt = np.linalg.svd(flat[redo])
        flat[redo] = u @ vt
    return flat.reshape(np.shape(mats))


def _rodrigues(axis: Vec3, angles) -> np.ndarray:
    """Unprojected (N, 3, 3) matrices I + s K + (1 - c) K^2 of the rotations by N angles about one axis (see
    about_axis), K the unit axis's cross-product matrix, c and s from math.cos and math.sin."""
    ((x, y, z),) = unit_rows(axis).tolist()
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    c, s = (np.array([f(a) for a in angles])[:, None, None] for f in (math.cos, math.sin))
    return _EYE3 + s * k + (1.0 - c) * (k @ k)


@dataclass(frozen=True, eq=False)
class Rotation3:
    """Proper rotation of 3-space, stored as an orthonormal matrix.

    The constructor projects its input onto the nearest rotation matrix
    (see project_rotations).
    """

    matrix: np.ndarray

    def __post_init__(self):
        if np.shape(self.matrix) != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        object.__setattr__(self, "matrix", _as_readonly(project_rotations(self.matrix)))

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(_EYE3)

    @staticmethod
    def about_axis(axis: Vec3, angle: float) -> "Rotation3":
        """Rotation by `angle` (radians, right-hand rule) about `axis`."""
        return Rotation3(_rodrigues(axis, [angle])[0])

    @staticmethod
    def aligning(a: Vec3, b: Vec3) -> "Rotation3":
        """Minimal rotation taking unit direction a to unit direction b."""
        a, b = unit_rows([a, b])
        axis = _cross(a, b)
        s = np.linalg.norm(axis)
        c = float(a @ b)
        if s < 1e-14:
            if c > 0.0:
                return Rotation3.identity()
            # antiparallel: rotate by pi about an axis orthogonal to a, the first of its circle frame
            return Rotation3.about_axis(circle_frames(a[None])[0], math.pi)
        return Rotation3.about_axis(axis, math.atan2(s, c))

    def apply(self, p: Vec3) -> Vec3:
        return np.asarray(p, dtype=float) @ self.matrix.T

    def compose(self, other: "Rotation3") -> "Rotation3":
        """self after other."""
        return Rotation3(self.matrix @ other.matrix)

    def inverse(self) -> "Rotation3":
        return Rotation3(self.matrix.T)


@dataclass(frozen=True, eq=False)
class Similarity3:
    """Orientation-preserving conformal similarity x -> scale * rot(x) + shift."""

    scale: float
    rot: Rotation3
    shift: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"similarity scale must be positive, got {self.scale}")
        object.__setattr__(self, "shift", _as_readonly(np.asarray(self.shift, dtype=float)))

    @staticmethod
    def identity() -> "Similarity3":
        return Similarity3(1.0, Rotation3.identity(), np.zeros(3))

    def apply(self, p: Vec3) -> Vec3:
        return self.scale * self.rot.apply(p) + self.shift

    def compose(self, other: "Similarity3") -> "Similarity3":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return Similarity3(
            self.scale * other.scale,
            self.rot.compose(other.rot),
            self.scale * self.rot.apply(other.shift) + self.shift,
        )

    def invert(self) -> "Similarity3":
        rinv = self.rot.inverse()
        return Similarity3(1.0 / self.scale, rinv, rinv.apply(-self.shift) / self.scale)

    def fixed_point(self) -> Vec3:
        """The unique x with apply(x) = x (see fixed_points)."""
        return fixed_points(np.array([self.scale]), self.rot.matrix[None], self.shift[None])[0]


def fixed_points(scales: np.ndarray, rots: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(N, 3) fixed points of N stacked similarities x -> scale * R x + shift.

    Solves (I - scale * R) x = shift for each row. Raises NoUniqueFixedPoint
    when a scale is within 1e-12 of 1.
    """
    near_one = np.abs(scales - 1.0) < 1e-12
    if near_one.any():
        raise NoUniqueFixedPoint(f"scale {scales[near_one][0]} is too close to 1")
    return np.linalg.solve(_EYE3 - scales[:, None, None] * rots, shifts[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class Circle3:
    """Round circle: center, radius, unit plane normal.

    Orientation convention: the circle is traversed counterclockwise when
    viewed from the tip of the normal (point_at uses a right-handed in-plane
    frame (u, v, normal)).
    """

    center: np.ndarray
    radius: float
    normal: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"circle radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", _as_readonly(np.asarray(self.center, dtype=float)))
        (normal,) = unit_rows(self.normal)
        object.__setattr__(self, "normal", _as_readonly(normal))

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        (u,), (v,) = circle_frames(self.normal[None])
        return _as_readonly(u), _as_readonly(v)

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic orthonormal in-plane frame (u, v) with u x v = normal (see circle_frames); cached, read-only."""
        return self._frame

    def point_at(self, angle) -> Vec3:
        """Point(s) on the circle at the given angle(s) in the (u, v) frame."""
        u, v = self.basis()
        a = np.asarray(angle, dtype=float)
        return self.center + self.radius * (np.multiply.outer(np.cos(a), u) + np.multiply.outer(np.sin(a), v))

    def sample(self, n: int) -> np.ndarray:
        """n arc-uniform points at angles arange(n) * 2 pi / n, counterclockwise around the normal."""
        return self.point_at(np.arange(n) * (2.0 * math.pi / n))

    def transform(self, s: Similarity3) -> "Circle3":
        return Circle3(s.apply(self.center), s.scale * self.radius, s.rot.apply(self.normal))


@dataclass(frozen=True, eq=False)
class SolidTorus:
    """Solid torus: all points within `tube` of the core circle. Requires tube < core radius."""

    core: Circle3
    tube: float

    def __post_init__(self):
        if not (np.isfinite(self.tube) and 0.0 < self.tube < self.core.radius):
            raise ValueError(f"tube radius must lie in (0, core radius), got {self.tube}")

    def transform(self, s: Similarity3) -> "SolidTorus":
        return SolidTorus(self.core.transform(s), s.scale * self.tube)


def _height_and_rho(wx, wy, wz, nx, ny, nz) -> tuple[np.ndarray, np.ndarray]:
    """The height h = (wx nx + wz nz) + wy ny of points over a circle's plane and their in-plane length
    rho = sqrt((ux^2 + uy^2) + uz^2), u = w - h n, from their offsets (wx, wy, wz) from its centre and its unit
    normal (nx, ny, nz), in fixed-order component form. The arguments broadcast; the offsets are float arrays of
    the result's shape, which it works in: rho is wx, and wy, wz are overwritten. An offset past ~1.3e154
    squares to +inf, and rho is +inf, with no warning."""
    with np.errstate(over="ignore"):
        h = wx * nx
        h += wz * nz
        h += wy * ny
        wx -= h * nx
        wy -= h * ny
        wz -= h * nz
        wx *= wx
        wy *= wy
        wz *= wz
        wx += wy
        wx += wz
        return h, np.sqrt(wx, out=wx)


def _circle_distance(wx, wy, wz, nx, ny, nz, radius: float) -> np.ndarray:
    """The distance from points to a circle, from their offsets (wx, wy, wz) from its centre, its unit normal
    (nx, ny, nz) and its radius: the package's one point-to-circle kernel, hypot(rho - radius, h) of
    _height_and_rho, whose arguments and buffers it shares: it returns wx. A point on the axis has rho = 0 and
    is at sqrt(radius^2 + h^2) from every circle point.
    """
    h, rho = _height_and_rho(wx, wy, wz, nx, ny, nz)
    rho -= radius
    return np.hypot(rho, h, out=rho)


def point_circle_distance(c: Circle3, p: Vec3):
    """Euclidean distance from point(s) p, shape (..., 3), to the circle as a point set (see _circle_distance);
    a float for one point."""
    pts = np.asarray(p, dtype=float)
    rows = pts.reshape(-1, 3)
    (cx, cy, cz), (nx, ny, nz) = c.center.tolist(), c.normal.tolist()
    d = _circle_distance(rows[:, 0] - cx, rows[:, 1] - cy, rows[:, 2] - cz, nx, ny, nz, c.radius)
    return float(d[0]) if pts.ndim == 1 else d.reshape(pts.shape[:-1])


def circle_circle_distance(a: Circle3, b: Circle3, grid_n: int = 512) -> float:
    """Certified lower bound on the minimum distance between two circles: the better one-sided bound, each circle's
    grid_n arc-uniform samples against the other circle less the half-step Lipschitz sampling error (arc length is
    1-Lipschitz into R^3), two rows of _sampled_distance_bounds. No closed form gives the exact minimum; a sound
    lower bound is what disjointness certificates need."""
    centers, normals, u, v, radii = map(np.stack, zip(*((c.center, c.normal, *c.basis(), c.radius) for c in (a, b))))
    lo, _ = _sampled_distance_bounds(centers, radii, u, v, grid_n, centers[::-1], normals[::-1], radii[::-1])
    return float(np.max(lo))


def _loop_samples(centers, radii, u, v, quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(3, P, quad_n) points p_k of P circles ((P, 3) centres and in-plane frames (u, v), (P,) radii) at the angles
    t_k = 2 pi k / quad_n, the bits of Circle3.sample, and their line elements dl_k = p'(t_k) 2 pi / quad_n."""
    cos, sin = (f(np.arange(quad_n) * (2.0 * math.pi / quad_n)) for f in (np.cos, np.sin))
    center, radius, u, v = centers.T[..., None], radii[:, None], u.T[..., None], v.T[..., None]
    return center + radius * (cos * u + sin * v), radius * (2.0 * math.pi / quad_n) * (cos * v - sin * u)


def _sampled_distance_bounds(centers, radii, u, v, grid_n: int, to_centers, to_normals, to_radii):
    """(P,) bounds lo, hi on the distance from each point of P circles (as in _loop_samples) to its row's target circle
    ((P, 3) centres and unit normals, (P,) radii, broadcast as (P, 1) into _circle_distance): the least and greatest
    from grid_n samples, less and plus the half-step Lipschitz term 0.5 (2 pi / grid_n) r, in passes of whole rows,
    about _SAMPLE_BUDGET points each (the rows are independent, so no bit depends on the passes)."""
    _check_int("grid_n", grid_n, 8)  # before any row, so also when P = 0
    lo, hi, step = np.empty(len(radii)), np.empty(len(radii)), max(1, _SAMPLE_BUDGET // grid_n)
    for rows in (slice(k, k + step) for k in range(0, len(radii), step)):
        (px, py, pz), _ = _loop_samples(centers[rows], radii[rows], u[rows], v[rows], grid_n)
        (cx, cy, cz), (nx, ny, nz) = (x[rows].T[..., None] for x in (to_centers, to_normals))
        d = _circle_distance(px - cx, py - cy, pz - cz, nx, ny, nz, to_radii[rows, None])
        lo[rows], hi[rows] = d.min(axis=1), d.max(axis=1)
    lipschitz = 0.5 * (2.0 * math.pi / grid_n) * radii
    return lo - lipschitz, hi + lipschitz
