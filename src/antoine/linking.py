"""Linking numbers of disjoint closed curves, two independent ways.

gauss_linking integrates the classical double integral over two round
circles with the periodic trapezoid rule (spectrally accurate for disjoint
smooth curves). polygonal_linking counts signed crossings of polygonal
approximations in a generic projection and returns an exact integer. The
two back ends share a sign convention, so they agree as reals, not just in
absolute value; only the absolute values are meaningful for the necklace,
since child circle orientations are a package convention.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import MinSeparationTooSmall, NoGenericProjection
from .geom3 import Circle3, Similarity3
from .necklace import Necklace

logger = logging.getLogger(__name__)

DEFAULT_PROJECTION_SEED = 20210917


@dataclass(frozen=True, eq=False)
class PolyLoop:
    """Closed polygonal loop: ordered vertices (n, 3), edge n-1 -> 0 implied."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("loop needs at least 3 vertices of shape (n, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("loop vertices must be finite")
        edges = np.roll(v, -1, axis=0) - v
        if np.min(np.linalg.norm(edges, axis=1)) < 1e-14:
            raise ValueError("consecutive loop vertices must be distinct")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @staticmethod
    def from_circle(c: Circle3, n: int) -> "PolyLoop":
        return PolyLoop(c.sample(n))

    def reversed(self) -> "PolyLoop":
        return PolyLoop(self.vertices[::-1])

    def transform(self, s: Similarity3) -> "PolyLoop":
        return PolyLoop(s.apply(self.vertices))


def gauss_linking(a: Circle3, b: Circle3, quad_n: int = 256) -> float:
    """Gauss double-integral linking number of two disjoint circles.

    Trapezoid rule on a quad_n x quad_n parameter grid; converges to the
    integer linking number as quad_n grows. Raises MinSeparationTooSmall if
    the sampled curves come within 1e-9 (the integrand is then too singular
    for fixed-order quadrature to mean anything).
    """
    if quad_n < 16:
        raise ValueError(f"quad_n must be >= 16, got {quad_n}")
    ta = np.arange(quad_n) * (2.0 * math.pi / quad_n)
    ua, va = a.basis()
    ub, vb = b.basis()
    pa = a.point_at(ta)
    pb = b.point_at(ta)
    # derivatives with respect to the angle parameter
    da = a.radius * (-np.sin(ta)[:, None] * ua + np.cos(ta)[:, None] * va)
    db = b.radius * (-np.sin(ta)[:, None] * ub + np.cos(ta)[:, None] * vb)

    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    if float(dist.min()) < 1e-9:
        raise MinSeparationTooSmall(f"sampled curve separation {dist.min():.3e} < 1e-9")
    cross = np.cross(da[:, None, :], db[None, :, :])
    integrand = np.einsum("ijc,ijc->ij", cross, diff) / dist**3
    weight = (2.0 * math.pi / quad_n) ** 2
    return float(integrand.sum() * weight / (4.0 * math.pi))


def _projection_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = direction / np.linalg.norm(direction)
    e = np.array([1.0, 0.0, 0.0]) if abs(w[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(e, w)
    u /= np.linalg.norm(u)
    v = np.cross(w, u)
    return u, v, w


def _try_projection(a: PolyLoop, b: PolyLoop, w: np.ndarray, guard: float) -> int | None:
    """Signed a-over-b crossing count along direction w, or None if degenerate."""
    u, v, w = _projection_frame(w)
    basis2 = np.stack([u, v], axis=1)
    a2, b2 = a.vertices @ basis2, b.vertices @ basis2
    za, zb = a.vertices @ w, b.vertices @ w

    d_a = np.roll(a2, -1, axis=0) - a2
    d_b = np.roll(b2, -1, axis=0) - b2
    # a projected segment of near-zero length means an edge almost parallel to w
    scale_a = np.linalg.norm(np.roll(a.vertices, -1, 0) - a.vertices, axis=1)
    scale_b = np.linalg.norm(np.roll(b.vertices, -1, 0) - b.vertices, axis=1)
    if np.any(np.linalg.norm(d_a, axis=1) < guard * scale_a) or np.any(
        np.linalg.norm(d_b, axis=1) < guard * scale_b
    ):
        return None

    r = b2[None, :, :] - a2[:, None, :]
    denom = d_a[:, None, 0] * d_b[None, :, 1] - d_a[:, None, 1] * d_b[None, :, 0]
    denom_scale = np.linalg.norm(d_a, axis=1)[:, None] * np.linalg.norm(d_b, axis=1)[None, :]
    parallel = np.abs(denom) < guard * denom_scale
    safe = np.where(parallel, 1.0, denom)
    t = (r[:, :, 0] * d_b[None, :, 1] - r[:, :, 1] * d_b[None, :, 0]) / safe
    s = (r[:, :, 0] * d_a[:, None, 1] - r[:, :, 1] * d_a[:, None, 0]) / safe

    inside = (~parallel) & (t > 0.0) & (t < 1.0) & (s > 0.0) & (s < 1.0)
    near_end = (~parallel) & (
        (np.abs(t) < guard) | (np.abs(t - 1.0) < guard) | (np.abs(s) < guard) | (np.abs(s - 1.0) < guard)
    )
    if np.any(near_end):
        return None
    # a parallel pair is only a problem if the segments actually overlap;
    # overlapping parallel projected segments always produce a near-end hit
    # on a neighboring pair, so rejecting near-end cases covers it
    if not np.any(inside):
        return 0

    za_next = np.roll(za, -1)
    zb_next = np.roll(zb, -1)
    depth_a = za[:, None] + t * (za_next - za)[:, None]
    depth_b = zb[None, :] + s * (zb_next - zb)[None, :]
    gap = depth_a - depth_b
    if np.any(inside & (np.abs(gap) < guard)):
        return None  # loops essentially touch along w
    over = inside & (gap > 0.0)
    return int(np.sign(denom[over]).sum())


def polygonal_linking(
    a: PolyLoop,
    b: PolyLoop,
    rng: np.random.Generator | None = None,
    max_tries: int = 64,
    guard: float = 1e-9,
) -> int:
    """Exact linking number by signed crossings in a generic projection.

    Draws random directions from `rng` (a fixed package seed by default, so
    results are reproducible) until one is in general position: no edge
    parallel to the direction, no crossing at a segment endpoint, no
    depth tie. Retries are logged; after max_tries the input is considered
    degenerate and NoGenericProjection is raised.
    """
    if rng is None:
        rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    for attempt in range(max_tries):
        w = rng.normal(size=3)
        if np.linalg.norm(w) < 1e-6:
            continue
        result = _try_projection(a, b, w, guard)
        if result is not None:
            return result
        logger.debug("projection retry %d: direction %s was degenerate", attempt + 1, w)
    raise NoGenericProjection(f"no generic projection after {max_tries} tries")


@dataclass(frozen=True, eq=False)
class LinkMatrix:
    """Pairwise linking numbers of the child core circles (zero diagonal)."""

    multiplicity: int
    entries: np.ndarray
    max_gauss_gap: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=int)
        if e.shape != (self.multiplicity, self.multiplicity):
            raise ValueError("entries must be an m x m integer matrix")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def to_json_dict(self) -> dict:
        return {
            "m": self.multiplicity,
            "entries": [int(x) for x in self.entries.reshape(-1)],
            "max_gauss_gap": self.max_gauss_gap,
        }


class LinkBackendError(RuntimeError):
    """A linking backend failed on a specific pair of children."""

    def __init__(self, pair: tuple[int, int], cause: Exception):
        super().__init__(f"linking failed on child pair {pair}: {cause}")
        self.pair = pair
        self.cause = cause


def link_matrix(n: Necklace, poly_n: int = 512, quad_n: int = 256) -> LinkMatrix:
    """Linking numbers for all unordered child pairs, cross-validated.

    Entries come from the exact polygonal backend on poly_n-gons (projections
    drawn from the fixed package seed). The largest gap to the Gauss
    quadrature is recorded in max_gauss_gap, which validate_necklace judges.
    A backend exception is re-raised as LinkBackendError naming the pair.
    """
    if poly_n < 64:
        raise ValueError(f"poly_n must be >= 64, got {poly_n}")
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    loops = [PolyLoop.from_circle(c, poly_n) for c in n.child_circles]
    entries = np.zeros((m, m), dtype=int)
    max_gap = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            try:
                lk = polygonal_linking(loops[i], loops[j], rng=rng)
                gauss = gauss_linking(n.child_circles[i], n.child_circles[j], quad_n)
            except Exception as exc:  # attach the offending pair
                raise LinkBackendError((i + 1, j + 1), exc) from exc
            max_gap = max(max_gap, abs(gauss - lk))
            entries[i, j] = entries[j, i] = lk
    return LinkMatrix(m, entries, max_gap)
