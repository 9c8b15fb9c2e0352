"""Linking numbers of disjoint closed curves, two independent ways.

gauss_linking integrates the classical double integral over two round
circles with the periodic trapezoid rule (spectrally accurate for disjoint
smooth curves). Its quad_n x quad_n grid comes from three small matrix
products, on samples shifted by the midpoint of the two centres: the
numerator by the triple-product identity, the squared distance by
expanding |pa - pb|^2. Grid entries near the separation guard, half the
larger circle's sample spacing, are re-measured from the exact sample
differences, which decide the guard; those the expansion cannot resolve take
the re-measured value. polygonal_linking counts signed crossings of polygonal
approximations in a generic projection and returns an exact integer. The
two back ends share a sign convention, so they agree as reals, not just in
absolute value; only the absolute values are meaningful for the necklace,
since child circle orientations are a package convention.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AntoineError, MinSeparationTooSmall, NoGenericProjection
from .geom3 import Circle3, _check_int, unit_rows
from .necklace import Necklace, _near_pairs

logger = logging.getLogger(__name__)

DEFAULT_PROJECTION_SEED = 20210917


@dataclass(frozen=True, eq=False)
class PolyLoop:
    """Closed polygonal loop: ordered vertices (n, 3), edge n-1 -> 0 implied.

    edge_lengths[i] is the length of edge i -> i+1, computed once.
    """

    vertices: np.ndarray
    edge_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("loop needs at least 3 vertices of shape (n, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("loop vertices must be finite")
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        if np.min(lengths) < 1e-14:
            raise ValueError("consecutive loop vertices must be distinct")
        v = v.copy()
        for name, value in (("vertices", v), ("edge_lengths", lengths)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @staticmethod
    def from_circle(c: Circle3, n: int) -> "PolyLoop":
        return PolyLoop(c.sample(n))


def gauss_linking(a: Circle3, b: Circle3, quad_n: int = 256) -> float:
    """Gauss double-integral linking number of two disjoint circles.

    Trapezoid rule on a quad_n x quad_n parameter grid; converges to the
    integer linking number as quad_n grows. Both sampled circles are shifted
    by the midpoint c of the two centres (the integrand depends only on
    differences), and the grid comes from three (quad_n, 3) @ (3, quad_n)
    products: the numerator (da_i x db_j) . (pa_i - pb_j) as
    (pa_i x da_i) . db_j - da_i . (db_j x pb_j), and the squared distance as
    |pa_i|^2 + |pb_j|^2 - 2 pa_i . pb_j, which the shift keeps from cancelling.

    Raises MinSeparationTooSmall if the sampled curves come within half the
    larger circle's sample spacing, pi * max(r_a, r_b) / quad_n: closer than
    that the fixed grid no longer resolves the integrand's peak (two
    perpendicular unit circles err by 0.12 at half a spacing and by 795 at a
    hundredth of one). The expanded squared distance is off by at most
    8 eps (max|pa|^2 + max|pb|^2), so every grid entry below (2 guard)^2 plus
    that allowance (the factor 2 covers the rounding of the shift) is
    re-measured from the exact differences a.point_at(t_i) - b.point_at(t_j).
    The guard reads those, so it raises on exactly the inputs whose sampled
    separation is below it. Of those entries, the ones below (2e-9)^2 plus the
    allowance, which the expansion cannot resolve, take the re-measured value
    in the integrand.
    """
    _check_int("quad_n", quad_n, 16)
    d2, integrand, den = np.empty((3, quad_n, quad_n))  # one block: glibc keeps its pages for the next call
    ta = np.arange(quad_n) * (2.0 * math.pi / quad_n)
    ua, va = a.basis()
    ub, vb = b.basis()
    exact_a, exact_b = a.point_at(ta), b.point_at(ta)
    c = 0.5 * (a.center + b.center)
    pa, pb = exact_a - c, exact_b - c
    # derivatives with respect to the angle parameter
    da = a.radius * (-np.sin(ta)[:, None] * ua + np.cos(ta)[:, None] * va)
    db = b.radius * (-np.sin(ta)[:, None] * ub + np.cos(ta)[:, None] * vb)

    sq_a, sq_b = np.einsum("ic,ic->i", pa, pa), np.einsum("jc,jc->j", pb, pb)
    np.add.outer(sq_a, sq_b, out=d2)
    d2 -= np.matmul(pa, (2.0 * pb).T, out=den)  # doubling is exact: the bits of sq_a + sq_b - 2 pa . pb
    rounding = 8.0 * np.finfo(float).eps * (sq_a.max() + sq_b.max())
    limit = 4e-18 + rounding  # below it the expansion cannot resolve an entry
    guard = math.pi * max(a.radius, b.radius) / quad_n
    candidates = max(limit, 4.0 * guard * guard + rounding)
    if d2.min() < candidates:
        near = np.nonzero(d2 < candidates)
        dist = np.linalg.norm(exact_a[near[0]] - exact_b[near[1]], axis=1)
        if float(dist.min()) < guard:
            raise MinSeparationTooSmall(
                f"sampled curve separation {dist.min():.3e} < {guard:.3e}, half the sample spacing"
            )
        low = d2[near] < limit
        d2[near[0][low], near[1][low]] = dist[low] * dist[low]
    np.matmul(np.cross(pa, da), db.T, out=integrand)
    integrand -= np.matmul(da, np.cross(db, pb).T, out=den)
    np.sqrt(d2, out=den)
    den *= d2
    integrand /= den
    weight = (2.0 * math.pi / quad_n) ** 2
    return float(integrand.sum() * weight / (4.0 * math.pi))


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors: the same products and differences, less overhead."""
    return np.array([p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]])


def _projection_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (w,) = unit_rows(direction)
    e = np.array([1.0, 0.0, 0.0]) if abs(w[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    (u,) = unit_rows(_cross(e, w))
    v = _cross(w, u)
    return u, v, w


def _next(x: np.ndarray) -> np.ndarray:
    """Row i holds x[i + 1], wrapping around (np.roll(x, -1, axis=0))."""
    return np.concatenate((x[1:], x[:1]))


_BLOCK = 16  # consecutive segments per box in the coarse level of the crossing search


def _overlapping(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Mask of the 2D box pairs that overlap or touch, broadcast over leading axes."""
    return (
        (lo_a[..., 0] <= hi_b[..., 0])
        & (lo_b[..., 0] <= hi_a[..., 0])
        & (lo_a[..., 1] <= hi_b[..., 1])
        & (lo_b[..., 1] <= hi_a[..., 1])
    )


def _candidate_pairs(p_a, q_a, len_a, p_b, q_b, len_b, guard) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of projected segments p[i] -> q[i] whose padded boxes overlap.

    Each box is padded by guard * (segment length) on every side, so it holds
    every point p + t (q - p) with t in [-guard, 1 + guard]: every crossing
    with t and s within guard of [0, 1] survives. Two levels: the boxes of
    _BLOCK consecutive segments first, then the segment boxes inside the
    overlapping block pairs only.
    """
    pad_a, pad_b = (guard * len_a)[:, None], (guard * len_b)[:, None]
    lo_a, hi_a = np.minimum(p_a, q_a) - pad_a, np.maximum(p_a, q_a) + pad_a
    lo_b, hi_b = np.minimum(p_b, q_b) - pad_b, np.maximum(p_b, q_b) + pad_b
    start_a, start_b = np.arange(0, len(p_a), _BLOCK), np.arange(0, len(p_b), _BLOCK)
    blocks_a, blocks_b = np.nonzero(
        _overlapping(
            np.minimum.reduceat(lo_a, start_a)[:, None],
            np.maximum.reduceat(hi_a, start_a)[:, None],
            np.minimum.reduceat(lo_b, start_b)[None, :],
            np.maximum.reduceat(hi_b, start_b)[None, :],
        )
    )
    offsets = np.arange(_BLOCK)
    ia, ib = np.broadcast_arrays(
        blocks_a[:, None, None] * _BLOCK + offsets[:, None], blocks_b[:, None, None] * _BLOCK + offsets
    )
    ia, ib = ia.reshape(-1), ib.reshape(-1)
    keep = (ia < len(p_a)) & (ib < len(p_b))  # the last block of a loop may be short
    ia, ib = ia[keep], ib[keep]
    hit = _overlapping(lo_a[ia], hi_a[ia], lo_b[ib], hi_b[ib])
    return ia[hit], ib[hit]


def _try_projection(a: PolyLoop, b: PolyLoop, w: np.ndarray, guard: float) -> int | None:
    """Signed a-over-b crossing count along direction w, or None if degenerate.

    Degenerate means: a projected edge of near-zero length, a crossing that
    lies on both segments within guard of an endpoint, or a crossing whose
    two depths differ by less than guard. Only the segment pairs that
    _candidate_pairs keeps can cross, so the formulas run on those alone.
    """
    u, v, w = _projection_frame(w)
    basis2 = np.stack([u, v], axis=1)
    a2, b2 = a.vertices @ basis2, b.vertices @ basis2
    za, zb = a.vertices @ w, b.vertices @ w

    a2_next, b2_next = _next(a2), _next(b2)
    d_a, d_b = a2_next - a2, b2_next - b2
    len_a = np.linalg.norm(d_a, axis=1)
    len_b = np.linalg.norm(d_b, axis=1)
    # a projected segment of near-zero length means an edge almost parallel to w
    if np.any(len_a < guard * a.edge_lengths) or np.any(len_b < guard * b.edge_lengths):
        return None

    ia, ib = _candidate_pairs(a2, a2_next, len_a, b2, b2_next, len_b, guard)
    da, db = d_a[ia], d_b[ib]
    r = b2[ib] - a2[ia]
    denom = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
    parallel = np.abs(denom) < guard * (len_a[ia] * len_b[ib])
    safe = np.where(parallel, 1.0, denom)
    t = (r[:, 0] * db[:, 1] - r[:, 1] * db[:, 0]) / safe
    s = (r[:, 0] * da[:, 1] - r[:, 1] * da[:, 0]) / safe

    inside = (~parallel) & (t > 0.0) & (t < 1.0) & (s > 0.0) & (s < 1.0)
    on_both = (t >= -guard) & (t <= 1.0 + guard) & (s >= -guard) & (s <= 1.0 + guard)
    near_end = (~parallel) & on_both & (
        (np.abs(t) < guard) | (np.abs(t - 1.0) < guard) | (np.abs(s) < guard) | (np.abs(s - 1.0) < guard)
    )
    if np.any(near_end):
        return None
    # a parallel pair is only a problem if the segments actually overlap;
    # overlapping parallel projected segments always produce a near-end hit
    # on a neighboring pair, so rejecting near-end cases covers it
    if not np.any(inside):
        return 0

    ia, ib, t, s = ia[inside], ib[inside], t[inside], s[inside]
    depth_a = za[ia] + t * (za[(ia + 1) % len(za)] - za[ia])
    depth_b = zb[ib] + s * (zb[(ib + 1) % len(zb)] - zb[ib])
    gap = depth_a - depth_b
    if np.any(np.abs(gap) < guard):
        return None  # loops essentially touch along w
    return int(np.sign(denom[inside][gap > 0.0]).sum())


def polygonal_linking(a: PolyLoop, b: PolyLoop, rng: np.random.Generator | None = None) -> int:
    """Exact linking number by signed crossings in a generic projection.

    Draws random directions from `rng` (a fixed package seed by default, so
    results are reproducible) until one is in general position: no edge
    parallel to the direction, no crossing at a segment endpoint, no
    depth tie, up to a 1e-9 guard. Retries are logged; after 64 tries
    the input is considered degenerate and NoGenericProjection is raised.
    """
    if rng is None:
        rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    for attempt in range(64):
        w = rng.normal(size=3)
        if np.linalg.norm(w) < 1e-6:
            continue
        result = _try_projection(a, b, w, 1e-9)
        if result is not None:
            return result
        logger.debug("projection retry %d: direction %s was degenerate", attempt + 1, w)
    raise NoGenericProjection("no generic projection after 64 tries")


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


class LinkBackendError(AntoineError):
    """A linking backend failed on a specific pair of children."""

    def __init__(self, pair: tuple[int, int], cause: Exception):
        super().__init__(f"linking failed on child pair {pair}: {cause}")
        self.pair = pair
        self.cause = cause


def link_matrix(n: Necklace, poly_n: int = 512, quad_n: int = 256) -> LinkMatrix:
    """Linking numbers for all unordered child pairs, each near pair certified on its own.

    A pair whose certified ball gap exceeds twice the child tube is unlinked
    with no evaluation (see necklace._near_pairs) and gets entry 0. Each near
    pair runs the exact polygonal backend (on poly_n-gons, projections drawn
    from the fixed package seed) and the Gauss quadrature; the largest gap
    between the two is recorded in max_gauss_gap. A backend exception is
    re-raised as LinkBackendError naming the pair. Each child's polygon is
    built once, at its first near pair, and dropped after its last.
    """
    _check_int("poly_n", poly_n, 64)  # both checked before any pair is measured
    _check_int("quad_n", quad_n, 16)
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    (i, j), _ = _near_pairs(n)
    uses = np.bincount(np.concatenate((i, j)))
    polygons: dict[int, PolyLoop] = {}
    lks, max_gap = [], 0.0
    for a, b in zip(i.tolist(), j.tolist()):
        ca, cb = n.child_circles[a], n.child_circles[b]
        pa, pb = (polygons.pop(k, None) or PolyLoop.from_circle(n.child_circles[k], poly_n) for k in (a, b))
        uses[[a, b]] -= 1
        polygons.update((k, p) for k, p in ((a, pa), (b, pb)) if uses[k])  # kept until the child's last near pair
        try:
            lk = polygonal_linking(pa, pb, rng=rng)
            gauss = gauss_linking(ca, cb, quad_n)
        except Exception as exc:  # attach the offending pair
            raise LinkBackendError((a + 1, b + 1), exc) from exc
        max_gap = max(max_gap, abs(gauss - lk))
        lks.append(lk)
    entries = np.zeros((m, m), dtype=int)
    entries[i, j] = entries[j, i] = lks
    return LinkMatrix(m, entries, max_gap)
