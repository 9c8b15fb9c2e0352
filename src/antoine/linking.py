"""Linking numbers of disjoint closed curves, two independent ways.

gauss_linking integrates the closed-form field of a unit current around one round circle along
the other: the Gauss double integral with its inner loop done analytically. polygonal_linking
counts signed crossings of polygons in a generic projection and returns an exact integer. The two
share a sign convention, so they agree as reals, not just in absolute value; only the absolute
values mean something for the necklace, since child circle orientations are a package convention.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AntoineError, MinSeparationTooSmall, NoGenericProjection
from .geom3 import Circle3, _check_int, _height_and_rho, circle_frames, unit_rows
from .necklace import Necklace, _near_pairs

logger = logging.getLogger(__name__)

DEFAULT_PROJECTION_SEED = 20210917
_GUARD = 1.5  # the sampled distance from circle a that _loop_linking requires of circle b, in half sample spacings


@dataclass(frozen=True, eq=False)
class PolyLoop:
    """Closed polygonal loop: ordered vertices (n, 3), edge n-1 -> 0 implied.

    edge_lengths[i] is the length of edge i -> i+1, computed once.
    """

    vertices: np.ndarray
    edge_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C")
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("loop needs at least 3 vertices of shape (n, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("loop vertices must be finite")
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        if np.min(lengths) < 1e-14:
            raise ValueError("consecutive loop vertices must be distinct")
        for name, value in (("vertices", v), ("edge_lengths", lengths)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @staticmethod
    def from_circle(c: Circle3, n: int) -> "PolyLoop":
        return PolyLoop(c.sample(n))


def gauss_linking(a: Circle3, b: Circle3, quad_n: int = 64) -> float:
    """Gauss linking number of two disjoint circles, the integral of a's field along quad_n points of b: see
    _loop_linking, whose MinSeparationTooSmall it raises. It converges geometrically to the integer in quad_n."""
    _check_int("quad_n", quad_n, 16)
    samples = _loop_samples([b], quad_n)
    return float(_loop_linking(a.center[None], a.normal[None], np.array([a.radius]), *samples, np.array([b.radius]))[0])


def _loop_samples(circles, quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(3, P, quad_n) points p_k of P circles at the angles t_k = 2 pi k / quad_n (the bits of Circle3.sample) and
    their line elements dl_k = p'(t_k) 2 pi / quad_n."""
    cos, sin = (f(np.arange(quad_n) * (2.0 * math.pi / quad_n)) for f in (np.cos, np.sin))
    center, radius = np.array([c.center for c in circles]).T[..., None], np.array([c.radius for c in circles])[:, None]
    u, v = np.array([c.basis() for c in circles]).transpose(1, 2, 0)[..., None]
    return center + radius * (cos * u + sin * v), radius * (2.0 * math.pi / quad_n) * (cos * v - sin * u)


def _loop_linking(centers, normals, radii, points, tangents, radii_b) -> np.ndarray:
    """Linking numbers of P pairs of disjoint circles (a, b): sum_k B_a(p_k) . dl_k, the trapezoid rule for the
    integral along b of the field of a unit current around a, the Gauss double integral with its inner loop in
    closed form (Jackson, Classical Electrodynamics, 5.5; Simpson et al., NASA/TM-2001-211307). centers,
    normals (P, 3) and radii (P,) give the circles a, points and tangents (3, P, n) each b's p_k and dl_k (see
    _loop_samples), and radii_b (P,) the radii of the circles b. In fixed-order component form, with no BLAS
    call: for R = r_a, h and rho = |u| the height and axis offset u of p_k (geom3._height_and_rho), alpha and
    beta its distances from the nearest and the farthest point of a, p = R^2 + rho^2 + h^2, and M and U from
    the arithmetic-geometric mean of beta and alpha, run until every c_n <= eps a_n (DLMF 19.8:
    K = pi beta / (2 M), E = K (1 - (2 R rho + rho^2 U) / beta^2), U = sum_(n>=1) 2^(n-1) (c_n / rho)^2),

      4 M alpha^2 beta^2 B_a . dl = ((R^2 - rho^2 - h^2) (p - rho^2 U) + alpha^2 beta^2) n.dl + h (4 R^2 - p U) u.dl,

    whose radial field h rho (4 R^2 - p U) / (4 M alpha^2 beta^2) is 0 on a's axis, and nothing cancels near it.

    Guard: MinSeparationTooSmall, whose index is the first offending pair, if some alpha is below _GUARD = 3/2
    units s = pi r_b / n, half b's sample spacing, computed in that closed form from radii_b (|dl| / 2 would
    carry the rounding of b's frame). At its closest approach delta, b crosses the field of a nearly straight
    wire, and the rule sums a Lorentzian to (1/2) sinh y / (cosh y - cos phi) in place of the half turn 1/2,
    y = pi delta / s, phi = pi x / s, x <= s the arc from the nearest sample (an oblique crossing only widens
    the peak). A nearest sample at G s leaves delta >= sqrt(G^2 - 1) s, so the error is at most
    1 / (exp(pi sqrt(G^2 - 1)) + 1), at x = s: 0.029 per close approach at G = 3/2 (0.054
    measured for two), under necklace.GAUSS_TOL; at G = 1 the circles may meet between two samples.
    """
    (cx, cy, cz), (nx, ny, nz), radius = (np.asarray(x, dtype=float).T[..., None] for x in (centers, normals, radii))
    tx, ty, tz = tangents
    wx, wy, wz = points[0] - cx, points[1] - cy, points[2] - cz
    wt, nt = (wx * tx + wy * ty) + wz * tz, (nx * tx + ny * ty) + nz * tz  # before _height_and_rho overwrites w
    h, rho = _height_and_rho(wx, wy, wz, nx, ny, nz)
    alpha = np.hypot(rho - radius, h)
    sep, limit = alpha.min(axis=1), _GUARD * math.pi * radii_b / points.shape[2]
    bad = np.flatnonzero(~(sep >= limit))  # a NaN fails too
    if bad.size:
        raise MinSeparationTooSmall(f"sampled distance {sep[bad[0]]:.3e} from circle a < {limit[bad[0]]:.3e}, "
                                    f"{_GUARD} half sample spacings", int(bad[0]))
    beta = np.hypot(rho + radius, h)
    a, b = 0.5 * (beta + alpha), np.sqrt(beta * alpha)
    d = radius / a  # c_1 / rho
    u_sum, weight = d * d, 1.0
    while (rho * d > np.finfo(float).eps * a).any():
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        d = rho * d * d / (4.0 * a)
        weight *= 2.0
        u_sum += weight * d * d
    r2, al2, be2 = rho * rho + h * h, alpha * alpha, beta * beta
    p = radius * radius + r2
    axial = ((radius * radius - r2) * (p - rho * rho * u_sum) + al2 * be2) * nt
    radial = h * (4.0 * radius * radius - p * u_sum) * (wt - h * nt)
    return ((axial + radial) / (4.0 * a * al2 * be2)).sum(axis=1)


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
    _candidate_pairs keeps can cross, so the formulas run on those alone;
    the projection plane's frame is geom3.circle_frames of w.
    """
    (w,) = unit_rows(w)
    (u,), (v,) = circle_frames(w[None])
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
    """Pairwise linking numbers of the m child core circles (zero diagonal), m = len(entries)."""

    entries: np.ndarray
    max_gauss_gap: float

    def __post_init__(self):
        e = np.array(self.entries, dtype=int)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be a square integer matrix, not of shape {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def to_json_dict(self) -> dict:
        return {
            "m": len(self.entries),
            "entries": [int(x) for x in self.entries.reshape(-1)],
            "max_gauss_gap": self.max_gauss_gap,
        }


class LinkBackendError(AntoineError):
    """A linking backend failed on a specific pair of children."""

    def __init__(self, pair: tuple[int, int], cause: Exception):
        super().__init__(f"linking failed on child pair {pair}: {cause}")
        self.pair = pair
        self.cause = cause


def link_matrix(n: Necklace, poly_n: int = 512, quad_n: int = 64) -> LinkMatrix:
    """Linking numbers for all unordered child pairs, each near pair certified on its own.

    A pair whose certified ball gap exceeds twice the child tube is unlinked with no evaluation (see
    necklace._near_pairs) and gets entry 0. The near pairs get the Gauss integral in one batch (_loop_linking,
    quad_n points per loop), then the exact polygonal backend pair by pair (poly_n-gons, projections from the
    fixed package seed); the largest gap between the two is max_gauss_gap. A backend's AntoineError is re-raised
    as LinkBackendError naming the pair (the batch's first offending one); any other exception propagates. Each
    child's polygon is built at its first near pair and dropped after its last.
    """
    _check_int("poly_n", poly_n, 64)  # both checked before any pair is measured
    _check_int("quad_n", quad_n, 16)
    m = n.multiplicity
    rng = np.random.default_rng(DEFAULT_PROJECTION_SEED)
    (i, j), _ = _near_pairs(n)
    circles = n.child_circles
    samples, radii = _loop_samples([circles[k] for k in j], quad_n), np.full(len(i), n.contraction)
    try:
        gauss = _loop_linking(n.child_centers[i], n.child_normals[i], radii, *samples, radii)
    except MinSeparationTooSmall as exc:
        raise LinkBackendError((int(i[exc.index]) + 1, int(j[exc.index]) + 1), exc) from exc
    uses = np.bincount(np.concatenate((i, j)))
    polygons, lks = {}, []
    for a, b in zip(i.tolist(), j.tolist()):
        pa, pb = (polygons.pop(k, None) or PolyLoop.from_circle(circles[k], poly_n) for k in (a, b))
        uses[[a, b]] -= 1
        polygons.update((k, p) for k, p in ((a, pa), (b, pb)) if uses[k])  # kept until the child's last near pair
        try:
            lks.append(polygonal_linking(pa, pb, rng=rng))
        except AntoineError as exc:  # attach the offending pair
            raise LinkBackendError((a + 1, b + 1), exc) from exc
    entries = np.zeros((m, m), dtype=int)
    entries[i, j] = entries[j, i] = lks
    return LinkMatrix(entries, float(np.max(np.abs(gauss - lks), initial=0.0)))
