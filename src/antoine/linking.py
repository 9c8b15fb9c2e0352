"""Linking numbers of disjoint closed curves, three ways.

link_matrix takes the exact integers of round circles from disk crossings (_disk_crossings): lk(a, b) is the
signed number of times b crosses the flat disk that a bounds, in closed form and with a derived rounding
allowance. gauss_linking integrates the closed-form field of a unit current around one round circle along the
other, the Gauss double integral with its inner loop done analytically; link_matrix runs its kernel as the
independent cross-check. polygonal_linking counts signed crossings of two polygons in a generic projection and
returns an exact integer for any polygons; the package does not call it, and the tests use it as the oracle of
the disk crossings. All three share a sign convention, so they agree as reals, not just in absolute value; only
the absolute values mean something for the necklace, since child circle orientations are a package convention.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AntoineError, MinSeparationTooSmall, NoGenericProjection
from .geom3 import Circle3, _check_int, _height_and_rho, _loop_samples, circle_frames, unit_rows
from .necklace import Necklace

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
    samples = _loop_samples(b.center[None], np.array([b.radius]), *(x[None] for x in b.basis()), quad_n)
    return float(_loop_linking(a.center[None], a.normal[None], np.array([a.radius]), *samples, np.array([b.radius]))[0])


def _disk_crossings(centers, normals, radii, centers_b, u_b, v_b, radii_b) -> np.ndarray:
    """Exact linking numbers of P pairs of disjoint round circles (a, b): the signed number of times b crosses
    the flat disk that a bounds (Rolfsen, Knots and Links, ch. 5). centers, normals (P, 3) and radii (P,) give
    the circles a; centers_b, u_b, v_b (P, 3) and radii_b (P,) give each b as c_b + r_b (cos t u_b + sin t v_b),
    the points of Circle3.point_at. In fixed-order component form, with no BLAS call.

    With d = c_b - c_a, b's height over a's plane is h(t) = h0 + A cos t + B sin t = h0 + R cos(t - phi), for
    h0 = n.d, A = r_b n.u_b, B = r_b n.v_b, R = hypot(A, B) and phi = atan2(B, A). If |h0| < R, b meets the plane
    twice, at t = phi -+ theta, theta = arccos(-h0 / R): first going up (h' = R sin theta > 0), then down. A
    crossing is in the disk when its distance rho from a's axis (geom3._height_and_rho) is below r_a, so
    lk = [rho_- < r_a] - [rho_+ < r_a]. Its decision margin |rho - r_a| is the crossing's distance from circle a,
    at least the pair's clearance.

    Rounding, with u = eps / 2, s = (|dx| + |dy| + |dz|) + r_b >= |d| + r_b and e = 16 eps s. The computed h0, A
    and B differ from the coefficients of the exact circles (a's unit normal, an exact orthonormal frame of b) by
    less than e in sum: each fixed-order dot product is within 3u of exact, d and the products by r_b add u each
    (4u s + 8u r_b), and u_b and v_b lie within 4u and 6u of an exact frame (circle_frames' first cross product,
    with a basis vector, is exact; unit_rows and the second one round: 10u r_b more). A normal's length 1 +- 3u
    scales h and moves no crossing. So the exact height is h~(t) + err(t), h~ the computed coefficients' sinusoid
    taken exactly, |err| and |err'| <= e, and |h~''| <= R. Budgeting 4 ulps each for hypot, atan2, arccos, cos and
    sin, with q = R^2 - h0^2 (so that R sin theta = sqrt(q)):

      - q >= 16 e R, two clear crossings: on [t^ - D, t^ + D], t^ a zero of h~ and D = 4 e / sqrt(q), h~' keeps
        its sign and |h~'| >= 3 sqrt(q) / 4 > e, so the exact height has one zero there, of the same slope, and
        none elsewhere (D <= sin(theta) / 4 keeps the two windows apart). atan2 and arccos (8 eps each, as the
        angles are at most pi), -h0 / R (5 eps, through arccos' slope 1 / sin theta) and the sum (2 eps) add less
        than 24 eps / sin theta <= 1.5 e / sqrt(q), so the computed t is within 6 e / sqrt(q) of the exact one;
      - q < 16 e R, near-tangent: every exact crossing has |h~| <= e, so 1 - cos(t - t0) < 17 e / R about the
        touch angle t0 (phi, or phi + pi when h0 > 0), and so do the computed t (the arccos argument is clamped
        to [-1, 1]); any two such points of b lie within 2 r_b sqrt(34 e / R) < 12 r_b sqrt(e / R) of each other.

    cos and sin, the point's sum and rho's own rounding move a computed rho by less than e more. So a computed
    crossing whose margin exceeds the allowance 2 e + r_b (6 e / sqrt(q), or 12 sqrt(e / R) near-tangent) lies on
    the same side of circle a as the exact one. A pair is decided when its two crossings clear the allowance (two
    near-tangent crossings then count 0, as both exact ones do); when |h0| > R + e, so that b misses a's plane; or
    when all of b lies on one side of the cylinder of radius r_a about a's axis, so that lk = 0. A point
    c_b + r_b w of b, w a unit vector whose height over a's plane is at most R / r_b, lies between
    max(rho_c - r_b, sqrt(r_b^2 - R^2) - rho_c) and rho_c + r_b from that axis, rho_c the distance of c_b; with
    R + e for R, and 2 e for rho_c's rounding and the bounds', this decides the nearly coplanar pairs, whose
    allowance grows without bound as R -> 0. Any other pair, or a NaN, raises MinSeparationTooSmall, whose index
    is the first such pair: no integer is guessed.
    """
    (nx, ny, nz), (ux, uy, uz), (vx, vy, vz) = normals.T, u_b.T, v_b.T
    dx, dy, dz = (centers_b - centers).T
    h0 = (nx * dx + ny * dy) + nz * dz
    big_a = radii_b * ((nx * ux + ny * uy) + nz * uz)
    big_b = radii_b * ((nx * vx + ny * vy) + nz * vz)
    big_r = np.hypot(big_a, big_b)
    e = 16.0 * np.finfo(float).eps * (((np.abs(dx) + np.abs(dy)) + np.abs(dz)) + radii_b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # R = 0: an inf allowance; fmax drops NaN
        theta = np.arccos(np.fmin(np.fmax(-h0 / big_r, -1.0), 1.0))
        q = (big_r - h0) * (big_r + h0)
        allowance = 2.0 * e + radii_b * np.where(q >= 16.0 * e * big_r, 6.0 * e / np.sqrt(q), 12.0 * np.sqrt(e / big_r))
    phi = np.arctan2(big_b, big_a)
    t = np.stack([phi - theta, phi + theta])  # (2, P): up, then down
    cos, sin = np.cos(t), np.sin(t)
    _, rho = _height_and_rho(dx + radii_b * (cos * ux + sin * vx), dy + radii_b * (cos * uy + sin * vy),
                             dz + radii_b * (cos * uz + sin * vz), nx, ny, nz)
    margin = np.abs(rho - radii).min(axis=0)
    _, rho_c = _height_and_rho(dx.copy(), dy.copy(), dz.copy(), nx, ny, nz)
    with np.errstate(invalid="ignore"):  # b tilted more than its bound allows: NaN, and fmax takes the other
        low = np.fmax(rho_c - radii_b, np.sqrt((radii_b - (big_r + e)) * (radii_b + (big_r + e))) - rho_c)
    one_side = (low > radii + 2.0 * e) | (rho_c + radii_b < radii - 2.0 * e)
    bad = np.flatnonzero(~((np.abs(h0) > big_r + e) | one_side | (margin > allowance)))  # a NaN fails all three
    if bad.size:
        k = bad[0]
        raise MinSeparationTooSmall(f"disk crossing {margin[k]:.3e} from circle a, within the rounding allowance "
                                    f"{allowance[k]:.3e}", int(k))
    inside = rho < radii
    return np.where(one_side | ~(np.abs(h0) < big_r), 0, inside[0].astype(int) - inside[1])


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


def link_matrix(n: Necklace, quad_n: int = 64) -> LinkMatrix:
    """Linking numbers for all unordered child pairs, each near pair certified on its own.

    A pair whose certified ball gap exceeds twice the child tube is unlinked with no evaluation (see
    Necklace.near_pairs) and gets entry 0. The near pairs get their exact integers from the disk crossings
    (_disk_crossings) and the Gauss integral (_loop_linking, quad_n points per loop) as the cross-check, each
    kernel in one batch over the pairs and the stacked child frames (Necklace.child_frames); the largest gap
    between the two is max_gauss_gap. A kernel's MinSeparationTooSmall is re-raised as LinkBackendError naming
    the pair (the batch's first offending one); any other exception propagates.
    """
    _check_int("quad_n", quad_n, 16)  # checked before any pair is measured
    m = n.multiplicity
    (i, j), _ = n.near_pairs
    (u, v), radii = n.child_frames, np.full(len(i), n.contraction)
    a, centers_b, u_b, v_b = (n.child_centers[i], n.child_normals[i], radii), n.child_centers[j], u[j], v[j]
    try:
        lks = _disk_crossings(*a, centers_b, u_b, v_b, radii)
        gauss = _loop_linking(*a, *_loop_samples(centers_b, radii, u_b, v_b, quad_n), radii)
    except MinSeparationTooSmall as exc:
        raise LinkBackendError((int(i[exc.index]) + 1, int(j[exc.index]) + 1), exc) from exc
    entries = np.zeros((m, m), dtype=int)
    entries[i, j] = entries[j, i] = lks
    return LinkMatrix(entries, float(np.max(np.abs(gauss - lks), initial=0.0)))
