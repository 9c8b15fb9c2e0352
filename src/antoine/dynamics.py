"""Computable dynamics over the necklace: escape classification, periodic
points, the winding and radial model maps, distortion estimates, and
attractor sampling.

The map being iterated acts as the inverse child similarity on each child
torus (expansion m/4 per step) and sends everything else that is still in
the parent torus out of it in one step. Points outside the parent are in
the escaping regime and are handed to a radial exterior model that only
tracks norms.

Numerical contract of the escape classifier: pullback iteration amplifies
floating-point noise by m/4 per step, so child membership at step k is only
decidable while (m/4)^k * eps stays below the stage-1 clearances. The
classifier threads a per-step tolerance

    tol_k = BOUNDARY_TOL + NOISE_FLOOR * (m/4)^k

through the membership tests. While tol_k is below the clearances the
itinerary digits are exact; once the tolerance ball covers several children
the depth information in a double is exhausted and the point is reported as
surviving the budget (it is indistinguishable from the invariant set at
working precision). Exits are therefore never reported spuriously, and for
m = 40 itineraries are exact through depth 12. The pullback and the chaos
game map points by one kernel, _map_by_key, in a fixed order of elementwise
operations, so a point's bits do not depend on its row or the BLAS library.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateFit, MultipleChildren, NonInvertibleJacobian, UndefinedAtOrigin
from .geom3 import Vec3, _check_int, fixed_points, point_circle_distance, point_rows
from .necklace import Address, Necklace, child_distances, is_even_square, word_map, word_maps

BOUNDARY_TOL = 1e-12
NOISE_FLOOR = 8e-16
DEFAULT_BUDGET = 40
MAX_BUDGET = 0xFFFD  # escape depths stay below the .vol exterior and survivor codes
MAX_DEGREE_ROOT = 1023  # the exterior model's escape radius 2^d stays a finite double
WINDOW_MARGIN = 1e-9  # radians, for the rounding of arctan2, arcsin and the distances
DEFAULT_SEED = 20210917
_CHUNK = 16384  # points per pass of the classifier's step loop

# bulk classifier status codes
EXTERIOR, ESCAPED, SURVIVED = 0, 1, 2


class EscapeKind(Enum):
    EXTERIOR = "exterior"
    ESCAPED = "escaped"
    SURVIVED = "survived"


_ESCAPE_KINDS = {EXTERIOR: EscapeKind.EXTERIOR, ESCAPED: EscapeKind.ESCAPED, SURVIVED: EscapeKind.SURVIVED}


def classify_points(
    n: Necklace,
    points: np.ndarray,
    budget: int = DEFAULT_BUDGET,
    itinerary_digits: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vectorized escape classification of one point, shape (3,), or N points, shape (N, 3).

    Returns (status, depth, itinerary):
      status     uint8 per point: EXTERIOR, ESCAPED or SURVIVED
      depth      int32 per point: escape depth for ESCAPED, budget otherwise
                 (0 for EXTERIOR)
      itinerary  (N, itinerary_digits) int16 array of leading digits
                 (0-padded), or None when itinerary_digits == 0

    Deterministic: pure array arithmetic, no RNG, independent of chunking.
    Raises ValueError on any other shape, on a budget or itinerary_digits that is not an integer in range,
    and on a non-finite point, which has no dynamical label.
    """
    _check_int("budget", budget, 1, MAX_BUDGET)
    _check_int("itinerary_digits", itinerary_digits, 0)
    pts = point_rows(points)
    n_pts = pts.shape[0]
    status = np.full(n_pts, SURVIVED, dtype=np.uint8)
    depth = np.full(n_pts, budget, dtype=np.int32)
    itinerary = np.zeros((n_pts, itinerary_digits), dtype=np.int16) if itinerary_digits else None

    for lo in range(0, n_pts, _CHUNK):
        hi = min(lo + _CHUNK, n_pts)
        _classify_chunk(
            n, pts[lo:hi], lo, budget, status[lo:hi], depth[lo:hi],
            itinerary[lo:hi] if itinerary is not None else None,
        )
    return status, depth, itinerary


def _classify_chunk(n, pts, first, budget, status, depth, itinerary):
    """The pullback step loop over one chunk from input index `first`: writes status, depth and itinerary
    in place."""
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    d0 = point_circle_distance(n.base_torus.core, pts)
    exterior = d0 > n.parent_tube + BOUNDARY_TOL
    status[exterior] = EXTERIOR
    depth[exterior] = 0
    # child shell: dist(p, C_j) >= |p - c_j| - r >= d0 - dist(c_j, core) - r, so no child claims a point
    # past it at step 0's tolerance, and the point exits there, as the step loop would find
    beyond = ~exterior & (d0 > _child_shell(n))
    status[beyond] = ESCAPED
    depth[beyond] = 0

    active = np.flatnonzero(~exterior & ~beyond)
    cur = pts.T.take(active, axis=1)  # slot-major (3, N): a coordinate is a row
    inverse = _stack_maps(n.inverse_maps)
    for k in range(budget):
        if active.size == 0:
            break
        noise = NOISE_FLOOR * n.expansion**k
        tol_k = BOUNDARY_TOL + noise
        slots = _bracketing_children(n, cur.T, tol_k)
        claims = child_distances(n, cur.T, slots) <= n.child_tube + tol_k
        # the claim count and the one claiming child of each row that stays, a contiguous column at a time
        n_claims, digits = claims[:, 0].astype(np.intp), claims[:, 0] * slots[:, 0]
        for j in range(1, claims.shape[1]):
            n_claims += claims[:, j]
            digits += claims[:, j] * slots[:, j]

        exited = n_claims == 0
        status[active[exited]] = ESCAPED
        depth[active[exited]] = k

        fuzzy = n_claims > 1
        if np.any(fuzzy):
            if noise <= BOUNDARY_TOL:
                raise MultipleChildren(int(first + active[fuzzy].min()))
            # tolerance ball covers several children: depth resolution is
            # exhausted, report Julia-positive at the budget
            status[active[fuzzy]] = SURVIVED
            depth[active[fuzzy]] = budget

        stay = n_claims == 1
        active, digits = active[stay], digits[stay]
        if itinerary is not None and k < itinerary.shape[1]:
            itinerary[active, k] = digits + 1
        cur = _map_by_key(inverse, digits, cur[:, stay])
    # anything still active has survived the budget (the defaults already say so)


def _rounding_margin(n: Necklace) -> float:
    """1e-9 relative to the parent torus's extent: far above the rounding of any distance computed in it,
    so a test widened by it keeps every point the unwidened test could keep (the core is the unit circle)."""
    return 1e-9 * (1.0 + n.parent_tube)


def _child_shell(n: Necklace) -> float:
    """Distance from the parent core past which no child claims a point at step 0's tolerance: the child
    reach plus that tolerance and the rounding margin."""
    return n.child_reach + BOUNDARY_TOL + NOISE_FLOOR + _rounding_margin(n)


def _bracketing_children(n: Necklace, pts: np.ndarray, tol: float) -> np.ndarray:
    """(N, 2k) indices of the children whose centre azimuths lie nearest each point's, k on each side
    of it, for the least k that holds every claim at tolerance tol; all m, as (1, m), when no 2k < m
    does. A claimed point is within r + child_tube + tol of its child's centre, so its azimuth is within
    asin(that / rho) of the centre's (rho: distance from the x3-axis). A child outside the window is at
    least k neighbouring gaps from the point, so the window holds while this, plus WINDOW_MARGIN, is
    below the sum of the k gaps next to each child on either side. The window (sorted centre azimuths,
    their order and k, 0 for all m) depends only on the necklace and tol: it is found once per tolerance
    and kept in the necklace's window cache. The indices are gathered slot-major, as (2k, N), and returned
    as its transposed view, whose columns child_distances and the step loop read contiguously."""
    if tol not in n._windows:
        m = n.multiplicity
        phi = np.arctan2(n.child_centers[:, 1], n.child_centers[:, 0])
        order = np.argsort(phi)
        phi = phi[order]
        reach = (n.contraction + n.child_tube + tol) / np.hypot(*n.child_centers[order, :2].T)
        n._windows[tol] = phi, order, 0
        if np.all(reach < 1.0):
            need = np.arcsin(reach) + WINDOW_MARGIN
            for k in range(1, (m + 1) // 2):
                span = (np.roll(phi, -k) - phi) % (2.0 * math.pi)  # k gaps up from each child
                if np.all((span > need) & (np.roll(span, k) > need)):
                    n._windows[tol] = phi, order, k
                    break
    phi, order, k = n._windows[tol]
    if not k:
        return np.arange(n.multiplicity)[None]
    first = np.searchsorted(phi, np.arctan2(pts[:, 1], pts[:, 0]), side="right") - k
    return order.take(first + np.arange(2 * k)[:, None], mode="wrap").T


def _stack_maps(maps) -> tuple[float, np.ndarray]:
    """The ratio of a Necklace's child or inverse maps, which share one (see Necklace), and their C-contiguous
    (12, m) table for _map_by_key: row 3i + j holds the rotation entries R[i, j], rows 9..11 the shifts."""
    return maps[0].scale, np.array([[*f.rot.matrix.ravel(), *f.shift] for f in maps]).T.copy()


def _map_by_key(stacked, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column k of the slot-major (3, N) rows x mapped by the map keys[k] in 0..m-1 of _stack_maps' table, as
    (3, N) in the same order: y_i = ((x0 R[i, 0] + x1 R[i, 1]) + x2 R[i, 2]) ratio + s_i, by elementwise
    multiplies and adds in that order, so a row's bits depend on it and its map alone, not on the other rows
    or the BLAS library. Each table row is gathered into one scratch row (mode "wrap" spares take a buffer)."""
    ratio, table = stacked
    keys, out, entry = keys.astype(np.intp, copy=False), np.empty(x.shape), np.empty(x.shape[1])
    for i, y in enumerate(out):
        np.multiply(x[0], table[3 * i].take(keys, out=entry, mode="wrap"), out=y)
        for j in (1, 2):
            y += np.multiply(x[j], table[3 * i + j].take(keys, out=entry, mode="wrap"), out=entry)
        y *= ratio
        y += table[9 + i].take(keys, out=entry, mode="wrap")
    return out


def coding_point(n: Necklace, prefix: Address, tail: Address) -> Vec3:
    """The point of the invariant set with address prefix + tail + tail + ...

    The repeated tail pins a fixed point of the composed contraction; the
    prefix then pushes it into the stage-len(prefix) torus of that address.
    """
    if not len(tail):
        raise ValueError("tail word must be nonempty")
    return word_map(n, prefix).apply(word_map(n, tail).fixed_point())


@dataclass(frozen=True)
class PeriodicPoint:
    """Repelling periodic point coded by a primitive word of child digits; its period is the word's length."""

    word: Address
    point: Vec3
    multiplier: float

    @property
    def period(self) -> int:
        return len(self.word)


def _least_rotation(word: Address) -> Address:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _primitive_root(word: Address) -> Address:
    p = len(word)
    for q in range(1, p + 1):
        if p % q == 0 and word == word[:q] * (p // q):
            return word[:q]
    return word


def enumerate_periodic(
    n: Necklace, p_max: int, cap: int = 20000, seed: int = DEFAULT_SEED
) -> list[PeriodicPoint]:
    """One periodic point per orbit, for all periods up to p_max.

    Words are deduplicated to the lexicographically least rotation of their
    primitive root, so each periodic orbit appears once with its true
    (primitive) period. Periods whose full word count m^p exceeds `cap` are
    covered by a seeded uniform sample of cap words instead. Raises
    ValueError unless p_max and cap are integers >= 1.
    """
    _check_int("p_max", p_max, 1)
    _check_int("cap", cap, 1)
    rng = np.random.default_rng(seed)
    seen: set[Address] = set()
    out: list[PeriodicPoint] = []
    for p in range(1, p_max + 1):
        reps = []
        for w in _period_words(n.multiplicity, p, cap, rng).tolist():
            rep = _least_rotation(_primitive_root(tuple(w)))
            if len(rep) == p and rep not in seen:
                seen.add(rep)
                reps.append(rep)
        points = fixed_points(*word_maps(n, np.array(reps, dtype=int).reshape(-1, p)))
        out += [PeriodicPoint(w, x, n.expansion**p) for w, x in zip(reps, points)]
    return out


def _period_words(m: int, p: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """All m^p words of length p as rows in lexicographic order, or cap seeded
    uniform ones from rng when m^p exceeds cap."""
    if m**p <= cap:
        return np.array(list(itertools.product(range(1, m + 1), repeat=p)))
    return rng.integers(1, m + 1, size=(cap, p))


def _one_sided_hausdorff(reference: np.ndarray, target: np.ndarray) -> float:
    """sup over reference points of the distance to the target set, from squared distances (dx^2 + dy^2) + dz^2
    (np.linalg.norm's sum) in target blocks that keep each temporary to 2^16 reference-target pairs."""
    step, (tx, ty, tz) = max(1, (1 << 16) // max(1, reference.shape[0])), target.T.copy()
    (rx, ry, rz), least = reference.T[:, :, None], np.full(reference.shape[0], np.inf)
    for lo in range(0, tx.size, step):
        d2 = np.square(rx - tx[lo : lo + step])
        d2 += np.square(ry - ty[lo : lo + step])
        d2 += np.square(rz - tz[lo : lo + step])
        np.minimum(least, d2.min(axis=1), out=least)
    return math.sqrt(np.max(least, initial=0.0))


def periodic_point_cloud(n: Necklace, p_max: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Fixed points of all words of length <= p_max (every orbit point, not one representative per
    orbit), as an (N, 3) array; a seeded sample of 200,000 words stands in for a period with more.
    Raises ValueError unless p_max is an integer >= 1."""
    _check_int("p_max", p_max, 1)
    # seed derived per period so the clouds are nested across p_max; rows are independent, so _CHUNK at a time
    words = [_period_words(n.multiplicity, p, 200000, np.random.default_rng(seed + p)) for p in range(1, p_max + 1)]
    blocks = [w[lo : lo + _CHUNK] for w in words for lo in range(0, len(w), _CHUNK)]
    return np.concatenate([fixed_points(*word_maps(n, b)) for b in blocks])


def density_report(n: Necklace, p_max: int, sample_k: int, seed: int = DEFAULT_SEED) -> float:
    """How far the stage-sample_k reference set strays from the periodic points.

    Reference: centers of the stage-sample_k tori at 512 seeded random
    addresses. Returns the one-sided Hausdorff distance from the reference to
    the set of fixed points of all words of length <= p_max. With the seed
    held fixed, the value is non-increasing in p_max (the point clouds are
    nested), and it is bounded by the stage-p_max torus diameter since every
    reference point shares a length-p_max address prefix with a fixed point.
    Raises ValueError unless p_max is an integer >= 1 and sample_k one >= p_max.
    """
    _check_int("p_max", p_max, 1)
    _check_int("sample_k", sample_k, p_max)
    rng = np.random.default_rng(seed)
    addresses = rng.integers(1, n.multiplicity + 1, size=(512, sample_k))
    # the base core is centred at the origin, so each torus centre is its word map's shift
    _, _, reference = word_maps(n, addresses)
    return _one_sided_hausdorff(reference, periodic_point_cloud(n, p_max, seed=seed))


def winding_map(p: Vec3, m: int) -> Vec3:
    """Cylindrical angle multiplication (r, theta, x3) -> (r, theta * m/2, x3).

    The x3-axis (r = 0) maps to itself. Broadcasts over leading axes.
    """
    p = np.asarray(p, dtype=float)
    r = np.hypot(p[..., 0], p[..., 1])
    theta = np.arctan2(p[..., 1], p[..., 0]) * (m / 2.0)
    return np.stack([r * np.cos(theta), r * np.sin(theta), p[..., 2]], axis=-1)


@dataclass(frozen=True)
class ExteriorModel:
    """Radial model of the escaping regime: spheres of radius r map to r^d.

    degree_root d in 2..MAX_DEGREE_ROOT; when the multiplicity is the square
    of an even integer, d = sqrt(m) matches the exterior degree of the full
    map. The model reproduces the radial behavior only (that is all escape
    certification needs), not the angular structure.
    """

    degree_root: int

    def __post_init__(self):
        _check_int("degree_root", self.degree_root, 2, MAX_DEGREE_ROOT)

    @property
    def inner_radius(self) -> float:
        return 2.0

    @staticmethod
    def for_multiplicity(m: int) -> "ExteriorModel":
        """d = sqrt(m) when m is an even square, else the smallest valid degree."""
        return ExteriorModel(math.isqrt(m) if is_even_square(m) else 2)


def exterior_model_map(p: Vec3, model: ExteriorModel) -> Vec3:
    """x -> |x|^(d-1) x, so |result| = |x|^d. Undefined at the origin."""
    p = np.asarray(p, dtype=float)
    norm = np.linalg.norm(p, axis=-1)
    if np.any(norm < 1e-300):
        raise UndefinedAtOrigin("the radial model map is undefined at the origin")
    return p * np.expand_dims(norm ** (model.degree_root - 1), -1)


@dataclass(frozen=True)
class OrbitRecord:
    """Full record of one orbit: inner itinerary, exit event, exterior norms.

    Itinerary digits are exact while the inner phase is within double
    resolution. Exterior norms are model values (radial growth only), not
    positions of the true map; `handoff_clamped` records whether the exit
    position had to be pushed out to the model's inner sphere. An escaped orbit's
    exit depth is its itinerary's length; escape is certified by a first norm on
    or past the model's inner sphere.
    """

    start: Vec3
    itinerary: Address
    exit: EscapeKind
    handoff: Vec3 | None
    handoff_clamped: bool
    exterior_norms: tuple[float, ...]
    model_degree_root: int

    @property
    def exit_depth(self) -> int | None:
        return len(self.itinerary) if self.exit is EscapeKind.ESCAPED else None

    @property
    def escape_certified(self) -> bool:
        inner = ExteriorModel(self.model_degree_root).inner_radius
        return bool(self.exterior_norms and self.exterior_norms[0] >= inner)

    def to_json_dict(self) -> dict:
        return {
            "start": [float(x) for x in self.start],
            "itinerary": list(self.itinerary),
            "exit": self.exit.value,
            "exit_depth": self.exit_depth,
            "handoff": None if self.handoff is None else [float(x) for x in self.handoff],
            "handoff_clamped": self.handoff_clamped,
            "exterior_norms": list(self.exterior_norms),
            "escape_certified": self.escape_certified,
            "model_degree_root": self.model_degree_root,
        }


_NORM_RECORD_CAP = 1e12


def _finite_point(p) -> np.ndarray:
    """p as a float array; ValueError unless it has shape (3,) and a norm that is a finite double."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"a point must have shape (3,), not {p.shape}")
    if not math.isfinite(_norm(p)):  # a float product overflows to inf with no warning
        raise ValueError(f"point norm must be a finite double, got {p}")
    return p


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 3-vector in fixed order, sqrt((x0 x0 + x1 x1) + x2 x2): np.linalg.norm's BLAS ddot
    rounds by the vector's memory alignment under some OpenBLAS kernels."""
    x0, x1, x2 = x.tolist()
    return math.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing norm is tested for, not warned about
def orbit(n: Necklace, model: ExteriorModel, p: Vec3, max_iter: int = DEFAULT_BUDGET) -> OrbitRecord:
    """Run the orbit of p: inner similarity steps, then the exterior model.

    Inner steps are classify_points on the one point, with its itinerary. On
    exit (or for a point already outside the parent torus) the point is
    pulled back through that itinerary, one _map_by_key column per digit as
    the step loop maps it, and handed to the radial model, clamped
    out to norm 2 if needed, and norms are recorded until they pass the
    recording cap or the next one would overflow a double. Escape is
    certified at the handoff: a norm >= 2 reaches 2^d in one model step, and
    the model map is norm-increasing from there. Raises ValueError on a point
    whose norm is not a finite double, on a point not of shape (3,) and on a
    max_iter that is not an integer in 1..MAX_BUDGET.
    """
    _check_int("max_iter, the step budget,", max_iter, 1, MAX_BUDGET)
    p = _finite_point(p)
    status, _, digits = classify_points(n, p, max_iter, max_iter)
    itinerary = tuple(int(d) for d in digits[0] if d)
    exit_kind = _ESCAPE_KINDS[int(status[0])]
    if exit_kind is EscapeKind.SURVIVED:
        return OrbitRecord(p, itinerary, exit_kind, None, False, (), model.degree_root)

    inverse, x = _stack_maps(n.inverse_maps), p[:, None]
    for d in itinerary:
        x = _map_by_key(inverse, np.array([d - 1]), x)
    x = x[:, 0]
    # hand off to the exterior model, pushing out to its inner sphere if needed
    norm = _norm(x)
    clamped = False
    if norm < model.inner_radius:
        direction = x / norm if norm > 1e-300 else np.array([1.0, 0.0, 0.0])
        x = model.inner_radius * direction
        norm = model.inner_radius
        clamped = True
    handoff = x.copy()
    norms = [norm]
    for _ in range(max_iter):
        if norms[-1] >= _NORM_RECORD_CAP:
            break
        x = exterior_model_map(x, model)
        norm = _norm(x)
        if not math.isfinite(norm):
            break
        norms.append(norm)
    return OrbitRecord(p, itinerary, exit_kind, handoff, clamped, tuple(norms), model.degree_root)


def dilatation_estimate(
    f: Callable[[np.ndarray], np.ndarray], p: Vec3, h: float | None = None
) -> tuple[float, float]:
    """Outer and inner distortion of a map at a point from a numerical Jacobian.

    Central differences with step h (default 1e-5 * (1 + |p|), clamped into
    [1e-7, 1e-3]); singular values s1 >= s2 >= s3 of the 3x3 Jacobian give

        K_outer = (s1/s2) * (s1/s3),   K_inner = (s1/s3) * (s2/s3)

    (the ratio forms are exact rewrites of |Df|^3 / J and J / l(Df)^3 that
    cannot dip below 1 in floating point). Raises NonInvertibleJacobian when
    s3 < 1e-12 * s1, and ValueError on a point not of shape (3,) or whose
    norm is not a finite double, as orbit does.
    """
    p = _finite_point(p)
    if h is None:
        h = min(max(1e-5 * (1.0 + _norm(p)), 1e-7), 1e-3)
    elif not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
    jac = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        jac[:, i] = (np.asarray(f(p + e), dtype=float) - np.asarray(f(p - e), dtype=float)) / (2.0 * h)
    s = np.linalg.svd(jac, compute_uv=False)
    if s[2] < 1e-12 * s[0]:
        raise NonInvertibleJacobian(f"singular values {s} at {p}")
    return float((s[0] / s[1]) * (s[0] / s[2])), float((s[0] / s[2]) * (s[1] / s[2]))


def similarity_dimension(m: int) -> float:
    """log m / log(m/4): dimension of the attractor of m maps of ratio 4/m.

    Valid under the open-set condition that validation certifies. At m = 8
    the value is 3 (full dimension), a sign that the construction cannot be
    disjoint there; it decreases toward 1 as m grows.
    """
    if m <= 4:
        raise ValueError(f"similarity dimension needs m > 4, got {m}")
    return math.log(m) / math.log(m / 4.0)


# every chaos-game point is within 1 + 4/m + (4/m)^2 + ... = m/(m - 4) <= 5/3 of the origin (a unit-circle
# basepoint, unit shifts, ratio 4/m, m >= 10), so each coordinate of a sample spans less than this
_CHAOS_GAME_SPAN = 4.0


def _check_box_sizes(scales: list[float], span: float) -> None:
    """ValueError unless there are two or more box sizes, each positive and finite with a finite reciprocal,
    and coarse enough that the cell index of a coordinate spanning `span` fits an int64."""
    if len(scales) < 2 or not all(
        0.0 < eps < math.inf and math.isfinite(1.0 / eps) and span / eps < 2.0**63 for eps in scales
    ):
        raise ValueError(
            f"need at least two positive box sizes, each finite with a finite reciprocal and above "
            f"{span / 2.0**63:.3g} so that cell indices over a span of {span:.3g} fit an int64, got {scales}"
        )


def box_dimension_estimate(points: np.ndarray, scales) -> float:
    """Box-counting slope fit of log N(eps) against log(1/eps).

    Counts occupied cells of an axis-aligned grid at each scale and fits the
    slope by least squares. Raises ValueError for box sizes that fail
    _check_box_sizes over the points' span, and DegenerateFit when every scale
    sees the same count (no scale information).
    """
    pts = np.asarray(points, dtype=float)
    scales = [float(s) for s in scales]
    if pts.shape[0] < 1000:
        raise ValueError("need at least 1000 points")
    mins = pts.min(axis=0)
    _check_box_sizes(scales, float((pts.max(axis=0) - mins).max()))
    counts = []
    for eps in scales:
        cells = np.floor((pts - mins) / eps).astype(np.int64)
        counts.append(np.unique(cells, axis=0).shape[0])
    if len(set(counts)) == 1:
        raise DegenerateFit(f"all scales give {counts[0]} occupied boxes")
    slope = np.polyfit(np.log(1.0 / np.asarray(scales)), np.log(np.asarray(counts, dtype=float)), 1)[0]
    return float(slope)


def chaos_game_sample(n: Necklace, count: int, depth: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """(count, 3) points of the stage-`depth` set from random addresses.

    Each sample applies the composed child similarity of a uniform random
    length-`depth` address to the basepoint of the base circle, so it lies on
    the core of its stage-`depth` torus, within the stage diameter of the
    invariant set. Deterministic for a given seed. Rows are drawn in blocks of
    _CHUNK and mapped in row order, a level per _map_by_key call, from a table
    of the m^L points of the innermost L digits for the largest L with
    m^L <= min(count, _CHUNK); neither the blocking nor the table changes a
    bit. Raises ValueError unless count is an integer >= 0 and depth one >= 8.
    """
    _check_int("count", count, 0)
    _check_int("depth", depth, 8)
    m = n.multiplicity
    rng = np.random.default_rng(seed)
    maps = _stack_maps(n.child_maps)
    key_type = np.min_scalar_type(m)
    inner = next(L for L in itertools.count() if m ** (L + 1) > min(count, _CHUNK))
    table = n.base_torus.core.point_at(0.0)[:, None]  # column t: the point of the innermost digits t, in base m
    for _ in range(inner):
        table = _map_by_key(maps, np.repeat(np.arange(m), table.shape[1]), np.tile(table, m))
    out = np.empty((count, 3))
    for lo in range(0, count, _CHUNK):
        # the digits less one (the stream of digits drawn from 1..m), as compact (depth, rows): a level is a row
        keys = rng.integers(0, m, (min(_CHUNK, count - lo), depth), dtype=np.int32).T.astype(key_type, order="C")
        x = table.take(m ** np.arange(inner)[::-1] @ keys[depth - inner:], axis=1)  # by the innermost digits
        for level in keys[depth - inner - 1::-1]:
            x = _map_by_key(maps, level, x)
        out[lo:lo + x.shape[1]] = x.T
        del keys, level, x  # so that the next block's draw is the only one held: 4.1 MB peak, not 4.8
    return out
