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
m = 40 itineraries are exact through depth 12.
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


def _classify_chunk(n, pts, first, budget, status, depth, itinerary, last=None):
    """The pullback step loop over one chunk from input index `first`: writes status, depth, itinerary
    and, when given an (N, 3) array `last`, each point's last position in place (where it left the parent
    or the children, where its tolerance ball covered several children, or after `budget` pullbacks).
    Only orbit reads that position, so only orbit passes `last`."""
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    d0 = point_circle_distance(n.base_torus.core, pts)
    exterior = d0 > n.base_torus.tube + BOUNDARY_TOL
    status[exterior] = EXTERIOR
    depth[exterior] = 0
    # child shell: dist(p, C_j) >= |p - c_j| - r >= d0 - dist(c_j, core) - r, so no child claims a point
    # past it at step 0's tolerance, and the point exits there, as the step loop would find
    beyond = ~exterior & (d0 > _child_shell(n))
    status[beyond] = ESCAPED
    depth[beyond] = 0
    if last is not None:
        last[:] = pts

    active = np.flatnonzero(~exterior & ~beyond)
    cur = pts[active]
    inverse = _stack_maps(n.inverse_maps)
    key_type = np.min_scalar_type(n.multiplicity)
    for k in range(budget):
        if active.size == 0:
            break
        noise = NOISE_FLOOR * n.expansion**k
        tol_k = BOUNDARY_TOL + noise
        slots = _bracketing_children(n, cur, tol_k)
        claims = child_distances(n, cur, slots) <= n.child_tube + tol_k
        # the claim count and the one claiming child of each row that stays, a column at a time
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
                raise MultipleChildren(int(first + active[fuzzy].min()))  # rows are in key order, not input order
            # tolerance ball covers several children: depth resolution is
            # exhausted, report Julia-positive at the budget
            status[active[fuzzy]] = SURVIVED
            depth[active[fuzzy]] = budget

        stay = n_claims == 1
        if last is not None:
            last[active[~stay]] = cur[~stay]
        active = active[stay]
        cur = cur[stay]
        digits = digits[stay]
        if itinerary is not None and k < itinerary.shape[1]:
            itinerary[active, k] = digits + 1
        order, cur = _map_by_key(inverse, digits.astype(key_type), cur)
        active = active[order]
    # anything still active has survived the budget (the defaults already say so)
    if last is not None:
        last[active] = cur


def _rounding_margin(n: Necklace) -> float:
    """1e-9 relative to the parent torus's extent: far above the rounding of any distance computed in it,
    so a test widened by it keeps every point the unwidened test could keep."""
    core = n.base_torus.core
    return 1e-9 * (float(np.abs(core.center).max()) + core.radius + n.base_torus.tube)


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
    and kept in the necklace's window cache."""
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
    return order.take(first[:, None] + np.arange(2 * k), mode="wrap")


def _stack_maps(maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales (k,), transposed rotations (k, 3, 3) and shifts (k, 3) of k similarities, for _map_by_key; each
    R.T is C-contiguous, so a block's product is the matmul whose rounding equals a per-row product's."""
    return (
        np.array([f.scale for f in maps]),
        np.array([f.rot.matrix.T for f in maps]),
        np.array([f.shift for f in maps]),
    )


def _map_by_key(stacked, keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x in stable key order, each mapped by its key's map of _stack_maps' arrays: (order, mapped),
    mapped[i] = scale * (x[order[i]] @ R.T) + shift for the map keys[order[i]]. Each key's rows form one
    contiguous block, mapped in place by one (k, 3) @ (3, 3) matmul and one scale, and one add applies every
    block's shift. That matmul rounds each row as a one-row product with the same C-contiguous R.T does, so a
    row's bits depend neither on its block nor on the order. Keys in an unsigned type of 16 bits or fewer, as
    np.min_scalar_type(m) gives for m < 65536, sort by radix."""
    scales, rts, shifts = stacked
    order = np.argsort(keys, kind="stable")
    mapped = x.take(order, axis=0)
    counts = np.bincount(keys, minlength=len(scales))
    ends = counts.cumsum()
    for d in np.flatnonzero(counts).tolist():
        blk = mapped[ends[d] - counts[d]:ends[d]]
        np.matmul(blk, rts[d], out=blk)
        blk *= scales[d]
    mapped += np.repeat(shifts, counts, axis=0)  # each block's shift, in one add
    return order, mapped


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
    """Repelling periodic point coded by a word of child digits."""

    word: Address
    point: Vec3
    period: int
    multiplier: float


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
        out += [PeriodicPoint(w, x, p, n.expansion**p) for w, x in zip(reps, points)]
    return out


def _period_words(m: int, p: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """All m^p words of length p as rows in lexicographic order, or cap seeded
    uniform ones from rng when m^p exceeds cap."""
    if m**p <= cap:
        return np.array(list(itertools.product(range(1, m + 1), repeat=p)))
    return rng.integers(1, m + 1, size=(cap, p))


def _one_sided_hausdorff(reference: np.ndarray, target: np.ndarray, chunk: int = 64) -> float:
    """sup over reference points of the distance to the target set."""
    worst = 0.0
    for lo in range(0, reference.shape[0], chunk):
        block = reference[lo : lo + chunk]
        d = np.linalg.norm(block[:, None, :] - target[None, :, :], axis=2)
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def periodic_point_cloud(n: Necklace, p_max: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Fixed points of all words of length <= p_max (every orbit point, not one representative per
    orbit), as an (N, 3) array; a seeded sample of 200,000 words stands in for a period with more.
    Raises ValueError unless p_max is an integer >= 1."""
    _check_int("p_max", p_max, 1)
    # seed derived per period so the clouds are nested across p_max
    return np.concatenate([
        fixed_points(*word_maps(n, _period_words(n.multiplicity, p, 200000, np.random.default_rng(seed + p))))
        for p in range(1, p_max + 1)
    ])


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
    # the base circle is centered at the origin, so each torus center is its word map's shift
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
        if not isinstance(self.degree_root, (int, np.integer)) or not 2 <= self.degree_root <= MAX_DEGREE_ROOT:
            raise ValueError(f"degree_root must be an integer in 2..{MAX_DEGREE_ROOT}, got {self.degree_root}")

    @property
    def inner_radius(self) -> float:
        return 2.0

    @property
    def outer_radius(self) -> float:
        return 2.0**self.degree_root

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
    position had to be pushed out to the model's inner sphere.
    """

    start: Vec3
    itinerary: Address
    exit: EscapeKind
    exit_depth: int | None
    handoff: Vec3 | None
    handoff_clamped: bool
    exterior_norms: tuple[float, ...]
    escape_certified: bool
    model_degree_root: int

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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing norm is tested for, not warned about
def orbit(n: Necklace, model: ExteriorModel, p: Vec3, max_iter: int = DEFAULT_BUDGET) -> OrbitRecord:
    """Run the orbit of p: inner similarity steps, then the exterior model.

    Inner steps are the classifier's step loop (_classify_chunk) on one
    row, which writes the row's last position for orbit alone. On exit (or
    for a point already outside the parent torus) that position, where the
    loop left it, is handed to the radial model, clamped
    out to norm 2 if needed, and norms are recorded until they pass the
    recording cap or the next one would overflow a double. Escape is
    certified at the handoff: a norm >= 2 reaches 2^d in one model step, and
    the model map is norm-increasing from there. Raises ValueError on a point
    whose norm is not a finite double, on a point not of shape (3,) and on a
    max_iter that is not an integer in 1..MAX_BUDGET.
    """
    _check_int("max_iter, the step budget,", max_iter, 1, MAX_BUDGET)
    p = np.asarray(p, dtype=float)
    if not np.isfinite(np.linalg.norm(p)):
        raise ValueError(f"point norm must be a finite double, got {p}")
    if p.shape != (3,):
        raise ValueError(f"a point must have shape (3,), not {p.shape}")
    status, depth = np.full(1, SURVIVED, dtype=np.uint8), np.full(1, max_iter, dtype=np.int32)
    digits, last = np.zeros((1, max_iter), dtype=np.int16), np.empty((1, 3))
    _classify_chunk(n, p[None], 0, max_iter, status, depth, digits, last)
    x = last[0]
    itinerary = tuple(int(d) for d in digits[0] if d)
    exit_kind = _ESCAPE_KINDS[int(status[0])]
    exit_depth = int(depth[0]) if exit_kind is EscapeKind.ESCAPED else None
    if exit_kind is EscapeKind.SURVIVED:
        return OrbitRecord(
            start=p, itinerary=itinerary, exit=exit_kind, exit_depth=None,
            handoff=None, handoff_clamped=False, exterior_norms=(),
            escape_certified=False, model_degree_root=model.degree_root,
        )

    # hand off to the exterior model, pushing out to its inner sphere if needed
    norm = float(np.linalg.norm(x))
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
        norm = float(np.linalg.norm(x))
        if not math.isfinite(norm):
            break
        norms.append(norm)
    return OrbitRecord(
        start=p, itinerary=itinerary, exit=exit_kind, exit_depth=exit_depth,
        handoff=handoff, handoff_clamped=clamped, exterior_norms=tuple(norms),
        escape_certified=norms[0] >= model.inner_radius,
        model_degree_root=model.degree_root,
    )


def dilatation_estimate(
    f: Callable[[np.ndarray], np.ndarray], p: Vec3, h: float | None = None
) -> tuple[float, float]:
    """Outer and inner distortion of a map at a point from a numerical Jacobian.

    Central differences with step h (default 1e-5 * (1 + |p|), clamped into
    [1e-7, 1e-3]); singular values s1 >= s2 >= s3 of the 3x3 Jacobian give

        K_outer = (s1/s2) * (s1/s3),   K_inner = (s1/s3) * (s2/s3)

    (the ratio forms are exact rewrites of |Df|^3 / J and J / l(Df)^3 that
    cannot dip below 1 in floating point). Raises NonInvertibleJacobian when
    s3 < 1e-12 * s1.
    """
    p = np.asarray(p, dtype=float)
    if h is None:
        h = min(max(1e-5 * (1.0 + float(np.linalg.norm(p))), 1e-7), 1e-3)
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
    invariant set. Deterministic for a given seed. Rows are drawn and mapped
    in blocks of _CHUNK, each level through _map_by_key, which reorders the
    rows by digit. The m^L points of the innermost L digits are mapped once,
    into a table, for the largest L with m^L <= min(count, _CHUNK). The
    generator's stream and each row's arithmetic depend neither on the
    blocking, the table nor the order, so neither does the output. Raises
    ValueError unless count is an integer >= 0 and depth an integer >= 8.
    """
    _check_int("count", count, 0)
    _check_int("depth", depth, 8)
    m = n.multiplicity
    rng = np.random.default_rng(seed)
    maps = _stack_maps(n.child_maps)
    key_type = np.min_scalar_type(m)
    table = n.base_torus.core.point_at(0.0)[None]  # entry t: the point of the innermost digits t, in base m
    inner = 0
    while m ** (inner + 1) <= min(count, _CHUNK):
        _, table = _map_by_key(maps, np.repeat(np.arange(m, dtype=key_type), len(table)), np.tile(table, (m, 1)))
        inner += 1
    out = np.empty((count, 3))
    for lo in range(0, count, _CHUNK):
        digits = rng.integers(1, m + 1, size=(min(_CHUNK, count - lo), depth))
        keys = digits.T.astype(key_type, order="C")  # (depth, rows): a level is a row
        del digits
        keys -= 1
        perm = np.arange(keys.shape[1])  # x[i] is the point of the block's row perm[i]
        x = table.take(m ** np.arange(inner)[::-1] @ keys[depth - inner:], axis=0)  # by the innermost digits
        for level in keys[depth - inner - 1::-1]:
            order, x = _map_by_key(maps, level.take(perm), x)
            perm = perm.take(order)
        out[lo + perm] = x
        del keys, level, order, perm, x  # so that the next block's draw is the only one held
    return out
