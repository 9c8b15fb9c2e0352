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

    tol_k = boundary_tol + noise_floor * (m/4)^k

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
from .geom3 import Vec3, point_circle_distance
from .necklace import Address, Necklace, check_word, child_distances, locate_child, word_map

BOUNDARY_TOL = 1e-12
NOISE_FLOOR = 8e-16
DEFAULT_BUDGET = 40
DEFAULT_SEED = 20210917

# bulk classifier status codes
EXTERIOR, ESCAPED, SURVIVED = 0, 1, 2


class EscapeKind(Enum):
    EXTERIOR = "exterior"
    ESCAPED = "escaped"
    SURVIVED = "survived"


@dataclass(frozen=True)
class EscapeOutcome:
    """Classification of one starting point.

    kind EXTERIOR: outside the parent torus at step 0 (depth is 0).
    kind ESCAPED:  depth k means the point lies in stage k but not stage k+1.
    kind SURVIVED: still inside through `depth` = budget pullback steps.
    """

    kind: EscapeKind
    depth: int

    @staticmethod
    def exterior() -> "EscapeOutcome":
        return EscapeOutcome(EscapeKind.EXTERIOR, 0)

    @staticmethod
    def escaped_at(k: int) -> "EscapeOutcome":
        return EscapeOutcome(EscapeKind.ESCAPED, k)

    @staticmethod
    def survived(budget: int) -> "EscapeOutcome":
        return EscapeOutcome(EscapeKind.SURVIVED, budget)


class StepKind(Enum):
    MAPPED = "mapped"
    EXITS = "exits"
    NOT_IN_T0 = "not_in_t0"


@dataclass(frozen=True)
class StepResult:
    kind: StepKind
    point: Vec3 | None = None
    digit: int | None = None


def inner_step(n: Necklace, p: Vec3, tol: float = BOUNDARY_TOL) -> StepResult:
    """One step of the map at crisp tolerance.

    Outside the parent torus: NOT_IN_T0. In a child torus: the inverse child
    similarity is applied and the digit recorded. In the parent but in no
    child: EXITS (one application of the covering part of the map leaves the
    parent; its pointwise values are not modeled here, see `orbit`).
    """
    p = np.asarray(p, dtype=float)
    if point_circle_distance(n.base_torus.core, p) > n.base_torus.tube + tol:
        return StepResult(StepKind.NOT_IN_T0)
    j = locate_child(n, p, tol)
    if j is None:
        return StepResult(StepKind.EXITS)
    return StepResult(StepKind.MAPPED, n.child_maps[j - 1].invert().apply(p), j)


def classify_points(
    n: Necklace,
    points: np.ndarray,
    budget: int = DEFAULT_BUDGET,
    boundary_tol: float = BOUNDARY_TOL,
    noise_floor: float = NOISE_FLOOR,
    itinerary_digits: int = 0,
    chunk: int = 16384,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vectorized escape classification of many points.

    Returns (status, depth, itinerary):
      status     uint8 per point: EXTERIOR, ESCAPED or SURVIVED
      depth      int32 per point: escape depth for ESCAPED, budget otherwise
                 (0 for EXTERIOR)
      itinerary  (N, itinerary_digits) int16 array of leading digits
                 (0-padded), or None when itinerary_digits == 0

    Deterministic: pure array arithmetic, no RNG, independent of chunking.
    Raises ValueError on a non-finite point, which has no dynamical label.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = pts.shape[0]
    status = np.full(n_pts, SURVIVED, dtype=np.uint8)
    depth = np.full(n_pts, budget, dtype=np.int32)
    itinerary = np.zeros((n_pts, itinerary_digits), dtype=np.int16) if itinerary_digits else None

    inverse_maps = [s.invert() for s in n.child_maps]
    for lo in range(0, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        _classify_chunk(
            n, pts[lo:hi], budget, boundary_tol, noise_floor, inverse_maps,
            status[lo:hi], depth[lo:hi],
            itinerary[lo:hi] if itinerary is not None else None,
        )
    return status, depth, itinerary


def _classify_chunk(n, pts, budget, boundary_tol, noise_floor, inverse_maps, status, depth, itinerary):
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    d0 = point_circle_distance(n.base_torus.core, pts)
    exterior = d0 > n.base_torus.tube + boundary_tol
    status[exterior] = EXTERIOR
    depth[exterior] = 0

    active = np.flatnonzero(~exterior)
    cur = pts[active].copy()
    for k in range(budget):
        if active.size == 0:
            return
        noise = noise_floor * n.expansion**k
        tol_k = boundary_tol + noise
        claims = child_distances(n, cur) <= n.child_tube + tol_k
        n_claims = claims.sum(axis=1)

        exited = n_claims == 0
        status[active[exited]] = ESCAPED
        depth[active[exited]] = k

        fuzzy = n_claims > 1
        if np.any(fuzzy):
            if noise <= boundary_tol:
                bad = active[fuzzy][0]
                raise MultipleChildren(
                    f"point index {bad} claimed by several children at crisp tolerance; invalid necklace"
                )
            # tolerance ball covers several children: depth resolution is
            # exhausted, report Julia-positive at the budget
            status[active[fuzzy]] = SURVIVED
            depth[active[fuzzy]] = budget

        stay = n_claims == 1
        active = active[stay]
        if active.size == 0:
            return
        cur = cur[stay]
        digits = np.argmax(claims[stay], axis=1)
        if itinerary is not None and k < itinerary.shape[1]:
            itinerary[active, k] = digits + 1
        nxt = np.empty_like(cur)
        for j in np.unique(digits):
            sel = digits == j
            nxt[sel] = inverse_maps[j].apply(cur[sel])
        cur = nxt
    # anything still active has survived the budget (the defaults already say so)


def escape_depth(
    n: Necklace,
    p: Vec3,
    budget: int = DEFAULT_BUDGET,
    boundary_tol: float = BOUNDARY_TOL,
    noise_floor: float = NOISE_FLOOR,
) -> EscapeOutcome:
    """Escape classification of a single point (see module docstring).

    Equivalent to direct containment testing against the address tori, with
    the itinerary digits as the address, for as long as a double can resolve
    the stage.
    """
    status, depth, _ = classify_points(
        n, np.asarray(p, dtype=float)[None, :], budget, boundary_tol, noise_floor
    )
    if status[0] == EXTERIOR:
        return EscapeOutcome.exterior()
    if status[0] == ESCAPED:
        return EscapeOutcome.escaped_at(int(depth[0]))
    return EscapeOutcome.survived(budget)


def coding_point(n: Necklace, prefix: Address, tail: Address) -> Vec3:
    """The point of the invariant set with address prefix + tail + tail + ...

    The repeated tail pins a fixed point of the composed contraction; the
    prefix then pushes it into the stage-len(prefix) torus of that address.
    """
    tail = check_word(n, tail)
    if not tail:
        raise ValueError("tail word must be nonempty")
    return word_map(n, prefix).apply(word_map(n, tail).fixed_point())


@dataclass(frozen=True)
class PeriodicPoint:
    """Repelling periodic point coded by a word of child digits."""

    word: Address
    point: Vec3
    period: int
    multiplier: float


def periodic_point(n: Necklace, word: Address) -> PeriodicPoint:
    """Fixed point of the composed contraction of `word`.

    Under the dynamics it is periodic with period len(word), itinerary equal
    to the word repeated, and per-cycle expansion (m/4)^len(word).
    """
    word = check_word(n, word)
    if not word:
        raise ValueError("periodic word must be nonempty")
    return PeriodicPoint(
        word=word,
        point=word_map(n, word).fixed_point(),
        period=len(word),
        multiplier=n.expansion ** len(word),
    )


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
    covered by a seeded uniform sample of cap words instead.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    m = n.multiplicity
    rng = np.random.default_rng(seed)
    seen: set[Address] = set()
    out: list[PeriodicPoint] = []
    for p in range(1, p_max + 1):
        if m**p <= cap:
            words = itertools.product(range(1, m + 1), repeat=p)
        else:
            words = map(tuple, rng.integers(1, m + 1, size=(cap, p)).tolist())
        for w in words:
            rep = _least_rotation(_primitive_root(tuple(w)))
            if len(rep) == p and rep not in seen:
                seen.add(rep)
                out.append(periodic_point(n, rep))
    return out


def _one_sided_hausdorff(reference: np.ndarray, target: np.ndarray, chunk: int = 64) -> float:
    """sup over reference points of the distance to the target set."""
    worst = 0.0
    for lo in range(0, reference.shape[0], chunk):
        block = reference[lo : lo + chunk]
        d = np.linalg.norm(block[:, None, :] - target[None, :, :], axis=2)
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def periodic_point_cloud(n: Necklace, p_max: int, cap: int = 200000, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Fixed points of all words of length <= p_max (every orbit point, not
    one representative per orbit), as an (N, 3) array."""
    m = n.multiplicity
    pts = []
    for p in range(1, p_max + 1):
        if m**p <= cap:
            words = itertools.product(range(1, m + 1), repeat=p)
        else:
            # seed derived per period so the clouds are nested across p_max
            sub = np.random.default_rng(seed + p)
            words = map(tuple, sub.integers(1, m + 1, size=(cap, p)).tolist())
        for w in words:
            pts.append(word_map(n, tuple(w)).fixed_point())
    return np.array(pts)


def density_report(
    n: Necklace,
    p_max: int,
    sample_k: int,
    ref_count: int = 512,
    seed: int = DEFAULT_SEED,
) -> float:
    """How far the stage-sample_k reference set strays from the periodic points.

    Reference: centers of the stage-sample_k tori at `ref_count` seeded random
    addresses. Returns the one-sided Hausdorff distance from the reference to
    the set of fixed points of all words of length <= p_max. With the seed
    held fixed, the value is non-increasing in p_max (the point clouds are
    nested), and it is bounded by the stage-p_max torus diameter since every
    reference point shares a length-p_max address prefix with a fixed point.
    """
    if p_max < 1 or sample_k < p_max:
        raise ValueError("need p_max >= 1 and sample_k >= p_max")
    rng = np.random.default_rng(seed)
    addresses = rng.integers(1, n.multiplicity + 1, size=(ref_count, sample_k))
    reference = np.array(
        [word_map(n, tuple(a)).apply(n.base_torus.core.center) for a in addresses.tolist()]
    )
    return _one_sided_hausdorff(reference, periodic_point_cloud(n, p_max, seed=seed))


def winding_map(p: Vec3, m: int) -> Vec3:
    """Cylindrical angle multiplication (r, theta, x3) -> (r, theta * m/2, x3).

    The x3-axis (r = 0) maps to itself. Broadcasts over leading axes.
    """
    p = np.asarray(p, dtype=float)
    r = np.hypot(p[..., 0], p[..., 1])
    theta = np.arctan2(p[..., 1], p[..., 0]) * (m / 2.0)
    return np.stack([r * np.cos(theta), r * np.sin(theta), p[..., 2]], axis=-1)


def involution(p: Vec3) -> Vec3:
    """Rotation by pi about the x1-axis: (x1, x2, x3) -> (x1, -x2, -x3)."""
    return np.asarray(p, dtype=float) * np.array([1.0, -1.0, -1.0])


@dataclass(frozen=True)
class ExteriorModel:
    """Radial model of the escaping regime: spheres of radius r map to r^d.

    degree_root d >= 2; when the multiplicity is the square of an even
    integer, d = sqrt(m) matches the exterior degree of the full map. The
    model reproduces the radial behavior only (that is all escape
    certification needs), not the angular structure.
    """

    degree_root: int

    def __post_init__(self):
        if not isinstance(self.degree_root, (int, np.integer)) or self.degree_root < 2:
            raise ValueError(f"degree_root must be an integer >= 2, got {self.degree_root}")

    @property
    def inner_radius(self) -> float:
        return 2.0

    @property
    def outer_radius(self) -> float:
        return 2.0**self.degree_root

    @staticmethod
    def for_multiplicity(m: int) -> "ExteriorModel":
        """d = sqrt(m) when m is an even square, else the smallest valid degree."""
        d = math.isqrt(m)
        if d * d == m and d % 2 == 0:
            return ExteriorModel(d)
        return ExteriorModel(2)


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


def orbit(
    n: Necklace,
    model: ExteriorModel,
    p: Vec3,
    max_iter: int = DEFAULT_BUDGET,
    boundary_tol: float = BOUNDARY_TOL,
    noise_floor: float = NOISE_FLOOR,
) -> OrbitRecord:
    """Run the orbit of p: inner similarity steps, then the exterior model.

    Inner steps use the same noise-aware tolerance schedule as the
    classifier. On exit (or for a point already outside the parent torus)
    the position is handed to the radial model, clamped out to norm 2 if
    needed, and norms are recorded until they pass the recording cap;
    escape is certified once a norm reaches 2^d, after which the model map
    is strictly norm-increasing.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError(f"point must be finite, got {p}")
    itinerary: list[int] = []
    exit_kind = EscapeKind.SURVIVED
    exit_depth: int | None = None

    x = p.copy()
    if point_circle_distance(n.base_torus.core, x) > n.base_torus.tube + boundary_tol:
        exit_kind = EscapeKind.EXTERIOR
    else:
        for k in range(max_iter):
            noise = noise_floor * n.expansion**k
            d = child_distances(n, x[None, :])[0]
            claimed = np.flatnonzero(d <= n.child_tube + boundary_tol + noise)
            if claimed.size == 0:
                exit_kind = EscapeKind.ESCAPED
                exit_depth = k
                break
            if claimed.size > 1:
                if noise <= boundary_tol:
                    raise MultipleChildren(f"point {x} claimed by children {claimed + 1}")
                break  # resolution exhausted: survived
            j = int(claimed[0]) + 1
            itinerary.append(j)
            x = n.child_maps[j - 1].invert().apply(x)

    if exit_kind == EscapeKind.SURVIVED:
        return OrbitRecord(
            start=p, itinerary=tuple(itinerary), exit=exit_kind, exit_depth=None,
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
        norms.append(float(np.linalg.norm(x)))
    return OrbitRecord(
        start=p, itinerary=tuple(itinerary), exit=exit_kind, exit_depth=exit_depth,
        handoff=handoff, handoff_clamped=clamped, exterior_norms=tuple(norms),
        escape_certified=any(v >= model.outer_radius for v in norms),
        model_degree_root=model.degree_root,
    )


def _numerical_jacobian(f: Callable, p: np.ndarray, h: float | None) -> np.ndarray:
    if h is None:
        h = min(max(1e-5 * (1.0 + float(np.linalg.norm(p))), 1e-7), 1e-3)
    elif not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
    jac = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        jac[:, i] = (np.asarray(f(p + e), dtype=float) - np.asarray(f(p - e), dtype=float)) / (2.0 * h)
    return jac


def _distortion(jac: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    s = np.linalg.svd(jac, compute_uv=False)
    if s[2] < 1e-12 * s[0]:
        raise NonInvertibleJacobian(f"singular values {s} at {p}")
    return float((s[0] / s[1]) * (s[0] / s[2])), float((s[0] / s[2]) * (s[1] / s[2]))


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
    return _distortion(_numerical_jacobian(f, p, h), p)


@dataclass(frozen=True, eq=False)
class DilatationReport:
    """Distortion of one map over a sample of points.

    jacobian_dets are central-difference determinants; all positive means
    the map is sense-preserving on the sample.
    """

    points: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    jacobian_dets: np.ndarray

    @property
    def max_outer(self) -> float:
        return float(self.outer.max())

    @property
    def max_inner(self) -> float:
        return float(self.inner.max())

    @property
    def sense_preserving(self) -> bool:
        return bool(np.all(self.jacobian_dets > 0.0))


def dilatation_report(
    f: Callable[[np.ndarray], np.ndarray], points: np.ndarray, h: float | None = None
) -> DilatationReport:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    outer = np.empty(pts.shape[0])
    inner = np.empty(pts.shape[0])
    dets = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        jac = _numerical_jacobian(f, p, h)
        outer[i], inner[i] = _distortion(jac, p)
        dets[i] = np.linalg.det(jac)
    return DilatationReport(pts, outer, inner, dets)


def similarity_dimension(m: int) -> float:
    """log m / log(m/4): dimension of the attractor of m maps of ratio 4/m.

    Valid under the open-set condition that validation certifies. At m = 8
    the value is 3 (full dimension), a sign that the construction cannot be
    disjoint there; it decreases toward 1 as m grows.
    """
    if m <= 4:
        raise ValueError(f"similarity dimension needs m > 4, got {m}")
    return math.log(m) / math.log(m / 4.0)


def box_dimension_estimate(points: np.ndarray, scales) -> float:
    """Box-counting slope fit of log N(eps) against log(1/eps).

    Counts occupied cells of an axis-aligned grid at each scale and fits the
    slope by least squares. Raises DegenerateFit when every scale sees the
    same count (no scale information).
    """
    pts = np.asarray(points, dtype=float)
    scales = [float(s) for s in scales]
    if len(scales) < 2:
        raise ValueError("need at least 2 scales")
    if pts.shape[0] < 1000:
        raise ValueError("need at least 1000 points")
    mins = pts.min(axis=0)
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
    invariant set. Deterministic for a given seed.
    """
    if depth < 8:
        raise ValueError("depth must be >= 8")
    rng = np.random.default_rng(seed)
    digits = rng.integers(1, n.multiplicity + 1, size=(count, depth))
    base = n.base_torus.core.point_at(0.0)
    x = np.tile(base, (count, 1))
    for level in range(depth - 1, -1, -1):
        col = digits[:, level]
        for j in np.unique(col):
            sel = col == j
            x[sel] = n.child_maps[j - 1].apply(x[sel])
    return x
