"""Self-similar necklace construction: m linked child tori inside a parent torus.

Geometry, for even multiplicity m >= 10:

  - parent: solid torus of tube radius 8/m around the unit circle in the
    x1-x2 plane (the base circle),
  - children: circles of radius 4/m centered at angles (2j - 1) * pi / m,
    j = 1..m, so the x1-axis bisects the gap between child m and child 1,
  - child planes alternate: the normal of child j leans 45 degrees from the
    radial direction, toward +x3 for odd j and toward -x3 for even j,
  - child similarities of ratio 4/m map the base circle onto each child
    circle; children at slots j+2 are exact rotation conjugates of the ones
    at slot j, so rotation equivariance holds by construction.

The +-45 degree lean makes adjacent children lie in transverse planes (they
form Hopf links) and makes the pi-rotation about the x1-axis swap child 1
with child m exactly. A vertical/horizontal plane alternation cannot have
that swap symmetry: the x1-rotation preserves the vertical or horizontal
character of a plane, while the swap pairs slots of opposite parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidMultiplicity
from .geom3 import Circle3, Rotation3, Similarity3, SolidTorus, circle_circle_distance, point_circle_distance
from .geom3 import _as_readonly, _check_int, _circle_distance, _rodrigues, _sampled_distances, circle_frames
from .geom3 import project_rotations

if TYPE_CHECKING:
    from .linking import LinkMatrix

Address = tuple[int, ...]

_E3 = np.array([0.0, 0.0, 1.0])

PLANE_TILT = math.pi / 4

# fixed certificate settings: samples per child circle in the containment
# bound, deviation allowed in the symmetry checks, and the largest accepted
# gap between the Gauss quadrature and the exact disk-crossing linking numbers
CONTAINMENT_SAMPLES = 512
SYMMETRY_TOL = 1e-10
GAUSS_TOL = 0.1


def two_slot_rotation(m: int) -> Rotation3:
    """Rotation about the x3-axis by 4*pi/m; advances child slot j to j+2."""
    return Rotation3.about_axis(_E3, 4.0 * math.pi / m)


def _checked_multiplicity(m) -> int:
    """m as an int; InvalidMultiplicity unless an even integer >= 10: the one rule of build_necklace and Necklace."""
    if not isinstance(m, (int, np.integer)) or m % 2 != 0 or m < 10:
        raise InvalidMultiplicity(f"multiplicity must be an even integer >= 10, got {m!r}")
    return int(m)


@dataclass(frozen=True, eq=False)
class Necklace:
    """Immutable stage-0/stage-1 data: the parent tube, the m child maps (each child stored once, as its map) and the
    child tube. m is their count (InvalidMultiplicity unless even and >= 10), and every map's ratio is exactly 4/m
    (ValueError otherwise), as the classifier, the volume, the meshes and the word maps assume."""

    parent_tube: float
    child_maps: tuple[Similarity3, ...]
    child_tube: float

    def __post_init__(self):
        _checked_multiplicity(len(self.child_maps))
        self.base_torus  # ValueError unless the parent tube lies in (0, 1)
        if (ratios := {f.scale for f in self.child_maps}) != {self.contraction}:
            raise ValueError(f"every child map's ratio must be 4/m = {self.contraction}, got {sorted(ratios)}")
        if not (np.isfinite(self.child_tube) and self.child_tube > 0.0):
            raise ValueError(f"the child tube must be finite and positive, got {self.child_tube}")

    @property
    def multiplicity(self) -> int:
        """m, the number of child maps."""
        return len(self.child_maps)

    @cached_property
    def base_torus(self) -> SolidTorus:
        """The parent torus: the parent tube about the unit circle about e3 at the origin."""
        return SolidTorus(Circle3(np.zeros(3), 1.0, _E3), self.parent_tube)

    @cached_property
    def child_circles(self) -> tuple[Circle3, ...]:
        """Each child map's image of the parent's core circle."""
        return tuple(self.base_torus.core.transform(s) for s in self.child_maps)

    @cached_property
    def inverse_maps(self) -> tuple[Similarity3, ...]:
        """The inverses of the child maps, which the pullback dynamics applies."""
        return tuple(s.invert() for s in self.child_maps)

    @cached_property
    def child_centers(self) -> np.ndarray:
        """(m, 3) stacked child circle centres, read-only, for vectorized membership tests."""
        return _as_readonly([c.center for c in self.child_circles])

    @cached_property
    def child_normals(self) -> np.ndarray:
        """(m, 3) stacked child circle normals, read-only."""
        return _as_readonly([c.normal for c in self.child_circles])

    @cached_property
    def child_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, 3) stacked in-plane frames (u, v) of the child circles, read-only: one circle_frames call, whose rows
        have the bits of the one-row calls. Each child circle's basis() is its row from then on (a circle whose
        basis() ran first keeps its own, equal, frame)."""
        u, v = (_as_readonly(x) for x in circle_frames(self.child_normals))
        for c, frame in zip(self.child_circles, zip(u, v)):
            c.__dict__.setdefault("_frame", frame)  # the cache that Circle3._frame fills
        return u, v

    @property
    def contraction(self) -> float:
        """Similarity ratio of every child map: 4/m."""
        return 4.0 / self.multiplicity

    @property
    def expansion(self) -> float:
        """Per-step expansion of the inverse dynamics: m/4."""
        return self.multiplicity / 4.0

    @property
    def is_even_square(self) -> bool:
        """Whether m is the square of an even integer (exterior degree match)."""
        return is_even_square(self.multiplicity)

    @cached_property
    def _windows(self) -> dict:
        """The step loop's windows by tolerance (dynamics._bracketing_children); a replace() copy starts empty."""
        return {}

    @cached_property
    def child_reach(self) -> float:
        """max_j dist(c_j, parent core) + r + child_tube: no point of a child torus lies farther from the core."""
        d = point_circle_distance(self.base_torus.core, self.child_centers)
        return float(d.max()) + self.contraction + self.child_tube


def is_even_square(m: int) -> bool:
    """Whether m is the square of an even integer: then sqrt(m) is the exterior degree of the full map."""
    d = math.isqrt(m)
    return d * d == m and d % 2 == 0


def build_necklace(m: int) -> Necklace:
    """Construct the necklace for even multiplicity m >= 10.

    Raises InvalidMultiplicity otherwise. Any even m >= 10 is accepted;
    whether the stage-1 hypotheses actually hold for it is what
    validate_necklace certifies (the smallest passing m with default
    settings is 40). Child slot j >= 2 (0-based) is the seed at slot j % 2
    conjugated by rho^(j // 2): the rho^k, their inverses and the rho^k seed
    products are three stacks, each projected once, with the arithmetic of
    Rotation3.about_axis, inverse and compose (the same bytes).
    """
    m = _checked_multiplicity(m)
    ratio = 4.0 / m

    # seeds at slots 1 and 2, then exact rotation conjugates for the rest
    seeds = []
    for j in (1, 2):
        theta = (2 * j - 1) * math.pi / m
        radial = np.array([math.cos(theta), math.sin(theta), 0.0])
        lean = 1.0 if j % 2 == 1 else -1.0
        normal = math.cos(PLANE_TILT) * radial + lean * math.sin(PLANE_TILT) * _E3
        seeds.append(Similarity3(ratio, Rotation3.aligning(_E3, normal), radial))

    rho = project_rotations(_rodrigues(_E3, [4.0 * math.pi * (j // 2) / m for j in range(2, m)]))
    seed_rots = np.array([seeds[j % 2].rot.matrix for j in range(2, m)])
    rots = project_rotations(rho @ seed_rots) @ project_rotations(rho.transpose(0, 2, 1))
    maps = seeds + [
        Similarity3(ratio, Rotation3(rot), seeds[j % 2].shift @ r.T) for j, r, rot in zip(range(2, m), rho, rots)
    ]

    return Necklace(8.0 / m, tuple(maps), 32.0 / m**2)


def word_maps(n: Necklace, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composed child similarities of N words of one length, as stacked arrays.

    words is an (N, L) array of digits 1..m. Returns scales (N,), rotations
    (N, 3, 3) and shifts (N, 3); row i is map(w1) after map(w2) after ... for
    word i, composed left to right with the arithmetic of Similarity3.compose,
    so each row equals the compose chain bit for bit.
    """
    words = np.asarray(words)
    if words.ndim != 2 or (words.size and not (words.min() >= 1 and words.max() <= n.multiplicity)) or np.any(words % 1):
        raise ValueError(f"words must be an (N, L) array of integer address digits in 1..{n.multiplicity}")
    words = words.astype(np.intp)
    child_rots = np.array([s.rot.matrix for s in n.child_maps])
    child_shifts = np.array([s.shift for s in n.child_maps])
    scales = np.ones(words.shape[0])
    rots = np.tile(np.eye(3), (words.shape[0], 1, 1))
    shifts = np.zeros((words.shape[0], 3))
    for d in (words - 1).T:
        # shift before scale and rotation, which it reads; matmul, as in
        # Rotation3.apply (an einsum rounds differently)
        shifts = scales[:, None] * (child_shifts[d][:, None, :] @ rots.transpose(0, 2, 1))[:, 0] + shifts
        scales = scales * n.contraction  # the ratio of every child map
        rots = project_rotations(rots @ child_rots[d])
    return scales, rots, shifts


def word_map(n: Necklace, word: Address) -> Similarity3:
    """Composed child similarity of the word: map(w1) after map(w2) after ..."""
    (scale,), (rot,), (shift,) = word_maps(n, [word])
    return Similarity3(float(scale), Rotation3(rot), shift)


def torus_at(n: Necklace, word: Address) -> SolidTorus:
    """Stage-len(word) torus addressed by the word; the empty word gives the parent."""
    return n.base_torus.transform(word_map(n, word))


def child_distances(n: Necklace, points: np.ndarray, slots: np.ndarray | slice = slice(None)) -> np.ndarray:
    """(N, m) distances from each point to each child core circle, or (N, k) to the children in slots (N, k).

    Slot-major: each centre and normal coordinate is gathered by take from a C-contiguous (3, m) array into
    a (k, N) array, so every operation of geom3._circle_distance runs along the points, and the (N, k)
    result is a transposed view.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(slots, slice):
        slots = np.arange(n.multiplicity)[slots][None]
    slots = slots.T  # (k, N), or (m, 1) for a slice
    (cx, cy, cz), (nx, ny, nz) = n.child_centers.T.copy(), n.child_normals.T.copy()
    wx = pts[:, 0] - cx.take(slots)
    wy = pts[:, 1] - cy.take(slots)
    wz = pts[:, 2] - cz.take(slots)
    return _circle_distance(wx, wy, wz, nx.take(slots), ny.take(slots), nz.take(slots), n.contraction).T


@dataclass(frozen=True)
class StageSummary:
    """Torus count and maximum torus diameter at one stage."""

    stage: int
    count: int
    max_diameter: float


def stage_summary(n: Necklace, k: int) -> StageSummary:
    """Stage k holds m^k tori of diameter (4/m)^k * 2 (1 + T), T the parent tube, decreasing to 0; ValueError unless k
    is an integer >= 0."""
    _check_int("k, the stage,", k, 0)
    return StageSummary(k, n.multiplicity**k, n.contraction**k * (2.0 * (1.0 + n.parent_tube)))


@dataclass(frozen=True)
class CheckRecord:
    """One stage-1 check: its name, its margin (positive slack) and its tolerance; it passes iff margin > 0."""

    name: str
    margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.margin > 0.0)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of every stage-1 hypothesis check on a necklace, with margins.

    Margins are positive slack: a check passes iff its margin is > 0 (CheckRecord.passed), with the convention
    written into each check below. to_json_dict reads the constants from the necklace, and the two clearances
    from the children_disjoint and children_contained margins. link_matrix holds the linking numbers behind
    the link checks (None when linking was not checked); it is reported on its own, not in to_json_dict.
    """

    necklace: Necklace
    checks: tuple[CheckRecord, ...]
    link_matrix: LinkMatrix | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        margins = {c.name: c.margin for c in self.checks}
        return {
            "multiplicity": self.necklace.multiplicity,
            "passed": self.passed,
            "constants": {
                "parent_tube": self.necklace.parent_tube,
                "child_tube": self.necklace.child_tube,
                "min_pair_clearance": margins["children_disjoint"],
                "containment_clearance": margins["children_contained"],
            },
            "checks": [
                {"name": c.name, "pass": c.passed, "margin": c.margin, "tolerance": c.tolerance}
                for c in self.checks
            ],
        }


def _circle_deviation(a: Circle3, b: Circle3) -> float:
    """How far two circles are from being equal as oriented-or-flipped sets."""
    center_dev = float(np.linalg.norm(a.center - b.center))
    radius_dev = abs(a.radius - b.radius)
    normal_dev = min(
        float(np.linalg.norm(a.normal - b.normal)),
        float(np.linalg.norm(a.normal + b.normal)),
    )
    return max(center_dev, radius_dev, normal_dev)


def _near_pairs(n: Necklace) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The child pairs (i, j), i < j, that need their own pair checks, and the smallest certified ball gap of the
    others (inf if there are none).

    A pair's ball gap g = |c_i - c_j| - 2 r (r = 4/m, every child's radius) bounds the distance between its two
    circles from below: each lies in the closed ball of radius r about its centre. A pair whose computed gap, less
    the rounding allowance below, exceeds 2 child_tube is certified with no evaluation: its tori are disjoint (the
    core distance is at least g), and it is unlinked (circle j misses the ball that holds the disk circle i
    bounds). Every other pair is near.

    Rounding, with u = eps / 2: in the fixed order ((dx^2 + dy^2) + dz^2) every difference, square and addition
    is within a factor (1 + u) of exact, so the sum is within (1 + gamma_5) of d^2 and its rounded sqrt within
    3.6 u d of d; subtracting 2 r (exact, a doubling) adds at most u (d + 2 r). The computed g is thus off by
    less than 2.5 eps (d + 2 r), and the allowance 4 eps (d + 2 r) also covers its own rounding and that of
    subtracting it.
    """
    i, j = np.triu_indices(n.multiplicity, 1)
    two_r, gap = 2.0 * n.contraction, np.zeros(len(i))
    for x in n.child_centers.T:  # in place: one (m choose 2) temporary per gather
        dx = x.take(i)
        dx -= x.take(j)
        dx *= dx
        gap += dx
    np.sqrt(gap, out=gap)
    allowance = gap + two_r
    allowance *= 4.0 * np.finfo(float).eps
    gap -= two_r
    gap -= allowance
    near = gap <= 2.0 * n.child_tube
    return (i[near], j[near]), float(np.min(gap, where=~near, initial=math.inf))


def _nest_check(child_tube: float, ratio: float, parent_tube: float) -> CheckRecord:
    """children_nest: child_tube >= ratio * parent_tube, so that each child map carries the parent torus into its
    child torus; with disjoint and contained children, the stage-k tori then nest and are disjoint at every k, by
    induction under the maps. A thinner child tube can pass every other check while its tori miss the attractor.

    Rounding, with u = eps / 2: build_necklace's ratio 4/m, parent tube 8/m and child tube 32/m^2 are each
    within a factor (1 + u) of exact values whose product relation holds exactly, and the computed product adds
    one more rounding, so its child tube can fall short of the computed ratio * parent_tube by up to
    (4 u + O(u^2)) ratio * parent_tube (at 119 of the even m in 10..1000, m = 40 among them, it does, by one
    ulp). The allowance 4 eps ratio * parent_tube is twice that, and the subtraction is exact wherever it
    decides (Sterbenz: the two lie within a factor 2).
    """
    scaled = ratio * parent_tube
    allowance = 4.0 * float(np.finfo(float).eps) * scaled
    return CheckRecord("children_nest", (child_tube - scaled) + allowance, allowance)


def validate_necklace(
    n: Necklace,
    clearance_grid: int = 512,
    quad_n: int = 64,
    check_linking: bool = True,
) -> ValidationReport:
    """Run every stage-1 hypothesis check and record pass/fail with margins.

    Checks (failures are recorded, never raised):
      children_disjoint   certified pairwise clearance > 2 * child tube
      children_contained  certified max distance to base circle + child tube
                          < parent tube
      children_nest       child tube >= (4/m) * parent tube, up to rounding
                          (see _nest_check)
      rho_equivariance    rotation by 4*pi/m maps child j onto child j+2
      iota_symmetry       pi-rotation about x1 swaps children 1 and m
      maps_onto_circles   each child map sends base circle samples onto its
                          child circle
      link_pattern        |lk| = 1 exactly for adjacent slots, 0 otherwise
      link_gauss_agreement  quadrature linking within GAUSS_TOL of the
                          exact integers (linking._disk_crossings)

    The clearance and containment margins are Lipschitz-certified (sampling
    error subtracted), so a positive margin is a proof at stated grid sizes,
    not a heuristic. A pair whose certified ball gap exceeds twice the child
    tube is disjoint and unlinked with no evaluation (see _near_pairs); every
    other pair gets its own clearance bound and linking numbers. The link
    matrix is computed once and kept on the report.
    """
    m = n.multiplicity
    checks: list[CheckRecord] = []

    # (a) pairwise disjointness of the child solid tori: a clearance bound per
    # near pair, the ball gap for the others
    (i, j), far_gap = _near_pairs(n)
    circles = n.child_circles
    n.child_frames  # one stacked circle_frames call: every child circle's basis() is its row
    bounds = [circle_circle_distance(circles[a], circles[b], clearance_grid) for a, b in zip(i, j)]
    checks.append(CheckRecord("children_disjoint", min([*bounds, far_gap]) - 2.0 * n.child_tube, 0.0))

    # (b) containment in the open parent torus
    sampled = (_sampled_distances(c, n.base_torus.core, CONTAINMENT_SAMPLES) for c in circles)
    reach = max(float(np.max(d)) + lipschitz for d, lipschitz in sampled)
    checks.append(CheckRecord("children_contained", n.parent_tube - (reach + n.child_tube), 0.0))
    checks.append(_nest_check(n.child_tube, n.contraction, n.parent_tube))

    # (c) rotation equivariance: rho(child j) = child j+2, indices wrapping to 1, 2
    rho_sim = Similarity3(1.0, two_slot_rotation(m), np.zeros(3))
    rho_dev = max(_circle_deviation(c.transform(rho_sim), circles[(k + 2) % m]) for k, c in enumerate(circles))
    checks.append(CheckRecord("rho_equivariance", SYMMETRY_TOL - rho_dev, SYMMETRY_TOL))

    # (d) involution symmetry: the pi-rotation about x1 swaps children 1 and m
    iota_sim = Similarity3(1.0, Rotation3.about_axis(np.array([1.0, 0.0, 0.0]), math.pi), np.zeros(3))
    iota_dev = max(
        _circle_deviation(circles[0].transform(iota_sim), circles[m - 1]),
        _circle_deviation(circles[m - 1].transform(iota_sim), circles[0]),
    )
    checks.append(CheckRecord("iota_symmetry", SYMMETRY_TOL - iota_dev, SYMMETRY_TOL))

    # each child map must carry the base circle onto its child circle
    map_tol = 1e-10
    base_samples = n.base_torus.core.sample(64)
    map_dev = max(float(np.max(point_circle_distance(c, s.apply(base_samples)))) for c, s in zip(circles, n.child_maps))
    checks.append(CheckRecord("maps_onto_circles", map_tol - map_dev, map_tol))

    # (e) linking pattern, delegated to the linking module
    lm = None
    if check_linking:
        from .linking import link_matrix

        lm = link_matrix(n, quad_n=quad_n)
        ring = np.roll(np.eye(m, dtype=int), 1, axis=1)  # adjacent slots, cyclically
        checks.append(CheckRecord("link_pattern", 0.5 - int(np.max(np.abs(np.abs(lm.entries) - (ring + ring.T)))), 0.0))
        checks.append(CheckRecord("link_gauss_agreement", GAUSS_TOL - lm.max_gauss_gap, GAUSS_TOL))

    return ValidationReport(n, tuple(checks), lm)


def scan_multiplicities(ms, **validate_kwargs):
    """Yield (m, report) for each m in ms; an m is linked only once its geometric checks pass."""
    for m in ms:
        n = build_necklace(m)
        geometry = validate_necklace(n, **{**validate_kwargs, "check_linking": False})
        yield m, validate_necklace(n, **validate_kwargs) if geometry.passed else geometry
