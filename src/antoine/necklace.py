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
from .geom3 import _as_readonly, _check_int, project_rotations

if TYPE_CHECKING:
    from .linking import LinkMatrix

Address = tuple[int, ...]

_E3 = np.array([0.0, 0.0, 1.0])

PLANE_TILT = math.pi / 4

# fixed certificate settings: samples per child circle in the containment
# bound, deviation allowed in the symmetry checks, and the largest accepted
# gap between the Gauss quadrature and the exact polygonal linking numbers
CONTAINMENT_SAMPLES = 512
SYMMETRY_TOL = 1e-10
GAUSS_TOL = 0.1


def two_slot_rotation(m: int) -> Rotation3:
    """Rotation about the x3-axis by 4*pi/m; advances child slot j to j+2."""
    return Rotation3.about_axis(_E3, 4.0 * math.pi / m)


@dataclass(frozen=True, eq=False)
class Necklace:
    """Immutable stage-0/stage-1 data of the construction; each child is stored once, as its map."""

    multiplicity: int
    base_torus: SolidTorus
    child_maps: tuple[Similarity3, ...]
    child_tube: float

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
    if not isinstance(m, (int, np.integer)) or m % 2 != 0 or m < 10:
        raise InvalidMultiplicity(f"multiplicity must be an even integer >= 10, got {m!r}")
    m = int(m)

    base_circle = Circle3(np.zeros(3), 1.0, _E3)
    base_torus = SolidTorus(base_circle, 8.0 / m)
    ratio = 4.0 / m

    # seeds at slots 1 and 2, then exact rotation conjugates for the rest
    seeds = []
    for j in (1, 2):
        theta = (2 * j - 1) * math.pi / m
        radial = np.array([math.cos(theta), math.sin(theta), 0.0])
        lean = 1.0 if j % 2 == 1 else -1.0
        normal = math.cos(PLANE_TILT) * radial + lean * math.sin(PLANE_TILT) * _E3
        seeds.append(Similarity3(ratio, Rotation3.aligning(_E3, normal), radial))

    angles = [4.0 * math.pi * (j // 2) / m for j in range(2, m)]
    cos, sin = (np.array([f(a) for a in angles])[:, None, None] for f in (math.cos, math.sin))
    kx = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -0.0], [-0.0, 0.0, 0.0]])  # the cross-product matrix of e3
    rho = project_rotations(np.eye(3) + sin * kx + (1.0 - cos) * (kx @ kx))
    seed_rots = np.array([seeds[j % 2].rot.matrix for j in range(2, m)])
    rots = project_rotations(rho @ seed_rots) @ project_rotations(rho.transpose(0, 2, 1))
    maps = seeds + [
        Similarity3(ratio, Rotation3(rot), seeds[j % 2].shift @ r.T) for j, r, rot in zip(range(2, m), rho, rots)
    ]

    return Necklace(m, base_torus, tuple(maps), 32.0 / m**2)


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

    Component form: each centre and normal coordinate is gathered by take from a C-contiguous (3, m) array,
    and the arithmetic is that of the vector form, so every distance has its bits: with w = p - c,
    h = (wx nx + wz nz) + wy ny as einsum sums it, rho = sqrt((px^2 + py^2) + pz^2) of w - h n as
    np.linalg.norm does, and hypot(rho - r, h).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(slots, slice):
        slots = np.arange(n.multiplicity)[slots][None]
    (cx, cy, cz), (nx, ny, nz) = n.child_centers.T.copy(), n.child_normals.T.copy()
    nx, ny, nz = nx.take(slots), ny.take(slots), nz.take(slots)
    wx = pts[:, 0, None] - cx.take(slots)
    wy = pts[:, 1, None] - cy.take(slots)
    wz = pts[:, 2, None] - cz.take(slots)
    h = wx * nx
    h += wz * nz
    h += wy * ny
    wx -= h * nx  # w - h n, then its squared norm, in place
    wy -= h * ny
    wz -= h * nz
    wx *= wx
    wy *= wy
    wz *= wz
    wx += wy
    wx += wz
    np.sqrt(wx, out=wx)
    wx -= n.contraction
    return np.hypot(wx, h, out=wx)


@dataclass(frozen=True)
class StageSummary:
    """Torus count and maximum torus diameter at one stage."""

    stage: int
    count: int
    max_diameter: float


def stage_summary(n: Necklace, k: int) -> StageSummary:
    """Stage k holds m^k tori of diameter (4/m)^k * (2 + 16/m), decreasing to 0; ValueError unless k is an integer >= 0."""
    _check_int("k, the stage,", k, 0)
    diam0 = 2.0 + 16.0 / n.multiplicity
    return StageSummary(k, n.multiplicity**k, n.contraction**k * diam0)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    margin: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of every stage-1 hypothesis check, with margins.

    Margins are positive slack: a check passes iff its margin is > 0 (with
    the convention written into each check below). link_matrix holds the
    linking numbers behind the link checks (None when linking was not
    checked); it is reported on its own, not in to_json_dict.
    """

    multiplicity: int
    parent_tube: float
    child_tube: float
    min_pair_clearance: float
    containment_clearance: float
    checks: tuple[CheckRecord, ...]
    link_matrix: LinkMatrix | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "multiplicity": self.multiplicity,
            "passed": self.passed,
            "constants": {
                "parent_tube": self.parent_tube,
                "child_tube": self.child_tube,
                "min_pair_clearance": self.min_pair_clearance,
                "containment_clearance": self.containment_clearance,
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


def _rho_classes(m: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Classes of the unordered child pairs under the slot shift j -> j+2 (mod m).

    Returns the pairs np.triu_indices(m, 1), the position among them of each
    class representative (the class's lexicographically least pair, so i is
    0 or 1 and (0, 1) comes first), and each pair's class. There are m
    classes when 4 divides m, else m - 1.

    The least pair of a class holds 0 or 1, so it is one of two shifts of any
    member: the one taking i down to its parity slot, or the one taking j.
    """

    def key(a, b):  # (a, b) shifted by -2 (a // 2), encoded as min * m + max
        b = (b - (a - a % 2)) % m
        a = a % 2
        return np.minimum(a, b) * m + np.maximum(a, b)

    pairs = i, j = np.triu_indices(m, 1)
    keys = np.minimum(key(i, j), key(j, i))
    _, reps, classes = np.unique(keys, return_index=True, return_inverse=True)
    return pairs, reps, classes


def _transfer_slack(n: Necklace, i: np.ndarray, j: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """How far each child pair (i, j) lies from a rotated copy of the pair at position rep.

    Child k is measured once against the rho^(k//2) image of its seed circle
    (child k % 2) by centre + radius + r * normal deviation, a bound on how far
    each point moves under a similarity carrying one oriented circle onto the
    other, plus 8 ulps of its coordinate scale for the rounding by which the
    clearance evaluations of two congruent pairs differ. A pair sums its two
    children's measures and its representative's; a representative gets 0.
    """
    dev = np.empty(n.multiplicity)
    for k, child in enumerate(n.child_circles):
        rho = Similarity3(1.0, Rotation3.about_axis(_E3, 4.0 * math.pi * (k // 2) / n.multiplicity), np.zeros(3))
        ideal = n.child_circles[k % 2].transform(rho)
        dev[k] = (
            float(np.linalg.norm(child.center - ideal.center))
            + abs(child.radius - ideal.radius)
            + ideal.radius * float(np.linalg.norm(child.normal - ideal.normal))
            + 8.0 * np.finfo(float).eps * (float(np.linalg.norm(child.center)) + child.radius)
        )
    return np.where(rep == np.arange(len(i)), 0.0, dev[i] + dev[j] + dev[i[rep]] + dev[j[rep]])


def validate_necklace(
    n: Necklace,
    clearance_grid: int = 512,
    poly_n: int = 512,
    quad_n: int = 256,
    check_linking: bool = True,
) -> ValidationReport:
    """Run every stage-1 hypothesis check and record pass/fail with margins.

    Checks (failures are recorded, never raised):
      children_disjoint   certified pairwise clearance > 2 * child tube
      children_contained  certified max distance to base circle + child tube
                          < parent tube
      rho_equivariance    rotation by 4*pi/m maps child j onto child j+2
      iota_symmetry       pi-rotation about x1 swaps children 1 and m
      maps_onto_circles   each child map sends base circle samples onto its
                          child circle
      link_pattern        |lk| = 1 exactly for adjacent slots, 0 otherwise
      link_gauss_agreement  quadrature linking within GAUSS_TOL of the
                          exact integers

    The clearance and containment margins are Lipschitz-certified (sampling
    error subtracted), so a positive margin is a proof at stated grid sizes,
    not a heuristic. Pair checks run once per rho class: the representative's
    clearance bound, less the pair's transfer slack, bounds every pair of the
    class, and link_matrix copies the representative's linking number, which
    link_pattern accepts only while the slack is below half that clearance.
    The link matrix is computed once and kept on the report.
    """
    m = n.multiplicity
    checks: list[CheckRecord] = []

    # (a) pairwise disjointness of the child solid tori: one clearance bound
    # per rho class, less each pair's transfer slack
    need = 2.0 * n.child_tube
    (i, j), reps, classes = _rho_classes(m)
    slack = _transfer_slack(n, i, j, reps[classes])
    circles = n.child_circles
    rep_bounds = [circle_circle_distance(circles[a], circles[b], clearance_grid) for a, b in zip(i[reps], j[reps])]
    bounds = np.array(rep_bounds)[classes]
    min_clearance = float(np.min(bounds - slack - need))
    checks.append(CheckRecord("children_disjoint", min_clearance > 0.0, min_clearance, 0.0))

    # (b) containment in the open parent torus
    half_step = math.pi * n.contraction / CONTAINMENT_SAMPLES
    d_max = max(float(np.max(point_circle_distance(n.base_torus.core, c.sample(CONTAINMENT_SAMPLES)))) for c in circles)
    contain_clearance = n.base_torus.tube - (d_max + half_step + n.child_tube)
    checks.append(CheckRecord("children_contained", contain_clearance > 0.0, contain_clearance, 0.0))

    # (c) rotation equivariance: rho(child j) = child j+2, indices wrapping to 1, 2
    rho_sim = Similarity3(1.0, two_slot_rotation(m), np.zeros(3))
    rho_dev = max(_circle_deviation(c.transform(rho_sim), circles[(k + 2) % m]) for k, c in enumerate(circles))
    checks.append(CheckRecord("rho_equivariance", rho_dev < SYMMETRY_TOL, SYMMETRY_TOL - rho_dev, SYMMETRY_TOL))

    # (d) involution symmetry: the pi-rotation about x1 swaps children 1 and m
    iota_sim = Similarity3(1.0, Rotation3.about_axis(np.array([1.0, 0.0, 0.0]), math.pi), np.zeros(3))
    iota_dev = max(
        _circle_deviation(circles[0].transform(iota_sim), circles[m - 1]),
        _circle_deviation(circles[m - 1].transform(iota_sim), circles[0]),
    )
    checks.append(CheckRecord("iota_symmetry", iota_dev < SYMMETRY_TOL, SYMMETRY_TOL - iota_dev, SYMMETRY_TOL))

    # each child map must carry the base circle onto its child circle
    map_tol = 1e-10
    base_samples = n.base_torus.core.sample(64)
    map_dev = max(float(np.max(point_circle_distance(c, s.apply(base_samples)))) for c, s in zip(circles, n.child_maps))
    checks.append(CheckRecord("maps_onto_circles", map_dev < map_tol, map_tol - map_dev, map_tol))

    # (e) linking pattern, delegated to the linking module
    lm = None
    if check_linking:
        from .linking import link_matrix

        lm = link_matrix(n, poly_n=poly_n, quad_n=quad_n)
        ring = np.roll(np.eye(m, dtype=int), 1, axis=1)  # adjacent slots, cyclically
        entry_err = int(np.max(np.abs(np.abs(lm.entries) - (ring + ring.T))))
        # a copied entry holds while the pair's slack is below half its
        # representative's certified core clearance (a representative has
        # slack 0 and needs none)
        copied = slack > 0.0
        transfer = float(np.min(0.5 * bounds[copied] - slack[copied], initial=math.inf))
        margin = 0.5 - entry_err if transfer > 0.0 else transfer
        checks.append(CheckRecord("link_pattern", margin > 0.0, margin, 0.0))
        checks.append(
            CheckRecord("link_gauss_agreement", lm.max_gauss_gap < GAUSS_TOL, GAUSS_TOL - lm.max_gauss_gap, GAUSS_TOL)
        )

    return ValidationReport(
        multiplicity=m,
        parent_tube=n.base_torus.tube,
        child_tube=n.child_tube,
        min_pair_clearance=min_clearance,
        containment_clearance=contain_clearance,
        checks=tuple(checks),
        link_matrix=lm,
    )


def scan_multiplicities(ms, **validate_kwargs):
    """Yield (m, report) for each m in ms; an m is linked only once its geometric checks pass."""
    for m in ms:
        n = build_necklace(m)
        geometry = validate_necklace(n, **{**validate_kwargs, "check_linking": False})
        yield m, validate_necklace(n, **validate_kwargs) if geometry.passed else geometry
