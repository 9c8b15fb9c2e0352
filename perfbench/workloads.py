"""The four benchmark workloads, their operations and their output checks.

Every workload runs at m = 40. An operation is what one user call does. Its
output check runs outside the timed window, and an exception, a nonzero exit
code or a failed check counts the operation as failed. Each workload is
warmed up by one untimed operation at full size: the first operation in a
process pays for growing the heap (about 380k page faults and 1.5 s more on
`artifacts`, 1-3 s more on `periodic`), and later ones reuse it. `certify`
is the exception. Its warm-up is a small verify through the same entry points,
because a full-size one would add about 50 s to every run, and a `certify`
run times only one operation, so each run pays the same first-operation cost.

Package functions are looked up on their module at call time (`cli.main`,
`dynamics.classify_points`), so a traced run goes through the wrappers that
spans.py installs.

The check functions take plain outputs, so `selftest.py` can feed them
corrupted copies.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from antoine import cli, dynamics
from antoine.necklace import build_necklace, stage_summary

M = 40
REFERENCE = Path(__file__).resolve().parent / "reference"

CHECK_NAMES = (
    "children_disjoint",
    "children_contained",
    "rho_equivariance",
    "iota_symmetry",
    "maps_onto_circles",
    "link_pattern",
    "link_gauss_agreement",
)

ESCAPE_POINTS = 50_000
ESCAPE_DEPTH = 20
ESCAPE_DIGITS = 12
XYZ_POINTS = 100_000
XYZ_DEPTH = 20


def expected_digests() -> dict:
    return json.loads((REFERENCE / "digests.json").read_text())


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks


def cyclic_adjacency(m: int) -> np.ndarray:
    expected = np.zeros((m, m), dtype=int)
    for j in range(m):
        expected[j, (j + 1) % m] = expected[(j + 1) % m, j] = 1
    return expected


def check_certify(exit_code: int, payload: dict) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    validation = payload.get("validation", {})
    if validation.get("passed") is not True:
        problems.append("validation.passed is not true")
    checks = {c.get("name"): c.get("pass") for c in validation.get("checks", [])}
    for name in CHECK_NAMES:
        if checks.get(name) is not True:
            problems.append(f"check {name} missing or failing")
    lm = payload.get("link_matrix", {})
    m = lm.get("m")
    entries = np.asarray(lm.get("entries", []))
    if m != M or entries.size != M * M:
        problems.append(f"link matrix has m={m} and {entries.size} entries")
    elif not np.array_equal(np.abs(entries.reshape(M, M)), cyclic_adjacency(M)):
        problems.append("|link entries| differ from the cyclic adjacency pattern")
    gap = lm.get("max_gauss_gap")
    if not (isinstance(gap, (int, float)) and gap <= 0.05):
        problems.append(f"max_gauss_gap {gap} > 0.05")
    return problems


def check_escape(status: np.ndarray, itinerary: np.ndarray, seed: int) -> list[str]:
    problems = []
    if status.shape != (ESCAPE_POINTS,) or not np.all(status == dynamics.SURVIVED):
        problems.append(f"{int(np.sum(status != dynamics.SURVIVED))} points did not survive")
    digits = np.random.default_rng(seed).integers(1, M + 1, (ESCAPE_POINTS, ESCAPE_DEPTH))[:, :ESCAPE_DIGITS]
    if itinerary is None or itinerary.shape != digits.shape:
        problems.append("itinerary has the wrong shape")
    elif not np.array_equal(itinerary, digits):
        problems.append(f"{int(np.sum(np.any(itinerary != digits, axis=1)))} itineraries differ from their addresses")
    return problems


def _least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _is_primitive(word: tuple) -> bool:
    p = len(word)
    return all(word != word[:q] * (p // q) for q in range(1, p) if p % q == 0)


def check_periodic(payload: dict, n, p_max: int = 3) -> list[str]:
    """Orbit counts, canonical words, density bounds, and every point fixed by its word."""
    problems = []
    points = payload.get("points", [])
    if payload.get("orbit_count") != len(points):
        problems.append("orbit_count differs from the number of points")
    words = [tuple(p["word"]) for p in points]
    for p, want in ((1, M), (2, M * (M - 1) // 2)):
        got = sum(len(w) == p for w in words)
        if got != want:
            problems.append(f"{got} orbits of period {p}, expected {want}")
    if len(set(words)) != len(words):
        problems.append("duplicate orbit words")
    bad = [w for w, p in zip(words, points) if not (
        1 <= len(w) <= p_max and p["period"] == len(w) and _is_primitive(w) and w == _least_rotation(w)
        and all(1 <= d <= M for d in w)
    )]
    if bad:
        problems.append(f"{len(bad)} words are not least rotations of primitive words, e.g. {bad[0]}")
    density = payload.get("density", {})
    values = [density.get(str(p)) for p in range(1, p_max + 1)]
    if any(not isinstance(v, float) for v in values):
        problems.append("density report incomplete")
    else:
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"density increases with p: {values}")
        for p, v in enumerate(values, start=1):
            if v > stage_summary(n, p).max_diameter:
                problems.append(f"density {v} at p={p} exceeds the stage diameter")
    # every reported point must be fixed by its word, composed from the child maps
    worst = 0.0
    for w, p in zip(words, points):
        x = np.asarray(p["point"], dtype=float)
        y = x
        for d in reversed(w):
            y = n.child_maps[d - 1].apply(y)
        worst = max(worst, float(np.max(np.abs(y - x))))
    if not points or worst > 1e-12:
        problems.append(f"periodic point moved by {worst:.3e} under its word map")
    return problems


def check_artifacts(vol: Path, ply: Path, xyz: Path, n, seed: int, digests: dict) -> list[str]:
    problems = []
    for label, path in (("vol", vol), ("ply", ply)):
        if _sha256(path) != digests[label]:
            problems.append(f"{path.name} differs from the recorded {label} digest")
    cloud = np.loadtxt(xyz, dtype=float, ndmin=2)
    if not np.array_equal(cloud, dynamics.chaos_game_sample(n, XYZ_POINTS, XYZ_DEPTH, seed=seed)):
        problems.append("xyz points differ from chaos_game_sample")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed-loop client: `op` is timed, `check` and `items` are not."""

    items_unit = "items/s"

    def __init__(self, work: Path):
        self.work = work
        self.n = build_necklace(M)

    def warmup(self) -> None:
        self.op(0)

    def op(self, seed: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def items(self, out) -> float:
        raise NotImplementedError


class Certify(Workload):
    """`antoine verify --m 40` with default flags; no seed (the package fixes the projection seed)."""

    items_unit = "pairs/s"

    def warmup(self):
        cli.main(["verify", "--m", "10", "--grid-n", "64", "--poly-n", "64", "--quad-n", "16",
                  "--out", str(self.work / "warmup.json")])

    def op(self, seed):
        path = self.work / "verify.json"
        return cli.main(["verify", "--m", str(M), "--out", str(path)]), path

    def check(self, out):
        code, path = out
        return check_certify(code, json.loads(path.read_text()))

    def items(self, out):
        return M * (M - 1) / 2


class Escape(Workload):
    """The README's library path: sample the attractor, classify it deeply with itineraries."""

    items_unit = "points/s"

    def op(self, seed):
        sample = dynamics.chaos_game_sample(self.n, ESCAPE_POINTS, depth=ESCAPE_DEPTH, seed=seed)
        status, _, itinerary = dynamics.classify_points(self.n, sample, budget=40, itinerary_digits=ESCAPE_DIGITS)
        return status, itinerary, seed

    def check(self, out):
        return check_escape(*out)

    def items(self, out):
        return ESCAPE_POINTS


class Periodic(Workload):
    """`antoine periodic --m 40 --p-max 3 --seed <seed>`."""

    items_unit = "orbits/s"

    def op(self, seed):
        path = self.work / "orbits.json"
        code = cli.main(["periodic", "--m", str(M), "--p-max", "3", "--seed", str(seed), "--out", str(path)])
        return code, path

    def check(self, out):
        code, path = out
        problems = [f"periodic exited {code}"] if code != 0 else []
        return problems + check_periodic(json.loads(path.read_text()), self.n)

    def items(self, out):
        return json.loads(out[1].read_text())["orbit_count"]


class Artifacts(Workload):
    """The write side: a 256^3 escape volume, a stage-2 PLY mesh and a 100k-point XYZ cloud."""

    items_unit = "MB/s"

    def __init__(self, work):
        super().__init__(work)
        self.digests = expected_digests()

    def op(self, seed):
        w = self.work
        commands = [
            ["classify", "--m", str(M), "--grid", "256", "--out", str(w / "escape.vol")],
            ["export", "--m", str(M), "--what", "mesh", "--stage", "2", "--nu", "16", "--nv", "8",
             "--format", "ply", "--out", str(w / "stage.ply")],
            ["export", "--m", str(M), "--what", "points", "--count", str(XYZ_POINTS), "--depth", str(XYZ_DEPTH),
             "--format", "xyz", "--seed", str(seed), "--out", str(w / "cloud.xyz")],
        ]
        return [cli.main(argv) for argv in commands], seed

    def check(self, out):
        codes, seed = out
        problems = [f"command {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        w = self.work
        return problems + check_artifacts(w / "escape.vol", w / "stage.ply", w / "cloud.xyz", self.n, seed,
                                          self.digests)

    def items(self, out):
        names = ("escape.vol", "escape.vol.json", "stage.ply", "cloud.xyz")
        return sum((self.work / name).stat().st_size for name in names) / 1e6


WORKLOADS = {"certify": Certify, "escape": Escape, "periodic": Periodic, "artifacts": Artifacts}
