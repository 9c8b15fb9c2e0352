"""Span tracer installed from outside the package, around calls into each module.

A wrapper is placed at every name callers look a function up under (a module
global, a re-export in another module, a class attribute), so no file under
``src/`` changes. Each wrapped call records one span: name, start, end,
parent span and operation id, kept in typed arrays in memory and written out
when the run ends. Counts (point-steps, segment pairs, bytes, ...) are
recorded at the same boundaries, per operation.

Self time of a span is its duration minus the time its child spans cover;
the run is single-threaded, so children never overlap.
"""
from __future__ import annotations

import json
import logging
import os
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import antoine
from antoine import cli, dynamics, exports, geom3, linking, necklace

MODULES = (antoine, cli, dynamics, exports, geom3, linking, necklace)

ROOT_SPAN = "bench.op"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# count callbacks: (tracer, args, kwargs, result) -> None

def _count_child_distances(tr, args, kwargs, result):
    rows, m = result.shape
    tr.add("necklace.child_distances.point_steps", rows)
    tr.add("necklace.child_distances.pair_evals", rows * m)
    if tr.chunk_steps is not None:
        tr.chunk_steps.append(rows)


def _count_word_map(tr, args, kwargs, result):
    tr.add("necklace.word_map.digits", len(_arg(args, kwargs, 1, "word")))


def _count_gauss(tr, args, kwargs, result):
    q = _arg(args, kwargs, 2, "quad_n", 256)
    tr.add("linking.gauss_linking.quad_points", q * q)


def _count_try_projection(tr, args, kwargs, result):
    a, b = args[0], args[1]
    tr.add("linking.polygonal_linking.tries", 1)
    tr.add("linking.polygonal_linking.segment_pairs", a.vertices.shape[0] * b.vertices.shape[0])


def _count_classify_points(tr, args, kwargs, result):
    tr.add("dynamics.classify_points.points", result[0].shape[0])


def _count_rows(key):
    def count(tr, args, kwargs, result):
        tr.add(key, result.shape[0])
    return count


def _count_bytes(key, pos, name, sidecar=False):
    def count(tr, args, kwargs, result):
        path = _arg(args, kwargs, pos, name)
        size = os.path.getsize(path)
        if sidecar:
            size += os.path.getsize(f"{path}.json")
        tr.add(key, size)
    return count


# (span name, owner, attribute, count callback). For a module owner the
# wrapper replaces every global in the package that holds the same function,
# so callers that imported the name directly are traced too.
SPANS = (
    ("cli.main", cli, "main", None),
    ("geom3.circle_circle_distance", geom3, "circle_circle_distance", None),
    ("geom3.point_circle_distance", geom3, "point_circle_distance", None),
    ("geom3.Rotation3.post_init", geom3.Rotation3, "__post_init__", None),
    ("geom3.Similarity3.compose", geom3.Similarity3, "compose", None),
    ("geom3.Similarity3.fixed_point", geom3.Similarity3, "fixed_point", None),
    ("necklace.validate_necklace", necklace, "validate_necklace", None),
    ("necklace.child_distances", necklace, "child_distances", _count_child_distances),
    ("necklace.word_map", necklace, "word_map", _count_word_map),
    ("necklace.torus_at", necklace, "torus_at", None),
    ("linking.link_matrix", linking, "link_matrix", None),
    ("linking.polygonal_linking", linking, "polygonal_linking", None),
    ("linking.gauss_linking", linking, "gauss_linking", _count_gauss),
    ("dynamics.classify_points", dynamics, "classify_points", _count_classify_points),
    ("dynamics.chaos_game_sample", dynamics, "chaos_game_sample", _count_rows("dynamics.chaos_game_sample.points")),
    ("dynamics.enumerate_periodic", dynamics, "enumerate_periodic", None),
    ("dynamics.density_report", dynamics, "density_report", None),
    ("dynamics.periodic_point_cloud", dynamics, "periodic_point_cloud",
     _count_rows("dynamics.periodic_point_cloud.points")),
    ("exports.classify_volume", exports, "classify_volume", None),
    ("exports.voxel_centers", exports, "voxel_centers", None),
    ("exports.write_volume", exports, "write_volume", _count_bytes("exports.write_volume.bytes", 1, "path", True)),
    ("exports.mesh_stage", exports, "mesh_stage", None),
    ("exports.write_ply", exports, "write_ply", _count_bytes("exports.write_ply.bytes", 1, "path")),
    ("exports.export_points", exports, "export_points", _count_bytes("exports.export_points.bytes", 2, "path")),
)

# Counted but not spanned, so their time stays in the caller's self time:
# one projection attempt of polygonal_linking, one classifier chunk.
HOOKS = (
    (linking, "_try_projection", _count_try_projection),
    (dynamics, "_classify_chunk", None),
)


class _RetryCounter(logging.Handler):
    """Counts the projection-retry DEBUG records of antoine.linking."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("projection retry"):
            self.tracer.add("linking.polygonal_linking.retries", 1)


class Tracer:
    """Records spans and counts while an operation is open; inert otherwise."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN] + [name for name, *_ in SPANS]
        self.span_idx = array("q")
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("H")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.counts: list[defaultdict] = []
        self.steps: list[list[list[int]]] = []  # per op, per classifier chunk: active rows per step
        self.chunk_steps: list[int] | None = None
        self.op = -1
        self._next = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._logger_state = None

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value) -> None:
        if self.op >= 0:
            self.counts[self.op][key] += value

    def _record(self, idx, nid, parent, t0, t1):
        self.span_idx.append(idx)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_t0.append(t0)
        self.span_t1.append(t1)

    def _span_wrapper(self, nid, fn, count):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer._next
            tracer._next = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(idx, nid, parent, t0, t1)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_wrapper(self, fn, count):
        tracer = self
        is_chunk = fn is dynamics._classify_chunk

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            if is_chunk:
                tracer.chunk_steps = []
                tracer.steps[tracer.op].append(tracer.chunk_steps)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_chunk:
                    tracer.chunk_steps = None
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, name) for mod in MODULES for name, value in vars(mod).items() if value is original
            ]
        for mod, name in targets:
            self._restore.append((mod, name, getattr(mod, name)))
            setattr(mod, name, wrapper)

    def install(self) -> None:
        for nid, (_, owner, attr, count) in enumerate(SPANS, start=1):
            self._replace(owner, attr, self._span_wrapper(nid, getattr(owner, attr), count))
        for owner, attr, count in HOOKS:
            self._replace(owner, attr, self._hook_wrapper(getattr(owner, attr), count))
        log = logging.getLogger("antoine.linking")
        handler = _RetryCounter(self)
        self._logger_state = (log, log.level, log.propagate, handler)
        log.setLevel(logging.DEBUG)
        log.propagate = False
        log.addHandler(handler)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()
        if self._logger_state is not None:
            log, level, propagate, handler = self._logger_state
            log.removeHandler(handler)
            log.setLevel(level)
            log.propagate = propagate
            self._logger_state = None

    def run_op(self, fn):
        """Run fn() as one traced operation under a root span; return (result, wall seconds)."""
        self.op = len(self.counts)
        self.counts.append(defaultdict(float))
        self.steps.append([])
        idx = self._next
        self._next += 1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._record(idx, 0, -1, t0, t1)
            self.op = -1
        return result, t1 - t0

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        idx = np.frombuffer(self.span_idx, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        t0 = np.frombuffer(self.span_t0)
        t1 = np.frombuffer(self.span_t1)
        dur = t1 - t0
        covered = np.zeros(self._next)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "idx": idx,
            "name": np.frombuffer(self.span_name, dtype=np.uint16),
            "parent": parent,
            "op": np.frombuffer(self.span_op, dtype=np.uint16),
            "t0": t0,
            "t1": t1,
            "dur": dur,
            "self": dur - covered[idx],
        }

    def per_op(self) -> list[dict[str, float]]:
        """Per-layer values of each traced operation."""
        a = self.arrays()
        out = []
        for op, counts in enumerate(self.counts):
            in_op = a["op"] == op
            row: dict[str, float] = {}
            root = in_op & (a["name"] == 0)
            wall = float(a["dur"][root].sum())
            for nid, name in enumerate(self.names[1:], start=1):
                sel = in_op & (a["name"] == nid)
                row[f"{name}.calls"] = int(sel.sum())
                row[f"{name}.s"] = float(a["dur"][sel].sum())
                row[f"{name}.self_s"] = float(a["self"][sel].sum())
            row.update(counts)
            row["trace.wall_s"] = wall
            steps = self.steps[op]
            row["dynamics.classify_points.max_step"] = max((len(s) - 1 for s in steps if s), default=0)
            out.append(row)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Spans as .npz arrays plus a JSON sidecar with names, counts and classifier steps."""
        a = self.arrays()
        np.savez_compressed(f"{path}.npz", **{k: a[k] for k in ("idx", "name", "parent", "op", "t0", "t1")})
        sidecar = dict(meta)
        sidecar["span_names"] = self.names
        sidecar["counts_per_op"] = [dict(c) for c in self.counts]
        sidecar["classify_active_per_step"] = self.steps
        Path(f"{path}.json").write_text(json.dumps(sidecar, indent=1) + "\n")
