"""Command line interface.

Subcommands: build, verify, classify, periodic, dimension, export, map.
Every subcommand writes deterministic artifacts for identical flags and
seed. Exit codes: 0 success, 1 validation or construction failure, 2 usage
error (argparse's own convention), 3 internal error (any other exception; its
traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dynamics, exports
from .errors import AntoineError, InvalidMultiplicity
from .necklace import build_necklace, stage_summary, validate_necklace


def _even_int(text: str) -> int:
    value = int(text)
    if value % 2 != 0 or value < 10:
        raise argparse.ArgumentTypeError(f"multiplicity must be an even integer >= 10, got {value}")
    return value


def _at_least(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}{f' and <= {hi}' if hi else ''}, got {value}")
        return value

    return parse


def _floats(text: str, count: int | None = None) -> list[float]:
    parts = [float(x) for x in text.split(",")]
    if count is not None and len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers, got {len(parts)}")
    if not all(math.isfinite(x) for x in parts):
        raise argparse.ArgumentTypeError(f"numbers must be finite, got {text}")
    return parts


def _bbox(text: str):
    v = _floats(text, 6)
    lo, hi = (v[0], v[1], v[2]), (v[3], v[4], v[5])
    try:  # at the largest grid, whose voxel centres are the first to overflow
        exports._grid_frame((exports.MAX_GRID,) * 3, lo, hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
    return lo, hi


def _scales(text: str) -> list[float]:
    v = _floats(text)
    try:
        dynamics._check_box_sizes(v, dynamics._CHAOS_GAME_SPAN)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return v


def _grid(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3 or not all(2 <= d <= exports.MAX_GRID for d in parts):
        raise argparse.ArgumentTypeError(f"grid must be one or three comma-separated integers in 2..{exports.MAX_GRID}")
    return tuple(parts)


def _out_path(text: str) -> str:
    """An output file path whose directory exists, checked before any work starts."""
    path = Path(text)
    if path.is_dir() or text.endswith("/"):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(path.parent)!r} does not exist")
    return text


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a flag that takes a list of numbers to a value starting with '-'
    (`--point -0.5,0,0` -> `--point=-0.5,0,0`), which argparse would read as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--point", "--bbox", "--scales") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_build(args) -> int:
    n = build_necklace(args.m)
    payload = {
        "multiplicity": n.multiplicity,
        "is_even_square": n.is_even_square,
        "parent_tube": n.parent_tube,
        "child_radius": n.contraction,
        "child_tube": n.child_tube,
        "stages": [asdict(stage_summary(n, k)) for k in range(5)],
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    n = build_necklace(args.m)
    report = validate_necklace(n, clearance_grid=args.grid_n, poly_n=args.poly_n, quad_n=args.quad_n)
    _emit({"validation": report.to_json_dict(), "link_matrix": report.link_matrix.to_json_dict()}, args.out)
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    n = build_necklace(args.m)
    exports.export_volume(n, args.grid, args.bbox, args.budget, args.out)
    return 0


def _cmd_periodic(args) -> int:
    if args.sample_k < args.p_max:
        raise argparse.ArgumentTypeError(f"--sample-k ({args.sample_k}) must be >= --p-max ({args.p_max})")
    n = build_necklace(args.m)
    points = dynamics.enumerate_periodic(n, args.p_max, cap=args.cap, seed=args.seed)
    density = {
        str(p): dynamics.density_report(n, p, args.sample_k, seed=args.seed)
        for p in range(1, args.p_max + 1)
    }
    payload = {
        "multiplicity": n.multiplicity,
        "p_max": args.p_max,
        "orbit_count": len(points),
        "density": density,
        "points": [
            {
                "word": list(pp.word),
                "point": [float(x) for x in pp.point],
                "period": pp.period,
                "multiplier": pp.multiplier,
            }
            for pp in points
        ],
    }
    _emit(payload, args.out)
    return 0


def _cmd_dimension(args) -> int:
    n = build_necklace(args.m)
    sample = dynamics.chaos_game_sample(n, args.count, args.depth, seed=args.seed)
    if args.scales is not None:
        scales = args.scales
    else:
        # ladder of stage diameters, where the set scales self-similarly
        scales = [stage_summary(n, k).max_diameter for k in (1, 2, 3)]
    slope = dynamics.box_dimension_estimate(sample, scales)
    payload = {
        "multiplicity": n.multiplicity,
        "count": args.count,
        "depth": args.depth,
        "seed": args.seed,
        "scales": scales,
        "box_dimension": slope,
        "similarity_dimension": dynamics.similarity_dimension(n.multiplicity),
    }
    _emit(payload, args.out)
    return 0


def _cmd_export(args) -> int:
    n = build_necklace(args.m)
    if args.what == "mesh":
        if args.format not in ("obj", "ply"):
            raise argparse.ArgumentTypeError("mesh export supports formats obj and ply")
        exports.export_mesh(n, args.stage, args.nu, args.nv, args.format, args.out)
    else:
        if args.format not in ("xyz", "csv"):
            raise argparse.ArgumentTypeError("point export supports formats xyz and csv")
        samples = dynamics.chaos_game_sample(n, args.count, args.depth, seed=args.seed)
        exports.export_points(samples, args.format, args.out)
    return 0


def _cmd_map(args) -> int:
    n = build_necklace(args.m)
    d = args.degree_root
    model = dynamics.ExteriorModel(d) if d else dynamics.ExteriorModel.for_multiplicity(args.m)
    try:
        record = dynamics.orbit(n, model, np.array(args.point), max_iter=args.max_iter)
    except ValueError as exc:  # a point too far out for the model's norms
        raise argparse.ArgumentTypeError(f"--point: {exc}") from None
    _emit(record.to_json_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="antoine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--m", type=_even_int, required=True, help="even multiplicity >= 10")
        p.add_argument("--out", type=_out_path, default=None, help="output path (default: stdout for JSON)")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed recorded in artifacts")

    p = sub.add_parser("build", help="construct the necklace and print its constants")
    common(p, seed=False)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run every construction check and the link matrix")
    common(p, seed=False)
    p.add_argument("--grid-n", type=_at_least(8), default=512, help="clearance certificate grid")
    p.add_argument("--poly-n", type=_at_least(64), default=512, help="polygon vertices per circle")
    p.add_argument("--quad-n", type=_at_least(16), default=64, help="Gauss quadrature points per loop")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="escape-depth volume grid (.vol + JSON sidecar)")
    common(p, seed=False)
    p.add_argument("--grid", type=_grid, default=(64, 64, 64), help="voxels per axis (n or nx,ny,nz)")
    p.add_argument("--bbox", type=_bbox, default=exports.DEFAULT_BBOX, help="x0,y0,z0,x1,y1,z1")
    p.add_argument("--budget", type=_at_least(1, dynamics.MAX_BUDGET), default=dynamics.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_classify, out="escape.vol")

    p = sub.add_parser("periodic", help="periodic orbit representatives and density distances")
    common(p)
    p.add_argument("--p-max", type=_at_least(1), default=2)
    p.add_argument("--cap", type=_at_least(1), default=20000, help="word sample cap per period")
    p.add_argument("--sample-k", type=_at_least(1), default=12, help="reference stage for density (>= --p-max)")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("dimension", help="box-counting dimension of an attractor sample")
    common(p)
    p.add_argument("--count", type=_at_least(1000), default=100000)
    p.add_argument("--depth", type=_at_least(8), default=12)
    p.add_argument("--scales", type=_scales, default=None, help="comma-separated box sizes")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("export", help="write stage meshes or attractor point clouds")
    common(p)
    p.add_argument("--what", choices=("mesh", "points"), default="mesh")
    p.add_argument("--stage", type=_at_least(0), default=1)
    p.add_argument("--nu", type=_at_least(8), default=48)
    p.add_argument("--nv", type=_at_least(8), default=24)
    p.add_argument("--count", type=_at_least(1), default=10000)
    p.add_argument("--depth", type=_at_least(8), default=20)
    p.add_argument("--format", choices=("obj", "ply", "xyz", "csv"), default="obj")
    p.set_defaults(func=_cmd_export, out="stage.obj")

    p = sub.add_parser("map", help="orbit record of one point under the dynamics")
    common(p, seed=False)
    p.add_argument("--point", type=lambda s: _floats(s, 3), required=True, help="x,y,z")
    p.add_argument("--max-iter", type=_at_least(1, dynamics.MAX_BUDGET), default=dynamics.DEFAULT_BUDGET)
    p.add_argument("--degree-root", type=_at_least(2, dynamics.MAX_DEGREE_ROOT), help="exterior model degree root")
    p.set_defaults(func=_cmd_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a check that spans several arguments
        parser.error(str(exc))
    except InvalidMultiplicity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AntoineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a fault in the program, not a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
