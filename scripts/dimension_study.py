"""Empirical box-counting dimension of the invariant set versus theory.

Sweeps sample size and address depth, printing the fitted slope against
log m / log(m/4). Useful for picking sane defaults for the dimension CLI.

Usage: python scripts/dimension_study.py [--m 40] [--seed 0]
"""
import argparse

import numpy as np

from antoine.dynamics import box_dimension_estimate, similarity_dimension
from antoine.necklace import build_necklace, stage_summary


def stage_points(n, count, depth, rng):
    digits = rng.integers(1, n.multiplicity + 1, size=(count, depth))
    pts = np.tile(n.base_torus.core.point_at(0.0), (count, 1))
    for level in range(depth - 1, -1, -1):
        col = digits[:, level]
        for j in np.unique(col):
            sel = col == j
            pts[sel] = n.child_maps[j - 1].apply(pts[sel])
    return pts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n = build_necklace(args.m)
    target = similarity_dimension(args.m)
    print(f"m={args.m}: similarity dimension {target:.4f}")
    print(f"{'count':>8} {'depth':>6} {'k-range':>8} {'slope':>8} {'rel err':>8}")

    rng = np.random.default_rng(args.seed)
    for count in (10_000, 50_000, 100_000):
        for depth in (4, 6, 8):
            for k_hi in (2, 3):
                scales = [stage_summary(n, k).max_diameter for k in range(1, k_hi + 1)]
                pts = stage_points(n, count, depth, rng)
                slope = box_dimension_estimate(pts, scales)
                rel = abs(slope - target) / target
                print(f"{count:>8} {depth:>6}   1..{k_hi:<4} {slope:8.4f} {rel:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
