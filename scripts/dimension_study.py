"""Empirical box-counting dimension of the invariant set versus theory.

Sweeps sample size and address depth, printing the fitted slope against
log m / log(m/4). The points come from dynamics.chaos_game_sample, as for
`antoine dimension`, and the depths are values that `dimension --depth`
accepts. Useful for picking sane defaults for the dimension CLI.

Usage: python scripts/dimension_study.py [--m 40] [--seed 0]
"""
import argparse

from antoine.dynamics import box_dimension_estimate, chaos_game_sample, similarity_dimension
from antoine.necklace import build_necklace, stage_summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n = build_necklace(args.m)
    target = similarity_dimension(args.m)
    print(f"m={args.m}: similarity dimension {target:.4f}")
    print(f"{'count':>8} {'depth':>6} {'k-range':>8} {'slope':>8} {'rel err':>8}")

    for count in (10_000, 50_000, 100_000):
        for depth in (8, 10, 12):
            pts = chaos_game_sample(n, count, depth, seed=args.seed)
            for k_hi in (2, 3):
                scales = [stage_summary(n, k).max_diameter for k in range(1, k_hi + 1)]
                slope = box_dimension_estimate(pts, scales)
                rel = abs(slope - target) / target
                print(f"{count:>8} {depth:>6}   1..{k_hi:<4} {slope:8.4f} {rel:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
