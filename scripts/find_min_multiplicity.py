"""Scan even multiplicities and report which ones validate.

Each candidate goes through antoine.necklace.scan_multiplicities: its
geometric checks are validated, and a candidate whose geometric checks pass
is then fully validated. The certified children_disjoint and
children_contained margins are printed, and the first m whose validation
(including the linking pattern) passes is the package's recommended default.
Exits 0 when some m in the range passes, 1 otherwise.

Usage: python scripts/find_min_multiplicity.py [--start 10] [--stop 60] [--json out.json]
"""
import argparse
import json
import time

from antoine.necklace import scan_multiplicities


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--start", type=int, default=10)
    ap.add_argument("--stop", type=int, default=60)
    ap.add_argument("--json", type=str, default=None)
    args = ap.parse_args()

    rows = []
    winner = None
    t0 = time.perf_counter()
    for m, report in scan_multiplicities(range(args.start, args.stop + 1, 2)):
        margins = {c.name: c.margin for c in report.checks}
        row = {
            "m": m,
            "disjoint_margin": margins["children_disjoint"],
            "contained_margin": margins["children_contained"],
            "full_validation": report.passed,
            "validation_seconds": round(time.perf_counter() - t0, 2),
        }
        if report.passed and winner is None:
            winner = m
        rows.append(row)
        print(
            f"m={m:3d}  disjoint={row['disjoint_margin']:+.5f}  contained={row['contained_margin']:+.5f}  "
            f"full={'PASS' if row['full_validation'] else 'fail'}  ({row['validation_seconds']:.2f} s)"
        )
        t0 = time.perf_counter()

    print(f"\nfirst fully validating even multiplicity: {winner}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rows": rows, "minimal_valid_m": winner}, fh, indent=2)
    return 0 if winner is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
