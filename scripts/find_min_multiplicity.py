"""Scan even multiplicities and report which ones validate.

For each candidate the certified clearance and containment margins are
printed; the first m whose full validation (including the linking pattern)
passes is the package's recommended default.

Usage: python scripts/find_min_multiplicity.py [--start 10] [--stop 60] [--json out.json]
"""
import argparse
import json
import time

from antoine.necklace import binding_margins, build_necklace, validate_necklace


def probe(m: int, clearance_grid: int) -> dict:
    margins = binding_margins(build_necklace(m), clearance_grid)
    return {
        "m": m,
        **{f"{name}_clearance": value for name, value in margins.items()},
        "geometry_ok": min(margins.values()) > 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--start", type=int, default=10)
    ap.add_argument("--stop", type=int, default=60)
    ap.add_argument("--grid-n", type=int, default=512)
    ap.add_argument("--json", type=str, default=None)
    args = ap.parse_args()

    rows = []
    winner = None
    for m in range(args.start, args.stop + 1, 2):
        row = probe(m, args.grid_n)
        if row["geometry_ok"] and winner is None:
            t0 = time.perf_counter()
            report = validate_necklace(build_necklace(m), clearance_grid=args.grid_n)
            row["full_validation"] = report.passed
            row["validation_seconds"] = round(time.perf_counter() - t0, 1)
            if report.passed:
                winner = m
        rows.append(row)
        print(
            f"m={m:3d}  adj={row['adjacent_clearance']:+.5f}  wrap={row['wrap_clearance']:+.5f}  "
            f"skip={row['skip_clearance']:+.5f}  contained={row['contained_clearance']:+.5f}  "
            f"geometry={'ok' if row['geometry_ok'] else 'fail'}"
            + (f"  full={'PASS' if row.get('full_validation') else 'fail'}" if "full_validation" in row else "")
        )

    print(f"\nfirst fully validating even multiplicity: {winner}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rows": rows, "minimal_valid_m": winner}, fh, indent=2)
    return 0 if winner is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
