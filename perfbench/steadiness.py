"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline/seed-untraced.json
    python3 perfbench/steadiness.py --runs 1 --trace 1 --out perfbench/baseline/seed-traced.json

Each run is `run.py --workload <w> --seed <s>` in its own process, started
through run.run_each, which echoes its output. Seeds go
up from --first-seed and the workloads alternate within each seed, so drift
of the machine spreads over all of them. For every workload and metric the summary holds the
values, median and quartiles (statistics.quantiles, n=4), and the quartile
distance as a share of the median next to the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=run.WORKLOAD_NAMES,
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = run.benchmark_spec()
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name, (result, record) in run.run_each(seed, spec["run_seconds"], bool(args.trace), args.workloads).items():
            runs[name].append({"seed": seed, "result": result, "record": record})

    summary = {}
    for name, rs in runs.items():
        metrics = {}
        for key in rs[0]["result"]["metrics"]:
            entry = summarise([r["result"]["metrics"][key]["value"] for r in rs])
            if key in bounds:
                entry["bound"] = bounds[key]
            metrics[key] = entry
        summary[name] = {
            "runs": len(rs),
            "attempted": sum(r["result"]["attempted"] for r in rs),
            "failed": sum(r["result"]["failed"] for r in rs),
            "metrics": metrics,
        }
        for key, entry in metrics.items():
            if "spread" in entry and key in bounds:
                print(f"{name:<10} {key:<14} median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g} "
                      f"q3 {entry['q3']:<12.6g} spread {entry['spread']:.4f} bound {entry.get('bound')}")
    doc = {
        "machine": runs[args.workloads[0]][0]["record"]["machine"],
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "summary": summary,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
