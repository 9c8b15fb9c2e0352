"""Benchmark runner for the antoine package.

From the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own fresh process
    python3 perfbench/selftest.py                    # the output checks reject wrong outputs

One run is one fresh process and one closed-loop client: after an untimed
warm-up operation it repeats the workload's operation, each with its own seed
derived from --seed, until the timed operations add up to about --seconds (at
least one; the loop stops at the count of operations whose total is nearest).
Each output is checked outside the timed window. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The lines before it give every metric with its unit and
sample count, the failure rate and the machine.

--trace 1 installs span wrappers around each module's public functions (see
spans.py) and traces operations until --seconds are used; each is followed by
the same input untraced, for the overhead ratio. Spans are written to
perfbench/out/.

The package is imported from src/ of the checkout holding this file; with no
src/ the run fails before printing a result. BLAS threads are pinned to
BLAS_THREADS before numpy loads.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify", "escape", "periodic", "artifacts")
SETUP_SAMPLES = 16  # half before the operations, half after them
OP_SEED_STRIDE = 1000  # op i of a run with seed s uses seed s * OP_SEED_STRIDE + i

SETUP_CODE = (
    "import time; t = time.perf_counter(); import antoine; antoine.build_necklace(40); "
    "print(time.perf_counter() - t, antoine.__file__)"
)


def import_package():
    """Import antoine from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import antoine
    except ImportError as exc:
        sys.exit(f"error: cannot import antoine from {SRC}: {exc}")
    if Path(antoine.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: antoine was imported from {antoine.__file__}, not from {SRC}")
    return antoine


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# machine record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Sample:
    seconds: float
    items: float
    problems: list[str] = field(default_factory=list)
    rss_mb: float = 0.0  # process peak when the operation ended, before its check ran


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def attempt(wl, seed: int, run=_timed) -> Sample:
    """One operation: timed by `run`, then checked outside the timed window.

    Garbage left by earlier operations and checks is collected first, so each
    operation starts from the same heap, as a fresh CLI call would.
    """
    gc.collect()
    t0 = perf_counter()
    try:
        out, seconds = run(lambda: wl.op(seed))
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return Sample(perf_counter() - t0, 0.0, [f"{type(exc).__name__}: {exc}"], peak_rss_mb())
    rss = peak_rss_mb()
    try:
        problems = wl.check(out)
        items = 0.0 if problems else float(wl.items(out))
    except Exception as exc:
        problems, items = [f"check raised {type(exc).__name__}: {exc}"], 0.0
    return Sample(seconds, items, problems, rss)


def another(samples: list[Sample], seconds: float) -> bool:
    """Whether one more operation brings the timed total nearer to `seconds`.

    Operations of 5-50 s would overshoot a run by up to one operation if the
    loop went on until the total reached `seconds`.
    """
    if not samples:
        return True
    total = sum(s.seconds for s in samples)
    return total + total / len(samples) / 2 < seconds


def closed_loop(wl, seed: int, seconds: float, run=_timed, samples: tuple[Sample, ...] = ()) -> list[Sample]:
    """Extend `samples` with operations while another() says so."""
    samples = list(samples)
    while another(samples, seconds):
        samples.append(attempt(wl, seed * OP_SEED_STRIDE + len(samples), run))
    return samples


def setup_seconds() -> float:
    """Fresh-interpreter time of `import antoine` plus build_necklace(40)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    value, location = proc.stdout.split()
    if Path(location).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"set-up interpreter imported antoine from {location}")
    return float(value)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(wl, seed: int, seconds: float) -> tuple[list[Sample], dict]:
    # set-up samples on both sides of the operations, so that their median
    # spans the run rather than the few seconds they take themselves
    setups = [setup_seconds() for _ in range(SETUP_SAMPLES // 2)]
    wl.warmup()
    first = attempt(wl, seed * OP_SEED_STRIDE)
    samples = closed_loop(wl, seed, seconds, samples=(first,))
    setups += [setup_seconds() for _ in range(SETUP_SAMPLES - len(setups))]
    ok = [s for s in samples if not s.problems] or samples
    walls = [s.seconds for s in ok]
    metrics = {
        "wall_s": (statistics.median(walls), len(walls)),
        "items_per_s": (statistics.median(s.items / s.seconds for s in ok), len(ok)),
        "setup_s": (statistics.median(setups), len(setups)),
        # the peak through the warm-up and the first operation is what one
        # CLI call costs;
        # repeats in the same process only add allocator fragmentation, and
        # how many repeats fit in a run depends on the machine's speed
        "peak_rss_mb": (first.rss_mb, 1),
    }
    return samples, metrics


def per_layer(wl, seed: int, seconds: float, trace_path: Path, meta: dict) -> tuple[list[Sample], dict]:
    from spans import Tracer

    wl.warmup()
    tracer = Tracer()
    traced: list[Sample] = []
    untraced: list[Sample] = []
    # each traced operation is followed by the same input untraced, so the
    # overhead ratio compares neighbours and slow drift of the machine cancels
    while another(traced, seconds):
        op_seed = seed * OP_SEED_STRIDE + len(traced)
        tracer.install()
        try:
            traced.append(attempt(wl, op_seed, run=tracer.run_op))
        finally:
            tracer.uninstall()
        untraced.append(attempt(wl, op_seed))
    rows = tracer.per_op()
    tracer.write(trace_path, meta)

    metrics = {}
    for key in {k for r in rows for k in r}:
        metrics[key] = (statistics.median(r.get(key, 0) for r in rows), len(rows))

    def value(key):
        return metrics.get(key, (0, len(rows)))[0]

    def ratio(num, den):
        return (value(num) / value(den) if value(den) else 0.0, len(rows))

    metrics["necklace.child_distances.useful_ratio"] = ratio(
        "necklace.child_distances.point_steps", "necklace.child_distances.pair_evals")
    metrics["linking.polygonal_linking.tries_per_call"] = ratio(
        "linking.polygonal_linking.tries", "linking.polygonal_linking.calls")
    overhead = statistics.median(t.seconds / u.seconds for t, u in zip(traced, untraced))
    metrics["trace.overhead_ratio"] = (overhead, len(traced))
    return traced + untraced, metrics


def stem(name: str, seed: int, trace: bool) -> str:
    return f"{name}-seed{seed}-trace{int(trace)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_package()
    from workloads import WORKLOADS

    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    meta = {"workload": name, "trace": int(trace), "seconds": seconds, "machine": machine_record(seed)}
    OUT.mkdir(exist_ok=True)
    base = stem(name, seed, trace)
    work = Path(tempfile.mkdtemp(prefix=f"{base}-", dir=OUT))
    try:
        wl = WORKLOADS[name](work)
        if trace:
            samples, metrics = per_layer(wl, seed, seconds, OUT / f"{base}.spans", meta)
        else:
            samples, metrics = end_to_end(wl, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(s.problems) for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (0, 0))[0], "unit": m["unit"]} for m in wanted},
    }
    record = dict(meta)
    record["items_unit"] = wl.items_unit
    record["fail_rate"] = failed / len(samples)
    record["metrics"] = {k: {"value": v, "samples": n} for k, (v, n) in sorted(metrics.items())}
    record["op_seconds"] = [s.seconds for s in samples]
    record["problems"] = [p for s in samples for p in s.problems][:20]
    tail = None if trace else tail_percentile([s.seconds for s in samples])
    if tail is not None:
        record["wall_s_tail"] = {"percentile": tail[0], "value": tail[1]}
    (OUT / f"{base}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine {json.dumps(meta['machine'])}")
    print(f"workload {name}  seed {seed}  trace {int(trace)}  attempted {len(samples)}  failed {failed}"
          f"  items_per_s counts {wl.items_unit}")
    for m in wanted:
        v, n = metrics.get(m["name"], (0, 0))
        print(f"  {m['name']:<48} {v:>16.6g} {m['unit']:<8} n={n}")
    print(f"  {'fail_rate':<48} {record['fail_rate']:>16.6g} {'ratio':<8} n={len(samples)}")
    if tail is not None:
        print(f"  {'wall_s p' + str(tail[0]):<48} {tail[1]:>16.6g} {'s':<8} n={len(samples)}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0


def run_each(seed: int, seconds: float, trace: bool, names=WORKLOAD_NAMES) -> dict[str, tuple[dict, dict]]:
    """Run each workload in its own fresh process, echoing its output.

    Returns the result line and the record file of every workload by name,
    with the run's own wall time added to the record; exits with the child's
    code if one fails.
    """
    runs = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        process_s = perf_counter() - t0
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.stdout.flush()
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"{stem(name, seed, trace)}.json").read_text())
        record["process_s"] = process_s  # the whole run, set-up and checks included
        runs[name] = (result, record)
    return runs


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, then one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (result, _) in run_each(seed, seconds, trace).items():
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
