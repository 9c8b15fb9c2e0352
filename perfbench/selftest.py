"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must accept a correct output and reject one corrupted copy of it:
a flipped link entry (certify), a wrong itinerary digit (escape), a periodic
point moved off its fixed point (periodic) and one changed .vol byte
(artifacts). The certify output is the verify report recorded at the seed
commit in reference/verify_m40.json; the other workloads run their operation
once, about 25 s in all. Exits 1 if any check misjudges.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_package()
    import workloads as w

    seed = 7
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    cases = []
    try:
        good = json.loads((w.REFERENCE / "verify_m40.json").read_text())
        bad = copy.deepcopy(good)
        bad["link_matrix"]["entries"][1] = 0  # child pair (1, 2) is Hopf-linked
        cases.append(("certify", "flipped link entry", w.check_certify(0, good), w.check_certify(0, bad)))

        escape = w.Escape(work)
        status, itinerary, s = escape.op(seed)
        wrong = itinerary.copy()
        wrong[123, 4] = wrong[123, 4] % w.M + 1
        cases.append(("escape", "wrong itinerary digit",
                      w.check_escape(status, itinerary, s), w.check_escape(status, wrong, s)))

        periodic = w.Periodic(work)
        code, path = periodic.op(seed)
        good = json.loads(path.read_text())
        bad = copy.deepcopy(good)
        bad["points"][len(bad["points"]) // 2]["point"][0] += 1e-9
        cases.append(("periodic", "point moved off its fixed point",
                      periodic.check((code, path)), w.check_periodic(bad, periodic.n)))

        artifacts = w.Artifacts(work)
        out = artifacts.op(seed)
        accepted = artifacts.check(out)
        vol = work / "escape.vol"
        data = bytearray(vol.read_bytes())
        data[len(data) // 3] ^= 0x01
        vol.write_bytes(bytes(data))
        cases.append(("artifacts", "one changed .vol byte", accepted, artifacts.check(out)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for name, corruption, on_good, on_bad in cases:
        good_ok, bad_ok = not on_good, bool(on_bad)
        ok &= good_ok and bad_ok
        print(f"{name:<10} correct output {'accepted' if good_ok else 'REJECTED: ' + '; '.join(on_good)}; "
              f"{corruption} {'rejected: ' + on_bad[0] if bad_ok else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
