#!/usr/bin/env python3
"""Smoke test of the benchmark, on tiny simulated durations.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs perfbench/run.py --smoke and
checks that
  * at the pinned seed, --trace 0 prints every end-to-end metric and
    --trace 1 every per-layer metric, each with its unit, with no failed
    cell;
  * a deliberately wrong pinned digest counts every timed cell as failed,
    which shows the correctness gate is live;
  * an unpinned seed runs with no failed cell.
Exits 0 when every check holds, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_SEED = 1
UNPINNED_SEED = 7


def run(workload, seed, trace, pinned=None):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    if pinned is not None:
        argv += ["--pinned", str(pinned)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"smoke: {' '.join(argv[1:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    build_root = (ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")).resolve()
    wrong = build_root / "smoke" / "pinned-wrong.json"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    corrupted = copy.deepcopy(pinned)
    for entry in corrupted["smoke"].values():
        entry["report"] = "0" * 64
    wrong.write_text(json.dumps(corrupted))

    failures = []

    def check(condition, message):
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, PINNED_SEED, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{workload} --trace {trace}: every metric printed with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} --trace {trace}: pinned seed, no failed cell")
        result = run(workload, PINNED_SEED, 0, pinned=wrong)
        check(not result["correct"] and result["failed"] == result["attempted"]
              and result["metrics"]["cells_ok_frac"]["value"] == 0.0,
              f"{workload}: a wrong pinned digest fails every cell")
        result = run(workload, UNPINNED_SEED, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: unpinned seed {UNPINNED_SEED}, no failed cell")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
