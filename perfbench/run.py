#!/usr/bin/env python3
"""The repository benchmark: three sweep workloads timed through tools/sweep.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds tools/sweep and
perfbench_layers (Release) into $CARGO_TARGET_DIR, or .bench_build when it is
unset; later runs rebuild incrementally. Every timed run of a workload is a
child process of its own, so its exit status, report bytes and peak memory
belong to it alone.

--trace 0 prints the end-to-end metrics, measured on untraced child runs.
--trace 1 prints the per-layer metrics of a traced in-process run
(perfbench_layers trace), plus untraced child runs for the ratios that need
an untraced wall time. The last stdout line is the result object; the line
before it (prefixed "perfbench-meta ") holds the run metadata. See
perfbench/README.md for the metric definitions and the correctness gate.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
PINNED_SEED = 1
SHORTEST_HOURS = "1.001"  # just above the sweep's default 1 h warm-up cut
CHILD_TIMEOUT_S = 120
TRACE_FILES = ["int-steady-ref.trace", "ext-steady-rel.trace",
               "int-stress-rel.trace", "ext-stress-ref.trace"]

# Simulated hours per scenario (trace_replay: per exported trace), sized so
# one timed child runs for about half a second on a 4-core x86-64 host: on a
# shared host, many short children give a steadier median than a few long
# ones.
HOURS = {
    "full": {"sweep_grid": "72", "fleet_16": "24", "trace_replay": "72"},
    "smoke": {"sweep_grid": "2", "fleet_16": "2", "trace_replay": "2"},
}


def grid_flags(workload, hours):
    """The tools/sweep flags of a workload, without the seed and outputs."""
    if workload == "sweep_grid":
        return ["--servers", "loc,int,ext", "--envs", "lab,machine",
                "--polls", "16,64", "--schedules", "steady,stress",
                "--estimators", "robust,swntp,naive", "--threads", "2",
                "--duration-hours", hours]
    if workload == "fleet_16":
        return ["--fleet", "fleet(n=16,shared_congestion=1)",
                "--servers", "int,ext", "--envs", "machine", "--polls", "16",
                "--estimators", "robust", "--threads", "1",
                "--duration-hours", hours]
    flags = ["--servers", "int", "--envs", "machine", "--polls", "16",
             "--estimators", "offline,offline(split=shifts)",
             "--exact-reduction", "--threads", "1",
             "--duration-hours", SHORTEST_HOURS]
    for name in TRACE_FILES:
        flags += ["--trace-in", "traces/" + name]
    return flags


def log(message):
    print(message, file=sys.stderr, flush=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- Build ---------------------------------------------------------------------

def build(build_root):
    cmake_dir = build_root / "cmake"
    env = dict(os.environ, TMPDIR=str(build_root / "tmp"))
    (build_root / "tmp").mkdir(parents=True, exist_ok=True)
    cache = cmake_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        cache.unlink()  # configured from another checkout path
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "sweep",
                  "perfbench_layers", "-j", "2"])
    with open(build_root / "build.log", "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = (build_root / "build.log").read_text(errors="replace")
                log(tail[-3000:])
                raise SystemExit(f"build failed: {' '.join(step)}")
    return cmake_dir / "tscclock" / "tools" / "sweep", cmake_dir / "perfbench_layers"


# -- Child runs ------------------------------------------------------------------

def run_child(argv, cwd, stdout_path):
    """Run one child to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def parse_cells(lines):
    """Rows of sweep::serialize_result (the dump's cell lines, unprefixed)."""
    rows = []
    for line in lines:
        f = line.split("\t")
        rows.append({
            "scenario": int(f[0]), "name": f[1],
            "family": f[5].split("(")[0], "failed": f[6] == "1",
            "exchanges": int(f[10]), "lost": int(f[11]),
            "evaluated": int(f[12]), "packets": int(f[38]),
            "rate_accepted": int(f[39]), "sanity_triggers": int(f[40]),
            "level_shifts": int(f[47]) + int(f[48]),
        })
    return rows


def dump_cell_lines(dump_text):
    return [line[5:] for line in dump_text.splitlines() if line.startswith("cell\t")]


def counts_of(rows, workload):
    """Counts that must repeat exactly on one seed. `exchanges` and `lost`
    cover the scored input: every scenario once, or on trace_replay every
    imported trace record once, however many lanes score it."""
    scored = {}
    for row in rows:
        if workload == "trace_replay" and not row["name"].startswith("trace:"):
            continue
        scored.setdefault(row["scenario"], row)
    robust = [r for r in rows if r["family"] == "robust"]
    return {
        "scenarios": len({r["scenario"] for r in rows}),
        "cells": len(rows),
        "exchanges": sum(r["exchanges"] for r in scored.values()),
        "lost": sum(r["lost"] for r in scored.values()),
        "evaluated": sum(r["evaluated"] for r in rows),
        "robust_packets": sum(r["packets"] for r in robust),
        "robust_rate_accepted": sum(r["rate_accepted"] for r in robust),
        "robust_sanity_triggers": sum(r["sanity_triggers"] for r in robust),
        "robust_level_shifts": sum(r["level_shifts"] for r in robust),
    }


class Gate:
    """Collects failed cells and benchmark-level failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, message):
        if message not in self.problems:
            self.problems.append(message)
            log("perfbench: " + message)

    def cells(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def timed_sweep(sweep, flags, seed, work, gate):
    """One untraced sweep child; returns its record (None if it produced no
    result dump)."""
    argv = [str(sweep)] + flags + ["--seed", str(seed), "--dump-results", "dump.txt"]
    dump = work / "dump.txt"
    if dump.exists():
        dump.unlink()
    wall, code, rss = run_child(argv, work, work / "report.txt")
    report = (work / "report.txt").read_bytes()
    failed_lines = [line for line in report.decode(errors="replace").splitlines()
                    if line.startswith("FAILED ")]
    if code != 0 or not dump.exists():
        # A FAILED cell exits 1 with an empty stderr; its reason is in the
        # report. Every cell of the run counts as failed, so the dump (when
        # written) only tells how many cells that is.
        detail = "; ".join(failed_lines[:3]) or (work / "stderr.txt").read_text(errors="replace")[-500:]
        gate.problem(f"sweep exited {code}: {detail}")
        cells = len(dump_cell_lines(dump.read_text())) if dump.exists() else None
        return {"wall": wall, "code": code, "rss": rss, "rows": None, "cells": cells}
    dump_text = dump.read_text()
    rows = parse_cells(dump_cell_lines(dump_text))
    failed_rows = len(failed_lines)
    return {"wall": wall, "code": code, "rss": rss, "rows": rows,
            "failed_rows": failed_rows, "report": report,
            "dump_text": dump_text,
            "digest": {"report": sha256(report), "dump": sha256(dump_text.encode())}}


# -- Metrics ----------------------------------------------------------------------

def span(spans, pass_name, name, field):
    return spans.get(pass_name, {}).get(name, {}).get(field, 0)


def per_item(spans, pass_name, name, field="total_ns"):
    items = span(spans, pass_name, name, "items")
    return span(spans, pass_name, name, field) / items if items else 0.0


def layer_metrics(traced, counts, untraced_wall):
    """Per-layer metrics from the traced run's span aggregates. A layer the
    workload does not run reads 0."""
    s = traced["spans"]
    walls = traced["wall_ns"]
    gen_pass = next((p for p in ("G", "B", "W") if span(s, p, "sim.generate", "items")), "B")
    cell_b = span(s, "B", "bench.cell", "total_ns")
    robust_b = span(s, "B", "core.robust", "total_ns")
    fleet_items = span(s, "B", "harness.fleet_run", "items")
    read_s = span(s, "B", "trace.read", "total_ns") / 1e9
    values = {
        "sim.generate_ns_per_exchange": per_item(s, gen_pass, "sim.generate"),
        "sim.lost_frac": counts["lost"] / counts["exchanges"] if counts["exchanges"] else 0.0,
        "core.robust.update_ns_p50": span(s, "B", "core.robust", "p50_ns"),
        "core.robust.update_ns_p99": span(s, "B", "core.robust", "p99_ns"),
        "core.robust.busy_frac": robust_b / cell_b if cell_b else 0.0,
        "core.robust.rate_accept_frac": (counts["robust_rate_accepted"] / counts["robust_packets"]
                                         if counts["robust_packets"] else 0.0),
        "core.robust.sanity_triggers": counts["robust_sanity_triggers"],
        "core.robust.level_shifts": counts["robust_level_shifts"],
        "core.offline.ns_per_sample": per_item(s, "B", "core.offline"),
        "baseline.swntp.update_ns_p50": span(s, "B", "baseline.swntp", "p50_ns"),
        "baseline.naive.update_ns_p50": span(s, "B", "baseline.naive", "p50_ns"),
        "harness.drive_self_ns_per_exchange": per_item(s, "B", "harness.process_batch", "self_ns"),
        "harness.fleet_demux_self_ns_per_exchange": (
            (span(s, "B", "harness.fleet_run", "self_ns") - span(s, "G", "sim.generate", "total_ns"))
            / fleet_items if fleet_items else 0.0),
        "harness.replay_self_ns_per_sample": per_item(s, "B", "harness.replay_run", "self_ns"),
        "harness.reduce.streaming_ns_per_sample": per_item(s, "B", "harness.reduce.streaming"),
        "harness.reduce.exact_ns_per_sample": per_item(s, "B", "harness.reduce.exact"),
        "harness.reduce.fleet_pool_ns_per_sample": per_item(s, "B", "harness.reduce.fleet_pool"),
        "harness.reduce.finalize_ms": (span(s, "B", "harness.reduce.finalize", "total_ns") / 1e6
                                       / max(1, span(s, "B", "harness.reduce.finalize", "count"))),
        "harness.reduce.retained_mib": traced["exact_retained_max_bytes"] / 2**20,
        "trace.read_ns_per_record": per_item(s, "B", "trace.read"),
        "trace.read_mib_per_s": traced["trace_read_bytes"] / 2**20 / read_s if read_s else 0.0,
        "trace.write_ns_per_record": per_item(s, "W", "trace.write"),
        "sweep.cell_s_p50": span(s, "A", "sweep.cell", "p50_ns") / 1e9,
        "sweep.cell_s_max": span(s, "A", "sweep.cell", "max_ns") / 1e9,
        "sweep.pool_busy_frac": (span(s, "A", "sweep.cell", "total_ns") / 1e9
                                 / (traced["threads"] * untraced_wall) if untraced_wall else 0.0),
        "sweep.report_ms": span(s, "A", "sweep.report", "total_ns") / 1e6,
        "trace_overhead_frac": walls["B"] / walls["A"] - 1.0,
    }
    # Shares of the traced pass's wall time, for the workload notes.
    wall_b = walls["B"] * traced["threads"]
    shares = {name: span(s, "B", name, "total_ns") / wall_b
              for name in ("sim.generate", "core.robust", "baseline.swntp",
                           "baseline.naive", "core.offline", "trace.read",
                           "harness.reduce.streaming", "harness.reduce.exact",
                           "harness.reduce.fleet_pool", "harness.reduce.finalize")
              if span(s, "B", name, "count")}
    for name in ("harness.process_batch", "harness.fleet_run", "harness.replay_run"):
        if span(s, "B", name, "count"):
            shares[name + ".self"] = span(s, "B", name, "self_ns") / wall_b
    if span(s, "G", "sim.generate", "count"):
        shares["sim.generate(G pass)"] = span(s, "G", "sim.generate", "total_ns") / wall_b
    return values, shares


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- Metadata -----------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        paths += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def metadata(layers, args, size, counts, trace_bytes):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    info = json.loads(subprocess.run([str(layers), "info"], capture_output=True,
                                     text=True, check=True).stdout)
    return {
        "workload": args.workload, "seed": args.seed, "size": size,
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "compiler": info["compiler"], "build_type": info["build_type"],
        "commit": commit, "source_sha256": source_digest(),
        "input": {"scenarios": counts["scenarios"], "cells": counts["cells"],
                  "exchanges": counts["exchanges"], "trace_bytes": trace_bytes},
    }


# -- Main ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HOURS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny simulated durations (perfbench/smoke.py)")
    parser.add_argument("--pinned", type=Path, default=BENCH_DIR / "pinned.json",
                        help="pinned digests and counts to check against")
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digests and counts as pinned")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools/sweep_main.cpp"):
        if not (ROOT / needed).exists():
            raise SystemExit(f"perfbench: {needed} is missing; run from a full source checkout")
    if args.repin and args.seed != PINNED_SEED:
        raise SystemExit(f"perfbench: --repin needs --seed {PINNED_SEED}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = (ROOT / target).resolve()
    build_root.mkdir(parents=True, exist_ok=True)
    sweep, layers = build(build_root)
    os.environ["TMPDIR"] = str(build_root / "tmp")

    size = "smoke" if args.smoke else "full"
    hours = HOURS[size][args.workload]
    work = build_root / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    flags = grid_flags(args.workload, hours)
    gate = Gate()

    # Set-up before the timed command. One untimed pass warms the page cache
    # and the CPU; the timed repeats are then spread across the run, one
    # before every few timed children, so that set-up and the timed command
    # are measured under the same host conditions.
    if args.workload == "trace_replay":
        export = [str(layers), "export", "--seed", str(args.seed), "--hours", hours,
                  "--dir", "traces"]
        setup_reps = 2 if args.smoke else 6

        def set_up():
            wall, code, _ = run_child(export, work, work / "export.txt")
            if code != 0:
                raise SystemExit("perfbench: trace export failed: "
                                 + (work / "stderr.txt").read_text(errors="replace"))
            files = [(work / "traces" / name).read_bytes() for name in TRACE_FILES]
            return wall, sha256(b"".join(sha256(f).encode() for f in files)), sum(map(len, files))
    else:
        setup_flags = flags[:flags.index("--duration-hours")] + ["--duration-hours", SHORTEST_HOURS]
        setup_reps = 5 if args.smoke else 31

        def set_up():
            record = timed_sweep(sweep, setup_flags, args.seed, work, gate)
            if record["rows"] is None or record["failed_rows"]:
                gate.problem("set-up sweep failed")
            return record["wall"], None, 0

    _, inputs_digest, trace_bytes = set_up()
    setup_times = []

    def timed_set_up():
        wall, digest, _ = set_up()
        if digest != inputs_digest:
            gate.problem("exported traces differ between set-ups of one seed")
        setup_times.append(wall)

    # Timed children: the same command, until the time is spent.
    budget = args.seconds / 2 if args.trace else args.seconds
    least = 1 if args.smoke else 3
    records = []
    start = time.perf_counter()
    while len(records) < least or time.perf_counter() - start < budget:
        while len(setup_times) < setup_reps * min(1.0, (time.perf_counter() - start) / budget):
            timed_set_up()
        records.append(timed_sweep(sweep, flags, args.seed, work, gate))
    while len(setup_times) < setup_reps:
        timed_set_up()
    ok = [r for r in records if r["rows"] is not None]

    pinned_all = json.loads(args.pinned.read_text()) if args.pinned.exists() else {}
    pinned = pinned_all.get(size, {}).get(args.workload)
    counts = counts_of(ok[0]["rows"], args.workload) if ok else None
    cells = counts["cells"] if counts else 1
    check_pinned = args.seed == PINNED_SEED and pinned is not None and not args.repin
    for r in records:
        if r["rows"] is None:
            gate.cells(r["cells"] or cells, r["cells"] or cells)
            continue
        failed = max(r["failed_rows"], sum(1 for row in r["rows"] if row["failed"]))
        if r["digest"] != ok[0]["digest"]:
            gate.problem("report or dump bytes differ between runs of one seed")
            failed = cells
        if check_pinned and r["digest"] != {"report": pinned["report"], "dump": pinned["dump"]}:
            gate.problem("report or dump digest differs from the pinned one")
            failed = cells
        gate.cells(len(r["rows"]), failed)
        if counts_of(r["rows"], args.workload) != counts:
            gate.problem("counts differ between runs of one seed")
    if check_pinned:
        if counts and counts != pinned["counts"]:
            gate.problem("counts differ from the pinned counts")
        if inputs_digest != pinned["inputs"]:
            gate.problem("exported traces differ from the pinned digest")

    # Exact repeat across runs: the last run on this seed left its counts.
    if counts:
        command = sha256(" ".join(flags + [hours]).encode())[:16]
        record_path = build_root / "counts" / f"{args.workload}-{command}-seed{args.seed}.json"
        record_path.parent.mkdir(exist_ok=True)
        now = {"counts": counts, "inputs": inputs_digest, "trace_bytes": trace_bytes}
        if record_path.exists() and json.loads(record_path.read_text()) != now:
            gate.problem(f"counts differ from the previous run on seed {args.seed}")
        record_path.write_text(json.dumps(now, sort_keys=True))

    if args.repin and ok and not gate.problems:
        pinned_all.setdefault(size, {})[args.workload] = {
            "report": ok[0]["digest"]["report"], "dump": ok[0]["digest"]["dump"],
            "inputs": inputs_digest, "counts": counts}
        args.pinned.write_text(json.dumps(pinned_all, indent=2, sort_keys=True) + "\n")
        log(f"perfbench: pinned {size}/{args.workload} at seed {args.seed}")

    e2e_units, layer_units = load_benchmark()
    walls = [r["wall"] for r in ok]
    meta = metadata(layers, args, size, counts or counts_of([], args.workload), trace_bytes)
    meta["child_wall_s"] = walls
    meta["setup_wall_s"] = setup_times
    meta["failed_frac"] = gate.failed / gate.attempted if gate.attempted else 1.0

    if args.trace == 0:
        exchanges = counts["exchanges"] if counts else 0
        values = {
            "exchanges_per_s": statistics.median(exchanges / r["wall"] for r in ok) if ok else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": statistics.median(r["rss"] for r in ok) if ok else 0.0,
            "cells_ok_frac": 1.0 - gate.failed / gate.attempted if gate.attempted else 0.0,
        }
        units = e2e_units
    else:
        traced_dir = work / "traced"
        traced_dir.mkdir(exist_ok=True)
        argv = [str(layers), "trace", "--spans-out", str(traced_dir / "spans.bin"),
                "--report-out", str(traced_dir / "report.txt"),
                "--cells-out", str(traced_dir / "cells.txt")]
        if args.workload == "trace_replay":
            argv += ["--export-hours", hours, "--export-dir", str(traced_dir / "traces")]
        argv += ["--"] + flags + ["--seed", str(args.seed)]
        _, code, _ = run_child(argv, work, traced_dir / "trace.json")
        traced_text = (traced_dir / "trace.json").read_text()
        if not traced_text.strip():
            raise SystemExit("perfbench: traced run failed: "
                             + (work / "stderr.txt").read_text(errors="replace"))
        traced = json.loads(traced_text)
        traced_rows = parse_cells((traced_dir / "cells.txt").read_text().splitlines())
        gate.cells(len(traced_rows), sum(1 for row in traced_rows if row["failed"]))
        if code != 0 or not traced["consistent"]:
            gate.problem("traced drive results differ from the sweep runner's")
        if ok and not ok[0]["report"].decode().endswith((traced_dir / "report.txt").read_text()):
            gate.problem("traced run's report differs from the timed command's")
        if ok and dump_cell_lines(ok[0]["dump_text"]) != (traced_dir / "cells.txt").read_text().splitlines():
            gate.problem("traced run's cells differ from the timed command's dump")
        values, shares = layer_metrics(traced, counts_of(traced_rows, args.workload),
                                       statistics.median(walls) if walls else 0.0)
        units = layer_units
        meta["layer_shares_of_traced_wall"] = shares
        meta["traced_wall_ms"] = {k: v / 1e6 for k, v in traced["wall_ns"].items()}

    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"perfbench: metric table and BENCHMARK.json disagree on {sorted(missing)}")
    meta["problems"] = gate.problems
    result = {
        "correct": not gate.problems and gate.failed == 0,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results_dir = build_root / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2))
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
