#!/usr/bin/env python3
"""ccq build-and-serve benchmark: build, run one workload, report.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (the ccq
library from source plus the perfbench binary) in $CARGO_TARGET_DIR or
.bench_build, runs the binary, and prints a human-readable log followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(read from the binary's trace by trace_reader.py).  Workloads and the
layer -> end-to-end map: perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import trace_reader  # noqa: E402

WORKLOADS = ("build-general", "build-exact", "serve-dense", "serve-spanner")

# name -> unit; the same names, units and order as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "snapshot_bytes": "B",
    "peak_rss_mb": "MiB",
    "clique_rounds": "rounds",
    "stretch_max": "ratio",
    "stretch_mean": "ratio",
    "open_s": "s",
    "query_p50_us": "us",
    "query_capacity_qps": "qps",
    "path_consistent_ratio": "ratio",
}

PER_LAYER = {"graph.generate_ms": "ms"}
for _phase in trace_reader.LEDGER_PHASES:
    PER_LAYER[f"core.{_phase}.wall_ms"] = "ms"
PER_LAYER["core.algorithm.self_ms"] = "ms"
PER_LAYER["clique.total_words"] = "words"
for _phase in trace_reader.LEDGER_PHASES:
    PER_LAYER[f"clique.{_phase}.rounds"] = "rounds"
    PER_LAYER[f"clique.{_phase}.words"] = "words"
PER_LAYER.update({
    "matrix.minplus_ms": "ms",
    "matrix.products_i64": "count",
    "matrix.products_i32": "count",
    "matrix.sparse_skip_products": "count",
    "matrix.gcells_per_s": "Gcell/s",
    "core.routing.build_ms": "ms",
    "serve.snapshot.write_ms": "ms",
    "serve.snapshot.open_ms": "ms",
    "serve.snapshot.bytes_per_cell": "B",
    "serve.engine.distance_us_p50": "us",
    "serve.engine.path_us_p50": "us",
    "serve.engine.knearest_us_p50": "us",
    "serve.engine.path_cache_hit_ratio": "ratio",
})
for _stage in trace_reader.FLIGHT_STAGES:
    PER_LAYER[f"net.{_stage}_us_p50"] = "us"
    PER_LAYER[f"net.{_stage}_us_p99"] = "us"
PER_LAYER.update({
    "net.backpressure_pauses": "count",
    "net.bytes_in": "B",
    "net.bytes_out": "B",
    "net.edge_us_p50": "us",
    "loadgen.late_us_p99": "us",
    "trace_overhead_pct": "%",
    "path_mismatch_ratio": "ratio",
})

BINARY_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the binary (both no-ops when up to date); returns its path."""
    source = pathlib.Path(__file__).resolve().parent
    subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"{args.workload}.result.json"
    trace_path = work / f"{args.workload}.trace.json"
    for stale in (result_path, trace_path):
        stale.unlink(missing_ok=True)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work), "--out", str(result_path)]
    if args.trace:
        command += ["--trace-out", str(trace_path)]
    subprocess.run(command, check=True, timeout=BINARY_TIMEOUT_S, stdout=sys.stderr)

    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if args.trace:
        values = dict(result["layer"])
        values.update(trace_reader.read(trace_path, result))
        trace_path.unlink()
        wanted = PER_LAYER
    else:
        values = result["e2e"]
        wanted = END_TO_END
    result_path.unlink()

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    # A failed check can cut a phase short (a lost connection ends the
    # serve phase); the run then still reports, with 0 for what it lost.
    missing = [name for name in wanted if name not in values]
    if missing and failed == 0:
        raise SystemExit(f"perfbench: the binary reported no value for {missing}")
    for name in missing:
        print(f"{args.workload} {name}: not measured, because a check failed")
        values[name] = 0.0

    facts = result["facts"]
    if result["warning"]:
        print(result["warning"])
    print("host: nproc={nproc} build={build_type} minplus_isa={minplus_isa} "
          "seed={seed} held_out_seed={held_out_seed}".format(**facts))
    print("samples: " + ", ".join(f"{k}={v:g}" for k, v in sorted(result["samples"].items()))
          + "; highest supported query percentile: p99 (1000-query windows, 10 beyond)")
    for name, samples in sorted(result["raw"].items()):
        print(f"repetitions: {name} = " + " ".join(f"{v:.6g}" for v in samples))
    for name, unit in wanted.items():
        if name not in missing:
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    # Measured and shown, but not listed in BENCHMARK.json (WORKLOADS.md says why).
    for name in sorted(set(values) - set(wanted)):
        print(f"{args.workload} {name} = {values[name]:.6g} (not gated)")
    for note in result["failures"]:
        print(f"FAILED: {note}")

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
