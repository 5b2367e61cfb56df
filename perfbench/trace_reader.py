"""Traced-run reader: turns a perfbench trace into per-layer metrics.

Input is the chrome://tracing JSON the library's obs::Tracer writes plus
the benchmark binary's result file.  The trace holds

* the benchmark's own X spans around public calls (bench/generate,
  bench/build, bench/algorithm, bench/routing, bench/write, bench/spanner,
  bench/open),
* the RoundLedger's B/E phase spans ("general" with the paper's stages
  nested under it),
* the engine's min_plus_product X spans.

The file holds one trace per stretch the tracer was on ({"segments":
[...]}); timestamps are comparable only within a segment.  Every span of
one build shares the build's thread, so a build's layers are the spans of
its segment on its thread inside its bench/build interval.  Per-build
numbers are reduced to the median over the traced builds.  Self time is a
span's duration minus the part of it that child spans cover.

Flight records ([decode, queue, execute, encode, flush] microseconds per
served request) come from the result file and become net.<stage>_us_p50/p99.
"""

import json
import math
import statistics

LEDGER_PHASES = ("outer-k-nearest", "outer-skeleton", "skeleton-sim", "extend")
FLIGHT_STAGES = ("decode", "queue", "execute", "encode", "flush")


def quantile(values, q):
    """Nearest-rank quantile, matching the C++ binary; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return float(ordered[min(len(ordered) - 1, max(rank, 1) - 1)])


def median_or_zero(values):
    return float(statistics.median(values)) if values else 0.0


def covered(children, start, end):
    """Length of [start, end) covered by the union of child intervals."""
    spans = sorted((max(s, start), min(e, end)) for s, e in children if e > start and s < end)
    total = 0
    cursor = start
    for s, e in spans:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def intervals(events, segment):
    """(name, cat, (segment, tid), start_us, end_us, depth) for X spans and B/E pairs."""
    out = []
    stacks = {}
    # The tracer appends each thread's B/E events in program order, so
    # recorded order pairs them; X events carry their own duration.
    for ev in events:
        ph = ev["ph"]
        lane = (segment, ev.get("tid", 0))
        if ph == "X":
            out.append((ev["name"], ev.get("cat", ""), lane, ev["ts"], ev["ts"] + ev["dur"], -1))
        elif ph == "B":
            stacks.setdefault(lane, []).append(ev)
        elif ph == "E" and stacks.get(lane):
            begin = stacks[lane].pop()
            out.append((begin["name"], begin.get("cat", ""), lane, begin["ts"], ev["ts"],
                        len(stacks[lane])))
    return out


BUILD_KEYS = tuple(f"core.{p}.wall_ms" for p in LEDGER_PHASES) + (
    "matrix.minplus_ms", "core.routing.build_ms", "serve.snapshot.write_ms",
    "spanner.build_ms", "core.algorithm.self_ms")


def build_layers(spans, build):
    """Layer times (ms) of one bench/build span."""
    _, _, lane, start, end, _ = build
    inside = [s for s in spans
              if s[2] == lane and s[3] >= start and s[4] <= end and s is not build]

    def total_ms(pred):
        return sum(s[4] - s[3] for s in inside if pred(s)) / 1000.0

    out = {}
    # Ledger phases nest under the algorithm's root phase (depth 0).
    for phase in LEDGER_PHASES:
        out[f"core.{phase}.wall_ms"] = total_ms(
            lambda s, p=phase: s[1] == "ledger" and s[0] == p and s[5] == 1)
    out["matrix.minplus_ms"] = total_ms(lambda s: s[0] == "min_plus_product")
    out["core.routing.build_ms"] = total_ms(lambda s: s[0] == "bench/routing")
    out["serve.snapshot.write_ms"] = total_ms(lambda s: s[0] == "bench/write")
    out["spanner.build_ms"] = total_ms(lambda s: s[0] == "bench/spanner")
    # Algorithm time no paper stage or dense product accounts for.
    self_ms = 0.0
    for alg in (s for s in inside if s[0] == "bench/algorithm"):
        children = [(s[3], s[4]) for s in inside
                    if s[3] >= alg[3] and s[4] <= alg[4]
                    and ((s[1] == "ledger" and s[5] == 1) or s[0] == "min_plus_product")]
        self_ms += ((alg[4] - alg[3]) - covered(children, alg[3], alg[4])) / 1000.0
    out["core.algorithm.self_ms"] = self_ms
    return out


def read(trace_path, result):
    """Per-layer metrics from the trace file and the binary's result dict."""
    with open(trace_path, encoding="utf-8") as handle:
        segments = json.load(handle)["segments"]
    spans = [span for index, segment in enumerate(segments)
             for span in intervals(segment["traceEvents"], index)]
    layers = {}

    per_build = [build_layers(spans, s) for s in spans if s[0] == "bench/build"]
    for name in BUILD_KEYS:
        layers[name] = median_or_zero([b[name] for b in per_build])

    layers["graph.generate_ms"] = median_or_zero(
        [(s[4] - s[3]) / 1000.0 for s in spans if s[0] == "bench/generate"])
    layers["serve.snapshot.open_ms"] = median_or_zero(
        [(s[4] - s[3]) / 1000.0 for s in spans if s[0] == "bench/open"])

    n = result["n"]
    raw = result["layer"]
    products = raw.get("matrix.products_i64", 0.0) + raw.get("matrix.products_i32", 0.0)
    minplus_s = layers.get("matrix.minplus_ms", 0.0) / 1000.0
    layers["matrix.gcells_per_s"] = (float(n) ** 3 * products / minplus_s / 1e9
                                     if products > 0 and minplus_s > 0 else 0.0)

    flight = result.get("flight", [])
    for index, stage in enumerate(FLIGHT_STAGES):
        values = [record[index] for record in flight]
        layers[f"net.{stage}_us_p50"] = quantile(values, 0.50)
        layers[f"net.{stage}_us_p99"] = quantile(values, 0.99)
    return layers
