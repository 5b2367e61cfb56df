// perfbench — one build-and-serve benchmark for ccq.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --out <result.json> [--trace-out <trace.json>]
//             [--connections <c>] [--capacity-depth <d>]
//
// Drives the library only through its public API (generators, APSP
// algorithms, routing, snapshot codecs, DistanceSource, QueryEngine,
// Server over loopback, engine counters, RoundLedger, obs::Tracer and
// the flight op), times every layer from outside around those calls,
// and checks every answer against an independent Dijkstra.  The result
// file holds the end-to-end metrics (--trace 0) or the benchmark-side
// per-layer numbers plus the raw trace (--trace 1); perfbench/run.py
// turns it into the one-line report.  Workloads: perfbench/WORKLOADS.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccq/apsp.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/matrix/kernels/kernels.hpp"
#include "ccq/spanner/baswana_sen.hpp"

#include "loadgen.hpp"
#include "support.hpp"

namespace {

using namespace ccq;
using perfbench::Clock;
using perfbench::LoadQuery;
using perfbench::seconds_between;
using perfbench::Span;

// ---- configuration ---------------------------------------------------------

enum class Kind { build_general, build_exact, serve_dense, serve_spanner };

struct ServePlan {
    std::size_t latency_chunk = 0;  ///< queries per closed loop of the latency run
    std::size_t capacity_chunk = 0; ///< queries per closed loop of the saturation run
    double zipf_s = 0.0;            ///< source skew (0 = uniform sources)
};

struct Workload {
    const char* name;
    Kind kind;
    GraphFamily family;
    int n;
    ServePlan serve;
};

constexpr int kEngineThreads = 4;          ///< EngineConfig.threads of the timed builds
constexpr int kSpannerK = 2;               ///< Baswana-Sen k: stretch 2k-1 = 3
constexpr std::size_t kWindow = 1000;      ///< queries per latency window (p99 has 10 beyond)
constexpr std::size_t kRateWindow = 5000;  ///< replies per capacity window
// The gated query metrics are interquartile means over these windows.
// Hypervisor steal on a shared host comes and goes within a run and slows
// only the windows it falls in, which the trimmed quarters drop.  The
// loops of a run also fall into a fast and a slow mode (about 25% apart),
// and a median jumps between them with the mix; a mean of the middle half
// moves with the mix only in proportion.
constexpr double kSetupSeconds = 1.5;       ///< least set-up time of a build workload
constexpr double kBuildShare = 0.7;         ///< of --seconds for the builds of a build workload
// Of the serve time, for the latency run; the saturation run takes the
// rest, because capacity moved more between runs of the same code.
constexpr double kLatencyShare = 0.35;
constexpr std::uint64_t kHeldOutOffset = 1000003;

const std::vector<Workload>& workloads()
{
    static const std::vector<Workload> all = {
        {"build-general", Kind::build_general, GraphFamily::erdos_renyi_sparse, 2048,
         {10000, 50000, 0.0}},
        {"build-exact", Kind::build_exact, GraphFamily::geometric, 2048,
         {10000, 50000, 0.0}},
        {"serve-dense", Kind::serve_dense, GraphFamily::erdos_renyi_sparse, 2048,
         {10000, 50000, 0.0}},
        {"serve-spanner", Kind::serve_spanner, GraphFamily::erdos_renyi_dense, 2048,
         {100, 200, 1.1}},
    };
    return all;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string out;
    std::string trace_out;
    int connections = 4;     ///< loopback connections of the generator
    int capacity_depth = 32; ///< requests in flight per connection, saturation run
};

Options parse_options(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") o.workload = value;
        else if (flag == "--seed") o.seed = std::stoull(value);
        else if (flag == "--seconds") o.seconds = std::stod(value);
        else if (flag == "--trace") o.trace = value == "1";
        else if (flag == "--work-dir") o.work_dir = value;
        else if (flag == "--out") o.out = value;
        else if (flag == "--trace-out") o.trace_out = value;
        else if (flag == "--connections") o.connections = std::stoi(value);
        else if (flag == "--capacity-depth") o.capacity_depth = std::stoi(value);
        else throw std::runtime_error("unknown flag " + flag);
    }
    if (o.workload.empty() || o.work_dir.empty() || o.out.empty())
        throw std::runtime_error("--workload, --work-dir and --out are required");
    if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    if (o.connections < 1 || o.capacity_depth < 1)
        throw std::runtime_error("--connections and --capacity-depth must be positive");
    return o;
}

// ---- correctness gate ------------------------------------------------------

/// Counts checked operations and the ones that broke the contract.
class Gate {
public:
    void check(bool ok, const std::string& what)
    {
        ++attempted_;
        if (ok) return;
        ++failed_;
        if (notes_.size() < 16) notes_.push_back(what);
    }
    void fail_many(std::uint64_t count, const std::string& what)
    {
        attempted_ += count;
        failed_ += count;
        if (notes_.size() < 16) notes_.push_back(what);
    }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] const std::vector<std::string>& notes() const noexcept { return notes_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

/// Everything a run reports: end-to-end metrics, benchmark-side layer
/// numbers, sample counts, and notes for the human-readable log.
struct Report {
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    std::map<std::string, double> samples;
    std::map<std::string, std::string> facts;
    std::map<std::string, std::vector<double>> raw; ///< per-repetition samples
    std::string flight_json = "[]";
};

/// Turns the global tracer on and off for a traced run.  Tracer::enable
/// restarts the trace clock, so each on/off stretch is kept as its own
/// segment with a consistent timeline.
class TraceSession {
public:
    static TraceSession& get()
    {
        static TraceSession session;
        return session;
    }
    void allow(bool wanted) noexcept { wanted_ = wanted; }
    void on()
    {
        if (wanted_ && !obs::Tracer::global().enabled()) obs::Tracer::global().enable();
    }
    void off()
    {
        obs::Tracer& tracer = obs::Tracer::global();
        if (!tracer.enabled()) return;
        tracer.disable();
        segments_.push_back(tracer.render_json());
        tracer.clear();
    }
    /// {"segments": [<chrome trace>, ...]}; ends tracing.
    std::string finish()
    {
        off();
        std::string out = "{\"segments\":[";
        for (std::size_t i = 0; i < segments_.size(); ++i) {
            if (i > 0) out += ',';
            out += segments_[i];
        }
        return out + "]}";
    }

private:
    bool wanted_ = false;
    std::vector<std::string> segments_;
};

// ---- build layers ----------------------------------------------------------

Graph generate(const Workload& w, std::uint64_t seed)
{
    Span span("bench/generate");
    Rng rng(seed);
    return make_family_instance(w.family, w.n, WeightRange{1, 100}, rng);
}

ApspResult run_algorithm(const Graph& g, Kind kind, int threads, std::uint64_t seed)
{
    Span span("bench/algorithm");
    ApspOptions options;
    options.seed = seed;
    options.engine.threads = threads;
    return kind == Kind::build_exact ? exact_apsp_clique(g, options) : apsp_general(g, options);
}

struct DenseBuild {
    ApspResult result;
    double seconds = 0.0; ///< graph in memory -> snapshot file written
    EngineCounters products; ///< engine counter deltas of this build
};

EngineCounters counter_delta(const EngineCounters& before, const EngineCounters& after)
{
    return {after.products_wide - before.products_wide,
            after.products_narrow - before.products_narrow,
            after.products_sparse_skip - before.products_sparse_skip};
}

DenseBuild build_dense(const Graph& g, Kind kind, std::uint64_t seed, const std::string& path,
                       SnapshotFormat format)
{
    Span span("bench/build");
    DenseBuild build;
    const EngineCounters before = engine_counters();
    const auto t0 = Clock::now();
    build.result = run_algorithm(g, kind, kEngineThreads, seed);
    RoutingTables routing;
    {
        Span routing_span("bench/routing");
        routing = build_routing_tables(g);
    }
    {
        Span write_span("bench/write");
        save_snapshot(path, OracleSnapshot::from_result(g, build.result, seed, &routing),
                      format);
    }
    build.seconds = seconds_between(t0, Clock::now());
    build.products = counter_delta(before, engine_counters());
    return build;
}

struct SpannerBuild {
    double seconds = 0.0;
    double claimed_stretch = 1.0;
    RoundLedger ledger; ///< Congested-Clique cost of building + broadcasting it
};

SpannerBuild build_spanner(const Graph& g, std::uint64_t seed, const std::string& path)
{
    Span span("bench/build");
    SpannerBuild build;
    const auto t0 = Clock::now();
    Rng rng(seed);
    SpannerResult spanner;
    {
        Span spanner_span("bench/spanner");
        spanner = baswana_sen_spanner(g, kSpannerK, rng);
    }
    {
        Span write_span("bench/write");
        save_sparse_snapshot(path, SparseSnapshot::from_spanner(g, spanner, "baswana-sen", seed));
    }
    build.seconds = seconds_between(t0, Clock::now());
    build.claimed_stretch = spanner.stretch_bound;
    // The clique cost of this oracle, charged as the library's own
    // spanner stage charges it: a constant-round Baswana-Sen build, then
    // a broadcast of 3 words per spanner edge.
    CliqueTransport transport(g.node_count(), CostModel::standard(), build.ledger);
    transport.charge_constant_round_spanner("build-spanner");
    transport.charge_broadcast_from("broadcast-spanner",
                                    3 * static_cast<std::uint64_t>(spanner.spanner.edge_count()));
    return build;
}

/// Rounds and words of each top-level phase under the algorithm's root
/// ledger phase ("general/outer-k-nearest/..." -> "outer-k-nearest").
void ledger_layers(const RoundLedger& ledger, Report& report)
{
    static const char* const kPhases[] = {"outer-k-nearest", "outer-skeleton", "skeleton-sim",
                                          "extend"};
    for (const char* phase : kPhases) {
        double rounds = 0.0;
        double words = 0.0;
        for (const LedgerEntry& entry : ledger.entries()) {
            const std::size_t slash = entry.phase.find('/');
            if (slash == std::string::npos) continue;
            const std::string rest = entry.phase.substr(slash + 1);
            if (rest != phase && !rest.starts_with(std::string(phase) + "/")) continue;
            if (!entry.parallel_lane) rounds += entry.rounds;
            words += static_cast<double>(entry.words);
        }
        report.layer[std::string("clique.") + phase + ".rounds"] = rounds;
        report.layer[std::string("clique.") + phase + ".words"] = words;
    }
}

/// Times `opens` cold opens of the snapshot file, each through to its
/// first answered query; returns the seconds of each.
std::vector<double> time_open(const std::string& path, int opens, NodeId probe_to)
{
    std::vector<double> samples;
    for (int i = 0; i < opens; ++i) {
        const auto t0 = Clock::now();
        std::shared_ptr<const DistanceSource> source;
        {
            Span span("bench/open");
            DistanceSourceOptions options;
            options.prefer_mmap = true;
            source = open_distance_source(path, options);
        }
        (void)source->distance(0, probe_to);
        samples.push_back(seconds_between(t0, Clock::now()));
    }
    return samples;
}

// ---- serving ---------------------------------------------------------------

// During a load loop every thread of the process (the server's event
// loop and worker, the generator) runs on one CPU.  A loopback round trip
// across CPUs wakes an idle vCPU at each hop, and on a shared host that
// wake-up costs whatever the other guests leave: latency and capacity then
// swung by a third between runs.  On one busy CPU the numbers measure the
// stack's own CPU cost per request.  Successive loops take the CPUs in
// turn, so a run averages over the speed the host gives each of them.

/// The CPUs the process started on (read once, before any pinning).
const cpu_set_t& initial_cpus()
{
    static const cpu_set_t set = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        if (::sched_getaffinity(0, sizeof s, &s) != 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &s);
        return s;
    }();
    return set;
}

/// Restricts every thread of the process to the `loop`-th of its initial
/// CPUs (taken in turn), or returns them all to the initial CPUs when
/// `loop` is empty.  Placement steadies the numbers; it is not a
/// contract, so a refusal is ignored.
void place_threads(std::optional<std::size_t> loop)
{
    cpu_set_t set = initial_cpus();
    if (loop) {
        std::vector<int> cpus;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
        CPU_ZERO(&set);
        CPU_SET(cpus[*loop % cpus.size()], &set);
    }
    std::error_code ignored;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ignored))
        (void)::sched_setaffinity(static_cast<pid_t>(std::stol(task.path().filename())),
                                  sizeof set, &set);
}

/// An in-process epoll Server with one worker (one CPU serves each load
/// loop) on an ephemeral loopback port, run on its own thread; stopped
/// and joined on destruction.
class RunningServer {
public:
    explicit RunningServer(std::shared_ptr<const QueryEngine> engine)
    {
        ServerConfig config;
        config.io = IoBackend::epoll;
        config.workers = 1;
        config.flight_records = 1u << 17;
        server_ = std::make_unique<Server>(std::move(engine), config);
        port_ = server_->listen();
        thread_ = std::thread([this] { server_->run(); });
    }
    ~RunningServer()
    {
        server_->request_stop();
        thread_.join();
    }
    RunningServer(const RunningServer&) = delete;
    RunningServer& operator=(const RunningServer&) = delete;

    [[nodiscard]] int port() const noexcept { return port_; }
    [[nodiscard]] Server& server() noexcept { return *server_; }

private:
    std::unique_ptr<Server> server_;
    int port_ = 0;
    std::thread thread_;
};

/// Query stream: 70% distance, 20% path, 10% k-nearest; targets uniform,
/// sources uniform or Zipf(s) over a seeded permutation of the nodes.
class QueryStream {
public:
    QueryStream(int n, double zipf_s, std::uint64_t seed) : n_(n), rng_(seed)
    {
        if (zipf_s <= 0.0) return;
        rank_to_node_.resize(static_cast<std::size_t>(n));
        std::iota(rank_to_node_.begin(), rank_to_node_.end(), 0);
        std::shuffle(rank_to_node_.begin(), rank_to_node_.end(), rng_);
        cdf_.resize(static_cast<std::size_t>(n));
        double total = 0.0;
        for (int r = 0; r < n; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
            cdf_[static_cast<std::size_t>(r)] = total;
        }
        for (double& c : cdf_) c /= total;
    }

    std::vector<LoadQuery> take(std::size_t count)
    {
        std::uniform_int_distribution<NodeId> node(0, n_ - 1);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::vector<LoadQuery> out(count);
        for (LoadQuery& q : out) {
            const double kind = unit(rng_);
            q.op = kind < 0.7 ? Opcode::distance : kind < 0.9 ? Opcode::path : Opcode::k_nearest;
            if (cdf_.empty()) {
                q.from = node(rng_);
            } else {
                const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), unit(rng_));
                const std::size_t rank = std::min<std::size_t>(
                    static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
                q.from = rank_to_node_[rank];
            }
            q.to = node(rng_);
        }
        return out;
    }

private:
    int n_;
    std::mt19937_64 rng_;
    std::vector<NodeId> rank_to_node_;
    std::vector<double> cdf_;
};

/// Latency over consecutive windows of kWindow queries (a partial last
/// window joins the one before it).
struct Latency {
    double p50 = 0.0; ///< interquartile mean of the windows' p50s
    double p99 = 0.0; ///< median of the windows' p99s
    std::size_t samples = 0;
    std::size_t windows = 0;
};

Latency windowed_latency(const std::vector<double>& latency)
{
    Latency out;
    out.samples = latency.size();
    out.windows = std::max<std::size_t>(1, latency.size() / kWindow);
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (std::size_t w = 0; w < out.windows; ++w) {
        const std::size_t begin = w * kWindow;
        const std::size_t end = w + 1 == out.windows ? latency.size() : begin + kWindow;
        std::vector<double> part(latency.begin() + static_cast<std::ptrdiff_t>(begin),
                                 latency.begin() + static_cast<std::ptrdiff_t>(end));
        p50s.push_back(perfbench::quantile(part, 0.50));
        p99s.push_back(perfbench::quantile(std::move(part), 0.99));
    }
    out.p50 = perfbench::interquartile_mean(std::move(p50s));
    out.p99 = perfbench::median(p99s);
    return out;
}

/// Appends the reply rate, per second, of each consecutive window of
/// kRateWindow replies of one closed loop; its last window (the drain)
/// is left out.  A loop with fewer replies than two windows (the spanner's
/// slow queries) adds its whole rate instead.
void rate_windows(const std::vector<double>& reply_at_s, std::vector<double>& rates)
{
    if (reply_at_s.size() < 2 * kRateWindow) {
        if (!reply_at_s.empty())
            rates.push_back(static_cast<double>(reply_at_s.size()) /
                            std::max(reply_at_s.back(), 1e-9));
        return;
    }
    for (std::size_t begin = 0; begin + 2 * kRateWindow <= reply_at_s.size(); begin += kRateWindow)
        rates.push_back(static_cast<double>(kRateWindow) /
                        std::max(reply_at_s[begin + kRateWindow] - reply_at_s[begin], 1e-9));
}

/// Checks served replies as they come back from each load run: status
/// ok, distances within [exact, stretch * exact], routes that are paths
/// of g between the asked endpoints, sorted k-nearest lists.  Counts the
/// path replies whose route weight equals the reported distance.
class ReplyChecker {
public:
    ReplyChecker(const Graph& g, const perfbench::ExactRows& exact, double stretch,
                 Gate& gate)
        : g_(g), exact_(exact), stretch_(stretch), gate_(gate)
    {
    }

    /// Checks every reply; `count_paths` adds its path replies to the
    /// consistency count (given only for loops whose queries a seed fixes).
    void check(std::span<const LoadQuery> queries, const std::vector<std::string>& replies,
               bool count_paths)
    {
        count_paths_ = count_paths;
        for (std::size_t i = 0; i < queries.size(); ++i) check_one(queries[i], replies[i]);
        checked_ += queries.size();
    }
    [[nodiscard]] double checked() const noexcept { return static_cast<double>(checked_); }
    [[nodiscard]] double path_replies() const noexcept { return path_replies_; }
    [[nodiscard]] double consistent_ratio() const noexcept
    {
        return path_replies_ > 0 ? consistent_ / path_replies_ : 1.0;
    }

private:
    [[nodiscard]] bool within(NodeId from, NodeId to, Weight d) const
    {
        return perfbench::within_stretch(
            exact_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)], d, stretch_);
    }

    void check_one(const LoadQuery& q, const std::string& reply)
    {
        const auto [status, payload] = split_reply(reply);
        if (status != Status::ok) {
            gate_.check(false, std::string("typed error reply: ") + status_name(status));
            return;
        }
        try {
            switch (q.op) {
            case Opcode::distance:
                gate_.check(within(q.from, q.to, decode_distance_reply(payload)),
                            "served distance outside [exact, stretch * exact]");
                break;
            case Opcode::path: {
                const PathResult p = decode_path_reply(payload);
                const Weight weight = perfbench::route_weight(g_, p.nodes);
                const bool shaped = p.reachable && !p.nodes.empty() &&
                                    p.nodes.front() == q.from && p.nodes.back() == q.to &&
                                    weight >= 0;
                gate_.check(shaped && within(q.from, q.to, p.distance),
                            "served path is not a route of g within the stretch contract");
                if (!count_paths_) break;
                path_replies_ += 1.0;
                if (shaped && weight == p.distance) consistent_ += 1.0;
                break;
            }
            default: {
                const std::vector<NearTarget> targets = decode_nearest_reply(payload);
                bool ok = targets.size() <= static_cast<std::size_t>(perfbench::kNearestK);
                for (std::size_t t = 0; t < targets.size() && ok; ++t)
                    ok = targets[t].node != q.from && g_.is_valid_node(targets[t].node) &&
                         (t == 0 || targets[t - 1].distance <= targets[t].distance) &&
                         within(q.from, targets[t].node, targets[t].distance);
                gate_.check(ok, "served k-nearest list breaks the stretch contract");
                break;
            }
            }
        } catch (const std::exception& e) {
            gate_.check(false, std::string("undecodable reply: ") + e.what());
        }
    }

    const Graph& g_;
    const perfbench::ExactRows& exact_;
    double stretch_;
    Gate& gate_;
    std::size_t checked_ = 0;
    bool count_paths_ = false;
    double path_replies_ = 0.0;
    double consistent_ = 0.0;
};

/// Runs `queries` through the server in a closed loop with `depth`
/// requests in flight per connection, then checks the replies; a refused
/// or lost connection fails every query of the run.
bool closed_load(RunningServer& server, const std::vector<LoadQuery>& queries, int connections,
                 int depth, std::size_t trace_every, bool count_paths, ReplyChecker& checker,
                 Gate& gate, perfbench::ClosedLoopResult& out)
{
    try {
        out = perfbench::run_closed_loop(server.port(), queries, connections, depth, trace_every);
    } catch (const std::exception& e) {
        gate.fail_many(queries.size(), std::string("closed loop: ") + e.what());
        return false;
    }
    checker.check(queries, out.replies, count_paths);
    out.replies = {};
    return true;
}

/// What the closed loops of one timed load run add up to.
struct LoadRun {
    std::vector<double> latency_us; ///< every query, in loop order
    std::vector<double> late_us;    ///< every refill
    std::vector<double> rates;      ///< every loop's capacity windows
    std::vector<double> cpu_share;  ///< generator thread CPU / wall, per loop
    std::vector<LoadQuery> first;   ///< the queries of the first loop
    std::size_t loops = 0;
};

/// Runs closed loops of `chunk` fresh queries from `stream` until
/// `seconds` have passed (at least one loop), checking each loop's
/// replies.  Only the first loop's path replies count towards the path
/// consistency ratio: its queries are fixed by the seed, while the number
/// of loops depends on the host.  False when a loop failed.
bool timed_load(RunningServer& server, QueryStream& stream, std::size_t chunk, double seconds,
                int connections, int depth, std::size_t trace_every, ReplyChecker& checker,
                Gate& gate, LoadRun& out)
{
    const auto start = Clock::now();
    do {
        place_threads(out.loops);
        std::vector<LoadQuery> queries = stream.take(chunk);
        perfbench::ClosedLoopResult run;
        if (!closed_load(server, queries, connections, depth, trace_every, out.loops == 0,
                         checker, gate, run))
            return false;
        out.latency_us.insert(out.latency_us.end(), run.latency_us.begin(), run.latency_us.end());
        out.late_us.insert(out.late_us.end(), run.late_us.begin(), run.late_us.end());
        rate_windows(run.reply_at_s, out.rates);
        out.cpu_share.push_back(run.cpu_share);
        if (out.loops++ == 0) out.first = std::move(queries);
    } while (seconds_between(start, Clock::now()) < seconds);
    return true;
}

/// Times each query of `queries` against an in-process QueryEngine over
/// the same source; p50 per op and over the whole mix.
void time_in_process(const std::shared_ptr<const DistanceSource>& source,
                     const std::vector<LoadQuery>& queries, Report& report)
{
    QueryEngine engine(source);
    std::map<Opcode, std::vector<double>> by_op;
    std::vector<double> mix;
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    for (const LoadQuery& q : queries) {
        const auto t0 = Clock::now();
        switch (q.op) {
        case Opcode::distance: (void)engine.distance(q.from, q.to); break;
        case Opcode::path: (void)engine.path(q.from, q.to); break;
        default: (void)engine.nearest_targets(q.from, perfbench::kNearestK); break;
        }
        const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
        by_op[q.op].push_back(us);
        mix.push_back(us);
        if (Clock::now() > deadline) break;
    }
    report.layer["serve.engine.distance_us_p50"] = perfbench::median(by_op[Opcode::distance]);
    report.layer["serve.engine.path_us_p50"] = perfbench::median(by_op[Opcode::path]);
    report.layer["serve.engine.knearest_us_p50"] = perfbench::median(by_op[Opcode::k_nearest]);
    report.layer["serve.engine.mix_us_p50"] = perfbench::median(mix);
}

double counter_from_scrape(const std::string& text, const std::string& name)
{
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
        const bool line_start = pos == 0 || text[pos - 1] == '\n';
        const std::size_t value_at = pos + name.size();
        if (line_start && value_at < text.size() && text[value_at] == ' ')
            return std::stod(text.substr(value_at + 1));
        pos = value_at;
    }
    return 0.0;
}

/// Share of host CPU time that other guests took between two readings.
double steal_pct(const perfbench::CpuTicks& before, const perfbench::CpuTicks& after)
{
    return after.total > before.total
               ? 100.0 * (after.steal - before.steal) / (after.total - before.total)
               : 0.0;
}

/// Flight records of the server's last requests, as [[decode, queue,
/// execute, encode, flush] us, ...] for the trace reader.
void flight_layers(RunningServer& server, Gate& gate, Report& report)
{
    try {
        Client client = Client::connect("127.0.0.1", server.port());
        std::string json = "[";
        std::size_t kept = 0;
        for (const obs::RequestRecord& r : client.flight_records()) {
            const auto op = static_cast<Opcode>(r.opcode);
            if (op != Opcode::distance && op != Opcode::path && op != Opcode::k_nearest)
                continue;
            if (kept++ > 0) json += ',';
            json += "[" + std::to_string(r.decode_us) + "," + std::to_string(r.queue_us) + "," +
                    std::to_string(r.execute_us) + "," + std::to_string(r.encode_us) + "," +
                    std::to_string(r.flush_us) + "]";
        }
        report.flight_json = json + "]";
        gate.check(kept > 0, "flight op returned no request records");
    } catch (const std::exception& e) {
        gate.check(false, std::string("flight op: ") + e.what());
    }
}

/// Serves `source` over loopback for about `seconds`: a warm-up loop,
/// then timed latency loops (one request in flight per connection) and
/// timed saturation loops (opt.capacity_depth in flight per connection),
/// over opt.connections connections and each on its own seeded query
/// stream.  A traced run then takes the layers of the same loops: the
/// flight records of the latency run, a traced rerun of it, the
/// in-process engine on its queries, and the server's counters.
void serve_phase(const Workload& w, const Options& opt, double seconds, std::uint64_t seed,
                 const std::shared_ptr<const DistanceSource>& source,
                 const std::shared_ptr<const QueryEngine>& engine, RunningServer& server,
                 ReplyChecker& checker, Gate& gate, Report& report)
{
    const ServePlan& plan = w.serve;
    const auto stream = [&](std::uint64_t phase) {
        return QueryStream(w.n, plan.zipf_s, seed * 7919 + phase);
    };
    struct Unplace {
        ~Unplace() { place_threads(std::nullopt); }
    } unplace;
    // The measured runs are untraced even in a traced run; the traced
    // rerun of the latency run follows them.
    TraceSession::get().off();
    QueryStream warm = stream(1);
    LoadRun warm_up;
    if (!timed_load(server, warm, plan.latency_chunk, 0.0, opt.connections, 1, 0, checker, gate,
                    warm_up))
        return;

    QueryStream latency_stream = stream(2);
    LoadRun latency_run;
    const perfbench::CpuTicks before = perfbench::cpu_ticks();
    if (!timed_load(server, latency_stream, plan.latency_chunk, kLatencyShare * seconds,
                    opt.connections, 1, 0, checker, gate, latency_run))
        return;
    // Context for the latency figures, not a metric.
    report.samples["host_steal_pct_during_latency_run"] =
        steal_pct(before, perfbench::cpu_ticks());
    const Latency latency = windowed_latency(latency_run.latency_us);
    report.e2e["query_p50_us"] = latency.p50;
    report.e2e["query_p99_us"] = latency.p99;
    report.samples["query_latency"] = static_cast<double>(latency.samples);
    report.samples["query_latency_windows"] = static_cast<double>(latency.windows);
    report.layer["loadgen.late_us_p99"] = perfbench::quantile(latency_run.late_us, 0.99);
    if (opt.trace) flight_layers(server, gate, report);

    QueryStream capacity_stream = stream(3);
    LoadRun capacity_run;
    if (!timed_load(server, capacity_stream, plan.capacity_chunk, (1.0 - kLatencyShare) * seconds,
                    opt.connections, opt.capacity_depth, 0, checker, gate, capacity_run))
        return;
    report.e2e["query_capacity_qps"] = perfbench::interquartile_mean(capacity_run.rates);
    report.samples["capacity_windows"] = static_cast<double>(capacity_run.rates.size());
    // The generator's share of the serving CPU during the saturation run.
    report.samples["loadgen_cpu_share_capacity_run"] = perfbench::median(capacity_run.cpu_share);
    if (!opt.trace) return;

    // The latency run again with tracing on (every 16th request carries a
    // sampled envelope).  On build workloads trace_overhead_pct already
    // holds the build's overhead.
    TraceSession::get().on();
    QueryStream traced_stream = stream(4);
    LoadRun traced_run;
    if (timed_load(server, traced_stream, plan.latency_chunk, kLatencyShare * seconds,
                   opt.connections, 1, 16, checker, gate, traced_run) &&
        !report.layer.contains("trace_overhead_pct")) {
        const double traced_p50 = windowed_latency(traced_run.latency_us).p50;
        report.layer["trace_overhead_pct"] =
            100.0 * (traced_p50 - latency.p50) / std::max(latency.p50, 1e-9);
    }
    time_in_process(source, latency_run.first, report);
    report.layer["net.edge_us_p50"] = latency.p50 - report.layer["serve.engine.mix_us_p50"];
    const CacheStats cache = engine->cache_stats();
    report.layer["serve.engine.path_cache_hit_ratio"] =
        cache.hits + cache.misses > 0
            ? static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses)
            : 0.0;
    const double materialized = static_cast<double>(source->rows_materialized());
    const double row_hits = static_cast<double>(source->row_cache_hits());
    report.layer["serve.source.rows_materialized"] = materialized;
    report.layer["serve.source.row_cache_hit_ratio"] =
        materialized + row_hits > 0 ? row_hits / (materialized + row_hits) : 0.0;
    const ServerStats stats = server.server().stats();
    report.layer["net.backpressure_pauses"] = static_cast<double>(stats.backpressure_pauses);
    const std::string scrape = server.server().metrics_text();
    report.layer["net.bytes_in"] = counter_from_scrape(scrape, "ccq_bytes_read_total");
    report.layer["net.bytes_out"] = counter_from_scrape(scrape, "ccq_bytes_written_total");
}

/// stretch_max / stretch_mean of the snapshot file over every source,
/// with every cell held to the stretch contract.  Reads through its own
/// DistanceSource so the served source's caches stay cold.
void stretch_metrics(const std::string& snap, const perfbench::ExactRows& exact,
                     double claimed, int threads, Gate& gate, Report& report)
{
    DistanceSourceOptions options;
    options.prefer_mmap = true;
    const std::shared_ptr<const DistanceSource> source = open_distance_source(snap, options);
    const int n = source->node_count();
    struct Partial {
        double worst = 1.0;
        double sum = 0.0;
        double count = 0.0;
        std::vector<NodeId> broken;
    };
    std::vector<Partial> partial(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            Partial& mine = partial[static_cast<std::size_t>(t)];
            std::vector<Weight> row(static_cast<std::size_t>(n));
            for (NodeId s = t; s < n; s += threads) {
                source->fill_row(s, row);
                const std::vector<Weight>& truth = exact[static_cast<std::size_t>(s)];
                bool ok = true;
                for (NodeId v = 0; v < n; ++v) {
                    const Weight e = truth[static_cast<std::size_t>(v)];
                    const Weight d = row[static_cast<std::size_t>(v)];
                    ok = ok && perfbench::within_stretch(e, d, claimed);
                    if (v == s || !is_finite(e) || e == 0 || !is_finite(d)) continue;
                    const double ratio = static_cast<double>(d) / static_cast<double>(e);
                    mine.worst = std::max(mine.worst, ratio);
                    mine.sum += ratio;
                    mine.count += 1.0;
                }
                if (!ok) mine.broken.push_back(s);
            }
        });
    for (std::thread& t : pool) t.join();
    Partial all;
    for (const Partial& p : partial) {
        all.worst = std::max(all.worst, p.worst);
        all.sum += p.sum;
        all.count += p.count;
        all.broken.insert(all.broken.end(), p.broken.begin(), p.broken.end());
    }
    for (int s = 0; s < n; ++s)
        gate.check(std::find(all.broken.begin(), all.broken.end(), s) == all.broken.end(),
                   "estimate row breaks [exact, claimed * exact] at source " + std::to_string(s));
    report.e2e["stretch_max"] = all.worst;
    report.e2e["stretch_mean"] = all.count > 0 ? all.sum / all.count : 1.0;
    report.samples["stretch_pairs"] = all.count;
}

// ---- the run ---------------------------------------------------------------

void run(const Workload& w, const Options& opt, Gate& gate, Report& report)
{
    const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const bool build_workload = w.kind == Kind::build_general || w.kind == Kind::build_exact;
    const std::string snap = opt.work_dir + "/" + w.name + ".snap";
    // Build workloads set up in milliseconds: at least 25 repetitions and
    // kSetupSeconds of them.
    const int setups = build_workload ? 25 : 5;

    // Set-up, repeated: generate; serve workloads also build, write, open
    // and start the server.  The last repetition's state is kept.
    std::vector<double> setup_s;
    std::vector<double> build_s;
    Graph g;
    std::shared_ptr<const DistanceSource> source;
    std::shared_ptr<const QueryEngine> engine;
    std::unique_ptr<RunningServer> server;
    DenseBuild dense;
    SpannerBuild sparse;
    double claimed = 1.0;
    const auto setup_start = Clock::now();
    for (int i = 0; i < setups || (build_workload &&
                                   seconds_between(setup_start, Clock::now()) < kSetupSeconds);
         ++i) {
        server.reset();
        engine.reset();
        source.reset();
        const auto t0 = Clock::now();
        g = generate(w, opt.seed);
        if (w.kind == Kind::serve_dense) {
            dense = build_dense(g, Kind::build_general, opt.seed, snap,
                                SnapshotFormat::v2_compressed);
            build_s.push_back(dense.seconds);
            claimed = dense.result.claimed_stretch;
        } else if (w.kind == Kind::serve_spanner) {
            sparse = build_spanner(g, opt.seed, snap);
            build_s.push_back(sparse.seconds);
            claimed = sparse.claimed_stretch;
        }
        if (!build_workload) {
            DistanceSourceOptions options;
            options.prefer_mmap = true;
            source = open_distance_source(snap, options);
            engine = std::make_shared<const QueryEngine>(source);
            server = std::make_unique<RunningServer>(engine);
        }
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    report.raw["setup_s"] = setup_s;
    report.e2e["setup_s"] = perfbench::median(setup_s);
    report.samples["setup"] = static_cast<double>(setup_s.size());

    // Build workloads: repeat the whole build for most of the measuring
    // time.  Repetition 0 warms caches and the allocator: it is checked
    // but not timed (it ran up to a third slower than the rest).
    std::vector<double> traced_build_s;
    if (build_workload) {
        const double budget = kBuildShare * opt.seconds;
        const auto start = Clock::now();
        const perfbench::CpuTicks before = perfbench::cpu_ticks();
        double first_rounds = -1.0;
        std::uint64_t first_words = 0;
        for (int rep = 0; rep < 4 || seconds_between(start, Clock::now()) < budget; ++rep) {
            // Traced runs alternate untraced and traced builds.
            const bool traced = opt.trace && rep > 0 && rep % 2 == 0;
            if (traced) TraceSession::get().on();
            else TraceSession::get().off();
            dense = build_dense(g, w.kind, opt.seed, snap, SnapshotFormat::v1_raw);
            if (rep > 0) (traced ? traced_build_s : build_s).push_back(dense.seconds);
            const double rounds = dense.result.ledger.total_rounds();
            const std::uint64_t words = dense.result.ledger.total_words();
            if (first_rounds < 0) {
                first_rounds = rounds;
                first_words = words;
            }
            gate.check(rounds == first_rounds && words == first_words,
                       "clique rounds/words drift between repetitions");
        }
        // Context for build_s, not a metric.
        report.samples["host_steal_pct_during_builds"] = steal_pct(before, perfbench::cpu_ticks());
        TraceSession::get().on();
        claimed = dense.result.claimed_stretch;
        // Thread invariance: the same build on one engine thread must
        // charge the same rounds and words and give a bitwise-equal
        // estimate.
        const ApspResult serial = run_algorithm(g, w.kind, 1, opt.seed);
        gate.check(serial.ledger.total_rounds() == dense.result.ledger.total_rounds() &&
                       serial.ledger.total_words() == dense.result.ledger.total_words(),
                   "threads=1 changed clique rounds/words");
        gate.check(serial.estimate == dense.result.estimate,
                   "threads=1 changed the estimate");
        if (opt.trace && !traced_build_s.empty())
            report.layer["trace_overhead_pct"] =
                100.0 * (perfbench::median(traced_build_s) - perfbench::median(build_s)) /
                perfbench::median(build_s);
    }
    report.raw["build_s"] = build_s;
    report.e2e["build_s"] = perfbench::median(build_s);
    report.samples["build"] = static_cast<double>(build_s.size());

    const RoundLedger* ledger =
        w.kind == Kind::serve_spanner ? &sparse.ledger : &dense.result.ledger;
    report.e2e["clique_rounds"] = ledger->total_rounds();
    // The exact baseline charges rounds only, so total words stay a layer
    // number (an end-to-end metric is never 0).
    report.layer["clique.total_words"] = static_cast<double>(ledger->total_words());
    report.layer["matrix.products_i64"] = static_cast<double>(dense.products.products_wide);
    report.layer["matrix.products_i32"] = static_cast<double>(dense.products.products_narrow);
    report.layer["matrix.sparse_skip_products"] =
        static_cast<double>(dense.products.products_sparse_skip);
    ledger_layers(*ledger, report);
    const double bytes = static_cast<double>(std::filesystem::file_size(snap));
    report.e2e["snapshot_bytes"] = bytes;
    report.layer["serve.snapshot.bytes_per_cell"] =
        bytes / (static_cast<double>(g.node_count()) * g.node_count());

    report.raw["open_s"] = time_open(snap, 15, g.node_count() - 1);
    report.e2e["open_s"] = perfbench::median(report.raw["open_s"]);

    // Serve phase: build workloads serve the v1 file they just wrote.
    if (build_workload) {
        DistanceSourceOptions options;
        options.prefer_mmap = true;
        source = open_distance_source(snap, options);
        engine = std::make_shared<const QueryEngine>(source);
        server = std::make_unique<RunningServer>(engine);
    }

    // Every answer is checked against exact rows from every source.
    TraceSession::get().off();
    const perfbench::ExactRows exact = perfbench::exact_rows(g, cores);
    stretch_metrics(snap, exact, claimed, cores, gate, report);
    TraceSession::get().on();

    ReplyChecker checker(g, exact, claimed, gate);
    const double serve_seconds = build_workload ? (1.0 - kBuildShare) * opt.seconds : opt.seconds;
    serve_phase(w, opt, serve_seconds, opt.seed, source, engine, *server, checker, gate, report);
    server.reset();
    report.e2e["peak_rss_mb"] = perfbench::peak_rss_mib();
    report.e2e["path_consistent_ratio"] = checker.consistent_ratio();
    report.layer["path_mismatch_ratio"] = 1.0 - checker.consistent_ratio();
    report.samples["served_replies"] = checker.checked();
    report.samples["path_replies"] = checker.path_replies();
    std::error_code ignored;
    std::filesystem::remove(snap, ignored);
}

std::string raw_json(const std::map<std::string, std::vector<double>>& raw)
{
    perfbench::JsonObject out;
    for (const auto& [name, values] : raw) {
        std::string list = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%s%.6g", i > 0 ? "," : "", values[i]);
            list += buf;
        }
        out.raw(name, list + "]");
    }
    return out.finish();
}

std::string stamp_facts(const Options& opt, Report& report)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    report.facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report.facts["build_type"] = build_type;
    report.facts["minplus_isa"] = kernels::isa_name(kernels::dispatch_isa());
    report.facts["seed"] = std::to_string(opt.seed);
    report.facts["held_out_seed"] = std::to_string(opt.seed + kHeldOutOffset);
    if (build_type != "Release" || asserts)
        return "WARNING: library built as '" + build_type + "'" +
               (asserts ? " with assertions" : "") + " — timings are not Release numbers";
    return {};
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const Options opt = parse_options(argc, argv);
        const auto& all = workloads();
        const auto it = std::find_if(all.begin(), all.end(),
                                     [&](const Workload& w) { return opt.workload == w.name; });
        if (it == all.end()) throw std::runtime_error("unknown workload " + opt.workload);
        std::filesystem::create_directories(opt.work_dir);

        (void)initial_cpus(); // before any thread is pinned
        Report report;
        const std::string warning = stamp_facts(opt, report);
        if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
        TraceSession::get().allow(opt.trace);
        TraceSession::get().on();
        Gate gate;
        run(*it, opt, gate, report);

        perfbench::JsonObject facts;
        for (const auto& [k, v] : report.facts) facts.str(k, v);
        std::string notes = "[";
        for (std::size_t i = 0; i < gate.notes().size(); ++i) {
            if (i > 0) notes += ',';
            notes += perfbench::json_quote(gate.notes()[i]);
        }
        notes += "]";
        perfbench::JsonObject out;
        out.str("workload", it->name)
            .num("n", it->n)
            .raw("facts", facts.finish())
            .str("warning", warning)
            .num("attempted", static_cast<double>(gate.attempted()))
            .num("failed", static_cast<double>(gate.failed()))
            .raw("failures", notes)
            .nums("e2e", report.e2e)
            .nums("layer", report.layer)
            .nums("samples", report.samples)
            .raw("raw", raw_json(report.raw))
            .raw("flight", report.flight_json);
        std::ofstream(opt.out) << out.finish() << "\n";
        const std::string trace = TraceSession::get().finish();
        if (opt.trace && !opt.trace_out.empty()) std::ofstream(opt.trace_out) << trace;
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
