// Measurement support for the perfbench binary: clocks, order statistics,
// an exact-distance reference written independently of the library, the
// benchmark's own trace spans, and a small JSON writer.
#ifndef PERFBENCH_SUPPORT_HPP
#define PERFBENCH_SUPPORT_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ccq/graph/graph.hpp"
#include "ccq/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile q in [0, 1] of `values` (sorted copy); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}
/// Mean of the values between the 25th and 75th percentiles (the middle
/// half, sorted copy); 0 if empty.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// Single-source shortest-path distances by a binary-heap Dijkstra over
/// g's adjacency lists.  Deliberately not the library's own oracle: the
/// benchmark checks the library against it.
[[nodiscard]] std::vector<ccq::Weight> reference_distances(const ccq::Graph& g,
                                                           ccq::NodeId source);

/// Exact distances: row s holds the distances from s.
using ExactRows = std::vector<std::vector<ccq::Weight>>;

/// reference_distances from every source, on up to `threads` threads.
[[nodiscard]] ExactRows exact_rows(const ccq::Graph& g, int threads);

/// The contract every served or estimated distance must meet:
/// exact <= d <= stretch * exact, and d infinite exactly when exact is.
[[nodiscard]] bool within_stretch(ccq::Weight exact, ccq::Weight d, double stretch);

/// Weight of `route` in g (min-weight edge per hop), or -1 when a hop is
/// not an edge of g.
[[nodiscard]] ccq::Weight route_weight(const ccq::Graph& g, std::span<const ccq::NodeId> route);

/// Host CPU time counters from /proc/stat (all CPUs, clock ticks): the
/// time the hypervisor gave to other guests, and the total.  Zeros when
/// unreadable.
struct CpuTicks {
    double steal = 0.0;
    double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// A complete ("X") event on the global tracer around one call into the
/// library, so the trace reader can attribute time to the layer called.
/// Free when tracing is off.
class Span {
public:
    explicit Span(const char* name) : name_(name), start_(Clock::now()) {}
    ~Span()
    {
        if (ccq::obs::Tracer::global().enabled())
            ccq::obs::Tracer::global().complete_event(name_, "bench", start_, Clock::now());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_;
    Clock::time_point start_;
};

/// Flat JSON object writer (numbers, strings, nested raw JSON).
class JsonObject {
public:
    JsonObject& num(std::string_view key, double value);
    JsonObject& str(std::string_view key, std::string_view value);
    JsonObject& raw(std::string_view key, std::string_view json);
    JsonObject& nums(std::string_view key, const std::map<std::string, double>& values);
    [[nodiscard]] std::string finish() const { return body_.empty() ? "{}" : body_ + "}"; }

private:
    void key(std::string_view k);
    std::string body_;
};

[[nodiscard]] std::string json_quote(std::string_view text);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HPP
