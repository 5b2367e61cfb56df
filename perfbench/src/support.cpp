#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double interquartile_mean(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t begin = values.size() / 4;
    const std::size_t end = values.size() - values.size() / 4;
    return std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(begin),
                           values.begin() + static_cast<std::ptrdiff_t>(end), 0.0) /
           static_cast<double>(end - begin);
}

std::vector<ccq::Weight> reference_distances(const ccq::Graph& g, ccq::NodeId source)
{
    using Item = std::pair<ccq::Weight, ccq::NodeId>;
    std::vector<ccq::Weight> dist(static_cast<std::size_t>(g.node_count()), ccq::kInfinity);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[static_cast<std::size_t>(source)] = 0;
    heap.push({0, source});
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[static_cast<std::size_t>(u)]) continue;
        for (const ccq::Edge& e : g.neighbors(u)) {
            const ccq::Weight nd = d + e.weight;
            ccq::Weight& slot = dist[static_cast<std::size_t>(e.to)];
            if (nd < slot) {
                slot = nd;
                heap.push({nd, e.to});
            }
        }
    }
    return dist;
}

ExactRows exact_rows(const ccq::Graph& g, int threads)
{
    const int n = g.node_count();
    ExactRows rows(static_cast<std::size_t>(n));
    const int workers = std::max(1, std::min(threads, n));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
            for (int s = w; s < n; s += workers)
                rows[static_cast<std::size_t>(s)] = reference_distances(g, s);
        });
    for (std::thread& t : pool) t.join();
    return rows;
}

bool within_stretch(ccq::Weight exact, ccq::Weight d, double stretch)
{
    if (!ccq::is_finite(exact)) return !ccq::is_finite(d);
    if (!ccq::is_finite(d)) return false;
    return d >= exact &&
           static_cast<double>(d) <= stretch * static_cast<double>(exact) + 1e-9;
}

ccq::Weight route_weight(const ccq::Graph& g, std::span<const ccq::NodeId> route)
{
    ccq::Weight total = 0;
    for (std::size_t i = 1; i < route.size(); ++i) {
        const ccq::NodeId u = route[i - 1];
        const ccq::NodeId v = route[i];
        if (!g.is_valid_node(u) || !g.is_valid_node(v)) return -1;
        ccq::Weight best = -1;
        for (const ccq::Edge& e : g.neighbors(u))
            if (e.to == v && (best < 0 || e.weight < best)) best = e.weight;
        if (best < 0) return -1;
        total += best;
    }
    return total;
}

CpuTicks cpu_ticks()
{
    CpuTicks ticks;
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    if (label != "cpu") return ticks;
    // user nice system idle iowait irq softirq steal ...
    for (int field = 0; field < 8; ++field) {
        double value = 0.0;
        if (!(stat >> value)) return {};
        ticks.total += value;
        if (field == 7) ticks.steal = value;
    }
    return ticks;
}

double peak_rss_mib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string json_quote(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void JsonObject::key(std::string_view k)
{
    body_ += body_.empty() ? "{" : ",";
    body_ += json_quote(k);
    body_ += ':';
}

JsonObject& JsonObject::num(std::string_view k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
    return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value)
{
    key(k);
    body_ += json_quote(value);
    return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json)
{
    key(k);
    body_ += json;
    return *this;
}

JsonObject& JsonObject::nums(std::string_view k, const std::map<std::string, double>& values)
{
    JsonObject inner;
    for (const auto& [name, value] : values) inner.num(name, value);
    return raw(k, inner.finish());
}

} // namespace perfbench
