#include "ccq/core/routing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "ccq/obs/trace.hpp"

namespace ccq {

std::vector<NodeId> RoutingTables::route(NodeId from, NodeId to) const
{
    CCQ_EXPECT(valid(from) && valid(to), "RoutingTables::route: out of range");
    std::vector<NodeId> path{from};
    NodeId current = from;
    // A well-formed table reaches `to` within n-1 hops.  Tables can come
    // from untrusted snapshots, so a longer walk (forwarding cycle) or an
    // out-of-range hop means corruption: terminate and report unreachable.
    for (int steps = 0; current != to; ++steps) {
        if (steps >= n_) return {}; // forwarding cycle in a corrupted table
        const NodeId next = next_hop(current, to);
        if (!valid(next)) return {}; // unreachable (or corrupted hop id)
        path.push_back(next);
        current = next;
    }
    return path;
}

namespace {

/// Destinations per strip: each task fills an n x kStripWidth block of
/// next hops, then copies it into the row-major table one row segment at
/// a time instead of striding n cells per destination.
constexpr int kStripWidth = 16;

/// Monotone integer priority queue (radix heap): Dijkstra never pushes
/// a key below the last one popped, so items are bucketed by the highest
/// bit in which they differ from it.  Each item moves down at most 64
/// buckets, and there are no data-dependent sift branches, which is what
/// makes a binary heap's pops slow here.  Equal keys may pop in any
/// order; the next hops below do not depend on it.
class RadixHeap {
public:
    using Item = std::pair<Weight, NodeId>;

    void clear()
    {
        for (std::vector<Item>& bucket : buckets_) bucket.clear();
        last_ = 0;
        size_ = 0;
    }

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    void push(Weight key, NodeId node)
    {
        buckets_[bucket_of(key)].emplace_back(key, node);
        ++size_;
    }

    [[nodiscard]] Item pop()
    {
        if (buckets_[0].empty()) {
            // Advance to the smallest key of the first non-empty bucket
            // and redistribute that bucket below it.
            std::size_t i = 1;
            while (buckets_[i].empty()) ++i;
            std::vector<Item>& bucket = buckets_[i];
            last_ = std::min_element(bucket.begin(), bucket.end())->first;
            for (const Item& item : bucket) buckets_[bucket_of(item.first)].push_back(item);
            bucket.clear();
        }
        const Item item = buckets_[0].back();
        buckets_[0].pop_back();
        --size_;
        return item;
    }

private:
    [[nodiscard]] std::size_t bucket_of(Weight key) const noexcept
    {
        return static_cast<std::size_t>(
            std::bit_width(static_cast<std::uint64_t>(key) ^ static_cast<std::uint64_t>(last_)));
    }

    std::array<std::vector<Item>, 65> buckets_;
    Weight last_ = 0;
    std::size_t size_ = 0;
};

/// One Dijkstra toward a destination, with buffers reused across
/// destinations.
class TowardSearch {
public:
    explicit TowardSearch(const Graph& backbone)
        : backbone_(backbone),
          dist_(static_cast<std::size_t>(backbone.node_count())),
          toward_(static_cast<std::size_t>(backbone.node_count()))
    {
    }

    /// Afterwards toward(u) is the smallest-id neighbor x of u with
    /// w(u, x) + d(x, dest) == d(u, dest), and -1 for dest itself and for
    /// nodes that cannot reach it.
    void run(NodeId dest)
    {
        std::fill(dist_.begin(), dist_.end(), kInfinity);
        std::fill(toward_.begin(), toward_.end(), NodeId{-1});
        dist_[static_cast<std::size_t>(dest)] = 0;
        heap_.clear();
        heap_.push(0, dest);
        while (!heap_.empty()) {
            const auto [d, u] = heap_.pop();
            if (d != dist_[static_cast<std::size_t>(u)]) continue;
            for (const Edge& e : backbone_.neighbors(u)) {
                const Weight cand = saturating_add(d, e.weight);
                Weight& cur = dist_[static_cast<std::size_t>(e.to)];
                NodeId& hop = toward_[static_cast<std::size_t>(e.to)];
                if (cand < cur) {
                    cur = cand;
                    hop = u;
                    heap_.push(cand, e.to);
                } else if (cand == cur && hop > u) {
                    hop = u; // deterministic tie-break by hop id
                }
            }
        }
    }

    [[nodiscard]] NodeId toward(NodeId u) const { return toward_[static_cast<std::size_t>(u)]; }

private:
    const Graph& backbone_;
    std::vector<Weight> dist_;
    std::vector<NodeId> toward_;
    RadixHeap heap_;
};

} // namespace

RoutingTables build_routing_tables(const Graph& backbone, const EngineConfig& engine)
{
    CCQ_EXPECT(!backbone.is_directed(), "build_routing_tables: undirected backbone required");
    const int n = backbone.node_count();
    const int threads = engine.resolved_threads();
    obs::TraceSpan span("routing/build", "core",
                        obs::Tracer::global().enabled()
                            ? "{\"n\":" + std::to_string(n) +
                                  ",\"arcs\":" + std::to_string(backbone.arc_count()) +
                                  ",\"threads\":" + std::to_string(threads) + "}"
                            : std::string());
    const auto un = static_cast<std::size_t>(n);
    std::vector<NodeId> next(un * un);

    // One Dijkstra per destination over the backbone; the parent pointers
    // toward the destination are exactly the next hops.  (Each node can
    // do this locally once the backbone is broadcast.)  Destinations are
    // independent and own disjoint columns, so strips of them run in
    // parallel.
    parallel_chunks(threads, 0, n, kStripWidth, [&](int begin, int end) {
        TowardSearch search(backbone);
        std::vector<NodeId> strip(un * kStripWidth);
        for (int first = begin; first < end; first += kStripWidth) {
            const auto width = static_cast<std::size_t>(std::min(kStripWidth, end - first));
            for (std::size_t j = 0; j < width; ++j) {
                search.run(first + static_cast<NodeId>(j));
                for (NodeId u = 0; u < n; ++u)
                    strip[static_cast<std::size_t>(u) * width + j] = search.toward(u);
            }
            for (std::size_t u = 0; u < un; ++u)
                std::copy_n(strip.data() + u * width, width,
                            next.data() + u * un + static_cast<std::size_t>(first));
        }
    });
    return RoutingTables(n, std::move(next));
}

Weight route_length(const Graph& g, const std::vector<NodeId>& route)
{
    if (route.size() < 2) return route.empty() ? kInfinity : 0;
    Weight total = 0;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
        Weight best = kInfinity;
        for (const Edge& e : g.neighbors(route[i]))
            if (e.to == route[i + 1]) best = min_weight(best, e.weight);
        if (!is_finite(best)) return kInfinity; // not an edge of g
        total = saturating_add(total, best);
    }
    return total;
}

} // namespace ccq
