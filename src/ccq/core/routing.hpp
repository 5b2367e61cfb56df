// Next-hop routing tables.
//
// The paper motivates APSP by its "close connection to network routing"
// (Section 1).  This layer gives every node, per destination, the
// neighbor to forward to, so greedy forwarding walks a route whose
// length is exactly the backbone distance.
//
// Construction: one exact Dijkstra toward each destination over the
// backbone graph the caller passes in (the input graph, or a spanner
// whose edges every node knows after the broadcast stage).  Routes do
// not depend on the distance estimate an algorithm produced.  Ties are
// broken by node id: next_hop(u, v) is the smallest-id neighbor x of u
// with w(u, x) + d(x, v) == d(u, v).  Destinations are independent and
// run in parallel per EngineConfig; the tables are bitwise identical
// for every thread count.
#ifndef CCQ_CORE_ROUTING_HPP
#define CCQ_CORE_ROUTING_HPP

#include <vector>

#include "ccq/common/parallel.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

/// next_hop[u][v]: the neighbor u forwards to for destination v (u == v
/// or unreachable: -1).
class RoutingTables {
public:
    RoutingTables() = default;
    RoutingTables(int n, std::vector<NodeId> next_hops)
        : n_(n), next_hop_(std::move(next_hops))
    {
        CCQ_EXPECT(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) ==
                       next_hop_.size(),
                   "RoutingTables: size mismatch");
    }

    [[nodiscard]] int size() const noexcept { return n_; }

    [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const
    {
        CCQ_EXPECT(valid(from) && valid(to), "RoutingTables::next_hop: out of range");
        return next_hop_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
                         static_cast<std::size_t>(to)];
    }

    /// Follows next hops from `from` to `to`.  Returns the node sequence
    /// (starting at `from`, ending at `to`), or an empty vector if the
    /// destination is unreachable.  The walk is hardened for serving
    /// against untrusted tables (e.g. loaded from disk): a forwarding
    /// cycle, an out-of-range hop, or any walk longer than n hops is
    /// reported as unreachable rather than looping or throwing.
    [[nodiscard]] std::vector<NodeId> route(NodeId from, NodeId to) const;

    /// The n x n table, row-major: row u holds u's next hop per destination.
    [[nodiscard]] const NodeId* data() const noexcept { return next_hop_.data(); }

private:
    [[nodiscard]] bool valid(NodeId v) const noexcept { return v >= 0 && v < n_; }

    int n_ = 0;
    std::vector<NodeId> next_hop_;
};

/// Builds next-hop tables by routing along `backbone` (a subgraph of the
/// communication graph whose edges every node knows, e.g. the broadcast
/// spanner).  Routes followed through the tables have length exactly
/// d_backbone(u, v), hence within the backbone's stretch of d_G.
/// Destinations run on `engine.resolved_threads()` threads; threads == 1
/// runs inline on the caller and never touches the thread pool.
[[nodiscard]] RoutingTables build_routing_tables(const Graph& backbone,
                                                 const EngineConfig& engine = {});

/// Total length of a route under graph `g` (kInfinity for an empty or
/// broken route).
[[nodiscard]] Weight route_length(const Graph& g, const std::vector<NodeId>& route);

} // namespace ccq

#endif // CCQ_CORE_ROUTING_HPP
