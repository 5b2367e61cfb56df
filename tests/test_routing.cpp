// Tests for the routing-table layer: next-hop correctness, loop freedom,
// stretch guarantees when routing along a spanner backbone, the
// smallest-id tie-break, and bitwise identity across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "ccq/core/routing.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

TEST(Routing, HandCheckedPath)
{
    Graph g = Graph::undirected(4); // 0-1-2-3 chain
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    g.add_edge(2, 3, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_EQ(tables.next_hop(0, 3), 1);
    EXPECT_EQ(tables.next_hop(1, 3), 2);
    EXPECT_EQ(tables.next_hop(3, 0), 2);
    EXPECT_EQ(tables.next_hop(0, 0), -1);
    const std::vector<NodeId> route = tables.route(0, 3);
    EXPECT_EQ(route, (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(route_length(g, route), 3);
}

TEST(Routing, RoutesFollowShortestPathsOnBackbone)
{
    Rng rng(1);
    const Graph g = erdos_renyi(48, 0.15, WeightRange{1, 30}, rng);
    const RoutingTables tables = build_routing_tables(g);
    const DistanceMatrix exact = exact_apsp(g);
    for (NodeId u = 0; u < 48; u += 5) {
        for (NodeId v = 0; v < 48; v += 3) {
            if (u == v) continue;
            const std::vector<NodeId> route = tables.route(u, v);
            ASSERT_FALSE(route.empty());
            EXPECT_EQ(route_length(g, route), exact.at(u, v)) << u << "->" << v;
        }
    }
}

TEST(Routing, SpannerBackboneRoutesWithinStretch)
{
    for (const std::uint64_t seed : {2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(56, 0.2, WeightRange{1, 40}, rng);
        const SpannerResult spanner = baswana_sen_spanner(g, 3, rng);
        const RoutingTables tables = build_routing_tables(spanner.spanner);
        const DistanceMatrix exact = exact_apsp(g);
        for (NodeId u = 0; u < 56; u += 7) {
            for (NodeId v = 0; v < 56; v += 5) {
                if (u == v) continue;
                const std::vector<NodeId> route = tables.route(u, v);
                ASSERT_FALSE(route.empty());
                const Weight len = route_length(g, route);
                EXPECT_LE(len, 5 * exact.at(u, v)) << "stretch-5 spanner route " << u << "->"
                                                   << v;
                EXPECT_GE(len, exact.at(u, v));
            }
        }
    }
}

TEST(Routing, UnreachableDestinationsReturnEmptyRoute)
{
    Graph g = Graph::undirected(4);
    g.add_edge(0, 1, 1); // {2,3} disconnected
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_TRUE(tables.route(0, 2).empty());
    EXPECT_EQ(tables.next_hop(0, 2), -1);
    EXPECT_FALSE(tables.route(0, 1).empty());
}

TEST(Routing, RouteToSelfIsTrivial)
{
    Graph g = Graph::undirected(2);
    g.add_edge(0, 1, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_EQ(tables.route(1, 1), (std::vector<NodeId>{1}));
    EXPECT_EQ(route_length(g, tables.route(1, 1)), 0);
}

TEST(Routing, RouteLengthDetectsNonEdges)
{
    Graph g = Graph::undirected(3);
    g.add_edge(0, 1, 1);
    EXPECT_EQ(route_length(g, {0, 2}), kInfinity); // 0-2 is not an edge
    EXPECT_EQ(route_length(g, {}), kInfinity);
}

TEST(Routing, CorruptedTableWithForwardingCycleReportsUnreachable)
{
    // Adversarially-corrupted table (e.g. from an untrusted snapshot):
    // hops toward destination 2 form the cycle 0 -> 1 -> 0.  The walk
    // must terminate within the hop budget and report unreachable.
    const int n = 3;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 3 + 2] = 1;
    hops[1 * 3 + 2] = 0;
    hops[0 * 3 + 1] = 1; // a legitimate entry stays routable
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 2).empty());
    EXPECT_TRUE(corrupted.route(1, 2).empty());
    EXPECT_EQ(corrupted.route(0, 1), (std::vector<NodeId>{0, 1}));
}

TEST(Routing, CorruptedTableWithSelfLoopHopReportsUnreachable)
{
    const int n = 2;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 2 + 1] = 0; // forwards to itself forever
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 1).empty());
}

TEST(Routing, CorruptedTableWithOutOfRangeHopReportsUnreachable)
{
    const int n = 2;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 2 + 1] = 7; // not a node
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 1).empty());
}

TEST(Routing, BoundsChecked)
{
    Graph g = Graph::undirected(2);
    g.add_edge(0, 1, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_THROW((void)tables.next_hop(0, 5), check_error);
    EXPECT_THROW((void)tables.route(-1, 0), check_error);
    EXPECT_THROW((void)build_routing_tables(Graph::directed(3)), check_error);
}

/// Backbones that stress the routing build: random sparse and geometric
/// weights, a unit-weight grid (many tied shortest paths), a disconnected
/// graph (-1 hops), and graphs smaller than the thread counts below.
std::vector<std::pair<std::string, Graph>> routing_backbones()
{
    std::vector<std::pair<std::string, Graph>> graphs;
    Rng rng(21);
    graphs.emplace_back("er_sparse", make_family_instance(GraphFamily::erdos_renyi_sparse, 150,
                                                          WeightRange{1, 100}, rng));
    graphs.emplace_back("geometric", make_family_instance(GraphFamily::geometric, 150,
                                                          WeightRange{1, 100}, rng));
    graphs.emplace_back("unit_grid", grid_graph(11, 13, WeightRange{1, 1}, rng));
    Graph split = Graph::undirected(40); // two components plus isolated nodes
    for (NodeId v = 0; v + 1 < 20; ++v) split.add_edge(v, v + 1, 1 + v % 3);
    for (NodeId v = 20; v + 1 < 35; ++v) split.add_edge(v, v + 1, 2);
    split.add_edge(20, 34, 5);
    graphs.emplace_back("disconnected", std::move(split));
    graphs.emplace_back("n1", Graph::undirected(1));
    Graph tiny = Graph::undirected(3);
    tiny.add_edge(0, 1, 1);
    tiny.add_edge(1, 2, 1);
    tiny.add_edge(0, 2, 2); // ties with 0-1-2
    graphs.emplace_back("n3", std::move(tiny));
    return graphs;
}

std::vector<NodeId> table_cells(const RoutingTables& tables)
{
    const auto cells = static_cast<std::size_t>(tables.size()) *
                       static_cast<std::size_t>(tables.size());
    return std::vector<NodeId>(tables.data(), tables.data() + cells);
}

TEST(Routing, TablesAreBitwiseIdenticalAcrossThreadCounts)
{
    for (const auto& [name, g] : routing_backbones()) {
        const std::vector<NodeId> serial =
            table_cells(build_routing_tables(g, EngineConfig::serial()));
        for (const int threads : {2, 4, 0}) {
            EngineConfig engine;
            engine.threads = threads;
            EXPECT_EQ(table_cells(build_routing_tables(g, engine)), serial)
                << name << " threads=" << threads;
        }
    }
}

TEST(Routing, NextHopIsTheSmallestIdNeighborOnAShortestPath)
{
    // Independent of the Dijkstra: next_hop(u, d) is the smallest-id
    // neighbor x with w(u, x) + d(x, d) == d(u, d), and -1 when u == d or
    // d is unreachable.
    for (const auto& [name, g] : routing_backbones()) {
        const RoutingTables tables = build_routing_tables(g);
        const DistanceMatrix exact = exact_apsp(g);
        const int n = g.node_count();
        for (NodeId u = 0; u < n; ++u) {
            for (NodeId d = 0; d < n; ++d) {
                NodeId expected = -1;
                if (u != d && is_finite(exact.at(u, d)))
                    for (const Edge& e : g.neighbors(u))
                        if (saturating_add(e.weight, exact.at(e.to, d)) == exact.at(u, d) &&
                            (expected == -1 || e.to < expected))
                            expected = e.to;
                ASSERT_EQ(tables.next_hop(u, d), expected) << name << " " << u << "->" << d;
            }
        }
    }
}

TEST(Routing, SerialConfigNeverTouchesThePool)
{
    // Occupy the shared pool with a job that holds it until released.  A
    // routing build that submitted work to the pool would block behind
    // it; a serial build must finish inline on the calling thread.
    std::atomic<int> entered{0};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        ThreadPool::shared().run(2, 2, [&](int) {
            entered.fetch_add(1);
            while (!release.load()) std::this_thread::yield();
        });
    });
    while (entered.load() == 0) std::this_thread::yield();

    Rng rng(4);
    const Graph g =
        make_family_instance(GraphFamily::erdos_renyi_sparse, 96, WeightRange{1, 50}, rng);
    std::future<RoutingTables> build = std::async(std::launch::async, [&] {
        return build_routing_tables(g, EngineConfig::serial());
    });
    const bool finished = build.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
    release.store(true);
    holder.join();
    ASSERT_TRUE(finished) << "a serial routing build waited on the busy thread pool";
    EXPECT_EQ(table_cells(build.get()), table_cells(build_routing_tables(g)));
}

} // namespace
} // namespace ccq
