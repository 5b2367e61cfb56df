// Spanner-broadcast APSP approximations (paper Corollaries 7.1 and 7.2).
//
// Corollary 7.1: for a subgraph G_S on N ∈ O(n^{1-1/b}) nodes, build a
// (2b-1)-spanner, broadcast its O(N^{1+1/b}) ⊆ O(n) edges to everyone,
// and let each node solve shortest paths on the spanner locally — a
// (2b-1)-approximation of APSP on G_S in O(1) rounds.
//
// Corollary 7.2 is the G_S = G special case with b ≈ (log n)/3, the
// O(log n)-approximation in O(1) rounds that bootstraps every composed
// algorithm (and is itself the CZ22 baseline of experiment E1).
#ifndef CCQ_SPANNER_SPANNER_APSP_HPP
#define CCQ_SPANNER_SPANNER_APSP_HPP

#include <string_view>

#include "ccq/clique/transport.hpp"
#include "ccq/common/parallel.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

struct SubgraphApspResult {
    DistanceMatrix estimate;     ///< indexed by the subgraph's node ids
    double claimed_stretch = 1.0;
    std::size_t spanner_edges = 0;
};

/// Corollary 7.1: (2b-1)-approximation of APSP on `sub` via spanner
/// broadcast.  `transport` belongs to the ambient clique doing the
/// broadcasting.  Broadcast rounds are charged at the cited CZ22 spanner
/// size O(N^{1+1/b}) when the Baswana–Sen substitute overshoots it
/// (the substitution is described in spanner/baswana_sen.hpp).
[[nodiscard]] SubgraphApspResult apsp_via_spanner(const Graph& sub, int b, Rng& rng,
                                                  CliqueTransport& transport,
                                                  std::string_view phase,
                                                  const EngineConfig& engine = {});

/// Exact APSP on `sub` by broadcasting *all* its edges (used when the
/// skeleton is small enough or bandwidth is widened; l = 1).
[[nodiscard]] SubgraphApspResult apsp_via_full_broadcast(const Graph& sub,
                                                         CliqueTransport& transport,
                                                         std::string_view phase,
                                                         const EngineConfig& engine = {});

/// Corollary 7.2: b for an (alpha log n)-approximation on an n-node graph.
[[nodiscard]] int logn_spanner_parameter(int n, double alpha = 1.0);

} // namespace ccq

#endif // CCQ_SPANNER_SPANNER_APSP_HPP
