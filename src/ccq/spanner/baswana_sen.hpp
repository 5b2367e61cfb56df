// Multiplicative spanners (substrate for Lemma 7.1).
//
// The paper consumes the CZ22 constant-round spanner constructions as a
// black box: a (2k-1)-spanner with O(k n^{1+1/k}) edges (Lemma 7.1, second
// bullet).  We substitute the classic Baswana–Sen clustering algorithm,
// which constructs exactly that object (same stretch, same size class,
// w.h.p.); only the internal round count of the construction differs,
// which the composed algorithms charge as O(1) rounds via the cost model
// (CostModel::constant_round_spanner_rounds).
#ifndef CCQ_SPANNER_BASWANA_SEN_HPP
#define CCQ_SPANNER_BASWANA_SEN_HPP

#include "ccq/common/rng.hpp"
#include "ccq/graph/graph.hpp"

namespace ccq {

struct SpannerResult {
    Graph spanner;           ///< subgraph of the input on the same node set
    int stretch_bound = 1;   ///< guaranteed multiplicative stretch (2k-1)
    int parameter_k = 1;     ///< the k used
};

/// Baswana–Sen (2k-1)-spanner of an undirected weighted graph.
/// Expected edge count O(k n^{1+1/k}).  k >= 1; k = 1 returns the
/// (simplified) input graph.
[[nodiscard]] SpannerResult baswana_sen_spanner(const Graph& g, int k, Rng& rng);

/// Verification helper: max over sampled pairs of
/// d_spanner(u,v) / d_g(u,v).  Exact (all pairs) when sample_sources <= 0.
[[nodiscard]] double measured_spanner_stretch(const Graph& g, const Graph& spanner,
                                              int sample_sources = 0);

} // namespace ccq

#endif // CCQ_SPANNER_BASWANA_SEN_HPP
