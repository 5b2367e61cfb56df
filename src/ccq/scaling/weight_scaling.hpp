// Weight scaling (paper Section 8.1, Lemma 8.1).
//
// Reduces distance approximation on G to approximation on O(log n) graphs
// G_0..G_L, each of weighted diameter at most ceil(2/eps) * h^2:
//
//   H_i : every weight rounded up to a multiple of 2^i,
//   K_i : a "cap" edge of weight 2^i * B * h^2 added between every pair,
//   G_i : K_i with all weights divided by 2^i.
//
// Given an l-approximation on each G_i and the coarse h-approximation
// delta used for level selection, the combined eta satisfies
//   eta >= d                                   (always), and
//   eta <= (1+eps) * l * d                     (pairs with an <= h-hop
//                                               shortest path).
//
// Representation note: the Theta(n^2) cap edges of K_i
// are never materialized.  Because every cap edge has the same weight and
// exists between every pair, d_{K_i}(u,v) = min(d_{H_i}(u,v), cap), so the
// level graph stores H_i with weights clamped to the cap and the cap is
// applied to the level estimates in combine_scaled_estimates.
#ifndef CCQ_SCALING_WEIGHT_SCALING_HPP
#define CCQ_SCALING_WEIGHT_SCALING_HPP

#include <vector>

#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

struct ScaledLevel {
    Graph graph;          ///< H_i, rescaled and clamped to `cap` (sparse part of G_i)
    Weight scale = 1;     ///< 2^i
    Weight cap = 0;       ///< B * h^2 — G_i's diameter bound and implicit cap edge
    int index = 0;
};

struct ScaledFamily {
    std::vector<ScaledLevel> levels;
    int cap_factor_b = 0; ///< B = ceil(2/eps)
    int hop_bound_h = 0;  ///< h of Lemma 8.1
    double eps = 0.0;
};

/// Builds the family for all levels the selection rule can pick given
/// that the selector delta never exceeds `max_estimate`.
[[nodiscard]] ScaledFamily build_scaled_family(const Graph& g, Weight max_estimate, int h,
                                               double eps);

/// The level index the combination rule assigns to a pair with coarse
/// estimate `delta_uv` (Section 8.1 "Computing eta(u,v)").
[[nodiscard]] int select_level(const ScaledFamily& family, Weight delta_uv);

/// Combines per-level estimates into eta.  `level_estimates[i]` must be an
/// estimate of APSP on the *sparse* level graph; the implicit cap edge is
/// applied here (min with cap).  `delta` is the coarse h-approximation
/// used for level selection.
[[nodiscard]] DistanceMatrix combine_scaled_estimates(
    const ScaledFamily& family, const std::vector<DistanceMatrix>& level_estimates,
    const DistanceMatrix& delta);

} // namespace ccq

#endif // CCQ_SCALING_WEIGHT_SCALING_HPP
