#include "ccq/skeleton/skeleton.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "ccq/matrix/round_cost.hpp"
#include "ccq/skeleton/hitting_set.hpp"

namespace ccq {
namespace {

/// Payload for the x-value aggregation: candidate delta(s_a,u)+delta(u,t)
/// flowing from u to t, tagged with s_a = c(u).
struct CenterCandidate {
    NodeId center;
    Weight value;
};

} // namespace

double skeleton_size_bound(int n, int k, double constant)
{
    const double ln_k = std::max(1.0, std::log(static_cast<double>(std::max(2, k))));
    return constant * static_cast<double>(n) * ln_k / static_cast<double>(std::max(1, k));
}

SkeletonGraph build_skeleton(const Graph& g, const SparseMatrix& nk_rows, double a, Rng& rng,
                             CliqueTransport& transport, std::string_view phase,
                             const EngineConfig& engine)
{
    const int n = g.node_count();
    CCQ_EXPECT(static_cast<int>(nk_rows.size()) == n, "build_skeleton: row count mismatch");
    CCQ_EXPECT(a >= 1.0, "build_skeleton: approximation factor must be >= 1");
    PhaseScope scope(transport.ledger(), phase);

    int k = 1;
    for (const SparseRow& row : nk_rows) k = std::max(k, static_cast<int>(row.size()));

    SkeletonGraph skeleton;
    skeleton.a = a;
    skeleton.members = compute_hitting_set(nk_rows, k, rng, transport, "hitting-set");
    skeleton.member_index.assign(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < skeleton.members.size(); ++i)
        skeleton.member_index[static_cast<std::size_t>(skeleton.members[i])] = static_cast<int>(i);

    // Step 2: centers c(u) — nearest hitting-set member by (delta, id).
    skeleton.center.assign(static_cast<std::size_t>(n), -1);
    skeleton.center_delta.assign(static_cast<std::size_t>(n), kInfinity);
    for (NodeId u = 0; u < n; ++u) {
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)]) {
            if (skeleton.member_index[static_cast<std::size_t>(e.node)] < 0) continue;
            if (skeleton.center[static_cast<std::size_t>(u)] < 0 ||
                weight_id_less(e.dist, e.node, skeleton.center_delta[static_cast<std::size_t>(u)],
                               skeleton.center[static_cast<std::size_t>(u)])) {
                skeleton.center[static_cast<std::size_t>(u)] = e.node;
                skeleton.center_delta[static_cast<std::size_t>(u)] = e.dist;
            }
        }
        CCQ_CHECK(skeleton.center[static_cast<std::size_t>(u)] >= 0,
                  "build_skeleton: hitting set missed a k-nearest set");
    }
    transport.note_local_computation("select-centers");

    // x(s_a, t) = min over u with c(u)=s_a, t in Ñk(u) of delta(s_a,u)+delta(u,t).
    // Each u sends one candidate to every t in its set; t aggregates.
    MessageExchange<CenterCandidate> x_stage(n);
    for (NodeId u = 0; u < n; ++u) {
        const NodeId s_a = skeleton.center[static_cast<std::size_t>(u)];
        const Weight to_center = skeleton.center_delta[static_cast<std::size_t>(u)];
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)])
            x_stage.send(u, e.node, CenterCandidate{s_a, saturating_add(to_center, e.dist)});
    }
    const auto x_inboxes = x_stage.deliver(transport, "x-aggregate", /*words_per_record=*/2);

    // Forward aggregated x values to their skeleton row owners.
    MessageExchange<CenterCandidate> x_forward(n); // payload.center reused as t carrier
    for (NodeId t = 0; t < n; ++t) {
        std::unordered_map<NodeId, Weight> best; // s_a -> min value
        for (const auto& routed : x_inboxes[static_cast<std::size_t>(t)]) {
            auto [it, inserted] = best.try_emplace(routed.payload.center, routed.payload.value);
            if (!inserted) it->second = min_weight(it->second, routed.payload.value);
        }
        for (const auto& [s_a, value] : best)
            x_forward.send(t, s_a, CenterCandidate{t, value});
    }
    const auto x_rows_inboxes = x_forward.deliver(transport, "x-to-rows", /*words_per_record=*/2);

    SparseMatrix x_rows(static_cast<std::size_t>(n)); // row s_a: entries (t, x)
    for (NodeId s_a = 0; s_a < n; ++s_a) {
        SparseRow& row = x_rows[static_cast<std::size_t>(s_a)];
        for (const auto& routed : x_rows_inboxes[static_cast<std::size_t>(s_a)])
            row.push_back(SparseEntry{routed.payload.center, routed.payload.value});
        normalize_row(row);
    }

    // y(t, s_b) = min over v with c(v)=s_b and {t,v} in E of w_tv + delta(v,s_b),
    // plus the t=v rule: y(t, c(t)) <= delta(t, c(t)).
    MessageExchange<CenterCandidate> y_stage(n);
    for (NodeId v = 0; v < n; ++v) {
        const NodeId s_b = skeleton.center[static_cast<std::size_t>(v)];
        const Weight to_center = skeleton.center_delta[static_cast<std::size_t>(v)];
        for (const Edge& e : g.neighbors(v))
            y_stage.send(v, e.to, CenterCandidate{s_b, saturating_add(e.weight, to_center)});
    }
    const auto y_inboxes = y_stage.deliver(transport, "y-aggregate", /*words_per_record=*/2);

    SparseMatrix y_rows(static_cast<std::size_t>(n)); // row t: entries (s_b, y)
    for (NodeId t = 0; t < n; ++t) {
        std::unordered_map<NodeId, Weight> best; // s_b -> min value
        best[skeleton.center[static_cast<std::size_t>(t)]] =
            skeleton.center_delta[static_cast<std::size_t>(t)]; // t = v case
        for (const auto& routed : y_inboxes[static_cast<std::size_t>(t)]) {
            auto [it, inserted] = best.try_emplace(routed.payload.center, routed.payload.value);
            if (!inserted) it->second = min_weight(it->second, routed.payload.value);
        }
        SparseRow& row = y_rows[static_cast<std::size_t>(t)];
        for (const auto& [s_b, value] : best) row.push_back(SparseEntry{s_b, value});
        normalize_row(row);
    }

    // Skeleton edge weights = X * Y over min-plus (Lemma 6.2's single
    // sparse product; densities rho_X <= k, rho_Y <= |S|, rho_XY <= |S|^2/n).
    const double s_count = static_cast<double>(skeleton.members.size());
    const double rho_bound = s_count * s_count / static_cast<double>(n) + 1.0;
    const SparseMatrix weights =
        charged_sparse_product(transport, "skeleton-product", x_rows, y_rows, rho_bound,
                               engine);

    // Materialize the undirected skeleton graph on compact indices.
    std::map<std::pair<int, int>, Weight> best_edge;
    for (NodeId s_a = 0; s_a < n; ++s_a) {
        const int ia = skeleton.member_index[static_cast<std::size_t>(s_a)];
        if (ia < 0) continue;
        for (const SparseEntry& e : weights[static_cast<std::size_t>(s_a)]) {
            const int ib = skeleton.member_index[static_cast<std::size_t>(e.node)];
            CCQ_CHECK(ib >= 0, "skeleton edge endpoint must be a skeleton node");
            if (ia == ib) continue;
            const auto key = std::make_pair(std::min(ia, ib), std::max(ia, ib));
            auto [it, inserted] = best_edge.try_emplace(key, e.dist);
            if (!inserted) it->second = min_weight(it->second, e.dist);
        }
    }
    skeleton.graph = Graph::undirected(static_cast<int>(skeleton.members.size()));
    for (const auto& [key, weight] : best_edge)
        skeleton.graph.add_edge(key.first, key.second, weight);
    return skeleton;
}

DistanceMatrix extend_skeleton_estimate(const SkeletonGraph& skeleton,
                                        const DistanceMatrix& delta_gs,
                                        const SparseMatrix& nk_rows,
                                        CliqueTransport& transport, std::string_view phase,
                                        const EngineConfig& engine)
{
    const int n = static_cast<int>(skeleton.center.size());
    const int s = skeleton.size();
    CCQ_EXPECT(delta_gs.size() == s, "extend_skeleton_estimate: delta_gs size mismatch");
    CCQ_EXPECT(static_cast<int>(nk_rows.size()) == n,
               "extend_skeleton_estimate: nk_rows size mismatch");
    PhaseScope scope(transport.ledger(), phase);

    // eta(u,v) = delta(u,c(u)) + delta_GS(c(u),c(v)) + delta(c(v),v),
    // computed as the matrix chain A^T * (D * A) of Lemma 6.3; both
    // products have constant-density operands, so O(1) rounds each.
    const double rho_d = static_cast<double>(s) * static_cast<double>(s) / std::max(1, n);
    transport.ledger().charge("product-DA",
                              sparse_product_rounds(rho_d, 1.0, static_cast<double>(s), n));
    transport.ledger().charge("product-AtB",
                              sparse_product_rounds(1.0, static_cast<double>(s),
                                                    static_cast<double>(n), n));

    std::vector<int> center_index(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u)
        center_index[static_cast<std::size_t>(u)] = skeleton.member_index[static_cast<std::size_t>(
            skeleton.center[static_cast<std::size_t>(u)])];
    const int* cidx = center_index.data();
    const Weight* cdelta = skeleton.center_delta.data();
    const Weight* gs = delta_gs.data();

    // Row u is min(f(u,v), f(v,u)) with f(u,v) = du + (delta_GS(cu,cv) + dv):
    // row c(u) of delta_GS gives f(u,.), a copy of its column c(u) gives
    // f(.,u), so every row is written once and no pass reads a column of eta.
    DistanceMatrix eta = DistanceMatrix::uninitialized(n);
    Weight* out = eta.data();
    parallel_chunks(engine.resolved_threads(), 0, n, 1, [&](int u_begin, int u_end) {
        std::vector<Weight> to_center(static_cast<std::size_t>(s));
        for (int u = u_begin; u < u_end; ++u) {
            const int cu = cidx[u];
            const Weight du = cdelta[u];
            const Weight* from_center = gs + static_cast<std::size_t>(cu) * s;
            for (int x = 0; x < s; ++x)
                to_center[static_cast<std::size_t>(x)] = gs[static_cast<std::size_t>(x) * s + cu];
            Weight* row = out + static_cast<std::size_t>(u) * n;
            for (int v = 0; v < n; ++v) {
                const int cv = cidx[v];
                const Weight dv = cdelta[v];
                const Weight forward = saturating_add(du, saturating_add(from_center[cv], dv));
                const Weight backward =
                    saturating_add(dv, saturating_add(to_center[static_cast<std::size_t>(cv)], du));
                row[v] = min_weight(forward, backward);
            }
        }
    });

    // Pairs covered by the k-nearest sets use delta directly (taking the
    // minimum keeps both the soundness and the upper bound); relaxing
    // both directions keeps eta symmetric.
    for (NodeId u = 0; u < n; ++u)
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)]) {
            eta.relax(u, e.node, e.dist);
            eta.relax(e.node, u, e.dist);
        }
    eta.set_diagonal_zero();
    return eta;
}

} // namespace ccq
