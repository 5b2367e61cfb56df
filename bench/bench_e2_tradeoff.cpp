// E2 — Theorem 1.2: round / approximation tradeoff.
//
// Paper claim: for any t >= 1, an O(log^{2^-t} n)-approximation in O(t)
// rounds.  The sweep varies the reduction budget t and reports the
// claimed and measured stretch next to the theoretical shape
// log^{2^-t} n.  Note the regime effect: at
// simulable n the O(log n) bootstrap is already below the constant 7 a
// reduction must pay, so the claimed factor saturates quickly — the
// doubly-exponential *shape* column shows what the formula predicts at
// scale.
#include "bench_helpers.hpp"

namespace {

using namespace ccq;
using bench::make_graph;
using bench::report_apsp;

void BM_TradeoffT(benchmark::State& state)
{
    const int t = static_cast<int>(state.range(0));
    const Graph g = make_graph(192, 11);
    ApspResult result;
    for (auto _ : state) result = apsp_tradeoff(g, t);
    report_apsp(state, g, result);
    state.counters["t"] = t;
    state.counters["shape_log_pow"] = tradeoff_stretch_shape(g.node_count(), t);
    // What the shape predicts for a large (non-simulable) instance, to
    // exhibit the doubly exponential decay the theorem is about.
    state.counters["shape_at_2pow30"] = tradeoff_stretch_shape(1 << 30, t);
}
BENCHMARK(BM_TradeoffT)->DenseRange(0, 4)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace
