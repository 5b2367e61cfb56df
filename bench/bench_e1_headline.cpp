// E1 — Theorem 1.1 headline comparison.
//
// Paper claim: a (7^4+eps)-approximation of weighted APSP in
// O(log log log n) rounds, vs prior work: exact APSP via matrix
// exponentiation (polynomial rounds, [CKK+19]) and O(log n)-approximation
// in O(1) rounds (CZ22).  The reproduction sweeps n per algorithm and
// reports simulated rounds plus claimed and measured stretch; the shape
// to check is that the new algorithm's measured stretch stays constant
// while its round count grows only triply-logarithmically (at simulable
// n the asymptotic round advantage over exact matmul is not yet
// visible).
#include "bench_helpers.hpp"

namespace {

using namespace ccq;
using bench::make_graph;
using bench::report_apsp;

void BM_ExactBaseline(benchmark::State& state)
{
    const Graph g = make_graph(static_cast<int>(state.range(0)));
    ApspResult result;
    for (auto _ : state) result = exact_apsp_clique(g);
    report_apsp(state, g, result);
}
BENCHMARK(BM_ExactBaseline)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// Serial-vs-parallel ablation of the min-plus engine under the exact
// baseline: same graph, same simulated round charges, different
// EngineConfig.  Only the wall-time column may move.
void BM_ExactBaselineEngineAblation(benchmark::State& state)
{
    const Graph g = make_graph(256);
    ApspOptions options;
    options.engine = EngineConfig{static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1))};
    ApspResult result;
    for (auto _ : state) result = exact_apsp_clique(g, options);
    report_apsp(state, g, result);
    state.counters["threads"] = static_cast<double>(options.engine.threads);
    state.counters["block_size"] = static_cast<double>(options.engine.block_size);
}
BENCHMARK(BM_ExactBaselineEngineAblation)
    ->ArgNames({"threads", "block"})
    ->ArgsProduct({{1, 4}, {64}})
    ->Unit(benchmark::kMillisecond);

void BM_LognBaselineCZ22(benchmark::State& state)
{
    const Graph g = make_graph(static_cast<int>(state.range(0)));
    ApspResult result;
    for (auto _ : state) result = logn_approx_apsp(g);
    report_apsp(state, g, result);
}
BENCHMARK(BM_LognBaselineCZ22)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_GeneralTheorem11(benchmark::State& state)
{
    const Graph g = make_graph(static_cast<int>(state.range(0)));
    ApspResult result;
    for (auto _ : state) result = apsp_general(g);
    report_apsp(state, g, result);
}
BENCHMARK(BM_GeneralTheorem11)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_GeneralAcrossFamilies(benchmark::State& state)
{
    const auto family = static_cast<GraphFamily>(state.range(0));
    const Graph g = make_graph(128, 7, 100, family);
    state.SetLabel(family_name(family));
    ApspResult result;
    for (auto _ : state) result = apsp_general(g);
    report_apsp(state, g, result);
}
BENCHMARK(BM_GeneralAcrossFamilies)
    ->Arg(static_cast<int>(GraphFamily::erdos_renyi_sparse))
    ->Arg(static_cast<int>(GraphFamily::erdos_renyi_dense))
    ->Arg(static_cast<int>(GraphFamily::geometric))
    ->Arg(static_cast<int>(GraphFamily::clustered))
    ->Arg(static_cast<int>(GraphFamily::barabasi_albert))
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace
