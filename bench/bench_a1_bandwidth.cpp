// A1 (ablation) — bandwidth: what Congested-Clique[B] buys.
//
// The bandwidth ladder is a design choice worth ablating: the
// paper uses B = log n (Thm 1.1), log^3 n (Thm 7.1's 7-approx), and
// log^4 n (Thm 8.1).  This sweep runs the same pipeline under increasing
// per-link bandwidth and reports how simulated rounds fall and which
// guarantee tier unlocks (exact skeleton APSP under wide bandwidth).
#include "bench_helpers.hpp"

namespace {

using namespace ccq;
using bench::make_graph;
using bench::report_apsp;

void BM_BandwidthLadder(benchmark::State& state)
{
    const int power = static_cast<int>(state.range(0));
    const int n = 160;
    const Graph g = make_graph(n, 71);
    ApspOptions options;
    options.cost = CostModel::with_log_power_bandwidth(n, power);
    options.wide_bandwidth = power >= 3;
    ApspResult result;
    // The Theorem 1.1 pipeline: its k-nearest stages route loads well
    // above n words/node, so widening the links genuinely cuts rounds
    // (until every primitive reaches the 1-round floor).
    for (auto _ : state) result = apsp_general(g, options);
    report_apsp(state, g, result);
    state.counters["bandwidth_power"] = power;
    state.counters["bandwidth_words"] = options.cost.bandwidth_words;
}
BENCHMARK(BM_BandwidthLadder)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_LenzenFactorSensitivity(benchmark::State& state)
{
    // The simulator's one free constant: rounds charged per full routing
    // batch.  Total rounds must scale exactly linearly with it, which
    // demonstrates that reported shapes are constant-independent.
    const double factor = static_cast<double>(state.range(0));
    const int n = 160;
    const Graph g = make_graph(n, 72);
    ApspOptions options;
    options.cost.lenzen_round_factor = factor;
    ApspResult result;
    for (auto _ : state) result = apsp_general(g, options);
    report_apsp(state, g, result);
    state.counters["lenzen_factor"] = factor;
    state.counters["rounds_per_factor"] = result.ledger.total_rounds() / factor;
}
BENCHMARK(BM_LenzenFactorSensitivity)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace
