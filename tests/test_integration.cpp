// Cross-module integration tests: multi-seed end-to-end sweeps, ledger
// accounting consistency, adversarial tie-heavy instances, and pipeline
// chains that combine the wrappers (zero weights + every algorithm kind).
#include <gtest/gtest.h>

#include <cmath>

#include "ccq/apsp.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;
using testing::expect_valid_approximation;

struct SeedCase {
    std::uint64_t seed;
    [[nodiscard]] std::string label() const { return "seed" + std::to_string(seed); }
};

class MultiSeedEndToEnd : public ::testing::TestWithParam<SeedCase> {};

// The full ladder on a fresh random instance per seed: every algorithm
// must be sound and within its own claim, and better guarantees must be
// compatible (not contradicted by measurements).
TEST_P(MultiSeedEndToEnd, FullLadderSoundness)
{
    Rng rng(GetParam().seed);
    const Graph g = erdos_renyi(72, 0.1, WeightRange{1, 200}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    ApspOptions options;
    options.seed = GetParam().seed;

    for (const ApspAlgorithmKind kind :
         {ApspAlgorithmKind::logn_baseline, ApspAlgorithmKind::loglog,
          ApspAlgorithmKind::small_diameter, ApspAlgorithmKind::large_bandwidth,
          ApspAlgorithmKind::general}) {
        const DistanceOracle oracle(g, kind, options);
        expect_valid_approximation(exact, oracle.result().estimate, oracle.claimed_stretch(),
                                   std::string(algorithm_kind_name(kind)) + "/" +
                                       GetParam().label());
    }
}

// Ties everywhere: uniform weights make every selection rule hit its
// (dist, id) tie-breaking path; the bin scheme, hopset, skeleton and
// hitting set must all stay deterministic and sound.
TEST_P(MultiSeedEndToEnd, UniformWeightTieStress)
{
    Rng rng(GetParam().seed + 100);
    const Graph g = erdos_renyi(64, 0.12, WeightRange{7, 7}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    ApspOptions options;
    options.seed = GetParam().seed;
    const ApspResult a = apsp_general(g, options);
    const ApspResult b = apsp_general(g, options);
    EXPECT_EQ(a.estimate, b.estimate) << "tie-breaking must be deterministic";
    expect_valid_approximation(exact, a.estimate, a.claimed_stretch, "ties");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSeedEndToEnd,
                         ::testing::Values(SeedCase{101}, SeedCase{202}, SeedCase{303},
                                           SeedCase{404}, SeedCase{505}),
                         testing::InstanceSpecName{});

TEST(Integration, LedgerPhaseTotalsMatchGrandTotal)
{
    Rng rng(1);
    const Graph g = erdos_renyi(64, 0.1, WeightRange{1, 40}, rng);
    const ApspResult result = apsp_general(g);
    double sum = 0.0;
    for (const PhaseTotal& total : result.ledger.top_level_totals()) sum += total.rounds;
    EXPECT_NEAR(sum, result.ledger.total_rounds(), 1e-6);
}

TEST(Integration, ZeroWeightWrapperComposesWithEveryKind)
{
    Rng rng(2);
    Graph g = erdos_renyi(48, 0.15, WeightRange{1, 30}, rng);
    g.add_edge(3, 4, 0);
    g.add_edge(4, 5, 0);
    const DistanceMatrix exact = exact_apsp(g);
    for (const ApspAlgorithmKind kind :
         {ApspAlgorithmKind::exact_baseline, ApspAlgorithmKind::loglog,
          ApspAlgorithmKind::general}) {
        const DistanceOracle oracle(g, kind);
        expect_valid_approximation(exact, oracle.result().estimate, oracle.claimed_stretch(),
                                   algorithm_kind_name(kind));
        EXPECT_EQ(oracle.distance(3, 5), 0);
    }
}

TEST(Integration, EndToEndRoutingFromOracleBackbone)
{
    // Full user story: approximate APSP -> spanner backbone -> next-hop
    // tables -> forwarded routes bounded by the backbone stretch.
    Rng rng(3);
    const Graph g = clustered_graph(64, 4, 0.4, 0.02, WeightRange{1, 20}, 8, rng);
    const SpannerResult backbone = baswana_sen_spanner(g, 2, rng);
    const RoutingTables tables = build_routing_tables(backbone.spanner);
    const DistanceMatrix exact = exact_apsp(g);
    for (NodeId u = 0; u < 64; u += 9) {
        for (NodeId v = 0; v < 64; v += 7) {
            if (u == v) continue;
            const Weight len = route_length(g, tables.route(u, v));
            EXPECT_LE(len, 3 * exact.at(u, v));
        }
    }
}

TEST(Integration, SerializedInstanceReproducesResults)
{
    Rng rng(4);
    const Graph g = erdos_renyi(48, 0.12, WeightRange{1, 60}, rng);
    const std::string path = ::testing::TempDir() + "/ccq_integration.graph";
    save_graph(path, g);
    const Graph loaded = load_graph(path);
    ApspOptions options;
    options.seed = 9;
    EXPECT_EQ(apsp_general(g, options).estimate, apsp_general(loaded, options).estimate);
}

TEST(Integration, ScaleSweepKeepsGuarantees)
{
    for (const int n : {32, 64, 128, 192}) {
        Rng rng(static_cast<std::uint64_t>(n));
        const Graph g = erdos_renyi(n, 6.0 / n, WeightRange{1, 100}, rng);
        const ApspResult result = apsp_general(g);
        expect_valid_approximation(exact_apsp(g), result.estimate, result.claimed_stretch,
                                   "n=" + std::to_string(n));
    }
}

TEST(Integration, HeavyTailWeightsEndToEnd)
{
    // Exponentially spread weights force the weight-scaling lemma to use
    // many levels inside Theorem 8.1.
    Rng rng(5);
    Graph g = random_tree(56, WeightRange{1, 1}, rng);
    NodeId i = 0;
    for (const WeightedEdge& e : g.edge_list()) {
        (void)e;
        ++i;
    }
    Graph heavy = Graph::undirected(56);
    Weight w = 1;
    for (const WeightedEdge& e : g.edge_list()) {
        heavy.add_edge(e.u, e.v, w);
        w = std::min<Weight>(w * 3, 1'000'000);
    }
    const ApspResult result = apsp_large_bandwidth(heavy);
    expect_valid_approximation(exact_apsp(heavy), result.estimate, result.claimed_stretch,
                               "heavy-tail");
}

TEST(Integration, ParamProfilesAgreeOnSoundness)
{
    Rng rng(6);
    const Graph g = erdos_renyi(64, 0.1, WeightRange{1, 50}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    for (const ParamProfile profile : {ParamProfile::practical, ParamProfile::paper}) {
        ApspOptions options;
        options.profile = profile;
        for (const auto& run :
             {apsp_small_diameter(g, options), apsp_large_bandwidth(g, options),
              apsp_general(g, options), apsp_loglog(g, options)}) {
            expect_valid_approximation(exact, run.estimate, run.claimed_stretch,
                                       run.algorithm);
        }
    }
}

TEST(Integration, StarAndPathExtremesAcrossAlgorithms)
{
    // Star: 2-hop diameter; path: maximal hop diameter — the two ends of
    // the hopset/k-nearest difficulty spectrum.
    Rng rng(7);
    for (const GraphFamily family : {GraphFamily::star, GraphFamily::path}) {
        const Graph g = make_family_instance(family, 48, WeightRange{1, 30}, rng);
        const DistanceMatrix exact = exact_apsp(g);
        for (const auto& run : {apsp_loglog(g), apsp_general(g)}) {
            expect_valid_approximation(exact, run.estimate, run.claimed_stretch,
                                       std::string(family_name(family)) + "/" + run.algorithm);
        }
    }
}

TEST(Integration, FaithfulBinSchemeMatchesFastPathEndToEnd)
{
    // The entire Theorem 1.1 / Section 3.2 pipelines executed with the
    // routed Section 5.2 bin scheme must produce the same estimates as
    // the fast path (the rows are provably identical; this checks the
    // plumbing end to end).
    Rng rng(8);
    const Graph g = erdos_renyi(56, 0.12, WeightRange{1, 40}, rng);
    ApspOptions fast;
    fast.seed = 5;
    ApspOptions faithful = fast;
    faithful.faithful_bin_scheme = true;
    EXPECT_EQ(apsp_general(g, fast).estimate, apsp_general(g, faithful).estimate);
    EXPECT_EQ(apsp_loglog(g, fast).estimate, apsp_loglog(g, faithful).estimate);
}

// EngineConfig only maps the simulated nodes' local min-plus work onto
// OS threads and kernel variants: estimates, claimed stretch and every
// ledger charge (phase, rounds, words) must be identical under a serial
// forced-i64 run, a 4-thread small-block narrow-if-safe run and the
// default configuration, for every algorithm kind.
TEST(Integration, EngineConfigNeverChangesOutputsOrRoundCharges)
{
    EngineConfig serial_wide = EngineConfig::serial();
    serial_wide.width = KernelWidth::kWide;
    EngineConfig threaded_narrow{4, 8};
    threaded_narrow.width = KernelWidth::kNarrowIfSafe;

    std::uint64_t narrow_products = 0;
    for (const GraphFamily family :
         {GraphFamily::erdos_renyi_sparse, GraphFamily::geometric, GraphFamily::grid}) {
        Rng rng(11);
        const Graph g = make_family_instance(family, 80, WeightRange{1, 100}, rng);
        for (const ApspAlgorithmKind kind :
             {ApspAlgorithmKind::exact_baseline, ApspAlgorithmKind::logn_baseline,
              ApspAlgorithmKind::loglog, ApspAlgorithmKind::small_diameter,
              ApspAlgorithmKind::large_bandwidth, ApspAlgorithmKind::general}) {
            const std::string label =
                std::string(family_name(family)) + "/" + algorithm_kind_name(kind);
            ApspOptions options;
            options.seed = 3;
            options.engine = serial_wide;
            const std::uint64_t reference_narrow_before = engine_counters().products_narrow;
            const DistanceOracle reference(g, kind, options);
            EXPECT_EQ(engine_counters().products_narrow, reference_narrow_before)
                << label << ": kWide must never run a narrow product";
            for (const EngineConfig& config : {threaded_narrow, EngineConfig{}}) {
                options.engine = config;
                const std::uint64_t narrow_before = engine_counters().products_narrow;
                const DistanceOracle oracle(g, kind, options);
                narrow_products += engine_counters().products_narrow - narrow_before;
                const ApspResult& want = reference.result();
                const ApspResult& got = oracle.result();
                EXPECT_TRUE(got.estimate == want.estimate) << label;
                EXPECT_EQ(got.claimed_stretch, want.claimed_stretch) << label;
                const std::vector<LedgerEntry>& want_entries = want.ledger.entries();
                const std::vector<LedgerEntry>& got_entries = got.ledger.entries();
                ASSERT_EQ(got_entries.size(), want_entries.size()) << label;
                for (std::size_t i = 0; i < want_entries.size(); ++i) {
                    EXPECT_EQ(got_entries[i].phase, want_entries[i].phase) << label << " #" << i;
                    EXPECT_EQ(got_entries[i].rounds, want_entries[i].rounds)
                        << label << " " << want_entries[i].phase;
                    EXPECT_EQ(got_entries[i].words, want_entries[i].words)
                        << label << " " << want_entries[i].phase;
                }
            }
        }
    }
    // The narrow-if-safe configs must actually have exercised the i32
    // kernels, or the comparison above only pitted i64 against i64.
    EXPECT_GT(narrow_products, 0u);
}

} // namespace
} // namespace ccq
