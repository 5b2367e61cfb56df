// Common result and option types for the composed APSP algorithms.
#ifndef CCQ_CORE_APSP_RESULT_HPP
#define CCQ_CORE_APSP_RESULT_HPP

#include <cstdint>
#include <string>

#include "ccq/clique/ledger.hpp"
#include "ccq/clique/transport.hpp"
#include "ccq/common/parallel.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

/// Parameter schedules.
///
/// `paper` evaluates the literal asymptotic formulas (with safe clamps);
/// at simulable n these often collapse into the degenerate branches the
/// paper itself prescribes.  `practical` keeps the same algorithmic
/// structure but scales constants so every stage is genuinely exercised.
enum class ParamProfile { paper, practical };

struct ApspOptions {
    ParamProfile profile = ParamProfile::practical;
    std::uint64_t seed = 1;
    CostModel cost = CostModel::standard();
    /// Local-execution strategy of the min-plus engine (threads, dense
    /// block size).  Orthogonal to `cost`: results and simulated round
    /// charges are identical for every setting; only wall-clock changes.
    EngineConfig engine;
    /// eps of the weight-scaling lemma and the final stretch slack.
    double eps = 0.25;
    /// Theorem 1.2's t: maximum applications of the Lemma 3.1 reduction
    /// (-1 = run until the approximation stops improving; Theorems 1.1/7.1).
    int max_reduction_iterations = -1;
    /// Model the widened-bandwidth variants (Congested-Clique[log^3 n] in
    /// Theorem 7.1, [log^4 n] in Theorem 8.1): skeleton APSP becomes
    /// exact, improving 21 -> 7 and 7^4 -> 7^3.
    bool wide_bandwidth = false;
    /// Execute every k-nearest stage through the faithful Section 5.2
    /// bin / h-combination routing instead of the fast filtered-power
    /// path.  Identical results, real message movement, slower simulation.
    bool faithful_bin_scheme = false;
};

struct ApspResult {
    DistanceMatrix estimate;
    /// The approximation factor this execution *guarantees*, accumulated
    /// from the factors of the stages actually taken (e.g. 7 * l * a^2
    /// per skeleton extension).  Measured stretch must never exceed it.
    double claimed_stretch = 1.0;
    RoundLedger ledger;
    std::string algorithm;
};

} // namespace ccq

#endif // CCQ_CORE_APSP_RESULT_HPP
