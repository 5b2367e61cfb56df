// Shared fixtures and assertion helpers for the ccq test suite.
#ifndef CCQ_TESTS_TEST_HELPERS_HPP
#define CCQ_TESTS_TEST_HELPERS_HPP

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ccq/core/stretch.hpp"
#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"

namespace ccq::testing {

/// A (family, n, seed) test-instance descriptor for parameterized sweeps.
struct InstanceSpec {
    GraphFamily family = GraphFamily::erdos_renyi_sparse;
    int n = 32;
    std::uint64_t seed = 1;
    Weight max_weight = 100;

    [[nodiscard]] std::string label() const
    {
        return std::string(family_name(family)) + "_n" + std::to_string(n) + "_s" +
               std::to_string(seed) + "_w" + std::to_string(max_weight);
    }
};

inline Graph make_instance(const InstanceSpec& spec)
{
    Rng rng(spec.seed);
    return make_family_instance(spec.family, spec.n, WeightRange{1, spec.max_weight}, rng);
}

/// Pretty-printer so gtest names parameterized cases readably.
struct InstanceSpecName {
    template <class ParamType>
    std::string operator()(const ::testing::TestParamInfo<ParamType>& info) const
    {
        return info.param.label();
    }
};

/// Asserts that `estimate` is a valid `claimed`-approximation of `exact`:
/// never below the true distance, never above claimed * distance, and
/// agreeing on reachability.
inline void expect_valid_approximation(const DistanceMatrix& exact,
                                       const DistanceMatrix& estimate, double claimed,
                                       const std::string& context)
{
    const StretchReport report = evaluate_stretch(exact, estimate);
    EXPECT_EQ(report.lower_bound_violations, 0u) << context << ": estimate below true distance";
    EXPECT_EQ(report.reachability_mismatches, 0u) << context << ": reachability mismatch";
    EXPECT_LE(report.max_stretch, claimed + 1e-9)
        << context << ": measured stretch exceeds the claimed factor";
}

/// A file under the test temp directory holding `bytes`, removed when
/// the object goes out of scope.  Snapshot readers map their input, so
/// byte-level snapshot cases go through one of these.
class TempFile {
public:
    TempFile(const std::string& name, const std::string& bytes)
        : path_(::testing::TempDir() + name)
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ~TempFile() { std::remove(path_.c_str()); }
    TempFile(const TempFile&) = delete;
    TempFile& operator=(const TempFile&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

} // namespace ccq::testing

#endif // CCQ_TESTS_TEST_HELPERS_HPP
