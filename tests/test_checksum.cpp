// The snapshot checksum kernel against its definition: fnv1a_update must
// equal the byte-serial FNV-1a loop (fnv1a_update_reference) for every
// length, start hash and byte pattern, on every ISA this binary can run.
// ISAs the host CPU lacks are skipped, never failed; an ISA whose kernel
// needs extensions the CPU lacks runs the byte loop and must still agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ccq/matrix/kernels/kernels.hpp"
#include "ccq/serve/checksum.hpp"

namespace ccq {
namespace {

using kernels::Isa;

/// RAII ISA force for one test scope.
struct ScopedIsa {
    explicit ScopedIsa(Isa isa) { kernels::set_isa_override(isa); }
    ~ScopedIsa() { kernels::set_isa_override(std::nullopt); }
};

std::string random_bytes(std::size_t size, std::mt19937_64& rng)
{
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
    return bytes;
}

std::string pattern_bytes(std::size_t size, int pattern, std::mt19937_64& rng)
{
    switch (pattern) {
    case 0: return std::string(size, '\x00');
    case 1: return std::string(size, '\xff');
    case 2: {
        std::string bytes(size, '\0');
        for (std::size_t i = 1; i < size; i += 2) bytes[i] = '\xff';
        return bytes;
    }
    default: return random_bytes(size, rng);
    }
}

const char* const kPatternNames[] = {"all 0x00", "all 0xFF", "alternating 0x00/0xFF", "random"};

std::string label(Isa isa) { return std::string("isa=") + kernels::isa_name(isa); }

TEST(Checksum, KnownFnv1aVectors)
{
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        EXPECT_EQ(fnv1a_update(kFnvOffset, ""), kFnvOffset) << label(isa);
        EXPECT_EQ(fnv1a_update(kFnvOffset, "a"), 0xaf63dc4c8601ec8cULL) << label(isa);
        EXPECT_EQ(fnv1a_update(kFnvOffset, "foobar"), 0x85944171f73967e8ULL) << label(isa);
    }
}

TEST(Checksum, KernelMatchesTheByteLoopForEveryLengthUpTo1100)
{
    std::mt19937_64 rng(1);
    const std::string bytes = random_bytes(1100, rng);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        for (std::size_t length = 0; length <= bytes.size(); ++length) {
            const std::uint64_t start = rng();
            const std::string_view view(bytes.data(), length);
            ASSERT_EQ(fnv1a_update(start, view), fnv1a_update_reference(start, view))
                << label(isa) << " length=" << length;
        }
    }
}

TEST(Checksum, KernelMatchesTheByteLoopForRandomLengthsUpTo3MiB)
{
    std::mt19937_64 rng(2);
    const std::string bytes = random_bytes(std::size_t{3} << 20, rng);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        for (int trial = 0; trial < 12; ++trial) {
            // A random offset also exercises unaligned starts.
            const std::size_t offset = rng() % 64;
            const std::size_t length =
                trial == 0 ? bytes.size() - offset : rng() % (bytes.size() - offset + 1);
            const std::uint64_t start = trial % 2 == 0 ? kFnvOffset : rng();
            const std::string_view view(bytes.data() + offset, length);
            ASSERT_EQ(fnv1a_update(start, view), fnv1a_update_reference(start, view))
                << label(isa) << " offset=" << offset << " length=" << length;
        }
    }
}

TEST(Checksum, KernelMatchesTheByteLoopForEveryStartLowByte)
{
    std::mt19937_64 rng(3);
    const std::string bytes = random_bytes(4096 + 37, rng);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        for (std::uint64_t low = 0; low < 256; ++low) {
            const std::uint64_t start = (rng() & ~std::uint64_t{0xff}) | low;
            ASSERT_EQ(fnv1a_update(start, bytes), fnv1a_update_reference(start, bytes))
                << label(isa) << " low byte=" << low;
        }
    }
}

TEST(Checksum, KernelMatchesTheByteLoopOnAdversarialPayloads)
{
    std::mt19937_64 rng(4);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        for (int pattern = 0; pattern < 4; ++pattern)
            for (const std::size_t size :
                 {std::size_t{512}, std::size_t{4096 + 13}, (std::size_t{1} << 20) + 7}) {
                const std::string bytes = pattern_bytes(size, pattern, rng);
                for (const std::uint64_t start : {kFnvOffset, std::uint64_t{0}, ~std::uint64_t{0}})
                    ASSERT_EQ(fnv1a_update(start, bytes), fnv1a_update_reference(start, bytes))
                        << label(isa) << " " << kPatternNames[pattern] << " size=" << size
                        << " start=" << start;
            }
    }
}

TEST(Checksum, SplitUpdatesCompose)
{
    std::mt19937_64 rng(5);
    const std::string bytes = random_bytes(300000, rng);
    const std::string_view all(bytes);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa scoped(isa);
        const std::uint64_t whole = fnv1a_update(kFnvOffset, all);
        ASSERT_EQ(whole, fnv1a_update_reference(kFnvOffset, all)) << label(isa);
        for (const std::size_t split :
             {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{511},
              std::size_t{512}, std::size_t{1024}, std::size_t{4099}, std::size_t{150001},
              all.size() - 700, all.size()}) {
            const std::uint64_t head = fnv1a_update(kFnvOffset, all.substr(0, split));
            EXPECT_EQ(fnv1a_update(head, all.substr(split)), whole)
                << label(isa) << " split=" << split;
        }
    }
}

TEST(Checksum, KernelSelectionFollowsTheIsaOverride)
{
    {
        ScopedIsa scoped(Isa::scalar);
        EXPECT_STREQ(checksum_isa(), "scalar");
    }
    if (kernels::isa_supported(Isa::avx2)) {
        ScopedIsa scoped(Isa::avx2); // no AVX2 variant: the byte loop
        EXPECT_STREQ(checksum_isa(), "scalar");
    }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (kernels::isa_supported(Isa::avx512)) {
        ScopedIsa scoped(Isa::avx512);
        const bool extensions = __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("pclmul");
        EXPECT_STREQ(checksum_isa(), extensions ? "avx512" : "scalar");
    }
#endif
}

} // namespace
} // namespace ccq
