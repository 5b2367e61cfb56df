#include "ccq/serve/checksum.hpp"

#include <array>
#include <cstddef>

#include "ccq/matrix/kernels/kernels.hpp"

#ifdef CCQ_KERNELS_X86
#include <immintrin.h>

#if defined(__GNUC__) && !defined(__clang__)
// The AVX-512 extract/align/convert intrinsics pass an undefined vector
// as the (fully masked out) merge source, which GCC reports as
// uninitialized (GCC PR105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

// How the chain is broken.  Write l_i for the low byte of h_i and
// y_i = l_i ^ b_i.  XOR with a byte only changes the low byte, so
//
//   h_{i+1} = (h_i ^ b_i) P = (h_i + d_i) P,   d_i = y_i - l_i,
//
// and unrolling gives a sum of independent products,
//
//   h_N = h_0 P^N + sum_i d_i P^(N-i).
//
// Only the low bytes stay serial: l_{i+1} = y_i * 0xB3 mod 256 (0xB3 is
// the low byte of P).  Bit k of y*0xB3 is y_k ^ bit_k((y mod 2^k) * 0xB3)
// because 0xB3 is odd, so bit plane k of the low bytes obeys
//
//   l_{i+1,k} = l_{i,k} ^ b_{i,k} ^ bit_k((y_i mod 2^k) * 0xB3):
//
// once planes 0..k-1 are known, plane k is a prefix XOR.  The kernel
// holds 64 bytes per AVX-512 register, turns each plane into a 64-bit
// mask, prefix-XORs it with one carry-less multiply by all-ones, and
// carries one bit per plane from block to block.  A group of eight
// blocks stays in registers and each plane runs across all eight before
// the next plane starts, so the eight blocks' chains overlap.
//
// The sum first folds each byte pair into one term, e = d_{2w} P +
// d_{2w+1} (cheap: P = 2^40 + 435), then keeps 32 pair accumulators
// A_w: per group of 8 blocks A_w <- A_w P^512 + sum_j e_{j,w} P^(64(7-j)),
// and at the end sum_w A_w P^(64-(2w+1)) is the whole sum.  Everything
// is exact integer arithmetic mod 2^64, so the result is bit-identical
// to the byte loop.

namespace ccq {
namespace {

#ifdef CCQ_KERNELS_X86

constexpr std::size_t kBlockBytes = 64;
constexpr std::size_t kGroupBlocks = 8;
constexpr std::size_t kGroupBytes = kBlockBytes * kGroupBlocks;

[[nodiscard]] constexpr std::uint64_t prime_power(std::uint64_t exponent) noexcept
{
    std::uint64_t result = 1;
    std::uint64_t base = kFnvPrime;
    for (; exponent != 0; exponent >>= 1) {
        if ((exponent & 1) != 0) result *= base;
        base *= base;
    }
    return result;
}

/// Lane L of pair accumulator a holds the pair of bytes (2w, 2w+1) of a
/// block, w = 16 (a / 2) + 4 (L / 2) + 2 (a % 2) + L % 2 (the order
/// unpacklo/unpackhi leave them in); its weight is P^(64 - (2w+1)).
constexpr std::array<std::uint64_t, kBlockBytes / 2> kPairWeights = [] {
    std::array<std::uint64_t, kBlockBytes / 2> weights{};
    for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t lane = 0; lane < 8; ++lane) {
            const std::size_t w = 16 * (a / 2) + 4 * (lane / 2) + 2 * (a % 2) + lane % 2;
            weights[8 * a + lane] = prime_power(kBlockBytes - (2 * w + 1));
        }
    return weights;
}();

#define CCQ_FNV_TARGET __attribute__((target("avx512f,avx512bw,avx512dq,pclmul")))

/// Inclusive prefix XOR of the 64 bits of `mask`: bit i of the result
/// is the XOR of bits 0..i (carry-less product with all-ones).
CCQ_FNV_TARGET inline std::uint64_t prefix_xor(std::uint64_t mask)
{
    const __m128i product = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(mask)), _mm_set1_epi64x(-1), 0);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(product));
}

/// FNV-1a over groups * 512 bytes starting from `hash`.
CCQ_FNV_TARGET std::uint64_t fnv1a_groups_avx512(std::uint64_t hash, const unsigned char* bytes,
                                                std::size_t groups)
{
    __m512i block_weight[kGroupBlocks]; // P^(64 (7 - j))
    for (std::size_t j = 0; j < kGroupBlocks; ++j)
        block_weight[j] = _mm512_set1_epi64(
            static_cast<long long>(prime_power(kBlockBytes * (kGroupBlocks - 1 - j))));
    const __m512i group_weight =
        _mm512_set1_epi64(static_cast<long long>(prime_power(kGroupBytes)));

    __m512i acc[4]; // pair accumulators, see kPairWeights
    for (__m512i& a : acc) a = _mm512_setzero_si512();
    unsigned low = static_cast<unsigned>(hash & 0xff);
    // Bytes of the previous block's z (its last byte is the low byte
    // entering the next block).
    __m512i prev_z = _mm512_set1_epi8(static_cast<char>(low));

    for (std::size_t g = 0; g < groups; ++g) {
        const unsigned char* base = bytes + g * kGroupBytes;
        __m512i b[kGroupBlocks];
        // z_i = (y_i mod 2^k) * 0xB3 mod 256 after plane k-1; after all
        // eight planes z_i = y_i * 0xB3 = l_{i+1}.
        __m512i z[kGroupBlocks];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kGroupBlocks; ++j) {
            b[j] = _mm512_loadu_si512(base + j * kBlockBytes);
            z[j] = _mm512_setzero_si512();
        }
        unsigned low_out = 0;
#pragma GCC unroll 8
        for (int k = 0; k < 8; ++k) {
            const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << k));
            const __m512i step = _mm512_set1_epi8(static_cast<char>((0xB3u << k) & 0xffu));
            // All ones when bit k of the low byte entering the block is set.
            std::uint64_t carry = 0 - static_cast<std::uint64_t>((low >> k) & 1u);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < kGroupBlocks; ++j) {
                const std::uint64_t b_k = _cvtmask64_u64(_mm512_test_epi8_mask(b[j], bit));
                const std::uint64_t flips = _cvtmask64_u64(
                    _mm512_test_epi8_mask(_mm512_xor_si512(b[j], z[j]), bit));
                const std::uint64_t prefix = prefix_xor(flips);
                const std::uint64_t l_k = (prefix << 1) ^ carry;
                carry ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(prefix) >> 63);
                // y_k = l_k ^ b_k: add y_k * (0xB3 << k) into z.
                z[j] = _mm512_mask_add_epi8(z[j], _cvtu64_mask64(l_k ^ b_k), z[j], step);
            }
            low_out |= static_cast<unsigned>(carry & 1u) << k;
        }
        low = low_out;

        __m512i group_sum[4] = {};
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kGroupBlocks; ++j) {
            // l_i = z_{i-1}, the first from the previous block's last byte.
            const __m512i l =
                _mm512_alignr_epi8(z[j], _mm512_alignr_epi64(z[j], prev_z, 6), 15);
            prev_z = z[j];
            // d = y - l = b - 2 (l & b), in [-255, 255], as 16-bit lanes.
            const __m512i lb = _mm512_and_si512(l, b[j]);
#pragma GCC unroll 2
            for (int half = 0; half < 2; ++half) {
                const __m256i b8 =
                    half == 0 ? _mm512_castsi512_si256(b[j]) : _mm512_extracti64x4_epi64(b[j], 1);
                const __m256i lb8 =
                    half == 0 ? _mm512_castsi512_si256(lb) : _mm512_extracti64x4_epi64(lb, 1);
                const __m512i lb16 = _mm512_cvtepu8_epi16(lb8);
                const __m512i d16 = _mm512_sub_epi16(_mm512_cvtepu8_epi16(b8),
                                                     _mm512_add_epi16(lb16, lb16));
                // Fold each pair into one 64-bit term, d_{2w} P + d_{2w+1}
                // with P = 2^40 + 435: the low dword is
                // lo = d_{2w} 435 + d_{2w+1} (sign-extended), the high dword
                // d_{2w} 2^8 minus lo's borrow.
                const __m512i lo = _mm512_madd_epi16(d16, _mm512_set1_epi32(0x000101b3));
                const __m512i hi =
                    _mm512_add_epi32(_mm512_madd_epi16(d16, _mm512_set1_epi32(0x100)),
                                     _mm512_srai_epi32(lo, 31));
                const __m512i pairs[2] = {_mm512_unpacklo_epi32(lo, hi),
                                          _mm512_unpackhi_epi32(lo, hi)};
#pragma GCC unroll 2
                for (int q = 0; q < 2; ++q) {
                    const int a = half * 2 + q;
                    const __m512i term = j + 1 == kGroupBlocks
                                             ? pairs[q]
                                             : _mm512_mullo_epi64(pairs[q], block_weight[j]);
                    group_sum[a] = _mm512_add_epi64(group_sum[a], term);
                }
            }
        }
#pragma GCC unroll 4
        for (int a = 0; a < 4; ++a)
            acc[a] = _mm512_add_epi64(_mm512_mullo_epi64(acc[a], group_weight), group_sum[a]);
    }

    alignas(64) std::uint64_t lanes[kPairWeights.size()];
    for (int a = 0; a < 4; ++a) _mm512_store_si512(lanes + 8 * a, acc[a]);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kPairWeights.size(); ++i) sum += lanes[i] * kPairWeights[i];
    return hash * prime_power(groups * kGroupBytes) + sum;
}

#undef CCQ_FNV_TARGET

[[nodiscard]] bool cpu_has_kernel_extensions()
{
    static const bool has = __builtin_cpu_supports("avx512bw") != 0 &&
                            __builtin_cpu_supports("avx512dq") != 0 &&
                            __builtin_cpu_supports("pclmul") != 0;
    return has;
}

#endif // CCQ_KERNELS_X86

[[nodiscard]] bool use_kernel()
{
#ifdef CCQ_KERNELS_X86
    // dispatch_isa's avx512 proves only AVX-512F.
    return kernels::dispatch_isa() == kernels::Isa::avx512 && cpu_has_kernel_extensions();
#else
    return false;
#endif
}

} // namespace

std::uint64_t fnv1a_update_reference(std::uint64_t hash, std::string_view bytes) noexcept
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t fnv1a_update(std::uint64_t hash, std::string_view bytes)
{
#ifdef CCQ_KERNELS_X86
    const std::size_t groups = bytes.size() / kGroupBytes;
    if (groups > 0 && use_kernel()) {
        hash = fnv1a_groups_avx512(hash, reinterpret_cast<const unsigned char*>(bytes.data()),
                                   groups);
        bytes.remove_prefix(groups * kGroupBytes);
    }
#endif
    return fnv1a_update_reference(hash, bytes);
}

const char* checksum_isa() { return use_kernel() ? "avx512" : "scalar"; }

} // namespace ccq
