// FNV-1a 64, the snapshot envelope's checksum (docs/SNAPSHOTS.md).
//
// The format fixes the function: for every payload byte b,
//
//   h = (h ^ b) * P,   P = 0x100000001b3,   h starting at 0xcbf29ce484222325.
//
// Written that way every byte waits on the previous multiply, about four
// cycles per byte.  fnv1a_update returns the same 64-bit value without
// that chain on hosts that allow it; fnv1a_update_reference keeps the
// byte loop as the definition the kernel is tested against.
#ifndef CCQ_SERVE_CHECKSUM_HPP
#define CCQ_SERVE_CHECKSUM_HPP

#include <cstdint>
#include <string_view>

namespace ccq {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Continues an FNV-1a hash over `bytes`, one byte at a time.
[[nodiscard]] std::uint64_t fnv1a_update_reference(std::uint64_t hash,
                                                   std::string_view bytes) noexcept;

/// Continues an FNV-1a hash over `bytes`; equal to fnv1a_update_reference
/// for every hash and input, so a payload hashed in chunks hashes like
/// the whole payload at once.  Whole 512-byte groups run on the kernel
/// checksum_isa() names, the rest on the byte loop.
[[nodiscard]] std::uint64_t fnv1a_update(std::uint64_t hash, std::string_view bytes);

/// The kernel fnv1a_update uses right now: "avx512" when the dispatched
/// min-plus ISA (kernels::dispatch_isa, so CCQ_SIMD and set_isa_override
/// apply) is avx512 and the CPU also has AVX-512BW/DQ and PCLMUL;
/// otherwise "scalar" (the reference loop).
[[nodiscard]] const char* checksum_isa();

} // namespace ccq

#endif // CCQ_SERVE_CHECKSUM_HPP
