// FNV-1a, the project's one byte-stream hash: the snapshot payload
// integrity digest, the substrate fingerprint and the invariant auditor's
// dedup keys for string-valued violations.
#pragma once

#include <cstddef>
#include <cstdint>

namespace htnoc {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// Fold `n` bytes into an FNV-1a hash, continuing from `h`.
[[nodiscard]] inline std::uint64_t fnv1a(
    const void* data, std::size_t n,
    std::uint64_t h = kFnvOffsetBasis) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one 64-bit word into an FNV-1a hash, byte by byte, least
/// significant first (the same bytes on every host).
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace htnoc
