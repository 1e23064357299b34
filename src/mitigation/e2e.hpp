// End-to-end obfuscation baseline in the spirit of Fort-NoCs (Ancajas et
// al., DAC'14), which the paper compares against in Fig. 11(a).
//
// The source NI scrambles the packet's *data* — here the memory address, the
// data field a trojan's comparator taps — with a per-(src,dest) key; the
// destination NI unscrambles.
// Crucially, the routing fields (src, dest, VC) CANNOT be scrambled hop-
// invariantly because every router needs them to route, which is exactly
// why e2e obfuscation fails against an in-network DPI trojan keyed on the
// destination field: the paper's Fig. 11(a) scenario.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace htnoc::mitigation {

class E2eObfuscator {
 public:
  explicit E2eObfuscator(std::uint64_t secret) : secret_(secret) {}

  /// Key stream for one (src, dest) pair; splitmix64 of the pair + secret.
  [[nodiscard]] std::uint64_t key(NodeId src, NodeId dest) const noexcept {
    std::uint64_t z = secret_ ^ (static_cast<std::uint64_t>(src) << 32) ^
                      static_cast<std::uint64_t>(dest);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Scramble the memory-address field of a header. Self-inverse.
  [[nodiscard]] std::uint32_t scramble_mem(NodeId src, NodeId dest,
                                           std::uint32_t mem) const noexcept {
    return mem ^ static_cast<std::uint32_t>(key(src, dest) & 0xFFFFFFFFu);
  }

 private:
  std::uint64_t secret_;
};

}  // namespace htnoc::mitigation
