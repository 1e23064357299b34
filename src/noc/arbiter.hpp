// The arbiter used by the VC and switch allocators. The paper's router
// arbitrates round-robin: present a request mask, receive at most one
// grant, and rotate priority only when a grant is accepted.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/expect.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

/// Classic rotating-priority N-way single-resource arbiter. Requests are a
/// bit mask packed into 64-bit words: requester i is bit i % 64 of word
/// i / 64.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int num_inputs) : num_inputs_(num_inputs) {
    HTNOC_EXPECT(num_inputs > 0);
  }

  /// Words in a request mask for `num_inputs` requesters.
  [[nodiscard]] static constexpr int words_for(int num_inputs) noexcept {
    return (num_inputs + 63) / 64;
  }

  /// Pick a winner among the set request bits, or -1 when none is set: the
  /// first requester at or after the priority pointer, wrapping once —
  /// the grant of a rotating scan over every line. Bits at or above
  /// num_inputs must be clear. Does not commit priority state; call
  /// update(winner) when the grant is actually used.
  [[nodiscard]] int arbitrate(std::span<const std::uint64_t> requests) const {
    const int nw = static_cast<int>(requests.size());
    HTNOC_EXPECT(nw == words_for(num_inputs_));
    HTNOC_EXPECT((requests[static_cast<std::size_t>(nw - 1)] >>
                  (num_inputs_ - 1 - 64 * (nw - 1)) >> 1) == 0);
    const int w0 = next_ / 64;
    const std::uint64_t first = requests[static_cast<std::size_t>(w0)];
    const std::uint64_t at_or_after =
        first & (~std::uint64_t{0} << (next_ % 64));
    if (at_or_after != 0) return w0 * 64 + std::countr_zero(at_or_after);
    for (int k = 1; k < nw; ++k) {
      const int w = (w0 + k) % nw;
      const std::uint64_t word = requests[static_cast<std::size_t>(w)];
      if (word != 0) return w * 64 + std::countr_zero(word);
    }
    // Wrapped back to the pointer's word: only bits below it can be left.
    return first != 0 ? w0 * 64 + std::countr_zero(first) : -1;
  }

  /// Single-word form for arbiters of at most 64 requesters.
  [[nodiscard]] int arbitrate(std::uint64_t requests) const {
    return arbitrate(std::span<const std::uint64_t>(&requests, 1));
  }

  /// Commit the grant so the next arbitration round deprioritizes `winner`.
  void update(int winner) {
    HTNOC_EXPECT(winner >= 0 && winner < num_inputs_);
    next_ = (winner + 1) % num_inputs_;
  }

 private:
  friend struct htnoc::verify::StateCodec;

  int num_inputs_;
  int next_ = 0;
};

}  // namespace htnoc
