// The arbiter used by the VC and switch allocators. The paper's router
// arbitrates round-robin: present a request bitmap, receive at most one
// grant, and rotate priority only when a grant is accepted.
#pragma once

#include <cstddef>
#include <vector>

#include "common/expect.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

/// Classic rotating-priority N-way single-resource arbiter.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int num_inputs) : num_inputs_(num_inputs) {
    HTNOC_EXPECT(num_inputs > 0);
  }

  /// Pick a winner among the set request lines, or -1 when none requested.
  /// Does not commit priority state; call update(winner) when the grant is
  /// actually used.
  [[nodiscard]] int arbitrate(const std::vector<bool>& requests) const {
    HTNOC_EXPECT(static_cast<int>(requests.size()) == num_inputs_);
    for (int i = 0; i < num_inputs_; ++i) {
      const int idx = (next_ + i) % num_inputs_;
      if (requests[static_cast<std::size_t>(idx)]) return idx;
    }
    return -1;
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
