// Persistent worker pool for the intra-cycle parallel step. One dispatch
// runs a whole parallel cycle: every shard drains, waits at a barrier
// inside the pool until all shards have drained, then computes — the phase
// barrier the determinism contract needs. Network::step issues one
// dispatch per cycle. The caller thread executes shard 0, so a pool of N
// shards spawns N-1 threads.
//
// Three kinds of wait synchronize a cycle: a worker waiting for the next
// dispatch, a shard at the drain→compute barrier, and the caller waiting
// for the join. Each polls one atomic word for a bounded spin (tens of µs,
// about the caller's serial work between two cycles, yielding the core now
// and then) and then parks on std::atomic::wait. Parking and waking cost a
// futex call plus the scheduler's wake-up latency, which on a 16×16 mesh is
// as long as a shard's work. The pool spins only when its shards fit the
// machine's hardware threads; with more shards than that, a spinning
// thread would hold the core that the shard it waits for needs, so every
// wait parks at once (see docs/SCALING.md §3).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace htnoc {

class StepPool {
 public:
  /// A pool of `shards` shards (>= 1); spawns shards - 1 worker threads.
  /// If a worker cannot be started, the ones already started are stopped
  /// and joined and the spawn error (std::system_error) is rethrown.
  explicit StepPool(int shards);
  ~StepPool();

  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  /// One parallel cycle: drain(shard) for every shard in [0, shards()),
  /// a barrier, then compute(shard) for every shard, and join. If any
  /// drain throws, every shard still reaches the barrier and no shard
  /// computes. The first exception in shard order is rethrown after all
  /// shards finish (deterministic: the same scenario throws the same
  /// violation whichever worker hits it first), and the pool stays usable.
  void run(const std::function<void(int)>& drain,
           const std::function<void(int)>& compute);

  [[nodiscard]] int shards() const noexcept { return shards_; }

 private:
  void worker_main(int shard);
  /// Drain, the barrier, then compute, for one shard.
  void run_shard(int shard);
  void stop_workers();

  const int shards_;
  const int spin_polls_;  ///< Polls before a wait parks; 0 parks at once.
  // The caller bumps dispatch_ to start a cycle (or to stop the workers)
  // once it has reset the two countdowns below and set the phase
  // functions; a worker reads them only after it sees the bump.
  std::atomic<std::uint32_t> dispatch_{0};
  std::atomic<int> draining_{0};  ///< Shards still draining; the barrier.
  std::atomic<int> pending_{0};   ///< Workers still computing; the join.
  std::atomic<bool> drain_failed_{false};
  const std::function<void(int)>* drain_ = nullptr;
  const std::function<void(int)>* compute_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< Slot per shard.
  std::vector<std::thread> threads_;
};

}  // namespace htnoc
