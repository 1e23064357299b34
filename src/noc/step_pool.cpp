#include "noc/step_pool.hpp"

#include "common/expect.hpp"

namespace htnoc {
namespace {

/// Polls before a wait parks. A poll is a load and a pause instruction, and
/// every kPollsPerYield-th poll yields the core instead: when other
/// processes oversubscribe the cores, the thread being waited for may be
/// queued behind this one. 2,000 polls take about 60 µs on a current Xeon,
/// which covers the caller's serial work between two cycles of a 16×16
/// mesh.
constexpr int kSpinPolls = 2000;
constexpr int kPollsPerYield = 64;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

int spin_polls_for(int shards) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 && static_cast<unsigned>(shards) <= hw ? kSpinPolls : 0;
}

/// Spin for up to `polls` polls, then park, until `word` holds `target`.
template <typename T>
void wait_for(const std::atomic<T>& word, T target, int polls) {
  for (int i = 1; i <= polls; ++i) {
    if (word.load(std::memory_order_acquire) == target) return;
    if (i % kPollsPerYield == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  for (T v; (v = word.load(std::memory_order_acquire)) != target;) {
    word.wait(v, std::memory_order_acquire);
  }
}

// The updates that end a wait are sequentially consistent, so notify_all's
// check for parked waiters cannot be ordered before the new value.

void count_down(std::atomic<int>& count) {
  if (count.fetch_sub(1) == 1) count.notify_all();
}

void bump(std::atomic<std::uint32_t>& word) {
  word.fetch_add(1);
  word.notify_all();
}

}  // namespace

StepPool::StepPool(int shards)
    : shards_(shards), spin_polls_(spin_polls_for(shards)) {
  HTNOC_EXPECT(shards >= 1);
  errors_.resize(static_cast<std::size_t>(shards_));
  threads_.reserve(static_cast<std::size_t>(shards_ - 1));
  try {
    for (int s = 1; s < shards_; ++s) {
      threads_.emplace_back([this, s] { worker_main(s); });
    }
  } catch (...) {
    // Destroying a joinable std::thread would terminate the process.
    stop_workers();
    throw;
  }
}

StepPool::~StepPool() { stop_workers(); }

void StepPool::stop_workers() {
  stop_ = true;
  bump(dispatch_);
  for (std::thread& t : threads_) t.join();
}

void StepPool::worker_main(int shard) {
  for (std::uint32_t cycle = 1;; ++cycle) {
    wait_for(dispatch_, cycle, spin_polls_);  // the next dispatch, or stop
    if (stop_) return;
    run_shard(shard);
    count_down(pending_);
  }
}

void StepPool::run_shard(int shard) {
  // Each shard writes only its own error slot; the countdowns publish it.
  std::exception_ptr& error = errors_[static_cast<std::size_t>(shard)];
  try {
    (*drain_)(shard);
  } catch (...) {
    error = std::current_exception();
    drain_failed_.store(true, std::memory_order_relaxed);
  }
  count_down(draining_);
  wait_for(draining_, 0, spin_polls_);  // every shard has drained
  if (drain_failed_.load(std::memory_order_relaxed)) return;
  try {
    (*compute_)(shard);
  } catch (...) {
    error = std::current_exception();
  }
}

void StepPool::run(const std::function<void(int)>& drain,
                   const std::function<void(int)>& compute) {
  // Every worker finished the previous cycle before its join, so nothing
  // reads these until the bump below publishes them.
  drain_ = &drain;
  compute_ = &compute;
  drain_failed_.store(false, std::memory_order_relaxed);
  draining_.store(shards_, std::memory_order_relaxed);
  pending_.store(shards_ - 1, std::memory_order_relaxed);
  bump(dispatch_);
  run_shard(0);
  wait_for(pending_, 0, spin_polls_);  // the join
  for (std::exception_ptr& e : errors_) {
    if (e) {
      const std::exception_ptr first = e;
      for (std::exception_ptr& r : errors_) r = nullptr;
      std::rethrow_exception(first);
    }
  }
}

}  // namespace htnoc
