// StepPool on its own: one dispatch runs drain → barrier → compute on every
// shard, and the error contract Network::step relies on. Every case runs on
// the pool's two wait paths: 2 shards, which spin before they park on any
// host with at least 2 hardware threads, and hardware_concurrency() + 1
// shards, which park at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sys/resource.h>
#endif

#include "noc/step_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HTNOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HTNOC_TEST_SANITIZED 1
#endif
#endif

namespace htnoc {
namespace {

enum class WaitPath { kSpin, kPark };

int shards_for(WaitPath path) {
  return path == WaitPath::kSpin
             ? 2
             : static_cast<int>(std::thread::hardware_concurrency()) + 1;
}

std::string path_name(const testing::TestParamInfo<WaitPath>& info) {
  return info.param == WaitPath::kSpin ? "SpinPath" : "ParkPath";
}

/// Per-shard call counters; each shard writes only its own slot, and the
/// caller reads them after run() has joined.
struct Calls {
  explicit Calls(int shards)
      : drains(static_cast<std::size_t>(shards), 0),
        computes(static_cast<std::size_t>(shards), 0) {}
  std::vector<int> drains;
  std::vector<int> computes;

  int total_computes() const {
    int n = 0;
    for (int c : computes) n += c;
    return n;
  }
};

/// Drain function that counts its calls and throws on the listed shards.
std::function<void(int)> counting_drain(Calls& calls,
                                        std::vector<int> throw_on = {}) {
  return [&calls, throw_on](int s) {
    ++calls.drains[static_cast<std::size_t>(s)];
    for (int t : throw_on) {
      if (t == s) throw std::runtime_error("drain " + std::to_string(s));
    }
  };
}

std::function<void(int)> counting_compute(Calls& calls,
                                          std::vector<int> throw_on = {}) {
  return [&calls, throw_on](int s) {
    ++calls.computes[static_cast<std::size_t>(s)];
    for (int t : throw_on) {
      if (t == s) throw std::runtime_error("compute " + std::to_string(s));
    }
  };
}

/// The message of the exception run() throws, or "" if it returns.
std::string run_error(StepPool& pool, const std::function<void(int)>& drain,
                      const std::function<void(int)>& compute) {
  try {
    pool.run(drain, compute);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

class StepPoolPaths : public testing::TestWithParam<WaitPath> {
 protected:
  const int shards_ = shards_for(GetParam());
};

TEST_P(StepPoolPaths, EveryDrainWriteIsVisibleToEveryCompute) {
  StepPool pool(shards_);
  const auto n = static_cast<std::size_t>(shards_);
  std::vector<std::uint64_t> cells(n, 0);
  std::vector<std::uint64_t> stale(n, 0);  // slot per reading shard
  std::uint64_t cycle = 0;
  const std::function<void(int)> drain = [&](int s) {
    const auto w = static_cast<std::size_t>(s);
    cells[w] = cycle * n + w;
  };
  const std::function<void(int)> compute = [&](int s) {
    for (std::size_t w = 0; w < n; ++w) {
      if (cells[w] != cycle * n + w) ++stale[static_cast<std::size_t>(s)];
    }
  };
  for (cycle = 1; cycle <= 2000; ++cycle) pool.run(drain, compute);
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(stale[s], 0u) << "shard " << s << " read a stale drain write";
  }
}

TEST_P(StepPoolPaths, EveryShardDrainsAndComputesOncePerDispatch) {
  StepPool pool(shards_);
  Calls calls(shards_);
  for (int i = 0; i < 100; ++i) {
    pool.run(counting_drain(calls), counting_compute(calls));
  }
  for (int s = 0; s < shards_; ++s) {
    EXPECT_EQ(calls.drains[static_cast<std::size_t>(s)], 100) << s;
    EXPECT_EQ(calls.computes[static_cast<std::size_t>(s)], 100) << s;
  }
}

TEST_P(StepPoolPaths, DrainThrowSkipsEveryComputeAndRethrowsLowestShard) {
  const int last = shards_ - 1;
  const std::vector<std::vector<int>> throwers = {{0}, {last}, {last, 1, 0}};
  for (const std::vector<int>& on : throwers) {
    StepPool pool(shards_);
    Calls calls(shards_);
    const std::string lowest =
        "drain " + std::to_string(*std::min_element(on.begin(), on.end()));
    EXPECT_EQ(run_error(pool, counting_drain(calls, on),
                        counting_compute(calls)),
              lowest);
    for (int s = 0; s < shards_; ++s) {
      EXPECT_EQ(calls.drains[static_cast<std::size_t>(s)], 1) << s;
    }
    EXPECT_EQ(calls.total_computes(), 0) << lowest;
  }
}

TEST_P(StepPoolPaths, ComputeThrowIsRethrownInShardOrder) {
  StepPool pool(shards_);
  Calls calls(shards_);
  const int last = shards_ - 1;
  EXPECT_EQ(run_error(pool, counting_drain(calls),
                      counting_compute(calls, {last, 1})),
            "compute 1");
  EXPECT_EQ(calls.total_computes(), shards_);
}

TEST_P(StepPoolPaths, RunsNormallyAfterAThrow) {
  StepPool pool(shards_);
  Calls calls(shards_);
  EXPECT_EQ(run_error(pool, counting_drain(calls, {0}),
                      counting_compute(calls)),
            "drain 0");
  EXPECT_EQ(run_error(pool, counting_drain(calls),
                      counting_compute(calls, {shards_ - 1})),
            "compute " + std::to_string(shards_ - 1));
  Calls after(shards_);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(run_error(pool, counting_drain(after), counting_compute(after)),
              "");
  }
  EXPECT_EQ(after.total_computes(), 10 * shards_);
}

TEST_P(StepPoolPaths, DestroyingAParkedPoolReturnsPromptly) {
  auto pool = std::make_unique<StepPool>(shards_);
  Calls calls(shards_);
  pool->run(counting_drain(calls), counting_compute(calls));
  // Far longer than any spin: every worker is parked for the next dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  pool.reset();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST_P(StepPoolPaths, ShardZeroRunsOnTheCaller) {
  StepPool pool(shards_);
  std::thread::id drained;
  std::thread::id computed;
  pool.run(
      [&](int s) {
        if (s == 0) drained = std::this_thread::get_id();
      },
      [&](int s) {
        if (s == 0) computed = std::this_thread::get_id();
      });
  EXPECT_EQ(drained, std::this_thread::get_id());
  EXPECT_EQ(computed, std::this_thread::get_id());
}

INSTANTIATE_TEST_SUITE_P(Shards, StepPoolPaths,
                         testing::Values(WaitPath::kSpin, WaitPath::kPark),
                         path_name);

#if defined(__linux__)

std::size_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(7)) * 1024;  // reported in kB
    }
  }
  return 0;
}

/// Caps the address space so one worker's stack fits and a second's does
/// not, then builds an 8-shard pool. Exits 0 on the expected spawn error,
/// 1 if the pool was built anyway or the cap could not be set.
[[noreturn]] void build_pool_with_room_for_one_stack() {
  pthread_attr_t attr;
  std::size_t stack = 0;
  if (pthread_getattr_default_np(&attr) != 0 ||
      pthread_attr_getstacksize(&attr, &stack) != 0) {
    std::_Exit(1);
  }
  pthread_attr_destroy(&attr);
  const std::size_t vm = vm_size_bytes();
  const rlim_t cap = vm + stack + stack / 2;
  const rlimit lim{cap, cap};
  if (vm == 0 || setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(1);
  try {
    StepPool pool(8);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(1);
}

TEST(StepPoolSpawn, FailedSpawnJoinsStartedWorkersAndThrows) {
#ifdef HTNOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers reserve large address ranges";
#endif
  // Re-executed in a fresh, single-threaded child.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(build_pool_with_room_for_one_stack(), testing::ExitedWithCode(0),
              "");
}

#endif

}  // namespace
}  // namespace htnoc
