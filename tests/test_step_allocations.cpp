// Steady-state stepping performs no heap allocation (docs/PERFORMANCE.md
// §5): every per-cycle container is persistent scratch sized by warm-up.
// This binary replaces the global operator new with a counting one, armed
// only while Network::step runs, and steps a loaded fabric for a warmed
// window. A container rebuilt per cycle or per flit anywhere under the
// step shows up as a non-zero count. The same holds for a clean audit:
// the AuditAllocations cases arm the counter only around
// NetworkInvariantAuditor::on_cycle_end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "verify/auditor.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a non-zero size that is a multiple of the
  // alignment.
  return std::aligned_alloc(a, (n == 0 ? a : (n + a - 1) / a * a));
}

// Out of line, so the compiler never pairs an inlined free() with the
// operator new call that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace htnoc {
namespace {

/// Uniform random traffic injected straight through Network::try_inject
/// (packets the NI refuses are dropped), so everything outside the step —
/// packetizing, payload buffers — allocates outside the counted region.
class UniformLoad {
 public:
  UniformLoad(Network& net, int packets_per_cycle)
      : net_(net), per_cycle_(packets_per_cycle) {}

  void inject() {
    const MeshGeometry& geom = net_.geometry();
    const auto cores = static_cast<std::uint64_t>(geom.num_cores());
    for (int i = 0; i < per_cycle_; ++i) {
      PacketInfo info;
      info.id = net_.next_packet_id();
      info.src_core = static_cast<NodeId>(rng_.next_below(cores));
      info.dest_core = static_cast<NodeId>(rng_.next_below(cores));
      info.src_router = geom.router_of_core(info.src_core);
      info.dest_router = geom.router_of_core(info.dest_core);
      info.length = static_cast<int>(rng_.next_in(1, 4));
      info.inject_cycle = net_.now();
      payload_.assign(static_cast<std::size_t>(info.length), 0xDA7Aull);
      (void)net_.try_inject(info, payload_);
    }
  }

 private:
  Network& net_;
  int per_cycle_;
  Rng rng_{0x10AD};
  std::vector<std::uint64_t> payload_;
};

/// Heap allocations made inside Network::step over `window` cycles, after
/// `warmup` cycles of the same load.
std::uint64_t allocations_in_step(const NocConfig& cfg, int packets_per_cycle,
                                  Cycle warmup, Cycle window) {
  Network net(cfg);
  std::uint64_t delivered = 0;
  net.set_delivery_callback(
      [&delivered](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  UniformLoad load(net, packets_per_cycle);
  for (Cycle c = 0; c < warmup; ++c) {
    load.inject();
    net.step();
  }
  const std::uint64_t delivered_before = delivered;
  g_allocations.store(0);
  for (Cycle c = 0; c < window; ++c) {
    load.inject();
    g_counting.store(true);
    net.step();
    g_counting.store(false);
  }
  EXPECT_GT(delivered, delivered_before) << "the window must move traffic";
  EXPECT_EQ(net.check_invariants(), "");
  return g_allocations.load();
}

/// Heap allocations made inside NetworkInvariantAuditor::on_cycle_end over
/// `window` audited cycles, after `warmup` audited cycles of the same load.
/// The step and the injections run with the counter off.
std::uint64_t allocations_in_audit(const NocConfig& cfg, int packets_per_cycle,
                                   Cycle warmup, Cycle window) {
  Network net(cfg);
  std::uint64_t delivered = 0;
  net.set_delivery_callback(
      [&delivered](Cycle, const PacketInfo&, Cycle) { ++delivered; });
  verify::AuditConfig acfg;
  acfg.enabled = true;
  verify::NetworkInvariantAuditor auditor(net, acfg);
  net.set_audit(&auditor);
  UniformLoad load(net, packets_per_cycle);
  for (Cycle c = 0; c < warmup; ++c) {
    load.inject();
    net.step();
    auditor.on_cycle_end();
  }
  const std::uint64_t delivered_before = delivered;
  g_allocations.store(0);
  for (Cycle c = 0; c < window; ++c) {
    load.inject();
    net.step();
    g_counting.store(true);
    auditor.on_cycle_end();
    g_counting.store(false);
  }
  EXPECT_GT(delivered, delivered_before) << "the window must move traffic";
  EXPECT_EQ(auditor.audits_run(), warmup + window);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  return g_allocations.load();
}

TEST(StepAllocations, CounterSeesAllocations) {
  // The replacement is live in this binary: an allocation while armed
  // counts.
  g_allocations.store(0);
  g_counting.store(true);
  auto* p = new std::vector<int>(8);
  g_counting.store(false);
  delete p;
  EXPECT_GE(g_allocations.load(), 1u);
}

TEST(StepAllocations, LoadedCmesh4x4StepsWithoutAllocating) {
  NocConfig cfg;  // the paper's 4x4 concentrated mesh
  EXPECT_EQ(allocations_in_step(cfg, 4, 2000, 3000), 0u);
}

TEST(StepAllocations, LoadedCmesh4x4ShardedStepWithoutAllocating) {
  // The parallel step makes one StepPool dispatch per cycle. On a host with
  // at least 4 hardware threads its waits spin before they park.
  NocConfig cfg;
  cfg.step_threads = 4;
  EXPECT_EQ(allocations_in_step(cfg, 4, 2000, 3000), 0u);
}

TEST(StepAllocations, LoadedMesh8x8StepsWithoutAllocating) {
  NocConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.concentration = 1;
  EXPECT_EQ(allocations_in_step(cfg, 4, 2000, 3000), 0u);
}

TEST(StepAllocations, LoadedMesh8x8ParkingShardedStepWithoutAllocating) {
  // More shards than hardware threads: every StepPool wait parks at once.
  NocConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.concentration = 1;
  cfg.step_threads =
      std::min(static_cast<int>(std::thread::hardware_concurrency()) + 1, 64);
  EXPECT_EQ(allocations_in_step(cfg, 4, 2000, 3000), 0u);
}

TEST(AuditAllocations, LoadedCmesh4x4AuditsWithoutAllocating) {
  NocConfig cfg;
  EXPECT_EQ(allocations_in_audit(cfg, 4, 2000, 3000), 0u);
}

TEST(AuditAllocations, LoadedMesh8x8AuditsWithoutAllocating) {
  NocConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.concentration = 1;
  EXPECT_EQ(allocations_in_audit(cfg, 4, 2000, 3000), 0u);
}

}  // namespace
}  // namespace htnoc
