// Large-fabric scaling: simulated cycles/second (items_per_second) as a
// function of fabric size x step_threads, on plain k x k meshes from 8x8
// (64 routers) to 64x64 (4096 routers). Measured curves live in
// docs/SCALING.md; CI runs a smoke subset and archives the JSON
// (--benchmark_out).
//
// Traffic is injected by hand at a fixed 1/32 cores-per-cycle rate so every
// size measures the same relative load and none of the cost is the traffic
// model (AppTrafficModel's sampling tables are quadratic in cores — 134 MB
// at 64x64 — and would dominate setup time).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"

namespace {

using namespace htnoc;

void BM_MeshScaling(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));

  sim::SimConfig sc;
  sc.noc.topology = TopologyKind::kMesh;
  sc.noc.mesh_width = k;
  sc.noc.mesh_height = k;
  sc.noc.concentration = 1;
  sc.noc.step_threads = threads;
  sc.noc.seed = 0xBEEF;
  sc.seed = 0xF00D;
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  const int cores = net.geometry().num_cores();
  const int per_cycle = cores / 32 > 0 ? cores / 32 : 1;

  Rng rng(0x5EED);
  const auto inject = [&] {
    for (int i = 0; i < per_cycle; ++i) {
      PacketInfo info;
      info.id = net.next_packet_id();
      info.src_core = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(cores)));
      info.dest_core = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(cores)));
      info.src_router = net.geometry().router_of_core(info.src_core);
      info.dest_router = net.geometry().router_of_core(info.dest_core);
      info.length = static_cast<int>(rng.next_in(1, 4));
      info.inject_cycle = net.now();
      const std::vector<std::uint64_t> payload(
          static_cast<std::size_t>(info.length), 0xDA7Aull);
      (void)net.try_inject(info, payload);
    }
  };

  // Warm-up fills the fabric so the measured region is steady-state load,
  // not the empty-network ramp.
  for (int c = 0; c < 100; ++c) {
    inject();
    simulator.step();
  }
  for (auto _ : state) {
    inject();
    simulator.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["routers"] = static_cast<double>(net.geometry().num_routers());
  state.counters["delivered"] = static_cast<double>(net.packets_delivered());
}
BENCHMARK(BM_MeshScaling)
    ->ArgsProduct({{8, 16, 32, 64}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
