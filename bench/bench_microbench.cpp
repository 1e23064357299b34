// Google-benchmark microbenchmarks of the hot primitives: SECDED
// encode/decode, obfuscation transforms, the trojan's DPI comparator, and
// a campaign scenario forked from a snapshot against one that reruns its
// warm-up. Whole-network step speed is measured by perfbench/.
#include <benchmark/benchmark.h>

#include "ecc/secded_reference.hpp"
#include "noc/obfuscation.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"
#include "verify/snapshot.hpp"

namespace {

using namespace htnoc;

void BM_SecdedEncode(benchmark::State& state) {
  const auto& codec = ecc::secded();
  std::uint64_t d = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(d));
    d = d * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_SecdedEncode);

void BM_SecdedDecodeClean(benchmark::State& state) {
  const auto& codec = ecc::secded();
  const Codeword72 cw = codec.encode(0xDEADBEEF12345678ULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(cw));
  }
}
BENCHMARK(BM_SecdedDecodeClean);

void BM_SecdedDecodeSingleError(benchmark::State& state) {
  const auto& codec = ecc::secded();
  Codeword72 cw = codec.encode(0xDEADBEEF12345678ULL);
  cw.flip(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(cw));
  }
}
BENCHMARK(BM_SecdedDecodeSingleError);

void BM_SecdedDecodeDoubleError(benchmark::State& state) {
  const auto& codec = ecc::secded();
  Codeword72 cw = codec.encode(0xDEADBEEF12345678ULL);
  cw.flip(3);
  cw.flip(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(cw));
  }
}
BENCHMARK(BM_SecdedDecodeDoubleError);

// Bit-serial oracle implementation, kept for comparison: the ratio against
// BM_SecdedEncode / BM_SecdedDecodeClean is the table-driven speedup, which
// CI's release job holds at 0.60 or below.
void BM_SecdedReferenceEncode(benchmark::State& state) {
  const auto& codec = ecc::secded_reference();
  std::uint64_t d = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(d));
    d = d * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_SecdedReferenceEncode);

void BM_SecdedReferenceDecodeClean(benchmark::State& state) {
  const auto& codec = ecc::secded_reference();
  const Codeword72 cw = codec.encode(0xDEADBEEF12345678ULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(cw));
  }
}
BENCHMARK(BM_SecdedReferenceDecodeClean);

void BM_ObfuscationRoundTrip(benchmark::State& state) {
  const auto method = static_cast<ObfMethod>(state.range(0));
  ObfuscationTag tag;
  tag.method = method;
  tag.granularity = ObfGranularity::kFlit;
  std::uint64_t w = 0xA5A55A5ADEADBEEFULL;
  for (auto _ : state) {
    const std::uint64_t o = obf::apply(w, tag, 0x1234567890ABCDEFULL);
    benchmark::DoNotOptimize(obf::undo(o, tag, 0x1234567890ABCDEFULL));
    w += 0x9E3779B97F4A7C15ULL;
  }
}
BENCHMARK(BM_ObfuscationRoundTrip)
    ->Arg(static_cast<int>(ObfMethod::kInvert))
    ->Arg(static_cast<int>(ObfMethod::kShuffle))
    ->Arg(static_cast<int>(ObfMethod::kScramble));

void BM_TaspInspection(benchmark::State& state) {
  trojan::TaspParams p;
  p.kind = trojan::TargetKind::kFull;
  trojan::Tasp t(p);
  t.set_kill_switch(true);
  wire::HeaderFields h;
  h.dest = 7;
  LinkPhit phit;
  phit.flit.wire = wire::pack_header(h);
  phit.codeword = ecc::secded().encode(phit.flit.wire);
  Cycle now = 0;
  for (auto _ : state) {
    t.on_traverse(++now, phit);
    benchmark::DoNotOptimize(phit);
  }
}
BENCHMARK(BM_TaspInspection);

// --- campaign warmup strategies ---
//
// The snapshot-forking fault campaign amortizes one long warmup across
// every scenario. These two benchmarks price both strategies for a single
// scenario (kWarmup cycles of steady-state traffic, then kScenario audited
// cycles of scenario body): the rerun benchmark pays the warmup inside
// every scenario, the fork benchmark restores the shared snapshot instead.
// Their ratio is the campaign speedup; CI's release job fails when the
// fork's median exceeds 0.60 of the rerun's. Each exports a
// scenarios_per_sec counter.
constexpr Cycle kWarmupCycles = 1000;
constexpr Cycle kScenarioCycles = 250;

sim::SimConfig campaign_bench_config() {
  sim::SimConfig sc;
  sc.audit.enabled = true;
  return sc;
}

void step_rig(sim::Simulator& simulator, traffic::TrafficGenerator& gen,
              Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) {
    gen.step();
    simulator.step();
  }
}

void BM_CampaignWarmupRerun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator(campaign_bench_config());
    Network& net = simulator.network();
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(),
                                   traffic::blackscholes_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 7;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    step_rig(simulator, gen, kWarmupCycles + kScenarioCycles);
    benchmark::DoNotOptimize(net.packets_delivered());
  }
  state.counters["scenarios_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignWarmupRerun);

void BM_CampaignSnapshotFork(benchmark::State& state) {
  // The blob is built once for the whole campaign (a pure function of the
  // campaign seed), so its cost sits outside the per-scenario loop here
  // exactly as it amortizes to ~zero across thousands of real scenarios.
  std::vector<std::uint8_t> blob;
  {
    sim::Simulator simulator(campaign_bench_config());
    Network& net = simulator.network();
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(),
                                   traffic::blackscholes_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 7;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    step_rig(simulator, gen, kWarmupCycles);
    blob = verify::save_snapshot(simulator, {&gen});
  }
  for (auto _ : state) {
    sim::Simulator simulator(campaign_bench_config());
    Network& net = simulator.network();
    traffic::DeliveryDispatcher disp;
    disp.install(net);
    traffic::AppTrafficModel model(net.geometry(),
                                   traffic::blackscholes_profile());
    traffic::TrafficGenerator::Params gp;
    gp.seed = 7;
    traffic::TrafficGenerator gen(net, model, gp, disp);
    verify::load_snapshot(simulator, {&gen}, blob);
    step_rig(simulator, gen, kScenarioCycles);
    benchmark::DoNotOptimize(net.packets_delivered());
  }
  state.counters["scenarios_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignSnapshotFork);

}  // namespace

BENCHMARK_MAIN();
