// The trace determinism contract: a sweep's captured event traces — down to
// the serialized bytes — are a pure function of {spec, seed}, independent of
// worker thread count, and any single grid point replays byte-identically
// from its RunSpec alone.
#include <gtest/gtest.h>

#include "sweep/emit.hpp"
#include "sweep/runner.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"

namespace {

using namespace htnoc;

sim::AttackSpec single_tasp(Cycle enable_at) {
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  return a;
}

sweep::SweepSpec fixture_spec() {
  sweep::SweepSpec spec;
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kLOb};
  spec.attack_scenarios = {{"none", {}}, {"single", {single_tasp(150)}}};
  spec.replicates = 2;
  spec.run_cycles = 400;
  spec.probe_period = 100;
  spec.base_seed = 0xD15EA5E;
  spec.base.trace.enabled = true;
  // Small on purpose: several runs overflow the ring, so thread-invariance
  // also covers the wraparound path.
  spec.base.trace.capacity = std::size_t{1} << 12;
  return spec;
}

std::vector<std::string> trace_images(const sweep::SweepResult& r) {
  std::vector<std::string> out;
  out.reserve(r.runs.size());
  for (const sweep::RunResult& run : r.runs) {
    out.push_back(run.trace ? trace::serialize_binary(*run.trace)
                            : std::string{});
  }
  return out;
}

}  // namespace

TEST(TraceDeterminism, ThreadCountDoesNotChangeTraces) {
  const sweep::SweepSpec spec = fixture_spec();
  const sweep::SweepResult r1 = sweep::SweepRunner({1}).run(spec);
  const sweep::SweepResult r2 = sweep::SweepRunner({2}).run(spec);
  const sweep::SweepResult r8 = sweep::SweepRunner({8}).run(spec);
  ASSERT_EQ(r1.failures(), 0u);
  ASSERT_EQ(r2.failures(), 0u);
  ASSERT_EQ(r8.failures(), 0u);

  const std::vector<std::string> b1 = trace_images(r1);
  const std::vector<std::string> b2 = trace_images(r2);
  const std::vector<std::string> b8 = trace_images(r8);
  ASSERT_EQ(b1.size(), b2.size());
  ASSERT_EQ(b1.size(), b8.size());
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_FALSE(b1[i].empty()) << "run " << i << " captured no trace";
    EXPECT_EQ(b1[i], b2[i]) << "run " << i << ": 1 vs 2 threads";
    EXPECT_EQ(b1[i], b8[i]) << "run " << i << ": 1 vs 8 threads";
    // Byte-identical logs must render to byte-identical JSON too.
    ASSERT_TRUE(r1.runs[i].trace && r8.runs[i].trace);
    EXPECT_EQ(trace::to_chrome_json(*r1.runs[i].trace),
              trace::to_chrome_json(*r8.runs[i].trace))
        << "run " << i;
  }
}

TEST(TraceDeterminism, SingleGridPointReplaysByteIdentically) {
  const sweep::SweepSpec spec = fixture_spec();
  const std::vector<sweep::RunSpec> runs = sweep::expand(spec);
  // Pick an attacked point (the interesting one forensically).
  const sweep::RunSpec* attacked = nullptr;
  for (const sweep::RunSpec& rs : runs) {
    if (!rs.attacks.empty()) attacked = &rs;
  }
  ASSERT_NE(attacked, nullptr);

  const sweep::RunResult a = sweep::SweepRunner::run_single(spec, *attacked);
  const sweep::RunResult b = sweep::SweepRunner::run_single(spec, *attacked);
  ASSERT_TRUE(a.ok && b.ok);
  ASSERT_TRUE(a.trace && b.trace);
  EXPECT_EQ(trace::serialize_binary(*a.trace),
            trace::serialize_binary(*b.trace));
  EXPECT_EQ(trace::to_chrome_json(*a.trace), trace::to_chrome_json(*b.trace));
}

TEST(TraceDeterminism, TracingDoesNotPerturbSweepMetrics) {
  sweep::SweepSpec traced = fixture_spec();
  sweep::SweepSpec untraced = fixture_spec();
  untraced.base.trace.enabled = false;
  const sweep::SweepResult rt = sweep::SweepRunner({2}).run(traced);
  const sweep::SweepResult ru = sweep::SweepRunner({2}).run(untraced);
  ASSERT_EQ(rt.runs.size(), ru.runs.size());
  for (std::size_t i = 0; i < rt.runs.size(); ++i) {
    EXPECT_EQ(rt.runs[i].metrics(), ru.runs[i].metrics()) << "run " << i;
    EXPECT_EQ(ru.runs[i].trace, nullptr);
  }
}

TEST(TraceDeterminism, WavefrontAgreesWithUtilizationProbe) {
  sweep::SweepSpec spec = fixture_spec();
  spec.run_cycles = 900;  // give the DoS tree time to saturate
  const std::vector<sweep::RunSpec> runs = sweep::expand(spec);
  for (const sweep::RunSpec& rs : runs) {
    if (rs.attacks.empty() || rs.mode != sim::MitigationMode::kNone) continue;
    sweep::RunSpec capture = rs;
    // Saturation-only capture in a ring big enough to never wrap, so the
    // forensic blocked-at-end set is exact.
    capture.trace.categories = trace::raw(trace::Category::kSaturation);
    capture.trace.capacity = std::size_t{1} << 16;
    const sweep::RunResult res = sweep::SweepRunner::run_single(spec, capture);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(res.trace);
    ASSERT_EQ(res.trace->dropped(), 0u);
    const trace::ForensicReport rep = trace::analyze(*res.trace);
    EXPECT_EQ(rep.routers_blocked_at_end,
              static_cast<std::size_t>(
                  res.final_util.routers_with_blocked_port))
        << rs.label();
    EXPECT_GT(rep.routers_ever_blocked, 0u) << rs.label();
  }
}
