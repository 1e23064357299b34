// Snapshot/restore round-trip: a restored simulator must resume
// bit-identically — the same per-cycle state digests, the same serialized
// bytes at the end — across serial and parallel stepping, under attack and
// at idle. Plus the rejection surface: corrupt, truncated, mismatched or
// mid-version blobs must throw SnapshotError, never restore garbage.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "gtest/gtest.h"
#include "sim/simulator.hpp"
#include "sweep/spec.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/campaign.hpp"
#include "verify/snapshot.hpp"

namespace htnoc {
namespace {

using verify::load_snapshot;
using verify::save_snapshot;
using verify::SnapshotError;

/// A simulator plus the traffic machinery driving it, built exactly the
/// same way from the same config every time.
struct Rig {
  sim::Simulator sim;
  traffic::DeliveryDispatcher disp;
  traffic::AppTrafficModel model;
  traffic::TrafficGenerator gen;

  explicit Rig(const sim::SimConfig& cfg, double rate_scale = 1.0)
      : sim(cfg), model(sim.network().geometry(), scaled(rate_scale)),
        gen(sim.network(), model,
            [] {
              traffic::TrafficGenerator::Params gp;
              gp.seed = 0xFEED;
              return gp;
            }(),
            disp) {
    disp.install(sim.network());
    sim.set_drop_callback([this](PacketId id) { gen.requeue(id); });
  }

  static traffic::AppProfile scaled(double rate_scale) {
    traffic::AppProfile p = traffic::blackscholes_profile();
    p.injection_rate *= rate_scale;
    return p;
  }

  void step(Cycle n) {
    for (Cycle c = 0; c < n; ++c) {
      gen.step();
      sim.step();
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> save() const {
    return save_snapshot(sim, {&gen});
  }

  [[nodiscard]] std::uint64_t digest() const {
    return verify::state_digest(sim, {&gen});
  }

  void load(const std::vector<std::uint8_t>& blob) {
    load_snapshot(sim, {&gen}, blob);
  }
};

sim::SimConfig attacked_config(int step_threads) {
  sim::SimConfig cfg;
  cfg.noc.step_threads = step_threads;
  cfg.mode = sim::MitigationMode::kLOb;
  cfg.transient_phit_fault_prob = 1e-3;
  sim::AttackSpec atk;
  atk.link = {0, Direction::kEast};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 5;
  // The kill switch fires inside the resumed window, so the trojan FSM
  // transition itself happens after restore.
  atk.enable_killsw_at = 400;
  cfg.attacks.push_back(atk);
  cfg.audit.enabled = true;
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1 << 10;
  return cfg;
}

/// Run A for `pre` cycles, snapshot, keep running A; restore the blob into a
/// fresh B. Every subsequent cycle's state digest (stats, auditor ledger,
/// trace ring and RNG streams included) must match, and at the end the two
/// simulators must serialize to the very same bytes.
void expect_bitwise_resume(const sim::SimConfig& cfg, Cycle pre, Cycle post) {
  Rig a(cfg);
  a.step(pre);
  const std::vector<std::uint8_t> blob = a.save();

  Rig b(cfg);
  b.load(blob);
  ASSERT_EQ(a.digest(), b.digest());

  for (Cycle c = 0; c < post; ++c) {
    a.step(1);
    b.step(1);
    ASSERT_EQ(a.digest(), b.digest())
        << "diverged " << (c + 1) << " cycles after restore";
  }
  EXPECT_EQ(a.save(), b.save()) << "post-resume serialized state differs";
  ASSERT_NE(a.sim.auditor(), nullptr);
  EXPECT_TRUE(a.sim.auditor()->clean()) << a.sim.auditor()->report();
  EXPECT_TRUE(b.sim.auditor()->clean()) << b.sim.auditor()->report();
}

TEST(SnapshotRoundtrip, AttackedResumesBitIdentically) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("step_threads=" + std::to_string(threads));
    expect_bitwise_resume(attacked_config(threads), 300, 250);
  }
}

TEST(SnapshotRoundtrip, IdleFabricResumesBitIdentically) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("step_threads=" + std::to_string(threads));
    sim::SimConfig cfg;
    cfg.noc.step_threads = threads;
    cfg.audit.enabled = true;
    // Injection throttled to a trickle: most of the fabric sits idle, so
    // the round-trip covers empty buffers, blank slots and quiet links.
    Rig a(cfg, 0.02);
    a.step(100);
    const auto blob = a.save();
    Rig b(cfg, 0.02);
    b.load(blob);
    a.step(100);
    b.step(100);
    EXPECT_EQ(a.save(), b.save());
  }
}

TEST(SnapshotRoundtrip, SnapshotAcrossThreadCountsIsIdentical) {
  // step_threads is outside the substrate fingerprint and outside the
  // state: the same history serializes to the same bytes at any setting.
  auto run = [](int threads) {
    sim::SimConfig cfg = attacked_config(threads);
    Rig r(cfg);
    r.step(350);
    std::vector<std::uint8_t> blob = r.save();
    // The fingerprint covers only the substrate, so blobs from different
    // step_threads are interchangeable — including their envelope bytes.
    return blob;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(SnapshotRoundtrip, RestoreAcrossThreadCounts) {
  // A blob saved from a serial run restores into a parallel-stepping
  // simulator and still resumes bit-identically.
  Rig a(attacked_config(1));
  a.step(300);
  const auto blob = a.save();
  a.step(200);

  Rig b(attacked_config(8));
  b.load(blob);
  b.step(200);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(SnapshotRoundtrip, BlobBytesArePinned) {
  // Every byte of the blob, envelope included: the substrate fingerprint,
  // the payload and its digest. Recorded before the stage latencies became
  // constants; a refactor that moves any byte fails here.
  sim::SimConfig cfg;
  Rig r(cfg);
  r.step(500);
  const std::vector<std::uint8_t> blob = r.save();
  EXPECT_EQ(blob.size(), 171526u);
  EXPECT_EQ(fnv1a(blob.data(), blob.size()), 0x83A2F5B9D8C9CA28ull);
}

TEST(SnapshotRoundtrip, CorruptPayloadRejected) {
  Rig a(attacked_config(1));
  a.step(120);
  std::vector<std::uint8_t> blob = a.save();
  blob[blob.size() / 2] ^= 0x40;
  Rig b(attacked_config(1));
  EXPECT_THROW(b.load(blob), SnapshotError);
}

TEST(SnapshotRoundtrip, TruncatedBlobRejected) {
  Rig a(attacked_config(1));
  a.step(120);
  const std::vector<std::uint8_t> blob = a.save();
  Rig b(attacked_config(1));
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{35}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(b.load(cut), SnapshotError) << "kept " << keep << " bytes";
  }
}

TEST(SnapshotRoundtrip, BadMagicAndVersionRejected) {
  Rig a(attacked_config(1));
  a.step(50);
  std::vector<std::uint8_t> blob = a.save();
  Rig b(attacked_config(1));

  std::vector<std::uint8_t> wrong_magic = blob;
  wrong_magic[0] = 'X';
  EXPECT_THROW(b.load(wrong_magic), SnapshotError);

  std::vector<std::uint8_t> wrong_version = blob;
  wrong_version[8] ^= 0xFF;  // version u32 lives right after the magic
  EXPECT_THROW(b.load(wrong_version), SnapshotError);
}

TEST(SnapshotRoundtrip, SubstrateMismatchRejected) {
  Rig a(attacked_config(1));
  a.step(50);
  const auto blob = a.save();

  sim::SimConfig other = attacked_config(1);
  other.noc.buffer_depth += 2;
  Rig b(other);
  EXPECT_THROW(b.load(blob), SnapshotError);
}

TEST(SnapshotRoundtrip, GeneratorCountMismatchRejected) {
  Rig a(attacked_config(1));
  a.step(50);
  const auto blob = a.save();
  Rig b(attacked_config(1));
  EXPECT_THROW(load_snapshot(b.sim, {}, blob), SnapshotError);
}

TEST(SnapshotRoundtrip, CleanBlobForksIntoAttackedScenario) {
  // The campaign's warmup fork in miniature: a snapshot of a clean fabric
  // restores into a simulator carrying attacks and mitigation the blob has
  // never seen — injector prefix matching and empty mitigation sections
  // leave the new machinery fresh — and the fork is deterministic.
  sim::SimConfig clean;
  clean.audit.enabled = true;
  Rig warm(clean);
  warm.step(300);
  const auto blob = warm.save();

  sim::SimConfig hostile = attacked_config(1);
  hostile.trace.enabled = false;  // warmup had no sink; presence must match
  auto fork = [&] {
    Rig r(hostile);
    r.load(blob);
    r.step(400);
    return r.save();
  };
  const auto once = fork();
  EXPECT_EQ(once, fork());
  EXPECT_NE(once, blob);
}

TEST(SnapshotRoundtrip, WarmupCampaignDeterministicAndReplayable) {
  // End-to-end over the campaign layer: a snapshot-forking campaign is
  // deterministic across runs and thread counts, and run_scenario (the
  // repro path, which rebuilds the warmup blob itself) reproduces any
  // scenario byte-for-byte.
  verify::CampaignSpec spec;
  spec.seed = 0x5EED0;
  spec.scenarios = 6;
  spec.warmup_cycles = 200;
  spec.threads = 2;
  const verify::CampaignResult first = verify::FaultCampaign(spec).run();
  const verify::CampaignResult again = verify::FaultCampaign(spec).run();
  EXPECT_EQ(first.summary_text(), again.summary_text());

  for (const verify::ScenarioResult& s : first.scenarios) {
    const verify::ScenarioResult replay =
        verify::FaultCampaign::run_scenario(spec, s.index);
    EXPECT_EQ(replay.ok, s.ok) << s.descriptor;
    EXPECT_EQ(replay.descriptor, s.descriptor);
    EXPECT_EQ(replay.delivered, s.delivered) << s.descriptor;
    EXPECT_EQ(replay.purged, s.purged) << s.descriptor;
    EXPECT_EQ(replay.error, s.error) << s.descriptor;
  }
}

TEST(SnapshotRoundtrip, WarmupEquivalenceAcrossStepThreads) {
  verify::CampaignSpec spec;
  spec.seed = 0xA11CE;
  spec.scenarios = 4;
  spec.warmup_cycles = 150;
  EXPECT_EQ(verify::FaultCampaign::equivalence_report(spec, 4), "");
}

}  // namespace
}  // namespace htnoc
