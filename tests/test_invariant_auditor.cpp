// The invariant auditor must (a) stay silent across every legitimate
// scenario the simulator can produce — attacks, mitigation, TDM, purges,
// transient faults — and (b) actually fire for each violation class, shown
// both by direct ledger manipulation and by the HTNOC_MUTATION_* mutant
// builds (see verify/mutation.hpp and scripts/mutation_check.sh).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/generator.hpp"
#include "verify/campaign.hpp"
#include "verify/mutation.hpp"

namespace htnoc {
namespace {

sim::SimConfig audited_config() {
  sim::SimConfig sc;
  sc.audit.enabled = true;
  return sc;
}

/// The clean-scenario suite runs on both fabric kinds and on a non-square
/// grid: the auditor's silence must be a property of the protocol, not of
/// the paper's 4x4 concentrated mesh.
struct FabricParam {
  const char* label;
  TopologyKind kind;
  int width = 4;
  int height = 4;
  int concentration = 1;
};

constexpr FabricParam kFabrics[] = {
    {"cmesh4x4", TopologyKind::kConcentratedMesh, 4, 4, 4},
    {"mesh8x8", TopologyKind::kMesh, 8, 8, 1},
    {"cmesh8x4c2", TopologyKind::kConcentratedMesh, 8, 4, 2},
};

/// gtest's fallback printer dumps the struct's bytes, label pointer
/// included, and gtest_discover_tests copies that dump into the ctest name,
/// so the name changed with ASLR on every build. Printed as its label, a
/// default-numbered instance gets the stable ctest name
/// "Fabrics/InvariantAuditorFabrics.IdleNetwork/cmesh4x4".
void PrintTo(const FabricParam& f, std::ostream* os) { *os << f.label; }

sim::SimConfig audited_config(const FabricParam& f) {
  sim::SimConfig sc = audited_config();
  sc.noc.topology = f.kind;
  sc.noc.mesh_width = f.width;
  sc.noc.mesh_height = f.height;
  sc.noc.concentration = f.concentration;
  return sc;
}

sim::AttackSpec dest_attack(Cycle enable_at) {
  sim::AttackSpec a;
  a.link = {1, Direction::kWest};  // r1 -> r0, the hotspot's feeder
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  return a;
}

/// Drive `cycles` of profile traffic through an audited simulator;
/// returns the set of violation kinds (with the report in the test log).
std::set<verify::ViolationKind> run_audited(sim::SimConfig sc, Cycle cycles,
                                            double rate_scale = 1.0,
                                            Cycle purge_every = 0) {
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppProfile profile = traffic::blackscholes_profile();
  profile.injection_rate *= rate_scale;
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 99;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  simulator.set_drop_callback([&](PacketId id) { gen.requeue(id); });

  for (Cycle c = 0; c < cycles; ++c) {
    if (purge_every != 0 && c > 50 && c % purge_every == 0) {
      const PacketId hi = net.peek_next_packet_id();
      if (hi > 1) {
        for (const PacketId dropped :
             net.purge_packet(1 + static_cast<PacketId>(c) % (hi - 1))) {
          gen.requeue(dropped);
        }
      }
    }
    gen.step();
    simulator.step();
  }
  const verify::NetworkInvariantAuditor* aud = simulator.auditor();
  EXPECT_GT(aud->audits_run(), 0u);
  std::set<verify::ViolationKind> kinds;
  for (const verify::Violation& v : aud->violations()) kinds.insert(v.kind);
  EXPECT_TRUE(aud->clean() || !kinds.empty());
  if (!aud->clean()) ADD_FAILURE() << aud->report();
  return kinds;
}

// ---------------------------------------------------------------------------
// Clean scenarios: the auditor must not cry wolf.
// ---------------------------------------------------------------------------

class InvariantAuditorFabrics
    : public ::testing::TestWithParam<FabricParam> {};

TEST_P(InvariantAuditorFabrics, IdleNetwork) {
  sim::Simulator simulator(audited_config(GetParam()));
  simulator.run(200);
  EXPECT_TRUE(simulator.auditor()->clean()) << simulator.auditor()->report();
  EXPECT_EQ(simulator.auditor()->flits_tracked(), 0u);
}

TEST_P(InvariantAuditorFabrics, LoadedTraffic) {
  run_audited(audited_config(GetParam()), 600);
}

TEST_P(InvariantAuditorFabrics, AttackNoMitigation) {
  sim::SimConfig sc = audited_config(GetParam());
  sc.attacks.push_back(dest_attack(50));
  run_audited(std::move(sc), 700);
}

TEST_P(InvariantAuditorFabrics, AttackWithLOb) {
  sim::SimConfig sc = audited_config(GetParam());
  sc.mode = sim::MitigationMode::kLOb;
  sc.attacks.push_back(dest_attack(50));
  run_audited(std::move(sc), 700);
}

TEST_P(InvariantAuditorFabrics, AttackWithReroutePurges) {
  sim::SimConfig sc = audited_config(GetParam());
  sc.mode = sim::MitigationMode::kReroute;
  sc.reroute_latency = 60;
  sc.attacks.push_back(dest_attack(50));
  run_audited(std::move(sc), 900);
}

TEST_P(InvariantAuditorFabrics, SpontaneousPurgeStorm) {
  run_audited(audited_config(GetParam()), 700, 1.0, /*purge_every=*/53);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, InvariantAuditorFabrics,
                         ::testing::ValuesIn(kFabrics));

TEST(InvariantAuditorClean, HeavyTrafficFullStepping) {
  sim::SimConfig sc = audited_config();
  sc.noc.active_step = false;
  run_audited(std::move(sc), 500, 2.0);
}

TEST(InvariantAuditorClean, TdmPerVcBuffers) {
  sim::SimConfig sc = audited_config();
  sc.noc.tdm_enabled = true;
  sc.noc.retrans_scheme = RetransmissionScheme::kPerVcBuffer;
  run_audited(std::move(sc), 500);
}

TEST(InvariantAuditorClean, TransientFaults) {
  sim::SimConfig sc = audited_config();
  sc.transient_phit_fault_prob = 1e-3;
  run_audited(std::move(sc), 600);
}

TEST(InvariantAuditorClean, AuditPeriodSampling) {
  sim::SimConfig sc = audited_config();
  sc.audit.period = 7;
  sim::Simulator simulator(std::move(sc));
  simulator.run(100);
  EXPECT_TRUE(simulator.auditor()->clean());
  EXPECT_LT(simulator.auditor()->audits_run(), 100u);
}

// ---------------------------------------------------------------------------
// Forced violations: drive the observer interface with lies and check each
// class fires. (The mutation builds prove the same end-to-end through real
// datapath bugs.)
// ---------------------------------------------------------------------------

class ForcedViolationTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Network net{cfg};
  verify::AuditConfig acfg{.enabled = true};
  verify::NetworkInvariantAuditor aud{net, acfg};

  PacketInfo packet(NodeId src, NodeId dest, int len) {
    PacketInfo info;
    info.id = net.next_packet_id();
    info.src_core = src;
    info.dest_core = dest;
    info.src_router = net.geometry().router_of_core(src);
    info.dest_router = net.geometry().router_of_core(dest);
    info.length = len;
    return info;
  }

  [[nodiscard]] std::set<verify::ViolationKind> kinds() const {
    std::set<verify::ViolationKind> k;
    for (const verify::Violation& v : aud.violations()) k.insert(v.kind);
    return k;
  }
};

TEST_F(ForcedViolationTest, GhostInjectionReportsFlitLoss) {
  net.set_audit(&aud);
  PacketInfo ghost = packet(0, 63, 3);
  aud.on_packet_injected(0, ghost);  // ledger says resident; fabric is empty
  net.step();
  aud.on_cycle_end();
  EXPECT_TRUE(kinds().contains(verify::ViolationKind::kFlitLoss))
      << aud.report();
}

TEST_F(ForcedViolationTest, UntrackedResidentReportsUnknownFlit) {
  // Inject for real but without the audit installed: the census finds flits
  // the ledger never saw.
  const PacketInfo info = packet(0, 63, 3);
  ASSERT_TRUE(net.try_inject(info, std::vector<std::uint64_t>(2, 1)));
  net.set_audit(&aud);
  net.step();
  aud.on_cycle_end();
  EXPECT_TRUE(kinds().contains(verify::ViolationKind::kUnknownFlit))
      << aud.report();
}

TEST_F(ForcedViolationTest, DoubleDeliveryReported) {
  const PacketInfo info = packet(0, 1, 1);
  aud.on_packet_injected(0, info);
  Flit f;
  f.packet = info.id;
  f.seq = 0;
  aud.on_flit_delivered(5, f);
  aud.on_flit_delivered(5, f);
  EXPECT_TRUE(kinds().contains(verify::ViolationKind::kDuplicateDelivery));
}

TEST_F(ForcedViolationTest, FalsePurgeReportsPurgeLeak) {
  net.set_audit(&aud);
  const PacketInfo info = packet(0, 63, 4);
  ASSERT_TRUE(net.try_inject(info, std::vector<std::uint64_t>(3, 2)));
  net.run(4);
  // Claim the packet was purged; its flits are in fact still resident.
  aud.on_flits_purged(net.now(), info.id, {});
  net.step();
  aud.on_cycle_end();
  EXPECT_TRUE(kinds().contains(verify::ViolationKind::kPurgeLeak))
      << aud.report();
}

TEST_F(ForcedViolationTest, ViolationReportIsDescriptive) {
  net.set_audit(&aud);
  PacketInfo ghost = packet(2, 50, 2);
  aud.on_packet_injected(0, ghost);
  net.step();
  aud.on_cycle_end();
  ASSERT_FALSE(aud.clean());
  const std::string text = aud.report();
  EXPECT_NE(text.find("flit_loss"), std::string::npos) << text;
  EXPECT_NE(text.find("packet"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Mutation self-test: in an HTNOC_MUTATION_* build, a targeted scenario and
// a small fixed-seed campaign must both catch the compiled bug.
// ---------------------------------------------------------------------------

TEST(MutationSelfTest, TargetedScenarioTripsExpectedKind) {
  if (verify::compiled_mutation()[0] == '\0') {
    GTEST_SKIP() << "clean build: no mutation compiled in";
  }
  sim::SimConfig sc = audited_config();
  sc.audit.deadlock_horizon = 120;  // catch starvation inside the run
  sc.attacks.push_back(dest_attack(40));
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppProfile profile = traffic::blackscholes_profile();
  profile.injection_rate *= 1.2;
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 7;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  simulator.set_drop_callback([&](PacketId id) { gen.requeue(id); });

  // Purge storms are what expose the purge-path mutation; for the others
  // they only add noise (and with DROP_ACK a purge of a delivered-but-
  // unACKed packet trips a credit contract check before the auditor gets
  // to report — the campaign still flags that run, but this test wants the
  // auditor's own verdict).
  const bool storm =
      verify::expected_violation() == verify::ViolationKind::kPurgeLeak;
  for (Cycle c = 0; c < 900; ++c) {
    if (storm && c > 60 && c % 13 == 0) {
      // Purge a recently injected packet — one old enough to have flits in
      // retransmission slots but young enough to still be in flight.
      const PacketId hi = net.peek_next_packet_id();
      const PacketId victim =
          hi > 9 ? hi - 1 - static_cast<PacketId>(c) % 8 : PacketId{1};
      if (hi > 1) {
        for (const PacketId dropped : net.purge_packet(victim)) {
          gen.requeue(dropped);
        }
      }
    }
    gen.step();
    simulator.step();
  }

  const verify::NetworkInvariantAuditor* aud = simulator.auditor();
  ASSERT_FALSE(aud->clean())
      << "mutation " << verify::compiled_mutation() << " was not caught";
  std::set<verify::ViolationKind> kinds;
  for (const verify::Violation& v : aud->violations()) kinds.insert(v.kind);
  EXPECT_TRUE(kinds.contains(verify::expected_violation()))
      << "mutation " << verify::compiled_mutation() << " expected "
      << verify::to_string(verify::expected_violation()) << "; got:\n"
      << aud->report();
}

TEST(MutationSelfTest, CampaignCatchesMutationWithReproSpec) {
  if (verify::compiled_mutation()[0] == '\0') {
    GTEST_SKIP() << "clean build: no mutation compiled in";
  }
  verify::CampaignSpec spec;
  spec.seed = 0xC0FFEE;
  spec.scenarios = 80;
  spec.threads = 2;
  spec.audit.deadlock_horizon = 150;
  const verify::CampaignResult result = verify::FaultCampaign(spec).run();
  ASSERT_GT(result.failures(), 0u)
      << "campaign missed mutation " << verify::compiled_mutation();

  // Every failure carries a parseable repro spec, and replaying it
  // reproduces the identical outcome.
  for (const verify::ScenarioResult& s : result.scenarios) {
    if (s.ok) continue;
    const std::string line = verify::format_repro({spec.seed, s.index});
    const auto parsed = verify::parse_repro(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->seed, spec.seed);
    EXPECT_EQ(parsed->index, s.index);
    const verify::ScenarioResult replay =
        verify::FaultCampaign::run_scenario(spec, s.index);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.error, s.error);
    EXPECT_EQ(replay.descriptor, s.descriptor);
    break;  // one replay is enough; the determinism test covers the rest
  }
}

}  // namespace
}  // namespace htnoc
