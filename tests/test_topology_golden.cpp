// Golden-model differential suite for fabric construction and routing.
//
// Per-cycle verify::state_digest of the paper's 4x4 concentrated mesh and
// its traffic generator under idle, loaded and attacked traffic is checked
// in under tests/golden/cmesh4x4_*.state.digests, and every run is
// compared against it, so any refactor of fabric construction, routing
// selection or the step loop that changes even one field of simulator
// state on the seed fabric fails here at the exact cycle it diverges.
//
// The goldens were recorded from code that still matched an earlier
// census-digest record (flit placements, utilization and four counters)
// taken on the legacy hard-coded fabric, before the topology layer
// existed, so they still pin that fabric's behaviour.
//
// The audited record runs the attacked fabric with the invariant auditor
// armed, L-Ob, a purge every 37 cycles and a short starvation horizon, so
// the digest also pins the auditor's own state (ledger, ledger garbage
// collection, purge flips, head-of-line watches, dedup set, counters)
// after every cycle: an auditor rewrite must reproduce it exactly.
//
// Regenerating (only after an *intended* behavior change, with review):
//   HTNOC_UPDATE_GOLDEN=1 ./build/tests/test_topology_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/snapshot.hpp"

namespace {

using namespace htnoc;

enum class Load : std::uint8_t { kIdle, kLoaded, kAttacked, kAudited };

/// Drive the seed 4x4 cmesh under a fixed-seed scenario and record the
/// state digest after every step() call.
std::vector<std::uint64_t> run_digests(Load load, Cycle cycles) {
  sim::SimConfig sc;
  sc.noc.seed = 0xBEEF;
  sc.seed = 0xF00D;
  if (load == Load::kAudited) {
    sc.audit.enabled = true;
    sc.audit.deadlock_horizon = 120;
  }
  if (load == Load::kAttacked || load == Load::kAudited) {
    sc.mode = sim::MitigationMode::kLOb;
    sim::AttackSpec atk;
    atk.link = {5, Direction::kEast};
    atk.tasp.kind = trojan::TargetKind::kDest;
    atk.tasp.target_dest = 0;
    atk.enable_killsw_at = 150;
    sc.attacks.push_back(atk);
  }
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppProfile profile = traffic::profile_by_name("facesim");
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 0x5EED;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  std::vector<std::uint64_t> out;
  out.reserve(cycles);
  for (Cycle c = 0; c < cycles; ++c) {
    if (load == Load::kAudited && c > 50 && c % 37 == 0) {
      // Purge a recently injected packet, young enough to still be in
      // flight, and hand it back to the generator for re-injection.
      const PacketId hi = net.peek_next_packet_id();
      if (hi > 9) {
        for (const PacketId dropped :
             net.purge_packet(hi - 1 - static_cast<PacketId>(c) % 8)) {
          gen.requeue(dropped);
        }
      }
    }
    if (load != Load::kIdle) gen.step();
    simulator.step();
    out.push_back(verify::state_digest(simulator, {&gen}));
  }
  if (const verify::NetworkInvariantAuditor* aud = simulator.auditor()) {
    EXPECT_TRUE(aud->clean()) << aud->report();
    EXPECT_EQ(aud->audits_run(), cycles);
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(HTNOC_GOLDEN_DIR) + "/" + name;
}

bool update_mode() { return std::getenv("HTNOC_UPDATE_GOLDEN") != nullptr; }

void write_golden(const std::string& name,
                  const std::vector<std::uint64_t>& digests) {
  std::ofstream os(golden_path(name));
  ASSERT_TRUE(os) << "cannot write " << golden_path(name);
  os << "# per-cycle verify::state_digest of the 4x4 cmesh and its traffic "
        "generator\n";
  char buf[32];
  for (const std::uint64_t d : digests) {
    std::snprintf(buf, sizeof buf, "%016llx\n",
                  static_cast<unsigned long long>(d));
    os << buf;
  }
}

std::vector<std::uint64_t> read_golden(const std::string& name) {
  std::ifstream is(golden_path(name));
  EXPECT_TRUE(is) << "missing golden file " << golden_path(name)
                  << " (regenerate with HTNOC_UPDATE_GOLDEN=1)";
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(std::stoull(line, nullptr, 16));
  }
  return out;
}

void check_against_golden(const std::string& name, Load load, Cycle cycles) {
  const std::vector<std::uint64_t> got = run_digests(load, cycles);
  if (update_mode()) {
    write_golden(name, got);
    return;
  }
  const std::vector<std::uint64_t> want = read_golden(name);
  ASSERT_EQ(want.size(), got.size()) << name;
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(want[c], got[c])
        << name << ": first divergence from the golden record at cycle " << c;
  }
}

TEST(TopologyGolden, IdleCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_idle.state.digests", Load::kIdle, 300);
}

TEST(TopologyGolden, LoadedCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_loaded.state.digests", Load::kLoaded, 600);
}

TEST(TopologyGolden, AttackedCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_attacked.state.digests", Load::kAttacked,
                       600);
}

TEST(TopologyGolden, AuditedCmesh4x4KeepsAuditorState) {
  check_against_golden("cmesh4x4_audited.state.digests", Load::kAudited,
                       1500);
}

}  // namespace
