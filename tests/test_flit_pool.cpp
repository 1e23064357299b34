// Edge cases of the data-oriented flit storage (src/noc/pool.hpp,
// docs/PERFORMANCE.md): ring FIFO semantics across wrap and regrowth, arena
// exhaustion/regrowth under a purge storm, generation-checked handle reuse
// (the ABA guard), and a snapshot taken while scramble stations hold phits
// restoring the pool-backed state bit-identically.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/expect.hpp"
#include "noc/input_unit.hpp"
#include "noc/link.hpp"
#include "noc/pool.hpp"
#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/snapshot.hpp"

namespace htnoc {
namespace {

// --- Ring ---

TEST(Ring, FifoAcrossWrapAndRegrowth) {
  pool::Ring<int> r;
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 6; ++i) r.push_back(i);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  // head_ is now mid-buffer; pushing past the old tail wraps, then exceeds
  // capacity and regrows — order must survive both.
  for (int i = 6; i < 20; ++i) r.push_back(i);
  ASSERT_EQ(r.size(), 17u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i], static_cast<int>(i) + 3);
  }
}

TEST(Ring, EraseAtPreservesOrder) {
  pool::Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(i);
  r.pop_front();
  r.pop_front();
  for (int i = 8; i < 12; ++i) r.push_back(i);  // wrapped layout
  r.erase_at(0);                                // == pop_front
  r.erase_at(3);                                // mid erase across the wrap
  std::vector<int> got;
  for (const int v : r) got.push_back(v);
  EXPECT_EQ(got, (std::vector<int>{3, 4, 5, 7, 8, 9, 10, 11}));
}

TEST(Ring, IterationMatchesIndexing) {
  pool::Ring<int> r;
  for (int i = 0; i < 5; ++i) r.push_back(i * 7);
  std::size_t i = 0;
  for (const int v : r) {
    EXPECT_EQ(v, r[i]);
    ++i;
  }
  EXPECT_EQ(i, r.size());
}

// --- FlitArena ---

Flit make_flit(PacketId packet, int seq, int len, VcId vc,
               std::uint64_t wire) {
  Flit f;
  f.packet = packet;
  f.seq = seq;
  f.length = len;
  f.vc = vc;
  f.wire = wire;
  if (len == 1) {
    f.type = FlitType::kHeadTail;
  } else if (seq == 0) {
    f.type = FlitType::kHead;
  } else if (seq == len - 1) {
    f.type = FlitType::kTail;
  } else {
    f.type = FlitType::kBody;
  }
  return f;
}

TEST(FlitArena, GrowsDeterministicallyPastInitialCapacity) {
  pool::FlitArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  std::vector<pool::FlitHandle> hs;
  for (int i = 0; i < 40; ++i) {
    hs.push_back(arena.alloc(make_flit(7, i, 64, 0, 0x1000u + i), 100 + i));
  }
  EXPECT_EQ(arena.live(), 40u);
  EXPECT_EQ(arena.capacity(), 64u);  // 16 -> 32 -> 64 doubling
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(arena.valid(hs[static_cast<std::size_t>(i)]));
    EXPECT_EQ(arena.flit(hs[static_cast<std::size_t>(i)]).seq, i);
    EXPECT_EQ(arena.arrival(hs[static_cast<std::size_t>(i)]),
              static_cast<Cycle>(100 + i));
  }
}

TEST(FlitArena, StaleHandleAfterReleaseIsInvalidNotAliased) {
  pool::FlitArena arena;
  const pool::FlitHandle h1 = arena.alloc(make_flit(1, 0, 1, 0, 0xAA), 5);
  arena.release(h1);
  // LIFO free list: the next alloc reuses h1's slot with a bumped
  // generation. The stale handle must neither validate nor alias the new
  // occupant (the ABA hazard of a purged stream racing a retransmission).
  const pool::FlitHandle h2 = arena.alloc(make_flit(2, 3, 4, 1, 0xBB), 9);
  EXPECT_EQ(h1.index(), h2.index());
  EXPECT_NE(h1.generation(), h2.generation());
  EXPECT_FALSE(arena.valid(h1));
  ASSERT_TRUE(arena.valid(h2));
  EXPECT_EQ(arena.flit(h2).packet, 2u);
  EXPECT_THROW((void)arena.flit(h1), ContractViolation);
  EXPECT_THROW(arena.release(h1), ContractViolation);  // double free
}

TEST(FlitArena, GenerationWrapsModulo256) {
  pool::FlitArena arena;
  pool::FlitHandle h = arena.alloc(make_flit(1, 0, 1, 0, 0), 0);
  const std::uint32_t slot = h.index();
  for (int i = 0; i < 256; ++i) {
    arena.release(h);
    h = arena.alloc(make_flit(1, i + 1, 1, 0, 0), 0);
    ASSERT_EQ(h.index(), slot);  // LIFO free list reuses the same slot
  }
  // 256 release/alloc rounds wrap the 8-bit generation back to its start:
  // the current handle is valid and the arena holds exactly one live flit.
  EXPECT_TRUE(arena.valid(h));
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.flit(h).seq, 256);
}

// --- InputUnit over the arena: purge-storm exhaustion and reuse ---

class PoolInputTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Link link;
  InputUnit in{cfg, 3, 2};
  Cycle now = 0;

  void SetUp() override { in.connect(&link); }

  void deliver(PacketId packet, int seq, int len, VcId vc) {
    LinkPhit p;
    p.flit = make_flit(packet, seq, len, vc, 0xF00 + static_cast<unsigned>(seq));
    p.codeword = ecc::secded().encode(p.flit.wire);
    link.send(now, std::move(p));
    ++now;
    in.drain_link(now);
    in.process_staged(now);
    std::vector<AckMsg> acks;
    link.drain_acks(now + 1, acks);
  }
};

TEST_F(PoolInputTest, PurgeStormExhaustsAndRegrowsArena) {
  // Three storm rounds, each buffering well past the arena's initial 16
  // slots (mutation self-tests legitimately overdrive the credit bound, so
  // the arena must regrow, never assert), then purging every packet.
  for (int round = 0; round < 3; ++round) {
    const int packets = 5;
    const int len = 6;
    for (int pk = 0; pk < packets; ++pk) {
      for (int seq = 0; seq < len; ++seq) {
        deliver(static_cast<PacketId>(100 * round + pk), seq, len,
                static_cast<VcId>(pk % cfg.vcs_per_port));
      }
    }
    EXPECT_EQ(in.occupancy(), packets * len);
    EXPECT_GE(in.arena().capacity(), 32u);

    int purged = 0;
    for (int pk = 0; pk < packets; ++pk) {
      const auto res =
          in.purge_packet(now, static_cast<PacketId>(100 * round + pk));
      purged += res.flits_purged;
      EXPECT_EQ(static_cast<int>(res.buffered_uids.size()), len);
    }
    EXPECT_EQ(purged, packets * len);
    EXPECT_EQ(in.occupancy(), 0);
    EXPECT_EQ(in.arena().live(), 0u);
    for (int pk = 0; pk < packets; ++pk) {
      EXPECT_FALSE(in.has_packet(static_cast<PacketId>(100 * round + pk)));
    }
    // Every purged flit returns its credit through the reverse channel.
    std::vector<CreditMsg> credits;
    link.drain_credits(now + 2, credits);
    EXPECT_EQ(static_cast<int>(credits.size()), packets * len);
  }
}

TEST_F(PoolInputTest, ReorderedArrivalsThreadTheHandleList) {
  // NACK-style reordering: seq 2 lands before seq 1. The stream's intrusive
  // list must keep seq order, and pops must come out in order once the gap
  // fills.
  deliver(9, 0, 4, 0);
  deliver(9, 2, 4, 0);
  deliver(9, 3, 4, 0);
  EXPECT_TRUE(in.front_flit_ready(now, 0));  // seq 0 is in-order
  (void)in.pop_front_flit(now, 0);
  EXPECT_FALSE(in.front_flit_ready(now, 0));  // gap at seq 1
  deliver(9, 1, 4, 0);
  ++now;  // the gap-filler finishes its BW stage
  for (int seq = 1; seq < 4; ++seq) {
    ASSERT_TRUE(in.front_flit_ready(now, 0));
    EXPECT_EQ(in.pop_front_flit(now, 0).seq, seq);
  }
  EXPECT_EQ(in.occupancy(), 0);
  EXPECT_EQ(in.arena().live(), 0u);
}

// --- snapshot while scramble stations hold phits ---

struct Rig {
  sim::Simulator sim;
  traffic::DeliveryDispatcher disp;
  traffic::AppTrafficModel model;
  traffic::TrafficGenerator gen;

  explicit Rig(const sim::SimConfig& cfg)
      : sim(cfg), model(sim.network().geometry(), traffic::blackscholes_profile()),
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

  void step(Cycle n) {
    for (Cycle c = 0; c < n; ++c) {
      gen.step();
      sim.step();
    }
  }
};

[[nodiscard]] int scramble_station_holds(const Network& net) {
  std::vector<ResidentFlit> res;
  net.collect_resident(res);
  int n = 0;
  for (const ResidentFlit& r : res) {
    if (r.site == FlitSite::kScrambleStation) ++n;
  }
  return n;
}

TEST(PoolSnapshot, MidScrambleStateRestoresBitIdentically) {
  // L-Ob under attack scrambles flits; a scrambled phit waits in the
  // receiver's station for its plain partner. Snapshot at a cycle where at
  // least one station entry is pending, restore into a fresh simulator, and
  // the pool-backed state (streams, arena contents, station) must resume
  // bit-identically.
  sim::SimConfig cfg;
  cfg.mode = sim::MitigationMode::kLOb;
  // Force the escalation ladder straight to scramble: the default sequence
  // starts with invert, which already slips past the comparator, so
  // stations would rarely hold.
  cfg.lob = mitigation::forced_lob_params(ObfMethod::kScramble,
                                          ObfGranularity::kFlit);
  sim::AttackSpec atk;
  atk.link = {0, Direction::kEast};
  atk.tasp.kind = trojan::TargetKind::kDest;
  atk.tasp.target_dest = 5;
  cfg.attacks.push_back(atk);
  cfg.audit.enabled = true;

  Rig a(cfg);
  bool snapshotted_mid_scramble = false;
  std::vector<std::uint8_t> blob;
  for (Cycle c = 0; c < 600; ++c) {
    a.step(1);
    if (scramble_station_holds(a.sim.network()) > 0) {
      blob = verify::save_snapshot(a.sim, {&a.gen});
      snapshotted_mid_scramble = true;
      break;
    }
  }
  ASSERT_TRUE(snapshotted_mid_scramble)
      << "attack scenario never left a scramble pending at a cycle boundary";

  Rig b(cfg);
  verify::load_snapshot(b.sim, {&b.gen}, blob);
  EXPECT_GT(scramble_station_holds(b.sim.network()), 0);
  ASSERT_EQ(verify::state_digest(a.sim, {&a.gen}),
            verify::state_digest(b.sim, {&b.gen}));
  for (Cycle c = 0; c < 200; ++c) {
    a.step(1);
    b.step(1);
    ASSERT_EQ(verify::state_digest(a.sim, {&a.gen}),
              verify::state_digest(b.sim, {&b.gen}))
        << "diverged " << (c + 1) << " cycles after the mid-scramble restore";
  }
  EXPECT_EQ(verify::save_snapshot(a.sim, {&a.gen}),
            verify::save_snapshot(b.sim, {&b.gen}));
}

}  // namespace
}  // namespace htnoc
