#include "traffic/app_profile.hpp"

#include <gtest/gtest.h>

#include "traffic/generator.hpp"

namespace htnoc::traffic {
namespace {

class TrafficModelTest : public ::testing::Test {
 protected:
  MeshGeometry geom{4, 4, 4};
};

TEST_F(TrafficModelTest, ProfilesAreDistinctAndNamed) {
  const auto all = all_profiles();
  ASSERT_EQ(all.size(), 4u);
  std::set<std::string> names;
  for (const auto& p : all) names.insert(p.name);
  EXPECT_TRUE(names.contains("blackscholes"));
  EXPECT_TRUE(names.contains("facesim"));
  EXPECT_TRUE(names.contains("ferret"));
  EXPECT_TRUE(names.contains("fft"));
}

TEST_F(TrafficModelTest, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(profile_by_name("fft").name, "fft");
  EXPECT_THROW((void)profile_by_name("doom"), ContractViolation);
}

TEST_F(TrafficModelTest, BlackscholesConcentratesOnRouter0) {
  // The Fig. 1 shape: router 0 is the busiest destination and demand decays
  // with distance.
  const AppTrafficModel model(geom, blackscholes_profile());
  const auto m = model.demand_matrix();
  double col0 = 0.0;
  double col15 = 0.0;
  for (int s = 0; s < 16; ++s) {
    col0 += m[static_cast<std::size_t>(s)][0];
    col15 += m[static_cast<std::size_t>(s)][15];
  }
  EXPECT_GT(col0, 4.0 * col15);
}

TEST_F(TrafficModelTest, DemandMatrixIsNormalized) {
  for (const auto& p : all_profiles()) {
    const AppTrafficModel model(geom, p);
    double total = 0.0;
    for (const auto& row : model.demand_matrix()) {
      for (const double v : row) total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << p.name;
  }
}

TEST_F(TrafficModelTest, SampledDestsMatchDemandShape) {
  const AppTrafficModel model(geom, blackscholes_profile());
  Rng rng(17);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) {
    const NodeId d = model.pick_dest(37, rng);  // src core on router 9
    ASSERT_LT(d, 64);
    ASSERT_NE(d, 37);
    ++counts[geom.router_of_core(d)];
  }
  // Router 0 must dominate distant background routers even from far away.
  EXPECT_GT(counts[0], counts[15] * 2);
}

TEST_F(TrafficModelTest, LengthsWithinProfileBounds) {
  const auto p = fft_profile();
  const AppTrafficModel model(geom, p);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int len = model.pick_length(rng);
    EXPECT_GE(len, p.min_len);
    EXPECT_LE(len, p.max_len);
  }
}

TEST_F(TrafficModelTest, MemAddressesWithinFootprint) {
  const auto p = ferret_profile();
  const AppTrafficModel model(geom, p);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t mem = model.pick_mem(rng);
    EXPECT_GE(mem, p.mem_base);
    EXPECT_LT(mem, p.mem_base + p.mem_span);
  }
}

class GeneratorTest : public ::testing::Test {
 protected:
  NocConfig cfg;
  Network net{cfg};
  DeliveryDispatcher dispatcher;

  void SetUp() override { dispatcher.install(net); }
};

TEST_F(GeneratorTest, CompletesFixedWorkload) {
  AppTrafficModel model(net.geometry(), blackscholes_profile());
  TrafficGenerator::Params p;
  p.seed = 7;
  p.total_requests = 100;
  TrafficGenerator gen(net, model, p, dispatcher);
  Cycle c = 0;
  while (!gen.done() && c < 100000) {
    gen.step();
    net.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  EXPECT_EQ(gen.stats().requests_generated, 100u);
  EXPECT_EQ(gen.stats().packets_delivered, gen.stats().packets_injected);
  EXPECT_GT(gen.stats().replies_generated, 0u);
  EXPECT_GT(gen.stats().avg_latency(), 0.0);
}

TEST_F(GeneratorTest, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    Network n2{cfg};
    DeliveryDispatcher d2;
    d2.install(n2);
    AppTrafficModel model(n2.geometry(), fft_profile());
    TrafficGenerator::Params p;
    p.seed = 99;
    p.total_requests = 50;
    TrafficGenerator gen(n2, model, p, d2);
    Cycle c = 0;
    while (!gen.done() && c < 100000) {
      gen.step();
      n2.step();
      ++c;
    }
    return std::make_pair(c, gen.stats().latency_sum);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(GeneratorTest, RestrictedCoreSetOnlyInjectsThere) {
  AppTrafficModel model(net.geometry(), blackscholes_profile());
  TrafficGenerator::Params p;
  p.seed = 3;
  p.total_requests = 30;
  p.cores = {5, 6};
  p.enable_replies = false;
  TrafficGenerator gen(net, model, p, dispatcher);
  Cycle c = 0;
  while (!gen.done() && c < 200000) {
    gen.step();
    net.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
  for (NodeId core = 0; core < 64; ++core) {
    const auto injected = net.ni(core).stats().packets_injected;
    if (core == 5 || core == 6) {
      EXPECT_GT(injected, 0u) << core;
    } else {
      EXPECT_EQ(injected, 0u) << core;
    }
  }
}

TEST_F(GeneratorTest, RequeueReinjectsWithFreshId) {
  AppTrafficModel model(net.geometry(), blackscholes_profile());
  TrafficGenerator::Params p;
  p.seed = 11;
  p.total_requests = 1;
  p.enable_replies = false;
  TrafficGenerator gen(net, model, p, dispatcher);
  // Generate + inject the single request.
  Cycle c = 0;
  while (gen.stats().packets_injected == 0 && c < 10000) {
    gen.step();
    net.step();
    ++c;
  }
  ASSERT_EQ(gen.outstanding(), 1u);
  // Simulate a purge of that packet.
  const PacketId original = net.next_packet_id() - 1;
  for (const PacketId dropped : net.purge_packet(original)) {
    gen.requeue(dropped);
  }
  EXPECT_EQ(gen.outstanding(), 0u);
  EXPECT_EQ(gen.backlog_size(), 1u);
  // It re-injects and completes.
  while (!gen.done() && c < 20000) {
    gen.step();
    net.step();
    ++c;
  }
  EXPECT_TRUE(gen.done());
}

}  // namespace
}  // namespace htnoc::traffic
