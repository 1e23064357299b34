// The fault campaign's scenario distribution is a stability contract: the
// nightly soak's (seed, index) -> scenario mapping must not drift when new
// scenario dimensions land, or historical repro specs stop replaying the
// failures they were filed against. The golden summary below was recorded
// before the topology dimension existed; a default-spec campaign (no
// topology axis configured) must reproduce it byte for byte.
//
// Regenerating (only after an *intended* distribution change, with review):
//   HTNOC_UPDATE_GOLDEN=1 ./build/tests/test_campaign_topology
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "verify/campaign.hpp"

namespace {

using namespace htnoc;

verify::CampaignSpec default_spec() {
  verify::CampaignSpec spec;
  spec.seed = 0x601D;
  spec.scenarios = 48;
  spec.threads = 2;
  return spec;
}

std::string golden_file() {
  return std::string(HTNOC_GOLDEN_DIR) + "/campaign_default_summary.txt";
}

TEST(CampaignTopologyDefault, SummaryByteIdenticalToPreTopologyGolden) {
  const verify::CampaignResult result =
      verify::FaultCampaign(default_spec()).run();
  ASSERT_EQ(result.failures(), 0u) << result.summary_text();
  const std::string summary = result.summary_text();

  if (std::getenv("HTNOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_file());
    ASSERT_TRUE(os) << "cannot write " << golden_file();
    os << summary;
    return;
  }

  std::ifstream is(golden_file());
  ASSERT_TRUE(is) << "missing golden file " << golden_file()
                  << " (regenerate with HTNOC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << is.rdbuf();
  EXPECT_EQ(want.str(), summary)
      << "default campaign distribution drifted from the pre-topology record";
}

TEST(CampaignTopologyMixed, CmeshAndMeshScenariosRunCleanUnderAudit) {
  // The opt-in path: scenarios drawing fabrics from both kinds must run
  // failure-free with the invariant auditor armed, and the descriptors
  // must show the dimension actually varies.
  verify::CampaignSpec spec = default_spec();
  spec.scenarios = 24;
  spec.topologies = {TopologyKind::kConcentratedMesh, TopologyKind::kMesh};
  const verify::CampaignResult result = verify::FaultCampaign(spec).run();
  EXPECT_EQ(result.failures(), 0u) << result.summary_text();

  std::set<std::string> fabrics;
  for (const verify::ScenarioResult& s : result.scenarios) {
    fabrics.insert(s.descriptor.substr(0, s.descriptor.find(' ')));
  }
  // Both kinds, and the mesh at both of the sizes it draws.
  EXPECT_EQ(fabrics, (std::set<std::string>{"topo=cmesh4x4", "topo=mesh4x4",
                                            "topo=mesh8x8"}));
}

}  // namespace
