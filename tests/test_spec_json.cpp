// Spec JSON codecs: the round-trip fixed point (parse -> serialize ->
// parse reaches a fixed point in one step), equivalence with the CLI
// attack presets, and a rejection corpus — unknown keys, wrong types and
// out-of-range values must all fail strict parsing with a path-tagged
// SpecError, for both the sweep and the campaign schema.
#include "sweep/spec_json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sweep/spec.hpp"
#include "verify/campaign_json.hpp"

namespace htnoc {
namespace {

using json::parse;
using json::to_string;
using sweep::SpecError;

std::string canon_sweep(const std::string& text) {
  return to_string(sweep::sweep_spec_to_json(sweep::parse_sweep_spec(text)));
}

std::string canon_campaign(const std::string& text) {
  return to_string(
      verify::campaign_spec_to_json(verify::parse_campaign_spec(text)));
}

TEST(SweepSpecJson, DefaultsRoundTrip) {
  const std::string once = canon_sweep("{}");
  EXPECT_EQ(canon_sweep(once), once) << once;
  // The canonical form is complete: every supported scalar appears.
  for (const char* key :
       {"modes", "attacks", "profiles", "rates", "replicates", "seed",
        "cycles", "requests", "cycle_budget", "probe_period",
        "primary_domain", "noc"}) {
    std::string needle("\"");
    needle += key;
    needle += '"';
    EXPECT_NE(once.find(needle), std::string::npos)
        << "missing " << key << " in " << once;
  }
}

TEST(SweepSpecJson, FullDocumentFixedPoint) {
  const char* doc = R"({
    "modes": ["none", "lob", "reroute"],
    "attacks": ["none", "single", "mem", "multi"],
    "profiles": ["blackscholes", "fft"],
    "rates": [0.5, 1.0, 1.5],
    "replicates": 4,
    "seed": "0xdead5eed",
    "cycles": 2500,
    "probe_period": 50,
    "primary_domain": "d2",
    "trace": {"enabled": true, "capacity": 4096},
    "background": {"profile": "fft", "rate": 0.25, "domain": "d2"},
    "noc": {"topology": "mesh", "mesh_width": 6, "mesh_height": 4,
            "concentration": 1, "vcs_per_port": 4, "buffer_depth": 8,
            "ecc": "parity", "tdm": false, "step_threads": 2}
  })";
  const std::string once = canon_sweep(doc);
  EXPECT_EQ(canon_sweep(once), once);

  const sweep::SweepSpec spec = sweep::parse_sweep_spec(doc);
  EXPECT_EQ(spec.modes.size(), 3u);
  EXPECT_EQ(spec.attack_scenarios.size(), 4u);
  EXPECT_EQ(spec.base_seed, 0xDEAD5EEDull);
  EXPECT_EQ(spec.base.noc.mesh_width, 6);
  EXPECT_EQ(spec.base.noc.step_threads, 2);
  EXPECT_TRUE(spec.base.trace.enabled);
  EXPECT_EQ(spec.base.trace.capacity, 4096u);
  ASSERT_TRUE(spec.background.has_value());
  EXPECT_DOUBLE_EQ(spec.background->injection_rate, 0.25);
  EXPECT_EQ(spec.primary_domain, TdmDomain::kD2);
}

TEST(SweepSpecJson, PresetsMatchExplicitImplants) {
  // Serializing a preset and re-parsing the explicit implant form must
  // build the same scenario — the named presets are pure shorthand.
  const sweep::SweepSpec named =
      sweep::parse_sweep_spec(R"({"attacks": ["multi"]})");
  const std::string expanded = to_string(sweep::sweep_spec_to_json(named));
  const sweep::SweepSpec relo = sweep::parse_sweep_spec(expanded);
  ASSERT_EQ(relo.attack_scenarios.size(), 1u);
  ASSERT_EQ(relo.attack_scenarios[0].attacks.size(), 3u);
  EXPECT_EQ(relo.attack_scenarios[0].attacks[1].link.from, 2);
  EXPECT_EQ(relo.attack_scenarios[0].attacks[1].link.dir, Direction::kWest);
  EXPECT_EQ(to_string(sweep::sweep_spec_to_json(relo)), expanded);
}

TEST(SweepSpecJson, ImplantEccFollowsNocBlockRegardlessOfOrder) {
  // The attacker knows the link's ECC scheme (Sec. III-B): implants are
  // tuned to noc.ecc even when "attacks" precedes "noc" in the document.
  const sweep::SweepSpec spec = sweep::parse_sweep_spec(
      R"({"attacks": ["single"], "noc": {"ecc": "parity"}})");
  ASSERT_EQ(spec.attack_scenarios.size(), 1u);
  ASSERT_EQ(spec.attack_scenarios[0].attacks.size(), 1u);
  EXPECT_EQ(spec.attack_scenarios[0].attacks[0].tasp.ecc,
            EccScheme::kParity);
}

TEST(SweepSpecJson, RejectionCorpus) {
  const char* corpus[] = {
      // Unknown keys, at every level.
      R"({"bogus": 1})",
      R"({"noc": {"bogus": 1}})",
      R"({"attacks": [{"name": "x", "implants": [], "bogus": 1}]})",
      R"({"background": {"profile": "fft", "bogus": 1}})",
      R"({"trace": {"bogus": true}})",
      // Wrong types.
      R"({"modes": "none"})",
      R"({"modes": [1]})",
      R"({"rates": [true]})",
      R"({"replicates": "three"})",
      R"({"noc": "cmesh"})",
      R"({"noc": {"tdm": "yes"}})",
      R"({"seed": 1.5})",
      R"({"background": 7})",
      // Out-of-range / unknown values.
      R"({"modes": ["teleport"]})",
      R"({"attacks": ["nuke"]})",
      R"({"profiles": ["solitaire"]})",
      R"({"rates": [0.0]})",
      R"({"rates": [-1.0]})",
      R"({"replicates": 0})",
      R"({"cycles": 0})",
      R"({"noc": {"topology": "hypercube"}})",
      // The torus was retired: x-y routing over its wrap links deadlocks.
      R"({"noc": {"topology": "torus"}})",
      R"({"noc": {"mesh_width": 1}})",
      R"({"noc": {"mesh_width": 65}})",
      R"({"noc": {"step_threads": 0}})",
      R"({"noc": {"step_threads": 257}})",
      R"({"noc": {"vcs_per_port": 17}})",
      R"({"primary_domain": "d3"})",
      R"({"background": {"rate": 11.0}})",
      // Structurally invalid configurations (NocConfig::validate()).
      R"({"noc": {"topology": "mesh", "concentration": 4}})",
      R"({"noc": {"tdm": true, "vcs_per_port": 3}})",
      // 65,536 cores: one more than a NodeId can name.
      R"({"noc": {"mesh_width": 64, "mesh_height": 64, "concentration": 16}})",
      // Empty axes make an empty grid.
      R"({"modes": []})",
      R"({"profiles": []})",
      R"({"rates": []})",
      // Not even JSON.
      "{",
      R"({"modes": ["none"],})",
  };
  for (const char* doc : corpus) {
    EXPECT_THROW((void)sweep::parse_sweep_spec(doc), std::exception)
        << "accepted: " << doc;
  }
}

TEST(SweepSpecJson, ErrorsNameTheOffendingPath) {
  try {
    (void)sweep::parse_sweep_spec(R"({"noc": {"step_threads": 0}})");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("noc.step_threads"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpecJson, RoundTripFixedPoint) {
  const char* doc = R"({
    "seed": "0x20260807",
    "scenarios": 500,
    "step_threads": 2,
    "audit_period": 128,
    "topologies": ["cmesh", "mesh"]
  })";
  const std::string once = canon_campaign(doc);
  EXPECT_EQ(canon_campaign(once), once);

  const verify::CampaignSpec spec = verify::parse_campaign_spec(doc);
  EXPECT_EQ(spec.seed, 0x20260807ull);
  EXPECT_EQ(spec.scenarios, 500u);
  EXPECT_EQ(spec.step_threads, 2);
  EXPECT_EQ(spec.audit.period, 128u);
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.topologies[1], TopologyKind::kMesh);
}

TEST(CampaignSpecJson, DefaultsRoundTrip) {
  const std::string once = canon_campaign("{}");
  EXPECT_EQ(canon_campaign(once), once) << once;
}

TEST(CampaignSpecJson, RejectionCorpus) {
  const char* corpus[] = {
      R"({"bogus": 1})",
      // The execution knob lives in the submission envelope, not the spec.
      R"({"threads": 4})",
      R"({"jobs": 4})",
      R"({"seed": -1})",
      R"({"scenarios": 0})",
      R"({"scenarios": "many"})",
      R"({"step_threads": 0})",
      R"({"step_threads": 257})",
      R"({"audit_period": 0})",
      R"({"topologies": "cmesh"})",
      R"({"topologies": ["ring"]})",
      R"({"topologies": ["torus"]})",
      R"([])",
  };
  for (const char* doc : corpus) {
    EXPECT_THROW((void)verify::parse_campaign_spec(doc), std::exception)
        << "accepted: " << doc;
  }
}

}  // namespace
}  // namespace htnoc
