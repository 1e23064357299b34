#include "verify/campaign_json.hpp"

namespace htnoc::verify {

using json::Value;
using sweep::bad;
using sweep::get_u64;
using sweep::get_u64_range;
using sweep::hex_string;

CampaignSpec campaign_spec_from_json(const json::Value& doc) {
  const json::Object* root = nullptr;
  try {
    root = &doc.as_object();
  } catch (const json::TypeError& e) {
    bad("spec", e.what());
  }
  CampaignSpec spec;
  for (const auto& [key, val] : *root) {
    if (key == "seed") {
      spec.seed = get_u64(val, "seed");
    } else if (key == "scenarios") {
      spec.scenarios = get_u64_range(val, "scenarios", 1, kMaxScenarios);
    } else if (key == "step_threads") {
      spec.step_threads =
          static_cast<int>(get_u64_range(val, "step_threads", 1, 256));
    } else if (key == "audit_period") {
      spec.audit.period = get_u64_range(val, "audit_period", kMinAuditPeriod,
                                        kMaxAuditPeriod);
    } else if (key == "shard_index") {
      spec.shard_index = get_u64(val, "shard_index");
    } else if (key == "shard_count") {
      spec.shard_count = get_u64_range(val, "shard_count", 1, 65'536);
    } else if (key == "warmup_cycles") {
      spec.warmup_cycles = get_u64_range(val, "warmup_cycles", 0, 10'000'000);
    } else if (key == "topologies") {
      const json::Array* arr = nullptr;
      try {
        arr = &val.as_array();
      } catch (const json::TypeError& e) {
        bad("topologies", e.what());
      }
      spec.topologies.clear();
      for (const Value& t : *arr) {
        std::string name;
        try {
          name = t.as_string();
        } catch (const json::TypeError& e) {
          bad("topologies[]", e.what());
        }
        try {
          spec.topologies.push_back(topology_kind_from_string(name));
        } catch (const std::exception&) {
          bad("topologies[]", "unknown topology \"" + name +
                                  "\" (expected cmesh/mesh)");
        }
      }
    } else {
      bad(key, "unknown key in campaign spec");
    }
  }
  // Cross-field check after the loop: key order in the document is free.
  if (spec.shard_index >= spec.shard_count) {
    bad("shard_index", "value " + std::to_string(spec.shard_index) +
                           " must be < shard_count (" +
                           std::to_string(spec.shard_count) + ")");
  }
  return spec;
}

CampaignSpec parse_campaign_spec(const std::string& text) {
  return campaign_spec_from_json(json::parse(text));
}

json::Value campaign_spec_to_json(const CampaignSpec& spec) {
  json::Object o;
  o.emplace_back("seed", Value(hex_string(spec.seed)));
  o.emplace_back("scenarios", Value(static_cast<double>(spec.scenarios)));
  o.emplace_back("step_threads", Value(spec.step_threads));
  o.emplace_back("audit_period",
                 Value(static_cast<double>(spec.audit.period)));
  o.emplace_back("shard_index",
                 Value(static_cast<double>(spec.shard_index)));
  o.emplace_back("shard_count",
                 Value(static_cast<double>(spec.shard_count)));
  o.emplace_back("warmup_cycles",
                 Value(static_cast<double>(spec.warmup_cycles)));
  json::Array topos;
  for (const TopologyKind k : spec.topologies) {
    topos.emplace_back(to_string(k));
  }
  o.emplace_back("topologies", Value(std::move(topos)));
  return Value(std::move(o));
}

}  // namespace htnoc::verify
