#include "sweep/spec_json.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/expect.hpp"
#include "traffic/app_profile.hpp"

namespace htnoc::sweep {

using json::Value;

void bad(const std::string& path, const std::string& msg) {
  throw SpecError(path + ": " + msg);
}

std::string hex_string(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t get_u64(const Value& v, const std::string& path) {
  try {
    return json::as_uint64(v);
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

std::uint64_t get_u64_range(const Value& v, const std::string& path,
                            std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t x = get_u64(v, path);
  if (x < lo || x > hi) {
    bad(path, "value " + std::to_string(x) + " out of range [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return x;
}

namespace {

// --- typed accessors: json::TypeError re-thrown with the field path ---

int get_int_range(const Value& v, const std::string& path, int lo, int hi) {
  return static_cast<int>(
      get_u64_range(v, path, static_cast<std::uint64_t>(lo),
                    static_cast<std::uint64_t>(hi)));
}

double get_number(const Value& v, const std::string& path) {
  try {
    return v.as_number();
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

bool get_bool(const Value& v, const std::string& path) {
  try {
    return v.as_bool();
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

const std::string& get_string(const Value& v, const std::string& path) {
  try {
    return v.as_string();
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

const json::Object& get_object(const Value& v, const std::string& path) {
  try {
    return v.as_object();
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

const json::Array& get_array(const Value& v, const std::string& path) {
  try {
    return v.as_array();
  } catch (const json::TypeError& e) {
    bad(path, e.what());
  }
}

// --- enum string forms ---

Direction direction_from_string(const std::string& s,
                                const std::string& path) {
  if (s == "north") return Direction::kNorth;
  if (s == "south") return Direction::kSouth;
  if (s == "east") return Direction::kEast;
  if (s == "west") return Direction::kWest;
  bad(path, "unknown direction \"" + s +
                "\" (expected north/south/east/west)");
}

std::string direction_to_json_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "north";
    case Direction::kSouth: return "south";
    case Direction::kEast: return "east";
    case Direction::kWest: return "west";
    default: return "local";
  }
}

trojan::TargetKind target_kind_from_string(const std::string& s,
                                           const std::string& path) {
  if (s == "full") return trojan::TargetKind::kFull;
  if (s == "dest") return trojan::TargetKind::kDest;
  if (s == "src") return trojan::TargetKind::kSrc;
  if (s == "dest_src") return trojan::TargetKind::kDestSrc;
  if (s == "mem") return trojan::TargetKind::kMem;
  if (s == "vc") return trojan::TargetKind::kVc;
  if (s == "thread") return trojan::TargetKind::kThread;
  bad(path, "unknown target kind \"" + s + "\"");
}

trojan::PayloadPattern payload_pattern_from_string(const std::string& s,
                                                   const std::string& path) {
  if (s == "double_detectable") return trojan::PayloadPattern::kDoubleDetectable;
  if (s == "single_correctable") {
    return trojan::PayloadPattern::kSingleCorrectable;
  }
  if (s == "triple_sdc") return trojan::PayloadPattern::kTripleSdc;
  bad(path, "unknown payload pattern \"" + s + "\"");
}

std::string payload_pattern_to_string(trojan::PayloadPattern p) {
  switch (p) {
    case trojan::PayloadPattern::kDoubleDetectable: return "double_detectable";
    case trojan::PayloadPattern::kSingleCorrectable:
      return "single_correctable";
    case trojan::PayloadPattern::kTripleSdc: return "triple_sdc";
  }
  return "?";
}

TdmDomain domain_from_string(const std::string& s, const std::string& path) {
  if (s == "d1") return TdmDomain::kD1;
  if (s == "d2") return TdmDomain::kD2;
  bad(path, "unknown TDM domain \"" + s + "\" (expected d1/d2)");
}

// --- attack implants ---

LinkRef link_from_json(const Value& v, const std::string& path) {
  LinkRef link{0, Direction::kNorth};
  bool have_router = false;
  for (const auto& [key, val] : get_object(v, path)) {
    const std::string p = path + "." + key;
    if (key == "router") {
      link.from = static_cast<RouterId>(get_int_range(val, p, 0, 4095));
      have_router = true;
    } else if (key == "dir") {
      link.dir = direction_from_string(get_string(val, p), p);
    } else {
      bad(p, "unknown key");
    }
  }
  if (!have_router) bad(path, "missing \"router\"");
  return link;
}

sim::AttackSpec implant_from_json(const Value& v, const std::string& path,
                                  EccScheme ecc) {
  sim::AttackSpec a;
  a.tasp.ecc = ecc;
  bool have_link = false;
  for (const auto& [key, val] : get_object(v, path)) {
    const std::string p = path + "." + key;
    if (key == "link") {
      a.link = link_from_json(val, p);
      have_link = true;
    } else if (key == "enable_at") {
      a.enable_killsw_at = get_u64(val, p);
    } else if (key == "tasp") {
      for (const auto& [tk, tv] : get_object(val, p)) {
        const std::string tp = p + "." + tk;
        if (tk == "kind") {
          a.tasp.kind = target_kind_from_string(get_string(tv, tp), tp);
        } else if (tk == "src") {
          a.tasp.target_src =
              static_cast<RouterId>(get_int_range(tv, tp, 0, 4095));
        } else if (tk == "dest") {
          a.tasp.target_dest =
              static_cast<RouterId>(get_int_range(tv, tp, 0, 4095));
        } else if (tk == "vc") {
          a.tasp.target_vc = static_cast<VcId>(get_int_range(tv, tp, 0, 15));
        } else if (tk == "thread") {
          a.tasp.target_thread =
              static_cast<std::uint8_t>(get_int_range(tv, tp, 0, 63));
        } else if (tk == "mem") {
          a.tasp.target_mem = static_cast<std::uint32_t>(
              get_u64_range(tv, tp, 0, 0xFFFFFFFFull));
        } else if (tk == "mem_mask") {
          a.tasp.mem_mask = static_cast<std::uint32_t>(
              get_u64_range(tv, tp, 0, 0xFFFFFFFFull));
        } else if (tk == "payload_states") {
          a.tasp.payload_states = get_int_range(tv, tp, 2, 256);
        } else if (tk == "min_gap") {
          a.tasp.min_gap = get_u64_range(tv, tp, 1, 1'000'000);
        } else if (tk == "only_head_flits") {
          a.tasp.only_head_flits = get_bool(tv, tp);
        } else if (tk == "pattern") {
          a.tasp.pattern = payload_pattern_from_string(get_string(tv, tp), tp);
        } else {
          bad(tp, "unknown key");
        }
      }
    } else {
      bad(p, "unknown key");
    }
  }
  if (!have_link) bad(path, "missing \"link\"");
  return a;
}

Value implant_to_json(const sim::AttackSpec& a) {
  json::Object link;
  link.emplace_back("router", Value(static_cast<int>(a.link.from)));
  link.emplace_back("dir", Value(direction_to_json_string(a.link.dir)));
  json::Object tasp;
  tasp.emplace_back("kind", Value(trojan::to_string(a.tasp.kind)));
  tasp.emplace_back("src", Value(static_cast<int>(a.tasp.target_src)));
  tasp.emplace_back("dest", Value(static_cast<int>(a.tasp.target_dest)));
  tasp.emplace_back("vc", Value(static_cast<int>(a.tasp.target_vc)));
  tasp.emplace_back("thread", Value(static_cast<int>(a.tasp.target_thread)));
  tasp.emplace_back("mem", Value(hex_string(a.tasp.target_mem)));
  tasp.emplace_back("mem_mask", Value(hex_string(a.tasp.mem_mask)));
  tasp.emplace_back("payload_states", Value(a.tasp.payload_states));
  tasp.emplace_back("min_gap",
                    Value(static_cast<double>(a.tasp.min_gap)));
  tasp.emplace_back("only_head_flits", Value(a.tasp.only_head_flits));
  tasp.emplace_back("pattern", Value(payload_pattern_to_string(a.tasp.pattern)));
  json::Object implant;
  implant.emplace_back("link", Value(std::move(link)));
  implant.emplace_back("enable_at",
                       Value(static_cast<double>(a.enable_killsw_at)));
  implant.emplace_back("tasp", Value(std::move(tasp)));
  return Value(std::move(implant));
}

// --- noc block ---

void noc_from_json(const Value& v, NocConfig& noc, const std::string& path) {
  for (const auto& [key, val] : get_object(v, path)) {
    const std::string p = path + "." + key;
    if (key == "topology") {
      const std::string& s = get_string(val, p);
      try {
        noc.topology = topology_kind_from_string(s);
      } catch (const std::exception&) {
        bad(p, "unknown topology \"" + s + "\" (expected cmesh/mesh)");
      }
    } else if (key == "mesh_width") {
      noc.mesh_width = get_int_range(val, p, 2, 64);
    } else if (key == "mesh_height") {
      noc.mesh_height = get_int_range(val, p, 2, 64);
    } else if (key == "concentration") {
      noc.concentration = get_int_range(val, p, 1, 16);
    } else if (key == "vcs_per_port") {
      noc.vcs_per_port = get_int_range(val, p, 1, 16);
    } else if (key == "buffer_depth") {
      noc.buffer_depth = get_int_range(val, p, 1, 64);
    } else if (key == "retrans_scheme") {
      const std::string& s = get_string(val, p);
      try {
        noc.retrans_scheme = retransmission_scheme_from_string(s);
      } catch (const std::exception&) {
        bad(p, "unknown scheme \"" + s + "\" (expected output/per_vc)");
      }
    } else if (key == "retrans_depth") {
      noc.retrans_depth = get_int_range(val, p, 1, 64);
    } else if (key == "retrans_per_vc_depth") {
      noc.retrans_per_vc_depth = get_int_range(val, p, 1, 64);
    } else if (key == "ecc") {
      const std::string& s = get_string(val, p);
      try {
        noc.ecc_scheme = ecc_scheme_from_string(s);
      } catch (const std::exception&) {
        bad(p, "unknown ecc \"" + s + "\" (expected secded/parity/none)");
      }
    } else if (key == "injection_queue_depth") {
      noc.injection_queue_depth = get_int_range(val, p, 1, 1024);
    } else if (key == "tdm") {
      noc.tdm_enabled = get_bool(val, p);
    } else if (key == "active_step") {
      noc.active_step = get_bool(val, p);
    } else if (key == "step_threads") {
      noc.step_threads = get_int_range(val, p, 1, 256);
    } else {
      bad(p, "unknown key");
    }
  }
}

Value noc_to_json(const NocConfig& noc) {
  json::Object o;
  o.emplace_back("topology", Value(to_string(noc.topology)));
  o.emplace_back("mesh_width", Value(noc.mesh_width));
  o.emplace_back("mesh_height", Value(noc.mesh_height));
  o.emplace_back("concentration", Value(noc.concentration));
  o.emplace_back("vcs_per_port", Value(noc.vcs_per_port));
  o.emplace_back("buffer_depth", Value(noc.buffer_depth));
  o.emplace_back("retrans_scheme", Value(to_string(noc.retrans_scheme)));
  o.emplace_back("retrans_depth", Value(noc.retrans_depth));
  o.emplace_back("retrans_per_vc_depth", Value(noc.retrans_per_vc_depth));
  o.emplace_back("ecc", Value(to_string(noc.ecc_scheme)));
  o.emplace_back("injection_queue_depth", Value(noc.injection_queue_depth));
  o.emplace_back("tdm", Value(noc.tdm_enabled));
  o.emplace_back("active_step", Value(noc.active_step));
  o.emplace_back("step_threads", Value(noc.step_threads));
  return Value(std::move(o));
}

}  // namespace

sim::MitigationMode mitigation_mode_from_string(const std::string& s) {
  if (s == "none") return sim::MitigationMode::kNone;
  if (s == "lob") return sim::MitigationMode::kLOb;
  if (s == "reroute") return sim::MitigationMode::kReroute;
  throw SpecError("unknown mitigation mode \"" + s +
                  "\" (expected none/lob/reroute)");
}

AttackScenario attack_scenario_preset(const std::string& name) {
  AttackScenario sc;
  sc.name = name;
  if (name == "none") return sc;
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.enable_killsw_at = 1000;
  if (name == "single") {
    // The paper's setup: one dest-targeted TASP on the column-0 feeder.
    a.tasp.kind = trojan::TargetKind::kDest;
    a.tasp.target_dest = 0;
    sc.attacks.push_back(a);
  } else if (name == "mem") {
    // Application-targeted DPI on the Blackscholes memory footprint.
    a.tasp.kind = trojan::TargetKind::kMem;
    a.tasp.target_mem = traffic::blackscholes_profile().mem_base;
    a.tasp.mem_mask = 0xF0000000u;
    sc.attacks.push_back(a);
  } else if (name == "multi") {
    // Three implants on distinct dest-0 feeder links (Fig. 10's ~5-10%).
    for (const LinkRef l : {LinkRef{4, Direction::kNorth},
                            LinkRef{2, Direction::kWest},
                            LinkRef{8, Direction::kNorth}}) {
      sim::AttackSpec m;
      m.link = l;
      m.tasp.kind = trojan::TargetKind::kDest;
      m.tasp.target_dest = 0;
      m.enable_killsw_at = 1000;
      sc.attacks.push_back(m);
    }
  } else {
    throw SpecError("unknown attack scenario preset \"" + name +
                    "\" (expected none/single/mem/multi)");
  }
  return sc;
}

AttackScenario attack_scenario_from_json(const json::Value& v,
                                         EccScheme ecc) {
  if (v.is_string()) {
    AttackScenario sc = attack_scenario_preset(v.as_string());
    for (sim::AttackSpec& a : sc.attacks) a.tasp.ecc = ecc;
    return sc;
  }
  AttackScenario sc;
  bool have_name = false;
  for (const auto& [key, val] : get_object(v, "attacks[]")) {
    const std::string p = "attacks[]." + key;
    if (key == "name") {
      sc.name = get_string(val, p);
      have_name = true;
    } else if (key == "implants") {
      std::size_t i = 0;
      for (const Value& iv : get_array(val, p)) {
        sc.attacks.push_back(implant_from_json(
            iv, p + "[" + std::to_string(i) + "]", ecc));
        ++i;
      }
    } else {
      bad(p, "unknown key");
    }
  }
  if (!have_name || sc.name.empty()) {
    bad("attacks[]", "scenario needs a non-empty \"name\"");
  }
  return sc;
}

json::Value attack_scenario_to_json(const AttackScenario& sc) {
  json::Object o;
  o.emplace_back("name", Value(sc.name));
  json::Array implants;
  implants.reserve(sc.attacks.size());
  for (const sim::AttackSpec& a : sc.attacks) {
    implants.push_back(implant_to_json(a));
  }
  o.emplace_back("implants", Value(std::move(implants)));
  return Value(std::move(o));
}

SweepSpec sweep_spec_from_json(const json::Value& doc) {
  const json::Object& root = get_object(doc, "spec");
  SweepSpec spec;

  // The noc block decides the implant ECC tuning, so resolve it before the
  // attack scenarios regardless of document order.
  for (const auto& [key, val] : root) {
    if (key == "noc") noc_from_json(val, spec.base.noc, "noc");
  }

  for (const auto& [key, val] : root) {
    if (key == "noc") continue;  // handled above
    if (key == "modes") {
      spec.modes.clear();
      for (const Value& m : get_array(val, "modes")) {
        spec.modes.push_back(
            mitigation_mode_from_string(get_string(m, "modes[]")));
      }
      if (spec.modes.empty()) bad("modes", "must be non-empty");
    } else if (key == "attacks") {
      spec.attack_scenarios.clear();
      for (const Value& a : get_array(val, "attacks")) {
        spec.attack_scenarios.push_back(
            attack_scenario_from_json(a, spec.base.noc.ecc_scheme));
      }
      if (spec.attack_scenarios.empty()) bad("attacks", "must be non-empty");
    } else if (key == "profiles") {
      spec.profiles.clear();
      for (const Value& p : get_array(val, "profiles")) {
        const std::string& name = get_string(p, "profiles[]");
        try {
          (void)traffic::profile_by_name(name);
        } catch (const std::exception&) {
          bad("profiles[]", "unknown application profile \"" + name + "\"");
        }
        spec.profiles.push_back(name);
      }
      if (spec.profiles.empty()) bad("profiles", "must be non-empty");
    } else if (key == "rates") {
      spec.rate_scales.clear();
      for (const Value& r : get_array(val, "rates")) {
        const double x = get_number(r, "rates[]");
        if (!(x > 0.0) || !std::isfinite(x) || x > 1000.0) {
          bad("rates[]", "rate scale must be in (0, 1000]");
        }
        spec.rate_scales.push_back(x);
      }
      if (spec.rate_scales.empty()) bad("rates", "must be non-empty");
    } else if (key == "replicates") {
      spec.replicates = get_int_range(val, "replicates", 1, 100000);
    } else if (key == "seed") {
      spec.base_seed = get_u64(val, "seed");
    } else if (key == "cycles") {
      spec.run_cycles = get_u64_range(val, "cycles", 1, 100'000'000);
    } else if (key == "requests") {
      spec.total_requests = get_u64(val, "requests");
    } else if (key == "cycle_budget") {
      spec.cycle_budget = get_u64_range(val, "cycle_budget", 1,
                                        std::numeric_limits<Cycle>::max());
    } else if (key == "probe_period") {
      spec.probe_period = get_u64(val, "probe_period");
    } else if (key == "primary_domain") {
      spec.primary_domain =
          domain_from_string(get_string(val, "primary_domain"),
                             "primary_domain");
    } else if (key == "trace") {
      for (const auto& [tk, tv] : get_object(val, "trace")) {
        const std::string p = "trace." + tk;
        if (tk == "enabled") {
          spec.base.trace.enabled = get_bool(tv, p);
        } else if (tk == "capacity") {
          spec.base.trace.capacity = static_cast<std::size_t>(
              get_u64_range(tv, p, 16, std::size_t{1} << 24));
        } else {
          bad(p, "unknown key");
        }
      }
    } else if (key == "background") {
      if (val.is_null()) {
        spec.background.reset();
        continue;
      }
      BackgroundTraffic bg;
      for (const auto& [bk, bv] : get_object(val, "background")) {
        const std::string p = "background." + bk;
        if (bk == "profile") {
          bg.profile = get_string(bv, p);
          try {
            (void)traffic::profile_by_name(bg.profile);
          } catch (const std::exception&) {
            bad(p, "unknown application profile \"" + bg.profile + "\"");
          }
        } else if (bk == "rate") {
          bg.injection_rate = get_number(bv, p);
          if (!std::isfinite(bg.injection_rate) || bg.injection_rate < 0.0 ||
              bg.injection_rate > 10.0) {
            bad(p, "rate must be in [0, 10]");
          }
        } else if (bk == "domain") {
          bg.domain = domain_from_string(get_string(bv, p), p);
        } else {
          bad(p, "unknown key");
        }
      }
      spec.background = bg;
    } else {
      bad(key, "unknown key in sweep spec");
    }
  }

  try {
    spec.base.noc.validate();
  } catch (const std::exception& e) {
    throw SpecError(std::string("noc: invalid configuration: ") + e.what());
  }
  return spec;
}

SweepSpec parse_sweep_spec(const std::string& text) {
  return sweep_spec_from_json(json::parse(text));
}

json::Value sweep_spec_to_json(const SweepSpec& spec) {
  json::Object o;
  json::Array modes;
  for (const sim::MitigationMode m : spec.modes) {
    modes.emplace_back(sim::to_string(m));
  }
  o.emplace_back("modes", Value(std::move(modes)));
  json::Array attacks;
  for (const AttackScenario& sc : spec.attack_scenarios) {
    attacks.push_back(attack_scenario_to_json(sc));
  }
  o.emplace_back("attacks", Value(std::move(attacks)));
  json::Array profiles;
  for (const std::string& p : spec.profiles) profiles.emplace_back(p);
  o.emplace_back("profiles", Value(std::move(profiles)));
  json::Array rates;
  for (const double r : spec.rate_scales) rates.emplace_back(r);
  o.emplace_back("rates", Value(std::move(rates)));
  o.emplace_back("replicates", Value(spec.replicates));
  o.emplace_back("seed", Value(hex_string(spec.base_seed)));
  o.emplace_back("cycles", Value(static_cast<double>(spec.run_cycles)));
  o.emplace_back("requests", Value(static_cast<double>(spec.total_requests)));
  o.emplace_back("cycle_budget",
                 Value(static_cast<double>(spec.cycle_budget)));
  o.emplace_back("probe_period",
                 Value(static_cast<double>(spec.probe_period)));
  o.emplace_back("primary_domain",
                 Value(spec.primary_domain == TdmDomain::kD1 ? "d1" : "d2"));
  if (spec.base.trace.enabled) {
    json::Object tr;
    tr.emplace_back("enabled", Value(true));
    tr.emplace_back("capacity",
                    Value(static_cast<double>(spec.base.trace.capacity)));
    o.emplace_back("trace", Value(std::move(tr)));
  }
  if (spec.background) {
    json::Object bg;
    bg.emplace_back("profile", Value(spec.background->profile));
    bg.emplace_back("rate", Value(spec.background->injection_rate));
    bg.emplace_back("domain",
                    Value(spec.background->domain == TdmDomain::kD1 ? "d1"
                                                                    : "d2"));
    o.emplace_back("background", Value(std::move(bg)));
  }
  o.emplace_back("noc", noc_to_json(spec.base.noc));
  return Value(std::move(o));
}

}  // namespace htnoc::sweep
