#include "verify/shard_merge.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <utility>

#include "sweep/spec_json.hpp"

namespace htnoc::verify {

namespace {

std::string first_line(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

std::string second_line(const std::string& s) {
  const auto nl = s.find('\n');
  if (nl == std::string::npos) return {};
  return first_line(s.substr(nl + 1));
}

[[noreturn]] void bad(const std::string& msg) { throw MergeError(msg); }

/// The first concrete violation, or the error line when there is none.
const std::string& first_violation(const ShardFailure& f) {
  return f.violation.empty() ? f.error : f.violation;
}

/// The totals table both markdown summaries open with.
void totals_markdown(std::ostream& os, const CampaignSummary& s) {
  os << "| scenarios | failures | packets delivered | packets purged | "
        "audit cycles | flits tracked |\n";
  os << "|---|---|---|---|---|---|\n";
  os << "| " << s.scenarios_run << " | " << s.failures.size() << " | "
     << s.delivered << " | " << s.purged << " | " << s.audits << " | "
     << s.flits_tracked << " |\n";
}

std::uint64_t get_u64(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) bad(std::string("shard summary missing key: ") + key);
  try {
    return json::as_uint64(*v);
  } catch (const json::TypeError& e) {
    bad(std::string(key) + ": " + e.what());
  }
}

std::string get_str(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) bad(std::string("shard summary missing key: ") + key);
  try {
    return v->as_string();
  } catch (const json::TypeError& e) {
    bad(std::string(key) + ": " + e.what());
  }
}

}  // namespace

CampaignSummary summarize_shard(const CampaignResult& result) {
  CampaignSummary s;
  s.seed = result.spec.seed;
  s.scenarios = result.spec.scenarios;
  s.shard_index = result.spec.shard_index;
  s.shard_count = result.spec.shard_count;
  s.scenarios_run = result.scenarios.size();
  s.warmup_cycles = result.spec.warmup_cycles;
  s.cancelled = result.cancelled;
  for (const ScenarioResult& r : result.scenarios) {
    s.delivered += r.delivered;
    s.purged += r.purged;
    s.audits += r.audits;
    s.flits_tracked += r.flits_tracked;
    if (r.ok) continue;
    ShardFailure f;
    f.index = r.index;
    f.descriptor = r.descriptor;
    f.error = first_line(r.error);
    f.violation = second_line(r.error);
    s.failures.push_back(std::move(f));
  }
  // Workers fill result.scenarios in local-slot order, which is already
  // ascending global order within a shard; sort anyway so the invariant
  // merge_shards relies on never depends on the producer.
  std::sort(s.failures.begin(), s.failures.end(),
            [](const ShardFailure& a, const ShardFailure& b) {
              return a.index < b.index;
            });
  return s;
}

json::Value shard_summary_to_json(const CampaignSummary& s) {
  json::Object o;
  o.emplace_back("seed", json::Value(sweep::hex_string(s.seed)));
  o.emplace_back("scenarios", json::Value(static_cast<double>(s.scenarios)));
  o.emplace_back("shard_index",
                 json::Value(static_cast<double>(s.shard_index)));
  o.emplace_back("shard_count",
                 json::Value(static_cast<double>(s.shard_count)));
  o.emplace_back("scenarios_run",
                 json::Value(static_cast<double>(s.scenarios_run)));
  o.emplace_back("warmup_cycles",
                 json::Value(static_cast<double>(s.warmup_cycles)));
  o.emplace_back("cancelled", json::Value(s.cancelled));
  o.emplace_back("delivered", json::Value(static_cast<double>(s.delivered)));
  o.emplace_back("purged", json::Value(static_cast<double>(s.purged)));
  o.emplace_back("audits", json::Value(static_cast<double>(s.audits)));
  o.emplace_back("flits_tracked",
                 json::Value(static_cast<double>(s.flits_tracked)));
  json::Array failures;
  for (const ShardFailure& f : s.failures) {
    json::Object fo;
    fo.emplace_back("index", json::Value(static_cast<double>(f.index)));
    fo.emplace_back("descriptor", json::Value(f.descriptor));
    fo.emplace_back("error", json::Value(f.error));
    fo.emplace_back("violation", json::Value(f.violation));
    failures.emplace_back(std::move(fo));
  }
  o.emplace_back("failures", json::Value(std::move(failures)));
  return json::Value(std::move(o));
}

CampaignSummary shard_summary_from_json(const json::Value& doc) {
  CampaignSummary s;
  s.seed = get_u64(doc, "seed");
  s.scenarios = get_u64(doc, "scenarios");
  s.shard_index = get_u64(doc, "shard_index");
  s.shard_count = get_u64(doc, "shard_count");
  s.scenarios_run = get_u64(doc, "scenarios_run");
  s.warmup_cycles = get_u64(doc, "warmup_cycles");
  const json::Value* cancelled = doc.find("cancelled");
  if (cancelled == nullptr) bad("shard summary missing key: cancelled");
  try {
    s.cancelled = cancelled->as_bool();
  } catch (const json::TypeError& e) {
    bad(std::string("cancelled: ") + e.what());
  }
  s.delivered = get_u64(doc, "delivered");
  s.purged = get_u64(doc, "purged");
  s.audits = get_u64(doc, "audits");
  s.flits_tracked = get_u64(doc, "flits_tracked");
  const json::Value* failures = doc.find("failures");
  if (failures == nullptr) bad("shard summary missing key: failures");
  try {
    for (const json::Value& fv : failures->as_array()) {
      ShardFailure f;
      f.index = get_u64(fv, "index");
      f.descriptor = get_str(fv, "descriptor");
      f.error = get_str(fv, "error");
      f.violation = get_str(fv, "violation");
      s.failures.push_back(std::move(f));
    }
  } catch (const json::TypeError& e) {
    bad(std::string("failures: ") + e.what());
  }
  return s;
}

CampaignSummary parse_shard_summary(const std::string& text) {
  try {
    return shard_summary_from_json(json::parse(text));
  } catch (const json::ParseError& e) {
    bad(std::string("shard summary is not valid JSON: ") + e.what());
  }
}

CampaignSummary merge_shards(const std::vector<CampaignSummary>& shards) {
  if (shards.empty()) bad("no shard summaries to merge");
  const CampaignSummary& head = shards.front();
  if (head.shard_count != shards.size()) {
    bad("expected " + std::to_string(head.shard_count) +
        " shard summaries, got " + std::to_string(shards.size()));
  }
  std::vector<bool> seen(shards.size(), false);
  CampaignSummary m;
  m.seed = head.seed;
  m.scenarios = head.scenarios;
  m.warmup_cycles = head.warmup_cycles;
  for (const CampaignSummary& s : shards) {
    if (s.seed != head.seed || s.scenarios != head.scenarios ||
        s.shard_count != head.shard_count ||
        s.warmup_cycles != head.warmup_cycles) {
      bad("shard " + std::to_string(s.shard_index) +
          " belongs to a different campaign (seed/scenarios/shard_count/"
          "warmup_cycles mismatch)");
    }
    if (s.shard_index >= s.shard_count) {
      bad("shard index " + std::to_string(s.shard_index) +
          " out of range for shard_count " + std::to_string(s.shard_count));
    }
    if (seen[static_cast<std::size_t>(s.shard_index)]) {
      bad("duplicate shard index " + std::to_string(s.shard_index));
    }
    seen[static_cast<std::size_t>(s.shard_index)] = true;
    if (s.cancelled) {
      bad("shard " + std::to_string(s.shard_index) +
          " was cancelled; the shard set is incomplete");
    }
    const std::uint64_t expect =
        s.scenarios / s.shard_count +
        (s.shard_index < s.scenarios % s.shard_count ? 1 : 0);
    if (s.scenarios_run != expect) {
      bad("shard " + std::to_string(s.shard_index) + " ran " +
          std::to_string(s.scenarios_run) + " scenarios, expected " +
          std::to_string(expect));
    }
    m.scenarios_run += s.scenarios_run;
    m.delivered += s.delivered;
    m.purged += s.purged;
    m.audits += s.audits;
    m.flits_tracked += s.flits_tracked;
    m.failures.insert(m.failures.end(), s.failures.begin(), s.failures.end());
  }
  if (m.scenarios_run != head.scenarios) {
    bad("shards ran " + std::to_string(m.scenarios_run) +
        " scenarios in total, campaign expects " +
        std::to_string(head.scenarios));
  }
  // Interleave the shards' (already sorted) failure lists into the global
  // index order the unsharded summary prints.
  std::sort(m.failures.begin(), m.failures.end(),
            [](const ShardFailure& a, const ShardFailure& b) {
              return a.index < b.index;
            });
  return m;
}

std::string CampaignSummary::summary_text() const {
  std::ostringstream os;
  os << "htnoc fault campaign seed=0x" << std::hex << seed << std::dec
     << " scenarios=" << scenarios_run;
  // The shard token only appears on shard summaries, so an unsharded run's
  // bytes are untouched (and are what merge_shards reconstructs).
  if (shard_count > 1) {
    os << " shard=" << shard_index << "/" << shard_count;
  }
  os << "\n";
  os << "failures=" << failures.size() << " delivered=" << delivered
     << " purged=" << purged << " audits=" << audits
     << " flits_tracked=" << flits_tracked << "\n";
  for (const ShardFailure& f : failures) {
    os << "FAIL " << format_repro({seed, f.index, warmup_cycles}) << " "
       << f.descriptor << "\n";
    os << "  " << f.error << "\n";
  }
  return os.str();
}

std::string violation_signature(const ShardFailure& f) {
  const std::string& src = first_violation(f);
  std::string sig;
  sig.reserve(src.size());
  bool in_digits = false;
  for (const char c : src) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) sig.push_back('#');
      in_digits = true;
    } else {
      sig.push_back(c);
      in_digits = false;
    }
  }
  return sig;
}

std::string CampaignSummary::failures_markdown() const {
  std::ostringstream os;
  totals_markdown(os, *this);
  if (failures.empty()) return os.str();

  os << "\n### Failing scenarios\n\n";
  os << "| index | repro | scenario | first violation |\n";
  os << "|---|---|---|---|\n";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i == 50) {
      os << "| … | | " << (failures.size() - i) << " more | |\n";
      break;
    }
    const ShardFailure& f = failures[i];
    os << "| " << f.index << " | `"
       << format_repro({seed, f.index, warmup_cycles}) << "` | "
       << f.descriptor << " | " << first_violation(f) << " |\n";
  }
  return os.str();
}

std::string CampaignSummary::signatures_markdown() const {
  std::ostringstream os;
  totals_markdown(os, *this);
  if (failures.empty()) return os.str();

  // One row per distinct violation signature; the representative is the
  // lowest-index failure, and map iteration keeps the table ordered by
  // signature for deterministic output.
  std::map<std::string, std::pair<const ShardFailure*, std::size_t>> groups;
  for (const ShardFailure& f : failures) {
    auto [it, inserted] =
        groups.emplace(violation_signature(f), std::make_pair(&f, 1u));
    if (!inserted) {
      ++it->second.second;
      if (f.index < it->second.first->index) it->second.first = &f;
    }
  }
  os << "\n### Distinct failure signatures\n\n";
  os << "| count | signature | repro | scenario |\n";
  os << "|---|---|---|---|\n";
  for (const auto& [sig, group] : groups) {
    const ShardFailure& rep = *group.first;
    os << "| " << group.second << " | " << sig << " | `"
       << format_repro({seed, rep.index, warmup_cycles}) << "` | "
       << rep.descriptor << " |\n";
  }
  return os.str();
}

}  // namespace htnoc::verify
