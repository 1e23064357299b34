// campaign_cli — run the randomized fault campaign (invariant auditor armed
// on every scenario) or deterministically replay one failing scenario from
// its repro spec.
//
//   campaign_cli --scenarios 10000 --seed 0x20260806 --jobs 8
//                --summary-md summary.md --repro-dir repros/
//   campaign_cli --scenarios 10000 --shard 1/4 --shard-summary shard1.json
//   campaign_cli --merge shard0.json shard1.json shard2.json shard3.json
//                --summary-md merged.md
//   campaign_cli --repro "htnoc-campaign-repro seed=0x20260806 index=421"
//   campaign_cli --repro repros/repro-421.txt
//
// Exit status: 0 when every scenario passed, 1 on any failure (a failing
// scenario or replay, a merged campaign with failures, or an artifact that
// could not be written), 2 on usage/merge errors.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "count_flag.hpp"
#include "verify/campaign.hpp"
#include "verify/campaign_json.hpp"
#include "verify/shard_merge.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: campaign_cli [--spec FILE.json]\n"
         "                    [--scenarios N] [--seed S] [--jobs N]\n"
         "                    [--audit-period N] [--topologies LIST]\n"
         "                    [--shard I/N] [--snapshot-warmup CYCLES]\n"
         "                    [--summary-md FILE] [--shard-summary FILE]\n"
         "                    [--repro-dir DIR] [--quiet]\n"
         "       campaign_cli --merge SHARD.json... [--summary-md FILE]\n"
         "                    [--quiet]\n"
         "       campaign_cli --repro SPEC-OR-FILE\n"
         "--spec loads a JSON campaign spec (docs/REPRODUCING.md, \"Spec\n"
         "files\"); other flags override on top of it.\n"
         "--topologies is a comma-separated list of fabric kinds, cmesh and\n"
         "mesh, that scenarios draw from (default: the paper's 4x4 cmesh).\n"
         "--shard runs one strided slice of the campaign; --shard-summary\n"
         "writes the shard's mergeable JSON document, and --merge combines\n"
         "a complete shard set into the unsharded campaign verdict. A merge's\n"
         "--summary-md lists failures by distinct violation signature.\n";
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read spec file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Write one artifact; false (reported on stderr) when the file cannot be
/// opened or written.
bool write_artifact(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (out) return true;
  std::cerr << "campaign_cli: cannot write " << path << "\n";
  return false;
}

/// Accept either a literal repro line or the path of a file whose first
/// matching line is one.
std::optional<htnoc::verify::ReproSpec> resolve_repro(const std::string& arg) {
  if (auto r = htnoc::verify::parse_repro(arg)) return r;
  std::ifstream in(arg);
  std::string line;
  while (in && std::getline(in, line)) {
    if (auto r = htnoc::verify::parse_repro(line)) return r;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using htnoc::verify::CampaignResult;
  using htnoc::verify::CampaignSpec;
  using htnoc::verify::FaultCampaign;
  using htnoc::verify::ScenarioResult;

  CampaignSpec spec;
  spec.seed = 0x5EED;
  spec.scenarios = 1000;
  std::string summary_md;
  std::string shard_summary;
  std::string repro_dir;
  std::string repro_arg;
  std::vector<std::string> merge_files;
  bool merging = false;
  bool quiet = false;

  // A malformed value or an unknown flag is a usage error (exit 2), never
  // an uncaught exception.
  std::string flag;  // the flag being parsed, for the error message
  try {
    // --spec loads first (wherever it appears), so every other flag
    // overrides on top of the file.
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--spec") {
        flag = "--spec";
        spec = htnoc::verify::parse_campaign_spec(read_file(argv[i + 1]));
        break;
      }
    }

    for (int i = 1; i < argc; ++i) {
      flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("needs a value");
        return argv[++i];
      };
      if (flag == "--spec") {
        (void)value();  // consumed by the first pass
      } else if (flag == "--scenarios") {
        spec.scenarios =
            htnoc::cli::parse_count(value(), 0, htnoc::verify::kMaxScenarios);
      } else if (flag == "--seed") {
        spec.seed = std::stoull(value(), nullptr, 0);
      } else if (flag == "--jobs") {
        spec.threads = std::stoi(value());
      } else if (flag == "--audit-period") {
        // Exactly the periods a spec file's audit_period accepts.
        const std::uint64_t period = htnoc::cli::parse_count(value(), 0);
        if (period < htnoc::verify::kMinAuditPeriod ||
            period > htnoc::verify::kMaxAuditPeriod) {
          throw std::runtime_error(
              "value " + std::to_string(period) + " out of range [" +
              std::to_string(htnoc::verify::kMinAuditPeriod) + ", " +
              std::to_string(htnoc::verify::kMaxAuditPeriod) + "]");
        }
        spec.audit.period = period;
      } else if (flag == "--topologies") {
        // Comma-separated kinds, e.g. "cmesh,mesh". Omitting the flag
        // keeps the historical all-cmesh scenario distribution byte-for-byte.
        std::string list = value();
        for (std::size_t pos = 0; pos <= list.size();) {
          const std::size_t comma = std::min(list.find(',', pos), list.size());
          spec.topologies.push_back(
              htnoc::topology_kind_from_string(list.substr(pos, comma - pos)));
          pos = comma + 1;
        }
      } else if (flag == "--shard") {
        // I/N: run shard I of an N-way split (strided global indices).
        const std::string v = value();
        const std::size_t slash = v.find('/');
        try {
          if (slash == std::string::npos) throw std::invalid_argument(v);
          spec.shard_index = htnoc::cli::parse_count(v.substr(0, slash), 0);
          spec.shard_count = htnoc::cli::parse_count(v.substr(slash + 1), 0);
        } catch (const std::logic_error&) {
          throw std::runtime_error("expects I/N, got '" + v + "'");
        }
        if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
          throw std::runtime_error("needs I < N, got '" + v + "'");
        }
      } else if (flag == "--snapshot-warmup") {
        spec.warmup_cycles = htnoc::cli::parse_count(value(), 0);
      } else if (flag == "--merge") {
        // Consumes every following non-flag argument as a shard summary file.
        merging = true;
        while (i + 1 < argc && argv[i + 1][0] != '-') {
          merge_files.emplace_back(argv[++i]);
        }
      } else if (flag == "--summary-md") {
        summary_md = value();
      } else if (flag == "--shard-summary") {
        shard_summary = value();
      } else if (flag == "--repro-dir") {
        repro_dir = value();
      } else if (flag == "--repro") {
        repro_arg = value();
      } else if (flag == "--quiet") {
        quiet = true;
      } else if (flag == "--help" || flag == "-h") {
        usage();
        return 0;
      } else {
        throw std::runtime_error("unknown option");
      }
    }
  } catch (const std::exception& e) {
    // std::sto* failures carry only the function name.
    const bool bad_number = dynamic_cast<const std::invalid_argument*>(&e) ||
                            dynamic_cast<const std::out_of_range*>(&e);
    std::cerr << "campaign_cli: " << flag << ": "
              << (bad_number ? "not a valid number" : e.what()) << "\n";
    usage();
    return 2;
  }

  if (merging) {
    if (merge_files.empty()) {
      std::cerr << "campaign_cli: --merge needs at least one shard summary\n";
      return 2;
    }
    try {
      std::vector<htnoc::verify::CampaignSummary> shards;
      shards.reserve(merge_files.size());
      for (const std::string& path : merge_files) {
        shards.push_back(
            htnoc::verify::parse_shard_summary(read_file(path)));
      }
      const htnoc::verify::CampaignSummary merged =
          htnoc::verify::merge_shards(shards);
      if (!quiet) std::cout << merged.summary_text();
      const bool written =
          summary_md.empty() ||
          write_artifact(summary_md, merged.signatures_markdown());
      return written && merged.failures.empty() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "campaign_cli: " << e.what() << "\n";
      return 2;
    }
  }

  if (!repro_arg.empty()) {
    const auto r = resolve_repro(repro_arg);
    if (!r) {
      std::cerr << "campaign_cli: cannot parse repro spec from '" << repro_arg
                << "'\n";
      return 2;
    }
    CampaignSpec rspec = spec;
    rspec.seed = r->seed;
    rspec.warmup_cycles = r->warmup;
    const ScenarioResult res = FaultCampaign::run_scenario(rspec, r->index);
    std::cout << "replay " << htnoc::verify::format_repro(*r) << "\n"
              << "scenario: " << res.descriptor << "\n"
              << "cycles=" << res.cycles << " delivered=" << res.delivered
              << " purged=" << res.purged << " audits=" << res.audits
              << " flits_tracked=" << res.flits_tracked << "\n";
    if (res.ok) {
      std::cout << "result: CLEAN\n";
      return 0;
    }
    std::cout << "result: FAIL\n" << res.error << "\n";
    return 1;
  }

  FaultCampaign campaign(spec);
  const CampaignResult result = campaign.run();
  if (!quiet) std::cout << result.summary_text();

  bool written = true;
  if (!summary_md.empty()) {
    written &= write_artifact(summary_md, result.summary_markdown());
  }
  if (!shard_summary.empty()) {
    const htnoc::json::Value doc = htnoc::verify::shard_summary_to_json(
        htnoc::verify::summarize_shard(result));
    written &= write_artifact(shard_summary,
                              htnoc::json::to_string(doc, 2) + "\n");
  }
  if (!repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    if (ec) {
      std::cerr << "campaign_cli: cannot create " << repro_dir << ": "
                << ec.message() << "\n";
      written = false;
    } else {
      for (const ScenarioResult& s : result.scenarios) {
        if (s.ok) continue;
        written &= write_artifact(
            repro_dir + "/repro-" + std::to_string(s.index) + ".txt",
            htnoc::verify::format_repro(
                {spec.seed, s.index, spec.warmup_cycles}) +
                "\n" + s.descriptor + "\n" + s.error + "\n");
      }
    }
  }
  return written && result.failures() == 0 ? 0 : 1;
}
