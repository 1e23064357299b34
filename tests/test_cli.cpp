// End-to-end checks of the command-line front ends, run as subprocesses:
// a spec file and the equivalent flags produce the same bytes, a flag
// after --spec overrides the file, and usage errors and unwritable
// artifacts exit with the status each CLI documents (2 for usage, 1 for a
// failed write). explore_cli takes no spec file; only its usage errors are
// checked here.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace htnoc {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int status = -1;  ///< Exit code; -1 when the process did not exit normally.
  std::string out;  ///< Captured stdout.
};

/// Run one CLI invocation through the shell, stderr discarded.
CliRun run(const std::string& binary, const std::string& args) {
  CliRun r;
  const std::string cmd = "'" + binary + "' " + args + " 2>/dev/null";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int st = pclose(p);
  if (WIFEXITED(st)) r.status = WEXITSTATUS(st);
  return r;
}

CliRun sweep(const std::string& args) { return run(HTNOC_SWEEP_CLI, args); }
CliRun campaign(const std::string& args) {
  return run(HTNOC_CAMPAIGN_CLI, args);
}
CliRun explore(const std::string& args) { return run(HTNOC_EXPLORE_CLI, args); }

std::string spec_file(const std::string& name) {
  return std::string(HTNOC_SPEC_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// The flags that spell out examples/specs/*_smoke.json.
constexpr const char* kSweepSmokeFlags =
    "--modes none,lob --attacks none,single --profiles blackscholes "
    "--rates 1.0 --replicates 2 --seed 0x5eed";
constexpr const char* kCampaignSmokeFlags =
    "--seed 0x20260807 --audit-period 64";

/// Each test gets a fresh scratch directory for its artifacts.
class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("htnoc_cli_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(Cli, SweepSpecFileEqualsFlags) {
  const CliRun from_file =
      sweep("--spec " + spec_file("sweep_smoke.json") + " --json " +
            path("file.json"));
  const CliRun from_flags = sweep(std::string(kSweepSmokeFlags) +
                                  " --cycles 400 --json " + path("flags.json"));
  ASSERT_EQ(from_file.status, 0);
  ASSERT_EQ(from_flags.status, 0);
  EXPECT_FALSE(from_file.out.empty());
  EXPECT_EQ(from_file.out, from_flags.out);
  const std::string json = slurp(path("file.json"));
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json, slurp(path("flags.json")));
}

TEST_F(Cli, CampaignSpecFileEqualsFlags) {
  const CliRun from_file =
      campaign("--spec " + spec_file("campaign_smoke.json") +
               " --summary-md " + path("file.md"));
  const CliRun from_flags =
      campaign(std::string(kCampaignSmokeFlags) + " --scenarios 20" +
               " --summary-md " + path("flags.md"));
  ASSERT_EQ(from_file.status, 0);
  ASSERT_EQ(from_flags.status, 0);
  EXPECT_FALSE(from_file.out.empty());
  EXPECT_EQ(from_file.out, from_flags.out);
  const std::string md = slurp(path("file.md"));
  EXPECT_FALSE(md.empty());
  EXPECT_EQ(md, slurp(path("flags.md")));
}

TEST_F(Cli, FlagAfterSpecOverridesFile) {
  const CliRun sweep_override =
      sweep("--spec " + spec_file("sweep_smoke.json") + " --cycles 100");
  ASSERT_EQ(sweep_override.status, 0);
  EXPECT_EQ(sweep_override.out,
            sweep(std::string(kSweepSmokeFlags) + " --cycles 100").out);

  const CliRun campaign_override =
      campaign("--spec " + spec_file("campaign_smoke.json") + " --scenarios 3");
  ASSERT_EQ(campaign_override.status, 0);
  EXPECT_EQ(campaign_override.out,
            campaign(std::string(kCampaignSmokeFlags) + " --scenarios 3").out);
}

TEST_F(Cli, UsageErrorsExitTwo) {
  // A sign on a count flag is a usage error, not a wrapped 2^64 - k; the
  // audit period takes the range a spec file's audit_period takes.
  for (const char* args :
       {"--scenarios abc", "--topologies ring", "--topologies torus",
        "--topologies cmesh,torus", "--shard 3/2", "--no-such-flag",
        "--scenarios", "--spec /nonexistent/spec.json", "--audit-period -1",
        "--audit-period 0", "--scenarios -1", "--snapshot-warmup -1",
        "--scenarios 18446744073709551615"}) {
    EXPECT_EQ(campaign(args).status, 2) << "campaign_cli " << args;
  }
  for (const char* args : {"--cycles abc", "--modes bogus", "--no-such-flag",
                           "--cycles", "--spec /nonexistent/spec.json",
                           "--cycles -1"}) {
    EXPECT_EQ(sweep(args).status, 2) << "sweep_cli " << args;
  }
  // Every value explore_cli cannot run is refused before the first cycle:
  // unknown names, a link the 4x4 fabric lacks (router 0 has no North
  // neighbour), a rate the traffic model refuses, signed counts, and a
  // trojan target no flit can carry (16 routers, 4 VCs, 32-bit addresses).
  for (const char* args :
       {"--app bogus", "--mode bogus", "--routing bogus", "--scheme bogus",
        "--attack 99:N", "--attack 0:N", "--attack 4:X", "--attack -1:N",
        "--rate -1", "--cycles abc", "--cycles", "--no-such-flag",
        "--cycles -1", "--killsw -1", "--target dest=16", "--target vc=4",
        "--target src=-1", "--target mem=4294967296"}) {
    EXPECT_EQ(explore(args).status, 2) << "explore_cli " << args;
  }
}

TEST_F(Cli, SpecTracingNeedsTraceDir) {
  // The trace block alone would record every run's trace and discard it.
  {
    std::ofstream f(path("traced.json"));
    f << R"({"cycles": 50, "trace": {"enabled": true}})";
  }
  EXPECT_EQ(sweep("--spec " + path("traced.json")).status, 2);
  EXPECT_EQ(sweep("--spec " + path("traced.json") + " --trace " +
                  path("traces"))
                .status,
            0);
}

TEST_F(Cli, UnwritableArtifactsExitOne) {
  const std::string bad = path("missing/out");
  const std::string tiny_sweep = "--cycles 50 --replicates 1 --jobs 1";
  EXPECT_EQ(sweep(tiny_sweep + " --json " + bad).status, 1);
  EXPECT_EQ(sweep(tiny_sweep + " --runs-csv " + bad).status, 1);

  // A zero-scenario campaign still writes every artifact.
  EXPECT_EQ(campaign("--scenarios 0 --summary-md " + bad).status, 1);
  EXPECT_EQ(campaign("--scenarios 0 --shard-summary " + bad).status, 1);
  {
    std::ofstream f(path("plain_file"));
  }
  EXPECT_EQ(campaign("--scenarios 0 --repro-dir " + path("plain_file/sub"))
                .status,
            1);

  ASSERT_EQ(campaign("--scenarios 0 --shard-summary " + path("shard.json"))
                .status,
            0);
  EXPECT_EQ(campaign("--merge " + path("shard.json") + " --summary-md " + bad)
                .status,
            1);
  // A merge's --summary-md is the dedup report; --dedup-report is unknown.
  EXPECT_EQ(
      campaign("--merge " + path("shard.json") + " --dedup-report " + bad)
          .status,
      2);
}

TEST_F(Cli, ReproDirIsCreated) {
  const std::string repros = path("nested/repros");
  EXPECT_EQ(campaign("--scenarios 0 --repro-dir " + repros).status, 0);
  EXPECT_TRUE(fs::is_directory(repros));
}

}  // namespace
}  // namespace htnoc
