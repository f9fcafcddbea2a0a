// End-to-end smoke tests of the `raxh` CLI binary: each analysis mode runs
// against a generated PHYLIP file and produces its output trees. Skipped if
// the binary is not where the build puts it (e.g. when tests are run from an
// unusual working directory).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bio/io.h"
#include "bio/seqsim.h"
#include "tree/tree.h"

namespace raxh {
namespace {

namespace fs = std::filesystem;

class CliSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs with CWD = <build>/tests; the binary lives in
    // <build>/src/cli/raxh.
    binary_ = fs::absolute("../src/cli/raxh");
    if (!fs::exists(binary_)) GTEST_SKIP() << "raxh binary not found";

    // One directory per test: ctest runs the cases in parallel, and they
    // would otherwise share (and clobber) one stdout.txt.
    work_ = fs::temp_directory_path() /
            (std::string("raxh_cli_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(work_);
    alignment_ = (work_ / "data.phy").string();

    SimConfig cfg;
    cfg.taxa = 8;
    cfg.distinct_sites = 80;
    cfg.total_sites = 100;
    cfg.seed = 99;
    const auto sim = simulate_alignment(cfg);
    write_phylip_file(alignment_, sim.alignment);
    true_tree_ = (work_ / "true.tre").string();
    std::ofstream(true_tree_) << sim.true_tree_newick << '\n';
  }

  int run(const std::string& args) const {
    const std::string cmd = binary_.string() + " " + args + " >" +
                            (work_ / "stdout.txt").string() + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string output() const {
    std::ifstream in(work_ / "stdout.txt");
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  fs::path binary_;
  fs::path work_;
  std::string alignment_;
  std::string true_tree_;
};

TEST_F(CliSmoke, NoArgumentsPrintsUsageAndFails) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(output().find("usage:"), std::string::npos);
}

TEST_F(CliSmoke, ComprehensiveModeWritesTrees) {
  const std::string base = (work_ / "comp").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f a -N 4 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bestTree.tre"));
  EXPECT_TRUE(fs::exists(base + "_bipartitions.tre"));
  EXPECT_NE(output().find("winner:"), std::string::npos);
}

TEST_F(CliSmoke, MultistartModeWritesBestTree) {
  const std::string base = (work_ / "multi").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f d -N 3 -n " + base), 0) << output();
  EXPECT_TRUE(fs::exists(base + "_bestTree.tre"));
}

TEST_F(CliSmoke, BootstrapModeWritesReplicatesAndConsensus) {
  const std::string base = (work_ / "boot").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f b -N 5 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bootstrap.tre"));
  EXPECT_TRUE(fs::exists(base + "_consensus.tre"));
  // 5 requested over 2 ranks -> ceil(5/2)*2 = 6 replicates.
  std::ifstream trees(base + "_bootstrap.tre");
  int lines = 0;
  std::string line;
  while (std::getline(trees, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 6);
}

TEST_F(CliSmoke, AdaptiveBootstrapModeRuns) {
  const std::string base = (work_ / "adapt").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f x -N 12 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bootstrap.tre"));
  const std::string out = output();
  EXPECT_TRUE(out.find("CONVERGED") != std::string::npos ||
              out.find("cap reached") != std::string::npos)
      << out;
}

TEST_F(CliSmoke, EvaluateModeReportsModelAndSitelh) {
  const std::string base = (work_ / "eval").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f e -t " + true_tree_ + " -n " + base),
            0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_evaluated.tre"));
  EXPECT_TRUE(fs::exists(base + "_sitelh.txt"));
  EXPECT_NE(output().find("lnL"), std::string::npos);
  EXPECT_NE(output().find("alpha"), std::string::npos);
  // sitelh has one line per original site.
  std::ifstream sitelh(base + "_sitelh.txt");
  int lines = 0;
  std::string line;
  while (std::getline(sitelh, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 100);
}

TEST_F(CliSmoke, MissingFileFailsCleanly) {
  EXPECT_NE(run("-s /nonexistent.phy"), 0);
  EXPECT_NE(output().find("error:"), std::string::npos);
}

TEST_F(CliSmoke, UnknownModeFails) {
  EXPECT_NE(run("-s " + alignment_ + " -f z"), 0);
}

// Options raxh does not read are errors, not silently ignored — a one-letter
// typo of a real flag included.
TEST_F(CliSmoke, UnknownOptionsAreRejected) {
  for (const char* option :
       {"transports=shm", "colectives=star", "trace-outt=x.json"}) {
    const std::string flag = std::string("--") + option;
    EXPECT_NE(run("-s " + alignment_ + " -f d -N 1 " + flag), 0) << flag;
    const std::string out = output();
    EXPECT_NE(out.find("error: unknown option"), std::string::npos)
        << flag << ": " << out;
    EXPECT_EQ(out.find("patterns"), std::string::npos)
        << flag << " was rejected only after the run started: " << out;
  }
}

// Every flag the usage text advertises passes the unknown-option check
// (-h prints the usage and exits 0 once the flags are accepted).
TEST_F(CliSmoke, EveryUsageFlagIsAccepted) {
  ASSERT_EQ(run("-s " + alignment_ + " -h"), 0) << output();
  const std::string usage = output();
  std::vector<std::string> flags;
  std::istringstream words(usage);
  for (std::string w; words >> w;) {
    while (!w.empty() && (w.front() == '[' || w.front() == '(')) w.erase(0, 1);
    if (w.size() < 2 || w[0] != '-' || std::isdigit(static_cast<unsigned char>(w[1])) != 0) continue;
    flags.push_back(w.substr(0, std::min(w.find('='), w.find(']'))));
  }
  ASSERT_GE(flags.size(), 20u) << usage;
  for (const std::string& flag : flags) {
    EXPECT_EQ(run(flag + " -s " + alignment_ + " -h"), 0)
        << flag << ": " << output();
    EXPECT_EQ(output().find("unknown option"), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace raxh
