#include "src/runtime/check.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace snicsim::runtime {
namespace {

// A cell of a multi-domain bench: the replay must run it at sim_threads=1.
struct RackCell {
  int value = 0;
  int sim_threads = 1;
};

std::string Square(int cell) { return std::to_string(cell * cell); }

std::string Identity(const std::string& s) { return s; }

TEST(Check, AllPassPrintsHeaderAndSummaryOnly) {
  testing::internal::CaptureStdout();
  Check c("determinism + ledgers", 4);
  const std::vector<int> cells = {1, 2, 3};
  c.Replay(cells, RunEach(cells, 4, Square), Square, Identity);
  c.FailIf(false, "never printed %d", 1);
  c.FailAt("cell 0", false, "never printed");
  c.Ledger("cell 1", {});
  const int code = c.Finish("everything held");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n== --check: determinism + ledgers ==\nCHECK PASSED: everything held\n");
}

TEST(Check, FailedClausePrintsItsLabelAndFailsTheRun) {
  testing::internal::CaptureStdout();
  Check c("clauses", 2);
  EXPECT_TRUE(c.FailAt("cell 3", true, "issued %d < generated %d", 4, 5));
  EXPECT_FALSE(c.FailIf(false, "held"));
  EXPECT_TRUE(c.FailIf(true, "knee at %.1f Mops", 16.0));
  c.Ledger("arm a", {"good 1 + late 1 != completed 3", "shed 2 != codel 1"});
  const int code = c.Finish("not printed");
  EXPECT_EQ(code, 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n== --check: clauses ==\n"
            "FAIL(cell 3): issued 4 < generated 5\n"
            "FAIL: knee at 16.0 Mops\n"
            "FAIL(arm a): good 1 + late 1 != completed 3\n"
            "FAIL(arm a): shed 2 != codel 1\n"
            "CHECK FAILED\n");
}

TEST(Check, ReplayReportsTheFirstDifferingCell) {
  testing::internal::CaptureStdout();
  Check c("replay", 4);
  const std::vector<int> cells = {1, 2, 3};
  c.Replay(cells, std::vector<std::string>{"1", "5", "7"}, Square, Identity);
  EXPECT_EQ(c.Finish("not printed"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n== --check: replay ==\n"
            "FAIL: fingerprints differ between --jobs=1 and --jobs=4 (first at cell 1)\n"
            "CHECK FAILED\n");
}

TEST(Check, ReplayOfAShorterRunFails) {
  testing::internal::CaptureStdout();
  Check c("replay", 2);
  const std::vector<int> cells = {1, 2};
  c.Replay(cells, std::vector<std::string>{"1"}, Square, Identity);
  EXPECT_EQ(c.Finish("not printed"), 1);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("(first at cell 1)"),
            std::string::npos);
}

TEST(Check, ReplayRunsMultiDomainCellsAtOneSimThread) {
  const auto run = [](const RackCell& cell) {
    return std::to_string(cell.value) + "@" + std::to_string(cell.sim_threads);
  };
  const std::vector<RackCell> cells = {{1, 4}, {2, 4}};
  const std::vector<std::string> threaded = RunEach(cells, 2, run);
  EXPECT_EQ(threaded, (std::vector<std::string>{"1@4", "2@4"}));

  // The digest drops the thread count, so the serial replay matches.
  testing::internal::CaptureStdout();
  Check same("rack", 2);
  same.Replay(cells, threaded, run, [](const std::string& s) { return s.substr(0, 1); });
  EXPECT_EQ(same.Finish("ok"), 0);
  testing::internal::GetCapturedStdout();

  // The raw results name the thread count, so the replay at 1 differs.
  testing::internal::CaptureStdout();
  Check differs("rack", 2);
  differs.Replay(cells, threaded, run, Identity);
  EXPECT_EQ(differs.Finish("not printed"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n== --check: rack ==\n"
            "FAIL: fingerprints differ from --jobs=1 --sim-threads=1 (ran --jobs=2 "
            "--sim-threads=4; first at cell 0)\n"
            "CHECK FAILED\n");
}

}  // namespace
}  // namespace snicsim::runtime
