// The scenario-script engine: parsing, execution, expectations, and the
// shipped sample scenarios.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "harness/scenario_script.h"

namespace tpc::harness {
namespace {

Result<ScriptReport> RunScript(const std::string& script) {
  return RunScenarioScript(script);
}

TEST(ScenarioScriptTest, MinimalCommitScenario) {
  auto report = RunScript(R"(
node a
node b
connect a b
handler b write
begin t1 a
write a t1 k v
work t1 a b
run 1s
commit-wait t1 a
expect t1 committed
expect-key a k v
expect-key b b_key v
expect-flows t1 4
)");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->expect_failed, 0) << report->output;
}

TEST(ScenarioScriptTest, FailedExpectationIsReportedNotFatal) {
  auto report = RunScript(R"(
node a
begin t1 a
write a t1 k v
commit-wait t1 a
expect t1 aborted
expect-key a k wrong-value
expect-key a missing v
)");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->expect_failed, 3);
  EXPECT_NE(report->output.find("EXPECT FAILED"), std::string::npos);
}

TEST(ScenarioScriptTest, SyntaxErrorsCarryLineNumbers) {
  auto report = RunScript("node a\nbogus-command x\n");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("line 2"), std::string::npos);
}

TEST(ScenarioScriptTest, UnknownTxnIsError) {
  auto report = RunScript("node a\ncommit t9 a\n");
  EXPECT_FALSE(report.ok());
}

TEST(ScenarioScriptTest, BadDurationIsError) {
  EXPECT_FALSE(RunScript("node a\nrun 5parsecs\n").ok());
  EXPECT_FALSE(RunScript("node a\nrun xyzms\n").ok());
}

TEST(ScenarioScriptTest, CommentsAndBlankLinesIgnored) {
  auto report = RunScript(R"(
# a comment
node a   # trailing comment

begin t1 a
commit-wait t1 a
expect t1 committed
)");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->expect_failed, 0);
}

TEST(ScenarioScriptTest, CrashRestartPartitionFlow) {
  auto report = RunScript(R"(
node coord
node sub
connect coord sub
handler sub write
begin t1 coord
write coord t1 k v
work t1 coord sub
run 1s
crash-at sub sub.after_prepared_force
commit t1 coord
run 30s
restart sub
run 120s
expect t1 aborted
expect-key sub sub_key absent
)");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->expect_failed, 0) << report->output;
}

TEST(ScenarioScriptTest, DiagramAndCostsProduceOutput) {
  auto report = RunScript(R"(
node a
node b
connect a b
handler b write
begin t1 a
write a t1 k v
work t1 a b
run 1s
commit-wait t1 a
diagram t1 a b
costs t1
)");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->output.find("time(ms)"), std::string::npos);
  EXPECT_NE(report->output.find("PREPARE"), std::string::npos);
  EXPECT_NE(report->output.find("flows"), std::string::npos);
}

// Every shipped sample scenario must run clean.
class ShippedScenarioTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShippedScenarioTest, RunsWithNoFailedExpectations) {
  std::ifstream in(std::string(SCENARIO_DIR) + "/" + GetParam());
  ASSERT_TRUE(in.good()) << "missing scenario file " << GetParam();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto report = RunScript(buffer.str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->expect_failed, 0) << report->output;
}

INSTANTIATE_TEST_SUITE_P(All, ShippedScenarioTest,
                         ::testing::Values("last_agent.tpc",
                                           "heuristic_damage.tpc",
                                           "presumed_commit.tpc",
                                           "blocking_basic_2pc.tpc",
                                           "read_only.tpc",
                                           "wait_for_outcome.tpc",
                                           "leave_out.tpc",
                                           "vote_reliable.tpc",
                                           "combined_optimizations.tpc",
                                           "pn_cascaded.tpc"));

}  // namespace
}  // namespace tpc::harness
