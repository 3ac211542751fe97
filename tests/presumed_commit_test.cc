// Presumed Commit (extension beyond the paper; flagged in DESIGN.md §6):
// commit accounting, the commit presumption, explicit acknowledged aborts,
// and crash behavior.

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

NodeOptions PcOptions() {
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedCommit;
  return options;
}

void SubWritesOnData(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v",
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

uint64_t SetupTwoNodes(Cluster& c) {
  c.AddNode("coord", PcOptions());
  c.AddNode("sub", PcOptions());
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "coord_key", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  EXPECT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  return txn;
}

TEST(PresumedCommitTest, CommitCostsMatchPcAccounting) {
  Cluster c;
  uint64_t txn = SetupTwoNodes(c);
  auto commit = c.CommitAndWait("coord", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);

  // Coordinator: collecting (forced), committed (forced), END (non-forced);
  // Prepare + Commit flows. Subordinate: prepared (forced), committed
  // (non-forced, unacknowledged): 1 flow, (2, 1 forced).
  tm::TxnCost coord = c.tm("coord").CostOf(txn);
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(coord.flows_sent, 2u);
  EXPECT_EQ(coord.tm_log_writes, 3u);
  EXPECT_EQ(coord.tm_log_forced, 2u);
  EXPECT_EQ(sub.flows_sent, 1u);  // no commit ack
  EXPECT_EQ(sub.tm_log_writes, 2u);
  EXPECT_EQ(sub.tm_log_forced, 1u);

  EXPECT_FALSE(c.tm("coord").Knows(txn));
  EXPECT_FALSE(c.tm("sub").Knows(txn));
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(PresumedCommitTest, AbortIsExplicitForcedAndAcknowledged) {
  Cluster c;
  uint64_t txn = SetupTwoNodes(c);
  c.node("sub").rm().FailNextPrepare();
  auto commit = c.CommitAndWait("coord", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kAborted);
  // Coordinator: collecting (forced), aborted (forced), END after the ack.
  tm::TxnCost coord = c.tm("coord").CostOf(txn);
  EXPECT_EQ(coord.tm_log_forced, 2u);
  // The NO-voting subordinate acknowledged the abort (from the archive).
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(sub.flows_sent, 2u);  // NO vote + abort ack
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(PresumedCommitTest, LostCommitRecordResolvesCommitByPresumption) {
  // The name-giving case: the sub's commit record is non-forced; crash it
  // right after it acknowledges nothing and has only `prepared` durable.
  Cluster c;
  uint64_t txn = SetupTwoNodes(c);
  auto commit = c.CommitAndWait("coord", txn);
  ASSERT_TRUE(commit.completed);
  // Crash the sub before its (non-forced) commit record reaches disk.
  c.ctx().failures().CrashNow("sub");
  c.node("sub").Restart();
  c.RunFor(60 * sim::kSecond);
  // Recovery found `prepared` only; the inquiry answer (or the archive)
  // resolves commit and the data comes back via redo + resolution.
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(PresumedCommitTest, ForgottenCoordinatorAnswersCommitted) {
  // Even after the coordinator archives and a fresh process knows nothing,
  // the presumption answers commit for an in-doubt subordinate.
  Cluster c;
  NodeOptions sub_options = PcOptions();
  sub_options.tm.inquiry_delay = 5 * sim::kSecond;
  c.AddNode("coord", PcOptions());
  c.AddNode("sub", sub_options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  // Partition right after the vote arrives (PC timing: collecting force
  // 2ms, prepare at 3ms, sub forces until 7ms, vote lands at 8ms; the
  // Commit leaves at 10ms): the sub never sees the Commit.
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(8 * sim::kMillisecond);
  c.network().SetLinkDown("coord", "sub", true);
  c.RunFor(10 * sim::kSecond);
  EXPECT_TRUE(commit->completed);  // no commit acks under PC
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);

  c.network().SetLinkDown("coord", "sub", false);
  c.RunFor(60 * sim::kSecond);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 0u);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kCommitted);
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(PresumedCommitTest, CoordinatorCrashBeforeDecisionAbortsExplicitly) {
  // The collecting record exists exactly for this: a coordinator crash
  // before the decision must NOT let subordinates presume commit.
  Cluster c;
  uint64_t txn = SetupTwoNodes(c);
  bool completed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult) { completed = true; });
  // Crash after prepares are out, before the commit record: collecting is
  // durable, nothing else.
  c.ctx().events().ScheduleAt(c.ctx().now() + 4 * sim::kMillisecond,
                              [&c] { c.ctx().failures().CrashNow("coord"); });
  c.RunFor(sim::kSecond);
  EXPECT_FALSE(completed);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 1u);

  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);
  EXPECT_EQ(c.tm("sub").InDoubtCount(), 0u);
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(PresumedCommitTest, CascadedTreeCommits) {
  Cluster c;
  c.AddNode("root", PcOptions());
  c.AddNode("mid", PcOptions());
  c.AddNode("leaf", PcOptions());
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  c.tm("mid").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "root") return;
        c.tm("mid").Write(txn, 0, "m", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
        ASSERT_TRUE(c.tm("mid").SendWork(txn, "leaf").ok());
      });
  SubWritesOnData(c, "leaf");
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("root", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  EXPECT_TRUE(c.Audit(txn).consistent);
  EXPECT_EQ(c.node("leaf").rm().Peek("leaf_key").value_or(""), "v");
  // Total flows: no acks anywhere => 3 per parent-child edge.
  EXPECT_EQ(c.TotalCost(txn).flows_sent, 6u);
}

// Both families that force a collecting record before Prepare (PN's
// commit-pending, PC's collecting) must close it with END even when the
// whole transaction turns out read-only. An open collecting record is
// re-decided as an abort by recovery after any later crash.
class ReadOnlyCollectingTest : public ::testing::TestWithParam<ProtocolKind> {
};

TEST_P(ReadOnlyCollectingTest, CrashLeavesTheReadOnlyVerdictAlone) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = GetParam();
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view op) {
        if (op == "read") {
          c.tm("sub").Read(txn, 0, "sub_key", [](Result<std::string>) {});
        } else {
          c.tm("sub").Write(txn, 0, "sub_key", "v",
                            [](Status st) { ASSERT_TRUE(st.ok()); });
        }
      });

  uint64_t read_only = c.tm("coord").Begin();
  c.tm("coord").Read(read_only, 0, "coord_key", [](Result<std::string>) {});
  ASSERT_TRUE(c.tm("coord").SendWork(read_only, "sub", "read").ok());
  c.RunFor(sim::kSecond);
  auto ro_commit = c.CommitAndWait("coord", read_only);
  ASSERT_TRUE(ro_commit.completed);
  ASSERT_EQ(ro_commit.result.outcome, Outcome::kCommitted);
  const tm::TxnView verdict = c.tm("coord").View(read_only);

  // An update transaction whose forces cover the read-only one's END.
  uint64_t update = c.tm("coord").Begin();
  c.tm("coord").Write(update, 0, "coord_key", "v",
                      [](Status st) { ASSERT_TRUE(st.ok()); });
  ASSERT_TRUE(c.tm("coord").SendWork(update, "sub", "write").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", update);
  ASSERT_TRUE(commit.completed);
  ASSERT_EQ(commit.result.outcome, Outcome::kCommitted);
  c.RunFor(sim::kSecond);

  const uint64_t flows = c.tm("coord").CostOf(read_only).flows_sent;
  c.ctx().failures().CrashNow("coord");
  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);

  EXPECT_FALSE(c.tm("coord").Knows(read_only));
  EXPECT_EQ(c.tm("coord").View(read_only).outcome, verdict.outcome);
  EXPECT_EQ(c.tm("coord").View(read_only).damage_reported_here,
            verdict.damage_reported_here);
  // No recovery flows (abort, then awaiting its ack) for the read-only txn.
  EXPECT_EQ(c.tm("coord").CostOf(read_only).flows_sent, flows);
}

INSTANTIATE_TEST_SUITE_P(
    CollectingFamilies, ReadOnlyCollectingTest,
    ::testing::Values(ProtocolKind::kPresumedNothing,
                      ProtocolKind::kPresumedCommit),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return info.param == ProtocolKind::kPresumedNothing ? "PN" : "PC";
    });

}  // namespace
}  // namespace tpc
