// Checkpointing and log truncation: store snapshots supersede the log
// prefix, recovery replays only post-checkpoint records, and the safety
// preconditions hold.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "util/format.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;

void SubWritesOnData(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view v) {
        c.tm(node).Write(txn, 0, std::string("k").append(v), std::string(v),
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// Commits one two-node transaction writing key "k<v>" = v on both sides.
void CommitOne(Cluster& c, const std::string& v) {
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k" + v, v, [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("a").SendWork(txn, "b", v).ok());
  c.RunFor(100 * sim::kMillisecond);
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  ASSERT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  c.RunFor(100 * sim::kMillisecond);
}

TEST(CheckpointTest, StateSurvivesCrashViaSnapshotAlone) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  for (int i = 0; i < 5; ++i) CommitOne(c, std::to_string(i));

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);

  // The pre-checkpoint log content is gone...
  EXPECT_GT(c.node("a").log().storage().base_offset(), 0u);
  // ...yet a crash+restart rebuilds the full store from the snapshot.
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.node("a").rm().Peek(StringPrintf("k%d", i)).value_or(""),
              std::to_string(i));
  }
}

TEST(CheckpointTest, PostCheckpointTransactionsReplayOnTop) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  CommitOne(c, "old");

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);

  CommitOne(c, "new");
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  EXPECT_EQ(c.node("a").rm().Peek("kold").value_or(""), "old");
  EXPECT_EQ(c.node("a").rm().Peek("knew").value_or(""), "new");
}

TEST(CheckpointTest, RefusedWhileTransactionsInFlight) {
  Cluster c;
  c.AddNode("a", {});
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  EXPECT_TRUE(c.node("a").Checkpoint(nullptr).IsFailedPrecondition());
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);
  EXPECT_TRUE(c.node("a").Checkpoint(nullptr).ok());
}

TEST(CheckpointTest, RefusedOnSharedLogNodes) {
  Cluster c;
  c.AddNode("host", {});
  NodeOptions member_options;
  member_options.shared_log_host = "host";
  c.AddNode("member", member_options);
  EXPECT_TRUE(c.node("member").Checkpoint(nullptr).IsFailedPrecondition());
}

TEST(CheckpointTest, RepeatedCheckpointsKeepTruncating) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  SubWritesOnData(c, "b");
  uint64_t last_base = 0;
  for (int round = 0; round < 3; ++round) {
    CommitOne(c, StringPrintf("r%d", round));
    bool done = false;
    ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
    c.RunFor(sim::kSecond);
    ASSERT_TRUE(done);
    uint64_t base = c.node("a").log().storage().base_offset();
    EXPECT_GT(base, last_base);
    last_base = base;
  }
  // Everything still recoverable.
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (int round = 0; round < 3; ++round) {
    std::string v = StringPrintf("r%d", round);
    EXPECT_EQ(c.node("a").rm().Peek("k" + v).value_or(""), v);
  }
}

TEST(CheckpointTest, MultipleRmsSnapshotTogether) {
  Cluster c;
  NodeOptions options;
  options.num_rms = 3;
  c.AddNode("a", options);
  uint64_t txn = c.tm("a").Begin();
  for (size_t i = 0; i < 3; ++i) {
    c.tm("a").Write(txn, i, "k", StringPrintf("v%zu", i),
                    [](Status st) { ASSERT_TRUE(st.ok()); });
  }
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  c.RunFor(sim::kSecond);

  bool done = false;
  ASSERT_TRUE(c.node("a").Checkpoint([&] { done = true; }).ok());
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(done);
  c.ctx().failures().CrashNow("a");
  c.node("a").Restart();
  c.RunFor(sim::kSecond);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node("a").rm(i).Peek("k").value_or(""),
              StringPrintf("v%zu", i));
  }
}

}  // namespace
}  // namespace tpc
