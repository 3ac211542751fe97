// Determinism and contention: two pillars of the harness. The simulation
// must replay identically for a given seed (all failure tests depend on
// it), and lock contention between distributed transactions must resolve
// by timeout-abort without deadlock.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "sim/trace.h"
#include "util/format.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;

std::string RunScriptedCluster(uint64_t seed) {
  Cluster c(seed);
  NodeOptions options;
  c.AddNode("a", options);
  c.AddNode("b", options);
  c.AddNode("d", options);
  c.Connect("a", "b");
  c.Connect("a", "d");
  for (const std::string node : {"b", "d"}) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm(node).Write(txn, 0, node, "v", [](Status) {});
        });
  }
  for (int i = 0; i < 5; ++i) {
    uint64_t txn = c.tm("a").Begin();
    c.tm("a").Write(txn, 0, StringPrintf("k%d", i), "v", [](Status) {});
    EXPECT_TRUE(c.tm("a").SendWork(txn, "b").ok());
    EXPECT_TRUE(c.tm("a").SendWork(txn, "d").ok());
    c.RunFor(100 * sim::kMillisecond);
    auto commit = c.CommitAndWait("a", txn);
    EXPECT_TRUE(commit.completed);
  }
  return c.ctx().trace().Render();
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalTraces) {
  std::string first = RunScriptedCluster(7);
  std::string second = RunScriptedCluster(7);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 1000u);  // the trace is substantive
}

TEST(DeterminismTest, TraceIsStableAcrossRepeatedRuns) {
  // Guard against accidental introduction of wall-clock or address-based
  // ordering: ten runs, one fingerprint.
  std::string reference = RunScriptedCluster(99);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(RunScriptedCluster(99), reference);
}

// --- Distributed lock contention -----------------------------------------------

TEST(ContentionTest, ConflictingDistributedTxnsResolveByTimeoutAbort) {
  // Two coordinators write the same remote key in opposite orders across
  // two servers: a classic distributed deadlock. The lock-wait timeout
  // aborts the losers; nothing hangs and the surviving writes are
  // consistent.
  Cluster c;
  NodeOptions options;
  options.rm_options.lock_timeout = 3 * sim::kSecond;
  options.tm.vote_timeout = 30 * sim::kSecond;
  c.AddNode("c1", options);
  c.AddNode("c2", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  for (const char* coord : {"c1", "c2"}) {
    c.Connect(coord, "s1");
    c.Connect(coord, "s2");
  }
  // Payload selects the key; both coordinators write "shared" on both
  // servers, in opposite orders.
  for (const std::string node : {"s1", "s2"}) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm(node).Write(txn, 0, "shared", std::to_string(txn),
                           [](Status) { /* may time out: deadlock victim */ });
        });
  }

  uint64_t t1 = c.tm("c1").Begin();
  uint64_t t2 = c.tm("c2").Begin();
  ASSERT_TRUE(c.tm("c1").SendWork(t1, "s1").ok());
  ASSERT_TRUE(c.tm("c2").SendWork(t2, "s2").ok());
  c.RunFor(10 * sim::kMillisecond);
  // Now cross: each wants the other's held key.
  ASSERT_TRUE(c.tm("c1").SendWork(t1, "s2").ok());
  ASSERT_TRUE(c.tm("c2").SendWork(t2, "s1").ok());
  c.RunFor(10 * sim::kSecond);  // the 3s lock timeouts fire

  auto commit1 = c.StartCommit("c1", t1);
  auto commit2 = c.StartCommit("c2", t2);
  c.RunFor(120 * sim::kSecond);

  ASSERT_TRUE(commit1->completed);
  ASSERT_TRUE(commit2->completed);
  // Both transactions terminated (no hang); each is globally consistent.
  EXPECT_TRUE(c.Audit(t1).consistent);
  EXPECT_TRUE(c.Audit(t2).consistent);
  // The shared key, if present, holds a single transaction's value on any
  // server that committed it.
  for (const char* server : {"s1", "s2"}) {
    auto value = c.node(server).rm().Peek("shared");
    if (value.ok()) {
      EXPECT_TRUE(*value == std::to_string(t1) ||
                  *value == std::to_string(t2));
    }
  }
}

TEST(ContentionTest, QueuedWriterProceedsAfterCommit) {
  // A second distributed transaction queues on the first one's lock and
  // completes once it releases — lock waits translate directly into
  // commit-path latency, the paper's core motivation.
  Cluster c;
  NodeOptions options;
  options.rm_options.lock_timeout = 60 * sim::kSecond;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "hot", std::to_string(txn), [](Status) {});
      });

  uint64_t t1 = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(t1, "sub").ok());
  c.RunFor(100 * sim::kMillisecond);
  uint64_t t2 = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(t2, "sub").ok());
  c.RunFor(100 * sim::kMillisecond);  // t2's write is queued behind t1's

  auto commit1 = c.StartCommit("coord", t1);
  c.RunFor(5 * sim::kSecond);
  ASSERT_TRUE(commit1->completed);
  // t2's write was granted after t1 released; commit it.
  auto commit2 = c.CommitAndWait("coord", t2);
  ASSERT_TRUE(commit2.completed);
  EXPECT_EQ(commit2.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("hot").value_or(""), std::to_string(t2));
}

}  // namespace
}  // namespace tpc
