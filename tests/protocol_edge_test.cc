// Deeper protocol edge cases: heuristics at intermediates, early-ack
// interplay, long locks across failures, leave-out under PN's vote
// handshake, unsolicited NO votes, shared-log crash soundness, group
// commit under crashes, and last-agent recovery.

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::HeuristicPolicy;
using tm::Outcome;
using tm::ProtocolKind;

NodeOptions Options(ProtocolKind protocol) {
  NodeOptions options;
  options.tm.protocol = protocol;
  return options;
}

void Writer(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v",
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// --- Heuristic at a cascaded coordinator -------------------------------------

TEST(IntermediateHeuristicTest, HeuristicAtMidPropagatesToItsSubtree) {
  // root -> mid -> leaf. Root crashes after commit-force; mid (in doubt)
  // heuristically commits, which must also release the leaf; since the
  // real outcome was commit, no damage results.
  Cluster c;
  NodeOptions mid_options = Options(ProtocolKind::kPresumedNothing);
  mid_options.tm.heuristic_policy = HeuristicPolicy::kCommit;
  mid_options.tm.heuristic_delay = 20 * sim::kSecond;
  c.AddNode("root", Options(ProtocolKind::kPresumedNothing));
  c.AddNode("mid", mid_options);
  c.AddNode("leaf", Options(ProtocolKind::kPresumedNothing));
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  c.tm("mid").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "root") return;
        c.tm("mid").Write(txn, 0, "m", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
        ASSERT_TRUE(c.tm("mid").SendWork(txn, "leaf").ok());
      });
  Writer(c, "leaf");

  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);

  c.ctx().failures().ArmCrash("root", "root.after_commit_force");
  auto commit = c.StartCommit("root", txn);
  c.RunFor(40 * sim::kSecond);  // mid's heuristic commit fires at +20s
  // The leaf received mid's (heuristic) commit and is done; its data is in.
  EXPECT_EQ(c.tm("leaf").View(txn).outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("leaf").rm().Peek("leaf_key").value_or(""), "v");
  EXPECT_EQ(c.tm("mid").View(txn).outcome, Outcome::kHeuristicCommitted);

  // Root recovers and re-drives its commit; mid's heuristic matches.
  c.node("root").Restart();
  c.RunFor(120 * sim::kSecond);
  harness::TxnAudit audit = c.Audit(txn);
  EXPECT_TRUE(audit.consistent);
  EXPECT_FALSE(audit.damage_ground_truth);
  EXPECT_TRUE(audit.any_heuristic);
}

// --- Early acknowledgment with late damage --------------------------------------

TEST(EarlyAckTest, EarlyAckTradesConfidenceForSpeed) {
  // With early acks, the root completes before the leaf processes the
  // commit — exactly the paper's tradeoff: "there is a tradeoff between
  // wait time and confidence in the outcome."
  Cluster c;
  NodeOptions options = Options(ProtocolKind::kPresumedAbort);
  options.tm.ack_timing = tm::AckTiming::kEarly;
  c.AddNode("root", options);
  c.AddNode("mid", options);
  c.AddNode("leaf", options);
  c.Connect("root", "mid");
  c.Connect("mid", "leaf");
  c.network().SetLinkLatency("mid", "leaf", 200 * sim::kMillisecond);
  c.tm("mid").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "root") return;
        c.tm("mid").Write(txn, 0, "m", "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
        ASSERT_TRUE(c.tm("mid").SendWork(txn, "leaf").ok());
      });
  Writer(c, "leaf");
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.StartCommit("root", txn);
  c.RunFor(450 * sim::kMillisecond);
  // Root already completed...
  EXPECT_TRUE(commit->completed);
  // ...while the leaf is still in doubt (commit in flight on the slow link).
  EXPECT_EQ(c.tm("leaf").InDoubtCount(), 1u);
  c.RunFor(10 * sim::kSecond);
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- Long locks across a subordinate crash ------------------------------------

TEST(LongLocksFailureTest, CrashedSubordinateStillResolvesAfterRestart) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub", {.long_locks = true}, {});
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(sim::kSecond);
  EXPECT_FALSE(commit->completed);  // ack buffered under long locks

  // The subordinate crashes with the buffered (volatile!) ack and restarts.
  c.ctx().failures().CrashNow("sub");
  c.node("sub").Restart();
  c.RunFor(120 * sim::kSecond);
  // Recovery: the sub found its committed record without END, resumed the
  // decision phase, and (with the session's long-locks context gone) sent
  // the ack; the coordinator completes.
  EXPECT_TRUE(commit->completed);
  EXPECT_EQ(commit->result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- PN leave-out handshake across transactions ----------------------------------

TEST(PnLeaveOutTest, RequiresPriorVoteBeforeExclusion) {
  // Under PN an untouched partner may be left out only if it voted
  // OK_TO_LEAVE_OUT in a previous commit (it might otherwise have started
  // independent work). The first idle transaction must include it; after
  // the handshake, it is excluded.
  Cluster c;
  NodeOptions coord_options = Options(ProtocolKind::kPresumedNothing);
  coord_options.tm.include_idle_sessions = true;
  coord_options.tm.leave_out_opt = true;
  NodeOptions server_options = Options(ProtocolKind::kPresumedNothing);
  server_options.tm.ok_to_leave_out = true;
  server_options.rm_options.ok_to_leave_out = true;
  c.AddNode("coord", coord_options);
  c.AddNode("server", server_options);
  c.Connect("coord", "server");
  Writer(c, "server");

  // Transaction 1: server untouched, but no prior vote: it participates.
  uint64_t txn1 = c.tm("coord").Begin();
  c.tm("coord").Write(txn1, 0, "a", "1", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  auto commit1 = c.CommitAndWait("coord", txn1);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit1.completed);
  EXPECT_GT(c.tm("server").CostOf(txn1).flows_sent, 0u);

  // The server voted OK_TO_LEAVE_OUT (read-only, idle) in txn1; the next
  // idle transaction leaves it out entirely.
  uint64_t txn2 = c.tm("coord").Begin();
  c.tm("coord").Write(txn2, 0, "a", "2", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  auto commit2 = c.CommitAndWait("coord", txn2);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit2.completed);
  EXPECT_EQ(c.tm("server").CostOf(txn2).flows_sent, 0u);
}

// --- Unsolicited NO vote ------------------------------------------------------------

TEST(UnsolicitedVoteTest, UnsolicitedNoAbortsTheTransaction) {
  Cluster c;
  c.AddNode("coord", Options(ProtocolKind::kPresumedAbort));
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "s", "v", [&c, txn](Status st) {
          ASSERT_TRUE(st.ok());
          // Poison the prepare, then vote early: the unsolicited vote is NO.
          c.node("sub").rm().FailNextPrepare();
          c.tm("sub").UnsolicitedPrepare(txn);
        });
      });
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("coord").rm().Peek("k").status().IsNotFound());
  EXPECT_TRUE(c.node("sub").rm().Peek("s").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- Shared log soundness across crashes ---------------------------------------------

TEST(SharedLogCrashTest, UnforcedRmRecordsRecoverViaTmForceOrdering) {
  // DESIGN.md's soundness argument for the shared-log optimization: the
  // RM's non-forced prepared/committed records are covered by the TM's
  // later forces. Crash after the TM's commit force and verify the RM's
  // data survives even though the RM forced nothing itself.
  Cluster c;
  NodeOptions options = Options(ProtocolKind::kPresumedAbort);
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("coord", txn);
  ASSERT_TRUE(commit.completed);
  ASSERT_EQ(commit.result.outcome, Outcome::kCommitted);
  c.RunFor(sim::kSecond);

  // Both machines lose everything volatile.
  c.ctx().failures().CrashNow("coord");
  c.ctx().failures().CrashNow("sub");
  c.node("coord").Restart();
  c.node("sub").Restart();
  c.RunFor(60 * sim::kSecond);
  EXPECT_EQ(c.node("coord").rm().Peek("k").value_or(""), "v");
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  // The RM really forced nothing.
  EXPECT_EQ(c.node("sub").log().StatsForOwner("sub.rm0").forced_writes, 0u);
}

// --- Group commit under crash ---------------------------------------------------------

TEST(GroupCommitCrashTest, UngroupedTailLostButConsistent) {
  // Transactions whose group was still building when the node crashed are
  // simply not durable: they resolve aborted, never half-done.
  Cluster c;
  NodeOptions options = Options(ProtocolKind::kPresumedAbort);
  options.group_commit.enabled = true;
  options.group_commit.group_size = 64;                  // never fills
  options.group_commit.group_timeout = 5 * sim::kSecond; // nor times out
  c.AddNode("coord", options);
  c.AddNode("sub", Options(ProtocolKind::kPresumedAbort));
  c.Connect("coord", "sub");
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(sim::kSecond);
  // The commit force sits in the group buffer: not durable, not sent.
  EXPECT_FALSE(commit->completed);
  c.ctx().failures().CrashNow("coord");
  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);
  // No commit record survived; the sub's inquiry resolves abort.
  EXPECT_EQ(c.tm("sub").View(txn).outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("coord").rm().Peek("k").status().IsNotFound());
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// --- Last-agent recovery ------------------------------------------------------------

TEST(LastAgentRecoveryTest, InitiatorCrashAfterVoteResolvesViaInquiry) {
  // The initiator (which is in doubt after handing the decision away)
  // crashes; on restart its prepared record names the last agent as the
  // place to ask, and the inquiry resolves commit.
  Cluster c;
  NodeOptions options = Options(ProtocolKind::kPresumedAbort);
  options.tm.last_agent_opt = true;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub", {.last_agent_candidate = true}, {});
  Writer(c, "sub");
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.RunFor(sim::kSecond);

  // Crash the initiator right after its prepared force (its YES vote to
  // the last agent is never sent -> the last agent never decides; after
  // restart the inquiry finds the LA undecided, and the vote... is gone.
  // The LA's own vote-side state never formed, so the inquiry gets the
  // presumed-abort answer once the LA has no transaction).
  c.ctx().failures().ArmCrash("coord", "root.after_la_vote_force");
  auto commit = c.StartCommit("coord", txn);
  c.RunFor(2 * sim::kSecond);
  EXPECT_FALSE(commit->completed);
  c.node("coord").Restart();
  c.RunFor(120 * sim::kSecond);
  // The initiator recovered in doubt, inquired at the decision owner, got
  // "no information => abort" (PA), and aborted; the sub (active, never
  // prepared) was told to abort too.
  EXPECT_EQ(c.tm("coord").View(txn).outcome, Outcome::kAborted);
  EXPECT_TRUE(c.node("coord").rm().Peek("k").status().IsNotFound());
  EXPECT_TRUE(c.node("sub").rm().Peek("sub_key").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

}  // namespace
}  // namespace tpc
