// Per-optimization behavior and cost accounting (Table 2 columns), one
// optimization at a time, in the two-node configuration the paper uses.

#include <gtest/gtest.h>

#include <cinttypes>

#include "harness/cluster.h"
#include "util/format.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

NodeOptions PaOptions() {
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedAbort;
  return options;
}

void SubWritesOnData(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v",
                         [](Status st) { ASSERT_TRUE(st.ok()); });
      });
}

// --- Read only --------------------------------------------------------------

TEST(ReadOnlyOptTest, ReadOnlySubordinateSkipsPhaseTwoAndLogs) {
  Cluster c;
  c.AddNode("coord", PaOptions());
  c.AddNode("sub", PaOptions());
  c.Connect("coord", "sub");
  // Subordinate only reads.
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Read(txn, 0, "nonexistent", [](Result<std::string> r) {
          EXPECT_TRUE(r.status().IsNotFound());
        });
      });

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  // Subordinate: 1 flow (the RO vote), 0 logs.
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(sub.flows_sent, 1u);
  EXPECT_EQ(sub.tm_log_writes, 0u);
  // Coordinator still logs commit (it updated).
  tm::TxnCost coord = c.tm("coord").CostOf(txn);
  EXPECT_EQ(coord.flows_sent, 1u);  // Prepare only; no Commit to the RO sub
  EXPECT_EQ(coord.tm_log_writes, 2u);
  EXPECT_EQ(coord.tm_log_forced, 1u);
}

TEST(ReadOnlyOptTest, FullyReadOnlyTransactionLogsNothingUnderPa) {
  Cluster c;
  c.AddNode("coord", PaOptions());
  c.AddNode("sub", PaOptions());
  c.Connect("coord", "sub");
  // Nobody updates anything.
  uint64_t txn = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  // Table 2 "PA, Read-Only case": 1 flow each way, zero log records.
  EXPECT_EQ(c.tm("coord").CostOf(txn).flows_sent, 1u);
  EXPECT_EQ(c.tm("sub").CostOf(txn).flows_sent, 1u);
  EXPECT_EQ(c.tm("coord").CostOf(txn).tm_log_writes, 0u);
  EXPECT_EQ(c.tm("sub").CostOf(txn).tm_log_writes, 0u);
}

TEST(ReadOnlyOptTest, DisabledReadOnlyOptTreatsIdleSubAsYesVoter) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.read_only_opt = false;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  // Without the optimization the idle subordinate does full 2PC freight.
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(sub.flows_sent, 2u);      // vote + ack
  EXPECT_EQ(sub.tm_log_writes, 3u);   // prepared, committed, end
  EXPECT_EQ(sub.tm_log_forced, 2u);
}

// --- Last agent --------------------------------------------------------------

TEST(LastAgentOptTest, DelegatesDecisionAndSavesFlows) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");

  // Table 2 "PA & last agent": coordinator 1 flow (the YES vote),
  // logs (3, 2 forced); last agent 1 flow (Commit), logs (2, 1 forced).
  tm::TxnCost coord = c.tm("coord").CostOf(txn);
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(coord.flows_sent, 1u);
  EXPECT_EQ(coord.tm_log_writes, 3u);
  EXPECT_EQ(coord.tm_log_forced, 2u);
  EXPECT_EQ(sub.flows_sent, 1u);
  // The END record waits for the implied ack, so only `committed` so far.
  EXPECT_EQ(sub.tm_log_writes, 1u);
  EXPECT_EQ(sub.tm_log_forced, 1u);

  // The last agent holds its END until the implied ack (next data).
  EXPECT_TRUE(c.tm("sub").Knows(txn));
  uint64_t txn2 = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(txn2, "sub").ok());
  c.Drain();
  EXPECT_FALSE(c.tm("sub").Knows(txn));
  // Now the books are closed: Table 2's (2, 1 forced) for the last agent.
  sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(sub.tm_log_writes, 2u);
  EXPECT_EQ(sub.tm_log_forced, 1u);
  EXPECT_EQ(sub.flows_sent, 1u);  // the implied ack cost nothing
}

TEST(LastAgentOptTest, ReadOnlyInitiatorSkipsPreparedForce) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();  // coordinator does no updates
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  // The paper: "the initiator can vote read only to the last agent without
  // having to force-write a prepared log record."
  EXPECT_EQ(c.tm("coord").CostOf(txn).tm_log_writes, 0u);
  EXPECT_EQ(c.tm("coord").CostOf(txn).flows_sent, 1u);
}

TEST(LastAgentOptTest, LastAgentNoAbortsInitiator) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  // Make the last agent unable to commit: it initiates its own commit for
  // the same transaction first (two initiators => abort reply).
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  bool sub_done = false;
  c.tm("sub").Commit(txn, [&](tm::CommitResult result) {
    sub_done = true;
    EXPECT_EQ(result.outcome, Outcome::kAborted);
  });
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kAborted);
  EXPECT_TRUE(sub_done);
  EXPECT_TRUE(c.node("coord").rm().Peek("k").status().IsNotFound());
  EXPECT_TRUE(c.Audit(txn).consistent);
}

// The initiator votes YES to its last agent over a link raised to 2 s after
// the work flow, and takes a heuristic decision after 1 s in doubt, long
// before the last agent's commit arrives.
harness::DrivenCommit CommitPastInitiatorHeuristic(Cluster& c,
                                                   tm::HeuristicPolicy policy,
                                                   uint64_t* txn) {
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("sub", options);
  options.tm.heuristic_policy = policy;
  options.tm.heuristic_delay = sim::kSecond;
  c.AddNode("coord", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");
  *txn = c.tm("coord").Begin();
  c.tm("coord").Write(*txn, 0, "k", "v",
                      [](Status st) { ASSERT_TRUE(st.ok()); });
  EXPECT_TRUE(c.tm("coord").SendWork(*txn, "sub").ok());
  c.Drain();
  c.network().SetLinkLatency("coord", "sub", 2 * sim::kSecond);
  harness::DrivenCommit commit = c.CommitAndWait("coord", *txn);
  c.Drain();
  return commit;
}

TEST(LastAgentOptTest, InitiatorHeuristicAbortReportsDamage) {
  Cluster c;
  uint64_t txn = 0;
  auto commit =
      CommitPastInitiatorHeuristic(c, tm::HeuristicPolicy::kAbort, &txn);
  ASSERT_TRUE(commit.completed);
  // The last agent committed while the initiator had undone its own write:
  // the initiator must report the damage, not a clean commit.
  EXPECT_TRUE(c.node("coord").rm().Peek("k").status().IsNotFound());
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");
  EXPECT_EQ(commit.result.outcome, Outcome::kHeuristicAborted);
  EXPECT_TRUE(commit.result.heuristic_damage);
  EXPECT_TRUE(commit.result.heuristic_seen);
  EXPECT_EQ(c.tm("coord").View(txn).outcome, Outcome::kHeuristicAborted);
  EXPECT_TRUE(c.Audit(txn).damage_ground_truth);
}

TEST(LastAgentOptTest, InitiatorHeuristicCommitIsSeenWithoutDamage) {
  Cluster c;
  uint64_t txn = 0;
  auto commit =
      CommitPastInitiatorHeuristic(c, tm::HeuristicPolicy::kCommit, &txn);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(c.node("coord").rm().Peek("k").value_or(""), "v");
  EXPECT_EQ(commit.result.outcome, Outcome::kHeuristicCommitted);
  EXPECT_FALSE(commit.result.heuristic_damage);
  EXPECT_TRUE(commit.result.heuristic_seen);
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(LastAgentOptTest, OneFlowAcksEveryDecisionSentOnTheSession) {
  // Two last-agent decisions cross one session before the initiator's next
  // flow. That flow is the implied ack of both, so both must close.
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("coord", options);
  // The coordinator's two votes leave one log force apart. The last agent's
  // slower log keeps its first decision in its commit force until the
  // second vote has arrived, so that vote cannot serve as the first
  // decision's implied ack and both decisions cross the session unacked.
  options.log_force_latency = 10 * sim::kMillisecond;
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, StringPrintf("sub_key%" PRIu64, txn), "v",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
      });
  uint64_t txns[2];
  for (uint64_t& txn : txns) {
    txn = c.tm("coord").Begin();
    c.tm("coord").Write(txn, 0, StringPrintf("k%" PRIu64, txn), "v",
                        [](Status st) { ASSERT_TRUE(st.ok()); });
    ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  }
  c.Drain();
  auto first = c.StartCommit("coord", txns[0]);
  auto second = c.StartCommit("coord", txns[1]);
  c.Drain();
  ASSERT_TRUE(first->completed && second->completed);
  EXPECT_EQ(first->result.outcome, Outcome::kCommitted);
  EXPECT_EQ(second->result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.tm("sub").ActiveTxnCount(), 2u);  // both ENDs await the ack

  uint64_t next = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(next, "sub").ok());
  c.Drain();
  c.tm("coord").AbortTxn(next);
  c.Drain();
  EXPECT_EQ(c.tm("sub").ActiveTxnCount(), 0u);
  for (uint64_t txn : txns)
    EXPECT_EQ(c.tm("sub").CostOf(txn).tm_log_writes, 2u);  // committed, END
}

// --- Unsolicited vote ---------------------------------------------------------

TEST(UnsolicitedVoteTest, ServerVotesEarlyAndPrepareIsSkipped) {
  Cluster c;
  c.AddNode("coord", PaOptions());
  c.AddNode("sub", PaOptions());
  c.Connect("coord", "sub");
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "sub_key", "v", [&c, txn](Status st) {
          ASSERT_TRUE(st.ok());
          // Server knows it is done: prepare and vote without being asked.
          c.tm("sub").UnsolicitedPrepare(txn);
        });
      });

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  // RunFor (not Drain): the in-doubt unsolicited voter runs a recurring
  // inquiry timer until the decision arrives, so the queue never empties.
  c.RunFor(sim::kSecond);

  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.node("sub").rm().Peek("sub_key").value_or(""), "v");

  // Table 2 "PA & unsolicited vote": coordinator sends only the Commit
  // (1 flow); subordinate sends vote + ack (2 flows), normal logging.
  tm::TxnCost coord = c.tm("coord").CostOf(txn);
  tm::TxnCost sub = c.tm("sub").CostOf(txn);
  EXPECT_EQ(coord.flows_sent, 1u);
  EXPECT_EQ(coord.tm_log_writes, 2u);
  EXPECT_EQ(coord.tm_log_forced, 1u);
  EXPECT_EQ(sub.flows_sent, 2u);
  EXPECT_EQ(sub.tm_log_writes, 3u);
  EXPECT_EQ(sub.tm_log_forced, 2u);
}

// --- Leave out -----------------------------------------------------------------

TEST(LeaveOutTest, UntouchedSuspendedServerIsLeftOut) {
  Cluster c;
  NodeOptions coord_options = PaOptions();
  coord_options.tm.include_idle_sessions = true;
  coord_options.tm.leave_out_opt = true;
  NodeOptions server_options = PaOptions();
  server_options.tm.ok_to_leave_out = true;
  server_options.rm_options.ok_to_leave_out = true;
  c.AddNode("coord", coord_options);
  c.AddNode("server", server_options);
  c.Connect("coord", "server");
  SubWritesOnData(c, "server");

  // Transaction 1 touches the server; it votes OK_TO_LEAVE_OUT.
  uint64_t txn1 = c.tm("coord").Begin();
  c.tm("coord").Write(txn1, 0, "a", "1", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn1, "server").ok());
  c.Drain();
  auto commit1 = c.CommitAndWait("coord", txn1);
  c.Drain();
  ASSERT_TRUE(commit1.completed);
  EXPECT_EQ(commit1.result.outcome, Outcome::kCommitted);

  // Transaction 2 does not touch the server: it is left out entirely.
  uint64_t txn2 = c.tm("coord").Begin();
  c.tm("coord").Write(txn2, 0, "a", "2", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  auto commit2 = c.CommitAndWait("coord", txn2);
  c.Drain();
  ASSERT_TRUE(commit2.completed);
  EXPECT_EQ(commit2.result.outcome, Outcome::kCommitted);
  EXPECT_EQ(c.tm("server").CostOf(txn2).flows_sent, 0u);
  EXPECT_EQ(c.tm("server").CostOf(txn2).tm_log_writes, 0u);
  EXPECT_EQ(c.tm("coord").CostOf(txn2).flows_sent, 0u);

  // Transaction 3 touches it again: it rejoins.
  uint64_t txn3 = c.tm("coord").Begin();
  ASSERT_TRUE(c.tm("coord").SendWork(txn3, "server").ok());
  c.Drain();
  auto commit3 = c.CommitAndWait("coord", txn3);
  c.Drain();
  ASSERT_TRUE(commit3.completed);
  EXPECT_GT(c.tm("server").CostOf(txn3).flows_sent, 0u);
}

TEST(LeaveOutTest, WithoutOptimizationIdleSessionDoesFullFreight) {
  Cluster c;
  NodeOptions coord_options = PaOptions();
  coord_options.tm.include_idle_sessions = true;
  coord_options.tm.leave_out_opt = false;
  coord_options.tm.read_only_opt = false;  // basic behavior
  NodeOptions server_options = PaOptions();
  server_options.tm.read_only_opt = false;
  c.AddNode("coord", coord_options);
  c.AddNode("server", server_options);
  c.Connect("coord", "server");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "a", "1", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);
  // The untouched server is still a full participant (4 flows total on the
  // session, 3 log writes at the server).
  EXPECT_EQ(c.tm("server").CostOf(txn).flows_sent, 2u);
  EXPECT_EQ(c.tm("server").CostOf(txn).tm_log_writes, 3u);
}

// --- Vote reliable -------------------------------------------------------------

TEST(VoteReliableTest, ReliableSubordinateElidesAck) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.vote_reliable_opt = true;
  options.rm_options.reliable = true;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();

  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
  // Subordinate sends only its vote; the ack is implied.
  EXPECT_EQ(c.tm("sub").CostOf(txn).flows_sent, 1u);
  EXPECT_EQ(c.tm("sub").CostOf(txn).tm_log_writes, 3u);
  // Coordinator completes without waiting and both sides forget.
  EXPECT_FALSE(c.tm("coord").Knows(txn));
  EXPECT_FALSE(c.tm("sub").Knows(txn));
}

TEST(VoteReliableTest, UnreliableRmForcesExplicitAck) {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.vote_reliable_opt = true;
  options.rm_options.reliable = false;  // not reliable
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(c.tm("sub").CostOf(txn).flows_sent, 2u);  // vote + explicit ack
}

// --- Long locks -----------------------------------------------------------------

TEST(LongLocksTest, AckPiggybacksOnNextTransactionData) {
  Cluster c;
  c.AddNode("coord", PaOptions());
  c.AddNode("sub", PaOptions());
  // The coordinator requests long locks on this session.
  c.Connect("coord", "sub", {.long_locks = true}, {});
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();

  bool committed = false;
  c.tm("coord").Commit(txn, [&](tm::CommitResult result) {
    committed = true;
    EXPECT_EQ(result.outcome, Outcome::kCommitted);
  });
  c.Drain();
  // The subordinate has committed but its ack is buffered: the coordinator
  // is still waiting (late acknowledgment).
  EXPECT_FALSE(committed);
  EXPECT_EQ(c.tm("sub").CostOf(txn).flows_sent, 1u);  // just the vote

  // The subordinate begins the next transaction; its first data message
  // carries the buffered ack.
  uint64_t txn2 = c.tm("sub").Begin();
  ASSERT_TRUE(c.tm("sub").SendWork(txn2, "coord").ok());
  c.Drain();
  EXPECT_TRUE(committed);
  EXPECT_EQ(c.tm("sub").CostOf(txn).flows_sent, 1u);  // ack rode for free
}

// --- Shared log ------------------------------------------------------------------

TEST(SharedLogTest, RmSharingTmLogSkipsItsForces) {
  // Every cluster node hands its RMs the TM's own log, so the TM's forces
  // cover the RM's records without any option.
  Cluster c;
  NodeOptions options = PaOptions();
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  SubWritesOnData(c, "sub");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "sub").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);

  // The RM wrote its records but forced none of them.
  wal::LogWriteStats rm_stats =
      c.node("sub").log().StatsForOwner("sub.rm0");
  EXPECT_GE(rm_stats.writes, 3u);  // update, prepared, committed
  EXPECT_EQ(rm_stats.forced_writes, 0u);
  // TM-level forces still happened and made everything durable.
  wal::LogWriteStats tm_stats =
      c.node("sub").log().StatsForOwner("sub.tm");
  EXPECT_EQ(tm_stats.forced_writes, 2u);
}

TEST(SharedLogTest, MemberSharingHostLogDowngradesTmForces) {
  // Shared-log member node: its TM records go to the coordinator's log and
  // are never forced (the host's forces cover them) — the Table 3
  // shared-logs configuration.
  Cluster c;
  c.AddNode("coord", PaOptions());
  NodeOptions member_options = PaOptions();
  member_options.shared_log_host = "coord";
  c.AddNode("member", member_options);
  c.Connect("coord", "member");
  SubWritesOnData(c, "member");

  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("coord").SendWork(txn, "member").ok());
  c.Drain();
  auto commit = c.CommitAndWait("coord", txn);
  c.Drain();
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);

  tm::TxnCost member = c.tm("member").CostOf(txn);
  EXPECT_EQ(member.tm_log_writes, 3u);
  EXPECT_EQ(member.tm_log_forced, 0u);  // downgraded; host forces cover
  EXPECT_EQ(member.flows_sent, 2u);     // flows unchanged
}

// --- Early vs late acknowledgment --------------------------------------------------

TEST(AckTimingTest, EarlyAckCompletesRootBeforeSubtreeAcks) {
  // Chain: root -> mid -> leaf. With early acks at the cascaded
  // coordinator, the root completes as soon as mid's commit is durable.
  for (tm::AckTiming timing : {tm::AckTiming::kLate, tm::AckTiming::kEarly}) {
    Cluster c;
    NodeOptions options = PaOptions();
    options.tm.ack_timing = timing;
    c.AddNode("root", options);
    c.AddNode("mid", options);
    c.AddNode("leaf", options);
    c.Connect("root", "mid");
    c.Connect("mid", "leaf");
    // Slow link between mid and leaf so the difference is visible.
    c.network().SetLinkLatency("mid", "leaf", 100 * sim::kMillisecond);

    c.tm("mid").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
          if (from != "root") return;
          c.tm("mid").Write(txn, 0, "m", "v",
                            [](Status st) { ASSERT_TRUE(st.ok()); });
          ASSERT_TRUE(c.tm("mid").SendWork(txn, "leaf").ok());
        });
    c.tm("leaf").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm("leaf").Write(txn, 0, "l", "v",
                             [](Status st) { ASSERT_TRUE(st.ok()); });
        });

    uint64_t txn = c.tm("root").Begin();
    c.tm("root").Write(txn, 0, "r", "v", [](Status st) {
      ASSERT_TRUE(st.ok());
    });
    ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
    c.Drain();
    auto commit = c.CommitAndWait("root", txn);
    c.Drain();
    ASSERT_TRUE(commit.completed);
    EXPECT_EQ(commit.result.outcome, Outcome::kCommitted);
    EXPECT_TRUE(c.Audit(txn).consistent);
    if (timing == tm::AckTiming::kEarly) {
      // Root completed without waiting for the leaf's ack round trip:
      // strictly less latency than the late-ack run would need.
      EXPECT_LT(commit.latency, 300 * sim::kMillisecond);
    } else {
      EXPECT_GE(commit.latency, 400 * sim::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace tpc
