// Paxos Commit and one-phase protocol families.
//
// Three layers:
//   1. PaxosAcceptor unit tests — ballot discipline and the majority-
//      intersection argument, on the pure state machine.
//   2. End-to-end Paxos Commit on the cluster harness: happy path,
//      coordinator takeover, and recovery idempotency under twice-restarted
//      nodes.
//   3. One-phase family: early-prepare flow, the prepare-constraint
//      (writes after the early prepare are rejected), and the logless
//      variant's force count.

#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "rm/kv_resource_manager.h"
#include "tm/paxos_acceptor.h"
#include "tm/types.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::DrivenCommit;
using harness::NodeOptions;
using tm::PaxosAcceptor;
using tm::ProtocolKind;

// --- acceptor state machine -------------------------------------------------

TEST(PaxosAcceptorTest, BallotDiscipline) {
  PaxosAcceptor acc;
  const std::vector<std::string> cohort = {"c0", "s1"};

  // Ballot-0 self votes always land on a fresh transaction.
  EXPECT_TRUE(acc.Accept(7, "c0", 0, true, cohort, "c0"));
  EXPECT_TRUE(acc.Accept(7, "s1", 0, false, cohort, "c0"));

  // A promise at ballot 3 blocks anything below it...
  EXPECT_TRUE(acc.Promise(7, 3));
  EXPECT_FALSE(acc.Accept(7, "c0", 2, true, cohort, ""));
  EXPECT_FALSE(acc.Promise(7, 1));
  // ...but re-granting the same ballot is idempotent (message retries).
  EXPECT_TRUE(acc.Promise(7, 3));

  // An accept at the promised ballot overwrites the instance.
  EXPECT_TRUE(acc.Accept(7, "c0", 3, false, cohort, ""));
  const tm::AcceptorTxn* state = acc.Find(7);
  ASSERT_NE(state, nullptr);
  const tm::AcceptorInstance* inst = state->Find("c0");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->ballot, 3u);
  EXPECT_FALSE(inst->prepared);
  EXPECT_EQ(acc.Promised(7), 3u);

  // Accept also raises the promise: ballot 5 accept, then 4 is stale.
  EXPECT_TRUE(acc.Accept(7, "c0", 5, true, cohort, ""));
  EXPECT_FALSE(acc.Promise(7, 4));
}

TEST(PaxosAcceptorTest, RecordsCohortAndBallotZeroLeader) {
  PaxosAcceptor acc;
  EXPECT_TRUE(acc.Accept(1, "s1", 0, true, {"c0", "s1"}, "c0"));
  const tm::AcceptorTxn* state = acc.Find(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->leader0, "c0");
  EXPECT_EQ(state->cohort.size(), 2u);
  // A later, thinner cohort never shrinks the recorded one; a takeover
  // (ballot >= 1) never overwrites the ballot-0 leader.
  EXPECT_TRUE(acc.Accept(1, "s1", 2, true, {"s1"}, "s1"));
  EXPECT_EQ(acc.Find(1)->cohort.size(), 2u);
  EXPECT_EQ(acc.Find(1)->leader0, "c0");
}

// The safety core: two leaders at distinct ballots can never assemble
// accepted majorities for conflicting values of one instance, because the
// later leader's phase 1 majority intersects any earlier accepted majority.
TEST(PaxosAcceptorTest, MajorityIntersection) {
  PaxosAcceptor a, b, c;  // the 2F+1 = 3 acceptor set
  const std::vector<std::string> cohort = {"c0", "s1"};

  // Leader 1 (ballot 0, the participant itself) reaches a majority {a, b}
  // with Prepared before dying.
  EXPECT_TRUE(a.Accept(9, "s1", 0, true, cohort, "c0"));
  EXPECT_TRUE(b.Accept(9, "s1", 0, true, cohort, "c0"));

  // Leader 2 runs phase 1 at ballot 4 against any majority: it must see the
  // Prepared value at the intersection member and re-propose it.
  EXPECT_TRUE(b.Promise(9, 4));
  EXPECT_TRUE(c.Promise(9, 4));
  const tm::AcceptorInstance* seen = b.Find(9)->Find("s1");
  ASSERT_NE(seen, nullptr);
  EXPECT_TRUE(seen->prepared) << "intersection must expose the accepted value";

  // Had leader 1 reached only a minority {a}, leader 2's majority {b, c}
  // sees nothing — and leader 1 can no longer finish: its stale ballot is
  // rejected at every promised member.
  PaxosAcceptor x, y, z;
  EXPECT_TRUE(x.Accept(9, "s1", 0, true, cohort, "c0"));
  EXPECT_TRUE(y.Promise(9, 4));
  EXPECT_TRUE(z.Promise(9, 4));
  EXPECT_EQ(y.Find(9)->Find("s1"), nullptr);
  EXPECT_FALSE(y.Accept(9, "s1", 0, true, cohort, "c0"))
      << "the revoked leader must not complete a late majority";
  // Leader 2 fixes Aborted at {y, z}: 2 of 3 — decided, conflict-free.
  EXPECT_TRUE(y.Accept(9, "s1", 4, false, cohort, ""));
  EXPECT_TRUE(z.Accept(9, "s1", 4, false, cohort, ""));
}

TEST(PaxosAcceptorTest, SnapshotRoundTripsAndRejectsCorruption) {
  PaxosAcceptor acc;
  EXPECT_TRUE(acc.Accept(3, "c0", 0, true, {"c0", "s1"}, "c0"));
  EXPECT_TRUE(acc.Promise(3, 6));
  std::string snap;
  acc.EncodeSnapshot(3, &snap);

  PaxosAcceptor restored;
  ASSERT_TRUE(restored.RestoreSnapshot(3, snap).ok());
  EXPECT_EQ(restored.Promised(3), 6u);
  const tm::AcceptorInstance* inst = restored.Find(3)->Find("c0");
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->prepared);
  EXPECT_EQ(restored.Find(3)->leader0, "c0");

  // Truncations and trailing garbage must be rejected, never half-applied.
  for (size_t cut = 0; cut < snap.size(); ++cut) {
    PaxosAcceptor damaged;
    EXPECT_FALSE(damaged.RestoreSnapshot(3, snap.substr(0, cut)).ok());
  }
  PaxosAcceptor trailing;
  EXPECT_FALSE(trailing.RestoreSnapshot(3, snap + "x").ok());

  EXPECT_TRUE(PaxosAcceptor::IsMajority(2, 3));
  EXPECT_FALSE(PaxosAcceptor::IsMajority(1, 3));
  EXPECT_TRUE(PaxosAcceptor::IsMajority(3, 5));
  EXPECT_FALSE(PaxosAcceptor::IsMajority(2, 5));
}

TEST(PaxosAcceptorTest, SixtyFourBitBallotsNeverWrap) {
  // Dueling takeovers drive ballots up monotonically; near the top of the
  // 64-bit range the discipline must still hold — a promise at a huge
  // ballot can never be outbid by arithmetic that wrapped around.
  PaxosAcceptor acc;
  const uint64_t huge = std::numeric_limits<uint64_t>::max() - 3;
  EXPECT_TRUE(acc.Promise(1, huge));
  EXPECT_FALSE(acc.Promise(1, huge - 1));
  EXPECT_FALSE(acc.Accept(1, "c0", 5, true, {"c0", "s1"}, "c0"));
  EXPECT_TRUE(acc.Accept(1, "c0", huge, true, {"c0", "s1"}, "c0"));
  // Snapshots carry the full width.
  std::string snap;
  acc.EncodeSnapshot(1, &snap);
  PaxosAcceptor restored;
  ASSERT_TRUE(restored.RestoreSnapshot(1, snap).ok());
  EXPECT_FALSE(restored.Promise(1, huge - 1));
  EXPECT_TRUE(restored.Promise(1, huge));
}

TEST(PaxosAcceptorTest, EraseAndTombstoneReclaimState) {
  PaxosAcceptor acc;
  EXPECT_TRUE(acc.Accept(7, "c0", 0, true, {"c0", "s1"}, "c0"));
  EXPECT_FALSE(acc.HasAllInstances(7));  // s1's instance still missing
  EXPECT_TRUE(acc.Accept(7, "s1", 0, true, {"c0", "s1"}, "c0"));
  EXPECT_TRUE(acc.HasAllInstances(7));
  const size_t held = acc.ApproxBytes();

  // Erase reclaims; the empty snapshot is the replayable tombstone.
  EXPECT_TRUE(acc.Erase(7));
  EXPECT_FALSE(acc.Erase(7));  // idempotent
  EXPECT_EQ(acc.txn_count(), 0u);
  EXPECT_LT(acc.ApproxBytes(), held);

  // Replaying live state then the tombstone (last-record-wins) ends
  // reclaimed, not resurrected as empty state.
  PaxosAcceptor replay;
  EXPECT_TRUE(replay.Accept(7, "c0", 0, true, {"c0", "s1"}, "c0"));
  std::string live;
  replay.EncodeSnapshot(7, &live);
  std::string tomb;
  PaxosAcceptor empty;
  empty.EncodeSnapshot(7, &tomb);  // unknown txn encodes the empty snapshot
  PaxosAcceptor target;
  ASSERT_TRUE(target.RestoreSnapshot(7, live).ok());
  EXPECT_EQ(target.txn_count(), 1u);
  ASSERT_TRUE(target.RestoreSnapshot(7, tomb).ok());
  EXPECT_EQ(target.txn_count(), 0u);
}

// --- end-to-end Paxos Commit ------------------------------------------------

struct PaxosCluster {
  Cluster c{1};
  uint64_t txn = 0;

  explicit PaxosCluster(bool acceptor_only_third = true) {
    NodeOptions base;
    base.tm.protocol = ProtocolKind::kPaxosCommit;
    base.tm.acceptors = {"c0", "s1", "a2"};
    base.tm.vote_timeout = 5 * sim::kSecond;
    base.tm.inquiry_delay = 4 * sim::kSecond;
    for (const char* n : {"c0", "s1", "a2"}) {
      NodeOptions options = base;
      if (acceptor_only_third && std::string(n) == "a2") options.num_rms = 0;
      c.AddNode(n, options);
    }
    c.Connect("c0", "s1");
    c.Connect("c0", "a2");
    c.Connect("s1", "a2");
    c.tm("s1").SetAppDataHandler(
        [this](uint64_t t, const net::NodeId&, std::string_view) {
          c.tm("s1").Write(t, 0, "k_s1", "v", [](Status) {});
        });
  }

  void StartWorkload() {
    txn = c.tm("c0").Begin();
    c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
    (void)c.tm("c0").SendWork(txn, "s1");
    c.RunFor(sim::kSecond);
  }
};

TEST(PaxosCommitTest, HappyPathCommits) {
  PaxosCluster f;
  f.StartWorkload();
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok());
  const harness::TxnAudit audit = f.c.Audit(f.txn);
  EXPECT_TRUE(audit.consistent);
  EXPECT_FALSE(audit.any_in_doubt);
}

TEST(PaxosCommitTest, NoVoteAborts) {
  PaxosCluster f;
  f.StartWorkload();
  f.c.node("s1").rm().FailNextPrepare();
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kAborted);
  EXPECT_FALSE(f.c.node("s1").rm().Peek("k_s1").ok());
  EXPECT_FALSE(f.c.node("c0").rm().Peek("k_c0").ok());
}

// Coordinator dies right after fanning out its own Prepared vote: every
// instance is Prepared at the acceptors, so the subordinate's takeover must
// finish the consensus with COMMIT — this is the window where basic 2PC
// blocks until the coordinator returns.
TEST(PaxosCommitTest, SubordinateTakeoverCommitsAfterCoordinatorCrash) {
  PaxosCluster f;
  f.StartWorkload();
  f.c.ctx().failures().ArmCrash("c0", "root.after_paxos_vote_send", 1);
  auto commit = f.c.StartCommit("c0", f.txn);
  f.c.RunFor(20 * sim::kSecond);  // c0 stays down the whole time
  EXPECT_FALSE(f.c.tm("c0").IsUp());

  // s1 resolved without the coordinator.
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok());

  // The coordinator recovers in doubt from its prepared record, re-joins
  // the consensus, and lands on the same outcome.
  f.c.node("c0").Restart();
  f.c.RunFor(20 * sim::kSecond);
  EXPECT_EQ(f.c.tm("c0").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("c0").rm().Peek("k_c0").ok());
  EXPECT_TRUE(f.c.Audit(f.txn).consistent);
}

// Coordinator dies before its own vote: no acceptor ever saw the root's
// instance, so the takeover's free choice fixes Aborted — and the recovered
// root (no prepared record) converges on abort too.
TEST(PaxosCommitTest, TakeoverAbortsUnvotedCoordinatorInstance) {
  PaxosCluster f;
  f.StartWorkload();
  f.c.ctx().failures().ArmCrash("c0", "root.after_prepare_send", 1);
  auto commit = f.c.StartCommit("c0", f.txn);
  f.c.RunFor(20 * sim::kSecond);
  f.c.node("c0").Restart();
  f.c.RunFor(20 * sim::kSecond);
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kAborted);
  EXPECT_FALSE(f.c.node("s1").rm().Peek("k_s1").ok());
  EXPECT_FALSE(f.c.node("c0").rm().Peek("k_c0").ok());
}

// Recovery idempotency under twice-restarted nodes: crash + restart every
// node twice after the commit resolves; the durable outcome and stores must
// be identical after each round, and no node may regress to in-doubt.
TEST(PaxosCommitTest, RecoveryIdempotentUnderDoubleRestart) {
  PaxosCluster f;
  f.StartWorkload();
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.result.outcome, tm::Outcome::kCommitted);

  for (int round = 0; round < 2; ++round) {
    for (const char* n : {"c0", "s1", "a2"}) {
      if (f.c.tm(n).IsUp()) f.c.ctx().failures().CrashNow(n);
    }
    for (const char* n : {"c0", "s1", "a2"}) {
      f.c.ctx().failures().RestartNow(n);
    }
    f.c.RunFor(20 * sim::kSecond);
    EXPECT_EQ(f.c.tm("c0").View(f.txn).outcome, tm::Outcome::kCommitted)
        << "round " << round;
    EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kCommitted)
        << "round " << round;
    ASSERT_TRUE(f.c.node("c0").rm().Peek("k_c0").ok()) << "round " << round;
    ASSERT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok()) << "round " << round;
    EXPECT_EQ(f.c.tm("s1").InDoubtCount(), 0u) << "round " << round;
    EXPECT_EQ(f.c.tm("c0").InDoubtCount(), 0u) << "round " << round;
  }
}

// Satellite (a): two cohort members duel for the takeover across >= 3
// attempts each and still converge on one decision. The partition stalls
// both leaders (self-promise only, no majority), so the retry timer keeps
// raising attempts; healing the partition lets the duel resolve. The 64-bit
// saturating ballot arithmetic guarantees attempts never collide or wrap.
TEST(PaxosCommitTest, DuelingTakeoversConvergeOnOneDecision) {
  PaxosCluster f;
  f.StartWorkload();
  f.c.ctx().failures().ArmCrash("c0", "root.after_paxos_vote_send", 1);
  f.c.StartCommit("c0", f.txn);
  f.c.RunFor(100 * sim::kMillisecond);  // 2a fan-outs reach the acceptors
  EXPECT_FALSE(f.c.tm("c0").IsUp());

  // Partition every link, then bring c0 back: both prepared cohort members
  // (the recovered root and the stuck subordinate) start takeovers that
  // cannot reach a majority.
  const char* links[][2] = {{"c0", "s1"}, {"c0", "a2"}, {"s1", "a2"}};
  for (const auto& l : links) f.c.network().SetLinkDown(l[0], l[1], true);
  f.c.node("c0").Restart();
  f.c.RunFor(25 * sim::kSecond);  // several failed attempts on each side

  size_t c0_attempts = 0;
  size_t s1_attempts = 0;
  f.c.ctx().trace().ForEach(
      [](const sim::TraceEntry& e) {
        return e.detail.find("paxos takeover") != std::string::npos;
      },
      [&](const sim::TraceEntry& e) {
        if (e.node == "c0") ++c0_attempts;
        if (e.node == "s1") ++s1_attempts;
      });
  EXPECT_GE(c0_attempts, 3u) << "root should keep re-bidding";
  EXPECT_GE(s1_attempts, 3u) << "subordinate should keep re-bidding";

  for (const auto& l : links) f.c.network().SetLinkDown(l[0], l[1], false);
  f.c.RunFor(30 * sim::kSecond);

  // One decision, converged everywhere: every instance was Prepared before
  // the crash, so it must be commit.
  EXPECT_EQ(f.c.tm("c0").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("c0").rm().Peek("k_c0").ok());
  EXPECT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok());
  const harness::TxnAudit audit = f.c.Audit(f.txn);
  EXPECT_TRUE(audit.consistent);
  EXPECT_FALSE(audit.any_in_doubt);
}

// Satellite (c): a bundled 2b that arrives after the leader already decided
// (slow acceptor; the majority was reached without it) must be dropped
// idempotently — no second decision fan-out, no state resurrection.
TEST(PaxosCommitTest, LateAcceptorReplyAfterDecisionIsDropped) {
  PaxosCluster f;
  // a2 is two seconds away in each direction: its bundled 2b lands at the
  // coordinator well after {c0, s1} formed the majority, decided, fanned
  // out, collected acks, and forgot the transaction.
  f.c.network().SetLinkLatency("c0", "a2", 2 * sim::kSecond);
  f.c.network().SetLinkLatency("s1", "a2", 2 * sim::kSecond);
  f.StartWorkload();
  const auto count_decisions = [&f] {
    size_t n = 0;
    f.c.ctx().trace().ForEach(
        [](const sim::TraceEntry& e) {
          return e.kind == sim::TraceKind::kSend && e.node == "c0" &&
                 e.peer == "s1" &&
                 e.detail.find("COMMIT") != std::string::npos;
        },
        [&n](const sim::TraceEntry&) { ++n; });
    return n;
  };
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  const size_t decisions_at_commit = count_decisions();

  f.c.RunFor(30 * sim::kSecond);  // the stragglers arrive and must be eaten

  EXPECT_EQ(count_decisions(), decisions_at_commit)
      << "the late 2b re-entered decision fan-out";
  EXPECT_EQ(f.c.tm("c0").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.Audit(f.txn).consistent);
}

// Satellite (b): END-driven reclamation. A long closed loop of decided
// transactions must not accumulate acceptor state anywhere — the decision
// owner reclaims at Forget, cohort acceptors on the piggybacked kPaxosEnd,
// so at any quiescent point each node holds at most the not-yet-hinted tail
// (the most recent transaction).
TEST(PaxosCommitTest, AcceptorStateIsGarbageCollectedAcrossClosedLoop) {
  PaxosCluster f;
  size_t a2_bytes_early = 0;
  for (int i = 0; i < 30; ++i) {
    f.StartWorkload();
    const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.result.outcome, tm::Outcome::kCommitted) << "iteration " << i;
    // The owner reclaims its own state at Forget; peers lag by at most the
    // buffered kPaxosEnd, which rides the next transaction's traffic.
    EXPECT_EQ(f.c.tm("c0").AcceptorTxnCount(), 0u) << "iteration " << i;
    EXPECT_LE(f.c.tm("s1").AcceptorTxnCount(), 1u) << "iteration " << i;
    EXPECT_LE(f.c.tm("a2").AcceptorTxnCount(), 1u) << "iteration " << i;
    if (i == 4) a2_bytes_early = f.c.tm("a2").ApproxBytes();
  }
  // Bounded memory on the acceptor-only node: growth across the last 25
  // decided transactions is per-txn archive metadata only, far below what
  // 25 leaked AcceptorTxn entries (cohort + instance vectors + strings)
  // would cost.
  const size_t a2_bytes_late = f.c.tm("a2").ApproxBytes();
  EXPECT_LT(a2_bytes_late, a2_bytes_early + 25 * 200)
      << "acceptor-only node keeps per-txn state after resolution";
}

// A read-only subordinate votes on the paxos path without ending its
// read-only work, so its IS+S read locks must go when the commit decision
// reaches its RM — at F=1 and at the F=0 degenerate alike.
TEST(PaxosCommitTest, ReadOnlySubordinateReleasesItsLocks) {
  for (const bool f0 : {false, true}) {
    SCOPED_TRACE(f0 ? "F=0" : "F=1");
    Cluster c{1};
    NodeOptions o;
    o.tm.protocol = ProtocolKind::kPaxosCommit;
    o.tm.acceptors = {"c0"};
    if (!f0) o.tm.acceptors = {"c0", "w1", "r2"};
    for (const char* n : {"c0", "w1", "r2"}) c.AddNode(n, o);
    c.Connect("c0", "w1");
    c.Connect("c0", "r2");
    if (!f0) c.Connect("w1", "r2");
    c.tm("w1").SetAppDataHandler(
        [&c](uint64_t t, const net::NodeId&, std::string_view) {
          c.tm("w1").Write(t, 0, "k_w1", "v", [](Status) {});
        });
    c.tm("r2").SetAppDataHandler(
        [&c](uint64_t t, const net::NodeId&, std::string_view) {
          c.tm("r2").Read(t, 0, "k_r2", [](Result<std::string>) {});
        });

    const uint64_t txn = c.tm("c0").Begin();
    c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
    ASSERT_TRUE(c.tm("c0").SendWork(txn, "w1").ok());
    ASSERT_TRUE(c.tm("c0").SendWork(txn, "r2").ok());
    c.RunFor(sim::kSecond);
    lock::LockManager& reader_locks = c.node("r2").rm().locks();
    ASSERT_EQ(reader_locks.HeldLockCount(), 2u);  // IS on the store, S on k_r2

    const DrivenCommit r = c.CommitAndWait("c0", txn, 60 * sim::kSecond);
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.result.outcome, tm::Outcome::kCommitted);
    c.RunFor(20 * sim::kSecond);
    EXPECT_EQ(c.tm("r2").View(txn).outcome, tm::Outcome::kCommitted);
    EXPECT_EQ(reader_locks.HeldLockCount(), 0u);
  }
}

// --- one-phase family -------------------------------------------------------

struct OnePhaseCluster {
  Cluster c{1};
  uint64_t txn = 0;

  explicit OnePhaseCluster(ProtocolKind protocol) {
    NodeOptions base;
    base.tm.protocol = protocol;
    base.tm.vote_timeout = 5 * sim::kSecond;
    c.AddNode("c0", base);
    c.AddNode("s1", base);
    c.Connect("c0", "s1");
    c.tm("s1").SetAppDataHandler(
        [this](uint64_t t, const net::NodeId&, std::string_view) {
          c.tm("s1").Write(t, 0, "k_s1", "v", [](Status) {});
        });
  }

  void StartWorkload() {
    txn = c.tm("c0").Begin();
    c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
    (void)c.tm("c0").SendWork(txn, "s1");
    c.RunFor(sim::kSecond);
  }
};

TEST(OnePhaseTest, CommitsWithoutExplicitPrepare) {
  OnePhaseCluster f(ProtocolKind::kOnePhase);
  f.StartWorkload();
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok());
  // The whole point: no Prepare request ever crossed the wire.
  size_t prepares = 0;
  f.c.ctx().trace().ForEach(
      [](const sim::TraceEntry& e) {
        return e.kind == sim::TraceKind::kSend &&
               e.detail.find("prepare") != std::string::npos;
      },
      [&prepares](const sim::TraceEntry&) { ++prepares; });
  EXPECT_EQ(prepares, 0u) << "one-phase commit must not send Prepare";
}

TEST(OnePhaseTest, LoglessVariantSkipsThePreparedForce) {
  tm::TxnCost with_log, logless;
  for (ProtocolKind p :
       {ProtocolKind::kOnePhase, ProtocolKind::kOnePhaseLogless}) {
    OnePhaseCluster f(p);
    f.StartWorkload();
    const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.result.outcome, tm::Outcome::kCommitted);
    (p == ProtocolKind::kOnePhase ? with_log : logless) =
        f.c.TotalCost(f.txn);
  }
  // The logless subordinate votes YES with nothing on disk, so it spends
  // one forced write less than the logged early-prepare variant.
  EXPECT_EQ(logless.tm_log_forced + 1, with_log.tm_log_forced);
  EXPECT_EQ(logless.flows_sent, with_log.flows_sent);
}

// A subordinate whose early vote waits past its inquiry delay asks the root,
// which has not begun commit processing: the root aborts its work, answers
// "aborted" and forgets the transaction. The application's later Commit must
// report that abort, not commit a fresh, empty transaction under the id.
TEST(OnePhaseTest, CommitAfterAnInquiryAbortReportsTheAbort) {
  OnePhaseCluster f(ProtocolKind::kOnePhase);
  f.StartWorkload();
  f.c.RunFor(20 * sim::kSecond);  // past s1's 15 s inquiry delay
  ASSERT_EQ(f.c.tm("c0").View(f.txn).outcome, tm::Outcome::kAborted);
  ASSERT_FALSE(f.c.tm("c0").Knows(f.txn));
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kAborted);
  EXPECT_FALSE(f.c.tm("c0").Knows(f.txn));
  EXPECT_FALSE(f.c.node("c0").rm().Peek("k_c0").ok());
  EXPECT_FALSE(f.c.node("s1").rm().Peek("k_s1").ok());
}

// A logless cascaded subordinate that writes nothing itself has no RM
// prepared force to carry its record, so it forces one: otherwise a crash
// right after its YES forgets the child it must pass the decision to, and
// the child's inquiry is answered "aborted" by presumption while the root
// commits.
TEST(OnePhaseTest, LoglessRelayWithoutUpdatesRemembersItsChild) {
  Cluster c{1};
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kOnePhaseLogless;
  options.tm.vote_timeout = 5 * sim::kSecond;
  options.tm.ack_timeout = 3 * sim::kSecond;
  options.tm.inquiry_delay = 4 * sim::kSecond;
  for (const char* n : {"c0", "m1", "s2"}) c.AddNode(n, options);
  c.Connect("c0", "m1");
  c.Connect("m1", "s2");
  c.tm("m1").SetAppDataHandler(
      [&c](uint64_t t, const net::NodeId&, std::string_view) {
        (void)c.tm("m1").SendWork(t, "s2");  // relays, writes nothing
      });
  c.tm("s2").SetAppDataHandler(
      [&c](uint64_t t, const net::NodeId&, std::string_view) {
        c.tm("s2").Write(t, 0, "k_s2", "v", [](Status) {});
      });
  c.ctx().failures().ArmCrash("m1", "sub.after_unsolicited_vote_send", 1,
                              sim::FailureInjector::kAnyEpoch);
  const uint64_t txn = c.tm("c0").Begin();
  c.tm("c0").Write(txn, 0, "k_c0", "v", [](Status) {});
  (void)c.tm("c0").SendWork(txn, "m1");
  c.RunFor(sim::kSecond);
  ASSERT_FALSE(c.tm("m1").IsUp()) << "m1 should have died after its YES";
  c.node("m1").Restart();
  const DrivenCommit r = c.CommitAndWait("c0", txn, 60 * sim::kSecond);
  c.RunFor(60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(c.tm("s2").View(txn).outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(c.node("s2").rm().Peek("k_s2").value_or(""), "v");
  EXPECT_EQ(c.tm("m1").CostOf(txn).tm_log_forced, 2u);  // prepared, commit
}

// The prepare constraint: once the early prepare fires, the transaction's
// write window is closed — further writes are rejected, they can no longer
// be covered by the (already-sent) YES vote.
TEST(OnePhaseTest, WritesAfterEarlyPrepareAreRejected) {
  OnePhaseCluster f(ProtocolKind::kOnePhase);
  f.StartWorkload();  // runs 1s; the 10ms quiesce timer fired long ago
  EXPECT_EQ(f.c.tm("s1").View(f.txn).outcome, tm::Outcome::kInDoubt)
      << "subordinate should have early-prepared during the quiesce window";
  Status write_status = Status::OK();
  f.c.tm("s1").Write(f.txn, 0, "late_key", "v",
                     [&write_status](Status st) { write_status = st; });
  f.c.RunFor(100 * sim::kMillisecond);
  EXPECT_FALSE(write_status.ok());
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  EXPECT_FALSE(f.c.node("s1").rm().Peek("late_key").ok())
      << "a rejected write must leave no effects";
}

// New data arriving after an early prepare would be lost — but the one-phase
// engine only early-prepares after the data flow quiesces, and re-arms the
// window on every new work message. A second work burst inside the quiesce
// window must therefore be covered by the (later) vote.
TEST(OnePhaseTest, QuiesceTimerReArmsOnNewWork) {
  OnePhaseCluster f(ProtocolKind::kOnePhase);
  f.txn = f.c.tm("c0").Begin();
  f.c.tm("c0").Write(f.txn, 0, "k_c0", "v", [](Status) {});
  (void)f.c.tm("c0").SendWork(f.txn, "s1");
  f.c.RunFor(4 * sim::kMillisecond);  // < early_prepare_delay
  (void)f.c.tm("c0").SendWork(f.txn, "s1");  // re-arms s1's window
  f.c.RunFor(sim::kSecond);
  const DrivenCommit r = f.c.CommitAndWait("c0", f.txn, 60 * sim::kSecond);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.result.outcome, tm::Outcome::kCommitted);
  EXPECT_TRUE(f.c.node("s1").rm().Peek("k_s1").ok());
}

}  // namespace
}  // namespace tpc
